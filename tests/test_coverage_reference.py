"""The coverage parser against a whole-document reference.

The reference below is the parser as it was written before file records
were memoized by their text: each coverage file decoded whole (every
whitespace-separated document, as ``json.loads`` reads one), then every
file record checked and its positive lines unioned, the first record of a
line giving its function.  ``parse_gcov_blocks`` walks the documents
record by record and decodes only record texts its memo has not seen; it
must give the same blocks and, for a file that does not parse, the same
error: type, message, offset and cause.
"""

import gzip
import json
import posixpath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugsteps.coverage import parse_gcov_blocks
from bugsteps.errors import MalformedCoverage
from bugsteps.model import LINE_MASK, normalize_path


def ref_documents(text):
    docs, decoder, space = [], json.JSONDecoder(), json.decoder.WHITESPACE.match
    idx = space(text, 0).end()
    try:
        while True:
            doc, idx = decoder.raw_decode(text, idx)
            docs.append(doc)
            idx = space(text, idx).end()
            if idx == len(text):
                return docs
    except json.JSONDecodeError as exc:
        offset = len(text[:exc.pos].encode("utf-8"))  # bytes, not characters
        raise MalformedCoverage(f"invalid JSON: {exc.msg}", offset=offset) from exc


def ref_integer(value, file):
    if type(value) is not int:  # gcov writes ints: a bool, float or string is malformed
        raise MalformedCoverage(f"line_number or count {value!r} of {file!r} is not an int")
    return value


def ref_file(path, source_root):
    if source_root:
        root = posixpath.normpath(source_root.replace("\\", "/")).rstrip("/") + "/"
        norm = posixpath.normpath(path.replace("\\", "/"))
        if norm.startswith(root):
            path = norm[len(root):]
    try:
        path = normalize_path(path)
    except ValueError:
        return None
    return None if path.startswith("/") else path


def ref_parse(files, source_root):
    """``{file: {line: function}}`` of a run's coverage files, no file empty."""
    covered = {}
    for data in files:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedCoverage("coverage is not valid UTF-8", offset=exc.start) from exc
        for doc in ref_documents(text):
            if not isinstance(doc, dict) or not isinstance(doc.get("files"), list):
                raise MalformedCoverage("gcov document missing 'files' array")
            for frec in doc["files"]:
                if not isinstance(frec, dict) or not isinstance(frec.get("file"), str):
                    raise MalformedCoverage("gcov file record needs a string 'file'")
                lrecs = frec.get("lines", [])
                if not isinstance(lrecs, list):
                    raise MalformedCoverage(f"gcov 'lines' of {frec['file']!r} is not an array")
                fname = ref_file(frec["file"], source_root)
                if fname is None:
                    continue
                lines = covered.setdefault(fname, {})
                for lrec in lrecs:
                    try:
                        line, count = lrec["line_number"], lrec.get("count", 0)
                    except (TypeError, KeyError):
                        raise MalformedCoverage(
                            f"gcov line record malformed in {frec['file']!r}") from None
                    line, count = ref_integer(line, frec["file"]), ref_integer(count, frec["file"])
                    if count > 0 and line > 0:
                        if line > LINE_MASK:
                            raise MalformedCoverage(
                                f"line {line} of {frec['file']!r} is above {LINE_MASK}")
                        function = lrec.get("function_name") or None
                        if function is not None and not isinstance(function, str):
                            raise MalformedCoverage(
                                f"function name must be a string, got {function!r}")
                        lines.setdefault(line, function)
    return {fname: lines for fname, lines in covered.items() if lines}


def error_of(exc):
    cause, context = exc.__cause__, exc.__context__
    return (type(exc), str(exc), getattr(exc, "offset", None),
            type(cause), str(cause), type(context), str(context))


def outcome(parse, *args, **kwargs):
    """What ``parse`` gives: its result, or its error's details."""
    try:
        return parse(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the two parsers must fail alike
        return error_of(exc)


def parsed(files, source_root, memo):
    blocks = parse_gcov_blocks(files, source_root, memo=memo)
    for block in blocks:
        assert {stmt & LINE_MASK for stmt in block} == set(block.functions)
    return {block.file: dict(block.functions) for block in blocks}


# numbers as gcov writes them, ints with zero counts among them, and the
# decimal strings and integral floats both parsers must reject alike
_NUMBER = st.integers(0, 6)
_LINE_NUMBER = st.one_of(_NUMBER, _NUMBER.map(str), _NUMBER.map(float))
_COUNT = st.sampled_from([0, 1, 7, "2", "0", 3.0, 0.0])
_FILES = ["m.c", "./m.c", "lib/u.c", "lib//u.c", "/src/m.c", "/src/./lib/u.c", "/usr/x.h",
          "../x.c", ".", ""]


@st.composite
def permuted(draw, items):
    """``items`` as a dict in a drawn key order."""
    return dict(draw(st.permutations(items)))


@st.composite
def line_record(draw):
    items = [("line_number", draw(_LINE_NUMBER)), ("count", draw(_COUNT))]
    if draw(st.booleans()):
        items.append(("function_name", draw(st.sampled_from(["foo", "bar", "", None]))))
    if draw(st.booleans()):
        items += [("branches", []), ("unexecuted_block", draw(st.booleans()))]
    return draw(permuted(items))


@st.composite
def file_record(draw):
    items = [("file", draw(st.sampled_from(_FILES))),
             ("lines", draw(st.lists(line_record(), max_size=4)))]
    if draw(st.booleans()):
        items.append(("functions", []))
    return draw(permuted(items))


@st.composite
def document(draw, records):
    """One document's text: its keys in a drawn order, indented or not."""
    others = draw(st.lists(st.sampled_from([
        ("format_version", "1"), ("gcc_version", "12.2.0"), ("data_file", "a.gcda"),
        ("current_working_directory", "/build")]), unique=True, max_size=3))
    files = draw(st.lists(st.sampled_from(records), max_size=5))
    doc = draw(permuted([("files", files), *others]))
    indent = draw(st.sampled_from([None, None, 0, 1, "\t"]))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " : ")]))
    return json.dumps(doc, indent=indent, separators=separators)


@st.composite
def coverage_file(draw, records):
    """A coverage file of one or more whitespace-separated documents."""
    space = st.sampled_from(["", " ", "\n", "\r\n\t "])
    docs = draw(st.lists(document(records), min_size=1, max_size=3))
    text = draw(space) + "".join(doc + draw(space) for doc in docs)
    return text.encode("utf-8")


@st.composite
def runs(draw):
    """A few runs' coverage files over one shared pool of file records, so a
    record repeats within a document, across documents and across runs."""
    records = draw(st.lists(file_record(), min_size=1, max_size=6))
    return draw(st.lists(st.lists(coverage_file(records), min_size=1, max_size=2),
                         min_size=1, max_size=4))


def corrupt(data, draw):
    """``data`` cut short or with one byte changed, or as it is."""
    how = draw(st.sampled_from(["keep", "keep", "cut", "flip"]))
    if how == "keep" or not data:
        return data
    at = draw(st.integers(0, len(data) - 1))
    if how == "cut":
        return data[:at]
    return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]


_SOURCE_ROOTS = st.sampled_from([None, "", "/src", "/src/"])


@settings(max_examples=300, deadline=None)
@given(runs(), _SOURCE_ROOTS, st.data())
def test_walk_agrees_with_whole_document_parse(all_runs, source_root, data):
    memo = {}
    order = data.draw(st.lists(st.integers(0, len(all_runs) - 1), min_size=1, max_size=8))
    for index in order:
        files = [corrupt(blob, data.draw) for blob in all_runs[index]]
        assert outcome(parsed, files, source_root, memo) == outcome(ref_parse, files,
                                                                    source_root)


def gcov_text(records, **dumps):
    return json.dumps({"format_version": "1", "files": records}, **dumps).encode()


# real gcov writes each record's "file" last, its documents one per line
_GCOV_RECORDS = [
    {"lines": [{"branches": [], "count": 2, "line_number": 3, "unexecuted_block": False,
                "function_name": "main"}], "functions": [], "file": "m.c"},
    {"lines": [{"branches": [], "count": 1, "line_number": 9, "unexecuted_block": False,
                "function_name": "helper"},
               {"branches": [], "count": 0, "line_number": 10, "unexecuted_block": True,
                "function_name": "helper"}], "functions": [], "file": "u.c"},
]


@pytest.mark.parametrize("indent", [None, 2])
def test_gcov_layout_through_one_memo(indent):
    first = gcov_text(_GCOV_RECORDS, indent=indent)
    both = first + b"\n" + gcov_text(_GCOV_RECORDS[::-1], indent=indent) + b"\n"
    memo = {}
    for files in ([first], [both], [both, first], [first]):
        assert parsed(files, None, memo) == ref_parse(files, None) == {
            "m.c": {3: "main"}, "u.c": {9: "helper"}}


@pytest.mark.parametrize("frec", [
    {"lines": []}, {"file": 7}, {"file": "a.c", "lines": {"1": 1}},
    {"file": "a.c", "lines": [{"line_number": True, "count": 1}]},
    {"file": "a.c", "lines": [{"line_number": 3, "count": "1 "}]},
    {"file": "a.c", "lines": [{"count": 1}]},
    {"file": "a.c", "lines": [{"line_number": 2 ** 24, "count": 1}]},
    {"file": "a.c", "lines": [{"line_number": 3, "count": 1, "function_name": 7}]},
])
def test_bad_record_after_memo_hits_fails_as_the_reference(frec):
    good = _GCOV_RECORDS[0]
    memo = {}
    parsed([gcov_text([good, good])], None, memo)
    files = [gcov_text([good, frec, good])]
    error = outcome(parsed, files, None, memo)
    assert error == outcome(ref_parse, files, None)
    assert error[0] is MalformedCoverage


@pytest.mark.parametrize("text", [
    b"", b"  ", b"[]", b"{}", b'{"files": {}}', b'{"files": [], "files": 1}',
    b'{"files": [1], "files": []}', b'{"files": [{"file": "a.c"},]}', b'{"files": [,]}',
    b'{"files": []} []', b'{"files": []} x', b'{"files": []}\n{"files": [',
    b'{"files": [],}', b'{"files" [] }', b'\xef\xbb\xbf{"files": []}', b'{"files": []}\xff',
    b'{"files": [], "format_version": NaN}', b'{"files": []}{"files": []}',
    b'{"files": [{"file": "a.c", "lines": [{"line_number": 3, "count": 1}]}],'
    b' "files": [{"file": "b.c", "lines": [{"line_number": 4, "count": 1}]}]}',
])
def test_top_level_edge_cases_match_the_reference(text):
    memo = {}
    parsed([gcov_text(_GCOV_RECORDS)], None, memo)
    assert outcome(parsed, [text], None, memo) == outcome(ref_parse, [text], None)


@pytest.mark.parametrize("compress", [False, True])
def test_invalid_json_offset_counts_bytes_of_the_decoded_document(compress):
    data = '{"files": [{"file": "ééé.c", "lines": [}]}'.encode("utf-8")
    assert data[42:43] == b"}"  # the 40th character: each "é" is two bytes
    with pytest.raises(MalformedCoverage, match=r"\(byte offset 42\)$") as info:
        parse_gcov_blocks([gzip.compress(data) if compress else data])
    assert info.value.offset == 42
    assert error_of(info.value) == outcome(ref_parse, [data], None)
