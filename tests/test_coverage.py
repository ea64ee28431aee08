import gzip
import json
import operator
import posixpath

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bugsteps.coverage import emit_gcov_json, parse_gcov_blocks
from bugsteps.errors import MalformedCoverage
from bugsteps.model import normalize_path
from conftest import StatementId, file_blocks, ids


def gcov_doc(files):
    return json.dumps({"format_version": "1", "files": files}).encode()


def parse_statements(data, source_root=None):
    """The statements of one gcov document, as one flat set of ``StatementId``s."""
    return frozenset().union(*map(ids, parse_gcov_blocks([data], source_root)))


class TestGcovJson:
    def test_count_filter(self):
        doc = gcov_doc([
            {
                "file": "f.c",
                "lines": [
                    {"line_number": 5, "count": 0, "function_name": "main"},
                    {"line_number": 6, "count": 3, "function_name": "main"},
                    {"line_number": 9, "count": 1, "function_name": "helper"},
                ],
            }
        ])
        assert parse_statements(doc) == {StatementId("f.c", 6), StatementId("f.c", 9)}

    def test_empty_files(self):
        assert parse_statements(gcov_doc([])) == frozenset()

    def test_duplicate_line_records_union(self):
        # oracle: manual set union over records with count > 0
        doc = gcov_doc([
            {
                "file": "f.c",
                "lines": [
                    {"line_number": 4, "count": 0},
                    {"line_number": 4, "count": 2},
                ],
            }
        ])
        parsed = parse_statements(doc)
        assert parsed == {StatementId("f.c", 4)}
        assert len(parsed) == 1

    def test_gzip_compressed(self):
        doc = gcov_doc([{"file": "g.c", "lines": [{"line_number": 2, "count": 7}]}])
        assert parse_statements(gzip.compress(doc)) == {StatementId("g.c", 2)}

    def test_function_metadata_kept(self):
        doc = gcov_doc([
            {"file": "f.c", "lines": [{"line_number": 3, "count": 1,
                                       "function_name": "run"}]}
        ])
        (stmt,) = parse_statements(doc)
        assert stmt.function == "run"

    def test_repeated_line_keeps_first_function(self):
        doc = gcov_doc([
            {"file": "f.c", "lines": [
                {"line_number": 3, "count": 1, "function_name": "first"},
                {"line_number": 3, "count": 1, "function_name": "second"},
            ]}
        ])
        (stmt,) = parse_statements(doc)
        assert stmt.function == "first"

    @pytest.mark.parametrize("function", [["f"], {"f": 1}, 7])
    def test_non_string_function_rejected(self, function):
        lines = [{"line_number": 3, "count": 1, "function_name": function}]
        with pytest.raises(MalformedCoverage):
            parse_statements(gcov_doc([{"file": "f.c", "lines": lines}]))

    def test_memo_shared_between_parses(self):
        memo = {}
        doc = gcov_doc([{"file": "./f.c", "lines": [{"line_number": 3, "count": 1}]}])
        (a,) = parse_gcov_blocks([doc], memo=memo)
        (b,) = parse_gcov_blocks([doc], memo=memo)
        (c,) = parse_gcov_blocks([emit_gcov_json([a])], memo=memo)
        assert a is b is c
        assert a.file == "f.c" and ids(a) == {StatementId("f.c", 3)}

    def test_source_root_normalization(self):
        doc = gcov_doc([
            {"file": "/src/llvm/lib/Foo.cpp", "lines": [{"line_number": 3, "count": 1}]},
            {"file": "/usr/include/stdio.h", "lines": [{"line_number": 9, "count": 5}]},
        ])
        parsed = parse_statements(doc, source_root="/src/llvm")
        assert parsed == {StatementId("lib/Foo.cpp", 3)}

    def test_line_zero_dropped(self):
        doc = gcov_doc([{"file": "f.c", "lines": [{"line_number": 0, "count": 4}]}])
        assert parse_statements(doc) == frozenset()

    def test_malformed_reports_offset(self):
        with pytest.raises(MalformedCoverage) as err:
            parse_statements(b'{"files": [0,')
        assert err.value.offset is not None

    def test_missing_files_array(self):
        with pytest.raises(MalformedCoverage):
            parse_statements(b"{}")

    @pytest.mark.parametrize("frec", [
        {"lines": []}, {"file": None, "lines": []}, {"file": ["a.c"], "lines": []},
        {"file": 7}, {"file": "a.c", "lines": None}, {"file": "a.c", "lines": {"1": 1}},
        {"file": "a.c", "lines": "1"},
        # a line record whose line or count is no integer, or a line no
        # int statement holds
        {"file": "a.c", "lines": [{"line_number": 2.7, "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": True, "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": "2.7", "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": " 3", "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": "+3", "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": "3_0", "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": "\u0663", "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": 3, "count": "1 "}]},
        {"file": "a.c", "lines": [{"line_number": None, "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": [3], "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": 3, "count": 0.5}]},
        {"file": "a.c", "lines": [{"line_number": 3, "count": False}]},
        {"file": "a.c", "lines": [{"line_number": 3, "count": "many"}]},
        {"file": "a.c", "lines": [{"line_number": 2 ** 24, "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": "16777216", "count": 1}]},
        # gcov writes ints only: an integral float or a decimal string is no int
        {"file": "a.c", "lines": [{"line_number": 2.0, "count": 1}]},
        {"file": "a.c", "lines": [{"line_number": "3", "count": "2"}]},
        {"file": "a.c", "lines": [{"line_number": 2 ** 24 - 1, "count": 1.0}]},
        {"file": "a.c", "lines": [{"line_number": 5, "count": 0.0}]},
    ])
    def test_unchecked_file_record_fields_rejected(self, frec):
        with pytest.raises(MalformedCoverage):
            parse_statements(gcov_doc([frec]))

    def test_absent_lines_cover_nothing(self):
        assert parse_statements(gcov_doc([{"file": "a.c"}])) == frozenset()


@pytest.mark.parametrize("source_root", [None, "/src/llvm"])
@pytest.mark.parametrize("path", ["", ".", "a/..", "/src/llvm", "/usr/x.c", "../x.c"])
def test_degenerate_paths_dropped(path, source_root):
    gcov = gcov_doc([
        {"file": path, "lines": [{"line_number": 3, "count": 1}]},
        {"file": "k.c", "lines": [{"line_number": 4, "count": 1}]},
    ])
    assert parse_statements(gcov, source_root=source_root) == {StatementId("k.c", 4)}


def test_path_under_root_made_relative():
    path = "/src/llvm//lib/x/../Foo.cpp"
    gcov = gcov_doc([{"file": path, "lines": [{"line_number": 3, "count": 1}]}])
    assert parse_statements(gcov, source_root="/src/llvm/") == {StatementId("lib/Foo.cpp", 3)}


def triples(stmts):
    return {(s.file, s.line, s.function) for s in stmts}


class TestEmitGcovJson:
    def test_layout(self):
        stmts = {StatementId("b.c", 2), StatementId("a.c", 9, "g"), StatementId("a.c", 1, "f")}
        assert json.loads(emit_gcov_json(file_blocks(stmts))) == {"files": [
            {"file": "a.c", "lines": [
                {"line_number": 1, "count": 1, "function_name": "f"},
                {"line_number": 9, "count": 1, "function_name": "g"},
            ]},
            {"file": "b.c", "lines": [{"line_number": 2, "count": 1, "function_name": None}]},
        ]}

    def test_emit_parse_roundtrip(self):
        stmts = {
            StatementId("a.c", 1, "f"),
            StatementId("a.c", 9),
            StatementId("sub/b.c", 4, "g"),
        }
        assert triples(parse_statements(emit_gcov_json(file_blocks(stmts)))) == triples(stmts)

    def test_emit_is_canonical(self):
        stmts = {StatementId("a.c", 2), StatementId("a.c", 1)}
        blob = emit_gcov_json(file_blocks(stmts))
        assert parse_statements(blob) == stmts
        assert emit_gcov_json(parse_gcov_blocks([blob])) == blob

    def test_empty_statements(self):
        assert emit_gcov_json(()) == b'{"files":[]}'
        assert parse_statements(emit_gcov_json(())) == frozenset()

    def test_large_fixture_exact_count(self):
        stmts = {StatementId(f"d/f{i % 97}.c", i + 1) for i in range(10000)}
        assert len(stmts) == 10000
        assert len(parse_statements(emit_gcov_json(file_blocks(stmts)))) == 10000

    @given(
        st.frozensets(
            st.builds(
                StatementId,
                file=st.sampled_from(["x.c", "y/z.c"]),
                line=st.integers(min_value=1, max_value=500),
                function=st.one_of(st.none(), st.sampled_from(["f", "g"])),
            ),
            max_size=40,
        )
    )
    def test_roundtrip_property(self, stmts):
        assert triples(parse_statements(emit_gcov_json(file_blocks(stmts)))) == triples(stmts)


def reference_triples(documents, source_root):
    """The per-statement parse: ``(file, line, function)`` of each covered
    line, the function of the line's first positive record in document order."""
    root = posixpath.normpath(source_root) + "/" if source_root else None
    first = {}
    for frec in (frec for files in documents for frec in files):
        path = posixpath.normpath(frec["file"])
        if root and path.startswith(root):
            path = path[len(root):]
        try:
            path = normalize_path(path)
        except ValueError:
            continue
        if path.startswith("/"):
            continue
        for lrec in frec["lines"]:
            if lrec["count"] > 0 and lrec["line_number"] > 0:
                first.setdefault((path, lrec["line_number"]), lrec.get("function_name"))
    return {(file, line, function) for (file, line), function in first.items()}


_LINE_RECORDS = st.lists(st.fixed_dictionaries(
    {"line_number": st.integers(0, 5), "count": st.sampled_from([0, 1, 7, 2])},
    optional={"function_name": st.sampled_from(["foo", "bar"])},
), max_size=6)
_FILES = ["m.c", "./m.c", "lib/u.c", "lib//u.c", "/src/m.c", "/src/./lib/u.c", "/usr/x.h", "."]
_DOCUMENT = st.lists(st.fixed_dictionaries({"file": st.sampled_from(_FILES),
                                            "lines": _LINE_RECORDS}), max_size=6)


@given(st.lists(_DOCUMENT, min_size=1, max_size=3), st.sampled_from([None, "", "/src", "/src/"]))
@example([[{"file": "m.c", "lines": [{"line_number": 3, "count": 1}]},
           {"file": "./m.c", "lines": [{"line_number": 3, "count": 1, "function_name": "foo"},
                                       {"line_number": 4, "count": 1}]}]], None)
@example([[{"file": "m.c", "lines": [{"line_number": 3, "count": 0, "function_name": "foo"},
                                     {"line_number": 3, "count": 2, "function_name": "bar"}]}]],
         None)
@example([[{"file": "m.c", "lines": [{"line_number": 3, "count": 1, "function_name": "foo"},
                                     {"line_number": 3, "count": 1, "function_name": "bar"}]}]],
         None)
@example([[{"file": "/src/m.c", "lines": [{"line_number": 1, "count": 1}]},
           {"file": "m.c", "lines": [{"line_number": 2, "count": 1}]},
           {"file": "/usr/x.h", "lines": [{"line_number": 1, "count": 1}]}]], "/src/")
@example([[{"file": "m.c", "lines": [{"line_number": 3, "count": 1, "function_name": "bar"}]}],
          [{"file": "./m.c", "lines": [{"line_number": 3, "count": 1, "function_name": "foo"},
                                       {"line_number": 5, "count": 1}]}]], None)
def test_blocks_agree_with_per_statement_parse(documents, source_root):
    data = [json.dumps({"files": files}).encode() for files in documents]
    memo = {}
    blocks = parse_gcov_blocks(data, source_root, memo=memo)
    assert all(blocks)
    names = [block.file for block in blocks]
    assert names == sorted(set(names))  # in file order, one block per file
    assert all(stmt.file == name for name, block in zip(names, blocks) for stmt in ids(block))
    assert triples(frozenset().union(*map(ids, blocks))) == reference_triples(documents,
                                                                             source_root)
    # a repeated run is all memo hits: the same block objects
    again = parse_gcov_blocks(data, source_root, memo=memo)
    assert len(again) == len(blocks) and all(map(operator.is_, again, blocks))
