"""Coverage exchange: the gcov JSON intermediate format.

``parse_gcov_blocks`` reads what ``gcov --json-format`` writes, possibly
gzip-compressed and one document per ``.gcda`` file, as per-file blocks;
``emit_gcov_json`` writes the same layout, so the testbed's coverage takes
the path of real gcov output.

The runs of one isolation repeat most file records word for word, so the
parser walks each document record by record and decodes and checks only
a record text its memo has not seen: a record memo in front of the block
memo.  A file the walk cannot vouch for, one that does not parse above
all, is read again by decoding it whole, so the parser returns or raises
what that whole decode gives.
"""

from __future__ import annotations

import json
import posixpath
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import MalformedCoverage
from .model import LINE_BITS, LINE_MASK, Block, file_id, normalize_path

_GZIP_MAGIC = b"\x1f\x8b"
_WS = json.decoder.WHITESPACE.match
_KEY = json.decoder.scanstring
_DECODER = json.JSONDecoder()
_SCAN = _DECODER.scan_once  # raw_decode's scanner: StopIteration, not JSONDecodeError
_SPACE = " \t\n\r"
_FILE = attrgetter("file")


def _decode(data: bytes) -> bytes:
    if data[:2] == _GZIP_MAGIC:
        import gzip  # here, so a testbed-run child, which only writes coverage, never loads it

        try:
            return gzip.decompress(data)
        except OSError as exc:
            raise MalformedCoverage(f"bad gzip stream: {exc}") from exc
    return data


def _text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedCoverage("coverage is not valid UTF-8", offset=exc.start) from exc


def _documents(text: str) -> list:
    """Every whitespace-separated top-level JSON value of ``text``, in order.

    One document reads as ``json.loads`` reads it, with its errors.
    """
    docs = []
    idx = _WS(text, 0).end()
    try:
        while True:
            doc, idx = _DECODER.raw_decode(text, idx)
            docs.append(doc)
            idx = _WS(text, idx).end()
            if idx == len(text):
                return docs
    except json.JSONDecodeError as exc:  # its pos counts characters, the offset bytes
        offset = len(text[:exc.pos].encode("utf-8"))
        raise MalformedCoverage(f"invalid JSON: {exc.msg}", offset=offset) from exc


def _root_prefix(source_root: Optional[str]) -> Optional[str]:
    if not source_root:
        return None
    return posixpath.normpath(source_root.replace("\\", "/")).rstrip("/") + "/"


def _statement_file(path: str, root_prefix: Optional[str]) -> Optional[str]:
    """A coverage path as a statement path, or None when the parser drops it.

    A path under the source root is made relative to it; the result must
    then pass ``model.normalize_path`` and be relative, so a path outside
    the root, an empty one or one that escapes it is dropped.
    """
    if root_prefix:
        norm = posixpath.normpath(path.replace("\\", "/"))
        if norm.startswith(root_prefix):
            path = norm[len(root_prefix):]
    try:
        path = normalize_path(path)
    except ValueError:
        return None
    return None if path.startswith("/") else path


def _file_entry(frec, root_prefix: Optional[str]) -> Tuple[Optional[str], Dict[int, Optional[str]]]:
    """A gcov file record's statement file (None when the parser drops it) and
    its covered lines, each with the function of its first positive record.

    The file is found before any line record is read, so a dropped file's
    line records go unchecked.
    """
    if not isinstance(frec, dict) or not isinstance(frec.get("file"), str):
        raise MalformedCoverage("gcov file record needs a string 'file'")
    path = frec["file"]
    lrecs = frec.get("lines", [])
    if not isinstance(lrecs, list):
        raise MalformedCoverage(f"gcov 'lines' of {path!r} is not an array")
    lines: Dict[int, Optional[str]] = {}
    fname = _statement_file(path, root_prefix)
    if fname is None:
        return None, lines
    first, mask = lines.setdefault, LINE_MASK
    for lrec in lrecs:
        try:
            line, count = lrec["line_number"], lrec.get("count", 0)
        except (TypeError, KeyError):
            raise MalformedCoverage(f"gcov line record malformed in {path!r}") from None
        if type(line) is not int or type(count) is not int:  # gcov writes ints, never "3" or 3.0
            bad = line if type(line) is not int else count
            raise MalformedCoverage(f"line_number or count {bad!r} of {path!r} is not an int")
        if count > 0 and line > 0:
            if line > mask:
                raise MalformedCoverage(f"line {line} of {path!r} is above {mask}")
            function = lrec.get("function_name") or None
            if type(function) is not str and function is not None:
                raise MalformedCoverage(f"function name must be a string, got {function!r}")
            first(line, function)
    return fname, lines


def _walk_files(text: str, idx: int, records: dict, follows: dict, root_prefix: Optional[str],
                index: int, found: list) -> int:
    """Append the entry of each element of the ``files`` array that opens at
    ``idx`` to ``found``; the index just past the array.

    An element is first tried as the record that followed the element
    before it last time, the first one as the record that began the files
    of the run's document of this ``index``.
    """
    idx = _WS(text, idx + 1).end()
    if text[idx] == "]":
        return idx + 1
    prev, followed, recorded, append = index, follows.get, records.get, found.append
    while True:
        entry = followed(prev)
        # A hit is exact: only a text that decoded as an object is memoized,
        # and an object ends at its own closing brace, so decoding at idx
        # would stop at idx + len(entry[0]) with an equal object.
        if entry is not None and text.startswith(entry[0], idx):
            idx += len(entry[0])
        else:
            frec, stop = _SCAN(text, idx)
            piece = text[idx:stop]
            entry = recorded(piece)
            if entry is None:
                fname, lines = _file_entry(frec, root_prefix)
                entry = records[piece] = (piece, fname, lines)
            follows[prev] = entry
            idx = stop
        append(entry)
        prev = entry[0]
        while text[idx] in _SPACE:
            idx += 1
        if text[idx] == "]":
            return idx + 1
        if text[idx] != ",":
            raise ValueError("no comma")
        idx += 1
        while text[idx] in _SPACE:
            idx += 1


def _walk(text: str, records: dict, follows: dict, root_prefix: Optional[str], index: int,
          found: list) -> int:
    """Append the entry of each file record of ``text``'s documents to
    ``found``, in order; the run's index of the document after them.

    A record's entry is its text and its ``_file_entry``.  ``records``
    maps a record's text to its entry, ``follows`` a record's text, or a
    document's index in a run, to the entry of the record that followed
    it last time.  Any other top-level value is decoded and dropped.  Where
    the walk cannot tell what ``_documents`` and ``_file_entry`` would make
    of ``text`` (bad JSON, a top level that is no object, has no ``files``
    array or repeats ``files``, a bad record), it raises ``ValueError``,
    ``IndexError``, ``StopIteration`` or ``MalformedCoverage``.
    """
    idx = _WS(text, 0).end()
    while True:
        if text[idx] != "{":
            raise ValueError("not an object")
        idx = _WS(text, idx + 1).end()
        walked = False
        while True:
            if text[idx] != '"':
                raise ValueError("not a key")
            key, idx = _KEY(text, idx + 1)
            idx = _WS(text, idx).end()
            if text[idx] != ":":
                raise ValueError("no colon")
            idx = _WS(text, idx + 1).end()
            if key != "files":
                idx = _SCAN(text, idx)[1]
            elif walked or text[idx] != "[":
                raise ValueError("files repeated or not an array")  # json.loads keeps the last
            else:
                walked = True
                idx = _walk_files(text, idx, records, follows, root_prefix, index, found)
            idx = _WS(text, idx).end()
            if text[idx] == "}":
                break
            if text[idx] != ",":
                raise ValueError("no comma")
            idx = _WS(text, idx + 1).end()
        if not walked:
            raise ValueError("no files")
        index += 1
        idx = _WS(text, idx + 1).end()
        if idx == len(text):
            return index


def _records(data: bytes, walk: tuple, root_prefix: Optional[str], index: int) -> Tuple[list, int]:
    """The entries (see ``_walk``) of the file records of one coverage file,
    and the run's index of the document after it."""
    text = _text(_decode(data))
    found: Optional[list] = []
    try:
        index = _walk(text, *walk, root_prefix, index, found)
    except (ValueError, IndexError, StopIteration, MalformedCoverage):
        found = None
    if found is None:  # out of the except block, so no error chains the walk's
        found = []
        for doc in _documents(text):
            if not isinstance(doc, dict) or not isinstance(doc.get("files"), list):
                raise MalformedCoverage("gcov document missing 'files' array")
            found += ((None, *_file_entry(frec, root_prefix)) for frec in doc["files"])
            index += 1
    return found, index


def parse_gcov_blocks(documents: Iterable[bytes], source_root: Optional[str] = None,
                      memo: Optional[dict] = None,
                      names: Optional[Sequence[str]] = None) -> Tuple[Block, ...]:
    """Parse a run's gcov JSON-intermediate coverage files into one block per covered file.

    A file holds one or more whitespace-separated documents (``gcov --stdout``
    over several ``.gcda`` files writes one per line).  Only lines with a
    positive execution count are kept; duplicate records for the same line,
    also under another spelling of its file or in another document, are
    unioned, keeping the function of the first such record in document
    order.  A kept line must be below ``2**LINE_BITS``.  The blocks are in
    file order and none is empty.

    ``memo`` (a fresh one when omitted) is shared by the runs of one driver.
    It holds each file record text that was decoded and checked, so a
    record repeated from run to run is neither decoded nor checked again,
    and each block by its file and the set of its ``(line, function)``
    pairs, so a file whose covered lines and functions repeat yields the
    same block object every time.

    ``names``, when given, names each file of ``documents``: a
    ``MalformedCoverage`` then ends with the name of the file it is in.
    """
    memo = {} if memo is None else memo
    root_prefix = _root_prefix(source_root)
    # a source root's record memo and record links (see _walk), by a key no block has
    walk = memo.get((None, root_prefix))
    if walk is None:
        walk = memo[(None, root_prefix)] = ({}, {})
    # normalized file -> the covered lines of each of its records, in order
    files: Dict[str, List[Dict[int, Optional[str]]]] = {}
    index = 0
    for n, data in enumerate(documents):
        try:
            found, index = _records(data, walk, root_prefix, index)
        except MalformedCoverage as exc:
            if names is not None:
                exc.args = (f"{exc} in coverage file {names[n]}",)
            raise
        for _, fname, lines in found:
            if fname is not None:
                parts = files.get(fname)
                if parts is None:
                    files[fname] = [lines]
                else:
                    parts.append(lines)
    blocks = []
    for fname in sorted(files):
        parts = files[fname]
        lines = parts[0]
        if len(parts) > 1:  # the first record of a line wins; no memoized dict is changed
            lines = {}
            for part in reversed(parts):
                lines.update(part)
        if not lines:
            continue
        key = (fname, frozenset(lines.items()))
        block = memo.get(key)
        if block is None:
            base = file_id(fname) << LINE_BITS
            block = memo[key] = Block(map(base.__or__, lines), fname, lines)
        blocks.append(block)
    return tuple(blocks)


def emit_gcov_json(blocks: Iterable[Block]) -> bytes:
    """The gcov JSON document ``parse_gcov_blocks`` reads back as ``blocks``.

    Files in order and lines in order within each file, each line run once.
    """
    files = [
        {"file": block.file,
         "lines": [{"line_number": line, "count": 1, "function_name": block.functions[line]}
                   for line in sorted(map(LINE_MASK.__and__, block))]}
        for block in sorted(blocks, key=_FILE)
    ]
    return json.dumps({"files": files}, separators=(",", ":")).encode("utf-8")
