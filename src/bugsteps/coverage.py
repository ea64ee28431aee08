"""Coverage exchange: the gcov JSON intermediate format.

``parse_gcov_blocks`` reads what ``gcov --json-format`` writes, possibly
gzip-compressed, as per-file blocks; ``emit_gcov_json`` writes the same
layout, so the testbed's coverage takes the path of real gcov output.
"""

from __future__ import annotations

import gzip
import json
import posixpath
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, Optional, Tuple

from .errors import MalformedCoverage
from .model import Block, StatementId, StatementPool, normalize_path

_GZIP_MAGIC = b"\x1f\x8b"
_FILE = attrgetter("file")


def _decode(data: bytes) -> bytes:
    if data[:2] == _GZIP_MAGIC:
        try:
            return gzip.decompress(data)
        except OSError as exc:
            raise MalformedCoverage(f"bad gzip stream: {exc}") from exc
    return data


def _loads(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedCoverage("coverage is not valid UTF-8", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        raise MalformedCoverage(f"invalid JSON: {exc.msg}", offset=exc.pos) from exc


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


def parse_gcov_blocks(documents: Iterable[bytes], source_root: Optional[str] = None,
                      pool: Optional[StatementPool] = None,
                      memo: Optional[Dict[tuple, Block]] = None) -> Tuple[Block, ...]:
    """Parse a run's gcov JSON-intermediate documents into one block per covered file.

    Only lines with a positive execution count are kept; duplicate records
    for the same line, also under another spelling of its file or in
    another document, are unioned, keeping the function of the first such
    record in document order.  The blocks are in file order and none is
    empty.  Statements come from ``pool`` (a fresh one when omitted).  A
    block is looked up in ``memo`` by its file and its ``(line, function)``
    pairs in line order, so a file whose covered lines and functions repeat
    from run to run is built once and yields the same block object every
    time.
    """
    pool = StatementPool() if pool is None else pool
    memo = {} if memo is None else memo
    root_prefix = _root_prefix(source_root)
    # normalized file -> {line: function of the line's first positive record}
    files: Dict[str, Dict[int, Optional[str]]] = {}
    for data in documents:
        doc = _loads(_decode(data))
        if not isinstance(doc, dict) or not isinstance(doc.get("files"), list):
            raise MalformedCoverage("gcov document missing 'files' array")
        for frec in doc["files"]:
            if not isinstance(frec, dict) or not isinstance(frec.get("file"), str):
                raise MalformedCoverage("gcov file record needs a string 'file'")
            lrecs = frec.get("lines", [])
            if not isinstance(lrecs, list):
                raise MalformedCoverage(f"gcov 'lines' of {frec['file']!r} is not an array")
            fname = _statement_file(frec["file"], root_prefix)
            if fname is None:
                continue
            lines = files.get(fname)
            if lines is None:
                lines = files[fname] = {}
            first = lines.setdefault
            for lrec in lrecs:
                try:
                    line, count = lrec["line_number"], lrec.get("count", 0)
                except (TypeError, KeyError):
                    raise MalformedCoverage(
                        f"gcov line record malformed in {frec['file']!r}") from None
                try:
                    line, count = int(line), int(count)
                except (TypeError, ValueError) as exc:
                    raise MalformedCoverage(
                        f"non-numeric line record in {frec['file']!r}") from exc
                if count > 0 and line > 0:
                    function = lrec.get("function_name") or None
                    if function is not None and not isinstance(function, str):
                        raise MalformedCoverage(
                            f"function name must be a string, got {function!r}")
                    first(line, function)
    blocks = []
    for fname in sorted(files):
        if not files[fname]:
            continue
        key = (fname, tuple(sorted(files[fname].items())))
        block = memo.get(key)
        if block is None:
            block = memo[key] = Block(
                pool[fname, line, function] for line, function in key[1])
        blocks.append(block)
    return tuple(blocks)


def emit_gcov_json(statements: Iterable[StatementId]) -> bytes:
    """The gcov JSON document ``parse_gcov_blocks`` reads back as ``statements``.

    Files in order and lines in order within each file, each line run once.
    """
    files = [
        {"file": file, "lines": [{"line_number": s.line, "count": 1, "function_name": s.function}
                                 for s in stmts]}
        for file, stmts in groupby(sorted(statements, key=StatementId.sort_key), _FILE)
    ]
    return json.dumps({"files": files}, separators=(",", ":")).encode("utf-8")
