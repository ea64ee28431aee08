"""Coverage exchange: the gcov JSON intermediate format.

``parse_gcov_json`` reads what ``gcov --json-format`` writes, possibly
gzip-compressed; ``emit_gcov_json`` writes the same layout, so the
testbed's coverage takes the path of real gcov output.
"""

from __future__ import annotations

import gzip
import json
import posixpath
from itertools import groupby
from operator import attrgetter
from typing import FrozenSet, Iterable, Optional

from .errors import MalformedCoverage
from .model import StatementId, StatementPool, normalize_path

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


def _function(rec: dict) -> Optional[str]:
    func = rec.get("function_name") or None
    if func is not None and not isinstance(func, str):
        raise MalformedCoverage(f"function name must be a string, got {func!r}")
    return func


def parse_gcov_json(data: bytes, source_root: Optional[str] = None,
                    pool: Optional[StatementPool] = None) -> FrozenSet[StatementId]:
    """Parse a gcov JSON-intermediate document into a set of executed statements.

    Only lines with a positive execution count are kept; duplicate records
    for the same line are unioned, keeping the first record's function.
    Statements come from ``pool`` (a fresh one when omitted).
    """
    pool = StatementPool() if pool is None else pool
    root_prefix = _root_prefix(source_root)
    doc = _loads(_decode(data))
    if not isinstance(doc, dict) or not isinstance(doc.get("files"), list):
        raise MalformedCoverage("gcov document missing 'files' array")
    out = set()
    for frec in doc["files"]:
        if not isinstance(frec, dict) or "file" not in frec:
            raise MalformedCoverage("gcov file record missing 'file'")
        fname = _statement_file(str(frec["file"]), root_prefix)
        if fname is None:
            continue
        for lrec in frec.get("lines", []):
            if not isinstance(lrec, dict) or "line_number" not in lrec:
                raise MalformedCoverage(f"gcov line record malformed in {frec['file']!r}")
            try:
                line = int(lrec["line_number"])
                count = int(lrec.get("count", 0))
            except (TypeError, ValueError) as exc:
                raise MalformedCoverage(f"non-numeric line record in {frec['file']!r}") from exc
            if count <= 0 or line < 1:
                continue
            out.add(pool[fname, line, _function(lrec)])
    return frozenset(out)


def emit_gcov_json(statements: Iterable[StatementId]) -> bytes:
    """The gcov JSON document ``parse_gcov_json`` reads back as ``statements``.

    Files in order and lines in order within each file, each line run once.
    """
    files = [
        {"file": file, "lines": [{"line_number": s.line, "count": 1, "function_name": s.function}
                                 for s in stmts]}
        for file, stmts in groupby(sorted(statements, key=StatementId.sort_key), _FILE)
    ]
    return json.dumps({"files": files}, separators=(",", ":")).encode("utf-8")
