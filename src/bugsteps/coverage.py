"""Coverage exchange formats.

Two formats are supported: the gcov JSON intermediate format (as written by
``gcov --json-format``, possibly gzip-compressed) and this package's own
native JSON format, which round-trips bit-exactly modulo ordering.
"""

from __future__ import annotations

import gzip
import json
import posixpath
from typing import FrozenSet, Iterable, Optional

from .errors import MalformedCoverage
from .model import StatementId, StatementPool

NATIVE_VERSION = 1

_GZIP_MAGIC = b"\x1f\x8b"


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


def _normalize_file(path: str, source_root: Optional[str]) -> Optional[str]:
    """Normalize a coverage path against the source root.

    Absolute paths outside the root are dropped (returns None), matching the
    contract that parsing never yields a path escaping the source root.
    """
    path = path.replace("\\", "/")
    if source_root:
        root = posixpath.normpath(source_root.replace("\\", "/")).rstrip("/")
        norm = posixpath.normpath(path)
        if norm == root:
            return None
        if norm.startswith(root + "/"):
            return norm[len(root) + 1 :]
        if posixpath.isabs(norm):
            return None
        if norm.startswith("../") or norm == "..":
            return None
        return norm
    if posixpath.isabs(path):
        return None
    norm = posixpath.normpath(path)
    if norm.startswith("../") or norm in (".", ".."):
        return None
    return norm


def _function(rec: dict, key: str) -> Optional[str]:
    func = rec.get(key) or None
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
    doc = _loads(_decode(data))
    if not isinstance(doc, dict) or not isinstance(doc.get("files"), list):
        raise MalformedCoverage("gcov document missing 'files' array")
    out = set()
    for frec in doc["files"]:
        if not isinstance(frec, dict) or "file" not in frec:
            raise MalformedCoverage("gcov file record missing 'file'")
        fname = _normalize_file(str(frec["file"]), source_root)
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
            out.add(pool[fname, line, _function(lrec, "function_name")])
    return frozenset(out)


def parse_native_json(data: bytes, source_root: Optional[str] = None,
                      pool: Optional[StatementPool] = None) -> FrozenSet[StatementId]:
    """Parse this package's native coverage exchange format.

    Statements come from ``pool`` (a fresh one when omitted).
    """
    pool = StatementPool() if pool is None else pool
    doc = _loads(_decode(data))
    if not isinstance(doc, dict):
        raise MalformedCoverage("native coverage document must be an object")
    if doc.get("version") != NATIVE_VERSION:
        raise MalformedCoverage(f"unsupported native coverage version: {doc.get('version')!r}")
    stmts = doc.get("statements")
    if not isinstance(stmts, list):
        raise MalformedCoverage("native coverage document missing 'statements' array")
    out = set()
    for rec in stmts:
        if not isinstance(rec, dict) or "file" not in rec or "line" not in rec:
            raise MalformedCoverage("native statement record missing file/line")
        fname = _normalize_file(str(rec["file"]), source_root)
        if fname is None:
            continue
        try:
            line = int(rec["line"])
        except (TypeError, ValueError) as exc:
            raise MalformedCoverage("non-numeric line in native statement record") from exc
        if line < 1:
            raise MalformedCoverage(f"statement line must be >= 1, got {line}")
        out.add(pool[fname, line, _function(rec, "function")])
    return frozenset(out)


def emit_native_json(statements: Iterable[StatementId]) -> bytes:
    """Serialize a coverage set canonically (sorted by file, then line)."""
    recs = []
    for s in sorted(set(statements), key=StatementId.sort_key):
        rec = {"file": s.file, "line": s.line}
        if s.function is not None:
            rec["function"] = s.function
        recs.append(rec)
    doc = {"version": NATIVE_VERSION, "statements": recs}
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
