"""Coverage exchange: the gcov JSON intermediate format.

``parse_gcov_blocks`` reads what ``gcov --json-format`` writes, possibly
gzip-compressed, as per-file blocks; ``emit_gcov_json`` writes the same
layout, so the testbed's coverage takes the path of real gcov output.
"""

from __future__ import annotations

import json
import posixpath
import re
from operator import attrgetter
from typing import Dict, Iterable, Optional, Tuple

from .errors import MalformedCoverage
from .model import LINE_BITS, LINE_MASK, Block, file_id, normalize_path

_GZIP_MAGIC = b"\x1f\x8b"
_FILE = attrgetter("file")
_DECIMAL = re.compile("-?[0-9]+")  # ASCII digits only, no sign but "-", no "_"


def _decode(data: bytes) -> bytes:
    if data[:2] == _GZIP_MAGIC:
        import gzip  # here, so a testbed-run child, which only writes coverage, never loads it

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


def _integer(value, file: str) -> int:
    """A line record's ``line_number`` or ``count`` that is not an int, as one.

    An integral float and a decimal string (``-?[0-9]+``) are read; any
    other value, a boolean too, is ``MalformedCoverage``.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, str) and _DECIMAL.fullmatch(value)):
        return int(value)
    raise MalformedCoverage(f"non-integral line record {value!r} in {file!r}")


def parse_gcov_blocks(documents: Iterable[bytes], source_root: Optional[str] = None,
                      memo: Optional[Dict[tuple, Block]] = None) -> Tuple[Block, ...]:
    """Parse a run's gcov JSON-intermediate documents into one block per covered file.

    Only lines with a positive execution count are kept; duplicate records
    for the same line, also under another spelling of its file or in
    another document, are unioned, keeping the function of the first such
    record in document order.  A kept line must be below ``2**LINE_BITS``.
    The blocks are in file order and none is empty.  A block is looked up
    in ``memo`` (a fresh one when omitted) by its file and its ``(line,
    function)`` pairs in line order, so a file whose covered lines and
    functions repeat from run to run is built once and yields the same
    block object every time.
    """
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
                if type(line) is not int or type(count) is not int:
                    line, count = _integer(line, frec["file"]), _integer(count, frec["file"])
                if count > 0 and line > 0:
                    if line > LINE_MASK:
                        raise MalformedCoverage(
                            f"line {line} of {frec['file']!r} is above {LINE_MASK}")
                    function = lrec.get("function_name") or None
                    if function is not None and not isinstance(function, str):
                        raise MalformedCoverage(
                            f"function name must be a string, got {function!r}")
                    first(line, function)
    blocks = []
    for fname in sorted(files):
        lines = files[fname]
        if not lines:
            continue
        key = (fname, tuple(sorted(lines.items())))
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
