import gzip
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bugsteps.coverage import emit_gcov_json, parse_gcov_json
from bugsteps.errors import MalformedCoverage
from bugsteps.model import StatementId, StatementPool


def gcov_doc(files):
    return json.dumps({"format_version": "1", "files": files}).encode()


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
        assert parse_gcov_json(doc) == {StatementId("f.c", 6), StatementId("f.c", 9)}

    def test_empty_files(self):
        assert parse_gcov_json(gcov_doc([])) == frozenset()

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
        parsed = parse_gcov_json(doc)
        assert parsed == {StatementId("f.c", 4)}
        assert len(parsed) == 1

    def test_gzip_compressed(self):
        doc = gcov_doc([{"file": "g.c", "lines": [{"line_number": 2, "count": 7}]}])
        assert parse_gcov_json(gzip.compress(doc)) == {StatementId("g.c", 2)}

    def test_function_metadata_kept(self):
        doc = gcov_doc([
            {"file": "f.c", "lines": [{"line_number": 3, "count": 1,
                                       "function_name": "run"}]}
        ])
        (stmt,) = parse_gcov_json(doc)
        assert stmt.function == "run"

    def test_repeated_line_keeps_first_function(self):
        doc = gcov_doc([
            {"file": "f.c", "lines": [
                {"line_number": 3, "count": 1, "function_name": "first"},
                {"line_number": 3, "count": 1, "function_name": "second"},
            ]}
        ])
        (stmt,) = parse_gcov_json(doc)
        assert stmt.function == "first"

    @pytest.mark.parametrize("function", [["f"], {"f": 1}, 7])
    def test_non_string_function_rejected(self, function):
        lines = [{"line_number": 3, "count": 1, "function_name": function}]
        with pytest.raises(MalformedCoverage):
            parse_gcov_json(gcov_doc([{"file": "f.c", "lines": lines}]))

    def test_pool_shared_between_parses(self):
        pool = StatementPool()
        doc = gcov_doc([{"file": "./f.c", "lines": [{"line_number": 3, "count": 1}]}])
        (a,) = parse_gcov_json(doc, pool=pool)
        (b,) = parse_gcov_json(doc, pool=pool)
        (c,) = parse_gcov_json(emit_gcov_json({a}), pool=pool)
        assert a is b is c
        assert a.file == "f.c"

    def test_source_root_normalization(self):
        doc = gcov_doc([
            {"file": "/src/llvm/lib/Foo.cpp", "lines": [{"line_number": 3, "count": 1}]},
            {"file": "/usr/include/stdio.h", "lines": [{"line_number": 9, "count": 5}]},
        ])
        parsed = parse_gcov_json(doc, source_root="/src/llvm")
        assert parsed == {StatementId("lib/Foo.cpp", 3)}

    def test_line_zero_dropped(self):
        doc = gcov_doc([{"file": "f.c", "lines": [{"line_number": 0, "count": 4}]}])
        assert parse_gcov_json(doc) == frozenset()

    def test_malformed_reports_offset(self):
        with pytest.raises(MalformedCoverage) as err:
            parse_gcov_json(b'{"files": [0,')
        assert err.value.offset is not None

    def test_missing_files_array(self):
        with pytest.raises(MalformedCoverage):
            parse_gcov_json(b"{}")


@pytest.mark.parametrize("source_root", [None, "/src/llvm"])
@pytest.mark.parametrize("path", ["", ".", "a/..", "/src/llvm", "/usr/x.c", "../x.c"])
def test_degenerate_paths_dropped(path, source_root):
    gcov = gcov_doc([
        {"file": path, "lines": [{"line_number": 3, "count": 1}]},
        {"file": "k.c", "lines": [{"line_number": 4, "count": 1}]},
    ])
    assert parse_gcov_json(gcov, source_root=source_root) == {StatementId("k.c", 4)}


def test_path_under_root_made_relative():
    path = "/src/llvm//lib/x/../Foo.cpp"
    gcov = gcov_doc([{"file": path, "lines": [{"line_number": 3, "count": 1}]}])
    assert parse_gcov_json(gcov, source_root="/src/llvm/") == {StatementId("lib/Foo.cpp", 3)}


def triples(stmts):
    return {(s.file, s.line, s.function) for s in stmts}


class TestEmitGcovJson:
    def test_layout(self):
        stmts = {StatementId("b.c", 2), StatementId("a.c", 9, "g"), StatementId("a.c", 1, "f")}
        assert json.loads(emit_gcov_json(stmts)) == {"files": [
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
        assert triples(parse_gcov_json(emit_gcov_json(stmts))) == triples(stmts)

    def test_emit_is_canonical(self):
        stmts = {StatementId("a.c", 2), StatementId("a.c", 1)}
        blob = emit_gcov_json(stmts)
        assert parse_gcov_json(blob) == stmts
        assert emit_gcov_json(parse_gcov_json(blob)) == blob

    def test_empty_statements(self):
        assert emit_gcov_json(()) == b'{"files":[]}'
        assert parse_gcov_json(emit_gcov_json(())) == frozenset()

    def test_large_fixture_exact_count(self):
        stmts = {StatementId(f"d/f{i % 97}.c", i + 1) for i in range(10000)}
        assert len(stmts) == 10000
        assert len(parse_gcov_json(emit_gcov_json(stmts))) == 10000

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
        assert triples(parse_gcov_json(emit_gcov_json(stmts))) == triples(stmts)
