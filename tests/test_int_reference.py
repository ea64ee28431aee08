"""The int-statement engine against a ``StatementId`` reference.

The reference functions below are the diff, scorers, aggregation and
fallback as they were written over ``StatementId`` objects, with each
statement's function taken from the object a set or dict kept: the
covering run's in a diff, the first probe's for compscan and mbfl, the
earliest failing run's for sbfl.  The engine works on int statements and
must give the same ``(file, line, function, score)`` and the same report
rows at both granularities.
"""

import math
from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bugsteps.errors import DegenerateSpectrum, UnmappedStatement
from bugsteps.model import ExecutionResult, Outcome, RemovalProbe, file_id
from bugsteps.scoring import (
    _ranked_rows,
    aggregate_ranksum,
    compute_fallback,
    score_flip_inverse,
    score_metallaxis,
    score_ochiai,
)
from conftest import StatementId, by_id, file_blocks, ids

# interned last-name-first, so file ids are not in name order
FILES = ["ref/zz.c", "ref/mm.c", "ref/aa.c"]
for _file in FILES:
    file_id(_file)


def ref_symmetric_diff(a, b):
    a, b = frozenset(a), frozenset(b)
    return frozenset().union(*(a - b)) ^ frozenset().union(*(b - a))


def ref_flip_inverse(diffs):
    scores = {}
    for diff in diffs:
        if not diff:
            continue
        weight = 1.0 / len(diff)
        for stmt in diff:
            if weight > scores.get(stmt, 0.0):
                scores[stmt] = weight
    return scores


def ref_metallaxis(diffs):
    return dict.fromkeys(chain.from_iterable(diffs), 1.0)


def ref_counts(runs):
    counts = {}
    for block, n in Counter(chain.from_iterable(runs)).items():
        for stmt in block:
            counts[stmt] = counts.get(stmt, 0) + n
    return counts


def ref_ochiai(failing, passing):
    ef, ep = ref_counts(failing), ref_counts(passing)
    return {s: f / math.sqrt(len(failing) * (f + ep.get(s, 0))) for s, f in ef.items()}


def ref_unit(stmt, granularity):
    if granularity == "file":
        return stmt.file
    return None if stmt.function is None else f"{stmt.file}::{stmt.function}"


def ref_ranksum(scores, granularity):
    per_unit, orphans = {}, []
    for stmt, score in scores.items():
        unit = ref_unit(stmt, granularity)
        if unit is None:
            orphans.append(str(stmt))
        elif score > 0:
            per_unit.setdefault(unit, []).append((stmt, score))
    if orphans:
        return sorted(orphans)
    unit_scores = {}
    for unit, pairs in per_unit.items():
        pairs.sort(key=lambda p: (-p[1], p[0].file, p[0].line))
        n = len(pairs)
        weighted = sum((n - i) * score for i, (_, score) in enumerate(pairs))
        unit_scores[unit] = round(weighted / (n * (n + 1) / 2), 12)
    return rows(_ranked_rows(unit_scores))


def ref_fallback(blocks, granularity):
    stmts = list(chain.from_iterable(blocks))
    units = {u for u in (ref_unit(s, granularity) for s in stmts) if u is not None}
    eps = 1.0 / len(stmts) if stmts else 0.0
    return rows(_ranked_rows(dict.fromkeys(units, eps)))


def rows(report_rows):
    return [(r.unit, r.score, r.rank) for r in report_rows]


def triples(scores):
    return {(s.file, s.line, s.function): v for s, v in scores.items()}


def ranksum(scores, granularity):
    try:
        return rows(aggregate_ranksum(scores, granularity).rows)
    except UnmappedStatement as exc:
        return exc.orphans


def ref_blocks(coverage):
    """The reference form of a run: one frozenset of ``StatementId``s per file."""
    return tuple(frozenset(StatementId(file, line, fn) for line, fn in lines.items())
                 for file, lines in sorted(coverage.items()) if lines)


def int_blocks(coverage):
    return file_blocks({StatementId(file, line, fn)
                        for file, lines in coverage.items() for line, fn in lines.items()})


_COVERAGE = st.dictionaries(st.sampled_from(FILES), st.dictionaries(
    st.integers(1, 6), st.sampled_from([None, "f", "g"]), max_size=5), max_size=3)
# one line under two functions, in two runs and in files out of id order
_TWO_FUNCTIONS = [(True, {"ref/zz.c": {1: "f", 2: "g"}, "ref/aa.c": {3: "f"}}),
                  (False, {"ref/zz.c": {2: "g"}}),
                  (True, {"ref/zz.c": {1: "g", 4: None}, "ref/aa.c": {3: "g", 5: "f"}}),
                  (False, {"ref/aa.c": {5: "f"}})]


@given(st.lists(st.tuples(st.booleans(), _COVERAGE), min_size=2, max_size=6))
@example(_TWO_FUNCTIONS)
@settings(max_examples=300, deadline=None)
def test_int_engine_equals_statement_reference(spec):
    runs = [ExecutionResult(("x",) if fails else (), Outcome.FAIL_CRASH if fails else Outcome.PASS,
                            int_blocks(cov)) for fails, cov in spec]
    refs = [ref_blocks(cov) for _, cov in spec]
    fail = [i for i, (fails, _) in enumerate(spec) if fails]
    pas = [i for i, (fails, _) in enumerate(spec) if not fails]
    # every failing run against every passing run, failing run first
    pairs = [(f, p) for f in fail for p in pas]
    probes = [RemovalProbe.from_runs("x", runs[f], runs[p]) for f, p in pairs]
    ref_diffs = [ref_symmetric_diff(refs[f], refs[p]) for f, p in pairs]
    for probe, ref in zip(probes, ref_diffs):
        assert len(probe.diff) == len(ref)
        assert triples(dict.fromkeys(ids(probe.diff))) == triples(dict.fromkeys(ref))

    scored = [(score_flip_inverse(probes), ref_flip_inverse(ref_diffs)),
              (score_metallaxis(probes), ref_metallaxis(ref_diffs))]
    if fail and pas:
        scored.append((score_ochiai(runs), ref_ochiai([refs[i] for i in fail],
                                                      [refs[i] for i in pas])))
    else:
        with pytest.raises(DegenerateSpectrum):
            score_ochiai(runs)
    for scores, ref in scored:
        assert triples(by_id(scores)) == triples(ref)
        for granularity in ("file", "function"):
            assert ranksum(scores, granularity) == ref_ranksum(ref, granularity)

    for run, ref in zip(runs, refs):
        for granularity in ("file", "function"):
            assert rows(compute_fallback(run.blocks, granularity).rows) == \
                ref_fallback(ref, granularity)
