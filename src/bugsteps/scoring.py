"""Suspiciousness scoring and ranking.

The primary scorer spreads each flipped probe's evidence evenly over its
coverage difference: a statement's score is the best ``1/|diff|`` among
the flipped probes that involve it.  Metallaxis (mutation-based) and
Ochiai (spectrum-based) are provided as ablation scorers.  Statement
scores aggregate to file- or function-level units through Rank-Sum
weighting, and a uniform fallback report covers the case where no step
removal ever flipped the failure.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence

from .errors import DegenerateSpectrum, UnmappedStatement
from .model import (LINE_BITS, LINE_MASK, Block, ExecutionResult, RemovalProbe, file_of,
                    first_holder_function, unit_for)

log = logging.getLogger(__name__)

NO_BUG_CAUSING_STEPS = "no_bug_causing_steps"

TIE_POLICY = "worst-rank: tied units share the rank of their group's last position"


@dataclass(frozen=True)
class ReportRow:
    unit: str
    score: float
    rank: int


@dataclass
class RankedReport:
    granularity: str
    rows: List[ReportRow]
    provenance: Dict[str, object] = field(default_factory=dict)
    diagnostics: List[str] = field(default_factory=list)

    def to_json_dict(self):
        return {
            "granularity": self.granularity,
            "tie_policy": TIE_POLICY,
            "diagnostics": list(self.diagnostics),
            "provenance": dict(self.provenance),
            "rows": [
                {"rank": r.rank, "score": r.score, "unit": r.unit} for r in self.rows
            ],
        }

    def to_table(self) -> str:
        lines = []
        for key in sorted(self.provenance):
            lines.append(f"# {key}: {self.provenance[key]}")
        for diag in self.diagnostics:
            lines.append(f"# diagnostic: {diag}")
        width = max([len(r.unit) for r in self.rows], default=4)
        lines.append(f"{'rank':>5}  {'score':>10}  unit")
        for r in self.rows:
            lines.append(f"{r.rank:>5}  {r.score:>10.6f}  {r.unit:<{width}}".rstrip())
        return "\n".join(lines) + "\n"


class Scores(dict):
    """Int statement -> suspiciousness, with ``function(stmt)`` for each
    scored statement's function, as its scorer takes it."""

    __slots__ = ("function",)


def score_flip_inverse(probes: Sequence[RemovalProbe]) -> Scores:
    """Primary scorer: max over flipped probes of the inverse diff size."""
    scores = Scores()
    for probe in probes:
        if not probe.diff:
            log.warning(
                "dropping flipped probe for %s: empty coverage difference",
                probe.removed_step,
            )
            continue
        weight = 1.0 / len(probe.diff)
        for stmt in probe.diff:
            if weight > scores.get(stmt, 0.0):
                scores[stmt] = weight
    if not scores:
        log.warning("no flipped probes: returning an empty suspiciousness map")
    scores.function = first_holder_function([p.diff for p in probes])
    return scores


def score_metallaxis(probes: Sequence[RemovalProbe]) -> Scores:
    """Mutation-based ablation: every statement in a flipped diff scores 1.

    With a single failing test, Metallaxis gives each flipped mutant
    suspiciousness 1 and each non-flipped mutant 0; taking the max over
    involving mutants flattens all involved statements to the same score
    regardless of the diff size.
    """
    scores = Scores.fromkeys(chain.from_iterable(p.diff for p in probes), 1.0)
    if not scores:
        log.warning("no flipped probes: returning an empty suspiciousness map")
    scores.function = first_holder_function([p.diff for p in probes])
    return scores


def _by_file(blocks: Iterable[Block]) -> Dict[str, List[Block]]:
    grouped: Dict[str, List[Block]] = {}
    for block in blocks:
        grouped.setdefault(block.file, []).append(block)
    return grouped


def score_ochiai(runs: Sequence[ExecutionResult]) -> Scores:
    """Spectrum-based ablation over every observed run, labeled by outcome.

    A statement's function is the one of the earliest failing run that
    covers it.  Runs share most blocks, so each distinct block is counted
    once, with the number of runs that hold it, and a file's statements
    that every distinct block of that file holds share one count pair and
    one score; only the others are counted one by one.
    """
    failing = [r for r in runs if r.outcome.is_fail]
    passing = [r for r in runs if not r.outcome.is_fail]
    if not failing or not passing:
        raise DegenerateSpectrum(
            f"need failing and passing runs, got {len(failing)} failing / "
            f"{len(passing)} passing"
        )
    # distinct blocks in first-seen order, so the first that holds a
    # statement is the one of the earliest run that covers it
    failed = Counter(chain.from_iterable(r.blocks for r in failing))
    passed = Counter(chain.from_iterable(r.blocks for r in passing))
    by_file, passed_by_file = _by_file(failed), _by_file(passed)
    total_f = len(failing)
    scores = Scores()
    for file, held in by_file.items():
        also = passed_by_file.get(file, [])
        common = frozenset.intersection(*held, *also)
        ef = sum(map(failed.__getitem__, held))
        ep = sum(map(passed.__getitem__, also))
        scores.update(dict.fromkeys(common, ef / math.sqrt(total_f * (ef + ep))))
        counts: Dict[int, int] = {}
        get = counts.get
        for block in held:
            n = failed[block]
            for stmt in block.difference(common):
                counts[stmt] = get(stmt, 0) + n
        passes = dict.fromkeys(counts, 0)
        for block in also:
            n = passed[block]
            for stmt in block.intersection(passes):
                passes[stmt] += n
        for stmt, f in counts.items():
            scores[stmt] = f / math.sqrt(total_f * (f + passes[stmt]))
    # failing runs cover thousands of statements in many blocks: look a
    # statement up only in its own file's blocks
    in_file = {file: first_holder_function(held) for file, held in by_file.items()}
    scores.function = lambda stmt: in_file[file_of(stmt)](stmt)
    return scores


def _ranked_rows(unit_scores: Dict[str, float]) -> List[ReportRow]:
    """Rank units by score, ties by name; see ``TIE_POLICY``."""
    ordered = sorted(unit_scores.items(), key=lambda kv: (-kv[1], kv[0]))
    rows: List[ReportRow] = []
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][1] == ordered[i][1]:
            j += 1
        rank = j  # worst rank of the tie group
        for unit, score in ordered[i:j]:
            rows.append(ReportRow(unit=unit, score=score, rank=rank))
        i = j
    return rows


def aggregate_ranksum(scores: Scores, granularity: str) -> RankedReport:
    """Aggregate statement scores to units with linearly decaying weights.

    Within a unit, its n positively-scored statements are ranked by score
    and the i-th gets weight (n+1-i)/sum(1..n); the unit score is the
    weighted sum, which tied statements do not change by their order.  A
    scored statement without a unit raises ``UnmappedStatement``.
    """
    per_unit: Dict[str, Iterable[float]] = {}
    if granularity == "file":
        # a file's statements are one stretch of int order: name each file once
        stmts = sorted(scores)
        lo = 0
        while lo < len(stmts):
            hi = bisect_left(stmts, ((stmts[lo] >> LINE_BITS) + 1) << LINE_BITS, lo)
            per_unit[file_of(stmts[lo])] = map(scores.__getitem__, stmts[lo:hi])
            lo = hi
    else:
        orphans = []
        for stmt, score in scores.items():
            unit = unit_for(file_of(stmt), scores.function(stmt), granularity)
            if unit is None:
                orphans.append(f"{file_of(stmt)}:{stmt & LINE_MASK}")
            else:
                per_unit.setdefault(unit, []).append(score)
        if orphans:
            raise UnmappedStatement(orphans)
    unit_scores: Dict[str, float] = {}
    for unit, values in per_unit.items():
        ranked = sorted(values, reverse=True)
        while ranked and not ranked[-1] > 0:
            ranked.pop()
        n = len(ranked)
        if n:
            weighted = sum(map(mul, range(n, 0, -1), ranked))
            # single division, then rounding well below any stated tolerance,
            # so units with identical score profiles tie exactly
            unit_scores[unit] = round(weighted / (n * (n + 1) / 2), 12)
    return RankedReport(granularity=granularity, rows=_ranked_rows(unit_scores))


def compute_fallback(blocks: Iterable[Block], granularity: str) -> RankedReport:
    """Uniform report over the baseline's blocks when nothing ever flipped.

    Every covered unit scores eps = 1/|coverage|, so all units form one tie
    group; at function granularity, statements without function metadata
    cannot form a unit and are skipped.
    """
    blocks = list(blocks)  # one block per file: no statement repeats
    units = {unit_for(block.file, block.function(stmt), granularity)
             for block in blocks for stmt in block}
    units.discard(None)
    total = sum(map(len, blocks))
    eps = 1.0 / total if total else 0.0
    return RankedReport(
        granularity=granularity,
        rows=_ranked_rows(dict.fromkeys(units, eps)),
        diagnostics=[NO_BUG_CAUSING_STEPS],
    )


def score_with(scorer: str, isolation) -> Scores:
    if scorer == "compscan":
        return score_flip_inverse(isolation.probes)
    if scorer == "mbfl":
        return score_metallaxis(isolation.probes)
    if scorer == "sbfl":
        return score_ochiai(isolation.all_runs)
    raise ValueError(f"unknown scorer {scorer!r}")


def report_for(isolation, scorer: str, granularity: str,
               provenance: Optional[Dict[str, object]] = None) -> RankedReport:
    """Score an isolation result and aggregate it into a ranked report."""
    scores = {} if isolation.fallback else score_with(scorer, isolation)
    if scores:
        report = aggregate_ranksum(scores, granularity)
    else:
        report = compute_fallback(isolation.baseline.blocks, granularity)
    if provenance:
        report.provenance.update(provenance)
    return report
