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
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

from .errors import DegenerateSpectrum, UnmappedStatement
from .model import ExecutionResult, RemovalProbe, StatementId

log = logging.getLogger(__name__)

SCORERS = ("compscan", "mbfl", "sbfl")

GRANULARITIES = ("file", "function")

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


def score_flip_inverse(probes: Sequence[RemovalProbe]) -> Dict[StatementId, float]:
    """Primary scorer: max over flipped probes of the inverse diff size."""
    scores: Dict[StatementId, float] = {}
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
    return scores


def score_metallaxis(probes: Sequence[RemovalProbe]) -> Dict[StatementId, float]:
    """Mutation-based ablation: every statement in a flipped diff scores 1.

    With a single failing test, Metallaxis gives each flipped mutant
    suspiciousness 1 and each non-flipped mutant 0; taking the max over
    involving mutants flattens all involved statements to the same score
    regardless of the diff size.
    """
    scores = dict.fromkeys(chain.from_iterable(p.diff for p in probes), 1.0)
    if not scores:
        log.warning("no flipped probes: returning an empty suspiciousness map")
    return scores


def _statement_counts(runs: Sequence[ExecutionResult]) -> Dict[StatementId, int]:
    """How many of ``runs`` cover each statement.

    Counts each distinct block once and adds its count to its statements,
    so a block shared by many runs costs one pass.  A statement's key is
    its object in the earliest run that covers it: that run holds the
    first occurrence of the block it sits in.
    """
    counts: Dict[StatementId, int] = {}
    get = counts.get
    for block, n in Counter(chain.from_iterable(r.blocks for r in runs)).items():
        for stmt in block:
            counts[stmt] = get(stmt, 0) + n
    return counts


def score_ochiai(runs: Sequence[ExecutionResult]) -> Dict[StatementId, float]:
    """Spectrum-based ablation over every observed run, labeled by outcome."""
    failing = [r for r in runs if r.outcome.is_fail]
    passing = [r for r in runs if not r.outcome.is_fail]
    if not failing or not passing:
        raise DegenerateSpectrum(
            f"need failing and passing runs, got {len(failing)} failing / "
            f"{len(passing)} passing"
        )
    ef = _statement_counts(failing)
    ep = _statement_counts(passing)
    total_f = len(failing)
    scores: Dict[StatementId, float] = {}
    for stmt, f_count in ef.items():
        scores[stmt] = f_count / math.sqrt(total_f * (f_count + ep.get(stmt, 0)))
    return scores


def unit_of(stmt: StatementId, granularity: str) -> Optional[str]:
    if granularity == "file":
        return stmt.file
    if granularity == "function":
        if stmt.function is None:
            return None
        return f"{stmt.file}::{stmt.function}"
    raise ValueError(f"unknown granularity {granularity!r}")


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


def aggregate_ranksum(scores: Dict[StatementId, float], granularity: str) -> RankedReport:
    """Aggregate statement scores to units with linearly decaying weights.

    Within a unit, its n positively-scored statements are ranked by score
    (ties by file then line) and the i-th gets weight (n+1-i)/sum(1..n);
    the unit score is the weighted sum.  A scored statement without a
    unit raises ``UnmappedStatement``.
    """
    per_unit: Dict[str, List] = {}
    orphans = []
    for stmt, score in scores.items():
        unit = unit_of(stmt, granularity)
        if unit is None:
            orphans.append(str(stmt))
        elif score > 0:
            per_unit.setdefault(unit, []).append((stmt, score))
    if orphans:
        raise UnmappedStatement(orphans)
    unit_scores: Dict[str, float] = {}
    for unit, pairs in per_unit.items():
        pairs.sort(key=lambda p: (-p[1], p[0].file, p[0].line))
        n = len(pairs)
        weighted = sum((n - i) * score for i, (_, score) in enumerate(pairs))
        # single division, then rounding well below any stated tolerance,
        # so units with identical score profiles tie exactly
        unit_scores[unit] = round(weighted / (n * (n + 1) / 2), 12)
    return RankedReport(granularity=granularity, rows=_ranked_rows(unit_scores))


def compute_fallback(coverage: Iterable[StatementId], granularity: str) -> RankedReport:
    """Uniform report over the baseline coverage when nothing ever flipped.

    Every covered unit scores eps = 1/|coverage|, so all units form one tie
    group; at function granularity, statements without function metadata
    cannot form a unit and are skipped.
    """
    stmts = set(coverage)
    units = {u for u in (unit_of(s, granularity) for s in stmts) if u is not None}
    eps = 1.0 / len(stmts) if stmts else 0.0
    return RankedReport(
        granularity=granularity,
        rows=_ranked_rows(dict.fromkeys(units, eps)),
        diagnostics=[NO_BUG_CAUSING_STEPS],
    )


def score_with(scorer: str, isolation) -> Dict[StatementId, float]:
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
        report = compute_fallback(isolation.baseline.coverage, granularity)
    if provenance:
        report.provenance.update(provenance)
    return report
