"""Batch evaluation over a bug dataset.

Loads a manifest of bug configs with ground truth, runs each requested
(strategy, scorer) pair per bug, matches ranked reports against the
ground truth, and reduces to Top-n / MFR / MAR metrics plus an
intersection partition of which strategy combinations isolate which bugs.
Each row's ``probe_count`` is its deterministic cost; the measured time
per bug is the benchmark's ``isolate_p50_s`` (``perfbench/``).
"""

from __future__ import annotations

import json
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .driver import load_driver
from .errors import BugStepsError, GranularityMismatch, InvalidConfig, UnevenCoverage
# verify_baseline is unused here, since each strategy's session checks the
# baseline; perfbench/spans.py patches evalharness.verify_baseline by name
from .isolate import run_strategy, verify_baseline
from .scoring import GRANULARITIES, RankedReport, report_for
from .util import derive_seed, fingerprint

TOP_NS = (1, 3, 5, 10)


@dataclass(frozen=True)
class DatasetBug:
    bug_id: str
    config: Path
    ground_truth_files: Tuple[str, ...]
    ground_truth_functions: Optional[Tuple[str, ...]]
    tags: Tuple[str, ...] = ()

    def truth_units(self, granularity: str) -> Tuple[str, ...]:
        if granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {granularity!r}")
        units = self.ground_truth_files if granularity == "file" else self.ground_truth_functions
        if not units:
            raise GranularityMismatch(f"bug {self.bug_id} has no {granularity}-level ground truth")
        return units


@dataclass
class EvalRow:
    bug_id: str
    strategy: str
    scorer: str
    granularity: str
    first_rank: float
    all_ranks: List[float]
    probe_count: int
    fallback: bool
    unranked: bool
    report_length: int
    repeats: int = 1

    def to_json_dict(self):
        return asdict(self)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_manifest(path) -> List[DatasetBug]:
    """Read a manifest's bug records; any malformed record is ``InvalidConfig``.

    A record must list ground-truth files, functions or both; a unit
    listed twice counts once.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read manifest {path}: {exc}") from exc
    bugs_doc = doc.get("bugs") if isinstance(doc, dict) else None
    if not isinstance(bugs_doc, list) or not bugs_doc:
        raise InvalidConfig(f"manifest {path} has no bugs")
    bugs = []
    seen = set()
    for index, rec in enumerate(bugs_doc):
        where = f"manifest {path}, bug record {index}"
        if not isinstance(rec, dict):
            raise InvalidConfig(f"{where} must be an object")
        bug_id, config = rec.get("bug_id"), rec.get("config")
        if not (isinstance(bug_id, str) and isinstance(config, str)):
            raise InvalidConfig(f"{where} needs a string 'bug_id' and 'config'")
        truth = rec.get("ground_truth", {})
        if not isinstance(truth, dict):
            raise InvalidConfig(f"{where}: 'ground_truth' must be an object")
        files, functions = truth.get("files", []), truth.get("functions")
        tags = rec.get("tags", [])
        if not (_strings(files) and (functions is None or _strings(functions))
                and _strings(tags)):
            raise InvalidConfig(f"{where}: ground-truth files/functions and tags must be "
                                "lists of strings")
        if not (files or functions):
            raise InvalidConfig(f"{where} lists no ground-truth files or functions")
        if bug_id in seen:
            raise InvalidConfig(f"duplicate bug id {bug_id!r} in manifest")
        seen.add(bug_id)
        config = Path(config)
        if not config.is_absolute():
            config = path.parent / config
        if not config.exists():
            raise InvalidConfig(f"bug {bug_id}: config {config} does not exist")
        bugs.append(
            DatasetBug(
                bug_id=bug_id,
                config=config,
                ground_truth_files=tuple(dict.fromkeys(files)),
                ground_truth_functions=tuple(dict.fromkeys(functions)) if functions else None,
                tags=tuple(tags),
            )
        )
    return bugs


def match_ground_truth(report: RankedReport,
                       truth_units: Sequence[str]) -> Tuple[int, List[int], bool]:
    """Rank every ground-truth unit in the report, in ``truth_units`` order.

    Units absent from the report get the sentinel rank ``len(rows) + 1``;
    the returned flag says whether any unit was actually ranked.
    """
    if not truth_units:
        raise ValueError("ground truth is empty")
    ranked = {row.unit: row.rank for row in report.rows}
    sentinel = len(report.rows) + 1
    ranks = [ranked.get(unit, sentinel) for unit in truth_units]
    return min(ranks), ranks, any(unit in ranked for unit in truth_units)


def evaluate_bug(bug: DatasetBug, strategy: str, scorer: str, granularity: str,
                 seed: int = 0, repeat: int = 1, *, driver) -> EvalRow:
    truth = bug.truth_units(granularity)
    sequence = driver.enumerate_steps()
    runs = repeat if strategy == "rand" and repeat > 1 else 1
    firsts: List[int] = []
    run_ranks: List[List[int]] = []  # one list per run, in truth order
    probe_total = 0
    fallback_votes = 0
    unranked_votes = 0
    report_len = 0
    for i in range(runs):
        sub_seed = derive_seed(seed, f"rand:{i}") if runs > 1 else seed
        isolation = run_strategy(strategy, driver, sequence, seed=sub_seed)
        report = report_for(isolation, scorer, granularity)
        first, ranks, any_ranked = match_ground_truth(report, truth)
        firsts.append(first)
        run_ranks.append(ranks)
        probe_total += isolation.probe_count
        fallback_votes += 1 if isolation.fallback else 0
        unranked_votes += 0 if any_ranked else 1
        report_len = max(report_len, len(report.rows))
    first_rank = float(statistics.median(firsts))
    all_ranks = sorted(float(statistics.median(v)) for v in zip(*run_ranks))
    return EvalRow(
        bug_id=bug.bug_id,
        strategy=strategy,
        scorer=scorer,
        granularity=granularity,
        first_rank=first_rank,
        all_ranks=all_ranks,
        probe_count=probe_total,
        fallback=fallback_votes * 2 > runs,
        unranked=unranked_votes * 2 > runs,
        report_length=report_len,
        repeats=runs,
    )


def compute_metrics(rows: Sequence[EvalRow]) -> Dict[str, object]:
    if not rows:
        raise ValueError("cannot compute metrics over zero rows")
    firsts = [r.first_rank for r in rows]
    out: Dict[str, object] = {"bugs": len(rows)}
    for n in TOP_NS:
        out[f"top{n}"] = sum(1 for f in firsts if f <= n)
    out["mfr"] = sum(firsts) / len(firsts)
    out["mar"] = sum(
        sum(r.all_ranks) / len(r.all_ranks) for r in rows
    ) / len(rows)
    return out


def intersection_report(rows_by_strategy: Dict[str, Sequence[EvalRow]],
                        n: int) -> Dict[str, int]:
    """Partition bugs isolated at Top-n by the exact strategy subset."""
    bug_sets = {
        label: {r.bug_id for r in rows} for label, rows in rows_by_strategy.items()
    }
    reference = None
    for label, ids in bug_sets.items():
        if reference is None:
            reference = ids
        elif ids != reference:
            raise UnevenCoverage(
                f"strategy {label!r} evaluated a different bug set"
            )
    isolated = {
        label: {r.bug_id for r in rows if r.first_rank <= n}
        for label, rows in rows_by_strategy.items()
    }
    counts: Dict[str, int] = {}
    for bug_id in sorted(reference or ()):
        subset = tuple(sorted(label for label, ids in isolated.items() if bug_id in ids))
        if not subset:
            continue
        key = "+".join(subset)
        counts[key] = counts.get(key, 0) + 1
    return counts


def evaluate_manifest(manifest_path, strategies: Sequence[str],
                      scorers: Sequence[str], granularity: str = "file",
                      seed: int = 0, repeat: int = 1, jobs: int = 1,
                      cache_dir=None) -> Dict[str, object]:
    bugs = load_manifest(manifest_path)
    rows: List[EvalRow] = []
    errors: List[Dict[str, str]] = []

    def eval_one(bug: DatasetBug) -> Tuple[List[EvalRow], List[Dict[str, str]]]:
        bug_rows: List[EvalRow] = []
        bug_errors: List[Dict[str, str]] = []
        driver = None
        for strategy in strategies:
            for scorer in scorers:
                try:
                    # a config that fails to load fails again, with the same error, per pair
                    driver = driver or load_driver(bug.config, cache_dir=cache_dir)
                    bug_rows.append(
                        evaluate_bug(
                            bug, strategy, scorer, granularity,
                            seed=seed, repeat=repeat, driver=driver,
                        )
                    )
                except BugStepsError as exc:
                    bug_errors.append(
                        {"bug_id": bug.bug_id, "strategy": strategy,
                         "scorer": scorer, "error": str(exc)}
                    )
        return bug_rows, bug_errors

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(eval_one, bugs))
    else:
        results = [eval_one(bug) for bug in bugs]
    for bug_rows, bug_errors in results:
        rows.extend(bug_rows)
        errors.extend(bug_errors)

    by_combo: Dict[str, List[EvalRow]] = {}
    for row in rows:
        by_combo.setdefault(f"{row.strategy}+{row.scorer}", []).append(row)
    metrics = {label: compute_metrics(combo_rows) for label, combo_rows in by_combo.items()}
    complete_combos = {
        label: combo_rows
        for label, combo_rows in by_combo.items()
        if {r.bug_id for r in combo_rows} == {b.bug_id for b in bugs}
    }
    intersections = {}
    if complete_combos:
        for n in (1, 5):
            intersections[f"top{n}"] = intersection_report(complete_combos, n)
    doc = {
        "provenance": {
            "tool_version": __version__,
            "manifest": str(manifest_path),
            "manifest_fingerprint": fingerprint(
                [b.bug_id for b in bugs] + [str(b.config) for b in bugs]
            ),
            "strategies": list(strategies),
            "scorers": list(scorers),
            "granularity": granularity,
            "seed": seed,
            "repeat": repeat,
            "unranked_convention": "absent ground-truth units take rank len(report)+1",
        },
        "rows": sorted(
            (r.to_json_dict() for r in rows),
            key=lambda d: (d["bug_id"], d["strategy"], d["scorer"]),
        ),
        "errors": sorted(errors, key=lambda d: (d["bug_id"], d["strategy"], d["scorer"])),
        "metrics": metrics,
        "intersections": intersections,
    }
    return doc


def render_metrics_table(metrics: Dict[str, Dict[str, object]]) -> str:
    header = (
        f"{'approach':<18} {'Top1':>5} {'Top3':>5} {'Top5':>5} {'Top10':>6} "
        f"{'MFR':>9} {'MAR':>9}"
    )
    lines = [header, "-" * len(header)]
    for label in sorted(metrics):
        m = metrics[label]
        lines.append(
            f"{label:<18} {m['top1']:>5} {m['top3']:>5} {m['top5']:>5} "
            f"{m['top10']:>6} {m['mfr']:>9.2f} {m['mar']:>9.2f}"
        )
    return "\n".join(lines) + "\n"
