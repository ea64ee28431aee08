"""Synthetic large compiler pipeline for the large-cold and large-warm workloads.

The pipeline has ``STEPS`` skippable steps.  Every run covers a fixed set of
base statements (core files, plus utility files that every step also
touches), and each retained step covers ``BLOCK`` statements of its own in
its home file.  A bug plants one step in each of ``PLANTED_BANDS``: the run
miscompiles, and covers ``BUG_LINES`` extra statements in the home file of
the last planted step, exactly when every planted step is retained.  The
failure predicate is therefore monotone, the bug-causing steps are the
planted steps, and the ground-truth file is known from the generator alone.

Set-up writes one JSON fragment per step, one line each in ``steps.tsv``;
``gencov.sh`` selects the retained steps' lines with ``awk``, puts them
between a head and a tail and compresses the result with ``gzip``, so each
run writes one gzip-compressed gcov JSON document (``gcov --json-format``
layout) without starting an interpreter.  Each full run covers 5,000
statements.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple, Tuple

STEPS = 1000
BLOCK = 3
STEPS_PER_FILE = 20
CORE_FILES, CORE_LINES = 20, 50
UTIL_FILES, UTIL_LINES = 20, 50
BUG_LINES = 6
# Where the planted steps sit sets how many runs tail pruning takes and how
# long the retained subsets stay, so uniform positions would make one
# isolation cost up to twice another, and positions drawn per seed would let
# the seed, not the program, move the figures.  Each bug plants one step in
# each band, at positions drawn once here; the run's seed draws the coverage.
PLANTED_BANDS = ((0.2, 0.3), (0.7, 0.8))
_draw = random.Random(0)
PLANTED = [
    [_draw.randrange(int(lo * STEPS), int(hi * STEPS)) for lo, hi in PLANTED_BANDS]
    for _ in range(16)
]

GENCOV = Path(__file__).resolve().parent / "gencov.sh"


class SynthBug(NamedTuple):
    config: Path
    planted: Tuple[str, ...]
    truth_file: str


def _home(step: int) -> str:
    return f"lib/Passes/Pass{step // STEPS_PER_FILE:03d}.cpp"


def _file_record(rng: random.Random, name: str, lines, function: str) -> str:
    recs = [
        {"branches": [], "count": rng.randrange(1, 10_000), "line_number": ln,
         "unexecuted_block": False, "function_name": function}
        for ln in lines
    ]
    return json.dumps({"file": name, "functions": [], "lines": recs},
                      separators=(",", ":"))


def write_pipeline(root: Path, rng: random.Random) -> None:
    """Write the step list and the coverage fragments."""
    root.mkdir(parents=True)
    ids = [f"s{i:04d}" for i in range(STEPS)]
    fragments = []
    for i, sid in enumerate(ids):
        first = 1 + (i % STEPS_PER_FILE) * 10
        util = rng.randrange(UTIL_FILES)
        util_lines = sorted(rng.sample(range(1, UTIL_LINES + 1), 2))
        text = (
            _file_record(rng, _home(i), range(first, first + BLOCK), f"step{i}_run")
            + ","
            + _file_record(rng, f"lib/Support/Util{util:02d}.cpp", util_lines, f"util{util}")
            + ","
        )
        fragments.append(f"{sid}\t{text}\n")
    head = ('{"current_working_directory":"/build","data_file":"pipeline.gcda",'
            '"format_version":"1","gcc_version":"12.2.0","files":[')
    base = [
        _file_record(rng, f"lib/IR/Core{j:02d}.cpp", range(1, CORE_LINES + 1), f"core{j}")
        for j in range(CORE_FILES)
    ] + [
        _file_record(rng, f"lib/Support/Util{j:02d}.cpp", range(1, UTIL_LINES + 1), f"util{j}")
        for j in range(UTIL_FILES)
    ]
    (root / "steps.tsv").write_text("".join(fragments), "utf-8")
    (root / "head.json").write_text(head, "utf-8")
    (root / "tail.json").write_text(",".join(base) + "]}", "utf-8")
    (root / "steps.txt").write_text("\n".join(ids) + "\n", "utf-8")


def write_bug(root: Path, index: int, rng: random.Random) -> SynthBug:
    """Write bug ``index`` of ``PLANTED`` (its steps lie in distinct home files)."""
    planted = PLANTED[index]
    last = planted[-1]
    truth = _home(last)
    bug_fragment = root / "bugs" / f"bug{index:02d}.json"
    bug_fragment.parent.mkdir(exist_ok=True)
    bug_fragment.write_text(
        _file_record(rng, truth, range(500, 500 + BUG_LINES), f"step{last}_slowpath") + ",",
        "utf-8",
    )
    ids = tuple(f"s{p:04d}" for p in planted)
    config = {
        "kind": "process",
        "enumerate_command": "cat steps.txt",
        "run_command": (
            f"sh '{GENCOV}' '{{scratch}}/cov.json.gz' '{bug_fragment}' "
            f"{','.join(ids)} {{passes}}"
        ),
        "test_command": None,
        "expected_output": "ok",
        "coverage_source": "gcov_json",
        "coverage_paths": ["{scratch}/cov.json.gz"],
        "timeout": 60,
        "workdir": str(root),
        "step_separator": " ",
    }
    path = root / f"bug{index:02d}.json"
    path.write_text(json.dumps(config, indent=1), "utf-8")
    return SynthBug(config=path, planted=ids, truth_file=truth)
