"""Byte-level regression checks against outputs recorded before refactors.

``golden/eval-seed42-count30.json`` is the output of::

    bugsteps testbed-gen --out testbed --seed 42 --count 30
    bugsteps eval testbed/manifest.json --strategy tail,nodel,rand \
        --scorer compscan,mbfl,sbfl --repeat 3

run from an empty directory with relative paths, and
``golden/eval-seed42-count30-function.json`` is the same ``eval`` with
``--granularity function`` added.  The isolation digests pin every
probe, run and diff that ``tail``, ``nodel`` and ``rand`` (seed 7)
produce on the same 30 scenarios, in order; ``nodel`` gives the same
document whatever ``jobs`` is.  The report digest pins every ranked
report of those isolations: each scorer at each granularity.  The
testbed digest pins the tree ``testbed-gen`` writes: every file, its
path relative to ``--out`` and its bytes.
"""

import hashlib
from pathlib import Path

import pytest

from bugsteps.cli import main
from bugsteps.isolate import run_strategy
from bugsteps.model import GRANULARITIES, SCORERS
from bugsteps.scoring import report_for
from bugsteps.toy.driver import ToyDriver
from bugsteps.util import canonical_json

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_EVAL = {
    "file": GOLDEN / "eval-seed42-count30.json",
    "function": GOLDEN / "eval-seed42-count30-function.json",
}

ISOLATION_DIGESTS = {
    ("tail", 0): "f3daba540f165776394fbd2fbedc012fd1c10ecc712b9f4b75bcf0590d7b0b86",
    ("rand", 7): "689a55913d83d689ac92959051b99b81705eed308797fabdd251c448e2dc3c96",
    ("nodel", 0): "20a34dbd58dbc60bf591bb45522a8f450ddc51232ffbc9824e3d6e0cb160ef2d",
}

REPORT_DIGEST = "3d5733875755d1770817ca8db5263d1ad9dba187a7b3feca1322b3ad86046e51"

TESTBED_DIGEST = "ec5ae0ba7db2e88b8c2aaa14d90b859e23ddd1d5787dae34dbe031e9489d8895"


@pytest.mark.parametrize("granularity", sorted(GOLDEN_EVAL))
def test_eval_json_byte_identical(tmp_path, monkeypatch, capsys, granularity):
    monkeypatch.chdir(tmp_path)
    assert main(["testbed-gen", "--out", "testbed", "--seed", "42",
                 "--count", "30"]) == 0
    capsys.readouterr()
    assert main(["eval", "testbed/manifest.json",
                 "--strategy", "tail,nodel,rand",
                 "--scorer", "compscan,mbfl,sbfl",
                 "--repeat", "3", "--granularity", granularity,
                 "--output", "eval.json"]) == 0
    assert (tmp_path / "eval.json").read_bytes() == GOLDEN_EVAL[granularity].read_bytes()


def _isolate(bug, strategy, seed, jobs=1):
    driver = ToyDriver(bug)
    return run_strategy(strategy, driver, driver.enumerate_steps(), seed=seed, jobs=jobs)


@pytest.mark.parametrize("strategy,seed", sorted(ISOLATION_DIGESTS))
def test_isolation_digest(testbed30, strategy, seed):
    digest = hashlib.sha256()
    for bug in testbed30:
        result = _isolate(bug, strategy, seed)
        digest.update(canonical_json(result.to_json_dict()).encode("utf-8"))
    assert digest.hexdigest() == ISOLATION_DIGESTS[(strategy, seed)]


def test_parallel_nodel_digest(testbed30):
    digest = hashlib.sha256()
    for bug in testbed30:
        result = _isolate(bug, "nodel", 0, jobs=2)
        digest.update(canonical_json(result.to_json_dict()).encode("utf-8"))
    assert digest.hexdigest() == ISOLATION_DIGESTS[("nodel", 0)]


def test_report_digest(testbed30):
    digest = hashlib.sha256()
    for bug in testbed30:
        for strategy, seed in (("tail", 0), ("nodel", 0), ("rand", 7)):
            isolation = _isolate(bug, strategy, seed)
            for scorer in SCORERS:
                for granularity in GRANULARITIES:
                    report = report_for(isolation, scorer, granularity)
                    digest.update(canonical_json(report.to_json_dict()).encode("utf-8"))
    assert digest.hexdigest() == REPORT_DIGEST


def test_testbed_gen_digest(tmp_path, monkeypatch):
    """sha256 over the files in sorted relative POSIX path order, each as
    ``path + b"\\0" + bytes + b"\\0"``."""
    monkeypatch.chdir(tmp_path)
    assert main(["testbed-gen", "--out", "testbed", "--seed", "42", "--count", "30"]) == 0
    root = tmp_path / "testbed"
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    assert len(files) == 61
    digest = hashlib.sha256()
    for rel, path in files:
        digest.update(rel.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == TESTBED_DIGEST
