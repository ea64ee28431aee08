"""Byte-level regression checks against outputs recorded before refactors.

``golden/eval-seed42-count30.json`` is the output of::

    bugsteps testbed-gen --out testbed --seed 42 --count 30
    bugsteps eval testbed/manifest.json --strategy tail,nodel,rand \
        --scorer compscan,mbfl,sbfl --repeat 3

run from an empty directory with relative paths, and
``golden/eval-seed42-count30-function.json`` is the same ``eval`` with
``--granularity function`` added.  The digests pin every
probe, run and diff that ``tail`` and ``rand`` (seed 7) produce on the
same 30 scenarios, in order.
"""

import hashlib
from pathlib import Path

import pytest

from bugsteps.cli import main
from bugsteps.isolate import run_strategy
from bugsteps.toy import ToyDriver
from bugsteps.util import canonical_json

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_EVAL = {
    "file": GOLDEN / "eval-seed42-count30.json",
    "function": GOLDEN / "eval-seed42-count30-function.json",
}

ISOLATION_DIGESTS = {
    ("tail", 0): "f3daba540f165776394fbd2fbedc012fd1c10ecc712b9f4b75bcf0590d7b0b86",
    ("rand", 7): "689a55913d83d689ac92959051b99b81705eed308797fabdd251c448e2dc3c96",
}


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


@pytest.mark.parametrize("strategy,seed", sorted(ISOLATION_DIGESTS))
def test_isolation_digest(testbed30, strategy, seed):
    digest = hashlib.sha256()
    for bug in testbed30:
        driver = ToyDriver(bug)
        result = run_strategy(strategy, driver, driver.enumerate_steps(), seed=seed)
        digest.update(canonical_json(result.to_json_dict()).encode("utf-8"))
    assert digest.hexdigest() == ISOLATION_DIGESTS[(strategy, seed)]
