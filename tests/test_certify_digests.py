"""The benchmark's invocations keep their recorded CSV bytes.

Each invocation of the ``certify``, ``conjugacy`` and ``sweep`` workloads
in ``bench/workloads.py`` runs at seed 11 in a fresh interpreter with
OpenBLAS pinned to one thread, as the benchmark runs it, and its CSV must
hash to the digest recorded in ``bench/refs.json``.  A change that moves
the bits of a verifier, a solver or a transfer fails here, before the
benchmark's correctness gate sees it.  The tests only read ``bench/``.
"""
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def _bench_workloads():
    # executed from its source, so that no byte-code lands under bench/;
    # dataclasses resolve the module's annotations through sys.modules
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module.WORKLOADS


WORKLOADS = _bench_workloads()
CERTIFY = WORKLOADS["certify"].invocations
OTHERS = [(name, inv) for name in ("conjugacy", "sweep")
          for inv in WORKLOADS[name].invocations]
REFS = json.loads((ROOT / "bench" / "refs.json").read_text())


def _csv_digest(inv, tmp_path):
    out = tmp_path / "run"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + os.environ.get(
                       "PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-m", "shadowkit.cli", *inv.argv(SEED, str(out))],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    csv = out / (inv.experiment.replace("-", "_") + ".csv")
    return hashlib.sha256(csv.read_bytes()).hexdigest()


@pytest.mark.parametrize("inv", CERTIFY, ids=[inv.label for inv in CERTIFY])
def test_certify_csv_matches_recorded_digest(inv, tmp_path):
    assert _csv_digest(inv, tmp_path) == REFS["certify"][str(SEED)][inv.label]


@pytest.mark.parametrize("name, inv", OTHERS,
                         ids=[f"{name}:{inv.label}" for name, inv in OTHERS])
def test_conjugacy_and_sweep_csv_match_recorded_digest(name, inv, tmp_path):
    assert _csv_digest(inv, tmp_path) == REFS[name][str(SEED)][inv.label]
