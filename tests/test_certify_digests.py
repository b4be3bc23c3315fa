"""The benchmark's invocations keep their recorded CSV bytes.

Each invocation of the ``certify``, ``conjugacy`` and ``sweep`` workloads
in ``bench/workloads.py`` runs at seed 11 in a fresh interpreter with
OpenBLAS pinned to one thread, as the benchmark runs it, and its CSV must
hash to the digest recorded in ``bench/refs.json``.  The ``report.json``
the same run writes must hash to the digest recorded below, in
``REPORTS`` (the bytes of ``report.json`` are kept identical from change
to change, like the CSVs).  The ``conjugacy`` invocations also run at the
held-out seed 12345, against the same two kinds of digest, and so do the
runs on the systems whose maps are composed from row maps: the
``verify-cl`` invocations on the Morse-Smale product and on the
conjugated system, and the conjugated ``shadow`` probe of the ``sweep``
workload, whose CSV digest ``bench/refs.json`` does not hold and is
recorded below.  ``robustness``, the dense transfers, runs at the
held-out seed too, and so do the ``sweep`` runs of the noise block and of
the oracle's instance stacks, ``shadow`` and ``solver-oracle``, and those
of the periodic solver, ``shadow-periodic`` and ``chain-demo``.  A change
that moves the bits of a verifier, a solver or a transfer fails here, before
the benchmark's correctness gate sees it.  The tests only read ``bench/``.
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
HELD_OUT = 12345


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
CONJUGACY = WORKLOADS["conjugacy"].invocations
REFS = json.loads((ROOT / "bench" / "refs.json").read_text())
#: sha256 of each invocation's report.json at seed 11, by workload and label
REPORTS = {
    "certify": {
        "robustness":
            "1d06300db81814819049912d68e4e0da84c65ded83ae2026a29afaaf77161702",
        "verify-cl:conjugated":
            "f3263f7f9ffcd1efff0ab8cbb8049fd99c890c26c6444c51ca3eaef542aa959a",
        "verify-cl:ms_product":
            "7eb5763c966b91c0cba758b147bc4d8bc3717c5f970a83fea98fb3f4a18cee9f",
        "verify-cl:weighted_shift_linear":
            "b0d9075ccaf51050e0d219f2402b5e8e2d0948b3cb00b85ac85a89ce34df72a8",
        "verify-ed":
            "b758a95641f6cacd2ba762bd7eb3241f39a76260925d004a433ed63cd371c686",
    },
    "conjugacy": {
        "semiconj":
            "f57221b8ef98acd1ccee34caea301c42fb587aba262dfc6ab932acfd9275f751",
    },
    "sweep": {
        "chain-demo":
            "e58ccce7b88c62c4bd1d4bcdad3e985d7366623b5ee7597435969a9428e370ed",
        "shadow":
            "69e956001379a206b3036774b4a4864b5bf43dca827a61b7a7c686b1216abe8e",
        "shadow-periodic":
            "96ad8cf9da640442f54edb595130fd073767e4e44fc988a1a1ba6887b1ab27a4",
        "solver-oracle":
            "5b34bee0476e2cbbc5026f801d2110565bf8898756686e3a0a1ad55da8abdac5",
    },
}
#: sha256 of each conjugacy invocation's report.json at the held-out seed
REPORTS_HELD_OUT = {
    "semiconj":
        "013300a75e76ae1337ffe05163854ab0e85c6a0ba344e10cbcbe415bec3d7daa",
}
#: sha256 of the CSV and report.json at the held-out seed of the runs on
#: the Morse-Smale product and the conjugated system, by label
MAPS_HELD_OUT = {
    "verify-cl:ms_product": (
        REFS["certify"][str(HELD_OUT)]["verify-cl:ms_product"],
        "b0b4c2f31a5562374ca60c7dfcc4aa4380e5a068ace888a5019a371135c3b8f1"),
    "verify-cl:conjugated": (
        REFS["certify"][str(HELD_OUT)]["verify-cl:conjugated"],
        "4c078866e51c334f8eb18ec8440108947b1b5e233168aecc736a6b781b478a42"),
    "probe:shadow-conjugated": (
        "d76847f40083e1416029d248a70d38e397db013fa72b4cbdf62780bd70e72a02",
        "dace5e355ae967a473a874b557ff03b07cd8d65f2d3e428f4f5f8488052d089c"),
}
MAP_RUNS = [inv for inv in CERTIFY + WORKLOADS["sweep"].probes
            if inv.label in MAPS_HELD_OUT]
#: sha256 of the CSV and report.json of ``robustness`` at the held-out seed:
#: the dense transfers, their stack norms and shift-by-dense products
ROBUSTNESS_HELD_OUT = (
    REFS["certify"][str(HELD_OUT)]["robustness"],
    "fffd4756c91bbce2abb806937ef665dbf6e33cda988001b090284a44090de910")
ROBUSTNESS = next(inv for inv in CERTIFY if inv.label == "robustness")
#: sha256 of the report.json at the held-out seed of the ``sweep`` runs on
#: the noise block, the oracle's instance stacks and the periodic solver,
#: by label; their CSV digests are in ``bench/refs.json``
SWEEP_HELD_OUT = {
    "shadow":
        "82894f26c19735956954f1cef597ead96e44c65bf6b64f4dff305d3b7304b0fd",
    "solver-oracle":
        "c0f15d75226f2868e2497d035669b6a44126f091557abea8b792b8a722dee722",
    "shadow-periodic":
        "be55c94b882b6087119446d6e813b07493e34ec7db8efb8570d1f87913f609fb",
    "chain-demo":
        "b7ef8a77d34eb8988e1a6708ecbb07752f7d2bb230df6bfe31301f4eea5a8a96",
}
SWEEP_RUNS = [inv for inv in WORKLOADS["sweep"].invocations
              if inv.label in SWEEP_HELD_OUT]


def _digests(inv, seed, tmp_path):
    """sha256 of the CSV and of report.json of one subprocess run at
    ``seed``."""
    out = tmp_path / "run"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + os.environ.get(
                       "PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-m", "shadowkit.cli", *inv.argv(seed, str(out))],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    csv = out / (inv.experiment.replace("-", "_") + ".csv")
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in (csv, out / "report.json"))


@pytest.mark.parametrize("inv", CERTIFY, ids=[inv.label for inv in CERTIFY])
def test_certify_csv_matches_recorded_digest(inv, tmp_path):
    assert _digests(inv, SEED, tmp_path) == (
        REFS["certify"][str(SEED)][inv.label], REPORTS["certify"][inv.label])


@pytest.mark.parametrize("name, inv", OTHERS,
                         ids=[f"{name}:{inv.label}" for name, inv in OTHERS])
def test_conjugacy_and_sweep_csv_match_recorded_digest(name, inv, tmp_path):
    assert _digests(inv, SEED, tmp_path) == (
        REFS[name][str(SEED)][inv.label], REPORTS[name][inv.label])


@pytest.mark.parametrize("inv", CONJUGACY,
                         ids=[inv.label for inv in CONJUGACY])
def test_conjugacy_keeps_its_digests_at_the_held_out_seed(inv, tmp_path):
    assert _digests(inv, HELD_OUT, tmp_path) == (
        REFS["conjugacy"][str(HELD_OUT)][inv.label],
        REPORTS_HELD_OUT[inv.label])


@pytest.mark.parametrize("inv", MAP_RUNS, ids=[inv.label for inv in MAP_RUNS])
def test_row_mapped_systems_keep_their_digests_at_the_held_out_seed(
        inv, tmp_path):
    assert _digests(inv, HELD_OUT, tmp_path) == MAPS_HELD_OUT[inv.label]


def test_robustness_keeps_its_digests_at_the_held_out_seed(tmp_path):
    assert _digests(ROBUSTNESS, HELD_OUT, tmp_path) == ROBUSTNESS_HELD_OUT


@pytest.mark.parametrize("inv", SWEEP_RUNS,
                         ids=[inv.label for inv in SWEEP_RUNS])
def test_shadow_and_oracle_keep_their_digests_at_the_held_out_seed(
        inv, tmp_path):
    assert _digests(inv, HELD_OUT, tmp_path) == (
        REFS["sweep"][str(HELD_OUT)][inv.label], SWEEP_HELD_OUT[inv.label])
