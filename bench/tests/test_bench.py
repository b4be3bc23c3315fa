"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import CONJUGATED, Invocation, Workload  # noqa: E402

TINY = {
    "conjugacy": Workload((
        Invocation("semiconj", "semiconj", ("N=40", "horizon=1")),
    )),
    "sweep": Workload((
        Invocation("shadow", "shadow",
                   ("N=32", "horizon=20", "d_sweep=[1e-3,1e-4]", "runs=2")),
        Invocation("shadow-periodic", "shadow-periodic",
                   ("N=32", "periods=[1,3]", "runs=2")),
        Invocation("chain-demo", "chain-demo",
                   ("N=32", "runs=2", "horizon=8")),
        Invocation("solver-oracle", "solver-oracle", ("runs=4",)),
    ), probes=(
        Invocation("probe:shadow-conjugated", "shadow", (CONJUGATED,)),
    )),
    "certify": Workload((
        Invocation("verify-cl:weighted_shift_linear", "verify-cl"),
        Invocation("verify-cl:ms_product", "verify-cl",
                   ('system={"name":"ms_product"}',)),
        Invocation("verify-cl:conjugated", "verify-cl", (CONJUGATED,)),
        Invocation("verify-ed", "verify-ed"),
        Invocation("robustness", "robustness", ("runs=2", "horizon=8")),
    )),
}

COUNT_METRICS = [k for k, unit in harness.per_layer_units().items()
                 if unit == "count"]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run the tiny workloads, with no reference digests to match."""
    for name, workload in TINY.items():
        monkeypatch.setitem(harness.WORKLOADS, name, workload)
    monkeypatch.setattr(harness, "REFS", tmp_path / "no-refs.json")
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.delenv("SHADOWKIT_THREADS", raising=False)
    return tmp_path


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(tiny, name, trace):
    summary, details = harness.measure(name, 5, 0.01, trace, tiny / "out")
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == len(TINY[name].invocations) * (1 + trace)
    want = harness.per_layer_units() if trace else harness.END_TO_END
    assert list(summary["metrics"]) == list(want)
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_probe_counts_against_passed_frac(tiny):
    summary, details = harness.measure("sweep", 5, 0.01, False, tiny / "out")
    probe = details["passes"][0]["probes"][0]
    # the known compose(diag, shift_diag) defect: shadow on a conjugated
    # system is refused with exit 3 and stays out of the timed figures
    assert probe["code"] == 3
    assert summary["metrics"]["passed_frac"]["value"] == pytest.approx(4 / 5)


@pytest.mark.parametrize("name", ["sweep", "certify"])
def test_counts_repeat_exactly(tiny, name):
    first, _ = harness.measure(name, 5, 0.01, True, tiny / "a")
    second, _ = harness.measure(name, 5, 0.01, True, tiny / "b")
    counts = {k: first["metrics"][k]["value"] for k in COUNT_METRICS}
    assert counts == {k: second["metrics"][k]["value"] for k in COUNT_METRICS}
    assert counts["seqcore.seqvec_allocs"] > 0 and counts["cli.run.calls"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_fit_in_wall(tiny, monkeypatch, name):
    # with one worker no two spans overlap, so the self times of a pass
    # partition part of its wall time
    monkeypatch.setenv("SHADOWKIT_THREADS", "1")
    rec = spans.Recorder()
    with spans.instrument(rec):
        passes = harness.run_passes(TINY[name], 5, 0.01, str(tiny), rec)
    figures = spans.per_function(rec.spans(), rec.names,
                                 spans.entry_points(), [p.runs for p in passes])
    for fig, p in zip(figures, passes):
        own = sum(v for k, v in fig.items() if k.endswith(".self_s"))
        assert 0.0 < own <= p.wall


def test_instrument_restores_the_library():
    from shadowkit import cli, seqcore
    before = (seqcore.op_apply, cli.op_apply, cli.run, cli._map_cells,
              seqcore.SeqVec.__init__)
    with spans.instrument(spans.Recorder()):
        assert seqcore.op_apply is not before[0]
        assert cli.op_apply is not before[1]
    assert (seqcore.op_apply, cli.op_apply, cli.run, cli._map_cells,
            seqcore.SeqVec.__init__) == before


def test_self_time_subtracts_the_union_of_overlapping_children():
    # a parent [0, 10] with two pool cells [1, 6] and [2, 8] running at once
    data = {
        "ids": [1, 2, 3], "names": [0, 1, 1], "parents": [0, 1, 1],
        "runs": [1, 1, 1],
        "starts": [0.0, 1.0, 2.0], "ends": [10.0, 6.0, 8.0],
    }
    import numpy as np
    own = spans.self_times({k: np.asarray(v) for k, v in data.items()})
    assert own.tolist() == [3.0, 5.0, 6.0]


def test_benchmark_json_lists_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        harness.per_layer_units()
    assert sorted(w["name"] for w in doc["workloads"]) == \
        sorted(harness.WORKLOADS)
