"""Runs a workload's CLI invocations in-process and derives the metrics.

A run is a closed loop: each invocation starts only after the previous one
returned, and shadowkit's own sweep pool is the only other concurrency.
``measure`` returns the end-to-end metrics (``trace=False``) or, from a
separate set of traced passes, the per-layer ones (``trace=True``).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs.json"

#: fresh-process set-ups per run; the reported setup_s is their median
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
}

EXPERIMENTS = ("semiconj", "shadow", "shadow-periodic", "chain-demo",
               "solver-oracle", "verify-cl", "verify-ed", "robustness")


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    entry = spans.entry_points()
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in entry:
            units[f"{name}.total_s"] = "s"
    for name in spans.COUNTERS:
        units[name] = "count"
    units["cli.artifact_bytes"] = "bytes"
    units["cli.cpu_per_wall"] = "ratio"
    for exp in EXPERIMENTS:
        units[f"exp.{exp}_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


@dataclass
class Outcome:
    """One CLI invocation: its exit status, time and checked outputs."""

    label: str
    experiment: str
    code: int | None
    seconds: float
    cpu_seconds: float
    digest: str | None = None
    checks_passed: bool = False
    artifact_bytes: int = 0
    error: str = ""

    @property
    def ok(self):
        return self.code == 0 and self.checks_passed


@dataclass
class Pass:
    """One run through a workload's invocation list."""

    outcomes: list
    probes: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)

    @property
    def wall(self):
        return sum(o.seconds for o in self.outcomes)


def _read_outputs(outcome, out):
    """Fill in the CSV digest, the report's verdict and the artifact size."""
    outdir = Path(out)
    csv_path = outdir / (outcome.experiment.replace("-", "_") + ".csv")
    if csv_path.is_file():
        outcome.digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    report = outdir / "report.json"
    if report.is_file():
        checks = json.loads(report.read_text())["checks"]
        outcome.checks_passed = bool(checks) and all(c["passed"] for c in checks)
    outcome.artifact_bytes = sum(p.stat().st_size for p in outdir.iterdir()) \
        if outdir.is_dir() else 0


def invoke(inv, seed, out):
    """Run one invocation through ``shadowkit.cli.main`` and check it.

    The timed region is the call itself, artifacts included.  An invocation
    fails when it exits non-zero, when any check in its ``report.json`` is
    false, or (checked by the caller) when its CSV digest is off.
    """
    from shadowkit import cli

    shutil.rmtree(out, ignore_errors=True)
    sink = io.StringIO()
    error = ""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(inv.argv(seed, out))
    except Exception:           # an engine bug must not end the benchmark
        code, error = None, traceback.format_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    outcome = Outcome(inv.label, inv.experiment, code, t1 - t0, c1 - c0,
                      error=error)
    _read_outputs(outcome, out)
    return outcome


def run_pass(workload, seed, out_root, rec=None):
    """Each invocation once, in order, then the untimed probes."""
    p = Pass([])
    for i, inv in enumerate(workload.invocations):
        if rec is not None:
            rec.run_id += 1
            p.runs.append(rec.run_id)
        p.outcomes.append(invoke(inv, seed, os.path.join(out_root, f"inv{i}")))
    if rec is not None:
        p.counts = rec.take_counts()
        rec.run_id += 1               # probe spans belong to no pass
    for i, inv in enumerate(workload.probes):
        p.probes.append(invoke(inv, seed, os.path.join(out_root, f"probe{i}")))
    if rec is not None:
        rec.take_counts()
    return p


def run_passes(workload, seed, seconds, out_root, rec=None):
    """Passes back to back until another one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, out_root, rec))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


_SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from shadowkit import cli
from shadowkit.seqcore import Window
from shadowkit.systems import make_system
seen = set()
for experiment, overrides in json.loads(sys.argv[2]):
    cfg = cli.load_config(experiment, overrides=overrides)
    key = json.dumps([cfg.system, cfg.N, cfg.p], sort_keys=True)
    if key not in seen:
        seen.add(key)
        params = {k: v for k, v in cfg.system.items() if k != "name"}
        make_system(cfg.system["name"], Window(-cfg.N, cfg.N), cfg.p, **params)
print(time.perf_counter() - t0)
"""


def setup_times(workload, repeats=SETUP_REPEATS):
    """Fresh-process ``import shadowkit.cli`` plus every system it names.

    ``solver-oracle`` builds random instances, not a registry system, so it
    names none.  One untimed child runs first, so that every timed child
    finds the byte-code already compiled.
    """
    specs = [(inv.experiment, list(inv.overrides))
             for inv in workload.invocations
             if inv.experiment != "solver-oracle"]
    argv = [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"),
            json.dumps(specs)]
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def machine():
    """The facts a reader needs to compare runs across machines."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SHADOWKIT_THREADS": os.environ.get("SHADOWKIT_THREADS"),
        "blas_pinned_because": "with OpenBLAS threads unpinned the "
                               "robustness CSV bytes differ from the "
                               "references, and BLAS threads contend with "
                               "the sweep pool; see bench/README.md",
    }


def check_digests(name, seed, passes):
    """Names of invocations whose CSV differs from a reference or a sibling.

    Every pass must reproduce the first pass's bytes; where ``refs.json``
    holds digests for this workload and seed, the first pass must match them.
    """
    refs = json.loads(REFS.read_text()).get(name, {}).get(str(seed), {}) \
        if REFS.is_file() else {}
    bad = set()
    first = {o.label: o.digest for o in passes[0].outcomes}
    for label, digest in first.items():
        if label in refs and refs[label] != digest:
            bad.add(label)
    for p in passes[1:]:
        bad.update(o.label for o in p.outcomes if o.digest != first[o.label])
    return bad, bool(refs)


def _median(values):
    return float(statistics.median(values))


def _exp_seconds(p):
    per = dict.fromkeys(EXPERIMENTS, 0.0)
    for o in p.outcomes:
        per[o.experiment] += o.seconds
    return per


def _tally(passes, bad):
    attempted = failed = probes = probe_failed = 0
    for p in passes:
        for o in p.outcomes:
            attempted += 1
            failed += not o.ok or o.label in bad
        for o in p.probes:
            probes += 1
            probe_failed += not o.ok
    return attempted, failed, probes, probe_failed


def measure(name, seed, seconds, trace, out_root):
    """One benchmark run; returns ``(summary, details)``.

    ``summary`` is the result line: ``correct``, ``attempted``, ``failed``
    and ``metrics``.  Untraced, the passes fill ``seconds``.  Traced, the
    first half of ``seconds`` runs untraced passes (for the overhead and the
    per-experiment times) and the second half traced ones.
    """
    workload = WORKLOADS[name]
    setups = setup_times(workload)
    out_root = str(out_root)
    budget = seconds / 2 if trace else seconds
    plain = run_passes(workload, seed, budget, out_root)
    bad, referenced = check_digests(name, seed, plain)
    passes = plain
    details = {"machine": machine(), "workload": name, "seed": seed,
               "seconds": seconds, "trace": trace, "setup_s": setups,
               "referenced": referenced}

    if not trace:
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median([p.wall for p in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
    else:
        rec = spans.Recorder()
        with spans.instrument(rec):
            traced = run_passes(workload, seed, budget, out_root, rec)
        # tracing must change no result
        want = {o.label: o.digest for o in plain[0].outcomes}
        for p in traced:
            bad.update(o.label for o in p.outcomes if o.digest != want[o.label])
        passes = plain + traced
        metrics = _per_layer(rec, plain, traced)
        span_file = Path(out_root) / "spans.npz"
        spans.write_spans(span_file, rec.spans(), rec.names)
        details["spans"] = str(span_file)

    attempted, failed, probes, probe_failed = _tally(passes, bad)
    if not trace:
        metrics["passed_frac"] = 1.0 - (failed + probe_failed) / (attempted + probes)
    units = END_TO_END if not trace else per_layer_units()
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details["passes"] = [
        {"wall_s": p.wall, "counts": p.counts,
         "outcomes": [vars(o) for o in p.outcomes],
         "probes": [vars(o) for o in p.probes]}
        for p in passes]
    details["digest_mismatch"] = sorted(bad)
    return summary, details


def _per_layer(rec, plain, traced):
    data = rec.spans()
    entry = spans.entry_points()
    figures = spans.per_function(data, rec.names, entry,
                                 [p.runs for p in traced])
    for fig, p in zip(figures, traced):
        fig.update(p.counts)
        fig["cli.artifact_bytes"] = sum(o.artifact_bytes for o in p.outcomes)
    metrics = {k: statistics.median_low([f[k] for f in figures])
               if isinstance(figures[0][k], int)
               else _median([f[k] for f in figures])
               for k in figures[0]}
    metrics["cli.cpu_per_wall"] = _median(
        [sum(o.cpu_seconds for o in p.outcomes) / p.wall for p in plain])
    for exp in EXPERIMENTS:
        metrics[f"exp.{exp}_s"] = _median([_exp_seconds(p)[exp] for p in plain])
    plain_wall = _median([p.wall for p in plain])
    metrics["trace.overhead_frac"] = \
        (_median([p.wall for p in traced]) - plain_wall) / plain_wall
    return metrics


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="benchmark shadowkit's CLI on one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    out_root = Path(".bench_out") / args.workload
    out_root.mkdir(parents=True, exist_ok=True)
    summary, details = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), out_root)
    details["summary"] = summary
    result = out_root / f"result-seed{args.seed}-trace{args.trace}.json"
    result.write_text(json.dumps(details, indent=1, default=str) + "\n")
    print(json.dumps({"machine": details["machine"]}))
    print(json.dumps(summary))
    return 0
