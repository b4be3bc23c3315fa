"""Configuration-driven experiment runner over the library's engines.

Each subcommand names an experiment; a single JSON document (``--config``)
supplies its parameters, individual keys can be overridden from the command
line (``--override KEY=VALUE``, dotted keys reach into nested objects), and
``--seed``/``--out`` are shorthand for the two most common overrides.  Every
run writes, into the output directory:

* ``<experiment>.csv``  -- the tabular results (deterministic: identical
  config and seed give byte-identical bytes),
* ``report.json``       -- structured results (verification reports, probe
  data, transfer summaries) plus the evaluated checks,
* ``manifest.json``     -- the resolved config echo, library versions and
  the ``OPENBLAS_NUM_THREADS`` setting (null when unset), and the constants
  the experiment ran with.

Each check the experiment covers is printed as a single ``PASS``/``FAIL``
line on stdout.  Exit status: 0 when every check passes, 2 when a check
fails (artifacts are still written), 3 on a precondition failure, which is
also reported as an error JSON on stderr and in ``error.json``.

Config keys (all optional, defaults depend on the experiment): ``system``
(name plus the construction parameters that name takes: ``lam1``, ``lam2``
and ``M`` for ``ms_product``, ``interval`` for ``linear_no_ed``, ``amp``
and the base's for ``conjugated:<base>``), ``N`` (window half-width), ``p``
(norm exponent), ``d`` or ``d_sweep`` (perturbation / step-error sizes),
``seed``, ``runs`` (number of consecutive seeds), ``horizon`` (orbit or
verification length), ``periods`` (shadow-periodic), ``side`` (verify-ed),
``points`` (verify-cl sample count), ``lam1`` (relaxed decay rate for
transfers), ``tolerances`` (per-check bounds), ``out``.  Every number must
be finite, except ``p``, where ``Infinity`` selects the l^inf norm.

Sweep cells (d x seed, oracle instances, robustness seeds) are independent,
so they run at once on W processes, W = min(the CPUs this process may run
on, the number of cells): this process and W - 1 forked children (see
:func:`_map_on`).  In a process with more than one thread, or without
``os.fork`` and ``os.sched_getaffinity``, W is 1 and the cells run one
after another here.  Either way the results come back in cell order, so
the artifacts are the same bytes; pinning BLAS to one thread (for OpenBLAS,
``OPENBLAS_NUM_THREADS=1`` before numpy loads) is what leaves the process
with one thread, and so lets the cells run in parallel.

Each config key is declared once, as a field of :class:`ExperimentConfig`
whose default is the base value; each experiment is one entry of
``_EXPERIMENTS``: its runner and the config keys it sets on top of those
defaults, default tolerances included.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import pickle
import platform
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .boundedsol import (banded_direct_solve, perron_constant, perron_solve,
                         random_hyperbolic_instance)
from .clstruct import verify_cl_diffeo, verify_cl_opseq, verify_dichotomy
from .graphtf import (graph_transform_seq, perturbation_budget,
                      perturbed_cl_for_diffeo, series_gain, upgraded_constant)
from .semiconj import continuity_probe, make_conjugacy_job, semiconjugacy_report
from .seqcore import (ConvergenceError, OperatorSeq, PreconditionError,
                      Segment, SeqVec, Window, dense, norm, op_apply, op_norm,
                      row_norms)
from .shadow import (make_loop, make_pseudotrajectory, periodic_point_near,
                     recompute_step_error, shadow, shadow_periodic,
                     shadowing_constants, Pseudotrajectory)
from .systems import (LinearShiftFamily, SinPerturbedFamily,
                      linear_example_cert, make_linear_example_seq,
                      make_system, make_weighted_shift,
                      sample_interior_points, system_keys)

__all__ = ["EXPERIMENTS", "ExperimentConfig", "load_config", "run", "main"]

#: dimensionless slack on bounds that the theory states as exact
BOUND_SLACK = 1e-9
#: the largest integer config key; numpy sizes its arrays in int64
INT_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters of one experiment run; the defaults are
    the base that every experiment's entry of ``_EXPERIMENTS`` sets keys on."""

    experiment: str
    system: dict = field(
        default_factory=lambda: {"name": "weighted_shift_linear"})
    N: int = 32
    p: float = 2.0
    d: float | None = None
    d_sweep: tuple | None = None
    seed: int = 7
    runs: int = 1
    horizon: int = 12
    periods: tuple = (1, 5, 12)
    side: str = "Z+"
    points: int = 5
    lam1: float | None = None
    tolerances: dict = field(default_factory=dict)
    out: str = "shadowkit-out"


# ---------------------------------------------------------------------------
# config loading


def _parse_override(text):
    key, eq, value = text.partition("=")
    if not eq or not key:
        raise PreconditionError(
            f"override {text!r} is not of the form KEY=VALUE")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key, parsed


def _set_path(raw, dotted, value):
    parts = dotted.split(".")
    target = raw
    for part in parts[:-1]:
        nxt = target.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            target[part] = nxt
        target = nxt
    target[parts[-1]] = value


def _as_int(raw, key, minimum):
    v = raw[key]
    # NaN and +-inf are floats that are not integral
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or isinstance(v, float) and not v.is_integer():
        raise PreconditionError(f"{key} must be an integer, got {v!r}")
    v = int(v)
    if v < minimum:
        raise PreconditionError(f"{key} must be at least {minimum}, got {v}")
    if v > INT_MAX:
        raise PreconditionError(
            f"{key} must fit a 64-bit integer (at most {INT_MAX}), got {v}")
    return v


def _as_float(raw, key, minimum=None, optional=False):
    v = raw[key]
    if v is None and optional:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise PreconditionError(f"{key} must be a number, got {v!r}")
    v = float(v)
    # p = inf selects the l^inf norm; no other key has a meaning at infinity,
    # and NaN would pass every bound below
    if math.isnan(v) or (math.isinf(v) and key != "p"):
        raise PreconditionError(f"{key} must be a finite number, got {v!r}")
    if minimum is not None and v < minimum:
        raise PreconditionError(f"{key} must be at least {minimum}, got {v}")
    return v


def _as_list(raw, key, what, parse, minimum):
    """``raw[key]``, a non-empty list, as a tuple of its entries, each read
    by ``parse`` (:func:`_as_int` or :func:`_as_float`) at ``minimum``."""
    v = raw[key]
    if not isinstance(v, (list, tuple)) or not v:
        raise PreconditionError(f"{key} must be a non-empty list of {what}")
    label = f"{key}[i]"
    return tuple(parse({label: x}, label, minimum) for x in v)


def _check_system(system):
    """Refuse a ``system`` key that its name does not take, a number that is
    not finite, and an ``interval`` that is not a non-empty run of
    consecutive integers; an unknown name is left to ``make_system``."""
    known = system_keys(system["name"], set(system) - {"name"})
    if known is None:
        return
    for key in sorted(known & set(system)):
        label = f"system.{key}"
        if key != "interval":
            _as_float({label: system[key]}, label)
            continue
        ks = system[key]
        if not isinstance(ks, (list, tuple)) or not ks:
            raise PreconditionError(
                f"{label} must be a non-empty list of integers, got {ks!r}")
        ks = [_as_int({label: k}, label, -INT_MAX) for k in ks]
        if ks != list(range(ks[0], ks[0] + len(ks))):
            raise PreconditionError(
                f"{label} must be a run of consecutive integers, got {ks}")


def _merge(experiment, path, overrides, seed, out):
    """The raw keys of a run, lowest to highest: the defaults of
    :class:`ExperimentConfig`, the experiment's entry of ``_EXPERIMENTS``,
    the JSON document at ``path``, each override in order, then the
    ``seed`` and ``out`` flags.  Returns the raw keys, the top-level keys
    given explicitly, and the defaults; nothing is validated yet."""
    if experiment not in EXPERIMENTS:
        raise PreconditionError(
            f"unknown experiment {experiment!r}; choose one of {EXPERIMENTS}")
    base = asdict(ExperimentConfig(experiment))
    del base["experiment"]
    defaults = {**base, **_EXPERIMENTS[experiment][1]}
    raw = copy.deepcopy(defaults)

    explicit = set()
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise PreconditionError(
                f"config document must be a JSON object, got {type(doc).__name__}")
        declared = doc.pop("experiment", experiment)
        if declared != experiment:
            raise PreconditionError(
                f"config file declares experiment {declared!r} but the "
                f"{experiment!r} subcommand was invoked")
        for key, value in doc.items():
            if isinstance(value, dict) and isinstance(raw.get(key), dict):
                raw[key].update(value)
            else:
                raw[key] = value
            explicit.add(key)
    for text in overrides:
        key, value = _parse_override(text)
        _set_path(raw, key, value)
        explicit.add(key.split(".")[0])
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["out"] = out
    return raw, explicit, defaults


def _resolve(experiment, raw, explicit, defaults):
    """Validate the merged keys of :func:`_merge` into a config."""
    unknown = set(raw) - set(defaults)
    if unknown:
        raise PreconditionError(
            f"unknown config keys: {sorted(unknown)}; "
            f"known keys are {sorted(defaults)}")

    # a sweep given on top of a defaulted single d (or vice versa) replaces
    # it; both given explicitly is a contradiction
    if "d_sweep" in explicit and "d" not in explicit:
        raw["d"] = None
    if "d" in explicit and "d_sweep" not in explicit:
        raw["d_sweep"] = None
    if raw["d"] is not None and raw["d_sweep"] is not None:
        raise PreconditionError("give either d or d_sweep, not both")

    if not isinstance(raw["system"], dict) or "name" not in raw["system"] \
            or not isinstance(raw["system"]["name"], str):
        raise PreconditionError("system must be an object with a 'name' key")
    _check_system(raw["system"])
    cfg = {
        "experiment": experiment,
        "system": raw["system"],
        "N": _as_int(raw, "N", 4),
        "p": _as_float(raw, "p", 1.0),
        "d": _as_float(raw, "d", 0.0, optional=True),
        "seed": _as_int(raw, "seed", 0),
        "runs": _as_int(raw, "runs", 1),
        "horizon": _as_int(raw, "horizon", 1),
        "points": _as_int(raw, "points", 1),
        "d_sweep": None if raw["d_sweep"] is None
        else _as_list(raw, "d_sweep", "sizes", _as_float, 0.0),
        "periods": _as_list(raw, "periods", "integers", _as_int, 1),
    }
    if raw["side"] not in ("Z", "Z+", "Z-"):
        raise PreconditionError(
            f"side must be 'Z', 'Z+' or 'Z-', got {raw['side']!r}")
    cfg["side"] = raw["side"]
    lam1 = cfg["lam1"] = _as_float(raw, "lam1", optional=True)
    if lam1 is not None and not 0.0 < lam1 < 1.0:
        raise PreconditionError(f"lam1 must lie in (0, 1), got {lam1}")
    if not isinstance(raw["tolerances"], dict):
        raise PreconditionError("tolerances must be an object")
    # a whole tolerances object given on top keeps the defaults it omits
    tolerances = dict(defaults["tolerances"])
    for key, value in raw["tolerances"].items():
        tolerances[key] = _as_float({f"tolerances.{key}": value},
                                    f"tolerances.{key}")
    cfg["tolerances"] = tolerances
    if not isinstance(raw["out"], str) or not raw["out"]:
        raise PreconditionError("out must be a non-empty path")
    cfg["out"] = raw["out"]
    return ExperimentConfig(**cfg)


def load_config(experiment, path=None, overrides=(), seed=None, out=None):
    """Resolve an :class:`ExperimentConfig` from defaults, file, and flags.

    Precedence, lowest to highest: experiment defaults, the JSON document at
    ``path``, each ``--override`` in order, then the dedicated ``seed`` and
    ``out`` flags.  Every key is validated; unknown keys are rejected rather
    than ignored so typos surface before anything runs.
    """
    return _resolve(experiment, *_merge(experiment, path, overrides, seed, out))


# ---------------------------------------------------------------------------
# plumbing


def _worker_count(cells):
    """How many processes a sweep of ``cells`` cells runs on: one per CPU
    this process may run on, at most one per cell, and 1 where forking is
    unsafe or unavailable: in a process with more than one thread (a child
    gets only the forking thread, so a lock another thread held stays held
    in it), or without ``os.fork`` and ``os.sched_getaffinity``."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
    except OSError:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), cells))


def _map_cells(fn, cells):
    """``[fn(cell) for cell in cells]``, with the cells spread over
    :func:`_worker_count` processes; see :func:`_map_on`."""
    cells = list(cells)
    return _map_on(fn, cells, _worker_count(len(cells)))


def _run_share(fn, cells, worker, workers):
    """``(i, ok, result or exception)`` for the cells i = worker mod
    workers, in order, up to and including the first that raises."""
    entries = []
    for i in range(worker, len(cells), workers):
        try:
            entries.append((i, True, fn(cells[i])))
        except Exception as exc:
            entries.append((i, False, exc))
            break
    return entries


def _failure(worker, reason):
    """The entry that stands for worker ``worker``'s lost share: a failure
    at its first cell, the earliest cell the share may have failed at."""
    return [(worker, False, RuntimeError(f"sweep worker {worker} {reason}"))]


def _serve_share(fn, cells, worker, workers, wfd):
    """The whole life of a forked worker: run its share, write it to
    ``wfd`` pickled, and leave by ``os._exit``, with status 0 only once all
    of it is written."""
    code = 1
    try:
        share = _run_share(fn, cells, worker, workers)
        try:
            data = pickle.dumps(share)
        except Exception as exc:
            data = pickle.dumps(_failure(
                worker, f"cannot send back its cells: {exc!r}"))
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _map_on(fn, cells, workers):
    """``[fn(cell) for cell in cells]`` on ``workers`` processes.

    Cell i runs on worker i mod workers.  Worker 0 is this process; the
    others are forked children, each of which stops at its first failing
    cell and sends its share back through a pipe.  This process runs its
    own share, then drains every pipe, and reaps every child before it
    returns or raises.  When cells fail, the exception of the first failing
    cell in cell order is raised, the one the plain loop raises (a child's
    arrives without its traceback).  A child that ends without sending its
    share, or whose share cannot be sent or received, fails at its first
    cell with a ``RuntimeError`` that says why.  With ``workers`` 1 no
    child is forked, and a child the system refuses to fork leaves its
    share to this process.
    """
    shares, children = [0], []          # children: (worker, pid, read end)
    try:
        for worker in range(1, workers):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                shares.append(worker)
                continue
            if pid == 0:
                _serve_share(fn, cells, worker, workers, wfd)
            os.close(wfd)
            children.append((worker, pid, os.fdopen(rfd, "rb")))
        entries = [e for s in shares for e in _run_share(fn, cells, s, workers)]
        while children:
            worker, pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0:
                how = f"by signal {-status}" if status < 0 \
                    else f"with status {status}"
                entries += _failure(worker, f"(pid {pid}) ended {how} before "
                                            f"sending back all its cells")
                continue
            try:
                entries += pickle.loads(data)
            except Exception as exc:
                entries += _failure(worker, f"sent back cells that cannot be "
                                            f"received: {exc!r}")
    finally:
        if children:            # only on the way out of a failure, so not
            import signal       # at import time
        for worker, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # each worker stops at its first failure, and a lost share fails at its
    # first cell, so the first failure in cell order is the first failing
    # cell; without one every cell is here once
    entries.sort(key=lambda e: e[0])
    for _, ok, value in entries:
        if not ok:
            raise value
    return [value for _, _, value in entries]


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (str, type(None))):
        return value
    return repr(value)


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_artifacts(config, result):
    outdir = config.out
    os.makedirs(outdir, exist_ok=True)
    name = config.experiment.replace("-", "_")
    with open(os.path.join(outdir, name + ".csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result["header"])
        for row in result["rows"]:
            writer.writerow([str(_jsonable(row[col]))
                             for col in result["header"]])
    _dump_json(os.path.join(outdir, "manifest.json"), {
        "config": asdict(config),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "shadowkit": __version__,
            # the BLAS thread count moves the bytes of robustness's dense
            # CSV columns, and it decides whether a sweep forks workers
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "constants": result["constants"],
    })
    report = dict(result.get("structures", {}))
    report["checks"] = [
        {"name": name_, "passed": bool(ok), "detail": detail}
        for name_, ok, detail in result["checks"]]
    _dump_json(os.path.join(outdir, "report.json"), report)


def _emit_error(experiment, exc, code, outdir):
    payload = {"error": {
        "experiment": experiment,
        "type": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }}
    print(json.dumps(payload), file=sys.stderr)
    try:
        os.makedirs(outdir, exist_ok=True)
        _dump_json(os.path.join(outdir, "error.json"), payload)
    except OSError:
        pass
    return code


def _build_system(config):
    params = {k: v for k, v in config.system.items() if k != "name"}
    return make_system(config.system["name"], Window(-config.N, config.N),
                       config.p, **params)


def _certified(config, system):
    """The built map, refused unless it carries a splitting certificate."""
    if system.cert is None:
        raise PreconditionError(
            f"system {config.system['name']!r} carries no splitting certificate")
    return system


def _build_diffeo(config):
    built = _build_system(config)
    if isinstance(built, tuple):
        raise PreconditionError(
            f"{config.experiment} needs a map with a certificate, but "
            f"{config.system['name']!r} names an operator sequence")
    return _certified(config, built)


def _seeded_start(system, seed, scale=0.25, offsets=range(0, 7)):
    """Deterministic small point whose support decays along forward orbits."""
    rng = np.random.default_rng(seed)
    w = system.window
    c = np.zeros(w.length)
    for k in offsets:
        c[w.offset(k)] = rng.uniform(-scale, scale)
    return SeqVec(w, c, system.p)


def _require_d(config):
    if config.d is None:
        raise PreconditionError(
            f"{config.experiment} needs a single d (got a sweep or nothing)")
    return config.d


def _sweep_sizes(config):
    if config.d_sweep is not None:
        return config.d_sweep
    if config.d is not None:
        return (config.d,)
    raise PreconditionError(f"{config.experiment} needs d or d_sweep")


def _seeds(config):
    """The consecutive seeds a sweep runs: ``runs`` of them from ``seed``."""
    return range(config.seed, config.seed + config.runs)


def _perturbed_shift(f, eps, p):
    """The linear weighted shift plus eps sin, on the window of ``f``, with
    the certificate constants of ``f`` relaxed to lam + 2 eps, R + 10 eps."""
    return make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), eps),
                               f.cert.lam + 2.0 * eps, f.cert.R + 10.0 * eps,
                               f.window, p, name="sin_perturbed_shift")


def _shadowing_row(system, ps):
    """Shadow ``ps`` (periodically when it has a period) and measure the
    trajectory found: its distance, the ratio to d, its step error."""
    engine = shadow if ps.period is None else shadow_periodic
    res = engine(system, ps, system.cert)
    step = recompute_step_error(system, res.trajectory, period=ps.period)
    ratio = res.sup_distance / ps.d if ps.d > 0.0 else 0.0
    return {"realized_d": ps.d, "sup_distance": res.sup_distance,
            "ratio": ratio, "iterations": res.iterations, "step_error": step}


def _shadowing_result(config, system, cs, rows, ratio, extras):
    """A shadowing experiment's result: its own check on the rows' worst
    ``ratio``, given as (name, quantity, bound, slack), the step-exactness
    check, the shadowing constants plus ``extras``, and the header."""
    name, quantity, bound, slack = ratio
    worst_ratio = max(row["ratio"] for row in rows)
    worst_step = max(row["step_error"] for row in rows)
    step_tol = config.tolerances["step_tol"]
    wrap = " (wrap included)" if "period" in rows[0] else ""
    checks = [
        (name, worst_ratio <= bound * (1.0 + slack),
         f"max {quantity} {worst_ratio:.6g} within {bound:.6g}"),
        ("step-exactness", worst_step <= step_tol,
         f"max per-step error {worst_step:.3g} within {step_tol:.3g}{wrap}"),
    ]
    cert = system.cert
    constants = {"C": cert.C, "lam": cert.lam, "R": cert.R, "L": cs.L,
                 "M": cs.M, **extras}
    return {"header": list(rows[0]), "rows": rows, "checks": checks,
            "constants": constants}


# ---------------------------------------------------------------------------
# experiments


def _run_shadow(config):
    system = _build_diffeo(config)
    cs = shadowing_constants(system, system.cert)
    cells = [(d, s) for d in _sweep_sizes(config) for s in _seeds(config)]

    def one(cell):
        d, s = cell
        ps = make_pseudotrajectory(system, _seeded_start(system, s),
                                   config.horizon, d, seed=s)
        return {"d": d, "seed": s, **_shadowing_row(system, ps)}

    return _shadowing_result(
        config, system, cs, _map_cells(one, cells),
        ("ratio-bound", "sup_distance/d", config.tolerances["ratio_max"], 0.0),
        {"d0": cs.d0, "d0_infinite": cs.d0_infinite})


def _run_shadow_periodic(config):
    system = _build_diffeo(config)
    cs = shadowing_constants(system, system.cert)
    d = _require_d(config)
    ratio_max = config.tolerances.get("ratio_max", 2.0 * cs.M)
    cells = [(m, s) for m in config.periods for s in _seeds(config)]

    def one(cell):
        m, s = cell
        rng = np.random.default_rng(s + 7919 * m)
        w = system.window
        rows = np.zeros((m, w.length))
        for c in rows:
            for j in range(0, 7):
                c[w.offset(j)] = rng.uniform(-1.0, 1.0)
            c *= d / (3.0 * max(1.0, float(np.linalg.norm(c))))
        pts = Segment(0, rows, w, system.p, m)
        ps = Pseudotrajectory(pts, recompute_step_error(system, pts), period=m)
        return {"period": m, "seed": s, **_shadowing_row(system, ps)}

    return _shadowing_result(
        config, system, cs, _map_cells(one, cells),
        ("period-ratio-bound", "sup_distance/d", ratio_max, 0.0),
        {"ratio_bound": ratio_max})


def _run_chain_demo(config):
    system = _build_diffeo(config)
    cs = shadowing_constants(system, system.cert)
    ratio_max = config.tolerances.get("ratio_max", cs.M)
    cells = [(d, s) for d in _sweep_sizes(config) for s in _seeds(config)]

    def one(cell):
        d, s = cell
        x = _seeded_start(system, s, scale=0.4 * d, offsets=range(2, 5))
        loop = make_loop(system, x, config.horizon, 0.0, seed=s)
        res, dist = periodic_point_near(system, system.cert, x, loop)
        step = recompute_step_error(system, res.trajectory, period=res.period)
        return {"d": d, "seed": s, "loop_d": loop.d, "distance": dist,
                "bound": cs.M * loop.d,
                "ratio": dist / loop.d if loop.d > 0.0 else 0.0,
                "step_error": step}

    return _shadowing_result(
        config, system, cs, _map_cells(one, cells),
        ("chain-distance", "distance/loop_d", ratio_max, BOUND_SLACK), {})


def _run_verify_cl(config):
    built = _build_system(config)
    if isinstance(built, tuple):
        seq, cert = built
        report = verify_cl_opseq(seq, cert, horizon=config.horizon, p=config.p)
    else:
        cert = _certified(config, built).cert
        points = sample_interior_points(built, config.points, seed=config.seed)
        report = verify_cl_diffeo(built, cert, points, horizon=config.horizon)
    row = {"max_proj_norm": report.max_proj_norm,
           "max_inclusion_residual": report.max_inclusion_residual,
           "worst_decay_ratio": report.worst_decay_ratio,
           "samples": report.samples, "passed": report.passed}
    checks = [("structure-verifies", report.passed,
               f"projections bounded by {report.max_proj_norm:.6g}, "
               f"worst decay ratio {report.worst_decay_ratio:.6g}")]
    constants = {"C": cert.C, "lam": cert.lam, "R": cert.R}
    return {"header": list(row), "rows": [row], "checks": checks,
            "constants": constants,
            "structures": {"verification": json.loads(report.to_json())}}


def _run_verify_ed(config):
    built = _build_system(config)
    if not isinstance(built, tuple):
        raise PreconditionError(
            "verify-ed needs an operator-sequence system (one whose registry "
            "entry returns operators plus a splitting), e.g. linear_no_ed")
    seq, cert = built
    rep_cl = verify_cl_opseq(seq, cert, horizon=config.horizon, p=config.p)
    rep_ed = verify_dichotomy(seq, cert, side=config.side,
                              horizon=config.horizon, p=config.p)
    info = [
        f"{'PASS' if rep_cl.passed else 'FAIL'} structure-cl: splitting holds "
        f"at (C, lam) = ({cert.C:g}, {cert.lam:g})",
        f"{'PASS' if rep_ed.passed else 'FAIL'} dichotomy-{config.side}: "
        f"equality-invariance check, worst decay ratio "
        f"{rep_ed.worst_decay_ratio:.6g}",
    ]
    separated = rep_cl.passed and not rep_ed.passed
    checks = [("expected-separation", separated,
               "splitting verified while the dichotomy fails on "
               f"{config.side}")]

    rows = []
    if config.system["name"] == "linear_no_ed":
        # growth of the basis direction at the origin under the cocycle from
        # time m up to 0; the diagonal construction makes it an exact power
        exact_all = True
        for m in range(max(seq.lo, -20), 0):
            v = SeqVec.basis(seq.stack.window, 0, config.p)
            for k in range(m, 0):
                v = op_apply(seq.op_at(k), v)
            observed = norm(v)
            expected = cert.lam ** m
            exact = observed == expected
            exact_all = exact_all and exact
            rows.append({"m": m, "growth_observed": observed,
                         "growth_expected": expected, "exact": exact})
        checks.append(
            ("witness-exact", exact_all,
             "cocycle growth from negative times matches the certified "
             "rate exactly"))
    constants = {"C": cert.C, "lam": cert.lam, "R": cert.R}
    return {"header": ["m", "growth_observed", "growth_expected", "exact"],
            "rows": rows, "checks": checks, "constants": constants,
            "info": info,
            "structures": {
                "structure": json.loads(rep_cl.to_json()),
                "dichotomy": json.loads(rep_ed.to_json()),
            }}


def _run_robustness(config):
    f = _build_diffeo(config)
    eps = _require_d(config)
    C, lam, R = f.cert.C, f.cert.lam, f.cert.R
    lam1 = config.lam1 if config.lam1 is not None else 0.5 * (1.0 + lam)
    budget = perturbation_budget(C, lam, R)
    if eps > budget:
        raise PreconditionError(
            f"perturbation size {eps:.3g} exceeds the contraction budget "
            f"{budget:.3g}")
    w = f.window
    g = _perturbed_shift(f, eps, config.p)
    aseq = make_linear_example_seq(w, range(0, config.horizon))
    acert = linear_example_cert(w)
    tol = config.tolerances
    seeds = _seeds(config)

    def record(route, seed, pc, rep):
        """What the report reads of one transfer: its CSV rows, its
        summary and its check inputs, so the transfer itself can go."""
        return {
            "rows": [{"route": route, "seed": seed, "k": k, "h_norm": h_norm,
                      "inclusion_residual": incl}
                     for k, h_norm, incl in pc.residual_rows()],
            "tilt_ok": pc.graph.attained <= pc.graph.eps2 * (1.0 + BOUND_SLACK),
            "contraction": pc.meta.get("contraction_ratio", 0.0),
            "passed": rep.passed,
            "summary": {
                "route": route, "seed": seed,
                "eps_measured": pc.meta.get("eps_measured"),
                "eps2": pc.graph.eps2, "attained": pc.graph.attained,
                "iterations": pc.graph.iterations,
                "fp_residual": pc.graph.fp_residual,
                "contraction_ratio": pc.meta.get("contraction_ratio"),
                "result_C": pc.result.C, "result_lam": pc.result.lam,
            },
        }

    def one(seed):
        rng = np.random.default_rng(seed)
        # sequence route: a dense perturbation of the time-dependent
        # diagonal splitting example, transferred at the relaxed rate; the
        # draws of all steps as one block, scaled by one stack norm
        raw = rng.standard_normal((aseq.count, w.length, w.length))
        raw *= (0.9 * eps / op_norm(dense(raw, w), config.p))[:, None, None]
        bseq = OperatorSeq(aseq.lo, dense(aseq.stack.to_dense_matrix() + raw,
                                          w))
        pc_seq = graph_transform_seq(aseq, acert, bseq, lam1, eps=eps,
                                     p=config.p)
        rep_seq = verify_cl_opseq(bseq, pc_seq.result,
                                  horizon=min(config.horizon, 12), p=config.p)
        seq_record = record("sequence", seed, pc_seq, rep_seq)

        # map route: a smooth perturbation of the map itself, certified
        # along one of its own orbits
        start = _seeded_start(f, seed, scale=0.05, offsets=range(0, 4))
        orbit = Segment(0, g.orbit_rows(start.coeffs[None], 0,
                                        config.horizon)[0], w, start.p, None)
        idx = [len(orbit) // 3, (2 * len(orbit)) // 3]
        pc_map = perturbed_cl_for_diffeo(f, g, orbit, lam1)
        rep_map = verify_cl_diffeo(
            g, pc_map.result, [orbit[i] for i in idx],
            horizon=min(config.horizon // 2, len(orbit) - 1 - max(idx)))
        return seq_record, record("diffeo", seed, pc_map, rep_map)

    rows, summaries = [], []
    verified, tilt_ok, contraction_worst, inclusion_worst = True, True, 0.0, 0.0
    for routes in _map_cells(one, seeds):
        for rec in routes:
            for row in rec["rows"]:
                rows.append(row)
                inclusion_worst = max(inclusion_worst,
                                      row["inclusion_residual"])
            tilt_ok &= rec["tilt_ok"]
            contraction_worst = max(contraction_worst, rec["contraction"])
            verified &= rec["passed"]
            summaries.append(rec["summary"])

    ball = 2.0 * series_gain(C, lam) * C * eps
    checks = [
        ("tilt-bound", tilt_ok,
         f"every rebuilt tilt stays in its norm ball (radius <= {ball:.6g})"),
        ("contraction", contraction_worst <= 0.5 * (1.0 + BOUND_SLACK),
         f"worst fixed-point contraction ratio {contraction_worst:.6g} "
         f"within 0.5"),
        ("inclusion-residuals", inclusion_worst <= tol["inclusion_max"],
         f"max one-step leakage {inclusion_worst:.3g} within "
         f"{tol['inclusion_max']:.3g}"),
        ("certificate-verifies", verified,
         f"transferred certificates pass at (C1, lam1) = "
         f"({upgraded_constant(C, lam, R, lam1):.6g}, {lam1:g})"),
    ]
    constants = {"C": C, "lam": lam, "R": R, "lam1": lam1, "eps": eps,
                 "budget": budget, "ball": ball,
                 "C1": upgraded_constant(C, lam, R, lam1)}
    header = ["route", "seed", "k", "h_norm", "inclusion_residual"]
    return {"header": header, "rows": rows, "checks": checks,
            "constants": constants, "structures": {"transfers": summaries}}


def _run_semiconj(config):
    f = _build_diffeo(config)
    if config.system["name"] != "weighted_shift_linear":
        raise PreconditionError(
            "the semiconj experiment drives weighted_shift_linear against "
            "its smooth perturbation; other systems are library-level calls")
    d = _require_d(config)
    g = _perturbed_shift(f, d, config.p)
    x0 = _seeded_start(f, config.seed, scale=0.03, offsets=range(-3, 3))
    job = make_conjugacy_job(f, g, x0, d=d, span=(0, config.horizon),
                             lam1=config.lam1)
    rows = semiconjugacy_report(job)
    probe = continuity_probe(job, rows)
    tol = config.tolerances

    ball = 2.0 * job.L * d * (1.0 + BOUND_SLACK)
    worst_norm = max(max(r["h1_norm"], r["h2_norm"]) for r in rows)
    worst_res = max(max(r["residual1"], r["residual2"]) for r in rows)
    worst_probe = max(abs(r["composition_probe"]) for r in rows)
    checks = [
        ("h-norm-ball", worst_norm <= ball,
         f"max displacement norm {worst_norm:.6g} within 2*L*d = "
         f"{2.0 * job.L * d:.6g}"),
        ("defining-residuals", worst_res <= tol["residual_max"],
         f"max defining-equation residual {worst_res:.3g} within "
         f"{tol['residual_max']:.3g}"),
        ("composition-probe", worst_probe <= tol["probe_max"],
         f"max composed-displacement probe {worst_probe:.3g} within "
         f"{tol['probe_max']:.3g}"),
    ]
    constants = {"C": f.cert.C, "lam": f.cert.lam, "C1": job.C1,
                 "lam1": job.lam1, "L": job.L, "d0": job.meta["d0"],
                 "truncation": job.truncation, "ball": 2.0 * job.L * d}
    return {"header": ["point", "h1_norm", "h2_norm", "residual1",
                       "residual2", "composition_probe"],
            "rows": rows, "checks": checks, "constants": constants,
            "structures": {"job_meta": job.meta, "continuity_probe": probe}}


def _run_solver_oracle(config):
    tol = config.tolerances
    L = perron_constant(1.0, 0.5)

    def one(seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        length = int(rng.integers(6, 21))
        prob, cert = random_hyperbolic_instance(dim, length, rng)
        sol_p = perron_solve(prob, cert)
        sol_d = banded_direct_solve(prob, cert)
        disc = float(row_norms(sol_p.v.rows - sol_d.v.rows, sol_p.v.p).max())
        return {"seed": seed, "dim": dim, "length": length,
                "sup_perron": sol_p.sup_norm, "sup_direct": sol_d.sup_norm,
                "w_bound": prob.w_bound, "discrepancy": disc}

    rows = _map_cells(one, _seeds(config))
    worst = max(row["discrepancy"] for row in rows)
    bound_ok = all(
        row["sup_perron"] <= L * row["w_bound"] * (1.0 + BOUND_SLACK)
        for row in rows)
    checks = [
        ("oracle-agreement", worst <= tol["max_discrepancy"],
         f"max sup-norm discrepancy {worst:.3g} within "
         f"{tol['max_discrepancy']:.3g} over {len(rows)} instances"),
        ("solver-bound", bound_ok,
         f"every solution within L*|w| for L = {L:g}"),
    ]
    constants = {"C": 1.0, "lam": 0.5, "L": L}
    header = ["seed", "dim", "length", "sup_perron", "sup_direct", "w_bound",
              "discrepancy"]
    return {"header": header, "rows": rows, "checks": checks,
            "constants": constants}


#: every experiment: its runner, and the config keys it sets on top of the
#: defaults of ``ExperimentConfig``, the default ``tolerances`` of its checks
#: among them
_EXPERIMENTS = {
    "verify-cl": (_run_verify_cl, {}),
    "verify-ed": (_run_verify_ed, {"system": {"name": "linear_no_ed"},
                                   "N": 24, "horizon": 20}),
    "shadow": (_run_shadow, {"N": 64, "d": 1e-4, "horizon": 40,
                             "tolerances": {"ratio_max": 12.0,
                                            "step_tol": 1e-11}}),
    "shadow-periodic": (_run_shadow_periodic,
                        {"d": 1e-3, "tolerances": {"step_tol": 1e-11}}),
    "chain-demo": (_run_chain_demo,
                   {"d_sweep": (1e-2, 1e-3, 1e-4), "horizon": 8,
                    "tolerances": {"step_tol": 1e-11}}),
    "robustness": (_run_robustness,
                   {"N": 24, "d": 1e-4, "horizon": 16,
                    "tolerances": {"inclusion_max": 1e-9}}),
    "semiconj": (_run_semiconj,
                 {"N": 48, "d": 1e-4, "horizon": 6,
                  "tolerances": {"residual_max": 1e-9, "probe_max": 1e-6}}),
    "solver-oracle": (_run_solver_oracle,
                      {"runs": 50, "seed": 0,
                       "tolerances": {"max_discrepancy": 1e-8}}),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def run(config):
    """Execute one experiment: write artifacts, print check lines.

    Returns the exit status: 0 when every check passes, 2 when one fails or
    an engine aborts mid-run, 3 on a precondition failure.
    """
    try:
        result = _EXPERIMENTS[config.experiment][0](config)
    except PreconditionError as exc:
        return _emit_error(config.experiment, exc, 3, config.out)
    except ConvergenceError as exc:
        return _emit_error(config.experiment, exc, 2, config.out)
    _write_artifacts(config, result)
    for line in result.get("info", ()):
        print(line)
    failed = False
    for name, ok, detail in result["checks"]:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return 2 if failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shadowkit",
        description="run a reproducible experiment and write CSV/JSON artifacts")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", metavar="PATH",
                       help="JSON config document")
        p.add_argument("--seed", type=int, metavar="INT",
                       help="override the base seed")
        p.add_argument("--out", metavar="DIR",
                       help="output directory for artifacts")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override one config key (dotted keys allowed, "
                            "values parsed as JSON when possible); repeatable")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    raw = {}
    try:
        raw, explicit, defaults = _merge(args.experiment, args.config,
                                         args.override, args.seed, args.out)
        config = _resolve(args.experiment, raw, explicit, defaults)
    except (PreconditionError, OSError, json.JSONDecodeError) as exc:
        # the run's own directory: --out, else a usable merged ``out``
        out = args.out or raw.get("out")
        if not isinstance(out, str) or not out:
            out = ExperimentConfig.out
        return _emit_error(args.experiment, exc, 3, out)
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
