"""Spans and counters recorded around shadowkit's public functions.

The benchmark traces the library from outside.  :func:`instrument` swaps
each traced function, in every shadowkit module that has bound it, for a
wrapper that records one span per call (id, name, start, end, parent span,
run id) and restores the originals on exit.  Spans stay in memory, in
per-thread typed arrays, until the benchmark writes them out; self times
are derived from them afterwards, never while the program runs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: traced public functions, by the module (layer) that defines them
TRACED = {
    "seqcore": ("op_apply", "op_norm", "compose", "cocycle", "norm"),
    "boundedsol": ("perron_solve", "periodic_green_solve",
                   "banded_direct_solve", "random_hyperbolic_instance"),
    "shadow": ("shadow", "shadow_periodic", "periodic_point_near",
               "refine_once", "make_pseudotrajectory", "make_loop",
               "recompute_step_error", "shadowing_constants"),
    "graphtf": ("graph_transform_seq", "graph_transform_periodic",
                "perturbed_cl_for_diffeo"),
    "semiconj": ("make_conjugacy_job", "semiconjugacy_report",
                 "continuity_probe", "h1_at", "h2_at", "orbit_perron_apply"),
    "clstruct": ("verify_cl_diffeo", "verify_cl_opseq", "verify_dichotomy",
                 "verify_cocycle_cl"),
    "systems": ("make_system",),
    "cli": ("run",),
}

#: maps of the systems that ``make_system`` returns, traced per system
SYSTEM_MAPS = ("forward", "inverse", "dforward")

#: span names of every traced callable
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns) \
    + tuple(f"systems.{m}" for m in SYSTEM_MAPS)

#: work counters taken at the same boundaries as the spans
COUNTERS = ("seqcore.seqvec_allocs", "shadow.refinements",
            "graphtf.fp_iterations", "graphtf.dense_calls", "clstruct.samples")


def entry_points():
    """Traced functions the CLI calls directly; they also get ``.total_s``."""
    from shadowkit import cli
    bound = {id(inspect.unwrap(v)) for v in vars(cli).values()}
    names = []
    for mod, fns in TRACED.items():
        module = sys.modules[f"shadowkit.{mod}"]
        names += [f"{mod}.{fn}" for fn in fns
                  if mod == "cli"
                  or id(inspect.unwrap(getattr(module, fn))) in bound]
    return tuple(names)


class _ThreadState:
    """One thread's open-span stack, finished spans and counter values."""

    def __init__(self):
        self.stack = [0]                      # 0 is "no parent"
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.runs = array("q")
        self.counts = dict.fromkeys(COUNTERS, 0)


class Recorder:
    """Collects spans and counters from every thread that runs traced code.

    ``run_id`` tags the spans of the invocation in progress; the caller sets
    it before each invocation.  Counters are kept per thread, so that pool
    workers never race on a shared total.
    """

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.run_id = 0
        self._next_id = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def current_span(self):
        return self.state().stack[-1]

    def take_counts(self):
        """Sum the counters over all threads and reset them to zero."""
        total = dict.fromkeys(COUNTERS, 0)
        with self._lock:
            states = list(self._states)
        for st in states:
            for key in COUNTERS:
                total[key] += st.counts[key]
                st.counts[key] = 0
        return total

    def traced(self, name, fn, on_return=None):
        """``fn`` wrapped so that every call records a span named ``name``."""
        name_id = self.names.index(name)
        state, next_id, clock = self.state, self._next_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            sid = next(next_id)
            parent = st.stack[-1]
            st.stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.stack.pop()
                st.ids.append(sid)
                st.names.append(name_id)
                st.starts.append(t0)
                st.ends.append(t1)
                st.parents.append(parent)
                st.runs.append(self.run_id)
            if on_return is not None:
                on_return(st.counts, args, out)
            return out

        return wrapper

    def spans(self):
        """All finished spans as a dict of equal-length numpy arrays."""
        with self._lock:
            states = list(self._states)
        fields = ("ids", "names", "starts", "ends", "parents", "runs")
        return {f: np.concatenate([np.frombuffer(getattr(st, f),
                                                 dtype=getattr(st, f).typecode)
                                   for st in states])
                if states else np.zeros(0)
                for f in fields}


# ---------------------------------------------------------------------------
# counters read from what the traced functions return


def _count_refinements(counts, args, out):
    counts["shadow.refinements"] += out.iterations


def _count_transfer(counts, args, out):
    counts["graphtf.fp_iterations"] += out.graph.iterations
    seq, pert = args[0], args[2]
    if any(op.kind == "dense" for op in (*seq.ops, *pert.ops)):
        counts["graphtf.dense_calls"] += 1


def _count_samples(counts, args, out):
    counts["clstruct.samples"] += out.samples


# verify_dichotomy, periodic_point_near and perturbed_cl_for_diffeo return
# what an inner traced call already counted, so they carry no counter
_ON_RETURN = {
    "shadow.shadow": _count_refinements,
    "shadow.shadow_periodic": _count_refinements,
    "graphtf.graph_transform_seq": _count_transfer,
    "graphtf.graph_transform_periodic": _count_transfer,
    "clstruct.verify_cl_diffeo": _count_samples,
    "clstruct.verify_cl_opseq": _count_samples,
    "clstruct.verify_cocycle_cl": _count_samples,
}


@contextmanager
def instrument(rec):
    """Trace shadowkit into ``rec`` for the duration of the block."""
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        _patch_library(rec, patch)
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _patch_library(rec, patch):
    from shadowkit import cli, seqcore

    modules = [m for n, m in sys.modules.items()
               if n == "shadowkit" or n.startswith("shadowkit.")]
    for mod, fns in TRACED.items():
        module = sys.modules[f"shadowkit.{mod}"]
        for fn in fns:
            name = f"{mod}.{fn}"
            original = getattr(module, fn)
            wrapped = rec.traced(name, original, _ON_RETURN.get(name))
            if name == "systems.make_system":
                wrapped = _tracing_system_maps(rec, wrapped)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        patch(m, attr, wrapped)

    seqvec_init = seqcore.SeqVec.__init__

    def counting_init(self, *args, **kwargs):
        rec.state().counts["seqcore.seqvec_allocs"] += 1
        seqvec_init(self, *args, **kwargs)

    patch(seqcore.SeqVec, "__init__", counting_init)

    # pool workers start with an empty span stack; hand them the span of
    # the thread that submitted the cells, so their spans nest under it
    map_cells = cli._map_cells

    def traced_map_cells(fn, cells):
        parent = rec.current_span()

        def cell(c):
            stack = rec.state().stack
            stack.append(parent)
            try:
                return fn(c)
            finally:
                stack.pop()

        return map_cells(cell, cells)

    patch(cli, "_map_cells", traced_map_cells)


def _tracing_system_maps(rec, make_system):
    from shadowkit.systems import DiffeoSystem

    @functools.wraps(make_system)
    def wrapper(*args, **kwargs):
        built = make_system(*args, **kwargs)
        if isinstance(built, DiffeoSystem):
            for m in SYSTEM_MAPS:
                object.__setattr__(built, m, rec.traced(f"systems.{m}",
                                                        getattr(built, m)))
        return built

    return wrapper


# ---------------------------------------------------------------------------
# deriving per-function figures from the spans


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover.

    Children of one parent run one after another, except cells of the sweep
    pool, which overlap; for parents with overlapping children the union of
    the children's intervals is subtracted.
    """
    ids, parents = spans["ids"], spans["parents"]
    starts, ends = spans["starts"], spans["ends"]
    dur = ends - starts
    order = np.argsort(ids)
    sorted_ids = ids[order]
    has_parent = parents != 0
    prow = order[np.searchsorted(sorted_ids, parents[has_parent])]
    cover = np.zeros(len(ids))
    np.add.at(cover, prow, dur[has_parent])

    kids = np.flatnonzero(has_parent)
    by = np.lexsort((starts[kids], prow))
    kids, kp = kids[by], prow[by]
    clash = (kp[1:] == kp[:-1]) & (starts[kids[1:]] < ends[kids[:-1]])
    for row in np.unique(kp[1:][clash]):
        members = kids[kp == row]
        cover[row] = _covered(zip(starts[members], ends[members]))
    return dur - cover


def outermost(spans, rows):
    """Mask of ``rows`` whose ancestors carry a different name."""
    ids, parents, names = spans["ids"], spans["parents"], spans["names"]
    order = np.argsort(ids)
    sorted_ids = ids[order]
    keep = np.ones(len(rows), dtype=bool)
    cur = parents[rows].copy()
    live = cur != 0
    while live.any():
        anc = order[np.searchsorted(sorted_ids, cur[live])]
        keep[np.flatnonzero(live)[names[anc] == names[rows][live]]] = False
        cur[live] = parents[anc]
        live = cur != 0
    return keep


def per_function(spans, names, entry, runs_of_pass):
    """Per pass: calls, self time and (entry points) total time per span name.

    ``runs_of_pass`` lists, for each pass, the run ids of its invocations.
    Returns one ``{metric: value}`` dict per pass.
    """
    own = self_times(spans)
    dur = spans["ends"] - spans["starts"]
    entry_ids = [names.index(n) for n in entry]
    top = np.zeros(len(dur), dtype=bool)
    is_entry = np.isin(spans["names"], entry_ids)
    rows = np.flatnonzero(is_entry)
    top[rows] = outermost(spans, rows)
    out = []
    for runs in runs_of_pass:
        sel = np.isin(spans["runs"], runs)
        nm = spans["names"][sel]
        calls = np.bincount(nm, minlength=len(names))
        selfs = np.bincount(nm, weights=own[sel], minlength=len(names))
        totals = np.bincount(nm, weights=np.where(top[sel], dur[sel], 0.0),
                             minlength=len(names))
        figures = {}
        for i, n in enumerate(names):
            figures[f"{n}.calls"] = int(calls[i])
            figures[f"{n}.self_s"] = float(selfs[i])
            if n in entry:
                figures[f"{n}.total_s"] = float(totals[i])
        out.append(figures)
    return out


def write_spans(path, spans, names):
    """Save the spans as a numpy archive, with the span-name table."""
    np.savez(path, span_names=np.array(names), **spans)
