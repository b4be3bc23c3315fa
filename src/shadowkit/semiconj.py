"""Pointwise semi-conjugacy between a certified system and a C1-close map.

Given a reference diffeomorphism f carrying a splitting certificate and a
map g whose C1 distance to f is below the smallness threshold 1/(3L), two
displacement fields tie the dynamics together:

    g(x + h1(x)) = f(x) + h1(f(x))      (h1 carries f-orbits to g-orbits)
    f(x + h2(x)) = g(x) + h2(g(x))      (h2 carries g-orbits back)

Each is the fixed point of a contraction built from the orbit Perron
operation: the bounded solution of  v(a(x)) - A(x) v(x) = w(a(x))  along
the orbit of a base map a with derivative cocycle A, summed by
``boundedsol.perron_sums`` with the same projected recursions as the
sequence solvers.  The displacement at one query is solved on a frame:
the orbit segment around it, its differentials and its projection pairs.
Frames are solved in lockstep stacks: the iterates of a stack are one
(frames, m, n) block, every sweep forms the forcing of each frame from
the system's row map (``DiffeoSystem.forward_rows``) and sums all frames at
once with one array operation per step, and each frame keeps its own
``seqcore.FixedPointMonitor``, which gates the observed contraction ratio
and stops the frame, which then leaves the stack; every frame carries the
bits and the sweep count of a solo solve.  The per-sweep gate on the size
of the iterate stays here.  Every orbit segment is a row block walked by
``DiffeoSystem.orbit_rows``, one row-map call per step (the job's
g-orbit is one row, a group of h1 frames one row per query), and a query
point finds its anchor on the certified segment through
``seqcore.anchor_index``.  The solver returns each frame's statistics
with its value; no state is kept on the job.

h1 rides the f-orbit of the query with cocycle Df and forcing
g(x+h) - f(x) - Df(x)h; h2 rides the certified g-orbit with the same
cocycle Df and forcing f(x+h) - g(x) - Df(x)h, taking its splitting from
the derivative-sequence transfer of f's certificate onto Df read along
the g-orbit (rate lam1, constant C1).  The job evaluates Df once per
point of that orbit, and the distance check, the shadowing, the transfer
and the h2 frames all read that one sequence.  The h1 frames are built in
groups of queries, each in three block operations: one lockstep walk of
their f-orbits, one distance check against g over each frame's own
consecutive rows (``DiffeoSystem.step_gaps``) and one read of f's
certificate (``CLCertificate.pairs_on``, which answers a constant
certificate with its one pair); they evaluate Df along their orbits in
one ``DiffeoSystem.dforward_rows`` call per stack.  Every frame keeps the
bits of a walk of its own.  Values are computed on an orbit segment two
truncation radii wide on each side of the query, which keeps boundary
effects below the series tail tolerance at the reported index.  A stack
holds at most STACK_BUDGET bytes of frames; more queries are solved in
consecutive stacks, and only one group of h1 frames is walked at a time,
so memory stays flat in the span.

The composition (Id + h1)(Id + h2) is probed and reported, never asserted
to be the identity.  Splitting data along the g-orbit is certified only at
the sampled segment points (recorded in the job metadata), and continuity
of h1/h2 is probed by finite differences on request, reusing the report's
solves at the probed anchor.
"""
from dataclasses import dataclass, field

import numpy as np

from .boundedsol import perron_constant, perron_sums
from .clstruct import CLCertificate
from .graphtf import graph_transform_seq, shadowed_splitting, upgraded_constant
from .seqcore import (FP_STOP_TOL, ConvergenceError, FixedPointMonitor, LinOp,
                      OperatorSeq, PreconditionError, Segment, SeqVec,
                      _diff_norms, anchor_index, apply_coeffs, coeff_norm,
                      norm, row_norms)
from .shadow import Pseudotrajectory, recompute_step_error
from .systems import DiffeoSystem

TAIL_TOL = 1e-12
CONTRACTION_SLACK = 1e-9
BALL_SLACK = 1e-9
MAX_SWEEPS = 120
TRUNCATION_MARGIN = 2
H1_RATIO = 2.0 / 3.0
H2_RATIO = 1.0 / 3.0
#: coordinate step of the continuity probe's finite differences
PROBE_STEP = 1e-6
#: (frames, rows, n) blocks a lockstep solve holds at its peak: the orbit
#: rows, the differentials and their inverses, the iterate, the forcing and
#: the new iterate
STACK_BLOCKS = 6
#: bytes the frames of one lockstep stack may hold; more frames are solved
#: in consecutive stacks, so memory stays flat in the number of queries
STACK_BUDGET = 16 * 1024 ** 2

__all__ = ["ConjugacyJob", "continuity_probe", "h1_at", "h2_at",
           "make_conjugacy_job", "orbit_perron_apply", "required_truncation",
           "semiconjugacy_report", "translate_system"]


def _tail(C, lam, T, w_sup):
    return C * lam ** T * w_sup / (1.0 - lam)


def required_truncation(C, lam, w_sup=1.0):
    """Smallest horizon T whose geometric series tail drops below TAIL_TOL."""
    if not 0.0 < lam < 1.0:
        raise PreconditionError(f"decay rate {lam} is not inside (0, 1)")
    if C <= 0.0 or w_sup < 0.0:
        raise PreconditionError("need C > 0 and w_sup >= 0")
    T = 1
    while _tail(C, lam, T, w_sup) >= TAIL_TOL:
        T += 1
    return T


def translate_system(sys, offset):
    """Rigid displacement x -> sys(x) + offset, the simplest C1-small change.

    The derivative cocycle is untouched, so the base certificate remains
    valid for the translated map and the base differentials serve it.  Its
    row map is the base row map plus the offset, and its inverse maps
    those of the base on the rows minus the offset.
    """
    if offset.window != sys.window:
        raise PreconditionError("offset lives on a different window")
    off = np.asarray(offset.coeffs, dtype=float)
    return DiffeoSystem(sys.name + "+shift", sys.window, sys.p,
                        lambda xs: sys.forward_rows(xs) + off,
                        lambda ys: sys.inverse_rows(ys - off),
                        sys.dforward_rows,
                        lambda ys: sys.inverse_diff_rows(ys - off),
                        sys.R, sys.modulus, sys.support_shift, sys.cert,
                        {**sys.meta, "translation_norm": float(norm(offset))})


def orbit_perron_apply(alpha, A, cert, w, x, T):
    """Bounded solution of  v(a(x)) - A(x) v(x) = w(a(x))  evaluated at x.

    Sums the splitting-weighted series over the 2T-step orbit segment of
    alpha through x with :func:`perron_sums`: contracting-side terms are
    pushed forward from step -T and expanding-side terms pulled back from
    step T, and only the sums at x are formed.  Requires the geometric
    tail C lam^T sup|w| / (1 - lam) to sit below TAIL_TOL; the result is
    checked against the L sup|w| bound.
    """
    # the segment's time points 0 .. 2T are the orbit steps -T .. T
    pts = alpha.orbit(x, T, T)
    ws = [w(y) for y in pts]
    w_sup = max(norm(wi) for wi in ws)
    tail = _tail(cert.C, cert.lam, T, w_sup)
    if not tail < TAIL_TOL:
        raise PreconditionError(
            f"series tail {tail:.3g} at T = {T} is not below {TAIL_TOL:.0e}")
    steps = OperatorSeq(0, [A(y) for y in pts[:-1]])
    P, Q = (OperatorSeq.of(0, X, len(pts)) for X in cert.pairs_on(
        np.array([y.coeffs for y in pts]), x.window, x.p))
    row = perron_sums(steps, steps.inverse, P, Q, [wi.coeffs for wi in ws],
                      range(T, T + 1))
    value = ws[T].with_coeffs(row[0])
    bound = perron_constant(cert.C, cert.lam) * w_sup
    if bound > 0.0 and norm(value) > bound * (1.0 + BALL_SLACK):
        raise PreconditionError(
            f"value norm {norm(value):.3g} exceeds the certified bound "
            f"{bound:.3g}; the certificate does not control this cocycle")
    return value


@dataclass
class ConjugacyJob:
    """Certified working set for the displacement maps between f and g.

    orbit holds the g-orbit segment around the base point, once, as one
    :class:`seqcore.Segment` keyed by orbit index; queries to h2_at must
    anchor to indices in [query_lo, query_hi] (one step past the top is
    allowed so equation residuals can be formed).  cert is the point-keyed
    splitting certificate of f; cert_g is the index-keyed certificate for
    the derivative cocycle dseq of f read along the g-orbit.
    """
    f: DiffeoSystem
    g: DiffeoSystem
    cert: CLCertificate
    cert_g: CLCertificate
    d: float
    L: float
    truncation: int
    lam1: float
    C1: float
    orbit: Segment
    query_lo: int
    query_hi: int
    dseq: OperatorSeq
    meta: dict = field(default_factory=dict)


def make_conjugacy_job(f, g, x0, *, d, span=(0, 0), lam1=None,
                       truncation=None):
    """Certify a g-orbit segment around x0 and package the solver constants.

    d declares the C1 distance between f and g on the working region and
    is rechecked against the measured distance along the segment.  span
    fixes the g-orbit indices that h2_at queries may anchor to; the
    segment extends two truncation radii past the span on both sides so
    every anchor keeps a full buffer.  The splitting for the (g-orbit, Df)
    cocycle is produced by shadowing the segment with a true f-orbit and
    transferring f's certificate onto the derivative sequence read along
    the segment.  Df is evaluated once, as one row block over the
    segment: the distance check (against Dg, read the same way), the
    shadow's first refinement, the transfer and the h2 frames all read
    that one sequence.  The segment is one row walked by
    ``g.orbit_rows``.
    """
    if f.window != g.window or f.p != g.p:
        raise PreconditionError("f and g must share window and norm")
    cert = f.cert
    if cert is None:
        raise PreconditionError("f carries no splitting certificate")
    d = float(d)
    if d < 0.0:
        raise PreconditionError("d must be nonnegative")
    lam1 = 0.5 * (1.0 + cert.lam) if lam1 is None else float(lam1)
    C1 = upgraded_constant(cert.C, cert.lam, cert.R, lam1)
    L = perron_constant(C1, lam1)
    d0 = 1.0 / (3.0 * L)
    if not d < d0:
        raise PreconditionError(
            f"declared distance {d:.3g} is not below the smallness "
            f"threshold 1/(3L) = {d0:.3g}")
    ball = 2.0 * L * d
    wiggle = f.modulus(ball)
    if wiggle > d0 * (1.0 + CONTRACTION_SLACK):
        raise PreconditionError(
            f"nonlinear remainder of {f.name} varies by {wiggle:.3g} on the "
            f"radius-{ball:.3g} ball, above the contraction allowance "
            f"{d0:.3g}; shrink d")
    w_est = max(5.0 * d / 3.0, 1e-13)
    T_min = required_truncation(C1, lam1, w_est)
    T = T_min + TRUNCATION_MARGIN if truncation is None else int(truncation)
    if _tail(C1, lam1, T, w_est) >= TAIL_TOL:
        raise PreconditionError(
            f"truncation {T} leaves a series tail above {TAIL_TOL:.0e} for "
            f"forcing size {w_est:.3g}; need at least {T_min}")
    span_lo, span_hi = int(span[0]), int(span[1])
    if span_lo > span_hi:
        raise PreconditionError("span must be nondecreasing")
    buffer = 2 * T
    lo = span_lo - buffer - 1
    hi = span_hi + 1 + buffer
    orbit = Segment(lo, g.orbit_rows(x0.coeffs[None], -lo, hi)[0],
                    g.window, x0.p, None)
    d_map = recompute_step_error(f, orbit)
    df = f.dforward_rows(orbit.rows)
    d_der = float(np.max(_diff_norms(g.dforward_rows(orbit.rows), df, f.p)))
    d_measured = max(d_map, d_der)
    if d_measured > d * (1.0 + CONTRACTION_SLACK):
        raise PreconditionError(
            f"measured C1 distance {d_measured:.3g} along the segment "
            f"exceeds the declared d = {d:.3g}")
    bseq = OperatorSeq(lo, df[:-1])
    aseq, base, sres = shadowed_splitting(
        f, Pseudotrajectory(orbit, d_map, ops=bseq))
    pc = graph_transform_seq(aseq, base, bseq, lam1, p=f.p)
    meta = {
        "d_measured": d_measured,
        "d0": d0,
        "shadow_distance": sres.sup_distance,
        "transfer_eps": pc.meta["eps_measured"],
        "graph_sup": pc.graph.attained,
        "inclusion_max": max(pc.inclusion_residuals.values(), default=0.0),
        "continuity": "sampled points only",
    }
    return ConjugacyJob(f, g, cert, pc.result, d, L, T, lam1, C1, orbit,
                        span_lo, span_hi, bseq, meta)


def _anchor_index(job, x):
    # queries may anchor to the certified span plus one step past the top,
    # so equation residuals can be formed at the last certified index
    lo = job.orbit.lo
    return job.query_lo + anchor_index(
        job.orbit.rows[job.query_lo - lo:job.query_hi + 2 - lo], x)


def _h1_groups(job, xs):
    """The h1 frames of the points xs, one group of queries at a time:
    ``(rows, P, Q)``, the (frames, 2B+2, n) orbit rows and the projection
    stacks of the rows x_{-B} .. x_B (one operator stands for every row of
    a constant certificate).

    A group holds as many queries as STACK_BUDGET holds by their rows
    alone (:func:`_chunks` then cuts it by the whole frame cost), and it
    is built in three block operations: one lockstep walk of the f-orbits
    x_{-B-1} .. x_B, one distance check against g over each frame's own
    consecutive rows, and one certificate read of the rows x_{-B} .. x_B.
    Only one group is walked at a time.
    """
    B = 2 * job.truncation
    f = job.f
    rows_only = _frame_bytes(np.empty((2 * B + 2, f.window.length)))
    group = max(1, STACK_BUDGET // rows_only)
    for at in range(0, len(xs), group):
        starts = np.array([x.coeffs for x in xs[at:at + group]])
        rows = f.orbit_rows(starts, B + 1, B)
        # the declared distance must hold along these fresh orbits as well;
        # the derivative-side proximity is monitored by the observed
        # contraction
        d_here = job.g.step_gaps(rows).max(axis=1)
        far = d_here > job.d * (1.0 + CONTRACTION_SLACK)
        if far.any():
            raise PreconditionError(
                f"measured distance {d_here[far][0]:.3g} along the query "
                f"orbit exceeds the declared d = {job.d:.3g}")
        yield (rows, *job.cert.pairs_on(rows[:, 1:], f.window, f.p))


def _h2_group(job, qs):
    """The h2 frames of the anchors qs, ``(rows, ops, P, Q)``: the job's
    orbit rows x_{q-B-1} .. x_{q+B}, its differentials at x_{q-B-1} ..
    x_{q+B-1} and the transferred pairs at q-B .. q+B, taken from the
    job's stacks, which all share the orbit's times, by one index array
    of rows."""
    B = 2 * job.truncation
    at = np.array(qs)[:, None] - B - 1 - job.orbit.lo + np.arange(2 * B + 2)
    P, Q = job.cert_g.read(job.orbit.lo, len(job.orbit))
    return (job.orbit.rows[at], job.dseq.stack[at[:, :-1]],
            P.stack[at[:, 1:]], Q.stack[at[:, 1:]])


def _by_step(A, count):
    """A (frames, count) operator stack as the time-indexed sequence of
    its count steps, each a stack over the frames: a view with the time
    axis first (one operator stands for every step)."""
    if A.lead:
        A = LinOp(A.shift, np.moveaxis(A.data, 1, 0), A.window)
    return OperatorSeq.of(0, A, count)


class _Stack:
    """The frames of one lockstep solve, stacked along a leading axis.

    A frame is the orbit rows x_{lo-1} .. x_hi of one query, the
    differentials A_j = Df(x_j) for j = lo-1 .. hi-1 and the projection
    pairs at lo .. hi, with the query at the middle time point.  rows is
    (frames, m+1, n); ops and the projections are operator stacks over
    (frames, m), and inv the inverses of ops[:, 1:], the segment's own
    steps.  The time-indexed sequences that :func:`perron_sums` reads --
    the segment's steps, their inverses and the pairs -- are views of
    these stacks with the time axis first, and their per-step views are
    built once per stack.
    """

    def __init__(self, rows, ops, P, Q, inv=None):
        self.rows, self.ops, self.P, self.Q = rows, ops, P, Q
        self.inv = ops[:, 1:].inverse() if inv is None else inv
        m = rows.shape[1] - 1
        self.seqs = (_by_step(ops[:, 1:], m - 1), _by_step(self.inv, m - 1),
                     _by_step(P, m), _by_step(Q, m))

    def take(self, keep):
        """The stack of the frames ``keep``."""
        return _Stack(self.rows[keep], self.ops[keep], self.P[keep],
                      self.Q[keep], self.inv[keep])


def _frame_bytes(rows, *projections):
    """Bytes one frame adds to a stack: STACK_BLOCKS blocks of its rows,
    and its projection stacks twice (the differentials and their inverses
    are taken to weigh as much)."""
    return STACK_BLOCKS * rows.nbytes + 2 * sum(A.data.nbytes
                                                for A in projections)


def _chunks(job, kind, where):
    """The frames of ``where``, in stacks ``(rows, ops, P, Q)`` of
    consecutive frames of at most STACK_BUDGET bytes (and at least one
    frame) each; the differentials of h1 frames come from one
    ``dforward_rows`` call on the rows of a chunk, as it is yielded.  The
    frames of a kind weigh alike.  A chunk of h1 frames never spans two
    of their groups, so one group is walked only after the chunks of the
    last one have been solved, and h2 frames are taken from the job's
    stacks one chunk at a time."""
    def size(rows, P, Q):
        return max(1, STACK_BUDGET // _frame_bytes(rows[0], P[0], Q[0]))

    if kind == 2:
        rows, _, P, Q = _h2_group(job, where[:1])
        n = size(rows, P, Q)
        for at in range(0, len(where), n):
            yield _h2_group(job, where[at:at + n])
        return
    for rows, P, Q in _h1_groups(job, where):
        n = size(rows, P, Q)
        for at in range(0, len(rows), n):
            cut = slice(at, at + n)
            yield (rows[cut], job.f.dforward_rows(rows[cut, :-1]), P[cut],
                   Q[cut])


def _fixed_point(job, kind, where):
    """Solve displacement frames by lockstep monitored Perron sweeps.

    ``where`` lists the queries: points x for h1 (kind 1), anchor indices
    of the job's orbit for h2 (kind 2).  Their frames form one stack, or
    consecutive stacks of at most STACK_BUDGET bytes each when there are
    more; frames are independent, so the split changes no bit.  One
    sweep takes the stack's (frames, m, n) block of iterates h_lo .. h_hi,
    forms every forcing row c_j = other(x_j + h_j) - x_{j+1} - A_j h_j
    (h_{lo-1} = 0), where ``other`` is the row map of the system the
    displacement carries the orbit into, and sums all frames at once with
    :func:`perron_sums`.  The forcing is formed frame by frame, in a few
    whole-segment array operations each, so the row map's temporaries
    stay one frame large.  Each frame has its own
    :class:`seqcore.FixedPointMonitor`; the tail, ball and stop tests read
    its row norms.  A frame leaves the stack after the residual sweep that
    follows its stop, so its sweep count and its bits are those of a solo
    solve.  Returns one ``(value, stats)`` per query: the displacement at
    the query and its sweeps, fixed-point residual and observed ratio.
    """
    return [solved for chunk in _chunks(job, kind, where)
            for solved in _solve_stack(job, kind, _Stack(*chunk))]


def _solve_stack(job, kind, st):
    """The ``(value, stats)`` of every frame of one stack (see
    :func:`_fixed_point`)."""
    if kind == 1:
        other, tail_C, tail_lam = job.g.forward_rows, job.cert.C, job.cert.lam
        ratio_bound = H1_RATIO
    else:
        other, tail_C, tail_lam = job.f.forward_rows, job.C1, job.lam1
        ratio_bound = H2_RATIO
    T = job.truncation
    window, p = job.f.window, job.f.p
    n = window.length
    ball = 2.0 * job.L * job.d
    count, m = st.rows.shape[0], st.rows.shape[1] - 1

    def frame_max(block):
        return row_norms(block.reshape(-1, n), p).reshape(-1, m).max(axis=1)

    def sweep(st, hs):
        cs = np.empty(hs.shape)
        for i, h in enumerate(hs):
            # forcing rows for the steps lo-1 .. hi-1: h shifted down by one
            prev = np.zeros(h.shape)
            prev[1:] = h[:-1]
            lin = apply_coeffs(st.ops[i], prev)
            np.add(st.rows[i, :-1], prev, out=prev)
            c = other(prev)
            c -= st.rows[i, 1:]
            c -= lin
            cs[i] = c
        tail = _tail(tail_C, tail_lam, T, frame_max(cs).max())
        if not tail < TAIL_TOL:
            raise PreconditionError(
                f"series tail {tail:.3g} during the sweep is not below "
                f"{TAIL_TOL:.0e}; increase the truncation")
        new = perron_sums(*st.seqs, cs, range(m))
        del cs
        sup_h = frame_max(new).max()
        if ball > 0.0 and sup_h > ball * (1.0 + BALL_SLACK):
            raise ConvergenceError(
                f"iterate left the radius-{ball:.3g} ball (size {sup_h:.3g})")
        return new

    monitors = [FixedPointMonitor(
        f"h{kind} sweep", ratio_bound=ratio_bound,
        ratio_floor=100.0 * FP_STOP_TOL, max_iter=MAX_SWEEPS)
        for _ in range(count)]
    values = [None] * count
    live = list(range(count))
    hs = np.zeros((count, m, n))
    while live:
        new = sweep(st, hs)
        # a frame that stopped on the last sweep closes on this one's move
        # and keeps its stopped iterate; the others take the new iterate
        for i, k in enumerate(live):
            if monitors[k].stopped:
                values[k] = hs[i, 2 * T].copy()
        np.subtract(new, hs, out=hs)
        moves = frame_max(hs)
        keep = []
        for i, k in enumerate(live):
            if monitors[k].stopped:
                monitors[k].close(float(moves[i]))
            else:
                monitors[k].observe(float(moves[i]))
                keep.append(i)
        hs = new
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            if live:
                hs, st = hs[keep], st.take(keep)
    return [(SeqVec(window, value, p),
             {"sweeps": mon.iterations, "fp_residual": mon.fp_residual,
              "contraction_observed": mon.worst_ratio})
            for value, mon in zip(values, monitors)]


def h1_at(job, x):
    """Displacement with g(x + h1(x)) = f(x) + h1(f(x)), any in-window x.

    Solved on a fresh f-orbit segment through x, so queries are not tied
    to the certified g-orbit.
    """
    return _fixed_point(job, 1, [x])[0][0]


def h2_at(job, x):
    """Displacement with f(x + h2(x)) = g(x) + h2(g(x)) on the g-orbit.

    x must match a certified anchor of the job's orbit segment; the
    splitting along the segment comes from the job's transferred
    certificate.
    """
    return _fixed_point(job, 2, [_anchor_index(job, x)])[0][0]


def semiconjugacy_report(job, indices=None):
    """Independent per-point evaluations over the certified span.

    Each row records the displacement sizes, both equation residuals, and
    the round-trip probe |h2(x) + h1(x + h2(x))|, which is reported
    without any assertion; it also carries the solved vectors "h1" and
    "h2" at its point, which :func:`continuity_probe` reuses.  Each
    residual takes its values at x and at the image point from distinct
    solves, so the defining equations are genuinely rechecked, not
    replayed.  h2 is solved once per anchor of the g-orbit: row q's
    h2(g(x)) is the frame of row q+1's h2(x), so the two rows share that
    solve.  All h2 frames are solved as one lockstep stack, then all h1
    frames (at x, f(x) and x + h2(x)) as a second one.
    """
    if indices is None:
        indices = range(job.query_lo, job.query_hi + 1)
    qs = [int(q) for q in indices]
    for q in qs:
        if not job.query_lo <= q <= job.query_hi:
            raise PreconditionError(
                f"index {q} is outside the certified span "
                f"[{job.query_lo}, {job.query_hi}]")
    f, g, p = job.f, job.g, job.f.p
    xs = [job.orbit[q] for q in qs]
    gxs = [job.orbit[q + 1] for q in qs]
    at_x = [_anchor_index(job, x) for x in xs]
    at_gx = [_anchor_index(job, gx) for gx in gxs]
    anchors = sorted(set(at_x) | set(at_gx))
    h2 = dict(zip(anchors, (v for v, _ in _fixed_point(job, 2, anchors))))
    fxs = [f.forward(x) for x in xs]
    xqs = [x.with_coeffs(x.coeffs + h2[a].coeffs) for x, a in zip(xs, at_x)]
    h1 = [v for v, _ in _fixed_point(job, 1, xs + fxs + xqs)]
    count = len(qs)
    rows = []
    for i, q in enumerate(qs):
        x, fx, xp_h2 = xs[i], fxs[i], xqs[i]
        h1x, h1fx, h1xq = h1[i], h1[count + i], h1[2 * count + i]
        h2x, h2gx = h2[at_x[i]], h2[at_gx[i]]
        xp = x.with_coeffs(x.coeffs + h1x.coeffs)
        r1 = coeff_norm(g.forward(xp).coeffs - fx.coeffs - h1fx.coeffs, p)
        r2 = coeff_norm(f.forward(xp_h2).coeffs - gxs[i].coeffs
                        - h2gx.coeffs, p)
        probe = coeff_norm(h2x.coeffs + h1xq.coeffs, p)
        rows.append({
            "point": q,
            "h1_norm": norm(h1x),
            "h2_norm": norm(h2x),
            "residual1": r1,
            "residual2": r2,
            "composition_probe": probe,
            "h1": h1x,
            "h2": h2x,
        })
    return rows


def continuity_probe(job, rows):
    """Finite-difference quotients of h1 and h2 at the first certified anchor.

    The anchor's coordinate 0 moves by PROBE_STEP.  ``rows`` is a report
    from :func:`semiconjugacy_report` that holds the anchor's row, whose
    solves of h1 and h2 there are reused.  h1 is probed directly.  h2 is
    only defined on certified orbits, so the displaced value comes from a
    fresh job built at the displaced point (same constants); the quotient
    is reported, never asserted, since the splitting data is certified
    only at sampled points.
    """
    row = next((r for r in rows if r["point"] == job.query_lo), None)
    if row is None:
        raise PreconditionError(
            f"the report holds no row for the first certified anchor "
            f"{job.query_lo}")
    x = job.orbit[job.query_lo]
    step = np.zeros(job.f.window.length)
    step[job.f.window.offset(0)] = PROBE_STEP
    xd = x.with_coeffs(x.coeffs + step)
    h1a, h2a = row["h1"], row["h2"]
    h1b = h1_at(job, xd)
    q1 = coeff_norm(h1b.coeffs - h1a.coeffs, h1b.p) / PROBE_STEP
    displaced = make_conjugacy_job(job.f, job.g, xd, d=job.d, span=(0, 0),
                                   lam1=job.lam1, truncation=job.truncation)
    h2b = h2_at(displaced, displaced.orbit[0])
    q2 = coeff_norm(h2b.coeffs - h2a.coeffs, h2b.p) / PROBE_STEP
    return {"delta": PROBE_STEP, "h1_quotient": q1, "h2_quotient": q2}
