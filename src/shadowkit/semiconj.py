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
sequence solvers.  A sweep works on the whole orbit segment at once: the
segment's iterates are one (m, n) block of coefficient rows, the forcing
of every step comes from one call of the system's row map
(``DiffeoSystem.map_rows``) and one ``seqcore.apply_rows``, and the tail,
ball and stop tests read ``seqcore.row_norms``; every row carries the
same bits as a point-by-point sweep.  The iteration runs under
``seqcore``'s fixed-point monitor, which gates the observed contraction
ratio; the per-sweep gate on the size of the iterate stays here.  Every
orbit segment comes from ``DiffeoSystem.orbit``, the query orbit's
distance check from ``DiffeoSystem.step_gaps``, and a query point finds
its anchor on the certified segment through ``seqcore.anchor_index``.

h1 rides the f-orbit of the query with cocycle Df and forcing
g(x+h) - f(x) - Df(x)h; h2 rides the certified g-orbit with the same
cocycle Df and forcing f(x+h) - g(x) - Df(x)h, taking its splitting from
the derivative-sequence transfer of f's certificate onto Df read along
the g-orbit (rate lam1, constant C1).  Values are computed on an orbit
segment two truncation radii wide on each side of the query, which keeps
boundary effects below the series tail tolerance at the reported index.

The composition (Id + h1)(Id + h2) is probed and reported, never asserted
to be the identity.  Splitting data along the g-orbit is certified only at
the sampled segment points (recorded in the job metadata), and continuity
of h1/h2 is probed by finite differences on request.
"""
from dataclasses import dataclass, field

import numpy as np

from .boundedsol import perron_constant, perron_sums
from .clstruct import CLCertificate
from .graphtf import _diff_norm, graph_transform_seq, upgraded_constant
from .seqcore import (FP_STOP_TOL, ConvergenceError, OperatorSeq,
                      PreconditionError, SeqVec, anchor_index, apply_rows,
                      monitored_fixed_point, norm, row_norms)
from .shadow import Pseudotrajectory, recompute_step_error, shadow
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

__all__ = ["ConjugacyJob", "continuity_probe", "h1_at", "h2_at",
           "make_conjugacy_job", "orbit_perron_apply", "required_truncation",
           "semiconjugacy_report", "translate_system"]


def _tail(C, lam, T, w_sup):
    return C * lam ** T * w_sup / (1.0 - lam)


def required_truncation(C, lam, w_sup=1.0, tol=TAIL_TOL):
    """Smallest horizon T whose geometric series tail drops below tol."""
    if not 0.0 < lam < 1.0:
        raise PreconditionError(f"decay rate {lam} is not inside (0, 1)")
    if C <= 0.0 or w_sup < 0.0 or tol <= 0.0:
        raise PreconditionError("need C > 0, w_sup >= 0 and tol > 0")
    T = 1
    while _tail(C, lam, T, w_sup) >= tol:
        T += 1
    return T


def translate_system(sys, offset):
    """Rigid displacement x -> sys(x) + offset, the simplest C1-small change.

    The derivative cocycle is untouched, so the base certificate remains
    valid for the translated map.  Its row map is the base row map plus
    the offset.
    """
    if offset.window != sys.window:
        raise PreconditionError("offset lives on a different window")
    base_forward, base_inverse = sys.forward, sys.inverse
    base_dinverse, base_rows = sys.dinverse, sys.map_rows
    off = np.asarray(offset.coeffs, dtype=float)

    def forward(x):
        y = base_forward(x)
        return y.with_coeffs(y.coeffs + off)

    def forward_rows(xs):
        return base_rows(xs) + off

    def inverse(y):
        return base_inverse(y.with_coeffs(y.coeffs - off))

    def dinverse(y):
        return base_dinverse(y.with_coeffs(y.coeffs - off))

    return DiffeoSystem(sys.name + "+shift", sys.window, sys.p, forward,
                        inverse, sys.dforward, dinverse, sys.R, sys.modulus,
                        sys.support_shift, sys.cert,
                        {**sys.meta, "translation_norm": float(norm(offset))},
                        forward_rows)


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
    row = perron_sums({j: A(pts[j]) for j in range(T)},
                      {j: A(pts[j]).inverse() for j in range(T, 2 * T)},
                      [cert.proj_at(y) for y in pts],
                      [wi.coeffs for wi in ws], range(T, T + 1))
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

    orbit holds the g-orbit segment around the base point; queries to
    h2_at must anchor to indices in [query_lo, query_hi] (one step past
    the top is allowed so equation residuals can be formed).  cert is the
    point-keyed splitting certificate of f; cert_g is the index-keyed
    certificate for the derivative cocycle of f read along the g-orbit.
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
    orbit: dict
    query_lo: int
    query_hi: int
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
    the segment.
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
    orbit = dict(zip(range(lo, hi + 1), g.orbit(x0, -lo, hi)))
    d_map = recompute_step_error(f, orbit)
    d_der = max(_diff_norm(g.dforward(y), f.dforward(y), f.p)
                for y in orbit.values())
    d_measured = max(d_map, d_der)
    if d_measured > d * (1.0 + CONTRACTION_SLACK):
        raise PreconditionError(
            f"measured C1 distance {d_measured:.3g} along the segment "
            f"exceeds the declared d = {d:.3g}")
    sres = shadow(f, Pseudotrajectory(orbit, d_map), cert)
    xs = {i: sres.point_at(i) for i in range(lo, hi + 1)}
    aseq = OperatorSeq(lo, [f.dforward(xs[i]) for i in range(lo, hi)])
    bseq = OperatorSeq(lo, [f.dforward(orbit[i]) for i in range(lo, hi)])
    base = CLCertificate(cert.C, cert.lam, cert.R,
                         lambda k: cert.proj_at(xs[k]))
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
                        span_lo, span_hi, meta)


def _anchor_index(job, x):
    # queries may anchor to the certified span plus one step past the top,
    # so equation residuals can be formed at the last certified index
    qs = range(job.query_lo, job.query_hi + 2)
    return qs[anchor_index(np.array([job.orbit[q].coeffs for q in qs]), x)]


def _h1_frame(job, x):
    T = job.truncation
    B = 2 * T
    f, g = job.f, job.g
    # the orbit points x_{-B-1} .. x_B
    pts = f.orbit(x, B + 1, B)
    rows = np.array([y.coeffs for y in pts])
    # the declared distance must hold along this fresh orbit as well; the
    # derivative-side proximity is monitored by the observed contraction
    d_here = g.step_gaps(rows).max()
    if d_here > job.d * (1.0 + CONTRACTION_SLACK):
        raise PreconditionError(
            f"measured distance {d_here:.3g} along the query orbit exceeds "
            f"the declared d = {job.d:.3g}")
    return {
        "lo": -B, "hi": B, "query": 0, "rows": rows,
        "ops": [f.dforward(y) for y in pts[:-1]],
        "pairs": [job.cert.proj_at(y) for y in pts[1:]],
        "other": g.map_rows, "tail_C": job.cert.C, "tail_lam": job.cert.lam,
        "ratio_bound": H1_RATIO, "kind": 1,
    }


def _h2_frame(job, q):
    T = job.truncation
    B = 2 * T
    f = job.f
    lo, hi = q - B, q + B
    pts = [job.orbit[j] for j in range(lo - 1, hi + 1)]
    return {
        "lo": lo, "hi": hi, "query": q,
        "rows": np.array([y.coeffs for y in pts]),
        "ops": [f.dforward(y) for y in pts[:-1]],
        "pairs": [job.cert_g.proj_at(j) for j in range(lo, hi + 1)],
        "other": f.map_rows, "tail_C": job.C1, "tail_lam": job.lam1,
        "ratio_bound": H2_RATIO, "kind": 2,
    }


def _fixed_point(job, frame):
    """Solve one frame's displacement by monitored Perron sweeps.

    The frame holds the orbit rows x_{lo-1} .. x_hi, the differentials
    A_j = Df(x_j) for j = lo-1 .. hi-1, the projection pairs at lo .. hi
    and ``other``, the row map of the system the displacement carries the
    orbit into.  One sweep takes the segment's (m, n) block of iterates
    h_lo .. h_hi, forms every forcing row
    c_j = other(x_j + h_j) - x_{j+1} - A_j h_j (h_{lo-1} = 0) in a few
    whole-array operations, and sums them with :func:`perron_sums`.  The
    tail, ball and stop tests read the row norms of the block.  Each row
    carries the same bits as a point-by-point sweep.
    """
    lo, hi = frame["lo"], frame["hi"]
    rows, ops, other = frame["rows"], frame["ops"], frame["other"]
    T = job.truncation
    window, p = job.f.window, job.f.p
    ball = 2.0 * job.L * job.d
    # segment time points 0 .. hi-lo are the orbit indices lo .. hi
    seg_ops = ops[1:]
    seg_inv = [A.inverse() for A in seg_ops]
    base, images = rows[:-1], rows[1:]

    def sweep(hs):
        # forcing rows for the steps lo-1 .. hi-1: h shifted down by one
        prev = np.zeros(hs.shape)
        prev[1:] = hs[:-1]
        cs = other(base + prev) - images - apply_rows(ops, prev)
        w_sup = row_norms(cs, p).max()
        tail = _tail(frame["tail_C"], frame["tail_lam"], T, w_sup)
        if not tail < TAIL_TOL:
            raise PreconditionError(
                f"series tail {tail:.3g} during the sweep is not below "
                f"{TAIL_TOL:.0e}; increase the truncation")
        new = perron_sums(seg_ops, seg_inv, frame["pairs"], cs,
                          range(hi - lo + 1))
        sup_h = row_norms(new, p).max()
        if ball > 0.0 and sup_h > ball * (1.0 + BALL_SLACK):
            raise ConvergenceError(
                f"iterate left the radius-{ball:.3g} ball (size {sup_h:.3g})")
        return new

    hs, sweeps, fp_residual, ratio_seen = monitored_fixed_point(
        sweep, np.zeros((hi - lo + 1, window.length)),
        lambda new, old: float(row_norms(new - old, p).max()),
        f"h{frame['kind']} sweep", ratio_bound=frame["ratio_bound"],
        ratio_floor=100.0 * FP_STOP_TOL, max_iter=MAX_SWEEPS)
    job.meta["last_evaluation"] = {
        "kind": frame["kind"], "anchor": frame["query"],
        "iterations": sweeps, "fp_residual": fp_residual,
        "contraction_observed": ratio_seen,
    }
    return SeqVec(window, hs[frame["query"] - lo], p)


def h1_at(job, x):
    """Displacement with g(x + h1(x)) = f(x) + h1(f(x)), any in-window x.

    Solved on a fresh f-orbit segment through x, so queries are not tied
    to the certified g-orbit.
    """
    return _fixed_point(job, _h1_frame(job, x))


def h2_at(job, x):
    """Displacement with f(x + h2(x)) = g(x) + h2(g(x)) on the g-orbit.

    x must match a certified anchor of the job's orbit segment; the
    splitting along the segment comes from the job's transferred
    certificate.
    """
    return _fixed_point(job, _h2_frame(job, _anchor_index(job, x)))


def semiconjugacy_report(job, indices=None):
    """Independent per-point evaluations over the certified span.

    Each row records the displacement sizes, both equation residuals, and
    the round-trip probe |h2(x) + h1(x + h2(x))|, which is reported
    without any assertion.  Each residual takes its values at x and at the
    image point from distinct solves, so the defining equations are
    genuinely rechecked, not replayed.  h2 is solved once per anchor of
    the g-orbit: row q's h2(g(x)) is the frame of row q+1's h2(x), so the
    two rows share that solve.
    """
    if indices is None:
        indices = range(job.query_lo, job.query_hi + 1)
    h2_by_anchor = {}

    def h2(y):
        q = _anchor_index(job, y)
        if q not in h2_by_anchor:
            h2_by_anchor[q] = h2_at(job, y)
        return h2_by_anchor[q]

    rows = []
    for q in indices:
        q = int(q)
        if not job.query_lo <= q <= job.query_hi:
            raise PreconditionError(
                f"index {q} is outside the certified span "
                f"[{job.query_lo}, {job.query_hi}]")
        x = job.orbit[q]
        h1x = h1_at(job, x)
        h2x = h2(x)
        fx = job.f.forward(x)
        h1fx = h1_at(job, fx)
        h2gx = h2(job.orbit[q + 1])
        xp = x.with_coeffs(x.coeffs + h1x.coeffs)
        r1 = norm(SeqVec(job.f.window,
                         job.g.forward(xp).coeffs - fx.coeffs - h1fx.coeffs,
                         job.f.p))
        xq = x.with_coeffs(x.coeffs + h2x.coeffs)
        r2 = norm(SeqVec(job.f.window,
                         job.f.forward(xq).coeffs - job.orbit[q + 1].coeffs
                         - h2gx.coeffs, job.f.p))
        probe = norm(SeqVec(job.f.window,
                            h2x.coeffs + h1_at(job, xq).coeffs, job.f.p))
        rows.append({
            "point": q,
            "h1_norm": norm(h1x),
            "h2_norm": norm(h2x),
            "residual1": r1,
            "residual2": r2,
            "composition_probe": probe,
        })
    return rows


def continuity_probe(job):
    """Finite-difference quotients of h1 and h2 at the first certified anchor.

    The anchor's coordinate 0 moves by PROBE_STEP.  h1 is probed directly.
    h2 is only defined on certified orbits, so the displaced value comes
    from a fresh job built at the displaced point (same constants); the
    quotient is reported, never asserted, since the splitting data is
    certified only at sampled points.
    """
    x = job.orbit[job.query_lo]
    step = np.zeros(job.f.window.length)
    step[job.f.window.offset(0)] = PROBE_STEP
    xd = x.with_coeffs(x.coeffs + step)
    h1a = h1_at(job, x)
    h1b = h1_at(job, xd)
    q1 = norm(h1b.with_coeffs(h1b.coeffs - h1a.coeffs)) / PROBE_STEP
    displaced = make_conjugacy_job(job.f, job.g, xd, d=job.d, span=(0, 0),
                                   lam1=job.lam1, truncation=job.truncation)
    h2a = h2_at(job, x)
    h2b = h2_at(displaced, displaced.orbit[0])
    q2 = norm(h2b.with_coeffs(h2b.coeffs - h2a.coeffs)) / PROBE_STEP
    return {"delta": PROBE_STEP, "h1_quotient": q1, "h2_quotient": q2}
