"""Pseudotrajectory generation and iterative shadowing.

A d-pseudotrajectory is turned into an exact trajectory by repeated
first-order correction: the step defects, rescaled to unit size, feed the
bounded-solution solver for the variational sequence B_k = Df(y_k), and
y + d*v is again a pseudotrajectory with (at most) half the step error.
Summing the displacement ledger geometrically gives the final distance
bound 2*M*d, with M = 2L derived from the splitting certificate.  A
pseudotrajectory, its shadow and each correction are one
:class:`seqcore.Segment` of rows: the forcing comes from one
``DiffeoSystem.forward_rows`` call, the realized step error from
``DiffeoSystem.step_gaps``, and a refinement moves the points in one
array update y + d*v, each row with the bits of a point-by-point
computation.  The certificate is read along the points once per
refinement, as one block (``CLCertificate.along``): a constant
certificate answers with its one pair, any other one point at a time.

Honesty note: the inner linear solves run on the finite window section
without edge guards (their truncation error lands in the next iterate's
step defects), but every realized step error is recomputed through the
*guarded* dynamics, so a window too small to hold the correction shows up
as a failed contraction or a TruncationError -- never as fake convergence.

The noise model for generated pseudotrajectories perturbs only the active
window coordinates: the initial support span widened by a small margin and
advanced by the system's per-step support shift.  Perturbing all window
coordinates would feed mass to strongly expanding directions far from the
data and destroy the d-pseudotrajectory property before shadowing begins.
The active span does not depend on the orbit, so the noise of all steps is
one block of rows, drawn before the orbit is walked with the draws in the
order of the steps; the realized d is the largest row norm of that block.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .seqcore import (
    OperatorSeq, Segment, norm, coeff_norm, row_norms, PreconditionError,
    ConvergenceError,
)
from .boundedsol import (
    SIGNS, InhomProblem, perron_constant, perron_solve, periodic_green_solve,
)

__all__ = [
    "Pseudotrajectory", "ShadowResult", "ShadowingConstants",
    "make_pseudotrajectory", "make_loop", "recompute_step_error",
    "shadowing_constants", "refine_once", "shadow", "shadow_periodic",
    "periodic_point_near",
]

#: target for the final exact-trajectory step error
TARGET = 1e-11
#: refinement iteration cap; 2^-64 underflows any practical target
MAX_REFINEMENTS = 64
#: margin of extra coordinates around the support that receive noise
ACTIVE_MARGIN = 2
#: largest step error the threshold search of ``shadowing_constants`` tries
GRID_CAP = 1e12


@dataclass
class Pseudotrajectory:
    """An approximate orbit: points y_k with step errors at most d.

    ``points`` is a :class:`seqcore.Segment`, one row per time; a dict of
    SeqVecs at consecutive times is packed into one at construction.  For
    a periodic trajectory exactly one period is stored and ``points[k]``
    wraps.  ``d`` is always the realized maximum step error, recomputed
    from the points, never the requested noise level.  ``ops`` optionally
    holds the differentials Df(y_k) of every step, as the
    :class:`seqcore.OperatorSeq` of the points' times, when the caller has
    already evaluated them; the first refinement then reads them instead
    of evaluating the differentials again.
    """

    points: Segment
    d: float
    period: int = None
    meta: dict = field(default_factory=dict)
    ops: OperatorSeq = None

    def __post_init__(self):
        self.points = Segment.pack(self.points, self.period)
        self.period = self.points.period


@dataclass
class ShadowResult:
    """The exact trajectory found (a :class:`seqcore.Segment`, periodic
    for a periodic shadow), its distance to the input and its record."""

    trajectory: Segment
    sup_distance: float
    iterations: int
    final_step_error: float
    constants: tuple
    meta: dict = field(default_factory=dict)

    @property
    def period(self):
        return self.trajectory.period


@dataclass(frozen=True)
class ShadowingConstants:
    L: float
    M: float
    d0: float
    d0_infinite: float

    def __iter__(self):
        return iter((self.L, self.M, self.d0, self.d0_infinite))


def recompute_step_error(sys, points, period=None):
    """max_k |y_{k+1} - f(y_k)|, wrapping around for periodic data.

    ``points`` is a :class:`seqcore.Segment`, or a dict that
    ``Segment.pack`` packs with ``period``; the defects of its ``path``
    come from ``sys.step_gaps``.
    """
    path = Segment.pack(points, period).path
    return float(sys.step_gaps(path).max(initial=0.0))


def _support_span(x):
    idx = np.flatnonzero(np.abs(x.coeffs) > 0.0)
    if idx.size == 0:
        mid = x.window.offset(0) if 0 in x.window else x.window.length // 2
        return mid, mid
    return int(idx[0]), int(idx[-1])


def _noise(rng, x0, length, shift, d):
    """The noise rows of a walk from x0, as :func:`make_pseudotrajectory`
    draws them.

    Row k + 1 of the (length + 1, n) block is step k's uniform sample from
    the l^p ball of radius d (p = ``x0.p``) on its active span: the support
    span of x0 widened by ACTIVE_MARGIN and moved by (k + 1) * ``shift``,
    clipped to the window.  A span past the window edge, or d = 0, gets no
    noise and draws nothing.  After the per-step draws, the scaling onto
    the ball is one block operation per group of steps of one span width.
    The root of each row's scale is a scalar ``**``, because numpy's array
    power rounds some powers 1/p differently.
    """
    n = x0.window.length
    s_lo, s_hi = _support_span(x0)
    p = x0.p
    rows = np.zeros((length + 1, n))
    if not d > 0.0:
        return rows
    groups = {}
    for k in range(1, length + 1):
        a = max(0, s_lo - ACTIVE_MARGIN + k * shift)
        m = min(n - 1, s_hi + ACTIVE_MARGIN + k * shift) - a + 1
        if m <= 0:
            continue
        if p == math.inf:
            rows[k, a:a + m] = rng.uniform(-d, d, m)
        else:
            groups.setdefault(m, []).append(
                (k, a, rng.gamma(1.0 / p, 1.0, m), rng.integers(0, 2, m),
                 rng.standard_exponential()))
    for m, group in groups.items():
        ks, starts, g, signs, y = map(np.array, zip(*group))
        g = g ** (1.0 / p) * SIGNS[signs]
        roots = [t ** (1.0 / p) for t in np.sum(np.abs(g) ** p, axis=1) + y]
        rows[ks[:, None], starts[:, None] + np.arange(m)] = \
            d * g / np.array(roots)[:, None]
    return rows


def make_pseudotrajectory(sys, x0, length, d, seed=0):
    """Orbit of f with seeded noise of size at most d injected per step.

    Noise lives on the active coordinates only (support span of x0 plus a
    margin of ACTIVE_MARGIN, advanced by the system's support shift each
    step), so it does not depend on the orbit: the noise of every step is
    drawn first (:func:`_noise`), into rows 1 .. length of one
    (length + 1, n) block.  The draws stay per step, in the order of the
    walk -- the uniform entries for p = inf, else the gamma magnitudes,
    the signs and one exponential -- because they interleave in the rng
    stream, so only per-step draws keep every seed's noise; the scaling
    onto the ball is done on the block.  The recorded d is the realized
    maximum defect, the largest ``row_norms`` of the noise rows.  The
    orbit is then walked on the same block, one ``sys.forward_rows`` call
    per step adding f(y_k) to the noise of row k + 1.
    """
    rows = _noise(np.random.default_rng(seed), x0, length,
                  sys.support_shift, d)
    realized = float(row_norms(rows[1:], x0.p).max(initial=0.0))
    rows[0] = x0.coeffs
    for k in range(length):
        rows[k + 1] += sys.forward_rows(rows[k])
    return Pseudotrajectory(Segment(0, rows, x0.window, x0.p, None), realized,
                            meta={"seed": seed, "requested_d": d})


def make_loop(sys, x, length, d, seed=0):
    """A closed d-pseudo-loop through x: noisy orbit forced back to x.

    The closing defect |x - f(y_{N-1})| is part of the realized d, so the
    caller must pick x near recurrent behavior for the loop to be a
    d-pseudotrajectory at the requested level.
    """
    ps = make_pseudotrajectory(sys, x, length - 1, d, seed=seed)
    points = ps.points.with_rows(np.concatenate((ps.points.rows, [x.coeffs])))
    return Pseudotrajectory(points, recompute_step_error(sys, points),
                            meta={"seed": seed, "requested_d": d})


def shadowing_constants(sys, cert):
    """Constants (L, M, d0, d0_infinite) governing the refinement step.

    L bounds the linear solver, M = 2L the displacement per unit of step
    error.  d0 is the largest step error (found by bisection, re-checkable
    by substitution) at which one refinement is admissible:

      * bound consistency:  L + 2(RM+R)(RM+R+L) r((RM+R+L) d) <= M,
      * modulus smallness:  2 (RM+R+L) r((RM+R+L) d) < 1;

    d0_infinite additionally demands the halving condition
    M r(M d) < 1/2 needed to iterate indefinitely.  A linear system
    (r == 0) admits every d, reported as math.inf.
    """
    L = perron_constant(cert.C, cert.lam)
    M = 2.0 * L
    R = cert.R
    r = sys.modulus
    K = R * M + R + L

    def step_ok(dd):
        rk = r(K * dd)
        return (L + 2.0 * (R * M + R) * K * rk <= M) and (2.0 * K * rk < 1.0)

    def halving_ok(dd):
        return M * r(M * dd) < 0.5

    if r(1.0) == 0.0 and r(GRID_CAP) == 0.0:
        return ShadowingConstants(L, M, math.inf, math.inf)

    def largest(pred):
        tiny = 1e-300
        if not pred(tiny):
            raise PreconditionError(
                "continuity modulus does not vanish at 0; no admissible step error")
        lo, hi = tiny, 1.0
        while pred(hi) and hi < GRID_CAP:
            lo, hi = hi, hi * 2.0
        if pred(hi):
            return hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        return lo

    d0 = largest(step_ok)
    d0_inf = largest(lambda dd: step_ok(dd) and halving_ok(dd))
    return ShadowingConstants(L, M, d0, d0_inf)


def _variational_problem(sys, pstraj, cert):
    points = pstraj.points
    path = points.path
    seq = pstraj.ops
    if seq is None:
        seq = OperatorSeq(points.lo, sys.dforward_rows(path[:-1]),
                          points.period)
    # the scaled defects (f(y_k) - y_{k+1}) / d of every step, the forcing
    # of time k + 1; time lo has none, or for a period the last step's
    defects = sys.forward_rows(path[:-1])
    np.subtract(defects, path[1:], out=defects)
    defects /= pstraj.d
    w = (np.roll(defects, 1, axis=0) if points.period
         else np.concatenate((np.zeros((1, defects.shape[1])), defects)))
    return InhomProblem(seq, points.with_rows(w), w_bound=1.0), \
        cert.along(points)


def _diagnose(sys, cert, d):
    """Name the refinement precondition(s) violated at step error d."""
    cs = shadowing_constants(sys, cert)
    msgs = []
    if not d < cs.d0:
        msgs.append(f"step error {d:.3g} is not below the one-step threshold {cs.d0:.3g}")
    if not d < cs.d0_infinite:
        msgs.append(f"step error {d:.3g} is not below the halving threshold "
                    f"{cs.d0_infinite:.3g}")
    if not msgs:
        msgs.append("all thresholds hold; the certificate itself is suspect "
                    "on this pseudo-orbit")
    return "; ".join(msgs)


def refine_once(sys, pstraj, cert):
    """One correction step: solve the variational equation, move the points.

    The defects (scaled by 1/d) force v_{k+1} = Df(y_k) v_k + w_{k+1}; the
    new points are y_k + d v_k.  The new step error is recomputed through
    the guarded dynamics and must not exceed d/2 (up to 1e-6 relative).
    """
    d = pstraj.d
    if d == 0.0:
        return pstraj
    prob, opseq_cert = _variational_problem(sys, pstraj, cert)
    if pstraj.period is not None:
        sol = periodic_green_solve(prob, opseq_cert)
    else:
        sol = perron_solve(prob, opseq_cert)
    M = 2.0 * perron_constant(cert.C, cert.lam)
    if sol.sup_norm > M * (1.0 + 1e-9):
        raise ConvergenceError(
            f"correction size {d * sol.sup_norm:.3g} exceeds the displacement "
            f"bound {M * d:.3g}; {_diagnose(sys, cert, d)}")
    points = pstraj.points.with_rows(pstraj.points.rows + d * sol.v.rows)
    new_d = recompute_step_error(sys, points)
    if new_d > 0.5 * d * (1.0 + 1e-6) and new_d > 1e-15:
        raise ConvergenceError(
            f"refinement did not halve the step error ({new_d:.3g} > "
            f"{0.5 * d:.3g}); {_diagnose(sys, cert, d)}")
    meta = {"displacement": d * sol.sup_norm, "solver_residual": sol.max_residual}
    return Pseudotrajectory(points, new_d, period=pstraj.period, meta=meta)


def _shadow_loop(sys, pstraj, cert):
    constants = shadowing_constants(sys, cert)
    if not pstraj.d < constants.d0_infinite:
        raise PreconditionError(
            f"step error {pstraj.d:.3g} is not below the halving threshold "
            f"{constants.d0_infinite:.3g}")
    cur = pstraj
    step_errors = [cur.d]
    displacements = []
    for it in range(MAX_REFINEMENTS):
        if cur.d <= TARGET:
            break
        cur = refine_once(sys, cur, cert)
        step_errors.append(cur.d)
        displacements.append(cur.meta["displacement"])
    else:
        raise ConvergenceError(
            f"step error {cur.d:.3g} still above target {TARGET:.3g} after "
            f"{MAX_REFINEMENTS} refinements")
    sup = float(row_norms(cur.points.rows - pstraj.points.rows,
                          pstraj.points.p).max())
    return ShadowResult(
        cur.points, sup, len(displacements), cur.d, tuple(constants),
        meta={"step_errors": step_errors, "displacements": displacements,
              "displacement_total": float(sum(displacements))})


def shadow(sys, pstraj, cert):
    """Iterate refine_once to an exact trajectory within 2*M*d of the input."""
    if pstraj.period is not None:
        raise PreconditionError("use shadow_periodic for periodic pseudotrajectories")
    return _shadow_loop(sys, pstraj, cert)


def shadow_periodic(sys, pstraj, cert):
    """Shadowing for periodic pseudotrajectories; iterates stay periodic.

    Every refinement goes through the periodic solver, so the returned
    trajectory is periodic by representation: one period is stored and
    x_{k+m} = x_k holds identically.
    """
    if pstraj.period is None:
        raise PreconditionError("pseudotrajectory is not periodic")
    return _shadow_loop(sys, pstraj, cert)


def periodic_point_near(sys, cert, x, loop):
    """Periodic orbit within M*d of a chain-recurrent candidate x.

    ``loop`` must be a closed pseudo-loop from x back to x; it is extended
    periodically and shadowed, and the distance |x - x_0| to the resulting
    genuine periodic point is returned with the orbit.
    """
    rows, p = loop.points.rows, loop.points.p
    if row_norms(rows[[0, -1]] - x.coeffs, p).max() > 1e-12 * (1.0 + norm(x)):
        raise PreconditionError("loop does not start and end at the given point")
    m = len(rows) - 1
    one = Segment(loop.points.lo, rows[:-1], loop.points.window, p, m)
    per = Pseudotrajectory(one, recompute_step_error(sys, one), period=m)
    res = shadow_periodic(sys, per, cert)
    return res, coeff_norm(res.trajectory.rows[0] - x.coeffs, p)
