"""Pseudotrajectory generation and iterative shadowing.

A d-pseudotrajectory is turned into an exact trajectory by repeated
first-order correction: the step defects, rescaled to unit size, feed the
bounded-solution solver for the variational sequence B_k = Df(y_k), and
y + d*v is again a pseudotrajectory with (at most) half the step error.
Summing the displacement ledger geometrically gives the final distance
bound 2*M*d, with M = 2L derived from the splitting certificate.  The step
defects of a whole pseudotrajectory are one block of rows: the forcing
comes from one ``DiffeoSystem.map_rows`` call and the realized step error
from ``DiffeoSystem.step_gaps``, each row with the bits of a
point-by-point computation.

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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .seqcore import (
    OperatorSeq, norm, PreconditionError, ConvergenceError,
)
from .clstruct import CLCertificate
from .boundedsol import (
    InhomProblem, perron_constant, perron_solve, periodic_green_solve,
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

    ``points`` maps time k to a SeqVec; for a periodic trajectory exactly
    one period is stored (keys lo .. lo+period-1) and ``point_at`` wraps.
    ``d`` is always the realized maximum step error, recomputed from the
    points, never the requested noise level.  ``ops`` optionally holds the
    differentials Df(y_k) of every step, in time order, when the caller has
    already evaluated them; the first refinement then reads them instead of
    calling ``dforward`` again.
    """

    points: dict
    d: float
    period: int = None
    meta: dict = field(default_factory=dict)
    ops: list = None

    @property
    def lo(self):
        return min(self.points)

    @property
    def hi(self):
        return max(self.points)

    def point_at(self, k):
        if self.period is not None:
            return self.points[self.lo + (k - self.lo) % self.period]
        return self.points[k]


@dataclass
class ShadowResult:
    trajectory: dict
    sup_distance: float
    iterations: int
    final_step_error: float
    constants: tuple
    period: int = None
    meta: dict = field(default_factory=dict)

    def point_at(self, k):
        if self.period is not None:
            lo = min(self.trajectory)
            return self.trajectory[lo + (k - lo) % self.period]
        return self.trajectory[k]


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

    The points lo .. hi are one block of rows whose defects come from
    ``sys.step_gaps``; for periodic data the row of time
    lo + (hi + 1 - lo) mod period follows the last one.
    """
    lo, hi = min(points), max(points)
    rows = np.array([points[k].coeffs for k in range(lo, hi + 1)])
    if period is not None:
        rows = rows[np.arange(hi - lo + 2) % period]
    return float(sys.step_gaps(rows).max(initial=0.0))


def _support_span(x):
    idx = np.flatnonzero(np.abs(x.coeffs) > 0.0)
    if idx.size == 0:
        mid = x.window.offset(0) if 0 in x.window else x.window.length // 2
        return mid, mid
    return int(idx[0]), int(idx[-1])


def _ball_sample(rng, m, p, radius):
    """Uniform sample from the l^p ball of the given radius in R^m."""
    if p == math.inf:
        return rng.uniform(-radius, radius, m)
    g = rng.gamma(1.0 / p, 1.0, m) ** (1.0 / p) * rng.choice([-1.0, 1.0], m)
    y = rng.standard_exponential()
    return radius * g / (np.sum(np.abs(g) ** p) + y) ** (1.0 / p)


def make_pseudotrajectory(sys, x0, length, d, seed=0):
    """Orbit of f with seeded noise of size at most d injected per step.

    Noise lives on the active coordinates only (support span of x0 plus a
    margin of ACTIVE_MARGIN, advanced by the system's support shift each
    step).  The recorded d is the realized maximum defect.
    """
    rng = np.random.default_rng(seed)
    n = x0.window.length
    s_lo, s_hi = _support_span(x0)
    points = {0: x0}
    realized = 0.0
    cur = x0
    for k in range(length):
        fy = sys.forward(cur)
        a = max(0, s_lo - ACTIVE_MARGIN + (k + 1) * sys.support_shift)
        b = min(n - 1, s_hi + ACTIVE_MARGIN + (k + 1) * sys.support_shift)
        xi = np.zeros(n)
        if d > 0.0:
            xi[a:b + 1] = _ball_sample(rng, b - a + 1, x0.p, d)
        cur = fy.with_coeffs(fy.coeffs + xi)
        realized = max(realized, norm(x0.with_coeffs(xi)))
        points[k + 1] = cur
    return Pseudotrajectory(points, realized, meta={"seed": seed, "requested_d": d})


def make_loop(sys, x, length, d, seed=0):
    """A closed d-pseudo-loop through x: noisy orbit forced back to x.

    The closing defect |x - f(y_{N-1})| is part of the realized d, so the
    caller must pick x near recurrent behavior for the loop to be a
    d-pseudotrajectory at the requested level.
    """
    ps = make_pseudotrajectory(sys, x, length - 1, d, seed=seed)
    points = dict(ps.points)
    points[length] = x
    realized = recompute_step_error(sys, points)
    return Pseudotrajectory(points, realized, meta={"seed": seed, "requested_d": d})


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
    lo = pstraj.lo
    m = pstraj.period
    steps = m if m is not None else pstraj.hi - lo
    pts = [pstraj.point_at(lo + j) for j in range(steps + 1)]
    ops = pstraj.ops
    if ops is None:
        ops = [sys.dforward(y) for y in pts[:-1]]
    seq = OperatorSeq(lo, ops, period=m)
    # the scaled defects (f(y_k) - y_{k+1}) / d of every step, as one block
    rows = np.array([y.coeffs for y in pts])
    defects = sys.map_rows(rows[:-1])
    np.subtract(defects, rows[1:], out=defects)
    defects /= pstraj.d
    w = {lo + j + 1: pts[j].with_coeffs(c) for j, c in enumerate(defects)}
    opseq_cert = CLCertificate(cert.C, cert.lam, cert.R,
                               lambda k: cert.proj_at(pstraj.point_at(k)),
                               meta=dict(cert.meta))
    return InhomProblem(seq, w, w_bound=1.0), opseq_cert


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
    points = {}
    for k in pstraj.points:
        y = pstraj.points[k]
        points[k] = y.with_coeffs(y.coeffs + d * sol.v_at(k).coeffs)
    new_d = recompute_step_error(sys, points, period=pstraj.period)
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
    sup = max(
        norm(cur.point_at(k).with_coeffs(
            cur.point_at(k).coeffs - pstraj.point_at(k).coeffs))
        for k in pstraj.points)
    return ShadowResult(
        cur.points, sup, len(displacements), cur.d, tuple(constants),
        period=pstraj.period,
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
    lo, hi = loop.lo, loop.hi
    y0, yN = loop.points[lo], loop.points[hi]
    gap = norm(y0.with_coeffs(y0.coeffs - x.coeffs))
    gap_end = norm(yN.with_coeffs(yN.coeffs - x.coeffs))
    if max(gap, gap_end) > 1e-12 * (1.0 + norm(x)):
        raise PreconditionError("loop does not start and end at the given point")
    m = hi - lo
    period_points = {k: loop.points[k] for k in range(lo, hi)}
    per = Pseudotrajectory(period_points,
                           recompute_step_error(sys, period_points, period=m),
                           period=m)
    res = shadow_periodic(sys, per, cert)
    x0 = res.point_at(lo)
    dist = norm(x0.with_coeffs(x0.coeffs - x.coeffs))
    return res, dist
