"""Bounded solutions of the difference equation v_{k+1} = A_k v_k + w_{k+1}.

Under a hyperbolic splitting certificate (C, lam) the equation has a
distinguished bounded solution given by causal/anticausal sums: the stable
projections of the forcing are propagated forward, the unstable ones
backward, and ``sup_k |v_k| <= L sup_k |w_k|`` with

    L = C^2 (1 + lam) / (1 - lam).

The sums are written once, in ``perron_sums``: the forward recursion of
the stable sum and the backward recursion of the unstable sum on one
segment of raw coefficient arrays, evaluated at chosen time points.  The
routes built on it are

* ``perron_solve``            -- the sums on a finite interval, with the
  convention that w vanishes outside it;
* ``periodic_green_solve``    -- the same sums for periodic data, truncated
  once the certificate's tail bound drops below 1e-12: the period is
  unrolled once over T steps beyond each end, and the segments centred
  on its m points are the frames of one lockstep call;
* ``neumann_perturbed_solve`` -- the bounded solution for a perturbed
  sequence B_k = A_k + Delta_k, by fixed-point iteration of the sums for
  the unperturbed one (geometric rate L*eps < 1/2);
* ``semiconj.orbit_perron_apply`` and the displacement sweeps of
  :mod:`semiconj` -- the sums along orbit segments of a map.

``banded_direct_solve`` stays independent of the kernel: it is the test
oracle, which assembles the difference equation as one dense
least-squares system and never touches the sums.

Every solver recomputes its residual max_k |v_{k+1} - A_k v_k - w_{k+1}|
and stores it in the result.  The recheck runs on the solution's block of
rows, one ``seqcore.apply_rows`` and one ``seqcore.row_norms``, with the
bits of a step-by-step recheck.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .seqcore import (
    Segment, OperatorSeq, apply_coeffs, apply_rows, inverse_stack,
    op_norm, row_norms, dense, stack_ops, sub, PreconditionError,
    ConvergenceError,
)
from .clstruct import ProjPair, verify_cl_opseq

__all__ = [
    "InhomProblem", "BoundedSolution", "perron_constant", "perron_sums",
    "perron_solve", "periodic_green_solve", "neumann_perturbed_solve",
    "banded_direct_solve", "random_hyperbolic_instance",
]

def perron_constant(C, lam):
    """The bounded-solution constant L = C^2 (1+lam)/(1-lam)."""
    return C * C * (1.0 + lam) / (1.0 - lam)


@dataclass
class InhomProblem:
    """The data (A_k, w_k) of the difference equation on an interval.

    ``seq`` supplies operators for k in [lo, hi-1].  The forcing ``w`` is
    one :class:`seqcore.Segment` of the times lo .. hi (for a periodic
    ``seq``, of one period lo .. lo+m-1, so ``w[k]`` wraps), given as such
    or packed once at construction from a dict of SeqVecs by time, absent
    times meaning zero; for a periodic ``seq`` a key stands for every time
    congruent to it modulo m, the lowest key of a class winning.
    """

    seq: OperatorSeq
    w: Segment
    w_bound: float = None

    def __post_init__(self):
        self.w = _forcing(self.seq, self.w)
        if self.w_bound is None:
            self.w_bound = float(row_norms(self.w.rows, self.w.p).max())

    @property
    def window(self):
        return self.seq.ops[0].window

    @property
    def p(self):
        return self.w.p


def _forcing(seq, w):
    """The forcing block of an :class:`InhomProblem` on ``seq``."""
    lo, m, win = seq.lo, seq.period, seq.ops[0].window
    size = len(seq.ops) + (m is None)
    if isinstance(w, Segment):
        if (w.lo, len(w), w.period, w.window) != (lo, size, m, win):
            raise PreconditionError("the forcing block misses the sequence")
        return w
    p = next(iter(w.values())).p if w else 2.0
    rows = np.zeros((size, win.length))
    # descending: the lowest key of a periodic class is written last
    for k in sorted(w, reverse=True):
        outside = m is None and not lo <= k <= seq.hi
        if outside or (w[k].window, w[k].p) != (win, p):
            raise PreconditionError(
                f"forcing at {k} (window {w[k].window}, p={w[k].p}) misses "
                f"the operators' window {win}, p={p} or times")
        rows[(k - lo) % size] = w[k].coeffs
    return Segment(lo, rows, win, p, m)


@dataclass
class BoundedSolution:
    """A solution block ``v`` (a :class:`seqcore.Segment`, periodic for a
    periodic solve) with its sup-norm and recomputed residual."""

    v: Segment
    sup_norm: float
    max_residual: float
    meta: dict = field(default_factory=dict)

    @property
    def period(self):
        return self.v.period


def _solution(prob, rows, period=None, meta=None):
    """Package a solution block, recomputing its residual from scratch.

    Row i of ``rows`` is v_{lo+i}, from the first time point lo of the
    sequence on.  The defects v_{k+1} - A_k v_k - w_{k+1} of every step
    (for periodic data the last step wraps to v_lo) come from
    ``apply_rows`` and their norms from ``row_norms``, each with the bits
    of the step-by-step computation.
    """
    a, p = prob.seq.lo, prob.p
    v = Segment(a, rows, prob.window, p, period)
    path = v.path
    steps = range(a, a + len(path) - 1)
    defects = apply_rows([prob.seq.op_at(k) for k in steps], path[:-1])
    np.subtract(path[1:], defects, out=defects)
    defects -= prob.w.path[1:]
    return BoundedSolution(v, float(row_norms(v.rows, p).max()),
                           float(row_norms(defects, p).max(initial=0.0)),
                           meta=meta or {})


def perron_sums(ops, inv_ops, pairs, w, at):
    """The two-recursion sums of the bounded solution on one segment.

    Time points are 0 .. m-1 for an (m, n) block ``w`` of raw forcing rows:
    ``w[j]`` is the forcing there, ``pairs[j]`` its projection pair, and
    ``ops[j]`` / ``inv_ops[j]`` map time j to j+1 and back.  The stable sum
    runs forward, u_0 = P_0 w_0 and u_j = P_j(A_{j-1} u_{j-1} + P_j w_j),
    and the unstable sum backward, s_last = 0 and
    s_j = Q_j A_j^{-1}(s_{j+1} + Q_{j+1} w_{j+1}).  The exact sums already
    lie in the stable/unstable family, so the outer projections change
    nothing algebraically; numerically they stop round-off from seeding
    content in the opposite space, which the recursion would otherwise
    amplify exponentially along the segment.  Returns the rows
    v_j = u_j - s_j for j in the range ``at``; only ``ops[:at[-1]]`` and
    ``inv_ops[at[0]:]`` are read.

    A leading frame axis sums a stack of segments in lockstep: ``w`` is
    (frames, m, n), ``ops[j]``, ``inv_ops[j]`` and the projections of
    ``pairs[j]`` are operator stacks over the frames, every step is one
    array operation per operator, and the result is (frames, len(at), n).
    Each frame gets the bits of its own sums.
    """
    w = np.asarray(w)
    last, first = w.shape[-2] - 1, at[0]
    out = np.empty(w.shape[:-2] + (len(at), w.shape[-1]))
    u = apply_coeffs(pairs[0].P, w[..., 0, :])
    for j in range(at[-1] + 1):
        if j:
            P = pairs[j].P
            u = apply_coeffs(P, apply_coeffs(ops[j - 1], u)
                             + apply_coeffs(P, w[..., j, :]))
        if j >= first:
            out[..., j - first, :] = u
    s = np.zeros(u.shape)
    for j in range(last, first - 1, -1):
        if j < last:
            drive = s + apply_coeffs(pairs[j + 1].Q, w[..., j + 1, :])
            s = apply_coeffs(pairs[j].Q, apply_coeffs(inv_ops[j], drive))
        if j <= at[-1]:
            out[..., j - first, :] -= s
    return out


def perron_solve(prob, cert, verify_cert=False):
    """Distinguished bounded solution on the sequence's interval.

    The causal sum over stable projections and the anticausal sum over
    unstable projections are evaluated by :func:`perron_sums`, with the
    convention that w vanishes outside the interval; the solution is their
    difference.  The steps are inverted as one stack
    (:func:`seqcore.inverse_stack`), with the bits of ``LinOp.inverse``
    step by step.  Pass ``verify_cert=True`` to run the splitting verifier
    first (callers in an inner loop check their certificate once,
    outside).
    """
    if verify_cert:
        rep = verify_cl_opseq(prob.seq, cert)
        if not rep.passed:
            raise PreconditionError(
                f"splitting certificate fails on the sequence: {rep.to_json()}")
    return _solution(prob, _interval_sums(prob.seq, cert)(prob.w.path))


def _interval_sums(seq, cert):
    """:func:`perron_sums` over every time point of an interval, as a
    function of the forcing rows there; the steps are inverted as one
    stack (:func:`seqcore.inverse_stack`) and the pairs read, once."""
    a, b = seq.lo, seq.hi
    ops, inv_ops = seq.ops, inverse_stack(seq.ops)
    pairs = [cert.proj_at(k) for k in range(a, b + 1)]
    return lambda w: perron_sums(ops, inv_ops, pairs, w, range(b - a + 1))


def periodic_green_solve(prob, cert):
    """Periodic bounded solution by tail-truncated two-sided sums.

    Both sums are cut T steps out, where T is the first depth at which the
    certificate bound C^2 lam^T/(1-lam) * sup|w| falls below 1e-12; the
    result is exactly periodic because one period is computed and reused.
    The point lo + i of the period is the middle of the 2T-step segment
    lo + i - T .. lo + i + T, and the m segments are the frames of one
    lockstep :func:`perron_sums` call.  The period is unrolled once over
    the times lo - T .. lo + m + T - 1: the operators and their inverses
    (inverted once per period), the certificate's m projection pairs (each
    built once) and the forcing block's rows.  Frame i is rows
    i .. i + 2T of the unroll, so step j of every frame is the slice
    [j, j + m) of each unrolled stack, and the frames' forcing is a
    sliding-window view of the unrolled rows, never a copy per frame.
    Each point gets the bits of a sum over its own segment.
    """
    if prob.seq.period is None:
        raise PreconditionError("periodic_green_solve needs a periodic sequence")
    m = prob.seq.period
    W = prob.w_bound
    T = 1
    while perron_constant(cert.C, cert.lam) * cert.lam ** T * W >= 1e-12:
        T += 1
    lo = prob.seq.lo
    unroll = np.arange(-T, m + T) % m
    ops = stack_ops(prob.seq.ops)[unroll]
    inv = inverse_stack(prob.seq.ops)[unroll]
    pairs = [cert.proj_at(k) for k in range(lo, lo + m)]
    P = stack_ops([pr.P for pr in pairs])[unroll]
    Q = stack_ops([pr.Q for pr in pairs])[unroll]
    w = prob.w.rows[unroll]
    frames = sliding_window_view(w, 2 * T + 1, axis=0).swapaxes(1, 2)
    steps = [slice(j, j + m) for j in range(2 * T + 1)]
    rows = perron_sums([ops[j] for j in steps[:-1]],
                       [inv[j] for j in steps[:-1]],
                       [ProjPair(P[j], Q[j]) for j in steps],
                       frames, range(T, T + 1))
    return _solution(prob, rows[:, 0], period=m, meta={"tail_depth": T})


def neumann_perturbed_solve(prob_b, base_seq, base_cert, eps):
    """Bounded solution for B_k = A_k + Delta_k via the unperturbed solver.

    Iterates v <- S_A(w + Delta v), where S_A is the distinguished solver
    for the base sequence, until a step moves v by at most 1e-13 (1 + |v|)
    (200 steps at most); successive differences contract by L*eps, so eps
    must stay below 1/(2L).  S_A is :func:`perron_sums` on the base steps,
    their inverses and the certificate's pairs, each built once, with the
    bits of a :func:`perron_solve` per iteration.  The difference
    norms are recorded in ``meta['diff_norms']`` and the final residual is
    taken against B.
    """
    L = perron_constant(base_cert.C, base_cert.lam)
    if not eps < 0.5 / L:
        raise PreconditionError(
            f"perturbation bound {eps:.3g} is not below 1/(2L) = {0.5 / L:.3g}")
    if (base_seq.lo, base_seq.hi) != (prob_b.seq.lo, prob_b.seq.hi):
        raise PreconditionError("base and perturbed sequences cover different intervals")
    a, b = base_seq.lo, base_seq.hi
    deltas = []
    for k in range(a, b):
        d = sub(prob_b.seq.op_at(k), base_seq.op_at(k))
        dn = op_norm(d, prob_b.p)
        if dn > eps * (1.0 + 1e-9) + 1e-15:
            raise PreconditionError(
                f"|Delta_{k}| = {dn:.3g} exceeds the declared bound {eps:.3g}")
        deltas.append(d)
    deltas = stack_ops(deltas)

    w = prob_b.w.rows
    solve = _interval_sums(base_seq, base_cert)
    v = solve(w)
    diff_norms = []
    for _ in range(200):
        forced = w.copy()
        forced[1:] += apply_coeffs(deltas, v[:-1])
        vn = solve(forced)
        diff = float(row_norms(vn - v, prob_b.p).max())
        diff_norms.append(diff)
        v = vn
        if diff <= 1e-13 * (1.0 + float(row_norms(v, prob_b.p).max())):
            break
    else:
        raise ConvergenceError(
            f"perturbed solve did not converge in 200 iterations "
            f"(last difference {diff_norms[-1]:.3g}); the perturbation "
            f"likely violates its bound")
    return _solution(prob_b, v, meta={"iterations": len(diff_norms),
                                      "diff_norms": diff_norms})


def banded_direct_solve(prob, cert, max_unknowns=20_000):
    """Independent oracle: one dense least-squares solve, no sums.

    Stacks the difference-equation blocks v_{k+1} - A_k v_k = w_{k+1} with
    two boundary blocks P_a v_a = 0 and Q_b v_b = 0 -- no stable content
    enters at the left end, no unstable content at the right end -- and
    hands the whole thing to numpy's lstsq.  Under an exponential
    dichotomy these conditions single out the distinguished bounded
    solution.  Under an inclusion-only splitting, such as the weighted
    shifts' (A_k carries coordinate -1 into the stable side), the system
    keeps homogeneous solutions and lstsq returns the least-norm one.
    """
    a, b = prob.seq.lo, prob.seq.hi
    n = prob.window.length
    steps = b - a
    if n * (steps + 1) > max_unknowns:
        raise PreconditionError(
            f"{n * (steps + 1)} unknowns exceed the dense-assembly cap {max_unknowns}")
    N = n * (steps + 1)
    rows = n * steps + 2 * n
    M = np.zeros((rows, N))
    rhs = np.zeros(rows)
    w = prob.w.path
    for k in range(a, b):
        r = n * (k - a)
        M[r:r + n, r:r + n] = -prob.seq.op_at(k).to_dense_matrix()
        M[r:r + n, r + n:r + 2 * n] = np.eye(n)
        rhs[r:r + n] = w[k + 1 - a]
    M[n * steps:n * steps + n, :n] = cert.proj_at(a).P.to_dense_matrix()
    M[n * steps + n:, N - n:] = cert.proj_at(b).Q.to_dense_matrix()
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    out = _solution(prob, sol.reshape(steps + 1, n))
    if out.max_residual > 1e-8 * (1.0 + out.sup_norm):
        raise ConvergenceError(
            f"direct solve left residual {out.max_residual:.3g}; "
            f"the assembled system was not solved consistently")
    return out


def random_hyperbolic_instance(dim, length, rng):
    """A random dense hyperbolic sequence with unit-C splitting, plus forcing.

    Orthonormal frames U_k are drawn per time point 0 .. length on the
    window [0, dim - 1], and A_k = U_{k+1} D_k U_k^T with |D| in [1/4, 1/2]
    on the stable block and [2, 3] on the unstable one, so the frame
    splitting is exactly invariant and decays at rate 1/2 with C = 1.
    Returns the problem (in l^2) and its certificate.
    """
    from .clstruct import ProjPair, CLCertificate
    from .seqcore import Window

    win = Window(0, dim - 1)
    s_dim = int(rng.integers(1, dim))
    frames = []
    for _ in range(length + 1):
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        frames.append(q * np.sign(np.diag(r)))
    ops = []
    for k in range(length):
        mags = np.concatenate([rng.uniform(0.25, 0.5, s_dim),
                               rng.uniform(2.0, 3.0, dim - s_dim)])
        d = mags * rng.choice([-1.0, 1.0], dim)
        ops.append(dense(frames[k + 1] @ np.diag(d) @ frames[k].T, win))
    pairs = {}
    for k, U in enumerate(frames):
        Us = U[:, :s_dim]
        Ps = dense(Us @ Us.T, win)
        pairs[k] = ProjPair(Ps, dense(np.eye(dim) - Us @ Us.T, win))
    cert = CLCertificate(1.0, 0.5, 3.5, lambda k: pairs[k],
                         meta={"stable_dim": s_dim})
    w = np.zeros((length + 1, dim))
    for k in range(1, length + 1):
        raw = rng.standard_normal(dim)
        w[k] = rng.uniform(0.2, 1.0) * raw / np.linalg.norm(raw)
    w = Segment(0, w, win, 2.0, None)
    return InhomProblem(OperatorSeq(0, ops), w), cert
