"""Transfer of certified splittings to nearby operator sequences.

Given a sequence with a certified stable/unstable splitting and a second
sequence within ``eps`` of it, rebuild the splitting for the perturbed
sequence.  The new stable space at time k is the graph of a small linear
map H_k over the old one; H is found as the fixed point of a contracting
update built from a geometric correction series, and the unstable side is
obtained symmetrically by running the same construction on the
time-reversed inverse sequence.  The rebuilt splitting is certified at a
relaxed decay rate ``lam1 > lam`` with constant ``((R + 1) / lam1) ** N``,
where N is the block length at which the original decay beats ``lam1``.

The whole construction runs on operator stacks (:class:`seqcore.LinOp`),
one stack per block kind, iterate and product over all steps, so each
block, update, difference, inclusion product and norm is one array
operation across all steps, for every input; only the backward sweep of
the correction series stays sequential in the step, on single rows.  On
weighted shifts by one common s with diagonal projections a stack is one
(steps, n) scalar array.  A dense operand (a dense perturbation, dense
projections) makes the stacks it meets (steps, n, n) matrix arrays, run
by batched ``matmul``, ``inv`` and ``norm``; that is admitted only while
its estimated memory, ``_dense_bytes``, stays below ``MAX_DENSE_BYTES``.
Every step keeps the association order and the bits of the algebra on
one operator, and only the nonzero final tilts are materialized; a zero
tilt stays structured.

``perturbed_cl_for_diffeo`` lifts the construction to diffeomorphisms: an
orbit of the perturbed map is shadowed by an exact trajectory of the base
map, the base splitting is read off along the shadow, and the transfer
runs on the differentials along both orbits.  The shadowing and the read
are ``shadowed_splitting``, which ``semiconj.make_conjugacy_job`` shares.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .seqcore import (ConvergenceError, OperatorSeq, PreconditionError,
                      Segment, _NORM_ORDS, _diff_norms, _norms, _sum_into,
                      _upper_norms, anchor_index, coeff_norm, dense, diag,
                      monitored_fixed_point, op_norm, row_norms, stack_ops,
                      transport_rows, TruncationError)
from .clstruct import CLCertificate, ProjPair, _directions, index_cert
from .shadow import (Pseudotrajectory, recompute_step_error, shadow,
                     shadow_periodic)

__all__ = [
    "GraphMaps",
    "PerturbedCert",
    "series_gain",
    "perturbation_budget",
    "rate_upgrade_steps",
    "upgraded_constant",
    "graph_transform_seq",
    "graph_transform_periodic",
    "shadowed_splitting",
    "perturbed_cl_for_diffeo",
]

#: dropped tail allowance for the periodic correction series
SERIES_TAIL_TOL = 1e-13
#: one-step leakage allowance for the rebuilt splitting
INCLUSION_TOL = 1e-9
#: dimensionless slack on the N-step decay inequality
DECAY_SLACK = 1e-6
#: dimensionless slack on the contraction-ratio and norm-ball gates
CONTRACTION_SLACK = 1e-9
#: fixed-point iteration cap
MAX_FP_ITERATIONS = 80
#: memory the dense transfer path may claim (see ``_dense_bytes``)
MAX_DENSE_BYTES = 2 * 1024 ** 3


def series_gain(C, lam):
    """Norm bound ``1 + C^2 lam^2 / (1 - lam^2)`` of the correction series."""
    return 1.0 + C * C * lam * lam / (1.0 - lam * lam)


def perturbation_budget(C, lam, R):
    """Largest perturbation size the graph update provably contracts at.

    The update is 1/2-Lipschitz on the ball of radius ``e2 = 2*L*C*eps``
    (L the series gain) as long as ``R*(2*e1 + 4*(R + e1)*e2) <= 1/(2*L)``
    with ``e1 = C*eps``; that condition is quadratic in eps and this is
    its positive root.
    """
    L = series_gain(C, lam)
    a = 8.0 * R * L * C * C
    b = 2.0 * R * C * (1.0 + 4.0 * R * L)
    t = 1.0 / (2.0 * L)
    return (-b + math.sqrt(b * b + 4.0 * a * t)) / (2.0 * a)


def rate_upgrade_steps(C, lam, lam1):
    """Smallest N with ``2 C lam^N <= lam1^N``.

    After N steps the original decay beats the relaxed rate with a factor
    2 to spare, which is what absorbs the perturbation terms.
    """
    if not lam < lam1 < 1.0:
        raise PreconditionError(
            f"target rate lam1={lam1} must lie strictly between lam={lam} and 1")
    N = 1
    while 2.0 * C * lam ** N > lam1 ** N:
        N += 1
    return N


def upgraded_constant(C, lam, R, lam1):
    """Certified constant ``((R + 1) / lam1) ** N`` for the relaxed rate."""
    return ((R + 1.0) / lam1) ** rate_upgrade_steps(C, lam, lam1)


@dataclass
class GraphMaps:
    """Per-time tilt maps defining a rebuilt splitting.

    ``H[k]`` maps the old stable space at time k into the old unstable one
    (its graph is the new stable space); ``H_u[k]`` tilts the unstable side
    symmetrically.  ``eps2`` is the norm ball both families are confined
    to and ``attained`` the largest norm actually realized.
    """

    H: dict
    H_u: dict
    eps2: float
    iterations: int
    attained: float = 0.0
    fp_residual: float = 0.0
    meta: dict = field(default_factory=dict)


@dataclass
class PerturbedCert:
    """Record of a splitting transfer.

    ``result.proj_at`` serves the tilted projections (index-keyed for
    sequences, point-keyed when built for a diffeomorphism);
    ``inclusion_residuals[k]`` is the one-step leakage |Q~_{k+1} B_k P~_k|.
    """

    base: CLCertificate
    result: CLCertificate
    graph: GraphMaps
    inclusion_residuals: dict
    meta: dict = field(default_factory=dict)

    def residual_rows(self):
        """``(k, |H_k|, inclusion residual)`` rows, ascending in k; the
        norms are one ``op_norm`` of the stacked tilts (a zero tilt reads
        0.0 structured or densified)."""
        p = self.meta.get("p", 2.0)
        ks = sorted(self.inclusion_residuals)
        norms = np.broadcast_to(
            op_norm(stack_ops([self.graph.H[k] for k in ks]), p), (len(ks),))
        return [(k, float(h), self.inclusion_residuals[k])
                for k, h in zip(ks, norms)]

    def to_json(self):
        def blob(c):
            return {"C": c.C, "lam": c.lam, "R": c.R}

        return {
            "base": blob(self.base),
            "result": blob(self.result),
            "eps2": self.graph.eps2,
            "iterations": self.graph.iterations,
            "attained": self.graph.attained,
            "fp_residual": self.graph.fp_residual,
            "H": {str(k): op.to_dense_matrix().tolist()
                  for k, op in sorted(self.graph.H.items())},
            "H_u": {str(k): op.to_dense_matrix().tolist()
                    for k, op in sorted(self.graph.H_u.items())},
            "inclusion_residuals": {str(k): v for k, v
                                    in sorted(self.inclusion_residuals.items())},
            "meta": self.meta,
        }


def _dense_bytes(n_ops, n):
    """Bytes the dense transfer holds for ``n_ops`` steps on a window of
    length n: 25 n x n float64 arrays per step.  The all-dense transfer
    allocates 20.3 to 22.2 per step (inverses, projections, one side's
    blocks, iterates and whole-stack temporaries; the tracemalloc peak of
    robustness's route, densified, with 6 to 24 steps on windows of 21 to
    161), and the caller holds the two input operators."""
    return 25 * n_ops * n * n * 8


_BLOCK_NAMES = ("Z", "Ass", "Aus", "Bsu", "Dss", "Dus", "Duu")


def _blocks(A, Ai, B, P, Q, n_ops, nxt):
    """Split each step into stable/unstable components against (P, Q).

    Step j of ``n_ops`` maps time j to time ``nxt[j]``; the blocks are
    stacks over the steps.
    """
    Pj, Qj, Pn, Qn = P[:n_ops], Q[:n_ops], P[nxt], Q[nxt]
    D = B - A
    return dict(zip(_BLOCK_NAMES, (
        Ai @ Qn, Pn @ A @ Pj, Pn @ A @ Qj, Qn @ B @ Pj,
        Pn @ D @ Pj, Pn @ D @ Qj, Qn @ D @ Qj)))


def _series_terms(C, lam, s_norm):
    """Term count keeping the dropped tail of the series below tolerance."""
    if s_norm == 0.0:
        return 1
    tail = C * C * lam * lam / (1.0 - lam * lam) * s_norm
    T = 1
    while tail > SERIES_TAIL_TOL:
        tail *= lam * lam
        T += 1
        if T > 100_000:
            raise ConvergenceError(
                "correction series does not reach the truncation target")
    return T


def _fixed_point(blk, n_ops, nxt, C, lam, p, period, label, zero):
    """Iterate H -> series(Q-update(H)) from H = 0 until it stabilizes.

    H is a stack over the times, step j of ``n_ops`` maps time j to time
    ``nxt[j]``.  The update is certified 1/2-contracting, which the
    monitor enforces; returns ``(H, iterations, fp_residual,
    worst_ratio)``.
    """
    n_times = n_ops if period else n_ops + 1
    Z, Ass, Aus, Bsu = blk["Z"], blk["Ass"], blk["Aus"], blk["Bsu"]
    Dss, Dus, Duu = blk["Dss"], blk["Dus"], blk["Duu"]

    def q_step(H):
        # -Bsu - Duu Hj + Hn Aus Hj + Hn Dss + Hn Dus Hj, left to right,
        # each term summed into the one array that -Bsu made
        Hj, Hn = H[:n_ops], H[nxt]
        acc = _sum_into(-Bsu, Duu @ Hj, np.subtract)
        acc = _sum_into(acc, Hn @ (Aus @ Hj), np.add)
        acc = _sum_into(acc, Hn @ Dss, np.add)
        return Z @ _sum_into(acc, Hn @ (Dus @ Hj), np.add)

    def apply_series(S):
        if period is None:
            # the finite backward sweep sums the whole series exactly; at
            # the last time there are no later terms to pick up
            new = [zero] * n_times
            for j in range(n_ops - 1, -1, -1):
                new[j] = S[j] + (Z[j] @ new[j + 1]) @ Ass[j]
            return stack_ops(new)
        T = _series_terms(C, lam, float(np.max(_norms(S, p))))
        idx = np.arange(n_times)
        acc, left, right = S, None, None
        for l in range(1, T):
            zi = (idx + l - 1) % n_ops
            left = Z[zi] if left is None else left @ Z[zi]
            right = Ass[zi] if right is None else Ass[zi] @ right
            acc = acc + left @ S[(idx + l) % n_ops] @ right
        return acc

    def dist(new, H):
        return float(np.max(_norms(new - H, p)))

    return monitored_fixed_point(
        lambda H: apply_series(q_step(H)), zero, dist, f"{label} graph",
        ratio_bound=0.5, ratio_floor=1e-13, max_iter=MAX_FP_ITERATIONS)


def _transfer(seq, cert, pert, lam1, eps, p, period):
    if p not in _NORM_ORDS:
        raise PreconditionError("splitting transfer supports p in {1, 2, inf}")
    if seq.lo != pert.lo or seq.hi != pert.hi:
        raise PreconditionError("sequences must share their time interval")
    if not cert.lam < lam1 < 1.0:
        raise PreconditionError(
            f"target rate lam1={lam1} must lie strictly in (lam={cert.lam}, 1)")
    lo, hi = seq.lo, seq.hi
    n_ops = hi - lo
    C, lam, R = cert.C, cert.lam, cert.R
    n_times = n_ops if period else n_ops + 1
    W = seq.stack.window
    # step j maps time j to time nxt[j]; reversed time j sits at time
    # rev[j].  On an interval both are basic slices, so the stacks they
    # select are views; around a period they wrap
    if period is None:
        nxt, rev = slice(1, None), slice(None, None, -1)
    else:
        nxt, rev = (np.arange(n_ops) + 1) % n_ops, -np.arange(n_ops) % n_ops

    # the base pairs at every time, read once
    Pseq, Qseq = cert.read(lo, n_times, period)
    # weighted shifts stay structured; one dense operand makes the blocks
    # and iterates dense.  The transfer holds about 25 operators per step
    # of the largest operand's size (``_dense_bytes`` when n x n), so admit
    # it only within its memory cap, before anything is built per step
    size = max(X.stack[0].data.size for X in (seq, pert, Pseq, Qseq))
    need = _dense_bytes(n_ops, W.length) // W.length ** 2 * size
    if need > MAX_DENSE_BYTES:
        raise PreconditionError(
            f"splitting transfer over {n_ops} steps on a window of "
            f"{W.length} needs about {need} bytes, above the cap "
            f"{MAX_DENSE_BYTES}")
    A, B, Ai, Bi = seq.stack, pert.stack, seq.inverse.stack, pert.inverse.stack
    P, Q = Pseq.stack, Qseq.stack

    def sup_diff(X, Y):
        return float(np.max(_diff_norms(X, Y, p)))

    eps_meas = sup_diff(B, A)
    if eps is None:
        eps_use = eps_meas
    else:
        if eps_meas > eps * (1.0 + CONTRACTION_SLACK):
            raise PreconditionError(
                f"declared perturbation bound {eps:.3g} is below the measured "
                f"difference {eps_meas:.3g}")
        eps_use = eps
    budget = perturbation_budget(C, lam, R)
    if eps_use > budget * (1.0 + 1e-12):
        raise PreconditionError(
            f"perturbation {eps_use:.3g} exceeds the admissible budget "
            f"{budget:.3g} for (C={C}, lam={lam}, R={R})")
    eps_rev = sup_diff(Bi, Ai)

    # stable side, then the unstable side on the time-reversed inverse
    # sequence: reversed step j applies the inverse of original step
    # n_ops - 1 - j, from time rev[j] into time rev[j + 1]
    zero = diag(W, np.zeros(W.length))
    Hs, it_s, fpres_s, ratio_s = _fixed_point(
        _blocks(A, Ai, B, P, Q, n_ops, nxt), n_ops, nxt, C, lam, p, period,
        "stable", zero)
    Hr, it_u, fpres_u, ratio_u = _fixed_point(
        _blocks(Ai[::-1], A[::-1], Bi[::-1], Q[rev], P[rev], n_ops, nxt),
        n_ops, nxt, C, lam, p, period, "unstable", zero)
    Hu = Hr[rev]

    Lp = series_gain(C, lam)
    eps2_fwd = 2.0 * Lp * C * eps_use
    eps2_rev = 2.0 * Lp * C * eps_rev
    h_norms = np.broadcast_to(_norms(Hs, p), (n_times,))
    hu_norms = np.broadcast_to(_norms(Hu, p), (n_times,))
    for attained, ball, label in ((float(np.max(h_norms)), eps2_fwd, "stable"),
                                  (float(np.max(hu_norms)), eps2_rev,
                                   "unstable")):
        if attained > ball * (1.0 + CONTRACTION_SLACK):
            raise ConvergenceError(
                f"{label} tilt norm {attained:.3g} left its ball {ball:.3g}")

    # a zero tilt stays the op it already is (structured on weighted
    # shifts); a nonzero tilt is densified once, for GraphMaps
    def tilts(H, norms):
        return [H[j] if z else dense(H[j].to_dense_matrix(), W)
                for j, z in enumerate(norms == 0.0)]

    # a zero tilt on both sides keeps the original pair (bit-exact, and
    # structured if it was); the others are tilted densely, all at once,
    # into dense stacks of the pairs
    tilted = np.flatnonzero((h_norms != 0.0) | (hu_norms != 0.0))
    if len(tilted):
        eye = np.eye(W.length)
        hs = Hs[tilted].to_dense_matrix()
        hu = Hu[tilted].to_dense_matrix()
        Pt = np.broadcast_to((eye + hs) @ np.linalg.inv(eye - hu @ hs) @ (
            P[tilted].to_dense_matrix() - hu @ Q[tilted].to_dense_matrix()),
            (len(tilted),) + eye.shape)
        for j, m in zip(tilted, Pt):
            try:
                ProjPair(dense(m, W), dense(eye - m, W)).validate(p=p)
            except PreconditionError as exc:
                raise ConvergenceError(
                    f"tilted pair at k={lo + j} is not a projection: "
                    f"{exc}") from exc
        P1, Q1 = (np.array(np.broadcast_to(X.to_dense_matrix(),
                                           (n_times, W.length, W.length)))
                  for X in (P, Q))
        P1[tilted], Q1[tilted] = Pt, eye - Pt
        Pseq, Qseq = (OperatorSeq(lo, dense(X, W), period) for X in (P1, Q1))
    P1, Q1 = Pseq.stack, Qseq.stack
    proj_sup = float(max(np.max(op_norm(P1, p)), np.max(op_norm(Q1, p))))
    if proj_sup > 2.0 * C * (1.0 + CONTRACTION_SLACK):
        raise ConvergenceError(
            f"tilted projection norm {proj_sup:.3g} exceeds 2C = {2 * C}")

    Pj, Qn = P1[:n_ops], Q1[nxt]
    r_f = np.broadcast_to(op_norm(Qn @ (B @ Pj), p), (n_ops,))
    r_b = np.broadcast_to(op_norm(Pj @ (Bi @ Qn), p), (n_ops,))
    incl = {lo + j: float(r) for j, r in enumerate(r_f)}
    leaking = np.flatnonzero((r_f > INCLUSION_TOL) | (r_b > INCLUSION_TOL))
    if len(leaking):
        j = leaking[0]
        raise ConvergenceError(
            f"rebuilt splitting leaks at k={lo + j}: forward {r_f[j]:.3g}, "
            f"backward {r_b[j]:.3g}")
    incl_rev_max = float(np.max(r_b))

    N = rate_upgrade_steps(C, lam, lam1)
    C1 = ((R + 1.0) / lam1) ** N
    bound = lam1 ** N * (1.0 + DECAY_SLACK)
    rng = np.random.default_rng(0)
    worst_n_step = 0.0
    c1_emp = 0.0
    skipped = 0
    checked = 0

    lam1_pows = np.array([lam1 ** n for n in range(1, N + 1)])

    def scan(side_P, ops):
        """N-step growth of the directions of one side under ``ops``.

        The directions are carried as one block by ``transport_rows``; a
        direction that trips the edge guard within N steps is skipped.
        Every kept direction's ratios |transport_n v| / |v| raise the
        empirical constant (against lam1^n) and its last one the N-step
        worst, with the bits of a scan direction by direction.
        """
        nonlocal worst_n_step, c1_emp, skipped, checked
        dirs = _directions(side_P, W, p, 6, rng)
        norms, tripped, _ = transport_rows(ops, dirs, p)
        kept = ~tripped
        ratios = norms[kept] / row_norms(dirs[kept], p)[:, None]
        skipped += int(tripped.sum())
        checked += len(ratios)
        if len(ratios):
            c1_emp = max(c1_emp, float(np.max(ratios / lam1_pows)))
            worst_n_step = max(worst_n_step, float(np.max(ratios[:, -1])))

    if period is None:
        fwd_js = [j for j in range(n_times) if j + N <= n_ops]
        bwd_js = [j for j in range(n_times) if j - N >= 0]
    else:
        fwd_js = bwd_js = list(range(n_times))
    stride = max(1, len(fwd_js) // 12)
    for j in fwd_js[::stride]:
        scan(Pseq.ops[j], [pert.ops[(j + l) % n_ops] for l in range(N)])
    stride = max(1, len(bwd_js) // 12)
    for j in bwd_js[::stride]:
        scan(Qseq.ops[j], [pert.inverse.ops[(j - 1 - l) % n_ops]
                           for l in range(N)])
    if worst_n_step > bound:
        raise ConvergenceError(
            f"{N}-step decay {worst_n_step:.6f} exceeds lam1^{N} = "
            f"{lam1 ** N:.6f}")

    R_res = float(max(np.max(_upper_norms(B, p)), np.max(_upper_norms(Bi, p))))
    result = index_cert(C1, lam1, R_res, Pseq, Qseq)

    graph = GraphMaps(
        H=dict(enumerate(tilts(Hs, h_norms), lo)),
        H_u=dict(enumerate(tilts(Hu, hu_norms), lo)),
        eps2=float(max(eps2_fwd, eps2_rev)),
        iterations=it_s + it_u,
        attained=float(max(np.max(h_norms), np.max(hu_norms))),
        fp_residual=float(max(fpres_s, fpres_u)),
        meta={"iterations_stable": it_s, "iterations_unstable": it_u},
    )
    meta = {
        "p": p,
        "eps": float(eps_use),
        "eps_measured": float(eps_meas),
        "eps_reverse": float(eps_rev),
        "budget": float(budget),
        "reverse_within_budget": bool(eps_rev <= budget * (1.0 + 1e-12)),
        "eps2_forward": float(eps2_fwd),
        "eps2_reverse": float(eps2_rev),
        "rate_steps": int(N),
        "C1_formula": float(C1),
        "C1_empirical": float(c1_emp),
        "n_step_worst": float(worst_n_step),
        "n_step_bound": float(bound),
        "decay_checked": int(checked),
        "decay_skipped": int(skipped),
        "contraction_ratio": float(max(ratio_s, ratio_u)),
        "proj_norm_sup": float(proj_sup),
        "reverse_inclusion_max": float(incl_rev_max),
        "period": period,
    }
    return PerturbedCert(base=cert, result=result, graph=graph,
                         inclusion_residuals=incl, meta=meta)


def graph_transform_seq(seq, cert, pert, lam1, *, eps=None, p=2.0):
    """Rebuild ``cert``'s splitting for ``pert`` at the relaxed rate lam1.

    Parameters
    ----------
    seq, cert : the certified sequence and its splitting certificate
        (index-keyed projections).
    pert : OperatorSeq over the same interval with ``|B_k - A_k| <= eps``.
    lam1 : target decay rate, strictly between ``cert.lam`` and 1.
    eps : declared perturbation bound; measured from the data if None.
        Declaring less than the measured difference is an error, as is a
        perturbation beyond :func:`perturbation_budget`.
    p : norm exponent, one of 1, 2, inf.

    Returns a :class:`PerturbedCert` whose ``result`` certifies the tilted
    splitting at ``(((R+1)/lam1)**N, lam1)``.
    """
    if seq.period is not None or pert.period is not None:
        raise PreconditionError(
            "use graph_transform_periodic for periodic sequences")
    return _transfer(seq, cert, pert, lam1, eps, p, None)


def graph_transform_periodic(seq, cert, pert, lam1, *, eps=None, p=2.0):
    """Periodic variant: tilted projections repeat exactly with the period.

    Both sequences must carry the same period m and the certificate's
    projections must be m-periodic; the result stores one period of pairs
    and serves ``proj_at(k + m)`` as the identical object to ``proj_at(k)``.
    """
    if seq.period is None or pert.period != seq.period:
        raise PreconditionError(
            "both sequences must be periodic with the same period")
    m = seq.period
    # the two end pairs as one-row parts, which build no per-row views
    drift = max(np.max(np.abs(b.stack.to_dense_matrix()
                              - a.stack.to_dense_matrix()))
                for a, b in zip(cert.read(seq.lo, 1), cert.read(seq.lo + m, 1)))
    if drift > 1e-12:
        raise PreconditionError(
            f"certificate projections drift by {drift:.3g} over one period")
    return _transfer(seq, cert, pert, lam1, eps, p, m)


def shadowed_splitting(f, ptraj):
    """f's splitting along the exact f-trajectory shadowing ``ptraj``
    (periodically when ``ptraj`` is periodic): ``(aseq, cert, sres)``, the
    differentials of f along the shadow for every step of ``ptraj`` (one
    period when periodic), f's certificate read there, keyed by time, and
    the :class:`shadow.ShadowResult`."""
    base = f.cert
    engine = shadow if ptraj.period is None else shadow_periodic
    sres = engine(f, ptraj, base)
    traj = sres.trajectory
    aseq = OperatorSeq(traj.lo, f.dforward_rows(traj.path[:-1]), traj.period)
    return aseq, base.along(traj), sres


def perturbed_cl_for_diffeo(f, g, orbit, lam1):
    """Splitting certificate for g along one of its orbits, built from f's.

    ``orbit`` must be a genuine g-orbit (consecutive points with
    ``y_{i+1} = g(y_i)``), a :class:`seqcore.Segment` or a sequence of
    points, checked as one block by ``g.step_gaps``: the
    error names the first break, or is a TruncationError when g carries
    a point over the window edge.  It is a pseudotrajectory of f, so
    :func:`shadowed_splitting` reads f's splitting along the exact
    f-trajectory that shadows it, which is then transferred to the
    differentials of g along the orbit.  A closed orbit (last point equal
    to the first) routes through the periodic solvers and yields exactly
    periodic projections.

    The returned certificate's ``proj_at`` is point-keyed: it accepts any
    point of the orbit (located by nearest match, to absorb round-off in
    forward/inverse round trips) and rejects points off the orbit.
    """
    if f.cert is None:
        raise PreconditionError("base system carries no splitting certificate")
    if len(orbit) < 2:
        raise PreconditionError("orbit must contain at least two points")
    whole = Segment.pack(orbit if isinstance(orbit, Segment)
                         else dict(enumerate(orbit)), None)
    rows, p = whole.rows, whole.p
    scale = 1.0 + float(row_norms(rows, p).max())
    try:
        gaps = g.step_gaps(rows)
    except TruncationError as exc:
        raise TruncationError(f"orbit breaks: {exc}") from exc
    i = int(np.argmax(gaps > 1e-11 * scale))
    if gaps[i] > 1e-11 * scale:
        raise PreconditionError(
            f"orbit breaks between entries {i} and {i + 1}: "
            f"|y_{{i+1}} - g(y_i)| = {gaps[i]:.3g}")

    closed = coeff_norm(rows[0] - rows[-1], p) <= 1e-12 * scale
    n_ops = len(rows) - 1
    period = n_ops if closed else None
    points = Segment(0, rows[:period], whole.window, p, period)
    ptraj = Pseudotrajectory(points, recompute_step_error(f, points),
                             period=period)
    aseq, base_idx, sres = shadowed_splitting(f, ptraj)
    bseq = OperatorSeq(0, g.dforward_rows(rows[:-1]), period)
    route = graph_transform_periodic if closed else graph_transform_seq
    pc = route(aseq, base_idx, bseq, lam1, p=p)

    def proj_at_point(y):
        return pc.result.proj_at(anchor_index(points.rows, y))

    result = CLCertificate(pc.result.C, pc.result.lam, pc.result.R,
                           proj_at_point)
    meta = dict(pc.meta)
    meta.update({
        "route": "periodic" if closed else "aperiodic",
        "pseudo_step_error": float(ptraj.d),
        "shadow_distance": float(sres.sup_distance),
        "shadow_iterations": int(sres.iterations),
    })
    return PerturbedCert(base=f.cert, result=result, graph=pc.graph,
                         inclusion_residuals=pc.inclusion_residuals, meta=meta)
