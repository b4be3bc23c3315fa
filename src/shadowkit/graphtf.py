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

The whole construction runs on :class:`seqcore.LinOp` operands, so on
weighted shifts with diagonal projections every block, iterate and norm
is a weighted shift, O(n) per product, and only the nonzero final tilts
are materialized; a zero tilt stays structured.  One dense operand (a
dense perturbation, dense projections) makes the products it enters
dense, by the same matrix products in the same order; that path is
admitted only while its estimated memory, ``_dense_bytes``, stays below
``MAX_DENSE_BYTES``.

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
                      anchor_index, compose, dense, diag,
                      monitored_fixed_point, norm as vec_norm, op_norm,
                      row_norms, sub, transport_rows)
from .clstruct import CLCertificate, ProjPair, _directions
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

_NORM_ORDS = {1.0: 1, 2.0: 2, math.inf: np.inf}


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
        """``(k, |H_k|, inclusion residual)`` rows, ascending in k."""
        p = self.meta.get("p", 2.0)
        return [(k, op_norm(self.graph.H[k], p), self.inclusion_residuals[k])
                for k in sorted(self.inclusion_residuals)]

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


def _norm(op, p):
    """Exact l^p operator norm: seqcore's for a weighted shift, numpy's
    (the SVD for p = 2) for a dense matrix."""
    if op.matrix is None:
        return op_norm(op, p)
    return float(np.linalg.norm(op.matrix, _NORM_ORDS[p]))


def _diff_norm(b_op, a_op, p):
    """|B - A|, with the difference taken by :func:`seqcore.sub`.

    For two weighted shifts by the same s the difference is one too, and
    its norm is the largest scalar gap -- including the gaps at the
    coordinates the dense zero-extended view drops at the window edge.
    """
    d = sub(b_op, a_op)
    if d.matrix is None:
        return float(np.max(np.abs(d.scalars)))
    return _norm(d, p)


def _is_zero(op):
    """Whether op is the zero operator (its dense view holds no nonzero)."""
    if op.matrix is not None:
        return not op.matrix.any()
    return op_norm(op) == 0.0


def _dense_bytes(n_ops, n):
    """Bytes the dense transfer holds for ``n_ops`` steps on a window of
    length n: 28 n x n float64 arrays per step.  The all-dense transfer
    allocates 22.5 to 25.6 per step (inverses, projections, both sides'
    blocks and iterates; the tracemalloc peak of robustness's route with
    6 to 24 steps on windows of 21 to 161), and the caller holds the two
    input operators."""
    return 28 * n_ops * n * n * 8


def _blocks(A, Ai, B, P, Q):
    """Split each step into stable/unstable components against (P, Q)."""
    n_times = len(P)
    out = {name: [] for name in ("Z", "Ass", "Aus", "Bsu", "Dss", "Dus", "Duu")}
    for j in range(len(A)):
        nj = (j + 1) % n_times
        Pj, Qj, Pn, Qn = P[j], Q[j], P[nj], Q[nj]
        D = B[j] - A[j]
        out["Z"].append(Ai[j] @ Qn)
        out["Ass"].append(Pn @ A[j] @ Pj)
        out["Aus"].append(Pn @ A[j] @ Qj)
        out["Bsu"].append(Qn @ B[j] @ Pj)
        out["Dss"].append(Pn @ D @ Pj)
        out["Dus"].append(Pn @ D @ Qj)
        out["Duu"].append(Qn @ D @ Qj)
    return out


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


def _fixed_point(blk, C, lam, p, period, label):
    """Iterate H -> series(Q-update(H)) from H = 0 until it stabilizes.

    The update is certified 1/2-contracting, which the monitor enforces;
    returns ``(H, iterations, fp_residual, worst_ratio)``.
    """
    n_ops = len(blk["Z"])
    n_times = n_ops if period else n_ops + 1
    W = blk["Z"][0].domain
    zero = diag(W, np.zeros(W.length))

    def q_step(H):
        S = []
        for j in range(n_ops):
            Hn = H[(j + 1) % n_times]
            rhs = (-blk["Bsu"][j] - blk["Duu"][j] @ H[j]
                   + Hn @ (blk["Aus"][j] @ H[j])
                   + Hn @ blk["Dss"][j]
                   + Hn @ (blk["Dus"][j] @ H[j]))
            S.append(blk["Z"][j] @ rhs)
        return S

    def apply_series(S):
        new = [None] * n_times
        if period is None:
            # the finite backward sweep sums the whole series exactly;
            # at the last time there are no later terms to pick up
            new[n_ops] = zero
            for j in range(n_ops - 1, -1, -1):
                new[j] = S[j] + blk["Z"][j] @ new[j + 1] @ blk["Ass"][j]
            return new
        T = _series_terms(C, lam, max(_norm(s, p) for s in S))
        for j in range(n_times):
            acc = S[j]
            left = None
            right = None
            for l in range(1, T):
                zi = (j + l - 1) % n_ops
                left = blk["Z"][zi] if left is None else left @ blk["Z"][zi]
                right = blk["Ass"][zi] if right is None else blk["Ass"][zi] @ right
                acc = acc + left @ S[(j + l) % n_ops] @ right
            new[j] = acc
        return new

    return monitored_fixed_point(
        lambda H: apply_series(q_step(H)), [zero] * n_times,
        lambda new, H: max(_norm(new[j] - H[j], p) for j in range(n_times)),
        f"{label} graph", ratio_bound=0.5, ratio_floor=1e-13,
        max_iter=MAX_FP_ITERATIONS)


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
    if n_ops < 1:
        raise PreconditionError("sequence holds no operators")
    C, lam, R = cert.C, cert.lam, cert.R
    n_times = n_ops if period else n_ops + 1
    ks = [lo + j for j in range(n_times)]
    W = seq.op_at(lo).domain

    a_ops = [seq.op_at(lo + j) for j in range(n_ops)]
    b_ops = [pert.op_at(lo + j) for j in range(n_ops)]
    base_pairs = [cert.proj_at(k) for k in ks]
    P = [pr.P for pr in base_pairs]
    Q = [pr.Q for pr in base_pairs]
    # weighted shifts stay structured; one dense operand makes the blocks
    # and iterates dense, so admit that path only within its memory cap
    if any(op.matrix is not None for op in (*a_ops, *b_ops, *P, *Q)):
        need = _dense_bytes(n_ops, W.length)
        if need > MAX_DENSE_BYTES:
            raise PreconditionError(
                f"dense splitting transfer over {n_ops} steps on a window of "
                f"{W.length} needs about {need} bytes, above the cap "
                f"{MAX_DENSE_BYTES}")
    a_inv = [op.inverse() for op in a_ops]
    b_inv = [op.inverse() for op in b_ops]

    eps_meas = max(_diff_norm(b_ops[j], a_ops[j], p) for j in range(n_ops))
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
    eps_rev = max(_diff_norm(b_inv[j], a_inv[j], p) for j in range(n_ops))

    # stable side, then the unstable side on the time-reversed inverse
    # sequence: reversed time j sits at time (n_ops - j) mod n_times, and its
    # step applies the inverse of the original step into that time point
    def reverse(xs):
        return [xs[(n_ops - j) % n_times] for j in range(n_times)]

    fwd = _blocks(a_ops, a_inv, b_ops, P, Q)
    rev = _blocks(a_inv[::-1], a_ops[::-1], b_inv[::-1], reverse(Q),
                  reverse(P))
    Hs, it_s, fpres_s, ratio_s = _fixed_point(fwd, C, lam, p, period, "stable")
    Hr, it_u, fpres_u, ratio_u = _fixed_point(rev, C, lam, p, period, "unstable")
    Hu = reverse(Hr)

    Lp = series_gain(C, lam)
    eps2_fwd = 2.0 * Lp * C * eps_use
    eps2_rev = 2.0 * Lp * C * eps_rev
    h_norms = [_norm(Hs[j], p) for j in range(n_times)]
    hu_norms = [_norm(Hu[j], p) for j in range(n_times)]
    for attained, ball, label in ((max(h_norms), eps2_fwd, "stable"),
                                  (max(hu_norms), eps2_rev, "unstable")):
        if attained > ball * (1.0 + CONTRACTION_SLACK):
            raise ConvergenceError(
                f"{label} tilt norm {attained:.3g} left its ball {ball:.3g}")

    # a zero tilt stays the op it already is (structured on weighted
    # shifts); a nonzero tilt is densified once, for GraphMaps and its pair
    Hs = [H if _is_zero(H) else dense(H.to_dense_matrix(), W) for H in Hs]
    Hu = [H if _is_zero(H) else dense(H.to_dense_matrix(), W) for H in Hu]
    eye = np.eye(W.length)
    pairs = []
    for j in range(n_times):
        if _is_zero(Hs[j]) and _is_zero(Hu[j]):
            # zero tilt on both sides: the splitting is unchanged, so keep
            # the original pair (bit-exact, and structured if it was)
            pairs.append(base_pairs[j])
            continue
        hs, hu = Hs[j].to_dense_matrix(), Hu[j].to_dense_matrix()
        tilt = np.linalg.inv(eye - hu @ hs)
        Pt = (eye + hs) @ tilt @ (P[j].to_dense_matrix()
                                  - hu @ Q[j].to_dense_matrix())
        pair = ProjPair(dense(Pt, W), dense(eye - Pt, W))
        try:
            pair.validate(p=p)
        except PreconditionError as exc:
            raise ConvergenceError(
                f"tilted pair at k={ks[j]} is not a projection: {exc}") from exc
        pairs.append(pair)
    proj_sup = max(max(op_norm(pr.P, p), op_norm(pr.Q, p)) for pr in pairs)
    if proj_sup > 2.0 * C * (1.0 + CONTRACTION_SLACK):
        raise ConvergenceError(
            f"tilted projection norm {proj_sup:.3g} exceeds 2C = {2 * C}")

    incl = {}
    incl_rev_max = 0.0
    for j in range(n_ops):
        nj = (j + 1) % n_times
        r_f = float(op_norm(compose(pairs[nj].Q, compose(b_ops[j], pairs[j].P)), p))
        r_b = float(op_norm(compose(pairs[j].P, compose(b_inv[j], pairs[nj].Q)), p))
        incl[lo + j] = r_f
        incl_rev_max = max(incl_rev_max, r_b)
        if max(r_f, r_b) > INCLUSION_TOL:
            raise ConvergenceError(
                f"rebuilt splitting leaks at k={lo + j}: forward {r_f:.3g}, "
                f"backward {r_b:.3g}")

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
        scan(pairs[j].P, [b_ops[(j + l) % n_ops] for l in range(N)])
    stride = max(1, len(bwd_js) // 12)
    for j in bwd_js[::stride]:
        scan(pairs[j].Q, [b_inv[(j - 1 - l) % n_ops] for l in range(N)])
    if worst_n_step > bound:
        raise ConvergenceError(
            f"{N}-step decay {worst_n_step:.6f} exceeds lam1^{N} = "
            f"{lam1 ** N:.6f}")

    R_res = max(max(op_norm(op, p) for op in b_ops),
                max(op_norm(op, p) for op in b_inv))
    pair_by_time = dict(zip(ks, pairs))
    if period is None:
        proj_fn = pair_by_time.__getitem__
    else:
        def proj_fn(k):
            return pair_by_time[lo + (k - lo) % period]
    result = CLCertificate(C1, lam1, R_res, proj_fn)

    graph = GraphMaps(
        H=dict(zip(ks, Hs)),
        H_u=dict(zip(ks, Hu)),
        eps2=float(max(eps2_fwd, eps2_rev)),
        iterations=it_s + it_u,
        attained=float(max(max(h_norms), max(hu_norms))),
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
    first, wrapped = cert.proj_at(seq.lo), cert.proj_at(seq.lo + m)
    drift = max(
        np.max(np.abs(wrapped.P.to_dense_matrix() - first.P.to_dense_matrix())),
        np.max(np.abs(wrapped.Q.to_dense_matrix() - first.Q.to_dense_matrix())))
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
    base, lo, period = f.cert, ptraj.lo, ptraj.period
    sres = (shadow if period is None else shadow_periodic)(f, ptraj, base)
    times = range(lo, lo + (period or ptraj.hi - lo) + 1)
    xs = {k: sres.point_at(k) for k in times}
    aseq = OperatorSeq(lo, [f.dforward(xs[k]) for k in times[:-1]],
                       period=period)
    return aseq, CLCertificate(base.C, base.lam, base.R,
                               lambda k: base.proj_at(xs[k])), sres


def perturbed_cl_for_diffeo(f, g, orbit, lam1):
    """Splitting certificate for g along one of its orbits, built from f's.

    ``orbit`` must be a genuine g-orbit (consecutive points with
    ``y_{i+1} = g(y_i)``).  It is a pseudotrajectory of f, so
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
    pts = list(orbit)
    if len(pts) < 2:
        raise PreconditionError("orbit must contain at least two points")
    p = pts[0].p
    scale = 1.0 + max(vec_norm(pt) for pt in pts)
    for i in range(len(pts) - 1):
        fy = g.forward(pts[i])
        gap = vec_norm(pts[i + 1].with_coeffs(pts[i + 1].coeffs - fy.coeffs))
        if gap > 1e-11 * scale:
            raise PreconditionError(
                f"orbit breaks between entries {i} and {i + 1}: "
                f"|y_{{i+1}} - g(y_i)| = {gap:.3g}")

    closed = vec_norm(pts[0].with_coeffs(
        pts[0].coeffs - pts[-1].coeffs)) <= 1e-12 * scale
    n_ops = len(pts) - 1
    period = n_ops if closed else None
    points = dict(enumerate(pts[:n_ops] if closed else pts))
    ptraj = Pseudotrajectory(
        points, recompute_step_error(f, points, period=period), period=period)
    aseq, base_idx, sres = shadowed_splitting(f, ptraj)
    bseq = OperatorSeq(0, [g.dforward(pts[k]) for k in range(n_ops)],
                       period=period)
    route = graph_transform_periodic if closed else graph_transform_seq
    pc = route(aseq, base_idx, bseq, lam1, p=p)

    anchors = np.array([y.coeffs for y in (pts[:period] if closed else pts)])

    def proj_at_point(y):
        return pc.result.proj_at(anchor_index(anchors, y))

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
