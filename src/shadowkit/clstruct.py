"""Projection families and verifiers for hyperbolic splitting structures.

Three graded notions are checked numerically, all phrased through a pair of
complementary projections (P, Q) supplied per point or per index:

* the splitting structure for a diffeomorphism: bounded projections,
  forward-invariant stable images and backward-invariant unstable images
  (inclusions only), and two-sided exponential decay at rate (C, lam);
* the same for a sequence of invertible operators;
* exponential dichotomy, which upgrades the inclusions to equalities --
  checked through both "reverse" residuals Q_{k+1} A_k P_k and
  P_{k+1} A_k Q_k;
* the cocycle variant along orbits of a base map alpha.

Membership of a subspace image is always tested by composing projections
(e.g. stable-to-unstable leakage is the norm of Q_next . A . P), never by
computing bases; this keeps structured operators structured.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .seqcore import (
    LinOp, OperatorSeq, SeqVec, coeff_norm, op_norm, stack_ops,
    transport_rows, PreconditionError, TruncationError,
)

__all__ = [
    "ProjPair", "CLCertificate", "VerificationReport",
    "verify_cl_diffeo", "verify_cl_opseq", "verify_dichotomy",
    "verify_cocycle_cl", "constant_cert", "index_cert",
]

ALGEBRAIC_TOL = 1e-9
DECAY_TOL = 1e-6
#: random directions scanned per projection image, beyond the coordinate ones
N_DIRS = 16


@dataclass(frozen=True)
class ProjPair:
    """Complementary projections P + Q = Id encoding a splitting."""

    P: object
    Q: object

    def validate(self, p=2.0):
        """Check complementarity (to 1e-12) and idempotence (to 1e-10)."""
        mp = self.P.to_dense_matrix()
        mq = self.Q.to_dense_matrix()
        eye = np.eye(mp.shape[0])
        if np.max(np.abs(mp + mq - eye)) > 1e-12:
            raise PreconditionError("P + Q differs from the identity")
        for m, label in ((mp, "P"), (mq, "Q")):
            if np.max(np.abs(m @ m - m)) > 1e-10:
                raise PreconditionError(f"{label} is not idempotent")
        return True


@dataclass(frozen=True)
class CLCertificate:
    """Machine form of a splitting structure: constants plus projections.

    ``proj_at`` maps a point (SeqVec) or an index (int) -- depending on
    whether the certificate accompanies a diffeomorphism or an operator
    sequence -- to a ProjPair.  ``pair`` is the one pair of a constant
    certificate (see :func:`constant_cert`), else None.  A point-keyed
    certificate is read on a block of rows by :meth:`pairs_on`, and along
    a :class:`seqcore.Segment` by :meth:`along`; an index-keyed one is
    read over an interval of times by :meth:`read`.  ``stacks`` holds the
    two time-indexed :class:`seqcore.OperatorSeq` (P, Q) whose views an
    index-keyed certificate serves as its pairs, else None.
    """

    C: float
    lam: float
    R: float
    proj_at: object
    meta: dict = field(default_factory=dict, compare=False)
    pair: object = field(default=None, compare=False)
    stacks: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.C < 1.0:
            raise PreconditionError(f"certificate needs C >= 1, got {self.C}")
        if not 0.0 < self.lam < 1.0:
            raise PreconditionError(f"certificate needs lam in (0,1), got {self.lam}")

    def pairs_on(self, rows, window, p):
        """The projections at the point of every row of a (..., n) block,
        as two operator stacks (P, Q) of the block's leading shape.

        A constant certificate answers with its one pair, which stands for
        every row, and builds no SeqVec; any other calls ``proj_at`` on
        each row's point, row by row, and stacks the pairs by
        :func:`seqcore.stack_ops`.
        """
        if self.pair is not None:
            return self.pair.P, self.pair.Q
        lead = rows.shape[:-1]
        pairs = [self.proj_at(SeqVec(window, row, p))
                 for row in rows.reshape(-1, rows.shape[-1])]
        stacks = (stack_ops([getattr(pr, side) for pr in pairs])
                  for side in "PQ")
        # the flat stacks, given the block's leading shape
        return tuple(LinOp(A.shift, A.data.reshape(lead + A.data.shape[1:]),
                           A.window) if A.lead else A for A in stacks)

    def along(self, seg):
        """This certificate read along the points of a Segment: the
        index-keyed certificate whose ``proj_at(k)`` is the pair at
        ``seg[k]`` (wrapping with a periodic block), every pair read once,
        by one :meth:`pairs_on` call; a constant certificate stays
        constant."""
        if self.pair is not None:
            return self
        P, Q = (OperatorSeq.of(seg.lo, X, len(seg), seg.period)
                for X in self.pairs_on(seg.rows, seg.window, seg.p))
        return index_cert(self.C, self.lam, self.R, P, Q, **self.meta)

    def read(self, lo, count, period=None):
        """The pairs at the times lo .. lo + count - 1 of an index-keyed
        certificate, as two time-indexed :class:`seqcore.OperatorSeq`
        (P, Q) from lo with the ``period`` given: parts of ``stacks`` when
        the certificate holds them, the one pair of a constant certificate
        at every time, or else one ``proj_at`` per time, stacked once."""
        if self.stacks is not None:
            return tuple(X.part(lo, count, period) for X in self.stacks)
        pairs = ([self.pair] * count if self.pair is not None
                 else [self.proj_at(k) for k in range(lo, lo + count)])
        return tuple(OperatorSeq(lo, [getattr(pr, side) for pr in pairs],
                                 period) for side in "PQ")


def index_cert(C, lam, R, P, Q, **meta):
    """Index-keyed certificate whose pair at time k is the views
    ``(P.op_at(k), Q.op_at(k))`` of two time-indexed OperatorSeqs, one
    pair object per row (so a periodic pair repeats as the same object)."""
    pair = functools.cache(lambda i: ProjPair(P.ops[i], Q.ops[i]))
    return CLCertificate(C, lam, R, lambda k: pair(P.row_index(k)),
                         meta=dict(meta), stacks=(P, Q))


def constant_cert(C, lam, R, P, Q, **meta):
    """Certificate whose projections do not depend on the point/index."""
    pair = ProjPair(P, Q)
    return CLCertificate(C, lam, R, lambda _x: pair, meta=dict(meta),
                         pair=pair)


@dataclass
class VerificationReport:
    max_proj_norm: float
    max_inclusion_residual: float
    worst_decay_ratio: float
    samples: int
    passed: bool
    C: float = math.nan
    lam: float = math.nan
    tol: float = ALGEBRAIC_TOL
    decay_tol: float = DECAY_TOL
    witnesses: dict = field(default_factory=dict)
    proj_lipschitz: float = math.nan
    notes: str = ""

    def to_json(self):
        d = {
            "max_proj_norm": self.max_proj_norm,
            "max_inclusion_residual": self.max_inclusion_residual,
            "worst_decay_ratio": self.worst_decay_ratio,
            "samples": self.samples,
            "pass": self.passed,
            "C": self.C, "lam": self.lam,
            "tol": self.tol, "decay_tol": self.decay_tol,
            "witnesses": self.witnesses,
            "notes": self.notes,
        }
        if not math.isnan(self.proj_lipschitz):
            d["proj_lipschitz"] = self.proj_lipschitz
        return json.dumps(d)


def _merge_pass(report):
    report.passed = (
        report.max_proj_norm <= report.C * (1 + report.decay_tol)
        and report.max_inclusion_residual <= report.tol
        and report.worst_decay_ratio <= 1 + report.decay_tol
    )
    return report


def _directions(pair_side, window, p, n_dirs, rng):
    """Unit directions spanning the image of a projection, as the rows of
    an (m, n) array: every projected coordinate vector of norm above 1e-14,
    then those of n_dirs random projected vectors of norm above 1e-12.

    The coordinate vectors and the random ones, drawn as one
    ``rng.standard_normal((n_dirs, n))`` (the stream of n_dirs draws of n),
    are projected as one block by ``transport_rows``, each row with the
    bits of ``op_apply``.  A projection whose edge guard trips on some row
    raises :class:`TruncationError`, as ``op_apply`` would.
    """
    if pair_side.window != window:
        raise PreconditionError("vector window does not match operator domain")
    n = window.length
    rows = np.vstack([np.eye(n), rng.standard_normal((n_dirs, n))])
    norms, tripped, images = transport_rows([pair_side], rows, p)
    if tripped.any():
        raise TruncationError(
            "projection drops boundary mass from a direction; window too small")
    nv = norms[:, 0]
    keep = nv > np.where(np.arange(len(rows)) < n, 1e-14, 1e-12)
    return images[keep] / nv[keep, None]


def _decay_scan(dirs, ops, C, lam, p, witnesses, label):
    """Worst ratio |transport_n v| / (C lam^n) over unit dirs and n <= len(ops).

    ``dirs`` holds the unit directions as the rows of an (m, n) array;
    ``ops`` is the list of operators applied in order (already the right
    direction: forward differentials for stable, backward inverses for
    unstable), carried over all the directions at once by
    ``transport_rows``.  A direction whose transport reaches the window
    edge is scanned up to that step only -- dropping boundary mass silently
    could fake decay.  The witness is the first maximal ratio in
    (direction, step) order, the one a scan direction by direction keeps.
    """
    if not len(ops) or not len(dirs):
        return 0.0
    norms, _, _ = transport_rows(ops, dirs, p)
    ratios = norms / np.array([C * lam ** n for n in range(1, len(ops) + 1)])
    ratios[np.isnan(ratios)] = -np.inf
    at = int(np.argmax(ratios))
    worst = float(ratios.flat[at])
    if not worst > 0.0:
        return 0.0
    i, n = divmod(at, len(ops))
    witnesses[label] = {"direction": i, "n": n + 1, "ratio": worst}
    return worst


def _trips(step, rows):
    """Whether ``step`` trips the truncation guard on a block of rows."""
    try:
        step(rows)
    except TruncationError:
        return True
    return False


def _lockstep(step, xs, horizon):
    """The orbit walks of all the rows of a (k, n) block xs, in lockstep.

    ``step`` maps a block of rows to ``(next rows, operator stack)``, one
    row-map call for all live rows.  Returns the rows and the stack of the
    first step, which a trip of the guard there aborts, and per start the
    list of the operators of its first ``horizon`` steps.  A start retires
    before the step that would trip the guard on it, as ``transport_rows``
    retires rows, and its list ends there: by the row maps' contract a
    block trips exactly when some row alone does, so on a trip the rows
    are tried one by one and the others step on, each with its own bits.
    """
    first, first_ops = step(xs)
    walks = [[first_ops[i]] for i in range(len(xs))]
    live, ys = np.arange(len(xs)), first
    for _ in range(horizon - 1):
        try:
            ys, ops = step(ys)
        except TruncationError:
            kept = [i for i in range(len(ys)) if not _trips(step, ys[i:i + 1])]
            if not kept:
                break
            live, (ys, ops) = live[kept], step(ys[kept])
        for j, i in enumerate(live):
            walks[i].append(ops[j])
    return first, first_ops, [w[:horizon] for w in walks]


def _proj_lipschitz(pairs_pts, p):
    """Crude Lipschitz estimate of x -> P_x over consecutive sampled pairs.

    Recorded for diagnostics only (the continuity hypothesis has no finite
    certificate); never asserted.
    """
    worst = 0.0
    for (x1, P1), (x2, P2) in zip(pairs_pts, pairs_pts[1:]):
        dx = coeff_norm(x1.coeffs - x2.coeffs, p)
        if dx < 1e-12:
            continue
        dP = np.max(np.abs(P1.to_dense_matrix() - P2.to_dense_matrix()))
        worst = max(worst, dP / dx)
    return worst


def _verify(cert, key, labels, P, Q, residuals, walks, window, p, n_dirs):
    """The loop shared by the splitting verifiers.

    Sample i is labelled ``labels[i]`` (``key`` names the label in the
    witnesses) and acts on ``window`` in l^p; its projection pair is
    ``(P[i], Q[i])``, rows of two stacks over the samples (one operator
    stands for every sample), ``residuals[i]`` its one-step inclusion
    residual and ``walks(i)`` its forward/backward operator lists.  The
    pair norms of all the samples are one lockstep ``op_norm`` per side,
    each entry with the bits of its own.  Per sample the pair is
    validated, its norm and inclusion residual recorded, and unit
    directions of the stable (then unstable) image are scanned for decay
    against C lam^n, n_dirs random ones from one stream seeded with 0.
    """
    rng = np.random.default_rng(0)
    rep = VerificationReport(0.0, 0.0, 0.0, 0, False, C=cert.C, lam=cert.lam)
    norms = np.broadcast_to(np.maximum(op_norm(P, p), op_norm(Q, p)),
                            (len(labels),))
    residuals = np.broadcast_to(residuals, (len(labels),))
    for i, label in enumerate(labels):
        pair = ProjPair(P[i], Q[i])
        pair.validate(p=p)
        pn = float(norms[i])
        if pn > rep.max_proj_norm:
            rep.max_proj_norm = pn
            rep.witnesses["proj_norm"] = {key: label, "norm": pn}
        res = float(residuals[i])
        if res > rep.max_inclusion_residual:
            rep.max_inclusion_residual = res
            rep.witnesses["inclusion"] = {key: label, "residual": res}
        fwd_ops, bwd_ops = walks(i)
        sdirs = _directions(pair.P, window, p, n_dirs, rng)
        udirs = _directions(pair.Q, window, p, n_dirs, rng)
        ws = _decay_scan(sdirs, fwd_ops, cert.C, cert.lam, p,
                         rep.witnesses, f"decay_stable@{label}")
        wu = _decay_scan(udirs, bwd_ops, cert.C, cert.lam, p,
                         rep.witnesses, f"decay_unstable@{label}")
        rep.worst_decay_ratio = max(rep.worst_decay_ratio, ws, wu)
        rep.samples += 1 + len(sdirs) + len(udirs)
    return _merge_pass(rep)


def _verify_orbits(sys, cert, points, horizon, forward, backward):
    """The loop shared by the point-keyed verifiers: the orbits of all the
    points walked in lockstep by :func:`_lockstep`, ``forward`` and
    ``backward`` being its steps, and the residuals |Q_{x+} A P_x| and
    |P_{x-} B Q_x| of all the points, read from the first step of each
    walk, (x+, A) and (x-, B), as one lockstep ``op_norm`` each.  Returns
    the report and the stable projections at the points."""
    p = points[0].p
    xs = np.reshape([x.coeffs for x in points],
                    (len(points), sys.window.length))
    fxs, dfs, fwd = _lockstep(forward, xs, horizon)
    bxs, dbs, bwd = _lockstep(backward, xs, horizon)
    P, Q = cert.pairs_on(xs, sys.window, p)
    fQ = cert.pairs_on(fxs, sys.window, sys.p)[1]
    bP = cert.pairs_on(bxs, sys.window, sys.p)[0]
    residuals = np.maximum(op_norm(fQ @ (dfs @ P), p),
                           op_norm(bP @ (dbs @ Q), p))
    rep = _verify(cert, "point", range(len(points)), P, Q, residuals,
                  lambda i: (fwd[i], bwd[i]), sys.window, p, N_DIRS)
    return rep, P


def verify_cl_diffeo(sys, cert, points, horizon=12):
    """Check the splitting structure of a diffeomorphism at sampled points.

    Per point x: projection norms <= C; one-step leakage residuals
    |Q_{f(x)} Df(x) P_x| and |P_{f^{-1}(x)} Df^{-1}(x) Q_x| <= ALGEBRAIC_TOL;
    decay of stable directions under forward differentials and of unstable
    directions under backward differentials for n <= horizon, against
    C lam^n, over all window coordinate directions plus N_DIRS random ones.
    The forward and backward orbits of all the points are walked in
    lockstep, one ``forward_rows`` and one ``dforward_rows`` call per
    forward step and one ``inverse_diff_rows`` call per backward step; the
    residuals read f, Df, f^{-1} and Df^{-1} at x from the first step of
    each walk.
    """
    rep, P = _verify_orbits(
        sys, cert, points, horizon,
        lambda ys: (sys.forward_rows(ys), sys.dforward_rows(ys)),
        sys.inverse_diff_rows)
    rep.proj_lipschitz = _proj_lipschitz(
        [(x, P[i]) for i, x in enumerate(points)], points[0].p)
    return rep


def verify_cl_opseq(seq, cert, horizon=12, n_dirs=N_DIRS, p=2.0,
                    indices=None, dichotomy=False):
    """Check the splitting structure of an operator sequence.

    Indices run over the sequence interval (one period when the sequence is
    periodic).  Stable decay is checked through forward products, unstable
    decay through inverse products; horizons truncate at the interval ends
    for aperiodic sequences and wrap for periodic ones.  With
    ``dichotomy=True`` the reverse leakage residual |P_{k+1} A_k Q_k| is
    included, turning the invariance inclusions into equalities.  The
    pairs are read once over the samples' times (:meth:`CLCertificate.read`),
    the steps and their inverses come from the sequence's stacks, and the
    leakage residuals of all the samples are one lockstep ``op_norm`` of
    a stack per kind.
    """
    if indices is None:
        if seq.period is not None:
            indices = range(seq.lo, seq.lo + seq.period)
        else:
            indices = range(seq.lo, seq.hi + 1)
    ks = np.array(indices)
    k0 = int(ks.min())
    # every sample reads its pair and, where it has a step, the next one
    has_step = (ks < seq.hi) | (seq.period is not None)
    P, Q = cert.read(k0, int(ks.max()) - k0 + 1 + bool(has_step[ks.argmax()]))
    residuals = np.zeros(len(ks))
    if has_step.any():
        steps = ks[has_step]
        A, i = seq.stack[(steps - seq.lo) % seq.count], steps - k0
        res = op_norm(Q.stack[i + 1] @ (A @ P.stack[i]), p)
        if dichotomy:
            res = np.maximum(res, op_norm(P.stack[i + 1] @ (A @ Q.stack[i]), p))
        residuals[has_step] = res

    def walks(i):
        k = int(ks[i])
        if seq.period is not None:
            n_fwd = n_bwd = horizon
        else:
            n_fwd = min(horizon, seq.hi - k)
            n_bwd = min(horizon, k - seq.lo)
        return ([seq.op_at(k + j) for j in range(n_fwd)],
                [seq.inverse.op_at(k - 1 - j) for j in range(n_bwd)])

    return _verify(cert, "index", [int(k) for k in ks], P.stack[ks - k0],
                   Q.stack[ks - k0], residuals, walks, seq.stack.window, p,
                   n_dirs)


def verify_dichotomy(seq, cert, side="Z", horizon=12, p=2.0):
    """Exponential dichotomy check on Z+, Z- or Z (within the interval).

    Same checks as verify_cl_opseq plus the reverse leakage residual, so a
    merely-included (not equal) invariant family fails here while passing
    the plain splitting check.
    """
    if side not in ("Z", "Z+", "Z-"):
        raise PreconditionError(f"side must be 'Z', 'Z+' or 'Z-', got {side!r}")
    if seq.period is not None:
        indices = range(seq.lo, seq.lo + seq.period)
    else:
        lo, hi = seq.lo, seq.hi
        if side == "Z+":
            lo = max(lo, 0)
        elif side == "Z-":
            hi = min(hi, 0)
        if lo > hi:
            raise PreconditionError(f"interval does not meet {side}")
        indices = range(lo, hi + 1)
    rep = verify_cl_opseq(seq, cert, horizon=horizon, p=p, indices=indices,
                          dichotomy=True)
    rep.notes = f"dichotomy check on {side}"
    return rep


def verify_cocycle_cl(sys, A, cert, points, horizon=12):
    """Check the cocycle splitting property of a pair (alpha, A).

    ``sys`` supplies the base map alpha (``forward_rows``/``inverse_rows``);
    ``A`` maps a (k, n) block of points to the stack of the operators above
    them (one operator stands for every row).  The inverse cocycle factor
    at x is (A(alpha^{-1} x))^{-1}, so unstable decay multiplies those
    along the backward orbit.  Horizon counts orbit steps.  Both orbits of
    all the points are walked in lockstep, one alpha (or alpha^{-1}) and
    one A call per step, as :func:`verify_cl_diffeo` walks them; the
    residuals read alpha(x), alpha^{-1}(x), A(x) and A(alpha^{-1} x)^{-1}
    from the first step of each walk.
    """
    def backward(ys):
        zs = sys.inverse_rows(ys)
        return zs, A(zs).inverse()

    return _verify_orbits(sys, cert, points, horizon,
                          lambda ys: (sys.forward_rows(ys), A(ys)),
                          backward)[0]
