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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .seqcore import (
    SeqVec, coeff_norm, op_norm, compose, transport_rows,
    PreconditionError, TruncationError,
)

__all__ = [
    "ProjPair", "CLCertificate", "VerificationReport",
    "verify_cl_diffeo", "verify_cl_opseq", "verify_dichotomy",
    "verify_cocycle_cl", "constant_cert",
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
    a :class:`seqcore.Segment` by :meth:`along`.
    """

    C: float
    lam: float
    R: float
    proj_at: object
    meta: dict = field(default_factory=dict, compare=False)
    pair: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.C < 1.0:
            raise PreconditionError(f"certificate needs C >= 1, got {self.C}")
        if not 0.0 < self.lam < 1.0:
            raise PreconditionError(f"certificate needs lam in (0,1), got {self.lam}")

    def pairs_on(self, rows, window, p):
        """The pair at the point of every row of a (..., n) coefficient
        block, as nested lists of the block's leading shape.

        A constant certificate answers with its one pair and builds no
        SeqVec; any other calls ``proj_at`` on each row's point, row by row.
        """
        if rows.ndim > 2:
            return [self.pairs_on(block, window, p) for block in rows]
        if self.pair is not None:
            return [self.pair] * len(rows)
        return [self.proj_at(SeqVec(window, row, p)) for row in rows]

    def along(self, seg):
        """This certificate read along the points of a Segment: the
        index-keyed certificate whose ``proj_at(k)`` is the pair at
        ``seg[k]`` (wrapping with a periodic block), every pair read once,
        by one :meth:`pairs_on` call."""
        pairs = self.pairs_on(seg.rows, seg.window, seg.p)
        return CLCertificate(self.C, self.lam, self.R,
                             lambda k: pairs[seg.row_index(k)],
                             meta=dict(self.meta))


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


def _orbit_ops(op_at, step, x, horizon):
    """Differentials along an orbit, stopping early at the window guard."""
    ops, y = [], x
    for _ in range(horizon):
        try:
            A = op_at(y)
            y = step(y)
        except TruncationError:
            break
        ops.append(A)
    return ops


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


def _verify(cert, key, samples, local, n_dirs):
    """The loop shared by the splitting verifiers.

    ``samples`` lists ``(label, item, window, p)``: the witness label, the
    point or index whose projection pair ``cert.proj_at(item)`` is checked,
    and the space it acts on; ``key`` names the label in the witnesses.
    ``local(item, pair)`` returns the sample's one-step inclusion residual
    and its forward/backward operator lists.  Per sample the pair is
    validated, its norms and inclusion residual recorded, and unit
    directions of the stable (then unstable) image are scanned for decay
    against C lam^n, n_dirs random ones from one stream seeded with 0.
    """
    rng = np.random.default_rng(0)
    rep = VerificationReport(0.0, 0.0, 0.0, 0, False, C=cert.C, lam=cert.lam)
    for label, item, window, p in samples:
        pair = cert.proj_at(item)
        pair.validate(p=p)
        pn = max(op_norm(pair.P, p), op_norm(pair.Q, p))
        if pn > rep.max_proj_norm:
            rep.max_proj_norm = pn
            rep.witnesses["proj_norm"] = {key: label, "norm": pn}
        res, fwd_ops, bwd_ops = local(item, pair)
        if res > rep.max_inclusion_residual:
            rep.max_inclusion_residual = res
            rep.witnesses["inclusion"] = {key: label, "residual": res}
        sdirs = _directions(pair.P, window, p, n_dirs, rng)
        udirs = _directions(pair.Q, window, p, n_dirs, rng)
        ws = _decay_scan(sdirs, fwd_ops, cert.C, cert.lam, p,
                         rep.witnesses, f"decay_stable@{label}")
        wu = _decay_scan(udirs, bwd_ops, cert.C, cert.lam, p,
                         rep.witnesses, f"decay_unstable@{label}")
        rep.worst_decay_ratio = max(rep.worst_decay_ratio, ws, wu)
        rep.samples += 1 + len(sdirs) + len(udirs)
    return _merge_pass(rep)


def verify_cl_diffeo(sys, cert, points, horizon=12):
    """Check the splitting structure of a diffeomorphism at sampled points.

    Per point x: projection norms <= C; one-step leakage residuals
    |Q_{f(x)} Df(x) P_x| and |P_{f^{-1}(x)} Df^{-1}(x) Q_x| <= ALGEBRAIC_TOL;
    decay of stable directions under forward differentials and of unstable
    directions under backward differentials for n <= horizon, against
    C lam^n, over all window coordinate directions plus N_DIRS random ones.
    f, Df, f^{-1} and Df^{-1} are evaluated once at x: the residuals read
    them, and both orbit walks start one step out with them.
    """
    sampled_pairs = []

    def local(x, pair):
        sampled_pairs.append((x, pair.P))
        fx, bx = sys.forward(x), sys.inverse(x)
        dfx, dbx = sys.dforward(x), sys.dinverse(x)
        res_s = op_norm(compose(cert.proj_at(fx).Q, compose(dfx, pair.P)), x.p)
        res_u = op_norm(compose(cert.proj_at(bx).P, compose(dbx, pair.Q)), x.p)
        # forward orbit differentials / backward orbit inverse
        # differentials, shortened when the orbit reaches the window guard
        fwd = [dfx] + _orbit_ops(sys.dforward, sys.forward, fx, horizon - 1)
        bwd = [dbx] + _orbit_ops(sys.dinverse, sys.inverse, bx, horizon - 1)
        return max(res_s, res_u), fwd[:horizon], bwd[:horizon]

    samples = [(i, x, x.window, x.p) for i, x in enumerate(points)]
    rep = _verify(cert, "point", samples, local, N_DIRS)
    rep.proj_lipschitz = _proj_lipschitz(sampled_pairs, points[0].p if points else 2.0)
    return rep


def verify_cl_opseq(seq, cert, horizon=12, n_dirs=N_DIRS, p=2.0,
                    indices=None, dichotomy=False):
    """Check the splitting structure of an operator sequence.

    Indices run over the sequence interval (one period when the sequence is
    periodic).  Stable decay is checked through forward products, unstable
    decay through inverse products; horizons truncate at the interval ends
    for aperiodic sequences and wrap for periodic ones.  With
    ``dichotomy=True`` the reverse leakage residual |P_{k+1} A_k Q_k| is
    included, turning the invariance inclusions into equalities.
    """
    window = seq.ops[0].window
    # each operator is inverted once per call, however many samples'
    # backward horizons reach it
    inverses = {}

    def inverse_at(k):
        key = k if seq.period is None else (k - seq.lo) % seq.period
        if key not in inverses:
            inverses[key] = seq.op_at(k).inverse()
        return inverses[key]

    if indices is None:
        if seq.period is not None:
            indices = range(seq.lo, seq.lo + seq.period)
        else:
            indices = range(seq.lo, seq.hi + 1)

    def local(k, pair):
        res = 0.0
        if seq.period is not None or k < seq.hi:
            A = seq.op_at(k)
            pair_n = cert.proj_at(k + 1)
            res = op_norm(compose(pair_n.Q, compose(A, pair.P)), p)
            if dichotomy:
                res = max(res, op_norm(compose(pair_n.P, compose(A, pair.Q)), p))
        if seq.period is not None:
            n_fwd = n_bwd = horizon
        else:
            n_fwd = min(horizon, seq.hi - k)
            n_bwd = min(horizon, k - seq.lo)
        return (res, [seq.op_at(k + j) for j in range(n_fwd)],
                [inverse_at(k - 1 - j) for j in range(n_bwd)])

    samples = [(k, k, window, p) for k in indices]
    return _verify(cert, "index", samples, local, n_dirs)


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

    ``sys`` supplies the base map alpha (forward/inverse); ``A`` maps a
    point to the LinOp above it.  The inverse cocycle factor at x is
    (A(alpha^{-1} x))^{-1}, so unstable decay multiplies those along the
    backward orbit.  Horizon counts orbit steps.  alpha(x), alpha^{-1}(x),
    A(x) and A(alpha^{-1} x)^{-1} are evaluated once at x: the residuals
    read them, and both orbit walks start one step out with them.
    """
    def local(x, pair):
        ax, bx = sys.forward(x), sys.inverse(x)
        a_x, b_x = A(x), A(bx).inverse()
        res_s = op_norm(compose(cert.proj_at(ax).Q, compose(a_x, pair.P)), x.p)
        res_u = op_norm(compose(cert.proj_at(bx).P, compose(b_x, pair.Q)), x.p)
        fwd = [a_x] + _orbit_ops(A, sys.forward, ax, horizon - 1)
        bwd, y = [b_x], bx
        for _ in range(horizon - 1):
            try:
                y = sys.inverse(y)
            except TruncationError:
                break
            bwd.append(A(y).inverse())
        return max(res_s, res_u), fwd[:horizon], bwd[:horizon]

    samples = [(i, x, x.window, x.p) for i, x in enumerate(points)]
    return _verify(cert, "point", samples, local, N_DIRS)
