"""Windowed sequence-space vectors and structured linear operators.

Points of l^p(Z) are represented by their coefficients on a finite index
window [lo, hi]; everything outside the window is implicitly zero.  A
linear map (``LinOp``) is one of two things:

* a weighted shift by an integer s, (Av)_{k+s} = c_k v_k, with s = 0 the
  diagonal (``kind`` "diag") and s != 0 a shift (``kind`` "shift_diag");
* a dense matrix acting window -> window (``kind`` "dense").

Weighted shifts are closed under ``compose`` (shifts add), ``inverse``
(the shift changes sign), ``cocycle`` (a fold of ``compose``) and the
same-shift ``add`` / ``sub``; their ``op_norm`` is exact.  Mixed shifts in
a sum, and any dense operand, are materialized dense.  The example
families of dynamics in this package linearize to weighted shifts, so the
dense kind is only needed for perturbations.

A shift by s pushes |s| coefficients over the window edge at every
application.  Truncation is legitimate only while those coefficients are
negligible, so ``op_apply`` raises :class:`TruncationError` when the mass
it would silently drop exceeds ``LOST_TOL * (1 + |v|_inf)``.
``apply_coeffs`` is the unguarded application to a raw coefficient array
that ``op_apply`` wraps, for inner loops that account for the boundary
themselves; ``apply_rows`` applies one operator per row of a coefficient
block, and ``row_norms`` takes the norm of every row, each bit for bit the
row-by-row result.  ``anchor_index`` finds a point among the rows of an
orbit segment.

``monitored_fixed_point`` runs the contraction-monitored fixed-point
iterations of the splitting transfer and of the displacement maps.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window", "SeqVec", "LinOp", "OperatorSeq",
    "norm", "coeff_norm", "row_norms", "anchor_index", "op_apply",
    "apply_coeffs", "apply_rows", "op_norm", "cocycle",
    "compose", "add", "sub", "monitored_fixed_point",
    "dense", "diag", "shift_diag", "identity_op",
    "PreconditionError", "TruncationError", "ConvergenceError", "LOST_TOL",
]

#: mass allowed to fall off the window edge per shift application
LOST_TOL = 1e-12
#: a monitored fixed-point iteration stops once an iterate moves by at most this
FP_STOP_TOL = 1e-12
#: allowance on the residual of a converged fixed point
FP_RESIDUAL_TOL = 1e-11
#: dimensionless slack on the contraction-ratio gate
FP_RATIO_SLACK = 1e-9
#: relative distance within which a point matches a row of an orbit segment
ANCHOR_TOL = 1e-8


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class TruncationError(PreconditionError):
    """The finite window is too small for the requested computation."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance within its cap."""


@dataclass(frozen=True)
class Window:
    """Inclusive integer index range [lo, hi] standing in for Z."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise PreconditionError(f"empty window [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo + 1

    def offset(self, k):
        """Array position of sequence index k."""
        if not self.lo <= k <= self.hi:
            raise PreconditionError(f"index {k} outside window [{self.lo}, {self.hi}]")
        return k - self.lo

    def indices(self):
        return range(self.lo, self.hi + 1)

    def __contains__(self, k):
        return self.lo <= k <= self.hi


class SeqVec:
    """A vector supported on a window, tagged with its l^p convention.

    Parameters
    ----------
    window : Window
    coeffs : array_like of length ``window.length``
    p : norm exponent, a real in [1, inf) or ``math.inf``
    """

    __slots__ = ("window", "coeffs", "p")

    def __init__(self, window, coeffs, p=2.0):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (window.length,):
            raise PreconditionError(
                f"coefficient array of shape {coeffs.shape} does not fill "
                f"window of length {window.length}")
        if not (p == math.inf or p >= 1.0):
            raise PreconditionError(f"invalid norm exponent {p}")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("SeqVec is immutable")

    def __getitem__(self, k):
        return self.coeffs[self.window.offset(k)]

    def with_coeffs(self, coeffs):
        return SeqVec(self.window, coeffs, self.p)

    @classmethod
    def zero(cls, window, p=2.0):
        return cls(window, np.zeros(window.length), p)

    @classmethod
    def basis(cls, window, k, p=2.0):
        """The unit coordinate vector e_k."""
        c = np.zeros(window.length)
        c[window.offset(k)] = 1.0
        return cls(window, c, p)

    def to_json(self):
        return {"lo": self.window.lo, "coeffs": list(self.coeffs),
                "p": "inf" if self.p == math.inf else self.p}

    @classmethod
    def from_json(cls, obj):
        coeffs = np.asarray(obj["coeffs"], dtype=float)
        lo = int(obj["lo"])
        p = math.inf if obj["p"] == "inf" else float(obj["p"])
        return cls(Window(lo, lo + len(coeffs) - 1), coeffs, p)

    def __repr__(self):
        return (f"SeqVec([{self.window.lo},{self.window.hi}], "
                f"p={self.p}, |v|={norm(self):.3g})")


def norm(v):
    """l^p norm of a SeqVec (max-abs when p = inf)."""
    return coeff_norm(v.coeffs, v.p)


def coeff_norm(c, p):
    """l^p norm of a raw coefficient array."""
    if p == math.inf:
        return float(np.max(np.abs(c))) if c.size else 0.0
    if p == 2.0:
        return float(np.linalg.norm(c))
    if p == 1.0:
        return float(np.sum(np.abs(c)))
    return float(np.sum(np.abs(c) ** p) ** (1.0 / p))


def row_norms(c, p):
    """l^p norms of the rows of an (m, n) coefficient array.

    Each entry equals ``coeff_norm`` of its row bit for bit: a row times
    column ``matmul`` runs the same dot kernel as ``np.linalg.norm``, and
    the 1/p-th power of a general exponent is taken per row, as a scalar.
    """
    if p == math.inf:
        return np.max(np.abs(c), axis=-1, initial=0.0)
    if p == 2.0:
        return np.sqrt(np.matmul(c[:, None, :], c[:, :, None])[:, 0, 0])
    if p == 1.0:
        return np.sum(np.abs(c), axis=-1)
    return np.array([s ** (1.0 / p) for s in np.sum(np.abs(c) ** p, axis=-1)])


def anchor_index(rows, v):
    """Index of the first row of an (m, n) coefficient array nearest to v.

    Raises :class:`PreconditionError` when that row is more than
    ``ANCHOR_TOL * (1 + |v|)`` away, so v is not one of the rows up to
    round-off.
    """
    dists = row_norms(rows - v.coeffs, v.p)
    best = int(np.argmin(dists))
    if dists[best] > ANCHOR_TOL * (1.0 + norm(v)):
        raise PreconditionError(
            f"point is not on the certified orbit (nearest anchor is "
            f"{dists[best]:.3g} away)")
    return best


def _acting(n, s):
    """Slices of the coordinates a shift by s keeps in a window of length n,
    and of the coordinates they land on."""
    m = max(n - abs(s), 0)
    start = max(-s, 0)
    return slice(start, start + m), slice(start + s, start + s + m)


class LinOp:
    """Linear operator between two windows: a weighted shift or dense.

    A weighted shift by ``shift`` = s (any integer; s = 0 is the diagonal)
    acts on one shared window: coordinate k of the input is scaled by
    ``scalars[k - domain.lo]`` and lands on coordinate k + s, and the |s|
    coordinates that land outside the window are dropped.  A dense operator
    holds ``matrix`` of shape (codomain.length, domain.length) and has no
    scalars.  ``kind`` is the derived label "diag" (s = 0), "shift_diag"
    (s != 0) or "dense".
    """

    __slots__ = ("domain", "codomain", "matrix", "scalars", "shift")

    def __init__(self, domain, codomain, matrix=None, scalars=None, shift=0):
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.scalars = scalars
        self.shift = shift
        if matrix is not None:
            if matrix.shape != (codomain.length, domain.length):
                raise PreconditionError("dense matrix shape does not match windows")
        elif len(scalars) != domain.length or domain != codomain:
            raise PreconditionError("weighted-shift scalars must fill the (shared) window")

    @property
    def kind(self):
        if self.matrix is not None:
            return "dense"
        return "diag" if self.shift == 0 else "shift_diag"

    # -- constructors -------------------------------------------------

    def inverse(self):
        """Exact inverse of a weighted shift; numerical inverse for dense.

        The inverse of a shift by s is a shift by -s.  Only the scalars of
        the coordinates the shift keeps must be nonzero; the |s| inverse
        scalars that never act are set to 1/c at their own coordinate (1
        where c is zero), so the edge guard of ``op_apply`` still sees a
        scale there.
        """
        if self.matrix is not None:
            return dense(np.linalg.inv(self.matrix), self.codomain, self.domain)
        c, s = self.scalars, self.shift
        n = len(c)
        kept, landed = _acting(n, s)
        if np.any(c[kept] == 0.0):
            raise PreconditionError("weighted shift with a zero scalar is singular")
        # (A^{-1} w)_k = w_{k+s} / c_k: input coordinate j = k + s carries 1/c_k
        inv = np.ones(n)
        inv[landed] = 1.0 / c[kept]
        for j in range(min(s, n)) if s > 0 else range(max(n + s, 0), n):
            if c[j]:
                inv[j] = 1.0 / c[j]
        return shift_diag(self.domain, inv, -s)

    def to_dense_matrix(self):
        if self.matrix is not None:
            return self.matrix
        n = self.domain.length
        kept, _ = _acting(n, self.shift)
        cols = np.arange(n)[kept]
        m = np.zeros((n, n))
        m[cols + self.shift, cols] = self.scalars[kept]
        return m

    def to_json(self):
        if self.matrix is not None:
            params = {"matrix": [list(r) for r in self.matrix],
                      "domain": [self.domain.lo, self.domain.hi],
                      "codomain": [self.codomain.lo, self.codomain.hi]}
        else:
            params = {"scalars": list(self.scalars), "shift": self.shift,
                      "domain": [self.domain.lo, self.domain.hi]}
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj):
        params = obj["params"]
        dom = Window(*params["domain"])
        if obj["kind"] == "dense":
            return dense(np.asarray(params["matrix"], dtype=float),
                         dom, Window(*params["codomain"]))
        return shift_diag(dom, np.asarray(params["scalars"], dtype=float),
                          params.get("shift", 0))

    def __matmul__(self, other):
        return compose(self, other)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        if self.matrix is not None:
            return dense(-self.matrix, self.domain, self.codomain)
        return shift_diag(self.domain, -self.scalars, self.shift)

    def __repr__(self):
        return f"LinOp({self.kind}, [{self.domain.lo},{self.domain.hi}])"


def dense(matrix, domain, codomain=None):
    codomain = domain if codomain is None else codomain
    return LinOp(domain, codomain, matrix=np.asarray(matrix, dtype=float))


def diag(window, scalars):
    return shift_diag(window, scalars, shift=0)


def shift_diag(window, scalars, shift=1):
    """Weighted shift by ``shift``: (Av)_{k+shift} = scalars[k - lo] v_k."""
    return LinOp(window, window, scalars=np.asarray(scalars, dtype=float),
                 shift=int(shift))


def identity_op(window):
    return diag(window, np.ones(window.length))


def apply_coeffs(A, x):
    """Apply A to a raw coefficient array; a shift drops the coefficients it
    pushes over the window edge."""
    if A.matrix is not None:
        return A.matrix @ x
    if A.shift == 0:
        return A.scalars * x
    kept, landed = _acting(len(x), A.shift)
    out = np.zeros(len(x))
    out[landed] = A.scalars[kept] * x[kept]
    return out


def apply_rows(ops, rows):
    """Apply ``ops[i]`` to row i of an (m, n) coefficient array.

    The same products as ``apply_coeffs`` row by row; weighted shifts by one
    common s act as one array operation, any other mix row by row.
    """
    s = ops[0].shift
    if all(A.matrix is None and A.shift == s for A in ops):
        kept, landed = _acting(rows.shape[1], s)
        scalars = np.array([A.scalars for A in ops])
        out = np.zeros(rows.shape)
        np.multiply(scalars[:, kept], rows[:, kept], out=out[:, landed])
        return out
    return np.array([apply_coeffs(A, x) for A, x in zip(ops, rows)])


def op_apply(A, v, check_loss=True):
    """Apply A to v.  Weighted shifts never materialize a matrix.

    A shift by s drops the |s| coefficients it pushes over the window edge;
    if the largest dropped magnitude exceeds ``LOST_TOL * (1 + |v|_inf)`` a
    :class:`TruncationError` is raised (``check_loss=False`` disables the
    guard, for callers that have already accounted for the boundary).
    """
    if v.window != A.domain:
        raise PreconditionError("vector window does not match operator domain")
    if check_loss and A.matrix is None and A.shift != 0:
        kept, _ = _acting(len(v.coeffs), A.shift)
        edge = slice(kept.stop, None) if A.shift > 0 else slice(0, kept.start)
        lost = float(np.abs(A.scalars[edge] * v.coeffs[edge]).max())
        if lost > LOST_TOL * (1.0 + float(np.abs(v.coeffs).max())):
            raise TruncationError(
                f"shift drops coefficient of magnitude {lost:.3e}; "
                "window too small")
    return SeqVec(A.codomain, apply_coeffs(A, v.coeffs), v.p)


def _dense_two_norm(m):
    """Spectral norm by power iteration on m^T m, certified within 5%.

    Runs the iteration from a deterministic start plus two fixed pseudo
    random restarts, and caps the result with the interpolation bound
    sqrt(|m|_1 |m|_inf) >= |m|_2.
    """
    n = m.shape[1]
    if n == 0:
        return 0.0
    gram = m.T @ m
    best = 0.0
    rng = np.random.default_rng(12345)
    starts = [np.ones(n)] + [rng.standard_normal(n) for _ in range(2)]
    for x in starts:
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        x = x / nx
        prev = 0.0
        for _ in range(500):
            y = gram @ x
            lam = float(np.linalg.norm(y))
            if lam == 0.0:
                break
            x = y / lam
            if abs(lam - prev) <= 1e-12 * max(lam, 1.0):
                break
            prev = lam
        best = max(best, math.sqrt(lam) if lam > 0 else 0.0)
    cap = math.sqrt(float(np.max(np.sum(np.abs(m), axis=0)))
                    * float(np.max(np.sum(np.abs(m), axis=1))))
    return min(best * (1.0 + 1e-9), cap) if best > 0 else 0.0


def op_norm(A, p=2.0):
    """Operator norm of A as a map of l^p.

    Weighted shift: exactly the largest |scalar| over the coordinates that
    stay in the window, for every p (the shift is an isometry).  dense:
    exact column/row sums for p = 1 / inf, power iteration within 5% for
    p = 2; other exponents are not supported for dense operators.
    """
    if A.matrix is None:
        kept, _ = _acting(len(A.scalars), A.shift)
        return float(np.abs(A.scalars[kept]).max(initial=0.0))
    if p == 1.0:
        return float(np.max(np.sum(np.abs(A.matrix), axis=0)))
    if p == math.inf:
        return float(np.max(np.sum(np.abs(A.matrix), axis=1)))
    if p == 2.0:
        return _dense_two_norm(A.matrix)
    raise PreconditionError(f"op_norm of a dense operator for p={p} is not supported")


class OperatorSeq:
    """A two-sided-indexable family {A_k} over an integer interval.

    ``ops[k]`` maps time k to time k+1.  The interval [lo, hi] indexes the
    *time points*; operators exist for k in [lo, hi - 1].  An optional
    ``period`` m declares A_{k+m} = A_k, in which case ``op_at`` answers
    for every integer k.
    """

    def __init__(self, lo, ops, period=None):
        self.lo = lo
        self.ops = list(ops)
        self.period = period
        if period is not None and period != len(self.ops):
            raise PreconditionError("periodic OperatorSeq must hold exactly one period of ops")
        for a, b in zip(self.ops, self.ops[1:]):
            if a.codomain != b.domain:
                raise PreconditionError("consecutive operators do not chain")

    @property
    def hi(self):
        """Last time point (one past the last operator index)."""
        return self.lo + len(self.ops)

    def op_at(self, k):
        if self.period is not None:
            return self.ops[(k - self.lo) % self.period]
        if not self.lo <= k < self.hi:
            raise PreconditionError(f"no operator at index {k}")
        return self.ops[k - self.lo]

    def interval(self):
        return (self.lo, self.hi)


def cocycle(seq, k, l):
    """Two-sided cocycle Phi(k, l) of an operator sequence, as a LinOp.

    Phi(k, l) = A_{k-1} ... A_l for l < k, the identity for l = k, and
    A_k^{-1} ... A_{l-1}^{-1} for l > k: a fold of :func:`compose`, so a
    product of weighted shifts stays a weighted shift (exact up to the
    rounding of each scalar product) and any dense factor makes the product
    dense.
    """
    if k == l:
        if seq.period is None and k == seq.hi:
            return identity_op(seq.ops[-1].codomain)
        return identity_op(seq.op_at(k).domain)
    if l < k:
        factors = [seq.op_at(j) for j in range(l, k)]          # apply A_l first
    else:
        factors = [seq.op_at(j).inverse() for j in range(l - 1, k - 1, -1)]
    out = factors[0]
    for f in factors[1:]:
        out = compose(f, out)
    return out


def compose(A, B):
    """The composition A . B (B applied first).

    Two weighted shifts compose to the shift by the sum of their shifts,
    with scalar a_{k+s_B} b_k at coordinate k; a coordinate that B pushes
    over the window edge meets A extended by zero, so its scalar is zero
    (which keeps the scalars consistent with the dense view and with
    op_norm).  A product with a dense factor is materialized dense.
    """
    if B.codomain != A.domain:
        raise PreconditionError("operators do not chain")
    if A.matrix is None and B.matrix is None:
        kept, landed = _acting(len(B.scalars), B.shift)
        c = np.zeros(len(B.scalars))
        c[kept] = A.scalars[landed] * B.scalars[kept]
        return shift_diag(B.domain, c, A.shift + B.shift)
    return dense(A.to_dense_matrix() @ B.to_dense_matrix(), B.domain, A.codomain)


def _combine(A, B, ufunc):
    if A.domain != B.domain or A.codomain != B.codomain:
        raise PreconditionError("operators act between different windows")
    if A.matrix is None and B.matrix is None and A.shift == B.shift:
        return shift_diag(A.domain, ufunc(A.scalars, B.scalars), A.shift)
    return dense(ufunc(A.to_dense_matrix(), B.to_dense_matrix()),
                 A.domain, A.codomain)


def add(A, B):
    """A + B; two weighted shifts by the same s add scalar by scalar (the
    dropped edge scalars included), anything else is materialized dense."""
    return _combine(A, B, np.add)


def sub(A, B):
    """A - B, structured exactly when :func:`add` is."""
    return _combine(A, B, np.subtract)


def monitored_fixed_point(step, x0, dist, label, *, ratio_bound, ratio_floor,
                          max_iter):
    """Iterate x <- step(x) from x0, watching the contraction.

    ``dist(new, old)`` measures each move.  Once the previous move exceeds
    ``ratio_floor``, the ratio of successive moves must stay within
    ``ratio_bound`` (up to FP_RATIO_SLACK); the iteration stops at a move of
    at most FP_STOP_TOL and gives up after ``max_iter`` steps.  The last
    iterate is stepped once more and must reproduce itself to
    FP_RESIDUAL_TOL.  Every failure raises :class:`ConvergenceError` naming
    ``label``.  Returns ``(x, iterations, fp_residual, worst_ratio)``.
    """
    x = x0
    prev = None
    worst_ratio = 0.0
    for iterations in range(1, max_iter + 1):
        new = step(x)
        diff = dist(new, x)
        if prev is not None and prev > ratio_floor:
            ratio = diff / prev
            worst_ratio = max(worst_ratio, ratio)
            if ratio > ratio_bound * (1.0 + FP_RATIO_SLACK):
                raise ConvergenceError(
                    f"{label} iteration {iterations} contracted at ratio "
                    f"{ratio:.6f}, above the certified {ratio_bound:.6f}")
        x = new
        if diff <= FP_STOP_TOL:
            break
        prev = diff
    else:
        raise ConvergenceError(
            f"{label} iteration still moving by {diff:.3g} after "
            f"{max_iter} steps")
    fp_residual = dist(step(x), x)
    if fp_residual > FP_RESIDUAL_TOL:
        raise ConvergenceError(
            f"{label} fixed-point residual {fp_residual:.3g} exceeds "
            f"{FP_RESIDUAL_TOL:.0e}")
    return x, iterations, fp_residual, worst_ratio
