"""Windowed sequence-space vectors and structured linear operators.

Points of l^p(Z) are represented by their coefficients on a finite index
window [lo, hi]; everything outside the window is implicitly zero.  Linear
maps come in three kinds:

* ``Dense``     -- an explicit matrix acting window -> window,
* ``Diag``      -- coordinate-wise scaling (Av)_k = c_k v_k,
* ``ShiftDiag`` -- unit shift composed with scaling, (Av)_{k+s} = c_k v_k
  with s = +1 or -1.

Diag and ShiftDiag have exact inverses; both example families of dynamics
in this package linearize to ShiftDiag or Diag operators, so the dense
kind is only needed for perturbations and for materialized cocycles.

A ShiftDiag pushes one coefficient over the window edge at every
application.  Truncation is legitimate only while that coefficient is
negligible, so ``op_apply`` raises :class:`TruncationError` when the mass
it would silently drop exceeds ``LOST_TOL * (1 + |v|_inf)``.
``apply_coeffs`` is the unguarded application to a raw coefficient array
that ``op_apply`` wraps, for inner loops that account for the boundary
themselves.

``monitored_fixed_point`` runs the contraction-monitored fixed-point
iterations of the splitting transfer and of the displacement maps.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window", "SeqVec", "LinOp", "OperatorSeq",
    "norm", "coeff_norm", "op_apply", "apply_coeffs", "op_norm", "cocycle",
    "compose", "monitored_fixed_point",
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


class LinOp:
    """Structured linear operator between two windows.

    ``kind`` is one of "dense", "diag", "shift_diag".  Parameters:

    * dense: ``matrix`` of shape (codomain.length, domain.length)
    * diag: ``scalars[j]`` multiplies coordinate ``domain.lo + j``
    * shift_diag: ``shift`` in {+1, -1}; coordinate k of the input is
      scaled by ``scalars[k - domain.lo]`` and lands on coordinate k+shift.
    """

    __slots__ = ("kind", "domain", "codomain", "matrix", "scalars", "shift")

    def __init__(self, kind, domain, codomain, matrix=None, scalars=None, shift=0):
        self.kind = kind
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.scalars = scalars
        self.shift = shift
        if kind == "dense":
            if matrix.shape != (codomain.length, domain.length):
                raise PreconditionError("dense matrix shape does not match windows")
        elif kind == "diag":
            if len(scalars) != domain.length or domain != codomain:
                raise PreconditionError("diag scalars must fill the (shared) window")
        elif kind == "shift_diag":
            if shift not in (1, -1):
                raise PreconditionError("shift_diag shift must be +1 or -1")
            if len(scalars) != domain.length or domain != codomain:
                raise PreconditionError("shift_diag scalars must fill the (shared) window")
        else:
            raise PreconditionError(f"unknown LinOp kind {kind!r}")

    # -- constructors -------------------------------------------------

    def inverse(self):
        """Exact inverse for diag/shift_diag; numerical inverse for dense."""
        if self.kind == "diag":
            if np.any(self.scalars == 0.0):
                raise PreconditionError("diag operator with zero scalar is singular")
            return diag(self.domain, 1.0 / self.scalars)
        if self.kind == "shift_diag":
            s = self.shift
            c = self.scalars
            # the scalar of the coordinate pushed over the window edge never
            # acts (compose zeroes it), so only the others must be nonzero
            kept = c[:-1] if s == 1 else c[1:]
            if np.any(kept == 0.0):
                raise PreconditionError("shift_diag operator with zero scalar is singular")
            inv = np.ones(self.domain.length)
            # (A^{-1} w)_k = w_{k+s} / c_k  ==  shift -s with scalar 1/c_{j-s}
            # at input coordinate j; the unused entry is kept nonzero
            if s == 1:
                inv[1:] = 1.0 / kept
                inv[0] = 1.0 / c[0] if c[0] else 1.0
            else:
                inv[:-1] = 1.0 / kept
                inv[-1] = 1.0 / c[-1] if c[-1] else 1.0
            return LinOp("shift_diag", self.domain, self.domain,
                         scalars=inv, shift=-s)
        return dense(np.linalg.inv(self.matrix), self.codomain, self.domain)

    def to_dense_matrix(self):
        if self.kind == "dense":
            return self.matrix
        n = self.domain.length
        if self.kind == "diag":
            return np.diag(self.scalars)
        m = np.zeros((n, n))
        if self.shift == 1:
            for j in range(n - 1):
                m[j + 1, j] = self.scalars[j]
        else:
            for j in range(1, n):
                m[j - 1, j] = self.scalars[j]
        return m

    def to_json(self):
        if self.kind == "dense":
            params = {"matrix": [list(r) for r in self.matrix],
                      "domain": [self.domain.lo, self.domain.hi],
                      "codomain": [self.codomain.lo, self.codomain.hi]}
        elif self.kind == "diag":
            params = {"scalars": list(self.scalars),
                      "domain": [self.domain.lo, self.domain.hi]}
        else:
            params = {"scalars": list(self.scalars), "shift": self.shift,
                      "domain": [self.domain.lo, self.domain.hi]}
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj):
        kind, params = obj["kind"], obj["params"]
        dom = Window(*params["domain"])
        if kind == "dense":
            return dense(np.asarray(params["matrix"], dtype=float),
                         dom, Window(*params["codomain"]))
        if kind == "diag":
            return diag(dom, np.asarray(params["scalars"], dtype=float))
        return shift_diag(dom, np.asarray(params["scalars"], dtype=float),
                          params["shift"])

    def __repr__(self):
        return f"LinOp({self.kind}, [{self.domain.lo},{self.domain.hi}])"


def dense(matrix, domain, codomain=None):
    codomain = domain if codomain is None else codomain
    return LinOp("dense", domain, codomain, matrix=np.asarray(matrix, dtype=float))


def diag(window, scalars):
    return LinOp("diag", window, window,
                 scalars=np.asarray(scalars, dtype=float))


def shift_diag(window, scalars, shift=1):
    return LinOp("shift_diag", window, window,
                 scalars=np.asarray(scalars, dtype=float), shift=shift)


def identity_op(window):
    return diag(window, np.ones(window.length))


def apply_coeffs(A, x):
    """Apply A to a raw coefficient array; a shift drops the coefficient it
    pushes over the window edge."""
    if A.kind == "diag":
        return A.scalars * x
    if A.kind == "shift_diag":
        scaled = A.scalars * x
        out = np.zeros_like(scaled)
        if A.shift == 1:
            out[1:] = scaled[:-1]
        else:
            out[:-1] = scaled[1:]
        return out
    return A.matrix @ x


def op_apply(A, v, check_loss=True):
    """Apply A to v.  Structured kinds never materialize a matrix.

    For shift_diag the coefficient pushed over the window edge is dropped;
    if its magnitude exceeds ``LOST_TOL * (1 + |v|_inf)`` a
    :class:`TruncationError` is raised (``check_loss=False`` disables the
    guard, for callers that have already accounted for the boundary).
    """
    if v.window != A.domain:
        raise PreconditionError("vector window does not match operator domain")
    if check_loss and A.kind == "shift_diag":
        edge = -1 if A.shift == 1 else 0
        lost = A.scalars[edge] * v.coeffs[edge]
        if abs(lost) > LOST_TOL * (1.0 + float(np.max(np.abs(v.coeffs), initial=0.0))):
            raise TruncationError(
                f"shift drops coefficient of magnitude {abs(lost):.3e}; "
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

    diag / shift_diag: exactly max |scalar| for every p (the shift is an
    isometry).  dense: exact column/row sums for p = 1 / inf, power
    iteration within 5% for p = 2; other exponents are not supported for
    dense operators.
    """
    if A.kind in ("diag", "shift_diag"):
        return float(np.max(np.abs(A.scalars))) if len(A.scalars) else 0.0
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
    A_k^{-1} ... A_{l-1}^{-1} for l > k.  Products of diag factors stay
    diag (and exact); anything else is materialized dense.
    """
    if k == l:
        if seq.period is None and k == seq.hi:
            return identity_op(seq.ops[-1].codomain)
        return identity_op(seq.op_at(k).domain)
    if l < k:
        factors = [seq.op_at(j) for j in range(l, k)]          # apply A_l first
    else:
        factors = [seq.op_at(j).inverse() for j in range(l - 1, k - 1, -1)]
    if all(f.kind == "diag" for f in factors):
        scal = factors[0].scalars.copy()
        for f in factors[1:]:
            scal = scal * f.scalars
        return diag(factors[0].domain, scal)
    m = factors[0].to_dense_matrix()
    for f in factors[1:]:
        m = f.to_dense_matrix() @ m
    return dense(m, factors[0].domain, factors[-1].codomain)


def compose(A, B):
    """The composition A . B (B applied first), structured when possible.

    diag.diag and diag/shift_diag mixtures keep their structure; any other
    combination is materialized dense.
    """
    if B.codomain != A.domain:
        raise PreconditionError("operators do not chain")
    if A.kind == "diag" and B.kind == "diag":
        return diag(B.domain, A.scalars * B.scalars)
    if A.kind == "diag" and B.kind == "shift_diag":
        # (A.B v)_{k+s} = a_{k+s} c_k v_k; the column exiting the window
        # meets A extended by zero, so it composes to zero (keeping the
        # scalars consistent with the dense view and with op_norm)
        s = B.shift
        c = B.scalars.copy()
        if s == 1:
            c[:-1] *= A.scalars[1:]
            c[-1] = 0.0
        else:
            c[1:] *= A.scalars[:-1]
            c[0] = 0.0
        return LinOp("shift_diag", B.domain, B.domain, scalars=c, shift=s)
    if A.kind == "shift_diag" and B.kind == "diag":
        return LinOp("shift_diag", B.domain, B.domain,
                     scalars=A.scalars * B.scalars, shift=A.shift)
    m = A.to_dense_matrix() @ B.to_dense_matrix()
    return dense(m, B.domain, A.codomain)


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
