"""Windowed sequence-space vectors and structured linear operators.

Points of l^p(Z) are represented by their coefficients on a finite index
window [lo, hi]; everything outside the window is implicitly zero.  One
operator type, ``LinOp``, holds ``(shift, data, window)``: a weighted
shift by an integer s with scalars ``data``, or (``shift`` None) a dense
matrix, and leading axes of ``data`` make a stack of such operators, one
per row of a coefficient block.  ``compose``, ``add``, ``sub``,
``inverse``, ``op_norm``, ``cocycle`` and ``apply_coeffs`` act alike on
one operator and on a stack; weighted shifts stay structured, and any
dense operand or mix of shifts is materialized dense.

A shift by s pushes |s| coefficients over the window edge at every
application; ``op_apply`` raises :class:`TruncationError` when that mass
exceeds ``LOST_TOL * (1 + |v|_inf)`` (the test is ``edge_trips``), and
``transport_rows`` carries a block of rows through a list of operators
under the same guard.  ``Segment`` holds points at consecutive times as
one read-only block of rows, and ``OperatorSeq`` operators at consecutive
times as one stack with a time axis.  ``monitored_fixed_point`` runs one
fixed-point iteration under a ``FixedPointMonitor``'s contraction gate.
"""

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window", "SeqVec", "Segment", "LinOp", "OperatorSeq",
    "norm", "coeff_norm", "row_norms", "anchor_index", "op_apply",
    "edge_trips", "edge_loss", "transport_rows", "apply_coeffs",
    "stack_ops", "op_norm", "cocycle",
    "compose", "add", "sub", "FixedPointMonitor", "monitored_fixed_point",
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


@dataclass(frozen=True, eq=False, repr=False)
class Segment(Mapping):
    """Points of one window at consecutive times, as one block of rows.

    Row i of the read-only (m, n) array ``rows`` is the point at time
    ``lo + i``, in l^p.  A periodic block (``period`` = m, else None)
    stores one period, and ``seg[k]`` wraps modulo it through
    ``row_index``, the package's one wrap-around lookup.  The block is a
    Mapping from time to a :class:`SeqVec` view of a row, whose ``len``,
    iteration and ``in`` cover the stored times only, as the dict of
    points it replaces did.
    """

    lo: int
    rows: np.ndarray
    window: Window
    p: float
    period: int

    # identity: Mapping's __eq__ would compare fresh views, never equal
    __eq__ = object.__eq__

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float).view()
        if rows.shape[1:] != (self.window.length,) or not len(rows) \
                or self.period not in (None, len(rows)):
            raise PreconditionError(
                f"rows of shape {rows.shape} do not fill a block of window "
                f"length {self.window.length} and period {self.period}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @classmethod
    def pack(cls, points, period):
        """The block of a dict of SeqVecs at consecutive times on one window
        and one ``p``; a Segment stays as it is (``period`` None or its own).
        """
        if isinstance(points, Segment) and period in (None, points.period):
            return points
        times = sorted(points) if isinstance(points, dict) else []
        kinds = {(points[k].window, points[k].p) for k in times}
        if len(kinds) != 1 or times[-1] - times[0] + 1 != len(times):
            raise PreconditionError(
                f"cannot pack {points!r:.60} with period {period}: a block "
                f"needs consecutive times, one window and one p")
        (window, p), = kinds
        return cls(times[0], [points[k].coeffs for k in times], window, p,
                   period)

    @property
    def path(self):
        """The rows of every stored time and, if periodic, of lo + period
        (row 0 again): step j runs from row j to row j + 1."""
        if self.period is None:
            return self.rows
        return np.concatenate((self.rows, self.rows[:1]))

    def with_rows(self, rows):
        return Segment(self.lo, rows, self.window, self.p, self.period)

    def row_index(self, k):
        """The row of time k, wrapped modulo the period; a time outside an
        aperiodic block raises KeyError."""
        i = k - self.lo
        if self.period is not None:
            i %= self.period
        elif not 0 <= i < len(self.rows):
            raise KeyError(k)
        return i

    def __getitem__(self, k):
        return SeqVec(self.window, self.rows[self.row_index(k)], self.p)

    def __contains__(self, k):
        return (isinstance(k, (int, np.integer))
                and 0 <= k - self.lo < len(self.rows))

    def __iter__(self):
        return iter(range(self.lo, self.lo + len(self)))

    def __len__(self):
        return len(self.rows)


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


@functools.lru_cache(maxsize=4096)
def _acting(n, s):
    """Slices of the coordinates a shift by s keeps in a window of length n,
    and of the coordinates they land on."""
    m = max(n - abs(s), 0)
    start = max(-s, 0)
    return slice(start, start + m), slice(start + s, start + s + m)


def _first_singular(m):
    """The index of the first matrix of an (..., n, n) stack that
    ``np.linalg.inv`` finds singular (() for a single matrix)."""
    for i in np.ndindex(m.shape[:-2]):
        try:
            np.linalg.inv(m[i])
        except np.linalg.LinAlgError:
            return i


def _singular(A, at):
    """The PreconditionError for a singular operator of the kind of A,
    naming the stack index ``at`` (none for () or None)."""
    what = ("dense matrix" if A.shift is None
            else "weighted shift with a zero scalar")
    where = f" at stack index {', '.join(map(str, at))}" if at else ""
    return PreconditionError(f"{what}{where} is singular")


class LinOp:
    """A linear operator on one window, or a stack of them.

    A weighted shift by ``shift`` = s (any integer; s = 0 is the diagonal)
    scales coordinate k by ``data[k - window.lo]`` and moves it to k + s,
    dropping the |s| coordinates that land outside the window.  A dense
    operator (``shift`` None) holds its matrix as ``data``.  Leading axes
    of ``data``, (..., n) or (..., n, n), make a stack: one operator per
    row of a coefficient block of that leading shape.  Indexing selects
    rows (basic indexing shares the data, an integer gives one operator),
    and a single operator broadcasts as every row of itself.  Once shared,
    ``data`` is never written into (only ``_sum_into`` writes, into a sum
    its caller has just made).  ``kind``, ``matrix``, ``scalars``,
    ``domain`` and ``codomain`` are derived views for readers outside the
    engines.
    """

    __slots__ = ("shift", "data", "window")

    def __init__(self, shift, data, window):
        self.shift, self.data, self.window = shift, data, window

    @property
    def kind(self):
        if self.shift is None:
            return "dense"
        return "diag" if self.shift == 0 else "shift_diag"

    @property
    def matrix(self):
        return self.data if self.shift is None else None

    @property
    def scalars(self):
        return None if self.shift is None else self.data

    @property
    def domain(self):
        return self.window

    codomain = domain

    # not iterable: a single operator is every row of itself, so iterating
    # by index would never stop
    __iter__ = None

    @property
    def lead(self):
        """The leading shape of a stack; () for one operator."""
        return self.data.shape[:self.data.ndim - (2 if self.shift is None else 1)]

    def __getitem__(self, idx):
        if self.data.ndim == (2 if self.shift is None else 1):
            return self
        return LinOp(self.shift, self.data[idx], self.window)

    def inverse(self):
        """Exact inverse of a weighted shift; numerical inverse for dense.

        The inverse of a shift by s is a shift by -s.  Only the scalars of
        the coordinates the shift keeps must be nonzero; the |s| inverse
        scalars that never act are set to 1/c at their own coordinate (1
        where c is zero), so the edge guard of ``op_apply`` still sees a
        scale there.  A singular operator raises PreconditionError, which
        names the first singular operator of a stack.
        """
        if self.shift is None:
            try:
                return LinOp(None, np.linalg.inv(self.data), self.window)
            except np.linalg.LinAlgError:
                raise _singular(self, _first_singular(self.data)) from None
        c, s = self.data, self.shift
        n = c.shape[-1]
        kept, landed = _acting(n, s)
        zero = np.any(c[..., kept] == 0.0, axis=-1)
        if zero.any():
            raise _singular(self, tuple(np.argwhere(zero)[0]))
        # (A^{-1} w)_k = w_{k+s} / c_k: input coordinate k + s carries 1/c_k
        inv = np.ones(c.shape)
        inv[..., landed] = 1.0 / c[..., kept]
        edge = slice(0, min(s, n)) if s > 0 else slice(max(n + s, 0), n)
        np.divide(1.0, c[..., edge], out=inv[..., edge],
                  where=c[..., edge] != 0.0)
        return LinOp(-s, inv, self.window)

    def to_dense_matrix(self):
        """The matrices; a shift by s has scalar k at entry (k + s, k) for
        every coordinate k it keeps, and zeros elsewhere."""
        if self.shift is None:
            return self.data
        c, s = self.data, self.shift
        n = c.shape[-1]
        cols = np.arange(n)[_acting(n, s)[0]]
        m = np.zeros(c.shape[:-1] + (n, n))
        m[..., cols + s, cols] = c[..., cols]
        return m

    def to_json(self):
        w = [self.window.lo, self.window.hi]
        if self.shift is None:
            params = {"matrix": [list(r) for r in self.data], "domain": w,
                      "codomain": w}
        else:
            params = {"scalars": list(self.data), "shift": self.shift,
                      "domain": w}
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj):
        params = obj["params"]
        dom = Window(*params["domain"])
        if obj["kind"] == "dense":
            return dense(params["matrix"], dom, Window(*params["codomain"]))
        return shift_diag(dom, params["scalars"], params.get("shift", 0))

    def __neg__(self):
        return LinOp(self.shift, -self.data, self.window)

    def __repr__(self):
        return f"LinOp({self.kind}, [{self.window.lo},{self.window.hi}])"


def dense(matrix, domain, codomain=None):
    """The dense operator (or stack) with the matrices of an (..., n, n)
    array on ``domain``; a ``codomain`` given must be the same window."""
    matrix = np.asarray(matrix, dtype=float)
    if codomain not in (None, domain):
        raise PreconditionError("operators act between different windows")
    if matrix.shape[-2:] != (domain.length, domain.length):
        raise PreconditionError("dense matrix shape does not match the window")
    return LinOp(None, matrix, domain)


def diag(window, scalars):
    return shift_diag(window, scalars, shift=0)


def shift_diag(window, scalars, shift=1):
    """Weighted shift by ``shift``: (Av)_{k+shift} = scalars[k - lo] v_k; a
    (..., n) array of scalars makes a stack."""
    scalars = np.asarray(scalars, dtype=float)
    if scalars.shape[-1:] != (window.length,):
        raise PreconditionError("weighted-shift scalars must fill the window")
    return LinOp(int(shift), scalars, window)


def identity_op(window):
    return diag(window, np.ones(window.length))


def stack_ops(ops):
    """A list of operators as one stack, with a leading axis over the list.

    Weighted shifts by one common s stack their scalars, and any other mix
    (a dense operator, shifts by different s) is densified, as a mixed
    ``add`` densifies.  When all the operators are one object, that
    operator is the stack.  Every operator must act on one window.
    """
    first = ops[0]
    if all(A is first for A in ops):
        return first
    if any(A.window != first.window for A in ops
           if A.window is not first.window):
        raise PreconditionError("stacked operators act between different windows")
    same = all(A.shift == first.shift for A in ops)
    return LinOp(first.shift if same else None,
                 np.array([A.data if same else A.to_dense_matrix()
                           for A in ops]), first.window)


def apply_coeffs(A, x):
    """Apply A (one operator, or a stack row by row) to every row of a raw
    (..., n) coefficient array; a shift drops the coefficients it pushes
    over the window edge.  A dense A acts as ``matmul(M, x[..., None])``,
    one BLAS mat-vec per row with the bits of ``M @ row`` (the product
    ``x @ M.T`` would sum in another order).
    """
    if A.shift is None:
        return np.matmul(A.data, x[..., None])[..., 0]
    if A.shift == 0:
        return A.data * x
    kept, landed = _acting(x.shape[-1], A.shift)
    out = np.zeros(x.shape)
    np.multiply(A.data[..., kept], x[..., kept], out=out[..., landed])
    return out


def edge_trips(dropped, rows):
    """The edge guard of every row of a (..., n) block, given the (..., k)
    values a map drops from it over the window edge: ``(lost, trips)``, the
    largest dropped magnitude and whether it exceeds LOST_TOL (1 + |row|_inf).
    """
    lost = np.abs(dropped).max(axis=-1)
    return lost, lost > LOST_TOL * (1.0 + np.abs(rows).max(axis=-1, initial=0.0))


def edge_loss(A, rows):
    """The edge guard of A on every row of a (..., n) block: :func:`edge_trips`
    of the values A drops.  Only a weighted shift by s != 0 drops
    coordinates; for any other operator it returns None.
    """
    if not A.shift:
        return None
    kept, _ = _acting(rows.shape[-1], A.shift)
    edge = slice(kept.stop, None) if A.shift > 0 else slice(0, kept.start)
    return edge_trips(A.data[..., edge] * rows[..., edge], rows)


def op_apply(A, v, check_loss=True):
    """Apply A to v.  Weighted shifts never materialize a matrix.

    A shift by s drops the |s| coefficients it pushes over the window edge;
    if the largest dropped magnitude exceeds ``LOST_TOL * (1 + |v|_inf)`` a
    :class:`TruncationError` is raised (``check_loss=False`` disables the
    guard, for callers that have already accounted for the boundary).  The
    guard is :func:`edge_loss` on the single row v.
    """
    if v.window != A.window:
        raise PreconditionError("vector window does not match operator window")
    guard = edge_loss(A, v.coeffs) if check_loss else None
    if guard is not None and guard[1]:
        raise TruncationError(
            f"shift drops coefficient of magnitude {guard[0]:.3e}; "
            "window too small")
    return SeqVec(A.window, apply_coeffs(A, v.coeffs), v.p)


def transport_rows(ops, rows, p):
    """Carry every row of an (m, n) block through ``ops``, under the guard.

    Step l applies ``ops[l]`` to all live rows at once (one
    :func:`apply_coeffs` call) and records their l^p norms.  A row
    whose step would trip the edge guard of :func:`edge_loss` -- exactly
    where :func:`op_apply` would raise -- is retired before that step, as
    ``DiffeoSystem.forward_rows`` judges its rows.  Returns ``(norms, tripped,
    last)``: the (m, len(ops)) table whose entry (i, l) is the norm of row
    i after l + 1 steps, NaN from the step at which the row tripped on;
    the (m,) mask of the rows that tripped; and the rows that never
    tripped, after the last step.  Every entry carries the bits of
    ``op_apply`` and ``norm`` applied one row at a time.
    """
    rows = np.asarray(rows, dtype=float)
    norms = np.full((len(rows), len(ops)), np.nan)
    live = np.arange(len(rows))
    for l, A in enumerate(ops):
        guard = edge_loss(A, rows)
        if guard is not None and guard[1].any():
            keep = ~guard[1]
            live, rows = live[keep], rows[keep]
        rows = apply_coeffs(A, rows)
        norms[live, l] = row_norms(rows, p)
    tripped = np.ones(len(norms), dtype=bool)
    tripped[live] = False
    return norms, tripped, rows


#: cap on the rounds of the power iteration behind a dense 2-norm
POWER_STEPS = 500


@functools.lru_cache(maxsize=64)
def _power_starts(n):
    """The unit starts of the power iteration on n coordinates, as a
    read-only (starts, n) array: the all-ones vector, then two fixed
    pseudo-random ones (a start of norm zero is dropped)."""
    rng = np.random.default_rng(12345)
    starts = [np.ones(n)] + [rng.standard_normal(n) for _ in range(2)]
    rows = np.array([x / np.linalg.norm(x) for x in starts
                     if np.linalg.norm(x) != 0.0])
    rows.flags.writeable = False
    return rows


def _two_norms(m):
    """Spectral norms of a (k, n, n) stack of matrices, certified within 5%.

    One power iteration on the Gram matrices m^T m runs from every start
    of :func:`_power_starts` on every matrix at once, one lane per (matrix,
    start): each round is one batched ``matmul`` of the Gram stack with
    the lanes' iterates and one batched ``matmul`` of the images with
    themselves (BLAS ``gemv`` and ``ddot``, the kernels of ``gram @ x`` and
    ``y.dot(y)`` on one lane).  A lane stops once its estimate moves by at
    most 1e-12 max(lam, 1), at a zero image, or after POWER_STEPS rounds,
    and keeps its last estimate; a matrix whose lanes have all stopped
    leaves the batch.  Each norm is the largest root over its lanes times
    (1 + 1e-9), capped by the interpolation bound sqrt(|m|_1 |m|_inf) >=
    |m|_2; so every entry has the bits of the iteration run on its matrix
    and start alone.
    """
    k, n = len(m), m.shape[-1]
    if k == 0 or n == 0:
        return np.zeros(k)
    starts = _power_starts(n)
    gram = np.matmul(m.mT, m)
    x = np.broadcast_to(starts, (k,) + starts.shape).copy()
    lam, prev = np.zeros(x.shape[:2]), np.zeros(x.shape[:2])
    live = np.ones(x.shape[:2], dtype=bool)
    out = np.zeros(x.shape[:2])
    at = np.arange(k)
    for _ in range(POWER_STEPS):
        y = np.matmul(gram[:, None], x[..., None])[..., 0]
        est = np.sqrt(np.matmul(y[..., None, :], y[..., None])[..., 0, 0])
        np.copyto(lam, est, where=live)
        moving = live & (est != 0.0)
        np.divide(y, est[..., None], out=x, where=moving[..., None])
        live = moving & ~(np.abs(est - prev) <= 1e-12 * np.maximum(est, 1.0))
        prev = est
        done = ~live.any(axis=1)
        if done.any():
            out[at[done]] = lam[done]
            keep = ~done
            at, gram, x, lam, prev, live = (at[keep], gram[keep], x[keep],
                                            lam[keep], prev[keep], live[keep])
            if not len(at):
                break
    out[at] = lam
    best = np.max(np.where(out > 0, np.sqrt(out), 0.0), axis=1)
    cap = np.sqrt(np.max(np.sum(np.abs(m), axis=-2), axis=-1)
                  * np.max(np.sum(np.abs(m), axis=-1), axis=-1))
    return np.where(best > 0, np.minimum(best * (1.0 + 1e-9), cap), 0.0)


def op_norm(A, p=2.0):
    """Operator norm of A as a map of l^p; of a stack, the array of the
    norms of its rows.

    Weighted shift: exactly the largest |scalar| over the coordinates that
    stay in the window, for every p (the shift is an isometry).  dense:
    exact column/row sums for p = 1 / inf, and for p = 2 the power
    iteration of :func:`_two_norms` within 5%, run on the whole stack in
    lockstep; other exponents are not supported for dense operators.
    """
    if A.shift is not None:
        kept, _ = _acting(A.data.shape[-1], A.shift)
        norms = np.abs(A.data[..., kept]).max(axis=-1, initial=0.0)
    elif p == 1.0:
        norms = np.max(np.sum(np.abs(A.data), axis=-2), axis=-1)
    elif p == math.inf:
        norms = np.max(np.sum(np.abs(A.data), axis=-1), axis=-1)
    elif p == 2.0:
        m = A.data
        norms = _two_norms(m.reshape((-1,) + m.shape[-2:])).reshape(m.shape[:-2])
    else:
        raise PreconditionError(
            f"op_norm of a dense operator for p={p} is not supported")
    return float(norms) if norms.ndim == 0 else norms


#: c of the outward factor (1 + c n eps) on a dense n x n norm (``_upper_norms``)
NORM_ROUND_C = 4.0

_NORM_ORDS = {1.0: 1, 2.0: 2, math.inf: np.inf}


def _norms(stack, p):
    """Exact l^p operator norm of every row of an operator stack:
    seqcore's for weighted shifts, numpy's (the SVD for p = 2) for dense
    matrices, in one batched call."""
    if stack.shift is not None:
        return op_norm(stack, p)
    return np.linalg.norm(stack.data, _NORM_ORDS[p], axis=(-2, -1))


def _upper_norms(stack, p):
    """l^p operator norms of the rows of a stack, never below the exact ones.

    Weighted shifts: :func:`_norms`, exact.  Dense n x n matrices:
    :func:`_norms` rounded outward by (1 + c n eps), c = NORM_ROUND_C.
    LAPACK bounds the error of a computed singular value by p(n) eps
    sigma_1, p a modestly growing function of n (LAPACK Users' Guide,
    section 4.9; Higham, Accuracy and Stability of Numerical Algorithms,
    2002), and a column or row sum of n terms carries at most (n - 1) eps
    of relative error; c n covers both with room to spare.
    """
    norms = _norms(stack, p)
    if stack.shift is not None:
        return norms
    n = stack.data.shape[-1]
    return norms * (1.0 + NORM_ROUND_C * n * np.finfo(float).eps)


def _diff_norms(B, A, p):
    """|B_j - A_j| for every pair of rows of two stacks.

    For two weighted shifts by the same s the difference is one too, and
    its norm is the largest scalar gap -- including the gaps at the
    coordinates the dense zero-extended view drops at the window edge.
    """
    d = B - A
    if d.shift is not None:
        return np.abs(d.data).max(axis=-1)
    return _norms(d, p)


class OperatorSeq:
    """A two-sided-indexable family {A_k} over an integer interval, held
    as one stack whose leading axis is time.

    ``op_at(k)`` maps time k to time k+1.  The interval [lo, hi] indexes
    the *time points*; operators exist for k in [lo, hi - 1].  An optional
    ``period`` m declares A_{k+m} = A_k, in which case ``op_at`` answers
    for every integer k.

    The operators come as a stack with a time axis, or as a list, packed
    once into ``stack`` by :func:`stack_ops` (a list of one object keeps
    that operator, standing for every step; a mix of kinds is densified).
    ``ops`` is the given list, or the views of the given stack, built once
    on first read.  ``inverse`` is the sequence of the inverses, computed
    once: a stack is inverted whole, and a list that mixes kinds operator
    by operator, each inverse keeping its kind (the dense view of a shift
    by s != 0 is singular).
    """

    def __init__(self, lo, ops, period=None):
        if isinstance(ops, LinOp):
            if not ops.lead:
                raise PreconditionError("an operator stack needs a time axis")
            self.stack, self.count = ops, ops.lead[0]
        else:
            self.ops = list(ops)
            if not self.ops:
                raise PreconditionError("an operator sequence needs an operator")
            self.stack, self.count = stack_ops(self.ops), len(self.ops)
        self.lo, self.period = lo, period
        if period is not None and period != self.count:
            raise PreconditionError("periodic OperatorSeq must hold exactly one period of ops")

    @classmethod
    def of(cls, lo, A, count, period=None):
        """The sequence of the ``count`` rows of a stack with a time axis,
        or of one operator standing for every time."""
        return cls(lo, A if A.lead else [A] * count, period)

    @functools.cached_property
    def ops(self):
        return [self.stack[j] for j in range(self.count)]

    @functools.cached_property
    def inverse(self):
        if self.stack.shift is None and any(A.shift is not None for A in self.ops):
            inverses = []
            for j, A in enumerate(self.ops):
                try:
                    inverses.append(A.inverse())
                except PreconditionError:
                    raise _singular(A, (j,)) from None
            return OperatorSeq(self.lo, inverses, self.period)
        return OperatorSeq.of(self.lo, self.stack.inverse(), self.count,
                              self.period)

    @property
    def hi(self):
        """Last time point (one past the last operator index)."""
        return self.lo + self.count

    def row_index(self, k):
        """The row of time k in ``stack``, wrapped modulo the period."""
        if self.period is not None:
            return (k - self.lo) % self.period
        if not self.lo <= k < self.hi:
            raise PreconditionError(f"no operator at index {k}")
        return k - self.lo

    def op_at(self, k):
        return self.ops[self.row_index(k)]

    def part(self, k, count, period=None):
        """The operators at k .. k + count - 1 as a sequence from k, with
        the ``period`` given: a slice of ``stack`` (an index array where it
        wraps around the period), or the one operator of a stack of one."""
        i = self.row_index(k)
        self.row_index(k + count - 1)
        rows = (slice(i, i + count) if i + count <= self.count
                else (i + np.arange(count)) % self.count)
        return OperatorSeq.of(k, self.stack[rows], count, period)


def cocycle(seq, k, l):
    """Two-sided cocycle Phi(k, l) of an operator sequence, as a LinOp.

    Phi(k, l) = A_{k-1} ... A_l for l < k, the identity for l = k, and
    A_k^{-1} ... A_{l-1}^{-1} for l > k: a fold of :func:`compose`, so a
    product of weighted shifts stays a weighted shift (exact up to the
    rounding of each scalar product) and any dense factor makes the product
    dense.
    """
    if k == l:
        if k != seq.hi:
            seq.op_at(k)            # outside the interval raises
        return identity_op(seq.stack.window)
    if l < k:
        factors = [seq.op_at(j) for j in range(l, k)]          # apply A_l first
    else:
        factors = [seq.inverse.op_at(j) for j in range(l - 1, k - 1, -1)]
    return functools.reduce(lambda out, f: compose(f, out), factors)


def _window(A, B):
    if A.window != B.window:
        raise PreconditionError("operators act between different windows")
    return A.window


def compose(A, B):
    """The composition A . B (B applied first), row by row on stacks.

    Two weighted shifts compose to the shift by the sum of their shifts,
    with scalar a_{k+s_B} b_k at coordinate k; a coordinate that B pushes
    over the window edge meets A extended by zero, so its scalar is zero
    (which keeps the scalars consistent with the dense view and with
    op_norm).  A product with a dense factor is materialized dense: two
    dense factors by ``matmul``, and a weighted shift with a dense factor
    by :func:`_scaled_product`.
    """
    window = _window(A, B)
    if A.shift is None and B.shift is None:
        return LinOp(None, np.matmul(A.data, B.data), window)
    if A.shift is None or B.shift is None:
        return LinOp(None, _scaled_product(A, B), window)
    a, b = A.data, B.data
    kept, landed = _acting(b.shape[-1], B.shift)
    # equal shapes (every single-operator compose) skip np.broadcast_shapes,
    # which would take longer than the product itself on one row
    c = np.zeros(a.shape if a.shape == b.shape
                 else np.broadcast_shapes(a.shape, b.shape))
    np.multiply(a[..., landed], b[..., kept], out=c[..., kept])
    return LinOp(A.shift + B.shift, c, window)


def _scaled_product(A, B):
    """The matrices of A . B for one weighted shift and one dense factor.

    A shift by s on the left moves row k of the matrix to row k + s and
    scales it by the scalar of k; on the right it scales column k + s by
    the scalar of k and moves it to column k.  Every entry of the matrix
    product of the dense view holds one such product plus exact zeros, so
    the scaled entries carry its bits once 0.0 is added: BLAS sums from
    +0.0, so a product of -0.0 reads +0.0 there too.
    """
    shifted, M = (A, B.data) if A.shift is not None else (B, A.data)
    c, n = shifted.data, M.shape[-1]
    kept, landed = _acting(n, shifted.shift)
    out = np.zeros(np.broadcast_shapes(c.shape[:-1], M.shape[:-2]) + (n, n))
    if shifted is A:
        np.multiply(c[..., kept, None], M[..., kept, :],
                    out=out[..., landed, :])
    else:
        np.multiply(M[..., :, landed], c[..., None, kept],
                    out=out[..., :, kept])
    out += 0.0
    return out


def _combine(A, B, ufunc):
    window = _window(A, B)
    if A.shift == B.shift:
        return LinOp(A.shift, ufunc(A.data, B.data), window)
    return LinOp(None, ufunc(A.to_dense_matrix(), B.to_dense_matrix()), window)


def _sum_into(acc, B, ufunc):
    """``ufunc(acc, B)`` for a sum ``acc`` whose data its caller owns and
    has not shared yet: written into that data (``out=``, the same bits)
    when it holds the result, that is when B has acc's shift and B's data
    broadcasts to acc's; else a new operator, as :func:`add` makes."""
    _window(acc, B)
    if acc.shift == B.shift and acc.data.shape == np.broadcast_shapes(
            acc.data.shape, B.data.shape):
        ufunc(acc.data, B.data, out=acc.data)
        return acc
    return _combine(acc, B, ufunc)


def add(A, B):
    """A + B; two weighted shifts by the same s add scalar by scalar (the
    dropped edge scalars included), anything else is materialized dense."""
    return _combine(A, B, np.add)


def sub(A, B):
    """A - B, structured exactly when :func:`add` is."""
    return _combine(A, B, np.subtract)


# the operators' own algebra, bound to the functions themselves
LinOp.__matmul__, LinOp.__add__, LinOp.__sub__ = compose, add, sub


class FixedPointMonitor:
    """Contraction gate of one fixed-point iteration x <- step(x).

    ``observe(move)`` takes the size of each move in turn.  Once the
    previous move exceeds ``ratio_floor``, the ratio of successive moves
    must stay within ``ratio_bound`` (up to FP_RATIO_SLACK); the iteration
    stops at a move of at most FP_STOP_TOL and gives up after ``max_iter``
    moves.  ``close(fp_residual)`` takes the move of one more step from the
    stopped iterate, which must stay within FP_RESIDUAL_TOL.  Every failure
    raises :class:`ConvergenceError` naming ``label``.  ``iterations``,
    ``fp_residual`` and ``worst_ratio`` keep the record.
    """

    __slots__ = ("label", "ratio_bound", "ratio_floor", "max_iter",
                 "iterations", "prev", "worst_ratio", "stopped", "fp_residual")

    def __init__(self, label, *, ratio_bound, ratio_floor, max_iter):
        self.label = label
        self.ratio_bound = ratio_bound
        self.ratio_floor = ratio_floor
        self.max_iter = max_iter
        self.iterations = 0
        self.prev = None
        self.worst_ratio = 0.0
        self.stopped = False
        self.fp_residual = None

    def observe(self, move):
        """Record one move; True once the iteration has stopped."""
        self.iterations += 1
        if self.prev is not None and self.prev > self.ratio_floor:
            ratio = move / self.prev
            self.worst_ratio = max(self.worst_ratio, ratio)
            if ratio > self.ratio_bound * (1.0 + FP_RATIO_SLACK):
                raise ConvergenceError(
                    f"{self.label} iteration {self.iterations} contracted at "
                    f"ratio {ratio:.6f}, above the certified "
                    f"{self.ratio_bound:.6f}")
        if move <= FP_STOP_TOL:
            self.stopped = True
        elif self.iterations >= self.max_iter:
            raise ConvergenceError(
                f"{self.label} iteration still moving by {move:.3g} after "
                f"{self.max_iter} steps")
        self.prev = move
        return self.stopped

    def close(self, fp_residual):
        """Check the fixed-point residual of the stopped iterate."""
        if fp_residual > FP_RESIDUAL_TOL:
            raise ConvergenceError(
                f"{self.label} fixed-point residual {fp_residual:.3g} exceeds "
                f"{FP_RESIDUAL_TOL:.0e}")
        self.fp_residual = fp_residual


def monitored_fixed_point(step, x0, dist, label, *, ratio_bound, ratio_floor,
                          max_iter):
    """Iterate x <- step(x) from x0 under a :class:`FixedPointMonitor`.

    ``dist(new, old)`` measures each move.  The last iterate is stepped once
    more and must reproduce itself to FP_RESIDUAL_TOL.  Returns
    ``(x, iterations, fp_residual, worst_ratio)``.
    """
    mon = FixedPointMonitor(label, ratio_bound=ratio_bound,
                            ratio_floor=ratio_floor, max_iter=max_iter)
    x = x0
    stopped = False
    while not stopped:
        new = step(x)
        stopped = mon.observe(dist(new, x))
        x = new
    mon.close(dist(step(x), x))
    return x, mon.iterations, mon.fp_residual, mon.worst_ratio
