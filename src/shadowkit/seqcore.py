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
it would silently drop exceeds ``LOST_TOL * (1 + |v|_inf)``; that test
is ``edge_trips``, which ``edge_loss`` and the shift systems' maps read.
``apply_coeffs`` is the unguarded application to every row of a raw
coefficient block that ``op_apply`` wraps, for inner loops that account
for the boundary themselves; ``apply_rows`` applies one operator per row
(``RowOps`` stacks those operators once, for blocks with any number of
leading axes, as one array: the scalars of weighted shifts by one common
s, or else the densified matrices; it composes, adds, inverts and
measures whole stacks in one array operation each, with the kernels of
``compose``, ``add``, ``inverse`` and ``op_norm`` or their batched dense
calls), and ``row_norms`` takes the norm of every row, each bit for bit
the row-by-row result.  ``transport_rows`` carries a block of
rows through a list of operators under the guard, retiring each row at
its first trip, and tables their norms: the decay scans of the verifiers
and of the splitting transfer run on it.  ``anchor_index`` finds a point
among the rows of an orbit segment.

``FixedPointMonitor`` holds the contraction gate of one fixed-point
iteration; ``monitored_fixed_point`` runs one such iteration to its end.
The splitting transfer and the displacement maps both use it, and the
displacement maps keep one monitor per frame of a lockstep stack.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window", "SeqVec", "LinOp", "OperatorSeq",
    "norm", "coeff_norm", "row_norms", "anchor_index", "op_apply",
    "edge_trips", "edge_loss", "transport_rows", "apply_coeffs",
    "apply_rows", "RowOps", "op_norm", "cocycle",
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


def _inverse_scalars(c, s):
    """Scalars of the inverse of the weighted shifts by s with scalars c,
    one shift per row of a (..., n) array (see ``LinOp.inverse``)."""
    n = c.shape[-1]
    kept, landed = _acting(n, s)
    if np.any(c[..., kept] == 0.0):
        raise PreconditionError("weighted shift with a zero scalar is singular")
    # (A^{-1} w)_k = w_{k+s} / c_k: input coordinate j = k + s carries 1/c_k
    inv = np.ones(c.shape)
    inv[..., landed] = 1.0 / c[..., kept]
    edge = slice(0, min(s, n)) if s > 0 else slice(max(n + s, 0), n)
    np.divide(1.0, c[..., edge], out=inv[..., edge], where=c[..., edge] != 0.0)
    return inv


class LinOp:
    """Linear operator between two windows: a weighted shift or dense.

    A weighted shift by ``shift`` = s (any integer; s = 0 is the diagonal)
    acts on one shared window: coordinate k of the input is scaled by
    ``scalars[k - domain.lo]`` and lands on coordinate k + s, and the |s|
    coordinates that land outside the window are dropped.  A dense operator
    holds ``matrix`` of shape (codomain.length, domain.length) and has no
    scalars.  ``kind`` is the derived label "diag" (s = 0), "shift_diag"
    (s != 0) or "dense".  ``check=False`` skips the shape checks, for
    operands that an operation on valid operators produced.
    """

    __slots__ = ("domain", "codomain", "matrix", "scalars", "shift")

    def __init__(self, domain, codomain, matrix=None, scalars=None, shift=0,
                 check=True):
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.scalars = scalars
        self.shift = shift
        if not check:
            return
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
        return _shifted(self.domain, _inverse_scalars(self.scalars, self.shift),
                        -self.shift)

    def to_dense_matrix(self):
        if self.matrix is not None:
            return self.matrix
        return _shift_matrices(self.scalars, self.shift)

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
        return _shifted(self.domain, -self.scalars, self.shift)

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


def _shifted(window, scalars, shift):
    """``shift_diag`` for the float scalars of a window that an operation on
    valid weighted shifts produced, without re-checking them."""
    # positional arguments: this runs once per step of the transfer's algebra
    return LinOp(window, window, None, scalars, shift, False)


def identity_op(window):
    return diag(window, np.ones(window.length))


def _shift_rows(scalars, shift, rows):
    """Weighted shifts by ``shift`` with ``scalars`` (one row for all rows,
    or one per row) applied to the rows of a (..., n) array."""
    if shift == 0:
        return scalars * rows
    kept, landed = _acting(rows.shape[-1], shift)
    out = np.zeros(rows.shape)
    np.multiply(scalars[..., kept], rows[..., kept], out=out[..., landed])
    return out


def _shift_matrices(c, s):
    """Matrices of the weighted shifts by s with the scalar rows of a
    (..., n) array: scalar k at entry (k + s, k) for every coordinate k the
    shift keeps, zero elsewhere."""
    n = c.shape[-1]
    kept, _ = _acting(n, s)
    cols = np.arange(n)[kept]
    m = np.zeros(c.shape[:-1] + (n, n))
    m[..., cols + s, cols] = c[..., kept]
    return m


def apply_coeffs(A, x):
    """Apply A to every row of a raw (..., n) coefficient array; a shift
    drops the coefficients it pushes over the window edge.  A dense A acts
    as ``matmul(M, x[..., None])``, one BLAS mat-vec per row with the bits
    of ``M @ row`` (the product ``x @ M.T`` would sum in another order).
    """
    if A.matrix is not None:
        return np.matmul(A.matrix, x[..., None])[..., 0]
    return _shift_rows(A.scalars, A.shift, x)


class RowOps:
    """One operator per row of a coefficient block, stacked once for reuse.

    ``RowOps(ops)`` takes LinOps on one window in an array-like of some
    leading shape, one per row of a (*shape, n) block, and keeps them as one
    array ``data`` in one of two forms.  Weighted shifts by one common s
    (``shift`` = s) keep their scalars, a (*shape, n) array.  Any other mix,
    a dense operator or shifts by different s, is densified (``shift`` is
    None) into a (*shape, n, n) array of matrices, as a mixed-shift ``add``
    already densifies.  When all the operators are one object the stack
    keeps that single row, (n,) or (n, n), which broadcasts over every row.
    Indexing the leading axes selects rows (basic indexing shares the
    array, an integer index gives a single row, and a single row is every
    selection of itself), and ``op`` reads one row back as a LinOp.  Once
    built, a stack is never written into.

    A stack is closed under the operator algebra, row by row, each in one
    array operation over all rows: ``@`` (the rows of the left stack after
    those of the right), ``+``, ``-``, unary ``-`` and ``inverse``, with
    ``norms`` the ``op_norm`` of every row.  Two shift stacks (by one s
    each, and by a common s in a sum) run the kernels that ``compose``,
    ``add``, ``sub`` and ``inverse`` run on one weighted shift.  Any other
    pair densifies its shift side and runs a batched ``matmul``, ufunc or
    ``np.linalg.inv``, the calls those functions make on one dense
    operator.  Every row carries the bits of the single-operator result,
    and ``apply`` applies the rows to a block with the bits of
    ``apply_coeffs``.
    """

    __slots__ = ("shift", "data", "window")

    def __init__(self, ops):
        ops = np.array(ops, dtype=object)
        flat = ops.ravel()
        first = flat[0]
        self.window = first.domain
        if all(A.matrix is None and A.shift == first.shift for A in flat):
            self.shift, rows = first.shift, [A.scalars for A in flat]
        elif all(A.domain == self.window == A.codomain for A in flat):
            self.shift, rows = None, [A.to_dense_matrix() for A in flat]
        else:
            raise PreconditionError("stacked operators act between different windows")
        self.data = (rows[0] if all(A is first for A in flat)
                     else np.array(rows).reshape(ops.shape + rows[0].shape))

    @classmethod
    def _of(cls, shift, data, window):
        out = cls.__new__(cls)
        out.shift, out.data, out.window = shift, data, window
        return out

    @classmethod
    def weighted_shifts(cls, scalars, shift, window):
        """The weighted shifts by ``shift`` on ``window`` with the scalar
        rows of a (..., n) array, one per row."""
        return cls._of(int(shift), scalars, window)

    @classmethod
    def inverses(cls, ops):
        """``RowOps(ops)`` of the ``LinOp.inverse`` of every operator.

        The stack of ``ops`` inverts in one array operation, unless it
        densified weighted shifts (a mix of kinds): the dense view of a
        shift by s != 0 is singular, so a mix is inverted operator by
        operator and then stacked.
        """
        ops = np.array(ops, dtype=object)
        stack = cls(ops)
        if stack.shift is None and any(A.matrix is None for A in ops.flat):
            return cls(np.frompyfunc(LinOp.inverse, 1, 1)(ops))
        return stack.inverse()

    def _single(self):
        return self.data.ndim == (2 if self.shift is None else 1)

    def __getitem__(self, idx):
        if self._single():
            return self
        return RowOps._of(self.shift, self.data[idx], self.window)

    def op(self, idx):
        """Row ``idx`` as a LinOp (any index, ``()`` too, of a single row)."""
        row = self.data if self._single() else self.data[idx]
        if self.shift is None:
            return LinOp(self.window, self.window, row, None, 0, False)
        return _shifted(self.window, row, self.shift)

    def _dense(self):
        """The rows as matrices: the data of a dense stack, or a shift
        stack densified as ``to_dense_matrix`` densifies one shift."""
        if self.shift is None:
            return self.data
        return _shift_matrices(self.data, self.shift)

    def _chain(self, other):
        if self.window != other.window:
            raise PreconditionError("operators act between different windows")
        return self.window

    def __matmul__(self, other):
        window = self._chain(other)
        if self.shift is None or other.shift is None:
            return RowOps._of(None, np.matmul(self._dense(), other._dense()),
                              window)
        return RowOps.weighted_shifts(*_shift_product(
            self.data, self.shift, other.data, other.shift), window)

    def _combine(self, other, ufunc):
        window = self._chain(other)
        if self.shift == other.shift:
            return RowOps._of(self.shift, ufunc(self.data, other.data), window)
        return RowOps._of(None, ufunc(self._dense(), other._dense()), window)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __neg__(self):
        return RowOps._of(self.shift, -self.data, self.window)

    def inverse(self):
        if self.shift is None:
            return RowOps._of(None, np.linalg.inv(self.data), self.window)
        return RowOps.weighted_shifts(
            _inverse_scalars(self.data, self.shift), -self.shift, self.window)

    def norms(self, p):
        """``op_norm`` of every row, as an array of the leading shape."""
        if self.shift is not None:
            return _shift_norms(self.data, self.shift)
        m = self.data
        flat = m.reshape((-1,) + m.shape[-2:])
        return np.array([_dense_norm(x, p) for x in flat]).reshape(m.shape[:-2])

    def apply(self, rows):
        """The operators applied to the rows of a (*shape, n) array."""
        if self.shift is None:
            return np.matmul(self.data, rows[..., None])[..., 0]
        return _shift_rows(self.data, self.shift, rows)


def apply_rows(ops, rows):
    """Apply ``ops[i]`` to row i of an (m, n) coefficient array.

    ``ops`` is a list of LinOps or a :class:`RowOps` stacked from them; the
    same products as ``apply_coeffs`` row by row (of the densified operators
    when the list mixes shifts), in one array operation.
    """
    return (ops if isinstance(ops, RowOps) else RowOps(ops)).apply(rows)


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
    if A.matrix is not None or A.shift == 0:
        return None
    kept, _ = _acting(rows.shape[-1], A.shift)
    edge = slice(kept.stop, None) if A.shift > 0 else slice(0, kept.start)
    return edge_trips(A.scalars[edge] * rows[..., edge], rows)


def op_apply(A, v, check_loss=True):
    """Apply A to v.  Weighted shifts never materialize a matrix.

    A shift by s drops the |s| coefficients it pushes over the window edge;
    if the largest dropped magnitude exceeds ``LOST_TOL * (1 + |v|_inf)`` a
    :class:`TruncationError` is raised (``check_loss=False`` disables the
    guard, for callers that have already accounted for the boundary).  The
    guard is :func:`edge_loss` on the single row v.
    """
    if v.window != A.domain:
        raise PreconditionError("vector window does not match operator domain")
    guard = edge_loss(A, v.coeffs) if check_loss else None
    if guard is not None and guard[1]:
        raise TruncationError(
            f"shift drops coefficient of magnitude {guard[0]:.3e}; "
            "window too small")
    return SeqVec(A.codomain, apply_coeffs(A, v.coeffs), v.p)


def transport_rows(ops, rows, p):
    """Carry every row of an (m, n) block through ``ops``, under the guard.

    Step l applies ``ops[l]`` to all live rows at once (one
    :func:`apply_coeffs` call) and records their l^p norms.  A row
    whose step would trip the edge guard of :func:`edge_loss` -- exactly
    where :func:`op_apply` would raise -- is retired before that step, as
    ``DiffeoSystem.map_rows`` judges its rows.  Returns ``(norms, tripped,
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
            # the ddot and correctly rounded sqrt of np.linalg.norm
            lam = math.sqrt(y.dot(y))
            if lam == 0.0:
                break
            x = y / lam
            if abs(lam - prev) <= 1e-12 * (lam if lam > 1.0 else 1.0):
                break
            prev = lam
        root = math.sqrt(lam) if lam > 0 else 0.0
        if root > best:
            best = root
    cap = math.sqrt(float(np.max(np.sum(np.abs(m), axis=0)))
                    * float(np.max(np.sum(np.abs(m), axis=1))))
    return min(best * (1.0 + 1e-9), cap) if best > 0 else 0.0


def _shift_norms(c, s):
    """Operator norms of the weighted shifts by s with the scalar rows of a
    (..., n) array: the largest |scalar| a row keeps in the window."""
    kept, _ = _acting(c.shape[-1], s)
    return np.abs(c[..., kept]).max(axis=-1, initial=0.0)


def op_norm(A, p=2.0):
    """Operator norm of A as a map of l^p.

    Weighted shift: exactly the largest |scalar| over the coordinates that
    stay in the window, for every p (the shift is an isometry).  dense:
    exact column/row sums for p = 1 / inf, power iteration within 5% for
    p = 2; other exponents are not supported for dense operators.
    """
    if A.matrix is None:
        return float(_shift_norms(A.scalars, A.shift))
    return _dense_norm(A.matrix, p)


def _dense_norm(m, p):
    """``op_norm`` of the dense operator with matrix m."""
    if p == 1.0:
        return float(np.max(np.sum(np.abs(m), axis=0)))
    if p == math.inf:
        return float(np.max(np.sum(np.abs(m), axis=1)))
    if p == 2.0:
        return _dense_two_norm(m)
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


def _shift_product(a, sa, b, sb):
    """Scalars and shift of the products of the weighted shifts by sa and sb
    with the scalar rows of (..., n) arrays a and b (b applied first), row
    by row: ``(c, sa + sb)`` with c_k = a_{k+sb} b_k where b keeps
    coordinate k, and 0 where b pushes it over the window edge."""
    kept, landed = _acting(b.shape[-1], sb)
    # equal shapes (every single-operator compose) skip np.broadcast_shapes,
    # which would take longer than the product itself on one row
    c = np.zeros(a.shape if a.shape == b.shape
                 else np.broadcast_shapes(a.shape, b.shape))
    np.multiply(a[..., landed], b[..., kept], out=c[..., kept])
    return c, sa + sb


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
        return _shifted(B.domain, *_shift_product(A.scalars, A.shift,
                                                  B.scalars, B.shift))
    return dense(A.to_dense_matrix() @ B.to_dense_matrix(), B.domain, A.codomain)


def _combine(A, B, ufunc):
    if A.domain != B.domain or A.codomain != B.codomain:
        raise PreconditionError("operators act between different windows")
    if A.matrix is None and B.matrix is None and A.shift == B.shift:
        return _shifted(A.domain, ufunc(A.scalars, B.scalars), A.shift)
    return dense(ufunc(A.to_dense_matrix(), B.to_dense_matrix()),
                 A.domain, A.codomain)


def add(A, B):
    """A + B; two weighted shifts by the same s add scalar by scalar (the
    dropped edge scalars included), anything else is materialized dense."""
    return _combine(A, B, np.add)


def sub(A, B):
    """A - B, structured exactly when :func:`add` is."""
    return _combine(A, B, np.subtract)


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
