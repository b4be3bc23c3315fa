"""Concrete sequence-space dynamical systems and their certificates.

Three families are built in:

* ``weighted shift``   f({x_k}) = {y_{k+1} = a_k(x_k)} with per-index 1-D
  diffeomorphisms a_k that fix 0, expand (slope in [1/lam, R]) for k < 0
  and contract (slope in [1/R, lam]) for k >= 0.  Its differential is a
  ``LinOp`` weighted shift by 1 and the constant splitting "support on
  k >= 0" / "support on k < 0" carries a (C = 1, lam) certificate.
* ``ms product``       f({x_k}) = {a(x_k)} for a single odd 1-D map a with
  attracting fixed points -1, +1 (multiplier lam1) and a repelling fixed
  point 0 (multiplier 1/lam1).  Coordinate-wise, so the differential is a
  diagonal ``LinOp`` (a weighted shift by 0); the splitting groups
  coordinates by |x_k| > 1/2 vs <= 1/2 and its decay constant is measured
  on a 1-D orbit grid at rate lam2.
* ``linear no-dichotomy sequence``  the diagonal operator sequence
  (A_k x)_m = x_m/2 for m <= k, 2 x_m for m > k, which carries the
  splitting structure with C = 1, lam = 1/2 but fails the equality
  invariance of an exponential dichotomy.

``conjugate`` transports a system and its certificate through a coordinate
change h, with constants (lam, R1^2 C) where R1 bounds Dh and Dh^{-1}.

Every system is given by four row maps, all required: f, f^{-1} and Df
on every coefficient row of a block, and f^{-1} with Df^{-1} from one
solve (see :class:`DiffeoSystem`).  The shifts, the Morse-Smale product
and the sine wobble evaluate their coordinate maps on whole blocks, and a
conjugated system composes the row maps of h^{-1}, the base system and h.

Every inverse coordinate map (the tanh and sine-perturbed shifts, the
Morse-Smale profile and the sine wobble) runs one Newton loop,
:func:`_newton_steps`: each row stops at its own bound, and a row that
neither meets its stop nor comes within NEWTON_SLACK times the accuracy its
map can reach raises :class:`ConvergenceError`, so no unconverged row is
ever returned.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .seqcore import (
    Window, SeqVec, OperatorSeq, coeff_norm, op_apply, apply_coeffs,
    compose, row_norms, diag, shift_diag, edge_loss, edge_trips,
    ConvergenceError, PreconditionError, TruncationError,
)
from .clstruct import ProjPair, CLCertificate, constant_cert

__all__ = [
    "DiffeoSystem", "MSMapParams", "s_remainder",
    "make_weighted_shift", "make_ms_product", "make_linear_example_seq",
    "linear_example_cert", "conjugate", "make_sin_wobble", "make_system",
    "LinearShiftFamily", "TanhShiftFamily", "SinPerturbedFamily",
    "sample_interior_points", "SYSTEM_KEYS", "system_keys",
]

#: slack accepted at the closed ends of the slope intervals; the canonical
#: examples attain their interval ends exactly.
END_SLACK = 1e-12
#: distance from the window edges kept by ``sample_interior_points``
SUPPORT_MARGIN = 4
#: Newton steps the shift families' and the Morse-Smale profile's inverses
#: may take
NEWTON_MAX_STEPS = 60
#: multiple of a Newton solve's reach (the rounding scale of its residual)
#: that an inverse accepts as residual when a row misses its stop
NEWTON_SLACK = 16.0
#: the reach of the coordinate maps' Newton solves, per unit of
#: 1 + |y|_inf: their residuals round at a few ulps of the larger of x, y
NEWTON_REACH = 4 * np.finfo(float).eps
#: the construction keys each registry system of ``make_system`` takes; a
#: ``conjugated:<base>`` system takes ``amp`` and the keys of its base
SYSTEM_KEYS = {"weighted_shift_linear": (), "weighted_shift_tanh": (),
               "ms_product": ("lam1", "lam2", "M"),
               "linear_no_ed": ("interval",)}
#: upper end of the bisection for the Morse-Smale profile's exponent s
MS_EXPONENT_MAX = 80.0
#: how far the Morse-Smale profile's series may miss a(1) = 1
MS_PIN_TOL = 1e-9


@dataclass(frozen=True)
class DiffeoSystem:
    """A diffeomorphism of the windowed sequence space with C^1 data.

    Its four maps act on the coefficient rows of a (..., n) array:
    ``forward_rows`` is f on every row, ``inverse_rows`` is f^{-1},
    ``dforward_rows`` is Df at every row as one operator stack, and
    ``inverse_diff_rows`` returns ``(f^{-1}(ys), Df^{-1}(ys))``, the
    inverse rows and the stack of inverse differentials from one solve.
    Their contract: each returns new arrays, every row gets the bits of a
    one-row call, and the truncation guard is judged per row, so a block
    raises :class:`TruncationError` exactly when some row alone would.
    ``forward``, ``inverse``, ``dforward`` and ``dinverse`` read the maps
    on the one row of a SeqVec.  ``R`` bounds both differentials;
    ``modulus`` is the nondecreasing r(t) with |f(x+v) - f(x) - Df(x)v| <=
    |v| r(|v|).  ``support_shift`` records how far the coordinate support
    travels per forward step (1 for shifts, 0 for coordinate-wise maps) --
    the window bookkeeping needs it.  :meth:`orbit_rows` walks the orbit
    segments of a block of starts in lockstep, one row-map call per step,
    and :meth:`orbit` is the walk of one point; :meth:`step_gaps` measures
    the step defects of a block of rows through ``forward_rows``.
    """

    name: str
    window: Window
    p: float
    forward_rows: object
    inverse_rows: object
    dforward_rows: object
    inverse_diff_rows: object
    R: float
    modulus: object
    support_shift: int = 0
    cert: object = None
    meta: dict = field(default_factory=dict, compare=False)

    def with_cert(self, cert):
        return replace(self, cert=cert)

    def forward(self, x):
        return SeqVec(self.window, self.forward_rows(x.coeffs), x.p)

    def inverse(self, y):
        return SeqVec(self.window, self.inverse_rows(y.coeffs), y.p)

    def dforward(self, x):
        return self.dforward_rows(x.coeffs)

    def dinverse(self, y):
        return self.inverse_diff_rows(y.coeffs)[1]

    def orbit_rows(self, xs, back, fwd):
        """The orbit points f^j(x) for j = -back .. fwd of every start row x
        of a (k, n) array, as a (k, back + fwd + 1, n) array.

        All starts are walked in lockstep, one ``forward_rows`` or
        ``inverse_rows`` call per step: the forward steps first,
        then the backward ones.  A negative ``back`` or ``fwd`` gives a
        segment that starts or ends past x.  A step that trips the
        truncation guard on some row raises :class:`TruncationError`
        naming the system.
        """
        xs = np.asarray(xs, dtype=float)
        ahead, behind = max(fwd, 0), max(back, 0)
        walk = np.empty((len(xs), behind + ahead + 1, xs.shape[-1]))
        walk[:, behind] = xs
        try:
            cur = xs
            for j in range(behind + 1, behind + ahead + 1):
                cur = self.forward_rows(cur)
                walk[:, j] = cur
            cur = xs
            for j in range(behind - 1, -1, -1):
                cur = self.inverse_rows(cur)
                walk[:, j] = cur
        except TruncationError as exc:
            raise TruncationError(
                f"orbit of {self.name} escapes the window: {exc}") from exc
        return walk[:, behind - back:behind + fwd + 1]

    def orbit(self, x, back, fwd):
        """The orbit points f^j(x) for j = -back .. fwd, as a list of
        :class:`SeqVec` views of the rows of a one-row :meth:`orbit_rows`
        walk."""
        rows = self.orbit_rows(x.coeffs[None], back, fwd)[0]
        return [SeqVec(self.window, row, x.p) for row in rows]

    def step_gaps(self, rows):
        """The defects |x_{j+1} - f(x_j)| of consecutive rows of an (m, n)
        coefficient array, each with the bits of the point-by-point norm;
        a (..., m, n) array gives the (..., m - 1) defects of each of its
        (m, n) blocks."""
        gaps = self.forward_rows(rows[..., :-1, :])
        np.subtract(rows[..., 1:, :], gaps, out=gaps)
        return row_norms(gaps.reshape(-1, gaps.shape[-1]),
                         self.p).reshape(gaps.shape[:-1])


def s_remainder(sys, x, v):
    """Nonlinear remainder f(x+v) - f(x) - Df(x)v."""
    if x.window != v.window:
        raise PreconditionError("x and v live on different windows")
    fxv = sys.forward(SeqVec(x.window, x.coeffs + v.coeffs, x.p))
    fx = sys.forward(x)
    lin = op_apply(sys.dforward(x), v)
    return SeqVec(x.window, fxv.coeffs - fx.coeffs - lin.coeffs, x.p)


# ---------------------------------------------------------------------------
# the Newton loop of every inverse map


def _newton_steps(y, x, stop, steps, reach, what):
    """Newton's method for f(x) = y from the start x, as a generator that
    leaves each evaluation to its driver: it yields every iterate x, takes
    ``(f(x), f'(x))`` back by ``send``, and returns ``(x, f'(x))`` at the
    inverse.  It is the one Newton loop: every inverse map of this module
    runs it, through :func:`_newton_solve` or, to evaluate its iterates
    together with other points, by hand.

    y is one row or a (..., n) block of rows (a 0-d y is one row), and each
    row stops at its own bound ``stop * (1 + |y_row|_inf)`` and keeps its
    iterate while the other rows go on, so every row gets the bits and the
    step count of its solve alone.  A row that misses its stop in ``steps``
    steps keeps its last iterate if its residual is within ``NEWTON_SLACK *
    reach * (1 + |y_row|_inf)``, ``reach`` being the accuracy that f's
    evaluation can reach; otherwise, a NaN residual included,
    :class:`ConvergenceError` is raised, naming ``what``.
    """
    y = np.asarray(y, dtype=float)
    axis = -1 if y.ndim else None
    scale = 1.0 + np.max(np.abs(y), axis=axis, keepdims=True, initial=0.0)
    for step in range(steps + 1):
        val, dx = yield x
        fx = val - y
        res = np.max(np.abs(fx), axis=axis, keepdims=True)
        live = ~(res <= stop * scale)
        if step == steps:
            live &= ~(res <= NEWTON_SLACK * reach * scale)
        if not live.any():
            return x, dx
        x = np.where(live, x - fx / dx, x)
    raise ConvergenceError(
        f"{what} inverse still off by {np.max(np.abs(fx)):.3g} after "
        f"{steps} Newton steps")


def _newton_solve(evaluate, steps):
    """Drive the generator ``steps`` of :func:`_newton_steps` to its end,
    every iterate x evaluated as ``evaluate(x) = (f(x), f'(x))``; returns
    ``(x, f'(x))`` at the inverse."""
    x = next(steps)
    while True:
        try:
            x = steps.send(evaluate(x))
        except StopIteration as done:
            return done.value


# ---------------------------------------------------------------------------
# weighted shift families


def _shift_family_inverse(family, ks, ys, start):
    """a_k^{-1}(ys) of a shift family by Newton's method from ``start``,
    stopping at 1e-15 within NEWTON_MAX_STEPS steps."""
    return _newton_solve(
        lambda xs: (family.apply(ks, xs), family.deriv(ks, xs)),
        _newton_steps(ys, start, 1e-15, NEWTON_MAX_STEPS, NEWTON_REACH,
                      type(family).__name__))[0]


class LinearShiftFamily:
    """a_k(x) = neg_slope * x for k < 0, pos_slope * x for k >= 0."""

    def __init__(self, neg_slope=2.0, pos_slope=0.5):
        self.neg_slope = neg_slope
        self.pos_slope = pos_slope
        self.d2_bound = 0.0

    def _slopes(self, ks):
        return np.where(np.asarray(ks) < 0, self.neg_slope, self.pos_slope)

    def apply(self, ks, xs):
        return self._slopes(ks) * xs

    def deriv(self, ks, xs):
        return self._slopes(ks) * np.ones_like(xs)

    def apply_inv(self, ks, ys):
        return ys / self._slopes(ks)


class TanhShiftFamily:
    """a_k(x) = 2x + 0.1 tanh x for k < 0, 0.45x + 0.04 tanh x for k >= 0.

    Slopes stay in (2, 2.1] and (0.45, 0.49] so the family fits the bounds
    lam = 1/2, R = 5/2 with room to spare; |a''| <= 0.08 on both branches.
    """

    neg = (2.0, 0.1)
    pos = (0.45, 0.04)

    def __init__(self):
        m = max(self._d2max(*self.neg), self._d2max(*self.pos))
        self.d2_bound = float(np.ceil(m * 1e3) / 1e3)

    @staticmethod
    def _d2max(c1, c2):
        # |d2/dx2 (c1 x + c2 tanh x)| = |2 c2 sech^2 x tanh x| <= 2 c2 * 2/(3 sqrt 3)
        return 2 * c2 * 2 / (3 * math.sqrt(3.0))

    def _coef(self, ks):
        neg = np.asarray(ks) < 0
        c1 = np.where(neg, self.neg[0], self.pos[0])
        c2 = np.where(neg, self.neg[1], self.pos[1])
        return c1, c2

    def apply(self, ks, xs):
        c1, c2 = self._coef(ks)
        return c1 * xs + c2 * np.tanh(xs)

    def deriv(self, ks, xs):
        c1, c2 = self._coef(ks)
        # cosh(x)^2 overflows to inf for |x| above about 355, where
        # c2 / inf = 0 gives the derivative its exact limit c1
        with np.errstate(over="ignore"):
            return c1 + c2 / np.cosh(xs) ** 2

    def apply_inv(self, ks, ys):
        return _shift_family_inverse(self, ks, ys, ys / self._coef(ks)[0])


class SinPerturbedFamily:
    """base family plus amp*sin on every branch: a_k(x) + amp sin x."""

    def __init__(self, base, amp):
        self.base = base
        self.amp = amp
        self.d2_bound = base.d2_bound + amp

    def apply(self, ks, xs):
        return self.base.apply(ks, xs) + self.amp * np.sin(xs)

    def deriv(self, ks, xs):
        return self.base.deriv(ks, xs) + self.amp * np.cos(xs)

    def apply_inv(self, ks, ys):
        return _shift_family_inverse(self, ks, ys,
                                     self.base.apply_inv(ks, ys))


def _validate_shift_family(family, lam, R, window):
    ks = np.arange(window.lo, window.hi + 1)
    xs = np.linspace(-10.0, 10.0, 801)
    K, X = np.meshgrid(ks, xs, indexing="ij")
    d = family.deriv(K, X)
    at0 = family.apply(ks, np.zeros_like(ks, dtype=float))
    if np.max(np.abs(at0)) > 1e-14:
        raise PreconditionError("family does not fix 0")
    neg = ks < 0
    if neg.any():
        dn = d[neg]
        if dn.min() < 1.0 / lam - END_SLACK or dn.max() > R + END_SLACK:
            raise PreconditionError(
                f"negative-index slopes [{dn.min():.6g}, {dn.max():.6g}] leave "
                f"[1/lam, R] = [{1/lam:.6g}, {R:.6g}]")
    pos = ~neg
    if pos.any():
        dp = d[pos]
        if dp.min() < 1.0 / R - END_SLACK or dp.max() > lam + END_SLACK:
            raise PreconditionError(
                f"nonnegative-index slopes [{dp.min():.6g}, {dp.max():.6g}] leave "
                f"[1/R, lam] = [{1/R:.6g}, {lam:.6g}]")


def make_weighted_shift(a_family, lam, R, window, p=2.0,
                        name="weighted_shift"):
    """Build the shift system f({x_k}) = {y_{k+1} = a_k(x_k)}.

    The slope-range admissibility (expanding below index 0, contracting
    from 0 on) is verified on a grid over +-[0, 10] per coordinate; the
    canonical linear family attains the interval ends, so the check
    accepts closed bounds.  The returned system carries the
    constant-splitting certificate (C = 1, lam, R) with stable space
    "support on k >= 0".
    """
    _validate_shift_family(a_family, lam, R, window)
    ks = np.arange(window.lo, window.hi + 1)

    def forward_rows(xs):
        vals = a_family.apply(ks, xs)
        # only a nonzero edge value can trip the guard, so a zero edge
        # column skips the per-row tolerances (the single-point fast path)
        if vals[..., -1].any():
            lost, trips = edge_trips(vals[..., -1:], xs)
            if trips.any():
                raise TruncationError(
                    f"forward shift would drop mass {lost[trips].max():.3e} "
                    "at the window edge")
        out = np.zeros(vals.shape)
        out[..., 1:] = vals[..., :-1]
        return out

    def inverse_rows(ys):
        # mass at the first coordinate enters from outside the window; as
        # forward, a zero first column skips the per-row tolerances
        if ys[..., 0].any():
            lost, trips = edge_trips(ys[..., :1], ys)
            if trips.any():
                raise TruncationError(
                    f"inverse shift sees mass {lost[trips].max():.3e} "
                    "entering from outside")
        out = np.zeros(ys.shape)
        out[..., :-1] = a_family.apply_inv(ks[:-1], ys[..., 1:])
        return out

    def dforward_rows(xs):
        return shift_diag(window, a_family.deriv(ks, xs), 1)

    def inverse_diff_rows(ys):
        xs = inverse_rows(ys)
        return xs, dforward_rows(xs).inverse()

    m2 = a_family.d2_bound
    modulus = lambda t: m2 * t

    mask = (ks >= 0).astype(float)
    cert = constant_cert(1.0, lam, R, diag(window, mask),
                         diag(window, 1.0 - mask),
                         splitting="support k >= 0 stable")
    return DiffeoSystem(name, window, p, forward_rows, inverse_rows,
                        dforward_rows, inverse_diff_rows, R, modulus,
                        support_shift=1, cert=cert, meta={"d2_bound": m2})


# ---------------------------------------------------------------------------
# Morse-Smale product system


@dataclass(frozen=True)
class MSMapParams:
    """Parameters of the 1-D interval map a: multipliers lam1 at the
    attracting fixed points -1, +1 and 1/lam1 at the repelling fixed point
    0; certified decay rate lam2 in (lam1, 1); second-derivative bound M."""

    lam1: float = 0.5
    lam2: float = 0.65
    M: float = 3.5

    def __post_init__(self):
        if not 0.0 < self.lam1 < 1.0:
            raise PreconditionError("lam1 must lie in (0, 1)")
        if not self.lam1 < self.lam2 < 1.0:
            raise PreconditionError("lam2 must lie in (lam1, 1)")


def _half_integral(s):
    """integral of (1 - x^2)^s over [0, 1] = sqrt(pi)/2 * G(s+1)/G(s+3/2)."""
    return math.sqrt(math.pi) / 2 * math.exp(math.lgamma(s + 1.0) - math.lgamma(s + 1.5))


class _MSProfile:
    """The odd C^2 interval map a pinned to fixed points -1, 0, 1.

    a'(x) = lam1 + (1/lam1 - lam1)(1 - x^2)^s on |x| <= 1 and a' = lam1
    outside; the real exponent s > 2 is chosen so that a(1) = 1 exactly.
    Both a and a' evaluate through the binomial series of (1 - t^2)^s,
    a polynomial in x^2 with coefficients decaying like j^{-s-1}.  A low
    lam1 is refused with :class:`PreconditionError`: when s would exceed
    MS_EXPONENT_MAX, or when the series, which cancels at x = 1, misses
    a(1) = 1 by more than MS_PIN_TOL (lam1 up to about 0.15).
    :meth:`value_deriv` evaluates the two series in one Horner pass, and
    :meth:`inverse_deriv` returns the derivative that Newton's last pass
    computed at the inverse; each carries the bits of :meth:`value`,
    :meth:`deriv` and :meth:`inverse`.  ``reach`` is the rounding error
    the a series carries near |x| = 1, below which no Newton residual can
    go.
    """

    def __init__(self, lam1):
        self.lam1 = lam1
        self.K = 1.0 / lam1 - lam1
        target = lam1 / (1.0 + lam1)
        lo, hi = 1.0, MS_EXPONENT_MAX
        if _half_integral(hi) > target:
            raise PreconditionError(
                f"lam1 = {lam1} needs a profile exponent above "
                f"{MS_EXPONENT_MAX:g}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _half_integral(mid) > target:
                lo = mid
            else:
                hi = mid
        self.s = 0.5 * (lo + hi)
        # binomial series coefficients c_j of (1 - u)^s in u = x^2
        cj, coeffs = 1.0, [1.0]
        j = 0
        while abs(cj) > 1e-18 and j < 4000:
            cj = cj * (-(self.s - j)) / (j + 1)
            coeffs.append(cj)
            j += 1
        self.cj = np.array(coeffs)                       # a' series
        self.dj = self.cj / (2 * np.arange(len(coeffs)) + 1.0)  # a series
        # the rounding error the a series carries near |x| = 1, where its
        # terms cancel most: Newton's residual cannot go far below it
        self.reach = np.finfo(float).eps * self.K * np.abs(self.dj).sum()
        # the a and a' series side by side, one (2, 1) column per power,
        # for one Horner pass over the stacked rows [u, u]
        self.dcj = list(np.stack([self.dj, self.cj], axis=-1)[:, :, None])
        miss = float(self.value(1.0)) - 1.0
        if not abs(miss) <= MS_PIN_TOL:
            raise PreconditionError(
                f"lam1 = {lam1} is too low for the profile series: a(1) "
                f"misses 1 by {miss:.3g}")

    @staticmethod
    def _poly(coeffs, u):
        acc = np.zeros(np.shape(u))
        for c in coeffs[::-1]:
            acc *= u
            acc += c
        return acc

    def value_deriv(self, x):
        """``(value(x), deriv(x))`` from one Horner pass over [u, u]."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        u = (np.minimum(ax, 1.0) ** 2).ravel()
        both = self._poly(self.dcj, np.stack([u, u])).reshape((2,) + x.shape)
        inner = self.lam1 * x + self.K * x * both[0]
        outer = np.sign(x) * (1.0 + self.lam1 * (ax - 1.0))
        return (np.where(ax <= 1.0, inner, outer),
                np.where(ax <= 1.0, self.lam1 + self.K * both[1], self.lam1))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        inner = self.lam1 * x + self.K * x * self._poly(self.dj, np.minimum(ax, 1.0) ** 2)
        outer = np.sign(x) * (1.0 + self.lam1 * (ax - 1.0))
        return np.where(ax <= 1.0, inner, outer)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        u = np.minimum(np.abs(x), 1.0) ** 2
        inner = self.lam1 + self.K * self._poly(self.cj, u)
        return np.where(np.abs(x) <= 1.0, inner, self.lam1)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        u = np.minimum(ax, 1.0) ** 2
        # d/dx (1-x^2)^s = -2 s x (1-x^2)^{s-1}; reuse series of (1-u)^{s-1}
        # via c_j * (series shift): differentiate the polynomial instead.
        dcoef = self.cj[1:] * np.arange(1, len(self.cj))
        inner = self.K * 2.0 * x * self._poly(dcoef, u)
        return np.where(ax <= 1.0, inner, 0.0)

    def newton(self, y):
        """The Newton solve of a(x) = y, the generator of
        :func:`_newton_steps` with ``value_deriv`` left to its driver,
        stopping at 1e-15 within NEWTON_MAX_STEPS steps and accepting a
        residual within NEWTON_SLACK times ``reach`` (near |x| = 1 and for
        lam1 below about 0.45 the series cannot meet the stop).

        On the inner branch a is concave-increasing for y > 0 and the start
        y*lam1 sits below the root, so iterates increase monotonically
        (mirrored for y < 0); about 6 steps reach the stop.  On the outer
        branch a is linear and the start is the inverse.
        """
        ay = np.abs(y)
        outer = np.sign(y) * (1.0 + (ay - 1.0) / self.lam1)
        return _newton_steps(y, np.where(ay <= 1.0, y * self.lam1, outer),
                             1e-15, NEWTON_MAX_STEPS, self.reach,
                             "Morse-Smale profile")

    def inverse_deriv(self, y):
        """The inverse x = a^{-1}(y) and a'(x): :meth:`newton`, each
        iterate evaluated by :meth:`value_deriv`."""
        return _newton_solve(self.value_deriv, self.newton(y))

    def inverse(self, y):
        return self.inverse_deriv(y)[0]


def _ms_measure_constant(profile, lam2):
    """Worst transient decay ratio of the coordinate map, measured on a
    1-D grid of orbit starts; also returns the first step n0 at which
    every sampled forward orbit's one-step slope has dropped to lam2.

    The stable side walks forward orbits of |x| > 1/2, the unstable side
    backward orbits of |x| <= 1/2 through the Newton steps of the inverse;
    each round evaluates the next stable step and the next Newton iterate
    in one :meth:`_MSProfile.value_deriv` call, which is elementwise, so
    every value has the bits of the two walks run one after the other.
    """
    horizon = 60
    stable = np.concatenate([np.linspace(0.5 + 1e-9, 1.5, 300),
                             np.linspace(1.5, 4.0, 80)])
    m = len(stable)
    s_prod, s_step = np.ones_like(stable), 0
    worst, n0 = 1.0, 0
    u_cur = np.linspace(-0.5, 0.5, 301)
    u_prod, u_step = np.ones_like(u_cur), 1
    newton = profile.newton(u_cur)
    u_x = next(newton)
    while s_step < horizon or newton is not None:
        walks = [stable] if s_step < horizon else []
        val, d = profile.value_deriv(np.concatenate(
            walks + ([u_x] if newton is not None else [])))
        if walks:
            s_step += 1
            stable, sd, val, d = val[:m], d[:m], val[m:], d[m:]
            s_prod = s_prod * sd
            worst = max(worst, float(np.max(s_prod / lam2 ** s_step)))
            if n0 == 0 and np.all(sd <= lam2):
                n0 = s_step
        if newton is None:
            continue
        try:
            u_x = newton.send((val, d))
        except StopIteration as done:
            u_cur, ud = done.value
            u_prod = u_prod / ud
            worst = max(worst, float(np.max(np.abs(u_prod) / lam2 ** u_step)))
            newton = None
            if u_step < horizon:
                u_step += 1
                newton = profile.newton(u_cur)
                u_x = next(newton)
    return worst, max(n0, 1)


def make_ms_product(params, window, p=2.0, name="ms_product"):
    """Coordinate-wise product system of the Morse-Smale interval map.

    The splitting at x groups coordinates by |x_k| > 1/2 (stable: the
    orbit converges to an attracting fixed point) versus |x_k| <= 1/2
    (unstable: backward orbit converges to the repeller).  The certificate
    rate is params.lam2; its constant is the worst transient ratio measured
    on a 1-D grid, recorded in cert.meta alongside the n0-based formula.
    """
    profile = _MSProfile(params.lam1)
    grid = np.linspace(-10, 10, 4001)
    d2max = float(np.max(np.abs(profile.deriv2(grid))))
    if d2max > params.M:
        raise PreconditionError(
            f"realized |a''| = {d2max:.3g} exceeds declared M = {params.M}")

    def dforward_rows(xs):
        return diag(window, profile.deriv(xs))

    def inverse_diff_rows(ys):
        xs, d = profile.inverse_deriv(ys)
        return xs, diag(window, 1.0 / d)

    C_emp, n0 = _ms_measure_constant(profile, params.lam2)
    C_cert = math.ceil(C_emp * 1.02 * 1e6) / 1e6

    def proj_at(x):
        mask = (np.abs(x.coeffs) > 0.5).astype(float)
        return ProjPair(diag(window, mask), diag(window, 1.0 - mask))

    R = 1.0 / params.lam1
    cert = CLCertificate(max(1.0, C_cert), params.lam2, R, proj_at,
                         meta={"C_emp": C_emp, "n0": n0,
                               "C_formula_n0": (1.0 / params.lam1) ** n0,
                               "s": profile.s})
    modulus = lambda t: params.M * t
    return DiffeoSystem(name, window, p, profile.value, profile.inverse,
                        dforward_rows, inverse_diff_rows, R, modulus,
                        support_shift=0, cert=cert,
                        meta={"params": params, "d2_realized": d2max})


# ---------------------------------------------------------------------------
# the diagonal sequence with a splitting but no dichotomy


def make_linear_example_seq(window, interval):
    """Diagonal operators (A_k x)_m = x_m/2 for m <= k, 2 x_m for m > k,
    for k over ``interval``, a non-empty run of consecutive integers (a
    range of time indices)."""
    ks = np.array(interval)
    first = ks[0] if ks.ndim == 1 and ks.size else None
    if not (isinstance(first, (np.integer, np.floating))
            and np.isfinite(first) and first == np.floor(first)
            and np.array_equal(ks, first + np.arange(len(ks)))):
        raise PreconditionError(
            "interval must be a non-empty run of consecutive integers, "
            f"got {interval!r}")
    ms = np.arange(window.lo, window.hi + 1)
    return OperatorSeq(int(ks[0]),
                       diag(window, np.where(ms <= ks[:, None], 0.5, 2.0)))


def linear_example_cert(window):
    """Natural projections of the no-dichotomy example: P_k keeps m <= k."""
    ms = np.arange(window.lo, window.hi + 1)

    def proj_at(k):
        mask = (ms <= k).astype(float)
        return ProjPair(diag(window, mask), diag(window, 1.0 - mask))

    return CLCertificate(1.0, 0.5, 2.0, proj_at,
                         meta={"splitting": "support m <= k stable"})


# ---------------------------------------------------------------------------
# conjugation


def make_sin_wobble(window, p=2.0, amp=0.05):
    """Coordinate change h(x)_k = x_k + amp sin(x_k) (same on every
    coordinate; support does not move)."""
    if not 0.0 <= amp < 1.0:
        raise PreconditionError("amp must lie in [0, 1)")

    forward_rows = lambda xs: xs + amp * np.sin(xs)
    deriv = lambda xs: 1.0 + amp * np.cos(xs)

    def solve(ys):
        return _newton_solve(
            lambda xs: (forward_rows(xs), deriv(xs)),
            _newton_steps(ys, ys.copy(), 1e-16, 80, NEWTON_REACH,
                          "sine wobble"))

    def dforward_rows(xs):
        return diag(window, deriv(xs))

    def inverse_diff_rows(ys):
        xs, d = solve(ys)
        return xs, diag(window, 1.0 / d)

    R1 = 1.0 / (1.0 - amp)
    return DiffeoSystem("sin_wobble", window, p, forward_rows,
                        lambda ys: solve(ys)[0], dforward_rows,
                        inverse_diff_rows, R1,
                        lambda t: amp * t, support_shift=0)


def sample_interior_points(sys, count, seed=0, radius=0.25):
    """Random points supported at least SUPPORT_MARGIN coordinates away from
    the window edges (so that short orbits of shift systems stay inside the
    truncation guard): the rows of :func:`_interior_rows` as SeqVecs."""
    return [SeqVec(sys.window, c, sys.p)
            for c in _interior_rows(sys.window, count, seed, radius)]


def _interior_rows(w, count, seed, radius):
    """The coefficients of ``sample_interior_points`` as a (count, n) block.

    Every support keeps SUPPORT_MARGIN coordinates from both edges, so a
    window shorter than 2 SUPPORT_MARGIN + 8 coordinates has no room for
    one and is refused, before any draw.
    """
    lo = w.lo + SUPPORT_MARGIN
    hi = w.hi - SUPPORT_MARGIN
    if hi - 6 <= lo:
        need = 2 * SUPPORT_MARGIN + 8
        raise PreconditionError(
            f"window [{w.lo}, {w.hi}] has room for no interior sample: it "
            f"needs {need} coordinates, N >= {need // 2} for [-N, N]")
    rng = np.random.default_rng(seed)
    rows = np.zeros((count, w.length))
    for c in rows:
        span = rng.integers(lo, hi - 6)
        width = int(rng.integers(3, 7))
        sl = slice(span - w.lo, span - w.lo + width)
        c[sl] = rng.uniform(-radius, radius, width)
    return rows


def _fit_modulus(sys):
    """Empirical linear modulus r(t) = c t fitted from 40 sampled remainders
    (doubled for safety).  Used for systems without a closed-form bound.

    The remainders f(x+v) - f(x) - Df(x)v are evaluated as one block
    through the row maps, each row with the bits of :func:`s_remainder`
    at its point; when the edge guard trips on some row, the rows are
    evaluated one at a time and those that trip are skipped.
    """
    rng = np.random.default_rng(0)
    xs = _interior_rows(sys.window, 40, seed=1, radius=0.2)
    n = xs.shape[-1]
    vs = np.zeros(xs.shape)
    for x, v in zip(xs, vs):
        scale = rng.choice([1e-3, 1e-2, 1e-1, 0.3, 1.0])
        raw = np.zeros(n)
        support = np.flatnonzero(x)
        sl = slice(max(0, support[0] - 2), min(n, support[-1] + 3))
        raw[sl] = rng.standard_normal(sl.stop - sl.start)
        v[...] = raw / max(coeff_norm(raw, sys.p), 1e-12) * scale

    def remainders(x, v):
        lin = sys.dforward_rows(x)
        guard = edge_loss(lin, v)
        if guard is not None and guard[1].any():
            raise TruncationError("the remainder's differential drops mass")
        return sys.forward_rows(x + v) - sys.forward_rows(x) - apply_coeffs(lin, v)

    try:
        rems, kept = remainders(xs, vs), range(len(xs))
    except TruncationError:
        rems, kept = [], []
        for i in range(len(xs)):
            try:
                rems.append(remainders(xs[i:i + 1], vs[i:i + 1])[0])
                kept.append(i)
            except TruncationError:
                continue
    c_fit = 0.0
    if len(kept):
        nr = row_norms(np.asarray(rems), sys.p)
        nv = row_norms(vs[list(kept)], sys.p)
        for r, v in zip(nr, nv):
            if v > 0:
                c_fit = max(c_fit, float(r) / float(v) ** 2)
    return 2.0 * c_fit


def conjugate(sys, h, name=None):
    """The conjugated system g = h . f . h^{-1}.

    Its row maps compose the row maps of h^{-1}, the base system and h,
    and its differentials compose their operator stacks by the chain
    rule; when ``sys`` carries a certificate, its projections transport as
    Dh(y) P_y Dh(y)^{-1} at y = h^{-1}(x), with constants (lam, R1^2 C)
    for R1 = h.R.  Each evaluation at a block of rows x solves
    y = h^{-1}(x) once, with Dh^{-1}(x) from the same solve
    (``h.inverse_diff_rows``).  The modulus of g is fitted empirically
    from sampled remainders.
    """
    if h.window != sys.window:
        raise PreconditionError("coordinate change lives on a different window")
    R1 = h.R

    def forward_rows(xs):
        return h.forward_rows(sys.forward_rows(h.inverse_rows(xs)))

    def inverse_rows(xs):
        return h.forward_rows(sys.inverse_rows(h.inverse_rows(xs)))

    def dforward_rows(xs):
        ys, dhinv = h.inverse_diff_rows(xs)
        return compose(h.dforward_rows(sys.forward_rows(ys)),
                       compose(sys.dforward_rows(ys), dhinv))

    def inverse_diff_rows(xs):
        ys, dhinv = h.inverse_diff_rows(xs)
        bs, dbs = sys.inverse_diff_rows(ys)
        return h.forward_rows(bs), compose(h.dforward_rows(bs),
                                           compose(dbs, dhinv))

    cert = None
    if sys.cert is not None:
        base = sys.cert

        def proj_at(x):
            y = h.inverse(x)
            pair = base.proj_at(y)
            dh = h.dforward(y)
            dhinv = dh.inverse()
            return ProjPair(compose(dh, compose(pair.P, dhinv)),
                            compose(dh, compose(pair.Q, dhinv)))

        cert = CLCertificate(R1 ** 2 * base.C, base.lam, R1 ** 2 * base.R,
                             proj_at, meta={"transported_from": sys.name})

    g = DiffeoSystem(name or f"conjugated:{sys.name}", sys.window, sys.p,
                     forward_rows, inverse_rows, dforward_rows,
                     inverse_diff_rows, R1 ** 2 * sys.R, None,
                     support_shift=sys.support_shift, cert=cert,
                     meta={"base": sys.name, "R1": R1})
    c_fit = _fit_modulus(g)
    object.__setattr__(g, "modulus", lambda t: c_fit * t)
    return g


# ---------------------------------------------------------------------------
# registry for the CLI


def system_keys(name, given=()):
    """The construction keys the registry name ``name`` takes, as a set:
    its ``SYSTEM_KEYS`` entry, and for ``conjugated:<base>`` ``amp`` plus
    the keys of its base; None for a name the registry does not know.  A
    key among ``given`` that a known name does not take is refused, in the
    one wording that :func:`make_system` and the CLI share."""
    if name.startswith("conjugated:"):
        known = system_keys(name.split(":", 1)[1])
        known = None if known is None else known | {"amp"}
    else:
        known = set(SYSTEM_KEYS[name]) if name in SYSTEM_KEYS else None
    unknown = set() if known is None else set(given) - known
    if unknown:
        raise PreconditionError(
            f"unknown system keys for {name!r}: {sorted(unknown)}; "
            f"known keys are {sorted(known)}")
    return known


def make_system(name, window, p=2.0, **kw):
    """Build a system by its registry name.

    Names: weighted_shift_linear, weighted_shift_tanh, ms_product,
    linear_no_ed (returns (OperatorSeq, CLCertificate)), and
    conjugated:<base> which wraps the base system in the sine coordinate
    change.  A key the name does not take (:func:`system_keys`) is
    refused; ``conjugated:<base>`` passes all but ``amp`` to its base."""
    system_keys(name, kw)
    if name.startswith("conjugated:"):
        amp = kw.pop("amp", 0.05)
        base = make_system(name.split(":", 1)[1], window, p, **kw)
        return conjugate(base, make_sin_wobble(window, p, amp=amp), name=name)
    if name not in SYSTEM_KEYS:
        raise PreconditionError(f"unknown system name {name!r}")
    if name == "weighted_shift_linear":
        return make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, window, p,
                                   name=name)
    if name == "weighted_shift_tanh":
        return make_weighted_shift(TanhShiftFamily(), 0.5, 2.5, window, p,
                                   name=name)
    if name == "ms_product":
        return make_ms_product(MSMapParams(**kw), window, p, name=name)
    # linear_no_ed, the one name left
    interval = kw.get("interval")
    if interval is None:
        half = min(20, (window.length - 9) // 2)
        interval = range(-half, half + 1)
    return make_linear_example_seq(window, interval), linear_example_cert(window)
