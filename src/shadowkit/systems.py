"""Concrete sequence-space dynamical systems and their certificates.

Three families are built in:

* ``weighted shift``   f({x_k}) = {y_{k+1} = a_k(x_k)} with per-index 1-D
  diffeomorphisms a_k that fix 0, expand (slope in [1/lam, R]) for k < 0
  and contract (slope in [1/R, lam]) for k >= 0.  Its differential is a
  ShiftDiag operator and the constant splitting "support on k >= 0" /
  "support on k < 0" carries a (C = 1, lam) certificate.
* ``ms product``       f({x_k}) = {a(x_k)} for a single odd 1-D map a with
  attracting fixed points -1, +1 (multiplier lam1) and a repelling fixed
  point 0 (multiplier 1/lam1).  Coordinate-wise, so the differential is
  Diag; the splitting groups coordinates by |x_k| > 1/2 vs <= 1/2 and its
  decay constant is measured on a 1-D orbit grid at rate lam2.
* ``linear no-dichotomy sequence``  the diagonal operator sequence
  (A_k x)_m = x_m/2 for m <= k, 2 x_m for m > k, which carries the
  splitting structure with C = 1, lam = 1/2 but fails the equality
  invariance of an exponential dichotomy.

``conjugate`` transports a system and its certificate through a coordinate
change h, with constants (lam, R1^2 C) where R1 bounds Dh and Dh^{-1}.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .seqcore import (
    Window, SeqVec, OperatorSeq, norm, op_apply, compose, row_norms, stack_ops,
    diag, shift_diag, edge_trips, ConvergenceError, PreconditionError,
    TruncationError,
)
from .clstruct import ProjPair, CLCertificate, constant_cert

__all__ = [
    "DiffeoSystem", "MSMapParams", "s_remainder",
    "make_weighted_shift", "make_ms_product", "make_linear_example_seq",
    "linear_example_cert", "conjugate", "make_sin_wobble", "make_system",
    "LinearShiftFamily", "TanhShiftFamily", "SinPerturbedFamily",
    "sample_interior_points",
]

#: slack accepted at the closed ends of the slope intervals; the canonical
#: examples attain their interval ends exactly.
END_SLACK = 1e-12
#: distance from the window edges kept by ``sample_interior_points``
SUPPORT_MARGIN = 4
#: Newton steps the Morse-Smale profile's inverse may take
NEWTON_MAX_STEPS = 60
#: multiple of the profile series' rounding scale (``_MSProfile.reach``)
#: that its inverse accepts as residual when Newton misses the 1e-15 stop
NEWTON_SLACK = 16.0
#: upper end of the bisection for the Morse-Smale profile's exponent s
MS_EXPONENT_MAX = 80.0
#: how far the Morse-Smale profile's series may miss a(1) = 1
MS_PIN_TOL = 1e-9


@dataclass(frozen=True)
class DiffeoSystem:
    """A diffeomorphism of the windowed sequence space with C^1 data.

    ``forward``/``inverse`` map SeqVec -> SeqVec; ``dforward``/``dinverse``
    map a SeqVec to the LinOp differential at that point; ``R`` bounds both
    differentials; ``modulus`` is the nondecreasing r(t) with
    |f(x+v) - f(x) - Df(x)v| <= |v| r(|v|).  ``support_shift`` records how
    far the coordinate support travels per forward step (1 for shifts,
    0 for coordinate-wise maps) -- the window bookkeeping needs it.

    ``forward_rows`` and ``inverse_rows``, when given, are ``forward`` and
    ``inverse`` over the coefficient rows of a (..., n) array, read
    through :meth:`map_rows` and :meth:`inverse_map_rows`.  Their
    contract: each returns a new array, every row gets the same bits the
    point map gives that row, and the truncation guard is judged per row,
    so it raises :class:`TruncationError` exactly when the point map would
    raise on some row.  Without them, the readers call the point map row
    by row.  ``dforward_rows``, when given, is ``dforward`` at every row
    of a (..., n) array as one operator stack, each operator with
    the bits ``dforward`` gives that row; :meth:`diff_rows` reads it, and
    calls ``dforward`` row by row without it.  :meth:`orbit_rows` walks the
    orbit segments of a block of starts in lockstep, one row-map call per
    step, and :meth:`orbit` is the walk of one point; :meth:`step_gaps`
    measures the step defects of a block of rows through ``map_rows``.
    """

    name: str
    window: Window
    p: float
    forward: object
    inverse: object
    dforward: object
    dinverse: object
    R: float
    modulus: object
    support_shift: int = 0
    cert: object = None
    meta: dict = field(default_factory=dict, compare=False)
    forward_rows: object = field(default=None, compare=False)
    dforward_rows: object = field(default=None, compare=False)
    inverse_rows: object = field(default=None, compare=False)

    def with_cert(self, cert):
        return replace(self, cert=cert)

    def _rows_by_point(self, point_map, xs):
        xs = np.asarray(xs, dtype=float)
        rows = [point_map(SeqVec(self.window, x, self.p)).coeffs
                for x in xs.reshape(-1, self.window.length)]
        return np.array(rows).reshape(xs.shape)

    def map_rows(self, xs):
        """``forward`` applied to every coefficient row of a (..., n) array."""
        if self.forward_rows is not None:
            return self.forward_rows(xs)
        return self._rows_by_point(self.forward, xs)

    def inverse_map_rows(self, ys):
        """``inverse`` applied to every coefficient row of a (..., n) array."""
        if self.inverse_rows is not None:
            return self.inverse_rows(ys)
        return self._rows_by_point(self.inverse, ys)

    def diff_rows(self, xs):
        """``dforward`` at every coefficient row of a (..., n) array, as one
        operator stack."""
        if self.dforward_rows is not None:
            return self.dforward_rows(xs)

        def nested(x):
            if x.ndim == 1:
                return self.dforward(SeqVec(self.window, x, self.p))
            return [nested(row) for row in x]

        return stack_ops(nested(np.asarray(xs, dtype=float)))

    def orbit_rows(self, xs, back, fwd):
        """The orbit points f^j(x) for j = -back .. fwd of every start row x
        of a (k, n) array, as a (k, back + fwd + 1, n) array.

        All starts are walked in lockstep, one :meth:`map_rows` or
        :meth:`inverse_map_rows` call per step: the forward steps first,
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
                cur = self.map_rows(cur)
                walk[:, j] = cur
            cur = xs
            for j in range(behind - 1, -1, -1):
                cur = self.inverse_map_rows(cur)
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
        gaps = self.map_rows(rows[..., :-1, :])
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
# weighted shift families


def _newton(fn, dfn, ys, xs, steps, stop):
    """Solve fn(x) = ys coordinate-wise by Newton's method from xs, in at
    most ``steps`` steps; every coordinate map's inverse runs it.

    ys is one row or a (..., n) block of rows, and each row stops at its
    own bound: once its |fn(x) - y|_inf is at most ``stop * (1 +
    |y|_inf)``, it keeps its iterate while the other rows go on.  So every
    row gets the bits and the step count of its solve alone.
    """
    bound = stop * (1.0 + np.max(np.abs(ys), axis=-1, initial=0.0))
    for _ in range(steps):
        fx = fn(xs) - ys
        live = np.max(np.abs(fx), axis=-1) > bound
        if not live.any():
            break
        xs = np.where(live[..., None], xs - fx / dfn(xs), xs)
    return xs


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
        return c1 + c2 / np.cosh(xs) ** 2

    def apply_inv(self, ks, ys):
        c1, c2 = self._coef(ks)
        return _newton(lambda xs: c1 * xs + c2 * np.tanh(xs),
                       lambda xs: c1 + c2 / np.cosh(xs) ** 2,
                       ys, ys / c1, 60, 1e-15)


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
        return _newton(lambda xs: self.apply(ks, xs),
                       lambda xs: self.deriv(ks, xs),
                       ys, self.base.apply_inv(ks, ys), 60, 1e-15)


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

    def forward(x):
        return SeqVec(window, forward_rows(x.coeffs), x.p)

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

    def inverse(y):
        return SeqVec(window, inverse_rows(y.coeffs), y.p)

    def dforward(x):
        return shift_diag(window, a_family.deriv(ks, x.coeffs), shift=1)

    def dforward_rows(xs):
        return shift_diag(window, a_family.deriv(ks, xs), 1)

    def dinverse(y):
        return dforward(inverse(y)).inverse()

    m2 = a_family.d2_bound
    modulus = lambda t: m2 * t

    mask = (ks >= 0).astype(float)
    cert = constant_cert(1.0, lam, R, diag(window, mask),
                         diag(window, 1.0 - mask),
                         splitting="support k >= 0 stable")
    return DiffeoSystem(name, window, p, forward, inverse, dforward,
                        dinverse, R, modulus, support_shift=1, cert=cert,
                        meta={"d2_bound": m2}, forward_rows=forward_rows,
                        dforward_rows=dforward_rows, inverse_rows=inverse_rows)


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
    :meth:`deriv` and :meth:`inverse`.
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

    def inverse_deriv(self, y):
        """The inverse x = a^{-1}(y) and a'(x), by Newton's method.

        On the inner branch a is concave-increasing for y > 0 and the start
        y*lam1 sits below the root, so iterates increase monotonically
        (mirrored for y < 0); about 6 steps reach the 1e-15 stop.  When
        NEWTON_MAX_STEPS steps miss it, the last iterate is returned if its
        residual is within ``NEWTON_SLACK * reach * (1 + |y|_inf)``, the
        accuracy the series can reach (near |x| = 1 and for lam1 below
        about 0.45 that is above the stop), and :class:`ConvergenceError`
        is raised otherwise, a NaN residual included.
        """
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        outer = np.sign(y) * (1.0 + (ay - 1.0) / self.lam1)
        x = np.where(ay <= 1.0, y * self.lam1, outer)
        stop = 1e-15 * (1.0 + np.max(ay, initial=0.0))
        for step in range(NEWTON_MAX_STEPS + 1):
            val, dx = self.value_deriv(x)
            fx = val - y
            if np.max(np.abs(fx)) <= stop:
                return x, dx
            if step == NEWTON_MAX_STEPS:
                break
            x = x - fx / dx
        if np.max(np.abs(fx)) <= NEWTON_SLACK * self.reach * (
                1.0 + np.max(ay, initial=0.0)):
            return x, dx
        raise ConvergenceError(
            f"Morse-Smale profile inverse still off by "
            f"{np.max(np.abs(fx)):.3g} after {NEWTON_MAX_STEPS} Newton steps")

    def inverse(self, y):
        return self.inverse_deriv(y)[0]


def _ms_measure_constant(profile, lam2):
    """Worst transient decay ratio of the coordinate map, measured on a
    1-D grid of orbit starts; also returns the first step n0 at which
    every sampled forward orbit's one-step slope has dropped to lam2."""
    horizon = 60
    # stable side: |x| > 1/2, forward orbits
    xs = np.concatenate([np.linspace(0.5 + 1e-9, 1.5, 300),
                         np.linspace(1.5, 4.0, 80)])
    worst, n0 = 1.0, 0
    prod = np.ones_like(xs)
    cur = xs.copy()
    for nstep in range(1, horizon + 1):
        cur, d = profile.value_deriv(cur)
        prod = prod * d
        worst = max(worst, float(np.max(prod / lam2 ** nstep)))
        if n0 == 0 and np.all(d <= lam2):
            n0 = nstep
    # unstable side: |x| <= 1/2, backward orbits of the inverse factors
    xs = np.linspace(-0.5, 0.5, 301)
    prod = np.ones_like(xs)
    cur = xs.copy()
    for nstep in range(1, horizon + 1):
        cur, d = profile.inverse_deriv(cur)
        prod = prod / d
        worst = max(worst, float(np.max(np.abs(prod) / lam2 ** nstep)))
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

    def forward(x):
        return SeqVec(window, profile.value(x.coeffs), x.p)

    def inverse(y):
        return SeqVec(window, profile.inverse(y.coeffs), y.p)

    def dforward(x):
        return diag(window, profile.deriv(x.coeffs))

    def dinverse(y):
        return diag(window, 1.0 / profile.inverse_deriv(y.coeffs)[1])

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
    return DiffeoSystem(name, window, p, forward, inverse, dforward,
                        dinverse, R, modulus, support_shift=0, cert=cert,
                        meta={"params": params, "d2_realized": d2max})


# ---------------------------------------------------------------------------
# the diagonal sequence with a splitting but no dichotomy


def make_linear_example_seq(window, interval):
    """Diagonal operators (A_k x)_m = x_m/2 for m <= k, 2 x_m for m > k,
    for k over ``interval`` (a range of time indices)."""
    ks = list(interval)
    ms = np.arange(window.lo, window.hi + 1)
    ops = [diag(window, np.where(ms <= k, 0.5, 2.0)) for k in ks]
    return OperatorSeq(ks[0], ops)


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

    def forward(x):
        return SeqVec(window, x.coeffs + amp * np.sin(x.coeffs), x.p)

    def inverse(y):
        x = _newton(lambda x: x + amp * np.sin(x),
                    lambda x: 1.0 + amp * np.cos(x),
                    y.coeffs, y.coeffs.copy(), 80, 1e-16)
        return SeqVec(window, x, y.p)

    def dforward(x):
        return diag(window, 1.0 + amp * np.cos(x.coeffs))

    def dinverse(y):
        return diag(window, 1.0 / (1.0 + amp * np.cos(inverse(y).coeffs)))

    R1 = 1.0 / (1.0 - amp)
    return DiffeoSystem("sin_wobble", window, p, forward, inverse, dforward,
                        dinverse, R1, lambda t: amp * t, support_shift=0)


def sample_interior_points(sys, count, seed=0, radius=0.25):
    """Random points supported at least SUPPORT_MARGIN coordinates away from
    the window edges (so that short orbits of shift systems stay inside the
    truncation guard)."""
    rng = np.random.default_rng(seed)
    w = sys.window
    pts = []
    lo = w.lo + SUPPORT_MARGIN
    hi = w.hi - SUPPORT_MARGIN
    for _ in range(count):
        c = np.zeros(w.length)
        span = rng.integers(lo, hi - 6)
        width = int(rng.integers(3, 7))
        sl = slice(span - w.lo, span - w.lo + width)
        c[sl] = rng.uniform(-radius, radius, width)
        pts.append(SeqVec(w, c, sys.p))
    return pts


def _fit_modulus(sys):
    """Empirical linear modulus r(t) = c t fitted from 40 sampled remainders
    (doubled for safety).  Used for systems without a closed-form bound."""
    rng = np.random.default_rng(0)
    pts = sample_interior_points(sys, 40, seed=1, radius=0.2)
    c_fit = 0.0
    for x in pts:
        scale = rng.choice([1e-3, 1e-2, 1e-1, 0.3, 1.0])
        raw = np.zeros(x.window.length)
        support = np.flatnonzero(x.coeffs)
        sl = slice(max(0, support[0] - 2), min(x.window.length, support[-1] + 3))
        raw[sl] = rng.standard_normal(sl.stop - sl.start)
        v = SeqVec(x.window, raw / max(norm(SeqVec(x.window, raw, x.p)), 1e-12) * scale, x.p)
        try:
            rem = s_remainder(sys, x, v)
        except TruncationError:
            continue
        nv = norm(v)
        if nv > 0:
            c_fit = max(c_fit, norm(rem) / nv ** 2)
    return 2.0 * c_fit


def conjugate(sys, h, name=None):
    """The conjugated system g = h . f . h^{-1}.

    Differentials compose by the chain rule; when ``sys`` carries a
    certificate, its projections transport as Dh(y) P_y Dh(y)^{-1} at
    y = h^{-1}(x), with constants (lam, R1^2 C) for R1 = h.R.  Each
    evaluation at x solves y = h^{-1}(x) once and takes Dh^{-1}(x) as
    Dh(y)^{-1}.  The modulus of g is fitted empirically from sampled
    remainders.
    """
    if h.window != sys.window:
        raise PreconditionError("coordinate change lives on a different window")
    R1 = h.R

    def forward(x):
        return h.forward(sys.forward(h.inverse(x)))

    def inverse(x):
        return h.forward(sys.inverse(h.inverse(x)))

    def dforward(x):
        y = h.inverse(x)
        return compose(h.dforward(sys.forward(y)),
                       compose(sys.dforward(y), h.dforward(y).inverse()))

    def dinverse(x):
        y = h.inverse(x)
        return compose(h.dforward(sys.inverse(y)),
                       compose(sys.dinverse(y), h.dforward(y).inverse()))

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
                     forward, inverse, dforward, dinverse,
                     R1 ** 2 * sys.R, None, support_shift=sys.support_shift,
                     cert=cert, meta={"base": sys.name, "R1": R1})
    c_fit = _fit_modulus(g)
    object.__setattr__(g, "modulus", lambda t: c_fit * t)
    return g


# ---------------------------------------------------------------------------
# registry for the CLI


def make_system(name, window, p=2.0, **kw):
    """Build a system by its registry name.

    Names: weighted_shift_linear, weighted_shift_tanh, ms_product,
    linear_no_ed (returns (OperatorSeq, CLCertificate)), and
    conjugated:<base> which wraps the base system in the sine coordinate
    change."""
    if name == "weighted_shift_linear":
        return make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, window, p,
                                   name=name)
    if name == "weighted_shift_tanh":
        return make_weighted_shift(TanhShiftFamily(), 0.5, 2.5, window, p,
                                   name=name)
    if name == "ms_product":
        params = MSMapParams(**{k: kw[k] for k in ("lam1", "lam2", "M") if k in kw})
        return make_ms_product(params, window, p, name=name)
    if name == "linear_no_ed":
        interval = kw.get("interval")
        if interval is None:
            half = min(20, (window.length - 9) // 2)
            interval = range(-half, half + 1)
        return make_linear_example_seq(window, interval), linear_example_cert(window)
    if name.startswith("conjugated:"):
        base = make_system(name.split(":", 1)[1], window, p, **kw)
        h = make_sin_wobble(window, p, amp=kw.get("amp", 0.05))
        return conjugate(base, h, name=name)
    raise PreconditionError(f"unknown system name {name!r}")
