import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowkit.semiconj import translate_system
from shadowkit import systems
from shadowkit.seqcore import (
    Window, SeqVec, norm, op_apply, diag, apply_coeffs, compose,
    ConvergenceError, PreconditionError, TruncationError,
)
from shadowkit.systems import (
    DiffeoSystem, MSMapParams, s_remainder, make_weighted_shift,
    make_ms_product, make_linear_example_seq, linear_example_cert,
    conjugate, make_sin_wobble, make_system,
    LinearShiftFamily, TanhShiftFamily, SinPerturbedFamily,
    sample_interior_points, _MSProfile,
)

W = Window(-16, 16)


def shift_linear():
    return make_system("weighted_shift_linear", W)


def shift_tanh():
    return make_system("weighted_shift_tanh", W)


# --------------------------------------------------------------- oracles
# Slope ranges of the tanh family, computed straight from the formulas
# (independently of the family class) and frozen before anything else.

def test_tanh_slope_grid_oracle():
    xs = np.linspace(-10, 10, 2001)
    dneg = 2.0 + 0.1 / np.cosh(xs) ** 2
    dpos = 0.45 + 0.04 / np.cosh(xs) ** 2
    assert dneg.min() > 2.0 and dneg.max() <= 2.1
    assert dpos.min() > 0.45 and dpos.max() <= 0.49
    # and they fit the declared constants lam = 1/2, R = 5/2
    assert 1 / 0.5 <= dneg.min() and dneg.max() <= 2.5
    assert 1 / 2.5 <= dpos.min() and dpos.max() <= 0.5
    fam = TanhShiftFamily()
    ks = np.where(xs < 0, -1, 3)  # either branch, spot-check agreement
    got = fam.deriv(ks, xs)
    expect = np.where(ks < 0, 2.0 + 0.1 / np.cosh(xs) ** 2,
                      0.45 + 0.04 / np.cosh(xs) ** 2)
    assert np.max(np.abs(got - expect)) == 0.0


def test_linear_family_attains_closed_ends():
    # slopes 2 and 1/2 sit exactly on the interval ends; the validator
    # must accept them
    make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)


def test_validator_rejects_bad_slopes():
    with pytest.raises(PreconditionError):
        make_weighted_shift(LinearShiftFamily(neg_slope=1.5), 0.5, 2.0, W)
    with pytest.raises(PreconditionError):
        make_weighted_shift(LinearShiftFamily(pos_slope=0.7), 0.5, 2.0, W)


# ----------------------------------------------------------- weighted shift

def test_shift_forward_inverse_round_trip():
    sys = shift_tanh()
    for x in sample_interior_points(sys, 10, seed=4):
        y = sys.forward(x)
        back = sys.inverse(y)
        assert norm(SeqVec(W, back.coeffs - x.coeffs, x.p)) <= 1e-10 * (1 + norm(x))


def test_shift_fixes_origin():
    for sys in (shift_linear(), shift_tanh()):
        z = SeqVec.zero(W)
        assert norm(sys.forward(z)) == 0.0


def test_shift_forward_moves_support():
    sys = shift_linear()
    x = SeqVec.basis(W, 3)
    y = sys.forward(x)
    assert y[4] == 0.5 and abs(norm(y) - 0.5) < 1e-15
    x = SeqVec.basis(W, -3)
    y = sys.forward(x)
    assert y[-2] == 2.0


def test_shift_truncation_guard():
    sys = shift_linear()
    with pytest.raises(TruncationError):
        sys.forward(SeqVec.basis(W, W.hi))
    with pytest.raises(TruncationError):
        sys.inverse(SeqVec.basis(W, W.lo))


def test_shift_dforward_matches_finite_differences():
    sys = shift_tanh()
    rng = np.random.default_rng(7)
    for x in sample_interior_points(sys, 5, seed=11):
        A = sys.dforward(x)
        h = 1e-5
        v = np.zeros(W.length)
        v[3:-3] = rng.standard_normal(W.length - 6)
        v /= np.linalg.norm(v)
        plus = sys.forward(SeqVec(W, x.coeffs + h * v, x.p))
        minus = sys.forward(SeqVec(W, x.coeffs - h * v, x.p))
        fd = (plus.coeffs - minus.coeffs) / (2 * h)
        lin = op_apply(A, SeqVec(W, v, x.p), check_loss=False)
        assert np.max(np.abs(fd - lin.coeffs)) <= 1e-4 * sys.R


def test_shift_dinverse_is_inverse_of_dforward():
    sys = shift_tanh()
    x = sample_interior_points(sys, 1, seed=3)[0]
    y = sys.forward(x)
    A = sys.dforward(x)
    B = sys.dinverse(y)
    v = SeqVec(W, np.r_[np.zeros(3), np.ones(W.length - 6), np.zeros(3)], x.p)
    round_ = op_apply(B, op_apply(A, v))
    # the round trip loses only the guarded boundary coordinate
    assert np.max(np.abs(round_.coeffs[3:-3] - v.coeffs[3:-3])) <= 1e-12


def test_s_remainder_zero_perturbation_and_linear_exactness():
    lin = shift_linear()
    tanh = shift_tanh()
    x = sample_interior_points(tanh, 1, seed=5)[0]
    z = SeqVec.zero(W)
    assert norm(s_remainder(tanh, x, z)) == 0.0
    v = sample_interior_points(tanh, 1, seed=6)[0]
    assert norm(s_remainder(lin, x, v)) <= 1e-14


def test_s_remainder_quadratic_bound_tanh():
    sys = shift_tanh()
    M = sys.meta["d2_bound"]
    rng = np.random.default_rng(8)
    for x in sample_interior_points(sys, 20, seed=9):
        scale = rng.choice([1e-3, 1e-2, 0.1, 0.5])
        c = np.zeros(W.length)
        c[4:-4] = rng.standard_normal(W.length - 8)
        v = SeqVec(W, c / np.linalg.norm(c) * scale, x.p)
        rem = s_remainder(sys, x, v)
        nv = norm(v)
        assert norm(rem) <= M * nv ** 2 * (1 + 1e-8)
        # which is the modulus bound |s| <= |v| r(|v|)
        assert norm(rem) <= nv * sys.modulus(nv) * (1 + 1e-8)


def test_s_remainder_difference_lipschitz():
    # |s(x,v1) - s(x,v2)| <= eps |v1 - v2| once both v's are small enough
    sys = shift_tanh()
    M = sys.meta["d2_bound"]
    eps = 1e-3
    d = eps / M  # linear modulus inverts in closed form
    rng = np.random.default_rng(10)
    x = sample_interior_points(sys, 1, seed=12)[0]
    for _ in range(20):
        c1, c2 = np.zeros(W.length), np.zeros(W.length)
        c1[4:-4] = rng.standard_normal(W.length - 8)
        c2[4:-4] = rng.standard_normal(W.length - 8)
        v1 = SeqVec(W, c1 / np.linalg.norm(c1) * d * 0.9, x.p)
        v2 = SeqVec(W, c2 / np.linalg.norm(c2) * d * 0.9, x.p)
        s1, s2 = s_remainder(sys, x, v1), s_remainder(sys, x, v2)
        dv = norm(SeqVec(W, v1.coeffs - v2.coeffs, x.p))
        ds = norm(SeqVec(W, s1.coeffs - s2.coeffs, x.p))
        assert ds <= 2 * eps * dv + 1e-15


# ------------------------------------------------------------- MS product

def test_ms_profile_fixed_points_and_multipliers():
    prof = _MSProfile(0.5)
    assert abs(prof.value(np.array([1.0]))[0] - 1.0) <= 5e-15
    assert abs(prof.value(np.array([-1.0]))[0] + 1.0) <= 5e-15
    assert prof.value(np.array([0.0]))[0] == 0.0
    assert abs(prof.deriv(np.array([0.0]))[0] - 2.0) <= 1e-13
    assert abs(prof.deriv(np.array([1.0]))[0] - 0.5) <= 1e-13
    assert abs(prof.deriv(np.array([-1.0]))[0] - 0.5) <= 1e-13


def test_ms_profile_integral_oracle():
    # independent quadrature: integral of a' over [0,1] must be 1, which
    # is what pins the exponent s
    prof = _MSProfile(0.5)
    xs = np.linspace(0.0, 1.0, 200001)
    val = np.trapezoid(prof.deriv(xs), xs)
    assert abs(val - 1.0) <= 1e-9


def test_ms_profile_slope_range_and_alip():
    prof = _MSProfile(0.5)
    xs = np.linspace(-6, 6, 5001)
    d = prof.deriv(xs)
    assert d.min() >= 0.5 - 1e-14 and d.max() <= 2.0 + 1e-14
    nz = xs[np.abs(xs) > 1e-9]
    vals = prof.value(nz)
    assert np.all(np.abs(vals) < np.abs(nz) / 0.5)
    inv = prof.inverse(nz)
    assert np.all(np.abs(inv) < np.abs(nz) / 0.5)


def test_ms_profile_inverse_accuracy():
    prof = _MSProfile(0.5)
    ys = np.linspace(-3, 3, 1001)
    xs = prof.inverse(ys)
    assert np.max(np.abs(prof.value(xs) - ys)) <= 1e-13


def _newton_inverse_two_pass(prof, y):
    # reference: Newton with the value and derivative series evaluated in
    # two separate Horner passes, stopping at 1e-15
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    x = np.where(ay <= 1.0, y * prof.lam1,
                 np.sign(y) * (1.0 + (ay - 1.0) / prof.lam1))
    for _ in range(60):
        fx = prof.value(x) - y
        if np.max(np.abs(fx)) <= 1e-15 * (1.0 + np.max(ay, initial=0.0)):
            break
        x = x - fx / prof.deriv(x)
    return x


@pytest.mark.parametrize("lam1", [0.5, 0.7])
def test_ms_profile_one_pass_series_match_separate_passes(lam1):
    prof = _MSProfile(lam1)
    rng = np.random.default_rng(3)
    for xs in (np.linspace(-3.0, 3.0, 601), rng.uniform(-1.2, 1.2, (4, 33)),
               np.array(0.37), np.array([-1.0, 0.0, 1.0])):
        v, d = prof.value_deriv(xs)
        assert v.shape == d.shape == xs.shape
        assert v.tobytes() == prof.value(xs).tobytes()
        assert d.tobytes() == prof.deriv(xs).tobytes()
        x, dx = prof.inverse_deriv(xs)
        # each row of a block stops at its own bound, as a solve alone
        want = (_newton_inverse_two_pass(prof, xs) if xs.ndim < 2 else
                np.array([_newton_inverse_two_pass(prof, y) for y in xs]))
        assert x.tobytes() == prof.inverse(xs).tobytes() == want.tobytes()
        assert dx.tobytes() == prof.deriv(want).tobytes()


def test_ms_profile_inverse_raises_when_newton_misses_its_stop(monkeypatch):
    prof = _MSProfile(0.5)
    ys = np.linspace(-0.9, 0.9, 7)
    with pytest.raises(ConvergenceError, match="after 60 Newton steps"):
        prof.inverse(np.append(ys, np.nan))
    monkeypatch.setattr(systems, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match="after 1 Newton steps"):
        prof.inverse(ys)
    with pytest.raises(ConvergenceError):
        make_system("ms_product", W).dinverse(SeqVec(W, np.full(W.length, 0.6)))
    # the outer branch is linear: its start is already the inverse
    assert prof.inverse(np.array([2.0, -3.0])).tolist() == [3.0, -5.0]


def test_ms_profile_inverse_accepts_what_the_series_can_reach(monkeypatch):
    # for lam1 below about 0.45 the series cannot meet the 1e-15 stop near
    # the fixed points +-1 (at lam1 = 0.4 it misses by 3e-15 at +-1.0);
    # the inverse returns there, within its slack
    prof = _MSProfile(0.4)
    ys = np.array([1.0, -1.0])
    x = prof.inverse(ys)
    assert np.max(np.abs(prof.value(x) - ys)) <= systems.NEWTON_SLACK * prof.reach * 2.0
    monkeypatch.setattr(systems, "NEWTON_SLACK", 0.0)
    with pytest.raises(ConvergenceError, match="after 60 Newton steps"):
        prof.inverse(ys)
    monkeypatch.undo()
    ms = make_system("ms_product", W, lam1=0.4, M=6.0)
    for c in (1.0, -1.0):
        ms.dinverse(SeqVec(W, np.full(W.length, c)))


@pytest.mark.parametrize("lam1", [0.05, 0.1, 0.15])
def test_ms_profile_refuses_a_lam1_its_series_cannot_pin(lam1):
    # at 0.05 and 0.1 the exponent s would pass the bisection's end 80; at
    # 0.15 the series, which cancels at x = 1, misses a(1) = 1 by 1.1e-4
    with pytest.raises(PreconditionError, match=f"lam1 = {lam1} "):
        _MSProfile(lam1)
    with pytest.raises(PreconditionError, match=f"lam1 = {lam1} "):
        make_system("ms_product", W, lam1=lam1)


@pytest.mark.parametrize("lam1", [0.2, 0.3, 0.5])
def test_ms_profile_serves_a_lam1_its_series_pins(lam1):
    prof = _MSProfile(lam1)
    assert prof.s < systems.MS_EXPONENT_MAX
    assert abs(float(prof.value(1.0)) - 1.0) <= systems.MS_PIN_TOL
    assert prof.value(np.array([-1.0, 0.0])).tolist()[1] == 0.0


def _tanh_inverse_loop(fam, ks, ys):
    # reference: the Newton loop of TanhShiftFamily.apply_inv, written out
    c1, c2 = fam._coef(ks)
    xs = ys / c1
    for _ in range(60):
        fx = c1 * xs + c2 * np.tanh(xs) - ys
        if np.max(np.abs(fx)) <= 1e-15 * (1.0 + np.max(np.abs(ys))):
            break
        xs = xs - fx / (c1 + c2 / np.cosh(xs) ** 2)
    return xs


def _sin_perturbed_inverse_loop(fam, ks, ys):
    # reference: the Newton loop of SinPerturbedFamily.apply_inv, written out
    xs = fam.base.apply_inv(ks, ys)
    for _ in range(60):
        fx = fam.apply(ks, xs) - ys
        if np.max(np.abs(fx)) <= 1e-15 * (1.0 + np.max(np.abs(ys))):
            break
        xs = xs - fx / fam.deriv(ks, xs)
    return xs


def _wobble_inverse_loop(amp, ys):
    # reference: the Newton loop of make_sin_wobble's inverse, written out
    x = ys.copy()
    for _ in range(80):
        fx = x + amp * np.sin(x) - ys
        if np.max(np.abs(fx)) <= 1e-16 * (1.0 + np.max(np.abs(ys), initial=0.0)):
            break
        x = x - fx / (1.0 + amp * np.cos(x))
    return x


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
       st.sampled_from([1e-6, 1e-2, 0.3, 3.0, 40.0]),
       st.floats(0.0, 0.9), st.booleans())
def test_shared_newton_loop_matches_the_loops_it_replaced(seed, n, scale, amp,
                                                          tanh_base):
    rng = np.random.default_rng(seed)
    ks = rng.integers(-6, 6, n)
    ys = scale * rng.standard_normal(n)
    tanh = TanhShiftFamily()
    assert tanh.apply_inv(ks, ys).tobytes() == \
        _tanh_inverse_loop(tanh, ks, ys).tobytes()
    base = tanh if tanh_base else LinearShiftFamily()
    fam = SinPerturbedFamily(base, 0.1 * amp)
    assert fam.apply_inv(ks, ys).tobytes() == \
        _sin_perturbed_inverse_loop(fam, ks, ys).tobytes()
    w = Window(0, n - 1)
    wobble = make_sin_wobble(w, amp=amp)
    got = wobble.inverse(SeqVec(w, ys))
    assert got.coeffs.tobytes() == _wobble_inverse_loop(amp, ys).tobytes()
    assert got.coeffs is not ys


def test_ms_basin_iteration_converges_to_one():
    sys = make_system("ms_product", W)
    x = SeqVec(W, np.full(W.length, 0.9), 2.0)
    for _ in range(80):
        x = sys.forward(x)
    assert np.max(np.abs(x.coeffs - 1.0)) <= 1e-8


def test_ms_fixed_points_with_pattern_coordinates():
    sys = make_system("ms_product", W)
    c = np.zeros(W.length)
    c[5] = 1.0
    c[10] = -1.0
    x = SeqVec(W, c, 2.0)
    fx = sys.forward(x)
    assert np.max(np.abs(fx.coeffs - c)) <= 5e-15


def test_ms_unstable_fixed_point_multiplier():
    sys = make_system("ms_product", W)
    z = SeqVec.zero(W)
    A = sys.dforward(z)
    assert A.kind == "diag"
    assert np.max(np.abs(A.scalars - 2.0)) <= 1e-13


def test_ms_declared_m_bound_checked():
    with pytest.raises(PreconditionError):
        make_ms_product(MSMapParams(M=1.0), W)


def test_ms_constant_measurement_recorded():
    sys = make_system("ms_product", W)
    info = sys.cert.meta
    assert info["n0"] >= 1
    assert sys.cert.C >= info["C_emp"] >= 1.0
    assert info["C_formula_n0"] == (1 / 0.5) ** info["n0"]
    # the certificate constant should comfortably round up the measurement
    assert sys.cert.C <= 2 * info["C_formula_n0"]


def _ms_constant_walk_by_walk(profile, lam2):
    """The Morse-Smale constant with its two walks one after the other:
    the stable forward orbits, then the unstable backward orbits, one
    ``inverse_deriv`` per step (how make_ms_product measured it before
    the walks ran in lockstep)."""
    horizon = 60
    xs = np.concatenate([np.linspace(0.5 + 1e-9, 1.5, 300),
                         np.linspace(1.5, 4.0, 80)])
    worst, n0 = 1.0, 0
    prod, cur = np.ones_like(xs), xs.copy()
    for nstep in range(1, horizon + 1):
        cur, d = profile.value_deriv(cur)
        prod = prod * d
        worst = max(worst, float(np.max(prod / lam2 ** nstep)))
        if n0 == 0 and np.all(d <= lam2):
            n0 = nstep
    xs = np.linspace(-0.5, 0.5, 301)
    prod, cur = np.ones_like(xs), xs.copy()
    for nstep in range(1, horizon + 1):
        cur, d = profile.inverse_deriv(cur)
        prod = prod / d
        worst = max(worst, float(np.max(np.abs(prod) / lam2 ** nstep)))
    return worst, max(n0, 1)


def _horner_passes(prof, fn):
    """``fn()``'s result and the number of value_deriv calls it made on
    ``prof``."""
    passes, value_deriv = [0], prof.value_deriv

    def counted(xs):
        passes[0] += 1
        return value_deriv(xs)

    prof.value_deriv = counted
    try:
        return fn(), passes[0]
    finally:
        del prof.value_deriv


@pytest.mark.parametrize("lam1, passes", [(0.5, (146, 86)),
                                          (0.45, (143, 83))])
def test_ms_constant_lockstep_matches_the_walks_one_after_the_other(
        lam1, passes):
    # one value_deriv call per round for the stable step and the Newton
    # iterate of the unstable step: the same bits, fewer Horner passes
    prof = _MSProfile(lam1)
    want, seq_passes = _horner_passes(
        prof, lambda: _ms_constant_walk_by_walk(prof, 0.65))
    got, lock_passes = _horner_passes(
        prof, lambda: systems._ms_measure_constant(prof, 0.65))
    assert repr(got) == repr(want)
    assert (seq_passes, lock_passes) == passes
    if lam1 == 0.5:
        assert got == (1.1444570225905988, 2)


def test_ms_constant_lockstep_raises_what_the_walks_raise(monkeypatch):
    # at lam1 = 0.35 with 3 Newton steps allowed the unstable walk misses
    # its stop: the lockstep walk raises the error the inverse raises
    monkeypatch.setattr(systems, "NEWTON_MAX_STEPS", 3)
    prof = _MSProfile(0.35)
    with pytest.raises(ConvergenceError) as want:
        _ms_constant_walk_by_walk(prof, 0.65)
    with pytest.raises(ConvergenceError) as got:
        systems._ms_measure_constant(prof, 0.65)
    assert str(got.value) == str(want.value)
    assert "after 3 Newton steps" in str(got.value)


def _fit_modulus_point_by_point(sys):
    """The fitted modulus constant from one ``s_remainder`` per sampled
    point, skipping a point whose remainder trips the edge guard."""
    rng = np.random.default_rng(0)
    c_fit = 0.0
    for x in sample_interior_points(sys, 40, seed=1, radius=0.2):
        scale = rng.choice([1e-3, 1e-2, 1e-1, 0.3, 1.0])
        raw = np.zeros(x.window.length)
        support = np.flatnonzero(x.coeffs)
        sl = slice(max(0, support[0] - 2),
                   min(x.window.length, support[-1] + 3))
        raw[sl] = rng.standard_normal(sl.stop - sl.start)
        v = SeqVec(x.window, raw / max(norm(SeqVec(x.window, raw, x.p)),
                                       1e-12) * scale, x.p)
        try:
            rem = s_remainder(sys, x, v)
        except TruncationError:
            continue
        if norm(v) > 0:
            c_fit = max(c_fit, norm(rem) / norm(v) ** 2)
    return 2.0 * c_fit


@pytest.mark.parametrize("name, p", [("weighted_shift_tanh", 2.0),
                                     ("ms_product", 1.0),
                                     ("weighted_shift_linear", math.inf)])
def test_fit_modulus_block_matches_point_by_point(name, p):
    g = make_system("conjugated:" + name, Window(-12, 12), p)
    assert g.modulus(1.0) == _fit_modulus_point_by_point(g) > 0.0

    # a forward map whose edge guard trips on some rows: those are skipped
    base = make_system("weighted_shift_tanh", Window(-12, 12), p)
    tripped = []

    def forward_rows(xs):
        trips = np.abs(xs[..., 12]) > 0.05
        if trips.any():
            tripped.append(int(trips.sum()))
            raise TruncationError("trips")
        return base.forward_rows(xs)

    fussy = dataclasses.replace(base, forward_rows=forward_rows)
    assert systems._fit_modulus(fussy) == _fit_modulus_point_by_point(fussy)
    assert tripped


# ----------------------------------------------- linear no-dichotomy sequence

def test_linear_example_ops():
    seq = make_linear_example_seq(W, range(-5, 6))
    A0 = seq.op_at(0)
    assert op_apply(A0, SeqVec.basis(W, 0)).coeffs[W.offset(0)] == 0.5
    assert op_apply(A0, SeqVec.basis(W, 1)).coeffs[W.offset(1)] == 2.0
    inv = A0.inverse()
    assert inv.scalars[W.offset(0)] == 2.0
    assert inv.scalars[W.offset(1)] == 0.5


def test_linear_example_cert_projections():
    cert = linear_example_cert(W)
    pair = cert.proj_at(2)
    pair.validate()
    assert op_apply(pair.P, SeqVec.basis(W, 2)).coeffs[W.offset(2)] == 1.0
    assert norm(op_apply(pair.P, SeqVec.basis(W, 3))) == 0.0


@pytest.mark.parametrize("interval", [
    [0, 5], [], [2, 1], [0, 1.5], [0.5, 1.5], [[0, 1]], [math.nan],
    [math.inf], ["0", "1"], [True, False], 3])
def test_linear_example_refuses_an_interval_that_is_not_a_run(interval):
    # [0, 5] would label the operators of k = 0 and k = 5 as times 0 and 1
    with pytest.raises(PreconditionError, match="consecutive integers"):
        make_linear_example_seq(W, interval)


def test_linear_example_takes_any_run_of_consecutive_integers():
    want = make_linear_example_seq(W, range(-3, 2))
    for interval in ([-3, -2, -1, 0, 1], np.arange(-3, 2),
                     [-3.0, -2.0, -1.0, 0.0, 1.0]):
        seq = make_linear_example_seq(W, interval)
        assert (seq.lo, seq.count) == (-3, 5)
        assert seq.stack.data.tobytes() == want.stack.data.tobytes()


# ------------------------------------------------------------- conjugation

def test_conjugate_by_identity_is_f():
    base = shift_linear()
    ident = DiffeoSystem(
        "id", W, 2.0, np.copy, np.copy, lambda xs: diag(W, np.ones(xs.shape)),
        lambda xs: (xs.copy(), diag(W, np.ones(xs.shape))), 1.0,
        lambda t: 0.0)
    g = conjugate(base, ident)
    for x in sample_interior_points(base, 5, seed=13):
        assert np.max(np.abs(g.forward(x).coeffs - base.forward(x).coeffs)) == 0.0


def test_conjugation_intertwines():
    base = shift_tanh()
    h = make_sin_wobble(W)
    g = conjugate(base, h)
    for x in sample_interior_points(base, 50, seed=14):
        lhs = g.forward(h.forward(x))
        rhs = h.forward(base.forward(x))
        assert norm(SeqVec(W, lhs.coeffs - rhs.coeffs, x.p)) <= 1e-10


def test_conjugate_transports_certificate_constants():
    base = shift_linear()
    h = make_sin_wobble(W)
    g = conjugate(base, h)
    R1 = h.R
    assert g.cert is not None
    assert g.cert.C == pytest.approx(R1 ** 2 * base.cert.C)
    assert g.cert.lam == base.cert.lam
    pair = g.cert.proj_at(sample_interior_points(base, 1, seed=15)[0])
    pair.validate()


def test_conjugation_takes_dh_inverse_from_dh_bit_for_bit():
    # Dh^-1(x) = Dh(y)^-1 at y = h^-1(x); the formulation that asked h for
    # Dh^-1(x), and so solved y again, gives the same bits
    base = shift_tanh()
    h = make_sin_wobble(W)
    g = conjugate(base, h)
    for x in sample_interior_points(base, 5, seed=17):
        y = h.inverse(x)
        dhinv = h.dinverse(x)
        dh = h.dforward(y)
        ref = {
            "dforward": compose(h.dforward(base.forward(y)),
                                compose(base.dforward(y), dhinv)),
            "dinverse": compose(h.dforward(base.inverse(y)),
                                compose(base.dinverse(y), dhinv)),
            "P": compose(dh, compose(base.cert.proj_at(y).P, dhinv)),
            "Q": compose(dh, compose(base.cert.proj_at(y).Q, dhinv)),
        }
        pair = g.cert.proj_at(x)
        got = {"dforward": g.dforward(x), "dinverse": g.dinverse(x),
               "P": pair.P, "Q": pair.Q}
        for key in ref:
            assert got[key].to_json() == ref[key].to_json(), key


def test_conjugation_solves_h_inverse_once_per_evaluation():
    base = shift_tanh()
    h = make_sin_wobble(W)
    solves = [0]

    def inverse_rows(xs):
        solves[0] += 1
        return h.inverse_rows(xs)

    # the wobble's own Dh^-1, but solving through the counted inverse
    def inverse_diff_rows(xs):
        ys = inverse_rows(xs)
        return ys, h.dforward_rows(ys).inverse()

    g = conjugate(base, dataclasses.replace(
        h, inverse_rows=inverse_rows, inverse_diff_rows=inverse_diff_rows))
    x = sample_interior_points(base, 1, seed=18)[0]
    for evaluate in (g.dforward, g.dinverse, g.cert.proj_at):
        solves[0] = 0
        evaluate(x)
        assert solves[0] == 1


def test_sin_wobble_inverse():
    h = make_sin_wobble(W)
    rng = np.random.default_rng(16)
    x = SeqVec(W, rng.standard_normal(W.length), 2.0)
    back = h.inverse(h.forward(x))
    assert np.max(np.abs(back.coeffs - x.coeffs)) <= 1e-12


def test_make_system_registry():
    sys = make_system("conjugated:weighted_shift_linear", W)
    assert sys.name == "conjugated:weighted_shift_linear"
    assert sys.cert is not None
    seq, cert = make_system("linear_no_ed", W)
    assert seq.op_at(0).kind == "diag"
    with pytest.raises(PreconditionError):
        make_system("no_such_system", W)


@pytest.mark.parametrize("name, kw, key", [
    ("ms_product", {"lamb1": 0.3}, "'lamb1'"),
    ("weighted_shift_linear", {"amp": 0.1}, "'amp'"),
    ("weighted_shift_tanh", {"interval": [0, 1]}, "'interval'"),
    ("linear_no_ed", {"M": 6.0}, "'M'"),
    ("conjugated:weighted_shift_linear", {"lam1": 0.4}, "'lam1'"),
    ("conjugated:ms_product", {"lamb1": 0.3, "amp": 0.1}, "'lamb1'"),
])
def test_make_system_refuses_a_key_its_name_does_not_take(name, kw, key):
    with pytest.raises(PreconditionError, match=f"unknown system keys.*{key}"):
        make_system(name, W, **kw)


def test_conjugated_system_passes_all_but_amp_to_its_base():
    x = SeqVec(W, 0.3 * np.sin(np.arange(W.length)), 2.0)
    got = make_system("conjugated:ms_product", W, lam1=0.4, M=6.0, amp=0.1)
    want = conjugate(make_system("ms_product", W, lam1=0.4, M=6.0),
                     make_sin_wobble(W, amp=0.1),
                     name="conjugated:ms_product")
    assert got.forward(x).coeffs.tobytes() == want.forward(x).coeffs.tobytes()
    assert got.cert.C == want.cert.C and got.cert.lam == want.cert.lam
    assert set(systems.SYSTEM_KEYS["ms_product"]) == {"lam1", "lam2", "M"}


# ------------------------------------------------------------- row maps

def _row_map_systems():
    lin = shift_linear()
    tanh = shift_tanh()
    wobbly = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                                 0.5002, 2.001, W, name="wobbly")
    off = np.zeros(W.length)
    off[W.offset(0)] = 1e-4
    return [lin, tanh, wobbly, translate_system(wobbly, SeqVec(W, off)),
            make_system("conjugated:weighted_shift_tanh", W),
            make_system("ms_product", W), make_sin_wobble(W)]


ROW_MAP_SYSTEMS = _row_map_systems()
#: the systems that move the support, whose walks can escape the window
SHIFTING = [i for i, sys in enumerate(ROW_MAP_SYSTEMS) if sys.support_shift]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9),
       st.sampled_from(range(len(ROW_MAP_SYSTEMS))))
def test_row_map_equals_stacked_forward(seed, m, which):
    # rows with a zero, a negligible, a borderline or a heavy edge
    # coordinate: the borderline one (edge image 1.5e-12) trips the guard
    # only on rows whose largest coefficient is small, so the guard must be
    # judged per row
    sys = ROW_MAP_SYSTEMS[which]
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, (m, W.length)) * rng.choice([1e-3, 1.0], (m, 1))
    xs[:, -1] = rng.choice([0.0, 1e-14, 3e-13, 3e-12, 0.5], m)
    expected, trips = [], False
    for x in xs:
        try:
            expected.append(sys.forward(SeqVec(W, x, sys.p)).coeffs)
        except TruncationError:
            trips = True
    for shape in ((m, W.length), (1, m, W.length)):
        if trips:
            with pytest.raises(TruncationError):
                sys.forward_rows(xs.reshape(shape))
        else:
            got = sys.forward_rows(xs.reshape(shape)).reshape(m, W.length)
            assert got.tobytes() == np.array(expected).tobytes()


def test_conjugate_row_maps_compose_h_inverse_the_base_and_h():
    base, h = shift_tanh(), make_sin_wobble(W)
    g = conjugate(base, h)
    xs = np.array([x.coeffs for x in sample_interior_points(g, 4, seed=3)])
    ys = h.inverse_rows(xs)
    dh_inv = h.dforward_rows(ys).inverse()
    bs, dbs = base.inverse_diff_rows(ys)
    want = {
        "forward_rows": h.forward_rows(base.forward_rows(ys)),
        "inverse_rows": h.forward_rows(base.inverse_rows(ys)),
        "dforward_rows": compose(h.dforward_rows(base.forward_rows(ys)),
                                 compose(base.dforward_rows(ys), dh_inv)),
        "inverse_diff_rows": (h.forward_rows(bs),
                              compose(h.dforward_rows(bs),
                                      compose(dbs, dh_inv))),
    }
    for name, ref in want.items():
        got = getattr(g, name)(xs)
        assert _row_map_bits(got) == _row_map_bits(ref), name
    # an escaping row trips the guard of the whole block
    xs[1, -1] = 0.5
    with pytest.raises(TruncationError):
        g.forward_rows(xs)
    # the certificate swap keeps the row maps
    assert g.with_cert(None).forward_rows is g.forward_rows


def _row_map_bits(out):
    # the arrays a row map returns, with each operator stack's shift
    if isinstance(out, tuple):
        return [bits for part in out for bits in _row_map_bits(part)]
    if isinstance(out, np.ndarray):
        return [out.shape, out.tobytes()]
    return [out.shift, out.data.shape, out.data.tobytes()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6),
       st.sampled_from(range(len(ROW_MAP_SYSTEMS))),
       st.sampled_from(["dforward_rows", "inverse_diff_rows"]))
def test_differential_row_maps_give_every_row_its_one_row_bits(seed, m, which,
                                                              name):
    # the forward and inverse row maps' tests for the two maps that return
    # operator stacks: rows whose edge coordinates are zero, negligible,
    # borderline or heavy at either end, and a block gives every row the
    # bits of its one-row call and trips the guard exactly when some row
    # alone would
    sys = ROW_MAP_SYSTEMS[which]
    fn = getattr(sys, name)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, (m, W.length)) \
        * rng.choice([1e-3, 1.0], (m, 1))
    for edge in (0, -1):
        xs[:, edge] = rng.choice([0.0, 1e-14, 3e-13, 3e-12, 0.5], m)
    alone, trips = [], False
    for x in xs:
        try:
            alone.append(_row_map_bits(fn(x)))
        except TruncationError:
            trips = True
    for shape in ((m, W.length), (1, m, W.length)):
        if trips:
            with pytest.raises(TruncationError):
                fn(xs.reshape(shape))
            continue
        got = fn(xs.reshape(shape))
        parts = got if isinstance(got, tuple) else (got,)
        for i, want in enumerate(alone):
            rows = [part if isinstance(part, np.ndarray) else part.data
                    for part in parts]
            row_bits = []
            for part, data in zip(parts, rows):
                row = data.reshape((m,) + data.shape[len(shape) - 1:])[i]
                if isinstance(part, np.ndarray):
                    row_bits += [row.shape, row.tobytes()]
                else:
                    row_bits += [part.shift, row.shape, row.tobytes()]
            assert row_bits == want


@pytest.mark.parametrize("which", range(len(ROW_MAP_SYSTEMS)))
def test_diff_rows_equals_stacked_dforward(which):
    # every system's batched differential against its one-row reads
    sys = ROW_MAP_SYSTEMS[which]
    rng = np.random.default_rng(which)
    xs = rng.uniform(-0.5, 0.5, (2, 3, W.length))
    xs[..., :3] = 0.0
    xs[..., -3:] = 0.0
    ops = sys.dforward_rows(xs)
    vs = rng.standard_normal(xs.shape)
    got = apply_coeffs(ops, vs)
    for i in range(2):
        for j in range(3):
            A = sys.dforward(SeqVec(W, xs[i, j], sys.p))
            want = apply_coeffs(A, vs[i, j])
            assert got[i, j].tobytes() == want.tobytes()
            inv = apply_coeffs(ops[i, j:j + 1].inverse(), vs[i, j:j + 1])
            assert inv[0].tobytes() == apply_coeffs(A.inverse(),
                                                    vs[i, j]).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9),
       st.sampled_from(range(len(ROW_MAP_SYSTEMS))))
def test_inverse_row_map_equals_stacked_inverse(seed, m, which):
    # the mirror of the forward case: mass at the first coordinate enters
    # from outside the window, and the borderline value trips the guard
    # only on rows whose largest coefficient is small
    sys = ROW_MAP_SYSTEMS[which]
    rng = np.random.default_rng(seed)
    ys = rng.uniform(-1.0, 1.0, (m, W.length)) * rng.choice([1e-3, 1.0], (m, 1))
    ys[:, 0] = rng.choice([0.0, 1e-14, 3e-13, 3e-12, 0.5], m)
    expected, trips = [], False
    for y in ys:
        try:
            expected.append(sys.inverse(SeqVec(W, y, sys.p)).coeffs)
        except TruncationError:
            trips = True
    for shape in ((m, W.length), (1, m, W.length)):
        if trips:
            with pytest.raises(TruncationError):
                sys.inverse_rows(ys.reshape(shape))
        else:
            got = sys.inverse_rows(ys.reshape(shape)).reshape(m, W.length)
            assert got.tobytes() == np.array(expected).tobytes()


def test_newton_stops_each_row_at_its_own_bound():
    # row 0 meets its stop at once, row 1 needs many steps: row 0 keeps its
    # start, as alone, and is not judged by row 1's looser bound
    fn = lambda x: (x ** 3 + x, 3.0 * x ** 2 + 1.0)

    def solve(y):
        return systems._newton_solve(fn, systems._newton_steps(
            y, y.copy(), 1e-6, 60, systems.NEWTON_REACH, "cubic"))[0]

    ys = np.array([[1e-3, -2e-3], [50.0, -7.0]])
    got = solve(ys)
    for y, row in zip(ys, got):
        alone = solve(y)
        assert row.tobytes() == alone.tobytes()
    assert got[0].tobytes() == ys[0].tobytes()


def test_unconverged_inverse_rows_raise():
    # rows on which Newton wanders off: at amp 0.99 the wobble's slope
    # falls to 0.01, and so does the sine-perturbed 0.5 branch at 0.49
    rng = np.random.default_rng(0)
    w = Window(-8, 8)
    with pytest.raises(ConvergenceError,
                       match="^sine wobble inverse still off by .* after 80 "):
        make_sin_wobble(w, amp=0.99).inverse_rows(
            rng.uniform(-20.0, 20.0, (500, w.length)))
    fam = SinPerturbedFamily(LinearShiftFamily(), 0.49)
    with pytest.raises(ConvergenceError, match="after 60 Newton steps"):
        fam.apply_inv(np.arange(-50, 50), rng.uniform(-50.0, 50.0, (200, 100)))
    # a NaN residual is never taken for a converged row
    ys = np.array([[0.1, np.nan, 0.2], [0.3, 0.0, -0.1]])
    for inverse in (lambda y: TanhShiftFamily().apply_inv(np.arange(3), y),
                    lambda y: fam.apply_inv(np.arange(3), y),
                    make_sin_wobble(Window(0, 2), amp=0.5).inverse_rows,
                    _MSProfile(0.5).inverse):
        with pytest.raises(ConvergenceError, match="off by nan"):
            inverse(ys)
        inverse(ys[1:])


@functools.cache
def _profile(lam1):
    return _MSProfile(lam1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 12),
       st.sampled_from([1e-3, 1.0, 20.0, 50.0]), st.floats(0.0, 0.99),
       st.floats(0.0, 1.0), st.booleans(), st.sampled_from([0.3, 0.5, 0.7]),
       st.booleans())
def test_every_inverse_returns_rows_within_their_acceptance_bound(
        seed, rows, n, scale, amp, u, tanh_base, lam1, nan):
    rng = np.random.default_rng(seed)
    ks = rng.integers(-6, 6, n)
    ys = rng.uniform(-scale, scale, (rows, n))
    if nan:
        ys[rng.integers(rows), rng.integers(n)] = np.nan
    tanh = TanhShiftFamily()
    base = tanh if tanh_base else LinearShiftFamily()
    # amplitudes that keep every branch increasing
    fam = SinPerturbedFamily(base, u * (0.44 if tanh_base else 0.49))
    wobble = make_sin_wobble(Window(0, n - 1), amp=amp)
    prof = _profile(lam1)
    reach = systems.NEWTON_REACH
    cases = [(lambda y: tanh.apply_inv(ks, y), lambda x: tanh.apply(ks, x),
              1e-15, reach),
             (lambda y: fam.apply_inv(ks, y), lambda x: fam.apply(ks, x),
              1e-15, reach),
             (wobble.inverse_rows, wobble.forward_rows, 1e-16, reach),
             (prof.inverse, prof.value, 1e-15, prof.reach)]
    for inverse, forward, stop, reach in cases:
        try:
            xs = inverse(ys)
        except ConvergenceError:
            continue
        assert not nan
        res = np.max(np.abs(forward(xs) - ys), axis=-1)
        bound = max(stop, systems.NEWTON_SLACK * reach)
        assert np.all(res <= bound * (1.0 + np.max(np.abs(ys), axis=-1)))


def test_wobble_takes_its_inverse_differential_from_its_solve():
    w = Window(-8, 8)
    h = make_sin_wobble(w, amp=0.6)
    ys = np.random.default_rng(4).uniform(-3.0, 3.0, (5, w.length))
    xs, D = h.inverse_diff_rows(ys)
    assert xs.tobytes() == h.inverse_rows(ys).tobytes()
    assert D.kind == "diag"
    assert D.data.tobytes() == h.dforward_rows(xs).inverse().data.tobytes()


@pytest.mark.parametrize("N", [4, 7])
def test_a_window_too_small_for_interior_samples_is_refused(N):
    w = Window(-N, N)
    with pytest.raises(PreconditionError,
                       match=fr"window \[-{N}, {N}\] .* N >= 8"):
        sample_interior_points(make_system("weighted_shift_linear", w), 1)
    with pytest.raises(PreconditionError, match="N >= 8"):
        make_system("conjugated:weighted_shift_linear", w)
    w = Window(-8, 8)
    pts = sample_interior_points(make_system("weighted_shift_linear", w), 3)
    margin = systems.SUPPORT_MARGIN
    assert all(not x.coeffs[:margin].any() and not x.coeffs[-margin:].any()
               for x in pts)


def test_ms_inverse_stops_each_row_at_its_own_bound(monkeypatch):
    # at lam1 = 0.4 the rows +-1.0 miss the 1e-15 stop and return within
    # NEWTON_SLACK; the outer branch and zero rows stop before their first
    # step, small rows after a few and the rows near +-1 after many: every
    # row gets the iterate and the derivative of its solve alone
    prof = _MSProfile(0.4)
    ys = np.array([[2.0, -3.0, 1.5], [0.0, 0.0, 0.0], [1e-3, -2e-3, 5e-4],
                   [0.9, -0.97, 0.999], [1.0, -1.0, 0.5], [0.0, 0.25, -1.0]])
    x, dx = prof.inverse_deriv(ys)
    passes, value_deriv = [], prof.value_deriv

    def counted(xs):
        passes[-1] += 1
        return value_deriv(xs)

    monkeypatch.setattr(prof, "value_deriv", counted)
    for y, row, drow in zip(ys, x, dx):
        passes.append(0)
        alone, dalone = prof.inverse_deriv(y)
        assert row.tobytes() == alone.tobytes()
        assert drow.tobytes() == dalone.tobytes()
    # one series pass per Newton step, plus the pass that stops
    assert passes == [1, 1, 2, 6, 61, 61]
    # the outer branch is linear: its start is already the inverse
    assert x[0].tolist() == [3.5, -6.0, 2.25]
    # without the slack, exactly the rows holding +-1.0 fail alone, and a
    # block holding one of them fails
    monkeypatch.setattr(systems, "NEWTON_SLACK", 0.0)
    fails = []
    for i, y in enumerate(ys):
        try:
            prof.inverse_deriv(y)
        except ConvergenceError:
            fails.append(i)
    assert fails == [4, 5]
    assert prof.inverse_deriv(ys[:4])[0].tobytes() == x[:4].tobytes()
    with pytest.raises(ConvergenceError):
        prof.inverse_deriv(ys[2:])
    monkeypatch.undo()
    # a 1-D array, the grid the constant measurement inverts, is one row
    # with one stop over the whole grid
    grid = np.linspace(-0.5, 0.5, 301)
    x, dx = prof.inverse_deriv(grid)
    xb, dxb = prof.inverse_deriv(grid[None])
    assert x.tobytes() == xb[0].tobytes() == \
        _newton_inverse_two_pass(prof, grid).tobytes()
    assert dx.tobytes() == dxb[0].tobytes()


@pytest.mark.parametrize("which", range(len(ROW_MAP_SYSTEMS)))
def test_inverse_rows_mixing_newton_step_counts_keep_their_bits(which):
    # a zero row stops before its first Newton step, a large one takes
    # several, and a small one stops in between
    sys = ROW_MAP_SYSTEMS[which]
    rng = np.random.default_rng(which)
    ys = np.zeros((3, W.length))
    ys[1, 1:] = rng.uniform(-6.0, 6.0, W.length - 1)
    ys[2, 1:] = rng.uniform(-1e-6, 1e-6, W.length - 1)
    got = sys.inverse_rows(ys)
    for y, row in zip(ys, got):
        assert row.tobytes() == sys.inverse(SeqVec(W, y, sys.p)).coeffs.tobytes()


# ------------------------------------------------------------- orbits

@pytest.mark.parametrize("name", ["weighted_shift_linear", "ms_product",
                                  "conjugated:weighted_shift_tanh"])
def test_orbit_matches_the_hand_written_walk(name):
    sys = make_system(name, W)
    x = sample_interior_points(sys, 1, seed=21)[0]
    pts = {0: x}
    for j in range(1, 5):
        pts[j] = sys.forward(pts[j - 1])
    for j in range(0, -3, -1):
        pts[j - 1] = sys.inverse(pts[j])
    for back, fwd in ((3, 4), (0, 4), (3, 0), (0, 0), (-2, 4), (3, -1)):
        got = sys.orbit(x, back, fwd)
        want = [pts[j] for j in range(-back, fwd + 1)]
        assert len(got) == len(want)
        assert all(a.coeffs.tobytes() == b.coeffs.tobytes()
                   for a, b in zip(got, want))


def _hand_walk(sys, x, back, fwd):
    # one point map call per step
    pts = {0: x}
    for j in range(1, fwd + 1):
        pts[j] = sys.forward(pts[j - 1])
    for j in range(0, -back, -1):
        pts[j - 1] = sys.inverse(pts[j])
    return np.array([pts[j].coeffs for j in range(-back, fwd + 1)])


@pytest.mark.parametrize("which", range(len(ROW_MAP_SYSTEMS)))
def test_block_walk_equals_the_point_walks(which):
    sys = ROW_MAP_SYSTEMS[which]
    xs = np.array([x.coeffs for x in sample_interior_points(sys, 3, seed=7)]
                  + [np.zeros(W.length)])
    for back, fwd in ((3, 4), (0, 4), (3, 0), (0, 0), (-2, 4), (3, -1),
                      (-3, 1)):
        block = sys.orbit_rows(xs, back, fwd)
        assert block.shape == (len(xs), max(back + fwd + 1, 0), W.length)
        for x, rows in zip(xs, block):
            want = _hand_walk(sys, SeqVec(W, x, sys.p), back, fwd)
            assert rows.tobytes() == want.tobytes()
            got = sys.orbit(SeqVec(W, x, sys.p), back, fwd)
            assert np.array([y.coeffs for y in got]).tobytes() == \
                want.tobytes()


@pytest.mark.parametrize("which", SHIFTING)
def test_block_walk_raises_where_a_point_walk_would(which):
    # one start of the block escapes forward, or backward; the others stay
    sys = ROW_MAP_SYSTEMS[which]
    xs = np.zeros((3, W.length))
    xs[0, W.offset(0)] = 0.1
    xs[1, W.offset(12)] = 0.5
    xs[2, W.offset(-12)] = 0.5
    for back, fwd, bad in ((0, 5, 1), (5, 0, 2)):
        with pytest.raises(TruncationError):
            sys.orbit(SeqVec(W, xs[bad], sys.p), back, fwd)
        with pytest.raises(TruncationError, match="escapes") as err:
            sys.orbit_rows(xs, back, fwd)
        assert sys.name in str(err.value)
        keep = [i for i in range(3) if i != bad]
        assert sys.orbit_rows(xs[keep], back, fwd).shape[0] == 2


def test_orbit_escape_names_the_system():
    sys = shift_linear()
    x = SeqVec(W, np.where(np.arange(W.length) == W.offset(12), 0.5, 0.0))
    assert len(sys.orbit(x, 2, 4)) == 7
    with pytest.raises(TruncationError, match="escapes") as err:
        sys.orbit(x, 2, 5)
    assert "weighted_shift_linear" in str(err.value)
    # the backward walk escapes through the inverse's guard
    y = SeqVec(W, np.where(np.arange(W.length) == W.offset(-12), 0.5, 0.0))
    with pytest.raises(TruncationError, match="escapes"):
        sys.orbit(y, 5, 0)
