import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowkit.seqcore import (
    Window, SeqVec, OperatorSeq, norm, row_norms, PreconditionError,
    ConvergenceError, TruncationError,
)
from shadowkit.boundedsol import (
    InhomProblem, perron_solve, periodic_green_solve,
    random_hyperbolic_instance,
)
from shadowkit.clstruct import constant_cert
from shadowkit.seqcore import diag
from shadowkit.systems import make_system
from shadowkit.shadow import (
    Pseudotrajectory, make_pseudotrajectory, make_loop, recompute_step_error,
    shadowing_constants, refine_once, shadow, shadow_periodic,
    periodic_point_near, _noise,
)

WBIG = Window(-64, 64)


def shift_system(name="weighted_shift_linear"):
    return make_system(name, WBIG)


def small_start(width=9, seed=0, scale=0.2, lo=0):
    rng = np.random.default_rng(seed)
    c = np.zeros(WBIG.length)
    a = WBIG.offset(lo)
    c[a:a + width] = rng.uniform(-scale, scale, width)
    return SeqVec(WBIG, c, 2.0)


def test_constants_paper_values():
    sys = shift_system()
    cs = shadowing_constants(sys, sys.cert)
    assert cs.L == 3.0 and cs.M == 6.0
    assert cs.d0 == math.inf and cs.d0_infinite == math.inf


def test_constants_bisection_matches_substitution():
    # linear modulus r(t) = 0.1 t with (C, lam, R) = (1, 1/2, 5/2):
    # L = 3, M = 6, K = RM + R + L = 20.5, and the binding inequality is
    # L + 2(RM+R) K r(K d) <= M, i.e. 1470.875 d <= 3
    stub = types.SimpleNamespace(modulus=lambda t: 0.1 * t)
    w2 = Window(0, 1)
    cert = constant_cert(1.0, 0.5, 2.5, diag(w2, np.array([1.0, 0.0])),
                         diag(w2, np.array([0.0, 1.0])))
    cs = shadowing_constants(stub, cert)
    expected = 3.0 / 1470.875
    assert abs(cs.d0 - expected) <= 1e-12 * expected
    assert cs.d0_infinite == cs.d0  # the halving condition binds later
    K = 20.5
    assert 3.0 + 2 * 17.5 * K * 0.1 * (K * cs.d0) <= 6.0 + 1e-9
    assert 3.0 + 2 * 17.5 * K * 0.1 * (K * cs.d0 * 1.001) > 6.0


def test_constants_reject_nonvanishing_modulus():
    stub = types.SimpleNamespace(modulus=lambda t: 1.0)
    w2 = Window(0, 1)
    cert = constant_cert(1.0, 0.5, 2.0, diag(w2, np.array([1.0, 0.0])),
                         diag(w2, np.array([0.0, 1.0])))
    with pytest.raises(PreconditionError):
        shadowing_constants(stub, cert)


def test_pseudotrajectory_construction():
    sys = shift_system()
    x0 = small_start()
    ps = make_pseudotrajectory(sys, x0, 20, 1e-3, seed=4)
    assert ps.d <= 1e-3
    assert abs(recompute_step_error(sys, ps.points) - ps.d) <= 1e-12
    # backward defects are controlled by the derivative bound R
    for k in range(20):
        y, ynext = ps.points[k], ps.points[k + 1]
        back = sys.inverse(ynext)
        assert norm(y.with_coeffs(y.coeffs - back.coeffs)) <= sys.R * ps.d * (1 + 1e-9)


def test_pseudotrajectory_zero_noise_is_exact():
    sys = shift_system()
    ps = make_pseudotrajectory(sys, small_start(), 12, 0.0, seed=1)
    assert ps.d == 0.0


def test_refine_linear_shift_single_step():
    # the linear system has no nonlinear remainder, so one correction step
    # lands on an exact trajectory up to solver arithmetic
    sys = shift_system()
    ps = make_pseudotrajectory(sys, small_start(seed=2), 16, 1e-3, seed=2)
    out = refine_once(sys, ps, sys.cert)
    assert out.d <= 1e-12
    assert out.meta["displacement"] <= 6.0 * ps.d * (1 + 1e-9)


def test_refine_zero_error_is_identity():
    sys = shift_system()
    ps = make_pseudotrajectory(sys, small_start(), 8, 0.0)
    assert refine_once(sys, ps, sys.cert) is ps


def test_refine_tanh_halves_and_stays_close():
    sys = shift_system("weighted_shift_tanh")
    ps = make_pseudotrajectory(sys, small_start(seed=3), 16, 1e-3, seed=3)
    out = refine_once(sys, ps, sys.cert)
    assert out.d <= 0.5 * ps.d * (1 + 1e-6)
    assert out.meta["displacement"] <= 6.0 * ps.d * (1 + 1e-9)


def test_shadow_linear_ratio_and_exactness():
    sys = shift_system()
    for seed in (0, 1, 2):
        ps = make_pseudotrajectory(sys, small_start(seed=seed), 40, 1e-4, seed=seed)
        res = shadow(sys, ps, sys.cert)
        assert res.sup_distance <= 12.0 * ps.d
        assert recompute_step_error(sys, res.trajectory) <= 1e-11
        errs = res.meta["step_errors"]
        for d0, d1 in zip(errs, errs[1:]):
            assert d1 <= 0.5 * d0 * (1 + 1e-6) or d1 <= 1e-15
        assert res.meta["displacement_total"] <= 12.0 * ps.d * (1 + 1e-9)


def test_shadow_zero_noise_returns_input():
    sys = shift_system()
    ps = make_pseudotrajectory(sys, small_start(), 10, 0.0)
    res = shadow(sys, ps, sys.cert)
    assert res.iterations == 0 and res.sup_distance == 0.0


def test_shadow_ratio_stable_across_sweep():
    sys = shift_system()
    ratios = []
    for d in (1e-2, 1e-3, 1e-4, 1e-5):
        ps = make_pseudotrajectory(sys, small_start(seed=9), 24, d, seed=9)
        res = shadow(sys, ps, sys.cert)
        ratios.append(res.sup_distance / ps.d)
        assert res.sup_distance <= 12.0 * ps.d
    assert max(ratios) <= 3.0 * min(ratios)


def test_shadow_ms_product_within_certified_threshold():
    win = Window(-16, 16)
    sys = make_system("ms_product", win)
    cs = shadowing_constants(sys, sys.cert)
    assert 0.0 < cs.d0_infinite < math.inf
    d = min(1e-4, 0.5 * cs.d0_infinite)
    rng = np.random.default_rng(6)
    x0 = SeqVec(win, rng.uniform(-1.3, 1.3, win.length), 2.0)
    ps = make_pseudotrajectory(sys, x0, 30, d, seed=6)
    res = shadow(sys, ps, sys.cert)
    assert res.sup_distance <= 2.0 * cs.M * ps.d
    assert recompute_step_error(sys, res.trajectory) <= 1e-11


def noise_orbit_periodic(sys, m, d, seed, support=range(0, 7)):
    """m small points near the zero fixed orbit, step defects <= d."""
    rng = np.random.default_rng(seed)
    pts = {}
    for k in range(m):
        c = np.zeros(sys.window.length)
        for j in support:
            c[sys.window.offset(j)] = rng.uniform(-1.0, 1.0)
        c *= d / (3.0 * max(1.0, float(np.linalg.norm(c))))
        pts[k] = SeqVec(sys.window, c, sys.p)
    realized = recompute_step_error(sys, pts, period=m)
    return Pseudotrajectory(pts, realized, period=m)


@pytest.mark.parametrize("m", [1, 5])
def test_shadow_periodic_converges_to_zero_orbit(m):
    sys = shift_system()
    ps = noise_orbit_periodic(sys, m, 1e-4, seed=m)
    assert ps.d <= 1e-4
    res = shadow_periodic(sys, ps, sys.cert)
    assert res.period == m
    # the zero orbit is the only periodic orbit near 0 (support travels
    # right under the shift, so a periodic point must have empty support)
    for k in range(m):
        assert norm(res.trajectory[k]) <= 1e-9
    assert res.sup_distance <= 12.0 * ps.d
    # periodicity holds by representation
    assert np.shares_memory(res.trajectory[3 + m].coeffs,
                            res.trajectory[3].coeffs)


def test_shadow_periodic_rejects_aperiodic_input():
    sys = shift_system()
    ps = make_pseudotrajectory(sys, small_start(), 6, 1e-4)
    with pytest.raises(PreconditionError):
        shadow_periodic(sys, ps, sys.cert)
    with pytest.raises(PreconditionError):
        shadow(sys, noise_orbit_periodic(sys, 3, 1e-4, seed=0), sys.cert)


def test_periodic_point_near_true_fixed_point():
    win = Window(-8, 8)
    sys = make_system("ms_product", win)
    c = np.zeros(win.length)
    c[win.offset(-2)] = -1.0
    c[win.offset(1)] = 1.0
    x = SeqVec(win, c, 2.0)
    fx = sys.forward(x)
    # the profile integrates to 1 through a truncated series, so the fixed
    # points at +-1 carry a few ulps of error
    assert norm(x.with_coeffs(x.coeffs - fx.coeffs)) <= 5e-15
    loop = make_loop(sys, x, 6, 0.0)
    assert loop.d <= 1e-14
    res, dist = periodic_point_near(sys, sys.cert, x, loop)
    assert dist <= 1e-11


def test_periodic_point_near_shift_sample_sweep():
    # noiseless loops through a small stable-support sample close with
    # defect about |x|, and the nearby periodic point is the zero orbit
    sys = shift_system()
    M = 6.0
    for d in (1e-2, 1e-3, 1e-4):
        c = np.zeros(WBIG.length)
        c[WBIG.offset(2)] = 0.4 * d
        c[WBIG.offset(3)] = -0.3 * d
        x = SeqVec(WBIG, c, 2.0)
        loop = make_loop(sys, x, 8, 0.0)
        assert 0.0 < loop.d <= d
        res, dist = periodic_point_near(sys, sys.cert, x, loop)
        assert dist <= M * loop.d
        assert recompute_step_error(sys, res.trajectory, period=res.period) <= 1e-11


def test_two_boundary_conventions_both_shadow():
    # the refinement solution is not unique for the shift (inclusion-only
    # splitting); driving the correction with the direct least-squares
    # solver instead of the distinguished sums yields a second exact
    # trajectory -- both must obey the same distance bound, and their gap
    # is recorded rather than asserted away
    from shadowkit.boundedsol import banded_direct_solve
    from shadowkit.shadow import _variational_problem

    win = Window(-16, 16)
    sys = make_system("weighted_shift_linear", win)
    rng = np.random.default_rng(12)
    c = np.zeros(win.length)
    c[win.offset(-2):win.offset(2) + 1] = rng.uniform(-0.2, 0.2, 5)
    ps = make_pseudotrajectory(sys, SeqVec(win, c, 2.0), 8, 1e-3, seed=12)

    res_a = shadow(sys, ps, sys.cert)

    cur = ps
    for _ in range(8):
        if cur.d <= 1e-11:
            break
        prob, ocert = _variational_problem(sys, cur, sys.cert)
        sol = banded_direct_solve(prob, ocert)
        pts = {k: cur.points[k].with_coeffs(
            cur.points[k].coeffs + cur.d * sol.v[k].coeffs)
            for k in cur.points}
        cur = Pseudotrajectory(pts, recompute_step_error(sys, pts))
    assert cur.d <= 1e-11

    bound = 12.0 * ps.d
    gap = 0.0
    for k in ps.points:
        da = norm(res_a.trajectory[k].with_coeffs(
            res_a.trajectory[k].coeffs - ps.points[k].coeffs))
        db = norm(cur.points[k].with_coeffs(
            cur.points[k].coeffs - ps.points[k].coeffs))
        assert da <= bound and db <= bound
        gap = max(gap, norm(cur.points[k].with_coeffs(
            cur.points[k].coeffs - res_a.trajectory[k].coeffs)))
    assert gap <= 2 * bound


# ------------------------------------------------------- step defects

def _pointwise_step_error(sys, points, period=None):
    """Reference: one forward and one norm per step."""
    lo, hi = min(points), max(points)
    worst = 0.0
    for k in range(lo, hi if period is None else hi + 1):
        fy = sys.forward(points[k])
        nxt = points[lo + (k + 1 - lo) % period] if period is not None \
            else points[k + 1]
        worst = max(worst, norm(nxt.with_coeffs(nxt.coeffs - fy.coeffs)))
    return worst


STEP_SYSTEMS = [make_system(name, Window(-12, 12)) for name in (
    "weighted_shift_tanh", "ms_product", "conjugated:weighted_shift_linear")]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7),
       st.sampled_from(range(len(STEP_SYSTEMS))), st.booleans())
def test_step_defects_match_the_pointwise_loop(seed, m, which, periodic):
    # the tanh shift has its own row map, ms_product and the conjugated
    # shift map rows one by one; a heavy edge coordinate on some points
    # trips the shift's guard
    sys = STEP_SYSTEMS[which]
    w = sys.window
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, (m, w.length)) * rng.choice(
        [1e-3, 1.0], (m, 1))
    coeffs[:, -1] *= rng.choice([0.0, 1.0], m, p=[0.8, 0.2])
    points = {3 + i: SeqVec(w, c, sys.p) for i, c in enumerate(coeffs)}
    period = m if periodic else None
    try:
        want = _pointwise_step_error(sys, points, period)
    except TruncationError:
        with pytest.raises(TruncationError):
            recompute_step_error(sys, points, period)
        return
    got = recompute_step_error(sys, points, period)
    assert type(got) is float and got == want
    if period is None:
        gaps = sys.step_gaps(coeffs)
        ref = [norm(points[k + 1].with_coeffs(
            points[k + 1].coeffs - sys.forward(points[k]).coeffs))
            for k in range(3, 2 + m)]
        assert gaps.tobytes() == np.array(ref, dtype=float).tobytes()


def _pointwise_pseudotrajectory(sys, x0, length, d, seed):
    # the point-by-point walk make_pseudotrajectory replaced: noise drawn
    # between forward steps, with rng.choice for the signs
    rng = np.random.default_rng(seed)
    n = x0.window.length
    idx = np.flatnonzero(np.abs(x0.coeffs) > 0.0)
    s_lo, s_hi = int(idx[0]), int(idx[-1])
    points, realized, cur = {0: x0}, 0.0, x0
    for k in range(length):
        fy = sys.forward(cur)
        a = max(0, s_lo - 2 + (k + 1) * sys.support_shift)
        b = min(n - 1, s_hi + 2 + (k + 1) * sys.support_shift)
        xi = np.zeros(n)
        if d > 0.0:
            m, p = b - a + 1, x0.p
            if p == math.inf:
                xi[a:b + 1] = rng.uniform(-d, d, m)
            else:
                g = rng.gamma(1.0 / p, 1.0, m) ** (1.0 / p) \
                    * rng.choice([-1.0, 1.0], m)
                y = rng.standard_exponential()
                xi[a:b + 1] = d * g / (np.sum(np.abs(g) ** p) + y) ** (1.0 / p)
        cur = fy.with_coeffs(fy.coeffs + xi)
        realized = max(realized, norm(x0.with_coeffs(xi)))
        points[k + 1] = cur
    return points, realized


def _ball_sample(rng, m, p, radius):
    # the per-step l^p ball sampler that the noise block replaced
    if p == math.inf:
        return rng.uniform(-radius, radius, m)
    g = rng.gamma(1.0 / p, 1.0, m) ** (1.0 / p) \
        * np.array([-1.0, 1.0])[rng.integers(0, 2, m)]
    y = rng.standard_exponential()
    return radius * g / (np.sum(np.abs(g) ** p) + y) ** (1.0 / p)


def _per_step_noise(rng, x0, length, shift, d):
    # the per-step loop that filled the noise rows with _ball_sample
    n = x0.window.length
    idx = np.flatnonzero(np.abs(x0.coeffs) > 0.0)
    s_lo, s_hi = int(idx[0]), int(idx[-1])
    rows = np.zeros((length + 1, n))
    if d > 0.0:
        for k in range(length):
            a = max(0, s_lo - 2 + (k + 1) * shift)
            b = min(n - 1, s_hi + 2 + (k + 1) * shift)
            if a <= b:
                rows[k + 1, a:b + 1] = _ball_sample(rng, b - a + 1, x0.p, d)
    return rows


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_noise_matches_the_per_step_sampler(p):
    # starts across a window of 25 coordinates, the last ones at its right
    # edge, where the spans of a shift by +1 clip (so widths differ within
    # one walk) and the later steps draw nothing; the rows, the realized d
    # and the rng stream after the draws keep the per-step sampler's bits
    w = Window(-12, 12)
    for seed in range(12):
        for start in (0, 9, 18, 21, 22):
            c = np.zeros(w.length)
            c[start:start + 3] = np.random.default_rng(seed).uniform(
                -0.2, 0.2, 3)
            x0 = SeqVec(w, c, p)
            for shift in (-1, 0, 1):
                for d in (0.0, 1e-3, 0.05):
                    rng, ref_rng = (np.random.default_rng(seed)
                                    for _ in range(2))
                    got = _noise(rng, x0, 12, shift, d)
                    want = _per_step_noise(ref_rng, x0, 12, shift, d)
                    assert got.tobytes() == want.tobytes()
                    assert rng.bit_generator.state == \
                        ref_rng.bit_generator.state
                    # the walk on a map that never truncates
                    halve = types.SimpleNamespace(
                        support_shift=shift, forward_rows=lambda r: 0.5 * r)
                    ps = make_pseudotrajectory(halve, x0, 12, d, seed=seed)
                    realized = float(row_norms(want[1:], p).max(initial=0.0))
                    assert type(ps.d) is float and ps.d == realized
                    want[0] = x0.coeffs
                    for k in range(12):
                        want[k + 1] += 0.5 * want[k]
                    assert ps.points.rows.tobytes() == want.tobytes()
                    if start == 22 and shift == 1 and d:
                        assert got[1].any() and not got[-1].any()


PSEUDO_SYSTEMS = {p: [make_system(name, Window(-12, 12), p) for name in (
    "weighted_shift_tanh", "ms_product", "conjugated:weighted_shift_linear")]
    for p in (1.0, 2.0, math.inf)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1.0, 2.0, math.inf]),
       st.sampled_from(range(3)), st.sampled_from([0.0, 1e-6, 1e-3, 0.05]),
       st.integers(0, 9))
def test_pseudotrajectory_matches_the_point_by_point_loop(seed, p, which, d,
                                                          length):
    # the shifts move the noise support by one coordinate per step, and
    # ms_product keeps it; the conjugated shift maps rows one by one
    sys = PSEUDO_SYSTEMS[p][which]
    w = sys.window
    rng = np.random.default_rng(seed)
    c = np.zeros(w.length)
    start = int(rng.integers(0, w.length - 4))
    c[start:start + 3] = rng.uniform(-0.2, 0.2, 3)
    x0 = SeqVec(w, c, p)
    try:
        want, realized = _pointwise_pseudotrajectory(sys, x0, length, d, seed)
    except TruncationError:
        with pytest.raises(TruncationError):
            make_pseudotrajectory(sys, x0, length, d, seed=seed)
        return
    ps = make_pseudotrajectory(sys, x0, length, d, seed=seed)
    assert type(ps.d) is float and ps.d == realized
    assert sorted(ps.points) == sorted(want)
    assert all(ps.points[k].p == p for k in want)
    assert all(ps.points[k].coeffs.tobytes() == want[k].coeffs.tobytes()
               for k in want)


def test_pseudotrajectory_truncates_at_the_same_step():
    # a start near the right edge of a small window: the shift's orbit
    # leaves it after a few steps, and both walks stop at the same step,
    # after feeding the same rows to the map, with the same message
    sys = make_system("weighted_shift_tanh", Window(-12, 12))
    c = np.zeros(sys.window.length)
    c[15:18] = [0.1, -0.2, 0.15]
    x0 = SeqVec(sys.window, c, sys.p)

    def walk(build):
        seen = []

        def record(fn):
            def wrapped(xs):
                seen.append(np.array(xs, copy=True))
                return fn(xs)
            return wrapped

        traced = dataclasses.replace(
            sys, forward_rows=record(sys.forward_rows))
        with pytest.raises(TruncationError) as err:
            build(traced)
        return seen, str(err.value)

    seen_ref, msg_ref = walk(
        lambda s: _pointwise_pseudotrajectory(s, x0, 20, 1e-3, 5))
    seen, msg = walk(lambda s: make_pseudotrajectory(s, x0, 20, 1e-3, seed=5))
    assert 2 <= len(seen) == len(seen_ref) < 20
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, seen_ref))
    assert msg == msg_ref


def test_pseudotrajectory_noise_stops_where_the_active_span_leaves():
    # mass far below the edge guard's tolerance leaves the window silently;
    # the point-by-point walk then failed drawing noise on an empty span
    # (negative size), and the noise block gives those steps no noise
    sys = make_system("weighted_shift_linear", Window(-12, 12))
    c = np.zeros(sys.window.length)
    c[20:23] = [1e-14, -2e-14, 1e-14]
    x0 = SeqVec(sys.window, c, sys.p)
    with pytest.raises(ValueError):
        _pointwise_pseudotrajectory(sys, x0, 12, 1e-13, 3)
    ps = make_pseudotrajectory(sys, x0, 12, 1e-13, seed=3)
    last = max(k for k in range(12)
               if 20 - 2 + k + 1 <= sys.window.length - 1)
    want, realized = _pointwise_pseudotrajectory(sys, x0, last + 1, 1e-13, 3)
    assert ps.d == realized > 0.0
    assert all(ps.points[k].coeffs.tobytes() == want[k].coeffs.tobytes()
               for k in want)
    for k in range(last + 1, 12):
        assert ps.points[k + 1].coeffs.tobytes() == \
            (sys.forward(ps.points[k]).coeffs + 0.0).tobytes()


@pytest.mark.parametrize("which", range(len(STEP_SYSTEMS)))
@pytest.mark.parametrize("periodic", [False, True])
def test_variational_operators_are_the_pointwise_differentials(which,
                                                                periodic):
    from shadowkit.shadow import _variational_problem
    sys = STEP_SYSTEMS[which]
    rng = np.random.default_rng(which)
    m = 5
    coeffs = rng.uniform(-0.1, 0.1, (m, sys.window.length))
    coeffs[:, -3:] = 0.0    # clear of the shift's edge guard
    points = {2 + i: SeqVec(sys.window, c, sys.p)
              for i, c in enumerate(coeffs)}
    ps = Pseudotrajectory(points, 1e-3, period=m if periodic else None)
    prob, _ = _variational_problem(sys, ps, sys.cert)
    steps = m if periodic else m - 1
    want = [sys.dforward(ps.points[2 + j]) for j in range(steps)]
    assert len(prob.seq.ops) == steps
    for A, B in zip(prob.seq.ops, want):
        assert A.kind == B.kind and A.shift == B.shift
        assert A.to_dense_matrix().tobytes() == B.to_dense_matrix().tobytes()


def test_a_gap_in_the_times_is_refused_up_front():
    sys = shift_system()
    x = small_start()
    points = {0: x, 1: sys.forward(x), 3: x}
    with pytest.raises(PreconditionError, match="consecutive"):
        recompute_step_error(sys, points)
    with pytest.raises(PreconditionError, match="consecutive"):
        Pseudotrajectory(points, 0.0)


def test_seqvec_constructions_do_not_grow_with_the_length(monkeypatch):
    # SeqVec.__init__ counted as the benchmark counts it: the engines work
    # on row blocks, and only refine_once's point-keyed certificate reads
    # build one SeqVec per time
    count = [0]
    init = SeqVec.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SeqVec, "__init__", counting)

    def made(fn, *args):
        count[0] = 0
        fn(*args)
        return count[0]

    sys = shift_system()
    x0 = small_start(seed=4)
    w4 = Window(0, 3)
    cert4 = constant_cert(1.0, 0.5, 3.0, diag(w4, np.array([1.0, 1, 0, 0])),
                          diag(w4, np.array([0.0, 0, 1, 1])))
    counts = {}
    for length in (16, 48):
        ps = make_pseudotrajectory(sys, x0, length, 1e-4, seed=1)
        prob, cert = random_hyperbolic_instance(
            4, length, np.random.default_rng(length))
        scalars = np.random.default_rng(length).uniform(0.3, 3.0, (length, 4))
        periodic = InhomProblem(
            OperatorSeq(0, [diag(w4, c) for c in scalars], period=length),
            {k: SeqVec(w4, np.ones(4)) for k in range(1, length + 1)})
        counts[length] = {
            "make_pseudotrajectory": made(make_pseudotrajectory, sys, x0,
                                          length, 1e-4, 1),
            "perron_solve": made(perron_solve, prob, cert),
            "periodic_green_solve": made(periodic_green_solve, periodic,
                                         cert4),
            "refine_once": made(refine_once, sys, ps, sys.cert),
        }
    short, long_ = counts[16], counts[48]
    for name in ("make_pseudotrajectory", "perron_solve",
                 "periodic_green_solve"):
        assert long_[name] == short[name], name
    assert long_["refine_once"] - short["refine_once"] <= 48 - 16
