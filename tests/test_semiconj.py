"""Tests for the pointwise semi-conjugacy engine."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowkit import boundedsol, cli, semiconj, seqcore
from shadowkit.boundedsol import (InhomProblem, perron_constant, perron_solve,
                                  perron_sums)
from shadowkit.clstruct import CLCertificate, ProjPair
from shadowkit.semiconj import (MAX_SWEEPS, H1_RATIO, H2_RATIO,
                                _fixed_point, continuity_probe, h1_at, h2_at,
                                make_conjugacy_job, orbit_perron_apply,
                                required_truncation, semiconjugacy_report,
                                translate_system)
from shadowkit.seqcore import (FP_STOP_TOL, LinOp, OperatorSeq,
                               PreconditionError, SeqVec,
                               TruncationError, Window, apply_coeffs,
                               coeff_norm, monitored_fixed_point, norm,
                               op_apply, stack_ops)
from shadowkit.systems import (LinearShiftFamily, SinPerturbedFamily,
                               TanhShiftFamily, make_weighted_shift)

W = Window(-48, 48)
D = 1e-4
L_TILTED = perron_constant(16.0, 0.75)  # 1792 for the canonical linear shift


def linear_shift():
    return make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)


def seed_point(sys, scale=1.0):
    coeffs = np.zeros(sys.window.length)
    coeffs[sys.window.offset(-3):sys.window.offset(3)] = scale * np.array(
        [0.01, -0.02, 0.015, 0.01, -0.005, 0.02])
    return SeqVec(sys.window, coeffs, sys.p)


def translation_vector(sys, size=D, k=0):
    c = np.zeros(sys.window.length)
    c[sys.window.offset(k)] = size
    return SeqVec(sys.window, c, sys.p)


def random_interior_point(seed):
    rng = np.random.default_rng(seed)
    start = int(rng.integers(-6, 3))
    width = int(rng.integers(3, 6))
    coeffs = np.zeros(W.length)
    coeffs[W.offset(start):W.offset(start) + width] = rng.uniform(
        -0.2, 0.2, width)
    return SeqVec(W, coeffs, 2.0)


def smooth_forcing(x):
    # localized, smooth in the base point, nonzero at the origin
    ks = np.arange(x.window.lo, x.window.hi + 1)
    bump = np.exp(-0.5 * ((ks - 2.0) / 6.0) ** 2)
    return SeqVec(x.window, 0.3 * np.sin(2.1 * x.coeffs + 0.7) * bump, x.p)


_JOBS = {}


def affine_setup():
    if "affine" not in _JOBS:
        f = linear_shift()
        g = translate_system(f, translation_vector(f))
        _JOBS["affine"] = (f, g,
                           make_conjugacy_job(f, g, seed_point(f), d=D,
                                              span=(0, 4)))
    return _JOBS["affine"]


def wobbly_setup():
    if "wobbly" not in _JOBS:
        f = linear_shift()
        g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                                0.5002, 2.001, W, name="wobbly_shift")
        _JOBS["wobbly"] = (f, g,
                           make_conjugacy_job(f, g, seed_point(f), d=D,
                                              span=(0, 6)))
    return _JOBS["wobbly"]


# ---------------------------------------------------------------------------
# truncation sizing and the translated-system helper
# ---------------------------------------------------------------------------

def test_required_truncation_is_minimal():
    for C, lam, w in [(1.0, 0.5, 1.0), (16.0, 0.75, 5 * D / 3),
                      (21.8, 0.75, 1.0)]:
        T = required_truncation(C, lam, w)
        assert C * lam ** T * w / (1.0 - lam) < 1e-12
        assert C * lam ** (T - 1) * w / (1.0 - lam) >= 1e-12
    # a vanishing forcing needs no horizon at all
    assert required_truncation(1.0, 0.5, 0.0) == 1
    with pytest.raises(PreconditionError):
        required_truncation(1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        required_truncation(-1.0, 0.5, 1.0)


def test_translate_system_is_a_rigid_displacement():
    f = linear_shift()
    c = translation_vector(f, 3e-3)
    g = translate_system(f, c)
    x = seed_point(f)
    assert np.array_equal(g.forward(x).coeffs, f.forward(x).coeffs + c.coeffs)
    back = g.inverse(g.forward(x))
    assert np.max(np.abs(back.coeffs - x.coeffs)) <= 1e-14
    # the derivative cocycle is untouched
    assert np.array_equal(g.dforward(x).to_dense_matrix(),
                          f.dforward(x).to_dense_matrix())


# ---------------------------------------------------------------------------
# the orbit Perron operation
# ---------------------------------------------------------------------------

def test_perron_apply_zero_forcing_returns_zero():
    f = linear_shift()
    zero = SeqVec(W, np.zeros(W.length), 2.0)
    v = orbit_perron_apply(f, f.dforward, f.cert, lambda x: zero,
                           seed_point(f), 20)
    assert not np.any(v.coeffs)


def test_perron_apply_constant_forcing_matches_resolvent():
    # for the constant-coefficient shift the two-sided series collapses to
    # one dense resolvent solve per splitting component, an independent
    # route (matrix solves versus the structured orbit sweeps); the two
    # components need separate solves because the forward resolvent of the
    # truncated shift amplifies low-edge drops by the full expansion factor
    f = linear_shift()
    wc = translation_vector(f, 0.6).coeffs + translation_vector(f, -0.8, -1).coeffs
    wfun = lambda x: SeqVec(W, wc, 2.0)
    x0 = seed_point(f)
    v = orbit_perron_apply(f, f.dforward, f.cert, wfun, x0, 44)
    n = W.length
    A = f.dforward(x0).to_dense_matrix()
    B = f.dforward(x0).inverse().to_dense_matrix()
    P = f.cert.proj_at(x0).P.to_dense_matrix()
    Q = f.cert.proj_at(x0).Q.to_dense_matrix()
    v_stable = np.linalg.solve(np.eye(n) - A, P @ wc)
    v_unstable = B @ np.linalg.solve(np.eye(n) - B, Q @ wc)
    expected = v_stable - v_unstable
    assert np.max(np.abs(v.coeffs - expected)) <= 1e-13
    assert norm(v) <= 3.0 * (1.0 + 1e-9)  # the certified sup bound at (1, 1/2)


def test_perron_apply_solves_the_orbit_equation():
    f = linear_shift()
    worst = 0.0
    for seed in range(20):
        x = random_interior_point(seed)
        fx = f.forward(x)
        v_x = orbit_perron_apply(f, f.dforward, f.cert, smooth_forcing, x, 44)
        v_fx = orbit_perron_apply(f, f.dforward, f.cert, smooth_forcing, fx, 44)
        lhs = v_fx.coeffs - op_apply(f.dforward(x), v_x, check_loss=False).coeffs
        worst = max(worst, norm(SeqVec(W, lhs - smooth_forcing(fx).coeffs, 2.0)))
    assert worst <= 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_perron_apply_bound_and_equation_property(seed):
    f = linear_shift()
    x = random_interior_point(seed)
    v = orbit_perron_apply(f, f.dforward, f.cert, smooth_forcing, x, 44)
    # the bound quantifies over the orbit sup of the forcing, which the
    # localized bump keeps below one
    assert norm(v) <= 3.0 * (1.0 + 1e-9)
    fx = f.forward(x)
    v_fx = orbit_perron_apply(f, f.dforward, f.cert, smooth_forcing, fx, 44)
    lhs = v_fx.coeffs - op_apply(f.dforward(x), v, check_loss=False).coeffs
    assert norm(SeqVec(W, lhs - smooth_forcing(fx).coeffs, 2.0)) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_perron_apply_matches_perron_solve_on_its_segment(seed):
    f = linear_shift()
    x = random_interior_point(seed)
    T = 44
    v = orbit_perron_apply(f, f.dforward, f.cert, smooth_forcing, x, T)
    pts = {0: x}
    for i in range(1, T + 1):
        pts[i] = f.forward(pts[i - 1])
    for i in range(0, -T, -1):
        pts[i - 1] = f.inverse(pts[i])
    seq = OperatorSeq(-T, [f.dforward(pts[i]) for i in range(-T, T)])
    cert = CLCertificate(f.cert.C, f.cert.lam, f.cert.R,
                         lambda k: f.cert.proj_at(pts[k]))
    prob = InhomProblem(seq, {i: smooth_forcing(pts[i]) for i in range(-T, T + 1)})
    ref = perron_solve(prob, cert).v[0]
    assert np.max(np.abs(v.coeffs - ref.coeffs)) <= 1e-12


def test_perron_apply_gates():
    f = linear_shift()
    wfun = lambda x: SeqVec(W, translation_vector(f, 1.0).coeffs, 2.0)
    with pytest.raises(PreconditionError, match="series tail"):
        orbit_perron_apply(f, f.dforward, f.cert, wfun, seed_point(f), 5)
    edge = np.zeros(W.length)
    edge[W.offset(44)] = 0.5
    with pytest.raises(TruncationError, match="escapes"):
        orbit_perron_apply(f, f.dforward, f.cert, wfun,
                           SeqVec(W, edge, 2.0), 10)


# ---------------------------------------------------------------------------
# displacement maps: frozen affine oracle
# ---------------------------------------------------------------------------

def test_affine_translation_recovers_resolvent_displacement():
    f, g, job = affine_setup()
    assert job.C1 == 16.0 and job.lam1 == 0.75
    assert job.L == 1792.0
    assert job.meta["d0"] == pytest.approx(0.00018601190476190475, rel=1e-15)

    x0 = job.orbit[0]
    h1 = h1_at(job, x0)
    # independent route: for g = f + c with constant derivative A the
    # displacement solves (I - A) h = c, one dense resolvent solve
    A = f.dforward(x0).to_dense_matrix()
    c = translation_vector(f).coeffs
    h_star = np.linalg.solve(np.eye(W.length) - A, c)
    assert np.max(np.abs(h1.coeffs - h_star)) <= 1e-15
    # closed form: supported on the contracting side, halving per step
    ks = np.arange(W.lo, W.hi + 1)
    closed = np.where(ks >= 0, D * 0.5 ** np.clip(ks, 0, None), 0.0)
    assert np.max(np.abs(h_star - closed)) <= 1e-18
    assert norm(h1) == pytest.approx(1.1547005383792516e-4, rel=1e-12)

    # the displacement field is constant for a rigid translation
    h1_far = h1_at(job, job.orbit[3])
    assert np.max(np.abs(h1_far.coeffs - h1.coeffs)) <= 1e-15

    # the reverse displacement is exactly the negative
    h2 = h2_at(job, x0)
    assert np.max(np.abs(h2.coeffs + h_star)) <= 1e-15
    assert norm(h1) <= 2.0 * job.L * job.d * (1.0 + 1e-9)


def test_affine_report_rows_and_probes():
    f, g, job = affine_setup()
    rows = semiconjugacy_report(job, range(0, 3))
    assert [row["point"] for row in rows] == [0, 1, 2]
    for row in rows:
        assert row["h1_norm"] == pytest.approx(1.1547005383792516e-4, rel=1e-9)
        assert row["h2_norm"] == pytest.approx(1.1547005383792516e-4, rel=1e-9)
        assert row["residual1"] <= 1e-10
        assert row["residual2"] <= 1e-10
        # (Id + h1) o (Id + h2) is exactly the identity for a translation
        assert row["composition_probe"] <= 1e-12
    probe = continuity_probe(job, rows)
    # both displacement fields are constant here, so the quotients vanish
    assert probe["h1_quotient"] <= 1e-9
    assert probe["h2_quotient"] <= 1e-9
    # the probe reuses the report's solves at the first anchor
    with pytest.raises(PreconditionError, match="first certified anchor"):
        continuity_probe(job, rows[1:])


def test_identity_perturbation_yields_zero_maps():
    f = linear_shift()
    g = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W, name="copy")
    job = make_conjugacy_job(f, g, seed_point(f), d=0.0, span=(0, 2))
    assert job.meta["d_measured"] == 0.0
    h1 = h1_at(job, job.orbit[0])
    h2 = h2_at(job, job.orbit[1])
    assert not np.any(h1.coeffs)
    assert not np.any(h2.coeffs)
    for row in semiconjugacy_report(job, range(0, 3)):
        assert row["h1_norm"] == 0.0 and row["h2_norm"] == 0.0
        assert row["residual1"] == 0.0 and row["residual2"] == 0.0
        assert row["composition_probe"] == 0.0


def test_smooth_perturbation_bounds_residuals_and_truncation():
    f, g, job = wobbly_setup()
    ball = 2.0 * job.L * job.d
    x0 = job.orbit[0]
    h1 = h1_at(job, x0)
    h2 = h2_at(job, x0)
    assert 0.0 < norm(h1) <= ball * (1.0 + 1e-9)
    assert 0.0 < norm(h2) <= ball * (1.0 + 1e-9)
    # solver diagnostics returned with the h2 value
    (value, ev), = _fixed_point(job, 2, [0])
    assert value.coeffs.tobytes() == h2.coeffs.tobytes()
    assert ev["sweeps"] <= 10
    assert ev["fp_residual"] <= 1e-11
    assert ev["contraction_observed"] <= 1.0 / 3.0 + 1e-9
    assert "last_evaluation" not in job.meta

    rows = semiconjugacy_report(job, range(0, 4))
    for row in rows:
        assert row["residual1"] <= 1e-9
        assert row["residual2"] <= 1e-9
        assert 0.0 <= row["composition_probe"] <= 1e-6  # reported, sanity cap

    # the answers are insensitive to the truncation horizon
    double = make_conjugacy_job(f, g, seed_point(f), d=D, span=(0, 0),
                                truncation=2 * job.truncation)
    assert norm(SeqVec(W, h1_at(double, x0).coeffs - h1.coeffs, 2.0)) <= 1e-10
    assert norm(SeqVec(W, h2_at(double, x0).coeffs - h2.coeffs, 2.0)) <= 1e-10

    # the derivative-sequence transfer is exact for a linear reference map
    assert job.meta["transfer_eps"] == 0.0
    assert job.meta["graph_sup"] == 0.0
    assert job.meta["continuity"] == "sampled points only"


def _pointwise_displacement(job, kind, x, q=None, with_sweeps=False):
    """Reference sweep: one forward, one apply and one norm per orbit point.

    h1 rides the f-orbit through x and maps it by g; h2 rides the job's
    g-orbit around anchor q and maps it by f.  ``with_sweeps`` also returns
    the sweep count.
    """
    B = 2 * job.truncation
    f, p = job.f, job.f.p
    if kind == 1:
        lo, hi = -B, B
        pts = {0: x}
        for j in range(1, hi + 1):
            pts[j] = f.forward(pts[j - 1])
        for j in range(0, lo - 1, -1):
            pts[j - 1] = f.inverse(pts[j])
        other, ratio = job.g.forward, H1_RATIO
        pairs = [job.cert.proj_at(pts[j]) for j in range(lo, hi + 1)]
    else:
        lo, hi = q - B, q + B
        pts = {j: job.orbit[j] for j in range(lo - 1, hi + 1)}
        other, ratio = f.forward, H2_RATIO
        pairs = [job.cert_g.proj_at(j) for j in range(lo, hi + 1)]
    ops = {j: f.dforward(pts[j]) for j in range(lo - 1, hi)}
    seg_ops = [ops[j] for j in range(lo, hi)]
    seg_inv = [A.inverse() for A in seg_ops]
    zero = np.zeros(W.length)

    def sweep(hs):
        cs = []
        for j in range(lo - 1, hi):
            hj = hs[j - lo] if j >= lo else zero
            xp = pts[j].with_coeffs(pts[j].coeffs + hj)
            cs.append(other(xp).coeffs - pts[j + 1].coeffs
                      - apply_coeffs(ops[j], hj))
        return perron_sums(seg_ops, seg_inv, pairs, cs, range(hi - lo + 1))

    hs, sweeps, *_ = monitored_fixed_point(
        sweep, np.zeros((hi - lo + 1, W.length)),
        lambda new, old: max(coeff_norm(a - b, p) for a, b in zip(new, old)),
        "reference", ratio_bound=ratio, ratio_floor=100.0 * FP_STOP_TOL,
        max_iter=MAX_SWEEPS)
    value = hs[(0 if kind == 1 else q) - lo]
    return (value, sweeps) if with_sweeps else value


def test_row_batched_sweeps_match_the_pointwise_sweep_bit_for_bit():
    f, g, job = wobbly_setup()
    x0 = job.orbit[0]
    off = x0.with_coeffs(x0.coeffs + translation_vector(f, 1e-3, k=2).coeffs)
    for x in (x0, off):
        want = _pointwise_displacement(job, 1, x)
        assert h1_at(job, x).coeffs.tobytes() == want.tobytes()
    h2_ref = {q: _pointwise_displacement(job, 2, job.orbit[q], q)
              for q in (0, 1, 2)}
    for q in (0, 2):
        assert h2_at(job, job.orbit[q]).coeffs.tobytes() == h2_ref[q].tobytes()
    # the report solves h2 once per anchor and shares it between rows
    rows = semiconjugacy_report(job, range(0, 2))
    for row in rows:
        q = row["point"]
        assert row["h2_norm"] == norm(SeqVec(W, h2_ref[q], 2.0))
        x = job.orbit[q]
        r2 = (f.forward(x.with_coeffs(x.coeffs + h2_ref[q])).coeffs
              - job.orbit[q + 1].coeffs - h2_ref[q + 1])
        assert row["residual2"] == norm(SeqVec(W, r2, 2.0))


def test_lockstep_stacks_match_the_pointwise_sweep_bit_for_bit():
    # one h1 stack whose frames freeze at different sweeps: the zero orbit
    # at once, the far point one sweep after the others
    f, g, job = wobbly_setup()
    x0 = job.orbit[0]
    zero = x0.with_coeffs(np.zeros(W.length))
    far = x0.with_coeffs(x0.coeffs + translation_vector(f, 0.3, k=3).coeffs)
    near = x0.with_coeffs(x0.coeffs + translation_vector(f, 1e-3, k=2).coeffs)
    points = [x0, zero, far, near, job.orbit[3]]
    stacked = _fixed_point(job, 1, points)
    swept = set()
    for x, (value, stats) in zip(points, stacked):
        want, sweeps = _pointwise_displacement(job, 1, x, with_sweeps=True)
        assert value.coeffs.tobytes() == want.tobytes()
        assert stats["sweeps"] == sweeps
        assert stats["fp_residual"] <= 1e-11
        swept.add(sweeps)
    assert len(swept) == 3
    # the h2 stack over anchors of the certified segment
    anchors = [0, 1, 2, job.query_hi + 1]
    for q, (value, stats) in zip(anchors, _fixed_point(job, 2, anchors)):
        want, sweeps = _pointwise_displacement(job, 2, job.orbit[q], q,
                                               with_sweeps=True)
        assert value.coeffs.tobytes() == want.tobytes()
        assert stats["sweeps"] == sweeps
    # a stack of one is the solo solve the public queries make
    assert h1_at(job, far).coeffs.tobytes() == stacked[2][0].coeffs.tobytes()


def test_stacked_perron_sums_match_the_solo_sums_bit_for_bit():
    f, g, job = wobbly_setup()
    rng = np.random.default_rng(3)
    frames, m = 4, 24
    pts = [job.orbit[q] for q in range(frames)]
    xs = [f.orbit(x, 0, m - 1) for x in pts]
    ops = [[f.dforward(y) for y in orbit[:-1]] for orbit in xs]
    pairs = [[job.cert.proj_at(y) for y in orbit] for orbit in xs]
    w = rng.standard_normal((frames, m, W.length))
    stacked_ops = stack_ops(ops)
    inv = stacked_ops.inverse()
    P = stack_ops([[pr.P for pr in prs] for prs in pairs])
    Q = stack_ops([[pr.Q for pr in prs] for prs in pairs])
    for at in (range(m), range(5, 6), range(3, m - 2)):
        got = perron_sums([stacked_ops[:, j] for j in range(m - 1)],
                          [inv[:, j] for j in range(m - 1)],
                          [ProjPair(P[:, j], Q[:, j]) for j in range(m)],
                          w, at)
        for i in range(frames):
            want = perron_sums(ops[i], [A.inverse() for A in ops[i]],
                               pairs[i], list(w[i]), at)
            assert got[i].tobytes() == want.tobytes()


def test_default_job_counters(monkeypatch):
    # one default-size job (the semiconj CLI's window, span and distance)
    # with its report and continuity probe
    counts = {"apply_coeffs": 0, "dforward": 0, "densified": 0}
    real_apply = seqcore.apply_coeffs
    # applications of whole operator stacks -- the lockstep sums over
    # (frames, m, n) blocks and the solution recheck's apply_rows -- are
    # left out of the count, as when stacks had their own apply
    stacked = []

    def counted_apply(A, x):
        counts["apply_coeffs"] += not any(stacked)
        return real_apply(A, x)

    def leaving_out(fn, is_stacked):
        def wrapped(*args):
            stacked.append(is_stacked(*args))
            try:
                return fn(*args)
            finally:
                stacked.pop()
        return wrapped

    monkeypatch.setattr(seqcore, "apply_coeffs", counted_apply)
    monkeypatch.setattr(boundedsol, "apply_coeffs", counted_apply)
    monkeypatch.setattr(semiconj, "perron_sums", leaving_out(
        semiconj.perron_sums, lambda *args: np.ndim(args[3]) == 3))
    monkeypatch.setattr(boundedsol, "apply_rows", leaving_out(
        boundedsol.apply_rows, lambda *args: True))

    def counted(sys):
        real = sys.dforward

        def dforward(x):
            counts["dforward"] += 1
            return real(x)

        return dataclasses.replace(sys, dforward=dforward)

    real_dense = LinOp.to_dense_matrix
    real_transfer = semiconj.graph_transform_seq

    def counted_dense(op):
        counts["densified"] += 1
        return real_dense(op)

    def transfer(*args, **kw):
        monkeypatch.setattr(LinOp, "to_dense_matrix", counted_dense)
        try:
            return real_transfer(*args, **kw)
        finally:
            monkeypatch.setattr(LinOp, "to_dense_matrix", real_dense)

    monkeypatch.setattr(semiconj, "graph_transform_seq", transfer)
    f = counted(linear_shift())
    g = counted(make_weighted_shift(
        SinPerturbedFamily(LinearShiftFamily(), D), 0.5002, 2.001, W,
        name="sin_perturbed_shift"))
    job = make_conjugacy_job(f, g, seed_point(f, 0.03), d=D, span=(0, 6))
    continuity_probe(job, semiconjugacy_report(job))
    assert counts["apply_coeffs"] < 40_000
    assert counts["dforward"] <= 10_000
    assert counts["densified"] == 0


def test_default_semiconj_walks_h1_frames_on_rows(monkeypatch, tmp_path):
    # a default semiconj run at seed 11, with the per-point maps of f (the
    # system the CLI builds) and every SeqVec construction counted: the h1
    # frames are walked on row blocks and read from the constant
    # certificate without a SeqVec per point
    counts = {"forward": 0, "inverse": 0, "seqvec": 0}
    real_make, real_init = cli.make_system, SeqVec.__init__

    def counted(name, fn):
        def point_map(x):
            counts[name] += 1
            return fn(x)
        return point_map

    def make_system(*args, **kw):
        built = real_make(*args, **kw)
        for name in ("forward", "inverse"):
            object.__setattr__(built, name, counted(name, getattr(built, name)))
        return built

    def init(self, *args, **kw):
        counts["seqvec"] += 1
        real_init(self, *args, **kw)

    monkeypatch.setattr(cli, "make_system", make_system)
    monkeypatch.setattr(SeqVec, "__init__", init)
    assert cli.main(["semiconj", "--seed", "11", "--out",
                     str(tmp_path / "run")]) == 0
    assert counts["inverse"] == 0
    assert counts["forward"] <= 100
    assert counts["seqvec"] < 2500


def test_chunked_stacks_match_one_stack_with_flat_memory(monkeypatch):
    # frames are independent: a budget of about two frames splits the
    # stack, changes no bit and no sweep count, and holds the working set
    # to one chunk however many frames are asked for
    f, g, job = wobbly_setup()
    points = [job.orbit[q] for q in range(6)]
    whole = _fixed_point(job, 1, points)
    anchors = list(range(6))
    whole2 = _fixed_point(job, 2, anchors)
    (rows, pairs), = next(semiconj._h1_groups(job, points[:1]))
    monkeypatch.setattr(semiconj, "STACK_BUDGET",
                        2 * semiconj._frame_bytes(rows, pairs))
    calls = []
    real_solve = semiconj._solve_stack

    def solve(job, kind, st):
        calls.append(st.rows.shape[0])
        return real_solve(job, kind, st)

    monkeypatch.setattr(semiconj, "_solve_stack", solve)
    for got, want in ((_fixed_point(job, 1, points), whole),
                      (_fixed_point(job, 2, anchors), whole2)):
        for (value, stats), (v0, s0) in zip(got, want):
            assert value.coeffs.tobytes() == v0.coeffs.tobytes()
            assert stats == s0
    assert calls == [2, 2, 2, 2, 2, 2]

    def peak_of(where):
        tracemalloc.start()
        try:
            _fixed_point(job, 1, where)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_of(points) < 1.25 * peak_of(points[:2])


def test_job_precondition_gates():
    f = linear_shift()
    g = translate_system(f, translation_vector(f))
    x0 = seed_point(f)
    with pytest.raises(PreconditionError, match="smallness threshold"):
        make_conjugacy_job(f, g, x0, d=2e-4)
    with pytest.raises(PreconditionError, match="exceeds the declared"):
        make_conjugacy_job(f, g, x0, d=1e-7)
    with pytest.raises(PreconditionError, match="series tail"):
        make_conjugacy_job(f, g, x0, d=D, truncation=10)

    # steep second derivative: the remainder outgrows the allowance
    ft = make_weighted_shift(TanhShiftFamily(), 0.5, 2.5, W)
    gt = translate_system(ft, translation_vector(ft, 1e-5))
    with pytest.raises(PreconditionError, match="contraction allowance"):
        make_conjugacy_job(ft, gt, seed_point(ft), d=1e-5)

    _, _, job = affine_setup()
    y = job.orbit[0]
    with pytest.raises(PreconditionError, match="not on the certified orbit"):
        h2_at(job, y.with_coeffs(y.coeffs + 0.3))
    # a buffer point of the segment is not a certified anchor
    with pytest.raises(PreconditionError, match="not on the certified orbit"):
        h2_at(job, job.orbit[job.query_hi + 40])
