"""Tests for the splitting-transfer engine."""
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowkit import graphtf, semiconj, seqcore
from shadowkit.boundedsol import (InhomProblem, neumann_perturbed_solve,
                                  random_hyperbolic_instance)
from shadowkit.clstruct import (CLCertificate, ProjPair, constant_cert,
                                verify_cl_diffeo, verify_cl_opseq)
from shadowkit.graphtf import (MAX_DENSE_BYTES, _dense_bytes, _diff_norms,
                               graph_transform_periodic, graph_transform_seq,
                               perturbation_budget, perturbed_cl_for_diffeo,
                               rate_upgrade_steps, series_gain,
                               upgraded_constant)
from shadowkit.seqcore import (LinOp, OperatorSeq, PreconditionError,
                               SeqVec, TruncationError, Window, dense, diag,
                               norm, op_apply, op_norm, shift_diag, sub)
from shadowkit.systems import (LinearShiftFamily, SinPerturbedFamily,
                               linear_example_cert, make_linear_example_seq,
                               make_weighted_shift)


def coordinate_cert(window, stable_mask, C=1.0, lam=0.5, R=2.0):
    mask = np.asarray(stable_mask, dtype=float)
    return constant_cert(C, lam, R, diag(window, mask), diag(window, 1.0 - mask))


def test_series_gain_and_budget_closed_form():
    assert series_gain(1.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-15)
    eb = perturbation_budget(1.0, 0.5, 2.0)
    assert eb == pytest.approx(0.008006410237762052, rel=1e-12)
    assert perturbation_budget(1.0, 0.5, 3.5) == pytest.approx(
        0.002721961703492149, rel=1e-12)
    # the budget saturates the inequality it is defined by
    L = series_gain(1.0, 0.5)
    e1, e2 = eb, 2.0 * L * eb
    assert 2.0 * (2.0 * e1 + 4.0 * (2.0 + e1) * e2) == pytest.approx(
        1.0 / (2.0 * L), rel=1e-12)


def test_rate_upgrade_steps_and_constant():
    assert rate_upgrade_steps(1.0, 0.5, 0.75) == 2
    assert upgraded_constant(1.0, 0.5, 2.0, 0.75) == 16.0
    assert upgraded_constant(1.0, 0.5, 3.5, 0.75) == 36.0
    # minimality of N for a slower upgrade
    N = rate_upgrade_steps(1.0, 0.5, 0.51)
    assert 2.0 * 0.5 ** N <= 0.51 ** N
    assert 2.0 * 0.5 ** (N - 1) > 0.51 ** (N - 1)
    with pytest.raises(PreconditionError):
        rate_upgrade_steps(1.0, 0.5, 0.5)
    with pytest.raises(PreconditionError):
        rate_upgrade_steps(1.0, 0.5, 1.0)


def test_scalar_periodic_fixed_point_matches_eigenvector():
    # one expanding and one contracting coordinate, period one: the tilt
    # solves a scalar quadratic, and the rebuilt stable space must be the
    # slow eigenline of the perturbed matrix
    W = Window(0, 1)
    A = diag(W, np.array([0.5, 2.0]))
    delta = np.array([[3e-4, -1.5e-4], [2e-4, 1e-4]])
    B = dense(A.to_dense_matrix() + delta, W)
    cert = coordinate_cert(W, [1.0, 0.0])
    pc = graph_transform_periodic(OperatorSeq(0, [A], period=1), cert,
                                  OperatorSeq(0, [B], period=1), 0.75)

    evals, evecs = np.linalg.eig(B.to_dense_matrix())
    vs = evecs[:, int(np.argmin(np.abs(evals - 0.5)))]
    vu = evecs[:, int(np.argmin(np.abs(evals - 2.0)))]
    vs, vu = vs / vs[0], vu / vu[1]
    H = pc.graph.H[0].to_dense_matrix()
    Hu = pc.graph.H_u[0].to_dense_matrix()
    assert H[1, 0] == pytest.approx(vs[1], abs=1e-12)
    assert H[1, 0] == pytest.approx(-1.333511152602867e-4, rel=1e-9)
    assert H[0, 0] == H[0, 1] == H[1, 1] == 0.0
    assert Hu[0, 1] == pytest.approx(vu[0], abs=1e-12)

    V = np.column_stack([vs, vu])
    spectral = V @ np.diag([1.0, 0.0]) @ np.linalg.inv(V)
    got = pc.result.proj_at(0).P.to_dense_matrix()
    assert np.allclose(got, spectral, atol=1e-10)
    assert pc.result.C == 16.0 and pc.result.lam == 0.75
    # period-one serving hands back the identical pair at every time
    assert pc.result.proj_at(5) is pc.result.proj_at(0)
    assert pc.result.proj_at(-3) is pc.result.proj_at(0)


def test_identical_sequences_keep_splitting_bit_exact():
    W = Window(-25, 25)
    seq = make_linear_example_seq(W, range(-20, 21))
    cert = linear_example_cert(W)
    pc = graph_transform_seq(seq, cert, seq, 0.75)
    assert pc.meta["eps_measured"] == 0.0
    assert pc.graph.attained == 0.0
    assert pc.graph.fp_residual == 0.0
    assert pc.graph.iterations == 2  # one sweep per side settles at zero
    for op in list(pc.graph.H.values()) + list(pc.graph.H_u.values()):
        assert not op.to_dense_matrix().any()
    assert max(pc.inclusion_residuals.values()) == 0.0
    for k in range(seq.lo, seq.hi + 1):
        assert np.array_equal(pc.result.proj_at(k).P.to_dense_matrix(),
                              cert.proj_at(k).P.to_dense_matrix())
    # the original constants are recoverable with the rebuilt projections
    fresh = CLCertificate(cert.C, cert.lam, cert.R, pc.result.proj_at)
    assert verify_cl_opseq(seq, fresh, p=2.0).passed


def test_no_dichotomy_instance_passes_at_relaxed_rate():
    W = Window(-25, 25)
    seq = make_linear_example_seq(W, range(-20, 21))
    cert = linear_example_cert(W)
    eps = perturbation_budget(1.0, 0.5, 2.0) / 2.0
    rng = np.random.default_rng(0)
    pert = []
    for k in range(seq.lo, seq.hi):
        raw = rng.standard_normal((W.length, W.length))
        raw *= eps / np.linalg.norm(raw, 2)
        pert.append(dense(seq.op_at(k).to_dense_matrix() + raw, W))
    pseq = OperatorSeq(seq.lo, pert)

    pc = graph_transform_seq(seq, cert, pseq, 0.75, eps=eps)
    assert pc.result.C == 16.0 and pc.result.lam == 0.75
    assert pc.graph.attained > 0.0
    assert pc.meta["contraction_ratio"] <= 0.5 * (1.0 + 1e-9)
    assert pc.graph.fp_residual <= 1e-11
    assert max(pc.inclusion_residuals.values()) <= 1e-9
    assert pc.meta["reverse_inclusion_max"] <= 1e-9
    ball = 2.0 * series_gain(1.0, 0.5) * eps
    assert max(op_norm(op, 2.0) for op in pc.graph.H.values()) <= ball
    # the inverse-side difference really does overshoot its own budget
    # here; the construction survives on measured behavior, and says so
    assert not pc.meta["reverse_within_budget"]
    assert verify_cl_opseq(pseq, pc.result, p=2.0).passed


def test_periodic_matches_unrolled_fixed_point():
    W = Window(0, 3)
    rng = np.random.default_rng(3)

    def hyperbolic():
        sc = np.concatenate([rng.uniform(0.3, 0.5, 2), rng.uniform(2.0, 3.0, 2)])
        return np.diag(sc)

    A0, A1 = hyperbolic(), hyperbolic()
    cert = coordinate_cert(W, [1.0, 1.0, 0.0, 0.0], R=3.4)
    eps = 0.25 * perturbation_budget(1.0, 0.5, 3.4)
    D0, D1 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    B0 = A0 + eps * D0 / np.linalg.norm(D0, 2)
    B1 = A1 + eps * D1 / np.linalg.norm(D1, 2)

    per = graph_transform_periodic(
        OperatorSeq(0, [dense(A0, W), dense(A1, W)], period=2), cert,
        OperatorSeq(0, [dense(B0, W), dense(B1, W)], period=2), 0.75)
    assert per.result.proj_at(2) is per.result.proj_at(0)
    assert per.result.proj_at(7) is per.result.proj_at(1)
    assert set(per.graph.H) == {0, 1}
    assert verify_cl_opseq(
        OperatorSeq(0, [dense(B0, W), dense(B1, W)], period=2),
        per.result, p=2.0, indices=range(0, 2)).passed

    reps = 12
    aseq = OperatorSeq(0, [dense((A0, A1)[j % 2], W) for j in range(2 * reps)])
    bseq = OperatorSeq(0, [dense((B0, B1)[j % 2], W) for j in range(2 * reps)])
    unrolled = graph_transform_seq(aseq, cert, bseq, 0.75)
    # far from the ends the aperiodic sweep forgets the boundary and
    # reproduces the periodic fixed point
    for t, parity in ((reps, 0), (reps + 1, 1)):
        assert np.allclose(unrolled.graph.H[t].to_dense_matrix(),
                           per.graph.H[parity].to_dense_matrix(), atol=1e-9)
        assert np.allclose(unrolled.result.proj_at(t).P.to_dense_matrix(),
                           per.result.proj_at(parity).P.to_dense_matrix(),
                           atol=1e-9)


def test_precondition_gates():
    W = Window(-10, 10)
    seq = make_linear_example_seq(W, range(-6, 7))
    cert = linear_example_cert(W)
    budget = perturbation_budget(1.0, 0.5, 2.0)
    with pytest.raises(PreconditionError, match="budget"):
        graph_transform_seq(seq, cert, seq, 0.75, eps=1.1 * budget)
    with pytest.raises(PreconditionError, match="lam1"):
        graph_transform_seq(seq, cert, seq, 0.4)
    with pytest.raises(PreconditionError, match="p in"):
        graph_transform_seq(seq, cert, seq, 0.75, p=3.0)

    bump = np.zeros((W.length, W.length))
    bump[2, 2] = 1e-3
    pert = [dense(seq.op_at(k).to_dense_matrix() + bump, W)
            for k in range(seq.lo, seq.hi)]
    with pytest.raises(PreconditionError, match="measured"):
        graph_transform_seq(seq, cert, OperatorSeq(seq.lo, pert), 0.75, eps=1e-6)

    A = diag(Window(0, 1), np.array([0.5, 2.0]))
    per = OperatorSeq(0, [A], period=1)
    with pytest.raises(PreconditionError, match="periodic"):
        graph_transform_seq(per, cert, per, 0.75)
    with pytest.raises(PreconditionError, match="periodic"):
        graph_transform_periodic(seq, cert, seq, 0.75)
    # an index-dependent splitting cannot be served periodically
    drifting = OperatorSeq(0, [seq.op_at(0), seq.op_at(1)], period=2)
    with pytest.raises(PreconditionError, match="drift"):
        graph_transform_periodic(drifting, cert, drifting, 0.75)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_hyperbolic_transfer_properties(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    prob, cert = random_hyperbolic_instance(dim, 10, rng)
    seq = prob.seq
    W = seq.op_at(seq.lo).domain
    eps = 0.3 * perturbation_budget(cert.C, cert.lam, cert.R)
    pert = []
    for k in range(seq.lo, seq.hi):
        raw = rng.standard_normal((dim, dim))
        raw *= eps / np.linalg.norm(raw, 2)
        pert.append(dense(seq.op_at(k).to_dense_matrix() + raw, W))
    pseq = OperatorSeq(seq.lo, pert)

    pc = graph_transform_seq(seq, cert, pseq, 0.75)
    assert pc.meta["eps_measured"] <= eps * (1.0 + 1e-9)
    assert pc.graph.attained <= pc.graph.eps2 * (1.0 + 1e-9)
    assert pc.meta["contraction_ratio"] <= 0.5 * (1.0 + 1e-9)
    assert pc.graph.fp_residual <= 1e-11
    assert max(pc.inclusion_residuals.values()) <= 1e-9
    assert pc.meta["reverse_inclusion_max"] <= 1e-9
    assert pc.result.C == 36.0 and pc.result.lam == 0.75
    assert verify_cl_opseq(pseq, pc.result, horizon=5, n_dirs=8, p=2.0).passed


def test_diffeo_same_map_is_identity_transfer():
    W = Window(-16, 32)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    coeffs = np.zeros(W.length)
    coeffs[W.offset(-2):W.offset(3)] = [0.04, -0.03, 0.05, 0.02, -0.01]
    orbit = [SeqVec(W, coeffs, 2.0)]
    for _ in range(12):
        orbit.append(f.forward(orbit[-1]))

    pc = perturbed_cl_for_diffeo(f, f, orbit, 0.75)
    assert pc.meta["route"] == "aperiodic"
    assert pc.meta["eps_measured"] == 0.0
    assert pc.graph.attained == 0.0
    for op in list(pc.graph.H.values()) + list(pc.graph.H_u.values()):
        assert not op.to_dense_matrix().any()
    base = f.cert.proj_at(orbit[3])
    assert np.array_equal(pc.result.proj_at(orbit[3]).P.to_dense_matrix(),
                          base.P.to_dense_matrix())
    with pytest.raises(PreconditionError, match="not on the certified orbit"):
        pc.result.proj_at(SeqVec(W, coeffs + 0.5, 2.0))


def test_diffeo_smooth_perturbation_certifies_at_relaxed_rate():
    W = Window(-16, 32)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, name="wobbly_shift")
    coeffs = np.zeros(W.length)
    coeffs[W.offset(-2):W.offset(3)] = [0.04, -0.03, 0.05, 0.02, -0.01]
    orbit = [SeqVec(W, coeffs, 2.0)]
    for _ in range(16):
        orbit.append(g.forward(orbit[-1]))

    pc = perturbed_cl_for_diffeo(f, g, orbit, 0.75)
    assert pc.meta["route"] == "aperiodic"
    assert 0.0 < pc.meta["eps_measured"] <= 1e-4 * (1.0 + 1e-9)
    assert pc.meta["reverse_within_budget"]
    # the shift geometry keeps the perturbation from tilting the splitting
    assert pc.graph.attained == 0.0
    assert max(pc.inclusion_residuals.values()) <= 1e-9
    assert pc.result.C == 16.0 and pc.result.lam == 0.75
    rep = verify_cl_diffeo(g, pc.result, [orbit[6], orbit[8], orbit[10]],
                           horizon=6)
    assert rep.passed

    # a corrupted orbit is rejected up front
    broken = list(orbit)
    broken[5] = broken[5].with_coeffs(broken[5].coeffs + 1e-6)
    with pytest.raises(PreconditionError, match="orbit breaks"):
        perturbed_cl_for_diffeo(f, g, broken, 0.75)


def test_diffeo_closed_orbit_routes_periodically():
    W = Window(-16, 32)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, name="wobbly_shift")
    zero = SeqVec(W, np.zeros(W.length), 2.0)
    pc = perturbed_cl_for_diffeo(f, g, [zero, zero], 0.75)
    assert pc.meta["route"] == "periodic"
    assert pc.meta["period"] == 1
    assert pc.meta["eps_measured"] == pytest.approx(1e-4, rel=1e-12)
    assert pc.graph.attained == 0.0
    pair = pc.result.proj_at(zero)
    assert np.array_equal(pair.P.to_dense_matrix(),
                          f.cert.proj_at(zero).P.to_dense_matrix())


def test_serialization_and_residual_rows():
    W = Window(0, 1)
    A = diag(W, np.array([0.5, 2.0]))
    delta = np.array([[3e-4, -1.5e-4], [2e-4, 1e-4]])
    B = dense(A.to_dense_matrix() + delta, W)
    cert = coordinate_cert(W, [1.0, 0.0])
    pc = graph_transform_periodic(OperatorSeq(0, [A], period=1), cert,
                                  OperatorSeq(0, [B], period=1), 0.75)

    blob = json.loads(json.dumps(pc.to_json()))
    assert blob["result"]["C"] == 16.0
    assert blob["result"]["lam"] == 0.75
    assert blob["base"]["C"] == 1.0
    got = np.array(blob["H"]["0"])
    assert got.shape == (2, 2)
    assert got[1, 0] == pytest.approx(-1.333511152602867e-4, rel=1e-9)
    assert blob["meta"]["rate_steps"] == 2

    rows = pc.residual_rows()
    assert len(rows) == 1
    k, h_norm, resid = rows[0]
    assert k == 0
    assert h_norm == pytest.approx(abs(got[1, 0]), rel=1e-12)
    assert resid <= 1e-9


# ---------------------------------------------------------------------------
# structured transfers against the same transfer on densified inputs

def _as_dense(op):
    return dense(op.to_dense_matrix(), op.domain, op.codomain)


def _dense_ops(seq):
    return OperatorSeq(seq.lo, [_as_dense(op) for op in seq.ops],
                       period=seq.period)


def _dense_pairs(cert):
    def proj_at(k):
        pair = cert.proj_at(k)
        return ProjPair(_as_dense(pair.P), _as_dense(pair.Q))

    return CLCertificate(cert.C, cert.lam, cert.R, proj_at)


def _assert_same_transfer(pc, pc_dense):
    assert pc.graph.iterations == pc_dense.graph.iterations
    assert pc.graph.meta == pc_dense.graph.meta
    assert pc.graph.attained == pc_dense.graph.attained
    assert sorted(pc.graph.H) == sorted(pc_dense.graph.H)
    for k in pc.graph.H:
        for tilts in ("H", "H_u"):
            assert np.array_equal(
                getattr(pc.graph, tilts)[k].to_dense_matrix(),
                getattr(pc_dense.graph, tilts)[k].to_dense_matrix())
        pair, pair_dense = pc.result.proj_at(k), pc_dense.result.proj_at(k)
        assert np.array_equal(pair.P.to_dense_matrix(), pair_dense.P.matrix)
        assert np.array_equal(pair.Q.to_dense_matrix(), pair_dense.Q.matrix)
    assert pc.inclusion_residuals == pc_dense.inclusion_residuals


def _count_densifications(monkeypatch):
    calls = []
    real = LinOp.to_dense_matrix

    def counted(op):
        calls.append(op.kind)
        return real(op)

    monkeypatch.setattr(LinOp, "to_dense_matrix", counted)
    return calls


def test_conjugacy_job_transfer_stays_structured(monkeypatch):
    # zero tilt: the semiconj job's transfer of f's splitting onto Df read
    # along the g-orbit, cut to 24 steps so the dense copy stays small
    captured = []
    real_transfer = semiconj.graph_transform_seq

    def spy(seq, cert, pert, lam1, **kw):
        captured.append((seq, cert, pert, lam1, kw))
        return real_transfer(seq, cert, pert, lam1, **kw)

    monkeypatch.setattr(semiconj, "graph_transform_seq", spy)
    W = Window(-48, 48)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, name="wobbly_shift")
    coeffs = np.zeros(W.length)
    coeffs[W.offset(-3):W.offset(3)] = [0.01, -0.02, 0.015, 0.01, -0.005, 0.02]
    semiconj.make_conjugacy_job(f, g, SeqVec(W, coeffs), d=1e-4)
    (seq, cert, pert, lam1, kw), = captured
    a = len(seq.ops) // 2
    seq = OperatorSeq(seq.lo + a, seq.ops[a:a + 24])
    pert = OperatorSeq(pert.lo + a, pert.ops[a:a + 24])
    calls = _count_densifications(monkeypatch)
    pc = graph_transform_seq(seq, cert, pert, lam1, **kw)
    # zero tilts stay structured: nothing is densified
    assert len(calls) == 0
    assert pc.graph.attained == 0.0
    # the dense view of a shift is singular, so the reference densifies the
    # projections: every block, iterate and norm then takes the dense path
    pc_dense = graph_transform_seq(seq, _dense_pairs(cert), pert, lam1, **kw)
    _assert_same_transfer(pc, pc_dense)


def _dense_perturbation_route(W, n_ops, eps):
    """Robustness's sequence route: a diagonal base sequence and coordinate
    splitting, and a dense perturbation of size 0.9 eps."""
    seq = make_linear_example_seq(W, range(0, n_ops))
    rng = np.random.default_rng(4)
    pert = []
    for k in range(seq.lo, seq.hi):
        raw = rng.standard_normal((W.length, W.length))
        raw *= 0.9 * eps / op_norm(dense(raw, W), 2.0)
        pert.append(dense(seq.op_at(k).to_dense_matrix() + raw, W))
    return seq, linear_example_cert(W), OperatorSeq(seq.lo, pert)


def test_diag_base_with_dense_perturbation_matches_all_dense():
    # nonzero tilt on the dense perturbation route
    eps = 1e-4
    seq, cert, pseq = _dense_perturbation_route(Window(-10, 10), 12, eps)
    pc = graph_transform_seq(seq, cert, pseq, 0.75, eps=eps)
    assert pc.graph.attained > 0.0
    _assert_same_transfer(pc, graph_transform_seq(
        _dense_ops(seq), _dense_pairs(cert), pseq, 0.75, eps=eps))


def test_periodic_transfers_match_dense_reference():
    W = Window(0, 3)
    rng = np.random.default_rng(5)
    ops = [diag(W, np.array([0.5, 0.4, 2.0, 2.5]) * (1.0 + 0.01 * k))
           for k in range(3)]
    pert = [dense(op.to_dense_matrix() + 2e-4 * rng.uniform(-1, 1, (4, 4)), W)
            for op in ops]
    seq = OperatorSeq(0, ops, period=3)
    pseq = OperatorSeq(0, pert, period=3)
    cert = coordinate_cert(W, [1.0, 1.0, 0.0, 0.0])
    pc = graph_transform_periodic(seq, cert, pseq, 0.75)
    assert pc.graph.attained > 0.0
    _assert_same_transfer(pc, graph_transform_periodic(
        _dense_ops(seq), _dense_pairs(cert), pseq, 0.75))

    # zero tilt on weighted shifts: the fixed point of the closed-orbit route
    W = Window(-16, 32)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, name="wobbly_shift")
    zero = SeqVec(W, np.zeros(W.length), 2.0)
    seq = OperatorSeq(0, [f.dforward(zero)], period=1)
    pseq = OperatorSeq(0, [g.dforward(zero)], period=1)
    pc = graph_transform_periodic(seq, f.cert, pseq, 0.75)
    assert pc.graph.attained == 0.0
    _assert_same_transfer(pc, graph_transform_periodic(
        seq, _dense_pairs(f.cert), pseq, 0.75))


def test_dense_transfer_admission_estimate():
    # the estimate bounds, and stays close to, the peak the all-dense
    # transfer allocates at two window sizes
    eps = 1e-4
    for half in (10, 20):
        W = Window(-half, half)
        seq, cert, pseq = _dense_perturbation_route(W, 12, eps)
        seq, cert = _dense_ops(seq), _dense_pairs(cert)
        tracemalloc.start()
        try:
            graph_transform_seq(seq, cert, pseq, 0.75, eps=eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * _dense_bytes(12, W.length) < peak <= _dense_bytes(12, W.length)
    # the CLI's dense transfer (robustness) at N=48 and a long horizon
    assert _dense_bytes(200, 97) < MAX_DENSE_BYTES
    # extreme window and horizon: the estimate alone, nothing allocated
    assert _dense_bytes(100_000, 2 * 10_000 + 1) > MAX_DENSE_BYTES
    # the transfer refuses before it builds anything per step
    W = Window(0, 999)
    A = dense(np.diag(np.where(np.arange(1000) < 500, 0.5, 2.0)), W)
    seq = OperatorSeq(0, [A] * 400)
    cert = coordinate_cert(W, np.arange(1000) < 500)
    need = _dense_bytes(400, 1000)
    with pytest.raises(PreconditionError, match=f"needs about {need} bytes"):
        graph_transform_seq(seq, cert, seq, 0.75)


def test_edge_scalars_of_a_shift_count_only_in_the_eps_gate():
    # A weighted shift by s drops its |s| edge coordinates.  The transfer's
    # eps gate (_diff_norms) still counts the scalar gap there; the certified
    # R and the Neumann solver's |Delta| gate take the operator norm of the
    # dense view, which does not.
    W = Window(-16, 32)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, name="wobbly_shift")
    zero = SeqVec(W, np.zeros(W.length), 2.0)
    A, B = f.dforward(zero), g.dforward(zero)
    assert A.shift == B.shift == 1
    edge = W.length - 1

    def with_edge(op, c):
        scalars = op.scalars.copy()
        scalars[edge] = c
        return shift_diag(W, scalars, op.shift)

    def periodic(op):
        return OperatorSeq(0, [op], period=1)

    # the largest scalar of both shifts sits on the dropped edge
    pc = graph_transform_periodic(periodic(A), f.cert, periodic(B), 0.75)
    pc_edge = graph_transform_periodic(periodic(with_edge(A, 50.0)), f.cert,
                                       periodic(with_edge(B, 50.0)), 0.75)
    assert pc_edge.result.R == pc.result.R == max(op_norm(B),
                                                   op_norm(B.inverse()))
    assert pc_edge.result.R < 50.0

    # a gap on the edge alone: the Neumann gate admits what the eps gate refuses
    B_gap = with_edge(B, B.scalars[edge] + 1e-3)
    acting_gap = op_norm(sub(B, A))
    assert op_norm(sub(B_gap, A)) == acting_gap
    assert float(_diff_norms(B_gap, A, 2.0)) == pytest.approx(
        1e-3 + acting_gap)
    eps = 2.0 * acting_gap
    with pytest.raises(PreconditionError, match="below the measured"):
        graph_transform_periodic(periodic(A), f.cert, periodic(B_gap), 0.75,
                                 eps=eps)
    n = 6
    w = {k: SeqVec.basis(W, 0) for k in range(1, n + 1)}
    sol = neumann_perturbed_solve(InhomProblem(OperatorSeq(0, [B_gap] * n), w),
                                  OperatorSeq(0, [A] * n), f.cert, eps=eps)
    assert sol.max_residual <= 1e-10 * (1.0 + sol.sup_norm)


def _directions_by_basis(side, W, p, n_dirs, rng):
    # reference: the projection applied to every basis vector, then to
    # n_dirs random vectors, one op_apply each
    dirs = []
    for j in W.indices():
        v = op_apply(side, SeqVec.basis(W, j, p))
        if norm(v) > 1e-14:
            dirs.append(v.with_coeffs(v.coeffs / norm(v)))
    for _ in range(n_dirs):
        v = op_apply(side, SeqVec(W, rng.standard_normal(W.length), p))
        if norm(v) > 1e-12:
            dirs.append(v.with_coeffs(v.coeffs / norm(v)))
    return dirs


def _transfer_scan_by_direction(pc, pert, lam1, p, period):
    # reference for the transfer's N-step decay scan: one direction at a
    # time, skipped at its first trip of the edge guard
    N = rate_upgrade_steps(pc.base.C, pc.base.lam, lam1)
    n_ops = len(pert.ops)
    n_times = n_ops if period else n_ops + 1
    b_ops = [pert.op_at(pert.lo + j) for j in range(n_ops)]
    b_inv = [op.inverse() for op in b_ops]
    pairs = [pc.result.proj_at(pert.lo + j) for j in range(n_times)]
    W = b_ops[0].domain
    rng = np.random.default_rng(0)
    out = {"C1_empirical": 0.0, "n_step_worst": 0.0, "decay_checked": 0,
           "decay_skipped": 0}

    def scan(side, ops):
        for v in _directions_by_basis(side, W, p, 6, rng):
            cur, ratios = v, []
            try:
                for A in ops:
                    cur = op_apply(A, cur)
                    ratios.append(norm(cur) / norm(v))
            except TruncationError:
                out["decay_skipped"] += 1
                continue
            for n, r in enumerate(ratios, start=1):
                out["C1_empirical"] = max(out["C1_empirical"], r / lam1 ** n)
            out["n_step_worst"] = max(out["n_step_worst"], ratios[-1])
            out["decay_checked"] += 1

    fwd_js = [j for j in range(n_times) if period or j + N <= n_ops]
    bwd_js = [j for j in range(n_times) if period or j - N >= 0]
    for j in fwd_js[::max(1, len(fwd_js) // 12)]:
        scan(pairs[j].P, [b_ops[(j + l) % n_ops] for l in range(N)])
    for j in bwd_js[::max(1, len(bwd_js) // 12)]:
        scan(pairs[j].Q, [b_inv[(j - 1 - l) % n_ops] for l in range(N)])
    return out


def _assert_scan_matches_reference(pc, pert, lam1, p, period=None):
    want = _transfer_scan_by_direction(pc, pert, lam1, p, period)
    assert {key: pc.meta[key] for key in want} == want
    return want


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_transfer_decay_scan_matches_direction_by_direction_loop(p):
    # weighted shifts along an orbit: coordinate directions near the right
    # edge trip the guard within the N-step scan, some at its last step
    W = Window(-16, 32)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W, p)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, p, name="wobbly_shift")
    coeffs = np.zeros(W.length)
    coeffs[W.offset(-2):W.offset(3)] = [0.04, -0.03, 0.05, 0.02, -0.01]
    orbit = g.orbit(SeqVec(W, coeffs, p), 0, 14)
    zero = SeqVec(W, np.zeros(W.length), p)
    pair = f.cert.proj_at(zero)
    cert = CLCertificate(f.cert.C, f.cert.lam, f.cert.R, lambda _k: pair)
    seq = OperatorSeq(0, [f.dforward(x) for x in orbit])
    pseq = OperatorSeq(0, [g.dforward(x) for x in orbit])
    for lam1 in (0.75, 0.55):
        pc = graph_transform_seq(seq, cert, pseq, lam1, p=p)
        want = _assert_scan_matches_reference(pc, pseq, lam1, p)
        assert want["decay_skipped"] > 0 and want["decay_checked"] > 0

    # a dense perturbation with a nonzero tilt, aperiodic and periodic
    if p == 2.0:
        eps = 1e-4
        seq, cert, pseq = _dense_perturbation_route(Window(-10, 10), 12, eps)
        pc = graph_transform_seq(seq, cert, pseq, 0.75, eps=eps)
        assert pc.graph.attained > 0.0
        _assert_scan_matches_reference(pc, pseq, 0.75, p)
    W = Window(0, 3)
    rng = np.random.default_rng(5)
    ops = [diag(W, np.array([0.5, 0.4, 2.0, 2.5]) * (1.0 + 0.01 * k))
           for k in range(3)]
    pert = [dense(op.to_dense_matrix() + 2e-4 * rng.uniform(-1, 1, (4, 4)), W)
            for op in ops]
    pseq = OperatorSeq(0, pert, period=3)
    pc = graph_transform_periodic(OperatorSeq(0, ops, period=3),
                                  coordinate_cert(W, [1.0, 1.0, 0.0, 0.0]),
                                  pseq, 0.75, p=p)
    _assert_scan_matches_reference(pc, pseq, 0.75, p, period=3)


def _wobbly_shift_sequences(W, n_ops, period=None):
    """The weighted shift's Df and the sine-perturbed shift's Dg read along
    n_ops fixed small points: every operator a shift by 1."""
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, name="wobbly_shift")
    ks = np.arange(W.lo, W.hi + 1)
    xs = [SeqVec(W, 0.1 * (i + 1) * (-1.0) ** ks) for i in range(n_ops)]
    return (f, OperatorSeq(0, [f.dforward(x) for x in xs], period=period),
            OperatorSeq(0, [g.dforward(x) for x in xs], period=period))


def test_structured_transfer_work_does_not_grow_with_the_steps(monkeypatch):
    # the transfer's algebra runs as whole-array operations on shift stacks
    # and on the dense perturbation route's dense stacks alike: no per-step
    # compose/add/sub, whatever the number of steps
    calls = []
    for name in ("compose", "add", "sub"):
        real = getattr(seqcore, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        for mod in (seqcore, graphtf):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    counts = []
    for n_ops in (16, 340):
        f, seq, pseq = _wobbly_shift_sequences(Window(-8, 8), n_ops)
        calls.clear()
        pc = graph_transform_seq(seq, f.cert, pseq, 0.75)
        counts.append(len(calls))
        assert len(pc.inclusion_residuals) == n_ops
    assert counts[0] == counts[1] < 16
    counts = []
    for n_ops in (12, 48):
        seq, cert, pseq = _dense_perturbation_route(Window(-10, 10), n_ops,
                                                    1e-4)
        calls.clear()
        pc = graph_transform_seq(seq, cert, pseq, 0.75, eps=1e-4)
        counts.append(len(calls))
        assert pc.graph.attained > 0.0
    assert counts[0] == counts[1]


def test_periodic_shift_transfer_record_is_unchanged():
    # the stacked periodic branch against the record of the per-step one
    f, seq, pseq = _wobbly_shift_sequences(Window(-2, 3), 3, period=3)
    got = graph_transform_periodic(seq, f.cert, pseq, 0.75).to_json()
    zeros = {str(k): [[0.0] * 6 for _ in range(6)] for k in range(3)}
    expected = {
        "base": {"C": 1.0, "lam": 0.5, "R": 2.0},
        "result": {"C": 16.0, "lam": 0.75, "R": 2.000099500416528},
        "eps2": 0.0010611266112174889,
        "iterations": 2,
        "attained": 0.0,
        "fp_residual": 0.0,
        "H": zeros,
        "H_u": zeros,
        "inclusion_residuals": {"0": 0.0, "1": 0.0, "2": 0.0},
        "meta": {
            "p": 2.0,
            "eps": 9.950041652784236e-05,
            "eps_measured": 9.950041652784236e-05,
            "eps_reverse": 0.0003979224792065583,
            "budget": 0.008006410237762052,
            "reverse_within_budget": True,
            "eps2_forward": 0.0002653344440742463,
            "eps2_reverse": 0.0010611266112174889,
            "rate_steps": 2,
            "C1_formula": 16.0,
            "C1_empirical": 0.6667993338887038,
            "n_step_worst": 0.25009876328885927,
            "n_step_bound": 0.5625005624999999,
            "decay_checked": 6,
            "decay_skipped": 48,
            "contraction_ratio": 0.0,
            "proj_norm_sup": 1.0,
            "reverse_inclusion_max": 0.0,
            "period": 3,
        },
    }
    assert json.dumps(got, sort_keys=True) == json.dumps(expected,
                                                         sort_keys=True)


#: sha256 of the fixed point's H bytes and the repr of its stats tuple,
#: recorded from the step-by-step evaluation of the same algebra on single
#: rows, which the dense path used to take
_STEPPED_FIXED_POINT = {
    None: "2a36a959401e9eff78cb0a215cb616a8cac7e088577f556f48965bc75c0aab96",
    4: "3d1d44a987cddd87382587050119cfbf1126d22956c0d74696a054cd60ad5dbf",
}
#: sha256 of the sorted-key JSON of the dense perturbation route's transfer
#: (Window(-10, 10), 12 steps, eps 1e-4, lam1 0.75), recorded from the
#: step-by-step evaluation, with ``result.R`` the outward-rounded SVD bound
#: 2.0002550465079234 (the power iteration read 2.0000826339710107, below
#: the SVD norm 2.000255046507886); every other entry kept its bytes
_STEPPED_DENSE_ROUTE = (
    "844bb1a27103648a8cff93ac02dee7f25c8f3281e225c65443758f8824cc2858")


#: result.R of the dense perturbation route while it was read by power
#: iteration (capped at 500 rounds), below the SVD norm 2.000255046507886
_POWER_ITERATION_R = 2.0000826339710107


def test_dense_transfer_R_is_an_outward_rounded_svd_bound():
    eps = 1e-4
    W = Window(-10, 10)
    seq, cert, pseq = _dense_perturbation_route(W, 12, eps)
    R = graph_transform_seq(seq, cert, pseq, 0.75, eps=eps).result.R
    svd = [np.linalg.norm(M, 2) for k in range(pseq.lo, pseq.hi)
           for M in (pseq.op_at(k).matrix, np.linalg.inv(pseq.op_at(k).matrix))]
    assert all(R >= s for s in svd)
    assert R > _POWER_ITERATION_R
    slack = graphtf.NORM_ROUND_C * W.length * np.finfo(float).eps
    assert R <= max(svd) * (1.0 + slack)
    assert R == max(svd) * (1.0 + slack)


@pytest.mark.parametrize("period", [None, 4])
def test_stacked_fixed_point_matches_the_per_step_one(period):
    # random shift blocks with a nonzero tilt, so the series runs many
    # terms: one array operation per block over all steps, against the
    # digest of the same algebra evaluated step by step on single rows
    rng = np.random.default_rng(7)
    W = Window(-3, 3)
    m = 4

    def stack(s, scale):
        return shift_diag(
            W, scale * rng.uniform(-1.0, 1.0, (m, W.length)), s)

    blk = {"Z": stack(-1, 0.5), "Ass": stack(1, 0.5), "Aus": stack(1, 0.1),
           "Bsu": stack(1, 1e-3), "Dss": stack(1, 1e-3),
           "Dus": stack(1, 1e-3), "Duu": stack(1, 1e-3)}
    nxt = (np.arange(m) + 1) % (m if period else m + 1)
    zero = shift_diag(W, np.zeros(W.length), 0)
    H, *stats = graphtf._fixed_point(blk, m, nxt, 1.0, 0.5, 2.0, period,
                                     "test", zero)
    assert H.shift == 0 and H.data.any()
    assert stats[0] > 2
    digest = hashlib.sha256(H.data.tobytes() + repr(tuple(stats)).encode())
    assert digest.hexdigest() == _STEPPED_FIXED_POINT[period]

    # the dense route, step by step before
    eps = 1e-4
    seq, cert, pseq = _dense_perturbation_route(Window(-10, 10), 12, eps)
    blob = graph_transform_seq(seq, cert, pseq, 0.75, eps=eps).to_json()
    digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode())
    assert digest.hexdigest() == _STEPPED_DENSE_ROUTE
