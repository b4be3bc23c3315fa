import json
import math

import numpy as np
import pytest

from shadowkit.seqcore import (
    Window, SeqVec, OperatorSeq, diag, shift_diag, identity_op, norm,
    op_apply, PreconditionError,
)
from shadowkit.clstruct import (
    ProjPair, CLCertificate, constant_cert,
    verify_cl_diffeo, verify_cl_opseq, verify_dichotomy, verify_cocycle_cl,
    _directions,
)
from shadowkit.systems import (
    make_system, make_linear_example_seq, linear_example_cert,
    make_sin_wobble,
)

W = Window(-32, 32)


def interior_points(n=3, seed=0, width=9):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        c = np.zeros(W.length)
        mid = W.offset(0)
        c[mid - width // 2: mid + width // 2 + 1] = rng.uniform(-0.3, 0.3, width)
        pts.append(SeqVec(W, c, 2.0))
    return pts


def shifted_cert(N, C, lam=0.5, R=2.0):
    """Certificate for the linear shift with the splitting boundary moved
    to index N (stable = support on k >= N)."""
    ks = np.arange(W.lo, W.hi + 1)
    mask = (ks >= N).astype(float)
    return constant_cert(C, lam, R, diag(W, mask), diag(W, 1.0 - mask))


def test_projpair_validation():
    ks = np.arange(W.lo, W.hi + 1)
    good = ProjPair(diag(W, (ks >= 0) * 1.0), diag(W, (ks < 0) * 1.0))
    good.validate()
    with pytest.raises(PreconditionError):
        ProjPair(diag(W, (ks >= 0) * 1.0), diag(W, (ks <= 0) * 1.0)).validate()
    with pytest.raises(PreconditionError):
        ProjPair(diag(W, np.full(W.length, 0.5)),
                 diag(W, np.full(W.length, 0.5))).validate()


def test_certificate_constant_validation():
    with pytest.raises(PreconditionError):
        CLCertificate(0.5, 0.5, 2.0, lambda _: None)
    with pytest.raises(PreconditionError):
        CLCertificate(1.0, 1.0, 2.0, lambda _: None)


def test_linear_shift_certificate_passes_sharply():
    sys = make_system("weighted_shift_linear", W)
    rep = verify_cl_diffeo(sys, sys.cert, interior_points(), horizon=10)
    assert rep.passed
    assert rep.max_inclusion_residual == 0.0
    assert rep.max_proj_norm == 1.0
    # every slope is exactly 1/2 or 2, so the decay inequality is tight
    assert abs(rep.worst_decay_ratio - 1.0) <= 1e-12


def test_tanh_shift_certificate_passes_with_slack():
    sys = make_system("weighted_shift_tanh", W)
    rep = verify_cl_diffeo(sys, sys.cert, interior_points(seed=1), horizon=10)
    assert rep.passed
    assert rep.worst_decay_ratio < 1.0


def test_shifted_certificate_constants():
    # Moving the splitting boundary to N costs a transient: the sharp
    # constant is 4^{|N|} for N < 0 and 4^{N-1} for N > 0 (slopes 2, 1/2).
    sys = make_system("weighted_shift_linear", W)
    pts = interior_points(1)

    rep = verify_cl_diffeo(sys, shifted_cert(-2, C=16.0), pts, horizon=8)
    assert rep.passed and abs(rep.worst_decay_ratio - 1.0) <= 1e-12
    rep = verify_cl_diffeo(sys, shifted_cert(-2, C=4.0), pts, horizon=8)
    assert not rep.passed
    assert rep.worst_decay_ratio == 4.0          # = 4^2 / C exactly
    assert rep.max_inclusion_residual == 0.0     # invariance is unharmed

    rep = verify_cl_diffeo(sys, shifted_cert(2, C=4.0), pts, horizon=8)
    assert rep.passed and abs(rep.worst_decay_ratio - 1.0) <= 1e-12

    rep = verify_cl_diffeo(sys, shifted_cert(3, C=8.0), pts, horizon=8)
    assert not rep.passed
    assert rep.worst_decay_ratio == 2.0          # = 4^2 / 8 exactly


def test_swapped_certificate_fails_with_geometric_ratio():
    sys = make_system("weighted_shift_linear", W)
    base = sys.cert.proj_at(None)
    swapped = constant_cert(1.0, 0.5, 2.0, base.Q, base.P)
    rep = verify_cl_diffeo(sys, swapped, interior_points(1), horizon=6)
    assert not rep.passed
    assert rep.worst_decay_ratio == 4.0 ** 6     # grows like (2/lam)^n
    assert rep.max_inclusion_residual == 2.0


def test_no_ed_sequence_passes_opseq_check():
    seq = make_linear_example_seq(Window(-25, 25), range(-20, 21))
    cert = linear_example_cert(Window(-25, 25))
    rep = verify_cl_opseq(seq, cert, horizon=10)
    assert rep.passed
    assert rep.max_inclusion_residual == 0.0
    assert abs(rep.worst_decay_ratio - 1.0) <= 1e-12
    assert rep.max_proj_norm == 1.0


def test_no_ed_sequence_fails_dichotomy_on_zplus():
    win = Window(-25, 25)
    seq = make_linear_example_seq(win, range(-20, 21))
    cert = linear_example_cert(win)
    rep = verify_dichotomy(seq, cert, side="Z+", horizon=10)
    assert not rep.passed
    # the equality-invariance residual P_{k+1} A_k Q_k picks up the
    # coordinate m = k+1, which A_k doubles
    assert rep.max_inclusion_residual == 2.0
    rep_minus = verify_dichotomy(seq, cert, side="Z-", horizon=10)
    assert not rep_minus.passed


def test_constant_hyperbolic_dichotomy_passes():
    ks = np.arange(W.lo, W.hi + 1)
    sc = np.where(ks < 0, 2.0, 0.5)
    seq = OperatorSeq(-8, [diag(W, sc) for _ in range(17)])
    mask = (ks >= 0).astype(float)
    cert = constant_cert(1.0, 0.5, 2.0, diag(W, mask), diag(W, 1.0 - mask))
    rep = verify_dichotomy(seq, cert, side="Z", horizon=8)
    assert rep.passed
    assert rep.max_inclusion_residual == 0.0


def test_stable_everywhere_projections_fail_on_shift():
    # declaring everything stable cannot survive the expanding coordinates
    ks = np.arange(W.lo, W.hi + 1)
    sc = np.where(ks < 0, 2.0, 0.5)
    seq = OperatorSeq(-12, [shift_diag(W, sc, shift=1) for _ in range(12)])
    cert = constant_cert(1.0, 0.5, 2.0, identity_op(W), diag(W, np.zeros(W.length)))
    rep = verify_dichotomy(seq, cert, side="Z-", horizon=12)
    assert not rep.passed
    assert rep.worst_decay_ratio == 4.0 ** 12


def test_periodic_certificate_wraps():
    w = Window(0, 3)
    scales = [np.array([0.5, 0.4, 2.0, 2.5]),
              np.array([0.45, 0.5, 3.0, 2.0]),
              np.array([0.5, 0.55, 2.0, 2.0])]
    seq = OperatorSeq(0, [diag(w, s) for s in scales], period=3)
    mask = np.array([1.0, 1.0, 0.0, 0.0])
    cert = constant_cert(1.0, 0.55, 3.0, diag(w, mask), diag(w, 1.0 - mask))
    rep = verify_cl_opseq(seq, cert, horizon=9)
    assert rep.passed
    # horizon 9 wraps the period-3 sequence three times
    assert rep.samples > 0


def test_cocycle_verifier_weighted_shift():
    sys = make_system("weighted_shift_linear", W)
    rep = verify_cocycle_cl(sys, sys.dforward, sys.cert,
                            interior_points(2, seed=3), horizon=8)
    assert rep.passed
    assert abs(rep.worst_decay_ratio - 1.0) <= 1e-12


def test_cocycle_verifier_constant_operator_any_base():
    alpha = make_sin_wobble(W)
    ks = np.arange(W.lo, W.hi + 1)
    sc = np.where(ks >= 0, 0.5, 2.0)
    A = diag(W, sc)
    mask = (ks >= 0).astype(float)
    cert = constant_cert(1.0, 0.5, 2.0, diag(W, mask), diag(W, 1.0 - mask))
    rep = verify_cocycle_cl(alpha, lambda _x: A, cert,
                            interior_points(2, seed=4), horizon=8)
    assert rep.passed
    assert rep.max_inclusion_residual == 0.0


def test_report_serializes():
    sys = make_system("weighted_shift_linear", W)
    rep = verify_cl_diffeo(sys, sys.cert, interior_points(1), horizon=4)
    blob = json.loads(rep.to_json())
    assert blob["pass"] is True
    assert "witnesses" in blob and blob["C"] == 1.0
    assert "proj_lipschitz" in blob


def test_ms_product_certificate_passes():
    sys = make_system("ms_product", W)
    rng = np.random.default_rng(5)
    pts = []
    for _ in range(3):
        c = rng.uniform(-1.4, 1.4, W.length)
        pts.append(SeqVec(W, c, 2.0))
    rep = verify_cl_diffeo(sys, sys.cert, pts, horizon=12)
    assert rep.passed
    assert rep.max_inclusion_residual == 0.0
    assert rep.max_proj_norm == 1.0


def _directions_by_basis(pair_side, window, p, n_dirs, rng):
    # reference: apply the projection to every basis vector
    dirs = []
    for j in window.indices():
        v = op_apply(pair_side, SeqVec.basis(window, j, p))
        nv = norm(v)
        if nv > 1e-14:
            dirs.append(v.with_coeffs(v.coeffs / nv))
    for _ in range(n_dirs):
        v = op_apply(pair_side, SeqVec(window, rng.standard_normal(window.length), p))
        nv = norm(v)
        if nv > 1e-12:
            dirs.append(v.with_coeffs(v.coeffs / nv))
    return dirs


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_diagonal_directions_match_basis_vector_loop(p):
    rng = np.random.default_rng(5)
    for trial in range(30):
        w = Window(-int(rng.integers(0, 6)), int(rng.integers(0, 6)))
        mask = (rng.random(w.length) < 0.5).astype(float)
        # masks, general scalars with signs and zeros, and sub-threshold ones
        scalars = [mask, 1.0 - mask,
                   rng.uniform(-3.0, 3.0, w.length) * mask,
                   np.where(mask > 0, 1e-15, 0.7)]
        for c in scalars:
            seed = int(rng.integers(2 ** 31))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _directions(diag(w, c), w, p, 3, rng_a)
            want = _directions_by_basis(diag(w, c), w, p, 3, rng_b)
            assert [v.coeffs.tobytes() for v in got] == \
                [v.coeffs.tobytes() for v in want]
            assert all(v.p == p and v.window == w for v in got)
            assert rng_a.random() == rng_b.random()
