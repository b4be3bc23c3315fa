import dataclasses
import json
import math

import numpy as np
import pytest

from shadowkit.boundedsol import random_hyperbolic_instance
from shadowkit.seqcore import (
    Window, SeqVec, Segment, OperatorSeq, LinOp, dense, diag, shift_diag,
    identity_op,
    norm, op_apply, op_norm, compose, stack_ops, PreconditionError,
    TruncationError,
)
from shadowkit import clstruct
from shadowkit.clstruct import (
    ProjPair, CLCertificate, constant_cert,
    verify_cl_diffeo, verify_cl_opseq, verify_dichotomy, verify_cocycle_cl,
    _decay_scan, _directions,
)
from shadowkit.systems import (
    make_system, make_linear_example_seq, linear_example_cert,
    make_sin_wobble, conjugate,
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
    rep = verify_cocycle_cl(sys, sys.dforward_rows, sys.cert,
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


def _verify_diffeo(sys, pts, horizon):
    return verify_cl_diffeo(sys, sys.cert, pts, horizon=horizon)


def _verify_cocycle(sys, pts, horizon):
    # the cocycle of the map's own differential, A = Df
    return verify_cocycle_cl(sys, sys.dforward_rows, sys.cert, pts,
                             horizon=horizon)


# row-map calls per lockstep step: the splitting verifier walks forward
# with f and Df and backward with the inverse and its differential from
# one solve; the cocycle verifier walks with f and f^-1 and evaluates
# A = Df once on each of its two walks
_PER_STEP = {
    _verify_diffeo: {"forward_rows": 1, "inverse_rows": 0,
                     "dforward_rows": 1, "inverse_diff_rows": 1},
    _verify_cocycle: {"forward_rows": 1, "inverse_rows": 1,
                      "dforward_rows": 2, "inverse_diff_rows": 0},
}


@pytest.mark.parametrize("verify, horizon", [
    *(pytest.param(_verify_diffeo, h, id=str(h)) for h in (0, 1, 6)),
    *(pytest.param(_verify_cocycle, h, id=f"cocycle-{h}") for h in (0, 1, 6)),
])
def test_diffeo_verifier_evaluates_each_map_once_per_orbit_step(verify,
                                                                 horizon):
    # all samples step in lockstep: each map is called at most once per
    # step, on every live sample at once, and each (sample, step) row is
    # evaluated once -- the residuals read the first step of each walk
    base = make_system("ms_product", W)
    calls = dict.fromkeys(_PER_STEP[verify], 0)
    rows = dict.fromkeys(_PER_STEP[verify], 0)

    def counted(name):
        fn = getattr(base, name)

        def wrapper(xs):
            calls[name] += 1
            rows[name] += len(xs)
            return fn(xs)
        return wrapper

    sys = dataclasses.replace(base, **{m: counted(m) for m in calls})
    pts = interior_points(2, seed=4)
    rep = verify(sys, pts, horizon)
    steps = max(horizon, 1)
    assert calls == {m: n * steps for m, n in _PER_STEP[verify].items()}
    assert rows == {m: n * steps * len(pts)
                    for m, n in _PER_STEP[verify].items()}
    assert rep.to_json() == verify(base, pts, horizon).to_json()
    if horizon == 0:
        # empty walks: nothing is scanned for decay
        assert rep.worst_decay_ratio == 0.0
        assert not any(k.startswith("decay") for k in rep.witnesses)


def _point_walk(op_at, step, x, steps):
    # reference: one orbit walked point by point, stopping before the step
    # whose evaluation trips the window guard
    ops, y = [], x
    for _ in range(steps):
        try:
            A = op_at(y)
            y = step(y)
        except TruncationError:
            break
        ops.append(A)
    return ops


def _shared_loop(cert, points, pairs, walked):
    # the verifiers' shared loop on the pairs read point by point, where
    # walked[i] holds point i's residual and its forward/backward operators
    P, Q = (stack_ops([getattr(pr, side) for pr in pairs]) for side in "PQ")
    return clstruct._verify(cert, "point", range(len(points)), P, Q,
                            [res for res, _, _ in walked],
                            lambda i: walked[i][1:], points[0].window,
                            points[0].p, clstruct.N_DIRS)


def _verify_point_by_point(sys, cert, points, horizon, lengths):
    # reference: the splitting verifier with each sample's orbits walked
    # alone, point by point; ``lengths`` collects the walks' lengths
    def local(x, pair):
        fx, bx = sys.forward(x), sys.inverse(x)
        dfx, dbx = sys.dforward(x), sys.dinverse(x)
        res_s = op_norm(compose(cert.proj_at(fx).Q, compose(dfx, pair.P)), x.p)
        res_u = op_norm(compose(cert.proj_at(bx).P, compose(dbx, pair.Q)), x.p)
        fwd = [dfx] + _point_walk(sys.dforward, sys.forward, fx, horizon - 1)
        bwd = [dbx] + _point_walk(sys.dinverse, sys.inverse, bx, horizon - 1)
        lengths.append((len(fwd), len(bwd)))
        return max(res_s, res_u), fwd[:horizon], bwd[:horizon]

    pairs = [cert.proj_at(x) for x in points]
    rep = _shared_loop(cert, points, pairs,
                       [local(x, pair) for x, pair in zip(points, pairs)])
    rep.proj_lipschitz = clstruct._proj_lipschitz(
        [(x, pair.P) for x, pair in zip(points, pairs)], points[0].p)
    return rep


def _cocycle_point_by_point(sys, A, cert, points, horizon, lengths):
    # reference: the cocycle verifier with each sample's orbits walked
    # alone, point by point, and A read on one row at a time
    def A_at(x):
        return A(x.coeffs)

    def local(x, pair):
        ax, bx = sys.forward(x), sys.inverse(x)
        a_x, b_x = A_at(x), A_at(bx).inverse()
        res_s = op_norm(compose(cert.proj_at(ax).Q, compose(a_x, pair.P)), x.p)
        res_u = op_norm(compose(cert.proj_at(bx).P, compose(b_x, pair.Q)), x.p)
        fwd = [a_x] + _point_walk(A_at, sys.forward, ax, horizon - 1)
        bwd = [b_x] + [A.inverse() for A in _point_walk(
            lambda y: A_at(sys.inverse(y)), sys.inverse, bx, horizon - 1)]
        lengths.append((len(fwd), len(bwd)))
        return max(res_s, res_u), fwd[:horizon], bwd[:horizon]

    pairs = [cert.proj_at(x) for x in points]
    return _shared_loop(cert, points, pairs,
                        [local(x, pair) for x, pair in zip(points, pairs)])


def _edge_points():
    # supports a few coordinates in from either edge of the window, so that
    # the samples' walks retire at different forward and backward steps,
    # and interior ones that never retire
    pts = []
    for where in ([W.hi - 6, W.hi - 5], [W.hi - 3], [W.lo + 2, W.lo + 3],
                  [W.lo + 5], [W.lo + 2, W.hi - 4], [-2, 0, 3]):
        c = np.zeros(W.length)
        c[[W.offset(k) for k in where]] = 0.3
        pts.append(SeqVec(W, c, 2.0))
    return pts


@pytest.mark.parametrize("conjugated", [False, True],
                         ids=["weighted_shift_tanh", "conjugated"])
def test_lockstep_verifiers_match_the_point_by_point_walks(conjugated):
    # a rate below the map's contraction makes the decay ratios grow with
    # n, so each sample's witnesses record the length of its own walks
    base = make_system("weighted_shift_tanh", W)
    pair = base.cert.pair
    sys = base.with_cert(constant_cert(1.0, 0.3, base.cert.R, pair.P, pair.Q))
    if conjugated:
        sys = conjugate(sys, make_sin_wobble(W))
    pts = _edge_points()
    lengths = []
    want = _verify_point_by_point(sys, sys.cert, pts, 12, lengths)
    got = verify_cl_diffeo(sys, sys.cert, pts, horizon=12)
    assert got.to_json() == want.to_json()
    # the walks retire at several different steps, each way
    assert len({f for f, _ in lengths}) >= 3
    assert len({b for _, b in lengths}) >= 3
    lengths = []
    want = _cocycle_point_by_point(sys, sys.dforward_rows, sys.cert, pts, 12,
                                   lengths)
    got = verify_cocycle_cl(sys, sys.dforward_rows, sys.cert, pts, horizon=12)
    assert got.to_json() == want.to_json()
    assert len({f for f, _ in lengths}) >= 3
    assert len({b for _, b in lengths}) >= 3


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


def _assert_same_directions(got, want, w):
    assert got.shape == (len(want), w.length)
    assert [r.tobytes() for r in got] == [v.coeffs.tobytes() for v in want]


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
            _assert_same_directions(got, want, w)
            assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_dense_and_shifted_directions_match_basis_vector_loop(p):
    rng = np.random.default_rng(6)
    for trial in range(30):
        w = Window(-int(rng.integers(0, 6)), int(rng.integers(0, 6)))
        n = w.length
        # a dense oblique projection, a general dense map, one whose images
        # fall between the two norm floors, a shift whose edge scalars stay
        # below the guard, and one whose edge trips it
        V = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        keep = np.diag((rng.random(n) < 0.5).astype(float))
        edge = rng.uniform(-1.0, 1.0, n)
        sides = [dense(V @ keep @ np.linalg.inv(V), w),
                 dense(rng.standard_normal((n, n)), w),
                 dense(1e-13 * np.eye(n), w),
                 shift_diag(w, np.where(rng.random(n) < 0.3, 0.0, edge), 1),
                 shift_diag(w, edge, -int(rng.integers(1, 3)))]
        sides[3].scalars[-1] = 1e-16
        for side in sides:
            seed = int(rng.integers(2 ** 31))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = _directions_by_basis(side, w, p, 4, rng_b)
            except TruncationError:
                with pytest.raises(TruncationError):
                    _directions(side, w, p, 4, rng_a)
                continue
            _assert_same_directions(_directions(side, w, p, 4, rng_a), want, w)
            assert rng_a.random() == rng_b.random()


def _decay_scan_by_direction(dirs, ops, C, lam, p, witnesses, label):
    # reference: one direction at a time through op_apply, stopping at the
    # direction's first trip; a strictly larger ratio replaces the witness
    worst = 0.0
    for i, x in enumerate(dirs):
        u = SeqVec(Window(0, len(x) - 1), x, p)
        for n, A in enumerate(ops, start=1):
            try:
                u = op_apply(A, u)
            except TruncationError:
                break
            ratio = norm(u) / (C * lam ** n)
            if ratio > worst:
                worst = ratio
                witnesses[label] = {"direction": i, "n": n, "ratio": ratio}
    return worst


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_decay_scan_matches_direction_by_direction_loop(p):
    # shifts that trip mid-scan, dense operators, diagonals and mixed lists
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(1, 10))
        w = Window(0, n - 1)
        kinds = [("shift", "dense", "diag")[int(rng.integers(0, 3))]
                 for _ in range(int(rng.integers(0, 9)))]
        if trial % 4 == 0:
            kinds = ["shift"] * len(kinds)
        ops = []
        for kind in kinds:
            if kind == "dense":
                ops.append(dense(rng.uniform(-1.2, 1.2, (n, n)), w))
            else:
                s = int(rng.integers(-2, 3)) if kind == "shift" else 0
                ops.append(shift_diag(w, rng.uniform(-1.5, 1.5, n), s))
        dirs = rng.standard_normal((int(rng.integers(0, 8)), n))
        dirs[::2, :n // 2] = 0.0
        dirs[dirs.any(axis=1)] /= np.linalg.norm(dirs[dirs.any(axis=1)],
                                                 axis=1)[:, None]
        C, lam = float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.3, 0.9))
        got, want = {"before": 1}, {"before": 1}
        worst = _decay_scan(dirs, ops, C, lam, p, got, "decay")
        assert worst == _decay_scan_by_direction(dirs, ops, C, lam, p, want,
                                                 "decay")
        assert type(worst) is float
        assert got == want and list(got) == list(want)
        assert json.dumps(got) == json.dumps(want)


def test_operator_sequence_inverts_each_operator_once(monkeypatch):
    # the sequence is inverted once, as its whole stack, however many
    # verifications and samples read the inverses; a list that mixes
    # kinds is inverted operator by operator, each operator once
    calls = []
    real = LinOp.inverse

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LinOp, "inverse", counted)
    w = Window(-6, 6)
    seq = make_linear_example_seq(w, range(-5, 6))
    for _ in range(2):
        rep = verify_cl_opseq(seq, linear_example_cert(w), horizon=4, n_dirs=2)
        assert rep.passed
    assert calls == [seq.stack]
    periodic = OperatorSeq(0, seq.ops[:3], period=3)
    calls.clear()
    verify_cl_opseq(periodic, linear_example_cert(w), horizon=7, n_dirs=2)
    assert calls == [periodic.stack]
    mixed = OperatorSeq(0, [seq.ops[0], shift_diag(w, np.full(13, 2.0), 1),
                            dense(2.0 * np.eye(13), w)])
    calls.clear()
    assert mixed.inverse is mixed.inverse
    assert [id(A) for A in calls] == [id(A) for A in mixed.ops]


def _same_op(A, B):
    return (A.shift, A.data.shape, A.data.tobytes()) == (
        B.shift, B.data.shape, B.data.tobytes())


@pytest.mark.parametrize("kind", ["along", "along-periodic", "constant",
                                  "per-index", "held-stacks"])
def test_certificate_read_serves_the_pairs_of_proj_at(kind):
    # a read over an interval of times gives two stacks whose views are the
    # pairs proj_at serves at every time: read along a Segment of points
    # (wrapping with a periodic one), from a constant certificate, one
    # proj_at per time, or from the stacks an index-keyed one holds
    rng = np.random.default_rng(7)
    w = W if kind.startswith("along") else Window(-6, 6)
    if kind.startswith("along"):
        base = make_system("weighted_shift_linear", w)
        point_cert = conjugate(base, make_sin_wobble(w)).cert
        period = 4 if kind == "along-periodic" else None
        seg = Segment(3, 0.2 * rng.standard_normal((4 if period else 6,
                                                    w.length)),
                      w, 2.0, period)
        cert = point_cert.along(seg)
        lo, count = (1, 11) if period else (3, 6)

        def want(k):
            return point_cert.proj_at(seg[k])
    else:
        if kind == "constant":
            cert = make_system("weighted_shift_linear", w).cert
        elif kind == "per-index":
            cert = linear_example_cert(w)
        else:
            cert = random_hyperbolic_instance(4, 8, rng)[1]
        lo, count = (0, 9) if kind == "held-stacks" else (-4, 9)
        want = cert.proj_at
    P, Q = cert.read(lo, count)
    assert P.count == Q.count == count
    for k in range(lo, lo + count):
        for got, side in ((P.op_at(k), "P"), (Q.op_at(k), "Q")):
            assert _same_op(got, getattr(want(k), side))
            assert _same_op(got, getattr(cert.proj_at(k), side))
