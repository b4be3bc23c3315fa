import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowkit.seqcore import (
    Window, SeqVec, OperatorSeq, LinOp, diag, dense, norm, op_apply,
    shift_diag, sub, PreconditionError,
)
from shadowkit.clstruct import CLCertificate, ProjPair, constant_cert
from shadowkit.boundedsol import (
    InhomProblem, perron_constant, perron_solve, periodic_green_solve,
    neumann_perturbed_solve, banded_direct_solve, random_hyperbolic_instance,
    perron_sums, _solution,
)

W2 = Window(0, 1)
A2 = diag(W2, np.array([0.5, 2.0]))
CERT2 = constant_cert(1.0, 0.5, 2.0,
                      diag(W2, np.array([1.0, 0.0])),
                      diag(W2, np.array([0.0, 1.0])))


def const_problem(length, w_fn, lo=0):
    seq = OperatorSeq(lo, [A2 for _ in range(length)])
    w = {k: w_fn(k) for k in range(lo + 1, lo + length + 1)}
    return InhomProblem(seq, w)


def test_perron_constant_value():
    assert perron_constant(1.0, 0.5) == 3.0


def test_zero_forcing_gives_zero():
    prob = const_problem(6, lambda k: SeqVec.zero(W2))
    sol = perron_solve(prob, CERT2)
    assert sol.sup_norm == 0.0 and sol.max_residual == 0.0


def test_hand_geometric_series():
    # stable forcing e_0 at every step: v_k = (2 - 2^{1-k}) e_0, and the
    # direct oracle must reproduce the same closed form
    prob = const_problem(6, lambda k: SeqVec.basis(W2, 0))
    for sol, tol in ((perron_solve(prob, CERT2), 0.0),
                     (banded_direct_solve(prob, CERT2), 1e-12)):
        assert abs(sol.v[0][0]) <= tol
        for k in range(1, 7):
            assert abs(sol.v[k][0] - (2.0 - 2.0 ** (1 - k))) <= tol
            assert abs(sol.v[k][1]) <= tol


def test_unstable_forcing_solved_backward():
    # forcing on the expanding coordinate is absorbed anticausally and
    # stays bounded: v_k[1] = -sum_{i>k} 2^{k-i} = -(strictly below 1)
    prob = const_problem(8, lambda k: SeqVec.basis(W2, 1))
    sol = perron_solve(prob, CERT2)
    assert sol.sup_norm <= 1.0 + 1e-12
    assert abs(sol.v[0][1] + (1.0 - 2.0 ** -8)) <= 1e-14


def test_sup_norm_bound_random_forcing():
    rng = np.random.default_rng(0)
    L = perron_constant(CERT2.C, CERT2.lam)
    for _ in range(25):
        raw = rng.standard_normal((10, 2))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1.0)
        prob = const_problem(10, lambda k: SeqVec(W2, raw[k - 1]))
        sol = perron_solve(prob, CERT2)
        assert sol.sup_norm <= L * prob.w_bound + 1e-12
        assert sol.max_residual <= 1e-10 * (1.0 + sol.sup_norm)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_perron_solve_is_linear(seed):
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((5, 2))
    w2 = rng.standard_normal((5, 2))
    p1 = const_problem(5, lambda k: SeqVec(W2, w1[k - 1]))
    p2 = const_problem(5, lambda k: SeqVec(W2, w2[k - 1]))
    p12 = const_problem(5, lambda k: SeqVec(W2, w1[k - 1] + w2[k - 1]))
    s1, s2, s12 = (perron_solve(p, CERT2) for p in (p1, p2, p12))
    for k in range(6):
        gap = s12.v[k].coeffs - s1.v[k].coeffs - s2.v[k].coeffs
        assert np.max(np.abs(gap)) <= 1e-10


def test_certificate_verification_gate():
    prob = const_problem(4, lambda k: SeqVec.basis(W2, 0))
    swapped = constant_cert(1.0, 0.5, 2.0, CERT2.proj_at(0).Q, CERT2.proj_at(0).P)
    with pytest.raises(PreconditionError):
        perron_solve(prob, swapped, verify_cert=True)
    sol = perron_solve(prob, CERT2, verify_cert=True)
    assert sol.max_residual == 0.0


def test_oracle_agreement_small_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(8):
        prob, cert = random_hyperbolic_instance(4, 12, rng)
        sp = perron_solve(prob, cert)
        sb = banded_direct_solve(prob, cert)
        for k in sp.v:
            gap = np.max(np.abs(sp.v[k].coeffs - sb.v[k].coeffs))
            assert gap <= 1e-9
        assert sp.sup_norm <= perron_constant(cert.C, cert.lam) * prob.w_bound + 1e-9


def test_oracle_agreement_long_windows_stay_tight():
    # long expansive instances are the regression case for the sweep's
    # per-step re-projection: without it, round-off seeds the opposite
    # invariant space and the recursion amplifies the seed exponentially,
    # driving the two solvers ~1e-7 apart by length 20
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        length = int(rng.integers(6, 21))
        prob, cert = random_hyperbolic_instance(dim, length, rng)
        sp = perron_solve(prob, cert)
        sb = banded_direct_solve(prob, cert)
        for k in sp.v:
            gap = np.max(np.abs(sp.v[k].coeffs - sb.v[k].coeffs))
            assert gap <= 1e-12


def weighted_shift_instance(seed, length, half=10):
    """Weighted shifts expanding below index 0 and contracting from 0 on,
    with the constant splitting "support on k >= 0" and forcing on
    [-half, half]; content moves one coordinate per step, so the window
    is wide enough that none of it reaches an edge."""
    rng = np.random.default_rng(seed)
    win = Window(-half - length, half + length)
    ks = np.arange(win.lo, win.hi + 1)
    ops = [shift_diag(win, np.where(ks < 0, rng.uniform(2.0, 3.0, ks.size),
                                    rng.uniform(0.25, 0.5, ks.size)))
           for _ in range(length)]
    w = {}
    for k in range(1, length + 1):
        c = np.zeros(win.length)
        c[win.offset(-half):win.offset(half) + 1] = rng.uniform(-1.0, 1.0, 2 * half + 1)
        w[k] = SeqVec(win, c)
    stable = (ks >= 0).astype(float)
    cert = constant_cert(1.0, 0.5, 3.0, diag(win, stable), diag(win, 1.0 - stable))
    return InhomProblem(OperatorSeq(0, ops), w), cert


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
def test_oracle_on_weighted_shift_sequences(seed, length):
    prob, cert = weighted_shift_instance(seed, length)
    sp = perron_solve(prob, cert)
    sb = banded_direct_solve(prob, cert)
    a, b = prob.seq.lo, prob.seq.hi
    P = cert.proj_at(a).P.to_dense_matrix()
    Q = cert.proj_at(a).Q.to_dense_matrix()
    As = [prob.seq.op_at(k).to_dense_matrix() for k in range(a, b)]
    scale = 1.0 + sp.sup_norm
    assert sp.max_residual <= 1e-12 * scale
    assert sp.sup_norm <= perron_constant(cert.C, cert.lam) * prob.w_bound * (1 + 1e-12)
    # the Perron solution meets the oracle's boundary rows exactly, so the
    # two solutions differ by a homogeneous solution of the same problem
    assert not np.any(P @ sp.v[a].coeffs) and not np.any(Q @ sp.v[b].coeffs)
    gap = {k: sp.v[k].coeffs - sb.v[k].coeffs for k in sp.v}
    for k in range(a, b):
        assert np.max(np.abs(gap[k + 1] - As[k - a] @ gap[k])) <= 1e-10 * scale
    assert np.max(np.abs(P @ gap[a])) <= 1e-10 * scale
    assert np.max(np.abs(Q @ gap[b])) <= 1e-10 * scale
    # the splitting is an inclusion only (A_k carries coordinate -1 into the
    # stable side), so that problem keeps homogeneous solutions and the
    # oracle returns its least-norm one; the Perron solution is singled out
    # by an unstable part that never leaks into the stable side
    stacked = [np.concatenate([sol.v[k].coeffs for k in range(a, b + 1)])
               for sol in (sp, sb)]
    assert np.linalg.norm(stacked[1]) <= np.linalg.norm(stacked[0]) * (1 + 1e-9)
    for k in range(a, b):
        assert not np.any(P @ As[k - a] @ Q @ sp.v[k].coeffs)


def test_nested_interval_restriction_keeps_bound():
    rng = np.random.default_rng(3)
    L = perron_constant(CERT2.C, CERT2.lam)
    raw = rng.standard_normal((16, 2))
    raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1.0)
    big = const_problem(16, lambda k: SeqVec(W2, raw[k - 1]))
    sol = perron_solve(big, CERT2)
    inner = [norm(sol.v[k]) for k in range(4, 13)]
    assert max(inner) <= L * big.w_bound + 1e-12


def test_periodic_green_m1_fixed_point():
    # m = 1: v = A v + w, so v = (I - A)^{-1} w = diag(2, -1) w
    w0 = SeqVec(W2, np.array([0.3, -0.7]))
    seq = OperatorSeq(0, [A2], period=1)
    sol = periodic_green_solve(InhomProblem(seq, {1: w0}), CERT2)
    assert sol.period == 1
    expect = np.array([2.0 * 0.3, -1.0 * -0.7])
    assert np.max(np.abs(sol.v[0].coeffs - expect)) <= 1e-11
    assert np.max(np.abs(sol.v[5].coeffs - expect)) <= 1e-11
    assert sol.max_residual <= 1e-10 * (1.0 + sol.sup_norm)


def test_periodic_green_zero_forcing():
    seq = OperatorSeq(0, [A2, A2, A2], period=3)
    sol = periodic_green_solve(
        InhomProblem(seq, {k: SeqVec.zero(W2) for k in (1, 2, 3)}), CERT2)
    assert sol.sup_norm == 0.0


def test_periodic_green_matches_long_interval_middle():
    # dual route: the periodic solution must agree with the middle period
    # of a plain interval solve long enough that edge effects decay away
    rng = np.random.default_rng(11)
    m = 3
    scales = [np.array([0.5, 2.0]), np.array([0.4, 2.5]), np.array([0.45, 2.2])]
    ws = [SeqVec(W2, rng.uniform(-1, 1, 2)) for _ in range(m)]
    seq_p = OperatorSeq(0, [diag(W2, s) for s in scales], period=m)
    sol_p = periodic_green_solve(
        InhomProblem(seq_p, {k + 1: ws[k] for k in range(m)}), CERT2)

    reps = 40
    seq_l = OperatorSeq(0, [diag(W2, scales[k % m]) for k in range(m * reps)])
    w_l = {k: ws[(k - 1) % m] for k in range(1, m * reps + 1)}
    sol_l = perron_solve(InhomProblem(seq_l, w_l), CERT2)
    mid = m * (reps // 2)
    for j in range(m):
        gap = sol_p.v[mid + j].coeffs - sol_l.v[mid + j].coeffs
        assert np.max(np.abs(gap)) <= 1e-10
    assert sol_p.sup_norm <= perron_constant(1.0, 0.5) * sol_p.meta.get(
        "tail_depth", 0) * 0 + 3.0 * max(norm(w) for w in ws) + 1e-10


def test_periodic_green_builds_each_pair_once():
    # a period-3 sequence whose pairs differ from index to index (they need
    # not be invariant: the test is about which pair is read where)
    W3 = Window(0, 2)
    m, lo = 3, 2
    scales = [np.array([0.5, 2.0, 0.4]), np.array([2.2, 0.45, 0.5]),
              np.array([0.3, 0.5, 2.5])]
    masks = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]),
             np.array([1.0, 1.0, 0.0])]
    seq = OperatorSeq(lo, [diag(W3, c) for c in scales], period=m)
    rng = np.random.default_rng(4)
    prob = InhomProblem(seq, {lo + 1 + k: SeqVec(W3, rng.uniform(-1, 1, 3))
                              for k in range(m)})
    calls = []

    def proj_at(k):
        calls.append(k)
        mask = masks[(k - lo) % m]
        return ProjPair(diag(W3, mask), diag(W3, 1.0 - mask))

    cert = CLCertificate(1.0, 0.5, 2.5, proj_at)
    sol = periodic_green_solve(prob, cert)
    assert len(calls) == m
    # reference: the pair of every time point of every segment, built anew
    T = sol.meta["tail_depth"]
    inv = [A.inverse() for A in seq.ops]
    for k in range(lo, lo + m):
        times = range(k - T, k + T + 1)
        steps = [(i - lo) % m for i in times[:-1]]
        row = perron_sums([seq.ops[i] for i in steps], [inv[i] for i in steps],
                          [proj_at(i) for i in times],
                          [prob.w[i].coeffs for i in times], range(T, T + 1))
        assert sol.v[k].coeffs.tobytes() == row[0].tobytes()


def test_periodic_green_rejects_aperiodic():
    prob = const_problem(4, lambda k: SeqVec.basis(W2, 0))
    with pytest.raises(PreconditionError):
        periodic_green_solve(prob, CERT2)


def test_neumann_zero_perturbation_is_identity():
    prob = const_problem(6, lambda k: SeqVec.basis(W2, 0))
    direct = perron_solve(prob, CERT2)
    pert = neumann_perturbed_solve(prob, prob.seq, CERT2, eps=1e-3)
    for k in direct.v:
        assert np.array_equal(direct.v[k].coeffs, pert.v[k].coeffs)
    assert pert.meta["iterations"] == 1


def _neumann_rate_case():
    # A2 perturbed densely by eps = 1/(4L) at each of 10 steps
    rng = np.random.default_rng(5)
    eps = 0.25 / perron_constant(1.0, 0.5)
    length = 10
    base = OperatorSeq(0, [A2 for _ in range(length)])
    ops = []
    for k in range(length):
        d = rng.standard_normal((2, 2))
        d *= eps / np.linalg.norm(d, 2)
        ops.append(dense(A2.to_dense_matrix() + d, W2))
    w = {k: SeqVec(W2, rng.uniform(-1, 1, 2)) for k in range(1, length + 1)}
    return InhomProblem(OperatorSeq(0, ops), w), base, eps


def test_neumann_geometric_contraction_rate():
    # eps = 1/(4L) forces successive iterate differences to shrink by at
    # least L*eps = 1/4 while above the floating noise floor
    L = perron_constant(1.0, 0.5)
    prob_b, base, eps = _neumann_rate_case()
    sol = neumann_perturbed_solve(prob_b, base, CERT2, eps=eps * (1 + 1e-12))
    diffs = sol.meta["diff_norms"]
    for d0, d1 in zip(diffs, diffs[1:]):
        if d0 > 1e-12:
            assert d1 <= d0 * (0.25 + 1e-6)
    assert sol.max_residual <= 1e-10 * (1.0 + sol.sup_norm)
    assert sol.sup_norm <= 2.0 * L * prob_b.w_bound + 1e-9

    sb = banded_direct_solve(prob_b, CERT2)
    for k in sol.v:
        assert np.max(np.abs(sol.v[k].coeffs - sb.v[k].coeffs)) <= 1e-8


def _neumann_by_repeated_perron_solve(prob_b, base_seq, cert):
    # the loop the solver ran before: one perron_solve per iteration, each
    # inverting every step and reading every projection pair again
    a, b = base_seq.lo, base_seq.hi
    deltas = {k: sub(prob_b.seq.op_at(k), base_seq.op_at(k))
              for k in range(a, b)}
    v = perron_solve(InhomProblem(base_seq, prob_b.w, prob_b.w_bound), cert).v
    for _ in range(200):
        forced = dict(prob_b.w)
        for k in range(a + 1, b + 1):
            dv = op_apply(deltas[k - 1], v[k - 1], check_loss=False)
            forced[k] = prob_b.w[k].with_coeffs(prob_b.w[k].coeffs
                                                + dv.coeffs)
        vn = perron_solve(InhomProblem(base_seq, forced), cert).v
        diff = max(norm(vn[k].with_coeffs(vn[k].coeffs - v[k].coeffs))
                   for k in vn)
        v = vn
        if diff <= 1e-13 * (1.0 + max(norm(x) for x in v.values())):
            return np.array([v[k].coeffs for k in range(a, b + 1)])
    raise AssertionError("reference loop did not converge")


def test_neumann_inverts_once_and_matches_repeated_perron_solves(monkeypatch):
    # the base steps are inverted once and the pairs read once (11 time
    # points), where a perron_solve per iteration did it 12 times over
    prob_b, base, eps = _neumann_rate_case()
    want = _neumann_by_repeated_perron_solve(prob_b, base, CERT2)
    inversions, reads = [], []
    real_inverse = LinOp.inverse

    def counted_inverse(stack):
        inversions.append(stack)
        return real_inverse(stack)

    def counted_proj_at(k):
        reads.append(k)
        return CERT2.proj_at(k)

    monkeypatch.setattr(LinOp, "inverse", counted_inverse)
    cert = CLCertificate(CERT2.C, CERT2.lam, CERT2.R, counted_proj_at)
    sol = neumann_perturbed_solve(prob_b, base, cert, eps=eps * (1 + 1e-12))
    assert len(inversions) == 1
    assert reads == list(range(11))
    got = np.array([sol.v[k].coeffs for k in range(11)])
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_neumann_rejects_oversized_eps():
    prob = const_problem(4, lambda k: SeqVec.basis(W2, 0))
    L = perron_constant(1.0, 0.5)
    with pytest.raises(PreconditionError):
        neumann_perturbed_solve(prob, prob.seq, CERT2, eps=0.5 / L)


def test_neumann_rejects_undeclared_perturbation():
    length = 4
    base = OperatorSeq(0, [A2 for _ in range(length)])
    ops = [dense(A2.to_dense_matrix() + 0.01 * np.eye(2), W2)
           for _ in range(length)]
    prob_b = InhomProblem(OperatorSeq(0, ops),
                          {k: SeqVec.basis(W2, 0) for k in range(1, length + 1)})
    with pytest.raises(PreconditionError):
        neumann_perturbed_solve(prob_b, base, CERT2, eps=1e-4)


def test_banded_size_cap():
    prob = const_problem(4, lambda k: SeqVec.basis(W2, 0))
    with pytest.raises(PreconditionError):
        banded_direct_solve(prob, CERT2, max_unknowns=4)


def test_forcing_is_packed_once_with_zero_fill_and_wrap():
    a, b, c = (SeqVec(W2, [x, -x]) for x in (1.0, 2.0, 3.0))
    prob = InhomProblem(OperatorSeq(0, [A2] * 4), {1: a, 3: b})
    assert (prob.w.lo, len(prob.w), prob.w.period) == (0, 5, None)
    want = [[0, 0], a.coeffs, [0, 0], b.coeffs, [0, 0]]
    assert np.array_equal(prob.w.rows, want)
    assert prob.w_bound == norm(b)
    for k in (-1, 5):
        with pytest.raises(PreconditionError):
            InhomProblem(OperatorSeq(0, [A2] * 4), {k: a})
    # a periodic forcing holds one period; keys wrap, the lowest key of a
    # class wins over its copies, and absent classes are zero
    seq = OperatorSeq(0, [A2] * 3, period=3)
    prob = InhomProblem(seq, {1: a, 4: b, 5: c})
    assert (prob.w.lo, len(prob.w), prob.w.period) == (0, 3, 3)
    assert np.array_equal(prob.w.rows, [[0, 0], a.coeffs, c.coeffs])
    assert prob.w[7].coeffs.tobytes() == a.coeffs.tobytes()
    assert prob.w_bound == norm(c)
    with pytest.raises(PreconditionError):
        InhomProblem(seq, {1: a, 2: SeqVec(W2, [0.0, 1.0], math.inf)})


def test_window_mismatch_rejected():
    other = Window(0, 2)
    seq = OperatorSeq(0, [A2, A2])
    with pytest.raises(PreconditionError):
        InhomProblem(seq, {1: SeqVec.zero(other)})


def test_linear_no_ed_sequence_bound():
    # this sequence has inclusion-only invariance, so bounded solutions are
    # NOT unique and the banded oracle's minimum-norm pick differs from the
    # distinguished one; the right oracle is brute-force summation of the
    # two-sided series with materialized cocycle products
    from shadowkit.seqcore import cocycle, op_apply
    from shadowkit.systems import make_linear_example_seq, linear_example_cert
    win = Window(-12, 12)
    seq = make_linear_example_seq(win, range(-8, 9))
    cert = linear_example_cert(win)
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((16, win.length))
    w = {k: SeqVec(win, raw[k + 7] / np.linalg.norm(raw[k + 7]))
         for k in range(-7, 9)}
    prob = InhomProblem(seq, w)
    sol = perron_solve(prob, cert)
    assert sol.sup_norm <= 3.0 + 1e-9
    assert sol.max_residual <= 1e-10 * (1.0 + sol.sup_norm)
    for k in range(-8, 9):
        acc = np.zeros(win.length)
        for i in range(-8, k + 1):
            term = op_apply(cocycle(seq, k, i), op_apply(cert.proj_at(i).P, prob.w[i]))
            acc += term.coeffs
        for i in range(k + 1, 9):
            term = op_apply(cocycle(seq, k, i), op_apply(cert.proj_at(i).Q, prob.w[i]))
            acc -= term.coeffs
        assert np.max(np.abs(sol.v[k].coeffs - acc)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6),
       st.sampled_from(["dense", "diag", "shift", "mixed"]), st.booleans(),
       st.sampled_from([1.0, 2.0, math.inf]))
def test_solution_recheck_matches_the_step_loop(seed, length, kind, periodic,
                                                p):
    rng = np.random.default_rng(seed)
    win = Window(-3, 3)
    n = win.length

    def op(s):
        if s is None:
            return dense(rng.standard_normal((n, n)), win)
        return shift_diag(win, rng.uniform(-2.0, 2.0, n), s)

    shifts = {"dense": [None], "diag": [0], "shift": [1],
              "mixed": [None, 0, -1, 2]}[kind]
    ops = [op(shifts[int(rng.integers(len(shifts)))]) for _ in range(length)]
    lo = int(rng.integers(-4, 4))
    seq = OperatorSeq(lo, ops, period=length if periodic else None)
    keys = range(lo + 1, lo + length + 1)
    w = {k: SeqVec(win, rng.standard_normal(n), p) for k in keys}
    prob = InhomProblem(seq, w)
    rows = rng.standard_normal((length if periodic else length + 1, n))
    sol = _solution(prob, rows, period=seq.period)
    # reference: one op_apply and one norm per step, wrapping for a period
    v = {lo + i: SeqVec(win, r, p) for i, r in enumerate(rows)}
    res = 0.0
    for k in range(lo, lo + length):
        nxt = v[lo + (k + 1 - lo) % len(v)]
        defect = nxt.coeffs - op_apply(seq.op_at(k), v[k],
                                       check_loss=False).coeffs \
            - prob.w[k + 1].coeffs
        res = max(res, norm(v[k].with_coeffs(defect)))
    assert sol.max_residual == res
    assert sol.sup_norm == max(norm(x) for x in v.values())
    assert sorted(sol.v) == sorted(v)
    assert all(sol.v[k].coeffs.tobytes() == v[k].coeffs.tobytes() for k in v)


def _per_point_periodic_rows(prob, cert, T):
    # the per-point loop the lockstep solve replaced: each point of the
    # period summed on its own 2T-step segment, one perron_sums call each
    lo, m = prob.seq.lo, prob.seq.period
    ops = prob.seq.ops
    inv_ops = [A.inverse() for A in ops]
    pairs = [cert.proj_at(k) for k in range(lo, lo + m)]
    rows = []
    for k in range(lo, lo + m):
        times = range(k - T, k + T + 1)
        steps = [(i - lo) % m for i in times]
        rows.append(perron_sums([ops[i] for i in steps[:-1]],
                                [inv_ops[i] for i in steps[:-1]],
                                [pairs[i] for i in steps],
                                [prob.w[i].coeffs for i in times],
                                range(T, T + 1))[0])
    return np.array(rows)


@pytest.mark.parametrize("kind", ["shift", "shift-2", "dense", "mixed"])
@pytest.mark.parametrize("m, lam", [(1, 0.5), (2, 0.05), (5, 0.5), (25, 0.05)])
@pytest.mark.parametrize("seed", [0, 1])
def test_lockstep_periodic_solve_matches_the_per_point_loop(kind, m, lam,
                                                           seed):
    rng = np.random.default_rng(seed + 100 * m)
    win = Window(-3, 3)
    n = win.length

    def op(s):
        if s is None:
            return dense(rng.standard_normal((n, n)) + 3.0 * np.eye(n), win)
        return shift_diag(win, rng.uniform(0.3, 2.0, n)
                          * rng.choice([-1.0, 1.0], n), s)

    def pair():
        mask = rng.choice([0.0, 1.0], n)
        if kind in ("shift", "shift-2"):
            return ProjPair(diag(win, mask), diag(win, 1.0 - mask))
        U = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        P = U @ np.diag(mask) @ np.linalg.inv(U)
        return ProjPair(dense(P, win), dense(np.eye(n) - P, win))

    shifts = {"shift": [1], "shift-2": [-2], "dense": [None],
              "mixed": [None, 0, -1, 2]}[kind]
    ops = [op(shifts[j % len(shifts)]) for j in range(m)]
    lo = int(rng.integers(-4, 4))
    pairs = [pair() for _ in range(m)]
    cert = CLCertificate(1.0, lam, 3.0, lambda k: pairs[(k - lo) % m])
    # forcing on only some keys, one of them past the period, so that
    # the packed forcing zero-fills the others and wraps the far one
    keys = [k for k in range(lo + 1, lo + m + 1) if rng.random() < 0.6]
    if m > 1:
        keys.append(lo + m + 1)
    w = {k: SeqVec(win, rng.standard_normal(n) / n) for k in keys}
    prob = InhomProblem(OperatorSeq(lo, ops, period=m), w)
    sol = periodic_green_solve(prob, cert)
    T = sol.meta["tail_depth"]
    if m == 25:
        assert m > 2 * T
    elif m > 1:
        assert m < 2 * T
    got = np.array([sol.v[k].coeffs for k in range(lo, lo + m)])
    want = _per_point_periodic_rows(prob, cert, T)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
