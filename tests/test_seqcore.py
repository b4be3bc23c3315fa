import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowkit import seqcore
from shadowkit.seqcore import (
    _diff_norms,
    Window, SeqVec, OperatorSeq, norm, op_apply, op_norm, cocycle, compose,
    dense, diag, shift_diag, identity_op, monitored_fixed_point, add, sub,
    apply_coeffs, coeff_norm, row_norms, anchor_index, LOST_TOL,
    LinOp, Segment, edge_loss, stack_ops, transport_rows,
    ConvergenceError, PreconditionError, TruncationError,
)


def test_norm_basics():
    w = Window(0, 1)
    assert norm(SeqVec(w, [3.0, 4.0], p=2)) == 5.0
    assert norm(SeqVec.zero(Window(-2, 2))) == 0.0
    assert norm(SeqVec(Window(0, 2), [1, 1, 1], p=math.inf)) == 1.0
    assert norm(SeqVec(Window(0, 2), [1, 1, 1], p=1)) == 3.0
    # general p
    assert norm(SeqVec(w, [1.0, 1.0], p=3)) == pytest.approx(2 ** (1 / 3))


def test_window_validation():
    with pytest.raises(PreconditionError):
        Window(3, 1)
    with pytest.raises(PreconditionError):
        SeqVec(Window(0, 1), [1.0, 2.0, 3.0])


def test_op_apply_identity_and_permutation():
    w = Window(-1, 0)
    v = SeqVec(w, [2.0, -7.0])
    assert np.array_equal(op_apply(identity_op(w), v).coeffs, v.coeffs)
    swap = dense([[0.0, 1.0], [1.0, 0.0]], w)
    assert np.array_equal(op_apply(swap, v).coeffs, [-7.0, 2.0])


def test_shift_diag_moves_e0_to_2e1():
    w = Window(-3, 3)
    A = shift_diag(w, 2.0 * np.ones(w.length), shift=1)
    out = op_apply(A, SeqVec.basis(w, 0))
    expect = 2.0 * SeqVec.basis(w, 1).coeffs
    assert np.array_equal(out.coeffs, expect)


def test_shift_diag_boundary_guard():
    w = Window(0, 3)
    A = shift_diag(w, np.ones(w.length), shift=1)
    with pytest.raises(TruncationError):
        op_apply(A, SeqVec.basis(w, 3))
    # dropping a zero coefficient is fine
    op_apply(A, SeqVec.basis(w, 0))


def test_op_norm_structured_exact():
    w = Window(0, 4)
    assert op_norm(diag(w, 0.5 * np.ones(5)), p=7.3) == 0.5
    assert op_norm(shift_diag(w, [0.4, 2.0, 1.0, 0.9, 0.1]), p=1) == 2.0


def test_op_norm_dense():
    w = Window(0, 1)
    A = dense([[2.0, 0.0], [0.0, 0.5]], w)
    assert op_norm(A, p=math.inf) == 2.0
    assert op_norm(A, p=1) == 2.0
    # p=2 contract: within 5% of the true spectral norm (here 2)
    est = op_norm(A, p=2)
    assert 2.0 <= est <= 2.0 * 1.05
    with pytest.raises(PreconditionError):
        op_norm(A, p=3)


def test_op_norm_dense_two_norm_against_svd():
    rng = np.random.default_rng(0)
    w = Window(0, 7)
    for _ in range(25):
        m = rng.standard_normal((8, 8))
        true = np.linalg.norm(m, 2)
        est = op_norm(dense(m, w), p=2)
        assert true * (1 - 1e-6) <= est <= true * 1.05


def test_inverse_round_trip_diag_and_dense():
    w = Window(-2, 2)
    rng = np.random.default_rng(1)
    v = SeqVec(w, rng.standard_normal(5))
    for A in (diag(w, [2.0, -0.5, 3.0, 1.0, 0.25]),
              dense(rng.standard_normal((5, 5)) + 4 * np.eye(5), w)):
        back = op_apply(A.inverse(), op_apply(A, v))
        assert np.max(np.abs(back.coeffs - v.coeffs)) <= 1e-12 * norm(v)


def test_inverse_round_trip_shift_diag_both_shifts():
    w = Window(-4, 4)
    rng = np.random.default_rng(2)
    c = 0.5 + rng.random(w.length)
    v_coeffs = np.zeros(w.length)
    v_coeffs[2:-2] = rng.standard_normal(w.length - 4)  # keep edges clear
    v = SeqVec(w, v_coeffs)
    for s in (1, -1):
        A = shift_diag(w, c, shift=s)
        back = op_apply(A.inverse(), op_apply(A, v))
        assert np.max(np.abs(back.coeffs - v.coeffs)) <= 1e-12


def test_inverse_of_composed_shift_matches_dense_view_on_interior():
    # compose(diag, shift_diag) zeroes the scalar of the coordinate pushed
    # over the window edge; that scalar never acts, so the inverse exists
    w = Window(-4, 4)
    n = w.length
    rng = np.random.default_rng(3)
    for s in (1, -1):
        A = compose(diag(w, 0.5 + rng.random(n)),
                    shift_diag(w, 0.5 + rng.random(n), shift=s))
        assert A.scalars[-1 if s == 1 else 0] == 0.0
        m, m_inv = A.to_dense_matrix(), A.inverse().to_dense_matrix()
        # the coordinates A keeps, and those it reaches
        kept = slice(0, n - 1) if s == 1 else slice(1, n)
        reached = slice(1, n) if s == 1 else slice(0, n - 1)
        assert np.max(np.abs((m_inv @ m)[kept, kept] - np.eye(n - 1))) <= 1e-14
        assert np.max(np.abs((m @ m_inv)[reached, reached] - np.eye(n - 1))) <= 1e-14
    # a zero scalar on a kept coordinate is still singular
    c = np.ones(n)
    c[0] = 0.0
    with pytest.raises(PreconditionError, match="singular"):
        shift_diag(w, c, shift=1).inverse()


def test_cocycle_identity_and_diag_powers():
    w = Window(0, 0)
    seq = OperatorSeq(0, [diag(w, [0.5]) for _ in range(10)])
    assert cocycle(seq, 3, 3).kind == "diag"
    assert np.array_equal(cocycle(seq, 3, 3).scalars, [1.0])
    for n in range(1, 10):
        phi = cocycle(seq, n, 0)
        assert phi.scalars[0] == 2.0 ** (-n)  # exact powers of two


def _no_ed_ops(window, lo, hi):
    """Operators of the diagonal example that has the splitting property
    but no dichotomy: A_k scales coordinate m by 1/2 for m <= k, by 2 for
    m > k."""
    ops = []
    for k in range(lo, hi):
        sc = np.where(np.arange(window.lo, window.hi + 1) <= k, 0.5, 2.0)
        ops.append(diag(window, sc))
    return OperatorSeq(lo, ops)


def test_backward_witness_growth_is_exact_powers_of_two():
    # For m < 0, e_m transported backward from time 0 to time m grows by a
    # factor 2 per step: |Phi(m, 0) e_m| = 2^{-m} exactly.
    w = Window(-25, 5)
    seq = _no_ed_ops(w, -25, 5)
    for m in range(-20, 0):
        phi = cocycle(seq, m, 0)
        v = op_apply(phi, SeqVec.basis(w, m, p=math.inf))
        assert norm(v) == 2.0 ** (-m)
    # and forward transport of the same vector decays, same rate
    for m in range(-20, 0):
        phi = cocycle(seq, 0, m)
        v = op_apply(phi, SeqVec.basis(w, m, p=math.inf))
        assert norm(v) == 2.0 ** m


def test_cocycle_composition_property():
    rng = np.random.default_rng(3)
    w = Window(0, 3)
    ops = [dense(rng.standard_normal((4, 4)) + 3 * np.eye(4), w)
           for _ in range(6)]
    seq = OperatorSeq(0, ops)
    for (k, l, j) in [(5, 2, 0), (0, 3, 6), (4, 4, 1), (2, 5, 3), (6, 0, 6)]:
        lhs = cocycle(seq, k, l).to_dense_matrix() @ cocycle(seq, l, j).to_dense_matrix()
        rhs = cocycle(seq, k, j).to_dense_matrix()
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_periodic_operator_seq_wraps():
    w = Window(0, 0)
    seq = OperatorSeq(0, [diag(w, [2.0]), diag(w, [3.0])], period=2)
    assert seq.op_at(0).scalars[0] == 2.0
    assert seq.op_at(5).scalars[0] == 3.0
    assert seq.op_at(-1).scalars[0] == 3.0
    assert seq.op_at(-2).scalars[0] == 2.0


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.sampled_from([1.0, 2.0, math.inf]))
def test_norm_scaling_property(coeffs, p):
    w = Window(0, len(coeffs) - 1)
    v = SeqVec(w, coeffs, p=p)
    assert norm(v) >= 0
    doubled = SeqVec(w, 2 * np.asarray(coeffs), p=p)
    assert norm(doubled) == pytest.approx(2 * norm(v), rel=1e-12)


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["diag", "shift_diag"]),
       st.sampled_from([1.0, 2.0, math.inf]))
def test_norm_consistency_structured(seed, kind, p):
    rng = np.random.default_rng(seed)
    w = Window(-5, 5)
    c = rng.uniform(-2, 2, w.length)
    A = diag(w, c) if kind == "diag" else shift_diag(w, c, shift=rng.choice([1, -1]))
    coeffs = rng.standard_normal(w.length)
    if kind == "shift_diag":
        coeffs[0] = coeffs[-1] = 0.0
    v = SeqVec(w, coeffs, p=p)
    assert norm(op_apply(A, v)) <= op_norm(A, p) * norm(v) * (1 + 1e-12)


def test_seqvec_json_round_trip():
    v = SeqVec(Window(-2, 1), [1.0, 0.25, -3.0, 0.0], p=math.inf)
    w = SeqVec.from_json(v.to_json())
    assert w.window == v.window and w.p == v.p
    assert np.array_equal(w.coeffs, v.coeffs)


def test_linop_json_round_trip():
    w = Window(0, 2)
    for A in (diag(w, [1.0, 2.0, 3.0]),
              shift_diag(w, [1.0, 2.0, 3.0], shift=-1),
              dense(np.arange(9.0).reshape(3, 3), w)):
        import shadowkit.seqcore as sc
        B = sc.LinOp.from_json(A.to_json())
        assert B.kind == A.kind
        assert np.array_equal(B.to_dense_matrix(), A.to_dense_matrix())


def test_monitored_fixed_point_converges_and_gates():
    def run(step, label, ratio_bound=0.5, max_iter=80):
        return monitored_fixed_point(step, 0.0, lambda a, b: abs(a - b), label,
                                     ratio_bound=ratio_bound,
                                     ratio_floor=1e-13, max_iter=max_iter)

    x, iterations, fp_residual, worst = run(lambda x: 0.25 * x + 1.0, "quarter")
    assert abs(x - 4.0 / 3.0) <= 1e-12 and fp_residual <= 1e-11
    assert iterations < 30 and worst == pytest.approx(0.25)
    with pytest.raises(ConvergenceError,
                       match="slow iteration 2 contracted at ratio 0.900000"):
        run(lambda x: 0.9 * x + 1.0, "slow")
    with pytest.raises(ConvergenceError, match="capped iteration still moving"):
        run(lambda x: 0.5 * x + 1.0, "capped", ratio_bound=0.6, max_iter=5)
    # settles at once, then moves again when the residual is checked
    moves = iter([0.0, 1e-10])
    with pytest.raises(ConvergenceError, match="jumpy fixed-point residual"):
        run(lambda x: x + next(moves), "jumpy")


# ---------------------------------------------------------------------------
# weighted shifts against their dense view

def _random_shift(rng, w, s, zeros=True):
    c = rng.uniform(-2.0, 2.0, w.length)
    if zeros:
        c[rng.random(w.length) < 0.2] = 0.0
    return shift_diag(w, c, shift=s)


def _kept(n, s):
    """Input coordinates a shift by s keeps in a window of length n."""
    return [j for j in range(n) if 0 <= j + s < n]


shift_cases = given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7),
                    st.integers(-3, 3))


@settings(max_examples=150)
@shift_cases
def test_apply_and_edge_guard_match_dense_view(seed, n, s):
    rng = np.random.default_rng(seed)
    w = Window(-2, n - 3)
    A = _random_shift(rng, w, s)
    x = rng.standard_normal(n)
    assert A.kind == ("diag" if s == 0 else "shift_diag")
    assert np.array_equal(apply_coeffs(A, x), A.to_dense_matrix() @ x)
    dropped = [abs(A.scalars[j] * x[j]) for j in range(n)
               if j not in _kept(n, s)]
    limit = LOST_TOL * (1.0 + np.max(np.abs(x)))
    v = SeqVec(w, x)
    if max(dropped, default=0.0) > limit:
        with pytest.raises(TruncationError):
            op_apply(A, v)
    else:
        assert np.array_equal(op_apply(A, v).coeffs, apply_coeffs(A, x))
    # mass exactly on the dropped coordinates is what the guard reads
    x[_kept(n, s)] = 0.0
    assert np.array_equal(op_apply(A, SeqVec(w, x), check_loss=False).coeffs,
                          np.zeros(n))


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
       st.integers(-3, 3), st.integers(-3, 3))
def test_compose_matches_dense_product(seed, n, sa, sb):
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    A, B = _random_shift(rng, w, sa), _random_shift(rng, w, sb)
    AB = compose(A, B)
    assert AB.kind != "dense" and AB.shift == sa + sb
    assert np.array_equal(AB.to_dense_matrix(),
                          A.to_dense_matrix() @ B.to_dense_matrix())
    assert np.array_equal((A @ B).to_dense_matrix(), AB.to_dense_matrix())
    # a dense factor makes the product dense, by the same matrix product
    M = dense(rng.standard_normal((n, n)), w)
    for X, Y in ((M, B), (A, M)):
        XY = compose(X, Y)
        assert XY.kind == "dense"
        assert np.array_equal(XY.matrix,
                              X.to_dense_matrix() @ Y.to_dense_matrix())


@settings(max_examples=150)
@shift_cases
def test_inverse_of_shift_matches_dense_view(seed, n, s):
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    A = _random_shift(rng, w, s, zeros=False)
    inv = A.inverse()
    assert inv.kind == A.kind and inv.shift == -s
    m, m_inv = A.to_dense_matrix(), inv.to_dense_matrix()
    kept = _kept(n, s)
    reached = [j + s for j in kept]
    eye = np.eye(len(kept))
    assert np.max(np.abs((m_inv @ m)[np.ix_(kept, kept)] - eye),
                  initial=0.0) <= 1e-15
    assert np.max(np.abs((m @ m_inv)[np.ix_(reached, reached)] - eye),
                  initial=0.0) <= 1e-15
    if kept:
        c = A.scalars.copy()
        c[kept[0]] = 0.0
        with pytest.raises(PreconditionError, match="singular"):
            shift_diag(w, c, shift=s).inverse()


def test_a_singular_dense_matrix_is_a_precondition_error():
    # the dense view of a weighted shift by 1 is singular on a window: one
    # operator refuses it, and a stack names its first singular matrix
    w = Window(0, 3)
    bad = dense(shift_diag(w, np.ones(4), 1).to_dense_matrix(), w)
    good = dense(2.0 * np.eye(4), w)
    with pytest.raises(PreconditionError, match="^dense matrix is singular$"):
        bad.inverse()
    nested = dense(np.array([[good.data, good.data], [good.data, bad.data]]),
                   w)
    for stack, at in ((stack_ops([good, bad, good, bad]), "1"),
                      (nested, "1, 1")):
        with pytest.raises(PreconditionError,
                           match=f"at stack index {at} is singular"):
            stack.inverse()
    with pytest.raises(PreconditionError, match="at stack index 3 is singular"):
        OperatorSeq(0, [good, good, good, bad]).inverse


def test_a_singular_weighted_shift_stack_names_its_index():
    # one operator keeps its message; a stack names its first singular step
    w = Window(0, 3)
    c = np.ones((6, 4))
    c[3, 1] = c[5, 0] = 0.0
    with pytest.raises(PreconditionError,
                       match="^weighted shift with a zero scalar is singular$"):
        shift_diag(w, c[3], 1).inverse()
    for stack, at in ((shift_diag(w, c, 1), "3"),
                      (shift_diag(w, c.reshape(3, 2, 4), -1), "1, 1")):
        with pytest.raises(PreconditionError,
                           match=f"^weighted shift with a zero scalar at "
                                 f"stack index {at} is singular$"):
            stack.inverse()
    with pytest.raises(PreconditionError,
                       match="zero scalar at stack index 3 is singular"):
        OperatorSeq(0, shift_diag(w, c, 1)).inverse


def test_a_mixed_list_names_its_first_singular_step():
    # a list that mixes kinds is inverted operator by operator
    w = Window(0, 3)
    good = dense(2.0 * np.eye(4), w)
    zero = np.ones(4)
    zero[2] = 0.0
    for ops, what in (([good, diag(w, np.ones(4)), shift_diag(w, zero, 1)],
                       "weighted shift with a zero scalar"),
                      ([diag(w, np.ones(4)), good, dense(np.zeros((4, 4)), w)],
                       "dense matrix")):
        with pytest.raises(PreconditionError,
                           match=f"^{what} at stack index 2 is singular$"):
            OperatorSeq(0, ops).inverse


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
       st.integers(-3, 3), st.integers(-3, 3))
def test_add_sub_match_dense_view(seed, n, sa, sb):
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    A, B = _random_shift(rng, w, sa), _random_shift(rng, w, sb)
    for got, ref in ((add(A, B), A.to_dense_matrix() + B.to_dense_matrix()),
                     (sub(A, B), A.to_dense_matrix() - B.to_dense_matrix()),
                     (A + B, A.to_dense_matrix() + B.to_dense_matrix()),
                     (A - B, A.to_dense_matrix() - B.to_dense_matrix()),
                     (-A, -A.to_dense_matrix())):
        assert np.array_equal(got.to_dense_matrix(), ref)
    assert (sub(A, B).kind == "dense") == (sa != sb)
    if sa == sb:
        # same-shift differences keep every scalar, the dropped ones too
        assert np.array_equal(sub(A, B).scalars, A.scalars - B.scalars)
    with pytest.raises(PreconditionError):
        add(A, identity_op(Window(0, n)))


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6),
       st.lists(st.integers(-2, 2), min_size=1, max_size=5))
def test_cocycle_of_shifts_stays_structured(seed, n, shifts):
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    seq = OperatorSeq(0, [_random_shift(rng, w, s, zeros=False) for s in shifts])
    m = len(shifts)
    for k, l in ((m, 0), (0, m), (m - 1, 0), (m, 1)):
        phi = cocycle(seq, k, l)
        if k == l:
            continue
        factors = ([seq.op_at(j) for j in range(l, k)] if l < k else
                   [seq.op_at(j).inverse() for j in range(l - 1, k - 1, -1)])
        ref = factors[0].to_dense_matrix()
        for f in factors[1:]:
            ref = f.to_dense_matrix() @ ref
        assert phi.kind != "dense"
        assert phi.shift == sum(f.shift for f in factors)
        assert np.array_equal(phi.to_dense_matrix(), ref)


@settings(max_examples=200)
@shift_cases
def test_op_norm_of_shift_is_the_dense_view_norm(seed, n, s):
    rng = np.random.default_rng(seed)
    A = _random_shift(rng, Window(0, n - 1), s)
    m = A.to_dense_matrix()
    exact, svd = op_norm(A, 2.0), float(np.linalg.norm(m, 2))
    assert exact == float(np.max(np.abs(m), initial=0.0))
    # LAPACK may return the singular value of a shift or a diagonal an ulp
    # low; the structured norm is the exact one, hence never below it
    assert svd <= exact <= svd * (1.0 + 4.0 * np.finfo(float).eps)
    assert op_norm(A, 1.0) == float(np.max(np.sum(np.abs(m), axis=0)))
    assert op_norm(A, math.inf) == float(np.max(np.sum(np.abs(m), axis=1)))


@settings(max_examples=150)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from([1.0, 2.0, math.inf]))
def test_diff_norm_against_dense_difference(seed, n, sa, sb, p):
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    A, B = _random_shift(rng, w, sa), _random_shift(rng, w, sb)
    ords = {1.0: 1, 2.0: 2, math.inf: np.inf}
    gap = B.to_dense_matrix() - A.to_dense_matrix()
    if sa == sb:
        # one entry per column: the largest entry is the norm, and the gaps
        # at the coordinates the dense view drops count too
        edge = [abs(B.scalars[j] - A.scalars[j]) for j in range(n)
                if j not in _kept(n, sa)]
        assert float(_diff_norms(B, A, p)) == max(
            [np.max(np.abs(gap)), *edge])
    else:
        assert float(_diff_norms(B, A, p)) == float(
            np.linalg.norm(gap, ords[p]))
    M = dense(rng.standard_normal((n, n)), w)
    assert float(_diff_norms(M, A, p)) == float(
        np.linalg.norm(M.matrix - A.to_dense_matrix(), ords[p]))


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7), st.integers(1, 12),
       st.sampled_from([-2, 0, 1, None]))
def test_row_operations_match_row_by_row_bits(seed, m, n, s):
    # s = None mixes shifts and a dense operator, which stack densified: the
    # rows then carry the bits of the densified operators
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    rows = rng.standard_normal((m, n)) * rng.choice([1e-9, 1.0, 1e7], (m, 1))
    rows[rng.random((m, n)) < 0.2] = 0.0
    if s is None:
        ops = [_random_shift(rng, w, int(rng.integers(-2, 3))) for _ in range(m)]
        ops[-1] = dense(rng.standard_normal((n, n)), w)
        stacked_as = [_densified(A) for A in ops]
    else:
        ops = stacked_as = [_random_shift(rng, w, s) for _ in range(m)]
    want = np.array([apply_coeffs(A, x) for A, x in zip(stacked_as, rows)])
    assert apply_coeffs(stack_ops(ops), rows).tobytes() == want.tobytes()
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        want = np.array([coeff_norm(x, p) for x in rows])
        assert row_norms(rows, p).tobytes() == want.tobytes()


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(2, 5),
       st.integers(1, 9),
       st.sampled_from([-2, 0, 1, None, "shared", "dense"]))
def test_stacked_row_ops_match_each_operator(seed, frames, steps, n, s):
    # one operator per row of a (frames, steps, n) block: stacked scalars,
    # a single shared operator, dense operators only, which invert as one
    # batched stack, or (s = None) shifts by -2..2 and a dense operator,
    # which stack densified and invert operator by operator; every row
    # against the matrices of its operator and of its inverse, written out
    # by hand
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    if s == "shared":
        one = _random_shift(rng, w, 1, zeros=False)
        ops = [[one] * steps for _ in range(frames)]
    elif s == "dense":
        ops = [[dense(rng.standard_normal((n, n)) + 3 * np.eye(n), w)
                for _ in range(steps)] for _ in range(frames)]
    else:
        ops = [[_random_shift(rng, w, int(rng.integers(-2, 3)) if s is None
                              else s, zeros=False) for _ in range(steps)]
               for _ in range(frames)]
        if s is None:
            ops[-1][-1] = dense(rng.standard_normal((n, n)) + 3 * np.eye(n), w)
    rows = rng.standard_normal((frames, steps, n))
    # the steps as one sequence, its stack and its inverses in the frames'
    # leading shape
    seq = OperatorSeq(0, [A for row in ops for A in row])
    stacked, inverse = (X if not X.lead else LinOp(X.shift, X.data.reshape(
        (frames, steps) + X.data.shape[1:]), w)
        for X in (seq.stack, seq.inverse.stack))

    def check(got_ops, got_inv, picks):
        got = apply_coeffs(got_ops, rows[picks])
        got_back = apply_coeffs(got_inv, rows[picks])
        for i, f in enumerate(picks):
            for j in range(steps):
                A = ops[f][j]
                assert np.array_equal(got[i, j], _by_hand(A) @ rows[f, j])
                assert np.array_equal(got_back[i, j],
                                      _inverse_by_hand(A) @ rows[f, j])
        # one step across the frames, as the lockstep sums read it
        col = apply_coeffs(got_ops[:, steps - 1], rows[picks, steps - 1])
        assert col.tobytes() == got[:, steps - 1].tobytes()

    check(stacked, inverse, list(range(frames)))
    keep = [f for f in range(frames) if rng.random() < 0.6] or [frames - 1]
    check(stacked[keep], inverse[keep], keep)


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 5),
       st.sampled_from([1.0, 2.0, math.inf]))
def test_anchor_index_finds_the_first_nearest_row(seed, m, n, p):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, n))
    dup = int(rng.integers(0, m))
    rows = np.vstack([rows, rows[dup]])          # a tie with an earlier row
    v = SeqVec(Window(0, n - 1), rows[dup] + rng.choice([0.0, 1e-12], n), p)
    # the reference loop: strictly nearer rows replace the best
    best, best_dist = None, math.inf
    for i, r in enumerate(rows):
        dist = norm(v.with_coeffs(v.coeffs - r))
        if dist < best_dist:
            best, best_dist = i, dist
    assert anchor_index(rows, v) == best <= dup
    off = v.with_coeffs(v.coeffs + 1e-3 * (1.0 + np.abs(rows).max()))
    with pytest.raises(PreconditionError, match="not on the certified orbit"):
        anchor_index(rows, off)


def test_a_densified_stack_refuses_operators_on_other_windows():
    # an operator acts on one window, and a stack on the window of all its
    # operators: a dense operator between two windows is refused when it
    # is built, and a stack of operators on different windows when stacked
    w = Window(0, 2)
    A = dense(np.eye(3), w)
    stack_ops([A, shift_diag(w, np.ones(3), 1)])
    with pytest.raises(PreconditionError, match="different windows"):
        stack_ops([A, shift_diag(Window(1, 3), np.ones(3), 1)])
    with pytest.raises(PreconditionError, match="different windows"):
        dense(np.eye(3), w, Window(1, 3))


def test_an_operator_has_one_window():
    # domain and codomain are the one window; JSON keeps both keys, and a
    # dense blob between two windows is refused like its constructor; a
    # sequence chains operators on one window
    w, other = Window(0, 2), Window(1, 3)
    for A in (diag(w, np.ones(3)), shift_diag(w, np.ones(3), -1),
              dense(np.eye(3), w, w)):
        assert A.domain == A.codomain == A.window == w
        assert LinOp.from_json(A.to_json()).to_json() == A.to_json()
    blob = dense(np.eye(3), w).to_json()
    assert blob["params"]["domain"] == blob["params"]["codomain"] == [0, 2]
    blob["params"]["codomain"] = [1, 3]
    with pytest.raises(PreconditionError, match="different windows"):
        LinOp.from_json(blob)
    with pytest.raises(PreconditionError, match="different windows"):
        OperatorSeq(0, [diag(w, np.ones(3)), diag(other, np.ones(3))])


def test_one_operator_type_whose_derived_views_stay_in_seqcore():
    # weighted shifts, dense operators and their stacks are one type; the
    # engines read its shift, data and window, and leave kind, matrix,
    # scalars and codomain to readers outside the package
    w = Window(0, 2)
    ops = [diag(w, np.ones(3)), dense(np.eye(3), w),
           shift_diag(w, np.ones(3), 1)]
    stacks = [stack_ops(ops), stack_ops([ops[0], diag(w, np.ones(3))]),
              stack_ops([ops[2]] * 6),
              OperatorSeq(0, ops).inverse.stack]
    assert {type(A) for A in ops + stacks} == {LinOp}
    readers = []
    for path in sorted(pathlib.Path(seqcore.__file__).parent.glob("*.py")):
        if path.name == "seqcore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "matrix", "scalars", "kind", "codomain"):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []


def test_shared_dense_operator_acts_as_one_matrix_times_vector_per_row():
    # one stacked mat-vec per block, each row with the bits of M @ x (the
    # plain product rows @ M.T sums in another order)
    rng = np.random.default_rng(9)
    for n in range(1, 131):
        w = Window(0, n - 1)
        A = dense(rng.standard_normal((n, n)), w)
        rows = rng.standard_normal((2, 3, n))
        want = np.array([[A.matrix @ x for x in r] for r in rows])
        assert apply_coeffs(A, rows).tobytes() == want.tobytes()
        assert apply_coeffs(A, rows[1]).tobytes() == want[1].tobytes()
        # a strided view of the rows takes the same mat-vec
        assert apply_coeffs(A, rows[:, 1]).tobytes() == want[:, 1].tobytes()


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(-9, 9))
def test_edge_loss_reads_the_dropped_mass_row_by_row(seed, n, s):
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    A = _random_shift(rng, w, s)
    # rows around the guard: zero, sub-threshold and large edge mass, and
    # whole rows near the absolute floor LOST_TOL
    rows = rng.standard_normal((16, n)) * rng.choice(
        [0.0, 1e-13, 3e-13, 1.0], (16, n))
    rows[::3] = 1e-12 * rng.standard_normal((len(rows[::3]), n))
    guard = edge_loss(A, rows)
    if s == 0:
        assert guard is None
        return
    lost, trips = guard
    for x, got_lost, tripped in zip(rows, lost, trips):
        # reference: the dense view's dropped coordinates, read explicitly
        dropped = max(abs(A.scalars[j] * x[j]) for j in range(n)
                      if j not in _kept(n, s))
        assert got_lost == dropped
        assert tripped == (dropped > LOST_TOL * (1.0 + np.max(np.abs(x))))
        if tripped:
            with pytest.raises(TruncationError):
                op_apply(A, SeqVec(w, x))
        else:
            op_apply(A, SeqVec(w, x))
    assert edge_loss(dense(A.to_dense_matrix(), w), rows) is None


def _transport_row_by_row(ops, rows, p):
    # reference: each row alone through op_apply, until its first trip
    norms = np.full((len(rows), len(ops)), np.nan)
    tripped, last = [], []
    for i, x in enumerate(rows):
        u = SeqVec(Window(0, len(x) - 1), x, p)
        try:
            for l, A in enumerate(ops):
                u = op_apply(A, u)
                norms[i, l] = norm(u)
        except TruncationError:
            tripped.append(True)
            continue
        tripped.append(False)
        last.append(u.coeffs)
    return norms, np.array(tripped, dtype=bool), last


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(0, 7),
       st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_transport_rows_matches_row_by_row_op_apply(seed, n, steps, p):
    # mixed lists of shifts (which trip mid-scan), diagonals and dense
    # operators, over rows some of which stay clear of the window edge
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    ops = []
    for _ in range(steps):
        kind = rng.integers(0, 3)
        if kind == 2:
            ops.append(dense(rng.standard_normal((n, n)), w))
        else:
            ops.append(_random_shift(rng, w, int(rng.integers(-2, 3))
                                     if kind else 0))
    rows = rng.standard_normal((10, n))
    rows[::2, :n // 2] = 0.0
    rows[1::3, n // 2:] = 0.0
    norms, tripped, last = transport_rows(ops, rows, p)
    want_norms, want_tripped, want_last = _transport_row_by_row(ops, rows, p)
    assert norms.tobytes() == want_norms.tobytes()
    assert tripped.tolist() == want_tripped.tolist()
    assert last.shape == (len(want_last), n)
    assert last.tobytes() == np.array(want_last).reshape(-1, n).tobytes()


def _densified(op):
    return dense(op.to_dense_matrix(), op.domain, op.codomain)


def _random_stack(rng, w, m, mode, s):
    """m operators on w: weighted shifts by s ("fixed"), by shifts drawn
    from -2..2 ("mixed"), those with one dense row ("dense"), dense
    operators only ("all-dense"), or one shared shift by s ("shared");
    about a fifth of the scalars are zero."""
    n = w.length
    if mode == "shared":
        return [_random_shift(rng, w, s)] * m
    if mode == "all-dense":
        return [dense(rng.standard_normal((n, n)) + 3 * np.eye(n), w)
                for _ in range(m)]
    ops = [_random_shift(rng, w, s if mode == "fixed"
                         else int(rng.integers(-2, 3))) for _ in range(m)]
    if mode == "dense":
        i = int(rng.integers(m))
        ops[i] = dense(rng.standard_normal((n, n)) + 3 * np.eye(n), w)
    return ops


def _by_hand(op):
    """The matrix of one operator, written out entry by entry."""
    if op.shift is None:
        return op.data.copy()
    n, s = op.window.length, op.shift
    m = np.zeros((n, n))
    for k in _kept(n, s):
        m[k + s, k] = op.data[k]
    return m


def _inverse_by_hand(op):
    """The matrix of the inverse of one operator: numpy's inverse of a
    dense matrix, and for a shift by s each kept scalar's reciprocal,
    carried from coordinate k + s back to k; None when singular."""
    if op.shift is None:
        try:
            return np.linalg.inv(op.data)
        except np.linalg.LinAlgError:
            return None
    n, s = op.window.length, op.shift
    m = np.zeros((n, n))
    for k in _kept(n, s):
        if op.data[k] == 0.0:
            return None
        m[k, k + s] = 1.0 / op.data[k]
    return m


def _same_matrices(got, want):
    """A stack (or one operator broadcast over it) against the matrices
    of a (k, n, n) array, exactly."""
    assert np.array_equal(
        np.broadcast_to(got.to_dense_matrix(), want.shape), want)


STACK_MODES = ["fixed", "mixed", "dense", "all-dense", "shared"]


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 7),
       st.sampled_from(STACK_MODES), st.sampled_from(STACK_MODES),
       st.integers(-2, 2), st.integers(-2, 2))
def test_stacked_algebra_matches_the_operator_algebra_row_by_row(
        seed, m, n, mode_a, mode_b, s_a, s_b):
    # a stack's @, +, -, unary -, inverse, op_norm and apply against numpy
    # on the matrices of its operators, written out by hand, row by row:
    # shift stacks by -2..2 (window-edge drops and zero scalars included),
    # shared rows and dense stacks.  A stack that mixes shifts or holds a
    # dense row is densified, so its inverse is numpy's inverse of those
    # matrices.  Every stack is also read through a reversed view and a
    # fancy index with repeats.
    rng = np.random.default_rng(seed)
    w = Window(-(n // 2), n - 1 - n // 2)
    a_ops = _random_stack(rng, w, m, mode_a, s_a)
    b_ops = _random_stack(rng, w, m, mode_b, s_b)
    A, B = stack_ops(a_ops), stack_ops(b_ops)
    Ma = np.array([_by_hand(op) for op in a_ops])
    Mb = np.array([_by_hand(op) for op in b_ops])
    for X, ops in ((A, a_ops), (B, b_ops)):
        structured = (all(op.shift is not None for op in ops)
                      and len({op.shift for op in ops}) == 1)
        assert (X.shift is not None) == structured
        assert X.shift == (ops[0].shift if structured else None)
    for pick in (slice(None), slice(None, None, -1),
                 rng.integers(0, m, m + 2)):
        at = np.arange(m)[pick]
        As, Bs, ma, mb = A[pick], B[pick], Ma[at], Mb[at]
        k = len(at)
        both = A.shift is not None and B.shift is not None
        assert (As @ Bs).shift == (A.shift + B.shift if both else None)
        for got in (As + Bs, As - Bs):
            assert got.shift == (A.shift if A.shift == B.shift else None)
        for got, want in ((As @ Bs, ma @ mb), (As + Bs, ma + mb),
                          (As - Bs, ma - mb), (-As, -ma)):
            _same_matrices(got, want)
        for i in range(k):
            # single rows, as the sequential sweeps read them
            _same_matrices(As[i] @ Bs[i], (ma[i] @ mb[i])[None])
        for p in (1.0, 2.0, math.inf):
            got = np.broadcast_to(op_norm(As, p), (k,))
            if A.shift is not None:
                want = np.abs(ma).max(axis=(1, 2), initial=0.0)
            elif p == 2.0:
                want = np.linalg.norm(ma, 2, axis=(1, 2))
                assert np.all(want * (1 - 1e-6) <= got)
                assert np.all(got <= want * 1.05)
                continue
            else:
                want = np.abs(ma).sum(axis=1 if p == 1.0 else 2).max(axis=1)
            assert np.array_equal(got, want)
        x = rng.standard_normal((k, n))
        want = np.array([mi @ xi for mi, xi in zip(ma, x)])
        assert np.array_equal(apply_coeffs(As, x), want)
        if A.shift is not None:
            inverses = [_inverse_by_hand(a_ops[i]) for i in at]
        else:
            inverses = [_inverse_by_hand(dense(mi, w)) for mi in ma]
        if any(inv is None for inv in inverses):
            with pytest.raises((PreconditionError, np.linalg.LinAlgError)):
                As.inverse()
        else:
            inv = As.inverse()
            assert inv.shift == (None if A.shift is None else -A.shift)
            _same_matrices(inv, np.array(inverses))


@pytest.mark.parametrize("period", [None, 5])
def test_segment_reads_as_the_dict_of_points_it_replaces(period):
    rng = np.random.default_rng(3)
    w = Window(-2, 3)
    points = {7 + i: SeqVec(w, rng.standard_normal(w.length), 1.0)
              for i in range(5)}
    seg = Segment.pack(points, period)
    assert (seg.lo, seg.period, seg.window, seg.p) == (7, period, w, 1.0)
    assert len(seg) == len(points)
    assert list(seg) == list(points) == sorted(seg)
    for k in range(-20, 40):
        assert (k in seg) == (k in points)
    for k in points:
        assert seg[k].coeffs.tobytes() == points[k].coeffs.tobytes()
        assert (seg[k].window, seg[k].p) == (w, 1.0)
    assert np.array_equal(seg.path[:len(seg)], seg.rows)
    if period is None:
        assert len(seg.path) == len(seg)
        for k in (6, 12, -1):
            with pytest.raises(KeyError):
                seg[k]
    else:
        # a periodic block answers every time with the bits of its period
        assert seg.path[-1].tobytes() == seg.rows[0].tobytes()
        for k in range(-17, 30):
            assert seg[k + period].coeffs.tobytes() == seg[k].coeffs.tobytes()
            assert np.shares_memory(seg[k + period].coeffs, seg[k].coeffs)
    # read-only, and packing a block keeps it
    with pytest.raises(ValueError):
        seg.rows[0, 0] = 1.0
    with pytest.raises(AttributeError):
        seg.lo = 0
    assert Segment.pack(seg, period) is seg and seg == seg


def test_packing_refuses_gaps_and_mixed_points():
    w = Window(0, 2)
    pts = {k: SeqVec(w, np.full(3, float(k))) for k in (0, 1, 2)}
    Segment.pack(pts, 3)
    gap = dict(pts)
    del gap[1]
    bad = [gap, {}, {**pts, 1: SeqVec(Window(0, 3), np.zeros(4))},
           {**pts, 2: SeqVec(w, np.zeros(3), math.inf)}]
    for points in bad:
        with pytest.raises(PreconditionError):
            Segment.pack(points, None)
    with pytest.raises(PreconditionError):
        Segment.pack(pts, 2)
    with pytest.raises(PreconditionError):
        Segment.pack(Segment.pack(pts, None), 3)
    with pytest.raises(PreconditionError):
        Segment(0, np.zeros((2, 4)), w, 2.0, None)


def _power_norm_one_matrix(m):
    """The dense 2-norm by power iteration on one matrix at a time, from
    three starts run one after another, as op_norm computed it before its
    lockstep form; returns the norm and the largest round count of its
    starts."""
    n = m.shape[1]
    gram = m.T @ m
    best, rounds = 0.0, 0
    rng = np.random.default_rng(12345)
    for x in [np.ones(n)] + [rng.standard_normal(n) for _ in range(2)]:
        x = x / np.linalg.norm(x)
        prev = 0.0
        for step in range(1, 501):
            y = gram @ x
            lam = math.sqrt(y.dot(y))
            if lam == 0.0:
                break
            x = y / lam
            if abs(lam - prev) <= 1e-12 * (lam if lam > 1.0 else 1.0):
                break
            prev = lam
        rounds = max(rounds, step)
        root = math.sqrt(lam) if lam > 0 else 0.0
        best = max(best, root)
    cap = math.sqrt(float(np.max(np.sum(np.abs(m), axis=0)))
                    * float(np.max(np.sum(np.abs(m), axis=1))))
    return (min(best * (1.0 + 1e-9), cap) if best > 0 else 0.0), rounds


def test_lockstep_two_norm_matches_the_power_iteration_matrix_by_matrix():
    # one matrix, n = 1, zero matrices, random stacks and clustered spectra
    # whose iteration runs into the 500-round cap, each stack's norms
    # against the iteration run on each matrix alone, bit for bit
    rng = np.random.default_rng(20)
    q = np.linalg.qr(rng.standard_normal((9, 9)))[0]
    clustered = np.array([q @ np.diag(1.0 - 0.003 * np.arange(9)
                                      + 1e-4 * rng.standard_normal(9))
                          @ q.T for _ in range(3)])
    mixed = rng.standard_normal((4, 6, 6))
    mixed[1] = 0.0
    stacks = [rng.standard_normal((1, 5, 5)), rng.standard_normal((4, 1, 1)),
              np.zeros((2, 3, 3)), np.zeros((1, 1, 1)), mixed, clustered,
              rng.standard_normal((5, 21, 21))]
    capped = 0
    for m in stacks:
        w = Window(0, m.shape[-1] - 1)
        want = [_power_norm_one_matrix(x) for x in m]
        capped += sum(rounds == 500 for _, rounds in want)
        got = op_norm(dense(m, w), 2.0)
        assert got.tobytes() == np.array([v for v, _ in want]).tobytes()
        single = op_norm(dense(m[0], w), 2.0)
        assert isinstance(single, float) and single == want[0][0]
    assert capped >= 3


def _dense_view_products(seed, n, s, lead_a, lead_b):
    """A weighted shift by s and a dense operator with signed zeros, of
    leading shapes lead_a and lead_b."""
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    c = rng.uniform(-2.0, 2.0, lead_a + (n,))
    c[rng.uniform(0.0, 1.0, c.shape) < 0.2] = 0.0
    c[rng.uniform(0.0, 1.0, c.shape) < 0.2] = -0.0
    m = rng.standard_normal(lead_b + (n, n))
    m[rng.uniform(0.0, 1.0, m.shape) < 0.2] = 0.0
    m[rng.uniform(0.0, 1.0, m.shape) < 0.2] = -0.0
    return shift_diag(w, c, s), dense(m, w)


@pytest.mark.parametrize("s", range(-3, 4))
def test_shift_dense_products_match_the_densified_matmul(s):
    # shift times dense and dense times shift, scaled rows and columns,
    # against numpy's matmul of the dense views, bytes (so the sign of
    # every zero) included, for single operators and stacks
    shapes = [((), ()), ((3,), ()), ((), (3,)), ((4,), (4,)), ((2, 1), (3,))]
    for seed in range(12):
        for n in (1, 2, 5, 11):
            lead_a, lead_b = shapes[seed % len(shapes)]
            S, D = _dense_view_products(seed, n, s, lead_a, lead_b)
            for A, B in ((S, D), (D, S)):
                got = compose(A, B)
                want = np.matmul(A.to_dense_matrix(), B.to_dense_matrix())
                assert got.shift is None
                assert got.data.shape == want.shape
                assert got.data.tobytes() == want.tobytes()


def _same_op(A, B):
    return (A.shift, A.data.shape, A.data.tobytes()) == (
        B.shift, B.data.shape, B.data.tobytes())


@settings(max_examples=80)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 7),
       st.sampled_from(["aperiodic", "periodic", "dense", "mixed"]))
def test_sequence_from_a_list_matches_the_sequence_from_its_stack(
        seed, m, n, kind):
    # a list is packed once into the sequence's stack, and a sequence built
    # from that stack serves the same operators, views and inverses, bit
    # for bit, at every time (wrapping around a period); a list that mixes
    # shifts is stacked densified, keeps its operators as given and is
    # inverted operator by operator, since the dense view of a shift by
    # s != 0 is singular
    rng = np.random.default_rng(seed)
    w = Window(0, n - 1)
    if kind == "dense":
        ops = [dense(rng.standard_normal((n, n)) + 3 * np.eye(n), w)
               for _ in range(m)]
    else:
        shifts = (rng.integers(-2, 3, m) if kind == "mixed"
                  else [int(rng.integers(-2, 3))] * m)
        ops = [_random_shift(rng, w, int(s), zeros=False) for s in shifts]
    period = m if kind == "periodic" else None
    lo = int(rng.integers(-5, 5))
    listed = OperatorSeq(lo, ops, period)
    # (a list of one operator keeps it as its stack, standing for every time)
    stacked = OperatorSeq.of(lo, listed.stack, m, period)
    assert listed.ops == ops and listed.count == stacked.count == m
    assert _same_op(listed.stack, stack_ops(ops))
    mixed = len({A.shift for A in ops}) > 1
    times = range(lo - 2 * m, lo + 3 * m) if period else range(lo, lo + m)
    for k in times:
        A, B = listed.op_at(k), stacked.op_at(k)
        inv = listed.inverse.op_at(k)
        assert _same_op(inv, A.inverse())
        if mixed:
            assert B.shift is None
            assert B.data.tobytes() == A.to_dense_matrix().tobytes()
            continue
        assert _same_op(A, B)
        assert _same_op(inv, stacked.inverse.op_at(k))
    if not mixed:
        assert all(_same_op(A, B) for A, B in zip(listed.ops, stacked.ops))
    want = np.array([A.inverse().to_dense_matrix() for A in ops])
    assert listed.inverse.stack.to_dense_matrix().tobytes() == want.tobytes()
    # a part is the stack's rows of its times, wrapping around a period
    start = lo + 1 if period else lo + m // 2
    count = 2 * m if period else m - m // 2
    part = stacked.part(start, count)
    for k in range(start, start + count):
        assert _same_op(part.op_at(k), stacked.op_at(k))
    if not period:
        with pytest.raises(PreconditionError, match="no operator"):
            stacked.part(lo, m + 1)
