"""End-to-end checks of the package's headline quantitative guarantees.

Each test exercises one guarantee at its stated tolerance, enforces its
runtime budget, and prints a single PASS/FAIL summary line (shown under
``pytest -s``; pytest's usual per-test verdict carries the same
information in ``-v`` runs).
"""
import time

import numpy as np

from shadowkit.boundedsol import (InhomProblem, banded_direct_solve,
                                  perron_constant, perron_solve,
                                  random_hyperbolic_instance)
from shadowkit.clstruct import (constant_cert, verify_cl_diffeo,
                                verify_cl_opseq, verify_dichotomy)
from shadowkit.graphtf import (graph_transform_seq, perturbation_budget,
                               perturbed_cl_for_diffeo, series_gain,
                               upgraded_constant)
from shadowkit.semiconj import (h1_at, h2_at, make_conjugacy_job,
                                semiconjugacy_report)
from shadowkit.seqcore import (OperatorSeq, SeqVec, Window, dense, norm,
                               op_apply, op_norm)
from shadowkit.shadow import (Pseudotrajectory, make_loop,
                              make_pseudotrajectory, periodic_point_near,
                              recompute_step_error, shadow, shadow_periodic,
                              shadowing_constants)
from shadowkit.systems import (LinearShiftFamily, SinPerturbedFamily,
                               linear_example_cert, make_linear_example_seq,
                               make_system, make_weighted_shift,
                               sample_interior_points)


def _report(name, budget, started, conditions):
    elapsed = time.perf_counter() - started
    ok = all(flag for flag, _ in conditions)
    detail = "; ".join(text for _, text in conditions)
    line = (f"{'PASS' if ok and elapsed < budget else 'FAIL'} {name}: "
            f"{detail} [{elapsed:.1f}s/{budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _supported_start(system, seed, scale=0.25, offsets=range(0, 7)):
    rng = np.random.default_rng(seed)
    w = system.window
    c = np.zeros(w.length)
    for k in offsets:
        c[w.offset(k)] = rng.uniform(-scale, scale)
    return SeqVec(w, c, system.p)


def test_01_bounded_solver_norm_bound():
    # linear weighted shift splitting (C = 1, lam = 1/2): the distinguished
    # bounded solution stays within L = C^2 (1 + lam)/(1 - lam) = 3 of the
    # forcing size, over 100 seeded unit forcings on a 60-step interval
    t0 = time.perf_counter()
    W = Window(-72, 72)
    f = make_system("weighted_shift_linear", W, 2.0)
    origin = SeqVec(W, np.zeros(W.length), 2.0)
    pair = f.cert.proj_at(origin)
    cert = constant_cert(f.cert.C, f.cert.lam, f.cert.R, pair.P, pair.Q)
    A = f.dforward(origin)
    L = perron_constant(cert.C, cert.lam)
    assert L == 3.0
    worst = 0.0
    for s in range(100):
        rng = np.random.default_rng(s)
        w = {}
        for k in range(1, 61):
            c = np.zeros(W.length)
            c[W.offset(-6):W.offset(7)] = rng.standard_normal(13)
            v = SeqVec(W, c, 2.0)
            w[k] = v.with_coeffs(c / norm(v))
        sol = perron_solve(InhomProblem(OperatorSeq(0, [A] * 60), w), cert)
        worst = max(worst, sol.sup_norm)
    _report("bounded-solution norm bound", 5.0, t0, [
        (worst <= 3.0 + 1e-9,
         f"sup norm over 100 unit forcings {worst:.6g} <= 3 + 1e-9"),
    ])


def test_02_solver_oracle_agreement():
    # the recursive solver and the assembled banded system agree to 1e-8
    # in sup norm on 50 randomized hyperbolic instances
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        length = int(rng.integers(6, 21))
        prob, cert = random_hyperbolic_instance(dim, length, rng)
        sp = perron_solve(prob, cert)
        sd = banded_direct_solve(prob, cert)
        worst = max(worst, max(
            norm(sp.v[k].with_coeffs(sp.v[k].coeffs - sd.v[k].coeffs))
            for k in sp.v))
    _report("solver oracle agreement", 10.0, t0, [
        (worst <= 1e-8,
         f"max discrepancy over 50 instances {worst:.3g} <= 1e-8"),
    ])


def test_03_shadowing_ratio_sweep():
    # linear weighted shift: distance-to-orbit / step-error ratio stays
    # within 2M = 12 across a 4-decade d sweep, 20 seeds each, length 40;
    # returned trajectories are exact to 1e-11 per step
    t0 = time.perf_counter()
    f = make_system("weighted_shift_linear", Window(-64, 64), 2.0)
    worst_ratio, worst_step = 0.0, 0.0
    for d in (1e-2, 1e-3, 1e-4, 1e-5):
        for s in range(20):
            ps = make_pseudotrajectory(f, _supported_start(f, s), 40, d,
                                       seed=s)
            res = shadow(f, ps, f.cert)
            worst_ratio = max(worst_ratio, res.sup_distance / ps.d)
            worst_step = max(worst_step,
                             recompute_step_error(f, res.trajectory))
    _report("shadowing ratio sweep", 30.0, t0, [
        (worst_ratio <= 12.0, f"max sup_distance/d {worst_ratio:.6g} <= 12"),
        (worst_step <= 1e-11, f"max per-step error {worst_step:.3g} <= 1e-11"),
    ])


def test_04_refinement_halving():
    # tanh weighted shift below its admissible step-error threshold: every
    # refinement sweep at least halves the step error
    t0 = time.perf_counter()
    f = make_system("weighted_shift_tanh", Window(-64, 64), 2.0)
    cs = shadowing_constants(f, f.cert)
    d = min(1e-3, 0.5 * cs.d0)
    assert d < cs.d0
    worst_factor = 0.0
    for s in range(10):
        ps = make_pseudotrajectory(f, _supported_start(f, s), 40, d, seed=s)
        res = shadow(f, ps, f.cert)
        errs = res.meta["step_errors"]
        assert len(errs) >= 2
        worst_factor = max(worst_factor,
                           max(errs[i + 1] / errs[i]
                               for i in range(len(errs) - 1)))
    _report("refinement halving", 30.0, t0, [
        (worst_factor <= 0.5 * (1.0 + 1e-6),
         f"worst per-refinement decay factor {worst_factor:.3g} <= 0.5"),
    ])


def test_05_periodic_and_chain_shadowing():
    # closed pseudotrajectories of periods 1, 5, 12 are shadowed by exactly
    # periodic orbits within 2M * d; a pseudo-loop through a small sample
    # point yields a genuine periodic point within M * d of it
    t0 = time.perf_counter()
    f = make_system("weighted_shift_linear", Window(-32, 32), 2.0)
    cs = shadowing_constants(f, f.cert)
    w = f.window
    d = 1e-3
    worst_ratio, worst_step = 0.0, 0.0
    periodic_ok = True
    for m in (1, 5, 12):
        for s in range(4):
            rng = np.random.default_rng(s + 7919 * m)
            pts = {}
            for k in range(m):
                c = np.zeros(w.length)
                for j in range(0, 7):
                    c[w.offset(j)] = rng.uniform(-1.0, 1.0)
                c *= d / (3.0 * max(1.0, float(np.linalg.norm(c))))
                pts[k] = SeqVec(w, c, f.p)
            ps = Pseudotrajectory(
                pts, recompute_step_error(f, pts, period=m), period=m)
            res = shadow_periodic(f, ps, f.cert)
            periodic_ok = periodic_ok and res.period == m
            worst_ratio = max(worst_ratio, res.sup_distance / ps.d)
            worst_step = max(worst_step,
                             recompute_step_error(f, res.trajectory,
                                                  period=m))
    worst_chain = 0.0
    for cd in (1e-2, 1e-3, 1e-4):
        for s in range(3):
            x = _supported_start(f, s, scale=0.4 * cd, offsets=range(2, 5))
            loop = make_loop(f, x, 8, 0.0, seed=s)
            assert loop.d <= cd
            _, dist = periodic_point_near(f, f.cert, x, loop)
            worst_chain = max(worst_chain, dist / (cs.M * cd))
    _report("periodic and chain shadowing", 60.0, t0, [
        (periodic_ok, "every returned orbit has the requested period"),
        (worst_ratio <= 2.0 * cs.M,
         f"max periodic sup_distance/d {worst_ratio:.6g} <= {2 * cs.M:g}"),
        (worst_step <= 1e-11,
         f"max wrapped per-step error {worst_step:.3g} <= 1e-11"),
        (worst_chain <= 1.0,
         f"max periodic-point distance / (M d) {worst_chain:.6g} <= 1"),
    ])


def test_06_splitting_without_dichotomy():
    # the drifting diagonal example carries the inclusion-style splitting
    # at (1, 1/2) yet fails the equality-invariance check on forward time;
    # the obstruction is the exact 2^{-m} growth of the frozen direction
    t0 = time.perf_counter()
    seq, cert = make_system("linear_no_ed", Window(-24, 24), 2.0)
    rep_cl = verify_cl_opseq(seq, cert, horizon=20, p=2.0)
    rep_ed = verify_dichotomy(seq, cert, side="Z+", horizon=20, p=2.0)
    exact = True
    for m in range(-20, 0):
        v = SeqVec.basis(seq.op_at(0).domain, 0, 2.0)
        for k in range(m, 0):
            v = op_apply(seq.op_at(k), v)
        exact = exact and norm(v) == 2.0 ** (-m)
    _report("splitting without dichotomy", 5.0, t0, [
        (rep_cl.passed, "splitting verifies at (1, 1/2)"),
        (not rep_ed.passed, "forward-time dichotomy check fails"),
        (exact, "frozen-direction growth is exactly 2^-m for m in [-20, -1]"),
    ])


def test_07_sequence_splitting_transfer():
    # dense perturbation within the contraction budget: tilts stay in the
    # predicted ball, inclusion residuals vanish to tolerance, the fixed
    # point contracts at ratio <= 1/2, and the rebuilt splitting verifies
    # at the relaxed constants; zero perturbation is returned bit-exactly
    t0 = time.perf_counter()
    W = Window(-25, 25)
    seq = make_linear_example_seq(W, range(-20, 21))
    cert = linear_example_cert(W)
    eps = 0.5 * perturbation_budget(1.0, 0.5, 2.0)
    rng = np.random.default_rng(0)
    pert = []
    for k in range(seq.lo, seq.hi):
        raw = rng.standard_normal((W.length, W.length))
        raw *= eps / np.linalg.norm(raw, 2)
        pert.append(dense(seq.op_at(k).to_dense_matrix() + raw, W))
    pseq = OperatorSeq(seq.lo, pert)
    pc = graph_transform_seq(seq, cert, pseq, 0.75, eps=eps)
    ball = 2.0 * series_gain(1.0, 0.5) * 1.0 * eps
    h_worst = max(op_norm(op, 2.0) for op in pc.graph.H.ops)
    incl_worst = max(pc.inclusion_residuals.values())
    vrep = verify_cl_opseq(pseq, pc.result, p=2.0)
    pc0 = graph_transform_seq(seq, cert, seq, 0.75)
    zero_exact = not any(op.to_dense_matrix().any()
                         for op in pc0.graph.H.ops + pc0.graph.H_u.ops)
    zero_exact = zero_exact and pc0.graph.attained == 0.0 and all(
        np.array_equal(pc0.result.proj_at(k).P.to_dense_matrix(),
                       cert.proj_at(k).P.to_dense_matrix())
        for k in range(seq.lo, seq.hi + 1))
    _report("sequence splitting transfer", 30.0, t0, [
        (h_worst <= ball,
         f"max tilt norm {h_worst:.3g} within 2 L' C eps = {ball:.3g}"),
        (incl_worst <= 1e-9,
         f"max inclusion residual {incl_worst:.3g} <= 1e-9"),
        (pc.meta["contraction_ratio"] <= 0.5 * (1.0 + 1e-9),
         f"contraction ratio {pc.meta['contraction_ratio']:.3g} <= 1/2"),
        (vrep.passed and pc.result.C == upgraded_constant(1.0, 0.5, 2.0, 0.75)
         and pc.result.lam == 0.75,
         f"rebuilt splitting verifies at ({pc.result.C:g}, {pc.result.lam:g})"),
        (zero_exact, "zero perturbation keeps the splitting bit-exactly"),
    ])


def test_08_map_splitting_transfer():
    # smooth 1e-4 perturbation of the weighted shift: the per-orbit
    # transfer certifies each of 10 seeded orbits of length 40 at the
    # relaxed decay rate (1 + lam)/2
    t0 = time.perf_counter()
    W = Window(-16, 56)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, name="wobbly_shift")
    lam1 = 0.5 * (1.0 + f.cert.lam)
    eps_worst, all_pass = 0.0, True
    for s in range(10):
        orbit = [_supported_start(f, s, scale=0.04, offsets=range(-2, 3))]
        for _ in range(40):
            orbit.append(g.forward(orbit[-1]))
        pc = perturbed_cl_for_diffeo(f, g, orbit, lam1)
        rep = verify_cl_diffeo(g, pc.result,
                               [orbit[10], orbit[20], orbit[30]], horizon=6)
        all_pass = all_pass and rep.passed
        eps_worst = max(eps_worst, pc.meta["eps_measured"])
    _report("map splitting transfer", 60.0, t0, [
        (eps_worst <= 1e-4 * (1.0 + 1e-9),
         f"measured perturbation {eps_worst:.3g} <= 1e-4"),
        (all_pass,
         f"all 10 orbit certificates verify at rate {lam1:g}"),
    ])


def test_09_displacement_pair_bounds():
    # displacement maps between the shift and its smooth perturbation at
    # distance d = 1e-4: norms within 2 L d, defining-equation residuals
    # within 1e-9, doubled tail truncation changes nothing beyond 1e-10,
    # and the self-comparison returns exact zeros
    t0 = time.perf_counter()
    W = Window(-48, 48)
    f = make_weighted_shift(LinearShiftFamily(), 0.5, 2.0, W)
    g = make_weighted_shift(SinPerturbedFamily(LinearShiftFamily(), 1e-4),
                            0.5002, 2.001, W, name="wobbly_shift")
    d = 1e-4
    x0 = _supported_start(f, 11, scale=0.03, offsets=range(-3, 3))
    job = make_conjugacy_job(f, g, x0, d=d, span=(0, 19))
    rows = semiconjugacy_report(job)
    assert len(rows) == 20
    ball = 2.0 * job.L * d
    worst_norm = max(max(r["h1_norm"], r["h2_norm"]) for r in rows)
    worst_res = max(max(r["residual1"], r["residual2"]) for r in rows)
    job2 = make_conjugacy_job(f, g, x0, d=d, span=(0, 19),
                              truncation=2 * job.truncation)
    worst_tail = 0.0
    for k in range(0, 20):
        x = job.orbit[k]
        for at in (h1_at, h2_at):
            a, b = at(job, x), at(job2, x)
            worst_tail = max(worst_tail,
                             norm(a.with_coeffs(a.coeffs - b.coeffs)))
    job0 = make_conjugacy_job(f, f, x0, d=d, span=(0, 3))
    self_zero = all(
        not h1_at(job0, job0.orbit[k]).coeffs.any()
        and not h2_at(job0, job0.orbit[k]).coeffs.any()
        for k in range(0, 4))
    _report("displacement pair bounds", 60.0, t0, [
        (worst_norm <= ball,
         f"max displacement norm {worst_norm:.3g} within 2 L d = {ball:.6g}"),
        (worst_res <= 1e-9,
         f"max defining-equation residual {worst_res:.3g} <= 1e-9"),
        (worst_tail <= 1e-10,
         f"doubling the tail truncation moves values {worst_tail:.3g} "
         f"<= 1e-10"),
        (self_zero, "identical maps give exactly zero displacements"),
    ])


def test_10_conjugation_transport():
    # transporting the splitting through the coordinate wobble h keeps the
    # rate and rescales the constant to R1^2 C; the transported
    # certificate verifies on sampled orbits of the conjugated map
    t0 = time.perf_counter()
    sys = make_system("conjugated:weighted_shift_linear", Window(-24, 24),
                      2.0)
    R1 = 1.0 / (1.0 - 0.05)
    expected_C = R1 * R1 * 1.0
    pts = sample_interior_points(sys, 5, seed=1)
    rep = verify_cl_diffeo(sys, sys.cert, pts, horizon=8)
    _report("conjugation transport", 30.0, t0, [
        (sys.cert.lam == 0.5 and abs(sys.cert.C - expected_C) <= 1e-12,
         f"transported constants ({sys.cert.C:.10g}, {sys.cert.lam:g}) "
         f"match (R1^2 C, lam)"),
        (rep.passed, "transported certificate verifies on sampled orbits"),
    ])
