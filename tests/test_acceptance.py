"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line after its assertions so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import time

import numpy as np
import pytest

from conftest import forward_substitution_oracle
from timeschur import (
    LinearizationPolicy,
    Scheme,
    build_explicit,
    build_linear_system,
    build_uniform,
    cost_model,
    forced_riccati,
    global_residual,
    level_maps,
    linear_decay,
    lotka_volterra,
    ml_solve,
    newton_schur_solve,
    nonlinear_schur_newton_solve,
    petrov_galerkin_assemble,
    random_stable_linear,
    sequential_nonlinear_solve,
    sequential_solve,
)
from timeschur.bench import ExperimentSpec, emit_figure_data, run_weak_scaling
from timeschur.nonlinear import _interior_mask
from timeschur.schur import LevelSystem, assemble_schur, restriction_operator

BE = Scheme.backward_euler()
LV_BENCH = dict(alpha=3.0, beta=0.2, gamma=2.0, delta=0.1, u0=10.0, v0=40.0)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_01_direct_method_exactness():
    problems = [linear_decay(lam) for lam in (0.1, 1.0, 10.0)]
    problems += [random_stable_linear(m, seed=m) for m in (1, 2, 4)]
    start = time.monotonic()
    worst = 0.0
    for problem in problems:
        partition = build_uniform(1.0, 10**4, 100)
        assert partition.top_level == 2
        sys0 = build_linear_system(problem, partition.grids[0], BE)
        exact = sequential_solve(sys0)
        ml = ml_solve(sys0, partition)
        # Relative per time step: the trajectory rows set the scale.
        rel = np.max(np.max(np.abs(ml - exact), axis=1) / np.max(np.abs(exact), axis=1))
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, f"max relative error {worst:.2e}, {len(problems)} problems in {elapsed:.2f}s")


def test_02_petrov_galerkin_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(50):
        m = int(rng.integers(1, 6))
        n1 = int(rng.integers(2, 8))
        n0 = n1 * int(rng.integers(2, max(3, 50 // n1 + 1)))
        n0 = min(n0, 50)
        phis = rng.normal(size=(n0, m, m)) * (0.9 / np.sqrt(m))
        gs = rng.normal(size=(n0, m))
        sys0 = LevelSystem(0, phis, gs, rng.normal(size=m))
        partition = build_explicit([n0, n1], t_end=1.0)
        bounds = partition.subdomain_bounds(0)
        maps = level_maps(sys0, bounds)
        restr = restriction_operator(sys0, bounds)
        direct = assemble_schur(sys0, bounds)
        pg = petrov_galerkin_assemble(sys0, maps, restr, bounds)
        scale = np.max(np.abs(direct.phis)) + 1e-30
        worst = max(worst, float(np.max(np.abs(direct.phis - pg.phis)) / scale))
        gscale = np.max(np.abs(direct.gs)) + 1e-30
        worst = max(worst, float(np.max(np.abs(direct.gs - pg.gs)) / gscale))
    assert worst <= 1e-12
    report(2, f"50 random systems agree blockwise to {worst:.2e}")


def test_03_newton_schur_one_shot_on_linear_problems():
    policy = LinearizationPolicy(mode="newton")
    for problem in (linear_decay(1.0), random_stable_linear(3, seed=7)):
        partition = build_explicit([200, 10], t_end=1.0)
        _, rep = newton_schur_solve(problem, partition, BE, policy)
        assert rep.outer_iterations == 1
    report(3, "exactly 1 outer iteration on linear problems")


def test_04_riccati_accuracy_and_convergence_history(tmp_path):
    problem = forced_riccati()
    policy = LinearizationPolicy()
    start = time.monotonic()
    errors = {}
    for n0 in (500, 1000):
        partition = build_explicit([n0, 15], t_end=2 * np.pi)
        traj, rep = newton_schur_solve(problem, partition, Scheme.dg(0), policy)
        assert rep.converged and rep.residual_final < 1e-8
        errors[n0] = float(np.max(np.abs(traj[:, 0] - np.sin(partition.grids[0]))))
    elapsed = time.monotonic() - start
    ratio = errors[500] / errors[1000]
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2
    rows, csv_path, _ = emit_figure_data("convergence", ExperimentSpec(),
                                         tmp_path / "convergence.csv")
    assert csv_path.exists() and rows[-1][2] < 1e-8
    assert elapsed < 2.0
    report(4, f"residual < 1e-8, error ratio {ratio:.2f}, history CSV, {elapsed:.2f}s")


def test_05_partition_independent_iteration_counts():
    policy = LinearizationPolicy()
    outcomes = {}
    for label, problem, n0, t_end in (
        ("riccati", forced_riccati(), 500, 2 * np.pi),
        ("lotka-volterra", lotka_volterra(**LV_BENCH), 1000, 3.0),
    ):
        counts = []
        for n1 in (2, 5, 10, 25):
            partition = build_explicit([n0, n1], t_end=t_end)
            _, rep = newton_schur_solve(problem, partition, BE, policy)
            counts.append(rep.outer_iterations)
        assert len(set(counts)) == 1, f"{label}: {counts}"
        outcomes[label] = counts[0]
    report(5, f"literal count equality across n1 in 2,5,10,25: {outcomes}")


def test_06_nonlinear_solver_agreement_and_weak_scaling():
    problem = lotka_volterra(**LV_BENCH)
    policy = LinearizationPolicy()
    partition = build_explicit([2000, 20], t_end=3.0)
    seq, _ = sequential_nonlinear_solve(problem, partition.grids[0], BE, policy)
    gns, _ = newton_schur_solve(problem, partition, BE, policy)
    nls, _ = nonlinear_schur_newton_solve(problem, partition, 1, BE, policy)
    pairwise = max(
        float(np.max(np.abs(seq - gns))),
        float(np.max(np.abs(seq - nls))),
        float(np.max(np.abs(gns - nls))),
    )
    assert pairwise <= 1e-6
    spec = ExperimentSpec(problem="lotka-volterra", solver="newton-schur", reps=3)
    rows = run_weak_scaling(spec, [2, 4, 8], 50)
    walls = [float(r["wall_s_max"]) for r in rows
             if r["variant"] == "parallel" and r["level"] == 0]
    spread = max(walls) / min(walls)
    assert spread <= 2.0
    report(6, f"pairwise agreement {pairwise:.2e}; level-0 wall spread {spread:.2f}x")


def test_07_interior_residual_property():
    problem = forced_riccati()
    partition = build_explicit([500, 10], t_end=2 * np.pi)
    policy = LinearizationPolicy()
    traj, rep = nonlinear_schur_newton_solve(problem, partition, 1, BE, policy)
    assert rep.interior_residual_history, "no per-iteration record"
    assert all(v <= 1e-10 for v in rep.interior_residual_history)
    assert rep.residual_history[0] > 1e-10  # the global norm starts above it
    res, _ = global_residual(problem, traj, partition.grids[0], BE)
    interior = _interior_mask(partition, 1)
    assert np.max(np.linalg.norm(res, axis=1)[interior]) <= 1e-10
    report(7, f"interior rows <= 1e-10 through {len(rep.residual_history)} iterations")


def test_08_determinism_across_worker_counts():
    problem = lotka_volterra(**LV_BENCH)
    partition = build_explicit([400, 8], t_end=3.0)
    policy = LinearizationPolicy()
    results = {}
    for workers in (1, 4):
        gns, rep_g = newton_schur_solve(problem, partition, BE, policy, workers=workers)
        nls, rep_n = nonlinear_schur_newton_solve(problem, partition, 1, BE, policy,
                                                  workers=workers)
        results[workers] = (gns, nls, rep_g.residual_history, rep_n.residual_history,
                            rep_g.outer_iterations, rep_n.outer_iterations)
    a, b = results[1], results[4]
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[2] == b[2] and a[3] == b[3]
    assert a[4] == b[4] and a[5] == b[5]
    report(8, "trajectories, histories and counts bitwise equal for workers 1 and 4")


def test_09_cost_model_values():
    partition = build_uniform(1.0, 10**4, 100)
    est = cost_model(partition, 2)
    assert est.flop_sequential == 6.0e4
    assert est.cpu_parallel == 2 * 100 * (2**2 + 2) * (1 + 2)
    assert est.speedup == est.processors / (est.levels * (1 + 2))
    assert est.speedup == 100 / 6
    report(9, f"FLOP_0 = {est.flop_sequential:.0f}, modeled speedup = {est.speedup:.4f}")


def test_10_decomposition_identity(tmp_path):
    rows, csv_path, script_path = emit_figure_data(
        "decomposition", ExperimentSpec(scheme="be"), tmp_path / "decomposition.csv")
    series = {}
    for t, name, value in rows:
        series.setdefault(name, []).append(value)
    full = np.array(series["full"])
    recombined = np.array(series["coarse"]) + np.array(series["fine"])
    worst = float(np.max(np.abs(full - recombined)))
    assert worst <= 1e-12
    assert csv_path.exists() and script_path.exists()
    # The figure's setup integrates du/dt = cos(t): the full series is sin-like.
    assert np.max(np.abs(full)) == pytest.approx(1.0, abs=0.05)
    report(10, f"fine + coarse reconstructs the solution to {worst:.2e}")
