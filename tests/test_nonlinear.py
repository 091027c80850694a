import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeschur import (
    LinearizationPolicy,
    NonconvergenceError,
    Scheme,
    SingularStepError,
    SolverReport,
    ValidationError,
    WorkerPool,
    build_explicit,
    build_linear_system,
    cosine_drive,
    forced_riccati,
    global_residual,
    linear_decay,
    linearize_global,
    lotka_volterra,
    ml_solve,
    newton_schur_solve,
    nonlinear_harmonic_extension,
    nonlinear_schur_newton_solve,
    random_stable_linear,
    sequential_nonlinear_solve,
    sequential_solve,
)
from timeschur import nonlinear, schur
from timeschur.nonlinear import (NON_FINITE, _extension_task, _march, _row_norms,
                                 _schur_row_task)

LV_BENCH = dict(alpha=3.0, beta=0.2, gamma=2.0, delta=0.1, u0=10.0, v0=40.0)
BE = Scheme.backward_euler()


def benchmark_lv():
    return lotka_volterra(**LV_BENCH)


class TestPolicy:
    def test_default_tolerances(self):
        policy = LinearizationPolicy()
        assert policy.mode == "hybrid"
        assert policy.switch_norm == 1e2
        assert policy.tol_global == 1e-8
        assert policy.tol_local == 1e-10

    @pytest.mark.parametrize("kwargs", [
        dict(mode="bogus"),
        dict(tol_global=0.0),
        dict(tol_local=-1e-9),
        dict(mode="hybrid", switch_norm=1e-9),
        dict(max_iters=0),
        # NaN compares false both ways; infinite tolerances stop nothing.
        dict(tol_global=np.nan),
        dict(tol_local=np.nan),
        dict(tol_local=np.inf),
        dict(mode="hybrid", switch_norm=np.nan),
        dict(max_iters=2.5),
        dict(max_inner=2.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            LinearizationPolicy(**kwargs)

    def test_hybrid_pick(self):
        policy = LinearizationPolicy(switch_norm=10.0)
        assert policy.pick_mode(10.0) == "picard"
        assert policy.pick_mode(9.999) == "newton"

    def test_picard_without_an_operator_is_one_error_for_every_solver(self):
        prob = cosine_drive()
        part = build_explicit([40, 4], t_end=1.0)
        policy = LinearizationPolicy(mode="picard")
        messages = set()
        for solve in (lambda: sequential_nonlinear_solve(prob, part.grids[0], BE, policy),
                      lambda: newton_schur_solve(prob, part, BE, policy),
                      lambda: nonlinear_schur_newton_solve(prob, part, 1, BE, policy)):
            with pytest.raises(ValidationError) as err:
                solve()
            messages.add(str(err.value))
        assert messages == {"problem 'cosine-drive' has no Picard operator; use mode='newton'"}


class TestSequentialSolve:
    def test_linear_problem_needs_one_newton_per_step(self):
        prob = random_stable_linear(2, seed=1)
        grid = np.linspace(0.0, 1.0, 101)
        _, report = sequential_nonlinear_solve(prob, grid, BE,
                                               LinearizationPolicy(mode="newton"))
        assert report.avg_iterations_per_step == pytest.approx(1.0)
        assert report.inner_newton == 100

    def test_riccati_matches_analytic_solution(self):
        prob = forced_riccati()
        grid = np.linspace(0.0, 2 * np.pi, 501)
        traj, report = sequential_nonlinear_solve(prob, grid, BE, LinearizationPolicy())
        err = np.max(np.abs(traj[:, 0] - np.sin(grid)))
        assert err < 0.2  # first order at dt ~ 0.0126
        assert report.residual_final <= 1e-8

    def test_lotka_volterra_stays_positive_and_matches_fine_reference(self):
        prob = benchmark_lv()
        coarse_grid = np.linspace(0.0, 3.0, 5001)
        fine_grid = np.linspace(0.0, 3.0, 50001)
        coarse, _ = sequential_nonlinear_solve(prob, coarse_grid, BE, LinearizationPolicy())
        fine, _ = sequential_nonlinear_solve(prob, fine_grid, BE, LinearizationPolicy())
        assert np.all(coarse > 0.0)
        assert np.max(coarse) < 100.0
        rel = np.linalg.norm(coarse - fine[::10]) / np.linalg.norm(fine[::10])
        assert rel < 0.02

    def test_non_finite_residual_stops_at_once(self):
        prob = replace(benchmark_lv(), u0=np.array([np.nan, 40.0]))
        with pytest.raises(NonconvergenceError) as err:
            sequential_nonlinear_solve(prob, np.linspace(0.0, 3.0, 11), BE)
        assert err.value.reason == NON_FINITE and err.value.iterations == 0
        assert "time step 1" in str(err.value) and NON_FINITE in str(err.value)

    def test_singular_step_raises_typed_error_with_times(self):
        with pytest.raises(SingularStepError) as err:
            sequential_nonlinear_solve(linear_decay(-10.0), np.linspace(0.0, 1.0, 11), BE)
        assert (err.value.t_start, err.value.t_end) == (0.0, 0.1)

    @pytest.mark.parametrize("grid", [[0.0], [0.0, 0.5, 0.4], [0.0, 0.0, 1.0], [0.0, np.nan]])
    def test_rejects_grids_without_positive_steps(self, grid):
        with pytest.raises(ValidationError, match="positive width"):
            sequential_nonlinear_solve(forced_riccati(), np.array(grid), BE)

    def test_nonconvergence_names_the_step(self):
        prob = benchmark_lv()
        grid = np.linspace(0.0, 3.0, 11)
        policy = LinearizationPolicy(mode="newton", max_inner=1)
        with pytest.raises(NonconvergenceError) as err:
            sequential_nonlinear_solve(prob, grid, BE, policy)
        assert "time step" in str(err.value)


class TestGlobalResidual:
    def test_exact_linear_trajectory_has_tiny_residual(self):
        prob = random_stable_linear(2, seed=2)
        part = build_explicit([50, 5], t_end=1.0)
        sys0 = build_linear_system(prob, part.grids[0], BE)
        traj = sequential_solve(sys0)
        _, norm = global_residual(prob, traj, part.grids[0], BE)
        assert norm <= 1e-12

    def test_sequential_output_meets_global_tolerance(self):
        prob = benchmark_lv()
        grid = np.linspace(0.0, 3.0, 2001)
        traj, _ = sequential_nonlinear_solve(prob, grid, BE, LinearizationPolicy())
        _, norm = global_residual(prob, traj, grid, BE)
        assert norm <= 1e-8

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_in_place_rows_are_the_formula_bitwise(self, theta):
        # Uneven steps and a trajectory off the solution, so every term counts.
        prob, scheme = benchmark_lv(), Scheme.theta_method(theta)
        rng = np.random.default_rng(3)
        grid = np.cumsum(np.concatenate([[0.0], rng.uniform(0.001, 0.002, 2000)]))
        traj = rng.uniform(1.0, 50.0, (2001, 2))
        kappas = nonlinear.kappa_batch(prob, grid, traj)
        dt = np.diff(grid)[:, None]
        formula = traj[1:] - traj[:-1] + dt * (theta * kappas[1:] + (1.0 - theta) * kappas[:-1])
        res, norm = global_residual(prob, traj, grid, scheme)
        assert np.array_equal(res, formula)
        assert norm == float(np.sqrt(np.sum(formula * formula)))

    def test_perturbation_is_local_to_two_rows(self):
        prob = benchmark_lv()
        grid = np.linspace(0.0, 3.0, 101)
        traj, _ = sequential_nonlinear_solve(prob, grid, BE, LinearizationPolicy())
        bumped = traj.copy()
        bumped[40, 0] += 1.0
        res, _ = global_residual(prob, bumped, grid, BE)
        row_norms = np.linalg.norm(res, axis=1)
        touched = np.nonzero(row_norms > 1e-9)[0]
        assert set(touched) == {39, 40}  # rows of steps 40 and 41

    @pytest.mark.parametrize("m", range(1, 8))
    def test_row_norms_are_numpys_bitwise(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=(256, m))  # rows of one scale, where the order of the sums shows
        a[128:] *= 10.0 ** rng.integers(-130, 131, size=(128, m))
        a[1, 0], a[2, -1], a[3, 0], a[4] = np.nan, np.inf, 1e200, -np.inf  # 1e200**2 overflows
        a[5, :] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.linalg.norm(a, axis=1)
            got = _row_norms(a)
        assert np.isinf(expected[3])
        assert got.tobytes() == expected.tobytes()


class TestNewtonSchur:
    def test_linear_problem_converges_in_one_iteration(self):
        prob = random_stable_linear(3, seed=3)
        part = build_explicit([64, 8], t_end=1.0)
        policy = LinearizationPolicy(mode="newton")
        traj, report = newton_schur_solve(prob, part, BE, policy)
        assert report.outer_iterations == 1
        sys0 = build_linear_system(prob, part.grids[0], BE)
        direct = ml_solve(sys0, part)
        assert np.max(np.abs(traj - direct)) <= 1e-12

    def test_riccati_fifteen_subdomains_matches_sequential(self):
        prob = forced_riccati()
        part = build_explicit([500, 15], t_end=2 * np.pi)
        policy = LinearizationPolicy()
        traj, report = newton_schur_solve(prob, part, Scheme.dg(0), policy)
        assert report.residual_final < 1e-8
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE, policy)
        assert np.max(np.abs(traj - seq)) <= 1e-6

    def test_iteration_count_is_partition_independent(self):
        prob = forced_riccati()
        counts = []
        for n1 in (5, 15, 25):
            part = build_explicit([500, n1], t_end=2 * np.pi)
            _, report = newton_schur_solve(prob, part, BE, LinearizationPolicy())
            counts.append(report.outer_iterations)
        assert counts[0] == counts[1] == counts[2]

    def test_hybrid_switch_happens_at_the_threshold(self):
        prob = benchmark_lv()
        part = build_explicit([400, 8], t_end=3.0)
        policy = LinearizationPolicy(mode="hybrid", switch_norm=1e2)
        far = np.tile([40.0, 160.0], (401, 1))
        _, report = newton_schur_solve(prob, part, BE, policy, initial=far)
        assert report.picard_iterations >= 1
        assert report.mode_history[0] == "picard"
        assert "newton" in report.mode_history
        for mode, norm in zip(report.mode_history, report.residual_history):
            assert mode == ("picard" if norm >= 1e2 else "newton")

    def test_requires_two_levels(self):
        prob = forced_riccati()
        with pytest.raises(ValidationError):
            newton_schur_solve(prob, build_explicit([50], t_end=1.0), BE)

    def test_nonconvergence_raises(self):
        prob = benchmark_lv()
        part = build_explicit([200, 4], t_end=3.0)
        policy = LinearizationPolicy(mode="newton", max_iters=1)
        with pytest.raises(NonconvergenceError):
            newton_schur_solve(prob, part, BE, policy)

    def test_non_finite_residual_stops_at_once(self):
        part = build_explicit([100, 4], t_end=1.0)
        with pytest.raises(NonconvergenceError) as err:
            newton_schur_solve(linear_decay(np.nan), part, BE)
        assert err.value.reason == NON_FINITE and err.value.iterations == 0
        assert "global linearization loop" in str(err.value)


class TestHarmonicExtension:
    def test_linear_problem_extends_in_one_pass(self):
        prob = random_stable_linear(2, seed=4)
        part = build_explicit([40, 4], t_end=1.0)
        policy = LinearizationPolicy(mode="newton")
        sys0 = build_linear_system(prob, part.grids[0], BE)
        direct = ml_solve(sys0, part)
        bounds = part.subdomain_bounds(0)
        for i in range(4):
            a, b = bounds[i], bounds[i + 1]
            warm = np.tile(prob.u0, (b - a, 1))
            values, _, _ = nonlinear_harmonic_extension(prob, part, 0, i, direct[a], warm, BE,
                                                        policy)
            assert np.allclose(values, direct[a:b], atol=1e-10)

    def test_matches_standalone_window_solve(self):
        from dataclasses import replace
        prob = forced_riccati()
        part = build_explicit([50, 5], t_end=2 * np.pi)
        policy = LinearizationPolicy()
        inflow = np.array([0.5])
        warm = np.tile(inflow, (10, 1))
        values, _, _ = nonlinear_harmonic_extension(prob, part, 0, 2, inflow, warm, BE, policy)
        window = part.grids[0][20:31]
        standalone = replace(prob, u0=inflow)
        tight = LinearizationPolicy(tol_global=1e-12)
        ref, _ = sequential_nonlinear_solve(standalone, window, BE, tight)
        assert np.max(np.abs(values - ref[:10])) <= 1e-8

    def test_interior_rows_meet_local_tolerance(self):
        prob = forced_riccati()
        part = build_explicit([60, 6], t_end=2 * np.pi)
        policy = LinearizationPolicy()
        grid = part.grids[0]
        fine = part.fine_nodes(1)
        state = np.tile(prob.u0, (61, 1))
        for i in range(6):
            a, b = fine[i], fine[i + 1]
            state[a:b], _, _ = nonlinear_harmonic_extension(prob, part, 0, i, state[a],
                                                            state[a:b].copy(), BE, policy)
        res, _ = global_residual(prob, state, grid, BE)
        row_norms = np.linalg.norm(res, axis=1)
        interior = np.ones(61, dtype=bool)
        interior[fine] = False
        assert np.max(row_norms[interior[1:]]) <= policy.tol_local

    @pytest.mark.parametrize("level, index", [(3, 0), (2, 0), (-1, 0), (0, 4), (1, 2), (0, -1)])
    def test_rejects_level_or_index_out_of_range(self, level, index):
        part = build_explicit([40, 4, 2], t_end=1.0)
        with pytest.raises(ValidationError, match="outside"):
            nonlinear_harmonic_extension(forced_riccati(), part, level, index, np.zeros(1),
                                         np.zeros((10, 1)), BE, LinearizationPolicy())

    @pytest.mark.parametrize("inflow", [np.zeros(3), np.zeros((1, 2)), 10.0])
    def test_rejects_inflow_of_wrong_shape(self, inflow):
        part = build_explicit([40, 4], t_end=3.0)
        with pytest.raises(ValidationError, match="inflow must have shape"):
            nonlinear_harmonic_extension(benchmark_lv(), part, 0, 0, inflow, np.ones((10, 2)),
                                         BE, LinearizationPolicy())


def run_against_single_windows(prob, part, level, inflows, warm, policy):
    """Extend the level-(level+1) windows as one run and one at a time, and march each.

    The run gives every window's one-window values, bitwise, and the sums of
    their counts. Returns the extended run, the per-window ``(picard, newton)``
    counts of the extensions, the marched windows in one array and the
    per-window counts of marching.
    """
    fine = part.fine_nodes(level + 1)
    ts = part.grids[0][:fine[-1]]
    values, picard, newton, _ = _extension_task(prob, part, level, 0, part.counts[level + 1],
                                                inflows, warm, 1.0, policy)
    marched = np.empty_like(values)
    counts, marched_counts = [], []
    for i, (a, b) in enumerate(zip(fine, fine[1:])):
        one, one_picard, one_newton = nonlinear_harmonic_extension(
            prob, part, level, i, inflows[i], warm[a:b], BE, policy)
        assert np.array_equal(values[a:b], one)
        counts.append((one_picard, one_newton))
        marched[a:b], one_picard, one_newton = _march(prob, ts[a:b], inflows[i], warm[a:b], 1.0,
                                                      policy, policy.tol_local, str)
        marched_counts.append((one_picard, one_newton))
    assert (picard, newton) == tuple(map(sum, zip(*counts)))
    return values, counts, marched, marched_counts


class TestLockstepExtension:
    """Level-0 windows as one run against one window at a time, and marched
    against time-marching."""

    @staticmethod
    def _run_against_single_windows(prob, part, inflows, warm, policy):
        _, counts, marched, marched_counts = run_against_single_windows(prob, part, 0, inflows,
                                                                        warm, policy)
        grid = part.grids[0]
        fine = part.fine_nodes(1)
        for i, (a, b) in enumerate(zip(fine, fine[1:])):
            # Marching one step at a time gives the same iterates.
            stepwise = [inflows[i]]
            for j in range(a + 1, b):
                u, _, _ = _march(prob, grid[j - 1:j + 1], stepwise[-1], warm[j - 1:j + 1],
                                 1.0, policy, policy.tol_local, str)
                stepwise.append(u[1])
            assert np.array_equal(marched[a:b], np.stack(stepwise))
        return counts, marched_counts

    def test_lotka_volterra_windows_mixing_picard_and_newton(self):
        prob = benchmark_lv()
        part = build_explicit([43, 4], t_end=3.0)  # windows of 10, 10, 10 and 13 steps
        bounds = part.subdomain_bounds(0)
        inflows = np.array([[10.0, 40.0], [30.0, 5.0], [8.0, 20.0], [2.0, 9.0]])
        # Far guesses put windows 1 and 3 above the Picard switch.
        warm = np.concatenate([np.tile(g, (b - a, 1)) for g, a, b in zip(
            [inflows[0], [400.0, 900.0], inflows[2], [300.0, 200.0]], bounds, bounds[1:])])
        counts, marched = self._run_against_single_windows(prob, part, inflows, warm,
                                                           LinearizationPolicy())
        assert counts[0][0] == 0 and counts[3][0] > 0 and counts[3][1] > 0
        assert marched[0][0] == 0 and marched[1][0] > 0 and marched[3][0] > 0
        assert len(set(marched)) == len(marched)

    def test_riccati_windows_with_different_inner_counts(self):
        prob = forced_riccati()
        part = build_explicit([43, 4], t_end=2 * np.pi)
        bounds = part.subdomain_bounds(0)
        inflows = np.array([[0.0], [0.9], [-0.4], [-0.8]])
        warm = np.concatenate([np.full((b - a, 1), g)
                               for g, a, b in zip([0.0, 3.0, -0.4, 2.0], bounds, bounds[1:])])
        counts, marched = self._run_against_single_windows(prob, part, inflows, warm,
                                                           LinearizationPolicy())
        assert len(set(counts)) > 1 and len(set(marched)) > 1

    def test_schur_rows_of_a_run_equal_single_window_rows(self):
        prob = benchmark_lv()
        part = build_explicit([43, 4], t_end=3.0)
        grid = part.grids[0]
        fine = part.fine_nodes(1)
        traj, _ = sequential_nonlinear_solve(prob, grid, BE)
        blocks, rhs = schur_rows(prob, grid, traj, fine, 1.0, False)
        for i, (a, b) in enumerate(zip(fine, fine[1:])):
            one_blocks, one_rhs = schur_rows(prob, grid[a:b + 1], traj[a:b + 1],
                                             np.array([0, b - a]), 1.0, False)
            assert np.array_equal(blocks[i], one_blocks[0])
            assert np.array_equal(rhs[i], one_rhs[0])

    def test_non_finite_inflow_stops_at_once(self):
        prob = benchmark_lv()
        part = build_explicit([40, 4], t_end=3.0)
        warm = np.tile(prob.u0, (10, 1))
        with pytest.raises(NonconvergenceError) as err:
            nonlinear_harmonic_extension(prob, part, 0, 2, np.array([np.nan, 1.0]), warm, BE,
                                         LinearizationPolicy())
        assert err.value.reason == NON_FINITE and err.value.iterations == 0
        assert "element 2" in str(err.value)

    def test_singular_step_carries_the_element_times(self):
        part = build_explicit([10, 2], t_end=1.0)
        with pytest.raises(SingularStepError) as err:
            nonlinear_harmonic_extension(linear_decay(-10.0), part, 0, 0, np.ones(1),
                                         np.ones((5, 1)), BE, LinearizationPolicy())
        assert (err.value.t_start, err.value.t_end) == (0.0, 0.1)


class TestNestedExtension:
    """Level-1 windows as one run against one window at a time."""

    @staticmethod
    def _warm(part, guesses):
        fine = part.fine_nodes(2)
        return np.concatenate([np.tile(g, (b - a, 1)) for g, a, b in zip(guesses, fine, fine[1:])])

    def test_lotka_volterra_ragged_windows(self):
        prob = benchmark_lv()
        part = build_explicit([103, 10, 3], t_end=3.0)  # children of 3, 3 and 4 windows
        inflows = np.array([[10.0, 40.0], [12.0, 6.0], [6.0, 30.0]])
        warm = self._warm(part, [inflows[0], [60.0, 90.0], inflows[2]])
        *_, marched = run_against_single_windows(prob, part, 1, inflows, warm,
                                                 LinearizationPolicy())
        assert len(set(marched)) == len(marched)

    def test_riccati_ragged_windows(self):
        prob = forced_riccati()
        part = build_explicit([103, 10, 3], t_end=2 * np.pi)
        inflows = np.array([[0.0], [0.9], [-0.4]])
        warm = self._warm(part, [[0.0], [0.9], [-0.8]])
        _, counts, _, marched = run_against_single_windows(prob, part, 1, inflows, warm,
                                                           LinearizationPolicy())
        assert len(set(counts)) > 1 and len(set(marched)) > 1


class TestWindowNewton:
    """Window Newton against its guard, the level of its windows and any grouping."""

    def test_diverging_windows_fall_back_to_marching(self, monkeypatch):
        # Undamped window Newton diverges on these long, coarse windows; time
        # marching converges on them.
        marched = []

        def spy(problem, ts, inflow, warm, th, policy, tol, where):
            if warm is not None:  # a window, not the sequential solve's whole grid
                marched.append(where(1))  # names the marched window
            return _march(problem, ts, inflow, warm, th, policy, tol, where)

        monkeypatch.setattr(nonlinear, "_march", spy)
        prob = benchmark_lv()
        part = build_explicit([40, 2], t_end=20.0)
        traj, report = nonlinear_schur_newton_solve(prob, part, 1, BE)
        # Both windows of the first extension, from the flat initial guess;
        # window Newton alone extends the later, closer guesses.
        assert marched == ["nonlinear extension (level 0, element 0, t=0.5)",
                           "nonlinear extension (level 0, element 1, t=10.5)"]
        assert report.outer_iterations > 1
        assert report.residual_final < 1e-8
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE)
        assert np.max(np.abs(traj - seq)) <= 1e-6 * np.max(np.abs(seq))

    @pytest.mark.parametrize("make, deep, flat, t_end", [
        (benchmark_lv, [2000, 100, 10], [2000, 10], 3.0),
        (forced_riccati, [240, 24, 6], [240, 6], 2 * np.pi),
    ])
    def test_level_k_solve_equals_level_one_solve_on_the_same_windows(self, make, deep, flat,
                                                                       t_end):
        deep, flat = build_explicit(deep, t_end=t_end), build_explicit(flat, t_end=t_end)
        assert np.array_equal(deep.fine_nodes(2), flat.fine_nodes(1))
        a, rep_a = nonlinear_schur_newton_solve(make(), deep, 2, BE)
        b, rep_b = nonlinear_schur_newton_solve(make(), flat, 1, BE)
        assert np.array_equal(a, b)
        assert rep_a.residual_history == rep_b.residual_history
        assert (rep_a.inner_picard, rep_a.inner_newton) == (rep_b.inner_picard,
                                                            rep_b.inner_newton)

    @settings(max_examples=30, deadline=None)
    @given(
        n0=st.integers(min_value=20, max_value=80),
        n1=st.integers(min_value=2, max_value=9),
        n2=st.integers(min_value=1, max_value=4),
        k=st.sampled_from([1, 2]),
        far=st.lists(st.booleans(), min_size=9, max_size=9),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_interior_rows_and_runs_for_any_windows(self, n0, n1, n2, k, far, seed):
        # Ragged windows; far warm starts put their windows on Picard steps.
        prob = benchmark_lv()
        part = build_explicit([n0, n1, min(n1, n2)], t_end=3.0)
        fine = part.fine_nodes(k)
        rng = np.random.default_rng(seed)
        inflows = prob.u0 * rng.uniform(0.5, 1.5, size=(len(fine) - 1, 2))
        owner = np.repeat(np.arange(len(fine) - 1), np.diff(fine))
        scale = np.where(far[:len(fine) - 1], 4.0, 1.0)[owner, None]
        warm = inflows[owner] * scale * rng.uniform(0.95, 1.05, size=(n0, 2))
        policy = LinearizationPolicy()
        values, _, _, _ = run_against_single_windows(prob, part, k - 1, inflows, warm, policy)
        res, _ = global_residual(prob, values, part.grids[0][:n0], BE)
        interior = np.ones(n0, dtype=bool)
        interior[fine[:-1]] = False
        assert np.max(np.linalg.norm(res, axis=1)[interior[1:]], initial=0.0) \
            <= policy.tol_local


class TestNonlinearSchurNewton:
    def test_linear_problem_converges_in_one_outer_iteration(self):
        prob = random_stable_linear(2, seed=6)
        part = build_explicit([60, 6], t_end=1.0)
        policy = LinearizationPolicy(mode="newton")
        traj, report = nonlinear_schur_newton_solve(prob, part, 1, BE, policy)
        assert report.outer_iterations == 1
        sys0 = build_linear_system(prob, part.grids[0], BE)
        assert np.max(np.abs(traj - ml_solve(sys0, part))) <= 1e-10

    def test_riccati_agrees_with_newton_schur(self):
        prob = forced_riccati()
        part = build_explicit([500, 15], t_end=2 * np.pi)
        policy = LinearizationPolicy()
        a, rep_a = newton_schur_solve(prob, part, Scheme.dg(0), policy)
        b, rep_b = nonlinear_schur_newton_solve(prob, part, 1, Scheme.dg(0), policy)
        assert rep_b.residual_final < policy.tol_global
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_interior_rows_stay_converged_each_iteration(self):
        prob = forced_riccati()
        part = build_explicit([200, 10], t_end=2 * np.pi)
        policy = LinearizationPolicy()
        _, report = nonlinear_schur_newton_solve(prob, part, 1, BE, policy)
        assert len(report.interior_residual_history) == len(report.residual_history)
        assert all(v <= policy.tol_local for v in report.interior_residual_history)
        assert report.residual_history[0] > policy.tol_global

    def test_level_two_solver_on_three_level_partition(self):
        prob = forced_riccati()
        part = build_explicit([120, 12, 3], t_end=2 * np.pi)
        policy = LinearizationPolicy()
        traj, report = nonlinear_schur_newton_solve(prob, part, 2, BE, policy)
        assert report.residual_final < policy.tol_global
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE, policy)
        assert np.max(np.abs(traj - seq)) <= 1e-6

    def test_level_three_solver_recurses_through_four_levels(self):
        prob = forced_riccati()
        part = build_explicit([240, 24, 6, 2], t_end=2 * np.pi)
        policy = LinearizationPolicy()
        traj, report = nonlinear_schur_newton_solve(prob, part, 3, BE, policy)
        assert report.residual_final < policy.tol_global
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE, policy)
        assert np.max(np.abs(traj - seq)) <= 1e-6

    def test_rejects_bad_level(self):
        prob = forced_riccati()
        part = build_explicit([60, 6], t_end=1.0)
        with pytest.raises(ValidationError):
            nonlinear_schur_newton_solve(prob, part, 2, BE)
        with pytest.raises(ValidationError):
            nonlinear_schur_newton_solve(prob, part, 0, BE)

    def test_non_vectorized_problem_gives_the_same_trajectory(self):
        prob = benchmark_lv()
        part = build_explicit([300, 7], t_end=3.0)
        a, rep_a = nonlinear_schur_newton_solve(prob, part, 1, BE)
        b, rep_b = nonlinear_schur_newton_solve(replace(prob, vectorized=False), part, 1, BE)
        assert np.array_equal(a, b)
        assert rep_a.residual_history == rep_b.residual_history
        assert (rep_a.inner_picard, rep_a.inner_newton) == (rep_b.inner_picard,
                                                            rep_b.inner_newton)

    def test_lotka_volterra_benchmark_instance_converges(self):
        prob = benchmark_lv()
        part = build_explicit([1000, 20], t_end=3.0)
        policy = LinearizationPolicy()
        traj, report = nonlinear_schur_newton_solve(prob, part, 1, BE, policy)
        assert report.residual_final < 1e-8
        assert report.per_level_max  # per-level timings recorded
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE, policy)
        assert np.max(np.abs(traj - seq)) <= 1e-6


def spy_on_extensions(monkeypatch):
    """Record each ``_extension_task`` call's inner iterations."""
    iterations = []
    real = nonlinear._extension_task

    def spy(*args):
        values, picard, newton, kappas = real(*args)
        iterations.append(picard + newton)
        return values, picard, newton, kappas

    monkeypatch.setattr(nonlinear, "_extension_task", spy)
    return iterations


class TestPredictedStart:
    """Extensions start from the Newton predictor ``w + E dz`` of the last update."""

    @pytest.mark.parametrize("make", [lambda: linear_decay(1.0),
                                      lambda: random_stable_linear(2, seed=0), cosine_drive])
    def test_affine_problem_extends_without_iterating(self, make, monkeypatch):
        # The predictor solves an affine window exactly, up to round-off.
        iterations = spy_on_extensions(monkeypatch)
        part = build_explicit([400, 8], t_end=1.0)
        _, report = nonlinear_schur_newton_solve(make(), part, 1, BE)
        assert report.outer_iterations == 1 and report.residual_final < 1e-8
        assert len(iterations) == 2 and iterations[0] > 0 and iterations[1] == 0

    def test_non_finite_warm_start_does_not_march_a_converging_prediction(self, monkeypatch):
        prob = benchmark_lv()
        part = build_explicit([40, 4], t_end=3.0)
        grid, fine = part.grids[0], part.fine_nodes(1)
        seq, _ = sequential_nonlinear_solve(prob, grid, BE)
        monkeypatch.setattr(nonlinear, "_march", None)  # no window marches
        policy = LinearizationPolicy()
        values, _, newton, _ = _extension_task(prob, part, 0, 0, 4, seq[fine[:-1]],
                                               np.full((40, 2), np.inf), 1.0, policy,
                                               seq[:-1] * 1.01)
        res, _ = global_residual(prob, values, grid[:-1], BE)
        interior = np.ones(40, dtype=bool)
        interior[fine[:-1]] = False
        assert newton > 0
        assert np.max(np.linalg.norm(res, axis=1)[interior[1:]]) <= policy.tol_local

    @staticmethod
    def _solve_on_one_and_two_workers(counts, k, t_end):
        part = build_explicit(counts, t_end=t_end)
        one, rep_one = nonlinear_schur_newton_solve(benchmark_lv(), part, k, BE, workers=1)
        two, rep_two = nonlinear_schur_newton_solve(benchmark_lv(), part, k, BE, workers=2)
        assert np.array_equal(one, two)
        assert rep_one.residual_history == rep_two.residual_history
        assert (rep_one.inner_picard, rep_one.inner_newton) == (rep_two.inner_picard,
                                                                rep_two.inner_newton)
        assert rep_one.residual_final < 1e-8
        return rep_one

    def test_lotka_volterra_keeps_its_outer_iterations_with_fewer_inner(self):
        report = self._solve_on_one_and_two_workers([2000, 20], 1, 3.0)
        # From the old interior values the extensions took 184 inner
        # iterations, from a coarse start in the fine scheme 111, and from a
        # 50-element matched start 72 in 3 outer iterations.
        assert report.outer_iterations == 2
        assert report.inner_picard + report.inner_newton <= 60

    def test_lotka_volterra_three_periods_at_level_two(self):
        report = self._solve_on_one_and_two_workers([4000, 40, 5], 2, 8.0)
        # The warm start's residual bounds the predicted one's; without that
        # bar the solve took 7,244 inner iterations.
        assert report.inner_picard + report.inner_newton <= 4878


def schur_rows(problem, ts, us, bounds, th, use_picard):
    """``_schur_row_task``'s ``(phis, gs)`` whose column is the negative closing residuals,
    zero elsewhere."""
    scheme = Scheme.theta_method(th)
    res, _ = global_residual(problem, us, ts, scheme)
    closing = np.zeros_like(res)
    closing[bounds[1:] - 1] = res[bounds[1:] - 1]
    rows, _ = _schur_row_task(problem, us, ts, scheme, closing, use_picard, bounds)
    return rows.phis, rows.gs


def schur_rows_reference(problem, ts, us, bounds, th, use_picard):
    """Coarse steps of each window by a plain loop over its steps.

    Each window chains its normalized steps ``D^{-1} O`` in turn (the closing
    step last); its right-hand side is the closing step's negative one-step
    residual, normalized by the closing step matrix.
    """
    eye = np.eye(problem.m_unk)

    def node_matrix(i):
        if use_picard:
            return np.asarray(problem.picard_matrix(ts[i], us[i]), dtype=float)
        return np.asarray(problem.jacobian(ts[i], us[i]), dtype=float)

    phis, gs = [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        chain = eye
        for i in range(a, b):
            dt = ts[i + 1] - ts[i]
            diag = eye + dt * th * node_matrix(i + 1)
            off = eye - dt * (1.0 - th) * node_matrix(i)
            chain = np.linalg.solve(diag, off) @ chain
        i = b - 1
        residual = us[b] - us[i] + (ts[b] - ts[i]) * (
            th * np.asarray(problem.kappa(ts[b], us[b]))
            + (1.0 - th) * np.asarray(problem.kappa(ts[i], us[i])))
        phis.append(chain)
        gs.append(np.linalg.solve(diag, -residual))
    return np.stack(phis), np.stack(gs)


class TestSchurRows:
    """``_schur_row_task`` against the per-window chain loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
        cuts=st.lists(st.booleans(), min_size=5, max_size=5),
        m=st.sampled_from([1, 2]),
        use_picard=st.booleans(),
        th=st.sampled_from([1.0, 0.5]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_chain_loop_for_any_windows(self, lengths, cuts, m, use_picard, th,
                                                 seed):
        # Ragged windows, windows of one step, Picard and Newton rows.
        rng = np.random.default_rng(seed)
        prob = forced_riccati() if m == 1 else benchmark_lv()
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, bounds[-1]))])
        size = (bounds[-1] + 1, m)
        us = prob.u0 * (1.0 + 0.3 * rng.normal(size=size)) + 0.3 * rng.normal(size=size)
        phis, gs = schur_rows(prob, ts, us, bounds, th, use_picard)
        ref_phis, ref_gs = schur_rows_reference(prob, ts, us, bounds, th, use_picard)
        assert np.max(np.abs(phis - ref_phis)) <= 1e-14 * np.max(np.abs(ref_phis))
        assert np.max(np.abs(gs - ref_gs)) <= 1e-14 * np.max(np.abs(ref_gs))
        # Any grouping of the windows into runs gives the same rows, bitwise.
        edges = [0] + [j for j, cut in enumerate(cuts[:len(lengths) - 1], 1) if cut] \
            + [len(lengths)]
        for i, j in zip(edges[:-1], edges[1:]):
            a, b = bounds[i], bounds[j]
            part_phis, part_gs = schur_rows(prob, ts[a:b + 1], us[a:b + 1],
                                            bounds[i:j + 1] - a, th, use_picard)
            assert np.array_equal(part_phis, phis[i:j])
            assert np.array_equal(part_gs, gs[i:j])

    @pytest.mark.parametrize("scheme", [BE, Scheme.theta_method(0.5)])
    @pytest.mark.parametrize("use_picard", [False, True])
    def test_one_step_windows_give_the_global_linearization(self, scheme, use_picard,
                                                            monkeypatch):
        # newton-schur is the Schur loop at level 0 and rests on this identity.
        monkeypatch.setattr(nonlinear, "reduce_level", None)  # no up-sweep runs
        prob = benchmark_lv()
        grid = np.linspace(0.0, 3.0, 41)
        rng = np.random.default_rng(5)
        traj = prob.u0 * (1.0 + 0.3 * rng.normal(size=(41, 2)))
        res, _ = global_residual(prob, traj, grid, scheme)
        system = linearize_global(prob, traj, grid, scheme, res, use_picard)
        rows, _ = _schur_row_task(prob, traj, grid, scheme, res, use_picard, np.arange(41))
        assert np.array_equal(rows.phis, system.phis) and np.array_equal(rows.gs, system.gs)

    @pytest.mark.parametrize("k, counts", [
        pytest.param(0, [2000, 20], id="0"), pytest.param(1, [2000, 20], id="1"),
        pytest.param(0, [10000, 50], id="lv-newton")])  # 9 linearizations per solve
    def test_every_linearization_is_one_linearize_global_call(self, k, counts, monkeypatch):
        # Both loops and the coarse start linearize through the public function.
        calls, callers = [], []
        linearize, steps = nonlinear.linearize_global, nonlinear._linearized_steps

        def counted(*args):
            calls.append(args)
            return linearize(*args)

        def traced_steps(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return steps(*args)

        monkeypatch.setattr(nonlinear, "linearize_global", counted)
        monkeypatch.setattr(nonlinear, "_linearized_steps", traced_steps)
        part = build_explicit(counts, t_end=3.0)
        if k:
            _, report = nonlinear_schur_newton_solve(benchmark_lv(), part, k, BE)
        else:
            _, report = newton_schur_solve(benchmark_lv(), part, BE)
        # From the 50-element start the fine loop took 3 iterations.
        assert (report.coarse_iterations, report.outer_iterations) == (7, 2)
        assert len(calls) == report.coarse_iterations + report.outer_iterations
        assert "_schur_row_task" not in callers and "linearize_global" in callers


class TestSchurJacobianConsistency:
    def test_interface_jacobian_matches_directional_finite_difference(self):
        # The assembled interface system must be the derivative of the
        # nonlinear interface residual with respect to the interface values.
        prob = forced_riccati()
        part = build_explicit([60, 6], t_end=2 * np.pi)
        # Local solves far below the FD step, so extension noise stays out of
        # the difference quotient.
        policy = LinearizationPolicy(mode="newton", tol_local=1e-13)
        grid = part.grids[0]
        fine = part.fine_nodes(1)
        rng = np.random.default_rng(3)
        z = np.array([[np.sin(grid[f]) + 0.05] for f in fine])

        def interface_residual(zvals):
            state = np.empty((61, 1))
            for i in range(6):
                a, b = fine[i], fine[i + 1]
                warm = np.tile(zvals[i], (b - a, 1))
                state[a:b], _, _ = nonlinear_harmonic_extension(prob, part, 0, i, zvals[i],
                                                                warm, BE, policy)
            state[-1] = zvals[-1]
            res, _ = global_residual(prob, state, grid, BE)
            return res[fine[1:] - 1].copy(), state

        base, state = interface_residual(z)
        blocks = []
        for i in range(6):
            a, b = fine[i], fine[i + 1]
            blks, _ = schur_rows(prob, grid[a:b + 1], np.vstack([state[a:b], z[i + 1]]),
                                 np.array([0, b - a]), 1.0, use_picard=False)
            blk = blks[0]
            # De-normalize: _schur_row_task returns D^{-1}-scaled blocks.
            dt = grid[b] - grid[b - 1]
            d_close = np.eye(1) + dt * prob.jacobian(grid[b], z[i + 1])
            blocks.append((d_close, blk))
        eps = 1e-6
        direction = rng.normal(size=z.shape)
        direction[0] = 0.0  # initial value is pinned
        plus, _ = interface_residual(z + eps * direction)
        minus, _ = interface_residual(z - eps * direction)
        fd = (plus - minus) / (2 * eps)
        # Jacobian action: row i uses D_i (diagonal) and -D_i @ B_i (subdiagonal).
        action = np.empty_like(fd)
        for i in range(6):
            d_close, blk = blocks[i]
            action[i] = d_close @ direction[i + 1] - d_close @ blk @ direction[i]
        scale = np.max(np.abs(action)) + 1e-30
        assert np.max(np.abs(action - fd)) / scale <= 1e-5


def spy_on_loops(monkeypatch):
    """Record each ``_schur_loop`` call as ``(fine elements, k, seconds)``."""
    calls = []
    real = nonlinear._schur_loop

    def spy(problem, partition, k, *args):
        start = time.perf_counter()
        try:
            return real(problem, partition, k, *args)
        finally:
            calls.append((partition.counts[0], k, time.perf_counter() - start))

    monkeypatch.setattr(nonlinear, "_schur_loop", spy)
    return calls


class TestNestedStart:
    """The coarse-grid start of the Schur loop, its report and its fallback."""

    def test_report_records_the_coarse_start(self, monkeypatch):
        prob = benchmark_lv()
        part = build_explicit([2000, 20], t_end=3.0)
        clock = [0.0]  # only the coarse loop advances it, by 1000 s
        monkeypatch.setattr(nonlinear.time, "thread_time", lambda: clock[0])
        calls = spy_on_loops(monkeypatch)
        spied = nonlinear._schur_loop

        def advancing(problem, partition, *args):
            try:
                return spied(problem, partition, *args)
            finally:
                if partition.counts[0] == nonlinear._COARSE_ELEMENTS:
                    clock[0] += 1000.0

        monkeypatch.setattr(nonlinear, "_schur_loop", advancing)
        _, gns = newton_schur_solve(prob, part, BE)
        _, nls = nonlinear_schur_newton_solve(prob, part, 1, BE)
        assert [c[:2] for c in calls] == [(100, 0), (2000, 0), (100, 0), (2000, 1)]
        for report, (coarse, fine) in ((gns, calls[:2]), (nls, calls[2:])):
            assert (report.start, report.coarse_abandoned) == ("coarse", False)
            assert report.coarse_iterations == 7
            assert report.outer_iterations == len(report.mode_history) == 2
            assert report.wall_seconds >= coarse[2] + fine[2]
        # One serial level-0 region at k >= 1; newton-schur's level 0 holds
        # its multilevel solves' shares alone.
        assert 1000.0 <= nls.per_level_max[0] < 1001.0
        assert gns.per_level_max[0] < 1.0

    @pytest.mark.parametrize("k", [0, 1])
    def test_a_start_no_better_than_flat_is_dropped(self, k, monkeypatch):
        # The coarse loop's solution, scaled tenfold: a spurious start whose
        # fine residual is not below the flat guess's.
        prob = benchmark_lv()
        part = build_explicit([400, 8], t_end=3.0)
        real = nonlinear._schur_loop

        def spoiled(problem, partition, *args):
            w = real(problem, partition, *args)
            return 10.0 * w if partition.counts[0] < 400 else w

        def solve(initial=None):
            if k:
                return nonlinear_schur_newton_solve(prob, part, k, BE, initial=initial)
            return newton_schur_solve(prob, part, BE, initial=initial)

        monkeypatch.setattr(nonlinear, "_schur_loop", spoiled)
        traj, report = solve()
        assert report.start == "flat" and report.coarse_abandoned
        assert report.coarse_iterations > 0
        given, _ = solve(initial=np.tile(prob.u0, (part.counts[0] + 1, 1)))
        assert np.array_equal(traj, given)

    @pytest.mark.parametrize("scheme, theta_c", [(BE, 0.5 + 0.5 * 100 / 2000),
                                                 (Scheme.theta_method(0.5), 0.5),
                                                 (Scheme.dg(0), 0.5 + 0.5 * 100 / 2000)])
    def test_coarse_theta_matches_the_fine_leading_error(self, scheme, theta_c, monkeypatch):
        # (1/2 - theta_c) dt_c equals (1/2 - theta) dt_f on the 100-element grid.
        schemes = []
        real = nonlinear._schur_loop

        def spy(problem, partition, k, loop_scheme, *args):
            schemes.append((partition.counts[0], loop_scheme))
            return real(problem, partition, k, loop_scheme, *args)

        monkeypatch.setattr(nonlinear, "_schur_loop", spy)
        _, report = newton_schur_solve(benchmark_lv(), build_explicit([2000, 20], t_end=3.0),
                                       scheme)
        assert report.start == "coarse"
        assert schemes == [(100, Scheme.theta_method(theta_c)), (2000, scheme)]

    def test_fine_loop_takes_the_start_residual_as_it_is(self, monkeypatch):
        prob = benchmark_lv()
        part = build_explicit([400, 8], t_end=3.0)
        starts, fine_residuals = [], []
        real_loop, real_residual = nonlinear._schur_loop, nonlinear.global_residual

        def loop(problem, partition, k, scheme, policy, w, *args):
            if partition.counts[0] == 400:
                starts.append(w.copy())
            return real_loop(problem, partition, k, scheme, policy, w, *args)

        def residual(problem, traj, grid, scheme, kappas=None):
            fine_residuals.append(len(grid) == 401)
            return real_residual(problem, traj, grid, scheme, kappas)

        monkeypatch.setattr(nonlinear, "_schur_loop", loop)
        monkeypatch.setattr(nonlinear, "global_residual", residual)
        traj, report = newton_schur_solve(prob, part, BE)
        assert report.start == "coarse"
        # The start's and the flat guess's, then one after each update.
        assert sum(fine_residuals) == 2 + report.outer_iterations
        # The same loop run from the same start, its residual computed afresh.
        given, rep_given = newton_schur_solve(prob, part, BE, initial=starts[0])
        assert np.array_equal(traj, given)
        assert report.residual_history == rep_given.residual_history

    def test_three_periods_take_at_most_three_fine_iterations(self):
        # From a coarse start in the fine scheme newton-schur took 8 here, and
        # from a 50-element matched start 4.
        prob = benchmark_lv()
        part = build_explicit([2000, 20], t_end=8.0)
        traj, report = newton_schur_solve(prob, part, BE)
        assert report.start == "coarse" and report.residual_final < 1e-8
        assert report.outer_iterations <= 3
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE)
        assert np.max(np.abs(traj - seq)) <= 1e-6 * np.max(np.abs(seq))

    @pytest.mark.parametrize("k", [0, 1])
    def test_one_period_beyond_the_benchmark_horizon_converges(self, k):
        # From the flat start newton-schur stops at a non-finite residual here.
        prob = benchmark_lv()
        part = build_explicit([2000, 20], t_end=5.0)
        policy = LinearizationPolicy()
        if k:
            traj, report = nonlinear_schur_newton_solve(prob, part, k, BE, policy)
        else:
            traj, report = newton_schur_solve(prob, part, BE, policy)
        assert report.start == "coarse" and report.residual_final < policy.tol_global
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE, policy)
        assert np.max(np.abs(traj - seq)) <= 1e-6

    @pytest.mark.parametrize("k", [0, 1])
    def test_a_horizon_of_twelve_converges(self, k):
        # Both solvers failed here from a 50-element start.
        prob = benchmark_lv()
        part = build_explicit([2000, 20], t_end=12.0)
        if k:
            traj, report = nonlinear_schur_newton_solve(prob, part, k, BE)
        else:
            traj, report = newton_schur_solve(prob, part, BE)
        assert report.start == "coarse" and report.residual_final < 1e-8
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE)
        assert np.max(np.abs(traj - seq)) <= 1e-6 * np.max(np.abs(seq))

    def test_failed_coarse_start_falls_back_to_the_flat_start(self):
        prob = benchmark_lv()
        part = build_explicit([80, 4], t_end=10.0)
        traj, report = nonlinear_schur_newton_solve(prob, part, 1, BE)
        assert (report.start, report.coarse_abandoned) == ("flat", True)
        assert report.coarse_iterations > 0 and report.residual_final < 1e-8
        seq, _ = sequential_nonlinear_solve(prob, part.grids[0], BE)
        assert np.max(np.abs(traj - seq)) <= 1e-6 * np.max(np.abs(seq))
        # The fallback is the flat-start loop as it runs on its own.
        flat, rep_flat = nonlinear_schur_newton_solve(prob, part, 1, BE,
                                                      initial=np.tile(prob.u0, (81, 1)))
        assert np.array_equal(traj, flat)
        assert report.residual_history == rep_flat.residual_history
        assert report.outer_iterations == rep_flat.outer_iterations

    def test_the_user_sees_the_flat_start_error(self, monkeypatch):
        real = nonlinear._schur_loop
        fine_calls = []

        def failing(problem, partition, k, *args):
            if partition.counts[0] == nonlinear._COARSE_ELEMENTS:  # the coarse loop converges
                return real(problem, partition, k, *args)
            fine_calls.append(len(fine_calls))
            raise NonconvergenceError(f"fine loop {len(fine_calls)}", 1, 1.0)

        monkeypatch.setattr(nonlinear, "_schur_loop", failing)
        with pytest.raises(NonconvergenceError, match="fine loop 2"):
            newton_schur_solve(benchmark_lv(), build_explicit([400, 8], t_end=3.0), BE)
        assert fine_calls == [0, 1]

    def test_given_initial_and_linear_problems_run_no_coarse_solve(self, monkeypatch):
        calls = spy_on_loops(monkeypatch)
        prob = benchmark_lv()
        part = build_explicit([400, 8], t_end=3.0)
        _, report = newton_schur_solve(prob, part, BE, initial=np.tile(prob.u0, (401, 1)))
        assert (report.start, report.coarse_iterations) == ("given", 0)
        _, report = nonlinear_schur_newton_solve(random_stable_linear(2, seed=6),
                                                 build_explicit([600, 6], t_end=1.0), 1, BE)
        assert (report.start, report.coarse_iterations) == ("flat", 0)
        assert not report.coarse_abandoned
        assert [c[:2] for c in calls] == [(400, 0), (600, 1)]

    def test_small_grids_start_flat(self, monkeypatch):
        calls = spy_on_loops(monkeypatch)
        _, report = newton_schur_solve(benchmark_lv(), build_explicit([48, 4], t_end=3.0), BE)
        assert report.start == "flat" and [c[:2] for c in calls] == [(48, 0)]

    def test_newton_schur_counts_do_not_depend_on_the_subdomain_count(self):
        prob = benchmark_lv()
        counts = []
        for n1 in (10, 20, 40):
            _, report = newton_schur_solve(prob, build_explicit([2000, n1], t_end=3.0), BE)
            counts.append((report.coarse_iterations, report.outer_iterations))
        assert counts[0] == counts[1] == counts[2]


def coarse_start(prob, part, k, workers=1):
    """``_coarse_start`` of the fine loop at level ``k`` on ``part``: ``(start, report)``."""
    report = SolverReport()
    flat = np.tile(prob.u0, (part.counts[0] + 1, 1))
    with WorkerPool(workers) as pool:
        w, _ = nonlinear._coarse_start(prob, part.grids[0], k, BE, LinearizationPolicy(), pool,
                                       report, flat)
    return w, report


class TestOneLevelCoarseStart:
    """The coarse start's loop runs on one level: each update is one doubling scan."""

    SHAPES = [([10000, 50], 0), ([2000, 20], 1)]  # lv-newton's and lv-nlschur's

    @pytest.mark.parametrize("counts, k", SHAPES)
    def test_runs_no_sweep_and_no_pool_region_but_the_rows(self, counts, k, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the coarse start swept a tree")

        for module in (nonlinear, schur):
            monkeypatch.setattr(module, "reduce_level", no_sweep)
            monkeypatch.setattr(module, "sweep_down", no_sweep)
        regions, pool_map = [], WorkerPool.map

        def recording_map(pool, fn, args_list):
            args_list = list(args_list)
            regions.append((fn.__name__, len(args_list)))
            return pool_map(pool, fn, args_list)

        monkeypatch.setattr(WorkerPool, "map", recording_map)
        w, report = coarse_start(benchmark_lv(), build_explicit(counts, t_end=3.0), k, workers=2)
        assert w is not None and report.coarse_iterations == 7
        assert regions == [("_schur_row_task", 1)] * report.coarse_iterations

    @pytest.mark.parametrize("counts, k", SHAPES)
    def test_start_is_bitwise_equal_across_worker_counts(self, counts, k):
        part = build_explicit(counts, t_end=3.0)
        runs = [coarse_start(benchmark_lv(), part, k, workers) for workers in (1, 2, 4)]
        for w, report in runs[1:]:
            assert np.array_equal(w, runs[0][0])
            assert report.coarse_iterations == runs[0][1].coarse_iterations == 7

    def test_matches_the_two_level_loop(self):
        prob = benchmark_lv()
        grid = build_explicit([2000, 20], t_end=3.0).grids[0]
        nodes = np.arange(51) * 2000 // 50
        matched = Scheme.theta_method(0.5 + 0.5 * 50 / 2000)
        solutions = []
        for counts in ([50], [50, 7]):  # the start's grid, and the parent's hierarchy on it
            report = SolverReport()
            with WorkerPool(1) as pool:
                solutions.append(nonlinear._schur_loop(
                    prob, build_explicit(counts, grid=grid[nodes]), 0, matched,
                    LinearizationPolicy(), np.tile(prob.u0, (51, 1)), pool, report))
            assert report.outer_iterations == 7
        one, two = solutions
        assert np.max(np.abs(one - two)) <= 1e-12 * np.max(np.abs(two))


class TestExtensionKappas:
    """At k >= 1 the global residual reuses the extension's last kappa rows."""

    @staticmethod
    def _solve(counts, k, reuse, monkeypatch):
        """Solve, counting kappa calls; without ``reuse`` the loop evaluates every residual."""
        if not reuse:
            real = nonlinear._extension_task
            monkeypatch.setattr(nonlinear, "_extension_task",
                                lambda *args: (*real(*args)[:3], None))
        calls, kappa = [], benchmark_lv().kappa
        prob = replace(benchmark_lv(), kappa=lambda t, u: calls.append(1) or kappa(t, u))
        traj, report = nonlinear_schur_newton_solve(prob, build_explicit(counts, t_end=3.0),
                                                    k, BE)
        monkeypatch.undo()
        return traj, report, len(calls)

    @pytest.mark.parametrize("counts, k", [([2000, 20], 1), ([400, 8], 1),
                                           ([2000, 100, 20], 2), ([400, 40, 8], 2)])
    def test_iterates_are_bitwise_those_of_fresh_residuals(self, counts, k, monkeypatch):
        traj, report, calls = self._solve(counts, k, True, monkeypatch)
        fresh, rep_fresh, fresh_calls = self._solve(counts, k, False, monkeypatch)
        assert report.start == "coarse" and report.residual_final < 1e-8
        assert np.array_equal(traj, fresh)
        assert report.residual_history == rep_fresh.residual_history
        assert report.interior_residual_history == rep_fresh.interior_residual_history
        # One kappa_batch saved per fine residual.
        assert fresh_calls - calls == len(report.residual_history)

    @pytest.mark.parametrize("max_inner", [50, 1])
    def test_rows_are_those_of_the_returned_values_unless_marched(self, max_inner,
                                                                   monkeypatch):
        prob = benchmark_lv()
        part = build_explicit([40, 4], t_end=3.0)
        grid, fine = part.grids[0], part.fine_nodes(1)
        seq, _ = sequential_nonlinear_solve(prob, grid, BE)
        # With one inner iteration every window left unconverged is marched after it.
        monkeypatch.setattr(nonlinear, "_march", lambda problem, ts, inflow, warm, *rest: (
            np.concatenate([inflow[None], warm[1:]]), 0, 0))
        warm = np.tile(prob.u0, (40, 1))
        values, _, _, kappas = _extension_task(prob, part, 0, 0, 4, seq[fine[:-1]], warm, 1.0,
                                               LinearizationPolicy(max_inner=max_inner),
                                               None, seq[-1])
        if max_inner == 1:
            assert kappas is None
        else:
            traj = np.concatenate([values, seq[-1:]])
            assert np.array_equal(kappas, nonlinear.kappa_batch(prob, grid, traj))


@pytest.mark.parametrize("call, error, text", [
    (lambda: newton_schur_solve(benchmark_lv(), build_explicit([40, 4], t_end=3.0), BE,
                                initial=np.zeros((40, 2))),
     ValidationError, "initial guess must have shape (41, 2)"),
    (lambda: nonlinear_harmonic_extension(benchmark_lv(), build_explicit([40, 4], t_end=3.0),
                                          0, 1, np.ones(2), np.ones((9, 2)), BE,
                                          LinearizationPolicy()),
     ValidationError, "warm start does not match the element's fine window"),
    # A NaN warm value sends the window to marching at once; its first step,
    # (1.25, 1.375) with dt*lam = -1, is singular.
    (lambda: nonlinear_harmonic_extension(linear_decay(-8.0), build_explicit([20, 2], t_end=2.5),
                                          0, 1, np.ones(1),
                                          np.where(np.arange(10) == 5, np.nan, 1.0)[:, None],
                                          BE, LinearizationPolicy()),
     SingularStepError, "singular step matrix in nonlinear extension (level 0, element 1, "
                        "t=1.375) on element (1.25, 1.375)"),
])
def test_rejected_inputs_and_singular_marched_steps_are_named(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == text


def test_extension_takes_nested_lists_as_arrays():
    prob, part = benchmark_lv(), build_explicit([40, 4], t_end=3.0)
    warm = np.tile(prob.u0, (10, 1))
    values, _, _ = nonlinear_harmonic_extension(prob, part, 0, 1, prob.u0, warm, BE,
                                                LinearizationPolicy())
    listed, _, _ = nonlinear_harmonic_extension(prob, part, 0, 1, prob.u0.tolist(),
                                                warm.tolist(), BE, LinearizationPolicy())
    assert np.array_equal(listed, values)
