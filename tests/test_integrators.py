import numpy as np
import pytest

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from timeschur import (
    OdeProblem,
    Scheme,
    SingularStepError,
    ValidationError,
    cosine_drive,
    forced_riccati,
    global_residual,
    linear_decay,
    linear_propagator,
    linearize_global,
    lotka_volterra,
    parse_scheme,
    random_stable_linear,
    zero_operator,
)
from timeschur.integrators import (_ELIMINATE_CHUNK, _eliminate, dg_element_system,
                                   step_solve)
from timeschur.nonlinear import _linearized_steps, _node_matrices, _schur_row_task

import batch_first_oracle as oracle
from oracles import scheme_label

ALL_SCHEMES = [Scheme.theta_method(0.5), Scheme.backward_euler(),
               Scheme.dg(0), Scheme.dg(1), Scheme.dg(2)]


class TestSchemeParsing:
    @pytest.mark.parametrize("text,expected", [
        ("be", Scheme.theta_method(1.0)),
        ("theta:0.5", Scheme.theta_method(0.5)),
        ("dg0", Scheme.dg(0)),
        ("dg2", Scheme.dg(2)),
    ])
    def test_round_trip(self, text, expected):
        assert parse_scheme(text) == expected

    @pytest.mark.parametrize("text", ["rk4", "theta:1.5", "dg3", "theta:x"])
    def test_rejects_unknown(self, text):
        with pytest.raises(ValidationError):
            parse_scheme(text)

    def test_nonlinear_theta_restriction(self):
        assert Scheme.dg(0).effective_theta() == 1.0
        with pytest.raises(ValidationError):
            Scheme.dg(1).effective_theta()


def one_element(problem, t_start, t_end, scheme):
    """``(phi, g)`` of the single element ``(t_start, t_end)``."""
    phis, gs = linear_propagator(problem, np.array([t_start, t_end]), scheme)
    return phis[0], gs[0]


def _varying_kappa(t, u):
    return np.array([(1.0 + t) * u[0] + 0.3 * u[1] + np.sin(t),
                     -0.2 * u[0] + (2.0 - t) * u[1] - np.cos(t)])


def _varying_jacobian(t, u):
    return np.array([[1.0 + t, 0.3], [-0.2, 2.0 - t]])


# Time-dependent, evaluated one (t, u) at a time.
VARYING = OdeProblem(m_unk=2, kappa=_varying_kappa, jacobian=_varying_jacobian,
                     u0=np.array([1.0, -1.0]), is_linear=True, name="varying")


class TestLinearPropagator:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=scheme_label)
    def test_zero_operator_gives_identity(self, scheme):
        phi, g = one_element(zero_operator(2), 0.0, 0.3, scheme)
        assert np.allclose(phi, np.eye(2), atol=1e-14)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_decay_backward_euler(self):
        phi, g = one_element(linear_decay(1.0), 0.0, 0.25, Scheme.backward_euler())
        assert phi[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert g[0] == pytest.approx(0.0, abs=1e-15)

    def test_crank_nicolson_integrates_constant_rhs_exactly(self):
        c = 1.7
        prob = OdeProblem(m_unk=1, kappa=lambda t, u: np.array([-c]),
                          jacobian=lambda t, u: np.zeros((1, 1)),
                          u0=np.array([0.0]), is_linear=True)
        phi, g = one_element(prob, 0.0, 0.4, Scheme.theta_method(0.5))
        assert phi[0, 0] == pytest.approx(1.0)
        assert g[0] == pytest.approx(c * 0.4)

    @pytest.mark.parametrize("problem", [
        linear_decay(2.0), cosine_drive(), random_stable_linear(3, seed=11),
    ], ids=lambda p: p.name)
    def test_dg0_equals_backward_euler(self, problem):
        be = one_element(problem, 0.2, 0.45, Scheme.backward_euler())
        dg = one_element(problem, 0.2, 0.45, Scheme.dg(0))
        assert np.max(np.abs(be[0] - dg[0])) <= 1e-15
        assert np.max(np.abs(be[1] - dg[1])) <= 1e-15

    def test_dg1_matches_two_stage_radau_stability_function(self):
        dt = 0.25
        z = -dt  # decay rate 1
        expected = (1 + z / 3) / (1 - 2 * z / 3 + z * z / 6)
        phi, _ = one_element(linear_decay(1.0), 0.0, dt, Scheme.dg(1))
        assert phi[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_dg2_matches_three_stage_radau_stability_function(self):
        # Radau IIA with three stages: the (2, 3) Pade approximant of exp(z).
        dt = 0.25
        z = -dt  # decay rate 1
        expected = (1 + 2 * z / 5 + z * z / 20) / (1 - 3 * z / 5 + 3 * z * z / 20 - z ** 3 / 60)
        phi, _ = one_element(linear_decay(1.0), 0.0, dt, Scheme.dg(2))
        assert phi[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_singular_step_matrix_raises(self):
        dt = 0.5
        prob = OdeProblem(m_unk=1, kappa=lambda t, u: -u / dt,
                          jacobian=lambda t, u: np.array([[-1.0 / dt]]),
                          u0=np.array([1.0]), is_linear=True)
        with pytest.raises(SingularStepError):
            one_element(prob, 0.0, dt, Scheme.backward_euler())

    @pytest.mark.parametrize("scheme", [Scheme.backward_euler(), Scheme.dg(0)],
                             ids=scheme_label)
    def test_singular_element_carries_its_times(self, scheme):
        # 1 + dt*lam vanishes on the one element of width 0.25 only.
        grid = np.array([0.0, 0.125, 0.5, 0.75, 0.8125])
        with pytest.raises(SingularStepError) as err:
            linear_propagator(linear_decay(-4.0), grid, scheme)
        assert (err.value.t_start, err.value.t_end) == (0.5, 0.75)
        assert "(0.5, 0.75)" in str(err.value)

    def test_rejects_nonlinear_problem(self):
        with pytest.raises(ValidationError):
            one_element(forced_riccati(), 0.0, 0.1, Scheme.backward_euler())


@settings(max_examples=30, deadline=None)
@given(
    problem=st.sampled_from([
        cosine_drive(), random_stable_linear(2, seed=4), linear_decay(3.0), VARYING,
        replace(random_stable_linear(2, seed=5), vectorized=False),
        replace(cosine_drive(), vectorized=False),
    ]),
    scheme=st.sampled_from(ALL_SCHEMES),
    widths=st.lists(st.floats(min_value=1e-3, max_value=0.5), min_size=1, max_size=12),
)
def test_batched_build_equals_element_by_element_builds(problem, scheme, widths):
    grid = np.concatenate([[0.0], np.cumsum(widths)])
    phis, gs = linear_propagator(problem, grid, scheme)
    for i in range(len(widths)):
        phi, g = one_element(problem, grid[i], grid[i + 1], scheme)
        scale = max(np.max(np.abs(phi)), np.max(np.abs(g)), 1e-300)
        assert np.max(np.abs(phis[i] - phi)) <= 1e-14 * scale
        assert np.max(np.abs(gs[i] - g)) <= 1e-14 * scale


def _dense_endpoint_rows(problem, t_start, t_end, order):
    """Oracle: the endpoint stage of one element's uncondensed DG system, solved densely."""
    k_mat, inflow, forcing = dg_element_system(problem, np.array([t_start, t_end]), order)
    full = np.linalg.solve(k_mat[0], np.column_stack([inflow, forcing[0]]))
    m = problem.m_unk
    return full[order * m:, :m], full[order * m:, m]


class TestCondensation:
    @pytest.mark.parametrize("order,tol", [(1, 1e-13), (2, 1e-13)])
    def test_condensed_propagator_matches_dense_elimination(self, order, tol):
        problem = linear_decay(1.0)
        grid = np.array([0.0, 0.1, 0.25, 0.3])
        phis, gs = linear_propagator(problem, grid, Scheme.dg(order))
        for i in range(3):
            phi, g = _dense_endpoint_rows(problem, grid[i], grid[i + 1], order)
            assert np.max(np.abs(phis[i] - phi)) <= tol
            assert np.max(np.abs(gs[i] - g)) <= tol

    def test_multivariate_condensation_against_dense_oracle(self, rng):
        problem = random_stable_linear(3, seed=21)
        phis, gs = linear_propagator(problem, np.array([0.3, 0.55]), Scheme.dg(2))
        phi, g = _dense_endpoint_rows(problem, 0.3, 0.55, 2)
        scale = np.max(np.abs(phi))
        assert np.max(np.abs(phis[0] - phi)) <= 1e-12 * max(1.0, scale)
        assert np.max(np.abs(gs[0] - g)) <= 1e-12

    def test_singular_interior_block(self):
        # Second component: du/dt = 4 u, whose DG(0) element matrix 1 - 4 dt
        # is singular on the interior element of width 0.25 only.
        problem = OdeProblem(m_unk=2, kappa=lambda t, u: np.array([u[0], -4.0 * u[1]]),
                             jacobian=lambda t, u: np.diag([1.0, -4.0]),
                             u0=np.ones(2), is_linear=True)
        with pytest.raises(SingularStepError) as err:
            linear_propagator(problem, np.array([0.0, 0.125, 0.375, 0.5]), Scheme.dg(0))
        assert (err.value.t_start, err.value.t_end) == (0.125, 0.375)


def _solve_residual(mats, rhs, sol):
    """max|mats @ sol - rhs| relative to max|rhs|."""
    return np.max(np.abs(mats @ sol - rhs)) / np.max(np.abs(rhs))


def _workspace(mats, rhs):
    """The batch-last workspace ``[A | B]`` ``(m, m+k, n)`` of batch-first stacks."""
    return np.concatenate([mats, rhs], axis=2).transpose(1, 2, 0).copy()


def _eliminated(mats, rhs):
    """``_eliminate`` of the stacks' workspace, batch-first; checks the result is its block."""
    space = _workspace(mats, rhs)
    sol = _eliminate(space)
    assert sol.base is space
    assert sol.__array_interface__ == space[:, mats.shape[-1]:].__array_interface__
    return sol.transpose(2, 0, 1)


def _step_solved(mats, rhs, t):
    """``step_solve`` of the stacks' workspace, batch-first."""
    return step_solve(lambda: _workspace(mats, rhs), t[:-1], t[1:]).transpose(2, 0, 1)


class TestEliminationKernel:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_agrees_with_lapack(self, m, rng):
        mats = rng.normal(size=(200, m, m)) + 2.0 * np.eye(m)
        rhs = rng.normal(size=(200, m, m + 1))
        sol = _eliminated(mats, rhs)
        expected = np.linalg.solve(mats, rhs)
        assert sol.shape == expected.shape
        assert _solve_residual(mats, rhs, sol) <= 1e-13
        assert np.max(np.abs(sol - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_row_swap(self):
        # |a10| > |a00| in every block: without a swap the tiny pivot loses
        # all digits of the second unknown.
        mats = np.array([[[1e-17, 1.0], [1.0, 1.0]], [[-0.5, 2.0], [3.0, 1.0]]])
        rhs = np.array([[[1.0], [2.0]], [[1.0], [-2.0]]])
        sol = _eliminated(mats, rhs)
        assert np.allclose(sol[0, :, 0], [1.0, 1.0], rtol=1e-15, atol=0)
        assert _solve_residual(mats, rhs, sol) <= 1e-15

    @pytest.mark.parametrize("order", [1, 2])
    def test_dg_element_blocks(self, order):
        problem = random_stable_linear(2, seed=3)
        k_mat, inflow, forcing = dg_element_system(problem, np.linspace(0.0, 2.0, 9), order)
        rhs = np.concatenate([np.broadcast_to(inflow, (8,) + inflow.shape),
                              forcing[:, :, None]], axis=2)
        sol = _eliminated(k_mat, rhs)
        assert _solve_residual(k_mat, rhs, sol) <= 1e-14
        expected = np.linalg.solve(k_mat, rhs)
        assert np.max(np.abs(sol - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_blocks_do_not_depend_on_grouping(self, rng):
        # The first part needs no row swaps, the second many; the whole
        # stack spans two chunks of the kernel.
        n = _ELIMINATE_CHUNK + 101
        mats = rng.normal(size=(n, 4, 4))
        mats[:37] = 0.1 * mats[:37] + np.eye(4)
        rhs = rng.normal(size=(n, 4, 5))
        whole = _eliminated(mats, rhs)
        parts = np.concatenate([_eliminated(mats[:37], rhs[:37]),
                                _eliminated(mats[37:], rhs[37:])])
        assert np.array_equal(whole, parts)

    def test_singular_rows_name_the_lowest(self, rng):
        mats = rng.normal(size=(6, 3, 3)) + 3.0 * np.eye(3)
        mats[4] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
        mats[2, :, 1] = 0.0
        t = np.arange(7.0)
        with pytest.raises(SingularStepError) as err:
            _step_solved(mats, rng.normal(size=(6, 3, 4)), t)
        assert (err.value.t_start, err.value.t_end) == (2.0, 3.0)

    def test_zero_pivot_of_a_nonsingular_lapack_block_is_left_to_lapack(self):
        # Eliminating [[10, 10], [3, 3]] leaves an exact zero pivot, but
        # LAPACK's LU, which scales by 1/10, leaves -4.4e-16: as before the
        # kernel, the stack solves without error and names no other element.
        mats = np.stack([np.eye(2), np.array([[10.0, 10.0], [3.0, 3.0]])])
        rhs = np.ones((2, 2, 3))
        with pytest.raises(np.linalg.LinAlgError):
            _eliminate(_workspace(mats, rhs))
        t = np.arange(3.0)
        assert np.array_equal(_step_solved(mats, rhs, t), np.linalg.solve(mats, rhs))

    def test_lapack_gets_the_blocks_an_earlier_chunk_overwrote(self, rng):
        # The first chunk is eliminated in place before the zero pivot of the
        # second stops the kernel; LAPACK solves a fresh workspace.
        n = _ELIMINATE_CHUNK + 2
        mats = rng.normal(size=(n, 2, 2)) + 2.0 * np.eye(2)
        mats[-1] = [[10.0, 10.0], [3.0, 3.0]]
        rhs = rng.normal(size=(n, 2, 3))
        t = np.arange(n + 1.0)
        assert np.array_equal(_step_solved(mats, rhs, t), np.linalg.solve(mats, rhs))

    def test_nan_block_passes_through(self, rng):
        mats = rng.normal(size=(3, 2, 2)) + 2.0 * np.eye(2)
        mats[1, 0, 1] = np.nan
        rhs = rng.normal(size=(3, 2, 3))
        sol = _eliminated(mats, rhs)
        assert np.isnan(sol[1]).any()
        assert np.array_equal(sol[[0, 2]], _eliminated(mats[[0, 2]], rhs[[0, 2]]))
        t = np.arange(4.0)
        assert np.array_equal(_step_solved(mats, rhs, t), sol, equal_nan=True)


def _random_field(m, seed, swaps):
    """Vectorized problem whose Jacobian and Picard matrix vary with every node's value.

    With ``swaps`` a cyclic shift of weight 40 dominates every Jacobian, so
    the step matrices need row swaps wherever ``th*dt`` is not tiny.
    """
    rng = np.random.default_rng(seed)
    a, b, c, d = 3.0 * rng.normal(size=(4, m, m))
    shift = 40.0 * np.roll(np.eye(m), 1, axis=1) if swaps and m > 1 else 0.0

    def jacobian(t, u):
        return a + b * u[..., :, None] + shift

    def picard(t, u):
        return c + d * u[..., None, :]

    return OdeProblem(m_unk=m, kappa=lambda t, u: u, jacobian=jacobian, picard_matrix=picard,
                      u0=np.zeros(m), vectorized=True, name="random field")


def _assert_build_matches_oracle(m, th, n, seed, swaps, picks, skips):
    """The in-place build's ``phis``/``gs`` against the batch-first oracle's, bitwise.

    ``picks`` is "newton", "picard" or "mixed" (a random mode per node);
    ``skips`` draws a random ``skip`` mask.
    """
    rng = np.random.default_rng(seed)
    problem = _random_field(m, seed, swaps)
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, n))])
    us = rng.normal(size=(n + 1, m))
    column = rng.normal(size=(n, m))
    use_picard = {"newton": False, "picard": True,
                  "mixed": rng.uniform(size=n + 1) < 0.5}[picks]
    skip = rng.uniform(size=n) < 0.3 if skips else None
    system = _linearized_steps(problem, ts, us, th, use_picard, column, None, skip)
    phis, gs = oracle.linearized_steps(problem, ts, us, th, use_picard, column, skip)
    assert np.array_equal(system.phis, phis) and np.array_equal(system.gs, gs)


class TestInPlaceBuild:
    """``theta_steps`` and ``step_solve`` in the batch-last workspace, against the
    batch-first build they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=8),  # 7 and 8 take the LAPACK path
        th=st.sampled_from([0.0, 0.5, 1.0]),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10**6),
        swaps=st.booleans(),
        picks=st.sampled_from(["newton", "picard", "mixed"]),
        skips=st.booleans(),
    )
    def test_equals_the_batch_first_build(self, m, th, n, seed, swaps, picks, skips):
        _assert_build_matches_oracle(m, th, n, seed, swaps, picks, skips)

    @pytest.mark.parametrize("m", [2, 7])
    def test_equals_the_batch_first_build_over_two_chunks(self, m):
        _assert_build_matches_oracle(m, 1.0, _ELIMINATE_CHUNK + 101, m, True, "mixed", True)

    def test_shifted_jacobians_need_row_swaps(self):
        # The oracle's first pivot search swaps rows in every block.
        problem = _random_field(3, 0, True)
        mats = _node_matrices(problem, np.arange(3.0), np.ones((3, 3)), np.zeros(3, bool))
        lhs, _ = oracle.theta_steps(mats, np.full(2, 0.1), 1.0, np.zeros((2, 3)))
        assert np.all(np.abs(lhs[:, 2, 0]) > np.abs(lhs[:, 0, 0]))

    @pytest.mark.parametrize("scheme", [Scheme.theta_method(0.5), Scheme.backward_euler(),
                                        Scheme.dg(1)], ids=scheme_label)
    def test_propagators_view_one_block(self, scheme):
        phis, gs = linear_propagator(random_stable_linear(2, seed=2), np.linspace(0, 1, 9),
                                     scheme)
        assert phis.base is gs.base and phis.base.shape[-1] == 8  # batch axis last


class TestSingularPastTheFirstChunk:
    """An exactly singular step after the kernel's first chunk is named by its times."""

    bad = _ELIMINATE_CHUNK + 17

    def _grid(self):
        # 1 - 4*dt vanishes on the one step of width 0.25.
        widths = np.full(_ELIMINATE_CHUNK + 50, 0.125)
        widths[self.bad] = 0.25
        return np.concatenate([[0.0], np.cumsum(widths)])

    def test_linear_propagator(self):
        grid = self._grid()
        with pytest.raises(SingularStepError) as err:
            linear_propagator(linear_decay(-4.0), grid, Scheme.backward_euler())
        assert (err.value.t_start, err.value.t_end) == (grid[self.bad], grid[self.bad + 1])
        assert f"({grid[self.bad]:g}, {grid[self.bad + 1]:g})" in str(err.value)

    def test_schur_row_task(self):
        grid = self._grid()
        bounds = np.append(np.arange(0, len(grid) - 1, 100), len(grid) - 1)
        with pytest.raises(SingularStepError) as err:
            _schur_row_task(linear_decay(-4.0), np.zeros((len(grid), 1)), grid,
                            Scheme.backward_euler(), np.zeros((len(grid) - 1, 1)), False, bounds)
        assert (err.value.t_start, err.value.t_end) == (grid[self.bad], grid[self.bad + 1])


def _step_residual(problem, t_start, t_end, u_in, u_out, scheme):
    res, _ = global_residual(problem, np.stack([u_in, u_out]), np.array([t_start, t_end]),
                             scheme)
    return res[0]


def _step_phi(problem, t_start, t_end, u_in, u_out, scheme):
    traj, grid = np.stack([u_in, u_out]), np.array([t_start, t_end])
    res, _ = global_residual(problem, traj, grid, scheme)
    return linearize_global(problem, traj, grid, scheme, res).phis[0]


def _fd_step_jacobians(problem, t_start, t_end, u_in, u_out, scheme, eps=1e-6):
    """Central differences of the one-step residual in ``u_out`` and in ``u_in``."""
    m = len(u_in)
    j_out, j_in = np.empty((m, m)), np.empty((m, m))
    for col in range(m):
        e = np.zeros(m)
        e[col] = eps
        j_out[:, col] = (_step_residual(problem, t_start, t_end, u_in, u_out + e, scheme)
                         - _step_residual(problem, t_start, t_end, u_in, u_out - e, scheme)
                         ) / (2 * eps)
        j_in[:, col] = (_step_residual(problem, t_start, t_end, u_in + e, u_out, scheme)
                        - _step_residual(problem, t_start, t_end, u_in - e, u_out, scheme)
                        ) / (2 * eps)
    return j_out, j_in


class TestNonlinearStepResidual:
    def test_linear_problem_has_constant_jacobians(self, rng):
        problem = random_stable_linear(2, seed=9)
        scheme = Scheme.backward_euler()
        phis = [_step_phi(problem, 0.0, 0.1, rng.normal(size=2), rng.normal(size=2), scheme)
                for _ in range(3)]
        for phi in phis[1:]:
            assert np.array_equal(phi, phis[0])
        j_out, j_in = _fd_step_jacobians(problem, 0.0, 0.1, np.zeros(2), np.zeros(2), scheme)
        assert np.max(np.abs(phis[0] + np.linalg.solve(j_out, j_in))) <= 1e-8

    def test_linearity_of_residual(self, rng):
        problem = random_stable_linear(2, seed=10)
        scheme = Scheme.theta_method(0.6)
        a_in, a_out = rng.normal(size=2), rng.normal(size=2)
        b_in, b_out = rng.normal(size=2), rng.normal(size=2)
        r_a = _step_residual(problem, 0.0, 0.1, a_in, a_out, scheme)
        r_b = _step_residual(problem, 0.0, 0.1, b_in, b_out, scheme)
        r_sum = _step_residual(problem, 0.0, 0.1, a_in + b_in, a_out + b_out, scheme)
        r_zero = _step_residual(problem, 0.0, 0.1, np.zeros(2), np.zeros(2), scheme)
        assert np.allclose(r_sum, r_a + r_b - r_zero, atol=1e-12)

    def test_riccati_backward_euler_formula(self):
        problem = forced_riccati()
        dt = 0.01
        u_in, u_out = np.array([0.0]), np.array([0.01])
        r = _step_residual(problem, 0.0, dt, u_in, u_out, Scheme.backward_euler())
        expected = u_out - u_in + dt * problem.kappa(dt, u_out)
        assert r[0] == pytest.approx(expected[0], abs=1e-16)

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_jacobians_match_central_differences(self, theta, rng):
        problem = lotka_volterra(3.0, 0.2, 2.0, 0.1, 10.0, 40.0)
        scheme = Scheme.theta_method(theta)
        u_in = rng.uniform(5.0, 20.0, size=2)
        u_out = rng.uniform(5.0, 20.0, size=2)
        phi = _step_phi(problem, 0.1, 0.13, u_in, u_out, scheme)
        j_out, j_in = _fd_step_jacobians(problem, 0.1, 0.13, u_in, u_out, scheme)
        expected = -np.linalg.solve(j_out, j_in)
        assert np.max(np.abs(phi - expected)) <= 1e-6 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("call, text", [
    (lambda: Scheme(kind="dg", order=3), "DG order must be 0, 1, or 2"),
    (lambda: Scheme(kind="rk"), "unknown scheme kind 'rk'"),
    (lambda: dg_element_system(forced_riccati(), np.array([0.0, 0.1]), 1),
     "dg_element_system requires a linear problem"),
])
def test_rejects_invalid_schemes_and_nonlinear_dg_systems(call, text):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == text


class TestDgWorkspace:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("problem", [cosine_drive(), VARYING, random_stable_linear(3, seed=4)],
                             ids=lambda p: f"m{p.m_unk}")
    def test_equals_a_solve_of_the_concatenated_element_systems(self, problem, order):
        # The batch-first build it replaced, bitwise. Up to 6 unknowns per
        # element run ``_eliminate``; m = 3 at DG(2) has 9 and runs LAPACK.
        grid = np.linspace(0.0, 1.0, 41)
        k_mat, inflow, forcing = dg_element_system(problem, grid, order)
        space = np.concatenate([k_mat, np.broadcast_to(inflow, (40,) + inflow.shape),
                                forcing[..., None]], axis=2).transpose(1, 2, 0).copy()
        sol = step_solve(lambda: space, grid[:-1], grid[1:])[-problem.m_unk:]
        phis, gs = linear_propagator(problem, grid, Scheme.dg(order))
        assert np.array_equal(phis, sol[:, :problem.m_unk].transpose(2, 0, 1))
        assert np.array_equal(gs, sol[:, problem.m_unk].T)

    def test_rebuild_after_a_zero_pivot_runs_no_callbacks(self):
        # DG(0) of du/dt = 4 u is singular on the element of width 0.25: the
        # elimination stops at its zero pivot and LAPACK gets a rebuilt workspace.
        calls = []

        def jacobian(t, u):
            calls.append(t)
            return np.array([[-4.0]])

        problem = OdeProblem(m_unk=1, kappa=lambda t, u: -4.0 * u, jacobian=jacobian,
                             u0=np.ones(1), is_linear=True)
        with pytest.raises(SingularStepError):
            linear_propagator(problem, np.array([0.0, 0.125, 0.375, 0.5]), Scheme.dg(0))
        assert len(calls) == 3
