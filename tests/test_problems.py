import numpy as np
import pytest

from oracles import decay_solution, fd_jacobian, sin_solution
from timeschur import (
    LinearizationPolicy,
    OdeProblem,
    Scheme,
    ValidationError,
    build_linear_system,
    cosine_drive,
    forced_riccati,
    linear_decay,
    lotka_volterra,
    random_stable_linear,
    sequential_nonlinear_solve,
    sequential_solve,
    zero_operator,
)
from timeschur.problems import by_name, kappa_batch, jacobian_batch, picard_batch

LV_BENCH = dict(alpha=3.0, beta=0.2, gamma=2.0, delta=0.1, u0=10.0, v0=40.0)

ALL_PROBLEMS = [
    linear_decay(1.0),
    forced_riccati(),
    lotka_volterra(**LV_BENCH),
    cosine_drive(),
    zero_operator(2),
    random_stable_linear(3, seed=5),
]


class TestDecay:
    def test_zero_rate_keeps_solution_constant(self):
        prob = linear_decay(0.0)
        assert np.allclose(prob.kappa(0.3, np.array([2.0])), 0.0)

    def test_analytic_value(self):
        # exp(-lam t) starts at u0, and d/dt exp(-lam t) + kappa(t, exp(-lam t)) vanishes.
        lam, prob = 2.5, linear_decay(2.5)
        assert np.array_equal(decay_solution(lam, 0.0), prob.u0)
        for t in (0.1, 0.4, 1.0):
            u = decay_solution(lam, t)
            assert abs(-lam * u[0] + prob.kappa(t, u)[0]) < 1e-15

    def test_jacobian_is_the_rate(self):
        prob = linear_decay(2.5)
        assert prob.jacobian(0.7, np.array([-3.0]))[0, 0] == pytest.approx(2.5)


class TestRiccati:
    def test_analytic_peak(self):
        # sin t peaks at (pi/2, 1), where the rate -kappa vanishes.
        assert sin_solution(np.pi / 2)[0] == pytest.approx(1.0)
        assert abs(forced_riccati().kappa(np.pi / 2, sin_solution(np.pi / 2))[0]) < 1e-15

    def test_jacobian(self):
        prob = forced_riccati()
        assert prob.jacobian(0.1, np.array([0.3]))[0, 0] == pytest.approx(-0.6)

    def test_analytic_solution_satisfies_the_ode(self):
        # d(sin)/dt + kappa(t, sin t) must vanish.
        prob = forced_riccati()
        for t in np.linspace(0.1, 6.2, 23):
            residual = np.cos(t) + prob.kappa(t, sin_solution(t))[0]
            assert abs(residual) < 1e-14


class TestLotkaVolterra:
    def test_equilibrium(self):
        prob = lotka_volterra(**LV_BENCH)
        eq = np.array([LV_BENCH["gamma"] / LV_BENCH["delta"],
                       LV_BENCH["alpha"] / LV_BENCH["beta"]])
        assert eq[0] == pytest.approx(20.0) and eq[1] == pytest.approx(15.0)
        assert np.allclose(prob.kappa(0.0, eq), 0.0, atol=1e-12)

    def test_jacobian_blocks(self):
        prob = lotka_volterra(**LV_BENCH)
        jac = prob.jacobian(0.0, np.array([10.0, 40.0]))
        assert jac[0, 0] == pytest.approx(-3.0 + 0.2 * 40.0)
        assert jac[0, 1] == pytest.approx(0.2 * 10.0)
        assert jac[1, 0] == pytest.approx(-0.1 * 40.0)
        assert jac[1, 1] == pytest.approx(-0.1 * 10.0 + 2.0)

    def test_uncoupled_rates_grow_and_decay(self):
        # Tiny cross rates approximate no interaction: prey grow, predators shrink.
        prob = lotka_volterra(alpha=1.0, beta=1e-12, gamma=1.0, delta=1e-12,
                              u0=1.0, v0=1.0)
        grid = np.linspace(0.0, 0.5, 201)
        traj, _ = sequential_nonlinear_solve(prob, grid, Scheme.backward_euler(),
                                             LinearizationPolicy())
        assert np.all(np.diff(traj[:, 0]) > 0)
        assert np.all(np.diff(traj[:, 1]) < 0)

    @pytest.mark.parametrize("bad", ["alpha", "beta", "gamma", "delta"])
    def test_rejects_nonpositive_rates(self, bad):
        params = dict(LV_BENCH)
        params[bad] = 0.0
        with pytest.raises(ValidationError):
            lotka_volterra(**params)


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.name)
class TestProblemContracts:
    def test_jacobian_matches_finite_differences(self, problem, rng):
        eps = 1e-6
        for _ in range(100):
            t = rng.uniform(0.0, 3.0)
            u = rng.uniform(0.5, 2.0, size=problem.m_unk)
            jac = np.asarray(problem.jacobian(t, u), dtype=float)
            approx = fd_jacobian(problem, t, u, eps)
            bound = 10.0 * eps * (1.0 + np.linalg.norm(jac))
            assert np.linalg.norm(approx - jac) <= bound

    def test_picard_splitting_is_exact_at_the_freeze_point(self, problem, rng):
        # kappa(t, u) - A(u) @ u depends on t only: the splitting's remainder
        # is one forcing c(t) whatever state A is frozen at.
        if problem.picard_matrix is None:
            pytest.skip("no Picard operator")
        for _ in range(25):
            t = rng.uniform(0.0, 3.0)
            remainders = []
            for _ in range(2):
                u = rng.uniform(0.5, 2.0, size=problem.m_unk)
                mat = np.asarray(problem.picard_matrix(t, u), dtype=float)
                assert mat.shape == (problem.m_unk, problem.m_unk)
                remainders.append(np.asarray(problem.kappa(t, u)) - mat @ u)
            assert np.allclose(remainders[0], remainders[1], atol=1e-12)

    def test_linear_flag_means_state_free_jacobian(self, problem, rng):
        if not problem.is_linear:
            pytest.skip("nonlinear problem")
        t = 0.37
        ref = np.asarray(problem.jacobian(t, rng.normal(size=problem.m_unk)))
        for _ in range(10):
            again = np.asarray(problem.jacobian(t, rng.normal(size=problem.m_unk)))
            assert np.array_equal(ref, again)

    def test_batched_evaluation_matches_loop(self, problem, rng):
        ts = rng.uniform(0.0, 3.0, size=7)
        us = rng.uniform(0.5, 2.0, size=(7, problem.m_unk))
        loop_kappa = np.stack([problem.kappa(t, u) for t, u in zip(ts, us)])
        assert np.allclose(kappa_batch(problem, ts, us), loop_kappa, atol=1e-15)
        loop_jac = np.stack([problem.jacobian(t, u) for t, u in zip(ts, us)])
        assert np.allclose(jacobian_batch(problem, ts, us), loop_jac, atol=1e-15)
        if problem.picard_matrix is not None:
            loop_picard = np.stack([problem.picard_matrix(t, u) for t, u in zip(ts, us)])
            assert np.allclose(picard_batch(problem, ts, us), loop_picard, atol=1e-15)


EXACT = {"decay(lam=1.0)": lambda t: decay_solution(1.0, t), "cosine-drive": sin_solution,
         "riccati": sin_solution}


@pytest.mark.parametrize("problem,solver", [
    (linear_decay(1.0), "linear"),
    (cosine_drive(), "linear"),
    (forced_riccati(), "nonlinear"),
])
def test_backward_euler_first_order_convergence(problem, solver):
    errors = []
    for n in (200, 400, 800):
        t_end = 1.0
        grid = np.linspace(0.0, t_end, n + 1)
        if solver == "linear":
            sys0 = build_linear_system(problem, grid, Scheme.backward_euler())
            traj = sequential_solve(sys0)
        else:
            traj, _ = sequential_nonlinear_solve(problem, grid, Scheme.backward_euler(),
                                                 LinearizationPolicy())
        exact = np.stack([EXACT[problem.name](t) for t in grid])
        errors.append(np.max(np.abs(traj - exact)))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    for rate in rates:
        assert 0.8 <= rate <= 1.2


def test_problem_lookup_by_name():
    assert by_name("decay", lam=2.0).name == "decay(lam=2.0)"
    assert by_name("riccati").name == "riccati"
    lv = by_name("lotka-volterra", alpha=4.0)
    assert lv.m_unk == 2
    with pytest.raises(ValidationError):
        by_name("heat-equation")



@pytest.mark.parametrize("u0", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_rejects_an_initial_value_of_the_wrong_shape(u0):
    with pytest.raises(ValidationError, match=r"u0 must have shape \(2,\)"):
        OdeProblem(m_unk=2, kappa=lambda t, u: u, jacobian=lambda t, u: np.eye(2), u0=u0)


@pytest.mark.parametrize("batch", [jacobian_batch, picard_batch])
def test_one_matrix_from_a_vectorized_callback_is_broadcast_to_every_row(batch):
    mat = np.array([[0.0, 1.0], [-2.0, 0.5]])
    problem = OdeProblem(m_unk=2, kappa=lambda t, u: u @ mat.T, jacobian=lambda t, u: mat,
                         u0=np.ones(2), picard_matrix=lambda t, u: mat, vectorized=True)
    mats = batch(problem, np.linspace(0.0, 1.0, 4), np.ones((4, 2)))
    assert mats.shape == (4, 2, 2) and mats.flags.writeable  # a copy, not a broadcast view
    assert all(np.array_equal(row, mat) for row in mats)
