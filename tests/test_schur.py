import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padded_scan_oracle
from oracles import forward_substitution_oracle, random_system
from timeschur import (
    LevelSystem,
    Scheme,
    SolverReport,
    ValidationError,
    WorkerPool,
    build_explicit,
    build_linear_system,
    build_uniform,
    cosine_drive,
    cost_model,
    level_maps,
    linear_decay,
    lotka_volterra,
    ml_solve,
    petrov_galerkin_assemble,
    random_stable_linear,
    sequential_solve,
    zero_operator,
)
from timeschur import schur
from timeschur.schur import (
    assemble_schur,
    dense_matrix,
    dense_restriction,
    reduce_level,
    restriction_operator,
    scan_solve,
    sweep_down,
)


def make_system(n, m, seed):
    phis, gs, u_init = random_system(n, m, seed)
    return LevelSystem(level=0, phis=phis, gs=gs, u_init=u_init)


def assert_matches_two_loops(sys0, bounds, maps):
    """[E | v] of each subdomain against the two forward substitutions it replaces."""
    m = sys0.m_unk
    assert maps.shape == (sys0.n_elements, m, m + 1)
    for a, b in zip(bounds[:-1], bounds[1:]):
        phis = sys0.phis[a:b - 1]
        v = forward_substitution_oracle(phis, sys0.gs[a:b - 1], np.zeros(m))
        e = forward_substitution_oracle(phis, np.zeros((b - a - 1, m, m)), np.eye(m))
        assert np.max(np.abs(maps[a:b, :, m] - v)) <= 1e-14 * np.max(np.abs(v))
        assert np.max(np.abs(maps[a:b, :, :m] - e)) <= 1e-14 * np.max(np.abs(e))


class TestInteriorCorrection:
    def test_homogeneous_rhs_gives_zero(self):
        phis, _, u_init = random_system(12, 2, seed=1)
        sys0 = LevelSystem(level=0, phis=phis, gs=np.zeros((12, 2)), u_init=u_init)
        part = build_explicit([12, 3], t_end=1.0)
        v = level_maps(sys0, part.subdomain_bounds(0))[:, :, -1]
        assert np.allclose(v, 0.0)

    def test_vanishes_at_interfaces(self):
        sys0 = make_system(20, 2, seed=2)
        part = build_explicit([20, 4], t_end=1.0)
        bounds = part.subdomain_bounds(0)
        v = level_maps(sys0, bounds)[:, :, -1]
        assert len(v) == 20  # every node but the last, which is an interface
        assert np.allclose(v[bounds[:-1]], 0.0)

    def test_matches_zero_inflow_sequential_solve(self):
        # One subdomain of five cosine-forced steps: the interior correction is
        # the plain march started from zero at the subdomain inflow.
        part = build_explicit([5, 1], t_end=1.0)
        sys0 = build_linear_system(cosine_drive(), part.grids[0], Scheme.backward_euler())
        v = level_maps(sys0, part.subdomain_bounds(0))[:, :, -1]
        oracle = forward_substitution_oracle(sys0.phis[:-1], sys0.gs[:-1], np.zeros(1))
        assert np.allclose(v[:5], oracle, atol=1e-15)


class TestExtensionOperator:
    def test_zero_operator_gives_identity_blocks(self):
        part = build_explicit([15, 3], t_end=np.pi)
        sys0 = build_linear_system(zero_operator(1), part.grids[0], Scheme.dg(0))
        ext = level_maps(sys0, part.subdomain_bounds(0))[:, :, :1]
        assert np.allclose(ext, 1.0)

    def test_decay_blocks_are_powers(self):
        part = build_explicit([4, 2], t_end=1.0)
        sys0 = build_linear_system(linear_decay(1.0), part.grids[0], Scheme.backward_euler())
        bounds = part.subdomain_bounds(0)
        ext = level_maps(sys0, bounds)[:, :, :1]
        for a in bounds[:-1]:
            assert ext[a, 0, 0] == pytest.approx(1.0)
            assert ext[a + 1, 0, 0] == pytest.approx(0.8)

    def test_last_block_is_the_propagator_product(self):
        sys0 = make_system(14, 2, seed=3)
        part = build_explicit([14, 2], t_end=1.0)
        bounds = part.subdomain_bounds(0)
        ext = level_maps(sys0, bounds)[:, :, :2]
        for a, b in zip(bounds[:-1], bounds[1:]):
            product = np.eye(2)
            for j in range(a, b - 1):
                product = sys0.phis[j] @ product
            assert np.allclose(ext[b - 1], product, atol=1e-13)


class TestLevelMaps:
    @pytest.mark.parametrize("counts,m", [([23, 4], 2), ([7, 7], 3), ([10, 3], 1)])
    def test_matches_zero_and_identity_inflow_solves(self, counts, m):
        # Ragged last subdomain, one-element subdomains, scalar.
        sys0 = make_system(counts[0], m, seed=13)
        bounds = build_explicit(counts, t_end=1.0).subdomain_bounds(0)
        assert_matches_two_loops(sys0, bounds, level_maps(sys0, bounds))

    @settings(max_examples=50, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(min_value=1, max_value=40),
                                st.integers(min_value=1, max_value=4)),
                      min_size=1, max_size=6),
        m=st.integers(min_value=1, max_value=3),
        shares=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_scan_matches_loops_for_any_bounds(self, runs, m, shares, seed):
        # Runs of (length, count) equal subdomains: mixed lengths, one-element
        # subdomains and any number of runs, split into up to four shares.
        lengths = [length for length, count in runs for _ in range(count)]
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        sys0 = make_system(int(bounds[-1]), m, seed)
        maps = level_maps(sys0, bounds)
        assert_matches_two_loops(sys0, bounds, maps)
        for grain in (0, schur._GRAIN):
            with WorkerPool(shares) as pool, pytest.MonkeyPatch.context() as patch:
                patch.setattr(schur, "_GRAIN", grain)
                assert np.array_equal(maps, level_maps(sys0, bounds, pool=pool))

    def test_shares_fill_their_slices_under_frequent_thread_switches(self, monkeypatch):
        # Eight shares per run on the pool's threads write one output array,
        # however few maps each composes.
        monkeypatch.setattr(schur, "_GRAIN", 0)
        sys0 = make_system(8 * 500 + 9, 2, seed=14)
        bounds = build_explicit([8 * 500 + 9, 16], t_end=1.0).subdomain_bounds(0)
        serial = level_maps(sys0, bounds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(8) as pool:
                for _ in range(5):
                    assert np.array_equal(serial, level_maps(sys0, bounds, pool=pool))
        finally:
            sys.setswitchinterval(interval)


@st.composite
def ragged_bounds(draw):
    """Subdomain bounds whose lengths (1-70) include 1, 2, 2**p - 1, 2**p and 2**p + 1."""
    p = draw(st.integers(min_value=1, max_value=6))
    lengths = [1, 2, 2**p - 1, 2**p, 2**p + 1]
    lengths += draw(st.lists(st.integers(min_value=1, max_value=70), max_size=6))
    lengths = draw(st.permutations(lengths))
    return np.concatenate([[0], np.cumsum(lengths)])


def sweeps(sys0, bounds, inflows, pool=None):
    """Coarse steps and the down-sweep from each of ``inflows``, through one reduction."""
    trees, coarse = reduce_level(sys0, bounds, pool)
    return [coarse.phis, coarse.gs] + [sweep_down(trees, bounds, f, pool) for f in inflows]


class TestSweeps:
    @settings(max_examples=40, deadline=None)
    @given(bounds=ragged_bounds(), m=st.integers(min_value=1, max_value=3),
           shares=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_sweeps_match_loops_for_any_bounds(self, bounds, m, shares, seed):
        sys0 = make_system(int(bounds[-1]), m, seed)
        n1 = len(bounds) - 1
        u = np.random.default_rng(seed).normal(size=(n1, m, 1))
        identity = np.broadcast_to(np.eye(m, m + 1), (n1, m, m + 1))
        phis, gs, solved, zero, maps = results = sweeps(
            sys0, bounds, [u, np.zeros((n1, m, 1)), identity])
        # The coarse steps against a plain product loop. Any order of the
        # products is within s (m+1) eps of |A_s| ... |A_1| entrywise, and
        # long products cancel, so the bound is entrywise, not relative.
        eps = np.finfo(float).eps
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            product, scale = np.eye(m, m + 1), np.eye(m, m + 1)
            for j in range(a, b):
                product = sys0.phis[j] @ product
                product[:, m] += sys0.gs[j]
                scale = np.abs(sys0.phis[j]) @ scale
                scale[:, m] += np.abs(sys0.gs[j])
            error = np.abs(np.column_stack([phis[i], gs[i]]) - product)
            assert np.all(error <= 2 * (b - a) * (m + 1) * eps * scale)
        # The down-sweeps from the identity, zero and vector inflows.
        assert_matches_two_loops(sys0, bounds, maps)
        assert np.array_equal(zero[:, :, 0], maps[:, :, m])
        owner = np.repeat(np.arange(n1), np.diff(bounds))
        expected = (maps[:, :, :m] @ u[owner])[:, :, 0] + maps[:, :, m]
        assert np.max(np.abs(solved[:, :, 0] - expected)) <= 1e-14 * np.max(np.abs(expected))
        # Bitwise equal for any share count, and on two threads.
        for workers, grain in ((shares, schur._GRAIN), (2, 0)):
            with WorkerPool(workers) as pool, pytest.MonkeyPatch.context() as patch:
                patch.setattr(schur, "_GRAIN", grain)
                pooled = sweeps(sys0, bounds, [u, np.zeros((n1, m, 1)), identity], pool)
            assert all(np.array_equal(a, b) for a, b in zip(results, pooled))

    def test_ml_solve_on_chunky_decay_matches_forward_substitution(self):
        # Eight subdomains of 20,000 steps: trees of 32,768 leaves, 15 levels
        # deep. Every step has the same phi, so a tree level rounds all its
        # products alike and their errors add up: the bound is n0 eps, the
        # worst case of any order of the products.
        part = build_explicit([8 * 20000, 8], t_end=1.0)
        sys0 = build_linear_system(linear_decay(1.0), part.grids[0], Scheme.backward_euler())
        exact = forward_substitution_oracle(sys0.phis, sys0.gs, sys0.u_init)
        ml = ml_solve(sys0, part)
        bound = part.counts[0] * np.finfo(float).eps
        assert np.max(np.abs(ml - exact)) <= bound * np.max(np.abs(exact))


class TestRealLeafSweeps:
    """The sweeps against the padded scan (``padded_scan_oracle``), bitwise."""

    @settings(max_examples=40, deadline=None)
    @given(bounds=ragged_bounds(), wide=st.integers(min_value=0, max_value=64),
           m=st.integers(min_value=1, max_value=3), maps=st.booleans(),
           shares=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_sweeps_equal_the_padded_scan(self, bounds, wide, m, maps, shares, seed):
        # ``wide`` more subdomains of 5 steps: a run whose shares reach
        # _INNERMOST_SUBDOMAINS and keep the subdomain axis innermost.
        bounds = np.concatenate([bounds, bounds[-1] + 5 * np.arange(1, wide + 1)])
        sys0 = make_system(int(bounds[-1]), m, seed)
        n1, q = len(bounds) - 1, m + 1 if maps else 1
        inflows = np.random.default_rng(seed).normal(size=(n1, m, q))
        oracle_trees, phis, gs = padded_scan_oracle.reduce_level(sys0, bounds)
        expected = padded_scan_oracle.sweep_down(oracle_trees, bounds, inflows)
        for grain in (0, schur._GRAIN):  # each share on a thread, and all in this one
            with WorkerPool(shares) as pool, pytest.MonkeyPatch.context() as patch:
                patch.setattr(schur, "_GRAIN", grain)
                trees, coarse = reduce_level(sys0, bounds, pool)
                down = sweep_down(trees, bounds, inflows, pool)
            assert np.array_equal(coarse.phis, phis) and np.array_equal(coarse.gs, gs)
            assert np.array_equal(down, expected)

    # Compositions per sweep of one subdomain of s steps, sum over h < width
    # of ceil(s / 2h). The padded scan composed width - 1 in each sweep: 255
    # at s = 129.
    REAL_BLOCKS = {1: 0, 2: 1, 100: 102, 128: 127, 129: 135, 200: 202}

    @pytest.mark.parametrize("s", sorted(REAL_BLOCKS))
    def test_each_sweep_composes_only_the_real_blocks(self, s, monkeypatch):
        composed = []

        def counting(outer, inner):
            composed.append(int(np.prod(outer.shape[2:])))  # maps in the batch
            return compose(outer, inner)

        compose = schur._compose
        monkeypatch.setattr(schur, "_compose", counting)
        bounds = np.array([0, s])
        trees, _ = reduce_level(make_system(s, 2, seed=s), bounds)
        up = sum(composed)
        composed.clear()
        sweep_down(trees, bounds, np.zeros((1, 2, 1)))
        assert up == sum(composed) == self.REAL_BLOCKS[s] == schur._compositions(1, s)


def numpy_shares(bounds, workers):
    """``schur._shares`` as numpy expressions: the reference its Python scan must equal."""
    lengths = np.diff(bounds)
    edges = np.concatenate([[0], np.flatnonzero(np.diff(lengths)) + 1, [len(lengths)]])
    shares = []
    for i, j in zip(edges[:-1].tolist(), edges[1:].tolist()):
        n = min(workers, j - i)
        cuts = [i + (j - i) * c // n for c in range(n + 1)]
        shares += [(lo, hi, int(lengths[i])) for lo, hi in zip(cuts, cuts[1:])]
    return shares


@settings(max_examples=100, deadline=None)
@given(bounds=ragged_bounds(), wide=st.integers(min_value=0, max_value=12),
       workers=st.integers(min_value=1, max_value=4))
def test_shares_equal_the_numpy_reference(bounds, wide, workers):
    # ``wide`` more subdomains of 5 steps: a run longer than the worker count.
    bounds = np.concatenate([bounds, bounds[-1] + 5 * np.arange(1, wide + 1)])
    shares = schur._shares(bounds, workers)
    assert shares == numpy_shares(bounds, workers)
    assert all(type(x) is int for share in shares for x in share)


class TestAssembleSchur:
    def test_decay_coarse_blocks_and_solution(self):
        part = build_explicit([4, 2], t_end=1.0)
        sys0 = build_linear_system(linear_decay(1.0), part.grids[0], Scheme.backward_euler())
        bounds = part.subdomain_bounds(0)
        coarse = assemble_schur(sys0, bounds)
        assert coarse.level == 1
        assert np.allclose(coarse.phis.ravel(), [0.64, 0.64], atol=1e-15)
        coarse_traj = sequential_solve(coarse)
        assert np.allclose(coarse_traj.ravel(), [1.0, 0.64, 0.4096], atol=1e-15)

    def test_homogeneous_system_stays_zero(self):
        phis, _, _ = random_system(12, 2, seed=4)
        sys0 = LevelSystem(level=0, phis=phis, gs=np.zeros((12, 2)), u_init=np.zeros(2))
        part = build_explicit([12, 4], t_end=1.0)
        bounds = part.subdomain_bounds(0)
        coarse = assemble_schur(sys0, bounds)
        assert np.allclose(coarse.gs, 0.0)
        assert np.allclose(sequential_solve(coarse), 0.0)

    def test_frozen_lotka_volterra_interfaces_match_sequential(self):
        # Picard-frozen coefficients at the initial state give a genuine
        # time-invariant linear system of size 2.
        lv = lotka_volterra(3.0, 0.2, 2.0, 0.1, 10.0, 40.0)
        frozen = lv.picard_matrix(0.0, lv.u0)
        grid = np.linspace(0.0, 3.0, 101)
        dt = grid[1] - grid[0]
        phi = np.linalg.solve(np.eye(2) + dt * frozen, np.eye(2))
        sys0 = LevelSystem(level=0, phis=np.broadcast_to(phi, (100, 2, 2)).copy(),
                           gs=np.zeros((100, 2)), u_init=lv.u0.copy())
        part = build_explicit([100, 10], t_end=3.0)
        bounds = part.subdomain_bounds(0)
        coarse = assemble_schur(sys0, bounds)
        oracle = forward_substitution_oracle(sys0.phis, sys0.gs, sys0.u_init)
        interfaces = oracle[part.fine_nodes(1)]
        coarse_traj = sequential_solve(coarse)
        rel = np.max(np.abs(coarse_traj - interfaces) / (np.abs(interfaces) + 1e-30))
        assert rel <= 1e-11

    def test_structure_is_preserved(self):
        sys0 = make_system(30, 3, seed=5)
        part = build_explicit([30, 5], t_end=1.0)
        bounds = part.subdomain_bounds(0)
        coarse = assemble_schur(sys0, bounds)
        assert coarse.phis.shape == (5, 3, 3)
        assert coarse.gs.shape == (5, 3)
        assert np.array_equal(coarse.u_init, sys0.u_init)


class TestMlSolve:
    def test_matches_sequential_oracle(self):
        part = build_uniform(1.0, 2000, 50)
        sys0 = build_linear_system(linear_decay(1.0), part.grids[0], Scheme.backward_euler())
        exact = forward_substitution_oracle(sys0.phis, sys0.gs, sys0.u_init)
        ml = ml_solve(sys0, part)
        assert np.max(np.abs(ml - exact) / (np.abs(exact) + 1e-30)) <= 1e-10

    def test_level_counts_are_irrelevant(self):
        sys_args = random_system(60, 2, seed=6)
        two = build_explicit([60, 6], t_end=1.0)
        three = build_explicit([60, 12, 3], t_end=1.0)
        u_two = ml_solve(LevelSystem(0, *sys_args), two)
        u_three = ml_solve(LevelSystem(0, *sys_args), three)
        scale = np.max(np.abs(u_two)) + 1e-30
        assert np.max(np.abs(u_two - u_three)) / scale <= 1e-12

    def test_single_element_partition(self):
        part = build_uniform(1.0, 1, 2)
        sys0 = build_linear_system(linear_decay(1.0), part.grids[0], Scheme.backward_euler())
        u = ml_solve(sys0, part)
        assert np.allclose(u, sequential_solve(sys0))

    def test_one_level_partition_is_one_scan(self, monkeypatch):
        # The coarse start's grids: no reduction, no sweep, no pool region.
        sys0 = make_system(50, 2, seed=10)
        booked = []
        monkeypatch.setattr(SolverReport, "add_level",
                            lambda report, level, seconds: booked.append((level, len(seconds))))
        monkeypatch.setattr(WorkerPool, "map", None)
        with WorkerPool(2) as pool:
            u = ml_solve(sys0, build_explicit([50], t_end=1.0), pool=pool,
                         report=SolverReport())
        assert np.array_equal(u, scan_solve(sys0))
        assert booked == [(0, 1)]
        assert np.max(np.abs(u - sequential_solve(sys0))) <= 1e-13 * np.max(np.abs(u))

    @pytest.mark.parametrize("counts", [[50], [60, 6], [400, 20, 4]])
    def test_never_calls_the_forward_substitution_loop(self, counts, monkeypatch):
        def loop(system):
            raise AssertionError("ml_solve ran sequential_solve")

        sys0 = make_system(counts[0], 2, seed=11)
        part = build_explicit(counts, t_end=1.0)
        monkeypatch.setattr(schur, "sequential_solve", loop)
        u = ml_solve(sys0, part)
        exact = forward_substitution_oracle(sys0.phis, sys0.gs, sys0.u_init)
        assert np.max(np.abs(u - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_interface_values_are_copied_not_recomputed(self):
        sys0 = make_system(24, 2, seed=7)
        part = build_explicit([24, 4], t_end=1.0)
        bounds = part.subdomain_bounds(0)
        coarse = assemble_schur(sys0, bounds)
        coarse_traj = scan_solve(coarse)
        fine_traj = ml_solve(sys0, part)
        assert np.array_equal(fine_traj[part.fine_nodes(1)], coarse_traj)

    def test_reconstruction_reproduces_local_solves(self):
        # u = v + e @ inflow must equal the subdomain's own forward solve.
        sys0 = make_system(18, 2, seed=8)
        part = build_explicit([18, 3], t_end=1.0)
        bounds = part.subdomain_bounds(0)
        u = ml_solve(sys0, part)
        for a, b in zip(bounds[:-1], bounds[1:]):
            local = forward_substitution_oracle(sys0.phis[a:b - 1], sys0.gs[a:b - 1], u[a])
            assert np.allclose(u[a:b], local, atol=1e-12)

    def test_mismatched_partition_rejected(self):
        from timeschur import ValidationError
        sys0 = make_system(10, 1, seed=9)
        part = build_explicit([12, 3], t_end=1.0)
        with pytest.raises(ValidationError):
            ml_solve(sys0, part)


def orthogonal_system(n, m, seed, gain):
    """Steps ``gain * Q_i`` with random orthogonal ``Q_i``: ``||phi_i|| = gain`` exactly."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, m, m)))
    phis = gain * q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return LevelSystem(level=0, phis=phis, gs=rng.normal(size=(n, m)), u_init=rng.normal(size=m))


class TestScanSolve:
    """The coarsest level's doubling scan against forward substitution."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 100, 1000])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("gain", [0.9, 1.05])  # contractive, and expanding 1.05**100 ~ 130
    def test_matches_forward_substitution(self, n, m, gain):
        sys0 = orthogonal_system(n, m, seed=100 * m + n, gain=gain)
        exact = forward_substitution_oracle(sys0.phis, sys0.gs, sys0.u_init)
        u = scan_solve(sys0)
        assert u.shape == (n + 1, m)
        assert np.max(np.abs(u - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("block", ["phis", "gs"])
    @pytest.mark.parametrize("step", [0, 1, 37, 99])
    def test_a_nan_step_leaves_the_rows_before_it_finite(self, block, step):
        sys0 = make_system(100, 2, seed=12)
        getattr(sys0, block)[step] = np.nan
        u = scan_solve(sys0)
        assert np.array_equal(np.isfinite(u), np.isfinite(sequential_solve(sys0)))
        assert np.all(np.isfinite(u[:step + 1])) and not np.any(np.isfinite(u[step + 1:]))


class TestRestrictionOperator:
    def test_zero_operator_gives_identity_blocks(self):
        part = build_explicit([15, 3], t_end=np.pi)
        sys0 = build_linear_system(zero_operator(1), part.grids[0], Scheme.dg(0))
        restr = restriction_operator(sys0, part.subdomain_bounds(0))
        for block in restr:
            assert np.allclose(block, 1.0)

    def test_decay_blocks_read_backward(self):
        part = build_explicit([4, 2], t_end=1.0)
        sys0 = build_linear_system(linear_decay(1.0), part.grids[0], Scheme.backward_euler())
        restr = restriction_operator(sys0, part.subdomain_bounds(0))
        for block in restr:
            assert block[0, 0, 0] == pytest.approx(0.8)
            assert block[1, 0, 0] == pytest.approx(1.0)

    def test_defining_property_interior_columns_annihilated(self):
        # Dense check: the restriction rows kill the interior columns of K.
        sys0 = make_system(12, 3, seed=10)
        part = build_explicit([12, 3], t_end=1.0)
        bounds = part.subdomain_bounds(0)
        restr = restriction_operator(sys0, bounds)
        f = dense_restriction(restr, bounds, 3)
        k = dense_matrix(sys0)
        product = f @ k
        interior = [j for j in range(13) if j not in set(bounds.tolist())]
        for j in interior:
            assert np.allclose(product[:, j * 3:(j + 1) * 3], 0.0, atol=1e-12)


class TestPetrovGalerkin:
    def test_random_system_equivalence(self):
        sys0 = make_system(20, 2, seed=11)
        part = build_explicit([20, 4], t_end=1.0)
        bounds = part.subdomain_bounds(0)
        maps = level_maps(sys0, bounds)
        restr = restriction_operator(sys0, bounds)
        direct = assemble_schur(sys0, bounds)
        pg = petrov_galerkin_assemble(sys0, maps, restr, bounds)
        scale = np.max(np.abs(direct.phis)) + 1e-30
        assert np.max(np.abs(direct.phis - pg.phis)) / scale <= 1e-12
        gscale = np.max(np.abs(direct.gs)) + 1e-30
        assert np.max(np.abs(direct.gs - pg.gs)) / gscale <= 1e-12
        assert np.allclose(pg.u_init, sys0.u_init)

    def test_decay_coarse_block_both_ways(self):
        part = build_explicit([4, 2], t_end=1.0)
        sys0 = build_linear_system(linear_decay(1.0), part.grids[0], Scheme.backward_euler())
        bounds = part.subdomain_bounds(0)
        maps = level_maps(sys0, bounds)
        restr = restriction_operator(sys0, bounds)
        pg = petrov_galerkin_assemble(sys0, maps, restr, bounds)
        assert np.allclose(pg.phis.ravel(), [0.64, 0.64], atol=1e-14)

    def test_zero_operator_coarsens_to_identity_chain(self):
        part = build_explicit([12, 3], t_end=1.0)
        sys0 = build_linear_system(zero_operator(2), part.grids[0], Scheme.backward_euler())
        bounds = part.subdomain_bounds(0)
        maps = level_maps(sys0, bounds)
        restr = restriction_operator(sys0, bounds)
        pg = petrov_galerkin_assemble(sys0, maps, restr, bounds)
        for i in range(3):
            assert np.allclose(pg.phis[i], np.eye(2), atol=1e-14)
        assert np.allclose(pg.gs, 0.0, atol=1e-14)


class TestCostModel:
    def test_large_hierarchy_values(self):
        part = build_uniform(1.0, 10**4, 100)
        est = cost_model(part, 2)
        assert est.flop_sequential == 6.0e4
        assert est.cpu_parallel == 2 * 100 * 6 * 3
        assert est.speedup == 100 / 6
        assert est.processors == 100
        assert est.levels == 2

    def test_scalar_two_level_speedup(self):
        part = build_explicit([100, 10], t_end=1.0)
        est = cost_model(part, 1)
        assert est.speedup == 10 / 2  # P / (l * (1 + m)) with l = 1, m = 1

    def test_single_level_degenerates_to_sequential(self):
        part = build_uniform(1.0, 1, 2)
        est = cost_model(part, 3)
        assert est.cpu_parallel == est.flop_sequential
        assert est.flop_parallel_bound == est.flop_sequential
        assert est.speedup == 1.0


@st.composite
def partition_counts(draw):
    """Two or three levels; ragged last subdomains and one-element subdomains."""
    n1 = draw(st.integers(min_value=1, max_value=8))
    local = draw(st.integers(min_value=1, max_value=9))
    n0 = n1 * local + draw(st.integers(min_value=0, max_value=n1 - 1))
    counts = [n0, n1]
    if draw(st.booleans()):
        counts.append(draw(st.integers(min_value=1, max_value=n1)))
    return counts


SCHEMES = [Scheme.theta_method(0.5), Scheme.backward_euler(),
           Scheme.dg(0), Scheme.dg(1), Scheme.dg(2)]

# A random system, or a linear problem built on a non-uniform grid.
SOURCES = st.one_of(
    st.just(None),
    st.tuples(st.sampled_from([cosine_drive(), random_stable_linear(2, seed=3)]),
              st.sampled_from(SCHEMES)),
)


def system_and_partition(counts, m, seed, source):
    """``source`` None: a random ``m``-unknown system on a uniform grid. Else a
    ``(problem, scheme)`` built on a grid whose widths vary by up to 4x."""
    if source is None:
        return LevelSystem(0, *random_system(counts[0], m, seed)), \
            build_explicit(counts, t_end=1.0)
    problem, scheme = source
    widths = np.random.default_rng(seed).uniform(0.25, 1.0, counts[0]) / counts[0]
    part = build_explicit(counts, grid=np.concatenate([[0.0], np.cumsum(widths)]))
    return build_linear_system(problem, part.grids[0], scheme), part


@settings(max_examples=60, deadline=None)
@given(
    counts=partition_counts(),
    m=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
    source=SOURCES,
)
def test_ml_solve_is_exact_on_random_systems(counts, m, seed, source):
    sys0, part = system_and_partition(counts, m, seed, source)
    exact = forward_substitution_oracle(sys0.phis, sys0.gs, sys0.u_init)
    ml = ml_solve(sys0, part)
    scale = np.max(np.abs(exact)) + 1e-30
    assert np.max(np.abs(ml - exact)) / scale <= 1e-10


@pytest.fixture(scope="module")
def two_workers():
    with WorkerPool(2) as pool:
        yield pool


@settings(max_examples=15, deadline=None)
@given(
    counts=partition_counts(),
    m=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
    source=SOURCES,
)
def test_ml_solve_bitwise_equal_across_worker_counts(two_workers, counts, m, seed, source):
    sys0, part = system_and_partition(counts, m, seed, source)
    with WorkerPool(1) as one_worker:
        serial = ml_solve(sys0, part, pool=one_worker)
    for grain in (0, schur._GRAIN):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schur, "_GRAIN", grain)
            assert np.array_equal(serial, ml_solve(sys0, part, pool=two_workers))


def test_forward_substitution_does_not_depend_on_the_layout_of_phis():
    # build_linear_system leaves phis a strided view of the [phi | g] block.
    for seed in (1, 2, 3):
        view = build_linear_system(random_stable_linear(2, seed=seed), np.linspace(0, 1, 2001),
                                   Scheme.backward_euler())
        assert not view.phis.flags.c_contiguous
        contiguous = LevelSystem(level=0, phis=np.ascontiguousarray(view.phis),
                                 gs=np.ascontiguousarray(view.gs), u_init=view.u_init)
        for solve in (sequential_solve, scan_solve):
            assert np.array_equal(solve(view), solve(contiguous))


@pytest.mark.parametrize("phis, gs, u_init", [
    (np.zeros((4, 2, 2)), np.zeros((3, 2)), np.zeros(2)),
    (np.zeros((4, 2, 3)), np.zeros((4, 2)), np.zeros(2)),
    (np.zeros((4, 2, 2)), np.zeros((4, 2)), np.zeros(3)),
    (np.zeros((4, 2, 2)), np.zeros((4, 2)), np.zeros((1, 2))),
    (np.zeros((4, 2, 2)), np.zeros(4), np.zeros(2)),
])
def test_level_system_rejects_inconsistent_block_shapes(phis, gs, u_init):
    with pytest.raises(ValidationError, match="inconsistent LevelSystem block shapes"):
        LevelSystem(level=0, phis=phis, gs=gs, u_init=u_init)
