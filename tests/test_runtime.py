import os
import time

import numpy as np
import pytest

from timeschur import (
    NonconvergenceError,
    Scheme,
    TaskError,
    ValidationError,
    WorkerPool,
    build_explicit,
    build_linear_system,
    linear_decay,
    lotka_volterra,
    ml_solve,
    newton_schur_solve,
    nonlinear_schur_newton_solve,
)
from timeschur import schur
from timeschur.runtime import SolverReport, available_workers, critical_path_seconds
from timeschur.schur import _subdomain_setup, _up_sweep, scan_solve


def _chain(phis, gs):
    # One subdomain as a batch of one: its up-swept tree.
    m = phis.shape[1]
    tree = np.empty((m, m + 1, 1 << (len(phis) - 1).bit_length(), 1))
    _subdomain_setup([(phis[None], gs[None], tree)])
    return tree


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _boom(x):
    raise RuntimeError(f"bad task {x}")


def _stalls(x):
    raise NonconvergenceError(f"task {x}", 50, 1.0)


def _stops(kind):
    raise kind("stop")


class TestParallelMap:
    def test_results_identical_across_worker_counts(self, rng):
        args = [(rng.normal(size=(30, 2, 2)) * 0.4, rng.normal(size=(30, 2)))
                for _ in range(12)]
        with WorkerPool(1) as pool:
            serial, _, _ = pool.map(_chain, args)
        with WorkerPool(8) as pool:
            parallel, _, _ = pool.map(_chain, args)
        for maps1, maps2 in zip(serial, parallel):
            assert np.array_equal(maps1, maps2)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValidationError):
            WorkerPool(workers)

    def test_none_means_all_cores(self):
        with WorkerPool(None) as pool:
            assert pool.workers == available_workers()

    def test_workers_count_the_cpus_of_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert available_workers() == 1
        with WorkerPool(None) as pool:
            assert (pool.workers, pool.processes) == (1, 1)
        with WorkerPool(2) as pool:
            assert (pool.workers, pool.processes) == (2, 1)

    def test_workers_without_an_affinity_mask_count_the_cores(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_workers() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_workers() == 1

    def test_empty_task_list(self):
        with WorkerPool(4) as pool:
            results, seconds, elapsed = pool.map(_chain, [])
        assert results == [] and seconds == []
        assert elapsed < 0.05

    def test_exception_carries_task_index(self):
        with pytest.raises(TaskError) as err, WorkerPool(2) as pool:
            pool.map(_boom, [(1,), (2,), (3,)])
        assert err.value.index in (0, 1, 2)
        assert isinstance(err.value.original, RuntimeError)

    def test_package_errors_surface_as_themselves(self):
        with pytest.raises(NonconvergenceError) as err, WorkerPool(2) as pool:
            pool.map(_stalls, [(1,), (2,), (3,)])
        assert err.value.where == "task 1" and err.value.iterations == 50

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", [SystemExit, KeyboardInterrupt])
    def test_exit_and_interrupt_surface_unwrapped(self, kind, workers):
        # A signal handler's SystemExit must stop the caller, not count as a failed task.
        with pytest.raises(kind), WorkerPool(workers) as pool:
            pool.map(_stops, [(kind,), (kind,)])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_pooled_solves_leave_no_descriptors_open(self, monkeypatch):
        # Every pool starts new threads: each share of a sweep is a task.
        monkeypatch.setattr(schur, "_GRAIN", 0)
        prob = lotka_volterra(3.0, 0.2, 2.0, 0.1, 10.0, 40.0)
        part = build_explicit([120, 6], t_end=3.0)
        newton_schur_solve(prob, part, Scheme.backward_euler(), workers=2)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            newton_schur_solve(prob, part, Scheme.backward_euler(), workers=2)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_elapsed_tracks_the_parallel_region(self):
        # 8 equal sleep tasks over 2 workers: about 4 rounds, generous slack.
        naptime = 0.05
        with WorkerPool(2) as pool:
            pool.map(_sleepy, [(naptime,)] * 2)  # warm the pool
            _, seconds, elapsed = pool.map(_sleepy, [(naptime,)] * 8)
        ideal = 4 * naptime
        assert elapsed >= ideal * 0.9
        assert elapsed <= 2 * ideal
        assert all(s >= naptime * 0.9 for s in seconds)


class TestLevelTimings:
    """Every level timing reads the thread CPU clock of the thread doing the work."""

    @staticmethod
    def _timed_ml_solve(counts=(400, 20, 4), workers=1):
        prob = linear_decay(1.0)
        part = build_explicit(list(counts), t_end=1.0)
        sys0 = build_linear_system(prob, part.grids[0], Scheme.backward_euler())
        report = SolverReport()
        with WorkerPool(workers) as pool:
            ml_solve(sys0, part, pool=pool, report=report)
        return report

    @staticmethod
    def _burning(tree, s):
        # Burns 20 ms in the up-sweep, which computes a share's coarse steps.
        start = time.thread_time()
        while time.thread_time() - start < 0.02:
            pass
        return _up_sweep(tree, s)

    def test_assembly_is_counted_in_its_level(self, monkeypatch):
        monkeypatch.setattr(schur, "_up_sweep", self._burning)
        assert self._timed_ml_solve().per_level_max[0] >= 0.02

    def test_each_worker_assembles_only_its_share(self, monkeypatch):
        # Four subdomains, four workers: four shares, each timed as one 20 ms task.
        monkeypatch.setattr(schur, "_up_sweep", self._burning)
        report = self._timed_ml_solve(counts=(400, 4), workers=4)
        assert report.per_level_sum[0] >= 4 * 0.02
        assert 0.02 <= report.per_level_max[0] < 2 * 0.02

    def test_sleep_in_the_coarse_solve_is_not_counted(self, monkeypatch):
        slept = []

        def sleepy(system):
            time.sleep(0.05)
            slept.append(system.level)
            return scan_solve(system)

        monkeypatch.setattr(schur, "scan_solve", sleepy)
        assert self._timed_ml_solve().per_level_max[2] < 0.05
        assert slept == [2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_level_is_timed_and_max_never_exceeds_sum(self, workers):
        prob = lotka_volterra(3.0, 0.2, 2.0, 0.1, 10.0, 40.0)
        part = build_explicit([400, 20, 4], t_end=3.0)
        _, report = newton_schur_solve(prob, part, Scheme.backward_euler(), workers=workers)
        assert sorted(report.per_level_max) == sorted(report.per_level_sum) == [0, 1, 2]
        for level, longest in report.per_level_max.items():
            assert 0 < longest <= report.per_level_sum[level]


class TestCriticalPath:
    def test_fits_within_workers(self):
        assert critical_path_seconds([3.0, 1.0, 2.0], workers=4) == 3.0

    def test_round_robin_accumulates(self):
        # Two workers: loads are 1+3=4 and 2+4=6.
        assert critical_path_seconds([1.0, 2.0, 3.0, 4.0], workers=2) == 6.0

    def test_empty(self):
        assert critical_path_seconds([], workers=3) == 0.0


class TestShareDispatch:
    """A level's shares go to the threads by their work counts alone, in both sweeps."""

    @staticmethod
    def _regions(monkeypatch, solve):
        """``(task, groups, booked)`` per sweep region of ``solve()``.

        ``groups`` holds the compositions of each share, grouped by pool task;
        ``booked`` is the number of task seconds the report took next.
        """
        events, pool_map, add_level = [], WorkerPool.map, SolverReport.add_level

        def recording_map(pool, fn, args_list):
            args_list = list(args_list)
            if fn in (schur._subdomain_setup, schur._subdomain_sweep_down):
                # A share's (k, s, ...) block: its gs, or the down-sweep's output.
                groups = [[schur._compositions(*(share[1] if len(share) == 3 else share[3])
                                               .shape[:2]) for share in group]
                          for (group,) in args_list]
                events.append((fn.__name__, groups))
            return pool_map(pool, fn, args_list)

        def recording_add_level(report, level, task_seconds, workers=1):
            events.append(len(task_seconds))
            add_level(report, level, task_seconds, workers)

        monkeypatch.setattr(WorkerPool, "map", recording_map)
        monkeypatch.setattr(SolverReport, "add_level", recording_add_level)
        solve()
        return [(*event, events[i + 1]) for i, event in enumerate(events)
                if isinstance(event, tuple)]

    def test_shares_below_the_grain_are_one_task(self, monkeypatch):
        # The lv-newton benchmark shape: two shares of 25 subdomains of 200
        # steps, 5,050 compositions each. The coarse start's one-level loop
        # sweeps nothing: its updates are doubling scans.
        prob = lotka_volterra(3.0, 0.2, 2.0, 0.1, 10.0, 40.0)
        part = build_explicit([10000, 50], t_end=3.0)
        regions = self._regions(monkeypatch, lambda: newton_schur_solve(
            prob, part, Scheme.backward_euler(), workers=2))
        assert {task for task, _, _ in regions} == {"_subdomain_setup", "_subdomain_sweep_down"}
        for _, groups, booked in regions:
            assert len(groups) == 1 and len(groups[0]) == booked
            assert max(groups[0]) < schur._GRAIN
        assert {tuple(groups[0]) for _, groups, _ in regions} == {(5050, 5050)}

    def test_shares_above_the_grain_are_one_task_each(self, monkeypatch):
        # The chunky decay case: two shares of 4 subdomains of 20,000 steps,
        # 80,020 compositions each.
        part = build_explicit([8 * 20000, 8], t_end=1.0)
        sys0 = build_linear_system(linear_decay(1.0), part.grids[0], Scheme.backward_euler())
        with WorkerPool(2) as pool:
            regions = self._regions(monkeypatch, lambda: ml_solve(
                sys0, part, pool=pool, report=SolverReport()))
        assert schur._GRAIN <= 80020
        assert regions == [("_subdomain_setup", [[80020], [80020]], 2),
                           ("_subdomain_sweep_down", [[80020], [80020]], 2)]


class TestSolverDeterminism:
    """Every pooled solve runs with each share on a thread, and with the shipped grain."""

    def test_trajectories_bitwise_equal_across_worker_counts(self, monkeypatch):
        prob = lotka_volterra(3.0, 0.2, 2.0, 0.1, 10.0, 40.0)
        part = build_explicit([300, 6], t_end=3.0)
        t1, r1 = newton_schur_solve(prob, part, Scheme.backward_euler(), workers=1)
        for grain in (0, schur._GRAIN):
            monkeypatch.setattr(schur, "_GRAIN", grain)
            t4, r4 = newton_schur_solve(prob, part, Scheme.backward_euler(), workers=4)
            assert np.array_equal(t1, t4)
            assert r1.outer_iterations == r4.outer_iterations
            assert r1.residual_history == r4.residual_history

    @staticmethod
    def _assert_nlschur_bitwise_equal_across_worker_counts(counts, k, monkeypatch):
        prob = lotka_volterra(3.0, 0.2, 2.0, 0.1, 10.0, 40.0)
        part = build_explicit(counts, t_end=3.0)
        t1, r1 = nonlinear_schur_newton_solve(prob, part, k, Scheme.backward_euler(),
                                              workers=1)
        assert r1.residual_final < 1e-8
        for grain in (0, schur._GRAIN):
            monkeypatch.setattr(schur, "_GRAIN", grain)
            t2, r2 = nonlinear_schur_newton_solve(prob, part, k, Scheme.backward_euler(),
                                                  workers=2)
            assert np.array_equal(t1, t2)
            assert r1.residual_history == r2.residual_history
            assert r1.interior_residual_history == r2.interior_residual_history
            assert (r1.outer_iterations, r1.inner_newton) == (r2.outer_iterations,
                                                              r2.inner_newton)

    def test_nlschur_bitwise_equal_across_worker_counts(self, monkeypatch):
        # Ragged last subdomain.
        self._assert_nlschur_bitwise_equal_across_worker_counts([307, 7], 1, monkeypatch)

    @pytest.mark.parametrize("k, counts", [(2, [307, 14, 4]), (3, [307, 14, 4, 2])])
    def test_nested_nlschur_bitwise_equal_across_worker_counts(self, k, counts, monkeypatch):
        # Ragged subdomains at every level.
        self._assert_nlschur_bitwise_equal_across_worker_counts(counts, k, monkeypatch)


@pytest.mark.slow
def test_parallel_solve_beats_serial_on_chunky_subdomains():
    # n1 = 8 subdomains of 2e4 steps each; two cores must beat one strictly.
    prob = linear_decay(1.0)
    part = build_explicit([8 * 20000, 8], t_end=1.0)
    sys0 = build_linear_system(prob, part.grids[0], Scheme.backward_euler())
    walls = {}
    for workers in (1, 2):
        with WorkerPool(workers) as pool:
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                ml_solve(sys0, part, pool=pool)
                best = min(best, time.perf_counter() - start)
        walls[workers] = best
    assert walls[2] < walls[1]
