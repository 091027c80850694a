import csv
import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from timeschur import LinearizationPolicy, SolverReport, ValidationError, bench, cli
from timeschur.bench import (
    CSV_COLUMNS,
    ExperimentSpec,
    emit_figure_data,
    parse_solver,
    run_three_level,
    run_weak_scaling,
    verify,
    write_rows,
)

LV = dict(problem="lotka-volterra", solver="newton-schur")


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestSpec:
    def test_fingerprint_is_stable_and_sensitive(self):
        a = ExperimentSpec(**LV)
        b = ExperimentSpec(**LV)
        c = ExperimentSpec(**{**LV, "n0": 77})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_solver_parsing(self):
        assert parse_solver("sequential") == ("sequential", None)
        assert parse_solver("newton-schur") == ("newton-schur", None)
        assert parse_solver("nlschur:2") == ("nlschur", 2)
        for bad in ("nlschur:0", "nlschur:x", "multigrid"):
            with pytest.raises(ValidationError):
                parse_solver(bad)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(reps=0)

    def test_rejects_fractional_reps(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(reps=2.5)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValidationError):
            ExperimentSpec(workers=workers)

    @pytest.mark.parametrize("n0", [0, -3])
    def test_rejects_n0_below_one(self, n0):
        with pytest.raises(ValidationError):
            ExperimentSpec(n0=n0)

    @pytest.mark.parametrize("spec, counts", [
        (ExperimentSpec(n0=100, n1=10, n2=2), (100, 10, 2)),
        (ExperimentSpec(n0=64, ratio=4), (64, 16, 4, 1)),
        # adaptive adds a level of round(sqrt(n1)) above n1 ...
        (ExperimentSpec(n0=2000, n1=100, adaptive=True), (2000, 100, 10)),
        # ... and rebalances the top of a uniform hierarchy to round(sqrt) of the level below.
        (ExperimentSpec(n0=64, ratio=4, adaptive=True), (64, 16, 4, 2)),
        (ExperimentSpec(n0=64, ratio=4, levels=2), (64, 16)),
        (ExperimentSpec(n0=64, ratio=4, levels=2, adaptive=True), (64, 8)),
    ])
    def test_builds_its_partition(self, spec, counts):
        assert spec.build_partition().counts == counts

    @pytest.mark.parametrize("spec, text", [
        (ExperimentSpec(n0=64, ratio=4, n2=2), "n2 conflicts with ratio"),
        (ExperimentSpec(n0=64, n1=8, n2=2, adaptive=True), "n2 conflicts with adaptive"),
        (ExperimentSpec(n0=64, n1=8, levels=3), "levels applies only with ratio"),
        # n2 is not the level-1 count when n1 is missing.
        (ExperimentSpec(n0=100, n1=None, n2=5), "n2 needs n1"),
    ])
    def test_rejects_counts_its_partition_would_not_read(self, spec, text):
        with pytest.raises(ValidationError, match=text):
            spec.build_partition()

    @pytest.mark.parametrize("call, text", [
        (lambda: run_weak_scaling(ExperimentSpec(**LV), [2, 4], 0), "local size must be >= 1"),
        (lambda: run_three_level(ExperimentSpec(**LV, n1=None, n2=4)),
         "three-level runs need n1"),
    ])
    def test_runs_reject_missing_sizes(self, call, text):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == text


class TestWeakScaling:
    def test_rows_have_expected_shape(self, tmp_path):
        spec = ExperimentSpec(**LV, reps=2)
        rows = run_weak_scaling(spec, [2, 4], 30)
        # per n1: one row per level (0 and 1) plus one sequential baseline
        assert len(rows) == 2 * 3
        path = write_rows(rows, tmp_path / "weak.csv")
        parsed = read_csv(path)
        assert list(parsed[0].keys()) == CSV_COLUMNS
        levels = [r["level"] for r in parsed if r["n1"] == "2"]
        assert levels == ["0", "1", "seq"]
        assert all(r["status"] == "ok" for r in parsed)

    @staticmethod
    def _newton_outer_counts(local_size):
        rows = run_weak_scaling(ExperimentSpec(**LV), [2, 5, 10], local_size)
        return {r["n1"]: r["outer_iters"] for r in rows
                if r["variant"] == "parallel" and r["level"] == 0}

    def test_newton_outer_counts_stay_constant_across_sweep(self):
        # From n0 = 200 on, every point hosts the same 100-element coarse start.
        outer = self._newton_outer_counts(100)
        assert len(set(outer.values())) == 1
        assert set(outer.values()) == {2}

    def test_newton_outer_counts_below_the_full_coarse_start(self):
        # At n0 = 100 the coarse start has n0 // 2 = 50 elements, a start
        # farther from the fine solution, and the fine loop takes one more.
        assert self._newton_outer_counts(50) == {2: 3, 5: 2, 10: 2}

    def test_iteration_columns_hold_outer_counts_and_the_baselines_inner_counts(
            self, monkeypatch):
        # Canned reports with every count distinct: no solve runs, no clock is read.
        def fake_run_solver(spec, partition=None, workers=None):
            if spec.solver == "sequential":
                report = SolverReport(solver="sequential", inner_newton=9,
                                      avg_iterations_per_step=0.08)
            else:
                report = SolverReport(solver=spec.solver, outer_iterations=3, inner_newton=16)
                report.per_level_max = report.per_level_sum = {0: 1.0, 1: 2.0}
            report.residual_history = [1e-9]
            return None, report

        monkeypatch.setattr(bench, "run_solver", fake_run_solver)
        spec = ExperimentSpec(problem="lotka-volterra", solver="nlschur:1", workers=1)
        rows = run_weak_scaling(spec, [4], 50)
        assert [(r["level"], r["outer_iters"], r["avg_step_iters"])
                for r in rows] == [(0, 3, ""), (1, 3, ""), ("seq", 0, "0.08")]

    def test_degenerate_single_step_point(self):
        spec = ExperimentSpec(**LV)
        rows = run_weak_scaling(spec, [1], 1)
        assert all(r["status"] == "ok" for r in rows)

    def test_rejects_unsorted_n1(self):
        with pytest.raises(ValidationError):
            run_weak_scaling(ExperimentSpec(**LV), [4, 2], 10)

    def test_solver_failure_becomes_row_and_run_continues(self):
        spec = ExperimentSpec(**LV, policy=LinearizationPolicy(max_iters=1))
        rows = run_weak_scaling(spec, [2, 4], 25)
        failed = [r for r in rows if r["status"] == "failed"]
        assert len(failed) == 2
        assert all("convergence" in r["message"] for r in failed)
        # sequential baselines still present for every sweep point
        assert sum(1 for r in rows if r["level"] == "seq") == 2

    def test_failing_baseline_becomes_row_and_run_continues(self):
        # dt = 0.1 makes the backward-Euler step of du/dt = 10 u singular at
        # n1 = 2, for the parallel solve and the sequential baseline alike.
        spec = ExperimentSpec(problem="decay", problem_params={"lam": -10.0},
                              solver="newton-schur", t_end=1.0, reps=1, workers=1)
        rows = run_weak_scaling(spec, [2, 4], 5)
        by_point = {n1: [r for r in rows if r["n1"] == n1] for n1 in (2, 4)}
        assert [r["level"] for r in by_point[2]] == ["", "seq"]
        assert all(r["status"] == "failed" for r in by_point[2])
        assert all("singular" in r["message"] for r in by_point[2])
        assert all(r["status"] == "ok" for r in by_point[4])
        assert [r["level"] for r in by_point[4]][-1] == "seq"

    def test_wall_columns_report_min_over_reps(self, monkeypatch):
        from timeschur import bench, SolverReport

        calls = {"n": 0}

        def fake_run_solver(spec, partition=None, workers=None):
            calls["n"] += 1
            report = SolverReport(solver=spec.solver)
            report.per_level_max = {0: float(calls["n"])}
            report.per_level_sum = {0: 10.0 * calls["n"]}
            report.residual_history = [1e-12]
            return np.zeros((3, 2)), report

        monkeypatch.setattr(bench, "run_solver", fake_run_solver)
        spec = ExperimentSpec(**LV, n0=400, n1=40, n2=4, reps=3)
        rows = run_three_level(spec, compare_two_level=True)
        # Rep-major: the two runs take calls 1, 3, 5 and 2, 4, 6.
        assert [(r["wall_s_max"], r["wall_s_sum"]) for r in rows] == [
            ("1.000000000", "10.000000000"), ("2.000000000", "20.000000000")]

    def test_level0_critical_path_stays_flat(self):
        spec = ExperimentSpec(**LV, reps=3)
        rows = run_weak_scaling(spec, [2, 4, 8], 50)
        walls = [float(r["wall_s_max"]) for r in rows
                 if r["variant"] == "parallel" and r["level"] == 0]
        assert max(walls) / min(walls) <= 2.0


class TestThreeLevel:
    def test_rows_cover_all_levels(self):
        spec = ExperimentSpec(**LV, n0=400, n1=40, n2=4)
        rows = run_three_level(spec)
        assert [r["level"] for r in rows] == [0, 1, 2]
        assert all(r["n2"] == 4 for r in rows)

    def test_adaptive_coarsening_balances_the_top(self):
        spec = ExperimentSpec(**LV, n0=2000, n1=100, adaptive=True)
        rows = run_three_level(spec)
        assert all(r["n2"] == 10 for r in rows)  # round(sqrt(100))

    def test_rejects_non_decreasing_counts(self):
        with pytest.raises(ValidationError):
            run_three_level(ExperimentSpec(**LV, n0=400, n1=40, n2=40))
        with pytest.raises(ValidationError):
            run_three_level(ExperimentSpec(**LV, n0=400, n1=40, n2=None))

    def test_two_level_comparison_rows(self):
        spec = ExperimentSpec(**LV, n0=400, n1=40, n2=4)
        rows = run_three_level(spec, compare_two_level=True)
        variants = {r["variant"] for r in rows}
        assert variants == {"three-level", "two-level"}

    def test_equal_local_sizes_give_same_order_walls(self):
        # Level-0 and level-1 subdomains both hold 30 steps. Desk-scale
        # preemption noise widens the parity between levels, hence the loose factor.
        spec = ExperimentSpec(**LV, n0=2700, n1=90, n2=3, reps=3)
        rows = run_three_level(spec)
        walls = {r["level"]: float(r["wall_s_max"]) for r in rows}
        ratio = max(walls[0], walls[1]) / min(walls[0], walls[1])
        assert ratio <= 6.0


class TestFigureData:
    def test_coarse_shapes_identity_propagation(self, tmp_path):
        rows, csv_path, script_path = emit_figure_data(
            "coarse_shapes", ExperimentSpec(scheme="dg0"), tmp_path / "shapes.csv")
        assert csv_path.exists() and script_path.exists()
        ext = {t: v for t, series, v in rows if series == "extension"}
        third = math.pi / 3
        for t, v in ext.items():
            inside = third - 1e-12 <= t < 2 * third - 1e-12
            assert v == pytest.approx(1.0 if inside else 0.0, abs=1e-12)

    def test_decomposition_sums_to_full_solution(self, tmp_path):
        rows, _, _ = emit_figure_data(
            "decomposition", ExperimentSpec(scheme="be"), tmp_path / "dec.csv")
        series = {}
        for t, name, v in rows:
            series.setdefault(name, []).append(v)
        full = np.array(series["full"])
        total = np.array(series["coarse"]) + np.array(series["fine"])
        assert np.max(np.abs(full - total)) <= 1e-12

    def test_lv_phase_emits_both_species(self, tmp_path):
        rows, _, _ = emit_figure_data(
            "lv_phase", ExperimentSpec(n0=500), tmp_path / "phase.csv")
        names = {name for _, name, _ in rows}
        assert names == {"prey", "predator"}
        prey = [v for _, name, v in rows if name == "prey"]
        assert min(prey) > 0.0

    def test_convergence_history_reaches_tolerance(self, tmp_path):
        rows, csv_path, script_path = emit_figure_data(
            "convergence", ExperimentSpec(), tmp_path / "conv.csv")
        values = [v for _, _, v in rows]
        assert values[-1] < 1e-8
        assert len(values) >= 3
        assert "semilogy" in script_path.read_text()

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_figure_data("spectrum", ExperimentSpec(), tmp_path / "x.csv")


class TestVerify:
    def test_default_suite_passes(self):
        checks = verify()
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        names = {c.name for c in checks}
        assert names == {"linear_exactness", "petrov_galerkin",
                         "newton_partition_independence", "nonlinear_agreement",
                         "worker_bitwise", "long_horizon"}
        pooled = {c.name: c for c in verify(workers=2)}
        assert pooled["worker_bitwise"].passed, pooled["worker_bitwise"].error

    def test_worker_bitwise_runs_shares_on_the_threads(self, monkeypatch):
        # Two workers: some region of each sweep sends its two shares to the pool's threads.
        from timeschur import WorkerPool

        tasks, pool_map = [], WorkerPool.map

        def recording_map(pool, fn, args_list):
            args_list = list(args_list)
            tasks.append((fn.__name__, len(args_list)))
            return pool_map(pool, fn, args_list)

        monkeypatch.setattr(WorkerPool, "map", recording_map)
        assert all(c.passed for c in verify(workers=2))
        assert {("_subdomain_setup", 2), ("_subdomain_sweep_down", 2)} <= set(tasks)

    def test_injected_sign_bug_is_caught(self, monkeypatch):
        # Flip the sign of the coarse steps: the Petrov-Galerkin cross-check
        # must fail while the dense route stays intact.
        from timeschur import bench, schur

        real = schur.assemble_schur

        def broken(sys, bounds):
            out = real(sys, bounds)
            out.phis = -out.phis
            return out

        monkeypatch.setattr(bench, "assemble_schur", broken)
        checks = {c.name: c for c in verify()}
        assert not checks["petrov_galerkin"].passed

    def test_a_failing_long_horizon_solve_is_a_failed_check(self, monkeypatch):
        from timeschur import NonconvergenceError

        real = bench.newton_schur_solve

        def fails_beyond_one_period(problem, partition, *args, **kwargs):
            if partition.t_end == 5.0:
                raise NonconvergenceError("global linearization loop", 50, 1.0)
            return real(problem, partition, *args, **kwargs)

        monkeypatch.setattr(bench, "newton_schur_solve", fails_beyond_one_period)
        checks = {c.name: c for c in verify()}
        assert checks["long_horizon"].error == math.inf
        assert not checks["long_horizon"].passed
        assert all(c.passed for name, c in checks.items() if name != "long_horizon")


class TestCsvStability:
    def test_identical_specs_give_identical_non_timing_columns(self, tmp_path):
        spec = ExperimentSpec(**LV)
        timing = {"wall_s_max", "wall_s_sum"}
        runs = []
        for tag in ("a", "b"):
            rows = run_weak_scaling(spec, [2, 4], 25)
            path = write_rows(rows, tmp_path / f"{tag}.csv")
            stripped = [{k: v for k, v in row.items() if k not in timing}
                        for row in read_csv(path)]
            runs.append(stripped)
        assert runs[0] == runs[1]


class TestCli:
    def test_solve_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = cli.main(["solve", "--problem", "riccati", "--nsteps", "200",
                        "--subdomains", "10", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 201
        assert abs(float(rows[-1]["u0"]) - math.sin(2 * math.pi)) < 0.1
        assert "outer iterations" in capsys.readouterr().out

    def test_solve_prints_one_start_line(self, capsys):
        code = cli.main(["solve", "--nsteps", "400", "--subdomains", "8", "--workers", "1"])
        assert code == 0
        starts = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("start:")]
        assert starts == ["start: coarse (coarse outer iterations 7)"]

    @pytest.mark.parametrize("solver", ["nlschur:1", "newton-schur"])
    def test_solve_prints_the_inner_iterations_of_nlschur(self, solver, monkeypatch, capsys):
        reports = []
        real = bench.run_solver

        def spy(*args):
            traj, report = real(*args)
            reports.append(report)
            return traj, report

        monkeypatch.setattr(bench, "run_solver", spy)
        code = cli.main(["solve", "--nsteps", "400", "--subdomains", "8", "--solver", solver,
                         "--workers", "1"])
        assert code == 0
        (report,) = reports
        inner = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("inner iterations:")]
        if solver == "newton-schur":  # nothing is extended
            assert inner == []
        else:
            assert report.inner_newton > 0
            assert inner == [f"inner iterations: {report.inner_newton}"]

    def test_solve_with_ratio_builds_hierarchy(self, capsys):
        code = cli.main(["solve", "--problem", "decay", "--lam", "2.0",
                        "--nsteps", "64", "--ratio", "4", "--solver", "sequential"])
        assert code == 0
        assert "levels=(64, 16, 4, 1)" in capsys.readouterr().out

    def test_solve_adaptive_adds_a_level_above_n1(self, capsys):
        code = cli.main(["solve", "--nsteps", "2000", "--subdomains", "100", "--adaptive"])
        assert code == 0
        assert "levels=(2000, 100, 10) " in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["three-level", "--nsteps", "2000", "--subdomains", "100", "--n2", "5", "--adaptive"],
        ["solve", "--nsteps", "1000", "--subdomains", "10", "--levels", "3",
         "--out", "traj.csv"],
    ])
    def test_unread_count_exits_2_before_any_solve(self, argv, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.chdir(tmp_path)  # where the CSV would go
        monkeypatch.setattr(bench, "run_solver", None)  # a solve would raise TypeError
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_readme_cli_examples_parse(self):
        # Each ``timeschur ...`` command of README's CLI block, continuation lines joined.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("timeschur ")]
        assert len(commands) == 7
        parser = cli._build_parser()
        for command in commands:
            parser.parse_args(command[1:])

    def test_weak_scaling_csv(self, tmp_path):
        out = tmp_path / "weak.csv"
        code = cli.main(["weak-scaling", "--local-size", "20", "--n1-list", "2,4",
                        "--reps", "1", "--out", str(out)])
        assert code == 0
        assert len(read_csv(out)) == 6

    @pytest.mark.parametrize("n1_list,bad", [("0,2", "0"), ("-3,2", "-3")])
    def test_weak_scaling_names_bad_n1_entry(self, n1_list, bad, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["weak-scaling", "--local-size", "5", f"--n1-list={n1_list}"]) == 2
        assert f"error: n1 entries must be >= 1, got {bad}" in capsys.readouterr().err

    def test_weak_scaling_rejects_a_non_integer_n1_entry(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["weak-scaling", "--n1-list", "2,x"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: bad n1 list '2,x'"]
        assert not (tmp_path / "weak_scaling.csv").exists()

    @pytest.mark.parametrize("n1_list", ["", ","])
    def test_weak_scaling_rejects_empty_sweep(self, n1_list, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["weak-scaling", f"--n1-list={n1_list}"]) == 2
        assert "error: n1 list is empty" in capsys.readouterr().err
        assert not (tmp_path / "weak_scaling.csv").exists()

    def test_three_level_adaptive(self, tmp_path):
        out = tmp_path / "three.csv"
        code = cli.main(["three-level", "--nsteps", "400", "--subdomains", "100",
                        "--adaptive", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0]["n2"] == "10"

    @pytest.mark.parametrize("argv", [
        ["figure", "--kind", "lv-phase", "--problem", "decay"],
        ["figure", "--kind", "lv-phase", "--lam", "2"],
        ["figure", "--kind", "lv-phase", "--solver", "sequential"],
        ["figure", "--kind", "lv-phase", "--workers", "2"],
        ["figure", "--kind", "lv-phase", "--reps", "2"],
        ["solve", "--reps", "2"],
    ])
    def test_a_flag_the_subcommand_does_not_read_exits_2(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(bench, "run_solver", None)  # a solve would raise TypeError
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, flags", [
        *[(kind, flag) for kind in ("coarse-shapes", "decomposition") for flag in
          (["--alpha", "5"], ["--nsteps", "10"], ["--t-end", "2"], ["--tol-global", "1e-9"],
           ["--max-iters", "7"])],
        *[("convergence", flag) for flag in
          (["--alpha", "5"], ["--v0", "30"], ["--nsteps", "10"], ["--t-end", "2"],
           ["--scheme", "dg1"])],
    ])
    def test_a_flag_the_figure_kind_does_not_read_exits_2(self, kind, flags, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.setattr(bench, "emit_figure_data", None)  # a figure would raise TypeError
        with pytest.raises(SystemExit) as info:
            cli.main(["figure", "--kind", kind, *flags, "--out", str(tmp_path / "f.csv")])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: figure --kind {kind} does not read {flags[0]}\n")

    def test_figure_flags_at_their_defaults_pass(self, tmp_path, monkeypatch):
        written = []
        monkeypatch.setattr(bench, "emit_figure_data",
                            lambda kind, spec, out: written.append(kind) or (None, out, out))
        for kind in ("coarse-shapes", "convergence"):
            assert cli.main(["figure", "--kind", kind, "--nsteps", "5000", "--scheme", "be",
                             "--out", str(tmp_path / "f.csv")]) == 0
        assert written == ["coarse_shapes", "convergence"]

    def test_figure_lv_phase_takes_all_of_its_flags(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(bench, "emit_figure_data",
                            lambda kind, spec, out: specs.append(spec) or (None, out, out))
        assert cli.main(["figure", "--kind", "lv-phase", "--alpha", "2", "--beta", "0.3",
                         "--gamma", "1", "--delta", "0.2", "--u0", "5", "--v0", "6",
                         "--t-end", "2", "--nsteps", "40", "--scheme", "dg1",
                         "--tol-global", "1e-9", "--tol-local", "1e-11",
                         "--max-iters", "7",
                         "--out", str(tmp_path / "f.csv")]) == 0
        (spec,) = specs
        assert spec.problem_params == dict(alpha=2.0, beta=0.3, gamma=1.0, delta=0.2,
                                           u0=5.0, v0=6.0)
        assert (spec.t_end, spec.n0, spec.scheme) == (2.0, 40, "dg1")
        assert spec.policy == LinearizationPolicy(tol_global=1e-9, tol_local=1e-11,
                                                  max_iters=7)

    def test_figure_lv_phase_reads_the_lotka_volterra_parameters(self, tmp_path):
        texts = []
        for flags in ([], ["--alpha", "5"]):
            out = tmp_path / f"phase{len(flags)}.csv"
            assert cli.main(["figure", "--kind", "lv-phase", "--nsteps", "100", *flags,
                             "--out", str(out)]) == 0
            texts.append(out.read_text(encoding="utf-8"))
        assert texts[0] != texts[1]

    def test_figure_subcommand(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = cli.main(["figure", "--kind", "lv-phase", "--nsteps", "300",
                        "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "fig_plot.py").exists()

    def test_verify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = cli.main(["verify", "--out", str(out)])
        assert code == 0
        assert "PASS linear_exactness" in capsys.readouterr().out
        assert all(entry["passed"] for entry in json.loads(out.read_text()))

    def test_verify_creates_the_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "verify", lambda workers: [])
        out = tmp_path / "missing" / "dir" / "v.json"
        assert cli.main(["verify", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == []

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "decay", "--nsteps", "20", "--subdomains", "2"],
        ["weak-scaling", "--problem", "decay", "--local-size", "5", "--n1-list", "2"],
        ["three-level", "--problem", "decay", "--nsteps", "40", "--subdomains", "4",
         "--n2", "2"],
        ["figure", "--kind", "lv-phase", "--nsteps", "20"],
        ["verify"],
    ])
    def test_out_naming_a_directory_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "verify", lambda workers: [])
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: output path {str(tmp_path)!r} is a directory\n"

    def test_infinite_t_end_exits_2_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", "--problem", "decay", "--t-end", "inf"])
        assert code == 2
        assert "error: t_end must be finite and positive" in capsys.readouterr().err

    def test_validation_error_exits_2(self):
        code = cli.main(["three-level", "--nsteps", "100", "--subdomains", "10",
                        "--n2", "10"])
        assert code == 2

    def test_nonconvergence_exits_3(self):
        code = cli.main(["solve", "--problem", "lotka-volterra", "--nsteps", "100",
                        "--subdomains", "5", "--max-iters", "1"])
        assert code == 3

    def test_non_finite_residual_exits_3_at_once(self, capsys):
        code = cli.main(["solve", "--problem", "decay", "--lam", "nan", "--nsteps", "100",
                        "--subdomains", "4"])
        assert code == 3
        assert "after 0 iterations: non-finite residual" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["sequential", "newton-schur", "nlschur:1"])
    @pytest.mark.parametrize("flags", [["--problem", "decay", "--lam", "inf"],
                                       ["--u0", "1e300"], ["--alpha", "inf"]])
    def test_non_finite_input_exits_3_without_warnings(self, solver, flags, capsys):
        # pytest turns warnings into errors: an overflow warning would be a traceback.
        code = cli.main(["solve", *flags, "--nsteps", "40", "--subdomains", "4",
                         "--solver", solver, "--workers", "1"])
        assert code == 3
        assert "non-finite residual" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--workers", "0", "--nsteps", "100", "--subdomains", "4"],
        ["solve", "--workers", "-1", "--nsteps", "100", "--subdomains", "4"],
        ["verify", "--workers", "-2"],
        ["weak-scaling", "--workers", "0", "--local-size", "10", "--n1-list", "2,4"],
    ])
    def test_workers_below_one_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # weak-scaling writes its CSV to the working directory
        assert cli.main(argv) == 2
        assert "error: workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("nsteps", ["0", "-3"])
    def test_figure_without_steps_exits_2(self, nsteps, tmp_path, capsys):
        code = cli.main(["figure", "--kind", "lv-phase", "--nsteps", nsteps,
                        "--out", str(tmp_path / "phase.csv")])
        assert code == 2
        assert "error: n0 must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol-global", "--tol-local"])
    def test_nan_tolerance_exits_2(self, flag, capsys):
        code = cli.main(["solve", "--problem", "decay", "--nsteps", "50", "--subdomains", "5",
                        flag, "nan"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["weak-scaling", "--local-size", "5", "--n1-list", "2,4"],
        ["three-level", "--nsteps", "40", "--subdomains", "4", "--n2", "2",
         "--compare-two-level"],
    ])
    @pytest.mark.parametrize("flag", ["--tol-global", "--tol-local"])
    def test_nan_tolerance_exits_2_before_any_run(self, argv, flag, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)  # where the CSV would go
        assert cli.main([*argv, "--problem", "decay", flag, "nan"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["solve"], ["weak-scaling"], ["three-level"],
                                      ["figure", "--kind", "lv-phase"]])
    def test_run_flags_default_to_the_default_policy(self, argv):
        args, policy = cli._build_parser().parse_args(argv), LinearizationPolicy()
        assert (args.tol_global, args.tol_local, args.max_iters) == \
            (policy.tol_global, policy.tol_local, policy.max_iters)

    @pytest.mark.parametrize("argv", [["solve"], ["weak-scaling"], ["three-level"],
                                      ["figure", "--kind", "lv-phase"]])
    def test_the_retired_picard_switch_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--picard-switch", "50"])
        assert info.value.code == 2
        assert "unrecognized arguments: --picard-switch 50" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_nonconvergent_extension_exits_3(self, workers, capsys):
        # No step residual reaches 1e-300: the windows, then their marches, run
        # out of iterations.
        code = cli.main(["solve", "--problem", "lotka-volterra", "--nsteps", "40",
                        "--subdomains", "4", "--t-end", "30", "--solver", "nlschur:1",
                        "--tol-local", "1e-300", "--workers", workers])
        assert code == 3
        assert "nonlinear extension (level 0, element" in capsys.readouterr().err

    def test_singular_step_exits_4(self, capsys):
        code = cli.main(["solve", "--problem", "decay", "--lam=-10", "--t-end", "1",
                        "--nsteps", "10", "--subdomains", "2", "--solver", "sequential"])
        assert code == 4
        assert ("singular step matrix in time step 1 (t=0.1) on element (0, 0.1)"
                in capsys.readouterr().err)
