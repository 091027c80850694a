"""Command-line benchmark harness.

Subcommands: ``solve`` (one run, trajectory export), ``weak-scaling``
(two-level sweep at fixed local size), ``three-level`` (multilevel run),
``figure`` (tidy CSV plus plot script for the built-in figure setups) and
``verify`` (oracle suite). Exit codes: 0 success, 1 failed verification,
2 validation error, 3 solver nonconvergence, 4 singular step matrix, 5 any
other package error (such as a failed pool task). Errors print one
``error:`` line and no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench
from .errors import NonconvergenceError, SingularStepError, TimeSchurError, ValidationError
from .nonlinear import LinearizationPolicy

# Exit code of each package error type; the base class, last, takes the rest.
_EXIT_CODES = ((ValidationError, 2), (NonconvergenceError, 3), (SingularStepError, 4),
              (TimeSchurError, 5))
_POLICY = LinearizationPolicy()  # the run flags' defaults
_ADAPTIVE_HELP = "add a top level of round(sqrt(n1)) elements above n1"


def _add_problem_flags(parser: argparse.ArgumentParser, choose: bool = True) -> None:
    """Lotka-Volterra's parameters and ``--t-end``; ``choose`` adds ``--problem`` and ``--lam``."""
    group = parser.add_argument_group("problem")
    if choose:
        group.add_argument("--problem", default="lotka-volterra",
                           choices=["decay", "riccati", "lotka-volterra"])
        group.add_argument("--lam", type=float, default=1.0, help="decay rate (decay problem)")
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--beta", type=float, default=None)
    group.add_argument("--gamma", type=float, default=None)
    group.add_argument("--delta", type=float, default=None)
    group.add_argument("--u0", type=float, default=None, help="initial prey count")
    group.add_argument("--v0", type=float, default=None, help="initial predator count")
    group.add_argument("--t-end", type=float, default=None)


def _add_run_flags(parser: argparse.ArgumentParser, solves: bool = True,
                   sweeps: bool = False) -> None:
    """Scheme, policy and ``--out``, each subcommand's run flags.

    ``solves`` adds ``--solver`` and ``--workers``; ``sweeps`` adds ``--reps``.
    """
    group = parser.add_argument_group("run")
    group.add_argument("--scheme", default="be", help="be | theta:<v> | dg0 | dg1 | dg2")
    if solves:
        group.add_argument("--solver", default="newton-schur",
                           help="sequential | newton-schur | nlschur:<k>")
    group.add_argument("--tol-global", type=float, default=_POLICY.tol_global)
    group.add_argument("--tol-local", type=float, default=_POLICY.tol_local)
    group.add_argument("--max-iters", type=int, default=_POLICY.max_iters)
    if solves:
        group.add_argument("--workers", type=int, default=None,
                           help="modeled workers; threads cap at the usable CPUs (default: all)")
    if sweeps:
        group.add_argument("--reps", type=int, default=1)
    group.add_argument("--out", default=None, help="output CSV path")


def _spec_from_args(args: argparse.Namespace, **overrides) -> bench.ExperimentSpec:
    """The spec of the flags that ``args`` holds; the spec's defaults stand for the others."""
    flags = vars(args)
    # figure has no --problem: its lv-phase kind reads Lotka-Volterra's parameters
    problem = flags.get("problem", "lotka-volterra")
    params = {}
    if problem == "decay":
        params["lam"] = args.lam
    if problem == "lotka-volterra":
        for key in ("alpha", "beta", "gamma", "delta", "u0", "v0"):
            value = getattr(args, key)
            if value is not None:
                params[key] = value
    return bench.ExperimentSpec(
        problem=problem,
        problem_params=params,
        scheme=args.scheme,
        t_end=args.t_end,
        policy=LinearizationPolicy(tol_global=args.tol_global, tol_local=args.tol_local,
                                   max_iters=args.max_iters),
        **{key: flags[key] for key in ("solver", "workers", "reps") if key in flags},
        **overrides,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeschur",
        description="Parallel-in-time multilevel Schur-complement ODE solver benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one solver and export the trajectory")
    _add_problem_flags(solve)
    _add_run_flags(solve)
    solve.add_argument("--nsteps", type=int, default=1000, help="fine elements n0")
    solve.add_argument("--subdomains", type=int, default=10, help="level-1 elements n1")
    solve.add_argument("--levels", type=int, default=None, help="max levels with --ratio")
    solve.add_argument("--ratio", type=int, default=None,
                       help="coarsening ratio theta (builds the full hierarchy)")
    solve.add_argument("--adaptive", action="store_true",
                       help=_ADAPTIVE_HELP + "; with --ratio, rebalance the top to "
                       "round(sqrt) of the level below")

    weak = sub.add_parser("weak-scaling", help="fixed local size, growing subdomain count")
    _add_problem_flags(weak)
    _add_run_flags(weak, sweeps=True)
    weak.add_argument("--local-size", type=int, default=50, help="fine steps per subdomain")
    weak.add_argument("--n1-list", default="2,4,8",
                      help="ascending comma-separated subdomain counts")

    three = sub.add_parser("three-level", help="one run with counts n0 > n1 > n2")
    _add_problem_flags(three)
    _add_run_flags(three, sweeps=True)
    three.add_argument("--nsteps", type=int, default=2000)
    three.add_argument("--subdomains", type=int, default=20, help="level-1 elements n1")
    three.add_argument("--n2", type=int, default=None, help="level-2 elements")
    three.add_argument("--adaptive", action="store_true",
                       help=_ADAPTIVE_HELP + " (in place of --n2)")
    three.add_argument("--compare-two-level", action="store_true")

    figure = sub.add_parser("figure", help="emit figure data CSV plus a plot script")
    _add_problem_flags(figure, choose=False)
    _add_run_flags(figure, solves=False)
    figure.add_argument("--kind", required=True,
                        choices=[k.replace("_", "-") for k in bench.FIGURE_KINDS])
    figure.add_argument("--nsteps", type=int, default=5000)
    figure.set_defaults(parser=figure)

    ver = sub.add_parser("verify", help="run the built-in oracle suite")
    ver.add_argument("--workers", type=int, default=1)
    ver.add_argument("--out", default=None, help="write the report as JSON")
    return parser


def _cmd_solve(args) -> int:
    spec = _spec_from_args(args, n0=args.nsteps, n1=args.subdomains,
                           ratio=args.ratio, levels=args.levels, adaptive=args.adaptive)
    partition = spec.build_partition()
    traj, report = bench.run_solver(spec, partition)
    if args.out:
        path = bench.write_trajectory(traj, partition.grids[0], args.out)
        print(f"trajectory written to {path}")
    print(f"problem={spec.problem} solver={spec.solver} scheme={spec.scheme}")
    print(f"levels={partition.counts} workers={spec.run_workers()}")
    if report.avg_iterations_per_step is not None:
        print(f"avg iterations/step: {report.avg_iterations_per_step:.3f} "
              f"(newton {report.inner_newton})")
    else:
        print(f"outer iterations: {report.outer_iterations}")
        if report.solver.startswith("nlschur"):
            print(f"inner iterations: {report.inner_newton}")
        print(f"start: {report.start} (coarse outer iterations {report.coarse_iterations})")
    if report.residual_final is not None:
        print(f"final residual norm: {report.residual_final:.3e}")
    for level in sorted(report.per_level_max):
        print(f"level {level}: cpu max {report.per_level_max[level]:.4f}s "
              f"sum {report.per_level_sum[level]:.4f}s")
    print(f"total wall: {report.wall_seconds:.4f}s")
    if report.cost_estimate is not None:
        est = report.cost_estimate
        print(f"cost model: seq flops {est.flop_sequential:.3g}, "
              f"parallel cpu {est.cpu_parallel:.3g}, modeled speedup {est.speedup:.3g}")
    return 0


def _cmd_weak_scaling(args) -> int:
    try:
        n1_list = [int(v) for v in args.n1_list.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad n1 list {args.n1_list!r}") from exc
    rows = bench.run_weak_scaling(_spec_from_args(args), n1_list, args.local_size)
    return _write_sweep(rows, args.out or "weak_scaling.csv")


def _cmd_three_level(args) -> int:
    spec = _spec_from_args(args, n0=args.nsteps, n1=args.subdomains,
                           n2=args.n2, adaptive=args.adaptive)
    rows = bench.run_three_level(spec, compare_two_level=args.compare_two_level)
    return _write_sweep(rows, args.out or "three_level.csv")


def _write_sweep(rows: list[dict], out: str) -> int:
    """Write the rows as CSV and report how many, and how many failed."""
    path = bench.write_rows(rows, out)
    failed = sum(1 for r in rows if r["status"] != "ok")
    print(f"{len(rows)} rows written to {path}" + (f" ({failed} failed)" if failed else ""))
    return 0


def _cmd_figure(args) -> int:
    kind = args.kind.replace("-", "_")
    reads = bench._FIGURES[kind][1] + ("command", "kind", "out", "parser")
    if unread := [f"--{dest.replace('_', '-')}" for dest, value in vars(args).items()
                  if dest not in reads and value != args.parser.get_default(dest)]:
        args.parser.error(f"figure --kind {args.kind} does not read {', '.join(unread)}")
    spec = _spec_from_args(args, n0=args.nsteps)
    out = args.out or f"{kind}.csv"
    _, csv_path, script_path = bench.emit_figure_data(kind, spec, out)
    print(f"data written to {csv_path}, plot script to {script_path}")
    return 0


def _cmd_verify(args) -> int:
    checks = bench.verify(workers=args.workers)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name}: error {check.error:.3e} (threshold {check.threshold:.3e})"
        if check.detail:
            line += f" [{check.detail}]"
        print(line)
    if args.out:
        payload = [check.__dict__ for check in checks]
        with bench.output_path(args.out).open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"report written to {args.out}")
    return 0 if all(check.passed for check in checks) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "weak-scaling": _cmd_weak_scaling,
        "three-level": _cmd_three_level,
        "figure": _cmd_figure,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except TimeSchurError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
