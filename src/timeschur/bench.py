"""Benchmark harness: desk-scale weak-scaling runs, figure data, verification.

Every run emits tidy CSV rows (one per run and level) carrying the full
experiment fingerprint, so identical specs reproduce identical non-timing
columns byte for byte. Figures are emitted as data plus a matplotlib script,
never as rendered images.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import TimeSchurError, ValidationError
from .integrators import Scheme, parse_scheme
from .nonlinear import (
    LinearizationPolicy,
    newton_schur_solve,
    nonlinear_schur_newton_solve,
    sequential_nonlinear_solve,
)
from .partition import MultilevelPartition, build_adaptive_top, build_explicit, build_uniform
from .problems import (
    OdeProblem,
    by_name,
    cosine_drive,
    default_t_end,
    forced_riccati,
    linear_decay,
    random_stable_linear,
    zero_operator,
)
from .runtime import SolverReport, WorkerPool, available_workers
from .schur import (
    LevelSystem,
    assemble_schur,
    build_linear_system,
    level_maps,
    ml_solve,
    petrov_galerkin_assemble,
    restriction_operator,
    sequential_solve,
)

CSV_COLUMNS = [
    "spec_hash", "command", "variant", "problem", "solver", "scheme",
    "n0", "n1", "n2", "level", "workers", "oversubscribed", "reps",
    "outer_iters", "avg_step_iters",
    "residual_final", "wall_s_max", "wall_s_sum", "status", "message",
]


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one benchmark run."""

    problem: str = "lotka-volterra"
    problem_params: dict = field(default_factory=dict)
    scheme: str = "be"
    solver: str = "newton-schur"
    t_end: float | None = None
    n0: int = 1000
    n1: int | None = 10
    n2: int | None = None
    ratio: int | None = None
    levels: int | None = None
    adaptive: bool = False
    policy: LinearizationPolicy = field(default_factory=LinearizationPolicy)
    workers: int | None = None
    reps: int = 1

    def __post_init__(self):
        if self.n0 < 1:
            raise ValidationError("n0 must be at least 1")
        if not isinstance(self.reps, numbers.Integral) or self.reps < 1:
            raise ValidationError("repetitions must be an integer >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def fingerprint(self) -> str:
        payload = asdict(self)
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def resolved_t_end(self) -> float:
        return self.t_end if self.t_end is not None else default_t_end(self.problem)

    def build_problem(self) -> OdeProblem:
        return by_name(self.problem, **self.problem_params)

    def scheme_obj(self) -> Scheme:
        return parse_scheme(self.scheme)

    def build_partition(self) -> MultilevelPartition:
        """Uniform by ``ratio`` (up to ``levels`` levels), else the given counts n0, n1, n2.

        ``adaptive`` gives the top ``round(sqrt(n))`` elements, ``n`` the count
        below it: a level above n1, or the uniform top rebalanced. A count the
        partition would not read raises ``ValidationError``.
        """
        if self.levels is not None and self.ratio is None:
            raise ValidationError("levels applies only with ratio")
        if self.n2 is not None and self.ratio is not None:
            raise ValidationError("n2 conflicts with ratio, which sets every level")
        if self.n2 is not None and self.adaptive:
            raise ValidationError("n2 conflicts with adaptive, which sets the level above n1")
        if self.n2 is not None and self.n1 is None:
            raise ValidationError("n2 needs n1, the level below it")
        t_end = self.resolved_t_end()
        if self.ratio is not None:
            part = build_uniform(t_end, self.n0, self.ratio, max_levels=self.levels)
        else:
            counts = [n for n in (self.n0, self.n1, self.n2) if n is not None]
            # A one-element top for ``adaptive`` to rebalance.
            part = build_explicit(counts + [1] * self.adaptive, t_end=t_end)
        return build_adaptive_top(part) if self.adaptive else part

    def run_workers(self) -> int:
        return self.workers if self.workers is not None else available_workers()

    def subdomain_workers(self) -> int:
        """One modeled worker per level-1 subdomain, capped by ``workers``."""
        return self.n1 if self.workers is None else min(self.n1, self.workers)


def parse_solver(text: str):
    """``sequential``, ``newton-schur`` or ``nlschur:<k>`` -> (kind, level)."""
    text = text.strip().lower()
    if text in ("sequential", "newton-schur"):
        return text, None
    if text.startswith("nlschur:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad nonlinear Schur level in {text!r}") from exc
        if k < 1:
            raise ValidationError("nonlinear Schur level must be >= 1")
        return "nlschur", k
    raise ValidationError(
        f"unknown solver {text!r} (expected sequential, newton-schur, nlschur:<k>)"
    )


def run_solver(spec: ExperimentSpec, partition: MultilevelPartition | None = None,
               workers: int | None = None):
    """Dispatch one solve; returns ``(trajectory, report)``."""
    problem = spec.build_problem()
    scheme = spec.scheme_obj()
    partition = partition if partition is not None else spec.build_partition()
    workers = workers if workers is not None else spec.run_workers()
    kind, level = parse_solver(spec.solver)
    if kind == "sequential":
        return sequential_nonlinear_solve(problem, partition.grids[0], scheme, spec.policy)
    if kind == "newton-schur":
        return newton_schur_solve(problem, partition, scheme, spec.policy, workers=workers)
    return nonlinear_schur_newton_solve(problem, partition, level, scheme, spec.policy,
                                        workers=workers)


def _base_row(spec: ExperimentSpec, command: str, variant: str,
              partition: MultilevelPartition, workers: int) -> dict:
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(spec_hash=spec.fingerprint(), command=command, variant=variant,
               problem=spec.problem, solver=spec.solver, scheme=spec.scheme,
               workers=workers, oversubscribed=workers > available_workers(),
               reps=spec.reps, status="ok")
    row.update(zip(("n0", "n1", "n2"), partition.counts))
    return row


@dataclass
class _Reps:
    """Repeated solves of one run: the first report, min-over-reps level timings, a failure."""

    report: SolverReport | None = None
    timing_max: dict = field(default_factory=dict)
    timing_sum: dict = field(default_factory=dict)
    error: TimeSchurError | None = None

    def add(self, report: SolverReport) -> None:
        self.report = self.report or report
        for timing, per_level in ((self.timing_max, report.per_level_max),
                                  (self.timing_sum, report.per_level_sum)):
            for level, secs in (per_level or {0: report.wall_seconds}).items():
                timing[level] = min(timing.get(level, math.inf), secs)


def _report_rows(base: dict, reps: _Reps) -> list[dict]:
    report = reps.report
    row = {**base, "outer_iters": report.outer_iterations}
    if report.residual_final is not None:
        row["residual_final"] = f"{report.residual_final:.17g}"
    return [{**row, "level": level, "wall_s_max": f"{reps.timing_max[level]:.9f}",
             "wall_s_sum": f"{reps.timing_sum[level]:.9f}"} for level in sorted(reps.timing_max)]


def _sequential_row(base: dict, reps: _Reps) -> dict:
    report, best = reps.report, f"{reps.timing_max[0]:.9f}"
    return {
        **base,
        "outer_iters": report.outer_iterations,
        "avg_step_iters": f"{report.avg_iterations_per_step:.6g}",
        "residual_final": f"{report.residual_final:.17g}",
        "wall_s_max": best,
        "wall_s_sum": best,
    }


def _run_rep_major(runs: list[tuple], reps: int) -> list[dict]:
    """Rows of the ``(spec, partition, workers, base row)`` runs, each solved ``reps`` times.

    Each rep is one pass over every run, so that a host slowdown spreads over
    the runs instead of landing on one run's reps. A failing run stops
    repeating and becomes one ``status=failed`` row; the others continue. The
    rows keep the order of ``runs``: a ``seq`` variant gives one baseline
    row, any other the solver's rows, one per level.
    """
    results = [_Reps() for _ in runs]
    for _ in range(reps):
        for (spec, partition, workers, _), rep in zip(runs, results):
            if rep.error is None:
                try:
                    rep.add(run_solver(spec, partition, workers)[1])
                except TimeSchurError as exc:
                    rep.error = exc
    rows = []
    for (*_, base), rep in zip(runs, results):
        if rep.error is not None:
            rows.append({**base, "status": "failed", "message": str(rep.error)})
        elif base["variant"] == "seq":
            rows.append(_sequential_row(base, rep))
        else:
            rows.extend(_report_rows(base, rep))
    return rows


def run_weak_scaling(spec: ExperimentSpec, n1_list: list[int],
                     local_size: int) -> list[dict]:
    """Fixed local problem size, growing subdomain count; one row per (n1, level).

    Each sweep point solves ``n0 = local_size * n1`` fine steps on a two-level
    partition with ``min(n1, spec workers)`` workers, plus a sequential
    baseline row. The reps run rep-major over every point. Solver failures,
    the baseline's included, become ``status=failed`` rows; the sweep
    continues.
    """
    if not n1_list:
        raise ValidationError("n1 list is empty")
    if any(b <= a for a, b in zip(n1_list, n1_list[1:])):
        raise ValidationError("n1 list must be strictly ascending")
    if n1_list[0] < 1:
        raise ValidationError(f"n1 entries must be >= 1, got {n1_list[0]}")
    if local_size < 1:
        raise ValidationError("local size must be >= 1")
    runs = []  # parallel, then baseline, per point
    for n1 in n1_list:
        point = replace(spec, n0=local_size * n1, n1=n1, n2=None, ratio=None, levels=None,
                        adaptive=False)
        partition, workers = point.build_partition(), point.subdomain_workers()
        seq = replace(point, solver="sequential")
        runs += [(point, partition, workers,
                  _base_row(point, "weak-scaling", "parallel", partition, workers)),
                 (seq, partition, 1,
                  {**_base_row(seq, "weak-scaling", "seq", partition, 1), "level": "seq"})]
    return _run_rep_major(runs, spec.reps)


def run_three_level(spec: ExperimentSpec, compare_two_level: bool = False) -> list[dict]:
    """One three-level run (counts n0 > n1 > n2), optionally paired with two-level.

    The partition is the spec's (with ``adaptive``, n2 = ``round(sqrt(n1))``);
    the two-level partner is the same spec without n2. The reps run rep-major
    over both runs.
    """
    if spec.n1 is None:
        raise ValidationError("three-level runs need n1")
    partition = spec.build_partition()
    counts = partition.counts
    if len(counts) != 3 or not counts[0] > counts[1] > counts[2]:
        raise ValidationError(f"three-level runs need counts n0 > n1 > n2, got {counts}")
    workers = spec.subdomain_workers()
    runs = [(spec, partition, workers,
             _base_row(spec, "three-level", "three-level", partition, workers))]
    if compare_two_level:
        two = replace(spec, n2=None, adaptive=False).build_partition()
        runs.append((spec, two, workers, _base_row(spec, "three-level", "two-level", two,
                                                   workers)))
    return _run_rep_major(runs, spec.reps)


def output_path(path: str | Path) -> Path:
    """``path`` as a file to write, its directory made; a directory raises ``ValidationError``."""
    path = Path(path)
    if path.is_dir():
        raise ValidationError(f"output path {str(path)!r} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_rows(rows: list[dict], path: str | Path) -> Path:
    path = output_path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_trajectory(traj: np.ndarray, grid: np.ndarray, path: str | Path) -> Path:
    path = output_path(path)
    m = traj.shape[1]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [f"u{i}" for i in range(m)])
        for t, row in zip(grid, traj):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])
    return path


# Figure data ------------------------------------------------------------------

# Every script reads the tidy CSV into sorted ``(t, value)`` points per series.
_PLOT_PRELUDE = """\
import csv
import matplotlib.pyplot as plt

series = {}
with open("__CSV__") as handle:
    for row in csv.DictReader(handle):
        series.setdefault(row["series"], []).append((float(row["t"]), float(row["value"])))
series = {name: sorted(pts) for name, pts in series.items()}
"""

_PLOT_EPILOGUE = """\
fig.tight_layout()
fig.savefig("__PNG__", dpi=150)
"""


def emit_figure_data(kind: str, spec: ExperimentSpec, out: str | Path):
    """Write a tidy ``(t, series, value)`` CSV plus a matplotlib script for ``kind``.

    Returns ``(rows, csv_path, script_path)``.
    """
    if kind not in FIGURE_KINDS:
        raise ValidationError(f"unknown figure kind {kind!r} (expected {FIGURE_KINDS})")
    build_rows, _, plot = _FIGURES[kind]
    rows = build_rows(spec)
    out = output_path(out)
    script_path = output_path(out.with_name(out.stem + "_plot.py"))
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "series", "value"])
        for t, series, value in rows:
            writer.writerow([f"{t:.17g}", series, f"{value:.17g}"])
    script = _PLOT_PRELUDE + plot + _PLOT_EPILOGUE
    script = script.replace("__CSV__", out.name).replace("__PNG__", out.stem + ".png")
    script_path.write_text(script, encoding="utf-8")
    return rows, out, script_path


def _coarse_shape_rows(spec: ExperimentSpec):
    # Three subdomains of five elements each on [0, pi], kappa = 0: the
    # extension of the middle coarse node is 1 on its subdomain, the matching
    # restriction is 1 left of it.
    partition = build_explicit([15, 3], t_end=math.pi)
    problem = zero_operator(1)
    sys0 = build_linear_system(problem, partition.grids[0], spec.scheme_obj())
    bounds = partition.subdomain_bounds(0)
    maps = level_maps(sys0, bounds)
    restr = restriction_operator(sys0, bounds)
    grid = partition.grids[0]
    n0 = partition.counts[0]
    e_vals = np.zeros(n0 + 1)
    a, b = bounds[1], bounds[2]
    e_vals[a:b] = maps[a:b, 0, 0]
    f_vals = np.zeros(n0 + 1)
    a0, b0 = bounds[0], bounds[1]
    f_vals[a0 + 1:b0 + 1] = restr[0][:, 0, 0]
    return [(grid[j], name, vals[j]) for j in range(n0 + 1)
            for name, vals in (("extension", e_vals), ("restriction", f_vals))]


def _decomposition_rows(spec: ExperimentSpec):
    # 10 subdomains of 50 elements each on [0, pi]; du/dt = cos(t) from 0.
    partition = build_explicit([500, 10], t_end=math.pi)
    problem = cosine_drive()
    sys0 = build_linear_system(problem, partition.grids[0], spec.scheme_obj())
    bounds = partition.subdomain_bounds(0)
    maps = level_maps(sys0, bounds)
    u1 = sequential_solve(assemble_schur(sys0, bounds))
    # Scalar problem: maps[:, 0] is [E, v] at every node but the last.
    inflow = np.repeat(u1[:-1, 0], np.diff(bounds))
    coarse = np.append(maps[:, 0, 0] * inflow, u1[-1, 0])
    fine = np.append(maps[:, 0, 1], 0.0)
    return [row for t, c, v in zip(partition.grids[0], coarse, fine)
            for row in ((t, "full", v + c), (t, "coarse", c), (t, "fine", v))]


def _lv_phase_rows(spec: ExperimentSpec):
    problem = by_name("lotka-volterra", **spec.problem_params)
    t_end = spec.t_end if spec.t_end is not None else default_t_end("lotka-volterra")
    n0 = spec.n0
    grid = np.linspace(0.0, t_end, n0 + 1)
    traj, _ = sequential_nonlinear_solve(problem, grid, spec.scheme_obj(), spec.policy)
    return [row for t, (u, v) in zip(grid, traj) for row in ((t, "prey", u), (t, "predator", v))]


def _convergence_rows(spec: ExperimentSpec):
    # Global linearization history of the sin-solution benchmark: 500 steps on
    # (0, 2*pi], 15 subdomains, one-point DG.
    partition = build_explicit([500, 15], t_end=2.0 * math.pi)
    problem = forced_riccati()
    _, report = newton_schur_solve(problem, partition, Scheme.dg(0), spec.policy)
    return [(float(i), "residual", r) for i, r in enumerate(report.residual_history)]


# Each figure kind, in the CLI's order: its row builder, the CLI flags it reads, its plot body.
_POLICY_FLAGS = ("tol_global", "tol_local", "max_iters")
_FIGURES = {
    "coarse_shapes": (_coarse_shape_rows, ("scheme",), """\
fig, axes = plt.subplots(1, 2, figsize=(9, 3.2), sharey=True)
for ax, name in zip(axes, ["extension", "restriction"]):
    pts = series[name]
    ax.step([p[0] for p in pts], [p[1] for p in pts], where="post", marker=".")
    ax.set_title(name)
    ax.set_xlabel("t")
"""),
    "decomposition": (_decomposition_rows, ("scheme",), """\
fig, ax = plt.subplots(figsize=(6, 3.6))
for name, style in [("full", "-"), ("coarse", "--"), ("fine", ":")]:
    pts = series[name]
    ax.plot([p[0] for p in pts], [p[1] for p in pts], style, label=name)
ax.set_xlabel("t")
ax.legend()
"""),
    "lv_phase": (_lv_phase_rows, ("alpha", "beta", "gamma", "delta", "u0", "v0", "t_end",
                                  "nsteps", "scheme", *_POLICY_FLAGS), """\
prey = [p[1] for p in series["prey"]]
pred = [p[1] for p in series["predator"]]
ts = [p[0] for p in series["prey"]]
fig, axes = plt.subplots(1, 2, figsize=(9, 3.6))
axes[0].plot(ts, prey, label="prey")
axes[0].plot(ts, pred, label="predator")
axes[0].set_xlabel("t")
axes[0].legend()
axes[1].plot(prey, pred)
axes[1].set_xlabel("prey")
axes[1].set_ylabel("predator")
"""),
    "convergence": (_convergence_rows, _POLICY_FLAGS, """\
pts = series["residual"]
fig, ax = plt.subplots(figsize=(5, 3.6))
ax.semilogy([p[0] for p in pts], [p[1] for p in pts], marker="o")
ax.set_xlabel("iteration")
ax.set_ylabel("residual norm")
"""),
}
FIGURE_KINDS = tuple(_FIGURES)


# Verification suite -----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    error: float
    threshold: float
    detail: str = ""


def _random_system(n: int, m: int, rng: np.random.Generator) -> LevelSystem:
    phis = rng.normal(size=(n, m, m)) * (0.9 / math.sqrt(m))
    gs = rng.normal(size=(n, m))
    return LevelSystem(level=0, phis=phis, gs=gs, u_init=rng.normal(size=m))


def verify(workers: int = 1) -> list[CheckResult]:
    """Run the built-in oracle suite; failures are entries, never exceptions."""
    checks, be = [], Scheme.backward_euler()

    # Direct-method exactness against plain forward substitution.
    worst = 0.0
    for problem in (linear_decay(1.0), random_stable_linear(2, seed=3)):
        partition = build_uniform(1.0, 2000, 50)
        sys0 = build_linear_system(problem, partition.grids[0], be)
        exact = sequential_solve(sys0)
        ml = ml_solve(sys0, partition)
        # Relative per time step: an elementwise ratio is unbounded where a
        # component crosses zero.
        rel = np.max(np.abs(ml - exact), axis=1) / np.max(np.abs(exact), axis=1)
        worst = max(worst, float(np.max(rel)))
    checks.append(CheckResult("linear_exactness", worst <= 1e-10, worst, 1e-10))

    # Petrov-Galerkin equivalence of the two coarse assemblies.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        sys0 = _random_system(20, 2, rng)
        partition = build_explicit([20, 4], t_end=1.0)
        bounds = partition.subdomain_bounds(0)
        maps = level_maps(sys0, bounds)
        direct = assemble_schur(sys0, bounds)
        pg = petrov_galerkin_assemble(sys0, maps, restriction_operator(sys0, bounds), bounds)
        scale = float(np.max(np.abs(direct.phis))) + 1e-30
        worst = max(worst, float(np.max(np.abs(direct.phis - pg.phis))) / scale)
        worst = max(worst, float(np.max(np.abs(direct.gs - pg.gs)))
                    / (float(np.max(np.abs(direct.gs))) + 1e-30))
    checks.append(CheckResult("petrov_galerkin", worst <= 1e-12, worst, 1e-12))

    # Outer iteration counts must not depend on the partition.
    problem = forced_riccati()
    counts = []
    for n1 in (2, 5, 10):
        partition = build_explicit([200, n1], t_end=2.0 * math.pi)
        _, report = newton_schur_solve(problem, partition, be, LinearizationPolicy(),
                                       workers=workers)
        counts.append(report.outer_iterations)
    spread = float(max(counts) - min(counts))
    checks.append(CheckResult("newton_partition_independence", spread == 0.0,
                              spread, 0.0, detail=f"counts={counts}"))

    # All three nonlinear strategies solve the same discrete system.
    partition = build_explicit([300, 10], t_end=2.0 * math.pi)
    policy = LinearizationPolicy()
    seq, _ = sequential_nonlinear_solve(problem, partition.grids[0], be, policy)
    gns, _ = newton_schur_solve(problem, partition, be, policy, workers=workers)
    nls, _ = nonlinear_schur_newton_solve(problem, partition, 1, be, policy, workers=workers)
    worst = max(float(np.max(np.abs(a - b))) for a, b in ((seq, gns), (seq, nls), (gns, nls)))
    checks.append(CheckResult("nonlinear_agreement", worst <= 1e-6, worst, 1e-6))

    # The pool reproduces the in-process results bitwise.
    inproc, _ = newton_schur_solve(problem, partition, be, policy)
    worst = float(np.max(np.abs(gns - inproc)))
    # Ragged subdomains, and shares long enough to run on the pool's threads.
    for counts, problem in (([2003, 40, 7], random_stable_linear(2, seed=3)),
                            ([8 * 20000, 8], linear_decay(1.0))):
        partition = build_explicit(counts, t_end=1.0)
        sys0 = build_linear_system(problem, partition.grids[0], be)
        with WorkerPool(workers) as pool:
            pooled = ml_solve(sys0, partition, pool=pool)
        worst = max(worst, float(np.max(np.abs(pooled - ml_solve(sys0, partition)))))
    checks.append(CheckResult("worker_bitwise", worst == 0.0, worst, 0.0,
                              detail=f"workers={workers}"))

    # Beyond one Lotka-Volterra period both solvers converge from their coarse-grid start;
    # at t_end = 16 only the coarse march reaches.
    lv, worst = by_name("lotka-volterra"), 0.0
    for t_end, levels in ((5.0, (0,)), (16.0, (0, 1))):
        partition = build_explicit([2000, 20], t_end=t_end)
        seq, _ = sequential_nonlinear_solve(lv, partition.grids[0], be, policy)
        for k in levels:
            solve = nonlinear_schur_newton_solve if k else newton_schur_solve
            args = (lv, partition, k, be, policy) if k else (lv, partition, be, policy)
            try:
                worst = max(worst, float(np.max(np.abs(solve(*args, workers=workers)[0] - seq))))
            except TimeSchurError:
                worst = math.inf
    checks.append(CheckResult("long_horizon", worst <= 1e-6, worst, 1e-6))
    return checks
