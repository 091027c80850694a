"""The benchmark's workloads: inputs from a seed, the timed solves, the gates.

Every call into timeschur goes through a module attribute
(``schur.ml_solve``, ``nonlinear.newton_schur_solve``, ...) so that a
``Tracer`` active around the call sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from timeschur import nonlinear, partition, problems, runtime, schur
from timeschur.integrators import Scheme

SCHEME = Scheme.backward_euler()
POLICY = nonlinear.LinearizationPolicy()
# Gates on the deviation from the sequential solution, relative to its max|u|.
# Relative to max|u|, not elementwise: components of these decaying and
# oscillating solutions cross zero, where an elementwise ratio is unbounded.
LINEAR_TOL = 1e-10      # ml_solve against forward substitution (the `timeschur verify` bound)
TRAJECTORY_TOL = 1e-6   # nonlinear solvers against time-marching
LV_JITTER = 0.01        # relative spread of the seeded initial populations


@dataclass
class Instance:
    """What set-up builds once per problem instance."""

    problem: object
    partition: object
    pools: dict = field(default_factory=dict)  # workers -> WorkerPool held by the benchmark

    def close(self) -> None:
        for pool in self.pools.values():
            pool.close()


class LinearDeep:
    """``random_stable_linear(m=2)``, backward Euler, uniform grid coarsened by 100.

    The parallel solve is build plus ``ml_solve`` on a pool the benchmark
    holds; the sequential one is build plus forward substitution.
    """

    name = "linear-deep"
    why = ("four-level linear direct solve: integrators build and the multilevel "
           "schur reduction and reconstruction do the work, no nonlinear layer")
    sizes = {"full": {"n0": 20000, "ratio": 100}, "tiny": {"n0": 2000, "ratio": 10}}
    setup_reps = 3

    def __init__(self, size: str = "full"):
        self.n0 = self.sizes[size]["n0"]
        self.ratio = self.sizes[size]["ratio"]

    def make_problem(self, seed: int):
        return problems.random_stable_linear(2, seed=seed)

    def make_partition(self):
        return partition.build_uniform(1.0, self.n0, self.ratio)

    def setup(self, seed: int, workers: int) -> Instance:
        pools = {1: runtime.WorkerPool(1), workers: runtime.WorkerPool(workers)}
        pools[workers].map(abs, [(i,) for i in range(2 * workers)])  # fork and warm up
        return Instance(self.make_problem(seed), self.make_partition(), pools)

    def solve(self, inst: Instance, problem, workers: int):
        system = schur.build_linear_system(problem, inst.partition.grids[0], SCHEME)
        return schur.ml_solve(system, inst.partition, pool=inst.pools[workers]), None

    def sequential(self, inst: Instance, problem):
        system = schur.build_linear_system(problem, inst.partition.grids[0], SCHEME)
        return schur.sequential_solve(system), None

    def check_sequential(self, traj, report) -> str | None:
        return None if np.all(np.isfinite(traj)) else "forward substitution is not finite"

    def check(self, traj, report, reference) -> str | None:
        return _deviation_error(traj, reference, LINEAR_TOL)


class LotkaVolterra:
    """Lotka-Volterra with seeded initial populations, backward Euler, two levels."""

    setup_reps = 20

    def __init__(self, name: str, solver: str, why: str, sizes: dict, size: str = "full"):
        self.name = name
        self.solver = solver
        self.why = why
        self.sizes = sizes
        self.n0 = sizes[size]["n0"]
        self.n1 = sizes[size]["n1"]

    def make_problem(self, seed: int):
        base = problems.by_name("lotka-volterra").u0
        u0, v0 = base * (1.0 + LV_JITTER * np.random.default_rng(seed).uniform(-1, 1, 2))
        return problems.by_name("lotka-volterra", u0=float(u0), v0=float(v0))

    def make_partition(self):
        t_end = problems.default_t_end("lotka-volterra")
        return partition.build_explicit([self.n0, self.n1], t_end=t_end)

    def setup(self, seed: int, workers: int) -> Instance:
        return Instance(self.make_problem(seed), self.make_partition())

    def solve(self, inst: Instance, problem, workers: int):
        if self.solver == "newton-schur":
            return nonlinear.newton_schur_solve(problem, inst.partition, SCHEME, POLICY,
                                                workers=workers)
        return nonlinear.nonlinear_schur_newton_solve(problem, inst.partition, 1, SCHEME,
                                                      POLICY, workers=workers)

    def sequential(self, inst: Instance, problem):
        return nonlinear.sequential_nonlinear_solve(problem, inst.partition.grids[0],
                                                    SCHEME, POLICY)

    def check_sequential(self, traj, report) -> str | None:
        return _residual_error(report)

    def check(self, traj, report, reference) -> str | None:
        return _residual_error(report) or _deviation_error(traj, reference, TRAJECTORY_TOL)


def _deviation_error(traj, reference, tol) -> str | None:
    dev = float(np.max(np.abs(traj - reference)) / np.max(np.abs(reference)))
    if not dev <= tol:
        return f"deviation from the sequential solution {dev:.3e} > {tol:g} (relative)"
    return None


def _residual_error(report) -> str | None:
    res = report.residual_final
    if res is None or not res < POLICY.tol_global:
        return f"final residual {res} not below tol_global {POLICY.tol_global:g}"
    return None


def make(name: str, size: str = "full"):
    """The workload called ``name`` at ``size`` ("full" or "tiny")."""
    if name == LinearDeep.name:
        return LinearDeep(size)
    if name == "lv-newton":
        return LotkaVolterra(
            name, "newton-schur",
            "newton-schur runs the linear core once per outer iteration on batched "
            "callbacks: schur subdomain setup and runtime dispatch dominate",
            {"full": {"n0": 10000, "n1": 50}, "tiny": {"n0": 400, "n1": 8}}, size)
    if name == "lv-nlschur":
        return LotkaVolterra(
            name, "nlschur:1",
            "nlschur:1 spends its time in per-step local nonlinear solves and "
            "single-vector problem calls; it bypasses the schur core",
            {"full": {"n0": 2000, "n1": 20}, "tiny": {"n0": 200, "n1": 8}}, size)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("linear-deep", "lv-newton", "lv-nlschur")
