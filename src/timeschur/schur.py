"""Multilevel Schur-complement direct solver for block-bidiagonal ODE systems.

A level system is the unit-diagonal lower block-bidiagonal problem

    u^0 = u_init,    u^i = phi^i @ u^{i-1} + g^i    (i = 1..n),

stored as stacked propagator arrays. One reduction step solves, per
subdomain, the interior correction (zero inflow) and the harmonic extension
(identity inflow), then chains the subdomain's closing step into a coarse
propagator: the Schur complement on the interface nodes has the same
structure one level up. The full solve reduces level by level, solves the
coarsest system by forward substitution, and reconstructs downwards via
``u = v + E @ u_coarse`` with interface values copied verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .integrators import AffinePropagator, Scheme, linear_propagator
from .partition import MultilevelPartition
from .problems import OdeProblem
from .runtime import CostEstimate, SolverReport, WorkerPool, task_clock


@dataclass
class LevelSystem:
    """Block-bidiagonal system of one partition level.

    ``phis[i]`` and ``gs[i]`` form the propagator of element ``i + 1`` (the
    map from node ``i`` to node ``i + 1``); ``u_init`` pins node 0.
    """

    level: int
    phis: np.ndarray  # (n, m, m)
    gs: np.ndarray    # (n, m)
    u_init: np.ndarray  # (m,)

    def __post_init__(self):
        self.phis = np.asarray(self.phis, dtype=float)
        self.gs = np.asarray(self.gs, dtype=float)
        self.u_init = np.asarray(self.u_init, dtype=float)
        n, m = self.gs.shape
        if self.phis.shape != (n, m, m) or self.u_init.shape != (m,):
            raise ValidationError("inconsistent LevelSystem block shapes")

    @property
    def n_elements(self) -> int:
        return self.gs.shape[0]

    @property
    def m_unk(self) -> int:
        return self.gs.shape[1]

    def propagators(self) -> list[AffinePropagator]:
        """Per-element view as affine propagators."""
        return [AffinePropagator(self.phis[i], self.gs[i]) for i in range(self.n_elements)]


def build_linear_system(problem: OdeProblem, grid: np.ndarray, scheme: Scheme) -> LevelSystem:
    """Level-0 system of a linear problem on ``grid``.

    Autonomous problems on (numerically) uniform grids share a single
    factorized propagator across all elements.
    """
    n = len(grid) - 1
    m = problem.m_unk
    phis = np.empty((n, m, m))
    gs = np.empty((n, m))
    widths = np.diff(grid)
    uniform = bool(np.all(np.abs(widths - widths[0]) <= 1e-12 * abs(widths[0])))
    if problem.autonomous and uniform and n > 1:
        prop = linear_propagator(problem, grid[0], grid[1], scheme)
        phis[:] = prop.phi
        gs[:] = prop.g
    else:
        for i in range(n):
            prop = linear_propagator(problem, grid[i], grid[i + 1], scheme)
            phis[i] = prop.phi
            gs[i] = prop.g
    return LevelSystem(level=0, phis=phis, gs=gs, u_init=problem.u0.copy())


def sequential_solve(sys: LevelSystem) -> np.ndarray:
    """Plain forward substitution; the baseline every parallel path must match."""
    n, m = sys.n_elements, sys.m_unk
    u = np.empty((n + 1, m))
    u[0] = sys.u_init
    for i in range(n):
        u[i + 1] = sys.phis[i] @ u[i] + sys.gs[i]
    return u


def _subdomain_setup(phis: np.ndarray, gs: np.ndarray):
    """Interior correction and extension blocks of one subdomain.

    Inputs are the subdomain's element blocks (size s). Outputs cover the
    subdomain's nodes *excluding* its right interface: ``v`` from zero inflow,
    ``e`` from identity inflow (1 + m_unk local forward solves).
    """
    s, m = gs.shape
    v = np.zeros((s, m))
    e = np.empty((s, m, m))
    e[0] = np.eye(m)
    for j in range(1, s):
        v[j] = phis[j - 1] @ v[j - 1] + gs[j - 1]
        e[j] = phis[j - 1] @ e[j - 1]
    return v, e


def _restriction_task(phis: np.ndarray):
    """Backward (transposed) solves of one subdomain.

    Covers nodes ``a+1 .. b`` of a subdomain spanning nodes ``a .. b``; block
    at the right interface is the identity.
    """
    s = phis.shape[0]
    m = phis.shape[1]
    f = np.empty((s, m, m))
    f[s - 1] = np.eye(m)
    for j in range(s - 2, -1, -1):
        f[j] = phis[j + 1].T @ f[j + 1]
    return (f,)


def _setup_level(sys: LevelSystem, bounds: np.ndarray, pool: WorkerPool | None,
                 report: SolverReport | None):
    args = [(sys.phis[a:b], sys.gs[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    if pool is None:
        results = [_subdomain_setup(*a) for a in args]
        seconds = []
    else:
        results, seconds, _ = pool.map(_subdomain_setup, args)
    if report is not None and seconds:
        report.add_level_tasks(sys.level, seconds)
    vs = [r[0] for r in results]
    es = [r[1] for r in results]
    return vs, es


def interior_correction(
    sys: LevelSystem,
    bounds: np.ndarray,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Solution with zero values pinned at the interface nodes.

    One independent forward solve per subdomain; the returned array covers all
    nodes, vanishing at every interface.
    """
    vs, _ = _setup_level(sys, bounds, pool, None)
    v = np.zeros((sys.n_elements + 1, sys.m_unk))
    for (a, b), block in zip(zip(bounds[:-1], bounds[1:]), vs):
        v[a:b] = block
    return v


def extension_operator(
    sys: LevelSystem,
    bounds: np.ndarray,
    pool: WorkerPool | None = None,
) -> list[np.ndarray]:
    """Harmonic-extension trajectory blocks, one ``(size, m, m)`` stack per subdomain.

    Block ``i`` maps the subdomain's inflow value to its nodes
    ``bounds[i] .. bounds[i+1]-1`` (identity at the inflow node).
    """
    _, es = _setup_level(sys, bounds, pool, None)
    return es


def restriction_operator(
    sys: LevelSystem,
    bounds: np.ndarray,
    pool: WorkerPool | None = None,
) -> list[np.ndarray]:
    """Transposed-backward analogue of the extension, one stack per subdomain.

    Block ``i`` covers nodes ``bounds[i]+1 .. bounds[i+1]`` (identity at the
    right interface); entry ``j`` is the transposed product of the remaining
    propagators of the subdomain.
    """
    args = [(sys.phis[a:b],) for a, b in zip(bounds[:-1], bounds[1:])]
    if pool is None:
        results = [_restriction_task(*a) for a in args]
    else:
        results, _, _ = pool.map(_restriction_task, args)
    return [r[0] for r in results]


def assemble_schur(
    sys: LevelSystem,
    v: np.ndarray,
    extension: list[np.ndarray],
    bounds: np.ndarray,
) -> LevelSystem:
    """Coarse system on the interface nodes.

    Per subdomain, the closing propagator chained through the extension gives
    the coarse propagator, and the interior correction propagated through the
    closing step augments the coarse right-hand side; single-element
    subdomains reduce to the closing blocks themselves.
    """
    n1 = len(bounds) - 1
    m = sys.m_unk
    phis = np.empty((n1, m, m))
    gs = np.empty((n1, m))
    for i in range(n1):
        a, b = bounds[i], bounds[i + 1]
        phi_close = sys.phis[b - 1]
        phis[i] = phi_close @ extension[i][-1]
        gs[i] = sys.gs[b - 1] + phi_close @ v[b - 1]
    return LevelSystem(level=sys.level + 1, phis=phis, gs=gs, u_init=sys.u_init.copy())


def ml_solve(
    sys: LevelSystem,
    partition: MultilevelPartition,
    pool: WorkerPool | None = None,
    report: SolverReport | None = None,
) -> np.ndarray:
    """Direct multilevel solve; exact up to round-off.

    Reduces from ``sys.level`` to the partition's top level, solves the
    coarsest system sequentially, then reconstructs each level as
    ``u = v + E @ u_coarse`` with interface values copied from the coarser
    solution, never recomputed.
    """
    if sys.n_elements != partition.counts[sys.level]:
        raise ValidationError(
            f"system has {sys.n_elements} elements but level {sys.level} "
            f"of the partition has {partition.counts[sys.level]}"
        )
    systems = [sys]
    vs_per_level: list[np.ndarray] = []
    es_per_level: list[np.ndarray] = []
    for level in range(sys.level, partition.top_level):
        bounds = partition.subdomain_bounds(level)
        current = systems[-1]
        vs, es = _setup_level(current, bounds, pool, report)
        m = current.m_unk
        v = np.zeros((current.n_elements + 1, m))
        e = np.empty((current.n_elements, m, m))
        for (a, b), v_block, e_block in zip(zip(bounds[:-1], bounds[1:]), vs, es):
            v[a:b] = v_block
            e[a:b] = e_block
        vs_per_level.append(v)
        es_per_level.append(e)
        systems.append(assemble_schur(current, v, es, bounds))

    start = task_clock()
    u = sequential_solve(systems[-1])
    if report is not None:
        report.add_level_serial(partition.top_level, task_clock() - start)

    for idx in range(len(vs_per_level) - 1, -1, -1):
        level = sys.level + idx
        start = task_clock()
        bounds = partition.subdomain_bounds(level)
        # One batched product over all subdomains, in place of the interior
        # correction: each node gets its extension block applied to the
        # coarse value at its subdomain's inflow.
        inflow = np.repeat(u[:-1], np.diff(bounds), axis=0)[:, :, None]
        fine = vs_per_level[idx]
        fine[:-1] += (es_per_level[idx] @ inflow)[:, :, 0]
        fine[bounds] = u  # interface values are copied, not recomputed
        u = fine
        if report is not None:
            report.add_level_serial(level, task_clock() - start)
    return u


# Dense verification path ------------------------------------------------------


def dense_matrix(sys: LevelSystem) -> np.ndarray:
    """Full system matrix (unit diagonal, ``-phi`` subdiagonal blocks)."""
    n, m = sys.n_elements, sys.m_unk
    size = (n + 1) * m
    k = np.eye(size)
    for i in range(n):
        k[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m] = -sys.phis[i]
    return k


def dense_rhs(sys: LevelSystem) -> np.ndarray:
    return np.concatenate([sys.u_init] + [sys.gs[i] for i in range(sys.n_elements)])


def dense_extension(extension: list[np.ndarray], bounds: np.ndarray, m: int) -> np.ndarray:
    """Extension blocks as the dense map from interface nodes to all nodes."""
    n = bounds[-1]
    n1 = len(bounds) - 1
    e = np.zeros(((n + 1) * m, (n1 + 1) * m))
    for i in range(n1):
        a, b = bounds[i], bounds[i + 1]
        for j in range(b - a):
            e[(a + j) * m:(a + j + 1) * m, i * m:(i + 1) * m] = extension[i][j]
    e[n * m:, n1 * m:] = np.eye(m)
    return e


def dense_restriction(restriction: list[np.ndarray], bounds: np.ndarray, m: int) -> np.ndarray:
    """Restriction blocks as the dense map from all nodes to interface nodes."""
    n = bounds[-1]
    n1 = len(bounds) - 1
    f = np.zeros(((n1 + 1) * m, (n + 1) * m))
    f[:m, :m] = np.eye(m)
    for i in range(n1):
        a, b = bounds[i], bounds[i + 1]
        for j in range(b - a):
            node = a + 1 + j
            f[(i + 1) * m:(i + 2) * m, node * m:(node + 1) * m] = restriction[i][j].T
    return f


def petrov_galerkin_assemble(
    sys: LevelSystem,
    extension: list[np.ndarray],
    restriction: list[np.ndarray],
    bounds: np.ndarray,
) -> LevelSystem:
    """Coarse system by the dense triple product (restriction @ K @ extension).

    Verification oracle only: algebraically equivalent to ``assemble_schur``
    but assembled through an entirely different route.
    """
    m = sys.m_unk
    n1 = len(bounds) - 1
    e = dense_extension(extension, bounds, m)
    f = dense_restriction(restriction, bounds, m)
    k_coarse = f @ dense_matrix(sys) @ e
    g_coarse = f @ dense_rhs(sys)
    phis = np.empty((n1, m, m))
    gs = np.empty((n1, m))
    for i in range(n1):
        phis[i] = -k_coarse[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m]
        gs[i] = g_coarse[(i + 1) * m:(i + 2) * m]
    return LevelSystem(level=sys.level + 1, phis=phis, gs=gs, u_init=g_coarse[:m])


def cost_model(partition: MultilevelPartition, m_unk: int) -> CostEstimate:
    """Operation-count and speedup model of the multilevel direct solve.

    Sequential cost is ``n0*(m^2 + m)`` (one step costs a matvec plus an
    add). The parallel path solves ``1 + m`` local problems of geometrically
    shrinking size per level, so its critical path is ``l*theta*(m^2+m)*(1+m)``
    with coarsening ratio ``theta`` and ``l + 1`` levels, and the modeled
    speedup with ``P = n1`` workers is ``P / (l*(1+m))``.
    """
    n0 = partition.counts[0]
    step_ops = float(m_unk * m_unk + m_unk)
    flop_seq = n0 * step_ops
    levels = partition.top_level
    if levels == 0:
        return CostEstimate(
            flop_sequential=flop_seq,
            flop_parallel_bound=flop_seq,
            cpu_sequential=flop_seq,
            cpu_parallel=flop_seq,
            speedup=1.0,
            processors=1,
            levels=0,
        )
    n1 = partition.counts[1]
    theta = n0 / n1
    if theta == 1.0:  # degenerate coarsening: every level has the same size
        geo = float(levels + 1)
    else:
        geo = (1.0 - theta ** -(levels + 1)) / (1.0 - 1.0 / theta)
    flop_par = flop_seq * (1.0 + m_unk) * geo
    cpu_par = levels * theta * step_ops * (1.0 + m_unk)
    return CostEstimate(
        flop_sequential=flop_seq,
        flop_parallel_bound=flop_par,
        cpu_sequential=flop_seq,
        cpu_parallel=cpu_par,
        speedup=n1 / (levels * (1.0 + m_unk)),
        processors=n1,
        levels=levels,
    )
