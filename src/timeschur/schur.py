"""Multilevel Schur-complement direct solver for block-bidiagonal ODE systems.

A level system is the unit-diagonal lower block-bidiagonal problem

    u^0 = u_init,    u^i = phi^i @ u^{i-1} + g^i    (i = 1..n),

stored as stacked propagator arrays. Each step is the affine map
``[[phi, g], [0, 1]]`` on ``[u; 1]``, so the whole solver is one recurrence of
augmented maps. One reduction step takes, per subdomain, the prefix products
of its steps from the inflow node. Their top rows ``[E | v]`` hold the
harmonic extension ``E`` (identity inflow) and the interior correction ``v``
(zero inflow) at once. They are a scan of an associative operator, taken by
Hillis-Steele doubling: a batch of equal-length subdomains needs
``ceil(log2 s)`` batched products for ``s`` steps, not ``s`` sequential
ones. The subdomain's closing step applied to its last prefix is the coarse
step: the Schur complement on the interface nodes has the same structure one
level up. The full solve reduces level by level, solves the coarsest system
by forward substitution, and reconstructs downwards as
``u = [E | v] @ [u_inflow; 1]`` with interface values copied verbatim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .integrators import Scheme, linear_propagator
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


def build_linear_system(problem: OdeProblem, grid: np.ndarray, scheme: Scheme) -> LevelSystem:
    """Level-0 system of a linear problem on ``grid``.

    Every element's propagator comes from one batched ``linear_propagator``
    call, whatever the grid's spacing and the problem's time dependence.
    """
    phis, gs = linear_propagator(problem, grid, scheme)
    return LevelSystem(level=0, phis=phis, gs=gs, u_init=problem.u0.copy())


def sequential_solve(sys: LevelSystem) -> np.ndarray:
    """Plain forward substitution; the baseline every parallel path must match."""
    n, m = sys.n_elements, sys.m_unk
    u = np.empty((n + 1, m))
    u[0] = sys.u_init
    for i in range(n):
        u[i + 1] = sys.phis[i] @ u[i] + sys.gs[i]
    return u


def _subdomain_setup(phis: np.ndarray, gs: np.ndarray, out: np.ndarray) -> float:
    """Prefix maps ``[E | v]`` of a batch of equal-length subdomains, into ``out``.

    ``phis``, ``gs`` hold ``k`` subdomains of ``s`` element blocks each,
    shaped ``(k, s, m, m)`` and ``(k, s, m)``. Entry ``j`` of a subdomain in
    ``out``, shaped ``(k, s, m, m+1)``, is the top of the product of its first
    ``j`` maps ``[[phi, g], [0, 1]]``: it takes ``[u_inflow; 1]`` to the
    subdomain's node ``j``, from the inflow node (``[I | 0]``) up to, not
    including, the right interface. Hillis-Steele doubling over the step axis
    takes ``ceil(log2 s)`` batched products ``[A | a] o [B | b] = [A B | A b + a]``
    in two ping-pong buffers, the last of them ``out``. Returns the thread CPU
    seconds the call took.
    """
    start = time.thread_time()
    k, s, m = gs.shape
    rounds = max(s - 1, 0).bit_length()  # ceil(log2 s) doublings
    buf, spare = (out, np.empty_like(out)) if rounds % 2 == 0 else (np.empty_like(out), out)
    buf[:, 0] = np.eye(m, m + 1)
    buf[:, 1:, :, :m] = phis[:, :-1]
    buf[:, 1:, :, m] = gs[:, :-1]
    d = 1
    while d < s:
        # Entry j composes the maps of the steps in (j - 2d, j] from its own
        # (j - d, j] and those of its neighbour d steps back.
        np.matmul(buf[:, d:, :, :m], buf[:, :-d], out=spare[:, d:])
        spare[:, d:, :, m] += buf[:, d:, :, m]
        spare[:, :d] = buf[:, :d]
        buf, spare = spare, buf
        d *= 2
    return time.thread_time() - start


def _equal_length_runs(bounds: np.ndarray):
    """``(i, j, s)`` per run of consecutive subdomains ``i..j-1`` of ``s`` elements each."""
    lengths = np.diff(bounds)
    edges = np.concatenate([[0], np.flatnonzero(np.diff(lengths)) + 1, [len(lengths)]])
    return [(int(i), int(j), int(lengths[i])) for i, j in zip(edges[:-1], edges[1:])]


def level_maps(
    sys: LevelSystem,
    bounds: np.ndarray,
    pool: WorkerPool | None = None,
    report: SolverReport | None = None,
) -> np.ndarray:
    """``[E | v]`` of every node but the last, shape ``(n, m, m+1)``.

    Row ``j`` maps ``[u_a; 1]``, with ``u_a`` the value at the inflow node of
    ``j``'s subdomain, to node ``j``: ``E`` is the harmonic extension
    (identity inflow) and ``v`` the interior correction (zero inflow), which
    vanishes at the inflow nodes. Each run of equal-length subdomains is
    viewed as one batch and split into ``min(pool.workers, k)`` contiguous
    shares of its ``k`` subdomains, one task each, which write their slices
    of the result in place.
    """
    n, m = sys.gs.shape
    maps = np.empty((n, m, m + 1))
    workers = pool.workers if pool is not None else 1
    args = []
    for i, j, s in _equal_length_runs(bounds):
        a, b, k = bounds[i], bounds[j], j - i
        batch = (sys.phis[a:b].reshape(k, s, m, m), sys.gs[a:b].reshape(k, s, m),
                 maps[a:b].reshape(k, s, m, m + 1))  # views, not copies
        shares = min(workers, k)
        cuts = [k * c // shares for c in range(shares + 1)]
        args += [tuple(x[lo:hi] for x in batch) for lo, hi in zip(cuts, cuts[1:])]
    if pool is None:
        for share in args:
            _subdomain_setup(*share)
    else:
        # Thread CPU time, not task clocks: on threads, a small share's wall
        # clock would absorb its waits for the interpreter lock.
        cpu_seconds, _, _ = pool.map(_subdomain_setup, args)
        if report is not None:
            report.add_level_tasks(sys.level, cpu_seconds)
    return maps


def restriction_operator(sys: LevelSystem, bounds: np.ndarray) -> list[np.ndarray]:
    """Transposed-backward analogue of the extension, one stack per subdomain.

    Block ``i`` covers nodes ``bounds[i]+1 .. bounds[i+1]`` (identity at the
    right interface); entry ``j`` is the transposed product of the remaining
    propagators of the subdomain.
    """
    blocks = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        f = np.empty((b - a, sys.m_unk, sys.m_unk))
        f[-1] = np.eye(sys.m_unk)
        for j in range(b - a - 2, -1, -1):
            f[j] = sys.phis[a + j + 1].T @ f[j + 1]
        blocks.append(f)
    return blocks


def assemble_schur(sys: LevelSystem, maps: np.ndarray, bounds: np.ndarray) -> LevelSystem:
    """Coarse system on the interface nodes.

    Each subdomain's closing step applied to its last prefix ``[E | v]`` is
    the coarse step ``[phi | g]``; one batched product covers all subdomains.
    """
    last = bounds[1:] - 1
    coarse = sys.phis[last] @ maps[last]
    coarse[:, :, -1] += sys.gs[last]
    return LevelSystem(level=sys.level + 1, phis=coarse[:, :, :-1], gs=coarse[:, :, -1],
                       u_init=sys.u_init.copy())


def ml_solve(
    sys: LevelSystem,
    partition: MultilevelPartition,
    pool: WorkerPool | None = None,
    report: SolverReport | None = None,
) -> np.ndarray:
    """Direct multilevel solve; exact up to round-off.

    Reduces from ``sys.level`` to the partition's top level, solves the
    coarsest system sequentially, then reconstructs each level as
    ``u = [E | v] @ [u_inflow; 1]`` with interface values copied from the
    coarser solution, never recomputed.
    """
    if sys.n_elements != partition.counts[sys.level]:
        raise ValidationError(
            f"system has {sys.n_elements} elements but level {sys.level} "
            f"of the partition has {partition.counts[sys.level]}"
        )
    systems = [sys]
    maps_per_level = []
    for level in range(sys.level, partition.top_level):
        bounds = partition.subdomain_bounds(level)
        maps_per_level.append(level_maps(systems[-1], bounds, pool, report))
        systems.append(assemble_schur(systems[-1], maps_per_level[-1], bounds))

    start = task_clock()
    u = sequential_solve(systems[-1])
    if report is not None:
        report.add_level_serial(partition.top_level, task_clock() - start)

    for level in range(partition.top_level - 1, sys.level - 1, -1):
        start = task_clock()
        bounds = partition.subdomain_bounds(level)
        maps = maps_per_level[level - sys.level]
        m = u.shape[1]
        inflow = np.column_stack([u[:-1], np.ones(len(u) - 1)])[:, None, :, None]
        fine = np.empty((len(maps) + 1, m))
        for i, j, s in _equal_length_runs(bounds):
            a, b, k = bounds[i], bounds[j], j - i
            np.matmul(maps[a:b].reshape(k, s, m, m + 1), inflow[i:j],
                      out=fine[a:b].reshape(k, s, m, 1))
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


def dense_extension(maps: np.ndarray, bounds: np.ndarray, m: int) -> np.ndarray:
    """Extension blocks of ``level_maps`` as the dense map from interface nodes to all nodes."""
    n = bounds[-1]
    n1 = len(bounds) - 1
    e = np.zeros((n + 1, m, n1 + 1, m))
    e[np.arange(n), :, np.repeat(np.arange(n1), np.diff(bounds)), :] = maps[:, :, :m]
    e[n, :, n1, :] = np.eye(m)
    return e.reshape((n + 1) * m, (n1 + 1) * m)


def dense_restriction(restriction: list[np.ndarray], bounds: np.ndarray, m: int) -> np.ndarray:
    """Restriction blocks as the dense map from all nodes to interface nodes."""
    n = bounds[-1]
    n1 = len(bounds) - 1
    f = np.zeros((n1 + 1, m, n + 1, m))
    f[0, :, 0, :] = np.eye(m)
    owner = np.repeat(np.arange(n1), np.diff(bounds))
    f[owner + 1, :, np.arange(1, n + 1), :] = np.concatenate(restriction).transpose(0, 2, 1)
    return f.reshape((n1 + 1) * m, (n + 1) * m)


def petrov_galerkin_assemble(
    sys: LevelSystem,
    maps: np.ndarray,
    restriction: list[np.ndarray],
    bounds: np.ndarray,
) -> LevelSystem:
    """Coarse system by the dense triple product (restriction @ K @ extension).

    Verification oracle only: algebraically equivalent to ``assemble_schur``
    but assembled through an entirely different route. ``maps`` comes from
    ``level_maps``; only its extension blocks are used.
    """
    m = sys.m_unk
    n1 = len(bounds) - 1
    f = dense_restriction(restriction, bounds, m)
    k_coarse = f @ dense_matrix(sys) @ dense_extension(maps, bounds, m)
    g_coarse = f @ dense_rhs(sys)
    i = np.arange(n1)
    phis = -k_coarse.reshape(n1 + 1, m, n1 + 1, m)[i + 1, :, i, :]
    return LevelSystem(level=sys.level + 1, phis=phis, gs=g_coarse[m:].reshape(n1, m),
                       u_init=g_coarse[:m])


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
        cpu_parallel=cpu_par,
        speedup=n1 / (levels * (1.0 + m_unk)),
        processors=n1,
        levels=levels,
    )
