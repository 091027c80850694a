"""Multilevel Schur-complement direct solver for block-bidiagonal ODE systems.

A level system is the unit-diagonal lower block-bidiagonal problem

    u^0 = u_init,    u^i = phi^i @ u^{i-1} + g^i    (i = 1..n),

stored as propagators ``phis``/``gs``, mostly views of one batch-last block
``[phi | g]``. Each step is the affine map ``[[phi, g], [0, 1]]`` on
``[u; 1]``, so the whole solver is one recurrence of augmented maps,
``[A | a] o [B | b] = [A B | A b + a]``. Per subdomain it is a work-efficient
scan (Blelloch, "Prefix sums and their applications", 1990) over a tree of
maps, batched over equal-length subdomains: a share of ``k`` subdomains of
``s`` steps is one tree ``(m, m+1, width, k)``, its ``s`` leaves padded with
``[I | 0]`` to ``width = 2**ceil(log2 s)``. The up-sweep composes neighbouring
maps level by level; each subdomain's root is its coarse step, so the Schur
complement on the interface nodes has the same structure one level up. The
down-sweep walks the tree from an inflow state: the inflow values give the
solution, zero the interior correction ``v`` and ``[I | 0]`` the maps
``[E | v]`` with the harmonic extension ``E``. Both compose only the blocks
that hold a real leaf, about ``s`` maps each, at depth ``ceil(log2 s)``, where
Hillis-Steele doubling took ``s ceil(log2 s)``. The full solve reduces level
by level, solves the coarsest system by forward substitution, and
reconstructs downwards by down-sweeps, with interface values copied verbatim.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .integrators import Scheme, linear_propagator
from .partition import MultilevelPartition
from .problems import OdeProblem
from .runtime import CostEstimate, SolverReport, WorkerPool


@dataclass
class LevelSystem:
    """Block-bidiagonal system of one partition level.

    ``phis[i]`` and ``gs[i]`` form the propagator of element ``i + 1`` (the
    map from node ``i`` to node ``i + 1``); ``u_init`` pins node 0. ``phis``
    and ``gs`` may be views of one ``(m, m+1, n)`` array ``[phi | g]``, as
    ``step_solve`` and ``reduce_level`` leave them.
    """

    level: int
    phis: np.ndarray  # (n, m, m)
    gs: np.ndarray    # (n, m)
    u_init: np.ndarray  # (m,)

    def __post_init__(self):
        self.phis = np.asarray(self.phis, dtype=float)
        self.gs = np.asarray(self.gs, dtype=float)
        self.u_init = np.asarray(self.u_init, dtype=float)
        if self.gs.ndim != 2:
            raise ValidationError("inconsistent LevelSystem block shapes")
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
    # Batch-last for every input layout: strided blocks skip BLAS, which rounds otherwise.
    phis = np.moveaxis(np.ascontiguousarray(np.moveaxis(sys.phis, 0, -1)), -1, 0)
    u = np.empty((n + 1, m))
    u[0] = sys.u_init
    for i in range(n):
        u[i + 1] = phis[i] @ u[i] + sys.gs[i]
    return u


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """``[A | a] o [B | b] = [A B | A b + a]``, elementwise over the trailing batch axes.

    ``outer`` is a map ``(m, m+1, ...)``; ``inner`` is ``(m, q, ...)``, a map
    (``q = m + 1``) or a state (``q = 1``), whose last column takes ``a``.
    """
    m = outer.shape[0]
    out = outer[:, 0, None] * inner[0, None]
    for j in range(1, m):
        out += outer[:, j, None] * inner[j, None]
    out[:, -1] += outer[:, m]
    return out


_INNERMOST_SUBDOMAINS = 8  # a share this wide stores its subdomain axis innermost


def _sweep_array(m: int, q: int, width: int, k: int) -> np.ndarray:
    """Uninitialized ``(m, q, width, k)`` array for the tree or states of a share.

    With at least ``_INNERMOST_SUBDOMAINS`` subdomains, ``k`` is innermost in
    memory, and each product of a sweep level reads contiguous rows ``k``
    wide. A narrower share keeps its leaf axis innermost, where numpy's
    loops run over a level's blocks: on long subdomains, rows of a few
    subdomains cost more per element than those runs, and the two halves
    of such a share would cost more than the whole, so splitting it between
    workers would not pay. Both orders run the same floating-point
    operations.
    """
    if k >= _INNERMOST_SUBDOMAINS:
        return np.empty((m, q, width, k))
    return np.empty((m, q, k, width)).swapaxes(2, 3)


def _up_sweep(tree: np.ndarray, s: int) -> None:
    """Blelloch's up-sweep over axis 2 of ``tree`` ``(m, m+1, width, k)``, in place.

    Level by level, the last node of each block of ``2h`` leaves composes its
    own half-block with the one ``h`` nodes back. Only the first
    ``ceil(s / 2h)`` blocks hold one of the ``s`` real leaves; the blocks past
    them hold only ``[I | 0]`` pads and stay so. The left halves stay for the
    down-sweep, and the last node ends as the product of all leaves.
    """
    m, _, width, k = tree.shape
    h = 1
    while h < width:
        real = -(-s // (2 * h))
        blocks = tree.reshape(m, m + 1, -1, 2 * h, k)[..., :real, :, :]
        last = blocks[..., -1, :]
        last[...] = _compose(last, blocks[..., h - 1, :])
        h *= 2


def _subdomain_setup(shares: list) -> list[float]:
    """Up-swept trees of shares ``(phis, gs, tree)``, one after another.

    Per share, ``phis`` ``(k, s, m, m)`` and ``gs`` ``(k, s, m)`` hold ``k``
    subdomains of ``s`` steps each, the closing steps included. The leaves of
    ``tree`` ``(m, m+1, width, k)`` (``_sweep_array``) are the maps
    ``[phi | g]``, padded with ``[I | 0]`` to ``width = 2**ceil(log2 s)``;
    each subdomain's root, ``tree[:, :, -1]``, ends as its coarse step.
    Returns the thread CPU seconds each share took.
    """
    seconds = []
    for phis, gs, tree in shares:
        start = time.thread_time()
        k, s, m = gs.shape
        tree[:, :m, :s] = phis.transpose(2, 3, 1, 0)
        tree[:, m, :s] = gs.transpose(2, 1, 0)
        tree[:, :, s:] = np.eye(m, m + 1)[:, :, None, None]
        _up_sweep(tree, s)
        seconds.append(time.thread_time() - start)
    return seconds


def _shares(bounds: np.ndarray, workers: int) -> list[tuple[int, int, int]]:
    """``(lo, hi, s)`` per share: subdomains ``lo..hi-1``, each ``s`` elements long.

    Each run of equal-length subdomains is split into ``min(workers, k)``
    contiguous shares of its ``k`` subdomains. A share is one worker's part
    of a level's up-sweep and down-sweep.
    """
    shares, lo = [], 0
    for s, run in itertools.groupby(np.diff(bounds).tolist()):
        k = len(list(run))
        n = min(workers, k)
        shares += [(lo + k * c // n, lo + k * (c + 1) // n, s) for c in range(n)]
        lo += k
    return shares


def _compositions(k: int, s: int) -> int:
    """Maps one sweep of ``k`` subdomains of ``s`` steps composes: ``k sum_h ceil(s / 2h)``."""
    count, h = 0, 1
    while h < s:  # the levels h < width = 2**ceil(log2 s)
        count += -(-s // (2 * h))
        h *= 2
    return k * count


# Compositions each share must hold before a level's shares run as parallel
# tasks. ml_solve on 2 cores, threaded over in turn: 1.2-2.1 at 5,000-10,000
# compositions a share, 0.60-0.70 from 40,000 at m = 2 and 3.
_GRAIN = 32768


def _run_shares(task, shares: list, trees: list, pool: WorkerPool | None,
                report: SolverReport | None, level: int) -> None:
    """Run ``task`` over a level's ``shares`` and book each one's seconds to ``level``.

    ``task`` runs a list of shares one after another and returns the thread
    CPU seconds of each; ``trees`` holds each share's ``(lo, hi, s, tree)``
    (``reduce_level``). If every share composes at least ``_GRAIN`` maps,
    each share is its own task of ``pool``. Otherwise the region is one
    task, which the pool runs in the calling thread, and no thread starts.
    Either way each share keeps its own seconds, so the report books the
    modeled critical path.
    """
    if pool is None:
        seconds = task(shares)
    else:
        if all(_compositions(hi - lo, s) >= _GRAIN for lo, hi, s, _ in trees):
            args = [([share],) for share in shares]
        else:
            args = [(shares,)]
        results, _, _ = pool.map(task, args)
        seconds = [secs for result in results for secs in result]
    if report is not None:
        report.add_level(level, seconds)


def reduce_level(sys: LevelSystem, bounds: np.ndarray, pool: WorkerPool | None = None,
                 report: SolverReport | None = None) -> tuple[list, LevelSystem]:
    """One reduction step: ``(trees, coarse)`` of ``sys`` cut at ``bounds``.

    ``trees`` holds ``(lo, hi, s, tree)`` per share (``_shares``): its tree
    ``(m, m+1, width, k)`` is allocated here and filled in place
    (``_subdomain_setup``), on ``pool``'s threads if every share clears
    ``_GRAIN`` and in this thread otherwise (``_run_shares``). ``coarse`` is
    the system on the interface nodes, whose steps are the subdomains' roots
    ``tree[:, :, -1]``.
    """
    m = sys.m_unk
    trees, shares = [], []
    for lo, hi, s in _shares(bounds, pool.workers if pool is not None else 1):
        a, b, k = bounds[lo], bounds[hi], hi - lo
        tree = _sweep_array(m, m + 1, 1 << (s - 1).bit_length(), k)  # s leaves padded to 2**p
        trees.append((lo, hi, s, tree))
        shares.append((sys.phis[a:b].reshape(k, s, m, m), sys.gs[a:b].reshape(k, s, m), tree))
    _run_shares(_subdomain_setup, shares, trees, pool, report, sys.level)
    roots = np.concatenate([tree[:, :, -1] for *_, tree in trees], axis=2)  # (m, m+1, n1)
    return trees, LevelSystem(level=sys.level + 1, phis=roots[:, :m].transpose(2, 0, 1),
                              gs=roots[:, m].T, u_init=sys.u_init.copy())


def _subdomain_sweep_down(shares: list) -> list[float]:
    """Down-sweeps of shares ``(tree, s, inflows, out)``, one after another.

    Per share, ``inflows`` ``(k, m, q)`` are the roots' states and ``out``
    ``(k, s, m, q)`` takes the states at each subdomain's nodes but the last.
    Returns the thread CPU seconds each share took.
    """
    seconds = []
    for tree, s, inflows, out in shares:
        start = time.thread_time()
        m, _, width, k = tree.shape
        q = inflows.shape[2]
        states = _sweep_array(m, q, width, k)
        states[:, :, 0] = inflows.transpose(1, 2, 0)
        h = width // 2
        while h:
            real = -(-s // (2 * h))
            maps = tree.reshape(m, m + 1, -1, 2 * h, k)[..., :real, h - 1, :]
            blocks = states.reshape(m, q, -1, 2 * h, k)[..., :real, :, :]
            blocks[..., h, :] = _compose(maps, blocks[..., 0, :])
            h //= 2
        out[...] = states[:, :, :s].transpose(3, 2, 0, 1)
        seconds.append(time.thread_time() - start)
    return seconds


def sweep_down(trees: list, bounds: np.ndarray, inflows: np.ndarray,
               pool: WorkerPool | None = None, report: SolverReport | None = None,
               level: int = 0) -> np.ndarray:
    """States ``(n, m, q)`` at every node but the last, from ``inflows[i]`` at subdomain ``i``.

    ``trees`` comes from ``reduce_level`` with the same ``bounds``, and
    ``inflows`` is ``(n1, m, q)``: the inflow values ``u`` (``q = 1``) give
    the solution, zero the interior correction ``v`` and ``[I | 0]`` the
    maps ``[E | v]``. Blelloch's down-sweep, with a block's state ``(m, q,
    width, k)`` at its first node: a root takes its inflow state; going
    down, a left half keeps its block's state and a right half takes the
    left half's map applied to it. As in the up-sweep, only the first
    ``ceil(s / 2h)`` blocks are swept; the states of the blocks past them
    hold only pads and are never read. The shares run as the up-sweep's do
    (``_run_shares``), and each one's seconds are booked to ``level``.
    """
    m, q = inflows.shape[1:]
    out = np.empty((bounds[-1], m, q))
    shares = [(tree, s, inflows[lo:hi], out[bounds[lo]:bounds[hi]].reshape(hi - lo, s, m, q))
              for lo, hi, s, tree in trees]
    _run_shares(_subdomain_sweep_down, shares, trees, pool, report, level)
    return out


def level_maps(sys: LevelSystem, bounds: np.ndarray,
               pool: WorkerPool | None = None) -> np.ndarray:
    """``[E | v]`` of every node but the last, shape ``(n, m, m+1)``.

    Row ``j`` maps ``[u_a; 1]``, with ``u_a`` the value at the inflow node of
    ``j``'s subdomain, to node ``j``: ``E`` is the harmonic extension
    (identity inflow) and ``v`` the interior correction (zero inflow), which
    vanishes at the inflow nodes. It is the down-sweep from ``[I | 0]``.
    """
    trees, _ = reduce_level(sys, bounds, pool)
    m, n1 = sys.m_unk, len(bounds) - 1
    return sweep_down(trees, bounds, np.broadcast_to(np.eye(m, m + 1), (n1, m, m + 1)), pool)


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


def assemble_schur(sys: LevelSystem, bounds: np.ndarray) -> LevelSystem:
    """Coarse system on the interface nodes: the roots of ``reduce_level``'s up-sweep."""
    return reduce_level(sys, bounds)[1]


def ml_solve(
    sys: LevelSystem,
    partition: MultilevelPartition,
    pool: WorkerPool | None = None,
    report: SolverReport | None = None,
) -> np.ndarray:
    """Direct multilevel solve; exact up to round-off.

    Reduces from ``sys.level`` to the partition's top level by up-sweeps,
    solves the coarsest system sequentially, then reconstructs each level by
    the down-sweep from the coarser solution's inflow values, with interface
    values copied from it, never recomputed.
    """
    if sys.n_elements != partition.counts[sys.level]:
        raise ValidationError(
            f"system has {sys.n_elements} elements but level {sys.level} "
            f"of the partition has {partition.counts[sys.level]}"
        )
    coarse, trees_per_level = sys, []
    for level in range(sys.level, partition.top_level):
        trees, coarse = reduce_level(coarse, partition.subdomain_bounds(level), pool, report)
        trees_per_level.append(trees)

    start = time.thread_time()
    u = sequential_solve(coarse)
    if report is not None:
        report.add_level(partition.top_level, [time.thread_time() - start])

    # The gather and scatter of interface values between levels are not timed.
    for level in range(partition.top_level - 1, sys.level - 1, -1):
        bounds = partition.subdomain_bounds(level)
        fine = sweep_down(trees_per_level.pop(), bounds, u[:-1, :, None], pool, report, level)
        fine = np.concatenate([fine[:, :, 0], u[-1:]])
        fine[bounds] = u  # interface values are copied, not recomputed
        u = fine
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
