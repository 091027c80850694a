"""Hierarchical multilevel partitions of a time interval.

Level 0 is the fine grid of ``n0`` elements on ``[0, t_end]``. Each coarser
level aggregates consecutive elements of the level below; level-k node ``i``
coincides with a level-(k-1) node, whose index the aggregation map records.
Coarse node values are *copied* from the fine grid (never recomputed from
``t_end``), so nestedness holds bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class MultilevelPartition:
    """Immutable hierarchy of nested time grids.

    Attributes
    ----------
    t_end : float
        Right endpoint of the time interval (left endpoint is 0).
    counts : tuple of int
        Element count per level, non-increasing; ``counts[0]`` is the fine count.
    grids : tuple of arrays
        ``grids[k]`` holds the ``counts[k] + 1`` node values of level k.
    aggs : tuple of arrays
        ``aggs[k-1]`` maps level-k node indices to level-(k-1) node indices
        (strictly increasing, endpoints pinned). Empty tuple for one level.
    fine_maps : tuple of arrays
        ``fine_maps[k]`` maps level-k node indices straight to level-0 indices.
    """

    t_end: float
    counts: tuple[int, ...]
    grids: tuple[np.ndarray, ...] = field(repr=False)
    aggs: tuple[np.ndarray, ...] = field(repr=False)
    fine_maps: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n_levels(self) -> int:
        return len(self.counts)

    @property
    def top_level(self) -> int:
        """Index of the coarsest level (number of levels minus one)."""
        return len(self.counts) - 1

    def subdomain_bounds(self, level: int) -> np.ndarray:
        """Node-index bounds, in level-``level`` indexing, of the level-(level+1) subdomains.

        Subdomain ``i`` spans nodes ``bounds[i] .. bounds[i+1]`` (elements
        ``bounds[i]+1 .. bounds[i+1]``).
        """
        if level >= self.top_level:
            raise ValidationError(f"level {level} has no coarser level")
        return self.aggs[level]

    def fine_nodes(self, level: int) -> np.ndarray:
        """Level-0 node indices of the level-``level`` nodes."""
        return self.fine_maps[level]

    def validate(self) -> None:
        """Check all structural invariants; raises ``ValidationError`` on breakage."""
        _check_t_end(self.t_end)
        if len(self.grids) != len(self.counts) or len(self.aggs) != len(self.counts) - 1:
            raise ValidationError("inconsistent level bookkeeping")
        for k, (n, grid) in enumerate(zip(self.counts, self.grids)):
            if n < 1:
                raise ValidationError(f"level {k} has no elements")
            if grid.shape != (n + 1,):
                raise ValidationError(f"level {k} grid size mismatch")
            if grid[0] != 0.0 or grid[-1] != self.t_end:
                raise ValidationError(f"level {k} grid does not span [0, t_end]")
            if not np.all(np.diff(grid) > 0):  # NaN-safe
                raise ValidationError(f"level {k} grid is not strictly increasing")
        for k in range(1, self.n_levels):
            m = self.aggs[k - 1]
            if m[0] != 0 or m[-1] != self.counts[k - 1]:
                raise ValidationError(f"aggregation to level {k} misses the endpoints")
            if not np.all(np.diff(m) > 0):
                raise ValidationError(f"aggregation to level {k} is not strictly increasing")
            if not np.array_equal(self.grids[k], self.grids[k - 1][m]):
                raise ValidationError(f"level {k} grid is not nested in level {k - 1}")


def _check_t_end(t_end: float) -> None:
    if not 0 < t_end < math.inf:
        raise ValidationError(f"t_end must be finite and positive, got {t_end}")


def _aggregate(n_fine: int, n_coarse: int, ratio: int | None = None) -> np.ndarray:
    # Uniform ratio (given, or derived from the counts); the last subdomain
    # absorbs any remainder.
    if not 1 <= n_coarse <= n_fine:
        raise ValidationError(f"cannot aggregate {n_fine} elements into {n_coarse}")
    if ratio is None:
        ratio = n_fine // n_coarse
    if ratio * (n_coarse - 1) >= n_fine:
        raise ValidationError(
            f"ratio {ratio} puts {n_coarse} subdomain starts beyond {n_fine} elements"
        )
    bounds = np.arange(n_coarse + 1, dtype=np.int64) * ratio
    bounds[-1] = n_fine
    return bounds


def _ceil_log(n: int, base: int) -> int:
    # Smallest e with base**e >= n, exact integer arithmetic.
    e, p = 0, 1
    while p < n:
        p *= base
        e += 1
    return e


def _assemble(t_end: float, grid0: np.ndarray, counts: list[int],
              ratio: int | None = None) -> MultilevelPartition:
    grids = [grid0]
    aggs = []
    fine_maps = [np.arange(counts[0] + 1, dtype=np.int64)]
    for k in range(1, len(counts)):
        m = _aggregate(counts[k - 1], counts[k], ratio)
        aggs.append(m)
        grids.append(grids[k - 1][m])
        fine_maps.append(fine_maps[k - 1][m])
    part = MultilevelPartition(
        t_end=float(t_end),
        counts=tuple(counts),
        grids=tuple(_frozen(g) for g in grids),
        aggs=tuple(_frozen(m) for m in aggs),
        fine_maps=tuple(_frozen(f) for f in fine_maps),
    )
    part.validate()
    return part


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def build_uniform(
    t_end: float,
    n0: int,
    theta: int,
    max_levels: int | None = None,
) -> MultilevelPartition:
    """Uniform fine grid of ``n0`` elements, coarsened by ratio ``theta`` per level.

    The hierarchy coarsens all the way down to a single element:
    ``1 + ceil(log_theta(n0))`` levels, capped by ``max_levels``. Counts that
    ``theta`` does not divide leave the remainder in the last subdomain.
    """
    _check_t_end(t_end)
    if n0 < 1:
        raise ValidationError("n0 must be at least 1")
    if theta < 2:
        raise ValidationError("coarsening ratio theta must be at least 2")
    if max_levels is not None and max_levels < 1:
        raise ValidationError("max_levels must be at least 1")

    target = 1 + _ceil_log(n0, theta)
    if max_levels is not None:
        target = min(target, max_levels)
    counts = [n0]
    while len(counts) < target and counts[-1] > 1:
        counts.append(max(1, counts[-1] // theta))

    grid0 = np.linspace(0.0, float(t_end), n0 + 1)
    grid0[-1] = t_end  # guard against linspace endpoint rounding
    return _assemble(t_end, grid0, counts, ratio=theta)


def build_explicit(
    counts: list[int] | tuple[int, ...],
    t_end: float | None = None,
    grid: np.ndarray | None = None,
) -> MultilevelPartition:
    """Partition with explicitly given per-level element counts.

    Either ``t_end`` (uniform fine grid) or a full level-0 ``grid`` (possibly
    non-uniform, starting at 0) must be supplied.
    """
    counts = [int(n) for n in counts]
    if not counts:
        raise ValidationError("counts must be non-empty")
    if any(b > a for a, b in zip(counts, counts[1:])):
        raise ValidationError("counts must be non-increasing")
    if grid is not None:
        grid0 = np.asarray(grid, dtype=float)
        if grid0.ndim != 1 or grid0.size != counts[0] + 1:
            raise ValidationError("grid must have counts[0] + 1 nodes")
        if grid0[0] != 0.0:
            raise ValidationError("grid must start at 0")
        t_end = float(grid0[-1])
    else:
        if t_end is None:
            raise ValidationError("either t_end or grid is required")
        _check_t_end(t_end)
        grid0 = np.linspace(0.0, float(t_end), counts[0] + 1)
        grid0[-1] = t_end
    return _assemble(t_end, grid0, counts)


def build_adaptive_top(partition: MultilevelPartition) -> MultilevelPartition:
    """Rebalance the topmost coarsening so the last level holds ~sqrt of the one below.

    With ``n_prev`` elements below the top, the new top has
    ``round(sqrt(n_prev))`` elements, equalizing coarse problem size and local
    subdomain size.
    """
    if partition.n_levels < 2:
        raise ValidationError("adaptive coarsening needs at least 2 levels")
    n_prev = partition.counts[-2]
    n_top = max(1, round(math.sqrt(n_prev)))
    counts = list(partition.counts[:-1]) + [n_top]
    return _assemble(partition.t_end, np.array(partition.grids[0]), counts)
