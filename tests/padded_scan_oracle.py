"""Padded scan with the leaf axis innermost: the oracle of the real-leaf sweeps.

Each run of equal-length subdomains is one batch, a tree ``(m, m+1, k,
width)`` whose ``s`` leaves ``[phi | g]`` are padded with ``[I | 0]`` to
``width = 2**ceil(log2 s)``. Both sweeps compose every block at every level,
pads included, and the down-sweep keeps a block's state at its last node.
The library sweeps only the blocks that hold a real leaf; every real map and
state goes through the same floating-point operations, so the two agree
bitwise.
"""

import numpy as np


def _compose(outer, inner):
    """``[A | a] o [B | b] = [A B | A b + a]``, elementwise over the trailing batch axes."""
    m = outer.shape[0]
    out = outer[:, 0, None] * inner[0, None]
    for j in range(1, m):
        out += outer[:, j, None] * inner[j, None]
    out[:, -1] += outer[:, m]
    return out


def _runs(bounds):
    """``(lo, hi, s)`` per run of equal-length subdomains."""
    lengths = np.diff(bounds)
    edges = np.concatenate([[0], np.flatnonzero(np.diff(lengths)) + 1, [len(lengths)]])
    return [(lo, hi, int(lengths[lo])) for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist())]


def reduce_level(sys, bounds):
    """``(trees, phis, gs)``: the up-swept trees of each run and the coarse steps."""
    m = sys.m_unk
    trees, roots = [], []
    for lo, hi, s in _runs(bounds):
        a, b, k = bounds[lo], bounds[hi], hi - lo
        width = 1 << (s - 1).bit_length()
        tree = np.empty((m, m + 1, k, width))
        tree[:, :m, :, :s] = sys.phis[a:b].reshape(k, s, m, m).transpose(2, 3, 0, 1)
        tree[:, m, :, :s] = sys.gs[a:b].reshape(k, s, m).transpose(2, 0, 1)
        tree[..., s:] = np.eye(m, m + 1)[:, :, None, None]
        h = 1
        while h < width:
            pairs = tree.reshape(m, m + 1, k, -1, 2 * h)
            pairs[..., -1] = _compose(pairs[..., -1], pairs[..., h - 1])
            h *= 2
        trees.append((lo, hi, s, tree))
        roots.append(tree[..., -1])
    roots = np.concatenate(roots, axis=2)  # (m, m+1, n1)
    return trees, roots[:, :m].transpose(2, 0, 1), roots[:, m].T


def sweep_down(trees, bounds, inflows):
    """States ``(n, m, q)`` at every node but the last, from ``inflows`` ``(n1, m, q)``."""
    m, q = inflows.shape[1:]
    out = np.empty((bounds[-1], m, q))
    for lo, hi, s, tree in trees:
        k, width = hi - lo, tree.shape[-1]
        states = np.empty((m, q, k, width))
        states[..., -1] = inflows[lo:hi].transpose(1, 2, 0)
        h = width // 2
        while h:
            maps = tree.reshape(m, m + 1, k, -1, 2 * h)
            pairs = states.reshape(m, q, k, -1, 2 * h)
            right = _compose(maps[..., h - 1], pairs[..., -1])
            pairs[..., h - 1] = pairs[..., -1]
            pairs[..., -1] = right
            h //= 2
        out[bounds[lo]:bounds[hi]].reshape(k, s, m, q)[...] = states[..., :s].transpose(2, 3, 0, 1)
    return out
