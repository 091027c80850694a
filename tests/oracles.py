"""Shared oracles, written independently of the solver paths they check:
plain loops and dense linear algebra only.
"""

import numpy as np


def forward_substitution_oracle(phis, gs, u_init):
    """Reference solve of the block-bidiagonal system by a plain loop."""
    n = len(gs)
    u = [np.array(u_init, dtype=float)]
    for i in range(n):
        u.append(np.asarray(phis[i]) @ u[-1] + np.asarray(gs[i]))
    return np.stack(u)


def fd_jacobian(problem, t, u, eps=1e-6):
    """Forward-difference Jacobian of kappa at (t, u)."""
    base = np.asarray(problem.kappa(t, u), dtype=float)
    cols = []
    for j in range(problem.m_unk):
        probe = np.array(u, dtype=float)
        probe[j] += eps
        cols.append((np.asarray(problem.kappa(t, probe), dtype=float) - base) / eps)
    return np.column_stack(cols)


def random_system(n, m, seed, level=0):
    """Random stable-ish block-bidiagonal system as stacked arrays."""
    rng = np.random.default_rng(seed)
    phis = rng.normal(size=(n, m, m)) * (0.9 / np.sqrt(m))
    gs = rng.normal(size=(n, m))
    u_init = rng.normal(size=m)
    return phis, gs, u_init
