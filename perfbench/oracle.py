"""Values computed apart from hybridlab, used to check its outputs.

Nothing here imports hybridlab: each function restates the mathematics
from the paper's definitions with numpy/scipy only.

- Bounded-Lipschitz distance between two uniform measures of equal size:
  BL(mu, nu) = max over lam in [0, 1] of W1 with ground cost
  min(lam * d, 2 * (1 - lam)).  The map lam -> W1 is concave (a minimum of
  concave functions), so golden-section search finds its maximum; each
  W1 is one assignment problem because a uniform equal-size transport
  plan can be taken to be a permutation (Birkhoff).
- Point masses: BL(delta_x, delta_y) = 2 d / (2 + d).
- The linear contraction margin beta and the stationary law of a
  generator, by direct linear algebra.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def ground_distances(kind, vals_a, modes_a, vals_b, modes_b):
    """Pairwise atom distances: sup-norm over segment nodes (H) or the
    Euclidean norm (H0) of the state gap, plus the mode label gap."""
    vals_a = np.asarray(vals_a, dtype=float)
    vals_b = np.asarray(vals_b, dtype=float)
    gap = vals_a[:, None] - vals_b[None, :]
    if kind == "H":
        state = np.max(np.sqrt(np.sum(gap * gap, axis=-1)), axis=-1)
    else:
        state = np.sqrt(np.sum(gap * gap, axis=-1))
    mode = np.abs(np.asarray(modes_a, dtype=float)[:, None]
                  - np.asarray(modes_b, dtype=float)[None, :])
    return state + mode


def w1_uniform(cost):
    """Optimal transport cost between two uniform measures of equal size."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / cost.shape[0]


def bl_uniform(dist, iterations=90):
    """BL distance between two uniform equal-size measures with cross
    distances ``dist`` (n x n), by golden-section search on lam."""
    def value(lam):
        return w1_uniform(np.minimum(lam * dist, 2.0 * (1.0 - lam)))

    lo, hi = 0.0, 1.0
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = value(x1), value(x2)
    best = max(f1, f2, value(0.0), value(1.0))
    for _ in range(iterations):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = value(x1)
        best = max(best, f1, f2)
    return best


def replicate(multiplicities):
    """Atom indices repeated by integer multiplicity (rational weights k_i / K)."""
    return np.repeat(np.arange(len(multiplicities)), multiplicities)


def bl_point_mass(d):
    return 2.0 * d / (2.0 + d)


def contraction_beta(drift, gains, diffusion, generator):
    """Margin beta = -max_j lambda_max(M_j) of the linear contraction test
    with identity weights:  M_j = C_j + C_j^T + sum_l G_jl^T G_jl
    + (sum_i gamma_ji) I,  C_j = F_j + A_j."""
    rates = np.asarray(generator, dtype=float)
    worst = -np.inf
    for j, (f, a, cols) in enumerate(zip(drift, gains, diffusion)):
        closed = np.asarray(f, dtype=float) + np.asarray(a, dtype=float)
        m = closed + closed.T
        for g in cols:
            g = np.asarray(g, dtype=float)
            m = m + g.T @ g
        m = m + rates[j].sum() * np.eye(len(closed))
        worst = max(worst, float(np.max(np.linalg.eigvalsh(0.5 * (m + m.T)))))
    return -worst


def stationary_law(generator):
    """pi with pi Q = 0 and sum(pi) = 1, by least squares on the stacked system."""
    q = np.asarray(generator, dtype=float)
    n = len(q)
    a = np.vstack([q.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi
