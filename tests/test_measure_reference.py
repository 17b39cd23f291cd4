"""Array-native measure code against the per-atom loops it replaced.

The reference functions below are the per-atom implementations of
``project_T``, ``tightness_report`` and ``_measure_key`` that worked on
tuples of ``SegmentGrid`` atoms.  The array code must reproduce them bit
for bit: the same merged atoms in the same order, the same weights and
the same bytes.
"""

import numpy as np
import pytest

from hybridlab.measure import EmpiricalMeasure, _measure_key, project_T, tightness_report
from hybridlab.simulate import SegmentGrid
from hybridlab.switching import make_stream


def reference_measure_key(mu):
    if mu.space_tag == "H":
        body = b"".join(p.values.tobytes() + p.mode.to_bytes(4, "little", signed=True)
                        for p in mu.points)
    else:
        body = b"".join(p[0].tobytes() + p[1].to_bytes(4, "little", signed=True)
                        for p in mu.points)
    return mu.weights.tobytes() + body


def reference_project_T(mu):
    merged = {}
    order = []
    for seg, w in zip(mu.points, mu.weights):
        x = np.asarray(seg.endpoint, dtype=float)
        key = (x.tobytes(), seg.mode)
        if key not in merged:
            merged[key] = [x, seg.mode, 0.0]
            order.append(key)
        merged[key][2] += w
    pts = [(merged[k][0], merged[k][1]) for k in order]
    w = np.array([merged[k][2] for k in order])
    return pts, w / w.sum()


def reference_tightness(mu, R_grid, eta_grid):
    norms = np.array([np.max(np.linalg.norm(p.values, axis=1)) for p in mu.points])
    w = mu.weights
    prob = np.array([float(w[norms <= R].sum()) for R in R_grid])
    rho = mu.points[0].rho
    npts = len(mu.points[0].values)
    spacing = rho / (npts - 1)
    mod_mean = []
    mod_q95 = []
    for eta in eta_grid:
        win = int(np.floor(eta / spacing + 1e-12))
        per_atom = np.zeros(len(mu.points))
        if win > 0:
            for a, p in enumerate(mu.points):
                v = p.values
                best = 0.0
                for lag in range(1, min(win, npts - 1) + 1):
                    d = np.max(np.linalg.norm(v[lag:] - v[:-lag], axis=1))
                    best = max(best, d)
                per_atom[a] = best
        mod_mean.append(float(np.sum(w * per_atom)))
        order = np.argsort(per_atom)
        cum = np.cumsum(w[order])
        q_idx = int(np.searchsorted(cum, 0.95))
        mod_q95.append(float(per_atom[order[min(q_idx, len(order) - 1)]]))
    return prob, np.array(mod_mean), np.array(mod_q95)


def random_h_measure(seed, dim, n=60, nodes=5, uniform=False):
    """Random segments with repeated endpoints (same and other mode), endpoints
    at 0.0 and at -0.0, and uniform or non-uniform weights."""
    rng = make_stream(seed, 0)
    values = rng.normal(size=(n, nodes, dim))
    modes = rng.integers(1, 4, size=n)
    src = rng.integers(0, n // 2, size=n // 3)
    dst = rng.integers(n // 2, n, size=n // 3)
    values[dst, -1] = values[src, -1]          # repeated endpoints
    modes[dst[::2]] = modes[src[::2]]          # half of them with the same mode too
    values[:4, -1] = 0.0
    values[4:8, -1] = -0.0
    modes[:8] = 2
    w = None if uniform else rng.uniform(0.1, 1.0, size=n)
    segs = [SegmentGrid(rho=0.1, values=v, mode=int(j)) for v, j in zip(values, modes)]
    return EmpiricalMeasure.from_segments(segs, None if w is None else w / w.sum())


CASES = [(seed, dim, uniform) for seed, dim in [(1, 1), (2, 2), (3, 1), (4, 2)]
         for uniform in (False, True)]


@pytest.mark.parametrize("seed, dim, uniform", CASES)
def test_project_T_matches_per_atom_reference(seed, dim, uniform):
    mu = random_h_measure(seed, dim, uniform=uniform)
    pts, w = reference_project_T(mu)
    got = project_T(mu)
    assert got.space_tag == "H0"
    assert len(got.points) == len(pts) < len(mu.points)
    assert got.weights.tobytes() == w.tobytes()
    for (x, j), (rx, rj) in zip(got.points, pts):
        assert x.tobytes() == rx.tobytes() and j == rj
    # -0.0 and 0.0 endpoints stay apart
    zeros = [x for x, j in got.points if j == 2 and not x.any()]
    assert sorted(np.signbit(x[0]) for x in zeros) == [False, True]


@pytest.mark.parametrize("seed, dim, uniform", CASES)
def test_measure_key_matches_per_atom_reference(seed, dim, uniform):
    mu = random_h_measure(seed, dim, uniform=uniform)
    assert _measure_key(mu) == reference_measure_key(mu)
    h0 = project_T(mu)
    assert _measure_key(h0) == reference_measure_key(h0)


@pytest.mark.parametrize("seed, dim, uniform", CASES)
def test_tightness_report_matches_per_atom_reference(seed, dim, uniform):
    mu = random_h_measure(seed, dim, nodes=9, uniform=uniform)
    R_grid = [0.5, 1.0, 2.0, 5.0]
    eta_grid = [-0.01, 0.0, 0.0125, 0.025, 0.05, 0.1, 0.5]
    rep = tightness_report(mu, R_grid, eta_grid)
    prob, mod_mean, mod_q95 = reference_tightness(mu, R_grid, eta_grid)
    assert rep.prob_bounded.tobytes() == prob.tobytes()
    assert rep.modulus_mean.tobytes() == mod_mean.tobytes()
    assert rep.modulus_q95.tobytes() == mod_q95.tobytes()
