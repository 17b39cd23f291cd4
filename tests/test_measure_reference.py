"""Measure code against the implementations it replaced.

The per-atom reference functions below are the implementations of
``project_T``, ``tightness_report`` and ``_measure_key`` that worked on
tuples of ``SegmentGrid`` atoms.  The array code must reproduce them bit
for bit: the same merged atoms in the same order, the same weights and
the same bytes.

``reference_bl_lp`` is the dual LP over the pooled support that the
transport LP ``_bl_lp`` replaced.  The two are solved by HiGHS to its
tolerances, so they must agree within 1e-10; on rational weights the
transport LP must also agree with the assignment-based ``_bl_transport``
on replicated atoms, which solves no LP.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from hybridlab import measure
from hybridlab.measure import (EmpiricalMeasure, MetricSpec, _bl_lp, _bl_transport, _distances,
                               _measure_key, _subsample, bl_distance, project_T,
                               tightness_report)
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


def reference_bl_lp(values, modes, delta, spec):
    """BL by the dual LP over the pooled support (values, modes) with signed weights
    ``delta``: max sum_i a_i delta_i subject to |a_i| <= c, |a_i - a_k| <= L d(x_i, x_k),
    c + L <= 1.

    Solved at HiGHS feasibility tolerances of 1e-10 rather than the default 1e-7: at
    the default this LP is off by 5.9e-10 on the 30 + 45 atom H0 pair of
    ``test_bl_lp_matches_pooled_reference`` (its value exceeds that of a feasible
    sub-coupling, which bounds BL from above)."""
    n = len(delta)
    D = _distances(values, modes, values, modes, spec)
    iu, ku = np.triu_indices(n, k=1)
    npairs = len(iu)
    # variables: a_0..a_{n-1}, c, L
    rows_bound = 2 * n
    rows = rows_bound + 2 * npairs + 1
    ar = np.arange(n)
    base = rows_bound + np.arange(npairs)
    base2 = base + npairs
    dvals = D[iu, ku]
    r_idx = [np.concatenate([ar, ar, n + ar, n + ar]),  # a_i - c <= 0 ; -a_i - c <= 0
             np.concatenate([base, base, base]),  # a_i - a_k - L d <= 0
             np.concatenate([base2, base2, base2]),  # a_k - a_i - L d <= 0
             np.array([rows - 1, rows - 1])]  # c + L <= 1
    c_idx = [np.concatenate([ar, np.full(n, n), ar, np.full(n, n)]),
             np.concatenate([iu, ku, np.full(npairs, n + 1)]),
             np.concatenate([ku, iu, np.full(npairs, n + 1)]),
             np.array([n, n + 1])]
    data = [np.concatenate([np.ones(n), -np.ones(n), -np.ones(n), -np.ones(n)]),
            np.concatenate([np.ones(npairs), -np.ones(npairs), -dvals]),
            np.concatenate([np.ones(npairs), -np.ones(npairs), -dvals]),
            np.array([1.0, 1.0])]
    A = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(r_idx), np.concatenate(c_idx))),
        shape=(rows, n + 2))
    b = np.zeros(rows)
    b[-1] = 1.0
    cost = np.concatenate([-delta, [0.0, 0.0]])
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return max(0.0, -float(res.fun))


RHO = {"H": 0.1, "H0": 0.0}


def random_weighted(rng, kind, n, shift=0.0, weights=None):
    """(values, modes, weights): 5-node 2-d random walks (H) or 2-d points (H0), modes
    in {1, 2, 3}, random positive weights unless given."""
    modes = rng.integers(1, 4, size=n)
    if kind == "H":
        values = rng.normal(shift, 0.5, size=(n, 1, 2)) + np.cumsum(
            rng.normal(0.0, 0.15, size=(n, 5, 2)), axis=1)
    else:
        values = rng.normal(shift, 0.5, size=(n, 1, 2))
    w = rng.uniform(0.1, 1.0, size=n) if weights is None else np.asarray(weights, float)
    return values, modes, w / w.sum()


def both_lps(a, b, spec):
    """(transport LP, pooled-support reference) for the weighted atoms a and b."""
    (v1, m1, w1), (v2, m2, w2) = a, b
    new = _bl_lp(_distances(v1, m1, v2, m2, spec), w1, w2)
    ref = reference_bl_lp(np.concatenate([v1, v2]), np.concatenate([m1, m2]),
                          np.concatenate([w1, -w2]), spec)
    return new, ref


@pytest.mark.parametrize("kind", ["H", "H0"])
@pytest.mark.parametrize("mode_metric", ["label", "discrete"])
def test_bl_lp_matches_pooled_reference(kind, mode_metric):
    spec = MetricSpec(mode_metric=mode_metric)
    rng = make_stream(31, 0)
    for n1, n2 in [(1, 1), (1, 9), (12, 1), (5, 5), (17, 8), (30, 45)]:
        a = random_weighted(rng, kind, n1)
        b = random_weighted(rng, kind, n2, shift=float(rng.uniform(0.0, 1.0)))
        new, ref = both_lps(a, b, spec)
        assert new == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("kind", ["H", "H0"])
def test_bl_lp_matches_pooled_reference_after_subsampling(kind):
    # 25 and 35 atoms drawn with replacement from 60 and 70: repeated atoms
    rng = make_stream(32, 0)
    spec = MetricSpec()
    for seed in range(3):
        mu = EmpiricalMeasure(*random_weighted(rng, kind, 60), rho=RHO[kind])
        nu = EmpiricalMeasure(*random_weighted(rng, kind, 70, shift=0.2), rho=RHO[kind])
        a, b = _subsample(mu, 25, seed), _subsample(nu, 35, seed + 1)
        assert len(np.unique(a[0], axis=0)) < 25
        new, ref = both_lps(a, b, spec)
        assert new == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("kind", ["H", "H0"])
def test_bl_lp_self_distance_is_zero(kind):
    rng = make_stream(33, 0)
    for n in [1, 4, 30]:
        v, m, w = random_weighted(rng, kind, n)
        assert _bl_lp(_distances(v, m, v, m, MetricSpec()), w, w) == pytest.approx(0.0,
                                                                                     abs=1e-12)
        mu = EmpiricalMeasure(v, m, w, rho=RHO[kind])
        assert bl_distance(mu, mu, MetricSpec()) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["H", "H0"])
@pytest.mark.parametrize("mode_metric", ["label", "discrete"])
def test_bl_lp_matches_transport_on_replicated_atoms(kind, mode_metric):
    # weights k_i / K on both sides: replicating atom i k_i times gives two uniform
    # measures of K atoms each, which the assignment-based transport form solves
    spec = MetricSpec(mode_metric=mode_metric)
    rng = make_stream(34, 0)
    K = 24
    for n1, n2 in [(1, 6), (4, 7), (9, 5), (12, 12)]:
        k1 = 1 + rng.multinomial(K - n1, np.full(n1, 1.0 / n1))
        k2 = 1 + rng.multinomial(K - n2, np.full(n2, 1.0 / n2))
        v1, m1, w1 = random_weighted(rng, kind, n1, weights=k1)
        v2, m2, w2 = random_weighted(rng, kind, n2, shift=0.3, weights=k2)
        want = _bl_transport(_distances(np.repeat(v1, k1, axis=0), np.repeat(m1, k1),
                                        np.repeat(v2, k2, axis=0), np.repeat(m2, k2), spec))
        assert want is not None
        assert _bl_lp(_distances(v1, m1, v2, m2, spec), w1, w2) == pytest.approx(want,
                                                                                  abs=1e-10)


def test_bl_lp_has_one_row_per_atom_plus_two(monkeypatch):
    shapes = []
    real = measure.linprog

    def recording(*args, **kwargs):
        shapes.append(kwargs["A_ub"].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "linprog", recording)
    rng = make_stream(35, 0)
    mu = EmpiricalMeasure(*random_weighted(rng, "H0", 20))
    nu = EmpiricalMeasure(*random_weighted(rng, "H0", 13, shift=0.3))
    bl_distance(mu, nu, MetricSpec())
    assert shapes == [(20 + 13 + 2, 20 * 13 + 1)]
