import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridlab import measure
from hybridlab.errors import GridMismatch, ValidationError
from hybridlab.measure import (EmpiricalMeasure, MetricSpec, bl_distance, ensemble_at,
                               h_distance, integrate_functional, kb_average, project_T,
                               restrict, tightness_report)
from hybridlab.model import (ControlledModelSpec, DelaySpec, HybridDelayModel,
                             build_controlled_model, registry_model)
from hybridlab.simulate import SegmentGrid, SimConfig
from hybridlab.switching import Generator, make_stream

ONE_MODE = Generator(np.array([[0.0]]))
TWO_MODE = Generator(np.array([[-1.0, 1.0], [2.0, -2.0]]))
SPEC = MetricSpec()


def const_seg(c, mode=1, rho=0.1, k=4):
    return SegmentGrid(rho=rho, values=np.full((k + 1, 1), float(c)), mode=mode)


def delta(c, mode=1):
    return EmpiricalMeasure.from_segments([const_seg(c, mode)])


def point_measure(values, modes=None):
    modes = modes or [1] * len(values)
    return EmpiricalMeasure.from_state_points(
        [(np.atleast_1d(v), j) for v, j in zip(values, modes)])


# --- H distance ---

def test_h_distance_identical():
    assert h_distance(const_seg(1.0), const_seg(1.0), SPEC) == 0.0


def test_h_distance_constant_offset():
    assert h_distance(const_seg(0.0), const_seg(1.0), SPEC) == pytest.approx(1.0)


def test_h_distance_mode_label():
    assert h_distance(const_seg(1.0, mode=1), const_seg(1.0, mode=3), SPEC) == 2.0
    disc = MetricSpec(mode_metric="discrete")
    assert h_distance(const_seg(1.0, mode=1), const_seg(1.0, mode=3), disc) == 1.0


def test_h_distance_grid_mismatch():
    with pytest.raises(GridMismatch):
        h_distance(const_seg(0.0, rho=0.1), const_seg(0.0, rho=0.2), SPEC)


# --- measure construction ---

def test_weights_must_normalize():
    with pytest.raises(ValidationError):
        EmpiricalMeasure.from_segments([const_seg(0.0), const_seg(1.0)],
                                       weights=np.array([0.6, 0.6]))
    with pytest.raises(ValidationError):
        EmpiricalMeasure.from_segments([const_seg(0.0)], weights=np.array([-1.0]))


def test_atoms_must_share_grid():
    with pytest.raises(GridMismatch):
        EmpiricalMeasure.from_segments([const_seg(0.0, rho=0.1), const_seg(0.0, rho=0.2)])


# --- bounded-Lipschitz distance ---

def test_bl_identity():
    mu = point_measure([0.0, 1.0, 2.0])
    assert bl_distance(mu, mu, SPEC) == 0.0


@pytest.mark.parametrize("d", [0.1, 1.0, 2.0, 10.0])
def test_bl_two_point_closed_form(d):
    got = bl_distance(point_measure([0.0]), point_measure([d]), SPEC)
    assert got == pytest.approx(2 * d / (2 + d), abs=1e-8)


def test_bl_bounded_by_two():
    got = bl_distance(point_measure([0.0]), point_measure([1e6]), SPEC)
    assert got <= 2.0
    assert got > 1.999


def test_bl_symmetry_exact():
    rng = make_stream(3, 0)
    a = point_measure(rng.normal(size=7))
    b = point_measure(rng.normal(size=5))
    assert bl_distance(a, b, SPEC) == bl_distance(b, a, SPEC)


def test_bl_triangle_random():
    rng = make_stream(4, 0)
    for _ in range(10):
        ms = [point_measure(rng.normal(size=int(rng.integers(2, 9)))) for _ in range(3)]
        d01 = bl_distance(ms[0], ms[1], SPEC)
        d12 = bl_distance(ms[1], ms[2], SPEC)
        d02 = bl_distance(ms[0], ms[2], SPEC)
        assert d02 <= d01 + d12 + 1e-9


def test_bl_distinct_supports_positive():
    assert bl_distance(point_measure([0.0]), point_measure([0.5]), SPEC) > 0.1


def test_bl_on_segment_atoms():
    # constant segments reduce to the two-point formula
    got = bl_distance(delta(0.0), delta(1.0), SPEC)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_bl_space_mismatch():
    with pytest.raises(GridMismatch):
        bl_distance(delta(0.0), point_measure([0.0]), SPEC)


@given(shift=st.floats(0.001, 100.0))
@settings(max_examples=20, deadline=None)
def test_bl_two_point_property(shift):
    got = bl_distance(point_measure([0.0]), point_measure([shift]), SPEC)
    assert got == pytest.approx(2 * shift / (2 + shift), abs=1e-7)


def random_measure(rng, kind, n, shift=0.0):
    modes = [int(j) for j in rng.integers(1, 4, size=n)]
    if kind == "H":
        vals = rng.normal(shift, 0.5, size=(n, 1, 2)) + np.cumsum(
            rng.normal(0.0, 0.15, size=(n, 5, 2)), axis=1)
        return EmpiricalMeasure.from_segments(
            [SegmentGrid(rho=0.1, values=v, mode=j) for v, j in zip(vals, modes)])
    return EmpiricalMeasure.from_state_points(
        list(zip(rng.normal(shift, 0.5, size=(n, 2)), modes)))


def bl_by_lp(monkeypatch, mu, nu, spec, **kwargs):
    """bl_distance with the transport form switched off: the pooled-support LP."""
    with monkeypatch.context() as m:
        m.setattr(measure, "_bl_transport", lambda D: None)
        return bl_distance(mu, nu, spec, **kwargs)


def count_lp_calls(monkeypatch):
    """Patch measure.linprog to record its calls; returns the list it appends to."""
    calls = []
    real = measure.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "linprog", counting)
    return calls


@pytest.mark.parametrize("kind", ["H", "H0"])
@pytest.mark.parametrize("mode_metric", ["label", "discrete"])
def test_bl_transport_matches_lp(monkeypatch, kind, mode_metric):
    spec = MetricSpec(mode_metric=mode_metric)
    rng = make_stream(21, 0)
    for n in [1, 2, 3, 7, 20, 60]:
        mu = random_measure(rng, kind, n)
        nu = random_measure(rng, kind, n, shift=float(rng.uniform(0.0, 1.0)))
        assert bl_distance(mu, nu, spec) == pytest.approx(bl_by_lp(monkeypatch, mu, nu, spec),
                                                          abs=1e-10)


def test_bl_transport_matches_lp_after_subsampling(monkeypatch):
    # 50 atoms drawn with replacement from 80: the subsampled measures repeat atoms
    rng = make_stream(22, 0)
    for kind in ["H", "H0"]:
        mu, nu = random_measure(rng, kind, 80), random_measure(rng, kind, 80, shift=0.2)
        got = bl_distance(mu, nu, SPEC, atom_cap=50)
        assert got == pytest.approx(bl_by_lp(monkeypatch, mu, nu, SPEC, atom_cap=50), abs=1e-10)


def test_bl_transport_identity_and_symmetry_exact():
    rng = make_stream(23, 0)
    for kind in ["H", "H0"]:
        mu, nu = random_measure(rng, kind, 40), random_measure(rng, kind, 40, shift=0.3)
        assert bl_distance(mu, mu, SPEC) == 0.0
        assert bl_distance(mu, nu, SPEC) == bl_distance(nu, mu, SPEC)


def test_bl_dispatch(monkeypatch):
    rng = make_stream(24, 0)
    calls = count_lp_calls(monkeypatch)
    mu, nu = random_measure(rng, "H", 30), random_measure(rng, "H", 30, shift=0.3)
    bl_distance(mu, nu, SPEC)
    bl_distance(random_measure(rng, "H", 80), nu, SPEC, atom_cap=30)  # 80 atoms, subsampled
    assert calls == []
    bl_distance(mu, random_measure(rng, "H", 20), SPEC)  # unequal sizes
    assert len(calls) == 1
    w = np.arange(1.0, 31.0)
    bl_distance(EmpiricalMeasure.from_segments(mu.points, weights=w / w.sum()), nu, SPEC)
    assert len(calls) == 2  # non-uniform weights


def test_bl_transport_falls_back_to_lp_at_cut_cap(monkeypatch):
    rng = make_stream(25, 0)
    mu, nu = random_measure(rng, "H0", 30), random_measure(rng, "H0", 30, shift=0.3)
    want = bl_distance(mu, nu, SPEC)
    calls = count_lp_calls(monkeypatch)
    monkeypatch.setattr(measure, "BL_MAX_CUTS", 1)
    assert bl_distance(mu, nu, SPEC) == pytest.approx(want, abs=1e-10)
    assert len(calls) == 1


# --- ensembles and averaging ---

def det_model(g=TWO_MODE, delay=None):
    return HybridDelayModel(dim=1, noise_dim=1,
                            drift=lambda t, j, x, y: np.zeros(1),
                            diffusion=lambda t, j, x, y: np.zeros(np.shape(x) + (1,)),
                            delay=delay or DelaySpec(variant="sawtooth", rho=0.1),
                            generator=g)


def test_ensemble_deterministic_model_is_delta():
    cfg = SimConfig.for_rho(0.1, 4, seed=0)
    mu = ensemble_at(det_model(), 0.0, np.array([1.5]), 1, 1.0, 6, cfg)
    assert len(mu.points) == 6
    assert np.allclose(mu.weights, 1.0 / 6.0)
    for p in mu.points:
        assert np.all(p.values == 1.5)


def test_ensemble_ou_stationary_variance():
    m = registry_model("ou", ONE_MODE)
    mu = ensemble_at(m, -10.0, np.array([0.0]), 1, 0.0, 3000, SimConfig(dt=0.01, seed=8))
    ends = np.stack([p[0] for p in mu.points]).ravel()
    var = ends.var(ddof=1)
    se = var * math.sqrt(2.0 / (len(ends) - 1))
    assert abs(var - 0.5) < 3 * se + 0.005


def test_kb_deterministic_model_is_delta():
    cfg = SimConfig.for_rho(0.1, 4, seed=0)
    mu = kb_average(det_model(), np.array([2.0]), 1, 0.0, 5, 4, 3, cfg)
    assert len(mu.points) == 12  # starts x paths_per_start
    assert abs(mu.weights.sum() - 1.0) < 1e-12
    for p in mu.points:
        assert np.all(p.values == 2.0)


def test_kb_lookback_precondition():
    cfg = SimConfig.for_rho(0.1, 4, seed=0)
    with pytest.raises(ValidationError):
        kb_average(det_model(), np.array([0.0]), 1, -5.0, 5, 4, 3, cfg)


# --- projection / restriction ---

def test_project_delta():
    mu = project_T(delta(1.5, mode=2))
    assert mu.space_tag == "H0"
    (x, j), = mu.points
    assert x[0] == 1.5 and j == 2


def test_project_merges_equal_endpoints():
    ramp = SegmentGrid(rho=0.1, values=np.linspace(0, 1, 5)[:, None], mode=1)
    mu = EmpiricalMeasure.from_segments([ramp, const_seg(1.0)])
    out = project_T(mu)
    assert len(out.points) == 1
    assert out.weights[0] == pytest.approx(1.0)


def test_project_commutes_with_mixing():
    mu1 = delta(0.0)
    mu2 = delta(1.0)
    lam = 0.25
    mixed = EmpiricalMeasure.from_segments(
        list(mu1.points) + list(mu2.points), weights=np.array([lam, 1 - lam]))
    out = project_T(mixed)
    assert np.allclose(sorted(out.weights), [0.25, 0.75])


def test_restrict_identity():
    seg = SegmentGrid(rho=1.0, values=np.linspace(-1, 0, 11)[:, None], mode=1)
    out = restrict(seg, 1.0)
    assert np.allclose(out.values, seg.values)


def test_restrict_linear_segment():
    seg = SegmentGrid(rho=1.0, values=np.linspace(-1, 0, 11)[:, None], mode=1)
    out = restrict(seg, 0.5, num_points=6)
    assert np.allclose(out.values[:, 0], np.linspace(-0.5, 0.0, 6))


def test_restrict_rejects_short_base():
    seg = SegmentGrid(rho=0.5, values=np.zeros((6, 1)), mode=1)
    with pytest.raises(GridMismatch):
        restrict(seg, 0.25)


# --- functionals and tightness ---

def test_functional_normalization():
    mu = point_measure([0.0, 1.0, 2.0])
    assert integrate_functional(mu, lambda p: 1.0) == pytest.approx(1.0)


def test_functional_mode_fraction_matches_stationary():
    m = registry_model("ou", TWO_MODE)
    mu = ensemble_at(m, -30.0, np.array([0.0]), 1, 0.0, 600, SimConfig(dt=0.05, seed=12))
    frac = integrate_functional(mu, lambda p: 1.0 if p[1] == 1 else 0.0)
    assert abs(frac - 2.0 / 3.0) < 0.07


def test_tightness_delta_measure():
    rep = tightness_report(delta(1.5), R_grid=[1.0, 1.5, 2.0], eta_grid=[0.025, 0.05])
    assert np.allclose(rep.prob_bounded, [0.0, 1.0, 1.0])
    assert np.all(rep.modulus_q95 == 0.0)
    assert np.all(rep.modulus_mean == 0.0)


def test_tightness_modulus_monotone_in_eta():
    rng = make_stream(9, 0)
    segs = [SegmentGrid(rho=0.1, values=np.cumsum(rng.normal(size=5))[:, None], mode=1)
            for _ in range(20)]
    mu = EmpiricalMeasure.from_segments(segs)
    rep = tightness_report(mu, R_grid=[10.0], eta_grid=[0.025, 0.05, 0.1])
    assert np.all(np.diff(rep.modulus_mean) >= -1e-12)
