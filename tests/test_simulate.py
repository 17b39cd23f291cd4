import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridlab.errors import Blowup, GridMismatch, OutOfRange, ValidationError
from hybridlab.model import (ControlledModelSpec, DelaySpec, HybridDelayModel,
                             build_controlled_model, build_delay_free_model, registry_model)
from hybridlab.simulate import (SegmentGrid, SimConfig, Trajectory, integrate,
                                integrate_ensemble, integrate_paths, segment_at)
from hybridlab.switching import Generator

ONE_MODE = Generator(np.array([[0.0]]))
TWO_MODE = Generator(np.array([[-1.0, 1.0], [2.0, -2.0]]))


def make_model(drift, diffusion, g=ONE_MODE, delay=None):
    return HybridDelayModel(dim=1, noise_dim=1, drift=drift, diffusion=diffusion,
                            delay=delay or DelaySpec(variant="none"),
                            generator=g)


def zero_diff(t, j, x, y):
    return np.zeros(np.shape(x) + (1,))


def scalar_spec(gain=-2.0, rho=0.1):
    return ControlledModelSpec(
        dim=1, noise_dim=1,
        h=lambda j, x: x,
        sigma=lambda j, x: 0.5 * x[..., None],
        gains=[np.array([[gain]]), np.array([[gain]])],
        rho=rho,
    )


def test_zero_coefficients_constant_path():
    m = make_model(lambda t, j, x, y: np.zeros(1), zero_diff, g=TWO_MODE)
    tr = integrate(m, 0.0, np.array([2.5]), 1, 3.0, SimConfig(dt=0.01, seed=0))
    assert np.all(tr.states == 2.5)
    assert tr.end_time == pytest.approx(3.0)


def test_linear_ode_error():
    m = make_model(lambda t, j, x, y: -x, zero_diff)
    for dt in (0.02, 0.01):
        tr = integrate(m, 0.0, np.array([1.0]), 1, 2.0, SimConfig(dt=dt, seed=0))
        assert abs(tr.states[-1, 0] - math.exp(-2.0)) < 5 * dt


def test_geometric_first_moment():
    # f = a u, g = b u: E u(1) = u0 e^a
    m = make_model(lambda t, j, x, y: -x, lambda t, j, x, y: 0.5 * x[..., None])
    ends = integrate_ensemble(m, 0.0, np.array([1.0]), 1, 1.0,
                              SimConfig(dt=0.01, seed=14), 4000)
    mean = ends.mean()
    se = ends.std(ddof=1) / math.sqrt(len(ends))
    # 4 stderr: leaves room for the O(dt) discretization bias
    assert abs(mean - math.exp(-1.0)) < 4 * se + 0.003


def test_same_seed_reproducible():
    m = registry_model("ou", TWO_MODE)
    cfg = SimConfig(dt=0.01, seed=5, path_index=3)
    tr1 = integrate(m, 0.0, np.array([1.0]), 1, 4.0, cfg)
    tr2 = integrate(m, 0.0, np.array([1.0]), 1, 4.0, cfg)
    assert np.array_equal(tr1.states, tr2.states)
    assert np.array_equal(tr1.mode_path.jump_times, tr2.mode_path.jump_times)


def test_misaligned_start_rejected():
    m = registry_model("ou", ONE_MODE)
    with pytest.raises(GridMismatch):
        integrate(m, 0.005, np.array([1.0]), 1, 1.005, SimConfig(dt=0.01, seed=0))


def test_dt_rho_mismatch_rejected():
    m = build_controlled_model(scalar_spec(rho=0.1), TWO_MODE)
    with pytest.raises(GridMismatch):
        integrate(m, 0.0, np.array([1.0]), 1, 1.0,
                  SimConfig(dt=0.03, seed=0, steps_per_rho=4))


def test_blowup_reports_location():
    m = make_model(lambda t, j, x, y: x**2, zero_diff)
    with pytest.raises(Blowup) as exc:
        integrate(m, 0.0, np.array([5.0]), 1, 10.0,
                  SimConfig(dt=0.01, seed=0, blowup_guard=100.0))
    assert 0.0 < exc.value.t <= 10.0
    assert exc.value.magnitude > 100.0


def test_history_included_for_delay_models():
    m = build_controlled_model(scalar_spec(rho=0.2), TWO_MODE)
    cfg = SimConfig.for_rho(0.2, 4, seed=1)
    tr = integrate(m, 0.0, np.array([1.0]), 1, 1.0, cfg)
    assert tr.times[0] == pytest.approx(-0.2)
    assert np.all(tr.states[:5] == 1.0)  # constant initial segment


def test_segment_initial_grid():
    # a SegmentGrid initial condition is reproduced in the stored history
    vals = np.linspace(0.0, 1.0, 5)[:, None]
    xi = SegmentGrid(rho=0.2, values=vals)
    m = build_controlled_model(scalar_spec(rho=0.2), TWO_MODE)
    tr = integrate(m, 0.0, xi, 1, 1.0, SimConfig.for_rho(0.2, 4, seed=1))
    assert np.allclose(tr.states[:5], vals)


def test_segment_at_start_returns_initial():
    m = build_controlled_model(scalar_spec(rho=0.2), TWO_MODE)
    tr = integrate(m, 0.0, np.array([1.5]), 1, 1.0, SimConfig.for_rho(0.2, 4, seed=2))
    seg = segment_at(tr, 0.0)
    assert np.all(seg.values == 1.5)
    assert seg.mode == 1


def test_segment_at_grid_aligned_is_exact():
    m = build_controlled_model(scalar_spec(rho=0.2), TWO_MODE)
    tr = integrate(m, 0.0, np.array([1.0]), 1, 1.0, SimConfig.for_rho(0.2, 4, seed=3))
    seg = segment_at(tr, 1.0)
    base = np.isclose(tr.times[:, None], np.linspace(0.8, 1.0, 5)[None, :]).any(axis=1)
    stored = tr.states[base][-5:]
    assert np.array_equal(seg.values, stored)


def test_segment_at_requires_delay():
    m = registry_model("ou", ONE_MODE)
    tr = integrate(m, 0.0, np.array([1.0]), 1, 1.0, SimConfig(dt=0.01, seed=0))
    with pytest.raises(OutOfRange):
        segment_at(tr, 0.5)


def test_pair_identical_initials_bitwise():
    m = build_controlled_model(scalar_spec(), TWO_MODE)
    cfg = SimConfig.for_rho(0.1, 4, seed=9)
    jobs = [(0.0, np.array([1.0]), 0), (0.0, np.array([1.0]), 0)]
    tr1, tr2 = integrate_paths(m, jobs, 1, 2.0, cfg)
    assert np.array_equal(tr1.states, tr2.states)


def test_pair_contracts_on_certified_model():
    m = build_controlled_model(scalar_spec(), TWO_MODE)
    cfg = SimConfig.for_rho(0.1, 4, seed=21)
    jobs = [(0.0, np.array([x0]), p) for p in range(16) for x0 in (0.0, 1.0)]
    trs = list(integrate_paths(m, jobs, 1, 10.0, cfg))
    gaps = [abs(tr1.states[-1, 0] - tr2.states[-1, 0]) for tr1, tr2 in zip(trs[::2], trs[1::2])]
    assert np.mean(gaps) < 0.05


def test_pair_diverges_without_control():
    m = build_controlled_model(scalar_spec(gain=0.0), TWO_MODE)
    cfg = SimConfig.for_rho(0.1, 4, seed=22)
    jobs = [(0.0, np.array([0.0]), 0), (0.0, np.array([1.0]), 0)]
    tr1, tr2 = integrate_paths(m, jobs, 1, 5.0, cfg)
    gap = abs(tr1.states[-1, 0] - tr2.states[-1, 0])
    # coupled difference solves u' = u: e^5 ~ 148 up to discretization
    assert gap > 50.0


def test_coupled_zero_gain_paths_coincide():
    spec = scalar_spec(gain=0.0)
    cfg = SimConfig.for_rho(0.1, 4, seed=31)
    jobs = [(0.0, np.array([1.0]), 0)]
    (tr_r,) = integrate_paths(build_controlled_model(spec, TWO_MODE), jobs, 1, 2.0, cfg)
    (tr_0,) = integrate_paths(build_delay_free_model(spec, TWO_MODE), jobs, 1, 2.0, cfg)
    # with A = 0 both drifts equal h, so shared noise gives identical paths
    assert abs(tr_r.states[-1, 0] - tr_0.states[-1, 0]) < 1e-12


def test_ensemble_fast_path_bitwise_equal():
    m = registry_model("ou", ONE_MODE)
    cfg = SimConfig(dt=0.01, seed=77)
    fast = integrate_ensemble(m, 0.0, np.array([1.0]), 1, 1.0, cfg, 8)
    slow = integrate_ensemble(
        HybridDelayModel(dim=1, noise_dim=1, drift=m.drift, diffusion=m.diffusion,
                         delay=m.delay, generator=m.generator),
        0.0, np.array([1.0]), 1, 1.0, cfg, 8)
    assert np.array_equal(fast, slow)


def test_rejects_empty_interval():
    m = registry_model("ou", ONE_MODE)
    with pytest.raises(ValidationError):
        integrate(m, 1.0, np.array([1.0]), 1, 1.0, SimConfig(dt=0.01, seed=0))


@given(c=st.floats(-5.0, 5.0), steps=st.integers(10, 200))
@settings(max_examples=25, deadline=None)
def test_constant_model_stays_constant(c, steps):
    m = make_model(lambda t, j, x, y: np.zeros(1), zero_diff, g=TWO_MODE)
    tr = integrate(m, 0.0, np.array([c]), 1, steps * 0.01, SimConfig(dt=0.01, seed=1))
    assert np.all(tr.states == c)
