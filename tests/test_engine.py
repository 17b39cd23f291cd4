"""The lockstep ensemble engine against paths integrated one at a time."""

from dataclasses import replace

import numpy as np
import pytest

from hybridlab.errors import Blowup
from hybridlab.experiments import (ModelConfig, certified_scalar_model, two_state_generator,
                                   uncontrolled_scalar_model)
from hybridlab.measure import ensemble_at, kb_average
from hybridlab import simulate
from hybridlab.simulate import SimConfig, integrate, integrate_paths, segment_at
from hybridlab.switching import Generator

SCALAR = certified_scalar_model().build_primary(two_state_generator())
CFG = SimConfig.for_rho(0.1, 4, seed=2024)

THREE_MODE = Generator(np.array([[-30.0, 12.0, 18.0], [7.0, -30.0, 23.0], [15.0, 15.0, -30.0]]))
PLANAR = ModelConfig(
    kind="controlled_linear", dim=2, noise_dim=2,
    drift_mats=(np.array([[0.5, 1.0], [-1.0, 0.5]]), np.array([[0.3, -0.5], [0.8, 0.2]]),
                np.array([[0.6, 0.0], [0.4, -0.2]])),
    gain_mats=(-2.0 * np.eye(2),) * 3,
    diffusion_cols=((0.3 * np.eye(2), np.array([[0.0, 0.2], [0.2, 0.0]])),) * 3,
    rho=0.1,
).build_primary(THREE_MODE)


def one_by_one(m, jobs, j0, t_end, cfg):
    return [integrate(m, s, xi, j0, t_end, replace(cfg, path_index=p)) for s, xi, p in jobs]


def first_failure(m, jobs, j0, t_end, cfg):
    """The Blowup that running the jobs one after another would raise."""
    for s, xi, p in jobs:
        try:
            integrate(m, s, xi, j0, t_end, replace(cfg, path_index=p))
        except Blowup as exc:
            return exc
    return None


def test_scalar_ensemble_matches_single_paths_bitwise():
    jobs = [(0.0, np.array([1.0]), p) for p in range(24)]
    # staggered starts, as in a lookback average
    jobs += [(-0.1 * (p % 7), np.array([0.5]), 100 + p) for p in range(16)]
    together = list(integrate_paths(SCALAR, jobs, 1, 2.0, CFG))
    alone = one_by_one(SCALAR, jobs, 1, 2.0, CFG)
    for a, b in zip(together, alone):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.mode_path.jump_times, b.mode_path.jump_times)


def test_planar_three_mode_ensemble_matches_single_paths():
    jobs = [(0.0, np.array([1.0, -0.5]), p) for p in range(30)]
    together = list(integrate_paths(PLANAR, jobs, 1, 1.5, CFG))
    alone = one_by_one(PLANAR, jobs, 1, 1.5, CFG)
    for a, b in zip(together, alone):
        assert np.array_equal(a.times, b.times)
        assert np.max(np.abs(a.states - b.states)) <= 1e-12


def test_masked_substeps_leave_state_unchanged():
    # mode 1 is left rarely, mode 2 at once: most paths never jump, and the
    # few that do jump several times inside single base steps
    g = Generator(np.array([[-0.3, 0.3], [80.0, -80.0]]))
    m = replace(SCALAR, generator=g)
    jobs = [(0.0, np.array([1.0]), p) for p in range(40)]
    together = list(integrate_paths(m, jobs, 1, 2.0, CFG))
    alone = one_by_one(m, jobs, 1, 2.0, CFG)
    base = np.arange(-4, 81) * CFG.dt
    quiet = [q for q, tr in enumerate(together) if len(tr.times) == len(base)]
    busy = [tr for tr in together
            if np.max(np.bincount(np.floor(tr.times / CFG.dt + 1e-9).astype(int) + 4)) > 2]
    assert quiet and busy  # the run had multi-slot base steps and paths sitting them out
    for q in quiet:
        assert np.array_equal(together[q].times, base)
        assert np.array_equal(together[q].states, alone[q].states)


def test_pair_identical_initial_data_identical_paths():
    for m in (SCALAR, PLANAR):
        x0 = np.ones(m.dim)
        tr1, tr2 = integrate_paths(m, [(0.0, x0, 5), (0.0, x0.copy(), 5)], 1, 2.0, CFG)
        assert np.array_equal(tr1.states, tr2.states)


def test_pair_first_path_matches_integrate():
    cfg = replace(CFG, path_index=3)
    jobs = [(0.0, np.array([1.0]), 3), (0.0, np.array([0.0]), 3)]
    tr1, _ = integrate_paths(SCALAR, jobs, 1, 2.0, CFG)
    alone = integrate(SCALAR, 0.0, np.array([1.0]), 1, 2.0, cfg)
    assert np.array_equal(tr1.states, alone.states)


def test_repeated_jobs_share_one_draw(monkeypatch):
    calls = []
    draw = simulate._draw

    def counting(model, s, t_end, j0, cfg, path_index):
        calls.append((s, path_index))
        return draw(model, s, t_end, j0, cfg, path_index)

    a, b = np.array([1.0]), np.array([0.0])
    jobs = [(0.0, a, 0), (0.0, b, 0), (0.0, a, 1), (-0.4, a, 0), (0.0, b, 1), (-0.4, b, 0),
            (0.0, a, 0)]
    monkeypatch.setattr(simulate, "_draw", counting)
    together = list(integrate_paths(SCALAR, jobs, 1, 2.0, CFG))
    assert sorted(calls) == [(-0.4, 0), (0.0, 0), (0.0, 1)]
    monkeypatch.undo()
    for tr, ref in zip(together, one_by_one(SCALAR, jobs, 1, 2.0, CFG)):
        assert np.array_equal(tr.times, ref.times)
        assert np.array_equal(tr.states, ref.states)
        assert np.array_equal(tr.mode_path.jump_times, ref.mode_path.jump_times)


def test_segments_match_single_paths():
    mu = ensemble_at(SCALAR, -1.0, np.array([1.0]), 1, 1.0, 12, CFG)
    for p, seg in enumerate(mu.points):
        tr = integrate(SCALAR, -1.0, np.array([1.0]), 1, 1.0, replace(CFG, path_index=p))
        ref = segment_at(tr, 1.0)
        assert np.array_equal(seg.values, ref.values) and seg.mode == ref.mode


UNSTABLE = uncontrolled_scalar_model().build_primary(two_state_generator())
GUARDED = SimConfig.for_rho(0.1, 4, seed=3, blowup_guard=30.0)


def assert_same_blowup(got, want):
    assert (got.t, got.path_index, got.magnitude) == (want.t, want.path_index, want.magnitude)


def test_ensemble_blowup_is_first_path_in_order():
    jobs = [(0.0, np.array([1.0]), p) for p in range(40)]
    times = {}
    for s, xi, p in jobs:
        try:
            integrate(UNSTABLE, s, xi, 1, 6.0, replace(GUARDED, path_index=p))
        except Blowup as exc:
            times[p] = exc.t
    want = first_failure(UNSTABLE, jobs, 1, 6.0, GUARDED)
    # some later path leaves the guard earlier in time than the reported one
    assert min(times.values()) < want.t
    with pytest.raises(Blowup) as exc:
        ensemble_at(UNSTABLE, 0.0, np.array([1.0]), 1, 6.0, 40, GUARDED)
    assert_same_blowup(exc.value, want)


def test_kb_average_blowup_is_first_path_in_order():
    starts, per_start = 8, 5
    with pytest.raises(Blowup) as exc:
        kb_average(UNSTABLE, np.array([1.0]), 1, 0.0, 6, starts, per_start, GUARDED)
    # the start times kb_average draws, as (start, path index) jobs in its order
    rng = np.random.Generator(np.random.Philox(key=[GUARDED.seed, 2**62]))
    taus = np.clip(np.round(rng.uniform(-6, -0.1, size=starts) / GUARDED.dt) * GUARDED.dt,
                   None, -0.1)
    jobs = [(round(tau / GUARDED.dt) * GUARDED.dt, np.array([1.0]), i * per_start + p)
            for i, tau in enumerate(taus) for p in range(per_start)]
    assert_same_blowup(exc.value, first_failure(UNSTABLE, jobs, 1, 0.0, GUARDED))


def test_pair_blowup_reports_first_initial_datum():
    cfg = replace(GUARDED, path_index=2)
    small_then_big = [(0.0, np.array([1.0]), 2), (0.0, np.array([3.0]), 2)]
    with pytest.raises(Blowup) as small_first:
        list(integrate_paths(UNSTABLE, small_then_big, 1, 6.0, GUARDED))
    with pytest.raises(Blowup) as big_first:
        list(integrate_paths(UNSTABLE, small_then_big[::-1], 1, 6.0, GUARDED))
    with pytest.raises(Blowup) as small:
        integrate(UNSTABLE, 0.0, np.array([1.0]), 1, 6.0, cfg)
    with pytest.raises(Blowup) as big:
        integrate(UNSTABLE, 0.0, np.array([3.0]), 1, 6.0, cfg)
    assert big.value.t < small.value.t
    assert_same_blowup(small_first.value, small.value)
    assert_same_blowup(big_first.value, big.value)
