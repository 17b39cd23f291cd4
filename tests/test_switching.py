import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridlab.errors import NonPositiveRate, OutOfRange, Reducible, RowSumViolation
from hybridlab.switching import (Generator, ModePath, make_stream, mode_at, modes_on_grid,
                                 occupation_fractions, path_streams, sample_mode_path,
                                 stationary_distribution, validate_generator)


def two_state():
    return Generator(np.array([[-1.0, 1.0], [2.0, -2.0]]))


def test_validate_accepts_two_state():
    validate_generator(two_state())


def test_validate_rejects_bad_row_sum():
    with pytest.raises(RowSumViolation) as exc:
        validate_generator(Generator(np.array([[-1.0, 0.5], [2.0, -2.0]])))
    assert exc.value.row == 1


def test_validate_rejects_zero_rate():
    with pytest.raises(NonPositiveRate) as exc:
        validate_generator(Generator(np.array([[-1.0, 1.0], [0.0, 0.0]])))
    assert (exc.value.i, exc.value.j) == (2, 1)


def test_sparse_cycle_generator_validates():
    g = Generator(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]))
    validate_generator(g)
    assert np.allclose(stationary_distribution(g), [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


@pytest.mark.parametrize("rates, pair", [
    ([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]], (1, 3)),  # mode 3 never entered
    ([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]], (2, 1)),  # mode 1 never re-entered
])
def test_validate_rejects_reducible(rates, pair):
    with pytest.raises(Reducible) as exc:
        validate_generator(Generator(np.array(rates)))
    assert (exc.value.i, exc.value.j) == pair


def test_validate_rejects_negative_rate():
    with pytest.raises(NonPositiveRate) as exc:
        validate_generator(Generator(np.array([[1.0, -1.0], [2.0, -2.0]])))
    assert (exc.value.i, exc.value.j) == (1, 2)


def test_row_sum_tolerance_relative_to_rates():
    big = 1e6
    validate_generator(Generator(np.array([[-big, big + 1e-7], [big, -big]])))
    with pytest.raises(RowSumViolation):
        validate_generator(Generator(np.array([[-1.0, 1.0 + 1e-7], [1.0, -1.0]])))


def test_stationary_two_state():
    pi = stationary_distribution(two_state())
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 7.0])
def test_stationary_symmetric_is_uniform(a):
    g = Generator(np.array([[-a, a], [a, -a]]))
    assert np.allclose(stationary_distribution(g), [0.5, 0.5], atol=1e-12)


def test_stationary_three_state_oracle():
    # independent linear solve of pi @ rates = 0, sum(pi) = 1
    g = Generator(np.array([[-1.0, 0.5, 0.5], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]))
    assert np.allclose(stationary_distribution(g), [0.5, 0.25, 0.25], atol=1e-12)


def test_single_state_constant_path():
    g = Generator(np.array([[0.0]]))
    p = sample_mode_path(g, 1, 0.0, 5.0, make_stream(1, 0))
    assert len(p.jump_times) == 0
    assert list(p.modes) == [1]
    assert mode_at(p, 3.3) == 1


def test_sample_rejects_empty_interval():
    with pytest.raises(OutOfRange):
        sample_mode_path(two_state(), 1, 1.0, 1.0, make_stream(0, 0))


def test_sample_rejects_bad_initial_mode():
    with pytest.raises(OutOfRange):
        sample_mode_path(two_state(), 3, 0.0, 1.0, make_stream(0, 0))


def test_occupation_matches_stationary():
    p = sample_mode_path(two_state(), 1, 0.0, 5000.0, make_stream(99, 0))
    frac = occupation_fractions(p)
    assert abs(frac[0] - 2.0 / 3.0) < 0.03


def test_fixed_seed_reproducible():
    p1 = sample_mode_path(two_state(), 1, 0.0, 50.0, make_stream(7, 4))
    p2 = sample_mode_path(two_state(), 1, 0.0, 50.0, make_stream(7, 4))
    assert np.array_equal(p1.jump_times, p2.jump_times)
    assert np.array_equal(p1.modes, p2.modes)


def test_distinct_streams_differ():
    p1 = sample_mode_path(two_state(), 1, 0.0, 50.0, make_stream(7, 0))
    p2 = sample_mode_path(two_state(), 1, 0.0, 50.0, make_stream(7, 2))
    assert not np.array_equal(p1.jump_times, p2.jump_times)


def test_path_streams_are_disjoint():
    m, w = path_streams(3, 5)
    assert m.standard_normal() != w.standard_normal()


def test_mode_at_right_continuous():
    p = ModePath(start_time=0.0, end_time=2.0, jump_times=np.array([1.0]),
                 modes=np.array([1, 2]))
    assert mode_at(p, 1.0) == 2
    assert mode_at(p, 0.999) == 1
    with pytest.raises(OutOfRange):
        mode_at(p, -0.1)


def test_modes_on_grid_matches_pointwise():
    p = sample_mode_path(two_state(), 1, 0.0, 20.0, make_stream(11, 0))
    ts = np.linspace(0.0, 20.0, 401)
    vec = modes_on_grid(p, ts)
    assert all(int(v) == mode_at(p, float(t)) for v, t in zip(vec, ts))


@given(seed=st.integers(0, 2**32 - 1), horizon=st.floats(0.5, 30.0))
@settings(max_examples=25, deadline=None)
def test_path_invariants(seed, horizon):
    p = sample_mode_path(two_state(), 1, 0.0, horizon, make_stream(seed, 0))
    assert len(p.modes) == len(p.jump_times) + 1
    assert np.all(np.diff(p.jump_times) > 0)
    if len(p.jump_times):
        assert p.jump_times[0] > 0.0 and p.jump_times[-1] < horizon
    # consecutive modes must actually change
    assert np.all(np.diff(p.modes) != 0)
    assert abs(occupation_fractions(p).sum() - 1.0) < 1e-12


def reference_mode_path(g, j0, s, t_end, rng):
    """Gillespie loop drawing the next mode with rng.choice."""
    rates = g.rates
    n = rates.shape[0]
    times, modes, t, j = [], [j0], s, j0
    while True:
        exit_rate = -rates[j - 1, j - 1]
        t = t + rng.exponential(1.0 / exit_rate)
        if t >= t_end:
            break
        p = rates[j - 1].copy()
        p[j - 1] = 0.0
        p /= exit_rate
        j = int(rng.choice(n, p=p)) + 1
        times.append(t)
        modes.append(j)
    return np.array(times), np.array(modes)


@pytest.mark.parametrize("rates", [
    [[-1.0, 1.0], [2.0, -2.0]],
    [[-30.0, 12.0, 18.0], [7.0, -30.0, 23.0], [15.0, 15.0, -30.0]],
    [[-3.0, 0.5, 2.5], [1.0, -1.7, 0.7], [0.2, 4.0, -4.2]],
])
def test_mode_draws_match_rng_choice(rates):
    g = Generator(np.array(rates))
    for seed in range(3):
        p = sample_mode_path(g, 1, 0.0, 200.0, make_stream(seed, 5))
        ref_rng = make_stream(seed, 5)
        times, modes = reference_mode_path(g, 1, 0.0, 200.0, ref_rng)
        assert len(times) > 100
        assert np.array_equal(p.jump_times, times)
        assert np.array_equal(p.modes, modes)
        # the stream is left in the same state
        rng = make_stream(seed, 5)
        sample_mode_path(g, 1, 0.0, 200.0, rng)
        assert rng.random() == ref_rng.random()
