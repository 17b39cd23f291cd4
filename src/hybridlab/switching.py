"""Exact simulation and analysis of the switching Markov chain.

The regime process is a continuous-time chain on modes {1..N} with a
rate matrix whose rows sum to zero.  Jump times are simulated exactly
(competing exponential clocks), so mode paths carry no discretization
bias into the SDE integrator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveRate, OutOfRange, Reducible, RowSumViolation, SingularSystem

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10


def make_stream(seed, stream_index):
    """Counter-based random stream keyed by (seed, stream_index).

    Streams for distinct keys are statistically independent, so path
    ensembles can be generated in any order.
    """
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), stream_index]))


def path_streams(seed, path_index):
    """(mode-chain stream, Wiener stream) for one simulated path."""
    return make_stream(seed, 2 * path_index), make_stream(seed, 2 * path_index + 1)


@dataclass(frozen=True)
class Generator:
    """Transition-rate matrix of the switching chain."""

    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=float))

    @property
    def n_states(self):
        return self.rates.shape[0]


@dataclass(frozen=True)
class ModePath:
    """Right-continuous step function of modes over [start_time, end_time].

    ``modes`` has one more entry than ``jump_times``: modes[i] is in force
    on [jump_times[i-1], jump_times[i]).
    """

    start_time: float
    end_time: float
    jump_times: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "jump_times", np.asarray(self.jump_times, dtype=float))
        object.__setattr__(self, "modes", np.asarray(self.modes, dtype=np.int64))


def _reached(adjacent):
    """Modes reachable from mode 1 along the edges of a boolean adjacency matrix."""
    seen = np.zeros(len(adjacent), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = adjacent[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


def validate_generator(g):
    """Raise unless the rate matrix is a valid irreducible-chain generator.

    Off-diagonal rates must be >= 0 and each row must sum to zero within
    ROW_SUM_TOL times its largest rate.  Zero rates are allowed as long as every
    mode reaches every other one through positive rates (as in a cycle), which is
    what the stationary law needs.
    """
    rates = g.rates
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise RowSumViolation(1, float("nan"))
    n = rates.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j and not rates[i, j] >= 0.0:
                raise NonPositiveRate(i + 1, j + 1, rates[i, j])
    row_sums = rates.sum(axis=1)
    for i in range(n):
        if not abs(row_sums[i]) <= ROW_SUM_TOL * np.max(np.abs(rates[i])):
            raise RowSumViolation(i + 1, row_sums[i])
    positive = (rates > 0.0) & ~np.eye(n, dtype=bool)
    forward = _reached(positive)  # modes that mode 1 reaches
    if not forward.all():
        j = int(np.argmin(forward))
        raise Reducible(1, j + 1, rates[0, j])
    backward = _reached(positive.T)  # modes that reach mode 1
    if not backward.all():
        i = int(np.argmin(backward))
        raise Reducible(i + 1, 1, rates[i, 0])


def stationary_distribution(g):
    """Solve pi @ rates = 0 with sum(pi) = 1.

    The normalization replaces the last (redundant) balance equation.
    """
    rates = g.rates
    n = rates.shape[0]
    a = np.vstack([rates.T[:-1], np.ones(n)])
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    residual = np.max(np.abs(pi @ rates))
    if residual > STATIONARY_RESIDUAL_TOL or np.any(pi <= 0):
        raise SingularSystem(f"residual {residual:.3e} or nonpositive entry in {pi}")
    return pi


def sample_mode_path(g, j0, s, t_end, rng):
    """Exact (Gillespie) simulation of the chain from mode j0 over [s, t_end].

    Holding time in mode i is Exponential(-r_ii); the next mode is chosen
    with probability r_ij / (-r_ii).  A zero exit rate (the N=1 limiting
    case) yields a constant path.  The next mode is drawn by inverting the
    jump distribution's cumulative sums at one uniform, exactly as
    ``rng.choice(n, p=p)`` does, so the streams match that call draw for draw.
    """
    if t_end <= s:
        raise OutOfRange(f"t_end={t_end} must exceed s={s}")
    rates = g.rates
    n = rates.shape[0]
    if not 1 <= j0 <= n:
        raise OutOfRange(f"mode {j0} not in 1..{n}")
    # per mode: mean holding time and the next mode's cumulative distribution
    # (None for a mode that is never left)
    scales, cdfs = [], []
    for i, exit_rate in enumerate(-np.diag(rates)):
        if exit_rate <= 0.0:
            scales.append(None)
            cdfs.append(None)
            continue
        p = rates[i].copy()
        p[i] = 0.0
        p /= exit_rate
        cdf = p.cumsum()
        cdf /= cdf[-1]
        scales.append(1.0 / exit_rate)
        cdfs.append(cdf)
    jump_times = []
    modes = [j0]
    t = s
    j = j0
    while True:
        scale = scales[j - 1]
        if scale is None:
            break
        t = t + rng.exponential(scale)
        if t >= t_end:
            break
        j = int(cdfs[j - 1].searchsorted(rng.random(), side="right")) + 1
        jump_times.append(t)
        modes.append(j)
    return ModePath(start_time=s, end_time=t_end, jump_times=np.array(jump_times),
                    modes=np.array(modes))


def mode_at(p, t):
    """Mode in force at time t (right-continuous lookup)."""
    if t < p.start_time or t > p.end_time:
        raise OutOfRange(f"t={t} outside [{p.start_time}, {p.end_time}]")
    idx = int(np.searchsorted(p.jump_times, t, side="right"))
    return int(p.modes[idx])


def modes_on_grid(p, times):
    """Vectorized right-continuous lookup for an increasing time array."""
    times = np.asarray(times, dtype=float)
    if times.size and (times[0] < p.start_time or times[-1] > p.end_time):
        raise OutOfRange("grid extends outside the mode path horizon")
    idx = np.searchsorted(p.jump_times, times, side="right")
    return p.modes[idx]


def occupation_fractions(p):
    """Fraction of [start_time, end_time] spent in each visited mode."""
    edges = np.concatenate([[p.start_time], p.jump_times, [p.end_time]])
    holds = np.diff(edges)
    n = int(p.modes.max())
    frac = np.zeros(n)
    np.add.at(frac, p.modes - 1, holds)
    return frac / (p.end_time - p.start_time)
