"""Euler-Maruyama integration of hybrid delay SDEs.

Each path's time mesh is the uniform base grid (absolute times i * dt,
with dt = rho / steps_per_rho when a delay is present) refined by its own
exact mode-jump times.  The mode is frozen on each sub-interval at its
left endpoint, so no interval straddles a jump.  Delayed state reads use
linear interpolation in the path's stored history, with exact hits
snapped to stored grid values.

``integrate_paths`` is the one entry point: it runs a list of
(start, initial value, path index) jobs, and ``integrate`` is its P = 1
case.  One engine advances the jobs' paths together on the shared base
grid.  Within a base step it runs as many sub-step slots as the busiest
path has jumps in that step; a path with fewer jumps sits the extra
slots out and its state is left untouched.  In each slot the
coefficients are called once per mode on the batch of paths in that
mode, so the model contract is batched: drift(t, j, x, y) -> (P, n) and
diffusion(t, j, x, y) -> (P, n, m) for x, y of shape (P, n) and t a
(P, 1) column of per-path times.

All randomness comes from counter-based streams keyed by
(seed, path_index), and each path draws its mode path and its Wiener
increments on its own mesh in the same order whether it runs alone or in
an ensemble, so ensembles are reproducible and order-independent.  Jobs
with the same (start, path index) share one draw and so see the same
noise: a pair of paths from two initial values under common noise is the
jobs [(s, xi1, p), (s, xi2, p)], and a coupled run of two models is the
same jobs passed to ``integrate_paths`` once per model.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Blowup, GridMismatch, NonFiniteCoefficient, OutOfRange, ValidationError
from .switching import ModePath, modes_on_grid, mode_at, path_streams, sample_mode_path

GRID_SNAP = 1e-9  # relative to dt: treat delayed reads this close to a node as exact
ROW_BUDGET = 1 << 18  # path steps per engine run; longer ensembles run in chunks of paths


@dataclass(frozen=True)
class SimConfig:
    """Integrator settings.  dt must equal rho / steps_per_rho for delayed models."""

    dt: float
    seed: int
    steps_per_rho: int = 1
    path_index: int = 0
    blowup_guard: float = 1e8

    @classmethod
    def for_rho(cls, rho, steps_per_rho, seed, **kw):
        return cls(dt=rho / steps_per_rho, seed=seed, steps_per_rho=steps_per_rho, **kw)


@dataclass(frozen=True)
class SegmentGrid:
    """Equally spaced samples of the state over [t - rho, t], paired with a mode."""

    rho: float
    values: np.ndarray  # (m+1, n)
    mode: Optional[int] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "values", v)

    @property
    def endpoint(self):
        return self.values[-1]

    def resample(self, num_points):
        """Linear resampling onto num_points equally spaced nodes."""
        old = np.linspace(-self.rho, 0.0, len(self.values))
        new = np.linspace(-self.rho, 0.0, num_points)
        cols = [np.interp(new, old, self.values[:, c]) for c in range(self.values.shape[1])]
        return SegmentGrid(rho=self.rho, values=np.stack(cols, axis=1), mode=self.mode)


@dataclass(frozen=True)
class Trajectory:
    """A sampled solution path.

    ``times``/``states`` cover [start_time - rho, t_end] when the model has
    a delay (the head is the initial segment), and [start_time, t_end]
    otherwise.  ``mode_path`` covers [start_time, t_end].
    """

    times: np.ndarray
    states: np.ndarray
    mode_path: ModePath
    model_rho: float
    start_time: float

    @property
    def end_time(self):
        return float(self.times[-1])


@dataclass(frozen=True)
class _Draw:
    """One path's randomness on its own mesh (base grid plus its jump times)."""

    mode_path: ModePath
    mesh: np.ndarray
    base_step: np.ndarray  # base-grid step index i (absolute) of each mesh step
    modes: np.ndarray      # mode in force on each mesh step
    deltas: np.ndarray
    dW: np.ndarray         # (steps, m) Wiener increments


def _grid_index(t, dt, what):
    i = round(t / dt)
    if abs(i * dt - t) > 1e-6 * dt:
        raise GridMismatch(f"{what}={t} is not aligned to the dt={dt} grid")
    return int(i)


def _history_from_xi(xi, k, rho, dt, i0, n):
    """(times, values) of the initial segment on the k+1-point grid ending at s."""
    times = (np.arange(i0 - k, i0 + 1)) * dt
    if isinstance(xi, SegmentGrid):
        if abs(xi.rho - rho) > 1e-12:
            raise GridMismatch(f"initial segment rho={xi.rho} != model rho={rho}")
        seg = xi if len(xi.values) == k + 1 else xi.resample(k + 1)
        vals = np.array(seg.values, dtype=float)
    else:
        point = np.asarray(xi, dtype=float).reshape(n)
        vals = np.tile(point, (k + 1, 1))
    if vals.shape != (k + 1, n):
        raise GridMismatch(f"initial segment shape {vals.shape}, expected {(k + 1, n)}")
    return times, vals


def _draw(model, s, t_end, j0, cfg, path_index):
    """Sample path ``path_index``'s mode path and Wiener increments over [s, t_end]."""
    dt = cfg.dt
    i0 = _grid_index(s, dt, "start time")
    i1 = _grid_index(t_end, dt, "end time")
    if i1 <= i0:
        raise ValidationError(f"t_end={t_end} must exceed s={s}")
    rng_mode, rng_w = path_streams(cfg.seed, path_index)
    base = np.arange(i0, i1 + 1) * dt
    # sample over the realized grid span so float rounding of s cannot
    # push mesh nodes outside the mode-path horizon
    mode_path = sample_mode_path(model.generator, j0, float(base[0]), float(base[-1]), rng_mode)
    jumps = mode_path.jump_times
    jumps = jumps[(jumps > base[0]) & (jumps < base[-1])]
    if len(jumps):
        mesh = np.union1d(base, jumps)
        base_step = i0 + np.searchsorted(base, mesh[:-1], side="right") - 1
    else:
        mesh = base
        base_step = np.arange(i0, i1)
    deltas = np.diff(mesh)
    dW = rng_w.standard_normal((len(deltas), model.noise_dim)) * np.sqrt(deltas)[:, None]
    return _Draw(mode_path, mesh, base_step, modes_on_grid(mode_path, mesh[:-1]), deltas, dW)


def _delay_lookups(delay, mesh, all_times):
    """Precompute (left index, weight) for the delayed read at each step start."""
    starts = mesh[:-1]
    t_d = starts - delay.delay_at(starts)
    if np.any(t_d < all_times[0] - 1e-9):
        raise OutOfRange("delayed read before the start of the stored history")
    t_d = np.clip(t_d, all_times[0], None)
    idx = np.searchsorted(all_times, t_d, side="right") - 1
    idx = np.clip(idx, 0, len(all_times) - 2)
    span = all_times[idx + 1] - all_times[idx]
    w = (t_d - all_times[idx]) / span
    # snap near-exact hits so aligned sawtooth reads use stored values
    snap = np.min(np.diff(all_times)) * GRID_SNAP
    lo = np.abs(t_d - all_times[idx]) <= snap
    hi = np.abs(all_times[idx + 1] - t_d) <= snap
    w[lo] = 0.0
    idx[hi] += 1
    w[hi] = 0.0
    return idx, w


def _increment(f, g, t, j, u, y, delta, dW):
    """Euler step u + f dt + g dW for a batch of paths in mode j."""
    rows, n = u.shape
    m = dW.shape[1]
    fv = np.asarray(f(t, j, u, y), dtype=float)
    gv = np.asarray(g(t, j, u, y), dtype=float)
    if fv.shape != (rows, n):
        fv = np.broadcast_to(fv, (rows, n))
    if gv.shape != (rows, n, m):
        gv = np.broadcast_to(gv, (rows, n, m))
    noise = gv[:, :, 0] * dW if m == 1 else np.matmul(gv, dW[:, :, None])[:, :, 0]
    return u + fv * delta + noise


def _slots(path, bstep):
    """Slot of each path step, given each step's path and base step (path-major).

    Base step i runs 1 + (the most jumps any path has inside step i) slots,
    and a path's r-th sub-step of base step i runs in slot r of step i.
    Returns (slot of each step, number of slots).
    """
    n = len(path)
    first = np.ones(n, dtype=bool)
    first[1:] = (path[1:] != path[:-1]) | (bstep[1:] != bstep[:-1])
    starts = np.flatnonzero(first)
    sub = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    b0 = int(bstep.min())
    width = np.zeros(int(bstep.max()) - b0 + 1, dtype=np.intp)
    jumped = sub > 0
    np.maximum.at(width, bstep[jumped] - b0, sub[jumped])
    slot_base = np.concatenate([[0], np.cumsum(width + 1)])
    return slot_base[bstep - b0] + sub, int(slot_base[-1])


class _Batch:
    """Paths integrated together by the lockstep engine.

    Node storage is one array: the state at the start of every path step
    (in slot order), then each path's initial-segment history, then each
    path's final state.  ``nodes`` lists, path by path, the storage row of
    each node of that path's own time sequence (history, mesh).
    """

    def __init__(self, model, cfg, draws, xis, path_indices):
        n = model.dim
        dt = cfg.dt
        delayed = model.delay.variant != "none"
        rho = model.delay.rho if delayed else 0.0
        kh = cfg.steps_per_rho if delayed else 0
        if delayed and abs(kh * dt - rho) > 1e-9 * rho:
            raise GridMismatch(f"dt={dt} * {kh} does not equal rho={rho}")
        P = len(draws)
        self.draws, self.rho, self.kh, self.dt = draws, rho, kh, dt
        self.i0 = [int(d.base_step[0]) for d in draws]  # base-grid index of each start

        lens = np.array([len(d.deltas) for d in draws])
        R = int(lens.sum())
        step_off = np.concatenate([[0], np.cumsum(lens)])
        node_off = np.concatenate([[0], np.cumsum(lens + kh + 1)])
        self.node_off = node_off
        store = np.empty((R + P * kh + P, n))
        U = np.empty((P, n))
        histories = {}
        lookups = []
        for q, (d, xi) in enumerate(zip(draws, xis)):
            key = (id(xi), self.i0[q])
            if key not in histories:
                if delayed:
                    histories[key] = _history_from_xi(xi, kh, rho, dt, self.i0[q], n)
                else:
                    x0 = xi.endpoint if isinstance(xi, SegmentGrid) else xi
                    histories[key] = (None, np.asarray(x0, dtype=float).reshape(1, n))
            hist_times, hist_vals = histories[key]
            store[R + q * kh:R + (q + 1) * kh] = hist_vals[:-1]
            U[q] = hist_vals[-1]
            if delayed:
                lookups.append(_delay_lookups(model.delay, d.mesh,
                                              np.concatenate([hist_times[:-1], d.mesh])))

        path = np.repeat(np.arange(P), lens)
        modes = np.concatenate([d.modes for d in draws])
        slot, n_slots = _slots(path, np.concatenate([d.base_step for d in draws]))
        last_slot = slot[step_off[1:] - 1]
        # slot-major rows; within a slot, the paths of each mode together
        order = np.lexsort((path, modes, slot))

        # node rows of each path's own sequence: history, mesh steps, final state
        to_row = np.empty(R, dtype=np.intp)
        to_row[order] = np.arange(R)
        nodes = np.empty(node_off[-1], dtype=np.intp)
        nodes[np.repeat(node_off[:-1] + kh - step_off[:-1], lens) + np.arange(R)] = to_row
        nodes[np.repeat(node_off[:-1], kh) + np.tile(np.arange(kh), P)] = R + np.arange(P * kh)
        nodes[node_off[1:] - 1] = R + P * kh + np.arange(P)
        self.nodes = nodes

        sorted_path = path[order]
        sorted_slot = slot[order]
        sorted_mode = modes[order]
        times = np.concatenate([d.mesh[:-1] for d in draws])[order][:, None]
        deltas = np.concatenate([d.deltas for d in draws])[order][:, None]
        dW = np.concatenate([d.dW for d in draws])[order]
        yrow = ywt = yrow2 = None
        if delayed:
            node_base = np.repeat(node_off[:-1], lens)
            idx = np.concatenate([lk[0] for lk in lookups])
            yrow = nodes[node_base + idx][order]
            ywt = np.concatenate([lk[1] for lk in lookups])[order]
            if np.any(ywt != 0.0):
                nxt = np.minimum(node_base + idx + 1, np.repeat(node_off[1:] - 1, lens))
                yrow2 = nodes[nxt][order]

        bounds = np.searchsorted(sorted_slot, np.arange(n_slots + 1))
        group = np.ones(R, dtype=bool)
        group[1:] = (sorted_slot[1:] != sorted_slot[:-1]) | (sorted_mode[1:] != sorted_mode[:-1])
        gstart = np.flatnonzero(group)
        gfirst = np.searchsorted(sorted_slot[gstart], np.arange(n_slots + 1))
        gbounds = np.append(gstart, R)
        full = (np.diff(bounds) == P) & (np.diff(gfirst) == 1)

        f, g = model.drift, model.diffusion
        guard = cfg.blowup_guard
        failed = {}
        stop = n_slots
        bounds, gfirst, gbounds = bounds.tolist(), gfirst.tolist(), gbounds.tolist()
        gmode = sorted_mode[gstart].tolist()
        full = full.tolist()
        for sl in range(n_slots):
            if sl > stop:
                break
            r0, r1 = bounds[sl], bounds[sl + 1]
            pa = None if full[sl] else sorted_path[r0:r1]
            u = U if pa is None else U[pa]
            store[r0:r1] = u
            if yrow is None:
                y = u
            else:
                y = store[yrow[r0:r1]]
                if yrow2 is not None:
                    w = ywt[r0:r1]
                    mix = w != 0.0
                    if mix.any():
                        wm = w[mix][:, None]
                        y[mix] = (1.0 - wm) * y[mix] + wm * store[yrow2[r0:r1][mix]]
            g0, g1 = gfirst[sl], gfirst[sl + 1]
            if g1 - g0 == 1:
                new = _increment(f, g, times[r0:r1], gmode[g0], u, y, deltas[r0:r1], dW[r0:r1])
            else:
                new = np.empty_like(u)
                for gi in range(g0, g1):
                    a, b = gbounds[gi], gbounds[gi + 1]
                    ra, rb = a - r0, b - r0
                    new[ra:rb] = _increment(f, g, times[a:b], gmode[gi], u[ra:rb], y[ra:rb],
                                            deltas[a:b], dW[a:b])
            if not np.abs(new).max() <= guard:
                stop = self._fail(new, r0, sorted_path, order, step_off, path_indices,
                                  guard, failed, last_slot)
            if pa is None:
                U = new
            else:
                U[pa] = new
        if failed:
            raise failed[min(failed)]
        store[R + P * kh:] = U
        self.store = store

    def _fail(self, new, r0, sorted_path, order, step_off, path_indices, guard, failed,
              last_slot):
        """Record each path that leaves the guard in this slot; returns the last slot
        still needed.  The reported failure is the first path's, as if the paths had
        run one after another."""
        mag = np.abs(new).max(axis=1)
        bad = ~(mag <= guard)
        for i in np.flatnonzero(bad):
            q = int(sorted_path[r0 + i])
            if q in failed:
                continue
            d = self.draws[q]
            t = d.mesh[int(order[r0 + i]) - int(step_off[q]) + 1]
            if not np.all(np.isfinite(new[i])):
                failed[q] = NonFiniteCoefficient(
                    f"non-finite state at t={t:.6g} (path {path_indices[q]})")
            else:
                failed[q] = Blowup(t, path_indices[q], float(mag[i]))
        new[bad] = 0.0  # a failed path's later values are never read
        first = min(failed)
        return int(last_slot[:first].max()) if first else -1

    def trajectory(self, q, start_time):
        d = self.draws[q]
        times = d.mesh
        if self.kh:
            times = np.concatenate([np.arange(self.i0[q] - self.kh, self.i0[q]) * self.dt, times])
        states = self.store[self.nodes[self.node_off[q]:self.node_off[q + 1]]]
        return Trajectory(times=times, states=states, mode_path=d.mode_path,
                          model_rho=self.rho, start_time=start_time)


def integrate(m, s, xi, j0, t_end, cfg):
    """Integrate one path (``cfg.path_index``) of the model from (s, xi, j0) to t_end.

    xi is either a SegmentGrid on [-rho, 0] or a constant initial value
    (replicated over the history window).
    """
    return next(integrate_paths(m, [(s, xi, cfg.path_index)], j0, t_end, cfg))


def integrate_paths(m, jobs, j0, t_end, cfg):
    """Trajectories of the paths ``jobs`` = [(s, xi, path_index), ...] to t_end, in order.

    The paths run in lockstep, each from its own start time; a long
    ensemble runs in consecutive chunks of paths so that memory stays
    bounded.  Each distinct (s, path_index) is drawn once and its draw is
    kept only until its last job, so jobs that share it see the same mode
    path and Wiener increments.  A path that leaves the blow-up guard
    raises the error the first such path in ``jobs`` order would raise on
    its own.
    """
    jobs = list(jobs)
    uses = Counter((s, path_index) for s, _, path_index in jobs)
    shared = {}
    pending = []
    rows = 0
    for s, xi, path_index in jobs:
        key = (s, path_index)
        d = shared.pop(key, None)
        if d is None:
            d = _draw(m, s, t_end, j0, cfg, path_index)
        uses[key] -= 1
        if uses[key]:
            shared[key] = d
        pending.append((s, xi, path_index, d))
        rows += len(d.deltas)
        if rows >= ROW_BUDGET:
            yield from _trajectories(m, cfg, pending)
            pending, rows = [], 0
    if pending:
        yield from _trajectories(m, cfg, pending)


def _trajectories(m, cfg, pending):
    starts, xis, indices, draws = zip(*pending)
    batch = _Batch(m, cfg, draws, xis, indices)
    for q, s in enumerate(starts):
        yield batch.trajectory(q, s)


def segment_at(tr, t):
    """Resample the history window [t - rho, t] of a trajectory as a SegmentGrid."""
    rho = tr.model_rho
    if rho <= 0.0:
        raise OutOfRange("trajectory has no delay window; use the endpoint directly")
    if t - rho < tr.times[0] - 1e-9 or t > tr.times[-1] + 1e-9:
        raise OutOfRange(f"segment [{t - rho}, {t}] not covered by [{tr.times[0]}, {tr.times[-1]}]")
    dt_min = np.min(np.diff(tr.times))
    m_steps = round(rho / (tr.times[1] - tr.times[0])) if len(tr.times) > 1 else 1
    grid = np.linspace(t - rho, t, m_steps + 1)
    idx = np.searchsorted(tr.times, grid, side="right") - 1
    idx = np.clip(idx, 0, len(tr.times) - 2)
    span = tr.times[idx + 1] - tr.times[idx]
    w = (grid - tr.times[idx]) / span
    snap = dt_min * GRID_SNAP
    w[np.abs(grid - tr.times[idx]) <= snap] = 0.0
    hi = np.abs(tr.times[idx + 1] - grid) <= snap
    idx[hi] += 1
    w[hi] = 0.0
    nxt = np.minimum(idx + 1, len(tr.times) - 1)
    vals = (1.0 - w)[:, None] * tr.states[idx] + w[:, None] * tr.states[nxt]
    return SegmentGrid(rho=rho, values=vals, mode=mode_at(tr.mode_path, t))


def integrate_ensemble(m, s, xi, j0, t_end, cfg, n_paths):
    """Endpoints of n_paths i.i.d. paths (path indices 0..n_paths-1) as an (n_paths, n) array."""
    ends = np.empty((n_paths, m.dim))
    jobs = ((s, xi, p) for p in range(n_paths))
    for p, tr in enumerate(integrate_paths(m, jobs, j0, t_end, cfg)):
        ends[p] = tr.states[-1]
    return ends
