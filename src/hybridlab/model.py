"""Hybrid delay SDE models and numerical assumption checkers.

A model bundles drift f(t, j, x, y) and diffusion g(t, j, x, y) with a
delay specification and a switching generator.  The y argument is the
state read back at the delayed time t - rho0(t).  Coefficients are
batched: the integrator passes a batch of P paths in mode j, x and y of
shape (P, n) and t a (P, 1) column.  Controlled models add
a per-mode linear feedback gain applied to the last sampled observation
(sawtooth delay).

The Lipschitz and boundedness checks are sampled diagnostics, not
certificates: they probe random points and report the worst quotient
seen.  Dissipativity is certified exactly for linear coefficients via
an eigenvalue test, and diagnosed by sampling otherwise.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteCoefficient, NotSPD, ShapeMismatch, ValidationError
from .switching import Generator


def sawtooth_delay(t, rho):
    """Elapsed time since the last observation instant: t - floor(t/rho)*rho.

    Uses floor (not truncation), so negative t is handled correctly.
    Accepts a scalar or an array of times.  When t/rho rounds up onto an
    integer (t=1.9, rho=0.01) the difference is a rounding-sized negative;
    it is clamped to 0 so the delayed read never lies after t.
    """
    return np.maximum(t - np.floor(t / rho) * rho, 0.0)


@dataclass(frozen=True)
class DelaySpec:
    """Delay law rho0(t) with 0 <= rho0(t) <= rho."""

    variant: str  # "none" | "constant" | "sawtooth" | "tabulated"
    rho: float = 0.0
    table_times: Optional[np.ndarray] = None
    table_values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.variant not in ("none", "constant", "sawtooth", "tabulated"):
            raise ValidationError(f"unknown delay variant {self.variant!r}")
        if self.variant == "none":
            if self.rho != 0.0:
                raise ValidationError("delay variant 'none' requires rho = 0")
        elif not 0.0 < self.rho <= 1.0:
            raise ValidationError(f"rho={self.rho} must lie in (0, 1]")
        if self.variant == "tabulated":
            tt = np.asarray(self.table_times, dtype=float)
            tv = np.asarray(self.table_values, dtype=float)
            if tt.shape != tv.shape or tt.ndim != 1 or tt.size < 2:
                raise ValidationError("tabulated delay needs matching 1-d sample arrays")
            if np.any(tv < 0) or np.any(tv > self.rho):
                raise ValidationError("tabulated delay values must lie in [0, rho]")
            object.__setattr__(self, "table_times", tt)
            object.__setattr__(self, "table_values", tv)

    def delay_at(self, t):
        """rho0(t) for a scalar or an array of times."""
        if self.variant == "none":
            return np.zeros_like(t, dtype=float)
        if self.variant == "constant":
            return np.full_like(t, self.rho, dtype=float)
        if self.variant == "sawtooth":
            return sawtooth_delay(t, self.rho)
        return np.interp(t, self.table_times, self.table_values)


@dataclass(frozen=True)
class HybridDelayModel:
    """Drift/diffusion contracts with delay and switching structure.

    drift(t, j, x, y) -> (P, n) and diffusion(t, j, x, y) -> (P, n, m) must
    be pure functions of a batch of P paths in mode j: x and y have shape
    (P, n) and t is a (P, 1) column of the paths' times.  Results that
    broadcast to those shapes (a constant, say) are accepted.
    """

    dim: int
    noise_dim: int
    drift: Callable
    diffusion: Callable
    delay: DelaySpec
    generator: Generator


@dataclass(frozen=True)
class ControlledModelSpec:
    """Uncontrolled coefficients plus sampled-observation feedback gains."""

    dim: int
    noise_dim: int
    h: Callable  # (j, x) -> R^n
    sigma: Callable  # (j, x) -> R^{n x m}
    gains: Sequence[np.ndarray]  # one n x n matrix per mode
    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValidationError(f"observation interval rho={self.rho} must lie in (0, 1]")
        gains = tuple(np.asarray(a, dtype=float) for a in self.gains)
        for a in gains:
            if a.shape != (self.dim, self.dim):
                raise ShapeMismatch(f"gain shape {a.shape} != ({self.dim}, {self.dim})")
        object.__setattr__(self, "gains", gains)


@dataclass(frozen=True)
class DissipativityCertificate:
    """Contraction certificate: weighting matrices and margin beta."""

    Q: tuple
    beta: float
    verified_on: str


@dataclass(frozen=True)
class DissipativityOutcome:
    """Result of the linear eigenvalue test; refutation names the bad mode."""

    certified: bool
    beta: float
    worst_mode: int
    certificate: Optional[DissipativityCertificate] = None


def _probe_shapes(spec, g):
    x0 = np.zeros(spec.dim)
    for j in range(1, g.n_states + 1):
        hv = np.asarray(spec.h(j, x0), dtype=float)
        if hv.reshape(-1).shape != (spec.dim,):
            raise ShapeMismatch(f"h({j}, 0) has shape {hv.shape}, expected ({spec.dim},)")
        sv = np.asarray(spec.sigma(j, x0), dtype=float)
        if sv.reshape(-1).shape != (spec.dim * spec.noise_dim,):
            raise ShapeMismatch(
                f"sigma({j}, 0) has shape {sv.shape}, expected ({spec.dim}, {spec.noise_dim})"
            )
    if len(spec.gains) != g.n_states:
        raise ShapeMismatch(f"{len(spec.gains)} gain matrices for {g.n_states} modes")


def build_controlled_model(spec, g):
    """Assemble the sampled-feedback model: drift h(j,x) + A(j) y, sawtooth delay."""
    _probe_shapes(spec, g)
    gains = spec.gains

    def drift(t, j, x, y):
        return np.asarray(spec.h(j, x), dtype=float) + y @ gains[j - 1].T

    def diffusion(t, j, x, y):
        return np.asarray(spec.sigma(j, x), dtype=float)

    return HybridDelayModel(
        dim=spec.dim,
        noise_dim=spec.noise_dim,
        drift=drift,
        diffusion=diffusion,
        delay=DelaySpec(variant="sawtooth", rho=spec.rho),
        generator=g,
    )


def build_delay_free_model(spec, g):
    """Continuous-observation companion: drift h(j,x) + A(j) x, no delay."""
    _probe_shapes(spec, g)
    gains = spec.gains

    def drift(t, j, x, y):
        return np.asarray(spec.h(j, x), dtype=float) + x @ gains[j - 1].T

    def diffusion(t, j, x, y):
        return np.asarray(spec.sigma(j, x), dtype=float)

    return HybridDelayModel(
        dim=spec.dim,
        noise_dim=spec.noise_dim,
        drift=drift,
        diffusion=diffusion,
        delay=DelaySpec(variant="none", rho=0.0),
        generator=g,
    )


def _eval_probes(fn, t, modes, x, y, shape):
    """fn at every probe (t[i], modes[i], x[i], y[i]) as a (P,) + shape array.

    The probes are evaluated to the batched contract, one call per mode
    with t a (P_j, 1) column and x, y of shape (P_j, n).  A result with
    another number of entries (a constant, say) is broadcast.
    """
    out = np.empty((len(modes),) + shape)
    for j in np.unique(modes):
        sel = modes == j
        rows = (int(sel.sum()),) + shape
        v = np.asarray(fn(t[sel], int(j), x[sel], y[sel]), dtype=float)
        out[sel] = v.reshape(rows) if v.size == np.prod(rows) else np.broadcast_to(v, rows)
    bad = ~np.isfinite(out.reshape(len(modes), -1)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteCoefficient(
            f"non-finite coefficient at t={t[i, 0]}, j={modes[i]}, x={x[i]}, y={y[i]}")
    return out


def _probe_gap(fn, t, modes, a, b, shape):
    """fn(t, j, *a) - fn(t, j, *b) at every probe, for (x, y) pairs a and b."""
    return _eval_probes(fn, t, modes, *a, shape) - _eval_probes(fn, t, modes, *b, shape)


def _draw_probes(rng, probe_count, t_span, n_modes, points, n, box_radius):
    """Per probe, in this order: t, mode, then ``points`` vectors in the box."""
    t = np.empty((probe_count, 1))
    modes = np.empty(probe_count, dtype=int)
    pts = np.empty((points, probe_count, n))
    for i in range(probe_count):
        t[i] = rng.uniform(-t_span, t_span)
        modes[i] = rng.integers(1, n_modes + 1)
        for k in range(points):
            pts[k, i] = rng.uniform(-box_radius, box_radius, size=n)
    return t, modes, pts


def _row_norms(v):
    return np.linalg.norm(v.reshape(len(v), -1), axis=1)


def check_lipschitz_sampled(m, probe_count, box_radius, rng, t_span=10.0):
    """Monte-Carlo lower estimate of the Lipschitz constants of f and g.

    Maximizes |f(t,j,x1,y1) - f(t,j,x2,y2)| / (|x1-x2| + |y1-y2|) over
    random probes in a box.  A diagnostic, not a certificate.
    """
    if probe_count < 100:
        raise ValidationError("probe_count must be at least 100")
    n, mm = m.dim, m.noise_dim
    t, modes, (x1, x2, y1, y2) = _draw_probes(rng, probe_count, t_span, m.generator.n_states,
                                              4, n, box_radius)
    denom = _row_norms(x1 - x2) + _row_norms(y1 - y2)
    keep = denom >= 1e-12
    if not keep.any():
        return 0.0, 0.0
    t, modes, x1, x2, y1, y2, denom = (a[keep] for a in (t, modes, x1, x2, y1, y2, denom))
    df = _probe_gap(m.drift, t, modes, (x1, y1), (x2, y2), (n,))
    dg = _probe_gap(m.diffusion, t, modes, (x1, y1), (x2, y2), (n, mm))
    best_f = max(0.0, float(np.max(_row_norms(df) / denom)))
    best_g = max(0.0, float(np.max(_row_norms(dg) / denom)))
    return best_f, best_g


def check_bounded_at_zero(m, t_grid):
    """Per-mode sup over the grid of |f(t,j,0,0)| and |g(t,j,0,0)|."""
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if t_grid.size == 0:
        raise ValidationError("t_grid must be nonempty")
    n_modes = m.generator.n_states
    t = np.tile(t_grid, n_modes)[:, None]
    modes = np.repeat(np.arange(1, n_modes + 1), t_grid.size)
    zero = np.zeros((len(modes), m.dim))
    sup_f, sup_g = (_row_norms(_eval_probes(fn, t, modes, zero, zero, shape))
                    .reshape(n_modes, -1).max(axis=1)
                    for fn, shape in ((m.drift, (m.dim,)), (m.diffusion, (m.dim, m.noise_dim))))
    return {j: (float(sup_f[j - 1]), float(sup_g[j - 1])) for j in range(1, n_modes + 1)}


def _check_spd(Q):
    for q in Q:
        q = np.asarray(q, dtype=float)
        if not np.allclose(q, q.T, atol=1e-10):
            raise NotSPD("weighting matrix not symmetric")
        if np.min(np.linalg.eigvalsh(q)) <= 0:
            raise NotSPD("weighting matrix not positive definite")


def check_dissipativity_linear(F, A, G, g, Q):
    """Eigenvalue test of the contraction condition for linear coefficients.

    For drift (F_j + A_j) x and diffusion columns G_{j,l} x forms, per mode,
        M_j = Q_j (F_j + A_j) + (F_j + A_j)^T Q_j
              + sum_l G_{j,l}^T Q_j G_{j,l} + sum_i gamma_ji Q_i
    and certifies beta = -max_j lambda_max(M_j) when that value is positive.
    """
    F = [np.asarray(x, dtype=float) for x in F]
    A = [np.asarray(x, dtype=float) for x in A]
    G = [[np.asarray(c, dtype=float) for c in cols] for cols in G]
    Q = [np.asarray(q, dtype=float) for q in Q]
    n_modes = g.rates.shape[0]
    if not len(F) == len(A) == len(G) == len(Q) == n_modes:
        raise ShapeMismatch("need one F, A, G, Q entry per mode")
    _check_spd(Q)
    worst = -np.inf
    worst_mode = 1
    for j in range(n_modes):
        closed = F[j] + A[j]
        M = Q[j] @ closed + closed.T @ Q[j]
        for col in G[j]:
            M = M + col.T @ Q[j] @ col
        for i in range(n_modes):
            M = M + g.rates[j, i] * Q[i]
        lam = float(np.max(np.linalg.eigvalsh(0.5 * (M + M.T))))
        if lam > worst:
            worst = lam
            worst_mode = j + 1
    beta = -worst
    if beta > 0:
        cert = DissipativityCertificate(Q=tuple(Q), beta=beta, verified_on="analytic-linear")
        return DissipativityOutcome(True, beta, worst_mode, cert)
    return DissipativityOutcome(False, beta, worst_mode, None)


def check_dissipativity_sampled(m, Q, probe_count, box_radius, rng, t_span=10.0):
    """Worst-case contraction margin over random probes.

    Evaluates the left side of the dissipativity inequality with drift
    arguments (j, x, x) and (j, y, y), and returns min over probes of
    -LHS / |x - y|^2.  Probes with |x - y| < 1e-12 are skipped.
    """
    if probe_count < 100:
        raise ValidationError("probe_count must be at least 100")
    Q = [np.asarray(q, dtype=float) for q in Q]
    _check_spd(Q)
    n, mm = m.dim, m.noise_dim
    rates = m.generator.rates
    t, modes, (x, y) = _draw_probes(rng, probe_count, t_span, rates.shape[0], 2, n, box_radius)
    z = x - y
    zz = np.sum(z * z, axis=1)
    keep = zz >= 1e-24
    if not keep.any():
        return np.inf
    t, modes, x, y, z, zz = (a[keep] for a in (t, modes, x, y, z, zz))
    df = _probe_gap(m.drift, t, modes, (x, x), (y, y), (n,))
    dg = _probe_gap(m.diffusion, t, modes, (x, x), (y, y), (n, mm))
    Qj = np.stack(Q)[modes - 1]
    zQ = np.matmul(z[:, None, :], Qj)[:, 0]
    lhs = 2.0 * np.sum(zQ * df, axis=1)
    lhs = lhs + np.trace(np.swapaxes(dg, 1, 2) @ Qj @ dg, axis1=1, axis2=2)
    for i, q in enumerate(Q):
        lhs += rates[modes - 1, i] * np.sum((z @ q) * z, axis=1)
    return float(np.min(-lhs / zz))


def _cubic_drift(t, j, x, y):
    return -x**3 - x


def _zero_diffusion_1d(t, j, x, y):
    return np.zeros(np.shape(x) + (1,))


def _ou_drift(t, j, x, y):
    return -x


def _unit_diffusion_1d(t, j, x, y):
    return np.ones(np.shape(x) + (1,))


#: Named nonlinear benchmark coefficients selectable from scenario configs.
COEFFICIENT_REGISTRY = {
    "cubic": {"drift": _cubic_drift, "diffusion": _zero_diffusion_1d,
              "dim": 1, "noise_dim": 1},
    "ou": {"drift": _ou_drift, "diffusion": _unit_diffusion_1d,
           "dim": 1, "noise_dim": 1},
}


def registry_model(name, generator, delay=None):
    """Build a HybridDelayModel from a named benchmark coefficient set."""
    if name not in COEFFICIENT_REGISTRY:
        raise ValidationError(f"unknown registry coefficient {name!r}")
    entry = COEFFICIENT_REGISTRY[name]
    return HybridDelayModel(
        dim=entry["dim"],
        noise_dim=entry["noise_dim"],
        drift=entry["drift"],
        diffusion=entry["diffusion"],
        delay=delay if delay is not None else DelaySpec(variant="none"),
        generator=generator,
    )
