"""Empirical measures on segment space and the bounded-Lipschitz metric.

An empirical measure is a finite weighted set of atoms: history segments
paired with a mode ("H" variant), or plain state/mode pairs ("H0"
variant, used for the zero-delay limit).  The bounded-Lipschitz (BL)
distance between two such measures is computed exactly, after supports
larger than ``atom_cap`` are subsampled, in one of two forms:

- Two uniform measures of the same size (the suite case: subsampling
  returns ``atom_cap`` uniform atoms) take the transport form.  By
  Kantorovich-Rubinstein duality BL is the maximum over lam in [0, 1] of
  the W1 distance under the ground cost min(lam d, 2 (1 - lam)); each W1
  is one assignment problem, and the maximum over lam, of a concave
  piecewise-linear function, is found by cutting planes.  The search
  stops only when its upper bound is within BL_CERT_TOL of the value it
  returns, so the error is certified; a search not certified within
  BL_MAX_CUTS cuts gives way to the LP.
- Every other pair takes a linear program on the pooled support, over
  test-function values a_i with |a_i| <= c, pairwise slopes bounded by
  L, and c + L <= 1.

Both compute the same supremum: a function on the pooled support with
those bounds extends to the whole space with the same bounds, so the LP
is the BL distance, and the duality above turns it into transport.  The
LP's value is exact up to the solver's tolerances (it differed from the
transport form by up to 1.7e-9 on laws close to point masses).
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GridMismatch, LPFailure, NonFiniteCoefficient, ValidationError
from .simulate import SegmentGrid, integrate_paths, segment_at
from .switching import make_stream, mode_at

WEIGHT_TOL = 1e-12
DEFAULT_ATOM_CAP = 400
BL_CERT_TOL = 1e-12  # gap between the transport form's upper bound and its returned value
BL_MAX_CUTS = 64  # cuts after which an uncertified transport solve gives way to the LP
KB_START_STREAM = 2**62  # stream index reserved for lookback start-time draws


@dataclass(frozen=True)
class MetricSpec:
    """Distance choices: mode label difference (default) or discrete flag."""

    mode_metric: str = "label"  # "label" -> |j1 - j2|, "discrete" -> 1_{j1 != j2}


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted finite collection of atoms on H or on R^n x S."""

    points: tuple
    weights: np.ndarray
    space_tag: str  # "H" | "H0"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValidationError("weights must be positive and sum to 1")
        if len(self.points) != len(w):
            raise ValidationError("points and weights length mismatch")
        object.__setattr__(self, "weights", w)
        if self.space_tag == "H":
            shapes = {(p.values.shape, round(p.rho, 12)) for p in self.points}
            if len(shapes) > 1:
                raise GridMismatch("H atoms must share rho and grid resolution")
        elif self.space_tag != "H0":
            raise ValidationError(f"unknown space tag {self.space_tag!r}")

    @classmethod
    def from_segments(cls, segments, weights=None):
        n = len(segments)
        w = np.full(n, 1.0 / n) if weights is None else weights
        return cls(points=tuple(segments), weights=w, space_tag="H")

    @classmethod
    def from_state_points(cls, points, weights=None):
        pts = tuple((np.asarray(x, dtype=float).reshape(-1), int(j)) for x, j in points)
        n = len(pts)
        w = np.full(n, 1.0 / n) if weights is None else weights
        return cls(points=pts, weights=w, space_tag="H0")


def _atom_arrays(points, space_tag):
    """(values, modes) of a tuple of atoms: (n, m+1, d) segments for H, (n, d) for H0."""
    if space_tag == "H":
        return (np.stack([p.values for p in points]),
                np.array([p.mode for p in points], dtype=float))
    return np.stack([p[0] for p in points]), np.array([p[1] for p in points], dtype=float)


def _distances(a, b, space_tag, spec):
    """Distances between every atom of ``a`` and every atom of ``b``, (len(a), len(b)).

    The state term is the Euclidean gap, its sup over segment nodes for H atoms; the
    mode term is |j1 - j2| ("label") or 1_{j1 != j2} ("discrete").
    """
    va, ma = _atom_arrays(a, space_tag)
    vb, mb = _atom_arrays(b, space_tag)
    state = np.linalg.norm(va[:, None] - vb[None, :], axis=-1)
    if space_tag == "H":
        state = np.max(state, axis=-1)
    if spec.mode_metric == "label":
        md = np.abs(ma[:, None] - mb[None, :])
    else:
        md = (ma[:, None] != mb[None, :]).astype(float)
    return state + md


def h_distance(a, b, spec):
    """Distance between two H points: sup-norm of the segment gap plus mode term."""
    if a.values.shape != b.values.shape or abs(a.rho - b.rho) > 1e-12:
        raise GridMismatch("segments live on different grids")
    return float(_distances((a,), (b,), "H", spec)[0, 0])


def _subsample(points, weights, cap, seed):
    if len(points) <= cap:
        return points, weights
    rng = make_stream(seed, len(points))
    idx = rng.choice(len(points), size=cap, p=weights)
    return tuple(points[i] for i in idx), np.full(cap, 1.0 / cap)


def _measure_key(mu):
    if mu.space_tag == "H":
        body = b"".join(p.values.tobytes() + p.mode.to_bytes(4, "little", signed=True)
                        for p in mu.points)
    else:
        body = b"".join(p[0].tobytes() + p[1].to_bytes(4, "little", signed=True)
                        for p in mu.points)
    return mu.weights.tobytes() + body


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first solve: scipy's import is most of
    the start-up time of a command that solves no LP."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _envelope_peak(c, s):
    """(lam, value) maximising min_k (c_k + s_k lam) over lam in [0, 1].

    The maximum of that concave piecewise-linear function lies at 0, at 1 or where
    two of the lines cross.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (c[None, :] - c[:, None]) / (s[:, None] - s[None, :])
    lam = np.concatenate([[0.0, 1.0], cross[(cross > 0.0) & (cross < 1.0)]])
    env = np.min(c[None, :] + s[None, :] * lam[:, None], axis=1)
    k = int(np.argmax(env))
    return float(lam[k]), float(env[k])


def _bl_transport(D):
    """BL between the uniform measures on the rows and on the columns of the n x n
    cross distances D, or None when BL_MAX_CUTS cuts do not certify it.

    BL = max over lam in [0, 1] of g(lam), the W1 distance under the ground cost
    min(lam d, 2 (1 - lam)).  Between uniform measures of equal size an optimal plan
    is a permutation (Birkhoff), so g(lam) is one assignment.  g is concave and
    piecewise linear: it is the least, over permutations, of the mean cost of one
    permutation, and the piece of an optimal permutation at lam is a cut
    g(x) <= g(lam) + slope (x - lam).  Kelley's method evaluates g where the lower
    envelope of the cuts peaks; that peak bounds BL from above, so the best value
    seen is within BL_CERT_TOL of BL when the loop stops.
    """
    from scipy.optimize import linear_sum_assignment

    n = D.shape[0]
    # g(0) = 0, and for small lam a plan optimal under d stays optimal, so the
    # first cut has slope W1 under d; every plan costs at most 2 (1 - lam)
    rows, cols = linear_sum_assignment(D)
    intercepts = [0.0, 2.0]
    slopes = [float(D[rows, cols].sum()) / n, -2.0]
    best = 0.0
    for _ in range(BL_MAX_CUTS):
        lam, peak = _envelope_peak(np.array(intercepts), np.array(slopes))
        if peak - best <= BL_CERT_TOL:
            return best
        capped = 2.0 * (1.0 - lam)
        cost = np.minimum(lam * D, capped)
        rows, cols = linear_sum_assignment(cost)
        value = float(cost[rows, cols].sum()) / n
        d = D[rows, cols]
        slope = float(np.where(lam * d < capped, d, -2.0).sum()) / n
        best = max(best, value)
        intercepts.append(value - slope * lam)
        slopes.append(slope)
    return None


def _bl_lp(points, delta, space_tag, spec):
    """BL by the dual LP over the pooled support ``points`` with signed weights ``delta``.

    Solves max sum_i a_i delta_i subject to |a_i| <= c, |a_i - a_k| <= L d(x_i, x_k),
    c + L <= 1.
    """
    n = len(points)
    D = _distances(points, points, space_tag, spec)
    iu, ku = np.triu_indices(n, k=1)
    npairs = len(iu)
    # variables: a_0..a_{n-1}, c, L
    rows_bound = 2 * n
    rows = rows_bound + 2 * npairs + 1
    r_idx = []
    c_idx = []
    data = []
    ar = np.arange(n)
    # a_i - c <= 0 ; -a_i - c <= 0
    r_idx.append(np.concatenate([ar, ar, n + ar, n + ar]))
    c_idx.append(np.concatenate([ar, np.full(n, n), ar, np.full(n, n)]))
    data.append(np.concatenate([np.ones(n), -np.ones(n), -np.ones(n), -np.ones(n)]))
    # a_i - a_k - L d <= 0 and a_k - a_i - L d <= 0
    base = rows_bound + np.arange(npairs)
    dvals = D[iu, ku]
    r_idx.append(np.concatenate([base, base, base]))
    c_idx.append(np.concatenate([iu, ku, np.full(npairs, n + 1)]))
    data.append(np.concatenate([np.ones(npairs), -np.ones(npairs), -dvals]))
    base2 = rows_bound + npairs + np.arange(npairs)
    r_idx.append(np.concatenate([base2, base2, base2]))
    c_idx.append(np.concatenate([ku, iu, np.full(npairs, n + 1)]))
    data.append(np.concatenate([np.ones(npairs), -np.ones(npairs), -dvals]))
    # c + L <= 1
    r_idx.append(np.array([rows - 1, rows - 1]))
    c_idx.append(np.array([n, n + 1]))
    data.append(np.array([1.0, 1.0]))
    from scipy import sparse

    A = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(r_idx), np.concatenate(c_idx))),
        shape=(rows, n + 2),
    )
    b = np.zeros(rows)
    b[-1] = 1.0
    cost = np.concatenate([-delta, [0.0, 0.0]])
    bounds = [(None, None)] * n + [(0.0, None), (0.0, None)]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise LPFailure(f"LP failed with status {res.status}: {res.message}")
    return max(0.0, -float(res.fun))


def bl_distance(mu1, mu2, spec, atom_cap=DEFAULT_ATOM_CAP, subsample_seed=0):
    """Exact dual bounded-Lipschitz distance between two finite-support measures.

    BL = sup of sum f (w1 - w2) over test functions with |f| <= c, Lipschitz
    constant L and c + L <= 1.  Supports larger than atom_cap are i.i.d.-subsampled
    first.  Two uniform measures of the same size are then solved in transport form
    (``_bl_transport``); any other pair, or a transport solve that is not certified
    within BL_MAX_CUTS cuts, by the LP over the pooled support (``_bl_lp``).  The
    call is symmetric by construction (arguments are canonically ordered first).
    """
    if mu1.space_tag != mu2.space_tag:
        raise GridMismatch("measures live on different spaces")
    if _measure_key(mu1) > _measure_key(mu2):
        mu1, mu2 = mu2, mu1
    p1, w1 = _subsample(mu1.points, mu1.weights, atom_cap, subsample_seed)
    p2, w2 = _subsample(mu2.points, mu2.weights, atom_cap, subsample_seed + 1)
    if len(w1) == len(w2) and np.all(w1 == w1[0]) and np.all(w2 == w2[0]):
        value = _bl_transport(_distances(p1, p2, mu1.space_tag, spec))
        if value is not None:
            return value
    return _bl_lp(tuple(p1) + tuple(p2), np.concatenate([w1, -w2]), mu1.space_tag, spec)


def _atoms_at(m, jobs, j0, t, cfg):
    """Empirical measure of the paths ``jobs`` at time t, uniform over paths.

    Atoms are (segment, mode) pairs when the model has a delay, and
    (endpoint, mode) pairs otherwise.
    """
    paths = integrate_paths(m, jobs, j0, t, cfg)
    if m.delay.variant != "none":
        return EmpiricalMeasure.from_segments([segment_at(tr, t) for tr in paths])
    return EmpiricalMeasure.from_state_points(
        [(tr.states[-1], mode_at(tr.mode_path, t)) for tr in paths])


def ensemble_at(m, s, xi, j0, t, M, cfg):
    """Uniform empirical measure of M i.i.d. path states at time t.

    Atoms are (segment, mode) pairs when the model has a delay, and
    (endpoint, mode) pairs otherwise.
    """
    if M < 1:
        raise ValidationError("M must be >= 1")
    if m.delay.variant != "none" and t < s + m.delay.rho:
        raise ValidationError(f"t={t} must be at least s + rho = {s + m.delay.rho}")
    return _atoms_at(m, [(s, xi, p) for p in range(M)], j0, t, cfg)


def kb_average(m, xi, j0, t, n, starts, paths_per_start, cfg):
    """Lookback time average of transition laws, as a pooled empirical measure.

    Start times are drawn uniformly on [-n, t - rho] (snapped to the
    integration grid) so the time integral is estimated without aliasing
    against periodic structure; each start contributes paths_per_start
    independent paths.  All paths share one grid, each inactive before
    its start.
    """
    if starts < 1:
        raise ValidationError("starts must be >= 1")
    rho = m.delay.rho if m.delay.variant != "none" else 0.0
    if t - rho <= -n:
        raise ValidationError("lookback too short: need t - rho > -n")
    rng = make_stream(cfg.seed, KB_START_STREAM)
    raw = rng.uniform(-n, t - rho, size=starts)
    taus = np.round(raw / cfg.dt) * cfg.dt
    taus = np.clip(taus, None, t - rho if rho > 0 else t - cfg.dt)
    jobs = [(round(tau / cfg.dt) * cfg.dt, xi, i * paths_per_start + p)
            for i, tau in enumerate(taus) for p in range(paths_per_start)]
    return _atoms_at(m, jobs, j0, t, cfg)


def project_T(mu):
    """Push an H measure forward to R^n x S via (segment, mode) -> (segment(0), mode).

    Atoms with identical images are merged with summed weight.
    """
    if mu.space_tag != "H":
        raise ValidationError("project_T expects an H-variant measure")
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
    w = w / w.sum()
    return EmpiricalMeasure.from_state_points(pts, weights=w)


def restrict(xi_full, rho, num_points=None):
    """Restrict a segment on [-1, 0] to [-rho, 0], resampled to num_points nodes."""
    if not 0.0 < rho <= 1.0:
        raise ValidationError(f"rho={rho} must lie in (0, 1]")
    if abs(xi_full.rho - 1.0) > 1e-12:
        raise GridMismatch("restriction expects a segment on [-1, 0]")
    m = (len(xi_full.values) - 1) if num_points is None else (num_points - 1)
    old = np.linspace(-1.0, 0.0, len(xi_full.values))
    new = np.linspace(-rho, 0.0, m + 1)
    cols = [np.interp(new, old, xi_full.values[:, c]) for c in range(xi_full.values.shape[1])]
    return SegmentGrid(rho=rho, values=np.stack(cols, axis=1), mode=xi_full.mode)


def integrate_functional(mu, phi):
    """Expectation of a bounded functional under the empirical measure."""
    total = 0.0
    for p, w in zip(mu.points, mu.weights):
        v = float(phi(p))
        if not np.isfinite(v):
            raise NonFiniteCoefficient("functional returned a non-finite value")
        total += w * v
    return total


@dataclass(frozen=True)
class TightnessReport:
    """Empirical compactness diagnostics for a segment-space measure."""

    R_grid: np.ndarray
    prob_bounded: np.ndarray  # P(||segment|| <= R) per R
    eta_grid: np.ndarray
    modulus_mean: np.ndarray  # mean modulus of continuity per eta
    modulus_q95: np.ndarray


def tightness_report(mu, R_grid, eta_grid):
    """Boundedness-in-probability and modulus-of-continuity diagnostics."""
    if mu.space_tag != "H":
        raise ValidationError("tightness_report expects an H-variant measure")
    R_grid = np.asarray(R_grid, dtype=float)
    eta_grid = np.asarray(eta_grid, dtype=float)
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
    return TightnessReport(R_grid=R_grid, prob_bounded=prob, eta_grid=eta_grid,
                           modulus_mean=np.array(mod_mean), modulus_q95=np.array(mod_q95))
