"""Scenario-level suites that probe the long-run measure structure empirically.

Each suite emits an ExperimentReport whose pass/fail verdicts reference
only tolerances recorded in the scenario or in the calibration row.  The
statistical tolerance eps_stat is calibrated per scenario as the 95th
percentile (over independent pairs) of the distance between two
same-size ensembles of the same law, times a safety factor; a small
absolute floor guards the degenerate case where all atoms coincide.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import Blowup, ValidationError
from .measure import (EmpiricalMeasure, MetricSpec, bl_distance, ensemble_at, kb_average,
                      project_T, restrict, tightness_report)
from .model import (ControlledModelSpec, DelaySpec, build_controlled_model,
                    build_delay_free_model, check_dissipativity_linear, registry_model)
from .simulate import SegmentGrid, SimConfig, integrate_paths, segment_at
from .switching import Generator, validate_generator


@dataclass(frozen=True)
class ModelConfig:
    """Declarative model description, buildable from JSON."""

    kind: str  # "controlled_linear" | "registry"
    dim: int = 1
    noise_dim: int = 1
    drift_mats: tuple = ()       # per-mode F_j, h(j, x) = F_j x
    gain_mats: tuple = ()        # per-mode A_j
    diffusion_cols: tuple = ()   # per-mode tuple of column factors G_{j,l}
    rho: float = 0.1
    name: str = ""               # registry key for kind == "registry"
    delay_variant: str = "sawtooth"

    def controlled_spec(self, rho=None):
        if self.kind != "controlled_linear":
            raise ValidationError("controlled_spec requires a controlled_linear model")
        F = [np.asarray(x, dtype=float) for x in self.drift_mats]
        A = [np.asarray(x, dtype=float) for x in self.gain_mats]
        # sigma(j, x)[..., a, l] = (G_{j,l} x)_a, one product per mode with the
        # transposed column factors side by side: S_j[b, a*m + l] = G_{j,l}[a, b]
        S = [np.stack([np.asarray(c, dtype=float).T for c in cols], axis=-1).reshape(self.dim, -1)
             for cols in self.diffusion_cols]

        def h(j, x):
            return x @ F[j - 1].T

        def sigma(j, x):
            return (x @ S[j - 1]).reshape(x.shape[:-1] + (self.dim, -1))

        return ControlledModelSpec(dim=self.dim, noise_dim=self.noise_dim, h=h,
                                   sigma=sigma, gains=A,
                                   rho=self.rho if rho is None else rho)

    def build_primary(self, g, rho=None):
        if self.kind == "controlled_linear":
            return build_controlled_model(self.controlled_spec(rho), g)
        delay = (DelaySpec(variant="none") if self.delay_variant == "none"
                 else DelaySpec(variant=self.delay_variant,
                                rho=self.rho if rho is None else rho))
        return registry_model(self.name, g, delay=delay)

    def build_zero(self, g):
        if self.kind == "controlled_linear":
            return build_delay_free_model(self.controlled_spec(), g)
        return registry_model(self.name, g, delay=DelaySpec(variant="none"))

    def certificate(self, g):
        """Linear contraction certificate with identity weights, if applicable."""
        if self.kind != "controlled_linear":
            return None
        eye = [np.eye(self.dim)] * g.n_states
        G = [list(cols) for cols in self.diffusion_cols]
        return check_dissipativity_linear(list(self.drift_mats), list(self.gain_mats),
                                          G, g, eye)


@dataclass(frozen=True)
class SampleSizes:
    paths: int = 400
    starts: int = 20
    paths_per_start: int = 10

    def __post_init__(self):
        if min(self.paths, self.starts, self.paths_per_start) < 1:
            raise ValidationError("all sample counts must be >= 1")


@dataclass(frozen=True)
class TimeSettings:
    s: float = 0.0
    t: float = 0.0
    t_burn: float = 20.0
    horizon: float = 15.0
    pair_horizon: float = 2.0
    time_ladder: tuple = (3.0, 7.0, 15.0)
    lookbacks: tuple = (5, 10, 20)


@dataclass(frozen=True)
class ToleranceSettings:
    eta: tuple = (0.1,)
    atom_cap: int = 150
    calibration_pairs: int = 3
    eps_factor: float = 1.3
    eps_floor: float = 1e-7
    exceed_final: float = 0.05


@dataclass(frozen=True)
class SimSettings:
    steps_per_rho: int = 4
    seed: int = 20240613
    blowup_guard: float = 1e8
    dt: float = 0.01  # base step for delay-free models


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    model: ModelConfig
    generator: Generator
    metric: MetricSpec = MetricSpec()
    sim: SimSettings = SimSettings()
    samples: SampleSizes = SampleSizes()
    times: TimeSettings = TimeSettings()
    rho_ladder: tuple = (0.4, 0.2, 0.1, 0.05)
    tolerances: ToleranceSettings = ToleranceSettings()
    initial_values: tuple = (0.0, 1.0)
    initial_mode: int = 1
    suites: tuple = ("stability",)
    expected_negative: bool = False
    output_dir: str = "out"
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        validate_generator(self.generator)
        ladder = tuple(self.rho_ladder)
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValidationError("rho ladder must be strictly decreasing")

    def sim_cfg(self, rho, seed):
        if rho > 0.0:
            return SimConfig.for_rho(rho, self.sim.steps_per_rho, seed,
                                     blowup_guard=self.sim.blowup_guard)
        return SimConfig(dt=self.sim.dt, seed=seed, steps_per_rho=1,
                         blowup_guard=self.sim.blowup_guard)


@dataclass(frozen=True)
class ReportRow:
    name: str
    value: float
    tolerance: Optional[float] = None
    passed: Optional[bool] = None
    note: str = ""


@dataclass
class ExperimentReport:
    scenario: str
    suite: str
    rows: list
    passed: bool
    eps_stat: Optional[float]
    seed: int
    tolerances: dict
    notes: list

    def csv_rows(self):
        yield ("suite", "row", "value", "tolerance", "passed", "note")
        for r in self.rows:
            yield (self.suite, r.name, repr(float(r.value)),
                   "" if r.tolerance is None else repr(float(r.tolerance)),
                   "" if r.passed is None else str(r.passed), r.note)


def _calibrate_eps(make_measure, base_seed, pairs, metric, atom_cap, factor, floor):
    """eps_stat = factor * 95th percentile of independent same-law self-distances."""
    dists = []
    for i in range(pairs):
        a = make_measure(base_seed + 2 * i)
        b = make_measure(base_seed + 2 * i + 1)
        dists.append(bl_distance(a, b, metric, atom_cap=atom_cap))
    eps = factor * float(np.percentile(dists, 95))
    return max(eps, floor), dists


def _const_segment(value, rho, k, dim):
    vals = np.tile(np.asarray(value, dtype=float).reshape(dim), (k + 1, 1))
    return SegmentGrid(rho=rho, values=vals)


SEED_KB = 100
SEED_KB_CAL = 150
SEED_ENSEMBLE = 200
SEED_CAL = 300
SEED_PAIR = 400
SEED_LADDER = 500


def run_existence(cfg):
    """Lookback-averaged measures: tightness diagnostics and Cauchy stabilization."""
    g = cfg.generator
    model = cfg.model.build_primary(g)
    rho = model.delay.rho if model.delay.variant != "none" else 0.0
    j0 = cfg.initial_mode
    xi = np.full(model.dim, cfg.initial_values[0])
    t = cfg.times.t
    tol = cfg.tolerances
    rows = []
    notes = []
    measures = []
    try:
        for i, n in enumerate(cfg.times.lookbacks):
            sim = cfg.sim_cfg(rho, cfg.sim.seed + SEED_KB + i)
            mu = kb_average(model, xi, j0, t, n, cfg.samples.starts,
                            cfg.samples.paths_per_start, sim)
            measures.append((n, mu))
            if mu.space_tag == "H":
                rep = tightness_report(mu, R_grid=[1.0, 2.0, 5.0, 10.0],
                                       eta_grid=[rho / 4, rho / 2])
                for R, p in zip(rep.R_grid, rep.prob_bounded):
                    rows.append(ReportRow(f"tightness_n{n}_P(norm<={R:g})", p))
                for eta, mq in zip(rep.eta_grid, rep.modulus_q95):
                    rows.append(ReportRow(f"tightness_n{n}_modulus_q95(eta={eta:g})", mq))
    except Blowup as exc:
        rows.append(ReportRow("blowup_time", exc.t, note="trajectory exceeded guard"))
        notes.append(f"blowup: {exc}")
        passed = cfg.expected_negative
        return ExperimentReport(cfg.scenario, "existence", rows, passed, None,
                                cfg.sim.seed, {"atom_cap": tol.atom_cap}, notes)

    n_big = cfg.times.lookbacks[-1]

    def make(seed):
        sim = cfg.sim_cfg(rho, seed)
        return kb_average(model, xi, j0, t, n_big, cfg.samples.starts,
                          cfg.samples.paths_per_start, sim)

    eps, cal = _calibrate_eps(make, cfg.sim.seed + SEED_KB_CAL, tol.calibration_pairs,
                              cfg.metric, tol.atom_cap, tol.eps_factor, tol.eps_floor)
    for i, d in enumerate(cal):
        rows.append(ReportRow(f"calibration_self_distance_{i}", d))
    consec = []
    for (n1, m1), (n2, m2) in zip(measures, measures[1:]):
        d = bl_distance(m1, m2, cfg.metric, atom_cap=tol.atom_cap)
        consec.append(d)
        rows.append(ReportRow(f"kb_distance_n{n1}_n{n2}", d))
    stabilized = consec[-1] <= eps
    if cfg.expected_negative:
        passed = not stabilized
        rows.append(ReportRow("expected_negative_not_stabilized", consec[-1], eps, passed))
    else:
        passed = stabilized
        rows.append(ReportRow("final_kb_distance", consec[-1], eps, passed))
    return ExperimentReport(cfg.scenario, "existence", rows, passed, eps, cfg.sim.seed,
                            {"eps_stat": eps, "atom_cap": tol.atom_cap}, notes)


def run_periodicity(cfg):
    """Compare burn-in laws one observation interval apart (and a half-interval contrast)."""
    g = cfg.generator
    model = cfg.model.build_primary(g)
    if model.delay.variant != "sawtooth":
        raise ValidationError("periodicity suite requires a sawtooth-delay model")
    rho = model.delay.rho
    k = cfg.sim.steps_per_rho
    if k % 2:
        raise ValidationError("periodicity contrast at rho/2 needs even steps_per_rho")
    j0 = cfg.initial_mode
    xi = np.full(model.dim, cfg.initial_values[-1])
    t = cfg.times.t
    burn = cfg.times.t_burn
    M = cfg.samples.paths
    tol = cfg.tolerances

    def law_at(tt, seed):
        sim = cfg.sim_cfg(rho, seed)
        return ensemble_at(model, tt - burn, xi, j0, tt, M, sim)

    mu_t = law_at(t, cfg.sim.seed + SEED_ENSEMBLE)
    mu_shift = law_at(t + rho, cfg.sim.seed + SEED_ENSEMBLE + 1)
    mu_half = law_at(t + rho / 2, cfg.sim.seed + SEED_ENSEMBLE + 2)
    eps, cal = _calibrate_eps(lambda s: law_at(t, s), cfg.sim.seed + SEED_CAL,
                              tol.calibration_pairs, cfg.metric, tol.atom_cap,
                              tol.eps_factor, tol.eps_floor)
    rows = [ReportRow(f"calibration_self_distance_{i}", d) for i, d in enumerate(cal)]
    d_per = bl_distance(mu_t, mu_shift, cfg.metric, atom_cap=tol.atom_cap)
    d_half = bl_distance(mu_t, mu_half, cfg.metric, atom_cap=tol.atom_cap)
    passed = d_per <= eps
    rows.append(ReportRow("distance_full_period", d_per, eps, passed))
    rows.append(ReportRow("distance_half_period_contrast", d_half))
    return ExperimentReport(cfg.scenario, "periodicity", rows, passed, eps, cfg.sim.seed,
                            {"eps_stat": eps, "atom_cap": tol.atom_cap}, [])


def run_stability(cfg):
    """Distance decay between laws from different initial data, plus pathwise contraction."""
    g = cfg.generator
    model = cfg.model.build_primary(g)
    rho = model.delay.rho if model.delay.variant != "none" else 0.0
    j0 = cfg.initial_mode
    k = cfg.sim.steps_per_rho
    s = cfg.times.s
    M = cfg.samples.paths
    tol = cfg.tolerances
    xi1 = np.full(model.dim, cfg.initial_values[0])
    xi2 = np.full(model.dim, cfg.initial_values[-1])
    rows = []
    notes = []
    cross = []
    to_burnin = []
    try:
        for i, t in enumerate(cfg.times.time_ladder):
            law1 = ensemble_at(model, s, xi1, j0, t, M,
                               cfg.sim_cfg(rho, cfg.sim.seed + SEED_ENSEMBLE + 3 * i))
            law2 = ensemble_at(model, s, xi2, j0, t, M,
                               cfg.sim_cfg(rho, cfg.sim.seed + SEED_ENSEMBLE + 3 * i + 1))
            mu_t = ensemble_at(model, t - cfg.times.t_burn, xi2, j0, t, M,
                               cfg.sim_cfg(rho, cfg.sim.seed + SEED_ENSEMBLE + 3 * i + 2))
            d12 = bl_distance(law1, law2, cfg.metric, atom_cap=tol.atom_cap)
            db = bl_distance(law1, mu_t, cfg.metric, atom_cap=tol.atom_cap)
            cross.append(d12)
            to_burnin.append(db)
            rows.append(ReportRow(f"cross_initial_distance_t{t:g}", d12))
            rows.append(ReportRow(f"to_burnin_distance_t{t:g}", db))
        # common-randomness contraction statistic
        T = cfg.times.time_ladder[-1]
        n_pairs = min(M, 64)
        sups = {t: [] for t in cfg.times.time_ladder}
        jobs = [(s, xi, p) for p in range(n_pairs) for xi in (xi1, xi2)]
        sim = cfg.sim_cfg(rho, cfg.sim.seed + SEED_PAIR)
        trs = list(integrate_paths(model, jobs, j0, T, sim))
        for tr1, tr2 in zip(trs[::2], trs[1::2]):
            for t in cfg.times.time_ladder:
                if rho > 0:
                    a = segment_at(tr1, t).values
                    b = segment_at(tr2, t).values
                    sups[t].append(float(np.max(np.linalg.norm(a - b, axis=1))))
                else:
                    ia = int(np.searchsorted(tr1.times, t))
                    sups[t].append(float(np.linalg.norm(tr1.states[ia] - tr2.states[ia])))
        for t in cfg.times.time_ladder:
            rows.append(ReportRow(f"pathwise_mean_sup_gap_t{t:g}", float(np.mean(sups[t]))))
    except Blowup as exc:
        rows.append(ReportRow("blowup_time", exc.t, note="trajectory exceeded guard"))
        notes.append(f"blowup: {exc}")
        passed = cfg.expected_negative
        return ExperimentReport(cfg.scenario, "stability", rows, passed, None,
                                cfg.sim.seed, {"atom_cap": tol.atom_cap}, notes)

    t_last = cfg.times.time_ladder[-1]

    def make(seed):
        return ensemble_at(model, s, xi1, j0, t_last, M, cfg.sim_cfg(rho, seed))

    eps, cal = _calibrate_eps(make, cfg.sim.seed + SEED_CAL, tol.calibration_pairs,
                              cfg.metric, tol.atom_cap, tol.eps_factor, tol.eps_floor)
    for i, d in enumerate(cal):
        rows.append(ReportRow(f"calibration_self_distance_{i}", d))
    if cfg.expected_negative:
        diverged = cross[-1] >= cross[0] and cross[-1] > eps
        rows.append(ReportRow("expected_negative_divergence", cross[-1], eps, diverged))
        passed = diverged
    else:
        ok = cross[-1] <= eps and to_burnin[-1] <= eps
        rows.append(ReportRow("final_cross_initial_distance", cross[-1], eps, cross[-1] <= eps))
        rows.append(ReportRow("final_to_burnin_distance", to_burnin[-1], eps,
                              to_burnin[-1] <= eps))
        passed = ok
    return ExperimentReport(cfg.scenario, "stability", rows, passed, eps, cfg.sim.seed,
                            {"eps_stat": eps, "atom_cap": tol.atom_cap}, notes)


def run_endpoint_convergence(cfg):
    """Coupled exceedance probabilities P(|u^rho(t) - u^0(t)| >= eta) down the rho ladder."""
    g = cfg.generator
    if cfg.model.kind != "controlled_linear":
        raise ValidationError("endpoint convergence requires a controlled model")
    j0 = cfg.initial_mode
    k = cfg.sim.steps_per_rho
    s = cfg.times.s
    t = s + cfg.times.pair_horizon
    M = cfg.samples.paths
    tol = cfg.tolerances
    family = [SegmentGrid(rho=1.0, values=np.tile(np.full(cfg.model.dim, v), (21, 1)))
              for v in cfg.initial_values]
    rows = []
    exceed = {eta: [] for eta in tol.eta}
    for ri, rho in enumerate(cfg.rho_ladder):
        spec = cfg.model.controlled_spec(rho=rho)
        m_rho = build_controlled_model(spec, g)
        m_zero = build_delay_free_model(spec, g)
        sim = cfg.sim_cfg(rho, cfg.sim.seed + SEED_LADDER + ri)
        xis = [restrict(xi_full, rho, num_points=k + 1) for xi_full in family]
        jobs = [(s, xi, p) for xi in xis for p in range(M)]
        # the same jobs on both models share each path's noise
        ends = [np.array([tr.states[-1] for tr in integrate_paths(mm, jobs, j0, t, sim)])
                for mm in (m_rho, m_zero)]
        gaps = np.linalg.norm(ends[0] - ends[1], axis=1).reshape(len(xis), M)
        for eta in tol.eta:
            worst = float(np.max(np.mean(gaps >= eta, axis=1)))
            exceed[eta].append(worst)
            rows.append(ReportRow(f"exceedance_rho{rho:g}_eta{eta:g}", worst))
    slack = 2.0 * math.sqrt(0.25 / M)
    passed = True
    for eta in tol.eta:
        col = exceed[eta]
        mono = all(b <= a + slack for a, b in zip(col, col[1:]))
        final_ok = col[-1] <= tol.exceed_final
        rows.append(ReportRow(f"monotone_eta{eta:g}", float(mono), slack, mono,
                              note=f"binomial slack {slack:.4g}"))
        rows.append(ReportRow(f"final_exceedance_eta{eta:g}", col[-1],
                              tol.exceed_final, final_ok))
        passed = passed and mono and final_ok
    return ExperimentReport(cfg.scenario, "endpoint_convergence", rows, passed, None,
                            cfg.sim.seed,
                            {"exceed_final": tol.exceed_final, "slack": slack}, [])


def run_delay_limit(cfg):
    """Projected burn-in laws along the rho ladder against the zero-delay law."""
    g = cfg.generator
    if cfg.model.kind != "controlled_linear":
        raise ValidationError("delay limit requires a controlled model")
    j0 = cfg.initial_mode
    k = cfg.sim.steps_per_rho
    t = cfg.times.t
    burn = cfg.times.t_burn
    M = cfg.samples.paths
    tol = cfg.tolerances
    xi_val = np.full(cfg.model.dim, cfg.initial_values[-1])
    model0 = cfg.model.build_zero(g)
    rho_min = cfg.rho_ladder[-1]
    cfg0 = replace(cfg, sim=replace(cfg.sim, dt=rho_min / k))

    def zero_law(seed):
        return ensemble_at(model0, t - burn, xi_val, j0, t, M, cfg0.sim_cfg(0.0, seed))

    eps, cal = _calibrate_eps(zero_law, cfg.sim.seed + SEED_CAL, tol.calibration_pairs,
                              cfg.metric, tol.atom_cap, tol.eps_factor, tol.eps_floor)
    rows = [ReportRow(f"calibration_self_distance_{i}", d) for i, d in enumerate(cal)]
    mu0 = zero_law(cfg.sim.seed + SEED_ENSEMBLE)
    dists = []
    for ri, rho in enumerate(cfg.rho_ladder):
        m_rho = cfg.model.build_primary(g, rho=rho)
        sim = cfg.sim_cfg(rho, cfg.sim.seed + SEED_LADDER + ri)
        xi = _const_segment(xi_val, rho, k, cfg.model.dim)
        mu_rho = ensemble_at(m_rho, t - burn, xi, j0, t, M, sim)
        d = bl_distance(project_T(mu_rho), mu0, cfg.metric, atom_cap=tol.atom_cap)
        dists.append(d)
        rows.append(ReportRow(f"projected_distance_rho{rho:g}", d))
    mono = all(b <= a + eps for a, b in zip(dists, dists[1:]))
    final_ok = dists[-1] <= 2.0 * eps
    rows.append(ReportRow("monotone_within_eps", float(mono), eps, mono))
    rows.append(ReportRow("final_projected_distance", dists[-1], 2.0 * eps, final_ok))
    passed = mono and final_ok
    return ExperimentReport(cfg.scenario, "delay_limit", rows, passed, eps, cfg.sim.seed,
                            {"eps_stat": eps, "atom_cap": tol.atom_cap}, [])


SUITES = {
    "existence": run_existence,
    "periodicity": run_periodicity,
    "stability": run_stability,
    "endpoint_convergence": run_endpoint_convergence,
    "delay_limit": run_delay_limit,
}


def certified_scalar_model() -> ModelConfig:
    """Scalar sampled-feedback benchmark: h(j,x) = x, A(j) = -2, sigma(j,x) = 0.5 x."""
    return ModelConfig(
        kind="controlled_linear",
        dim=1,
        noise_dim=1,
        drift_mats=(np.array([[1.0]]), np.array([[1.0]])),
        gain_mats=(np.array([[-2.0]]), np.array([[-2.0]])),
        diffusion_cols=((np.array([[0.5]]),), (np.array([[0.5]]),)),
        rho=0.1,
    )


def uncontrolled_scalar_model() -> ModelConfig:
    """Same benchmark with zero gain: unstable by design."""
    return ModelConfig(
        kind="controlled_linear",
        dim=1,
        noise_dim=1,
        drift_mats=(np.array([[1.0]]), np.array([[1.0]])),
        gain_mats=(np.array([[0.0]]), np.array([[0.0]])),
        diffusion_cols=((np.array([[0.5]]),), (np.array([[0.5]]),)),
        rho=0.1,
    )


def two_state_generator() -> Generator:
    return Generator(np.array([[-1.0, 1.0], [2.0, -2.0]]))
