import numpy as np
import pytest
from dataclasses import replace

from hybridlab.errors import Blowup, RowSumViolation, ValidationError
from hybridlab.experiments import (SEED_LADDER, SEED_PAIR, ExperimentReport, ModelConfig,
                                   ReportRow, SUITES, SampleSizes, ScenarioConfig, SimSettings,
                                   TimeSettings, ToleranceSettings, certified_scalar_model,
                                   run_delay_limit, run_endpoint_convergence,
                                   run_existence, run_periodicity, run_stability,
                                   two_state_generator, uncontrolled_scalar_model)
from hybridlab.measure import restrict
from hybridlab.model import build_controlled_model, build_delay_free_model
from hybridlab.simulate import SegmentGrid, integrate, segment_at
from hybridlab.switching import Generator

ONE_MODE = Generator(np.array([[0.0]]))


def smoke_cfg(**kw):
    """Small-sample scenario for fast plumbing checks."""
    defaults = dict(
        scenario="smoke",
        model=certified_scalar_model(),
        generator=two_state_generator(),
        samples=SampleSizes(paths=60, starts=8, paths_per_start=4),
        times=TimeSettings(t_burn=6.0, time_ladder=(2.0, 5.0), lookbacks=(3, 6),
                           pair_horizon=1.0),
        rho_ladder=(0.4, 0.2, 0.1),
        tolerances=ToleranceSettings(atom_cap=80, calibration_pairs=2),
        sim=SimSettings(seed=123),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def frozen_cfg():
    """Deterministic model (zero drift and diffusion, one mode): exact results."""
    model = ModelConfig(
        kind="controlled_linear", dim=1, noise_dim=1,
        drift_mats=(np.zeros((1, 1)),),
        gain_mats=(np.zeros((1, 1)),),
        diffusion_cols=((np.zeros((1, 1)),),),
        rho=0.1,
    )
    return smoke_cfg(model=model, generator=ONE_MODE)


def test_scenario_rejects_increasing_ladder():
    with pytest.raises(ValidationError):
        smoke_cfg(rho_ladder=(0.1, 0.2))


def test_scenario_rejects_bad_generator():
    with pytest.raises(RowSumViolation):
        smoke_cfg(generator=Generator(np.array([[-1.0, 0.5], [2.0, -2.0]])))


def test_sample_sizes_positive():
    with pytest.raises(ValidationError):
        SampleSizes(paths=0)


def test_suite_registry_complete():
    assert set(SUITES) == {"existence", "periodicity", "stability",
                           "endpoint_convergence", "delay_limit"}


def test_existence_deterministic_model_all_zero():
    rep = run_existence(frozen_cfg())
    assert rep.passed
    by_name = {r.name: r for r in rep.rows}
    assert by_name["kb_distance_n3_n6"].value == 0.0
    assert by_name["final_kb_distance"].value == 0.0


def test_existence_emits_tightness_rows():
    rep = run_existence(frozen_cfg())
    names = [r.name for r in rep.rows]
    assert any(n.startswith("tightness_n3_P") for n in names)
    assert any(n.startswith("calibration_self_distance") for n in names)


def test_existence_unstable_records_blowup():
    cfg = smoke_cfg(model=uncontrolled_scalar_model(), expected_negative=True,
                    initial_values=(1.0, 1.0),
                    times=TimeSettings(t_burn=6.0, lookbacks=(10, 25)))
    rep = run_existence(cfg)
    assert rep.passed  # divergence is the expected outcome here
    assert any(r.name == "blowup_time" for r in rep.rows) or not any(
        r.name == "final_kb_distance" and r.passed for r in rep.rows)


def test_periodicity_deterministic_model_exact_zero():
    rep = run_periodicity(frozen_cfg())
    assert rep.passed
    by_name = {r.name: r.value for r in rep.rows}
    assert by_name["distance_full_period"] <= 1e-12  # LP roundoff only
    assert by_name["distance_half_period_contrast"] <= 1e-12


def test_periodicity_requires_even_steps():
    cfg = smoke_cfg(sim=SimSettings(seed=1, steps_per_rho=3))
    with pytest.raises(ValidationError):
        run_periodicity(cfg)


def test_periodicity_smoke_passes():
    rep = run_periodicity(smoke_cfg())
    assert rep.passed
    assert rep.eps_stat is not None


def test_stability_smoke_passes():
    rep = run_stability(smoke_cfg())
    assert rep.passed
    by_name = {r.name: r for r in rep.rows}
    assert by_name["final_cross_initial_distance"].value <= rep.eps_stat


def test_stability_pathwise_gap_decays():
    rep = run_stability(smoke_cfg())
    by_name = {r.name: r.value for r in rep.rows}
    assert by_name["pathwise_mean_sup_gap_t5"] < by_name["pathwise_mean_sup_gap_t2"]


def test_stability_expected_negative_diverges():
    cfg = smoke_cfg(model=uncontrolled_scalar_model(), expected_negative=True)
    rep = run_stability(cfg)
    assert rep.passed


def test_endpoint_convergence_smoke():
    rep = run_endpoint_convergence(smoke_cfg())
    assert rep.passed
    cols = [r.value for r in rep.rows if r.name.startswith("exceedance_")]
    assert len(cols) == 3


def test_endpoint_convergence_zero_gain_exact():
    model = replace(certified_scalar_model(),
                    gain_mats=(np.zeros((1, 1)), np.zeros((1, 1))))
    cfg = smoke_cfg(model=model, samples=SampleSizes(paths=20, starts=2, paths_per_start=2))
    rep = run_endpoint_convergence(cfg)
    # A = 0: coupled paths coincide, every exceedance is exactly 0
    for r in rep.rows:
        if r.name.startswith("exceedance_"):
            assert r.value == 0.0
    assert rep.passed


def test_endpoint_convergence_requires_controlled():
    cfg = smoke_cfg(model=ModelConfig(kind="registry", name="ou", delay_variant="none"))
    with pytest.raises(ValidationError):
        run_endpoint_convergence(cfg)


def test_delay_limit_smoke():
    rep = run_delay_limit(smoke_cfg())
    assert rep.passed
    final = [r for r in rep.rows if r.name == "final_projected_distance"][0]
    assert final.value <= final.tolerance


def test_report_csv_rows_shape():
    rep = ExperimentReport(scenario="s", suite="stability",
                           rows=[ReportRow("a", 1.0, 2.0, True, "note")],
                           passed=True, eps_stat=0.1, seed=1, tolerances={}, notes=[])
    rows = list(rep.csv_rows())
    assert rows[0] == ("suite", "row", "value", "tolerance", "passed", "note")
    assert rows[1] == ("stability", "a", "1.0", "2.0", "True", "note")


def test_reports_reproducible():
    r1 = run_stability(smoke_cfg())
    r2 = run_stability(smoke_cfg())
    assert [(r.name, r.value) for r in r1.rows] == [(r.name, r.value) for r in r2.rows]


def scaled_certified_cfg(**kw):
    """The certified scalar scenario at the benchmark's scale (32 paths, t_burn 3)."""
    defaults = dict(samples=SampleSizes(paths=32, starts=4, paths_per_start=8),
                    times=TimeSettings(t_burn=3.0, horizon=3.0, time_ladder=(1.0, 2.0, 3.0),
                                       lookbacks=(1, 2, 4)),
                    rho_ladder=(0.4, 0.2, 0.1, 0.05),
                    tolerances=ToleranceSettings(eta=(0.03, 0.1)),
                    sim=SimSettings(seed=20240613))
    defaults.update(kw)
    return smoke_cfg(**defaults)


def coupled_rung(cfg, ri):
    """One rung's models, settings and restricted initial values, built as the suite does."""
    rho = cfg.rho_ladder[ri]
    spec = cfg.model.controlled_spec(rho=rho)
    sim = cfg.sim_cfg(rho, cfg.sim.seed + SEED_LADDER + ri)
    xis = [restrict(SegmentGrid(rho=1.0, values=np.full((21, cfg.model.dim), v)), rho,
                    num_points=cfg.sim.steps_per_rho + 1) for v in cfg.initial_values]
    return (build_controlled_model(spec, cfg.generator),
            build_delay_free_model(spec, cfg.generator), sim, xis)


def run_one(m, xi, cfg, sim, p):
    s = cfg.times.s
    return integrate(m, s, xi, cfg.initial_mode, s + cfg.times.pair_horizon,
                     replace(sim, path_index=p))


def first_blowup(m, xis, cfg, sim):
    for xi in xis:
        for p in range(cfg.samples.paths):
            try:
                run_one(m, xi, cfg, sim, p)
            except Blowup as exc:
                return exc
    return None


def test_endpoint_convergence_matches_per_path_loop():
    cfg = scaled_certified_cfg()
    rows = {r.name: r.value for r in run_endpoint_convergence(cfg).rows}
    for ri, rho in enumerate(cfg.rho_ladder):
        m_rho, m_zero, sim, xis = coupled_rung(cfg, ri)
        worst = dict.fromkeys(cfg.tolerances.eta, 0.0)
        for xi in xis:
            gaps = np.array([np.linalg.norm(run_one(m_rho, xi, cfg, sim, p).states[-1]
                                            - run_one(m_zero, xi.endpoint, cfg, sim, p).states[-1])
                             for p in range(cfg.samples.paths)])
            for eta in worst:
                worst[eta] = max(worst[eta], float(np.mean(gaps >= eta)))
        for eta, w in worst.items():
            assert rows[f"exceedance_rho{rho:g}_eta{eta:g}"] == w
    assert 0.0 < rows["exceedance_rho0.2_eta0.03"] < 1.0  # the rows are not all 0 or 1


def test_stability_pathwise_rows_match_per_path_loop():
    cfg = scaled_certified_cfg()
    rows = {r.name: r.value for r in run_stability(cfg).rows}
    model = cfg.model.build_primary(cfg.generator)
    ladder = cfg.times.time_ladder
    sim = cfg.sim_cfg(model.delay.rho, cfg.sim.seed + SEED_PAIR)
    sups = {t: [] for t in ladder}
    for p in range(min(cfg.samples.paths, 64)):
        tr1, tr2 = (integrate(model, cfg.times.s, np.full(1, v), cfg.initial_mode, ladder[-1],
                              replace(sim, path_index=p))
                    for v in (cfg.initial_values[0], cfg.initial_values[-1]))
        for t in ladder:
            gap = segment_at(tr1, t).values - segment_at(tr2, t).values
            sups[t].append(float(np.max(np.linalg.norm(gap, axis=1))))
    for t in ladder:
        assert rows[f"pathwise_mean_sup_gap_t{t:g}"] == float(np.mean(sups[t]))


def test_endpoint_convergence_blowup_is_first_sampled_feedback_path():
    # destabilising feedback: both models leave the guard on the first rung
    model = replace(certified_scalar_model(), gain_mats=(np.array([[0.5]]),) * 2)
    cfg = scaled_certified_cfg(model=model, sim=SimSettings(seed=1, blowup_guard=16.0))
    m_rho, m_zero, sim, xis = coupled_rung(cfg, 0)
    want = first_blowup(m_rho, xis, cfg, sim)
    companion = first_blowup(m_zero, [xi.endpoint for xi in xis], cfg, sim)
    # a path-by-path loop over (m_rho, m_zero) pairs would report the companion
    assert companion.path_index < want.path_index
    with pytest.raises(Blowup) as exc:
        run_endpoint_convergence(cfg)
    assert (exc.value.t, exc.value.path_index, exc.value.magnitude) == (
        want.t, want.path_index, want.magnitude)
