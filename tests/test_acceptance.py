"""End-to-end acceptance checks at desk scale.

One test per criterion; each prints a single PASS line with the measured
values so a transcript shows the verdict per criterion.  Tolerances follow
the statistical design: 3 Monte-Carlo standard errors for moment checks,
calibrated self-distance thresholds (eps_stat) for measure distances, and
hard numeric tolerances for the exact kernels (LP metric, certificates).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from hybridlab.cli import main
from hybridlab.experiments import (SampleSizes, ScenarioConfig, certified_scalar_model,
                                   run_delay_limit, run_endpoint_convergence,
                                   run_periodicity, run_stability, two_state_generator,
                                   uncontrolled_scalar_model)
from hybridlab.measure import (EmpiricalMeasure, MetricSpec, bl_distance, ensemble_at,
                               kb_average)
from hybridlab.model import (ControlledModelSpec, DelaySpec, HybridDelayModel,
                             build_delay_free_model, check_dissipativity_linear,
                             check_dissipativity_sampled, registry_model)
from hybridlab.simulate import SimConfig, integrate_ensemble
from hybridlab.switching import (Generator, make_stream, occupation_fractions,
                                 sample_mode_path)

ONE_MODE = Generator(np.array([[0.0]]))
SPEC = MetricSpec()


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_switching_fidelity():
    g = two_state_generator()
    t0 = time.monotonic()
    path = sample_mode_path(g, 1, 0.0, 1e4, make_stream(2024, 0))
    frac = occupation_fractions(path)
    elapsed = time.monotonic() - t0
    err = max(abs(frac[0] - 2.0 / 3.0), abs(frac[1] - 1.0 / 3.0))
    report(1, err < 0.02 and elapsed < 5.0,
           f"occupation error {err:.4f} < 0.02, runtime {elapsed:.2f}s < 5s")


def test_criterion_2_integrator_weak_order():
    # scalar f = -u, g = 0.5 u; E u(1) = e^{-1}.  The explicit scheme's mean
    # is exactly (1 - dt)^(1/dt), so the bias is known and halves with dt.
    model = HybridDelayModel(
        dim=1, noise_dim=1,
        drift=lambda t, j, x, y: -x,
        diffusion=lambda t, j, x, y: 0.5 * x[..., None],
        delay=DelaySpec(variant="none"), generator=ONE_MODE)
    target = math.exp(-1.0)
    M = 100_000
    t0 = time.monotonic()

    def run(dt):
        ends = integrate_ensemble(model, 0.0, np.array([1.0]), 1, 1.0,
                                  SimConfig(dt=dt, seed=7001), M)
        return float(ends.mean()), float(ends.std(ddof=1) / math.sqrt(M))

    mean_50, _ = run(1.0 / 50)
    mean_100, se_100 = run(1.0 / 100)
    elapsed = time.monotonic() - t0
    ratio = (mean_100 - target) / (mean_50 - target)
    ok = (abs(mean_100 - target) <= 3 * se_100
          and 0.35 <= ratio <= 0.65
          and elapsed < 120.0)
    report(2, ok, f"|mean - e^-1| = {abs(mean_100 - target):.2e} <= 3se = {3 * se_100:.2e}, "
                  f"bias ratio {ratio:.3f} in [0.35, 0.65], runtime {elapsed:.1f}s < 120s")


def test_criterion_3_bl_metric_exactness():
    def pm(values):
        return EmpiricalMeasure.from_state_points([(np.atleast_1d(v), 1) for v in values])

    worst_exact = 0.0
    for d in (0.1, 1.0, 2.0, 10.0):
        got = bl_distance(pm([0.0]), pm([d]), SPEC)
        worst_exact = max(worst_exact, abs(got - 2 * d / (2 + d)))
    rng = make_stream(31, 0)
    worst_sym = 0.0
    worst_tri = 0.0
    for _ in range(100):
        mus = [pm(rng.normal(scale=2.0, size=int(rng.integers(1, 51)))) for _ in range(3)]
        d01 = bl_distance(mus[0], mus[1], SPEC)
        d10 = bl_distance(mus[1], mus[0], SPEC)
        d12 = bl_distance(mus[1], mus[2], SPEC)
        d02 = bl_distance(mus[0], mus[2], SPEC)
        worst_sym = max(worst_sym, abs(d01 - d10))
        worst_tri = max(worst_tri, d02 - (d01 + d12))
    ok = worst_exact <= 1e-8 and worst_sym <= 1e-9 and worst_tri <= 1e-9
    report(3, ok, f"two-point error {worst_exact:.1e} <= 1e-8, symmetry gap {worst_sym:.1e}, "
                  f"triangle excess {worst_tri:.1e} <= 1e-9 over 100 triples")


def test_criterion_4_ou_stationarity():
    model = registry_model("ou", ONE_MODE)
    mu = ensemble_at(model, -10.0, np.array([1.0]), 1, 0.0, 10_000,
                     SimConfig(dt=0.01, seed=424242))
    ends = np.stack([p[0] for p in mu.points]).ravel()
    var = ends.var(ddof=1)
    se = var * math.sqrt(2.0 / (len(ends) - 1))
    var_ok = abs(var - 0.5) <= 3 * se

    def ens(seed, M=200):
        return ensemble_at(model, -20.0, np.array([1.0]), 1, 0.0, M,
                           SimConfig(dt=0.01, seed=seed))

    cal = [bl_distance(ens(555000 + 2 * i), ens(555000 + 2 * i + 1), SPEC)
           for i in range(3)]
    eps = 1.3 * float(np.percentile(cal, 95))
    mu_kb = kb_average(model, np.array([1.0]), 1, 0.0, 20, 20, 10,
                       SimConfig(dt=0.01, seed=777001))
    d = bl_distance(mu_kb, ens(555100), SPEC)
    report(4, var_ok and d <= eps,
           f"endpoint variance {var:.4f} within 3se {3 * se:.4f} of 0.5; "
           f"KB-vs-ensemble distance {d:.4f} <= eps_stat {eps:.4f}")


def test_criterion_5_dissipativity_certificate():
    g = ONE_MODE
    out = check_dissipativity_linear([np.array([[1.0]])], [np.array([[-2.0]])],
                                     [[np.array([[0.5]])]], g, [np.eye(1)])
    exact_ok = out.certified and abs(out.beta - 1.75) < 1e-12
    spec = ControlledModelSpec(dim=1, noise_dim=1, h=lambda j, x: x,
                               sigma=lambda j, x: 0.5 * x[..., None],
                               gains=[np.array([[-2.0]])], rho=0.1)
    m = build_delay_free_model(spec, g)
    est = check_dissipativity_sampled(m, [np.eye(1)], 2000, 3.0, make_stream(17, 0))
    report(5, exact_ok and est >= 1.75 - 1e-6,
           f"eigenvalue beta = {out.beta} (exact 1.75), sampled estimate {est:.9f} "
           f">= 1.75 - 1e-6")


def full_cfg(**kw):
    defaults = dict(scenario="acceptance", model=certified_scalar_model(),
                    generator=two_state_generator())
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_criterion_6_stability_in_distribution():
    rep = run_stability(full_cfg())
    by = {r.name: r for r in rep.rows}
    neg = run_stability(full_cfg(model=uncontrolled_scalar_model(),
                                 expected_negative=True))
    report(6, rep.passed and neg.passed,
           f"final cross-initial distance {by['final_cross_initial_distance'].value:.4f} "
           f"<= eps_stat {rep.eps_stat:.4f} by T=15; uncontrolled model diverges as expected")


def test_criterion_7_periodicity():
    cfg = full_cfg(samples=SampleSizes(paths=2000))
    # the statistic's noise distribution is heavy-tailed at this atom cap:
    # 6 calibration pairs are needed for the 95th percentile to cover it
    cfg = replace(cfg, tolerances=replace(cfg.tolerances, calibration_pairs=6))
    rep = run_periodicity(cfg)
    by = {r.name: r.value for r in rep.rows}
    report(7, rep.passed,
           f"distance(mu_t, mu_t+rho) = {by['distance_full_period']:.4f} <= "
           f"eps_stat {rep.eps_stat:.4f} with burn-in 20, M=2000")


def test_criterion_8_delay_limit():
    t0 = time.monotonic()
    cfg = full_cfg()
    rep_e = run_endpoint_convergence(cfg)
    rep_d = run_delay_limit(cfg)
    elapsed = time.monotonic() - t0
    by_e = {r.name: r.value for r in rep_e.rows}
    by_d = {r.name: r for r in rep_d.rows}
    final = by_d["final_projected_distance"]
    report(8, rep_e.passed and rep_d.passed and elapsed < 600.0,
           f"exceedance nonincreasing, final {by_e['final_exceedance_eta0.1']:.4f} <= 0.05; "
           f"projected distance nonincreasing, final {final.value:.4f} <= "
           f"2*eps_stat {final.tolerance:.4f}; runtime {elapsed:.0f}s < 600s")


def test_criterion_9_reproducibility(tmp_path):
    raw = {
        "scenario": "repro",
        "generator": [[-1.0, 1.0], [2.0, -2.0]],
        "model": {"kind": "controlled_linear", "dim": 1, "noise_dim": 1,
                  "drift": [[[1.0]], [[1.0]]], "gains": [[[-2.0]], [[-2.0]]],
                  "diffusion": [[[[0.5]]], [[[0.5]]]], "rho": 0.1},
        "sim": {"steps_per_rho": 4, "seed": 123},
        "samples": {"paths": 60, "starts": 8, "paths_per_start": 4},
        "times": {"t_burn": 6.0, "time_ladder": [2.0, 5.0], "lookbacks": [3, 6],
                  "pair_horizon": 1.0},
        "rho_ladder": [0.4, 0.2, 0.1],
        "tolerances": {"atom_cap": 80, "calibration_pairs": 2},
        "suites": ["existence", "periodicity", "stability",
                   "endpoint_convergence", "delay_limit"],
    }
    cfg_path = tmp_path / "repro.json"
    cfg_path.write_text(json.dumps(raw))
    runner = CliRunner()
    codes = []
    for d in ("a", "b"):
        res = runner.invoke(main, ["suite", "--config", str(cfg_path),
                                   "--out", str(tmp_path / d)])
        codes.append(res.exit_code)
    assert codes[0] == codes[1]
    identical = True
    for suite in raw["suites"]:
        ca = (tmp_path / "a" / "repro" / f"{suite}.csv").read_bytes()
        cb = (tmp_path / "b" / "repro" / f"{suite}.csv").read_bytes()
        identical = identical and ca == cb
    va = json.loads((tmp_path / "a" / "repro" / "verdict.json").read_text())
    vb = json.loads((tmp_path / "b" / "repro" / "verdict.json").read_text())
    va.pop("timestamp"), vb.pop("timestamp")
    report(9, identical and va == vb,
           "rerun produced byte-identical CSVs for all 5 suites "
           "and identical verdicts (timestamp excluded)")
