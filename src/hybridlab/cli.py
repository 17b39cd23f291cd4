"""Command-line front end: parse scenario configs, dispatch suites, write outputs.

Exit codes: 0 pass, 1 suite failure, 2 config error, 3 runtime/numerics error
or any other failure (``exit_code``).
Outputs are written atomically (temp file + rename); CSV is RFC-4180 with
'.' decimals, and verdict.json carries the sampling provenance.  The only
non-reproducible field across reruns is the verdict timestamp.
"""

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import traceback
from dataclasses import asdict, replace
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__
from .errors import Blowup, ConfigError, HybridLabError, ParseError, ValidationError
from .experiments import (ModelConfig, SampleSizes, ScenarioConfig, SimSettings, SUITES,
                          TimeSettings, ToleranceSettings)
from .measure import MetricSpec, ensemble_at
from .model import COEFFICIENT_REGISTRY
from .simulate import integrate
from .switching import Generator, modes_on_grid, validate_generator


def _require(cond, field, constraint):
    if not cond:
        raise ValidationError(f"{field}: {constraint}")


def _model_config(raw):
    kind = raw.get("kind")
    _require(kind in ("controlled_linear", "registry"), "model.kind",
             "must be 'controlled_linear' or 'registry'")
    dim = int(raw.get("dim", 1))
    noise_dim = int(raw.get("noise_dim", 1))
    if kind == "registry":
        _require("name" in raw, "model.name", "registry models need a coefficient name")
        _require(raw["name"] in COEFFICIENT_REGISTRY, "model.name",
                 f"unknown registry model {raw['name']!r}; choose from "
                 f"{sorted(COEFFICIENT_REGISTRY)}")
        return ModelConfig(kind=kind, dim=dim, noise_dim=noise_dim, name=raw["name"],
                           rho=float(raw.get("rho", 0.1)),
                           delay_variant=raw.get("delay_variant", "none"))
    for key in ("drift", "gains", "diffusion"):
        _require(key in raw, f"model.{key}", "required for controlled_linear models")
    drift = tuple(np.asarray(mat, dtype=float) for mat in raw["drift"])
    gains = tuple(np.asarray(mat, dtype=float) for mat in raw["gains"])
    diffusion = tuple(tuple(np.asarray(c, dtype=float) for c in cols)
                      for cols in raw["diffusion"])
    return ModelConfig(kind=kind, dim=dim, noise_dim=noise_dim, drift_mats=drift,
                       gain_mats=gains, diffusion_cols=diffusion,
                       rho=float(raw.get("rho", 0.1)))


def _check_grid_alignment(model, sim, times, ladder):
    """Every time a suite integrates from or to must lie on each integration grid.

    The grids are rho / steps_per_rho for the model rho (sim.dt for a
    delay-free registry model) and, for controlled models, for every rho
    on the ladder.  The tolerance is the integrator's own.
    """
    k = sim.steps_per_rho
    delayed = model.kind == "controlled_linear" or model.delay_variant != "none"
    grids = [("model rho", model.rho / k if delayed else sim.dt)]
    if model.kind == "controlled_linear":
        grids += [(f"ladder rho={r:g}", r / k) for r in ladder]
    s, t, burn = times.s, times.t, times.t_burn
    points = [("s", s), ("t", t), ("t - t_burn", t - burn), ("s + horizon", s + times.horizon),
              ("s + pair_horizon", s + times.pair_horizon)]
    points += [(f"t - {n:g} (lookback)", t - n) for n in times.lookbacks]
    points += [(f"time_ladder {u:g}", u) for u in times.time_ladder]
    points += [(f"time_ladder {u:g} - t_burn", u - burn) for u in times.time_ladder]
    for grid, dt in grids:
        for name, v in points:
            _require(abs(round(v / dt) * dt - v) <= 1e-6 * dt, "times / grid alignment",
                     f"{name} = {v:g} is not a multiple of dt = {dt:g} ({grid})")


def parse_config(path):
    """Read and validate a scenario JSON file into a ScenarioConfig.

    Cheap checkers (generator validity, shapes, the linear contraction
    certificate when matrices are given) run eagerly; their results are
    recorded in the provenance block.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc

    _require("generator" in raw, "generator", "required")
    _require("model" in raw, "model", "required")
    try:
        gen = Generator(np.asarray(raw["generator"], dtype=float))
        validate_generator(gen)
    except HybridLabError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ValidationError(f"generator: {exc}") from exc
    model = _model_config(raw["model"])

    sim_raw = raw.get("sim", {})
    sim = SimSettings(steps_per_rho=int(sim_raw.get("steps_per_rho", 4)),
                      seed=int(sim_raw.get("seed", 20240613)),
                      blowup_guard=float(sim_raw.get("blowup_guard", 1e8)),
                      dt=float(sim_raw.get("dt", 0.01)))
    _require(sim.steps_per_rho >= 1, "sim.steps_per_rho", "must be >= 1")
    _require(np.isfinite(sim.blowup_guard) and sim.blowup_guard > 0, "sim.blowup_guard",
             "must be finite and positive")

    samples_raw = raw.get("samples", {})
    samples = SampleSizes(paths=int(samples_raw.get("paths", 400)),
                          starts=int(samples_raw.get("starts", 20)),
                          paths_per_start=int(samples_raw.get("paths_per_start", 10)))

    times_raw = raw.get("times", {})
    times = TimeSettings(
        s=float(times_raw.get("s", 0.0)),
        t=float(times_raw.get("t", 0.0)),
        t_burn=float(times_raw.get("t_burn", 20.0)),
        horizon=float(times_raw.get("horizon", 15.0)),
        pair_horizon=float(times_raw.get("pair_horizon", 2.0)),
        time_ladder=tuple(times_raw.get("time_ladder", [3.0, 7.0, 15.0])),
        lookbacks=tuple(times_raw.get("lookbacks", [5, 10, 20])),
    )

    tol_raw = raw.get("tolerances", {})
    tol = ToleranceSettings(
        eta=tuple(tol_raw.get("eta", [0.1])),
        atom_cap=int(tol_raw.get("atom_cap", 150)),
        calibration_pairs=int(tol_raw.get("calibration_pairs", 3)),
        eps_factor=float(tol_raw.get("eps_factor", 1.3)),
        eps_floor=float(tol_raw.get("eps_floor", 1e-7)),
        exceed_final=float(tol_raw.get("exceed_final", 0.05)),
    )

    metric = MetricSpec(mode_metric=raw.get("metric", {}).get("mode_metric", "label"))
    _require(metric.mode_metric in ("label", "discrete"), "metric.mode_metric",
             "must be 'label' or 'discrete'")

    ladder = tuple(float(r) for r in raw.get("rho_ladder", [0.4, 0.2, 0.1, 0.05]))
    _check_grid_alignment(model, sim, times, ladder)

    init_raw = raw.get("initial", {})
    initial_mode = int(init_raw.get("mode", 1))
    _require(1 <= initial_mode <= gen.n_states, "initial.mode",
             f"must lie in 1..{gen.n_states}, the modes of the generator")
    suites = tuple(raw.get("suites", ["stability"]))
    for name in suites:
        _require(name in SUITES, "suites", f"unknown suite {name!r}")

    provenance = {
        "version": __version__,
        "seed": sim.seed,
        "generator_valid": True,
    }
    cert = model.certificate(gen)
    if cert is not None:
        provenance["certificate"] = {"certified": cert.certified, "beta": cert.beta,
                                     "worst_mode": cert.worst_mode}

    try:
        return ScenarioConfig(
            scenario=raw.get("scenario", os.path.splitext(os.path.basename(path))[0]),
            model=model,
            generator=gen,
            metric=metric,
            sim=sim,
            samples=samples,
            times=times,
            rho_ladder=ladder,
            tolerances=tol,
            initial_values=tuple(init_raw.get("values", [0.0, 1.0])),
            initial_mode=initial_mode,
            suites=suites,
            expected_negative=bool(raw.get("expected_negative", False)),
            output_dir=raw.get("output_dir", "out"),
            provenance=provenance,
        )
    except HybridLabError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ValidationError(str(exc)) from exc


def _atomic_write(path, data: bytes):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _report_dir(cfg, out_override):
    base = out_override or cfg.output_dir
    return os.path.join(base, cfg.scenario)


def _primary_run(cfg):
    """(model, integrator settings, constant initial value) of a one-ensemble command."""
    model = cfg.model.build_primary(cfg.generator)
    rho = model.delay.rho if model.delay.variant != "none" else 0.0
    return model, cfg.sim_cfg(rho, cfg.sim.seed), np.full(model.dim, cfg.initial_values[-1])


def _apply_overrides(cfg, seed, dt_per_rho, atom_cap):
    if seed is not None:
        cfg = replace(cfg, sim=replace(cfg.sim, seed=seed),
                      provenance={**cfg.provenance, "seed": seed})
    if dt_per_rho is not None:
        cfg = replace(cfg, sim=replace(cfg.sim, steps_per_rho=dt_per_rho))
        _check_grid_alignment(cfg.model, cfg.sim, cfg.times, cfg.rho_ladder)
    if atom_cap is not None:
        cfg = replace(cfg, tolerances=replace(cfg.tolerances, atom_cap=atom_cap))
    return cfg


def exit_code(exc):
    """Exit status of a command that raised ``exc``: 2 for a scenario-configuration
    error, 3 for any other failure (runtime, numerics, or a fault in the program)."""
    return 2 if isinstance(exc, ConfigError) else 3


@contextlib.contextmanager
def _exit_on_error(where=""):
    """Exit with ``exit_code`` of an exception escaping the block, after one stderr line
    (a traceback for an exception that is not a HybridLabError).  Wraps each command
    body; ``where`` names the stage in Blowup messages."""
    try:
        yield
    except Exception as exc:
        if isinstance(exc, Blowup):
            click.echo(f"Blowup{where} at t={exc.t:.6g}, path {exc.path_index}", err=True)
        elif isinstance(exc, HybridLabError):
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
        else:
            traceback.print_exc()
        sys.exit(exit_code(exc))


@click.group()
def main():
    """Simulation and measurement laboratory for switching stochastic delay equations."""


CONFIG_OPT = click.option("--config", "config_path", required=True,
                          type=click.Path(), help="scenario JSON file")
SEED_OPT = click.option("--seed", type=int, default=None, help="override master seed")
OUT_OPT = click.option("--out", "out_dir", type=click.Path(), default=None,
                       help="override output directory")
CAP_OPT = click.option("--atom-cap", type=int, default=None,
                       help="override LP support cap")
DTK_OPT = click.option("--dt-per-rho", type=int, default=None,
                       help="override steps per observation interval")


@main.command()
@CONFIG_OPT
@_exit_on_error()
def validate(config_path):
    """Parse and validate a scenario; print its provenance block."""
    cfg = parse_config(config_path)
    click.echo(json.dumps({"scenario": cfg.scenario, "provenance": cfg.provenance},
                          indent=2, sort_keys=True))


@main.command()
@CONFIG_OPT
@SEED_OPT
@OUT_OPT
@DTK_OPT
@_exit_on_error()
def simulate(config_path, seed, out_dir, dt_per_rho):
    """Integrate one trajectory of the scenario model and export it as CSV."""
    cfg = _apply_overrides(parse_config(config_path), seed, dt_per_rho, None)
    model, sim, xi = _primary_run(cfg)
    s = cfg.times.s
    tr = integrate(model, s, xi, cfg.initial_mode, s + cfg.times.horizon, sim)
    modes = np.zeros(len(tr.times), dtype=int)
    inside = tr.times >= tr.start_time - 1e-12
    modes[inside] = modes_on_grid(tr.mode_path, np.clip(tr.times[inside], tr.start_time, None))
    rows = [("t",) + tuple(f"u_{i + 1}" for i in range(model.dim)) + ("mode",)]
    for i, t in enumerate(tr.times):
        rows.append((repr(float(t)),) + tuple(repr(float(v)) for v in tr.states[i])
                    + (str(int(modes[i])),))
    path = os.path.join(_report_dir(cfg, out_dir), "trajectory.csv")
    _write_csv(path, rows)
    click.echo(path)


@main.command()
@CONFIG_OPT
@SEED_OPT
@OUT_OPT
@CAP_OPT
@_exit_on_error()
def measure(config_path, seed, out_dir, atom_cap):
    """Estimate the time-t law by a burn-in ensemble and export the atom table."""
    cfg = _apply_overrides(parse_config(config_path), seed, None, atom_cap)
    model, sim, xi = _primary_run(cfg)
    t = cfg.times.t
    mu = ensemble_at(model, t - cfg.times.t_burn, xi, cfg.initial_mode, t,
                     cfg.samples.paths, sim)
    width = mu.values.shape[1]
    if mu.space_tag == "H0":
        names = tuple(f"x_{c + 1}" for c in range(model.dim))
    elif model.dim == 1:
        names = tuple(f"seg_{i}" for i in range(width))
    else:  # node-major: seg_<node>_<coordinate>
        names = tuple(f"seg_{i}_{c + 1}" for i in range(width) for c in range(model.dim))
    rows = [("weight", "mode") + names]
    for v, j, w in zip(mu.values.reshape(len(mu.modes), -1).tolist(), mu.modes.tolist(),
                       mu.weights.tolist()):
        rows.append((repr(w), str(j)) + tuple(map(repr, v)))
    path = os.path.join(_report_dir(cfg, out_dir), "measure.csv")
    _write_csv(path, rows)
    click.echo(path)


@main.command()
@CONFIG_OPT
@SEED_OPT
@OUT_OPT
@CAP_OPT
@DTK_OPT
@_exit_on_error()
def suite(config_path, seed, out_dir, atom_cap, dt_per_rho):
    """Run every suite listed in the scenario and write CSV + verdict.json."""
    cfg = _apply_overrides(parse_config(config_path), seed, dt_per_rho, atom_cap)
    out = _report_dir(cfg, out_dir)
    verdict = {
        "scenario": cfg.scenario,
        "provenance": cfg.provenance,
        "suites": [],
    }
    all_passed = True
    first_fail = None
    for name in cfg.suites:
        with _exit_on_error(f" in suite {name}"):
            report = SUITES[name](cfg)
        _write_csv(os.path.join(out, f"{name}.csv"), report.csv_rows())
        verdict["suites"].append({
            "suite": name,
            "passed": report.passed,
            "eps_stat": report.eps_stat,
            "tolerances": report.tolerances,
            "seed": report.seed,
            "notes": report.notes,
        })
        if not report.passed and first_fail is None:
            first_fail = name
        all_passed = all_passed and report.passed
    verdict["passed"] = all_passed
    # timestamp is excluded from reproducibility comparisons
    verdict["timestamp"] = datetime.now(timezone.utc).isoformat()
    _atomic_write(os.path.join(out, "verdict.json"),
                  (json.dumps(verdict, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    if not all_passed:
        click.echo(f"suite failed: {first_fail}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main(prog_name="hybridlab")
