"""Workloads: inputs made from the seed, one round of operations, output checks.

A round is the same list of operations every time, so the share of
failed operations does not depend on the seed or on the run length.

- ``certified_suite``: the five suites on a scaled copy of the shipped
  certified scalar scenario, one ``hybridlab suite`` invocation each.
- ``fast_switching``: a certified 3-mode, 2-d scenario whose chain leaves
  every mode at rate 30; ``suite`` (existence, stability,
  endpoint_convergence), then ``measure``, then ``simulate``.
- ``bl_uniform`` / ``bl_weighted``: direct ``bl_distance`` calls on
  generated measures; equal-size uniform pairs (the suite case) and
  unequal-size, non-uniform pairs (which must stay on the general solver).

CLI operations count as completed on exit code 0 (pass) or 1 (statistical
suite failure); any other exit code, a missing or malformed output, or a
failed property counts as a failed operation.  Suite verdicts are
recorded, not checked.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
import traceback

from perfbench.tracer import SUITE_NAMES as SUITES

CLI_TIMEOUT_S = 150
ATOM_CAP = 150     # scenarios, as in the shipped configs
# direct bl_distance calls: many LPs of at most 120 atoms rather than a few large
# ones, since a solve's time varies by 10-20% with its inputs and many small
# solves average that out within a round
BL_ATOM_CAP = 60
BL_TOL = 1e-8       # LP against the oracle (the repo's exactness bound)
METRIC_TOL = 1e-9   # symmetry, triangle inequality, d(mu, mu) = 0
SE_LIMIT = 4.5      # binomial standard errors allowed for mode frequencies
MEASURE_PATHS = 400  # atoms of the fast_switching measure.csv
LAUNCHER = os.path.join("perfbench", "hlab.py")
STARTUP_PROBE = ["-c", "import sys; sys.path.insert(0, 'src'); import hybridlab.cli"]


# -- running the CLI ----------------------------------------------------------

class Runner:
    """Runs ``hybridlab`` commands, returning (exit code, stdout, stderr, seconds).

    Each command runs as a child process, as a user runs it, except while
    ``tracer`` is installed: then it runs in this process, where the tracer
    sees its calls, and a child process that only starts the interpreter and
    imports ``hybridlab.cli`` stands in for the start-up the in-process run
    skips; it is recorded as the span ``cli.startup``."""

    def __init__(self, root, tracer=None):
        self.root = root
        self.tracer = tracer

    def cli(self, *args):
        if self.tracer is not None and self.tracer.installed:
            startup = self.tracer.call("cli.startup", self._child, STARTUP_PROBE)[3]
            code, out, err, seconds = self._in_process(list(args))
            return code, out, err, startup + seconds
        return self._child([LAUNCHER, *args])

    def _child(self, argv):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=self.root,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return None, "", f"timeout after {exc.timeout} s", time.perf_counter() - start
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start

    def _in_process(self, args):
        from hybridlab.cli import main

        def invoke():
            try:
                main.main(args=args, prog_name="hybridlab", standalone_mode=False)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an escaped error exits 1, as the interpreter would
                traceback.print_exc()
                return 1
            return 0

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tracer.call(f"cli.{args[0]}", invoke)
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


# -- scenarios -----------------------------------------------------------------

def certified_scalar(seed):
    """Scaled copy of configs/certified_scalar.json (same model and chain)."""
    return {
        "scenario": "certified_scalar_scaled",
        "generator": [[-1.0, 1.0], [2.0, -2.0]],
        "model": {"kind": "controlled_linear", "dim": 1, "noise_dim": 1,
                  "drift": [[[1.0]], [[1.0]]], "gains": [[[-2.0]], [[-2.0]]],
                  "diffusion": [[[[0.5]]], [[[0.5]]]], "rho": 0.1},
        "sim": {"steps_per_rho": 4, "seed": seed},
        "samples": {"paths": 32, "starts": 4, "paths_per_start": 8},
        "times": {"t": 0.0, "t_burn": 3.0, "horizon": 3.0,
                  "time_ladder": [1.0, 2.0, 3.0], "lookbacks": [1, 2, 4]},
        "rho_ladder": [0.4, 0.2, 0.1, 0.05],
        "tolerances": {"atom_cap": ATOM_CAP},
        "initial": {"values": [0.0, 1.0], "mode": 1},
        "suites": list(SUITES),
    }


def fast_switching(seed, rng):
    """Certified 3-mode, 2-d, 2-noise model; every mode is left at rate 30.
    The split of each exit rate between the other two modes comes from the seed."""
    generator = []
    for i in range(3):
        a = float(rng.randint(6, 24))
        row = [0.0, 0.0, 0.0]
        others = [j for j in range(3) if j != i]
        row[others[0]], row[others[1]], row[i] = a, 30.0 - a, -30.0
        generator.append(row)
    return {
        "scenario": "fast_switching",
        "generator": generator,
        "model": {"kind": "controlled_linear", "dim": 2, "noise_dim": 2,
                  "drift": [[[0.5, 1.0], [-1.0, 0.5]], [[0.3, -0.5], [0.8, 0.2]],
                            [[0.6, 0.0], [0.4, -0.2]]],
                  "gains": [[[-2.0, 0.0], [0.0, -2.0]]] * 3,
                  "diffusion": [[[[0.3, 0.0], [0.0, 0.3]], [[0.0, 0.2], [0.2, 0.0]]]] * 3,
                  "rho": 0.1},
        "sim": {"steps_per_rho": 4, "seed": seed},
        "samples": {"paths": 40, "starts": 5, "paths_per_start": 8},
        "times": {"t": 0.0, "t_burn": 2.0, "horizon": 10.0,
                  "time_ladder": [1.0, 2.0, 3.0], "lookbacks": [1, 2, 4]},
        "rho_ladder": [0.4, 0.2, 0.1, 0.05],
        "tolerances": {"atom_cap": ATOM_CAP},
        "initial": {"values": [0.0, 1.0], "mode": 1},
        "suites": ["existence", "stability", "endpoint_convergence"],
    }


# -- output checks -------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_suite(report_dir, suites, paths):
    """Suite CSVs and verdict.json: distances in [0, 2], probabilities and
    exceedances in [0, 1], exceedances multiples of 1/paths."""
    problems, outputs = [], {}
    with open(os.path.join(report_dir, "verdict.json"), encoding="utf-8") as fh:
        verdict = json.load(fh)
    named = [s["suite"] for s in verdict["suites"]]
    if named != list(suites):
        problems.append(f"verdict lists suites {named}, expected {list(suites)}")
    for name in suites:
        path = os.path.join(report_dir, f"{name}.csv")
        rows = _read_csv(path)
        outputs[name] = _read_bytes(path)
        if rows[0] != ["suite", "row", "value", "tolerance", "passed", "note"]:
            problems.append(f"{name}.csv: header {rows[0]}")
        for row in rows[1:]:
            label, value = row[1], float(row[2])
            if row[0] != name or not math.isfinite(value):
                problems.append(f"{name}.csv: bad row {row}")
            elif "distance" in label and not 0.0 <= value <= 2.0:
                problems.append(f"{name}.csv: {label}={value} outside [0, 2]")
            elif ("exceedance" in label or "P(" in label) and not 0.0 <= value <= 1.0:
                problems.append(f"{name}.csv: {label}={value} outside [0, 1]")
            elif "exceedance" in label and abs(value * paths - round(value * paths)) > 1e-9:
                problems.append(f"{name}.csv: {label}={value} not a multiple of 1/{paths}")
    verdict.pop("timestamp", None)
    outputs["verdict"] = json.dumps(verdict, sort_keys=True).encode()
    passed = {s["suite"]: bool(s["passed"]) for s in verdict["suites"]}
    return problems, outputs, passed


def check_measure(report_dir, paths, stationary):
    """Atom table: `paths` uniform atoms, and mode frequencies within
    SE_LIMIT binomial standard errors of the stationary law."""
    path = os.path.join(report_dir, "measure.csv")
    rows = _read_csv(path)
    problems = []
    if rows[0][:2] != ["weight", "mode"] or len(rows) - 1 != paths:
        problems.append(f"measure.csv: header {rows[0][:2]} with {len(rows) - 1} atoms")
    counts = [0] * len(stationary)
    for row in rows[1:]:
        weight, mode = float(row[0]), int(row[1])
        if abs(weight - 1.0 / paths) > 1e-12 or not 1 <= mode <= len(stationary):
            problems.append(f"measure.csv: bad atom {row[:2]}")
            continue
        if not all(math.isfinite(float(v)) for v in row[2:]):
            problems.append("measure.csv: non-finite segment value")
        counts[mode - 1] += 1
    for j, (c, p) in enumerate(zip(counts, stationary)):
        se = math.sqrt(p * (1.0 - p) / paths)
        if abs(c / paths - p) > SE_LIMIT * se:
            problems.append(f"measure.csv: mode {j + 1} frequency {c / paths:.4f} "
                            f"vs stationary {p:.4f} (se {se:.4f})")
    return problems, {"measure": _read_bytes(path)}


def check_trajectory(report_dir, start, end, rho, steps_per_rho, n_modes, dim):
    """Strictly increasing times covering every base-grid node of
    [start - rho, end], finite states, modes in 1..n_modes from ``start`` on."""
    path = os.path.join(report_dir, "trajectory.csv")
    rows = _read_csv(path)
    problems = []
    if len(rows[0]) != dim + 2:
        problems.append(f"trajectory.csv: header {rows[0]}")
    times = [float(r[0]) for r in rows[1:]]
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("trajectory.csv: times not strictly increasing")
    for t, r in zip(times, rows[1:]):
        # rows of the initial segment (t < start) carry mode 0 by the CSV's convention
        mode_ok = 1 <= int(r[-1]) <= n_modes if t >= start - 1e-12 else int(r[-1]) == 0
        if not all(math.isfinite(float(v)) for v in r[1:-1]) or not mode_ok:
            problems.append(f"trajectory.csv: bad row {r}")
            break
    dt = rho / steps_per_rho
    first, last = round((start - rho) / dt), round(end / dt)
    node_set = {round(t / dt) for t in times if abs(t / dt - round(t / dt)) < 1e-6}
    missing = [i for i in range(first, last + 1) if i not in node_set]
    if missing:
        problems.append(f"trajectory.csv: {len(missing)} base-grid nodes missing")
    return problems, {"trajectory": _read_bytes(path)}


# -- workloads -----------------------------------------------------------------

class CliWorkload:
    """A scenario driven through ``hybridlab`` invocations."""

    def __init__(self, name, seed, workdir):
        rng = random.Random(f"{name}:{seed}")
        sim_seed = rng.randrange(1, 2**31)
        self.name = name
        self.workdir = workdir
        if name == "certified_suite":
            base = certified_scalar(sim_seed)
            configs = {s: dict(base, suites=[s]) for s in SUITES}
            self.ops = [(f"suite:{s}", "suite", s) for s in SUITES]
        else:
            base = fast_switching(sim_seed, rng)
            # the mode-frequency check on measure.csv needs more atoms than the
            # suites do to detect a mode that is never visited
            configs = {"suite": base,
                       "measure": dict(base, samples=dict(base["samples"], paths=MEASURE_PATHS))}
            self.ops = [("suite", "suite", "suite"), ("measure", "measure", "measure"),
                        ("simulate", "simulate", "suite")]
        self.scenario = base
        self.scenarios = configs
        self.suites = {key: cfg["suites"] for key, cfg in configs.items()}
        self.configs = {}
        os.makedirs(workdir, exist_ok=True)
        for key, cfg in configs.items():
            path = os.path.join(workdir, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1)
            self.configs[key] = path
        self.first_outputs = {}
        self.problems = []       # correctness: validate, determinism
        self.failures = []       # failed operations
        self.verdicts = []
        self.op_seconds = [[] for _ in self.ops]   # per operation, one entry per round
        self.validate_stdout = None

    @property
    def ops_per_round(self):
        return len(self.ops)

    def setup(self, runner):
        """The program's cold set-up: ``hybridlab validate`` of the scenario in
        a fresh process (interpreter start, import, parse).  Returns its seconds."""
        code, out, err, seconds = runner.cli("validate", "--config",
                                             next(iter(self.configs.values())))
        self.validate_stdout = out if code == 0 else None
        if code != 0:
            self.problems.append(f"validate exited {code}: {err.strip()[-300:]}")
        return seconds

    def check_setup(self):
        from perfbench import oracle

        if self.validate_stdout is None:
            return
        try:
            cert = json.loads(self.validate_stdout)["provenance"]["certificate"]
        except (ValueError, KeyError) as exc:
            self.problems.append(f"validate: no certificate in provenance ({exc})")
            return
        m = self.scenario["model"]
        beta = oracle.contraction_beta(m["drift"], m["gains"], m["diffusion"],
                                       self.scenario["generator"])
        if not cert.get("certified") or abs(cert["beta"] - beta) > 1e-9 * max(1.0, abs(beta)):
            self.problems.append(f"validate: certificate {cert}, expected beta {beta!r}")

    def run_round(self, runner):
        """One pass over the operations; returns the summed invocation time."""
        total = 0.0
        for i, (label, command, key) in enumerate(self.ops):
            out_dir = os.path.join(self.workdir, "out", label.replace(":", "_"))
            shutil.rmtree(out_dir, ignore_errors=True)   # no stale outputs from a prior round
            code, _, err, seconds = runner.cli(command, "--config", self.configs[key],
                                               "--out", out_dir)
            total += seconds
            self.op_seconds[i].append(seconds)
            if code not in (0, 1):
                self.failures.append(f"{label}: exit {code}: {err.strip()[-300:]}")
                continue
            try:
                problems, outputs = self._check(label, command, key, out_dir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems, outputs = [f"missing or malformed output: {exc!r}"], {}
            if problems:
                self.failures.append(f"{label}: " + "; ".join(problems[:3]))
                continue
            for name, data in outputs.items():
                first = self.first_outputs.setdefault((label, name), data)
                if data != first:
                    self.problems.append(f"{label}: {name} differs between identical runs")
        return total

    def _check(self, label, command, key, out_dir):
        from perfbench import oracle

        sc = self.scenarios[key]
        report_dir = os.path.join(out_dir, sc["scenario"])
        paths = sc["samples"]["paths"]
        if command == "suite":
            problems, outputs, passed = check_suite(report_dir, self.suites[key], paths)
            self.verdicts.append(passed)
            return problems, outputs
        if command == "measure":
            return check_measure(report_dir, paths, oracle.stationary_law(sc["generator"]))
        m = sc["model"]
        start = sc["times"].get("s", 0.0)
        return check_trajectory(report_dir, start, start + sc["times"]["horizon"], m["rho"],
                                sc["sim"]["steps_per_rho"], len(sc["generator"]), m["dim"])

    def summary(self):
        return {"ops": {label: times for (label, _, _), times in zip(self.ops, self.op_seconds)},
                "verdicts": self.verdicts, "sim_seed": self.scenario["sim"]["seed"]}


class BlWorkload:
    """Direct ``bl_distance`` calls on measures generated from the seed."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.calls = []          # (label, index of mu, index of nu)
        self.atoms = []          # (kind, values, modes, multiplicities or None)
        self.problems = []
        self.failures = []
        self.values = None
        self.op_seconds = []     # per call, one entry per round

    @property
    def ops_per_round(self):
        return len(self.calls)

    # inputs: segment laws are random walks over 5 nodes in R^2 with a
    # law-dependent start shift; modes follow a law-dependent categorical law.

    def _draw(self, kind, n, law, mult_total=None):
        import numpy as np

        rng = self.rng
        shift, probs = [(0.0, (0.5, 0.3, 0.2)), (0.0, (0.5, 0.3, 0.2)),
                        (0.3, (0.4, 0.35, 0.25))][law]
        if kind == "H":
            start = rng.normal(shift, 0.5, size=(n, 1, 2))
            vals = start + np.cumsum(rng.normal(0.0, 0.15, size=(n, 5, 2)), axis=1)
        else:
            vals = rng.normal(shift, 0.5, size=(n, 2))
        modes = rng.choice(3, size=n, p=probs) + 1
        mult = None
        if mult_total is not None:      # rational weights k_i / K, all k_i >= 1
            extra = rng.multinomial(mult_total - n, np.full(n, 1.0 / n))
            mult = 1 + extra
        self.atoms.append((kind, vals, modes, mult))
        return len(self.atoms) - 1

    def _pair(self, label, a, b):
        self.calls.append((label, a, b))

    def _triangle(self, label, a, b, c):
        for x, y in ((a, b), (b, c), (a, c), (b, a), (a, a)):
            self._pair(label, x, y)

    def _uniform_inputs(self):
        for k in range(16):
            self._pair(f"H 50+50 law {1 + k % 2}", self._draw("H", 50, 0),
                       self._draw("H", 50, 1 + k % 2))
        for _ in range(8):
            self._pair("H0 50+50 shifted", self._draw("H0", 50, 0), self._draw("H0", 50, 2))
        for _ in range(3):
            self._pair("H0 point masses", self._draw("H0", 1, 0), self._draw("H0", 1, 2))
        self._triangle("H0 40-atom triangle", self._draw("H0", 40, 0), self._draw("H0", 40, 1),
                       self._draw("H0", 40, 2))

    def _weighted_inputs(self):
        for k in range(8):
            self._pair(f"H 50 vs 30, K=80, law {1 + k % 2}", self._draw("H", 50, 0, 80),
                       self._draw("H", 30, 1 + k % 2, 80))
        for _ in range(8):
            self._pair("H 35 vs 55, K=90", self._draw("H", 35, 0, 90),
                       self._draw("H", 55, 2, 90))
        for _ in range(8):
            self._pair("H0 55 vs 35, K=90", self._draw("H0", 55, 0, 90),
                       self._draw("H0", 35, 2, 90))
        for _ in range(4):
            self._pair("H 80 uniform (above cap) vs 40, K=80", self._draw("H", 80, 0),
                       self._draw("H", 40, 2, 80))
        self._triangle("H0 30/45/60-atom weighted triangle", self._draw("H0", 30, 0, 90),
                       self._draw("H0", 45, 1, 90), self._draw("H0", 60, 2, 90))

    def setup(self, runner):
        """The program's cold set-up: import hybridlab (and with it numpy and
        scipy) and build the measures.  The benchmark draws the inputs in
        between, untimed.  Returns the set-up seconds."""
        start = time.perf_counter()
        from hybridlab import measure
        from hybridlab.simulate import SegmentGrid
        seconds = time.perf_counter() - start

        import numpy as np
        self.rng = np.random.default_rng([self.seed, 1 if self.name == "bl_uniform" else 2])
        if self.name == "bl_uniform":
            self._uniform_inputs()
        else:
            self._weighted_inputs()
        self.op_seconds = [[] for _ in self.calls]

        start = time.perf_counter()
        self.measure = measure
        self.spec = measure.MetricSpec()
        self.measures = []
        for kind, vals, modes, mult in self.atoms:
            weights = None if mult is None else mult / mult.sum()
            if kind == "H":
                segs = [SegmentGrid(rho=0.1, values=v, mode=int(j)) for v, j in zip(vals, modes)]
                self.measures.append(measure.EmpiricalMeasure.from_segments(segs, weights))
            else:
                pts = [(v, int(j)) for v, j in zip(vals, modes)]
                self.measures.append(measure.EmpiricalMeasure.from_state_points(pts, weights))
        # one tiny solve finishes the solver's lazy initialisation inside set-up
        point = measure.EmpiricalMeasure.from_state_points([([0.0, 0.0], 1)])
        measure.bl_distance(point, point, self.spec)
        return seconds + time.perf_counter() - start

    def check_setup(self):
        pass

    def run_round(self, runner):
        """One pass over the calls; returns the summed solve time."""
        total = 0.0
        values = []
        for i, (label, a, b) in enumerate(self.calls):
            bl_distance = self.measure.bl_distance    # looked up per call, so it can be traced
            start = time.perf_counter()
            try:
                d = bl_distance(self.measures[a], self.measures[b], self.spec, atom_cap=BL_ATOM_CAP)
            except Exception as exc:  # any solver error is a failed operation
                d = None
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
            total += seconds
            self.op_seconds[i].append(seconds)
            values.append(d)
        if self.values is None:
            self.values = values
            self._check_values()
        elif values != self.values:
            self.problems.append("bl_distance differs between identical calls")
        return total

    def _check_values(self):
        """Oracle and metric-property checks on the first round's values."""
        import numpy as np
        from perfbench import oracle

        def dist(a, b):
            ka, va, ma, _ = self.atoms[a]
            kb, vb, mb, _ = self.atoms[b]
            return oracle.ground_distances(ka, va, ma, vb, mb)

        def expand(i, d, axis):
            mult = self.atoms[i][3]
            return d if mult is None else np.take(d, oracle.replicate(mult), axis=axis)

        got = {}
        for (label, a, b), d in zip(self.calls, self.values):
            if d is None:
                continue
            got[(a, b)] = d
            if not 0.0 <= d <= 2.0:
                self.problems.append(f"{label}: d={d!r} outside [0, 2]")
            if a == b:
                if d > METRIC_TOL:
                    self.problems.append(f"{label}: d(mu, mu)={d!r}")
                continue
            sizes = [len(self.atoms[i][1]) if self.atoms[i][3] is None
                     else int(self.atoms[i][3].sum()) for i in (a, b)]
            if max(len(self.atoms[a][1]), len(self.atoms[b][1])) > BL_ATOM_CAP:
                continue                       # subsampled by the program: bounds only
            if sizes[0] != sizes[1]:
                self.problems.append(f"{label}: oracle needs equal replicated sizes {sizes}")
                continue
            cost = expand(b, expand(a, dist(a, b), 0), 1)
            if cost.shape == (1, 1):
                want = oracle.bl_point_mass(float(cost[0, 0]))
            else:
                want = oracle.bl_uniform(cost)
            if abs(d - want) > BL_TOL:
                self.problems.append(f"{label}: LP {d!r} vs oracle {want!r}")
            if d > oracle.w1_uniform(cost) + METRIC_TOL:
                self.problems.append(f"{label}: BL {d!r} exceeds W1")
        for (a, b), d in got.items():
            if (b, a) in got and abs(d - got[(b, a)]) > METRIC_TOL:
                self.problems.append(f"asymmetric: d({a},{b})={d!r}, d({b},{a})={got[(b, a)]!r}")
            for c in {k[1] for k in got if k[0] == b}:
                if (a, c) in got and a != c and got[(a, c)] > d + got[(b, c)] + METRIC_TOL:
                    self.problems.append(f"triangle fails on measures {a}, {b}, {c}")

    def summary(self):
        return {"calls": [(label, times, v) for (label, _, _), times, v
                          in zip(self.calls, self.op_seconds, self.values or [None] * len(self.calls))]}


WORKLOADS = ("certified_suite", "fast_switching", "bl_uniform", "bl_weighted")


def make(name, seed, workdir):
    if name in ("certified_suite", "fast_switching"):
        return CliWorkload(name, seed, workdir)
    return BlWorkload(name, seed)
