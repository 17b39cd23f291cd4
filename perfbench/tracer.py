"""Outside-in tracer: spans around hybridlab's public functions.

The tracer replaces a public function by a timing wrapper in every
hybridlab module that binds it (``from .measure import bl_distance`` makes
``hybridlab.experiments.bl_distance`` a binding of its own), so calls made
inside the program are seen without changing its source.  Spans are kept
in memory as [name, start, end, parent] and written out when the run
ends.  A layer's self time is its spans' durations minus the durations of
their direct children.  A function that a later refactor removes is
skipped and listed as absent.
"""

import dataclasses
import importlib
import json
import time
from collections import Counter, defaultdict

MODULES = ("switching", "model", "simulate", "measure", "experiments", "cli")

INTEGRATORS = ("integrate", "integrate_pair", "integrate_coupled_delay_limit",
               "integrate_ensemble")
SUITE_NAMES = ("existence", "periodicity", "stability", "endpoint_convergence",
               "delay_limit")
MODEL_BUILDERS = ("build_controlled_model", "build_delay_free_model", "registry_model")

PER_LAYER = (
    ("switching.sample_mode_path.s", "s"),
    ("switching.sample_mode_path.calls", "count"),
    ("switching.jumps", "count"),
    ("simulate.integrate.self_s", "s"),
    ("simulate.integrate.calls", "count"),
    ("simulate.paths", "count"),
    ("simulate.path_steps", "count"),
    ("simulate.jump_substeps", "count"),
    ("simulate.s_per_kstep", "s/kstep"),
    ("simulate.segment_at.s", "s"),
    ("simulate.segment_at.calls", "count"),
    ("model.coeff_calls", "count"),
    ("measure.ensemble_at.self_s", "s"),
    ("measure.ensemble_at.calls", "count"),
    ("measure.kb_average.self_s", "s"),
    ("measure.project_T.s", "s"),
    ("measure.tightness_report.s", "s"),
    ("measure.bl_distance.self_s", "s"),
    ("measure.bl_distance.calls", "count"),
    ("measure.subsampled", "count"),
    ("measure.lp_solve.s", "s"),
    ("measure.lp_calls", "count"),
    ("measure.lp_atoms", "count"),
    ("measure.lp_rows", "count"),
    ("measure.lp_nnz", "count"),
    ("measure.lp_iterations", "count"),
) + tuple((f"experiments.{name}.s", "s") for name in SUITE_NAMES) + (
    ("experiments.self_s", "s"),
    ("cli.parse_config.s", "s"),
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("trace.layers_s", "s"),
    ("trace.overhead_s", "s"),
)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Span recorder; ``install`` patches hybridlab, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.absent = []
        self._patches = []

    @property
    def installed(self):
        return bool(self._patches)

    def span(self, name, fn, on_return=None):
        """Wrap ``fn`` so that each call records a span.

        ``on_return(args, kwargs, result)`` may add counts; it runs inside
        the span.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    try:
                        on_return(args, kwargs, result)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        tracer.mark_absent(f"{name} counts")
                return result
            finally:
                tracer.stack.pop()
                rec[2] = time.perf_counter()

        return wrapper

    def mark_absent(self, what):
        if what not in self.absent:
            self.absent.append(what)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (for calls the benchmark makes)."""
        return self.span(name, fn)(*args, **kwargs)

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def _wrap_everywhere(self, mods, home, attr, wrap):
        """Replace ``home.attr`` by ``wrap(original)`` in every module binding it."""
        original = getattr(mods[home], attr, None)
        if original is None:
            self.mark_absent(f"{home}.{attr}")
            return
        wrapped = wrap(original)
        for mod in mods.values():
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapped)

    def install(self):
        mods = {m: importlib.import_module(f"hybridlab.{m}") for m in MODULES}
        counts = self.counts
        default_cap = getattr(mods["measure"], "DEFAULT_ATOM_CAP", 0)

        def on_mode_path(args, kwargs, path):
            counts["switching.jumps"] += len(path.jump_times)

        def on_integrate(args, kwargs, tr):
            dt = _arg(args, kwargs, 5, "cfg").dt
            nodes = tr.times[tr.times >= tr.start_time - 1e-12]
            steps = len(nodes) - 1
            counts["simulate.paths"] += 1
            counts["simulate.path_steps"] += steps
            counts["simulate.jump_substeps"] += steps - round((nodes[-1] - nodes[0]) / dt)

        def on_bl(args, kwargs, result):
            cap = _arg(args, kwargs, 3, "atom_cap", default_cap)
            sizes = [len(args[0].weights), len(args[1].weights)]
            counts["measure.subsampled"] += sum(n > cap for n in sizes)
            counts["measure.lp_atoms"] += sum(min(n, cap) for n in sizes)

        def on_lp(args, kwargs, res):
            a = kwargs.get("A_ub")
            counts["measure.lp_calls"] += 1
            if a is not None:
                counts["measure.lp_rows"] += a.shape[0]
                counts["measure.lp_nnz"] += getattr(a, "nnz", a.size)
            counts["measure.lp_iterations"] += int(getattr(res, "nit", 0) or 0)

        def spans(name, hook=None):
            return lambda fn: self.span(name, fn, hook)

        self._wrap_everywhere(mods, "switching", "sample_mode_path",
                              spans("switching.sample_mode_path", on_mode_path))
        self._wrap_everywhere(mods, "simulate", "integrate",
                              spans("simulate.integrate", on_integrate))
        for attr in INTEGRATORS[1:]:
            self._wrap_everywhere(mods, "simulate", attr, spans("simulate.integrate"))
        self._wrap_everywhere(mods, "simulate", "segment_at", spans("simulate.segment_at"))
        for attr in ("ensemble_at", "kb_average", "project_T", "tightness_report"):
            self._wrap_everywhere(mods, "measure", attr, spans(f"measure.{attr}"))
        self._wrap_everywhere(mods, "measure", "bl_distance", spans("measure.bl_distance", on_bl))
        self._wrap_everywhere(mods, "measure", "linprog", spans("measure.lp_solve", on_lp))
        self._wrap_everywhere(mods, "cli", "parse_config", spans("cli.parse_config"))
        for attr in MODEL_BUILDERS:
            self._wrap_everywhere(mods, "model", attr, self._counting_builder)
        suites = getattr(mods["experiments"], "SUITES", {})
        for name in SUITE_NAMES:
            if name in suites:
                self._patch(suites, name, self.span(f"experiments.{name}", suites[name]))
            else:
                self.mark_absent(f"experiments.SUITES[{name!r}]")

    def _counting_builder(self, builder):
        """Builder whose models count drift and diffusion evaluations."""
        counts = self.counts

        def count(fn):
            def counted(*args):
                counts["model.coeff_calls"] += 1
                return fn(*args)
            return counted

        def build(*args, **kwargs):
            model = builder(*args, **kwargs)
            try:
                return dataclasses.replace(model, drift=count(model.drift),
                                           diffusion=count(model.diffusion))
            except (TypeError, ValueError):
                self.mark_absent("model.coeff_calls")
                return model
        return build

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def layer_totals(self):
        """(inclusive seconds, self seconds, calls) per span name."""
        incl = defaultdict(float)
        selfs = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            incl[name] += end - start
            selfs[name] += (end - start) - child[i]
            calls[name] += 1
        return incl, selfs, calls

    def metrics(self, rounds, overhead_s):
        """Per-layer metrics, per traced round."""
        incl, selfs, calls = self.layer_totals()
        c = self.counts
        totals = {
            "switching.sample_mode_path.s": incl["switching.sample_mode_path"],
            "switching.sample_mode_path.calls": calls["switching.sample_mode_path"],
            "simulate.integrate.self_s": selfs["simulate.integrate"],
            "simulate.integrate.calls": calls["simulate.integrate"],
            "simulate.segment_at.s": incl["simulate.segment_at"],
            "simulate.segment_at.calls": calls["simulate.segment_at"],
            "measure.ensemble_at.self_s": selfs["measure.ensemble_at"],
            "measure.ensemble_at.calls": calls["measure.ensemble_at"],
            "measure.kb_average.self_s": selfs["measure.kb_average"],
            "measure.project_T.s": incl["measure.project_T"],
            "measure.tightness_report.s": incl["measure.tightness_report"],
            "measure.bl_distance.self_s": selfs["measure.bl_distance"],
            "measure.bl_distance.calls": calls["measure.bl_distance"],
            "measure.lp_solve.s": incl["measure.lp_solve"],
            "experiments.self_s": sum(v for k, v in selfs.items() if k.startswith("experiments.")),
            "cli.parse_config.s": incl["cli.parse_config"],
            "cli.startup_s": incl["cli.startup"],
            "cli.self_s": sum(v for k, v in selfs.items()
                              if k.startswith("cli.") and k not in ("cli.parse_config",
                                                                     "cli.startup")),
            "trace.layers_s": sum(selfs.values()),
        }
        for name in SUITE_NAMES:
            totals[f"experiments.{name}.s"] = incl[f"experiments.{name}"]
        steps = c["simulate.path_steps"]
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead_s
            elif name == "simulate.s_per_kstep":
                value = selfs["simulate.integrate"] / (steps / 1000.0) if steps else 0.0
            else:
                value = totals.get(name, c[name]) / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "absent": self.absent,
                       "counts": dict(self.counts), "spans": self.spans}, fh)
