"""Outside-in tracing of delay_wave_lab for the traced benchmark run.

`Tracer.install` wraps, from the benchmark's side and without editing the
program, the public functions of the seven package modules, the private
``_winding_number`` and ``_newton`` of ``spectral`` (the winding and Newton
metrics need them), the scipy factor, solve and eigen calls that
``timestepper`` and ``spectral`` make, and ``DiscreteGenerator.energy``.
Each wrapped call becomes a span (name, start, end, parent).  Calls made
thousands of times per pass -- one time-step solve, one energy, one
characteristic-function value, one triangular solve of the power iteration
-- are leaves: they add to a count and a time, and their time is charged to
the enclosing span, instead of each becoming a span of its own.

A span's self time is its duration minus its child spans and leaves; a
layer's self time is the sum over its spans and leaves.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter

LAYERS = ("cli", "core", "discretization", "timestepper", "spectral",
          "analysis", "verification")
PRIVATE_SPANS = {"spectral": ("_winding_number", "_newton")}
# (module, attribute holding a scipy module) -> (span calls, leaf calls)
SCIPY_CALLS = {
    ("timestepper", "sla"): (("lu_factor",), ("lu_solve",)),
    ("spectral", "sla"): (("eig",), ("cho_solve",)),
    ("spectral", "lapack"): (("zgetrf", "zgecon"), ("zgetrs",)),
}
VERIFY_CHECKS = ("shift_identity", "dissipativity", "energy_monotonicity",
                 "robin_oracle", "spectrum_location", "characteristic_oracle",
                 "figure1_classifications", "kelvin_voigt_decay",
                 "shift_consistency", "resolvent_scan", "polynomial_bound")

# name, unit, better; the order is the order of BENCHMARK.json's per_layer
PER_LAYER = [
    ("cli.parse_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("core.sample_ms", "ms", "lower"),
    ("core.self_ms", "ms", "lower"),
    ("discretization.assemble_ms", "ms", "lower"),
    ("discretization.assemble_calls", "count", "lower"),
    ("discretization.symeig_ms", "ms", "lower"),
    ("discretization.self_ms", "ms", "lower"),
    ("timestepper.factor_ms", "ms", "lower"),
    ("timestepper.solve_ms", "ms", "lower"),
    ("timestepper.energy_ms", "ms", "lower"),
    ("timestepper.steps", "count", "lower"),
    ("timestepper.factorizations", "count", "lower"),
    ("timestepper.steps_per_factorization", "ratio", "higher"),
    ("timestepper.self_ms", "ms", "lower"),
    ("spectral.eig_ms", "ms", "lower"),
    ("spectral.eig_calls", "count", "lower"),
    ("spectral.resolvent_ms", "ms", "lower"),
    ("spectral.resolvent_solves", "count", "lower"),
    ("spectral.solves_per_norm", "ratio", "lower"),
    ("spectral.charfn_evals", "count", "lower"),
    ("spectral.charfn_ms", "ms", "lower"),
    ("spectral.winding_ms", "ms", "lower"),
    ("spectral.newton_ms", "ms", "lower"),
    ("spectral.roots", "count", "higher"),
    ("spectral.evals_per_root", "ratio", "lower"),
    ("spectral.robin_ms", "ms", "lower"),
    ("spectral.self_ms", "ms", "lower"),
    ("analysis.fit_ms", "ms", "lower"),
    ("analysis.sweep_rows", "count", "higher"),
    ("analysis.self_ms", "ms", "lower"),
] + [(f"verification.{c}_ms", "ms", "lower") for c in VERIFY_CHECKS] + [
    ("verification.self_ms", "ms", "lower"),
]


class _ScipyProxy:
    """Stands in for a scipy module inside one package module."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans, leaf totals and counts of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, leaf seconds]
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self._pass_start = (0, {}, Counter())

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, open_[-1] if open_ else -1, 0.0]
            spans.append(rec)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            return result if after is None else after(result)
        return wrapper

    def _leaf(self, name: str, fn):
        acc = self.leaves.setdefault(name, [0, 0.0])
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                if open_:
                    spans[open_[-1]][4] += dt
        return wrapper

    def _counting(self, name: str, size):
        def after(result):
            self.counts[name] += size(result)
            return result
        return after

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, package: str = "delay_wave_lab") -> None:
        """Wrap the package's functions and rebind every module-level reference."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        after = {
            "spectral.characteristic_function":
                lambda f: self._leaf("spectral.charfn", f),
            "spectral.characteristic_roots":
                self._counting("spectral.roots", len),
            "analysis.sweep":
                self._counting("analysis.sweep_rows", lambda t: len(t.rows)),
        }
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE_SPANS.get(layer, ())
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._span(name, obj, after.get(name))
        for mod in (importlib.import_module(package), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, tuple) and any(
                        inspect.isfunction(x) and x in wrapped for x in obj):
                    self._set(mod, attr, tuple(wrapped.get(x, x) for x in obj))
        for (layer, attr), (span_calls, leaf_calls) in SCIPY_CALLS.items():
            real = getattr(modules[layer], attr)
            calls = {c: self._span(f"{layer}.scipy.{c}", getattr(real, c))
                     for c in span_calls}
            calls.update({c: self._leaf(f"{layer}.scipy.{c}", getattr(real, c))
                          for c in leaf_calls})
            self._set(modules[layer], attr, _ScipyProxy(real, calls))
        gen_cls = modules["discretization"].DiscreteGenerator
        self._set(gen_cls, "energy", self._leaf("timestepper.energy", gen_cls.energy))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    # -- per-pass metrics -------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = (len(self.spans),
                            {k: list(v) for k, v in self.leaves.items()},
                            Counter(self.counts))

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans, leaves and counts since `begin_pass`."""
        lo, leaves0, counts0 = self._pass_start
        spans = self.spans[lo:]
        zero = [0, 0.0]
        leaf = {k: (v[0] - leaves0.get(k, zero)[0], v[1] - leaves0.get(k, zero)[1])
                for k, v in self.leaves.items()}
        counts = self.counts - counts0
        index = {lo + i: s for i, s in enumerate(spans)}

        def calls(name):
            return sum(1 for s in spans if s[0] == name)

        def inclusive(*names):
            """Seconds in spans named ``names``, counting nested ones once."""
            total = 0.0
            for s in spans:
                if s[0] not in names:
                    continue
                p = s[3]
                while p >= 0 and index[p][0] not in names:
                    p = index[p][3]
                if p < 0:
                    total += s[2] - s[1]
            return total

        child = {}
        for s in spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
        exclusive = [s[2] - s[1] - s[4] - child.get(lo + i, 0.0) for i, s in enumerate(spans)]
        self_s = Counter()
        for s, ex in zip(spans, exclusive):
            self_s[s[0].split(".")[0]] += ex
        for name, (_, sec) in leaf.items():
            self_s[name.split(".")[0]] += sec
        run_self = sum(ex for s, ex in zip(spans, exclusive) if s[0] == "cli.run")

        def ratio(a, b):
            return a / b if b else 0.0

        ms = 1e3

        def leaf_ms(name):
            return leaf.get(name, zero)[1] * ms

        steps = leaf.get("timestepper.scipy.lu_solve", zero)[0]
        factorizations = calls("timestepper.scipy.lu_factor")
        solves = leaf.get("spectral.scipy.zgetrs", zero)[0]
        evals = leaf.get("spectral.charfn", zero)[0]
        m = {
            "cli.parse_ms": (inclusive("cli.main") - inclusive("cli.run")) * ms,
            "cli.self_ms": run_self * ms,
            "core.sample_ms": inclusive("core.sample_initial_state") * ms,
            "core.self_ms": self_s["core"] * ms,
            "discretization.assemble_ms": inclusive(
                "discretization.assemble_generator", "discretization.assemble_gram") * ms,
            "discretization.assemble_calls": calls("discretization.assemble_generator"),
            "discretization.symeig_ms": inclusive(
                "discretization.symmetrized_max_eigenvalue") * ms,
            "discretization.self_ms": self_s["discretization"] * ms,
            "timestepper.factor_ms": inclusive("timestepper.scipy.lu_factor") * ms,
            "timestepper.solve_ms": leaf_ms("timestepper.scipy.lu_solve"),
            "timestepper.energy_ms": leaf_ms("timestepper.energy"),
            "timestepper.steps": steps,
            "timestepper.factorizations": factorizations,
            "timestepper.steps_per_factorization": ratio(steps, factorizations),
            "timestepper.self_ms": self_s["timestepper"] * ms,
            "spectral.eig_ms": inclusive("spectral.scipy.eig") * ms,
            "spectral.eig_calls": calls("spectral.scipy.eig"),
            "spectral.resolvent_ms": inclusive("spectral.resolvent_norm") * ms,
            "spectral.resolvent_solves": solves,
            "spectral.solves_per_norm": ratio(solves, calls("spectral.resolvent_norm")),
            "spectral.charfn_evals": evals,
            "spectral.charfn_ms": leaf_ms("spectral.charfn"),
            "spectral.winding_ms": inclusive("spectral._winding_number") * ms,
            "spectral.newton_ms": inclusive("spectral._newton") * ms,
            "spectral.roots": counts["spectral.roots"],
            "spectral.evals_per_root": ratio(evals, counts["spectral.roots"]),
            "spectral.robin_ms": inclusive(
                "spectral.robin_eigenvalue", "spectral.find_c_star") * ms,
            "spectral.self_ms": self_s["spectral"] * ms,
            "analysis.fit_ms": inclusive(
                "analysis.fit_decay", "analysis.polynomial_fit_decay") * ms,
            "analysis.sweep_rows": counts["analysis.sweep_rows"],
            "analysis.self_ms": self_s["analysis"] * ms,
            "verification.self_ms": self_s["verification"] * ms,
        }
        for c in VERIFY_CHECKS:
            m[f"verification.{c}_ms"] = inclusive(f"verification.check_{c}") * ms
        return {name: m[name] for name, _, _ in PER_LAYER}

    def trace_record(self, t0: float) -> dict:
        """Spans (times relative to ``t0``), leaf totals and counts, for the trace file."""
        return {
            "span_fields": ["name", "start_s", "end_s", "parent", "leaf_s"],
            "spans": [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in self.spans],
            "leaves": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.leaves.items()},
            "counts": dict(self.counts),
        }


def median_metrics(passes: list[dict]) -> dict[str, float]:
    """Median over passes of each per-layer metric."""
    return {name: statistics.median(p[name] for p in passes) for name, _, _ in PER_LAYER}
