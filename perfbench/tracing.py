"""In-memory span tracing of the package's layers, and the per-layer
metrics derived from the spans.

The tracer wraps public layer functions where the command line and the
benchmark's library calls look them up, so no package source changes.
Each wrapped call records one span (name, start, end, parent span, pass,
operation, counter).  Spans stay in memory until the worker writes them
out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter_ns

# (module, attribute, span name).  Span names are <layer>.<function>.
# tropcyl.cli holds the functions the subcommands call; the few bindings
# in other modules are the calls a subcommand makes inside the library
# that a per-layer metric needs (the spine check inside extend and
# count_spine, the series shear, the cylinder inside lift_to_tilde), and
# the functions the benchmark's library-call operations use.
BINDINGS = (
    ("tropcyl.cli", "pair_from_json", "serialize.pair_from_json"),
    ("tropcyl.cli", "spine_from_json", "serialize.spine_from_json"),
    ("tropcyl.cli", "spine_to_json", "serialize.spine_to_json"),
    ("tropcyl.cli", "cylinder_to_json", "serialize.cylinder_to_json"),
    ("tropcyl.cli", "curve_class_to_json", "serialize.curve_class_to_json"),
    ("tropcyl.cli", "build_base", "lattice.build_base"),
    ("tropcyl.cli", "monodromy", "lattice.monodromy"),
    ("tropcyl.cli", "fan_closure", "lattice.fan_closure"),
    ("tropcyl.cli", "intersection_matrix", "lattice.intersection_matrix"),
    ("tropcyl.cli", "is_positive", "lattice.is_positive"),
    ("tropcyl.cli", "validate_spine", "spines.validate_spine"),
    ("tropcyl.cli", "extend", "extension.extend"),
    ("tropcyl.cli", "cylinder_in_b", "extension.cylinder_in_b"),
    ("tropcyl.cli", "family_spine", "extension.family_spine"),
    ("tropcyl.cli", "count", "wallcross.count"),
    ("tropcyl.cli", "count_spine", "wallcross.count_spine"),
    ("tropcyl.cli", "symmetry_check", "wallcross.symmetry_check"),
    ("tropcyl.cli", "binomial_oracle", "wallcross.binomial_oracle"),
    ("tropcyl.extension", "validate_spine", "spines.validate_spine"),
    ("tropcyl.extension", "cylinder_in_b", "extension.cylinder_in_b"),
    ("tropcyl.extension", "lift_to_tilde", "extension.lift_to_tilde"),
    ("tropcyl.extension", "trace_path_image", "extension.trace_path_image"),
    ("tropcyl.wallcross", "validate_spine", "spines.validate_spine"),
    ("tropcyl.wallcross", "count", "wallcross.count"),
    ("tropcyl.wallcross", "focus_focus_apply", "wallcross.focus_focus_apply"),
    ("tropcyl.spines", "canonical_image", "spines.canonical_image"),
    ("tropcyl.lattice", "verify_toric_criterion",
     "lattice.verify_toric_criterion"),
)


def _extend_steps(result, exc):
    """(steps, 1 if the extension ran out of budget else 0)."""
    if exc is not None:
        steps = getattr(exc, "steps", None)
        return None if steps is None else (steps, 1)
    return (result.steps, 0)


# Counters recorded on a span, from the call's result or exception.
COUNTERS = {
    "extension.extend": _extend_steps,
    "wallcross.focus_focus_apply":
        lambda result, exc: None if exc else len(result.terms),
    "lattice.verify_toric_criterion":
        lambda result, exc: None if exc else result[0],
}


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # (name, t0_ns, t1_ns, parent index, pass, op, counter)
        self.current = (0, -1)  # (pass, op index) of the running operation
        self.active = False
        self._stack = []
        self._saved = []

    def install(self) -> None:
        self.active = True
        for module, attr, name in BINDINGS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:  # a later refactor may drop a binding
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        self.active = False

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = exc = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[index] = (name, t0, t1, parent, *self.current,
                                counter(result, exc) if counter else None)

        return traced

    def span(self, name, fn, *args):
        """fn(*args), inside a span called `name` while installed."""
        if not self.active:
            return fn(*args)
        return self.wrap(name, fn)(*args)


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("lattice", "spines", "extension", "wallcross", "serialize", "cli")
SUBCOMMANDS = ("base", "validate", "extend", "count", "symmetry", "table")

# Scaling curves: function -> sizes.  A size is the tag of the operations
# whose calls are timed at that size (see gen.py).
SIZED = {
    "lattice.is_positive": ("l08", "l10", "l12", "l14"),
    "spines.validate_spine": ("v0003", "v0200", "v0800", "v1600"),
    "extension.extend": ("k0066", "k0258", "k0514",
                         "spiral0200", "spiral0800", "spiral1600"),
    "wallcross.count": ("l050", "l100", "l200", "l400"),
}


def _per_layer():
    s = ("s", "lower")
    count_lower = ("count", "lower")
    out = []

    def add(name, unit, better):
        out.append({"name": name, "unit": unit, "better": better})

    for fn in ("lattice.is_positive", "spines.validate_spine",
               "extension.extend", "wallcross.count"):
        add(f"{fn}.calls", *count_lower)
        add(f"{fn}.s", *s)
        for size in SIZED[fn]:
            add(f"{fn}.s.{size}", *s)
    for fn in ("lattice.build_base", "lattice.monodromy", "lattice.fan_closure",
               "lattice.intersection_matrix", "lattice.verify_toric_criterion",
               "spines.canonical_image", "extension.cylinder_in_b",
               "extension.lift_to_tilde", "extension.trace_path_image",
               "extension.family_spine", "wallcross.symmetry_check",
               "wallcross.count_spine", "wallcross.binomial_oracle",
               "wallcross.focus_focus_apply", "serialize.pair_from_json",
               "serialize.spine_from_json", "serialize.spine_to_json",
               "serialize.cylinder_to_json"):
        add(f"{fn}.s", *s)
    add("lattice.verify_toric_criterion.pairs", "count", "higher")
    add("lattice.verify_toric_criterion.pairs_per_s", "1/s", "higher")
    add("extension.extend.steps", *count_lower)
    add("extension.extend.steps_per_s", "1/s", "higher")
    add("extension.extend.wasted_steps_frac", "ratio", "lower")
    add("wallcross.series_terms", *count_lower)
    add("serialize.report_bytes", "bytes", "lower")
    for layer in LAYERS:
        add(f"{layer}.self_s", *s)
    for sub in SUBCOMMANDS:
        add(f"cli.run.s.{sub}", *s)
    add("trace.overhead_frac", "ratio", "lower")
    return out


# Name, unit and direction of every per-layer metric, in report order.
PER_LAYER = _per_layer()


def layer_metrics(spans, tags, scale, report_bytes, overhead):
    """Per-layer metrics from the spans of identical traced passes.

    Times, calls and counters are per pass; sized times are the median of
    one call at that size.  `tags[op]` is the tag of operation `op`, and
    `scale[(pass, op)]` the factor that brings the times of that operation
    to nominal machine speed; it has one entry per operation of each
    traced pass.
    """
    passes = len(scale) // len(tags)
    durations = [(t1 - t0) * scale[(pass_, op)]
                 for _, t0, t1, _, pass_, op, _ in spans]
    child_ns = [0] * len(spans)
    for span, dur in zip(spans, durations):
        if span[3] >= 0:
            child_ns[span[3]] += dur
    calls, total_ns, self_ns = {}, {}, {}
    sized = {}
    counters = {}
    for i, (name, _, _, _, _, op, counter) in enumerate(spans):
        dur = durations[i]
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        layer = name.split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns[i]
        if name in SIZED and tags[op] in SIZED[name]:
            sized.setdefault((name, tags[op]), []).append(dur)
        if counter is not None:
            counters.setdefault(name, []).append(counter)

    def per_pass(x):
        return x / passes

    m = {}
    for fn, sizes in SIZED.items():
        m[f"{fn}.calls"] = per_pass(calls.get(fn, 0))
        for size in sizes:
            durs = sized.get((fn, size))
            m[f"{fn}.s.{size}"] = statistics.median(durs) / 1e9 if durs else 0.0
    for item in PER_LAYER:
        name = item["name"]
        if name not in m and name.endswith(".s"):
            m[name] = per_pass(total_ns.get(name[:-2], 0)) / 1e9
    pairs = sum(counters.get("lattice.verify_toric_criterion", []))
    sweep_s = total_ns.get("lattice.verify_toric_criterion", 0) / 1e9
    m["lattice.verify_toric_criterion.pairs"] = per_pass(pairs)
    m["lattice.verify_toric_criterion.pairs_per_s"] = \
        pairs / sweep_s if sweep_s else 0.0
    steps = counters.get("extension.extend", [])
    total_steps = sum(s for s, _ in steps)
    wasted = sum(s for s, out_of_budget in steps if out_of_budget)
    extend_s = total_ns.get("extension.extend", 0) / 1e9
    m["extension.extend.steps"] = per_pass(total_steps)
    m["extension.extend.steps_per_s"] = \
        total_steps / extend_s if extend_s else 0.0
    m["extension.extend.wasted_steps_frac"] = \
        wasted / total_steps if total_steps else 0.0
    m["wallcross.series_terms"] = \
        per_pass(sum(counters.get("wallcross.focus_focus_apply", [])))
    m["serialize.report_bytes"] = report_bytes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_pass(self_ns.get(layer, 0)) / 1e9
    for sub in SUBCOMMANDS:
        m[f"cli.run.s.{sub}"] = per_pass(total_ns.get(f"cli.run.{sub}", 0)) / 1e9
    m["trace.overhead_frac"] = overhead
    return {item["name"]: m[item["name"]] for item in PER_LAYER}
