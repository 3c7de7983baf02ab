"""Spans and counters around calls into treegibbs' public functions.

The program is not edited: :class:`Tracer` rebinds each listed function, in
every ``treegibbs`` module namespace that holds it, to a wrapper that times
the call.  Internal calls that go through a module global (for example
``solve_system`` -> ``find_roots_1d``) are therefore caught as well.

A span records ``id``, ``parent``, ``op``, ``name``, ``start`` and ``end``
(seconds since the tracer was created).  All spans of one benchmark
operation share the ``op`` id.  A span's self time is its duration minus the
time its direct children took.  Kernel calls are too many to keep one span
each: they are counted and timed in aggregate, and their time is still
taken out of the calling span's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Public functions wrapped in each layer.  ``arctanh`` is left out of the
# kernels: it is also called by the other kernels, and aggregated kernel
# timings must not nest.
LAYER_FUNCTIONS = {
    "kernels": ("f_theta", "f_theta_prime", "k_beta", "big_f", "big_f_prime"),
    "solver": ("solve_system", "find_roots_1d", "solve_scalar", "max_shifted_gain",
               "system_residual"),
    "scheme": ("enumerate_schemes", "classify", "reduce", "criterion_value",
               "nonuniqueness_criterion", "realizable_reduced"),
    "extremality": ("extremality_windows", "assess_solution", "certify", "gamma_bound",
                    "kappa_bound_generic", "ti_field_root"),
    "tree": ("build_tree", "assign_fields", "verify_compatibility", "export_assignment",
             "parse_assignment", "numeric_field"),
    "oracle": ("finite_volume_measure", "check_kolmogorov", "root_marginal_ratio"),
    "cli": ("main",),
}

_DROPPED = re.compile(r"dropped (\d+) candidate")

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    ("kernels.f_theta.scalar_calls", "count", "lower"),
    ("kernels.f_theta.array_elems", "count", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("solver.solve_system.calls", "count", "lower"),
    ("solver.solve_system.self_s", "s", "lower"),
    ("solver.find_roots_1d.calls", "count", "lower"),
    ("solver.find_roots_1d.self_s", "s", "lower"),
    ("solver.solve_scalar.calls", "count", "lower"),
    ("solver.distinct_instances", "count", "higher"),
    ("solver.distinct_ratio", "ratio", "higher"),
    ("solver.solutions", "count", "higher"),
    ("solver.dropped_candidates", "count", "lower"),
    ("extremality.extremality_windows.self_s", "s", "lower"),
    ("extremality.ti_field_root.calls", "count", "lower"),
    ("extremality.ti_field_root.s", "s", "lower"),
    ("scheme.classify.self_s", "s", "lower"),
    ("scheme.enumerate_schemes.self_s", "s", "lower"),
    ("tree.build_tree.self_s", "s", "lower"),
    ("tree.assign_fields.seeded_self_s", "s", "lower"),
    ("tree.assign_fields.unseeded_self_s", "s", "lower"),
    ("tree.numeric_fields.self_s", "s", "lower"),
    ("tree.verify_compatibility.self_s", "s", "lower"),
    ("tree.export_assignment.self_s", "s", "lower"),
    ("tree.parse_assignment.self_s", "s", "lower"),
    ("tree.vertices", "count", "higher"),
    ("tree.export_bytes", "B", "lower"),
    ("oracle.finite_volume_measure.calls", "count", "lower"),
    ("oracle.finite_volume_measure.self_s", "s", "lower"),
    ("oracle.configs", "count", "higher"),
    ("oracle.bytes_computed", "B", "lower"),
    ("oracle.check_kolmogorov.self_s", "s", "lower"),
    ("oracle.root_marginal_ratio.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _program_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "treegibbs" or name.startswith("treegibbs.")]


class Tracer:
    """Collects spans, call counts, self and total times, and work counts.

    Install it around traced work and remove it afterwards; while removed,
    the program runs its own, unwrapped functions.
    """

    def __init__(self, after: "Tracer | None" = None):
        # A tracer made ``after`` another continues its clock and span ids,
        # so that the two can be absorbed into one record.
        self.origin = perf_counter() if after is None else after.origin
        self.op = None
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.instances: set = set()
        self._stack: list[list] = []  # open spans: [span id, seconds in children]
        self._next_id = 1 if after is None else after._next_id
        self._patches: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = _program_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for layer, names in LAYER_FUNCTIONS.items():
            home = by_name[f"treegibbs.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                if layer == "kernels":
                    wrapper = self._kernel_wrapper(f"kernels.{fname}", original)
                else:
                    wrapper = self._span_wrapper(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        cls = by_name["treegibbs.tree"].BoundaryAssignment
        self._patch(cls, "numeric_fields",
                    self._span_wrapper("tree.numeric_fields", cls.numeric_fields))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording --------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` and return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            self.spans.append((span_id, parent[0] if parent else None, self.op, name,
                               start - self.origin, end - self.origin))

    def _span_wrapper(self, name, fn):
        tracer = self
        label = _label_for(name)
        count = _counter_for(name)
        materialize = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize:
                result = iter(tracer.span(name, lambda: list(fn(*args, **kwargs))))
            else:
                result = tracer.span(label(args, kwargs), fn, *args, **kwargs)
            count(tracer, args, result)
            return result

        return wrapper

    def _kernel_wrapper(self, name, fn):
        tracer = self
        is_f_theta = name == "kernels.f_theta"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            duration = perf_counter() - start
            tracer.calls[name] += 1
            tracer.self_s[name] += duration
            if tracer._stack:
                tracer._stack[-1][1] += duration
            if is_f_theta:
                x = args[1] if len(args) > 1 else kwargs["h"]
                if isinstance(x, np.ndarray):
                    tracer.counts["kernels.f_theta.array_elems"] += x.size
                else:
                    tracer.counts["kernels.f_theta.scalar_calls"] += 1
            return result

        return wrapper

    # -- reporting --------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer figures of everything recorded, as ``name -> value``."""
        s, c, n = self.self_s, self.calls, self.counts
        solves = c["solver.solve_system"]
        values = {
            "kernels.f_theta.scalar_calls": n["kernels.f_theta.scalar_calls"],
            "kernels.f_theta.array_elems": n["kernels.f_theta.array_elems"],
            "kernels.self_s": sum(v for k, v in s.items() if k.startswith("kernels.")),
            "solver.solve_system.calls": solves,
            "solver.solve_system.self_s": s["solver.solve_system"],
            "solver.find_roots_1d.calls": c["solver.find_roots_1d"],
            "solver.find_roots_1d.self_s": s["solver.find_roots_1d"],
            "solver.solve_scalar.calls": c["solver.solve_scalar"],
            "solver.distinct_instances": len(self.instances),
            "solver.distinct_ratio": len(self.instances) / solves if solves else 0.0,
            "solver.solutions": n["solver.solutions"],
            "solver.dropped_candidates": n["solver.dropped_candidates"],
            "extremality.extremality_windows.self_s": s["extremality.extremality_windows"],
            "extremality.ti_field_root.calls": c["extremality.ti_field_root"],
            "extremality.ti_field_root.s": self.total_s["extremality.ti_field_root"],
            "scheme.classify.self_s": s["scheme.classify"],
            "scheme.enumerate_schemes.self_s": s["scheme.enumerate_schemes"],
            "tree.build_tree.self_s": s["tree.build_tree"],
            "tree.assign_fields.seeded_self_s": s["tree.assign_fields.seeded"],
            "tree.assign_fields.unseeded_self_s": s["tree.assign_fields.unseeded"],
            "tree.numeric_fields.self_s": s["tree.numeric_fields"],
            "tree.verify_compatibility.self_s": s["tree.verify_compatibility"],
            "tree.export_assignment.self_s": s["tree.export_assignment"],
            "tree.parse_assignment.self_s": s["tree.parse_assignment"],
            "tree.vertices": n["tree.vertices"],
            "tree.export_bytes": n["tree.export_bytes"],
            "oracle.finite_volume_measure.calls": c["oracle.finite_volume_measure"],
            "oracle.finite_volume_measure.self_s": s["oracle.finite_volume_measure"],
            "oracle.configs": n["oracle.configs"],
            "oracle.bytes_computed": n["oracle.bytes_computed"],
            "oracle.check_kolmogorov.self_s": s["oracle.check_kolmogorov"],
            "oracle.root_marginal_ratio.self_s": s["oracle.root_marginal_ratio"],
            "cli.self_s": s["cli.main"],
            "cli.output_bytes": n["cli.output_bytes"],
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

    def absorb(self, other: "Tracer") -> None:
        """Add another tracer's records to this one's."""
        self.spans.extend(other.spans)
        for mine, theirs in ((self.calls, other.calls), (self.counts, other.counts)):
            mine.update(theirs)
        for mine, theirs in ((self.self_s, other.self_s), (self.total_s, other.total_s)):
            for key, value in theirs.items():
                mine[key] += value
        self.instances |= other.instances

    def work_counts(self) -> dict:
        """The machine-independent counts, for checking that they repeat."""
        return {"calls": dict(self.calls), "counts": dict(self.counts),
                "instances": len(self.instances)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")


def _label_for(name):
    if name == "tree.assign_fields":
        def label(args, kwargs):
            seeded = kwargs.get("seed", args[4] if len(args) > 4 else None) is not None
            return "tree.assign_fields.seeded" if seeded else "tree.assign_fields.unseeded"
        return label
    return lambda args, kwargs: name


def _count_solve(tracer, args, result):
    r, theta = args[0], float(args[1])
    tracer.instances.add((r.abcd, r.k, theta))
    tracer.counts["solver.solutions"] += len(result)
    for note in result.warnings:
        match = _DROPPED.search(note)
        if match:
            tracer.counts["solver.dropped_candidates"] += int(match.group(1))


def _count_assign(tracer, args, result):
    tracer.counts["tree.vertices"] += result.tree.num_vertices


def _count_export(tracer, args, result):
    tracer.counts["tree.export_bytes"] += len(result.encode("utf-8"))


def _count_measure(tracer, args, result):
    # Computed from array sizes, not measured: configurations x sites x 8 bytes.
    tracer.counts["oracle.configs"] += result.weights.size
    tracer.counts["oracle.bytes_computed"] += result.weights.size * result.num_sites * 8


_COUNTERS = {
    "solver.solve_system": _count_solve,
    "tree.assign_fields": _count_assign,
    "tree.export_assignment": _count_export,
    "oracle.finite_volume_measure": _count_measure,
}


def _counter_for(name):
    return _COUNTERS.get(name, lambda tracer, args, result: None)
