"""Span tracing of the package's layers, from outside the package.

Each public function, and each public method and initialiser of the classes,
of the layer modules is wrapped where its callers look it up: in every
``sdrelax`` module namespace that holds it, and on its class.  A wrapper
records one span (name, start, end, parent) while a benchmark task runs and
passes calls through untouched otherwise.  Spans stay in memory and are
written out when the run ends.

A layer's self time is the time of its spans minus the time of their child
spans.  An entry point that no longer exists is simply not wrapped, so its
layer reports 0 calls.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("meshes", "solver", "simplexlp", "energy", "fields", "constructions", "functionals")
HARNESS = "harness"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_mesh(counts, args, kwargs, result):
    counts["meshes.cells"] += _arg(args, kwargs, 0, "self").ncells


def _count_lp(counts, args, kwargs, result):
    counts["simplexlp.terms"] += len(_arg(args, kwargs, 0, "terms"))
    counts["simplexlp.vars"] += _arg(args, kwargs, 1, "nvars")


def _count_edges(counts, args, kwargs, result):
    mesh = _arg(args, kwargs, 0, "field").mesh
    counts["energy.edges"] += len(mesh.int_axis) + len(mesh.bnd_axis)


def _count_json_out(counts, args, kwargs, result):
    counts["fields.json_bytes"] += len(result)


def _count_json_in(counts, args, kwargs, result):
    counts["fields.json_bytes"] += len(_arg(args, kwargs, 0, "text"))


# Work counters, computed from the arguments and results of entry points.
COUNTERS = {
    "meshes.Mesh.__init__": _count_mesh,
    "simplexlp.minimize_weighted_abs": _count_lp,
    "energy.surface_energy": _count_edges,
    "fields.field_to_json": _count_json_out,
    "fields.field_from_json": _count_json_in,
}
COUNT_NAMES = (
    "meshes.cells",
    "simplexlp.terms",
    "simplexlp.vars",
    "simplexlp.raised",
    "energy.edges",
    "fields.json_bytes",
)


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Records spans of the wrapped layer entry points during tasks."""

    def __init__(self):
        # span: [name, start, end, parent index]
        self.spans: list[list] = []
        # task root: [span index, round, ref seconds]
        self.tasks: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._round = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def run_task(self, name: str, round_index: int, fn):
        """Run one benchmark task as a root span."""
        self._round = round_index
        idx = len(self.spans)
        rec = [f"{HARNESS}.{name}", time.perf_counter(), 0.0, -1]
        self.spans.append(rec)
        self.tasks.append([idx, round_index, 0.0])
        self._stack.append(idx)
        try:
            return fn()
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def set_task_ref(self, ref_s: float) -> None:
        self.tasks[-1][2] = ref_s

    def _wrap(self, span_name: str, fn):
        tracer = self
        layer = _layer(span_name)
        counter = COUNTERS.get(span_name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            entry = _layer(spans[parent][0]) != layer
            idx = len(spans)
            rec = [span_name, time.perf_counter(), 0.0, parent]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if entry:
                    tracer.counts[tracer._round][f"{layer}.raised"] += 1
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer.counts[tracer._round], args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        """Wrap the layer entry points in every ``sdrelax`` module and in
        ``extra_namespaces`` (modules that imported names from the package)."""
        originals: dict[int, tuple] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"sdrelax.{layer}")
            except ImportError:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(layer, obj)
        namespaces = [m for n, m in sys.modules.items() if n == "sdrelax" or n.startswith("sdrelax.")]
        for ns in list(namespaces) + list(extra_namespaces):
            for name, obj in list(vars(ns).items()):
                original, wrapper = originals.get(id(obj), (None, None))
                if original is obj:
                    self._patch(ns, name, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if dataclasses.is_dataclass(cls):
                # generated initialisers are plain records; validation lives
                # in __post_init__
                wanted = name == "__post_init__"
            else:
                wanted = name == "__init__" or not name.startswith("_")
            if not wanted:
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(span, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                self._patch(cls, name, type(attr)(self._wrap(span, attr.__func__)))

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- reduction --------------------------------------------------------

    def per_round(self) -> dict[int, dict[str, float]]:
        """Per-layer figures of each traced round: calls into each layer, self
        time in ref units and as a share of the round, and the work counts."""
        n = len(self.spans)
        child = [0.0] * n
        root = [0] * n
        for i, (_, t0, t1, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = i
        task_of = {idx: (rnd, ref) for idx, rnd, ref in self.tasks}
        out: dict[int, dict[str, float]] = {}
        for _, rnd, _ in self.tasks:
            row = out.setdefault(rnd, defaultdict(float))
            for name in COUNT_NAMES:
                row[name] = self.counts[rnd][name]
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            rnd, ref = task_of[root[i]]
            layer = _layer(name)
            row = out[rnd]
            row[f"{layer}.self_ref"] += (t1 - t0 - child[i]) / ref
            row["round_ref"] += (t1 - t0 - child[i]) / ref
            if parent >= 0 and _layer(self.spans[parent][0]) != layer:
                row[f"{layer}.calls"] += 1
        for row in out.values():
            for layer in LAYERS + (HARNESS,):
                row[f"{layer}.self_frac"] = row[f"{layer}.self_ref"] / row["round_ref"]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Mean over traced rounds of each per-round layer figure; means keep
        the module shares adding up to the whole round."""
        rows = list(self.per_round().values())
        names = [f"{layer}.{k}" for layer in LAYERS for k in ("calls", "self_ref", "self_frac")]
        names += list(COUNT_NAMES) + [f"{HARNESS}.self_frac"]
        return {name: statistics.fmean(row.get(name, 0.0) for row in rows) for name in names}

    def write(self, path) -> None:
        payload = {
            "span_fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "task_fields": ["span", "round", "ref_s"],
            "tasks": self.tasks,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
