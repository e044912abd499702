"""Spans and counters recorded from outside weldlab.

``Tracer.install`` replaces the public functions and methods of the weldlab
modules (module attributes, and methods defined in a module's classes) with
wrappers that time each call, and restores them on ``uninstall``.  Names
imported into another module (``bowen_series.build_group``) are replaced
there too, so every call path is seen.

Each call is a span: name, start, end and parent span.  A layer's self time
is the sum over its spans of duration minus the time covered by child spans.
Spans are kept in memory (up to ``MAX_SPANS``; later ones are still counted
and timed) and written out by ``write`` once the run ends.  Calls of the
Möbius kernel are too many to keep one by one: they are aggregated into
their parent's child time and into the counters, but not stored as spans.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("hyperbolic", "fuchsian", "bowen_series", "mating_schema", "welding",
          "correspondence", "render", "cli")

#: Möbius kernel operations counted by hyperbolic.mobius_ops
KERNEL_OPS = frozenset({"hyperbolic.MobiusMap.compose", "hyperbolic.MobiusMap.inverse",
                        "hyperbolic.MobiusMap.__call__",
                        "hyperbolic.MobiusMap.boundary_angle",
                        "hyperbolic.MobiusMap.dist"})

#: calls of these functions are bowen_series.circle_evals
CIRCLE_EVALS = frozenset({"bowen_series.eval_circle", "bowen_series.eval_circle_raw",
                          "bowen_series.eval_circle_one_sided",
                          "bowen_series.eval_circle_raw_one_sided"})

#: inclusive-time groups: outermost activations only, so nesting inside the
#: group (bowen_series_map -> bowen_series_from_preset) is not counted twice
GROUPS = {
    "bowen_series.bowen_series_map": "bowen_series.map_build_s",
    "bowen_series.bowen_series_from_preset": "bowen_series.map_build_s",
    "bowen_series.markov_partition": "bowen_series.markov_s",
    "bowen_series.ConjugacyH.__init__": "bowen_series.conj_build_s",
    "bowen_series.ConjugacyH.value": "bowen_series.conj_value_s",
    "bowen_series.tiles": "bowen_series.tiles_s",
    "mating_schema.assemble": "mating_schema.assemble_s",
    "welding.weld": "welding.weld_s",
    "welding.surface_report": "welding.report_s",
    "welding.zipped_report": "welding.zipped_s",
    "correspondence.group_elements": "correspondence.elements_s",
    "correspondence.group_tiling": "correspondence.tiling_s",
    "render.render_svg": "render.svg_s",
}


#: counters read from a call's result: function -> (counter, size of result)
RESULT_COUNTS = {
    "bowen_series.tiles": ("bowen_series.tiles", lambda r: sum(len(lv) for lv in r)),
    "mating_schema.assemble": ("mating_schema.arcs", lambda r: len(r.arcs)),
    "correspondence.group_elements": ("correspondence.elements", len),
    "render.render_svg": ("render.svg_bytes", lambda r: len(r.encode("utf-8"))),
}


#: spans kept in memory per tracer; later ones are counted in ``dropped``
MAX_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.spans = []                      # (id, parent id, name, start, end)
        self.dropped = 0
        self.stack = []                      # frames: [child time, span id, ...]
        self.next_id = 1
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.group_s = defaultdict(float)    # GROUPS value -> inclusive seconds
        self.group_depth = Counter()
        self.calls = Counter()               # qualified name -> calls
        self.counts = Counter()              # named counters
        self.samples = defaultdict(list)     # per-call measurements (cli.import_ms)
        self._patches = []

    # -- spans opened by the benchmark itself -----------------------------------

    def open(self, name: str):
        frame = [0.0, self.next_id, name, time.perf_counter()]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += end - frame[3]
        self._keep(frame[1], frame[2], frame[3], end)

    def _keep(self, sid, name, start, end):
        if len(self.spans) < MAX_SPANS:
            parent = self.stack[-1][1] if self.stack else 0
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1

    # -- wrapping ---------------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        stack = self.stack
        self_s, calls, counts = self.self_s, self.calls, self.counts
        group = GROUPS.get(name)
        group_s, group_depth = self.group_s, self.group_depth
        perf = time.perf_counter
        kernel = name in KERNEL_OPS
        result_count = RESULT_COUNTS.get(name)
        # context counters: Möbius work done inside group enumeration and,
        # outside it, inside the tiling overlap test
        dedup = name == "hyperbolic.MobiusMap.dist"
        pair = name == "hyperbolic.MobiusMap.inverse"

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            if not kernel:
                frame[1] = tracer.next_id
                tracer.next_id += 1
            if group:
                group_depth[group] += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                if group:
                    group_depth[group] -= 1
                    if not group_depth[group]:
                        group_s[group] += dur
                if kernel:
                    if dedup and group_depth["correspondence.elements_s"]:
                        counts["correspondence.dedup_tests"] += 1
                    elif (pair and group_depth["correspondence.tiling_s"]
                          and not group_depth["correspondence.elements_s"]):
                        counts["correspondence.pair_tests"] += 1
                else:
                    tracer._keep(frame[1], name, t0, t1)
            if result_count:
                counts[result_count[0]] += result_count[1](result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package):
        """Wrap the public functions and methods of package's layer modules."""
        modules = {}
        for layer in LAYERS:
            mod = getattr(package, layer, None)
            if mod is not None:
                modules[layer] = mod
        replaced = {}                      # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    w = self._wrap(value, f"{layer}.{attr}", layer)
                    replaced[id(value)] = w
                    self._set(mod, attr, value, w)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_class(value, layer, mod)
        # rebind names imported into other modules and the package namespace
        for target in list(modules.values()) + [package]:
            for attr, value in list(vars(target).items()):
                if id(value) in replaced and getattr(target, attr) is value:
                    self._set(target, attr, value, replaced[id(value)])

    def _install_class(self, cls, layer, mod):
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue               # static methods, properties, class data
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            if value.__code__.co_filename != mod.__file__:
                continue               # generated by dataclass
            self._set(cls, attr, value,
                      self._wrap(value, f"{layer}.{cls.__name__}.{attr}", layer))

    def _set(self, owner, attr, old, new):
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ------------------------------------------------------------------------

    def aggregates(self) -> dict:
        """Plain-data totals; ``merge`` adds another process's totals."""
        return {"self_s": dict(self.self_s), "group_s": dict(self.group_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def merge(self, agg: dict, spans=(), parent: int = 0):
        for k, v in agg["self_s"].items():
            self.self_s[k] += v
        for k, v in agg["group_s"].items():
            self.group_s[k] += v
        self.calls.update(agg["calls"])
        self.counts.update(agg["counts"])
        for k, v in agg["samples"].items():
            self.samples[k].extend(v)
        offset = self.next_id
        top = 0
        for sid, pid, name, start, end in spans:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((sid + offset, pid + offset if pid else parent,
                                   name, start, end))
            else:
                self.dropped += 1
            top = max(top, sid)
        self.next_id += top + 1

    def layer_metrics(self) -> dict:
        """Per-layer figures of everything recorded so far."""
        calls, counts, group = self.calls, self.counts, self.group_s
        mobius = sum(calls[k] for k in KERNEL_OPS)
        elements = counts["correspondence.elements"]
        dedup = counts["correspondence.dedup_tests"]
        return {
            "hyperbolic.mobius_ops": mobius,
            "hyperbolic.self_s": self.self_s["hyperbolic"],
            "fuchsian.build_group_calls": calls["fuchsian.build_group"],
            "fuchsian.self_s": self.self_s["fuchsian"],
            "bowen_series.circle_evals": sum(calls[k] for k in CIRCLE_EVALS),
            "bowen_series.map_build_s": group["bowen_series.map_build_s"],
            "bowen_series.markov_s": group["bowen_series.markov_s"],
            "bowen_series.conj_build_s": group["bowen_series.conj_build_s"],
            "bowen_series.conj_value_s": group["bowen_series.conj_value_s"],
            "bowen_series.tiles_s": group["bowen_series.tiles_s"],
            "bowen_series.tiles": counts["bowen_series.tiles"],
            "mating_schema.assemble_s": group["mating_schema.assemble_s"],
            "mating_schema.arcs": counts["mating_schema.arcs"],
            "welding.weld_s": group["welding.weld_s"],
            "welding.report_s": group["welding.report_s"],
            "welding.zipped_s": group["welding.zipped_s"],
            "correspondence.elements_s": group["correspondence.elements_s"],
            "correspondence.elements": elements,
            "correspondence.dedup_tests": dedup,
            "correspondence.dedup_yield": elements / dedup if dedup else 0.0,
            # group_elements is reached only through group_tiling in every workload
            "correspondence.overlap_s": (group["correspondence.tiling_s"]
                                         - group["correspondence.elements_s"]),
            "correspondence.pair_tests": counts["correspondence.pair_tests"],
            "render.svg_s": group["render.svg_s"],
            "render.svg_bytes": counts["render.svg_bytes"],
        }

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans),
                                 "dropped_spans": self.dropped,
                                 "aggregates": self.aggregates()},
                                sort_keys=True) + "\n")
            for sid, pid, name, start, end in self.spans:
                fh.write(json.dumps([sid, pid, name, start, end]) + "\n")
