"""Per-layer tracing for the benchmark, patched around lorlab's entry points.

Nothing here runs inside the library's source: each entry point is replaced,
for the length of one op, by a wrapper wherever its callers look it up.
Modules bind names at import (``from .quadrature import bracketed_root``), so
a function is replaced in every ``lorlab`` module namespace that holds it;
methods are replaced on their class.

Every wrapped call pushes one frame on a single stack, so a layer's self time
is its duration minus the durations of the wrapped calls it made.  Spans are
kept in memory (up to ``MAX_SPANS``) and written out once, after the run.
Hot scalar entries (``MetricProfile.eval``, ``CumulativeMap.__call__``) are
counted and timed but keep no span each.  Side timers (shooting, the
quadrature half of the dual-solver op) measure inclusive time and calls
without taking a frame, so the self time of their callers is unchanged.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

SPAN = "span"    # frame on the stack and one span record per call
HOT = "hot"      # frame on the stack, no span record
SIDE = "side"    # calls and inclusive time only, no frame
TAG = "tag"      # no timing: remember returned cone/flat maps

# (module, attribute, metric name, kind).  "Class.method" is patched on the
# class; a plain function in every lorlab namespace that binds it.
HOOKS = (
    ("lorlab.profiles", "MetricProfile.eval", "profiles.eval", HOT),
    ("lorlab.profiles", "MetricProfile.eval_many", "profiles.eval_many", SPAN),
    ("lorlab.profiles", "parse_profiles", "profiles.parse", SPAN),
    ("lorlab.quadrature", "panel_integral", "quadrature.panel_integral", SPAN),
    ("lorlab.quadrature", "panel_rule", "quadrature.panel_rule", SPAN),
    ("lorlab.quadrature", "CumulativeMap.__call__", "quadrature.cumulative", HOT),
    ("lorlab.quadrature", "bracketed_root", "quadrature.bracketed_root", SPAN),
    ("lorlab.geodesics", "integrate_geodesic", "geodesics.integrate", SPAN),
    ("lorlab.geodesics", "geodesic_states", "geodesics.states", SIDE),
    ("lorlab.geodesics", "_Quadrature.t_of", "geodesics.invert", SPAN),
    ("lorlab.geodesics", "_Quadrature.bound", "geodesics.bound", SPAN),
    ("lorlab.causality", "lorentzian_distance", "causality.distance", SPAN),
    ("lorlab.causality", "_shoot", "causality.shoot", SIDE),
    ("lorlab.causality", "causally_related", "causality.related", SPAN),
    ("lorlab.causality", "_cone_map", "causality.cone_time", TAG),
    ("lorlab.causality", "_flat_map", "causality.cone_time", TAG),
    ("lorlab.discrete", "space_from_points", "discrete.space", SPAN),
    ("lorlab.discrete", "check_axioms", "discrete.check_axioms", SPAN),
    ("lorlab.discrete", "check_pushup", "discrete.check_pushup", SPAN),
    ("lorlab.discrete", "check_causality", "discrete.check_causality", SPAN),
    ("lorlab.probes", "probe_finite_compactness", "probes.finite_compactness", SPAN),
    ("lorlab.probes", "probe_condition_a", "probes.condition_a", SPAN),
    ("lorlab.probes", "probe_timelike_cauchy", "probes.timelike_cauchy", SPAN),
)

PROBE_SPANS = ("probes.finite_compactness", "probes.condition_a", "probes.timelike_cauchy")
# stats whose self time is exclusive: the frames, with the op's root frame
# counted as the benchmark's own layer.  Side timers and tagged cone-map
# lookups overlap them.
FRAMES = tuple(name for _, _, name, kind in HOOKS if kind in (SPAN, HOT)) + ("bench.op",)
MAX_SPANS = 50_000


def _units(name, args, kwargs, out):
    """Work units of one call beyond the call itself, by metric name."""
    if name == "profiles.eval_many":
        return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))
    if name == "discrete.space":
        return int(out.chron.sum())
    if name == "geodesics.integrate":
        return len(out.samples) - 1
    return 0


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "units")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.units = 0


class Tracer:
    """Wrappers for every hook, installed around one op at a time."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.missing: list[str] = []
        self._stack: list[list] = []   # [start, child_s, span_id, name, parent_id]
        self._active: dict[str, int] = {}
        self._cone_maps: set = set()
        self._next_id = 1
        self._op = -1
        self._patches = self._resolve()

    # -- bookkeeping ---------------------------------------------------------

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _enter(self, name, keep):
        parent = self._stack[-1][2] if self._stack else 0
        if keep:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent
        frame = [time.perf_counter(), 0.0, span_id, name, parent]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        return frame

    def _exit(self, frame, keep, units):
        end = time.perf_counter()
        self._stack.pop()
        name = frame[3]
        dur = end - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        depth = self._active[name] - 1
        self._active[name] = depth
        st = self.stat(name)
        st.calls += 1
        st.self_s += dur - frame[1]
        st.units += units
        if depth == 0:
            st.incl_s += dur
        if keep:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[2], frame[4], self._op, name, frame[0], end))
            else:
                self.dropped += 1
        return dur - frame[1]

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, the first part of each frame's name."""
        layers: dict[str, float] = {}
        for name in FRAMES:
            if name in self.stats:
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + self.stats[name].self_s
        return layers

    # -- wrappers --------------------------------------------------------------

    def _frame_wrapper(self, name, fn, keep):
        def wrapper(*args, **kwargs):
            frame = self._enter(name, keep)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                units = _units(name, args, kwargs, out) if out is not None else 0
                self._exit(frame, keep, units)

        return wrapper

    def _distance_wrapper(self, name, fn):
        inner = self._frame_wrapper(name, fn, True)
        active = self._active
        probes = self.stat("probes.distance_calls")

        def wrapper(*args, **kwargs):
            if any(active.get(p) for p in PROBE_SPANS):
                probes.calls += 1
            return inner(*args, **kwargs)

        return wrapper

    def _root_wrapper(self, name, fn):
        inner = self._frame_wrapper(name, fn, True)
        st = self.stat(name)

        def wrapper(g, *args, **kwargs):
            def counted(x):
                st.units += 1
                return g(x)

            return inner(counted, *args, **kwargs)

        return wrapper

    def _cumulative_wrapper(self, name, fn):
        cone = self.stat("causality.cone_time")
        maps = self._cone_maps

        def wrapper(cmap, t):
            frame = self._enter(name, False)
            try:
                return fn(cmap, t)
            finally:
                own = self._exit(frame, False, 0)
                if cmap in maps:
                    cone.calls += 1
                    cone.self_s += own

        return wrapper

    def _side_wrapper(self, name, fn):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                st.calls += 1
                st.incl_s += time.perf_counter() - start

        return wrapper

    def _tag_wrapper(self, fn):
        maps = self._cone_maps

        def wrapper(profile):
            m = fn(profile)
            maps.add(m)
            return m

        return wrapper

    def _make(self, name, kind, fn):
        if kind == SIDE:
            return self._side_wrapper(name, fn)
        if kind == TAG:
            return self._tag_wrapper(fn)
        if name == "quadrature.cumulative":
            return self._cumulative_wrapper(name, fn)
        if name == "causality.distance":
            return self._distance_wrapper(name, fn)
        if name == "quadrature.bracketed_root":
            return self._root_wrapper(name, fn)
        return self._frame_wrapper(name, fn, kind == SPAN)

    # -- patching --------------------------------------------------------------

    def _resolve(self):
        """(owner, attribute, original, wrapper) for every binding of every hook."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "lorlab" or key.startswith("lorlab."))
        ]
        patches = []
        for module_name, attr, name, kind in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, member, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._make(name, kind, fn)
            if owner_name:
                patches.append((owner, member, fn, wrapper))
                continue
            for mod in modules:
                for key, val in vars(mod).items():
                    if val is fn:
                        patches.append((mod, key, fn, wrapper))
        return patches

    def install(self, op_index: int):
        self._op = op_index
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._cone_maps.clear()

    def op_span(self):
        """Root frame around one op; returns a callable that closes it."""
        frame = self._enter("bench.op", True)
        return lambda: self._exit(frame, True, 0)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                    "dropped": self.dropped,
                    "spans": self.spans,
                },
                fh,
            )
