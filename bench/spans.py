"""Spans and counters recorded around rydgate's public functions.

The tracer replaces each traced function by a wrapper in every rydgate
module that binds it, so calls between modules (``harness`` calling
``numerics.zeta_mc_oracle``, say) are seen as well as calls from the
benchmark.  Spans are kept in memory as (name, start, end, parent, point)
and written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import warnings
from collections import Counter, defaultdict

#: (module, function) pairs wrapped in a traced run, one per layer boundary
TRACED = (
    ("cli", "main"),
    ("core", "validate_config"),
    ("harness", "run_experiment"),
    ("analytic", "expansion_coefficients"),
    ("loss", "pair_efficiency"),
    ("numerics", "gate_metrics"),
    ("numerics", "zeta"),
    ("numerics", "zeta_mc_oracle"),
    ("numerics", "origin_mass"),
    ("numerics", "build_joint_grid"),
    ("numerics", "apply_interaction_phase"),
    ("numerics", "momentum_map"),
    ("numerics", "momentum_centroid"),
    ("numerics", "ellipse_metrics"),
    ("numerics", "entanglement_entropy"),
)

#: per-layer statistics reported for each traced function, besides self_s
EXTRA_STATS = {
    "numerics.zeta_mc_oracle": ("calls", "samples", "dup_calls"),
    "numerics.zeta": ("calls", "node_evals", "accuracy_warnings"),
    "numerics.origin_mass": ("calls",),
    "numerics.entanglement_entropy": ("max_s",),
}


def _point_key(config) -> tuple:
    """Working point of a config, ignoring the protocol."""
    p1, p2 = config.profile1, config.profile2
    return (tuple(float(v) for v in config.separation), p1.w_par, p1.w_perp,
            p2.w_par, p2.w_perp, float(config.c6), float(config.t_int))


class Tracer:
    """In-memory spans and counters for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []       # (name, start, end, parent, point)
        self.counts: Counter = Counter()
        self._stack: list[tuple] = []      # (span index, point) of open spans
        self._seen_mc: set = set()
        self._points: dict[tuple, int] = {}
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _point_of(self, args) -> int | None:
        if args and hasattr(args[0], "separation") and hasattr(args[0], "profile1"):
            return self._points.setdefault(_point_key(args[0]), len(self._points))
        return self._stack[-1][1] if self._stack else None

    def _count(self, name: str, sig, args, kwargs) -> None:
        if name == "numerics.zeta_mc_oracle":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            config = a["config"]
            seed = config.rng_seed if a["seed"] is None else a["seed"]
            key = (_point_key(config), repr(config.protocol), seed,
                   a["n_samples"], a["eps_par"], a["eps_perp"])
            self.counts[name + ".samples"] += a["n_samples"]
            if key in self._seen_mc:
                self.counts[name + ".dup_calls"] += 1
            self._seen_mc.add(key)
        elif name == "numerics.zeta":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            n = bound.arguments["nodes"]
            evals = n**3 + ((2 * n) ** 3 if bound.arguments["check"] else 0)
            self.counts[name + ".node_evals"] += evals

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        accuracy_warning = None
        if name == "numerics.zeta":
            from rydgate.core import AccuracyWarning as accuracy_warning

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            self._count(name, sig, args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            point = self._point_of(args)
            self._stack.append((index, point))
            start = time.perf_counter()
            try:
                if accuracy_warning is None:
                    return fn(*args, **kwargs)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                self.counts[name + ".accuracy_warnings"] += sum(
                    issubclass(w.category, accuracy_warning) for w in caught)
                for w in caught:   # pass them on as an untraced call would
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, point)

        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every rydgate module binding it."""
        import importlib

        modules = {m: importlib.import_module(f"rydgate.{m}")
                   for m in ("core", "analytic", "numerics", "loss", "harness", "cli")}
        modules["__init__"] = importlib.import_module("rydgate")
        for owner, fname in TRACED:
            original = getattr(modules[owner], fname)
            wrapper = self.wrap(f"{owner}.{fname}", original)
            for module in modules.values():
                if getattr(module, fname, None) is original:
                    self._patches.append((module, fname, original))
                    setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    # -- reporting --------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, float]:
        """Per-name total self time, per-name longest span, top-level time."""
        child_time = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent is not None:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        max_s = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            max_s[name] = max(max_s[name], end - start)
            if parent is None:
                top += end - start
        return self_s, max_s, top

    def layer_metrics(self, bodies: int) -> dict[str, float]:
        """Per-layer metrics, each per timed body, so that counts repeat."""
        self_s, max_s, _ = self.self_times()
        out = {}
        for owner, fname in TRACED:
            name = f"{owner}.{fname}"
            out[name + ".self_s"] = self_s.get(name, 0.0) / bodies
            for stat in EXTRA_STATS.get(name, ()):
                if stat == "max_s":
                    out[name + ".max_s"] = max_s.get(name, 0.0)
                else:
                    out[name + "." + stat] = self.counts[name + "." + stat] / bodies
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, point in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "point": point}) + "\n")

