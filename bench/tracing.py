"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each function named in ``LAYERS`` by a
wrapper at every ``orbitcone.*`` module attribute bound to that function,
so calls the package makes to itself go through the wrapper too.  A
wrapper records a span (name, start, end, parent, job) and the layer's
counters, then returns the function's own result unchanged.
``Tracer.uninstall`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(x)


def _saturation(arguments, res) -> dict:
    cert = res.certificate
    if "classes" not in cert:  # exact sl2 decision, or trivial complement
        return {}
    return {
        "draws": cert["draws"],
        "classes": len(cert["classes"]),
        "witnessed": len(cert["witnesses"]),
    }


PACKAGE = "orbitcone"

# layer "module.function" -> counters taken from (arguments by name, result);
# every layer also counts its calls
LAYERS = {
    "liealg.build_algebra": None,
    "liealg.classify_batch": lambda a, r: {"points": _rows(a["points"])},
    "liealg.random_group_words": lambda a, r: {"words": len(r)},
    "cones.asymptotic_cone": lambda a, r: {
        "dirs_out": len(r.directions) if r.kind == "sampled" else 0},
    "cones.cone_directions": lambda a, r: {"dirs_out": len(r)},
    "cones.dedup_directions": lambda a, r: {"dirs_in": len(a["dirs"]), "dirs_out": len(r)},
    "cones.cone_equal": None,
    "induction.pair_embedding": None,
    "induction.induced_cone_samples": lambda a, r: {"points": len(r)},
    "induction.induced_cone": None,
    "induction.restriction_class_counts": None,
    "induction.saturation_is_full": _saturation,
    "tempered.split_abelian": None,
    "tempered.weights_of_action": None,
    "tempered.bk_weak_containment": lambda a, r: {"rays": r.rays_checked},
    "catalog.wavefront_of": None,
    "catalog.quaternionic_wf": None,
    "cli.main": None,
}


class Tracer:
    """Spans and counters of the wrapped layers, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counters: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counters[f"{name}.calls"] += 1
            if count is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                for key, value in count(arguments, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer function wherever the package binds it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for name, count in layers.items():
            module, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
            wrapper = self._wrap(name, fn, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._saved):
            setattr(m, key, fn)
        self._saved.clear()

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def span_times(spans) -> tuple[dict, dict]:
    """Inclusive and self seconds per span name.

    Self time is a span's duration minus the time its direct children
    cover (children of one span never overlap: calls are sequential).
    Inclusive time counts only spans with no ancestor of the same name,
    so a recursive call is not counted twice.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += (end - start) - covered[i]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            inclusive[name] += end - start
    return dict(inclusive), dict(own)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters) -> dict:
    """The per-layer metrics of one traced pass, without the ones the
    runner measures itself (cli.bytes_written, trace.overhead_s)."""
    inclusive, own = span_times(spans)
    c = lambda key: float(counters.get(key, 0.0))  # noqa: E731
    s = lambda name: inclusive.get(name, 0.0)  # noqa: E731
    return {
        "cones.cone_equal.s": s("cones.cone_equal"),
        "cones.cone_equal.calls": c("cones.cone_equal.calls"),
        "cones.asymptotic_cone.s": s("cones.asymptotic_cone"),
        # the orbit samplers are closures, called only by asymptotic_cone
        "orbits.sample.s": own.get("cones.asymptotic_cone", 0.0),
        "cones.asymptotic_cone.dirs_out": c("cones.asymptotic_cone.dirs_out"),
        "cones.cone_directions.s": s("cones.cone_directions"),
        "cones.cone_directions.dirs_out": c("cones.cone_directions.dirs_out"),
        "cones.dedup_directions.s": s("cones.dedup_directions"),
        "cones.dedup_directions.dirs_in": c("cones.dedup_directions.dirs_in"),
        "cones.dedup_directions.keep_ratio": _ratio(
            c("cones.dedup_directions.dirs_out"), c("cones.dedup_directions.dirs_in")),
        "liealg.classify_batch.s": s("liealg.classify_batch"),
        "liealg.classify_batch.points": c("liealg.classify_batch.points"),
        "liealg.random_group_words.s": s("liealg.random_group_words"),
        "liealg.random_group_words.words": c("liealg.random_group_words.words"),
        "liealg.build_algebra.s": s("liealg.build_algebra"),
        "induction.induced_cone_samples.s": s("induction.induced_cone_samples"),
        "induction.induced_cone_samples.points": c("induction.induced_cone_samples.points"),
        "induction.induced_cone.self_s": own.get("induction.induced_cone", 0.0),
        "induction.saturation_is_full.s": s("induction.saturation_is_full"),
        "induction.saturation_is_full.draws": c("induction.saturation_is_full.draws"),
        "induction.saturation_is_full.witness_ratio": _ratio(
            c("induction.saturation_is_full.witnessed"),
            c("induction.saturation_is_full.classes")),
        "induction.restriction_class_counts.s": s("induction.restriction_class_counts"),
        "catalog.quaternionic_wf.s": s("catalog.quaternionic_wf"),
        "induction.pair_embedding.s": s("induction.pair_embedding"),
        "induction.pair_embedding.calls": c("induction.pair_embedding.calls"),
        "tempered.bk_weak_containment.s": s("tempered.bk_weak_containment"),
        "tempered.bk_weak_containment.rays": c("tempered.bk_weak_containment.rays"),
        "tempered.weights_of_action.s": s("tempered.weights_of_action"),
        "tempered.split_abelian.s": s("tempered.split_abelian"),
        "catalog.wavefront_of.s": s("catalog.wavefront_of"),
        "cli.main.self_s": own.get("cli.main", 0.0),
    }
