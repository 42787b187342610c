"""Spans around calls into isoattn's public functions, recorded from outside
the package.

`Tracer.install()` replaces each traced function, wherever an isoattn module
holds a reference to it, with a wrapper that times the call; `uninstall()`
puts the originals back. Library code looks these names up at call time, so
calls between modules (layer -> numerics, layer -> attention, ...) are seen
too. Nothing inside `src/isoattn` is edited.

Spans are aggregated as they close, per unit of work (one set-up repetition
or one measured round): calls, inclusive seconds and self seconds (inclusive
minus the time covered by traced child spans) per metric, plus counts taken
from arguments or results. A call nested inside a span of the same metric
(for example `from_descriptor` calling `dihedral_group`) is not a new span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("synth", "groups", "irreps", "numerics", "attention", "layer",
           "metrics", "cli")


def _dataset_windows(args, result):
    return {"synth.windows": len(result.train) + len(result.val)}


def _homomorphism_pairs(args, result):
    return {"groups.verify_homomorphism.pairs": result.pairs_checked}


def _mapped_windows(args, result):
    return {"metrics.activation_mapping.windows": len(args[1]) + len(args[2])}


# (metric, module, attribute, counts taken from (args, result)). An attribute
# "Class.method" patches the method on the class.
TRACED = (
    ("synth.make_dataset", "synth", "make_dataset", _dataset_windows),
    ("groups.build", "groups", "from_descriptor", None),
    ("groups.build", "groups", "mirror_group", None),
    ("groups.build", "groups", "shift_group", None),
    ("groups.build", "groups", "cyclic_group", None),
    ("groups.build", "groups", "dihedral_group", None),
    ("groups.build", "groups", "symmetric_group", None),
    ("groups.verify_homomorphism", "groups", "verify_homomorphism", _homomorphism_pairs),
    ("irreps.projector_set", "irreps", "projector_set", None),
    ("irreps.verify_projector_set", "irreps", "verify_projector_set", None),
    ("irreps.real_irreps", "irreps", "real_irreps", None),
    ("numerics.softmax_rows", "numerics", "softmax_rows", None),
    ("numerics.softmax_rows_vjp", "numerics", "softmax_rows_vjp", None),
    ("attention.decompose_pre", "attention", "decompose_pre", None),
    ("attention.decompose_post", "attention", "decompose_post", None),
    ("attention.equivariance_report", "attention", "equivariance_report", None),
    ("layer.forward", "layer", "WindowAttentionLayer.forward", None),
    ("layer.backward", "layer", "WindowAttentionLayer.backward", None),
    ("layer.train", "layer", "train", None),
    ("metrics.activation_mapping", "metrics", "activation_mapping", _mapped_windows),
    ("cli.main", "cli", "main", None),
)

# Caller function name -> purpose of a layer.forward call.
_FORWARD_PURPOSE = {"loss_and_grads": "train", "window_map": "tracker"}


def module(name: str):
    # importlib, because the package re-exports a function named `attention`
    # that hides the submodule of the same name as a package attribute.
    return importlib.import_module(f"isoattn.{name}")


class Tracer:
    """Times calls into isoattn and aggregates them per unit of work."""

    def __init__(self, metrics=None):
        # metrics: the metric names to trace; None traces every entry of TRACED.
        self._entries = [e for e in TRACED if metrics is None or e[0] in metrics]
        self._patches = []
        self._stack = []  # [metric, child seconds] of each open span
        self._open = set()  # metrics of the open spans
        self.units = []
        self._unit = None

    # ---------- patching ----------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module("isoattn")] + [module(m) for m in MODULES]
        for metric, mod_name, attr, counts in self._entries:
            owner = module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(metric, original, counts))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(metric, original, counts)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _wrap(self, metric, fn, counts):
        if metric == "attention.equivariance_report":
            return self._wrap_report(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(metric, fn, args, kwargs)
            if counts is not None and self._unit is not None:
                for name, value in counts(args, result).items():
                    self._unit["counts"][name] += value
            return result
        return traced

    def _wrap_report(self, fn):
        # Counts calls of the window map under test and the distinct inputs
        # it was given, to expose recomputed work.
        @functools.wraps(fn)
        def traced(window_map, *args, **kwargs):
            seen = set()
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                seen.add(np.asarray(x).tobytes())
                return window_map(x)

            result = self._call("attention.equivariance_report", fn,
                                (counted,) + args, kwargs)
            if self._unit is not None:
                self._unit["counts"]["attention.equivariance_report.fn_calls"] += calls
                self._unit["counts"]["attention.equivariance_report.distinct"] += len(seen)
            return result
        return traced

    # ---------- spans ----------

    def _call(self, metric, fn, args, kwargs):
        if self._unit is None or metric in self._open:
            return fn(*args, **kwargs)
        purpose = None
        if metric == "layer.forward":
            caller = sys._getframe(2).f_code.co_name
            purpose = _FORWARD_PURPOSE.get(caller, "eval")
        frame = [metric, 0.0]
        self._stack.append(frame)
        self._open.add(metric)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._open.discard(metric)
            if self._stack:
                self._stack[-1][1] += elapsed
            agg = self._unit["spans"][metric]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - frame[1]
            if purpose is not None:
                self._unit["counts"][f"layer.forward.{purpose}_s"] += elapsed - frame[1]

    def begin_unit(self) -> None:
        self._unit = {"spans": defaultdict(lambda: [0, 0.0, 0.0]),
                      "counts": defaultdict(float)}

    def end_unit(self) -> None:
        self.units.append(self._unit)
        self._unit = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
