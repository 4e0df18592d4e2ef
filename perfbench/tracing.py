"""Timing spans around trialkit's layers, installed from outside the package.

``Tracer.install()`` replaces the public functions of each measured module
(and the few methods named in ``METHODS``) with wrappers that record a span:
name, start, end and the span that was open when it began.  A function
imported by name into another trialkit module is replaced there too, so
``symcomp.verify_triality`` and ``triality.verify_triality`` report as one
layer.  Scalar and dual-number operators only count calls: a span per scalar
product would cost more than the product.  ``uninstall()`` restores every
original.  Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

# Layers in dependency order.  `assoc` and the float `expcheck` bridge are
# not measured.
LAYERS = ("fields", "linalg", "algebra", "dual", "constructors", "specfile",
          "triality", "symcomp", "autos", "zorn", "report", "cli")

# (module, class, attribute, span name)
METHODS = (
    ("algebra", "Algebra", "__init__", "algebra.init"),
    ("algebra", "Algebra", "multiply", "algebra.multiply"),
    ("algebra", "Algebra", "form_eval", "algebra.form_eval"),
    ("algebra", "Algebra", "left_op", "algebra.left_op"),
    ("algebra", "Algebra", "right_op", "algebra.right_op"),
    ("report", "CertificationReport", "render", "report.render"),
)
PRIVATE = (("cli", "_enumerate_sigma", "cli.enumerate_sigma"),)
# (module, class, attributes, counter name)
COUNTERS = (
    ("fields", "FieldElement", ("__mul__", "__rmul__"), "fields.mul"),
    ("fields", "FieldElement", ("__add__", "__radd__"), "fields.add"),
    ("dual", "Dual", ("__mul__",), "dual.mul"),
)


def _basis_pairs(args) -> int:
    """verify_triality / verify_local cover 3 n^2 basis pairs."""
    return 3 * args[0].dim ** 2


PAIRS = {"triality.verify_triality": _basis_pairs,
         "triality.verify_local": _basis_pairs}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_s: list = []
        self.pairs: list = []
        self.counts: dict = {}
        # one entry per span, in order of entry
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self._child: list = []
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.pairs.append(0)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        pairs_of = PAIRS.get(name)
        stack, child = self._stack, self._child
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s, pairs = self.calls, self.self_s, self.pairs
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                self_s[nid] += dur - inner
                calls[nid] += 1
                if pairs_of is not None:
                    pairs[nid] += pairs_of(args)

        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapper

    def _replace_everywhere(self, orig, new) -> None:
        for mod in _trialkit_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _replace_attr(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {name: sys.modules[f"trialkit.{name}"] for name in LAYERS}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._replace_everywhere(fn, self._span(f"{layer}.{attr}", fn))
        for layer, attr, name in PRIVATE:
            fn = getattr(mods[layer], attr)
            self._replace_everywhere(fn, self._span(name, fn))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._replace_attr(cls, attr, self._span(name, cls.__dict__[attr]))
        for layer, cls_name, attrs, name in COUNTERS:
            cls = getattr(mods[layer], cls_name)
            for attr in attrs:
                self._replace_attr(cls, attr, self._counter(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def layer_metrics(self) -> dict:
        """{"<span>.calls" | ".self_s" | ".pairs" | "<counter>.calls": value}."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            if name in PAIRS:
                out[f"{name}.pairs"] = self.pairs[nid]
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        return out

    def write(self, path: str, extra: dict) -> None:
        """Every span (name id, parent span, start and end in microseconds
        from the first span) plus the per-name totals, as one JSON file."""
        t0 = self.span_start[0] if self.span_start else 0.0
        payload = dict(extra)
        payload.update({
            "names": self.names,
            "totals": self.layer_metrics(),
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_us": [round((t - t0) * 1e6) for t in self.span_start],
                "end_us": [round((t - t0) * 1e6) for t in self.span_end],
            },
        })
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _trialkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "trialkit" or name.startswith("trialkit."))]
