"""Span tracer installed from outside the program.

``Tracer.install`` wraps the public functions of each vanishkit layer module
and a few methods, and rebinds every name under which a ``vanishkit.*``
module holds a wrapped function, so calls through ``from .x import f``
bindings are seen too.  Each call records a span (name, start, end, parent)
in flat arrays; hooks add work counts.  ``summary`` turns the
spans into per-function and per-layer self and busy times.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli", "specio", "analysis", "measures", "testfunctions",
    "fourier", "constructions", "acceptance",
)

# Called once per CSV value; a span each would cost more than the work
# measured.  Its time stays in the caller (specio.write_csv).
_UNWRAPPED = {"specio.fmt"}

_PARSE = ("specio.parse_measure_spec", "specio.parse_block_spec")


def _size(a) -> int:
    return int(np.size(a))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command: str | None = None
        self.criteria: dict[int, float] = {}
        self._block_inputs: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, hook=None):
        nid = self._id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- hooks (work counts) -----------------------------------------------

    def _hooks(self) -> dict:
        c = self.counts

        def arg(args, kwargs, pos, key):
            return args[pos] if len(args) > pos else kwargs[key]

        def values(args, kwargs, result):
            c["testfunctions.values.points"] += _size(args[1] if len(args) > 1 else kwargs["xs"])
            if self.command == "rajchman":
                c["testfunctions.values.calls.rajchman"] += 1

        def integral_to(args, kwargs, result):
            c["testfunctions.integral_to.points"] += _size(args[1] if len(args) > 1 else kwargs["u"])

        def convolve_grid(args, kwargs, result):
            c["measures.convolve_grid.points"] += _size(arg(args, kwargs, 2, "grid"))

        def resolve_window(args, kwargs, result):
            c["measures.resolve_window.atoms"] += result.positions.size
            c["measures.resolve_window.pieces"] += len(result.pieces)

        def enumerate_window(args, kwargs, result):
            c["measures.enumerate_window.atoms"] += _size(result[0])

        def density_eval(args, kwargs, result):
            c["measures.density_eval.points"] += _size(args[1] if len(args) > 1 else kwargs["xs"])

        def bessel_j0_vec(args, kwargs, result):
            c["fourier.bessel_j0_vec.points"] += _size(arg(args, kwargs, 0, "xs"))

        def tf_hat(args, kwargs, result):
            c["testfunctions.tf_hat.samples_total"] += result.samples.size

        def validate_block_sum(args, kwargs, result):
            inp = arg(args, kwargs, 0, "inp")
            c["constructions.validate_block_sum.parts"] += len(inp.parts)
            self._block_inputs.append(inp)

        def run_all(args, kwargs, result):
            for r in result:
                self.criteria[r.index] = r.seconds

        return {
            "testfunctions.values": values,
            "testfunctions.integral_to": integral_to,
            "measures.convolve_grid": convolve_grid,
            "measures.resolve_window": resolve_window,
            "measures.enumerate_window": enumerate_window,
            "measures.density_eval": density_eval,
            "fourier.bessel_j0_vec": bessel_j0_vec,
            "testfunctions.tf_hat": tf_hat,
            "constructions.validate_block_sum": validate_block_sum,
            "acceptance.run_all": run_all,
        }

    def _decay_points_hook(self, fn):
        """decay_profile points: grid points its convolve_grid calls took."""
        c = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = c["measures.convolve_grid.points"]
            try:
                return fn(*args, **kwargs)
            finally:
                c["analysis.decay_profile.points"] += c["measures.convolve_grid.points"] - before

        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = self._hooks()
        pkg_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "vanishkit" or n.startswith("vanishkit."))
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"vanishkit.{layer}")
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in _UNWRAPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                inner = self._decay_points_hook(obj) if name == "analysis.decay_profile" else obj
                wrapped = self._wrap(inner, name, hooks.get(name))
                for m in pkg_modules:
                    for alias, val in list(vars(m).items()):
                        if val is obj:
                            self._set(m, alias, wrapped)

        from vanishkit.measures import AtomSource, DensitySource
        from vanishkit.testfunctions import TestFunction

        for meth in ("values", "integral_to", "moment_to"):
            name = f"testfunctions.{meth}"
            self._set(TestFunction, meth, self._wrap(TestFunction.__dict__[meth], name, hooks.get(name)))
        # Leaf densities only: TransformedDensity.evalv forwards to them.
        for cls in _subclasses(DensitySource):
            if "evalv" in cls.__dict__ and not inspect.isabstract(cls):
                self._set(cls, "evalv", self._wrap(
                    cls.__dict__["evalv"], "measures.density_eval", hooks["measures.density_eval"]))
        for cls in _subclasses(AtomSource):
            if "enumerate_window" in cls.__dict__ and not inspect.isabstract(cls):
                self._set(cls, "enumerate_window", self._wrap(
                    cls.__dict__["enumerate_window"], "measures.enumerate_window",
                    hooks["measures.enumerate_window"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Per-function calls, self and total seconds; per-layer busy and self."""
        sp = self.spans()
        n_names = len(self.names)
        name, parent = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        self_s = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_by = np.bincount(name, weights=self_s, minlength=n_names)

        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0])
        span_layer = layer_of[name] if name.size else name
        # A span adds to its layer's busy time unless an ancestor of the same
        # layer is already open (parents precede children in the arrays).
        masks = [0] * name.size
        top = np.zeros(name.size, dtype=bool)
        for i, (p, lay) in enumerate(zip(parent.tolist(), span_layer.tolist())):
            bit = 1 << lay
            above = masks[p] if p >= 0 else 0
            masks[i] = above | bit
            top[i] = not (above & bit)

        out: dict[str, float] = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = float(calls[i])
            out[f"{n}.s"] = float(self_by[i])
        for k, lay in enumerate(LAYERS):
            sel = span_layer == k
            out[f"{lay}.self_s"] = float(np.sum(self_s[sel]))
            out[f"{lay}.busy_s"] = float(np.sum(dur[sel & top]))
        out.update(self.counts)
        out["trace.spans"] = float(name.size)
        out["specio.parse.s"] = sum(out.get(f"{p}.s", 0.0) for p in _PARSE)
        out["specio.emit.s"] = sum(
            out[f"{n}.s"] for n in self.names if n.startswith("specio.") and n not in _PARSE
        )
        hats = out.get("testfunctions.tf_hat.calls", 0.0)
        out["testfunctions.tf_hat.samples"] = (
            out.get("testfunctions.tf_hat.samples_total", 0.0) / hats if hats else 0.0
        )
        grid_points = out.get("measures.convolve_grid.points", 0.0)
        out["measures.density_eval.points_per_grid_point"] = (
            out.get("measures.density_eval.points", 0.0) / grid_points if grid_points else 0.0
        )
        validated = out.get("constructions.validate_block_sum.parts", 0.0)
        distinct = {}
        for inp in self._block_inputs:
            distinct.setdefault(_fingerprint(inp), len(inp.parts))
        out["constructions.validate_block_sum.useful_ratio"] = (
            sum(distinct.values()) / validated if validated else 0.0
        )
        for i in range(1, 11):
            out[f"acceptance.c{i}.s"] = self.criteria.get(i, 0.0)
        return out


def _subclasses(cls) -> list[type]:
    seen: list[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def _feed(h, obj, depth: int = 0) -> None:
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, float, complex, str, type(None))):
        h.update(repr(obj).encode())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for x in obj:
            _feed(h, x, depth + 1)
        h.update(b")")
    elif hasattr(obj, "__dict__") and not callable(obj) and depth < 32:
        h.update(type(obj).__qualname__.encode())
        for k, v in sorted(vars(obj).items()):
            h.update(k.encode())
            _feed(h, v, depth + 1)
    else:
        h.update(repr(obj).encode())


def _fingerprint(inp) -> str:
    """Content hash of a block-sum input, so equal inputs built twice match."""
    h = hashlib.sha256()
    _feed(h, inp)
    return h.hexdigest()
