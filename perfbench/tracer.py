"""In-memory span tracer for the relphase benchmark.

The tracer wraps the public functions and class members of every relphase
module by rebinding their names in the module namespaces.  Modules import
each other's functions by name (``from .core import scalar_product``), so a
call always goes through the caller's own namespace; rebinding the name in
every namespace that holds it therefore traces every cross-module and
intra-module call without touching the library source.

Each call becomes a span (name, start, end, parent, unit id).  The layer of a
span is the module that defines the wrapped object.  Self time is derived as
the span's duration minus the durations of its direct children, computed when
the span closes, so per-layer totals cover every call of the run.  The raw
spans of the first ``span_cap`` calls are kept in memory and written out at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
import types

LAYERS = ("core", "triproduct", "liealgebra", "representations", "em", "verify", "cli")

# Dunder members that do library work; the rest (repr, eq, hash) are skipped.
_DUNDERS = ("__init__", "__call__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")

# Wrapped names that feed counters.  An image span builds one generator image
# (nested image spans belong to the outermost); qo_realize calls are counted
# inside image spans; evolve_numeric adds its step count.
_IMAGE, _REALIZE, _RK4 = 1, 2, 3
_SPECIAL = {
    "representations.Representation.__call__": _IMAGE,
    "representations.pi_half": _IMAGE,
    "representations.pi_spin1": _IMAGE,
    "liealgebra.qo_realize": _REALIZE,
    "em.evolve_numeric": _RK4,
}


def _layer(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    head, _, tail = module.rpartition(".")
    return tail if head == "relphase" and tail in LAYERS else None


class Tracer:
    """Records spans of wrapped relphase calls while ``on`` is true."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.span_count = 0
        self.unit = -1
        self.on = False
        self.rk4_steps = 0
        self.images = 0
        self.realize_in_images = 0
        self._stack: list[list] = []
        self._image_depth = 0
        self._kinds: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _enter(self, idx: int, args: tuple, kwargs: dict) -> None:
        kind = self._kinds[idx]
        image = kind == _IMAGE
        if image:
            if self._image_depth == 0:
                self.images += 1
            self._image_depth += 1
        elif kind == _REALIZE and self._image_depth:
            self.realize_in_images += 1
        elif kind == _RK4:
            self.rk4_steps += int(args[3] if len(args) > 3 else kwargs["steps"])
        parent = self._stack[-1][3] if self._stack else -1
        span_id = self.span_count
        self.span_count += 1
        self._stack.append([idx, time.perf_counter(), 0.0, span_id, parent, image])

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, start, child_s, span_id, parent, image = self._stack.pop()
        duration = end - start
        self.calls[idx] += 1
        self.self_s[idx] += duration - child_s
        self.total_s[idx] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if image:
            self._image_depth -= 1
        if span_id < self.span_cap:
            self.spans.append((span_id, idx, start, end, parent, self.unit))

    def _wrap(self, fn, name: str, layer: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        idx = len(self.names)
        self.names.append(name)
        self._kinds.append(_SPECIAL.get(name, 0))
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer._enter(idx, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        self._wrappers[key] = traced
        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self._wrap(member, name, layer))
            elif isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(member.__func__, name, layer)))
            elif isinstance(member, property) and member.fget is not None:
                self._patch(cls, attr, property(self._wrap(member.fget, name, layer),
                                                member.fset, member.fdel, member.__doc__))

    def install(self, modules) -> None:
        """Wrap every public relphase function and class member in ``modules``.

        ``modules`` maps layer names to the imported ``relphase.<layer>``
        module objects.  ``scipy.linalg.expm``, imported by name into
        ``representations``, is wrapped as part of that layer so the oracle's
        calls and time stay visible.
        """
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                layer = _layer(obj)
                if layer is None or attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    self._patch(mod, attr, self._wrap(obj, f"{layer}.{obj.__name__}", layer))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, layer)
        reps = modules["representations"]
        self._patch(reps, "expm", self._wrap(reps.expm, "representations.expm", "representations"))
        verify = modules["verify"]
        self._patch(verify, "SUITES", tuple((name, self._wrappers.get(id(fn), fn))
                                            for name, fn in verify.SUITES))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per layer."""
        out = {layer: (0, 0.0) for layer in LAYERS}
        for layer, calls, self_s in zip(self.layers, self.calls, self.self_s):
            c, s = out[layer]
            out[layer] = (c + calls, s + self_s)
        return out

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) of one wrapped name."""
        if name not in self.names:
            return 0, 0.0, 0.0
        idx = self.names.index(name)
        return self.calls[idx], self.self_s[idx], self.total_s[idx]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, idx, start, end, parent, unit in self.spans:
                fh.write(json.dumps({"id": span_id, "name": self.names[idx],
                                     "start": start - self._t0, "end": end - self._t0,
                                     "parent": parent, "unit": unit}) + "\n")
