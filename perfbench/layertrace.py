"""Per-layer tracing of dvbcalc, installed from outside the package.

``Tracer.install`` replaces every binding of each layer's public functions
and methods with a counting wrapper: module attributes in every dvbcalc
module (so ``from .dvb import pair_a`` in ``sections`` is caught as well as
``dvb.pair_a``), class attributes (so ``Jet.__radd__``, an alias of
``__add__``, is caught), and the suite runners held in ``SUITES``.
Constructions are counted by wrapping each class's ``__init__``.

Every wrapped call is counted.  A span is opened only when a call enters a
layer from another layer; calls inside the same layer, such as the
recursion of ``expressions.evaluate``, are counted but not spanned.  Spans
are kept in memory for one verify call, and folded when the call ends: a
layer's self time is its spans' durations minus the parts covered by their
child spans.  ``uninstall`` restores every binding, so untraced calls run
the original code.

No layer has a queue, so there is no time spent waiting to report.
"""

from __future__ import annotations

import sys
import types
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PACKAGE = "dvbcalc"
LAYERS = (
    "expressions",
    "jets",
    "smoothmaps",
    "dvb",
    "sections",
    "charts",
    "tangent",
    "cotangent",
    "harness.problem",
    "harness.suites",
    "harness.report",
)
# The verify entry point (harness.cli) owns the root span of each call.
ROOT = len(LAYERS)

# Special methods that are entry points into a layer; the rest (repr,
# equality, hashing, attribute access) are left alone.
_DUNDERS = frozenset({
    "__init__", "__call__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
})

# Functions whose inclusive time is kept even for calls from their own layer.
_TIMED = ("sections.warp", "smoothmaps.lie_bracket", "dvb.core_difference")

ELEMENT_INITS = tuple(
    f"dvb.{cls}.__init__"
    for cls in ("DvbElement", "DualAElement", "DualBElement", "IterBCElement", "IterACElement")
)


@dataclass
class CallTrace:
    """Counts and times of one traced call, folded from its spans."""

    calls: dict[str, int]           # function key -> calls
    entries: dict[str, int]         # function key -> calls from another layer
    timed_s: dict[str, float]       # timed key -> inclusive seconds
    timed_elements: dict[str, int]  # timed key -> dvb elements built inside
    layer_self_s: dict[str, float]  # layer -> self seconds
    layer_incl_s: dict[str, float]  # layer -> seconds inside the layer's spans
    layer_spans: dict[str, int]     # layer -> spans opened
    domain_errors: int
    wall_s: float                   # duration of the root span


class Tracer:
    def __init__(self):
        self._keys: list[str] = []
        self._index: dict[str, int] = {}
        self._calls: list[int] = []
        self._entries: list[int] = []
        self._timed_index: dict[str, int] = {}
        self._timed_keys: list[str] = []
        self._timed_s: list[float] = []
        self._timed_elements: list[int] = []
        self._element_ids: list[int] = []
        self._domain_errors = [0, 0]  # count, id of the last error counted
        self._patches: list[tuple] = []
        # Spans of the call in progress, one entry per span.
        self._span_layer = array("b")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        # Layer and index of each open span; the sentinel stands for calls
        # made outside ``run``, whose spans are dropped by the next reset.
        self._stack: list[int] = [-1]
        self._open: list[int] = [-1]
        self._domain_error: type = ValueError

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = PACKAGE + "."
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(prefix)
        }
        missing = [layer for layer in LAYERS if prefix + layer not in modules]
        if missing:
            raise RuntimeError(f"layer modules not imported: {missing}")

        self._domain_error = modules[prefix + "jets"].DomainError
        wrappers: dict[int, tuple[object, object]] = {}
        for layer_id, layer in enumerate(LAYERS):
            mod = modules[prefix + layer]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer_id, f"{layer}.{name}"))
                elif isinstance(obj, type):
                    for attr, member in vars(obj).items():
                        func = _function_of(member)
                        if func is None or id(func) in wrappers:
                            continue
                        if attr.startswith("_") and attr not in _DUNDERS:
                            continue
                        key = f"{layer}.{obj.__name__}.{attr}"
                        wrappers[id(func)] = (func, self._wrap(func, layer_id, key))
        self._element_ids[:] = [self._index[key] for key in ELEMENT_INITS]

        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
                elif isinstance(obj, type) and obj.__module__.startswith(prefix):
                    for attr, member in list(vars(obj).items()):
                        func = _function_of(member)
                        hit = wrappers.get(id(func))
                        if func is not None and hit is not None and hit[0] is func:
                            new = hit[1] if member is func else type(member)(hit[1])
                            self._patch(obj, attr, new)

        # The harness dispatches suites through the SUITES table, whose runners
        # are private functions; each is timed under its suite's name.
        suites = modules[prefix + "harness.suites"].SUITES
        suites_id = LAYERS.index("harness.suites")
        for name, (index, runner, description) in list(suites.items()):
            wrapped = self._wrap(runner, suites_id, f"harness.suites.{name}", timed=True)
            self._patches.append((suites, name, suites[name]))
            suites[name] = (index, wrapped, description)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _counter(self, key: str) -> int:
        cid = self._index.get(key)
        if cid is None:
            cid = self._index[key] = len(self._keys)
            self._keys.append(key)
            self._calls.append(0)
            self._entries.append(0)
        return cid

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, layer_id: int, key: str, timed: bool = False):
        cid = self._counter(key)
        calls, entries = self._calls, self._entries
        stack, open_spans = self._stack, self._open
        span_layer, span_parent = self._span_layer, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        domain_errors = self._domain_errors
        domain_error = self._domain_error
        layer_module = f"{PACKAGE}.{LAYERS[layer_id]}"
        wrap = self._wrap

        def traced(*args, **kwargs):
            calls[cid] += 1
            if stack[-1] == layer_id:
                return fn(*args, **kwargs)
            entries[cid] += 1
            idx = len(span_layer)
            span_layer.append(layer_id)
            span_parent.append(open_spans[-1])
            span_end.append(0.0)
            stack.append(layer_id)
            open_spans.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except domain_error as exc:
                if id(exc) != domain_errors[1]:
                    domain_errors[0] += 1
                    domain_errors[1] = id(exc)
                raise
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
                open_spans.pop()
            # A closure handed out by a layer still runs that layer's code,
            # e.g. the operator returned by tangent.linear_vector_field_operator.
            if type(result) is types.FunctionType and result.__module__ == layer_module:
                return wrap(result, layer_id, f"{LAYERS[layer_id]}.{result.__qualname__}")
            return result

        if not timed and key not in _TIMED:
            return traced

        tid = self._timed_index.get(key)
        if tid is None:
            tid = self._timed_index[key] = len(self._timed_keys)
            self._timed_keys.append(key)
            self._timed_s.append(0.0)
            self._timed_elements.append(0)
        timed_s, timed_elements = self._timed_s, self._timed_elements
        element_ids = self._element_ids

        def timed_traced(*args, **kwargs):
            built = sum(calls[i] for i in element_ids)
            start = perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                timed_s[tid] += perf_counter() - start
                timed_elements[tid] += sum(calls[i] for i in element_ids) - built

        return timed_traced

    # -- one traced call --------------------------------------------------------

    def run(self, fn, *args):
        """Call ``fn(*args)`` under the root span; return its result and CallTrace."""
        if not self._patches:
            raise RuntimeError("tracer not installed")
        self._reset()
        self._span_layer.append(ROOT)
        self._span_parent.append(-1)
        self._span_end.append(0.0)
        self._stack.append(ROOT)
        self._open.append(0)
        self._span_start.append(perf_counter())
        try:
            result = fn(*args)
        finally:
            self._span_end[0] = perf_counter()
            self._stack.pop()
            self._open.pop()
        return result, self._fold()

    def _reset(self) -> None:
        for buf in (self._span_layer, self._span_parent, self._span_start, self._span_end):
            del buf[:]
        self._calls[:] = [0] * len(self._calls)
        self._entries[:] = [0] * len(self._entries)
        self._timed_s[:] = [0.0] * len(self._timed_s)
        self._timed_elements[:] = [0] * len(self._timed_elements)
        self._domain_errors[:] = [0, 0]

    def _fold(self) -> CallTrace:
        layer = np.frombuffer(self._span_layer, dtype=np.int8).astype(np.intp)
        parent = np.frombuffer(self._span_parent, dtype=np.int64)
        dur = np.frombuffer(self._span_end, dtype=np.float64) - np.frombuffer(
            self._span_start, dtype=np.float64
        )
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        size = len(LAYERS) + 1
        self_s = np.bincount(layer, weights=dur - child, minlength=size)
        incl_s = np.bincount(layer, weights=dur, minlength=size)
        spans = np.bincount(layer, minlength=size)
        names = LAYERS + ("harness.cli",)
        return CallTrace(
            calls=dict(zip(self._keys, self._calls)),
            entries=dict(zip(self._keys, self._entries)),
            timed_s=dict(zip(self._timed_keys, self._timed_s)),
            timed_elements=dict(zip(self._timed_keys, self._timed_elements)),
            layer_self_s={n: float(v) for n, v in zip(names, self_s)},
            layer_incl_s={n: float(v) for n, v in zip(names, incl_s)},
            layer_spans={n: int(v) for n, v in zip(names, spans)},
            domain_errors=self._domain_errors[0],
            wall_s=float(dur[0]),
        )


def _function_of(member):
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    return member if isinstance(member, types.FunctionType) else None
