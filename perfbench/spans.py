"""Per-layer spans recorded from outside the program.

Nothing under ``src/`` knows about this module.  A :class:`Tracer`
replaces the module and class bindings of the program's layer
boundaries (``simulate_block``, ``access_block``, ``build_mapping``,
the result and trace stores, ...) with wrappers that record one span
per call — name, start, end, parent — plus per-layer counters, all in
memory.  :meth:`Tracer.uninstall` puts every original object back, so
an untraced run executes exactly the program's own code.

A function layer is rebound in every loaded module that holds the
original object (``from repro.sim.lru import simulate_block`` gives
each scheme module its own binding); a method layer is wrapped on the
named class and on every subclass that overrides it.  Spans nest per
thread; a call re-entering a layer it is already inside (a scheme's
``super().flush()``) is counted once, at the outermost call.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

Counts = Callable[[tuple, dict, Any], dict[str, int]]


@dataclass(frozen=True)
class Layer:
    """One traced boundary: ``target`` is ``module:function`` or
    ``module:Class.method``; ``counts`` maps a call to counter
    increments, declared up front in ``counters``."""

    name: str
    target: str
    counters: tuple[str, ...] = ()
    counts: Counts | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _lru(args, kwargs, hits):
    return {"keys": len(_arg(args, kwargs, 2, "keys")), "hits": int(hits.sum())}


def _refs_of_block(args, kwargs, _):
    return {"refs": len(_arg(args, kwargs, 1, "vpns"))}


def _put_streaming(args, kwargs, _):
    return {"refs": int(_arg(args, kwargs, 1, "source").references)}


def _make_trace(args, kwargs, _):
    return {"refs": int(_arg(args, kwargs, 1, "references"))}


def _found(args, kwargs, value):
    return {"hits": int(value is not None)}


def _reselect(args, kwargs, value):
    return {"changed": int(bool(value[1]))}


def _stored_bytes(args, kwargs, path):
    return {"bytes": path.stat().st_size}


#: Every layer the benchmark reports, in the order of the layer table in
#: ``perfbench/README.md``.
LAYERS: tuple[Layer, ...] = (
    Layer("lru.simulate_block", "repro.sim.lru:simulate_block",
          ("keys", "hits"), _lru),
    Layer("schemes.access_block", "repro.schemes.base:TranslationScheme.access_block",
          ("refs",), _refs_of_block),
    Layer("hw.pwc.accesses_for_block", "repro.hw.pwc:PageWalkCache.accesses_for_block"),
    Layer("schemes.sync_mapping", "repro.schemes.base:TranslationScheme.sync_mapping"),
    Layer("vmos.frozen", "repro.vmos.mapping:MemoryMapping.frozen"),
    Layer("schemes.reselect_distance",
          "repro.schemes.anchor_scheme:AnchorScheme.reselect_distance",
          ("changed",), _reselect),
    Layer("vmos.build_mapping", "repro.vmos.scenarios:build_mapping"),
    Layer("schemes.make_scheme", "repro.schemes.registry:make_scheme"),
    Layer("schemes.clone_fresh", "repro.schemes.base:TranslationScheme.clone_fresh"),
    Layer("tenants.run_schedule", "repro.sim.tenants:run_schedule"),
    Layer("schemes.set_asid", "repro.schemes.base:TranslationScheme.set_asid"),
    Layer("schemes.flush", "repro.schemes.base:TranslationScheme.flush"),
    Layer("trace.generate", "repro.sim.trace_store:TraceStore.put_streaming",
          ("refs",), _put_streaming),
    Layer("trace.generate", "repro.sim.workloads:Workload.make_trace",
          ("refs",), _make_trace),
    Layer("trace_store.get", "repro.sim.trace_store:TraceStore.get",
          ("hits",), _found),
    Layer("runner.result_store.get", "repro.sim.runner:ResultStore.get",
          ("hits",), _found),
    Layer("runner.result_store.put", "repro.sim.runner:ResultStore.put",
          ("bytes",), _stored_bytes),
)

#: The layers that run in the service's own process (its pool workers
#: are forked children whose spans would be lost).
SERVICE_LAYERS = tuple(
    layer for layer in LAYERS if layer.name.startswith("runner.result_store")
)


def _classes_overriding(cls: type, attr: str) -> Iterator[type]:
    """``cls`` and every loaded subclass whose own body defines ``attr``."""
    seen: set[type] = set()
    pending = [cls]
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if attr in vars(klass):
            yield klass
        pending.extend(klass.__subclasses__())


class Tracer:
    """In-memory span recorder over a set of :class:`Layer` bindings."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        # (name, start, end, parent index, nested in a same-name span)
        self.spans: list[tuple[str, float, float, int, bool] | None] = []
        self.counters: dict[str, dict[str, int]] = {
            layer.name: {c: 0 for c in layer.counters} for layer in layers
        }
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, int, bool]:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        nested = any(open_name == name for _, open_name in stack)
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append((index, name))
        return index, parent, nested

    def _close(self, index: int, name: str, start: float, parent: int,
               nested: bool) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans[index] = (name, start, end, parent, nested)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        index, parent, nested = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, parent, nested)

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        name, counts = layer.name, layer.counts
        counters = self.counters[name]

        def traced(*args, **kwargs):
            index, parent, nested = self._open(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, name, start, parent, nested)
            if counts is not None and not nested:
                for counter, value in counts(args, kwargs, result).items():
                    counters[counter] += value
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's bindings; :meth:`uninstall` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if any(layer.target.startswith("repro.schemes") for layer in self.layers):
            # Scheme method layers reach subclasses only once loaded.
            importlib.import_module("repro.schemes.registry")
        for layer in self.layers:
            module_name, _, path = layer.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                for klass in _classes_overriding(getattr(module, class_name), attr):
                    self._set(klass, attr, self._wrap(layer, vars(klass)[attr]))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(layer, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._set(loaded, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer ``calls``/``s``/``self_s`` and counters, plus the
        accounting of the root spans: ``wall`` (their total duration),
        ``self_sum`` (all self times, which must add up to ``wall`` when
        every span nests inside a root) and ``coverage_frac`` (the share
        of ``wall`` spent inside a named layer)."""
        if None in self.spans:
            raise RuntimeError("summary() while a span is still open")
        inside = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                inside[parent] += end - start
        out: dict[str, float] = {}
        for layer in self.layers:
            for field in ("calls", "s", "self_s"):
                out[f"{layer.name}.{field}"] = 0
            for counter, value in self.counters[layer.name].items():
                out[f"{layer.name}.{counter}"] = value
        wall = root_self = self_sum = 0.0
        for index, (name, start, end, parent, nested) in enumerate(self.spans):
            own = (end - start) - inside[index]
            self_sum += own
            if parent < 0:
                wall += end - start
                root_self += own
            if f"{name}.calls" not in out:
                continue  # a root span of the benchmark's own code
            out[f"{name}.self_s"] += own
            if not nested:
                out[f"{name}.calls"] += 1
                out[f"{name}.s"] += end - start
        out["wall"] = wall
        out["self_sum"] = self_sum
        out["coverage_frac"] = 1.0 - root_self / wall if wall > 0 else 0.0
        return out
