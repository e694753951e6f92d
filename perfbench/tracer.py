"""In-memory span tracer wrapped around each simulator layer's entry points.

The tracer lives entirely in the benchmark: :func:`Tracer.install`
replaces the named functions and methods (resolved by import path) with
thin wrappers that time every call, and :meth:`Tracer.uninstall` puts the
originals back.  Nothing under ``src/`` knows it is being traced.

Each wrapped call is a span with a name, start, end and parent span.  The
tracer keeps, per wrapped function:

* calls, inclusive time and self time (inclusive minus child spans);
* inclusive time per caller, so nested constructors are not double counted;
* optional per-call durations, for percentiles.

The first ``span_cap`` raw spans are kept as records and written out as
JSON lines by :meth:`Tracer.write_spans`; the aggregates cover every call.

A target whose module, class or attribute no longer exists is recorded as
missing instead of raising, and a layer none of whose targets resolve is
reported ``absent``.  Only the thread that installed the tracer is traced:
worker heartbeat threads call through unwrapped.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Observer hook: ``observe(tracer, result, args)`` after a traced call.
Observer = Callable[["Tracer", Any, tuple], None]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``owner`` is a class name inside ``module`` or None for a module-level
    function; ``names`` lists attributes, or ``("*",)`` for every plain
    method the class itself defines.
    """

    layer: str
    module: str
    owner: Optional[str]
    names: Tuple[str, ...]
    observe: Optional[Observer] = None
    keep_durations: bool = False


class _Frame:
    __slots__ = ("index", "span_id", "child_ns")

    def __init__(self, index: int, span_id: int) -> None:
        self.index = index
        self.span_id = span_id
        self.child_ns = 0


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self, workload: str, span_cap: int = 50_000) -> None:
        self.workload = workload
        self.span_cap = span_cap
        self.active = False
        self._thread = threading.get_ident()
        self._stack: List[_Frame] = []
        self._next_id = 1
        #: Parallel per-name arrays, indexed by :attr:`names` position.
        self.names: List[str] = []
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        #: (caller index or -1, callee index) -> inclusive ns.
        self.edges: Dict[Tuple[int, int], int] = {}
        self.durations: Dict[str, List[int]] = {}
        #: Free-form counters and value samples fed by observers.
        self.counts: Dict[str, float] = {}
        self.values: Dict[str, List[float]] = {}
        self.spans: List[Tuple[int, int, int, int, int]] = []
        self.spans_dropped = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        #: layer -> resolved target names / missing target descriptions.
        self.resolved: Dict[str, List[str]] = {}
        self.missing: Dict[str, List[str]] = {}

    # ----- names -------------------------------------------------------------

    def _index(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def record(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(value)

    # ----- span bookkeeping ----------------------------------------------------

    def _enter(self, index: int) -> _Frame:
        frame = _Frame(index, self._next_id)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        index = frame.index
        self.calls[index] += 1
        self.total_ns[index] += duration
        self.self_ns[index] += duration - frame.child_ns
        if stack:
            parent = stack[-1]
            parent.child_ns += duration
            edge = (parent.index, index)
            parent_id = parent.span_id
        else:
            edge = (-1, index)
            parent_id = 0
        self.edges[edge] = self.edges.get(edge, 0) + duration
        if len(self.spans) < self.span_cap:
            self.spans.append((frame.span_id, index, start, end, parent_id))
        else:
            self.spans_dropped += 1

    def span(self, name: str, layer: str = "root") -> "_SpanContext":
        """Context manager for a benchmark-level span (e.g. one job)."""
        return _SpanContext(self, self._index(name, layer))

    # ----- wrapping -------------------------------------------------------------

    def _wrap(self, fn: Callable, index: int, target: Target) -> Callable:
        tracer = self
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        observe = target.observe
        durations = None
        if target.keep_durations:
            durations = self.durations.setdefault(self.names[index], [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            frame = tracer._enter(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._exit(frame, start, end)
            if durations is not None:
                durations.append(end - start)
            if observe is not None:
                observe(tracer, result, args)
            return result

        return traced

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every resolvable target; record the rest as missing."""
        for target in targets:
            self.resolved.setdefault(target.layer, [])
            self.missing.setdefault(target.layer, [])
            try:
                module = importlib.import_module(target.module)
            except ImportError as exc:
                self.missing[target.layer].append(f"{target.module} ({exc})")
                continue
            if target.owner is None:
                for name in target.names:
                    self._patch_function(module, name, target)
                continue
            owner = getattr(module, target.owner, None)
            if not isinstance(owner, type):
                self.missing[target.layer].append(f"{target.module}.{target.owner}")
                continue
            names = target.names
            if names == ("*",):
                names = tuple(
                    name
                    for name, value in vars(owner).items()
                    if not (name.startswith("__") and name != "__call__")
                    and (callable(value) or isinstance(value, (staticmethod, classmethod)))
                    and not isinstance(value, type)
                )
            for name in names:
                self._patch_method(owner, name, target)

    def _patch_method(self, owner: type, name: str, target: Target) -> None:
        qualname = f"{target.module}.{owner.__name__}.{name}"
        raw = vars(owner).get(name)
        if raw is None:
            self.missing[target.layer].append(qualname)
            return
        index = self._index(qualname, target.layer)
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self._wrap(raw.__func__, index, target))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, index, target))
        elif callable(raw):
            wrapped = self._wrap(raw, index, target)
        else:
            self.missing[target.layer].append(f"{qualname} (not callable)")
            return
        self._patches.append((owner, name, raw))
        setattr(owner, name, wrapped)
        self.resolved[target.layer].append(qualname)

    def _patch_function(self, module: Any, name: str, target: Target) -> None:
        qualname = f"{target.module}.{name}"
        fn = getattr(module, name, None)
        if not callable(fn):
            self.missing[target.layer].append(qualname)
            return
        index = self._index(qualname, target.layer)
        wrapped = self._wrap(fn, index, target)
        # ``from x import f`` copies the binding: rebind every module of
        # the same package that holds this very function object.
        package = target.module.split(".")[0]
        for other_name, other in list(sys.modules.items()):
            if other is None or not (
                other_name == package or other_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(other).items()):
                if value is fn:
                    self._patches.append((other, attr, fn))
                    setattr(other, attr, wrapped)
        self.resolved[target.layer].append(qualname)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ----- queries -----------------------------------------------------------------

    def absent_layers(self) -> List[str]:
        return sorted(layer for layer, names in self.resolved.items() if not names)

    def layer_self_ns(self, layer: str) -> int:
        return sum(
            ns for ns, owner in zip(self.self_ns, self.layers) if owner == layer
        )

    def _indices(self, patterns: Sequence[str]) -> List[int]:
        """Indices of the traced names matching any ``fnmatch`` pattern."""
        return [
            i
            for i, name in enumerate(self.names)
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)
        ]

    def calls_of(self, *patterns: str) -> int:
        return sum(self.calls[i] for i in self._indices(patterns))

    def self_of(self, *patterns: str) -> int:
        return sum(self.self_ns[i] for i in self._indices(patterns))

    def total_of(self, *patterns: str) -> int:
        return sum(self.total_ns[i] for i in self._indices(patterns))

    def outer_total_of(self, *patterns: str) -> int:
        """Inclusive time of the matching calls, excluding calls made from
        within another matching function (no double counting)."""
        chosen = set(self._indices(patterns))
        return sum(
            ns
            for (caller, callee), ns in self.edges.items()
            if callee in chosen and caller not in chosen
        )

    def durations_of(self, pattern: str) -> List[int]:
        out: List[int] = []
        for name, values in self.durations.items():
            if fnmatch.fnmatchcase(name, pattern):
                out.extend(values)
        return out

    # ----- export -----------------------------------------------------------------------

    def write_spans(self, path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the header, per-name aggregates and raw spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "kind": "header",
                "workload": self.workload,
                "spans": len(self.spans),
                "spans_dropped": self.spans_dropped,
                "absent_layers": self.absent_layers(),
                "missing_targets": {k: v for k, v in self.missing.items() if v},
            }
            header.update(extra or {})
            handle.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "kind": "aggregate",
                            "name": name,
                            "layer": self.layers[i],
                            "calls": self.calls[i],
                            "total_ns": self.total_ns[i],
                            "self_ns": self.self_ns[i],
                        }
                    )
                    + "\n"
                )
            names = self.names
            workload = self.workload
            for span_id, index, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span_id,
                            "name": names[index],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "workload": workload,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("tracer", "index", "frame", "start")

    def __init__(self, tracer: Tracer, index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer._enter(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._exit(self.frame, self.start, time.perf_counter_ns())
