"""Span tracer over the public functions of the ammfg modules.

The package's modules import each other's functions by name
(``from .solver import solve_hjb``), so a function is reachable from several
module namespaces. ``Tracer`` swaps the wrapper in at every site that binds
the original and puts every original back on exit. Only public names are
wrapped (module-level functions and plain methods of public classes), so
refactors of private helpers do not break the trace.

Each wrapped call records a span: id, name, start, end, self time (duration
minus the time of its direct child spans on the same thread) and parent span
id. Root spans (no traced caller) also record process CPU time, which
is how the CPU-per-wall ratio of the threaded fee sweep is measured.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "ammfg"
LAYERS = ("fixed_point", "solver", "rewards", "streams", "certify", "nplayer", "pool",
          "artifacts", "config")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    self_s: float
    parent: int | None
    cpu_s: float | None = None


def public_functions(module):
    """{name: (owner, attribute, function)} for the public callables defined in module.

    Names are ``<layer>.<function>``; methods use the method name alone
    (``solver.control_at``).
    """
    layer = module.__name__.rsplit(".", 1)[-1]
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found[f"{layer}.{attr}"] = (module, attr, obj)
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    found[f"{layer}.{meth}"] = (obj, meth, fn)
    return found


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager: wraps on enter, restores on exit, keeps spans in memory.

    ``observers`` maps a span name, or a layer name for all of its spans, to
    ``fn(tracer, bound_arguments, result)``; observers add work counts to
    ``tracer.counts`` (e.g. stencil points per HJB solve) where the work
    happens.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.paths: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        targets = {}
        for layer in LAYERS:
            targets.update(public_functions(sys.modules[f"{PACKAGE}.{layer}"]))
        wrappers = {id(fn): self._wrap(name, fn) for name, (_, _, fn) in targets.items()}
        for owner, attr, fn in targets.values():
            if inspect.isclass(owner):
                self._patch(owner, attr, wrappers[id(fn)])
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        observe = self.observers.get(name) or self.observers.get(name.split(".", 1)[0])
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]      # span id, time of child spans
            parent = stack[-1] if stack else None
            cpu0 = time.process_time() if parent is None else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.spans.append(Span(
                    frame[0], name, start, end, dur - frame[1],
                    None if parent is None else parent[0],
                    None if cpu0 is None else time.process_time() - cpu0))
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with tracer._lock:      # observers add to shared counts across threads
                    observe(tracer, bound.arguments, result)
            return result

        return wrapper

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name and per layer: calls, total_s, self_s, busy_s, cpu_s.

        busy_s is the length of the union of the span intervals, so calls that
        overlap on two threads are not counted twice; total_s sums durations.
        Layer rows are keyed by the bare layer name.
        """
        groups: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            groups[span.name].append(span)
            groups[span.name.split(".", 1)[0]].append(span)
        out = {}
        for name, spans in groups.items():
            out[name] = {
                "calls": float(len(spans)),
                "total_s": sum(s.end - s.start for s in spans),
                "self_s": sum(s.self_s for s in spans),
                "busy_s": _union_length((s.start, s.end) for s in spans),
                "cpu_s": sum(s.cpu_s for s in spans if s.cpu_s is not None),
            }
        return out

    def bytes_written(self) -> int:
        return sum(os.path.getsize(p) for p in self.paths if os.path.isfile(p))


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
