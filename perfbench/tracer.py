"""In-memory span aggregation for the traced run.

Spans nest per thread.  When a span closes, its duration minus the time
its child spans covered is added to its layer's self time, and, if no
enclosing span on the same thread has the same name, its duration is
added to the name's inclusive time and call count.  A span that closes
with nothing open above it is a root: its duration is charged to the
thread's current tag (one request, or one op), so that per tag the
layer self times add up to the root durations.

Each thread aggregates into its own dicts, so the hot path takes no
lock; :meth:`Tracer.to_dict` merges them once, when the traced process
ends.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional


class _Thread:
    """One thread's open spans and totals."""

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []
        self.active: Dict[str, int] = {}
        self.tag = ""
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.first: Dict[str, tuple] = {}     # name -> (start, duration)
        self.counts: Dict[str, float] = {}
        self.roots: Dict[str, float] = {}


class Tracer:
    """Per-layer self time, per-name inclusive time, counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._lock = threading.Lock()

    def state(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
            return state

    def set_tag(self, tag: str) -> None:
        """Charge the roots this thread closes from now on to ``tag``."""
        self.state().tag = tag

    # -- spans ----------------------------------------------------------------------

    def enter(self, name: str, layer: str) -> List[Any]:
        state = self.state()
        depth = state.active.get(name, 0)
        state.active[name] = depth + 1
        frame = [name, layer, self.clock(), 0.0, depth == 0]
        state.stack.append(frame)
        return frame

    def exit(self, frame: List[Any]) -> None:
        self.close(self.state(), frame, self.clock())

    @staticmethod
    def close(state: _Thread, frame: List[Any], end: float) -> None:
        """Close ``frame`` at ``end``, and any frame still open above it
        (calls that raised past their own exit)."""
        stack = state.stack
        while stack:
            top = stack.pop()
            name, layer, start, child, outermost = top
            duration = end - start
            state.active[name] -= 1
            state.self_s[layer] = state.self_s.get(layer, 0.0) + duration - child
            if outermost:
                state.incl_s[name] = state.incl_s.get(name, 0.0) + duration
                state.calls[name] = state.calls.get(name, 0) + 1
                if name not in state.first:
                    state.first[name] = (start, duration)
            if stack:
                stack[-1][3] += duration
            else:
                state.roots[state.tag] = (state.roots.get(state.tag, 0.0)
                                          + duration)
            if top is frame:
                return

    def count(self, key: str, amount: float = 1.0) -> None:
        counts = self.state().counts
        counts[key] = counts.get(key, 0.0) + amount

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` inside a span (:meth:`enter` and :meth:`exit`, inlined:
        this runs once per simulated event)."""
        local, state_of, clock, close = (self._local, self.state, self.clock,
                                         self.close)

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            active = state.active
            depth = active.get(name, 0)
            active[name] = depth + 1
            frame = [name, layer, clock(), 0.0, depth == 0]
            state.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(state, frame, clock())

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def to_dict(self) -> Dict[str, Any]:
        """Every thread's totals, summed (``first_s``: the earliest call)."""
        out: Dict[str, Any] = {"self_s": {}, "incl_s": {}, "calls": {},
                               "first_s": {}, "counts": {}, "roots": {}}
        first: Dict[str, tuple] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for section in ("self_s", "incl_s", "calls", "counts", "roots"):
                _add(out[section], getattr(state, section))
            for name, seen in state.first.items():
                if name not in first or seen[0] < first[name][0]:
                    first[name] = seen
        out["first_s"] = {name: seen[1] for name, seen in first.items()}
        return out


def _add(into: Dict[str, Any], values: Dict[str, Any]) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


def merge(docs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`Tracer.to_dict` documents, one per process
    (so ``first_s`` sums each process's first call)."""
    out: Dict[str, Any] = {"self_s": {}, "incl_s": {}, "calls": {},
                           "first_s": {}, "counts": {}, "roots": {}}
    for doc in docs:
        for section in out:
            _add(out[section], doc.get(section, {}))
    return out


def layer_of(module: Optional[str]) -> str:
    """The benchmark layer a ``repro`` module belongs to."""
    if not module or not module.startswith("repro"):
        return "other"
    parts = module.split(".")
    if len(parts) == 1:
        return "core"
    top = parts[1]
    if top == "network" and len(parts) > 2 and parts[2] in (
            "analytical", "flowlevel", "adaptive", "garnetlite"):
        return "network." + parts[2]
    if top == "core" and len(parts) > 2 and parts[2] == "engine":
        return "core.engine"
    if top == "trace":
        return "workload"
    if top in ("events", "core", "system", "network", "memory", "workload",
               "frontend", "stats", "campaign", "cli"):
        return top
    return "other"
