"""In-memory span tracer that times repro layers from the outside.

The benchmark never re-implements the flow.  Instead it replaces the
module attributes the flow looks up at call time (for example
``repro.core.flow.place_circuit``) with thin wrappers that record a
span around the original call.  Spans are kept in memory as
``(name, start, end, parent, flow id, pid, counters)`` and written when
the run ends; :func:`self_times` turns them into per-layer self time
(a span's duration minus the part its child spans cover).

Counters come from the layers' own public return values and keyword
surfaces: ``RouterStats`` injected through the routers' ``stats=``
keyword, the ``AnnealingStats`` the placers return, the RRG's node
count, and the ``(hit, value)`` pair ``StageCache.get`` returns.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One timed call of one layer entry point."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    flow: Optional[str]
    pid: int
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped callables; one stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Flow id stamped on spans opened by threads with no own id.
        self.flow: Optional[str] = None

    # -- span recording -------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, flow: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if flow is None:
            flow = (
                self.spans[parent].flow if parent is not None
                else getattr(self._local, "flow", None) or self.flow
            )
        span = Span(name, time.perf_counter(), 0.0, parent, flow,
                    os.getpid())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, **counters: float) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.counters.update(counters)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, flow: Optional[str] = None):
        """Context manager form of :meth:`open`/:meth:`close`."""
        index = self.open(name, flow)
        try:
            yield index
        finally:
            self.close(index)

    def set_thread_flow(self, flow: Optional[str]) -> None:
        self._local.flow = flow

    def reset_after_fork(self) -> None:
        """Drop what a forked child copied from its parent: the spans,
        the thread stacks and a lock another thread may have held."""
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple, dict], object]] = None,
        after: Optional[
            Callable[[object, tuple, dict, object], Dict[str, float]]
        ] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *before* may adjust the keyword arguments in place (the router
        wrappers inject ``stats=``) and returns a token; *after* maps
        ``(result, args, kwargs, token)`` to the span's counters.
        Static methods stay static.
        """
        static = isinstance(
            inspect.getattr_static(owner, attr), staticmethod
        )
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = tracer.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                counters = (
                    after(result, args, kwargs, token)
                    if after is not None and result is not None else {}
                )
                tracer.close(index, **counters)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append(
            (owner, attr, inspect.getattr_static(owner, attr))
        )
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path: str, meta: Dict[str, object]) -> None:
        """Write spans (plus *meta*) as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {"meta": meta, "spans": [asdict(s) for s in self.spans]},
                handle,
            )


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union its children cover.

    Children are clipped to their parent's interval and merged where
    they overlap (spans from several threads may share a parent), so
    self time never goes negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.seconds - covered)
    return result


def layer_totals(
    spans: List[Span], names: Iterable[str]
) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive and self seconds, counters."""
    wanted = set(names)
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "seconds": 0.0, "self": 0.0} for name in wanted
    }
    for span, own in zip(spans, selfs):
        if span.name not in wanted:
            continue
        row = totals[span.name]
        row["calls"] += 1
        row["seconds"] += span.seconds
        row["self"] += own
        for key, value in span.counters.items():
            row[key] = row.get(key, 0) + value
    return totals
