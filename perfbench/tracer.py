"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the program from the outside: :func:`Recorder.wrap`
replaces a public function or method with a thin wrapper that records a
span (name, start, end, parent, thread) around every call.  A function
that other ``repro`` modules imported *by name* is replaced in every one
of those modules too, so ``from repro.x import f`` call sites are traced
like ``x.f`` ones.  Parents come from a context variable, which follows
plain calls, threads and asyncio tasks; the server launcher adds
explicit links where work hops from one task or thread to another.

Spans stay in memory until the run ends; :func:`chrome_events` renders
them in the Trace Event Format shape ``repro.sim.trace`` already emits.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: One recorded call: (span id, name, start, end, parent id, thread id,
#: weight).  ``weight`` is a per-call work count supplied by the wrap
#: site (e.g. candidates in a batch, sweeps that improved), 1 by default.
Span = Tuple[int, str, float, float, Optional[int], int, int]

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Collects spans while :attr:`active`; wrappers are no-ops otherwise."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._ids = itertools.count(1)

    # -- context ---------------------------------------------------------

    @staticmethod
    def current() -> Optional[int]:
        return _CURRENT.get()

    @staticmethod
    def adopt(span_id: Optional[int]):
        """Make ``span_id`` the parent of spans opened until reset."""
        return _CURRENT.set(span_id)

    @staticmethod
    def release(token) -> None:
        _CURRENT.reset(token)

    # -- wrapping --------------------------------------------------------

    def make_wrapper(
        self,
        name: str,
        fn: Callable,
        weight: Optional[Callable[[tuple, dict, object], int]] = None,
    ) -> Callable:
        """``fn`` recording one span per call while :attr:`active`.

        ``weight(args, kwargs, result)`` gives the span's work count
        (``result`` is None when ``fn`` raised).
        """
        recorder = self
        spans = self.spans

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not recorder.active:
                    return await fn(*args, **kwargs)
                sid = next(recorder._ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(sid)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    spans.append(
                        (sid, name, start, end, parent, threading.get_ident(), 1)
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            sid = next(recorder._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append(
                    (
                        sid,
                        name,
                        start,
                        end,
                        parent,
                        threading.get_ident(),
                        1 if weight is None else weight(args, kwargs, result),
                    )
                )

        return wrapper

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        weight: Optional[Callable[[tuple, dict, object], int]] = None,
    ) -> None:
        """Trace ``owner.attr`` (a module function or a class attribute)."""
        self.replace(
            owner, attr, lambda fn: self.make_wrapper(name, fn, weight)
        )

    def replace(self, owner, attr: str, build: Callable[[Callable], Callable]):
        """Swap ``owner.attr`` for ``build(original)`` everywhere it is bound.

        Class attributes keep their descriptor kind (classmethod or
        staticmethod).  A module-level function is also rebound in every
        loaded ``repro`` module that holds it under any name, which is
        what keeps ``from ... import f`` call sites covered.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            replacement = kind(build(raw.__func__))
        else:
            replacement = build(raw)
        setattr(owner, attr, replacement)
        if inspect.isclass(owner):
            return
        for module in list(sys.modules.values()):
            if module is None or module is owner:
                continue
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, replacement)


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Per span: its duration minus the time its direct children cover.

    Children of one parent run sequentially on one thread except where
    work hops threads (the service's planning executor), so their
    union is measured by merging their intervals, clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span[0]: span for span in spans}
    for span in spans:
        parent = span[4]
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append((span[2], span[3]))
    result: Dict[int, float] = {}
    for sid, span in by_id.items():
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


def chrome_events(
    spans: List[Span], pid: int, process_name: str, origin: float
) -> List[dict]:
    """Spans as Trace Event Format dicts, one process row, one thread
    row per recording thread (same ``X``/``M`` shape as
    ``repro.sim.trace.chrome_trace_events``)."""
    tids: Dict[int, int] = {}
    events: List[dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for sid, name, start, end, parent, thread, weight in sorted(
        spans, key=lambda s: s[2]
    ):
        if thread not in tids:
            tids[thread] = len(tids)
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[thread],
                    "name": "thread_name",
                    "args": {"name": f"thread-{tids[thread]}"},
                }
            )
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tids[thread],
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "name": name,
                "cat": name.split(".", 1)[0],
                "args": {"span": sid, "parent": parent, "weight": weight},
            }
        )
    return events
