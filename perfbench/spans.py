"""An in-memory span recorder that times a program's layers from outside.

The recorder wraps public callables of the program (module functions and
class methods) for the duration of :meth:`Recorder.installed` and records
one :class:`Span` per call: name, start, end and the index of the span that
was open when the call began.  Nothing inside the program changes; the
wrappers are removed on exit, even on error.  Spans stay in memory until the
caller writes them out.

Recording is single-threaded by design: the parent stack is one list, which
is sound because the benchmark drives one sweep at a time and the program's
pool management threads never call a wrapped function.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: ``note(result, args, kwargs) -> attrs``: counts attached to a span after it closes.
Note = Callable[[Any, tuple, dict], Dict[str, Any]]

_MISSING = object()


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    attrs: Optional[Dict[str, Any]] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass(frozen=True)
class Target:
    """One callable to time: ``owner.attr`` recorded as span ``name``.

    ``name`` is ``"<layer>.<operation>"``.  With ``context=True`` the
    callable returns a context manager; its ``__enter__`` is recorded as
    ``name`` and its ``__exit__`` as ``name + "_close"``.
    """

    owner: Any
    attr: str
    name: str
    note: Optional[Note] = None
    context: bool = False


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the body of a ``with`` block as one span."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        if target.context:

            @functools.wraps(fn)
            def open_context(*args: Any, **kwargs: Any) -> Any:
                return _TimedContext(self, target, fn(*args, **kwargs))

            return open_context

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            index = self._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if target.note is not None:
                self.spans[index].attrs = target.note(result, args, kwargs)
            return result

        return timed

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Recorder"]:
        """Wrap every target while the block runs; restore them on exit.

        All originals are resolved before any wrapper is installed, so a
        subclass that inherits a targeted method is never wrapped twice,
        and an inherited attribute is deleted (not shadowed) on restore.
        """
        originals = [
            (t, vars(t.owner).get(t.attr, _MISSING), getattr(t.owner, t.attr)) for t in targets
        ]
        installed: List[tuple] = []
        try:
            for target, own, resolved in originals:
                setattr(target.owner, target.attr, self._wrap(resolved, target))
                installed.append((target, own))
            yield self
        finally:
            for target, own in reversed(installed):
                if own is _MISSING:
                    delattr(target.owner, target.attr)
                else:
                    setattr(target.owner, target.attr, own)


class _TimedContext:
    """Times a wrapped context manager's enter and exit as two spans."""

    def __init__(self, recorder: Recorder, target: Target, manager: Any) -> None:
        self._recorder = recorder
        self._target = target
        self._manager = manager

    def __enter__(self) -> Any:
        index = self._recorder._open(self._target.name)
        try:
            value = self._manager.__enter__()
        finally:
            self._recorder._close(index)
        if self._target.note is not None:
            self._recorder.spans[index].attrs = self._target.note(value, (), {})
        return value

    def __exit__(self, *exc_info: Any) -> Any:
        with self._recorder.span(self._target.name + "_close"):
            return self._manager.__exit__(*exc_info)


def self_seconds(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    return [(s.end_ns - s.start_ns - child_ns[i]) / 1e9 for i, s in enumerate(spans)]


def chrome_trace(spans: Sequence[Span]) -> Dict[str, Any]:
    """Spans as Chrome trace-event JSON (opens in Perfetto)."""
    origin = spans[0].start_ns if spans else 0
    events = []
    for index, span in enumerate(spans):
        args: Dict[str, Any] = {"index": index, "parent": span.parent}
        for key, value in (span.attrs or {}).items():
            if isinstance(value, (int, float, str, bool)):
                args[key] = value
        events.append(
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
