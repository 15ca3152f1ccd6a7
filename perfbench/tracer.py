"""Span tracer that times the program's public entry points from outside.

The tracer monkeypatches functions and methods of the ``repro`` modules
for the duration of a traced run and restores them afterwards; nothing
under ``src/`` is edited.  Every call of a wrapped function records one
:class:`Span` (name, start, end, parent span, unit-of-work id) in
memory.  :meth:`Tracer.write` dumps the spans as JSON lines when the run
ends, and :func:`layer_table` turns them into per-layer self time,
share and call counts.

Parents follow the call stack of the recording thread.  A span that
opens on a thread with an empty stack (an HTTP handler thread of an
in-process server) is parented to the outstanding client request, when
one is open, so client-side request time minus its server-side
children is the transport overhead.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    """One timed call.

    Attributes:
        id: Index of the span in the tracer's list.
        name: Layer-qualified span name, e.g. ``"gp.fit_opt"``.
        start: ``time.perf_counter()`` at entry.
        end: ``time.perf_counter()`` at exit (``nan`` while open).
        parent: Id of the enclosing span, or ``-1``.
        unit: Id of the unit of work the span belongs to.
        thread: Name of the recording thread.
        attrs: Small per-call facts (rows predicted, bytes written...).
    """

    id: int
    name: str
    start: float
    end: float
    parent: int
    unit: int
    thread: str
    attrs: dict


class Tracer:
    """In-memory span recorder with reversible function wrapping."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, bool, object]] = []
        #: Open client-request span that handler threads attach to.
        self.remote_parent = -1

    # ------------------------------------------------------------------
    # recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        """Start a span on the calling thread."""
        stack = self._stack()
        parent = stack[-1] if stack else self.remote_parent
        with self._lock:
            span = Span(
                id=len(self.spans), name=name, start=time.perf_counter(),
                end=float("nan"), parent=parent, unit=self.unit,
                thread=threading.current_thread().name, attrs={},
            )
            self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        """End a span opened by :meth:`open` on the same thread."""
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()

    # ------------------------------------------------------------------
    # wrapping

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
        remote: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Args:
            owner: Module or class holding the function.
            attr: Attribute name.
            name: Span name, or a callable of the call's arguments that
                returns it (e.g. to tell optimizing fits apart).
            after: Called as ``after(span, result, *args, **kwargs)``
                once the call returned, to attach attributes.
            remote: Spans of this function are client requests; while
                one is open, handler-thread spans attach to it.
        """
        had_own = attr in vars(owner) if isinstance(owner, type) else True
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = tracer.open(label)
            if remote:
                tracer.remote_parent = span.id
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
                if remote:
                    tracer.remote_parent = -1
            if after is not None:
                after(span, result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, had_own, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # output

    def write(self, path: Path, header: dict | None = None) -> None:
        """Write ``header`` (if any), then every span, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
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


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus what its children cover.

    Child intervals are clipped to the parent's and merged first, so
    overlapping children (concurrent handler threads) are not counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        clipped = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.id, ())
            if min(hi, s.end) > max(lo, s.start)
        ]
        out.append(max(0.0, (s.end - s.start) - _covered(clipped)))
    return out


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{name: {"self_s", "total_s", "calls"}}`` over closed spans."""
    closed = [s for s in spans if s.end == s.end]  # drop NaN (open)
    stats: dict[str, dict[str, float]] = {}
    for span, own in zip(closed, self_times(closed)):
        row = stats.setdefault(
            span.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        row["self_s"] += own
        row["total_s"] += span.end - span.start
        row["calls"] += 1
    return stats


def layer_table(stats: dict[str, dict[str, float]], wall_s: float) -> str:
    """Fixed-width table of self time, share of ``wall_s`` and calls."""
    lines = [f"{'layer':<28}{'self_s':>10}{'share':>8}{'calls':>8}"]
    for name, row in sorted(
        stats.items(), key=lambda kv: -kv[1]["self_s"]
    ):
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name:<28}{row['self_s']:>10.4f}{share:>8.1%}"
            f"{int(row['calls']):>8d}"
        )
    return "\n".join(lines)
