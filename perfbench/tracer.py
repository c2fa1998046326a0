"""Span tracing from outside the program, for the traced benchmark run.

:class:`Tracer` replaces public functions of the program's classes and
modules with timing wrappers.  It is installed only in the traced
process: the untraced run executes the program untouched.

Each wrapped call records a span: its name, start and end time, the
span that was open when it began (its parent), and the query it serves
where the call identifies one.  A name's *self time* is its spans'
durations minus the parts covered by child spans.  Per-name call counts
and self time are kept for every call; the span records themselves are
kept in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span records kept in memory; later spans are only aggregated.
SPAN_CAP = 50_000


class Tracer:
    """Call counts, self time and span records per span name."""

    def __init__(self):
        #: name -> [calls, self seconds, total seconds]
        self.stats: Dict[str, List[float]] = {}
        #: open frames: [span id, start, child seconds, query id]
        self._stack: List[list] = []
        #: (id, parent id, name, start, end, query id)
        self.spans: List[Tuple[int, int, str, float, float, Any]] = []
        self.spans_dropped = 0
        self._next_id = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _open(self, query: Any) -> list:
        stack = self._stack
        if query is None and stack:
            query = stack[-1][3]
        self._next_id += 1
        frame = [self._next_id, time.perf_counter(), 0.0, query]
        stack.append(frame)
        return frame

    def _close(self, frame: list, stat: List[float], name: str,
               count: int = 1) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        stat[0] += count
        stat[1] += duration - frame[2]
        stat[2] += duration
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent, name, frame[1], end,
                               frame[3]))
        else:
            self.spans_dropped += 1

    def _stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _install(self, owner: Any, attr: str, replacement: Any) -> None:
        # Undo restores the owner's own attribute (or removes the
        # override when the attribute was inherited).
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             query_of: Optional[Callable[..., Any]] = None,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``query_of(*args)`` names the query the call serves;
        ``on_result`` sees each return value (for outcome counts).
        """
        original = getattr(owner, attr)
        stat = self._stat(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_(query_of(*args) if query_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                close(frame, stat, name)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = original
        self._install(owner, attr, traced)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Trace a generator function (an event-kernel process): one
        call per generator created, and a span per resumption, so the
        self time is the CPU the process used between its waits."""
        original = getattr(owner, attr)
        stat = self._stat(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            generator = original(*args, **kwargs)
            stat[0] += 1
            sent, thrown = None, None
            while True:
                frame = open_(None)
                try:
                    if thrown is not None:
                        value = generator.throw(thrown)
                    else:
                        value = generator.send(sent)
                except StopIteration as stop:
                    close(frame, stat, name, 0)
                    return stop.value
                except BaseException:
                    close(frame, stat, name, 0)
                    raise
                close(frame, stat, name, 0)
                try:
                    sent, thrown = (yield value), None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as error:  # delivered into the proc
                    sent, thrown = None, error

        traced.__wrapped__ = original
        self._install(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[1])

    def total_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[2])

    def write(self, path: str) -> None:
        """Write the kept span records, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, query in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "query": query}) + "\n")
