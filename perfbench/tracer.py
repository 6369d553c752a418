"""In-memory spans around calls into the simulator's public functions.

The traced run replaces selected functions and methods of the ``repro``
package with wrappers that record one span per call: its name, host
start and end, the span that was open when it began (its parent) and an
optional tag.  Spans stay in memory and are written once, when the run
ends.  A span's *self time* is its duration minus the durations of its
direct children, so self times partition the traced host time.

Nothing here changes what the wrapped code computes: wrappers pass
arguments and results through untouched, and the self-tests check that
traced and untraced runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import pathlib
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

__all__ = ["SpanRecorder"]

# Span record layout: [name, start, end, parent index (-1 for a root), tag].
_NAME, _START, _END, _PARENT, _TAG = range(5)


class SpanRecorder:
    """Records spans for every call into the functions it wraps."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: Counts taken at the wrapped boundaries by ``after`` hooks.
        self.facts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        tag: Callable[..., str] | None = None,
        before: Callable[..., None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class (the method is replaced on the class, so
        every instance built afterwards is traced) or a module (the
        function is replaced in every loaded ``repro`` module that
        imported it by name).  ``tag(*args)`` labels the span,
        ``before(*args)`` runs inside the span before the call and
        ``after(result, *args)`` once the span has closed.
        """
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            if tag is not None:
                record[_TAG] = tag(*args, **kwargs)
            record[_START] = clock()
            try:
                if before is not None:
                    before(*args)
                result = original(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        if isinstance(owner, type):
            setattr(owner, attr, traced)
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    # ------------------------------------------------------------------
    # Reductions.
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def ancestor_tag(self, index: int) -> str | None:
        """The tag of the nearest tagged span enclosing span ``index``."""
        parent = self.spans[index][_PARENT]
        while parent >= 0:
            tag = self.spans[parent][_TAG]
            if tag is not None:
                return tag
            parent = self.spans[parent][_PARENT]
        return None

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``{name: (calls, total duration, total self time)}``."""
        own = self.self_times()
        totals: dict[str, tuple[int, float, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls, duration, self_s = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, duration + end - start, self_s + own[index])
        return totals

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in start order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: pathlib.Path) -> None:
        """Write every span as one JSON document; parents are list indices."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"fields": ["name", "start", "end", "parent", "tag"], "spans": self.spans}
            )
        )
