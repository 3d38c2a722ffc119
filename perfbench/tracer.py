"""In-memory span tracing by wrapping module attributes from outside.

The package calls its layers through module attributes (``bel.sample``,
``fl.solve``, ``hns.write_snapshots`` looked up as a module global), so
replacing an attribute with a timing wrapper catches every call without
touching the program. Spans record name, start, end and parent and stay in
memory until the caller summarizes them. Every patched attribute is put
back when the tracer's ``with`` block ends, also on error.
"""

from __future__ import annotations

import functools
import time

# Span name for bookkeeping the tracer does inside a traced call (observer
# callbacks). It is a child span, so it never inflates its parent's self time.
OBSERVE = "bench.observe"


class Tracer:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, observe=None):
        """Timing wrapper around fn.

        name is a span name or a callable taking the call's arguments and
        returning one. observe(args, kwargs, result) runs after the span
        closes, inside an OBSERVE child span of the enclosing span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                obs = self._open(OBSERVE)
                try:
                    observe(args, kwargs, result)
                finally:
                    self._close(obs)
            return result

        return traced

    def patch(self, owner, attr: str, name, observe=None) -> None:
        """Replace owner.attr with a traced wrapper until restore()."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes below zero.
    """
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0
        run_start = run_end = None
        for kid in sorted(kids, key=starts.__getitem__):
            a, b = max(starts[kid], lo), min(ends[kid], hi)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out
