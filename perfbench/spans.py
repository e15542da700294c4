"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions of ``starline`` are swapped for recording wrappers while a
traced pass runs and restored afterwards.  Nothing inside the program is
changed.  A span is ``[name, start, end, parent, pass_id]``; ``parent`` is
the index of the enclosing span or -1.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock  # seconds, for the ends of spans
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.pass_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.pass_id])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, name: str | None = None) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        if name is not None:
            span[0] = name
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.pass_id, name)] += amount

    def wrap(self, name: str, fn, classify=None):
        """A stand-in for ``fn`` that records one span per call.  ``classify``
        sees the call's result and may rename the span or add counts."""

        def recorded(*args, **kwargs):
            index = self.open(name)
            final = None
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    final = classify(self, args, result)
                return result
            finally:
                self.close(index, final)

        return recorded

    def wrap_generator(self, name: str, fn, classify=None):
        """Like :meth:`wrap` for a generator function: the span lasts from
        the first step to exhaustion, and ``classify`` sees every item."""

        def recorded(*args, **kwargs):
            index = self.open(name)
            try:
                for item in fn(*args, **kwargs):
                    if classify is not None:
                        classify(self, item)
                    yield item
            finally:
                self.close(index)

        return recorded

    def pass_summary(self, pass_id: int) -> tuple[dict, dict, dict, dict]:
        """Per span name: total seconds, self seconds and calls; and the
        counts recorded, all for one pass."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        counts = {name: value for (pid, name), value in self.counts.items() if pid == pass_id}
        return total, self_time, calls, counts

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextmanager
def patched(replacements):
    """Install ``(module, attribute, replacement)`` triples, then restore."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, replacement in replacements:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
