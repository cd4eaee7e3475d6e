"""In-memory spans recorded around calls into the program's public functions.

A span is ``[name, start, end, parent, trial]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``trial`` the simulation trial the
call served (-1 outside a trial).  The layer of a span is the part of its
name before the first dot, which is the package module it times.

Spans come from one thread, so the children of one span never overlap and a
span's self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import csv
import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, TRIAL = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trial = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.trial])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][END] = perf_counter()

    def wrap(self, module, attr: str, name: str, *, suffix=None, trial=None,
             on_result=None) -> None:
        """Replace ``module.attr`` with a version that records a span.

        The wrapper goes on the name where the caller looks the function up,
        which for ``from x import f`` is the caller's own module.
        ``suffix(args, kwargs)`` extends the span name, ``trial(args, kwargs)``
        sets the current trial id, and ``on_result`` sees each return value.
        A name the module no longer has is skipped; its metrics then read 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if trial is not None:
                self.trial = trial(args, kwargs)
            label = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            index = self._open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(label, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self.trial = -1

    def dump(self, path) -> None:
        """Write the spans as CSV rows: name, start, end, parent, trial."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "start_s", "end_s", "parent", "trial"])
            for name, start, end, parent, trial in self.spans:
                writer.writerow([name, "%.9f" % start, "%.9f" % end, parent, trial])


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize_spans(spans) -> tuple[dict, dict]:
    """Per-name {calls, busy_s} and per-layer {busy_s, self_s}.

    A layer's busy time counts each span whose ancestors are all in other
    layers, so a layer calling into itself is not counted twice.
    """
    own = self_times(spans)
    by_name: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0})
    by_layer: dict = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
    for index, s in enumerate(spans):
        duration = s[END] - s[START]
        entry = by_name[s[NAME]]
        entry["calls"] += 1
        entry["busy_s"] += duration
        layer = layer_of(s[NAME])
        by_layer[layer]["self_s"] += own[index]
        parent = s[PARENT]
        while parent >= 0 and layer_of(spans[parent][NAME]) != layer:
            parent = spans[parent][PARENT]
        if parent < 0:
            by_layer[layer]["busy_s"] += duration
    return dict(by_name), dict(by_layer)
