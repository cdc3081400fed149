"""Spans around calls into the cstm layers, and the arithmetic on them.

A :class:`Tracer` replaces module-level names (for example ``cstm.stm.solve_qp``
or the ``gram_matrix`` that ``cstm.experiments`` imported) with wrappers that
record one :class:`Span` per call: name, layer, start, end, parent span and
pass.  Spans stay in memory until :meth:`Tracer.write` at the end of a run.
The program itself is not edited; the wrappers are removed on exit.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = math.nan
    parent: int | None = None
    pass_id: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One module-level name to wrap, the layer it belongs to, and an
    optional ``attrs(args, kwargs, result) -> dict`` run after the call."""

    module: object
    attr: str
    layer: str
    attrs: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name, layer)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _open(self, name, layer) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, 0.0, parent=parent, pass_id=self.pass_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, target: Target):
        name = f"{target.layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, target.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if target.attrs is not None:
                self.spans[idx].attrs = target.attrs(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block."""
        try:
            for t in targets:
                orig = getattr(t.module, t.attr)
                self._patched.append((t.module, t.attr, orig))
                setattr(t.module, t.attr, self._wrap(orig, t))
            yield self
        finally:
            while self._patched:
                module, attr, orig = self._patched.pop()
                setattr(module, attr, orig)

    def of_pass(self, pass_id) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = asdict(s)
                rec["id"] = i
                fh.write(json.dumps(rec, default=str) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    ``parent`` is an index into ``spans``.  Children are clipped to the
    parent's interval and overlapping children are counted once.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        ivs = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
        )
        covered = 0.0
        cur_a = cur_b = None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append(s.duration - covered)
    return out


def tail_percentile(values, beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples ranked above it.

    Nearest-rank definition: percentile p is the ceil(p * n / 100)-th
    smallest value.  Returns ``(p, value)``, or ``None`` when there are not
    more than ``beyond`` samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return None
    p = 100 * (n - beyond) // n
    rank = -(-p * n // 100)
    return p, xs[rank - 1]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0
