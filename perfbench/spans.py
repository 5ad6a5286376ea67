"""Spans recorded by the benchmark around its calls into the package.

Phase spans (``setup``, ``evolve``, ``write`` and the benchmark's own
``bench`` work) are always recorded: the end-to-end metrics are sums of them.
Layer spans are recorded only in a traced pass.  They wrap the benchmark's own
calls into a layer's public functions and, through ``Tracer.patched``, the
public functions a layer calls on another module's attribute (for example
``build_symmetry_sector`` calling ``lattice.enumerate_physical_configs``), so
inner calls show up as child spans without any tracing inside the package.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration less the durations of its direct children."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


class Tracer:
    """In-memory span recorder for one pass over a workload."""

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent=parent, attrs=attrs)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def layer(self, name: str, **attrs):
        """A span in a traced pass, nothing otherwise."""
        return self.span(name, **attrs) if self.layers else nullcontext()

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name)`` functions for the duration.

        Only in a traced pass.  An attribute the module no longer has raises
        AttributeError: a layer that silently read zero time would pass for
        a gain.
        """
        saved = []
        try:
            if self.layers:
                for module, attr, name in targets:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, name))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def enclosing_n(self, index: int):
        """The ``n`` attribute of the span or its nearest ancestor that has one."""
        while index is not None:
            span = self.spans[index]
            if "n" in span.attrs:
                return span.attrs["n"]
            index = span.parent
        return None
