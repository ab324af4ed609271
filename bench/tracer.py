"""Spans around calls into qdcascade, recorded from outside the package.

A ``Site`` names a module attribute that some caller looks up at call
time (``qdcascade.pipeline.cross_correlate`` is what ``cmd_tomo``
calls). ``Tracer.install`` replaces each such attribute with a wrapper
and ``Tracer.uninstall`` puts the originals back, so ``src/`` is never
edited. Spans stay in memory: name, start, end, parent and a dict of
counts taken from the call's arguments and result.

A tracer built with ``timed=False`` reads no clock. The untraced run
uses one on a few coarse sites (a handful of calls per run) to count
failed operations; the traced run times every site.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Site:
    """One module attribute to wrap.

    ``attrs(args, result)`` returns the counts to store on the span;
    ``args`` maps parameter names to the call's bound arguments.
    A site with ``counter=True`` gets no span of its own: each call
    only increments ``name`` on the innermost open span (used for the
    objective evaluations inside one MLE).
    """

    module: str
    attr: str
    name: str
    attrs: Optional[Callable] = None
    counter: bool = False

    @property
    def key(self):
        return f"{self.module}.{self.attr}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, timed=True):
        self._clock = time.perf_counter if timed else (lambda: 0.0)
        self.spans = []
        self.hits = {}
        self.missing = []
        self.broken = set()
        self._stack = []
        self._installed = []

    def install(self, sites):
        """Wrap every site that exists; record the keys of those that do not."""
        for site in sites:
            module = importlib.import_module(site.module)
            original = getattr(module, site.attr, None)
            if not callable(original):
                self.missing.append(site.key)
                continue
            self.hits[site.key] = 0
            wrapper = self._counter(site, original) if site.counter else self._wrap(site, original)
            setattr(module, site.attr, wrapper)
            self._installed.append((module, site.attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def open(self, name):
        """Start a span that the caller closes with ``close``."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        self._stack.pop()
        span.end = self._clock()

    def _wrap(self, site, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.hits[site.key] += 1
            span = self.open(site.name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.close(span)
                span.attrs["error"] = type(exc).__name__
                raise
            self.close(span)
            if site.attrs is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs.update(site.attrs(bound.arguments, result))
                except (KeyError, AttributeError, TypeError, OSError):
                    # the call's signature or result changed shape: its
                    # counts are unknown, so its metrics go missing
                    self.broken.add(site.key)
            return result

        return wrapper

    def _counter(self, site, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.hits[site.key] += 1
            if self._stack:
                attrs = self.spans[self._stack[-1]].attrs
                attrs[site.name] = attrs.get(site.name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def _self_durations(self):
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def self_time(self, name):
        return sum(t for s, t in zip(self.spans, self._self_durations()) if s.name == name)

    def self_times(self):
        """Self time summed per layer (the span name up to its first dot)."""
        out = {}
        for span, own in zip(self.spans, self._self_durations()):
            layer = span.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def to_json(self):
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "attrs": {k: v for k, v in s.attrs.items() if k != "key"}}
            for s in self.spans
        ]
