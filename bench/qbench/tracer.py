"""Span tracing around the calls into each qrtan layer.

The library is not instrumented; instead, for the duration of a traced
pass, wrappers replace the layer functions at every place a caller looks
them up.  The qrtan modules bind each other's functions at import time
(``from .core import tangent3``), so patching the defining module alone
would miss almost every call: ``installed`` scans every loaded ``qrtan``
module, and the lists and dict keys held at module level (the verify
suite tables), for the original function objects and swaps in the
wrapper everywhere, then puts the originals back.

Spans are aggregated by (name, parent name), which keeps memory bounded
however many scalar calls a pass makes.  A span's self time is its
duration minus the time covered by its child spans.  The tracer keeps a
single call stack, so it is only meaningful for single-threaded runs
(every workload renders with ``threads=1``).
"""

import functools
import sys
import time
from contextlib import contextmanager


class Frame:
    """One open span: its name, the enclosing span, time spent in child
    spans so far, and per-call counters its children may add to."""

    __slots__ = ("name", "parent", "child_ns", "counts", "dt_ns")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_ns = 0
        self.counts = None
        self.dt_ns = 0

    def add(self, key, n):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + n


class SpanStats:
    __slots__ = ("calls", "total_ns", "child_ns", "errors")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.errors = 0


class Tracer:
    """Aggregated spans plus named counters filled in by observers."""

    def __init__(self):
        self.top = None          # innermost open frame
        self.stats = {}          # (name, parent name) -> SpanStats
        self.counters = {}       # metric-like name -> number

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, observe=None):
        """Wrapper recording a ``name`` span around each call of ``fn``.

        ``observe(tracer, frame, args, kwargs, result)`` runs after a
        successful call, with ``frame.dt_ns`` set, to derive counters
        from the arguments and the result.
        """
        clock = time.perf_counter_ns
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.top
            frame = Frame(name, parent)
            self.top = frame
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                dt = clock() - t0
                self.top = parent
                if parent is not None:
                    parent.child_ns += dt
                key = (name, parent.name if parent is not None else None)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = SpanStats()
                rec.calls += 1
                rec.total_ns += dt
                rec.child_ns += frame.child_ns
                rec.errors += failed
            if observe is not None:
                frame.dt_ns = dt
                observe(self, frame, args, kwargs, result)
            return result

        return wrapper

    # -- aggregate queries ------------------------------------------------

    def _select(self, name, parent=None):
        return [s for (n, p), s in self.stats.items()
                if n == name and (parent is None or p == parent)]

    def calls(self, name, parent=None):
        return sum(s.calls for s in self._select(name, parent))

    def errors(self, name):
        return sum(s.errors for s in self._select(name))

    def total_s(self, name):
        return sum(s.total_ns for s in self._select(name)) / 1e9

    def self_s(self, name):
        return sum(s.total_ns - s.child_ns for s in self._select(name)) / 1e9

    def per_call(self, name, scale):
        """Mean inclusive time per call in units of 1/scale seconds (0 if never called)."""
        n = self.calls(name)
        return self.total_s(name) * scale / n if n else 0.0

    def table(self):
        """The aggregated spans as plain records, slowest first."""
        rows = [{"name": n, "parent": p, "calls": s.calls, "errors": s.errors,
                 "total_s": s.total_ns / 1e9, "self_s": (s.total_ns - s.child_ns) / 1e9}
                for (n, p), s in self.stats.items()]
        return sorted(rows, key=lambda r: -r["total_s"])


def _rebind(value, mapping):
    """``value`` with every original function replaced by its wrapper.

    Descends into lists, tuples and dicts (keys and values) and returns
    new containers, never mutating the old ones; returns ``value``
    itself when nothing inside it is wrapped.
    """
    hit = mapping.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if isinstance(value, (list, tuple)):
        items = [_rebind(v, mapping) for v in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        return type(value)(items)
    if isinstance(value, dict):
        items = [(_rebind(k, mapping), _rebind(v, mapping)) for k, v in value.items()]
        if all(k1 is k0 and v1 is v0 for (k1, v1), (k0, v0) in zip(items, value.items())):
            return value
        return dict(items)
    return value


@contextmanager
def installed(wrappers, package="qrtan"):
    """Swap ``wrappers`` ({original function: wrapper}) into every loaded
    module of ``package`` for the duration of the block."""
    mapping = {id(orig): (orig, w) for orig, w in wrappers.items()}
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = _rebind(value, mapping)
                if new is not value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)
