"""Spans and counters recorded around the package's public calls.

The benchmark traces from outside: :class:`Tracer` replaces public
functions and methods of ``repro.*`` modules with wrappers for the
duration of a traced pass and restores the originals afterwards.
Nothing under ``src/`` knows it is being traced.

A span has a name, start, end, its own id, the id of the span that was
open when it started (its parent, per thread) and a correlation id —
the digest of the request being served.  Spans stay in memory; a
layer's *self* time is its span's duration minus the time its child
spans cover.  Very hot calls (``observe_bid`` runs m^2 times per
engagement) are counted rather than spanned.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "self_times", "install_layers"]


@dataclass(frozen=True, slots=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    correlation: str | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.span_id, "parent": self.parent_id,
                "name": self.name, "correlation": self.correlation,
                "start": self.start, "end": self.end}


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus its children's.

    Children of one parent run on the parent's thread and nest inside
    it, so their durations never overlap and can be summed.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.duration
    return {s.span_id: s.duration - covered.get(s.span_id, 0.0)
            for s in spans}


def _current(owner, attr: str):
    """What ``owner.attr`` is bound to: a class's own entry (not an
    inherited or bound method) or a module's global."""
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


class Tracer:
    """In-memory span and counter recorder with call patching."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._cache_stats: list[tuple[str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def correlation(self) -> str | None:
        return getattr(self._local, "correlation", None)

    @correlation.setter
    def correlation(self, value: str | None) -> None:
        self._local.correlation = value

    def span(self, name: str):
        """Context manager recording one span on the calling thread."""
        return _SpanScope(self, name)

    def _open(self, name: str) -> tuple:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = (next(self._ids), parent, name, time.perf_counter())
        stack.append(frame)
        return frame

    def _close(self, frame: tuple) -> None:
        end = time.perf_counter()
        self._stack().pop()
        # A bare tuple (list.append is atomic); drain() builds the Spans.
        self.spans.append((*frame, self.correlation, end))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def drain(self) -> tuple[list[Span], Counter]:
        """Hand over and forget everything recorded so far.

        Cache hit/miss counters of the instances created since the last
        drain are read now; the instances are then forgotten.
        """
        with self._lock:
            raw, self.spans = self.spans, []
            counts = Counter(self.counts)
            self.counts.clear()  # wrappers hold this very Counter
            caches, self._cache_stats = self._cache_stats, []
        for prefix, stats in caches:
            counts[f"{prefix}_hits"] += stats.hits
            counts[f"{prefix}_misses"] += stats.misses
        spans = [Span(sid, parent, name, corr, start, end)
                 for sid, parent, name, start, corr, end in raw]
        return spans, counts

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr: str, replacement) -> None:
        original = _current(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        if not isinstance(owner, type):
            # Modules that imported the function by name hold their own
            # reference; rebind those aliases too.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if (module is not owner and name.startswith("repro")
                        and module.__dict__.get(attr) is original):
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def timed(self, owner, attr: str, name: str, *, flat: bool = False,
              name_of=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``flat`` skips the span when the caller is already inside a
        span of the same name (kernels calling kernels are one visit).
        ``name_of(args)`` derives the span name from the call's
        arguments (e.g. per request kind).
        """
        original = _current(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name_of(args) if name_of is not None else name
            if flat:
                stack = tracer._stack()
                if stack and stack[-1][2] == span_name:
                    # Not a span, but still a call (see fold_unit).
                    tracer.count(f"{span_name}.calls")
                    return original(*args, **kwargs)
            frame = tracer._open(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(frame)

        wrapper.__wrapped__ = original
        self._replace(owner, attr, wrapper)

    def counted(self, owner, attr: str, name: str, *, amount=None) -> None:
        """Count calls of ``owner.attr``; ``amount(args)``, when given,
        is added to ``<name>.amount`` (e.g. bytes per call).

        Lock-free, for calls made on one thread only: this wraps the
        hottest calls, and the counting cost shows up as tracing
        overhead.
        """
        original = _current(owner, attr)
        counts = self.counts
        amount_name = f"{name}.amount"

        if amount is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                counts[amount_name] += amount(args)
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._replace(owner, attr, wrapper)

    def cache_stats(self, cls, prefix: str) -> None:
        """Keep the ``stats`` object of every new ``cls`` instance, so
        its hit/miss counters can be summed when the pass drains."""
        original = cls.__dict__["__init__"]
        tracer = self

        def __init__(inst, *args, **kwargs):
            original(inst, *args, **kwargs)
            with tracer._lock:
                tracer._cache_stats.append((prefix, inst.stats))

        self._replace(cls, "__init__", __init__)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _SpanScope:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.frame)


#: Public kernel entry points (``repro.kernels``): every call is a
#: kernel call; nested kernel calls fold into the outermost visit.
KERNEL_MODULES = ("repro.kernels.closed_form", "repro.kernels.timing",
                  "repro.kernels.payments", "repro.kernels.surface")


def _request_kind(args) -> str:
    return f"api.execute.{getattr(type(args[0]), 'TYPE', 'unknown')}"


def install_layers(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    import repro.sweep
    from repro.agents.processor import ProcessorAgent
    from repro.core.dls_bl_ncp import DLSBLNCP
    from repro.crypto import signatures
    from repro.crypto.signatures import SigningKey
    from repro.network.bus import TrafficStats
    from repro.network.events import EventQueue
    from repro.perf import ComputationCache
    from repro.perf.sigcache import SignatureCache
    from repro.protocol.arbiter import BusArbiter
    from repro.protocol.engine import ProtocolEngine
    from repro.protocol.runners import (
        AllocationRunner,
        BiddingRunner,
        PaymentsRunner,
        ProcessingRunner,
    )

    # ``repro.api.execute`` is both a submodule and, on the package,
    # the function it defines; patch the module's function (the package
    # alias and every other importer are rebound with it).
    tracer.timed(sys.modules["repro.api.execute"], "execute",
                 "api.execute", name_of=_request_kind)
    tracer.timed(DLSBLNCP, "__init__", "core.build")
    tracer.timed(ProtocolEngine, "begin", "protocol.open")
    tracer.timed(ProtocolEngine, "settle", "protocol.settle")
    for runner, name in ((BiddingRunner, "protocol.bidding"),
                         (AllocationRunner, "protocol.allocating"),
                         (ProcessingRunner, "protocol.processing"),
                         (PaymentsRunner, "protocol.payments")):
        tracer.timed(runner, "run", name)
    tracer.timed(BusArbiter, "run", "protocol.arbiter")
    tracer.timed(repro.sweep, "run_plan", "sweep.run_plan")
    tracer.timed(SigningKey, "sign", "crypto.sign")
    tracer.timed(SigningKey, "verify", "crypto.verify")
    tracer.timed(signatures, "canonical_bytes", "crypto.canonical",
                 flat=True)
    for module_name in KERNEL_MODULES:
        module = importlib.import_module(module_name)
        for attr in getattr(module, "__all__", ()):
            if callable(getattr(module, attr)):
                tracer.timed(module, attr, "kernels", flat=True)
    tracer.counted(ProcessorAgent, "observe_bid", "agents.observe_bid")
    tracer.counted(EventQueue, "schedule", "des.schedule")
    tracer.counted(TrafficStats, "record", "network.record",
                   amount=lambda args: args[1].size_bytes)
    tracer.cache_stats(ComputationCache, "perf.memo")
    tracer.cache_stats(SignatureCache, "perf.sigcache")
