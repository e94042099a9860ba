"""The engagement service: an asyncio JSON-lines daemon.

``repro serve`` runs one :class:`ReproService`; tests embed one through
:class:`repro.service.client.ServiceClient`.  The daemon accepts
newline-delimited JSON envelopes, executes v1 requests on a warm fork
worker pool, and answers with v1 results carrying the same canonical
digests the serial library paths produce.

The listener is transport-agnostic: the endpoint spec (a unix socket
path, or ``HOST:PORT`` for TCP) is parsed and bound by
:mod:`repro.service.tcp` — the one socket seam in the service package —
so the queueing / deadline / cache / quarantine machinery below is
byte-identical over both transports.

Wire protocol (one JSON object per line, either direction)::

    → {"id": 7, "schema": "repro/api/v1", "type": "engagement", ...,
       "deadline": 5.0}              # deadline (seconds) optional
    ← {"id": 7, "ok": true, "result": {.. v1 result payload ..}}
    ← {"id": 7, "ok": false, "error": {"code": "...", "message": "..."}}

    → {"id": 8, "op": "stats" | "ping" | "shutdown"}   # served inline
    → {"id": 9, "op": "peek", "digest": "..."}  # result-cache lookup,
                                                # never computes

Error codes:

* ``invalid-request`` — the payload failed v1 validation (or was not
  JSON); the message is the validation error verbatim.  A request line
  longer than :data:`MAX_REQUEST_BYTES` is answered with this code and
  ``"reason": "too-large"`` without being parsed; the rest of the line
  is discarded and the connection stays usable.
* ``backpressure`` — the bounded request queue was full at admission.
* ``deadline`` — the request's deadline passed while it was queued or
  running.  A job already running on a worker is *not* interrupted
  (the worker finishes and the answer is dropped); only worker death
  tears a computation down mid-flight.
* ``worker-died`` — the request is poisoned: after crashing shared-pool
  workers ``max_attempts`` times it was quarantined onto a dedicated
  single-use worker, and killed that too.  Innocent requests caught in
  the same pool breaks are retried transparently (and, if they keep
  being collateral damage, cleared through the same quarantine — a
  healthy request *succeeds* solo), so only the guilty request fails.
* ``domain-error`` — the engine raised while executing a valid request.
* ``shutting-down`` — the daemon is draining; resubmit elsewhere.

Lifecycle: :meth:`ReproService.shutdown` stops admitting work, drains
the queue (in-flight and queued requests complete and are answered),
then closes the listener and the pool — the graceful path behind both
the ``shutdown`` op and ``repro serve``'s signal handlers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from repro.api import ApiError, request_from_dict
from repro.api.registry import cacheable
from repro.service import tcp
from repro.service.stats import ServiceCounters
from repro.service.worker import execute_payload
from repro.sweep.pool import WarmPool

__all__ = ["ReproService", "DEFAULT_QUEUE_SIZE", "MAX_REQUEST_BYTES"]

DEFAULT_QUEUE_SIZE = 32
#: Longest request line the daemon reads (newline included).  The
#: largest golden request is about 1 KB and an m = 6000 engagement
#: about 115 KB, so 1 MiB leaves room for big legitimate requests while
#: bounding what one connection can make the daemon buffer.
MAX_REQUEST_BYTES = 1 << 20
_OPS = ("ping", "stats", "peek", "shutdown")


def _error(code: str, message: str, **extra) -> dict:
    return {"ok": False, "error": {"code": code, "message": message, **extra}}


# A leading ``{"id": <int or string>`` — how every client frames its
# envelopes — recovered from the head of a line too large to parse.
_LEADING_ID = re.compile(rb'\s*\{\s*"id"\s*:\s*(-?\d+|"[^"\\]*")\s*[,}]')


class _LineTooLarge(Exception):
    """A request line longer than :data:`MAX_REQUEST_BYTES` was discarded.

    ``request_id`` is the envelope's id when the line starts with it, so
    the answer still pairs with its request.
    """

    def __init__(self, head: bytes) -> None:
        super().__init__("request line too large")
        match = _LEADING_ID.match(head)
        self.request_id = json.loads(match.group(1)) if match else None


async def _read_request_line(reader: asyncio.StreamReader) -> bytes:
    """The next request line, or the unterminated tail at EOF (``b""``
    when the client closed cleanly).

    An oversized line is consumed to its newline in limit-sized pieces
    — the reader never buffers much more than its limit — and then
    reported as :class:`_LineTooLarge`, so the connection stays in sync
    for the next request.
    """
    head = None
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return b"" if head is not None else exc.partial
        except asyncio.LimitOverrunError as exc:
            piece = await reader.readexactly(exc.consumed)
            if head is None:
                head = piece[:256]
            continue
        if head is not None:
            raise _LineTooLarge(head)
        return line


@dataclass
class _Job:
    request: Any
    deadline: float | None
    enqueued: float = field(default_factory=time.monotonic)
    future: asyncio.Future = None  # response body, set by a consumer


class ReproService:
    """One service instance bound to one endpoint (unix path or TCP)."""

    def __init__(self, endpoint, *, workers: int = 1,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 cache_size: int = 256, max_attempts: int = 2,
                 warm: bool = True) -> None:
        self.endpoint = tcp.parse_endpoint(endpoint)
        #: Where the listener actually sits — equals ``endpoint`` except
        #: for TCP port 0, where :meth:`start` fills in the bound port.
        self.bound: tcp.Endpoint = self.endpoint
        # Kept for unix-endpoint callers of the PR 5 surface.
        self.socket_path = (None if self.endpoint.is_tcp
                            else self.endpoint.address)
        self.queue_size = max(1, int(queue_size))
        self.cache_size = max(0, int(cache_size))
        self.max_attempts = max(1, int(max_attempts))
        # The pool forks eagerly (constructor, not start()) so workers
        # inherit the constructing process's state — e.g. sweep tasks
        # registered before the service was built — and so start() on
        # the event loop never blocks on process creation.
        self.pool = WarmPool(workers, warm=warm)
        self.counters = ServiceCounters()
        self._cache: OrderedDict[str, dict] = OrderedDict()
        self._queue: asyncio.Queue[_Job] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._consumers: list[asyncio.Task] = []
        self._connections: set[asyncio.Task] = set()
        self._draining = False
        self._closed: asyncio.Event | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the consumer tasks."""
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._closed = asyncio.Event()
        self._consumers = [
            asyncio.ensure_future(self._consume())
            for _ in range(self.pool.workers)]
        self._server, self.bound = await tcp.start_server(
            self.endpoint, self._handle_connection, limit=MAX_REQUEST_BYTES)

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` completes (``repro serve`` body)."""
        if self._server is None:
            await self.start()
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Graceful stop: reject new work, drain, then tear down."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        await self._queue.join()          # queued + in-flight all answered
        for task in self._consumers:
            task.cancel()
        await asyncio.gather(*self._consumers, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        tcp.cleanup(self.bound)
        self.pool.shutdown(wait=True)
        self._closed.set()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(asyncio.current_task())
        try:
            while True:
                try:
                    line = await _read_request_line(reader)
                except _LineTooLarge as exc:
                    response = {"id": exc.request_id, **_error(
                        "invalid-request",
                        f"request line exceeds {MAX_REQUEST_BYTES} bytes",
                        reason="too-large")}
                else:
                    if not line:
                        break
                    response = await self._handle_line(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # shutdown cancelled this connection; close it quietly
        finally:
            self._connections.discard(asyncio.current_task())
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_line(self, line: bytes) -> dict:
        try:
            envelope = json.loads(line)
            if not isinstance(envelope, dict):
                raise ValueError(
                    f"expected a JSON object; got {type(envelope).__name__}")
        except ValueError as exc:
            return {"id": None, **_error("invalid-request",
                                         f"undecodable request line: {exc}")}
        rid = envelope.get("id")
        op = envelope.get("op")
        if op is not None:
            return {"id": rid, **self._handle_op(op, envelope)}
        return {"id": rid, **await self._handle_work(envelope)}

    def _handle_op(self, op, envelope: dict) -> dict:
        if op == "ping":
            return {"ok": True, "result": {"pong": True,
                                           "draining": self._draining}}
        if op == "stats":
            stats = self.counters.snapshot(
                queue_depth=self._queue.qsize() if self._queue else 0,
                queue_capacity=self.queue_size,
                workers=self.pool.workers,
                pool_rebuilds=self.pool.rebuilds)
            return {"ok": True, "result": stats.to_dict()}
        if op == "peek":
            return self._handle_peek(envelope.get("digest"))
        if op == "shutdown":
            asyncio.ensure_future(self.shutdown())
            return {"ok": True, "result": {"draining": True}}
        return _error("invalid-request",
                      f"unknown op {op!r}; valid ops: {list(_OPS)}")

    def _handle_peek(self, digest) -> dict:
        """Result-cache lookup by request digest; never computes.

        The fleet dispatcher's cross-daemon cache probe: when a shard
        owner is unreachable, peers are peeked for an already-computed
        answer before any daemon recomputes it.  A miss is a cheap,
        honest ``hit: false`` — peeking must never trigger work, or a
        probe storm could saturate the queue it is trying to spare.
        """
        if not isinstance(digest, str) or not digest:
            return _error("invalid-request",
                          "peek needs a request 'digest' string")
        body = self._cache.get(digest)
        if body is None:
            return {"ok": True, "result": {"hit": False}}
        self._cache.move_to_end(digest)
        self.counters.cache_hits += 1
        return {"ok": True,
                "result": {"hit": True,
                           "result": {**body, "cached": True}}}

    async def _handle_work(self, envelope: dict) -> dict:
        deadline = envelope.get("deadline")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                return _error("invalid-request",
                              f"deadline must be seconds; got {deadline!r}")
            if deadline <= 0:
                return _error("invalid-request",
                              f"deadline must be > 0; got {deadline!r}")
        payload = {k: v for k, v in envelope.items()
                   if k not in ("id", "deadline")}
        try:
            request = request_from_dict(payload)
        except ApiError as exc:
            return _error("invalid-request", str(exc))

        self.counters.note_request(request.TYPE)
        if self._draining:
            return _error("shutting-down",
                          "service is draining and admits no new work")

        cache_key = self._cache_key(request)
        if cache_key is not None and cache_key in self._cache:
            self._cache.move_to_end(cache_key)
            self.counters.cache_hits += 1
            self.counters.note_completed(0.0)
            return {"ok": True,
                    "result": {**self._cache[cache_key], "cached": True}}

        job = _Job(request=request, deadline=deadline,
                   future=asyncio.get_running_loop().create_future())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.counters.rejected += 1
            return _error(
                "backpressure",
                f"request queue is full ({self.queue_size} pending); "
                "retry later or raise --queue-size")
        return await job.future

    def _cache_key(self, request) -> str | None:
        """Digest key for cacheable kinds; the registry knows which
        (bench answers are wall-clock measurements — never cached)."""
        if self.cache_size == 0 or not cacheable(request):
            return None
        return request.digest()

    # -- execution ----------------------------------------------------------

    async def _consume(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                body = await self._run_job(job)
            except asyncio.CancelledError:
                if not job.future.done():  # pragma: no cover — defensive
                    job.future.set_result(
                        _error("shutting-down", "service stopped"))
                raise
            except Exception as exc:  # pragma: no cover — defensive
                body = _error("internal", f"{type(exc).__name__}: {exc}")
            finally:
                self._queue.task_done()
            if not job.future.done():
                job.future.set_result(body)

    def _remaining(self, job: _Job) -> float | None:
        if job.deadline is None:
            return None
        return job.deadline - (time.monotonic() - job.enqueued)

    async def _run_job(self, job: _Job) -> dict:
        remaining = self._remaining(job)
        if remaining is not None and remaining <= 0:
            self.counters.expired += 1
            return _error("deadline",
                          f"deadline of {job.deadline}s passed while queued")
        self.counters.in_flight += 1
        try:
            return await self._run_attempts(job)
        finally:
            self.counters.in_flight -= 1

    async def _run_attempts(self, job: _Job) -> dict:
        payload = job.request.to_dict()
        for attempt in range(1, self.max_attempts + 1):
            generation, pool_future = self.pool.submit(
                execute_payload, payload)
            try:
                status, body = await asyncio.wait_for(
                    asyncio.wrap_future(pool_future), self._remaining(job))
            except asyncio.TimeoutError:
                # The worker keeps running; only its answer is dropped.
                self.counters.expired += 1
                return _error("deadline",
                              f"deadline of {job.deadline}s passed after "
                              f"{attempt} attempt(s)")
            except BrokenProcessPool:
                # A worker died, failing every in-flight future on the
                # shared pool — this job may be the killer or mere
                # collateral.  Rebuild (the first victim of this
                # generation does the work) and retry; a job that keeps
                # landing here goes to quarantine, where guilt is
                # decided on a private worker.
                self.pool.rebuild(generation)
                if attempt == self.max_attempts:
                    return await self._run_quarantined(job, payload)
                continue
            return self._finish(job, status, body)
        raise AssertionError("unreachable")  # pragma: no cover

    async def _run_quarantined(self, job: _Job, payload: dict) -> dict:
        """Decide a repeatedly-crashing request on a private worker.

        On the shared pool a broken future cannot be attributed: the
        poisoned request and its innocent neighbours all see
        ``BrokenProcessPool``.  A dedicated single-use worker removes
        the ambiguity — dying here is proof of poison, surviving clears
        an innocent that was repeatedly caught in the blast radius.
        The shared pool is untouched either way.
        """
        executor = self.pool.make_solo()
        try:
            solo_future = executor.submit(execute_payload, payload)
            try:
                status, body = await asyncio.wait_for(
                    asyncio.wrap_future(solo_future), self._remaining(job))
            except asyncio.TimeoutError:
                self.counters.expired += 1
                return _error("deadline",
                              f"deadline of {job.deadline}s passed in "
                              "quarantine")
            except BrokenProcessPool:
                self.counters.failed += 1
                return _error(
                    "worker-died",
                    f"request crashed {self.max_attempts} shared worker(s) "
                    "and its quarantine worker; abandoned as poisoned")
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return self._finish(job, status, body)

    def _finish(self, job: _Job, status: str, body: dict) -> dict:
        if status == "ok":
            cache_key = self._cache_key(job.request)
            if cache_key is not None:
                self._cache[cache_key] = body
                self._cache.move_to_end(cache_key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            self.counters.note_completed(time.monotonic() - job.enqueued)
            return {"ok": True, "result": body}
        self.counters.failed += 1
        return _error(body.get("code", "domain-error"),
                      body.get("message", "request failed"))
