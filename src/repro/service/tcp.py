"""The transport seam: every socket the service stack opens lives here.

One module owns endpoint naming, listener creation and client
connections for both transports the daemon speaks:

* ``unix`` — a filesystem socket path (the PR 5 daemon's transport);
* ``tcp``  — ``HOST:PORT`` on a stream socket, which is what lets a
  fleet of daemons spread over ports (and, eventually, hosts).

Everything above this module — daemon, client, fleet dispatcher —
handles :class:`Endpoint` values and JSON envelopes only; the
architecture lint pins ``repro.service.tcp`` as the only module in the
service package that may import the stdlib ``socket``.  The wire format
is transport-independent: one JSON object per line, either direction,
exactly as documented in :mod:`repro.service.daemon`.

Endpoint grammar (one string, used by ``--socket``/``--tcp`` flags,
fleet endpoint lists and ``ServiceClient``):

* ``HOST:PORT`` with a numeric port and no ``/`` → tcp (``PORT`` may be
  ``0``: the kernel picks a free port, and the daemon reports the bound
  one);
* anything else → a unix socket path.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import socket
import weakref
from dataclasses import dataclass

__all__ = [
    "DEFAULT_CONNECT_TIMEOUT",
    "Endpoint",
    "parse_endpoint",
    "start_server",
    "cleanup",
    "connect",
    "send_envelope",
    "listener_fds",
    "close_inherited_listeners",
]

#: Live listeners bound by this process, tracked so fork children can
#: close their inherited copies (see :func:`close_inherited_listeners`).
_SERVERS: "weakref.WeakSet[asyncio.AbstractServer]" = weakref.WeakSet()

#: Upper bound on how long a client waits for the TCP three-way
#: handshake (or the unix connect) before declaring the daemon
#: unreachable.  Distinct from the I/O ``timeout``: a request may
#: legitimately compute for minutes, but a daemon that cannot *accept*
#: within seconds is down — waiting the full I/O budget on connect is
#: what made a dead TCP endpoint hang where a dead unix socket failed
#: instantly.
DEFAULT_CONNECT_TIMEOUT = 10.0


@dataclass(frozen=True)
class Endpoint:
    """A parsed service address: unix socket path or TCP host:port."""

    kind: str          # "unix" | "tcp"
    address: str       # socket path, or host
    port: int = 0

    @property
    def is_tcp(self) -> bool:
        return self.kind == "tcp"

    def __str__(self) -> str:
        if self.is_tcp:
            return f"{self.address}:{self.port}"
        return self.address


def parse_endpoint(spec) -> Endpoint:
    """Parse an endpoint spec (``HOST:PORT`` → tcp, else unix path)."""
    if isinstance(spec, Endpoint):
        return spec
    text = str(spec)
    host, sep, port = text.rpartition(":")
    if sep and host and "/" not in text and port.isdigit():
        return Endpoint("tcp", host, int(port))
    return Endpoint("unix", text)


async def start_server(spec, handler, *, limit: int = 2 ** 16,
                       ) -> tuple[asyncio.AbstractServer, Endpoint]:
    """Bind a listener for *spec*; returns ``(server, bound endpoint)``.

    *limit* is each connection's ``StreamReader`` buffer limit — the
    longest line ``readuntil`` accepts (asyncio's default is 64 KiB).

    For tcp specs with port 0 the returned endpoint carries the port
    the kernel actually assigned — that is what the daemon prints in
    its banner and what a fleet manager parses back.
    """
    endpoint = parse_endpoint(spec)
    if endpoint.is_tcp:
        server = await asyncio.start_server(handler, host=endpoint.address,
                                            port=endpoint.port, limit=limit)
        _SERVERS.add(server)
        port = server.sockets[0].getsockname()[1]
        return server, Endpoint("tcp", endpoint.address, port)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(endpoint.address)
    server = await asyncio.start_unix_server(handler, path=endpoint.address,
                                             limit=limit)
    _SERVERS.add(server)
    return server, endpoint


def listener_fds() -> tuple[int, ...]:
    """File descriptors of every listener currently bound in-process.

    Read in every fork child by the hook registered below, so any
    worker of the fork pool (:class:`repro.sweep.pool.WarmPool`) drops
    the listeners live at the moment it was forked.  A closed server's
    ``sockets`` is empty, so stale listeners drop out on their own.
    """
    fds = []
    for server in _SERVERS:
        for sock in getattr(server, "sockets", ()) or ():
            try:
                fd = sock.fileno()
            except (OSError, ValueError):  # pragma: no cover — closing
                continue
            if fd >= 0:
                fds.append(fd)
    return tuple(sorted(fds))


def close_inherited_listeners(fds) -> None:
    """Drop listener fds inherited at fork (run in every fork child).

    A forked worker inherits every fd its parent held — including
    *listening* sockets, the parent's own or (when several daemons live
    in one process) its neighbours'.  A worker that keeps such an fd
    open keeps the kernel accepting connections on that port even after
    the owning daemon closed it or died, so clients connect, send, and
    hang instead of getting the connection refused that drives fleet
    failover.  Each fd is verified to still be a *listening* socket
    (``SO_ACCEPTCONN``) before closing, so a recycled descriptor number
    is left alone.
    """
    for fd in fds:
        try:
            sock = socket.socket(fileno=fd)
        except OSError:
            continue  # recycled as a non-socket (or already closed)
        try:
            listening = sock.getsockopt(socket.SOL_SOCKET,
                                        socket.SO_ACCEPTCONN)
        except OSError:  # pragma: no cover — can't tell; leave it be
            listening = False
        if listening:
            with contextlib.suppress(OSError):
                sock.close()
        else:  # pragma: no cover — recycled as a data socket
            sock.detach()


def _close_listeners_in_child() -> None:
    close_inherited_listeners(listener_fds())


# Registered once, at import: every process that can bind a listener
# has imported this module, so no fork child — pool worker or
# otherwise — ever starts out holding one.
if hasattr(os, "register_at_fork"):  # pragma: no branch — POSIX only
    os.register_at_fork(after_in_child=_close_listeners_in_child)


def cleanup(spec) -> None:
    """Remove a dead listener's filesystem residue (unix only)."""
    endpoint = parse_endpoint(spec)
    if not endpoint.is_tcp:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(endpoint.address)


def connect(spec, *, timeout: float = 300.0,
            connect_timeout: float | None = None) -> socket.socket:
    """A connected stream socket to *spec*.

    The connect phase is bounded by ``connect_timeout`` (default
    :data:`DEFAULT_CONNECT_TIMEOUT`, never more than ``timeout``); once
    connected the socket's I/O timeout is the full ``timeout``.  Raises
    ``OSError`` (refused / timed out / missing path) — callers map that
    to their "daemon unreachable" handling.
    """
    endpoint = parse_endpoint(spec)
    if connect_timeout is None:
        connect_timeout = DEFAULT_CONNECT_TIMEOUT
    connect_timeout = min(float(connect_timeout), float(timeout))
    if endpoint.is_tcp:
        sock = socket.create_connection((endpoint.address, endpoint.port),
                                        timeout=connect_timeout)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(connect_timeout)
        try:
            sock.connect(endpoint.address)
        except BaseException:
            sock.close()
            raise
    sock.settimeout(timeout)
    return sock


def send_envelope(spec, envelope: dict, *, timeout: float = 300.0,
                  connect_timeout: float | None = None) -> dict:
    """Send one JSON-lines envelope to a daemon; return its response.

    The standalone wire primitive shared by ``ServiceClient``, the
    fleet dispatcher and ``repro call`` — one connection, one line out,
    one line back, over either transport.
    """
    with contextlib.closing(connect(spec, timeout=timeout,
                                    connect_timeout=connect_timeout)) as sock:
        sock.sendall(json.dumps(envelope).encode("utf-8") + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    if not chunks or not chunks[-1].endswith(b"\n"):
        # The daemon died (or was killed) mid-response: surface it as a
        # connection error, not a decode error, so callers treat it
        # exactly like a refused connect — quarantine and fail over.
        raise ConnectionResetError(
            f"connection to {spec} closed before a full response line")
    return json.loads(b"".join(chunks))
