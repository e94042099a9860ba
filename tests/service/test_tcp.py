"""The transport seam: endpoint grammar, TCP parity, connect timeouts.

The daemon's machinery must be byte-identical over both transports, so
the headline test runs the same request against a unix-socket client
and a TCP client and compares canonical digests.  The connect-timeout
tests pin the PR 9 fix: a dead TCP endpoint fails in bounded time with
``OSError`` (then exit 2 at the CLI), exactly like a missing unix
socket path always has.  A forked pool worker must not inherit a live
listener, or a closed daemon's port keeps accepting connections.
"""

import asyncio
import json
import os
import socket
import sys
import time

import pytest

from repro.api import EngagementRequest, execute
from repro.service import ServiceClient, WarmPool
from repro.service.tcp import (
    Endpoint,
    connect,
    parse_endpoint,
    send_envelope,
    start_server,
)

W = (2.0, 3.0, 5.0)
Z = 0.4


class TestEndpointGrammar:
    @pytest.mark.parametrize("spec,kind,address,port", [
        ("127.0.0.1:0", "tcp", "127.0.0.1", 0),
        ("localhost:7341", "tcp", "localhost", 7341),
        ("10.0.0.8:65535", "tcp", "10.0.0.8", 65535),
        ("/tmp/repro.sock", "unix", "/tmp/repro.sock", 0),
        ("/tmp/odd:123/repro.sock", "unix", "/tmp/odd:123/repro.sock", 0),
        ("relative.sock", "unix", "relative.sock", 0),
        ("host:notaport", "unix", "host:notaport", 0),
        (":123", "unix", ":123", 0),
    ])
    def test_parse(self, spec, kind, address, port):
        endpoint = parse_endpoint(spec)
        assert (endpoint.kind, endpoint.address, endpoint.port) \
            == (kind, address, port)

    def test_str_round_trips(self):
        for spec in ("127.0.0.1:7341", "/tmp/repro.sock"):
            assert str(parse_endpoint(spec)) == spec
        assert parse_endpoint(parse_endpoint("h:1")) == Endpoint("tcp",
                                                                 "h", 1)


class TestTcpParity:
    def test_tcp_digest_identical_to_unix_and_direct(self):
        req = EngagementRequest(w=W, z=Z, num_blocks=30)
        direct = execute(req).digest()
        with ServiceClient(tcp="127.0.0.1:0") as tcp_client:
            # Port 0 resolved: the client's endpoint names the real port.
            host, port = tcp_client.endpoint.rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            assert tcp_client.request(req).digest() == direct
        with ServiceClient() as unix_client:
            assert unix_client.request(req).digest() == direct

    def test_client_rejects_both_transports(self):
        with pytest.raises(ValueError, match="at most one"):
            ServiceClient(socket_path="/tmp/x.sock", tcp="127.0.0.1:0")


class TestConnectTimeout:
    def test_dead_unix_socket_fails_immediately(self, tmp_path):
        with pytest.raises(OSError):
            send_envelope(str(tmp_path / "absent.sock"),
                          {"id": 0, "op": "ping"})

    def test_unaccepting_tcp_endpoint_fails_within_connect_timeout(self):
        # A bound socket that never calls accept(): once its backlog is
        # full, connects hang at the TCP level — the exact shape that
        # used to stall `repro call --tcp` for the full I/O timeout.
        listener = socket.socket()
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            port = listener.getsockname()[1]
            filler = []
            try:
                # Saturate the backlog so the next connect cannot finish.
                for _ in range(32):
                    s = socket.socket()
                    s.settimeout(0.2)
                    try:
                        s.connect(("127.0.0.1", port))
                    except OSError:
                        s.close()
                        break
                    filler.append(s)
                start = time.monotonic()
                with pytest.raises(OSError):
                    connect(f"127.0.0.1:{port}", timeout=300.0,
                            connect_timeout=0.5)
                elapsed = time.monotonic() - start
                # Bounded by connect_timeout, not the 300s I/O budget.
                assert elapsed < 10.0
            finally:
                for s in filler:
                    s.close()
        finally:
            listener.close()

    def test_refused_tcp_port_raises_oserror(self):
        # Grab a free port, close it, then connect: refused, not hung.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            send_envelope(f"127.0.0.1:{port}", {"id": 0, "op": "ping"},
                          connect_timeout=2.0)

    def test_connect_timeout_never_exceeds_io_timeout(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        start = time.monotonic()
        with pytest.raises(OSError):
            # timeout < default connect timeout: the tighter one wins.
            connect(f"127.0.0.1:{port}", timeout=0.5)
        assert time.monotonic() - start < 10.0


async def _hang_up(reader, writer):
    writer.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the worker's fds from /proc")
def test_forked_pool_worker_drops_inherited_listener():
    # A worker still holding the listener would keep the port accepting
    # after the daemon closes it: clients would connect and hang
    # instead of being refused, which is what fleet failover keys on.
    loop = asyncio.new_event_loop()
    try:
        server, bound = loop.run_until_complete(
            start_server("127.0.0.1:0", _hang_up))
        inode = os.fstat(server.sockets[0].fileno()).st_ino
        pool = WarmPool(1)
        try:
            _, future = pool.submit(os.getpid)
            worker = future.result(timeout=30)
            fd_dir = f"/proc/{worker}/fd"
            held = set()
            for fd in os.listdir(fd_dir):
                try:
                    held.add(os.readlink(f"{fd_dir}/{fd}"))
                except OSError:  # closed while listing
                    continue
            assert f"socket:[{inode}]" not in held
            server.close()
            loop.run_until_complete(server.wait_closed())
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", bound.port),
                                         timeout=5).close()
        finally:
            pool.shutdown()
    finally:
        loop.close()


def oversized_request() -> EngagementRequest:
    """A valid engagement whose request line exceeds the daemon limit."""
    from repro.service.daemon import MAX_REQUEST_BYTES

    req = EngagementRequest(
        w=tuple(1.0 + i / 7 for i in range(MAX_REQUEST_BYTES // 16)), z=Z)
    assert len(json.dumps(req.to_dict())) > MAX_REQUEST_BYTES
    return req


@pytest.fixture(scope="module", params=["unix", "tcp"])
def any_client(request):
    tcp = "127.0.0.1:0" if request.param == "tcp" else None
    with ServiceClient(tcp=tcp, warm=False) as client:
        yield client


class TestRequestSizeLimit:
    """Lines over asyncio's default 64 KiB limit are read; lines over
    the daemon's own limit are answered ``too-large``, not reset."""

    def test_line_over_64_kib_is_parsed(self, any_client):
        # m = 6000 is ~115 KB on the wire; an invalid z keeps it cheap,
        # and the validation error proves the daemon parsed the line.
        response = any_client.raw_request(
            {"schema": "repro/api/v1", "type": "engagement",
             "w": [1.0 + i / 7 for i in range(6000)], "z": -1.0})
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid-request"
        assert "reason" not in response["error"]

    def test_oversized_line_is_answered_too_large(self, any_client):
        response = any_client.raw_request(oversized_request().to_dict())
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid-request"
        assert response["error"]["reason"] == "too-large"
        assert any_client.ping()["pong"] is True

    def test_connection_stays_in_sync_after_oversized_line(self,
                                                           any_client):
        big = json.dumps({"id": "big", **oversized_request().to_dict()})
        with connect(any_client.endpoint, timeout=60) as sock:
            sock.sendall(big.encode() + b"\n"
                         + json.dumps({"id": 2, "op": "ping"}).encode()
                         + b"\n")
            stream = sock.makefile("rb")
            first = json.loads(stream.readline())
            second = json.loads(stream.readline())
        assert (first["id"], first["error"]["reason"]) == ("big", "too-large")
        assert (second["id"], second["ok"]) == (2, True)
