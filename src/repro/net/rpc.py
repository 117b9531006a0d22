"""A small request/response layer over the datagram sockets.

Dodo's control plane — allocation requests from the runtime library to the
central manager, alloc/free forwarding to the idle memory daemons,
keep-alive echoes — is request/response over UDP-like sockets.  This module
provides exactly that: retried, id-matched calls with timeouts, and a
server loop with duplicate suppression (retries may deliver a request
twice; the server replays the cached reply instead of re-executing, which
matters for non-idempotent handlers like ``alloc``).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.metrics.recorder import Recorder
from repro.net.usocket import USocket

#: wire size charged for an RPC datagram beyond the explicit arg sizes
RPC_HEADER_SIZE = 48


class RpcTimeout(Exception):
    """The peer never answered within the retry budget."""


class RpcRemoteError(Exception):
    """The handler on the peer raised; carries the remote error string."""


class RpcClient:
    """Issues calls from one socket; one outstanding call at a time.

    The Dodo runtime library is synchronous (Section 3), so a single
    outstanding call per socket matches the paper's design.  Components
    that need concurrent calls (the central manager talking to many imds)
    create one client per conversation.
    """

    def __init__(self, sock: USocket):
        self.sock = sock
        self.sim = sock.sim
        self._ids = itertools.count(1)
        endpoint = sock.endpoint
        if endpoint.rpc_client_stats is None:
            endpoint.rpc_client_stats = Recorder(
                f"rpc.client.{endpoint.addr}")
        self.stats = endpoint.rpc_client_stats

    def call(self, dst: tuple[str, int], method: str,
             args: Optional[dict] = None, *, timeout: float = 0.05,
             retries: int = 5, size: int = 0, backoff_s: float = 0.0,
             backoff_jitter: float = 0.0):
        """Generator process body: ``result = yield from client.call(...)``.

        ``size`` is extra payload bytes beyond the RPC header (for calls
        that carry data inline).  Raises :class:`RpcTimeout` after
        ``retries`` unanswered attempts and :class:`RpcRemoteError` if the
        remote handler failed.

        ``backoff_s`` > 0 adds exponential backoff between attempts:
        retry ``n`` waits ``backoff_s * 2**(n-1)`` on top of its timeout,
        stretched by up to ``backoff_jitter`` (fraction, drawn from the
        seeded ``rpc.backoff`` stream so runs stay deterministic).  Off by
        default: the paper-calibrated experiments use fixed-interval
        retries, and chaos runs opt in to avoid retry storms against
        restarting daemons.
        """
        call_id = next(self._ids)
        request = {"kind": "rpc_req", "id": call_id, "method": method,
                   "args": args or {}}
        tracer = self.sim.tracer
        span = tracer.begin(
            self.sim, f"rpc.{method}", "rpc",
            {"dst": f"{dst[0]}:{dst[1]}", "id": call_id}) \
            if tracer.enabled else None
        if span is not None:
            # ride the causal link on the request so the server-side
            # handler span becomes this span's child (pure metadata: the
            # charged wire size does not depend on the payload dict)
            request["trace"] = span.span_id
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            telemetry.rpc_begin(self.sim)
        try:
            for _attempt in range(retries):
                if _attempt and backoff_s > 0.0:
                    delay = backoff_s * (2.0 ** (_attempt - 1))
                    if backoff_jitter > 0.0:
                        delay *= 1.0 + backoff_jitter \
                            * float(self.sim.rng("rpc.backoff").random())
                    self.stats.add("calls.backoff")
                    self.stats.sample("backoff_s", delay)
                    yield self.sim.timeout(delay)
                self.stats.add("calls.sent")
                if span is not None and _attempt:
                    tracer.instant(self.sim, f"rpc.retry.{method}", "rpc",
                                   {"attempt": _attempt + 1, "id": call_id})
                yield self.sock.send(RPC_HEADER_SIZE + size, payload=request,
                                     dst=dst)
                deadline = self.sim.now + timeout
                while True:
                    remaining = deadline - self.sim.now
                    if remaining <= 0:
                        break
                    reply = yield self.sock.recv(timeout=remaining)
                    if reply is None:
                        break
                    msg = reply.payload
                    if not isinstance(msg, dict) \
                            or msg.get("kind") != "rpc_rep":
                        continue
                    if msg.get("id") != call_id:
                        continue  # stale reply from a retried earlier call
                    if "error" in msg:
                        raise RpcRemoteError(msg["error"])
                    self.stats.add("calls.ok")
                    if span is not None:
                        span.tag("attempts", _attempt + 1)
                    return msg.get("result")
                self.stats.add("calls.retried")
            self.stats.add("calls.timeout")
            if span is not None:
                span.tag("timeout", True)
            raise RpcTimeout(
                f"{method} to {dst}: no reply after {retries} tries")
        finally:
            if telemetry.enabled:
                telemetry.rpc_end(self.sim)
            if span is not None:
                tracer.end(self.sim, span)


def call(endpoint, dst: tuple[str, int], method: str,
         args: Optional[dict] = None, **kw):
    """Generator: one :meth:`RpcClient.call` from a fresh socket on
    ``endpoint``, closed however the call ends.  ``kw`` are the call's
    keyword options (``timeout``, ``retries``, ``backoff_s``, ...)."""
    sock = endpoint.socket()
    try:
        return (yield from RpcClient(sock).call(dst, method, args, **kw))
    finally:
        sock.close()


class RpcServer:
    """Dispatches incoming requests on a socket to named handlers.

    Handlers are callables ``handler(args: dict, src: (addr, port))``; they
    may be plain functions returning a result dict or generators (run as
    subprocesses, free to do I/O).  Raising inside a handler produces an
    error reply, not a server crash.
    """

    #: replies remembered for duplicate-request suppression
    DEDUP_CACHE = 128

    __slots__ = ("sock", "sim", "handlers", "name", "component", "stats",
                 "_seen", "_proc")

    def __init__(self, sock: USocket, handlers: dict[str, Callable],
                 name: str = "rpc", component: Optional[str] = None):
        self.sock = sock
        self.sim = sock.sim
        self.handlers = dict(handlers)
        self.name = name
        #: trace component label; daemons pass their layer name
        #: ("manager", "imd", ...) so breakdowns attribute handler time
        #: to the right row.  Defaults to the name's first dotted part.
        self.component = component or name.split(".", 1)[0]
        self.stats = Recorder(f"rpc.server.{name}")
        #: reply (None while in flight) by request, oldest first
        self._seen: dict[tuple, Optional[dict]] = {}
        self._proc = None

    def start(self):
        if self._proc is not None:
            raise RuntimeError(f"server {self.name} already started")
        self._proc = self.sim.process(self._loop())
        return self._proc

    def stop(self) -> None:
        """Close the socket; the loop exits after draining."""
        self.sock.close()

    def _loop(self):
        while True:
            if self.sock.closed:
                return  # stopped before/while the loop was scheduled
            dgram = yield self.sock.recv()
            if dgram is None:
                return  # socket closed
            msg = dgram.payload
            if not isinstance(msg, dict) or msg.get("kind") != "rpc_req":
                self.stats.add("bad_requests")
                continue
            # Each request is served in its own process so a slow handler
            # (e.g. one doing a bulk transfer) does not block the server.
            self.sim.process(self._serve(msg, (dgram.src, dgram.sport)))

    def _serve(self, msg: dict, src: tuple[str, int]):
        key = (src, msg["id"])
        if key in self._seen:
            cached = self._seen[key]
            self.stats.add("duplicates")
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    self.sim, f"serve.duplicate.{msg['method']}",
                    self.component, {"id": msg["id"],
                                     "replayed": cached is not None})
            if cached is None:
                # Original request still executing: drop the retry; the
                # client's next retry will find the cached reply.
                return
            yield self.sock.send(RPC_HEADER_SIZE, payload=cached, dst=src)
            return
        self._seen[key] = None  # mark in-flight
        handler = self.handlers.get(msg["method"])
        reply = {"kind": "rpc_rep", "id": msg["id"]}
        tracer = self.sim.tracer
        span = tracer.begin(
            self.sim, f"serve.{msg['method']}", self.component,
            {"src": f"{src[0]}:{src[1]}", "id": msg["id"]}) \
            if tracer.enabled else None
        if span is not None and msg.get("trace"):
            span.parent_id = msg["trace"]  # wire-carried causal link
        try:
            if handler is None:
                reply["error"] = f"no such method: {msg['method']}"
            else:
                try:
                    result = handler(msg.get("args", {}), src)
                    if hasattr(result, "send"):  # generator handler
                        result = yield self.sim.process(result)
                    reply["result"] = result
                    self.stats.add("served")
                except Exception as exc:  # noqa: BLE001 - reported to caller
                    reply["error"] = f"{type(exc).__name__}: {exc}"
                    self.stats.add("handler_errors")
            seen = self._seen
            seen[key] = reply
            while len(seen) > self.DEDUP_CACHE:
                del seen[next(iter(seen))]
            if not self.sock.closed:
                yield self.sock.send(RPC_HEADER_SIZE, payload=reply, dst=src)
        finally:
            if span is not None:
                tracer.end(self.sim, span,
                           {"error": True} if "error" in reply else None)
