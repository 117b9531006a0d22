"""Tests for USocket semantics and the paper-named Figure-6 API."""

import pytest

from repro.metrics.recorder import start_collection, stop_collection
from repro.net import Chunk, RpcClient, RpcServer, SocketClosed, USocketAPI
from repro.sim import Simulator

from repro.testing import make_net


def test_ephemeral_ports_unique():
    sim = Simulator()
    net = make_net(sim)
    a = net.udp["alpha"].socket()
    b = net.udp["alpha"].socket()
    assert a.port != b.port


def test_explicit_port_conflict_rejected():
    sim = Simulator()
    net = make_net(sim)
    net.udp["alpha"].socket(port=7)
    with pytest.raises(ValueError):
        net.udp["alpha"].socket(port=7)


def test_send_requires_destination():
    sim = Simulator()
    net = make_net(sim)
    sock = net.udp["alpha"].socket()
    with pytest.raises(ValueError):
        sock.send(10)


def test_connect_sets_default_destination():
    sim = Simulator()
    net = make_net(sim)
    rx = net.udp["beta"].socket(port=9)
    tx = net.udp["alpha"].socket()
    tx.connect("beta", 9)

    def proc():
        yield tx.send(3, payload=b"hey")
        d = yield rx.recv()
        return d.payload

    assert sim.run(until=sim.process(proc())) == b"hey"


def test_oversized_datagram_rejected():
    sim = Simulator()
    net = make_net(sim)
    udp = net.udp["alpha"].socket()
    unet = net.unet["alpha"].socket()
    with pytest.raises(ValueError):
        udp.send(64 * 1024 + 1, dst=("beta", 9))
    with pytest.raises(ValueError):
        unet.send(1473, dst=("beta", 9))


def test_recv_timeout_returns_none():
    sim = Simulator()
    net = make_net(sim)
    sock = net.udp["alpha"].socket()

    def proc():
        d = yield sock.recv(timeout=0.5)
        return d, sim.now

    d, t = sim.run(until=sim.process(proc()))
    assert d is None
    assert t == pytest.approx(0.5)
    assert sock.stats.count("rx.timeouts") == 1


def test_recv_timeout_does_not_eat_later_datagram():
    """A datagram arriving after a timed-out recv goes to the next recv."""
    sim = Simulator()
    net = make_net(sim)
    rx = net.udp["beta"].socket(port=9)
    tx = net.udp["alpha"].socket()

    def sender():
        yield sim.timeout(1.0)
        yield tx.send(2, payload=b"ok", dst=("beta", 9))

    def receiver():
        first = yield rx.recv(timeout=0.1)
        second = yield rx.recv(timeout=5.0)
        return first, second.payload

    sim.process(sender())
    first, payload = sim.run(until=sim.process(receiver()))
    assert first is None and payload == b"ok"


def test_recvbuf_overflow_drops():
    sim = Simulator()
    net = make_net(sim)
    rx = net.udp["beta"].socket(port=9, recvbuf=10000)
    tx = net.udp["alpha"].socket()

    def sender():
        for _ in range(3):  # 3 x 8 KB > 10 KB buffer, nobody consuming
            yield tx.send(8192, dst=("beta", 9))

    sim.process(sender())
    sim.run()
    assert rx.stats.count("rx.dropped.buffer_full") == 2
    assert len(rx._queue) == 1


def test_close_unbinds_and_completes_pending_recv():
    sim = Simulator()
    net = make_net(sim)
    sock = net.udp["alpha"].socket(port=5)
    out = {}

    def receiver():
        out["val"] = yield sock.recv()

    def closer():
        yield sim.timeout(1.0)
        sock.close()

    sim.process(receiver())
    sim.process(closer())
    sim.run()
    assert out["val"] is None
    assert net.udp["alpha"].socket_for_port(5) is None


def test_send_recv_on_closed_socket_raise():
    sim = Simulator()
    net = make_net(sim)
    sock = net.udp["alpha"].socket()
    sock.close()
    with pytest.raises(SocketClosed):
        sock.send(1, dst=("beta", 9))
    with pytest.raises(SocketClosed):
        sock.recv()
    sock.close()  # idempotent


def test_send_iovec_concatenates():
    sim = Simulator()
    net = make_net(sim)
    rx = net.udp["beta"].socket(port=9)
    tx = net.udp["alpha"].socket()

    def proc():
        yield tx.send_iovec([b"ab", b"cd", b"ef"], dst=("beta", 9))
        d = yield rx.recv()
        return d.payload

    assert sim.run(until=sim.process(proc())) == b"abcdef"


def test_sockets_and_rpc_clients_share_their_endpoints_recorders():
    """Dodo opens a socket per transfer and an RPC client per call; each
    counts into its endpoint's one ``sock.`` and one ``rpc.client.``
    recorder instead of making its own."""
    sim = Simulator()
    net = make_net(sim)
    server = RpcServer(net.udp["beta"].socket(port=9),
                       {"echo": lambda args, src: args}, name="echo")
    server.start()
    endpoint = net.udp["alpha"]
    socks, clients, fast = [], [], []

    def proc():
        # even sockets send one datagram (the fast path), odd ones a
        # two-chunk burst (always the packet path)
        for i in range(100):
            sock = endpoint.socket()
            socks.append(sock)
            chunks = (Chunk(0, 8), Chunk(1, 8)) if i % 2 else ()
            yield sock.send(16, dst=("beta", 10), chunks=chunks)
            sock.close()
            yield sim.timeout(0.01)
        fast.append(net.network.stats.count("fastpath.dgrams"))
        for i in range(100):
            client = RpcClient(endpoint.socket())
            clients.append(client)
            result = yield from client.call(("beta", 9), "echo", {"i": i})
            assert result == {"i": i}
            client.sock.close()

    recorders = start_collection()
    try:
        sim.run(until=sim.process(proc()))
    finally:
        stop_collection(recorders)
    assert fast == [50]
    assert [r.name for r in recorders if r.name.startswith("sock.")] \
        == ["sock.alpha"]
    assert [r.name for r in recorders
            if r.name.startswith("rpc.client.")] == ["rpc.client.alpha"]
    assert all(s.stats is endpoint.sock_stats for s in socks)
    assert all(c.stats is endpoint.rpc_client_stats for c in clients)
    # 50 datagrams, 50 two-chunk bursts and 100 requests
    assert endpoint.sock_stats.count("tx.datagrams") == 250
    assert endpoint.sock_stats.count("rx.datagrams") == 100
    assert endpoint.rpc_client_stats.count("calls.ok") == 100


# -- Figure-6 wrapper API -----------------------------------------------------

def test_api_socket_lifecycle():
    sim = Simulator()
    net = make_net(sim)
    api = USocketAPI(net.udp["alpha"])
    fd = api.u_socket(4096, 4096)
    assert fd >= 3
    assert api.u_close(fd) == 0
    assert api.u_close(fd) == -1


def test_api_aton_ntoa_roundtrip():
    assert USocketAPI.u_ntoa(USocketAPI.u_aton("beta")) == "beta"


def test_api_bind_connect_send_recv():
    sim = Simulator()
    net = make_net(sim)
    alpha = USocketAPI(net.udp["alpha"])
    beta = USocketAPI(net.udp["beta"])
    sfd = beta.u_socket(4096, 4096)
    assert beta.u_bind(sfd, 2001) == 0
    cfd = alpha.u_socket(4096, 4096)
    assert alpha.u_connect(cfd, "beta", 2001) == 0

    def proc():
        yield alpha.u_send(cfd, b"payload")
        data, src = yield beta.u_recv(sfd, 100)
        return data, src

    data, src = sim.run(until=sim.process(proc()))
    assert data == b"payload" and src == "alpha"


def test_api_bind_conflict_and_bad_fd():
    sim = Simulator()
    net = make_net(sim)
    api = USocketAPI(net.udp["alpha"])
    fd1 = api.u_socket(64, 64)
    fd2 = api.u_socket(64, 64)
    assert api.u_bind(fd1, 2100) == 0
    assert api.u_bind(fd2, 2100) == -1
    assert api.u_bind(999, 2200) == -1
    assert api.u_connect(999, "beta", 1) == -1


def test_api_recv_truncates_to_length():
    sim = Simulator()
    net = make_net(sim)
    alpha = USocketAPI(net.udp["alpha"])
    beta = USocketAPI(net.udp["beta"])
    sfd = beta.u_socket(4096, 4096)
    beta.u_bind(sfd, 2002)
    cfd = alpha.u_socket(4096, 4096)
    alpha.u_connect(cfd, "beta", 2002)

    def proc():
        yield alpha.u_send(cfd, b"0123456789")
        data, _ = yield beta.u_recv(sfd, 4)
        return data

    assert sim.run(until=sim.process(proc())) == b"0123"


def test_api_recv_iovec_scatter():
    sim = Simulator()
    net = make_net(sim)
    alpha = USocketAPI(net.udp["alpha"])
    beta = USocketAPI(net.udp["beta"])
    sfd = beta.u_socket(4096, 4096)
    beta.u_bind(sfd, 2003)
    cfd = alpha.u_socket(4096, 4096)
    alpha.u_connect(cfd, "beta", 2003)

    def proc():
        yield alpha.u_send_iovec(cfd, [b"abc", b"defg"])
        bufs, src = yield beta.u_recv_iovec(sfd, [3, 4])
        return bufs, src

    bufs, src = sim.run(until=sim.process(proc()))
    assert bufs == [b"abc", b"defg"] and src == "alpha"


def test_api_recv_timeout():
    sim = Simulator()
    net = make_net(sim)
    api = USocketAPI(net.udp["alpha"])
    fd = api.u_socket(64, 64)

    def proc():
        data, src = yield api.u_recv(fd, 10, timeout=0.25)
        return data, src, sim.now

    data, src, t = sim.run(until=sim.process(proc()))
    assert data is None and src is None and t == pytest.approx(0.25)
