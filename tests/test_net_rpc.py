"""Unit tests for transactional RPC: at-most-once, failures."""

from __future__ import annotations

import pytest

from repro.net.network import Network
from repro.net.rpc import TransactionalRpc
from repro.util.errors import RpcError


@pytest.fixture
def rig():
    network = Network()
    network.add_server()
    network.add_workstation("ws-1")
    rpc = TransactionalRpc(network)
    calls = []

    def add(a, b):
        calls.append((a, b))
        return a + b

    rpc.register("server", "add", add)
    return network, rpc, calls


class TestRpc:
    def test_basic_call(self, rig):
        __, rpc, calls = rig
        result = rpc.call("ws-1", "server", "add", 2, 3)
        assert result.value == 5
        assert not result.cached
        assert calls == [(2, 3)]

    def test_at_most_once_with_same_call_id(self, rig):
        __, rpc, calls = rig
        first = rpc.call("ws-1", "server", "add", 2, 3, call_id="c1")
        again = rpc.call("ws-1", "server", "add", 2, 3, call_id="c1")
        assert again.value == first.value
        assert again.cached
        assert len(calls) == 1  # handler executed only once

    def test_reply_cache_survives_callee_crash(self, rig):
        network, rpc, calls = rig
        rpc.call("ws-1", "server", "add", 1, 1, call_id="c2")
        network.crash_node("server")
        network.restart_node("server")
        retry = rpc.call("ws-1", "server", "add", 1, 1, call_id="c2")
        assert retry.cached
        assert len(calls) == 1

    def test_call_to_down_node_raises(self, rig):
        network, rpc, __ = rig
        network.crash_node("server")
        with pytest.raises(RpcError):
            rpc.call("ws-1", "server", "add", 1, 1)

    def test_unknown_endpoint(self, rig):
        __, rpc, __calls = rig
        with pytest.raises(RpcError):
            rpc.call("ws-1", "server", "nope")

    def test_handler_exception_propagates(self, rig):
        network, rpc, __ = rig

        def boom():
            raise ValueError("inner")

        rpc.register("server", "boom", boom)
        with pytest.raises(ValueError):
            rpc.call("ws-1", "server", "boom")

    def test_register_on_unknown_node(self, rig):
        __, rpc, __calls = rig
        with pytest.raises(Exception):
            rpc.register("ghost", "x", lambda: None)

    def test_counters(self, rig):
        __, rpc, __calls = rig
        rpc.call("ws-1", "server", "add", 1, 2, call_id="k")
        rpc.call("ws-1", "server", "add", 1, 2, call_id="k")
        assert rpc.calls_made == 1
        assert rpc.replies_cached == 1

    def test_latency_accumulates_two_hops(self, rig):
        network, rpc, __ = rig
        result = rpc.call("ws-1", "server", "add", 1, 2)
        assert result.latency == pytest.approx(2 * network.lan_latency)


class TestReplyCacheBound:
    def test_reply_keys_bounded_by_callers(self):
        network = Network()
        server = network.add_server()
        callers = [f"ws-{index}" for index in range(4)]
        for caller in callers:
            network.add_workstation(caller)
        rpc = TransactionalRpc(network)
        rpc.register("server", "echo", lambda value: value)
        for step in range(400):
            caller = callers[(step * 7) % len(callers)]
            assert rpc.call(caller, "server", "echo", step).value == step
            assert len(server.stable.keys("rpc-reply:")) <= len(callers)
        assert len(server.stable.keys("rpc-reply:")) == len(callers)

    def test_new_call_drops_only_that_callers_reply(self):
        network = Network()
        network.add_server()
        network.add_workstation("ws-1")
        network.add_workstation("ws-2")
        rpc = TransactionalRpc(network)
        calls = []
        rpc.register("server", "echo",
                     lambda value: calls.append(value) or value)
        rpc.call("ws-1", "server", "echo", "a", call_id="a")
        rpc.call("ws-2", "server", "echo", "b", call_id="b")
        rpc.call("ws-1", "server", "echo", "c", call_id="c")
        # ws-2 has not called again: its reply is still cached
        assert rpc.call("ws-2", "server", "echo", "b", call_id="b").cached
        assert calls == ["a", "b", "c"]
        # ws-1's new call acknowledged "a": a retry re-executes
        assert not rpc.call("ws-1", "server", "echo", "a",
                            call_id="a").cached
        assert calls == ["a", "b", "c", "a"]
