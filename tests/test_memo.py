"""The bounded per-process memo (:mod:`repro.memo`) and the netlist tables
built on it.

The service evaluates on several threads that share the netlist layer's
memo tables, so a lookup must stay whole while another thread evicts:
the race tests run four threads, each on its own netlist, against tables
shrunk to one entry, with the interpreter switching threads as often as
it can.
"""

import sys
import threading
import time

import pytest

from repro.memo import Memo
from repro.netlist import compile as compile_mod
from repro.netlist import slice as slice_mod
from repro.netlist import topo as topo_mod
from repro.netlist.builder import CircuitBuilder
from repro.netlist.compile import compile_netlist, netlist_content_hash
from repro.netlist.slice import sequential_cone
from repro.netlist.topo import levelize


class TestMemo:
    def test_get_refreshes_recency(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1
        memo.put("c", 3)
        # "b" was least recently used, so it went first.
        assert memo.get("b") is None
        assert memo.get("a") == 1
        assert memo.get("c") == 3

    def test_capacity_bounds_entries(self):
        memo = Memo(3)
        for key in range(10):
            memo.put(key, str(key))
            assert memo.info().entries == min(key + 1, 3)
        assert [memo.get(key) for key in (7, 8, 9)] == ["7", "8", "9"]
        assert memo.get(6) is None

    def test_counts(self):
        memo = Memo(1)
        assert memo.get("x") is None
        memo.put("x", 1)
        memo.put("x", 2)  # replacing a key evicts nothing
        assert memo.get("x") == 2
        memo.put("y", 3)
        info = memo.info()
        assert info.entries == 1
        assert info.capacity == 1
        assert (info.hits, info.misses, info.evictions) == (1, 1, 1)

    def test_clear_resets_entries_and_counts(self):
        memo = Memo(1)
        memo.put("x", 1)
        memo.get("x")
        memo.get("y")
        memo.put("y", 2)
        memo.clear()
        assert tuple(memo.info()) == (0, 1, 0, 0, 0)
        assert memo.get("y") is None


def _chain(length):
    """A NOT chain through one register: a distinct netlist per length."""
    b = CircuitBuilder(f"chain{length}")
    net = b.input("x")
    for _ in range(length):
        net = b.not_(net)
    b.output(b.reg(net, "q"), "out")
    return b.build()


#: (call under test, the memo table it looks up once per call).
RACES = [
    pytest.param(compile_netlist, compile_mod._PROGRAM_CACHE,
                 id="compile_netlist"),
    pytest.param(lambda nl: sequential_cone(nl, [nl.n_nets - 1]),
                 slice_mod._CONE_MEMO, id="sequential_cone"),
    pytest.param(levelize, topo_mod._LEVELIZE_MEMO, id="levelize"),
]


@pytest.mark.parametrize("call, memo", RACES)
def test_lookups_racing_evictions_never_fail(monkeypatch, call, memo):
    monkeypatch.setattr(memo, "capacity", 1)
    memo.clear()
    netlists = [_chain(length) for length in (1, 2, 3, 4)]
    assert len({netlist_content_hash(nl) for nl in netlists}) == 4
    errors = []
    calls = [0] * len(netlists)
    failed = threading.Event()
    deadline = time.monotonic() + 2.0

    def hammer(index):
        netlist = netlists[index]
        try:
            while time.monotonic() < deadline and not failed.is_set():
                call(netlist)
                calls[index] += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            failed.set()

    threads = [
        threading.Thread(target=hammer, args=(i,), daemon=True)
        for i in range(len(netlists))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(calls)
    info = memo.info()
    assert info.entries <= 1
    # One lookup per call, none lost to a concurrent update.
    assert info.hits + info.misses == sum(calls)
