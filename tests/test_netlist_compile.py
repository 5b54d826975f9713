"""Tests for the compiled gate program and its per-process cache."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.builder import CircuitBuilder
from repro.netlist.cells import CellType
from repro.netlist.compile import (
    CompiledSimulator,
    clear_program_cache,
    compile_netlist,
    netlist_content_hash,
    program_cache_info,
)
from repro.netlist.simulate import pack_lanes


def _adder_bit():
    """One-bit full adder with a registered carry."""
    b = CircuitBuilder("adder")
    x = b.input("x")
    y = b.input("y")
    carry_in = b.input("cin")
    s = b.xor(b.xor(x, y), carry_in)
    carry = b.or_(b.and_(x, y), b.and_(carry_in, b.xor(x, y)))
    q = b.reg(carry, "carry_q")
    b.output(s, "sum")
    b.output(q, "carry_out")
    return b.build()


class TestContentHash:
    def test_names_do_not_affect_hash(self):
        def build(name, net_prefix):
            b = CircuitBuilder(name)
            x = b.input(f"{net_prefix}x")
            y = b.input(f"{net_prefix}y")
            b.output(b.and_(x, y), f"{net_prefix}out")
            return b.build()

        assert netlist_content_hash(build("a", "p_")) == netlist_content_hash(
            build("b", "q_")
        )

    def test_structure_affects_hash(self):
        def build(kind):
            b = CircuitBuilder("t")
            x = b.input("x")
            y = b.input("y")
            gate = b.and_(x, y) if kind == "and" else b.or_(x, y)
            b.output(gate, "out")
            return b.build()

        assert netlist_content_hash(build("and")) != netlist_content_hash(
            build("or")
        )

    def test_connectivity_affects_hash(self):
        def build(swapped):
            b = CircuitBuilder("t")
            x = b.input("x")
            y = b.input("y")
            z = b.input("z")
            first = (y, x) if swapped else (x, y)
            b.output(b.mux(z, *first), "out")
            return b.build()

        assert netlist_content_hash(build(False)) != netlist_content_hash(
            build(True)
        )


class TestGateProgram:
    def test_program_covers_every_combinational_cell(self):
        nl = _adder_bit()
        program = compile_netlist(nl)
        n_dffs = sum(
            1 for c in nl.cells if c.cell_type is CellType.DFF
        )
        assert program.n_comb_cells == len(nl.cells) - n_dffs
        assert program.dff_d.size == n_dffs
        assert program.dff_q.size == n_dffs
        assert program.n_levels >= 1
        assert program.n_dispatches <= program.n_comb_cells

    def test_ops_are_level_ordered(self):
        nl = _adder_bit()
        program = compile_netlist(nl)
        # Every op input must be a primary input, register output,
        # constant, or the output of an earlier op: executable in order.
        ready = set(program.input_nets)
        ready.update(int(n) for n in program.dff_q)
        ready.update(int(n) for n in program.const0)
        ready.update(int(n) for n in program.const1)
        for op in program.ops:
            for arr in (op.in0, op.in1, op.in2):
                for net in arr:
                    assert int(net) in ready
            ready.update(int(n) for n in op.out)

    def test_constants_are_separated(self):
        b = CircuitBuilder("t")
        x = b.input("x")
        zero = b.constant(0)
        one = b.constant(1)
        b.output(b.and_(x, one), "a")
        b.output(b.or_(x, zero), "b")
        program = compile_netlist(b.build())
        assert program.const0.size == 1
        assert program.const1.size == 1
        assert all(
            op.cell_type not in (CellType.CONST0, CellType.CONST1)
            for op in program.ops
        )


class TestProgramCache:
    def test_cache_returns_same_object(self):
        clear_program_cache()
        nl = _adder_bit()
        first = compile_netlist(nl)
        second = compile_netlist(nl)
        assert first is second
        info = program_cache_info()
        assert info.entries == 1
        assert info.capacity >= 1
        assert info.hits == 1
        assert info.misses == 1

    def test_structurally_equal_netlists_share_a_program(self):
        clear_program_cache()
        assert compile_netlist(_adder_bit()) is compile_netlist(_adder_bit())

    def test_cache_evicts_oldest(self, monkeypatch):
        from repro.netlist import compile as compile_mod

        clear_program_cache()
        monkeypatch.setattr(compile_mod._PROGRAM_CACHE, "capacity", 2)
        try:
            def chain(n):
                b = CircuitBuilder("t")
                net = b.input("x")
                for _ in range(n):
                    net = b.not_(net)
                b.output(net, "out")
                return b.build()

            programs = [compile_netlist(chain(n)) for n in (1, 2, 3)]
            info = program_cache_info()
            assert info.entries == 2
            assert info.evictions == 1
            # The first program was evicted: recompilation yields a new one.
            assert compile_netlist(chain(1)) is not programs[0]
        finally:
            clear_program_cache()


class TestCompiledSimulator:
    def test_lane_count_validation(self):
        with pytest.raises(SimulationError):
            CompiledSimulator(_adder_bit(), 0)
        with pytest.raises(SimulationError):
            CompiledSimulator(_adder_bit(), -3)

    def test_missing_input_detected(self):
        nl = _adder_bit()
        sim = CompiledSimulator(nl, 64)
        with pytest.raises(SimulationError, match="missing primary input"):
            sim.run(lambda cycle: {}, 1)

    def test_stimulus_shape_checked(self):
        nl = _adder_bit()
        sim = CompiledSimulator(nl, 128)
        stim = lambda cycle: {
            net: np.zeros(1, dtype=np.uint64) for net in nl.inputs
        }
        with pytest.raises(SimulationError, match="shape"):
            sim.run(stim, 1)

    def test_record_cycles_filter(self):
        nl = _adder_bit()
        sim = CompiledSimulator(nl, 64)
        stim = lambda cycle: {
            net: np.zeros(1, dtype=np.uint64) for net in nl.inputs
        }
        trace = sim.run(stim, 3, record_cycles={1})
        assert trace.values[0] == {}
        assert trace.values[2] == {}
        assert trace.values[1] != {}

    def test_registered_carry_accumulates(self):
        nl = _adder_bit()
        sim = CompiledSimulator(nl, 1)
        names = {nl.net_name(n): n for n in nl.inputs}
        ones = pack_lanes(np.array([1], dtype=np.uint8))
        stim = lambda cycle: {
            names["x"]: ones.copy(),
            names["y"]: ones.copy(),
            names["cin"]: ones.copy(),
        }
        trace = sim.run(stim, 2)
        carry_q = next(
            c.output for c in nl.cells if c.cell_type is CellType.DFF
        )
        # Cycle 0: reset value; cycle 1: carry of 1+1+1.
        assert trace.bits(0, carry_q)[0] == 0
        assert trace.bits(1, carry_q)[0] == 1
