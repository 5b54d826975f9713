"""Compilation of a levelized netlist into a flat gate program.

The interpreting :class:`~repro.netlist.simulate.BitslicedSimulator` pays one
Python dispatch per gate per cycle, which dominates the runtime of
PROLEAD-scale campaigns.  This module compiles a netlist **once** into a
:class:`GateProgram` -- contiguous numpy index arrays grouped by
(combinational level, cell type) -- so simulation executes the whole netlist
level-by-level with **one vectorized dispatch per cell type per level**: all
AND gates of a level evaluate as a single ``values[in0] & values[in1]``
gather/scatter over a ``(n_nets, n_words)`` state matrix.

Programs are cached by a content hash of the netlist structure (cell types,
connectivity, primary inputs -- names are irrelevant to execution), so
repeated simulator construction, e.g. one per sampling block or per worker
process, compiles at most once per process.  The cache is a bounded
:class:`~repro.memo.Memo` shared by full programs and cone slices
(:mod:`repro.netlist.slice`); hit/miss/eviction counts are exposed through
:func:`program_cache_info` and the evaluation service's ``/metrics``
endpoint.

:class:`CompiledSimulator` is a drop-in replacement for
:class:`~repro.netlist.simulate.BitslicedSimulator`: same ``run`` signature,
same :class:`~repro.netlist.simulate.Trace` output, and **bit-identical**
results -- both engines execute the same uint64 word operations, only the
dispatch granularity differs.  Passing ``keep_nets`` restricts execution to
the sequential fan-in cone of those nets (see :mod:`repro.netlist.slice`);
every live net still computes the exact same words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.memo import Memo, MemoInfo
from repro.netlist.cells import CellType
from repro.netlist.core import Netlist, netlist_content_hash  # noqa: F401
from repro.netlist.simulate import Stimulus, Trace, words_for_lanes
from repro.netlist.topo import levelize

#: Compiled programs kept per process, keyed by netlist content hash (full
#: programs) or by slice key (cone slices; see :mod:`repro.netlist.slice`).
#: Evaluation flows touch a handful of netlists per process.
_PROGRAM_CACHE = Memo(64)


def clear_program_cache() -> None:
    """Drop every cached program and reset statistics (test isolation)."""
    _PROGRAM_CACHE.clear()


def program_cache_info() -> MemoInfo:
    """Entries, capacity and lifetime hit/miss/eviction counts."""
    return _PROGRAM_CACHE.info()


@dataclass(frozen=True)
class GateOp:
    """One vectorized dispatch: every cell of one type within one level.

    ``out``/``in0``/``in1``/``in2`` are parallel net-index arrays; unary
    cells leave ``in1``/``in2`` empty, binary cells leave ``in2`` empty.
    """

    cell_type: CellType
    out: np.ndarray
    in0: np.ndarray
    in1: np.ndarray
    in2: np.ndarray

    @property
    def n_cells(self) -> int:
        """Number of cells this dispatch evaluates."""
        return int(self.out.size)


@dataclass(frozen=True)
class GateProgram:
    """A netlist flattened into contiguous numpy op/index arrays.

    A *full* program indexes its state matrix directly by net id.  A
    *sliced* program (``net_map is not None``; see
    :func:`repro.netlist.slice.slice_program`) keeps only the state rows of
    its fan-in cone: op/register/constant arrays are pre-remapped to compact
    rows, ``input_nets`` keeps original net ids (they key the stimulus), and
    ``net_map`` translates original net ids to rows (-1 for dead nets).
    """

    content_hash: str
    n_nets: int
    input_nets: Tuple[int, ...]
    #: combinational dispatches in execution order (level-major).
    ops: Tuple[GateOp, ...]
    #: net indices driven constant 0 / constant 1.
    const0: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    const1: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    #: register D-input and Q-output net indices (parallel arrays).
    dff_d: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    dff_q: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    #: number of combinational levels (for reporting).
    n_levels: int = 0
    #: state rows of a sliced program; None means full (= ``n_nets``).
    n_state: Optional[int] = None
    #: original net id -> state row (-1 = dead); None means identity.
    net_map: Optional[np.ndarray] = None

    @property
    def n_dispatches(self) -> int:
        """Vectorized dispatches per simulated cycle."""
        return len(self.ops)

    @property
    def n_comb_cells(self) -> int:
        """Combinational cells covered by the op arrays."""
        return sum(op.n_cells for op in self.ops) + int(
            self.const0.size + self.const1.size
        )

    @property
    def n_state_rows(self) -> int:
        """Rows of the simulation state matrix."""
        return self.n_nets if self.n_state is None else self.n_state

    @property
    def is_sliced(self) -> bool:
        """True for a cone-sliced program."""
        return self.net_map is not None

    def state_row(self, net: int) -> int:
        """State row of an original net id; raises for dead nets."""
        if self.net_map is None:
            return net
        row = int(self.net_map[net])
        if row < 0:
            raise SimulationError(
                f"net {net} is outside this program's fan-in slice"
            )
        return row

    def is_live(self, net: int) -> bool:
        """True when the net has a state row in this program."""
        return self.net_map is None or self.net_map[net] >= 0


def _index_array(values: Iterable[int]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.intp)


def compile_netlist(netlist: Netlist) -> GateProgram:
    """Compile (or fetch from the per-process cache) a netlist's program."""
    key = netlist_content_hash(netlist)
    cached = _PROGRAM_CACHE.get(key)
    if cached is not None:
        return cached

    order = levelize(netlist)
    level: Dict[int, int] = {net: 0 for net in netlist.inputs}
    for dff in netlist.dff_cells():
        level[dff.output] = 0

    const0: List[int] = []
    const1: List[int] = []
    grouped: Dict[Tuple[int, CellType], List] = {}
    max_level = 0
    for cell in order:
        if cell.cell_type is CellType.CONST0:
            const0.append(cell.output)
            level[cell.output] = 0
            continue
        if cell.cell_type is CellType.CONST1:
            const1.append(cell.output)
            level[cell.output] = 0
            continue
        cell_level = 1 + max(level.get(n, 0) for n in cell.inputs)
        level[cell.output] = cell_level
        max_level = max(max_level, cell_level)
        grouped.setdefault((cell_level, cell.cell_type), []).append(cell)

    ops: List[GateOp] = []
    for (lvl, cell_type) in sorted(
        grouped, key=lambda k: (k[0], k[1].value)
    ):
        cells = grouped[(lvl, cell_type)]
        arity = cell_type.arity
        ops.append(
            GateOp(
                cell_type=cell_type,
                out=_index_array(c.output for c in cells),
                in0=_index_array(c.inputs[0] for c in cells),
                in1=_index_array(
                    c.inputs[1] for c in cells
                ) if arity >= 2 else np.empty(0, np.intp),
                in2=_index_array(
                    c.inputs[2] for c in cells
                ) if arity >= 3 else np.empty(0, np.intp),
            )
        )

    dffs = list(netlist.dff_cells())
    program = GateProgram(
        content_hash=key,
        n_nets=netlist.n_nets,
        input_nets=tuple(netlist.inputs),
        ops=tuple(ops),
        const0=_index_array(const0),
        const1=_index_array(const1),
        dff_d=_index_array(c.inputs[0] for c in dffs),
        dff_q=_index_array(c.output for c in dffs),
        n_levels=max_level,
    )
    _PROGRAM_CACHE.put(key, program)
    return program


_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def execute_ops(ops: Sequence[GateOp], state: np.ndarray) -> None:
    """Evaluate ``ops`` in order on a ``(rows, n_words)`` state matrix.

    The one gate dispatch of the compiled and scheduled simulators: each
    op writes its output rows from its input rows in place.
    """
    for op in ops:
        kind = op.cell_type
        if kind is CellType.BUF:
            state[op.out] = state[op.in0]
        elif kind is CellType.NOT:
            state[op.out] = ~state[op.in0]
        elif kind is CellType.AND:
            state[op.out] = state[op.in0] & state[op.in1]
        elif kind is CellType.NAND:
            state[op.out] = ~(state[op.in0] & state[op.in1])
        elif kind is CellType.OR:
            state[op.out] = state[op.in0] | state[op.in1]
        elif kind is CellType.NOR:
            state[op.out] = ~(state[op.in0] | state[op.in1])
        elif kind is CellType.XOR:
            state[op.out] = state[op.in0] ^ state[op.in1]
        elif kind is CellType.XNOR:
            state[op.out] = ~(state[op.in0] ^ state[op.in1])
        elif kind is CellType.MUX:
            select = state[op.in0]
            state[op.out] = (state[op.in1] & ~select) | (
                state[op.in2] & select
            )
        else:  # pragma: no cover - constants/DFFs are not in ops
            raise SimulationError(f"unexpected cell type {kind}")


class CompiledSimulator:
    """Executes a compiled gate program over many parallel lanes.

    Semantics are identical to
    :class:`~repro.netlist.simulate.BitslicedSimulator` (positive-edge DFFs
    initialised to 0; inputs, register outputs, combinational settle,
    register capture) and so are the recorded words, bit for bit.

    With ``keep_nets`` the simulator executes the sliced program of the
    sequential fan-in cone of those nets: dead dispatches and dead state
    rows are gone, but every live net computes exactly the words the full
    program would -- the cone is closed under fan-in, so nothing a live net
    depends on is dropped.
    """

    def __init__(
        self,
        netlist: Netlist,
        n_lanes: int,
        keep_nets: Optional[Iterable[int]] = None,
    ):
        if n_lanes <= 0:
            raise SimulationError("n_lanes must be positive")
        self.netlist = netlist
        self.n_lanes = n_lanes
        self.n_words = words_for_lanes(n_lanes)
        if keep_nets is None:
            self.program = compile_netlist(netlist)
        else:
            from repro.netlist.slice import slice_program

            self.program = slice_program(netlist, keep_nets)

    def run(
        self,
        stimulus: Stimulus,
        n_cycles: int,
        record_nets: Optional[Iterable[int]] = None,
        record_cycles: Optional[Iterable[int]] = None,
    ) -> Trace:
        """Simulate ``n_cycles`` cycles and record the requested nets.

        Same contract as :meth:`BitslicedSimulator.run`; see there.  A
        sliced simulator defaults ``record_nets`` to the *live* stable nets
        and rejects requests for nets outside its cone.
        """
        netlist = self.netlist
        program = self.program
        if record_nets is None:
            record_nets = [
                net for net in netlist.stable_nets() if program.is_live(net)
            ]
        record_list = list(record_nets)
        # state_row() raises for nets outside the slice -- a dead net has no
        # row, and silently recording a wrong row would corrupt histograms.
        record_rows = [program.state_row(net) for net in record_list]
        input_rows = [
            program.state_row(pi) for pi in program.input_nets
        ]
        cycle_filter = None if record_cycles is None else set(record_cycles)
        trace = Trace(self.n_lanes, record_list)

        n_words = self.n_words
        state = np.zeros((program.n_state_rows, n_words), dtype=np.uint64)
        # Constant drivers never change; establish them once.
        if program.const1.size:
            state[program.const1] = _ALL_ONES
        reg_state = np.zeros((program.dff_q.size, n_words), dtype=np.uint64)

        for cycle in range(n_cycles):
            provided = stimulus(cycle)
            for pi, row in zip(program.input_nets, input_rows):
                if pi not in provided:
                    raise SimulationError(
                        f"stimulus missing primary input "
                        f"{netlist.net_name(pi)!r} at cycle {cycle}"
                    )
                words = np.asarray(provided[pi], dtype=np.uint64)
                if words.shape != (n_words,):
                    raise SimulationError(
                        f"stimulus for {netlist.net_name(pi)!r} has shape "
                        f"{words.shape}, expected ({n_words},)"
                    )
                state[row] = words
            if program.dff_q.size:
                state[program.dff_q] = reg_state
            execute_ops(program.ops, state)
            if cycle_filter is None or cycle in cycle_filter:
                trace.values.append(
                    {
                        net: state[row].copy()
                        for net, row in zip(record_list, record_rows)
                    }
                )
            else:
                trace.values.append({})
            if program.dff_d.size:
                reg_state = state[program.dff_d].copy()
        return trace
