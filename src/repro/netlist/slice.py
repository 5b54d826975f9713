"""Probe-driven fan-in slicing of netlists and compiled gate programs.

Probing-model evaluations only ever *read* the stable support nets of their
probe classes, yet the simulators execute the entire design every cycle.
This module computes the **sequential fan-in cone** of an arbitrary net set
-- the transitive closure of drivers through registers, across cycles -- and
slices a compiled :class:`~repro.netlist.compile.GateProgram` down to it:

* dead vectorized dispatches are dropped entirely (a dispatch keeps only
  the cells whose outputs are in the cone);
* dead state rows are compacted away (the ``(n_nets, n_words)`` state
  matrix shrinks to ``(n_live, n_words)``), with a net-index remap kept on
  the program so :class:`~repro.netlist.simulate.Trace` extraction and
  histogram table ids are unchanged;
* slices are content-hash cached alongside full programs in the bounded
  program cache, keyed by (netlist hash, cone digest).

Because the cone is closed under fan-in, every live net computes exactly
the same uint64 words as in the full program -- sliced evaluation is
**bit-identical**, only faster, by roughly the full/cone cell ratio (the
E11 whole-core workload probes one S-box inside a ~21k-cell AES core and
simulates ~16x fewer cells).  This mirrors how PROLEAD's glitch-extended
probe sets and aLEAKator's verification slices confine analysis to the
relevant part of the design.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import NetlistError, SimulationError
from repro.memo import Memo
from repro.netlist.cells import CellType
from repro.netlist.compile import (
    _PROGRAM_CACHE,
    GateOp,
    GateProgram,
    compile_netlist,
    execute_ops,
    netlist_content_hash,
)
from repro.netlist.core import Netlist

#: Memoized cones, keyed by (netlist content hash, root-set digest).
_CONE_MEMO = Memo(64)

#: Memoized per-cycle cones, keyed by (netlist hash, parameter digest).
_SCHEDULED_MEMO = Memo(16)

#: Memoized flat driver tables, keyed by netlist content hash.
_ARRAYS_MEMO = Memo(8)

#: Net-kind codes used by the vectorized traversals.
_KIND_INPUT = 0
_KIND_DFF = 1
_KIND_CONST0 = 2
_KIND_CONST1 = 3
_KIND_MUX = 4
_KIND_COMB = 5
_KIND_NONE = 6

#: Stable per-CellType dispatch order (0 is reserved for folded copies).
_CTYPE_LIST: List[CellType] = list(CellType)
_CTYPE_ORDER: Dict[CellType, int] = {
    ct: i + 1 for i, ct in enumerate(_CTYPE_LIST)
}


def _driver_arrays(netlist: Netlist) -> Dict[str, object]:
    """Flat per-net driver tables for vectorized cone traversal.

    For every net: its driver kind code, the driver's input nets padded to
    arity 3 with ``-1`` (``in0`` holds D for registers), its register index
    (enumeration order of :meth:`Netlist.dff_cells`), its CellType order
    code and its combinational level.  Memoized per netlist content hash --
    both :func:`scheduled_cone` and :class:`ScheduledSimulator` index these
    arrays with whole net-set arrays instead of walking Python cell objects.
    """
    key = netlist_content_hash(netlist)
    cached = _ARRAYS_MEMO.get(key)
    if cached is not None:
        return cached
    from repro.netlist.topo import levelize

    n = netlist.n_nets
    kind = np.full(n, _KIND_NONE, dtype=np.int8)
    ctype = np.full(n, -1, dtype=np.int16)
    in0 = np.full(n, -1, dtype=np.intp)
    in1 = np.full(n, -1, dtype=np.intp)
    in2 = np.full(n, -1, dtype=np.intp)
    dff_index = np.full(n, -1, dtype=np.intp)
    if netlist.inputs:
        kind[np.asarray(netlist.inputs, dtype=np.intp)] = _KIND_INPUT
    n_dffs = 0
    for cell in netlist.cells:
        out = cell.output
        cell_type = cell.cell_type
        if cell_type is CellType.DFF:
            kind[out] = _KIND_DFF
            dff_index[out] = n_dffs
            in0[out] = cell.inputs[0]
            n_dffs += 1
            continue
        if cell_type is CellType.CONST0:
            kind[out] = _KIND_CONST0
            continue
        if cell_type is CellType.CONST1:
            kind[out] = _KIND_CONST1
            continue
        kind[out] = (
            _KIND_MUX if cell_type is CellType.MUX else _KIND_COMB
        )
        ctype[out] = _CTYPE_ORDER[cell_type]
        inputs = cell.inputs
        in0[out] = inputs[0]
        if len(inputs) > 1:
            in1[out] = inputs[1]
        if len(inputs) > 2:
            in2[out] = inputs[2]

    order = levelize(netlist)
    level_list = [0] * n
    for cell in order:
        if cell.cell_type in (CellType.CONST0, CellType.CONST1):
            continue
        best = 0
        for src in cell.inputs:
            if level_list[src] > best:
                best = level_list[src]
        level_list[cell.output] = best + 1

    arrays: Dict[str, object] = {
        "kind": kind,
        "ctype": ctype,
        "in0": in0,
        "in1": in1,
        "in2": in2,
        "dff_index": dff_index,
        "level": np.asarray(level_list, dtype=np.int64),
        "n_dffs": n_dffs,
        "n_comb_cells": len(order),
    }
    _ARRAYS_MEMO.put(key, arrays)
    return arrays


def _schedule_table(
    netlist: Netlist,
    values: Mapping[int, Tuple[int, ...]],
    n_cycles: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Schedule as (per-net row index, (n_scheduled, n_cycles) bool matrix)."""
    sched_row = np.full(netlist.n_nets, -1, dtype=np.intp)
    nets = sorted(values)
    sched_bits = np.zeros((len(nets), n_cycles), dtype=bool)
    for i, net in enumerate(nets):
        sched_row[net] = i
        sched_bits[i] = np.asarray(values[net][:n_cycles], dtype=bool)
    return sched_row, sched_bits


def _digest_nets(nets: Iterable[int]) -> str:
    """Order-invariant SHA-256 of a net-index set."""
    text = ",".join(map(str, sorted(set(nets))))
    return hashlib.sha256(text.encode()).hexdigest()


def sequential_cone(netlist: Netlist, nets: Iterable[int]) -> FrozenSet[int]:
    """Transitive fan-in of ``nets``, through registers, across cycles.

    Generalizes :func:`repro.netlist.topo.combinational_cone`: instead of
    stopping at stable signals, the traversal crosses every register from
    its Q output to its D input, so the result is everything that can
    influence the given nets at *any* cycle.  The cone is inclusive of the
    roots and closed under fan-in: every input of every cell whose output
    is in the cone is in the cone too -- the property that makes simulating
    only the cone bit-identical for every net in it.
    """
    roots = list(set(nets))
    for net in roots:
        if not 0 <= net < netlist.n_nets:
            raise NetlistError(f"net index {net} out of range")
    key = (netlist_content_hash(netlist), _digest_nets(roots))
    cached = _CONE_MEMO.get(key)
    if cached is not None:
        return cached
    cone = set()
    stack = roots
    while stack:
        current = stack.pop()
        if current in cone:
            continue
        cone.add(current)
        driver = netlist.driver(current)
        if driver is None:
            continue
        stack.extend(driver.inputs)
    result = frozenset(cone)
    _CONE_MEMO.put(key, result)
    return result


def clear_cone_memo() -> None:
    """Drop memoized sequential cones (test isolation helper)."""
    _CONE_MEMO.clear()
    _SCHEDULED_MEMO.clear()


def _validate_schedule(
    netlist: Netlist,
    schedule: Mapping[int, Sequence[int]],
    n_cycles: int,
) -> Dict[int, Tuple[int, ...]]:
    """Check a control schedule and normalize it to int tuples."""
    inputs = set(netlist.inputs)
    normalized: Dict[int, Tuple[int, ...]] = {}
    for net, bits in schedule.items():
        if net not in inputs:
            raise NetlistError(
                f"scheduled net {net} is not a primary input"
            )
        values = tuple(int(b) for b in bits)
        if len(values) < n_cycles:
            raise NetlistError(
                f"schedule for net {net} covers {len(values)} cycles, "
                f"need {n_cycles}"
            )
        if any(v not in (0, 1) for v in values):
            raise NetlistError(f"schedule for net {net} has non-bit values")
        normalized[net] = values
    return normalized


def scheduled_cone(
    netlist: Netlist,
    nets: Iterable[int],
    record_cycles: Iterable[int],
    n_cycles: int,
    schedule: Mapping[int, Sequence[int]],
) -> Tuple[FrozenSet[int], ...]:
    """Per-cycle fan-in cones under a known public control schedule.

    :func:`sequential_cone` is cycle-agnostic: in a recirculating design
    (a cipher core whose state registers feed themselves through
    load/capture muxes) the static cone reaches essentially the whole
    netlist, and slicing buys nothing.  But protocol-driven designs fix
    the values of their control inputs per cycle -- and a MUX whose
    select is a *scheduled* control only ever propagates its selected
    branch.  This traversal walks backward over ``(net, cycle)`` pairs
    from the roots at each record cycle, crossing each register from Q at
    cycle ``t`` to D at ``t - 1`` and, at a scheduled MUX, following only
    the branch selected at that cycle.  Feedback paths through de-selected
    mux branches are cut exactly, so round-1 observations of a cipher core
    reach back only to the load cycle instead of the whole design.

    Returns one frozenset of needed nets per cycle (length ``n_cycles``).
    Scheduled nets must be primary inputs driven with the declared scalar
    value on every lane; :class:`ScheduledSimulator` verifies this at run
    time, which makes sliced execution bit-identical (the bitsliced
    constant encoding fills all 64 bits of each word, so the de-selected
    branch is masked out entirely).
    """
    roots = sorted(set(nets))
    for net in roots:
        if not 0 <= net < netlist.n_nets:
            raise NetlistError(f"net index {net} out of range")
    if n_cycles <= 0:
        raise NetlistError("n_cycles must be positive")
    cycles = sorted(set(int(t) for t in record_cycles))
    if not cycles:
        raise NetlistError("at least one record cycle is required")
    if cycles[0] < 0 or cycles[-1] >= n_cycles:
        raise NetlistError(
            f"record cycles {cycles[0]}..{cycles[-1]} outside "
            f"[0, {n_cycles})"
        )
    values = _validate_schedule(netlist, schedule, n_cycles)

    digest = hashlib.sha256()
    digest.update(_digest_nets(roots).encode())
    digest.update(repr((cycles, n_cycles, sorted(values.items()))).encode())
    key = (netlist_content_hash(netlist), digest.hexdigest())
    cached = _SCHEDULED_MEMO.get(key)
    if cached is not None:
        return cached

    # Frontier-vectorized traversal: registers are the only edges that
    # cross cycles (Q at t -> D at t-1), so cycles can be processed
    # latest-first, expanding each cycle's within-cycle closure with whole
    # frontier arrays instead of one (net, cycle) pair at a time.
    arrays = _driver_arrays(netlist)
    kind = arrays["kind"]
    in0, in1, in2 = arrays["in0"], arrays["in1"], arrays["in2"]
    sched_row, sched_bits = _schedule_table(netlist, values, n_cycles)
    needed_mask = np.zeros((n_cycles, netlist.n_nets), dtype=bool)
    root_array = np.asarray(roots, dtype=np.intp)
    seeds: List[List[np.ndarray]] = [[] for _ in range(n_cycles)]
    for t in cycles:
        seeds[t].append(root_array)
    for t in range(n_cycles - 1, -1, -1):
        if not seeds[t]:
            continue
        mask = needed_mask[t]
        frontier = np.unique(np.concatenate(seeds[t]))
        frontier = frontier[~mask[frontier]]
        while frontier.size:
            mask[frontier] = True
            kinds = kind[frontier]
            if t > 0:
                dff_nets = frontier[kinds == _KIND_DFF]
                if dff_nets.size:
                    seeds[t - 1].append(in0[dff_nets])
            parts: List[np.ndarray] = []
            mux_nets = frontier[kinds == _KIND_MUX]
            if mux_nets.size:
                rows = sched_row[in0[mux_nets]]
                scheduled = rows >= 0
                folded = mux_nets[scheduled]
                if folded.size:
                    select = sched_bits[rows[scheduled], t]
                    parts.append(
                        np.where(select, in2[folded], in1[folded])
                    )
                free = mux_nets[~scheduled]
                if free.size:
                    parts.extend((in0[free], in1[free], in2[free]))
            comb_nets = frontier[kinds == _KIND_COMB]
            if comb_nets.size:
                for table in (in0, in1, in2):
                    sources = table[comb_nets]
                    parts.append(sources[sources >= 0])
            if not parts:
                break
            candidates = np.unique(np.concatenate(parts))
            frontier = candidates[~mask[candidates]]

    result = tuple(
        frozenset(map(int, np.flatnonzero(needed_mask[t])))
        for t in range(n_cycles)
    )
    _SCHEDULED_MEMO.put(key, result)
    return result


def slice_key(netlist: Netlist, nets: Iterable[int]) -> str:
    """Cache/identity key of the slice induced by ``nets``.

    Two selections with the same sequential cone share one sliced program
    (and one key): the adaptive scheduler may prune probes without changing
    the cone, in which case nothing is recompiled and telemetry reports no
    re-slice.
    """
    cone = sequential_cone(netlist, nets)
    return f"{netlist_content_hash(netlist)}:slice:{_digest_nets(cone)}"


@dataclass(frozen=True)
class SliceStats:
    """Size of a slice relative to its full program (for telemetry)."""

    n_cells_full: int
    n_cells: int
    n_dispatches_full: int
    n_dispatches: int
    n_state_full: int
    n_state: int
    n_dffs_full: int
    n_dffs: int

    @property
    def cell_ratio(self) -> float:
        """Full/slice combinational-cell ratio (>= 1)."""
        return self.n_cells_full / max(1, self.n_cells)

    @property
    def dispatch_ratio(self) -> float:
        """Full/slice vectorized-dispatch ratio (>= 1)."""
        return self.n_dispatches_full / max(1, self.n_dispatches)

    @property
    def state_ratio(self) -> float:
        """Full/slice state-row ratio (>= 1)."""
        return self.n_state_full / max(1, self.n_state)

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe form, ratios included."""
        return {
            "cells_full": self.n_cells_full,
            "cells": self.n_cells,
            "cell_ratio": round(self.cell_ratio, 3),
            "dispatches_full": self.n_dispatches_full,
            "dispatches": self.n_dispatches,
            "dispatch_ratio": round(self.dispatch_ratio, 3),
            "state_full": self.n_state_full,
            "state": self.n_state,
            "state_ratio": round(self.state_ratio, 3),
            "dffs_full": self.n_dffs_full,
            "dffs": self.n_dffs,
        }


def slice_stats(netlist: Netlist, nets: Iterable[int]) -> SliceStats:
    """Size of the slice induced by ``nets`` vs. the full program."""
    full = compile_netlist(netlist)
    sliced = slice_program(netlist, nets)
    return SliceStats(
        n_cells_full=full.n_comb_cells,
        n_cells=sliced.n_comb_cells,
        n_dispatches_full=full.n_dispatches,
        n_dispatches=sliced.n_dispatches,
        n_state_full=full.n_state_rows,
        n_state=sliced.n_state_rows,
        n_dffs_full=int(full.dff_q.size),
        n_dffs=int(sliced.dff_q.size),
    )


def slice_program(netlist: Netlist, keep_nets: Iterable[int]) -> GateProgram:
    """Slice the netlist's compiled program to the cone of ``keep_nets``.

    The returned program executes only the cells whose outputs lie in
    ``sequential_cone(netlist, keep_nets)`` and allocates state rows only
    for cone nets; its ``net_map`` translates original net ids so recorded
    traces keep original net keys.  Slices share the bounded program cache
    with full programs under :func:`slice_key`.
    """
    keep_list = list(keep_nets)
    cone = sequential_cone(netlist, keep_list)
    key = f"{netlist_content_hash(netlist)}:slice:{_digest_nets(cone)}"
    cached = _PROGRAM_CACHE.get(key)
    if cached is not None:
        return cached

    full = compile_netlist(netlist)
    live = np.fromiter(sorted(cone), dtype=np.intp, count=len(cone))
    net_map = np.full(full.n_nets, -1, dtype=np.intp)
    net_map[live] = np.arange(live.size, dtype=np.intp)

    ops = []
    for op in full.ops:
        mask = net_map[op.out] >= 0
        if not mask.any():
            continue
        if mask.all():
            mask = slice(None)
        ops.append(
            GateOp(
                cell_type=op.cell_type,
                out=net_map[op.out[mask]],
                in0=net_map[op.in0[mask]],
                in1=net_map[op.in1[mask]] if op.in1.size else op.in1,
                in2=net_map[op.in2[mask]] if op.in2.size else op.in2,
            )
        )
    dff_mask = net_map[full.dff_q] >= 0
    program = GateProgram(
        content_hash=key,
        n_nets=full.n_nets,
        input_nets=tuple(pi for pi in full.input_nets if pi in cone),
        ops=tuple(ops),
        const0=net_map[full.const0[net_map[full.const0] >= 0]],
        const1=net_map[full.const1[net_map[full.const1] >= 0]],
        dff_d=net_map[full.dff_d[dff_mask]],
        dff_q=net_map[full.dff_q[dff_mask]],
        n_levels=full.n_levels,
        n_state=int(live.size),
        net_map=net_map,
    )
    _PROGRAM_CACHE.put(key, program)
    return program


class ControlSchedule(NamedTuple):
    """A public control schedule bound to the run a scheduled cone serves.

    ``values`` holds each scheduled primary input's scalar value per cycle
    (at least ``n_cycles`` entries); ``record_cycles`` are the cycles at
    which the cone must reproduce its roots.  With ``keep_nets`` as the
    roots it selects the scheduled simulator in
    :func:`repro.engines.build_simulator`.
    """

    values: Mapping[int, Sequence[int]]
    n_cycles: int
    record_cycles: Tuple[int, ...]


class ScheduledSimulator:
    """Bitsliced simulation restricted to per-cycle scheduled cones.

    Executes, at each cycle, only the cells whose outputs
    :func:`scheduled_cone` proved necessary to reproduce the root nets at
    the record cycles -- in a protocol-driven design with recirculating
    registers this skips nearly every cell on nearly every cycle, where
    the static :func:`sequential_cone` would retain the whole netlist.

    Per-cycle active sets are compiled at construction into vectorized
    dispatches (contiguous index arrays grouped by level and cell type
    over an ``(n_nets, n_words)`` state matrix, exactly like
    :class:`~repro.netlist.compile.CompiledSimulator`); a MUX whose select
    is scheduled is folded into a copy of its selected branch.  Every
    stimulus word driven on a scheduled net is verified against the
    declared schedule (all lanes, all 64 bits of each word), so the result
    is bit-identical to the full simulation at every recorded
    (net, cycle) pair -- a wrong schedule raises instead of silently
    diverging.
    """

    def __init__(
        self,
        netlist: Netlist,
        n_lanes: int,
        roots: Iterable[int],
        record_cycles: Iterable[int],
        n_cycles: int,
        schedule: Mapping[int, Sequence[int]],
    ):
        from repro.netlist.simulate import words_for_lanes

        if n_lanes <= 0:
            raise SimulationError("n_lanes must be positive")
        self.netlist = netlist
        self.n_lanes = n_lanes
        self.n_words = words_for_lanes(n_lanes)
        self.n_cycles = n_cycles
        self.roots = sorted(set(roots))
        self.record_cycles = sorted(set(int(t) for t in record_cycles))
        self._schedule = _validate_schedule(netlist, schedule, n_cycles)
        self._needed = scheduled_cone(
            netlist, self.roots, self.record_cycles, n_cycles, schedule
        )

        arrays = _driver_arrays(netlist)
        kind = arrays["kind"]
        ctype = arrays["ctype"]
        in0, in1, in2 = arrays["in0"], arrays["in1"], arrays["in2"]
        dff_index = arrays["dff_index"]
        level = arrays["level"]
        self._n_comb_cells = arrays["n_comb_cells"]
        self._n_dffs = arrays["n_dffs"]
        sched_row, sched_bits = _schedule_table(
            netlist, self._schedule, n_cycles
        )
        needed_arrays = [
            np.sort(np.fromiter(per, dtype=np.intp, count=len(per)))
            for per in self._needed
        ]

        #: per cycle: list of GateOps (level-major), input nets, register
        #: read/capture index arrays, and the active cell count.
        self._cycle_ops: List[List[GateOp]] = []
        self._cycle_inputs: List[List[int]] = []
        self._cycle_reads: List[Tuple[np.ndarray, np.ndarray]] = []
        self._cycle_captures: List[Tuple[np.ndarray, np.ndarray]] = []
        self._const0: set = set()
        self._const1: set = set()
        self._active_cell_cycles = 0
        empty = np.empty(0, dtype=np.intp)
        for t in range(n_cycles):
            nets = needed_arrays[t]
            kinds = kind[nets]
            inputs_t = nets[kinds == _KIND_INPUT]
            read_q = nets[kinds == _KIND_DFF]
            self._const0.update(map(int, nets[kinds == _KIND_CONST0]))
            self._const1.update(map(int, nets[kinds == _KIND_CONST1]))
            # Scheduled muxes fold into copies of their selected branch;
            # muxes with a live (unscheduled) select dispatch normally.
            comb_nets = nets[kinds == _KIND_COMB]
            mux_nets = nets[kinds == _KIND_MUX]
            folded = folded_src = empty
            if mux_nets.size:
                rows = sched_row[in0[mux_nets]]
                scheduled = rows >= 0
                folded = mux_nets[scheduled]
                if folded.size:
                    select = sched_bits[rows[scheduled], t]
                    folded_src = np.where(
                        select, in2[folded], in1[folded]
                    )
                comb_nets = np.concatenate(
                    [comb_nets, mux_nets[~scheduled]]
                )
            self._active_cell_cycles += int(comb_nets.size + folded.size)

            # One vectorized dispatch per (level, cell type); folded
            # copies sort first within their level (order code 0).
            # Ordering within a level is free -- same-level cells never
            # feed each other -- so level-major order is preserved.
            ops: List[GateOp] = []
            if folded.size or comb_nets.size:
                out_all = np.concatenate([folded, comb_nets])
                src_all = np.concatenate([folded_src, in0[comb_nets]])
                code_all = np.concatenate([
                    np.zeros(folded.size, dtype=np.int64),
                    ctype[comb_nets].astype(np.int64),
                ])
                composite = level[out_all] * 64 + code_all
                order = np.argsort(composite, kind="stable")
                out_all = out_all[order]
                src_all = src_all[order]
                composite = composite[order]
                boundaries = np.flatnonzero(np.diff(composite)) + 1
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [composite.size]))
                for start, end in zip(starts, ends):
                    code = int(composite[start]) % 64
                    outs = out_all[start:end]
                    if code == 0:
                        ops.append(GateOp(
                            cell_type=CellType.BUF,
                            out=outs,
                            in0=src_all[start:end],
                            in1=empty,
                            in2=empty,
                        ))
                        continue
                    cell_type = _CTYPE_LIST[code - 1]
                    arity = cell_type.arity
                    ops.append(GateOp(
                        cell_type=cell_type,
                        out=outs,
                        in0=in0[outs],
                        in1=in1[outs] if arity >= 2 else empty,
                        in2=in2[outs] if arity >= 3 else empty,
                    ))
            self._cycle_ops.append(ops)
            self._cycle_inputs.append(inputs_t.tolist())
            self._cycle_reads.append((read_q, dff_index[read_q]))
            if t + 1 < n_cycles:
                upcoming = needed_arrays[t + 1]
                dff_next = upcoming[kind[upcoming] == _KIND_DFF]
                self._cycle_captures.append(
                    (in0[dff_next], dff_index[dff_next])
                )
            else:
                self._cycle_captures.append((empty, empty))

    def stats(self) -> Dict[str, float]:
        """Active vs. full cell evaluations over the whole run."""
        full = self._n_comb_cells * self.n_cycles
        active = self._active_cell_cycles
        dispatches = sum(len(ops) for ops in self._cycle_ops)
        return {
            "cell_cycles_full": full,
            "cell_cycles": active,
            "cell_cycle_ratio": round(full / max(1, active), 3),
            "dispatches": dispatches,
            "n_cycles": self.n_cycles,
            "record_cycles": len(self.record_cycles),
        }

    def _run_window(
        self,
        n_cycles: int,
        record_nets: Optional[Iterable[int]],
        record_cycles: Optional[Iterable[int]],
    ) -> Tuple[List[int], List[int]]:
        """Check a run's arguments against the cone; ``(nets, cycles)``.

        The cone only guarantees the roots at the record cycles it was
        built for, over its ``n_cycles``: ``record_nets`` (default: the
        roots) and ``record_cycles`` (default: all of them) must be
        subsets, and ``n_cycles`` must match.
        """
        if n_cycles != self.n_cycles:
            raise SimulationError(
                f"this scheduled cone covers {self.n_cycles} cycles, "
                f"not {n_cycles}"
            )
        record_list = (
            list(self.roots) if record_nets is None else list(record_nets)
        )
        root_set = set(self.roots)
        for net in record_list:
            if net not in root_set:
                raise SimulationError(
                    f"net {net} is not a root of this scheduled slice"
                )
        if record_cycles is None:
            return record_list, list(self.record_cycles)
        cycles = sorted(set(record_cycles))
        extra = set(cycles) - set(self.record_cycles)
        if extra:
            raise SimulationError(
                f"cycle {min(extra)} is not a record cycle of this "
                "scheduled slice"
            )
        return record_list, cycles

    def run(
        self,
        stimulus,
        n_cycles: int,
        record_nets: Optional[Iterable[int]] = None,
        record_cycles: Optional[Iterable[int]] = None,
    ):
        """Simulate and record ``record_nets`` at ``record_cycles``.

        The engines' ``run`` contract, within :meth:`_run_window`'s
        bounds.  The stimulus must drive every needed primary input, with
        each scheduled net held at its declared per-cycle constant.  The
        simulator carries no mutable state between runs, so one instance
        can evaluate many stimulus streams.
        """
        from repro.netlist.simulate import Trace

        record_list, cycles = self._run_window(
            n_cycles, record_nets, record_cycles
        )
        record_set = set(cycles)
        trace = Trace(self.n_lanes, record_list)

        netlist = self.netlist
        n_words = self.n_words
        full_word = np.uint64(0xFFFFFFFFFFFFFFFF)
        state = np.zeros((netlist.n_nets, n_words), dtype=np.uint64)
        if self._const1:
            state[np.asarray(sorted(self._const1), dtype=np.intp)] = (
                full_word
            )
        reg_state = np.zeros((self._n_dffs, n_words), dtype=np.uint64)

        for cycle in range(self.n_cycles):
            provided = stimulus(cycle)
            for pi in self._cycle_inputs[cycle]:
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
                state[pi] = words
            for net, bits in self._schedule.items():
                if net not in provided:
                    raise SimulationError(
                        f"stimulus missing scheduled input "
                        f"{netlist.net_name(net)!r} at cycle {cycle}"
                    )
                expected = full_word if bits[cycle] else np.uint64(0)
                if not np.all(
                    np.asarray(provided[net], dtype=np.uint64) == expected
                ):
                    raise SimulationError(
                        f"stimulus for scheduled net "
                        f"{netlist.net_name(net)!r} at cycle {cycle} does "
                        f"not match its declared value {bits[cycle]}"
                    )
            read_q, read_reg = self._cycle_reads[cycle]
            if read_q.size:
                state[read_q] = reg_state[read_reg]
            execute_ops(self._cycle_ops[cycle], state)
            if cycle in record_set:
                trace.values.append(
                    {net: state[net].copy() for net in record_list}
                )
            else:
                trace.values.append({})
            cap_d, cap_reg = self._cycle_captures[cycle]
            if cap_d.size:
                reg_state[cap_reg] = state[cap_d]
        return trace
