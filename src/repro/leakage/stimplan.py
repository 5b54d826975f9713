"""Op-coded stimulus programs: one description, two executors.

A :class:`StimulusPlan` captures a per-cycle stimulus function as a small
straight-line program over *rows* (uint64 word arrays, one per driven net
plus scratch):

========== ===========================================================
``DRAW``   next row from the PCG64 stream (``random_word_rows`` order)
``CONST``  all-lanes broadcast of a scheduled bit column
``COPY``   copy another row
``XOR``    XOR of two rows
``XORC``   XOR of a row with a scheduled bit column broadcast
``NZ8``    eight bit-planes of a rejection-sampled non-zero byte
========== ===========================================================

The same program can be executed two ways with bit-identical results:

* the plan itself is a callable ``stimulus(cycle) -> {net: words}``,
  interpreted in numpy against the live ``rng`` -- a drop-in replacement
  for the closures it supersedes, usable by every engine.  Each step is
  a few whole-array operations: a region's draws land in one batched
  call, a non-zero byte is one ``(8, n_words)`` array copied into its
  eight rows at once;
* the native engine reads the flat op/schedule arrays plus the PCG64
  state snapshot (:meth:`rng_state`) and runs the whole program inside
  the C kernel (``repro.netlist.native``), never touching Python per
  cycle.

Bit-compatibility contract: ``DRAW`` consumes the stream exactly as
:func:`repro.leakage.traces.random_word_rows` does (full-range uint64
draws are stream-transparent, so batching is free; on PCG64 they are the
generator's raw 64-bit outputs, one per word), and ``NZ8`` follows
:func:`repro.leakage.traces.random_nonzero_byte` word for word,
including the draw-then-merge retry order, the number of rounds, and the
give-up-after-64 rounds error.  A plan therefore produces the same words
no matter which executor runs it -- checkpoints, resumes, and verdicts
stay byte-identical across engines.

A plan must have a single consumer: interleaving Python interpretation
with native execution of the same plan would consume the stream twice.
:meth:`rng_state` refuses to hand out the snapshot once the Python
interpreter has advanced the generator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.leakage.traces import (
    random_nonzero_byte,
    random_word_rows,
)

_WORD_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

OP_DRAW = 0
OP_CONST = 1
OP_COPY = 2
OP_XOR = 3
OP_XORC = 4
OP_NZ8 = 5

OP_NAMES = {
    OP_DRAW: "DRAW",
    OP_CONST: "CONST",
    OP_COPY: "COPY",
    OP_XOR: "XOR",
    OP_XORC: "XORC",
    OP_NZ8: "NZ8",
}


class _Group:
    """A vectorizable run of same-opcode, dependency-free ops."""

    __slots__ = ("code", "dst", "a", "b")

    def __init__(self, code: int, dst, a, b):
        self.code = code
        self.dst = np.asarray(dst, dtype=np.intp)
        self.a = np.asarray(a, dtype=np.intp)
        self.b = np.asarray(b, dtype=np.intp)


class _Region:
    """Ops between two NZ8 barriers: hoisted draws + exec groups."""

    __slots__ = ("draw_dsts", "groups")

    def __init__(self, draw_dsts, groups):
        self.draw_dsts = np.asarray(draw_dsts, dtype=np.intp)
        self.groups = groups


class StimulusPlan:
    """A compiled stimulus program (see module docstring).

    Instances are callables with the standard stimulus signature and are
    built through :class:`StimulusPlanBuilder`.
    """

    def __init__(
        self,
        *,
        n_words: int,
        period: int,
        ops: np.ndarray,
        row_nets: Sequence[int],
        sched: np.ndarray,
        rng: np.random.Generator,
    ):
        self.n_words = int(n_words)
        self.period = int(period)
        self.ops = np.ascontiguousarray(ops, dtype=np.int64)
        self.row_nets = list(row_nets)
        self.sched = np.ascontiguousarray(sched, dtype=np.uint8)
        self.rng = rng
        self.n_rows = len(self.row_nets)
        self.calls = 0
        self._bound: List[Tuple[int, int]] = [
            (row, net)
            for row, net in enumerate(self.row_nets)
            if net >= 0
        ]
        self._segments = self._segment()
        self._rng_state = self._snapshot_state(rng)

    # ------------------------------------------------------------ metadata

    @property
    def nets(self) -> "list[int]":
        """Nets this plan drives, in binding order."""
        return [net for _, net in self._bound]

    @staticmethod
    def _snapshot_state(
        rng: np.random.Generator,
    ) -> Optional[Tuple[int, int]]:
        bit_gen = rng.bit_generator
        if type(bit_gen).__name__ != "PCG64":
            return None
        state = bit_gen.state["state"]
        return (int(state["state"]), int(state["inc"]))

    def rng_state(self) -> Tuple[int, int]:
        """The (state, inc) PCG64 snapshot taken at construction.

        Raises if the generator is not PCG64 or if the Python
        interpreter has already consumed from it (a plan has exactly one
        executor; see module docstring).
        """
        if self._rng_state is None:
            raise SimulationError(
                "stimulus plan generator is not PCG64; no native snapshot"
            )
        if self.calls:
            raise SimulationError(
                "stimulus plan already interpreted in python; "
                "the PCG64 snapshot is stale"
            )
        return self._rng_state

    # ------------------------------------------------------- interpretation

    def _segment(self) -> list:
        """Split ops into NZ8-delimited regions of vectorizable groups.

        Draws never read rows, so hoisting every DRAW of a region into
        one batched ``random_word_rows`` call preserves both the stream
        order and the data dependencies (each destination row is written
        exactly once -- the builder enforces it).
        """
        segments: list = []
        draw_dsts: List[int] = []
        groups: List[_Group] = []
        cur_code = -1
        cur_dst: List[int] = []
        cur_a: List[int] = []
        cur_b: List[int] = []
        written: set = set()

        def flush_group():
            nonlocal cur_code, cur_dst, cur_a, cur_b, written
            if cur_dst:
                groups.append(_Group(cur_code, cur_dst, cur_a, cur_b))
            cur_code = -1
            cur_dst, cur_a, cur_b = [], [], []
            written = set()

        def flush_region():
            flush_group()
            nonlocal draw_dsts, groups
            if draw_dsts or groups:
                segments.append(_Region(draw_dsts, groups))
            draw_dsts, groups = [], []

        for code, dst, a, b in self.ops:
            code, dst, a, b = int(code), int(dst), int(a), int(b)
            if code == OP_NZ8:
                flush_region()
                segments.append(dst)
                continue
            if code == OP_DRAW:
                draw_dsts.append(dst)
                continue
            reads = ()
            if code in (OP_COPY, OP_XORC):
                reads = (a,)
            elif code == OP_XOR:
                reads = (a, b)
            if code != cur_code or any(r in written for r in reads):
                flush_group()
                cur_code = code
            cur_dst.append(dst)
            cur_a.append(a)
            cur_b.append(b)
            written.add(dst)
        flush_region()
        return segments

    def _broadcast(self, cols: np.ndarray, step: int) -> np.ndarray:
        bits = self.sched[cols, step].astype(bool)
        return np.where(bits[:, None], _WORD_MAX, np.uint64(0))

    def __call__(self, cycle: int) -> Dict[int, np.ndarray]:
        self.calls += 1
        step = cycle % self.period
        rows = np.empty((max(self.n_rows, 1), self.n_words), dtype=np.uint64)
        for seg in self._segments:
            if isinstance(seg, int):
                rows[seg:seg + 8] = random_nonzero_byte(self.rng, self.n_words)
                continue
            if len(seg.draw_dsts):
                rows[seg.draw_dsts] = random_word_rows(
                    self.rng, len(seg.draw_dsts), self.n_words
                )
            for g in seg.groups:
                if g.code == OP_CONST:
                    rows[g.dst] = self._broadcast(g.a, step)
                elif g.code == OP_COPY:
                    rows[g.dst] = rows[g.a]
                elif g.code == OP_XOR:
                    rows[g.dst] = rows[g.a] ^ rows[g.b]
                elif g.code == OP_XORC:
                    rows[g.dst] = rows[g.a] ^ self._broadcast(g.b, step)
        values = dict(zip(self.row_nets, rows))
        values.pop(-1, None)  # every scratch row carries net -1
        return values


class StimulusPlanBuilder:
    """Assembles a :class:`StimulusPlan` op by op.

    Ops execute in emission order each cycle; ``draw``/``nonzero8``
    consume the PCG64 stream in that order.  Every op writes a fresh row
    (single assignment); a net may be bound to at most one row.
    """

    def __init__(self, n_words: int, period: int = 1):
        if n_words <= 0:
            raise SimulationError("n_words must be positive")
        if period <= 0:
            raise SimulationError("period must be positive")
        self.n_words = int(n_words)
        self.period = int(period)
        self._ops: List[Tuple[int, int, int, int]] = []
        self._row_nets: List[int] = []
        self._cols: List[List[int]] = []
        self._bound_nets: set = set()

    def _row(self, net: Optional[int]) -> int:
        if net is not None:
            net = int(net)
            if net < 0:
                raise SimulationError("net ids must be non-negative")
            if net in self._bound_nets:
                raise SimulationError(
                    f"net {net} already driven by this plan"
                )
            self._bound_nets.add(net)
        self._row_nets.append(-1 if net is None else net)
        return len(self._row_nets) - 1

    def _check_src(self, row: int) -> int:
        row = int(row)
        if not 0 <= row < len(self._row_nets):
            raise SimulationError(f"source row {row} not yet defined")
        return row

    def column(self, bits: Sequence[int]) -> int:
        """Register a per-step bit column; returns its column index."""
        bits = [1 if b else 0 for b in bits]
        if len(bits) != self.period:
            raise SimulationError(
                f"column has {len(bits)} steps, plan period is {self.period}"
            )
        self._cols.append(bits)
        return len(self._cols) - 1

    def draw(self, net: Optional[int] = None) -> int:
        row = self._row(net)
        self._ops.append((OP_DRAW, row, 0, 0))
        return row

    def const(self, col: int, net: Optional[int] = None) -> int:
        if not 0 <= col < len(self._cols):
            raise SimulationError(f"unknown schedule column {col}")
        row = self._row(net)
        self._ops.append((OP_CONST, row, col, 0))
        return row

    def copy(self, src: int, net: Optional[int] = None) -> int:
        src = self._check_src(src)
        row = self._row(net)
        self._ops.append((OP_COPY, row, src, 0))
        return row

    def xor(self, a: int, b: int, net: Optional[int] = None) -> int:
        a, b = self._check_src(a), self._check_src(b)
        row = self._row(net)
        self._ops.append((OP_XOR, row, a, b))
        return row

    def xor_const(
        self, a: int, col: int, net: Optional[int] = None
    ) -> int:
        a = self._check_src(a)
        if not 0 <= col < len(self._cols):
            raise SimulationError(f"unknown schedule column {col}")
        row = self._row(net)
        self._ops.append((OP_XORC, row, a, col))
        return row

    def nonzero8(self, nets: Sequence[int]) -> "list[int]":
        """Eight consecutive rows holding a non-zero byte's bit planes."""
        if len(nets) != 8:
            raise SimulationError("nonzero8 drives exactly 8 nets")
        rows = [self._row(net) for net in nets]
        if rows != list(range(rows[0], rows[0] + 8)):
            raise SimulationError("nonzero8 rows must be consecutive")
        self._ops.append((OP_NZ8, rows[0], 0, 0))
        return rows

    def build(self, rng: np.random.Generator) -> StimulusPlan:
        ops = np.array(
            self._ops if self._ops else np.empty((0, 4)), dtype=np.int64
        ).reshape(-1, 4)
        if self._cols:
            sched = np.array(self._cols, dtype=np.uint8)
        else:
            sched = np.zeros((0, self.period), dtype=np.uint8)
        return StimulusPlan(
            n_words=self.n_words,
            period=self.period,
            ops=ops,
            row_nets=self._row_nets,
            sched=sched,
            rng=rng,
        )
