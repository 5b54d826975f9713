"""Native fused-kernel execution of compiled gate programs.

The :class:`~repro.netlist.compile.CompiledSimulator` still pays one numpy
dispatch per cell type per level per cycle -- interpreter overhead that
dominates when the word count is small (a 64-lane block is a single
uint64 word).  This module goes the rest of the way: it generates C
source from a :class:`~repro.netlist.compile.GateProgram`'s levelized
dispatch table -- every op group becomes a plain ``for`` loop over baked
static index arrays -- compiles it to a shared object with the system C
compiler, and drives the **entire multi-cycle simulation in one foreign
call** through ``cffi``'s ``ffi.dlopen``.

Lane words are embarrassingly parallel: every per-word quantity (gate
outputs, register state, constants, recorded words) depends only on its
own word column, so the kernel splits the word range across an internal
pthread pool with zero synchronization inside a cycle.  Thread-level
parallelism inside one call sidesteps the process fork/pickle overhead
that made the process-pool executor *slower* than serial on small hosts
(``BENCH_parallel.json``'s historical 0.8x).

Build products are cached twice: compiled ``.so`` files on disk keyed by
a content digest of the generated source (itself derived from the
program's content hash, so the existing program cache keying carries
over -- full programs by netlist hash, cone slices by slice key), and
``dlopen`` handles in a bounded per-process :class:`~repro.memo.Memo`
exposed through :func:`native_kernel_cache_info` and the service
``/metrics`` endpoint.

:class:`NativeSimulator` is a drop-in replacement for
:class:`CompiledSimulator` -- same constructor shape (including
``keep_nets`` cone slicing), same ``run`` contract, same
:class:`~repro.netlist.simulate.Trace` output, **bit-identical** words.
Construction raises :class:`~repro.errors.SimulationError` when no C
toolchain (or ``cffi``) is available; callers degrade down the
:mod:`repro.engines` ladder (native -> compiled -> bitsliced) and record
the degradation.  Set ``REPRO_NATIVE_DISABLE=1`` to force the
unavailable leg (CI's no-toolchain job).
"""

from __future__ import annotations

import hashlib
import operator
import os
import shutil
import subprocess
import tempfile
import threading
from time import perf_counter
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.memo import Memo
from repro.netlist.cells import CellType
from repro.netlist.compile import GateProgram, compile_netlist
from repro.netlist.core import Netlist
from repro.netlist.simulate import Stimulus, Trace, words_for_lanes

__all__ = [
    "NativeSimulator",
    "NativeScheduledSimulator",
    "CountSpec",
    "native_available",
    "native_unavailable_reason",
    "native_default_threads",
    "pipeline_available",
    "pipeline_unavailable_reason",
    "generate_kernel_source",
    "build_kernel",
    "build_pipeline_kernel",
    "native_kernel_cache_info",
    "clear_native_kernel_cache",
    "NativeKernelCacheInfo",
]

#: Bumping this invalidates every cached kernel (source digest changes).
_CODEGEN_VERSION = 3

#: Version of the generic pipeline-support kernel (PCG64 stimulus
#: generation, fused extraction/histogram, scheduled-cone interpreter).
_PIPELINE_VERSION = 2

#: Upper bound on kernel threads (also baked into the C thread arrays).
_MAX_THREADS = 64

#: Words simulated per cache tile.  The kernel runs the whole multi-cycle
#: simulation tile-by-tile against a compact ``n_rows x TILE`` state
#: buffer: word columns are fully independent, so a narrow tile keeps the
#: entire working set (~n_rows * 32 bytes) inside L2 while the constant
#: stride lets the compiler unroll and vectorize every gate loop.
_TILE_WORDS = 4

_CDEF = """
int repro_run(const uint64_t *stim, uint64_t *rec,
              const int64_t *rec_rows, int64_t n_rec,
              const int64_t *rec_slot, int64_t n_cycles,
              int64_t n_words, int64_t n_threads);
"""

_PIPE_CDEF = """
int repro_stimgen(uint64_t *stim, int64_t n_slots,
    const int64_t *ops, int64_t n_ops,
    const int64_t *row_slot, int64_t n_rows,
    const uint8_t *sched, int64_t period,
    uint64_t state_hi, uint64_t state_lo,
    uint64_t inc_hi, uint64_t inc_lo,
    int64_t n_cycles, int64_t nw);
int repro_extract(const uint64_t *rec, int64_t nw, int64_t n_lanes,
    const int64_t *test_off, int64_t n_tests,
    const int64_t *seg_off,
    const int64_t *bit_plane, const int64_t *bit_pos,
    const uint8_t *hashed, const int64_t *cnt_off,
    int64_t hash_shift, int64_t *counts,
    uint64_t *keybuf, int64_t n_threads);
int repro_sched_run(const uint64_t *stim, uint64_t *rec,
    const int64_t *rec_net, int64_t n_rec, const int64_t *rec_slot,
    const int64_t *in_off, const int64_t *in_slot, const int64_t *in_net,
    const int64_t *chk_off, const int64_t *chk_slot,
    const uint8_t *chk_bit,
    const int64_t *rd_off, const int64_t *rd_net, const int64_t *rd_reg,
    const int64_t *cap_off, const int64_t *cap_net,
    const int64_t *cap_reg,
    const int64_t *op_off, const int64_t *op_code, const int64_t *op_out,
    const int64_t *op_a, const int64_t *op_b, const int64_t *op_c,
    const int64_t *const1, int64_t n_const1,
    int64_t n_nets, int64_t n_dffs, int64_t n_slots,
    int64_t n_cycles, int64_t nw, int64_t n_threads);
"""

# ------------------------------------------------------------ availability


def _find_cc() -> Optional[str]:
    """The C compiler to use, or None when no toolchain is on PATH."""
    env_cc = os.environ.get("CC")
    if env_cc:
        return shutil.which(env_cc) or None
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def native_unavailable_reason() -> Optional[str]:
    """None when the native engine can build kernels, else why not."""
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return "native engine disabled via REPRO_NATIVE_DISABLE"
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "cffi is not installed"
    if _find_cc() is None:
        return "no C compiler found (checked $CC, cc, gcc, clang)"
    return None


def native_available() -> bool:
    """True when kernels can be generated, compiled and loaded."""
    return native_unavailable_reason() is None


def native_default_threads(n_words: Optional[int] = None) -> int:
    """Kernel thread-pool width: ``REPRO_NATIVE_THREADS`` or cpu count,
    clamped to the work available.

    Passing ``n_words`` (the simulated word count, i.e. lanes / 64)
    additionally clamps to the number of ``_TILE_WORDS``-word tiles, so
    a narrow block never spawns more threads than it has independent
    word tiles -- and the cpu-count default never spawns more threads
    than cores (``BENCH_native.json`` showed 2 threads slower than 1 on
    a 1-core host).  The kernel itself re-clamps to the tile count, so
    an explicit oversubscribed value degrades gracefully either way.
    """
    env = os.environ.get("REPRO_NATIVE_THREADS")
    base = None
    if env:
        try:
            base = max(1, min(int(env), _MAX_THREADS))
        except ValueError:
            base = None
    if base is None:
        base = max(1, min(os.cpu_count() or 1, _MAX_THREADS))
    if n_words is not None and n_words > 0:
        n_tiles = (int(n_words) + _TILE_WORDS - 1) // _TILE_WORDS
        base = min(base, n_tiles)
    return max(1, base)


# ------------------------------------------------------- state-slot plan


class RowPlan(NamedTuple):
    """Kernel state-slot assignment for one program.

    ``slot_of[row]`` maps a program state row to its kernel slot (``-1``
    for rows the kernel never touches); ``pinned[row]`` marks rows whose
    slot is exclusive for the whole cycle -- only those are recordable.
    ``orders[g]`` is the emission permutation of op group ``g``: cells
    within a level are mutually independent, so each group is reordered
    by the definition recency of its first operand, which clusters loads
    on recently-written (cache-hot) slots.  The liveness allocation below
    is computed over this same order, so slot reuse stays sound.
    """

    slot_of: np.ndarray
    pinned: np.ndarray
    n_slots: int
    orders: tuple


#: Row plans, keyed by (program content hash, pin-set digest).
_ROW_PLANS = Memo(32)


def _compute_row_plan(
    program: GateProgram, pinned_rows: Optional[np.ndarray]
) -> RowPlan:
    """Liveness-based slot reuse over the levelized cell schedule.

    The full AES core holds ~21k nets but only ~3k are *stable*
    (probeable); the remaining intermediate rows are written and fully
    consumed within a handful of levels.  Pinning inputs, constants,
    register rows and the caller's recordable rows while recycling every
    other row through a LIFO free stack shrinks the per-tile working set
    by several fold -- the hot top-of-stack slots stay L1-resident
    instead of streaming the whole state array through L2 every level.

    Reuse is safe because the schedule is identical every cycle and
    levelization guarantees def-before-use: a non-pinned row's live
    range is ``[def, last read]`` inside a single cycle, and nothing
    reads it across the cycle boundary (records and register captures
    only touch pinned rows).  ``pinned_rows=None`` pins everything
    (identity-equivalent plan, every row recordable).
    """
    n = program.n_state_rows
    pinned = np.zeros(max(n, 1), dtype=bool)
    if pinned_rows is None:
        pinned[:] = True
    else:
        if pinned_rows.size:
            pinned[pinned_rows] = True
        if program.input_nets:
            pinned[
                [program.state_row(pi) for pi in program.input_nets]
            ] = True
        if program.const1.size:
            pinned[program.const1] = True
        if program.dff_d.size:
            pinned[program.dff_d] = True
            pinned[program.dff_q] = True

    # Definition position of every row in the unsorted schedule, used as
    # the in-level sort key (see RowPlan.orders).
    def_pos = np.full(max(n, 1), -1, dtype=np.int64)
    pos = 0
    for op in program.ops:
        for j in range(op.n_cells):
            def_pos[op.out[j]] = pos
            pos += 1
    orders = tuple(
        np.argsort(def_pos[op.in0], kind="stable") for op in program.ops
    )

    outs: List[int] = []
    reads: List[List[int]] = []
    for op, order in zip(program.ops, orders):
        in1 = op.in1 if op.in1.size else None
        in2 = op.in2 if op.in2.size else None
        for j in order:
            outs.append(int(op.out[j]))
            cell_reads = [int(op.in0[j])]
            if in1 is not None:
                cell_reads.append(int(in1[j]))
            if in2 is not None:
                cell_reads.append(int(in2[j]))
            reads.append(cell_reads)

    written = np.zeros(max(n, 1), dtype=bool)
    if outs:
        written[outs] = True
    last_read = np.full(max(n, 1), -1, dtype=np.int64)
    for pos, cell_reads in enumerate(reads):
        for row in cell_reads:
            last_read[row] = pos
            if not written[row]:
                # Read-but-never-driven rows must keep their zeroed slot.
                pinned[row] = True

    slot_of = np.full(max(n, 1), -1, dtype=np.int64)
    released = np.zeros(max(n, 1), dtype=bool)
    free: List[int] = []
    next_slot = 0
    for pos, (out, cell_reads) in enumerate(zip(outs, reads)):
        for row in cell_reads:
            if (
                not pinned[row]
                and last_read[row] == pos
                and not released[row]
            ):
                released[row] = True
                free.append(int(slot_of[row]))
        if not pinned[out]:
            slot_of[out] = free.pop() if free else next_slot
            if slot_of[out] == next_slot:
                next_slot += 1
            released[out] = False
            if last_read[out] < 0:  # dead store: slot reusable right away
                released[out] = True
                free.append(int(slot_of[out]))

    # Pinned rows follow the reusable region, ordered for streaming
    # writes: inputs, constants, register restores, then gate outputs in
    # schedule order, register captures, and finally undriven reads.
    order: List[int] = []
    order.extend(program.state_row(pi) for pi in program.input_nets)
    order.extend(int(r) for r in program.const1)
    order.extend(int(r) for r in program.dff_q)
    order.extend(out for out in outs if pinned[out])
    order.extend(int(r) for r in program.dff_d)
    order.extend(
        row for cell_reads in reads for row in cell_reads if pinned[row]
    )
    base = next_slot
    for row in order:
        row = int(row)
        if pinned[row] and slot_of[row] < 0:
            slot_of[row] = base
            base += 1
    for row in np.nonzero(pinned & (slot_of < 0))[0]:
        slot_of[row] = base
        base += 1
    return RowPlan(
        slot_of=slot_of, pinned=pinned, n_slots=int(base), orders=orders
    )


def _row_plan(
    program: GateProgram,
    pinned_rows: Optional[Iterable[int]] = None,
) -> RowPlan:
    """Memoized :func:`_compute_row_plan` (keyed on program + pin set)."""
    if pinned_rows is None:
        arr = None
        pin_key = "all"
    else:
        arr = np.unique(np.asarray(list(pinned_rows), dtype=np.int64))
        pin_key = hashlib.sha256(arr.tobytes()).hexdigest()[:16]
    key = (program.content_hash, pin_key)
    plan = _ROW_PLANS.get(key)
    if plan is None:
        plan = _compute_row_plan(program, arr)
        _ROW_PLANS.put(key, plan)
    return plan


# ---------------------------------------------------------------- codegen

#: cell type -> C expression over a[w] / b[w] / c[w] (in0/in1/in2).
_CELL_EXPR = {
    CellType.BUF: "a[w]",
    CellType.NOT: "~a[w]",
    CellType.AND: "a[w] & b[w]",
    CellType.NAND: "~(a[w] & b[w])",
    CellType.OR: "a[w] | b[w]",
    CellType.NOR: "~(a[w] | b[w])",
    CellType.XOR: "a[w] ^ b[w]",
    CellType.XNOR: "~(a[w] ^ b[w])",
    CellType.MUX: "(b[w] & ~a[w]) | (c[w] & a[w])",
}


def _emit_array(name: str, values: np.ndarray) -> str:
    body = ",".join(str(int(v)) for v in values)
    return f"static const int64_t {name}[] = {{{body}}};\n"


def generate_kernel_source(
    program: GateProgram, plan: Optional[RowPlan] = None
) -> str:
    """C source for one program: baked indices, fused cycle loop, pthreads.

    The kernel replicates :meth:`CompiledSimulator.run`'s cycle semantics
    exactly: stimulus into input rows, register outputs from captured
    state, level-major combinational ops, record at filter cycles,
    register capture -- with ``const1`` rows preset to all-ones.  Stimulus
    is pre-expanded by the caller to a dense
    ``(n_cycles, n_inputs, n_words)`` array so the whole run is one call.

    Execution is tiled: word columns are mutually independent, so the
    kernel replays the full cycle loop once per ``TILE``-word tile
    against a compact ``n_slots x TILE`` local state whose working set
    stays cache-resident; a partial last tile pads to ``TILE`` and simply
    never stores the pad columns.

    ``plan`` is the :class:`RowPlan` mapping program state rows to
    kernel slots (liveness-compacted; see :func:`_compute_row_plan`).
    ``None`` pins every row -- slot assignment is then a locality
    permutation and every row stays recordable.  Runtime ``rec_rows``
    passed to the kernel must already be kernel slots.
    """
    if plan is None:
        plan = _row_plan(program)

    def slots(rows: Iterable[int]) -> np.ndarray:
        mapped = plan.slot_of[np.asarray(list(rows), dtype=np.int64)]
        if mapped.size and int(mapped.min()) < 0:
            raise SimulationError(
                "internal: row plan left a referenced row unallocated"
            )
        return mapped

    lines: List[str] = []
    emit = lines.append
    emit(f"/* repro native kernel v{_CODEGEN_VERSION} for program "
         f"{program.content_hash} */\n")
    emit("#include <stdint.h>\n#include <stdlib.h>\n"
         "#include <string.h>\n#include <pthread.h>\n\n")

    n_in = len(program.input_nets)
    n_dff = int(program.dff_q.size)
    n_rows = max(plan.n_slots, 1)
    emit(f"#define N_IN {n_in}\n#define N_DFF {n_dff}\n"
         f"#define N_ROWS {n_rows}\n#define TILE {_TILE_WORDS}\n\n")
    if n_in:
        # Rows are state rows (slices remap net ids to compact rows).
        emit(_emit_array(
            "IN_ROWS",
            slots(program.state_row(pi) for pi in program.input_nets),
        ))
    if program.const1.size:
        emit(_emit_array("C1_ROWS", slots(program.const1)))
    if n_dff:
        emit(_emit_array("DFF_D", slots(program.dff_d)))
        emit(_emit_array("DFF_Q", slots(program.dff_q)))
    for g, op in enumerate(program.ops):
        # Emit each group through the plan's in-level permutation: cells
        # within a level are independent, and ordering them by operand
        # definition recency keeps hot slots in cache.  The liveness
        # allocation above was computed over this same order.
        order = plan.orders[g]
        emit(_emit_array(f"OP{g}_O", slots(op.out[order])))
        emit(_emit_array(f"OP{g}_A", slots(op.in0[order])))
        if op.in1.size:
            emit(_emit_array(f"OP{g}_B", slots(op.in1[order])))
        if op.in2.size:
            emit(_emit_array(f"OP{g}_C", slots(op.in2[order])))
    emit("\n")

    emit("static int run_range(const uint64_t *stim,\n"
         "    uint64_t *rec, const int64_t *rec_rows, int64_t n_rec,\n"
         "    const int64_t *rec_slot, int64_t n_cycles, int64_t nw,\n"
         "    int64_t w0, int64_t w1)\n{\n"
         "    int64_t c, i, k, t0;\n"
         "    uint64_t *loc = (uint64_t *)malloc(\n"
         "        (size_t)N_ROWS * TILE * sizeof(uint64_t));\n"
         "    if (!loc) return 1;\n")
    if n_dff:
        emit("    uint64_t *reg = (uint64_t *)malloc(\n"
             "        (size_t)(N_DFF ? N_DFF : 1) * TILE"
             " * sizeof(uint64_t));\n"
             "    if (!reg) { free(loc); return 1; }\n")
    emit("    for (t0 = w0; t0 < w1; t0 += TILE) {\n"
         "        int64_t tw = w1 - t0 < TILE ? w1 - t0 : TILE;\n"
         "        memset(loc, 0, (size_t)N_ROWS * TILE"
         " * sizeof(uint64_t));\n")
    if program.const1.size:
        emit(f"        for (i = 0; i < {int(program.const1.size)}; ++i) {{\n"
             "            uint64_t *d = loc + (size_t)C1_ROWS[i] * TILE;\n"
             "            for (k = 0; k < TILE; ++k) d[k] = ~(uint64_t)0;\n"
             "        }\n")
    if n_dff:
        emit("        memset(reg, 0, (size_t)N_DFF * TILE"
             " * sizeof(uint64_t));\n")
    emit("        for (c = 0; c < n_cycles; ++c) {\n")
    if n_in:
        emit("            const uint64_t *sc = stim"
             " + (size_t)c * N_IN * nw + t0;\n"
             "            for (i = 0; i < N_IN; ++i) {\n"
             "                const uint64_t *s = sc + (size_t)i * nw;\n"
             "                uint64_t *d = loc + (size_t)IN_ROWS[i] * TILE;\n"
             "                for (k = 0; k < tw; ++k) d[k] = s[k];\n"
             "            }\n")
    if n_dff:
        emit("            for (i = 0; i < N_DFF; ++i) {\n"
             "                uint64_t *d = loc + (size_t)DFF_Q[i] * TILE;\n"
             "                const uint64_t *r = reg + (size_t)i * TILE;\n"
             "                for (k = 0; k < TILE; ++k) d[k] = r[k];\n"
             "            }\n")
    for g, op in enumerate(program.ops):
        expr = _CELL_EXPR.get(op.cell_type)
        if expr is None:  # pragma: no cover - compile_netlist never emits
            raise SimulationError(
                f"cell type {op.cell_type} has no native lowering"
            )
        emit(f"            for (i = 0; i < {op.n_cells}; ++i) {{\n"
             f"                uint64_t *o = loc"
             f" + (size_t)OP{g}_O[i] * TILE;\n"
             f"                const uint64_t *a = loc"
             f" + (size_t)OP{g}_A[i] * TILE;\n")
        if op.in1.size:
            emit(f"                const uint64_t *b = loc"
                 f" + (size_t)OP{g}_B[i] * TILE;\n")
        if op.in2.size:
            emit(f"                const uint64_t *c_ = loc"
                 f" + (size_t)OP{g}_C[i] * TILE;\n")
        emit("                for (k = 0; k < TILE; ++k) "
             f"o[k] = {expr.replace('c[w]', 'c_[w]').replace('[w]', '[k]')};\n"
             "            }\n")
    emit("            if (n_rec > 0 && rec_slot[c] >= 0) {\n"
         "                int64_t slot = rec_slot[c];\n"
         "                for (i = 0; i < n_rec; ++i) {\n"
         "                    const uint64_t *s = loc\n"
         "                        + (size_t)rec_rows[i] * TILE;\n"
         "                    uint64_t *d = rec\n"
         "                        + ((size_t)slot * n_rec + (size_t)i) * nw"
         " + t0;\n"
         "                    for (k = 0; k < tw; ++k) d[k] = s[k];\n"
         "                }\n"
         "            }\n")
    if n_dff:
        emit("            for (i = 0; i < N_DFF; ++i) {\n"
             "                const uint64_t *s = loc"
             " + (size_t)DFF_D[i] * TILE;\n"
             "                uint64_t *r = reg + (size_t)i * TILE;\n"
             "                for (k = 0; k < TILE; ++k) r[k] = s[k];\n"
             "            }\n")
    emit("        }\n    }\n")
    if n_dff:
        emit("    free(reg);\n")
    emit("    free(loc);\n    return 0;\n}\n\n")

    emit(
        "typedef struct {\n"
        "    const uint64_t *stim; uint64_t *rec;\n"
        "    const int64_t *rec_rows; int64_t n_rec;\n"
        "    const int64_t *rec_slot; int64_t n_cycles; int64_t nw;\n"
        "    int64_t w0; int64_t w1; int status;\n"
        "} knl_job;\n\n"
        "static void *knl_worker(void *arg)\n{\n"
        "    knl_job *j = (knl_job *)arg;\n"
        "    j->status = run_range(j->stim, j->rec, j->rec_rows,\n"
        "        j->n_rec, j->rec_slot, j->n_cycles, j->nw, j->w0, j->w1);\n"
        "    return 0;\n}\n\n"
        "int repro_run(const uint64_t *stim, uint64_t *rec,\n"
        "    const int64_t *rec_rows, int64_t n_rec,\n"
        "    const int64_t *rec_slot, int64_t n_cycles, int64_t nw,\n"
        "    int64_t n_threads)\n{\n"
        f"    knl_job jobs[{_MAX_THREADS}];\n"
        f"    pthread_t tids[{_MAX_THREADS}];\n"
        f"    int created[{_MAX_THREADS}];\n"
        "    int64_t n_tiles, chunk, t, spawned = 0;\n"
        "    int status = 0;\n"
        "    n_tiles = (nw + TILE - 1) / TILE;\n"
        "    if (n_threads < 1) n_threads = 1;\n"
        "    if (n_threads > n_tiles) n_threads = n_tiles;\n"
        f"    if (n_threads > {_MAX_THREADS}) n_threads = {_MAX_THREADS};\n"
        "    if (n_threads <= 1)\n"
        "        return run_range(stim, rec, rec_rows, n_rec,\n"
        "            rec_slot, n_cycles, nw, 0, nw);\n"
        "    chunk = (n_tiles + n_threads - 1) / n_threads;\n"
        "    for (t = 0; t < n_threads; ++t) {\n"
        "        int64_t a = t * chunk * TILE, b = a + chunk * TILE;\n"
        "        if (a >= nw) break;\n"
        "        if (b > nw) b = nw;\n"
        "        jobs[spawned].stim = stim;\n"
        "        jobs[spawned].rec = rec;\n"
        "        jobs[spawned].rec_rows = rec_rows;\n"
        "        jobs[spawned].n_rec = n_rec;\n"
        "        jobs[spawned].rec_slot = rec_slot;\n"
        "        jobs[spawned].n_cycles = n_cycles;\n"
        "        jobs[spawned].nw = nw;\n"
        "        jobs[spawned].w0 = a; jobs[spawned].w1 = b;\n"
        "        jobs[spawned].status = 0;\n"
        "        ++spawned;\n"
        "    }\n"
        "    for (t = 1; t < spawned; ++t) {\n"
        "        created[t] = pthread_create(&tids[t], 0, knl_worker,\n"
        "            &jobs[t]) == 0;\n"
        "        if (!created[t])\n"
        "            knl_worker(&jobs[t]); /* degrade to inline */\n"
        "    }\n"
        "    knl_worker(&jobs[0]);\n"
        "    for (t = 1; t < spawned; ++t)\n"
        "        if (created[t]) pthread_join(tids[t], 0);\n"
        "    for (t = 0; t < spawned; ++t)\n"
        "        if (jobs[t].status) status = jobs[t].status;\n"
        "    return status;\n}\n"
    )
    return "".join(lines)


# ------------------------------------------------------- build + caching


class NativeKernelCacheInfo(NamedTuple):
    """Snapshot of the per-process loaded-kernel cache."""

    entries: int
    capacity: int
    hits: int
    misses: int
    builds: int


class _LoadedKernel(NamedTuple):
    lib: object
    so_path: str
    digest: str


#: dlopen'ed kernels, keyed by source digest.  Evicted entries are only
#: dereferenced (never dlclosed): a live simulator may still hold the
#: lib, and the handle count is bounded by the cache capacity anyway.
_KERNEL_CACHE = Memo(32)

#: Serializes compiler runs and dlopen calls: a build writes files named
#: by digest and process id, which two threads must not share.
_KERNEL_LOCK = threading.Lock()

#: Compiler runs since the last clear; changed only under _KERNEL_LOCK.
_CC_BUILDS = 0
_FFI = None


def native_kernel_cache_info() -> NativeKernelCacheInfo:
    """Entries, capacity and lifetime hit/miss/build counts."""
    memo = _KERNEL_CACHE.info()
    return NativeKernelCacheInfo(
        entries=memo.entries,
        capacity=memo.capacity,
        hits=memo.hits,
        misses=memo.misses,
        builds=_CC_BUILDS,
    )


def clear_native_kernel_cache() -> None:
    """Drop loaded-kernel references and reset statistics (tests)."""
    global _CC_BUILDS
    _KERNEL_CACHE.clear()
    with _KERNEL_LOCK:
        _CC_BUILDS = 0


def _ffi():
    global _FFI
    if _FFI is None:
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(_CDEF)
        _FFI = ffi
    return _FFI


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_NATIVE_CACHE")
    if configured:
        path = configured
    else:
        path = os.path.join(
            os.path.expanduser("~"), ".cache", "repro-native"
        )
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        fallback = os.path.join(tempfile.gettempdir(), "repro-native")
        os.makedirs(fallback, exist_ok=True)
        return fallback


#: Whether the toolchain accepts ``-march=native`` (probed once; the
#: flag unlocks SIMD on the gate loops but is not universally supported).
_MARCH_NATIVE: Optional[bool] = None


def _cc_flags(cc: str) -> List[str]:
    global _MARCH_NATIVE
    flags = ["-O3", "-shared", "-fPIC", "-pthread"]
    if _MARCH_NATIVE is None:
        probe = os.path.join(
            tempfile.gettempdir(), f".repro-march-{os.getpid()}.c"
        )
        probe_so = probe[:-2] + ".so"
        try:
            with open(probe, "w") as handle:
                handle.write("int repro_probe(void){return 0;}\n")
            result = subprocess.run(
                [cc, "-march=native", *flags, "-o", probe_so, probe],
                capture_output=True, timeout=60,
            )
            _MARCH_NATIVE = result.returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            _MARCH_NATIVE = False
        finally:
            for path in (probe, probe_so):
                try:
                    os.unlink(path)
                except OSError:
                    pass
    return (["-march=native"] if _MARCH_NATIVE else []) + flags


def _compile_source(source: str, digest: str, cc: str,
                    flags: List[str]) -> str:
    """Compile generated C to a shared object; returns the .so path.

    The on-disk artifact is keyed by the source+flags digest so
    concurrent worker processes share builds; writes go to a temp name
    and move into place atomically, so a racing builder at worst
    compiles twice.  Callers hold ``_KERNEL_LOCK``.
    """
    global _CC_BUILDS
    directory = _cache_dir()
    so_path = os.path.join(directory, f"k_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    c_path = os.path.join(directory, f"k_{digest}.c")
    tmp_so = os.path.join(directory, f".k_{digest}.{os.getpid()}.so")
    with open(c_path, "w") as handle:
        handle.write(source)
    cmd = [cc, *flags, "-o", tmp_so, c_path]
    try:
        result = subprocess.run(
            cmd, capture_output=True, text=True, timeout=600
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise SimulationError(
            f"native kernel build failed to invoke {cc}: {exc}"
        ) from exc
    if result.returncode != 0:
        tail = (result.stderr or result.stdout or "").strip()[-2000:]
        raise SimulationError(
            f"native kernel build failed (exit {result.returncode}): {tail}"
        )
    os.replace(tmp_so, so_path)
    _CC_BUILDS += 1
    return so_path


def build_kernel(
    program: GateProgram, plan: Optional[RowPlan] = None
) -> _LoadedKernel:
    """Generate, compile (or reuse) and dlopen the kernel for a program.

    ``plan`` selects the state-slot assignment (default: pin-all).
    Raises :class:`SimulationError` when the toolchain is missing, the
    compile fails, or the engine is disabled via ``REPRO_NATIVE_DISABLE``.
    """
    reason = native_unavailable_reason()
    if reason is not None:
        raise SimulationError(f"native engine unavailable: {reason}")
    cc = _find_cc()
    if cc is None:  # pragma: no cover - already covered by the reason check
        raise SimulationError("native kernel build failed: no C compiler")
    flags = _cc_flags(cc)
    source = generate_kernel_source(program, plan)
    digest = hashlib.sha256(
        (source + "\0" + " ".join(flags)).encode()
    ).hexdigest()[:20]
    kernel = _KERNEL_CACHE.get(digest)
    if kernel is not None:
        return kernel
    with _KERNEL_LOCK:
        so_path = _compile_source(source, digest, cc, flags)
        try:
            lib = _ffi().dlopen(so_path)
        except OSError as exc:
            raise SimulationError(
                f"native kernel dlopen failed for {so_path}: {exc}"
            ) from exc
    kernel = _LoadedKernel(lib=lib, so_path=so_path, digest=digest)
    _KERNEL_CACHE.put(digest, kernel)
    return kernel


# ------------------------------------------------------ pipeline kernel

#: CellType -> opcode of the generic scheduled-cone interpreter.
_CELL_CODE = {
    CellType.BUF: 0,
    CellType.NOT: 1,
    CellType.AND: 2,
    CellType.NAND: 3,
    CellType.OR: 4,
    CellType.NOR: 5,
    CellType.XOR: 6,
    CellType.XNOR: 7,
    CellType.MUX: 8,
}


def _pipeline_source() -> str:
    """C source of the netlist-independent pipeline-support kernel.

    One shared object, compiled once per toolchain, provides:

    ``repro_stimgen``
        Interprets a :class:`repro.leakage.stimplan.StimulusPlan` op
        stream against an embedded PCG64 generator that replicates
        numpy's bit generator word for word (128-bit LCG step, then
        XSL-RR output of the *new* state), filling the dense stimulus
        buffer the simulation kernels consume.  ``NZ8`` reproduces
        :func:`repro.leakage.traces.random_nonzero_byte` exactly,
        including the merge order and the give-up-after-64-rounds
        failure (status 2) without a final recheck.

    ``repro_extract``
        Fused bit-plane extraction + histogram accumulation: builds
        per-lane observation keys from recorded (cycle, net) planes
        (bit ``b`` of word ``w`` is lane ``w*64+b``), optionally
        SplitMix64-bucketed exactly like ``_mix_hash``, and bumps dense
        per-test count tables.  Pad lanes beyond ``n_lanes`` are never
        counted.  Threaded over tests (disjoint count rows).

    ``repro_sched_run``
        Data-driven interpreter for per-cycle scheduled cones
        (:class:`repro.netlist.slice.ScheduledSimulator` semantics:
        validate scheduled nets against their declared constants, drive
        needed inputs, restore registers, run the level-major active
        ops, record roots, capture next-cycle registers), tiled and
        threaded over word columns like the generated static kernels.

    Requires ``__uint128_t``; on toolchains without it the build fails
    and the pipeline degrades to the Python path (the static native
    kernels are unaffected).
    """
    tile = _TILE_WORDS
    return f"""/* repro native pipeline support v{_PIPELINE_VERSION} */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <pthread.h>

#define TILE {tile}
#define MAXT {_MAX_THREADS}

typedef __uint128_t u128;
typedef struct {{ u128 state; u128 inc; }} pcg64_t;

/* numpy PCG64: state = state * MUL + inc, output XSL-RR of new state */
static uint64_t pcg64_next(pcg64_t *g)
{{
    uint64_t hi, lo, x;
    unsigned rot;
    g->state = g->state
        * (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)
        + g->inc;
    hi = (uint64_t)(g->state >> 64);
    lo = (uint64_t)g->state;
    x = hi ^ lo;
    rot = (unsigned)(hi >> 58);
    return (x >> rot) | (x << ((64 - rot) & 63));
}}

int repro_stimgen(uint64_t *stim, int64_t n_slots,
    const int64_t *ops, int64_t n_ops,
    const int64_t *row_slot, int64_t n_rows,
    const uint8_t *sched, int64_t period,
    uint64_t state_hi, uint64_t state_lo,
    uint64_t inc_hi, uint64_t inc_lo,
    int64_t n_cycles, int64_t nw)
{{
    pcg64_t g;
    uint64_t **rowp;
    uint64_t *scratch, *zmask;
    int64_t c, r, o, w;
    int i;
    g.state = ((u128)state_hi << 64) | state_lo;
    g.inc = ((u128)inc_hi << 64) | inc_lo;
    if (n_rows < 1 || n_ops < 1)
        return 0;
    scratch = (uint64_t *)malloc((size_t)n_rows * nw * sizeof(uint64_t));
    rowp = (uint64_t **)malloc((size_t)n_rows * sizeof(uint64_t *));
    zmask = (uint64_t *)malloc((size_t)nw * sizeof(uint64_t));
    if (!scratch || !rowp || !zmask) {{
        free(scratch); free(rowp); free(zmask);
        return 1;
    }}
    for (c = 0; c < n_cycles; ++c) {{
        int64_t step = c % period;
        for (r = 0; r < n_rows; ++r)
            rowp[r] = row_slot[r] >= 0
                ? stim + ((size_t)c * n_slots + row_slot[r]) * nw
                : scratch + (size_t)r * nw;
        for (o = 0; o < n_ops; ++o) {{
            int64_t code = ops[4 * o], dst = ops[4 * o + 1];
            int64_t a = ops[4 * o + 2], b = ops[4 * o + 3];
            uint64_t *d = rowp[dst];
            uint64_t v;
            switch (code) {{
            case 0: /* DRAW */
                for (w = 0; w < nw; ++w) d[w] = pcg64_next(&g);
                break;
            case 1: /* CONST col=a */
                v = sched[(size_t)a * period + step] ? ~(uint64_t)0 : 0;
                for (w = 0; w < nw; ++w) d[w] = v;
                break;
            case 2: /* COPY a */
                memcpy(d, rowp[a], (size_t)nw * sizeof(uint64_t));
                break;
            case 3: /* XOR a b */
                for (w = 0; w < nw; ++w) d[w] = rowp[a][w] ^ rowp[b][w];
                break;
            case 4: /* XORC a col=b */
                v = sched[(size_t)b * period + step] ? ~(uint64_t)0 : 0;
                for (w = 0; w < nw; ++w) d[w] = rowp[a][w] ^ v;
                break;
            case 5: {{ /* NZ8 rows dst..dst+7 */
                uint64_t *pl[8];
                int64_t round_;
                int ok = 0;
                for (i = 0; i < 8; ++i) pl[i] = rowp[dst + i];
                for (i = 0; i < 8; ++i)
                    for (w = 0; w < nw; ++w) pl[i][w] = pcg64_next(&g);
                for (round_ = 0; round_ < 64; ++round_) {{
                    uint64_t any = 0;
                    for (w = 0; w < nw; ++w) {{
                        uint64_t zm = ~(pl[0][w] | pl[1][w] | pl[2][w]
                            | pl[3][w] | pl[4][w] | pl[5][w]
                            | pl[6][w] | pl[7][w]);
                        zmask[w] = zm;
                        any |= zm;
                    }}
                    if (!any) {{ ok = 1; break; }}
                    for (i = 0; i < 8; ++i)
                        for (w = 0; w < nw; ++w)
                            pl[i][w] |= pcg64_next(&g) & zmask[w];
                }}
                if (!ok) {{
                    free(scratch); free(rowp); free(zmask);
                    return 2;
                }}
                break;
            }}
            default:
                free(scratch); free(rowp); free(zmask);
                return 4;
            }}
        }}
    }}
    free(scratch); free(rowp); free(zmask);
    return 0;
}}

/* SplitMix64 finalizer; must match repro.leakage.evaluator._mix_hash. */
static uint64_t mix64(uint64_t k)
{{
    k ^= k >> 30;
    k *= 0xBF58476D1CE4E5B9ULL;
    k ^= k >> 27;
    k *= 0x94D049BB133111EBULL;
    k ^= k >> 31;
    return k;
}}

typedef struct {{
    const uint64_t *rec;
    int64_t nw, n_lanes;
    const int64_t *test_off, *seg_off, *bit_plane, *bit_pos;
    const uint8_t *hashed;
    const int64_t *cnt_off;
    int64_t hash_shift, t0, t1;
    int64_t *counts;
    uint64_t *keys;
    int status;
}} ext_job;

/* In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3).  With
 * LSB-first bit numbering this flips along the anti-diagonal: after the
 * call, bit j of a[i] is the old bit (63-i) of a[63-j].  Callers index
 * rows as a[63-e] on load and a[63-b] on read to get the plain
 * transpose; the payoff is ~6*64 word ops per 64-lane block instead of
 * the 64*64 single-bit gathers of the scalar path. */
static void transpose64(uint64_t a[64])
{{
    int j, k;
    uint64_t m = 0x00000000FFFFFFFFULL, t;
    for (j = 32; j != 0; j = j >> 1, m = m ^ (m << j)) {{
        for (k = 0; k < 64; k = (k + j + 1) & ~j) {{
            t = (a[k] ^ (a[k | j] >> j)) & m;
            a[k] = a[k] ^ t;
            a[k | j] = a[k | j] ^ (t << j);
        }}
    }}
}}

/* A segment narrower than this is cheaper bit-by-bit than through the
 * 64x64 transpose (whose cost is flat in the bit count). */
#define EXT_TRANSPOSE_MIN_BITS 8

/* Widest segment handled by the popcount histogram: it enumerates all
 * 2^nbits key values, so its cost grows exponentially while the
 * transpose path stays flat. */
#define EXT_POPCOUNT_MAX_BITS 7

/* Histogram one 64-lane word block of an unhashed contiguous segment
 * without ever materializing per-lane keys: split the lane mask by each
 * bit plane in turn, so after nbits rounds m[k] holds exactly the lanes
 * whose key is k, and each bin count is one popcount. */
static void ext_pop_hist(const uint64_t *pw, int64_t nbits,
    uint64_t lanemask, int64_t *cnt)
{{
    uint64_t m[1 << EXT_POPCOUNT_MAX_BITS];
    int64_t size = 1, e, k;
    m[0] = lanemask;
    for (e = 0; e < nbits; ++e) {{
        for (k = size - 1; k >= 0; --k) {{
            uint64_t v = m[k];
            m[k + size] = v & pw[e];
            m[k] = v & ~pw[e];
        }}
        size <<= 1;
    }}
    for (k = 0; k < size; ++k)
        cnt[k] += (int64_t)__builtin_popcountll(m[k]);
}}

static void ext_range(ext_job *j)
{{
    int64_t t, s, e, w;
    uint64_t tr[64];
    const uint64_t *planes[64];
    int64_t pos[64];
    for (t = j->t0; t < j->t1; ++t) {{
        int64_t *cnt = j->counts + j->cnt_off[t];
        int hash = j->hashed[t];
        for (s = j->test_off[t]; s < j->test_off[t + 1]; ++s) {{
            int64_t s0 = j->seg_off[s], s1 = j->seg_off[s + 1];
            int64_t nbits = s1 - s0;
            int contiguous = nbits <= 64;
            for (e = s0; contiguous && e < s1; ++e)
                if (j->bit_pos[e] != e - s0) contiguous = 0;
            if (contiguous && !hash
                && nbits <= EXT_POPCOUNT_MAX_BITS
                && ((int64_t)1 << nbits)
                    <= j->cnt_off[t + 1] - j->cnt_off[t]) {{
                /* Narrow unhashed segments: the key space is small, so
                 * bin the lanes set-algebraically and popcount. */
                for (e = s0; e < s1; ++e)
                    planes[e - s0] =
                        j->rec + (size_t)j->bit_plane[e] * j->nw;
                for (w = 0; w < j->nw; ++w) {{
                    int64_t base = w * 64;
                    int64_t lim = j->n_lanes - base;
                    uint64_t lanemask;
                    if (lim > 64) lim = 64;
                    lanemask = lim == 64
                        ? ~(uint64_t)0
                        : (((uint64_t)1 << lim) - 1);
                    for (e = 0; e < nbits; ++e)
                        tr[e] = planes[e][w];
                    ext_pop_hist(tr, nbits, lanemask, cnt);
                }}
                continue;
            }}
            if (contiguous && nbits >= EXT_TRANSPOSE_MIN_BITS) {{
                /* Wide segments (the evaluators always emit contiguous
                 * positions 0..k-1): transpose each 64-lane block so
                 * the lane keys fall out whole. */
                for (w = 0; w < j->nw; ++w) {{
                    int64_t base = w * 64;
                    int64_t lim = j->n_lanes - base;
                    int b;
                    if (lim > 64) lim = 64;
                    for (e = 0; e < nbits; ++e)
                        tr[63 - e] = j->rec[
                            (size_t)j->bit_plane[s0 + e] * j->nw + w];
                    for (e = nbits; e < 64; ++e)
                        tr[63 - e] = 0;
                    transpose64(tr);
                    for (b = 0; b < lim; ++b) {{
                        uint64_t key = tr[63 - b];
                        if (hash) key = mix64(key) >> j->hash_shift;
                        cnt[key]++;
                    }}
                }}
                continue;
            }}
            if (nbits > 64) {{
                j->status = 5;
                return;
            }}
            /* Narrow or non-contiguous segments: fuse key assembly and
             * histogramming per 64-lane block -- the plane words stay
             * in L1 across the block and no per-lane key buffer is
             * touched. */
            for (e = s0; e < s1; ++e) {{
                planes[e - s0] =
                    j->rec + (size_t)j->bit_plane[e] * j->nw;
                pos[e - s0] = j->bit_pos[e];
            }}
            for (w = 0; w < j->nw; ++w) {{
                int64_t base = w * 64;
                int64_t lim = j->n_lanes - base;
                int b;
                if (lim > 64) lim = 64;
                for (b = 0; b < lim; ++b) {{
                    uint64_t key = 0;
                    for (e = 0; e < nbits; ++e)
                        key |= ((planes[e][w] >> b) & 1) << pos[e];
                    if (hash) key = mix64(key) >> j->hash_shift;
                    cnt[key]++;
                }}
            }}
        }}
    }}
    j->status = 0;
}}

static void *ext_worker(void *arg)
{{
    ext_range((ext_job *)arg);
    return 0;
}}

int repro_extract(const uint64_t *rec, int64_t nw, int64_t n_lanes,
    const int64_t *test_off, int64_t n_tests,
    const int64_t *seg_off,
    const int64_t *bit_plane, const int64_t *bit_pos,
    const uint8_t *hashed, const int64_t *cnt_off,
    int64_t hash_shift, int64_t *counts,
    uint64_t *keybuf, int64_t n_threads)
{{
    ext_job jobs[MAXT];
    pthread_t tids[MAXT];
    int created[MAXT];
    int64_t chunk, t, spawned = 0;
    int status = 0;
    if (n_tests < 1) return 0;
    if (n_threads < 1) n_threads = 1;
    if (n_threads > n_tests) n_threads = n_tests;
    if (n_threads > MAXT) n_threads = MAXT;
    chunk = (n_tests + n_threads - 1) / n_threads;
    for (t = 0; t < n_threads; ++t) {{
        int64_t a = t * chunk, b = a + chunk;
        if (a >= n_tests) break;
        if (b > n_tests) b = n_tests;
        jobs[spawned].rec = rec;
        jobs[spawned].nw = nw;
        jobs[spawned].n_lanes = n_lanes;
        jobs[spawned].test_off = test_off;
        jobs[spawned].seg_off = seg_off;
        jobs[spawned].bit_plane = bit_plane;
        jobs[spawned].bit_pos = bit_pos;
        jobs[spawned].hashed = hashed;
        jobs[spawned].cnt_off = cnt_off;
        jobs[spawned].hash_shift = hash_shift;
        jobs[spawned].t0 = a;
        jobs[spawned].t1 = b;
        jobs[spawned].counts = counts;
        jobs[spawned].keys = keybuf + (size_t)spawned * n_lanes;
        jobs[spawned].status = 0;
        ++spawned;
    }}
    for (t = 1; t < spawned; ++t) {{
        created[t] = pthread_create(&tids[t], 0, ext_worker,
            &jobs[t]) == 0;
        if (!created[t])
            ext_worker(&jobs[t]);
    }}
    ext_worker(&jobs[0]);
    for (t = 1; t < spawned; ++t)
        if (created[t]) pthread_join(tids[t], 0);
    for (t = 0; t < spawned; ++t)
        if (jobs[t].status) status = jobs[t].status;
    return status;
}}

typedef struct {{
    const uint64_t *stim;
    uint64_t *rec;
    const int64_t *rec_net;
    int64_t n_rec;
    const int64_t *rec_slot;
    const int64_t *in_off, *in_slot, *in_net;
    const int64_t *chk_off, *chk_slot;
    const uint8_t *chk_bit;
    const int64_t *rd_off, *rd_net, *rd_reg;
    const int64_t *cap_off, *cap_net, *cap_reg;
    const int64_t *op_off, *op_code, *op_out, *op_a, *op_b, *op_c;
    const int64_t *const1;
    int64_t n_const1, n_nets, n_dffs, n_slots, n_cycles, nw;
    int64_t w0, w1;
    int status;
}} sch_job;

static int sch_range(sch_job *j)
{{
    int64_t nw = j->nw, t0, c, i, k;
    uint64_t *st = (uint64_t *)malloc(
        (size_t)(j->n_nets ? j->n_nets : 1) * TILE * sizeof(uint64_t));
    uint64_t *reg = (uint64_t *)malloc(
        (size_t)(j->n_dffs ? j->n_dffs : 1) * TILE * sizeof(uint64_t));
    if (!st || !reg) {{
        free(st); free(reg);
        return 1;
    }}
    for (t0 = j->w0; t0 < j->w1; t0 += TILE) {{
        int64_t tw = j->w1 - t0 < TILE ? j->w1 - t0 : TILE;
        memset(st, 0, (size_t)j->n_nets * TILE * sizeof(uint64_t));
        memset(reg, 0,
            (size_t)(j->n_dffs ? j->n_dffs : 1) * TILE
            * sizeof(uint64_t));
        for (i = 0; i < j->n_const1; ++i) {{
            uint64_t *d = st + (size_t)j->const1[i] * TILE;
            for (k = 0; k < TILE; ++k) d[k] = ~(uint64_t)0;
        }}
        for (c = 0; c < j->n_cycles; ++c) {{
            for (i = j->chk_off[c]; i < j->chk_off[c + 1]; ++i) {{
                const uint64_t *s = j->stim
                    + ((size_t)c * j->n_slots + j->chk_slot[i]) * nw
                    + t0;
                uint64_t v = j->chk_bit[i] ? ~(uint64_t)0 : 0;
                for (k = 0; k < tw; ++k)
                    if (s[k] != v) {{
                        free(st); free(reg);
                        return 3;
                    }}
            }}
            for (i = j->in_off[c]; i < j->in_off[c + 1]; ++i) {{
                const uint64_t *s = j->stim
                    + ((size_t)c * j->n_slots + j->in_slot[i]) * nw
                    + t0;
                uint64_t *d = st + (size_t)j->in_net[i] * TILE;
                for (k = 0; k < tw; ++k) d[k] = s[k];
            }}
            for (i = j->rd_off[c]; i < j->rd_off[c + 1]; ++i) {{
                uint64_t *d = st + (size_t)j->rd_net[i] * TILE;
                const uint64_t *r = reg + (size_t)j->rd_reg[i] * TILE;
                for (k = 0; k < TILE; ++k) d[k] = r[k];
            }}
            for (i = j->op_off[c]; i < j->op_off[c + 1]; ++i) {{
                uint64_t *o = st + (size_t)j->op_out[i] * TILE;
                const uint64_t *a = st + (size_t)j->op_a[i] * TILE;
                const uint64_t *b = st + (size_t)j->op_b[i] * TILE;
                const uint64_t *m = st + (size_t)j->op_c[i] * TILE;
                switch (j->op_code[i]) {{
                case 0: for (k = 0; k < TILE; ++k) o[k] = a[k]; break;
                case 1: for (k = 0; k < TILE; ++k) o[k] = ~a[k]; break;
                case 2: for (k = 0; k < TILE; ++k)
                            o[k] = a[k] & b[k];
                        break;
                case 3: for (k = 0; k < TILE; ++k)
                            o[k] = ~(a[k] & b[k]);
                        break;
                case 4: for (k = 0; k < TILE; ++k)
                            o[k] = a[k] | b[k];
                        break;
                case 5: for (k = 0; k < TILE; ++k)
                            o[k] = ~(a[k] | b[k]);
                        break;
                case 6: for (k = 0; k < TILE; ++k)
                            o[k] = a[k] ^ b[k];
                        break;
                case 7: for (k = 0; k < TILE; ++k)
                            o[k] = ~(a[k] ^ b[k]);
                        break;
                case 8: for (k = 0; k < TILE; ++k)
                            o[k] = (b[k] & ~a[k]) | (m[k] & a[k]);
                        break;
                default:
                    free(st); free(reg);
                    return 4;
                }}
            }}
            if (j->n_rec > 0 && j->rec_slot[c] >= 0) {{
                int64_t slot = j->rec_slot[c];
                for (i = 0; i < j->n_rec; ++i) {{
                    const uint64_t *s =
                        st + (size_t)j->rec_net[i] * TILE;
                    uint64_t *d = j->rec
                        + ((size_t)slot * j->n_rec + (size_t)i) * nw
                        + t0;
                    for (k = 0; k < tw; ++k) d[k] = s[k];
                }}
            }}
            for (i = j->cap_off[c]; i < j->cap_off[c + 1]; ++i) {{
                const uint64_t *s = st + (size_t)j->cap_net[i] * TILE;
                uint64_t *r = reg + (size_t)j->cap_reg[i] * TILE;
                for (k = 0; k < TILE; ++k) r[k] = s[k];
            }}
        }}
    }}
    free(st); free(reg);
    return 0;
}}

static void *sch_worker(void *arg)
{{
    sch_job *j = (sch_job *)arg;
    j->status = sch_range(j);
    return 0;
}}

int repro_sched_run(const uint64_t *stim, uint64_t *rec,
    const int64_t *rec_net, int64_t n_rec, const int64_t *rec_slot,
    const int64_t *in_off, const int64_t *in_slot, const int64_t *in_net,
    const int64_t *chk_off, const int64_t *chk_slot,
    const uint8_t *chk_bit,
    const int64_t *rd_off, const int64_t *rd_net, const int64_t *rd_reg,
    const int64_t *cap_off, const int64_t *cap_net,
    const int64_t *cap_reg,
    const int64_t *op_off, const int64_t *op_code, const int64_t *op_out,
    const int64_t *op_a, const int64_t *op_b, const int64_t *op_c,
    const int64_t *const1, int64_t n_const1,
    int64_t n_nets, int64_t n_dffs, int64_t n_slots,
    int64_t n_cycles, int64_t nw, int64_t n_threads)
{{
    sch_job jobs[MAXT];
    pthread_t tids[MAXT];
    int created[MAXT];
    int64_t n_tiles, chunk, t, spawned = 0;
    int status = 0;
    n_tiles = (nw + TILE - 1) / TILE;
    if (n_threads < 1) n_threads = 1;
    if (n_threads > n_tiles) n_threads = n_tiles;
    if (n_threads > MAXT) n_threads = MAXT;
    chunk = (n_tiles + n_threads - 1) / n_threads;
    for (t = 0; t < n_threads; ++t) {{
        int64_t a = t * chunk * TILE, b = a + chunk * TILE;
        if (a >= nw) break;
        if (b > nw) b = nw;
        jobs[spawned].stim = stim;
        jobs[spawned].rec = rec;
        jobs[spawned].rec_net = rec_net;
        jobs[spawned].n_rec = n_rec;
        jobs[spawned].rec_slot = rec_slot;
        jobs[spawned].in_off = in_off;
        jobs[spawned].in_slot = in_slot;
        jobs[spawned].in_net = in_net;
        jobs[spawned].chk_off = chk_off;
        jobs[spawned].chk_slot = chk_slot;
        jobs[spawned].chk_bit = chk_bit;
        jobs[spawned].rd_off = rd_off;
        jobs[spawned].rd_net = rd_net;
        jobs[spawned].rd_reg = rd_reg;
        jobs[spawned].cap_off = cap_off;
        jobs[spawned].cap_net = cap_net;
        jobs[spawned].cap_reg = cap_reg;
        jobs[spawned].op_off = op_off;
        jobs[spawned].op_code = op_code;
        jobs[spawned].op_out = op_out;
        jobs[spawned].op_a = op_a;
        jobs[spawned].op_b = op_b;
        jobs[spawned].op_c = op_c;
        jobs[spawned].const1 = const1;
        jobs[spawned].n_const1 = n_const1;
        jobs[spawned].n_nets = n_nets;
        jobs[spawned].n_dffs = n_dffs;
        jobs[spawned].n_slots = n_slots;
        jobs[spawned].n_cycles = n_cycles;
        jobs[spawned].nw = nw;
        jobs[spawned].w0 = a;
        jobs[spawned].w1 = b;
        jobs[spawned].status = 0;
        ++spawned;
    }}
    if (spawned == 1)
        return sch_range(&jobs[0]);
    for (t = 1; t < spawned; ++t) {{
        created[t] = pthread_create(&tids[t], 0, sch_worker,
            &jobs[t]) == 0;
        if (!created[t])
            sch_worker(&jobs[t]);
    }}
    sch_worker(&jobs[0]);
    for (t = 1; t < spawned; ++t)
        if (created[t]) pthread_join(tids[t], 0);
    for (t = 0; t < spawned; ++t)
        if (jobs[t].status) status = jobs[t].status;
    return status;
}}
"""


_PIPE_FFI = None
_PIPELINE_KERNEL: Optional[_LoadedKernel] = None
_PIPELINE_REASON: Optional[str] = None


def _pipe_ffi():
    global _PIPE_FFI
    if _PIPE_FFI is None:
        from cffi import FFI

        ffi = FFI()
        ffi.cdef(_PIPE_CDEF)
        _PIPE_FFI = ffi
    return _PIPE_FFI


def build_pipeline_kernel() -> _LoadedKernel:
    """Compile (or reuse) and dlopen the generic pipeline kernel.

    The source is netlist-independent, so one shared object serves every
    program; it shares the on-disk cache with the generated kernels.
    Raises :class:`SimulationError` when the toolchain is missing or the
    compile fails (e.g. no ``__uint128_t``); the failure reason is
    memoized and surfaced via :func:`pipeline_unavailable_reason`.
    """
    global _PIPELINE_KERNEL, _PIPELINE_REASON
    reason = native_unavailable_reason()
    if reason is not None:
        raise SimulationError(f"native engine unavailable: {reason}")
    with _KERNEL_LOCK:
        if _PIPELINE_KERNEL is not None:
            return _PIPELINE_KERNEL
        if _PIPELINE_REASON is not None:
            raise SimulationError(
                f"native pipeline unavailable: {_PIPELINE_REASON}"
            )
        cc = _find_cc()
        if cc is None:  # pragma: no cover - covered by the reason check
            raise SimulationError(
                "native pipeline build failed: no C compiler"
            )
        flags = _cc_flags(cc)
        source = _pipeline_source()
        digest = hashlib.sha256(
            (source + "\0" + " ".join(flags)).encode()
        ).hexdigest()[:20]
        try:
            so_path = _compile_source(source, digest, cc, flags)
            lib = _pipe_ffi().dlopen(so_path)
        except (SimulationError, OSError) as exc:
            _PIPELINE_REASON = str(exc)
            raise SimulationError(
                f"native pipeline unavailable: {exc}"
            ) from exc
        _PIPELINE_KERNEL = _LoadedKernel(
            lib=lib, so_path=so_path, digest=digest
        )
        return _PIPELINE_KERNEL


def pipeline_unavailable_reason() -> Optional[str]:
    """None when the in-kernel pipeline is usable, else why not."""
    reason = native_unavailable_reason()
    if reason is not None:
        return reason
    try:
        build_pipeline_kernel()
    except SimulationError as exc:
        return str(exc)
    return None


def pipeline_available() -> bool:
    """True when stimgen/extract/scheduled-run can execute in C."""
    return pipeline_unavailable_reason() is None


class CountSpec(NamedTuple):
    """What one histogram test observes: the only description of it.

    ``segments`` is a tuple of key segments; each segment is a tuple of
    ``(cycle, net, position)`` bit sources OR'ed into the per-lane key
    (``key |= bit << position``), and every segment's keys accumulate
    into the same count table (the histogram of a concatenation is the
    sum of per-segment histograms).  ``hashed`` buckets each key into
    the top ``log2(n_bins)`` bits of the SplitMix64 mix
    ``repro.leakage.evaluator._mix_hash``; ``n_bins`` is the dense table
    width (``1 << key_bits``).

    Specs of probe observations come from one builder,
    ``repro.leakage.evaluator._count_spec`` (key layout and bucketing
    rule), and have two bit-identical executors: this module's
    ``repro_extract`` (via ``run_pipeline``) and the numpy
    ``repro.leakage.evaluator._observe``.
    """

    segments: tuple
    hashed: bool
    n_bins: int


def _stimgen_dense(
    kernel: _LoadedKernel,
    plan,
    slot_of_net,
    n_slots: int,
    n_cycles: int,
    n_words: int,
) -> np.ndarray:
    """Run a stimulus plan in C into a dense (n_cycles, slots, nw) array.

    ``slot_of_net`` maps net id -> stimulus slot; plan rows driving nets
    without a slot (cone-sliced-away inputs) still execute -- their
    draws consume the PCG64 stream exactly as in Python -- but land in
    kernel scratch.
    """
    state, inc = plan.rng_state()
    row_slot = np.asarray(
        [
            slot_of_net.get(net, -1) if net >= 0 else -1
            for net in plan.row_nets
        ],
        dtype=np.int64,
    )
    stim = np.zeros((n_cycles, max(n_slots, 1), n_words), np.uint64)
    sched = plan.sched
    if not sched.size:
        sched = np.zeros(1, dtype=np.uint8)
    ffi = _pipe_ffi()
    mask = (1 << 64) - 1
    status = kernel.lib.repro_stimgen(
        ffi.cast("uint64_t *", stim.ctypes.data),
        max(n_slots, 1),
        ffi.cast("int64_t *", plan.ops.ctypes.data),
        len(plan.ops),
        ffi.cast("int64_t *", row_slot.ctypes.data),
        plan.n_rows,
        ffi.cast("uint8_t *", np.ascontiguousarray(sched).ctypes.data),
        plan.period,
        (state >> 64) & mask,
        state & mask,
        (inc >> 64) & mask,
        inc & mask,
        n_cycles,
        n_words,
    )
    if status == 2:
        raise SimulationError(
            "non-zero byte rejection sampling did not converge"
        )
    if status != 0:
        raise SimulationError(
            f"native stimulus generation failed (status {status})"
        )
    return stim


def _extract_counts(
    kernel: _LoadedKernel,
    rec: np.ndarray,
    rec_slot: np.ndarray,
    record_index,
    n_rec: int,
    n_lanes: int,
    n_words: int,
    tests,
    hash_bits: int,
    n_threads: int,
) -> "list[np.ndarray]":
    """Fused bit-plane extraction + dense histogram counts in C.

    ``tests`` is a sequence of :class:`CountSpec`; the result is one
    int64 counts array (length ``spec.n_bins``) per test, ready for
    ``numpy.bincount``-compatible consumers.
    """
    test_off = [0]
    seg_off = [0]
    bit_plane: List[int] = []
    bit_pos: List[int] = []
    hashed = np.zeros(max(len(tests), 1), dtype=np.uint8)
    cnt_off = np.zeros(len(tests) + 1, dtype=np.int64)
    for index, spec in enumerate(tests):
        for segment in spec.segments:
            for cycle, net, position in segment:
                slot = int(rec_slot[cycle]) if 0 <= cycle < len(
                    rec_slot
                ) else -1
                rec_idx = record_index.get(net, -1)
                if slot < 0 or rec_idx < 0:
                    raise SimulationError(
                        f"count spec references unrecorded "
                        f"(cycle {cycle}, net {net})"
                    )
                bit_plane.append(slot * n_rec + rec_idx)
                bit_pos.append(int(position))
            seg_off.append(len(bit_plane))
        test_off.append(len(seg_off) - 1)
        hashed[index] = 1 if spec.hashed else 0
        cnt_off[index + 1] = cnt_off[index] + int(spec.n_bins)
    test_off_arr = np.asarray(test_off, dtype=np.int64)
    seg_off_arr = np.asarray(seg_off, dtype=np.int64)
    bit_plane_arr = np.asarray(
        bit_plane if bit_plane else [0], dtype=np.int64
    )
    bit_pos_arr = np.asarray(bit_pos if bit_pos else [0], dtype=np.int64)
    counts = np.zeros(max(int(cnt_off[-1]), 1), dtype=np.int64)
    threads = max(1, min(int(n_threads), _MAX_THREADS, max(len(tests), 1)))
    keybuf = np.zeros((threads, max(n_lanes, 1)), dtype=np.uint64)
    ffi = _pipe_ffi()
    status = kernel.lib.repro_extract(
        ffi.cast("uint64_t *", rec.ctypes.data),
        n_words,
        n_lanes,
        ffi.cast("int64_t *", test_off_arr.ctypes.data),
        len(tests),
        ffi.cast("int64_t *", seg_off_arr.ctypes.data),
        ffi.cast("int64_t *", bit_plane_arr.ctypes.data),
        ffi.cast("int64_t *", bit_pos_arr.ctypes.data),
        ffi.cast("uint8_t *", hashed.ctypes.data),
        ffi.cast("int64_t *", cnt_off.ctypes.data),
        64 - int(hash_bits),
        ffi.cast("int64_t *", counts.ctypes.data),
        ffi.cast("uint64_t *", keybuf.ctypes.data),
        threads,
    )
    if status != 0:
        raise SimulationError(
            f"native extraction failed (status {status})"
        )
    return [
        counts[int(cnt_off[i]):int(cnt_off[i + 1])]
        for i in range(len(tests))
    ]


def _trace_of(
    n_lanes: int, record_list: "list[int]", rec: np.ndarray,
    rec_slot: np.ndarray,
) -> Trace:
    """The :class:`Trace` of a kernel call's ``(rec, rec_slot)`` output.

    Trace rows are views into ``rec``: the call that wrote it owns it
    alone, so no copy is needed and the views keep it alive.
    """
    trace = Trace(n_lanes, record_list)
    for slot in rec_slot.tolist():
        trace.values.append(
            {} if slot < 0 else dict(zip(record_list, rec[slot]))
        )
    return trace


def _run_pipeline(
    sim, stim_nets, run_dense, plan, n_cycles: int,
    record_list: "list[int]", tests, hash_bits: int,
) -> Tuple["list[np.ndarray]", "dict"]:
    """The body of both simulators' ``run_pipeline``.

    ``stim_nets`` are the nets the simulator reads from the stimulus, in
    dense slot order, and ``run_dense(stim)`` is its kernel call
    returning ``(rec, rec_slot)``.  Generates the plan's stimulus,
    simulates, then extracts and counts ``tests`` in C; returns the
    counts and the ``{stage: seconds}`` timings.
    """
    kernel = build_pipeline_kernel()
    covered = set(net for net in plan.row_nets if net >= 0)
    for net in stim_nets:
        if net not in covered:
            raise SimulationError(
                f"stimulus plan does not drive input "
                f"{sim.netlist.net_name(net)!r}"
            )
    if plan.n_words != sim.n_words:
        raise SimulationError(
            f"stimulus plan is {plan.n_words} words wide, "
            f"simulator needs {sim.n_words}"
        )
    slot_of_net = {net: slot for slot, net in enumerate(stim_nets)}
    t0 = perf_counter()
    stim = _stimgen_dense(
        kernel, plan, slot_of_net, len(stim_nets), n_cycles, sim.n_words
    )
    t1 = perf_counter()
    rec, rec_slot = run_dense(stim)
    t2 = perf_counter()
    counts = _extract_counts(
        kernel,
        rec,
        rec_slot,
        {net: i for i, net in enumerate(record_list)},
        len(record_list),
        sim.n_lanes,
        sim.n_words,
        tests,
        hash_bits,
        sim.n_threads,
    )
    timings = {
        "stimulus": t1 - t0,
        "simulate": t2 - t1,
        "extract": perf_counter() - t2,
    }
    return counts, timings


# --------------------------------------------------------------- simulator


class NativeSimulator:
    """Drop-in :class:`CompiledSimulator` running the fused C kernel.

    Same ``run`` contract and bit-identical :class:`Trace` output; the
    whole multi-cycle block executes in one foreign call, split across
    ``n_threads`` pthread workers by word range (clamped to the word
    count, so single-word blocks never pay thread overhead).
    """

    def __init__(
        self,
        netlist: Netlist,
        n_lanes: int,
        keep_nets: Optional[Iterable[int]] = None,
        n_threads: Optional[int] = None,
        record_nets: Optional[Iterable[int]] = None,
    ):
        if n_lanes <= 0:
            raise SimulationError("n_lanes must be positive")
        self.netlist = netlist
        self.n_lanes = n_lanes
        self.n_words = words_for_lanes(n_lanes)
        self.n_threads = (
            native_default_threads(words_for_lanes(n_lanes))
            if n_threads is None
            else max(1, min(int(n_threads), _MAX_THREADS))
        )
        if keep_nets is None:
            self.program = compile_netlist(netlist)
            keep_list: List[int] = []
        else:
            keep_list = list(keep_nets)
            from repro.netlist.slice import slice_program

            self.program = slice_program(netlist, keep_list)
        program = self.program
        # Pin the rows callers may record -- stable nets, the cone roots
        # of a slice, and any declared record set -- so liveness
        # compaction never recycles them.  Recording a net outside this
        # set later triggers one kernel rebuild with a grown pin set.
        pin = {
            program.state_row(net)
            for net in netlist.stable_nets()
            if program.is_live(net)
        }
        pin.update(
            program.state_row(net)
            for net in keep_list
            if program.is_live(net)
        )
        if record_nets is not None:
            pin.update(
                program.state_row(net)
                for net in record_nets
                if program.is_live(net)
            )
        self._pin_rows = pin
        self._plan = _row_plan(program, sorted(pin))
        self._kernel = build_kernel(program, self._plan)
        inputs = program.input_nets
        if len(inputs) == 1:
            only = inputs[0]
            self._gather = lambda provided: (provided[only],)
        elif inputs:
            self._gather = operator.itemgetter(*inputs)
        else:
            self._gather = None

    @property
    def input_nets(self) -> Tuple[int, ...]:
        """Primary-input net ids in dense-stimulus row order."""
        return tuple(self.program.input_nets)

    def expand_stimulus(
        self, stimulus: Stimulus, n_cycles: int
    ) -> np.ndarray:
        """Pre-expand a per-cycle stimulus callable into the dense form.

        Returns the ``(n_cycles, n_inputs, n_words)`` uint64 array the
        kernel consumes (rows ordered as :attr:`input_nets`).  ``run``
        accepts this array directly in place of the callable, letting
        callers stage stimulus once and replay it without paying the
        per-cycle dict gather again.
        """
        n_inputs = len(self.program.input_nets)
        stim = np.zeros(
            (n_cycles, max(n_inputs, 1), self.n_words), np.uint64
        )
        if n_inputs:
            flat = stim.reshape(n_cycles, -1)
            gather = self._gather
            for cycle in range(n_cycles):
                provided = stimulus(cycle)
                try:
                    np.concatenate(gather(provided), out=flat[cycle])
                except (KeyError, ValueError, TypeError):
                    self._expand_cycle(provided, cycle, stim)
        return stim

    def run(
        self,
        stimulus,
        n_cycles: int,
        record_nets: Optional[Iterable[int]] = None,
        record_cycles: Optional[Iterable[int]] = None,
    ) -> Trace:
        """Simulate ``n_cycles`` cycles; same contract as the other engines.

        ``stimulus`` is either the standard per-cycle callable or a dense
        ``(n_cycles, n_inputs, n_words)`` uint64 array from
        :meth:`expand_stimulus`.
        """
        netlist = self.netlist
        program = self.program
        if record_nets is None:
            record_nets = [
                net for net in netlist.stable_nets() if program.is_live(net)
            ]
        record_list = list(record_nets)
        cycle_filter = None if record_cycles is None else set(record_cycles)
        if n_cycles <= 0:
            return Trace(self.n_lanes, record_list)

        n_words = self.n_words
        n_inputs = len(program.input_nets)
        # The kernel consumes a dense (n_cycles, n_inputs, n_words)
        # array in one call; expand the per-cycle callable unless the
        # caller staged the dense form already (expand_stimulus).
        if isinstance(stimulus, np.ndarray):
            expected = (n_cycles, max(n_inputs, 1), n_words)
            if stimulus.dtype != np.uint64 or stimulus.shape != expected:
                raise SimulationError(
                    f"dense stimulus must be a uint64 array of shape "
                    f"{expected}, got {stimulus.dtype} {stimulus.shape}"
                )
            stim = np.ascontiguousarray(stimulus)
        else:
            stim = self.expand_stimulus(stimulus, n_cycles)

        rec, rec_slot = self._run_dense(
            stim, n_cycles, record_list, cycle_filter
        )
        return _trace_of(self.n_lanes, record_list, rec, rec_slot)

    def _run_dense(
        self,
        stim: np.ndarray,
        n_cycles: int,
        record_list: "list[int]",
        cycle_filter,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One fused kernel call; returns the raw (rec, rec_slot) pair.

        ``rec`` is ``(n_slots, n_rec, n_words)`` with ``rec_slot[cycle]``
        naming each recorded cycle's slot (-1 when skipped).
        """
        program = self.program
        state_rows = np.asarray(
            [program.state_row(net) for net in record_list], dtype=np.int64
        )
        if state_rows.size and not self._plan.pinned[state_rows].all():
            # The record set reaches rows the liveness plan recycled:
            # grow the pin set (monotonically, so alternating record
            # sets converge) and rebuild once; the on-disk cache makes
            # repeats cheap.  Declare the set via ``record_nets`` at
            # construction to avoid the extra build.
            self._pin_rows.update(int(row) for row in state_rows)
            self._plan = _row_plan(program, sorted(self._pin_rows))
            self._kernel = build_kernel(program, self._plan)
        record_rows = self._plan.slot_of[state_rows]
        n_words = self.n_words

        rec_slot = np.full(n_cycles, -1, dtype=np.int64)
        slots = 0
        for cycle in range(n_cycles):
            if cycle_filter is None or cycle in cycle_filter:
                rec_slot[cycle] = slots
                slots += 1
        n_rec = len(record_list)
        rec = np.zeros((max(slots, 1), max(n_rec, 1), n_words), np.uint64)
        if record_rows.size == 0:
            record_rows = np.zeros(1, dtype=np.int64)

        ffi = _ffi()
        status = self._kernel.lib.repro_run(
            ffi.cast("uint64_t *", stim.ctypes.data),
            ffi.cast("uint64_t *", rec.ctypes.data),
            ffi.cast("int64_t *", record_rows.ctypes.data),
            n_rec,
            ffi.cast("int64_t *", rec_slot.ctypes.data),
            n_cycles,
            n_words,
            self.n_threads,
        )
        if status != 0:
            raise SimulationError(
                f"native kernel execution failed (status {status})"
            )
        return rec, rec_slot

    def run_pipeline(
        self,
        plan,
        n_cycles: int,
        record_nets: Iterable[int],
        record_cycles: Iterable[int],
        tests,
        hash_bits: int,
    ) -> Tuple["list[np.ndarray]", "dict"]:
        """Whole evaluation block in C: stimulus, simulate, extract, count.

        ``plan`` is a :class:`repro.leakage.stimplan.StimulusPlan`
        driving every primary input of this simulator's program (plans
        built against the full DUT also work on cone slices: draws for
        sliced-away inputs still consume the PCG64 stream, exactly as
        the Python interpreter would).  ``tests`` is a sequence of
        :class:`CountSpec`; the result is one dense int64 counts array
        per test plus a ``{stage: seconds}`` timing dict
        (``stimulus`` / ``simulate`` / ``extract``).

        Bit-compatibility: the counts equal
        ``numpy.bincount`` of the Python path's observation keys for the
        same seed -- see ``tests/test_native_pipeline.py``.
        """
        record_list = list(record_nets)
        cycle_filter = set(record_cycles)
        return _run_pipeline(
            self, self.program.input_nets,
            lambda stim: self._run_dense(
                stim, n_cycles, record_list, cycle_filter
            ),
            plan, n_cycles, record_list, tests, hash_bits,
        )

    def _expand_cycle(
        self, provided: dict, cycle: int, stim: np.ndarray
    ) -> None:
        """Slow validating path behind the vectorized stimulus expansion.

        Entered only when the fast concatenate raises -- reproduces the
        per-input diagnostics of the other engines (missing primary
        input, wrong word-vector shape) or completes the odd-typed but
        valid cycle the stack could not fuse.
        """
        n_words = self.n_words
        for slot, pi in enumerate(self.program.input_nets):
            if pi not in provided:
                raise SimulationError(
                    f"stimulus missing primary input "
                    f"{self.netlist.net_name(pi)!r} at cycle {cycle}"
                )
            words = np.asarray(provided[pi], dtype=np.uint64)
            if words.shape != (n_words,):
                raise SimulationError(
                    f"stimulus for {self.netlist.net_name(pi)!r} has "
                    f"shape {words.shape}, expected ({n_words},)"
                )
            stim[cycle, slot] = words


class NativeScheduledSimulator:
    """Scheduled-cone simulation on the generic native interpreter.

    Wraps :class:`repro.netlist.slice.ScheduledSimulator` construction
    (cone computation, per-cycle dispatch compilation, schedule
    validation rules) and lowers its per-cycle structures onto the
    ``repro_sched_run`` entry point of the pipeline kernel: flat gate-op
    arrays with per-cycle offsets interpreted in C, tiled and threaded
    over word columns.  ``run`` and ``run_pipeline`` have the contracts
    of :class:`NativeSimulator`'s, within the wrapped simulator's bounds
    (``ScheduledSimulator._run_window``) -- same errors for non-root
    records, missing inputs, and schedule mismatches; bit-identical
    traces and counts.

    Construction raises :class:`~repro.errors.SimulationError` when the
    pipeline kernel is unavailable; :func:`repro.engines.build_simulator`
    then degrades to the compiled engine's :class:`ScheduledSimulator`.
    """

    def __init__(
        self,
        netlist: Netlist,
        n_lanes: int,
        roots: Iterable[int],
        record_cycles: Iterable[int],
        n_cycles: int,
        schedule,
        n_threads: Optional[int] = None,
    ):
        from repro.netlist.slice import ScheduledSimulator

        self._kernel = build_pipeline_kernel()
        sched = ScheduledSimulator(
            netlist, n_lanes, roots, record_cycles, n_cycles, schedule
        )
        self._sched = sched
        self.netlist = netlist
        self.n_lanes = n_lanes
        self.n_words = sched.n_words
        self.n_cycles = n_cycles
        self.roots = sched.roots
        self.record_cycles = sched.record_cycles
        self.n_threads = (
            native_default_threads(self.n_words)
            if n_threads is None
            else max(1, min(int(n_threads), _MAX_THREADS))
        )

        sched_nets = sorted(sched._schedule)
        union = sorted(
            set(net for per in sched._cycle_inputs for net in per)
            | set(sched_nets)
        )
        self._slot_of_net = {net: i for i, net in enumerate(union)}
        self._stim_nets = union
        self.n_slots = len(union)

        def flatten(per_cycle_pairs):
            off = np.zeros(n_cycles + 1, dtype=np.int64)
            first: List[int] = []
            second: List[int] = []
            for t, (a, b) in enumerate(per_cycle_pairs):
                first.extend(int(x) for x in a)
                second.extend(int(x) for x in b)
                off[t + 1] = len(first)
            return (
                off,
                np.asarray(first if first else [0], dtype=np.int64),
                np.asarray(second if second else [0], dtype=np.int64),
            )

        self._in_off, self._in_slot, self._in_net = flatten(
            (
                [self._slot_of_net[net] for net in per],
                list(per),
            )
            for per in sched._cycle_inputs
        )
        self._rd_off, self._rd_net, self._rd_reg = flatten(
            sched._cycle_reads
        )
        self._cap_off, self._cap_net, self._cap_reg = flatten(
            sched._cycle_captures
        )

        # Schedule validation: every scheduled net, every cycle (the
        # python path checks them all each cycle regardless of need).
        n_sched = len(sched_nets)
        self._chk_off = np.arange(
            0, (n_cycles + 1) * n_sched, max(n_sched, 1), dtype=np.int64
        )
        if n_sched == 0:
            self._chk_off = np.zeros(n_cycles + 1, dtype=np.int64)
        chk_slot = np.asarray(
            [self._slot_of_net[net] for net in sched_nets] * n_cycles
            if n_sched
            else [0],
            dtype=np.int64,
        )
        chk_bit = np.asarray(
            [
                1 if sched._schedule[net][t] else 0
                for t in range(n_cycles)
                for net in sched_nets
            ]
            if n_sched
            else [0],
            dtype=np.uint8,
        )
        self._chk_slot, self._chk_bit = chk_slot, chk_bit
        self._sched_nets = sched_nets

        op_off = np.zeros(n_cycles + 1, dtype=np.int64)
        op_code: List[int] = []
        op_out: List[int] = []
        op_a: List[int] = []
        op_b: List[int] = []
        op_c: List[int] = []
        for t in range(n_cycles):
            for op in sched._cycle_ops[t]:
                code = _CELL_CODE.get(op.cell_type)
                if code is None:  # pragma: no cover - never dispatched
                    raise SimulationError(
                        f"cell type {op.cell_type} has no native lowering"
                    )
                n = int(op.out.size)
                op_code.extend([code] * n)
                op_out.extend(int(x) for x in op.out)
                op_a.extend(int(x) for x in op.in0)
                op_b.extend(
                    (int(x) for x in op.in1) if op.in1.size else [0] * n
                )
                op_c.extend(
                    (int(x) for x in op.in2) if op.in2.size else [0] * n
                )
            op_off[t + 1] = len(op_code)
        self._op_off = op_off
        self._op_code = np.asarray(
            op_code if op_code else [0], dtype=np.int64
        )
        self._op_out = np.asarray(op_out if op_out else [0], dtype=np.int64)
        self._op_a = np.asarray(op_a if op_a else [0], dtype=np.int64)
        self._op_b = np.asarray(op_b if op_b else [0], dtype=np.int64)
        self._op_c = np.asarray(op_c if op_c else [0], dtype=np.int64)
        self._const1 = np.asarray(
            sorted(sched._const1) if sched._const1 else [0], dtype=np.int64
        )
        self._n_const1 = len(sched._const1)
        self._n_dffs = sched._n_dffs

    def stats(self):
        """Active vs. full cell evaluations (see ScheduledSimulator)."""
        return self._sched.stats()

    def _run_dense(
        self, stim: np.ndarray, record_list: "list[int]",
        cycles: "list[int]",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One interpreter call recording ``record_list`` at ``cycles``;
        returns the raw (rec, rec_slot) pair."""
        n_cycles = self.n_cycles
        n_words = self.n_words
        rec_slot = np.full(n_cycles, -1, dtype=np.int64)
        rec_slot[cycles] = np.arange(len(cycles))
        n_rec = len(record_list)
        rec = np.zeros(
            (max(len(cycles), 1), max(n_rec, 1), n_words), np.uint64
        )
        rec_net = np.asarray(
            record_list if record_list else [0], dtype=np.int64
        )
        ffi = _pipe_ffi()

        def cast(arr, ctype="int64_t *"):
            return ffi.cast(ctype, arr.ctypes.data)

        status = self._kernel.lib.repro_sched_run(
            ffi.cast("uint64_t *", stim.ctypes.data),
            ffi.cast("uint64_t *", rec.ctypes.data),
            cast(rec_net),
            n_rec,
            cast(rec_slot),
            cast(self._in_off),
            cast(self._in_slot),
            cast(self._in_net),
            cast(self._chk_off),
            cast(self._chk_slot),
            cast(self._chk_bit, "uint8_t *"),
            cast(self._rd_off),
            cast(self._rd_net),
            cast(self._rd_reg),
            cast(self._cap_off),
            cast(self._cap_net),
            cast(self._cap_reg),
            cast(self._op_off),
            cast(self._op_code),
            cast(self._op_out),
            cast(self._op_a),
            cast(self._op_b),
            cast(self._op_c),
            cast(self._const1),
            self._n_const1,
            self.netlist.n_nets,
            self._n_dffs,
            max(self.n_slots, 1),
            n_cycles,
            n_words,
            self.n_threads,
        )
        if status == 3:
            raise SimulationError(
                "stimulus for a scheduled net does not match its "
                "declared per-cycle value"
            )
        if status != 0:
            raise SimulationError(
                f"native scheduled kernel failed (status {status})"
            )
        return rec, rec_slot

    def _expand_stimulus(self, stimulus) -> np.ndarray:
        """Per-cycle callable to the dense (n_cycles, slots, nw) form.

        Reproduces the python path's missing-input / bad-shape errors
        for the nets each cycle actually needs; other driven nets are
        ignored (the interpreter only reads needed slots).
        """
        netlist = self.netlist
        n_words = self.n_words
        sched = self._sched
        stim = np.zeros(
            (self.n_cycles, max(self.n_slots, 1), n_words), np.uint64
        )
        slot_of_net = self._slot_of_net
        for cycle in range(self.n_cycles):
            provided = stimulus(cycle)
            row = stim[cycle]
            for pi in sched._cycle_inputs[cycle]:
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
                row[slot_of_net[pi]] = words
            for net in self._sched_nets:
                if net not in provided:
                    raise SimulationError(
                        f"stimulus missing scheduled input "
                        f"{netlist.net_name(net)!r} at cycle {cycle}"
                    )
                words = np.asarray(provided[net], dtype=np.uint64)
                if words.shape != (n_words,):
                    raise SimulationError(
                        f"stimulus for {netlist.net_name(net)!r} has shape "
                        f"{words.shape}, expected ({n_words},)"
                    )
                row[slot_of_net[net]] = words
        return stim

    def run(
        self,
        stimulus,
        n_cycles: int,
        record_nets: Optional[Iterable[int]] = None,
        record_cycles: Optional[Iterable[int]] = None,
    ) -> Trace:
        """Simulate and record; same contract as ScheduledSimulator.run."""
        record_list, cycles = self._sched._run_window(
            n_cycles, record_nets, record_cycles
        )
        stim = self._expand_stimulus(stimulus)
        rec, rec_slot = self._run_dense(stim, record_list, cycles)
        return _trace_of(self.n_lanes, record_list, rec, rec_slot)

    def run_pipeline(
        self,
        plan,
        n_cycles: int,
        record_nets: Iterable[int],
        record_cycles: Iterable[int],
        tests,
        hash_bits: int,
    ) -> Tuple["list[np.ndarray]", "dict"]:
        """Whole scheduled block in C; see NativeSimulator.run_pipeline.

        The plan must drive every needed input and every scheduled net
        (a full-DUT plan does); the interpreter validates the scheduled
        nets' generated words against the declared schedule exactly like
        the python path.
        """
        record_list, cycles = self._sched._run_window(
            n_cycles, record_nets, record_cycles
        )
        return _run_pipeline(
            self, self._stim_nets,
            lambda stim: self._run_dense(stim, record_list, cycles),
            plan, n_cycles, record_list, tests, hash_bits,
        )
