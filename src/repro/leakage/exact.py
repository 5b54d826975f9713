"""Exact probe-distribution analysis by exhaustive randomness enumeration.

For a probe class whose observation depends on few enough random bits, the
joint distribution of the observation can be computed *exactly*, per secret
value, by enumerating every assignment of the contributing randomness
(sharing randomness, fresh mask bits, mask bytes) on simulator lanes.  A
probe is first-order secure iff that distribution is identical for every
secret -- the statement SILVER-style tools verify, stronger than any
sampled fixed-vs-random test and free of Monte-Carlo noise.

The engine:

1. computes the probe's stable support (per the probing model),
2. traces the support back through registers to ``(primary input, age)``
   variables (:func:`repro.netlist.topo.transitive_input_support`),
3. allocates enumeration bits for the free randomness and the *used* secret
   bits, mapping derived share inputs to ``other shares xor secret``,
4. simulates all ``2^k`` assignments at once (bitsliced lanes), and
5. compares the per-secret observation histograms for exact equality.

Designs whose probes exceed the enumeration budget raise
:class:`repro.errors.ExactAnalysisInfeasible` per probe and are reported as
skipped; the Monte-Carlo evaluator covers them.

The assignment space of one probe class factors into lane-aligned *shards*:
shard ``s`` of size ``2^b`` covers global assignment indices
``[s * 2^b, (s+1) * 2^b)``.  Within a shard, enumeration bits below ``b``
ride simulator lanes as usual while bits at or above ``b`` are broadcast
constants taken from the shard index -- so per-shard exact counts merge to
the single-shot histogram bit for bit.  :class:`ShardedExactAnalyzer` in
:mod:`repro.leakage.certify` schedules shards across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import engines as engine_registry
from repro.errors import ExactAnalysisInfeasible, SimulationError
from repro.leakage import gtest
from repro.leakage.dut import DesignUnderTest
from repro.leakage.evaluator import (
    PASS_ELEMENTS,
    _count_spec,
    _minterm_popcounts,
    _observe,
)
from repro.leakage.model import ProbingModel
from repro.leakage.probes import ProbeClass, extract_probe_classes
from repro.leakage.report import SCHEMA_VERSION, _result_row
from repro.netlist.simulate import Trace, unpack_lanes
from repro.netlist.topo import transitive_input_support

Var = Tuple[object, int]  # (role key, age)


#: In-word enumeration words: bit ``L`` of entry ``i`` is ``(L >> i) & 1``.
_IN_WORD_PATTERNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


#: Cycles of register history traced back from a probe to the primary
#: input variables it depends on.
MAX_WINDOW = 12


#: Widest minterm tree (key bits plus in-word secret bits) a dense class
#: is counted from packed words; a wider class builds per-lane keys.  On
#: a 65,536-lane shard a 5-bit tree counts at least twice as fast as
#: per-lane keys, and a 6-bit one ties with them.
PACKED_MAX_BITS = 5


def _shard_patterns(
    total_bits: int, lane_bits: int, shard_index: int
) -> np.ndarray:
    """``(total_bits, words)`` enumeration patterns of one shard.

    Row ``i`` carries, on lane ``L``, bit ``i`` of the global assignment
    index ``(shard_index << lane_bits) + L``: the in-word constants below
    bit ``min(6, lane_bits)``, all-ones or all-zeros words above it --
    word-index bits up to ``lane_bits - 1``, shard-index bits from there.
    """
    n_words = ((1 << lane_bits) + 63) // 64
    first_lanes = (shard_index << lane_bits) + 64 * np.arange(
        n_words, dtype=np.int64
    )
    bits = first_lanes >> np.arange(total_bits)[:, None]
    bits &= 1
    # A set bit becomes -1: all ones as a uint64 word.
    patterns = np.negative(bits, out=bits).view(np.uint64)
    in_word = min(6, lane_bits, total_bits)
    patterns[:in_word] = np.array(
        _IN_WORD_PATTERNS[:in_word], dtype=np.uint64
    )[:, None]
    return patterns


def _dense_triple(
    cells: np.ndarray, row_base: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, rows, counts)`` of the non-empty columns and rows of a
    ``(rows, keys)`` count table whose row 0 is secret row ``row_base``."""
    occupied = np.flatnonzero(cells.any(axis=1))
    seen = np.flatnonzero(cells.any(axis=0))
    return (
        seen.astype(np.uint64),
        occupied + row_base,
        cells[np.ix_(occupied, seen)],
    )


def _count_lanes(
    keys: np.ndarray, rows: np.ndarray, width: int, n_secret_bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, rows, counts)`` table of per-lane observations.

    ``keys`` holds each lane's ``width``-bit observation and ``rows`` its
    secret row (below ``2^n_secret_bits``).  Returns the ascending
    ``uint64`` keys seen, the ascending occupied rows and their
    ``(len(rows), len(keys))`` ``int64`` counts.  A table of at most
    :data:`~repro.leakage.gtest.DENSE_KEY_LIMIT` cells is one
    ``np.bincount`` over ``(row << width) | key``; a wider one sorts.
    Both give the same triple.
    """
    n_cells = 1 << (width + n_secret_bits)
    if n_cells <= gtest.DENSE_KEY_LIMIT:
        return _dense_triple(np.bincount(
            (rows << width) | keys, minlength=n_cells
        ).reshape(1 << n_secret_bits, 1 << width))
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    occupied, row_pos = np.unique(rows, return_inverse=True)
    counts = np.zeros((occupied.size, unique_keys.size), dtype=np.int64)
    np.add.at(counts, (row_pos, inverse), 1)
    return unique_keys.astype(np.uint64), occupied, counts


def _packed_counts(
    root: np.ndarray, planes: List[np.ndarray], width: int,
    run_bits: int, row_base: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_count_lanes`'s dense triple, counted from packed words.

    ``planes`` are a key's ``width`` bit planes followed by the secret
    bits that vary inside a word; ``root`` holds the lanes to count.
    Leaf ``i`` of their minterm tree counts the lanes of key ``i &
    (2^width - 1)`` with in-word secret bits ``i >> width``.  Words come
    in runs of ``2^run_bits`` that share their remaining secret bits, so
    leaf popcounts summed over run ``j`` of ``i`` are the count of row
    ``row_base + (j << in-word bits) + (i >> width)``.  The tree runs in
    passes of at most :data:`PASS_ELEMENTS` words.
    """
    n_words = root.size
    n_leaves = 1 << len(planes)
    n_runs = max(1, n_words >> run_bits)
    counts = np.zeros((n_leaves, n_runs), dtype=np.int64)
    step = max(1, PASS_ELEMENTS >> len(planes))
    for start in range(0, n_words, step):
        stop = min(start + step, n_words)
        leaves = _minterm_popcounts(
            root[None, start:stop], [plane[start:stop] for plane in planes]
        )
        run = min(stop - start, 1 << run_bits)
        first = start >> run_bits
        counts[:, first:first + (stop - start) // run] += leaves.reshape(
            n_leaves, -1, run
        ).sum(axis=2, dtype=np.int64)
    table = counts.reshape(-1, 1 << width, n_runs).transpose(2, 0, 1)
    return _dense_triple(table.reshape(-1, 1 << width), row_base)


def _count_trace(
    trace: Trace,
    specs: Sequence,
    patterns: np.ndarray,
    nonzero_rows: Sequence[Sequence[int]],
    k: int,
    u: int,
    shard_index: int,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Exact ``(keys, rows, counts)`` of each spec on one shard's trace.

    ``specs`` are unhashed one-segment CountSpecs (:func:`_count_spec`)
    and ``patterns`` the shard's :func:`_shard_patterns`, of enumeration
    bits ``0..k-1`` (free) and ``k..k+u-1`` (secret).  A lane counts when
    each group of ``nonzero_rows`` (the pattern rows of one enumerated
    non-zero byte) has a bit set.  A class whose minterm tree -- key
    bits plus the secret bits that vary inside a word -- is at most
    :data:`PACKED_MAX_BITS` wide and whose table is dense counts from
    the packed words (:func:`_packed_counts`); any other builds per-lane
    keys for :func:`_count_lanes`.  Both give the same triple.
    """
    n_lanes = trace.n_lanes
    lane_bits = n_lanes.bit_length() - 1
    valid = np.full(patterns.shape[1], ~np.uint64(0))
    if n_lanes % 64:
        valid[-1] = (np.uint64(1) << np.uint64(n_lanes % 64)) - 1
    for byte in nonzero_rows:
        valid &= np.bitwise_or.reduce(patterns[list(byte)])

    # Lane L is assignment (shard_index << lane_bits) + L, so its secret
    # row is row_base + (L >> k): enumeration bits k..5 vary inside a
    # word, and runs of 2^(k-6) words share the rest.
    row_base = ((shard_index << lane_bits) >> k) & ((1 << u) - 1)
    in_word = list(patterns[k:max(k, min(6, lane_bits))])
    run_bits = max(k - 6, 0)

    results = []
    lane_rows = lane_valid = None
    # Unhashed keys on the narrowest dtype; one bit cache per dtype.
    bit_caches: Dict[np.dtype, Dict] = {}
    for spec in specs:
        [segment] = spec.segments
        width = len(segment)
        if (
            width + len(in_word) <= PACKED_MAX_BITS
            and 1 << (width + u) <= gtest.DENSE_KEY_LIMIT
        ):
            planes = [trace.words(cycle, net) for cycle, net, _ in segment]
            results.append(_packed_counts(
                valid, planes + in_word, width, run_bits, row_base
            ))
            continue
        if lane_rows is None:
            lane_rows = row_base + (np.arange(n_lanes, dtype=np.int64) >> k)
            if nonzero_rows:
                lane_valid = unpack_lanes(valid, n_lanes).astype(bool)
                lane_rows = lane_rows[lane_valid]
        dtype = np.min_scalar_type(spec.n_bins - 1)
        keys = _observe(
            trace, spec, bit_caches.setdefault(dtype, {}), dtype=dtype
        )
        if lane_valid is not None:
            keys = keys[lane_valid]
        results.append(_count_lanes(keys, lane_rows, width, u))
    return results


@dataclass(frozen=True)
class ExactProbeResult:
    """Exact verdict for one probe class."""

    probe_names: str
    support_names: Tuple[str, ...]
    n_random_bits: int
    n_secret_bits: int
    leaking: bool
    #: total-variation distance between the fixed-secret distribution and
    #: the uniform-secret mixture (the PROLEAD fixed-vs-random contrast).
    tv_fixed_vs_random: float
    #: number of distinct per-secret distributions (1 == secure).
    n_distinct_distributions: int

    def format_row(self) -> str:
        """One summary line for this probe."""
        flag = "LEAK" if self.leaking else "ok"
        return (
            f"{flag:<5} rand_bits={self.n_random_bits:<3} "
            f"distinct={self.n_distinct_distributions:<4} "
            f"tv(fixed,rand)={self.tv_fixed_vs_random:.4f}  "
            f"probe={self.probe_names}"
        )


@dataclass
class ExactReport:
    """Outcome of an exact analysis sweep.

    ``infeasible`` entries are detail dicts ``{"probe", "needed_bits",
    "budget"}`` recording *how far* each skipped probe exceeds the
    enumeration budget, so escalating ``max_enum_bits`` (or moving to the
    sharded engine) is an informed decision rather than a guess.
    """

    design: str
    model: str
    fixed_secret: int
    results: List[ExactProbeResult] = field(default_factory=list)
    infeasible: List[Dict[str, object]] = field(default_factory=list)
    #: "complete", or "truncated:<reason>" when a sharded sweep stopped
    #: early (cancellation, shutdown).
    status: str = "complete"

    @property
    def leaking_results(self) -> List[ExactProbeResult]:
        """Probe results with secret-dependent distributions."""
        return [r for r in self.results if r.leaking]

    @property
    def passed(self) -> bool:
        """True when every analyzed probe is secret-independent."""
        return not self.leaking_results

    @property
    def truncated(self) -> bool:
        """True when the sweep stopped before covering every probe."""
        return self.status != "complete"

    @property
    def conclusive(self) -> bool:
        """True when every probe class actually received a verdict.

        A sweep with budget-skipped (infeasible) probes or an early stop
        can still be *insecure* (a found leak is a proof), but it can
        never be *secure*: the unexamined probes might leak.
        """
        return not self.truncated and not self.infeasible

    @property
    def max_tv(self) -> float:
        """Largest fixed-vs-random total-variation distance observed."""
        return max((r.tv_fixed_vs_random for r in self.results), default=0.0)

    def to_dict(self, top: Optional[int] = None) -> Dict:
        """Machine-readable form, shaped like :meth:`LeakageReport.to_dict`.

        Shares the sampled report's envelope keys (``schema_version``,
        ``status``, ``passed``, ``max_mlog10p``, ``n_probe_classes``) so the
        service verdict cache and exit-code mapping treat exact and sampled
        verdicts uniformly; ``mode: "exact"`` and the per-probe rows
        distinguish the payload.  An exact pass has no p-value, so
        ``max_mlog10p`` is 0.0 by construction.
        """
        ranked = sorted(
            self.results, key=lambda r: (-r.leaking, -r.tv_fixed_vs_random)
        )
        if top is not None:
            ranked = ranked[:top]
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": "exact",
            "design": self.design,
            "model": self.model,
            "fixed_secret": self.fixed_secret,
            "status": self.status,
            "passed": self.passed,
            "max_mlog10p": 0.0,
            "max_tv": self.max_tv,
            "n_probe_classes": len(self.results),
            "n_skipped": len(self.infeasible),
            "skipped": list(self.infeasible),
            "results": [_result_row(r) for r in ranked],
        }

    def to_json(self, top: Optional[int] = None, indent: int = 2) -> str:
        """JSON rendering of :meth:`to_dict`."""
        import json

        return json.dumps(self.to_dict(top), indent=indent)

    def format_summary(self, top: int = 10) -> str:
        """Human-readable report, leaking probes first."""
        verdict = "SECURE (exact)" if self.passed else "INSECURE (exact)"
        if self.passed and not self.conclusive:
            verdict = (
                "INCONCLUSIVE (truncated before completion)"
                if self.truncated
                else "INCONCLUSIVE "
                f"({len(self.infeasible)} probes beyond enumeration budget)"
            )
        lines = [
            f"=== Exact analysis: {self.design} ===",
            f"  model:   {self.model}"
            + (f" [{self.status}]" if self.truncated else ""),
            f"  probes:  {len(self.results)} analyzed, "
            f"{len(self.infeasible)} beyond enumeration budget",
            f"  verdict: {verdict}",
        ]
        for entry in self.infeasible[:3]:
            needed = entry.get("needed_bits")
            lines.append(
                f"  skipped: {entry.get('probe')} needs "
                f"{needed if needed is not None else '>40'} bits "
                f"(budget {entry.get('budget')})"
            )
        ranked = sorted(
            self.results, key=lambda r: (-r.leaking, -r.tv_fixed_vs_random)
        )
        for result in ranked[:top]:
            lines.append("  " + result.format_row())
        return "\n".join(lines)


@dataclass
class EnumerationSetup:
    """Resolved enumeration variables of one probe class.

    Computed once per probe class and reused by every shard: the free
    variables (bit positions ``0..k-1`` of the global assignment index), the
    used secret bits (positions ``k..k+u-1``), and the derived lookup
    tables the stimulus closure needs.
    """

    free_vars: List[Var]
    used_secret_bits: List[int]
    share_groups: List[Tuple[int, int]]
    nonzero_groups: List[Tuple[int, int]]
    max_age: int

    @property
    def n_free_bits(self) -> int:
        """Free randomness bits (``k``)."""
        return len(self.free_vars)

    @property
    def n_secret_bits(self) -> int:
        """Used secret bits (``u``)."""
        return len(self.used_secret_bits)

    @property
    def total_bits(self) -> int:
        """Total enumeration bits (``k + u``)."""
        return self.n_free_bits + self.n_secret_bits

    @property
    def n_valid_assignments(self) -> int:
        """Assignments whose enumerated non-zero bytes are all non-zero.

        Exactly the number of counts a complete histogram holds:
        ``2^(k + u - 8g) * 255^g`` for ``g`` enumerated non-zero bytes.
        """
        g = len(self.nonzero_groups)
        return (1 << (self.total_bits - 8 * g)) * 255**g

    @property
    def key(self) -> Tuple:
        """Hashable identity: classes with equal keys share one stimulus."""
        return (
            tuple(self.free_vars),
            tuple(self.used_secret_bits),
            tuple(self.share_groups),
            tuple(self.nonzero_groups),
            self.max_age,
        )


class ExactAnalyzer(engine_registry.EngineOwner):
    """Exhaustive per-secret distribution analysis of probe classes."""

    def __init__(
        self,
        dut: DesignUnderTest,
        model: ProbingModel = ProbingModel.GLITCH,
        max_enum_bits: int = 24,
        engine: str = engine_registry.DEFAULT_ENGINE,
    ):
        self.dut = dut
        self.model = model
        self.max_enum_bits = max_enum_bits
        # Simulation engine for shard enumeration, resolved through
        # repro.engines; every registered engine is bit-identical, so
        # shard counts (and hence certificates) never depend on it.
        self._init_engine(engine)
        self.probe_classes, self.wide_classes = extract_probe_classes(
            dut.netlist, model, max_support_bits=40
        )
        self._setups: Dict[ProbeClass, EnumerationSetup] = {}
        #: per setup key: each cycle's drive table, and the pattern rows
        #: of every enumerated non-zero byte (:meth:`_drives`).
        self._drive_tables: Dict[Tuple, Tuple[List, List[List[int]]]] = {}
        #: per ``(probe class, observed cycle)``: its :func:`_count_spec`.
        self._specs: Dict[Tuple[ProbeClass, int], object] = {}
        #: the last shard simulator and its ``(engine, n_lanes, record
        #: nets)`` key: a sweep's tasks arrive setup by setup, so one entry
        #: serves every shard of a setup; never pickled.
        self._simulator: Optional[Tuple[Tuple, object]] = None

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        state["_simulator"] = None
        return state

    # -------------------------------------------------------- var collection

    def _collect_variables(self, probe_class: ProbeClass):
        """Free enumeration variables and used secret bits for a probe."""
        dut = self.dut
        raw_vars: Set[Tuple[int, int]] = set()
        for net in probe_class.support:
            base = transitive_input_support(dut.netlist, net, MAX_WINDOW)
            for back in probe_class.cycles_back:
                raw_vars.update((pi, age + back) for pi, age in base)

        share_groups: Set[Tuple[int, int]] = set()  # (bit, age)
        mask_vars: Set[Tuple[int, int]] = set()  # (net, age)
        uniform_vars: Set[Tuple[Tuple[int, int], int]] = set()
        nonzero_groups: Set[Tuple[int, int]] = set()  # (bus, age)
        roles = dut.input_roles
        for pi, age in raw_vars:
            kind, detail = roles[pi]
            if kind == "share":
                _, bit = detail
                share_groups.add((bit, age))
            elif kind == "mask":
                mask_vars.add((pi, age))
            elif kind == "uniform":
                uniform_vars.add((detail, age))
            else:  # nonzero
                bus_index, _ = detail
                nonzero_groups.add((bus_index, age))

        n_free_shares = dut.n_shares - 1
        free_vars: List[Var] = []
        for bit, age in sorted(share_groups):
            for share in range(n_free_shares):
                free_vars.append((("share", share, bit), age))
        for net, age in sorted(mask_vars):
            free_vars.append((("mask", net), age))
        for detail, age in sorted(uniform_vars):
            free_vars.append((("uniform", detail), age))
        for bus_index, age in sorted(nonzero_groups):
            for bit in range(8):
                free_vars.append((("nonzero", bus_index, bit), age))

        used_secret_bits = sorted({bit for bit, _ in share_groups})
        max_age = max((age for _, age in raw_vars), default=0)
        max_age = max(max_age, max(probe_class.cycles_back))
        return free_vars, used_secret_bits, sorted(share_groups), sorted(
            nonzero_groups
        ), max_age

    # ------------------------------------------------------------- analysis

    def enumeration_setup(self, probe_class: ProbeClass) -> EnumerationSetup:
        """Resolve the enumeration variables of a probe class.

        Raises :class:`ExactAnalysisInfeasible` -- carrying the probe name,
        its required bit count and the configured budget -- when the class
        exceeds ``max_enum_bits``.  The setup is computed once per class
        and memoized, so every shard of a sweep reuses it.
        """
        setup = self._setups.get(probe_class)
        if setup is None:
            (
                free_vars,
                used_secret_bits,
                share_groups,
                nonzero_groups,
                max_age,
            ) = self._collect_variables(probe_class)
            setup = EnumerationSetup(
                free_vars=free_vars,
                used_secret_bits=used_secret_bits,
                share_groups=share_groups,
                nonzero_groups=nonzero_groups,
                max_age=max_age,
            )
            self._setups[probe_class] = setup
        if setup.total_bits > self.max_enum_bits:
            probe = probe_class.member_names(self.dut.netlist)
            raise ExactAnalysisInfeasible(
                f"probe {probe} needs {setup.total_bits} enumeration bits "
                f"(> {self.max_enum_bits})",
                probe=probe,
                needed_bits=setup.total_bits,
                budget=self.max_enum_bits,
            )
        return setup

    def count_shard(
        self,
        probe_classes: Sequence[ProbeClass],
        shard_index: int = 0,
        shard_lane_bits: Optional[int] = None,
        setup: Optional[EnumerationSetup] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Exact observation counts of probe classes over one shard.

        The classes must share one enumeration setup (``setup``, or the
        first class's): the stimulus depends only on it and the shard, so
        one simulation recording the union of their supports and cycles
        serves them all.  With ``shard_lane_bits=None`` the single shard
        covers the whole space (the serial path).  Returns one ``(keys,
        rows, counts)`` triple per class, in order: the sorted unique
        observation keys seen on *valid* lanes, the occupied secret rows,
        and the ``(len(rows), len(keys))`` count matrix.  Counts from all
        shards of a class merge -- by key union and elementwise addition --
        to exactly the single-shot histogram.
        """
        probe_classes = list(probe_classes)
        if setup is None:
            setup = self.enumeration_setup(probe_classes[0])
        total_bits = setup.total_bits
        lane_bits = (
            total_bits
            if shard_lane_bits is None
            else min(shard_lane_bits, total_bits)
        )
        n_lanes = 1 << lane_bits
        n_words = (n_lanes + 63) // 64
        patterns = _shard_patterns(total_bits, lane_bits, shard_index)
        zeros = np.zeros(n_words, dtype=np.uint64)
        ones = ~zeros
        drives, nonzero_rows = self._drives(setup)

        def stimulus(cycle: int) -> Dict[int, np.ndarray]:
            zero_nets, one_nets, row_nets, xor_nets = drives[cycle]
            values = dict.fromkeys(zero_nets, zeros)
            values.update(dict.fromkeys(one_nets, ones))
            values.update((net, patterns[row]) for net, row in row_nets)
            # Chained XORs: np.bitwise_xor.reduce over a gathered copy of
            # the rows made whole sweeps about 40% slower (performance.md
            # section 9).
            for net, (first, second, *rest) in xor_nets:
                word = patterns[first] ^ patterns[second]
                for row in rest:
                    word ^= patterns[row]
                values[net] = word
            return values

        observe_cycle = setup.max_age  # observation at the last cycle
        record_nets = sorted(
            {net for probe_class in probe_classes for net in probe_class.support}
        )
        key = (self.engine, n_lanes, tuple(record_nets))
        if self._simulator is None or self._simulator[0] != key:
            simulator, _ = engine_registry.build_simulator(
                self.engine, self.dut.netlist, n_lanes,
                record_nets=record_nets,
                on_degrade=self._on_degrade,
            )
            self._simulator = key, simulator
        simulator = self._simulator[1]
        trace = simulator.run(
            stimulus,
            observe_cycle + 1,
            record_nets=record_nets,
            record_cycles={
                observe_cycle - back
                for probe_class in probe_classes
                for back in probe_class.cycles_back
            },
        )
        specs = []
        for probe_class in probe_classes:
            spec = self._specs.get((probe_class, observe_cycle))
            if spec is None:
                spec = _count_spec(probe_class, [observe_cycle], None)
                self._specs[probe_class, observe_cycle] = spec
            specs.append(spec)
        return _count_trace(
            trace, specs, patterns, nonzero_rows,
            setup.n_free_bits, setup.n_secret_bits, shard_index,
        )

    def _drives(self, setup: EnumerationSetup) -> Tuple[List, List[List[int]]]:
        """How a shard's patterns drive the inputs, once per setup.

        Returns ``(drives, nonzero_rows)``.  ``drives[cycle]`` is
        ``(zero_nets, one_nets, row_nets, xor_nets)``: nets taking the
        all-zeros or all-ones word, ``(net, row)`` taking one pattern row,
        and ``(net, rows)`` taking the XOR of several -- the last share of
        an enumerated share bit, its secret bit XOR the free shares.
        Every input net appears once per cycle.  ``nonzero_rows`` holds
        the pattern rows of each enumerated non-zero byte.
        """
        cached = self._drive_tables.get(setup.key)
        if cached is not None:
            return cached
        dut = self.dut
        k = setup.n_free_bits
        var_index = {var: i for i, var in enumerate(setup.free_vars)}
        secret_index = {
            bit: k + i for i, bit in enumerate(setup.used_secret_bits)
        }
        share_groups = set(setup.share_groups)
        last_share = dut.n_shares - 1
        drives = []
        for cycle in range(setup.max_age + 1):
            age = setup.max_age - cycle
            # Per input net: the pattern rows whose XOR drives it (none:
            # the all-zeros word), or None for the all-ones word.
            sources: Dict[int, Optional[List[int]]] = {}
            for share, bus in enumerate(dut.share_buses):
                for bit, net in enumerate(bus):
                    secret = [secret_index[bit]] if bit in secret_index else []
                    if (bit, age) not in share_groups:
                        # Consistent sharing of the same secret: shares
                        # 0..d-1 are zero, the last carries the secret bit.
                        sources[net] = secret if share == last_share else []
                    elif share < last_share:
                        sources[net] = [
                            var_index[(("share", share, bit), age)]
                        ]
                    else:
                        sources[net] = secret + [
                            var_index[(("share", other, bit), age)]
                            for other in range(last_share)
                        ]
            for net in dut.mask_bits:
                var = (("mask", net), age)
                sources[net] = [var_index[var]] if var in var_index else []
            for bus_index, bus in enumerate(dut.uniform_byte_buses):
                for bit, net in enumerate(bus):
                    var = (("uniform", (bus_index, bit)), age)
                    sources[net] = [var_index[var]] if var in var_index else []
            for bus_index, bus in enumerate(dut.nonzero_byte_buses):
                enumerated = (bus_index, age) in setup.nonzero_groups
                for bit, net in enumerate(bus):
                    if enumerated:
                        var = (("nonzero", bus_index, bit), age)
                        sources[net] = [var_index[var]]
                    else:
                        # Unobserved non-zero byte: any valid constant works.
                        sources[net] = None if bit == 0 else []
            drives.append((
                [net for net, rows in sources.items() if rows == []],
                [net for net, rows in sources.items() if rows is None],
                [(net, rows[0]) for net, rows in sources.items()
                 if rows and len(rows) == 1],
                [(net, rows) for net, rows in sources.items()
                 if rows and len(rows) > 1],
            ))
        nonzero_rows = [
            [var_index[(("nonzero", bus_index, bit), age)] for bit in range(8)]
            for bus_index, age in setup.nonzero_groups
        ]
        self._drive_tables[setup.key] = drives, nonzero_rows
        return drives, nonzero_rows

    def finalize(
        self,
        probe_class: ProbeClass,
        setup: EnumerationSetup,
        histogram: np.ndarray,
        fixed_secret: int = 0,
    ) -> ExactProbeResult:
        """Verdict from a full ``(2^u, n_keys)`` exact-count histogram.

        The same code runs on the serial single-shot histogram and on the
        merged shard counts, so sharded and serial sweeps are bit-identical
        by construction.  A histogram not holding exactly one count per
        valid assignment (:attr:`EnumerationSetup.n_valid_assignments`)
        -- a lost or doubled shard merge -- raises
        :class:`SimulationError` instead of becoming a verdict.
        """
        netlist = self.dut.netlist
        total = int(histogram.sum())
        if total != setup.n_valid_assignments:
            raise SimulationError(
                f"exact histogram of {probe_class.member_names(netlist)} "
                f"holds {total} counts, expected "
                f"{setup.n_valid_assignments}"
            )
        used_secret_bits = setup.used_secret_bits
        distinct = (
            int(np.unique(histogram, axis=0).shape[0])
            if histogram.shape[1]
            else 1
        )
        leaking = distinct > 1

        fixed_row = 0
        for i, bit in enumerate(used_secret_bits):
            fixed_row |= ((fixed_secret >> bit) & 1) << i
        totals = histogram.sum(axis=1)
        fixed_dist = histogram[fixed_row] / max(int(totals[fixed_row]), 1)
        mixture = histogram.sum(axis=0) / max(int(totals.sum()), 1)
        tv = 0.5 * float(np.abs(fixed_dist - mixture).sum())

        return ExactProbeResult(
            probe_names=probe_class.member_names(netlist),
            support_names=tuple(probe_class.support_names(netlist)),
            n_random_bits=setup.n_free_bits,
            n_secret_bits=setup.n_secret_bits,
            leaking=leaking,
            tv_fixed_vs_random=tv,
            n_distinct_distributions=distinct,
        )

    def analyze_probe_class(
        self, probe_class: ProbeClass, fixed_secret: int = 0
    ) -> ExactProbeResult:
        """Exactly analyze one probe class; raises if infeasible."""
        setup = self.enumeration_setup(probe_class)
        [(unique_keys, occupied, counts)] = self.count_shard(
            [probe_class], setup=setup
        )
        n_secrets = 1 << setup.n_secret_bits
        histogram = np.zeros(
            (n_secrets, unique_keys.size), dtype=np.int64
        )
        histogram[occupied] = counts
        return self.finalize(probe_class, setup, histogram, fixed_secret)

    def analyze(
        self,
        probe_classes: Optional[Sequence[ProbeClass]] = None,
        fixed_secret: int = 0,
    ) -> ExactReport:
        """Analyze all (or the given) probe classes."""
        classes = (
            list(probe_classes)
            if probe_classes is not None
            else self.probe_classes
        )
        netlist = self.dut.netlist
        report = ExactReport(
            design=self.dut.describe(),
            model=self.model.description,
            fixed_secret=fixed_secret,
        )
        for probe_class in classes:
            try:
                report.results.append(
                    self.analyze_probe_class(probe_class, fixed_secret)
                )
            except ExactAnalysisInfeasible as exc:
                report.infeasible.append(self.infeasible_entry(exc))
        for probe_class in self.wide_classes:
            report.infeasible.append(self.wide_class_entry(probe_class))
        return report

    def infeasible_entry(
        self, exc: ExactAnalysisInfeasible
    ) -> Dict[str, object]:
        """Report/telemetry detail for one over-budget probe class."""
        return {
            "probe": exc.probe,
            "needed_bits": exc.needed_bits,
            "budget": exc.budget if exc.budget is not None else self.max_enum_bits,
        }

    def wide_class_entry(self, probe_class: ProbeClass) -> Dict[str, object]:
        """Detail entry for a probe class too wide to even set up."""
        netlist = self.dut.netlist
        try:
            setup = self.enumeration_setup(probe_class)
            needed: Optional[int] = setup.total_bits
        except ExactAnalysisInfeasible as exc:
            needed = exc.needed_bits
        return {
            "probe": probe_class.member_names(netlist),
            "needed_bits": needed,
            "budget": self.max_enum_bits,
        }

    def probe_class_for_net(self, net: int) -> ProbeClass:
        """Find the probe class containing a given net."""
        for probe_class in self.probe_classes + self.wide_classes:
            if net in probe_class.members:
                return probe_class
        raise ExactAnalysisInfeasible(f"no probe class contains net {net}")
