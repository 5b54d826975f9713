"""Exact verification at scale: sharded enumeration + compositional proofs.

Two engines turn the sampled verdicts of the evaluation campaigns into
*proofs*:

* :class:`ShardedExactAnalyzer` splits the ``2^k`` randomness/secret
  assignment space of each probe class into lane-aligned shards, executes
  them across worker processes, and merges the per-shard exact counts --
  bit-identical to the serial single-shot enumeration for any shard size or
  worker count, with checkpoint/resume in the campaign container format.
  This raises the feasible enumeration budget well past what a single
  bitsliced call can hold in memory.

* :class:`CompositionalChecker` decomposes a hierarchical netlist into its
  registered gadget regions (:func:`repro.netlist.topo.gadget_regions`),
  runs the :mod:`repro.leakage.sni` enumeration per gadget -- classic
  (stable-value) probes in isolation, glitch-robust probes on the gadget's
  register-bounded fan-in slice -- and applies first-order composition
  rules to emit a whole-circuit certificate or a concrete counterexample
  probe set.  Because regions partition the cells, a single probe lies in
  exactly one region, so "every region's probes are 1-NI on its slice"
  implies first-order glitch-robust probing security of the whole circuit;
  gadgets failing the (deliberately conservative) NI check fall back to
  exact per-probe-class enumeration, which decides them.  Randomness reuse
  across gadgets -- the paper's subject -- is detected from the mask
  fan-in footprints and reported alongside the violations it causes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import engines as engine_registry
from repro.errors import (
    CheckpointCorrupt,
    CheckpointError,
    ExactAnalysisInfeasible,
    MaskingError,
)
from repro.leakage.dut import DesignUnderTest
from repro.leakage.exact import EnumerationSetup, ExactAnalyzer, ExactReport
from repro.leakage.model import ProbingModel
from repro.leakage.parallel import (
    PoolRunner,
    effective_workers,
    exact_dispatch,
)
from repro.leakage.probes import ProbeClass
from repro.leakage.sni import (
    GadgetSpec,
    PiniResult,
    SniChecker,
    SniResult,
)
from repro.netlist.core import netlist_content_hash
from repro.netlist.topo import (
    GadgetRegion,
    extract_subnetlist,
    fanin_cells,
    gadget_regions,
    sequential_depth,
    transitive_input_support,
)

Hook = Callable[[str, Dict], None]

#: ``(class_indices, shard_index, lane_bits)``: classes sharing one
#: enumeration setup, counted from one simulation of one shard.
ShardTask = Tuple[Tuple[int, ...], int, int]

#: Default lanes-per-shard exponent: 2^16 lanes keep one shard's simulation
#: comfortably in cache while amortizing task dispatch.
DEFAULT_SHARD_LANE_BITS = 16

#: Smallest allowed shard: 2^6 = 64 lanes = exactly one simulator word, so
#: shard boundaries never split a lane word.
MIN_SHARD_LANE_BITS = 6


# --------------------------------------------------------------- shard plan


@dataclass(frozen=True)
class ShardPlan:
    """Lane-aligned split of one probe class's assignment space."""

    total_bits: int
    lane_bits: int

    @property
    def n_shards(self) -> int:
        """Number of shards covering the space."""
        return 1 << (self.total_bits - self.lane_bits)

    @property
    def lanes_per_shard(self) -> int:
        """Lanes simulated per shard."""
        return 1 << self.lane_bits

    @classmethod
    def plan(cls, total_bits: int, shard_lane_bits: int) -> "ShardPlan":
        """Shard a ``2^total_bits`` space into ``2^shard_lane_bits`` lanes.

        Requests below :data:`MIN_SHARD_LANE_BITS` are raised to it so a
        shard is always a whole number of 64-lane simulator words; a space
        smaller than one shard degrades to a single (serial) shard.
        """
        effective = max(MIN_SHARD_LANE_BITS, shard_lane_bits)
        return cls(
            total_bits=total_bits, lane_bits=min(effective, total_bits)
        )


def merge_shard_counts(
    keys: np.ndarray,
    histogram: np.ndarray,
    shard_keys: np.ndarray,
    shard_rows: np.ndarray,
    shard_counts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold one shard's ``(keys, rows, counts)`` into the running histogram.

    ``keys`` is the sorted union of observation keys seen so far and
    ``histogram`` the full ``(2^u, len(keys))`` count matrix.  Merging is a
    sorted key union plus elementwise addition -- commutative and
    associative, so any merge order (and any shard plan) produces the same
    final table as the serial single-shot enumeration.
    """
    union = np.union1d(keys, shard_keys)
    if union.size != keys.size:
        expanded = np.zeros((histogram.shape[0], union.size), dtype=np.int64)
        expanded[:, np.searchsorted(union, keys)] = histogram
        histogram = expanded
        keys = union
    if shard_keys.size:
        positions = np.searchsorted(keys, shard_keys)
        histogram[np.ix_(shard_rows, positions)] += shard_counts
    return keys, histogram


def _unpack_classes(
    classes: Dict[int, Dict], keys: np.ndarray, hist: np.ndarray
) -> Dict[int, Dict]:
    """Split a version-2 checkpoint's packed ``keys``/``hist`` per class."""
    state: Dict[int, Dict] = {}
    key_at = hist_at = 0
    for ci in sorted(classes):
        entry = classes[ci]
        n_keys, n_rows = int(entry["n_keys"]), int(entry["n_rows"])
        if n_keys < 0 or n_rows < 0:
            raise CheckpointCorrupt(f"checkpoint class {ci}: negative sizes")
        state[ci] = {
            "done": set(entry["done"]),
            "keys": keys[key_at:key_at + n_keys],
            "histogram": hist[hist_at:hist_at + n_rows * n_keys].reshape(
                n_rows, n_keys
            ),
        }
        key_at += n_keys
        hist_at += n_rows * n_keys
    if (key_at, hist_at) != (keys.size, hist.size):
        raise CheckpointCorrupt(
            "checkpoint packed arrays do not match the class sizes"
        )
    return state


# ------------------------------------------------------------ shard tasks


def _not_done(
    pending: List[ShardTask],
    is_done: Callable[[int, int], bool],
) -> List[ShardTask]:
    """``pending`` without the class shards already merged."""
    remaining = []
    for class_indices, shard_index, lane_bits in pending:
        todo = tuple(ci for ci in class_indices if not is_done(ci, shard_index))
        if todo:
            remaining.append((todo, shard_index, lane_bits))
    return remaining


# ------------------------------------------------------------ sharded engine


class ShardedExactAnalyzer:
    """Parallel, checkpointed exhaustive enumeration of probe classes.

    Wraps an :class:`ExactAnalyzer` and runs each probe class's shard plan
    serially, or as ``exact_shard`` work items on the local process pool
    (``workers > 1``) or a caller's runner (``dispatch``, see
    :func:`repro.leakage.parallel.exact_dispatch`).  Classes with equal
    enumeration setups share their stimulus, so one simulation per
    ``(setup, shard)`` counts all of them.  Exact-count merges commute, so
    results are bit-identical to the serial analyzer for any worker count.
    Checkpoints use the campaign CRC container (:func:`pack_checkpoint`):
    per-class merged histograms plus the set of completed shards,
    fingerprinted by the netlist hash and analysis configuration.
    """

    def __init__(
        self,
        dut: DesignUnderTest,
        model: ProbingModel = ProbingModel.GLITCH,
        max_enum_bits: int = 24,
        shard_lane_bits: int = DEFAULT_SHARD_LANE_BITS,
        max_window: int = 12,
        checkpoint_every: int = 8,
        engine: str = engine_registry.DEFAULT_ENGINE,
    ):
        self.analyzer = ExactAnalyzer(
            dut, model, max_enum_bits=max_enum_bits, max_window=max_window,
            engine=engine,
        )
        self.shard_lane_bits = shard_lane_bits
        self.checkpoint_every = max(1, checkpoint_every)

    @property
    def dut(self) -> DesignUnderTest:
        """The analyzed design."""
        return self.analyzer.dut

    def shard_plan(self, probe_class: ProbeClass) -> ShardPlan:
        """The shard plan for one probe class (raises when infeasible)."""
        setup = self.analyzer.enumeration_setup(probe_class)
        return ShardPlan.plan(setup.total_bits, self.shard_lane_bits)

    # -------------------------------------------------------- checkpointing

    def _fingerprint(self, fixed_secret: int) -> str:
        blob = json.dumps(
            {
                "kind": "exact-shards",
                "netlist": netlist_content_hash(self.analyzer.dut.netlist),
                "model": self.analyzer.model.name,
                "max_enum_bits": self.analyzer.max_enum_bits,
                "shard_lane_bits": self.shard_lane_bits,
                "fixed_secret": fixed_secret,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _save_checkpoint(
        self, path: str, state: Dict[int, Dict], fingerprint: str
    ) -> None:
        """Write ``state`` in the packed layout (version 2).

        Three members whatever the class count: ``meta`` (per-class
        ``done``, ``n_keys``, ``n_rows``), ``keys`` (every class's keys)
        and ``hist`` (every class's flattened histogram), both
        concatenated in ascending class order.
        """
        from repro.leakage.campaign import pack_checkpoint

        order = sorted(state)
        meta = {
            "version": 2,
            "kind": "exact-shards",
            "fingerprint": fingerprint,
            "classes": {
                str(ci): {
                    "done": sorted(state[ci]["done"]),
                    "n_keys": int(state[ci]["keys"].size),
                    "n_rows": int(state[ci]["histogram"].shape[0]),
                }
                for ci in order
            },
        }
        buffer = io.BytesIO()
        np.savez(
            buffer,
            meta=np.frombuffer(
                json.dumps(meta, sort_keys=True).encode("utf-8"),
                dtype=np.uint8,
            ),
            keys=np.concatenate(
                [np.zeros(0, np.uint64)] + [state[ci]["keys"] for ci in order]
            ),
            hist=np.concatenate(
                [np.zeros(0, np.int64)]
                + [state[ci]["histogram"].ravel() for ci in order]
            ),
        )
        blob = pack_checkpoint(buffer.getvalue())
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _load_checkpoint(
        self, path: str, fingerprint: str, hook: Optional[Hook]
    ) -> Dict[int, Dict]:
        if not os.path.exists(path):
            return {}
        try:
            return self._read_checkpoint(path, fingerprint)
        except CheckpointCorrupt:
            quarantine = path + ".corrupt"
            os.replace(path, quarantine)
            if hook is not None:
                hook(
                    "checkpoint_corrupt",
                    {"path": path, "quarantined": quarantine},
                )
            return {}

    def _read_checkpoint(self, path: str, fingerprint: str) -> Dict[int, Dict]:
        """Parse and validate a version 1 or 2 checkpoint.

        A fingerprint or version mismatch raises :class:`CheckpointError`.
        Anything else wrong -- container, zip, meta, a missing member, or
        counts this analysis cannot have produced -- raises
        :class:`CheckpointCorrupt`.
        """
        from repro.leakage.campaign import unpack_checkpoint

        with open(path, "rb") as handle:
            blob = handle.read()
        payload = unpack_checkpoint(blob, path)
        try:
            with np.load(io.BytesIO(payload)) as data:
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                if meta.get("fingerprint") != fingerprint:
                    raise CheckpointError(
                        f"checkpoint {path} was written by a differently-"
                        "configured exact analysis; refusing to resume"
                    )
                classes = {
                    int(key): entry for key, entry in meta["classes"].items()
                }
                if meta.get("version") == 1:
                    state = {
                        ci: {
                            "done": set(entry["done"]),
                            "keys": np.array(data[f"keys_{ci}"]),
                            "histogram": np.array(data[f"hist_{ci}"]),
                        }
                        for ci, entry in classes.items()
                    }
                elif meta.get("version") == 2:
                    state = _unpack_classes(
                        classes, np.array(data["keys"]), np.array(data["hist"])
                    )
                else:
                    raise CheckpointError(
                        f"checkpoint {path} has version "
                        f"{meta.get('version')!r}, expected 1 or 2"
                    )
            for ci, entry in state.items():
                self._check_entry(ci, entry)
        except CheckpointError:
            raise
        except Exception as exc:  # zip/JSON/key/shape errors -> corrupt file
            raise CheckpointCorrupt(
                f"could not parse checkpoint {path!r}: {exc}"
            ) from exc
        return state

    def _check_entry(self, ci: int, entry: Dict) -> None:
        """Reject a loaded class whose counts this analysis cannot produce."""
        all_classes = self.analyzer.probe_classes
        if not 0 <= ci < len(all_classes):
            raise CheckpointCorrupt(f"checkpoint names unknown class {ci}")
        try:
            setup = self.analyzer.enumeration_setup(all_classes[ci])
        except ExactAnalysisInfeasible as exc:
            raise CheckpointCorrupt(
                f"checkpoint holds counts of infeasible class {ci}"
            ) from exc
        plan = ShardPlan.plan(setup.total_bits, self.shard_lane_bits)
        keys, histogram, done = entry["keys"], entry["histogram"], entry["done"]
        problem = None
        if keys.dtype != np.uint64 or keys.ndim != 1 or (
            keys[1:] <= keys[:-1]
        ).any():
            problem = "keys are not strictly ascending uint64"
        elif histogram.dtype != np.int64 or histogram.shape != (
            1 << setup.n_secret_bits,
            keys.size,
        ):
            problem = f"histogram of shape {histogram.shape}"
        elif (histogram < 0).any():
            problem = "negative counts"
        elif not all(
            isinstance(si, int) and 0 <= si < plan.n_shards for si in done
        ):
            problem = f"done shards outside range({plan.n_shards})"
        else:
            total = int(histogram.sum())
            if len(done) == plan.n_shards:
                if total != setup.n_valid_assignments:
                    problem = (
                        f"complete with {total} counts, expected "
                        f"{setup.n_valid_assignments}"
                    )
            elif total > len(done) * plan.lanes_per_shard:
                problem = f"{total} counts from {len(done)} shards"
        if problem is not None:
            raise CheckpointCorrupt(f"checkpoint class {ci}: {problem}")

    # ------------------------------------------------------------- analysis

    def analyze(
        self,
        probe_classes: Optional[Sequence[ProbeClass]] = None,
        fixed_secret: int = 0,
        workers: int = 1,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        hook: Optional[Hook] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        dispatch: Optional[Callable] = None,
    ) -> ExactReport:
        """Run the sharded exact sweep.

        ``checkpoint`` names a container file written every
        ``checkpoint_every`` class-shard merges and at the end; with
        ``resume=True`` a matching checkpoint's completed class shards are
        not recomputed.  ``should_stop`` is polled between shard tasks; a
        stop saves the checkpoint and returns a
        ``status="truncated:cancelled"`` report covering the classes that
        finished.  A shard task is ``(class_indices, shard_index,
        lane_bits)``: the not-yet-done classes of one enumeration setup,
        counted from one simulation of one shard.  ``workers > 1`` runs
        them on the local process pool, capped at the CPU count like
        campaign workers.  ``dispatch`` replaces the execution backend
        (the service binds :func:`~repro.leakage.parallel.exact_dispatch`
        to its fleet): called as ``dispatch(pending, merge, should_stop)
        -> stopped`` with the pending task tuples, and ``merge(class_index,
        shard_index, keys, rows, counts)`` per class -- shard-count merging
        commutes, so any completion order yields identical final
        histograms.
        """
        analyzer = self.analyzer
        all_classes = analyzer.probe_classes
        if probe_classes is None:
            selected = list(range(len(all_classes)))
        else:
            index_of = {pc: i for i, pc in enumerate(all_classes)}
            selected = [index_of[pc] for pc in probe_classes]

        report = ExactReport(
            design=analyzer.dut.describe(),
            model=analyzer.model.description,
            fixed_secret=fixed_secret,
        )

        setups: Dict[int, EnumerationSetup] = {}
        plans: Dict[int, ShardPlan] = {}
        for ci in selected:
            try:
                setup = analyzer.enumeration_setup(all_classes[ci])
            except ExactAnalysisInfeasible as exc:
                entry = analyzer.infeasible_entry(exc)
                report.infeasible.append(entry)
                self._emit(hook, "probe_infeasible", dict(entry))
                continue
            setups[ci] = setup
            plans[ci] = ShardPlan.plan(setup.total_bits, self.shard_lane_bits)
        for probe_class in analyzer.wide_classes:
            entry = analyzer.wide_class_entry(probe_class)
            report.infeasible.append(entry)
            self._emit(hook, "probe_infeasible", dict(entry))

        fingerprint = self._fingerprint(fixed_secret)
        state: Dict[int, Dict] = {}
        if checkpoint and resume:
            state = self._load_checkpoint(checkpoint, fingerprint, hook)

        groups: Dict[Tuple, List[int]] = {}
        for ci, setup in setups.items():
            state.setdefault(
                ci,
                {
                    "done": set(),
                    "keys": np.zeros(0, dtype=np.uint64),
                    "histogram": np.zeros(
                        (1 << setup.n_secret_bits, 0), dtype=np.int64
                    ),
                },
            )
            groups.setdefault(setup.key, []).append(ci)

        def is_done(ci: int, si: int) -> bool:
            return si in state[ci]["done"]

        tasks = _not_done(
            [
                (tuple(members), si, plans[members[0]].lane_bits)
                for members in groups.values()
                for si in range(plans[members[0]].n_shards)
            ],
            is_done,
        )

        self._emit(
            hook,
            "certify_start",
            {
                "n_probe_classes": len(setups),
                "n_shards": sum(len(task[0]) for task in tasks),
                "n_tasks": len(tasks),
                "n_infeasible": len(report.infeasible),
                "workers": workers,
                "resumed_shards": sum(
                    len(entry["done"]) for entry in state.values()
                ),
            },
        )

        stopped = False
        merges_since_save = 0

        def merge(ci: int, si: int, keys, rows, counts) -> None:
            nonlocal merges_since_save
            entry = state[ci]
            entry["keys"], entry["histogram"] = merge_shard_counts(
                entry["keys"], entry["histogram"], keys, rows, counts
            )
            entry["done"].add(si)
            merges_since_save += 1
            self._emit(
                hook,
                "shard_done",
                {
                    "probe_class": ci,
                    "shard": si,
                    "done": len(entry["done"]),
                    "total": plans[ci].n_shards,
                },
            )
            if checkpoint and merges_since_save >= self.checkpoint_every:
                self._save_checkpoint(checkpoint, state, fingerprint)
                merges_since_save = 0
                self._emit(hook, "checkpoint_saved", {"path": checkpoint})

        if tasks:
            stopped = self._run_tasks(
                tasks,
                workers,
                merge,
                hook,
                should_stop,
                dispatch=dispatch,
            )

        for ci in selected:
            if ci not in setups:
                continue
            entry = state[ci]
            if len(entry["done"]) < plans[ci].n_shards:
                continue  # truncated before completion
            report.results.append(
                analyzer.finalize(
                    all_classes[ci],
                    setups[ci],
                    entry["histogram"],
                    fixed_secret,
                )
            )

        if stopped:
            report.status = "truncated:cancelled"
        if checkpoint and (stopped or merges_since_save):
            self._save_checkpoint(checkpoint, state, fingerprint)

        self._emit(
            hook,
            "certify_end",
            {
                "status": report.status,
                "passed": report.passed,
                "n_results": len(report.results),
                "n_infeasible": len(report.infeasible),
            },
        )
        return report

    def _run_tasks(
        self,
        pending: List[ShardTask],
        workers: int,
        merge: Callable,
        hook: Optional[Hook],
        should_stop: Optional[Callable[[], bool]],
        dispatch: Optional[Callable] = None,
    ) -> bool:
        """Execute shard tasks: through ``dispatch``, the local process
        pool, or serially in-process.  True when stopped."""
        if dispatch is not None:
            return bool(dispatch(pending, merge, should_stop))
        if workers > 1:
            effective = effective_workers(workers)
            if effective == 1:
                self._emit(
                    hook,
                    "degradation",
                    {
                        "kind": "degraded_serial",
                        "detail": f"requested {workers} workers but only 1 "
                        "is effective on this host; running serially",
                    },
                )
                self._emit(
                    hook,
                    "degraded_serial",
                    {"requested_workers": workers, "effective_workers": 1},
                )
            workers = effective
        if workers > 1 and len(pending) > 1:
            with PoolRunner(self.analyzer, workers, hook=hook) as runner:
                return exact_dispatch(runner)(pending, merge, should_stop)
        return self._run_serial(pending, merge, should_stop)

    def _run_serial(
        self,
        pending: List[ShardTask],
        merge: Callable,
        should_stop: Optional[Callable[[], bool]],
    ) -> bool:
        analyzer = self.analyzer
        for class_indices, si, lane_bits in pending:
            counts = analyzer.count_shard(
                [analyzer.probe_classes[ci] for ci in class_indices],
                shard_index=si,
                shard_lane_bits=lane_bits,
            )
            for ci, (keys, rows, table) in zip(class_indices, counts):
                merge(ci, si, keys, rows, table)
            if should_stop is not None and should_stop():
                return True
        return False

    @staticmethod
    def _emit(hook: Optional[Hook], event: str, payload: Dict) -> None:
        if hook is not None:
            hook(event, payload)


def run_exact_analysis(
    dut: DesignUnderTest,
    model: ProbingModel = ProbingModel.GLITCH,
    max_enum_bits: int = 24,
    shard_lane_bits: int = DEFAULT_SHARD_LANE_BITS,
    workers: int = 1,
    fixed_secret: int = 0,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    hook: Optional[Hook] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    dispatch: Optional[Callable] = None,
    engine: str = engine_registry.DEFAULT_ENGINE,
) -> ExactReport:
    """One-call sharded exact sweep (the ``mode="exact"`` service path)."""
    sharded = ShardedExactAnalyzer(
        dut,
        model,
        max_enum_bits=max_enum_bits,
        shard_lane_bits=shard_lane_bits,
        engine=engine,
    )
    return sharded.analyze(
        fixed_secret=fixed_secret,
        workers=workers,
        checkpoint=checkpoint,
        resume=resume,
        hook=hook,
        should_stop=should_stop,
        dispatch=dispatch,
    )


# ------------------------------------------------------- compositional check


@dataclass
class GadgetVerdict:
    """Per-gadget outcome of the compositional check."""

    name: str
    #: "shares" for gadgets computing on secret shares, "masks" for pure
    #: randomness logic (derived-mask registers), which is secret-free by
    #: construction and carries no checks.
    kind: str
    n_cells: int
    n_values: int
    n_shares: int
    mask_names: Tuple[str, ...] = ()
    classic: Optional[SniResult] = None
    robust: Optional[SniResult] = None
    pini: Optional[PiniResult] = None
    obstruction: Optional[str] = None
    #: verdict of the exact-enumeration fallback: ``True`` when every probe
    #: class of this gadget has a secret-independent distribution (the
    #: slice-NI failure was conservative), ``False`` when a class leaks,
    #: ``None`` when the fallback did not run.
    exact_confirmed: Optional[bool] = None
    exact_note: Optional[str] = None

    def summary(self) -> str:
        """One line per gadget."""
        if self.kind == "masks":
            return f"{self.name}: randomness logic ({self.n_cells} cells)"
        if self.obstruction:
            return f"{self.name}: OBSTRUCTION -- {self.obstruction}"
        parts = []
        if self.classic is not None:
            parts.append(
                f"classic NI={'yes' if self.classic.is_ni else 'NO'} "
                f"SNI={'yes' if self.classic.is_sni else 'NO'}"
            )
        if self.pini is not None:
            parts.append(f"PINI={'yes' if self.pini.is_pini else 'NO'}")
        if self.robust is not None:
            parts.append(
                f"robust-slice NI={'yes' if self.robust.is_ni else 'NO'}"
            )
        if self.exact_confirmed is not None:
            parts.append(
                "exact="
                + ("secret-independent" if self.exact_confirmed else "LEAKS")
            )
        return (
            f"{self.name}: {self.n_values}x{self.n_shares} shares, "
            f"masks={list(self.mask_names)}: " + ", ".join(parts)
        )


@dataclass
class CertificateReport:
    """Whole-circuit certificate or counterexample set."""

    design: str
    model: str
    order: int
    gadgets: List[GadgetVerdict] = field(default_factory=list)
    #: masks consumed (directly or through derived-mask logic) by more than
    #: one gadget: ``{"mask": name, "gadgets": [names]}``.
    reused_masks: List[Dict[str, object]] = field(default_factory=list)
    obstructions: List[str] = field(default_factory=list)
    #: concrete failing probe sets, named on the original netlist:
    #: ``{"gadget", "probes", "required", "model"}``.
    counterexamples: List[Dict[str, object]] = field(default_factory=list)
    certified: bool = False

    @property
    def passed(self) -> bool:
        """Alias aligning with the evaluation reports."""
        return self.certified

    def to_dict(self) -> Dict:
        """Machine-readable certificate."""
        from repro.leakage.report import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "mode": "certificate",
            "design": self.design,
            "model": self.model,
            "order": self.order,
            "certified": self.certified,
            "passed": self.certified,
            "gadgets": [
                {
                    "name": g.name,
                    "kind": g.kind,
                    "n_cells": g.n_cells,
                    "n_values": g.n_values,
                    "n_shares": g.n_shares,
                    "masks": list(g.mask_names),
                    "classic_ni": g.classic.is_ni if g.classic else None,
                    "classic_sni": g.classic.is_sni if g.classic else None,
                    "pini": g.pini.is_pini if g.pini else None,
                    "robust_ni": g.robust.is_ni if g.robust else None,
                    "exact_confirmed": g.exact_confirmed,
                    "exact_note": g.exact_note,
                    "obstruction": g.obstruction,
                }
                for g in self.gadgets
            ],
            "reused_masks": list(self.reused_masks),
            "obstructions": list(self.obstructions),
            "counterexamples": list(self.counterexamples),
        }

    def format_summary(self) -> str:
        """Human-readable certificate."""
        verdict = (
            f"CERTIFIED (order-{self.order}, {self.model})"
            if self.certified
            else "NOT CERTIFIED"
        )
        lines = [
            f"=== Compositional certificate: {self.design} ===",
            f"  model:   {self.model}",
            f"  gadgets: {len(self.gadgets)}",
            f"  verdict: {verdict}",
        ]
        for entry in self.reused_masks:
            lines.append(
                f"  reused:  {entry['mask']} feeds "
                f"{', '.join(entry['gadgets'])}"
            )
        for obstruction in self.obstructions:
            lines.append(f"  cannot check: {obstruction}")
        for counterexample in self.counterexamples[:5]:
            lines.append(
                f"  counterexample [{counterexample['gadget']}]: probes "
                f"{', '.join(counterexample['probes'])} -- "
                f"{counterexample['detail']}"
            )
        for gadget in self.gadgets:
            lines.append("  " + gadget.summary())
        return "\n".join(lines)


class CompositionalChecker:
    """Per-gadget (S)NI/PINI enumeration + first-order composition rules.

    ``model="classic"`` checks each gadget in isolation on stable wire
    values and certifies when every share gadget is 1-SNI *and* no mask is
    consumed by more than one gadget -- the preconditions of the standard
    SNI composition theorem (and exactly what De Meyer et al.'s manual
    proof assumed away by reusing randomness).

    ``model="robust"`` checks each gadget's probes under glitch-extended
    observation on the gadget's full fan-in slice (probes restricted to the
    gadget's own cells, context logic included so cones cross gadget
    boundaries exactly as in the composed circuit).  Slice 1-NI is
    *sufficient*: the regions partition the cells, so every single probe
    lies in one region and simulates from at most one share per value.  It
    is deliberately not *necessary* -- NI demands the observation
    distribution be a function of the selected shares, while probing
    security only needs the mixture over sharings to be secret-independent
    (the gap the paper's Eq. 9 scheme lives in, and the reason it needed
    evaluation tools rather than composition theorems).  A gadget that
    fails slice NI -- or whose slice exceeds the gadget budget -- therefore
    falls back to exact per-probe-class enumeration of *that gadget's*
    probes on the full circuit: confirmed secret-dependent distributions
    become counterexamples, refuted ones are recorded as conservative NI
    failures.  With the fallback enabled the robust verdict is a complete
    order-1 decision procedure up to the enumeration budget.
    """

    #: transitive-support window (cycles) used to classify boundary nets.
    CLASSIFY_WINDOW = 8

    def __init__(
        self,
        dut: DesignUnderTest,
        model: str = "robust",
        order: int = 1,
        max_gadget_bits: int = 22,
        exact_fallback: bool = True,
        max_enum_bits: int = 24,
        engine: str = engine_registry.DEFAULT_ENGINE,
    ):
        if model not in ("classic", "robust"):
            raise MaskingError(f"unknown composition model {model!r}")
        self.dut = dut
        self.model = model
        self.order = order
        self.max_gadget_bits = max_gadget_bits
        self.exact_fallback = exact_fallback
        self.max_enum_bits = max_enum_bits
        # Engine for the exact-fallback enumeration simulators, resolved
        # through repro.engines (bit-identical across engines; the
        # native kernel just enumerates faster).
        engine_registry.get_engine(engine)
        self.engine = engine
        self.regions = gadget_regions(dut.netlist)
        self._roles = self._build_role_map()
        self._exact_analyzer: Optional[ExactAnalyzer] = None

    def _exact_region(
        self, region: GadgetRegion
    ) -> Tuple[List, List[Dict[str, object]]]:
        """Exact verdicts for every probe class rooted in ``region``.

        Returns ``(leaking_results, infeasible_entries)``.  Classes are
        matched by probe membership; regions partition the cells, so each
        class belongs to exactly one region.
        """
        if self._exact_analyzer is None:
            self._exact_analyzer = ExactAnalyzer(
                self.dut,
                ProbingModel.GLITCH,
                max_enum_bits=self.max_enum_bits,
                engine=self.engine,
            )
        analyzer = self._exact_analyzer
        netlist = self.dut.netlist
        region_nets = {netlist.cells[i].output for i in region.cells}
        leaking = []
        infeasible: List[Dict[str, object]] = []
        for probe_class in analyzer.probe_classes:
            if not region_nets.intersection(probe_class.members):
                continue
            try:
                result = analyzer.analyze_probe_class(probe_class)
            except ExactAnalysisInfeasible as exc:
                infeasible.append(analyzer.infeasible_entry(exc))
                continue
            if result.leaking:
                leaking.append(result)
        for probe_class in analyzer.wide_classes:
            if region_nets.intersection(probe_class.members):
                infeasible.append(analyzer.wide_class_entry(probe_class))
        return leaking, infeasible

    def _build_role_map(self) -> Dict[int, Tuple[str, object]]:
        roles: Dict[int, Tuple[str, object]] = {}
        for share, bus in enumerate(self.dut.share_buses):
            for bit, net in enumerate(bus):
                roles[net] = ("share", (share, bit))
        for net in self.dut.mask_bits:
            roles[net] = ("mask", net)
        for bus_index, bus in enumerate(self.dut.uniform_byte_buses):
            for bit, net in enumerate(bus):
                roles[net] = ("uniform", (bus_index, bit))
        for bus_index, bus in enumerate(self.dut.nonzero_byte_buses):
            for bit, net in enumerate(bus):
                roles[net] = ("nonzero", (bus_index, bit))
        return roles

    # -------------------------------------------------- input classification

    def _classify_input(self, net: int) -> Tuple[str, frozenset]:
        """Classify a region input: ("share", secret bits) or ("mask", primaries).

        A net is share-like when any secret bit reaches it; its signature is
        the set of secret bits, so shares of the same intermediate value
        (identical secret fan-in) group together.  Mask-like nets carry the
        set of primary mask wires feeding them -- the reuse footprint.
        Returns kind "nonzero" for nets touched by non-zero-constrained
        bytes, which the enumeration cannot model.
        """
        roles = self._roles
        if net in roles:
            kind, detail = roles[net]
            if kind == "share":
                return "share", frozenset({detail[1]})
            if kind == "nonzero":
                return "nonzero", frozenset()
            return "mask", frozenset({net})
        support = transitive_input_support(
            self.dut.netlist, net, self.CLASSIFY_WINDOW
        )
        secret_bits = set()
        mask_nets = set()
        has_nonzero = False
        for primary, _age in support:
            kind, detail = roles.get(primary, (None, None))
            if kind == "share":
                secret_bits.add(detail[1])
            elif kind in ("mask", "uniform"):
                mask_nets.add(primary)
            elif kind == "nonzero":
                has_nonzero = True
        if has_nonzero:
            return "nonzero", frozenset()
        if secret_bits:
            return "share", frozenset(secret_bits)
        return "mask", frozenset(mask_nets)

    # ------------------------------------------------------------ gadget spec

    def _isolated_gadget(
        self,
        region: GadgetRegion,
        share_groups: List[List[int]],
        mask_inputs: List[int],
    ) -> Tuple[GadgetSpec, Dict[int, int]]:
        """GadgetSpec of the region in isolation (boundary nets as inputs)."""
        netlist = self.dut.netlist
        sub, mapping = extract_subnetlist(
            netlist, region.cells, f"{netlist.name}.{region.name}"
        )
        spec = GadgetSpec(
            netlist=sub,
            input_shares=[
                [mapping[n] for n in group] for group in share_groups
            ],
            mask_nets=[mapping[n] for n in mask_inputs],
            output_shares=[mapping[n] for n in region.output_nets],
            settle_cycles=sequential_depth(sub) + 2,
        )
        return spec, mapping

    def _slice_gadget(
        self, region: GadgetRegion
    ) -> Tuple[GadgetSpec, Dict[int, int], List[int], Optional[str]]:
        """GadgetSpec of the region's full fan-in slice, primaries as inputs.

        Returns ``(spec, mapping, probe_nets, obstruction)``; on an
        obstruction the other values are None.
        """
        netlist = self.dut.netlist
        cells = fanin_cells(
            netlist, [netlist.cells[i].output for i in region.cells]
        )
        cells |= set(region.cells)
        sub, mapping = extract_subnetlist(
            netlist, cells, f"{netlist.name}.{region.name}.slice"
        )
        if any(
            net in mapping
            for bus in self.dut.nonzero_byte_buses
            for net in bus
        ):
            return (
                None,
                None,
                None,
                f"{region.name}: fan-in slice reads a non-zero-constrained "
                "mask byte, which the (S)NI enumeration cannot model",
            )
        bits_present = sorted(
            {
                bit
                for bus in self.dut.share_buses
                for bit, net in enumerate(bus)
                if net in mapping
            }
        )
        input_shares = []
        for bit in bits_present:
            group = [
                bus[bit]
                for bus in self.dut.share_buses
                if bus[bit] in mapping
            ]
            if len(group) != self.dut.n_shares:
                return (
                    None,
                    None,
                    None,
                    f"{region.name}: slice sees a partial sharing of secret "
                    f"bit {bit}",
                )
            input_shares.append([mapping[n] for n in group])
        mask_nets = [
            mapping[n] for n in self.dut.mask_bits if n in mapping
        ] + [
            mapping[n]
            for bus in self.dut.uniform_byte_buses
            for n in bus
            if n in mapping
        ]
        total_bits = self.dut.n_shares * len(input_shares) + len(mask_nets)
        if total_bits > self.max_gadget_bits:
            return (
                None,
                None,
                None,
                f"{region.name}: glitch-robust slice needs {total_bits} "
                f"enumeration bits (> {self.max_gadget_bits})",
            )
        spec = GadgetSpec(
            netlist=sub,
            input_shares=input_shares,
            mask_nets=mask_nets,
            output_shares=[mapping[n] for n in region.output_nets],
            settle_cycles=sequential_depth(sub) + 2,
        )
        probe_nets = [
            mapping[netlist.cells[i].output]
            for i in region.cells
            if not netlist.cells[i].cell_type.is_constant
        ]
        return spec, mapping, probe_nets, None

    # --------------------------------------------------------------- check

    def check(self) -> CertificateReport:
        """Run the per-gadget checks and apply the composition rules."""
        netlist = self.dut.netlist
        model_name = (
            "glitch-robust probes on gadget fan-in slices"
            if self.model == "robust"
            else "classic probes on stable values, gadgets in isolation"
        )
        report = CertificateReport(
            design=self.dut.describe(), model=model_name, order=self.order
        )
        mask_users: Dict[int, List[str]] = {}

        for region in self.regions:
            share_inputs: Dict[frozenset, List[int]] = {}
            mask_inputs: List[int] = []
            mask_footprint: Set[int] = set()
            obstruction: Optional[str] = None
            for net in region.input_nets:
                kind, signature = self._classify_input(net)
                if kind == "share":
                    share_inputs.setdefault(signature, []).append(net)
                elif kind == "mask":
                    mask_inputs.append(net)
                    mask_footprint.update(signature)
                else:  # nonzero
                    obstruction = (
                        f"{region.name}: input "
                        f"{netlist.net_name(net)} carries a non-zero-"
                        "constrained mask byte"
                    )

            if not share_inputs:
                report.gadgets.append(
                    GadgetVerdict(
                        name=region.name,
                        kind="masks",
                        n_cells=len(region.cells),
                        n_values=0,
                        n_shares=0,
                        mask_names=tuple(
                            netlist.net_name(n) for n in sorted(mask_inputs)
                        ),
                    )
                )
                continue

            for primary in sorted(mask_footprint):
                mask_users.setdefault(primary, []).append(region.name)

            groups = [
                sorted(nets)
                for _, nets in sorted(
                    share_inputs.items(), key=lambda kv: min(kv[1])
                )
            ]
            sizes = {len(g) for g in groups}
            if obstruction is None and len(sizes) != 1:
                obstruction = (
                    f"{region.name}: input values expose unequal share "
                    f"counts {sorted(sizes)}; boundary is not a sharing"
                )
            n_shares = len(groups[0])
            verdict = GadgetVerdict(
                name=region.name,
                kind="shares",
                n_cells=len(region.cells),
                n_values=len(groups),
                n_shares=n_shares,
                mask_names=tuple(
                    netlist.net_name(n) for n in sorted(mask_inputs)
                ),
                obstruction=obstruction,
            )
            report.gadgets.append(verdict)
            if obstruction is not None:
                report.obstructions.append(obstruction)
                continue

            iso_bits = n_shares * len(groups) + len(mask_inputs)
            if iso_bits > self.max_gadget_bits:
                verdict.obstruction = (
                    f"{region.name}: gadget needs {iso_bits} enumeration "
                    f"bits (> {self.max_gadget_bits})"
                )
                report.obstructions.append(verdict.obstruction)
                continue

            iso_spec, iso_map = self._isolated_gadget(
                region, groups, sorted(mask_inputs)
            )
            iso_checker = SniChecker(
                iso_spec, robust=False, max_bits=self.max_gadget_bits
            )
            verdict.classic = iso_checker.check(self.order)
            verdict.pini = iso_checker.check_pini(self.order)

            if self.model == "robust":
                self._check_robust(region, verdict, report)
            else:
                for violation in verdict.classic.sni_violations:
                    report.counterexamples.append(
                        {
                            "gadget": region.name,
                            "probes": list(violation.probe_names),
                            "model": "classic",
                            "detail": "simulating needs "
                            + violation.required_shares,
                        }
                    )

        report.reused_masks = [
            {"mask": netlist.net_name(mask), "gadgets": users}
            for mask, users in sorted(mask_users.items())
            if len(users) > 1
        ]

        share_verdicts = [g for g in report.gadgets if g.kind == "shares"]
        if self.model == "robust":
            report.certified = (
                not report.obstructions
                and bool(share_verdicts)
                and all(
                    (g.robust is not None and g.robust.is_ni)
                    or g.exact_confirmed is True
                    for g in share_verdicts
                )
            )
        else:
            report.certified = (
                not report.obstructions
                and not report.reused_masks
                and bool(share_verdicts)
                and all(
                    g.classic is not None and g.classic.is_sni
                    for g in share_verdicts
                )
            )
        return report

    def _check_robust(
        self,
        region: GadgetRegion,
        verdict: GadgetVerdict,
        report: CertificateReport,
    ) -> None:
        """Slice-NI check with exact-enumeration fallback for one region."""
        spec, _mapping, probe_nets, slice_obstruction = self._slice_gadget(
            region
        )
        candidates = []
        if slice_obstruction is None:
            verdict.robust = SniChecker(
                spec,
                robust=True,
                probe_nets=probe_nets,
                max_bits=self.max_gadget_bits,
            ).check(self.order)
            if verdict.robust.is_ni:
                return
            candidates = verdict.robust.ni_violations

        if not self.exact_fallback:
            if slice_obstruction is not None:
                verdict.obstruction = slice_obstruction
                report.obstructions.append(slice_obstruction)
                return
            for violation in candidates:
                report.counterexamples.append(
                    {
                        "gadget": region.name,
                        "probes": list(violation.probe_names),
                        "model": "glitch-robust-ni",
                        "detail": "NI candidate: simulating needs "
                        + violation.required_shares,
                    }
                )
            return

        leaking, infeasible = self._exact_region(region)
        for result in leaking:
            report.counterexamples.append(
                {
                    "gadget": region.name,
                    "probes": [result.probe_names],
                    "model": "exact-distribution",
                    "detail": (
                        f"{result.n_distinct_distributions} distinct "
                        "per-secret distributions, tv(fixed,rand)="
                        f"{result.tv_fixed_vs_random:.4f}"
                    ),
                }
            )
        if leaking:
            verdict.exact_confirmed = False
            verdict.exact_note = (
                f"{len(leaking)} probe class(es) with secret-dependent "
                "distributions"
            )
        elif infeasible:
            obstruction = (
                f"{region.name}: {len(infeasible)} probe class(es) exceed "
                "the exact enumeration budget; robust verdict undecidable"
            )
            verdict.obstruction = obstruction
            report.obstructions.append(obstruction)
        else:
            verdict.exact_confirmed = True
            verdict.exact_note = (
                "slice over gadget budget; decided by exact enumeration"
                if slice_obstruction is not None
                else "slice NI failure was conservative; every probe "
                "distribution is secret-independent"
            )


# ------------------------------------------------------------------ fixtures


def dom_and_design() -> DesignUnderTest:
    """The first-order DOM-AND as a protocol-complete design under test."""
    from repro.masking.dom import dom_and_first_order
    from repro.netlist.builder import CircuitBuilder

    builder = CircuitBuilder("dom_and_dut")
    x = [builder.input("x0"), builder.input("x1")]
    y = [builder.input("y0"), builder.input("y1")]
    r = builder.input("r")
    z = dom_and_first_order(builder, x, y, r, "g")
    builder.output(z[0], "z0")
    builder.output(z[1], "z1")
    netlist = builder.build()
    return DesignUnderTest(
        netlist=netlist,
        share_buses=[[x[0], y[0]], [x[1], y[1]]],
        mask_bits=[r],
        latency=1,
        output_share_buses=[[netlist.net("z0")], [netlist.net("z1")]],
        metadata={"design": "dom_and"},
    )


def dom_and_pair_design(shared_mask: bool = False) -> DesignUnderTest:
    """Two DOM-ANDs feeding a third -- the paper's composition in miniature.

    With ``shared_mask=True`` the first-layer gadgets consume the *same*
    fresh bit, the randomness reuse whose glitch-extended failure at the
    combining gadget is the paper's headline; with fresh masks the
    composition is certifiable.
    """
    from repro.masking.dom import dom_and_first_order
    from repro.netlist.builder import CircuitBuilder

    name = "dom_pair_shared" if shared_mask else "dom_pair_fresh"
    builder = CircuitBuilder(name)
    a = [builder.input("a0"), builder.input("a1")]
    b = [builder.input("b0"), builder.input("b1")]
    c = [builder.input("c0"), builder.input("c1")]
    d = [builder.input("d0"), builder.input("d1")]
    r1 = builder.input("r1")
    r2 = r1 if shared_mask else builder.input("r2")
    r3 = builder.input("r3")
    u = dom_and_first_order(builder, a, b, r1, "g1")
    v = dom_and_first_order(builder, c, d, r2, "g2")
    z = dom_and_first_order(builder, u, v, r3, "g3")
    builder.output(z[0], "z0")
    builder.output(z[1], "z1")
    netlist = builder.build()
    masks = [r1, r3] if shared_mask else [r1, r2, r3]
    return DesignUnderTest(
        netlist=netlist,
        share_buses=[[a[0], b[0], c[0], d[0]], [a[1], b[1], c[1], d[1]]],
        mask_bits=masks,
        latency=2,
        output_share_buses=[[netlist.net("z0")], [netlist.net("z1")]],
        metadata={"design": name},
    )
