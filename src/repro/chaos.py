"""Deterministic infrastructure fault injection for the evaluation fabric.

PR 1 fault-injects the *statistics* (netlist mutations prove the evaluator
notices broken designs); this module fault-injects the *infrastructure*
that produces verdicts -- checkpoint IO, the verdict store, the telemetry
log, the job queue, worker processes, the compiled kernel.  A wrong-but-
plausible report caused by a torn checkpoint or a corrupt cache record is
strictly worse than a crash, so the robustness contract every layer must
honour is:

    under any injected infrastructure fault, a run ends in either a
    **byte-identical** report or a **typed** error -- never a silently
    divergent verdict.

Three pieces enforce and exercise that contract:

* :class:`ChaosPolicy` -- a frozen, ``from_dict``/``to_dict``-round-tripping
  spec (shaped like :class:`repro.spec.EvaluationSpec`) describing *which*
  faults to inject *where* and *how often*.  Each chaos site draws from its
  own ``SeedSequence``-derived RNG stream, so a policy seed reproduces the
  same fault schedule per site regardless of what the other sites do.
* :class:`FaultPlane` -- the injectable hook the production code consults at
  named sites.  The default is *no plane at all*: every call site guards
  with ``if plane is not None``, so disabled chaos costs nothing.  Injected
  IO faults are real :class:`OSError` instances (:class:`InjectedFault`),
  so injection exercises the exact retry/quarantine/degradation paths a
  real ``ENOSPC`` would.
* :func:`run_torture` -- the chaos-torture harness: run a campaign under
  randomized policy seeds (interrupt + resume each run, so checkpoint
  write *and* read paths fire), and assert the contract above against a
  clean golden run.

The resilience counterpart (what the injected faults are survived *by*)
lives where the state lives: CRC-checked generation-rotated checkpoints in
:mod:`repro.leakage.durable`, verified-on-read verdict records in
:mod:`repro.service.store`, the watchdog/dead-letter ladder in
:mod:`repro.service.runner`, and :func:`retry_io` below for transient IO.
See ``docs/robustness.md`` for the full fault model.
"""

from __future__ import annotations

import errno
import random
import re
import threading
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    BudgetExceeded,
    ChaosError,
    CheckpointError,
    ServiceError,
)

__all__ = [
    "CHAOS_SITES",
    "SITE_KINDS",
    "TYPED_ERRORS",
    "ChaosError",
    "ChaosFaultPlane",
    "ChaosPolicy",
    "DEFAULT_RETRY",
    "FaultPlane",
    "InjectedFault",
    "RetryPolicy",
    "TortureReport",
    "TortureRun",
    "retry_io",
    "run_torture",
]

#: Every named fault-injection site, in stable order (the index seeds the
#: site's private RNG stream, so adding sites never reshuffles existing
#: schedules).
CHAOS_SITES = (
    "checkpoint.write",
    "checkpoint.read",
    "store.write",
    "store.read_result",
    "telemetry.write",
    "queue.put",
    "worker.block",
    "engine.compile",
    "runner.chunk",
    "fleet.lease",
    "fleet.complete",
    "engine.native_build",
)

#: Fault kinds each site can draw.  IO kinds raise :class:`InjectedFault`;
#: payload kinds corrupt bytes in flight; the rest are site-interpreted
#: ("kill" exits a worker process, "hang" sleeps, "full" storms the queue,
#: "fail" breaks the compiled kernel).
SITE_KINDS: Dict[str, Tuple[str, ...]] = {
    "checkpoint.write": ("oserror", "enospc", "torn", "bitflip"),
    "checkpoint.read": ("oserror",),
    "store.write": ("oserror", "enospc"),
    "store.read_result": ("truncate", "garbage", "bitflip", "future-schema"),
    "telemetry.write": ("oserror",),
    "queue.put": ("full",),
    "worker.block": ("kill", "hang"),
    "engine.compile": ("fail",),
    "runner.chunk": ("hang",),
    "fleet.lease": ("oserror",),
    "fleet.complete": ("oserror", "truncate", "garbage", "bitflip"),
    "engine.native_build": ("fail",),
}

_IO_ERRNO = {"oserror": errno.EIO, "enospc": errno.ENOSPC}

#: Error types a chaos run may legitimately end in (the "clean typed
#: error" arm of the robustness contract).
TYPED_ERRORS = (ChaosError, CheckpointError, ServiceError, BudgetExceeded)


class InjectedFault(OSError):
    """An injected IO fault.

    Subclasses :class:`OSError` deliberately: the production retry,
    quarantine, and degradation paths must treat an injected ``EIO`` or
    ``ENOSPC`` exactly like a real one -- that equivalence is what makes
    the torture results meaningful.
    """

    def __init__(self, err: int, site: str, kind: str):
        super().__init__(err, f"injected {kind} at chaos site {site!r}")
        self.site = site
        self.kind = kind


# --------------------------------------------------------------- fault plane


class FaultPlane:
    """Injectable fault hook consulted at named infrastructure sites.

    The base class never fires -- :meth:`decide` returns ``None`` -- and is
    never installed by default (call sites hold ``None`` and skip the
    consultation entirely, so the production fast path has zero overhead).
    :class:`ChaosFaultPlane` overrides :meth:`decide` with a seeded
    schedule; tests may subclass for scripted faults.
    """

    #: how long an injected "hang" sleeps.
    hang_seconds: float = 0.0

    def decide(self, site: str) -> Optional[str]:
        """Fault kind to inject at ``site`` right now, or ``None``."""
        return None

    # -- site adapters: one consultation, acted on per site family --------

    def maybe_fail(self, site: str) -> None:
        """Raise :class:`InjectedFault` when an IO fault fires at ``site``."""
        kind = self.decide(site)
        if kind in _IO_ERRNO:
            raise InjectedFault(_IO_ERRNO[kind], site, kind)

    def filter_write(self, site: str, data: bytes) -> bytes:
        """IO-fail or corrupt an outgoing payload (torn writes, bit flips).

        A corruption kind *returns* mangled bytes instead of raising: the
        write appears to succeed, and only read-side integrity checks can
        catch it -- the torn-checkpoint scenario.
        """
        kind = self.decide(site)
        if kind is None:
            return data
        if kind in _IO_ERRNO:
            raise InjectedFault(_IO_ERRNO[kind], site, kind)
        return self._mutate(site, kind, data)

    def filter_read(self, site: str, data: bytes) -> bytes:
        """Corrupt an incoming payload (what a rotted record looks like)."""
        kind = self.decide(site)
        if kind is None:
            return data
        if kind in _IO_ERRNO:
            raise InjectedFault(_IO_ERRNO[kind], site, kind)
        return self._mutate(site, kind, data)

    def maybe_hang(self, site: str, sleep: Callable[[float], None] = time.sleep) -> bool:
        """Sleep :attr:`hang_seconds` when a hang fires; True if it did."""
        if self.decide(site) == "hang":
            sleep(self.hang_seconds)
            return True
        return False

    def _mutate(self, site: str, kind: str, data: bytes) -> bytes:
        return data  # pragma: no cover - base plane never decides a kind


class ChaosFaultPlane(FaultPlane):
    """A :class:`FaultPlane` executing a :class:`ChaosPolicy` schedule.

    Each enabled site owns a ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(site_index,)))`` stream: whether a consultation fires, and
    which kind it draws, depends only on the policy seed and that site's
    own consultation count.  A shared fault budget (``max_faults``) caps
    total injections so torture runs always terminate.

    Thread-safe (sites are consulted from runner threads, HTTP handlers,
    and campaign loops concurrently) and picklable (the plane rides inside
    the evaluator into worker processes; the lock and telemetry hook are
    dropped and rebuilt across the pickle boundary).
    """

    def __init__(self, policy: "ChaosPolicy"):
        self.policy = policy
        self.hang_seconds = policy.hang_seconds
        #: optional ``hook(event, payload)`` notified on every injection
        #: (the torture harness wires telemetry here); never pickled.
        self.hook: Optional[Callable[[str, Dict], None]] = None
        self._lock = threading.Lock()
        self._injected: List[Tuple[str, str]] = []
        self._rngs = {
            site: np.random.default_rng(
                np.random.SeedSequence(
                    entropy=policy.seed, spawn_key=(index,)
                )
            )
            for index, site in enumerate(CHAOS_SITES)
            if site in policy.sites
        }

    # ------------------------------------------------------------- schedule

    def decide(self, site: str) -> Optional[str]:
        rng = self._rngs.get(site)
        if rng is None:
            return None
        with self._lock:
            if (
                self.policy.max_faults is not None
                and len(self._injected) >= self.policy.max_faults
            ):
                return None
            if rng.random() >= self.policy.p:
                return None
            kinds = SITE_KINDS[site]
            kind = kinds[int(rng.integers(len(kinds)))]
            self._injected.append((site, kind))
        hook = self.hook
        if hook is not None:
            hook("chaos_fault", {"site": site, "kind": kind})
        return kind

    def _mutate(self, site: str, kind: str, data: bytes) -> bytes:
        with self._lock:
            rng = self._rngs[site]
            if kind == "torn":
                return data[: max(1, len(data) // 2)]
            if kind == "truncate":
                return data[: max(0, len(data) // 3)]
            if kind == "bitflip":
                if not data:
                    return data
                mangled = bytearray(data)
                position = int(rng.integers(len(mangled)))
                mangled[position] ^= 1 << int(rng.integers(8))
                return bytes(mangled)
            if kind == "garbage":
                return b'{"not a report":'
            if kind == "future-schema":
                swapped, count = re.subn(
                    rb'("schema_version":\s*)\d+', rb"\g<1>9999", data, count=1
                )
                return swapped if count else b'{"schema_version": 9999}'
        raise ChaosError(f"unknown mutation kind {kind!r}")

    # ------------------------------------------------------------ inspection

    @property
    def injected(self) -> List[Tuple[str, str]]:
        """Every ``(site, kind)`` injected so far, in order."""
        with self._lock:
            return list(self._injected)

    # ------------------------------------------------------------- pickling

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_lock"] = None
        state["hook"] = None  # telemetry handles do not cross processes
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


# -------------------------------------------------------------- chaos policy


@dataclass(frozen=True)
class ChaosPolicy:
    """Frozen spec of one fault-injection schedule.

    Shaped like :class:`repro.spec.EvaluationSpec` on purpose: validated,
    JSON-round-trippable, and fully determined by its fields -- two equal
    policies build :class:`ChaosFaultPlane` instances that inject the same
    faults at the same consultations.
    """

    #: entropy for every site's ``SeedSequence`` stream.
    seed: int = 0
    #: probability a consultation fires (per site, per consultation).
    p: float = 0.1
    #: enabled sites; defaults to all of :data:`CHAOS_SITES`.
    sites: Tuple[str, ...] = CHAOS_SITES
    #: total fault budget across all sites (``None`` = unbounded); bounds
    #: guarantee torture runs terminate even at high ``p``.
    max_faults: Optional[int] = 32
    #: sleep injected by "hang" kinds (worker.block, runner.chunk).
    hang_seconds: float = 0.05

    @classmethod
    def from_dict(cls, data: Dict) -> "ChaosPolicy":
        """Parse and validate an untrusted policy dict."""
        if not isinstance(data, dict):
            raise ChaosError("chaos policy must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ChaosError(
                f"unknown chaos policy field(s): {sorted(unknown)}"
            )
        merged = dict(data)
        if "sites" in merged:
            try:
                merged["sites"] = tuple(str(s) for s in merged["sites"])
            except TypeError as exc:
                raise ChaosError("sites must be a list of site names") from exc
        policy = cls(**merged)
        policy.validate()
        return policy

    def to_dict(self) -> Dict:
        """JSON-safe round-trip form; ``from_dict(to_dict())`` == self."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def validate(self) -> None:
        if not isinstance(self.seed, int):
            raise ChaosError("seed must be an integer")
        if not isinstance(self.p, (int, float)) or not 0.0 <= self.p <= 1.0:
            raise ChaosError("p must be a probability in [0, 1]")
        unknown = set(self.sites) - set(CHAOS_SITES)
        if unknown:
            raise ChaosError(
                f"unknown chaos site(s): {sorted(unknown)}; "
                f"choose from {list(CHAOS_SITES)}"
            )
        if self.max_faults is not None and (
            not isinstance(self.max_faults, int) or self.max_faults < 0
        ):
            raise ChaosError("max_faults must be a non-negative integer")
        if (
            not isinstance(self.hang_seconds, (int, float))
            or self.hang_seconds < 0
        ):
            raise ChaosError("hang_seconds must be a non-negative number")

    def fault_plane(self) -> ChaosFaultPlane:
        """A fresh plane executing this policy from the start."""
        self.validate()
        return ChaosFaultPlane(self)


# ----------------------------------------------------------------- retry IO


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and full jitter."""

    #: total attempts (the first try included); the last failure re-raises.
    attempts: int = 4
    #: backoff cap for attempt ``n`` is ``base_delay * 2**(n-1)``...
    base_delay: float = 0.02
    #: ...bounded by this ceiling.
    max_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ChaosError("retry attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ChaosError("retry delays must be non-negative")


DEFAULT_RETRY = RetryPolicy()

#: Jitter source for backoff delays.  Timing-only randomness: it never
#: influences results, so a module-level stream is fine.
_JITTER = random.Random(0x5EED)


def retry_io(
    fn: Callable[[], object],
    policy: RetryPolicy = DEFAULT_RETRY,
    *,
    site: str = "io",
    retry_on: Tuple[type, ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[random.Random] = None,
    hook: Optional[Callable[[str, Dict], None]] = None,
) -> object:
    """Run ``fn`` under ``policy``, retrying transient ``retry_on`` errors.

    Delays follow the AWS "full jitter" scheme -- ``uniform(0, min(cap,
    base * 2**attempt))`` -- so a thundering herd of retriers decorrelates
    instead of synchronizing.  The final failure propagates unchanged, so
    callers keep wrapping it in their own typed error.
    """
    jitter = rng if rng is not None else _JITTER
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            if attempt == policy.attempts:
                raise
            cap = min(
                policy.max_delay, policy.base_delay * (2 ** (attempt - 1))
            )
            delay = jitter.uniform(0.0, cap)
            if hook is not None:
                hook(
                    "io_retry",
                    {
                        "site": site,
                        "attempt": attempt,
                        "delay": round(delay, 4),
                        "error": repr(exc),
                    },
                )
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


# ------------------------------------------------------------ torture harness


@dataclass
class TortureRun:
    """Outcome of one chaos-seeded campaign run."""

    seed: int
    #: "identical" (byte-identical to golden), "typed-error", or the two
    #: contract violations: "divergent" and "untyped-error".
    outcome: str
    error: Optional[str] = None
    #: faults actually injected, as ``site:kind`` strings.
    injected: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.outcome in ("identical", "typed-error")

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "outcome": self.outcome,
            "error": self.error,
            "injected": list(self.injected),
        }


@dataclass
class TortureReport:
    """Aggregate verdict of a chaos-torture sweep."""

    runs: List[TortureRun]
    golden_status: str

    @property
    def ok(self) -> bool:
        """True when every run honoured the robustness contract."""
        return all(run.ok for run in self.runs)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for run in self.runs:
            out[run.outcome] = out.get(run.outcome, 0) + 1
        return out

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "golden_status": self.golden_status,
            "counts": self.counts(),
            "runs": [run.to_dict() for run in self.runs],
        }

    def format_summary(self) -> str:
        lines = [
            f"=== chaos torture: {len(self.runs)} seed(s), "
            f"{'OK' if self.ok else 'CONTRACT VIOLATED'} ===",
        ]
        for name, count in sorted(self.counts().items()):
            lines.append(f"  {name:<14} {count}")
        for run in self.runs:
            if not run.ok:
                lines.append(
                    f"  seed {run.seed}: {run.outcome} -- {run.error} "
                    f"(injected: {', '.join(run.injected) or 'none'})"
                )
        return "\n".join(lines)


def run_torture(
    make_evaluator: Callable[[], object],
    make_config: Callable[..., object],
    seeds: Sequence[int],
    workdir: str,
    p: float = 0.2,
    hang_seconds: float = 0.01,
    max_faults: Optional[int] = 32,
    sites: Tuple[str, ...] = CHAOS_SITES,
    hook: Optional[Callable[[str, Dict], None]] = None,
    interrupt_after_chunks: int = 2,
) -> TortureReport:
    """Torture a campaign under randomized chaos seeds.

    ``make_evaluator()`` builds a fresh evaluator and ``make_config(
    checkpoint=path)`` a fresh :class:`~repro.leakage.campaign.
    CampaignConfig` (the harness owns the checkpoint path, one per seed
    under ``workdir``).  The golden report is computed once without any
    fault plane; then every seed runs the same campaign in two legs --
    interrupted after ``interrupt_after_chunks`` chunk boundaries, then
    resumed to completion -- under a :class:`ChaosFaultPlane`, so the
    checkpoint write *and* read/fallback paths both face injection.

    Each run must end "identical" (resumed report byte-identical to
    golden) or "typed-error" (one of :data:`TYPED_ERRORS`); anything else
    is recorded as a contract violation and flips :attr:`TortureReport.ok`.
    """
    import os

    from repro.leakage.campaign import EvaluationCampaign

    golden_campaign = EvaluationCampaign(
        make_evaluator(), make_config(checkpoint=None)
    )
    golden_report = golden_campaign.run()
    golden_json = golden_report.to_json(top=None)
    if hook is not None:
        hook(
            "torture_golden",
            {"status": golden_report.status, "bytes": len(golden_json)},
        )

    runs: List[TortureRun] = []
    for seed in seeds:
        policy = ChaosPolicy(
            seed=seed,
            p=p,
            sites=sites,
            max_faults=max_faults,
            hang_seconds=hang_seconds,
        )
        plane = policy.fault_plane()
        if hook is not None:
            plane.hook = hook
        checkpoint = os.path.join(workdir, f"torture-{seed}.npz")
        outcome = _torture_one(
            make_evaluator,
            make_config,
            checkpoint,
            plane,
            golden_json,
            interrupt_after_chunks,
        )
        outcome.seed = seed
        outcome.injected = tuple(f"{s}:{k}" for s, k in plane.injected)
        if hook is not None:
            hook("torture_run", outcome.to_dict())
        runs.append(outcome)
    return TortureReport(runs=runs, golden_status=golden_report.status)


def _torture_one(
    make_evaluator,
    make_config,
    checkpoint: str,
    plane: ChaosFaultPlane,
    golden_json: str,
    interrupt_after_chunks: int,
) -> TortureRun:
    from repro.leakage.campaign import EvaluationCampaign

    chunks_seen = {"n": 0}

    def leg_hook(event: str, payload: Dict) -> None:
        if event == "chunk_done":
            chunks_seen["n"] += 1

    def interrupt() -> bool:
        return chunks_seen["n"] >= interrupt_after_chunks

    try:
        first_leg = EvaluationCampaign(
            make_evaluator(),
            make_config(checkpoint=checkpoint),
            hook=leg_hook,
            should_stop=interrupt,
            fault_plane=plane,
        )
        first_leg.run()
        resumed = EvaluationCampaign(
            make_evaluator(),
            make_config(checkpoint=checkpoint),
            fault_plane=plane,
        )
        report = resumed.run(resume=True)
    except TYPED_ERRORS as exc:
        return TortureRun(
            seed=-1, outcome="typed-error", error=f"{type(exc).__name__}: {exc}"
        )
    except Exception as exc:  # noqa: BLE001 - the contract violation arm
        return TortureRun(
            seed=-1,
            outcome="untyped-error",
            error=f"{type(exc).__name__}: {exc}",
        )
    if report.status != "complete":
        return TortureRun(
            seed=-1,
            outcome="divergent",
            error=f"resumed run ended {report.status!r}, not complete",
        )
    if report.to_json(top=None) != golden_json:
        return TortureRun(
            seed=-1,
            outcome="divergent",
            error="resumed report is not byte-identical to the golden run",
        )
    return TortureRun(seed=-1, outcome="identical")
