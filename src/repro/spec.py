"""The canonical evaluation parameter surface: :class:`EvaluationSpec`.

Before this module existed the same ~15 parameters were spelled four times
-- evaluator keyword arguments, :class:`~repro.leakage.campaign.
CampaignConfig` fields, the service job JSON, and CLI flags -- and every new
parameter had to be threaded through all four by hand.  ``EvaluationSpec``
is the single frozen source of truth all four layers now share:

* ``from_dict``/``to_dict`` round-trip the service wire format (the
  ``POST /v1/jobs`` body) with strict unknown-field rejection;
* ``from_args`` parses an ``argparse`` namespace (the CLI's ``campaign``
  and ``submit`` commands);
* ``campaign_config`` derives the :class:`CampaignConfig` a spec describes;
* ``cache_params``/``cache_key`` define the content-addressed verdict-cache
  identity.  The key covers exactly the *semantic* parameters (netlist
  structure hash, model, budget, seed, ...); execution details that provably
  do not change results -- engine, worker count, chunk size -- are excluded,
  and the canonical encoding is kept **byte-identical** to the pre-spec
  service for every non-adaptive job so existing verdict caches stay warm.
  Adaptive-scheduler parameters join the key only when ``adaptive`` is on,
  because they then change which samples each probe accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import hashlib
import json

from repro import engines as engine_registry
from repro.errors import SpecError

#: Server-side default chunking: campaigns checkpoint (and the adaptive
#: scheduler decides) at this per-group sample granularity when the caller
#: did not ask for explicit chunks.
DEFAULT_CHUNK_SIZE = 8_192

#: Current HTTP API version (the ``/v1/...`` route prefix).
API_VERSION = "v1"

_MODELS = ("glitch", "glitch-transition")
_MODES = ("first", "pairs", "both", "exact")

#: Spec fields excluded from the verdict-cache identity: results are
#: bit-identical across them (tests/test_cross_engine.py,
#: tests/test_leakage_parallel.py, tests/test_leakage_campaign.py;
#: cone slicing: tests/test_slice.py; exact sharding:
#: tests/test_certify_shards.py -- shard counts merge to exactly the
#: serial histogram, so the shard size is pure execution detail).
EXECUTION_FIELDS = frozenset(
    {
        "engine",
        "workers",
        "chunk_size",
        "slice",
        "shard_lane_bits",
        "tenant",
        "priority",
    }
)

#: Admission priority lanes accepted by the service (must mirror
#: :data:`repro.service.queue.PRIORITIES`; duplicated here so the spec
#: module stays import-light).
_PRIORITIES = ("high", "normal", "low")

#: Exact-enumeration fields; part of the cache identity only when
#: ``mode == "exact"`` (the budget decides which probes get verdicts).
EXACT_FIELDS = ("max_enum_bits",)

#: Adaptive-scheduler fields; part of the cache identity only when
#: ``adaptive`` is true (they then decide how many samples each probe gets).
ADAPTIVE_FIELDS = (
    "decide_threshold",
    "null_threshold",
    "decide_chunks",
    "min_null_samples",
    "max_budget_factor",
)


def _is_int(value) -> bool:
    """An integer field value; ``bool`` is not one, though ``True == 1``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A number field value: an int or a float, never a ``bool``."""
    return _is_int(value) or isinstance(value, float)


@dataclass(frozen=True)
class EvaluationSpec:
    """Validated parameters of one leakage evaluation.

    One instance fully describes *what* to evaluate (design, scheme,
    probing model), *how much* (sample budget, windows, pair selection),
    *under which statistics* (threshold, seed), *how to schedule it*
    (uniform or adaptive per-probe budgets), and -- excluded from the cache
    identity -- *how to execute it* (engine, workers, chunk size).
    """

    design: str = "kronecker"
    scheme: str = "full"
    model: str = "glitch"
    n_simulations: int = 100_000
    n_windows: int = 1
    fixed_secret: int = 0
    threshold: float = 5.0
    mode: str = "first"
    max_pairs: Optional[int] = 500
    pair_seed: int = 1
    pair_offsets: Tuple[int, ...] = (0,)
    seed: int = 0
    # -- execution details (never part of the cache identity) -------------
    #: any engine registered in :mod:`repro.engines`; all registered
    #: engines are bit-identical, so the choice never enters the
    #: verdict-cache key.
    engine: str = engine_registry.DEFAULT_ENGINE
    workers: int = 1
    chunk_size: Optional[int] = None
    #: simulate only the sequential fan-in cone of the active probe
    #: supports (see :mod:`repro.netlist.slice`).  Bit-identical to full
    #: simulation, hence an execution detail outside the cache identity.
    slice: bool = True
    # -- adaptive per-probe scheduling -------------------------------------
    #: evaluate with the adaptive per-probe scheduler instead of a uniform
    #: budget (see :mod:`repro.leakage.adaptive`).
    adaptive: bool = False
    #: a probe is decided **leaky** once its -log10(p) stays at or above
    #: this level for ``decide_chunks`` consecutive chunk boundaries.
    decide_threshold: float = 5.0
    #: a probe is decided **null** once its -log10(p) stays at or below
    #: this level (with at least ``min_null_samples`` samples) for
    #: ``decide_chunks`` consecutive chunk boundaries.
    null_threshold: float = 4.0
    #: consecutive chunk boundaries a decision criterion must hold.
    decide_chunks: int = 2
    #: per-group samples a probe must have before a *null* decision counts.
    min_null_samples: int = DEFAULT_CHUNK_SIZE
    #: hard cap on budget escalation for stubborn undecided probes, as a
    #: multiple of ``n_simulations``; 1.0 disables escalation (the default:
    #: adaptive runs never exceed the uniform budget).
    max_budget_factor: float = 1.0
    # -- exact exhaustive enumeration (mode == "exact") --------------------
    #: per-probe enumeration budget in bits: a probe class whose free
    #: randomness + secret variables exceed this is reported infeasible.
    max_enum_bits: int = 24
    #: lanes per shard as a power of two; pure execution detail (sharded
    #: counts merge bit-identically to serial for any value).
    shard_lane_bits: int = 16
    # -- admission (never part of the cache identity) ----------------------
    #: tenant name for per-tenant admission quotas; pure admission detail
    #: -- two tenants submitting the same spec share one cached verdict.
    tenant: str = "default"
    #: admission priority lane ("high" > "normal" > "low"); low-priority
    #: work is shed first under queue backpressure.
    priority: str = "normal"

    # ------------------------------------------------------------- parsing

    @classmethod
    def from_dict(cls, data: Dict) -> "EvaluationSpec":
        """Parse and validate an untrusted spec dict (HTTP body, record)."""
        if not isinstance(data, dict):
            raise SpecError("job spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown job spec field(s): {sorted(unknown)}"
            )
        merged = dict(data)
        if "pair_offsets" in merged:
            try:
                # Booleans pass through for validate() to reject.
                merged["pair_offsets"] = tuple(
                    v if isinstance(v, bool) else int(v)
                    for v in merged["pair_offsets"]
                )
            except (TypeError, ValueError) as exc:
                raise SpecError(
                    "pair_offsets must be a list of integers"
                ) from exc
        spec = cls(**merged)
        spec.validate()
        return spec

    @classmethod
    def from_args(cls, args) -> "EvaluationSpec":
        """Build a spec from an ``argparse`` namespace.

        This is the CLI's single mapping from flags to parameters; the
        ``campaign`` and ``submit`` commands both go through it, so a flag
        added here reaches the local and the remote path at once.  Flags a
        given sub-command does not define simply keep their defaults.
        """
        def get(name, default):
            value = getattr(args, name, None)
            return default if value is None else value

        if get("exact", False):
            mode = "exact"
        elif get("batch_probes", False):
            mode = "both"
        elif get("pairs", False):
            mode = "pairs"
        else:
            mode = "first"
        spec = cls(
            design=get("design", "kronecker"),
            scheme=get("scheme", "full"),
            model=(
                "glitch-transition"
                if get("transitions", False)
                else "glitch"
            ),
            n_simulations=get("simulations", 100_000),
            n_windows=get("windows", 1),
            fixed_secret=get("fixed", 0),
            threshold=get("threshold", 5.0),
            mode=mode,
            max_pairs=get("max_pairs", 500),
            pair_seed=get("pair_seed", 1),
            seed=get("seed", 0),
            engine=get("engine", engine_registry.DEFAULT_ENGINE),
            workers=get("workers", 1),
            chunk_size=getattr(args, "chunk_size", None),
            slice=get("slice", True),
            adaptive=get("adaptive", False),
            decide_threshold=get("decide_threshold", 5.0),
            null_threshold=get("null_threshold", 4.0),
            decide_chunks=get("decide_chunks", 2),
            min_null_samples=get("min_null_samples", DEFAULT_CHUNK_SIZE),
            max_budget_factor=get("adaptive_cap", 1.0),
            max_enum_bits=get("max_enum_bits", 24),
            shard_lane_bits=get("shard_lane_bits", 16),
            tenant=get("tenant", "default"),
            priority=get("priority", "normal"),
        )
        spec.validate()
        return spec

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Cheap structural validation (design existence is checked later)."""
        if self.model not in _MODELS:
            raise SpecError("model must be 'glitch' or 'glitch-transition'")
        if self.mode not in _MODES:
            raise SpecError(
                "mode must be 'first', 'pairs', 'both', or 'exact'"
            )
        try:
            engine_registry.get_engine(self.engine)
        except engine_registry.EngineError as exc:
            raise SpecError(str(exc)) from None
        for name in ("design", "scheme"):
            if not isinstance(getattr(self, name), str):
                raise SpecError(f"{name} must be a string")
        for name in ("fixed_secret", "seed", "pair_seed"):
            if not _is_int(getattr(self, name)):
                raise SpecError(f"{name} must be an integer")
        if not isinstance(self.pair_offsets, (tuple, list)) or not all(
            _is_int(v) for v in self.pair_offsets
        ):
            raise SpecError("pair_offsets must be a list of integers")
        if not _is_number(self.threshold):
            raise SpecError("threshold must be a number")
        if self.max_pairs is not None and (
            not _is_int(self.max_pairs) or self.max_pairs < 1
        ):
            raise SpecError("max_pairs must be a positive integer")
        if not _is_int(self.n_simulations) or self.n_simulations < 1:
            raise SpecError("n_simulations must be a positive integer")
        if not _is_int(self.n_windows) or self.n_windows < 1:
            raise SpecError("n_windows must be a positive integer")
        if not _is_int(self.workers) or self.workers < 1:
            raise SpecError("workers must be a positive integer")
        if self.chunk_size is not None and (
            not _is_int(self.chunk_size) or self.chunk_size < 1
        ):
            raise SpecError("chunk_size must be a positive integer")
        if not isinstance(self.slice, bool):
            raise SpecError("slice must be a boolean")
        if not isinstance(self.adaptive, bool):
            raise SpecError("adaptive must be a boolean")
        for name in ("decide_threshold", "null_threshold"):
            value = getattr(self, name)
            if not _is_number(value) or value <= 0:
                raise SpecError(f"{name} must be a positive number")
        if self.null_threshold > self.decide_threshold:
            raise SpecError(
                "null_threshold must not exceed decide_threshold "
                "(the band between them stays undecided)"
            )
        if not _is_int(self.decide_chunks) or self.decide_chunks < 1:
            raise SpecError("decide_chunks must be a positive integer")
        if (
            not _is_int(self.min_null_samples)
            or self.min_null_samples < 1
        ):
            raise SpecError("min_null_samples must be a positive integer")
        if (
            not _is_number(self.max_budget_factor)
            or self.max_budget_factor < 1.0
        ):
            raise SpecError("max_budget_factor must be at least 1.0")
        if not _is_int(self.max_enum_bits) or not (
            1 <= self.max_enum_bits <= 40
        ):
            raise SpecError("max_enum_bits must be an integer in [1, 40]")
        if not _is_int(self.shard_lane_bits) or not (
            1 <= self.shard_lane_bits <= 32
        ):
            raise SpecError("shard_lane_bits must be an integer in [1, 32]")
        if (
            not isinstance(self.tenant, str)
            or not self.tenant
            or len(self.tenant) > 64
        ):
            raise SpecError(
                "tenant must be a non-empty string of at most 64 characters"
            )
        if self.priority not in _PRIORITIES:
            raise SpecError(
                f"priority must be one of {list(_PRIORITIES)}"
            )

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        """JSON-safe round-trip form; ``from_dict(to_dict())`` == self."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    # ----------------------------------------------------- cache identity

    def cache_params(self, netlist_hash: str) -> Dict:
        """The semantic identity of this spec's verdict.

        For non-adaptive specs this is exactly the pre-spec service's
        parameter dict, so existing cache keys remain valid byte for byte.
        Adaptive specs add an ``"adaptive"`` sub-object: the scheduler
        changes per-probe sample counts, so its parameters are semantic.
        Exact specs likewise add an ``"exact"`` sub-object carrying the
        enumeration budget (it decides which probes get verdicts); the
        shard size stays out -- sharded counts merge bit-identically.
        """
        params = {
            "netlist_hash": netlist_hash,
            "model": self.model,
            "n_simulations": self.n_simulations,
            "n_windows": self.n_windows,
            "fixed_secret": self.fixed_secret,
            "threshold": self.threshold,
            "mode": self.mode,
            "max_pairs": self.max_pairs,
            "pair_seed": self.pair_seed,
            "pair_offsets": list(self.pair_offsets),
            "seed": self.seed,
        }
        if self.adaptive:
            params["adaptive"] = {
                name: getattr(self, name) for name in ADAPTIVE_FIELDS
            }
        if self.mode == "exact":
            params["exact"] = {
                name: getattr(self, name) for name in EXACT_FIELDS
            }
        return params

    def cache_key(self, netlist_hash: str) -> str:
        """Canonical SHA-256 addressing this spec's verdict."""
        return canonical_key(self.cache_params(netlist_hash))

    # ------------------------------------------------------------ derived

    def adaptive_config(self):
        """The scheduler parameters, or ``None`` for uniform budgets."""
        if not self.adaptive:
            return None
        from repro.leakage.adaptive import AdaptiveConfig

        return AdaptiveConfig(
            decide_threshold=self.decide_threshold,
            null_threshold=self.null_threshold,
            decide_chunks=self.decide_chunks,
            min_null_samples=self.min_null_samples,
            max_budget_factor=self.max_budget_factor,
        )

    def campaign_config(
        self,
        checkpoint: Optional[str] = None,
        default_chunking: bool = False,
        time_budget: Optional[float] = None,
        on_budget: str = "truncate",
        early_stop: Optional[float] = None,
        stall_timeout: Optional[float] = None,
    ):
        """The :class:`CampaignConfig` this spec describes.

        ``default_chunking`` applies the service-side default chunk size
        when the spec did not request chunks (jobs always checkpoint, and
        the adaptive scheduler needs chunk boundaries to decide at).
        Execution extras that are not part of the spec -- checkpoint path,
        wall-clock budget, early stop -- ride in as keyword arguments.
        """
        from repro.leakage.campaign import CampaignConfig

        chunk = self.chunk_size
        if chunk is None and (default_chunking or self.adaptive):
            chunk = min(self.n_simulations, DEFAULT_CHUNK_SIZE)
        return CampaignConfig(
            n_simulations=self.n_simulations,
            n_windows=self.n_windows,
            fixed_secret=self.fixed_secret,
            threshold=self.threshold,
            chunk_size=chunk,
            checkpoint=checkpoint,
            time_budget=time_budget,
            on_budget=on_budget,
            early_stop=early_stop,
            mode=self.mode,
            max_pairs=self.max_pairs,
            pair_seed=self.pair_seed,
            pair_offsets=self.pair_offsets,
            workers=self.workers,
            adaptive=self.adaptive_config(),
            stall_timeout=stall_timeout,
        )


def canonical_key(params: Dict) -> str:
    """SHA-256 of the canonical JSON encoding of ``params``.

    Canonical means sorted keys and minimal separators, so the digest is
    invariant under dict ordering and whitespace -- the same parameters
    always address the same verdict.
    """
    text = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
