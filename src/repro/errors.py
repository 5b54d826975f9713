"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class NetlistError(ReproError):
    """Structural problem in a netlist (dangling net, multiple drivers...)."""


class SimulationError(ReproError):
    """Problem while simulating a netlist (missing input, shape mismatch)."""


class FieldError(ReproError):
    """Invalid Galois-field construction or operation."""


class MaskingError(ReproError):
    """Invalid sharing or gadget construction."""


class ExactAnalysisInfeasible(ReproError):
    """The exact leakage analysis would exceed the enumeration budget.

    Callers are expected to fall back to Monte-Carlo sampling.  Carries the
    per-probe cost so reports and telemetry can say *how far* a probe is
    beyond the budget: ``needed_bits`` is the enumeration bits the probe
    requires (``None`` when unknown), ``budget`` the configured limit.
    """

    def __init__(
        self,
        message: str,
        probe: "str | None" = None,
        needed_bits: "int | None" = None,
        budget: "int | None" = None,
    ):
        super().__init__(message)
        self.probe = probe
        self.needed_bits = needed_bits
        self.budget = budget


class CheckpointError(ReproError):
    """A campaign checkpoint could not be read, written, or reused.

    Raised on version mismatches, persistent write failures, and attempts
    to resume a checkpoint written by a differently-configured campaign.
    """


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file failed its integrity checks (CRC, container, zip).

    Campaigns do not surface this directly on resume: a corrupt generation
    is quarantined and the previous generation (or a fresh start) takes
    over, bit-identically.  The type exists so integrity failures stay
    distinguishable from configuration mismatches, which must *not* fall
    back silently.
    """


class ChaosError(ReproError):
    """The chaos harness observed a robustness-contract violation.

    Raised by :func:`repro.chaos.run_torture` when a fault-injected run
    neither reproduced the golden report bit for bit nor failed with a
    typed error -- i.e. the infrastructure produced a silently wrong (or
    untyped-crashing) result, which is exactly what the harness exists to
    catch.
    """


class ServiceError(ReproError):
    """Evaluation-service failure (bad job spec, full queue, corrupt store).

    The HTTP layer maps subclasses/messages to status codes; the CLI maps
    them to exit code 2 like every other :class:`ReproError`.
    """


class SpecError(ServiceError):
    """Invalid :class:`repro.spec.EvaluationSpec` construction or parsing.

    Subclasses :class:`ServiceError` because the spec is also the service
    job wire format: existing ``except ServiceError`` handlers (the HTTP
    400 mapping, the CLI) keep working unchanged.
    """


class FleetInterrupted(ServiceError):
    """A fleet-distributed wait aborted before every work item finished.

    Raised by :meth:`repro.service.fleet.FleetCoordinator.wait` when the
    caller's ``should_stop`` fires (cancellation, watchdog stall, service
    shutdown) or when the owning job is released mid-wait, and by
    :class:`repro.leakage.parallel.BlockExecutor` when such a stop leaves
    a chunk's blocks without results.  The runner maps it onto the same
    cancelled / restart / requeue ladder used for ``truncated:cancelled``
    campaign reports.
    """


class WorkItemError(ServiceError):
    """A work item's result does not hold what the item asked for.

    Raised by the result checks of :mod:`repro.leakage.parallel` before
    anything merges: a ``blocks`` result with a missing, extra or
    miscounted table, or an ``exact_shard`` result without the counts of
    a listed class.  Subclasses :class:`ServiceError` because fleet
    results were the first to be checked; handlers of that type keep
    working.
    """


class BudgetExceeded(ReproError):
    """A campaign exhausted its wall-clock or memory budget in strict mode.

    The default campaign behaviour is a graceful truncated report; this is
    only raised when the caller asked for ``on_budget="raise"``.
    """
