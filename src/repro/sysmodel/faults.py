"""Deterministic fault injection + retry policy for the coupling path.

The paper's central robustness argument: the WfMS owns navigation state,
so a failed federated function can be *restarted* (forward recovery from
the activity's input container), while the pure-UDTF architectures must
abort the whole SQL statement.  SkyQuery makes per-source failure
isolation a first-class mediator concern; this module gives our
IntegrationServer/RmiChannel/appsys stack the same treatment.

A :class:`FaultInjector` decides — driven by the seeded
:class:`~repro.simtime.rng.FaultRng` — whether a pass through a *named
site* fails.  Sites map onto the failure classes the paper discusses:

========================  ==================================================
site                      failure injected
========================  ==================================================
``rmi.udtf``              RMI hop to the controller dropped (A-UDTF path)
``rmi.wfms``              container-shipping RMI hop to the WfMS dropped
``appsys.local_function`` local function of an application system errors
``wfms.activity_program`` activity-program JVM crashes
``udtf.fenced_process``   fenced A-UDTF process dies during hand-over
========================  ==================================================

The injector itself never touches the virtual clock; the component at
each site charges the calibrated fault-detection / timeout costs from
:mod:`repro.simtime.costs` when a fault fires.  With ``enabled=False``
(the default) every :meth:`FaultInjector.should_fail` returns False
without drawing from the RNG, so the disabled harness is invisible —
bit-identical timings, same as pooling.  The same holds for an *armed*
site at probability 0: no draw, no charge, no behavioural change.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.simtime.rng import FaultRng

SITE_RMI_UDTF = "rmi.udtf"
"""RMI hop between a fenced A-UDTF and the controller."""

SITE_RMI_WFMS = "rmi.wfms"
"""Container-shipping RMI hop between the connecting UDTF and the WfMS."""

SITE_LOCAL_FUNCTION = "appsys.local_function"
"""Local-function execution inside an application system."""

SITE_ACTIVITY_PROGRAM = "wfms.activity_program"
"""The fresh JVM running one workflow activity program."""

SITE_FENCED_PROCESS = "udtf.fenced_process"
"""The fenced process hosting one A-UDTF invocation."""

FAULT_SITES = (
    SITE_RMI_UDTF,
    SITE_RMI_WFMS,
    SITE_LOCAL_FUNCTION,
    SITE_ACTIVITY_PROGRAM,
    SITE_FENCED_PROCESS,
)
"""All named injection sites, in documentation order."""


@dataclass
class FaultPlan:
    """Injection plan for one site: probability and an optional budget."""

    probability: float = 0.0
    count: int | None = None
    """Inject at most this many faults at the site (None = unlimited)."""
    injected: int = 0

    def exhausted(self) -> bool:
        """Whether the site's fault budget is used up."""
        return self.count is not None and self.injected >= self.count


class FaultInjector:
    """Seeded, per-site fault decision source.

    ``arm`` configures one site; ``should_fail`` is the single question
    components ask.  Decisions are deterministic given the seed and the
    sequence of calls, which is what makes E10 reproducible.
    """

    def __init__(self, rng: FaultRng | None = None, enabled: bool = False):
        self.rng = rng if rng is not None else FaultRng()
        self.enabled = enabled
        self._plans: dict[str, FaultPlan] = {}
        #: Makes the RNG draw + budget decrement of :meth:`should_fail`
        #: atomic: concurrent sessions must neither over-spend a site's
        #: fault budget nor tear the decision stream mid-draw.
        self._lock = threading.RLock()

    def configure(
        self, enabled: bool | None = None, seed: int | None = None
    ) -> None:
        """Switch the harness on/off and/or reseed the decision stream."""
        if seed is not None:
            self.rng.reseed(seed)
        if enabled is not None:
            self.enabled = enabled

    def arm(
        self,
        site: str,
        probability: float = 1.0,
        count: int | None = None,
    ) -> None:
        """Arm one site: fail each pass with ``probability``, at most
        ``count`` times in total (None = unlimited)."""
        if site not in FAULT_SITES:
            raise SimulationError(
                f"unknown fault site {site!r}; expected one of {FAULT_SITES}"
            )
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(
                f"fault probability must be in [0, 1], got {probability!r}"
            )
        if count is not None and count < 0:
            raise SimulationError(f"fault count must be >= 0, got {count!r}")
        with self._lock:
            self._plans[site] = FaultPlan(probability=probability, count=count)

    def should_fail(self, site: str) -> bool:
        """Whether this pass through ``site`` fails (counts the fault).

        Probability-0 and unarmed sites never draw from the RNG, so
        arming a site at probability 0 cannot perturb any other site's
        decision stream.
        """
        if not self.enabled:
            return False
        with self._lock:
            plan = self._plans.get(site)
            if plan is None or plan.probability <= 0.0 or plan.exhausted():
                return False
            if plan.probability < 1.0 and self.rng.roll() >= plan.probability:
                return False
            plan.injected += 1
            return True

    def injected(self, site: str | None = None) -> int:
        """Faults injected at one site (or across all sites)."""
        with self._lock:
            if site is not None:
                plan = self._plans.get(site)
                return plan.injected if plan is not None else 0
            return sum(plan.injected for plan in self._plans.values())

    def reset(self) -> None:
        """Zero the injection counters and restart the RNG stream."""
        with self._lock:
            for plan in self._plans.values():
                plan.injected = 0
            self.rng.reseed(self.rng.seed)

    def stats(self) -> dict[str, int]:
        """Per-site injection counters plus the enabled flag and total."""
        with self._lock:
            counters = {
                f"injected[{site}]": plan.injected
                for site, plan in sorted(self._plans.items())
            }
            counters["injected_total"] = self.injected()
            counters["enabled"] = int(self.enabled)
            return counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<FaultInjector {state} {self.injected()} injected>"


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff in virtual time.

    Honored by :meth:`~repro.sysmodel.rmi.RmiChannel.invoke` for dropped
    hops and by the workflow engine for failed program activities.  With
    ``active=False`` (the default) no component retries beyond its
    paper-calibrated behaviour and no backoff is ever charged, keeping
    the disabled policy invisible to the cost accounting.
    """

    max_attempts: int = 3
    backoff_base: float | None = None
    """First retry's backoff; None uses ``costs.retry_backoff_base``."""
    multiplier: float = 2.0
    active: bool = False
    retries: int = 0
    """Total retries granted across all components (stats counter)."""
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def configure(
        self,
        active: bool | None = None,
        max_attempts: int | None = None,
        backoff_base: float | None = None,
        multiplier: float | None = None,
    ) -> None:
        """Adjust the policy in place (all components share one)."""
        if max_attempts is not None:
            if max_attempts < 1:
                raise SimulationError(
                    f"max_attempts must be >= 1, got {max_attempts!r}"
                )
            self.max_attempts = max_attempts
        if backoff_base is not None:
            if backoff_base < 0:
                raise SimulationError(
                    f"backoff_base must be >= 0, got {backoff_base!r}"
                )
            self.backoff_base = backoff_base
        if multiplier is not None:
            if multiplier < 1.0:
                raise SimulationError(
                    f"multiplier must be >= 1, got {multiplier!r}"
                )
            self.multiplier = multiplier
        if active is not None:
            self.active = active

    def attempts(self) -> int:
        """How many attempts a component may make (1 when inactive)."""
        return self.max_attempts if self.active else 1

    def backoff(self, attempt: int, default_base: float) -> float:
        """Virtual-time delay before retry ``attempt`` (1-based)."""
        base = self.backoff_base if self.backoff_base is not None else default_base
        return base * (self.multiplier ** (attempt - 1))

    def note_retry(self) -> None:
        """Record one granted retry (stats)."""
        with self._lock:
            self.retries += 1

    def stats(self) -> dict[str, int]:
        """Policy parameters and the granted-retry counter."""
        with self._lock:
            return {
                "active": int(self.active),
                "max_attempts": self.max_attempts,
                "retries": self.retries,
            }
