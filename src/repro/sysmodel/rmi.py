"""Simulated RMI channels between processes.

The paper's prototypes use Java RMI between the fenced UDTF processes
and the controller, and between the connecting UDTF and the workflow
client.  Only the latency of the hops matters here; the channel charges
``call_cost`` before invoking the remote callable and ``return_cost``
after it returns.

A channel can additionally be made *persistent*: the first hop still
pays the full connection-setup cost, but the established channel is kept
open by the controller and subsequent hops pay only the smaller warm
costs.  Persistence is off by default, in which case every hop pays the
cold costs exactly as before.

Channels are also the first injection site of the fault harness
(:mod:`repro.sysmodel.faults`): a bound injector may *drop* the call
hop, which charges the timeout + fault-detection costs and raises
:class:`~repro.errors.RmiDroppedError`.  A bound retry policy re-drives
dropped hops with exponential backoff in virtual time.

Exception safety: the return hop is charged in a ``finally`` — a raising
remote still pays the hop that carries the failure back — and a
persistent channel counts as established once the call hop completed
(connection setup was paid), so a retry after a remote-side failure pays
the warm costs instead of double-paying cold setup.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import RmiDroppedError
from repro.simtime.clock import VirtualClock
from repro.simtime.trace import maybe_span

if TYPE_CHECKING:  # pragma: no cover
    from repro.simtime.costs import CostModel
    from repro.sysmodel.faults import FaultInjector, RetryPolicy


class RmiChannel:
    """A costed request/response channel between two simulated processes."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        call_cost: float,
        return_cost: float,
        warm_call_cost: float | None = None,
        warm_return_cost: float | None = None,
    ):
        self.name = name
        self._clock = clock
        self.call_cost = call_cost
        self.return_cost = return_cost
        self.warm_call_cost = warm_call_cost if warm_call_cost is not None else call_cost
        self.warm_return_cost = (
            warm_return_cost if warm_return_cost is not None else return_cost
        )
        self.persistent = False
        self._established = False
        #: Real wall-clock seconds each hop sleeps (simulated time is
        #: never touched).  Off (0.0) by default — then no sleep ever
        #: runs and wall-clock behaviour is identical to a channel
        #: without the knob.  When set, the sleep releases the GIL, so
        #: concurrent serving sessions overlap their wire time — the
        #: effect the MVCC scaling bench measures.
        self.wall_latency_s = 0.0
        #: Guards the hop counters and the established flag; never held
        #: across the remote callable itself.
        self._lock = threading.RLock()
        self.call_count = 0
        self.warm_calls = 0
        self.drops = 0
        self.retries = 0
        self._injector: "FaultInjector | None" = None
        self._retry_policy: "RetryPolicy | None" = None
        self._fault_costs: "CostModel | None" = None
        self._fault_site: str | None = None

    def configure(self, persistent: bool | None = None) -> None:
        """Switch persistent-channel reuse on or off.

        Turning persistence off also drops the established connection, so
        a later re-enable starts cold again.
        """
        if persistent is not None:
            with self._lock:
                self.persistent = persistent
                if not persistent:
                    self._established = False

    def bind_faults(
        self,
        injector: "FaultInjector",
        site: str,
        retry_policy: "RetryPolicy",
        costs: "CostModel",
    ) -> None:
        """Attach the fault harness: injection site + retry policy.

        The injector and policy objects are shared and mutated in place
        by :meth:`~repro.sysmodel.machine.Machine.configure_faults`, so
        binding once at machine construction suffices.
        """
        self._injector = injector
        self._fault_site = site
        self._retry_policy = retry_policy
        self._fault_costs = costs

    @property
    def established(self) -> bool:
        """Whether a persistent connection is currently open."""
        return self._established

    def invoke(
        self,
        remote: Callable[..., Any],
        *args: Any,
        call_label: str | None = None,
        return_label: str | None = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``remote(*args, **kwargs)`` across the channel.

        Charges the call hop, runs the remote side (which charges its own
        costs), then charges the return hop.  Optional span labels let
        callers attribute the hops to the paper's Fig. 6 step names.  On
        a persistent channel every hop after the first pays the warm
        costs instead of re-doing connection setup.

        Dropped hops (injected faults) are retried per the bound retry
        policy, each retry waiting out an exponential backoff in virtual
        time.  Exceptions raised by ``remote`` itself are never retried
        here — failure semantics belong to the caller's layer.
        """
        policy = self._retry_policy
        attempt = 1
        while True:
            try:
                return self._invoke_once(remote, args, kwargs, call_label, return_label)
            except RmiDroppedError:
                if (
                    policy is None
                    or not policy.active
                    or attempt >= policy.max_attempts
                ):
                    raise
                assert self._fault_costs is not None
                backoff = policy.backoff(
                    attempt, self._fault_costs.retry_backoff_base
                )
                with self._lock:
                    self.retries += 1
                policy.note_retry()
                with maybe_span(f"rmi backoff:{self.name}"):
                    self._clock.advance(backoff)
                attempt += 1

    def _invoke_once(
        self,
        remote: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        call_label: str | None,
        return_label: str | None,
    ) -> Any:
        with self._lock:
            self.call_count += 1
            warm = self.persistent and self._established
            if warm:
                self.warm_calls += 1
        with maybe_span(call_label or f"rmi call:{self.name}"):
            self._clock.advance(self.warm_call_cost if warm else self.call_cost)
        if self.wall_latency_s > 0.0:
            time.sleep(self.wall_latency_s)
        if self.persistent:
            # Connection setup was paid with the call hop; a failure on
            # the remote side must not force a retry to pay it again.
            with self._lock:
                self._established = True
        if self._injector is not None and self._fault_site is not None:
            if self._injector.should_fail(self._fault_site):
                with self._lock:
                    self.drops += 1
                    # The hop died with the connection: a persistent
                    # channel must re-establish before the next
                    # (warm-free) attempt.
                    self._established = False
                assert self._fault_costs is not None
                with maybe_span(f"rmi timeout:{self.name}"):
                    self._clock.advance(
                        self._fault_costs.rmi_timeout
                        + self._fault_costs.fault_detection
                    )
                raise RmiDroppedError(
                    self._fault_site,
                    f"RMI hop dropped on channel {self.name!r} "
                    f"(call #{self.call_count})",
                )
        try:
            return remote(*args, **kwargs)
        finally:
            # The return hop carries results *and* failures back; charge
            # it either way so a raising remote cannot skip the hop.
            if self.wall_latency_s > 0.0:
                time.sleep(self.wall_latency_s)
            with maybe_span(return_label or f"rmi return:{self.name}"):
                self._clock.advance(
                    self.warm_return_cost if warm else self.return_cost
                )

    def reset(self) -> None:
        """Drop the established connection (machine reboot)."""
        with self._lock:
            self._established = False

    def stats(self) -> dict[str, int]:
        """Hop counters plus the channel's persistence state."""
        with self._lock:
            return {
                "calls": self.call_count,
                "warm_calls": self.warm_calls,
                "drops": self.drops,
                "retries": self.retries,
                "persistent": int(self.persistent),
                "established": int(self._established),
            }
