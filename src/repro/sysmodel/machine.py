"""The simulated machine hosting the whole integration environment.

One :class:`Machine` owns the shared virtual clock, the cost model, the
warmth state, and every long-lived process of the testbed: the FDBS
server, the WfMS server, the controller, and the application systems.
Processes are started lazily — the first federated-function call after
:meth:`Machine.boot` pays the service-start penalties, reproducing the
paper's boot / warm / hot comparison (Sect. 4, ¶3).
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Callable

from repro.simtime.clock import VirtualClock
from repro.simtime.costs import CostModel, DEFAULT_COSTS, Warmth
from repro.simtime.rng import JitterSource
from repro.sysmodel.controller import Controller
from repro.sysmodel.faults import (
    SITE_RMI_UDTF,
    SITE_RMI_WFMS,
    FaultInjector,
    RetryPolicy,
)
from repro.sysmodel.pool import WarmRuntimePool
from repro.sysmodel.process import OsProcess
from repro.sysmodel.result_cache import ResultCache
from repro.sysmodel.rmi import RmiChannel


class Machine:
    """Hosting environment for the FDBS + WfMS integration server."""

    def __init__(
        self,
        costs: CostModel | None = None,
        controller_enabled: bool = True,
        jitter: JitterSource | None = None,
    ):
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.jitter = jitter if jitter is not None else JitterSource()
        self.clock = VirtualClock(
            jitter=self.jitter if self.jitter.amplitude > 0 else None
        )
        self.warmth = Warmth()

        self.fdbs_process = OsProcess("fdbs-server", self.clock, self.costs.fdbs_boot)
        self.wfms_process = OsProcess(
            "wfms-server", self.clock, self.costs.wf_server_boot
        )
        self.controller = Controller(self.clock, self.costs, controller_enabled)
        self.appsys_processes: dict[str, OsProcess] = {}

        self.udtf_rmi = RmiChannel(
            "udtf-controller",
            self.clock,
            call_cost=self.costs.rmi_call,
            return_cost=self.costs.rmi_return,
            warm_call_cost=self.costs.rmi_warm_call,
            warm_return_cost=self.costs.rmi_warm_return,
        )
        self.wf_rmi = RmiChannel(
            "udtf-wfms",
            self.clock,
            call_cost=self.costs.wf_rmi_call,
            return_cost=self.costs.wf_rmi_return,
            warm_call_cost=self.costs.wf_rmi_warm_call,
            warm_return_cost=self.costs.wf_rmi_warm_return,
        )

        self.runtime_pool = WarmRuntimePool()
        self.result_cache = ResultCache()
        self.fault_injector = FaultInjector()
        self.retry_policy = RetryPolicy()
        self.forward_recovery = False
        self.udtf_rmi.bind_faults(
            self.fault_injector, SITE_RMI_UDTF, self.retry_policy, self.costs
        )
        self.wf_rmi.bind_faults(
            self.fault_injector, SITE_RMI_WFMS, self.retry_policy, self.costs
        )
        self.architecture_tag = "DEFAULT"
        self.execution_mode_provider: Callable[[], str] | None = None
        #: Extra runtime_stats() sections contributed by components the
        #: machine does not own (e.g. the attached database's MVCC
        #: counters).  Each provider must take only its own leaf locks.
        self.extra_stats_providers: dict[str, Callable[[], dict[str, int]]] = {}

    # -- lifecycle -----------------------------------------------------------

    def register_appsys(self, name: str) -> OsProcess:
        """Create (stopped) the process hosting one application system."""
        if name in self.appsys_processes:
            return self.appsys_processes[name]
        process = OsProcess(f"appsys:{name}", self.clock, self.costs.appsys_boot)
        self.appsys_processes[name] = process
        return process

    def boot(self) -> None:
        """(Re)boot the machine: stop everything and forget all caches.

        Costs are charged lazily when the first call touches each
        process, which is exactly how the paper's 'initial function
        calls are the slowest' behaviour arises.
        """
        for process in self._all_processes():
            if process.running:
                process.stop()
        self.warmth.reset()
        self.runtime_pool.reset()
        self.result_cache.reset()
        self.udtf_rmi.reset()
        self.wf_rmi.reset()
        self.fault_injector.reset()

    def ensure_base_services(self) -> bool:
        """Start the FDBS and controller if cold; True if any start ran."""
        started = self.fdbs_process.ensure_running()
        if self.controller.enabled:
            started = self.controller.ensure_running() or started
        if started:
            self.warmth.machine_cold = False
        return started

    def ensure_wfms(self) -> bool:
        """Start the WfMS server if cold; True if a start ran."""
        return self.wfms_process.ensure_running()

    def ensure_appsys(self, name: str) -> bool:
        """Start one application-system process if cold."""
        if name not in self.appsys_processes:
            self.register_appsys(name)
        return self.appsys_processes[name].ensure_running()

    def _all_processes(self) -> list[OsProcess]:
        return [
            self.fdbs_process,
            self.wfms_process,
            self.controller,
            *self.appsys_processes.values(),
        ]

    # -- runtime pooling & caching --------------------------------------------

    def configure_runtime(
        self,
        pooling: bool | None = None,
        result_cache: bool | None = None,
        pool_capacity: int | None = None,
        cache_capacity: int | None = None,
        rmi_wall_latency_s: float | None = None,
    ) -> None:
        """Apply the runtime fields of :class:`~repro.fdbs.options.Options`
        (None leaves a setting as it is).

        Persistent RMI channels ride with the pooling flag: a pooled
        integration server also keeps its controller and WfMS channels
        established.  Both features default to off, in which case every
        cost charged is bit-identical to the unpooled simulation.
        ``rmi_wall_latency_s`` attaches real wall-clock latency to every
        RMI hop; simulated time is untouched.  It models the physical
        wire delay that lets concurrent sessions overlap under the GIL
        (the sleep releases it); the default 0.0 never sleeps.
        """
        if pooling is not None or pool_capacity is not None:
            self.runtime_pool.configure(enabled=pooling, capacity=pool_capacity)
        if pooling is not None:
            self.udtf_rmi.configure(persistent=pooling)
            self.wf_rmi.configure(persistent=pooling)
        if result_cache is not None or cache_capacity is not None:
            self.result_cache.configure(
                enabled=result_cache, capacity=cache_capacity
            )
        if rmi_wall_latency_s is not None:
            self.udtf_rmi.wall_latency_s = rmi_wall_latency_s
            self.wf_rmi.wall_latency_s = rmi_wall_latency_s

    def configure_faults(
        self,
        enabled: bool | None = None,
        seed: int | None = None,
        sites: dict[str, float | tuple[float, int | None]] | None = None,
        retry_attempts: int | None = None,
        backoff_base: float | None = None,
        forward_recovery: bool | None = None,
    ) -> None:
        """Configure the fault-injection harness and recovery policies.

        ``sites`` maps site names (see :data:`repro.sysmodel.faults.FAULT_SITES`)
        to a probability or a ``(probability, count)`` pair.  Passing
        ``retry_attempts`` activates the shared retry policy; forward
        recovery lets the workflow navigator restart failed activities
        from their input containers.  Everything defaults to off, and a
        site armed at probability 0 never draws from the RNG, so the
        disabled (or zero-rate) harness leaves timings bit-identical.
        """
        self.fault_injector.configure(enabled=enabled, seed=seed)
        if sites is not None:
            for site, spec in sites.items():
                if isinstance(spec, tuple):
                    probability, count = spec
                else:
                    probability, count = spec, None
                self.fault_injector.arm(site, probability=probability, count=count)
        if retry_attempts is not None or backoff_base is not None:
            self.retry_policy.configure(
                active=True,
                max_attempts=retry_attempts,
                backoff_base=backoff_base,
            )
        if forward_recovery is not None:
            self.forward_recovery = forward_recovery

    def result_cache_namespace(self) -> str:
        """Cache namespace: architecture tag + current execution mode."""
        mode = (
            self.execution_mode_provider()
            if self.execution_mode_provider is not None
            else "row"
        )
        return f"{self.architecture_tag}:{mode}"

    def runtime_stats(self) -> dict[str, dict[str, int]]:
        """Counters of the pool, result cache and RMI channels, by component.

        The snapshot is *consistent*: every component lock is held (in a
        fixed order, so concurrent snapshots cannot deadlock) while the
        counters are read, so no in-flight call can tear the numbers —
        a conservation invariant that holds per component also holds
        across the components of one snapshot.  The component locks are
        re-entrant, which lets each ``stats()`` re-acquire its own lock.
        """
        with ExitStack() as stack:
            for lock in (
                self.runtime_pool._lock,
                self.result_cache._lock,
                self.udtf_rmi._lock,
                self.wf_rmi._lock,
                self.fault_injector._lock,
                self.retry_policy._lock,
            ):
                stack.enter_context(lock)
            stats = {
                "runtime_pool": self.runtime_pool.stats(),
                "result_cache": self.result_cache.stats(),
                "rmi_udtf": self.udtf_rmi.stats(),
                "rmi_wfms": self.wf_rmi.stats(),
                "faults": {
                    **self.fault_injector.stats(),
                    **{
                        f"retry_{k}": v
                        for k, v in self.retry_policy.stats().items()
                    },
                    "forward_recovery": int(self.forward_recovery),
                },
            }
            for name, provider in self.extra_stats_providers.items():
                stats[name] = provider()
            return stats

    # -- convenience ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now

    def charge(self, amount: float) -> None:
        """Charge latency to the clock (jitter is applied by the clock
        itself when a jitter source is configured)."""
        self.clock.advance(amount)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = [p.name for p in self._all_processes() if p.running]
        return f"<Machine t={self.clock.now:.1f} running={running}>"
