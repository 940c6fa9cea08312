"""The fenced UDTF runtime.

DB2's security restriction (paper, Sect. 4): a UDTF may not connect to
a database on the same server from its own process, so every UDTF runs
*fenced* and reaches local functions — or the WfMS — through an RMI hop
to the controller.  This runtime replaces the default in-process
:class:`~repro.fdbs.engine.FunctionRuntime` of the integration FDBS and
charges exactly the step costs of the paper's Fig. 6 breakdown:

UDTF architecture (per federated-function call with *n* A-UDTFs)::

    Start I-UDTF        once      udtf_start_integration
    Prepare A-UDTFs     n times   udtf_prepare_access
    RMI calls           n times   rmi_call
    controller runs     n times   controller_dispatch
    Process activities  n times   local function work (in the app system)
    Finish A-UDTFs      n times   udtf_finish_access
    RMI returns         n times   rmi_return
    Finish I-UDTF       once      udtf_finish_integration

WfMS architecture (per federated-function call)::

    Start UDTF                          wf_udtf_start
    Process UDTF                        wf_udtf_process
    RMI call / RMI return               wf_rmi_call / wf_rmi_return
    Controller                          controller_wfms_brokerage
    Start workflows and Java environment, Process activities, Workflow
                                        (charged inside the WfMS client)
    Finish UDTF                         wf_udtf_finish

With the controller disabled (the paper's ablation) the RMI hops and
controller costs vanish on both paths.
"""

from __future__ import annotations

import threading

from repro.errors import FencedModeError, FencedProcessDiedError
from repro.fdbs.catalog import ExternalTableFunction, SqlTableFunction
from repro.fdbs.engine import Database, FunctionRuntime
from repro.fdbs.expr import EvalContext
from repro.simtime.trace import maybe_span
from repro.sysmodel.faults import SITE_FENCED_PROCESS
from repro.sysmodel.machine import Machine

#: Catalog language tag marking the connecting UDTF of the WfMS coupling.
WFMS_LANGUAGE = "WFMS"

from repro.udtf.procedural import PROCEDURAL_LANGUAGE  # noqa: E402


class FencedUdtfContext:
    """Execution context handed to fenced UDTF implementations.

    Its only job is to enforce the fenced-mode security model: an
    implementation that tries to open an in-process connection to the
    hosting database gets :class:`~repro.errors.FencedModeError`, which
    is precisely why the controller exists.
    """

    def __init__(self, database: Database):
        self._database = database

    def connect_in_process(self) -> Database:
        """Always raises FencedModeError (the security rule)."""
        raise FencedModeError(
            "fenced UDTFs cannot connect to the hosting database from their "
            "own process; route the request through the controller"
        )


class FencedFunctionRuntime(FunctionRuntime):
    """Cost-charging, controller-routed table-function runtime."""

    def __init__(self, database: Database, machine: Machine):
        super().__init__(database)
        self.machine = machine
        self.fenced_invocations = 0
        #: Guards the invocation counter under concurrent sessions.
        self._invocation_lock = threading.Lock()

    def _note_invocation(self) -> None:
        with self._invocation_lock:
            self.fenced_invocations += 1

    # -- SQL I-UDTFs -------------------------------------------------------------

    def invoke_sql(
        self, function: SqlTableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]:
        """I-UDTF path: start/finish costs around the SQL body."""
        self._note_invocation()
        costs = self.machine.costs
        with maybe_span("Start I-UDTF"):
            self.machine.clock.advance(costs.udtf_start_integration)
        rows = self.database.run_sql_function(function, args)
        with maybe_span("Finish I-UDTF"):
            self.machine.clock.advance(costs.udtf_finish_integration)
        return rows

    # -- external functions ----------------------------------------------------------

    def invoke_external(
        self, function: ExternalTableFunction, args: list[object], ctx: EvalContext
    ) -> list[tuple]:
        """Dispatch by language tag: WfMS, procedural, or A-UDTF."""
        language = function.language.upper()
        if language == WFMS_LANGUAGE:
            return self._invoke_wfms(function, args)
        if language == PROCEDURAL_LANGUAGE:
            return self._invoke_procedural(function, args)
        return self._invoke_access_udtf(function, args)

    def _invoke_procedural(
        self, function: ExternalTableFunction, args: list[object]
    ) -> list[tuple]:
        """A procedural ("Java") I-UDTF: integration-UDTF start/finish
        around a multi-statement body; each inner statement and A-UDTF
        pays its own way."""
        self._note_invocation()
        costs = self.machine.costs
        with maybe_span("Start I-UDTF"):
            self.machine.clock.advance(costs.udtf_start_integration)
        from repro.fdbs.functions import normalize_rows

        assert function.implementation is not None
        rows = normalize_rows(function.implementation(*args), function.name)
        with maybe_span("Finish I-UDTF"):
            self.machine.clock.advance(costs.udtf_finish_integration)
        return rows

    def _invoke_access_udtf(
        self, function: ExternalTableFunction, args: list[object]
    ) -> list[tuple]:
        """One A-UDTF call: fenced process, RMI, controller dispatch.

        With the machine's result cache on, a repeat invocation of a
        deterministic A-UDTF with equal arguments is served from
        integration-server memory — no fenced process, no RMI hop, no
        local-function work.  With the runtime pool on, a resident
        fenced process turns the prepare step into a warm hand-off
        (span labelled ``Prepare A-UDTFs (warm)``).
        """
        self._note_invocation()
        costs = self.machine.costs
        cache = self.machine.result_cache
        runtime_key = f"audtf:{function.name}"
        if cache.enabled and function.source_deterministic:
            cached = cache.get(
                self.machine.result_cache_namespace(), runtime_key, tuple(args)
            )
            if cached is not None:
                with maybe_span("Result cache"):
                    self.machine.clock.advance(costs.result_cache_hit_cost)
                return cached

        def run() -> list[tuple]:
            # The local function's own work — Fig. 6's 'Process
            # activities' row of the UDTF approach.
            with maybe_span("Process activities"):
                return self.database.run_external_function(function, args)

        if function.fenced:
            self._prepare_fenced_process(function, runtime_key)
        controller = self.machine.controller
        if function.fenced and controller.enabled:
            rows = self.machine.udtf_rmi.invoke(
                lambda: controller.dispatch(run, label="controller runs"),
                call_label="RMI calls",
                return_label="RMI returns",
            )
        else:
            # Unfenced function, or the paper's hypothetical prototype
            # without the controller: call straight through.
            rows = run()
        if function.fenced:
            with maybe_span("Finish A-UDTFs"):
                self.machine.clock.advance(costs.udtf_finish_access)
        if cache.enabled and function.source_deterministic:
            cache.put(
                self.machine.result_cache_namespace(),
                runtime_key,
                tuple(args),
                rows,
                owner=function.owner_system,
            )
        return rows

    def _prepare_fenced_process(
        self, function: ExternalTableFunction, runtime_key: str
    ) -> None:
        """Fenced-process hand-over: warm or cold prepare, with the
        fault-injection retry ladder (warm slot dies -> cold restart;
        cold process dies -> statement aborts)."""
        costs = self.machine.costs
        warm = self.machine.runtime_pool.acquire(runtime_key)
        with maybe_span("Prepare A-UDTFs (warm)" if warm else "Prepare A-UDTFs"):
            self.machine.clock.advance(
                costs.udtf_warm_prepare if warm else costs.udtf_prepare_access
            )
        if self.machine.fault_injector.should_fail(SITE_FENCED_PROCESS):
            with maybe_span("Fault detection"):
                self.machine.clock.advance(costs.fault_detection)
            self.machine.runtime_pool.evict(runtime_key)
            if warm:
                # Graceful degradation: the warm slot died, retry the
                # hand-over with a freshly fenced process (cold cost).
                self.machine.runtime_pool.acquire(runtime_key)
                with maybe_span("Prepare A-UDTFs"):
                    self.machine.clock.advance(costs.udtf_prepare_access)
                if self.machine.fault_injector.should_fail(SITE_FENCED_PROCESS):
                    with maybe_span("Fault detection"):
                        self.machine.clock.advance(costs.fault_detection)
                    self.machine.runtime_pool.evict(runtime_key)
                    raise FencedProcessDiedError(
                        SITE_FENCED_PROCESS,
                        f"fenced process of A-UDTF {function.name!r} "
                        "died again after a cold restart",
                    )
            else:
                # A cold fenced process died during hand-over; the
                # UDTF architecture has no navigation state to
                # recover from, so the statement aborts.
                raise FencedProcessDiedError(
                    SITE_FENCED_PROCESS,
                    f"fenced process of A-UDTF {function.name!r} died "
                    "during process hand-over",
                )

    def invoke_batch(
        self,
        function,
        args_list: list[list[object]],
        ctx: EvalContext,
    ) -> list[list[tuple]]:
        """Batched A-UDTF invocation for UDTF bind joins.

        One fenced-process hand-over, one RMI round trip and one finish
        step are shared by every argument tuple in the batch; only the
        controller dispatch and the local-function work stay per tuple.
        Result-cache hits are served before the batch forms, exactly as
        in the one-at-a-time path.  Non-A-UDTF functions (SQL bodies,
        WfMS connectors, procedural I-UDTFs, unfenced externals) fall
        back to the base-class loop — cost-identical to row-at-a-time.
        """
        if (
            not isinstance(function, ExternalTableFunction)
            or not function.fenced
            or function.language.upper() in (WFMS_LANGUAGE, PROCEDURAL_LANGUAGE)
        ):
            return super().invoke_batch(function, args_list, ctx)
        costs = self.machine.costs
        cache = self.machine.result_cache
        runtime_key = f"audtf:{function.name}"
        results: list[list[tuple] | None] = [None] * len(args_list)
        misses: list[int] = []
        for index, args in enumerate(args_list):
            if cache.enabled and function.source_deterministic:
                cached = cache.get(
                    self.machine.result_cache_namespace(), runtime_key, tuple(args)
                )
                if cached is not None:
                    with maybe_span("Result cache"):
                        self.machine.clock.advance(costs.result_cache_hit_cost)
                    results[index] = cached
                    continue
            misses.append(index)
        if not misses:
            return results  # type: ignore[return-value]
        self._note_invocation()
        self._prepare_fenced_process(function, runtime_key)

        def run_one(args: list[object]) -> list[tuple]:
            with maybe_span("Process activities"):
                return self.database.run_external_function(function, args)

        controller = self.machine.controller
        if controller.enabled:
            miss_rows = self.machine.udtf_rmi.invoke(
                lambda: [
                    controller.dispatch(
                        lambda args=args_list[index]: run_one(args),
                        label="controller runs",
                    )
                    for index in misses
                ],
                call_label="RMI calls",
                return_label="RMI returns",
            )
        else:
            miss_rows = [run_one(args_list[index]) for index in misses]
        with maybe_span("Finish A-UDTFs"):
            self.machine.clock.advance(costs.udtf_finish_access)
        for index, rows in zip(misses, miss_rows):
            results[index] = rows
            if cache.enabled and function.source_deterministic:
                cache.put(
                    self.machine.result_cache_namespace(),
                    runtime_key,
                    tuple(args_list[index]),
                    rows,
                    owner=function.owner_system,
                )
        return results  # type: ignore[return-value]

    def _invoke_wfms(
        self, function: ExternalTableFunction, args: list[object]
    ) -> list[tuple]:
        """The connecting UDTF of the WfMS architecture."""
        self._note_invocation()
        costs = self.machine.costs
        with maybe_span("Start UDTF"):
            self.machine.clock.advance(costs.wf_udtf_start)
        with maybe_span("Process UDTF"):
            self.machine.clock.advance(costs.wf_udtf_process)
        if function.implementation is None:
            return self.database.run_external_function(function, args)  # raises

        def start() -> list[tuple]:
            from repro.fdbs.functions import normalize_rows

            return normalize_rows(function.implementation(*args), function.name)

        controller = self.machine.controller
        if controller.enabled:
            rows = self.machine.wf_rmi.invoke(
                lambda: controller.broker_workflow(start),
                call_label="RMI call",
                return_label="RMI return",
            )
        else:
            rows = start()
        with maybe_span("Finish UDTF"):
            self.machine.clock.advance(costs.wf_udtf_finish)
        return rows
