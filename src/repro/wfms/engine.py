"""The workflow engine: navigator, scheduler, container plumbing.

Execution model (matching the paper's observations):

* every **program activity** boots a fresh JVM and handles its input
  and output containers — the dominant per-activity cost;
* **helper activities** run inside the engine (container cost only);
* **independent activities overlap**: the navigator computes each
  activity's earliest start from its predecessors' finish times and
  advances the shared virtual clock once by the resulting makespan
  (critical-path scheduling), which is why the parallel variant of a
  mapping is faster than the sequential one on the WfMS — and only
  there;
* **do-until blocks** iterate their sub-process sequentially, giving the
  linear loop scaling of the paper's AllCompNames measurement;
* transition conditions that evaluate to false put the target activity
  (and transitively its successors) on a **dead path** (SKIPPED).
"""

from __future__ import annotations

import threading

from repro.errors import (
    ActivityFailedError,
    ActivityProgramCrashError,
    ContainerError,
    NavigationError,
    WorkflowError,
)
from repro.simtime.trace import ACTIVE_RECORDER, maybe_span
from repro.sysmodel.faults import SITE_ACTIVITY_PROGRAM
from repro.sysmodel.machine import Machine
from repro.wfms.audit import AuditTrail
from repro.wfms.instance import (
    ActivityInstance,
    ActivityState,
    ProcessInstance,
    ProcessState,
)
from repro.wfms.model import (
    Activity,
    BlockActivity,
    Constant,
    Container,
    FromActivityOutput,
    FromActivityRows,
    FromAnyActivity,
    FromProcessInput,
    HelperActivity,
    ProcessDefinition,
    ProgramActivity,
)
from repro.wfms.programs import ProgramRegistry
from repro.wfms.template import ActivityStep, ProcessTemplate


class WorkflowEngine:
    """Executes process definitions against a program registry."""

    #: How many finished/failed instances the engine remembers.
    INSTANCE_HISTORY_LIMIT = 256

    def __init__(self, registry: ProgramRegistry, machine: Machine | None = None):
        self.registry = registry
        self.machine = machine
        self.audit = AuditTrail()
        self.processes_run = 0
        self.instances: list[ProcessInstance] = []
        self._next_instance_id = 1
        #: Guards instance-id allocation, the run counter and the
        #: bounded history list against concurrent navigations.
        self._instances_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_process(
        self,
        definition: ProcessDefinition | ProcessTemplate,
        inputs: dict[str, object],
    ) -> ProcessInstance:
        """Create and navigate one process instance to completion.

        A deployed :class:`~repro.wfms.template.ProcessTemplate` runs as
        is; a raw definition is validated and compiled on every call.
        """
        if isinstance(definition, ProcessTemplate):
            template = definition
        else:
            template = ProcessTemplate.build(definition)
        definition = template.definition
        input_container = definition.input_type.new_container().fill(inputs)
        with self._instances_lock:
            self.processes_run += 1
            instance = ProcessInstance(
                definition, input_container, instance_id=self._next_instance_id
            )
            self._next_instance_id += 1
            self.instances.append(instance)
            if len(self.instances) > self.INSTANCE_HISTORY_LIMIT:
                del self.instances[: -self.INSTANCE_HISTORY_LIMIT]
        instance.state = ProcessState.RUNNING
        instance.start_time = self._now()
        self.audit.record(self._now(), definition.name, "process started")
        try:
            self._navigate(instance, template)
        except WorkflowError as exc:
            # Any workflow-level failure — a failed activity, but also a
            # container or navigation error — must leave the instance in
            # a terminal FAILED state with an audit record, never stuck
            # RUNNING without a finish time.
            instance.state = ProcessState.FAILED
            instance.error = exc
            instance.finish_time = self._now()
            self.audit.record(
                self._now(), definition.name, "process failed", detail=str(exc)
            )
            raise
        instance.state = ProcessState.FINISHED
        instance.finish_time = self._now()
        self.audit.record(self._now(), definition.name, "process finished")
        return instance

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return self.machine.clock.now if self.machine is not None else 0.0

    def _navigate(self, instance: ProcessInstance, template: ProcessTemplate) -> None:
        name = template.name
        activities = instance.activities
        parallel = self.machine is not None and not self.machine.clock.capturing
        t0 = self._now()
        finish_times: dict[str, float] = {}

        for step in template.steps:
            activity = step.activity
            ai = ActivityInstance(activity.name)
            activities[step.key] = ai
            if step.inbound and self._on_dead_path(activities, step):
                ai.state = ActivityState.SKIPPED
                self.audit.record(
                    self._now(), name, "activity skipped", activity.name
                )
                continue

            # Serial navigator work per activity.
            with maybe_span("Workflow"):
                self._charge(self._nav_cost())
            ai.input = self._build_input(instance, activity)
            ai.state = ActivityState.RUNNING
            self.audit.record(self._now(), name, "activity started", activity.name)
            try:
                output, cost = self._execute_activity(step, ai)
            except ActivityFailedError as exc:
                output, cost = self._forward_recover(instance, step, ai, exc)
            ai.output = output
            ai.state = ActivityState.FINISHED

            if parallel:
                start = t0
                for source_key, _ in step.inbound:
                    pred = activities[source_key]
                    if pred.state is ActivityState.FINISHED:
                        assert pred.finish_time is not None
                        start = max(start, pred.finish_time)
                ai.start_time = start
                ai.finish_time = start + cost
                finish_times[step.key] = ai.finish_time
            else:
                ai.start_time = self._now() - cost
                ai.finish_time = self._now()
            self.audit.record(
                ai.finish_time if ai.finish_time is not None else self._now(),
                name,
                "activity finished",
                activity.name,
            )

        if parallel and finish_times:
            makespan_end = max(finish_times.values())
            nav_now = self._now()  # navigation costs already moved the clock
            target = max(makespan_end, t0) + (nav_now - t0)
            start_activities = nav_now
            self.machine.clock.advance_to(max(target, nav_now))
            recorder = ACTIVE_RECORDER.get()
            if recorder is not None and self._now() > start_activities:
                recorder.add_leaf("Process activities", start_activities, self._now())

        self._fill_process_output(instance)

    def _forward_recover(
        self,
        instance: ProcessInstance,
        step: ActivityStep,
        ai: ActivityInstance,
        exc: ActivityFailedError,
    ) -> tuple[Container, float]:
        """Restart a failed activity from its input container, or give up.

        This is the paper's key robustness asymmetry: the WfMS owns the
        navigation state and the activity's input container, so a failed
        program activity can be re-scheduled (paying the navigator
        bookkeeping plus a fresh JVM start) instead of aborting the whole
        statement.  When forward recovery is off — the default — the
        failure propagates exactly as before.
        """
        activity = step.activity
        machine = self.machine
        if (
            machine is not None
            and machine.forward_recovery
            and isinstance(activity, ProgramActivity)
        ):
            restarts = max(machine.retry_policy.attempts() - 1, 1)
            for restart in range(1, restarts + 1):
                with maybe_span("Forward recovery"):
                    machine.clock.advance(machine.costs.wf_forward_recovery)
                self.audit.record(
                    self._now(),
                    instance.definition.name,
                    "forward recovery",
                    activity.name,
                    detail=f"restart {restart} from input container",
                )
                try:
                    output, cost = self._execute_activity(step, ai)
                except ActivityFailedError as retry_exc:
                    exc = retry_exc
                    continue
                self.audit.record(
                    self._now(),
                    instance.definition.name,
                    "activity recovered",
                    activity.name,
                )
                return output, cost
        ai.state = ActivityState.FAILED
        self.audit.record(
            self._now(), instance.definition.name, "activity failed", activity.name
        )
        raise exc

    def _nav_cost(self) -> float:
        return self.machine.costs.wf_navigation if self.machine is not None else 0.0

    def _charge(self, amount: float) -> None:
        if self.machine is not None and amount:
            self.machine.clock.advance(amount)

    def _on_dead_path(
        self, activities: dict[str, ActivityInstance], step: ActivityStep
    ) -> bool:
        """Whether an activity with inbound connectors sits on a dead path.

        AND-join (default): any dead inbound connector kills it.
        OR-join: it runs as long as at least one inbound path is alive —
        the merge side of conditional routing.  Sources precede their
        targets in the template's order, so each has its instance.
        """
        alive = 0
        for source_key, condition in step.inbound:
            source = activities[source_key]
            dead = source.state in (ActivityState.SKIPPED, ActivityState.FAILED)
            if not dead and condition is not None:
                dead = source.output is None or not condition.evaluate(source.output)
            if dead:
                if step.activity.join == "AND":
                    return True
            else:
                alive += 1
        return alive == 0

    # ------------------------------------------------------------------
    # Data plumbing
    # ------------------------------------------------------------------

    def _build_input(self, instance: ProcessInstance, activity: Activity) -> Container:
        container = activity.input_type.new_container()
        for member, source in activity.input_map.items():
            if isinstance(source, FromActivityRows):
                producer = instance.activity(source.activity)
                if producer.output is None:
                    raise NavigationError(
                        f"{activity.name}: producer {source.activity!r} has "
                        "no output yet (check the control connectors)"
                    )
                container.attachments[member.upper()] = list(producer.output.rows or [])
                continue
            container.set(member, self._resolve(instance, source, activity.name))
        return container

    def _resolve(self, instance: ProcessInstance, source, where: str) -> object:
        if isinstance(source, FromAnyActivity):
            for choice in source.choices:
                producer = instance.activities.get(choice.activity.upper())
                if (
                    producer is not None
                    and producer.state is ActivityState.FINISHED
                    and producer.output is not None
                ):
                    return producer.output.get(choice.member)
            raise NavigationError(
                f"{where}: no finished producer among "
                f"{[c.activity for c in source.choices]}"
            )
        if isinstance(source, Constant):
            return source.value
        if isinstance(source, FromProcessInput):
            return instance.input.get(source.member)
        if isinstance(source, FromActivityOutput):
            producer = instance.activity(source.activity)
            if producer.output is None:
                raise NavigationError(
                    f"{where}: producer activity {source.activity!r} has no "
                    "output yet (check the control connectors)"
                )
            return producer.output.get(source.member)
        raise NavigationError(f"{where}: unsupported data source {source!r}")

    def _fill_process_output(self, instance: ProcessInstance) -> None:
        output = instance.definition.output_type.new_container()
        for member, source in instance.definition.output_map.items():
            if isinstance(source, FromActivityOutput):
                producer = instance.activities.get(source.activity.upper())
                if producer is not None and producer.state is ActivityState.SKIPPED:
                    # Dead path: the member stays unset (MQWF leaves
                    # output-container members empty on skipped paths).
                    continue
            output.set(member, self._resolve(instance, source, "process output"))
        rows_from = instance.definition.rows_from
        if rows_from is not None:
            producer = instance.activity(rows_from)
            if producer.state is ActivityState.FINISHED:
                assert producer.output is not None
                output.rows = producer.output.rows
            else:
                output.rows = []
        instance.output = output

    # ------------------------------------------------------------------
    # Activity execution
    # ------------------------------------------------------------------

    def _execute_activity(
        self, step: ActivityStep, ai: ActivityInstance
    ) -> tuple[Container, float]:
        """Run one activity; returns (output container, virtual cost)."""
        assert ai.input is not None
        activity = step.activity
        if self.machine is None:
            outputs = self._run_body(step, ai)
            return self._as_output(activity, outputs), 0.0
        clock = self.machine.clock
        if clock.capturing:
            # Nested (inside a block iteration): charge straight through.
            before = clock.capture_total()
            outputs = self._run_body(step, ai)
            return self._as_output(activity, outputs), clock.capture_total() - before
        with clock.capture() as captured:
            outputs = self._run_body(step, ai)
        return self._as_output(activity, outputs), captured.total

    def _run_body(self, step: ActivityStep, ai: ActivityInstance) -> dict[str, object]:
        assert ai.input is not None
        activity = step.activity
        inputs = ai.input.as_dict()
        if ai.input.attachments:
            inputs.update(ai.input.attachments)
        if isinstance(activity, ProgramActivity):
            program = self.registry.program(activity.program)
            attempts = activity.max_retries + 1
            policy = self.machine.retry_policy if self.machine is not None else None
            if policy is not None and policy.active:
                attempts = max(attempts, policy.attempts())
            for attempt in range(1, attempts + 1):
                if self.machine is not None:
                    # Fresh JVM per attempt + container handling: the
                    # paper's dominant workflow cost, paid per retry too —
                    # unless the runtime pool holds this program's JVM
                    # warm, in which case only the dispatch is charged.
                    pool = self.machine.runtime_pool
                    warm = pool.acquire(f"program:{activity.program}")
                    self.machine.clock.advance(
                        self.machine.costs.jvm_warm_dispatch
                        if warm
                        else self.machine.costs.wf_activity_jvm
                    )
                    if pool.enabled:
                        self.audit.record(
                            self._now(),
                            "-",
                            "jvm warm dispatch" if warm else "jvm cold start",
                            activity.name,
                            detail=f"program {activity.program}",
                        )
                    self.machine.clock.advance(
                        self.machine.costs.wf_activity_container
                    )
                try:
                    if (
                        self.machine is not None
                        and self.machine.fault_injector.should_fail(
                            SITE_ACTIVITY_PROGRAM
                        )
                    ):
                        self.machine.clock.advance(
                            self.machine.costs.fault_detection
                        )
                        self.audit.record(
                            self._now(),
                            "-",
                            "activity crashed (injected)",
                            activity.name,
                            detail=f"attempt {attempt} of {attempts}",
                        )
                        raise ActivityFailedError(
                            activity.name,
                            ActivityProgramCrashError(
                                SITE_ACTIVITY_PROGRAM,
                                f"activity program {activity.program!r} "
                                "crashed",
                            ),
                        )
                    return self._invoke(program, activity.name, inputs)
                except ActivityFailedError:
                    if attempt == attempts:
                        raise
                    if policy is not None and policy.active:
                        # Exponential backoff in virtual time before the
                        # re-attempt; never charged with the policy off.
                        self.machine.clock.advance(
                            policy.backoff(
                                attempt, self.machine.costs.retry_backoff_base
                            )
                        )
                        policy.note_retry()
                    self.audit.record(
                        self._now(),
                        "-",
                        "activity retried",
                        activity.name,
                        detail=f"attempt {attempt} of {attempts}",
                    )
            raise AssertionError("unreachable")  # pragma: no cover
        if isinstance(activity, HelperActivity):
            if self.machine is not None:
                self.machine.clock.advance(self.machine.costs.wf_activity_container)
            helper = self.registry.helper(activity.helper)
            return self._invoke(helper, activity.name, inputs)
        if isinstance(activity, BlockActivity):
            return self._run_block(step, ai, inputs)
        raise NavigationError(f"unsupported activity kind {type(activity).__name__}")

    def _invoke(self, fn, activity_name: str, inputs: dict[str, object]) -> dict[str, object]:
        try:
            return fn(inputs)
        except ActivityFailedError:
            raise
        except Exception as exc:
            raise ActivityFailedError(activity_name, exc) from exc

    def _run_block(
        self, step: ActivityStep, ai: ActivityInstance, inputs: dict[str, object]
    ) -> dict[str, object]:
        """Do-until loop: iterate the sub-process template until the
        condition holds on its output (at least one iteration)."""
        activity = step.activity
        assert isinstance(activity, BlockActivity) and step.sub is not None
        sub_inputs = dict(inputs)
        last_output: Container | None = None
        collected: list[tuple] = []
        iterations = 0
        while True:
            sub_instance = self.run_process(step.sub, sub_inputs)
            iterations += 1
            last_output = sub_instance.output
            assert last_output is not None
            if activity.collect_rows and last_output.rows is not None:
                collected.extend(last_output.rows)
            if activity.until is None or activity.until.evaluate(last_output):
                break
            if iterations >= activity.max_iterations:
                raise ActivityFailedError(
                    activity.name,
                    NavigationError(
                        f"do-until block exceeded {activity.max_iterations} "
                        "iterations"
                    ),
                )
            for input_member, output_member in activity.carry.items():
                sub_inputs[input_member] = last_output.get(output_member)
        ai.iterations = iterations
        result = last_output.as_dict()
        if activity.collect_rows:
            result["ROWS"] = collected
        return result

    def _as_output(self, activity: Activity, values: dict[str, object]) -> Container:
        container = activity.output_type.new_container()
        upper = {k.upper(): v for k, v in values.items()}
        if "ROWS" in upper:
            rows = upper.pop("ROWS")
            container.rows = list(rows) if rows is not None else []
        for name, _ in activity.output_type.members:
            if name.upper() in upper:
                container.set(name, upper[name.upper()])
        # Unset members stay unset; reading them raises ContainerError,
        # which is the honest failure mode for a mis-wired mapping.
        extra = set(upper) - {n.upper() for n, _ in activity.output_type.members}
        if extra:
            raise ContainerError(
                f"activity {activity.name!r} produced unknown output "
                f"member(s) {sorted(extra)}"
            )
        return container
