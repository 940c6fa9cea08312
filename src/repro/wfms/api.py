"""Client API of the WfMS (the MQWF Java-API stand-in).

This is what the FDBS-side wrapper talks to: deploy process templates,
start a process instance with an input container, wait for its output.
Per-call it charges the 'Start workflows and Java environment' cost the
paper identifies as constant per call (it "will always take the same
constant time, irrespective of how many activities have to be
executed"), plus a one-time template-load cost on the first
instantiation of each template after boot.
"""

from __future__ import annotations

from repro.errors import WorkflowError
from repro.simtime.trace import maybe_span
from repro.sysmodel.machine import Machine
from repro.wfms.engine import WorkflowEngine
from repro.wfms.instance import ProcessInstance, ProcessState
from repro.wfms.model import ProcessDefinition
from repro.wfms.programs import ProgramRegistry
from repro.wfms.template import ProcessTemplate


class WfmsClient:
    """Connection-oriented client façade over the workflow engine."""

    def __init__(self, machine: Machine | None = None, registry: ProgramRegistry | None = None):
        self.machine = machine
        self.registry = registry if registry is not None else ProgramRegistry()
        self.engine = WorkflowEngine(self.registry, machine)
        self._templates: dict[str, ProcessTemplate] = {}

    # -- deployment ------------------------------------------------------------

    def deploy(self, process: ProcessDefinition | ProcessTemplate) -> None:
        """Deploy (or replace) a process template.

        Like MQSeries Workflow's FDL import, deploying a definition
        validates it once and compiles a private template from it: later
        edits to the definition do not reach the deployed process until
        it is deployed again.  A built :class:`ProcessTemplate` is
        deployed as is (it was validated when built, and navigation only
        reads it, so many clients may deploy one).
        """
        if not isinstance(process, ProcessTemplate):
            process = ProcessTemplate.build(process)
        self._templates[process.name.upper()] = process

    def template(self, name: str) -> ProcessDefinition:
        """The deployed process (the template's private snapshot, which
        callers should treat as read-only) of that name."""
        return self._template(name).definition

    def _template(self, name: str) -> ProcessTemplate:
        try:
            return self._templates[name.upper()]
        except KeyError:
            raise WorkflowError(f"no deployed process template {name!r}") from None

    def templates(self) -> list[str]:
        """Names of all deployed templates."""
        return [t.name for t in self._templates.values()]

    # -- execution --------------------------------------------------------------

    def run_process(self, name: str, inputs: dict[str, object]) -> ProcessInstance:
        """Start a process instance and navigate it to completion."""
        template = self._template(name)
        if self.machine is not None:
            self.machine.ensure_wfms()
            with maybe_span("Start workflows and Java environment"):
                self.machine.clock.advance(self.machine.costs.wf_env_start)
                key = name.upper()
                if not self.machine.warmth.template_is_hot(key):
                    self.machine.clock.advance(self.machine.costs.wf_template_load)
                    self.machine.warmth.note_template(key)
        return self.engine.run_process(template, inputs)

    def run_to_output(self, name: str, inputs: dict[str, object]) -> dict[str, object]:
        """Run a process and return its output container as a dict."""
        instance = self.run_process(name, inputs)
        assert instance.output is not None
        return instance.output.as_dict()

    # -- instance administration ---------------------------------------------

    def instances(
        self,
        name: str | None = None,
        state: "ProcessState | None" = None,
    ) -> list[ProcessInstance]:
        """Query the engine's instance history (newest last)."""
        results = list(self.engine.instances)
        if name is not None:
            results = [
                i for i in results
                if i.definition.name.upper() == name.upper()
            ]
        if state is not None:
            results = [i for i in results if i.state is state]
        return results

    def instance(self, instance_id: int) -> ProcessInstance:
        """Fetch one instance by its id."""
        for candidate in self.engine.instances:
            if candidate.instance_id == instance_id:
                return candidate
        raise WorkflowError(f"no process instance {instance_id}")
