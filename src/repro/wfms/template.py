"""Process templates: a deployed process's navigation data, built once.

MQSeries Workflow imports FDL into *process templates* and instantiates
those; it never re-reads the definition per instance.  A
:class:`ProcessTemplate` is that import step: it validates a
:class:`~repro.wfms.model.ProcessDefinition`, takes a private copy of
it, and resolves everything navigation needs once — the topological
order, each activity's inbound connectors keyed by upper-cased source
name, and the templates of block sub-processes.  The engine runs every
instance from it, so a definition edited after deploy leaves the
deployed template as it was; deploying again replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.wfms.model import Activity, BlockActivity, Condition, ProcessDefinition


@dataclass(frozen=True, slots=True)
class ActivityStep:
    """One activity of a template, with its navigation data resolved."""

    activity: Activity
    key: str
    """The activity's upper-cased name (its instance key)."""
    inbound: tuple[tuple[str, Condition | None], ...]
    """(source key, transition condition) per inbound connector."""
    sub: "ProcessTemplate | None"
    """The sub-process template of a block activity."""


@dataclass(frozen=True, slots=True)
class ProcessTemplate:
    """A validated, private snapshot of a process plus its navigation data."""

    definition: ProcessDefinition
    steps: tuple[ActivityStep, ...]
    """Activities in topological order."""

    @property
    def name(self) -> str:
        """The process name."""
        return self.definition.name

    @classmethod
    def build(cls, definition: ProcessDefinition) -> "ProcessTemplate":
        """Validate ``definition`` (sub-processes included) and compile it.

        Raises :class:`~repro.errors.ProcessDefinitionError` when the
        definition or any block's sub-process is invalid.
        """
        definition.validate()
        subs: dict[str, ProcessTemplate] = {}
        activities = []
        for activity in definition.activities:
            changes: dict[str, object] = {"input_map": dict(activity.input_map)}
            if isinstance(activity, BlockActivity):
                sub = cls.build(activity.subprocess)
                subs[activity.name.upper()] = sub
                changes.update(subprocess=sub.definition, carry=dict(activity.carry))
            activities.append(replace(activity, **changes))
        snapshot = replace(
            definition,
            activities=activities,
            connectors=list(definition.connectors),
            output_map=dict(definition.output_map),
        )
        inbound: dict[str, list[tuple[str, Condition | None]]] = {
            a.name.upper(): [] for a in activities
        }
        for connector in snapshot.connectors:
            inbound[connector.target.upper()].append(
                (connector.source.upper(), connector.condition)
            )
        steps = tuple(
            ActivityStep(
                activity,
                activity.name.upper(),
                tuple(inbound[activity.name.upper()]),
                subs.get(activity.name.upper()),
            )
            for activity in snapshot.topological_order()
        )
        return cls(snapshot, steps)
