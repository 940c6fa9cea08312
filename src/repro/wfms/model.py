"""Workflow process model.

Mirrors the production-workflow concepts of MQSeries Workflow that the
paper's mapping uses:

* **containers** — typed records passed into and out of activities;
* **program activities** — invoke a registered program (here: a local
  function of an application system) in a fresh JVM;
* **helper activities** — the paper's "helper functions" for type
  conversions and result composition, run inside the engine;
* **block activities** — sub-processes, optionally iterated as a
  do-until loop (the cyclic mapping case);
* **control connectors** — the precedence graph, with optional
  transition conditions;
* **data sources** — where each input-container member comes from
  (process input, another activity's output, or a constant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

from repro.errors import ContainerError, ProcessDefinitionError
from repro.fdbs.types import SqlType, coercer


@dataclass(frozen=True)
class ContainerType:
    """A typed record schema: ordered (name, type) members.

    Member names are case-insensitive and the first declared member of
    a name wins.  One name -> (storage key, type, coercer) map is built
    with the type, so every member lookup is a dict read.
    """

    name: str
    members: tuple[tuple[str, SqlType], ...]

    def __post_init__(self) -> None:
        lookup: dict[str, tuple[str, SqlType, Callable[[object], object]]] = {}
        for member_name, member_type in self.members:
            key = member_name.upper()
            lookup.setdefault(key, (key, member_type, coercer(member_type)))
        # Exact-case aliases let the usual spelling skip ``upper()``.
        for member_name, _ in self.members:
            lookup.setdefault(member_name, lookup[member_name.upper()])
        object.__setattr__(self, "_lookup", lookup)

    def __reduce__(self):
        # The map holds closures; rebuild it on unpickling instead.
        return (ContainerType, (self.name, self.members))

    def _entry(self, name: str) -> tuple[str, SqlType, Callable[[object], object]]:
        entry = self._lookup.get(name) or self._lookup.get(name.upper())
        if entry is None:
            raise ContainerError(
                f"container type {self.name!r} has no member {name!r}"
            )
        return entry

    def member_names(self) -> list[str]:
        """Member names in declaration order."""
        return [name for name, _ in self.members]

    def member_type(self, name: str) -> SqlType:
        """The declared type of a member (raises if unknown)."""
        return self._entry(name)[1]

    def has_member(self, name: str) -> bool:
        """True if a member of that name is declared."""
        return name in self._lookup or name.upper() in self._lookup

    def new_container(self) -> "Container":
        """A fresh, empty container of this type."""
        return Container(self)


class Container:
    """One instance of a container type."""

    def __init__(self, type_: ContainerType):
        self.type = type_
        self._values: dict[str, object] = {}
        #: Optional table-valued payload (the paper's independent case
        #: composes *result sets*; containers carry scalars, so multi-row
        #: results travel as an attachment under the ``ROWS`` convention).
        self.rows: list[tuple] | None = None
        #: Untyped side-channel for FromActivityRows inputs.
        self.attachments: dict[str, object] = {}

    def set(self, name: str, value: object) -> None:
        """Assign a member (value coerced into the member type)."""
        key, _, coerce = self.type._entry(name)
        self._values[key] = coerce(value)

    def get(self, name: str) -> object:
        """Read a member (raises ContainerError when unset)."""
        key = self.type._entry(name)[0]
        try:
            return self._values[key]
        except KeyError:
            raise ContainerError(
                f"member {name!r} of container {self.type.name!r} is unset"
            ) from None

    def is_set(self, name: str) -> bool:
        """True if the member has been assigned."""
        return name.upper() in self._values

    def as_dict(self) -> dict[str, object]:
        """Values keyed by declared member names (declaration order)."""
        return {
            name: self._values[name.upper()]
            for name, _ in self.type.members
            if name.upper() in self._values
        }

    def fill(self, values: dict[str, object]) -> "Container":
        """Assign several members from a dict; returns self."""
        for name, value in values.items():
            self.set(name, value)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Container {self.type.name} {self.as_dict()!r}>"


# -- data sources --------------------------------------------------------------


@dataclass(frozen=True)
class FromProcessInput:
    """Input member fed from the process input container."""

    member: str


@dataclass(frozen=True)
class FromActivityOutput:
    """Input member fed from another activity's output container."""

    activity: str
    member: str


@dataclass(frozen=True)
class Constant:
    """Input member fed a constant value (the paper's simple case:
    'the workflow solution can supply a constant value when calling the
    local function')."""

    value: object


@dataclass(frozen=True)
class FromAnyActivity:
    """Input member fed from the first *finished* producer in the list.

    The data-side companion of an OR-join: after an exclusive choice
    (conditional routing), the merge activity takes its input from
    whichever branch actually ran.
    """

    choices: tuple[FromActivityOutput, ...]


@dataclass(frozen=True)
class FromActivityRows:
    """Input attachment fed from another activity's *row set*.

    Containers carry scalars; composition helpers (the independent
    case's "join with selection" counterpart) receive whole result sets
    through this untyped attachment channel.
    """

    activity: str


DataSource = (
    FromProcessInput
    | FromActivityOutput
    | Constant
    | FromActivityRows
    | FromAnyActivity
)


# -- activities ------------------------------------------------------------------


@dataclass
class Activity:
    """Base class of all activity kinds.

    ``join`` decides when the activity may run given its incoming
    control connectors: ``"AND"`` (default) requires *every* inbound
    path to be alive and true; ``"OR"`` requires at least one — the
    merge side of conditional routing.
    """

    name: str
    input_type: ContainerType
    output_type: ContainerType
    input_map: dict[str, DataSource] = field(default_factory=dict)
    join: str = "AND"


@dataclass
class ProgramActivity(Activity):
    """Invokes a registered program (a local function call).

    Executing a program activity boots a fresh JVM and handles the
    input/output containers — the cost structure the paper measures.

    ``max_retries`` is the error-handling policy the paper credits the
    WfMS with ("copes with different kinds of error handling"): a
    failing program is re-invoked up to that many extra times (each
    attempt pays the full activity cost) before the activity — and the
    process — fail.
    """

    program: str = ""
    max_retries: int = 0


@dataclass
class HelperActivity(Activity):
    """The paper's helper function: type conversions and result
    composition, executed inside the engine (no fresh JVM)."""

    helper: str = ""


@dataclass
class BlockActivity(Activity):
    """A sub-process, optionally iterated as a do-until loop.

    ``until`` is a predicate over the sub-process output container; the
    block repeats until it returns True.  ``carry`` maps sub-process
    input members from the previous iteration's output members, which is
    how a loop advances its induction values.
    """

    subprocess: "ProcessDefinition | None" = None
    until: "Condition | None" = None
    carry: dict[str, str] = field(default_factory=dict)
    max_iterations: int = 10_000
    collect_rows: bool = False
    """Concatenate the row attachments of all iterations into the
    block's own row attachment (used by cyclic table-valued mappings
    like the paper's AllCompNames)."""


# -- control flow -----------------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    """A transition / loop condition over a container.

    ``member op value`` with op in ``= <> < <= > >=``; evaluated with
    SQL-ish semantics (an unset/NULL member makes the condition False).
    """

    member: str
    op: str
    value: object

    _OPS: ClassVar[tuple[str, ...]] = ("=", "<>", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ProcessDefinitionError(f"unsupported condition operator {self.op!r}")

    def evaluate(self, container: Container) -> bool:
        """Evaluate against a container (unset/NULL member -> False)."""
        if not container.type.has_member(self.member):
            raise ContainerError(
                f"condition references unknown member {self.member!r}"
            )
        if not container.is_set(self.member):
            return False
        actual = container.get(self.member)
        expected = self.value
        if actual is None:
            return False
        if self.op == "=":
            return actual == expected
        if self.op == "<>":
            return actual != expected
        if self.op == "<":
            return actual < expected  # type: ignore[operator]
        if self.op == "<=":
            return actual <= expected  # type: ignore[operator]
        if self.op == ">":
            return actual > expected  # type: ignore[operator]
        return actual >= expected  # type: ignore[operator]

    def render(self) -> str:
        """FDL text of the condition."""
        if isinstance(self.value, str):
            return f"{self.member} {self.op} '{self.value}'"
        return f"{self.member} {self.op} {self.value}"


@dataclass(frozen=True)
class ControlConnector:
    """A directed precedence edge, optionally guarded by a transition
    condition evaluated on the *source* activity's output container."""

    source: str
    target: str
    condition: Condition | None = None


# -- process ------------------------------------------------------------------------


@dataclass
class ProcessDefinition:
    """A complete workflow process (the paper's mapping graph)."""

    name: str
    input_type: ContainerType
    output_type: ContainerType
    activities: list[Activity] = field(default_factory=list)
    connectors: list[ControlConnector] = field(default_factory=list)
    output_map: dict[str, FromActivityOutput | FromProcessInput | Constant] = field(
        default_factory=dict
    )
    #: Name of the activity whose attached row set (``ROWS``) becomes the
    #: table-valued result of the process; None for scalar-row results.
    rows_from: str | None = None

    def activity(self, name: str) -> Activity:
        """Look up an activity by name."""
        target = name.upper()
        for activity in self.activities:
            if activity.name.upper() == target:
                return activity
        raise ProcessDefinitionError(
            f"process {self.name!r} has no activity {name!r}"
        )

    def has_activity(self, name: str) -> bool:
        """True if an activity of that name exists."""
        target = name.upper()
        return any(a.name.upper() == target for a in self.activities)

    def successors(self, name: str) -> list[ControlConnector]:
        """Outbound control connectors of an activity."""
        source = name.upper()
        return [c for c in self.connectors if c.source.upper() == source]

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Check structural consistency; raises ProcessDefinitionError."""
        seen: set[str] = set()
        for activity in self.activities:
            key = activity.name.upper()
            if key in seen:
                raise ProcessDefinitionError(
                    f"duplicate activity name {activity.name!r} in {self.name!r}"
                )
            seen.add(key)
            if activity.join not in ("AND", "OR"):
                raise ProcessDefinitionError(
                    f"activity {activity.name!r} has unknown join kind "
                    f"{activity.join!r} (use 'AND' or 'OR')"
                )
        for connector in self.connectors:
            if not self.has_activity(connector.source):
                raise ProcessDefinitionError(
                    f"connector source {connector.source!r} is not an activity"
                )
            if not self.has_activity(connector.target):
                raise ProcessDefinitionError(
                    f"connector target {connector.target!r} is not an activity"
                )
            if connector.source.upper() == connector.target.upper():
                raise ProcessDefinitionError(
                    f"self-loop on activity {connector.source!r}; use a "
                    "do-until block for iteration"
                )
        self._check_acyclic()
        self._check_data_sources()

    def _check_acyclic(self) -> None:
        """The control graph must be a DAG (loops only via blocks)."""
        order = self.topological_order()
        if len(order) != len(self.activities):
            raise ProcessDefinitionError(
                f"control-flow cycle in process {self.name!r}; express "
                "iteration with a do-until block activity"
            )

    def topological_order(self) -> list[Activity]:
        """Kahn topological order of activities (partial if cyclic)."""
        indegree: dict[str, int] = {a.name.upper(): 0 for a in self.activities}
        for connector in self.connectors:
            indegree[connector.target.upper()] += 1
        ready = [a for a in self.activities if indegree[a.name.upper()] == 0]
        order: list[Activity] = []
        while ready:
            activity = ready.pop(0)
            order.append(activity)
            for connector in self.successors(activity.name):
                key = connector.target.upper()
                indegree[key] -= 1
                if indegree[key] == 0:
                    ready.append(self.activity(connector.target))
        return order

    def _check_data_sources(self) -> None:
        for activity in self.activities:
            for member, source in activity.input_map.items():
                if isinstance(source, FromActivityRows):
                    # Row attachments bypass the typed container members.
                    if not self.has_activity(source.activity):
                        raise ProcessDefinitionError(
                            f"activity {activity.name!r} takes rows from "
                            f"unknown activity {source.activity!r}"
                        )
                    continue
                if not activity.input_type.has_member(member):
                    raise ProcessDefinitionError(
                        f"activity {activity.name!r} maps unknown input "
                        f"member {member!r}"
                    )
                self._check_source(source, f"activity {activity.name!r}")
            if isinstance(activity, BlockActivity):
                if activity.subprocess is None:
                    raise ProcessDefinitionError(
                        f"block activity {activity.name!r} has no sub-process"
                    )
                for target_member in activity.carry.values():
                    if not activity.subprocess.output_type.has_member(target_member):
                        raise ProcessDefinitionError(
                            f"block {activity.name!r} carries unknown "
                            f"sub-process output member {target_member!r}"
                        )
        for member, source in self.output_map.items():
            if not self.output_type.has_member(member):
                raise ProcessDefinitionError(
                    f"process {self.name!r} maps unknown output member {member!r}"
                )
            self._check_source(source, "process output")
        if self.rows_from is not None and not self.has_activity(self.rows_from):
            raise ProcessDefinitionError(
                f"rows_from references unknown activity {self.rows_from!r}"
            )

    def _check_source(self, source: DataSource, where: str) -> None:
        if isinstance(source, FromAnyActivity):
            if not source.choices:
                raise ProcessDefinitionError(
                    f"{where}: FromAnyActivity needs at least one choice"
                )
            for choice in source.choices:
                self._check_source(choice, where)
            return
        if isinstance(source, FromProcessInput):
            if not self.input_type.has_member(source.member):
                raise ProcessDefinitionError(
                    f"{where} references unknown process input {source.member!r}"
                )
        elif isinstance(source, FromActivityOutput):
            if not self.has_activity(source.activity):
                raise ProcessDefinitionError(
                    f"{where} references unknown activity {source.activity!r}"
                )
            producer = self.activity(source.activity)
            if not producer.output_type.has_member(source.member):
                raise ProcessDefinitionError(
                    f"{where} references unknown output member "
                    f"{source.activity}.{source.member}"
                )
        elif not isinstance(source, Constant):  # pragma: no cover - defensive
            raise ProcessDefinitionError(f"{where} has unsupported source {source!r}")

    def program_activity_count(self) -> int:
        """Number of program activities (recursing into blocks once)."""
        count = 0
        for activity in self.activities:
            if isinstance(activity, ProgramActivity):
                count += 1
            elif isinstance(activity, BlockActivity) and activity.subprocess:
                count += activity.subprocess.program_activity_count()
        return count


HelperFn = Callable[[dict[str, object]], dict[str, object]]
