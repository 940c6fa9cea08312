"""Mapping graphs: federated function → local functions.

A :class:`MappingGraph` is the architecture-neutral description of one
federated function's mapping (the paper's Fig. 1 precedence graph).  It
consists of *call nodes* (one per local-function invocation), optional
*loop nodes* (the cyclic case), data sources wiring parameters, output
projections with optional casts, and join conditions for composing the
result sets of independent branches.

:func:`classify` derives the paper's heterogeneity case (Sect. 3):
trivial, simple, independent, dependent (linear / 1:n / n:1 / cyclic),
or general.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import MappingGraphError
from repro.fdbs.types import SqlType


# -- data sources ------------------------------------------------------------------


@dataclass(frozen=True)
class FedInput:
    """A parameter of the federated function."""

    name: str


@dataclass(frozen=True)
class NodeOutput:
    """An output column of another call node."""

    node: str
    column: str


@dataclass(frozen=True)
class Const:
    """A constant value (the simple case supplies constants)."""

    value: object


Source = FedInput | NodeOutput | Const


# -- nodes --------------------------------------------------------------------------


@dataclass
class LocalCall:
    """One local-function invocation.

    ``args`` wires each parameter of the local function (by name, in
    declaration order) to a source.  ``id`` is the node name used by
    :class:`NodeOutput` references; it doubles as the FROM-clause
    correlation name / workflow activity name in the compilers.

    ``retries`` is an error-handling policy that only the WfMS
    architecture can honor ("copes with different kinds of error
    handling", paper Sect. 2); the SQL compilers have nowhere to put it
    and ignore it.
    """

    id: str
    system: str
    function: str
    args: dict[str, Source] = field(default_factory=dict)
    retries: int = 0


@dataclass
class LoopCall:
    """An iterated local-function invocation (the cyclic case).

    The function is called once per counter value in
    ``[start, end]`` (inclusive), with the counter bound to
    ``counter_param``; row results of all iterations are concatenated.
    Only the WfMS (do-until block) and the procedural architecture can
    execute this.
    """

    id: str
    system: str
    function: str
    counter_param: str
    start: Source = Const(1)
    end: Source = Const(1)
    args: dict[str, Source] = field(default_factory=dict)


Node = LocalCall | LoopCall


# -- outputs and joins ----------------------------------------------------------------


@dataclass(frozen=True)
class OutputSpec:
    """One output column of the federated function."""

    name: str
    source: Source
    cast: SqlType | None = None
    """Explicit result cast (the simple case: INT -> BIGINT)."""


@dataclass(frozen=True)
class JoinCondition:
    """Equality predicate composing two independent branches'
    result sets ("join with selection", paper Sect. 3)."""

    left: NodeOutput
    right: NodeOutput


# -- the graph ---------------------------------------------------------------------------


class HeterogeneityCase(enum.Enum):
    """The paper's mapping-complexity classification (Sect. 3)."""

    TRIVIAL = "trivial"
    SIMPLE = "simple"
    INDEPENDENT = "independent"
    DEPENDENT_LINEAR = "dependent: linear"
    DEPENDENT_1N = "dependent: (1:n)"
    DEPENDENT_N1 = "dependent: (n:1)"
    DEPENDENT_CYCLIC = "dependent: cyclic"
    GENERAL = "general"


@dataclass
class MappingGraph:
    """The full mapping of one federated function."""

    nodes: list[Node] = field(default_factory=list)
    outputs: list[OutputSpec] = field(default_factory=list)
    joins: list[JoinCondition] = field(default_factory=list)

    def node(self, node_id: str) -> Node:
        """Look up a node by id."""
        target = node_id.upper()
        for node in self.nodes:
            if node.id.upper() == target:
                return node
        raise MappingGraphError(f"no mapping node {node_id!r}")

    def has_node(self, node_id: str) -> bool:
        """True if a node with that id exists."""
        target = node_id.upper()
        return any(n.id.upper() == target for n in self.nodes)

    def dependency_edges(self) -> set[tuple[str, str]]:
        """(producer, consumer) pairs induced by NodeOutput sources."""
        edges: set[tuple[str, str]] = set()
        for node in self.nodes:
            sources = list(node.args.values())
            if isinstance(node, LoopCall):
                sources.extend([node.start, node.end])
            for source in sources:
                if isinstance(source, NodeOutput):
                    edges.add((source.node.upper(), node.id.upper()))
        return edges

    def topological_order(self) -> list[Node]:
        """Nodes in dependency order; raises on cycles."""
        edges = self.dependency_edges()
        indegree = {n.id.upper(): 0 for n in self.nodes}
        for _, consumer in edges:
            indegree[consumer] += 1
        ready = [n for n in self.nodes if indegree[n.id.upper()] == 0]
        order: list[Node] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for producer, consumer in sorted(edges):
                if producer == node.id.upper():
                    indegree[consumer] -= 1
                    if indegree[consumer] == 0:
                        ready.append(self.node(consumer))
        if len(order) != len(self.nodes):
            raise MappingGraphError(
                "mapping graph has a dependency cycle between call nodes"
            )
        return order

    # -- validation --------------------------------------------------------------------

    def validate(self) -> None:
        """Structural checks; raises MappingGraphError."""
        if not self.nodes:
            raise MappingGraphError("a mapping needs at least one call node")
        seen: set[str] = set()
        for node in self.nodes:
            key = node.id.upper()
            if key in seen:
                raise MappingGraphError(f"duplicate node id {node.id!r}")
            seen.add(key)
        for node in self.nodes:
            sources = list(node.args.values())
            if isinstance(node, LoopCall):
                sources.extend([node.start, node.end])
                if node.counter_param in node.args:
                    raise MappingGraphError(
                        f"loop node {node.id!r}: counter parameter "
                        f"{node.counter_param!r} must not also be wired in args"
                    )
            for source in sources:
                self._check_source(source, f"node {node.id!r}")
        if not self.outputs:
            raise MappingGraphError("a mapping needs at least one output")
        for output in self.outputs:
            self._check_source(output.source, f"output {output.name!r}")
        for join in self.joins:
            for side in (join.left, join.right):
                if not self.has_node(side.node):
                    raise MappingGraphError(
                        f"join references unknown node {side.node!r}"
                    )
        self.topological_order()  # raises on cycles

    def _check_source(self, source: Source, where: str) -> None:
        if isinstance(source, NodeOutput) and not self.has_node(source.node):
            raise MappingGraphError(
                f"{where} references unknown node {source.node!r}"
            )

    # -- metrics --------------------------------------------------------------------------

    def local_function_count(self) -> int:
        """Static number of local-function call sites (loops count once)."""
        return len(self.nodes)

    def has_loop(self) -> bool:
        """True if the mapping contains a loop node (cyclic case)."""
        return any(isinstance(n, LoopCall) for n in self.nodes)

    def has_helpers(self) -> bool:
        """True when the mapping needs helper work: casts or constants."""
        if any(o.cast is not None for o in self.outputs):
            return True
        for node in self.nodes:
            if any(isinstance(s, Const) for s in node.args.values()):
                return True
        return False


def classify(graph: MappingGraph, validate: bool = True) -> HeterogeneityCase:
    """Derive the paper's heterogeneity case for a mapping graph
    (``validate=False``: the caller has just validated it)."""
    if validate:
        graph.validate()
    if graph.has_loop():
        return HeterogeneityCase.DEPENDENT_CYCLIC
    if len(graph.nodes) == 1:
        return (
            HeterogeneityCase.SIMPLE
            if graph.has_helpers()
            else HeterogeneityCase.TRIVIAL
        )
    edges = graph.dependency_edges()
    if not edges:
        return HeterogeneityCase.INDEPENDENT
    node_ids = [n.id.upper() for n in graph.nodes]
    indegree = {n: 0 for n in node_ids}
    outdegree = {n: 0 for n in node_ids}
    for producer, consumer in edges:
        outdegree[producer] += 1
        indegree[consumer] += 1
    max_in = max(indegree.values())
    max_out = max(outdegree.values())
    if max_in <= 1 and max_out <= 1:
        # A set of chains; a single connected chain is the linear case,
        # several disjoint chains mix independence in: general.
        chains = sum(1 for n in node_ids if indegree[n] == 0)
        return (
            HeterogeneityCase.DEPENDENT_LINEAR
            if chains == 1
            else HeterogeneityCase.GENERAL
        )
    if max_in > 1:
        # One node consumes several producers: (1:n) — provided the rest
        # of the graph is flat (producers are themselves independent).
        fan_in_nodes = [n for n in node_ids if indegree[n] > 1]
        if (
            len(fan_in_nodes) == 1
            and max_out <= 1
            and all(indegree[n] <= 1 or n in fan_in_nodes for n in node_ids)
            and all(
                indegree[producer] == 0
                for producer, consumer in edges
                if consumer == fan_in_nodes[0]
            )
        ):
            return HeterogeneityCase.DEPENDENT_1N
        return HeterogeneityCase.GENERAL
    # max_out > 1: one producer feeds several consumers: (n:1).
    fan_out_nodes = [n for n in node_ids if outdegree[n] > 1]
    if len(fan_out_nodes) == 1 and all(
        outdegree[consumer] == 0
        for producer, consumer in edges
        if producer == fan_out_nodes[0]
    ):
        return HeterogeneityCase.DEPENDENT_N1
    return HeterogeneityCase.GENERAL
