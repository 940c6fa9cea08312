"""Mapping graph → workflow process definition (the WfMS architecture).

"As a key concept of our approach, we use a WfMS as the engine
processing such a graph-based mapping where its activities embody the
local function calls and where the WfMS controls the parameter transfer
together with the precedence structure" (paper, Sect. 2).

Compilation rules per heterogeneity case (Sect. 3):

* trivial / simple — signature hiding happens in the connecting UDTF;
  constants are supplied directly to the input container; result casts
  become *helper activities*;
* independent — program activities with no connectors between them run
  in parallel; table-valued composition uses a *join helper* activity;
* dependent — data dependencies become control connectors;
* cyclic — a do-until *block activity* around a one-call sub-process
  with an *advance* helper driving the counter.

Helpers are registered in the program registry under deterministic
identifiers (``helper:<fed>.<name>``) at compile time.
"""

from __future__ import annotations

from repro.core.compile_sql_udtf import FunctionResolver
from repro.core.federated_function import FederatedFunction
from repro.core.mapping import (
    Const,
    FedInput,
    LocalCall,
    LoopCall,
    MappingGraph,
    NodeOutput,
    Source,
)
from repro.errors import MappingGraphError, UnsupportedMappingError
from repro.fdbs.types import INTEGER, SqlType, cast_value
from repro.wfms.builder import ProcessBuilder
from repro.wfms.model import (
    Condition,
    DataSource,
    FromActivityRows,
    ProcessDefinition,
)
from repro.wfms.programs import ProgramRegistry


def program_id(system: str, function: str) -> str:
    """The registry identifier of a local-function program."""
    return f"{system}.{function}"


def compile_workflow(
    fed: FederatedFunction,
    resolver: FunctionResolver,
    registry: ProgramRegistry,
    validate: bool = True,
) -> ProcessDefinition:
    """Compile a federated function into a deployable process
    (``validate=False``: the caller has just validated ``fed``)."""
    if validate:
        fed.validate()
    compiler = _WorkflowCompiler(fed, resolver, registry)
    return compiler.compile()


class _WorkflowCompiler:
    def __init__(
        self,
        fed: FederatedFunction,
        resolver: FunctionResolver,
        registry: ProgramRegistry,
    ):
        self.fed = fed
        self.resolver = resolver
        self.registry = registry
        self.builder = ProcessBuilder(fed.name, fed.params, fed.returns)
        self.graph: MappingGraph = fed.mapping

    # -- source translation ----------------------------------------------------------

    def _translate(self, source: Source) -> DataSource:
        if isinstance(source, FedInput):
            return ProcessBuilder.from_input(source.name)
        if isinstance(source, Const):
            return ProcessBuilder.constant(source.value)
        assert isinstance(source, NodeOutput)
        return ProcessBuilder.from_activity(source.node, source.column)

    def _register_helper(self, name: str, fn) -> str:
        identifier = f"helper:{self.fed.name}.{name}"
        if not self.registry.has_helper(identifier):
            self.registry.register_helper(identifier, fn)
        return identifier

    # -- main -------------------------------------------------------------------------

    def compile(self) -> ProcessDefinition:
        for node in self.graph.topological_order():
            if isinstance(node, LoopCall):
                self._compile_loop(node)
            else:
                assert isinstance(node, LocalCall)
                self._compile_call(node)
        self._compile_control_flow()
        if self.graph.joins:
            self._compile_join_composition()
        else:
            self._compile_scalar_outputs()
        return self.builder.build()

    def _compile_call(self, node: LocalCall) -> None:
        local = self.resolver(node.system, node.function)
        wired = {k.upper(): v for k, v in node.args.items()}
        input_map: dict[str, DataSource] = {}
        for param_name, _ in local.params:
            source = wired.get(param_name.upper())
            if source is None:
                raise MappingGraphError(
                    f"node {node.id!r} does not wire parameter "
                    f"{param_name!r} of {node.function}"
                )
            input_map[param_name] = self._translate(source)
        self.builder.program_activity(
            node.id,
            program_id(node.system, node.function),
            inputs=list(local.params),
            outputs=list(local.returns),
            input_map=input_map,
            max_retries=node.retries,
        )

    def _compile_control_flow(self) -> None:
        for producer, consumer in sorted(self.graph.dependency_edges()):
            self.builder.connect(producer, consumer)

    # -- outputs -----------------------------------------------------------------------

    def _compile_scalar_outputs(self) -> None:
        """Map process outputs, inserting cast helper activities where
        the mapping declares result casts (the simple case)."""
        loop_nodes = [n for n in self.graph.nodes if isinstance(n, LoopCall)]
        for output, (return_name, _) in zip(self.graph.outputs, self.fed.returns):
            source = self._translate(output.source)
            if output.cast is not None:
                source = self._insert_cast_helper(output, source)
            self.builder.map_output(return_name, source)
        if len(loop_nodes) == 1 and not any(
            isinstance(s, NodeOutput) and s.node.upper() != loop_nodes[0].id.upper()
            for s in (o.source for o in self.graph.outputs)
        ):
            # A pure loop mapping returns the concatenated iteration rows.
            self.builder.result_rows_from(loop_nodes[0].id)

    def _insert_cast_helper(self, output, source: DataSource) -> DataSource:
        """The paper's simple case: 'helper functions which are defined
        as additional activities ... implement the required type
        conversions'."""
        assert output.cast is not None
        target: SqlType = output.cast
        helper_name = f"Cast{output.name}"

        def cast_helper(inputs: dict[str, object]) -> dict[str, object]:
            value = inputs.get("VALUE", inputs.get("Value"))
            from repro.fdbs.types import infer_type

            source_type = infer_type(value) if value is not None else target
            return {"Value": cast_value(value, source_type, target)}

        identifier = self._register_helper(helper_name, cast_helper)
        source_member_type = self._source_type(output.source)
        self.builder.helper_activity(
            helper_name,
            identifier,
            inputs=[("Value", source_member_type)],
            outputs=[("Value", target)],
            input_map={"Value": source},
        )
        if isinstance(output.source, NodeOutput):
            self.builder.connect(output.source.node, helper_name)
        return ProcessBuilder.from_activity(helper_name, "Value")

    def _source_type(self, source: Source) -> SqlType:
        if isinstance(source, NodeOutput):
            node = self.graph.node(source.node)
            local = self.resolver(node.system, node.function)
            for column, column_type in local.returns:
                if column.upper() == source.column.upper():
                    return column_type
            raise MappingGraphError(
                f"{source.node}.{source.column} is not a result column of "
                f"{node.function}"
            )
        if isinstance(source, FedInput):
            for name, param_type in self.fed.params:
                if name.upper() == source.name.upper():
                    return param_type
        return INTEGER

    # -- independent-case composition ------------------------------------------------------

    def _compile_join_composition(self) -> None:
        """Compose two branches' result sets with a join helper —
        'parallel activities whose results are combined by a helper
        function' (paper, Sect. 3)."""
        joins = self.graph.joins
        sides = {joins[0].left.node.upper(), joins[0].right.node.upper()}
        for join in joins:
            sides |= {join.left.node.upper(), join.right.node.upper()}
        if len(sides) != 2:
            raise UnsupportedMappingError(
                f"federated function {self.fed.name!r}: the workflow "
                "composition helper joins exactly two branches; found "
                f"{len(sides)}"
            )
        left_id, right_id = sorted(sides)
        left_node = self.graph.node(left_id)
        right_node = self.graph.node(right_id)
        assert isinstance(left_node, LocalCall) and isinstance(right_node, LocalCall)
        left_cols = [
            c.upper() for c, _ in self.resolver(left_node.system, left_node.function).returns
        ]
        right_cols = [
            c.upper()
            for c, _ in self.resolver(right_node.system, right_node.function).returns
        ]

        key_pairs: list[tuple[int, int]] = []
        for join in joins:
            a, b = join.left, join.right
            if a.node.upper() == right_id:
                a, b = b, a
            key_pairs.append(
                (left_cols.index(a.column.upper()), right_cols.index(b.column.upper()))
            )

        projection: list[tuple[str, int]] = []  # (side, column index)
        for output in self.graph.outputs:
            source = output.source
            if not isinstance(source, NodeOutput):
                raise UnsupportedMappingError(
                    f"federated function {self.fed.name!r}: joined outputs "
                    "must come from the joined branches"
                )
            if source.node.upper() == left_id:
                projection.append(("L", left_cols.index(source.column.upper())))
            else:
                projection.append(("R", right_cols.index(source.column.upper())))

        def join_helper(inputs: dict[str, object]) -> dict[str, object]:
            left_rows = inputs.get("LEFT") or []
            right_rows = inputs.get("RIGHT") or []
            joined: list[tuple] = []
            for lrow in left_rows:  # type: ignore[union-attr]
                for rrow in right_rows:  # type: ignore[union-attr]
                    if all(lrow[li] == rrow[ri] for li, ri in key_pairs):
                        joined.append(
                            tuple(
                                lrow[index] if side == "L" else rrow[index]
                                for side, index in projection
                            )
                        )
            return {"ROWS": joined}

        identifier = self._register_helper("JoinResults", join_helper)
        helper_name = "CombineResults"
        self.builder.helper_activity(
            helper_name,
            identifier,
            inputs=[],
            outputs=[],
            input_map={
                "LEFT": FromActivityRows(left_id),
                "RIGHT": FromActivityRows(right_id),
            },
        )
        self.builder.connect(left_id, helper_name)
        self.builder.connect(right_id, helper_name)
        self.builder.result_rows_from(helper_name)

    # -- cyclic case -------------------------------------------------------------------------

    def _compile_loop(self, node: LoopCall) -> None:
        """Do-until block: 'sub-workflows containing activities to be
        invoked several times ... activated in a do-until-loop which
        realizes the cycle' (paper, Sect. 3)."""
        local = self.resolver(node.system, node.function)
        body_name = f"{self.fed.name}_{node.id}_Body"
        counter = node.counter_param

        body = ProcessBuilder(
            body_name,
            inputs=[(counter, INTEGER), ("LoopEnd", INTEGER)]
            + [(p, t) for p, t in local.params if p.upper() != counter.upper()],
            outputs=list(local.returns) + [("NextValue", INTEGER), ("Done", INTEGER)],
        )
        call_input_map: dict[str, DataSource] = {}
        for param_name, _ in local.params:
            if param_name.upper() == counter.upper():
                call_input_map[param_name] = ProcessBuilder.from_input(counter)
            else:
                call_input_map[param_name] = ProcessBuilder.from_input(param_name)
        body.program_activity(
            node.id,
            program_id(node.system, node.function),
            inputs=list(local.params),
            outputs=list(local.returns),
            input_map=call_input_map,
        )

        def advance_helper(inputs: dict[str, object]) -> dict[str, object]:
            current = inputs["Counter"] if "Counter" in inputs else inputs["COUNTER"]
            end = inputs["LoopEnd"] if "LoopEnd" in inputs else inputs["LOOPEND"]
            next_value = int(current) + 1  # type: ignore[arg-type]
            return {
                "NextValue": next_value,
                "Done": 1 if next_value > int(end) else 0,  # type: ignore[arg-type]
            }

        identifier = self._register_helper(f"{node.id}Advance", advance_helper)
        body.helper_activity(
            "Advance",
            identifier,
            inputs=[("Counter", INTEGER), ("LoopEnd", INTEGER)],
            outputs=[("NextValue", INTEGER), ("Done", INTEGER)],
            input_map={
                "Counter": ProcessBuilder.from_input(counter),
                "LoopEnd": ProcessBuilder.from_input("LoopEnd"),
            },
        )
        body.connect(node.id, "Advance")
        for column, _ in local.returns:
            body.map_output(column, ProcessBuilder.from_activity(node.id, column))
        body.map_output("NextValue", ProcessBuilder.from_activity("Advance", "NextValue"))
        body.map_output("Done", ProcessBuilder.from_activity("Advance", "Done"))
        body.result_rows_from(node.id)
        body_def = body.build()

        block_input_map: dict[str, DataSource] = {
            counter: self._translate(node.start),
            "LoopEnd": self._translate(node.end),
        }
        wired = {k.upper(): v for k, v in node.args.items()}
        for param_name, _ in local.params:
            if param_name.upper() == counter.upper():
                continue
            source = wired.get(param_name.upper())
            if source is None:
                raise MappingGraphError(
                    f"loop node {node.id!r} does not wire parameter "
                    f"{param_name!r} of {node.function}"
                )
            block_input_map[param_name] = self._translate(source)
        self.builder.block_activity(
            node.id,
            body_def,
            input_map=block_input_map,
            until=Condition("Done", "=", 1),
            carry={counter: "NextValue"},
            collect_rows=True,
        )
