"""Mapping graph → procedural I-UDTF body (enhanced Java UDTF
architecture).

The paper's Java I-UDTFs "issue as many SQL statements as needed" via
JDBC, each statement referencing one A-UDTF.  The compiled body does
exactly that: one ``SELECT * FROM TABLE (Fn(?, ...)) AS T`` per call
node, host-language data flow between them, a host-language loop for
the cyclic case (the capability the paper says lifts the SQL
restriction), and a host-language join for the independent case.
"""

from __future__ import annotations

from typing import Callable

from repro.core.compile_sql_udtf import FunctionResolver
from repro.core.federated_function import FederatedFunction
from repro.core.mapping import (
    Const,
    FedInput,
    LocalCall,
    LoopCall,
    NodeOutput,
    Source,
)
from repro.errors import ExecutionError, MappingGraphError, UnsupportedMappingError
from repro.fdbs.types import cast_value, infer_type
from repro.udtf.procedural import ProceduralConnection

ProceduralBody = Callable[..., list[tuple]]


def compile_procedural(
    fed: FederatedFunction, resolver: FunctionResolver, validate: bool = True
) -> ProceduralBody:
    """Compile a federated function into a procedural I-UDTF body
    (``validate=False``: the caller has just validated ``fed``)."""
    if validate:
        fed.validate()
    graph = fed.mapping
    param_names = [n for n, _ in fed.params]
    order = graph.topological_order()

    def body(connection: ProceduralConnection, *args: object) -> list[tuple]:
        if len(args) != len(param_names):
            raise ExecutionError(
                f"{fed.name} expects {len(param_names)} argument(s), "
                f"got {len(args)}"
            )
        env = {name.upper(): value for name, value in zip(param_names, args)}
        first_rows: dict[str, dict[str, object]] = {}
        all_rows: dict[str, list[tuple]] = {}
        columns: dict[str, list[str]] = {}

        def resolve(source: Source) -> object:
            if isinstance(source, Const):
                return source.value
            if isinstance(source, FedInput):
                return env[source.name.upper()]
            assert isinstance(source, NodeOutput)
            node_values = first_rows.get(source.node.upper())
            if node_values is None:
                raise ExecutionError(
                    f"{fed.name}: node {source.node!r} produced no row"
                )
            return node_values[source.column.upper()]

        def run_call(node_id: str, system: str, function: str, arg_values: list[object]) -> None:
            local = resolver(system, function)
            markers = ", ".join("?" for _ in arg_values)
            alias = "T"
            sql = f"SELECT * FROM TABLE ({function}({markers})) AS {alias}"
            rows = connection.query_rows(sql, params=arg_values)
            cols = [c.upper() for c, _ in local.returns]
            columns[node_id.upper()] = cols
            bucket = all_rows.setdefault(node_id.upper(), [])
            bucket.extend(rows)
            if rows:
                first_rows[node_id.upper()] = dict(zip(cols, rows[0]))
            else:
                first_rows.setdefault(
                    node_id.upper(), {c: None for c in cols}
                )

        def wired_args(node, local) -> list[object]:
            wired = {k.upper(): v for k, v in node.args.items()}
            values: list[object] = []
            for param_name, _ in local.params:
                if (
                    isinstance(node, LoopCall)
                    and param_name.upper() == node.counter_param.upper()
                ):
                    values.append(None)  # placeholder, patched per iteration
                    continue
                source = wired.get(param_name.upper())
                if source is None:
                    raise MappingGraphError(
                        f"node {node.id!r} does not wire parameter "
                        f"{param_name!r} of {node.function}"
                    )
                values.append(resolve(source))
            return values

        for node in order:
            local = resolver(node.system, node.function)
            if isinstance(node, LoopCall):
                start = int(resolve(node.start))  # type: ignore[arg-type]
                end = int(resolve(node.end))  # type: ignore[arg-type]
                counter_index = [
                    index
                    for index, (param_name, _) in enumerate(local.params)
                    if param_name.upper() == node.counter_param.upper()
                ]
                if not counter_index:
                    raise MappingGraphError(
                        f"loop node {node.id!r}: {node.function} has no "
                        f"parameter {node.counter_param!r}"
                    )
                template = wired_args(node, local)
                # The host-language loop the SQL architecture lacks.
                for value in range(start, end + 1):
                    arg_values = list(template)
                    arg_values[counter_index[0]] = value
                    run_call(node.id, node.system, node.function, arg_values)
            else:
                assert isinstance(node, LocalCall)
                run_call(node.id, node.system, node.function, wired_args(node, local))

        return _project(fed, graph, first_rows, all_rows, columns)

    body.__name__ = f"procedural_{fed.name}"
    return body


def _project(fed, graph, first_rows, all_rows, columns) -> list[tuple]:
    """Build the result rows: joined, looped, or scalar."""
    if graph.joins:
        return _project_join(fed, graph, all_rows, columns)
    loop_nodes = [n for n in graph.nodes if isinstance(n, LoopCall)]
    if len(loop_nodes) == 1 and all(
        isinstance(o.source, NodeOutput)
        and o.source.node.upper() == loop_nodes[0].id.upper()
        for o in graph.outputs
    ):
        node_id = loop_nodes[0].id.upper()
        cols = columns[node_id]
        indices = [
            cols.index(o.source.column.upper())  # type: ignore[union-attr]
            for o in graph.outputs
        ]
        rows = [tuple(row[i] for i in indices) for row in all_rows.get(node_id, [])]
        return _apply_casts(fed, graph, rows)
    row: list[object] = []
    for output in graph.outputs:
        if isinstance(output.source, Const):
            row.append(output.source.value)
        elif isinstance(output.source, FedInput):
            raise UnsupportedMappingError(
                f"{fed.name}: echoing federated inputs as outputs is not "
                "part of the paper's mapping cases"
            )
        else:
            source = output.source
            row.append(first_rows[source.node.upper()][source.column.upper()])
    return _apply_casts(fed, graph, [tuple(row)])


def _project_join(fed, graph, all_rows, columns) -> list[tuple]:
    sides: set[str] = set()
    for join in graph.joins:
        sides |= {join.left.node.upper(), join.right.node.upper()}
    if len(sides) != 2:
        raise UnsupportedMappingError(
            f"{fed.name}: the procedural composition joins exactly two branches"
        )
    left_id, right_id = sorted(sides)
    left_cols, right_cols = columns[left_id], columns[right_id]
    key_pairs = []
    for join in graph.joins:
        a, b = join.left, join.right
        if a.node.upper() == right_id:
            a, b = b, a
        key_pairs.append(
            (left_cols.index(a.column.upper()), right_cols.index(b.column.upper()))
        )
    projection = []
    for output in graph.outputs:
        source = output.source
        assert isinstance(source, NodeOutput)
        if source.node.upper() == left_id:
            projection.append(("L", left_cols.index(source.column.upper())))
        else:
            projection.append(("R", right_cols.index(source.column.upper())))
    joined: list[tuple] = []
    for lrow in all_rows.get(left_id, []):
        for rrow in all_rows.get(right_id, []):
            if all(lrow[li] == rrow[ri] for li, ri in key_pairs):
                joined.append(
                    tuple(
                        lrow[index] if side == "L" else rrow[index]
                        for side, index in projection
                    )
                )
    return _apply_casts(fed, graph, joined)


def _apply_casts(fed, graph, rows: list[tuple]) -> list[tuple]:
    casts = [o.cast for o in graph.outputs]
    if not any(c is not None for c in casts):
        return rows
    adjusted: list[tuple] = []
    for row in rows:
        adjusted.append(
            tuple(
                cast_value(value, infer_type(value), cast)
                if cast is not None and value is not None
                else value
                for value, cast in zip(row, casts)
            )
        )
    return adjusted
