"""Mapping graph → SQL (the UDTF architectures' artefacts).

Two outputs:

* :func:`compile_sql_udtf` — the ``CREATE FUNCTION ... LANGUAGE SQL
  RETURN SELECT ...`` text of the enhanced SQL UDTF architecture
  (paper, Sect. 2), with federated parameters referenced as
  ``FnName.ParamName``;
* :func:`compile_simple_select` — the bare application-side SELECT of
  the *simple* UDTF architecture, with ``?`` parameter markers and the
  binding order, because there the integration logic lives in the
  application code.

Both raise :class:`~repro.errors.UnsupportedMappingError` for cyclic
mappings: "there are no control structures like a loop which are needed
to iterate the cycle" (paper, Sect. 3).
"""

from __future__ import annotations

from typing import Callable

from repro.appsys.base import LocalFunction
from repro.core.federated_function import FederatedFunction
from repro.core.mapping import (
    Const,
    FedInput,
    LocalCall,
    LoopCall,
    NodeOutput,
    Source,
)
from repro.errors import MappingGraphError, UnsupportedMappingError
from repro.fdbs.expr import CAST_FUNCTION_NAMES
from repro.fdbs.types import SqlType

FunctionResolver = Callable[[str, str], LocalFunction]
"""Resolves (system name, function name) to the local function's
signature — the compilers need parameter order and result columns."""


def _render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def _render_cast(expr: str, target: SqlType) -> str:
    """Use the DB2-style cast function when one exists (``BIGINT(x)``),
    CAST syntax otherwise."""
    if target.name in CAST_FUNCTION_NAMES and target.length is None and (
        target.precision is None
    ):
        return f"{target.name}({expr})"
    return f"CAST({expr} AS {target.render()})"


class _SqlRenderer:
    """Shared rendering for both SQL artefacts."""

    def __init__(
        self,
        fed: FederatedFunction,
        resolver: FunctionResolver,
        param_style: str,  # "qualified" (I-UDTF body) or "marker" (app SQL)
        validate: bool = True,
    ):
        if validate:
            fed.validate()
        self.fed = fed
        self.resolver = resolver
        self.param_style = param_style
        self.param_order: list[str] = []  # binding order for "marker" style

    def render_source(self, source: Source) -> str:
        if isinstance(source, Const):
            return _render_literal(source.value)
        if isinstance(source, FedInput):
            if self.param_style == "qualified":
                return f"{self.fed.name}.{source.name}"
            self.param_order.append(source.name)
            return "?"
        assert isinstance(source, NodeOutput)
        return f"{source.node}.{source.column}"

    def render_select(self) -> str:
        graph = self.fed.mapping
        from_parts: list[str] = []
        for node in graph.topological_order():
            if isinstance(node, LoopCall):
                raise UnsupportedMappingError(
                    f"federated function {self.fed.name!r} needs a loop over "
                    f"{node.function!r}; cyclic dependencies cannot be "
                    "expressed in the UDTF approach (SQL has no loop "
                    "construct outside PSM procedures)",
                    case="dependent: cyclic",
                )
            assert isinstance(node, LocalCall)
            local = self.resolver(node.system, node.function)
            wired = {k.upper(): v for k, v in node.args.items()}
            args: list[str] = []
            for param_name, _ in local.params:
                source = wired.get(param_name.upper())
                if source is None:
                    raise MappingGraphError(
                        f"node {node.id!r} does not wire parameter "
                        f"{param_name!r} of {node.function}"
                    )
                args.append(self.render_source(source))
            from_parts.append(
                f"TABLE ({node.function}({', '.join(args)})) AS {node.id}"
            )
        select_parts: list[str] = []
        for output in self.fed.mapping.outputs:
            expr = self.render_source(output.source)
            if output.cast is not None:
                expr = _render_cast(expr, output.cast)
            select_parts.append(f"{expr} AS {output.name}")
        sql = f"SELECT {', '.join(select_parts)} FROM {', '.join(from_parts)}"
        if graph.joins:
            predicates = [
                f"{self.render_source(j.left)} = {self.render_source(j.right)}"
                for j in graph.joins
            ]
            sql += " WHERE " + " AND ".join(predicates)
        return sql


def compile_sql_udtf(
    fed: FederatedFunction, resolver: FunctionResolver, validate: bool = True
) -> str:
    """CREATE FUNCTION text for the enhanced SQL UDTF architecture
    (``validate=False``: the caller has just validated ``fed``)."""
    renderer = _SqlRenderer(fed, resolver, "qualified", validate)
    body = renderer.render_select()
    params = ", ".join(f"{n} {t.render()}" for n, t in fed.params)
    returns = ", ".join(f"{n} {t.render()}" for n, t in fed.returns)
    return (
        f"CREATE FUNCTION {fed.name} ({params}) "
        f"RETURNS TABLE ({returns}) LANGUAGE SQL RETURN {body}"
    )


def compile_simple_select(
    fed: FederatedFunction, resolver: FunctionResolver, validate: bool = True
) -> tuple[str, list[str]]:
    """The simple-UDTF-architecture application query.

    Returns ``(sql, binding_order)``: the SELECT text with ``?`` markers
    and the federated-parameter name for each marker in order
    (``validate=False``: the caller has just validated ``fed``).
    """
    renderer = _SqlRenderer(fed, resolver, "marker", validate)
    sql = renderer.render_select()
    return sql, renderer.param_order
