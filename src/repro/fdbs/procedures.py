"""PSM stored-procedure interpreter.

Implements the small SQL/PSM subset the dialect parses: DECLARE, SET,
IF/ELSEIF/ELSE, WHILE and nested CALL.  Procedures exist in the
reproduction because the paper's Sect. 3 discussion hinges on them:
PSM *does* offer control structures (loops), but a procedure can only be
invoked via CALL — it cannot be referenced in a FROM clause and thus
cannot be combined with other federated functions or tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutionError, SignatureError
from repro.fdbs import ast
from repro.fdbs.catalog import ProcedureDef
from repro.fdbs.expr import (
    EvalContext,
    ExpressionCompiler,
    ParamScope,
    RowLayout,
    _as_bool,
)
from repro.fdbs.types import coerce_into

if TYPE_CHECKING:  # pragma: no cover
    from repro.fdbs.engine import Database

_MAX_LOOP_ITERATIONS = 1_000_000


class ProcedureInterpreter:
    """Executes one stored procedure invocation."""

    def __init__(self, database: "Database", procedure: ProcedureDef):
        self.database = database
        self.procedure = procedure
        # Variable slots: procedure parameters first, then DECLAREd locals.
        self._names: dict[str, int] = {}
        self._types: list = []
        self._values: list[object] = []
        #: Compiled expressions by AST node id: a variable's index and
        #: type never change once declared, so one compile serves every
        #: evaluation of a node (a loop body's included).
        self._compiled: dict[int, Callable] = {}
        for param in procedure.params:
            self._add_variable(param.name, param.type)

    def _add_variable(self, name: str, var_type) -> int:
        key = name.upper()
        if key in self._names:
            raise ExecutionError(
                f"duplicate variable {name!r} in procedure {self.procedure.name}"
            )
        index = len(self._values)
        self._names[key] = index
        self._types.append(var_type)
        self._values.append(None)
        return index

    def call(self, args: list[object]) -> dict[str, object]:
        """Run the procedure; returns the OUT/INOUT parameter values."""
        in_params = [p for p in self.procedure.params if p.mode in ("IN", "INOUT")]
        if len(args) != len(in_params):
            raise SignatureError(
                f"procedure {self.procedure.name} expects {len(in_params)} "
                f"input arguments, got {len(args)}"
            )
        for param, value in zip(in_params, args):
            index = self._names[param.name.upper()]
            self._values[index] = coerce_into(value, param.type)
        self._run_block(self.procedure.body)
        return {
            param.name: self._values[self._names[param.name.upper()]]
            for param in self.procedure.params
            if param.mode in ("OUT", "INOUT")
        }

    # -- execution ------------------------------------------------------------

    def _run_block(self, statements: list[ast.PsmStatement]) -> None:
        for statement in statements:
            self._run_statement(statement)

    def _run_statement(self, statement: ast.PsmStatement) -> None:
        if isinstance(statement, ast.PsmDeclare):
            index = self._add_variable(statement.name, statement.type)
            if statement.default is not None:
                self._values[index] = coerce_into(
                    self._evaluate(statement.default), statement.type
                )
        elif isinstance(statement, ast.PsmSet):
            index = self._variable_index(statement.target)
            value = self._evaluate(statement.value)
            self._values[index] = coerce_into(value, self._types[index])
        elif isinstance(statement, ast.PsmIf):
            for condition, body in statement.branches:
                if _as_bool(self._evaluate(condition)) is True:
                    self._run_block(body)
                    return
            self._run_block(statement.else_body)
        elif isinstance(statement, ast.PsmWhile):
            iterations = 0
            while _as_bool(self._evaluate(statement.condition)) is True:
                self._run_block(statement.body)
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise ExecutionError(
                        f"WHILE loop in procedure {self.procedure.name} exceeded "
                        f"{_MAX_LOOP_ITERATIONS} iterations"
                    )
        elif isinstance(statement, ast.PsmCall):
            self._nested_call(statement)
        else:  # pragma: no cover - parser prevents this
            raise ExecutionError(f"unsupported PSM statement {statement!r}")

    def _nested_call(self, statement: ast.PsmCall) -> None:
        args = [self._evaluate(a) for a in statement.args]
        self.database.call_procedure(statement.name, args)

    def _variable_index(self, name: str) -> int:
        key = name.upper()
        if key not in self._names:
            raise ExecutionError(
                f"unknown variable {name!r} in procedure {self.procedure.name}"
            )
        return self._names[key]

    def _evaluate(self, expr: ast.Expression) -> object:
        compiled = self._compiled.get(id(expr))
        if compiled is None:
            scope = ParamScope(
                qualifier=self.procedure.name,
                names={
                    name: (index, self._types[index])
                    for name, index in self._names.items()
                },
            )
            compiler = ExpressionCompiler(
                RowLayout([]),
                params=scope,
                subquery_compiler=self._subquery_compiler,
            )
            compiled = self._compiled[id(expr)] = compiler.compile(expr)
        ctx = EvalContext(params=list(self._values), database=self.database)
        return compiled((), ctx)

    def _subquery_compiler(
        self, select: ast.Select
    ) -> Callable[[EvalContext], list[tuple]]:
        def run(ctx: EvalContext) -> list[tuple]:
            result = self.database.execute_select_ast(select)
            return result.rows

        return run
