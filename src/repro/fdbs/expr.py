"""Expression compilation and evaluation with SQL NULL semantics.

Expressions are compiled once per statement into Python closures over a
*row layout* (the flat tuple the executor threads through the plan) and
an :class:`EvalContext` (statement parameters plus a subquery runner).
Three-valued logic is represented with Python ``None`` as SQL NULL.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Sequence

from repro.errors import ExecutionError, PlanError, TypeError_
from repro.fdbs import ast
from repro.fdbs.storage import ColumnChunk
from repro.fdbs.types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    SqlType,
    VARCHAR,
    cast_value,
    char_key,
    common_supertype,
    decimal_operands,
    explicitly_castable,
    infer_type,
    is_character,
    is_numeric,
    join_key,
    parse_type,
    value_key,
)

AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: Type keywords usable as cast-style scalar functions, e.g. ``BIGINT(x)``
#: from the paper's simple case.
CAST_FUNCTION_NAMES = frozenset(
    {"SMALLINT", "INT", "INTEGER", "BIGINT", "DOUBLE", "FLOAT", "CHAR", "VARCHAR", "DECIMAL"}
)


@dataclass(frozen=True)
class ColumnSlot:
    """One column of the executor's flat row layout."""

    alias: str | None
    name: str
    type: SqlType | None


class RowLayout:
    """Resolves qualified / unqualified names to row positions.

    Names and qualifiers match case-insensitively.  The first lookup
    builds an index from the upper-cased ``NAME`` and ``(ALIAS, NAME)``
    of every slot to their positions, so a lookup is one dict read
    instead of a scan of every slot.
    """

    def __init__(self, slots: list[ColumnSlot]):
        self.slots = slots
        self._index: dict[object, list[int]] | None = None

    def extend(self, more: list[ColumnSlot]) -> "RowLayout":
        """A new layout with extra trailing slots."""
        return RowLayout(self.slots + more)

    def resolve(self, qualifier: str | None, name: str) -> tuple[int, ColumnSlot] | None:
        """Find the unique slot for a reference; None if not found.

        Raises :class:`~repro.errors.PlanError` on ambiguity.
        """
        slots = self.slots
        index = self._index
        if index is None:
            index = self._index = {}
            for position, slot in enumerate(slots):
                upper = slot.name.upper()
                index.setdefault(upper, []).append(position)
                index.setdefault(((slot.alias or "").upper(), upper), []).append(position)
        key: object = name.upper()
        if qualifier:
            key = (qualifier.upper(), key)
        matches = index.get(key)
        if matches is None:
            return None
        if len(matches) > 1:
            shown = qualifier + "." + name if qualifier else name
            raise PlanError(f"ambiguous column reference {shown!r}")
        position = matches[0]
        return position, slots[position]

    def aliases(self) -> set[str]:
        """Upper-cased correlation names present in the layout."""
        return {(s.alias or "").upper() for s in self.slots if s.alias}

    def __len__(self) -> int:
        return len(self.slots)


@dataclass
class ParamScope:
    """Named parameters visible to an expression.

    In an I-UDTF body, parameters are referenced qualified with the
    *function name* (``BuySuppComp.SupplierNo``) or unqualified; both
    resolve here.  ``qualifier`` is the function name, or None for
    top-level statements (which only see positional ``?`` markers).
    """

    qualifier: str | None = None
    names: dict[str, tuple[int, SqlType | None]] = field(default_factory=dict)

    def resolve(self, qualifier: str | None, name: str) -> tuple[int, SqlType | None] | None:
        """(index, type) of a visible parameter, or None."""
        if qualifier is not None:
            if self.qualifier is None or qualifier.upper() != self.qualifier.upper():
                return None
        return self.names.get(name.upper())


class EvalContext:
    """Runtime context for compiled expressions."""

    def __init__(
        self,
        params: list[object] | None = None,
        subquery_runner: Callable[[ast.Select], list[tuple]] | None = None,
        snapshot: object | None = None,
        database: object | None = None,
    ):
        self.params = params or []
        self.subquery_runner = subquery_runner
        #: The MVCC snapshot this statement pinned (a storage.Snapshot);
        #: table scans resolve their TableVersion through it so every
        #: read of the statement sees one consistent database state.
        self.snapshot = snapshot
        #: The executing :class:`~repro.fdbs.engine.Database`: plans
        #: hold catalog names, and operators resolve storage, functions
        #: and remote fetchers through it.
        self.database = database
        #: Per-execution operator state keyed by operator (materialised
        #: static right sides, DETERMINISTIC result caches).  Plans are
        #: shared through the statement cache, so operators themselves
        #: must carry nothing from one execution to the next.
        self.op_state: dict[object, object] = {}

    def run_subquery(self, select: ast.Select) -> list[tuple]:
        """Execute an uncorrelated subquery via the runner hook."""
        if self.subquery_runner is None:
            raise ExecutionError("subqueries are not available in this context")
        return self.subquery_runner(select)


EvalFn = Callable[[tuple, EvalContext], object]


@dataclass
class CompiledExpr:
    """A compiled expression: an eval closure plus its inferred type.

    Closures call their children's ``fn`` directly (one Python frame per
    node per row); ``__call__`` is for callers outside the compiler.
    ``leaf`` tells a comparison how to read a leaf inline: ``("row", i)``
    for a column of the layout, ``("const", value)`` for a literal and
    ``("param", j)`` for a ``?`` marker.
    """

    fn: EvalFn
    type: SqlType | None
    source: ast.Expression
    leaf: tuple[str, object] | None = None

    def __call__(self, row: tuple, ctx: EvalContext) -> object:
        return self.fn(row, ctx)


# ---------------------------------------------------------------------------
# Scalar builtins
# ---------------------------------------------------------------------------


def _builtin_upper(v):
    return None if v is None else str(v).upper()


def _builtin_lower(v):
    return None if v is None else str(v).lower()


def _builtin_length(v):
    return None if v is None else len(str(v))


def _builtin_abs(v):
    return None if v is None else abs(v)


def _builtin_mod(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero in MOD")
    return a % b

def _builtin_substr(s, start, length=None):
    if s is None or start is None:
        return None
    begin = max(int(start) - 1, 0)
    if length is None:
        return str(s)[begin:]
    return str(s)[begin : begin + int(length)]


def _builtin_trim(s):
    return None if s is None else str(s).strip()


def _builtin_round(v, digits=0):
    if v is None:
        return None
    return round(v, int(digits or 0))


def _builtin_floor(v):
    import math

    return None if v is None else math.floor(v)


def _builtin_ceil(v):
    import math

    return None if v is None else math.ceil(v)


def _builtin_coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _builtin_nullif(a, b):
    if a is None:
        return None
    return None if a == b else a


def _builtin_concat(a, b):
    if a is None or b is None:
        return None
    return str(a) + str(b)


_BUILTINS: dict[str, tuple[Callable[..., object], tuple[int, int], SqlType | None]] = {
    # name -> (callable, (min_args, max_args), result type or None=dynamic)
    "UPPER": (_builtin_upper, (1, 1), None),
    "UCASE": (_builtin_upper, (1, 1), None),
    "LOWER": (_builtin_lower, (1, 1), None),
    "LCASE": (_builtin_lower, (1, 1), None),
    "LENGTH": (_builtin_length, (1, 1), INTEGER),
    "ABS": (_builtin_abs, (1, 1), None),
    "MOD": (_builtin_mod, (2, 2), None),
    "SUBSTR": (_builtin_substr, (2, 3), None),
    "TRIM": (_builtin_trim, (1, 1), None),
    "ROUND": (_builtin_round, (1, 2), None),
    "FLOOR": (_builtin_floor, (1, 1), BIGINT),
    "CEIL": (_builtin_ceil, (1, 1), BIGINT),
    "CEILING": (_builtin_ceil, (1, 1), BIGINT),
    "COALESCE": (_builtin_coalesce, (1, 99), None),
    "VALUE": (_builtin_coalesce, (1, 99), None),
    "NULLIF": (_builtin_nullif, (2, 2), None),
    "CONCAT": (_builtin_concat, (2, 2), None),
}


def is_aggregate_call(expr: ast.Expression) -> bool:
    """True for COUNT/SUM/AVG/MIN/MAX calls."""
    return isinstance(expr, ast.FunctionCall) and expr.name.upper() in AGGREGATE_NAMES


def contains_aggregate(expr: ast.Expression) -> bool:
    """True if any node below ``expr`` is an aggregate call."""
    if is_aggregate_call(expr):
        return True
    for child in _children(expr):
        if contains_aggregate(child):
            return True
    return False


def _children(expr: ast.Expression) -> list[ast.Expression]:
    if isinstance(expr, ast.BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand]
    if isinstance(expr, ast.FunctionCall):
        return list(expr.args)
    if isinstance(expr, ast.Cast):
        return [expr.operand]
    if isinstance(expr, ast.IsNull):
        return [expr.operand]
    if isinstance(expr, ast.InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, (ast.InSubquery,)):
        return [expr.operand]
    if isinstance(expr, ast.Like):
        return [expr.operand, expr.pattern]
    if isinstance(expr, ast.Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, ast.Case):
        children = [] if expr.operand is None else [expr.operand]
        for when in expr.whens:
            children.extend([when.condition, when.result])
        if expr.else_result is not None:
            children.append(expr.else_result)
        return children
    return []


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


class ExpressionCompiler:
    """Compiles AST expressions against a layout and parameter scope."""

    def __init__(
        self,
        layout: RowLayout,
        params: ParamScope | None = None,
        subquery_compiler: Callable[[ast.Select], Callable[[EvalContext], list[tuple]]] | None = None,
        table_function_names: Callable[[str], bool] | None = None,
    ):
        self.layout = layout
        self.params = params or ParamScope()
        self.subquery_compiler = subquery_compiler
        self.table_function_names = table_function_names

    def compile(self, expr: ast.Expression) -> CompiledExpr:
        """Compile one expression tree."""
        method = getattr(self, "_compile_" + type(expr).__name__.lower(), None)
        if method is None:
            raise PlanError(f"unsupported expression: {expr.render()}")
        return method(expr)

    # -- leaves -----------------------------------------------------------------

    def _compile_literal(self, expr: ast.Literal) -> CompiledExpr:
        value = expr.value
        inferred = None if value is None else infer_type(value)
        return CompiledExpr(lambda row, ctx: value, inferred, expr, ("const", value))

    def _compile_columnref(self, expr: ast.ColumnRef) -> CompiledExpr:
        resolved = self.layout.resolve(expr.qualifier, expr.name)
        if resolved is not None:
            index, slot = resolved
            return CompiledExpr(lambda row, ctx: row[index], slot.type, expr, ("row", index))
        param = self.params.resolve(expr.qualifier, expr.name)
        if param is not None:
            pindex, ptype = param
            return CompiledExpr(lambda row, ctx: ctx.params[pindex], ptype, expr)
        shown = expr.render()
        if expr.qualifier and expr.qualifier.upper() in self.layout.aliases():
            raise PlanError(f"unknown column {shown!r}")
        raise PlanError(f"cannot resolve reference {shown!r}")

    def _compile_parameter(self, expr: ast.Parameter) -> CompiledExpr:
        index = expr.index

        def fetch(row: tuple, ctx: EvalContext) -> object:
            if index >= len(ctx.params):
                raise ExecutionError(
                    f"statement parameter ?{index + 1} was not bound"
                )
            return ctx.params[index]

        return CompiledExpr(fetch, None, expr, ("param", index))

    def _compile_star(self, expr: ast.Star) -> CompiledExpr:
        raise PlanError("'*' is only valid in a select list or COUNT(*)")

    # -- operators ------------------------------------------------------------------

    def _compile_binaryop(self, expr: ast.BinaryOp) -> CompiledExpr:
        op = expr.op.upper()
        if op in ("AND", "OR"):
            return self._compile_logical(expr, op)
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op in _COMPARE_OPS:
            return CompiledExpr(_comparison(expr, op, left, right), BOOLEAN, expr)
        left_fn, right_fn = left.fn, right.fn
        if op == "||":
            def concat(row, ctx):
                a = left_fn(row, ctx)
                b = right_fn(row, ctx)
                if a is None or b is None:
                    return None
                return str(a) + str(b)

            return CompiledExpr(concat, VARCHAR(), expr)
        if op in ("+", "-", "*", "/"):
            result_type = self._numeric_result(left.type, right.type)

            def arith(row, ctx, _op=op):
                a = left_fn(row, ctx)
                b = right_fn(row, ctx)
                if a is None or b is None:
                    return None
                _check_number(a, expr.left)
                _check_number(b, expr.right)
                if _op == "+":
                    return a + b
                if _op == "-":
                    return a - b
                if _op == "*":
                    return a * b
                if b == 0:
                    raise ExecutionError("division by zero")
                if isinstance(a, int) and isinstance(b, int):
                    # SQL integer division truncates toward zero.
                    quotient = abs(a) // abs(b)
                    return quotient if (a >= 0) == (b >= 0) else -quotient
                return a / b

            return CompiledExpr(arith, result_type, expr)
        raise PlanError(f"unsupported operator {expr.op!r}")

    def _numeric_result(self, a: SqlType | None, b: SqlType | None) -> SqlType | None:
        if a is None or b is None:
            return None
        try:
            return common_supertype(a, b)
        except TypeError_:
            raise PlanError(
                f"operands of arithmetic must be numeric, got {a} and {b}"
            ) from None

    def _compile_logical(self, expr: ast.BinaryOp, op: str) -> CompiledExpr:
        left = self.compile(expr.left).fn
        right = self.compile(expr.right).fn
        if op == "AND":

            def and_(row, ctx):
                a = _as_bool(left(row, ctx))
                if a is False:
                    return False
                b = _as_bool(right(row, ctx))
                if b is False:
                    return False
                if a is None or b is None:
                    return None
                return True

            return CompiledExpr(and_, BOOLEAN, expr)

        def or_(row, ctx):
            a = _as_bool(left(row, ctx))
            if a is True:
                return True
            b = _as_bool(right(row, ctx))
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return CompiledExpr(or_, BOOLEAN, expr)

    def _compile_unaryop(self, expr: ast.UnaryOp) -> CompiledExpr:
        operand = self.compile(expr.operand)
        operand_fn = operand.fn
        if expr.op.upper() == "NOT":

            def not_(row, ctx):
                value = _as_bool(operand_fn(row, ctx))
                return None if value is None else not value

            return CompiledExpr(not_, BOOLEAN, expr)

        def negate(row, ctx):
            value = operand_fn(row, ctx)
            if value is None:
                return None
            _check_number(value, expr.operand)
            return -value

        return CompiledExpr(negate, operand.type, expr)

    # -- predicates ------------------------------------------------------------------

    def _compile_isnull(self, expr: ast.IsNull) -> CompiledExpr:
        operand = self.compile(expr.operand).fn
        negated = expr.negated

        def isnull(row, ctx):
            value = operand(row, ctx)
            return (value is not None) if negated else (value is None)

        return CompiledExpr(isnull, BOOLEAN, expr)

    def _compile_inlist(self, expr: ast.InList) -> CompiledExpr:
        """``x IN (a, b, ...)`` is ``x = a OR x = b OR ...``: the same
        comparison as ``=``, under three-valued logic."""
        operand = self.compile(expr.operand).fn
        items = [self.compile(i).fn for i in expr.items]
        negated = expr.negated
        eq = operator.eq

        def in_list(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row, ctx)
                if candidate is None:
                    saw_null = True
                elif _compare_values(eq, value, candidate, expr):
                    return not negated
            return None if saw_null else negated

        return CompiledExpr(in_list, BOOLEAN, expr)

    def _compile_insubquery(self, expr: ast.InSubquery) -> CompiledExpr:
        """``x IN (SELECT ...)`` compares each subquery value like ``=``,
        under three-valued logic (as ``IN`` over a list does)."""
        operand = self.compile(expr.operand).fn
        runner = self._compile_subquery(expr.subquery)
        negated = expr.negated
        eq = operator.eq

        def in_subquery(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            rows = runner(ctx)
            saw_null = False
            for candidate in rows:
                if len(candidate) != 1:
                    raise ExecutionError("IN subquery must return one column")
                if candidate[0] is None:
                    saw_null = True
                elif _compare_values(eq, value, candidate[0], expr):
                    return not negated
            if saw_null:
                return None
            return negated

        return CompiledExpr(in_subquery, BOOLEAN, expr)

    def _compile_exists(self, expr: ast.Exists) -> CompiledExpr:
        runner = self._compile_subquery(expr.subquery)
        negated = expr.negated

        def exists(row, ctx):
            result = bool(runner(ctx))
            return not result if negated else result

        return CompiledExpr(exists, BOOLEAN, expr)

    def _compile_scalarsubquery(self, expr: ast.ScalarSubquery) -> CompiledExpr:
        runner = self._compile_subquery(expr.subquery)

        def scalar(row, ctx):
            rows = runner(ctx)
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise ExecutionError("scalar subquery must return one column")
            return rows[0][0]

        return CompiledExpr(scalar, None, expr)

    def _compile_subquery(self, select: ast.Select) -> Callable[[EvalContext], list[tuple]]:
        if self.subquery_compiler is not None:
            return self.subquery_compiler(select)

        def runtime(ctx: EvalContext) -> list[tuple]:
            return ctx.run_subquery(select)

        return runtime

    def _compile_like(self, expr: ast.Like) -> CompiledExpr:
        operand = self.compile(expr.operand).fn
        pattern = self.compile(expr.pattern).fn
        negated = expr.negated
        static: re.Pattern | None = None
        if isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str):
            static = like_to_regex(expr.pattern.value)

        def like(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            if static is not None:
                regex = static
            else:
                pat = pattern(row, ctx)
                if pat is None:
                    return None
                regex = like_to_regex(str(pat))
            matched = regex.match(str(value)) is not None
            return not matched if negated else matched

        return CompiledExpr(like, BOOLEAN, expr)

    def _compile_between(self, expr: ast.Between) -> CompiledExpr:
        """``x BETWEEN lo AND hi`` is ``lo <= x AND x <= hi`` with the
        comparison ``<=`` uses; ``x`` is evaluated once, and ``hi`` only
        when the low test is not already FALSE."""
        operand = self.compile(expr.operand).fn
        low = self.compile(expr.low).fn
        high = self.compile(expr.high).fn
        negated = expr.negated
        le = operator.le

        def between(row, ctx):
            value = operand(row, ctx)
            lo = low(row, ctx)
            above = None if value is None or lo is None else _compare_values(le, lo, value, expr)
            if above is False:
                return negated
            hi = high(row, ctx)
            below = None if value is None or hi is None else _compare_values(le, value, hi, expr)
            if below is False:
                return negated
            if above is None or below is None:
                return None
            return not negated

        return CompiledExpr(between, BOOLEAN, expr)

    def _compile_case(self, expr: ast.Case) -> CompiledExpr:
        """Searched and simple ``CASE``; ``CASE x WHEN v`` matches when
        ``x = v`` is true (so a NULL on either side never matches)."""
        operand = self.compile(expr.operand).fn if expr.operand is not None else None
        eq = operator.eq
        compiled = [(self.compile(w.condition), self.compile(w.result)) for w in expr.whens]
        whens = [(condition.fn, result.fn) for condition, result in compiled]
        else_result = (
            self.compile(expr.else_result).fn if expr.else_result is not None else None
        )
        result_type: SqlType | None = None
        for _, result in compiled:
            if result.type is not None:
                result_type = result.type
                break

        def case(row, ctx):
            if operand is not None:
                needle = operand(row, ctx)
                if needle is not None:
                    for condition, result in whens:
                        value = condition(row, ctx)
                        if value is not None and _compare_values(eq, needle, value, expr):
                            return result(row, ctx)
            else:
                for condition, result in whens:
                    if _as_bool(condition(row, ctx)) is True:
                        return result(row, ctx)
            return None if else_result is None else else_result(row, ctx)

        return CompiledExpr(case, result_type, expr)

    # -- casts and calls -----------------------------------------------------------------

    def _compile_cast(self, expr: ast.Cast) -> CompiledExpr:
        return self._cast(expr, expr.operand, expr.target)

    def _cast(
        self, expr: ast.Expression, operand_expr: ast.Expression, target: SqlType
    ) -> CompiledExpr:
        """``CAST(operand_expr AS target)``, compiled as node ``expr``."""
        operand = self.compile(operand_expr)
        if operand.type is not None and not explicitly_castable(operand.type, target):
            raise PlanError(f"cannot cast {operand.type} to {target}")

        def cast(row, ctx):
            value = operand.fn(row, ctx)
            source = operand.type if operand.type is not None else (
                infer_type(value) if value is not None else target
            )
            return cast_value(value, source, target)

        return CompiledExpr(cast, target, expr)

    def _compile_functioncall(self, expr: ast.FunctionCall) -> CompiledExpr:
        name = expr.name.upper()
        if name in AGGREGATE_NAMES:
            raise PlanError(
                f"aggregate function {expr.name} is not allowed in this context"
            )
        if self.table_function_names is not None and self.table_function_names(expr.name):
            from repro.errors import NestedTableFunctionError

            raise NestedTableFunctionError(
                f"table function {expr.name!r} cannot be used as a scalar "
                "expression; nesting of functions is not supported — reference "
                "it in the FROM clause instead"
            )
        if name in CAST_FUNCTION_NAMES:
            # DB2-style cast functions: BIGINT(x), INTEGER(x), VARCHAR(x)...
            if len(expr.args) != 1:
                raise PlanError(f"cast function {expr.name} takes one argument")
            return self._cast(expr, expr.args[0], parse_type(name))
        if name not in _BUILTINS:
            raise PlanError(f"unknown scalar function {expr.name!r}")
        fn, (min_args, max_args), result_type = _BUILTINS[name]
        if not (min_args <= len(expr.args) <= max_args):
            raise PlanError(
                f"function {expr.name} expects {min_args}..{max_args} arguments, "
                f"got {len(expr.args)}"
            )
        args = [self.compile(a).fn for a in expr.args]

        def call(row, ctx):
            return fn(*[a(row, ctx) for a in args])

        return CompiledExpr(call, result_type, expr)


class MemoCompiler(ExpressionCompiler):
    """An :class:`ExpressionCompiler` that compiles each node once.

    It keeps every form it compiled, keyed by node identity, and hands
    the same form back when asked again.  Planning asks for a node's row
    form more than once (the operator's own, then the types and
    row-at-a-time fallbacks of its chunk form), and a second compile
    would also plan any subquery below the node again.  A stored form
    keeps its node alive through ``source``, so no other node can take
    its id while the compiler lives.  Paths that compile each node once
    anyway, like an INSERT's ``VALUES`` markers, use the plain compiler
    and skip the bookkeeping.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forms: dict[int, CompiledExpr] = {}

    def compile(self, expr: ast.Expression) -> CompiledExpr:
        """The form this compiler built for ``expr``, compiling it once."""
        forms = self.forms
        compiled = forms.get(id(expr))
        if compiled is None or compiled.source is not expr:
            compiled = forms[id(expr)] = ExpressionCompiler.compile(self, expr)
        return compiled


# ---------------------------------------------------------------------------
# Columnar (chunk-at-a-time) compilation
# ---------------------------------------------------------------------------

#: A columnar-compiled expression: evaluates a whole column batch with
#: one Python-level call, returning one value per row of the batch.
ColumnFn = Callable[[object, EvalContext], list]

#: A columnar-compiled filter.  ``selection(ctx)`` binds one execution's
#: parameters and returns a function of a batch that gives the ascending
#: positions of the batch's rows whose predicate is TRUE: a ``range`` for
#: one contiguous run, else a list.
SelectFn = Callable[[EvalContext], Callable[[object], Sequence[int]]]

#: A selection kernel bound to one execution: ``run(batch, positions)``
#: keeps those of ``positions`` (every row of the batch when None) whose
#: row passes, in order.  It never raises.
_Run = Callable[[object, "Sequence[int] | None"], Sequence[int]]

#: ``bind(ctx)``: the kernel for this execution's bound values, or None
#: for a binding no kernel covers.
_Bind = Callable[[EvalContext], "_Run | None"]

#: Integer ladders of the exact (non-DECIMAL) numeric types; DOUBLE sits
#: above them.  Used for hash-join key compatibility checks.
_INT_LADDERS = frozenset({1, 2, 3})


class ColumnarCompiler:
    """Compiles AST expressions into closures over *column batches*.

    The row compiler produces one closure call *per row per node*; for
    hot predicates and projections that dispatch dominates wall-clock
    time.  This compiler emits closures that evaluate an entire chunk
    per Python-level call, falling back to per-row evaluation of the
    row-compiled closure for node types without a vectorized form.

    A column batch (a storage :class:`~repro.fdbs.storage.ColumnChunk`
    or an executor ``ColumnBatch``) exposes ``column(index)`` returning
    the decomposed values of one column, plus ``len``/iteration over row
    tuples for the fallback.  A layout column is read as the batch's
    cached column, so repeated predicates over sealed chunks touch no
    tuples at all; every other vectorized node operates on its
    children's value lists.

    Fast paths are *guarded*: if a vectorized evaluation raises, the
    chunk is transparently re-evaluated row-at-a-time, so error
    behaviour (e.g. ``AND`` short-circuiting past a division by zero)
    matches row mode exactly.

    Filters compile through :meth:`select` instead: the surviving row
    positions in one pass where the predicate has selection kernels,
    the guarded mask's TRUE positions otherwise.

    Row forms and types come from ``row_compiler.compile``; a
    :class:`MemoCompiler` that already compiled the expression hands
    them back without compiling anything again.
    """

    def __init__(self, row_compiler: "ExpressionCompiler"):
        self.row = row_compiler

    def compile(self, expr: ast.Expression) -> ColumnFn:
        """Compile one expression into a guarded chunk closure."""
        per_row = self._per_row(expr)  # raises on invalid expressions
        fast, _ = self._compile(expr)
        if fast is None:
            return per_row

        def guarded(chunk: list, ctx: EvalContext) -> list:
            try:
                return fast(chunk, ctx)
            except Exception:
                # Re-run row-at-a-time: reproduces row-mode results for
                # short-circuit cases, or re-raises the row-mode error.
                return per_row(chunk, ctx)

        return guarded

    def select(self, expr: ast.Expression, ordered: bool) -> SelectFn:
        """Compile a WHERE, HAVING or fold filter into a selection (see
        :data:`SelectFn`), which binds the scalars once per execution.

        When every node of the predicate has a selection kernel (see
        :meth:`_selector`), one pass over the batch yields the positions
        whose predicate is TRUE; an ``AND`` runs its right side over its
        left side's survivors only.  With ``ordered``, range and
        equality kernels bisect a :class:`ColumnChunk` column that
        :meth:`ColumnChunk.ordered` reports ordered, and return the run
        as a ``range``.  Any other predicate keeps the TRUE positions of
        the guarded mask of :meth:`compile`, so values and errors match
        row mode.  A binding the kernels do not cover (a Decimal or bool
        bound, an unbound ``?``) keeps the TRUE positions of the row
        form, already compiled, run row at a time: the guarded mask's own
        fallback, so such a predicate compiles no mask at all.
        """
        kernel = self.kernel(expr, ordered)
        if kernel is None:
            mask = self.compile(expr)
            return lambda ctx: lambda batch: _true_positions(mask(batch, ctx))
        row_fn = self.row.compile(expr).fn

        def select(ctx: EvalContext) -> Callable[[object], Sequence[int]]:
            run = kernel(ctx)
            if run is None:
                return lambda batch: _true_positions([row_fn(row, ctx) for row in batch])
            return lambda batch: run(batch, None)

        return select

    def kernel(self, expr: ast.Expression, ordered: bool) -> _Bind | None:
        """The kernel binder of a filter whose every node has a selection
        kernel (see :meth:`_selector`), else None.  ``kernel(ctx)`` is
        this execution's kernel, or None for a binding no kernel covers,
        an unbound ``?`` included; it never raises."""
        bind = self._selector(expr, ordered)
        if bind is None:
            return None

        def kernel(ctx: EvalContext) -> _Run | None:
            try:
                return bind(ctx)
            except IndexError:  # an unbound ``?``
                return None

        return kernel

    # -- dispatch ---------------------------------------------------------------

    def _compile(self, expr: ast.Expression) -> tuple[ColumnFn | None, bool]:
        """(fast chunk closure or None, closure is known boolean/NULL)."""
        method = getattr(self, "_batch_" + type(expr).__name__.lower(), None)
        if method is None:
            return None, False
        return method(expr)

    def _value(self, expr: ast.Expression) -> ColumnFn:
        """A chunk closure for a value column, vectorized or fallback."""
        fast, _ = self._compile(expr)
        if fast is not None:
            return fast
        return self._per_row(expr)

    def _per_row(self, expr: ast.Expression) -> ColumnFn:
        """The row-compiled closure applied to each row of a chunk."""
        row_fn = self.row.compile(expr).fn
        return lambda chunk, ctx: [row_fn(row, ctx) for row in chunk]

    def _type_of(self, expr: ast.Expression) -> SqlType | None:
        try:
            return self.row.compile(expr).type
        except (PlanError, TypeError_):  # pragma: no cover - defensive
            return None

    def _scalar(self, expr: ast.Expression) -> Callable[[EvalContext], object] | None:
        """A getter for an operand that is one value per execution: a
        literal (a constant) or a ``?`` marker (``ctx.params[i]``).
        None for anything that varies by row.

        An unbound ``?`` raises IndexError here; the guard then re-runs
        the chunk row-at-a-time, which raises the row-mode error.
        """
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda ctx: value
        if isinstance(expr, ast.Parameter):
            index = expr.index
            return lambda ctx: ctx.params[index]
        return None

    # -- leaves -----------------------------------------------------------------

    def _batch_literal(self, expr: ast.Literal) -> tuple[ColumnFn | None, bool]:
        value = expr.value
        return (
            lambda chunk, ctx: [value] * len(chunk),
            isinstance(value, bool) or value is None,
        )

    def _batch_columnref(self, expr: ast.ColumnRef) -> tuple[ColumnFn | None, bool]:
        """A layout column (the row form's ``("row", i)`` leaf) or a
        parameter of the enclosing function, one value per chunk."""
        compiled = self.row.compile(expr)
        if compiled.leaf is None:
            fetch = compiled.fn
            return lambda chunk, ctx: [fetch((), ctx)] * len(chunk), False
        column_type = compiled.type
        boolean = column_type is not None and column_type.name == "BOOLEAN"
        index = compiled.leaf[1]
        return lambda chunk, ctx: chunk.column(index), boolean

    def _batch_parameter(self, expr: ast.Parameter) -> tuple[ColumnFn | None, bool]:
        index = expr.index

        def fetch(chunk: list, ctx: EvalContext) -> list:
            if index >= len(ctx.params):
                raise ExecutionError(f"statement parameter ?{index + 1} was not bound")
            return [ctx.params[index]] * len(chunk)

        return fetch, False

    # -- operators --------------------------------------------------------------

    def _batch_binaryop(self, expr: ast.BinaryOp) -> tuple[ColumnFn | None, bool]:
        op = expr.op.upper()
        if op in ("AND", "OR"):
            return self._batch_logical(expr, op)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return self._batch_comparison(expr, op)
        if op == "||":
            left = self._value(expr.left)
            right = self._value(expr.right)
            return (
                lambda chunk, ctx: [
                    None if a is None or b is None else str(a) + str(b)
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ],
                False,
            )
        if op in ("+", "-", "*", "/"):
            if not (
                _plain_numeric(self._type_of(expr.left))
                and _plain_numeric(self._type_of(expr.right))
            ):
                return None, False
            left = self._value(expr.left)
            right = self._value(expr.right)
            if op == "+":
                fn = lambda chunk, ctx: [
                    None if a is None or b is None else a + b
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ]
            elif op == "-":
                fn = lambda chunk, ctx: [
                    None if a is None or b is None else a - b
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ]
            elif op == "*":
                fn = lambda chunk, ctx: [
                    None if a is None or b is None else a * b
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ]
            else:
                fn = lambda chunk, ctx: [
                    None if a is None or b is None else _sql_div(a, b)
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ]
            return fn, False
        return None, False

    def _batch_logical(self, expr: ast.BinaryOp, op: str) -> tuple[ColumnFn | None, bool]:
        left, left_bool = self._compile(expr.left)
        right, right_bool = self._compile(expr.right)
        # Only fuse children that provably yield three-valued booleans;
        # anything else must go through _as_bool's row-mode type error.
        if left is None or right is None or not (left_bool and right_bool):
            return None, False
        if op == "AND":
            return (
                lambda chunk, ctx: [
                    False
                    if (a is False or b is False)
                    else (None if (a is None or b is None) else True)
                    for a, b in zip(left(chunk, ctx), right(chunk, ctx))
                ],
                True,
            )
        return (
            lambda chunk, ctx: [
                True
                if (a is True or b is True)
                else (None if (a is None or b is None) else False)
                for a, b in zip(left(chunk, ctx), right(chunk, ctx))
            ],
            True,
        )

    def _batch_comparison(self, expr: ast.BinaryOp, op: str) -> tuple[ColumnFn | None, bool]:
        for column, other, column_op in (
            (expr.left, expr.right, op),
            (expr.right, expr.left, _FLIPPED[op]),
        ):
            scalar = self._scalar(other)
            if scalar is not None:
                fast = self._compare_scalar(expr, column_op, column, scalar)
                if fast is not None:
                    return fast, True
        left_type = self._type_of(expr.left)
        right_type = self._type_of(expr.right)
        if _plain_numeric(left_type) and _plain_numeric(right_type):
            key = None
        elif (
            left_type is not None
            and right_type is not None
            and is_character(left_type)
            and is_character(right_type)
        ):
            key = value_key(left_type)  # strings compare by their key
        else:
            return None, False
        left = self._value(expr.left)
        right = self._value(expr.right)
        kernel = _PAIR_KERNELS[op]
        if key is None:
            fn = lambda chunk, ctx: kernel(zip(left(chunk, ctx), right(chunk, ctx)))
        else:
            fn = lambda chunk, ctx: kernel(
                zip(map(key, left(chunk, ctx)), map(key, right(chunk, ctx)))
            )
        return fn, True

    def _compare_scalar(
        self, expr: ast.BinaryOp, op: str, column: ast.Expression, scalar
    ) -> ColumnFn | None:
        """``column <op> scalar`` with the scalar read once per chunk.

        The kernel runs when the bound value has the column's raw Python
        semantics: a plain int/float against a plain numeric column, or
        a string against a character column (both sides by their key, as
        :func:`_align` compares them).  A NULL yields an all-NULL
        column; any other value runs this node row-at-a-time.  None when
        the column's type has no kernel at all.
        """
        column_type = self._type_of(column)
        if _plain_numeric(column_type):
            key = None
        elif column_type is not None and is_character(column_type):
            key = value_key(column_type)
        else:
            return None
        values_of = self._value(column)
        kernel = _COMPARE_KERNELS[op]
        per_row = self._per_row(expr)

        def compare(chunk, ctx):
            value = scalar(ctx)
            if value is None:
                return [None] * len(values_of(chunk, ctx))
            if key is not None and isinstance(value, str):
                return kernel(map(key, values_of(chunk, ctx)), key(value))
            if key is None and _plain_value(value):
                return kernel(values_of(chunk, ctx), value)
            return per_row(chunk, ctx)

        return compare

    def _batch_unaryop(self, expr: ast.UnaryOp) -> tuple[ColumnFn | None, bool]:
        if expr.op.upper() == "NOT":
            operand, operand_bool = self._compile(expr.operand)
            if operand is None or not operand_bool:
                return None, False
            return (
                lambda chunk, ctx: [
                    None if v is None else not v for v in operand(chunk, ctx)
                ],
                True,
            )
        if not _plain_numeric(self._type_of(expr.operand)):
            return None, False
        operand = self._value(expr.operand)
        return (
            lambda chunk, ctx: [None if v is None else -v for v in operand(chunk, ctx)],
            False,
        )

    # -- predicates -------------------------------------------------------------

    def _batch_isnull(self, expr: ast.IsNull) -> tuple[ColumnFn | None, bool]:
        operand = self._value(expr.operand)
        if expr.negated:
            return (
                lambda chunk, ctx: [v is not None for v in operand(chunk, ctx)],
                True,
            )
        return lambda chunk, ctx: [v is None for v in operand(chunk, ctx)], True

    def _batch_between(self, expr: ast.Between) -> tuple[ColumnFn | None, bool]:
        """``operand [NOT] BETWEEN scalar AND scalar`` over a plain
        numeric operand, bounds read once per chunk (gated like
        :meth:`_compare_scalar`; a NULL bound runs row-at-a-time)."""
        low, high = self._scalar(expr.low), self._scalar(expr.high)
        if low is None or high is None or not _plain_numeric(self._type_of(expr.operand)):
            return None, False
        values_of = self._value(expr.operand)
        per_row = self._per_row(expr)
        negated = expr.negated

        def between(chunk, ctx):
            lo, hi = low(ctx), high(ctx)
            if not (_plain_value(lo) and _plain_value(hi)):
                return per_row(chunk, ctx)
            values = values_of(chunk, ctx)
            if negated:
                return [None if v is None else not (lo <= v <= hi) for v in values]
            return [None if v is None else lo <= v <= hi for v in values]

        return between, True

    def _batch_like(self, expr: ast.Like) -> tuple[ColumnFn | None, bool]:
        if not (
            isinstance(expr.pattern, ast.Literal) and isinstance(expr.pattern.value, str)
        ):
            return None, False
        regex = like_to_regex(expr.pattern.value)
        match = regex.match
        operand = self._value(expr.operand)
        if expr.negated:
            fn = lambda chunk, ctx: [
                None if v is None else match(str(v)) is None
                for v in operand(chunk, ctx)
            ]
        else:
            fn = lambda chunk, ctx: [
                None if v is None else match(str(v)) is not None
                for v in operand(chunk, ctx)
            ]
        return fn, True

    def _batch_inlist(self, expr: ast.InList) -> tuple[ColumnFn | None, bool]:
        """``operand [NOT] IN (scalar, ...)`` as hashed membership, which
        is row mode's ``=`` for plain numbers against a plain numeric
        operand and for strings against a character one: members go
        through the join key (a NaN member matches nothing) and a
        character operand through its key.  Any other binding runs
        row-at-a-time."""
        scalars = [self._scalar(item) for item in expr.items]
        operand_type = self._type_of(expr.operand)
        if None in scalars or not (
            _plain_numeric(operand_type)
            or (operand_type is not None and is_character(operand_type))
        ):
            return None, False
        character = is_character(operand_type)
        member_key = join_key(operand_type)
        # A NaN operand misses members that hold no NaN: only strings
        # need their key on the operand side.
        operand_key = member_key if character else None
        plain = (lambda v: isinstance(v, str)) if character else _plain_value
        operand = self._value(expr.operand)
        per_row = self._per_row(expr)
        negated = expr.negated

        def in_list(chunk, ctx):
            values = [scalar(ctx) for scalar in scalars]
            has_null = None in values
            members = [v for v in values if v is not None]
            if not all(map(plain, members)):
                return per_row(chunk, ctx)
            column = operand(chunk, ctx)
            if member_key is not None:
                members = map(member_key, members)
            if operand_key is not None:
                column = map(operand_key, column)
            members = frozenset(members)
            miss = None if has_null else False
            hit, miss = (False, None if has_null else True) if negated else (True, miss)
            return [None if v is None else (hit if v in members else miss) for v in column]

        return in_list, True

    # -- calls ------------------------------------------------------------------

    def _batch_functioncall(self, expr: ast.FunctionCall) -> tuple[ColumnFn | None, bool]:
        name = expr.name.upper()
        if name not in _BUILTINS:
            return None, False
        fn, (min_args, max_args), _ = _BUILTINS[name]
        if not (min_args <= len(expr.args) <= max_args):
            return None, False
        args = [self._value(a) for a in expr.args]
        if len(args) == 1:
            single = args[0]
            return lambda chunk, ctx: [fn(v) for v in single(chunk, ctx)], False
        return (
            lambda chunk, ctx: [
                fn(*vals) for vals in zip(*[arg(chunk, ctx) for arg in args])
            ],
            False,
        )

    # -- selection kernels -------------------------------------------------------

    def _selector(self, expr: ast.Expression, ordered: bool) -> _Bind | None:
        """The selection kernel binder of a filter node, or None when the
        node or one of its conjuncts has no kernel.

        Kernels exist for ``column <op> scalar`` over a plain numeric
        column or a character one (by its value key), ``[NOT] BETWEEN``
        and ``[NOT] IN`` over scalars, ``IS [NOT] NULL`` and ``AND`` of
        those.  The column is one of the batch's layout columns and the
        scalars are literals or ``?`` markers, so a bound kernel only
        reads values and compares them and cannot raise.
        """
        method = getattr(self, "_select_" + type(expr).__name__.lower(), None)
        return None if method is None else method(expr, ordered)

    def _layout_column(self, expr: ast.Expression) -> tuple[int, SqlType | None] | None:
        """``(position, type)`` of a column of the batch's layout."""
        if not isinstance(expr, ast.ColumnRef):
            return None
        compiled = self.row.compile(expr)
        if compiled.leaf is None or compiled.leaf[0] != "row":
            return None
        return compiled.leaf[1], compiled.type

    def _select_binaryop(self, expr: ast.BinaryOp, ordered: bool) -> _Bind | None:
        op = expr.op.upper()
        if op == "AND":
            left = self._selector(expr.left, ordered)
            right = self._selector(expr.right, ordered)
            if left is None or right is None:
                return None

            def bind_and(ctx):
                run_left, run_right = left(ctx), right(ctx)
                if run_left is None or run_right is None:
                    return None

                def run(batch, positions):
                    survivors = run_left(batch, positions)
                    return run_right(batch, survivors) if survivors else survivors

                return run

            return bind_and
        if op not in _FLIPPED:
            return None
        for column, other, column_op in (
            (expr.left, expr.right, op),
            (expr.right, expr.left, _FLIPPED[op]),
        ):
            scalar = self._scalar(other)
            found = self._layout_column(column)
            if scalar is not None and found is not None:
                search = _ORDERED_RUNS.get(column_op) if ordered else None
                return _bind_compare(*found, scalar, _SELECT_KERNELS[column_op], search)
        return None

    def _select_between(self, expr: ast.Between, ordered: bool) -> _Bind | None:
        """Bounds gated like ``column <op> scalar`` on a plain numeric
        column; a NULL bound runs the mask path."""
        found = self._layout_column(expr.operand)
        low, high = self._scalar(expr.low), self._scalar(expr.high)
        if found is None or low is None or high is None or not _plain_numeric(found[1]):
            return None
        index = found[0]
        scan = _not_between if expr.negated else _between
        search = _between_run if ordered and not expr.negated else None

        def bind_between(ctx):
            lo, hi = low(ctx), high(ctx)
            if not (_plain_value(lo) and _plain_value(hi)):
                return None
            return _column_kernel(
                index,
                lambda values, positions: scan(values, positions, lo, hi),
                # A NaN bound never bisects.
                None
                if search is None or lo != lo or hi != hi
                else lambda values, start, stop: search(values, start, stop, lo, hi),
            )

        return bind_between

    def _select_inlist(self, expr: ast.InList, ordered: bool) -> _Bind | None:
        """Members gated like :meth:`_batch_inlist`'s hashed membership."""
        found = self._layout_column(expr.operand)
        scalars = [self._scalar(item) for item in expr.items]
        if found is None or None in scalars:
            return None
        index, operand_type = found
        character = operand_type is not None and is_character(operand_type)
        if not (character or _plain_numeric(operand_type)):
            return None
        member_key = join_key(operand_type)
        plain = (lambda v: isinstance(v, str)) if character else _plain_value
        scan = _not_in if expr.negated else _in

        def bind_in(ctx):
            values = [scalar(ctx) for scalar in scalars]
            members = [v for v in values if v is not None]
            if not all(map(plain, members)):
                return None
            if scan is _not_in and len(members) < len(values):
                return _select_nothing  # NOT IN over a NULL member is never TRUE
            if member_key is not None:
                members = map(member_key, members)
            members = frozenset(members)
            if character:
                return _column_kernel(
                    index,
                    lambda column, positions: scan(
                        list(map(member_key, column)), positions, members
                    ),
                )
            return _column_kernel(
                index, lambda column, positions: scan(column, positions, members)
            )

        return bind_in

    def _select_isnull(self, expr: ast.IsNull, ordered: bool) -> _Bind | None:
        found = self._layout_column(expr.operand)
        if found is None:
            return None
        run = _column_kernel(found[0], _is_not_null if expr.negated else _is_null)
        return lambda ctx: run


def _true_positions(values: list) -> list[int]:
    """The positions of a mask whose value is TRUE."""
    return [index for index, keep in enumerate(values) if keep is True]


def _select_nothing(batch, positions: Sequence[int] | None) -> list[int]:
    """The kernel of a predicate no row satisfies (a NULL bound)."""
    return []


def _column_kernel(index: int, scan: Callable, search: Callable | None = None) -> _Run:
    """The kernel ``scan(values, positions)`` over the batch's column
    ``index``.  With ``search``, a :class:`ColumnChunk` column that is
    ordered is bisected instead, ``search(values, start, stop)``, when
    the positions are the whole chunk or one run of it."""

    def run(batch, positions):
        values = batch.column(index)
        if search is not None and type(batch) is ColumnChunk and batch.ordered(index):
            if positions is None:
                return search(values, 0, len(values))
            if type(positions) is range:
                return search(values, positions.start, positions.stop)
        return scan(values, range(len(values)) if positions is None else positions)

    return run


def _bind_compare(
    index: int,
    column_type: SqlType | None,
    scalar: Callable[[EvalContext], object],
    scan: Callable,
    search: Callable | None,
) -> _Bind | None:
    """The binder of ``column <op> scalar`` (None when the column's type
    has no kernel): a plain int/float against a plain numeric column, or
    a string against a character column with both sides by the column's
    value key, as :func:`_align` compares them.  A NULL selects nothing;
    any other value runs the mask path."""
    if _plain_numeric(column_type):
        key = None
    elif column_type is not None and is_character(column_type):
        key = value_key(column_type)
    else:
        return None

    def bind_compare(ctx):
        value = scalar(ctx)
        if value is None:
            return _select_nothing
        if key is not None:
            if not isinstance(value, str):
                return None
            value = key(value)
            return _column_kernel(
                index,
                lambda values, positions: scan(list(map(key, values)), positions, value),
            )
        if not _plain_value(value):
            return None
        return _column_kernel(
            index,
            lambda values, positions: scan(values, positions, value),
            # A NaN bound never bisects.
            None
            if search is None or value != value
            else lambda values, start, stop: search(values, start, stop, value),
        )

    return bind_compare


#: ``kernel(values, positions, b)``: the ``positions`` whose value ``v``
#: has ``v <op> b``, in order; a NULL never passes.
_SELECT_KERNELS = {
    "=": lambda values, positions, b: [
        i for i in positions if (v := values[i]) is not None and v == b
    ],
    "<>": lambda values, positions, b: [
        i for i in positions if (v := values[i]) is not None and v != b
    ],
    "<": lambda values, positions, b: [
        i for i in positions if (v := values[i]) is not None and v < b
    ],
    "<=": lambda values, positions, b: [
        i for i in positions if (v := values[i]) is not None and v <= b
    ],
    ">": lambda values, positions, b: [
        i for i in positions if (v := values[i]) is not None and v > b
    ],
    ">=": lambda values, positions, b: [
        i for i in positions if (v := values[i]) is not None and v >= b
    ],
}

#: ``search(values, start, stop, b)``: the run of ``range(start, stop)``
#: whose value ``v`` has ``v <op> b``, over non-decreasing values with no
#: NULL and no NaN and a bound that is not NaN.  ``<>`` holds on two
#: runs, so it has no search.
_ORDERED_RUNS = {
    "=": lambda values, start, stop, b: range(
        bisect_left(values, b, start, stop), bisect_right(values, b, start, stop)
    ),
    "<": lambda values, start, stop, b: range(start, bisect_left(values, b, start, stop)),
    "<=": lambda values, start, stop, b: range(start, bisect_right(values, b, start, stop)),
    ">": lambda values, start, stop, b: range(bisect_right(values, b, start, stop), stop),
    ">=": lambda values, start, stop, b: range(bisect_left(values, b, start, stop), stop),
}


def _between_run(values: list, start: int, stop: int, lo: object, hi: object) -> range:
    """The run of ``range(start, stop)`` whose value lies in
    ``[lo, hi]`` (empty when ``lo > hi``), as :data:`_ORDERED_RUNS`."""
    first = bisect_left(values, lo, start, stop)
    return range(first, bisect_right(values, hi, first, stop))


def _between(values: list, positions: Sequence[int], lo: object, hi: object) -> list[int]:
    return [i for i in positions if (v := values[i]) is not None and lo <= v <= hi]


def _not_between(values: list, positions: Sequence[int], lo: object, hi: object) -> list[int]:
    return [i for i in positions if (v := values[i]) is not None and not lo <= v <= hi]


def _in(values: list, positions: Sequence[int], members: frozenset) -> list[int]:
    return [i for i in positions if (v := values[i]) is not None and v in members]


def _not_in(values: list, positions: Sequence[int], members: frozenset) -> list[int]:
    return [i for i in positions if (v := values[i]) is not None and v not in members]


def _is_null(values: list, positions: Sequence[int]) -> list[int]:
    return [i for i in positions if values[i] is None]


def _is_not_null(values: list, positions: Sequence[int]) -> list[int]:
    return [i for i in positions if values[i] is not None]


def _plain_numeric(t: SqlType | None) -> bool:
    """Numeric and safe for raw Python arithmetic/comparison (no
    DECIMAL: row mode aligns mixed DECIMAL operands via ``Decimal(str(x))``,
    which raw operators would not reproduce)."""
    return t is not None and is_numeric(t) and t.name != "DECIMAL"


def _plain_value(value: object) -> bool:
    """The value-level twin of :func:`_plain_numeric`: a plain int or
    float (not a bool, not a Decimal), which compares against a plain
    numeric column under raw Python operators exactly as :func:`_align`
    would compare it."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: ``column <op> scalar`` becomes ``scalar <flipped op> column``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

#: ``kernel(values, scalar)``: one comparison per value, NULL stays NULL.
_COMPARE_KERNELS = {
    "=": lambda values, b: [None if a is None else a == b for a in values],
    "<>": lambda values, b: [None if a is None else a != b for a in values],
    "<": lambda values, b: [None if a is None else a < b for a in values],
    "<=": lambda values, b: [None if a is None else a <= b for a in values],
    ">": lambda values, b: [None if a is None else a > b for a in values],
    ">=": lambda values, b: [None if a is None else a >= b for a in values],
}

#: ``kernel(pairs)``: one comparison per ``(a, b)`` pair of two columns.
_PAIR_KERNELS = {
    "=": lambda pairs: [None if a is None or b is None else a == b for a, b in pairs],
    "<>": lambda pairs: [None if a is None or b is None else a != b for a, b in pairs],
    "<": lambda pairs: [None if a is None or b is None else a < b for a, b in pairs],
    "<=": lambda pairs: [None if a is None or b is None else a <= b for a, b in pairs],
    ">": lambda pairs: [None if a is None or b is None else a > b for a, b in pairs],
    ">=": lambda pairs: [None if a is None or b is None else a >= b for a, b in pairs],
}


def _sql_div(a, b):
    """SQL division: errors on zero, truncates integer quotients toward
    zero (mirrors the row compiler's arithmetic closure)."""
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    return a / b


def hash_join_compatible(a: SqlType | None, b: SqlType | None) -> bool:
    """True when two equi-join key types can be matched through a plain
    Python hash table with the same semantics as the row-mode ``=``
    comparison (see :func:`_align`).

    CHAR padding and NaN are handled by the join's key
    (:func:`~repro.fdbs.types.join_key`); DECIMAL keys only pair with
    exact (integer) types because row mode aligns ``DECIMAL = DOUBLE``
    through ``Decimal(str(x))``, which changes which values compare
    equal.
    """
    if a is None or b is None:
        return False
    if is_character(a) and is_character(b):
        return True
    if a.name == "BOOLEAN" and b.name == "BOOLEAN":
        return True
    if is_numeric(a) and is_numeric(b):
        a_decimal = a.name == "DECIMAL"
        b_decimal = b.name == "DECIMAL"
        if a_decimal and b_decimal:
            return True
        if a_decimal:
            return b.ladder in _INT_LADDERS
        if b_decimal:
            return a.ladder in _INT_LADDERS
        return True
    return False


def order_join_compatible(a: SqlType | None, b: SqlType | None) -> bool:
    """True when two equi-join key types can additionally be *ordered*
    for a sort-merge join with the row-mode comparison semantics.

    A superset check on :func:`hash_join_compatible`: the merge join
    sorts and bisects join keys, so beyond hashability the
    keys must compare with ``<`` exactly as ``=`` aligns them.  BOOLEAN
    keys are excluded — they hash fine but carry no useful sort order,
    and keeping them on the hash path avoids pricing a two-value sort.
    """
    if not hash_join_compatible(a, b):
        return False
    if a is not None and a.name == "BOOLEAN":
        return False
    return True


def hash_probe_exact(value: object, column_type: SqlType) -> bool:
    """True when a hash-index lookup of ``value`` on a column of
    ``column_type`` finds exactly the rows ``col = value`` keeps.

    The index buckets by the column's value key (see
    :class:`~repro.fdbs.storage.HashIndex`).  On a character column a
    ``str`` probes: ``=`` compares two strings by
    :func:`~repro.fdbs.types.char_key`.  On a numeric column ints,
    floats, or ints and Decimals for DECIMAL probe: Python's exact
    ``==`` and ``hash`` are :func:`_align`'s, except that it compares a
    Decimal with a float through ``Decimal(str(x))``, and a NaN, which
    the key buckets with every other NaN, never equals anything.  Every
    other value falls back to the conjunct, which casts or raises as
    ``=`` does."""
    kind = type(value)
    if is_character(column_type):
        return kind is str
    if kind is int:
        return True
    if kind is float:
        return column_type.name != "DECIMAL" and value == value
    if kind is Decimal:
        return column_type.name != "DOUBLE" and not value.is_nan()
    return False


# ---------------------------------------------------------------------------
# Runtime helpers
# ---------------------------------------------------------------------------


def _as_bool(value: object) -> bool | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise ExecutionError(f"expected a boolean condition, got {value!r}")


def _check_number(value: object, node: ast.Expression) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, Decimal)):
        raise ExecutionError(
            f"expected a numeric value from {node.render()}, got {value!r}"
        )


#: The six comparison operators, picked once when a comparison compiles.
_COMPARE_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare_values(compare: Callable, a: object, b: object, node: ast.Expression) -> bool:
    """``compare`` two non-NULL operands with SQL comparison semantics.

    Operands of one exact type ``int`` or ``float`` compare directly and
    two ``str`` compare by their :func:`~repro.fdbs.types.char_key`,
    which is what :func:`_align` hands back for them; every other pair
    goes through :func:`_align`.
    """
    kind = type(a)
    if kind is type(b):
        if kind is int or kind is float:
            return compare(a, b)
        if kind is str:
            return compare(char_key(a), char_key(b))
    a, b = _align(a, b, node)
    return compare(a, b)


def _comparison(
    node: ast.Expression, op: str, left: CompiledExpr, right: CompiledExpr
) -> EvalFn:
    """The row closure for ``left <op> right``: :func:`_compare_values`
    inlined, with the operator function chosen here, once.

    When one side is a column and the other a literal or ``?`` (see
    :attr:`CompiledExpr.leaf`), the closure reads ``row[i]`` and
    the constant or ``ctx.params[j]`` itself instead of calling the leaf
    closures.  A scalar on the left compares through the flipped
    operator on the fast paths and in the original order through
    :func:`_align`, so values and error messages are unchanged.
    """
    compare = _COMPARE_OPS[op]
    kinds = (left.leaf and left.leaf[0], right.leaf and right.leaf[0])
    if kinds in (("row", "const"), ("row", "param")):
        index, (scalar, value), fast, column_first = left.leaf[1], right.leaf, compare, True
    elif kinds in (("const", "row"), ("param", "row")):
        index, (scalar, value) = right.leaf[1], left.leaf
        fast, column_first = _COMPARE_OPS[_FLIPPED[op]], False
    else:
        left_fn, right_fn = left.fn, right.fn

        def compare_general(row, ctx):
            a = left_fn(row, ctx)
            b = right_fn(row, ctx)
            if a is None or b is None:
                return None
            return _compare_values(compare, a, b, node)

        return compare_general

    param = value if scalar == "param" else None

    def compare_column(row, ctx):
        c = row[index]
        if param is None:
            s = value
        else:
            params = ctx.params
            if param >= len(params):
                raise ExecutionError(f"statement parameter ?{param + 1} was not bound")
            s = params[param]
        if c is None or s is None:
            return None
        kind = type(c)
        if kind is type(s):
            if kind is int or kind is float:
                return fast(c, s)
            if kind is str:
                return fast(char_key(c), char_key(s))
        a, b = _align(c, s, node) if column_first else _align(s, c, node)
        return compare(a, b)

    return compare_column


def _align(a: object, b: object, node: ast.Expression) -> tuple[object, object]:
    """Make two comparison operands comparable or raise."""
    if isinstance(a, bool) or isinstance(b, bool):
        if isinstance(a, bool) and isinstance(b, bool):
            return a, b
        raise ExecutionError(f"cannot compare boolean with non-boolean in {node.render()}")
    numeric_a = isinstance(a, (int, float, Decimal))
    numeric_b = isinstance(b, (int, float, Decimal))
    if numeric_a and numeric_b:
        if isinstance(a, Decimal) or isinstance(b, Decimal):
            return decimal_operands(a, b)
        return a, b
    if isinstance(a, str) and isinstance(b, str):
        # Blank padding is ignored in comparisons, DB2-style.
        return char_key(a), char_key(b)
    if type(a) is type(b):
        return a, b
    raise ExecutionError(
        f"cannot compare {type(a).__name__} with {type(b).__name__} in {node.render()}"
    )


def truthy(value: object) -> bool:
    """WHERE-clause semantics: NULL and FALSE filter the row out."""
    return value is True
