"""Abstract syntax tree of the FDBS SQL dialect.

Every node knows how to render itself back to SQL text (``render()``),
which the test suite uses for parse/render round-trip properties and the
federation layer uses to ship pushed-down subqueries to remote servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from math import copysign, isfinite

from repro.fdbs.lexer import KEYWORDS
from repro.fdbs.types import SqlType


def _render_identifier(name: str) -> str:
    """Quote an identifier when needed: not a plain word, or a reserved one."""
    if (
        name
        and (name[0].isalpha() or name[0] == "_")
        and all(ch.isalnum() or ch == "_" for ch in name)
        and name.upper() not in KEYWORDS
    ):
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def _render_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _render_number(value: object) -> str:
    """``str(value)``, except where that text would not parse back to
    the value and its type: an infinite or NaN float (which would read
    as an identifier) and ``-0.0`` (a negated DECIMAL zero) become a
    CAST of their text, and a Decimal in exponent notation (which would
    read as a DOUBLE) is written out in plain notation."""
    if isinstance(value, float):
        if not isfinite(value) or (value == 0 and copysign(1.0, value) < 0):
            return f"CAST('{value!r}' AS DOUBLE)"
    elif isinstance(value, Decimal) and value.is_finite() and "E" in str(value):
        plain = format(value, "f")
        return plain if "." in plain else plain + ".0"
    return str(value)


# ===========================================================================
# Expressions
# ===========================================================================


class Expression:
    """Base class of all expression nodes."""

    def render(self) -> str:  # pragma: no cover - abstract
        """SQL text of this node."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


@dataclass
class Literal(Expression):
    """A constant: number, string, boolean or NULL."""

    value: object

    def render(self) -> str:
        """SQL text of this node."""
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return _render_string(self.value)
        return _render_number(self.value)


@dataclass
class ColumnRef(Expression):
    """A possibly-qualified name: ``Qual``, ``GQ.Qual`` or
    ``BuySuppComp.SupplierNo`` (function-parameter reference)."""

    qualifier: str | None
    name: str

    def render(self) -> str:
        """SQL text of this node."""
        if self.qualifier:
            return f"{_render_identifier(self.qualifier)}.{_render_identifier(self.name)}"
        return _render_identifier(self.name)


@dataclass
class Parameter(Expression):
    """A positional ``?`` parameter marker."""

    index: int

    def render(self) -> str:
        """SQL text of this node."""
        return "?"


@dataclass
class FunctionCall(Expression):
    """A scalar or aggregate function call.

    ``COUNT(*)`` is represented with a single :class:`Star` argument.
    Whether the call is an aggregate is decided during planning.
    """

    name: str
    args: list[Expression]
    distinct: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        inner = ", ".join(a.render() for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass
class Star(Expression):
    """``*`` or ``alias.*`` — valid in select lists and COUNT(*)."""

    qualifier: str | None = None

    def render(self) -> str:
        """SQL text of this node."""
        if self.qualifier:
            return f"{_render_identifier(self.qualifier)}.*"
        return "*"


@dataclass
class Cast(Expression):
    """``CAST(expr AS type)``."""

    operand: Expression
    target: SqlType

    def render(self) -> str:
        """SQL text of this node."""
        return f"CAST({self.operand.render()} AS {self.target.render()})"


@dataclass
class BinaryOp(Expression):
    """Binary operator: arithmetic, comparison, AND/OR, ``||``."""

    op: str
    left: Expression
    right: Expression

    def render(self) -> str:
        """SQL text of this node."""
        return f"({self.left.render()} {self.op} {self.right.render()})"


@dataclass
class UnaryOp(Expression):
    """Unary ``-`` or ``NOT``."""

    op: str
    operand: Expression

    def render(self) -> str:
        """SQL text of this node."""
        if self.op.upper() == "NOT":
            return f"(NOT {self.operand.render()})"
        return f"({self.op}{self.operand.render()})"


@dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.render()} {keyword})"


@dataclass
class InList(Expression):
    """``expr [NOT] IN (item, ...)``."""

    operand: Expression
    items: list[Expression]
    negated: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(i.render() for i in self.items)
        return f"({self.operand.render()} {keyword} ({inner}))"


@dataclass
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select"
    negated: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.render()} {keyword} ({self.subquery.render()}))"


@dataclass
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({keyword} ({self.subquery.render()}))"


@dataclass
class ScalarSubquery(Expression):
    """A subquery used as a scalar value."""

    subquery: "Select"

    def render(self) -> str:
        """SQL text of this node."""
        return f"({self.subquery.render()})"


@dataclass
class Like(Expression):
    """``expr [NOT] LIKE pattern``."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.render()} {keyword} {self.pattern.render()})"


@dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.render()} {keyword} "
            f"{self.low.render()} AND {self.high.render()})"
        )


@dataclass
class CaseWhen:
    """One WHEN/THEN pair of a CASE expression."""

    condition: Expression
    result: Expression


@dataclass
class Case(Expression):
    """Searched or simple CASE expression."""

    operand: Expression | None
    whens: list[CaseWhen]
    else_result: Expression | None = None

    def render(self) -> str:
        """SQL text of this node."""
        parts = ["CASE"]
        if self.operand is not None:
            parts.append(self.operand.render())
        for when in self.whens:
            parts.append(f"WHEN {when.condition.render()} THEN {when.result.render()}")
        if self.else_result is not None:
            parts.append(f"ELSE {self.else_result.render()}")
        parts.append("END")
        return " ".join(parts)


# ===========================================================================
# FROM clause
# ===========================================================================


class FromItem:
    """Base class of FROM-clause sources."""

    alias: str | None

    def render(self) -> str:  # pragma: no cover - abstract
        """SQL text of this node."""
        raise NotImplementedError


@dataclass
class TableRef(FromItem):
    """A base table or nickname reference."""

    name: str
    alias: str | None = None

    def render(self) -> str:
        """SQL text of this node."""
        text = _render_identifier(self.name)
        if self.alias:
            text += f" AS {_render_identifier(self.alias)}"
        return text


@dataclass
class TableFunctionRef(FromItem):
    """``TABLE (Fn(arg, ...)) AS alias`` — the paper's UDTF reference.

    DB2 v7.1 makes the correlation name mandatory; so do we (enforced at
    parse time).
    """

    function_name: str
    args: list[Expression]
    alias: str | None = None

    def render(self) -> str:
        """SQL text of this node."""
        inner = ", ".join(a.render() for a in self.args)
        text = f"TABLE ({_render_identifier(self.function_name)}({inner}))"
        if self.alias:
            text += f" AS {_render_identifier(self.alias)}"
        return text


@dataclass
class SubquerySource(FromItem):
    """A derived table: ``(SELECT ...) AS alias``."""

    select: "Select"
    alias: str | None = None

    def render(self) -> str:
        """SQL text of this node."""
        text = f"({self.select.render()})"
        if self.alias:
            text += f" AS {_render_identifier(self.alias)}"
        return text


@dataclass
class Join(FromItem):
    """An explicit join between two FROM items."""

    kind: str  # "INNER", "LEFT OUTER", "CROSS"
    left: FromItem
    right: FromItem
    on: Expression | None = None
    alias: str | None = None  # joins carry no alias themselves

    def render(self) -> str:
        """SQL text of this node."""
        text = f"{self.left.render()} {self.kind} JOIN {self.right.render()}"
        if self.on is not None:
            text += f" ON {self.on.render()}"
        return text


# ===========================================================================
# Statements
# ===========================================================================


class Statement:
    """Base class of all statements."""

    def render(self) -> str:  # pragma: no cover - abstract
        """SQL text of this node."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


@dataclass
class SelectItem:
    """One select-list entry: expression with optional alias, or star."""

    expr: Expression
    alias: str | None = None

    def render(self) -> str:
        """SQL text of this node."""
        text = self.expr.render()
        if self.alias:
            text += f" AS {_render_identifier(self.alias)}"
        return text


@dataclass
class OrderItem:
    """One ORDER BY entry."""

    expr: Expression
    ascending: bool = True

    def render(self) -> str:
        """SQL text of this node."""
        return f"{self.expr.render()} {'ASC' if self.ascending else 'DESC'}"


@dataclass
class Select(Statement):
    """A (possibly unioned) SELECT statement."""

    items: list[SelectItem]
    from_items: list[FromItem] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    distinct: bool = False
    limit: int | None = None
    union: list[tuple[bool, "Select"]] = field(default_factory=list)
    """Trailing UNION branches as (is_union_all, select) pairs."""

    def render(self) -> str:
        """SQL text of this node."""
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.render() for item in self.items))
        if self.from_items:
            parts.append("FROM " + ", ".join(f.render() for f in self.from_items))
        if self.where is not None:
            parts.append("WHERE " + self.where.render())
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.render() for e in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.render())
        text = " ".join(parts)
        for is_all, branch in self.union:
            text += f" UNION {'ALL ' if is_all else ''}{branch.render()}"
        if self.order_by:
            text += " ORDER BY " + ", ".join(o.render() for o in self.order_by)
        if self.limit is not None:
            text += f" FETCH FIRST {self.limit} ROWS ONLY"
        return text


@dataclass
class ColumnSpec:
    """One column in CREATE TABLE."""

    name: str
    type: SqlType
    not_null: bool = False
    primary_key: bool = False
    default: Expression | None = None

    def render(self) -> str:
        """SQL text of this node."""
        text = f"{_render_identifier(self.name)} {self.type.render()}"
        if self.not_null:
            text += " NOT NULL"
        if self.default is not None:
            text += f" DEFAULT {self.default.render()}"
        if self.primary_key:
            text += " PRIMARY KEY"
        return text


@dataclass
class CreateTable(Statement):
    """CREATE TABLE statement."""

    name: str
    columns: list[ColumnSpec]
    primary_key: list[str] = field(default_factory=list)

    def render(self) -> str:
        """SQL text of this node."""
        parts = [c.render() for c in self.columns]
        if self.primary_key:
            keys = ", ".join(_render_identifier(k) for k in self.primary_key)
            parts.append(f"PRIMARY KEY ({keys})")
        return f"CREATE TABLE {_render_identifier(self.name)} ({', '.join(parts)})"


@dataclass
class DropTable(Statement):
    """DROP TABLE statement."""

    name: str

    def render(self) -> str:
        """SQL text of this node."""
        return f"DROP TABLE {_render_identifier(self.name)}"


@dataclass
class Insert(Statement):
    """INSERT with explicit VALUES rows or a source SELECT."""

    table: str
    columns: list[str] | None
    rows: list[list[Expression]] | None = None
    source: Select | None = None

    def render(self) -> str:
        """SQL text of this node."""
        text = f"INSERT INTO {_render_identifier(self.table)}"
        if self.columns:
            text += " (" + ", ".join(_render_identifier(c) for c in self.columns) + ")"
        if self.source is not None:
            return f"{text} {self.source.render()}"
        assert self.rows is not None
        rendered_rows = ", ".join(
            "(" + ", ".join(v.render() for v in row) + ")" for row in self.rows
        )
        return f"{text} VALUES {rendered_rows}"


@dataclass
class Update(Statement):
    """UPDATE ... SET ... [WHERE ...]."""

    table: str
    assignments: list[tuple[str, Expression]]
    where: Expression | None = None

    def render(self) -> str:
        """SQL text of this node."""
        sets = ", ".join(
            f"{_render_identifier(c)} = {e.render()}" for c, e in self.assignments
        )
        text = f"UPDATE {_render_identifier(self.table)} SET {sets}"
        if self.where is not None:
            text += f" WHERE {self.where.render()}"
        return text


@dataclass
class Delete(Statement):
    """DELETE FROM ... [WHERE ...]."""

    table: str
    where: Expression | None = None

    def render(self) -> str:
        """SQL text of this node."""
        text = f"DELETE FROM {_render_identifier(self.table)}"
        if self.where is not None:
            text += f" WHERE {self.where.render()}"
        return text


@dataclass
class ParamSpec:
    """One parameter of a function or procedure."""

    name: str
    type: SqlType
    mode: str = "IN"  # procedures also use OUT / INOUT

    def render(self, with_mode: bool = False) -> str:
        """SQL text of this node."""
        prefix = f"{self.mode} " if with_mode else ""
        return f"{prefix}{_render_identifier(self.name)} {self.type.render()}"


@dataclass
class CreateSqlFunction(Statement):
    """``CREATE FUNCTION ... LANGUAGE SQL RETURN <select>`` (an I-UDTF).

    The body is *one* SELECT statement — the DB2 v7.1 restriction the
    paper leans on.  ``returns_table`` lists the result columns.
    """

    name: str
    params: list[ParamSpec]
    returns_table: list[tuple[str, SqlType]]
    body: Select
    deterministic: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        params = ", ".join(p.render() for p in self.params)
        cols = ", ".join(
            f"{_render_identifier(n)} {t.render()}" for n, t in self.returns_table
        )
        det = "DETERMINISTIC " if self.deterministic else ""
        return (
            f"CREATE FUNCTION {_render_identifier(self.name)} ({params}) "
            f"RETURNS TABLE ({cols}) {det}LANGUAGE SQL RETURN {self.body.render()}"
        )


@dataclass
class CreateExternalFunction(Statement):
    """``CREATE FUNCTION ... EXTERNAL NAME '...' FENCED`` (an A-UDTF).

    External table functions are implemented outside SQL (in the paper:
    Java programs doing RMI to the controller; here: registered Python
    callables).  ``external_name`` keys into the database's external
    function registry.
    """

    name: str
    params: list[ParamSpec]
    returns_table: list[tuple[str, SqlType]]
    external_name: str
    language: str = "JAVA"
    fenced: bool = True
    deterministic: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        params = ", ".join(p.render() for p in self.params)
        cols = ", ".join(
            f"{_render_identifier(n)} {t.render()}" for n, t in self.returns_table
        )
        fenced = "FENCED" if self.fenced else "UNFENCED"
        det = " DETERMINISTIC" if self.deterministic else ""
        return (
            f"CREATE FUNCTION {_render_identifier(self.name)} ({params}) "
            f"RETURNS TABLE ({cols}) LANGUAGE {self.language} "
            f"EXTERNAL NAME {_render_string(self.external_name)} {fenced}{det}"
        )


# -- PSM (stored procedures) -------------------------------------------------


class PsmStatement:
    """Base class of statements allowed inside a procedure body."""

    def render(self) -> str:  # pragma: no cover - abstract
        """SQL text of this node."""
        raise NotImplementedError


@dataclass
class PsmDeclare(PsmStatement):
    """``DECLARE var type [DEFAULT expr]``."""

    name: str
    type: SqlType
    default: Expression | None = None

    def render(self) -> str:
        """SQL text of this node."""
        text = f"DECLARE {_render_identifier(self.name)} {self.type.render()}"
        if self.default is not None:
            text += f" DEFAULT {self.default.render()}"
        return text


@dataclass
class PsmSet(PsmStatement):
    """``SET var = expr``."""

    target: str
    value: Expression

    def render(self) -> str:
        """SQL text of this node."""
        return f"SET {_render_identifier(self.target)} = {self.value.render()}"


@dataclass
class PsmIf(PsmStatement):
    """``IF ... THEN ... [ELSEIF ...] [ELSE ...] END IF``."""

    branches: list[tuple[Expression, list[PsmStatement]]]
    else_body: list[PsmStatement] = field(default_factory=list)

    def render(self) -> str:
        """SQL text of this node."""
        parts = []
        for index, (cond, body) in enumerate(self.branches):
            keyword = "IF" if index == 0 else "ELSEIF"
            stmts = "; ".join(s.render() for s in body)
            parts.append(f"{keyword} {cond.render()} THEN {stmts};")
        if self.else_body:
            stmts = "; ".join(s.render() for s in self.else_body)
            parts.append(f"ELSE {stmts};")
        parts.append("END IF")
        return " ".join(parts)


@dataclass
class PsmWhile(PsmStatement):
    """``WHILE cond DO ... END WHILE`` — the control structure the paper
    says SQL lacks outside PSM."""

    condition: Expression
    body: list[PsmStatement]

    def render(self) -> str:
        """SQL text of this node."""
        stmts = "; ".join(s.render() for s in self.body)
        return f"WHILE {self.condition.render()} DO {stmts}; END WHILE"


@dataclass
class PsmCall(PsmStatement):
    """``CALL proc(args)`` inside a procedure body."""

    name: str
    args: list[Expression]

    def render(self) -> str:
        """SQL text of this node."""
        inner = ", ".join(a.render() for a in self.args)
        return f"CALL {_render_identifier(self.name)}({inner})"


@dataclass
class CreateProcedure(Statement):
    """``CREATE PROCEDURE ... LANGUAGE SQL BEGIN ... END``.

    Procedures may use control structures (the paper, Sect. 3), but can
    only be invoked via CALL — never referenced in a FROM clause.
    """

    name: str
    params: list[ParamSpec]
    body: list[PsmStatement]

    def render(self) -> str:
        """SQL text of this node."""
        params = ", ".join(p.render(with_mode=True) for p in self.params)
        stmts = "; ".join(s.render() for s in self.body)
        return (
            f"CREATE PROCEDURE {_render_identifier(self.name)} ({params}) "
            f"LANGUAGE SQL BEGIN {stmts}; END"
        )


@dataclass
class Call(Statement):
    """``CALL procedure(args)`` at top level."""

    name: str
    args: list[Expression]

    def render(self) -> str:
        """SQL text of this node."""
        inner = ", ".join(a.render() for a in self.args)
        return f"CALL {_render_identifier(self.name)}({inner})"


# -- federation DDL ------------------------------------------------------------


@dataclass
class CreateWrapper(Statement):
    """``CREATE WRAPPER name`` (SQL/MED)."""

    name: str

    def render(self) -> str:
        """SQL text of this node."""
        return f"CREATE WRAPPER {_render_identifier(self.name)}"


@dataclass
class CreateServer(Statement):
    """``CREATE SERVER name WRAPPER wrapper`` (SQL/MED)."""

    name: str
    wrapper: str

    def render(self) -> str:
        """SQL text of this node."""
        return (
            f"CREATE SERVER {_render_identifier(self.name)} "
            f"WRAPPER {_render_identifier(self.wrapper)}"
        )


@dataclass
class CreateNickname(Statement):
    """``CREATE NICKNAME local FOR server.remote`` (SQL/MED)."""

    name: str
    server: str
    remote_name: str

    def render(self) -> str:
        """SQL text of this node."""
        return (
            f"CREATE NICKNAME {_render_identifier(self.name)} FOR "
            f"{_render_identifier(self.server)}.{_render_identifier(self.remote_name)}"
        )


@dataclass
class DropFunction(Statement):
    """DROP FUNCTION statement."""

    name: str

    def render(self) -> str:
        """SQL text of this node."""
        return f"DROP FUNCTION {_render_identifier(self.name)}"


@dataclass
class Runstats(Statement):
    """``RUNSTATS <table>`` (also spelled ``ANALYZE <table>``) — collect
    table and column statistics for the cost-based optimizer."""

    table: str

    def render(self) -> str:
        """SQL text of this node."""
        return f"RUNSTATS {_render_identifier(self.table)}"


@dataclass
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <select>`` — returns the plan tree as text
    rows.  With ANALYZE the statement is *executed* and each operator's
    actual output cardinality is reported next to the estimate."""

    query: Select
    analyze: bool = False

    def render(self) -> str:
        """SQL text of this node."""
        keyword = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{keyword} {self.query.render()}"


@dataclass
class CreateView(Statement):
    """``CREATE VIEW name [(columns)] AS <select>``.

    The paper's upper tier: "Applications referring to a (homogenized)
    view to the data".  Views are macro-expanded at plan time and run
    with definer rights.
    """

    name: str
    columns: list[str] | None
    body: Select

    def render(self) -> str:
        """SQL text of this node."""
        cols = ""
        if self.columns:
            cols = " (" + ", ".join(_render_identifier(c) for c in self.columns) + ")"
        return (
            f"CREATE VIEW {_render_identifier(self.name)}{cols} AS "
            f"{self.body.render()}"
        )


@dataclass
class DropView(Statement):
    """DROP VIEW statement."""

    name: str

    def render(self) -> str:
        """SQL text of this node."""
        return f"DROP VIEW {_render_identifier(self.name)}"


@dataclass
class CreateUser(Statement):
    """CREATE USER statement (access-control extension)."""

    name: str

    def render(self) -> str:
        """SQL text of this node."""
        return f"CREATE USER {_render_identifier(self.name)}"


@dataclass
class Grant(Statement):
    """GRANT privileges ON object TO grantee."""

    privileges: list[str]
    kind: str | None  # "table" | "function" | "procedure" | None (infer)
    object_name: str
    grantee: str

    def render(self) -> str:
        """SQL text of this node."""
        privs = ", ".join(self.privileges)
        kind = f"{self.kind.upper()} " if self.kind else ""
        return (
            f"GRANT {privs} ON {kind}{_render_identifier(self.object_name)} "
            f"TO {_render_identifier(self.grantee)}"
        )


@dataclass
class Revoke(Statement):
    """REVOKE privileges ON object FROM grantee."""

    privileges: list[str]
    kind: str | None
    object_name: str
    grantee: str

    def render(self) -> str:
        """SQL text of this node."""
        privs = ", ".join(self.privileges)
        kind = f"{self.kind.upper()} " if self.kind else ""
        return (
            f"REVOKE {privs} ON {kind}{_render_identifier(self.object_name)} "
            f"FROM {_render_identifier(self.grantee)}"
        )


@dataclass
class Commit(Statement):
    """COMMIT [WORK]."""

    def render(self) -> str:
        """SQL text of this node."""
        return "COMMIT"


@dataclass
class Rollback(Statement):
    """ROLLBACK [WORK]."""

    def render(self) -> str:
        """SQL text of this node."""
        return "ROLLBACK"
