"""SQL Integration UDTFs (I-UDTFs).

"These I-UDTFs consist of an SQL statement which includes references to
A-UDTFs, thereby implementing the integration logic" (paper, Sect. 2).
The one-statement restriction is enforced by the parser
(:class:`~repro.errors.OneStatementError`), the no-nesting and
left-to-right rules by the planner — creating an I-UDTF here is just a
checked ``CREATE FUNCTION`` round trip.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.fdbs import ast
from repro.fdbs.catalog import SqlTableFunction
from repro.fdbs.engine import Database


def create_sql_iudtf(database: Database, ddl: str) -> SqlTableFunction:
    """Create a SQL I-UDTF from its CREATE FUNCTION text.

    Validates eagerly: the statement must be a ``CREATE FUNCTION ...
    LANGUAGE SQL RETURN <select>`` and its body must *plan* against the
    current catalog (so forward references, nesting and cycles fail at
    definition time, like DB2's bind-time checking).
    """
    statement = database.parse(ddl)
    if not isinstance(statement, ast.CreateSqlFunction):
        raise ParseError(
            "create_sql_iudtf expects a CREATE FUNCTION ... LANGUAGE SQL "
            f"RETURN <select> statement, got {type(statement).__name__}"
        )
    database.execute(ddl)
    function = database.catalog.get_function(statement.name)
    assert isinstance(function, SqlTableFunction)
    try:
        database.bind_sql_function(function)
    except Exception:
        # Bind failed: do not leave an unusable function in the catalog.
        database.drop_function(statement.name)
        raise
    return function
