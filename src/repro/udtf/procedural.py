"""Procedural Integration UDTFs — the paper's "enhanced Java UDTF"
architecture.

"The Java I-UDTF can issue as many SQL statements as needed ... we can
make use of all the features a programming language provides like, for
instance, control structures" (paper, Sect. 2).  Here the host language
is Python: the implementation receives a
:class:`ProceduralConnection` (the JDBC stand-in) plus the argument
values, may loop and branch freely, and returns result rows.

The fenced runtime charges I-UDTF start/finish around the whole call;
every statement the body issues pays the normal FDBS costs, and every
A-UDTF it references pays the full fenced A-UDTF path — exactly the
cost structure of JDBC calls from a Java table function.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.fdbs.catalog import ColumnDef, ExternalTableFunction, FunctionParam
from repro.fdbs.engine import Database
from repro.fdbs.session import Result
from repro.fdbs.types import SqlType

#: Catalog language tag for procedural I-UDTFs.
PROCEDURAL_LANGUAGE = "PROCEDURAL"


class ProceduralConnection:
    """The JDBC-like statement interface handed to procedural bodies.

    Deliberately narrow: queries only.  DML through an I-UDTF would
    violate the read-only UDTF rule the paper notes, so it is not
    offered here at all.
    """

    def __init__(self, database: Database):
        self._database = database
        self.statements_issued = 0

    def query(self, sql: str, params: list[object] | None = None) -> Result:
        """Execute one SELECT and return its full result."""
        self.statements_issued += 1
        return self._database.execute(sql, params=params)

    def query_rows(self, sql: str, params: list[object] | None = None) -> list[tuple]:
        """Execute one SELECT and return just the rows."""
        return self.query(sql, params).rows

    def query_scalar(self, sql: str, params: list[object] | None = None) -> object:
        """Execute one single-value SELECT."""
        return self.query(sql, params).scalar()


ProceduralBody = Callable[..., Sequence[tuple]]
"""Signature: body(connection, *args) -> iterable of result rows."""


def register_procedural_iudtf(
    database: Database,
    name: str,
    params: list[tuple[str, SqlType]],
    returns: list[tuple[str, SqlType]],
    body: ProceduralBody,
) -> ExternalTableFunction:
    """Register a procedural I-UDTF in the FDBS catalog.

    ``body`` receives ``(connection, *argument_values)`` and returns the
    result rows.  The connection issues SQL against the hosting FDBS —
    referencing A-UDTFs, tables and nicknames as usual.
    """

    def implementation(*args: object):
        return body(ProceduralConnection(database), *args)

    function = ExternalTableFunction(
        name=name,
        params=[FunctionParam(n, t) for n, t in params],
        returns=[ColumnDef(n, t) for n, t in returns],
        external_name=f"procedural:{name}",
        language=PROCEDURAL_LANGUAGE,
        fenced=True,
        implementation=implementation,
    )
    database.register_external_function(function)
    return function
