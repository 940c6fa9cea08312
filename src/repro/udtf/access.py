"""Access UDTFs (A-UDTFs).

"Each local function is separately accessed by means of a UDTF"
(paper, Sect. 2).  :func:`register_access_udtfs` walks an application
system's exported functions and registers one fenced external table
function per local function in the integration FDBS.  The fenced
runtime then routes each invocation through RMI and the controller.
"""

from __future__ import annotations

from repro.appsys.base import ApplicationSystem, LocalFunction
from repro.fdbs.catalog import ColumnDef, ExternalTableFunction, FunctionParam
from repro.fdbs.engine import Database


def make_access_udtf(
    appsys: ApplicationSystem, function: LocalFunction, name: str | None = None
) -> ExternalTableFunction:
    """Build the A-UDTF for one local function.

    ``appsys.call`` returns rows coerced into the types of the local
    function it resolves by name; when those equal the types declared
    here, the A-UDTF is marked ``rows_typed`` and the FDBS does not
    coerce its rows a second time.
    """

    def implementation(*args: object):
        return appsys.call(function.name, *args)

    declared = [t for _, t in function.returns]
    served = [t for _, t in appsys.function(function.name).returns]
    return ExternalTableFunction(
        name=name or function.name,
        params=[FunctionParam(n, t) for n, t in function.params],
        returns=[ColumnDef(n, t) for n, t in function.returns],
        external_name=f"{appsys.name}.{function.name}",
        language="JAVA",
        fenced=True,
        implementation=implementation,
        owner_system=appsys.name,
        source_deterministic=function.deterministic and not function.mutates,
        rows_typed=declared == served,
    )


def register_access_udtfs(
    database: Database,
    appsys: ApplicationSystem,
    only: list[str] | None = None,
) -> list[ExternalTableFunction]:
    """Register A-UDTFs for (a subset of) a system's local functions.

    Returns the registered catalog entries.  Function names must be
    unique across all integrated systems — the paper's scenario keeps
    them so; a collision raises the usual catalog error.
    """
    wanted = {n.upper() for n in only} if only is not None else None
    registered: list[ExternalTableFunction] = []
    for function in appsys.functions():
        if wanted is not None and function.name.upper() not in wanted:
            continue
        udtf = make_access_udtf(appsys, function)
        database.register_external_function(udtf)
        registered.append(udtf)
    return registered
