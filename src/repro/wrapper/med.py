"""SQL/MED-flavoured wrapper interfaces.

The paper plans for wrappers "according to the draft of SQL/MED" and
falls back to UDTFs because no product implemented the draft.  We model
the draft's shape anyway: a *wrapper* is the piece of code the FDBS
loads to talk to a class of foreign servers; a *foreign server* is one
instance of such a source; *function mappings* expose foreign functions
through the wrapper.  The WfMS coupling and the fenced UDTF runtime
both sit behind this interface, so swapping the coupling style is a
registry change, not an engine change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import CatalogError
from repro.fdbs.catalog import ColumnDef, FunctionParam


class ForeignFunctionWrapper(Protocol):
    """What the FDBS needs from a SQL/MED wrapper: invoke one foreign
    function and get rows back."""

    def invoke_foreign(self, function_name: str, args: list[object]) -> list[tuple]:
        """Invoke one foreign function; returns result rows."""
        ...


@dataclass
class ForeignFunctionMapping:
    """One foreign function exposed through a wrapper."""

    name: str
    params: list[FunctionParam]
    returns: list[ColumnDef]
    server: str


@dataclass
class ForeignServerEntry:
    """One foreign server registered under a wrapper."""

    name: str
    wrapper_name: str
    handler: ForeignFunctionWrapper


@dataclass
class MedRegistry:
    """Registry of wrappers, foreign servers and function mappings.

    A thin SQL/MED-shaped bookkeeping layer used by the integration
    server to keep the coupling style explicit and swappable.
    """

    wrappers: dict[str, str] = field(default_factory=dict)  # name -> description
    servers: dict[str, ForeignServerEntry] = field(default_factory=dict)
    function_mappings: dict[str, ForeignFunctionMapping] = field(default_factory=dict)

    def create_wrapper(self, name: str, description: str = "") -> None:
        """Register a wrapper (duplicates rejected)."""
        key = name.upper()
        if key in self.wrappers:
            raise CatalogError(f"wrapper {name!r} already exists")
        self.wrappers[key] = description

    def create_server(
        self, name: str, wrapper_name: str, handler: ForeignFunctionWrapper
    ) -> None:
        """Register a foreign server under an existing wrapper."""
        if wrapper_name.upper() not in self.wrappers:
            raise CatalogError(f"unknown wrapper {wrapper_name!r}")
        key = name.upper()
        if key in self.servers:
            raise CatalogError(f"server {name!r} already exists")
        self.servers[key] = ForeignServerEntry(name, wrapper_name, handler)

    def create_function_mapping(self, mapping: ForeignFunctionMapping) -> None:
        """Expose a foreign function through an existing server."""
        if mapping.server.upper() not in self.servers:
            raise CatalogError(f"unknown server {mapping.server!r}")
        key = mapping.name.upper()
        if key in self.function_mappings:
            raise CatalogError(f"function mapping {mapping.name!r} already exists")
        self.function_mappings[key] = mapping

    def server_for_function(self, function_name: str) -> ForeignServerEntry:
        """The server entry serving a mapped function."""
        mapping = self.function_mappings.get(function_name.upper())
        if mapping is None:
            raise CatalogError(f"no function mapping for {function_name!r}")
        return self.servers[mapping.server.upper()]

    def invoke(self, function_name: str, args: list[object]) -> list[tuple]:
        """Route a foreign-function call to its server's wrapper."""
        entry = self.server_for_function(function_name)
        return entry.handler.invoke_foreign(function_name, args)
