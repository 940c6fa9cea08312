"""Exception hierarchy shared by every subsystem of the reproduction.

The hierarchy deliberately mirrors the failure classes the paper talks
about: SQL-level errors raised by the FDBS, restrictions of the UDTF
architecture (one-statement bodies, no nesting, no cycles, CALL-only
procedures), workflow-level failures, and encapsulation violations of the
application systems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --------------------------------------------------------------------------
# FDBS / SQL errors
# --------------------------------------------------------------------------


class SqlError(ReproError):
    """Base class for errors raised by the FDBS SQL engine."""


class LexerError(SqlError):
    """Invalid token in SQL text."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SqlError):
    """SQL text does not conform to the supported dialect."""


class CatalogError(SqlError):
    """Unknown or duplicate catalog object (table, function, server...)."""


class TypeError_(SqlError):
    """SQL type-system violation (incompatible types, bad cast...).

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class PlanError(SqlError):
    """The query cannot be planned (unresolved column, bad reference...)."""


class DuplicateColumnError(PlanError):
    """A column is named more than once as the target of one INSERT
    column list or UPDATE SET clause (DB2 SQL0121N, SQLSTATE 42701)."""


class ExecutionError(SqlError):
    """Runtime failure while executing a plan."""


class ConstraintError(SqlError):
    """Integrity constraint violated (duplicate key, NOT NULL...)."""


class WriteConflictError(SqlError):
    """First-writer-wins conflict under MVCC snapshot isolation.

    A DML statement pinned a table version at statement start, but
    another writer published a newer version of the same table before
    this statement reached its write latch.  The loser's statement is
    rolled up into this error; the statement may simply be retried
    against a fresh snapshot (``retryable`` is True).
    """

    retryable = True

    def __init__(self, table: str, expected_version: int, found_version: int):
        super().__init__(
            f"write conflict on table {table!r}: statement pinned version "
            f"{expected_version} but version {found_version} is current "
            "(first writer wins; retry against a fresh snapshot)"
        )
        self.table = table
        self.expected_version = expected_version
        self.found_version = found_version


class AuthorizationError(SqlError):
    """The current user lacks a required privilege."""


# --- Restrictions reproduced from DB2 UDB v7.1 / the paper -----------------


class RestrictionError(SqlError):
    """Base for restrictions the paper's host DBMS imposes."""


class OneStatementError(RestrictionError):
    """A SQL function body may contain exactly one SQL statement."""


class NestedTableFunctionError(RestrictionError):
    """Table functions cannot be nested: ``TABLE(f(g(x)))`` is invalid."""


class CyclicDependencyError(RestrictionError):
    """UDTF parameter references form a cycle; not expressible in SQL."""


class CallOnlyProcedureError(RestrictionError):
    """Stored procedures can only be invoked by CALL, never in FROM."""


class ReadOnlyFunctionError(RestrictionError):
    """UDTFs support read access only; no insert/update/delete."""


class FencedModeError(RestrictionError):
    """A fenced UDTF tried to open an in-process database connection."""


# --------------------------------------------------------------------------
# WfMS errors
# --------------------------------------------------------------------------


class WorkflowError(ReproError):
    """Base class for workflow-management-system errors."""


class ProcessDefinitionError(WorkflowError):
    """Malformed process model (dangling connector, unknown activity...)."""


class FdlSyntaxError(ProcessDefinitionError):
    """The FDL-like process definition text could not be parsed."""


class ContainerError(WorkflowError):
    """Container member missing or of the wrong type."""


class NavigationError(WorkflowError):
    """The navigator reached an inconsistent instance state."""


class ActivityFailedError(WorkflowError):
    """An activity's program raised; carries the failing activity name."""

    def __init__(self, activity: str, cause: Exception):
        super().__init__(f"activity {activity!r} failed: {cause}")
        self.activity = activity
        self.cause = cause


# --------------------------------------------------------------------------
# Application-system errors
# --------------------------------------------------------------------------


class ApplicationSystemError(ReproError):
    """Base class for encapsulated application-system errors."""


class EncapsulationError(ApplicationSystemError):
    """Something tried to bypass the predefined-function interface."""


class UnknownFunctionError(ApplicationSystemError):
    """No local function with that name is exported."""


class SignatureError(ApplicationSystemError):
    """Arguments do not match the local function's signature."""


# --------------------------------------------------------------------------
# Integration / mapping errors
# --------------------------------------------------------------------------


class MappingError(ReproError):
    """Base class for federated-function mapping errors."""


class UnsupportedMappingError(MappingError):
    """The mapping cannot be expressed in the selected architecture.

    E.g. a cyclic dependency compiled for the enhanced SQL UDTF
    architecture (the paper's Sect. 3 table marks it 'not supported').
    """

    def __init__(self, message: str, case: str | None = None):
        super().__init__(message)
        self.case = case


class MappingGraphError(MappingError):
    """The mapping graph itself is malformed."""


# --------------------------------------------------------------------------
# Injected middleware faults (the fault-injection harness)
# --------------------------------------------------------------------------


class TransientFaultError(ReproError):
    """Base class for faults injected by the fault-injection harness.

    Each carries the *site* name it was injected at (see
    :mod:`repro.sysmodel.faults`).  Transient means a retry may succeed:
    the WfMS recovers from them via retry/forward recovery, while the
    pure-UDTF architectures have no recovery mechanism and abort the
    whole SQL statement.
    """

    def __init__(self, site: str, message: str):
        super().__init__(message)
        self.site = site


class RmiDroppedError(TransientFaultError):
    """An RMI hop was dropped: the request timed out on the wire."""


class FencedProcessDiedError(TransientFaultError):
    """The fenced A-UDTF process died during the invocation hand-over."""


class LocalFunctionFaultError(TransientFaultError):
    """An application system's local function failed transiently."""


class ActivityProgramCrashError(TransientFaultError):
    """The JVM running a workflow activity program crashed."""


class StatementAbortedError(ExecutionError):
    """The whole SQL statement was aborted by an unrecovered fault.

    This is the paper's robustness asymmetry made explicit: a failure
    inside a UDTF-architecture federated function cannot be restarted by
    the FDBS, so the statement fails as a unit.
    """


# --------------------------------------------------------------------------
# Simulation substrate errors
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for virtual-time / machine-model errors."""


class ClockError(SimulationError):
    """Virtual clock misuse (negative advance, nested run conflicts)."""


# --------------------------------------------------------------------------
# Serving-layer errors
# --------------------------------------------------------------------------


class ServingError(ReproError):
    """Base class for concurrent-serving-layer errors."""


class AdmissionError(ServingError):
    """The serving layer refused work: session or queue capacity is full.

    Raised by the admission controller under the ``"reject"`` policy;
    the ``"block"`` policy applies backpressure (the caller waits)
    instead of raising.
    """


class SessionClosedError(ServingError):
    """A call was routed through a session that has been closed."""


class WireProtocolError(ServingError):
    """A frame on the router<->shard wire violated the protocol.

    Raised for bad magic bytes, an unsupported protocol version, an
    unknown message kind, or a checksum mismatch.  The router treats a
    wire violation like a dead shard: the connection is unusable.
    """


class ShardCrashError(ServingError):
    """A shard worker process died with work outstanding.

    Sessions outstanding on the dead shard fail with this error; it is
    *retryable* — each session ran on its own isolated server inside
    the worker, so nothing partial survives the crash and the script
    may simply be resubmitted (to a live shard, or once the router
    respawns one).  ``shard_id`` is None when no shard was alive to
    take the script.
    """

    retryable = True

    def __init__(self, shard_id: int | None, message: str):
        super().__init__(message)
        self.shard_id = shard_id


class ProcessStateError(SimulationError):
    """Simulated OS process used in the wrong state (not started, dead)."""
