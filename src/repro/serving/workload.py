"""Seeded multi-client workloads for the concurrent serving layer.

A workload is a list of :class:`SessionScript` objects — one per client
session — each naming an architecture and a fixed sequence of
:class:`WorkloadCall` steps (federated-function reads plus a DML mix
against a session-private scratch table).  Scripts are generated from a
single seed, so the same seed always produces the same per-session call
sequences: the concurrency parity suite replays one workload under
different worker counts and demands bit-identical per-session results.

Argument values are drawn from small pools anchored on the pinned
entities of :func:`~repro.appsys.datagen.generate_enterprise_data`
(supplier 1234 / 'ACME Industrial', component 1 / 'gearbox'), so every
generated call is valid against the default enterprise universe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.architectures import Architecture, supports
from repro.core.scenario import scenario_functions

#: Architectures the default mixed workload cycles through.
DEFAULT_ARCHITECTURES = (
    Architecture.WFMS,
    Architecture.ENHANCED_SQL_UDTF,
    Architecture.ENHANCED_JAVA_UDTF,
    Architecture.SIMPLE_UDTF,
)

#: Architectures the MVCC scaling benchmark cycles through.  A subset of
#: :data:`DEFAULT_ARCHITECTURES`: one WfMS-coupled and two UDTF-coupled
#: shapes keep the shared-server matrix small while still exercising both
#: integration paths under contention.
SCALING_ARCHITECTURES = (
    Architecture.WFMS,
    Architecture.ENHANCED_JAVA_UDTF,
    Architecture.SIMPLE_UDTF,
)

#: Named workload mixes for the concurrency scaling benchmark, as the
#: ``dml_fraction`` passed to :func:`make_workload`.  ``read_heavy`` is
#: pure federated-function reads (the MVCC fast path: snapshot pins,
#: zero write latches); ``write_heavy`` spends most steps on scratch-table
#: DML, where per-table latches and first-writer-wins checks dominate.
WORKLOAD_PROFILES: dict[str, float] = {
    "read_heavy": 0.0,
    "mixed": 0.35,
    "write_heavy": 0.85,
}

#: Argument pools per federated function (all valid against the default
#: enterprise universe; variety exercises caches without breaking rows).
ARG_POOLS: dict[str, tuple[tuple, ...]] = {
    "GibKompNr": (("gearbox",), ("axle",), ("piston",)),
    "GetNumberSupp1234": ((1,), (2,), (3,)),
    "GetSuppQual": (("ACME Industrial",), ("Globex Metals",)),
    "GetSuppQualRelia": ((1234,), (5001,), (5002,)),
    "GetSubCompDiscounts": ((1, 5), (1, 10), (2, 5)),
    "GetSuppGrade": ((1234,), (5001,)),
    "GetSuppQualReliaByName": (("ACME Industrial",), ("Initech Parts",)),
    "GetNoSuppComp": (("gearbox",), ("axle",)),
    "BuySuppComp": ((1234, "gearbox"), (5001, "axle")),
    "AllCompNames": ((1, 4), (2, 6)),
}


@dataclass(frozen=True)
class WorkloadCall:
    """One step of a session script.

    ``kind`` is ``"call"`` (federated-function invocation through the
    FDBS) or ``"sql"`` (a raw statement — the DML mix).  ``target`` is
    the function name or the SQL text; ``args`` the call arguments or
    statement parameters.
    """

    kind: str
    target: str
    args: tuple = ()

    def label(self) -> str:
        """Short human-readable step label (for traces and reports)."""
        if self.kind == "call":
            return f"{self.target}{self.args!r}"
        return self.target.split(None, 2)[0] if self.target else "SQL"


@dataclass
class SessionScript:
    """One client session's deterministic call sequence."""

    session_id: int
    architecture: Architecture
    calls: list[WorkloadCall] = field(default_factory=list)
    faults: dict | None = None
    """Optional fault configuration forwarded to the session's server.
    A stamped server has its own injector; on a shared server it arms
    the harness every session of the architecture shares."""

    @property
    def scratch_table(self) -> str:
        """The session-private DML target (unique per session id)."""
        return f"SCRATCH_S{self.session_id}"


def supported_functions(architecture: Architecture) -> list[str]:
    """Scenario function names the architecture can deploy, in order."""
    return [
        fed.name
        for fed in scenario_functions()
        if supports(architecture, fed.case)
    ]


def _dml_steps(script: SessionScript, rng: random.Random, step: int) -> WorkloadCall:
    """One DML step against the session's private scratch table."""
    table = script.scratch_table
    choice = rng.randrange(3)
    if choice == 0:
        return WorkloadCall(
            "sql",
            f"INSERT INTO {table} (ID, VAL) VALUES (?, ?)",
            (step, rng.randrange(1000)),
        )
    if choice == 1:
        return WorkloadCall(
            "sql",
            f"UPDATE {table} SET VAL = VAL + ? WHERE ID < ?",
            (rng.randrange(10), step),
        )
    return WorkloadCall(
        "sql", f"SELECT ID, VAL FROM {table} ORDER BY ID", ()
    )


def make_workload(
    seed: int,
    sessions: int = 8,
    calls_per_session: int = 12,
    architectures: tuple[Architecture, ...] | None = None,
    dml_fraction: float = 0.25,
) -> list[SessionScript]:
    """Generate a deterministic mixed workload.

    Sessions cycle through ``architectures`` round-robin; each session's
    calls mix federated-function reads (arguments drawn from
    :data:`ARG_POOLS`) with DML against its private scratch table.  The
    first step of every session creates that table, so scripts are
    self-contained on a fresh server — shared or isolated.
    """
    if sessions < 1:
        raise ValueError(f"need at least one session, got {sessions!r}")
    if calls_per_session < 1:
        raise ValueError(
            f"need at least one call per session, got {calls_per_session!r}"
        )
    if not 0.0 <= dml_fraction <= 1.0:
        raise ValueError(f"dml_fraction must be in [0, 1], got {dml_fraction!r}")
    archs = architectures if architectures is not None else DEFAULT_ARCHITECTURES
    rng = random.Random(seed)
    scripts: list[SessionScript] = []
    for session_id in range(sessions):
        architecture = archs[session_id % len(archs)]
        script = SessionScript(session_id=session_id, architecture=architecture)
        script.calls.append(
            WorkloadCall(
                "sql",
                f"CREATE TABLE {script.scratch_table} "
                "(ID INTEGER PRIMARY KEY, VAL INTEGER)",
            )
        )
        functions = supported_functions(architecture)
        for step in range(calls_per_session):
            if rng.random() < dml_fraction:
                script.calls.append(_dml_steps(script, rng, step))
            else:
                name = functions[rng.randrange(len(functions))]
                pool = ARG_POOLS[name]
                script.calls.append(
                    WorkloadCall("call", name, pool[rng.randrange(len(pool))])
                )
        scripts.append(script)
    return scripts


def make_profile_workload(
    profile: str,
    seed: int,
    sessions: int = 8,
    calls_per_session: int = 12,
) -> list[SessionScript]:
    """Generate a deterministic workload for a named scaling profile.

    ``profile`` keys :data:`WORKLOAD_PROFILES`; sessions cycle through
    :data:`SCALING_ARCHITECTURES`.  Everything else matches
    :func:`make_workload`, so the same seed and profile always replay
    the identical call sequences — the scaling benchmark relies on this
    to compare worker counts on exactly the same work.
    """
    try:
        dml_fraction = WORKLOAD_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown workload profile {profile!r}; "
            f"expected one of {sorted(WORKLOAD_PROFILES)}"
        ) from None
    return make_workload(
        seed,
        sessions=sessions,
        calls_per_session=calls_per_session,
        architectures=SCALING_ARCHITECTURES,
        dml_fraction=dml_fraction,
    )
