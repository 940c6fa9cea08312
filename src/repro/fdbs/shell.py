"""An interactive SQL shell over the FDBS.

Run ``python -m repro.fdbs`` for an empty database, or
``python -m repro.fdbs --scenario wfms`` to get the paper's
integration server preloaded (application systems, A-UDTFs, federated
functions) so you can type the paper's queries directly::

    repro> SELECT * FROM TABLE (BuySuppComp(1234, 'gearbox')) AS B;
    Answer
    ------
    BUY
    (1 row, 320.88 su)

Statements end with ``;`` and may span lines.  Dot commands:
``.help``, ``.tables``, ``.functions``, ``.stats``, ``.optimizer``,
``.time on|off``, ``.user <name>``, ``.quit``.
"""

from __future__ import annotations

from typing import IO

from repro.bench.report import format_table
from repro.errors import ReproError
from repro.fdbs.engine import Database
from repro.fdbs.session import Result

PROMPT = "repro> "
CONTINUATION = "  ...> "


class Shell:
    """Line-oriented SQL REPL (stream-based, hence testable)."""

    def __init__(self, database: Database):
        self.database = database
        self.show_time = True
        self.statements_run = 0

    # -- driver ------------------------------------------------------------------

    def run(self, stdin: IO[str], stdout: IO[str]) -> None:
        """Read statements from ``stdin`` until EOF or ``.quit``."""
        stdout.write(
            "repro SQL shell — statements end with ';', '.help' for help\n"
        )
        buffer: list[str] = []
        while True:
            stdout.write(CONTINUATION if buffer else PROMPT)
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            stripped = line.strip()
            if not buffer and stripped.startswith("."):
                if not self.dot_command(stripped, stdout):
                    break
                continue
            if not stripped and not buffer:
                continue
            buffer.append(line)
            if stripped.endswith(";"):
                statement = "".join(buffer).strip().rstrip(";")
                buffer.clear()
                if statement:
                    self.execute(statement, stdout)
        stdout.write("bye\n")

    # -- statement execution ------------------------------------------------------

    def execute(self, sql: str, stdout: IO[str]) -> None:
        """Run one SQL statement and print its outcome."""
        self.statements_run += 1
        machine = self.database.machine
        start = machine.clock.now if machine is not None else 0.0
        try:
            result = self.database.execute(sql)
        except ReproError as exc:
            stdout.write(f"error: {exc}\n")
            return
        elapsed = (machine.clock.now - start) if machine is not None else None
        self.print_result(result, elapsed, stdout)

    def print_result(
        self, result: Result, elapsed: float | None, stdout: IO[str]
    ) -> None:
        """Render a Result the way the shell shows it."""
        suffix = f", {elapsed:.2f} su" if self.show_time and elapsed else ""
        if result.statement_type in ("SELECT", "EXPLAIN") or result.columns:
            if result.columns:
                stdout.write(format_table(result.columns, result.rows) + "\n")
            count = len(result.rows)
            noun = "row" if count == 1 else "rows"
            stdout.write(f"({count} {noun}{suffix})\n")
        elif result.statement_type == "CALL":
            stdout.write(f"OUT: {result.out_params}\n")
            stdout.write(f"(call complete{suffix})\n")
        else:
            stdout.write(f"{result.statement_type} ok")
            if result.rowcount:
                stdout.write(f" ({result.rowcount} row(s) affected)")
            stdout.write(f"{suffix}\n" if suffix else "\n")

    # -- dot commands ----------------------------------------------------------------

    def dot_command(self, command: str, stdout: IO[str]) -> bool:
        """Handle a dot command; returns False to exit the shell."""
        parts = command.split()
        name = parts[0].lower()
        if name in (".quit", ".exit"):
            return False
        if name == ".help":
            stdout.write(
                ".help             this text\n"
                ".tables           list tables, views and nicknames\n"
                ".functions        list table functions\n"
                ".stats            pool / cache / channel counters + RUNSTATS\n"
                ".optimizer [m]    show or set planning mode (syntactic|cost)\n"
                ".chunksize [n]    show or set rows per chunk (columnar)\n"
                ".time on|off      toggle virtual-time display\n"
                ".user <name>      switch the session user\n"
                ".quit             leave\n"
            )
        elif name == ".tables":
            self.execute("SELECT * FROM SYSCAT_TABLES", stdout)
        elif name == ".functions":
            self.execute("SELECT * FROM SYSCAT_FUNCTIONS", stdout)
        elif name == ".stats":
            self.execute("SELECT * FROM SYSCAT_RUNTIME_STATS", stdout)
            if self.database.catalog.statistics():
                stdout.write("table statistics (RUNSTATS):\n")
                self.execute("SELECT * FROM SYSCAT_STATS", stdout)
        elif name == ".optimizer":
            if len(parts) == 1:
                stdout.write(f"optimizer is {self.database.options.optimizer}\n")
            elif len(parts) == 2:
                try:
                    self.database.configure(optimizer=parts[1].lower())
                    stdout.write(
                        f"optimizer is now {self.database.options.optimizer}\n"
                    )
                except ReproError as exc:
                    stdout.write(f"error: {exc}\n")
            else:
                stdout.write("usage: .optimizer [syntactic|cost]\n")
        elif name == ".chunksize":
            if len(parts) == 1:
                stdout.write(f"chunk size is {self.database.options.chunk_size}\n")
            elif len(parts) == 2:
                try:
                    self.database.configure(chunk_size=int(parts[1]))
                    stdout.write(
                        f"chunk size is now {self.database.options.chunk_size}\n"
                    )
                except (ReproError, ValueError) as exc:
                    stdout.write(f"error: {exc}\n")
            else:
                stdout.write("usage: .chunksize [rows]\n")
        elif name == ".time":
            if len(parts) == 2 and parts[1].lower() in ("on", "off"):
                self.show_time = parts[1].lower() == "on"
                stdout.write(f"time display {'on' if self.show_time else 'off'}\n")
            else:
                stdout.write("usage: .time on|off\n")
        elif name == ".user":
            if len(parts) == 2:
                try:
                    self.database.set_current_user(parts[1])
                    stdout.write(f"user is now {self.database.current_user}\n")
                except ReproError as exc:
                    stdout.write(f"error: {exc}\n")
            else:
                stdout.write("usage: .user <name>\n")
        else:
            stdout.write(f"unknown command {parts[0]!r}; try .help\n")
        return True


def build_database(
    scenario_name: str | None, heterogeneous: bool = False
) -> Database:
    """An empty database, or the paper scenario's integration FDBS.

    ``heterogeneous`` federates the three heterogeneous source profiles
    (web-API, archive, cache-fronted nicknames; see
    :func:`repro.core.scenario.attach_heterogeneous_sources`) so their
    per-source counters show up under ``.stats``.
    """
    if scenario_name is None:
        database = Database("shell")
        if heterogeneous:
            from repro.core.scenario import attach_heterogeneous_sources

            attach_heterogeneous_sources(database)
        return database
    from repro.core.architectures import Architecture
    from repro.core.scenario import build_scenario

    architectures = {
        "wfms": Architecture.WFMS,
        "sql": Architecture.ENHANCED_SQL_UDTF,
        "java": Architecture.ENHANCED_JAVA_UDTF,
    }
    try:
        architecture = architectures[scenario_name.lower()]
    except KeyError:
        raise SystemExit(
            f"unknown scenario {scenario_name!r}; pick one of "
            f"{', '.join(architectures)}"
        ) from None
    return build_scenario(architecture, heterogeneous=heterogeneous).server.fdbs


def main(argv: list[str]) -> int:
    """CLI entry point; returns a process exit code."""
    import sys

    scenario = None
    heterogeneous = False
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--scenario":
            if not args:
                print(
                    "usage: python -m repro.fdbs "
                    "[--scenario wfms|sql|java] [--hetero]"
                )
                return 2
            scenario = args.pop(0)
        elif arg == "--hetero":
            heterogeneous = True
        else:
            print(
                "usage: python -m repro.fdbs "
                "[--scenario wfms|sql|java] [--hetero]"
            )
            return 2
    Shell(build_database(scenario, heterogeneous=heterogeneous)).run(
        sys.stdin, sys.stdout
    )
    return 0
