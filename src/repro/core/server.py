"""The integration server: the assembled three-tier middleware.

One :class:`IntegrationServer` hosts the whole stack of Fig. 2 on one
simulated machine: the FDBS (with the fenced UDTF runtime), the WfMS
(client + engine + program registry), the controller, the SQL/MED
bookkeeping, and the three application systems.  ``deploy()`` compiles
a federated function for the selected architecture; ``call()`` runs it
the way an application would — through a SELECT statement against the
FDBS.
"""

from __future__ import annotations

from typing import Callable

from repro.appsys.base import ApplicationSystem, LocalFunction
from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.appsys.pdm import ProductDataManagementSystem
from repro.appsys.purchasing import PurchasingSystem
from repro.appsys.stock import StockKeepingSystem
from repro.core.architectures import Architecture
from repro.core.compile_procedural import compile_procedural
from repro.core.compile_sql_udtf import compile_simple_select, compile_sql_udtf
from repro.core.compile_workflow import compile_workflow, program_id
from repro.core.federated_function import FederatedFunction
from repro.errors import MappingError
from repro.fdbs.engine import Database
from repro.fdbs.options import Options
from repro.fdbs.session import ParseMap
from repro.simtime.costs import CostModel
from repro.simtime.rng import JitterSource
from repro.simtime.trace import ACTIVE_RECORDER, TraceRecorder
from repro.sysmodel.machine import Machine
from repro.udtf.access import register_access_udtfs
from repro.udtf.procedural import register_procedural_iudtf
from repro.udtf.sql_iudtf import create_sql_iudtf
from repro.wfms.api import WfmsClient
from repro.wfms.programs import LocalFunctionProgram, ProgramRegistry
from repro.wrapper.med import MedRegistry
from repro.wrapper.udtf_runtime import FencedFunctionRuntime
from repro.wrapper.wfms_wrapper import WfmsWrapper


def scenario_systems(
    machine: Machine | None, data: EnterpriseData
) -> list[ApplicationSystem]:
    """The purchasing scenario's three application systems, loaded with
    ``data``, in the order the server registers them."""
    return [
        StockKeepingSystem(machine, data),
        PurchasingSystem(machine, data),
        ProductDataManagementSystem(machine, data),
    ]


class IntegrationServer:
    """The paper's middle tier, configured for one architecture."""

    def __init__(
        self,
        architecture: Architecture,
        costs: CostModel | None = None,
        controller_enabled: bool = True,
        data: EnterpriseData | None = None,
        jitter: JitterSource | None = None,
        system_factories: list[Callable[[Machine], ApplicationSystem]] | None = None,
        parses: ParseMap | None = None,
        options: Options | None = None,
        **changes,
    ):
        """``system_factories`` replaces the paper's three application
        systems with custom ones (each factory receives the machine);
        when omitted, the purchasing-scenario trio is built.
        ``parses`` is a parse map the FDBS shares with other databases
        (see :class:`~repro.fdbs.session.ParseMap`).  ``options`` with
        ``changes`` applied (:meth:`Options.resolve
        <repro.fdbs.options.Options.resolve>`) configures the FDBS and the
        machine; the defaults are the paper's measured configuration."""
        self.architecture = architecture
        self.machine = Machine(
            costs=costs, controller_enabled=controller_enabled, jitter=jitter
        )
        self.machine.architecture_tag = architecture.name
        self.data = data if data is not None else generate_enterprise_data()

        # Bottom tier: the encapsulated application systems.
        if system_factories is None:
            systems = scenario_systems(self.machine, self.data)
        else:
            systems = [factory(self.machine) for factory in system_factories]
        self.systems: dict[str, ApplicationSystem] = {
            system.name: system for system in systems
        }
        # The scenario trio by attribute (None where a factory list
        # leaves one out).
        self.stock = self.systems.get("stock")
        self.purchasing = self.systems.get("purchasing")
        self.pdm = self.systems.get("pdm")

        # Middle tier: FDBS with the fenced runtime.
        self.fdbs = Database(
            "integration-fdbs",
            machine=self.machine,
            parses=parses,
            options=Options.resolve(options, **changes),
        )
        self.fdbs.function_runtime = FencedFunctionRuntime(self.fdbs, self.machine)

        # WfMS side: program registry + client + wrapper.
        self.registry = ProgramRegistry()
        for system in self.systems.values():
            for function in system.functions():
                self.registry.register_program(
                    program_id(system.name, function.name),
                    LocalFunctionProgram(
                        system,
                        function.name,
                        [p for p, _ in function.params],
                        [r for r, _ in function.returns],
                        expose_rows=True,
                    ),
                )
        self.wfms_client = WfmsClient(self.machine, self.registry)
        self.wfms_wrapper = WfmsWrapper(self.fdbs, self.wfms_client)

        # SQL/MED bookkeeping (the coupling made explicit).
        self.med = MedRegistry()
        self.med.create_wrapper("WFMS_WRAPPER", "bridges to the workflow engine")
        self.med.create_server("WFMS_SERVER", "WFMS_WRAPPER", self.wfms_wrapper)

        # A-UDTFs: the UDTF architectures build on them; registering them
        # in every configuration also allows mixed queries in examples.
        for system in self.systems.values():
            register_access_udtfs(self.fdbs, system)

        self.deployed: dict[str, FederatedFunction] = {}
        self._simple_queries: dict[str, tuple[str, list[str]]] = {}

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def resolver(self, system: str, function: str) -> LocalFunction:
        """Resolve a local function's signature for the compilers."""
        try:
            appsys = self.systems[system]
        except KeyError:
            raise MappingError(f"unknown application system {system!r}") from None
        return appsys.function(function)

    def deploy(self, fed: FederatedFunction, validate: bool = True) -> None:
        """Compile and register a federated function for the selected
        architecture (``validate=False``: the caller has just validated
        ``fed``).  Raises
        :class:`~repro.errors.UnsupportedMappingError` where the paper's
        Sect. 3 table says 'not supported'."""
        if validate:
            fed.validate()
        if self.architecture is Architecture.WFMS:
            definition = compile_workflow(
                fed, self.resolver, self.registry, validate=False
            )
            self.wfms_wrapper.register_federated_function(
                definition, fed.params, fed.returns
            )
        elif self.architecture is Architecture.ENHANCED_SQL_UDTF:
            ddl = compile_sql_udtf(fed, self.resolver, validate=False)
            create_sql_iudtf(self.fdbs, ddl)
        elif self.architecture is Architecture.ENHANCED_JAVA_UDTF:
            body = compile_procedural(fed, self.resolver, validate=False)
            register_procedural_iudtf(
                self.fdbs, fed.name, fed.params, fed.returns, body
            )
        elif self.architecture is Architecture.SIMPLE_UDTF:
            self._simple_queries[fed.name.upper()] = compile_simple_select(
                fed, self.resolver, validate=False
            )
        else:  # pragma: no cover - enum is closed
            raise MappingError(f"unknown architecture {self.architecture!r}")
        self.deployed[fed.name.upper()] = fed

    # ------------------------------------------------------------------
    # Invocation (the application's view)
    # ------------------------------------------------------------------

    def call(
        self,
        name: str,
        *args: object,
        trace: TraceRecorder | None = None,
    ) -> list[tuple]:
        """Invoke a deployed federated function through the FDBS.

        ``trace`` is the active recorder for the duration of the call:
        every layer the call crosses records its Fig. 6 spans into it.
        """
        fed = self.deployed.get(name.upper())
        if fed is None:
            raise MappingError(f"federated function {name!r} is not deployed")
        if self.architecture is Architecture.SIMPLE_UDTF:
            sql, binding = self._simple_queries[name.upper()]
            by_name = {
                param_name.upper(): value
                for (param_name, _), value in zip(fed.params, args)
            }
            params = [by_name[b.upper()] for b in binding]
        else:
            markers = ", ".join("?" for _ in fed.params)
            sql = f"SELECT * FROM TABLE ({fed.name}({markers})) AS R"
            params = list(args)
        token = ACTIVE_RECORDER.set(trace)
        try:
            return self.fdbs.execute(sql, params=params).rows
        finally:
            ACTIVE_RECORDER.reset(token)

    def call_sql(self, name: str, *args: object) -> str:
        """The SQL text ``call()`` issues (for documentation/tests)."""
        fed = self.deployed.get(name.upper())
        if fed is None:
            raise MappingError(f"federated function {name!r} is not deployed")
        if self.architecture is Architecture.SIMPLE_UDTF:
            return self._simple_queries[name.upper()][0]
        markers = ", ".join("?" for _ in fed.params)
        return f"SELECT * FROM TABLE ({fed.name}({markers})) AS R"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def configure_faults(self, **kwargs) -> None:
        """Configure the fault-injection harness on the server's machine
        (see :meth:`repro.sysmodel.machine.Machine.configure_faults`)."""
        self.machine.configure_faults(**kwargs)

    def boot(self) -> None:
        """(Re)boot the machine: processes stop, caches empty.

        The next ``call()`` pays the start penalties — the paper's
        'right after the entire system has been booted' situation.
        """
        self.machine.boot()
        self.fdbs.statement_cache.invalidate()

    @property
    def now(self) -> float:
        """Current virtual time of the server's machine."""
        return self.machine.clock.now

    def elapsed(self, fn, *args, **kwargs) -> tuple[object, float]:
        """Run ``fn`` and return (result, virtual elapsed time)."""
        start = self.machine.clock.now
        result = fn(*args, **kwargs)
        return result, self.machine.clock.now - start

    def source_stats(self) -> dict:
        """Per-source federation counters keyed by ``source:<server>``.

        Populated when heterogeneous sources are attached (requests,
        pages, rows, rate-limit waits, cache hits per foreign server);
        empty for plain scenarios.  The same counters appear in
        ``SYSCAT_RUNTIME_STATS``.
        """
        return self.fdbs.federation.stats()
