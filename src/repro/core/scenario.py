"""The paper's purchasing scenario: all named federated functions.

Builds the mapping graphs for every federated function the paper
mentions (plus the two fan-shaped dependent cases its Sect. 3 text
describes without naming), ordered by mapping complexity:

========================  =====================  ==================
federated function        heterogeneity case     #local functions
========================  =====================  ==================
GibKompNr                 trivial                1
GetNumberSupp1234         simple                 1
GetSuppQual               dependent: linear      2
GetSuppQualRelia          independent            2
GetSubCompDiscounts       independent (join)     2
GetSuppGrade              dependent: (1:n)       3
GetSuppQualReliaByName    dependent: (n:1)       3
GetNoSuppComp             general                3   (Fig. 6 anchor)
BuySuppComp               general                5   (Fig. 1)
AllCompNames              dependent: cyclic      1 (iterated)
========================  =====================  ==================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable

from repro.appsys.base import ApplicationSystem, load_table
from repro.appsys.datagen import EnterpriseData, generate_enterprise_data
from repro.core.architectures import Architecture, supports
from repro.core.compile_sql_udtf import FunctionResolver
from repro.core.federated_function import FederatedFunction
from repro.core.mapping import (
    Const,
    FedInput,
    JoinCondition,
    LocalCall,
    LoopCall,
    MappingGraph,
    NodeOutput,
    OutputSpec,
    classify,
)
from repro.core.server import CompiledFunction, IntegrationServer, compile_function
from repro.fdbs.federation import (
    ARCHIVE_PROFILE,
    CACHE_FRONTED_PROFILE,
    WEB_API_PROFILE,
    DatabaseEndpoint,
    SourceProfile,
)
from repro.fdbs.options import Options
from repro.fdbs.session import ParseMap
from repro.fdbs.types import BIGINT, INTEGER, VARCHAR
from repro.simtime.costs import CostModel
from repro.simtime.rng import JitterSource
from repro.sysmodel.machine import Machine


def scenario_functions() -> list[FederatedFunction]:
    """All federated functions of the scenario, simplest first."""
    functions: list[FederatedFunction] = []

    # Trivial: the German GibKompNr maps 1:1 onto GetCompNo.
    functions.append(
        FederatedFunction(
            name="GibKompNr",
            params=[("KompName", VARCHAR(60))],
            returns=[("Nr", INTEGER)],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GKN", "pdm", "GetCompNo",
                        args={"CompName": FedInput("KompName")},
                    )
                ],
                outputs=[OutputSpec("Nr", NodeOutput("GKN", "No"))],
            ),
            description="German rename of GetCompNo (trivial case)",
        )
    )

    # Simple: constant supplier 1234 plus an INT -> BIGINT result cast.
    functions.append(
        FederatedFunction(
            name="GetNumberSupp1234",
            params=[("CompNo", INTEGER)],
            returns=[("Number", BIGINT)],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GN", "stock", "GetNumber",
                        args={
                            "SupplierNo": Const(1234),
                            "CompNo": FedInput("CompNo"),
                        },
                    )
                ],
                outputs=[
                    OutputSpec("Number", NodeOutput("GN", "Number"), cast=BIGINT)
                ],
            ),
            description="stock number for supplier 1234 (simple case)",
        )
    )

    # Dependent, linear: supplier name -> number -> quality.
    functions.append(
        FederatedFunction(
            name="GetSuppQual",
            params=[("SupplierName", VARCHAR(60))],
            returns=[("Qual", INTEGER)],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GSN", "purchasing", "GetSupplierNo",
                        args={"SupplierName": FedInput("SupplierName")},
                    ),
                    LocalCall(
                        "GQ", "stock", "GetQuality",
                        args={"SupplierNo": NodeOutput("GSN", "SupplierNo")},
                    ),
                ],
                outputs=[OutputSpec("Qual", NodeOutput("GQ", "Qual"))],
            ),
            description="supplier quality by name (linear dependency)",
        )
    )

    # Independent: quality and reliability in parallel.
    functions.append(
        FederatedFunction(
            name="GetSuppQualRelia",
            params=[("SupplierNo", INTEGER)],
            returns=[("Qual", INTEGER), ("Relia", INTEGER)],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GQ", "stock", "GetQuality",
                        args={"SupplierNo": FedInput("SupplierNo")},
                    ),
                    LocalCall(
                        "GR", "purchasing", "GetReliability",
                        args={"SupplierNo": FedInput("SupplierNo")},
                    ),
                ],
                outputs=[
                    OutputSpec("Qual", NodeOutput("GQ", "Qual")),
                    OutputSpec("Relia", NodeOutput("GR", "Relia")),
                ],
            ),
            description="quality and reliability (independent case)",
        )
    )

    # Independent with join composition (the paper's Sect. 3 example).
    functions.append(
        FederatedFunction(
            name="GetSubCompDiscounts",
            params=[("CompNo", INTEGER), ("Discount", INTEGER)],
            returns=[("SubCompNo", INTEGER), ("SupplierNo", INTEGER)],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GSCD", "pdm", "GetSubCompNo",
                        args={"CompNo": FedInput("CompNo")},
                    ),
                    LocalCall(
                        "GCS4D", "purchasing", "GetCompSupp4Discount",
                        args={"Discount": FedInput("Discount")},
                    ),
                ],
                outputs=[
                    OutputSpec("SubCompNo", NodeOutput("GSCD", "SubCompNo")),
                    OutputSpec("SupplierNo", NodeOutput("GCS4D", "SupplierNo")),
                ],
                joins=[
                    JoinCondition(
                        NodeOutput("GSCD", "SubCompNo"),
                        NodeOutput("GCS4D", "CompNo"),
                    )
                ],
            ),
            description="discounted sub-components (independent + join)",
        )
    )

    # Dependent (1:n): GetGrade consumes two parallel producers.
    functions.append(
        FederatedFunction(
            name="GetSuppGrade",
            params=[("SupplierNo", INTEGER)],
            returns=[("Grade", INTEGER)],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GQ", "stock", "GetQuality",
                        args={"SupplierNo": FedInput("SupplierNo")},
                    ),
                    LocalCall(
                        "GR", "purchasing", "GetReliability",
                        args={"SupplierNo": FedInput("SupplierNo")},
                    ),
                    LocalCall(
                        "GG", "purchasing", "GetGrade",
                        args={
                            "Qual": NodeOutput("GQ", "Qual"),
                            "Relia": NodeOutput("GR", "Relia"),
                        },
                    ),
                ],
                outputs=[OutputSpec("Grade", NodeOutput("GG", "Grade"))],
            ),
            description="supplier grade (dependent 1:n)",
        )
    )

    # Dependent (n:1): one lookup feeds two consumers.
    functions.append(
        FederatedFunction(
            name="GetSuppQualReliaByName",
            params=[("SupplierName", VARCHAR(60))],
            returns=[("Qual", INTEGER), ("Relia", INTEGER)],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GSN", "purchasing", "GetSupplierNo",
                        args={"SupplierName": FedInput("SupplierName")},
                    ),
                    LocalCall(
                        "GQ", "stock", "GetQuality",
                        args={"SupplierNo": NodeOutput("GSN", "SupplierNo")},
                    ),
                    LocalCall(
                        "GR", "purchasing", "GetReliability",
                        args={"SupplierNo": NodeOutput("GSN", "SupplierNo")},
                    ),
                ],
                outputs=[
                    OutputSpec("Qual", NodeOutput("GQ", "Qual")),
                    OutputSpec("Relia", NodeOutput("GR", "Relia")),
                ],
            ),
            description="quality and reliability by name (dependent n:1)",
        )
    )

    # General, 3 calls: the Fig. 6 anchor function.
    functions.append(
        FederatedFunction(
            name="GetNoSuppComp",
            params=[("CompName", VARCHAR(60))],
            returns=[("Number", INTEGER), ("SupplierNo", INTEGER)],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GCN", "pdm", "GetCompNo",
                        args={"CompName": FedInput("CompName")},
                    ),
                    LocalCall(
                        "GS", "stock", "GetSupplier",
                        args={"CompNo": NodeOutput("GCN", "No")},
                    ),
                    LocalCall(
                        "GN", "stock", "GetNumber",
                        args={
                            "SupplierNo": NodeOutput("GS", "SupplierNo"),
                            "CompNo": NodeOutput("GCN", "No"),
                        },
                    ),
                ],
                outputs=[
                    OutputSpec("Number", NodeOutput("GN", "Number")),
                    OutputSpec("SupplierNo", NodeOutput("GS", "SupplierNo")),
                ],
            ),
            description="stock number and supplier for a component "
            "(general case, Fig. 6 anchor)",
        )
    )

    # General, 5 calls: the Fig. 1 flagship BuySuppComp.
    functions.append(
        FederatedFunction(
            name="BuySuppComp",
            params=[("SupplierNo", INTEGER), ("CompName", VARCHAR(60))],
            returns=[("Answer", VARCHAR(40))],
            mapping=MappingGraph(
                nodes=[
                    LocalCall(
                        "GQ", "stock", "GetQuality",
                        args={"SupplierNo": FedInput("SupplierNo")},
                    ),
                    LocalCall(
                        "GR", "purchasing", "GetReliability",
                        args={"SupplierNo": FedInput("SupplierNo")},
                    ),
                    LocalCall(
                        "GG", "purchasing", "GetGrade",
                        args={
                            "Qual": NodeOutput("GQ", "Qual"),
                            "Relia": NodeOutput("GR", "Relia"),
                        },
                    ),
                    LocalCall(
                        "GCN", "pdm", "GetCompNo",
                        args={"CompName": FedInput("CompName")},
                    ),
                    LocalCall(
                        "DP", "purchasing", "DecidePurchase",
                        args={
                            "Grade": NodeOutput("GG", "Grade"),
                            "No": NodeOutput("GCN", "No"),
                        },
                    ),
                ],
                outputs=[OutputSpec("Answer", NodeOutput("DP", "Answer"))],
            ),
            description="the Fig. 1 purchase decision (general case)",
        )
    )

    # Dependent, cyclic: iterate GetCompName over a component range.
    functions.append(
        FederatedFunction(
            name="AllCompNames",
            params=[("FromNo", INTEGER), ("ToNo", INTEGER)],
            returns=[("CompName", VARCHAR(60))],
            mapping=MappingGraph(
                nodes=[
                    LoopCall(
                        "ACN", "pdm", "GetCompName",
                        counter_param="CompNo",
                        start=FedInput("FromNo"),
                        end=FedInput("ToNo"),
                    )
                ],
                outputs=[OutputSpec("CompName", NodeOutput("ACN", "CompName"))],
            ),
            description="all component names via a do-until loop "
            "(cyclic case; WfMS / procedural only)",
        )
    )

    for fed in functions:
        fed.validate()
    return functions


@dataclass
class Scenario:
    """A deployed scenario: server + functions (+ what was skipped)."""

    server: IntegrationServer
    functions: dict[str, FederatedFunction] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)
    """Functions the architecture cannot express, with the reason."""

    def function(self, name: str) -> FederatedFunction:
        """The deployed federated function named ``name``."""
        return self.functions[name.upper()]

    def call(self, name: str, *args: object, trace=None) -> list[tuple]:
        """Invoke a deployed federated function through the server."""
        return self.server.call(name, *args, trace=trace)


@dataclass(frozen=True)
class Deployment:
    """Federated functions compiled for one architecture, plus those the
    architecture cannot express (name -> reason)."""

    compiled: tuple[CompiledFunction, ...]
    skipped: dict[str, str]


def compile_deployment(
    architecture: Architecture,
    functions: list[FederatedFunction],
    resolver: FunctionResolver,
) -> Deployment:
    """Compile every function of ``functions`` (already validated) that
    ``architecture`` supports; the others are recorded as skipped."""
    compiled: list[CompiledFunction] = []
    skipped: dict[str, str] = {}
    for fed in functions:
        case = classify(fed.mapping, validate=False)
        if supports(architecture, case):
            compiled.append(compile_function(architecture, fed, resolver))
        else:
            skipped[fed.name.upper()] = (
                f"{case.value} is not supported by the "
                f"{architecture.value} architecture"
            )
    return Deployment(tuple(compiled), skipped)


def build_scenario(
    architecture: Architecture,
    costs: CostModel | None = None,
    controller_enabled: bool = True,
    data: EnterpriseData | None = None,
    jitter: JitterSource | None = None,
    faults: dict | None = None,
    heterogeneous: bool = False,
    system_factories: list[Callable[[Machine], ApplicationSystem]] | None = None,
    parses: ParseMap | None = None,
    deployment: Deployment | None = None,
    options: Options | None = None,
    **changes,
) -> Scenario:
    """Stand up an integration server and deploy every federated
    function the architecture supports; unsupported ones (the cyclic
    case outside WfMS/procedural) are recorded in ``skipped``.
    ``options`` with ``changes`` applied (:meth:`Options.resolve
    <repro.fdbs.options.Options.resolve>`) configures the server;
    ``faults`` is forwarded to
    :meth:`~repro.core.server.IntegrationServer.configure_faults`;
    ``heterogeneous`` additionally
    federates the three heterogeneous source profiles (see
    :func:`attach_heterogeneous_sources`); ``system_factories`` and
    ``parses`` go to :class:`~repro.core.server.IntegrationServer`, and
    ``deployment`` replaces compiling :func:`scenario_functions` for
    ``architecture`` (:func:`compile_deployment`) against this server's
    systems (the serving layer's session templates pass forked
    application systems, their shared parse map and the deployment they
    compiled once)."""
    server = IntegrationServer(
        architecture,
        costs=costs,
        controller_enabled=controller_enabled,
        data=data if data is not None else generate_enterprise_data(),
        jitter=jitter,
        system_factories=system_factories,
        parses=parses,
        options=Options.resolve(options, **changes),
    )
    if faults:
        server.configure_faults(**faults)
    if heterogeneous:
        attach_heterogeneous_sources(server.fdbs, data=server.data)
    if deployment is None:
        # scenario_functions() validates each function once.
        deployment = compile_deployment(
            architecture, scenario_functions(), server.resolver
        )
    scenario = Scenario(server, skipped=dict(deployment.skipped))
    for compiled in deployment.compiled:
        server.install(compiled)
        scenario.functions[compiled.fed.name.upper()] = compiled.fed
    return scenario


# ===========================================================================
# Heterogeneous federated sources (three distinct cost profiles)
# ===========================================================================

#: Foreign server name -> (profile, nickname, remote table).
HETEROGENEOUS_SOURCES: dict[str, tuple[SourceProfile, str, str]] = {
    "RATINGS_API": (WEB_API_PROFILE, "api_ratings", "ratings"),
    "ORDER_ARCHIVE": (ARCHIVE_PROFILE, "arch_orders", "orders_hist"),
    "COMP_CATALOG": (CACHE_FRONTED_PROFILE, "cat_components", "catalog_comp"),
}


def attach_heterogeneous_sources(fdbs, data: EnterpriseData | None = None, seed: int = 7):
    """Federate three heterogeneous sources into ``fdbs``.

    Creates one foreign server per :data:`HETEROGENEOUS_SOURCES` entry,
    each backed by its own in-process remote database and priced by its
    own :class:`~repro.fdbs.federation.SourceProfile`:

    * ``RATINGS_API`` / nickname ``api_ratings`` — a web-API-style
      supplier-rating service (expensive paged requests, rate-limit
      budget with retry/backoff);
    * ``ORDER_ARCHIVE`` / nickname ``arch_orders`` — an order-history
      archive (bulk scans nearly free, predicated lookups expensive);
    * ``COMP_CATALOG`` / nickname ``cat_components`` — the component
      catalog behind a response cache (repeating the same SQL is
      almost free).

    The remote rows are deterministic for a given ``seed`` and drawn
    from the enterprise universe (``data``), NULL-heavy with DECIMAL
    and VARCHAR columns.  Returns the remote databases by server name.
    Per-source counters appear in SYSCAT_RUNTIME_STATS as
    ``source:<server>`` components.
    """
    from repro.fdbs.engine import Database

    if data is None:
        data = generate_enterprise_data()
    rng = random.Random(seed)
    supplier_nos = [supplier.supplier_no for supplier in data.suppliers]

    ratings = Database("remote-ratings-api", parses=fdbs.parses)
    ratings.execute(
        "CREATE TABLE ratings (supplier_no INT, score DECIMAL(6,2), "
        "reviewer VARCHAR(12), note VARCHAR(20))"
    )
    reviewers = ["auditor", "field", "panel", None]
    notes = ["prompt", "late", "damaged", "spotless", None, None]
    rows = []
    for _ in range(120):
        score = (
            None
            if rng.random() < 0.2
            else Decimal(rng.randint(0, 1000)) / Decimal(100)
        )
        rows.append(
            (
                rng.choice(supplier_nos),
                score,
                rng.choice(reviewers),
                rng.choice(notes),
            )
        )
    load_table(ratings, "ratings", rows)

    archive = Database("remote-order-archive", parses=fdbs.parses)
    archive.execute(
        "CREATE TABLE orders_hist (order_no INT PRIMARY KEY, supplier_no INT, "
        "comp_no INT, qty INT, price DECIMAL(8,2))"
    )
    rows = []
    for order_no in range(1, 241):
        price = (
            None
            if rng.random() < 0.1
            else Decimal(rng.randint(100, 999999)) / Decimal(100)
        )
        rows.append(
            (
                order_no,
                rng.choice(supplier_nos),
                rng.choice(data.components).comp_no,
                rng.randint(1, 500),
                price,
            )
        )
    load_table(archive, "orders_hist", rows)

    catalog = Database("remote-comp-catalog", parses=fdbs.parses)
    catalog.execute(
        "CREATE TABLE catalog_comp (comp_no INT PRIMARY KEY, "
        "name VARCHAR(30), weight DECIMAL(7,3))"
    )
    rows = []
    for component in data.components:
        weight = (
            None
            if rng.random() < 0.1
            else Decimal(rng.randint(1, 500000)) / Decimal(1000)
        )
        rows.append((component.comp_no, component.name, weight))
    load_table(catalog, "catalog_comp", rows)

    remotes = {
        "RATINGS_API": ratings,
        "ORDER_ARCHIVE": archive,
        "COMP_CATALOG": catalog,
    }
    fdbs.execute("CREATE WRAPPER hetero_wrapper")
    for server_name, (profile, nickname, remote_table) in HETEROGENEOUS_SOURCES.items():
        fdbs.execute(f"CREATE SERVER {server_name} WRAPPER hetero_wrapper")
        fdbs.attach_endpoint(
            server_name, DatabaseEndpoint(remotes[server_name]), profile=profile
        )
        fdbs.execute(
            f"CREATE NICKNAME {nickname} FOR {server_name}.{remote_table}"
        )
    return remotes
