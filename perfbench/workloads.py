"""The benchmark's workloads.

Every workload is one closed-loop client that replays a fixed, seeded list
of operations in *rounds*.  A round is the unit the runner times, checks
and fingerprints: the same seed gives the same operations, so every round
after warm-up must charge the same simulated time and cross every traced
layer the same number of times.

=================  ========================================================
``fedcall``        every federated function of all four architectures, in
                   seeded order, on bare servers (the paper's subject)
``analytics``      a parameterised star-schema query mix in columnar mode
``adhoc_sql``      the SQL-battery corpus on a fresh heterogeneous scenario
                   per round, cost optimizer
``serving_mixed``  the mixed serving profile through two process shards
=================  ========================================================

The program is driven only through its public entry points
(``IntegrationServer.call``, ``Database.execute``,
``ShardedIntegrationServer.submit``, ``runtime_stats``/``source_stats``);
every engine setting is pinned explicitly.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.appsys.datagen import generate_enterprise_data
from repro.core.architectures import Architecture
from repro.core.scenario import build_scenario
from repro.core.server import IntegrationServer
from repro.serving.router import ShardedIntegrationServer
from repro.serving.workload import ARG_POOLS, make_profile_workload, supported_functions
from tests.sql_battery.generator import FAMILY_WEIGHTS, QueryGenerator
from tests.sql_battery.runner import VERIFY_SCRATCH, build_battery_scenario, check_shape

ARCHITECTURES = (
    Architecture.WFMS,
    Architecture.ENHANCED_SQL_UDTF,
    Architecture.ENHANCED_JAVA_UDTF,
    Architecture.SIMPLE_UDTF,
)

#: Hot GetNoSuppComp('gearbox') in simulated ms: the paper's Fig. 6 anchor.
ANCHORS = {Architecture.WFMS: 302.88, Architecture.ENHANCED_SQL_UDTF: 101.84}

#: Calls whose rows differ between architectures in the program as it
#: stands: no stock record exists for supplier 1234 and these components,
#: and the WfMS and Java UDTF paths return one all-NULL row where the SQL
#: paths return none.  Left out of ``fedcall`` so that it measures only
#: calls the program answers consistently.
DIVERGENT_CALLS = {("GetNumberSupp1234", (2,)), ("GetNumberSupp1234", (3,))}

#: Counters read from ``runtime_stats()``/``source_stats()``:
#: (metric stem, component or "source:*", counter key).
COUNTERS = (
    ("fdbs.statement_cache.hits", "statement_cache", "hits"),
    ("fdbs.statement_cache.misses", "statement_cache", "misses"),
    ("fdbs.columnar.chunks_scanned", "columnar", "chunks_scanned"),
    ("fdbs.columnar.chunks_pruned", "columnar", "chunks_pruned"),
    ("fdbs.mvcc.versions_published", "mvcc", "versions_published"),
    ("fdbs.mvcc.snapshots_pinned", "mvcc", "snapshots_pinned"),
    ("fdbs.federation.requests", "source:*", "requests"),
    ("fdbs.federation.rows", "source:*", "rows"),
    ("fdbs.federation.rate_limit_waits", "source:*", "rate_limit_waits"),
    ("sysmodel.rmi.hops", "rmi_*", "calls"),
)


@dataclass(frozen=True)
class Sizes:
    """How much work one round and one set-up does."""

    fedcall_repeats: int = 6
    fact_rows: int = 10_000
    analytics_ops: int = 100
    battery_queries: int = 640
    sessions: int = 16
    steps: int = 40


DEFAULT_SIZES = Sizes()
#: For the benchmark's own tests: every workload in well under a second.
TINY_SIZES = Sizes(
    fedcall_repeats=1,
    fact_rows=1_000,
    analytics_ops=24,
    battery_queries=24,
    sessions=3,
    steps=5,
)


@dataclass
class Failed:
    """Stands in for the output of an operation that raised."""

    error: str


@dataclass
class Round:
    """What one round of a workload did."""

    latencies: list[float]
    wall_s: float
    sim_ms: float
    outputs: list
    write_latencies: list[float] = field(default_factory=list)
    counters: dict[str, int] | None = None
    #: Index of the host-rate sample taken right before the round.
    rate_index: int = 0


def engine_counters(servers) -> dict[str, int]:
    """Sum :data:`COUNTERS` over the FDBS of every server given."""
    totals = dict.fromkeys((stem for stem, _, _ in COUNTERS), 0)
    for server in servers:
        stats = server.fdbs.runtime_stats()
        stats.update(server.source_stats())
        for stem, component, key in COUNTERS:
            if component.endswith("*"):
                prefix = component[:-1]
                totals[stem] += sum(
                    values.get(key, 0)
                    for name, values in stats.items()
                    if name.startswith(prefix)
                )
            else:
                totals[stem] += stats.get(component, {}).get(key, 0)
    return totals


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    """Counter movement between two :func:`engine_counters` snapshots."""
    return {key: after[key] - before[key] for key in after}


class Workload:
    """One closed-loop client replaying a seeded operation list."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 15
    #: How strongly round times and set-up times follow the host
    #: calibration loop's speed (1.0: in proportion).  Set-ups, which
    #: allocate fresh memory, follow it more than rounds.  Measured; see
    #: README.md.
    host_elasticity = 1.0
    setup_elasticity = 1.2

    def __init__(self, seed: int, sizes: Sizes = DEFAULT_SIZES):
        self.seed = seed
        self.sizes = sizes
        self.ops = self.make_ops()

    def make_ops(self) -> list:
        """The round's operations, derived from the seed alone."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the system under test (timed as ``setup_s``)."""

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def prepare_round(self) -> float | None:
        """Per-round set-up outside the round; its seconds, if any."""
        return None

    def run_round(self, tracer=None) -> Round:
        """Run every operation once; ``tracer`` marks a traced round."""
        raise NotImplementedError

    def reference(self) -> list[str]:
        """Work out every expected output before the first round; returns
        the problems found on the way."""
        return []

    def check_round(self, round_: Round) -> int:
        """How many operations of ``round_`` gave a wrong output."""
        raise NotImplementedError

    def final_problems(self) -> list[str]:
        """Checks on the system's state after the last round."""
        return []

    def extra_rss_mb(self) -> float:
        """Peak resident memory of helper processes, in MB."""
        return 0.0


# ---------------------------------------------------------------------------
# fedcall
# ---------------------------------------------------------------------------


class FedCall(Workload):
    """Federated-function calls over bare servers of all architectures."""

    name = "fedcall"

    def make_ops(self) -> list[tuple[Architecture, str, tuple]]:
        # Every function of every architecture appears equally often, so
        # seeds differ in arguments and order, not in the mix's cost.
        rng = random.Random(self.seed)
        ops = []
        for _ in range(self.sizes.fedcall_repeats):
            for architecture in ARCHITECTURES:
                for name in supported_functions(architecture):
                    pool = [
                        args
                        for args in ARG_POOLS[name]
                        if (name, args) not in DIVERGENT_CALLS
                    ]
                    ops.append((architecture, name, rng.choice(pool)))
        rng.shuffle(ops)
        return ops

    def setup(self) -> None:
        data = generate_enterprise_data()
        self.servers = {}
        for architecture in ARCHITECTURES:
            server = build_scenario(
                architecture,
                data=data,
                controller_enabled=True,
                pooling=False,
                result_cache=False,
                optimizer="syntactic",
            ).server
            server.fdbs.set_execution_mode("row")
            self.servers[architecture] = server

    def teardown(self) -> None:
        self.servers = {}

    def run_round(self, tracer=None) -> Round:
        servers = self.servers
        before = engine_counters(servers.values()) if tracer else None
        latencies, outputs = [], []
        sim_ms = 0.0
        started = time.perf_counter()
        for index, (architecture, name, args) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            server = servers[architecture]
            clock = server.machine.clock
            sim_start = clock.now
            op_start = time.perf_counter()
            try:
                rows = server.call(name, *args)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                rows = Failed(repr(exc))
            latencies.append(time.perf_counter() - op_start)
            # Rounded: the clock's absolute value grows, so raw deltas
            # carry float noise that would hide the per-round fingerprint.
            sim_ms += round(clock.now - sim_start, 6)
            outputs.append(rows)
        wall = time.perf_counter() - started
        counters = (
            delta(engine_counters(servers.values()), before) if tracer else None
        )
        return Round(latencies, wall, sim_ms, outputs, counters=counters)

    def reference(self) -> list[str]:
        problems = []
        self.expected = {}
        for _, name, args in self.ops:
            if (name, args) in self.expected:
                continue
            answers = [
                server.call(name, *args)
                for architecture, server in self.servers.items()
                if name in supported_functions(architecture)
            ]
            if any(answer != answers[0] for answer in answers):
                problems.append(f"{name}{args!r}: rows differ across architectures")
            self.expected[(name, args)] = answers[0]
        return problems

    def check_round(self, round_: Round) -> int:
        return sum(
            output != self.expected[(name, args)]
            for (_, name, args), output in zip(self.ops, round_.outputs)
        )

    def final_problems(self) -> list[str]:
        problems = []
        for architecture, anchor in ANCHORS.items():
            server = self.servers[architecture]
            server.call("GetNoSuppComp", "gearbox")
            start = server.machine.clock.now
            server.call("GetNoSuppComp", "gearbox")
            hot = server.machine.clock.now - start
            if round(hot, 2) != anchor:
                problems.append(
                    f"hot GetNoSuppComp on {architecture.name}: {hot} su != {anchor}"
                )
        return problems


# ---------------------------------------------------------------------------
# analytics
# ---------------------------------------------------------------------------

ANALYTICS_DDL = (
    "CREATE TABLE sales (id INT PRIMARY KEY, day INT, store_id INT, "
    "prod_id INT, qty INT, amount INT)",
    "CREATE TABLE store (store_id INT PRIMARY KEY, region INT, sqft INT)",
)
STORES = 8
PRODUCTS = 120
DAYS = 365
LOAD_BATCH = 250
JOIN_DAYS = 60
RANGE_IDS = 100

#: ``amount`` is in cents: columnar and row mode sum DOUBLE columns in a
#: different order, so float totals may differ in the last bit between
#: the timed run and its row-mode oracle.
#: Query shapes: (kind, SQL text).  ``range`` carries literals, because
#: zone-map pruning applies to literal conjuncts only; the rest bind ``?``.
ANALYTICS_SQL = {
    "join_agg": (
        "SELECT s.region, COUNT(*), SUM(f.amount) FROM sales AS f "
        "JOIN store AS s ON f.store_id = s.store_id "
        "WHERE f.day BETWEEN ? AND ? GROUP BY s.region ORDER BY s.region"
    ),
    "group_by": (
        "SELECT f.prod_id, COUNT(*), SUM(f.qty) FROM sales AS f "
        "WHERE f.amount > ? GROUP BY f.prod_id ORDER BY f.prod_id"
    ),
    "top_n": (
        "SELECT f.id, f.amount FROM sales AS f WHERE f.day BETWEEN ? AND ? "
        "ORDER BY f.amount DESC, f.id LIMIT 10"
    ),
    "range": (
        "SELECT COUNT(*), SUM(f.amount) FROM sales AS f "
        "WHERE f.id BETWEEN {lo} AND {hi}"
    ),
    "point": "SELECT f.id, f.day, f.store_id, f.amount FROM sales AS f WHERE f.id = ?",
}
#: Share of each shape in the mix; the heavy scans are rare enough that
#: a run completes over a thousand operations.
ANALYTICS_MIX = (("point", 35), ("range", 40), ("top_n", 13), ("group_by", 6), ("join_agg", 6))


class Analytics(Workload):
    """Star-schema queries over a local fact table in columnar mode."""

    name = "analytics"
    setups = 5
    #: Scans of the fact table slow down more than the loop does.
    host_elasticity = 1.2
    #: Set-up here is mostly loading the fact table through ``INSERT``.
    setup_elasticity = 1.0

    def make_ops(self) -> list[tuple[str, str, tuple]]:
        # Each shape appears a fixed number of times over a fixed width of
        # data, so seeds differ in positions and order, not in the mix's
        # cost.  Small parameter pools keep the row-mode oracle cheap and
        # the statement cache warm.
        rng = random.Random(self.seed)
        rows = self.sizes.fact_rows
        pools = {
            "join_agg": [
                (lo, lo + JOIN_DAYS - 1)
                for lo in (rng.randrange(DAYS - JOIN_DAYS) for _ in range(3))
            ],
            "group_by": [(rng.randrange(45_000, 55_000),) for _ in range(4)],
            "top_n": [(d, d + 3) for d in (rng.randrange(DAYS - 3) for _ in range(8))],
            "range": [
                (lo, lo + RANGE_IDS - 1)
                for lo in (rng.randrange(rows - RANGE_IDS) for _ in range(32))
            ],
        }
        total = sum(weight for _, weight in ANALYTICS_MIX)
        ops = []
        for kind, weight in ANALYTICS_MIX:
            for _ in range(self.sizes.analytics_ops * weight // total):
                sql = ANALYTICS_SQL[kind]
                if kind == "point":
                    params = (rng.randrange(rows),)
                elif kind == "range":
                    lo, hi = rng.choice(pools["range"])
                    sql, params = sql.format(lo=lo, hi=hi), ()
                else:
                    params = rng.choice(pools[kind])
                ops.append((kind, sql, params))
        rng.shuffle(ops)
        return ops

    def setup(self) -> None:
        server = IntegrationServer(
            Architecture.ENHANCED_SQL_UDTF,
            pooling=False,
            result_cache=False,
            optimizer="syntactic",
            chunk_size=1024,
        )
        fdbs = server.fdbs
        fdbs.set_execution_mode("columnar")
        fdbs.set_zone_maps(True)
        for ddl in ANALYTICS_DDL:
            fdbs.execute(ddl)
        rng = random.Random(self.seed + 1)
        rows = self.sizes.fact_rows
        batch_sql = "INSERT INTO sales VALUES " + ", ".join(
            ["(?, ?, ?, ?, ?, ?)"] * LOAD_BATCH
        )
        params: list = []
        for row_id in range(rows):
            params += [
                row_id,
                row_id * DAYS // rows,
                rng.randrange(STORES),
                rng.randrange(PRODUCTS),
                rng.randint(1, 20),
                rng.randrange(100, 100_000),
            ]
            if len(params) == 6 * LOAD_BATCH:
                fdbs.execute(batch_sql, params=params)
                params = []
        for row_id in range(len(params) // 6):
            fdbs.execute(
                "INSERT INTO sales VALUES (?, ?, ?, ?, ?, ?)",
                params=params[6 * row_id : 6 * row_id + 6],
            )
        for store_id in range(STORES):
            fdbs.execute(
                "INSERT INTO store VALUES (?, ?, ?)",
                params=[store_id, store_id % 4, 1000 + 10 * store_id],
            )
        self.server = server

    def teardown(self) -> None:
        self.server = None

    def run_round(self, tracer=None) -> Round:
        server = self.server
        fdbs = server.fdbs
        clock = server.machine.clock
        before = engine_counters([server]) if tracer else None
        latencies, outputs = [], []
        sim_start = clock.now
        started = time.perf_counter()
        for index, (_, sql, params) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            op_start = time.perf_counter()
            try:
                rows = fdbs.execute(sql, params=list(params)).rows
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                rows = Failed(repr(exc))
            latencies.append(time.perf_counter() - op_start)
            outputs.append(rows)
        wall = time.perf_counter() - started
        counters = delta(engine_counters([server]), before) if tracer else None
        sim_ms = round(clock.now - sim_start, 6)
        return Round(latencies, wall, sim_ms, outputs, counters=counters)

    def reference(self) -> list[str]:
        fdbs = self.server.fdbs
        fdbs.set_execution_mode("row")
        self.oracle = {}
        try:
            for _, sql, params in self.ops:
                if (sql, params) not in self.oracle:
                    self.oracle[(sql, params)] = fdbs.execute(sql, params=list(params)).rows
        finally:
            fdbs.set_execution_mode("columnar")
        return []

    def check_round(self, round_: Round) -> int:
        return sum(
            output != self.oracle[(sql, params)]
            for (_, sql, params), output in zip(self.ops, round_.outputs)
        )


# ---------------------------------------------------------------------------
# adhoc_sql
# ---------------------------------------------------------------------------

ADHOC_ARCHITECTURE = Architecture.WFMS


def _same_rows(query, rows, expected) -> bool:
    """Battery contract across optimizers: ordered lists or multisets."""
    if query.total_order:
        return rows == expected
    return Counter(map(tuple, rows)) == Counter(map(tuple, expected))


class AdhocSql(Workload):
    """The SQL-battery corpus, one fresh heterogeneous scenario per round."""

    name = "adhoc_sql"
    #: Every round builds a fresh scenario; those builds are the samples.
    setups = 1

    def make_ops(self) -> list:
        # The battery generator, with each query family drawn in a fixed
        # share of the corpus (its weight) rather than at random, so that
        # seeds differ in the queries, not in the family mix's cost.
        generator = QueryGenerator(self.seed)
        families = [name for name, weight in FAMILY_WEIGHTS for _ in range(weight)]
        count = self.sizes.battery_queries
        plan = families * (count // len(families))
        plan += generator.rng.sample(families, count % len(families))
        generator.rng.shuffle(plan)
        return [getattr(generator, family)() for family in plan]

    def setup(self) -> None:
        self.data = generate_enterprise_data()

    def prepare_round(self, mode: str = "columnar", optimizer: str = "cost") -> float:
        started = time.perf_counter()
        self.scenario = build_battery_scenario(
            ADHOC_ARCHITECTURE, mode, optimizer, data=self.data
        )
        return time.perf_counter() - started

    def run_round(self, tracer=None) -> Round:
        server = self.scenario.server
        fdbs = server.fdbs
        clock = server.machine.clock
        before = engine_counters([server]) if tracer else None
        latencies, writes, outputs = [], [], []
        sim_start = clock.now
        started = time.perf_counter()
        for index, query in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            op_start = time.perf_counter()
            try:
                result = fdbs.execute(query.sql)
                output = (result.rowcount, result.rows)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                output = Failed(repr(exc))
            elapsed = time.perf_counter() - op_start
            latencies.append(elapsed)
            if query.kind == "dml":
                writes.append(elapsed)
            outputs.append(output)
        wall = time.perf_counter() - started
        sim_ms = clock.now - sim_start
        counters = delta(engine_counters([server]), before) if tracer else None
        outputs.append(list(fdbs.execute(VERIFY_SCRATCH).rows))
        return Round(latencies, wall, sim_ms, outputs, writes, counters=counters)

    def reference(self) -> list[str]:
        self.prepare_round("row", "syntactic")
        self.oracle = self.run_round().outputs
        self.scenario = None
        failed = [o for o in self.oracle if isinstance(o, Failed)]
        return [f"the row-mode oracle failed: {o.error}" for o in failed]

    def check_round(self, round_: Round) -> int:
        failed = 0
        for query, output, expected in zip(self.ops, round_.outputs, self.oracle):
            if isinstance(output, Failed):
                failed += 1
                continue
            rowcount, rows = output
            try:
                check_shape(query, rows)
            except AssertionError:
                failed += 1
                continue
            if query.kind == "dml":
                failed += rowcount != expected[0]
            else:
                failed += not _same_rows(query, rows, expected[1])
        # The scratch table after the pass: every write landed as in the oracle.
        return failed + (round_.outputs[-1] != self.oracle[-1])


# ---------------------------------------------------------------------------
# serving_mixed
# ---------------------------------------------------------------------------

SHARDS = 2
SERVING_TIMEOUT_S = 120.0


def _is_write(call) -> bool:
    return call.kind == "sql" and call.target.split(None, 1)[0] in (
        "INSERT",
        "UPDATE",
        "DELETE",
    )


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def replay_bare(data, script) -> tuple[list, list[float]]:
    """One script on a bare single-caller server: rows and per-call times."""
    server = build_scenario(script.architecture, data=data).server
    rows, call_sims = [], []
    for call in script.calls:
        before = server.machine.clock.now
        if call.kind == "call":
            rows.append(server.call(call.target, *call.args))
        else:
            rows.append(list(server.fdbs.execute(call.target, params=list(call.args)).rows))
        call_sims.append(server.machine.clock.now - before)
    return rows, call_sims


class ServingMixed(Workload):
    """The mixed serving profile across two process shards."""

    name = "serving_mixed"
    #: Set-up here is mostly spawning the shard processes.
    setup_elasticity = 0.7

    def make_ops(self) -> list:
        return make_profile_workload(
            "mixed",
            self.seed,
            sessions=self.sizes.sessions,
            calls_per_session=self.sizes.steps,
        )

    def setup(self) -> None:
        self.data = generate_enterprise_data()
        self.server = ShardedIntegrationServer(
            shards=SHARDS,
            data=self.data,
            admission_policy="block",
            start_method="fork",
            controller_enabled=True,
            pooling=False,
            result_cache=False,
            optimizer="syntactic",
            execution_mode="row",
            rmi_wall_latency_s=0.0,
        )
        deadline = time.monotonic() + 60.0
        while not all(s["ready"] for s in self.server.shard_stats().values()):
            if time.monotonic() > deadline:
                raise RuntimeError("shards did not report ready within 60 s")
            # Short: a spawn takes a few ms, so coarser polls would
            # dominate the set-up time.
            time.sleep(0.0002)

    def teardown(self) -> None:
        server, self.server = getattr(self, "server", None), None
        if server is not None:
            server.shutdown()

    def run_round(self, tracer=None) -> Round:
        server = self.server
        futures, spans = [], []
        started = time.perf_counter()
        for index, script in enumerate(self.ops):
            if tracer is not None:
                tracer.op = index
            future = server.submit(script, timeout=SERVING_TIMEOUT_S)
            if tracer is not None:
                span = [time.perf_counter(), None]
                future.add_done_callback(
                    lambda _, span=span: span.__setitem__(1, time.perf_counter())
                )
                spans.append(span)
            futures.append(future)
        outcomes = [future.result(timeout=SERVING_TIMEOUT_S) for future in futures]
        wall = time.perf_counter() - started
        latencies, writes = [], []
        for script, outcome in zip(self.ops, outcomes):
            latencies += outcome.latencies
            writes += [
                latency
                for call, latency in zip(script.calls, outcome.latencies)
                if _is_write(call)
            ]
        for (start, end), outcome in zip(spans, outcomes):
            tracer.record("serving.session", start, end, end - start - sum(outcome.latencies))
        outputs = [(o.row_sets, o.call_sim_ms, o.simulated_ms) for o in outcomes]
        sim_ms = sum(o.simulated_ms for o in outcomes)
        counters = dict.fromkeys((stem for stem, _, _ in COUNTERS), 0) if tracer else None
        return Round(latencies, wall, sim_ms, outputs, writes, counters=counters)

    def extra_rss_mb(self) -> float:
        return sum(
            _vm_hwm_mb(stats["pid"]) for stats in self.server.shard_stats().values()
        )

    def reference(self) -> list[str]:
        self.replays = [replay_bare(self.data, script) for script in self.ops]
        return []

    def check_round(self, round_: Round) -> int:
        """A step fails when its rows or its simulated time differ from the
        bare-stack replay; a session whose total differs fails once more."""
        failed = 0
        for (rows, sims), (got_rows, got_sims, got_total) in zip(
            self.replays, round_.outputs
        ):
            failed += abs(len(got_rows) - len(rows))
            failed += sum(
                got != want or got_sim != sim
                for got, want, got_sim, sim in zip(got_rows, rows, got_sims, sims)
            )
            failed += got_total != sum(sims)
        return failed


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (FedCall, Analytics, AdhocSql, ServingMixed)
}
