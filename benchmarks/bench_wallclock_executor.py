"""Wall-clock microbenchmark — row vs columnar execution.

Unlike the E4–E8 / X1–X4 benchmarks, which reproduce the paper's
*virtual-time* figures, this bench measures **real elapsed seconds** of
the FDBS executor on two workloads over a synthetic star schema:

* the original scan → filter → join → aggregate query (100k-row fact
  table by default), timed in both execution modes, and
* a selective scan-aggregate over a 1M-row fact table (``id BETWEEN``
  on the monotonically increasing key), where columnar mode's zone-map
  chunk pruning skips almost every chunk.  The pruning speedup is the
  zone-maps-off ablation's time over the same columnar scan with zone
  maps on; a selectivity sweep of the same comparison is reported
  alongside, and
* a ``v BETWEEN ? AND ?`` scan-aggregate over a column that ascends
  inside every chunk, against the same rows shuffled (reported, not
  gated).  ``v`` restarts at 0 in each chunk, so every chunk's zone
  spans the bounds and none is pruned: the ordered table's filter finds
  each chunk's run by binary search, the shuffled one compares row by
  row, and
* a bulk load of 10,000 six-column rows three ways (reported, not
  gated): 40 executions of one 250-row ``INSERT … VALUES (?, …), …``
  text, one ``execute_many`` of a one-row template, and 10,000
  one-row INSERTs of one text.  All three reuse the text's cached
  compiled form after its first hit.

Row mode runs the Volcano engine with a nested-loop join; columnar mode
the column-batch operators over storage chunks with a hash equi-join
and zone-map pruning.
Results are written to ``BENCH_executor.json`` in the repository root.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_wallclock_executor.py --rows 100000

or through pytest (deselected by default via the ``perf`` marker)::

    PYTHONPATH=src python -m pytest benchmarks/bench_wallclock_executor.py -m perf -s
"""

import argparse
import json
import random
import statistics
import time
from pathlib import Path

import pytest

from repro.fdbs.engine import Database
from repro.fdbs.storage import DEFAULT_CHUNK_SIZE

DEFAULT_FACT_ROWS = 100_000
DEFAULT_PRUNE_ROWS = 1_000_000
DIM_ROWS = 64
MODES = ("row", "columnar")
QUERY = (
    "SELECT d.region, COUNT(*), SUM(f.amount) "
    "FROM fact AS f JOIN dim AS d ON f.dim_id = d.dim_id "
    "WHERE f.amount > 25.0 "
    "GROUP BY d.region "
    "ORDER BY d.region"
)
#: Selective scan-aggregate: ``id`` is monotonically increasing, so the
#: BETWEEN range maps to a handful of chunks and zone maps prune the rest.
PRUNE_QUERY = (
    "SELECT COUNT(*), SUM(f.amount) FROM fact AS f "
    "WHERE f.id BETWEEN {lo} AND {hi}"
)
#: Ordered-vs-shuffled scan-aggregate over a tenth of ``v``'s range.
ORDERED_QUERY = "SELECT COUNT(*), SUM(amount) FROM seq WHERE v BETWEEN ? AND ?"
#: Timed executions per table of the ordered-vs-shuffled row (median).
ORDERED_REPEATS = 5
#: Rows loaded by the bulk-load row, and rows per multi-row INSERT.
LOAD_ROWS = 10_000
LOAD_BATCH = 250
#: Timed loads per way of the bulk-load row (median).
LOAD_REPEATS = 5
LOAD_DDL = "CREATE TABLE load (id INT PRIMARY KEY, a INT, b INT, c INT, d INT, e INT)"
#: Fractions of the fact table selected by the pruning sweep.
SWEEP_SELECTIVITIES = (0.001, 0.01, 0.1, 0.5)
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_executor.json"


def build(mode: str, fact_rows: int) -> Database:
    """One database with a fact and a dimension table, rows preloaded."""
    db = Database("bench", execution_mode=mode)
    db.execute(
        "CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT, amount DOUBLE)"
    )
    db.execute("CREATE TABLE dim (dim_id INT PRIMARY KEY, region INT)")
    fact = db.catalog.get_table("fact").storage
    dim = db.catalog.get_table("dim").storage
    assert fact is not None and dim is not None
    for index in range(fact_rows):
        fact.insert((index, index % DIM_ROWS, float(index % 101)))
    for index in range(DIM_ROWS):
        dim.insert((index, index % 8))
    return db


def time_query(db: Database, query: str) -> tuple[float, list[tuple]]:
    """Elapsed seconds and result rows for one warmed execution."""
    db.execute(query)  # warm the statement cache / plan path
    start = time.perf_counter()
    result = db.execute(query)
    return time.perf_counter() - start, result.rows


def run_join(fact_rows: int) -> dict:
    """Time the join query in both modes and summarize."""
    seconds: dict[str, float] = {}
    rows: dict[str, list[tuple]] = {}
    for mode in MODES:
        seconds[mode], rows[mode] = time_query(build(mode, fact_rows), QUERY)
    return {
        "benchmark": "wallclock_executor",
        "query": QUERY,
        "fact_rows": fact_rows,
        "dim_rows": DIM_ROWS,
        "row_seconds": round(seconds["row"], 6),
        "columnar_seconds": round(seconds["columnar"], 6),
        "speedup": round(seconds["row"] / seconds["columnar"], 3),
        "parity": rows["row"] == rows["columnar"],
        "result_groups": len(rows["row"]),
    }


def run_pruning(fact_rows: int) -> dict:
    """Selective scan-aggregate: columnar with zone maps on vs off (the
    pruning speedup), plus the same comparison over a selectivity sweep."""
    lo = fact_rows // 2
    hi = lo + max(1, fact_rows // 1000) - 1
    query = PRUNE_QUERY.format(lo=lo, hi=hi)

    db = build("columnar", fact_rows)

    def zones_on_and_off(sql: str) -> tuple[float, float, bool]:
        """Seconds with zone maps on, then off, and whether rows agree."""
        on_seconds, on_rows = time_query(db, sql)
        db.configure(zone_maps=False)
        off_seconds, off_rows = time_query(db, sql)
        db.configure(zone_maps=True)
        return on_seconds, off_seconds, on_rows == off_rows

    columnar_seconds, ablation_seconds, parity = zones_on_and_off(query)
    counters = db.columnar_stats()

    sweep = []
    for selectivity in SWEEP_SELECTIVITIES:
        span = max(1, int(fact_rows * selectivity))
        on_seconds, off_seconds, sweep_parity = zones_on_and_off(
            PRUNE_QUERY.format(lo=0, hi=span - 1)
        )
        sweep.append(
            {
                "selectivity": selectivity,
                "columnar_seconds": round(on_seconds, 6),
                "columnar_no_zone_maps_seconds": round(off_seconds, 6),
                "speedup": round(off_seconds / on_seconds, 3),
                "parity": sweep_parity,
            }
        )

    return {
        "benchmark": "wallclock_pruning",
        "query": query,
        "fact_rows": fact_rows,
        "columnar_seconds": round(columnar_seconds, 6),
        "columnar_no_zone_maps_seconds": round(ablation_seconds, 6),
        "pruning_speedup": round(ablation_seconds / columnar_seconds, 3),
        "parity": parity,
        "chunks_scanned": counters["chunks_scanned"],
        "chunks_pruned": counters["chunks_pruned"],
        "selectivity_sweep": sweep,
    }


def run_ordered(rows: int) -> dict:
    """``v BETWEEN ? AND ?`` over ``rows`` rows whose ``v`` ascends from 0
    inside every chunk, and over the same rows inserted shuffled: median
    seconds of :data:`ORDERED_REPEATS` warmed executions each."""
    values = [(index, index % DEFAULT_CHUNK_SIZE, index % 97) for index in range(rows)]
    shuffled = values[:]
    random.Random(7).shuffle(shuffled)
    lo = DEFAULT_CHUNK_SIZE // 8
    params = [lo, lo + DEFAULT_CHUNK_SIZE // 10 - 1]
    report = {"benchmark": "wallclock_ordered_runs", "query": ORDERED_QUERY}
    report.update(params=params, rows=rows)
    results = {}
    for name, table_rows in (("ordered", values), ("shuffled", shuffled)):
        db = Database("ordered", execution_mode="columnar")
        db.execute("CREATE TABLE seq (id INT PRIMARY KEY, v INT, amount INT)")
        db.execute_many("INSERT INTO seq VALUES (?, ?, ?)", table_rows)
        results[name] = db.execute(ORDERED_QUERY, params).rows  # warm
        samples = []
        for _ in range(ORDERED_REPEATS):
            start = time.perf_counter()
            db.execute(ORDERED_QUERY, params)
            samples.append(time.perf_counter() - start)
        report[f"{name}_seconds"] = round(statistics.median(samples), 6)
        report[f"{name}_chunks_pruned"] = db.columnar_stats()["chunks_pruned"]
    report["speedup"] = round(report["shuffled_seconds"] / report["ordered_seconds"], 3)
    report["parity"] = results["ordered"] == results["shuffled"]
    return report


def run_bulk_load() -> dict:
    """Load :data:`LOAD_ROWS` rows into a fresh table three ways; median
    seconds of :data:`LOAD_REPEATS` loads each, and whether the three
    tables hold the same rows."""
    rows = [(i, i % 7, i % 11, i % 13, i % 17, i * 3) for i in range(LOAD_ROWS)]
    batch_sql = "INSERT INTO load VALUES " + ", ".join(["(?, ?, ?, ?, ?, ?)"] * LOAD_BATCH)
    one_row = "INSERT INTO load VALUES (?, ?, ?, ?, ?, ?)"

    def batches(db: Database) -> None:
        for start in range(0, LOAD_ROWS, LOAD_BATCH):
            db.execute(batch_sql, [v for row in rows[start : start + LOAD_BATCH] for v in row])

    def many(db: Database) -> None:
        db.execute_many(one_row, rows)

    def singles(db: Database) -> None:
        for row in rows:
            db.execute(one_row, list(row))

    report = {"benchmark": "wallclock_bulk_load", "rows": LOAD_ROWS, "batch": LOAD_BATCH}
    loaded = []
    for name, load in (("batched_inserts", batches), ("execute_many", many), ("one_row_inserts", singles)):
        samples = []
        for _ in range(LOAD_REPEATS):
            db = Database("load")
            db.execute(LOAD_DDL)
            start = time.perf_counter()
            load(db)
            samples.append(time.perf_counter() - start)
        report[f"{name}_seconds"] = round(statistics.median(samples), 6)
        loaded.append(db.table_rows("load"))
    report["parity"] = loaded[0] == loaded[1] == loaded[2] == rows
    return report


def run(fact_rows: int, prune_rows: int) -> dict:
    """All four workloads; legacy join-bench keys stay at the top level."""
    summary = run_join(fact_rows)
    summary["pruning"] = run_pruning(prune_rows)
    summary["ordered_runs"] = run_ordered(fact_rows)
    summary["bulk_load"] = run_bulk_load()
    return summary


def write_report(summary: dict, path: Path = REPORT_PATH) -> None:
    """Persist the benchmark summary as JSON."""
    path.write_text(json.dumps(summary, indent=2) + "\n")


@pytest.mark.perf
def test_wallclock_executor_speedup():
    """Columnar is >= 3x over row on the join; on the selective 1M-row
    scan-aggregate, columnar with zone maps is >= 5x over columnar
    without them."""
    summary = run(DEFAULT_FACT_ROWS, DEFAULT_PRUNE_ROWS)
    write_report(summary)
    print()
    print(json.dumps(summary, indent=2))
    assert summary["parity"], "execution modes disagree on result rows"
    assert summary["speedup"] >= 3.0, (
        f"columnar speedup {summary['speedup']}x below the 3x acceptance bar"
    )
    pruning = summary["pruning"]
    assert pruning["parity"], "pruning workload modes disagree on result rows"
    assert pruning["pruning_speedup"] >= 5.0, (
        "zone-map pruning speedup (columnar, zone maps off vs on) "
        f"{pruning['pruning_speedup']}x below the 5x acceptance bar"
    )


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``--rows N``, ``--prune-rows N`` and ``--out PATH``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=DEFAULT_FACT_ROWS)
    parser.add_argument("--prune-rows", type=int, default=DEFAULT_PRUNE_ROWS)
    parser.add_argument("--out", type=Path, default=REPORT_PATH)
    args = parser.parse_args(argv)
    summary = run(args.rows, args.prune_rows)
    write_report(summary, args.out)
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
