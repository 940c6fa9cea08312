"""Extension bench — predicate pushdown to remote SQL sources.

The paper lists query optimization as future work (Sect. 6); this bench
measures the classic first step: shipping selective WHERE conjuncts to
the remote server instead of transferring every row and filtering
locally.  Expected shape: savings grow linearly with the number of rows
the predicate filters out remotely.
"""

import pytest

from repro.bench.report import format_table, linear_fit
from repro.fdbs.engine import Database
from repro.fdbs.federation import DatabaseEndpoint
from repro.sysmodel.machine import Machine


def build(machine, n_rows):
    remote = Database("remote")
    remote.execute(
        "CREATE TABLE orders (order_no INT PRIMARY KEY, comp_no INT, qty INT)"
    )
    for index in range(n_rows):
        remote.execute(
            "INSERT INTO orders VALUES (?, ?, ?)",
            params=[index, index % 10, index],
        )
    local = Database("local", machine=machine)
    local.execute("CREATE WRAPPER w")
    local.execute("CREATE SERVER s WRAPPER w")
    local.attach_endpoint("s", DatabaseEndpoint(remote))
    local.execute("CREATE NICKNAME remote_orders FOR s.orders")
    return local


def hot_time(local, machine, sql):
    local.execute(sql)
    start = machine.clock.now
    local.execute(sql)
    return machine.clock.now - start


def measure(n_rows):
    sql = "SELECT o.order_no FROM remote_orders AS o WHERE o.comp_no = 0"
    machine_on = Machine()
    on = build(machine_on, n_rows)
    machine_off = Machine()
    off = build(machine_off, n_rows)
    off.configure(pushdown=False)
    return hot_time(on, machine_on, sql), hot_time(off, machine_off, sql)


def test_pushdown_scaling(benchmark):
    sizes = [100, 200, 400, 800]

    def run():
        return {n: measure(n) for n in sizes}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    points = []
    for n, (with_pd, without_pd) in results.items():
        saving = without_pd - with_pd
        rows.append([n, with_pd, without_pd, saving])
        points.append((float(n), saving))
    print()
    print(
        format_table(
            ["remote rows", "pushdown [su]", "no pushdown [su]", "saving [su]"],
            rows,
            title="Extension — predicate pushdown (10% selectivity)",
        )
    )
    slope, _, r_squared = linear_fit(points)
    print(f"saving grows at {slope:.3f} su/remote-row (r^2 = {r_squared:.4f})")

    # Pushdown always wins, and savings grow linearly with filtered rows.
    assert all(with_pd < without_pd for with_pd, without_pd in results.values())
    assert r_squared > 0.999
    assert slope == pytest.approx(
        0.9 * Machine().costs.remote_row_transfer, rel=0.05
    )
