"""Forked tables share one arena until they write: a thread hammer.

:meth:`~repro.fdbs.storage.Table.fork` gives a forked table its
source's arena, marked shared, and every write of either table (an
insert, a new index, the columnar cache a zone scan seals) first takes
a private copy.  Forks of one template table have different write
latches but one arena, so a fork that wrote or sealed in place would
race its siblings.  Here several forks of the session template's stock
system insert and zone-scan at once under a 1 µs GIL switch interval;
each fork's results must equal the same work run serially, and the
template's table must come out as it went in.

CI runs this file in the ``mvcc stress`` job, beside
``tests/test_mvcc_snapshot_isolation.py``.
"""

from repro.appsys.datagen import generate_enterprise_data
from repro.fdbs.session import ParseMap
from repro.serving.template import SessionTemplate, ShardConfig

from tests.test_mvcc_snapshot_isolation import THREADS, hammer
from tests.test_session_template import table_state

ZONE_SCAN = "SELECT comp_no, number FROM stock WHERE comp_no BETWEEN ? AND ? ORDER BY comp_no"
TAIL = "SELECT COUNT(*), SUM(number) FROM stock WHERE comp_no > ?"


def fork_work(stock, index: int) -> list:
    """One fork's inserts and zone scans; returns what it read."""
    db = stock._db()
    db.configure(execution_mode="columnar", chunk_size=16)
    seen = [db.execute(ZONE_SCAN, [1, 30]).rows]
    for step in range(6):
        db.execute(
            "INSERT INTO stock VALUES (?, ?, ?)", [1000 + 10 * index + step, 1234, step]
        )
        seen.append(db.execute(TAIL, [999]).rows)
        seen.append(db.execute(ZONE_SCAN, [10 * step, 10 * step + 25]).rows)
    db.catalog.get_table("stock").storage.create_index("number")
    seen.append(db.execute("SELECT comp_no FROM stock WHERE number = ?", [3]).rows)
    return seen


def test_forks_insert_and_zone_scan_at_once_as_in_series():
    template = SessionTemplate(ShardConfig(data=generate_enterprise_data()))
    source = template.shared()[0]
    storages = [t.storage for t in source._db().catalog.tables()]
    before = [table_state(storage) for storage in storages]

    serial = [fork_work(source.fork(parses=template.parses), i) for i in range(THREADS)]
    forks = [source.fork(parses=template.parses) for _ in range(THREADS)]
    results: dict[int, list] = {}

    def worker(index: int) -> None:
        results[index] = fork_work(forks[index], index)

    for _ in range(3):
        hammer(worker)
        assert [results[i] for i in range(THREADS)] == serial
        forks = [source.fork(parses=template.parses) for _ in range(THREADS)]
    assert [table_state(storage) for storage in storages] == before
