"""Set-oriented DML: one statement, one published table version.

* ``Database.execute_many`` loads the same rows, rids, indexes, column
  chunks and zone maps as one ``execute`` per row;
* every INSERT/UPDATE/DELETE that changes rows publishes exactly one
  version and records one undo entry;
* a failing statement (duplicate key, expression error, NOT NULL) leaves
  the table, the version counter and the undo log untouched;
* primary keys are checked against the statement's end state, so key
  shifts succeed and real end-state duplicates fail;
* the application systems' local functions answer exactly as they did
  when their tables were loaded row by row.
"""

import itertools
from decimal import Decimal

import pytest

from repro.appsys import (
    ProductDataManagementSystem,
    PurchasingSystem,
    StockKeepingSystem,
)
from repro.errors import ConstraintError, ExecutionError, ReproError
from repro.fdbs.engine import Database
from repro.fdbs.storage import _Arena

SCHEMA = (
    "CREATE TABLE p (k INT PRIMARY KEY, c CHAR(5), d DECIMAL(6,2), "
    "v VARCHAR(10) NOT NULL)"
)
TEMPLATE = "INSERT INTO p VALUES (?, ?, ?, ?)"


def sample_rows(count: int = 40) -> list[tuple]:
    """Rows exercising CHAR padding, DECIMAL coercion and NULLs."""
    decimals = [Decimal("1.5"), 7, None, Decimal("-0.25")]
    return [
        (k, "ab" if k % 3 else None, decimals[k % 4], f"v{k % 5}")
        for k in range(count)
    ]


def fresh(chunk_size: int = 8) -> Database:
    db = Database("set-dml", chunk_size=chunk_size)
    db.execute(SCHEMA)
    db.catalog.get_table("p").storage.create_index("v")
    return db


def storage(db: Database, name: str = "p"):
    return db.catalog.get_table(name).storage


def published(db: Database) -> int:
    return db.mvcc_stats()["versions_published"]


def physical_state(db: Database) -> dict:
    """Everything a load leaves behind, with value types made visible."""
    table = storage(db)
    version = table.current_version
    arena = version.arena
    chunks = table.columnar_chunks(version)
    width = len(table.columns)
    return {
        "scan": repr(list(version.scan())),
        "pk": sorted(arena.pk_index.items()),
        "index": {
            name: sorted((repr(k), sorted(v)) for k, v in index._buckets.items())
            for name, index in arena.indexes.items()
        },
        "chunks": [(chunk.start, repr(chunk.rows)) for chunk in chunks],
        "zones": [
            repr([chunk.zone(position) for position in range(width)])
            for chunk in chunks
        ],
    }


class TestExecuteMany:
    def test_matches_one_execute_per_row(self):
        rows = sample_rows()
        per_row = fresh()
        for row in rows:
            per_row.execute(TEMPLATE, params=list(row))
        batched = fresh()
        result = batched.execute_many(TEMPLATE, rows)
        assert result.rowcount == len(rows)
        assert physical_state(batched) == physical_state(per_row)

    def test_char_padding_and_decimal_coercion(self):
        db = fresh()
        db.execute_many(TEMPLATE, [(1, "ab", 7, "x"), (2, "abcde", Decimal("1.5"), "y")])
        assert db.table_rows("p") == [
            (1, "ab   ", 7, "x"),
            (2, "abcde", Decimal("1.5"), "y"),
        ]

    def test_column_list_template_fills_nulls(self):
        db = fresh()
        db.execute_many("INSERT INTO p (v, k) VALUES (?, ?)", [("a", 1), ("b", 2)])
        assert db.table_rows("p") == [(1, None, None, "a"), (2, None, None, "b")]

    def test_wrong_width_template_rejected(self):
        db = fresh()
        with pytest.raises(ExecutionError, match="expects 4 values per row"):
            db.execute_many("INSERT INTO p VALUES (?, ?, ?)", [(1, "a", 1)])
        assert db.table_rows("p") == []
        assert published(db) == 0

    def test_unbound_marker_rejected_without_writing(self):
        db = fresh()
        with pytest.raises(ExecutionError, match="not bound"):
            db.execute_many(TEMPLATE, [(1, "a", 1, "x"), (2, "b", 2)])
        assert db.table_rows("p") == []

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM p",
            "INSERT INTO p VALUES (1, 'a', 1, 'x'), (2, 'b', 2, 'y')",
            "INSERT INTO p SELECT * FROM p",
        ],
    )
    def test_only_one_row_values_templates(self, sql):
        with pytest.raises(ExecutionError, match="one-row INSERT"):
            fresh().execute_many(sql, [()])

    def test_counts_as_one_statement(self):
        db = fresh()
        before = db.statements_executed
        db.execute_many(TEMPLATE, sample_rows())
        assert db.statements_executed == before + 1
        assert published(db) == 1

    def test_empty_parameter_list_publishes_nothing(self):
        db = fresh()
        assert db.execute_many(TEMPLATE, []).rowcount == 0
        assert published(db) == 0
        assert len(db._undo) == 0


class TestOneVersionPerStatement:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO p VALUES (100, 'a', 1, 'x'), (101, 'b', 2, 'y')",
            "INSERT INTO p SELECT k + 1000, c, d, v FROM p",
            "UPDATE p SET d = 0",
            "UPDATE p SET k = k + 1",
            "DELETE FROM p WHERE k > 10",
        ],
    )
    def test_multi_row_statement_publishes_once(self, sql):
        db = fresh()
        db.execute_many(TEMPLATE, sample_rows())
        before = published(db)
        undo_before = len(db._undo)
        assert db.execute(sql).rowcount > 1
        assert published(db) == before + 1
        assert len(db._undo) == undo_before + 1

    def test_statement_touching_no_rows_publishes_nothing(self):
        db = fresh()
        db.execute_many(TEMPLATE, sample_rows())
        before = published(db)
        assert db.execute("UPDATE p SET d = 0 WHERE k < 0").rowcount == 0
        assert db.execute("DELETE FROM p WHERE k < 0").rowcount == 0
        assert published(db) == before

    def test_large_update_makes_one_arena_copy(self, monkeypatch):
        db = Database("one-copy")
        db.execute("CREATE TABLE big (k INT PRIMARY KEY, v INT)")
        db.execute_many("INSERT INTO big VALUES (?, ?)", [(i, i) for i in range(4000)])
        table = storage(db, "big")
        arena = table.current_version.arena
        copies = []
        original_copy = _Arena.copy

        def counting_copy(self):
            copies.append(self)
            return original_copy(self)

        monkeypatch.setattr(_Arena, "copy", counting_copy)
        before = published(db)
        assert db.execute("UPDATE big SET v = v + 1").rowcount == 4000
        assert published(db) == before + 1
        assert copies == [arena]
        # The copied arena stays as readers pinned it.
        assert arena.rows[5] == (5, 5)
        assert table.current_version.arena.rows[5] == (5, 6)


class TestAtomicity:
    def setup_table(self) -> Database:
        db = Database("atomic")
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)")
        db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
        return db

    def assert_untouched(self, db: Database, action) -> None:
        rows = db.table_rows("t")
        versions = published(db)
        undo = len(db._undo)
        action()
        assert db.table_rows("t") == rows
        assert published(db) == versions
        assert len(db._undo) == undo

    def test_duplicate_key_inside_values_writes_nothing(self):
        db = self.setup_table()

        def action():
            with pytest.raises(ConstraintError, match="duplicate primary key"):
                db.execute("INSERT INTO t VALUES (4, 4), (5, 5), (4, 6)")

        self.assert_untouched(db, action)

    def test_duplicate_against_existing_row_writes_nothing(self):
        db = self.setup_table()

        def action():
            with pytest.raises(ConstraintError):
                db.execute("INSERT INTO t VALUES (4, 4), (1, 9)")

        self.assert_untouched(db, action)

    def test_expression_error_in_update_writes_nothing(self):
        db = self.setup_table()

        def action():
            with pytest.raises(ReproError, match="division by zero"):
                db.execute("UPDATE t SET v = 10 / (v - 2)")

        self.assert_untouched(db, action)

    def test_not_null_in_last_row_writes_nothing(self):
        db = self.setup_table()

        def action():
            with pytest.raises(ConstraintError, match="NOT NULL"):
                db.execute("INSERT INTO t VALUES (4, 4), (5, 5), (6, NULL)")
            with pytest.raises(ConstraintError, match="NOT NULL"):
                db.execute_many(
                    "INSERT INTO t VALUES (?, ?)", [(7, 7), (8, 8), (9, None)]
                )
            with pytest.raises(ConstraintError, match="NOT NULL"):
                db.execute("UPDATE t SET v = CASE WHEN k = 3 THEN NULL ELSE 0 END")

        self.assert_untouched(db, action)


class TestEndStateKeys:
    def make(self, keys) -> Database:
        db = Database("keys")
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        values = ", ".join(f"({k}, {k * 10})" for k in keys)
        db.execute(f"INSERT INTO t VALUES {values}")
        return db

    def test_key_shift_succeeds(self):
        db = self.make([1, 2])
        assert db.execute("UPDATE t SET k = k + 1").rowcount == 2
        assert db.table_rows("t") == [(2, 10), (3, 20)]
        table = storage(db, "t")
        assert table.lookup_pk((1,)) is None
        assert table.lookup_pk((2,)) == (2, 10)
        assert table.lookup_pk((3,)) == (3, 20)

    def test_key_swap_succeeds(self):
        db = self.make([1, 2])
        db.execute("UPDATE t SET k = 3 - k")
        assert db.table_rows("t") == [(2, 10), (1, 20)]
        assert storage(db, "t").lookup_pk((1,)) == (1, 20)

    def test_end_state_duplicate_raises_and_changes_nothing(self):
        db = self.make([1, 2, 3])
        versions = published(db)
        with pytest.raises(ConstraintError, match="duplicate primary key"):
            db.execute("UPDATE t SET k = 5 WHERE k < 3")
        with pytest.raises(ConstraintError, match="duplicate primary key"):
            db.execute("UPDATE t SET k = k + 1 WHERE k < 3")  # 2 -> 3 collides
        assert db.table_rows("t") == [(1, 10), (2, 20), (3, 30)]
        assert published(db) == versions

    def test_storage_wrappers_keep_row_at_a_time_checks(self):
        db = self.make([1, 2])
        table = storage(db, "t")
        with pytest.raises(ConstraintError):
            table.update_rid(0, (2, 0))
        table.update_many([(0, (2, 0)), (1, (1, 0))])
        assert table.rows() == [(2, 0), (1, 0)]


class TestRollback:
    def test_mixed_transaction_rolls_back_with_one_entry_per_statement(self):
        db = fresh()
        db.execute_many(TEMPLATE, sample_rows())
        db.execute("COMMIT")
        before = physical_state(db)
        db.execute("INSERT INTO p VALUES (500, 'z', 1, 'x'), (501, 'y', 2, 'x')")
        db.execute("UPDATE p SET k = k + 1, v = 'w' WHERE k >= 20")
        db.execute("DELETE FROM p WHERE k < 10 OR k = 501")
        assert len(db._undo) == 3
        db.execute("ROLLBACK")
        assert len(db._undo) == 0
        after = physical_state(db)
        for key in ("scan", "pk", "index"):
            assert after[key] == before[key]
        assert [row for _, row in after["chunks"]] == [
            row for _, row in before["chunks"]
        ]
        table = storage(db)
        assert table.lookup_pk((20,))[0] == 20
        assert table.lookup_pk((500,)) is None
        assert [row[0] for row in table.index_lookup("v", "v0")] == list(
            range(0, 40, 5)
        )


class TestSubqueriesReadThePinnedState:
    def test_uncorrelated_max_is_evaluated_against_the_old_rows(self):
        db = Database("subq")
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
        db.execute("UPDATE t SET v = (SELECT MAX(v) FROM t) + 1")
        assert db.table_rows("t") == [(1, 4), (2, 4), (3, 4)]

    def test_delete_with_self_subquery(self):
        db = Database("subq-delete")
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
        db.execute("DELETE FROM t WHERE v < (SELECT MAX(v) FROM t)")
        assert db.table_rows("t") == [(3, 3)]


def _row_by_row_load(database, table, rows):
    width = len(database.catalog.get_table(table).columns)
    markers = ", ".join(["?"] * width)
    for row in rows:
        database.execute(f"INSERT INTO {table} VALUES ({markers})", params=list(row))


def _answers(system, data) -> dict:
    """Every read-only local function over a small argument grid."""
    suppliers = [s.supplier_no for s in data.suppliers[:3]] + [1234, -1]
    components = [c.comp_no for c in data.components[:3]]
    ints = sorted(set(suppliers + components + [0, 5]))
    strings = [data.suppliers[0].name, data.components[0].name, "nobody"]
    answers = {}
    for function in system.functions():
        if function.mutates:
            continue
        pools = [
            strings if param_type.name in ("VARCHAR", "CHAR") else ints
            for _, param_type in function.params
        ]
        for args in itertools.product(*pools):
            try:
                answers[(function.name, args)] = repr(system.call(function.name, *args))
            except ReproError as error:
                answers[(function.name, args)] = type(error).__name__
    return answers


@pytest.mark.parametrize(
    "cls, module",
    [
        (StockKeepingSystem, "repro.appsys.stock"),
        (PurchasingSystem, "repro.appsys.purchasing"),
        (ProductDataManagementSystem, "repro.appsys.pdm"),
    ],
)
def test_app_systems_answer_as_when_loaded_row_by_row(cls, module, data, monkeypatch):
    batched = cls(None, data)
    with monkeypatch.context() as patch:
        patch.setattr(f"{module}.load_table", _row_by_row_load)
        reference = cls(None, data)
    for table_def in reference._db().catalog.tables():
        name = table_def.name
        assert repr(batched._db().table_rows(name)) == repr(
            reference._db().table_rows(name)
        )
    assert _answers(batched, data) == _answers(reference, data)
