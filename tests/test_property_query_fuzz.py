"""Random-query fuzzing: generated SELECTs must plan, run, and respect
basic relational invariants — in every execution mode and under both
optimizers (the cost combos run after RUNSTATS so plan decisions are
statistics-driven, and a small chunk size makes columnar chunking and
all-mode zone pruning real)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdbs.engine import Database
from repro.fdbs.functions import make_external_function
from repro.fdbs.types import INTEGER

COLUMNS = ["a", "b", "c"]


@pytest.fixture(
    scope="module",
    params=[
        ("row", "syntactic"),
        ("columnar", "syntactic"),
        ("row", "cost"),
        ("columnar", "cost"),
    ],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def db(request):
    mode, optimizer = request.param
    database = Database("fuzz", execution_mode=mode, chunk_size=5)
    database.execute("CREATE TABLE t (a INT, b INT, c VARCHAR(5))")
    values = [(i, i % 3, f"s{i % 4}") for i in range(12)] + [(99, None, None)]
    for row in values:
        database.execute("INSERT INTO t VALUES (?, ?, ?)", params=list(row))
    # Comma-join partner for the join-strategy sweep (its key column is
    # named ``k`` so the single-table predicates stay unambiguous).
    database.execute("CREATE TABLE u (k INT, d VARCHAR(5))")
    for index in range(8):
        database.execute(
            "INSERT INTO u VALUES (?, ?)", params=[index % 4, f"d{index}"]
        )
    database.execute("INSERT INTO u VALUES (?, ?)", params=[None, "dnull"])
    database.register_external_function(
        make_external_function(
            "Twice", [("x", INTEGER)], [("y", INTEGER)], lambda x: (x or 0) * 2
        )
    )
    database.execute("RUNSTATS ON TABLE t")
    database.execute("RUNSTATS ON TABLE u")
    database.configure(optimizer=optimizer)
    return database


int_literals = st.integers(min_value=-5, max_value=15).map(str)

comparisons = st.one_of(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["=", "<", ">", "<=", ">=", "<>"]), int_literals).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}"
    ),
    st.sampled_from(["b IS NULL", "b IS NOT NULL", "c LIKE 's%'", "a BETWEEN 2 AND 8",
                     "a IN (1, 2, 3)", "c IS NULL"]),
)

predicates = st.recursive(
    comparisons,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda t: f"({t[0]} AND {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} OR {t[1]})"),
        sub.map(lambda p: f"NOT ({p})"),
    ),
    max_leaves=4,
)

select_lists = st.lists(
    st.sampled_from(["a", "b", "c", "a + 1", "UPPER(c)", "a * b"]),
    min_size=1,
    max_size=3,
).map(", ".join)


@settings(max_examples=150, deadline=None)
@given(items=select_lists, predicate=predicates, limit=st.integers(0, 20))
def test_generated_queries_run_and_respect_invariants(db, items, predicate, limit):
    base = f"SELECT {items} FROM t"
    unfiltered = db.execute(base).rows
    filtered = db.execute(f"{base} WHERE {predicate}").rows
    # A WHERE clause can only remove rows (multiset containment).
    assert len(filtered) <= len(unfiltered)
    remaining = list(unfiltered)
    for row in filtered:
        assert row in remaining
        remaining.remove(row)
    # LIMIT caps the row count.
    limited = db.execute(f"{base} WHERE {predicate} FETCH FIRST {limit} ROWS ONLY")
    assert len(limited.rows) == min(limit, len(filtered))
    # DISTINCT yields a subset without duplicates.
    distinct = db.execute(f"SELECT DISTINCT {items} FROM t WHERE {predicate}").rows
    assert len(set(distinct)) == len(distinct)
    assert set(distinct) == set(map(tuple, filtered))


@settings(max_examples=60, deadline=None)
@given(predicate=predicates)
def test_where_complement_partitions_rows(db, predicate):
    """rows(p) + rows(NOT p) <= all rows, with the gap being NULL
    (unknown) evaluations — three-valued logic's signature."""
    total = db.execute("SELECT a FROM t").rows
    positive = db.execute(f"SELECT a FROM t WHERE {predicate}").rows
    negative = db.execute(f"SELECT a FROM t WHERE NOT ({predicate})").rows
    assert len(positive) + len(negative) <= len(total)


@settings(max_examples=60, deadline=None)
@given(predicate=predicates)
def test_count_star_matches_row_count(db, predicate):
    rows = db.execute(f"SELECT a FROM t WHERE {predicate}").rows
    count = db.execute(f"SELECT COUNT(*) FROM t WHERE {predicate}").scalar()
    assert count == len(rows)


@settings(max_examples=40, deadline=None)
@given(predicate=predicates)
def test_lateral_function_preserves_cardinality(db, predicate):
    plain = db.execute(f"SELECT a FROM t WHERE {predicate}").rows
    applied = db.execute(
        f"SELECT r.y FROM t, TABLE (Twice(a)) AS r WHERE {predicate}"
    ).rows
    assert len(applied) == len(plain)


@settings(max_examples=40, deadline=None)
@given(predicate=predicates)
def test_join_strategies_produce_identical_rows(db, predicate):
    """Every forced local join strategy returns the same rows as the
    default plan for a comma equi-join, whatever the WHERE clause."""
    sql = (
        "SELECT a, b, u.d FROM t, u "
        f"WHERE b = u.k AND ({predicate}) ORDER BY a, u.d"
    )
    baseline = db.execute(sql).rows
    try:
        for strategy in ("hash", "merge", "indexnlj", "nlj"):
            db.configure(join_strategy=strategy)
            assert db.execute(sql).rows == baseline
    finally:
        db.configure(join_strategy="auto")


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.sampled_from(["a", "b", "a DESC", "b DESC"]), min_size=1,
                  max_size=2, unique=True)
)
def test_order_by_is_a_permutation(db, keys):
    base = db.execute("SELECT a, b FROM t").rows
    ordered = db.execute(f"SELECT a, b FROM t ORDER BY {', '.join(keys)}").rows
    assert sorted(map(repr, base)) == sorted(map(repr, ordered))
