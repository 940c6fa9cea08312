"""SQL type system: parsing, casts, coercion, ranges."""

import datetime
from decimal import Decimal

import pytest

from repro.errors import TypeError_
from repro.fdbs.types import (
    BIGINT,
    BOOLEAN,
    CHAR,
    DATE,
    DECIMAL,
    DOUBLE,
    INTEGER,
    SMALLINT,
    VARCHAR,
    cast_value,
    coerce_into,
    common_supertype,
    explicitly_castable,
    implicitly_castable,
    infer_type,
    parse_type,
    python_value_matches,
)


class TestParseType:
    def test_simple_names(self):
        assert parse_type("INT") is INTEGER
        assert parse_type("integer") is INTEGER
        assert parse_type("BIGINT") is BIGINT
        assert parse_type("LONG") is BIGINT  # the paper's INT -> LONG
        assert parse_type("DOUBLE") is DOUBLE
        assert parse_type("BOOLEAN") is BOOLEAN
        assert parse_type("DATE") is DATE

    def test_parameterised_types(self):
        assert parse_type("VARCHAR", 20) == VARCHAR(20)
        assert parse_type("CHAR", 3) == CHAR(3)
        assert parse_type("DECIMAL", 10, 2) == DECIMAL(10, 2)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError_):
            parse_type("BLOB")

    def test_simple_type_with_parameters_rejected(self):
        with pytest.raises(TypeError_):
            parse_type("INT", 4)

    def test_render_round_trip(self):
        assert VARCHAR(20).render() == "VARCHAR(20)"
        assert DECIMAL(8, 2).render() == "DECIMAL(8, 2)"
        assert INTEGER.render() == "INTEGER"


class TestCastRules:
    def test_numeric_ladder_promotes_implicitly(self):
        assert implicitly_castable(SMALLINT, INTEGER)
        assert implicitly_castable(INTEGER, BIGINT)
        assert implicitly_castable(BIGINT, DOUBLE)

    def test_numeric_demotion_needs_explicit_cast(self):
        assert not implicitly_castable(BIGINT, INTEGER)
        assert explicitly_castable(BIGINT, INTEGER)

    def test_character_types_interchange(self):
        assert implicitly_castable(CHAR(3), VARCHAR(10))
        assert implicitly_castable(VARCHAR(10), CHAR(3))

    def test_string_to_number_is_explicit_only(self):
        assert not implicitly_castable(VARCHAR(5), INTEGER)
        assert explicitly_castable(VARCHAR(5), INTEGER)

    def test_boolean_to_numeric_forbidden(self):
        assert not explicitly_castable(BOOLEAN, INTEGER)

    def test_common_supertype(self):
        assert common_supertype(INTEGER, BIGINT) is BIGINT
        assert common_supertype(SMALLINT, DOUBLE) is DOUBLE
        assert common_supertype(VARCHAR(5), VARCHAR(9)) == VARCHAR(9)

    def test_no_common_supertype_across_families(self):
        with pytest.raises(TypeError_):
            common_supertype(INTEGER, VARCHAR(5))


class TestCastValue:
    def test_null_casts_to_anything(self):
        assert cast_value(None, INTEGER, VARCHAR(5)) is None

    def test_int_to_bigint_paper_simple_case(self):
        assert cast_value(7, INTEGER, BIGINT) == 7

    def test_double_to_int_truncates_toward_zero(self):
        assert cast_value(3.9, DOUBLE, INTEGER) == 3
        assert cast_value(-3.9, DOUBLE, INTEGER) == -3

    def test_string_to_int(self):
        assert cast_value(" 42 ", VARCHAR(10), INTEGER) == 42

    def test_bad_string_to_int_rejected(self):
        with pytest.raises(TypeError_):
            cast_value("abc", VARCHAR(10), INTEGER)

    def test_int_to_varchar(self):
        assert cast_value(42, INTEGER, VARCHAR(10)) == "42"

    def test_char_pads_to_length(self):
        assert cast_value("ab", VARCHAR(5), CHAR(4)) == "ab  "

    def test_varchar_truncates_character_source(self):
        assert cast_value("abcdef", VARCHAR(10), VARCHAR(3)) == "abc"

    def test_numeric_too_long_for_varchar_rejected(self):
        with pytest.raises(TypeError_):
            cast_value(123456, INTEGER, VARCHAR(3))

    def test_decimal_quantizes_to_scale(self):
        result = cast_value("3.14159", VARCHAR(10), DECIMAL(6, 2))
        assert result == Decimal("3.14")

    def test_string_to_date(self):
        assert cast_value("2002-03-25", VARCHAR(10), DATE) == datetime.date(
            2002, 3, 25
        )

    def test_date_to_string(self):
        value = datetime.date(2002, 3, 25)
        assert cast_value(value, DATE, VARCHAR(10)) == "2002-03-25"

    def test_smallint_overflow_rejected(self):
        with pytest.raises(TypeError_):
            cast_value(70000, INTEGER, SMALLINT)

    def test_disallowed_cast_rejected(self):
        with pytest.raises(TypeError_):
            cast_value(True, BOOLEAN, INTEGER)


class TestCoerceAndInfer:
    def test_coerce_accepts_matching_value(self):
        assert coerce_into(5, INTEGER) == 5
        assert coerce_into("x", VARCHAR(5)) == "x"

    def test_coerce_promotes_int_to_double(self):
        assert coerce_into(5, DOUBLE) == 5.0
        assert isinstance(coerce_into(5, DOUBLE), float)

    def test_coerce_rejects_oversized_string(self):
        with pytest.raises(TypeError_):
            coerce_into("toolong", VARCHAR(3))

    def test_coerce_rejects_wrong_family(self):
        with pytest.raises(TypeError_):
            coerce_into("5", INTEGER)

    def test_coerce_null_passes(self):
        assert coerce_into(None, INTEGER) is None

    def test_coerce_integer_range_checked(self):
        with pytest.raises(TypeError_):
            coerce_into(2**40, INTEGER)

    def test_infer_type(self):
        assert infer_type(5) is INTEGER
        assert infer_type(2**40) is BIGINT
        assert infer_type(1.5) is DOUBLE
        assert infer_type(True) is BOOLEAN
        assert infer_type("ab") == VARCHAR(2)
        assert infer_type(datetime.date.today()) is DATE

    def test_infer_null_rejected(self):
        with pytest.raises(TypeError_):
            infer_type(None)

    def test_python_value_matches(self):
        assert python_value_matches(None, INTEGER)
        assert python_value_matches(5, INTEGER)
        assert not python_value_matches(True, INTEGER)
        assert not python_value_matches("x", INTEGER)
        assert python_value_matches(1.5, DOUBLE)


class TestSignallingNaN:
    """A signalling-NaN Decimal is rejected on entry with a typed error:
    stored, it made every later comparison or ORDER BY over its column
    raise a bare ``decimal.InvalidOperation``."""

    @pytest.mark.parametrize("column_type", [DECIMAL(8, 2), DECIMAL(), DOUBLE])
    def test_coerce_into_rejects_snan(self, column_type):
        with pytest.raises(TypeError_, match="signalling NaN"):
            coerce_into(Decimal("sNaN"), column_type)

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    def test_insert_of_snan_raises_typed_and_stores_nothing(self, mode):
        from repro.fdbs.engine import Database

        db = Database("snan", execution_mode=mode)
        db.execute("CREATE TABLE t (m DECIMAL(8,2), d DOUBLE)")
        for sql in ("INSERT INTO t VALUES (?, 1.0)", "INSERT INTO t VALUES (1, ?)"):
            with pytest.raises(TypeError_, match="signalling NaN"):
                db.execute(sql, (Decimal("sNaN"),))
        assert db.execute("SELECT m, d FROM t").rows == []

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    def test_quiet_nan_still_stores_and_sorts(self, mode):
        from repro.fdbs.engine import Database

        db = Database("qnan", execution_mode=mode)
        db.execute("CREATE TABLE t (m DECIMAL(8,2))")
        db.execute_many(
            "INSERT INTO t VALUES (?)",
            [(Decimal("NaN"),), (None,), (Decimal("2.50"),), (1,)],
        )
        got = [row[0] for row in db.execute("SELECT m FROM t ORDER BY m").rows]
        assert got[:2] == [1, Decimal("2.50")]
        assert got[2].is_qnan() and got[3] is None

    PREDICATES = [
        "SELECT m FROM t WHERE m = ?",
        "SELECT m FROM t WHERE m < ?",
        "SELECT d FROM t WHERE d > ?",
        "SELECT m FROM t WHERE m IN (?, 1)",
        "SELECT d FROM t WHERE d IN (2.0, ?)",
        "SELECT m FROM t WHERE m BETWEEN ? AND 5",
        "SELECT d FROM t WHERE d BETWEEN 0 AND ?",
        "SELECT m FROM t WHERE m IS NULL OR m = ?",
    ]

    @staticmethod
    def nan_table(mode):
        from repro.fdbs.engine import Database

        db = Database("snan-pred", execution_mode=mode)
        db.execute("CREATE TABLE t (m DECIMAL(8,2), d DOUBLE)")
        db.execute_many(
            "INSERT INTO t VALUES (?, ?)",
            [(1, 1.0), (Decimal("NaN"), float("nan")), (Decimal("2.0"), 2.0)],
        )
        return db

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    @pytest.mark.parametrize("sql", PREDICATES)
    def test_bound_snan_in_predicate_raises_typed(self, mode, sql):
        db = self.nan_table(mode)
        with pytest.raises(TypeError_, match="signalling NaN"):
            db.execute(sql, [Decimal("sNaN")])

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    def test_bound_quiet_nan_keeps_equality_semantics(self, mode):
        db = self.nan_table(mode)
        assert db.execute("SELECT m FROM t WHERE m = ?", [Decimal("NaN")]).rows == []
        got = db.execute("SELECT m FROM t WHERE m <> ? ORDER BY m", [Decimal("NaN")]).rows
        assert got[:2] == [(1,), (Decimal("2.0"),)] and got[2][0].is_qnan()


class TestQuietDecimalNaN:
    """A stored quiet ``Decimal('NaN')`` answers what a DOUBLE NaN does:
    ordering predicates on it are not true and MIN/MAX fold past it,
    where Python's ``Decimal`` raised ``decimal.InvalidOperation``."""

    QUERIES = [
        ("SELECT {c} FROM t WHERE {c} < 5", []),
        ("SELECT {c} FROM t WHERE {c} >= 0", []),
        ("SELECT {c} FROM t WHERE {c} BETWEEN 0 AND 5", []),
        ("SELECT {c} FROM t WHERE NOT ({c} BETWEEN 0 AND 5)", []),
        ("SELECT {c} FROM t WHERE {c} > 0.5", []),
        ("SELECT {c} FROM t WHERE {c} <= ?", [Decimal("NaN")]),
        ("SELECT {c} FROM t WHERE {c} IN (1, 7)", []),
        ("SELECT {c} FROM t WHERE {c} <> 1", []),
        ("SELECT MAX({c}), MIN({c}) FROM t", []),
        ("SELECT g, MAX({c}), MIN({c}) FROM t GROUP BY g ORDER BY g", []),
        ("SELECT COUNT(*) FROM t WHERE {c} < ?", [3]),
    ]

    @staticmethod
    def table(mode, chunk_size=None):
        from repro.fdbs.engine import Database

        db = Database("qnan-pred", execution_mode=mode, chunk_size=chunk_size)
        db.execute("CREATE TABLE t (g INT, m DECIMAL(8,2), d DOUBLE)")
        db.execute_many(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(1, 1, 1.0), (1, Decimal("NaN"), float("nan")), (2, 2, 2.0), (2, None, None)],
        )
        return db

    @staticmethod
    def plain(rows):
        """Rows with every number as a float and NaN as a marker."""
        return [
            tuple(
                "NaN" if isinstance(v, (Decimal, float)) and v != v
                else float(v) if isinstance(v, (Decimal, float)) else v
                for v in row
            )
            for row in rows
        ]

    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    @pytest.mark.parametrize("mode", ["row", "columnar"])
    @pytest.mark.parametrize("query,params", QUERIES)
    def test_decimal_nan_answers_as_double_nan(self, mode, chunk_size, query, params):
        db = self.table(mode, chunk_size)
        decimal = db.execute(query.format(c="m"), params).rows
        double = db.execute(query.format(c="d"), params).rows
        assert self.plain(decimal) == self.plain(double)

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    def test_expected_answers(self, mode):
        db = self.table(mode)
        assert db.execute("SELECT m FROM t WHERE m < 5").rows == [(1,), (2,)]
        assert db.execute("SELECT m FROM t WHERE m BETWEEN 0 AND 5").rows == [(1,), (2,)]
        assert db.execute("SELECT MAX(m), MIN(m) FROM t WHERE g = 1").rows == [(1, 1)]
        got = db.execute("SELECT m FROM t WHERE NOT (m BETWEEN 0 AND 5)").rows
        assert len(got) == 1 and got[0][0].is_qnan()

    @pytest.mark.parametrize("mode", ["row", "columnar"])
    def test_nan_first_in_a_chunk_keeps_matching_rows(self, mode):
        from repro.fdbs.engine import Database

        db = Database("qnan-first", execution_mode=mode)
        db.execute("CREATE TABLE t (m DECIMAL(8,2))")
        db.execute_many("INSERT INTO t VALUES (?)", [(Decimal("NaN"),), (1,)])
        assert db.execute("SELECT m FROM t WHERE m < 5").rows == [(1,)]

    def test_runstats_skips_bounds_over_a_nan(self):
        db = self.table("row")
        db.execute("RUNSTATS t")
        stats = db.catalog.get_statistics("t").columns["M"]
        assert stats.min_value is None and stats.max_value is None
        assert stats.null_count == 1


class TestDoubleNaNZoneMaps:
    """A DOUBLE NaN leaves its chunk's zone bounds unknown.

    NaN compares false both ways, so ``min``/``max`` over a chunk return
    it when it comes first and skip it anywhere else; either way the
    bounds would prune rows a predicate keeps.  Every predicate here is
    checked against the Python answer, with the NaN first, in the middle
    and last, at chunk sizes that put it at the front, inside and alone
    in a chunk.
    """

    VALUES = [1.0, 2.0, 3.0, 2.0, 4.0]

    #: Predicate over ``m`` and its answer for one value (NaN included).
    PREDICATES = [
        ("m < 5", lambda v: v < 5),
        ("m >= 0", lambda v: v >= 0),
        ("m > 3.5", lambda v: v > 3.5),
        ("m = 2", lambda v: v == 2),
        ("m <> 2", lambda v: v != 2),
        ("m BETWEEN 1 AND 2", lambda v: 1 <= v <= 2),
        ("m NOT BETWEEN 1 AND 2", lambda v: not (1 <= v <= 2)),
        ("NOT (m < 5)", lambda v: not v < 5),
    ]

    @pytest.mark.parametrize("chunk_size", [1, 3, 1024])
    @pytest.mark.parametrize("mode", ["row", "columnar"])
    @pytest.mark.parametrize("position", [0, 2, 5], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("sql,keep", PREDICATES, ids=[p for p, _ in PREDICATES])
    def test_rows_match_the_python_answer(self, sql, keep, position, mode, chunk_size):
        from repro.fdbs.engine import Database

        values = list(self.VALUES)
        values.insert(position, float("nan"))
        db = Database("dnan", execution_mode=mode, chunk_size=chunk_size)
        db.execute("CREATE TABLE t (k INT, m DOUBLE)")
        db.execute_many("INSERT INTO t VALUES (?, ?)", list(enumerate(values)))
        expected = [(k,) for k, v in enumerate(values) if keep(v)]
        assert db.execute(f"SELECT k FROM t WHERE {sql} ORDER BY k").rows == expected
        count = db.execute(f"SELECT COUNT(*) FROM t WHERE {sql}").rows
        assert count == [(len(expected),)]

    def test_zone_bounds_are_unknown_over_a_nan(self):
        from repro.fdbs.stats import zone_bounds

        nan = float("nan")
        for values in ([nan, 1.0], [1.0, nan, 2.0], [1.0, None, nan]):
            assert zone_bounds(values)[:2] == (None, None), values
        assert zone_bounds([nan, None])[2] == 1
        assert zone_bounds([2.0, None, 1.0]) == (1.0, 2.0, 1)
