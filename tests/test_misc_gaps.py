"""Small behaviours not covered elsewhere."""

import pytest

from repro.bench.report import format_series
from repro.fdbs.engine import Database
from repro.fdbs.executor import LimitPlan, UnionPlan, UnitPlan
from repro.fdbs.expr import EvalContext


class TestReportSeries:
    def test_format_series_lines(self):
        text = format_series("loop scaling", [(1, 209.78), (2, 287.86)])
        lines = text.splitlines()
        assert lines[0] == "loop scaling"
        assert "209.78" in lines[1] and "su" in lines[1]

    def test_format_series_custom_unit(self):
        assert "ms" in format_series("x", [(1, 2.0)], unit="ms")


class TestExecutorEdges:
    def test_limit_zero_yields_nothing(self):
        plan = LimitPlan(UnitPlan(), 0)
        assert list(plan.rows(EvalContext())) == []

    def test_union_requires_branches(self):
        with pytest.raises(Exception):
            UnionPlan([])

    def test_explain_tree_indents_children(self):
        db = Database("g")
        db.execute("CREATE TABLE t (a INT)")
        text = db.explain("SELECT a FROM t WHERE a > 1")
        lines = text.splitlines()
        assert lines[0].startswith("Snapshot(epoch=")
        assert lines[1].startswith("Execution(mode=")
        assert lines[2].startswith("Project")
        assert lines[3].startswith("  ")  # children indented


class TestSqlEdges:
    @pytest.fixture()
    def db(self):
        database = Database("edges")
        database.execute("CREATE TABLE t (a INT, d DECIMAL(6, 2))")
        database.execute("INSERT INTO t VALUES (1, 2.50), (2, 0.25)")
        return database

    def test_decimal_column_arithmetic(self, db):
        from decimal import Decimal

        total = db.execute("SELECT SUM(d) FROM t").scalar()
        assert total == Decimal("2.75")

    def test_case_with_null_operand_falls_to_else(self, db):
        value = db.execute(
            "SELECT CASE a WHEN 99 THEN 'x' ELSE 'other' END FROM t "
            "WHERE a = 1"
        ).scalar()
        assert value == "other"

    def test_concat_operator_with_cast_function(self, db):
        value = db.execute(
            "SELECT 'a=' || VARCHAR(a) FROM t WHERE a = 2"
        ).scalar()
        assert value == "a=2"

    def test_between_on_decimal(self, db):
        rows = db.execute(
            "SELECT a FROM t WHERE d BETWEEN 0.2 AND 1.0"
        ).rows
        assert rows == [(2,)]

    def test_group_by_expression(self, db):
        db.execute("INSERT INTO t VALUES (3, 1.00), (4, 1.00)")
        rows = db.execute(
            "SELECT MOD(a, 2), COUNT(*) FROM t GROUP BY MOD(a, 2) "
            "ORDER BY MOD(a, 2)"
        ).rows
        assert rows == [(0, 2), (1, 2)]

    def test_select_item_alias_shadowing_is_fine(self, db):
        rows = db.execute("SELECT a AS d FROM t ORDER BY d").rows
        assert rows == [(1,), (2,)]


class TestProcedureEdges:
    def test_duplicate_declare_rejected(self):
        db = Database("pe")
        db.execute(
            "CREATE PROCEDURE p (OUT v INT) LANGUAGE SQL BEGIN "
            "DECLARE x INT; DECLARE x INT; SET v = 1; END"
        )
        with pytest.raises(Exception, match="duplicate variable"):
            db.execute("CALL p()")

    def test_if_without_match_and_no_else_is_noop(self):
        db = Database("pe2")
        db.execute(
            "CREATE PROCEDURE p (OUT v INT) LANGUAGE SQL BEGIN "
            "SET v = 5; IF v > 100 THEN SET v = 0; END IF; END"
        )
        assert db.execute("CALL p()").out_params == {"v": 5}


class TestWorkflowEdges:
    def test_block_without_until_runs_once(self):
        from repro.fdbs.types import INTEGER
        from repro.wfms.builder import ProcessBuilder
        from repro.wfms.engine import WorkflowEngine
        from repro.wfms.programs import ProgramRegistry

        registry = ProgramRegistry()
        registry.register_program("one", lambda inp: {"V": inp["I"] + 1})
        body = ProcessBuilder("Body", [("I", INTEGER)], [("V", INTEGER)])
        body.program_activity(
            "A", "one", [("I", INTEGER)], [("V", INTEGER)],
            {"I": body.from_input("I")},
        )
        body.map_output("V", body.from_activity("A", "V"))
        outer = ProcessBuilder("Outer", [("I", INTEGER)], [("V", INTEGER)])
        outer.block_activity(
            "B", body.build(), input_map={"I": outer.from_input("I")}
        )
        outer.map_output("V", outer.from_activity("B", "V"))
        instance = WorkflowEngine(registry).run_process(outer.build(), {"I": 41})
        assert instance.activity("B").iterations == 1
        assert instance.output.as_dict() == {"V": 42}

    def test_instance_makespan_property(self):
        from repro.fdbs.types import INTEGER
        from repro.sysmodel.machine import Machine
        from repro.wfms.builder import ProcessBuilder
        from repro.wfms.engine import WorkflowEngine
        from repro.wfms.programs import ProgramRegistry

        machine = Machine()
        registry = ProgramRegistry()
        registry.register_program("noop", lambda inp: {"V": 1})
        b = ProcessBuilder("P", [("I", INTEGER)], [("V", INTEGER)])
        b.program_activity(
            "A", "noop", [("I", INTEGER)], [("V", INTEGER)],
            {"I": b.from_input("I")},
        )
        b.map_output("V", b.from_activity("A", "V"))
        instance = WorkflowEngine(registry, machine).run_process(
            b.build(), {"I": 1}
        )
        assert instance.makespan > 0
