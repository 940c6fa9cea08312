"""PSM stored procedures: control flow, variables, nested calls."""

import pytest

from repro.errors import ExecutionError, SignatureError, SqlError
from repro.fdbs.engine import Database


@pytest.fixture()
def db():
    return Database("psm")


def test_out_parameter_returned(db):
    db.execute(
        "CREATE PROCEDURE p (IN a INT, OUT b INT) LANGUAGE SQL BEGIN "
        "SET b = a * 2; END"
    )
    assert db.execute("CALL p(21)").out_params == {"b": 42}


def test_inout_parameter(db):
    db.execute(
        "CREATE PROCEDURE p (INOUT x INT) LANGUAGE SQL BEGIN SET x = x + 1; END"
    )
    assert db.execute("CALL p(9)").out_params == {"x": 10}


def test_while_loop(db):
    db.execute(
        """
        CREATE PROCEDURE sum_to (IN n INT, OUT total INT) LANGUAGE SQL BEGIN
          DECLARE i INT DEFAULT 1;
          SET total = 0;
          WHILE i <= n DO
            SET total = total + i;
            SET i = i + 1;
          END WHILE;
        END
        """
    )
    assert db.execute("CALL sum_to(10)").out_params == {"total": 55}


def test_if_elseif_else(db):
    db.execute(
        """
        CREATE PROCEDURE grade (IN score INT, OUT verdict VARCHAR(10))
        LANGUAGE SQL BEGIN
          IF score >= 8 THEN SET verdict = 'good';
          ELSEIF score >= 4 THEN SET verdict = 'ok';
          ELSE SET verdict = 'poor';
          END IF;
        END
        """
    )
    assert db.execute("CALL grade(9)").out_params == {"verdict": "good"}
    assert db.execute("CALL grade(5)").out_params == {"verdict": "ok"}
    assert db.execute("CALL grade(1)").out_params == {"verdict": "poor"}


def test_procedure_queries_tables_via_scalar_subquery(db):
    db.execute("CREATE TABLE t (v INT)")
    db.execute("INSERT INTO t VALUES (3), (4)")
    db.execute(
        "CREATE PROCEDURE total (OUT s INT) LANGUAGE SQL BEGIN "
        "SET s = (SELECT SUM(v) FROM t); END"
    )
    assert db.execute("CALL total()").out_params == {"s": 7}


def test_nested_call(db):
    db.execute(
        "CREATE PROCEDURE inner_p (IN a INT, OUT b INT) LANGUAGE SQL BEGIN "
        "SET b = a + 1; END"
    )
    db.execute("CREATE TABLE log (v INT)")
    db.execute(
        "CREATE PROCEDURE outer_p (IN a INT) LANGUAGE SQL BEGIN "
        "CALL inner_p(a); END"
    )
    db.execute("CALL outer_p(1)")  # must not raise


def test_declared_variable_types_enforced(db):
    db.execute(
        "CREATE PROCEDURE p (OUT v VARCHAR(3)) LANGUAGE SQL BEGIN "
        "SET v = 'toolong'; END"
    )
    with pytest.raises(Exception):
        db.execute("CALL p()")


def test_wrong_argument_count_rejected(db):
    db.execute(
        "CREATE PROCEDURE p (IN a INT, OUT b INT) LANGUAGE SQL BEGIN "
        "SET b = a; END"
    )
    with pytest.raises(SignatureError):
        db.execute("CALL p(1, 2)")


def test_unknown_variable_rejected(db):
    db.execute(
        "CREATE PROCEDURE p (OUT b INT) LANGUAGE SQL BEGIN SET zzz = 1; END"
    )
    with pytest.raises(ExecutionError, match="unknown variable"):
        db.execute("CALL p()")


def test_call_of_function_rejected(db):
    from repro.fdbs.functions import make_external_function
    from repro.fdbs.types import INTEGER

    db.register_external_function(
        make_external_function("f", [("x", INTEGER)], [("y", INTEGER)], lambda x: x)
    )
    with pytest.raises(SqlError, match="CALL is only valid"):
        db.execute("CALL f(1)")


def test_runaway_loop_guarded(db):
    db.execute(
        "CREATE PROCEDURE forever (OUT x INT) LANGUAGE SQL BEGIN "
        "SET x = 0; WHILE 1 = 1 DO SET x = x + 1; END WHILE; END"
    )
    with pytest.raises(ExecutionError, match="iterations"):
        db.execute("CALL forever()")


def test_loop_expressions_compile_once_per_call(db, monkeypatch):
    """Each expression node compiles once per CALL, however often a
    loop evaluates it; a new CALL compiles afresh."""
    from repro.fdbs import procedures

    compiles = []

    class CountingCompiler(procedures.ExpressionCompiler):
        def __init__(self, *args, **kwargs):
            compiles.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(procedures, "ExpressionCompiler", CountingCompiler)
    db.execute(
        """
        CREATE PROCEDURE sum_to (IN n INT, OUT total INT) LANGUAGE SQL BEGIN
          DECLARE i INT DEFAULT 1;
          SET total = 0;
          WHILE i <= n DO
            SET total = total + i;
            SET i = i + 1;
          END WHILE;
        END
        """
    )
    # DEFAULT 1, 0, i <= n, total + i, i + 1.
    for n, total in ((10, 55), (200, 20100)):
        compiles.clear()
        assert db.execute(f"CALL sum_to({n})").out_params == {"total": total}
        assert len(compiles) == 5


def test_undeclared_variable_raises_at_its_first_evaluation(db):
    from repro.errors import PlanError

    db.execute(
        """
        CREATE PROCEDURE p (IN n INT, OUT t INT) LANGUAGE SQL BEGIN
          DECLARE i INT DEFAULT 0;
          SET t = 0;
          WHILE i < n DO
            SET t = t + ghost;
            SET i = i + 1;
          END WHILE;
        END
        """
    )
    assert db.execute("CALL p(0)").out_params == {"t": 0}
    with pytest.raises(PlanError, match="ghost"):
        db.execute("CALL p(3)")
