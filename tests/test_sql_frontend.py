"""SQL front end: token positions, render round trips, lexer errors,
fuzzing, expression precedence and ``?`` marker numbering.

The corpus is the SQL battery's (``QueryGenerator`` via
``generate_corpus``), imported read-only.
"""

import time
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexerError, ParseError, SqlError
from repro.fdbs import ast
from repro.fdbs.lexer import TokenType, tokenize
from repro.fdbs.parser import parse_expression, parse_script, parse_statement
from tests.sql_battery.generator import generate_corpus

CORPUS = [query.sql for seed in range(1, 6) for query in generate_corpus(seed)]


def _spelling(text: str, token) -> str:
    """The source text a token was read from, rebuilt from its value."""
    if token.type is TokenType.STRING:
        return "'" + token.value.replace("'", "''") + "'"
    if token.type is TokenType.IDENTIFIER and text[token.position] == '"':
        return '"' + token.value.replace('"', '""') + '"'
    return token.value


# ---------------------------------------------------------------------------
# Corpus properties
# ---------------------------------------------------------------------------


def test_every_corpus_token_starts_at_its_position_and_line_column():
    checked = 0
    for text in CORPUS:
        for token in tokenize(text):
            spelling = _spelling(text, token)
            source = text[token.position : token.position + len(spelling)]
            if token.type is TokenType.KEYWORD:
                source = source.upper()
            assert source == spelling, (text, token)
            assert token.line == text.count("\n", 0, token.position) + 1
            assert token.column == token.position - text.rfind("\n", 0, token.position)
            checked += 1
    assert checked > 10_000


def test_corpus_render_parse_round_trip():
    for text in CORPUS:
        statement = parse_statement(text)
        assert parse_statement(statement.render()) == statement, text


# ---------------------------------------------------------------------------
# Lexer errors: exact message, position, line and column
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, message, position, line, column",
    [
        ("SELECT @", "unexpected character '@'", 7, 1, 8),
        ("SELECT a,\r\n  b # c", "unexpected character '#'", 15, 2, 5),
        ("SELECT ²", "unexpected character '²'", 7, 1, 8),
        ("SELECT a FROM t WHERE b = ¹", "unexpected character '¹'", 26, 1, 27),
        ("SELECT 12² FROM t", "unexpected character '²'", 9, 1, 10),
        ("SELECT ½", "unexpected character '½'", 7, 1, 8),
        ("SELECT 'abc", "unterminated string literal", 11, 1, 12),
        ("SELECT 'a\r\nbc", "unterminated string literal", 13, 2, 3),
        ('SELECT "abc', "unterminated delimited identifier", 11, 1, 12),
        ('SELECT "ab\ncd', "unterminated delimited identifier", 13, 2, 3),
        ('SELECT "" FROM t', "empty delimited identifier", 9, 1, 10),
        ("SELECT 1 /* never\r\n closed", "unterminated block comment", 26, 2, 8),
    ],
)
def test_lexer_error_message_and_position(text, message, position, line, column):
    with pytest.raises(LexerError) as excinfo:
        tokenize(text)
    error = excinfo.value
    assert str(error) == f"{message} (line {line}, column {column})"
    assert (error.position, error.line, error.column) == (position, line, column)


def test_positions_after_multiline_comments_and_strings():
    tokens = tokenize("SELECT /* one\ntwo */ x\n  /* three */ y")
    assert [(t.value, t.position, t.line, t.column) for t in tokens[1:]] == [
        ("x", 21, 2, 8),
        ("y", 37, 3, 15),
        ("", 38, 3, 16),
    ]
    tokens = tokenize("SELECT\r\n  'a\nb' c")
    assert [(t.value, t.position, t.line, t.column) for t in tokens[1:]] == [
        ("a\nb", 10, 2, 3),
        ("c", 16, 3, 4),
        ("", 17, 3, 5),
    ]


# ---------------------------------------------------------------------------
# Delimited identifiers and DB2 float constants
# ---------------------------------------------------------------------------


def test_doubled_quote_inside_delimited_identifier_is_one_quote():
    tokens = tokenize('SELECT "a""b" FROM t')
    assert (tokens[1].type, tokens[1].value) == (TokenType.IDENTIFIER, 'a"b')
    assert tokens[2].matches(TokenType.KEYWORD, "FROM")


@pytest.mark.parametrize(
    "sql", ['SELECT "order" FROM t', 'SELECT "a""b" FROM "select"', 'SELECT x AS "FROM" FROM t']
)
def test_keyword_and_quote_identifiers_survive_render(sql):
    statement = parse_statement(sql)
    assert parse_statement(statement.render()) == statement


@pytest.mark.parametrize(
    "text, value",
    [("1.e5", 100000.0), ("2.E5", 200000.0), ("1.E-2", 0.01), (".5e1", 5.0)],
)
def test_float_constant_with_bare_decimal_point(text, value):
    tokens = tokenize(f"SELECT {text} FROM t")
    assert (tokens[1].type, tokens[1].value) == (TokenType.NUMBER, text)
    assert parse_statement(f"SELECT {text} FROM t").items[0] == ast.SelectItem(
        ast.Literal(value)
    )


def test_trailing_decimal_point_is_still_exact():
    assert parse_expression("1.") == ast.Literal(Decimal("1"))


# ---------------------------------------------------------------------------
# Fuzz: any text either parses or raises a SqlError subclass
# ---------------------------------------------------------------------------

_FRAGMENTS = (
    list("abzAZ_019.,;()?*+-/<>=!|'\"")
    + [" ", "\t", "\n", "\r\n", "\xa0", "\u2028", "\u3000"]  # whitespace
    + ["é", "ß", "Ω", "ж", "٣", "²", "½", "ⅻ"]  # non-ASCII letters and digits
    + ["--", "/*", "*/", "''", '""', "1.e5", ".5", "E+"]
    + "SELECT FROM WHERE NOT IN LIKE BETWEEN AND OR IS NULL CASE WHEN THEN "
    "END CAST AS INT EXISTS ORDER BY GROUP HAVING FETCH FIRST ROWS ONLY "
    "LIMIT VALUES INSERT INTO VARCHAR".split()
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["", "SELECT ", "SELECT a FROM t WHERE "]),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=16).map(" ".join),
)
def test_parse_statement_raises_only_sql_errors(prefix, text):
    try:
        parse_statement(prefix + text)
    except SqlError:
        pass


@pytest.mark.parametrize(
    "sql", ["SELECT x FROM t LIMIT 1.5", "SELECT x FROM t FETCH FIRST 2e1 ROWS ONLY"]
)
def test_non_integer_row_count_is_a_parse_error(sql):
    with pytest.raises(ParseError, match="expected row count"):
        parse_statement(sql)


def test_non_integer_type_parameter_is_a_parse_error():
    with pytest.raises(ParseError, match="expected numeric type parameter"):
        parse_statement("SELECT CAST(x AS VARCHAR(1.5)) FROM t")


# ---------------------------------------------------------------------------
# Precedence and associativity
# ---------------------------------------------------------------------------


def col(name):
    return ast.ColumnRef(None, name)


def binop(op, left, right):
    return ast.BinaryOp(op, left, right)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a - b - c", binop("-", binop("-", col("a"), col("b")), col("c"))),
        ("a / b * c", binop("*", binop("/", col("a"), col("b")), col("c"))),
        ("-a * b", binop("*", ast.UnaryOp("-", col("a")), col("b"))),
        ("+a - -b", binop("-", col("a"), ast.UnaryOp("-", col("b")))),
        (
            "NOT a = b AND c",
            binop("AND", ast.UnaryOp("NOT", binop("=", col("a"), col("b"))), col("c")),
        ),
        ("a || b + c", binop("+", binop("||", col("a"), col("b")), col("c"))),
        ("a + b * c", binop("+", col("a"), binop("*", col("b"), col("c")))),
        (
            "x BETWEEN a AND b AND c",
            binop("AND", ast.Between(col("x"), col("a"), col("b"), False), col("c")),
        ),
        (
            "a OR b AND NOT c",
            binop("OR", col("a"), binop("AND", col("b"), ast.UnaryOp("NOT", col("c")))),
        ),
        ("NOT NOT a", ast.UnaryOp("NOT", ast.UnaryOp("NOT", col("a")))),
        ("a + b IS NOT NULL", ast.IsNull(binop("+", col("a"), col("b")), True)),
        ("a != b", binop("<>", col("a"), col("b"))),
        (
            "a NOT LIKE b || 'x'",
            ast.Like(col("a"), binop("||", col("b"), ast.Literal("x")), True),
        ),
        ("a NOT IN (b OR c)", ast.InList(col("a"), [binop("OR", col("b"), col("c"))], True)),
    ],
)
def test_precedence_and_associativity(text, expected):
    assert parse_expression(text) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("a = b = c", "unexpected trailing input: = (line 1, column 7)"),
        ("a = b IS NULL", "unexpected trailing input: IS (line 1, column 7)"),
        ("a IS NULL = b", "unexpected trailing input: = (line 1, column 11)"),
        ("NOT a = b = c", "unexpected trailing input: = (line 1, column 11)"),
        ("a NOT b", "unexpected trailing input: NOT (line 1, column 3)"),
        ("a = NOT b", "unexpected token in expression: NOT (line 1, column 5)"),
    ],
)
def test_non_associative_predicates_are_rejected(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_expression(text)
    assert str(excinfo.value) == message


def test_chained_comparison_rejected_inside_statement():
    with pytest.raises(ParseError) as excinfo:
        parse_statement("SELECT x FROM t WHERE a = b = c")
    assert str(excinfo.value) == "unexpected trailing input: = (line 1, column 29)"


# ---------------------------------------------------------------------------
# ``?`` marker numbering
# ---------------------------------------------------------------------------


def _collect(node) -> list[int]:
    """Indices of every ``ast.Parameter`` under ``node``, in field order."""
    found: list[int] = []

    def walk(value):
        if isinstance(value, ast.Parameter):
            found.append(value.index)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif hasattr(value, "__dataclass_fields__"):
            for name in value.__dataclass_fields__:
                walk(getattr(value, name))

    walk(node)
    return found


def test_marker_indices_follow_source_order_across_constructs():
    statement = parse_statement(
        "SELECT CASE WHEN a = ? THEN ? ELSE CAST(? AS INTEGER) END "
        "FROM t WHERE b IN (?, ?) AND c BETWEEN ? AND ? "
        "AND d IN (SELECT e FROM u WHERE f = ?) AND g = ?"
    )
    assert _collect(statement) == list(range(9))


def test_marker_numbering_continues_across_script_statements():
    statements = parse_script(
        "INSERT INTO t VALUES (?, ?); UPDATE t SET a = ? WHERE b = ?; "
        "DELETE FROM t WHERE c IN (?, ?)"
    )
    assert [_collect(s) for s in statements] == [[0, 1], [2, 3], [4, 5]]


def test_many_markers_parse_in_linear_time():
    # Counting the earlier tokens for every marker made this quadratic:
    # about 12 s for 6,000 markers.  A running counter takes well under 1 s.
    rows = ", ".join(["(?, ?, ?, ?, ?, ?)"] * 1000)
    started = time.perf_counter()
    statement = parse_statement(f"INSERT INTO t VALUES {rows}")
    elapsed = time.perf_counter() - started
    assert _collect(statement) == list(range(6000))
    assert elapsed < 1.0, f"6,000 markers took {elapsed:.2f} s"
