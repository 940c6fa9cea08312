"""Property-based tests for the SQL layer (hypothesis)."""

import math
import re
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.fdbs import ast
from repro.fdbs.expr import EvalContext, ExpressionCompiler, RowLayout, like_to_regex
from repro.fdbs.lexer import KEYWORDS, TokenType, tokenize
from repro.fdbs.parser import parse_expression, parse_statement
from repro.fdbs.types import (
    BIGINT,
    DECIMAL,
    DOUBLE,
    INTEGER,
    SMALLINT,
    VARCHAR,
    cast_value,
    common_supertype,
    implicitly_castable,
    infer_type,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.upper() not in KEYWORDS
)

# Names the renderer must quote: reserved words in any case, and names
# with '"' or other non-word characters.  Kept apart from ``identifiers``,
# which the lexer properties rely on never producing a keyword.
quoted_identifiers = st.one_of(
    identifiers,
    st.sampled_from(sorted(KEYWORDS)).flatmap(
        lambda word: st.sampled_from([word, word.lower(), word.title()])
    ),
    st.text(alphabet='ab_1 "', min_size=1, max_size=6),
)

safe_strings = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)

literals = st.one_of(
    st.integers(min_value=0, max_value=10**9).map(ast.Literal),
    safe_strings.map(ast.Literal),
    st.just(ast.Literal(None)),
    st.booleans().map(ast.Literal),
)

column_refs = st.builds(
    ast.ColumnRef,
    st.one_of(st.none(), identifiers),
    identifiers,
)


def expressions(depth=2):
    if depth == 0:
        return st.one_of(literals, column_refs)
    sub = expressions(depth - 1)
    return st.one_of(
        literals,
        column_refs,
        st.builds(
            ast.BinaryOp,
            st.sampled_from(["+", "-", "*", "=", "<>", "<", "<=", ">", ">=", "||"]),
            sub,
            sub,
        ),
        st.builds(ast.UnaryOp, st.just("NOT"), sub),
        st.builds(ast.IsNull, sub, st.booleans()),
        st.builds(
            ast.InList, sub, st.lists(sub, min_size=1, max_size=3), st.booleans()
        ),
        st.builds(ast.Between, sub, sub, sub, st.booleans()),
        st.builds(
            ast.FunctionCall,
            st.sampled_from(["UPPER", "LOWER", "ABS", "COALESCE"]),
            st.lists(sub, min_size=1, max_size=2),
        ),
        st.builds(
            ast.Case,
            st.none(),
            st.lists(st.builds(ast.CaseWhen, sub, sub), min_size=1, max_size=2),
            st.one_of(st.none(), sub),
        ),
    )


# ---------------------------------------------------------------------------
# Lexer properties
# ---------------------------------------------------------------------------


@given(safe_strings)
def test_string_literal_lexes_back_to_itself(text):
    escaped = "'" + text.replace("'", "''") + "'"
    tokens = tokenize(escaped)
    assert tokens[0].type is TokenType.STRING
    assert tokens[0].value == text


@given(st.integers(min_value=0, max_value=10**15))
def test_integer_literal_lexes_back_to_itself(value):
    tokens = tokenize(str(value))
    assert tokens[0].type is TokenType.NUMBER
    assert int(tokens[0].value) == value


@given(identifiers)
def test_identifier_lexes_back_to_itself(name):
    tokens = tokenize(name)
    assert tokens[0].type is TokenType.IDENTIFIER
    assert tokens[0].value == name


@given(st.lists(identifiers, min_size=1, max_size=6))
def test_token_count_matches_word_count(names):
    tokens = tokenize(" ".join(names))
    assert len(tokens) == len(names) + 1  # + EOF


# ---------------------------------------------------------------------------
# Parser round-trip properties
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(expressions())
def test_expression_render_parse_round_trip(expr):
    rendered = expr.render()
    reparsed = parse_expression(rendered)
    assert reparsed == expr


@settings(max_examples=100)
@given(
    st.lists(identifiers, min_size=1, max_size=4, unique_by=lambda s: s.upper()),
    identifiers,
)
def test_select_render_parse_round_trip(columns, table):
    select = ast.Select(
        items=[ast.SelectItem(ast.ColumnRef(None, c)) for c in columns],
        from_items=[ast.TableRef(table, None)],
    )
    rendered = select.render()
    reparsed = parse_statement(rendered)
    assert reparsed.render() == rendered


@settings(max_examples=200)
@given(
    st.lists(quoted_identifiers, min_size=1, max_size=4),
    quoted_identifiers,
    quoted_identifiers,
)
def test_render_parse_round_trip_quotes_keywords_and_quotes(columns, table, alias):
    select = ast.Select(
        items=[ast.SelectItem(ast.ColumnRef(alias, c), c) for c in columns],
        from_items=[ast.TableRef(table, alias)],
    )
    assert parse_statement(select.render()) == select


def _evaluate(text):
    """The value and SQL type of a constant expression's text."""
    compiled = ExpressionCompiler(RowLayout([])).compile(parse_expression(text))
    return compiled.fn((), EvalContext()), compiled.type


def _same_value(a, b):
    if a != a:
        return b != b and type(a) is type(b)
    return a == b and type(a) is type(b) and math.copysign(1, a) == math.copysign(1, b)


@pytest.mark.parametrize(
    "value,sql_type",
    [
        (math.inf, DOUBLE),
        (-math.inf, DOUBLE),
        (math.nan, DOUBLE),
        (-0.0, DOUBLE),
        (1e20, DOUBLE),
        (2.5e-7, DOUBLE),
        (Decimal("1E+2"), DECIMAL()),
        (Decimal("-1E+2"), DECIMAL()),
        (Decimal("2.5E-7"), DECIMAL()),
        (Decimal("1.50"), DECIMAL()),
        (7, INTEGER),
        (2**40, BIGINT),
    ],
    ids=repr,
)
def test_number_literal_survives_render_and_parse(value, sql_type):
    """A rendered number literal parses back to its value and SQL type:
    ``inf`` used to read as an identifier, ``-0.0`` as a negated DECIMAL
    zero and ``Decimal('1E+2')`` as a DOUBLE."""
    result, result_type = _evaluate(ast.Literal(value).render())
    assert _same_value(result, value)
    assert result_type == sql_type


@pytest.mark.parametrize(
    "value,text",
    [
        (1.5, "1.5"),
        (1e20, "1e+20"),
        (Decimal("1.50"), "1.50"),
        (Decimal("-0.5"), "-0.5"),
        (7, "7"),
        (-3, "-3"),
        ("it's", "'it''s'"),
        (True, "TRUE"),
        (None, "NULL"),
    ],
    ids=repr,
)
def test_other_literals_render_as_before(value, text):
    """Shipped statement text keys the cache-fronted sources, so every
    literal that already parsed back keeps its text byte for byte."""
    assert ast.Literal(value).render() == text


@settings(max_examples=200)
@given(st.floats(allow_nan=False))
def test_every_float_literal_parses_back_to_an_equal_value(value):
    """Equal under SQL ``=``: a plain-notation float such as ``1.5``
    still reads as a DECIMAL, whose text stays as it was."""
    node = parse_expression(f"({ast.Literal(value).render()}) = ?")
    compiled = ExpressionCompiler(RowLayout([])).compile(node)
    assert compiled.fn((), EvalContext(params=[value])) is True


# ---------------------------------------------------------------------------
# Type-system properties
# ---------------------------------------------------------------------------

NUMERIC_TYPES = [SMALLINT, INTEGER, BIGINT, DOUBLE]


@given(st.sampled_from(NUMERIC_TYPES), st.sampled_from(NUMERIC_TYPES), st.sampled_from(NUMERIC_TYPES))
def test_implicit_cast_is_transitive(a, b, c):
    if implicitly_castable(a, b) and implicitly_castable(b, c):
        assert implicitly_castable(a, c)


@given(st.sampled_from(NUMERIC_TYPES), st.sampled_from(NUMERIC_TYPES))
def test_common_supertype_commutative_and_absorbing(a, b):
    super_ab = common_supertype(a, b)
    assert super_ab == common_supertype(b, a)
    assert implicitly_castable(a, super_ab)
    assert implicitly_castable(b, super_ab)


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_int_round_trips_through_varchar(value):
    text = cast_value(value, INTEGER, VARCHAR(20))
    back = cast_value(text, VARCHAR(20), INTEGER)
    assert back == value


@given(st.integers(min_value=-(2**15), max_value=2**15 - 1))
def test_promotion_preserves_value(value):
    assert cast_value(value, SMALLINT, BIGINT) == value
    assert cast_value(value, SMALLINT, DOUBLE) == float(value)


@given(st.one_of(st.integers(max_value=10**18, min_value=-(10**18)), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=5, min_size=1), st.booleans()))
def test_infer_type_accepts_its_own_value(value):
    inferred = infer_type(value)
    from repro.fdbs.types import python_value_matches

    assert python_value_matches(value, inferred)


# ---------------------------------------------------------------------------
# LIKE semantics
# ---------------------------------------------------------------------------


def naive_like(value: str, pattern: str) -> bool:
    """Reference implementation via dynamic programming."""
    regex = ""
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    return re.fullmatch(regex, value, re.DOTALL) is not None


@given(safe_strings, st.text(alphabet="ab%_", max_size=8))
def test_like_matches_reference(value, pattern):
    assert bool(like_to_regex(pattern).match(value)) == naive_like(value, pattern)


@given(safe_strings)
def test_like_percent_matches_everything(value):
    assert like_to_regex("%").match(value)


@given(safe_strings.filter(lambda s: s))
def test_like_exact_pattern_matches_only_itself(value):
    regex = like_to_regex(value.replace("%", "").replace("_", "") or "x")
    target = value.replace("%", "").replace("_", "") or "x"
    assert regex.match(target)
