"""SQL type system of the FDBS dialect.

Covers the types the paper's examples use (INT, BIGINT, VARCHAR) plus
the usual relational companions, with a DB2-flavoured cast lattice:
implicit *promotion* along the numeric ladder and between character
types, explicit casts everywhere a sensible conversion exists.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Callable, Sequence

from repro.errors import TypeError_


class TypeFamily(enum.Enum):
    """Coarse type families used by the cast rules."""

    BOOLEAN = "boolean"
    NUMERIC = "numeric"
    CHARACTER = "character"
    DATETIME = "datetime"


@dataclass(frozen=True)
class SqlType:
    """A concrete SQL type, possibly parameterised (length / precision).

    Instances are immutable and comparable; ``VARCHAR(20)`` equals
    ``VARCHAR(20)`` but not ``VARCHAR(10)``.  Use :func:`parse_type` to
    build one from SQL text.
    """

    name: str
    family: TypeFamily
    length: int | None = None
    precision: int | None = None
    scale: int | None = None
    # Position on the numeric promotion ladder (higher wins in implicit
    # promotion); None for non-numeric types.
    ladder: int | None = None

    def render(self) -> str:
        """SQL text for this type."""
        if self.name in ("CHAR", "VARCHAR") and self.length is not None:
            return f"{self.name}({self.length})"
        if self.name == "DECIMAL" and self.precision is not None:
            return f"DECIMAL({self.precision}, {self.scale or 0})"
        return self.name

    def __str__(self) -> str:
        return self.render()


BOOLEAN = SqlType("BOOLEAN", TypeFamily.BOOLEAN)
SMALLINT = SqlType("SMALLINT", TypeFamily.NUMERIC, ladder=1)
INTEGER = SqlType("INTEGER", TypeFamily.NUMERIC, ladder=2)
BIGINT = SqlType("BIGINT", TypeFamily.NUMERIC, ladder=3)
DOUBLE = SqlType("DOUBLE", TypeFamily.NUMERIC, ladder=5)
DATE = SqlType("DATE", TypeFamily.DATETIME)


def DECIMAL(precision: int = 31, scale: int = 0) -> SqlType:
    """A DECIMAL(p, s) type (ladder between BIGINT and DOUBLE)."""
    if not (1 <= precision <= 31):
        raise TypeError_(f"DECIMAL precision must be in 1..31, got {precision}")
    if not (0 <= scale <= precision):
        raise TypeError_(
            f"DECIMAL scale must be in 0..precision, got {scale} (p={precision})"
        )
    return SqlType(
        "DECIMAL", TypeFamily.NUMERIC, precision=precision, scale=scale, ladder=4
    )


def CHAR(length: int = 1) -> SqlType:
    """A fixed-length CHAR(n) type."""
    if length < 1:
        raise TypeError_(f"CHAR length must be >= 1, got {length}")
    return SqlType("CHAR", TypeFamily.CHARACTER, length=length)


def VARCHAR(length: int = 255) -> SqlType:
    """A VARCHAR(n) type."""
    if length < 1:
        raise TypeError_(f"VARCHAR length must be >= 1, got {length}")
    return SqlType("VARCHAR", TypeFamily.CHARACTER, length=length)


_SIMPLE_TYPES = {
    "BOOLEAN": BOOLEAN,
    "SMALLINT": SMALLINT,
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "BIGINT": BIGINT,
    "LONG": BIGINT,  # the paper speaks of an INT -> LONG conversion
    "DOUBLE": DOUBLE,
    "FLOAT": DOUBLE,
    "DATE": DATE,
}


def parse_type(name: str, *params: int) -> SqlType:
    """Build a :class:`SqlType` from a type keyword and its parameters."""
    upper = name.upper()
    if upper in _SIMPLE_TYPES:
        if params:
            raise TypeError_(f"type {upper} takes no parameters")
        return _SIMPLE_TYPES[upper]
    if upper == "CHAR" or upper == "CHARACTER":
        return CHAR(params[0]) if params else CHAR()
    if upper == "VARCHAR":
        return VARCHAR(params[0]) if params else VARCHAR()
    if upper in ("DECIMAL", "DEC", "NUMERIC"):
        if len(params) == 0:
            return DECIMAL()
        if len(params) == 1:
            return DECIMAL(params[0])
        return DECIMAL(params[0], params[1])
    raise TypeError_(f"unknown SQL type {name!r}")


# ---------------------------------------------------------------------------
# Cast / promotion rules
# ---------------------------------------------------------------------------


def is_numeric(t: SqlType) -> bool:
    """True for the numeric type family."""
    return t.family is TypeFamily.NUMERIC


def is_character(t: SqlType) -> bool:
    """True for the character type family."""
    return t.family is TypeFamily.CHARACTER


def implicitly_castable(source: SqlType, target: SqlType) -> bool:
    """True if ``source`` values may silently flow into ``target`` slots.

    Implicit casts are promotions only: up the numeric ladder, between
    character types, and identity.  Anything lossy requires an explicit
    CAST, as in the paper's simple case (INT -> LONG is a promotion, so
    ``BIGINT(...)`` is merely making it visible).
    """
    if source == target:
        return True
    if is_numeric(source) and is_numeric(target):
        assert source.ladder is not None and target.ladder is not None
        return source.ladder <= target.ladder
    if is_character(source) and is_character(target):
        return True
    return False


def explicitly_castable(source: SqlType, target: SqlType) -> bool:
    """True if ``CAST(source AS target)`` is allowed at all."""
    if implicitly_castable(source, target):
        return True
    if is_numeric(source) and is_numeric(target):
        return True  # demotions allowed explicitly
    if is_character(source) and (is_numeric(target) or target is DATE):
        return True
    if (is_numeric(source) or source is DATE) and is_character(target):
        return True
    if source is BOOLEAN and is_character(target):
        return True
    return False


def common_supertype(a: SqlType, b: SqlType) -> SqlType:
    """The promotion target for mixing ``a`` and ``b`` in an expression."""
    if a == b:
        return a
    if is_numeric(a) and is_numeric(b):
        assert a.ladder is not None and b.ladder is not None
        return a if a.ladder >= b.ladder else b
    if is_character(a) and is_character(b):
        length = max(a.length or 0, b.length or 0)
        return VARCHAR(length if length > 0 else 255)
    raise TypeError_(f"no common supertype of {a} and {b}")


def cast_value(value: object, source: SqlType, target: SqlType) -> object:
    """Convert a Python runtime value from ``source`` to ``target``.

    NULL (Python ``None``) casts to NULL of any type.  Raises
    :class:`~repro.errors.TypeError_` when the cast is not allowed or the
    value does not convert (e.g. ``CAST('abc' AS INT)``).
    """
    if value is None:
        return None
    if not explicitly_castable(source, target):
        raise TypeError_(f"cannot cast {source} to {target}")
    try:
        if target.family is TypeFamily.NUMERIC:
            return _to_numeric(value, target)
        if target.family is TypeFamily.CHARACTER:
            return _to_character(value, source, target)
        if target is DATE:
            return _to_date(value)
        if target is BOOLEAN:
            if isinstance(value, bool):
                return value
            raise TypeError_(f"cannot cast {value!r} to BOOLEAN")
    except (ValueError, InvalidOperation) as exc:
        raise TypeError_(f"value {value!r} does not convert to {target}: {exc}")
    raise TypeError_(f"unsupported cast target {target}")  # pragma: no cover


def _to_numeric(value: object, target: SqlType) -> object:
    if isinstance(value, bool):
        raise TypeError_("cannot cast BOOLEAN to a numeric type")
    if isinstance(value, str):
        value = value.strip()
    if target.name == "DOUBLE":
        return float(value)  # type: ignore[arg-type]
    if target.name == "DECIMAL":
        dec = Decimal(str(value))
        if target.scale is not None:
            quantum = Decimal(1).scaleb(-target.scale)
            dec = dec.quantize(quantum)
        return dec
    # integer targets truncate toward zero, DB2-style
    if isinstance(value, str):
        number = Decimal(value)
    else:
        number = Decimal(str(value))
    integral = int(number.to_integral_value(rounding="ROUND_DOWN"))
    _check_integer_range(integral, target)
    return integral


_INT_RANGES = {
    "SMALLINT": (-(2**15), 2**15 - 1),
    "INTEGER": (-(2**31), 2**31 - 1),
    "BIGINT": (-(2**63), 2**63 - 1),
}


def _check_integer_range(value: int, target: SqlType) -> None:
    low, high = _INT_RANGES[target.name]
    if not (low <= value <= high):
        raise TypeError_(f"value {value} out of range for {target.name}")


def _to_character(value: object, source: SqlType, target: SqlType) -> str:
    if isinstance(value, bool):
        text = "TRUE" if value else "FALSE"
    elif isinstance(value, datetime.date):
        text = value.isoformat()
    else:
        text = str(value)
    if target.length is not None and len(text) > target.length:
        if source.family is TypeFamily.CHARACTER:
            text = text[: target.length]  # truncation, DB2-style
        else:
            raise TypeError_(
                f"value {text!r} too long for {target.render()} "
                f"(length {len(text)})"
            )
    if target.name == "CHAR" and target.length is not None:
        text = text.ljust(target.length)
    return text


def _to_date(value: object) -> datetime.date:
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        return datetime.date.fromisoformat(value.strip())
    raise TypeError_(f"cannot cast {value!r} to DATE")


def python_value_matches(value: object, t: SqlType) -> bool:
    """Cheap runtime check that a Python value inhabits a SQL type."""
    if value is None:
        return True
    if t is BOOLEAN:
        return isinstance(value, bool)
    if t.family is TypeFamily.NUMERIC:
        if isinstance(value, bool):
            return False
        if t.name == "DOUBLE":
            return isinstance(value, (int, float, Decimal))
        if t.name == "DECIMAL":
            return isinstance(value, (int, Decimal))
        return isinstance(value, int)
    if t.family is TypeFamily.CHARACTER:
        return isinstance(value, str)
    if t is DATE:
        return isinstance(value, datetime.date)
    return False  # pragma: no cover


def coerce_into(value: object, t: SqlType) -> object:
    """Coerce a Python value into column type ``t`` on insert/bind.

    Accepts values already of the right shape and applies implicit
    promotions (e.g. int into DOUBLE); rejects everything else.
    """
    if value is None:
        return None
    if python_value_matches(value, t):
        if isinstance(value, Decimal) and value.is_snan():
            raise TypeError_(f"signalling NaN {value!r} does not fit column type {t}")
        if t.family is TypeFamily.CHARACTER and t.length is not None:
            text = str(value)
            if len(text) > t.length:
                raise TypeError_(
                    f"value {text!r} too long for {t.render()} (length {len(text)})"
                )
            if t.name == "CHAR":
                return text.ljust(t.length)
            return text
        if t.name == "DOUBLE":
            return float(value)  # type: ignore[arg-type]
        if isinstance(value, int) and t.name in _INT_RANGES:
            _check_integer_range(value, t)
        return value
    inferred = infer_type(value)
    if implicitly_castable(inferred, t):
        return cast_value(value, inferred, t)
    raise TypeError_(f"value {value!r} ({inferred}) does not fit column type {t}")


def reject_signalling_nan(param_rows: Sequence[Sequence[object]]) -> None:
    """Raise :class:`TypeError_` for a signalling-NaN ``Decimal`` among a
    statement's bound parameters, in any of its parameter rows, as
    :func:`coerce_into` does on entry: comparing one would raise a bare
    ``decimal.InvalidOperation``."""
    for params in param_rows:
        for value in params:
            if isinstance(value, Decimal) and value.is_snan():
                # Indexed here only: the loop reads every value of a load.
                index = next(i for i, v in enumerate(params) if v is value)
                raise TypeError_(
                    f"signalling NaN {value!r} bound to parameter ?{index + 1} "
                    "is not a SQL value"
                )


#: One coercer per SQL type, keyed by the fields that decide equality
#: (a tuple of plain values hashes far cheaper than the dataclass).
_COERCERS: dict[tuple, Callable[[object], object]] = {}


def coercer(t: SqlType) -> Callable[[object], object]:
    """``coercer(t)(value)`` is ``coerce_into(value, t)``, made cheap for
    values that already inhabit ``t``.

    The fast path hands back ``value`` itself when its exact type fits:
    an in-range ``int`` for the integer types, a ``float`` for DOUBLE, a
    ``str`` within the length for VARCHAR or of exactly the length for
    CHAR (``coerce_into`` returns the same object for those).  Anything
    else, NULL, subclasses and other types included, goes through
    :func:`coerce_into`.
    """
    key = (t.name, t.length, t.precision, t.scale)
    coerce = _COERCERS.get(key)
    if coerce is not None:
        return coerce
    length = t.length
    if t.name in _INT_RANGES:
        low, high = _INT_RANGES[t.name]
        coerce = lambda v: v if type(v) is int and low <= v <= high else coerce_into(v, t)
    elif t.name == "DOUBLE":
        coerce = lambda v: v if type(v) is float else coerce_into(v, t)
    elif t.name == "VARCHAR" and length is not None:
        coerce = lambda v: v if type(v) is str and len(v) <= length else coerce_into(v, t)
    elif t.name == "CHAR" and length is not None:
        coerce = lambda v: v if type(v) is str and len(v) == length else coerce_into(v, t)
    else:
        coerce = lambda v: coerce_into(v, t)
    _COERCERS[key] = coerce
    return coerce


def infer_type(value: object) -> SqlType:
    """Best-effort SQL type of a Python literal value."""
    if value is None:
        raise TypeError_("cannot infer a type for NULL")
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER if -(2**31) <= value <= 2**31 - 1 else BIGINT
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, Decimal):
        return DECIMAL()
    if isinstance(value, str):
        return VARCHAR(max(1, len(value)))
    if isinstance(value, datetime.date):
        return DATE
    raise TypeError_(f"no SQL type for Python value {value!r}")


# ---------------------------------------------------------------------------
# Value identity: one key for =, joins, GROUP BY, DISTINCT, UNION, ORDER BY
# ---------------------------------------------------------------------------

#: The key of every NaN, float or Decimal: all NaNs form one group and
#: one distinct value (though ``NaN = NaN`` never holds).
NAN_KEY = object()


def char_key(value: object) -> object:
    """A character value's key: the value without trailing blanks (any
    other value, NULL included, is its own).  DB2 compares VARCHAR
    blank-padded; only blanks pad (``'ab\t'`` is not ``'ab'``)."""
    return value.rstrip(" ") if isinstance(value, str) else value


def decimal_operands(a: object, b: object) -> tuple[object, object]:
    """Two numbers, one a Decimal, as ``=`` and ``<`` compare them:
    through ``Decimal(str(x))``, or as floats when either is NaN (Decimal
    raises on ordering a NaN; over floats only ``<>`` holds)."""
    a, b = Decimal(str(a)), Decimal(str(b))
    if a.is_nan() or b.is_nan():
        return float(a), float(b)
    return a, b


def _number_key(value: object) -> object:
    return NAN_KEY if value != value else value


def _any_key(value: object) -> object:
    return char_key(value) if isinstance(value, str) else _number_key(value)


def value_key(t: SqlType | None) -> Callable[[object], object] | None:
    """The key values of type ``t`` group, deduplicate and compare equal
    by: :func:`char_key` for character types, NaN to :data:`NAN_KEY` for
    DOUBLE and DECIMAL, every rule for an unknown type (None).  None for
    the integer types, BOOLEAN and DATE, whose values are their own key.
    For non-NULL, non-NaN values, ``a = b`` exactly when the keys are
    equal."""
    if t is None:
        return _any_key
    if t.family is TypeFamily.CHARACTER:
        return char_key
    return _number_key if t.name in ("DOUBLE", "DECIMAL") else None


def join_key(t: SqlType | None) -> Callable[[object], object] | None:
    """The key an equi-join matches a value of type ``t`` by: its
    :func:`value_key` with NaN mapped to None.  A NULL or NaN key
    matches nothing, so joins drop None keys.  Both sides of a join use
    one side's key: one that cannot hold NaN matches no NaN anyway."""
    key = value_key(t)
    if key is None or key is char_key:
        return key
    return lambda value: None if value != value else key(value)


def row_key(keys: Sequence[Callable | None]) -> Callable[[Sequence], tuple] | None:
    """The key of a tuple of values, position by position (None in
    ``keys``: the value is its own key); None when the tuple is its own
    key."""
    if not any(keys):
        return None
    fns = [key or _same for key in keys]
    return lambda values: tuple([fn(value) for fn, value in zip(fns, values)])


def _same(value: object) -> object:
    return value


_NAN_SORT_KEY = (1,)
_NULL_SORT_KEY = (2,)


def sort_key(value: object) -> tuple:
    """The native ORDER BY key of one value: ``(0, key)``, so strings
    sort without trailing blanks; NaN, float or Decimal, above every
    number and NULL above NaN (fixed keys: a NaN compares false both
    ways, and a Decimal NaN raises on ``<``)."""
    if value is None:
        return _NULL_SORT_KEY
    key = _any_key(value)
    return _NAN_SORT_KEY if key is NAN_KEY else (0, key)
