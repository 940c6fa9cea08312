"""Predicate pushdown to remote SQL sources.

The paper leaves "query optimization" as future work (Sect. 6); this
module implements the classic first step for the federation side:
conjuncts of the WHERE clause that reference exactly one nickname's
columns — and contain only operations a plain SQL source understands —
are rendered to SQL text and shipped inside the remote statement,
instead of filtering locally after transferring every row.

Safety rules:

* only scans in the top-level (comma) FROM list are candidates; scans
  under an explicit OUTER JOIN keep their conjuncts local (pushing them
  below a LEFT JOIN would change NULL-padding semantics);
* a conjunct must reference at least one column of the target scan and
  nothing else (no other aliases, no statement parameters, no
  subqueries, no user-defined functions);
* allowed node types: literals, column refs, comparisons, arithmetic,
  AND/OR/NOT, IS NULL, IN lists, LIKE, BETWEEN.
"""

from __future__ import annotations

from repro.fdbs import ast
from repro.fdbs.executor import RemoteScanPlan
from repro.fdbs.expr import _FLIPPED, _plain_numeric, _plain_value


def split_conjuncts(expr: ast.Expression) -> list[ast.Expression]:
    """Flatten a tree of ANDs into its conjuncts."""
    if isinstance(expr, ast.BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def recombine(conjuncts: list[ast.Expression]) -> ast.Expression | None:
    """AND the conjuncts back together (None when empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.BinaryOp("AND", combined, conjunct)
    return combined


_PUSHABLE_OPS = frozenset(
    {"=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "AND", "OR", "||"}
)


def referenced_qualifiers(expr: ast.Expression) -> set[str] | None:
    """Upper-cased qualifiers of all column refs; None when the
    expression contains something that cannot ship (parameter,
    subquery, function call, unqualified column...)."""
    if isinstance(expr, ast.Literal):
        return set()
    if isinstance(expr, ast.ColumnRef):
        if expr.qualifier is None:
            return None  # ambiguous without the local layout; keep local
        return {expr.qualifier.upper()}
    if isinstance(expr, ast.BinaryOp):
        if expr.op.upper() not in _PUSHABLE_OPS:
            return None
        return _merge(referenced_qualifiers(expr.left), referenced_qualifiers(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return referenced_qualifiers(expr.operand)
    if isinstance(expr, ast.IsNull):
        return referenced_qualifiers(expr.operand)
    if isinstance(expr, ast.InList):
        result = referenced_qualifiers(expr.operand)
        for item in expr.items:
            result = _merge(result, referenced_qualifiers(item))
        return result
    if isinstance(expr, ast.Like):
        return _merge(
            referenced_qualifiers(expr.operand), referenced_qualifiers(expr.pattern)
        )
    if isinstance(expr, ast.Between):
        result = _merge(
            referenced_qualifiers(expr.operand), referenced_qualifiers(expr.low)
        )
        return _merge(result, referenced_qualifiers(expr.high))
    # Parameters, subqueries, CASE, casts, function calls: keep local.
    return None


def _merge(a: set[str] | None, b: set[str] | None) -> set[str] | None:
    if a is None or b is None:
        return None
    return a | b


def strip_qualifiers(expr: ast.Expression) -> ast.Expression:
    """Clone the expression with all column qualifiers removed (the
    remote statement scans a single table)."""
    import copy

    if isinstance(expr, ast.ColumnRef):
        return ast.ColumnRef(None, expr.name)
    clone = copy.copy(expr)
    if isinstance(clone, ast.BinaryOp):
        clone.left = strip_qualifiers(clone.left)
        clone.right = strip_qualifiers(clone.right)
    elif isinstance(clone, ast.UnaryOp):
        clone.operand = strip_qualifiers(clone.operand)
    elif isinstance(clone, ast.IsNull):
        clone.operand = strip_qualifiers(clone.operand)
    elif isinstance(clone, ast.InList):
        clone.operand = strip_qualifiers(clone.operand)
        clone.items = [strip_qualifiers(i) for i in clone.items]
    elif isinstance(clone, ast.Like):
        clone.operand = strip_qualifiers(clone.operand)
        clone.pattern = strip_qualifiers(clone.pattern)
    elif isinstance(clone, ast.Between):
        clone.operand = strip_qualifiers(clone.operand)
        clone.low = strip_qualifiers(clone.low)
        clone.high = strip_qualifiers(clone.high)
    return clone


def partition_predicates(
    where: ast.Expression | None,
    candidate_aliases: "set[str] | frozenset[str]",
) -> tuple[list[tuple[str, ast.Expression]], list[ast.Expression]]:
    """Deterministic pushed-vs-residual split of the WHERE conjuncts.

    Pure function of the expression tree: conjuncts are visited in WHERE
    order (left to right through the AND tree), so repeated calls always
    produce the same partition.  Returns ``(pushed, residual)`` where
    ``pushed`` pairs each shippable conjunct with its (upper-cased)
    target alias and ``residual`` keeps the local conjuncts, both in
    original order.
    """
    pushed: list[tuple[str, ast.Expression]] = []
    residual: list[ast.Expression] = []
    if where is None:
        return pushed, residual
    for conjunct in split_conjuncts(where):
        qualifiers = referenced_qualifiers(conjunct)
        if (
            qualifiers is not None
            and len(qualifiers) == 1
            and next(iter(qualifiers)) in candidate_aliases
        ):
            pushed.append((next(iter(qualifiers)), conjunct))
        else:
            residual.append(conjunct)
    return pushed, residual


def push_predicates(
    where: ast.Expression | None,
    candidates: dict[str, RemoteScanPlan],
    counter=None,
) -> ast.Expression | None:
    """Push eligible conjuncts into their remote scans.

    ``candidates`` maps upper-cased FROM aliases to their scans.
    Returns the remaining local WHERE expression (None if everything was
    pushed).  ``counter`` (the planner, optional) gets its
    ``predicates_pushed`` count bumped.
    """
    if where is None or not candidates:
        return where
    pushed, residual = partition_predicates(where, set(candidates))
    for alias, conjunct in pushed:
        scan = candidates[alias]
        scan.pushed_predicates.append(strip_qualifiers(conjunct).render())
        if counter is not None:
            counter.predicates_pushed += 1
    return recombine(residual)


# ---------------------------------------------------------------------------
# Zone-map prune-check compilation (columnar execution mode)
# ---------------------------------------------------------------------------
#
# A prune check is the zone-map analogue of pushing a predicate into a
# remote source: instead of shipping SQL text it compiles a WHERE
# conjunct against the per-chunk (min, max, null_count) statistics of a
# *local* columnar scan.  The contract is conservative may-match: the
# check receives one chunk's zone entry and returns False only when NO
# row of the chunk can satisfy the conjunct — the conjunct itself stays
# in the filter, so a check that keeps too much costs time, never
# correctness.

#: A compiled prune check: ``check(lo, hi, nulls, count) -> bool`` where
#: True means the chunk may contain matching rows (keep it).
ZoneCheck = "Callable[[object, object, int, int], bool]"

#: A prune check awaiting its statement parameters: ``bind(params)``
#: returns the execution's :data:`ZoneCheck`, or None to keep every
#: chunk.  Plans are cached and shared across threads, so the bound
#: check lives only in the scan's local variables, never on the plan.
ZoneBinder = "Callable[[list], ZoneCheck | None]"


def _zone_value(value: object) -> bool:
    """True when a bound value is safe for raw min/max comparison.

    The columnar kernels' gate (``_plain_value``: a plain int or float, not
    a bool, not a Decimal, not a string — CHAR values pad-strip in
    comparisons and DECIMAL operands are re-aligned through
    ``Decimal(str(x))``, neither of which raw bounds comparisons
    reproduce), minus NaN: every comparison with NaN is false, so
    bounds tests such as ``NOT BETWEEN`` would prune matching chunks.
    """
    return _plain_value(value) and value == value


def zone_target(conjunct: ast.Expression) -> ast.ColumnRef | None:
    """The single column a zone check could prune on (None if none).

    Recognised shapes, where a scalar is a literal or a ``?`` marker:
    ``col <op> scalar`` / ``scalar <op> col`` for the six comparison
    operators, ``col [NOT] BETWEEN scalar AND scalar``,
    ``col IN (scalar, ...)`` (non-negated), and ``col IS [NOT] NULL``.
    """
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op.upper() in _FLIPPED:
        if isinstance(conjunct.left, ast.ColumnRef) and _is_scalar(conjunct.right):
            return conjunct.left
        if _is_scalar(conjunct.left) and isinstance(conjunct.right, ast.ColumnRef):
            return conjunct.right
        return None
    if isinstance(conjunct, ast.Between):
        if (
            isinstance(conjunct.operand, ast.ColumnRef)
            and _is_scalar(conjunct.low)
            and _is_scalar(conjunct.high)
        ):
            return conjunct.operand
        return None
    if isinstance(conjunct, ast.InList):
        if (
            not conjunct.negated
            and isinstance(conjunct.operand, ast.ColumnRef)
            and all(_is_scalar(item) for item in conjunct.items)
        ):
            return conjunct.operand
        return None
    if isinstance(conjunct, ast.IsNull):
        if isinstance(conjunct.operand, ast.ColumnRef):
            return conjunct.operand
        return None
    return None


def _is_scalar(expr: ast.Expression) -> bool:
    return isinstance(expr, (ast.Literal, ast.Parameter))


def _bounded(test):
    """Wrap a ``(lo, hi, value)`` bounds test with the shared guards:
    an all-NULL chunk can never satisfy a value predicate (NULL compares
    to nothing), and unknown bounds must keep the chunk."""

    def check(lo, hi, nulls, count):
        if nulls >= count:  # every slot NULL (or the chunk is empty)
            return False
        if lo is None or hi is None:  # bounds unknown: cannot prune
            return True
        return test(lo, hi)

    return check


def _prune_all(lo, hi, nulls, count):
    return False


def _compare_check(op: str, value: object) -> "ZoneCheck | None":
    """Check for ``col <op> value``."""
    if value is None:
        # ``col <op> NULL`` is never TRUE: no chunk can match.
        return _prune_all
    if not _zone_value(value):
        return None
    if op == "=":
        return _bounded(lambda lo, hi: lo <= value <= hi)
    if op == "<":
        return _bounded(lambda lo, hi: lo < value)
    if op == "<=":
        return _bounded(lambda lo, hi: lo <= value)
    if op == ">":
        return _bounded(lambda lo, hi: hi > value)
    if op == ">=":
        return _bounded(lambda lo, hi: hi >= value)
    return _bounded(lambda lo, hi: not (lo == value and hi == value))  # <>


def _between_check(negated: bool, low: object, high: object) -> "ZoneCheck | None":
    """Check for ``col [NOT] BETWEEN low AND high``.

    ``BETWEEN`` is ``low <= col AND col <= high``, so a NULL bound makes
    it never TRUE, while ``NOT BETWEEN NULL AND high`` is TRUE exactly
    where ``col > high`` (and ``NOT BETWEEN low AND NULL`` where
    ``col < low``).
    """
    if negated and (low is None) != (high is None):
        return _compare_check(">", high) if low is None else _compare_check("<", low)
    if low is None or high is None:
        return _prune_all
    if not (_zone_value(low) and _zone_value(high)):
        return None
    if negated:
        # Prunable only when every value is inside [low, high].
        return _bounded(lambda lo, hi: lo < low or hi > high)
    return _bounded(lambda lo, hi: not (hi < low or lo > high))


def _in_check(*values: object) -> "ZoneCheck | None":
    """Check for ``col IN (values...)``."""
    members = [v for v in values if v is not None]
    if not members:
        # ``col IN (NULL, ...)`` with no real members is never TRUE.
        return _prune_all
    if not all(_zone_value(v) for v in members):
        return None
    return _bounded(lambda lo, hi: any(lo <= member <= hi for member in members))


def zone_check(conjunct: ast.Expression, column_type) -> "ZoneBinder | None":
    """Compile one WHERE conjunct into a zone-map prune-check binder.

    ``column_type`` is the scan column's SQL type; value comparisons are
    only compiled for plain numeric columns (see :func:`_zone_value`).
    Returns None when the conjunct can never prune safely.  A conjunct
    over literals only is the trivially bound case: its check is built
    once here.  One with ``?`` operands builds its check per execution
    from the bound values, keeping every chunk when a value is unbound
    or not zone-safe and pruning every chunk for a NULL, exactly as the
    same literal would.
    """
    if isinstance(conjunct, ast.IsNull):
        # Type-free: the null count is exact regardless of column type.
        if conjunct.negated:
            check = lambda lo, hi, nulls, count: nulls < count
        else:
            check = lambda lo, hi, nulls, count: nulls > 0
        return lambda params: check

    if not _plain_numeric(column_type):
        return None

    if isinstance(conjunct, ast.BinaryOp):
        op = conjunct.op.upper()
        if isinstance(conjunct.left, ast.ColumnRef):
            operands = [conjunct.right]
        else:
            operands = [conjunct.left]
            op = _FLIPPED[op]
        build = lambda value: _compare_check(op, value)
    elif isinstance(conjunct, ast.Between):
        operands = [conjunct.low, conjunct.high]
        build = lambda low, high: _between_check(conjunct.negated, low, high)
    elif isinstance(conjunct, ast.InList):
        operands = list(conjunct.items)
        build = _in_check
    else:
        return None

    if all(isinstance(operand, ast.Literal) for operand in operands):
        check = build(*[operand.value for operand in operands])
        return None if check is None else (lambda params: check)

    def bind(params: list) -> "ZoneCheck | None":
        values = []
        for operand in operands:
            if isinstance(operand, ast.Literal):
                values.append(operand.value)
            elif operand.index < len(params):
                values.append(params[operand.index])
            else:
                return None  # unbound: the filter raises row mode's error
        return build(*values)

    return bind
