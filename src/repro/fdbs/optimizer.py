"""Cost-based federated query optimizer.

The paper defers query optimization across the FDBS boundary to future
work (Sect. 6); this module closes that gap with the three classic
pieces a federated optimizer needs:

* **estimation** — selectivity of WHERE conjuncts and effective
  cardinality per FROM item, computed from the RUNSTATS snapshots in
  :mod:`repro.fdbs.stats` (row counts, per-column distinct counts,
  min/max);
* **join reordering** — a greedy order over the top-level FROM items
  that respects lateral dependencies (a table function must stay after
  every alias its arguments reference) and places the smallest
  effective-cardinality inputs first;
* **bind joins** — parameterized semijoin pushdown: the distinct join
  keys of the outer side are shipped into a remote nickname as an
  ``IN``-list predicate (:class:`~repro.fdbs.executor.
  RemoteBindJoinPlan`) or fed as a batched argument list into a
  DETERMINISTIC A-UDTF (:class:`~repro.fdbs.executor.UdtfBindJoinPlan`),
  mirroring the paper's input-container parameter passing.

The planner consults :func:`plan_decisions` once per query block.  The
gate is deliberately strict: **every** top-level FROM item must be a
base table or nickname *with collected statistics* or a DETERMINISTIC
table function, otherwise the answer is ``None`` and the planner builds
today's syntactic plan — which guarantees that with statistics absent
the cost-based mode is bit-identical to the syntactic one in both rows
and simulated time.

Decision costs are priced in the calibrated
:class:`~repro.simtime.costs.CostModel` constants (remote round trip and
per-row transfer for bind-vs-full fetches); without a machine the
comparison degrades to plain cardinalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.fdbs import ast
from repro.fdbs.executor import (
    MAX_BIND_KEYS,
    AggregatePlan,
    DistinctPlan,
    FilterPlan,
    LimitPlan,
    Plan,
)
from repro.fdbs.options import DEFAULT_OPTIONS, Options
from repro.fdbs.pushdown import referenced_qualifiers, split_conjuncts
from repro.fdbs.stats import TableStats, q_error
from repro.fdbs.types import is_character, is_numeric

#: Output-cardinality guess for a table function (no statistics exist).
DEFAULT_FUNCTION_ROWS = 10
#: Selectivity of a conjunct the estimator cannot analyse.
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Selectivity of an equality on a column without a distinct count.
EQ_FALLBACK_SELECTIVITY = 0.1

StatsLookup = Callable[[str], "TableStats | None"]


@dataclass
class BindRemote:
    """One bind-join decision against a remote nickname."""

    conjunct: ast.Expression
    """The consumed ``outer.col = nickname.col`` conjunct (matched by
    object identity when the planner filters the WHERE clause)."""

    outer_qualifier: str
    outer_column: str
    bind_column: str
    est_match_per_key: float
    """Estimated matching remote rows per outer row (card / ndv)."""


@dataclass
class LocalJoin:
    """One local join-strategy decision for a comma-joined base table
    or unbound nickname."""

    conjunct: ast.Expression
    """The consumed ``outer.col = inner.col`` equi-conjunct (matched by
    object identity when the planner filters the WHERE clause)."""

    outer_qualifier: str
    outer_column: str
    inner_column: str
    strategy: str
    """``hash`` | ``merge`` | ``indexnlj`` | ``nlj`` (cross-apply fold
    step filtered by ``conjunct`` directly above it)."""

    est_match_per_key: float
    """Estimated matching inner rows per outer key (card / ndv)."""

    sorted_hint: bool = False
    """RUNSTATS saw the inner key column presorted (merge joins skip
    the explicit sort the cost model would otherwise charge)."""


@dataclass
class Decisions:
    """The optimizer's verdict for one query block."""

    order: list[int]
    """Original FROM-item indices in chosen execution order."""

    bind_remote: dict[int, BindRemote] = field(default_factory=dict)
    bind_udtf: frozenset[int] = frozenset()
    est_scan: dict[int, float] = field(default_factory=dict)
    """Original index -> estimated scan output (pushdown-adjusted for
    nicknames)."""

    local_selectivity: float = 1.0
    """Combined selectivity of the conjuncts evaluated locally."""

    local_join: dict[int, LocalJoin] = field(default_factory=dict)
    """Original index of a comma-joined base table or unbound nickname
    -> join strategy."""

    reads_volatile_state: bool = False
    """Whether a choice read runtime state that changes without any
    epoch bump — a cache-fronted source's response cache.  A plan built
    from such decisions must not be kept in the statement cache."""


@dataclass
class _Item:
    """Analysis record of one top-level FROM item."""

    index: int
    kind: str  # "table" | "nickname" | "function"
    alias: str  # upper-cased correlation name
    name: str
    stats: TableStats | None
    deps: frozenset[str]
    base_card: float
    eff_card: float = 0.0
    #: Heterogeneous-source profile of a nickname's server (None keeps
    #: the uniform remote cost model).
    profile: object = None
    #: Whether the source's cache front would serve the plain ship-all
    #: scan of this nickname right now (cache-fronted profiles only).
    scan_cached: bool = False


def plan_decisions(
    select: ast.Select,
    catalog,
    stats_lookup: StatsLookup,
    costs=None,
    federation=None,
    options: Options = DEFAULT_OPTIONS,
) -> Decisions | None:
    """Analyse one query block; None means full syntactic fallback.

    ``federation`` (the database's FederationLayer, when available)
    supplies heterogeneous-source inputs: each nickname's
    :class:`~repro.fdbs.federation.SourceProfile` and whether its
    ship-all scan is currently cache-resident.  ``options.join_strategy``
    either lets the cost model price hash/merge/index-NLJ/NLJ per local
    comma join (``auto``) or forces one strategy wherever it applies.
    """
    from_items = select.from_items
    if not from_items:
        return None
    infos = _analyse_items(from_items, catalog, stats_lookup, federation)
    if infos is None:
        return None
    by_alias = {info.alias: info for info in infos}
    conjuncts = split_conjuncts(select.where) if select.where is not None else []

    for info in infos:
        info.eff_card = info.base_card * _combined_selectivity(
            conjuncts, info, by_alias
        )

    order = _greedy_order(infos)
    if order is None:
        return None
    position = {index: pos for pos, index in enumerate(order)}

    bind_remote, consumed = _choose_bind_joins(
        infos, conjuncts, by_alias, position, costs
    )
    bind_udtf = frozenset(
        info.index for info in infos if info.kind == "function" and info.deps
    )
    local_join = _choose_local_joins(
        infos, conjuncts, by_alias, position, consumed, options.join_strategy,
        catalog, bind_remote,
    )

    est_scan: dict[int, float] = {}
    for info in infos:
        if info.kind == "nickname":
            # Pushdown filters at the scan, so single-alias conjuncts on
            # a nickname shrink its scan estimate (bind conjuncts are
            # two-alias and accounted separately).
            est_scan[info.index] = info.eff_card
        else:
            est_scan[info.index] = info.base_card

    local = 1.0
    for conjunct in conjuncts:
        if any(conjunct is used for used in consumed):
            continue
        qualifiers = referenced_qualifiers(conjunct)
        if (
            qualifiers is not None
            and len(qualifiers) == 1
            and next(iter(qualifiers)) in by_alias
            and by_alias[next(iter(qualifiers))].kind == "nickname"
        ):
            continue  # pushed remotely; already in the scan estimate
        target = None
        if qualifiers is not None and len(qualifiers) == 1:
            target = by_alias.get(next(iter(qualifiers)))
        local *= _conjunct_selectivity(conjunct, target)

    return Decisions(
        order=order,
        bind_remote=bind_remote,
        bind_udtf=bind_udtf,
        est_scan=est_scan,
        local_selectivity=local,
        local_join=local_join,
        reads_volatile_state=any(
            info.profile is not None and info.profile.cache_hit_cost is not None
            for info in infos
        ),
    )


def _analyse_items(
    from_items, catalog, stats_lookup, federation=None
) -> list[_Item] | None:
    aliases: set[str] = set()
    shapes: list[tuple] = []
    for index, item in enumerate(from_items):
        if isinstance(item, ast.TableRef):
            alias = (item.alias or item.name).upper()
        elif isinstance(item, ast.TableFunctionRef):
            if item.alias is None:
                return None
            alias = item.alias.upper()
        else:
            return None  # explicit JOINs / derived tables: syntactic
        if alias in aliases:
            return None  # duplicate alias: let the syntactic path diagnose
        aliases.add(alias)
        shapes.append((index, item, alias))

    infos: list[_Item] = []
    for index, item, alias in shapes:
        if isinstance(item, ast.TableRef):
            if catalog.has_view(item.name):
                return None
            if catalog.has_table(item.name):
                table = catalog.get_table(item.name)
                if table.storage is None:
                    return None
                stats = stats_lookup(item.name)
                if stats is None:
                    return None
                infos.append(
                    _Item(index, "table", alias, item.name, stats, frozenset(), stats.card)
                )
                continue
            if catalog.has_nickname(item.name):
                stats = stats_lookup(item.name)
                if stats is None:
                    return None
                nickname = catalog.get_nickname(item.name)
                profile = None
                scan_cached = False
                if federation is not None:
                    profile = federation.profile_for(nickname)
                    if profile is not None:
                        scan_cached = federation.cached_full_scan(nickname)
                infos.append(
                    _Item(
                        index,
                        "nickname",
                        alias,
                        item.name,
                        stats,
                        frozenset(),
                        stats.card,
                        profile=profile,
                        scan_cached=scan_cached,
                    )
                )
                continue
            return None  # SYSCAT views, unknown names: syntactic
        # TableFunctionRef
        if not catalog.has_function(item.function_name):
            return None
        function = catalog.get_function(item.function_name)
        # Declared DETERMINISTIC, or an A-UDTF over a deterministic
        # non-mutating local function: both make dedup-by-argument safe.
        if not (
            function.deterministic
            or getattr(function, "source_deterministic", False)
        ):
            return None
        deps: set[str] = set()
        for arg in item.args:
            for ref in _column_refs(arg):
                if ref.qualifier is None:
                    return None  # unqualified lateral reference: bail
                qualifier = ref.qualifier.upper()
                if qualifier not in aliases:
                    return None  # parameter scope or unknown: bail
                deps.add(qualifier)
        infos.append(
            _Item(
                index,
                "function",
                alias,
                item.function_name,
                None,
                frozenset(deps),
                float(DEFAULT_FUNCTION_ROWS),
            )
        )
    return infos


def _greedy_order(infos: list[_Item]) -> list[int] | None:
    """Smallest effective cardinality first, lateral deps respected.

    Ties break on the upper-cased correlation name (not the FROM-list
    position): a deterministic, syntax-independent order that keeps
    EXPLAIN text stable across Python hash seeds and across cosmetic
    reorderings of equal-cardinality FROM items.
    """
    order: list[int] = []
    placed: set[str] = set()
    pending = list(infos)
    while pending:
        available = [info for info in pending if info.deps <= placed]
        if not available:
            return None  # forward reference: the syntactic path diagnoses it
        best = min(available, key=lambda info: (info.eff_card, info.alias))
        order.append(best.index)
        placed.add(best.alias)
        pending.remove(best)
    return order


def _choose_bind_joins(infos, conjuncts, by_alias, position, costs):
    """Pick at most one bind conjunct per nickname placed after its outer."""
    bind_remote: dict[int, BindRemote] = {}
    consumed: list[ast.Expression] = []
    for info in infos:
        if info.kind != "nickname":
            continue
        max_keys = MAX_BIND_KEYS
        if info.profile is not None and info.profile.max_bind_keys is not None:
            max_keys = info.profile.max_bind_keys
        pushed = _has_single_alias_conjunct(conjuncts, info.alias)
        for conjunct in conjuncts:
            if any(conjunct is used for used in consumed):
                continue
            oriented = _as_bind_conjunct(conjunct, info.alias, by_alias)
            if oriented is None:
                continue
            outer_alias, outer_column, bind_column = oriented
            outer = by_alias[outer_alias]
            if position[outer.index] >= position[info.index]:
                continue  # outer side not materialised yet
            est_keys = _est_distinct(outer, outer_column)
            if est_keys > max_keys:
                continue
            column = info.stats.column(bind_column) if info.stats else None
            ndv = column.ndv if column is not None and column.ndv > 0 else 0
            per_key = info.stats.card / ndv if ndv else float(info.stats.card)
            if not _bind_pays_off(info, est_keys * per_key, costs, pushed):
                continue
            bind_remote[info.index] = BindRemote(
                conjunct, outer_alias, outer_column, bind_column, per_key
            )
            consumed.append(conjunct)
            break
    return bind_remote, consumed


def _choose_local_joins(
    infos, conjuncts, by_alias, position, consumed, join_strategy, catalog,
    bind_remote,
) -> dict[int, LocalJoin]:
    """Price a physical join strategy per comma-joined base table or
    unbound nickname.

    For every base table placed after at least one other FROM item, the
    first unconsumed orientable equi-conjunct joining it to an
    earlier-placed item is a local-join candidate; the cost model then
    picks the cheapest of nested-loop, hash, merge (sort charged unless
    RUNSTATS saw the key presorted) and index nested-loop (numeric or
    character inner keys).  A nickname the bind-join pass left unbound
    is priced the same way but only as nested-loop vs. hash: its
    ship-all fetch is the same SQL text either way.  Nicknames are
    skipped after any table function, whose per-row clock charges would
    make a chunked outer side pull the remote source at a different
    simulated time.

    Winning conjuncts are appended to ``consumed`` in place so they
    leave the residual WHERE estimate, exactly like bind joins.  When
    every candidate conjunct stays on nested-loop, the first is still
    recorded (strategy ``nlj``): the planner filters by it directly
    above the item's fold step.
    """
    local_join: dict[int, LocalJoin] = {}
    after_function = False
    for info in sorted(infos, key=lambda item: position[item.index]):
        if info.kind == "function":
            after_function = True
            continue
        if position[info.index] == 0:
            continue
        if info.kind == "nickname" and (after_function or info.index in bind_remote):
            continue
        fallback = None
        for conjunct in conjuncts:
            if any(conjunct is used for used in consumed):
                continue
            oriented = _as_bind_conjunct(conjunct, info.alias, by_alias)
            if oriented is None:
                continue
            outer_alias, outer_column, inner_column = oriented
            outer = by_alias[outer_alias]
            if position[outer.index] >= position[info.index]:
                continue  # outer side not materialised yet
            strategy, per_key, sorted_hint = _pick_local_strategy(
                info, outer, inner_column, outer_column,
                position, join_strategy, catalog,
            )
            decision = LocalJoin(
                conjunct, outer_alias, outer_column, inner_column,
                strategy, per_key, sorted_hint,
            )
            if strategy != "nlj":
                break
            if fallback is None:
                fallback = decision
        else:
            decision = fallback
        if decision is not None:
            local_join[info.index] = decision
            consumed.append(decision.conjunct)
    return local_join


def _log2(value: float) -> float:
    return math.log2(value) if value > 1.0 else 0.0


def _pick_local_strategy(
    info, outer, inner_column, outer_column, position, join_strategy, catalog
):
    """``(strategy, est_match_per_key, inner_sorted)`` for one candidate.

    Cost formulas (units: rows touched; L = outer effective
    cardinality, R = inner cardinality, see DESIGN.md):

    * nlj       L x R                      (cross product + filter)
    * hash      L + 2R                     (build is heavier than probe)
    * merge     sort(L) + sort(R)          sort(N) = N if presorted
                                           else N x (1 + log2 N)
    * indexnlj  L x (1 + R/ndv) + R        (index build amortised;
                                           numeric or character inner
                                           key column)

    A nickname is offered nlj and hash only; a forced strategy that
    does not apply leaves the join on nlj.
    """
    inner_rows = float(info.stats.card)
    column = info.stats.column(inner_column)
    ndv = column.ndv if column is not None and column.ndv > 0 else 0
    per_key = inner_rows / ndv if ndv else inner_rows
    outer_rows = max(outer.eff_card, 1.0)
    inner_sorted = bool(column is not None and column.sorted_asc)
    costs = {
        "nlj": outer_rows * inner_rows,
        "hash": outer_rows + 2.0 * inner_rows,
    }
    if info.kind == "table":
        # The left input preserves the first-placed table's scan order
        # (every operator above it is left-major), so merge's outer sort
        # is free only when the outer is the position-0 table and
        # RUNSTATS saw its key column presorted.
        outer_stats = outer.stats.column(outer_column) if outer.stats else None
        outer_sorted = (
            outer.kind == "table"
            and position[outer.index] == 0
            and bool(outer_stats is not None and outer_stats.sorted_asc)
        )
        costs["merge"] = (
            (outer_rows if outer_sorted else outer_rows * (1.0 + _log2(outer_rows)))
            + (inner_rows if inner_sorted else inner_rows * (1.0 + _log2(inner_rows)))
        )
        if _indexable_column(catalog, info.name, inner_column):
            costs["indexnlj"] = outer_rows * (1.0 + per_key) + inner_rows
    if join_strategy != "auto":
        # Forced NLJ, or a forced strategy this item cannot run.
        best = join_strategy if join_strategy in costs else "nlj"
    else:
        best = min(costs, key=lambda name: (costs[name], name))
    return best, per_key, inner_sorted


def _indexable_column(catalog, table_name: str, column_name: str) -> bool:
    """Whether the base-table column is index-NLJ eligible: numeric or
    character, the types an index probe serves (the index buckets by
    the column's value key)."""
    if not catalog.has_table(table_name):
        return False
    table = catalog.get_table(table_name)
    target = column_name.upper()
    for column in table.columns:
        if column.name.upper() == target:
            return is_numeric(column.type) or is_character(column.type)
    return False


def _has_single_alias_conjunct(conjuncts, alias: str) -> bool:
    """Whether a conjunct references only ``alias`` (it will be pushed
    into the remote scan, changing the shipped SQL text)."""
    for conjunct in conjuncts:
        qualifiers = referenced_qualifiers(conjunct)
        if qualifiers is not None and qualifiers == {alias}:
            return True
    return False


def _bind_pays_off(info: "_Item", bound_rows: float, costs, pushed: bool) -> bool:
    """Priced comparison of the bound vs. the unbound fetch."""
    full_rows = info.stats.card
    profile = info.profile
    if profile is None:
        if costs is None:
            return bound_rows < full_rows
        transfer = costs.remote_row_transfer
        # Both variants pay one round trip; the bound fetch only wins on
        # the per-row transfer of the rows it avoids shipping.
        return bound_rows * transfer < full_rows * transfer
    # Heterogeneous source: price both fetches with the profile's own
    # constants.  The ship-all scan is filtered only when single-alias
    # conjuncts get pushed into it; the bound fetch always ships a
    # predicate.  A cache-resident ship-all scan costs one cache hit.
    cached = info.scan_cached and not pushed
    full_cost = _profiled_fetch_cost(full_rows, profile, filtered=pushed, cached=cached)
    bound_cost = _profiled_fetch_cost(bound_rows, profile, filtered=True, cached=False)
    return bound_cost < full_cost


def _profiled_fetch_cost(
    rows: float, profile, filtered: bool, cached: bool
) -> float:
    """Estimated simulated cost of one fetch under a source profile."""
    if cached:
        return profile.cache_hit_cost
    requests = 1.0
    if profile.page_size:
        requests = max(1.0, -(-rows // profile.page_size))
    cost = requests * profile.per_request + rows * profile.per_row
    if filtered:
        cost += profile.filtered_surcharge
    return cost


def _as_bind_conjunct(conjunct, nickname_alias, by_alias):
    """``(outer_alias, outer_column, bind_column)`` for an equi-conjunct
    joining another FROM item to this nickname; None otherwise."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None
    if left.qualifier is None or right.qualifier is None:
        return None
    pairs = ((left, right), (right, left))
    for outer_ref, remote_ref in pairs:
        if remote_ref.qualifier.upper() != nickname_alias:
            continue
        outer_alias = outer_ref.qualifier.upper()
        if outer_alias == nickname_alias or outer_alias not in by_alias:
            continue
        return outer_alias, outer_ref.name, remote_ref.name
    return None


def _est_distinct(item: _Item, column_name: str) -> float:
    """Estimated distinct key values the outer side will produce."""
    if item.stats is not None:
        column = item.stats.column(column_name)
        if column is not None and column.ndv > 0:
            return float(min(column.ndv, item.stats.card))
        return float(item.stats.card)
    return float(DEFAULT_FUNCTION_ROWS)


# -- selectivity estimation ---------------------------------------------------


def _combined_selectivity(conjuncts, item: _Item, by_alias) -> float:
    """Product over the single-alias conjuncts restricting ``item``."""
    result = 1.0
    for conjunct in conjuncts:
        qualifiers = referenced_qualifiers(conjunct)
        if qualifiers is None or qualifiers != {item.alias}:
            continue
        result *= _conjunct_selectivity(conjunct, item)
    return result


def _conjunct_selectivity(conjunct, item: "_Item | None") -> float:
    """Estimated fraction of rows one conjunct retains."""
    stats = item.stats if item is not None else None
    if isinstance(conjunct, ast.BinaryOp):
        op = conjunct.op.upper()
        for ref, literal, flipped in (
            (conjunct.left, conjunct.right, False),
            (conjunct.right, conjunct.left, True),
        ):
            if not (
                isinstance(ref, ast.ColumnRef) and isinstance(literal, ast.Literal)
            ):
                continue
            column = stats.column(ref.name) if stats is not None else None
            if op == "=":
                if column is not None and column.ndv > 0:
                    return 1.0 / column.ndv
                return EQ_FALLBACK_SELECTIVITY
            if op in ("<", "<=", ">", ">="):
                effective = _flip_op(op) if flipped else op
                fraction = _range_fraction(column, literal.value, effective)
                if fraction is not None:
                    return fraction
            break
    if (
        isinstance(conjunct, ast.InList)
        and not conjunct.negated
        and isinstance(conjunct.operand, ast.ColumnRef)
        and all(isinstance(i, ast.Literal) for i in conjunct.items)
    ):
        column = stats.column(conjunct.operand.name) if stats is not None else None
        if column is not None and column.ndv > 0:
            return min(1.0, len(conjunct.items) / column.ndv)
    return DEFAULT_SELECTIVITY


def _flip_op(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _range_fraction(column, value, op: str) -> float | None:
    """Uniform-distribution fraction of ``col <op> value`` via min/max."""
    if column is None or column.min_value is None or column.max_value is None:
        return None
    try:
        low = float(column.min_value)  # type: ignore[arg-type]
        high = float(column.max_value)  # type: ignore[arg-type]
        bound = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    if high <= low:
        return None
    fraction = min(1.0, max(0.0, (bound - low) / (high - low)))
    return fraction if op in ("<", "<=") else 1.0 - fraction


# -- EXPLAIN support ----------------------------------------------------------


def propagate_estimates(plan: Plan) -> None:
    """Fill pass-through operators' estimates from their children.

    Leaves planner-set estimates untouched; a plan with no estimates
    anywhere (syntactic mode) stays entirely unannotated.
    """
    children = plan._children()  # noqa: SLF001 - same package
    for child in children:
        propagate_estimates(child)
    if plan.est_rows is not None or not children:
        return
    first = children[0].est_rows
    if isinstance(plan, FilterPlan):
        if first is not None:
            plan.est_rows = max(1, round(first * DEFAULT_SELECTIVITY))
    elif isinstance(plan, LimitPlan):
        if first is not None:
            plan.est_rows = min(first, plan.limit)
    elif isinstance(plan, AggregatePlan):
        if not plan.group_exprs:
            plan.est_rows = 1
        elif first is not None:
            plan.est_rows = max(1, round(first**0.5))
    elif isinstance(plan, DistinctPlan):
        if first is not None:
            plan.est_rows = max(1, round(first**0.5))
    elif len(children) == 1:
        plan.est_rows = first


def instrument_plan(plan: Plan, _seen: "set[int] | None" = None) -> None:
    """Wrap every operator's ``rows`` with an output-row counter.

    Used by EXPLAIN ANALYZE: after execution each node's ``actual_rows``
    holds its observed output cardinality (accumulated across calls, so
    a right side consumed by a join build counts once per produced row).
    """
    if _seen is None:
        _seen = set()
    if id(plan) in _seen:
        return
    _seen.add(id(plan))
    original = plan.rows
    plan.actual_rows = 0

    def counted(ctx, _original=original, _node=plan):
        for row in _original(ctx):
            _node.actual_rows += 1
            yield row

    plan.rows = counted  # type: ignore[method-assign]
    for child in plan._children():  # noqa: SLF001 - same package
        instrument_plan(child, _seen)


def collect_feedback(plan: Plan) -> list[tuple[str, int, int, float]]:
    """``(table, est_rows, actual_rows, q_error)`` per executed scan.

    Cardinality-feedback ingestion after an instrumented run: only
    *clean* full scans carry evidence — a scan with an index probe or
    zone checks outputs a filtered subset, a scan inside a bind join
    never executes (``actual_rows`` stays 0), and a zero-row
    observation is unbounded in q-error — all are skipped.
    """
    from repro.fdbs.executor import RemoteScanPlan, TableScanPlan

    observations: list[tuple[str, int, int, float]] = []
    seen: set[int] = set()

    def walk(node: Plan) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        est, actual = node.est_rows, node.actual_rows
        if est is not None and actual:
            if isinstance(node, TableScanPlan):
                if node.index_probe is None and not node.prune_checks:
                    name = getattr(node._table, "name", node._name)
                    observations.append(
                        (name, est, actual, q_error(float(est), float(actual)))
                    )
            elif isinstance(node, RemoteScanPlan):
                name = node.fetcher.nickname.name
                observations.append(
                    (name, est, actual, q_error(float(est), float(actual)))
                )
        for child in node._children():  # noqa: SLF001 - same package
            walk(child)

    walk(plan)
    return observations


def _column_refs(expr: ast.Expression):
    from repro.fdbs.planner import _column_refs as walk

    yield from walk(expr)
