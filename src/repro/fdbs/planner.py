"""Query planner: AST → executable plan.

The FROM clause is planned as a *lateral fold*, left to right, exactly
like the paper's host DBMS: each ``TABLE (f(args)) AS a`` item may
reference columns of items to its left (and the enclosing function's
parameters), never items to its right.  A forward reference produces a
:class:`~repro.errors.PlanError`; a *mutual* reference between two table
functions produces :class:`~repro.errors.CyclicDependencyError` — the
formal reason the paper's Sect. 3 table marks the cyclic case "not
supported" for the UDTF architecture.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import (
    CallOnlyProcedureError,
    CatalogError,
    CyclicDependencyError,
    PlanError,
    TypeError_,
)
from repro.fdbs import ast
from repro.fdbs.catalog import Catalog
from repro.fdbs.executor import (
    MAX_BIND_KEYS,
    AggregatePlan,
    AggregateSpec,
    CrossApplyPlan,
    CutPlan,
    DistinctPlan,
    FilterPlan,
    HashJoinPlan,
    IndexNestedLoopJoinPlan,
    LimitPlan,
    MergeJoinPlan,
    NestedLoopJoinPlan,
    Plan,
    ProjectPlan,
    RemoteBindJoinPlan,
    RemoteScanPlan,
    SortPlan,
    StaticRightSide,
    TableFunctionRightSide,
    TableScanPlan,
    UdtfBindJoinPlan,
    UnionPlan,
    UnitPlan,
)
from repro.fdbs.expr import (
    ColumnarCompiler,
    ColumnFn,
    ColumnSlot,
    CompiledExpr,
    EvalContext,
    ExpressionCompiler,
    MemoCompiler,
    ParamScope,
    RowLayout,
    SelectFn,
    contains_aggregate,
    hash_join_compatible,
    is_aggregate_call,
    order_join_compatible,
)
from repro.fdbs.options import DEFAULT_OPTIONS, Options
from repro.fdbs.types import implicitly_castable, is_character, is_numeric

class Planner:
    """Plans SELECT statements against a catalog.

    The plan it builds holds no object of any database: operators keep
    catalog names and resolve them when they run (see
    :mod:`repro.fdbs.executor`).  What planning read besides the
    catalog and the options is recorded on the planner
    (:attr:`read_statistics`, :attr:`reads_volatile_state`), and so are
    the counts the building database adds to its statistics
    (:attr:`joins`, :attr:`predicates_pushed`).
    """

    def __init__(
        self,
        catalog: Catalog,
        federation=None,
        params: ParamScope | None = None,
        costs: "object | None" = None,
        options: Options = DEFAULT_OPTIONS,
        statistics: "Callable[[str], object | None] | None" = None,
    ):
        self.catalog = catalog
        #: The database's FederationLayer: nickname columns at planning,
        #: and source profiles for the cost optimizer.
        self.federation = federation
        self.params = params or ParamScope()
        #: Cost model the cost optimizer prices with (None for cost-free
        #: databases, e.g. app-system internals).
        self.costs = costs
        #: The planner-read settings (execution mode, optimizer, join
        #: strategy, pushdown, index selection, zone maps); see
        #: repro.fdbs.options.
        self.options = options
        #: RUNSTATS snapshot lookup: table name -> TableStats | None.
        self.statistics = statistics
        #: Set when the cost optimizer looked up statistics (found or
        #: not): the plan depends on this database's RUNSTATS and is
        #: never shared with another database.
        self.read_statistics = False
        #: Set when planning read volatile runtime state (see
        #: ``Decisions.reads_volatile_state``): the plan is correct for
        #: this execution only and must not be cached.
        self.reads_volatile_state = False
        #: Strategy of every join operator built, in build order.
        self.joins: list[str] = []
        #: Conjuncts pushed into remote scans (``push_predicates``
        #: counts into this attribute).
        self.predicates_pushed = 0
        self._view_stack: list[str] = []

    def _chunk_forms(
        self, compiler: ExpressionCompiler, exprs: list[ast.Expression]
    ) -> list[ColumnFn] | None:
        """The columnar forms of already row-compiled ``exprs``, built
        only in columnar mode (None in row mode, which never runs
        them)."""
        if self.options.execution_mode != "columnar":
            return None
        columnar = ColumnarCompiler(compiler)
        return [columnar.compile(expr) for expr in exprs]

    def _chunk_form(
        self, compiler: ExpressionCompiler, expr: ast.Expression
    ) -> ColumnFn | None:
        """:meth:`_chunk_forms` of one expression."""
        forms = self._chunk_forms(compiler, [expr])
        return forms and forms[0]

    def _selection(
        self, compiler: ExpressionCompiler, predicate: ast.Expression
    ) -> SelectFn | None:
        """The selection form of an already row-compiled filter, built
        only in columnar mode.  Ordered chunk columns are bisected only
        with zone maps on: both answer a predicate from per-chunk
        metadata, and the zone-map ablation switches them off together."""
        if self.options.execution_mode != "columnar":
            return None
        return ColumnarCompiler(compiler).select(predicate, ordered=self.options.zone_maps)

    # -- public API -----------------------------------------------------------

    def plan_select(self, select: ast.Select) -> Plan:
        """Plan a full SELECT including UNION branches and ORDER BY."""
        if not select.union:
            # Single query block: ORDER BY may also reference columns
            # that are not in the select list (hidden sort keys).
            return self._plan_query_block(select, top_level=True)
        plan = self._plan_query_block(select)
        branches = [plan]
        for _, branch_ast in select.union:
            branches.append(self._plan_query_block(branch_ast))
        all_ = all(is_all for is_all, _ in select.union)
        if any(is_all for is_all, _ in select.union) and not all_:
            raise PlanError("mixing UNION and UNION ALL is not supported")
        plan = UnionPlan(branches)
        if not all_:
            plan = DistinctPlan(plan)
        if select.order_by:
            plan = self._plan_order_by(plan, select)
        if select.limit is not None:
            plan = LimitPlan(plan, select.limit)
        return plan

    # -- query block -------------------------------------------------------------

    def _plan_query_block(self, select: ast.Select, top_level: bool = False) -> Plan:
        decisions = None
        if self.options.optimizer == "cost":
            from repro.fdbs.optimizer import plan_decisions

            decisions = plan_decisions(
                select,
                self.catalog,
                self._statistics,
                self.costs,
                federation=self.federation,
                options=self.options,
            )
            if decisions is not None and decisions.reads_volatile_state:
                self.reads_volatile_state = True
        plan, layout, remote_candidates, local_scans, consumed, prunable = (
            self._plan_from(select, decisions)
        )
        compiler = self._compiler(layout)

        where = select.where
        if where is not None and contains_aggregate(where):
            raise PlanError("aggregates are not allowed in WHERE")
        if consumed and where is not None:
            # Bind joins applied these equi-conjuncts during the FROM
            # fold; re-evaluating them in the filter would be redundant.
            from repro.fdbs.pushdown import recombine, split_conjuncts

            where = recombine(
                [
                    conjunct
                    for conjunct in split_conjuncts(where)
                    if not any(conjunct is used for used in consumed)
                ]
            )
        had_remote = bool(remote_candidates)
        if self.options.pushdown and remote_candidates:
            from repro.fdbs.pushdown import push_predicates

            where = push_predicates(where, remote_candidates, self)
        if self.options.index_selection and local_scans and where is not None:
            where = self._select_indexes(where, layout, local_scans)
        if where is not None:
            self._attach_zone_checks(where, layout, prunable)
            input_est = plan.est_rows
            plan = FilterPlan(plan, compiler.compile(where), "Filter(WHERE)")
            plan.selection = self._selection(compiler, where)
            if had_remote and self.options.pushdown:
                from repro.fdbs.pushdown import split_conjuncts

                plan.residual_texts = [
                    conjunct.render() for conjunct in split_conjuncts(where)
                ]
            if decisions is not None and input_est is not None:
                plan.est_rows = max(
                    1, round(input_est * decisions.local_selectivity)
                )

        items = self._expand_stars(select.items, layout)
        needs_aggregate = (
            bool(select.group_by)
            or any(contains_aggregate(item.expr) for item in items)
            or (select.having is not None and contains_aggregate(select.having))
        )
        if select.having is not None and not needs_aggregate:
            raise PlanError("HAVING requires GROUP BY or aggregates")
        # A block sorts only at top level; a UNION's ORDER BY (parsed
        # onto its first branch) is the union's, planned over its output.
        order = (
            [(item.expr, item.ascending) for item in select.order_by] if top_level else []
        )

        if needs_aggregate:
            plan, layout, items, having, order = self._plan_aggregate(
                plan, layout, compiler, select, items, order
            )
            compiler = self._compiler(layout)
            if having is not None:
                plan = FilterPlan(plan, compiler.compile(having), "Filter(HAVING)")
                plan.selection = self._selection(compiler, having)

        exprs: list[CompiledExpr] = []
        schema: list[ColumnSlot] = []
        for position, item in enumerate(items):
            compiled = compiler.compile(item.expr)
            exprs.append(compiled)
            # Keep the source alias on plain column projections (the
            # ``("row", i)`` leaf) so ORDER BY may still use qualified
            # names after projection.
            alias = None
            if item.alias is None and compiled.leaf and compiled.leaf[0] == "row":
                alias = layout.slots[compiled.leaf[1]].alias
            schema.append(
                ColumnSlot(alias, self._output_name(item, position), compiled.type)
            )

        if order:
            plan = self._project_and_sort(
                plan, compiler, exprs, schema, items, order, select.distinct
            )
        else:
            plan = ProjectPlan(plan, exprs, schema)
            plan.columnar_exprs = self._chunk_forms(
                compiler, [item.expr for item in items]
            )

        if select.distinct:
            plan = DistinctPlan(plan)
        if top_level and select.limit is not None:
            plan = LimitPlan(plan, select.limit)
        return plan

    def _project_and_sort(
        self,
        plan: Plan,
        compiler: ExpressionCompiler,
        exprs: list[CompiledExpr],
        schema: list[ColumnSlot],
        items: list[ast.SelectItem],
        order: list[tuple[ast.Expression, bool]],
        distinct: bool,
    ) -> Plan:
        """Projection + ORDER BY ``(expression, ascending)`` keys for a
        single query block.

        Sort keys resolve against the *output* schema first (select
        aliases, qualified projections) and fall back to the input
        layout as hidden trailing columns — which is how ``SELECT name
        FROM t ORDER BY relia`` works without projecting ``relia``.
        ``compiler`` is the one ``exprs`` were compiled with, over the
        input layout.
        """
        width = len(schema)
        out_compiler = self._compiler(RowLayout(schema))
        keys: list[tuple] = []
        hidden: list[CompiledExpr] = []
        hidden_asts: list[ast.Expression] = []
        for expr, ascending in order:
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not (0 <= index < width):
                    raise PlanError(
                        f"ORDER BY position {expr.value} is out of range"
                    )
                keys.append((index, ascending))
                continue
            try:
                compiled = out_compiler.compile(expr)
            except PlanError:
                pass
            else:
                # An output column sorts by its position, anything else
                # by its closure over the output row.
                leaf = compiled.leaf
                key = leaf[1] if leaf and leaf[0] == "row" else compiled.fn
                keys.append((key, ascending))
                continue
            # Hidden sort key over the pre-projection layout.
            if distinct:
                raise PlanError(
                    "ORDER BY over non-selected columns cannot be combined "
                    "with DISTINCT"
                )
            compiled = compiler.compile(expr)
            keys.append((width + len(hidden), ascending))
            hidden.append(compiled)
            hidden_asts.append(expr)
        item_asts = [item.expr for item in items] + hidden_asts
        if hidden:
            extended_schema = schema + [
                ColumnSlot(None, f"$k{index}", compiled.type)
                for index, compiled in enumerate(hidden)
            ]
            plan = ProjectPlan(plan, exprs + hidden, extended_schema)
        else:
            plan = ProjectPlan(plan, exprs, schema)
        plan.columnar_exprs = self._chunk_forms(compiler, item_asts)
        plan = SortPlan(plan, keys)
        return CutPlan(plan, width, schema) if hidden else plan

    def _expand_stars(
        self, items: list[ast.SelectItem], layout: RowLayout
    ) -> list[ast.SelectItem]:
        """Expand ``*`` and ``alias.*`` select items into column refs."""
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expr, ast.Star):
                expanded.append(item)
                continue
            qualifier = item.expr.qualifier
            if qualifier is not None and qualifier.upper() not in layout.aliases():
                raise PlanError(f"unknown correlation name {qualifier!r} in select list")
            matched = False
            for slot in layout.slots:
                if qualifier is None or (slot.alias or "").upper() == qualifier.upper():
                    expanded.append(
                        ast.SelectItem(ast.ColumnRef(slot.alias, slot.name))
                    )
                    matched = True
            if not matched:
                raise PlanError("'*' found nothing to expand in the FROM clause")
        return expanded

    def _output_name(self, item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return f"COL{position + 1}"

    def _statistics(self, name: str) -> "object | None":
        """The planning statistics of ``name``, noting that planning
        read statistics."""
        self.read_statistics = True
        return self.statistics(name) if self.statistics is not None else None

    def _compiler(self, layout: RowLayout) -> ExpressionCompiler:
        """A :class:`MemoCompiler` over ``layout``: planning hands one
        compiler every form it needs of an expression, and each node is
        compiled once."""
        return MemoCompiler(
            layout,
            params=self.params,
            subquery_compiler=self._compile_subquery,
            table_function_names=self.catalog.has_function,
        )

    def _compile_subquery(
        self, select: ast.Select
    ) -> Callable[[EvalContext], list[tuple]]:
        subplan = self.plan_select(select)

        def run(ctx: EvalContext) -> list[tuple]:
            return list(subplan.rows(ctx))

        return run

    # -- FROM ----------------------------------------------------------------------

    def _plan_from(
        self, select: ast.Select, decisions=None
    ) -> tuple[
        Plan,
        RowLayout,
        dict[str, RemoteScanPlan],
        dict[str, TableScanPlan],
        list[ast.Expression],
        "dict[str, TableScanPlan | None] | None",
    ]:
        plan: Plan = UnitPlan()
        layout = RowLayout([])
        seen_aliases: set[str] = set()
        remote_candidates: dict[str, RemoteScanPlan] = {}
        local_scans: dict[str, TableScanPlan] = {}
        consumed: list[ast.Expression] = []
        #: Alias -> local scan eligible for zone-map pruning.  Pruning
        #: applies in *every* execution mode, not just columnar: a scan
        #: must deliver the same rows however they are dispatched, or a
        #: lazily-pulled inner side (a remote fetch, a rate-limited
        #: web-API request) would run under one mode and not another
        #: whenever pruning empties the outer side.  Scans on the
        #: nullable side of an outer join are never registered: pruning
        #: them could manufacture NULL-padded rows that pass predicates
        #: like ``d.x IS NULL``.  A duplicate alias poisons its entry
        #: (None) so no check can mis-bind.
        prunable: dict[str, TableScanPlan | None] | None = (
            {} if self.options.zone_maps else None
        )
        items = select.from_items
        if decisions is not None:
            ordered = [(index, items[index]) for index in decisions.order]
        else:
            ordered = list(enumerate(items))
        exec_items = [item for _, item in ordered]
        running_est: float | None = 1.0 if decisions is not None else None
        for position, (original_index, item) in enumerate(ordered):
            spec = (
                decisions.bind_remote.get(original_index)
                if decisions is not None
                else None
            )
            bind_built = None
            if (
                spec is not None
                and isinstance(item, ast.TableRef)
                and self.catalog.has_nickname(item.name)
            ):
                scan = self._plan_table_ref(item)
                if isinstance(scan, RemoteScanPlan):
                    bind_plan = self._try_remote_bind(plan, layout, scan, spec)
                    if bind_plan is not None:
                        bind_built = (scan, bind_plan)
            local_spec = (
                decisions.local_join.get(original_index)
                if decisions is not None
                else None
            )
            local_built = None
            if (
                bind_built is None
                and local_spec is not None
                and local_spec.strategy != "nlj"
                and isinstance(item, ast.TableRef)
            ):
                scan = self._plan_table_ref(item)
                if isinstance(scan, (TableScanPlan, RemoteScanPlan)):
                    join_plan = self._try_local_join(plan, layout, scan, local_spec)
                    if join_plan is not None:
                        local_built = (scan, join_plan)
            if bind_built is not None:
                right = None
                right_schema = bind_built[0].schema
            elif local_built is not None:
                right = None
                right_schema = local_built[0].schema
            else:
                right, right_schema = self._plan_from_item(
                    item, layout, exec_items, position, prunable
                )
            alias_names = {
                (slot.alias or "").upper() for slot in right_schema if slot.alias
            }
            duplicate = alias_names & seen_aliases
            if duplicate:
                raise PlanError(
                    f"duplicate correlation name {sorted(duplicate)[0]!r} in FROM"
                )
            seen_aliases |= alias_names
            if bind_built is not None:
                scan, bind_plan = bind_built
                for alias in alias_names:
                    remote_candidates[alias] = scan
                consumed.append(spec.conjunct)
                item_est = decisions.est_scan.get(original_index)
                scan.est_rows = _round_est(item_est)
                if running_est is not None:
                    running_est *= spec.est_match_per_key
                    bind_plan.est_rows = _round_est(running_est)
                plan = bind_plan
                layout = layout.extend(right_schema)
                continue
            if local_built is not None:
                scan, join_plan = local_built
                if isinstance(scan, RemoteScanPlan):
                    # A hash-joined nickname still ships its pushed-down
                    # subquery; it is never a local or prunable scan.
                    for alias in alias_names:
                        remote_candidates[alias] = scan
                elif local_spec.strategy in ("hash", "merge"):
                    # Hash and merge joins pull the inner side through
                    # ``scan.rows()``, so index probes and zone checks
                    # still apply.  IndexNLJ bypasses the scan protocol
                    # entirely (it probes the hash index per outer key),
                    # so its scan must stay unregistered.
                    for alias in alias_names:
                        local_scans[alias] = scan
                    self._register_prunable(prunable, scan)
                consumed.append(local_spec.conjunct)
                item_est = decisions.est_scan.get(original_index)
                scan.est_rows = _round_est(item_est)
                if running_est is not None:
                    running_est *= local_spec.est_match_per_key
                    join_plan.est_rows = _round_est(running_est)
                self._count_join(local_spec.strategy)
                plan = join_plan
                layout = layout.extend(right_schema)
                continue
            # Only top-level (comma) remote scans are pushdown targets;
            # scans nested under explicit joins keep predicates local.
            if isinstance(right, StaticRightSide) and isinstance(
                right.plan, RemoteScanPlan
            ):
                for alias in alias_names:
                    remote_candidates[alias] = right.plan
            if isinstance(right, StaticRightSide) and isinstance(
                right.plan, TableScanPlan
            ):
                for alias in alias_names:
                    local_scans[alias] = right.plan
                self._register_prunable(prunable, right.plan)
            if (
                decisions is not None
                and original_index in decisions.bind_udtf
                and isinstance(right, TableFunctionRightSide)
            ):
                plan = UdtfBindJoinPlan(plan, right)
            else:
                plan = CrossApplyPlan(plan, right)
            outer_est = running_est
            if decisions is not None:
                item_est = decisions.est_scan.get(original_index)
                inner = getattr(right, "plan", None)
                if (
                    isinstance(inner, Plan)
                    and item_est is not None
                    and inner.est_rows is None
                ):
                    inner.est_rows = _round_est(item_est)
                if running_est is not None and item_est is not None:
                    running_est *= item_est
                    plan.est_rows = _round_est(running_est)
                else:
                    running_est = None
            layout = layout.extend(right_schema)
            if local_spec is not None:
                # The join stayed on nested-loop (chosen, forced, or the
                # chosen operator did not apply): filter by its conjunct
                # right here, so later items never see the unmatched
                # cross product.
                filtered = self._fold_filter(plan, layout, local_spec.conjunct)
                if filtered is not None:
                    plan = filtered
                    consumed.append(local_spec.conjunct)
                    if running_est is not None and outer_est is not None:
                        running_est = outer_est * local_spec.est_match_per_key
                        plan.est_rows = _round_est(running_est)
        return plan, layout, remote_candidates, local_scans, consumed, prunable

    def _fold_filter(
        self, plan: Plan, layout: RowLayout, conjunct: ast.Expression
    ) -> FilterPlan | None:
        """Filter a nested-loop fold step by its join conjunct.

        A lazily pulled inner side further right (a remote fetch) then
        runs exactly when it would under the other join strategies.
        None when the conjunct does not compile here; it then stays in
        the WHERE clause, which reports the error.
        """
        compiler = self._compiler(layout)
        try:
            predicate = compiler.compile(conjunct)
        except (PlanError, TypeError_):
            return None
        filtered = FilterPlan(plan, predicate, f"Filter(on {conjunct.render()})")
        filtered.selection = self._selection(compiler, conjunct)
        return filtered

    def _register_prunable(
        self,
        prunable: "dict[str, TableScanPlan | None] | None",
        scan: TableScanPlan,
    ) -> None:
        """Register a local scan as a zone-check target by its alias."""
        if prunable is None or not scan.schema:
            return
        alias = (scan.schema[0].alias or "").upper()
        if not alias:
            return
        # A repeated alias poisons the entry: a check resolved against
        # an ambiguous name must never bind to the wrong scan.
        prunable[alias] = None if alias in prunable else scan

    def _attach_zone_checks(
        self,
        where: ast.Expression,
        layout: RowLayout,
        prunable: "dict[str, TableScanPlan | None] | None",
    ) -> None:
        """Compile WHERE conjuncts into zone-map prune checks.

        Each locally-evaluated conjunct of a recognised shape is bound
        to its scan by slot identity and attached as a conservative
        may-match check over the chunk's ``(min, max, null_count)``
        statistics; ``?`` operands are bound per execution.  The
        conjunct itself stays in the filter above — pruning only skips
        chunks the filter would have emptied anyway.
        """
        if not prunable:
            return
        from repro.fdbs.pushdown import split_conjuncts, zone_check, zone_target

        for conjunct in split_conjuncts(where):
            target = zone_target(conjunct)
            if target is None:
                continue
            try:
                resolved = layout.resolve(target.qualifier, target.name)
            except PlanError:
                continue  # ambiguous name: the filter handles it
            if resolved is None:
                continue
            _, slot = resolved
            scan = prunable.get((slot.alias or "").upper())
            if scan is None:
                continue
            position = None
            for index, scan_slot in enumerate(scan.schema):
                if scan_slot is slot:
                    position = index
                    break
            if position is None:
                continue
            bind = zone_check(conjunct, slot.type)
            if bind is None:
                continue
            scan.prune_checks.append((position, bind, conjunct.render()))

    def _try_remote_bind(
        self,
        left: Plan,
        layout: RowLayout,
        scan: RemoteScanPlan,
        spec,
    ) -> RemoteBindJoinPlan | None:
        """Build the bind join when the outer key compiles against the
        running layout and hashes compatibly with the remote column;
        None falls back to the ordinary static scan."""
        remote_index = None
        for index, slot in enumerate(scan.schema):
            if slot.name.upper() == spec.bind_column.upper():
                remote_index = index
                break
        if remote_index is None:
            return None
        try:
            left_key = self._compiler(layout).compile(
                ast.ColumnRef(spec.outer_qualifier, spec.outer_column)
            )
        except (PlanError, TypeError_):
            return None
        if not hash_join_compatible(left_key.type, scan.schema[remote_index].type):
            return None
        profile = self.federation.profile_for(self.catalog.get_nickname(scan.nickname))
        max_keys = MAX_BIND_KEYS
        if profile is not None and profile.max_bind_keys is not None:
            max_keys = profile.max_bind_keys
        return RemoteBindJoinPlan(
            left, scan, left_key, spec.bind_column, remote_index,
            max_keys=max_keys,
        )

    def _count_join(self, strategy: str) -> None:
        self.joins.append(strategy)

    def _try_local_join(
        self,
        left: Plan,
        layout: RowLayout,
        scan: "TableScanPlan | RemoteScanPlan",
        spec,
    ) -> Plan | None:
        """Build the cost-selected local join operator (hash, merge or
        index nested-loop) when the outer key compiles against the
        running layout and the key types are compatible with the chosen
        strategy; None falls back to the syntactic cross-apply fold.

        A nickname's scan (the optimizer offers it hash only) becomes
        the build side as is.  The hash join builds when the first outer
        row arrives, which is when the cross-apply fold would have
        pulled the remote source."""
        inner_index = None
        for index, slot in enumerate(scan.schema):
            if slot.name.upper() == spec.inner_column.upper():
                inner_index = index
                break
        if inner_index is None:
            return None
        key_ast = ast.ColumnRef(spec.outer_qualifier, spec.outer_column)
        left_compiler = self._compiler(layout)
        try:
            left_key = left_compiler.compile(key_ast)
        except (PlanError, TypeError_):
            return None
        inner_type = scan.schema[inner_index].type
        if not hash_join_compatible(left_key.type, inner_type):
            return None
        key_name = spec.conjunct.render()
        if spec.strategy == "indexnlj":
            return IndexNestedLoopJoinPlan(
                left, scan, left_key, scan.schema[inner_index].name, key_name
            )
        if spec.strategy == "merge":
            if not order_join_compatible(left_key.type, inner_type):
                return None
            left_pos = None
            try:
                resolved = layout.resolve(spec.outer_qualifier, spec.outer_column)
                if resolved is not None:
                    left_pos = resolved[0]
            except PlanError:
                left_pos = None
            return MergeJoinPlan(
                left,
                scan,
                left_key,
                inner_index,
                key_name,
                left_key_index=left_pos,
                sorted_hint=spec.sorted_hint,
            )
        if spec.strategy != "hash":
            return None
        inner_slot = scan.schema[inner_index]
        try:
            right_key = self._compiler(RowLayout(scan.schema)).compile(
                ast.ColumnRef(inner_slot.alias, inner_slot.name)
            )
        except (PlanError, TypeError_):
            return None
        plan = HashJoinPlan(
            left, scan, "INNER", [left_key], [right_key], None, [key_name]
        )
        plan.lazy_build = True
        plan.columnar_left_keys = self._chunk_forms(left_compiler, [key_ast])
        return plan

    def _select_indexes(
        self,
        where: ast.Expression,
        layout: RowLayout,
        local_scans: "dict[str, TableScanPlan]",
    ) -> ast.Expression | None:
        """Lift ``col = <constant>`` conjuncts into hash-index probes.

        Restricted to numeric and character columns (the index buckets
        by the column's value key, so trailing blanks match as ``=``
        ignores them) and one probe per scan.  The probe keeps the
        conjunct compiled over the scan's own rows: an execution whose
        bound value would hash differently from how ``=`` compares it
        filters through that instead (see ``TableScanPlan._probe_rows``).
        """
        from repro.fdbs.pushdown import recombine, split_conjuncts

        remaining: list[ast.Expression] = []
        for conjunct in split_conjuncts(where):
            probe = self._as_index_probe(conjunct, layout, local_scans)
            if probe is None:
                remaining.append(conjunct)
                continue
            scan, scan.index_probe = probe
        return recombine(remaining)

    def _as_index_probe(self, conjunct, layout, local_scans):
        if not (
            isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
        ):
            return None
        sides = [conjunct.left, conjunct.right]
        for ref, value in (sides, reversed(sides)):
            if not isinstance(ref, ast.ColumnRef):
                continue
            if not isinstance(value, (ast.Literal, ast.Parameter)):
                continue
            if isinstance(value, ast.Literal) and value.value is None:
                continue
            resolved = None
            try:
                resolved = layout.resolve(ref.qualifier, ref.name)
            except PlanError:
                return None  # ambiguous: leave for the normal filter
            if resolved is None:
                return None
            _, slot = resolved
            alias = (slot.alias or "").upper()
            scan = local_scans.get(alias)
            if scan is None or scan.index_probe is not None:
                return None
            # BOOLEAN and DATE stay unprobed: ``b = 1`` must raise as
            # ``=`` does, not find the TRUE rows a 1 hashes as.
            if slot.type is None or not (
                is_numeric(slot.type) or is_character(slot.type)
            ):
                return None
            value_expr = ExpressionCompiler(RowLayout([]), params=self.params).compile(
                value
            )
            on_scan = ExpressionCompiler(RowLayout(scan.schema), params=self.params)
            return scan, (slot.name, value_expr, slot.type, on_scan.compile(conjunct))
        return None

    def _plan_from_item(
        self,
        item: ast.FromItem,
        layout: RowLayout,
        all_items: list[ast.FromItem],
        position: int,
        prunable: "dict[str, TableScanPlan | None] | None" = None,
    ):
        if isinstance(item, ast.TableFunctionRef):
            return self._plan_table_function(item, layout, all_items, position)
        if isinstance(item, ast.TableRef):
            return self._static_side(self._plan_table_ref(item))
        if isinstance(item, ast.SubquerySource):
            subplan = self.plan_select(item.select)
            schema = [
                ColumnSlot(item.alias, slot.name, slot.type) for slot in subplan.schema
            ]
            return self._static_side(_Reschema(subplan, schema))
        if isinstance(item, ast.Join):
            return self._static_side(self._plan_join(item, prunable))
        raise PlanError(f"unsupported FROM item: {item!r}")  # pragma: no cover

    def _static_side(self, plan: Plan):
        return StaticRightSide(plan), plan.schema

    def _plan_table_ref(self, item: ast.TableRef) -> Plan:
        alias = item.alias or item.name
        if self.catalog.has_view(item.name):
            return self._plan_view(item.name, alias)
        if self.catalog.has_table(item.name):
            table_def = self.catalog.get_table(item.name)
            if table_def.storage is None:
                raise PlanError(f"table {item.name!r} has no storage attached")
            schema = [
                ColumnSlot(alias, column.name, column.type)
                for column in table_def.columns
            ]
            plan = TableScanPlan(table_def.name, schema, item.name)
            plan.columnar_note = self.options.execution_mode == "columnar"
            return plan
        if self.catalog.has_nickname(item.name):
            if self.federation is None:
                raise PlanError("no federation layer available for nicknames")
            nickname = self.catalog.get_nickname(item.name)
            columns = self.federation.scan_columns(nickname)
            schema = [ColumnSlot(alias, c.name, c.type) for c in columns]
            return RemoteScanPlan(nickname.name, schema, item.name)
        if self.catalog.has_function(item.name):
            raise PlanError(
                f"{item.name!r} is a table function; reference it as "
                f"TABLE ({item.name}(...)) AS {alias}"
            )
        if self.catalog.has_procedure(item.name):
            raise CallOnlyProcedureError(
                f"{item.name!r} is a stored procedure; procedures can only be "
                "invoked by a CALL statement and cannot appear in a FROM clause"
            )
        from repro.fdbs.syscat import is_syscat_table, syscat_definition

        if is_syscat_table(item.name):
            from repro.fdbs.executor import SyscatScanPlan

            columns, generator = syscat_definition(item.name)
            schema = [ColumnSlot(alias, c.name, c.type) for c in columns]
            return SyscatScanPlan(generator, schema, item.name.upper())
        raise CatalogError(f"unknown table {item.name!r}")

    def _plan_view(self, name: str, alias: str) -> Plan:
        """Macro-expand a view reference (with a recursion guard)."""
        key = name.upper()
        if key in self._view_stack:
            chain = " -> ".join(self._view_stack + [key])
            raise PlanError(f"cyclic view definition: {chain}")
        view = self.catalog.get_view(name)
        self._view_stack.append(key)
        try:
            subplan = self.plan_select(view.body)
        finally:
            self._view_stack.pop()
        names = view.columns or [slot.name for slot in subplan.schema]
        if len(names) != len(subplan.schema):
            raise PlanError(
                f"view {view.name!r} declares {len(names)} column(s) but its "
                f"body produces {len(subplan.schema)}"
            )
        schema = [
            ColumnSlot(alias, column_name, slot.type)
            for column_name, slot in zip(names, subplan.schema)
        ]
        return _Reschema(subplan, schema)

    def _plan_join(
        self,
        item: ast.Join,
        prunable: "dict[str, TableScanPlan | None] | None" = None,
    ) -> Plan:
        left = self._plan_join_side(item.left, prunable)
        # The right (nullable) side of a LEFT OUTER join is never a
        # pruning target: skipping a chunk there would manufacture
        # NULL-padded output rows (e.g. ``WHERE d.x IS NULL``).
        right = self._plan_join_side(
            item.right, prunable if item.kind != "LEFT OUTER" else None
        )
        combined = self._compiler(RowLayout(left.schema + right.schema))
        predicate = None
        if item.on is not None:
            # Always compile the full ON clause first: name-resolution
            # errors (unknown / ambiguous columns) must surface exactly
            # as they do in row mode.
            predicate = combined.compile(item.on)
        elif item.kind != "CROSS":
            raise PlanError(f"{item.kind} JOIN requires an ON condition")
        if (
            self.options.execution_mode == "columnar"
            and item.on is not None
            and item.kind in ("INNER", "LEFT OUTER")
        ):
            hash_join = self._try_hash_join(left, right, item, combined)
            if hash_join is not None:
                self._count_join("hash")
                return hash_join
        self._count_join("nlj")
        return NestedLoopJoinPlan(left, right, item.kind, predicate)

    def _try_hash_join(
        self, left: Plan, right: Plan, item: ast.Join, combined: ExpressionCompiler
    ) -> Plan | None:
        """Build a :class:`HashJoinPlan` when the ON clause carries at
        least one hash-compatible equi-conjunct; None keeps the NLJ.
        ``combined`` is the compiler over both inputs that compiled
        ``item.on``; the residual reuses its forms."""
        from repro.fdbs.pushdown import recombine, split_conjuncts

        left_layout = RowLayout(left.schema)
        right_layout = RowLayout(right.schema)
        left_compiler = self._compiler(left_layout)
        right_compiler = self._compiler(right_layout)
        left_keys: list[CompiledExpr] = []
        right_keys: list[CompiledExpr] = []
        key_names: list[str] = []
        key_asts: list[ast.Expression] = []
        residual: list[ast.Expression] = []
        for conjunct in split_conjuncts(item.on):
            pair = self._equi_key(
                conjunct, left_compiler, right_compiler, left_layout, right_layout
            )
            if pair is None:
                residual.append(conjunct)
                continue
            left_ast, left_key, right_key = pair
            left_keys.append(left_key)
            right_keys.append(right_key)
            key_names.append(conjunct.render())
            key_asts.append(left_ast)
        if not left_keys:
            return None
        residual_expr = recombine(residual)
        residual_compiled = (
            combined.compile(residual_expr) if residual_expr is not None else None
        )
        plan = HashJoinPlan(
            left, right, item.kind, left_keys, right_keys, residual_compiled, key_names
        )
        plan.columnar_left_keys = self._chunk_forms(left_compiler, key_asts)
        return plan

    def _equi_key(
        self,
        conjunct: ast.Expression,
        left_compiler: ExpressionCompiler,
        right_compiler: ExpressionCompiler,
        left_layout: RowLayout,
        right_layout: RowLayout,
    ) -> tuple[ast.Expression, CompiledExpr, CompiledExpr] | None:
        """(left ast, left key, right key) for ``left_side = right_side``
        conjuncts whose sides each touch only one join input; None sends
        the conjunct to the residual predicate."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        sides = (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        )
        for first, second in sides:
            left_key = self._side_key(first, left_compiler, left_layout)
            right_key = self._side_key(second, right_compiler, right_layout)
            if left_key is None or right_key is None:
                continue
            if not hash_join_compatible(left_key.type, right_key.type):
                # The row-mode comparison would align these operands
                # (e.g. DECIMAL vs DOUBLE); a raw hash probe would not.
                return None
            return first, left_key, right_key
        return None

    def _side_key(
        self,
        expr: ast.Expression,
        compiler: ExpressionCompiler,
        layout: RowLayout,
    ) -> CompiledExpr | None:
        """Compile one equality side against a single join input, or
        None when it references anything outside that input."""
        refs = list(_column_refs(expr))
        if not refs:
            return None  # constant-only sides stay in the residual
        try:
            for ref in refs:
                if layout.resolve(ref.qualifier, ref.name) is None:
                    return None
            return compiler.compile(expr)
        except (PlanError, TypeError_):
            return None

    def _plan_join_side(
        self,
        item: ast.FromItem,
        prunable: "dict[str, TableScanPlan | None] | None" = None,
    ) -> Plan:
        if isinstance(item, ast.TableRef):
            plan = self._plan_table_ref(item)
            if isinstance(plan, TableScanPlan):
                self._register_prunable(prunable, plan)
            return plan
        if isinstance(item, ast.SubquerySource):
            subplan = self.plan_select(item.select)
            schema = [
                ColumnSlot(item.alias, slot.name, slot.type) for slot in subplan.schema
            ]
            return _Reschema(subplan, schema)
        if isinstance(item, ast.Join):
            return self._plan_join(item, prunable)
        if isinstance(item, ast.TableFunctionRef):
            raise PlanError(
                "table functions cannot appear inside an explicit JOIN; list "
                "them as comma-separated FROM items (processed left to right)"
            )
        raise PlanError(f"unsupported join operand: {item!r}")  # pragma: no cover

    # -- table functions -----------------------------------------------------------

    def _plan_table_function(
        self,
        item: ast.TableFunctionRef,
        layout: RowLayout,
        all_items: list[ast.FromItem],
        position: int,
    ):
        name = item.function_name
        if self.catalog.has_procedure(name):
            raise CallOnlyProcedureError(
                f"{name!r} is a stored procedure; procedures can only be invoked "
                "by a CALL statement and cannot appear in a FROM clause"
            )
        if self.catalog.has_table(name):
            raise PlanError(f"{name!r} is a table, not a table function")
        function = self.catalog.get_function(name)
        if len(item.args) != len(function.params):
            raise PlanError(
                f"function {function.name} expects {len(function.params)} "
                f"arguments, got {len(item.args)}"
            )
        compiler = self._compiler(layout)
        arg_exprs: list[CompiledExpr] = []
        for arg_ast, param in zip(item.args, function.params):
            try:
                compiled = compiler.compile(arg_ast)
            except PlanError as exc:
                raise self._diagnose_forward_reference(
                    exc, arg_ast, item, all_items, position
                ) from None
            if compiled.type is not None and not implicitly_castable(
                compiled.type, param.type
            ):
                raise TypeError_(
                    f"argument {param.name} of {function.name} expects "
                    f"{param.type}, got {compiled.type}"
                )
            arg_exprs.append(compiled)
        assert item.alias is not None  # parser enforces the correlation name
        schema = [
            ColumnSlot(item.alias, column.name, column.type)
            for column in function.returns
        ]
        # An *independent* branch (no lateral references) that is not the
        # first FROM item must be composed with the running result set —
        # the paper's "join with selection" overhead of the UDTF approach.
        lateral = any(
            layout.resolve(ref.qualifier, ref.name) is not None
            for arg in item.args
            for ref in _column_refs(arg)
        )
        side = TableFunctionRightSide(
            function,
            arg_exprs,
            schema,
            item.alias,
            composed=not lateral and position > 0,
        )
        return side, schema

    def _diagnose_forward_reference(
        self,
        original: PlanError,
        arg_ast: ast.Expression,
        item: ast.TableFunctionRef,
        all_items: list[ast.FromItem],
        position: int,
    ) -> PlanError:
        """Turn an unresolved reference into the DB2-faithful diagnosis:
        forward reference (left-to-right violation) or cyclic dependency."""
        later_aliases = {
            (other.alias or "").upper(): other
            for other in all_items[position + 1 :]
            if isinstance(other, ast.TableFunctionRef) and other.alias
        }
        for ref in _column_refs(arg_ast):
            qualifier = (ref.qualifier or "").upper()
            target = later_aliases.get(qualifier)
            if target is None:
                continue
            my_alias = (item.alias or "").upper()
            if any(
                (back.qualifier or "").upper() == my_alias
                for arg in target.args
                for back in _column_refs(arg)
            ):
                return CyclicDependencyError(
                    f"cyclic dependency between table functions "
                    f"{item.alias!r} and {target.alias!r}: cycles cannot be "
                    "expressed in the UDTF approach (no loop construct in SQL)"
                )
            return PlanError(
                f"table function argument references {ref.render()!r}, which is "
                "defined later in the FROM clause; the FROM clause is processed "
                "left to right, so inputs must come from earlier items"
            )
        return original

    # -- aggregation ------------------------------------------------------------------

    def _plan_aggregate(
        self,
        plan: Plan,
        layout: RowLayout,
        compiler: ExpressionCompiler,
        select: ast.Select,
        items: list[ast.SelectItem],
        order: list[tuple[ast.Expression, bool]],
    ):
        """Plan GROUP BY and the aggregates of the select list, HAVING
        and ``order``.  Returns the aggregate plan, its layout, and the
        select items, HAVING and ORDER BY keys rewritten over that
        layout (new trees: the statement is left as parsed, since a
        cached statement is planned again on its first hit)."""
        group_renders = [expr.render() for expr in select.group_by]
        aggregates: list[ast.FunctionCall] = []
        agg_renders: list[str] = []

        def collect(expr: ast.Expression) -> None:
            for call in _aggregate_calls(expr):
                render = call.render()
                if render not in agg_renders:
                    agg_renders.append(render)
                    aggregates.append(call)

        for item in items:
            collect(item.expr)
        if select.having is not None:
            collect(select.having)
        for expr, _ in order:
            collect(expr)

        group_compiled = [compiler.compile(e) for e in select.group_by]
        agg_specs: list[AggregateSpec] = []
        for call in aggregates:
            name = call.name.upper()
            if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
                if name != "COUNT":
                    raise PlanError(f"{call.name}(*) is only valid for COUNT")
                agg_specs.append(AggregateSpec(name, None, call.distinct))
            elif len(call.args) == 1:
                if contains_aggregate(call.args[0]):
                    raise PlanError("aggregates cannot be nested")
                spec = AggregateSpec(name, compiler.compile(call.args[0]), call.distinct)
                spec.columnar_arg = self._chunk_form(compiler, call.args[0])
                agg_specs.append(spec)
            else:
                raise PlanError(f"aggregate {call.name} takes exactly one argument")

        post_schema = [
            ColumnSlot(None, f"$g{index}", compiled.type)
            for index, compiled in enumerate(group_compiled)
        ] + [
            ColumnSlot(None, f"$a{index}", None) for index in range(len(agg_specs))
        ]
        agg_plan = AggregatePlan(plan, group_compiled, agg_specs, post_schema)
        if select.group_by:
            agg_plan.columnar_group = self._chunk_forms(compiler, select.group_by)
        post_layout = RowLayout(post_schema)

        replacement: dict[str, ast.Expression] = {}
        for index, render in enumerate(group_renders):
            replacement[render] = ast.ColumnRef(None, f"$g{index}")
        for index, render in enumerate(agg_renders):
            replacement[render] = ast.ColumnRef(None, f"$a{index}")

        new_items = []
        for position, item in enumerate(items):
            # Preserve the user-visible output name: the synthetic $g/$a
            # references must not leak into the result columns.
            alias = item.alias or self._output_name(item, position)
            new_items.append(
                ast.SelectItem(_replace(item.expr, replacement), alias)
            )
        having = (
            _replace(select.having, replacement) if select.having is not None else None
        )
        order = [(_replace(expr, replacement), ascending) for expr, ascending in order]
        return agg_plan, post_layout, new_items, having, order

    # -- ORDER BY ---------------------------------------------------------------------

    def _plan_order_by(self, plan: Plan, select: ast.Select) -> Plan:
        """Sort on extended rows: output columns plus hidden key columns."""
        output_schema = plan.schema
        output_layout = RowLayout(output_schema)
        compiler = self._compiler(output_layout)
        width = len(output_schema)
        extra_exprs: list[CompiledExpr] = []
        extra_asts: list[ast.Expression] = []
        key_positions: list[tuple[int, bool]] = []
        for order_item in select.order_by:
            expr = order_item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not (0 <= index < width):
                    raise PlanError(
                        f"ORDER BY position {expr.value} is out of range"
                    )
                key_positions.append((index, order_item.ascending))
                continue
            compiled = compiler.compile(expr)
            key_positions.append((width + len(extra_exprs), order_item.ascending))
            extra_exprs.append(compiled)
            extra_asts.append(expr)
        if extra_exprs:
            identity = [
                _slot_ref(index, slot) for index, slot in enumerate(output_schema)
            ]
            extended_schema = output_schema + [
                ColumnSlot(None, f"$k{index}", expr.type)
                for index, expr in enumerate(extra_exprs)
            ]
            plan = ProjectPlan(plan, identity + extra_exprs, extended_schema)
            columnar = self._chunk_forms(compiler, extra_asts)
            if columnar is not None:
                plan.columnar_exprs = [
                    _slot_columnar(index) for index in range(width)
                ] + columnar
        plan = SortPlan(plan, key_positions)
        if extra_exprs:
            plan = CutPlan(plan, width, output_schema)
        return plan


class _Reschema(Plan):
    """Renames the schema of a subplan (derived-table aliasing)."""

    def __init__(self, inner: Plan, schema: list[ColumnSlot]):
        self.inner = inner
        self.schema = schema

    def rows(self, ctx: EvalContext):
        return self.inner.rows(ctx)

    def _describe(self) -> str:
        return "Reschema"

    def _children(self) -> list[Plan]:
        return [self.inner]


def _round_est(value: "float | None") -> "int | None":
    """Round a fractional cardinality estimate to a display integer."""
    if value is None:
        return None
    return max(1, round(value))


def _slot_ref(index: int, slot: ColumnSlot) -> CompiledExpr:
    return CompiledExpr(
        lambda row, ctx, _i=index: row[_i], slot.type, ast.ColumnRef(None, slot.name)
    )


def _slot_columnar(index: int) -> ColumnFn:
    """Column-batch identity extractor for one output slot position."""
    return lambda batch, ctx, _i=index: batch.column(_i)


def _column_refs(expr: ast.Expression):
    """Yield every ColumnRef in an expression tree."""
    from repro.fdbs.expr import _children  # reuse the walker

    if isinstance(expr, ast.ColumnRef):
        yield expr
    for child in _children(expr):
        yield from _column_refs(child)


def _aggregate_calls(expr: ast.Expression):
    """Yield top-most aggregate calls in an expression tree."""
    from repro.fdbs.expr import _children

    if is_aggregate_call(expr):
        yield expr  # type: ignore[misc]
        return
    for child in _children(expr):
        yield from _aggregate_calls(child)


def _replace(expr: ast.Expression, mapping: dict[str, ast.Expression]) -> ast.Expression:
    """Structurally replace subtrees whose rendering appears in ``mapping``."""
    render = expr.render()
    if render in mapping:
        return mapping[render]
    import copy

    clone = copy.copy(expr)
    if isinstance(clone, ast.BinaryOp):
        clone.left = _replace(clone.left, mapping)
        clone.right = _replace(clone.right, mapping)
    elif isinstance(clone, ast.UnaryOp):
        clone.operand = _replace(clone.operand, mapping)
    elif isinstance(clone, ast.FunctionCall):
        clone.args = [_replace(a, mapping) for a in clone.args]
    elif isinstance(clone, ast.Cast):
        clone.operand = _replace(clone.operand, mapping)
    elif isinstance(clone, ast.IsNull):
        clone.operand = _replace(clone.operand, mapping)
    elif isinstance(clone, ast.InList):
        clone.operand = _replace(clone.operand, mapping)
        clone.items = [_replace(i, mapping) for i in clone.items]
    elif isinstance(clone, ast.Like):
        clone.operand = _replace(clone.operand, mapping)
        clone.pattern = _replace(clone.pattern, mapping)
    elif isinstance(clone, ast.Between):
        clone.operand = _replace(clone.operand, mapping)
        clone.low = _replace(clone.low, mapping)
        clone.high = _replace(clone.high, mapping)
    elif isinstance(clone, ast.Case):
        if clone.operand is not None:
            clone.operand = _replace(clone.operand, mapping)
        clone.whens = [
            ast.CaseWhen(_replace(w.condition, mapping), _replace(w.result, mapping))
            for w in clone.whens
        ]
        if clone.else_result is not None:
            clone.else_result = _replace(clone.else_result, mapping)
    return clone
