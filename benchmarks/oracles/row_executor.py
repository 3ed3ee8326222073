"""The tuple-at-a-time SQL interpreter, kept as oracle + baseline.

This is the original engine of :mod:`repro.relational`: a tree-walking
interpreter that re-binds and re-compiles every expression per query and
evaluates it one row tuple at a time, with hash joins for equi-join
conditions.  It implements SQL three-valued logic, grouped aggregation,
set operations, CTEs, and uncorrelated subqueries.  It survives for two
reasons:

* **semantic oracle** — the equivalence battery in
  ``tests/relational/test_vectorized.py`` runs every query on this engine
  and on the planned engine and requires identical rows, column names
  and types;
* **benchmark baseline** — ``benchmarks/bench_sql_engine.py`` reports the
  planned engine's speedup over this class.

Binding, scalar operators, equi-join splitting, select-list expansion,
GROUP BY/ORDER BY resolution and grouped-expression evaluation are the
planner's own helpers, imported from :mod:`repro.relational.executor`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.relational import ast
from repro.relational.aggregates import Aggregate, lookup_aggregate
from repro.relational.errors import BindError, ExecutionError
from repro.relational.executor import (
    _Binding,
    _InvertedKey,
    _apply_binary,
    _apply_unary,
    _collect_aggregates,
    _contains_aggregate,
    _like_regex,
    _to_bool,
    eval_group_expr,
    expand_items,
    resolve_group_exprs,
    resolve_output_ref,
    split_equi_condition,
)
from repro.relational.functions import lookup_scalar
from repro.relational.table import Column, Schema, Table
from repro.relational.types import (
    cast_value,
    common_type,
    compare_values,
    infer_column_type,
    parse_type_name,
    sort_key,
)

Row = Tuple[Any, ...]


class RowExecutor:
    """Executes parsed statements tuple-at-a-time (the baseline engine)."""

    def __init__(self, catalog):
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def execute_statement(self, stmt: ast.Statement) -> Table:
        if isinstance(stmt, ast.Select):
            return self.execute_select(stmt, {})
        if isinstance(stmt, ast.CreateTableAs):
            result = self.execute_select(stmt.select, {}).renamed(stmt.name)
            self.catalog.put_table(result, replace=stmt.or_replace)
            return result
        if isinstance(stmt, ast.CreateTable):
            columns = [Column(c.name, parse_type_name(c.type_name)) for c in stmt.columns]
            table = Table.empty(stmt.name, columns)
            self.catalog.put_table(table, replace=stmt.or_replace)
            return table
        if isinstance(stmt, ast.InsertValues):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.DropTable):
            self.catalog.drop_table(stmt.name, if_exists=stmt.if_exists)
            return Table.empty(stmt.name, [])
        raise ExecutionError(f"unsupported statement: {type(stmt).__name__}")

    def _execute_insert(self, stmt: ast.InsertValues) -> Table:
        table = self.catalog.resolve_table(stmt.table)
        names = stmt.columns or table.column_names()
        indices = [table.schema.index_of(n) for n in names]
        empty_binding = _Binding([])
        new_rows = list(table.rows)
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(indices):
                raise ExecutionError(
                    f"INSERT has {len(row_exprs)} values for {len(indices)} columns"
                )
            # Columns not mentioned default to NULL.
            row: List[Any] = [None] * len(table.schema)
            for idx, expr in zip(indices, row_exprs):
                value = self._compile(expr, empty_binding, {})(())
                row[idx] = value
            new_rows.append(tuple(row))
        updated = Table(table.name, table.schema, new_rows)
        self.catalog.put_table(updated, replace=True)
        return updated

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def execute_select(self, select: ast.Select, env: Dict[str, Table]) -> Table:
        local_env = dict(env)
        for name, sub in select.ctes:
            local_env[name.lower()] = self.execute_select(sub, local_env).renamed(name)

        result = self._execute_select_core(select, local_env)
        for set_op in select.set_ops:
            right = self._execute_select_core(set_op.select, local_env)
            result = self._apply_set_op(result, set_op.op, set_op.all, right)
        if select.set_ops:
            # ORDER BY / LIMIT on the combined result (keys must be output cols).
            if select.order_by:
                result = self._order_output_table(result, select.order_by)
            result = self._apply_limit(result, select.limit, select.offset)
        return result

    def _execute_select_core(self, select: ast.Select, env: Dict[str, Table]) -> Table:
        # 1. FROM
        if select.from_clause is None:
            binding = _Binding([])
            rows: List[Row] = [()]
        else:
            binding, rows = self._execute_table_expr(select.from_clause, env)

        # 2. WHERE
        if select.where is not None:
            predicate = self._compile(select.where, binding, env)
            rows = [row for row in rows if _to_bool(predicate(row), "WHERE clause") is True]

        has_aggregates = (
            bool(select.group_by)
            or any(_contains_aggregate(item.expr) for item in select.items)
            or (select.having is not None and _contains_aggregate(select.having))
        )

        if has_aggregates:
            table = self._execute_grouped(select, binding, rows, env)
        else:
            if select.having is not None:
                raise BindError("HAVING requires GROUP BY or aggregates")
            table = self._execute_projection(select, binding, rows, env)

        if select.distinct:
            table = self._distinct(table)

        if select.order_by and not select.set_ops:
            table = self._order_table(select, table, binding, rows, env, has_aggregates)
        if not select.set_ops:
            table = self._apply_limit(table, select.limit, select.offset)
        return table

    # ------------------------------------------------------------------
    # FROM clause evaluation
    # ------------------------------------------------------------------
    def _execute_table_expr(
        self, texpr: ast.TableExpr, env: Dict[str, Table]
    ) -> Tuple[_Binding, List[Row]]:
        if isinstance(texpr, ast.TableRef):
            lowered = texpr.name.lower()
            table = env.get(lowered)
            if table is None:
                table = self.catalog.resolve_table(texpr.name)
            binding = _Binding.for_table(texpr.binding_name, table.schema)
            # Downstream operators only read the row list (filters and
            # joins build new lists), so hand out the table's storage
            # directly instead of copying it on every scan.
            return binding, table.rows
        if isinstance(texpr, ast.SubqueryRef):
            table = self.execute_select(texpr.select, env)
            binding = _Binding.for_table(texpr.alias, table.schema)
            return binding, table.rows
        if isinstance(texpr, ast.Join):
            return self._execute_join(texpr, env)
        raise ExecutionError(f"unsupported FROM item: {type(texpr).__name__}")

    def _execute_join(
        self, join: ast.Join, env: Dict[str, Table]
    ) -> Tuple[_Binding, List[Row]]:
        left_binding, left_rows = self._execute_table_expr(join.left, env)
        right_binding, right_rows = self._execute_table_expr(join.right, env)
        merged = left_binding.merge(right_binding)

        if join.join_type == "CROSS":
            rows = [l + r for l in left_rows for r in right_rows]
            return merged, rows

        condition = join.condition
        using_cols = join.using or []
        if using_cols:
            # USING needs explicit left/right resolution; build index pairs below.
            condition = None

        equi_pairs: List[Tuple[int, int]] = []
        residual: Optional[Callable[[Row], Any]] = None
        if using_cols:
            for col in using_cols:
                left_idx = _Binding(left_binding.entries).resolve(col)
                right_idx = _Binding(right_binding.entries).resolve(col)
                equi_pairs.append((left_idx, right_idx))
        elif condition is not None:
            equi_pairs, residual_expr = split_equi_condition(
                condition, left_binding, right_binding
            )
            if residual_expr is not None:
                residual = self._compile(residual_expr, merged, env)

        left_width = len(left_binding.entries)
        right_width = len(right_binding.entries)

        if equi_pairs:
            rows, matched_left, matched_right = self._hash_join(
                left_rows, right_rows, equi_pairs, residual
            )
        else:
            rows = []
            matched_left = set()
            matched_right = set()
            predicate = (
                self._compile(condition, merged, env) if condition is not None else None
            )
            for i, l in enumerate(left_rows):
                for j, r in enumerate(right_rows):
                    combined = l + r
                    if predicate is None or _to_bool(predicate(combined), "JOIN ON") is True:
                        rows.append(combined)
                        matched_left.add(i)
                        matched_right.add(j)

        if join.join_type in ("LEFT", "FULL"):
            null_right = (None,) * right_width
            for i, l in enumerate(left_rows):
                if i not in matched_left:
                    rows.append(l + null_right)
        if join.join_type in ("RIGHT", "FULL"):
            null_left = (None,) * left_width
            for j, r in enumerate(right_rows):
                if j not in matched_right:
                    rows.append(null_left + r)

        if using_cols:
            # SQL USING removes the duplicate right-side join columns.
            drop = {left_width + _Binding(right_binding.entries).resolve(col) for col in using_cols}
            keep = [i for i in range(left_width + right_width) if i not in drop]
            rows = [tuple(row[i] for i in keep) for row in rows]
            merged = _Binding([merged.entries[i] for i in keep])
        return merged, rows

    @staticmethod
    def _hash_join(
        left_rows: List[Row],
        right_rows: List[Row],
        pairs: List[Tuple[int, int]],
        residual: Optional[Callable[[Row], Any]],
    ) -> Tuple[List[Row], Set[int], Set[int]]:
        index: Dict[Tuple, List[int]] = {}
        right_keys = [p[1] for p in pairs]
        for j, row in enumerate(right_rows):
            key = tuple(row[k] for k in right_keys)
            if any(v is None for v in key):
                continue  # NULL never equi-joins.
            index.setdefault(key, []).append(j)
        rows: List[Row] = []
        matched_left: Set[int] = set()
        matched_right: Set[int] = set()
        left_keys = [p[0] for p in pairs]
        for i, l in enumerate(left_rows):
            key = tuple(l[k] for k in left_keys)
            if any(v is None for v in key):
                continue
            for j in index.get(key, ()):
                combined = l + right_rows[j]
                if residual is not None and _to_bool(residual(combined), "JOIN ON") is not True:
                    continue
                rows.append(combined)
                matched_left.add(i)
                matched_right.add(j)
        return rows, matched_left, matched_right

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def _execute_projection(
        self,
        select: ast.Select,
        binding: _Binding,
        rows: List[Row],
        env: Dict[str, Table],
    ) -> Table:
        expanded = expand_items(select.items, binding)
        compiled = [self._compile(expr, binding, env) for expr, _ in expanded]
        out_rows = [tuple(fn(row) for fn in compiled) for row in rows]
        columns = [
            Column(name, infer_column_type(row[i] for row in out_rows))
            for i, (_, name) in enumerate(expanded)
        ]
        return Table("result", Schema(columns), out_rows)

    # ------------------------------------------------------------------
    # Grouped aggregation
    # ------------------------------------------------------------------
    def _execute_grouped(
        self,
        select: ast.Select,
        binding: _Binding,
        rows: List[Row],
        env: Dict[str, Table],
    ) -> Table:
        group_exprs = resolve_group_exprs(select)
        key_fns = [self._compile(e, binding, env) for e in group_exprs]

        # Gather all aggregate calls from items, HAVING, and ORDER BY.
        agg_calls: Dict[Tuple, ast.FunctionCall] = {}
        expanded = expand_items(select.items, binding)
        for expr, _ in expanded:
            _collect_aggregates(expr, agg_calls)
        if select.having is not None:
            _collect_aggregates(select.having, agg_calls)
        order_items = [
            ast.OrderItem(resolve_output_ref(item.expr, select), item.ascending, item.nulls_last)
            for item in select.order_by
        ]
        for order_item in order_items:
            _collect_aggregates(order_item.expr, agg_calls)

        agg_keys = list(agg_calls)
        agg_specs: List[Tuple[Aggregate, List[Callable[[Row], Any]], bool, bool]] = []
        for key in agg_keys:
            call = agg_calls[key]
            agg = lookup_aggregate(call.name)
            assert agg is not None
            if call.is_star:
                if agg.name != "count":
                    raise BindError(f"{call.name}(*) is not supported")
                arg_fns: List[Callable[[Row], Any]] = []
            else:
                if len(call.args) != agg.num_args:
                    raise BindError(
                        f"aggregate {agg.name} expects {agg.num_args} args, got {len(call.args)}"
                    )
                arg_fns = [self._compile(a, binding, env) for a in call.args]
            agg_specs.append((agg, arg_fns, call.is_star, call.distinct))

        # Group rows.
        groups: Dict[Tuple, List[Row]] = {}
        group_order: List[Tuple] = []
        if group_exprs:
            for row in rows:
                key = tuple(fn(row) for fn in key_fns)
                hashable = tuple(sort_key(v) for v in key)
                if hashable not in groups:
                    groups[hashable] = []
                    group_order.append(hashable)
                groups[hashable].append(row)
            key_values = {}
            for row in rows:
                key = tuple(fn(row) for fn in key_fns)
                key_values.setdefault(tuple(sort_key(v) for v in key), key)
        else:
            groups[()] = list(rows)
            group_order.append(())
            key_values = {(): ()}

        # Compute aggregate results per group.
        group_rows: List[Tuple[Tuple, List[Any]]] = []
        for hashable in group_order:
            member_rows = groups[hashable]
            agg_results: List[Any] = []
            for agg, arg_fns, is_star, distinct in agg_specs:
                state = agg.init()
                seen: Set[Tuple] = set()
                for row in member_rows:
                    if is_star:
                        args: Tuple = ()
                    else:
                        args = tuple(fn(row) for fn in arg_fns)
                        if agg.skip_nulls and (not args or args[0] is None):
                            continue
                    if distinct:
                        marker = tuple(sort_key(a) for a in args)
                        if marker in seen:
                            continue
                        seen.add(marker)
                    state = agg.step(state, args)
                agg_results.append(agg.final(state))
            group_rows.append((key_values[hashable], agg_results))

        group_key_map = {e.key(): i for i, e in enumerate(group_exprs)}
        agg_key_map = {k: i for i, k in enumerate(agg_keys)}

        def eval_in_group(expr: ast.Expr, key: Tuple, agg_results: List[Any], rep: Optional[Row]) -> Any:
            return eval_group_expr(expr, key, agg_results, group_key_map, agg_key_map)

        # HAVING
        survivors: List[Tuple[Tuple, List[Any], Optional[Row]]] = []
        for hashable, (key, agg_results) in zip(group_order, group_rows):
            rep = groups[hashable][0] if groups[hashable] else None
            if select.having is not None:
                verdict = _to_bool(
                    eval_in_group(select.having, key, agg_results, rep), "HAVING clause"
                )
                if verdict is not True:
                    continue
            survivors.append((key, agg_results, rep))

        out_rows: List[Row] = []
        order_keys: List[Tuple] = []
        for key, agg_results, rep in survivors:
            out_rows.append(
                tuple(eval_in_group(expr, key, agg_results, rep) for expr, _ in expanded)
            )
            if order_items:
                order_keys.append(
                    tuple(
                        eval_in_group(item.expr, key, agg_results, rep)
                        for item in order_items
                    )
                )

        columns = [
            Column(name, infer_column_type(row[i] for row in out_rows))
            for i, (_, name) in enumerate(expanded)
        ]
        table = Table("result", Schema(columns), out_rows)
        if order_items:
            table = self._sort_with_keys(table, order_keys, order_items)
        return table

    # ------------------------------------------------------------------
    # DISTINCT / ORDER BY / LIMIT
    # ------------------------------------------------------------------
    @staticmethod
    def _distinct(table: Table) -> Table:
        seen: Set[Tuple] = set()
        rows: List[Row] = []
        for row in table.rows:
            marker = tuple(sort_key(v) for v in row)
            if marker not in seen:
                seen.add(marker)
                rows.append(row)
        return Table(table.name, table.schema, rows)

    def _order_table(
        self,
        select: ast.Select,
        table: Table,
        binding: _Binding,
        rows: List[Row],
        env: Dict[str, Table],
        aggregated: bool,
    ) -> Table:
        if aggregated:
            return table  # Already ordered inside _execute_grouped.
        order_keys: List[Tuple] = []
        key_fns: List[Callable[[Row], Any]] = []
        use_output: List[bool] = []
        for item in select.order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                ordinal = expr.value
                if not 1 <= ordinal <= len(table.schema):
                    raise BindError(f"ORDER BY ordinal {ordinal} out of range")
                key_fns.append(lambda row, i=ordinal - 1: row[i])
                use_output.append(True)
                continue
            if isinstance(expr, ast.ColumnRef) and expr.table is None and table.schema.has_column(expr.name):
                idx = table.schema.index_of(expr.name)
                key_fns.append(lambda row, i=idx: row[i])
                use_output.append(True)
                continue
            key_fns.append(self._compile(expr, binding, env))
            use_output.append(False)

        if select.distinct and not all(use_output):
            raise BindError("ORDER BY expressions must appear in SELECT DISTINCT output")

        for out_row, in_row in zip(table.rows, rows):
            order_keys.append(
                tuple(
                    fn(out_row) if out else fn(in_row)
                    for fn, out in zip(key_fns, use_output)
                )
            )
        return self._sort_with_keys(table, order_keys, select.order_by)

    def _order_output_table(self, table: Table, order_by: List[ast.OrderItem]) -> Table:
        keys: List[Tuple] = []
        fns: List[Callable[[Row], Any]] = []
        for item in order_by:
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                fns.append(lambda row, i=expr.value - 1: row[i])
            elif isinstance(expr, ast.ColumnRef):
                idx = table.schema.index_of(expr.name)
                fns.append(lambda row, i=idx: row[i])
            else:
                raise BindError("ORDER BY after set operations must use output columns")
        for row in table.rows:
            keys.append(tuple(fn(row) for fn in fns))
        return self._sort_with_keys(table, keys, order_by)

    @staticmethod
    def _sort_with_keys(
        table: Table, keys: List[Tuple], order_by: List[ast.OrderItem]
    ) -> Table:
        indexed = list(range(len(table.rows)))

        def key_for(i: int) -> Tuple:
            parts = []
            for value, item in zip(keys[i], order_by):
                null_rank = 1 if item.nulls_last else -1
                base = sort_key(value)
                if value is None:
                    parts.append((null_rank, (0, 0.0, "")))
                else:
                    if item.ascending:
                        parts.append((0, base))
                    else:
                        parts.append((0, _InvertedKey(base)))
            return tuple(parts)

        indexed.sort(key=key_for)
        return Table(table.name, table.schema, [table.rows[i] for i in indexed])

    @staticmethod
    def _apply_limit(table: Table, limit: Optional[int], offset: Optional[int]) -> Table:
        rows = table.rows
        if offset:
            rows = rows[offset:]
        if limit is not None:
            rows = rows[:limit]
        return Table(table.name, table.schema, rows)

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def _apply_set_op(self, left: Table, op: str, all_flag: bool, right: Table) -> Table:
        if len(left.schema) != len(right.schema):
            raise BindError(
                f"{op} requires equal column counts ({len(left.schema)} vs {len(right.schema)})"
            )
        columns = [
            Column(lc.name, common_type(lc.dtype, rc.dtype))
            for lc, rc in zip(left.schema, right.schema)
        ]
        schema = Schema(columns)
        lrows, rrows = left.rows, right.rows
        marker = lambda row: tuple(sort_key(v) for v in row)  # noqa: E731
        if op == "UNION":
            rows = lrows + rrows
            if not all_flag:
                return self._distinct(Table("result", schema, rows))
            return Table("result", schema, rows)
        if op == "INTERSECT":
            right_set = {marker(r) for r in rrows}
            rows = [r for r in lrows if marker(r) in right_set]
            result = Table("result", schema, rows)
            return result if all_flag else self._distinct(result)
        if op == "EXCEPT":
            right_set = {marker(r) for r in rrows}
            rows = [r for r in lrows if marker(r) not in right_set]
            result = Table("result", schema, rows)
            return result if all_flag else self._distinct(result)
        raise ExecutionError(f"unknown set operation {op!r}")

    # ------------------------------------------------------------------
    # Expression compilation
    # ------------------------------------------------------------------
    def _compile(
        self, expr: ast.Expr, binding: _Binding, env: Dict[str, Table]
    ) -> Callable[[Row], Any]:
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda row: value
        if isinstance(expr, ast.ColumnRef):
            idx = binding.resolve(expr.name, expr.table)
            return lambda row: row[idx]
        if isinstance(expr, ast.Star):
            raise BindError("'*' is only allowed in SELECT lists and COUNT(*)")
        if isinstance(expr, ast.Unary):
            inner = self._compile(expr.operand, binding, env)
            op = expr.op
            return lambda row: _apply_unary(op, inner(row))
        if isinstance(expr, ast.Binary):
            left = self._compile(expr.left, binding, env)
            right = self._compile(expr.right, binding, env)
            op = expr.op
            return lambda row: _apply_binary(op, lambda: left(row), lambda: right(row))
        if isinstance(expr, ast.FunctionCall):
            if lookup_aggregate(expr.name):
                raise BindError(
                    f"aggregate {expr.name} is not allowed here (no GROUP BY context)"
                )
            scalar = lookup_scalar(expr.name)
            if scalar is None:
                raise BindError(f"unknown function {expr.name!r}")
            scalar.check_arity(len(expr.args))
            arg_fns = [self._compile(a, binding, env) for a in expr.args]
            return lambda row: scalar.invoke([fn(row) for fn in arg_fns])
        if isinstance(expr, ast.Case):
            return self._compile_case(expr, binding, env)
        if isinstance(expr, ast.Cast):
            inner = self._compile(expr.operand, binding, env)
            target = parse_type_name(expr.type_name)
            return lambda row: cast_value(inner(row), target)
        if isinstance(expr, ast.IsNull):
            inner = self._compile(expr.operand, binding, env)
            if expr.negated:
                return lambda row: inner(row) is not None
            return lambda row: inner(row) is None
        if isinstance(expr, ast.InList):
            operand = self._compile(expr.operand, binding, env)
            item_fns = [self._compile(i, binding, env) for i in expr.items]
            negated = expr.negated
            def in_list(row: Row) -> Optional[bool]:
                value = operand(row)
                if value is None:
                    return None
                saw_null = False
                found = False
                for fn in item_fns:
                    item = fn(row)
                    if item is None:
                        saw_null = True
                    elif compare_values(value, item) == 0:
                        found = True
                        break
                if found:
                    result: Optional[bool] = True
                elif saw_null:
                    result = None
                else:
                    result = False
                if result is None:
                    return None
                return (not result) if negated else result
            return in_list
        if isinstance(expr, ast.InSubquery):
            operand = self._compile(expr.operand, binding, env)
            subquery, negated = expr.subquery, expr.negated
            cache: Dict[str, Any] = {}
            def in_subquery(row: Row) -> Optional[bool]:
                if "values" not in cache:
                    table = self.execute_select(subquery, env)
                    if len(table.schema) != 1:
                        raise ExecutionError("IN subquery must return one column")
                    values = set()
                    saw_null = False
                    for (v,) in table.rows:
                        if v is None:
                            saw_null = True
                        else:
                            values.add(sort_key(v))
                    cache["values"] = values
                    cache["saw_null"] = saw_null
                value = operand(row)
                if value is None:
                    # x IN (<empty>) is FALSE even for NULL x; NOT IN is TRUE.
                    if not cache["values"] and not cache["saw_null"]:
                        return negated
                    return None
                found = sort_key(value) in cache["values"]
                if found:
                    result: Optional[bool] = True
                elif cache["saw_null"]:
                    result = None
                else:
                    result = False
                if result is None:
                    return None
                return (not result) if negated else result
            return in_subquery
        if isinstance(expr, ast.ScalarSubquery):
            subquery = expr.subquery
            cache: Dict[str, Any] = {}
            def scalar_subquery(row: Row) -> Any:
                if "value" not in cache:
                    table = self.execute_select(subquery, env)
                    if len(table.schema) != 1:
                        raise ExecutionError("scalar subquery must return one column")
                    if table.num_rows > 1:
                        raise ExecutionError("scalar subquery returned more than one row")
                    cache["value"] = table.rows[0][0] if table.rows else None
                return cache["value"]
            return scalar_subquery
        if isinstance(expr, ast.Exists):
            subquery, negated = expr.subquery, expr.negated
            cache: Dict[str, Any] = {}
            def exists(row: Row) -> bool:
                if "value" not in cache:
                    table = self.execute_select(subquery, env)
                    cache["value"] = table.num_rows > 0
                return (not cache["value"]) if negated else cache["value"]
            return exists
        if isinstance(expr, ast.Between):
            operand = self._compile(expr.operand, binding, env)
            low = self._compile(expr.low, binding, env)
            high = self._compile(expr.high, binding, env)
            negated = expr.negated
            def between(row: Row) -> Optional[bool]:
                value = operand(row)
                lo, hi = low(row), high(row)
                c1 = compare_values(value, lo)
                c2 = compare_values(value, hi)
                if c1 is None or c2 is None:
                    return None
                result = c1 >= 0 and c2 <= 0
                return (not result) if negated else result
            return between
        if isinstance(expr, ast.Like):
            operand = self._compile(expr.operand, binding, env)
            pattern_fn = self._compile(expr.pattern, binding, env)
            negated, ci = expr.negated, expr.case_insensitive
            cache: Dict[str, "re.Pattern[str]"] = {}
            def like(row: Row) -> Optional[bool]:
                value = operand(row)
                pattern = pattern_fn(row)
                if value is None or pattern is None:
                    return None
                if not isinstance(value, str):
                    value = str(value)
                regex = cache.get(pattern)
                if regex is None:
                    regex = _like_regex(pattern, ci)
                    cache[pattern] = regex
                result = bool(regex.match(value))
                return (not result) if negated else result
            return like
        raise BindError(f"cannot compile expression: {expr!r}")

    def _compile_case(
        self, expr: ast.Case, binding: _Binding, env: Dict[str, Table]
    ) -> Callable[[Row], Any]:
        operand_fn = (
            self._compile(expr.operand, binding, env) if expr.operand is not None else None
        )
        when_fns = [
            (self._compile(cond, binding, env), self._compile(result, binding, env))
            for cond, result in expr.whens
        ]
        else_fn = self._compile(expr.else_, binding, env) if expr.else_ is not None else None

        def case(row: Row) -> Any:
            if operand_fn is not None:
                subject = operand_fn(row)
                for cond_fn, result_fn in when_fns:
                    if compare_values(subject, cond_fn(row)) == 0:
                        return result_fn(row)
            else:
                for cond_fn, result_fn in when_fns:
                    if _to_bool(cond_fn(row), "CASE WHEN") is True:
                        return result_fn(row)
            return else_fn(row) if else_fn is not None else None

        return case
