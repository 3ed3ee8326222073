"""Binding and scalar semantics shared by the planner and its evaluators.

:mod:`repro.relational.plan` lowers a statement into operator nodes and
:mod:`repro.relational.vectorized` compiles their expressions into
column-at-a-time closures.  This module holds what both lean on:

* :class:`_Binding` — resolves (qualifier, column) names to positions;
* the scalar operators (``_apply_unary`` / ``_apply_binary``) with SQL
  three-valued logic, and the LIKE / sort-key helpers;
* the planner-side binding steps: equi-join splitting, select-list
  expansion, GROUP BY/ORDER BY alias and ordinal resolution, and
  grouped-expression evaluation (HAVING and grouped projections, a
  per-*group* cost).

The tuple-at-a-time interpreter in ``benchmarks/oracles/row_executor.py``
— the equivalence battery's oracle and the SQL benchmark's baseline —
imports these helpers too.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import ast
from .aggregates import lookup_aggregate
from .errors import BindError, ExecutionError
from .functions import lookup_scalar, sql_mod
from .sql_render import derive_column_name, expr_to_sql
from .table import Schema
from .types import cast_value, compare_values, parse_type_name


class _Binding:
    """Maps (qualifier, column) names to positions in the current row."""

    def __init__(self, entries: Sequence[Tuple[Optional[str], str]]):
        self.entries: List[Tuple[Optional[str], str]] = list(entries)

    @classmethod
    def for_table(cls, qualifier: Optional[str], schema: Schema) -> "_Binding":
        q = qualifier.lower() if qualifier else None
        return cls([(q, col.name) for col in schema])

    def merge(self, other: "_Binding") -> "_Binding":
        return _Binding(self.entries + other.entries)

    def resolve(self, name: str, table: Optional[str] = None) -> int:
        target = name.lower()
        if table is not None:
            qualifier = table.lower()
            matches = [
                i
                for i, (q, n) in enumerate(self.entries)
                if q == qualifier and n.lower() == target
            ]
            if not matches:
                raise BindError(f"column {table}.{name} not found")
        else:
            matches = [i for i, (q, n) in enumerate(self.entries) if n.lower() == target]
            if not matches:
                available = sorted({n for _, n in self.entries})
                raise BindError(f"column {name!r} not found; available: {available}")
        if len(matches) > 1:
            raise BindError(f"column reference {name!r} is ambiguous")
        return matches[0]

    def star_indices(self, table: Optional[str] = None) -> List[int]:
        if table is None:
            return list(range(len(self.entries)))
        qualifier = table.lower()
        indices = [i for i, (q, _) in enumerate(self.entries) if q == qualifier]
        if not indices:
            raise BindError(f"unknown table alias in star expansion: {table!r}")
        return indices

    def names(self) -> List[str]:
        return [n for _, n in self.entries]


def _like_regex(pattern: str, case_insensitive: bool) -> "re.Pattern[str]":
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    flags = re.IGNORECASE | re.DOTALL if case_insensitive else re.DOTALL
    return re.compile(f"^{regex}$", flags)


def _and3(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _to_bool(value: Any, context: str) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"{context} must be a boolean, got {value!r}")


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FunctionCall):
        if lookup_aggregate(expr.name):
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.Unary):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Binary):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.Case):
        parts: List[ast.Expr] = [c for c, _ in expr.whens] + [r for _, r in expr.whens]
        if expr.operand:
            parts.append(expr.operand)
        if expr.else_:
            parts.append(expr.else_)
        return any(_contains_aggregate(p) for p in parts)
    if isinstance(expr, ast.Cast):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.IsNull):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.InList):
        return _contains_aggregate(expr.operand) or any(_contains_aggregate(i) for i in expr.items)
    if isinstance(expr, ast.Between):
        return any(_contains_aggregate(e) for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, ast.Like):
        return _contains_aggregate(expr.operand) or _contains_aggregate(expr.pattern)
    if isinstance(expr, (ast.InSubquery, ast.ScalarSubquery, ast.Exists)):
        return False
    return False


def _collect_aggregates(expr: ast.Expr, out: Dict[Tuple, ast.FunctionCall]) -> None:
    if isinstance(expr, ast.FunctionCall):
        if lookup_aggregate(expr.name):
            out.setdefault(expr.key(), expr)
            return
        for a in expr.args:
            _collect_aggregates(a, out)
        return
    if isinstance(expr, ast.Unary):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.Binary):
        _collect_aggregates(expr.left, out)
        _collect_aggregates(expr.right, out)
    elif isinstance(expr, ast.Case):
        if expr.operand:
            _collect_aggregates(expr.operand, out)
        for cond, result in expr.whens:
            _collect_aggregates(cond, out)
            _collect_aggregates(result, out)
        if expr.else_:
            _collect_aggregates(expr.else_, out)
    elif isinstance(expr, ast.Cast):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.IsNull):
        _collect_aggregates(expr.operand, out)
    elif isinstance(expr, ast.InList):
        _collect_aggregates(expr.operand, out)
        for item in expr.items:
            _collect_aggregates(item, out)
    elif isinstance(expr, ast.Between):
        _collect_aggregates(expr.operand, out)
        _collect_aggregates(expr.low, out)
        _collect_aggregates(expr.high, out)
    elif isinstance(expr, ast.Like):
        _collect_aggregates(expr.operand, out)
        _collect_aggregates(expr.pattern, out)


# ----------------------------------------------------------------------
# Planner-side binding steps
# ----------------------------------------------------------------------
def split_equi_condition(
    condition: ast.Expr, left: _Binding, right: _Binding
) -> Tuple[List[Tuple[int, int]], Optional[ast.Expr]]:
    """Extract ``left.col = right.col`` conjuncts as hash-join key pairs;
    the other conjuncts come back AND-ed as the residual."""
    conjuncts: List[ast.Expr] = []

    def flatten(expr: ast.Expr) -> None:
        if isinstance(expr, ast.Binary) and expr.op == "AND":
            flatten(expr.left)
            flatten(expr.right)
        else:
            conjuncts.append(expr)

    flatten(condition)
    pairs: List[Tuple[int, int]] = []
    leftovers: List[ast.Expr] = []
    for conjunct in conjuncts:
        pair = _try_equi_pair(conjunct, left, right)
        if pair is not None:
            pairs.append(pair)
        else:
            leftovers.append(conjunct)
    residual: Optional[ast.Expr] = None
    for expr in leftovers:
        residual = expr if residual is None else ast.Binary("AND", residual, expr)
    return pairs, residual


def _try_equi_pair(
    expr: ast.Expr, left: _Binding, right: _Binding
) -> Optional[Tuple[int, int]]:
    if not (isinstance(expr, ast.Binary) and expr.op == "="):
        return None
    sides = []
    for operand in (expr.left, expr.right):
        if not isinstance(operand, ast.ColumnRef):
            return None
        side = None
        for binding, tag in ((left, "L"), (right, "R")):
            try:
                idx = binding.resolve(operand.name, operand.table)
                side = (tag, idx)
                break
            except BindError:
                continue
        if side is None:
            return None
        sides.append(side)
    tags = {s[0] for s in sides}
    if tags != {"L", "R"}:
        return None
    left_idx = next(idx for tag, idx in sides if tag == "L")
    right_idx = next(idx for tag, idx in sides if tag == "R")
    return (left_idx, right_idx)


def expand_items(
    items: List[ast.SelectItem], binding: _Binding
) -> List[Tuple[ast.Expr, str]]:
    """Select-list items as ``(expression, output name)``, stars expanded."""
    expanded: List[Tuple[ast.Expr, str]] = []
    for item in items:
        if isinstance(item.expr, ast.Star):
            for idx in binding.star_indices(item.expr.table):
                qualifier, name = binding.entries[idx]
                expanded.append((ast.ColumnRef(name, qualifier), name))
        else:
            name = item.alias or derive_column_name(item.expr)
            expanded.append((item.expr, name))
    return expanded


def resolve_group_exprs(select: ast.Select) -> List[ast.Expr]:
    """GROUP BY items may be ordinals or select-list aliases."""
    resolved: List[ast.Expr] = []
    for expr in select.group_by:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value
            if not 1 <= ordinal <= len(select.items):
                raise BindError(f"GROUP BY ordinal {ordinal} out of range")
            resolved.append(select.items[ordinal - 1].expr)
            continue
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            alias_match = next(
                (
                    item.expr
                    for item in select.items
                    if item.alias and item.alias.lower() == expr.name.lower()
                ),
                None,
            )
            if alias_match is not None and not isinstance(alias_match, ast.Star):
                resolved.append(alias_match)
                continue
        resolved.append(expr)
    return resolved


def resolve_output_ref(expr: ast.Expr, select: ast.Select) -> ast.Expr:
    """Resolve ORDER BY aliases and ordinals to select-list expressions."""
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        ordinal = expr.value
        if 1 <= ordinal <= len(select.items):
            target = select.items[ordinal - 1].expr
            if not isinstance(target, ast.Star):
                return target
        return expr
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        for item in select.items:
            if item.alias and item.alias.lower() == expr.name.lower():
                if not isinstance(item.expr, ast.Star):
                    return item.expr
    return expr


def eval_group_expr(
    expr: ast.Expr,
    key: Tuple,
    agg_results: List[Any],
    group_key_map: Dict[Tuple, int],
    agg_key_map: Dict[Tuple, int],
) -> Any:
    """Evaluate ``expr`` for one group: GROUP BY expressions read the
    group's key, aggregate calls read its results, and any other column
    reference is a binding error."""

    def ev(e: ast.Expr) -> Any:
        ekey = e.key()
        if ekey in group_key_map:
            return key[group_key_map[ekey]]
        if ekey in agg_key_map:
            return agg_results[agg_key_map[ekey]]
        if isinstance(e, ast.Literal):
            return e.value
        if isinstance(e, ast.Unary):
            return _apply_unary(e.op, ev(e.operand))
        if isinstance(e, ast.Binary):
            return _apply_binary(e.op, lambda: ev(e.left), lambda: ev(e.right))
        if isinstance(e, ast.Cast):
            return cast_value(ev(e.operand), parse_type_name(e.type_name))
        if isinstance(e, ast.FunctionCall) and not lookup_aggregate(e.name):
            scalar = lookup_scalar(e.name)
            if scalar is None:
                raise BindError(f"unknown function {e.name!r}")
            scalar.check_arity(len(e.args))
            return scalar.invoke([ev(a) for a in e.args])
        if isinstance(e, ast.Case):
            if e.operand is not None:
                subject = ev(e.operand)
                for cond, result in e.whens:
                    if compare_values(subject, ev(cond)) == 0:
                        return ev(result)
            else:
                for cond, result in e.whens:
                    if _to_bool(ev(cond), "CASE WHEN") is True:
                        return ev(result)
            return ev(e.else_) if e.else_ is not None else None
        if isinstance(e, ast.IsNull):
            inner = ev(e.operand)
            return (inner is not None) if e.negated else (inner is None)
        if isinstance(e, ast.ColumnRef):
            raise BindError(
                f"column {e.name!r} must appear in GROUP BY or inside an aggregate"
            )
        raise BindError(f"expression not allowed in aggregate context: {expr_to_sql(e)}")

    return ev(expr)


# ----------------------------------------------------------------------
# Scalar operators
# ----------------------------------------------------------------------
class _InvertedKey:
    """Wraps a sort key to invert its ordering (for DESC)."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_InvertedKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _InvertedKey) and self.key == other.key


def _apply_unary(op: str, value: Any) -> Any:
    if op == "NOT":
        if value is None:
            return None
        result = _to_bool(value, "NOT")
        return None if result is None else not result
    if value is None:
        return None
    if op == "-":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"unary '-' requires a number, got {value!r}")
        return -value
    if op == "+":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(f"unary '+' requires a number, got {value!r}")
        return value
    raise ExecutionError(f"unknown unary operator {op!r}")


_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}


def _apply_binary(op: str, left_fn: Callable[[], Any], right_fn: Callable[[], Any]) -> Any:
    if op == "AND":
        return _and3(_to_bool(left_fn(), "AND"), _to_bool(right_fn(), "AND"))
    if op == "OR":
        return _or3(_to_bool(left_fn(), "OR"), _to_bool(right_fn(), "OR"))

    left, right = left_fn(), right_fn()
    if op in _COMPARISONS:
        cmp = compare_values(left, right)
        if cmp is None:
            return None
        if op == "=":
            return cmp == 0
        if op == "!=":
            return cmp != 0
        if op == "<":
            return cmp < 0
        if op == "<=":
            return cmp <= 0
        if op == ">":
            return cmp > 0
        return cmp >= 0

    if left is None or right is None:
        return None

    if op == "||":
        from .types import format_value

        ls = left if isinstance(left, str) else format_value(left)
        rs = right if isinstance(right, str) else format_value(right)
        return ls + rs

    import datetime as _dt

    if op in ("+", "-") and isinstance(left, _dt.date) and isinstance(right, (int,)):
        delta = _dt.timedelta(days=right)
        return left + delta if op == "+" else left - delta
    if op == "-" and isinstance(left, _dt.date) and isinstance(right, _dt.date):
        return (left - right).days

    for side, value in (("left", left), ("right", right)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExecutionError(
                f"operator {op!r} requires numeric operands, got {value!r} on the {side}"
            )

    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    if op == "%":
        return sql_mod(left, right)
    raise ExecutionError(f"unknown operator {op!r}")
