"""The planned/vectorized engine must agree with the row engine exactly.

``RowExecutor`` (``benchmarks/oracles/row_executor.py``) is the semantic
oracle: every query here runs on both
engines and the results (rows, column names, inferred types) must match.
A second battery checks behaviors that vectorization could plausibly
break: masked CASE branches, lazy subquery binding, and late-materialized
join columns.
"""

import datetime

import pytest

from oracles import RowExecutor
from repro.relational import Database, Table
from repro.relational.errors import BindError, ExecutionError
from repro.relational.parser import parse
from repro.relational.plan import execute_statement_planned, plan_select, run_plan


@pytest.fixture
def db():
    database = Database()
    database.register(
        Table.from_columns(
            "orders",
            {
                "id": [1, 2, 3, 4, 5, 6],
                "customer": ["ann", "bob", "ann", None, "cid", "bob"],
                "amount": [10.0, 20.0, None, 40.0, 50.0, 5.0],
                "qty": [1, 2, 3, 4, None, 6],
                "day": [
                    datetime.date(2024, 1, 1),
                    datetime.date(2024, 1, 2),
                    datetime.date(2024, 2, 1),
                    datetime.date(2024, 2, 2),
                    None,
                    datetime.date(2024, 3, 1),
                ],
            },
        )
    )
    database.register(
        Table.from_columns(
            "customers",
            {"name": ["ann", "bob", "dee"], "tier": ["gold", "silver", "gold"]},
        )
    )
    return database


EQUIVALENCE_QUERIES = [
    "SELECT * FROM orders",
    "SELECT id, amount * 2 AS double_amount FROM orders WHERE amount IS NOT NULL",
    "SELECT id FROM orders WHERE amount > 15 AND qty < 5",
    "SELECT id FROM orders WHERE customer IN ('ann', 'cid') OR qty >= 6",
    "SELECT id FROM orders WHERE amount BETWEEN 10 AND 40",
    "SELECT id FROM orders WHERE customer LIKE 'a%'",
    "SELECT id FROM orders WHERE customer NOT LIKE '%b'",
    "SELECT DISTINCT customer FROM orders",
    "SELECT id, CASE WHEN amount > 25 THEN 'big' WHEN amount > 10 THEN 'mid' "
    "ELSE 'small' END AS bucket FROM orders",
    "SELECT id, CAST(qty AS DOUBLE) AS qd, UPPER(customer) AS cu FROM orders",
    "SELECT customer, COUNT(*) AS n, SUM(amount) AS total FROM orders "
    "GROUP BY customer ORDER BY customer NULLS LAST",
    "SELECT customer, COUNT(DISTINCT qty) AS dq FROM orders GROUP BY customer",
    "SELECT customer, SUM(amount) AS s FROM orders GROUP BY customer "
    "HAVING SUM(amount) > 15 ORDER BY s DESC",
    "SELECT COUNT(*), SUM(amount), MIN(day), MAX(day), AVG(qty) FROM orders",
    "SELECT o.id, c.tier FROM orders o JOIN customers c ON o.customer = c.name "
    "ORDER BY o.id",
    "SELECT o.id, c.tier FROM orders o LEFT JOIN customers c ON o.customer = c.name "
    "ORDER BY o.id",
    "SELECT c.name, o.id FROM orders o RIGHT JOIN customers c ON o.customer = c.name "
    "ORDER BY c.name, o.id NULLS LAST",
    "SELECT o.id, c.name FROM orders o FULL JOIN customers c ON o.customer = c.name "
    "ORDER BY o.id NULLS LAST, c.name NULLS LAST",
    "SELECT orders.id, customers.name FROM orders CROSS JOIN customers "
    "ORDER BY orders.id, customers.name LIMIT 7",
    "SELECT o.id FROM orders o JOIN customers c "
    "ON o.customer = c.name AND o.amount > 15",
    "SELECT id FROM orders WHERE customer IN (SELECT name FROM customers)",
    "SELECT id FROM orders WHERE EXISTS (SELECT 1 FROM customers WHERE tier = 'gold')",
    "SELECT id, (SELECT COUNT(*) FROM customers) AS nc FROM orders LIMIT 2",
    "WITH big AS (SELECT * FROM orders WHERE amount >= 20) "
    "SELECT customer, COUNT(*) FROM big GROUP BY customer ORDER BY 1 NULLS LAST",
    "SELECT customer FROM orders UNION SELECT name FROM customers ORDER BY 1 NULLS LAST",
    "SELECT customer FROM orders INTERSECT SELECT name FROM customers",
    "SELECT name FROM customers EXCEPT SELECT customer FROM orders",
    "SELECT t.total FROM (SELECT customer, SUM(amount) AS total FROM orders "
    "GROUP BY customer) t ORDER BY t.total NULLS LAST",
    "SELECT id FROM orders ORDER BY amount DESC NULLS LAST, id LIMIT 3",
    "SELECT id, qty FROM orders ORDER BY qty * -1 NULLS LAST",
    "SELECT id FROM orders ORDER BY 1 DESC OFFSET 2",
    "SELECT day + 30 AS later FROM orders WHERE day IS NOT NULL ORDER BY later",
    "SELECT id FROM orders WHERE customer NOT IN "
    "(SELECT name FROM customers WHERE tier = 'platinum')",
]


@pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
def test_engines_agree(db, sql):
    stmt = parse(sql)
    baseline = RowExecutor(db).execute_statement(stmt)
    result = db.execute(sql)
    assert result.rows == baseline.rows, sql
    assert result.column_names() == baseline.column_names(), sql
    assert result.schema == baseline.schema, sql


class TestMaskedCase:
    """CASE branches only evaluate for rows that reach them."""

    def test_guarded_division(self):
        database = Database()
        database.register(Table.from_columns("t", {"x": [0, 2, 0, 4]}))
        result = database.execute(
            "SELECT CASE WHEN x = 0 THEN 0 ELSE 10 / x END AS r FROM t"
        )
        assert [r[0] for r in result.rows] == [0, 5.0, 0, 2.5]

    def test_guarded_division_in_else_chain(self):
        database = Database()
        database.register(Table.from_columns("t", {"x": [1, 0, 3]}))
        result = database.execute(
            "SELECT CASE WHEN x > 2 THEN 1 WHEN x = 0 THEN -1 ELSE 1 / x END AS r FROM t"
        )
        assert [r[0] for r in result.rows] == [1.0, -1, 1]

    def test_unguarded_division_still_raises(self):
        database = Database()
        database.register(Table.from_columns("t", {"x": [0, 2]}))
        with pytest.raises(ExecutionError):
            database.execute("SELECT 10 / x FROM t")


class TestLazySubqueries:
    """Subqueries bind lazily: never-evaluated predicates never bind."""

    def test_subquery_over_empty_outer_is_not_bound(self):
        database = Database()
        database.register(Table.from_columns("empty", {"x": []}))
        database.register(Table.from_columns("u", {"y": [1]}))
        # The row engine never binds the subquery because the predicate
        # never runs on any row; the planned engine must match.
        result = database.execute(
            "SELECT x FROM empty WHERE x IN (SELECT missing_col FROM u)"
        )
        assert result.num_rows == 0

    def test_subquery_binding_error_surfaces_when_rows_exist(self):
        database = Database()
        database.register(Table.from_columns("t", {"x": [1]}))
        database.register(Table.from_columns("u", {"y": [1]}))
        with pytest.raises(BindError):
            database.execute("SELECT x FROM t WHERE x IN (SELECT missing_col FROM u)")


class TestJoinShapes:
    def test_using_drops_duplicate_column(self, db):
        db.register(Table.from_columns("k1", {"k": [1, 2], "a": ["x", "y"]}))
        db.register(Table.from_columns("k2", {"k": [2, 3], "b": ["p", "q"]}))
        result = db.execute("SELECT * FROM k1 JOIN k2 USING (k)")
        assert result.column_names() == ["k", "a", "b"]
        assert result.rows == [(2, "y", "p")]

    def test_non_equi_join(self, db):
        db.register(Table.from_columns("lo", {"v": [1, 5]}))
        db.register(Table.from_columns("hi", {"w": [3, 6]}))
        result = db.execute("SELECT v, w FROM lo JOIN hi ON v < w ORDER BY v, w")
        assert result.rows == [(1, 3), (1, 6), (5, 6)]

    def test_null_keys_never_match_but_left_rows_survive(self, db):
        result = db.execute(
            "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.name WHERE o.customer IS NULL"
        )
        assert result.rows == [(4, None)]


class TestPlannedEntryPoints:
    """plan_select/run_plan bind env tables; statement dispatch agrees
    with Database.execute."""

    def test_plan_select_with_env_tables(self, db):
        env = {"bound": Table.from_columns("bound", {"z": [7, 8]})}
        select = parse("SELECT SUM(z) FROM bound")
        result = run_plan(plan_select(db, select, env), db, env)
        assert result.single_value() == 15

    def test_dispatch_matches_database_execute(self, db):
        stmt = parse("SELECT COUNT(*) FROM orders")
        assert execute_statement_planned(db, stmt).single_value() == 6
        assert db.execute("SELECT COUNT(*) FROM orders").single_value() == 6
