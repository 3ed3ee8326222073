"""Regression tests against stdlib ``sqlite3`` as an independent oracle.

The same rows go into a :class:`Database` and an in-memory sqlite3
database, and the same query must return the same multiset of rows from
both.  sqlite3 returns booleans as 0/1, so results are compared after
mapping ``True``/``False`` to ints.  Known dialect differences (``/`` is
true division here, NULLs sort last) are kept out of these queries.
"""

import itertools
import sqlite3

import pytest

from repro.relational import Database, Table

T_VALUES = [1, 2, 3, None, -3, 7]
E_VALUES = [1, 2, 50]
N_VALUES = [1, None]


@pytest.fixture
def engines():
    db = Database()
    db.register(Table.from_columns("t", {"a": T_VALUES}))
    db.register(Table.from_columns("e", {"b": E_VALUES}))
    db.register(Table.from_columns("n", {"c": N_VALUES}))
    conn = sqlite3.connect(":memory:")
    for name, column, values in (("t", "a", T_VALUES), ("e", "b", E_VALUES), ("n", "c", N_VALUES)):
        conn.execute(f"CREATE TABLE {name} ({column} INTEGER)")
        conn.executemany(f"INSERT INTO {name} VALUES (?)", [(v,) for v in values])
    yield db, conn
    conn.close()


def normalized(rows):
    out = [tuple(int(v) if isinstance(v, bool) else v for v in row) for row in rows]
    return sorted(out, key=repr)


def assert_same_as_sqlite(engines, sql):
    db, conn = engines
    assert normalized(db.execute(sql).rows) == normalized(conn.execute(sql).fetchall()), sql


EMPTY = "(SELECT b FROM e WHERE b > 100)"

IN_SUBQUERY_QUERIES = [
    # Empty subquery: IN is FALSE and NOT IN is TRUE, even for NULL a.
    f"SELECT a FROM t WHERE a NOT IN {EMPTY}",
    f"SELECT a FROM t WHERE a IN {EMPTY}",
    f"SELECT a FROM t WHERE NOT (a IN {EMPTY})",
    f"SELECT a, a IN {EMPTY} AS i, a NOT IN {EMPTY} AS ni FROM t",
    # Non-empty subquery: NULL a stays NULL either way.
    "SELECT a FROM t WHERE a IN (SELECT b FROM e)",
    "SELECT a FROM t WHERE a NOT IN (SELECT b FROM e)",
    "SELECT a, a IN (SELECT b FROM e) AS i, a NOT IN (SELECT b FROM e) AS ni FROM t",
    # A NULL member makes every non-match NULL.
    "SELECT a FROM t WHERE a NOT IN (SELECT c FROM n)",
    "SELECT a, a IN (SELECT c FROM n) AS i FROM t",
]


@pytest.mark.parametrize("sql", IN_SUBQUERY_QUERIES)
def test_in_subquery_null_semantics_match_sqlite(engines, sql):
    assert_same_as_sqlite(engines, sql)


OPERANDS = [-7, -3, -2, 0, 3, 7]
DIVISORS = [-3, -2, 2, 3]


@pytest.mark.parametrize("x,y", list(itertools.product(OPERANDS, DIVISORS)))
def test_integer_modulo_takes_sign_of_dividend(engines, x, y):
    db, conn = engines
    (expected,) = conn.execute(f"SELECT ({x}) % ({y})").fetchone()
    assert db.query_value(f"SELECT ({x}) % ({y})") == expected
    assert db.query_value(f"SELECT MOD({x}, {y})") == expected


def test_modulo_over_a_column_matches_sqlite(engines):
    assert_same_as_sqlite(engines, "SELECT a, a % 2 AS r, a % -2 AS s FROM t")
    db, _ = engines
    rows = db.execute("SELECT a, MOD(a, 2) AS m FROM t WHERE a IS NOT NULL").rows
    assert {a: m for a, m in rows} == {1: 1, 2: 0, 3: 1, -3: -1, 7: 1}
