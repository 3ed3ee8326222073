"""An in-memory relational engine (the reproduction's DuckDB substitute).

Public API::

    from repro.relational import Database, Table

    db = Database()
    db.register(Table.from_columns("t", {"x": [1, 2, 3]}))
    result = db.execute("SELECT SUM(x) AS total FROM t")
"""

from .catalog import Database
from .csv_io import read_csv, read_csv_text, to_csv_text, write_csv
from .plan import PlanCache, normalize_sql
from .errors import (
    BindError,
    CatalogError,
    ExecutionError,
    LexError,
    ParseError,
    RelationalError,
)
from .parser import parse, parse_script
from .sql_render import expr_to_sql, select_to_sql
from .table import Column, Schema, Table
from .types import DataType, format_value

__all__ = [
    "Database",
    "PlanCache",
    "normalize_sql",
    "Table",
    "Column",
    "Schema",
    "DataType",
    "format_value",
    "parse",
    "parse_script",
    "expr_to_sql",
    "select_to_sql",
    "read_csv",
    "read_csv_text",
    "write_csv",
    "to_csv_text",
    "RelationalError",
    "LexError",
    "ParseError",
    "BindError",
    "ExecutionError",
    "CatalogError",
]
