"""SQL engine throughput: planned/vectorized engine vs. the row baseline.

The claim under test (ROADMAP's "as fast as the hardware allows" via the
serving layer's dominant per-turn cost — the SQL engine):

1. The planned, columnar engine (:mod:`repro.relational.plan` +
   :mod:`repro.relational.vectorized`) beats the row-at-a-time
   tree-walking interpreter (``RowExecutor``, kept in ``oracles/``) by
   ≥ 3x on the group-by and equi-join workloads at 100k rows
   (scan-filter reported too).
2. A warm plan-cache hit skips parse+bind+plan entirely — verified by
   the cache's hit/miss counters and by the warm-vs-cold dispatch time.

Both engines run the *same* SQL on the *same* catalog and must return
identical row sets — every measurement double-checks equivalence.

Writes ``BENCH_sql_engine.json`` (timings + speedups) next to the repo
root so CI can archive the perf trajectory.  Also runnable standalone:

    PYTHONPATH=src python benchmarks/bench_sql_engine.py --smoke
"""

import argparse
import json
import random
import time
from pathlib import Path

import pytest

from oracles import RowExecutor
from repro.relational import Database, Table
from repro.relational.parser import parse

#: Workload scales: paper-adjacent (default) and CI smoke.
FULL_ROWS = 100_000
FULL_DIM_ROWS = 10_000
SMOKE_ROWS = 2_000
SMOKE_DIM_ROWS = 200

WORKLOADS = {
    "scan_filter": "SELECT a, b FROM t WHERE a > 500 AND b < 0.5",
    "equi_join": "SELECT t.a, u.c FROM t JOIN u ON t.k = u.k",
    "group_by": "SELECT g, COUNT(*) AS n, SUM(a) AS s, AVG(b) AS m FROM t GROUP BY g",
}

#: Acceptance floors at full scale (smoke only proves the path runs and
#: the engines agree — tiny N cannot show stable speedups).
SPEEDUP_FLOORS = {"equi_join": 3.0, "group_by": 3.0}


def build_lake(n_rows: int, n_dim: int, seed: int = 7) -> Database:
    """A fact table ``t`` (int key, 100 string groups, numerics) and a
    dimension table ``u`` keyed for the equi-join."""
    rng = random.Random(seed)
    db = Database()
    db.register(
        Table.from_columns(
            "t",
            {
                "k": [rng.randrange(n_dim) for _ in range(n_rows)],
                "g": [f"g{rng.randrange(100)}" for _ in range(n_rows)],
                "a": [rng.randrange(1000) for _ in range(n_rows)],
                "b": [rng.random() for _ in range(n_rows)],
            },
        )
    )
    db.register(
        Table.from_columns(
            "u",
            {"k": list(range(n_dim)), "c": [rng.random() for _ in range(n_dim)]},
        )
    )
    return db


def best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_workloads(db: Database, reps: int = 3) -> dict:
    """Time each workload on both engines; assert identical results."""
    results = {}
    for name, sql in WORKLOADS.items():
        stmt = parse(sql)
        baseline_table = RowExecutor(db).execute_statement(stmt)
        engine_table = db.execute(sql)
        assert sorted(map(tuple, baseline_table.rows)) == sorted(
            map(tuple, engine_table.rows)
        ), f"engines disagree on {name}"
        row_seconds = best_of(lambda: RowExecutor(db).execute_statement(stmt), reps)
        vec_seconds = best_of(lambda: db.execute(sql), reps)
        results[name] = {
            "sql": sql,
            "rows_out": engine_table.num_rows,
            "row_engine_ms": row_seconds * 1000,
            "vectorized_ms": vec_seconds * 1000,
            "speedup": row_seconds / max(vec_seconds, 1e-9),
        }
    return results


def measure_plan_cache(db: Database) -> dict:
    """Cold vs. warm dispatch of one templated query + cache counters."""
    sql = "SELECT g, SUM(a) AS s FROM t WHERE a > 10 GROUP BY g ORDER BY s DESC LIMIT 5"
    db.clear_plan_cache()
    before = db.plan_cache_stats()
    cold = best_of(lambda: db.execute(sql), reps=1)
    warm = best_of(lambda: db.execute(sql), reps=3)
    after = db.plan_cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    assert misses == 1, f"expected exactly one plan-cache miss, saw {misses}"
    assert hits == 3, f"expected three plan-cache hits, saw {hits}"
    return {
        "sql": sql,
        "cold_ms": cold * 1000,
        "warm_ms": warm * 1000,
        "hits": hits,
        "misses": misses,
    }


def report(label: str, results: dict, cache: dict) -> None:
    print()
    print(f"SQL engine ({label}):")
    for name, r in results.items():
        print(
            f"  {name:12s} row {r['row_engine_ms']:8.1f} ms   "
            f"vectorized {r['vectorized_ms']:8.1f} ms   "
            f"speedup {r['speedup']:5.2f}x   ({r['rows_out']} rows)"
        )
    print(
        f"  plan cache   cold {cache['cold_ms']:8.2f} ms   "
        f"warm {cache['warm_ms']:8.2f} ms   "
        f"({cache['misses']} miss, {cache['hits']} hits)"
    )


def write_json(label: str, results: dict, cache: dict, path: Path) -> None:
    payload = {
        "benchmark": "sql_engine",
        "mode": label,
        "workloads": results,
        "plan_cache": cache,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {path}")


def _assert_floors(results: dict) -> None:
    for name, floor in SPEEDUP_FLOORS.items():
        speedup = results[name]["speedup"]
        assert speedup >= floor, (
            f"{name}: expected >= {floor}x over the row engine, got {speedup:.2f}x"
        )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
@pytest.mark.smoke
def test_smoke_sql_engine():
    """Tiny-N smoke: both engines agree, the cache hits, JSON is emitted."""
    db = build_lake(SMOKE_ROWS, SMOKE_DIM_ROWS)
    results = run_workloads(db, reps=1)
    cache = measure_plan_cache(db)
    report("smoke", results, cache)
    write_json("smoke", results, cache, Path("BENCH_sql_engine.json"))


def test_sql_engine_speedup(benchmark):
    """Full scale: ≥ 3x on group-by and equi-join at 100k rows."""
    db = build_lake(FULL_ROWS, FULL_DIM_ROWS)
    results = run_workloads(db)
    cache = measure_plan_cache(db)
    report(f"{FULL_ROWS} rows", results, cache)
    write_json("full", results, cache, Path("BENCH_sql_engine.json"))
    _assert_floors(results)
    benchmark(db.execute, WORKLOADS["group_by"])


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny N, finishes in seconds")
    parser.add_argument("--rows", type=int, default=None, help="fact-table rows")
    parser.add_argument(
        "--json", type=Path, default=Path("BENCH_sql_engine.json"),
        help="where to write the results JSON",
    )
    args = parser.parse_args()

    if args.smoke:
        rows = args.rows if args.rows is not None else SMOKE_ROWS
        dim = max(rows // 10, 10)
        label = "smoke"
    else:
        rows = args.rows if args.rows is not None else FULL_ROWS
        dim = max(rows // 10, 10)
        label = f"{rows} rows"
    if rows < 10:
        parser.error("--rows must be >= 10")

    db = build_lake(rows, dim)
    results = run_workloads(db, reps=1 if args.smoke else 3)
    cache = measure_plan_cache(db)
    report(label, results, cache)
    write_json(label, results, cache, args.json)
    if not args.smoke and rows >= FULL_ROWS:
        _assert_floors(results)
        print("OK: >= 3x over the row engine on group-by and equi-join")
    elif args.smoke:
        print("note: speedup floors asserted only at full scale")


if __name__ == "__main__":
    main()
