"""The ``discover-churn`` workload: sessionless table discovery while the
catalog changes underneath.

The catalog is fixed: the paper lakes (archaeology and environment at
evaluation scale 0.05), the procurement lake, and the 24-cell planted
scenario grid, renamed so every table name is unique -- 188 tables.

* **Reader** -- an open loop at ``QUERY_RATE`` queries per second, one
  ``PneumaService.batch_retrieve`` call per query.  Queries are drawn
  Zipf-skewed from a generated pool larger than the tokenizer's memo
  (``TOKEN_CACHE_SIZE``), so both its hit and miss paths run.  Latency is
  timed from when the query was due, so a stall also delays the queries
  queued behind it.
* **Writer** -- a second thread that, on a fixed schedule counted from the
  run start, adds a table or grows the one it added last, then calls
  ``reindex()`` on a service with a durable ``storage_dir``.  Right after
  each reindex returns, a probe that names the changed table must find it.
* **End of run** -- ``shutdown(drain=True)``, then a warm restart that must
  report ``warm_started`` and return the same top-k on a fixed probe set.

The seed fixes the query pool, the query stream and the write schedule.
"""

from __future__ import annotations

import gc
import random
import re
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Tuple

from common import Tail, median, tail
from layerprofile import CacheCounters
from layers import LayerTimer
from repro.datasets import build_procurement_lake, load_archaeology, load_environment
from repro.relational.catalog import Database
from repro.relational.table import Table
from repro.scenarios.generator import build_scenario
from repro.scenarios.grid import enumerate_grid
from repro.service import PneumaService
from repro.text.tokenize import TOKEN_CACHE_SIZE, token_cache_stats

PAPER_SCALE = 0.05
POOL_SIZE = TOKEN_CACHE_SIZE + 2048
ZIPF_EXPONENT = 0.9
QUERY_WORDS = 3
QUERY_RATE = 25.0  # queries per second; the reader alone sustains a few hundred
WRITE_PERIOD_S = 4.0  # one write per cycle; every cycle ends before the run does
WRITE_OFFSET_S = (1.0, 2.0)  # the first write's due time is drawn from this range
K_TABLES = 6
WARM_PROBES = 24
OVERHEAD_PROBES = 600

#: Words that appear nowhere in the base catalog: each added table is
#: named after one, so a probe naming the table must find it.
CHURN_WORDS = (
    "zeolite", "quincunx", "vellum", "marquetry", "obsidian", "tesserae",
    "cuneiform", "ziggurat", "palimpsest", "scrimshaw", "filigree", "astrolabe",
)


@dataclass(frozen=True)
class Write:
    due_s: float
    table: Table
    probe: str


@dataclass
class DiscoverInputs:
    catalog: Database
    stream: List[Tuple[float, str]]  # (due offset in seconds, query)
    writes: List[Write]
    warm_probes: List[str]
    overhead_probes: List[str]  # closed-loop queries for the tracing overhead


def _safe(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def build_catalog() -> Database:
    """The fixed catalog every seed searches: 188 uniquely named tables."""
    catalog = Database("discovery")
    lakes = [
        ("arch", load_archaeology(PAPER_SCALE).lake),
        ("env", load_environment(PAPER_SCALE).lake),
        ("proc", build_procurement_lake()),
    ]
    for cell in enumerate_grid():
        lakes.append((f"grid_{_safe(cell.cell_id)}", build_scenario(cell).lake))
    for prefix, lake in lakes:
        for table in lake.tables():
            catalog.register(table.renamed(f"{prefix}_{table.name}"))
    return catalog


def _vocabulary(catalog: Database) -> List[str]:
    words = set()
    for table in catalog.tables():
        text = " ".join([table.name, *table.column_names()]).lower()
        words.update(w for w in re.findall(r"[a-z]+", text) if len(w) > 2)
    return sorted(words)


def query_pool(catalog: Database, seed: int) -> List[str]:
    vocabulary = _vocabulary(catalog)
    rng = random.Random(f"pool:{seed}")
    pool: Dict[str, None] = {}
    while len(pool) < POOL_SIZE:
        pool[" ".join(rng.sample(vocabulary, QUERY_WORDS))] = None
    return list(pool)


def query_stream(pool: List[str], seed: int, seconds: float) -> List[Tuple[float, str]]:
    """Zipf-skewed draws from the pool at ``QUERY_RATE``, evenly spaced."""
    rng = random.Random(f"stream:{seed}")
    ranked = list(pool)
    rng.shuffle(ranked)  # which pool entries are popular depends on the seed
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    count = int(QUERY_RATE * seconds)
    queries = rng.choices(ranked, weights=weights, k=count)
    return [(i / QUERY_RATE, query) for i, query in enumerate(queries)]


def _churn_table(word: str, rows: int, rng: random.Random) -> Table:
    return Table.from_columns(
        f"churn_{word}_ledger",
        {
            f"{word}_id": list(range(1, rows + 1)),
            f"{word}_reading": [round(rng.uniform(0.0, 100.0), 2) for _ in range(rows)],
            f"{word}_zone": [rng.choice(("north", "south", "east", "west")) for _ in range(rows)],
        },
    )


def write_schedule(seed: int, seconds: float) -> List[Write]:
    """Writes every ``WRITE_PERIOD_S`` from a seeded offset: even writes add
    a table named after a fresh churn word, odd writes grow the last one.
    The number of writes depends on ``seconds`` only, never on the seed."""
    rng = random.Random(f"writes:{seed}")
    words = rng.sample(CHURN_WORDS, len(CHURN_WORDS))
    offset = rng.uniform(*WRITE_OFFSET_S)
    count = max(1, int((seconds - WRITE_OFFSET_S[1]) // WRITE_PERIOD_S))
    writes: List[Write] = []
    rows = 0
    word = ""
    for i in range(count):
        if i % 2:
            rows += rng.randint(100, 300)
        else:
            word = words[i // 2 % len(words)]
            rows = rng.randint(100, 300)
        table = _churn_table(word, rows, random.Random(f"rows:{seed}:{word}"))
        writes.append(Write(offset + i * WRITE_PERIOD_S, table, f"{word} ledger readings"))
    return writes


def make_inputs(seed: int, seconds: float) -> DiscoverInputs:
    catalog = build_catalog()
    pool = query_pool(catalog, seed)
    writes = write_schedule(seed, seconds)
    probes = pool[:WARM_PROBES] + sorted({w.probe for w in writes})
    return DiscoverInputs(
        catalog=catalog,
        stream=query_stream(pool, seed, seconds),
        writes=writes,
        warm_probes=probes,
        overhead_probes=random.Random(f"overhead:{seed}").sample(pool, OVERHEAD_PROBES),
    )


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass
class PhaseRecord:
    due_s: List[float] = field(default_factory=list)  # due offset of each answered query
    latency_ms: List[float] = field(default_factory=list)  # from when due
    service_ms: List[float] = field(default_factory=list)  # from when sent
    late_ms: List[float] = field(default_factory=list)  # sent minus due
    spans: List[Tuple[float, float]] = field(default_factory=list)  # (sent, done)
    failed: int = 0
    reindex_spans: List[Tuple[float, float]] = field(default_factory=list)
    reindex_s: List[float] = field(default_factory=list)
    reindex_reports: List[Dict[str, Any]] = field(default_factory=list)
    probe_misses: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latency_ms) + self.failed

    def capacity_per_s(self) -> float:
        """The reader's throughput between index changes: answered queries
        per second of service time, over the queries that overlapped no
        ``reindex()`` call (a reindex competes with reads for the one
        interpreter lock; its effect is what the latency metrics show)."""
        clear_ms = [
            ms
            for ms, (sent, done) in zip(self.service_ms, self.spans)
            if not any(sent < end and done > begin for begin, end in self.reindex_spans)
        ]
        return 1000.0 * len(clear_ms) / sum(clear_ms) if clear_ms else 0.0


def _wait_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _result_ok(result) -> bool:
    tables = [doc for doc in result.documents if doc.kind == "table"]
    return bool(tables) and not any(doc.degraded for doc in result.documents)


def _table_titles(result) -> List[str]:
    return [doc.title for doc in result.documents if doc.kind == "table"]


def _run_threads(*targets: Callable[[], None]) -> None:
    """Run the callables on their own threads; re-raise the first error."""
    errors: List[BaseException] = []

    def guarded(fn: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                fn()
            except BaseException as exc:  # surfaced on the calling thread
                errors.append(exc)

        return run

    threads = [threading.Thread(target=guarded(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


#: Wraps the benchmark's own probes (not workload queries); the traced run
#: gives them a role of their own so they are not counted as queries.
ProbeScope = Callable[[], ContextManager[Any]]


def run_phase(
    service: PneumaService,
    lake: Database,
    inputs: DiscoverInputs,
    probe_scope: ProbeScope = nullcontext,
) -> PhaseRecord:
    """The reader and the writer against one service, both timed from one start."""
    record = PhaseRecord()
    start = time.perf_counter() + 0.05

    def reader() -> None:
        for offset, query in inputs.stream:
            due = start + offset
            _wait_until(due)
            sent = time.perf_counter()
            try:
                results = service.batch_retrieve([query], k_tables=K_TABLES)
                ok = len(results) == 1 and _result_ok(results[0])
            except Exception:  # counted; the open loop keeps its schedule
                ok = False
            done = time.perf_counter()
            if not ok:
                record.failed += 1
                continue
            record.due_s.append(offset)
            record.latency_ms.append((done - due) * 1000.0)
            record.service_ms.append((done - sent) * 1000.0)
            record.late_ms.append((sent - due) * 1000.0)
            record.spans.append((sent, done))

    def writer() -> None:
        for write in inputs.writes:
            _wait_until(start + write.due_s)
            lake.register(write.table, replace=True)
            began = time.perf_counter()
            report = service.reindex()
            ended = time.perf_counter()
            record.reindex_spans.append((began, ended))
            record.reindex_s.append(ended - began)
            record.reindex_reports.append(report)
            with probe_scope():
                probe = service.batch_retrieve([write.probe], k_tables=K_TABLES)[0]
            if write.table.name not in _table_titles(probe):
                record.probe_misses.append(write.table.name)

    _run_threads(reader, writer)
    return record


def probe_topk(service: PneumaService, probes: List[str]) -> List[List[str]]:
    return [_table_titles(r) for r in service.batch_retrieve(probes, k_tables=K_TABLES)]


@dataclass
class Restart:
    warm_start_s: float
    warm_started: bool
    same_topk: bool


def restart(
    service: PneumaService,
    lake: Database,
    store: Path,
    probes: List[str],
    probe_scope: ProbeScope = nullcontext,
) -> Restart:
    """Drain and shut down, then warm-start from the same store."""
    with probe_scope():
        before = probe_topk(service, probes)
    service.shutdown(drain=True)
    gc.collect()
    began = time.perf_counter()
    warm = PneumaService(lake, max_workers=1, storage_dir=store)
    elapsed = time.perf_counter() - began
    try:
        with probe_scope():
            after = probe_topk(warm, probes)
        return Restart(elapsed, warm.warm_started, after == before)
    finally:
        warm.shutdown(drain=True)


@dataclass
class UntracedRun:
    setup_s: List[float]
    phase: PhaseRecord
    restart: Restart


def open_cold(inputs: DiscoverInputs, store: Path) -> Tuple[PneumaService, Database, float]:
    lake = inputs.catalog.copy()
    gc.collect()
    began = time.perf_counter()
    service = PneumaService(lake, max_workers=1, storage_dir=store)
    return service, lake, time.perf_counter() - began


def measure(
    inputs: DiscoverInputs, workdir: Path, setups_before: int, setups_after: int
) -> UntracedRun:
    """``setups_before`` cold starts on fresh stores (the last one is
    served), the timed reader/writer phase, the drained warm restart, then
    ``setups_after`` more cold starts, so that the ``setup_s`` samples span
    the run rather than its first seconds."""
    setup_s: List[float] = []

    def cold(i: int) -> Tuple[PneumaService, Database]:
        service, lake, elapsed = open_cold(inputs, workdir / f"store-{i}")
        setup_s.append(elapsed)
        return service, lake

    for i in range(setups_before - 1):
        cold(i)[0].shutdown()
    served = setups_before - 1
    service, lake = cold(served)
    phase = run_phase(service, lake, inputs)
    warm = restart(service, lake, workdir / f"store-{served}", inputs.warm_probes)
    for i in range(setups_after):
        cold(setups_before + i)[0].shutdown()
    return UntracedRun(setup_s=setup_s, phase=phase, restart=warm)


def cycle_tails(phase: PhaseRecord, writes: List[Write]) -> List[Tail]:
    """The tail of each write cycle: the queries due in the
    ``WRITE_PERIOD_S`` seconds that start at a write's due time."""
    cycles: List[List[float]] = [[] for _ in writes]
    for due, latency in zip(phase.due_s, phase.latency_ms):
        for cycle, write in zip(cycles, writes):
            if write.due_s <= due < write.due_s + WRITE_PERIOD_S:
                cycle.append(latency)
    return [tail(cycle) for cycle in cycles if cycle]


def end_to_end(run: UntracedRun, writes: List[Write]) -> Dict[str, float]:
    phase = run.phase
    latency = phase.latency_ms
    tails = cycle_tails(phase, writes)
    return {
        "setup_s": median(run.setup_s),
        "query_p50_ms": median(latency) if latency else 0.0,
        "query_tail_ms": median([t.value for t in tails]) if tails else 0.0,
        "queries_per_s": phase.capacity_per_s(),
        "reindex_s": median(phase.reindex_s) if phase.reindex_s else 0.0,
        "warm_start_s": run.restart.warm_start_s,
    }


def reindex_split(reports: List[Dict[str, Any]]) -> Tuple[float, float]:
    """Median build and swap seconds of a phase's reindex reports."""
    if not reports:
        return 0.0, 0.0
    return (
        median([r["build_seconds"] for r in reports]),
        median([r["swap_seconds"] for r in reports]),
    )


def overhead_pct(service: PneumaService, queries: List[str]) -> float:
    """What the layer timer adds to a query: closed-loop queries alternate
    between a freshly installed timer and none, so that drift in machine
    speed falls on both halves alike.  Returns the percentage by which the
    traced half's summed service time exceeds the untraced half's."""
    timer = LayerTimer()
    seconds = [0.0, 0.0]  # untraced, traced
    for i, query in enumerate(queries):
        traced = i % 2
        with timer if traced else nullcontext():
            began = time.perf_counter()
            service.batch_retrieve([query], k_tables=K_TABLES)
            seconds[traced] += time.perf_counter() - began
    return 100.0 * (seconds[1] / seconds[0] - 1.0)


def profiled_run(
    inputs: DiscoverInputs, store: Path, timer: LayerTimer
) -> Tuple[PhaseRecord, Restart, CacheCounters, float]:
    """The whole sequence -- cold start, reader/writer phase, warm restart --
    on a fresh store with ``timer`` installed; between the phase and the
    restart, untimed by ``timer``, the tracing overhead on the read path.
    The benchmark's own probes run under the role ``probe``, so that
    ``query`` counts the reader's queries only."""
    caches = CacheCounters()
    tokens_before = token_cache_stats()["tokenize"]

    def probe_scope() -> ContextManager[None]:
        return timer.role("probe")

    with timer:
        service, lake, _ = open_cold(inputs, store)
        phase = run_phase(service, lake, inputs, probe_scope)
    caches.add_tokenize(tokens_before, token_cache_stats()["tokenize"])
    caches.add_service(service.stats())
    overhead = overhead_pct(service, inputs.overhead_probes)
    with timer:
        warm = restart(service, lake, store, inputs.warm_probes, probe_scope)
    return phase, warm, caches, overhead
