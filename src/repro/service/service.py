"""PneumaService: many concurrent Seeker sessions over one shared index.

The paper's Conductor loop is interactive and stateful, which makes naive
scaling expensive: every session would narrate, embed, and index the whole
catalog before its first turn.  The service amortizes that — one frozen
:class:`HybridIndex` (plus narration/embedding caches) is built per
service and shared read-only by every session, so opening a session costs
only its private state ``(T, Q)``.

Concurrency model:

* a ``ThreadPoolExecutor`` runs turns; LLM/tool waits (real network I/O in
  production, :class:`SimulatedLatencyClock` stalls offline) overlap
  across sessions;
* a per-session lock serializes turns *within* a session, so the
  Conductor's working memory never interleaves;
* the shared index is immutable-after-build (``freeze()``); sessions hold
  a :class:`SwappableRetriever` over an :class:`IndexGate`, so
  :meth:`reindex` can build a fresh bundle in the background and
  atomically swap it in with zero downtime;
* the Document Database of captured knowledge is shared service-wide —
  one user's clarification accelerates every other session, the paper's
  emergent-documentation effect at serving scale.

Fault model (the resilience subsystem):

* **admission control** — ``post_turn`` sheds load with
  :class:`ServiceOverloaded` once the pending-turn queue hits its bound,
  so an overloaded service fails fast instead of queuing unboundedly;
* **deadlines** — a turn that cannot finish (or even start) within its
  deadline yields a structured :class:`DegradedResponse` instead of
  hanging the caller;
* **retry + breakers** — every session LLM is wrapped in
  :class:`ResilientLLM` (backoff retry behind a shared per-dependency
  circuit breaker); ``ContextLengthExceeded`` is non-retryable and
  propagates to the caller unchanged;
* **degraded retrieval** — when the dense half's breaker is open, table
  discovery serves BM25-only results flagged ``degraded=True``;
* **fault injection** — a :class:`FaultPlan` makes all of the above
  reproducible offline; a no-fault plan is bit-transparent.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.session import SeekerResponse, SeekerSession, build_seeker_llm
from ..ir.docdb import DocumentDatabase
from ..ir.system import IRSystem, RetrievalResult
from ..llm.clock import SimulatedLatencyClock
from ..llm.rule_llm import RuleLLM
from ..obs import ObservabilityConfig, SlowTurnLog, Tracer, render_prometheus
from ..obs import trace as obs
from ..prep.pipeline import PreparationPipeline
from ..prep.store import ProfileStore
from ..relational.catalog import Database
from ..relational.plan import PlanCache
from ..storage import NO_CRASH, IndexStore, stable_table_fingerprint
from .faults import FaultPlan, FlakyLLM, FlakyRetriever, derive_seed
from .metrics import ServiceMetrics
from .resilience import CircuitBreaker, ResilienceConfig, ResilientLLM
from .shared import (
    IndexGate,
    SharedIndexBundle,
    SwappableRetriever,
    build_shared_retriever,
    restore_shared_retriever,
)


class ServiceError(RuntimeError):
    """Raised for protocol misuse: unknown/closed sessions, closed service."""


class ServiceOverloaded(ServiceError):
    """Admission control refused the turn: the pending queue is at its
    bound.  The request was shed, not queued — retry with backoff."""


@dataclass
class ManagedSession:
    """One live session plus the serving bookkeeping around it."""

    session_id: str
    session: SeekerSession
    user: str = ""
    lock: threading.Lock = field(default_factory=threading.Lock)
    turns: int = 0
    closed: bool = False


@dataclass
class SessionSummary:
    """What ``close_session`` returns: the session's lifetime accounting."""

    session_id: str
    user: str
    turns: int
    virtual_seconds: float
    prompt_tokens: int
    completion_tokens: int


@dataclass
class DegradedResponse:
    """A structured stand-in for a turn the service could not serve fully.

    Returned (never raised) when a deadline expires: the caller gets a
    user-presentable message and a machine-readable ``reason`` instead of
    a hang or an opaque timeout.  When the turn is still running in the
    background, ``pending`` carries its future so callers may still join
    the late result.
    """

    session_id: str
    reason: str  # 'deadline' | 'queue-deadline'
    message: str
    state_view: str = ""
    answer_value: Any = None
    turn_log: Any = None
    degraded: bool = True
    pending: Optional[Future] = None

    def render(self) -> str:
        return f"{self.message}\n\n{self.state_view}".rstrip()


class PneumaService:
    """A concurrent, fault-tolerant serving layer around Seeker sessions.

    The public surface is four calls — ``open_session``, ``post_turn``,
    ``batch_retrieve``, ``close_session`` — plus ``stats()`` and
    ``reindex()``.  Use it as a context manager or call :meth:`shutdown`
    (``drain=True`` to close and summarize surviving sessions first).
    """

    def __init__(
        self,
        lake: Database,
        max_workers: int = 8,
        dim: int = 192,
        llm_factory: Optional[Callable[[], RuleLLM]] = None,
        llm_latency_factor: float = 0.0,
        fusion_pool: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        storage_dir: Optional[Union[str, Path]] = None,
        observability: Optional[ObservabilityConfig] = None,
    ):
        self.lake = lake
        self._dim = dim
        self._fusion_pool = fusion_pool
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.fault_plan = fault_plan
        self.metrics = ServiceMetrics()
        # Tracing is opt-in and bit-transparent when off: with no tracer,
        # _run_turn calls the serving path directly and the span helpers
        # across retrieval/SQL/LLM/storage all hit their no-op fast path.
        self.observability = observability
        if observability is not None and observability.tracing:
            self.tracer: Optional[Tracer] = Tracer(
                seed=observability.trace_seed,
                clock=observability.clock,
                max_traces=observability.max_traces,
            )
            self.slow_turns: Optional[SlowTurnLog] = SlowTurnLog(
                threshold_seconds=observability.slow_turn_seconds,
                capacity=observability.slow_log_capacity,
            )
        else:
            self.tracer = None
            self.slow_turns = None
        # Crash-safe persistence (optional): opening the store runs the
        # full recovery protocol (WAL replay, torn-tail truncation,
        # quarantine of corrupt segments); the fault plan's storage spec
        # threads deterministic crash injection through its write paths.
        self._storage_injector = (
            fault_plan.crash_injector() if fault_plan is not None else NO_CRASH
        )
        self.store: Optional[IndexStore] = (
            IndexStore(storage_dir, crash=self._storage_injector)
            if storage_dir is not None
            else None
        )
        self.warm_started = False
        cfg = self.resilience
        self.breakers: Dict[str, CircuitBreaker] = {
            "llm": CircuitBreaker(
                "llm",
                failure_threshold=cfg.llm_breaker_threshold,
                recovery_seconds=cfg.llm_breaker_recovery_seconds,
                on_transition=self.metrics.record_breaker_transition,
            ),
            "vector": CircuitBreaker(
                "vector",
                failure_threshold=cfg.vector_breaker_threshold,
                recovery_seconds=cfg.vector_breaker_recovery_seconds,
                on_transition=self.metrics.record_breaker_transition,
            ),
        }
        self._gate = IndexGate(self._build_bundle(initial=True))
        self.retriever = SwappableRetriever(self._gate)
        # One SQL plan cache for the whole service: the shared lake and
        # every session's materialized scratch database key into it (keys
        # are namespaced per catalog), so hit/miss counters aggregate all
        # serving-side SQL and repeated templated queries stay warm.
        self.sql_plan_cache = PlanCache(capacity=512)
        self.lake.share_plan_cache(self.sql_plan_cache)
        # One sketch-based preparation pipeline per service: column
        # profiles (MinHash + HLL + stats) for the whole catalog are built
        # once here, fingerprint-keyed in a versioned ProfileStore (the
        # NarrationCache idiom), so every session opens against warm
        # profiles and discovered join candidates — "sessions start
        # seeded".
        self.profile_store = ProfileStore()
        self.prep = PreparationPipeline(lake, store=self.profile_store)
        self.prep.join_candidates()  # eager: profile + discover at build time
        self.knowledge = self._open_knowledge()
        # Service-level IR facade for batch_retrieve; built over the
        # swappable retriever, so it follows reindex swaps automatically.
        self.ir = IRSystem(retriever=self.retriever, knowledge=self.knowledge)
        self._llm_factory = llm_factory
        self._llm_latency_factor = llm_latency_factor
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="pneuma-turn"
        )
        self._sessions: Dict[str, ManagedSession] = {}
        self._registry_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._llm_instances = itertools.count()
        self._shutdown = False
        self._draining = False
        # Admission control: a bounded count of submitted-but-unfinished
        # turns; post_turn sheds (raises) instead of queuing past it.
        self._admission_lock = threading.Lock()
        self._pending_turns = 0
        self._peak_pending = 0
        self._max_pending = (
            cfg.max_pending_turns if cfg.max_pending_turns is not None else max_workers * 32
        )
        self._turn_deadline = cfg.turn_deadline_seconds
        self._reindex_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "PneumaService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True, drain: bool = False) -> List[SessionSummary]:
        """Stop accepting work and release the worker pool.

        With ``drain=True``, first stop admitting *new* sessions, then
        close and summarize every surviving session (waiting out its
        in-flight turn) — the graceful teardown ``close_session`` alone
        cannot provide once the service is shut down.  Returns the drained
        sessions' summaries (empty without ``drain``).
        """
        summaries: List[SessionSummary] = []
        if drain:
            with self._registry_lock:
                self._draining = True
                remaining = list(self._sessions)
            for session_id in remaining:
                try:
                    summaries.append(self.close_session(session_id))
                except ServiceError:
                    pass  # lost a race with a concurrent closer — fine
        with self._registry_lock:
            self._shutdown = True
        self._executor.shutdown(wait=wait)
        if self.store is not None:
            if drain:
                # Graceful: atomically save the knowledge store, fold the
                # WAL into the checkpoint, and write the clean-shutdown
                # marker — the next open classifies as clean and skips
                # recovery work entirely.
                self.knowledge.save(self.store.root / "knowledge.json")
                self.store.checkpoint(clean=True)
            else:
                self.store.close()
        return summaries

    def _build_bundle(
        self, narrations=None, embedder=None, initial: bool = False
    ) -> SharedIndexBundle:
        """Build (or warm-rebuild) an index bundle with resilience wiring.

        On the initial build with a store attached, a published snapshot
        warm-starts the bundle: the frozen index hydrates from mmap'd
        segments, and only tables that changed while the service was down
        are narrated (into the delta overlay).  A cold build with a store
        publishes its result so the *next* open warm-starts.
        """
        bundle: Optional[SharedIndexBundle] = None
        if initial and self.store is not None:
            bundle = restore_shared_retriever(
                self.lake,
                self.store,
                dim=self._dim,
                fusion_pool=self._fusion_pool,
                narrations=narrations,
                embedder=embedder,
                vector_breaker=self.breakers["vector"],
                on_degraded=self.metrics.record_degraded_retrieval,
            )
            if bundle is not None:
                self.warm_started = True
        if bundle is None:
            bundle = build_shared_retriever(
                self.lake,
                dim=self._dim,
                fusion_pool=self._fusion_pool,
                narrations=narrations,
                embedder=embedder,
                vector_breaker=self.breakers["vector"],
                on_degraded=self.metrics.record_degraded_retrieval,
            )
            if initial and self.store is not None:
                self._publish_index(bundle.retriever.index)
        if self.fault_plan is not None:
            schedule = self.fault_plan.schedule("retriever")
            if schedule is not None:
                # Installs query-time faults on the dense half in place.
                FlakyRetriever(bundle.retriever, schedule)
        return bundle

    def _publish_index(self, index) -> int:
        """Durably publish a frozen index through the store's journal."""
        tables = {
            table.name: stable_table_fingerprint(table) for table in self.lake.tables()
        }
        return self.store.publish(index, tables=tables)

    def _open_knowledge(self) -> DocumentDatabase:
        """The knowledge store, recovered when persistence is attached:
        load the last atomic save, re-apply WAL-journaled captures the
        save predates, then journal every future capture."""
        if self.store is None:
            return DocumentDatabase()
        saved = self.store.root / "knowledge.json"
        knowledge = DocumentDatabase.load(saved) if saved.exists() else DocumentDatabase()
        existing = {entry.entry_id for entry in knowledge.entries()}
        for record in self.store.knowledge_records():
            if record.get("id") in existing or not record.get("text"):
                continue
            knowledge.add(record["text"], record.get("topic", ""), record.get("author", ""))
        knowledge.recorder = self.store.knowledge_recorder()
        return knowledge

    def _build_llm(self) -> RuleLLM:
        if self._llm_factory is not None:
            llm = self._llm_factory()
        else:
            llm = build_seeker_llm(clock=SimulatedLatencyClock(self._llm_latency_factor))
        instance = next(self._llm_instances)
        if self.fault_plan is not None:
            schedule = self.fault_plan.schedule("llm")
            if schedule is not None:
                llm = FlakyLLM(llm, schedule)
        return ResilientLLM(
            llm,
            retry=self.resilience.retry,
            breaker=self.breakers["llm"],
            metrics=self.metrics,
            seed=derive_seed(self.resilience.seed, "llm-jitter", instance),
        )

    # ------------------------------------------------------------------
    # The four-call API
    # ------------------------------------------------------------------
    def open_session(self, user: str = "") -> str:
        """Start a session against the shared index; returns its id."""
        with self._registry_lock:
            if self._shutdown or self._draining:
                raise ServiceError("service is shut down")
            session_id = f"s{next(self._ids)}"
        session = SeekerSession(
            self.lake,
            llm=self._build_llm(),
            knowledge=self.knowledge,
            enable_web=False,
            user=user,
            retriever=self.retriever,
            plan_cache=self.sql_plan_cache,
            prep=self.prep,
        )
        managed = ManagedSession(session_id=session_id, session=session, user=user)
        with self._registry_lock:
            # Re-check: shutdown() may have run while the session was being
            # built, and a session registered now could never be closed.
            if self._shutdown or self._draining:
                raise ServiceError("service is shut down")
            self._sessions[session_id] = managed
        self.metrics.record_session_opened()
        return session_id

    def post_turn(
        self,
        session_id: str,
        message: str,
        wait: bool = True,
        deadline: Optional[float] = None,
    ):
        """Run one user turn on the worker pool.

        With ``wait=True`` (default) blocks and returns the
        :class:`SeekerResponse`; with ``wait=False`` returns a ``Future``
        so callers can fan out turns across sessions and join later.
        Turns posted to the same session serialize on its lock; turns on
        different sessions run in parallel.

        Admission control and deadlines: when the pending-turn queue is at
        its bound the turn is shed with :class:`ServiceOverloaded`; when a
        ``deadline`` (seconds; defaults to the service-wide setting) passes
        before the turn finishes — or before it even starts — the caller
        gets a :class:`DegradedResponse` instead of waiting forever.

        An empty or whitespace-only message is bad input: it raises
        ``ValueError`` before admission and counts as ``turns_rejected``,
        never as a failed or shed turn.
        """
        managed = self._resolve(session_id)
        if not message.strip():
            self.metrics.record_turn_rejected()
            raise ValueError("user message must be non-empty")
        deadline = deadline if deadline is not None else self._turn_deadline
        with self._admission_lock:
            if self._pending_turns >= self._max_pending:
                self.metrics.record_turn_shed()
                raise ServiceOverloaded(
                    f"{self._pending_turns} turns pending (bound {self._max_pending}); "
                    "turn shed — retry with backoff"
                )
            self._pending_turns += 1
            if self._pending_turns > self._peak_pending:
                self._peak_pending = self._pending_turns
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        try:
            future: Future = self._executor.submit(self._run_turn, managed, message, deadline_at)
        except BaseException:
            with self._admission_lock:
                self._pending_turns -= 1
            raise
        if not wait:
            return future
        if deadline is None:
            return future.result()
        try:
            return future.result(timeout=deadline)
        except FutureTimeoutError:
            self.metrics.record_turn_degraded()
            return DegradedResponse(
                session_id=session_id,
                reason="deadline",
                message=(
                    f"This turn exceeded its {deadline:g}s deadline and is still "
                    "processing in the background; please check back."
                ),
                pending=future,
            )

    def batch_retrieve(
        self, queries: Sequence[str], k_tables: int = 6, k_other: int = 2
    ) -> List[RetrievalResult]:
        """Answer N discovery queries in one pass over the shared index.

        Equivalent to N sequential ``IRSystem.retrieve`` calls (same
        documents, same order); used by sessionless callers — dashboards,
        prefetchers, evaluation sweeps.
        """
        results = self.ir.retrieve_batch(queries, k_tables=k_tables, k_other=k_other)
        self.metrics.record_batch_queries(len(results))
        return results

    def close_session(self, session_id: str) -> SessionSummary:
        """End a session (waits for its in-flight turn) and summarize it."""
        with self._registry_lock:
            if self._shutdown:
                raise ServiceError("service is shut down")
            # Pop atomically so exactly one concurrent closer wins.
            managed = self._sessions.pop(session_id, None)
        if managed is None:
            raise ServiceError(f"unknown or closed session {session_id!r}")
        with managed.lock:  # wait out any in-flight turn, then seal
            managed.closed = True
        self.metrics.record_session_closed()
        usage = managed.session.llm.ledger.total()
        return SessionSummary(
            session_id=session_id,
            user=managed.user,
            turns=managed.turns,
            virtual_seconds=managed.session.llm.clock.now,
            prompt_tokens=usage.prompt_tokens,
            completion_tokens=usage.completion_tokens,
        )

    # ------------------------------------------------------------------
    # Zero-downtime reindex
    # ------------------------------------------------------------------
    def reindex(self, drain: bool = True) -> Dict[str, Any]:
        """Snapshot-swap reindex: rebuild the shared index over the lake's
        current contents and atomically publish it, without pausing
        traffic.

        The fresh bundle is built in the background off the previous
        bundle's narration/embedding caches (unchanged tables cost one
        fingerprint pass), then swapped in through the index gate: new
        searches see the new index immediately, searches already running
        finish on the old one, and with ``drain=True`` this call returns
        only after the old generation is provably idle.
        """
        with self._reindex_lock:
            with self._registry_lock:
                if self._shutdown:
                    raise ServiceError("service is shut down")
            trace = (
                self.tracer.start_trace("reindex", drain=drain)
                if self.tracer is not None
                else nullcontext()
            )
            with trace:
                current = self._gate.current
                build_started = time.perf_counter()
                with obs.span("reindex.build"):
                    bundle = self._build_bundle(
                        narrations=current.narrations, embedder=current.embedder
                    )
                build_seconds = time.perf_counter() - build_started
                swap_started = time.perf_counter()
                with obs.span("reindex.swap"):
                    self._gate.swap(bundle, drain=drain)
                swap_seconds = time.perf_counter() - swap_started
                self.metrics.record_reindex()
                report = {
                    "build_report": dict(bundle.build_report),
                    "build_seconds": build_seconds,
                    "swap_seconds": swap_seconds,
                    "drained": drain,
                    "generation": self._gate.generation,
                    "index_size": len(bundle.retriever.index),
                }
                if self.store is not None:
                    # Swap first, publish second: readers get the new index at
                    # memory speed, and a crash mid-publish leaves the previous
                    # durable snapshot intact (the WAL record is what commits).
                    report["published_generation"] = self._publish_index(bundle.retriever.index)
                return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shared(self) -> SharedIndexBundle:
        """The currently-published index bundle (changes on reindex)."""
        return self._gate.current

    def open_session_count(self) -> int:
        with self._registry_lock:
            return len(self._sessions)

    def stats(self) -> Dict[str, Any]:
        """Serving counters, latency percentiles, and cache hit rates."""
        snapshot = self.metrics.snapshot()
        snapshot["open_sessions"] = self.open_session_count()
        snapshot["index_size"] = len(self.shared.retriever.index)
        snapshot["caches"] = self.shared.cache_stats()
        # Retrieval-kernel view: which kernel serves the shared index,
        # whether freeze() compiled it, and the fusion-depth knob — the
        # fusion-pool/latency trade-off is tuned per service and must be
        # observable next to the latency percentiles it moves.
        snapshot["retrieval"] = self.shared.retriever.index.kernel_stats()
        snapshot["knowledge_entries"] = len(self.knowledge)
        # All serving-side SQL — lake queries and every session's
        # materialized scratch database — shares one plan cache; its
        # hit/miss/eviction counters aggregate across sessions.
        snapshot["sql_plan_cache"] = self.sql_plan_cache.stats()
        # The preparation pipeline's accounting: profile-store hit/miss
        # (fingerprint cache, NarrationCache idiom) plus discovery and
        # seeded-materialization counters.
        snapshot["profile_store"] = self.profile_store.stats()
        snapshot["prep"] = self.prep.stats()
        # Resilience accounting: admission-queue pressure, breaker states,
        # index generation, and (when injecting) the fault plan's totals.
        with self._admission_lock:
            snapshot["admission"] = {
                "pending_turns": self._pending_turns,
                "peak_pending_turns": self._peak_pending,
                "max_pending_turns": self._max_pending,
                "turn_deadline_seconds": self._turn_deadline,
            }
        snapshot["breakers"] = {name: b.stats() for name, b in self.breakers.items()}
        snapshot["index_gate"] = self._gate.stats()
        if self.store is not None:
            storage = self.store.stats()
            storage["warm_start"] = self.warm_started
            snapshot["storage"] = storage
        if self.fault_plan is not None:
            snapshot["faults"] = self.fault_plan.stats()
        if self.tracer is not None:
            snapshot["obs"] = {
                "tracer": self.tracer.stats(),
                "slow_turns": self.slow_turns.stats(),
            }
        return snapshot

    def metrics_text(self) -> str:
        """The service's metrics in Prometheus text exposition format."""
        return render_prometheus(self.metrics.registry)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve(self, session_id: str) -> ManagedSession:
        with self._registry_lock:
            if self._shutdown:
                raise ServiceError("service is shut down")
            managed = self._sessions.get(session_id)
        if managed is None or managed.closed:
            raise ServiceError(f"unknown or closed session {session_id!r}")
        return managed

    def _run_turn(
        self, managed: ManagedSession, message: str, deadline_at: Optional[float]
    ) -> SeekerResponse:
        if self.tracer is None:
            return self._serve_turn(managed, message, deadline_at)
        # Root the turn's trace on this worker thread: every span the
        # retrieval/SQL/LLM/storage layers open below nests under it.
        root = self.tracer.start_trace("turn", session=managed.session_id, user=managed.user)
        outcome = "failed"
        try:
            with root:
                response = self._serve_turn(managed, message, deadline_at)
                if isinstance(response, DegradedResponse):
                    outcome = "shed" if response.reason == "queue-deadline" else "degraded"
                elif getattr(response, "degraded", False):
                    outcome = "degraded"
                else:
                    outcome = "ok"
                return response
        finally:
            # The root is finished here (the with-block closed it), so its
            # duration is final — stamping the outcome now covers the
            # exception path too; the slow-turn log keeps anomalous trees.
            root.set_attr("outcome", outcome)
            self.slow_turns.offer(root, outcome)

    def _serve_turn(
        self, managed: ManagedSession, message: str, deadline_at: Optional[float]
    ) -> SeekerResponse:
        try:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                # The deadline passed while the turn sat in the queue:
                # shed it instead of burning a worker on a dead turn.
                self.metrics.record_turn_shed()
                return DegradedResponse(
                    session_id=managed.session_id,
                    reason="queue-deadline",
                    message=(
                        "The service shed this turn: its deadline passed "
                        "while it was queued behind other work."
                    ),
                )
            with managed.lock:
                if managed.closed:
                    raise ServiceError(f"session {managed.session_id!r} closed mid-flight")
                started = time.perf_counter()
                response = managed.session.submit(message)
                managed.turns += 1
        except BaseException:
            self.metrics.record_turn_failed()
            raise
        finally:
            with self._admission_lock:
                self._pending_turns -= 1
        if response.degraded:
            self.metrics.record_turn_degraded()
        self.metrics.record_turn(time.perf_counter() - started)
        return response
