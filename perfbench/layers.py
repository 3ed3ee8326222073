"""Outside-in layer timer for the traced benchmark run.

The benchmark measures layers from its own files: :class:`LayerTimer`
replaces the public entry points of each layer (``RuleLLM.complete``,
``Conductor.handle_turn``, ``HybridIndex.search_batch``, ...) with thin
wrappers for the duration of a ``with`` block and restores them on exit.
Nothing inside ``src/`` changes.

Each wrapper keeps a per-thread call stack, so a layer's *self* time is
its wall time minus the time its wrapped callees took -- the fold of a
span tree into exclusive time, done at the boundary.  Calls are grouped
by *role*, the outermost boundary on the calling thread:

* ``turn``     -- inside ``SeekerSession.submit`` (a service worker thread);
* ``query``    -- inside ``PneumaService.batch_retrieve``;
* ``reindex``  -- inside ``PneumaService.reindex``;
* ``setup``    -- inside ``PneumaService.__init__`` (cold or warm start);
* ``shutdown`` -- inside ``PneumaService.shutdown``;
* ``client``   -- anything else (the LLM-Sim user, ``post_turn`` waits).

A caller can also name the role of a block on its thread with
:meth:`LayerTimer.role`; the benchmark does so for the probes that check
its own outputs, so that they are not counted as workload queries.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.ann.hnsw import HNSWIndex
from repro.core.conductor import Conductor
from repro.core.interpreter import PipelineInterpreter
from repro.core.materializer import Materializer
from repro.core.session import SeekerSession
from repro.ir.docdb import DocumentDatabase
from repro.ir.system import IRSystem
from repro.llm.rule_llm import RuleLLM
from repro.prep.pipeline import PreparationPipeline
from repro.relational import catalog as relational_catalog
from repro.relational.catalog import Database
from repro.retriever.index import HybridIndex
from repro.retriever.retriever import PneumaRetriever
from repro.retriever.summarizer import NarrationCache
from repro.service.service import PneumaService
from repro.storage.delta import DeltaHybridIndex
from repro.storage.journal import Journal
from repro.storage.store import IndexStore
from repro.text.bm25 import BM25Index
from repro.text.embedding import CachedEmbedder, HashingEmbedder

#: Layers that are measurement boundaries rather than layers: their self
#: time is wall time no layer wrapper covers (``other``).
BOUNDARY_LAYERS = ("session.submit", "service.batch_retrieve")


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.attr`` reports as ``layer``.

    ``role`` makes the entry a boundary that names the role of every call
    beneath it on the same thread; ``name_of`` picks the layer name per
    call from the arguments; ``observe`` sees each return value.
    """

    owner: Any
    attr: str
    layer: str
    role: Optional[str] = None
    name_of: Optional[Callable[[tuple, dict], str]] = None
    observe: Optional[Callable[["LayerTimer", tuple, Any], None]] = None


def _llm_layer(args: tuple, kwargs: dict) -> str:
    component = kwargs.get("component", args[2] if len(args) > 2 else "")
    return f"llm.{component or 'unlabeled'}"


def _observe_materialization(timer: "LayerTimer", _args: tuple, outcome: Any) -> None:
    timer.count("core.materializer.seeded", int(bool(outcome.seeded)))
    timer.count("core.materializer.attempts", outcome.attempts)


def _observe_journal_append(timer: "LayerTimer", _args: tuple, _result: Any) -> None:
    timer.count("storage.journal_appends", 1)


def _observe_publish(timer: "LayerTimer", args: tuple, _generation: Any) -> None:
    """Bytes a publish wrote: the segment files of the new generation."""
    store = args[0]
    files = store.stats()["segments"].values()
    timer.count("storage.bytes_written", sum((store.segments_dir / f).stat().st_size for f in files))


def _observe_checkpoint(timer: "LayerTimer", args: tuple, _result: Any) -> None:
    timer.count("storage.bytes_written", args[0].manifest_path.stat().st_size)


def default_targets() -> List[Target]:
    """Every layer entry point the traced run wraps."""
    return [
        # Measurement boundaries (roles).
        Target(PneumaService, "__init__", "service.setup", role="setup"),
        Target(PneumaService, "reindex", "service.reindex", role="reindex"),
        Target(PneumaService, "shutdown", "service.shutdown", role="shutdown"),
        Target(PneumaService, "batch_retrieve", "service.batch_retrieve", role="query"),
        Target(PneumaService, "post_turn", "service.post_turn"),
        Target(SeekerSession, "submit", "session.submit", role="turn"),
        # llm: one layer per calling component.
        Target(RuleLLM, "complete", "llm", name_of=_llm_layer),
        # core
        Target(Conductor, "handle_turn", "core.conductor"),
        Target(Materializer, "materialize", "core.materializer", observe=_observe_materialization),
        Target(PipelineInterpreter, "run", "core.interpreter"),
        # relational: Database.execute's own work (normalize, plan-cache
        # lookup), parsing and planning count as plan; executing as run.
        Target(Database, "execute", "relational.plan"),
        Target(relational_catalog, "parse", "relational.plan"),
        Target(relational_catalog, "plan_select", "relational.plan"),
        Target(relational_catalog, "run_plan", "relational.run"),
        Target(relational_catalog, "execute_statement_planned", "relational.run"),
        # prep
        Target(PreparationPipeline, "join_candidates", "prep.join_candidates"),
        Target(PreparationPipeline, "union_candidates", "prep.union_candidates"),
        Target(PreparationPipeline, "compile", "prep.compile"),
        Target(PreparationPipeline, "prepare", "prep.prepare"),
        # ir
        Target(IRSystem, "retrieve", "ir.retrieve"),
        Target(IRSystem, "retrieve_batch", "ir.retrieve"),
        Target(IRSystem, "column_values", "ir.column_values"),
        Target(DocumentDatabase, "search", "ir.docdb"),
        # retriever: search_batch's self time is building document payloads;
        # HybridIndex.search_batch's is rank fusion.
        Target(PneumaRetriever, "search_batch", "retriever.search"),
        Target(HybridIndex, "search_batch", "retriever.fusion"),
        Target(DeltaHybridIndex, "search_batch", "retriever.fusion"),
        Target(PneumaRetriever, "reindex", "retriever.build"),
        Target(NarrationCache, "narrate", "retriever.narrate"),
        Target(HybridIndex, "add_batch", "retriever.build"),
        Target(HybridIndex, "freeze", "retriever.build"),
        # text / ann
        Target(BM25Index, "search_slots", "text.bm25"),
        Target(BM25Index, "search_batch", "text.bm25"),
        Target(BM25Index, "add", "text.bm25_build"),
        Target(BM25Index, "compile", "text.bm25_build"),
        # The memo's per-text ``embed`` runs ~10^5 times per pass inside the
        # rule policy (cache hits); wrapping it would cost more than it
        # measures, so only batches and actual (missed) computations count.
        Target(CachedEmbedder, "embed_batch", "text.embed"),
        Target(HashingEmbedder, "embed", "text.embed"),
        Target(HNSWIndex, "search_batch_ids", "ann.hnsw"),
        Target(HNSWIndex, "search_batch", "ann.hnsw"),
        Target(HNSWIndex, "add", "ann.hnsw_build"),
        Target(HNSWIndex, "update", "ann.hnsw_build"),
        Target(HNSWIndex, "compile", "ann.hnsw_build"),
        # storage
        Target(IndexStore, "__init__", "storage.open"),
        Target(IndexStore, "publish", "storage.publish", observe=_observe_publish),
        Target(IndexStore, "checkpoint", "storage.checkpoint", observe=_observe_checkpoint),
        Target(IndexStore, "load_index", "storage.load_index"),
        Target(Journal, "append", "storage.journal", observe=_observe_journal_append),
    ]


class LayerTimer:
    """Self-time accounting for wrapped layer entry points.

    Use as a context manager: entry installs the wrappers, exit restores
    the originals.  Totals are keyed by ``(role, layer)``.
    """

    def __init__(self, targets: Optional[List[Target]] = None):
        self.targets = targets if targets is not None else default_targets()
        self.stats: Dict[Tuple[str, str], LayerStat] = defaultdict(LayerStat)
        self.counters: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "LayerTimer":
        for target in self.targets:
            original = target.owner.__dict__[target.attr]  # own attribute only
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording -------------------------------------------------------
    @contextmanager
    def role(self, name: str) -> Iterator[None]:
        """Attribute the calls made inside the block on this thread to
        ``name``, unless an outer boundary already names their role."""
        roles = self._thread_state().roles
        roles.append(name)
        try:
            yield
        finally:
            roles.pop()

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counters[name] += n

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # per active call: [child seconds]
            local.roles = []
        return local

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        timer = self

        def wrapper(*args, **kwargs):
            state = timer._thread_state()
            layer = target.name_of(args, kwargs) if target.name_of else target.layer
            if target.role is not None:
                state.roles.append(target.role)
            role = state.roles[0] if state.roles else "client"
            frame = [0.0]
            state.stack.append(frame)
            failed = False
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - started
                state.stack.pop()
                if state.stack:
                    state.stack[-1][0] += elapsed
                if target.role is not None:
                    state.roles.pop()
                with timer._lock:
                    stat = timer.stats[(role, layer)]
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - frame[0]
                    stat.errors += failed
            if target.observe is not None:
                target.observe(timer, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- reading ---------------------------------------------------------
    def stat(self, role: str, layer: str) -> LayerStat:
        with self._lock:
            return self.stats.get((role, layer), LayerStat())

    def group_self(self, role: str, exclude: Tuple[str, ...] = BOUNDARY_LAYERS) -> Dict[str, float]:
        """Self seconds under ``role`` folded by layer group (``llm``,
        ``core``, ...): the first component of the layer name."""
        groups: Dict[str, float] = defaultdict(float)
        with self._lock:
            for (r, layer), stat in self.stats.items():
                if r == role and layer not in exclude:
                    groups[layer.split(".", 1)[0]] += stat.self_s
        return dict(groups)
