"""Per-layer metrics of a traced run, folded from a :class:`LayerTimer`.

Conventions (the README's metric table spells each one out):

* ``<layer>.self_ms`` of a read-path layer is self time per operation --
  per turn on the chat workloads, per query on ``discover-churn``;
* ``prep.join_candidates``, ``storage.*`` and ``setup.*`` are per call of
  their entry point; ``reindex.*`` is per ``reindex()`` call;
* ``<group>.share_pct`` is the group's share of operation wall time;
  ``service`` is the queueing around a turn, ``other`` the wall time no
  wrapper covers, and the shares of one workload sum to 100;
* ratios are hits over lookups (the base is printed next to them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from common import describe_ratio, ratio
from layers import LayerTimer

#: The groups whose share of operation wall time is reported.
SHARE_GROUPS = (
    "llm", "core", "relational", "prep", "ir", "retriever", "text", "ann",
    "storage", "service", "other",
)
REINDEX_GROUPS = ("retriever", "text", "ann", "storage", "prep", "other")
SETUP_GROUPS = ("prep", "retriever", "text", "ann", "storage", "relational", "other")

#: Per-op read-path layers: metric name -> layer.
PER_OP_LAYERS = {
    "llm.conductor.self_ms": "llm.conductor",
    "llm.materializer.self_ms": "llm.materializer",
    "core.conductor.self_ms": "core.conductor",
    "core.materializer.self_ms": "core.materializer",
    "core.interpreter.self_ms": "core.interpreter",
    "relational.plan.self_ms": "relational.plan",
    "relational.run.self_ms": "relational.run",
    "prep.prepare.self_ms": "prep.prepare",
    "ir.retrieve.self_ms": "ir.retrieve",
    "ir.docdb.self_ms": "ir.docdb",
    "retriever.search.self_ms": "retriever.search",
    "retriever.fusion.self_ms": "retriever.fusion",
    "text.bm25.self_ms": "text.bm25",
    "text.embed.self_ms": "text.embed",
    "ann.hnsw.self_ms": "ann.hnsw",
}
#: Per-call entry points, whichever role they ran under.
PER_CALL_LAYERS = {
    "prep.join_candidates.self_ms": "prep.join_candidates",
    "storage.publish.self_ms": "storage.publish",
    "storage.checkpoint.self_ms": "storage.checkpoint",
    "storage.load_index.self_ms": "storage.load_index",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "op.wall_ms": "ms",
        "llm.conductor.calls": "count",
        "llm.materializer.calls": "count",
        "llm.prompt_tokens": "count",
        "llm.completion_tokens": "count",
        "core.materializer.seeded_ratio": "ratio",
        "core.materializer.attempts_per_call": "count",
        "core.interpreter.error_ratio": "ratio",
        "relational.plan_cache_hit_ratio": "ratio",
        "prep.profile_hit_ratio": "ratio",
        "text.tokenize_hit_ratio": "ratio",
        "retriever.embed_hit_ratio": "ratio",
        "retriever.narration_hit_ratio": "ratio",
        "service.queue_ms": "ms",
        "service.reindex.build_s": "s",
        "service.reindex.swap_s": "s",
        "storage.bytes_written": "bytes",
        "storage.journal_appends": "count",
        "other.self_ms": "ms",
        "trace.overhead_pct": "%",
        "xcheck.llm_gap_pct": "%",
        "xcheck.sql_gap_pct": "%",
    }
    units.update({name: "ms" for name in PER_OP_LAYERS})
    units.update({name: "ms" for name in PER_CALL_LAYERS})
    units.update({f"{group}.share_pct": "%" for group in SHARE_GROUPS})
    units.update({f"reindex.{group}.self_ms": "ms" for group in REINDEX_GROUPS})
    units.update({f"setup.{group}.self_ms": "ms" for group in SETUP_GROUPS})
    return units


@dataclass
class CacheCounters:
    """Hit/lookup pairs read from public surfaces after a traced phase."""

    plan_cache: Tuple[int, int] = (0, 0)
    profile_store: Tuple[int, int] = (0, 0)
    narration: Tuple[int, int] = (0, 0)
    embedding: Tuple[int, int] = (0, 0)
    tokenize: Tuple[int, int] = (0, 0)
    seeded_materializations: int = 0

    @staticmethod
    def _pair(counters: Dict[str, int]) -> Tuple[int, int]:
        return counters["hits"], counters["hits"] + counters["misses"]

    def add_service(self, stats: Dict[str, Any]) -> None:
        """Fold in one ``PneumaService.stats()`` snapshot."""

        def plus(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
            return a[0] + b[0], a[1] + b[1]

        self.plan_cache = plus(self.plan_cache, self._pair(stats["sql_plan_cache"]))
        self.profile_store = plus(self.profile_store, self._pair(stats["profile_store"]))
        self.narration = plus(self.narration, self._pair(stats["caches"]["narration"]))
        self.embedding = plus(self.embedding, self._pair(stats["caches"]["embedding"]))
        self.seeded_materializations += stats["prep"]["plans_executed"]

    def add_tokenize(self, before: Dict[str, int], after: Dict[str, int]) -> None:
        """Fold in the tokenizer memo's counters across one traced span."""
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        self.tokenize = (self.tokenize[0] + hits, self.tokenize[1] + lookups)

    def describe(self) -> List[str]:
        return [
            f"sql plan cache hit ratio {describe_ratio(*self.plan_cache)}",
            f"profile store hit ratio {describe_ratio(*self.profile_store)}",
            f"narration cache hit ratio {describe_ratio(*self.narration)}",
            f"embedding cache hit ratio {describe_ratio(*self.embedding)}",
            f"tokenize memo hit ratio {describe_ratio(*self.tokenize)}",
            f"seeded materializations {self.seeded_materializations}",
        ]


@dataclass
class TracedPhase:
    """What a traced phase hands to :func:`layer_metrics`."""

    timer: LayerTimer
    op_role: str  # 'turn' | 'query'
    caches: CacheCounters
    overhead_pct: float
    prompt_tokens: int = 0
    completion_tokens: int = 0
    reindex_build_s: float = 0.0
    reindex_swap_s: float = 0.0
    xcheck_llm_gap_pct: float = 0.0
    xcheck_sql_gap_pct: float = 0.0


def _op_boundary(op_role: str) -> Tuple[str, Optional[str]]:
    """(layer whose self time is ``other``, client-side wall layer)."""
    if op_role == "turn":
        return "session.submit", "service.post_turn"
    return "service.batch_retrieve", None


def layer_metrics(phase: TracedPhase) -> Dict[str, float]:
    timer, role = phase.timer, phase.op_role
    boundary, client_layer = _op_boundary(role)
    inner = timer.stat(role, boundary)
    ops = inner.calls
    # Turns are timed from the client (post_turn, which includes the
    # service's queueing); queries run on the caller's thread.
    wall_s = timer.stat("client", client_layer).total_s if client_layer else inner.total_s
    queue_s = wall_s - inner.total_s if client_layer else 0.0

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / ops if ops else 0.0

    def share(seconds: float) -> float:
        return 100.0 * seconds / wall_s if wall_s else 0.0

    values: Dict[str, float] = {name: 0.0 for name in metric_units()}
    values["op.wall_ms"] = per_op_ms(wall_s)
    for name, layer in PER_OP_LAYERS.items():
        values[name] = per_op_ms(timer.stat(role, layer).self_s)
    for name, layer in PER_CALL_LAYERS.items():
        stats = [s for (r, l), s in timer.stats.items() if l == layer]
        calls = sum(s.calls for s in stats)
        values[name] = 1000.0 * sum(s.self_s for s in stats) / calls if calls else 0.0

    for component in ("conductor", "materializer"):
        calls = timer.stat(role, f"llm.{component}").calls
        values[f"llm.{component}.calls"] = calls / ops if ops else 0.0
    if role == "turn" and ops:
        values["llm.prompt_tokens"] = phase.prompt_tokens / ops
        values["llm.completion_tokens"] = phase.completion_tokens / ops

    materialize = timer.stat(role, "core.materializer")
    values["core.materializer.seeded_ratio"] = ratio(
        timer.counters["core.materializer.seeded"], materialize.calls
    )
    values["core.materializer.attempts_per_call"] = ratio(
        timer.counters["core.materializer.attempts"], materialize.calls
    )
    interpreter = timer.stat(role, "core.interpreter")
    values["core.interpreter.error_ratio"] = ratio(interpreter.errors, interpreter.calls)

    caches = phase.caches
    values["relational.plan_cache_hit_ratio"] = ratio(*caches.plan_cache)
    values["prep.profile_hit_ratio"] = ratio(*caches.profile_store)
    values["text.tokenize_hit_ratio"] = ratio(*caches.tokenize)
    values["retriever.embed_hit_ratio"] = ratio(*caches.embedding)
    values["retriever.narration_hit_ratio"] = ratio(*caches.narration)

    values["service.queue_ms"] = per_op_ms(queue_s)
    values["service.reindex.build_s"] = phase.reindex_build_s
    values["service.reindex.swap_s"] = phase.reindex_swap_s
    values["storage.bytes_written"] = float(timer.counters["storage.bytes_written"])
    values["storage.journal_appends"] = float(timer.counters["storage.journal_appends"])

    other_s = inner.self_s
    values["other.self_ms"] = per_op_ms(other_s)
    groups = timer.group_self(role)
    groups["service"] = queue_s
    groups["other"] = other_s
    for group in SHARE_GROUPS:
        values[f"{group}.share_pct"] = share(groups.get(group, 0.0))

    for role_name, boundary_layer, names in (
        ("reindex", "service.reindex", REINDEX_GROUPS),
        ("setup", "service.setup", SETUP_GROUPS),
    ):
        calls = timer.stat(role_name, boundary_layer).calls
        folded = timer.group_self(role_name, exclude=(boundary_layer,))
        folded["other"] = timer.stat(role_name, boundary_layer).self_s
        for group in names:
            seconds = folded.get(group, 0.0)
            values[f"{role_name}.{group}.self_ms"] = 1000.0 * seconds / calls if calls else 0.0

    values["trace.overhead_pct"] = phase.overhead_pct
    values["xcheck.llm_gap_pct"] = phase.xcheck_llm_gap_pct
    values["xcheck.sql_gap_pct"] = phase.xcheck_sql_gap_pct
    return values


def shares_line(values: Dict[str, float]) -> str:
    parts = [
        f"{group} {values[f'{group}.share_pct']:.1f}%"
        for group in sorted(SHARE_GROUPS, key=lambda g: -values[f"{g}.share_pct"])
        if values[f"{group}.share_pct"] >= 0.05
    ]
    return ", ".join(parts)
