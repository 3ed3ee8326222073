"""Serving metrics: a facade over the labeled observability registry.

``ServiceMetrics`` keeps the exact recording surface and ``snapshot()``
shape the throughput/resilience benchmarks and ``stats()`` always read,
but every number now lives in a :class:`repro.obs.MetricsRegistry` —
typed counter/gauge/histogram families with Prometheus-text and JSON
exposition (``PneumaService.metrics_text()``).

Hot-path cost is unchanged: each ``record_*`` method calls one cached
registry child, which is a single striped-lock increment.  Turn latency
is a registry histogram whose bounded raw-sample reservoir uses the same
drop-oldest-half trimming as before, so percentiles in ``snapshot()``
stay bit-compatible.

Beyond the happy-path counters, every failure mode the resilience layer
handles is observable: ``turns_failed`` (exceptions escaped the turn),
``turns_shed`` (admission control refused or a queued turn's deadline
expired), ``turns_rejected`` (bad input refused before admission — never
counted as a failure), ``turns_degraded`` (served, but on a degraded path),
``retries``, ``degraded_retrievals``, ``reindex_swaps``, and per-edge
circuit-breaker transition counts (a labeled counter in the registry,
re-keyed ``"llm:closed->open"`` in the snapshot).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.registry import MetricsRegistry, percentile, percentile_sorted

__all__ = ["ServiceMetrics", "percentile", "percentile_sorted"]


class ServiceMetrics:
    """Thread-safe counters + latency samples for one PneumaService."""

    def __init__(self, max_samples: int = 10_000, registry: Optional[MetricsRegistry] = None):
        self.max_samples = max_samples
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._sessions_opened = r.counter("pneuma_sessions_opened", "Sessions opened.")
        self._sessions_closed = r.counter("pneuma_sessions_closed", "Sessions closed.")
        self._batch_queries = r.counter(
            "pneuma_batch_queries", "Queries submitted through batch retrieval APIs."
        )
        self._turns_failed = r.counter(
            "pneuma_turns_failed", "Turns where an exception escaped the turn."
        )
        self._turns_shed = r.counter(
            "pneuma_turns_shed", "Turns refused by admission control or expired while queued."
        )
        self._turns_rejected = r.counter(
            "pneuma_turns_rejected", "Turns refused as bad input before admission."
        )
        self._turns_degraded = r.counter(
            "pneuma_turns_degraded", "Turns served on a degraded path."
        )
        self._retries = r.counter("pneuma_retries", "Dependency calls retried after a fault.")
        self._degraded_retrievals = r.counter(
            "pneuma_degraded_retrievals", "Retrievals served BM25-only (dense half unavailable)."
        )
        self._reindex_swaps = r.counter(
            "pneuma_reindex_swaps", "Zero-downtime index snapshot swaps."
        )
        self._breaker_transitions = r.counter(
            "pneuma_breaker_transitions",
            "Circuit-breaker state transitions per dependency edge.",
            labels=("dependency", "from_state", "to_state"),
        )
        # Turn count == histogram count, so serving a turn is one lock
        # acquire; the reservoir feeds the snapshot percentiles.
        self._turn_seconds = r.histogram(
            "pneuma_turn_seconds", "End-to-end turn latency.", max_samples=max_samples
        )

    # ------------------------------------------------------------------
    def record_session_opened(self) -> None:
        self._sessions_opened.inc()

    def record_session_closed(self) -> None:
        self._sessions_closed.inc()

    def record_turn(self, seconds: float) -> None:
        self._turn_seconds.observe(seconds)

    def record_batch_queries(self, n: int) -> None:
        self._batch_queries.inc(n)

    def record_turn_failed(self) -> None:
        self._turns_failed.inc()

    def record_turn_shed(self) -> None:
        self._turns_shed.inc()

    def record_turn_rejected(self) -> None:
        self._turns_rejected.inc()

    def record_turn_degraded(self) -> None:
        self._turns_degraded.inc()

    def record_retry(self) -> None:
        self._retries.inc()

    def record_degraded_retrieval(self) -> None:
        self._degraded_retrievals.inc()

    def record_reindex(self) -> None:
        self._reindex_swaps.inc()

    def record_breaker_transition(self, dependency: str, old: str, new: str) -> None:
        """Count one circuit-breaker edge, labeled (dependency, old, new)."""
        self._breaker_transitions.labels(dependency, old, new).inc()

    # ------------------------------------------------------------------
    def turn_latency(self, p: float) -> float:
        # One copy under the histogram's lock, one in-place sort outside.
        samples = self._turn_seconds._default().samples()
        samples.sort()
        return percentile_sorted(samples, p)

    def snapshot(self) -> Dict[str, Any]:
        turn_child = self._turn_seconds._default()
        samples = turn_child.samples()
        counts: Dict[str, Any] = {
            "sessions_opened": int(self._sessions_opened.value),
            "sessions_closed": int(self._sessions_closed.value),
            "turns_served": turn_child.count,
            "batch_queries": int(self._batch_queries.value),
            "turns_failed": int(self._turns_failed.value),
            "turns_shed": int(self._turns_shed.value),
            "turns_rejected": int(self._turns_rejected.value),
            "turns_degraded": int(self._turns_degraded.value),
            "retries": int(self._retries.value),
            "degraded_retrievals": int(self._degraded_retrievals.value),
            "reindex_swaps": int(self._reindex_swaps.value),
            "breaker_transitions": {
                f"{dep}:{old}->{new}": int(child.value)
                for (dep, old, new), child in self._breaker_transitions.items()
            },
        }
        # One sort serves every percentile of this snapshot.
        samples.sort()
        counts["turn_p50_seconds"] = percentile_sorted(samples, 50.0)
        counts["turn_p95_seconds"] = percentile_sorted(samples, 95.0)
        counts["turn_p99_seconds"] = percentile_sorted(samples, 99.0)
        counts["turn_mean_seconds"] = sum(samples) / len(samples) if samples else 0.0
        return counts
