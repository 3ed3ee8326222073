"""Admission control, deadlines, graceful drain, and error propagation."""

import threading
import time

import pytest

from repro.core import build_seeker_llm
from repro.datasets import build_procurement_lake
from repro.llm.interface import ContextLengthExceeded, ModelLimits
from repro.service import (
    DegradedResponse,
    FaultPlan,
    FaultSpec,
    PneumaService,
    ResilienceConfig,
    ServiceError,
    ServiceOverloaded,
)

QUESTION = "What is the total purchase order cost impact of the new tariffs by supplier?"


@pytest.fixture
def lake():
    return build_procurement_lake()


class GatedLLM:
    """A real seeker LLM whose calls block until ``gate`` is set —
    lets tests hold turns in flight for as long as they need."""

    def __init__(self, gate: threading.Event):
        self._inner = build_seeker_llm()
        self._gate = gate

    def complete(self, prompt: str, component: str = "") -> str:
        self._gate.wait(timeout=30)
        return self._inner.complete(prompt, component)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestAdmissionControl:
    def test_overload_sheds_with_service_overloaded(self, lake):
        gate = threading.Event()
        service = PneumaService(
            lake,
            max_workers=1,
            llm_factory=lambda: GatedLLM(gate),
            resilience=ResilienceConfig(max_pending_turns=2),
        )
        try:
            sid = service.open_session()
            futures = [service.post_turn(sid, QUESTION, wait=False) for _ in range(2)]
            with pytest.raises(ServiceOverloaded):
                service.post_turn(sid, QUESTION)
            gate.set()
            for future in futures:
                assert future.result(timeout=30).message
            stats = service.stats()
            assert stats["turns_shed"] == 1
            assert stats["admission"]["peak_pending_turns"] == 2
            assert stats["admission"]["max_pending_turns"] == 2
            assert stats["admission"]["pending_turns"] == 0
        finally:
            gate.set()
            service.shutdown()

    def test_overloaded_is_a_service_error(self):
        assert issubclass(ServiceOverloaded, ServiceError)

    def test_pending_count_recovers_after_shed(self, lake):
        gate = threading.Event()
        gate.set()  # never actually block
        service = PneumaService(
            lake,
            max_workers=1,
            llm_factory=lambda: GatedLLM(gate),
            resilience=ResilienceConfig(max_pending_turns=1),
        )
        try:
            sid = service.open_session()
            # Serial turns never exceed a bound of 1.
            for _ in range(3):
                assert service.post_turn(sid, QUESTION).message
            assert service.stats()["turns_shed"] == 0
        finally:
            service.shutdown()


class TestBadInput:
    def test_empty_turns_are_rejected_not_failed(self, lake):
        """Every posted turn lands in exactly one bucket: served, failed,
        shed, or rejected (bad input, refused before admission)."""
        gate = threading.Event()
        service = PneumaService(
            lake,
            max_workers=1,
            llm_factory=lambda: GatedLLM(gate),
            resilience=ResilienceConfig(max_pending_turns=2),
        )
        posted = 0
        try:
            sid = service.open_session()
            futures = [service.post_turn(sid, QUESTION, wait=False) for _ in range(2)]
            posted += 2
            with pytest.raises(ServiceOverloaded):
                posted += 1
                service.post_turn(sid, QUESTION)
            # A full queue does not matter: bad input is refused first.
            for message in ("", "   \n\t"):
                with pytest.raises(ValueError):
                    posted += 1
                    service.post_turn(sid, message)
            gate.set()
            for future in futures:
                assert future.result(timeout=30).message
            posted += 1
            assert service.post_turn(sid, QUESTION).message
            with pytest.raises(ValueError):
                posted += 1
                service.post_turn(sid, " ", wait=False)
            stats = service.stats()
            assert stats["turns_rejected"] == 3
            assert stats["turns_failed"] == 0
            assert stats["turns_shed"] == 1
            assert stats["turns_served"] == 3
            assert (
                stats["turns_served"]
                + stats["turns_failed"]
                + stats["turns_shed"]
                + stats["turns_rejected"]
            ) == posted
            assert stats["admission"]["pending_turns"] == 0
            assert "pneuma_turns_rejected_total 3" in service.metrics_text()
        finally:
            gate.set()
            service.shutdown()


class TestDeadlines:
    def test_deadline_returns_degraded_response_with_pending(self, lake):
        gate = threading.Event()
        service = PneumaService(lake, max_workers=1, llm_factory=lambda: GatedLLM(gate))
        try:
            sid = service.open_session()
            response = service.post_turn(sid, QUESTION, deadline=0.05)
            assert isinstance(response, DegradedResponse)
            assert response.reason == "deadline"
            assert response.degraded is True
            assert response.session_id == sid
            assert "deadline" in response.render()
            # The turn keeps running; the caller can still join it late.
            gate.set()
            late = response.pending.result(timeout=30)
            assert late.message
            assert service.stats()["turns_degraded"] == 1
        finally:
            gate.set()
            service.shutdown()

    def test_queue_deadline_sheds_stale_turns(self, lake):
        gate = threading.Event()
        service = PneumaService(lake, max_workers=1, llm_factory=lambda: GatedLLM(gate))
        try:
            first_sid = service.open_session()
            second_sid = service.open_session()
            blocker = service.post_turn(first_sid, QUESTION, wait=False)
            # Queued behind the blocked worker with an already-short deadline.
            stale = service.post_turn(second_sid, QUESTION, wait=False, deadline=0.05)
            time.sleep(0.2)
            gate.set()
            assert blocker.result(timeout=30).message
            shed = stale.result(timeout=30)
            assert isinstance(shed, DegradedResponse)
            assert shed.reason == "queue-deadline"
            assert service.stats()["turns_shed"] == 1
        finally:
            gate.set()
            service.shutdown()

    def test_service_wide_deadline_from_config(self, lake):
        gate = threading.Event()
        service = PneumaService(
            lake,
            max_workers=1,
            llm_factory=lambda: GatedLLM(gate),
            resilience=ResilienceConfig(turn_deadline_seconds=0.05),
        )
        try:
            sid = service.open_session()
            response = service.post_turn(sid, QUESTION)
            assert isinstance(response, DegradedResponse)
            assert service.stats()["admission"]["turn_deadline_seconds"] == 0.05
        finally:
            gate.set()
            service.shutdown()

    def test_no_deadline_waits_to_completion(self, lake):
        with PneumaService(lake, max_workers=1) as service:
            sid = service.open_session()
            assert service.post_turn(sid, QUESTION).message


class TestContextLengthPropagation:
    """ContextLengthExceeded crosses the pool unchanged (satellite)."""

    def overflow_service(self, lake):
        return PneumaService(
            lake,
            max_workers=2,
            llm_factory=lambda: build_seeker_llm(limits=ModelLimits(context_tokens=10)),
        )

    def test_wait_true_raises_in_caller(self, lake):
        with self.overflow_service(lake) as service:
            sid = service.open_session()
            with pytest.raises(ContextLengthExceeded):
                service.post_turn(sid, QUESTION)
            assert service.stats()["turns_failed"] == 1

    def test_future_path_raises_on_result(self, lake):
        with self.overflow_service(lake) as service:
            sid = service.open_session()
            future = service.post_turn(sid, QUESTION, wait=False)
            with pytest.raises(ContextLengthExceeded):
                future.result(timeout=30)
            assert service.stats()["turns_failed"] == 1
            # The failed turn released its admission slot.
            assert service.stats()["admission"]["pending_turns"] == 0

    def test_session_survives_an_overflow_turn(self, lake):
        with self.overflow_service(lake) as service:
            sid = service.open_session()
            with pytest.raises(ContextLengthExceeded):
                service.post_turn(sid, QUESTION)
            summary = service.close_session(sid)
            assert summary.turns == 0


class TestDegradedRetrieval:
    def test_vector_outage_serves_bm25_and_flags_the_turn(self, lake):
        plan = FaultPlan(seed=3, retriever=FaultSpec(outages=((1, 10_000),)))
        with PneumaService(lake, max_workers=2, fault_plan=plan) as service:
            sid = service.open_session()
            response = service.post_turn(sid, QUESTION)
            # The turn succeeded on the lexical half and says so.
            assert response.message
            assert response.degraded is True
            stats = service.stats()
            assert stats["degraded_retrievals"] >= 1
            assert stats["turns_degraded"] >= 1

    def test_breaker_opens_and_stops_probing_the_dense_half(self, lake):
        plan = FaultPlan(seed=3, retriever=FaultSpec(outages=((1, 10_000),)))
        with PneumaService(lake, max_workers=2, fault_plan=plan) as service:
            sid = service.open_session()
            for _ in range(6):
                service.post_turn(sid, QUESTION)
            assert service.breakers["vector"].state == "open"
            faults = service.stats()["faults"]["retriever"]
            # Once open, searches skip the embedder: fault count plateaus
            # at the breaker threshold instead of growing per turn.
            assert faults["faults"] == service.breakers["vector"].failure_threshold
            transitions = service.stats()["breaker_transitions"]
            assert transitions.get("vector:closed->open", 0) >= 1

    def test_healthy_service_flags_nothing(self, lake):
        with PneumaService(lake, max_workers=2) as service:
            sid = service.open_session()
            response = service.post_turn(sid, QUESTION)
            assert response.degraded is False
            stats = service.stats()
            assert stats["degraded_retrievals"] == 0
            assert stats["turns_degraded"] == 0
            assert stats["breakers"]["vector"]["state"] == "closed"


class TestDrainShutdown:
    def test_drain_closes_and_summarizes_sessions(self, lake):
        service = PneumaService(lake, max_workers=2)
        first = service.open_session(user="a")
        second = service.open_session(user="b")
        service.post_turn(first, QUESTION)
        summaries = service.shutdown(drain=True)
        assert {s.session_id for s in summaries} == {first, second}
        by_id = {s.session_id: s for s in summaries}
        assert by_id[first].turns == 1
        assert by_id[second].turns == 0
        assert service.open_session_count() == 0
        assert service.stats()["sessions_closed"] == 2

    def test_drain_waits_out_inflight_turns(self, lake):
        gate = threading.Event()
        service = PneumaService(lake, max_workers=1, llm_factory=lambda: GatedLLM(gate))
        sid = service.open_session()
        future = service.post_turn(sid, QUESTION, wait=False)
        threading.Timer(0.2, gate.set).start()
        summaries = service.shutdown(drain=True)
        # The in-flight turn finished before its session was summarized.
        assert summaries[0].turns == 1
        assert future.result(timeout=5).message

    def test_shutdown_without_drain_returns_nothing(self, lake):
        service = PneumaService(lake, max_workers=1)
        service.open_session()
        assert service.shutdown() == []

    def test_drained_service_rejects_everything(self, lake):
        service = PneumaService(lake, max_workers=1)
        sid = service.open_session()
        service.shutdown(drain=True)
        with pytest.raises(ServiceError):
            service.open_session()
        with pytest.raises(ServiceError):
            service.post_turn(sid, QUESTION)
        with pytest.raises(ServiceError):
            service.close_session(sid)
