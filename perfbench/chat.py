"""The chat workloads: LLM-Sim drives Seeker conversations through a service.

``chat-eval`` runs all 32 Figure 4/5 questions (archaeology 12 +
environment 20) at evaluation scale 0.05; ``chat-paper`` runs the 12
archaeology questions at paper scale 1.0.  Each lake gets one
``PneumaService`` (``max_workers=1``, ``llm_latency_factor=0``); each
question gets its own session, and one client closes the loop: it sends
the next LLM-Sim message only after the previous turn returned.

Sessions of one service share its Document Database, so knowledge
captured in one conversation can change a later one: the order in which
a lake's questions are asked is part of the input, and reordering them
changes how many turns the conversations take.  Each lake therefore keeps
the paper's question order; the seed only interleaves the lakes' question
streams (on ``chat-paper``, with one lake, it changes nothing).
"""

from __future__ import annotations

import functools
import gc
import importlib
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from common import Digest, fold_digests, median
from layerprofile import CacheCounters
from layers import LayerTimer
from repro.core.session import SeekerResponse, build_seeker_llm
from repro.datasets import load_archaeology, load_environment
from repro.datasets.questions import BenchmarkDataset, Question
from repro.eval.convergence_eval import build_sim_llm
from repro.llm.clock import SimulatedLatencyClock
from repro.llm.rule_llm import RuleLLM
from repro.service import ObservabilityConfig, PneumaService
from repro.sim.runner import SimulationRunner
from repro.text.tokenize import token_cache_stats

#: The tokenizer module (``repro.text`` re-exports a function of the same name).
tokenize_module = importlib.import_module("repro.text.tokenize")

#: workload -> the lakes it serves: (dataset loader, lake scale).
LAKES: Dict[str, Tuple[Tuple[Callable[..., BenchmarkDataset], float], ...]] = {
    "chat-eval": ((load_archaeology, 0.05), (load_environment, 0.05)),
    "chat-paper": ((load_archaeology, 1.0),),
}
MAX_TURNS = 15  # the paper's turn limit per question


@dataclass
class ChatInputs:
    datasets: Dict[str, BenchmarkDataset]
    order: List[Tuple[str, Question]]  # (dataset name, question), as asked


def make_inputs(workload: str, seed: int) -> ChatInputs:
    datasets = {}
    for loader, scale in LAKES[workload]:
        dataset = loader(scale)
        datasets[dataset.name] = dataset
    rng = random.Random(f"{workload}:{seed}")
    streams = [[(name, q) for q in dataset.questions] for name, dataset in datasets.items()]
    order: List[Tuple[str, Question]] = []
    while any(streams):
        live = [stream for stream in streams if stream]
        pick = rng.choices(live, weights=[len(stream) for stream in live])[0]
        order.append(pick.pop(0))
    return ChatInputs(datasets=datasets, order=order)


class SeekerLLMFactory:
    """Builds each session's LLM exactly as the service's default does,
    and keeps it, so the benchmark can read its call ledger."""

    def __init__(self) -> None:
        self.built: List[RuleLLM] = []

    def __call__(self) -> RuleLLM:
        llm = build_seeker_llm(clock=SimulatedLatencyClock(0.0))
        self.built.append(llm)
        return llm


@dataclass
class PassRecord:
    """One pass over the question order."""

    turn_ms: List[float] = field(default_factory=list)
    failed: int = 0
    converged: Set[str] = field(default_factory=set)
    digests: Dict[str, str] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    llm_calls: int = 0
    virtual_s: float = 0.0
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def turns(self) -> int:
        return len(self.turn_ms) + self.failed

    @property
    def digest(self) -> str:
        return fold_digests(self.digests, self.order)

    def per_turn(self, total: float) -> float:
        return total / self.turns if self.turns else 0.0


class ServiceClient:
    """The system LLM-Sim talks to: one session of a service.  Times each
    turn from the caller's side and checks every response."""

    kind = "seeker"
    name = "Pneuma-Seeker"

    def __init__(self, service: PneumaService, session_id: str, record: PassRecord, digest: Digest):
        self.service = service
        self.session_id = session_id
        self.record = record
        self.digest = digest

    def respond(self, message: str) -> str:
        started = time.perf_counter()
        try:
            response = self.service.post_turn(self.session_id, message)
        except Exception as exc:  # a failed turn is counted, the loop goes on
            self.record.failed += 1
            self.digest.update("failed", type(exc).__name__)
            return f"The system failed: {exc}"
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if not isinstance(response, SeekerResponse) or response.degraded:
            self.record.failed += 1
        else:
            self.record.turn_ms.append(elapsed_ms)
        self.digest.update(response.message, response.state_view)
        return response.render()


class TokenMemo:
    """A private instance of the tokenizer's memos.

    ``repro.text.tokenize`` keeps its tokenize and character-n-gram memos
    in module globals that every service of the process shares.  Work that
    must not see or change the memo of other work in the same process
    installs a ``TokenMemo`` of its own around all of it: the spare
    constructions of the timed run, and in the traced run the traced
    pass, its untraced twin and the cross-check.  Each then sees the memo
    a run of its own would see, and the hit counters
    (``token_cache_stats()``) count its lookups only."""

    NAMES = ("_tokenize_cached", "_char_ngrams_cached")

    def __init__(self) -> None:
        self._memos = {}
        for name in self.NAMES:
            shared = getattr(tokenize_module, name)
            maxsize = shared.cache_parameters()["maxsize"]
            self._memos[name] = functools.lru_cache(maxsize=maxsize)(shared.__wrapped__)

    @contextmanager
    def installed(self) -> Iterator[None]:
        saved = {name: getattr(tokenize_module, name) for name in self.NAMES}
        for name, memo in self._memos.items():
            setattr(tokenize_module, name, memo)
        try:
            yield
        finally:
            for name, memo in saved.items():
                setattr(tokenize_module, name, memo)


def open_services(
    inputs: ChatInputs,
    factory: SeekerLLMFactory,
    observability: Optional[ObservabilityConfig] = None,
) -> Tuple[Dict[str, PneumaService], float]:
    """One service per lake; returns them and the construction seconds.
    Each service gets its own copy of the catalog (tables are shared),
    because a service installs its SQL plan cache on the lake it serves.
    Garbage from earlier work is collected before the clock starts."""
    lakes = {name: dataset.lake.copy() for name, dataset in inputs.datasets.items()}
    gc.collect()
    started = time.perf_counter()
    services = {
        name: PneumaService(
            lakes[name],
            max_workers=1,
            llm_latency_factor=0.0,
            llm_factory=factory,
            observability=observability,
        )
        for name in lakes
    }
    return services, time.perf_counter() - started


def shutdown(services: Dict[str, PneumaService]) -> None:
    for service in services.values():
        service.shutdown(drain=True)


def run_pass(
    services: Dict[str, PneumaService],
    factory: SeekerLLMFactory,
    order: Sequence[Tuple[str, Question]],
) -> PassRecord:
    """Ask every question of ``order`` in its own session, sequentially."""
    record = PassRecord()
    for dataset_name, question in order:
        ask(services[dataset_name], factory, question, record)
    return record


def ask(
    service: PneumaService, factory: SeekerLLMFactory, question: Question, record: PassRecord
) -> None:
    """One LLM-Sim conversation in a fresh session, folded into ``record``."""
    session_id = service.open_session(user=question.qid)
    llm = factory.built[-1]
    digest = Digest()
    client = ServiceClient(service, session_id, record, digest)
    outcome = SimulationRunner(build_sim_llm(), max_turns=MAX_TURNS).run(client, question)
    summary = service.close_session(session_id)
    digest.update("converged", outcome.converged, outcome.turns)
    record.order.append(question.qid)
    record.digests[question.qid] = digest.hexdigest()
    if outcome.converged:
        record.converged.add(question.qid)
    record.llm_calls += llm.ledger.num_calls()
    record.virtual_s += summary.virtual_seconds
    record.prompt_tokens += summary.prompt_tokens
    record.completion_tokens += summary.completion_tokens


@dataclass
class UntracedRun:
    setup_s: List[float]
    record: PassRecord
    measured_s: float


def measure(inputs: ChatInputs, setups: int) -> UntracedRun:
    """The timed run: one pass over the question order, and ``setups``
    cold constructions of the workload's services for ``setup_s``.  The
    first construction is the one served; the others are spread evenly
    through the pass, between questions, so that the samples span the run
    rather than one stretch of it.  Each of those builds spare services on
    a fresh :class:`TokenMemo` and shuts them down: like the served one,
    it starts with an empty memo, and it leaves the pass's memo alone."""
    factory = SeekerLLMFactory()
    services, elapsed = open_services(inputs, factory)
    setup_s = [elapsed]
    questions = len(inputs.order)
    spares = setups - 1
    spare_at = {round((k + 0.5) * questions / spares) for k in range(spares)}
    record = PassRecord()
    measured_s = 0.0
    for i, (dataset_name, question) in enumerate(inputs.order):
        if i in spare_at:
            with TokenMemo().installed():
                spare, elapsed = open_services(inputs, SeekerLLMFactory())
                shutdown(spare)
            setup_s.append(elapsed)
        started = time.perf_counter()
        ask(services[dataset_name], factory, question, record)
        measured_s += time.perf_counter() - started
    shutdown(services)
    return UntracedRun(setup_s=setup_s, record=record, measured_s=measured_s)


def turn_seconds(record: PassRecord) -> float:
    return sum(record.turn_ms) / 1000.0


def end_to_end(run: UntracedRun) -> Dict[str, float]:
    """The chat end-to-end figures of an untraced run."""
    record = run.record
    turn_ms = record.turn_ms
    ok_turns = len(turn_ms)
    return {
        "setup_s": median(run.setup_s),
        "turns": record.turns,
        "ok_turns": ok_turns,
        "turn_p50_ms": median(turn_ms) if turn_ms else 0.0,
        "turns_per_s": ok_turns / (sum(turn_ms) / 1000.0) if turn_ms else 0.0,
        "converged_pct": 100.0 * len(record.converged) / len(record.order),
        "llm_calls_per_turn": record.per_turn(record.llm_calls),
        "virtual_s_per_turn": record.per_turn(record.virtual_s),
        "prompt_tokens_per_turn": record.per_turn(record.prompt_tokens),
    }


# ----------------------------------------------------------------------
# Cross-check against the in-program tracer
# ----------------------------------------------------------------------
#: Questions (the first ones in seed order) the cross-check pass asks.
XCHECK_QUESTIONS = {"chat-eval": 8, "chat-paper": 4}
#: Largest accepted gap between a summed in-program span and the same
#: work timed from outside, relative to the span sum.  The two clocks
#: bracket the same calls; the gap is the span bookkeeping on one side
#: and the wrapper bookkeeping on the other.
XCHECK_TOLERANCE_PCT = 10.0


@dataclass
class CrossCheck:
    record: PassRecord
    llm_span_s: float
    llm_outside_s: float
    sql_span_s: float
    sql_outside_s: float

    @staticmethod
    def gap_pct(span_s: float, outside_s: float) -> float:
        return 100.0 * abs(outside_s - span_s) / span_s if span_s else 0.0

    @property
    def llm_gap_pct(self) -> float:
        return self.gap_pct(self.llm_span_s, self.llm_outside_s)

    @property
    def sql_gap_pct(self) -> float:
        return self.gap_pct(self.sql_span_s, self.sql_outside_s)


def cross_check(inputs: ChatInputs, questions: int) -> CrossCheck:
    """Ask the first ``questions`` questions with the service's own
    tracer on *and* the outside layer timer installed, then compare the
    summed ``llm.complete`` / ``sql.run`` spans with the timer's
    ``llm.*`` and ``relational.run`` self time over the same turns."""
    order = inputs.order[:questions]
    factory = SeekerLLMFactory()
    config = ObservabilityConfig(max_traces=MAX_TURNS * len(order) + 8)
    spans = {"llm.complete": 0.0, "sql.run": 0.0}
    with TokenMemo().installed(), LayerTimer() as timer:
        services, _ = open_services(inputs, factory, observability=config)
        record = run_pass(services, factory, order)
        for service in services.values():
            for root in service.tracer.traces("turn"):
                for span in root.iter_spans():
                    if span.name in spans:
                        spans[span.name] += span.duration
        shutdown(services)
    llm_outside = sum(timer.stat("turn", f"llm.{c}").self_s for c in ("conductor", "materializer"))
    return CrossCheck(
        record=record,
        llm_span_s=spans["llm.complete"],
        llm_outside_s=llm_outside,
        sql_span_s=spans["sql.run"],
        sql_outside_s=timer.stat("turn", "relational.run").self_s,
    )


# ----------------------------------------------------------------------
# Profiling passes
# ----------------------------------------------------------------------
def profiled_passes(
    inputs: ChatInputs, timer: LayerTimer
) -> Tuple[PassRecord, PassRecord, CacheCounters]:
    """Two passes over the same order on two fresh sets of services, one
    with ``timer`` installed and one without, interleaved question by
    question (alternating which goes first) so that slow drift in machine
    speed falls on both alike.  Each side has a :class:`TokenMemo` of its
    own, so the two passes share no state.  Returns the traced pass, the
    untraced pass, and the traced services' cache counters."""
    traced_factory, plain_factory = SeekerLLMFactory(), SeekerLLMFactory()
    traced_memo, plain_memo = TokenMemo(), TokenMemo()
    with traced_memo.installed(), timer:
        traced_services, _ = open_services(inputs, traced_factory)
    with plain_memo.installed():
        plain_services, _ = open_services(inputs, plain_factory)
    traced, plain = PassRecord(), PassRecord()
    caches = CacheCounters()
    for i, (dataset_name, question) in enumerate(inputs.order):

        def ask_traced() -> None:
            with traced_memo.installed():
                before = token_cache_stats()["tokenize"]
                with timer:
                    ask(traced_services[dataset_name], traced_factory, question, traced)
                caches.add_tokenize(before, token_cache_stats()["tokenize"])

        def ask_plain() -> None:
            with plain_memo.installed():
                ask(plain_services[dataset_name], plain_factory, question, plain)

        for step in (ask_traced, ask_plain) if i % 2 == 0 else (ask_plain, ask_traced):
            step()
    for service in traced_services.values():
        caches.add_service(service.stats())
    with traced_memo.installed(), timer:
        shutdown(traced_services)
    with plain_memo.installed():
        shutdown(plain_services)
    return traced, plain, caches
