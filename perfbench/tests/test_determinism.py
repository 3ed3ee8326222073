"""Determinism and consistency checks for the turn-profile benchmark.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

from common import use_source_tree  # noqa: E402

use_source_tree()

import chat  # noqa: E402
import discover  # noqa: E402
import layerprofile  # noqa: E402
import run  # noqa: E402
from layers import LayerTimer, Target  # noqa: E402

SECONDS = 20.0
#: Questions per determinism pass (a prefix of the seeded order).
QUESTIONS = 4


def _discover_signature(inputs: discover.DiscoverInputs):
    return (
        inputs.stream,
        [(w.due_s, w.table.name, w.table.num_rows, w.probe) for w in inputs.writes],
        [w.table.to_columns() for w in inputs.writes],
        inputs.warm_probes,
    )


def test_discover_inputs_repeat_for_a_seed():
    first = discover.make_inputs(3, SECONDS)
    second = discover.make_inputs(3, SECONDS)
    assert _discover_signature(first) == _discover_signature(second)
    assert first.catalog.table_names() == second.catalog.table_names()


def test_discover_seed_changes_queries_and_writes():
    first = discover.make_inputs(3, SECONDS)
    other = discover.make_inputs(4, SECONDS)
    assert [q for _, q in first.stream] != [q for _, q in other.stream]
    assert [(w.due_s, w.table.name) for w in first.writes] != [
        (w.due_s, w.table.name) for w in other.writes
    ]
    # The amount of work is the seed's to shape, not to size.
    assert len(first.stream) == len(other.stream)
    assert len(first.writes) == len(other.writes)


def test_discover_pool_outgrows_the_token_memo():
    inputs = discover.make_inputs(3, SECONDS)
    pool = discover.query_pool(inputs.catalog, 3)
    assert len(set(pool)) > discover.TOKEN_CACHE_SIZE


def test_chat_order_repeats_for_a_seed_and_keeps_each_lake_in_paper_order():
    first = chat.make_inputs("chat-eval", 5)
    second = chat.make_inputs("chat-eval", 5)
    asked = [q.qid for _, q in first.order]
    assert asked == [q.qid for _, q in second.order]
    assert len(asked) == 32
    for name, dataset in first.datasets.items():
        asked = [q.qid for lake, q in first.order if lake == name]
        assert asked == [q.qid for q in dataset.questions]


def _pass(seed: int) -> chat.PassRecord:
    inputs = chat.make_inputs("chat-eval", seed)
    factory = chat.SeekerLLMFactory()
    services, _ = chat.open_services(inputs, factory)
    try:
        return chat.run_pass(services, factory, inputs.order[:QUESTIONS])
    finally:
        chat.shutdown(services)


def test_chat_counts_and_responses_repeat_for_a_seed():
    first, second = _pass(7), _pass(7)
    assert first.turns > 0 and first.failed == 0
    for attr in ("llm_calls", "virtual_s", "prompt_tokens", "completion_tokens", "converged"):
        assert getattr(first, attr) == getattr(second, attr), attr
    assert first.per_turn(first.llm_calls) == second.per_turn(second.llm_calls)
    assert first.digest == second.digest


def test_layer_timer_folds_self_time_and_restores_entry_points():
    class Inner:
        def work(self):
            return sum(range(2000))

    class Outer:
        def __init__(self):
            self.inner = Inner()

        def work(self):
            return self.inner.work() + self.inner.work()

    original = Outer.__dict__["work"]
    targets = [
        Target(Outer, "work", "outer.work", role="turn"),
        Target(Inner, "work", "inner.work"),
    ]
    with LayerTimer(targets) as timer:
        assert Outer().work() == 2 * sum(range(2000))
        with timer.role("probe"):
            Outer().work()
    assert Outer.__dict__["work"] is original
    outer, inner = timer.stat("turn", "outer.work"), timer.stat("turn", "inner.work")
    assert (outer.calls, inner.calls) == (1, 2)
    assert abs(outer.total_s - (outer.self_s + inner.total_s)) < 1e-9
    # A caller-named role outranks the boundary's own.
    assert (timer.stat("probe", "outer.work").calls, timer.stat("probe", "inner.work").calls) == (1, 2)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layerprofile.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
