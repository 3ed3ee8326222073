"""Turn-profile benchmark: Seeker turns and table discovery through PneumaService.

One command runs any workload and checks its outputs:

    python3 perfbench/run.py --workload chat-eval --seed 1 --seconds 30 --trace 0

Workloads: ``chat-eval`` and ``chat-paper`` (LLM-Sim conversations, see
``chat.py``) and ``discover-churn`` (open-loop discovery under catalog
churn, see ``discover.py``).

``--trace 0`` times the workload with no instrumentation and reports the
end-to-end metrics.  ``--trace 1`` runs the workload with the outside-in
layer timer (``layers.py``) installed, then again without it, and reports
the per-layer metrics plus the tracing overhead (the gap between the two).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every correctness check passed, 1 when one failed, and 2 when the
benchmark could not run at all (no source tree next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import median, peak_rss_mb, tail, use_source_tree

WORKLOADS = ("chat-eval", "chat-paper", "discover-churn")
#: Cold service constructions per timed run; ``setup_s`` is their median.
#: Chat: the served one, then the rest spread through the pass.
#: discover-churn: (before the reader/writer phase, the last one served;
#: after the warm restart).
CHAT_SETUPS = {"chat-eval": 9, "chat-paper": 7}
DISCOVER_SETUPS = (2, 1)
#: Scratch space for durable stores, under the directory the command runs in.
WORK_DIR = ".perfbench_work"

#: The end-to-end metrics every workload reports (BENCHMARK.json's list).
#: On the chat workloads an operation is a Seeker turn; on discover-churn
#: it is one discovery query.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Every end-to-end figure the benchmark defines, printed by name on every run
#: (the gated ones above are a subset under workload-neutral names).
NAMED_METRICS = (
    "setup_s", "failed_pct", "peak_rss_mb",
    "turn_p50_ms", "turn_tail_ms", "turns_per_s", "converged_pct",
    "llm_calls_per_turn", "virtual_s_per_turn", "prompt_tokens_per_turn",
    "query_p50_ms", "query_tail_ms", "queries_per_s", "reindex_s", "warm_start_s",
)


class Report:
    """Collects checks, counts, and printed metrics for one run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.checks: List[Tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.named: Dict[str, Tuple[float, str, str]] = {}
        self.metrics: Dict[str, Dict[str, object]] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def name(self, metric: str, value: float, unit: str, note: str = "") -> None:
        self.named[metric] = (value, unit, note)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def print_named(self) -> None:
        print(f"end-to-end metrics ({self.workload}, seed {self.seed}, tracing off):")
        for metric in NAMED_METRICS:
            if metric in self.named:
                value, unit, note = self.named[metric]
                suffix = f"  [{note}]" if note else ""
                print(f"  {metric:<24} {value:14.4f} {unit}{suffix}")
            else:
                print(f"  {metric:<24} {'n/a':>14}  [not measured on {self.workload}]")

    def print_checks(self) -> None:
        print("correctness checks:")
        for name, ok, detail in self.checks:
            mark = "ok  " if ok else "FAIL"
            print(f"  {mark} {name}" + (f" ({detail})" if detail else ""))

    def set_end_to_end(self, values: Dict[str, float]) -> None:
        self.metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        }

    def set_per_layer(self, values: Dict[str, float], units: Dict[str, str]) -> None:
        self.metrics = {name: {"value": values[name], "unit": units[name]} for name in units}


def _setup_note(samples: List[float]) -> str:
    listed = ", ".join(f"{s:.3f}" for s in samples)
    return f"median of {len(samples)} cold constructions, in run order: {listed}"


def _failed_pct(attempted: int, failed: int) -> float:
    return 100.0 * failed / attempted if attempted else 0.0


def _report_layers(report: Report, phase, overhead_basis: str) -> None:
    """Print the traced run's per-layer metrics and make them the result."""
    from layerprofile import layer_metrics, metric_units, shares_line  # needs the source tree

    values = layer_metrics(phase)
    units = metric_units()
    print("per-layer metrics (traced run; metrics this workload never exercises read 0):")
    for name in sorted(units):
        if values[name]:
            print(f"  {name:<40} {values[name]:14.4f} {units[name]}")
    print(f"  share of operation wall time: {shares_line(values)}")
    for line in phase.caches.describe():
        print(f"  {line}")
    print(f"  tracing overhead {values['trace.overhead_pct']:+.2f}% ({overhead_basis})")
    report.set_per_layer(values, units)


# ----------------------------------------------------------------------
# chat-eval / chat-paper
# ----------------------------------------------------------------------
def measure_chat(report: Report, seconds: float) -> Dict[str, float]:
    """The untraced timed run; returns the gated end-to-end values.  A chat
    run measures one whole pass over its questions, whatever ``seconds``
    says: the pass is the workload (see README.md)."""
    import chat

    inputs = chat.make_inputs(report.workload, report.seed)
    run = chat.measure(inputs, CHAT_SETUPS[report.workload])
    record = run.record
    figures = chat.end_to_end(run)
    turn_tail = tail(record.turn_ms)
    report.attempted = figures["turns"]
    report.failed = figures["turns"] - figures["ok_turns"]
    report.check(
        "every turn returns a non-degraded SeekerResponse",
        report.failed == 0,
        f"{report.failed} failed of {report.attempted}",
    )
    report.name("setup_s", figures["setup_s"], "s", _setup_note(run.setup_s))
    report.name(
        "failed_pct",
        _failed_pct(report.attempted, report.failed),
        "%",
        "failed + shed + degraded over attempted turns",
    )
    report.name("turn_p50_ms", figures["turn_p50_ms"], "ms", f"{len(record.turn_ms)} turns")
    report.name("turn_tail_ms", turn_tail.value, "ms", turn_tail.describe())
    report.name("turns_per_s", figures["turns_per_s"], "1/s", "timed turns / summed turn wall time")
    report.name("converged_pct", figures["converged_pct"], "%")
    report.name("llm_calls_per_turn", figures["llm_calls_per_turn"], "count")
    report.name("virtual_s_per_turn", figures["virtual_s_per_turn"], "s")
    report.name("prompt_tokens_per_turn", figures["prompt_tokens_per_turn"], "count")
    print(
        f"{report.workload}: {len(record.order)} questions in one pass of "
        f"{run.measured_s:.1f} s; converged {len(record.converged)}/{len(record.order)}: "
        f"{' '.join(sorted(record.converged))}"
    )
    print(f"response digest (blake2b): {record.digest}")
    return {
        "setup_s": figures["setup_s"],
        "latency_p50_ms": figures["turn_p50_ms"],
        "ops_per_s": figures["turns_per_s"],
    }


def profile_chat(report: Report) -> None:
    """The traced run: the cross-check (which also warms the process),
    then a traced and an untraced pass over the same order, interleaved.
    Each of the three has its own tokenizer memo (``chat.TokenMemo``)."""
    import chat
    from layerprofile import TracedPhase
    from layers import LayerTimer

    inputs = chat.make_inputs(report.workload, report.seed)
    xcheck = chat.cross_check(inputs, chat.XCHECK_QUESTIONS[report.workload])
    timer = LayerTimer()
    record, after, caches = chat.profiled_passes(inputs, timer)
    report.attempted = record.turns
    report.failed = record.failed
    report.check(
        "every traced and untraced turn returns a non-degraded SeekerResponse",
        record.failed == 0 and after.failed == 0,
        f"{record.failed} and {after.failed} failed",
    )
    report.check("the traced pass returns the untraced responses", record.digest == after.digest)
    report.check(
        "in-program tracing returns the untraced responses",
        all(xcheck.record.digests[q] == after.digests[q] for q in xcheck.record.order),
    )
    tolerance = chat.XCHECK_TOLERANCE_PCT
    for label, span_s, outside_s, gap in (
        ("llm.complete spans vs llm.* self time", xcheck.llm_span_s, xcheck.llm_outside_s,
         xcheck.llm_gap_pct),
        ("sql.run spans vs relational.run self time", xcheck.sql_span_s,
         xcheck.sql_outside_s, xcheck.sql_gap_pct),
    ):
        report.check(
            f"{label} agree within {tolerance:g}%",
            gap <= tolerance,
            f"{span_s * 1000:.1f} ms vs {outside_s * 1000:.1f} ms, gap {gap:.2f}%, "
            f"{xcheck.record.turns} turns",
        )
    print(
        f"{report.workload}: {len(record.order)} questions, {record.turns} turns; converged "
        f"{len(record.converged)}/{len(record.order)}; response digest {record.digest}"
    )
    phase = TracedPhase(
        timer=timer,
        op_role="turn",
        caches=caches,
        overhead_pct=100.0 * (chat.turn_seconds(record) / chat.turn_seconds(after) - 1.0),
        prompt_tokens=record.prompt_tokens,
        completion_tokens=record.completion_tokens,
        xcheck_llm_gap_pct=xcheck.llm_gap_pct,
        xcheck_sql_gap_pct=xcheck.sql_gap_pct,
    )
    _report_layers(
        report,
        phase,
        f"summed turn wall time, traced vs untraced pass interleaved question by question, "
        f"{record.turns} turns each",
    )


# ----------------------------------------------------------------------
# discover-churn
# ----------------------------------------------------------------------
def _discover_checks(report: Report, label: str, phase, restart, writes: int) -> None:
    report.check(
        f"{label}: every query returns tables, none degraded",
        phase.failed == 0,
        f"{phase.failed} failed of {phase.attempted}",
    )
    report.check(
        f"{label}: every scheduled write was reindexed",
        len(phase.reindex_s) == writes,
        f"{len(phase.reindex_s)}/{writes}",
    )
    report.check(
        f"{label}: the probe naming each changed table finds it in the top-k",
        not phase.probe_misses,
        ", ".join(phase.probe_misses),
    )
    report.check(f"{label}: the restart is a warm start", restart.warm_started)
    report.check(
        f"{label}: the warm restart returns the same top-k on the probe set", restart.same_topk
    )


def _work_dir(report: Report) -> Path:
    return Path.cwd() / WORK_DIR / f"{report.workload}-{os.getpid()}"


def _remove_work_dir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def measure_discover(report: Report, seconds: float) -> Dict[str, float]:
    """The untraced timed run; returns the gated end-to-end values."""
    import discover

    inputs = discover.make_inputs(report.seed, seconds)
    workdir = _work_dir(report)
    try:
        run = discover.measure(inputs, workdir, *DISCOVER_SETUPS)
    finally:
        _remove_work_dir(workdir)
    phase = run.phase
    figures = discover.end_to_end(run, inputs.writes)
    tails = discover.cycle_tails(phase, inputs.writes)
    report.attempted = phase.attempted
    report.failed = phase.failed
    _discover_checks(report, "run", phase, run.restart, len(inputs.writes))
    report.name("setup_s", figures["setup_s"], "s", _setup_note(run.setup_s))
    report.name(
        "failed_pct",
        _failed_pct(report.attempted, report.failed),
        "%",
        "failed + degraded over attempted queries",
    )
    report.name(
        "query_p50_ms",
        figures["query_p50_ms"],
        "ms",
        f"{len(phase.latency_ms)} queries, timed from when due",
    )
    report.name(
        "query_tail_ms",
        figures["query_tail_ms"],
        "ms",
        f"median over {len(tails)} write cycles of each cycle's "
        f"{tails[0].describe() if tails else 'tail'}, timed from when due",
    )
    report.name(
        "queries_per_s",
        figures["queries_per_s"],
        "1/s",
        "answered queries per second of service time, over queries that overlapped no reindex",
    )
    report.name(
        "reindex_s", figures["reindex_s"], "s", f"median of {len(phase.reindex_s)} reindex() calls"
    )
    report.name("warm_start_s", figures["warm_start_s"], "s")
    print(
        f"discover-churn: {len(inputs.catalog.table_names())} tables, "
        f"{len(inputs.stream)} queries at {discover.QUERY_RATE:g}/s over {seconds:g} s, "
        f"{len(inputs.writes)} writes every {discover.WRITE_PERIOD_S:g} s"
    )
    if phase.late_ms:
        print(
            f"generator lateness: p50 {median(phase.late_ms):.3f} ms, "
            f"max {max(phase.late_ms):.3f} ms"
        )
    return {
        "setup_s": figures["setup_s"],
        "latency_p50_ms": figures["query_p50_ms"],
        "ops_per_s": figures["queries_per_s"],
    }


def profile_discover(report: Report, seconds: float) -> None:
    """The traced run: cold start, reader/writer phase, warm restart."""
    import discover
    from layerprofile import TracedPhase
    from layers import LayerTimer

    inputs = discover.make_inputs(report.seed, seconds)
    workdir = _work_dir(report)
    timer = LayerTimer()
    try:
        traced, restart, caches, overhead = discover.profiled_run(
            inputs, workdir / "store-traced", timer
        )
    finally:
        _remove_work_dir(workdir)
    report.attempted = traced.attempted
    report.failed = traced.failed
    _discover_checks(report, "traced", traced, restart, len(inputs.writes))
    build_s, swap_s = discover.reindex_split(traced.reindex_reports)
    phase = TracedPhase(
        timer=timer,
        op_role="query",
        caches=caches,
        overhead_pct=overhead,
        reindex_build_s=build_s,
        reindex_swap_s=swap_s,
    )
    _report_layers(
        report,
        phase,
        f"summed service time of {len(inputs.overhead_probes)} closed-loop queries "
        "alternating between traced and untraced",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
    except FileNotFoundError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2

    report = Report(args.workload, args.seed)
    chat_workload = args.workload != "discover-churn"
    if args.trace:
        if chat_workload:
            profile_chat(report)
        else:
            profile_discover(report, args.seconds)
    else:
        measure = measure_chat if chat_workload else measure_discover
        end_to_end = measure(report, args.seconds)
        end_to_end["peak_rss_mb"] = peak_rss_mb()
        report.name("peak_rss_mb", end_to_end["peak_rss_mb"], "MB", "peak resident set size")
        report.set_end_to_end(end_to_end)
        report.print_named()
    report.print_checks()
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": report.metrics,
            }
        )
    )
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
