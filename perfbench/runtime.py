"""``runtime``: scenario replay through the resource manager, then the
DES conformance suite.

One round:

1. :data:`TRACES_PER_LOAD` seeded traces per load of :data:`LOADS`,
   each replayed through a fresh ``ResourceManager`` with the
   ``downgrade-greedy`` policy on the 8-application paper suite;
2. ``run_conformance`` over every registered (model, arbiter) pair on
   a fixed scenario batch; the DES does most of this work.

Every trace event and every conformance check is one operation.  The
traces come from ``--seed``; the conformance batch uses the library's
default seed so every run checks the same scenarios.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import (
    Spans,
    close,
    cold_setup_s,
    median,
    own_peak_mib,
    round_plan,
    tracing_overhead_pct,
)

import repro.runtime.manager as manager_module
from repro.admission.controller import AdmissionController, estimate_resident_periods
from repro.conformance import DEFAULT_CONFORMANCE_SEED, ModelReport, run_conformance
from repro.experiments.setup import DEFAULT_SEED, paper_benchmark_suite
from repro.generation.workload import WorkloadConfig, WorkloadGenerator
from repro.runtime.manager import ResourceManager, gallery_from_graphs
from repro.simulation.engine import Simulator

APPS = 8
SLACK = 2.5
POLICY = "downgrade-greedy"
#: Arrival-rate multipliers over the generator's default rate, chosen
#: from measured outcome mixes (README): at 0.5 nearly every start is
#: admitted as asked, at 2 downgrades outnumber rejects, at 8 rejects
#: come close to admits.  Each run's own mix is in its notes.
LOADS: Tuple[float, ...] = (0.5, 2.0, 8.0)
#: Several traces per load, so that one costly trace weighs less: the
#: replay cost of a trace depends on its seed by about a tenth.
TRACES_PER_LOAD = 3
EVENTS_PER_TRACE = 200
CONFORMANCE_APPS = 4
CONFORMANCE_SCENARIOS = 8
CONFORMANCE_ITERATIONS = 400
MIN_ROUNDS = 3


class _State:
    def __init__(self, seed: int) -> None:
        self.suite = paper_benchmark_suite(seed=DEFAULT_SEED, application_count=APPS)
        self.specs = gallery_from_graphs(list(self.suite.graphs), slack=SLACK)
        self.by_name = {spec.name: spec for spec in self.specs}
        base = WorkloadConfig()
        generator_args = dict(
            quality_levels={s.name: s.ladder.level_names for s in self.specs},
        )
        #: ``(load, trace)`` pairs.
        self.traces = []
        for index, load in enumerate(LOADS):
            generator = WorkloadGenerator(
                [s.name for s in self.specs],
                config=WorkloadConfig(
                    mean_interarrival=base.mean_interarrival / load
                ),
                **generator_args,
            )
            for copy in range(TRACES_PER_LOAD):
                trace = generator.generate(
                    seed=seed * 100 + 10 * copy + index, events=EVENTS_PER_TRACE
                )
                self.traces.append((load, trace))
        # Lazy imports and first-call paths settle here, not in round 1.
        ResourceManager(self.specs, mapping=self.suite.mapping, policy=POLICY).replay(
            self.traces[-1][1]
        )
        run_conformance(
            application_count=CONFORMANCE_APPS,
            scenarios_per_model=2,
            target_iterations=10,
        )


def setup(seed: int) -> _State:
    """The state every round starts from."""
    return _State(seed)


def _one_round(state: _State, spans: Spans) -> Dict:
    span = spans.span
    result: Dict[str, object] = {"logs": [], "mix": {}}
    started = time.perf_counter()
    with span("runtime.round") as root:
        inside = 0.0
        events = 0
        for load, trace in state.traces:
            with span("runtime.manager_build"):
                manager = ResourceManager(
                    state.specs, mapping=state.suite.mapping, policy=POLICY
                )
            with span("runtime.replay"):
                t0 = time.perf_counter()
                log = manager.replay(trace)
                inside += time.perf_counter() - t0
            events += len(log.records)
            mix = result["mix"].setdefault(str(load), {})
            counts = log.counts_by_outcome()
            counts["downgrades"] = sum(1 for r in log.records if r.downgraded)
            for outcome, count in counts.items():
                mix[outcome] = mix.get(outcome, 0) + count
            result["logs"].append(
                [
                    (
                        r.outcome,
                        r.residents,
                        r.predicted_periods,
                        r.required_periods,
                        r.decision_seconds,
                    )
                    for r in log.records
                ]
            )
        result["replay_s"] = inside
        result["events"] = events
        with span("conformance.run"):
            report = run_conformance(
                application_count=CONFORMANCE_APPS,
                scenarios_per_model=CONFORMANCE_SCENARIOS,
                seed=DEFAULT_CONFORMANCE_SEED,
                target_iterations=CONFORMANCE_ITERATIONS,
            )
        result["conformance"] = [
            (r.model, r.status, r.checks, len(r.violations)) for r in report.reports
        ]
    result["round_s"] = time.perf_counter() - started
    result["root"] = root
    return result


class _Counters:
    """Counts the traced wrappers collect during one round."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.assignments = 0
        self.sim_events = 0
        self.sim_stale = 0
        self.errors: List[float] = []


def _install_wrappers(spans: Spans, counters: _Counters) -> None:
    spans.wrap(AdmissionController, "request_admission", "admission.check")

    def count_feasibility_calls(args, kwargs):
        problem, is_feasible = args[0], args[1]

        def counted(assignment):
            counters.assignments += 1
            return is_feasible(assignment)

        return (problem, counted) + tuple(args[2:]), kwargs

    spans.wrap(
        manager_module,
        "search_assignment",
        "search.assignment",
        before=count_feasibility_calls,
    )

    def simulation_stats(args, _result):
        stats = args[0].stats()
        counters.sim_events += stats.events_dispatched
        counters.sim_stale += stats.stale_events

    spans.wrap(
        Simulator,
        "run",
        lambda args: f"simulation.run.{args[0].config.arbitration}",
        after=simulation_stats,
    )

    def record_error(args, _result):
        report, _scenario, _app, estimated, simulated = args[:5]
        if report.semantics == "mean":
            counters.errors.append(abs(estimated / simulated - 1.0))

    spans.wrap(ModelReport, "record", "conformance.record", after=record_error)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class _Checker:
    """Checks each round right after it, outside the measured time.

    The first round's admitted states are re-estimated cold; a later
    round must reproduce the first round's decisions exactly (the
    scalar runtime path is deterministic), or it is checked cold too.
    """

    def __init__(self, state: _State) -> None:
        self.state = state
        self.reference = None
        #: Cold estimates by resident state (states recur in a trace).
        self.cold: Dict[tuple, Dict[str, float]] = {}

    def _verdicts(self, logs) -> List[List[bool]]:
        mapping = self.state.suite.mapping
        verdicts = []
        for log in logs:
            row = []
            for outcome, residents, predicted, required, _ in log:
                ok = True
                if outcome == "admitted":
                    cold = self.cold.get(residents)
                    if cold is None:
                        graphs = {
                            app: self.state.by_name[app].ladder.graph_at(quality)
                            for app, quality in residents
                        }
                        cold = estimate_resident_periods(mapping, graphs, engines=None)
                        self.cold[residents] = cold
                    ok = set(cold) == set(predicted) and all(
                        close(predicted[app], value) for app, value in cold.items()
                    )
                    ok = ok and all(
                        predicted[app] <= limit * (1.0 + 1e-9)
                        for app, limit in required.items()
                    )
                row.append(ok)
            verdicts.append(row)
        return verdicts

    def check(self, data: Dict) -> Tuple[int, int]:
        """(attempted, failed) of one round."""
        logs = [[record[:4] for record in log] for log in data["logs"]]
        if self.reference is None or logs != self.reference[0]:
            verdicts = self._verdicts(data["logs"])
            if self.reference is None:
                self.reference = (logs, verdicts)
        else:
            verdicts = self.reference[1]
        attempted = sum(len(row) for row in verdicts)
        failed = sum(row.count(False) for row in verdicts)
        for _model, _status, checks, violations in data["conformance"]:
            attempted += checks
            failed += violations
        return attempted, failed


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    state = setup(seed)
    spans = Spans()
    counters = _Counters()
    if trace:
        _install_wrappers(spans, counters)
    rounds: List[Dict] = []
    traced_walls: List[float] = []
    plain_walls: List[float] = []
    checker = _Checker(state)
    attempted = failed = 0
    while round_plan(seconds, sum(traced_walls + plain_walls), len(rounds), MIN_ROUNDS):
        traced = trace and len(rounds) % 2 == 0
        if traced:
            counters.reset()
            with spans.active():
                data = _one_round(state, spans)
            data["counters"] = (
                counters.assignments,
                counters.sim_events,
                counters.sim_stale,
                list(counters.errors),
            )
            traced_walls.append(data["round_s"])
        else:
            data = _one_round(state, spans)
            plain_walls.append(data["round_s"])
        counts = checker.check(data)
        attempted += counts[0]
        failed += counts[1]
        data["decision_ms"] = [record[4] * 1e3 for log in data.pop("logs") for record in log]
        data["traced"] = traced
        rounds.append(data)
    plain = [r for r in rounds if not r["traced"]] or rounds
    end_to_end: Dict[str, float] = {}
    layers: Dict[str, float] = {}
    if not trace:
        end_to_end = {
            "peak_rss_mb": own_peak_mib(),
            "round_s": median([r["round_s"] for r in plain]),
            "throughput_per_s": median([r["events"] / r["replay_s"] for r in plain]),
            "setup_s": cold_setup_s("runtime", seed),
        }
    else:
        layers = _layer_metrics(spans, [r for r in rounds if r["traced"]])
        layers["trace.overhead_pct"] = tracing_overhead_pct(traced_walls, plain_walls)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": {
            "round_throughputs": [round(r["events"] / r["replay_s"]) for r in rounds],
            # The first round's outcomes and downgrades per load.
            "outcomes_by_load": rounds[0]["mix"],
        },
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


ARBITERS = ("fcfs", "round_robin", "weighted_round_robin", "priority_preemptive")


def _layer_metrics(spans: Spans, traced_rounds) -> Dict[str, float]:
    per_round: Dict[str, List[float]] = {}

    def add(name, value):
        per_round.setdefault(name, []).append(value)

    decisions: List[float] = []
    for data in traced_rounds:
        root = data["root"]
        own = spans.self_times(root)
        assignments, sim_events, sim_stale, errors = data["counters"]
        add("admission.check_s", spans.total_time(root, "admission.check"))
        add("search.assignment_s", spans.total_time(root, "search.assignment"))
        add("search.assignments", assignments)
        sim_total = 0.0
        for arbiter in ARBITERS:
            seconds = spans.total_time(root, f"simulation.run.{arbiter}")
            sim_total += seconds
            add(f"simulation.run_s.{arbiter}", seconds)
        add("simulation.events", sim_events)
        add("simulation.stale_events", sim_stale)
        add("simulation.events_per_s", sim_events / sim_total if sim_total else 0.0)
        add(
            "conformance.estimate_error_pct",
            100.0 * sum(errors) / len(errors) if errors else 0.0,
        )
        add("trace.residual_pct", 100.0 * own.get("runtime.round", 0.0) / (root.end - root.start))
        decisions.extend(data["decision_ms"])
    metrics = {name: median(values) for name, values in per_round.items()}
    metrics["runtime.decision_p50_ms"] = median(decisions)
    return metrics
