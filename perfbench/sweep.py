"""``sweep``: exhaustive use-case sweeps, the sweep service and a
placement scan.

One round, on fresh analysis engines:

1. the 2^10 - 1 use-cases of the 10-application paper suite through
   ``ProbabilisticEstimator.estimate_many`` for each model of
   :data:`MODEL_MIX`;
2. the same sweep through ``SweepService(jobs=2)`` into a fresh
   ``ResultStore``;
3. an exhaustive ``CandidateEvaluator.evaluate`` scan of the
   8-application placement space.

Every use-case estimate, service answer and scored candidate is one
operation.  The batch-invariance check (a fixed sample re-estimated
alone, compared bit for bit) fails on a fixed set of use-cases while the
numpy answers depend on their batch-mates; the sample does not depend on
``--seed``, so the failed share is the same in every run.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from typing import Dict, List, Tuple

from common import (
    Spans,
    close,
    cold_setup_s,
    median,
    own_peak_mib,
    reaped_children_peak_mib,
    round_plan,
    scratch_dir,
    tracing_overhead_pct,
)

from repro.analysis_engine import AnalysisEngine, build_engines
from repro.core.blocking import ResidentVectors
from repro.core.estimator import ProbabilisticEstimator
from repro.core.waiting import make_waiting_model
from repro.experiments.setup import DEFAULT_SEED, paper_benchmark_suite
from repro.platform.usecase import sampled_use_cases_by_size
from repro.runtime.service import GallerySpec, ResultStore, SweepService
from repro.sdf.mcm import IncrementalMCRSolver
from repro.sdf.statespace import self_timed_period
from repro.search import (
    CandidateEvaluator,
    Constraint,
    SearchSpace,
    derive_targets,
    place,
)
from repro.telemetry import get_registry

#: (waiting model, fixed-point depth, use per-application priorities).
MODEL_MIX: Tuple[Tuple[str, int, bool], ...] = (
    ("second_order", 1, False),
    ("exact", 1, False),
    ("weighted_round_robin", 1, False),
    ("priority_preemptive", 1, True),
    ("second_order", 4, False),
)
SWEEP_APPS = 10
PLACE_APPS = 8
PLACE_SLACK = 2.5
PLACE_WEIGHTS = (1, 2)
SERVICE_JOBS = 2
#: Batch-invariance sample: fixed, so its failures repeat exactly.
INVARIANCE_SEED = 2007
INVARIANCE_SAMPLE = 48
#: Per-model sample re-estimated on the pure-Python backend.
PARITY_SAMPLE = 16
MIN_ROUNDS = 3


def _defining_class(cls: type, attribute: str) -> type:
    for klass in cls.__mro__:
        if attribute in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no {attribute}")


class _State:
    def __init__(self) -> None:
        suite = paper_benchmark_suite(seed=DEFAULT_SEED, application_count=SWEEP_APPS)
        self.graphs = list(suite.graphs)
        self.names = tuple(g.name for g in self.graphs)
        # Earlier applications are more important, as a device vendor
        # would rank built-in features.
        priorities = {
            name: len(self.names) - position
            for position, name in enumerate(self.names)
        }
        self.mappings = {
            False: suite.mapping,
            True: suite.mapping.with_priorities(priorities),
        }
        self.use_cases = sampled_use_cases_by_size(self.names, samples_per_size=None)
        self.index = {
            frozenset(u.applications): i for i, u in enumerate(self.use_cases)
        }
        self.gallery = GallerySpec(
            kind="paper", seed=DEFAULT_SEED, application_count=SWEEP_APPS
        )
        place_suite = paper_benchmark_suite(
            seed=DEFAULT_SEED, application_count=PLACE_APPS
        )
        self.place_graphs = list(place_suite.graphs)
        self.space = SearchSpace(
            self.place_graphs,
            model="weighted_round_robin",
            weight_choices=PLACE_WEIGHTS,
        )
        self.candidates = list(self.space.candidates())
        self.targets = derive_targets(
            self.place_graphs, build_engines(self.place_graphs), PLACE_SLACK
        )
        # Lazy imports and first-call paths settle here, not in round 1.
        engines = build_engines(self.graphs)
        for model, iterations, prioritized in MODEL_MIX:
            ProbabilisticEstimator(
                self.graphs,
                mapping=self.mappings[prioritized],
                waiting_model=model,
                engines=engines,
            ).estimate_many(self.use_cases[:64], iterations=iterations)


def setup(seed: int) -> _State:
    """The state every round starts from (the inputs do not depend on
    ``seed``)."""
    return _State()


def _estimator(state: _State, model: str, prioritized: bool, **options):
    return ProbabilisticEstimator(
        state.graphs,
        mapping=state.mappings[prioritized],
        waiting_model=model,
        **options,
    )


def _one_round(state: _State, spans: Spans, store_path, solvers: set) -> Dict:
    """One round; returns its timings, counters and answers.

    ``solvers`` collects the MCR solvers ``solve_many`` ran on while
    traced; it is emptied here.
    """
    span = spans.span
    solvers.clear()
    registry = get_registry()
    result: Dict[str, object] = {}
    started = time.perf_counter()
    with span("sweep.round") as root:
        with span("analysis_engine.build"):
            engines = build_engines(state.graphs)
        passes_before = registry.value("repro_estimator_fixed_point_passes_total") or 0
        inside = 0.0
        answers = []
        for model, iterations, prioritized in MODEL_MIX:
            with span("estimator.build"):
                estimator = _estimator(state, model, prioritized, engines=engines)
            with span("estimator.estimate_many"):
                t0 = time.perf_counter()
                estimates = estimator.estimate_many(state.use_cases, iterations=iterations)
                inside += time.perf_counter() - t0
            answers.append([e.periods for e in estimates])
        result["answers"] = answers
        result["estimate_s"] = inside
        result["passes"] = (
            registry.value("repro_estimator_fixed_point_passes_total") or 0
        ) - passes_before
        result["memo_hits"] = sum(e.stats.cache_hits for e in engines.values())
        result["scalar_solves"] = sum(s.batch_fallbacks for s in solvers)
        result["certified_rows"] = sum(s.batch_accepted for s in solvers)

        with span("runtime.sweep_service"):
            t0 = time.perf_counter()
            outcome = SweepService(
                store=ResultStore(store_path), jobs=SERVICE_JOBS
            ).sweep(state.gallery, model="second_order")
            result["service_s"] = time.perf_counter() - t0
        result["service_answers"] = [r.periods for r in outcome.results]
        result["service_misses"] = outcome.misses
        result["store_path"] = store_path

        with span("analysis_engine.build"):
            place_engines = build_engines(state.place_graphs)
        with span("search.evaluator_build"):
            evaluator = CandidateEvaluator(
                state.space,
                constraint=Constraint(dict(state.targets)),
                engines=place_engines,
            )
        with span("search.evaluate"):
            t0 = time.perf_counter()
            scored = evaluator.evaluate(state.candidates)
            result["evaluate_s"] = time.perf_counter() - t0
        result["scored"] = [(s.periods, s.rank) for s in scored]
        result["place_isolation"] = dict(evaluator.isolation_periods)
    result["round_s"] = time.perf_counter() - started
    result["root"] = root
    return result


def _install_wrappers(spans: Spans, solvers: set) -> None:
    kernel_classes = {
        _defining_class(type(make_waiting_model(model)), "waiting_times_batch")
        for model, _, _ in MODEL_MIX
    }
    for klass in sorted(kernel_classes, key=lambda k: k.__name__):
        spans.wrap(klass, "waiting_times_batch", "core.waiting_batch")
    spans.wrap(ProbabilisticEstimator, "_batch_structure_for", "core.profiles_batch")
    spans.wrap(ProbabilisticEstimator, "_row_probabilities", "core.profiles_batch")
    spans.wrap(ResidentVectors, "with_probability", "core.profiles_batch")
    spans.wrap(AnalysisEngine, "period_for", "analysis_engine.period_for")

    def note_solver(args, _result):
        solvers.add(args[0])

    spans.wrap(IncrementalMCRSolver, "solve_many", "sdf.mcm.solve_many", note_solver)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _isolation_ok(state: _State) -> Tuple[Dict[str, float], bool]:
    """Isolation periods from MCR, cross-checked by state-space."""
    isolation = dict(_estimator(state, "second_order", False).isolation_periods)
    ok = all(
        close(isolation[g.name], float(self_timed_period(g))) for g in state.graphs
    )
    return isolation, ok


def _property_failures(state: _State, answers, isolation, monotone: bool) -> set:
    """Use-cases whose answers break a property the method guarantees.

    Monotonicity (adding an application never lowers another's period)
    holds for the single-pass estimate only: fixed-point refinement
    lowers blocking probabilities as periods grow, and measured drops
    reach 4% at depth 4.
    """
    failed = set()
    for i, use_case in enumerate(state.use_cases):
        periods = answers[i]
        apps = use_case.applications
        for app in apps:
            if periods[app] < isolation[app] * (1.0 - 1e-9):
                failed.add(i)
        if len(apps) == 1 and not close(periods[apps[0]], isolation[apps[0]]):
            failed.add(i)
        if not monotone:
            continue
        members = frozenset(apps)
        for extra in state.names:
            if extra in members:
                continue
            bigger = answers[state.index[members | {extra}]]
            for app in apps:
                if bigger[app] < periods[app] * (1.0 - 1e-9):
                    failed.add(i)
    return failed


def _references(state: _State, seed: int):
    """Answers computed apart from the timed rounds."""
    rng = random.Random(seed)
    parity_rows = sorted(rng.sample(range(len(state.use_cases)), PARITY_SAMPLE))
    parity = []
    for model, iterations, prioritized in MODEL_MIX:
        estimates = _estimator(state, model, prioritized, backend="python").estimate_many(
            [state.use_cases[i] for i in parity_rows], iterations=iterations
        )
        parity.append({i: e.periods for i, e in zip(parity_rows, estimates)})
    fixed = random.Random(INVARIANCE_SEED)
    invariance_rows = sorted(
        fixed.sample(range(len(state.use_cases)), INVARIANCE_SAMPLE)
    )
    model, iterations, prioritized = MODEL_MIX[0]
    alone = {}
    for i in invariance_rows:
        estimator = _estimator(state, model, prioritized)
        alone[i] = estimator.estimate_many([state.use_cases[i]], iterations=iterations)[
            0
        ].periods
    return parity, alone


def _greedy_rank(state: _State):
    result = place(
        state.place_graphs,
        strategy="greedy",
        model="weighted_round_robin",
        slack=PLACE_SLACK,
        weight_choices=PLACE_WEIGHTS,
    )
    from repro.search.objective import rank_key

    best = result.best
    return rank_key(
        result.feasible, best.objective_value, best.violations, best.candidate
    )


class _Checker:
    """Checks each round right after it, outside the measured time.

    References are computed once, at the first check.  A later round
    whose answers equal an already checked round's bit for bit (fresh
    engines each round, so they should) reuses that round's verdicts.
    """

    def __init__(self, state: _State, seed: int) -> None:
        self.state = state
        self.seed = seed
        self.references = None
        self.verdicts: Dict[str, Tuple[int, int, int]] = {}

    def _prepare(self) -> None:
        state = self.state
        isolation, isolation_ok = _isolation_ok(state)
        parity, alone = _references(state, self.seed)
        self.references = (isolation, isolation_ok, parity, alone, _greedy_rank(state))

    def check(self, data: Dict) -> Tuple[int, int, int, int]:
        """(attempted, failed, invariance failures, wrong answers) of one
        round.  A wrong answer is an operation failing any check other
        than batch invariance; an operation failing both counts once in
        ``failed`` and once in each of the other two."""
        if self.references is None:
            self._prepare()
        second = SweepService(store=ResultStore(data["store_path"]), jobs=1).sweep(
            self.state.gallery, model="second_order"
        )
        store_ok = (
            data["service_misses"] == len(self.state.use_cases)
            and second.hits == len(self.state.use_cases)
            and [r.periods for r in second.results] == data["service_answers"]
        )
        fingerprint = hashlib.sha256(
            repr((data["answers"], data["service_answers"], data["scored"])).encode()
        ).hexdigest()
        if fingerprint not in self.verdicts:
            self.verdicts[fingerprint] = self._check_answers(data)
        attempted, failed, invariance_failed, wrong = self.verdicts[fingerprint]
        if not store_ok:
            failed += len(self.state.use_cases)
            wrong += len(self.state.use_cases)
        return attempted, min(failed, attempted), invariance_failed, wrong

    def _check_answers(self, data: Dict) -> Tuple[int, int, int, int]:
        state = self.state
        isolation, isolation_ok, parity, alone, greedy = self.references
        attempted = failed = invariance_failed = wrong = 0
        for position, answers in enumerate(data["answers"]):
            bad = _property_failures(
                state, answers, isolation, MODEL_MIX[position][1] == 1
            )
            if not isolation_ok:
                bad = set(range(len(answers)))
            for i, reference in parity[position].items():
                if any(not close(answers[i][a], v) for a, v in reference.items()):
                    bad.add(i)
            variant = set()
            if position == 0:
                variant = {i for i, ref in alone.items() if answers[i] != ref}
            attempted += len(answers)
            failed += len(bad | variant)
            invariance_failed += len(variant)
            wrong += len(bad)
        # The service's answers against the in-process sweep.
        reference = data["answers"][0]
        for i, periods in enumerate(data["service_answers"]):
            attempted += 1
            if any(not close(periods[a], reference[i][a]) for a in periods):
                failed += 1
                wrong += 1
        # The exhaustive optimum is no worse than the greedy search's.
        scored = data["scored"]
        scan_ok = min(rank for _, rank in scored) <= greedy
        iso = data["place_isolation"]
        for periods, _ in scored:
            attempted += 1
            if not scan_ok or any(periods[a] < iso[a] * (1.0 - 1e-9) for a in periods):
                failed += 1
                wrong += 1
        return attempted, failed, invariance_failed, wrong


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    state = setup(seed)
    work = scratch_dir("sweep")
    spans = Spans()
    solvers: set = set()
    if trace:
        _install_wrappers(spans, solvers)
    rounds: List[Dict] = []
    traced_walls: List[float] = []
    plain_walls: List[float] = []
    checker = _Checker(state, seed)
    attempted = failed = invariance_failed = wrong = 0
    try:
        while round_plan(seconds, sum(traced_walls + plain_walls), len(rounds), MIN_ROUNDS):
            traced = trace and len(rounds) % 2 == 0
            store = work / f"store-{len(rounds)}.jsonl"
            if traced:
                with spans.active():
                    data = _one_round(state, spans, store, solvers)
                traced_walls.append(data["round_s"])
            else:
                data = _one_round(state, spans, store, solvers)
                plain_walls.append(data["round_s"])
            counts = checker.check(data)
            attempted += counts[0]
            failed += counts[1]
            invariance_failed += counts[2]
            wrong += counts[3]
            # Keep timings and counters only: answers held across rounds
            # would make the peak resident set grow with the round count.
            for heavy in ("answers", "service_answers", "scored"):
                del data[heavy]
            store.unlink()
            data["traced"] = traced
            rounds.append(data)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    use_cases = len(state.use_cases) * len(MODEL_MIX)
    plain = [r for r in rounds if not r["traced"]] or rounds
    end_to_end: Dict[str, float] = {}
    layers: Dict[str, float] = {}
    if not trace:
        end_to_end = {
            # Read before the cold set-ups: their processes are children
            # too, and would stand in for the pool workers' peak.
            "peak_rss_mb": own_peak_mib() + SERVICE_JOBS * reaped_children_peak_mib(),
            "round_s": median([r["round_s"] for r in plain]),
            "throughput_per_s": median([use_cases / r["estimate_s"] for r in plain]),
            "setup_s": cold_setup_s("sweep", seed),
        }
    else:
        layers = _layer_metrics(state, spans, [r for r in rounds if r["traced"]])
        layers["trace.overhead_pct"] = tracing_overhead_pct(traced_walls, plain_walls)
        layers["runtime.sweep_service_use_cases_per_s"] = median(
            [len(state.use_cases) / r["service_s"] for r in rounds]
        )
        layers["search.place_candidates_per_s"] = median(
            [len(state.candidates) / r["evaluate_s"] for r in rounds]
        )
    return {
        # Batch-invariance failures are the known fault; any other
        # failed check means a wrong answer.
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": {
            "invariance_failed": invariance_failed,
            "wrong": wrong,
            "round_throughputs": [round(use_cases / r["estimate_s"]) for r in rounds],
        },
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


def _layer_metrics(state, spans: Spans, traced_rounds) -> Dict[str, float]:
    per_round: Dict[str, List[float]] = {}

    def add(name, value):
        per_round.setdefault(name, []).append(value)

    for data in traced_rounds:
        root = data["root"]
        own = spans.self_times(root)
        add("core.waiting_batch_s", own.get("core.waiting_batch", 0.0))
        add("core.profiles_batch_s", own.get("core.profiles_batch", 0.0))
        add("core.fixed_point_passes", data["passes"])
        add("analysis_engine.period_for_self_s", own.get("analysis_engine.period_for", 0.0))
        add("analysis_engine.memo_hits", data["memo_hits"])
        add("sdf.mcm.solve_many_self_s", own.get("sdf.mcm.solve_many", 0.0))
        add("sdf.mcm.scalar_solves", data["scalar_solves"])
        add("sdf.mcm.certified_rows", data["certified_rows"])
        add("runtime.sweep_service_s", spans.total_time(root, "runtime.sweep_service"))
        add("search.evaluate_s", spans.total_time(root, "search.evaluate"))
        add("trace.residual_pct", 100.0 * own.get("sweep.round", 0.0) / (root.end - root.start))
    return {name: median(values) for name, values in per_round.items()}
