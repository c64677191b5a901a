"""``serve``: closed-loop clients against a router and two shard processes.

Topology: two ``repro serve`` processes (solver thread, no worker
processes) behind one ``repro route`` process with micro-batching on
and replication 1, all on the one CPU this process runs on.  The load
comes from this process: :data:`CLIENTS` logical clients multiplexed
over :data:`CONNECTIONS` pipelined connections, each sending its next
request only after the previous answer arrived.

One round replays a seeded plan over :data:`GALLERIES`: keys asked for
the first time, repeats of keys answered at least :data:`REPEAT_LAG`
plan positions earlier, and ``invalidate`` requests at
:data:`INVALIDATE_AT`.  Every round starts from the same state: all
galleries are invalidated (untimed) first, which drops the shards'
cached answers and warm engines.  Every request is one operation.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    close,
    median,
    nearest_rank,
    own_peak_mib,
    process_peak_mib,
    round_plan,
    SETUP_REPEATS,
    scratch_dir,
    tracing_overhead_pct,
    union_length,
)

from repro.core.estimator import ProbabilisticEstimator
from repro.exceptions import ServiceError
from repro.platform.usecase import UseCase, sampled_use_cases_by_size
from repro.runtime.service import GallerySpec
from repro.service.client import ServiceClient
from repro.service.hashring import HashRing
from repro.service.protocol import decode_message, encode_message, parse_estimate

#: Paper-suite seeds of the served 8-application galleries; four stay
#: within the shard engine pool's default bound of eight galleries.
GALLERY_SEEDS = (11, 12, 13, 14)
HOST = "127.0.0.1"
GALLERY_APPS = 8
MODEL = "second_order"
CLIENTS = 8
CONNECTIONS = 2
ESTIMATES_PER_ROUND = 1500
REPEAT_SHARE = 0.5
#: A repeat names a key first asked this many positions earlier, far
#: beyond the CLIENTS requests in flight, so it has been answered.
REPEAT_LAG = 64
#: Plan positions of the invalidations (gallery i at the i-th one).
INVALIDATE_AT = (375, 750, 1125)
SHARD_BATCH_WINDOW_MS = 2.0
ROUTER_BATCH_WINDOW_S = 0.002
WARMUP_PER_GALLERY = 16
MIN_ROUNDS = 3
MIN_ROUNDS_PER_HALF = 2
START_TIMEOUT_S = 60.0


def _wire(seed: int) -> Dict[str, object]:
    return {"kind": "paper", "seed": seed, "applications": GALLERY_APPS}


def make_plan(seed: int) -> List[Tuple[str, int, Tuple[str, ...]]]:
    """``(kind, gallery index, use-case)`` per position; kinds are
    ``fresh``, ``repeat`` and ``invalidate``."""
    rng = random.Random(seed)
    names = GallerySpec(kind="paper", application_count=GALLERY_APPS).application_names()
    every = [u.applications for u in sampled_use_cases_by_size(names, samples_per_size=None)]
    unused = {g: rng.sample(every, len(every)) for g in range(len(GALLERY_SEEDS))}
    answered: Dict[int, List[Tuple[int, Tuple[str, ...]]]] = {
        g: [] for g in range(len(GALLERY_SEEDS))
    }
    plan: List[Tuple[str, int, Tuple[str, ...]]] = []
    invalidations = list(INVALIDATE_AT)
    while len(plan) < ESTIMATES_PER_ROUND + len(INVALIDATE_AT):
        position = len(plan)
        if invalidations and position == invalidations[0]:
            gallery = INVALIDATE_AT.index(invalidations.pop(0)) % len(GALLERY_SEEDS)
            plan.append(("invalidate", gallery, ()))
            answered[gallery] = []
            continue
        gallery = rng.randrange(len(GALLERY_SEEDS))
        eligible = [key for at, key in answered[gallery] if at <= position - REPEAT_LAG]
        wants_repeat = rng.random() < REPEAT_SHARE
        if eligible and (wants_repeat or not unused[gallery]):
            plan.append(("repeat", gallery, rng.choice(eligible)))
        elif unused[gallery]:
            key = unused[gallery].pop()
            answered[gallery].append((position, key))
            plan.append(("fresh", gallery, key))
    return plan


# ----------------------------------------------------------------------
# The fleet: two shards and a router, each its own process
# ----------------------------------------------------------------------
def _drain(stream) -> None:
    for _ in iter(stream.readline, b""):
        pass


def _balanced_ports() -> List[int]:
    """Two free local ports whose shard names place galleries 0 and 2 on
    one shard and galleries 1 and 3 on the other.

    The router places galleries on a consistent-hash ring over shard
    names (``host:port``).  With ephemeral ports the placement changed
    from run to run, and a run whose galleries all landed on one shard
    served a fifth fewer requests per second; a fixed placement removes
    that.
    """
    labels = [
        GallerySpec(kind="paper", seed=seed, application_count=GALLERY_APPS).label()
        for seed in GALLERY_SEEDS
    ]
    for _ in range(1000):
        sockets = []
        try:
            for _ in range(2):
                probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(probe)
                probe.bind((HOST, 0))
            ports = [probe.getsockname()[1] for probe in sockets]
        finally:
            for probe in sockets:
                probe.close()
        ring = HashRing([f"{HOST}:{port}" for port in ports])
        owners = [ring.node_for(label) for label in labels]
        if owners[0::2] == [owners[0]] * 2 and owners[1::2] == [owners[1]] * 2:
            if owners[0] != owners[1]:
                return ports
    raise RuntimeError("no balanced pair of shard ports found")


class Fleet:
    def __init__(self, work: Path, span_logs: bool) -> None:
        self.work = work
        self.processes: List[subprocess.Popen] = []
        self.span_logs: List[Path] = []
        try:
            shard_commands = []
            for index, port in enumerate(_balanced_ports()):
                command = [
                    sys.executable, "-m", "repro", "serve",
                    "--host", HOST, "--port", str(port),
                    "--batch-window", str(SHARD_BATCH_WINDOW_MS),
                ]
                if span_logs:
                    path = work / f"shard{index}-{time.monotonic_ns()}.jsonl"
                    self.span_logs.append(path)
                    command += ["--span-log", str(path)]
                shard_commands.append(command)
            shards = [self._start(c) for c in shard_commands]
            self.shards = [self._address(p, "serving on ") for p in shards]
            router = self._start(
                [sys.executable, "-m", "repro", "route", "--host", HOST, "--port", "0",
                 "--batch-window", str(ROUTER_BATCH_WINDOW_S),
                 "--replication", "1"]
                + [arg for a in self.shards for arg in ("--shard", f"{a[0]}:{a[1]}")]
            )
            self.router = self._address(router, "routing on ")
        except BaseException:
            self.kill()
            raise

    def _start(self, command: List[str]) -> subprocess.Popen:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.processes.append(process)
        return process

    @staticmethod
    def _address(process: subprocess.Popen, prefix: str) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([process.stdout], [], [], 1.0)
            if not ready:
                continue
            line = process.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith(prefix):
                host, port = line[len(prefix):].split()[0].rsplit(":", 1)
                threading.Thread(target=_drain, args=(process.stdout,), daemon=True).start()
                return host, int(port)
        raise RuntimeError(f"process {process.args[:4]} did not start")

    def peak_mib(self) -> float:
        return sum(process_peak_mib(p.pid) for p in self.processes)

    async def shutdown(self) -> None:
        for address in [self.router] + self.shards:
            try:
                client = await ServiceClient.connect(*address)
                try:
                    await client.shutdown()
                finally:
                    await client.aclose()
            except (ServiceError, OSError):
                pass
        self.kill(grace=10.0)

    def kill(self, grace: float = 0.0) -> None:
        for process in self.processes:
            try:
                process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.processes = []


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
async def replay(connections: List[ServiceClient], plan, label: str):
    """Replay ``plan`` with closed-loop logical clients over a few
    pipelined connections; one ``(start, end, ok, result)`` per
    position.  Requests carry trace ids ``{label}-{position}``."""
    records: List[Optional[tuple]] = [None] * len(plan)
    positions = iter(range(len(plan)))

    async def client(index: int) -> None:
        connection = connections[index % len(connections)]
        for position in positions:
            kind, gallery, use_case = plan[position]
            started = time.perf_counter()
            try:
                if kind == "invalidate":
                    result = await connection.invalidate(_wire(GALLERY_SEEDS[gallery]))
                else:
                    result = await connection.estimate(
                        list(use_case),
                        gallery=_wire(GALLERY_SEEDS[gallery]),
                        model=MODEL,
                        trace=f"{label}-{position}",
                    )
                ok = True
            except ServiceError as error:
                result, ok = str(error), False
            records[position] = (started, time.perf_counter(), ok, result)

    await asyncio.gather(*(client(i) for i in range(CLIENTS)))
    return records


async def _stats(address) -> Dict[str, object]:
    client = await ServiceClient.connect(*address)
    try:
        return await client.stats()
    finally:
        await client.aclose()


async def _invalidate_all(address) -> None:
    client = await ServiceClient.connect(*address)
    try:
        for seed in GALLERY_SEEDS:
            await client.invalidate(_wire(seed))
    finally:
        await client.aclose()


async def _warm(address) -> None:
    client = await ServiceClient.connect(*address)
    try:
        names = GallerySpec(kind="paper", application_count=GALLERY_APPS).application_names()
        for seed in GALLERY_SEEDS:
            await asyncio.gather(
                *(
                    client.estimate(list(names[: 1 + i % GALLERY_APPS]), gallery=_wire(seed), model=MODEL)
                    for i in range(WARMUP_PER_GALLERY)
                )
            )
    finally:
        await client.aclose()


def _counters(stats: Dict[str, object]) -> Dict[str, float]:
    shards = [s for s in stats["per_shard"].values() if s is not None]
    return {
        "cache_hits": sum(s["cache"]["hits"] for s in shards),
        "solved_queries": sum(s["solved_queries"] for s in shards),
        "batches": sum(s["batches"] for s in shards),
        "batched_queries": sum(s["batched_queries"] for s in shards),
        "gallery_builds": sum(s["pool"]["gallery_builds"] for s in shards),
        "shed": sum(s["shed"] for s in shards),
        "shard_errors": sum(s["errors"] for s in shards),
        "router_frames": stats["batches"],
        "router_errors": stats["errors"],
        "stale_risk": stats["stale_risk"],
        "live_shards": stats["live_shards"],
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _references(plan) -> Dict[Tuple[int, Tuple[str, ...]], Dict[str, float]]:
    """Python-backend estimates of every key the plan asks, untimed."""
    wanted: Dict[int, List[Tuple[str, ...]]] = {}
    for kind, gallery, use_case in plan:
        if kind != "invalidate" and use_case not in wanted.setdefault(gallery, []):
            wanted[gallery].append(use_case)
    references = {}
    for gallery, keys in wanted.items():
        suite = GallerySpec(
            kind="paper", seed=GALLERY_SEEDS[gallery], application_count=GALLERY_APPS
        ).build()
        estimator = ProbabilisticEstimator(
            list(suite.graphs), mapping=suite.mapping, waiting_model=MODEL, backend="python"
        )
        for key, result in zip(keys, estimator.estimate_many([UseCase(k) for k in keys])):
            references[(gallery, key)] = result.periods
    return references


class _Checker:
    """Checks each round's answers right after it, outside the measured
    time, against python-backend estimates computed at the first check."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.references = None

    def failures(self, records) -> int:
        if self.references is None:
            self.references = _references(self.plan)
        failed = 0
        for (kind, gallery, use_case), (_, _, ok, result) in zip(self.plan, records):
            if ok and kind != "invalidate":
                periods = result.get("periods", {})
                reference = self.references[(gallery, use_case)]
                ok = (
                    not result.get("degraded")
                    and set(periods) == set(reference)
                    and all(close(periods[a], reference[a]) for a in reference)
                )
            failed += not ok
        return failed


def _fleet_ok(counters) -> bool:
    """No shed query, error response, stale-risk event or lost shard."""
    return (
        counters["shed"] == 0
        and counters["shard_errors"] == 0
        and counters["router_errors"] == 0
        and counters["stale_risk"] == 0
        and counters["down_shards"] == 0
    )


# ----------------------------------------------------------------------
async def _measure(
    fleet: Fleet,
    plan,
    checker: _Checker,
    seconds: float,
    traced: bool,
    first: int,
    minimum: int,
):
    """Whole rounds on ``fleet`` for ``seconds``; the rounds, counter
    deltas and the peak resident set of every process involved.

    A round keeps each position's ``(start, end, ok)`` and its failed
    count; the answers themselves are checked and dropped."""
    connections = [await ServiceClient.connect(*fleet.router) for _ in range(CONNECTIONS)]
    try:
        before = _counters(await _stats(fleet.router))
        rounds: List[Dict] = []
        measured = 0.0
        while round_plan(seconds, measured, len(rounds), minimum):
            await _invalidate_all(fleet.router)
            t0 = time.perf_counter()
            records = await replay(connections, plan, f"r{first + len(rounds)}")
            t1 = time.perf_counter()
            measured += t1 - t0
            rounds.append(
                {
                    "records": [record[:3] for record in records],
                    "failed": checker.failures(records),
                    "start": t0,
                    "end": t1,
                    "traced": traced,
                }
            )
        after = _counters(await _stats(fleet.router))
    finally:
        for connection in connections:
            await connection.aclose()
    counters = {key: after[key] - before[key] for key in after}
    # Faults that must never happen at all, not per round.
    counters["stale_risk"] = after["stale_risk"]
    counters["down_shards"] = 2 - after["live_shards"]
    return rounds, counters, own_peak_mib() + fleet.peak_mib()


async def _run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    work = scratch_dir("serve")
    plan = make_plan(seed)
    estimates = sum(1 for kind, _, _ in plan if kind != "invalidate")
    fleet: Optional[Fleet] = None
    checker = _Checker(plan)
    setups: List[float] = []
    rounds: List[Dict] = []
    walls: Dict[bool, List[float]] = {True: [], False: []}
    totals: Dict[str, float] = {}
    shard_spans: List[Dict[str, object]] = []
    garbled = 0
    peak = 0.0
    try:
        for _ in range(SETUP_REPEATS):
            if fleet is not None:
                await fleet.shutdown()
            started = time.perf_counter()
            fleet = Fleet(work, span_logs=False)
            await _warm(fleet.router)
            setups.append(time.perf_counter() - started)
        # An untraced run measures this fleet for the whole window.  A
        # traced run measures half the window here and half on a fleet
        # whose shards write span logs; the halves give the overhead.
        for traced in (False, True) if trace else (False,):
            if traced:
                await fleet.shutdown()
                fleet = Fleet(work, span_logs=True)
                await _warm(fleet.router)
            phase, counters, phase_peak = await _measure(
                fleet,
                plan,
                checker,
                seconds / 2 if trace else seconds,
                traced,
                len(rounds),
                MIN_ROUNDS_PER_HALF if trace else MIN_ROUNDS,
            )
            rounds.extend(phase)
            walls[traced].extend(r["end"] - r["start"] for r in phase)
            peak = max(peak, phase_peak)
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
            await fleet.shutdown()
        if trace:
            shard_spans, garbled = _read_span_logs(fleet.span_logs)
        counters = totals
        attempted = len(plan) * len(rounds)
        failed = (
            sum(r["failed"] for r in rounds) if _fleet_ok(counters) else attempted
        )
    finally:
        if fleet is not None:
            fleet.kill()
        shutil.rmtree(work, ignore_errors=True)

    def latencies(data, kinds):
        return [
            (end - start) * 1e3
            for (kind, _, _), (start, end, ok) in zip(plan, data["records"])
            if kind in kinds and ok
        ]

    plain = [r for r in rounds if not r["traced"]] or rounds
    end_to_end = {
        "setup_s": median(setups),
        "peak_rss_mb": peak,
        "round_s": median([r["end"] - r["start"] for r in plain]),
        "throughput_per_s": median(
            [estimates / (r["end"] - r["start"]) for r in plain]
        ),
    }
    layers: Dict[str, float] = {}
    if trace:
        count = len(rounds)
        layers = {
            "service.client_p50_ms": median(
                [nearest_rank(latencies(r, ("fresh", "repeat")), 0.50) for r in plain]
            ),
            "service.client_p99_ms": median(
                [nearest_rank(latencies(r, ("fresh", "repeat")), 0.99) for r in plain]
            ),
            "service.invalidate_p50_ms": median(
                [x for r in rounds for x in latencies(r, ("invalidate",))]
            ),
            "service.mean_batch": counters["batched_queries"] / counters["batches"]
            if counters["batches"]
            else 0.0,
            "service.cache_hits": counters["cache_hits"] / count,
            "service.solved_queries": counters["solved_queries"] / count,
            "service.router_frames": counters["router_frames"] / count,
            "service.gallery_builds": counters["gallery_builds"] / count,
            "service.parse_us": _parse_us(plan),
            "trace.overhead_pct": tracing_overhead_pct(walls[True], walls[False]),
            "telemetry.garbled_span_lines": garbled,
        }
        layers.update(_span_metrics(plan, rounds, shard_spans))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": {
            "round_throughputs": [
                round(estimates / (r["end"] - r["start"])) for r in rounds
            ],
            "counters": counters,
            "garbled_span_lines": garbled,
        },
        "end_to_end": end_to_end,
        "per_layer": layers,
    }


def _read_span_logs(paths: List[Path]) -> Tuple[List[Dict[str, object]], int]:
    """The shards' spans, and the number of unreadable lines.

    The shard writes its span log from the event-loop thread and the
    solver thread without a lock, so a few lines come out interleaved
    or garbled; those are skipped and counted.
    """
    spans = []
    garbled = 0
    for path in paths:
        for line in path.read_bytes().splitlines():
            try:
                spans.append(json.loads(line.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                garbled += 1
    return spans, garbled


def _parse_us(plan) -> float:
    """``protocol.parse_estimate`` per request line of the plan, in µs."""
    lines = [
        encode_message(
            {
                "op": "estimate",
                "id": position,
                "gallery": _wire(GALLERY_SEEDS[gallery]),
                "use_case": list(use_case),
                "model": MODEL,
                "method": "mcr",
                "trace": f"p-{position}",
            }
        )
        for position, (kind, gallery, use_case) in enumerate(plan)
        if kind != "invalidate"
    ]
    payloads = [decode_message(line) for line in lines]
    passes = []
    for _ in range(5):
        started = time.perf_counter()
        for payload in payloads:
            parse_estimate(payload)
        passes.append((time.perf_counter() - started) / len(payloads) * 1e6)
    return median(passes)


def _span_metrics(plan, rounds, shard_spans) -> Dict[str, float]:
    """Layer figures of the traced rounds, joined with the shards' spans.

    Each request is timed at the client and carries the trace id
    ``r{round}-{position}``, which joins it to the shard's span.  The
    requests overlap, so the round's residual is the share of it with no
    request in flight."""
    traced = [r for r in rounds if r["traced"]]
    windows = [(r["start"], r["end"]) for r in traced]

    def inside(span) -> bool:
        return any(start <= span["start"] <= end for start, end in windows)

    requests = {}
    for span in shard_spans:
        if span["name"] == "service.request" and "trace" in span:
            requests[span["trace"]] = span["duration"]
    hops = []
    residuals = []
    for index, data in enumerate(rounds):
        if not data["traced"]:
            continue
        for position, (kind, _, _) in enumerate(plan):
            start, end, ok = data["records"][position]
            label = f"r{index}-{position}"
            if kind != "invalidate" and label in requests:
                hops.append((end - start - requests[label]) * 1e3)
        length = data["end"] - data["start"]
        busy = union_length([(start, end) for start, end, _ in data["records"]])
        residuals.append(100.0 * (length - busy) / length)
    waits = [s["duration"] * 1e3 for s in shard_spans if s["name"] == "service.queue_wait" and inside(s)]
    solves = [s for s in shard_spans if s["name"] == "service.solve" and inside(s)]
    solved = sum(int(s.get("attributes", {}).get("queries", 0)) for s in solves)
    return {
        "service.router_hop_joined": len(hops),
        "service.router_hop_p50_ms": nearest_rank(hops, 0.50),
        "service.queue_wait_p50_ms": nearest_rank(waits, 0.50),
        "service.queue_wait_p99_ms": nearest_rank(waits, 0.99),
        "service.solve_per_query_ms": (
            sum(s["duration"] for s in solves) * 1e3 / solved if solved else 0.0
        ),
        "trace.residual_pct": median(residuals),
    }


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    # The load generator and the fleet it starts (which inherits the
    # mask) share one CPU.  Spread over both CPUs, the four processes'
    # throughput followed the host's speed changes more strongly than
    # one process does, and spread three times as widely (README).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return asyncio.run(_run(seed, seconds, trace))
