"""Shared pieces of the benchmark: paths, spans, rounds and statistics.

Nothing here imports the program under test at import time, so
``run.py`` can report a missing checkout before touching it.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for result stores and span logs, inside the checkout.
WORK = ROOT / ".perfbench_work"

#: Relative tolerance of every numeric cross-check (the library's own
#: parity contract between its scalar and batched paths).
REL_TOL = 1e-9

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Exact nearest-rank percentile of raw samples (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def own_peak_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reaped_children_peak_mib() -> float:
    """Largest peak resident set among waited-for child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_mib(pid: int) -> float:
    """``VmHWM`` of a live process (read before stopping it)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
#: Ring size of the benchmark's tracer: far above the spans of a run, so
#: none is evicted (``_children`` refuses a full buffer).
MAX_SPANS = 5_000_000


class Spans:
    """Spans around calls into the program, held by a private
    ``repro.telemetry.tracing.Tracer`` (the program's global tracer is
    left alone).

    ``wrap`` registers a spanning wrapper for a function attribute;
    ``active`` installs the wrappers and enables the tracer for its
    duration.  Outside it the program runs unwrapped and ``span``
    returns the tracer's shared null span, so untraced rounds pay
    nothing.
    """

    def __init__(self) -> None:
        from repro.telemetry.tracing import Tracer

        self.tracer = Tracer(enabled=False, max_spans=MAX_SPANS)
        self._wrappers: List[tuple] = []

    def span(self, name: str):
        return self.tracer.span(name)

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: "str | Callable",
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Register a spanning wrapper for ``owner.attribute``.

        ``name`` may be a callable of the call's arguments.
        ``before(args, kwargs)`` may return replacement arguments;
        ``after(args, result)`` runs inside the span once the call
        returns, for reading counters the call moved.
        """
        self._wrappers.append((owner, attribute, name, after, before))

    @contextmanager
    def active(self):
        """Install every registered wrapper and record spans for the
        duration."""
        saved = []
        for owner, attribute, name, after, before in self._wrappers:
            original = (
                owner.__dict__[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrapped(original, name, after, before))
        self.tracer.enabled = True
        try:
            yield self
        finally:
            self.tracer.enabled = False
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def _wrapped(self, original, name, after, before):
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            label = name(args) if callable(name) else name
            with tracer.span(label):
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

        return wrapper

    # ------------------------------------------------------------------
    def _children(self) -> Dict[int, list]:
        records = self.tracer.spans()
        if len(records) >= MAX_SPANS:
            raise RuntimeError("span buffer full: self times would be wrong")
        children: Dict[int, list] = {}
        for record in records:
            if record.parent_id is not None:
                children.setdefault(record.parent_id, []).append(record)
        return children

    def _subtree(self, root) -> list:
        children = self._children()
        out = []
        pending = [root]
        while pending:
            span = pending.pop()
            out.append(span)
            pending.extend(children.get(span.span_id, []))
        return out

    def self_times(self, root) -> Dict[str, float]:
        """Self time by span name over ``root``'s subtree.

        A span's self time is its duration minus the part of its
        interval covered by its children (union, clipped), so the
        values sum to the root's duration exactly when children nest.
        """
        children = self._children()
        totals: Dict[str, float] = {}
        pending = [root]
        while pending:
            span = pending.pop()
            kids = children.get(span.span_id, [])
            covered = union_length(
                [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
            )
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
            pending.extend(kids)
        return totals

    def total_time(self, root, name: str) -> float:
        """Summed duration of ``name`` spans under ``root`` (not nested
        in one another)."""
        return sum(s.duration for s in self._subtree(root) if s.name == name)


def union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def cold_setup_s(workload: str, seed: int) -> float:
    """Median time from process start to ready state of
    :data:`SETUP_REPEATS` fresh processes that each run
    ``coldstart.py``: interpreter start, imports of the program and the
    workload's set-up, nothing warmed by an earlier set-up."""
    durations = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "coldstart.py"), workload, str(seed)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            line = child.stdout.readline()
            durations.append(time.perf_counter() - started)
        finally:
            child.stdout.close()
            code = child.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"cold set-up of {workload} failed (exit {code})")
    return statistics.median(durations)


def round_plan(seconds: float, measured: float, done: int, minimum: int) -> bool:
    """Whether another whole round starts: always until ``minimum``
    rounds ran, then until the rounds' own time reaches ``seconds``
    (checks between rounds do not count)."""
    return done < minimum or measured < seconds


def tracing_overhead_pct(traced: Sequence[float], plain: Sequence[float]) -> float:
    """Median traced round wall time over the median untraced one."""
    if not traced or not plain:
        return 0.0
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0


def scratch_dir(label: str) -> Path:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{label}-{os.getpid()}"
    path.mkdir(exist_ok=True)
    return path
