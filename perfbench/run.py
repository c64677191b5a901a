"""Run one benchmark workload in a fresh process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  Exits non-zero, printing no
result, when the program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SRC, WORK, program_available  # noqa: E402

WORKLOADS = ("sweep", "serve", "runtime")
#: Hard stop well inside the 180 s a run may take.
DEADLINE_S = 170


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline(f"run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    # Unwind, so the workload stops the processes it started.
    raise _Deadline(f"stopped by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not program_available():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(DEADLINE_S)
    if args.workload == "sweep":
        import sweep as workload
    elif args.workload == "serve":
        import serve as workload
    else:
        import runtime as workload
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = outcome["per_layer"] if args.trace else outcome["end_to_end"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        print(f"error: undeclared metrics {unknown}", file=sys.stderr)
        return 3
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in measured and not args.trace:
            print(f"error: workload did not measure {name}", file=sys.stderr)
            return 3
        # A layer the workload does not exercise did no work: 0.
        metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": metric["unit"]}
    print(json.dumps(outcome.get("notes", {}), sort_keys=True), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": bool(outcome["correct"]),
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
