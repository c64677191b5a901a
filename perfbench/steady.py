"""Repeat a workload and compare result sets.

    python3 perfbench/steady.py run --workload sweep --runs 10 --out a.json
    python3 perfbench/steady.py compare a.json b.json

``run`` starts ``run.py`` once per seed (``--first-seed`` onwards), each
in a fresh process and for ``BENCHMARK.json``'s ``run_seconds``, and
prints every metric's median, quartiles and spread (quartile distance
over median) plus the failed share.  Several ``run`` outputs for
different workloads may be merged into one file by passing the same
``--out``.  ``compare`` flags every end-to-end metric
of every workload whose second median is worse than the first by more
than the metric's bound in ``BENCHMARK.json``; a metric whose spread in
either set exceeds its bound is reported as unresolved.  It exits 1 when
anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(values):
    ordered = sorted(values)
    middle = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = middle
    spread = (q3 - q1) / abs(middle) if middle else 0.0
    return {"median": middle, "q1": q1, "q3": q3, "spread": spread}


def command_run(args) -> int:
    spec = _spec()
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace),
        ]
        started = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - started
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["wall_s"] = wall
        results.append(result)
        print(f"seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
    out = Path(args.out)
    merged = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    key = f"{args.workload}{':trace' if args.trace else ''}"
    merged[key] = results
    out.write_text(json.dumps(merged, indent=1) + "\n", encoding="utf-8")
    _print_summary(key, results)
    return 0


def _print_summary(key, results) -> None:
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    walls = [r.get("wall_s", 0.0) for r in results]
    print(
        f"{key}: {len(results)} runs, correct={correct}, "
        f"failed share(s)={sorted(shares)}, run wall {min(walls):.1f}-{max(walls):.1f} s"
    )
    print(f"  {'metric':44} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        s = summarize(values)
        unit = results[0]["metrics"][name]["unit"]
        print(
            f"  {name + ' [' + unit + ']':44} {s['median']:14.6g} {s['q1']:14.6g}"
            f" {s['q3']:14.6g} {s['spread']:8.2%}"
        )


def command_compare(args) -> int:
    spec = _spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    first = json.loads(Path(args.first).read_text(encoding="utf-8"))
    second = json.loads(Path(args.second).read_text(encoding="utf-8"))
    flagged = 0
    for key in sorted(set(first) & set(second)):
        if key.endswith(":trace"):
            continue
        shares = (
            {r["failed"] / r["attempted"] for r in first[key]},
            {r["failed"] / r["attempted"] for r in second[key]},
        )
        if shares[0] != shares[1]:
            print(f"{key}: failed share moved {sorted(shares[0])} -> {sorted(shares[1])}")
            flagged += 1
        for name, metric in bounds.items():
            a = summarize([r["metrics"][name]["value"] for r in first[key]])
            b = summarize([r["metrics"][name]["value"] for r in second[key]])
            change = b["median"] / a["median"] - 1.0 if a["median"] else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok"
            if max(a["spread"], b["spread"]) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                flagged += 1
            print(
                f"{key:8} {name:20} {a['median']:12.6g} -> {b['median']:12.6g}"
                f" ({change:+.1%}, bound {metric['bound']:.0%}) {verdict}"
            )
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload once per seed")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    compare = commands.add_parser("compare", help="flag end-to-end regressions")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)
    return command_run(args) if args.command == "run" else command_compare(args)


if __name__ == "__main__":
    sys.exit(main())
