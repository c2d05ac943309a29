"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/report.py --seeds 1-10                       # all workloads
    python3 bench/report.py --seeds 1-5 --workloads classify --trace 1

Runs ``bench/run.py`` once per (workload, seed), one at a time, from the
current directory (the root of a checkout). For each workload it prints
every declared metric by name and unit with its median, quartiles and
spread (quartile distance over median, as ``statistics.quantiles`` gives
them), the end-to-end bound, and the failed and wrong operations. The
summary and every run's result go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(".bench_out", "report.json"))
    args = parser.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["failures"] = [ln.strip() for ln in lines if ln.strip().startswith("FAIL")]
            runs.append(result)
        if not runs:
            continue
        print(f"{workload}: {len(runs)} runs, correct in {sum(r['correct'] for r in runs)}, "
              f"failed ops {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        rows = {}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": rel, "bound": m.get("bound"), "values": values}
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:<36} {med:>12.6g} {m['unit']:<6} "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {rel:.3f}{bound}")
        for line in sorted({f for r in runs for f in r["failures"]}):
            print(f"  {line[:200]}")
        summary[workload] = {"metrics": rows, "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
