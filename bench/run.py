"""levycrit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload classify --seed 1 --seconds 25 --trace 0

Run from the root of a levycrit checkout; the package is imported from its
``src`` directory. Every measurement runs in a fresh child interpreter,
one at a time:

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold
  ``import levycrit``), ``wall_s`` (median warm in-process pass),
  ``cli_s`` (the workload's CLI command set, each a fresh
  ``python -m levycrit.cli``) and ``peak_rss_mb`` (peak RSS of the pass
  child);
* ``--trace 1`` reports the per-layer metrics from a traced pass and a
  traced CLI set, plus ``trace.overhead_s`` (traced minus untraced pass).

Every operation's output is checked. The last stdout line is the JSON
result; details (provenance, percentiles, per-op times, failures) are
printed above it and written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import CLI, SCALES, SIZES, WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170.0  # every child is killed if the run would exceed this
OUT_DIR = ".bench_out"


class BenchError(RuntimeError):
    """A measurement could not be made; the run prints no result."""


class Runner:
    """Runs children from the checkout root under one deadline."""

    def __init__(self, root: str):
        self.root = root
        self.deadline = time.monotonic() + RUN_BUDGET_S
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("run budget exhausted")
        return left

    def child(self, mode: str, *args) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, *map(str, args)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {mode} timed out")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def cli(self, argv, limit_s: float) -> tuple:
        """(seconds, exit code or None on overrun, stderr tail) of one fresh
        CLI process."""
        cmd = [sys.executable, "-m", "levycrit.cli", *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=min(limit_s, self._timeout()))
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, ""
        return time.perf_counter() - t0, proc.returncode, proc.stderr[-500:]


def cli_argv(command, tmp: str) -> list:
    """Write the command's generated config files; fill in their directory."""
    for name, cfg in command.files.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh)
    return [a.replace("{dir}", tmp) for a in command.argv]


def exit_failures(command, code, stderr: str) -> list:
    """Exit code 0 passes; a code reporting a failed check is wrong; any
    other code, or no exit within the time limit (``None``), is no answer."""
    if code == 0:
        return []
    if code is None:
        return [("no-answer", f"no exit within {command.limit_s:g} s")]
    kind = "wrong" if code in command.wrong_codes else "no-answer"
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return [(kind, f"exit code {code}: {last[:300]}")]


def tail_percentile(samples):
    """(p, value): the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return p, sorted(samples)[max(0, math.ceil(p / 100.0 * n) - 1)]


def summary(samples) -> dict:
    pct = tail_percentile(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "tail": None if pct is None else {"p": pct[0], "value": pct[1]},
            "samples": list(samples)}


def host_state() -> dict:
    """CPU steal so far and the time of a fixed pure-Python loop: a run on a
    shared machine can be slow for reasons outside the program, and these
    two show it."""
    steal = None
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    t0 = time.perf_counter()
    sum(i * i for i in range(10 ** 6))
    return {"steal_s": steal, "loop_s": time.perf_counter() - t0}


def provenance(root: str, workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "levycrit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_cli_set(runner: Runner, args, traced: bool, spans_prefix: str):
    """One pass over the workload's CLI commands; returns per-command records."""
    tmp = os.path.join(runner.root, OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    records = []
    try:
        for k, command in enumerate(CLI[args.workload](args.seed, args.scale)):
            argv = cli_argv(command, tmp)
            if traced:
                res = runner.child("cli", "--spans", f"{spans_prefix}-cli{k}.json", "--", *argv)
                rec = {"name": command.name, "import": res["import"], "layers": res["layers"],
                       "counts": res["counts"],
                       "failures": exit_failures(command, res["exit_code"], res["error"])}
            else:
                dt, code, err = runner.cli(argv, command.limit_s)
                rec = {"name": command.name, "s": dt,
                       "failures": exit_failures(command, code, err)}
            records.append(rec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return records


def tally(op_failures: dict) -> dict:
    """correct / attempted / failed over operations and CLI commands."""
    failed = sum(bool(f) for f in op_failures.values())
    wrong = any(kind == "wrong" for f in op_failures.values() for kind, _ in f)
    return {"correct": not wrong, "attempted": len(op_failures), "failed": failed}


def measure(runner: Runner, args) -> tuple:
    setup: list = []

    def sample_setup():
        """Cold imports, taken before, between and after the other phases so
        that slow and fast spells of a shared machine reach every metric."""
        for _ in range(SIZES[args.scale]["setup_samples"]):
            setup.append(runner.child("import")["import_s"])

    sample_setup()
    wall = runner.child("wall", "--workload", args.workload, "--seed", args.seed,
                        "--seconds", args.seconds, "--scale", args.scale)
    sample_setup()
    cli = run_cli_set(runner, args, False, "")
    sample_setup()
    failures = {op["name"]: op["failures"] for op in wall["ops"]}
    failures.update({"cli " + c["name"]: c["failures"] for c in cli})
    cli_s = sum(c["s"] for c in cli)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall["passes"]),
        "cli_s": cli_s,
        "peak_rss_mb": wall["peak_rss_mb"],
    }
    op_samples = [t for op in wall["ops"] for t in op["s"]]
    detail = {
        "timings": {"setup_s": summary(setup), "wall_s": summary(wall["passes"]),
                    "cli_s": summary([cli_s]), "op_s": summary(op_samples),
                    "cli_command_s": {c["name"]: c["s"] for c in cli}},
        "ops": {op["name"]: statistics.median(op["s"]) for op in wall["ops"]},
        "import_stages": wall["import"],
        "software": wall["provenance"],
    }
    return metrics, failures, detail


def measure_traced(runner: Runner, args) -> tuple:
    from tracer import layer_metrics, merge

    prefix = os.path.join(runner.root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}")
    traced = runner.child("trace", "--workload", args.workload, "--seed", args.seed,
                          "--scale", args.scale, "--spans", prefix + "-wall.json")
    cli = run_cli_set(runner, args, True, prefix)
    sweep = runner.child("sweep")
    layers, counts = merge([traced] + cli)
    metrics = layer_metrics(layers, counts)
    stages = [traced["import"]] + [c["import"] for c in cli]
    for key in ("import.total_s", "import.scipy_s", "import.mpmath_s"):
        metrics[key] = statistics.median(s[key] for s in stages)
    metrics["cli.stable_sweep.t1_s"] = sweep["cli.stable_sweep.t1_s"]
    metrics["cli.stable_sweep.t2_s"] = sweep["cli.stable_sweep.t2_s"]
    metrics["trace.overhead_s"] = traced["traced_s"] - traced["untraced_s"]
    failures = {name: traced["failures"].get(name, []) for name in traced["op_names"]}
    failures.update({"cli " + c["name"]: c["failures"] for c in cli})
    for t in (1, 2):
        code = sweep[f"exit_code_t{t}"]
        failures[f"demo stable-sweep threads={t}"] = (
            [] if code == 0 else [("no-answer", f"demo stable-sweep exit code {code}")])
    detail = {"untraced_pass_s": traced["untraced_s"], "traced_pass_s": traced["traced_s"],
              "peak_rss_mb": traced["peak_rss_mb"], "spans": prefix + "-*.json",
              "software": traced["provenance"]}
    return metrics, failures, detail


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time for the repeated in-process passes (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="'smoke' runs the reduced sizes of the harness smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "levycrit", "__init__.py")):
        print("error: run from the root of a levycrit checkout (no src/levycrit here)",
              file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    runner = Runner(root)
    host_before = host_state()
    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, failures, detail = measure_fn(runner, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    result = tally(failures)
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}

    print(f"levycrit benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    timings = detail.get("timings", {})
    for name, unit in units.items():
        extra = ""
        if name in timings:
            t = timings[name]
            tail = "n/a (<11 samples)" if t["tail"] is None else \
                f"p{t['tail']['p']}={t['tail']['value']:.4f}"
            extra = f"  median of n={t['n']}, {tail}"
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}{extra}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<36} {frac:>14.6g} ratio  ops={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, fails in failures.items():
        for kind, msg in fails:
            print(f"  FAIL [{kind}] {name}: {msg}")
    host_after = host_state()
    if host_before["steal_s"] is not None and host_after["steal_s"] is not None:
        host_after["steal_s"] -= host_before["steal_s"]  # steal during the run
    host = {"cpu_steal_s": host_after["steal_s"],
            "loop_s": [host_before["loop_s"], host_after["loop_s"]]}
    steal = "n/a" if host["cpu_steal_s"] is None else f"{host['cpu_steal_s']:.2f} s"
    print(f"  host: cpu steal {steal} during the run; reference loop "
          f"{host['loop_s'][0]:.4f} s before, {host['loop_s'][1]:.4f} s after")
    record = {"provenance": provenance(root, args.workload, args.seed), "host": host, **detail,
              "failed_frac": frac, "failures": failures, **result}
    print("detail: " + json.dumps(record, default=str))
    path = os.path.join(root, OUT_DIR,
                        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
