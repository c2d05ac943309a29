"""One measurement in a fresh interpreter; prints one JSON line.

Modes (``python bench/child.py <mode> ...``, with ``src`` on PYTHONPATH):

* ``import``: time ``import levycrit``;
* ``wall``: warm up on the smoke-size workload, then time full passes
  over the workload's operations for ``--seconds`` (at least one), and
  report every check and the peak RSS of this process;
* ``trace``: one untraced and one traced full pass, with per-layer spans;
* ``cli``: one traced CLI command (``levycrit.cli.main``), stdout dropped;
* ``sweep``: ``demo stable-sweep`` at LEVYCRIT_THREADS=1 and 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def staged_import(tracer=None) -> dict:
    """Import levycrit's dependencies in stages and levycrit itself.

    With a tracer, scipy is wrapped between the scipy and levycrit stages.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    t2 = time.perf_counter()
    if tracer is not None:
        from tracer import patch_scipy

        patch_scipy(tracer)
    t3 = time.perf_counter()
    import mpmath  # noqa: F401

    t4 = time.perf_counter()
    import levycrit

    t5 = time.perf_counter()
    check_source(levycrit)
    return {
        "import.numpy_s": t1 - t0,
        "import.scipy_s": t2 - t1,
        "import.mpmath_s": t4 - t3,
        "import.total_s": (t5 - t0) - (t3 - t2),
    }


def check_source(levycrit):
    """The package must come from ``src`` of the checkout being measured."""
    want = os.path.realpath(os.path.join(os.getcwd(), "src", "levycrit"))
    got = os.path.realpath(os.path.dirname(levycrit.__file__))
    if got != want:
        raise SystemExit(f"levycrit imported from {got}, expected {want}")


def provenance() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_pass(ops) -> tuple:
    """Time each operation; returns (pass seconds, op seconds, failures)."""
    times, failures = {}, {}
    t0 = time.perf_counter()
    for op in ops:
        s = time.perf_counter()
        fails = op.run()
        times[op.name] = time.perf_counter() - s
        if fails:
            failures[op.name] = fails
    return time.perf_counter() - t0, times, failures


def workload_ops(args) -> list:
    """The timed operations, after an untimed smoke-size warm-up pass."""
    from workloads import OPS

    run_pass(OPS[args.workload](args.seed, "smoke"))
    return OPS[args.workload](args.seed, args.scale)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def mode_import(args) -> dict:
    t0 = time.perf_counter()
    import levycrit

    dt = time.perf_counter() - t0
    check_source(levycrit)
    return {"import_s": dt}


def mode_wall(args) -> dict:
    stages = staged_import()
    ops = workload_ops(args)
    passes, op_times, failures = [], {op.name: [] for op in ops}, {}
    start = time.perf_counter()
    while True:
        dt, times, fails = run_pass(ops)
        passes.append(dt)
        for name, t in times.items():
            op_times[name].append(t)
        for name, f in fails.items():
            failures.setdefault(name, f)
        if time.perf_counter() - start + dt > args.seconds:
            break
    return {
        "import": stages,
        "passes": passes,
        "ops": [{"name": op.name, "s": op_times[op.name],
                 "failures": failures.get(op.name, [])} for op in ops],
        "peak_rss_mb": peak_rss_mb(),
        "provenance": provenance(),
    }


def mode_trace(args) -> dict:
    from tracer import Tracer, patch_levycrit

    tracer = Tracer()
    stages = staged_import(tracer)
    ops = workload_ops(args)
    plain, _, _ = run_pass(ops)
    patch_levycrit(tracer)
    tracer.enabled = True
    traced, _, failures = run_pass(ops)
    tracer.enabled = False
    tracer.dump(args.spans)
    return {
        "import": stages,
        "untraced_s": plain,
        "traced_s": traced,
        "layers": tracer.layers(),
        "counts": tracer.counts,
        "op_names": [op.name for op in ops],
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
        "provenance": provenance(),
    }


def mode_cli(args) -> dict:
    from tracer import Tracer, patch_levycrit

    tracer = Tracer()
    stages = staged_import(tracer)
    import levycrit.cli

    patch_levycrit(tracer)
    tracer.enabled = True
    error = ""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            code = levycrit.cli.main(args.argv)
        except Exception as exc:  # an uncaught exception exits 1, as under ``python -m``
            code, error = 1, f"{type(exc).__name__}: {exc}"
    tracer.enabled = False
    tracer.dump(args.spans)
    return {"import": stages, "exit_code": code, "error": error, "layers": tracer.layers(),
            "counts": tracer.counts}


def mode_sweep(args) -> dict:
    staged_import()
    import levycrit.cli

    out = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for threads in (1, 2):
            os.environ["LEVYCRIT_THREADS"] = str(threads)
            t0 = time.perf_counter()
            code = levycrit.cli.main(["demo", "stable-sweep"])
            out[f"cli.stable_sweep.t{threads}_s"] = time.perf_counter() - t0
            out[f"exit_code_t{threads}"] = code
    return out


MODES = {"import": mode_import, "wall": mode_wall, "trace": mode_trace,
         "cli": mode_cli, "sweep": mode_sweep}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spans", default=os.devnull, help="file for the raw spans")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.argv = argv[cut + 1:]  # CLI arguments (cli mode)
    print(json.dumps(MODES[args.mode](args)))


if __name__ == "__main__":
    main()
