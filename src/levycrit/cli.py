"""Command-line surface: reproducible classification and diagnostic runs.

One binary, subcommand style. Every report embeds the fully resolved
configuration, the seed (default 0, always printed), and the library
version; re-running a report's embedded config reproduces the report bit
for bit apart from the timestamp. Output is JSON for structured reports
and CSV for sequences; nothing binary.

One table, ``COMMANDS``, declares each subcommand: its help, its subject
(a ``triplet``, a ``law`` or none), its run options as ``Option(key,
cast, default)`` and its run function. The parser's ``--key`` flags, their
``--help`` defaults and the report's ``options`` all come from that
table. One driver, ``_run``, serves every command: it loads ``--config``
(a plain config or a previous report), resolves the subject (inline
``--family`` flags, else the config's entry), each run option (flag >
the config's ``options:`` > default) and the seed (flag > config > 0),
reading each once through ``config._read`` so that a bad value is a
config error, runs the command, and builds and emits the report.

Exit codes: 0 decided/success, 1 usage or config error (bad numbers
included), 2 Unknown classification (or demo expectation mismatch), 3
numeric failure or any other unexpected error, reported in one line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from typing import Any, Callable, NamedTuple

from . import __version__, criteria, discretize, measures, network, powerint, simulate, tails
from .config import (
    ConfigError,
    Option,
    _read,
    boolean,
    integer,
    law_from_config,
    load_config,
    number,
    resolve_law_config,
    resolve_triplet_config,
    triplet_from_config,
)
from .criteria import classify, inverse_cubic_lattice_criterion
from .discretize import convergence_report, jensen_gap
from .measures import (
    DomainError,
    NumericError,
    make_multi_index_lattice,
    make_stable_triplet,
    make_walk_triplet,
)
from .network import (
    dyadic_energy_bound,
    flow_energy,
    resistance_profile,
    verify_flow,
)
from .simulate import sojourn_estimate, even_chain_criterion
from .verdicts import Classification

STABLE_SWEEP_ALPHAS = (0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 1.75)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
EXIT_NUMERIC = 3

#: the library modules whose public numeric constants every report records
LIBRARY_MODULES = (powerint, tails, measures, criteria, network, discretize, simulate)


def _clean(value):
    """JSON-safe copy: infinities become the strings 'inf' / '-inf'."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def numeric_defaults() -> dict:
    """Every public numeric constant of ``LIBRARY_MODULES``, keyed by its name
    in lower case: the truncations, tolerances and caps that bound a run,
    read from the code so that a report records each one."""
    return {name.lower(): value for module in LIBRARY_MODULES
            for name, value in vars(module).items()
            if name.isupper() and not name.startswith("_")
            and isinstance(value, (int, float)) and not isinstance(value, bool)}


def _emit(report: dict, args, text: str, csv_name: str | None):
    """Write report.json (and ``text`` as ``csv_name``) under --out, then print
    the JSON, or the CSV under --format csv, or a command's own ``text``
    when it has no ``csv_name``."""
    body = json.dumps(report, indent=2, sort_keys=True)
    files = {"report.json": body + "\n"}
    if csv_name and text:
        files[csv_name] = text
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(content)
    print(text if text and (csv_name is None or args.format == "csv") else body + "\n", end="")


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# casts and resolution


def _numbers(cast):
    """Cast of a comma-separated string (a flag) or a sequence (a config)."""
    return lambda raw: [cast(x) for x in (raw.split(",") if isinstance(raw, str) else raw)]


def _seed(value) -> int:
    """A seed: a nonnegative integer (numpy's generators refuse a negative one)."""
    seed = integer(value)
    if seed < 0:
        raise ValueError(f"{seed} is negative")
    return seed


def _subject_config(kind: str, args, cfg: dict) -> dict:
    """The resolved ``law`` or ``triplet`` config: inline --family flags,
    else the config's own entry. A law stands for a triplet with no
    Gaussian part; the stable family is a triplet shortcut."""
    inline = None
    if getattr(args, "family", None):
        inline = {k: getattr(args, k) for k in LAW_FLAGS if getattr(args, k) is not None}
    if kind == "triplet":
        if inline is not None and inline["family"] == "stable":
            return resolve_triplet_config(inline)
        if inline is None and "triplet" in cfg:
            return resolve_triplet_config(cfg["triplet"])
    law = inline if inline is not None else cfg.get("law")
    if law is None:
        raise ConfigError(f"no {kind} specified: pass --config or --family flags")
    if kind == "law":
        return resolve_law_config(law)
    return resolve_triplet_config({"gaussian_coefficient": 0.0, "law": law})


# ---------------------------------------------------------------------------
# run functions: (subject, options, args) -> (results, exit code, text, csv name)


def _analyze(triplet, options, args):
    verdict = classify(triplet, unimodal=True if options["unimodal_override"] else None)
    unknown = verdict.classification is Classification.UNKNOWN
    return verdict.to_dict(), EXIT_UNKNOWN if unknown else EXIT_OK, "", None


def _flow(law, options, args):
    verification = verify_flow(options["i_max"])
    energy = flow_energy(law, options["energy_level"])
    bound = dyadic_energy_bound(law)
    chain_ok = (not math.isfinite(energy.hi)) or energy.hi <= bound.hi * (1 + 1e-12) + 1e-9
    results = {
        "verification": verification.to_dict(),
        "energy": energy.to_dict(),
        "energy_bound": bound.to_dict(),
        "bound_chain_ok": bool(chain_ok),
    }
    return results, EXIT_OK if verification.passed and chain_ok else EXIT_NUMERIC, "", None


def _resistance(law, options, args):
    profile = resistance_profile(law, options["radii"])
    rows = [[r["radius"], f"{r['r_eff']:.12g}", f"{r['lower']:.12g}", f"{r['upper']:.12g}"]
            for r in profile.rows()]
    text = _csv(["radius", "r_eff", "lower", "upper"], rows)
    return profile.to_dict(), EXIT_OK, text, "resistance.csv"


def _discretize(law, options, args):
    table = convergence_report(law, options["deltas"], h_radius=options["h_radius"])
    results = {"convergence": table.to_dict()}
    try:
        results["jensen"] = jensen_gap(law).to_dict()
    except (DomainError, NumericError) as exc:
        results["jensen"] = {"skipped": str(exc)}
    return results, EXIT_OK, table.to_csv(), "convergence.csv"


def _simulate(law, options, args):
    stats = sojourn_estimate(law, options["window"], options["horizon"], options["replicas"],
                             args.seed, keep_replicas=bool(args.out))
    rows = [[r["replica"], r["sojourn"], f"{r['max_excursion']:.12g}", r["returns"]]
            for r in stats.replica_rows]
    text = _csv(["replica", "sojourn", "max_excursion", "returns"], rows) if args.out else ""
    return stats.to_dict(), EXIT_OK, text, "replicas.csv"


def _stable_sweep(options):
    rows = []
    for alpha in STABLE_SWEEP_ALPHAS:
        verdict = classify(make_stable_triplet(alpha, 1.0))
        got = verdict.classification.value
        expected = "transient" if alpha < 1.0 else "recurrent"
        rows.append({"alpha": alpha, "classification": got, "conflict": verdict.conflict,
                     "expected": expected, "ok": got == expected and not verdict.conflict})
    lines = ["alpha   classification  expected    ok"]
    lines += [f"{r['alpha']:<7g} {r['classification']:<15s} {r['expected']:<11s} "
              f"{'PASS' if r['ok'] else 'FAIL'}" for r in rows]
    lines.append(f"{sum(r['ok'] for r in rows)}/{len(rows)} classified correctly")
    # the sweep's alphas are fixed: the report records them, not alpha/beta
    options.clear()
    options["alphas"] = list(STABLE_SWEEP_ALPHAS)
    return {"rows": rows}, lines, rows


def _multi_index(options):
    alpha, beta = options["alpha"], options["beta"]
    ic = inverse_cubic_lattice_criterion(make_multi_index_lattice(alpha, beta))
    ec = even_chain_criterion(alpha, beta)
    verdict = classify(make_walk_triplet(make_multi_index_lattice(alpha, beta, normalize=True)))
    checks = [
        ("inverse_cubic", ic.status.value,
         "converges" if max(alpha, beta) < 1.0 else "diverges"),
        ("even_chain", ec.status.value,
         "converges" if alpha < 1.0 else "inconclusive"),
        ("classification", verdict.classification.value,
         "transient" if min(alpha, beta) < 1.0 else "recurrent"),
    ]
    rows = [{"check": name, "got": got, "expected": want, "ok": got == want}
            for name, got, want in checks]
    lines = [f"multi-index demo: alpha={alpha:g} beta={beta:g}",
             "check           got           expected      ok"]
    lines += [f"{r['check']:<15s} {r['got']:<13s} {r['expected']:<13s} "
              f"{'PASS' if r['ok'] else 'FAIL'}" for r in rows]
    results = {
        "rows": rows,
        "inverse_cubic": ic.to_dict(),
        "even_chain": ec.to_dict(),
        "classification": verdict.to_dict(),
    }
    return results, lines, rows


DEMOS = {"stable-sweep": _stable_sweep, "multi-index": _multi_index}


def _demo(_, options, args):
    results, lines, rows = DEMOS[args.name](options)
    options["name"] = args.name
    code = EXIT_OK if all(r["ok"] for r in rows) else EXIT_UNKNOWN
    return results, code, "\n".join(lines) + "\n", None


# ---------------------------------------------------------------------------
# the command table and its driver


class Command(NamedTuple):
    """One subcommand. ``run`` may record in its ``options`` what it ran
    beyond the declared ones, as the demo records its name."""

    help: str
    subject: str | None  # "triplet", "law" or None
    options: tuple  # of Option
    run: Callable[[Any, dict, argparse.Namespace], tuple]


COMMANDS = {
    "analyze": Command("run all criteria and classify", "triplet",
                       (Option("unimodal_override", boolean, False, flag="unimodal"),), _analyze),
    "flow": Command("verify the dyadic flow and bound its energy", "law",
                    (Option("i_max", integer, 10), Option("energy_level", integer, 14)), _flow),
    "resistance": Command("effective-resistance profile", "law",
                          (Option("radii", _numbers(integer), "8,16,32,64,128,256"),),
                          _resistance),
    "discretize": Command("bin a density and report convergence", "law",
                          (Option("deltas", _numbers(number), "1,0.5,0.25,0.125"),
                           Option("h_radius", number, 1.0)), _discretize),
    "simulate": Command("Monte Carlo sojourn diagnostics", "law",
                        (Option("window", number, 5.0), Option("horizon", integer, 10 ** 4),
                         Option("replicas", integer, 200)), _simulate),
    "demo": Command("canned scenarios with pass/fail tables", None,
                    (Option("alpha", number, 0.5), Option("beta", number, 1.5)), _demo),
}

SEED = Option("seed", _seed, 0)

LAW_FLAGS = {
    "family": {"help": "inline law/triplet family"},
    **{key: {"type": float} for key in ("alpha", "beta", "gamma", "sigma")},
    **{key: {"action": "store_true", "default": None} for key in ("normalize", "unimodal")},
}


def _run(args) -> int:
    """Resolve the command's subject, run options and seed; run it; emit its report."""
    command = COMMANDS[args.command]
    cfg = load_config(args.config) if args.config else {}
    if "tool" in cfg and "config" in cfg:  # a previous report: rerun its embedded config
        cfg = cfg["config"]
    # run options and seed: flag > the config's entry > default
    flags = {opt.key: getattr(args, opt.dest) for opt in command.options}
    picked = _read(cfg, "config", (
        Option("options", lambda given: _read(given, "'options'", command.options, flags), {}),
        SEED,
    ), {"seed": args.seed})
    options, args.seed = picked["options"], picked["seed"]
    run_cfg: dict = {"command": args.command}
    subject = None
    if command.subject:
        run_cfg[command.subject] = _subject_config(command.subject, args, cfg)
        build = triplet_from_config if command.subject == "triplet" else law_from_config
        subject = build(run_cfg[command.subject])
    results, code, text, csv_name = command.run(subject, options, args)
    run_cfg.update(seed=args.seed, options=options, defaults=numeric_defaults())
    report = {
        "tool": "levycrit",
        "version": __version__,
        "command": args.command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": args.seed,
        "config": _clean(run_cfg),
        "results": _clean(results),
    }
    _emit(report, args, text, csv_name)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levycrit",
        description="Transience/recurrence classification for one-dimensional "
        "symmetric Levy processes and random walks",
    )
    parser.add_argument("--version", action="version", version=f"levycrit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == "demo":
            p.add_argument("name", choices=list(DEMOS))
        p.add_argument("--config", help="YAML config file (or a previous report.json)")
        p.add_argument("--seed", help="RNG seed (default 0, or the embedded config's seed)")
        p.add_argument("--out", help="output directory for report.json and CSVs")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        flags = dict(LAW_FLAGS) if command.subject else {}
        for opt in command.options:
            flags[opt.dest] = {**flags.get(opt.dest, {}),
                               "help": f"run option '{opt.key}' (default: {opt.default})"}
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args)
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # CLI boundary: one line and exit 3, never a traceback
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
