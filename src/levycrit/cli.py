"""Command-line surface: reproducible classification and diagnostic runs.

One binary, subcommand style. Every report embeds the fully resolved
configuration, the seed (default 0, always printed), and the library
version; re-running a report's embedded config reproduces the report bit
for bit apart from the timestamp. Output is JSON for structured reports
and CSV for sequences; nothing binary.

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

from . import __version__
from .config import (
    ConfigError,
    law_from_config,
    load_config,
    resolve_law_config,
    resolve_triplet_config,
    triplet_from_config,
)
from .criteria import classify, inverse_cubic_lattice_criterion
from .discretize import convergence_report, jensen_gap
from .measures import DomainError, NumericError, make_stable_triplet, make_walk_triplet
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
    """Library-level tolerances and truncations, recorded for provenance."""
    from .criteria import CF_GRID, SATO_SHEPP_POINTS
    from .discretize import (
        DRIFT_TOL,
        MAX_BIN_QUADS,
        MAX_EXPECTATION_LAGS,
        POWER_TAIL_REACH_CAP,
        REACH_MASS_BUDGET,
    )
    from .measures import (
        CHAR_EXPONENT_LATTICE_CUTOFF,
        LATTICE_SERIES_CUTOFF,
        PANEL_LOG_STEP,
        PROBABILITY_TOL,
    )
    from .network import (
        FLOW_ENERGY_MAX_LEVEL,
        PROFILE_FLAT_TOL,
        PROFILE_GROWTH_RATIO,
        RESISTANCE_MAX_RADIUS,
        VERIFY_FLOW_MAX_LEVEL,
    )
    from .powerint import COS_TAIL_SWITCH, PANEL_CAP, PANEL_REL_TOL
    from .simulate import (
        GROWTH_FLAT,
        GROWTH_STEEP,
        MAX_SOJOURN_HORIZON,
        MAX_SOJOURN_STEPS,
        TABLE_SIZE,
    )

    return {
        "probability_tol": PROBABILITY_TOL,
        "cf_exponent_grid": list(CF_GRID),
        "sato_shepp_points": SATO_SHEPP_POINTS,
        "panel_rel_tol": PANEL_REL_TOL,
        "panel_cap": PANEL_CAP,
        "panel_log_step": PANEL_LOG_STEP,
        "lattice_series_cutoff": LATTICE_SERIES_CUTOFF,
        "char_exponent_lattice_cutoff": CHAR_EXPONENT_LATTICE_CUTOFF,
        "cos_tail_switch": COS_TAIL_SWITCH,
        "max_bin_quads": MAX_BIN_QUADS,
        "drift_tol": DRIFT_TOL,
        "reach_mass_budget": REACH_MASS_BUDGET,
        "power_tail_reach_cap": POWER_TAIL_REACH_CAP,
        "max_expectation_lags": MAX_EXPECTATION_LAGS,
        "profile_flat_tol": PROFILE_FLAT_TOL,
        "profile_growth_ratio": PROFILE_GROWTH_RATIO,
        "resistance_max_radius": RESISTANCE_MAX_RADIUS,
        "verify_flow_max_level": VERIFY_FLOW_MAX_LEVEL,
        "flow_energy_max_level": FLOW_ENERGY_MAX_LEVEL,
        "sampler_table_size": TABLE_SIZE,
        "sojourn_growth_flat": GROWTH_FLAT,
        "sojourn_growth_steep": GROWTH_STEEP,
        "max_sojourn_horizon": MAX_SOJOURN_HORIZON,
        "max_sojourn_steps": MAX_SOJOURN_STEPS,
    }


def _report(command: str, seed: int, config: dict, results: dict) -> dict:
    config = dict(config)
    config.setdefault("defaults", numeric_defaults())
    return {
        "tool": "levycrit",
        "version": __version__,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": seed,
        "config": _clean(config),
        "results": _clean(results),
    }


def _emit(report: dict, args, csv_text: str = "", csv_name: str = "table.csv"):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if csv_text:
            with open(os.path.join(args.out, csv_name), "w", encoding="utf-8") as fh:
                fh.write(csv_text)
    if args.format == "csv" and csv_text:
        print(csv_text, end="")
    else:
        print(text)


def _load_run_config(args) -> dict:
    """Config from --config (plain config or a previous report) plus flags."""
    cfg: dict = {}
    if args.config:
        loaded = load_config(args.config)
        if "tool" in loaded and "config" in loaded:  # a previous report
            cfg = dict(loaded["config"])
        else:
            cfg = dict(loaded)
    return cfg


def _opt(args, cfg: dict, key: str, default):
    """Explicit flag > embedded config option > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    options = cfg.get("options", {}) or {}
    if key in options and options[key] is not None:
        return options[key]
    return default


def _seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.get("seed", 0))


def _inline_law_config(args) -> dict | None:
    if not getattr(args, "family", None):
        return None
    fam = args.family
    cfg: dict = {"family": fam}
    for key in ("alpha", "beta", "gamma", "sigma"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "normalize", False):
        cfg["normalize"] = True
    if getattr(args, "unimodal", False):
        cfg["unimodal"] = True
    return cfg


def _law_config(args, cfg: dict, *, key: str = "law") -> dict:
    inline = _inline_law_config(args)
    if inline is not None:
        return resolve_law_config(inline)
    if key in cfg and cfg[key] is not None:
        return resolve_law_config(cfg[key])
    raise ConfigError(f"no {key} specified: pass --config or --family flags")


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    cfg = _load_run_config(args)
    inline = _inline_law_config(args)
    if inline is not None and inline.get("family") == "stable":
        trip_cfg = resolve_triplet_config(inline)
    elif inline is not None:
        trip_cfg = resolve_triplet_config({"gaussian_coefficient": 0.0, "law": inline})
    elif "triplet" in cfg:
        trip_cfg = resolve_triplet_config(cfg["triplet"])
    elif "law" in cfg:
        trip_cfg = resolve_triplet_config({"gaussian_coefficient": 0.0, "law": cfg["law"]})
    else:
        raise ConfigError("analyze needs a 'triplet' or 'law' config")
    triplet = triplet_from_config(trip_cfg)
    unimodal = True if getattr(args, "unimodal", False) else None
    verdict = classify(triplet, unimodal=unimodal)
    seed = _seed(args, cfg)
    run_cfg = {
        "command": "analyze",
        "seed": seed,
        "triplet": trip_cfg,
        "options": {"unimodal_override": bool(getattr(args, "unimodal", False))},
    }
    report = _report("analyze", seed, run_cfg, verdict.to_dict())
    _emit(report, args)
    return EXIT_OK if verdict.classification is not Classification.UNKNOWN else EXIT_UNKNOWN


def cmd_flow(args) -> int:
    cfg = _load_run_config(args)
    law_cfg = _law_config(args, cfg)
    law = law_from_config(law_cfg)
    i_max = int(_opt(args, cfg, "i_max", 10))
    energy_level = int(_opt(args, cfg, "energy_level", 14))
    w_max = int(_opt(args, cfg, "w_max", 10 ** 6))
    verification = verify_flow(i_max)
    energy = flow_energy(law, energy_level)
    bound = dyadic_energy_bound(law, w_max)
    chain_ok = (not math.isfinite(energy.hi)) or energy.hi <= bound.hi * (1 + 1e-12) + 1e-9
    seed = _seed(args, cfg)
    run_cfg = {
        "command": "flow",
        "seed": seed,
        "law": law_cfg,
        "options": {
            "i_max": i_max,
            "energy_level": energy_level,
            "w_max": w_max,
        },
    }
    results = {
        "verification": verification.to_dict(),
        "energy": energy.to_dict(),
        "energy_bound": bound.to_dict(),
        "bound_chain_ok": bool(chain_ok),
    }
    report = _report("flow", seed, run_cfg, results)
    _emit(report, args)
    return EXIT_OK if verification.passed and chain_ok else EXIT_NUMERIC


def cmd_resistance(args) -> int:
    cfg = _load_run_config(args)
    law_cfg = _law_config(args, cfg)
    law = law_from_config(law_cfg)
    raw_radii = _opt(args, cfg, "radii", "8,16,32,64,128,256")
    radii = (
        [int(r) for r in raw_radii.split(",")]
        if isinstance(raw_radii, str)
        else [int(r) for r in raw_radii]
    )
    profile = resistance_profile(law, radii)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["radius", "r_eff", "lower", "upper"])
    for row in profile.rows():
        writer.writerow([row["radius"], f"{row['r_eff']:.12g}",
                         f"{row['lower']:.12g}", f"{row['upper']:.12g}"])
    seed = _seed(args, cfg)
    run_cfg = {
        "command": "resistance",
        "seed": seed,
        "law": law_cfg,
        "options": {"radii": radii},
    }
    report = _report("resistance", seed, run_cfg, profile.to_dict())
    _emit(report, args, csv_text=buf.getvalue(), csv_name="resistance.csv")
    return EXIT_OK


def cmd_discretize(args) -> int:
    cfg = _load_run_config(args)
    law_cfg = _law_config(args, cfg)
    law = law_from_config(law_cfg)
    raw_deltas = _opt(args, cfg, "deltas", "1,0.5,0.25,0.125")
    deltas = (
        [float(d) for d in raw_deltas.split(",")]
        if isinstance(raw_deltas, str)
        else [float(d) for d in raw_deltas]
    )
    h_radius = float(_opt(args, cfg, "h_radius", 1.0))
    table = convergence_report(law, deltas, h_radius=h_radius)
    results = {"convergence": table.to_dict()}
    try:
        gap = jensen_gap(law)
        results["jensen"] = gap.to_dict()
    except DomainError as exc:
        results["jensen"] = {"skipped": str(exc)}
    seed = _seed(args, cfg)
    run_cfg = {
        "command": "discretize",
        "seed": seed,
        "law": law_cfg,
        "options": {"deltas": deltas, "h_radius": h_radius},
    }
    report = _report("discretize", seed, run_cfg, results)
    _emit(report, args, csv_text=table.to_csv(), csv_name="convergence.csv")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    law_cfg = _law_config(args, cfg)
    law = law_from_config(law_cfg)
    window = float(_opt(args, cfg, "window", 5.0))
    horizon = int(_opt(args, cfg, "horizon", 10 ** 4))
    replicas = int(_opt(args, cfg, "replicas", 200))
    seed = _seed(args, cfg)
    stats = sojourn_estimate(
        law,
        window,
        horizon,
        replicas,
        seed,
        keep_replicas=bool(args.out),
    )
    csv_text = ""
    if args.out:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["replica", "sojourn", "max_excursion", "returns"])
        for row in stats.replica_rows:
            writer.writerow([row["replica"], row["sojourn"],
                             f"{row['max_excursion']:.12g}", row["returns"]])
        csv_text = buf.getvalue()
    run_cfg = {
        "command": "simulate",
        "seed": seed,
        "law": law_cfg,
        "options": {
            "window": window,
            "horizon": horizon,
            "replicas": replicas,
        },
    }
    report = _report("simulate", seed, run_cfg, stats.to_dict())
    _emit(report, args, csv_text=csv_text, csv_name="replicas.csv")
    return EXIT_OK


def _demo_stable_sweep(args):
    def one(alpha):
        verdict = classify(make_stable_triplet(alpha, 1.0))
        expected = "transient" if alpha < 1.0 else "recurrent"
        return {
            "alpha": alpha,
            "classification": verdict.classification.value,
            "conflict": verdict.conflict,
            "expected": expected,
            "ok": verdict.classification.value == expected and not verdict.conflict,
        }

    rows = [one(alpha) for alpha in STABLE_SWEEP_ALPHAS]
    lines = ["alpha   classification  expected    ok"]
    for r in rows:
        lines.append(
            f"{r['alpha']:<7g} {r['classification']:<15s} {r['expected']:<11s} "
            f"{'PASS' if r['ok'] else 'FAIL'}"
        )
    n_ok = sum(r["ok"] for r in rows)
    lines.append(f"{n_ok}/{len(rows)} classified correctly")
    return rows, "\n".join(lines), all(r["ok"] for r in rows)


def _demo_multi_index(args):
    alpha, beta = args.alpha or 0.5, args.beta or 1.5
    from .measures import make_multi_index_lattice

    law = make_multi_index_lattice(alpha, beta)
    ic = inverse_cubic_lattice_criterion(law)
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
    rows = [
        {"check": name, "got": got, "expected": want, "ok": got == want}
        for name, got, want in checks
    ]
    lines = [f"multi-index demo: alpha={alpha:g} beta={beta:g}",
             "check           got           expected      ok"]
    for r in rows:
        lines.append(
            f"{r['check']:<15s} {r['got']:<13s} {r['expected']:<13s} "
            f"{'PASS' if r['ok'] else 'FAIL'}"
        )
    results = {
        "rows": rows,
        "inverse_cubic": ic.to_dict(),
        "even_chain": ec.to_dict(),
        "classification": verdict.to_dict(),
    }
    return results, "\n".join(lines), all(r["ok"] for r in rows)


def cmd_demo(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.name == "stable-sweep":
        rows, table, ok = _demo_stable_sweep(args)
        results = {"rows": rows}
        run_cfg = {"command": "demo", "seed": seed,
                   "options": {"name": "stable-sweep", "alphas": list(STABLE_SWEEP_ALPHAS)}}
    else:
        results, table, ok = _demo_multi_index(args)
        run_cfg = {"command": "demo", "seed": seed,
                   "options": {"name": "multi-index",
                               "alpha": args.alpha or 0.5, "beta": args.beta or 1.5}}
    print(table)
    report = _report("demo", seed, run_cfg, results)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, law_flags=True):
    parser.add_argument("--config", help="YAML config file (or a previous report.json)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default 0, or the embedded config's seed)")
    parser.add_argument("--out", help="output directory for report.json and CSVs")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    if law_flags:
        parser.add_argument("--family", help="inline law/triplet family")
        parser.add_argument("--alpha", type=float)
        parser.add_argument("--beta", type=float)
        parser.add_argument("--gamma", type=float)
        parser.add_argument("--sigma", type=float)
        parser.add_argument("--normalize", action="store_true")
        parser.add_argument("--unimodal", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levycrit",
        description="Transience/recurrence classification for one-dimensional "
        "symmetric Levy processes and random walks",
    )
    parser.add_argument("--version", action="version", version=f"levycrit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run all criteria and classify")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("flow", help="verify the dyadic flow and bound its energy")
    _add_common(p)
    p.add_argument("--i-max", type=int, default=None, dest="i_max")
    p.add_argument("--energy-level", type=int, default=None, dest="energy_level")
    p.add_argument("--w-max", type=int, default=None, dest="w_max")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("resistance", help="effective-resistance profile")
    _add_common(p)
    p.add_argument("--radii", default=None)
    p.set_defaults(fn=cmd_resistance)

    p = sub.add_parser("discretize", help="bin a density and report convergence")
    _add_common(p)
    p.add_argument("--deltas", default=None)
    p.add_argument("--h-radius", type=float, default=None, dest="h_radius")
    p.set_defaults(fn=cmd_discretize)

    p = sub.add_parser("simulate", help="Monte Carlo sojourn diagnostics")
    _add_common(p)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("demo", help="canned scenarios with pass/fail tables")
    p.add_argument("name", choices=["stable-sweep", "multi-index"])
    _add_common(p, law_flags=False)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
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
