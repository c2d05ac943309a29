"""Span tracing from outside the package, for the benchmark's traced run.

Public functions are wrapped in the namespaces that call them (for
example ``levycrit.criteria.char_exponent``), and scipy is wrapped at its
public entry points. ``scipy.special.zeta`` is bound by name when levycrit
is imported, so :func:`patch_scipy` must run before ``import levycrit``.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
Layer names follow the package's module names (``criteria.classify``,
``network.build_slice`` ...), so an in-package trace can reuse them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus named counters."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = defaultdict(float)

    def active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, fn, name, count=None):
        """``fn`` recorded as span ``name`` (a string, or a function of the
        call's arguments); ``count(tracer, args, kwargs, result)`` adds
        counters after the call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr, name, count=None):
        setattr(module, attr, self.wrap(getattr(module, attr), name, count))

    def layers(self) -> dict:
        """name -> {"calls", "s" (total), "self_s" (minus direct children)}."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# counters


def _count_zeta(tr, args, kwargs, result):
    tr.counts["scipy.zeta.elements"] += np.size(result)


def _count_solve(tr, args, kwargs, result):
    n = np.shape(args[0])[0]
    tr.counts["scipy.solve.unknowns"] += n
    tr.counts["scipy.solve.gflop"] += n ** 3 / 3.0 / 1e9  # Cholesky, computed
    tr.counts["scipy.solve.bytes"] += 8.0 * n * n  # float64 matrix, computed


def _count_mass(tr, args, kwargs, result):
    lags = np.size(args[1]) if len(args) > 1 else np.size(kwargs["n"])
    tr.counts["measures.mass.lags"] += lags
    if tr.active("discretize.characteristics"):
        tr.counts["discretize.characteristics.lags"] += lags


def _count_classify(tr, args, kwargs, result):
    decided = sum(e.verdict.status.value in ("converges", "diverges") for e in result.evidence)
    tr.counts["criteria.evidence"] += len(result.evidence)
    tr.counts["criteria.evidence_decided"] += decided
    tr.counts["criteria.conflicts"] += bool(result.conflict)


def _count_flow(tr, args, kwargs, result):
    tr.counts["network.verify_flow.pairs"] += result.pairs_checked


def _count_slice(tr, args, kwargs, result):
    tr.counts["network.build_slice.bytes"] += result.conductance.nbytes


def _count_draws(tr, args, kwargs, result):
    tr.counts["simulate.sample_lags.draws"] += np.size(result)


def _count_steps(tr, args, kwargs, result):
    tr.counts["simulate.steps"] += 2 * result.horizon * result.replicas


def _exponent_name(triplet, *args, **kwargs):
    nu = triplet.nu
    return "measures.char_exponent." + ("lattice" if nu is not None and nu.is_lattice
                                        else "density")


# ---------------------------------------------------------------------------
# installation


def patch_scipy(tracer: Tracer):
    """Wrap scipy's public entry points; call before ``import levycrit``."""
    import scipy.integrate
    import scipy.linalg
    import scipy.special

    tracer.patch(scipy.special, "zeta", "scipy.zeta", _count_zeta)
    tracer.patch(scipy.integrate, "quad", "scipy.quad")
    tracer.patch(scipy.linalg, "solve", "scipy.solve", _count_solve)


CONSTRUCTORS = (
    "make_power_law_lattice", "make_multi_index_lattice", "make_lattice_table",
    "make_piecewise_power", "make_stable_triplet", "make_gaussian_density",
    "make_walk_triplet",
)
CONFIG_FUNCTIONS = (
    "load_config", "resolve_law_config", "law_from_config",
    "resolve_triplet_config", "triplet_from_config",
)


def patch_levycrit(tracer: Tracer):
    """Wrap levycrit's public functions where its modules call them."""
    from levycrit import cli, config, criteria, discretize, measures, network, powerint
    from levycrit import simulate, tails

    def both(name, span, count=None, modules=()):
        for mod in modules:
            if hasattr(mod, name):
                tracer.patch(mod, name, span, count)

    for fn in CONFIG_FUNCTIONS:
        both(fn, "config." + fn, modules=(config, cli))
    for fn in CONSTRUCTORS:
        both(fn, "measures.construct", modules=(config, cli))
    tracer.patch(criteria, "char_exponent", _exponent_name)
    for fn in ("one_minus_cos_range", "one_minus_cos_tail"):
        tracer.patch(measures, fn, "powerint.one_minus_cos")
    tracer.patch(measures.SymmetricJumpLaw, "mass", "measures.mass", _count_mass)
    tracer.patch(measures.SymmetricJumpLaw, "one_sided_tail_mass", "measures.tail_mass")
    for mod in (powerint, criteria, discretize, simulate, tails):
        tracer.patch(mod, "strided_power_sum", "powerint.strided_power_sum")

    tracer.patch(criteria, "chung_fuchs_criterion", "criteria.chung_fuchs")
    tracer.patch(criteria, "sato_shepp_criterion", "criteria.sato_shepp")
    tracer.patch(criteria, "inverse_cubic_lattice_criterion", "criteria.inverse_cubic")
    tracer.patch(criteria, "inverse_cubic_density_criterion", "criteria.inverse_cubic")
    both("classify", "criteria.classify", _count_classify, modules=(criteria, cli))

    both("verify_flow", "network.verify_flow", _count_flow, modules=(network, cli))
    both("flow_energy", "network.flow_energy", modules=(network, cli))
    both("dyadic_energy_bound", "network.energy_bound", modules=(network, cli))
    tracer.patch(network, "build_slice", "network.build_slice", _count_slice)
    both("resistance_profile", "network.resistance", modules=(network, cli))

    for fn in ("bin_density", "characteristics", "convergence_report", "jensen_gap"):
        both(fn, "discretize." + fn, modules=(discretize, cli))

    tracer.patch(simulate.LatticeSampler, "__init__", "simulate.sampler_build")
    tracer.patch(simulate.LatticeSampler, "sample_lags", "simulate.sample_lags", _count_draws)
    both("sojourn_estimate", "simulate.sojourn", _count_steps, modules=(simulate, cli))
    both("even_chain_batch", "simulate.even_chain", modules=(simulate, cli))

    tracer.patch(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# per-layer metrics


def merge(results) -> tuple:
    """Sum the ``layers`` and ``counts`` of several traced children."""
    layers: dict = {}
    counts: dict = defaultdict(float)
    for res in results:
        for name, agg in res["layers"].items():
            into = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in agg.items():
                into[key] += value
        for key, value in res["counts"].items():
            counts[key] += value
    return layers, counts


def _get(layers, name, key="s"):
    return layers.get(name, {}).get(key, 0)


def layer_metrics(layers: dict, counts: dict) -> dict:
    """The per-layer metric values named in BENCHMARK.json (no import/cli
    probes, no trace overhead: the caller adds those)."""
    evidence = counts.get("criteria.evidence", 0)
    config_self = sum(v["self_s"] for k, v in layers.items() if k.startswith("config."))
    m = {
        "cli.self_s": _get(layers, "cli.main", "self_s"),
        "config.resolve_s": config_self,
        "measures.construct_s": _get(layers, "measures.construct"),
        "criteria.sato_shepp_s": _get(layers, "criteria.sato_shepp"),
        "criteria.inverse_cubic_s": _get(layers, "criteria.inverse_cubic"),
        "criteria.classify.self_s": _get(layers, "criteria.classify", "self_s"),
        "criteria.decided_frac": counts.get("criteria.evidence_decided", 0) / evidence
        if evidence else 0.0,
        "criteria.conflicts": counts.get("criteria.conflicts", 0),
        "network.flow_energy_s": _get(layers, "network.flow_energy"),
        "network.energy_bound_s": _get(layers, "network.energy_bound"),
        "network.resistance_s": _get(layers, "network.resistance"),
        "simulate.sampler_build_s": _get(layers, "simulate.sampler_build"),
        "simulate.sojourn_s": _get(layers, "simulate.sojourn"),
        "simulate.even_chain_s": _get(layers, "simulate.even_chain"),
    }
    for fn in ("bin_density", "characteristics", "convergence_report", "jensen_gap"):
        m[f"discretize.{fn}_s"] = _get(layers, "discretize." + fn)
    for span in ("measures.char_exponent.lattice", "measures.char_exponent.density",
                 "powerint.one_minus_cos", "criteria.chung_fuchs", "scipy.quad",
                 "measures.mass", "measures.tail_mass", "simulate.sample_lags",
                 "scipy.solve"):
        m[span + ".calls"] = _get(layers, span, "calls")
        m[span + ".s"] = _get(layers, span)
    m["powerint.strided_power_sum.calls"] = _get(layers, "powerint.strided_power_sum", "calls")
    m["scipy.zeta.calls"] = _get(layers, "scipy.zeta", "calls")
    m["network.verify_flow.s"] = _get(layers, "network.verify_flow")
    m["network.build_slice.s"] = _get(layers, "network.build_slice")
    for key in ("scipy.zeta.elements", "measures.mass.lags", "network.verify_flow.pairs",
                "network.build_slice.bytes", "scipy.solve.unknowns", "scipy.solve.gflop",
                "scipy.solve.bytes", "discretize.characteristics.lags",
                "simulate.sample_lags.draws", "simulate.steps"):
        m[key] = counts.get(key, 0)
    return m
