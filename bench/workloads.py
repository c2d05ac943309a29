"""Seeded workloads: generated law configs, the operations run on them,
and the correctness check of each operation.

A workload is built from its seed alone (``random.Random(seed)``), so the
same seed gives the same laws, parameters and Monte Carlo seeds. The
program under test only ever receives those generated configs and
parameters. Each operation builds its law inside the timed call through
``levycrit.config`` (as the ``analyze`` command does) and calls the public
functions through their modules, so the traced run sees every call.

An operation returns a list of failures, each ``(kind, message)``:

* ``"wrong"``: an output contradicts its reference (a decided verdict of
  the wrong type, a failed exact or numeric gate, a CLI exit code that
  reports a failed check, a repeat that is not bit-identical);
* ``"no-answer"``: the program gave no answer (an Unknown verdict or a
  conflict, an exception, an error exit code, no result within the
  operation's time limit);
* ``"stat-gate"``: a 3-sigma Monte Carlo gate missed.

Every kind counts as a failed operation; only ``"wrong"`` makes the run
incorrect.
"""

from __future__ import annotations

import math
import random
import signal
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("classify", "network", "diagnostics")
SCALES = ("full", "smoke")


def _flat_core_power_tail(rho: float) -> dict:
    """Unimodal probability density: flat core on [0, 1], ``k y^-rho`` beyond."""
    k = (rho - 1.0) / (2.0 * rho)
    return {
        "family": "piecewise_power",
        "unimodal": True,
        "pieces": [
            {"lo": 0.0, "hi": 1.0, "terms": [{"k": k, "rho": 0.0}]},
            {"lo": 1.0, "hi": "inf", "terms": [{"k": k, "rho": rho}]},
        ],
    }


#: the README's ``law.yaml`` (flat core plus a y^-1.5 tail) with k = 1/6 at
#: full precision; the README prints k to 10 digits, which puts the total
#: mass 2e-10 off 1 and outside the probability tolerance
README_LAW = _flat_core_power_tail(1.5)

#: fixed probe on the Chung-Fuchs boundary (transient; Unknown at the seed)
STABLE_PROBE_ALPHA = 0.9995

#: sizes of the full workload and of the reduced smoke/warm-up pass
SIZES = {
    "full": {
        "classify_heavy": True,
        "flow_levels": (11, 12),
        "energy_level": 14,
        "radii_big": (256, 512, 1024, 2048),
        "radii": (128, 256, 512),
        "nn_radii": (64, 128, 256, 512),
        "deltas": (1.0, 0.5, 0.25, 0.125),
        "heavy_law": README_LAW,
        "horizon": 10 ** 4,
        "replicas": 400,
        "even_samples": 10 ** 6,
        "setup_samples": 2,  # per phase; three phases
        "cli_i_max": 12,
        "cli_radii": "256,512,1024,2048",
        "cli_horizon": 10 ** 4,
    },
    "smoke": {
        "classify_heavy": False,
        "flow_levels": (5, 6),
        "energy_level": 8,
        "radii_big": (8, 16, 32),
        "radii": (8, 16),
        "nn_radii": (8, 16),
        "deltas": (1.0, 0.5, 0.25, 0.125),
        "heavy_law": _flat_core_power_tail(2.9),
        "horizon": 500,
        "replicas": 40,
        "even_samples": 10 ** 4,
        "setup_samples": 1,
        "cli_i_max": 6,
        "cli_radii": "8,16,32",
        "cli_horizon": 500,
    },
}


#: seconds an operation may run before it counts as giving no answer
#: (the slowest operation takes about 8 s on a 2-core machine). Monte Carlo
#: ops get about twice their usual time: a run that hits the sampler's
#: bisection hang (see :func:`_sampler_probe`) then costs about a second
#: more, not a stalled run.
OP_LIMIT_S = 20.0
MC_LIMIT_S = 2.5


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Op:
    """One timed operation; ``run()`` returns its list of failures."""

    name: str
    fn: Callable[[], list]
    limit_s: float = OP_LIMIT_S

    def run(self) -> list:
        """``fn()``, with an exception or overrun recorded as no answer."""
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        try:
            return self.fn()
        except OpTimeout:
            return [("no-answer", f"no result within {self.limit_s:g} s")]
        except Exception as exc:  # boundary: record and keep running
            return [("no-answer", f"{type(exc).__name__}: {exc}")]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class CliCommand:
    """One CLI invocation: argv after ``python -m levycrit.cli``."""

    name: str
    argv: list
    files: dict = field(default_factory=dict)  # file name -> YAML-able config
    wrong_codes: tuple = ()  # exit codes that report a failed check
    limit_s: float = 30.0  # seconds before the command counts as no answer


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


# ---------------------------------------------------------------------------
# classify


def classify_cases(seed: int, scale: str) -> list:
    """(name, triplet config, expected classification) for the classify mix.

    Indices are drawn over each family's full range; stable indices are
    stratified over (0, 2] so every seed mixes both regimes.
    """
    rng = random.Random(seed)
    cases = []
    for lo, hi in ((0.05, 0.7), (0.7, 1.4), (1.4, 2.0)):
        a = _u(rng, lo, hi)
        cases.append((f"stable a={a}", {"family": "stable", "alpha": a},
                      "transient" if a < 1.0 else "recurrent"))
    cases.append((f"stable a={STABLE_PROBE_ALPHA} (probe)",
                  {"family": "stable", "alpha": STABLE_PROBE_ALPHA}, "transient"))
    for _ in range(2):
        rho = _u(rng, 1.1, 3.0)
        cases.append((f"piecewise_power rho={rho}", {"law": _flat_core_power_tail(rho)},
                      "transient" if rho < 2.0 else "recurrent"))
    # lattice table with a declared power tail beyond the tabulated lags
    n_tab = rng.randint(2, 6)
    masses = {k: _u(rng, 0.01, 0.2) for k in range(1, n_tab + 1)}
    rho = _u(rng, 1.1, 3.5)
    cases.append((f"table rho={rho}", {"law": {
        "family": "table", "masses": masses,
        "tail": {"kind": "power_law", "exponent": rho, "constant": _u(rng, 0.01, 0.2)},
    }}, "transient" if rho < 2.0 else "recurrent"))
    a = _u(rng, 0.05, 2.0)
    cases.append((f"power_lattice a={a}", {"law": {
        "family": "power_lattice", "alpha": a, "normalize": rng.random() < 0.5,
    }}, "transient" if a < 1.0 else "recurrent"))
    if SIZES[scale]["classify_heavy"]:
        a, b = _u(rng, 0.05, 2.0), _u(rng, 0.05, 2.0)
        cases.append((f"multi_index a={a} b={b}", {"law": {
            "family": "multi_index", "alpha": a, "beta": b, "normalize": rng.random() < 0.5,
        }}, "transient" if min(a, b) < 1.0 else "recurrent"))
        s = _u(rng, 0.5, 2.0)
        cases.append((f"gaussian sigma={s}", {"law": {"family": "gaussian", "sigma": s}},
                      "recurrent"))
    return cases


def _classify_op(triplet_cfg: dict, expected: str) -> list:
    from levycrit import config, criteria

    triplet_cfg = dict(triplet_cfg)
    if "law" in triplet_cfg:
        triplet_cfg["gaussian_coefficient"] = 0.0
    verdict = criteria.classify(config.triplet_from_config(triplet_cfg))
    got = verdict.classification.value
    if got == "unknown":
        return [("no-answer", f"unknown (conflict={verdict.conflict}), expected {expected}")]
    if got != expected or verdict.conflict:
        return [("wrong", f"{got}, expected {expected}")]
    return []


def classify_ops(seed: int, scale: str) -> list:
    return [
        Op(name, lambda c=cfg, e=exp: _classify_op(c, e))
        for name, cfg, exp in classify_cases(seed, scale)
    ]


def classify_cli(seed: int, scale: str) -> list:
    """The ROADMAP baseline commands, so CLI numbers compare with its table."""
    commands = [
        CliCommand("analyze stable", ["analyze", "--family", "stable", "--alpha", "0.5"]),
        CliCommand("analyze power_lattice", ["analyze", "--family", "power_lattice",
                                             "--alpha", "0.5"]),
        CliCommand("analyze gaussian", ["analyze", "--family", "gaussian"]),
    ]
    return commands if SIZES[scale]["classify_heavy"] else commands[:1]


# ---------------------------------------------------------------------------
# network


def network_laws(seed: int) -> list:
    """(name, law config, transient?) for the flow and resistance checks."""
    rng = random.Random(seed)
    at, ar = _u(rng, 0.2, 0.9), _u(rng, 1.1, 1.9)
    mt = (_u(rng, 0.2, 0.9), _u(rng, 1.1, 1.9))
    mr = (_u(rng, 1.1, 1.9), _u(rng, 1.1, 1.9))
    return [
        (f"power_lattice a={at}", {"family": "power_lattice", "alpha": at}, True),
        (f"power_lattice a={ar}", {"family": "power_lattice", "alpha": ar}, False),
        (f"multi_index a={mt[0]} b={mt[1]}",
         {"family": "multi_index", "alpha": mt[0], "beta": mt[1]}, True),
        (f"multi_index a={mr[0]} b={mr[1]}",
         {"family": "multi_index", "alpha": mr[0], "beta": mr[1]}, False),
    ]


def _flow_op(i_max: int) -> list:
    from levycrit import network

    rep = network.verify_flow(i_max)
    fails = []
    if not rep.passed:
        fails.append(("wrong", f"flow check failed: {rep.to_dict()}"))
    if rep.vertices_checked != 2 * (2 ** (i_max - 1) - 1):
        fails.append(("wrong", f"checked {rep.vertices_checked} vertices"))
    return fails


def _energy_op(law_cfg: dict, level: int, energies: dict, name: str) -> list:
    from levycrit import config, network

    law = config.law_from_config(law_cfg)
    energy = network.flow_energy(law, level)
    bound = network.dyadic_energy_bound(law)
    energies[name] = energy.hi
    if not energy.hi <= bound.hi:
        return [("wrong", f"E.hi={energy.hi} > B.hi={bound.hi}")]
    return []


def _profile_op(law_cfg: dict, radii, e_hi, exact_half: bool) -> list:
    from levycrit import config, network

    law = config.law_from_config(law_cfg)
    prof = network.resistance_profile(law, radii)
    r = prof.resistances
    fails = []
    if any(b < a for a, b in zip(r, r[1:])):
        fails.append(("wrong", f"R_eff decreases with the radius: {r}"))
    if e_hi is not None and math.isfinite(e_hi) and max(r) > e_hi + 1e-8:
        fails.append(("wrong", f"R_eff {max(r)} above the flow energy {e_hi}"))
    if exact_half:
        bad = [(n, v) for n, v in zip(radii, r) if abs(v - n / 2.0) > 1e-12 * n]
        if bad:
            fails.append(("wrong", f"nearest-neighbour R != N/2 at {bad}"))
    return fails


def network_ops(seed: int, scale: str) -> list:
    size = SIZES[scale]
    ops = [Op(f"verify_flow i_max={i}", lambda i=i: _flow_op(i)) for i in size["flow_levels"]]
    energies: dict = {}  # flow-energy upper ends, read by the resistance checks
    laws = network_laws(seed)
    for name, cfg, _ in laws:
        ops.append(Op(f"flow_energy+bound {name}",
                      lambda c=cfg, n=name: _energy_op(c, size["energy_level"], energies, n)))
    for k, (name, cfg, transient) in enumerate(laws):
        radii = size["radii_big"] if k == 0 else size["radii"]
        ops.append(Op(f"resistance_profile {name} r<={radii[-1]}",
                      lambda c=cfg, r=radii, n=name, t=transient:
                      _profile_op(c, r, energies.get(n) if t else None, False)))
    nn = {"family": "table", "masses": {1: 1.0}}
    ops.append(Op(f"resistance_profile nearest-neighbour r<={size['nn_radii'][-1]}",
                  lambda: _profile_op(nn, size["nn_radii"], None, True)))
    return ops


def network_cli(seed: int, scale: str) -> list:
    """The ROADMAP baseline commands (flow at i_max 12, radii 256..2048)."""
    size = SIZES[scale]
    return [
        CliCommand("flow", ["flow", "--family", "power_lattice", "--alpha", "0.5",
                            "--i-max", str(size["cli_i_max"])], wrong_codes=(3,)),
        CliCommand("resistance", ["resistance", "--family", "power_lattice", "--alpha", "0.5",
                                  "--radii", size["cli_radii"]]),
    ]


# ---------------------------------------------------------------------------
# diagnostics


def _convergence_op(sigma: float, deltas) -> list:
    from levycrit import config, discretize

    law = config.law_from_config({"family": "gaussian", "sigma": sigma})
    table = discretize.convergence_report(law, deltas)
    fails = []
    for name in discretize.default_test_functions():
        errs = table.errors_for(name)
        if not all(a > b for a, b in zip(errs, errs[1:])):
            fails.append(("wrong", f"{name} errors not strictly decreasing: {errs}"))
        if not table.orders[name] >= 1.8:
            fails.append(("wrong", f"{name} order {table.orders[name]:.3f} < 1.8"))
    return fails


def _heavy_binning_op(law_cfg: dict) -> list:
    from levycrit import config, discretize

    law = config.law_from_config(law_cfg)
    binned = discretize.bin_density(law, 1.0)
    n = 4096
    head = float(binned.mass(np.arange(1, n + 1)).sum())
    # bins beyond n hold exactly the continuous mass beyond n + 1/2
    exact_tail = law.one_sided_tail_mass(n + 0.5)[0]
    total = binned.support.origin_mass + 2.0 * (head + exact_tail)
    fails = []
    if abs(total - 1.0) > 1e-9:
        fails.append(("wrong", f"binned masses sum to {total}"))
    lo, hi = binned.one_sided_tail_mass(n + 0.5)
    if not lo <= exact_tail <= hi:
        fails.append(("wrong", f"tail envelope [{lo}, {hi}] misses {exact_tail}"))
    return fails


def _characteristics_op(law_cfg: dict) -> list:
    from levycrit import config, discretize

    law = config.law_from_config(law_cfg)
    binned = discretize.bin_density(law, 1.0)
    ct = discretize.characteristics(binned)
    limit = discretize.characteristics(law)
    fails = []
    if not abs(ct.drift) <= 1e-12:
        fails.append(("wrong", f"drift {ct.drift}"))
    ratio = ct.quad_variation / limit.quad_variation
    if not 0.5 < ratio < 2.0:
        fails.append(("wrong", f"quadratic variation {ratio:.3f} times its limit"))
    return fails


def _jensen_op(law_cfg: dict) -> list:
    from levycrit import config, discretize

    gap = discretize.jensen_gap(config.law_from_config(law_cfg))
    return [] if gap.inequality_holds else [("wrong", "Jensen bridging inequality fails")]


def _sojourn_op(alpha: float, size: dict, seed: int, results: dict, repeat=False) -> list:
    """Acceptance-8 gate on the growth ratio; a repeat must be bit-identical."""
    from levycrit import config, simulate

    law = config.law_from_config({"family": "power_lattice", "alpha": alpha, "normalize": True})
    stats = simulate.sojourn_estimate(law, 5.0, size["horizon"], size["replicas"], seed)
    if repeat:
        if results.get(alpha) != stats.to_dict():
            return [("wrong", f"repeated seed {seed} gave different stats")]
        return []
    results[alpha] = stats.to_dict()
    r, se = stats.growth_ratio, stats.growth_se
    if alpha < 1.0 and not r - 3.0 * se < 1.15:
        return [("stat-gate", f"a={alpha}: ratio {r:.3f}-3*{se:.3f} >= 1.15")]
    if alpha > 1.0 and not r + 3.0 * se > 1.3:
        return [("stat-gate", f"a={alpha}: ratio {r:.3f}+3*{se:.3f} <= 1.3")]
    return []


def _even_chain_op(alpha: float, beta: float, n: int, seed: int) -> list:
    from levycrit import config, simulate

    law = config.law_from_config(
        {"family": "multi_index", "alpha": alpha, "beta": beta, "normalize": True})
    xs = simulate.even_chain_batch(law, n, seed)
    if len(xs) != n or (xs % 2).any():
        return [("wrong", "even chain returned an odd or missing state")]
    return []


def _sampler_probe() -> list:
    """One ``sample_lags`` batch whose tail draws straddle the bisection cap.

    Replica 730 of seed 12345 draws, besides ordinary tail magnitudes, one
    beyond the sampler's 2^52 bisection cap; at the seed commit the
    bisection then never ends, so this operation reports no answer.
    """
    from levycrit import config, simulate

    law = config.law_from_config({"family": "power_lattice", "alpha": 0.5, "normalize": True})
    lags = simulate.LatticeSampler(law).sample_lags(simulate.replica_rng(12345, 730), 20000)
    if len(lags) != 20000 or not np.all(np.isfinite(lags)):
        return [("wrong", "sampler returned missing or non-finite lags")]
    return []


def diagnostics_ops(seed: int, scale: str) -> list:
    size = SIZES[scale]
    mc_seed = random.Random(seed).randrange(2 ** 31)
    heavy = size["heavy_law"]
    sojourns: dict = {}
    return [
        Op("convergence_report gaussian sigma=1", lambda: _convergence_op(1.0, size["deltas"])),
        Op("bin_density heavy-tail law delta=1", lambda: _heavy_binning_op(heavy)),
        Op("characteristics heavy-tail law delta=1", lambda: _characteristics_op(heavy)),
        Op("jensen_gap heavy-tail law", lambda: _jensen_op(heavy)),
        Op(f"sojourn_estimate a=0.5 seed={mc_seed}",
           lambda: _sojourn_op(0.5, size, mc_seed, sojourns), limit_s=MC_LIMIT_S),
        Op(f"sojourn_estimate a=1.5 seed={mc_seed}",
           lambda: _sojourn_op(1.5, size, mc_seed, sojourns), limit_s=MC_LIMIT_S),
        Op(f"sojourn_estimate a=1.5 seed={mc_seed} (repeat)",
           lambda: _sojourn_op(1.5, size, mc_seed, sojourns, repeat=True),
           limit_s=MC_LIMIT_S),
        Op(f"even_chain_batch multi_index a=0.5 b=1.5 seed={mc_seed}",
           lambda: _even_chain_op(0.5, 1.5, size["even_samples"], mc_seed),
           limit_s=MC_LIMIT_S),
        Op("sample_lags batch past the bisection cap (probe)", _sampler_probe,
           limit_s=0.5),
    ]


def diagnostics_cli(seed: int, scale: str) -> list:
    """``discretize`` on the README law at delta=1, and the README's
    ``simulate`` example."""
    size = SIZES[scale]
    return [
        CliCommand("discretize", ["discretize", "--config", "{dir}/law.yaml", "--deltas", "1"],
                   files={"law.yaml": {"law": size["heavy_law"]}}),
        CliCommand("simulate", ["simulate", "--family", "power_lattice", "--alpha", "0.5",
                                "--normalize", "--horizon", str(size["cli_horizon"]),
                                "--seed", "1"], limit_s=6.0),
    ]


OPS = {"classify": classify_ops, "network": network_ops, "diagnostics": diagnostics_ops}
CLI = {"classify": classify_cli, "network": network_cli, "diagnostics": diagnostics_cli}
