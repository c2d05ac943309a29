"""Structured text configuration for laws, triplets, and runs.

Configs are nested key-value records (YAML on disk, plain dicts in
memory). ``resolve_law_config`` canonicalizes a mapping (fills defaults,
normalizes key types) so that parse -> serialize -> parse is the
identity on resolved configs; reports embed the resolved form.

Each key is declared once as ``Option(key, cast, default)``, and one
reader, ``_read``, reads every level: laws, a table's ``tail``, pieces and
terms (options whose cast reads them in turn), triplets and the CLI's run
options. ``LAW_FAMILIES`` maps each law family to its options and build.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Optional

import yaml

from .measures import (
    LevyTriplet,
    Normalization,
    PowerPiece,
    SymmetricJumpLaw,
    as_finite_measure,
    make_gaussian_density,
    make_lattice_table,
    make_multi_index_lattice,
    make_piecewise_power,
    make_power_law_lattice,
    make_stable_triplet,
    make_walk_triplet,
)
from .tails import TailDescriptor, TailKind

__all__ = [
    "ConfigError",
    "load_config",
    "dump_config",
    "resolve_law_config",
    "law_from_config",
    "resolve_triplet_config",
    "triplet_from_config",
]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:  # one line: the problem and where it is
            raise ConfigError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    return data


def dump_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


class Option(NamedTuple):
    """One config key: its ``cast`` and its ``default`` (``REQUIRED``, or
    ``OMITTED`` for a key the resolved config leaves out when it is not
    given). A CLI run option may share the law flag ``flag``."""

    key: str
    cast: Callable[[Any], Any]
    default: Any
    flag: str = ""

    @property
    def dest(self) -> str:
        """The parsed flag this option reads: ``--key``, or the shared law flag."""
        return self.flag or self.key


REQUIRED = object()
OMITTED = object()


def _cast(value: Any, key: str, caster):
    try:
        return caster(value)
    except ConfigError:  # a nested entry's error already names its key
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from None


def boolean(value: Any) -> bool:
    """A YAML ``true``/``false``: any other value (``"false"``, 0) is refused,
    where ``bool`` would take its truth."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def number(value: Any) -> float:
    """float(value), refusing a YAML ``true``/``false``, which float reads as 1/0."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def integer(value: Any) -> int:
    """int(value), refusing a value that is not integral (6.7, "6.7", inf)
    rather than truncating it, and a YAML ``true``/``false``."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _read(mapping: Any, what: str, options, over: Optional[dict] = None) -> dict:
    """Each option's value from ``over``, else ``mapping``, else its default,
    cast once; a null value counts as not given. ``what`` names the mapping
    in the error when it is not one."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{what} must be a mapping")
    out = {}
    for opt in options:
        value = (over or {}).get(opt.key)
        value = mapping.get(opt.key) if value is None else value
        value = opt.default if value is None else value
        if value is REQUIRED:
            raise ConfigError(f"missing required key '{opt.key}'")
        if value is not OMITTED:
            out[opt.key] = None if value is None else _cast(value, opt.key, opt.cast)
    return out


def _masses(raw) -> dict:
    masses = {_cast(k, "masses", integer): _cast(v, f"masses[{k}]", number)
              for k, v in dict(raw).items()}
    return dict(sorted(masses.items()))


TAIL = (
    Option("kind", lambda v: TailKind(str(v)).value, "power_law"),
    *(Option(key, number, OMITTED)
      for key in ("exponent", "constant", "onset", "lower_factor", "upper_factor")),
)
TERM = (Option("k", number, REQUIRED), Option("rho", number, REQUIRED))
PIECE = (
    Option("lo", number, 0.0),
    Option("hi", lambda v: math.inf if v == ".inf" else number(v), math.inf),
    Option("terms", lambda ts: [_read(t, "each entry of 'terms'", TERM) for t in ts], REQUIRED),
)


#: family -> (its keys, its constructor); each build looks its ``make_*`` up
#: when it runs, so that a wrapped constructor is the one called
LAW_FAMILIES = {
    "power_lattice": ((Option("alpha", number, REQUIRED), Option("normalize", boolean, False)),
                      lambda c: make_power_law_lattice(c["alpha"], normalize=c["normalize"])),
    "multi_index": ((Option("alpha", number, REQUIRED), Option("beta", number, REQUIRED),
                     Option("normalize", boolean, False)),
                    lambda c: make_multi_index_lattice(c["alpha"], c["beta"],
                                                       normalize=c["normalize"])),
    "gaussian": ((Option("sigma", number, 1.0),), lambda c: make_gaussian_density(c["sigma"])),
    "table": (
        (Option("spacing", number, 1.0), Option("origin_mass", number, 0.0),
         Option("masses", _masses, REQUIRED),
         Option("tail", lambda tail: _read(tail, "'tail'", TAIL), None),
         Option("normalization", lambda v: Normalization(str(v)).value, OMITTED)),
        lambda c: make_lattice_table(
            c["masses"], c["spacing"], c["origin_mass"],
            TailDescriptor(**{**c["tail"], "kind": TailKind(c["tail"]["kind"])})
            if c["tail"] else None,
            Normalization(c["normalization"]) if "normalization" in c else None),
    ),
    "piecewise_power": (
        (Option("pieces", lambda ps: [_read(p, "each entry of 'pieces'", PIECE) for p in ps],
                REQUIRED), Option("unimodal", boolean, False)),
        lambda c: make_piecewise_power(
            tuple(PowerPiece(p["lo"], p["hi"], tuple((t["k"], t["rho"]) for t in p["terms"]))
                  for p in c["pieces"]), unimodal=c["unimodal"]),
    ),
}
STABLE = (Option("alpha", number, REQUIRED), Option("gamma", number, 1.0),
          Option("unimodal", boolean, True))
TRIPLET = (Option("gaussian_coefficient", number, 0.0),
           Option("law", lambda law: resolve_law_config(law), None))


def resolve_law_config(cfg: Any) -> dict:
    """Validate and canonicalize a law config mapping."""
    family = _read(cfg, "law config", (Option("family", str, REQUIRED),))["family"]
    if family not in LAW_FAMILIES:
        raise ConfigError(f"unknown law family '{family}'")
    return {"family": family, **_read(cfg, "law config", LAW_FAMILIES[family][0])}


def law_from_config(cfg: Any) -> SymmetricJumpLaw:
    cfg = resolve_law_config(cfg)
    return LAW_FAMILIES[cfg["family"]][1](cfg)


def resolve_triplet_config(cfg: Any) -> dict:
    """Validate and canonicalize a triplet config mapping.

    Either the stable family shortcut, or an explicit Gaussian coefficient
    plus jump-law config (probability laws are wrapped as finite measures,
    matching the compound-Poisson view of the walk).
    """
    family = _read(cfg, "triplet config", (Option("family", str, OMITTED),)).get("family")
    if family == "stable":
        return {"family": "stable", **_read(cfg, "triplet config", STABLE)}
    if "law" in cfg or "gaussian_coefficient" in cfg:
        return _read(cfg, "triplet config", TRIPLET)
    raise ConfigError("triplet config needs 'family: stable' or a 'law' entry")


def triplet_from_config(cfg: Any) -> LevyTriplet:
    cfg = resolve_triplet_config(cfg)
    if cfg.get("family") == "stable":
        return make_stable_triplet(cfg["alpha"], cfg["gamma"], unimodal=cfg["unimodal"])
    law = law_from_config(cfg["law"]) if cfg["law"] is not None else None
    c = cfg["gaussian_coefficient"]
    if law is None:
        return LevyTriplet(c=c, nu=None)
    if law.normalization is Normalization.PROBABILITY:
        if c == 0.0:
            return make_walk_triplet(law)
        law = as_finite_measure(law)
    return LevyTriplet(c=c, nu=law)
