"""Structured text configuration for laws, triplets, and runs.

Configs are nested key-value records (YAML on disk, plain dicts in
memory). ``resolve_law_config`` canonicalizes a mapping (fills defaults,
normalizes key types) so that parse -> serialize -> parse is the
identity on resolved configs; reports embed the resolved form.
"""

from __future__ import annotations

import math
from typing import Any, Optional

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
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    return data


def dump_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


def _cast(value: Any, key: str, caster):
    try:
        return caster(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from None


def _require(cfg: dict, key: str, caster):
    if key not in cfg:
        raise ConfigError(f"missing required key '{key}'")
    return _cast(cfg[key], key, caster)


def _optional(cfg: dict, key: str, caster, default):
    return _cast(cfg.get(key, default), key, caster)


def _tail_config(cfg: Optional[dict]) -> Optional[dict]:
    if cfg is None:
        return None
    kind = str(cfg.get("kind", "power_law"))
    if kind not in {k.value for k in TailKind}:
        raise ConfigError(f"unknown tail kind '{kind}'")
    out = {"kind": kind}
    for key in ("exponent", "constant", "onset", "lower_factor", "upper_factor"):
        if key in cfg:
            out[key] = _cast(cfg[key], f"tail.{key}", float)
    return out


def _tail_from_config(cfg: Optional[dict]) -> Optional[TailDescriptor]:
    if cfg is None:
        return None
    kwargs = dict(cfg)
    kwargs["kind"] = TailKind(kwargs["kind"])
    return TailDescriptor(**kwargs)


def resolve_law_config(cfg: Any) -> dict:
    """Validate and canonicalize a law config mapping."""
    if not isinstance(cfg, dict):
        raise ConfigError("law config must be a mapping")
    family = cfg.get("family")
    if family == "power_lattice":
        return {
            "family": "power_lattice",
            "alpha": _require(cfg, "alpha", float),
            "normalize": bool(cfg.get("normalize", False)),
        }
    if family == "multi_index":
        return {
            "family": "multi_index",
            "alpha": _require(cfg, "alpha", float),
            "beta": _require(cfg, "beta", float),
            "normalize": bool(cfg.get("normalize", False)),
        }
    if family == "gaussian":
        return {"family": "gaussian", "sigma": _optional(cfg, "sigma", float, 1.0)}
    if family == "table":
        masses_in = _require(cfg, "masses", dict)
        masses = {}
        for k, v in masses_in.items():
            masses[_cast(k, "masses", int)] = _cast(v, f"masses[{k}]", float)
        out = {
            "family": "table",
            "spacing": _optional(cfg, "spacing", float, 1.0),
            "origin_mass": _optional(cfg, "origin_mass", float, 0.0),
            "masses": dict(sorted(masses.items())),
            "tail": _tail_config(cfg.get("tail")),
        }
        if cfg.get("normalization") is not None:
            out["normalization"] = str(cfg["normalization"])
        return out
    if family == "piecewise_power":
        pieces_in = _require(cfg, "pieces", list)
        pieces = []
        for p in pieces_in:
            hi = p.get("hi", "inf")
            hi = math.inf if hi in ("inf", ".inf", math.inf, None) else _cast(hi, "hi", float)
            terms = [
                {"k": _require(t, "k", float), "rho": _require(t, "rho", float)}
                for t in _require(p, "terms", list)
            ]
            pieces.append({"lo": _optional(p, "lo", float, 0.0), "hi": hi, "terms": terms})
        return {
            "family": "piecewise_power",
            "pieces": pieces,
            "unimodal": bool(cfg.get("unimodal", False)),
        }
    raise ConfigError(f"unknown law family '{family}'")


def law_from_config(cfg: Any) -> SymmetricJumpLaw:
    cfg = resolve_law_config(cfg)
    family = cfg["family"]
    if family == "power_lattice":
        return make_power_law_lattice(cfg["alpha"], normalize=cfg["normalize"])
    if family == "multi_index":
        return make_multi_index_lattice(cfg["alpha"], cfg["beta"], normalize=cfg["normalize"])
    if family == "gaussian":
        return make_gaussian_density(cfg["sigma"])
    if family == "table":
        norm = cfg.get("normalization")
        return make_lattice_table(
            cfg["masses"],
            spacing=cfg["spacing"],
            origin_mass=cfg["origin_mass"],
            tail=_tail_from_config(cfg["tail"]),
            normalization=Normalization(norm) if norm else None,
        )
    pieces = tuple(
        PowerPiece(
            p["lo"],
            p["hi"],
            tuple((t["k"], t["rho"]) for t in p["terms"]),
        )
        for p in cfg["pieces"]
    )
    return make_piecewise_power(pieces, unimodal=cfg["unimodal"])


def resolve_triplet_config(cfg: Any) -> dict:
    """Validate and canonicalize a triplet config mapping.

    Either the stable family shortcut, or an explicit Gaussian coefficient
    plus jump-law config (probability laws are wrapped as finite measures,
    matching the compound-Poisson view of the walk).
    """
    if not isinstance(cfg, dict):
        raise ConfigError("triplet config must be a mapping")
    if cfg.get("family") == "stable":
        return {
            "family": "stable",
            "alpha": _require(cfg, "alpha", float),
            "gamma": _optional(cfg, "gamma", float, 1.0),
            "unimodal": bool(cfg.get("unimodal", True)),
        }
    if "law" in cfg or "gaussian_coefficient" in cfg:
        out = {
            "gaussian_coefficient": _optional(cfg, "gaussian_coefficient", float, 0.0)
        }
        if cfg.get("law") is not None:
            out["law"] = resolve_law_config(cfg["law"])
        else:
            out["law"] = None
        return out
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
