"""Verdict types shared by the convergence criteria, and the rules that build them.

A :class:`ConvergenceVerdict` records the outcome of classifying a
nonnegative series or improper integral. Decisions (Converges/Diverges)
are only ever issued on an analytic basis: truncated numerics alone yield
Inconclusive. Its one certified number is ``value``, an :class:`Interval`
``[partial + tail_lo, partial + tail_hi]`` built by :func:`enclosure` from
the truncated head and the two ends of the remainder's envelope; the
point ``estimate`` is read off it. An exactly known remainder collapses
the interval to the value up to rounding. Divergent and undecided
verdicts have ``hi = inf``.

Two rules live here. :func:`tail_status` turns a declared tail into
Converges/Diverges/Inconclusive, and :func:`verdict` turns a status, a
partial, a remainder envelope and a numeric error into a verdict. Every
criterion, moment, bridging sum and the even-chain bound of
:mod:`levycrit.simulate` builds its verdicts through it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .tails import TailDescriptor, TailKind


class Status(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


class Basis(Enum):
    ANALYTIC_TAIL = "analytic_tail"
    NUMERIC_ONLY = "numeric_only"


class Classification(Enum):
    TRANSIENT = "transient"
    RECURRENT = "recurrent"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Interval:
    """Certified enclosure [lo, hi] of a nonnegative quantity."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval bounds out of order")

    @property
    def infinite(self) -> bool:
        return math.isinf(self.hi)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}


def enclosure(partial: float, tail_lo: float, tail_hi: float) -> Interval:
    """``[partial + tail_lo, partial + tail_hi]`` with each end rounded outward.

    The ends are float sums and Hurwitz-zeta values, each a few ulps off
    (zeta loses most near its pole); 16 ulps of relative slack keep the
    value inside an interval that an exact remainder shrinks to a point.
    """
    slack = 16.0 * sys.float_info.epsilon
    return Interval((partial + tail_lo) * (1.0 - slack), (partial + tail_hi) * (1.0 + slack))


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of classifying a nonnegative series/integral.

    ``partial_value`` is the truncated head, reported only; ``value`` the
    certified enclosure of the whole (``hi = inf`` unless convergent), from
    :func:`enclosure`; ``truncation`` a human-readable record of the cutoff.
    """

    status: Status
    partial_value: float
    value: Interval
    truncation: str
    basis: Basis
    note: str = ""

    def __post_init__(self):
        if self.partial_value < 0:
            raise ValueError("partial_value must be nonnegative")
        if self.value.lo < 0:
            raise ValueError("value must be nonnegative")
        if self.status is not Status.INCONCLUSIVE and self.basis is not Basis.ANALYTIC_TAIL:
            raise ValueError("Converges/Diverges requires an analytic-tail basis")
        if self.status is Status.CONVERGES and self.value.infinite:
            raise ValueError("a convergent verdict needs a finite upper end")

    @property
    def estimate(self) -> float:
        """Midpoint of ``value``, or the partial when its upper end is inf."""
        return self.partial_value if self.value.infinite else self.value.midpoint

    @property
    def value_interval(self) -> tuple[float, float]:
        return (self.value.lo, self.value.hi)

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "partial_value": self.partial_value,
            "value": self.value.to_dict(),
            "estimate": self.estimate,
            "truncation": self.truncation,
            "basis": self.basis.value,
            **({"note": self.note} if self.note else {}),
        }


def tail_status(tail: TailDescriptor) -> tuple[Status, str]:
    """The transience rule of a declared tail, with a note naming the clause.

    A power tail of exponent rho < 2 makes every criterion converge (the
    paper's ``int_1^inf dy/(y^3 f(y)) < inf``); rho >= 2, exponential and
    compact tails make them diverge; an unknown tail decides nothing.
    """
    if tail.kind is TailKind.UNKNOWN:
        return Status.INCONCLUSIVE, "unknown tail"
    if tail.kind is TailKind.POWER_LAW:
        rho = tail.exponent
        if rho < 2.0:
            return Status.CONVERGES, f"power tail rho={rho:.15g} < 2"
        if rho <= 3.0:
            return Status.DIVERGES, f"power tail rho={rho:.15g} >= 2"
        return Status.DIVERGES, f"power tail rho={rho:.15g} > 3: finite second moment"
    return Status.DIVERGES, f"{tail.kind.value.replace('_', ' ')} tail: finite second moment"


def verdict(
    status: Status,
    partial: float,
    truncation: str,
    tail: tuple[float, float] = (0.0, math.inf),
    *,
    err: float = 0.0,
    note: str = "",
) -> ConvergenceVerdict:
    """The verdict on a truncated head ``partial`` and the remainder envelope ``tail``.

    The value is ``[partial + tail_lo - err, partial + tail_hi + err]``, with
    ``tail_hi`` taken as inf unless the status converges; ``err`` is the
    head's numeric error. Inconclusive verdicts rest on numerics alone, the
    others on the declared tail.
    """
    lo, hi = tail
    return ConvergenceVerdict(
        status=status,
        partial_value=partial,
        value=enclosure(partial, lo - err, (hi if status is Status.CONVERGES else math.inf) + err),
        truncation=truncation,
        basis=Basis.NUMERIC_ONLY if status is Status.INCONCLUSIVE else Basis.ANALYTIC_TAIL,
        note=note,
    )


@dataclass(frozen=True)
class CriterionEvidence:
    """One criterion's verdict plus the implication drawn from it."""

    criterion: str
    verdict: ConvergenceVerdict
    implication: str  # "transient", "recurrent", or "none"

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "implication": self.implication,
            "verdict": self.verdict.to_dict(),
        }


@dataclass(frozen=True)
class TransienceVerdict:
    """Final classification with the per-criterion evidence that produced it."""

    classification: Classification
    evidence: tuple[CriterionEvidence, ...]
    conflict: bool = False

    def __post_init__(self):
        implied = {e.implication for e in self.evidence}
        if self.classification is Classification.TRANSIENT and "transient" not in implied:
            raise ValueError("transient classification requires supporting evidence")
        if self.classification is Classification.RECURRENT and "recurrent" not in implied:
            raise ValueError("recurrent classification requires supporting evidence")
        if self.conflict and self.classification is not Classification.UNKNOWN:
            raise ValueError("conflicting evidence must yield Unknown")

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "conflict": self.conflict,
            "evidence": [e.to_dict() for e in self.evidence],
        }


def combine_evidence(evidence: list[CriterionEvidence]) -> TransienceVerdict:
    """Fold criterion evidence into a final verdict.

    Any transient evidence together with any recurrent evidence is a
    conflict (Unknown); otherwise the single direction present wins, and
    no direction at all is Unknown.
    """
    has_t = any(e.implication == "transient" for e in evidence)
    has_r = any(e.implication == "recurrent" for e in evidence)
    if has_t and has_r:
        return TransienceVerdict(Classification.UNKNOWN, tuple(evidence), conflict=True)
    if has_t:
        return TransienceVerdict(Classification.TRANSIENT, tuple(evidence))
    if has_r:
        return TransienceVerdict(Classification.RECURRENT, tuple(evidence))
    return TransienceVerdict(Classification.UNKNOWN, tuple(evidence))
