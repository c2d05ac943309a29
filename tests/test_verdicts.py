import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from levycrit.verdicts import (
    Basis,
    Classification,
    ConvergenceVerdict,
    CriterionEvidence,
    Interval,
    Status,
    TransienceVerdict,
    combine_evidence,
    enclosure,
    tail_status,
    verdict,
)


def _verdict(status=Status.INCONCLUSIVE, basis=Basis.NUMERIC_ONLY, tail=math.inf):
    return ConvergenceVerdict(
        status=status,
        partial_value=1.0,
        value=Interval(1.0, 1.0 + tail),
        truncation="t",
        basis=basis,
    )


class TestConvergenceVerdict:
    def test_decisions_require_analytic_basis(self):
        with pytest.raises(ValueError):
            _verdict(status=Status.CONVERGES, basis=Basis.NUMERIC_ONLY, tail=1.0)
        with pytest.raises(ValueError):
            _verdict(status=Status.DIVERGES, basis=Basis.NUMERIC_ONLY)

    def test_convergence_requires_finite_tail(self):
        with pytest.raises(ValueError):
            _verdict(status=Status.CONVERGES, basis=Basis.ANALYTIC_TAIL, tail=math.inf)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="out of order"):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError, match="out of order"):
            enclosure(1.0, 0.5, 0.25)

    def test_estimate_defaults_to_partial(self):
        # an infinite upper end has no midpoint: the estimate is the partial
        v = _verdict()
        assert v.estimate == v.partial_value
        assert v.value_interval == (1.0, math.inf)

    def test_estimate_is_the_midpoint(self):
        v = _verdict(status=Status.CONVERGES, basis=Basis.ANALYTIC_TAIL, tail=0.5)
        assert v.estimate == v.value.midpoint == 1.25
        assert v.to_dict()["estimate"] == 1.25

    def test_enclosure_rounds_outward(self):
        point = enclosure(1.0, 2.0, 2.0)
        assert point.lo < 3.0 < point.hi
        assert point.hi - point.lo <= 1e-14 * 3.0
        assert enclosure(0.0, 0.0, 0.0) == Interval(0.0, 0.0)
        assert enclosure(1.0, math.inf, math.inf) == Interval(math.inf, math.inf)

    def test_serialization(self):
        v = _verdict(status=Status.CONVERGES, basis=Basis.ANALYTIC_TAIL, tail=0.5)
        d = v.to_dict()
        assert d["status"] == "converges"
        assert d["basis"] == "analytic_tail"
        assert d["value"] == {"lo": 1.0, "hi": 1.5}
        assert "tail_bound" not in d


class TestVerdictConstructor:
    @pytest.mark.parametrize(
        "status, basis",
        [
            (Status.CONVERGES, Basis.ANALYTIC_TAIL),
            (Status.DIVERGES, Basis.ANALYTIC_TAIL),
            (Status.INCONCLUSIVE, Basis.NUMERIC_ONLY),
        ],
    )
    def test_basis_rule(self, status, basis):
        assert verdict(status, 1.0, "t", (0.5, 2.0)).basis is basis

    def test_err_widens_both_ends(self):
        v = verdict(Status.CONVERGES, 1.0, "t", (0.5, 2.0), err=0.25)
        assert v.value == enclosure(1.0, 0.25, 2.25)
        assert v.value.lo < verdict(Status.CONVERGES, 1.0, "t", (0.5, 2.0)).value.lo
        assert v.partial_value == 1.0

    @pytest.mark.parametrize("status", [Status.DIVERGES, Status.INCONCLUSIVE])
    def test_upper_end_is_inf_unless_convergent(self, status):
        # a finite remainder envelope bounds nothing when the series does not converge
        v = verdict(status, 1.0, "t", (0.5, 2.0), err=0.25)
        assert v.value == enclosure(1.0, 0.25, math.inf)
        assert v.value.infinite
        assert v.estimate == 1.0

    def test_default_tail_and_note(self):
        v = verdict(Status.INCONCLUSIVE, 3.0, "criterion not evaluated", note="NumericError: x")
        assert v.value == enclosure(3.0, 0.0, math.inf)
        assert (v.truncation, v.note) == ("criterion not evaluated", "NumericError: x")

    @given(
        st.floats(0.0, 1e6),
        st.floats(0.0, 1e3),
        st.floats(0.0, 1e3),
        st.floats(0.0, 1e-3),
    )
    def test_rounding_is_enclosure(self, partial, lo, width, err):
        v = verdict(Status.CONVERGES, partial + err, "t", (lo, lo + width), err=err)
        assert v.value == enclosure(partial + err, lo - err, lo + width + err)

    def test_tail_status_has_one_home(self):
        import levycrit
        from levycrit import criteria

        assert criteria.tail_status is levycrit.tail_status is tail_status


class TestCombineEvidence:
    @given(st.lists(st.sampled_from(["transient", "recurrent", "none"]), max_size=6))
    def test_combination_rules(self, implications):
        evidence = [
            CriterionEvidence(f"c{i}", _verdict(), imp)
            for i, imp in enumerate(implications)
        ]
        verdict = combine_evidence(evidence)
        has_t = "transient" in implications
        has_r = "recurrent" in implications
        if has_t and has_r:
            assert verdict.classification is Classification.UNKNOWN
            assert verdict.conflict
        elif has_t:
            assert verdict.classification is Classification.TRANSIENT
        elif has_r:
            assert verdict.classification is Classification.RECURRENT
        else:
            assert verdict.classification is Classification.UNKNOWN
            assert not verdict.conflict

    def test_unsupported_classification_rejected(self):
        with pytest.raises(ValueError):
            TransienceVerdict(Classification.TRANSIENT, ())
        with pytest.raises(ValueError):
            TransienceVerdict(
                Classification.RECURRENT,
                (CriterionEvidence("c", _verdict(), "transient"),),
            )

    def test_conflict_must_be_unknown(self):
        ev = (
            CriterionEvidence("a", _verdict(), "transient"),
            CriterionEvidence("b", _verdict(), "recurrent"),
        )
        with pytest.raises(ValueError):
            TransienceVerdict(Classification.TRANSIENT, ev, conflict=True)
