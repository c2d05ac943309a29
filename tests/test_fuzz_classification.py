"""Property tests: random laws classify correctly by their tail exponent.

Every criterion takes its decision from the declared tail, so the combined
verdict matches the tail rule (transient iff the dominant power exponent is
below 2) without conflict, right up to the critical exponent 2.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from levycrit import (
    Classification,
    PowerPiece,
    TailDescriptor,
    TailKind,
    classify,
    make_lattice_table,
    make_piecewise_power,
    make_walk_triplet,
)

RHO_STRATEGY = st.floats(min_value=1.15, max_value=2.9)


@settings(max_examples=15, deadline=None)
@given(
    rho=RHO_STRATEGY,
    core=st.floats(min_value=0.05, max_value=5.0),
)
def test_piecewise_law_classified_by_tail(rho, core):
    # flat core on [0, 1], single power tail beyond; normalized to mass 1
    one_side = core + core / (rho - 1.0)
    scale = 1.0 / (2.0 * one_side)
    law = make_piecewise_power(
        [
            PowerPiece(0.0, 1.0, ((core * scale, 0.0),)),
            PowerPiece(1.0, math.inf, ((core * scale, rho),)),
        ]
    )
    verdict = classify(make_walk_triplet(law))
    expected = Classification.TRANSIENT if rho < 2.0 else Classification.RECURRENT
    assert verdict.classification is expected
    assert not verdict.conflict


@settings(max_examples=15, deadline=None)
@given(
    rho=RHO_STRATEGY,
    m1=st.floats(min_value=0.01, max_value=10.0),
    m2=st.floats(min_value=0.01, max_value=10.0),
    m3=st.floats(min_value=0.01, max_value=10.0),
)
def test_table_law_classified_by_declared_tail(rho, m1, m2, m3):
    law = make_lattice_table(
        {1: m1, 2: m2, 3: m3},
        tail=TailDescriptor(TailKind.POWER_LAW, exponent=rho, constant=1.0, onset=3.0),
    )
    verdict = classify(make_walk_triplet(law))
    expected = Classification.TRANSIENT if rho < 2.0 else Classification.RECURRENT
    assert verdict.classification is expected
    assert not verdict.conflict
