"""integers_draw: value- and state-exact against ``Generator.integers``.

The draw reimplements numpy's bounded-int algorithm on the bit
generator's ``next_uint32``.  If these tests fail on a new numpy, the
library changed its algorithm: see the exact-draw entry in DESIGN.md.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import integers_draw

#: 2**31 + 1 rejects about half of all 32-bit words (the rejection
#: loop); 2**32 is the unbounded 32-bit branch; 1 consumes nothing.
SPANS = [1, 2, 3, 51, 101, 2**31 + 1, 2**32]

OTHER_DRAWS = {
    "gamma": lambda g: g.gamma(0.7, 80.0),
    "random": lambda g: g.random(),
    "uniform": lambda g: g.uniform(2.0, 5.0),
    "standard_normal": lambda g: g.standard_normal(),
}

_int_run = st.tuples(
    st.just("int"),
    st.sampled_from(SPANS),
    st.integers(-(2**40), 2**40),
    st.integers(0, 3).map(lambda k: 2 * k + 1),  # odd: leaves a buffered half-word
)
_other = st.sampled_from(sorted(OTHER_DRAWS)).map(lambda name: (name,))


def _pair(seed):
    return (np.random.Generator(np.random.PCG64(seed)),
            np.random.Generator(np.random.PCG64(seed)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), ops=st.lists(st.one_of(_int_run, _other), max_size=40))
def test_matches_generator_integers(seed, ops):
    ours, reference = _pair(seed)
    draw = integers_draw(ours)
    for op in ops:
        if op[0] == "int":
            _, span, low, count = op
            for _ in range(count):
                assert draw(low, low + span) == int(reference.integers(low, low + span))
        else:
            assert OTHER_DRAWS[op[0]](ours) == OTHER_DRAWS[op[0]](reference)
    assert ours.bit_generator.state == reference.bit_generator.state


def test_rejection_loop_matches():
    ours, reference = _pair(5)
    draw = integers_draw(ours)
    span = 2**31 + 1
    got = [draw(0, span) for _ in range(201)]
    assert got == [int(v) for v in (reference.integers(0, span) for _ in range(201))]
    assert ours.bit_generator.state == reference.bit_generator.state


def test_span_one_consumes_nothing():
    generator = np.random.Generator(np.random.PCG64(3))
    before = generator.bit_generator.state
    assert integers_draw(generator)(7, 8) == 7
    assert generator.bit_generator.state == before


@pytest.mark.parametrize("low,high", [(0, 0), (5, 3), (0, 2**32 + 1)])
def test_bad_span_rejected(low, high):
    with pytest.raises(ValueError):
        integers_draw(np.random.default_rng(1))(low, high)


def test_returns_python_int_and_keeps_generator():
    generator = np.random.default_rng(9)
    draw = integers_draw(generator)
    assert type(draw(-25, 26)) is int
    assert draw.generator is generator
