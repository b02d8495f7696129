"""scheme-a and the two transfers against the exact rational referee
(``exact_reference``), over the derandomized configs of the batch properties:
ideal and realistic gates, with and without dephasing."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinphoton import replace
from spinphoton.protocols import run_protocol
from exact_reference import EXACT, ulps
from test_batch_properties import DERANDOMIZED, dephased_configs

# A probability is a handful of roundings of sums and products of O(1)
# terms, so its error is relative: the chain's closed form was measured
# within 7 ulp of its exact value, and these draws within 4.0.
PROBABILITY_ULPS = 7
SMALL = Fraction(1, 10 ** 6)  # a smaller probability is held to ABSOLUTE instead
# The probability floor reports a branch up to 1e-24 as 0; the other small
# probabilities of these draws lie within 4.1e-32.
ABSOLUTE = Fraction(1, 10 ** 23)
# A fidelity is the squared overlap of two unit vectors, which
# qstate.fidelity normalizes (a sum, a square root and a division each),
# sums and squares, so its error is absolute, a few 2^-53 at any value: at
# most 10 ulp of a fidelity in [1/2, 1), but already 10.8 ulp for an error of
# 1.35 x 2^-53 at F = 0.12. These draws lie within 7.1 x 2^-53. The largest
# seen, 8.5 x 2^-53, was a scheme-a fidelity that the register engine these
# runs replaced scored alike; there the exact fidelity of the program's own
# float state and target is within 0.5 ulp, so the rest is the scoring's.
FIDELITY_ERROR = Fraction(10, 2 ** 53)


def assert_probability(x: float, exact: Fraction, label: str) -> None:
    if exact > SMALL:
        assert ulps(x, exact) <= PROBABILITY_ULPS, (label, x, float(exact))
    else:
        assert abs(Fraction(x) - exact) <= ABSOLUTE, (label, x, float(exact))


@pytest.mark.parametrize("dephased", [False, True])
@pytest.mark.parametrize("protocol", sorted(EXACT))
@DERANDOMIZED
@given(data=st.data())
def test_scores_lie_within_a_few_ulp_of_the_exact_values(protocol, dephased, data):
    config = data.draw(dephased_configs(batched=False))
    if not dephased:
        config = replace(config, t_over_t2=0.0)
    exact = EXACT[protocol](config)
    for c in run_protocol(protocol, config).columns:
        p, f = exact[c.label]
        assert_probability(c.probability[0], p, c.label)
        if c.probability[0] > 0.0 and f is not None:
            assert abs(Fraction(c.fidelity[0]) - f) <= FIDELITY_ERROR, (c.label, c.fidelity[0])
        else:
            assert math.isnan(c.fidelity[0]), c.label
