"""Every protocol against the exact rational referee (``exact_reference``),
over the derandomized configs of the batch properties: ideal and realistic
gates, with and without dephasing. scheme-a and the two transfers are scored
on their states (``qstate.fidelity``), scheme-b and ghz (n = 2..6) in the
chain's closed form."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinphoton import replace
from spinphoton.protocols import run_protocol
from exact_reference import EXACT, chain, ulps
from test_batch_properties import DERANDOMIZED, dephased_configs

# A probability is a handful of roundings of sums and products of O(1)
# terms, so its error is relative: these draws lie within 4.0 ulp.
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
# The chain's probability |x|^2 sum_m e_m |u^(n-m) c^m +- c^(n-m) u^m|^2 loses
# digits where the two terms nearly cancel: its draws here lie within 6.1
# ulp, but two sweeps of 4,000 random draws each (the same configs, n =
# 2..6) reached 8.8 and 15.6 ulp, and 1.8e-22 below SMALL. These bounds are
# the worst seen.
CHAIN_PROBABILITY_ULPS = 16
CHAIN_ABSOLUTE = Fraction(2, 10 ** 22)
# The chain's fidelity is a ratio of those sums, so its error is relative,
# plus an absolute part from the overlap's cancelling sum over m; in units of
# 2^-53 its draws here lie within 8 F + 0.54. The bound 10 F + 1 is tight
# enough that a 1 + 2^-50 factor on the +45/up, -45/up or -45/down fidelity
# fails these draws; +45/down's fidelities are mostly too small to show it.
# In each of the two sweeps above, one fidelity of about 12,000 exceeded it
# (4.1 at F = 0.29; 10.6 at F = 0.93): it is held on these draws only.
CHAIN_RELATIVE, CHAIN_CANCELLATION = 10, 1


def assert_probability(x: float, exact: Fraction, label: str, ulp_bound=PROBABILITY_ULPS,
                       absolute=ABSOLUTE) -> None:
    if exact > SMALL:
        assert ulps(x, exact) <= ulp_bound, (label, x, float(exact))
    else:
        assert abs(Fraction(x) - exact) <= absolute, (label, x, float(exact))


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


def assert_chain_fidelity(x: float, exact: Fraction, label: str) -> None:
    error = abs(Fraction(x) - exact) / Fraction(1, 2 ** 53)
    assert error <= CHAIN_RELATIVE * exact + CHAIN_CANCELLATION, (label, x, float(exact))


@pytest.mark.parametrize("dephased", [False, True])
@pytest.mark.parametrize("n", range(2, 7))
@DERANDOMIZED
@given(data=st.data())
def test_chain_scores_lie_within_a_few_ulp_of_the_exact_values(n, dephased, data):
    config = data.draw(dephased_configs(batched=False))
    if not dephased:
        config = replace(config, t_over_t2=0.0)
    exact = chain(config, n)
    for c in run_protocol("scheme-b" if n == 2 else "ghz", config, n_photons=n).columns:
        p, f = exact[c.label]
        assert_probability(c.probability[0], p, c.label, CHAIN_PROBABILITY_ULPS, CHAIN_ABSOLUTE)
        if c.probability[0] > 0.0 and f is not None:
            assert_chain_fidelity(c.fidelity[0], f, c.label)
        else:
            assert math.isnan(c.fidelity[0]), c.label
