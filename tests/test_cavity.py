import math

import numpy as np
import pytest

from spinphoton.cavity import (
    CavityParams,
    ParameterError,
    check_field,
    conditional_phase,
    find_operating_point,
    reflect,
    reflection_coefficient,
)
from reference_states import cold_phase_closed_form


def params(g=10.0, kappa=1.0, gamma=0.1, kappa_s=0.0, omega_x=None):
    return CavityParams(g=g, kappa=kappa, gamma=gamma, omega_c=0.0,
                        omega_x=omega_x, kappa_s=kappa_s)


def random_params(rng):
    return CavityParams(
        g=float(rng.uniform(0.1, 50.0)),
        kappa=float(rng.uniform(0.2, 5.0)),
        gamma=float(rng.uniform(0.0, 2.0)),
        omega_c=float(rng.uniform(-5.0, 5.0)),
        omega_x=float(rng.uniform(-5.0, 5.0)),
        kappa_s=float(rng.uniform(0.0, 2.0)),
    )


# --- parameter validation ------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError, match="kappa"):
        CavityParams(g=1, kappa=0, gamma=0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        CavityParams(g=-1, kappa=1, gamma=0.1)
    p = CavityParams(g=1, kappa=1, gamma=0.1)
    assert p.omega_x == p.omega_c


@pytest.mark.parametrize("field", ["g", "gamma", "kappa_s"])
def test_params_name_the_negative_field(field):
    base = dict(g=1.0, kappa=1.0, gamma=0.1, kappa_s=0.0)
    with pytest.raises(ValueError, match=rf"^{field} must be nonnegative, got -1.0$"):
        CavityParams(**{**base, field: -1.0})
    with pytest.raises(ValueError, match=rf"^{field} must be nonnegative, got -2.0$"):
        CavityParams(**{**base, field: np.array([1.0, -2.0])})


@pytest.mark.parametrize("field", ["g", "kappa", "gamma", "omega_c", "omega_x", "kappa_s"])
def test_params_reject_non_finite_field(field):
    base = dict(g=1.0, kappa=1.0, gamma=0.1, omega_c=0.0, omega_x=0.0, kappa_s=0.0)
    for bad in (math.nan, math.inf, -math.inf, np.array([1.0, math.nan, 2.0])):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            CavityParams(**{**base, field: bad})


# each rule's verdict on a value: the number in the message, or None if it passes
RULE_VERDICTS = {
    "finite": {math.nan: "nan", math.inf: "inf", -math.inf: "-inf", -1.0: None, 0.0: None},
    "positive": {math.nan: "nan", math.inf: None, -math.inf: "-inf", -1.0: "-1.0", 0.0: "0.0"},
    "nonnegative": {math.nan: "nan", math.inf: None, -math.inf: "-inf", -1.0: "-1.0",
                    0.0: None},
}


def _refusal(value, rule):
    try:
        check_field("x", value, rule)
    except ParameterError as exc:
        assert exc.field == "x"
        return str(exc)
    return None


@pytest.mark.parametrize("rule", RULE_VERDICTS)
def test_a_number_and_an_array_get_one_verdict(rule):
    # a Python number, a numpy scalar and an array get one message
    for value, got in RULE_VERDICTS[rule].items():
        expected = None if got is None else f"x must be {rule}, got {got}"
        forms = [value, np.array(value), np.array([value]), np.float64(value)]
        if math.isfinite(value):  # -1.0 and 0.0 as ints too
            forms.append(int(value))
        assert [_refusal(v, rule) for v in forms] == [expected] * len(forms), value


def test_strong_coupling_predicate():
    assert params(g=10).strong_coupling()
    assert not params(g=0.5).strong_coupling()
    assert not CavityParams(g=1, kappa=0.5, gamma=2.0).strong_coupling()


# --- reflect -------------------------------------------------------------------

def test_cold_cavity_on_resonance():
    resp = reflect(params(), 0.0, coupled=False)
    assert abs(resp.r - (-1.0)) < 1e-12
    assert resp.magnitude == pytest.approx(1.0, abs=1e-12)
    assert resp.phase == pytest.approx(math.pi, abs=1e-12)


def test_cold_cavity_at_half_kappa():
    resp = reflect(params(), 0.5, coupled=False)
    assert resp.phase == pytest.approx(-math.pi / 2, abs=1e-12)
    assert resp.magnitude == pytest.approx(1.0, abs=1e-12)


def test_hot_cavity_strongly_coupled_near_unit_reflection():
    resp = reflect(params(g=10, gamma=0.1), 0.5, coupled=True)
    assert resp.magnitude >= 0.99
    assert abs(resp.phase) <= 0.05


def test_side_leakage_degrades_cold_reflectance():
    lossy = reflect(params(kappa_s=0.5), 0.0, coupled=False)
    assert lossy.magnitude < 1.0


# --- closed-form cold phase ------------------------------------------------------

def test_closed_form_at_resonance_returns_plus_pi():
    assert cold_phase_closed_form(params(), 0.0) == pytest.approx(math.pi, abs=1e-15)


def test_closed_form_half_kappa():
    assert cold_phase_closed_form(params(), 0.5) == pytest.approx(-math.pi / 2, abs=1e-12)


def test_closed_form_odd_symmetry():
    assert cold_phase_closed_form(params(), -0.5) == pytest.approx(math.pi / 2, abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = float(rng.uniform(0.01, 10.0))
        plus = cold_phase_closed_form(params(), d)
        minus = cold_phase_closed_form(params(), -d)
        # the two branch representatives sum to zero mod 2 pi
        assert min(abs(plus + minus), abs(abs(plus + minus) - 2 * math.pi)) < 1e-12


def test_closed_form_agrees_with_reflection_everywhere():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p = random_params(rng)
        detunings = np.linspace(-10 * p.kappa, 10 * p.kappa, 801)
        detunings = detunings[np.abs(detunings) > 1e-9]  # skip the branch point
        for d in detunings[:: max(1, len(detunings) // 200)]:
            omega = p.omega_c + float(d)
            ph = reflect(CavityParams(p.g, p.kappa, p.gamma, p.omega_c, p.omega_x, 0.0),
                         omega, coupled=False).phase
            cf = cold_phase_closed_form(p, omega)
            diff = (ph - cf + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-9


# --- conditional phase -------------------------------------------------------------

def test_conditional_phase_near_pi_over_2_at_operating_point():
    assert conditional_phase(params(g=10, gamma=0.1), 0.5) == pytest.approx(
        math.pi / 2, abs=0.05)


def test_conditional_phase_zero_without_coupling():
    assert conditional_phase(params(g=0.0), 0.5) == 0.0


def test_conditional_phase_converges_with_coupling():
    err10 = abs(conditional_phase(params(g=10, gamma=0.1), 0.5) - math.pi / 2)
    err100 = abs(conditional_phase(params(g=100, gamma=0.01), 0.5) - math.pi / 2)
    assert err100 < err10


# --- operating point search ----------------------------------------------------------

def test_operating_point_ideal_limit_is_half_kappa():
    p = params(g=1e4, gamma=0.01)
    d = find_operating_point(p, math.pi / 2)
    assert abs(d - 0.5) < 1e-6
    assert conditional_phase(p, p.omega_c + d) == pytest.approx(math.pi / 2, abs=1e-9)


def test_operating_point_moderate_coupling_within_ten_percent():
    d = find_operating_point(params(g=10, gamma=0.1), math.pi / 2)
    assert abs(d - 0.5) < 0.05


def test_operating_point_scales_with_kappa():
    p = CavityParams(g=1e4 * 2.5, kappa=2.5, gamma=0.01, omega_c=7.0)
    d = find_operating_point(p, math.pi / 2)
    assert abs(d - 1.25) < 1e-4


def test_operating_point_unreachable_target():
    with pytest.raises(ValueError, match="unreachable"):
        find_operating_point(params(g=10, gamma=0.1), 0.05)


def test_operating_point_validation():
    with pytest.raises(ParameterError, match="strong coupling"):
        find_operating_point(params(g=0.5), math.pi / 2)
    with pytest.raises(ParameterError, match="target phase"):
        find_operating_point(params(), 3.5)


# --- sweep properties ------------------------------------------------------------------

def test_passivity_over_random_parameter_sets():
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = random_params(rng)
        om = p.omega_c + np.linspace(-10 * p.kappa, 10 * p.kappa, 10_000)
        for coupled in (False, True):
            r = reflection_coefficient(p, om, coupled)
            assert np.max(np.abs(r)) <= 1.0 + 1e-12


def test_cold_unit_modulus_without_side_leakage():
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = random_params(rng)
        p = CavityParams(p.g, p.kappa, p.gamma, p.omega_c, p.omega_x, 0.0)
        om = p.omega_c + np.linspace(-10 * p.kappa, 10 * p.kappa, 10_000)
        r = reflection_coefficient(p, om, coupled=False)
        assert np.max(np.abs(np.abs(r) - 1.0)) < 1e-12


def test_hot_cavity_limit_improves_monotonically():
    mags, phases = [], []
    for g in (2.0, 5.0, 10.0, 50.0):
        resp = reflect(params(g=g, gamma=0.1), 0.5, coupled=True)
        mags.append(1.0 - resp.magnitude)
        phases.append(abs(resp.phase))
    assert all(b < a for a, b in zip(mags, mags[1:]))
    assert all(b < a for a, b in zip(phases, phases[1:]))
