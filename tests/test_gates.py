import math

import numpy as np
import pytest

from spinphoton import qstate as qs
from spinphoton.cavity import CavityParams, conditional_phase
from spinphoton.gates import (
    _CORRECTIONS,
    ConditionalReflectionGate,
    IdealGate,
    RealisticGate,
    apply_correction,
    apply_gate,
    circular_to_z,
    hadamard,
    make_gate,
    trion_emission_map,
)
from matrix_oracle import RY90, embed
from reference_states import double_reflection_state, rand_amp_pair

SQH = 1.0 / math.sqrt(2.0)
P1, P2, S1, S2 = qs.photon(1), qs.photon(2), qs.spin(1), qs.spin(2)


# --- ideal gate ----------------------------------------------------------------

def test_ideal_gate_entangles_h_photon_with_spin():
    # |H> against (|up>+|down>)/sqrt2: every amplitude alpha=beta=1/sqrt2 and
    # the coupled pair picks up i
    st = qs.tensor(qs.ket_state(P1, "H"), qs.qubit_state(S1, SQH, SQH))
    out = apply_gate(st, make_gate(P1, S1, IdealGate()))
    expected = np.array([1, 1j, 1j, 1]) / 2.0
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_ideal_gate_zero_phase_is_identity():
    rng = np.random.default_rng(4)
    a, b = rand_amp_pair(rng)
    st = qs.tensor(qs.qubit_state(P1, a, b), qs.qubit_state(S1, SQH, SQH))
    out = apply_gate(st, ConditionalReflectionGate(P1, S1, 1.0 + 0.0j, 1.0 + 0.0j))
    assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-15


def test_ideal_gate_twice_reproduces_double_reflection():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a1, b1 = rand_amp_pair(rng)
        a2, b2 = rand_amp_pair(rng)
        st = qs.tensor_all([
            qs.qubit_state(P1, a1, b1),
            qs.qubit_state(P2, a2, b2),
            qs.qubit_state(S1, SQH, SQH),
        ])
        st = apply_gate(st, make_gate(P1, S1, IdealGate()))
        st = apply_gate(st, make_gate(P2, S1, IdealGate()))
        ref = qs.PureState(st.register, double_reflection_state(a1, b1, a2, b2))
        assert qs.fidelity(st, ref) == pytest.approx(1.0, abs=1e-12)


def gate_matrix(gate):
    """4x4 matrix in the {R,L} x {up,down} product basis (photon first)."""
    u, c = gate.coeff_uncoupled, gate.coeff_coupled
    return np.diag(np.array([u, c, c, u], dtype=np.complex128))


def test_ideal_gate_matrix_is_diagonal_phase_exponential():
    g = ConditionalReflectionGate(P1, S1, complex(np.exp(1j * 0.73)), 1.0 + 0.0j)
    projector_sum = np.diag([0.0, 1.0, 1.0, 0.0])
    expected = np.diag(np.exp(1j * 0.73 * np.diag(projector_sum)))
    u = gate_matrix(g)
    assert np.max(np.abs(u - expected)) < 1e-12
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


# --- realistic gate -------------------------------------------------------------

def _distance_to_ideal(gate, delta_phi):
    """Operator distance after removing the shared cold phase."""
    u = gate.coeff_uncoupled
    mat = gate_matrix(gate) / (u / abs(u))
    ideal = np.diag(np.exp(1j * delta_phi * np.array([0.0, 1.0, 1.0, 0.0])))
    return float(np.max(np.abs(mat - ideal)))


def test_realistic_gate_extreme_coupling_approaches_ideal():
    p = CavityParams(g=1e6, kappa=1.0, gamma=1e-6)
    g = make_gate(P1, S1, RealisticGate(p, 0.5))
    assert _distance_to_ideal(g, math.pi / 2) <= 1e-3


def test_realistic_gate_without_coupling_is_global_factor():
    p = CavityParams(g=0.0, kappa=1.0, gamma=0.1)
    g = make_gate(P1, S1, RealisticGate(p, 0.5))
    assert g.coeff_coupled == g.coeff_uncoupled


def test_realistic_gate_continuity_near_unit_reflectance():
    p = CavityParams(g=1e3, kappa=1.0, gamma=1e-3)
    g = make_gate(P1, S1, RealisticGate(p, 0.5))
    assert abs(1.0 - abs(g.coeff_coupled)) <= 1e-6
    assert abs(1.0 - abs(g.coeff_uncoupled)) <= 1e-6
    dphi = conditional_phase(p, 0.5)
    assert _distance_to_ideal(g, dphi) <= 1e-5


def test_realistic_gate_records_survival_in_norm_tracking():
    p = CavityParams(g=2.4, kappa=1.0, gamma=0.1)
    g = make_gate(P1, S1, RealisticGate(p, 0.5))
    print("g=2.4 kappa gate:",
          f"delta_phi={conditional_phase(p, 0.5):.12f}",
          f"|r_hot|={abs(g.coeff_coupled):.12f}",
          f"|r_cold|={abs(g.coeff_uncoupled):.12f}")
    st = qs.tensor(qs.ket_state(P1, "H"), qs.qubit_state(S1, SQH, SQH))
    out = apply_gate(st, g)
    assert out.norm_tracking == pytest.approx(out.squared_norm(), abs=1e-12)
    assert out.norm_tracking < 1.0


# --- spin pulses and polarization unitaries ------------------------------------------

def test_ry_half_pulse_maps_interference_branches_to_poles():
    u = RY90
    minus = np.array([SQH, -SQH])
    plus = np.array([SQH, SQH])
    assert np.allclose(u @ minus, [1, 0], atol=1e-12)
    assert np.allclose(u @ plus, [0, 1], atol=1e-12)


def test_circular_to_z_maps_circular_superpositions_to_poles():
    u = circular_to_z()
    up_like = np.array([SQH, 1j * SQH])
    down_like = np.array([SQH, -1j * SQH])
    assert np.allclose(u @ up_like, [1, 0], atol=1e-12)
    assert np.allclose(u @ down_like, [0, 1], atol=1e-12)
    assert np.allclose(u, hadamard() @ np.diag([1.0, -1j]), atol=1e-12)


def test_to_45_sends_circular_diagonals_to_poles():
    # as a polarization rotation, circular_to_z takes the +-45 photon states to R/L
    u = circular_to_z()
    assert np.allclose(u @ qs.KET_P45, qs.KET_R, atol=1e-12)
    assert np.allclose(u @ qs.KET_M45, qs.KET_L, atol=1e-12)


# --- trion emission map ----------------------------------------------------------------

def test_emission_map_correlated_pair():
    rng = np.random.default_rng(15)
    a1, b1 = rand_amp_pair(rng)
    a2, b2 = rand_amp_pair(rng)
    vec = np.array([a1 * a2, 0, 0, -b1 * b2], complex)
    vec /= np.linalg.norm(vec)
    st = qs.PureState((S1, S2), vec)
    out = trion_emission_map(trion_emission_map(st, S1, P1), S2, P2)
    assert out.register == (P1, P2)
    # up,up -> L,L and down,down -> R,R
    expected = np.array([-b1 * b2, 0, 0, a1 * a2], complex)
    expected /= np.linalg.norm(expected)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_emission_map_anticorrelated_pair():
    rng = np.random.default_rng(16)
    a1, b1 = rand_amp_pair(rng)
    a2, b2 = rand_amp_pair(rng)
    vec = np.array([0, a1 * b2, a2 * b1, 0], complex)
    vec /= np.linalg.norm(vec)
    out = trion_emission_map(trion_emission_map(
        qs.PureState((S1, S2), vec), S1, P1), S2, P2)
    # up,down -> L,R and down,up -> R,L
    expected = np.array([0, a2 * b1, a1 * b2, 0], complex)
    expected /= np.linalg.norm(expected)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_emission_map_single_up_becomes_left():
    out = trion_emission_map(qs.ket_state(S1, "up"), S1, P1)
    assert np.array_equal(out.amplitudes, [0, 1])


def test_emission_map_preserves_inner_products():
    rng = np.random.default_rng(18)
    for _ in range(20):
        va = rng.normal(size=4) + 1j * rng.normal(size=4)
        vb = rng.normal(size=4) + 1j * rng.normal(size=4)
        sa = qs.PureState((S1, S2), va / np.linalg.norm(va))
        sb = qs.PureState((S1, S2), vb / np.linalg.norm(vb))
        ips = np.vdot(sa.amplitudes, sb.amplitudes)
        ea = trion_emission_map(sa, S1, P1)
        eb = trion_emission_map(sb, S1, P1)
        assert abs(np.vdot(ea.amplitudes, eb.amplitudes) - ips) < 1e-12


def test_emission_map_label_collision_and_kind_checks():
    st = qs.tensor(qs.ket_state(S1, "up"), qs.ket_state(P1, "R"))
    with pytest.raises(ValueError, match="already present"):
        trion_emission_map(st, S1, P1)
    with pytest.raises(ValueError, match="not a spin"):
        trion_emission_map(st, P1, P2)
    with pytest.raises(ValueError, match="not a photon"):
        trion_emission_map(st, S1, S2)


# --- correction unitaries ----------------------------------------------------------------

def _correction_cases(a, b):
    """(scheme, branch) -> (the conditioned state of the corrected qubit, the
    canonical transfer target alpha|up> + beta|down> or alpha|H> + beta|V>)."""
    target_spin = np.array([a, b])
    target_photon = a * qs.KET_H + b * qs.KET_V
    return {
        ("C", "H"): (np.array([a, 1j * b]), target_spin),
        ("C", "V"): (np.array([a, -1j * b]), target_spin),
        ("D", "up"): (a * qs.KET_P45 + 1j * b * qs.KET_M45, target_photon),
        ("D", "down"): (a * qs.KET_P45 - 1j * b * qs.KET_M45, target_photon),
    }


def test_correction_table_holds_both_schemes_and_both_branches():
    assert sorted(_CORRECTIONS) == sorted(_correction_cases(1.0, 0.0))


def test_corrections_reach_canonical_targets():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b = rand_amp_pair(rng)
        for key, (pre, target) in _correction_cases(a, b).items():
            post = _CORRECTIONS[key] @ pre
            fid = abs(np.vdot(target / np.linalg.norm(target),
                              post / np.linalg.norm(post))) ** 2
            assert fid == pytest.approx(1.0, abs=1e-12)


def test_corrections_identity_input():
    for key, (pre, target) in _correction_cases(1.0, 0.0).items():
        assert np.max(np.abs(_CORRECTIONS[key] @ pre - target)) < 1e-12


@pytest.mark.parametrize("scheme, branch", sorted(_CORRECTIONS))
def test_apply_correction_acts_on_its_target_only(scheme, branch):
    # scheme C corrects the spin, scheme D the output photon; either may sit first
    rng = np.random.default_rng(22)
    target, other = (S1, P1) if scheme == "C" else (P1, S1)
    for register in ((target, other), (other, target)):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        st = qs.PureState(register, v / np.linalg.norm(v))
        out = apply_correction(st, target, branch, scheme)
        expected = embed(_CORRECTIONS[scheme, branch], register.index(target), 2) @ st.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12
