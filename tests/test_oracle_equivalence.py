"""Re-run every protocol through explicit full-matrix composition and compare
against the orchestration path elementwise.

The oracle here mirrors each protocol's published circuit step by step with
np.kron-built operators and projectors, independent of the package's tensor
machinery.
"""
import math

import numpy as np
import pytest

from spinphoton import qstate as qs
from spinphoton.cavity import CavityParams, reflect
from spinphoton.gates import IdealGate, RealisticGate
from spinphoton.protocols import (
    ProtocolConfig,
    chain_multiphoton,
    run_protocol,
    scheme_a_emit,
    scheme_a_entangle_spins,
    scheme_b_entangle_photons,
    transfer_photon_to_spin,
    transfer_spin_to_photon,
)
from matrix_oracle import (
    CIRC_TO_Z,
    CORR_C,
    CORR_D,
    HADAMARD,
    KET,
    RY90,
    TO_45,
    X,
    branch,
    branch_rho,
    conjugate,
    dephase,
    diag_pair_matrix,
    embed,
    kron_all,
)
from reference_states import rand_amp_pair

ATOL = 1e-12
SQH = 1.0 / math.sqrt(2.0)


def gate_coeffs(mode):
    if isinstance(mode, IdealGate):
        return complex(np.exp(1j * math.pi / 2)), 1.0 + 0.0j
    hot = reflect(mode.params, mode.omega, coupled=True)
    cold = reflect(mode.params, mode.omega, coupled=False)
    return hot.r, cold.r


def modes():
    p = CavityParams(g=4.0, kappa=1.0, gamma=0.1, kappa_s=0.05)
    return [IdealGate(), RealisticGate(p, 0.5)]


def assert_states_equal(state, vec):
    assert np.max(np.abs(state.amplitudes - vec)) < ATOL


# --- scheme A ------------------------------------------------------------------

@pytest.mark.parametrize("mode_idx", [0, 1])
def test_scheme_a_matches_matrix_oracle(mode_idx):
    rng = np.random.default_rng(81 + mode_idx)
    mode = modes()[mode_idx]
    for _ in range(5):
        a1, b1 = rand_amp_pair(rng)
        a2, b2 = rand_amp_pair(rng)
        cfg = ProtocolConfig(gate=mode, alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)
        res = scheme_a_entangle_spins(cfg)
        emitted = scheme_a_emit(res, cfg)

        # oracle: register (spin1, spin2, photon)
        cc, cu = gate_coeffs(mode)
        psi = kron_all([np.array([a1, b1]), np.array([a2, b2]), KET["H"]])
        psi = diag_pair_matrix(3, 2, 0, cc, cu) @ psi
        psi = diag_pair_matrix(3, 2, 1, cc, cu) @ psi
        for label in ("H", "V"):
            p, rest = branch(psi, 2, 3, KET[label])
            br = res.branch(label)
            assert abs(br.probability - p) < ATOL
            if p > 0:
                assert_states_equal(br.state, rest)
                em = kron_all([X, X]) @ rest
                assert_states_equal(emitted.branch(label).state, em)


# --- scheme B ------------------------------------------------------------------

@pytest.mark.parametrize("mode_idx", [0, 1])
def test_scheme_b_matches_matrix_oracle(mode_idx):
    rng = np.random.default_rng(83 + mode_idx)
    mode = modes()[mode_idx]
    for _ in range(5):
        a1, b1 = rand_amp_pair(rng)
        a2, b2 = rand_amp_pair(rng)
        cfg = ProtocolConfig(gate=mode, alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)
        res = scheme_b_entangle_photons(cfg)

        # oracle: register (p1, p2, p3, spin)
        cc, cu = gate_coeffs(mode)
        psi = kron_all([np.array([a1, b1]), np.array([a2, b2]), KET["H"],
                        np.array([SQH, SQH])])
        psi = diag_pair_matrix(4, 0, 3, cc, cu) @ psi
        psi = diag_pair_matrix(4, 1, 3, cc, cu) @ psi
        psi = embed(RY90, 3, 4) @ psi
        psi = diag_pair_matrix(4, 2, 3, cc, cu) @ psi
        survival = float(np.vdot(psi, psi).real)
        total = 0.0
        for l3 in ("+45", "-45"):
            p3, rest3 = branch(psi, 2, 4, KET[l3])
            for ls in ("up", "down"):
                ps, rest = branch(rest3, 2, 3, KET[ls])
                joint = p3 * ps
                total += joint
                br = res.branch(f"{l3}/{ls}")
                assert abs(br.probability - joint) < ATOL
                if joint > 1e-20:
                    assert_states_equal(br.state, rest)
        assert abs(total - survival) < ATOL


# --- scheme C ------------------------------------------------------------------

@pytest.mark.parametrize("mode_idx", [0, 1])
def test_transfer_photon_to_spin_matches_matrix_oracle(mode_idx):
    rng = np.random.default_rng(85 + mode_idx)
    mode = modes()[mode_idx]
    for _ in range(5):
        a, b = rand_amp_pair(rng)
        cfg = ProtocolConfig(gate=mode, alpha1=a, beta1=b)
        res = transfer_photon_to_spin(cfg)

        cc, cu = gate_coeffs(mode)
        psi = kron_all([np.array([a, b]), np.array([SQH, SQH])])
        psi = diag_pair_matrix(2, 0, 1, cc, cu) @ psi
        for label in ("H", "V"):
            p, rest = branch(psi, 0, 2, KET[label])
            out = CORR_C[label] @ (CIRC_TO_Z @ rest)
            br = res.branch(label)
            assert abs(br.probability - p) < ATOL
            assert_states_equal(br.state, out)


# --- scheme D ------------------------------------------------------------------

@pytest.mark.parametrize("mode_idx", [0, 1])
def test_transfer_spin_to_photon_matches_matrix_oracle(mode_idx):
    rng = np.random.default_rng(87 + mode_idx)
    mode = modes()[mode_idx]
    for _ in range(5):
        a, b = rand_amp_pair(rng)
        cfg = ProtocolConfig(gate=mode, alpha1=a, beta1=b)
        res = transfer_spin_to_photon(cfg)

        # oracle: register (p1, spin, p3)
        cc, cu = gate_coeffs(mode)
        psi = kron_all([KET["H"], np.array([a, b]), KET["H"]])
        psi = diag_pair_matrix(3, 0, 1, cc, cu) @ psi
        psi = embed(HADAMARD, 1, 3) @ psi
        psi = diag_pair_matrix(3, 2, 1, cc, cu) @ psi
        for l3, announced in (("+45", "up"), ("-45", "down")):
            p3, rest3 = branch(psi, 2, 3, KET[l3])
            for ls in ("up", "down"):
                ps, rest = branch(rest3, 1, 2, KET[ls])
                joint = p3 * ps
                br = res.branch(f"{announced}/{ls}")
                assert abs(br.probability - joint) < ATOL
                if joint > 1e-20:
                    assert_states_equal(br.state, CORR_D[announced] @ rest)


# --- chain (5-qubit register) ------------------------------------------------------

@pytest.mark.parametrize("mode_idx", [0, 1])
def test_chain_three_photons_matches_matrix_oracle(mode_idx):
    rng = np.random.default_rng(89 + mode_idx)
    mode = modes()[mode_idx]
    for _ in range(3):
        a1, b1 = rand_amp_pair(rng)
        a2, b2 = rand_amp_pair(rng)
        cfg = ProtocolConfig(gate=mode, alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)
        res = chain_multiphoton(cfg, 3)

        # oracle: register (p1, p2, p3, ancilla, spin), n = 5
        cc, cu = gate_coeffs(mode)
        psi = kron_all([np.array([a1, b1]), np.array([a2, b2]), KET["H"],
                        KET["H"], np.array([SQH, SQH])])
        for k in range(3):
            psi = diag_pair_matrix(5, k, 4, cc, cu) @ psi
        psi = embed(RY90, 4, 5) @ psi
        psi = diag_pair_matrix(5, 3, 4, cc, cu) @ psi
        phase_fix = np.diag([1.0, (-1j) ** 3]).astype(complex)
        for l3 in ("+45", "-45"):
            p3, rest3 = branch(psi, 3, 5, KET[l3])
            for ls in ("up", "down"):
                ps, rest = branch(rest3, 3, 4, KET[ls])
                joint = p3 * ps
                br = res.branch(f"{l3}/{ls}")
                assert abs(br.probability - joint) < ATOL
                if joint > 1e-20:
                    corr = kron_all([TO_45, TO_45, TO_45])
                    corr = kron_all([phase_fix, np.eye(4)]) @ corr
                    assert_states_equal(br.state, corr @ rest)


# --- engine-level gate oracle --------------------------------------------------------

def test_diagonal_pair_equals_explicit_matrix_on_random_circuits():
    rng = np.random.default_rng(91)
    labels = [qs.photon(1), qs.photon(2), qs.photon(3), qs.spin(1), qs.spin(2)]
    photon_pos = [0, 1, 2]
    spin_pos = [3, 4]
    for _ in range(50):
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        v /= np.linalg.norm(v)
        st = qs.PureState(tuple(labels), v)
        vec = v.copy()
        for _ in range(4):
            pp = int(rng.choice(photon_pos))
            sp = int(rng.choice(spin_pos))
            cc = complex(rng.normal(), rng.normal())
            cc /= max(abs(cc), 1.0)  # keep within the unit disk
            cu = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
            st = qs.apply_diagonal_pair(st, labels[pp], labels[sp], cc, cu)
            vec = diag_pair_matrix(5, pp, sp, cc, cu) @ vec
        assert np.max(np.abs(st.amplitudes - vec)) < 1e-12


# --- noisy path oracle ----------------------------------------------------------------

def test_noisy_scheme_a_matches_kraus_matrix_oracle():
    t = 0.2
    cfg = ProtocolConfig(t_over_t2=t)
    res = scheme_a_emit(scheme_a_entangle_spins(cfg), cfg)

    psi = kron_all([np.array([SQH, SQH]), np.array([SQH, SQH]), KET["H"]])
    psi = diag_pair_matrix(3, 2, 0, 1j, 1) @ psi
    psi = diag_pair_matrix(3, 2, 1, 1j, 1) @ psi
    for label in ("H", "V"):
        p, rest = branch(psi, 2, 3, KET[label])
        rho = np.outer(rest, rest.conj())
        q = (1.0 - math.exp(-t)) / 2.0
        for pos in (0, 1):
            z = embed(np.diag([1.0, -1.0]).astype(complex), pos, 2)
            rho = (1 - q) * rho + q * (z @ rho @ z)
        flip = kron_all([X, X])
        rho = flip @ rho @ flip
        br = res.branch(label)
        assert abs(br.probability - p) < ATOL
        assert np.max(np.abs(br.state.matrix - rho)) < ATOL


# --- every dephased protocol against the Kraus oracle ------------------------------------
#
# The oracle evolves the full density matrix and applies each waiting interval
# where it occurs in the circuit, so it also checks that the package may merge
# the intervals up to the next non-diagonal spin pulse.

def _pure_rho(vectors):
    psi = kron_all([np.asarray(v, dtype=complex) for v in vectors])
    return np.outer(psi, psi.conj())


def _kraus_scheme_a(cc, cu, amps, t):
    (a1, b1), (a2, b2) = amps
    # register (spin1, spin2, probe); the probe is read out in H/V
    rho = _pure_rho([[a1, b1], [a2, b2], KET["H"]])
    rho = conjugate(diag_pair_matrix(3, 2, 0, cc, cu), rho)
    rho = conjugate(diag_pair_matrix(3, 2, 1, cc, cu), rho)
    leaves = {}
    for label in ("H", "V"):
        p, rest = branch_rho(rho, 2, 3, KET[label])
        rest = dephase(dephase(rest, 0, 2, t), 1, 2, t)
        leaves[label] = (p, conjugate(kron_all([X, X]), rest))
    return leaves


def _kraus_chain(cc, cu, amps, t, n):
    # register (photon 1..n, ancilla, spin); n = 2 is scheme B
    (a1, b1), (a2, b2) = amps
    m = n + 2
    anc, sp = n, n + 1
    rho = _pure_rho([[a1, b1], [a2, b2]] + [KET["H"]] * (n - 1) + [[SQH, SQH]])
    for k in range(n):
        if k:
            rho = dephase(rho, sp, m, t)
        rho = conjugate(diag_pair_matrix(m, k, sp, cc, cu), rho)
    rho = dephase(rho, sp, m, t)
    rho = conjugate(embed(RY90, sp, m), rho)
    rho = conjugate(diag_pair_matrix(m, anc, sp, cc, cu), rho)
    plates = np.eye(2 ** n)
    if n > 2:
        plates = kron_all([TO_45] * n)
        plates = embed(np.diag([1.0, (-1j) ** n]), 0, n) @ plates
    leaves = {}
    for l3 in ("+45", "-45"):
        p3, rest3 = branch_rho(rho, anc, m, KET[l3])
        for ls in ("up", "down"):
            ps, rest = branch_rho(rest3, anc, m - 1, KET[ls])
            leaves[f"{l3}/{ls}"] = (p3 * ps, conjugate(plates, rest))
    return leaves


def _kraus_transfer_sp(cc, cu, amps, t):
    (a, b), _ = amps
    # register (photon 1, spin, ancilla photon 3)
    rho = _pure_rho([KET["H"], [a, b], KET["H"]])
    rho = conjugate(diag_pair_matrix(3, 0, 1, cc, cu), rho)
    rho = dephase(rho, 1, 3, t)
    rho = conjugate(embed(HADAMARD, 1, 3), rho)
    rho = conjugate(diag_pair_matrix(3, 2, 1, cc, cu), rho)
    leaves = {}
    for l3, announced in (("+45", "up"), ("-45", "down")):
        p3, rest3 = branch_rho(rho, 2, 3, KET[l3])
        for ls in ("up", "down"):
            ps, rest = branch_rho(rest3, 1, 2, KET[ls])
            leaves[f"{announced}/{ls}"] = (p3 * ps, conjugate(CORR_D[announced], rest))
    return leaves


KRAUS_ORACLES = {
    "scheme-a": _kraus_scheme_a,
    "scheme-b": lambda cc, cu, amps, t: _kraus_chain(cc, cu, amps, t, 2),
    "transfer-sp": _kraus_transfer_sp,
    **{f"ghz{n}": (lambda cc, cu, amps, t, n=n: _kraus_chain(cc, cu, amps, t, n))
       for n in range(3, 7)},
}


@pytest.mark.parametrize("name", sorted(KRAUS_ORACLES))
def test_dephased_protocol_matches_kraus_matrix_oracle(name):
    rng = np.random.default_rng(97)
    protocol, n_photons = ("ghz", int(name[3:])) if name.startswith("ghz") else (name, 3)
    for mode in modes():
        cc, cu = gate_coeffs(mode)
        for t in (0.05, 0.3, 2.0):
            amps = (rand_amp_pair(rng), rand_amp_pair(rng))
            (a1, b1), (a2, b2) = amps
            cfg = ProtocolConfig(gate=mode, alpha1=a1, beta1=b1, alpha2=a2, beta2=b2,
                                 t_over_t2=t)
            res = run_protocol(protocol, cfg, n_photons=n_photons)
            leaves = KRAUS_ORACLES[name](cc, cu, amps, t)
            assert sorted(b.label for b in res.branches) == sorted(leaves)
            for label, (p, rho) in leaves.items():
                br = res.branch(label)
                assert abs(br.probability - p) < ATOL
                if p > 1e-20:
                    assert np.max(np.abs(br.state.matrix - rho)) < ATOL
