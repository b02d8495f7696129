import math

import numpy as np
import pytest

from spinphoton import qstate as qs
from spinphoton.cavity import CavityParams
from spinphoton.gates import RealisticGate
from spinphoton.metrics import SweepSpec, concurrence, entanglement_entropy, run_sweep
from spinphoton.protocols import ProtocolConfig
from reference_states import rand_amp_pair

P1, P2 = qs.photon(1), qs.photon(2)


def two_photon(vec):
    v = np.asarray(vec, dtype=complex)
    return qs.PureState((P1, P2), v / np.linalg.norm(v))


# --- concurrence -----------------------------------------------------------------

def test_concurrence_bell_state():
    assert concurrence(two_photon([1, 0, 0, -1])) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    assert concurrence(two_photon([0, 1, 0, 0])) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_partially_entangled_closed_form():
    # amplitudes (0.64, 0, 0, -0.36) before normalization:
    # C = 2 * 0.64 * 0.36 / (0.64^2 + 0.36^2)
    st = two_photon([0.64, 0, 0, -0.36])
    expected = 2 * 0.64 * 0.36 / (0.64 ** 2 + 0.36 ** 2)
    assert concurrence(st) == pytest.approx(expected, abs=1e-12)
    assert concurrence(st) == pytest.approx(0.8546, abs=5e-5)


def test_concurrence_pure_and_mixed_paths_agree():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        st = two_photon(v)
        assert concurrence(qs.to_density(st)) == pytest.approx(
            concurrence(st), abs=1e-10)


def test_concurrence_invariant_under_local_unitaries():
    rng = np.random.default_rng(5)

    def rand_u():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        st = two_photon(v)
        rotated = qs.apply_unitary(qs.apply_unitary(st, P1, rand_u()), P2, rand_u())
        assert abs(concurrence(rotated) - concurrence(st)) <= 1e-10


def test_concurrence_of_dephased_bell_state():
    # both-spin dephasing by t leaves coherence exp(-2t): C = exp(-2t)
    bell = qs.PureState((qs.spin(1), qs.spin(2)), np.array([1, 0, 0, 1]) / math.sqrt(2))
    for t in (0.1, 0.7):
        rho = qs.dephase_spin(qs.to_density(bell), qs.spin(1), t)
        rho = qs.dephase_spin(rho, qs.spin(2), t)
        assert concurrence(rho) == pytest.approx(math.exp(-2 * t), abs=1e-10)


def test_concurrence_register_size_check():
    with pytest.raises(ValueError, match="2 qubits"):
        concurrence(qs.ket_state(P1, "R"))


# --- entanglement entropy -----------------------------------------------------------

def test_entropy_bell_state():
    assert entanglement_entropy(two_photon([1, 0, 0, -1]), [P1]) == pytest.approx(
        math.log(2), abs=1e-12)


def test_entropy_product_state():
    assert entanglement_entropy(two_photon([0, 1, 0, 0]), [P1]) == pytest.approx(
        0.0, abs=1e-12)


def test_entropy_partially_entangled_eigenvalues():
    st = two_photon([0.64, 0, 0, -0.36])
    lam = np.array([0.64 ** 2, 0.36 ** 2])
    lam = lam / lam.sum()
    expected = float(-np.sum(lam * np.log(lam)))
    assert entanglement_entropy(st, [P1]) == pytest.approx(expected, abs=1e-12)


def test_entropy_symmetric_under_partition_swap():
    rng = np.random.default_rng(7)
    labels = (P1, P2, qs.spin(1))
    for _ in range(20):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        st = qs.PureState(labels, v / np.linalg.norm(v))
        for keep in ([P1], [P2, qs.spin(1)]):
            pass
        a = entanglement_entropy(st, [P1])
        b = entanglement_entropy(st, [P2, qs.spin(1)])
        assert a == pytest.approx(b, abs=1e-10)


def test_entropy_partition_validation():
    st = two_photon([1, 0, 0, 1])
    with pytest.raises(ValueError, match="nonempty"):
        entanglement_entropy(st, [])
    with pytest.raises(ValueError, match="proper subset"):
        entanglement_entropy(st, [P1, P2])


# --- sweeps ------------------------------------------------------------------------

def _realistic_config(g=10.0):
    return ProtocolConfig(gate=RealisticGate(CavityParams(g=g, kappa=1, gamma=0.1), 0.5))


def test_sweep_single_point_ideal():
    spec = SweepSpec("t_over_t2", (0.0,), ProtocolConfig(), "scheme-a")
    rows = run_sweep(spec)
    assert len(rows) == 2
    for row in rows:
        assert row["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert row["swept_value"] == 0.0


def test_sweep_g_fidelity_nondecreasing():
    spec = SweepSpec("g_rel", (0.5, 1.0, 2.0, 5.0, 10.0, 50.0),
                     _realistic_config(), "scheme-b")
    rows = run_sweep(spec)
    plus = [r["fidelity"] for r in rows if r["branch_label"] == "+45/up"]
    assert len(plus) == 6
    assert all(b >= a - 1e-12 for a, b in zip(plus, plus[1:]))


def test_sweep_dephasing_fidelity_profile():
    spec = SweepSpec("t_over_t2", (0.0, 1e-3, 1e-1, 1.0), ProtocolConfig(), "scheme-a")
    rows = run_sweep(spec)
    v = [r["fidelity"] for r in rows if r["branch_label"] == "V"]
    assert v[0] == pytest.approx(1.0, abs=1e-12)
    assert v[1] >= 0.999
    assert all(b < a for a, b in zip(v, v[1:]))


def test_sweep_detuning_parameter():
    spec = SweepSpec("detuning_rel", (0.3, 0.5, 0.8), _realistic_config(), "transfer-ps")
    rows = run_sweep(spec)
    values = sorted({r["swept_value"] for r in rows})
    assert values == [0.3, 0.5, 0.8]


def test_sweep_repeatable_and_order_independent_of_workers():
    spec = SweepSpec("g_rel", (1.0, 2.0, 5.0), _realistic_config(), "scheme-b")
    assert run_sweep(spec) == run_sweep(spec)


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        SweepSpec("q_factor", (1.0,), ProtocolConfig(), "scheme-b")
    with pytest.raises(ValueError, match="nonempty"):
        SweepSpec("g_rel", (), ProtocolConfig(), "scheme-b")
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec("g_rel", (2.0, 1.0), ProtocolConfig(), "scheme-b")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_spec_rejects_non_finite_grid(bad):
    with pytest.raises(ValueError, match="finite"):
        SweepSpec("g_rel", (1.0, bad), _realistic_config(), "scheme-b")


def test_sweep_rel_parameters_require_realistic_gate():
    spec = SweepSpec("g_rel", (1.0,), ProtocolConfig(), "scheme-b")
    with pytest.raises(ValueError, match="realistic"):
        run_sweep(spec)
