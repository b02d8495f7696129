import math

import numpy as np
import pytest

from spinphoton import qstate as qs
from spinphoton.gates import trion_emission_map
from matrix_oracle import X, embed, branch as oracle_branch
from reference_engine import ket_state, qubit_state
from reference_states import double_reflection_state, rand_amp_pair, three_photon_readout_state

SQH = 1.0 / math.sqrt(2.0)


def random_state(rng, labels):
    v = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return qs.PureState(tuple(labels), v / np.linalg.norm(v))


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- basis conventions -------------------------------------------------------

def _basis_strings_by_bits(register):
    # label by label from the index bits, the first qubit the top bit
    chars = [("R", "L") if q.kind is qs.QubitKind.PHOTON else ("u", "d") for q in register]
    n = len(register)
    return ["".join(chars[k][(idx >> (n - 1 - k)) & 1] for k in range(n))
            for idx in range(2 ** n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_strings_follow_the_index_bits(n):
    rng = np.random.default_rng(n)
    register = tuple(qs.photon(k + 1) if rng.random() < 0.5 else qs.spin(k + 1)
                     for k in range(n))
    kinds = {q.kind for q in register}
    if n > 1 and len(kinds) == 1:  # mix photons and spins
        register = (qs.spin(n + 1) if qs.QubitKind.PHOTON in kinds else qs.photon(n + 1),
                    *register[1:])
    state = qs.PureState(register, np.eye(2 ** n)[0])
    assert state.basis_strings() == _basis_strings_by_bits(register)
    rho = qs.DensityState(register, np.eye(2 ** n, dtype=complex) / 2 ** n)
    assert rho.basis_strings() == _basis_strings_by_bits(register)


def test_derived_photon_bases_orthonormal():
    for a, b in [(qs.KET_H, qs.KET_V), (qs.KET_P45, qs.KET_M45)]:
        assert abs(np.vdot(a, a) - 1) < 1e-15
        assert abs(np.vdot(b, b) - 1) < 1e-15
        assert abs(np.vdot(a, b)) < 1e-15


def test_circular_components_of_named_states():
    assert np.allclose(qs.KET_H, [SQH, SQH])
    assert np.allclose(qs.KET_V, [SQH, -SQH])
    assert np.allclose(qs.KET_P45, [SQH, 1j * SQH])
    assert np.allclose(qs.KET_M45, [SQH, -1j * SQH])


# --- tensor ------------------------------------------------------------------

def test_tensor_basis_vector():
    t = qs.tensor(ket_state(qs.photon(1), "R"), ket_state(qs.spin(1), "up"))
    assert np.array_equal(t.amplitudes, [1, 0, 0, 0])
    assert t.register == (qs.photon(1), qs.spin(1))


def test_tensor_linearity():
    t = qs.tensor(ket_state(qs.photon(1), "H"), ket_state(qs.spin(1), "up"))
    assert np.allclose(t.amplitudes, [SQH, 0, SQH, 0], atol=1e-15)


def test_tensor_hand_multiplied_kron():
    p1 = qubit_state(qs.photon(1), 0.6, 0.8)
    p2 = qubit_state(qs.photon(2), 0.8, 0.6)
    assert np.allclose(qs.tensor(p1, p2).amplitudes, [0.48, 0.36, 0.64, 0.48], atol=1e-15)


def test_tensor_duplicate_label_rejected():
    a = ket_state(qs.photon(1), "R")
    with pytest.raises(ValueError, match="duplicate qubit"):
        qs.tensor(a, ket_state(qs.photon(1), "L"))


def test_tensor_norm_tracking_multiplies():
    a = qs.PureState((qs.photon(1),), [1, 0], 0.5)
    b = qs.PureState((qs.photon(2),), [0, 1], 0.5)
    assert qs.tensor(a, b).norm_tracking == pytest.approx(0.25)


def test_register_cap():
    states = [ket_state(qs.photon(i), "R") for i in range(9)]
    with pytest.raises(ValueError, match="register cap"):
        qs.tensor_all(states)


# --- apply_unitary -----------------------------------------------------------

HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)


def test_hadamard_on_up():
    out = qs.apply_unitary(ket_state(qs.spin(1), "up"), qs.spin(1), HADAMARD)
    assert np.allclose(out.amplitudes, [SQH, SQH], atol=1e-15)


def test_hadamard_involution():
    rng = np.random.default_rng(3)
    st = random_state(rng, [qs.photon(1), qs.spin(1)])
    out = qs.apply_unitary(st, qs.spin(1), HADAMARD)
    out = qs.apply_unitary(out, qs.spin(1), HADAMARD)
    assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-12


def test_hadamard_maps_minus_superposition_to_down():
    st = qubit_state(qs.spin(1), SQH, -SQH)
    out = qs.apply_unitary(st, qs.spin(1), HADAMARD)
    assert np.allclose(out.amplitudes, [0, 1], atol=1e-15)


def test_unitarity_preserved_on_random_states():
    rng = np.random.default_rng(11)
    labels = [qs.photon(1), qs.photon(2), qs.spin(1)]
    for _ in range(1000):
        st = random_state(rng, labels)
        u = random_unitary(rng, 2)
        out = qs.apply_unitary(st, labels[int(rng.integers(3))], u)
        assert abs(out.squared_norm() - 1.0) < 1e-12


def test_apply_unitary_rejects_a_matrix_for_two_qubits():
    with pytest.raises(ValueError, match="does not act on one qubit"):
        qs.apply_unitary(ket_state(qs.spin(1), "up"), qs.spin(1), np.eye(4))


def test_apply_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        qs.apply_unitary(ket_state(qs.spin(1), "up"), qs.spin(1),
                         np.array([[1, 0], [0, 2]]))


def test_apply_unitary_rejects_unknown_target():
    with pytest.raises(ValueError, match="not in register"):
        qs.apply_unitary(ket_state(qs.spin(1), "up"), qs.spin(2), HADAMARD)


# --- the register layout -------------------------------------------------------

BASES = {qs.QubitKind.PHOTON: ("RL", "HV", "45"), qs.QubitKind.SPIN: ("updown", "x")}


def _layout_register(n, pos, kind):
    """n qubits of alternating kinds, the one at ``pos`` of ``kind``."""
    kinds = [kind if (k - pos) % 2 == 0 else next(kd for kd in qs.QubitKind if kd is not kind)
             for k in range(n)]
    return tuple(qs.QubitLabel(kd, k + 1) for k, kd in enumerate(kinds))


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("n, pos, kind", [(n, pos, kind) for n in range(1, 6)
                                          for pos in range(n) for kind in qs.QubitKind])
def test_one_qubit_steps_act_at_their_register_position(n, pos, kind, batch):
    # the dense oracle embeds each step with np.kron, the first qubit most significant
    rng = np.random.default_rng([n, pos, len(batch), kind is qs.QubitKind.SPIN])
    register = _layout_register(n, pos, kind)
    q, rest = register[pos], register[:pos] + register[pos + 1:]
    v = rng.normal(size=batch + (2 ** n,)) + 1j * rng.normal(size=batch + (2 ** n,))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    state = qs.PureState(register, v)
    vecs = v.reshape(-1, 2 ** n)  # one row per batch element

    u = random_unitary(rng, 2)
    out = qs.apply_unitary(state, q, u)
    assert out.amplitudes.shape == v.shape
    assert np.max(np.abs(out.amplitudes.reshape(vecs.shape) - vecs @ embed(u, pos, n).T)) < 1e-12

    for basis in BASES[kind]:
        outcomes = qs.measure(state, q, basis)
        for o, (label, ket) in zip(outcomes, qs.measurement_basis(kind, basis), strict=True):
            expected = [oracle_branch(x, pos, n, ket) for x in vecs]
            assert o.label == label and o.post_state.register == rest
            assert np.max(np.abs(np.reshape(o.probability, -1) - [p for p, _ in expected])) < 1e-12
            assert np.max(np.abs(o.post_state.amplitudes.reshape(len(vecs), -1)
                                 - [r for _, r in expected])) < 1e-12

    if kind is qs.QubitKind.SPIN:
        emitted = trion_emission_map(state, q, qs.photon(n + 1))
        assert emitted.register == register[:pos] + (qs.photon(n + 1),) + register[pos + 1:]
        assert np.array_equal(emitted.amplitudes.reshape(vecs.shape), vecs @ embed(X, pos, n).T)


# --- apply_diagonal_pair -------------------------------------------------------

def test_diagonal_pair_coupled_component():
    st = qs.tensor(ket_state(qs.photon(1), "L"), ket_state(qs.spin(1), "up"))
    out = qs.apply_diagonal_pair(st, qs.photon(1), qs.spin(1), 1j, 1)
    assert np.allclose(out.amplitudes, [0, 0, 1j, 0], atol=1e-15)


def test_diagonal_pair_uncoupled_component_unchanged():
    st = qs.tensor(ket_state(qs.photon(1), "R"), ket_state(qs.spin(1), "up"))
    out = qs.apply_diagonal_pair(st, qs.photon(1), qs.spin(1), 1j, 1)
    assert np.array_equal(out.amplitudes, st.amplitudes)


def test_diagonal_pair_double_reflection_matches_reference():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a1, b1 = rand_amp_pair(rng)
        a2, b2 = rand_amp_pair(rng)
        st = qs.tensor_all([
            qubit_state(qs.photon(1), a1, b1),
            qubit_state(qs.photon(2), a2, b2),
            qubit_state(qs.spin(1), SQH, SQH),
        ])
        st = qs.apply_diagonal_pair(st, qs.photon(1), qs.spin(1), 1j, 1)
        st = qs.apply_diagonal_pair(st, qs.photon(2), qs.spin(1), 1j, 1)
        assert np.max(np.abs(st.amplitudes - double_reflection_state(a1, b1, a2, b2))) < 1e-12


def test_diagonal_pair_kind_check():
    st = qs.tensor(ket_state(qs.photon(1), "R"), ket_state(qs.spin(1), "up"))
    with pytest.raises(ValueError, match="not a photon"):
        qs.apply_diagonal_pair(st, qs.spin(1), qs.spin(1), 1j, 1)
    with pytest.raises(ValueError, match="not a spin"):
        qs.apply_diagonal_pair(st, qs.photon(1), qs.photon(1), 1j, 1)


def test_diagonal_pair_loss_updates_norm_tracking():
    st = qs.tensor(ket_state(qs.photon(1), "H"), ket_state(qs.spin(1), "up"))
    out = qs.apply_diagonal_pair(st, qs.photon(1), qs.spin(1), 0.8, 1.0)
    # |L,up> amplitude shrinks by 0.8: survival = 0.5 + 0.5 * 0.64
    assert out.norm_tracking == pytest.approx(0.82, abs=1e-12)
    assert out.squared_norm() == pytest.approx(0.82, abs=1e-12)


# --- measure -------------------------------------------------------------------

def test_measure_h_in_hv():
    outs = qs.measure(ket_state(qs.photon(1), "H"), qs.photon(1), "HV")
    assert [o.label for o in outs] == ["H", "V"]
    assert outs[0].probability == pytest.approx(1.0, abs=1e-12)
    assert outs[1].probability == pytest.approx(0.0, abs=1e-12)


def test_measure_readout_photon_circular_uniform():
    st = qs.PureState(
        (qs.photon(1), qs.photon(2), qs.photon(3), qs.spin(1)),
        three_photon_readout_state(SQH, SQH, SQH, SQH),
    )
    outs = qs.measure(st, qs.photon(3), "45")
    assert outs[0].label == "+45" and outs[1].label == "-45"
    assert outs[0].probability == pytest.approx(0.5, abs=1e-12)
    assert outs[1].probability == pytest.approx(0.5, abs=1e-12)


def test_measure_spin_superposition():
    st = qubit_state(qs.spin(1), SQH, SQH)
    outs = qs.measure(st, qs.spin(1), "updown")
    assert outs[0].probability == pytest.approx(0.5, abs=1e-12)
    assert outs[1].probability == pytest.approx(0.5, abs=1e-12)


def test_measure_completeness_on_unnormalized_states():
    rng = np.random.default_rng(17)
    labels = [qs.photon(1), qs.photon(2), qs.spin(1)]
    for _ in range(50):
        st = random_state(rng, labels)
        st = qs.apply_diagonal_pair(st, qs.photon(1), qs.spin(1), 0.7 + 0.2j, 0.95)
        for basis in ("RL", "HV", "45"):
            outs = qs.measure(st, qs.photon(2), basis)
            assert abs(sum(o.probability for o in outs) - st.squared_norm()) < 1e-12


def test_measure_post_state_norm_tracking_is_branch_probability():
    st = qs.tensor(ket_state(qs.photon(1), "H"), qubit_state(qs.spin(1), SQH, SQH))
    outs = qs.measure(st, qs.spin(1), "updown")
    for o in outs:
        assert o.post_state.norm_tracking == pytest.approx(o.probability, abs=1e-12)
        assert o.post_state.squared_norm() == pytest.approx(1.0, abs=1e-12)


def test_measure_removes_the_measured_qubit():
    rng = np.random.default_rng(23)
    labels = (qs.photon(1), qs.spin(1), qs.photon(2))
    st = random_state(rng, labels)
    for pos, target in enumerate(labels):
        basis = "HV" if target.kind is qs.QubitKind.PHOTON else "updown"
        for (_, ket), o in zip(qs.measurement_basis(target.kind, basis),
                               qs.measure(st, target, basis)):
            assert o.post_state.register == tuple(q for q in labels if q != target)
            _, rest = oracle_branch(st.amplitudes, pos, len(labels), ket)
            assert np.allclose(o.post_state.amplitudes, rest, atol=1e-12)


def test_measure_basis_kind_mismatch():
    with pytest.raises(ValueError, match="unknown basis"):
        qs.measure(ket_state(qs.spin(1), "up"), qs.spin(1), "HV")


# --- sampling --------------------------------------------------------------------

def _outcomes(probs):
    return [qs.ProjectiveOutcome(str(i), p, None) for i, p in enumerate(probs)]


def test_sample_single_branch():
    for seed in (0, 1, 42):
        assert qs.sample_outcome(_outcomes([1.0]), seed).label == "0"


def test_sample_degenerate_distribution():
    for seed in range(10):
        assert qs.sample_outcome(_outcomes([1.0, 0.0]), seed).label == "0"


def test_sample_identical_seed_identical_sequence():
    a = [qs.sample_outcome(_outcomes([0.3, 0.7]), np.random.default_rng(9)).label
         for _ in range(20)]
    rng = np.random.default_rng(9)
    b = [qs.sample_outcome(_outcomes([0.3, 0.7]), rng).label for _ in range(1)]
    assert a[0] == b[0]


def test_sample_law_of_large_numbers():
    rng = np.random.default_rng(101)
    outs = _outcomes([0.5, 0.5])
    n = 100_000
    hits = sum(qs.sample_outcome(outs, rng).label == "0" for _ in range(n))
    assert abs(hits / n - 0.5) < 0.01


def test_sample_empty_rejected():
    with pytest.raises(ValueError, match="no outcomes"):
        qs.sample_outcome([], 0)


def test_sample_unnormalized_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        qs.sample_outcome(_outcomes([0.5, 0.4]), 0)


@pytest.mark.parametrize("probs, rule", [
    ([math.nan, 1.0], "finite"), ([1.0, math.inf], "finite"), ([-math.inf, 1.0], "finite"),
    ([-0.5, 1.5], "nonnegative"), ([1.0, -1e-300], "nonnegative"),
])
def test_sample_indices_refuse_what_is_not_a_probability(probs, rule):
    # named before the sum, which NaN, an infinity or a negative may pass or fail
    with pytest.raises(ValueError, match=f"must be {rule}"):
        qs.sample_indices(probs, 0, 8)


# --- dephasing ---------------------------------------------------------------------

def bell_spins():
    return qs.PureState((qs.spin(1), qs.spin(2)),
                        np.array([1, 0, 0, 1]) / math.sqrt(2.0))


def test_dephase_zero_time_is_identity():
    rho = qs.to_density(bell_spins())
    out = qs.dephase_spin(rho, qs.spin(1), 0.0)
    assert np.array_equal(out.matrix, rho.matrix)


def test_dephase_long_time_kills_coherence():
    st = qubit_state(qs.spin(1), SQH, SQH)
    out = qs.dephase_spin(qs.to_density(st), qs.spin(1), 1e6)
    assert np.allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_dephase_bell_fidelity_matches_closed_form():
    # both spins dephased for t/T2 each: F = (1 + exp(-2 t/T2)) / 2
    bell = bell_spins()
    for t in (1e-3, 0.1, 1.0):
        rho = qs.dephase_spin(qs.to_density(bell), qs.spin(1), t)
        rho = qs.dephase_spin(rho, qs.spin(2), t)
        expected = (1.0 + math.exp(-2.0 * t)) / 2.0
        assert qs.fidelity(bell, rho) == pytest.approx(expected, abs=1e-12)
    rho = qs.dephase_spin(qs.to_density(bell), qs.spin(1), 1e-3)
    rho = qs.dephase_spin(rho, qs.spin(2), 1e-3)
    assert qs.fidelity(bell, rho) >= 0.999


def test_dephase_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        st = random_state(rng, [qs.spin(1), qs.photon(1)])
        rho = qs.dephase_spin(qs.to_density(st), qs.spin(1), float(rng.uniform(0, 3)))
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12


def test_dephase_rejects_negative_time_and_photons():
    rho = qs.to_density(bell_spins())
    with pytest.raises(ValueError, match="negative"):
        qs.dephase_spin(rho, qs.spin(1), -0.1)
    rho2 = qs.to_density(ket_state(qs.photon(1), "H"))
    with pytest.raises(ValueError, match="not a spin"):
        qs.dephase_spin(rho2, qs.photon(1), 0.1)


# --- fidelity, partial trace, drop ----------------------------------------------

def test_fidelity_global_phase_blind():
    rng = np.random.default_rng(41)
    st = random_state(rng, [qs.photon(1), qs.spin(1)])
    for _ in range(20):
        theta = rng.uniform(0, 2 * math.pi)
        rotated = qs.PureState(st.register, np.exp(1j * theta) * st.amplitudes)
        assert qs.fidelity(st, rotated) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(43)
    a = random_state(rng, [qs.spin(1)])
    b = random_state(rng, [qs.spin(1)])
    assert qs.fidelity(a, b) == pytest.approx(qs.fidelity(b, a), abs=1e-12)
    assert 0.0 <= qs.fidelity(a, b) <= 1.0


def test_fidelity_pure_density_consistent():
    rng = np.random.default_rng(47)
    a = random_state(rng, [qs.spin(1), qs.photon(1)])
    b = random_state(rng, [qs.spin(1), qs.photon(1)])
    assert qs.fidelity(a, qs.to_density(b)) == pytest.approx(qs.fidelity(a, b), abs=1e-12)


def test_partial_trace_of_bell_is_maximally_mixed():
    red = qs.partial_trace(bell_spins(), [qs.spin(1)])
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
    assert red.register == (qs.spin(1),)


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        qs.partial_trace(bell_spins(), [])


def test_drop_product_qubit():
    st = qs.tensor(ket_state(qs.photon(1), "+45"), qubit_state(qs.spin(1), 0.6, 0.8))
    out = qs.drop_qubit(st, qs.photon(1))
    assert out.register == (qs.spin(1),)
    assert np.allclose(out.amplitudes, [0.6, 0.8], atol=1e-12)


def test_drop_entangled_qubit_rejected():
    with pytest.raises(ValueError, match="entangled"):
        qs.drop_qubit(bell_spins(), qs.spin(1))


def test_normalize_restores_unit_norm():
    st = qs.PureState((qs.spin(1),), [0.3, 0.4], 0.25)
    out = qs.normalize(st)
    assert out.squared_norm() == pytest.approx(1.0, abs=1e-12)
    assert out.norm_tracking == pytest.approx(0.25)


def test_trion_relabel_lives_in_gates():  # placement sanity for the public API
    from spinphoton.gates import trion_emission_map  # noqa: F401


# --- batch axis ------------------------------------------------------------------

def _unbatched(state, i):
    data = state.amplitudes if isinstance(state, qs.PureState) else state.matrix
    return type(state)(state.register, data[i], state.norm_tracking[i])


def _assert_stack_equal(batched, singles):
    """Bitwise: a batched state equals the stack of unbatched ones."""
    for i, single in enumerate(singles):
        element = _unbatched(batched, i)
        data = "amplitudes" if isinstance(single, qs.PureState) else "matrix"
        assert np.array_equal(getattr(element, data), getattr(single, data))
        assert element.norm_tracking == single.norm_tracking


@pytest.mark.parametrize("size", [1, 7, 67])
def test_batched_ops_equal_stack_of_unbatched_ops(size):
    # sizes that end mid-way through a vector register and span several of them
    rng = np.random.default_rng(size)
    labels = (qs.photon(1), qs.photon(2), qs.spin(1))
    v = rng.normal(size=(size, 8)) + 1j * rng.normal(size=(size, 8))
    v /= np.linalg.norm(v, axis=1)[:, None]
    batch = qs.PureState(labels, v, rng.uniform(0.2, 1.0, size))
    singles = [_unbatched(batch, i) for i in range(size)]
    cc = rng.uniform(0.5, 1.0, size) * np.exp(1j * rng.uniform(0, 6, size))
    cu = rng.uniform(0.5, 1.0, size) * np.exp(1j * rng.uniform(0, 6, size))
    u = random_unitary(rng, 2)

    gated = qs.apply_diagonal_pair(batch, labels[0], labels[2], cc, cu)
    gated_singles = [qs.apply_diagonal_pair(s, labels[0], labels[2], a, b)
                     for s, a, b in zip(singles, cc, cu)]
    _assert_stack_equal(gated, gated_singles)
    _assert_stack_equal(qs.apply_unitary(gated, labels[2], u),
                        [qs.apply_unitary(s, labels[2], u) for s in gated_singles])
    for k, out in enumerate(qs.measure(gated, labels[1], "45")):
        outs = [qs.measure(s, labels[1], "45")[k] for s in gated_singles]
        assert np.array_equal(out.probability, [o.probability for o in outs])
        _assert_stack_equal(out.post_state, [o.post_state for o in outs])
        # the measured qubit, put back in its outcome state, factorizes
        ket = qubit_state(labels[1], *(qs.KET_P45 if k == 0 else qs.KET_M45))
        full = qs.tensor(out.post_state, ket)
        _assert_stack_equal(qs.drop_qubit(full, labels[1]),
                            [qs.drop_qubit(qs.tensor(o.post_state, ket), labels[1])
                             for o in outs])
    _assert_stack_equal(qs.normalize(gated), [qs.normalize(s) for s in gated_singles])
    rho = qs.to_density(gated)
    rhos = [qs.to_density(s) for s in gated_singles]
    _assert_stack_equal(rho, rhos)
    _assert_stack_equal(qs.normalize(rho), [qs.normalize(r) for r in rhos])
    _assert_stack_equal(qs.partial_trace(gated, labels[:2]),
                        [qs.partial_trace(s, labels[:2]) for s in gated_singles])
    assert np.array_equal(qs.fidelity(batch, gated),
                          [qs.fidelity(a, b) for a, b in zip(singles, gated_singles)])
    assert np.array_equal(qs.fidelity(singles[0], rho),
                          [qs.fidelity(singles[0], r) for r in rhos])
    assert np.array_equal(gated.squared_norm(), [s.squared_norm() for s in gated_singles])


def test_dead_batch_elements_pass_through_as_zero_branches():
    labels = (qs.photon(1), qs.spin(1))
    v = np.array([[0.6, 0, 0, 0.8], [0, 0, 0, 0]], dtype=complex)
    state = qs.PureState(labels, v, [1.0, 0.0])
    outs = qs.measure(state, labels[0], "RL")
    assert outs[0].probability.tolist() == [pytest.approx(0.36), 0.0]
    assert outs[0].post_state.norm_tracking[1] == 0.0
    assert not np.any(outs[0].post_state.amplitudes[1])
    assert qs.normalize(state).amplitudes[1].tolist() == [0, 0, 0, 0]
    # a state whose every element is dead gives zero branches, not an error
    for o in qs.measure(qs.PureState(labels, np.zeros((2, 4))), labels[0], "RL"):
        assert o.probability.tolist() == [0.0, 0.0]
        assert o.post_state.norm_tracking.tolist() == [0.0, 0.0]
        assert not np.any(o.post_state.amplitudes)


def test_sample_indices_equal_searchsorted_clipped_to_the_last_outcome():
    # the binary search the comparison passes replace, kept as the reference
    def searched(probs, seed, trials):
        draws = np.random.default_rng(seed).random(trials)
        picks = np.searchsorted(np.cumsum(probs), draws, side="right")
        return np.minimum(picks, len(probs) - 1)

    rng = np.random.default_rng(11)
    for k in range(300):
        probs = rng.dirichlet(np.ones(int(rng.integers(1, 8))))
        probs[rng.random(probs.size) < 0.3] = 0.0
        if k % 2:
            probs[-1] = 1.0 - probs[:-1].sum()  # may leave the sum a rounding short of 1
        else:
            probs = probs / probs.sum() if probs.sum() else np.eye(probs.size)[0]
        seed, trials = int(rng.integers(1 << 30)), int(rng.choice([0, 1, 1000]))
        got, want = qs.sample_indices(list(probs), seed, trials), searched(probs, seed, trials)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    # a draw equal to a running sum picks the next outcome
    seed = 3
    r = float(np.random.default_rng(seed).random())
    assert qs.sample_indices([r, 1.0 - r], seed, 1).tolist() == [1] == searched(
        [r, 1.0 - r], seed, 1).tolist()


def test_sample_indices_follow_the_sequential_rule():
    # the per-draw loop the vectorized rule replaces, kept as the reference
    def loop(probs, draws):
        out = []
        for r in draws:
            acc = 0.0
            for i, p in enumerate(probs):
                acc += p
                if r < acc:
                    out.append(i)
                    break
            else:
                out.append(len(probs) - 1)
        return out

    rng = np.random.default_rng(5)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(int(rng.integers(1, 6))))
        probs[rng.random(probs.size) < 0.3] = 0.0
        probs[-1] = 1.0 - probs[:-1].sum()  # may leave the sum a rounding short of 1
        seed = int(rng.integers(1 << 30))
        got = qs.sample_indices(list(probs), seed, 2000)
        assert got.tolist() == loop(probs, np.random.default_rng(seed).random(2000))
        assert qs.sample_outcome(_outcomes(probs), seed).label == str(got[0])
