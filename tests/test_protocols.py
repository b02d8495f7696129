import math
import warnings
from spinphoton import replace

import numpy as np
import pytest

from spinphoton import cli, gates, protocols
from spinphoton import qstate as qs
from spinphoton.cavity import (
    CavityParams,
    ParameterError,
    find_operating_point,
    reflection_coefficient,
)
from spinphoton.gates import IdealGate, RealisticGate
from spinphoton.metrics import SweepSpec, entanglement_entropy, run_sweep
from spinphoton.protocols import (
    PROTOCOL_NAMES,
    ProtocolBranch,
    ProtocolConfig,
    chain_multiphoton,
    merged_detection_branch,
    run_protocol,
    scheme_a_emit,
    scheme_a_entangle_spins,
    scheme_a_photon_pairs,
    scheme_b_entangle_photons,
    transfer_photon_to_spin,
    transfer_spin_to_photon,
)
from chain_reference import _trajectories, gfr_spin_readout
from matrix_oracle import mirrored
from reference_engine import hadamard, ket_state, qubit_state
from reference_states import (
    photon_pair_anticorrelated,
    photon_pair_correlated,
    photon_pair_emitted_correlated,
    rand_amp_pair,
    spin_pair_anticorrelated,
    spin_pair_correlated,
)
from test_batch_properties import same

SQH = 1.0 / math.sqrt(2.0)
UNIFORM = ProtocolConfig()


def config_from(rng):
    a1, b1 = rand_amp_pair(rng)
    a2, b2 = rand_amp_pair(rng)
    return ProtocolConfig(alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)


def realistic_config(g=10.0, gamma=0.1, kappa_s=0.0, detuning=0.5, **amps):
    p = CavityParams(g=g, kappa=1.0, gamma=gamma, kappa_s=kappa_s)
    return ProtocolConfig(gate=RealisticGate(p, detuning), **amps)


# --- scheme A -----------------------------------------------------------------

def test_scheme_a_uniform_probabilities_and_entanglement():
    res = scheme_a_entangle_spins(UNIFORM)
    assert res.branch("V").probability == pytest.approx(0.5, abs=1e-12)
    assert res.branch("H").probability == pytest.approx(0.5, abs=1e-12)
    assert res.branch("V").concurrence == pytest.approx(1.0, abs=1e-12)
    assert res.branch("H").concurrence == pytest.approx(1.0, abs=1e-12)


def test_scheme_a_uniform_v_branch_state():
    res = scheme_a_entangle_spins(UNIFORM)
    target = qs.PureState((qs.spin(1), qs.spin(2)),
                          np.array([1, 0, 0, -1]) / math.sqrt(2.0))
    assert qs.fidelity(target, res.branch("V").state) == pytest.approx(1.0, abs=1e-12)


def test_scheme_a_branch_states_match_references():
    rng = np.random.default_rng(33)
    for _ in range(25):
        cfg = config_from(rng)
        res = scheme_a_entangle_spins(cfg)
        amps = (cfg.alpha1, cfg.beta1, cfg.alpha2, cfg.beta2)
        for label, ref in (("V", spin_pair_correlated(*amps)),
                           ("H", spin_pair_anticorrelated(*amps))):
            br = res.branch(label)
            target = qs.PureState((qs.spin(1), qs.spin(2)), ref)
            assert qs.fidelity(target, br.state) == pytest.approx(1.0, abs=1e-12)
            assert br.fidelity_vs_target == pytest.approx(1.0, abs=1e-12)


def test_scheme_a_degenerate_inputs():
    res = scheme_a_entangle_spins(ProtocolConfig(alpha1=1, beta1=0, alpha2=0, beta2=1))
    assert res.branch("V").probability == pytest.approx(0.0, abs=1e-12)
    h = res.branch("H")
    assert h.probability == pytest.approx(1.0, abs=1e-12)
    assert h.concurrence == pytest.approx(0.0, abs=1e-12)
    target = qs.tensor(ket_state(qs.spin(1), "up"), ket_state(qs.spin(2), "down"))
    assert qs.fidelity(target, h.state) == pytest.approx(1.0, abs=1e-12)


def test_scheme_a_emission_yields_photon_pairs():
    res = scheme_a_photon_pairs(UNIFORM)
    v = res.branch("V")
    target = qs.PureState((qs.photon(1), qs.photon(2)),
                          np.array([-1, 0, 0, 1]) / math.sqrt(2.0))  # aa LL - bb RR
    assert qs.fidelity(target, v.state) == pytest.approx(1.0, abs=1e-12)
    assert v.concurrence == pytest.approx(1.0, abs=1e-12)
    h = res.branch("H")
    target_h = qs.PureState((qs.photon(1), qs.photon(2)),
                            np.array([0, 1, 1, 0]) / math.sqrt(2.0))
    assert qs.fidelity(target_h, h.state) == pytest.approx(1.0, abs=1e-12)


def test_scheme_a_emission_random_amplitudes():
    rng = np.random.default_rng(37)
    for _ in range(10):
        cfg = config_from(rng)
        res = scheme_a_photon_pairs(cfg)
        ref = photon_pair_emitted_correlated(cfg.alpha1, cfg.beta1, cfg.alpha2, cfg.beta2)
        target = qs.PureState((qs.photon(1), qs.photon(2)), ref)
        assert qs.fidelity(target, res.branch("V").state) == pytest.approx(1.0, abs=1e-12)


def test_scheme_a_emission_with_small_dephasing_keeps_fidelity():
    res = scheme_a_photon_pairs(ProtocolConfig(t_over_t2=1e-3))
    v = res.branch("V")
    assert isinstance(v.state, qs.DensityState)
    assert v.fidelity_vs_target >= 0.999
    assert v.fidelity_vs_target == pytest.approx((1 + math.exp(-2e-3)) / 2, abs=1e-12)


@pytest.mark.parametrize("batch", [(), (2,)])
def test_branch_state_is_density_exactly_when_dephased(batch):
    # alpha1 = beta2 = 1 leaves scheme-a's V branch at probability zero
    for t in (0.0, 0.3):
        cfg = ProtocolConfig(alpha1=1.0, beta1=0.0, alpha2=0.0, beta2=1.0,
                             t_over_t2=np.full(batch, t) if batch else t)
        assert all(br.probability == 0.0
                   for br in scheme_a_photon_pairs(cfg).branches if br.label == "V")
        runs = {name: run_protocol(name, cfg) for name in PROTOCOL_NAMES}
        runs["scheme-a-spins"] = scheme_a_entangle_spins(cfg)
        for name, result in runs.items():
            # transfer-ps and the heralded spin pairs have no wait
            dephased = t > 0.0 and name not in ("transfer-ps", "scheme-a-spins")
            expected = qs.DensityState if dephased else qs.PureState
            assert len(result.branches) > 0
            for br in result.branches:
                assert type(br.state) is expected, (name, t, br.label)


def test_scheme_a_dephasing_monotone_and_continuous():
    fids = []
    for t in (0.0, 1e-3, 1e-1, 1.0):
        res = scheme_a_photon_pairs(ProtocolConfig(t_over_t2=t))
        fids.append(res.branch("V").fidelity_vs_target)
    assert fids[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b < a for a, b in zip(fids, fids[1:]))


def test_scheme_a_second_cavity_mismatch_supported():
    p1 = CavityParams(g=10, kappa=1, gamma=0.1)
    p2 = CavityParams(g=5, kappa=1, gamma=0.1)
    cfg = ProtocolConfig(gate=RealisticGate(p1, 0.5))
    res = scheme_a_entangle_spins(cfg, second_cavity=p2)
    assert res.survival_probability() < 1.0
    res_same = scheme_a_entangle_spins(cfg)
    assert res.branch("V").probability != pytest.approx(
        res_same.branch("V").probability, abs=1e-6)


def assert_same_branch(a: ProtocolBranch, b: ProtocolBranch) -> None:
    """``a`` and ``b`` agree field by field, bit for bit."""
    assert a.label == b.label
    for name in ("probability", "fidelity_vs_target", "concurrence"):
        assert same(getattr(a, name), getattr(b, name)), name
    assert (a.target is None) == (b.target is None)
    if a.target is not None:
        assert np.array_equal(a.target.amplitudes, b.target.amplitudes)
    assert type(a.state) is type(b.state) and a.state.register == b.state.register
    data = "amplitudes" if isinstance(a.state, qs.PureState) else "matrix"
    assert np.array_equal(getattr(a.state, data), getattr(b.state, data))
    assert a.state.norm_tracking == b.state.norm_tracking


@pytest.mark.parametrize("t_over_t2", [0.0, 0.3])
def test_scheme_a_emit_runs_a_batched_result_as_its_single_runs(t_over_t2):
    g = np.array([2.0, 4.0, 8.0])
    cfg = replace(realistic_config(g=g, kappa_s=0.2), t_over_t2=t_over_t2)
    pairs = scheme_a_emit(scheme_a_entangle_spins(cfg), cfg)
    assert pairs.batch_shape == (3,) and len(pairs.branches) == 6
    for i, gi in enumerate(g):
        single = scheme_a_photon_pairs(replace(realistic_config(g=gi, kappa_s=0.2),
                                               t_over_t2=t_over_t2))
        for a, b in zip(pairs.branches[2 * i:2 * i + 2], single.branches, strict=True):
            assert_same_branch(a, b)
    # one spin-pair run emits at every element of a batched config
    base = realistic_config(g=4.0, kappa_s=0.2)
    spins, t = scheme_a_entangle_spins(base), np.array([0.1, 0.2, 0.3])
    spread = scheme_a_emit(spins, replace(base, t_over_t2=t))
    assert spread.batch_shape == (3,)
    for i, ti in enumerate(t):
        single = scheme_a_emit(spins, replace(base, t_over_t2=ti))
        for a, b in zip(spread.branches[2 * i:2 * i + 2], single.branches, strict=True):
            assert_same_branch(a, b)
    # a result of any other batch shape is refused
    with pytest.raises(ValueError, match="batch shape"):
        scheme_a_emit(scheme_a_entangle_spins(realistic_config(g=g[:2])), cfg)
    with pytest.raises(ValueError, match="batch shape"):
        scheme_a_emit(scheme_a_entangle_spins(cfg), base)


# --- scheme B ------------------------------------------------------------------

def test_scheme_b_uniform_probabilities_and_entanglement():
    res = scheme_b_entangle_photons(UNIFORM)
    assert res.branch("+45/up").probability == pytest.approx(0.5, abs=1e-12)
    assert res.branch("-45/down").probability == pytest.approx(0.5, abs=1e-12)
    assert res.branch("+45/up").concurrence == pytest.approx(1.0, abs=1e-12)
    assert res.branch("-45/down").concurrence == pytest.approx(1.0, abs=1e-12)


def test_scheme_b_readout_correlation_is_perfect_in_ideal_mode():
    res = scheme_b_entangle_photons(UNIFORM)
    assert res.branch("+45/down").probability == 0.0
    assert res.branch("-45/up").probability == 0.0


def test_scheme_b_branch_states_match_references():
    rng = np.random.default_rng(53)
    for _ in range(25):
        cfg = config_from(rng)
        res = scheme_b_entangle_photons(cfg)
        amps = (cfg.alpha1, cfg.beta1, cfg.alpha2, cfg.beta2)
        reg = (qs.photon(1), qs.photon(2))
        plus = qs.PureState(reg, photon_pair_correlated(*amps))
        minus = qs.PureState(reg, photon_pair_anticorrelated(*amps))
        assert qs.fidelity(plus, res.branch("+45/up").state) == pytest.approx(1.0, abs=1e-12)
        assert qs.fidelity(minus, res.branch("-45/down").state) == pytest.approx(1.0, abs=1e-12)


def test_scheme_b_degenerate_input_gives_product_state():
    res = scheme_b_entangle_photons(ProtocolConfig(alpha1=1, beta1=0))
    br = res.branch("+45/up")
    assert br.concurrence == pytest.approx(0.0, abs=1e-12)


def test_scheme_b_survival_below_one_in_realistic_mode():
    res = scheme_b_entangle_photons(realistic_config(g=5))
    total = res.survival_probability()
    assert 0.9 < total < 1.0
    assert sum(b.probability for b in res.branches) == pytest.approx(total, abs=1e-9)


def test_scheme_b_joint_distribution_attributes_readout_errors():
    res = scheme_b_entangle_photons(realistic_config(g=5))
    assert res.branch("+45/down").probability > 0.0
    assert res.branch("+45/down").probability < 1e-3
    merged = merged_detection_branch(res, "+45")
    joint = res.branch("+45/up")
    assert merged.probability > joint.probability
    assert merged.fidelity_vs_target < 1.0


def merged_reference(result, detection):
    """(probability, state, fidelity) of a detection outcome's merged branch,
    computed on its own: the joint branches' mixture, None for a dead one."""
    picked = [b for b in result.branches if b.label.split("/")[0] == detection]
    live = [b for b in picked if b.probability > 0.0]
    p_tot = sum(b.probability for b in live)
    if not live:
        return 0.0, None, math.nan
    target = next(b.target for b in live if b.target is not None)
    if len(live) == 1:
        return p_tot, live[0].state, qs.fidelity(target, live[0].state)
    dim = 2 ** live[0].state.n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for b in live:
        rho = qs.to_density(b.state) if isinstance(b.state, qs.PureState) else b.state
        mat += (b.probability / p_tot) * (rho.matrix / max(rho.trace(), 1e-300))
    mixed = qs.DensityState(live[0].state.register, mirrored(mat), min(p_tot, 1.0))
    return p_tot, mixed, qs.fidelity(target, mixed)


@pytest.mark.parametrize("config, detection", [
    (UNIFORM, "+45"),  # one live joint branch
    (realistic_config(g=5), "+45"),  # a mixture of two pure branches
    (replace(realistic_config(g=5, kappa_s=0.2), t_over_t2=0.3), "-45"),  # of two mixtures
    (ProtocolConfig(alpha1=1.0, beta1=0.0, alpha2=1.0, beta2=0.0), "-45"),  # a dead outcome
])
def test_merged_detection_branch_is_a_scored_protocol_branch(config, detection):
    result = scheme_b_entangle_photons(config)
    merged = merged_detection_branch(result, detection)
    p_ref, state_ref, fid_ref = merged_reference(result, detection)
    assert isinstance(merged, ProtocolBranch) and merged.label == detection
    assert merged.probability == p_ref
    if state_ref is None:
        assert not np.any(merged.state.amplitudes)
        assert math.isnan(merged.fidelity_vs_target) and math.isnan(merged.concurrence)
        return
    data = "amplitudes" if isinstance(state_ref, qs.PureState) else "matrix"
    assert type(merged.state) is type(state_ref)
    assert np.array_equal(getattr(merged.state, data), getattr(state_ref, data))
    assert merged.fidelity_vs_target == fid_ref
    assert 0.0 <= merged.concurrence <= 1.0


def test_merged_detection_branch_rejects_a_batched_result():
    # merging every element's branches would sum probabilities across runs
    cavity = CavityParams(g=np.array([2.0, 5.0, 10.0]), kappa=1.0, gamma=0.1, kappa_s=0.2)
    batch = scheme_b_entangle_photons(ProtocolConfig(gate=RealisticGate(cavity, 0.5)))
    with pytest.raises(ValueError, match="result of one run"):
        merged_detection_branch(batch, "+45")
    for g in cavity.g:  # one single run per element instead
        single = scheme_b_entangle_photons(ProtocolConfig(gate=RealisticGate(
            replace(cavity, g=g), 0.5)))
        assert merged_detection_branch(single, "+45").probability <= 1.0


def test_branch_and_survival_probability_refuse_a_batched_result():
    cavity = CavityParams(g=np.array([2.0, 5.0]), kappa=1.0, gamma=0.1)
    batch = scheme_b_entangle_photons(ProtocolConfig(gate=RealisticGate(cavity, 0.5)))
    with pytest.raises(ValueError, match="result of one run"):
        batch.branch("+45/up")
    with pytest.raises(ValueError, match="result of one run"):
        batch.survival_probability()


def counting_leaves(monkeypatch) -> list:
    """The states of the leaves closed from now on, counted at ``protocols._leaf``."""
    calls, leaf = [], protocols._leaf

    def counting(*args, **kwargs):
        calls.append(leaf(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(protocols, "_leaf", counting)
    return calls


def closed(result, calls) -> list:
    """The labels of ``result``'s columns whose state is one of the leaves in ``calls``."""
    return [c.label for c in result.columns if any(vars(c).get("state") is s for s in calls)]


def test_branch_builds_only_its_own_state(monkeypatch):
    calls = counting_leaves(monkeypatch)
    result = chain_multiphoton(replace(realistic_config(kappa_s=0.2), t_over_t2=0.3), 6)
    plus = result.branch("+45/up")
    assert len(calls) == 1 and closed(result, calls) == ["+45/up"]
    assert isinstance(plus.state, qs.DensityState)
    assert_same_branch(plus, result.branches[0])


def test_merged_detection_branch_builds_only_the_picked_states(monkeypatch):
    calls = counting_leaves(monkeypatch)
    result = chain_multiphoton(realistic_config(kappa_s=0.2), 3)
    merged = merged_detection_branch(result, "+45")
    # both live: the merge mixes both
    assert len(calls) == 2 and closed(result, calls) == ["+45/up", "+45/down"]
    assert isinstance(merged.state, qs.DensityState)


@pytest.mark.parametrize("read", ["state", "fidelity", "concurrence"])
@pytest.mark.parametrize("run", [transfer_photon_to_spin, transfer_spin_to_photon,
                                 scheme_a_entangle_spins])
def test_a_register_run_closes_a_leaf_only_when_its_column_is_read(monkeypatch, run, read):
    calls = counting_leaves(monkeypatch)
    result = run(replace(realistic_config(kappa_s=0.2), t_over_t2=0.3))
    assert calls == [] and all(c.probability[0] > 0.0 for c in result.columns)
    column = result.columns[0]
    value = getattr(column, read)  # a one-qubit column's concurrence is None, unbuilt
    assert closed(result, calls) == ([] if value is None else [column.label])
    assert len(calls) == (value is not None)
    getattr(column, read)
    assert len(calls) == (value is not None)  # kept, not closed again


def test_a_scheme_a_run_closes_only_the_spin_pairs_it_emits_from(monkeypatch):
    calls = counting_leaves(monkeypatch)
    result = scheme_a_photon_pairs(replace(realistic_config(kappa_s=0.2), t_over_t2=0.3))
    assert [s.register for s in calls] == [(qs.spin(1), qs.spin(2))] * 2
    assert result.columns[1].fidelity[0] > 0.0
    assert len(calls) == 3 and closed(result, calls) == [result.columns[1].label]


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_sample_closes_no_leaf_but_the_spin_pairs_of_scheme_a(tmp_path, monkeypatch, name):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"protocol = {name}\ngate.mode = realistic\ncavity.kappa_s_rel = 0.2\n"
                   "noise.t_over_t2 = 0.3\n", encoding="utf-8")
    calls = counting_leaves(monkeypatch)
    assert cli.main(["sample", "--config", str(cfg), "--trials", "100",
                     "--out", str(tmp_path / "s.csv")]) == 0
    pairs = [(qs.spin(1), qs.spin(2))] * 2 if name == "scheme-a" else []
    assert [s.register for s in calls] == pairs


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("batched", [False, True])
def test_no_result_hands_out_a_callable(name, batched):
    # a column's state is built by a private function that nothing public
    # returns: no attribute, item of an attribute, iteration or unpacking
    g = np.array([2.0, 5.0]) if batched else 5.0
    cfg = ProtocolConfig(gate=RealisticGate(CavityParams(g=g, kappa=1.0, gamma=0.1), 0.5),
                         t_over_t2=0.2)
    result = run_protocol(name, cfg, n_photons=4)
    for obj in (result, *result.columns, *result.branches):
        with pytest.raises(TypeError):
            _, *_ = obj
        public = [getattr(obj, a) for a in dir(obj)
                  if not a.startswith("_") and not callable(getattr(type(obj), a, None))]
        items = [x for v in public if isinstance(v, (tuple, list)) for x in v]
        assert not any(map(callable, public + items)), type(obj).__name__


# --- scheme C ------------------------------------------------------------------

def test_transfer_photon_to_spin_trivial_input():
    res = transfer_photon_to_spin(ProtocolConfig(alpha1=1, beta1=0))
    for br in res.branches:
        assert np.allclose(qs.normalize(br.state).amplitudes, [1, 0], atol=1e-12)


def test_transfer_photon_to_spin_random_inputs():
    rng = np.random.default_rng(57)
    for _ in range(25):
        a, b = rand_amp_pair(rng)
        res = transfer_photon_to_spin(ProtocolConfig(alpha1=a, beta1=b))
        target = qubit_state(qs.spin(1), a, b)
        for label in ("H", "V"):
            br = res.branch(label)
            assert br.probability == pytest.approx(0.5, abs=1e-12)
            assert qs.fidelity(target, br.state) == pytest.approx(1.0, abs=1e-12)


def test_transfer_photon_to_spin_realistic_high_fidelity():
    res = transfer_photon_to_spin(realistic_config(alpha1=SQH, beta1=1j * SQH))
    for br in res.branches:
        assert br.fidelity_vs_target >= 0.98
    # exact values recorded for inspection
    print("transfer-ps realistic fidelities:",
          {b.label: round(b.fidelity_vs_target, 12) for b in res.branches})


# --- scheme D ------------------------------------------------------------------

def test_transfer_spin_to_photon_trivial_input():
    res = transfer_spin_to_photon(ProtocolConfig(alpha1=0, beta1=1))
    for br in res.branches:
        if br.probability > 0:
            assert qs.fidelity(ket_state(qs.photon(1), "V"), br.state) == \
                pytest.approx(1.0, abs=1e-12)


def test_transfer_spin_to_photon_random_inputs():
    rng = np.random.default_rng(59)
    for _ in range(25):
        a, b = rand_amp_pair(rng)
        res = transfer_spin_to_photon(ProtocolConfig(alpha1=a, beta1=b))
        target = qs.PureState((qs.photon(1),), [(a + b) * SQH, (a - b) * SQH])
        for label in ("up/up", "down/down"):
            br = res.branch(label)
            assert br.probability == pytest.approx(0.5, abs=1e-12)
            assert qs.fidelity(target, br.state) == pytest.approx(1.0, abs=1e-12)
        assert res.branch("up/down").probability == 0.0
        assert res.branch("down/up").probability == 0.0


def test_transfer_spin_to_photon_pre_correction_state():
    # the spin-up readout projects the photon onto a|+45> + i b|-45> before
    # the wave plates; replicate the circuit up to that point
    rng = np.random.default_rng(61)
    a, b = rand_amp_pair(rng)
    from spinphoton.gates import apply_gate, make_gate
    p1, s, p3 = qs.photon(1), qs.spin(1), qs.photon(3)
    st = qs.tensor_all([ket_state(p1, "H"), qubit_state(s, a, b),
                        ket_state(p3, "H")])
    st = apply_gate(st, make_gate(p1, s, IdealGate()))
    st = qs.apply_unitary(st, s, hadamard())
    st = apply_gate(st, make_gate(p3, s, IdealGate()))
    plus = qs.measure(st, p3, "45")[0]
    up = qs.measure(plus.post_state, s, "updown")[0]
    expected = qs.PureState((p1,), a * qs.KET_P45 + 1j * b * qs.KET_M45)
    assert qs.fidelity(expected, up.post_state) == pytest.approx(1.0, abs=1e-12)


# --- GFR readout ------------------------------------------------------------------

def test_gfr_readout_eigenstates():
    up = ket_state(qs.spin(1), "up")
    outs = gfr_spin_readout(up, qs.spin(1), qs.photon(9))
    assert outs[0].label == "+45"
    assert outs[0].probability == pytest.approx(1.0, abs=1e-12)
    assert outs[1].probability == pytest.approx(0.0, abs=1e-12)
    down = ket_state(qs.spin(1), "down")
    outs = gfr_spin_readout(down, qs.spin(1), qs.photon(9))
    assert outs[1].label == "-45"
    assert outs[1].probability == pytest.approx(1.0, abs=1e-12)


def test_gfr_readout_projects_superposition():
    st = qubit_state(qs.spin(1), SQH, SQH)
    outs = gfr_spin_readout(st, qs.spin(1), qs.photon(9))
    for o, name in zip(outs, ("up", "down")):
        assert o.probability == pytest.approx(0.5, abs=1e-12)
        assert o.post_state.register == (qs.spin(1),)
        assert qs.fidelity(ket_state(qs.spin(1), name), o.post_state) == \
            pytest.approx(1.0, abs=1e-12)


def test_gfr_readout_is_non_demolition_on_larger_registers():
    st = qs.tensor(ket_state(qs.photon(1), "H"), ket_state(qs.spin(1), "up"))
    outs = gfr_spin_readout(st, qs.spin(1), qs.photon(9))
    assert outs[0].post_state.register == st.register


def test_gfr_readout_keeps_a_branch_below_the_floor_renormalized():
    # the floor is applied by the leaf that closes a run, not by the readout
    s, ancilla = qs.spin(1), qs.photon(9)
    st = qubit_state(s, 1.0, 1e-13)
    minus = gfr_spin_readout(st, s, ancilla)[1]
    assert minus.label == "-45"
    assert minus.probability == pytest.approx(1e-26, rel=1e-9)
    assert minus.probability < protocols.PROBABILITY_FLOOR
    full = gates.apply_gate(qs.tensor(st, ket_state(ancilla, "H")),
                            gates.make_gate(ancilla, s, IdealGate()))
    ref = qs.measure(full, ancilla, "45")[1].post_state
    assert np.array_equal(minus.post_state.amplitudes, ref.amplitudes)
    assert minus.post_state.norm_tracking == ref.norm_tracking > 0.0
    assert np.linalg.norm(minus.post_state.amplitudes) == pytest.approx(1.0, abs=1e-12)


# --- multi-photon chain --------------------------------------------------------------

def test_chain_two_photons_identical_to_scheme_b():
    rng = np.random.default_rng(67)
    cfg = config_from(rng)
    chain = chain_multiphoton(cfg, 2)
    direct = scheme_b_entangle_photons(cfg)
    assert [b.label for b in chain.branches] == [b.label for b in direct.branches]
    for bc, bd in zip(chain.branches, direct.branches):
        assert bc.probability == pytest.approx(bd.probability, abs=1e-15)
        assert np.array_equal(bc.state.amplitudes, bd.state.amplitudes)


def test_chain_three_photons_uniform_gives_ghz():
    res = chain_multiphoton(UNIFORM, 3)
    plus = res.branch("+45/up")
    assert plus.probability == pytest.approx(0.5, abs=1e-12)
    reg = plus.state.register
    ghz = np.zeros(8, complex)
    ghz[0], ghz[7] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert qs.fidelity(qs.PureState(reg, ghz), plus.state) == pytest.approx(1.0, abs=1e-12)


def test_chain_three_photons_bipartition_entropies():
    res = chain_multiphoton(UNIFORM, 3)
    for br in res.branches:
        if br.probability == 0.0:
            continue
        for q in br.state.register:
            assert entanglement_entropy(br.state, [q]) == pytest.approx(
                math.log(2.0), abs=1e-9)


def test_chain_realistic_mode_scores_against_ideal_targets():
    res = chain_multiphoton(realistic_config(g=10), 3)
    plus = res.branch("+45/up")
    assert 0.99 < plus.fidelity_vs_target <= 1.0 + 1e-12
    assert res.survival_probability() < 1.0


def test_chain_size_limits():
    with pytest.raises(ValueError, match="overflow"):
        chain_multiphoton(UNIFORM, 1)
    with pytest.raises(ValueError, match="overflow"):
        chain_multiphoton(UNIFORM, 7)


def test_chain_six_photons_runs():
    res = chain_multiphoton(UNIFORM, 6)
    assert res.branch("+45/up").probability == pytest.approx(0.5, abs=1e-12)
    assert res.branch("+45/up").state.n_qubits == 6


# --- cross-cutting ---------------------------------------------------------------------

def test_branch_probabilities_sum_to_survival_everywhere():
    rng = np.random.default_rng(71)
    cfgs = [UNIFORM, config_from(rng), realistic_config(g=3.0),
            realistic_config(g=10.0, kappa_s=0.2)]
    for cfg in cfgs:
        for name in ("scheme-a", "scheme-b", "transfer-ps", "transfer-sp", "ghz"):
            res = run_protocol(name, cfg, n_photons=3)
            total = res.survival_probability()
            if isinstance(cfg.gate, IdealGate):
                assert total == pytest.approx(1.0, abs=1e-9)
            else:
                assert total <= 1.0 + 1e-9
            assert sum(b.probability for b in res.branches) == pytest.approx(
                total, abs=1e-9)


@pytest.mark.parametrize("name, n_photons", [("ghz", 6), ("scheme-b", 2), ("scheme-a", 3),
                                             ("transfer-ps", 3), ("transfer-sp", 3)])
def test_realistic_run_evaluates_the_cavity_once(monkeypatch, name, n_photons):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["coupled"])
        return reflection_coefficient(*args, **kwargs)

    monkeypatch.setattr(gates, "reflection_coefficient", counting)
    run_protocol(name, realistic_config(kappa_s=0.2), n_photons=n_photons)
    assert sorted(calls) == [False, True]


def test_scheme_a_evaluates_each_cavity_once(monkeypatch):
    calls = []

    def counting(params, omega, coupled):
        calls.append((params.g, coupled))
        return reflection_coefficient(params, omega, coupled=coupled)

    monkeypatch.setattr(gates, "reflection_coefficient", counting)
    second = CavityParams(g=3.0, kappa=1.0, gamma=0.1, kappa_s=0.2)
    scheme_a_photon_pairs(realistic_config(kappa_s=0.2), second_cavity=second)
    assert sorted(calls) == [(3.0, False), (3.0, True), (10.0, False), (10.0, True)]


# The state engine's step functions: every protocol is scored from per-photon
# factors, and runs none of them.
STEPS = ("tensor", "tensor_all", "make_gate", "apply_gate", "apply_diagonal_pair",
         "apply_unitary", "measure", "apply_correction", "trion_emission_map")


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("mode", ["ideal", "realistic", "dephased"])
@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_no_protocol_run_calls_a_step_function(monkeypatch, name, mode, batched):
    def refuse(*args, **kwargs):
        raise AssertionError("a protocol run called a step function")

    for module in (qs, gates, protocols):
        for step in STEPS:
            if hasattr(module, step):
                monkeypatch.setattr(module, step, refuse)
    g = np.array([2.0, 5.0]) if batched else 5.0
    cfg = ProtocolConfig() if mode == "ideal" else realistic_config(g=g, kappa_s=0.2)
    t = 0.3 if mode == "dephased" else 0.0
    cfg = replace(cfg, t_over_t2=np.full(2, t) if batched else t)
    result = run_protocol(name, cfg, n_photons=3)
    assert result.batch_shape == ((2,) if batched else ())
    for br in result.branches:  # every state, target and score, each built when read
        assert br.state is not None and 0.0 <= br.probability <= 1.0


def list_form_split(trajectories, spin_q, t_over_t2):
    """The (weight, state) list form of one dephasing split: each state
    followed by its Z twin."""
    q = (1.0 - np.exp(-np.asarray(t_over_t2))) / 2.0
    z = np.diag([1.0, -1.0])
    return [pair for w, psi in trajectories
            for pair in ((w * (1.0 - q), psi), (w * q, qs.apply_unitary(psi, spin_q, z)))]


@pytest.mark.parametrize("batch", [(), (3,)])
def test_stacked_trajectories_equal_the_list_form_bit_for_bit(batch):
    rng = np.random.default_rng(4)
    s1, s2, p = qs.spin(1), qs.spin(2), qs.photon(1)
    amps = rng.normal(size=batch + (8,)) + 1j * rng.normal(size=batch + (8,))
    psi = qs.normalize(qs.PureState((s1, s2, p), amps))
    t = rng.uniform(0.1, 1.0, size=batch)
    w, stacked = _trajectories(psi, batch, (s1, s2), t)
    assert np.array_equal(protocols._weights(t, batch, 2), w)
    ref = [(1.0, psi)]
    for s in (s1, s2):
        ref = list_form_split(ref, s, t)
    assert w.shape == (4,) + batch and stacked.batch_shape == (4,) + batch
    for k, (wk, st) in enumerate(ref):
        assert np.array_equal(w[k], np.broadcast_to(wk, batch))
        assert np.array_equal(stacked.amplitudes[k], st.amplitudes)
    # a leaf sums and mixes the trajectories in list order, starting from zero
    for j, o in enumerate(qs.measure(stacked, p, "HV")):
        closing = o.post_state
        prob = protocols._floored(w, closing.norm_tracking)[0]
        rho = protocols._leaf(w, closing.amplitudes, closing.norm_tracking, (s1, s2))
        posts = [(wk, qs.measure(st, p, "HV")[j].post_state) for wk, st in ref]
        ref_prob = sum((wk * post.norm_tracking for wk, post in posts), np.zeros(batch))
        ref_mat = np.zeros(batch + (4, 4), dtype=np.complex128)
        for wk, post in posts:
            a = post.amplitudes
            coef = np.asarray(wk * post.norm_tracking / ref_prob)
            ref_mat = ref_mat + coef[..., None, None] * (a[..., :, None] * a.conj()[..., None, :])
        assert np.array_equal(prob, ref_prob)
        assert np.array_equal(rho.matrix, mirrored(ref_mat))


def test_protocols_are_deterministic():
    cfg = realistic_config(g=7.0)
    r1 = scheme_b_entangle_photons(cfg)
    r2 = scheme_b_entangle_photons(cfg)
    for b1, b2 in zip(r1.branches, r2.branches):
        assert b1.probability == b2.probability
        assert np.array_equal(b1.state.amplitudes, b2.state.amplitudes)


def test_run_protocol_unknown_name():
    with pytest.raises(ValueError, match="unknown protocol"):
        run_protocol("scheme-x", UNIFORM)


def test_config_normalization_enforced():
    with pytest.raises(ValueError, match="alpha1/beta1"):
        ProtocolConfig(alpha1=1.0, beta1=1.0)
    with pytest.raises(ValueError, match="alpha2/beta2"):
        ProtocolConfig(alpha2=0.9, beta2=0.9)


@pytest.mark.parametrize("field, pair", [("alpha1", "alpha1/beta1"), ("beta1", "alpha1/beta1"),
                                         ("alpha2", "alpha2/beta2"), ("beta2", "alpha2/beta2")])
@pytest.mark.parametrize("value", [complex("nan"), complex(0.6, -math.inf)])
def test_config_rejects_non_finite_amplitudes(field, pair, value):
    with pytest.raises(ValueError, match=f"{pair} must be finite"):
        ProtocolConfig(**{field: value})


def test_non_finite_gate_is_refused_as_a_parameter_error_without_a_warning():
    # kappa / c overflows: the hot coefficient is (-inf+nanj)
    gate = RealisticGate(CavityParams(g=10, kappa=1e-320, gamma=0.1), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"coefficient .* is not finite"):
            run_protocol("scheme-b", ProtocolConfig(gate=gate))


@pytest.mark.parametrize("build, field", [
    (lambda: CavityParams(g=1.0, kappa=0.0, gamma=0.1), "kappa"),
    (lambda: CavityParams(g=-1.0, kappa=1.0, gamma=0.1), "g"),
    (lambda: ProtocolConfig(t_over_t2=-1.0), "t_over_t2"),
    (lambda: ProtocolConfig(alpha2=0.9, beta2=0.9), "alpha2/beta2"),
    (lambda: SweepSpec("g_rel", (2.0, 1.0), UNIFORM, "scheme-b"), "grid"),
    (lambda: SweepSpec("g_rel", (1.0, math.nan), UNIFORM, "scheme-b"), "grid"),
    # the ideal gate has no cavity to sweep
    (lambda: run_sweep(SweepSpec("g_rel", (1.0,), UNIFORM, "scheme-b")), "gate"),
    (lambda: RealisticGate(CavityParams(g=10, kappa=1e-320, gamma=0.1), 0.0).coefficients,
     "coefficients"),
    (lambda: run_protocol("scheme-x", UNIFORM), "name"),
    (lambda: chain_multiphoton(UNIFORM, 7), "n_photons"),
    (lambda: scheme_a_photon_pairs(UNIFORM, second_cavity=CavityParams(10, 1, 0.1)), "gate"),
    # the search takes one cavity, not a batch
    (lambda: find_operating_point(CavityParams(np.array([2.4, 3.0]), 1.0, 0.1), math.pi / 2),
     "g"),
])
def test_every_input_rule_raises_the_one_input_error_type(build, field):
    with pytest.raises(ParameterError) as exc:
        build()
    assert exc.value.field == field
