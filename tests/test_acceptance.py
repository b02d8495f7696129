"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criterion 5 additionally records its fidelity curve as
``artifacts/scheme_b_fidelity_vs_g.csv``.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from spinphoton import qstate as qs
from spinphoton.cavity import (
    CavityParams,
    conditional_phase,
    reflection_coefficient,
)
from spinphoton.cli import main as cli_main
from spinphoton.gates import RealisticGate
from spinphoton.metrics import entanglement_entropy
from spinphoton.protocols import (
    ProtocolConfig,
    chain_multiphoton,
    merged_detection_branch,
    scheme_a_emit,
    scheme_a_entangle_spins,
    scheme_b_entangle_photons,
    transfer_photon_to_spin,
    transfer_spin_to_photon,
)
from reference_engine import ket_state, qubit_state
from reference_states import (
    cold_phase_closed_form,
    double_reflection_state,
    photon_pair_anticorrelated,
    photon_pair_correlated,
    photon_pair_emitted_anticorrelated,
    photon_pair_emitted_correlated,
    rand_amp_pair,
    spin_pair_anticorrelated,
    spin_pair_correlated,
    three_photon_readout_state,
)
import test_oracle_equivalence as oracle

SQH = 1.0 / math.sqrt(2.0)
ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_cold_cavity_phase_and_modulus():
    params = CavityParams(g=10.0, kappa=1.0, gamma=0.1, kappa_s=0.0)
    detunings = np.linspace(-10.0, 10.0, 10_000)
    t0 = time.perf_counter()
    r = reflection_coefficient(params, detunings, coupled=False)
    phases = np.angle(r)
    closed = np.array([cold_phase_closed_form(params, d) for d in detunings])
    elapsed = time.perf_counter() - t0
    diff = np.abs((phases - closed + math.pi) % (2 * math.pi) - math.pi)
    phase_err = float(np.max(diff))
    mod_err = float(np.max(np.abs(np.abs(r) - 1.0)))
    ok = phase_err < 1e-9 and mod_err < 1e-12 and elapsed < 1.0
    report(1, "cold-cavity phase", ok,
           f"(phase err {phase_err:.2e}, |r|-1 err {mod_err:.2e}, {elapsed:.3f} s)")


def test_criterion_2_operating_point_phase():
    params = CavityParams(g=50.0, kappa=1.0, gamma=0.01)
    dphi = conditional_phase(params, 0.5)
    err = abs(dphi - math.pi / 2)
    report(2, "pi/2 operating point", err <= 1e-3, f"(|dphi - pi/2| = {err:.2e})")


def test_criterion_3_equation_reproduction():
    rng = np.random.default_rng(2024)
    tol = 1e-12
    t0 = time.perf_counter()
    worst = 0.0

    def miss(target_vec, register, state):
        target = qs.PureState(register, target_vec)
        return 1.0 - qs.fidelity(target, state)

    s_reg = (qs.spin(1), qs.spin(2))
    p_reg = (qs.photon(1), qs.photon(2))
    for _ in range(100):
        a1, b1 = rand_amp_pair(rng)
        a2, b2 = rand_amp_pair(rng)
        cfg = ProtocolConfig(alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)

        res_a = scheme_a_entangle_spins(cfg)
        worst = max(worst, miss(spin_pair_correlated(a1, b1, a2, b2), s_reg,
                                res_a.branch("V").state))
        worst = max(worst, miss(spin_pair_anticorrelated(a1, b1, a2, b2), s_reg,
                                res_a.branch("H").state))
        res_em = scheme_a_emit(res_a, cfg)
        worst = max(worst, miss(photon_pair_emitted_correlated(a1, b1, a2, b2),
                                p_reg, res_em.branch("V").state))
        worst = max(worst, miss(photon_pair_emitted_anticorrelated(a1, b1, a2, b2),
                                p_reg, res_em.branch("H").state))

        # intermediate joint states of scheme B (pre-measurement)
        from spinphoton.gates import apply_gate, make_gate
        from matrix_oracle import RY90
        from spinphoton.gates import IdealGate
        st = qs.tensor_all([
            qubit_state(qs.photon(1), a1, b1),
            qubit_state(qs.photon(2), a2, b2),
            qubit_state(qs.spin(1), SQH, SQH),
        ])
        st = apply_gate(st, make_gate(qs.photon(1), qs.spin(1), IdealGate()))
        st = apply_gate(st, make_gate(qs.photon(2), qs.spin(1), IdealGate()))
        ref = double_reflection_state(a1, b1, a2, b2)
        worst = max(worst, float(np.max(np.abs(st.amplitudes - ref))))

        st3 = qs.tensor_all([
            qubit_state(qs.photon(1), a1, b1),
            qubit_state(qs.photon(2), a2, b2),
            ket_state(qs.photon(3), "H"),
            qubit_state(qs.spin(1), SQH, SQH),
        ])
        for p in (qs.photon(1), qs.photon(2)):
            st3 = apply_gate(st3, make_gate(p, qs.spin(1), IdealGate()))
        st3 = qs.apply_unitary(st3, qs.spin(1), RY90)
        st3 = apply_gate(st3, make_gate(qs.photon(3), qs.spin(1), IdealGate()))
        ref3 = qs.PureState(st3.register, three_photon_readout_state(a1, b1, a2, b2))
        worst = max(worst, 1.0 - qs.fidelity(ref3, st3))

        res_b = scheme_b_entangle_photons(cfg)
        worst = max(worst, miss(photon_pair_correlated(a1, b1, a2, b2), p_reg,
                                res_b.branch("+45/up").state))
        worst = max(worst, miss(photon_pair_anticorrelated(a1, b1, a2, b2), p_reg,
                                res_b.branch("-45/down").state))

        res_c = transfer_photon_to_spin(cfg)
        for label in ("H", "V"):
            worst = max(worst, miss(np.array([a1, b1]), (qs.spin(1),),
                                    res_c.branch(label).state))

        res_d = transfer_spin_to_photon(cfg)
        target_d = np.array([(a1 + b1) * SQH, (a1 - b1) * SQH])
        for label in ("up/up", "down/down"):
            worst = max(worst, miss(target_d, (qs.photon(1),),
                                    res_d.branch(label).state))

    # uniform-input branch probabilities
    uni = ProtocolConfig()
    prob_err = 0.0
    for res, labels in (
        (scheme_a_entangle_spins(uni), ("V", "H")),
        (scheme_b_entangle_photons(uni), ("+45/up", "-45/down")),
        (transfer_photon_to_spin(uni), ("H", "V")),
        (transfer_spin_to_photon(uni), ("up/up", "down/down")),
    ):
        for label in labels:
            prob_err = max(prob_err, abs(res.branch(label).probability - 0.5))

    elapsed = time.perf_counter() - t0
    ok = worst <= tol and prob_err <= 1e-12 and elapsed < 10.0
    report(3, "equation reproduction", ok,
           f"(max infidelity {worst:.2e}, prob err {prob_err:.2e}, {elapsed:.2f} s)")


def test_criterion_4_oracle_equivalence():
    try:
        for idx in (0, 1):
            oracle.test_scheme_a_matches_matrix_oracle(idx)
            oracle.test_scheme_b_matches_matrix_oracle(idx)
            oracle.test_transfer_photon_to_spin_matches_matrix_oracle(idx)
            oracle.test_transfer_spin_to_photon_matches_matrix_oracle(idx)
            oracle.test_chain_three_photons_matches_matrix_oracle(idx)
        oracle.test_noisy_scheme_a_matches_kraus_matrix_oracle()
        ok, detail = True, "(all protocols, ideal and lossy modes, <= 1e-12)"
    except AssertionError as exc:
        ok, detail = False, f"({exc})"
    report(4, "dense-matrix oracle equivalence", ok, detail)


def test_criterion_5_monotone_realism_with_artifact(tmp_path):
    grid = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)
    rows = []
    for g in grid:
        params = CavityParams(g=g, kappa=1.0, gamma=0.1, kappa_s=0.0)
        cfg = ProtocolConfig(gate=RealisticGate(params, 0.5))
        res = scheme_b_entangle_photons(cfg)
        merged = merged_detection_branch(res, "+45")
        rows.append((g, merged.probability, merged.fidelity_vs_target))

    # written beside the test and checked byte for byte against the committed file
    path = tmp_path / "scheme_b_fidelity_vs_g.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("g_rel,plus45_probability,plus45_fidelity\n")
        for g, p, f in rows:
            fh.write(f"{g:.17g},{p:.17g},{f:.17g}\n")
    committed = ARTIFACTS / path.name
    assert path.read_bytes() == committed.read_bytes(), \
        f"{path} differs from the committed {committed}"

    fids = [f for _, _, f in rows]
    nondecreasing = all(b >= a for a, b in zip(fids, fids[1:]))
    ok = nondecreasing and fids[-1] >= 1.0 - 1e-3
    report(5, "monotone realism", ok,
           f"(fidelities {['%.6f' % f for f in fids]}, artifact {path.name})")


def test_criterion_6_coherence_budget():
    res_fast = scheme_a_emit(scheme_a_entangle_spins(ProtocolConfig()),
                             ProtocolConfig(t_over_t2=1e-3))
    fid_fast = res_fast.branch("V").fidelity_vs_target
    res_slow = scheme_a_emit(scheme_a_entangle_spins(ProtocolConfig()),
                             ProtocolConfig(t_over_t2=1.0))
    fid_slow = res_slow.branch("V").fidelity_vs_target
    ok = fid_fast >= 0.999 and fid_slow < 0.85
    report(6, "spin-coherence budget", ok,
           f"(F @ t/T2=1e-3: {fid_fast:.6f}, F @ t/T2=1: {fid_slow:.4f})")


def test_criterion_7_byte_identical_outputs(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "protocol = scheme-b\ngate.mode = realistic\ncavity.g_rel = 10\nseed = 3\n",
        encoding="utf-8",
    )
    pairs = []
    for tag in ("one", "two"):
        pj = tmp_path / f"p_{tag}.json"
        sc = tmp_path / f"s_{tag}.csv"
        wc = tmp_path / f"w_{tag}.csv"
        assert cli_main(["protocol", "--config", str(cfg), "--out", str(pj)]) == 0
        assert cli_main(["sample", "--config", str(cfg), "--trials", "1000",
                         "--out", str(sc)]) == 0
        assert cli_main(["sweep", "--config", str(cfg), "--sweep", "g_rel",
                         "--grid", "1:10:5", "--out", str(wc)]) == 0
        pairs.append((pj.read_bytes(), sc.read_bytes(), wc.read_bytes()))
    ok = pairs[0] == pairs[1]
    json.loads(pairs[0][0].decode())  # and the JSON is well formed
    report(7, "deterministic outputs", ok, "(JSON + two CSVs byte-identical)")


def test_criterion_8_ghz_extension():
    res = chain_multiphoton(ProtocolConfig(), 3)
    plus = res.branch("+45/up")
    ghz = np.zeros(8, dtype=complex)
    ghz[0], ghz[7] = SQH, -SQH
    infid = 1.0 - qs.fidelity(qs.PureState(plus.state.register, ghz), plus.state)
    entropy_err = max(
        abs(entanglement_entropy(plus.state, [q]) - math.log(2.0))
        for q in plus.state.register
    )
    ok = infid <= 1e-12 and entropy_err <= 1e-9
    report(8, "three-photon GHZ extension", ok,
           f"(infidelity {infid:.2e}, entropy err {entropy_err:.2e})")
