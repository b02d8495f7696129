"""The multi-photon chain driven through the state engine step by step: the
independent reference for the chain's product-form scores.

Photons 1..n reflect off one spin (``apply_gate`` on the full register), the
spin dephases between arrivals as two weighted trajectories, a pi/2 pulse
(``RY90``) and a fresh ancilla photon (``gfr_spin_readout``) read the spin out,
the spin is measured, and for n >= 3 the feed-forward plates act on every
photon. Branch targets are the normalized branch states of the ideal,
undephased run of the same circuit, so no closed form is shared with the
package's chain.

``gfr_spin_readout`` and ``_trajectories`` are the engine steps the package's
protocols took before they were scored from per-photon factors; they are kept
here as the reference's own.
"""
from spinphoton import replace

import numpy as np

from spinphoton import qstate as qs
from spinphoton.gates import IdealGate, apply_gate, circular_to_z, make_gate
from spinphoton.protocols import _chain_inputs, _result
from matrix_oracle import RY90, Z
from reference_engine import ket_state, qubit_state


def gfr_spin_readout(state, spin_q, ancilla_photon, gate=IdealGate()):
    """Read a spin out with a fresh |H> ancilla photon; the spin survives.

    Returns both +-45 detection branches; with the ideal gate the +45 branch
    projects the spin onto |up> and the -45 branch onto |down>. The measured
    ancilla leaves the register. The outcomes are ``measure``'s, renormalized
    at any probability: the floor is applied where a run's leaves are closed.
    """
    full = qs.tensor(state, ket_state(ancilla_photon, "H"))
    full = apply_gate(full, make_gate(ancilla_photon, spin_q, gate))
    return qs.measure(full, ancilla_photon, "45")


def _trajectories(psi, batch, spins=(), t_over_t2=0.0):
    """Unravel the dephasing of each of ``spins`` over a total ``t_over_t2``
    into weighted pure trajectories on a leading axis of one state: (w, psi),
    w of shape (trajectories, *batch), psi's batch axes aligned to ``batch``
    (length 1 where they do not vary). One trajectory of weight 1, then each
    spin splits every (w, psi) into (w (1-q), psi) and (w q, Z psi), in order.
    """
    lead = (1,) * (1 + len(batch) - len(psi.batch_shape))
    w = np.ones((1,) + batch)
    psi = qs.PureState(psi.register, psi.amplitudes.reshape(lead + psi.amplitudes.shape),
                       np.reshape(psi.norm_tracking, lead + psi.batch_shape))
    t = np.asarray(t_over_t2, dtype=float)
    if not (t > 0.0).any():
        return w, psi
    q = (1.0 - np.exp(-t)) / 2.0

    def twins(x, z):  # each entry of x followed by its twin in z
        return np.stack([x, z], axis=1).reshape((-1,) + x.shape[1:])

    for s in spins:
        z = qs.apply_unitary(psi, s, Z)
        w = twins(w * (1.0 - q), w * q)
        psi = qs.PureState(psi.register, twins(psi.amplitudes, z.amplitudes),
                           twins(psi.norm_tracking, z.norm_tracking))
    return w, psi


def reference_run(config, n, target_of):
    """The chain's leaves over the kept photons, closed and scored against
    ``target_of(label)`` as the package closes and scores a register run's
    (``protocols._result``, ``qstate.fidelity``)."""
    photons = [qs.photon(i) for i in range(1, n + 1)]
    s = qs.spin(1)
    state = qs.tensor_all([qubit_state(p, *ab)
                           for p, ab in zip(photons, _chain_inputs(config, n))]
                          + [ket_state(s, "+x")])
    for p in photons:
        state = apply_gate(state, make_gate(p, s, config.gate))
    # one waiting interval after each photon, merged ahead of the pulse
    with np.errstate(over="ignore"):
        total = n * config.t_over_t2
    w, state = _trajectories(state, config.batch_shape, [s], total)
    state = qs.apply_unitary(state, s, RY90)
    phase_fix = np.diag([1.0, (-1j) ** n]).astype(np.complex128)

    def plates(st):
        for p in photons:
            st = qs.apply_unitary(st, p, circular_to_z())
        return qs.apply_unitary(st, photons[0], phase_fix)

    leaves = [(f"{o.label}/{m.label}", st.amplitudes, st.norm_tracking)
              for o in gfr_spin_readout(state, s, qs.photon(n + 1), config.gate)
              for m in qs.measure(o.post_state, s, "updown")
              for st in [plates(m.post_state) if n > 2 else m.post_state]]
    return _result("ghz", w, photons, leaves, target_of)


def reference_targets(config, n) -> dict:
    """The normalized live branch states of the ideal, undephased run, keyed
    by detection outcome."""
    ideal = reference_run(replace(config, gate=IdealGate(), t_over_t2=0.0), n, lambda _: None)
    return {c.label[:3]: qs.normalize(c.state) for c in ideal.columns if c.probability[0] > 0.0}


def reference_chain(config, n):
    """The reference run: a ProtocolResult of the config's batch shape, scored
    against ``reference_targets``."""
    targets = reference_targets(config, n)
    return reference_run(config, n, lambda label: targets.get(label[:3]))
