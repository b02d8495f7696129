"""The multi-photon chain driven through the state engine step by step: the
independent reference for the chain's product-form scores.

Photons 1..n reflect off one spin (``apply_gate`` on the full register), the
spin dephases between arrivals as two weighted trajectories, a pi/2 pulse
(``RY90``) and a fresh ancilla photon (``gfr_spin_readout``) read the spin out,
the spin is measured, and for n >= 3 the feed-forward plates act on every
photon. Branch targets are the normalized branch states of the ideal,
undephased run of the same circuit, so no closed form is shared with the
package's chain.
"""
from spinphoton import replace

import numpy as np

from spinphoton import qstate as qs
from spinphoton.gates import IdealGate, apply_gate, circular_to_z, make_gate
from spinphoton.protocols import _chain_inputs, _leaf, _result, _trajectories, gfr_spin_readout
from matrix_oracle import RY90


def reference_leaves(config, n):
    """The (label, probability, kept photons' state) leaves of the chain."""
    photons = [qs.photon(i) for i in range(1, n + 1)]
    s = qs.spin(1)
    state = qs.tensor_all([qs.qubit_state(p, *ab)
                           for p, ab in zip(photons, _chain_inputs(config, n))]
                          + [qs.ket_state(s, "+x")])
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

    return [_leaf(f"{o.label}/{m.label}", w, m.post_state, photons, plates if n > 2 else None)
            for o in gfr_spin_readout(state, s, qs.photon(n + 1), config.gate)
            for m in qs.measure(o.post_state, s, "updown")]


def reference_targets(config, n) -> dict:
    """The normalized live branch states of the ideal, undephased run, keyed
    by detection outcome."""
    ideal = reference_leaves(replace(config, gate=IdealGate(), t_over_t2=0.0), n)
    return {label[:3]: qs.normalize(st) for label, p, st in ideal if p > 0.0}


def reference_chain(config, n):
    """The reference run: a ProtocolResult of the config's batch shape, scored
    against ``reference_targets``."""
    targets = reference_targets(config, n)
    return _result("ghz", reference_leaves(config, n), lambda label: targets.get(label[:3]))
