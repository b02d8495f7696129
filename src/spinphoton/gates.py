"""Register-level operations built from the cavity physics.

The central object is the conditional-reflection gate: one photon bounces off
the cavity and the coupled polarization-spin combinations |L,up> and |R,down>
pick up the hot-cavity reflection amplitude while the uncoupled combinations
pick up the cold one. In the ideal limit that is a pure pi/2 conditional phase
(coupled coefficient i, uncoupled coefficient 1, the common cold phase dropped
as an unobservable global factor). Each gate mode carries its (coupled,
uncoupled) coefficient pair, evaluated once per mode.

Also here: the polarization and spin unitaries the protocols need (Hadamard,
the circular-to-pole pulse, the table of feed-forward corrections) and the
trion-emission map that converts a stored spin qubit into a flying
polarization qubit (selection rule: up -> L, down -> R).

All 2x2 photon matrices are expressed in the circular {R, L} computational
basis.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .cavity import CavityParams, ParameterError, reflection_coefficient
from .frozen import Frozen
from .qstate import (
    KET_H,
    KET_M45,
    KET_P45,
    KET_V,
    PureState,
    QubitKind,
    QubitLabel,
    _split,
    apply_diagonal_pair,
    apply_unitary,
)

SQ2 = math.sqrt(2.0)


class IdealGate(Frozen):
    """Gate mode: perfect pi/2 conditional phase, no loss."""

    coefficients = (complex(np.exp(1j * math.pi / 2)), 1.0 + 0.0j)


class RealisticGate(Frozen):
    """Gate mode: reflection coefficients evaluated from cavity parameters.

    ``params`` fields and ``omega`` may be arrays: a batch of gates, one per
    element, evaluated in one array call.
    """

    def __init__(self, params: CavityParams, omega: float):
        self.__dict__.update(params=params, omega=omega)

    @cached_property
    def coefficients(self) -> tuple:
        """The (coupled, uncoupled) reflection coefficients at ``omega``;
        ParameterError unless every one is finite."""
        with np.errstate(all="ignore"):  # extreme values are refused just below
            r = tuple(reflection_coefficient(self.params, self.omega, coupled=c)
                      for c in (True, False))
        bad = np.array(r)[~np.isfinite(r)]
        if bad.size:
            raise ParameterError(f"the realistic gate's reflection coefficient "
                                 f"{complex(bad[0])!r} is not finite", field="coefficients")
        return r


GateMode = IdealGate | RealisticGate


class ConditionalReflectionGate(Frozen):
    """Conditional reflection acting on one (photon, spin) pair."""

    def __init__(self, photon: QubitLabel, spin: QubitLabel, coeff_coupled: complex,
                 coeff_uncoupled: complex):
        self.__dict__.update(photon=photon, spin=spin, coeff_coupled=coeff_coupled,
                             coeff_uncoupled=coeff_uncoupled)


def make_gate(photon: QubitLabel, spin: QubitLabel, mode: GateMode) -> ConditionalReflectionGate:
    return ConditionalReflectionGate(photon, spin, *mode.coefficients)


def apply_gate(state, gate: ConditionalReflectionGate):
    return apply_diagonal_pair(state, gate.photon, gate.spin,
                               gate.coeff_coupled, gate.coeff_uncoupled)


# --- single-qubit unitaries ------------------------------------------------

def hadamard() -> np.ndarray:
    """Standard Hadamard: |0> -> (|0>+|1>)/sqrt2, involutive."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / SQ2


def circular_to_z() -> np.ndarray:
    """Maps (|0>+i|1>)/sqrt2 to |0> and (|0>-i|1>)/sqrt2 to |1>.

    As a spin pulse this reads out the circular superpositions left behind by
    a pi/2 conditional phase; equals hadamard() @ diag(1, -i). As a
    polarization rotation it sends |+45> to |R> and |-45> to |L>.
    """
    return np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / SQ2


# --- trion emission ---------------------------------------------------------

def trion_emission_map(state: PureState, spin: QubitLabel,
                       new_photon: QubitLabel) -> PureState:
    """Relabel a spin qubit as a photon qubit via the emission selection rule.

    up -> L and down -> R; coefficients are untouched, so the map is an
    isometric relabeling.
    """
    if spin.kind is not QubitKind.SPIN:
        raise ValueError(f"{spin} is not a spin qubit")
    if new_photon.kind is not QubitKind.PHOTON:
        raise ValueError(f"{new_photon} is not a photon label")
    # up (index 0) becomes L (index 1): swap the basis index of this qubit
    arr = np.flip(_split(state, spin), axis=-2)
    # a new_photon already present is refused by PureState
    register = tuple(new_photon if q == spin else q for q in state.register)
    return PureState(register, arr.reshape(state.amplitudes.shape), state.norm_tracking)


# --- feed-forward corrections ----------------------------------------------

# Feed-forward correction unitaries, keyed by (scheme, branch). Scheme "C"
# (photon-to-spin, branch = photon outcome "H" or "V") acts on the spin,
# mapping alpha|up> +- i beta|down> to alpha|up> + beta|down>. Scheme "D"
# (spin-to-photon, branch = spin readout "up" or "down") acts on the output
# photon, mapping alpha|+45> +- i beta|-45> to alpha|H> + beta|V>.
_CORRECTIONS = {
    ("C", "H"): np.diag([1.0, -1.0j]),
    ("C", "V"): np.diag([1.0, 1.0j]),
    ("D", "up"): np.outer(KET_H, KET_P45.conj()) - 1j * np.outer(KET_V, KET_M45.conj()),
    ("D", "down"): np.outer(KET_H, KET_P45.conj()) + 1j * np.outer(KET_V, KET_M45.conj()),
}


def apply_correction(state, target: QubitLabel, branch: str, scheme: str):
    return apply_unitary(state, target, _CORRECTIONS[scheme, branch])
