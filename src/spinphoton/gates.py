"""Register-level operations built from the cavity physics.

The central object is the conditional-reflection gate: one photon bounces off
the cavity and the coupled polarization-spin combinations |L,up> and |R,down>
pick up the hot-cavity reflection amplitude while the uncoupled combinations
pick up the cold one. In the ideal limit that is a pure pi/2 conditional phase
(coupled coefficient i, uncoupled coefficient 1, the common cold phase dropped
as an unobservable global factor). Each gate mode carries its (coupled,
uncoupled) coefficient pair, evaluated once per mode.

Also here: the polarization and spin unitaries the protocols need (Hadamard,
pi/2 spin pulses, the feed-forward correction unitaries) and the
trion-emission map that converts a stored spin qubit into a flying
polarization qubit (selection rule: up -> L, down -> R).

All 2x2 photon matrices are expressed in the circular {R, L} computational
basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cavity import CavityParams, reflection_coefficient
from .qstate import (
    KET_H,
    KET_M45,
    KET_P45,
    KET_V,
    PureState,
    QubitKind,
    QubitLabel,
    apply_diagonal_pair,
    apply_unitary,
)

SQ2 = math.sqrt(2.0)


@dataclass(frozen=True)
class IdealGate:
    """Gate mode: perfect pi/2 conditional phase, no loss."""

    coefficients = (complex(np.exp(1j * math.pi / 2)), 1.0 + 0.0j)


@dataclass(frozen=True)
class RealisticGate:
    """Gate mode: reflection coefficients evaluated from cavity parameters.

    ``params`` fields and ``omega`` may be arrays: a batch of gates, one per
    element, evaluated in one array call.
    """

    params: CavityParams
    omega: float

    @cached_property
    def coefficients(self) -> tuple:
        """The (coupled, uncoupled) reflection coefficients at ``omega``."""
        return (reflection_coefficient(self.params, self.omega, coupled=True),
                reflection_coefficient(self.params, self.omega, coupled=False))


GateMode = IdealGate | RealisticGate


@dataclass(frozen=True)
class ConditionalReflectionGate:
    """Conditional reflection acting on one (photon, spin) pair."""

    photon: QubitLabel
    spin: QubitLabel
    coeff_coupled: complex
    coeff_uncoupled: complex

    def matrix(self) -> np.ndarray:
        """4x4 matrix in the {R,L} x {up,down} product basis (photon first)."""
        u, c = self.coeff_uncoupled, self.coeff_coupled
        return np.diag(np.array([u, c, c, u], dtype=np.complex128))


def make_gate(photon: QubitLabel, spin: QubitLabel, mode: GateMode) -> ConditionalReflectionGate:
    return ConditionalReflectionGate(photon, spin, *mode.coefficients)


def apply_gate(state, gate: ConditionalReflectionGate):
    return apply_diagonal_pair(state, gate.photon, gate.spin,
                               gate.coeff_coupled, gate.coeff_uncoupled)


# --- single-qubit unitaries ------------------------------------------------

def hadamard() -> np.ndarray:
    """Standard Hadamard: |0> -> (|0>+|1>)/sqrt2, involutive."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / SQ2


def phase_gate(phi: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=np.complex128)


def ry(theta: float) -> np.ndarray:
    """Rotation about y. ry(pi/2) sends (|0>-|1>)/sqrt2 to |0>, (|0>+|1>)/sqrt2 to |1>."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def circular_to_z() -> np.ndarray:
    """Maps (|0>+i|1>)/sqrt2 to |0> and (|0>-i|1>)/sqrt2 to |1>.

    As a spin pulse this reads out the circular superpositions left behind by
    a pi/2 conditional phase; equals hadamard() @ phase_gate(-pi/2). As a
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
    pos = state.index_of(spin)
    if new_photon in state.register:
        raise ValueError(f"label {new_photon} already present in register")
    register = tuple(new_photon if i == pos else q
                     for i, q in enumerate(state.register))
    # up (index 0) becomes L (index 1): swap the basis index at this position
    amps = state.amplitudes
    arr = np.flip(amps.reshape(amps.shape[:-1] + (2,) * state.n_qubits),
                  axis=amps.ndim - 1 + pos)
    return PureState(register, arr.reshape(amps.shape), state.norm_tracking)


# --- feed-forward corrections ----------------------------------------------

def correction_unitary(branch: str, scheme: str) -> np.ndarray:
    """Unitary that maps a detection branch's conditioned state onto the
    canonical transfer target.

    Scheme "C" (photon-to-spin, branch = photon outcome "H" or "V"): acts on
    the spin, mapping alpha|up> +- i beta|down> to alpha|up> + beta|down>.

    Scheme "D" (spin-to-photon, branch = spin readout "up" or "down"): acts on
    the output photon, mapping alpha|+45> +- i beta|-45> to alpha|H> + beta|V>.
    """
    if scheme == "C":
        if branch == "H":
            return np.diag([1.0, -1.0j]).astype(np.complex128)
        if branch == "V":
            return np.diag([1.0, 1.0j]).astype(np.complex128)
        raise ValueError(f"unknown scheme C branch {branch!r}")
    if scheme == "D":
        if branch == "up":
            return np.outer(KET_H, KET_P45.conj()) - 1j * np.outer(KET_V, KET_M45.conj())
        if branch == "down":
            return np.outer(KET_H, KET_P45.conj()) + 1j * np.outer(KET_V, KET_M45.conj())
        raise ValueError(f"unknown scheme D branch {branch!r}")
    raise ValueError(f"unknown scheme {scheme!r} (use 'C' or 'D')")


def apply_correction(state, target: QubitLabel, branch: str, scheme: str):
    return apply_unitary(state, [target], correction_unitary(branch, scheme))
