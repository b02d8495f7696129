"""Hand-built reference states, and the closed-form empty-cavity phase, used
as independent oracles in the tests.

Everything here is constructed directly from the protocol algebra (writing
out which amplitude picks up the conditional phase i), never through the
package's gate machinery, so tests comparing against these vectors check the
implementation against an independent derivation.

Index conventions match the engine: photon R=0/L=1, spin up=0/down=1, first
register entry is the most significant bit.
"""
import math

import numpy as np

SQH = 1.0 / math.sqrt(2.0)


def cold_phase_closed_form(params, omega: float) -> float:
    """Closed-form empty-cavity reflection phase, phi0 = +-pi + 2 arctan(2 (omega
    - omega_c) / kappa), on the '+pi' branch at and below resonance."""
    d = omega - params.omega_c
    base = 2.0 * math.atan(2.0 * d / params.kappa)
    return (math.pi if d <= 0 else -math.pi) + base


def rand_amp_pair(rng):
    """Random normalized complex (alpha, beta)."""
    v = rng.normal(size=4)
    a = complex(v[0], v[1])
    b = complex(v[2], v[3])
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / n, b / n


def double_reflection_state(a1, b1, a2, b2):
    """Joint state of (photon1, photon2, spin) after both photons pick up a
    pi/2 conditional phase against a spin prepared (|up>+|down>)/sqrt2.

    Derivation: the coupled combinations (L,up) and (R,down) each gain i, so
    the up sector carries i per L photon and the down sector i per R photon.
    Grouping terms gives
        (up - down)(a1 a2 RR - b1 b2 LL) + i (up + down)(a1 b2 RL + a2 b1 LR)
    times the 1/sqrt2 spin normalization.
    """
    out = np.zeros(8, dtype=complex)

    def put(p1, p2, s, amp):
        out[p1 * 4 + p2 * 2 + s] += amp

    put(0, 0, 0, a1 * a2 * SQH)
    put(0, 0, 1, -a1 * a2 * SQH)
    put(1, 1, 0, -b1 * b2 * SQH)
    put(1, 1, 1, b1 * b2 * SQH)
    put(0, 1, 0, 1j * a1 * b2 * SQH)
    put(0, 1, 1, 1j * a1 * b2 * SQH)
    put(1, 0, 0, 1j * a2 * b1 * SQH)
    put(1, 0, 1, 1j * a2 * b1 * SQH)
    return out


def three_photon_readout_state(a1, b1, a2, b2):
    """State of (photon1, photon2, photon3, spin) after the readout photon
    (prepared |H>) has also reflected, following the pi/2-pulse that maps
    (up-down)/sqrt2 -> up.

    The correlated-pair component rides with (R3 + i L3) and spin up, the
    anticorrelated one with -(R3 - i L3) and spin down; normalized.
    """
    out = np.zeros(16, dtype=complex)

    def put(p1, p2, p3, s, amp):
        out[p1 * 8 + p2 * 4 + p3 * 2 + s] += amp

    # (R3 + i L3) |up> phi, phi = a1 a2 RR - b1 b2 LL
    for (p1, p2), c in (((0, 0), a1 * a2), ((1, 1), -b1 * b2)):
        put(p1, p2, 0, 0, c)
        put(p1, p2, 1, 0, 1j * c)
    # -(R3 - i L3) |down> psi, psi = a1 b2 RL + a2 b1 LR
    for (p1, p2), c in (((0, 1), a1 * b2), ((1, 0), a2 * b1)):
        put(p1, p2, 0, 1, -c)
        put(p1, p2, 1, 1, 1j * c)
    return out / np.linalg.norm(out)


def spin_pair_correlated(a1, b1, a2, b2):
    """a1 a2 |up,up> - b1 b2 |down,down>, normalized (None if degenerate)."""
    v = np.array([a1 * a2, 0, 0, -b1 * b2], dtype=complex)
    n = np.linalg.norm(v)
    return None if n < 1e-15 else v / n


def spin_pair_anticorrelated(a1, b1, a2, b2):
    """a1 b2 |up,down> + a2 b1 |down,up>, normalized (None if degenerate)."""
    v = np.array([0, a1 * b2, a2 * b1, 0], dtype=complex)
    n = np.linalg.norm(v)
    return None if n < 1e-15 else v / n


def photon_pair_emitted_correlated(a1, b1, a2, b2):
    """Emission image of the correlated spin pair: a1 a2 |LL> - b1 b2 |RR>."""
    v = np.array([-b1 * b2, 0, 0, a1 * a2], dtype=complex)
    n = np.linalg.norm(v)
    return None if n < 1e-15 else v / n


def photon_pair_emitted_anticorrelated(a1, b1, a2, b2):
    """Emission image of the anticorrelated spin pair: a1 b2 |LR> + a2 b1 |RL>."""
    v = np.array([0, a2 * b1, a1 * b2, 0], dtype=complex)
    n = np.linalg.norm(v)
    return None if n < 1e-15 else v / n


def photon_pair_correlated(a1, b1, a2, b2):
    """a1 a2 |RR> - b1 b2 |LL>, normalized (None if degenerate)."""
    return spin_pair_correlated(a1, b1, a2, b2)  # same index layout


def photon_pair_anticorrelated(a1, b1, a2, b2):
    """a1 b2 |RL> + a2 b1 |LR>, normalized (None if degenerate)."""
    return spin_pair_anticorrelated(a1, b1, a2, b2)
