"""Single-qubit constructors for the step-by-step reference runs in the tests.

The package builds its states whole and has no use for them; the tests build
the inputs of the register step engine (``qstate.tensor``, ``measure``,
``gates.apply_gate`` and the rest) from these.
"""
import math

import numpy as np

from spinphoton import qstate as qs

_SQ2 = math.sqrt(2.0)

_NAMED_KETS = {
    qs.QubitKind.PHOTON: {
        "R": qs.KET_R, "L": qs.KET_L, "H": qs.KET_H, "V": qs.KET_V,
        "+45": qs.KET_P45, "-45": qs.KET_M45,
    },
    qs.QubitKind.SPIN: {
        "up": qs.KET_UP, "down": qs.KET_DOWN, "+x": qs.KET_XP, "-x": qs.KET_XM,
    },
}


def qubit_state(label: qs.QubitLabel, alpha: complex, beta: complex) -> qs.PureState:
    """Single-qubit state alpha|0> + beta|1> in the label's own basis."""
    return qs.PureState((label,), np.array([alpha, beta], dtype=np.complex128))


def ket_state(label: qs.QubitLabel, name: str) -> qs.PureState:
    """Single-qubit state named in the label's kind, e.g. "H" or "+x"."""
    try:
        return qs.PureState((label,), _NAMED_KETS[label.kind][name])
    except KeyError:
        raise ValueError(f"no state named {name!r} for a {label.kind.value} qubit")


def hadamard() -> np.ndarray:
    """Standard Hadamard: |0> -> (|0>+|1>)/sqrt2, involutive."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQ2
