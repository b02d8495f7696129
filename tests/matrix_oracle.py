"""Independent dense-matrix machinery for cross-checking the state engine.

Everything here composes explicit 2^n x 2^n operators with np.kron and plain
reshapes, deliberately avoiding the tensor-axis code paths used inside the
package, so agreement between the two routes is a real consistency check.
"""
import math
from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
SQH = 1.0 / math.sqrt(2.0)

KET = {
    "R": np.array([1, 0], dtype=complex),
    "L": np.array([0, 1], dtype=complex),
    "H": np.array([SQH, SQH], dtype=complex),
    "V": np.array([SQH, -SQH], dtype=complex),
    "+45": np.array([SQH, 1j * SQH], dtype=complex),
    "-45": np.array([SQH, -1j * SQH], dtype=complex),
    "up": np.array([1, 0], dtype=complex),
    "down": np.array([0, 1], dtype=complex),
}


def kron_all(mats):
    return reduce(np.kron, mats)


def embed(u, pos, n):
    """Single-qubit operator at register position ``pos`` (position 0 is the
    most significant bit)."""
    return kron_all([u if k == pos else I2 for k in range(n)])


def diag_pair_matrix(n, photon_pos, spin_pos, cc, cu):
    """Full matrix of the conditional-reflection gate, built by bit arithmetic."""
    dim = 2 ** n
    d = np.empty(dim, dtype=complex)
    for idx in range(dim):
        pb = (idx >> (n - 1 - photon_pos)) & 1
        sb = (idx >> (n - 1 - spin_pos)) & 1
        d[idx] = cc if pb != sb else cu
    return np.diag(d)


def projector(ket, pos, n):
    return embed(np.outer(ket, ket.conj()), pos, n)


def extract_qubit(psi, pos, n, ket):
    """Contract <ket| onto position ``pos``; returns the (n-1)-qubit vector."""
    pre = 2 ** pos
    post = 2 ** (n - 1 - pos)
    block = psi.reshape(pre, 2, post)
    out = ket.conj()[0] * block[:, 0, :] + ket.conj()[1] * block[:, 1, :]
    return out.reshape(-1)


def branch(psi, pos, n, ket):
    """Projection probability and renormalized remaining state."""
    rest = extract_qubit(psi, pos, n, ket)
    p = float(np.vdot(rest, rest).real)
    if p > 0:
        rest = rest / math.sqrt(p)
    return p, rest


def conjugate(u, rho):
    return u @ rho @ u.conj().T


def dephase(rho, pos, n, t_over_t2):
    """One waiting interval of pure spin dephasing as the dense Kraus sum
    (1 - q) rho + q Z rho Z, with q = (1 - exp(-t/T2)) / 2."""
    q = (1.0 - math.exp(-t_over_t2)) / 2.0
    return (1.0 - q) * rho + q * conjugate(embed(Z, pos, n), rho)


def branch_rho(rho, pos, n, ket):
    """Density-matrix version of ``branch``: <ket| at ``pos`` is the explicit
    2^(n-1) x 2^n operator I x <ket| x I."""
    bra = kron_all([np.eye(2 ** pos), ket.conj()[None, :], np.eye(2 ** (n - 1 - pos))])
    rest = conjugate(bra, rho)
    p = float(np.trace(rest).real)
    if p > 0:
        rest = rest / p
    return p, rest


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQH
RY90 = np.array([[1, -1], [1, 1]], dtype=complex) * SQH
CIRC_TO_Z = np.array([[1, -1j], [1, 1j]], dtype=complex) * SQH
TO_45 = CIRC_TO_Z
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)

CORR_C = {"H": np.diag([1, -1j]).astype(complex), "V": np.diag([1, 1j]).astype(complex)}
CORR_D = {
    "up": np.outer(KET["H"], KET["+45"].conj()) - 1j * np.outer(KET["V"], KET["-45"].conj()),
    "down": np.outer(KET["H"], KET["+45"].conj()) + 1j * np.outer(KET["V"], KET["-45"].conj()),
}


def mirrored(mat):
    """``mat`` as the engine keeps a mixture (``qstate.make_hermitian``): its
    strict lower triangle, that triangle's conjugate mirrored into the upper
    one, and the real part of its diagonal, over the trailing two axes."""
    dim = mat.shape[-1]
    upper = np.triu(np.ones((dim, dim), dtype=bool), 1)
    out = np.where(upper, np.swapaxes(mat, -1, -2).conj(), mat)
    out[..., range(dim), range(dim)] = np.diagonal(mat, 0, -2, -1).real
    return out
