"""Labeled qubit registers: the state types, their scores and a dense
state-vector step engine. No protocol runs the steps (``tensor``,
``apply_unitary``, ``measure`` and the rest) and the package does not export
them: they stay for the benchmark's per-layer tracer, which wraps them by
name, and as the tests' step-by-step reference.

Basis conventions, fixed once and relied on everywhere:

* photon polarization qubits: index 0 = |R> (right circular), index 1 = |L>;
  derived states |H> = (|R>+|L>)/sqrt2, |V> = (|R>-|L>)/sqrt2,
  |+45> = (|R>+i|L>)/sqrt2, |-45> = (|R>-i|L>)/sqrt2.
* electron spin qubits: index 0 = |up>, index 1 = |down>.

States are immutable values (``frozen.Frozen`` records, as are labels and
measurement outcomes); every operation returns a new state. Registers
are capped at 8 qubits. Trace-decreasing maps (partial reflection, projection)
keep the amplitudes unnormalized and accumulate the survival probability in
``norm_tracking``, so post-selection probabilities can always be read from one
place.

The first label of a register is the most significant bit of the basis
index. ``_split`` is the view of that layout the one-qubit steps read: the
amplitudes as a ``(*batch, 2**k, 2, 2**(n-1-k))`` array around the qubit at
position k, read by ``apply_unitary``, ``measure``, ``drop_qubit`` and the
trion emission map. Two places read the same order their own way: ``_bits``
as a per-index bit mask (the photon-spin parity of ``apply_diagonal_pair``,
the sign of ``dephase_spin``), and ``partial_trace``, which keeps any subset
of qubits, as per-qubit axes of the density matrix. Every step acts on one
qubit (a 2x2 unitary, a measurement) or on one photon-spin pair.

Circuits evolve kets only. Density operators describe results: mixtures of
pure runs, reduced states (``partial_trace``) and the dephasing channel
(``dephase_spin``), scored by ``fidelity`` and normalized by ``normalize``.

A state may carry leading batch axes: amplitudes of shape ``(*batch, 2**n)``
(a matrix of shape ``(*batch, 2**n, 2**n)``) and ``norm_tracking`` of shape
``batch``, one independent state per batch element. The operations act on the
trailing axes and broadcast over the batch, so an unbatched state is simply
the batch of shape ``()`` and runs the same code. Every reduction is a sum over
the last axis, which numpy evaluates identically for each element whatever
the batch size, so a batch element equals the unbatched run bit for bit. A
batch element of zero norm is carried as a dead element (zero amplitudes,
``norm_tracking`` 0). ``measure`` treats a state whose every element is zero
(a run that lost its photon) the same way; ``normalize`` and ``drop_qubit``
refuse one.
"""
from __future__ import annotations

import functools
import itertools
import math
from enum import Enum

import numpy as np

from .frozen import Frozen

MAX_QUBITS = 8
ATOL = 1e-12

_SQ2 = math.sqrt(2.0)


class QubitKind(Enum):
    PHOTON = "photon"
    SPIN = "spin"


class QubitLabel(Frozen):
    """One qubit in a register: a kind plus a small id unique within the register.
    Labels are equal when both fields are, and hash as ``(kind, id)``."""

    def __init__(self, kind: QubitKind, id: int):
        self.__dict__.update(kind=kind, id=id)

    def __eq__(self, other):
        if other.__class__ is not QubitLabel:
            return NotImplemented
        return (self.kind, self.id) == (other.kind, other.id)

    def __hash__(self) -> int:
        return hash((self.kind, self.id))

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.id}"


def photon(qid: int) -> QubitLabel:
    return QubitLabel(QubitKind.PHOTON, qid)


def spin(qid: int) -> QubitLabel:
    return QubitLabel(QubitKind.SPIN, qid)


def _read_only(x) -> np.ndarray:
    """``x`` as a complex128 array nothing can write: ``x`` itself if it is a
    complex128 array read-only all the way down its ``base`` chain and laid out
    as its copy would be (contiguous), else a read-only copy."""
    base = x
    while type(base) is np.ndarray and not base.flags.writeable:
        base = base.base
    if base is None and x.dtype == np.complex128 and x.flags.forc:
        return x
    x = np.array(x, dtype=np.complex128)
    x.flags.writeable = False
    return x


KET_R = _read_only([1, 0])
KET_L = _read_only([0, 1])
KET_H = _read_only([1 / _SQ2, 1 / _SQ2])
KET_V = _read_only([1 / _SQ2, -1 / _SQ2])
KET_P45 = _read_only([1 / _SQ2, 1j / _SQ2])
KET_M45 = _read_only([1 / _SQ2, -1j / _SQ2])
KET_UP = _read_only([1, 0])
KET_DOWN = _read_only([0, 1])
KET_XP = _read_only([1 / _SQ2, 1 / _SQ2])
KET_XM = _read_only([1 / _SQ2, -1 / _SQ2])

# Measurement bases: ordered (outcome label, projection ket) pairs.
_BASES = {
    QubitKind.PHOTON: {
        "RL": (("R", KET_R), ("L", KET_L)),
        "HV": (("H", KET_H), ("V", KET_V)),
        "45": (("+45", KET_P45), ("-45", KET_M45)),
    },
    QubitKind.SPIN: {
        "updown": (("up", KET_UP), ("down", KET_DOWN)),
        "x": (("+x", KET_XP), ("-x", KET_XM)),
    },
}


def measurement_basis(kind: QubitKind, name: str):
    try:
        return _BASES[kind][name]
    except KeyError:
        valid = ", ".join(_BASES[kind])
        raise ValueError(
            f"unknown basis {name!r} for {kind.value} qubit (valid: {valid})"
        )


def _check_register(register) -> tuple[QubitLabel, ...]:
    reg = tuple(register)
    if len(set(reg)) != len(reg):
        dup = next(q for i, q in enumerate(reg) if q in reg[:i])
        raise ValueError(f"duplicate qubit: {dup} already present in register")
    if len(reg) > MAX_QUBITS:
        raise ValueError(f"register cap exceeded ({len(reg)} > {MAX_QUBITS} qubits)")
    return reg


def _norm2(v: np.ndarray):
    """Squared norm over the last axis, one value per batch element."""
    v = np.ascontiguousarray(v)
    return (v.real * v.real + v.imag * v.imag).sum(axis=-1)


def _nonzero(x):
    """``x`` with its non-positive entries replaced by 1, for dividing dead
    batch elements (whose numerators are zero too) without a 0/0."""
    return np.where(x > 0.0, x, 1.0)


def _batched(data: np.ndarray, core: int, nt: np.ndarray):
    """Bring ``data`` (``core`` trailing axes) and the array ``nt`` to one
    batch shape; norm_tracking is clipped to [0, 1], a numpy scalar when
    unbatched."""
    batch = data.shape[:data.ndim - core]
    if not batch and not nt.shape:
        return data, np.float64(min(max(float(nt), 0.0), 1.0))
    if nt.shape != batch:
        batch = np.broadcast_shapes(batch, nt.shape)
        data = _read_only(np.broadcast_to(data, batch + data.shape[data.ndim - core:]))
        nt = np.broadcast_to(nt, batch)
    nt = np.minimum(np.maximum(nt, 0.0), 1.0)
    if batch:
        nt.flags.writeable = False
    return data, nt


class PureState(Frozen):
    """Ket over an ordered register. First label is the most significant bit.

    ``norm_tracking`` is the probability of having reached this state, i.e. the
    product of all survival factors (lossy reflections, selected measurement
    branches) since preparation. A batch of kets has amplitudes of shape
    ``(*batch, 2**n)`` and ``norm_tracking`` of shape ``batch``.
    """

    def __init__(self, register: tuple[QubitLabel, ...], amplitudes: np.ndarray,
                 norm_tracking: float | np.ndarray = 1.0):
        self.__dict__.update(register=register, amplitudes=amplitudes,
                             norm_tracking=norm_tracking)
        self.__post_init__()

    def __post_init__(self):  # apart from __init__: bench/tracing.py wraps it to count builds
        reg = _check_register(self.register)
        amps = _read_only(self.amplitudes)
        if amps.ndim == 0 or amps.shape[-1] != 2 ** len(reg):
            raise ValueError(
                f"amplitude vector has length {amps.shape[-1] if amps.ndim else 1}, "
                f"expected {2 ** len(reg)}"
            )
        nt = np.asarray(self.norm_tracking, dtype=float)
        if not ((nt >= -1e-9) & (nt <= 1 + 1e-9)).all():
            raise ValueError("norm_tracking must lie in [0, 1]")
        amps, nt = _batched(amps, 1, nt)
        self.__dict__.update(register=reg, amplitudes=amps, norm_tracking=nt)

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.amplitudes.shape[:-1]

    def index_of(self, label: QubitLabel) -> int:
        try:
            return self.register.index(label)
        except ValueError:
            raise ValueError(f"qubit {label} not in register")

    def squared_norm(self):
        return _norm2(self.amplitudes)

    def basis_strings(self) -> list[str]:
        """Human-readable basis labels, e.g. 'RL' or 'Rd', index-aligned."""
        chars = [("R", "L") if q.kind is QubitKind.PHOTON else ("u", "d")
                 for q in self.register]
        return list(map("".join, itertools.product(*chars)))


class DensityState(Frozen):
    """Density operator over an ordered register, same basis ordering as
    PureState; a batch has a matrix of shape ``(*batch, 2**n, 2**n)``."""

    def __init__(self, register: tuple[QubitLabel, ...], matrix: np.ndarray,
                 norm_tracking: float | np.ndarray = 1.0):
        self.__dict__.update(register=register, matrix=matrix, norm_tracking=norm_tracking)
        self.__post_init__()

    def __post_init__(self):  # apart from __init__: bench/tracing.py wraps it to count builds
        reg = _check_register(self.register)
        dim = 2 ** len(reg)
        mat = _read_only(self.matrix)
        if mat.shape[-2:] != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(dim, dim)}")
        mat, nt = _batched(mat, 2, np.asarray(self.norm_tracking, dtype=float))
        self.__dict__.update(register=reg, matrix=mat, norm_tracking=nt)

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.matrix.shape[:-2]

    index_of = PureState.index_of  # reads only the register

    def trace(self):
        diag = np.ascontiguousarray(np.diagonal(self.matrix, 0, -2, -1).real)
        return diag.sum(axis=-1)

    def basis_strings(self) -> list[str]:
        return PureState.basis_strings(self)  # same register layout


class ProjectiveOutcome(Frozen):
    """One measurement branch: outcome label, probability, renormalized post state."""

    def __init__(self, label: str, probability: float, post_state: PureState | None):
        self.__dict__.update(label=label, probability=probability, post_state=post_state)


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; registers concatenate, norm_tracking multiplies.
    A label in both registers is refused by PureState's register check."""
    amps = a.amplitudes[..., :, None] * b.amplitudes[..., None, :]
    return PureState(
        a.register + b.register,
        amps.reshape(amps.shape[:-2] + (-1,)),
        a.norm_tracking * b.norm_tracking,
    )


def tensor_all(states) -> PureState:
    states = list(states)
    if not states:
        raise ValueError("tensor_all of empty sequence")
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


def to_density(state: PureState) -> DensityState:
    """Outer product |psi><psi|, carrying norm_tracking through."""
    if isinstance(state, DensityState):
        return state
    a = state.amplitudes
    return DensityState(state.register, a[..., :, None] * a.conj()[..., None, :],
                        state.norm_tracking)


def make_hermitian(mat: np.ndarray) -> np.ndarray:
    """``mat`` made exactly Hermitian over its trailing two axes, in place: the upper
    triangle becomes the ``np.conj`` of the lower one (which ``np.linalg.eigh``
    reads), and the diagonal's imaginary part +0.0."""
    upper, diagonal = _masks(mat.shape[-1])
    np.copyto(mat, np.conj(np.swapaxes(mat, -1, -2)), where=upper)
    np.copyto(mat.imag, 0.0, where=diagonal)
    return mat


@functools.cache  # one entry per matrix size; a register has at most MAX_QUBITS qubits
def _masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only boolean masks of an n x n matrix's strict upper triangle and diagonal."""
    masks = np.triu(np.ones((n, n), bool), 1), np.eye(n, dtype=bool)
    for m in masks:
        m.flags.writeable = False
    return masks


def _split(state: PureState, q: QubitLabel) -> np.ndarray:
    """The register layout: amplitudes as a ``(*batch, 2**k, 2, 2**(n-1-k))``
    view, qubit ``q`` (register position k) on the middle axis, the qubits
    before it (more significant) on the left axis, those after it on the right."""
    k = state.index_of(q)
    return state.amplitudes.reshape(state.batch_shape + (2 ** k, 2, 2 ** (state.n_qubits - 1 - k)))


def _bits(state, q: QubitLabel) -> np.ndarray:
    """The bit of qubit ``q`` in each basis index, first qubit most significant."""
    n = state.n_qubits
    return (np.arange(2 ** n) >> (n - 1 - state.index_of(q))) & 1


def apply_unitary(state: PureState, target: QubitLabel, matrix) -> PureState:
    """Apply a 2x2 unitary to one qubit; norm is preserved.

    The contraction is written out element by element (no BLAS call), so
    every batch element gets the same arithmetic.
    """
    arr = _split(state, target)
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.shape != (2, 2):
        raise ValueError(f"matrix shape {mat.shape} does not act on one qubit")
    if np.max(np.abs(mat.conj().T @ mat - np.eye(2))) > ATOL:
        raise ValueError("matrix is not unitary")
    out = arr[..., 0:1, :] * mat[:, 0, None] + arr[..., 1:2, :] * mat[:, 1, None]
    return PureState(state.register, out.reshape(state.amplitudes.shape), state.norm_tracking)


def apply_diagonal_pair(state: PureState, photon_q: QubitLabel, spin_q: QubitLabel,
                        coeff_coupled, coeff_uncoupled) -> PureState:
    """Multiply the |L,up> and |R,down> components by ``coeff_coupled`` and the
    |R,up> and |L,down> components by ``coeff_uncoupled``.

    This is the primitive behind the conditional-reflection gate; coefficients
    with modulus below 1 make the map trace-decreasing, which is recorded in
    norm_tracking. The coefficients may be arrays of one batch shape, one
    gate per batch element.
    """
    if photon_q.kind is not QubitKind.PHOTON:
        raise ValueError(f"{photon_q} is not a photon qubit")
    if spin_q.kind is not QubitKind.SPIN:
        raise ValueError(f"{spin_q} is not a spin qubit")
    # coupled combinations are (L,up) and (R,down): photon and spin bits differ
    coupled = _bits(state, photon_q) != _bits(state, spin_q)
    cc = np.asarray(coeff_coupled, dtype=np.complex128)[..., None]
    cu = np.asarray(coeff_uncoupled, dtype=np.complex128)[..., None]
    arr = state.amplitudes * np.where(coupled, cc, cu)
    ratio = _norm2(arr) / _nonzero(state.squared_norm())
    return PureState(state.register, arr, np.minimum(state.norm_tracking * ratio, 1.0))


def measure(state: PureState, target: QubitLabel, basis: str) -> list[ProjectiveOutcome]:
    """Enumerate every branch of a projective measurement (no sampling).

    The measured qubit leaves the register: each post state is over the
    remaining qubits, in order. Probabilities are absolute, i.e. not
    renormalized: they sum to the state's squared norm. Post states are
    renormalized, with norm_tracking scaled down by the conditional branch
    probability; a branch of probability zero keeps zero amplitudes and
    norm_tracking 0.
    """
    pairs = measurement_basis(target.kind, basis)
    total = state.squared_norm()
    arr = _split(state, target)
    a0, a1 = arr[..., 0, :], arr[..., 1, :]
    batch = state.batch_shape
    rest_reg = tuple(q for q in state.register if q != target)
    outcomes = []
    for label, ket in pairs:
        rest = (ket[0].conj() * a0 + ket[1].conj() * a1).reshape(batch + (-1,))
        p_raw = _norm2(rest)
        post = PureState(rest_reg, rest / np.sqrt(_nonzero(p_raw))[..., None],
                         state.norm_tracking * (p_raw / _nonzero(total)))
        outcomes.append(ProjectiveOutcome(label, p_raw, post))
    return outcomes


def sample_indices(probabilities, rng_seed, trials: int) -> np.ndarray:
    """Indices into ``probabilities`` (outcome probabilities, finite and
    nonnegative, summing to 1 up to 1e-9, else ValueError naming the broken
    rule) of ``trials`` seeded draws, from one ``rng.random(trials)`` call.

    A draw r picks the first outcome whose running probability sum exceeds
    r; a draw at or above the last sum (rounding) picks the last outcome. As
    the sums never decrease, that is the count of sums but the last at or
    below r: one comparison pass per sum, outcomes x trials in all.
    ``rng_seed`` may be an int seed or a numpy Generator (reused across calls
    to continue its sequence).
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.size == 0:
        raise ValueError("no outcomes to sample from")
    if not np.isfinite(probs).all():
        raise ValueError("outcome probabilities must be finite")
    if (probs < 0.0).any():
        raise ValueError("outcome probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("outcome probabilities must sum to 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    draws, picks = rng.random(trials), np.zeros(trials, dtype=np.intp)
    for bound in np.cumsum(probs)[:-1]:
        picks += bound <= draws
    return picks


def sample_outcome(outcomes, rng_seed) -> ProjectiveOutcome:
    """Draw one branch with a seeded generator; same seed, same draw sequence."""
    probabilities = [o.probability for o in outcomes]
    return outcomes[int(sample_indices(probabilities, rng_seed, 1)[0])]


def dephase_spin(rho: DensityState, target: QubitLabel, t_over_t2: float) -> DensityState:
    """Pure dephasing of one spin: off-diagonals in up/down decay by exp(-t/T2).

    Kraus pair {sqrt(1-q) I, sqrt(q) Z} with q = (1 - exp(-t/T2)) / 2.
    """
    if target.kind is not QubitKind.SPIN:
        raise ValueError(f"{target} is not a spin qubit")
    if t_over_t2 < 0:
        raise ValueError("negative dephasing time")
    if not isinstance(rho, DensityState):
        raise TypeError("dephase_spin acts on a DensityState")
    q = (1.0 - math.exp(-t_over_t2)) / 2.0
    z = 1.0 - 2.0 * _bits(rho, target)
    zz = np.outer(z, z)
    mat = (1.0 - q) * rho.matrix + q * (rho.matrix * zz)
    return DensityState(rho.register, mat, rho.norm_tracking)


def normalize(state):
    """Rescale amplitudes (or trace) to unit norm; norm_tracking is kept.
    Dead batch elements stay zero."""
    if isinstance(state, PureState):
        nrm = np.sqrt(state.squared_norm())
        if not (nrm > 0.0).any():
            raise ValueError("cannot normalize a zero state")
        return PureState(state.register, state.amplitudes / _nonzero(nrm)[..., None],
                         state.norm_tracking)
    tr = state.trace()
    if not (tr > 0.0).any():
        raise ValueError("cannot normalize a zero-trace state")
    return DensityState(state.register, state.matrix / _nonzero(tr)[..., None, None],
                        state.norm_tracking)


def fidelity(a, b):
    """State fidelity in [0, 1]; blind to global phase and input normalization.

    Supports (pure, pure) and (pure, density) in either order. Registers must
    match exactly (same labels, same order). A dead batch element scores 0.
    """
    if isinstance(a, DensityState) and isinstance(b, DensityState):
        raise TypeError("fidelity between two density states is not supported")
    if isinstance(a, DensityState):
        a, b = b, a
    if a.register != b.register:
        raise ValueError("fidelity requires identical registers")
    av = a.amplitudes / np.sqrt(_nonzero(a.squared_norm()))[..., None]
    if isinstance(b, PureState):
        bv = b.amplitudes / np.sqrt(_nonzero(b.squared_norm()))[..., None]
        f = np.abs((av.conj() * bv).sum(axis=-1))
        f = f * f
    else:
        rho = b.matrix / _nonzero(b.trace())[..., None, None]
        f = (av.conj() * (rho * av[..., None, :]).sum(axis=-1)).sum(axis=-1).real
    return np.clip(f, 0.0, 1.0)


def partial_trace(state, keep) -> DensityState:
    """Reduced density operator over ``keep`` (register order is preserved)."""
    rho = to_density(state) if isinstance(state, PureState) else state
    keep = set(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    for q in keep:
        rho.index_of(q)
    n = rho.n_qubits
    batch = rho.batch_shape
    drop_pos = [i for i, q in enumerate(rho.register) if q not in keep]
    arr = rho.matrix.reshape(batch + (2,) * (2 * n))
    m = n
    for d in sorted(drop_pos, reverse=True):  # descending keeps indices valid
        arr = np.trace(arr, axis1=len(batch) + d, axis2=len(batch) + d + m)
        m -= 1
    new_reg = tuple(q for q in rho.register if q in keep)
    k = len(new_reg)
    return DensityState(new_reg, arr.reshape(batch + (2 ** k, 2 ** k)), rho.norm_tracking)


def drop_qubit(state: PureState, label: QubitLabel) -> PureState:
    """Remove one qubit that is in a product state with the rest (checked)."""
    # arr[..., k, :] is the rest of the register with the dropped qubit in |k>
    arr = np.swapaxes(_split(state, label), -2, -3).reshape(state.batch_shape + (2, -1))
    total = np.sqrt(state.squared_norm())
    if not (total > 0.0).any():
        raise ValueError("cannot drop a qubit from a zero state")
    tol = 1e-9 * total
    new_reg = tuple(q for q in state.register if q != label)
    norms = np.sqrt(_norm2(arr))
    i = np.argmax(norms, axis=-1)[..., None]
    row = np.take_along_axis(arr, i[..., None], axis=-2)[..., 0, :]
    v = row / _nonzero(np.take_along_axis(norms, i, axis=-1))
    # both rows must be scalar multiples of v, else the qubit is entangled
    resid = arr - (arr * v.conj()[..., None, :]).sum(axis=-1)[..., None] * v[..., None, :]
    if (np.abs(resid).max(axis=(-2, -1)) > tol).any():
        raise ValueError(f"qubit {label} is entangled with the rest; cannot drop")
    return PureState(new_reg, v * total[..., None], state.norm_tracking)
