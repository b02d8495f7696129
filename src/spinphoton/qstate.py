"""Dense state-vector engine for small labeled qubit registers.

Basis conventions, fixed once and relied on everywhere:

* photon polarization qubits: index 0 = |R> (right circular), index 1 = |L>;
  derived states |H> = (|R>+|L>)/sqrt2, |V> = (|R>-|L>)/sqrt2,
  |+45> = (|R>+i|L>)/sqrt2, |-45> = (|R>-i|L>)/sqrt2.
* electron spin qubits: index 0 = |up>, index 1 = |down>.

States are immutable values; every operation returns a new state. Registers
are capped at 8 qubits. Trace-decreasing maps (partial reflection, projection)
keep the amplitudes unnormalized and accumulate the survival probability in
``norm_tracking``, so post-selection probabilities can always be read from one
place.

Circuits evolve kets only. Density operators describe results: mixtures of
pure runs, reduced states (``partial_trace``) and the dephasing channel
(``dephase_spin``), scored by ``fidelity`` and normalized by ``normalize``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

MAX_QUBITS = 8
ATOL = 1e-12

_SQ2 = math.sqrt(2.0)


class QubitKind(Enum):
    PHOTON = "photon"
    SPIN = "spin"


@dataclass(frozen=True, order=True)
class QubitLabel:
    """One qubit in a register: a kind plus a small id unique within the register."""

    kind: QubitKind
    id: int

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.id}"


def photon(qid: int) -> QubitLabel:
    return QubitLabel(QubitKind.PHOTON, qid)


def spin(qid: int) -> QubitLabel:
    return QubitLabel(QubitKind.SPIN, qid)


def _ket(a, b) -> np.ndarray:
    v = np.array([a, b], dtype=np.complex128)
    v.flags.writeable = False
    return v


KET_R = _ket(1, 0)
KET_L = _ket(0, 1)
KET_H = _ket(1 / _SQ2, 1 / _SQ2)
KET_V = _ket(1 / _SQ2, -1 / _SQ2)
KET_P45 = _ket(1 / _SQ2, 1j / _SQ2)
KET_M45 = _ket(1 / _SQ2, -1j / _SQ2)
KET_UP = _ket(1, 0)
KET_DOWN = _ket(0, 1)
KET_XP = _ket(1 / _SQ2, 1 / _SQ2)
KET_XM = _ket(1 / _SQ2, -1 / _SQ2)

_NAMED_KETS = {
    QubitKind.PHOTON: {
        "R": KET_R, "L": KET_L, "H": KET_H, "V": KET_V,
        "+45": KET_P45, "-45": KET_M45,
    },
    QubitKind.SPIN: {
        "up": KET_UP, "down": KET_DOWN, "+x": KET_XP, "-x": KET_XM,
    },
}

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


def basis_ket(label: QubitLabel, name: str) -> np.ndarray:
    """Length-2 amplitude vector of a named single-qubit basis state."""
    try:
        return _NAMED_KETS[label.kind][name].copy()
    except KeyError:
        raise ValueError(f"no state named {name!r} for a {label.kind.value} qubit")


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
        raise ValueError("duplicate qubit in register")
    if len(reg) > MAX_QUBITS:
        raise ValueError(f"register cap exceeded ({len(reg)} > {MAX_QUBITS} qubits)")
    return reg


@dataclass(frozen=True, eq=False)
class PureState:
    """Ket over an ordered register. First label is the most significant bit.

    ``norm_tracking`` is the probability of having reached this state, i.e. the
    product of all survival factors (lossy reflections, selected measurement
    branches) since preparation.
    """

    register: tuple[QubitLabel, ...]
    amplitudes: np.ndarray
    norm_tracking: float = 1.0

    def __post_init__(self):
        reg = _check_register(self.register)
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != 2 ** len(reg):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {2 ** len(reg)}"
            )
        amps.flags.writeable = False
        if not -1e-9 <= self.norm_tracking <= 1 + 1e-9:
            raise ValueError("norm_tracking must lie in [0, 1]")
        object.__setattr__(self, "register", reg)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_tracking", float(min(max(self.norm_tracking, 0.0), 1.0)))

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    def index_of(self, label: QubitLabel) -> int:
        try:
            return self.register.index(label)
        except ValueError:
            raise ValueError(f"qubit {label} not in register")

    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def basis_strings(self) -> list[str]:
        """Human-readable basis labels, e.g. 'RL' or 'Rd', index-aligned."""
        chars = [("R", "L") if q.kind is QubitKind.PHOTON else ("u", "d")
                 for q in self.register]
        n = self.n_qubits
        out = []
        for idx in range(2 ** n):
            bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
            out.append("".join(chars[k][b] for k, b in enumerate(bits)))
        return out


@dataclass(frozen=True, eq=False)
class DensityState:
    """Density operator over an ordered register, same basis ordering as PureState."""

    register: tuple[QubitLabel, ...]
    matrix: np.ndarray
    norm_tracking: float = 1.0

    def __post_init__(self):
        reg = _check_register(self.register)
        dim = 2 ** len(reg)
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(dim, dim)}")
        mat.flags.writeable = False
        object.__setattr__(self, "register", reg)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "norm_tracking", float(min(max(self.norm_tracking, 0.0), 1.0)))

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    def index_of(self, label: QubitLabel) -> int:
        try:
            return self.register.index(label)
        except ValueError:
            raise ValueError(f"qubit {label} not in register")

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def basis_strings(self) -> list[str]:
        return PureState.basis_strings(self)  # same register layout


@dataclass(frozen=True)
class ProjectiveOutcome:
    """One measurement branch: outcome label, probability, renormalized post state."""

    label: str
    probability: float
    post_state: PureState | None


def qubit_state(label: QubitLabel, alpha: complex, beta: complex) -> PureState:
    """Single-qubit state alpha|0> + beta|1> in the label's own basis."""
    return PureState((label,), np.array([alpha, beta], dtype=np.complex128))


def ket_state(label: QubitLabel, name: str) -> PureState:
    return PureState((label,), basis_ket(label, name))


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; registers concatenate, norm_tracking multiplies."""
    if set(a.register) & set(b.register):
        raise ValueError("duplicate qubit")
    return PureState(
        a.register + b.register,
        np.kron(a.amplitudes, b.amplitudes),
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
    return DensityState(
        state.register,
        np.outer(state.amplitudes, state.amplitudes.conj()),
        state.norm_tracking,
    )


def _check_unitary(matrix: np.ndarray, k: int) -> np.ndarray:
    mat = np.asarray(matrix, dtype=np.complex128)
    dim = 2 ** k
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} does not act on {k} qubit(s)")
    if np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) > ATOL:
        raise ValueError("matrix is not unitary")
    return mat


def _apply_on_axes(arr: np.ndarray, mat: np.ndarray, axes: list[int]) -> np.ndarray:
    """Contract a 2^k x 2^k matrix into the given tensor axes of arr."""
    k = len(axes)
    mk = mat.reshape((2,) * (2 * k))
    out = np.tensordot(mk, arr, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def apply_unitary(state: PureState, targets, matrix) -> PureState:
    """Apply a small unitary to the target qubits; norm is preserved."""
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("repeated target qubit")
    pos = [state.index_of(t) for t in targets]
    mat = _check_unitary(matrix, len(targets))
    arr = state.amplitudes.reshape((2,) * state.n_qubits)
    arr = _apply_on_axes(arr, mat, pos)
    return PureState(state.register, arr.reshape(-1), state.norm_tracking)


def apply_diagonal_pair(state: PureState, photon_q: QubitLabel, spin_q: QubitLabel,
                        coeff_coupled: complex, coeff_uncoupled: complex) -> PureState:
    """Multiply the |L,up> and |R,down> components by ``coeff_coupled`` and the
    |R,up> and |L,down> components by ``coeff_uncoupled``.

    This is the primitive behind the conditional-reflection gate; coefficients
    with modulus below 1 make the map trace-decreasing, which is recorded in
    norm_tracking.
    """
    if photon_q.kind is not QubitKind.PHOTON:
        raise ValueError(f"{photon_q} is not a photon qubit")
    if spin_q.kind is not QubitKind.SPIN:
        raise ValueError(f"{spin_q} is not a spin qubit")
    p = state.index_of(photon_q)
    s = state.index_of(spin_q)
    n = state.n_qubits
    # coupled combinations are (L,up) and (R,down): photon and spin bits differ
    f = np.array([[coeff_uncoupled, coeff_coupled],
                  [coeff_coupled, coeff_uncoupled]], dtype=np.complex128)
    shape = [1] * n
    shape[p] = 2
    shape[s] = 2
    f_nd = f.reshape(shape)  # f is symmetric, so axis order does not matter

    before = state.squared_norm()
    arr = state.amplitudes.reshape((2,) * n) * f_nd
    arr = arr.reshape(-1)
    after = float(np.vdot(arr, arr).real)
    nt = state.norm_tracking * (after / before) if before > 0 else 0.0
    return PureState(state.register, arr, min(nt, 1.0))


def _pure_branch(state: PureState, pos: int, ket: np.ndarray):
    """Raw branch probability and unrenormalized projected amplitudes."""
    n = state.n_qubits
    arr = state.amplitudes.reshape((2,) * n)
    rest = np.tensordot(ket.conj(), arr, axes=([0], [pos]))
    p_raw = float(np.vdot(rest, rest).real)
    proj = np.multiply.outer(ket, rest)
    proj = np.moveaxis(proj, 0, pos)
    return p_raw, proj.reshape(-1)


def measure(state: PureState, target: QubitLabel, basis: str) -> list[ProjectiveOutcome]:
    """Enumerate every branch of a projective measurement (no sampling).

    Probabilities are absolute, i.e. not renormalized: they sum to the state's
    squared norm. Post states are renormalized, with norm_tracking scaled down
    by the conditional branch probability.
    """
    pos = state.index_of(target)
    pairs = measurement_basis(target.kind, basis)
    total = state.squared_norm()
    if total <= 0.0:
        raise ValueError("cannot measure a zero-norm state")
    outcomes = []
    for label, ket in pairs:
        p_raw, proj = _pure_branch(state, pos, ket)
        if p_raw > 0.0:
            post = PureState(state.register, proj / math.sqrt(p_raw),
                             state.norm_tracking * (p_raw / total))
        else:
            post = PureState(state.register, proj, 0.0)
        outcomes.append(ProjectiveOutcome(label, p_raw, post))
    return outcomes


def sample_outcome(outcomes, rng_seed) -> ProjectiveOutcome:
    """Draw one branch with a seeded generator; same seed, same draw sequence.

    ``rng_seed`` may be an int seed or a numpy Generator (reused across calls
    to continue its sequence).
    """
    if not outcomes:
        raise ValueError("no outcomes to sample from")
    probs = np.array([o.probability for o in outcomes], dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("outcome probabilities must sum to 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    r = rng.random()
    acc = 0.0
    for o, p in zip(outcomes, probs):
        acc += p
        if r < acc:
            return o
    return outcomes[-1]


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
    pos = rho.index_of(target)
    n = rho.n_qubits
    lam = math.exp(-t_over_t2)
    q = (1.0 - lam) / 2.0
    z = np.ones((2,) * n)
    sl = [slice(None)] * n
    sl[pos] = 1
    z[tuple(sl)] = -1.0
    z = z.reshape(-1)
    zz = np.outer(z, z)
    mat = (1.0 - q) * rho.matrix + q * (rho.matrix * zz)
    return DensityState(rho.register, mat, rho.norm_tracking)


def normalize(state):
    """Rescale amplitudes (or trace) to unit norm; norm_tracking is kept."""
    if isinstance(state, PureState):
        nrm = math.sqrt(state.squared_norm())
        if nrm <= 0.0:
            raise ValueError("cannot normalize a zero state")
        return PureState(state.register, state.amplitudes / nrm, state.norm_tracking)
    tr = state.trace()
    if tr <= 0.0:
        raise ValueError("cannot normalize a zero-trace state")
    return DensityState(state.register, state.matrix / tr, state.norm_tracking)


def fidelity(a, b) -> float:
    """State fidelity in [0, 1]; blind to global phase and input normalization.

    Supports (pure, pure) and (pure, density) in either order. Registers must
    match exactly (same labels, same order).
    """
    if isinstance(a, DensityState) and isinstance(b, DensityState):
        raise TypeError("fidelity between two density states is not supported")
    if isinstance(a, DensityState):
        a, b = b, a
    if a.register != b.register:
        raise ValueError("fidelity requires identical registers")
    av = a.amplitudes / math.sqrt(a.squared_norm())
    if isinstance(b, PureState):
        bv = b.amplitudes / math.sqrt(b.squared_norm())
        f = abs(np.vdot(av, bv)) ** 2
    else:
        rho = b.matrix / b.trace()
        f = float(np.vdot(av, rho @ av).real)
    return float(min(max(f, 0.0), 1.0))


def partial_trace(state, keep) -> DensityState:
    """Reduced density operator over ``keep`` (register order is preserved)."""
    rho = to_density(state) if isinstance(state, PureState) else state
    keep = set(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    for q in keep:
        rho.index_of(q)
    n = rho.n_qubits
    drop_pos = [i for i, q in enumerate(rho.register) if q not in keep]
    arr = rho.matrix.reshape((2,) * (2 * n))
    m = n
    for d in sorted(drop_pos, reverse=True):  # descending keeps indices valid
        arr = np.trace(arr, axis1=d, axis2=d + m)
        m -= 1
    new_reg = tuple(q for q in rho.register if q in keep)
    k = len(new_reg)
    return DensityState(new_reg, arr.reshape(2 ** k, 2 ** k), rho.norm_tracking)


def drop_qubit(state: PureState, label: QubitLabel, onto=None) -> PureState:
    """Remove one qubit that is in a product state with the rest.

    The qubit must factorize (checked). When ``onto`` gives the qubit's known
    single-qubit state (e.g. the ket it was just projected onto), the
    remainder is extracted by exact contraction, which also pins the otherwise
    conventional split of the global phase.
    """
    pos = state.index_of(label)
    n = state.n_qubits
    arr = np.moveaxis(state.amplitudes.reshape((2,) * n), pos, 0).reshape(2, -1)
    total = math.sqrt(state.squared_norm())
    if total <= 0.0:
        raise ValueError("cannot drop a qubit from a zero state")
    new_reg = tuple(q for q in state.register if q != label)

    if onto is not None:
        ket = np.asarray(onto, dtype=np.complex128).reshape(2)
        ket = ket / np.linalg.norm(ket)
        rest = ket.conj() @ arr
        if np.max(np.abs(arr - np.outer(ket, rest))) > 1e-9 * total:
            raise ValueError(f"qubit {label} is not in the given state; cannot drop")
        return PureState(new_reg, rest, state.norm_tracking)

    norms = np.linalg.norm(arr, axis=1)
    i = int(np.argmax(norms))
    v = arr[i] / norms[i]
    # both rows must be scalar multiples of v, else the qubit is entangled
    resid = arr - np.outer(arr @ v.conj(), v)
    if np.max(np.abs(resid)) > 1e-9 * total:
        raise ValueError(f"qubit {label} is entangled with the rest; cannot drop")
    return PureState(new_reg, v * total, state.norm_tracking)
