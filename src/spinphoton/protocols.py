"""The four entanglement and state-transfer protocols.

Every protocol is deterministic: it enumerates all post-selection branches
with exact probabilities and canonical output states, never sampling.
Branch probabilities are absolute (they include reflection losses), so they
sum to the run's survival probability, which is 1 with the ideal gate.

Protocols that read the spin out via an ancilla photon report the joint
(detection, spin) outcome in the branch label, e.g. "+45/up", so that in
realistic mode the imperfect readout correlation can be attributed. With the
ideal gate the mismatched combinations carry exactly zero probability.

Waiting intervals enter only through pure dephasing of the stored spin
(``t_over_t2`` per interval), the Kraus pair {sqrt(1-q) I, sqrt(q) Z} with
q = (1 - exp(-t/T2)) / 2. Z on the spin commutes with the reflection gate,
which is diagonal in the spin basis whether lossy or not, so the intervals up
to the next non-diagonal spin operation merge into one channel, and a dephased
run is exactly the weighted mixture of pure trajectories (1-q, psi) and
(q, Z psi): two per dephased spin, four for scheme A. The trajectories sit on
a leading axis of one state, in front of the batch axes (an undephased run has
one), so each later step runs once over all of them. A branch's probability is
the weighted sum over trajectories, and only its kept register is turned into
a density matrix. A branch state is a DensityState exactly when the run
applied dephasing (t_over_t2 > 0), and a PureState otherwise.

A config may be batched: ``t_over_t2``, or the cavity fields and probe
frequency of a realistic gate, given as arrays of one batch shape. The drivers
then run the whole batch in one pass over batched states (see ``qstate``):
each per-run decision (a branch below the probability floor, a zero branch, a
NaN score, a trajectory left out of a mixture) is a per-element mask, so each
batch element equals the unbatched run at its parameters bit for bit. An
unbatched config is the batch of shape ``()``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .cavity import CavityParams
from .gates import (
    GateMode,
    IdealGate,
    RealisticGate,
    apply_correction,
    apply_gate,
    circular_to_z,
    hadamard,
    make_gate,
    ry,
    trion_emission_map,
)
from .metrics import concurrence
from .qstate import (
    DensityState,
    ProjectiveOutcome,
    PureState,
    QubitLabel,
    apply_unitary,
    fidelity,
    ket_state,
    measure,
    photon,
    qubit_state,
    spin,
    tensor,
    tensor_all,
    to_density,
    unstack,
)

SQH = 1.0 / math.sqrt(2.0)

# Branches below this probability are numerical residue of exactly-forbidden
# outcomes; they are reported with zero states instead of renormalized noise.
PROBABILITY_FLOOR = 1e-24


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs shared by all protocols.

    ``alpha1/beta1`` describe photon 1 (or the unknown input qubit in the
    transfer schemes), ``alpha2/beta2`` photon 2 / spin 2. Each pair must be
    finite and normalized. ``t_over_t2`` is the dephasing exponent applied to
    a stored spin per waiting interval; it must be finite and nonnegative. An
    array of ``t_over_t2`` values is a batch, and is either all zero or all
    positive, so that every element has the same output type.
    """

    gate: GateMode = IdealGate()
    alpha1: complex = SQH
    beta1: complex = SQH
    alpha2: complex = SQH
    beta2: complex = SQH
    t_over_t2: float | np.ndarray = 0.0

    def __post_init__(self):
        for name_a, name_b, a, b in (
            ("alpha1", "beta1", self.alpha1, self.beta1),
            ("alpha2", "beta2", self.alpha2, self.beta2),
        ):
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
                raise ValueError(f"{name_a}/{name_b} must be finite, got {a!r}, {b!r}")
            if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
                raise ValueError(f"{name_a}/{name_b} are not normalized")
        t = np.asarray(self.t_over_t2, dtype=float)
        bad = ~(np.isfinite(t) & (t >= 0))
        if bad.any():
            raise ValueError(
                f"t_over_t2 must be finite and nonnegative, got {float(t[bad].flat[0])!r}")
        if (t > 0).any() and not (t > 0).all():
            raise ValueError("a batch of t_over_t2 values must be all zero or all positive")

    @cached_property
    def dephased(self) -> bool:
        """Whether the run applies dephasing (branch states are then DensityStates)."""
        return bool((np.asarray(self.t_over_t2) > 0).any())

    @cached_property
    def batch_shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(np.shape(self.t_over_t2),
                                   *map(np.shape, self.gate.coefficients))


@dataclass(frozen=True)
class ProtocolBranch:
    """One post-selection branch with its quality metrics."""

    label: str
    probability: float
    state: PureState | DensityState
    target: PureState | None
    fidelity_vs_target: float
    concurrence: float | None

    @property
    def success_probability(self) -> float:
        """Probability that the run ends in this branch (same as ``probability``)."""
        return self.probability


@dataclass(frozen=True)
class ProtocolResult:
    protocol: str
    branches: tuple[ProtocolBranch, ...]

    def survival_probability(self) -> float:
        return float(sum(b.probability for b in self.branches))

    def branch(self, label: str) -> ProtocolBranch:
        for b in self.branches:
            if b.label == label:
                return b
        raise KeyError(f"no branch labeled {label!r}")


@dataclass(frozen=True)
class ProtocolBatch:
    """The runs of a batched config: one ProtocolResult per batch element, in
    C order."""

    protocol: str
    results: tuple[ProtocolResult, ...]

    @property
    def branches(self) -> tuple[ProtocolBranch, ...]:
        """Every branch of every element, element by element: the flat form of
        ``ProtocolResult.branches``."""
        return tuple(b for r in self.results for b in r.branches)


def _target_state(register, amplitudes) -> PureState | None:
    vec = np.asarray(amplitudes, dtype=np.complex128)
    nrm = np.linalg.norm(vec)
    if nrm < 1e-15:
        return None
    return PureState(tuple(register), vec / nrm)


_PAULI_Z = np.diag([1.0, -1.0]).astype(np.complex128)


# --- weighted pure trajectories ----------------------------------------------

def _trajectories(psi: PureState, batch, spins=(), t_over_t2=0.0):
    """Unravel the dephasing of each of ``spins`` over a total ``t_over_t2``
    into weighted pure trajectories on a leading axis of one state: (w, psi),
    w of shape (trajectories, *batch), psi's batch axes aligned to ``batch``
    (length 1 where they do not vary). One trajectory of weight 1, then each
    spin splits every (w, psi) into (w (1-q), psi) and (w q, Z psi), in order.
    """
    lead = (1,) * (1 + len(batch) - len(psi.batch_shape))
    w = np.ones((1,) + batch)
    psi = PureState(psi.register, psi.amplitudes.reshape(lead + psi.amplitudes.shape),
                    np.reshape(psi.norm_tracking, lead + psi.batch_shape))
    t = np.asarray(t_over_t2, dtype=float)
    if not (t > 0.0).any():
        return w, psi
    q = (1.0 - np.exp(-t)) / 2.0

    def twins(x, z):  # each entry of x followed by its twin in z
        return np.stack([x, z], axis=1).reshape((-1,) + x.shape[1:])

    for s in spins:
        z = apply_unitary(psi, [s], _PAULI_Z)
        w = twins(w * (1.0 - q), w * q)
        psi = PureState(psi.register, twins(psi.amplitudes, z.amplitudes),
                        twins(psi.norm_tracking, z.norm_tracking))
    return w, psi


def _keep(state: PureState, mask) -> PureState:
    """``state`` with the batch elements outside ``mask`` set to zero."""
    if mask.all():
        return state
    return PureState(state.register, np.where(mask[..., None], state.amplitudes, 0.0),
                     np.where(mask, state.norm_tracking, 0.0))


def _leaf(label, w, post, kept, dephased: bool, batch, correct=None):
    """Close one measurement leaf over the ``kept`` register.

    ``w`` and ``post`` are the stacked trajectories' weights and post states
    (see ``_trajectories``); ``post`` is None when no trajectory reaches the
    leaf, and is over ``kept`` after the optional ``correct``. Returns (label,
    probability, state): probability sum_k w_k p_k of the run's ``batch``
    shape, p_k each trajectory's norm_tracking, and for a dephased run the
    state sum_k w_k p_k |psi_k><psi_k| / p, else the one trajectory's state.
    Elements at or below the floor get probability 0 and a zero state, and
    trajectories below the floor add to the probability but not to the state.
    """
    zero = np.zeros(batch)
    empty = np.zeros(batch + (2 ** len(kept),) * (1 + dephased), dtype=np.complex128)
    # summed in trajectory order, starting from zero, as are the mixture's terms
    prob = zero if post is None else reduce(np.add, w * post.norm_tracking, zero)
    alive = prob > PROBABILITY_FLOOR
    if not alive.any():
        return label, zero, (DensityState if dephased else PureState)(tuple(kept), empty, zero)
    own = post.norm_tracking > PROBABILITY_FLOOR
    post = _keep(post, own)
    if correct is not None:
        post = correct(post)
    prob = np.where(alive, prob, 0.0)
    if not dephased:
        return label, prob, PureState(post.register, post.amplitudes[0],
                                      post.norm_tracking[0])
    scale = np.where(prob > 0.0, prob, 1.0)
    coef = np.where(alive & own, w * post.norm_tracking / scale, 0.0)
    mat = reduce(np.add, (c[..., None, None] * (a[..., :, None] * a.conj()[..., None, :])
                          for c, a in zip(coef, post.amplitudes)), empty)
    return label, prob, DensityState(tuple(kept), mat, prob)


def gfr_spin_readout(state: PureState, spin_q: QubitLabel, ancilla_photon: QubitLabel,
                     gate: GateMode = IdealGate()) -> list[ProjectiveOutcome]:
    """Read a spin out with a fresh |H> ancilla photon; the spin survives.

    Returns both +-45 detection branches; with the ideal gate the +45 branch
    projects the spin onto |up> and the -45 branch onto |down>. The measured
    ancilla leaves the register, and a branch below the probability floor
    gets a zero post state.
    """
    full = tensor(state, ket_state(ancilla_photon, "H"))
    full = apply_gate(full, make_gate(ancilla_photon, spin_q, gate))
    return [replace(o, post_state=_keep(o.post_state,
                                        o.post_state.norm_tracking > PROBABILITY_FLOOR))
            for o in measure(full, ancilla_photon, "45")]


def _readout(w, psi: PureState, spin_q: QubitLabel, ancilla: QubitLabel, kept,
             config: ProtocolConfig, announce=None, correct=None):
    """The spin-readout tail of the trajectories (w, psi): ``gfr_spin_readout``
    with a fresh ``ancilla``, then the spin measured in up/down, then the
    optional ``correct(state, announced)``. Returns one (label, probability,
    state) leaf per joint outcome, labeled "announced/spin", where ``announce``
    renames the detection outcome (default: the outcome itself).
    """
    leaves = []
    for o in gfr_spin_readout(psi, spin_q, ancilla, config.gate):
        post = o.post_state
        posts = ({m.label: m.post_state for m in measure(post, spin_q, "updown")}
                 if (post.norm_tracking > 0.0).any() else {})
        announced = (announce or {}).get(o.label, o.label)
        fix = None if correct is None else (lambda st, a=announced: correct(st, a))
        for sl in ("up", "down"):
            leaves.append(_leaf(f"{announced}/{sl}", w, posts.get(sl), kept,
                                config.dephased, config.batch_shape, fix))
    return leaves


def _branch(label, prob, state, target):
    """Score one leaf against its target: (label, probability, state, target,
    fidelity, concurrence), batched like the leaf. Elements of probability
    zero score NaN; concurrence is None unless the state has two qubits."""
    two = state.n_qubits == 2
    alive = prob > 0.0
    fid = conc = np.full(np.shape(prob), math.nan)
    if alive.any():
        if target is not None:
            fid = np.where(alive, fidelity(target, state), math.nan)
        if two:
            conc = np.where(alive, concurrence(state), math.nan)
    return label, prob, state, target, fid, conc if two else None


def _result(name: str, config: ProtocolConfig, scored):
    """Unstack scored leaves (see ``_branch``) into one ProtocolResult per
    batch element: the result itself for an unbatched config, else a
    ProtocolBatch."""
    batch = config.batch_shape

    def flat(x):
        x = np.asarray(x)
        return (x if x.shape == batch else np.broadcast_to(x, batch)).reshape(-1).tolist()

    columns = [(label, flat(prob), unstack(state, batch), target, flat(fid),
                None if conc is None else flat(conc))
               for label, prob, state, target, fid, conc in scored]
    results = tuple(
        ProtocolResult(name, tuple(
            ProtocolBranch(label, p[i], states[i], target, f[i], None if c is None else c[i])
            for label, p, states, target, f, c in columns))
        for i in range(math.prod(batch)))
    return ProtocolBatch(name, results) if batch else results[0]


# --- scheme A: photon pairs via remote entangled spins ----------------------

def _spin_pair_leaves(config: ProtocolConfig, second_cavity: CavityParams | None):
    """Scheme A's heralded spin pairs: the (label, probability, state) leaves
    and their targets."""
    s1, s2, probe = spin(1), spin(2), photon(0)
    mode2 = config.gate
    if second_cavity is not None:
        if not isinstance(config.gate, RealisticGate):
            raise ValueError("a second cavity needs a realistic gate configuration")
        mode2 = RealisticGate(second_cavity, config.gate.omega)

    state = tensor_all([
        qubit_state(s1, config.alpha1, config.beta1),
        qubit_state(s2, config.alpha2, config.beta2),
        ket_state(probe, "H"),
    ])
    state = apply_gate(state, make_gate(probe, s1, config.gate))
    state = apply_gate(state, make_gate(probe, s2, mode2))

    a1, b1, a2, b2 = config.alpha1, config.beta1, config.alpha2, config.beta2
    targets = {
        "V": _target_state((s1, s2), [a1 * a2, 0, 0, -b1 * b2]),
        "H": _target_state((s1, s2), [0, a1 * b2, a2 * b1, 0]),
    }
    w, state = _trajectories(state, config.batch_shape)
    leaves = [_leaf(o.label, w, o.post_state, (s1, s2), False, config.batch_shape)
              for o in measure(state, probe, "HV")]
    return leaves, targets


def scheme_a_entangle_spins(config: ProtocolConfig,
                            second_cavity: CavityParams | None = None):
    """Entangle two remote spins with one linearly polarized probe photon.

    The |H> probe reflects off cavity 1 then cavity 2 and is detected in the
    H/V basis. The V click heralds alpha1 alpha2 |up,up> - beta1 beta2
    |down,down>; the H click heralds alpha1 beta2 |up,down> + alpha2 beta1
    |down,up| (up to a global phase).
    """
    leaves, targets = _spin_pair_leaves(config, second_cavity)
    return _result("scheme-a-spins", config,
                   [_branch(*leaf, targets[leaf[0]]) for leaf in leaves])


def _emit_pairs(spin_pairs, config: ProtocolConfig):
    """Scored emission branches from (label, spin-pair state) pairs."""
    s1, s2 = spin(1), spin(2)
    p1, p2 = photon(1), photon(2)
    a1, b1, a2, b2 = config.alpha1, config.beta1, config.alpha2, config.beta2
    targets = {
        "V": _target_state((p1, p2), [-b1 * b2, 0, 0, a1 * a2]),
        "H": _target_state((p1, p2), [0, a2 * b1, a1 * b2, 0]),
    }

    def emit(st):
        return trion_emission_map(trion_emission_map(st, s1, p1), s2, p2)

    def leaf(label, state):
        w, psi = _trajectories(state, config.batch_shape, (s1, s2), config.t_over_t2)
        return _leaf(label, w, psi, (p1, p2), config.dephased, config.batch_shape, emit)

    return [_branch(*leaf(label, state), targets[label]) for label, state in spin_pairs]


def scheme_a_emit(entangled: ProtocolResult, config: ProtocolConfig):
    """Convert each heralded spin pair into a polarization-entangled photon pair.

    Optional dephasing (one emission interval per spin) is applied first, then
    the emission relabeling up -> L, down -> R on both spins. ``entangled`` is
    the result of one run; a batched config goes through
    ``scheme_a_photon_pairs``.
    """
    if isinstance(entangled, ProtocolBatch):
        raise ValueError("scheme_a_emit takes the result of one run; "
                         "for a batched config use scheme_a_photon_pairs")
    return _result("scheme-a", config,
                   _emit_pairs([(b.label, b.state) for b in entangled.branches], config))


def scheme_a_photon_pairs(config: ProtocolConfig,
                          second_cavity: CavityParams | None = None):
    """Full scheme A: spin-spin entanglement followed by emission."""
    leaves, _ = _spin_pair_leaves(config, second_cavity)
    return _result("scheme-a", config,
                   _emit_pairs([(label, st) for label, _, st in leaves], config))


# --- scheme B and its multi-photon chain -------------------------------------

def _chain_leaves(config: ProtocolConfig, n: int):
    """Reflect photons 1..n off one spin, then read the spin out with ancilla
    photon n+1; returns the (label, probability, kept photons' state) leaves.

    For n = 2 (scheme B) the branch states are already the canonical pairs.
    For n >= 3 they are product states in the +-45 basis pair, so
    deterministic feed-forward plates (a +-45 -> R/L rotation on every photon
    plus one phase plate on photon 1) bring them to canonical form.
    """
    photons = [photon(i) for i in range(1, n + 1)]
    s = spin(1)
    pairs = {1: (config.alpha1, config.beta1), 2: (config.alpha2, config.beta2)}
    state = tensor_all(
        [qubit_state(p, *pairs.get(i + 1, (SQH, SQH))) for i, p in enumerate(photons)]
        + [ket_state(s, "+x")]
    )
    for p in photons:
        state = apply_gate(state, make_gate(p, s, config.gate))
    # one waiting interval after each photon, merged ahead of the pi/2 pulse;
    # the pulse sends (up-down)/sqrt2 -> up, so the correlated-pair branch
    # reads out as spin-up / +45
    w, state = _trajectories(state, config.batch_shape, [s], n * config.t_over_t2)
    state = apply_unitary(state, [s], ry(math.pi / 2))

    phase_fix = np.diag([1.0, (-1j) ** n]).astype(np.complex128)

    def plates(st, _announced):
        for p in photons:
            st = apply_unitary(st, [p], circular_to_z())
        return apply_unitary(st, [photons[0]], phase_fix)

    return _readout(w, state, s, photon(n + 1), photons, config,
                    correct=plates if n > 2 else None)


def _chain_targets(config: ProtocolConfig, n: int):
    """The chain's branch targets in closed form, keyed by detection outcome.

    The ideal chain leaves A = (x)_k (a_k|R> + i b_k|L>) with the spin up and
    B = i^n (x)_k (a_k|R> - i b_k|L>) with it down, (a_k, b_k) being the
    configured pairs and |H> for k >= 3; the pulse sends A - B to the +45
    readout and A + B to -45, and for n >= 3 the plates act on every factor.
    No engine operation is used, so the targets score the engine independently.
    """
    pairs = [(config.alpha1, config.beta1), (config.alpha2, config.beta2)]
    pairs += [(SQH, SQH)] * (n - 2)
    plates = [np.eye(2)] * n
    if n > 2:
        plates = [np.diag([1.0, (-1j) ** n]) @ circular_to_z()] + [circular_to_z()] * (n - 1)
    # Kronecker products of the per-photon factors, photon 1 most significant
    a = reduce(np.multiply.outer, [u @ [x, 1j * y] for u, (x, y) in zip(plates, pairs)])
    b = 1j ** n * reduce(np.multiply.outer, [u @ [x, -1j * y] for u, (x, y) in zip(plates, pairs)])
    photons = [photon(i) for i in range(1, n + 1)]
    return {"+45": _target_state(photons, (a - b).ravel()),
            "-45": _target_state(photons, (a + b).ravel())}


def _chain(name: str, config: ProtocolConfig, n: int):
    """The n-photon chain, each branch scored against ``_chain_targets``."""
    targets = _chain_targets(config, n)
    return _result(name, config, [_branch(label, p, st, targets[label.split("/")[0]])
                                  for label, p, st in _chain_leaves(config, n)])


def scheme_b_entangle_photons(config: ProtocolConfig):
    """Entangle two photons through successive reflections off one spin.

    Photons 1 and 2 reflect in sequence, a pi/2 spin pulse rotates the two
    interference branches onto |up>/|down>, and ancilla photon 3 (prepared
    |H>) reads the spin out through its Faraday-rotated polarization. A +45
    click projects onto the correlated pair alpha1 alpha2 |RR> - beta1 beta2
    |LL> with the spin in |up>; a -45 click onto alpha1 beta2 |RL> + alpha2
    beta1 |LR> with the spin in |down>. The spin is measured afterwards so the
    result carries the joint (photon-3, spin) distribution.
    """
    return _chain("scheme-b", config, 2)


def chain_multiphoton(config: ProtocolConfig, n_photons: int):
    """Entangle ``n_photons`` photons against one spin (scheme B generalized).

    Photons 1 and 2 carry the configured amplitudes, photons 3..n enter as
    |H>. For n = 2 this is exactly scheme B. For n >= 3 the feed-forward wave
    plates bring the branch states to canonical form; with uniform inputs the
    +45 branch is then (|R...R> - |L...L>)/sqrt2. Targets are closed-form
    (``_chain_targets``).
    """
    if not 2 <= n_photons <= 6:
        raise ValueError("register overflow: n_photons must be in [2, 6]")
    return _chain("ghz", config, n_photons)


# --- scheme C: photon state onto the spin ------------------------------------

def transfer_photon_to_spin(config: ProtocolConfig):
    """Write an unknown photon polarization state onto the spin.

    The photon (alpha1|R> + beta1|L>) reflects once, the PBS projects it in
    the H/V basis, a pi/2 spin pulse maps the conditioned circular spin
    superpositions onto the poles, and a branch-dependent phase correction
    leaves alpha1|up> + beta1|down> in both branches.
    """
    ph, s = photon(1), spin(1)
    state = tensor(qubit_state(ph, config.alpha1, config.beta1), ket_state(s, "+x"))
    state = apply_gate(state, make_gate(ph, s, config.gate))

    target = _target_state((s,), [config.alpha1, config.beta1])
    w, state = _trajectories(state, config.batch_shape)
    branches = []
    for o in measure(state, ph, "HV"):
        def correct(st, label=o.label):
            return apply_correction(apply_unitary(st, [s], circular_to_z()), s, label, "C")
        leaf = _leaf(o.label, w, o.post_state, (s,), False, config.batch_shape, correct)
        branches.append(_branch(*leaf, target))
    return _result("transfer-ps", config, branches)


# --- scheme D: spin state onto a photon --------------------------------------

def transfer_spin_to_photon(config: ProtocolConfig):
    """Write an unknown spin state onto a fresh photon.

    Photon 1 (prepared |H>) reflects off the cavity holding the spin
    alpha1|up> + beta1|down>, a Hadamard pulse rotates the spin, and ancilla
    photon 3 performs the non-demolition spin readout. Wave-plate corrections
    keyed on the announced readout turn both branches into alpha1|H> +
    beta1|V>. Branch labels are "readout/actual" spin outcomes.
    """
    p1, s = photon(1), spin(1)
    state = tensor(ket_state(p1, "H"), qubit_state(s, config.alpha1, config.beta1))
    state = apply_gate(state, make_gate(p1, s, config.gate))
    w, state = _trajectories(state, config.batch_shape, [s], config.t_over_t2)
    state = apply_unitary(state, [s], hadamard())

    a, b = config.alpha1, config.beta1
    target = _target_state((p1,), [(a + b) * SQH, (a - b) * SQH])  # alpha|H> + beta|V>
    leaves = _readout(w, state, s, photon(3), (p1,), config,
                      announce={"+45": "up", "-45": "down"},
                      correct=lambda st, announced: apply_correction(st, p1, announced, "D"))
    return _result("transfer-sp", config, [_branch(*leaf, target) for leaf in leaves])


# --- dispatch and branch merging ---------------------------------------------

PROTOCOL_NAMES = ("scheme-a", "scheme-b", "transfer-ps", "transfer-sp", "ghz")


def run_protocol(name: str, config: ProtocolConfig, n_photons: int = 3):
    """Run one protocol: a ProtocolResult, or for a batched config a
    ProtocolBatch with one result per element."""
    if name == "scheme-a":
        return scheme_a_photon_pairs(config)
    if name == "scheme-b":
        return scheme_b_entangle_photons(config)
    if name == "transfer-ps":
        return transfer_photon_to_spin(config)
    if name == "transfer-sp":
        return transfer_spin_to_photon(config)
    if name == "ghz":
        return chain_multiphoton(config, n_photons)
    raise ValueError(f"unknown protocol {name!r} (valid: {', '.join(PROTOCOL_NAMES)})")


@dataclass(frozen=True)
class MergedBranch:
    probability: float
    state: PureState | DensityState | None
    fidelity_vs_target: float


def merged_detection_branch(result: ProtocolResult, detection: str) -> MergedBranch:
    """Combine all branches sharing a detection outcome (label prefix).

    A protocol heralded only on the photon detection delivers the mixture of
    the joint branches; this is the honest conditional state when the spin
    outcome is not used. ``result`` is the result of one run.
    """
    if isinstance(result, ProtocolBatch):
        raise ValueError("merged_detection_branch takes the result of one run")
    picked = [b for b in result.branches
              if b.label == detection or b.label.startswith(detection + "/")]
    if not picked:
        raise KeyError(f"no branch labeled {detection!r}")
    live = [b for b in picked if b.probability > 0.0]
    p_tot = sum(b.probability for b in live)
    if not live or p_tot <= 0.0:
        return MergedBranch(0.0, None, math.nan)
    target = next((b.target for b in live if b.target is not None), None)
    if len(live) == 1:
        st = live[0].state
        fid = fidelity(target, st) if target is not None else math.nan
        return MergedBranch(p_tot, st, fid)
    reg = live[0].state.register
    dim = 2 ** len(reg)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for b in live:
        rho = to_density(b.state) if isinstance(b.state, PureState) else b.state
        mat += (b.probability / p_tot) * (rho.matrix / max(rho.trace(), 1e-300))
    mixed = DensityState(reg, mat, min(p_tot, 1.0))
    fid = fidelity(target, mixed) if target is not None else math.nan
    return MergedBranch(p_tot, mixed, fid)
