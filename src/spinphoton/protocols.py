"""The five entanglement and state-transfer protocols.

Every protocol is deterministic: it enumerates all post-selection branches
with exact probabilities and canonical output states, never sampling.
Branch probabilities are absolute (they include reflection losses), so they
sum to the run's survival probability, which is 1 with the ideal gate.
Protocols that read the spin out via an ancilla photon label a branch with
the joint (detection, spin) outcome, e.g. "+45/up", so that in realistic mode
the imperfect readout correlation can be attributed; with the ideal gate the
mismatched combinations carry exactly zero probability.

Waiting intervals enter only through pure dephasing of the stored spin
(``t_over_t2`` per interval), the Kraus pair {sqrt(1-q) I, sqrt(q) Z} with
q = (1 - exp(-t/T2)) / 2. Z on the spin commutes with the reflection gate,
which is diagonal in the spin basis whether lossy or not, so the intervals up
to the next non-diagonal spin operation merge into one channel, and a dephased
run is exactly the weighted mixture of pure trajectories (1-q, psi) and
(q, Z psi). A branch's probability is the weighted sum over trajectories, and
its state is a DensityState exactly when t_over_t2 > 0.
No protocol steps a ``qstate`` register: the gate multiplies each photon's R
and L parts by its coupled or uncoupled coefficient, picked by the spin, so a
branch ket is a sum over spin configurations of per-photon factors, written
out from the gate's (c, u) and the inputs (Z on a spin is a sign, a readout
photon one more factor, the emission a relabeling, a pulse or correction on a
kept qubit a 2x2 matrix). The trajectories' kets are stacked on a leading
axis. Every branch has one lifecycle: a run keeps its trajectories' unit kets
and probabilities as arrays (``_post``; for scheme-b and ghz, the one-spin
chain, two photon product states scored in O(n) by ``_chain``) and scores its
probability (``_floored``); ``_leaf`` builds its state on first read, and
alone drops a state below the probability floor. So a run builds no branch
state but scheme-a's two spin pairs, which its emission reads, and no target.
A dephased chain mixes one matrix per spin outcome: a -45 leaf's trajectories
are its +45 partner's times one factor, which cancels from the mixture, so
``_leaf`` hands it the partner's matrix bit for bit.

A config may be batched: ``t_over_t2``, or the cavity fields and probe
frequency of a realistic gate, given as arrays of one batch shape. The whole
batch then runs in one pass; each per-run decision (a branch below the
probability floor, a zero branch, a NaN score, a trajectory left out of a
mixture) is a per-element mask, so each batch element equals the unbatched
run at its parameters bit for bit. An unbatched config is the batch of shape
``()``: every run returns one ProtocolResult of per-label columns, whose
branch states, targets, fidelities and concurrences, and per-element branches,
are built only when read (the chain scores its fidelities with its
probabilities).
"""
from __future__ import annotations

import cmath
import math
from functools import cache, cached_property, partial, reduce

import numpy as np

from .cavity import CavityParams, ParameterError, check_field
from .frozen import Frozen
from .gates import _CORRECTIONS, GateMode, IdealGate, RealisticGate, circular_to_z
from .metrics import concurrence
from .qstate import (
    DensityState,
    PureState,
    fidelity,
    _nonzero,
    _norm2,
    make_hermitian,
    photon,
    spin,
    to_density,
)

SQH = 1.0 / math.sqrt(2.0)

# Branches below this probability are numerical residue of exactly-forbidden
# outcomes; they are reported with zero states instead of renormalized noise.
PROBABILITY_FLOOR = 1e-24


class ProtocolConfig(Frozen):
    """Inputs shared by all protocols.

    ``alpha1/beta1`` describe photon 1 (or the unknown input qubit in the
    transfer schemes), ``alpha2/beta2`` photon 2 / spin 2. Each pair must be
    finite and normalized. ``t_over_t2`` is the dephasing exponent applied to
    a stored spin per waiting interval; it must be finite and nonnegative. An
    array of ``t_over_t2`` values is a batch, and is either all zero or all
    positive, so that every element has the same output type. A broken rule
    raises ParameterError naming ``t_over_t2`` or the pair (``"alpha1/beta1"``).
    """

    def __init__(self, gate: GateMode = IdealGate(), alpha1: complex = SQH,
                 beta1: complex = SQH, alpha2: complex = SQH, beta2: complex = SQH,
                 t_over_t2: float | np.ndarray = 0.0):
        self.__dict__.update(gate=gate, alpha1=alpha1, beta1=beta1, alpha2=alpha2, beta2=beta2,
                             t_over_t2=t_over_t2)
        for pair in ("alpha1/beta1", "alpha2/beta2"):
            a, b = (getattr(self, name) for name in pair.split("/"))
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
                raise ParameterError(f"{pair} must be finite, got {a!r}, {b!r}", field=pair)
            if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
                raise ParameterError(f"{pair} are not normalized", field=pair)
        for rule in ("finite", "nonnegative"):
            check_field("t_over_t2", self.t_over_t2, rule)
        positive = np.asarray(self.t_over_t2) > 0
        if positive.any() and not positive.all():
            raise ParameterError("t_over_t2 must be all zero or all positive in a batch",
                                 field="t_over_t2")

    @cached_property
    def batch_shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(np.shape(self.t_over_t2),
                                   *map(np.shape, self.gate.coefficients))


class ProtocolBranch(Frozen):
    """One post-selection branch of one batch element with its quality metrics:
    a view of the run's columns for demos and tests, which no CLI writer reads."""

    def __init__(self, label: str, probability: float, state: PureState | DensityState,
                 target: PureState | None, fidelity_vs_target: float,
                 concurrence: float | None):
        self.__dict__.update(label=label, probability=probability, state=state, target=target,
                             fidelity_vs_target=fidelity_vs_target, concurrence=concurrence)


class BranchColumn:
    """One branch label across a run's batch: its label and a flat list (C
    order) of probability; and, each built on its first read, its batched
    ``state``, its ``target`` and flat lists of fidelity and concurrence.

    ``probability`` comes as an array over the batch, scored by the run.
    ``build`` closes the state (``_leaf`` on the run's arrays) and ``target``
    makes the target. A fidelity the run scored already (the chain's) comes as
    a flat list ``fidelity``; else it is the state's against the target, or NaN
    without a target. Concurrence is None unless the state is a qubit ``pair``.
    Scores are NaN where the probability is 0. The CLI writes every run from
    its columns; a single run's lists hold one entry."""

    def __init__(self, label, probability, build, target, pair, fidelity=None):
        self.label, self.probability = label, _flat(probability)
        self._alive, self._pair = np.asarray(probability) > 0.0, pair
        self._build, self._target, self._fidelity = build, target, fidelity

    @cached_property
    def state(self) -> PureState | DensityState:
        return self._build()

    @cached_property
    def target(self) -> PureState | None:
        return self._target()

    @cached_property
    def fidelity(self) -> list:
        if self._fidelity is not None:
            return self._fidelity
        if self.target is None:
            return [math.nan] * len(self.probability)
        return self._scored(fidelity, self.target, self.state)

    @cached_property
    def concurrence(self) -> list | None:
        return self._scored(concurrence, self.state) if self._pair else None

    def _scored(self, score, *args) -> list:
        """``score(*args)`` as a flat list, NaN where the probability is 0 (not
        called if it is 0 everywhere)."""
        return _flat(np.where(self._alive, score(*args) if self._alive.any() else math.nan,
                              math.nan))


class ProtocolResult(Frozen):
    """A run as one BranchColumn per branch label; a single run has batch shape ()."""

    def __init__(self, protocol: str, batch_shape: tuple[int, ...],
                 columns: tuple[BranchColumn, ...]):
        self.__dict__.update(protocol=protocol, batch_shape=batch_shape, columns=columns)

    def _column_branches(self, c: BranchColumn) -> list[ProtocolBranch]:
        """Column ``c``'s ProtocolBranch in each batch element, in C order; each
        element's state is a read-only view of the column's."""
        s = c.state
        data = s.amplitudes if isinstance(s, PureState) else s.matrix
        data = data.reshape((-1,) + data.shape[len(self.batch_shape):])
        nt = np.reshape(s.norm_tracking, -1)
        return [ProtocolBranch(c.label, c.probability[i], type(s)(s.register, data[i], nt[i]),
                               c.target, c.fidelity[i],
                               None if c.concurrence is None else c.concurrence[i])
                for i in range(len(data))]

    @cached_property
    def branches(self) -> tuple[ProtocolBranch, ...]:
        """Every branch of every batch element, element by element in C order,
        so element i's are ``branches[i * len(columns):(i + 1) * len(columns)]``."""
        return tuple(b for bs in zip(*map(self._column_branches, self.columns)) for b in bs)

    def survival_probability(self) -> float:
        if self.batch_shape:
            raise ValueError("survival_probability takes the result of one run")
        return float(sum(c.probability[0] for c in self.columns))

    def branch(self, label: str) -> ProtocolBranch:
        if self.batch_shape:
            raise ValueError("branch takes the result of one run")
        for c in self.columns:
            if c.label == label:
                return self._column_branches(c)[0]
        raise KeyError(f"no branch labeled {label!r}")


def _target_state(register, amplitudes) -> PureState | None:
    vec = np.asarray(amplitudes, dtype=np.complex128)
    nrm = np.linalg.norm(vec)
    if nrm < 1e-15:
        return None
    return PureState(tuple(register), vec / nrm)


# --- per-photon factors and weighted trajectories ----------------------------

def _coefficients(gate: GateMode, batch):
    """The gate's (coupled, uncoupled) pair as complex arrays of the run's batch
    shape, (1,) for a single run: array loops round as a batch's do; 0-d math
    does not."""
    return [np.broadcast_to(np.asarray(k, dtype=np.complex128), batch or (1,))
            for k in gate.coefficients]


def _unit(a: complex, b: complex):
    """An input pair scaled to unit norm."""
    norm = math.hypot(abs(a), abs(b))
    return a / norm, b / norm


def _weights(t_over_t2, batch, spins: int):
    """The weights of the dephasing trajectories, of shape (trajectories, *batch):
    one of weight 1, then each of ``spins`` stored spins splits every weight w
    into w (1-q), its trajectory unchanged, and w q, its trajectory with Z on
    that spin, in order; q = (1 - exp(-t/T2)) / 2. No split where no t/T2 is
    positive, even where q rounds to 0."""
    w = np.ones((1,) + batch)
    t = np.asarray(t_over_t2, dtype=float)
    if not (t > 0.0).any():
        return w
    q = (1.0 - np.exp(-t)) / 2.0
    for _ in range(spins):
        w = np.stack([w * (1.0 - q), w * q], axis=1).reshape((-1,) + batch)
    return w


def _turned(m, kets):
    """The 2x2 matrix ``m`` applied to the last axis, elementwise, so that each
    batch element rounds alike."""
    return kets[..., :1] * m[:, 0] + kets[..., 1:] * m[:, 1]


def _post(kets, batch, *turns):
    """The trajectories' unit kets and probabilities p from their unnormalized
    kets, of shape (trajectories, *batch or (1,), 2^k): each ket's squared norm
    is its p, which must lie in [0, 1] up to 1e-9 (ValueError) and is clipped
    to it, and its unit ket is the ket normalized, then turned by each 2x2
    matrix of ``turns`` in order. Returns (unit kets, p), of shapes
    (trajectories, *batch, 2^k) and (trajectories, *batch)."""
    p = _norm2(kets)
    if not ((p >= -1e-9) & (p <= 1 + 1e-9)).all():
        raise ValueError("a trajectory's probability must lie in [0, 1]")
    kets = kets / np.sqrt(_nonzero(p))[..., None]
    for m in turns:
        kets = _turned(m, kets)
    lead = (len(kets),) + batch
    return kets.reshape(lead + (-1,)), np.clip(p, 0.0, 1.0).reshape(lead)


def _floored(w, p):
    """sum_k w_k p_k over stacked trajectories, in order from zero as a mixture's
    terms, set to 0 at or below the floor; and where it is above the floor."""
    prob = reduce(np.add, w * p, np.zeros(w.shape[1:]))
    alive = prob > PROBABILITY_FLOOR
    return np.where(alive, prob, 0.0), alive


def _leaf(w, kets, p, kept, like=None):
    """Close one measurement leaf over the ``kept`` register: its state.

    ``w``, ``kets`` and ``p`` are the stacked trajectories' weights (see
    ``_weights``), unit kets over ``kept`` and probabilities (see ``_post``).
    The leaf's probability is ``_floored(w, p)``, of the run's batch shape
    ``w.shape[1:]``; its state is, for a mixture, sum_k w_k p_k |psi_k><psi_k|
    / p (made exactly Hermitian by ``make_hermitian``), else the one
    trajectory's ket, with that probability as its norm_tracking. Elements at
    or below the floor get a zero state, and trajectories below the floor add
    to the probability but not to the state. This is the one probability floor
    on a state; every protocol builds its states here, on a column's first read.

    ``like`` is, for a leaf whose trajectories differ from another leaf's only
    by one factor x of the leaf (its mixture is then the same, x cancelling),
    that leaf's (state, kept-trajectory mask ``p > PROBABILITY_FLOOR``, alive
    mask): an element where both leaves are alive and keep the same
    trajectories takes its matrix bit for bit, and only the others are mixed
    here. A pure leaf ignores it, as its ket keeps x's phase.
    """
    batch, mixed = w.shape[1:], len(w) > 1
    empty = np.zeros(batch + (2 ** len(kept),) * (1 + mixed), dtype=np.complex128)
    prob, alive = _floored(w, p)
    if not alive.any():
        return (DensityState(kept, make_hermitian(empty), prob) if mixed
                else PureState(kept, empty, prob))
    own = p > PROBABILITY_FLOOR
    if not own.all():
        kets, p = np.where(own[..., None], kets, 0.0), np.where(own, p, 0.0)
    if not mixed:
        return PureState(kept, kets[0], p[0])
    if like is not None:
        lead, lead_own, lead_alive = like
        shared = alive & lead_alive & (own == lead_own).all(axis=0)
        if shared.all():
            return DensityState(kept, lead.matrix, prob)
    scale = np.where(prob > 0.0, prob, 1.0)
    coef = np.where(alive & own, w * p / scale, 0.0)
    mat = reduce(np.add, (c[..., None, None] * (a[..., :, None] * a.conj()[..., None, :])
                          for c, a in zip(coef, kets)), empty)
    mat = make_hermitian(mat)
    if like is not None:
        mat = np.where(shared[..., None, None], lead.matrix, mat)
    return DensityState(kept, mat, prob)


def _flat(x) -> list:
    return np.reshape(x, -1).tolist()


def _result(name: str, w, kept, leaves, target_of):
    """The run's result of (label, unit kets, p) leaves over ``kept`` (see
    ``_post``): a BranchColumn each, its probability ``_floored`` now, its state
    closed by ``_leaf`` and scored against ``target_of(label)`` when read."""
    return ProtocolResult(name, w.shape[1:], tuple(
        BranchColumn(label, _floored(w, p)[0], partial(_leaf, w, kets, p, kept),
                     partial(target_of, label), len(kept) == 2) for label, kets, p in leaves))


# --- scheme A: photon pairs via remote entangled spins ----------------------

def scheme_a_entangle_spins(config: ProtocolConfig,
                            second_cavity: CavityParams | None = None):
    """Entangle two remote spins with one linearly polarized probe photon.

    The |H> probe reflects off cavity 1 then cavity 2 and is detected in the
    H/V basis. The V click heralds alpha1 alpha2 |up,up> - beta1 beta2
    |down,down>; the H click heralds alpha1 beta2 |up,down> + alpha2 beta1
    |down,up| (up to a global phase).
    """
    s1, s2, batch = spin(1), spin(2), config.batch_shape
    mode2 = config.gate
    if second_cavity is not None:
        if not isinstance(config.gate, RealisticGate):
            raise ParameterError("gate must be realistic for a second cavity", field="gate")
        mode2 = RealisticGate(second_cavity, config.gate.omega)
    (c1, u1), (c2, u2) = _coefficients(config.gate, batch), _coefficients(mode2, batch)
    (a1, b1), (a2, b2) = _unit(config.alpha1, config.beta1), _unit(config.alpha2, config.beta2)
    # the |H> probe's R part picks up u at each up spin and c at each down one,
    # its L part the reverse, so over (up up, up down, down up, down down) L's
    # products are R's reversed; <H| and <V| add and subtract the parts, over 2
    r = np.stack([u1 * u2, u1 * c2, c1 * u2, c1 * c2], -1)
    amp = np.array([a1 * a2, a1 * b2, b1 * a2, b1 * b2])
    leaves = [(label, *_post((amp * op(r, r[..., ::-1]) / 2)[None], batch))
              for label, op in (("H", np.add), ("V", np.subtract))]

    a1, b1, a2, b2 = config.alpha1, config.beta1, config.alpha2, config.beta2
    targets = {"V": [a1 * a2, 0, 0, -b1 * b2], "H": [0, a1 * b2, a2 * b1, 0]}
    return _result("scheme-a-spins", np.ones((1,) + batch), (s1, s2), leaves,
                   lambda label: _target_state((s1, s2), targets[label]))


# Z on spin 1, then on spin 2, in each emission trajectory (see ``_weights``):
# the sign flips of the pair's (up up, up down, down up, down down) amplitudes
_FLIPS = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]) < 0


def scheme_a_emit(entangled: ProtocolResult, config: ProtocolConfig):
    """Convert each heralded spin pair into a polarization-entangled photon pair.

    Optional dephasing (one emission interval per spin) is applied first, then
    the emission relabeling up -> L, down -> R on both spins. ``entangled`` is
    a ``scheme_a_entangle_spins`` result of batch shape ``()`` or the config's;
    a single run under a batched config emits its one pair at every element.
    Any other batch shape raises ValueError.
    """
    if entangled.batch_shape not in ((), config.batch_shape):
        raise ValueError(f"scheme_a_emit takes a result of batch shape () or "
                         f"{config.batch_shape}, not {entangled.batch_shape}")
    p1, p2, batch = photon(1), photon(2), config.batch_shape
    a1, b1, a2, b2 = config.alpha1, config.beta1, config.alpha2, config.beta2
    targets = {"V": [-b1 * b2, 0, 0, a1 * a2], "H": [0, a2 * b1, a1 * b2, 0]}
    w = _weights(config.t_over_t2, batch, 2)
    flips = _FLIPS[:len(w)].reshape((len(w),) + (1,) * len(batch) + (4,))

    def leaf(column):
        # the pair (RR, RL, LR, LL) is the spins' amplitudes in reverse
        amps = np.broadcast_to(column.state.amplitudes, batch + (4,))
        return (column.label, np.where(flips, -amps, amps)[..., ::-1],
                np.broadcast_to(column.state.norm_tracking, w.shape))

    return _result("scheme-a", w, (p1, p2), [leaf(c) for c in entangled.columns],
                   lambda label: _target_state((p1, p2), targets[label]))


def scheme_a_photon_pairs(config: ProtocolConfig,
                          second_cavity: CavityParams | None = None):
    """Full scheme A: ``scheme_a_emit`` of ``scheme_a_entangle_spins``."""
    return scheme_a_emit(scheme_a_entangle_spins(config, second_cavity), config)


# --- scheme B and its multi-photon chain -------------------------------------

def _chain_inputs(config: ProtocolConfig, n: int):
    """The chain's photon inputs (a_k, b_k): the configured pairs, then |H>."""
    return [(config.alpha1, config.beta1), (config.alpha2, config.beta2)] + [(SQH, SQH)] * (n - 2)


# Each chain leaf "detection/spin" is x (A + s B) on the undephased trajectory
# (see _chain), x a function of the gate's (coupled, uncoupled) pair.
_CHAIN_LEAVES = (("+45/up", lambda c, u: (u - 1j * c) / 4, -1),
                 ("+45/down", lambda c, u: (c - 1j * u) / 4, 1),
                 ("-45/up", lambda c, u: (u + 1j * c) / 4, -1),
                 ("-45/down", lambda c, u: (c + 1j * u) / 4, 1))


def _chain_kets(pairs, c, u):
    """A and B (see ``_chain``) of the normalized inputs: Kronecker
    products of per-photon factors, photon 1 first, for n >= 3 each turned by
    its feed-forward plates (+-45 -> R/L, and a phase on photon 1)."""
    n, turn = len(pairs), circular_to_z()
    plates = [np.diag([1.0, (-1j) ** n]) @ turn] + [turn] * (n - 1)
    kets = []
    for one, other in ((u, c), (c, u)):
        fs = [np.stack([one * a, other * b], -1) / math.hypot(abs(a), abs(b)) for a, b in pairs]
        if n > 2:
            fs = [_turned(m, f) for f, m in zip(fs, plates)]
        kets.append(reduce(lambda x, y: (x[..., :, None] * y[..., None, :]).reshape(
            x.shape[:-1] + (-1,)), fs))
    return kets


def _chain(name: str, config: ProtocolConfig, n: int):
    """Run the n-photon chain, scoring its leaves from per-photon factors in O(n).

    The gate is diagonal in the spin basis, so after the photons the chain is
    (|up> A + |down> B)/sqrt2, A = (x)_k (u a_k, c b_k), B = (x)_k (c a_k, u b_k).
    Dephasing flips B on the trajectory of weight q = (1 - exp(-n t/T2))/2; the
    pulse and the readouts leave each leaf x (A + s B). The +45 (-45) target is
    the ideal (c, u) = (i, 1) chain's A - B (A + B). A basis state with m photons
    in |L> has in A + s B its input amplitude times u^(n-m) c^m + s c^(n-m) u^m,
    so each norm and overlap is a sum over m weighted by e_m, the inputs'
    probability of m photons in |L>. Each distinct sum is taken once: the two
    norms of A + s B, the two target norms and the four overlaps; the four
    leaves are then scored on one (trajectory, leaf, *batch) stack. Returns the
    run's ProtocolResult ``name``: a BranchColumn per leaf, its state closed by
    ``_leaf`` and its target built on first read. As x cancels from a mixture,
    a dephased leaf is closed ``like`` the first leaf of its s, its +45
    partner, whose state is built once, whichever column is read first."""
    batch = config.batch_shape
    shape = batch or (1,)
    c, u = _coefficients(config.gate, batch)
    pairs = _chain_inputs(config, n)
    e = reduce(np.convolve, ([abs(a) ** 2, abs(b) ** 2] for a, b in pairs))
    e = e / e.sum()

    def per_m(c, u):  # u^(n-m) c^m + s c^(n-m) u^m: m = 0..n, then s = -1, 1
        pu, pc = (np.cumprod([np.ones(np.shape(c))] + [z] * n, axis=0) for z in (u, c))
        return np.stack([pu[::-1] * pc + s * pc[::-1] * pu for s in (-1, 1)], axis=1)

    def over_m(terms):  # in order, so each element sums alike in any batch
        return reduce(np.add, terms * e.reshape((-1,) + (1,) * (terms.ndim - 1)))

    h, ideal = per_m(c, u), per_m(1j, 1.0).reshape((n + 1, 2) + (1,) * len(shape))
    norm, tt = over_m(np.abs(h) ** 2), over_m(np.abs(ideal) ** 2)  # by s, by target
    overlap = over_m(np.conj(ideal)[:, :, None] * h[:, None])  # by (target, s)
    with np.errstate(over="ignore"):  # a total past the float range is inf, q = 1/2
        w = _weights(n * np.broadcast_to(config.t_over_t2, shape), shape, 1)

    labels = [label for label, _, _ in _CHAIN_LEAVES]
    x = np.stack([coefficient(c, u) for _, coefficient, _ in _CHAIN_LEAVES])
    signs = [[s * k for _, _, s in _CHAIN_LEAVES] for k in (1, -1)[:len(w)]]
    side = (np.array(signs) + 1) // 2  # index of s, (trajectory, leaf)
    det = np.array([label[0] == "-" for label in labels], dtype=int)  # index of the target
    p = np.minimum(np.abs(x) ** 2 * norm[side], 1.0)
    prob, alive = _floored(w[:, None], p)
    own = w[:, None] * (p > PROBABILITY_FLOOR)  # the trajectories the fidelity takes, as _leaf
    hit = np.abs(x * overlap[det, side]) ** 2
    seen = tt[det] >= 1e-30  # else the target vanishes, as in _target_state
    fid = reduce(np.add, own * hit) / (np.where(seen, tt[det], 1.0)
                                       * _nonzero(reduce(np.add, own * p)))
    fid = np.where(alive & seen, np.clip(fid, 0.0, 1.0), math.nan)

    lead, photons = (len(w),) + batch, tuple(photon(i) for i in range(1, n + 1))
    kets = cache(lambda: _chain_kets(pairs, c, u))

    @cache
    def targets():
        a, b = _chain_kets(pairs, 1j, 1.0)
        return {"+": _target_state(photons, a - b), "-": _target_state(photons, a + b)}

    def close(leaf, like=None):
        (a, b), pk = kets(), p[:, leaf]
        post = np.stack([x[leaf, ..., None] * (a + s[leaf] * b) for s in signs])
        return _leaf(w.reshape(lead), (post / np.sqrt(_nonzero(pk))[..., None]).reshape(
            lead + (-1,)), pk.reshape(lead), photons, like)

    first = cache(close)  # the first leaf of each s, closed once whichever column reads it

    def build(leaf):
        partner = signs[0].index(signs[0][leaf])  # the first leaf of its spin outcome
        if partner == leaf:
            return first(leaf)
        return close(leaf, None if len(w) == 1 else (
            first(partner), (p[:, partner] > PROBABILITY_FLOOR).reshape(lead),
            alive[partner].reshape(batch)))

    fids = fid.reshape(len(labels), -1).tolist()
    return ProtocolResult(name, batch, tuple(
        BranchColumn(label, prob[leaf], partial(build, leaf), lambda d=label[0]: targets()[d],
                     n == 2, fids[leaf]) for leaf, label in enumerate(labels)))


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
    +45 branch is then (|R...R> - |L...L>)/sqrt2. Scores and targets come
    from one closed form in per-photon factors (``_chain``).
    """
    if not 2 <= n_photons <= 6:
        raise ParameterError("register overflow: n_photons must be in [2, 6]", field="n_photons")
    return _chain("ghz", config, n_photons)


# --- scheme C: photon state onto the spin ------------------------------------

def transfer_photon_to_spin(config: ProtocolConfig):
    """Write an unknown photon polarization state onto the spin.

    The photon (alpha1|R> + beta1|L>) reflects once, the PBS projects it in
    the H/V basis, a pi/2 spin pulse maps the conditioned circular spin
    superpositions onto the poles, and a branch-dependent phase correction
    leaves alpha1|up> + beta1|down> in both branches.
    """
    s, batch = spin(1), config.batch_shape
    c, u = _coefficients(config.gate, batch)
    a, b = _unit(config.alpha1, config.beta1)
    # the photon's R part a leaves the |+x> spin in (u, c) a, its L part b in
    # (c, u) b, each over sqrt2; <H| and <V| add and subtract them, over sqrt2
    r, l = np.stack([a * u, a * c], -1), np.stack([b * c, b * u], -1)
    leaves = [(label, *_post((op(r, l) / 2)[None], batch, circular_to_z(),
                             _CORRECTIONS["C", label]))
              for label, op in (("H", np.add), ("V", np.subtract))]
    target = cache(partial(_target_state, (s,), [config.alpha1, config.beta1]))
    return _result("transfer-ps", np.ones((1,) + batch), (s,), leaves, lambda _: target())


# --- scheme D: spin state onto a photon --------------------------------------

def transfer_spin_to_photon(config: ProtocolConfig):
    """Write an unknown spin state onto a fresh photon.

    Photon 1 (prepared |H>) reflects off the cavity holding the spin
    alpha1|up> + beta1|down>, a Hadamard pulse rotates the spin, and ancilla
    photon 3 performs the non-demolition spin readout. Wave-plate corrections
    keyed on the announced readout turn both branches into alpha1|H> +
    beta1|V>. Branch labels are "readout/actual" spin outcomes.
    """
    p1, batch = photon(1), config.batch_shape
    c, u = _coefficients(config.gate, batch)
    a, b = _unit(config.alpha1, config.beta1)
    w = _weights(config.t_over_t2, batch, 1)
    # the |H> photon's (R, L) becomes (u, c) a at an up spin, A, and (c, u) b
    # at a down one, B, which Z negates. The spin is then read out as the
    # chain's: each leaf is x (A - s B), x holding the four 1/sqrt2, as the
    # Hadamard pulse turns up to up + down where the chain's turns it to up - down.
    up, down = np.stack([a * u, a * c], -1), np.stack([b * c, b * u], -1)
    down = np.stack([down, -down][:len(w)])
    leaves = []
    for label, coefficient, sign in _CHAIN_LEAVES:
        announced = "up" if label[0] == "+" else "down"
        kets = coefficient(c, u)[..., None] * (up - sign * down)
        leaves.append((announced + label[3:], *_post(kets, batch, _CORRECTIONS["D", announced])))
    a, b = config.alpha1, config.beta1
    target = cache(partial(_target_state, (p1,), [(a + b) * SQH, (a - b) * SQH]))  # a|H> + b|V>
    return _result("transfer-sp", w, (p1,), leaves, lambda _: target())


# --- dispatch and branch merging ---------------------------------------------

PROTOCOL_NAMES = ("scheme-a", "scheme-b", "transfer-ps", "transfer-sp", "ghz")


def run_protocol(name: str, config: ProtocolConfig, n_photons: int = 3):
    """Run one protocol: its ProtocolResult, of the config's batch shape."""
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
    raise ParameterError(f"unknown protocol {name!r} (valid: {', '.join(PROTOCOL_NAMES)})",
                         field="name")


def merged_detection_branch(result: ProtocolResult, detection: str) -> ProtocolBranch:
    """Combine all branches sharing a detection outcome (label prefix) into
    one branch labeled ``detection``, scored like every other branch.

    A protocol heralded only on the photon detection delivers the mixture of
    the joint branches; this is the honest conditional state when the spin
    outcome is not used. ``result`` is the result of one run. A dead outcome
    keeps the zero state of its first branch, with probability 0.
    """
    if result.batch_shape:
        raise ValueError("merged_detection_branch takes the result of one run")
    picked = [c for c in result.columns
              if c.label == detection or c.label.startswith(detection + "/")]
    if not picked:
        raise KeyError(f"no branch labeled {detection!r}")
    live = [c for c in picked if c.probability[0] > 0.0]
    p_tot = sum((c.probability[0] for c in live), 0.0)
    state = (live or picked)[0].state
    if len(live) > 1:
        dim = 2 ** state.n_qubits
        mat = np.zeros((dim, dim), dtype=np.complex128)
        for c in live:
            rho = to_density(c.state) if isinstance(c.state, PureState) else c.state
            mat += (c.probability[0] / p_tot) * (rho.matrix / max(rho.trace(), 1e-300))
        state = DensityState(state.register, make_hermitian(mat), min(p_tot, 1.0))
    target = next((c.target for c in picked if c.target is not None), None)
    column = BranchColumn(detection, p_tot, lambda: state, lambda: target, state.n_qubits == 2)
    return ProtocolResult(result.protocol, (), (column,)).branches[0]
