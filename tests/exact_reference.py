"""Every protocol run in exact rational arithmetic: the referee of the
printed probabilities and fidelities. scheme-a, transfer-ps and transfer-sp
run step by step (below); scheme-b and ghz as sums over the number of photons
in |L> (``chain``).

Each circuit (prepare, gate, readout, pulse, correction, emission) runs step
by step on dense vectors of at most four qubits, whose entries are complex
numbers with ``fractions.Fraction`` parts, so no step rounds. The inputs are
the program's own floats, taken as exact rationals: the gate's (coupled,
uncoupled) pair, the input amplitudes, q = (1 - exp(-t/T2)) / 2 as the
program computes it, and the float entries of the matrices the program
applies to a kept qubit (transfer-ps's pulse and both schemes' corrections).

The 1/sqrt2 of a prepared |H> or |+x>, of an H/V or +-45 readout and of
transfer-sp's Hadamard pulse, which the program folds into exact factors 1/2
and 1/4, are kept out of the vectors: those kets and the pulse are taken
unnormalized ((1, 1), (1, -i), [[1, 1], [1, -1]]), and every amplitude of a
branch passes each of them once, so a branch probability is its vector's
squared norm over 2^k, k the number of 1/sqrt2 factors it met. A fidelity
against a pure target is then rational too, mixtures included: sum_k w_k
|<t|psi_k>|^2 / (|t|^2 sum_k w_k |psi_k|^2) over the trajectories (w_k, psi_k).
Concurrence, which needs square roots, is left to the float oracle.

Like the matrix oracle, this shares no code with the package's protocols:
only the float inputs are read from it.
"""
import math
from fractions import Fraction

import numpy as np

from spinphoton.gates import _CORRECTIONS, circular_to_z


class Q:
    """An exact complex number: a pair of exact rationals (ints or Fractions)."""
    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = re, im

    @classmethod
    def of(cls, z) -> "Q":
        """The float complex ``z`` exactly."""
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    @classmethod
    def scaled(cls, z, scale: int) -> "Q":
        """The float complex ``z`` times 2^scale, in integers (exact for a
        ``scale`` of at least ``_exponent(z)``): sums and products of these
        need no Fraction arithmetic."""
        z = complex(z)
        return cls(*(int(Fraction(v) * 2 ** scale) for v in (z.real, z.imag)))

    def __add__(self, other):
        return Q(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Q(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return Q(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def conj(self):
        return Q(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


ZERO, ONE, I = Q(0), Q(1), Q(0, 1)
PLUS = [ONE, ONE]  # |H>, |+x> and <H| without their 1/sqrt2
MINUS = [ONE, Q(-1)]  # <V| without its 1/sqrt2
HADAMARD = [[ONE, ONE], [ONE, Q(-1)]]  # without its 1/sqrt2
X = [[ZERO, ONE], [ONE, ZERO]]  # the emission relabels up -> L, down -> R
Z = [[ONE, ZERO], [ZERO, Q(-1)]]


def exact_matrix(m) -> list:
    """A float 2x2 matrix of the program, exactly."""
    return [[Q.of(x) for x in row] for row in np.asarray(m)]


def kron(a: list, b: list) -> list:
    return [x * y for x in a for y in b]


def _bit(index: int, pos: int, n: int) -> int:
    return (index >> (n - 1 - pos)) & 1


def gate(vec: list, n: int, photon: int, spin: int, c: Q, u: Q) -> list:
    """The reflection gate: c on |L,up> and |R,down>, u on |R,up> and |L,down>."""
    return [x * (c if _bit(i, photon, n) != _bit(i, spin, n) else u) for i, x in enumerate(vec)]


def apply(vec: list, n: int, pos: int, m: list) -> list:
    """The 2x2 matrix ``m`` on the qubit at register position ``pos``."""
    out = []
    for i in range(len(vec)):
        b, i0 = _bit(i, pos, n), i & ~(1 << (n - 1 - pos))
        out.append(m[b][0] * vec[i0] + m[b][1] * vec[i0 | (1 << (n - 1 - pos))])
    return out


def project(vec: list, n: int, pos: int, ket: list) -> list:
    """<ket| on the qubit at ``pos``, which leaves the register."""
    shift = n - 1 - pos
    rest = []
    for j in range(len(vec) // 2):
        high, low = j >> shift, j & ((1 << shift) - 1)
        i0 = (high << (shift + 1)) | low
        rest.append(ket[0].conj() * vec[i0] + ket[1].conj() * vec[i0 | (1 << shift)])
    return rest


def norm2(vec: list) -> Fraction:
    return sum((x.abs2() for x in vec), Fraction(0))


def weights(t_over_t2: float, spins: int) -> list:
    """The trajectories' exact weights from the program's float q: 1 - q, then
    q per spin, spin 1 first."""
    if not t_over_t2 > 0.0:
        return [Fraction(1)]
    q = Fraction(float((1.0 - np.exp(-np.asarray(t_over_t2, dtype=float))) / 2.0))
    w = [Fraction(1)]
    for _ in range(spins):
        w = [x for wk in w for x in (wk * (1 - q), wk * q)]
    return w


def leaf(trajectories, scale: Fraction, target) -> tuple:
    """(probability, fidelity) of a branch from its trajectories (w_k, ket_k
    as read out, ket_k as kept after any pulse and correction): probability
    scale * sum_k w_k |ket_k|^2, fidelity against ``target`` (None without
    one, or when no trajectory is live)."""
    p = scale * sum((w * norm2(read) for w, read, _ in trajectories), Fraction(0))
    kept = sum((w * norm2(post) for w, _, post in trajectories), Fraction(0))
    if target is None or kept == 0:
        return p, None
    hit = sum((w * sum((t.conj() * x for t, x in zip(target, post)), ZERO).abs2()
               for w, _, post in trajectories), Fraction(0))
    return p, hit / (norm2(target) * kept)


def _inputs(config, n: int = 1):
    pairs = [(Q.of(config.alpha1), Q.of(config.beta1)), (Q.of(config.alpha2), Q.of(config.beta2))]
    return pairs[:n], math.prod(norm2(pair) for pair in pairs[:n])


def _target(amplitudes) -> list | None:
    """The target, or None where it vanishes: below norm 1e-15, as the program's."""
    return amplitudes if norm2(amplitudes) >= Fraction(1, 10 ** 30) else None


def scheme_a(config) -> dict:
    """label -> (probability, fidelity) of scheme-a's emitted photon pairs."""
    ((a1, b1), (a2, b2)), n2 = _inputs(config, 2)
    c, u = map(Q.of, config.gate.coefficients)
    vec = kron(kron([a1, b1], [a2, b2]), PLUS)  # spin 1, spin 2, probe
    vec = gate(gate(vec, 3, 2, 0, c, u), 3, 2, 1, c, u)
    targets = {"V": [ZERO - b1 * b2, ZERO, ZERO, a1 * a2], "H": [ZERO, a2 * b1, a1 * b2, ZERO]}
    out = {}
    for label, ket in (("H", PLUS), ("V", MINUS)):
        pair = project(vec, 3, 2, ket)
        trajectories = []
        for w, (z1, z2) in zip(weights(config.t_over_t2, 2), ((0, 0), (0, 1), (1, 0), (1, 1))):
            st = pair
            for pos, flip in ((0, z1), (1, z2)):
                st = apply(st, 2, pos, Z) if flip else st
            emitted = apply(apply(st, 2, 0, X), 2, 1, X)
            trajectories.append((w, st, emitted))
        out[label] = leaf(trajectories, Fraction(1, 4) / n2, _target(targets[label]))
    return out


def transfer_ps(config) -> dict:
    """label -> (probability, fidelity) of the photon-to-spin transfer."""
    ((a, b),), n2 = _inputs(config)
    c, u = map(Q.of, config.gate.coefficients)
    vec = gate(kron([a, b], PLUS), 2, 0, 1, c, u)  # photon, spin in |+x>
    pulse = exact_matrix(circular_to_z())
    out = {}
    for label, ket in (("H", PLUS), ("V", MINUS)):
        read = project(vec, 2, 0, ket)
        post = apply(apply(read, 1, 0, pulse), 1, 0,
                     exact_matrix(_CORRECTIONS["C", label]))
        out[label] = leaf([(Fraction(1), read, post)], Fraction(1, 4) / n2, _target([a, b]))
    return out


def transfer_sp(config) -> dict:
    """label -> (probability, fidelity) of the spin-to-photon transfer."""
    ((a, b),), n2 = _inputs(config)
    c, u = map(Q.of, config.gate.coefficients)
    vec = gate(kron(PLUS, [a, b]), 2, 0, 1, c, u)  # photon 1 in |H>, spin
    target = _target([a + b, a - b])
    branches = {}
    for w, flip in zip(weights(config.t_over_t2, 1), (0, 1)):
        st = apply(apply(vec, 2, 1, Z) if flip else vec, 2, 1, HADAMARD)
        st = gate(kron(st, PLUS), 3, 2, 1, c, u)  # ancilla photon 3 in |H>
        for announced, ket in (("up", [ONE, I]), ("down", [ONE, ZERO - I])):  # +-45
            read = project(st, 3, 2, ket)
            for actual, spin_ket in (("up", [ONE, ZERO]), ("down", [ZERO, ONE])):
                photon = project(read, 2, 1, spin_ket)
                post = apply(photon, 1, 0, exact_matrix(_CORRECTIONS["D", announced]))
                branches.setdefault(f"{announced}/{actual}", []).append((w, photon, post))
    return {label: leaf(trajectories, Fraction(1, 16) / n2, target)
            for label, trajectories in branches.items()}


EXACT = {"scheme-a": scheme_a, "transfer-ps": transfer_ps, "transfer-sp": transfer_sp}


def chain(config, n: int) -> dict:
    """label -> (probability, fidelity) of the n-photon chain: scheme-b at
    n = 2, ghz above, photons 3..n entering as the program's float |H>.

    The gate is diagonal in the spin basis, so after the photons the spin
    (|+x>) and the photons are |up> A + |down> B, A = (x)_k (u a_k, c b_k) and
    B = (x)_k (c a_k, u b_k). The rest of the circuit acts on the pair
    (alpha, beta) of A and B that each spin state carries: Z (on the
    trajectory of weight q), the pulse [[1, -1], [1, 1]], the |H> ancilla's
    reflection (u on R, c on L at |up>; the reverse at |down>), its +-45
    projection and the spin readout. A basis state with m photons in |L> has
    in alpha A + beta B its input amplitude times alpha u^(n-m) c^m + beta
    c^(n-m) u^m, so a leaf's squared norm and its overlap with the target are
    exact sums over m weighted by e_m, the inputs' probability of m photons
    in |L>. The target of a detection is the live leaf of the ideal (c, u) =
    (i, 1) run without dephasing. The feed-forward plates of n >= 3 act alike
    on a leaf and its target, so they change no score and are left out. The
    spin, pulse, ancilla and +-45 each carry a 1/sqrt2, 1/16 in probability.
    The chain waits n intervals, so q is taken as the program computes it from
    n t/T2, on an array of one element.

    The float inputs enter as integers times 2^-S (``Q.scaled``), S the
    largest exponent they need, so each sum is an integer; the scales are
    divided out once, at the end.
    """
    inputs = [(config.alpha1, config.beta1), (config.alpha2, config.beta2)] + [
        (math.sqrt(0.5), math.sqrt(0.5))] * (n - 2)
    total = n * float(config.t_over_t2)
    q = (1.0 - float(np.exp(-np.full(1, total))[0])) / 2.0 if total > 0.0 else 0.0
    scale = max(map(_exponent, [q, *config.gate.coefficients, *sum(inputs, ())]))
    pairs = [(Q.scaled(a, scale), Q.scaled(b, scale)) for a, b in inputs]
    e = [1]  # by 2^(2 n S), as norm2s, the product of the pairs' squared norms
    for a, b in pairs:
        e = [(e[m] * a.abs2() if m < len(e) else 0) + (e[m - 1] * b.abs2() if m else 0)
             for m in range(len(e) + 1)]
    norm2s = math.prod(a.abs2() + b.abs2() for a, b in pairs)
    q = Q.scaled(q, scale).re
    w = [2 ** scale - q, q] if total > 0.0 else [2 ** scale]  # by 2^S

    def leaves(c: Q, u: Q, flip: bool) -> dict:
        """label -> (x, alpha, beta): the leaf x (alpha A + beta B)."""
        up, down = (ONE, ZERO), (ZERO, Q(-1) if flip else ONE)
        pulsed = {"up": (up[0] - down[0], up[1] - down[1]),
                  "down": (up[0] + down[0], up[1] + down[1])}
        out = {}
        for det, ket in (("+45", [ONE, I]), ("-45", [ONE, ZERO - I])):
            for spin, (r, l) in (("up", (u, c)), ("down", (c, u))):
                out[f"{det}/{spin}"] = (ket[0].conj() * r + ket[1].conj() * l, *pulsed[spin])
        return out

    def per_m(c: Q, u: Q):
        """(alpha, beta) -> [alpha u^(n-m) c^m + beta c^(n-m) u^m for m = 0..n]."""
        pu, pc = [ONE], [ONE]
        for _ in range(n):
            pu, pc = pu + [pu[-1] * u], pc + [pc[-1] * c]
        terms = [pu[n - m] * pc[m] for m in range(n + 1)]
        return lambda alpha, beta: [alpha * terms[m] + beta * terms[n - m] for m in range(n + 1)]

    def over_m(values) -> int:
        return sum(em * v for em, v in zip(e, values))

    ideal = leaves(I, ONE, False)
    targets = {label[:3]: per_m(I, ONE)(alpha, beta)
               for label, (x, alpha, beta) in ideal.items() if x.abs2() != 0}
    c, u = (Q.scaled(z, scale) for z in config.gate.coefficients)  # by 2^S
    h_m = per_m(c, u)
    trajectories = [(wk, leaves(c, u, flip)) for wk, flip in zip(w, (False, True))]
    out = {}
    for label in ideal:
        target = targets[label[:3]]
        tt = over_m(t.abs2() for t in target)  # by norm2s
        p = hit = 0  # p by 16 norm2s 2^((3 + 2 n) S); in hit / (tt p) the scales cancel
        for wk, leaf_of in trajectories:
            x, alpha, beta = leaf_of[label]
            h = h_m(alpha, beta)  # by 2^(n S)
            overlap = [t.conj() * z for t, z in zip(target, h)]
            p += wk * x.abs2() * over_m(z.abs2() for z in h)
            hit += wk * x.abs2() * (over_m(z.re for z in overlap) ** 2
                                    + over_m(z.im for z in overlap) ** 2)
        # a vanishing target (below norm 1e-15, as the program's) or leaf has no fidelity
        live = Fraction(tt, norm2s) >= Fraction(1, 10 ** 30) and p != 0
        out[label] = (Fraction(p, 16 * norm2s * 2 ** ((3 + 2 * n) * scale)),
                      Fraction(hit, tt * p) if live else None)
    return out


def _exponent(z) -> int:
    """The least k with 2^k times each part of the float complex ``z`` an integer."""
    z = complex(z)
    return max(Fraction(v).denominator.bit_length() - 1 for v in (z.real, z.imag))


def ulps(x: float, exact: Fraction) -> Fraction:
    """The distance from ``x`` to ``exact`` in units in the last place of ``exact``."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))
