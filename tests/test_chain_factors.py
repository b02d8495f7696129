"""The chain's product-form scores against the engine-driven reference and
the dense-matrix oracle, and the paper's claim that the chain scales.

``protocols._chain`` scores scheme-b and ghz from per-photon factors
and builds the 2^n branch states only on request. Here every probability,
fidelity, concurrence and state must agree to 1e-12 with the step-by-step
engine run of ``chain_reference`` and with the dense Kraus oracle of
``test_oracle_equivalence``, for ideal and lossy gates, with and without
dephasing, batched and unbatched.
"""
import math
import tracemalloc
from spinphoton import replace
from functools import reduce

import numpy as np
import pytest

from spinphoton import cli, metrics, protocols
from spinphoton import qstate as qs
from spinphoton.cavity import CavityParams
from spinphoton.gates import IdealGate, RealisticGate
from spinphoton.metrics import concurrence
from spinphoton.protocols import ProtocolConfig, chain_multiphoton
from chain_reference import reference_chain, reference_targets
from reference_states import rand_amp_pair
from test_oracle_equivalence import _kraus_chain, gate_coeffs

TOL = 1e-12
LOSSY = CavityParams(g=4.0, kappa=1.0, gamma=0.1, kappa_s=0.2)
GATES = {"ideal": IdealGate(), "lossy": RealisticGate(LOSSY, 0.5)}


def random_config(rng, gate=IdealGate(), t_over_t2=0.0):
    (a1, b1), (a2, b2) = rand_amp_pair(rng), rand_amp_pair(rng)
    return ProtocolConfig(gate=gate, alpha1=a1, beta1=b1, alpha2=a2, beta2=b2,
                          t_over_t2=t_over_t2)


def close(a, b) -> bool:
    """Within TOL, with NaN equal to NaN and None to None."""
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL


def data(state) -> np.ndarray:
    return state.amplitudes if isinstance(state, qs.PureState) else state.matrix


def assert_agrees_with_reference(got, ref) -> None:
    """Branch by branch: the scores within TOL, and the states (global phase
    included) entry by entry."""
    assert [b.label for b in got.branches] == [b.label for b in ref.branches]
    for g, r in zip(got.branches, ref.branches):
        for a, b in ((g.probability, r.probability), (g.fidelity_vs_target, r.fidelity_vs_target),
                     (g.concurrence, r.concurrence)):
            assert close(a, b), (g.label, a, b)
        assert type(g.state) is type(r.state) and g.state.register == r.state.register
        assert np.max(np.abs(data(g.state) - data(r.state))) <= TOL, g.label


def assert_agrees_with_oracle(result, config, n) -> None:
    """Probabilities, states, fidelities and concurrences against the dense
    Kraus oracle; a branch's target is the ideal oracle run's live leaf."""
    amps = ((config.alpha1, config.beta1), (config.alpha2, config.beta2))
    leaves = _kraus_chain(*gate_coeffs(config.gate), amps, float(config.t_over_t2), n)
    ideal = _kraus_chain(*gate_coeffs(IdealGate()), amps, 0.0, n)
    for br in result.branches:
        p, rho = leaves[br.label]
        assert abs(br.probability - p) <= TOL, br.label
        if br.probability == 0.0:
            continue
        got = qs.to_density(br.state).matrix if isinstance(br.state, qs.PureState) \
            else br.state.matrix
        assert np.max(np.abs(got - rho)) <= TOL, br.label
        target = ideal["+45/up" if br.label.startswith("+45") else "-45/down"][1]
        assert abs(br.fidelity_vs_target - np.trace(target @ rho).real) <= TOL, br.label
        if n == 2:
            oracle = concurrence(qs.DensityState(br.state.register, rho))
            assert abs(br.concurrence - oracle) <= TOL, br.label


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("gate", sorted(GATES))
@pytest.mark.parametrize("t_over_t2", [0.0, 0.05, 0.3, 2.0])
def test_chain_matches_the_reference_and_the_matrix_oracle(n, gate, t_over_t2):
    rng = np.random.default_rng(1000 * n + int(100 * t_over_t2))
    for _ in range(2):
        cfg = random_config(rng, GATES[gate], t_over_t2)
        result = chain_multiphoton(cfg, n)
        assert_agrees_with_reference(result, reference_chain(cfg, n))
        assert_agrees_with_oracle(result, cfg, n)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("dephased", [False, True])
def test_batched_chain_matches_the_reference_element_by_element(n, dephased):
    rng = np.random.default_rng(50 + n)
    cavity = CavityParams(g=np.array([2.0, 5.0, 12.0]), kappa=1.0, gamma=0.1, kappa_s=0.2)
    t = np.array([0.05, 0.3, 2.0]) if dephased else 0.0
    cfg = random_config(rng, RealisticGate(cavity, 0.5), t)
    got, ref = chain_multiphoton(cfg, n), reference_chain(cfg, n)
    assert got.batch_shape == ref.batch_shape == (3,)
    assert_agrees_with_reference(got, ref)  # element by element, as branches run


@pytest.mark.parametrize("n", [2, 4])
def test_a_dephasing_too_small_for_q_still_gives_mixtures(n):
    # t/T2 = 1e-300 rounds q to 0, yet the run is dephased: its states are
    # density matrices, alone and in a batch with t/T2 = 1
    cfg = random_config(np.random.default_rng(7), GATES["lossy"], 1e-300)
    assert_agrees_with_reference(chain_multiphoton(cfg, n), reference_chain(cfg, n))
    batch = replace(cfg, t_over_t2=np.array([1e-300, 1.0]))
    got = chain_multiphoton(batch, n)
    assert_agrees_with_reference(got, reference_chain(batch, n))
    assert all(isinstance(br.state, qs.DensityState) for br in got.branches)


@pytest.mark.parametrize("t_over_t2", [0.0, 0.3])
def test_inputs_at_the_normalization_tolerance_give_unit_states(t_over_t2):
    # ProtocolConfig accepts a pair normalized to within 1e-9; the states, like
    # the probabilities, are those of the normalized inputs
    cfg = ProtocolConfig(alpha1=0.6, beta1=0.8000000005, t_over_t2=t_over_t2)
    result = chain_multiphoton(cfg, 3)
    assert_agrees_with_reference(result, reference_chain(cfg, 3))
    for br in result.branches:
        if br.probability > 0.0:
            norm = np.linalg.norm(br.state.amplitudes) ** 2 if t_over_t2 == 0.0 \
                else np.trace(br.state.matrix).real
            assert abs(norm - 1.0) < 1e-14


def flipped_leaf(label: str):
    """``_CHAIN_LEAVES`` with the sign between A and B of one leaf flipped."""
    return tuple((name, x, -s if name == label else s)
                 for name, x, s in protocols._CHAIN_LEAVES)


def test_a_wrong_sign_leaf_keeps_its_probability_but_fails_its_target(monkeypatch):
    # a chain bug that also shows in ideal mode must not score fidelity 1
    monkeypatch.setattr(protocols, "_CHAIN_LEAVES", flipped_leaf("+45/up"))
    res = chain_multiphoton(ProtocolConfig(), 3)
    assert res.branch("+45/up").probability == pytest.approx(0.5, abs=1e-12)
    assert res.branch("+45/up").fidelity_vs_target < 0.5
    with pytest.raises(AssertionError):
        assert_agrees_with_reference(res, reference_chain(ProtocolConfig(), 3))


@pytest.mark.parametrize("label", [name for name, _, _ in protocols._CHAIN_LEAVES])
def test_a_sign_flip_of_any_leaf_fails_the_reference_check(monkeypatch, label):
    cfg = random_config(np.random.default_rng(3), GATES["lossy"])  # every leaf is live
    monkeypatch.setattr(protocols, "_CHAIN_LEAVES", flipped_leaf(label))
    with pytest.raises(AssertionError):
        assert_agrees_with_reference(chain_multiphoton(cfg, 3), reference_chain(cfg, 3))


@pytest.mark.parametrize("n", range(2, 7))
def test_chain_targets_equal_the_reference_ideal_pass(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        cfg = random_config(rng)
        res = chain_multiphoton(cfg, n)
        ideal = reference_targets(cfg, n)
        assert sorted(ideal) == ["+45", "-45"]
        for det, ref in ideal.items():
            got = res.branch(det + "/up").target
            assert got.register == ref.register
            overlap = np.vdot(got.amplitudes, ref.amplitudes)
            aligned = got.amplitudes * overlap / abs(overlap)
            assert np.max(np.abs(aligned - ref.amplitudes)) < 1e-14


def test_a_batched_chain_builds_its_states_only_when_read(monkeypatch):
    calls = []
    leaf = protocols._leaf

    def counting(w, kets, p, kept, like=None):
        calls.append(p.shape)
        return leaf(w, kets, p, kept, like)

    monkeypatch.setattr(protocols, "_leaf", counting)
    cavity = CavityParams(g=np.array([2.0, 5.0, 12.0]), kappa=1.0, gamma=0.1, kappa_s=0.2)
    batch = chain_multiphoton(ProtocolConfig(gate=RealisticGate(cavity, 0.5),
                                             t_over_t2=np.array([0.1, 0.2, 0.3])), 5)
    assert calls == []
    assert all(isinstance(b.state, qs.DensityState) for b in batch.branches)
    assert calls == [(2, 3)] * 4  # one build of each leaf's two trajectories
    single = chain_multiphoton(ProtocolConfig(), 5)  # a single run, too, builds on read
    assert calls == [(2, 3)] * 4
    assert all(isinstance(b.state, qs.PureState) for b in single.branches)
    assert calls == [(2, 3)] * 4 + [(1,)] * 4


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("t_over_t2", [0.0, 0.3])
def test_a_chain_column_builds_its_state_once_and_only_on_first_read(monkeypatch, n,
                                                                     t_over_t2):
    calls = []
    leaf = protocols._leaf

    def counting(*args, **kwargs):
        calls.append(leaf(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(protocols, "_leaf", counting)
    result = chain_multiphoton(ProtocolConfig(gate=GATES["lossy"], t_over_t2=t_over_t2), n)
    assert all(len(c.probability) == len(c.fidelity) == 1 for c in result.columns)
    assert calls == []  # scored without a state, at n = 2 too
    first = [c.state for c in result.columns]
    assert all(c.state is s for c, s in zip(result.columns, first))  # built once
    assert result.branches is result.branches
    assert len(calls) == len(first) and all(built is s for built, s in zip(calls, first))


# --- a dephased -45 leaf shares its +45 partner's mixture ---------------------

def chain_run(n: int, config: ProtocolConfig):
    """Scheme-b at n = 2, else the ghz chain of n photons."""
    return protocols.run_protocol("scheme-b" if n == 2 else "ghz", config, n_photons=n)


def columns(result) -> dict:
    return {c.label: c for c in result.columns}


@pytest.mark.parametrize("n", range(2, 7))
def test_a_dephased_minus_45_leaf_holds_its_plus_45_partners_matrix(n):
    # x cancels from a mixture, so each spin outcome's two leaves hold one
    # matrix, bit for bit, in a single run and in each element of a batch
    t = np.array([0.05, 0.3, 1.7])
    cfg = random_config(np.random.default_rng(40 + n), GATES["lossy"], t)
    batch = columns(chain_run(n, cfg))
    for k, tk in enumerate(t):
        one = columns(chain_run(n, replace(cfg, t_over_t2=float(tk))))
        for spin in ("up", "down"):
            plus, minus = one["+45/" + spin], one["-45/" + spin]
            assert plus.probability != minus.probability
            assert minus.state.matrix.tobytes() == plus.state.matrix.tobytes()
            assert [float(minus.state.norm_tracking)] == minus.probability
        for label, column in one.items():
            assert batch[label].state.matrix[k].tobytes() == column.state.matrix.tobytes()


@pytest.mark.parametrize("n", range(3, 7))
def test_a_dephased_minus_45_leaf_shares_its_partners_memory(n):
    # the state keeps the frozen matrix it is given: no copy per shared leaf
    cols = columns(chain_run(n, random_config(np.random.default_rng(n), GATES["lossy"], 0.4)))
    for spin in ("up", "down"):
        plus, minus = cols["+45/" + spin].state.matrix, cols["-45/" + spin].state.matrix
        assert np.shares_memory(minus, plus) and not minus.flags.writeable


@pytest.mark.parametrize("n", [2, 6])
def test_a_shared_matrix_does_not_depend_on_which_leaf_is_read_first(n):
    cfg = random_config(np.random.default_rng(7), GATES["lossy"], 0.4)
    seen = []
    for order in (["+45/up", "-45/up"], ["-45/up", "+45/up"]):
        cols = columns(chain_run(n, cfg))
        seen.append({label: cols[label].state.matrix.tobytes() for label in order})
    assert seen[0] == seen[1]
    assert seen[0]["-45/up"] == seen[0]["+45/up"]


def test_a_leaf_takes_its_partners_matrix_only_where_both_live_on_the_same_trajectories():
    # the ideal gate's -45/up and +45/down are dead: each keeps its zero state,
    # and the live -45/down is mixed on its own
    cols = columns(chain_run(3, random_config(np.random.default_rng(5), IdealGate(), 0.3)))
    for label in ("-45/up", "+45/down"):
        assert cols[label].probability == [0.0] and not cols[label].state.matrix.any()
    assert cols["-45/down"].probability[0] > 0.0
    assert abs(np.trace(cols["-45/down"].state.matrix).real - 1.0) < 1e-14
    # element by element: 0 shares; 1 is dead; 2 keeps one trajectory where its
    # partner keeps two; 3's partner is dead
    rng, kept = np.random.default_rng(9), (qs.photon(1),)
    kets = rng.normal(size=(2, 4, 2)) + 1j * rng.normal(size=(2, 4, 2))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    w = np.array([[0.8] * 4, [0.2] * 4])
    lead_p = np.array([[0.5, 0.5, 0.5, 0.0], [0.4, 0.4, 0.4, 0.0]])
    p = np.array([[0.2, 0.0, 0.3, 0.3], [0.1, 0.0, 1e-30, 0.1]])
    lead = protocols._leaf(w, kets, lead_p, kept)
    like = (lead, lead_p > protocols.PROBABILITY_FLOOR, protocols._floored(w, lead_p)[1])
    got, own = (protocols._leaf(w, 1j * kets, p, kept, *extra) for extra in ((like,), ()))
    assert got.matrix[0].tobytes() == lead.matrix[0].tobytes()
    assert not got.matrix[1].any()
    assert got.matrix[2:].tobytes() == own.matrix[2:].tobytes()
    assert got.matrix[2].tobytes() != lead.matrix[2].tobytes()
    assert got.norm_tracking.tobytes() == own.norm_tracking.tobytes()


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("t_over_t2", [0.3, np.array([0.1, 0.6])], ids=["single", "batched"])
def test_a_dephased_chain_mixes_two_matrices_per_run_not_four(monkeypatch, n, t_over_t2):
    mixed, make_hermitian = [], protocols.make_hermitian

    def counting(mat):
        mixed.append(mat.shape)
        return make_hermitian(mat)

    monkeypatch.setattr(protocols, "make_hermitian", counting)
    result = chain_run(n, random_config(np.random.default_rng(n), GATES["lossy"], t_over_t2))
    assert all(isinstance(c.state, qs.DensityState) for c in result.columns)
    assert mixed == [np.shape(t_over_t2) + (2 ** n, 2 ** n)] * 2


# --- the stacked scoring against the per-leaf loop it replaced ------------------

def _old_chain_factors(config, n):
    """Each leaf's (probability, fidelity) flat lists, scored leaf by leaf with
    every sum over m taken anew, as ``_chain`` scored them before its
    leaves were stacked."""
    shape = config.batch_shape or (1,)
    c, u = (np.broadcast_to(np.asarray(k, dtype=np.complex128), shape)
            for k in config.gate.coefficients)
    pairs = protocols._chain_inputs(config, n)
    e = reduce(np.convolve, ([abs(a) ** 2, abs(b) ** 2] for a, b in pairs))
    e = (e / e.sum()).reshape((n + 1,) + (1,) * len(shape))

    def per_m(c, u):
        pu, pc = (np.cumprod([np.ones(np.shape(c))] + [z] * n, axis=0) for z in (u, c))
        return {s: pu[::-1] * pc + s * pc[::-1] * pu for s in (-1, 1)}

    def over_m(terms):
        return reduce(np.add, terms * e)

    h, ideal = per_m(c, u), per_m(1j, 1.0)
    with np.errstate(over="ignore"):
        total = n * np.broadcast_to(config.t_over_t2, shape)
    q = (1.0 - np.exp(-total)) / 2
    w = np.stack([1.0 - q, q] if (total > 0.0).any() else [np.ones(shape)])
    scores = {}
    for label, coefficient, s0 in protocols._CHAIN_LEAVES:
        x, signs = coefficient(c, u), (s0, -s0)[:len(w)]
        target = ideal[-1 if label[0] == "+" else 1].reshape(e.shape)
        p = np.minimum(np.stack([np.abs(x) ** 2 * over_m(np.abs(h[s]) ** 2) for s in signs]), 1.0)
        prob, alive = protocols._floored(w, p)
        own = w * (p > protocols.PROBABILITY_FLOOR)
        tt, fid = float(over_m(np.abs(target) ** 2).sum()), np.full(shape, math.nan)
        if tt >= 1e-30:
            hit = np.stack([np.abs(x * over_m(np.conj(target) * h[s])) ** 2 for s in signs])
            fid = reduce(np.add, own * hit) / (tt * qs._nonzero(reduce(np.add, own * p)))
            fid = np.where(alive, np.clip(fid, 0.0, 1.0), math.nan)
        scores[label] = (np.reshape(prob, -1).tolist(), np.reshape(fid, -1).tolist())
    return scores


def bits(values) -> list:
    """The 64 bits of each float, so that NaN equals NaN and -0.0 differs from 0.0."""
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def batched(gate, t_over_t2):
    """``gate`` over a batch of three (the cavity's g, or else t/T2), with t/T2
    scaled by 1, 2 and 3."""
    t = t_over_t2 * np.array([1.0, 2.0, 3.0])
    if isinstance(gate, RealisticGate):
        gate = RealisticGate(replace(gate.params, g=np.array([2.0, 5.0, 12.0])), gate.omega)
    return gate, t


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 40])
@pytest.mark.parametrize("gate", sorted(GATES))
@pytest.mark.parametrize("t_over_t2", [0.0, 1e-300, 0.3])
@pytest.mark.parametrize("batch", [False, True])
def test_stacked_scoring_has_the_per_leaf_loops_bits(n, gate, t_over_t2, batch):
    rng = np.random.default_rng(n + 7 * batch + int(10 * t_over_t2))
    g, t = batched(GATES[gate], t_over_t2) if batch else (GATES[gate], t_over_t2)
    for _ in range(3):
        cfg = random_config(rng, g, t)
        old, columns = _old_chain_factors(cfg, n), protocols._chain("ghz", cfg, n).columns
        assert [c.label for c in columns] == list(old)
        for c in columns:
            assert bits(c.probability) == bits(old[c.label][0]), c.label
            assert bits(c.fidelity) == bits(old[c.label][1]), c.label
        if gate == "ideal":  # the mismatched leaves are dead
            assert all(np.isnan(c.fidelity).all() for c in columns if c.label
                       in ("+45/down", "-45/up"))


@pytest.mark.parametrize("t_over_t2", [0.0, 0.3])
@pytest.mark.parametrize("gate", sorted(GATES))
def test_stacked_scoring_keeps_a_vanishing_target_unscored(gate, t_over_t2):
    # |V>|H> in: the ideal chain's A - B has no weight on the inputs, so the
    # +45 target vanishes (tt = 0) and its leaves score NaN, as before
    cfg = ProtocolConfig(gate=GATES[gate], alpha1=0, beta1=1, alpha2=1, beta2=0,
                         t_over_t2=t_over_t2)
    old = _old_chain_factors(cfg, 2)
    for c in protocols._chain("scheme-b", cfg, 2).columns:
        assert bits(c.probability) == bits(old[c.label][0]), c.label
        assert bits(c.fidelity) == bits(old[c.label][1]), c.label
        if c.label.startswith("+45"):
            assert math.isnan(c.fidelity[0])
    assert chain_multiphoton(cfg, 2).branch("+45/up").target is None


# --- what a chain run builds before it is read ----------------------------------

def counting_kets(monkeypatch) -> list:
    """One entry per ``protocols._chain_kets`` call from now on."""
    calls, kets = [], protocols._chain_kets

    def counting(*args):
        calls.append(len(args[0]))
        return kets(*args)

    monkeypatch.setattr(protocols, "_chain_kets", counting)
    return calls


def test_a_sweep_pass_and_a_sample_build_no_chain_ket(tmp_path, monkeypatch):
    calls = counting_kets(monkeypatch)
    cfg = ProtocolConfig(gate=GATES["lossy"], t_over_t2=0.3)
    spec = metrics.SweepSpec("t_over_t2", (0.1, 0.2, 0.3), cfg, "ghz", 6)
    for _, columns in metrics.sweep_columns(spec):  # every score the sweep CSV writes
        assert all(len(c.probability) == len(c.fidelity) == 3 and c.concurrence is None
                   for c in columns)
    config = tmp_path / "ghz.cfg"
    config.write_text("protocol = ghz\nghz.n_photons = 6\ngate.mode = realistic\n"
                      "cavity.kappa_s_rel = 0.2\nnoise.t_over_t2 = 0.3\n", encoding="utf-8")
    assert cli.main(["sample", "--config", str(config), "--trials", "1000",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert calls == []


def test_a_chain_target_is_built_once_on_first_read(monkeypatch):
    calls = counting_kets(monkeypatch)
    cfg = random_config(np.random.default_rng(11), GATES["lossy"], 0.3)
    result = chain_multiphoton(cfg, 6)
    assert calls == []
    targets = [c.target for c in result.columns]
    assert calls == [6]  # the ideal chain's A and B, for all four leaves
    assert targets[0] is targets[1] and targets[2] is targets[3]
    assert result.branch("+45/up").target is targets[0]
    for det, ref in reference_targets(cfg, 6).items():
        got = result.branch(det + "/down").target
        overlap = np.vdot(got.amplitudes, ref.amplitudes)
        assert np.max(np.abs(got.amplitudes * overlap / abs(overlap) - ref.amplitudes)) < 1e-14


# --- the paper's claim: deterministic, and any number of photons ----------------

@pytest.mark.parametrize("n", range(2, 33))
def test_ideal_chain_is_deterministic_at_any_length(n):
    cfg = random_config(np.random.default_rng(n))
    scores = {c.label: (c.probability[0], c.fidelity[0])
              for c in protocols._chain("ghz", cfg, n).columns}
    assert abs(sum(p for p, _ in scores.values()) - 1.0) <= 1e-12
    assert abs(scores["+45/up"][1] - 1.0) <= 1e-12


def test_lossy_chain_survival_falls_with_every_photon():
    survival = [sum(c.probability[0] for c in protocols._chain(
        "ghz", ProtocolConfig(gate=GATES["lossy"], t_over_t2=0.3), n).columns)
                for n in range(2, 33)]
    assert all(0.0 <= s <= 1.0 for s in survival)
    assert all(b < a for a, b in zip(survival, survival[1:]))


def test_scoring_forty_photons_builds_nothing_of_size_two_to_the_n(monkeypatch):
    def refused(*args):  # fails fast instead of allocating 2^40 amplitudes
        raise AssertionError("a chain run built a 2^n ket before it was read")

    monkeypatch.setattr(protocols, "_chain_kets", refused)
    cfg = ProtocolConfig(gate=GATES["lossy"], t_over_t2=0.3)
    protocols._chain("ghz", cfg, 40)  # first-call caches out of the measurement
    tracemalloc.start()
    try:
        result = protocols._chain("ghz", cfg, 40)
        scores = [(c.probability, c.fidelity, c.concurrence) for c in result.columns]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert all(0.0 < p[0] < 1.0 and 0.0 <= f[0] <= 1.0 and k is None for p, f, k in scores)
