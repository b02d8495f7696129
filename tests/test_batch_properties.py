"""Batched sweeps against single runs, over randomized inputs.

``run_sweep`` runs a whole grid as one batched protocol pass. Every row it
returns must equal, bit for bit, the unbatched ``run_protocol`` at that grid
point, and the physical invariants must hold on every row. Hypothesis draws
the cavity (kappa_s > 0, omega_x != omega_c), the input amplitudes, the gate
mode, the dephasing and the grid; the profile is derandomized so that the
suite is deterministic.
"""
import math
from spinphoton import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinphoton import metrics
from spinphoton.cavity import CavityParams
from spinphoton.gates import IdealGate, RealisticGate
from spinphoton.metrics import SWEEP_PARAMETERS, SweepSpec, run_sweep
from spinphoton.protocols import (
    PROTOCOL_NAMES,
    ProtocolConfig,
    merged_detection_branch,
    run_protocol,
)
from spinphoton.qstate import DensityState

settings.register_profile(
    "spinphoton-derandomized", derandomize=True, database=None, deadline=None,
    max_examples=12, suppress_health_check=[HealthCheck.too_slow])
DERANDOMIZED = settings.get_profile("spinphoton-derandomized")

PROTOCOL_CASES = [("scheme-a", 3), ("scheme-b", 3), ("transfer-ps", 3),
                  ("transfer-sp", 3), ("ghz", 3), ("ghz", 4), ("ghz", 5), ("ghz", 6)]


@st.composite
def cavities(draw):
    kappa = draw(st.floats(0.5, 2.0))
    omega_c = draw(st.floats(-1.0, 1.0))
    offset = draw(st.floats(0.05, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
    return CavityParams(
        g=draw(st.floats(0.5, 20.0)) * kappa,
        kappa=kappa,
        gamma=draw(st.floats(0.01, 1.0)) * kappa,
        omega_c=omega_c,
        omega_x=omega_c + offset * kappa,
        kappa_s=draw(st.floats(0.01, 0.5)) * kappa,
    )


@st.composite
def amplitude_pairs(draw):
    theta = draw(st.floats(0.0, math.pi / 2))
    phases = [draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(2)]
    return (complex(math.cos(theta) * np.exp(1j * phases[0])),
            complex(math.sin(theta) * np.exp(1j * phases[1])))


@st.composite
def sweeps(draw, protocol: str, n_photons: int):
    """A SweepSpec; t_over_t2 grids always contain 0."""
    realistic = draw(st.booleans())
    cavity = draw(cavities())
    gate = (RealisticGate(cavity, cavity.omega_c + draw(st.floats(0.2, 1.0)) * cavity.kappa)
            if realistic else IdealGate())
    (a1, b1), (a2, b2) = draw(amplitude_pairs()), draw(amplitude_pairs())
    t = draw(st.sampled_from([0.0, 0.05, 0.7]))
    config = ProtocolConfig(gate=gate, alpha1=a1, beta1=b1, alpha2=a2, beta2=b2,
                            t_over_t2=t)
    parameter = draw(st.sampled_from(SWEEP_PARAMETERS if realistic else ("t_over_t2",)))
    values = draw(st.lists(st.floats(0.01, 4.0), min_size=1, max_size=5, unique=True))
    if parameter == "t_over_t2":
        values.append(0.0)
    return SweepSpec(parameter, tuple(sorted(values)), config, protocol, n_photons)


def config_at(spec: SweepSpec, value: float) -> ProtocolConfig:
    """The unbatched config of one grid point, as a single run would build it."""
    cfg = spec.config
    if spec.parameter == "t_over_t2":
        return replace(cfg, t_over_t2=value)
    p = cfg.gate.params
    if spec.parameter == "detuning_rel":
        return replace(cfg, gate=RealisticGate(p, p.omega_c + value * p.kappa))
    field = {"g_rel": "g", "gamma_rel": "gamma", "kappa_s_rel": "kappa_s"}[spec.parameter]
    return replace(cfg, gate=RealisticGate(replace(p, **{field: value * p.kappa}),
                                           cfg.gate.omega))


def same(a, b) -> bool:
    """Bitwise equality of floats, with NaN equal to NaN and None to None."""
    if a is None or b is None:
        return a is b
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_rows_match_single_runs(spec: SweepSpec) -> None:
    rows = run_sweep(spec)
    k = 0
    for value in spec.grid:
        result = run_protocol(spec.protocol, config_at(spec, value), n_photons=spec.n_photons)
        point = rows[k:k + len(result.branches)]
        k += len(result.branches)
        assert [r["swept_value"] for r in point] == [value] * len(point)
        for row, br in zip(point, result.branches):
            assert row["branch_label"] == br.label
            assert same(row["probability"], br.probability)
            assert same(row["success_probability"], br.probability)
            assert same(row["fidelity"], br.fidelity_vs_target)
            assert same(row["concurrence"], br.concurrence)
            assert_scores_in_range(row, has_target=br.target is not None)
        assert math.fsum(r["probability"] for r in point) <= 1.0 + 1e-12
    assert k == len(rows)


def assert_scores_in_range(row: dict, has_target: bool) -> None:
    """Fidelity and concurrence lie in [0, 1] on a live branch and are NaN on a
    zero-probability one. A branch whose target vector vanishes (e.g. scheme
    A's H branch for alpha1 = 1, beta2 = 0) has no fidelity even when a lossy
    gate makes it live."""
    live = row["probability"] > 0.0
    for key, defined in (("fidelity", has_target), ("concurrence", True)):
        x = row[key]
        if x is None:
            continue
        if live and defined:
            assert 0.0 <= x <= 1.0, (key, row)
        else:
            assert math.isnan(x), (key, row)


@pytest.mark.parametrize("protocol,n_photons", PROTOCOL_CASES)
@DERANDOMIZED
@given(data=st.data())
def test_sweep_rows_equal_single_runs_bitwise(protocol, n_photons, data):
    assert_rows_match_single_runs(data.draw(sweeps(protocol, n_photons)))


def test_sweep_across_passes_equals_single_runs(monkeypatch):
    # a small cap splits the grid into several passes, one run_protocol each
    monkeypatch.setattr(metrics, "MAX_BATCH_AMPLITUDES", 2 ** 7)
    calls = []

    def counting(name, config, n_photons=3):
        calls.append(config.batch_shape)
        return run_protocol(name, config, n_photons)

    monkeypatch.setattr("spinphoton.protocols.run_protocol", counting)
    cavity = CavityParams(g=6.0, kappa=1.0, gamma=0.2, omega_x=0.1, kappa_s=0.1)
    config = ProtocolConfig(gate=RealisticGate(cavity, 0.5), alpha1=0.6, beta1=0.8j)
    spec = SweepSpec("g_rel", tuple(np.linspace(1.0, 12.0, 19)), config, "scheme-b")
    assert_rows_match_single_runs(spec)
    # 2**7 values a pass, 19 per scheme-b element: 3 per-m terms and a 4x4 pair
    assert calls == [(6,), (6,), (6,), (1,)]


def test_dephasing_sweep_runs_zero_point_apart():
    spec = SweepSpec("t_over_t2", (0.0, 0.2, 1.5), ProtocolConfig(), "scheme-b")
    assert metrics._passes(spec)[0].tolist() == [0.0]
    assert_rows_match_single_runs(spec)


def test_batched_config_returns_one_result_per_element():
    cavity = CavityParams(g=np.array([2.0, 5.0, 9.0]), kappa=1.0, gamma=0.1, kappa_s=0.1)
    batch = run_protocol("transfer-sp", ProtocolConfig(gate=RealisticGate(cavity, 0.5)))
    assert batch.batch_shape == (3,)
    k = len(batch.columns)
    for i, g in enumerate((2.0, 5.0, 9.0)):
        single = run_protocol("transfer-sp", ProtocolConfig(
            gate=RealisticGate(replace(cavity, g=g), 0.5)))
        assert single.batch_shape == ()
        for a, b in zip(batch.branches[i * k:(i + 1) * k], single.branches, strict=True):
            assert a.label == b.label
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
            assert a.state.norm_tracking == b.state.norm_tracking


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_batched_branches_run_element_by_element_then_label_by_label(protocol):
    # bench/tracing.py counts len(result.branches) of batched runs, and
    # bench/checks.py reads the branches of single runs, in this order
    cavity = CavityParams(g=np.array([2.0, 5.0, 9.0]), kappa=1.0, gamma=0.1, kappa_s=0.1)
    t = np.array([[0.1], [0.4]])
    result = run_protocol(protocol, ProtocolConfig(gate=RealisticGate(cavity, 0.5),
                                                   t_over_t2=t), n_photons=4)
    assert result.batch_shape == (2, 3)
    labels = [c.label for c in result.columns]
    assert len(result.branches) == 6 * len(labels)
    assert [b.label for b in result.branches] == labels * 6
    for i, (j, g) in enumerate(np.ndindex(2, 3)):
        single = run_protocol(protocol, ProtocolConfig(
            gate=RealisticGate(replace(cavity, g=cavity.g[g]), 0.5), t_over_t2=t[j, 0]),
            n_photons=4)
        got = result.branches[i * len(labels):(i + 1) * len(labels)]
        assert [(b.label, b.probability) for b in got] == \
            [(b.label, b.probability) for b in single.branches]


def test_mixed_zero_and_positive_dephasing_batch_rejected():
    with pytest.raises(ValueError, match="all zero or all positive"):
        ProtocolConfig(t_over_t2=np.array([0.0, 0.5]))


def assert_exactly_hermitian(mat: np.ndarray) -> None:
    """Bit for bit over the trailing two axes: each off-diagonal real part equals
    its mirror's, each off-diagonal imaginary part equals its mirror's negation,
    and each diagonal imaginary part is +0.0."""
    def bits(x):
        return np.ascontiguousarray(x).view(np.int64)

    mirror = np.swapaxes(mat, -1, -2)
    off = ~np.eye(mat.shape[-1], dtype=bool)
    assert np.array_equal(bits(mat.real), bits(mirror.real))
    assert np.array_equal(bits(mat.imag)[..., off], bits(-mirror.imag)[..., off])
    assert not np.diagonal(bits(mat.imag), 0, -2, -1).any()


@st.composite
def dephased_configs(draw, batched: bool):
    """A ProtocolConfig with t_over_t2 > 0: a batch of one to four values when
    ``batched``, and then also a batch of couplings when the gate is realistic."""
    realistic = draw(st.booleans())
    cavity = draw(cavities())
    if realistic and batched and draw(st.booleans()):
        cavity = replace(cavity, g=np.array(draw(st.lists(
            st.floats(0.5, 20.0), min_size=2, max_size=3))) * cavity.kappa)
    gate = (RealisticGate(cavity, cavity.omega_c + draw(st.floats(0.2, 1.0)) * cavity.kappa)
            if realistic else IdealGate())
    (a1, b1), (a2, b2) = draw(amplitude_pairs()), draw(amplitude_pairs())
    t = draw(st.lists(st.floats(0.01, 4.0), min_size=1, max_size=4)) if batched else [
        draw(st.floats(0.01, 4.0))]
    return ProtocolConfig(gate=gate, alpha1=a1, beta1=b1, alpha2=a2, beta2=b2,
                          t_over_t2=np.array(t)[:, None] if batched else t[0])


@pytest.mark.parametrize("protocol,n_photons", [
    *((name, 3) for name in PROTOCOL_NAMES if name != "ghz"),
    *(("ghz", n) for n in range(2, 7))])
@pytest.mark.parametrize("batched", [False, True])
@DERANDOMIZED
@given(data=st.data())
def test_every_density_matrix_is_exactly_hermitian(protocol, n_photons, batched, data):
    result = run_protocol(protocol, data.draw(dephased_configs(batched)), n_photons=n_photons)
    assert bool(result.batch_shape) == batched
    states = [c.state for c in result.columns]
    assert all(isinstance(s, DensityState) for s in states) == (protocol != "transfer-ps")
    for state in states:
        if isinstance(state, DensityState):
            assert_exactly_hermitian(state.matrix)


@pytest.mark.parametrize("g", [1.0, 2.0, 5.0, 10.0, 50.0])
def test_merged_detection_branch_is_exactly_hermitian(g):
    # demo 03's heralded +45 pair: the mixture of the +45/up and +45/down branches
    cfg = ProtocolConfig(gate=RealisticGate(CavityParams(g=g, kappa=1.0, gamma=0.1), 0.5))
    merged = merged_detection_branch(run_protocol("scheme-b", cfg), "+45")
    assert isinstance(merged.state, DensityState)
    assert_exactly_hermitian(merged.state.matrix)
