"""The package's records (``frozen.Frozen`` subclasses): immutability,
``replace``, ``QubitLabel`` equality and hashing, the cached gate
coefficients, ``unstack`` and the construction hook the tracer counts."""
import numpy as np
import pytest

from spinphoton import cli, gates, replace
from spinphoton import qstate as qs
from spinphoton.cavity import CavityParams, ParameterError, ReflectionResponse
from spinphoton.gates import ConditionalReflectionGate, IdealGate, RealisticGate
from spinphoton.metrics import SweepSpec
from spinphoton.protocols import ProtocolBranch, ProtocolConfig, run_protocol

CAVITY = CavityParams(g=10.0, kappa=1.0, gamma=0.1)
PAIR = qs.PureState((qs.photon(1), qs.spin(1)), [0.6, 0.0, 0.0, 0.8])

RECORDS = {  # one of each record type, and a field to try to change
    "CavityParams": (CAVITY, "g"),
    "ReflectionResponse": (ReflectionResponse(1j, 1.0, 0.5), "phase"),
    "QubitLabel": (qs.photon(1), "id"),
    "PureState": (PAIR, "amplitudes"),
    "DensityState": (qs.to_density(PAIR), "matrix"),
    "ProjectiveOutcome": (qs.ProjectiveOutcome("R", 1.0, None), "label"),
    "IdealGate": (IdealGate(), "coefficients"),
    "RealisticGate": (RealisticGate(CAVITY, 0.5), "omega"),
    "ConditionalReflectionGate": (ConditionalReflectionGate(qs.photon(1), qs.spin(1), 1j, 1),
                                  "photon"),
    "ProtocolConfig": (ProtocolConfig(), "t_over_t2"),
    "ProtocolBranch": (ProtocolBranch("+45", 0.5, PAIR, None, 1.0, None), "probability"),
    "ProtocolResult": (run_protocol("scheme-b", ProtocolConfig()), "columns"),
    "SweepSpec": (SweepSpec("g_rel", (1.0, 2.0), ProtocolConfig(), "scheme-b"), "grid"),
    "RunConfig": (cli.load_config(None), "seed"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_field_cannot_be_assigned_or_deleted(name):
    record, field = RECORDS[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert getattr(record, field) is before


@pytest.mark.parametrize("make, field, shape", [(qs.PureState, "amplitudes", (2,)),
                                                (qs.DensityState, "matrix", (2, 2))])
def test_a_state_keeps_a_frozen_array_and_copies_one_its_caller_can_write(make, field, shape):
    register, data = (qs.photon(1),), np.full(shape, 0.5 + 0j)
    frozen = data.copy()
    frozen.flags.writeable = False
    real = frozen.real.copy()
    real.flags.writeable = False
    # a read-only view of a writeable array can still change under the state
    for given in (data, np.broadcast_to(data, shape), real):
        kept = getattr(make(register, given), field)
        assert not np.shares_memory(kept, data) and not kept.flags.writeable
        assert kept.dtype == np.complex128 and kept.tolist() == given.tolist()
    assert data.flags.writeable
    for given in (frozen, frozen[...]):  # read-only all the way down its base chain
        assert getattr(make(register, given), field) is given


@pytest.mark.parametrize("record, field, value", [
    (CAVITY, "g", -1.0),
    (CAVITY, "kappa", 0.0),
    (ProtocolConfig(), "t_over_t2", -1.0),
    (ProtocolConfig(), "alpha1", 2.0),
])
def test_replace_checks_the_copy_again(record, field, value):
    with pytest.raises(ParameterError) as refused:
        replace(record, **{field: value})
    assert refused.value.field in (field, "alpha1/beta1")


def test_replace_changes_only_the_fields_named():
    copy = replace(CAVITY, g=5.0)
    assert (copy.g, copy.kappa, copy.gamma, copy.omega_x) == (5.0, 1.0, 0.1, CAVITY.omega_x)
    assert CAVITY.g == 10.0
    cfg = replace(ProtocolConfig(), t_over_t2=np.array([0.1, 0.2]))
    assert cfg.gate is ProtocolConfig().gate and cfg.batch_shape == (2,)
    with pytest.raises(TypeError):
        replace(CAVITY, not_a_field=1.0)


def test_qubit_labels_are_equal_and_hash_by_kind_and_id():
    a, b = qs.QubitLabel(qs.QubitKind.PHOTON, 1), qs.photon(1)
    assert a == b and a is not b and hash(a) == hash(b) == hash((qs.QubitKind.PHOTON, 1))
    assert a != qs.spin(1) and a != qs.photon(2) and a != (qs.QubitKind.PHOTON, 1)
    assert {a: "first"}[b] == "first" and len({a, b, qs.spin(1)}) == 2
    assert (qs.spin(1), b).index(a) == 1
    assert repr(a) == "QubitLabel(kind=<QubitKind.PHOTON: 'photon'>, id=1)"


def test_the_realistic_gate_evaluates_its_coefficients_once(monkeypatch):
    calls = []
    evaluate = gates.reflection_coefficient
    monkeypatch.setattr(gates, "reflection_coefficient",
                        lambda *args, **kwargs: calls.append(1) or evaluate(*args, **kwargs))
    gate = RealisticGate(CAVITY, 0.5)
    first = gate.coefficients
    assert gate.coefficients is first and len(calls) == 2  # coupled, then uncoupled


@pytest.mark.parametrize("density", [False, True])
def test_unstacked_elements_read_back_their_fields(density):
    state = qs.PureState(PAIR.register, np.stack([PAIR.amplitudes, PAIR.amplitudes[::-1]]),
                         np.array([0.25, 0.5]))
    if density:
        state = qs.to_density(state)
    data = state.matrix if density else state.amplitudes
    for i, element in enumerate(qs.unstack(state, (2,))):
        assert type(element) is type(state) and element.register == PAIR.register
        assert element.batch_shape == () and element.norm_tracking == [0.25, 0.5][i]
        assert np.array_equal(element.matrix if density else element.amplitudes, data[i])


def test_every_state_constructor_calls_post_init(monkeypatch):
    # bench/tracing.py counts the states built by wrapping __post_init__
    built = []
    for cls in (qs.PureState, qs.DensityState):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, original=original: built.append(type(self)) or
                            original(self))
    qs.to_density(qs.tensor(qs.ket_state(qs.photon(1), "H"), qs.ket_state(qs.spin(1), "up")))
    assert built == [qs.PureState] * 3 + [qs.DensityState]
