"""The CLI's output writers against the pipeline they replaced.

The reference below is the old path, kept here only: every complex number
became a ``[re, im]`` list one at a time (``_c2pair``), a walk over the whole
document turned NaN into None (``_sanitize``), the sweep CSV joined one
``f"{x:.17g}"`` string per cell (``_fmt``), and the sample CSV joined one
``str(i)`` and one label string per row (``_old_sample_rows``). The CLI must
write the same bytes.
"""
import json
import math
import os
import random
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphoton import cli, floatrows, metrics, protocols
from spinphoton import qstate as qs
from spinphoton.metrics import SweepSpec, run_sweep
from spinphoton.protocols import ProtocolBranch, ProtocolResult, run_protocol
from matrix_oracle import mirrored
from test_batch_properties import DERANDOMIZED


# --- the old pipeline, as the reference ------------------------------------------

def _c2pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _sanitize(obj):
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    return obj


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


def reference_protocol_json(run, result):
    echo = dict(run.echo)
    echo["amplitudes"] = {k: _c2pair(getattr(run.config, k))
                          for k in ("alpha1", "beta1", "alpha2", "beta2")}
    branches = []
    for br in result.branches:
        state = br.state
        payload = {"label": br.label, "probability": br.probability,
                   "register": [str(q) for q in state.register],
                   "basis": state.basis_strings()}
        if isinstance(state, qs.PureState):
            payload["amplitudes"] = [_c2pair(z) for z in state.amplitudes]
        else:
            payload["density_matrix"] = [[_c2pair(z) for z in row] for row in state.matrix]
        payload["fidelity"] = br.fidelity_vs_target
        payload["concurrence"] = br.concurrence
        payload["success_probability"] = br.probability
        branches.append(payload)
    doc = {"protocol": run.protocol, "config": echo, "branches": branches}
    return json.dumps(_sanitize(doc), indent=2) + "\n"


def reference_sweep_csv(rows):
    lines = ["swept_name,swept_value,branch_label,probability,fidelity,"
             "concurrence,success_probability"]
    for r in rows:
        lines.append(",".join([
            r["swept_name"], _fmt(r["swept_value"]), r["branch_label"],
            _fmt(r["probability"]), _fmt(r["fidelity"]),
            _fmt(r["concurrence"]), _fmt(r["success_probability"]),
        ]))
    return "\n".join(lines) + "\n"


# --- randomized inputs -----------------------------------------------------------

SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 1.0, 5e-324]


def _special_floats(rng, shape, special=SPECIAL):
    """Random doubles with a share of signed zeros, subnormals and tiny values."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 3, shape)
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(special, int(pick.sum()))
    return x


def _score(rng):
    return [math.nan, 0.0, -0.0, 1e-300, 1.0, float(rng.random()),
            np.float64(rng.random())][int(rng.integers(7))]


def _random_branch(rng, n_qubits, density, special=SPECIAL):
    register = tuple(qs.photon(k + 1) if rng.random() < 0.7 else qs.spin(k + 1)
                     for k in range(n_qubits))
    dim = 2 ** n_qubits
    shape = (dim, dim) if density else (dim,)
    data = _special_floats(rng, shape, special) + 1j * _special_floats(rng, shape, special)
    state = (qs.DensityState(register, data) if density
             else qs.PureState(register, data))
    conc = [None, math.nan, _score(rng)][int(rng.integers(3))]
    return ProtocolBranch(label=f"b{int(rng.integers(100))}",
                          probability=[0.0, -0.0, 1e-300, float(rng.random())][
                              int(rng.integers(4))],
                          state=state, target=None, fidelity_vs_target=_score(rng),
                          concurrence=conc)


def _column(label, probability, fidelity, concurrence=None, state=None, target=None):
    """A column of these score lists, read as the writers read a BranchColumn."""
    return SimpleNamespace(label=label, probability=probability, fidelity=fidelity,
                           concurrence=concurrence, state=state, target=target)


def _single_run(branches, protocol="ghz"):
    """The ProtocolResult of one run (batch shape ()) whose branches are these."""
    return ProtocolResult(protocol, (), tuple(
        _column(b.label, [b.probability], [b.fidelity_vs_target],
                None if b.concurrence is None else [b.concurrence], b.state, b.target)
        for b in branches))


def _random_config(rng):
    text = f"protocol = ghz\nghz.n_photons = {int(rng.integers(2, 7))}\n"
    if rng.random() < 0.5:
        text += "gate.mode = realistic\ncavity.kappa_s_rel = 0.2\n"
    theta, phi = rng.uniform(0, math.pi / 2, 2)
    a, b = math.cos(theta), math.sin(theta)
    text += f"alpha1 = {a!r}-0j\nbeta1 = {b * math.cos(phi)!r}+{b * math.sin(phi)!r}j\n"
    return text


def _lines(text):
    # a list compares bytes like the string, and a failure reports the first line
    return text.splitlines(keepends=True)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("seed", range(6))
def test_protocol_json_equals_the_old_pipeline_on_random_branches(tmp_path, monkeypatch,
                                                                   seed):
    rng = np.random.default_rng(seed)
    cfg = _write(tmp_path / "c.cfg", _random_config(rng))
    branches = tuple(_random_branch(rng, int(rng.integers(1, 5)), rng.random() < 0.5)
                     for _ in range(int(rng.integers(1, 6))))
    result = _single_run(branches)
    monkeypatch.setattr(cli, "run_protocol", lambda *args, **kwargs: result)
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    run = cli.load_config(cfg)
    expected = reference_protocol_json(run, result)
    assert _lines(out.read_text(encoding="utf-8")) == _lines(expected)


@pytest.mark.parametrize("seed", range(3))
def test_protocol_json_equals_the_old_pipeline_at_ghz_size_and_with_no_branches(
        tmp_path, monkeypatch, seed):
    # 64 amplitudes and 64x64 matrices, as ghz n = 6 writes them, with the
    # extremes of the double range and floats whose repr is short
    rng = np.random.default_rng(100 + seed)
    special = SPECIAL + [1e308, -1e308, 2.2250738585072014e-308, 0.1, 10.0, -1e16]
    cfg = _write(tmp_path / "c.cfg", _random_config(rng))
    run = cli.load_config(cfg)
    out = tmp_path / "p.json"
    for branches in [tuple(_random_branch(rng, 6, density, special)
                           for density in (False, True, True)), ()]:
        result = _single_run(branches)
        monkeypatch.setattr(cli, "run_protocol", lambda *args, **kwargs: result)
        assert cli.main(["protocol", "--config", cfg, "--out", str(out)]) == 0
        expected = reference_protocol_json(run, result)
        assert _lines(out.read_text(encoding="utf-8")) == _lines(expected)


@pytest.mark.parametrize("seed", range(4))
def test_protocol_json_equals_the_old_pipeline_on_hermitian_branches(tmp_path, monkeypatch,
                                                                      seed):
    # the writer formats each distinct magnitude once and must still write json's
    # bytes; every other branch has a fifth of its entries redrawn, so that
    # mirrored and unmirrored pairs share a matrix
    rng = np.random.default_rng(200 + seed)
    special = SPECIAL + [1e308, -1e308]
    cfg = _write(tmp_path / "c.cfg", _random_config(rng))
    branches = []
    for k in range(int(rng.integers(2, 6))):
        br = _random_branch(rng, int(rng.integers(1, 7)), True, special)
        mat = mirrored(br.state.matrix)
        if k % 2:
            redraw = rng.random(mat.shape) < 0.2
            mat[redraw] = (_special_floats(rng, mat.shape, special)
                           + 1j * _special_floats(rng, mat.shape, special))[redraw]
        branches.append(ProtocolBranch(br.label, br.probability,
                                       qs.DensityState(br.state.register, mat), None,
                                       br.fidelity_vs_target, br.concurrence))
    result = _single_run(branches)
    monkeypatch.setattr(cli, "run_protocol", lambda *args, **kwargs: result)
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    expected = reference_protocol_json(cli.load_config(cfg), result)
    assert _lines(out.read_text(encoding="utf-8")) == _lines(expected)


def test_a_mirrored_zero_imaginary_part_is_written_with_its_sign():
    # 0.0 and -0.0 share a magnitude: the sign bit alone picks "-0.0"
    upper_plus = np.array([[1.0, complex(0.5, 0.0)], [complex(0.5, -0.0), 0.0]])
    assert cli._dump(upper_plus) == json.dumps(
        [[[1.0, 0.0], [0.5, 0.0]], [[0.5, -0.0], [0.0, 0.0]]], indent=2)
    # equal by value but not bit for bit: each entry keeps its own sign
    both_plus = np.array([[1.0, complex(-0.0, 0.0)], [complex(0.0, 0.0), 0.0]])
    assert cli._dump(both_plus) == json.dumps(
        [[[1.0, 0.0], [-0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], indent=2)
    # the engine keeps the lower triangle, so a real mixture gets -0.0 above it
    engine = qs.make_hermitian(np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex))
    assert cli._dump(engine) == json.dumps(
        [[[0.75, 0.0], [0.25, -0.0]], [[0.25, 0.0], [0.25, 0.0]]], indent=2)


SQH = 1.0 / math.sqrt(2.0)


def _json_pairs(matrix):
    return [[_c2pair(z) for z in row] for row in matrix]


def _product_state_matrix():
    # a rank-1 product of single-qubit factors, as the chain's photons 3..n give
    ket = np.ones(1, dtype=complex)
    for a, b in [(0.6, 0.8j), (0.8, -0.6), *[(SQH, SQH)] * 4]:
        ket = np.kron(ket, [a, b])
    return np.outer(ket, ket.conj())


_GENERIC = np.random.default_rng(7).standard_normal((2, 16, 16))
REPEATING_MATRICES = {
    "all-equal": np.full((8, 8), complex(0.125, -0.125)),
    "plus-minus-pairs": np.array([[1.5, -1.5 + 0.25j], [-1.5 - 0.25j, 1.5j]]),
    "signed-zeros": np.array([[0.0, -0.0 + 0.0j], [complex(0.0, -0.0), complex(-0.0, -0.0)]]),
    "smallest-subnormal": np.array([[5e-324, -5e-324j], [complex(-5e-324, 5e-324), 0.0]]),
    "largest": np.array([[1e308, -1e308 + 1e308j], [complex(-1e308, -1e308), 1.0]]),
    "product-state": _product_state_matrix(),
    "generic-hermitian": qs.make_hermitian(_GENERIC[0] + 1j * _GENERIC[1]),
}


def _counting_repr(monkeypatch) -> list:
    """The floats the writer formats: a ``repr`` in ``cli``'s namespace that logs."""
    calls = []

    def counting(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(cli, "repr", counting, raising=False)
    return calls


@pytest.mark.parametrize("name", REPEATING_MATRICES)
def test_a_matrix_formats_each_distinct_magnitude_once(monkeypatch, name):
    matrix = REPEATING_MATRICES[name]
    calls = _counting_repr(monkeypatch)
    assert cli._dump(matrix) == json.dumps(_json_pairs(matrix), indent=2)
    floats = np.stack([matrix.real, matrix.imag], -1).ravel()
    magnitudes = {abs(x).hex() for x in floats.tolist()}  # -0.0 and 0.0 are one
    assert len(calls) == len(magnitudes)
    assert {x.hex() for x in calls} == magnitudes


def test_a_document_formats_each_distinct_magnitude_once(monkeypatch):
    # a vector, a matrix and 0-d amplitudes that share magnitudes with each
    # other and with signs flipped, between scalars, keys and empty containers
    vector = np.array([SQH, SQH, -SQH, 0.0j, 0.25 - 0.5j])
    matrix = np.array([[0.5, -0.25 + SQH * 1j], [-0.25 - SQH * 1j, 0.5]])
    doc = {"amplitudes": {"alpha1": np.array(SQH + 0j), "beta1": np.array(-0.5j)},
           "seed": 3, "empty": [], "none": {},
           "branches": [{"label": "H", "amplitudes": vector, "probability": 0.25},
                        {"label": "V", "density_matrix": matrix, "fidelity": None}]}
    calls = _counting_repr(monkeypatch)
    expected = json.dumps({
        **doc, "amplitudes": {k: _c2pair(a) for k, a in doc["amplitudes"].items()},
        "branches": [{**doc["branches"][0], "amplitudes": [_c2pair(z) for z in vector]},
                     {**doc["branches"][1], "density_matrix": _json_pairs(matrix)}]},
        indent=2)
    assert cli._dump(doc) == expected
    floats = np.concatenate([np.stack([a.real, a.imag], -1).ravel()
                             for a in (*doc["amplitudes"].values(), vector, matrix)])
    magnitudes = {abs(x).hex() for x in floats.tolist()}
    assert len(calls) == len(magnitudes) == 4  # 1/sqrt2, 0, 0.5 and 0.25, either sign
    assert {x.hex() for x in calls} == magnitudes


def _spy_reprs(monkeypatch) -> list:
    """The array lists ``_dump`` hands ``_reprs``, one per call."""
    calls, reprs = [], cli._reprs

    def spy(arrays):
        calls.append(list(arrays))
        return reprs(arrays)

    monkeypatch.setattr(cli, "_reprs", spy)
    return calls


def _plain(node):
    """``node`` with each complex array as nested [re, im] lists."""
    if isinstance(node, np.ndarray):
        return np.stack([node.real, node.imag], -1).tolist()
    if isinstance(node, dict):
        return {k: _plain(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_plain(v) for v in node]
    return node


@pytest.mark.parametrize("n", range(3, 7))
def test_a_dephased_chain_formats_its_shared_matrices_once(tmp_path, monkeypatch, n):
    # the benchmark's lossy realistic gate: every leaf is alive, and each -45
    # leaf holds its +45 partner's density matrix, the same object
    cfg = _write(tmp_path / "c.cfg", f"protocol = ghz\nghz.n_photons = {n}\n"
                 "gate.mode = realistic\ncavity.kappa_s_rel = 0.2\nnoise.t_over_t2 = 0.3\n")
    run = cli.load_config(cfg)
    columns = run_protocol(run.protocol, run.config, n_photons=run.n_photons).columns
    doc = {"protocol": run.protocol, "config": run.echo,
           "branches": [cli._branch_payload(c) for c in columns]}
    matrices = [b["density_matrix"] for b in doc["branches"]]
    assert [m.shape for m in matrices] == [(2 ** n, 2 ** n)] * 4
    assert len({id(m) for m in matrices}) == 2
    calls = _spy_reprs(monkeypatch)
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    [arrays] = calls
    assert len({id(a) for a in arrays}) == len(arrays)  # each array once
    assert sum(2 * a.size for a in arrays if a.ndim == 2) == 2 * 2 * 4 ** n
    assert sum(2 * a.size for a in arrays) == 2 * 2 * 4 ** n + 8  # and the 4 amplitudes
    assert out.read_text(encoding="utf-8") == json.dumps(_plain(doc), indent=2) + "\n"


def test_equal_arrays_that_are_distinct_objects_are_each_written(monkeypatch):
    matrix = REPEATING_MATRICES["generic-hermitian"]
    twin = matrix.copy()
    doc = {"a": matrix, "b": [twin, [matrix]], "c": {"d": twin, "e": matrix}}
    calls = _spy_reprs(monkeypatch)
    assert cli._dump(doc) == json.dumps(_plain(doc), indent=2)
    assert [id(a) for a in calls.pop()] == [id(matrix), id(twin)]


def _old_template(shape, depth):
    # the construction _template replaced: the recursive writer's text for a
    # zero array (json's, indented by depth), split at each float
    text = json.dumps(np.zeros(shape + (2,)).tolist(), indent=2)
    return text.replace("\n", "\n" + "  " * depth).split("0.0")


@pytest.mark.parametrize("shape", [(), (0,), (1,), (5,), (1, 1), (2, 3), (64, 64),
                                   (0, 3), (3, 0), (2, 1, 2)])
@pytest.mark.parametrize("depth", range(5))
def test_template_equals_the_recursive_construction(shape, depth):
    assert cli._template.__wrapped__(shape, depth) == _old_template(shape, depth)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 0)])
def test_an_empty_array_is_written_as_json_writes_it(shape):
    doc = {"a": np.zeros(shape, dtype=complex), "b": [np.array(1j)]}
    assert cli._dump(doc) == json.dumps(
        {"a": np.zeros(shape + (2,)).tolist(), "b": [[0.0, 1.0]]}, indent=2)


# --- _dump against json on seeded random documents ---------------------------------
# drawn from random.Random, so a draw does not move when a package literal does

FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-300, 0.1, 1.0 / 3.0, -2.5]
CHARS = ["a", "Z", " ", ":", ",", "[", "{", '"', "\\", "/", "\n", "\t", "\0", "\x1f", "\x7f",
         "\u00e9", "\u2028", "\U0001F600"]


def _random_float(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return rng.choice(FLOATS)
    return rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-20, 20)


def _random_string(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return "\0"
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(5)))


def _random_document(rng: random.Random, drawn, level: int = 0, within: str = "top"):
    """A random document up to 5 levels deep, and what json writes in its
    place: the same document with each complex array as nested [re, im] lists.
    ``drawn.arrays`` holds each array drawn for the document, with its level;
    about half of the places that take an array take one of those, the same
    object again, and each time (its level is this one's, the kind of its
    container) is added to ``drawn.reused``."""
    pick = rng.random()
    if level < 5 and pick < 0.4:
        kind = rng.choice(("list", "dict"))
        items = [_random_document(rng, drawn, level + 1, kind)
                 for _ in range(rng.randrange(5))]
        if kind == "list":
            return [doc for doc, _ in items], [plain for _, plain in items]
        keys = [_random_string(rng) for _ in items]
        return (dict(zip(keys, (doc for doc, _ in items))),
                dict(zip(keys, (plain for _, plain in items))))
    if pick < 0.65:
        if drawn.arrays and rng.random() < 0.5:
            a, plain, at = rng.choice(drawn.arrays)
            drawn.reused.add((at == level, within))
            return a, plain
        # 0-d, empty, or 1 to 3 dims
        shape = tuple(rng.randrange(4) for _ in range(rng.randrange(4)))
        a = np.array([complex(_random_float(rng), _random_float(rng))
                      for _ in range(math.prod(shape))], dtype=complex).reshape(shape)
        plain = np.stack([a.real, a.imag], -1).tolist()
        drawn.arrays.append((a, plain, level))
        return a, plain
    x = [rng.randint(-10 ** 20, 10 ** 20), True, False, None, _random_float(rng),
         _random_string(rng)][rng.randrange(6)]
    return x, x


@pytest.mark.parametrize("seed", range(4))
def test_dump_equals_json_on_random_documents(seed):
    rng, reused = random.Random(seed), set()
    for _ in range(75):
        drawn = SimpleNamespace(arrays=[], reused=set())
        doc, plain = _random_document(rng, drawn)
        assert cli._dump(doc) == json.dumps(plain, indent=2)
        reused |= drawn.reused
    # an array came back in a list and as a dict value, at its own level and another
    assert reused == {(True, "list"), (False, "list"), (True, "dict"), (False, "dict")}
    # a string that reads like json's text for an array is written as a string
    doc = {"\0": "\0", "null": ["null", np.array(1j), "\0"]}
    plain = {"\0": "\0", "null": ["null", [0.0, 1.0], "\0"]}
    assert cli._dump(doc) == json.dumps(plain, indent=2)


@pytest.mark.parametrize("value", [np.int64(3), {1, 2}])
def test_a_value_json_cannot_write_raises_type_error(value):
    for doc in (value, [value], {"a": [1.0, value]}):
        with pytest.raises(TypeError):
            cli._dump(doc)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_a_non_finite_number_raises_value_error(x):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        cli._dump({"a": [1.0, x]})
    with pytest.raises(ValueError, match=r"non-finite value in a complex array of shape \(2, 1\)"):
        cli._dump({"a": [np.array([[1j], [complex(0.0, x)]])]})


@pytest.mark.parametrize("config", [
    *(f"protocol = ghz\nghz.n_photons = {n}\n" for n in range(2, 7)),
    *(f"protocol = ghz\nghz.n_photons = {n}\ngate.mode = realistic\n"
      "cavity.kappa_s_rel = 0.3\nnoise.t_over_t2 = 0.4\n" for n in range(2, 7)),
    "protocol = scheme-a\nalpha1 = 1\nbeta1 = -0j\nbeta2 = 0\nalpha2 = 1\n"
    "gate.mode = realistic\ncavity.g_rel = 1\ncavity.gamma_rel = 1\n"
    "cavity.kappa_s_rel = 0.5\ncavity.omega_x_rel = -0.5\ngate.detuning_rel = 1\n",
    "protocol = transfer-ps\nnoise.t_over_t2 = 0.3\n",
    "protocol = transfer-sp\nnoise.t_over_t2 = 0.3\nalpha1 = 0.6\nbeta1 = 0.8j\n",
])
def test_protocol_json_equals_the_old_pipeline_on_real_runs(tmp_path, config):
    cfg = _write(tmp_path / "c.cfg", config)
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    run = cli.load_config(cfg)
    result = run_protocol(run.protocol, run.config, n_photons=run.n_photons)
    expected = reference_protocol_json(run, result)
    assert _lines(out.read_text(encoding="utf-8")) == _lines(expected)


@pytest.mark.parametrize("seed", range(4))
def test_sweep_csv_equals_the_old_pipeline_on_random_rows(tmp_path, monkeypatch, seed):
    # random score columns in place of the sweep's passes; a label either has
    # a concurrence column or none, as a branch's register size is fixed
    rng = np.random.default_rng(seed)
    labels = [f"+45/{k}" for k in range(int(rng.integers(1, 5)))]
    n = int(rng.integers(1, 9000 // len(labels)))  # up to three 4096-row chunks
    values = _special_floats(rng, (n,)).tolist()
    columns = []
    for label in labels:
        prob, fid = _special_floats(rng, (2, n)).tolist()
        fid = [math.nan if i % 5 == 0 else f for i, f in enumerate(fid)]
        conc = None if rng.random() < 0.4 else [_score(rng) for _ in range(n)]
        columns.append(_column(label, prob, fid, conc))
    cuts = [0, *sorted(rng.integers(0, n + 1, int(rng.integers(0, 3)))), n]
    passes = [(values[a:b], [_column(
        c.label, c.probability[a:b], c.fidelity[a:b],
        None if c.concurrence is None else c.concurrence[a:b]) for c in columns])
        for a, b in zip(cuts, cuts[1:]) if b > a]  # the grid in one to three passes
    rows = [{"swept_name": "t_over_t2", "swept_value": v, "branch_label": c.label,
             "probability": c.probability[i], "fidelity": c.fidelity[i],
             "concurrence": None if c.concurrence is None else c.concurrence[i],
             "success_probability": c.probability[i]}
            for i, v in enumerate(values) for c in columns]
    monkeypatch.setattr(cli, "sweep_columns", lambda spec: passes)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--sweep", "t_over_t2", "--grid=0:1:3",
                     "--out", str(out)]) == 0
    assert _lines(out.read_text(encoding="utf-8")) == _lines(reference_sweep_csv(rows))


@pytest.mark.parametrize("config, sweep, grid", [
    ("protocol = ghz\nghz.n_photons = 6\ngate.mode = realistic\n", "t_over_t2",
     "--grid=0:2:150"),  # the zero point apart, then one dephased pass
    ("protocol = scheme-a\ngate.mode = realistic\nalpha1 = 1\nbeta1 = 0\n", "g_rel",
     "--grid=0:20:1500"),  # zero-probability branches, several passes
    ("protocol = transfer-sp\ngate.mode = realistic\n", "detuning_rel", "--grid=-2:2:41"),
    ("protocol = scheme-b\n", "t_over_t2",
     "--grid=0:1.5:7"),  # ideal gate: exactly-zero branches with NaN fidelity
])
def test_sweep_csv_equals_the_old_pipeline_on_batched_sweeps(tmp_path, config, sweep, grid):
    cfg = _write(tmp_path / "c.cfg", config)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", cfg, "--sweep", sweep, grid,
                     "--out", str(out)]) == 0
    run = cli.load_config(cfg)
    rows = run_sweep(SweepSpec(parameter=sweep, grid=tuple(cli.parse_grid(grid[7:])),
                               config=run.config, protocol=run.protocol,
                               n_photons=run.n_photons))
    assert _lines(out.read_text(encoding="utf-8")) == _lines(reference_sweep_csv(rows))


def test_a_long_ghz_sweep_runs_as_one_pass(tmp_path, monkeypatch):
    # a chain pass is sized by its n + 1 per-m terms per element: 150 points
    # of ghz n = 6 make one run_protocol call
    cfg = _write(tmp_path / "c.cfg", "protocol = ghz\nghz.n_photons = 6\n"
                                     "gate.mode = realistic\ncavity.kappa_s_rel = 0.2\n")
    argv = ["sweep", "--config", cfg, "--sweep", "t_over_t2", "--grid=0.01:2:150", "--out"]
    calls = []

    def counting(name, config, n_photons=3):
        calls.append(config.batch_shape)
        return run_protocol(name, config, n_photons)

    monkeypatch.setattr(protocols, "run_protocol", counting)
    assert cli.main(argv + [str(tmp_path / "one.csv")]) == 0
    assert calls == [(150,)]
    # the same bytes as the old split into passes of 64, 64 and 22 points
    monkeypatch.setattr(metrics, "MAX_BATCH_AMPLITUDES", 64 * 7)
    assert cli.main(argv + [str(tmp_path / "three.csv")]) == 0
    assert calls[1:] == [(64,), (64,), (22,)]
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "three.csv").read_bytes()


@pytest.mark.parametrize("config, sweep, grid", [
    ("protocol = scheme-b\ngate.mode = realistic\ncavity.kappa_s_rel = 0.2\n", "g_rel",
     "--grid=2:20:100"),
    ("protocol = ghz\nghz.n_photons = 4\ngate.mode = realistic\nnoise.t_over_t2 = 0.3\n",
     "t_over_t2", "--grid=0:2:10"),
])
def test_sweep_builds_no_per_point_branch_or_state(tmp_path, monkeypatch, config, sweep,
                                                   grid):
    # the CSV is written from the batch's columns alone
    cfg = _write(tmp_path / "c.cfg", config)
    argv = ["sweep", "--config", cfg, "--sweep", sweep, grid, "--out"]
    assert cli.main(argv + [str(tmp_path / "a.csv")]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built a per-point object")

    monkeypatch.setattr(protocols, "ProtocolBranch", refuse)
    assert cli.main(argv + [str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_sample_builds_no_branch_or_state(tmp_path, monkeypatch):
    # a single run's labels and probabilities come from its columns: a dephased
    # ghz chain builds none of its 2^n branch states
    cfg = _write(tmp_path / "c.cfg", "protocol = ghz\nghz.n_photons = 6\n"
                                     "gate.mode = realistic\nnoise.t_over_t2 = 0.3\n")
    run = cli.load_config(cfg)
    result = run_protocol(run.protocol, run.config, n_photons=run.n_photons)
    expected = _old_sample_rows([b.label for b in result.branches],
                                [b.probability for b in result.branches], 5, 1000)
    builds = []
    leaf = protocols._leaf

    def counting(*args, **kwargs):
        builds.append(args[0])
        return leaf(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a sample built a per-branch object")

    monkeypatch.setattr(protocols, "_leaf", counting)
    monkeypatch.setattr(protocols, "ProtocolBranch", refuse)
    out = tmp_path / "s.csv"
    assert cli.main(["sample", "--config", cfg, "--trials", "1000", "--seed", "5",
                     "--out", str(out)]) == 0
    assert builds == []
    assert _lines(out.read_text(encoding="utf-8")) == _lines(expected)


def _refuse(monkeypatch, *names):
    """Make each ``module.attribute`` of ``names`` raise when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("a writer built a per-branch object or a target")

    modules = {"protocols": protocols}
    for name in names:
        module, attribute = name.split(".")
        monkeypatch.setattr(modules[module], attribute, refuse)


@pytest.mark.parametrize("config", [
    "protocol = scheme-b\ngate.mode = realistic\ncavity.kappa_s_rel = 0.2\n",
    "protocol = ghz\nghz.n_photons = 3\n",
    "protocol = ghz\nghz.n_photons = 6\ngate.mode = realistic\nnoise.t_over_t2 = 0.3\n",
], ids=["scheme-b", "ghz-3", "ghz-6-dephased"])
def test_protocol_json_builds_no_protocol_branch_or_target_state(tmp_path, monkeypatch, config):
    # the document is written from the run's columns, as sweep and sample
    # write theirs, and the chain scores its fidelity without its targets
    cfg = _write(tmp_path / "c.cfg", config)
    run = cli.load_config(cfg)
    expected = reference_protocol_json(run, run_protocol(run.protocol, run.config,
                                                         n_photons=run.n_photons))
    _refuse(monkeypatch, "protocols.ProtocolBranch", "protocols._target_state")
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    assert _lines(out.read_text(encoding="utf-8")) == _lines(expected)


@pytest.mark.parametrize("config, targets", [
    ("protocol = transfer-ps\ngate.mode = realistic\ncavity.kappa_s_rel = 0.2\n", 1),
    ("protocol = transfer-sp\ngate.mode = realistic\nnoise.t_over_t2 = 0.3\n"
     "alpha1 = 0.6\nbeta1 = 0.8j\n", 1),
    ("protocol = scheme-a\ngate.mode = realistic\nnoise.t_over_t2 = 0.3\n", 2),
], ids=["transfer-ps", "transfer-sp", "scheme-a"])
def test_a_register_protocol_builds_its_targets_only_when_a_fidelity_is_read(
        tmp_path, monkeypatch, config, targets):
    # a sample reads no score, so it builds no target; the JSON reads every
    # fidelity and builds each distinct target once
    cfg = _write(tmp_path / "c.cfg", config)
    run = cli.load_config(cfg)
    result = run_protocol(run.protocol, run.config, n_photons=run.n_photons)
    expected = _old_sample_rows([c.label for c in result.columns],
                                [c.probability[0] for c in result.columns], 9, 500)
    with monkeypatch.context() as patch:
        _refuse(patch, "protocols._target_state")
        out = tmp_path / "s.csv"
        assert cli.main(["sample", "--config", cfg, "--trials", "500", "--seed", "9",
                         "--out", str(out)]) == 0
        assert _lines(out.read_text(encoding="utf-8")) == _lines(expected)
    built, target_state = [], protocols._target_state
    monkeypatch.setattr(protocols, "_target_state",
                        lambda *args: built.append(args) or target_state(*args))
    assert cli.main(["protocol", "--config", cfg, "--out", str(tmp_path / "p.json")]) == 0
    assert len(built) == targets


def test_protocol_json_refuses_a_non_finite_number_outside_the_scores(tmp_path,
                                                                      monkeypatch):
    register = (qs.photon(1),)
    branch = ProtocolBranch("H", math.inf, qs.PureState(register, [1.0, 0.0]), None,
                            math.nan, None)
    monkeypatch.setattr(cli, "run_protocol",
                        lambda *args, **kwargs: _single_run([branch], "scheme-b"))
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--out", str(out)]) == 1


@pytest.mark.parametrize("state", [
    qs.PureState((qs.photon(1),), [1.0, complex(0.0, math.inf)]),
    qs.DensityState((qs.photon(1), qs.spin(1)),
                    np.diag([0.5, 0.0, math.nan, 0.5]).astype(complex)),
])
def test_protocol_json_refuses_a_non_finite_array_entry(tmp_path, capsys, monkeypatch,
                                                        state):
    branch = ProtocolBranch("H", 0.5, state, None, 1.0, None)
    monkeypatch.setattr(cli, "run_protocol",
                        lambda *args, **kwargs: _single_run([branch], "scheme-b"))
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--out", str(out)]) == 1
    assert "internal error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["reflectance", "--grid=-3:3:9"],
    ["protocol"],
    ["sweep", "--sweep", "t_over_t2", "--grid=0:1:4"],
    ["sample", "--trials", "300"],
])
def test_stdout_gets_the_same_bytes_as_out(tmp_path, capsys, args):
    cfg = _write(tmp_path / "c.cfg", "protocol = ghz\ngate.mode = realistic\n"
                                     "noise.t_over_t2 = 0.2\nseed = 4\n")
    out = tmp_path / "o.txt"
    assert cli.main(args + ["--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(args + ["--config", cfg]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


# --- CSV rows formatted across forked children -------------------------------------

def _count_forks(monkeypatch, cpus: int) -> list:
    """Let the process use ``cpus`` CPUs; the list returned collects the pid of
    each child forked."""
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def _split(monkeypatch, cpus: int) -> list:
    """``_count_forks``, with every CSV table split from its first row on, in
    4-row chunks."""
    monkeypatch.setattr(cli, "_SPLIT_ROWS", 1)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
    return _count_forks(monkeypatch, cpus)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 9 rows make shares of 4 and 5 rows; 7 rows, which neither 2 nor 3 divides,
# make shares of 3 and 4, or of 2, 2 and 3: each shorter than a chunk or not
# a whole number of chunks
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("args", [
    ["reflectance", "--grid=-3:3:9"],
    ["reflectance", "--grid=-3:3:7"],
    ["sample", "--trials", "300"],
])
def test_a_split_csv_writes_the_unsplit_bytes(tmp_path, capsys, monkeypatch, args, cpus):
    args = args + ["--config", _write(tmp_path / "c.cfg", "protocol = scheme-b\n"
                                      "gate.mode = realistic\ncavity.kappa_s_rel = 0.2\n")]
    assert cli.main(args) == 0
    unsplit = capsys.readouterr().out
    forked = _split(monkeypatch, cpus)
    out = tmp_path / "o.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert cli.main(args) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8") == unsplit
    assert len(forked) == 2 * (cpus - 1) and 0 not in forked
    _assert_no_child_left()


def _chunk_bounds(bounds) -> str:
    return "".join(f"{a}:{min(a + cli._CHUNK_ROWS, stop)}\n" for start, stop
                   in zip(bounds, bounds[1:]) for a in range(start, stop, cli._CHUNK_ROWS))


@pytest.mark.parametrize("fork", [True, False])
def test_a_table_of_split_rows_or_more_is_split_one_share_per_usable_cpu(monkeypatch, fork):
    forked = _count_forks(monkeypatch, 3)
    if not fork:
        monkeypatch.delattr(os, "fork")
    rows = "{}:{}\n".format
    n = cli._SPLIT_ROWS
    assert "".join(cli._csv_chunks("h", n - 1, rows)) == "h\n" + _chunk_bounds([0, n - 1])
    assert forked == []
    shares = [0, n // 3, 2 * n // 3, n] if fork else [0, n]
    assert "".join(cli._csv_chunks("h", n, rows)) == "h\n" + _chunk_bounds(shares)
    assert len(forked) == len(shares) - 2
    _assert_no_child_left()


@pytest.mark.parametrize("failure", ["child raises", "write fails"])
def test_a_failed_split_run_exits_1_and_leaves_no_child(tmp_path, capsys, monkeypatch,
                                                        failure):
    _split(monkeypatch, 3)
    out = str(tmp_path / "o.csv")
    if failure == "child raises":
        def broken(a, b):
            raise ValueError("a row could not be formatted")

        fork_share = cli._fork_share
        monkeypatch.setattr(cli, "_fork_share", lambda f, a, b: fork_share(broken, a, b))
    else:
        out = "/dev/full"  # every write to it fails with ENOSPC
    assert cli.main(["reflectance", "--grid=-3:3:200", "--out", out]) == 1
    err = capsys.readouterr().err
    assert ("internal error" in err) == (failure == "child raises")
    _assert_no_child_left()


@pytest.mark.parametrize("earlier", [None, "an earlier good file\n"])
def test_a_fault_in_a_later_share_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, earlier):
    _split(monkeypatch, 3)
    parent, csv_rows = os.getpid(), floatrows.csv_rows

    def rows(table):  # the parent's share is formatted, the children's fail
        if os.getpid() != parent:
            raise ValueError("a row could not be formatted")
        return csv_rows(table)

    monkeypatch.setattr(floatrows, "csv_rows", rows)
    out = tmp_path / "o.csv"
    if earlier is not None:
        out.write_text(earlier, encoding="utf-8")
    assert cli.main(["reflectance", "--grid=-3:3:200", "--out", str(out)]) == 1
    assert "internal error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ([] if earlier is None else ["o.csv"])
    if earlier is not None:
        assert out.read_text(encoding="utf-8") == earlier
    _assert_no_child_left()


def test_a_good_run_replaces_out_and_writes_through_a_symlink(tmp_path):
    out = tmp_path / "o.csv"
    out.write_text("an earlier file, longer than the new one\n" * 100, encoding="utf-8")
    (tmp_path / "link.csv").symlink_to(out)
    assert cli.main(["reflectance", "--grid=0:0:1", "--out", str(tmp_path / "link.csv")]) == 0
    assert (tmp_path / "link.csv").is_symlink()
    assert out.read_text(encoding="utf-8").startswith("detuning_rel,")
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "o.csv"]


# 250 characters; 62 four-byte characters and ".csv" are 252 bytes. Either is a
# name the filesystem takes (255 bytes), and too long to carry 15 bytes more.
@pytest.mark.parametrize("name", ["a" * 246 + ".csv", "\U0001F600" * 62 + ".csv"],
                         ids=["250-characters", "252-bytes"])
def test_a_long_out_name_the_filesystem_takes_is_written(tmp_path, capsys, name):
    args = ["sample", "--trials", "10"]
    assert cli.main(args) == 0
    expected = capsys.readouterr().out
    assert cli.main([*args, "--out", str(tmp_path / name)]) == 0
    assert os.listdir(tmp_path) == [name]
    assert (tmp_path / name).read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("args, formatter", [(["sample", "--trials", "10"], "indexed_rows"),
                                             (["reflectance", "--grid=0:1:3"], "csv_rows")],
                         ids=["sample", "reflectance"])
def test_an_out_name_too_long_for_the_filesystem_is_refused_before_any_row(
        tmp_path, capsys, monkeypatch, args, formatter):
    def refuse(*args):
        raise AssertionError("a CSV row was formatted")

    monkeypatch.setattr(floatrows, formatter, refuse)
    out = str(tmp_path / ("a" * 300))  # 255 bytes is the most a common filesystem takes
    assert cli.main([*args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File name too long" in err
    assert repr(out) in err and "partial" not in err
    assert os.listdir(tmp_path) == []


def test_out_in_a_missing_directory_exits_1_with_the_os_message(tmp_path, capsys):
    out = tmp_path / "missing" / "o.csv"
    assert cli.main(["reflectance", "--grid=0:0:1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert os.listdir(tmp_path) == []


def test_closing_the_chunks_early_kills_and_reaps_the_children(monkeypatch):
    _split(monkeypatch, 3)
    parent = os.getpid()

    def rows(a, b):
        if os.getpid() != parent:
            time.sleep(60)  # only a kill ends this child in time
        return "row\n" * (b - a)

    chunks = cli._csv_chunks("h", 12, rows)  # one 4-row chunk per share
    assert next(chunks) == "h\n"
    assert next(chunks) == "row\n" * 4  # both children are forked by now
    t0 = time.perf_counter()
    chunks.close()
    assert time.perf_counter() - t0 < 30
    _assert_no_child_left()


# --- the sample CSV ------------------------------------------------------------------

def _old_sample_rows(labels, probabilities, seed, trials):
    """The sample CSV as it was built before: one ``str(i)`` and one string
    join per row, the row's ending picked from an object array."""
    labels, probabilities = list(labels), list(probabilities)
    missing = 1.0 - sum(probabilities)
    if missing > 1e-9:
        labels.append("no_detection")
        probabilities.append(missing)
    endings = np.array([f",{label}\n" for label in labels], dtype=object)
    draws = endings[qs.sample_indices(probabilities, np.random.default_rng(seed), trials)]
    return "trial_index,branch_label\n" + "".join(
        map(str.__add__, map(str, range(trials)), draws.tolist()))


def _sample_csv(monkeypatch, path, labels, probabilities, seed, trials) -> str:
    """The ``sample`` CSV ``cli.main`` writes to ``path`` for a run whose
    branches have these labels and probabilities."""
    result = ProtocolResult("scheme-b", (), tuple(
        _column(label, [p], [math.nan]) for label, p in zip(labels, probabilities)))
    monkeypatch.setattr(cli, "run_protocol", lambda *args, **kwargs: result)
    cfg = _write(path.with_suffix(".cfg"), "protocol = scheme-b\n")
    assert cli.main(["sample", "--config", cfg, "--trials", str(trials), "--seed", str(seed),
                     "--out", str(path)]) == 0
    return path.read_text(encoding="utf-8")


# the index width changes inside a 4-row chunk (9 -> 10, 99 -> 100, 999 ->
# 1000) and, split on 2 or 3 CPUs, between shares; the labels differ in width,
# and the missing probability adds no_detection
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 9, 10, 11, 99, 100, 101, 1000, 1001])
def test_sample_csv_equals_the_old_rows(tmp_path, monkeypatch, trials, cpus):
    labels, probabilities = ["+45/up", "-45/down", "x", "+45/down"], [0.3, 0.25, 0.2, 0.0]
    forked = _split(monkeypatch, cpus)
    got = _sample_csv(monkeypatch, tmp_path / "s.csv", labels, probabilities, 7, trials)
    assert _lines(got) == _lines(_old_sample_rows(labels, probabilities, 7, trials))
    assert ("no_detection" in got) == (trials > 1)  # first drawn at trial 1 at seed 7
    assert len(forked) == cpus - 1 and 0 not in forked
    _assert_no_child_left()


@settings(DERANDOMIZED, max_examples=60)
@given(probabilities=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=130),
       zero=st.integers(0, 129), lost=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 32),
       trials=st.integers(1, 3000), chunk=st.integers(1, 5000))
def test_sample_csv_equals_the_old_rows_on_random_outcomes(probabilities, zero, lost, seed,
                                                           trials, chunk):
    # up to ghz-sized label sets, one outcome at probability 0, and labels
    # whose widths differ by index
    weights = np.array(probabilities) + 1e-3
    if len(weights) > 1:
        weights[zero % len(weights)] = 0.0
    probabilities = (weights / weights.sum() * (1.0 - lost)).tolist()
    labels = [f"{'+-'[i % 2]}{'d' * (i % 5)}/{i}" for i in range(len(probabilities))]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        got = _sample_csv(monkeypatch, Path(tmp) / "s.csv", labels, probabilities, seed, trials)
    assert _lines(got) == _lines(_old_sample_rows(labels, probabilities, seed, trials))


# indices of up to 19 digits, filled from one to five 4-digit groups, the
# width changing within the range at 10**4, 10**8, 10**12, 10**16 and 10**18
@pytest.mark.parametrize("start", [0, 10 ** 4 - 3, 10 ** 8 - 3, 10 ** 12 - 3, 10 ** 16 - 3,
                                   10 ** 18 - 3])
def test_indexed_rows_writes_each_index_as_str(start):
    endings = np.array([b",a\n", b",no_detection\n", b",+45/up\n"])
    picks = np.random.default_rng(start % 1000).integers(0, 3, 7)
    want = "".join(str(start + i) + endings[k].decode() for i, k in enumerate(picks))
    assert floatrows.indexed_rows(start, endings[picks]) == want
