"""The CLI's output writers against the pipeline they replaced.

The reference below is the old path, kept here only: every complex number
became a ``[re, im]`` list one at a time (``_c2pair``), a walk over the whole
document turned NaN into None (``_sanitize``), and the sweep CSV joined one
``f"{x:.17g}"`` string per cell (``_fmt``). The CLI must write the same bytes.
"""
import json
import math

import numpy as np
import pytest

from spinphoton import cli
from spinphoton import qstate as qs
from spinphoton.metrics import SweepSpec, run_sweep
from spinphoton.protocols import ProtocolBranch, ProtocolResult, run_protocol


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
        payload["success_probability"] = br.success_probability
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


def _special_floats(rng, shape):
    """Random doubles with a share of signed zeros, subnormals and tiny values."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 3, shape)
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(SPECIAL, int(pick.sum()))
    return x


def _score(rng):
    return [math.nan, 0.0, -0.0, 1e-300, 1.0, float(rng.random()),
            np.float64(rng.random())][int(rng.integers(7))]


def _random_branch(rng, n_qubits, density):
    register = tuple(qs.photon(k + 1) if rng.random() < 0.7 else qs.spin(k + 1)
                     for k in range(n_qubits))
    dim = 2 ** n_qubits
    shape = (dim, dim) if density else (dim,)
    data = _special_floats(rng, shape) + 1j * _special_floats(rng, shape)
    state = (qs.DensityState(register, data) if density
             else qs.PureState(register, data))
    conc = [None, math.nan, _score(rng)][int(rng.integers(3))]
    return ProtocolBranch(label=f"b{int(rng.integers(100))}",
                          probability=[0.0, -0.0, 1e-300, float(rng.random())][
                              int(rng.integers(4))],
                          state=state, target=None, fidelity_vs_target=_score(rng),
                          concurrence=conc)


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
    result = ProtocolResult("ghz", branches)
    monkeypatch.setattr(cli, "run_protocol", lambda *args, **kwargs: result)
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    run = cli.load_config(cfg)
    expected = reference_protocol_json(run, result)
    assert _lines(out.read_text(encoding="utf-8")) == _lines(expected)


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
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9000))  # up to three 4096-row chunks
    values = _special_floats(rng, (n, 4))
    conc = [None if rng.random() < 0.4 else _score(rng) for _ in range(n)]
    rows = [{"swept_name": "t_over_t2", "swept_value": v[0], "branch_label": f"+45/{i % 3}",
             "probability": v[1], "fidelity": math.nan if i % 5 == 0 else v[2],
             "concurrence": c, "success_probability": v[3]}
            for i, (v, c) in enumerate(zip(values.tolist(), conc))]
    monkeypatch.setattr(cli, "run_sweep", lambda spec: rows)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--sweep", "t_over_t2", "--grid=0:1:3",
                     "--out", str(out)]) == 0
    assert _lines(out.read_text(encoding="utf-8")) == _lines(reference_sweep_csv(rows))


@pytest.mark.parametrize("config, sweep, grid", [
    ("protocol = ghz\nghz.n_photons = 6\ngate.mode = realistic\n", "t_over_t2",
     "--grid=0:2:150"),  # the zero point apart, then three dephased passes
    ("protocol = scheme-a\ngate.mode = realistic\nalpha1 = 1\nbeta1 = 0\n", "g_rel",
     "--grid=0:20:1500"),  # zero-probability branches, several passes
    ("protocol = transfer-sp\ngate.mode = realistic\n", "detuning_rel", "--grid=-2:2:41"),
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


def test_protocol_json_refuses_a_non_finite_number_outside_the_scores(tmp_path,
                                                                      monkeypatch):
    register = (qs.photon(1),)
    branch = ProtocolBranch("H", math.inf, qs.PureState(register, [1.0, 0.0]), None,
                            math.nan, None)
    monkeypatch.setattr(cli, "run_protocol",
                        lambda *args, **kwargs: ProtocolResult("scheme-b", (branch,)))
    out = tmp_path / "p.json"
    assert cli.main(["protocol", "--out", str(out)]) == 1


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
