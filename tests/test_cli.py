import json
import math

import numpy as np
import pytest

from spinphoton.cli import main, parse_config_text, parse_grid, resolve_config


def run_cli(args):
    return main(args)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


IDEAL_B = "protocol = scheme-b\nseed = 7\n"
REALISTIC_A = (
    "protocol = scheme-a\n"
    "gate.mode = realistic\n"
    "cavity.g_rel = 10\n"
    "cavity.gamma_rel = 0.1\n"
    "gate.detuning_rel = 0.5\n"
)


# --- config parsing ----------------------------------------------------------

def test_unknown_key_rejected(tmp_path, capsys):
    for line in ("bogus.key = 1", "gate.delta_phi = 1.5707963267948966"):
        cfg = write(tmp_path / "c.cfg", f"protocol = scheme-b\n{line}\n")
        assert run_cli(["protocol", "--config", cfg]) == 2
        assert line.split(" =")[0] in capsys.readouterr().err


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_comments_and_blank_lines_ignored():
    raw = parse_config_text("# comment\n\nseed = 3  # trailing\n")
    assert raw == {"seed": "3"}


def test_defaults_are_ideal_uniform():
    run = resolve_config({})
    assert run.protocol == "scheme-b"
    assert run.echo["gate"]["mode"] == "ideal"
    assert run.echo["gate"]["delta_phi"] == pytest.approx(math.pi / 2)
    assert run.seed == 0


def test_rel_and_absolute_forms_conflict():
    with pytest.raises(ValueError, match="both"):
        resolve_config({"cavity.g": "3", "cavity.g_rel": "3"})


def test_rel_values_scale_with_kappa():
    run = resolve_config({"cavity.kappa": "2.0", "cavity.g_rel": "10",
                          "gate.mode": "realistic"})
    assert run.cavity.g == pytest.approx(20.0)
    assert run.config.gate.omega == pytest.approx(1.0)  # omega_c + 0.5 kappa


def test_bad_amplitude_normalization_names_keys(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "alpha1 = 1\nbeta1 = 1\n")
    assert run_cli(["protocol", "--config", cfg]) == 2
    assert "alpha1/beta1" in capsys.readouterr().err


def test_complex_amplitudes_parse(tmp_path):
    run = resolve_config({"alpha1": "0.6+0.8j", "beta1": "0"})
    assert run.config.alpha1 == pytest.approx(0.6 + 0.8j)


def test_grid_parsing():
    assert parse_grid("0:1:3") == [0.0, 0.5, 1.0]
    assert parse_grid("0.5:0.5:1") == [0.5]
    with pytest.raises(ValueError, match="empty range"):
        parse_grid("0:1:0")
    with pytest.raises(ValueError, match="grid"):
        parse_grid("0:1")


@pytest.mark.parametrize("command", ["reflectance", "sweep"])
@pytest.mark.parametrize("grid", ["nan:1:2", "0:inf:3", "-inf:1:2", "0:1:1"])
def test_non_physical_grid_rejected(tmp_path, capsys, command, grid):
    cfg = write(tmp_path / "c.cfg", "protocol = scheme-b\ngate.mode = realistic\n")
    out = tmp_path / "o.csv"
    args = [command, "--config", cfg, f"--grid={grid}", "--out", str(out)]
    if command == "sweep":
        args += ["--sweep", "g_rel"]
    assert run_cli(args) == 2
    assert "--grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["reflectance", "--grid", "0:1:2"], ["protocol"],
                                  ["sweep", "--sweep", "g_rel", "--grid", "1:2:2"]])
def test_seed_flag_only_on_sample(tmp_path, capsys, args):
    out = str(tmp_path / "o.txt")
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--out", out, "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("config, args, named", [
    ("protocol = ghz\nghz.n_photons = 9\n", ["protocol"], "ghz.n_photons"),
    ("protocol = scheme-b\nghz.n_photons = 1\n", ["protocol"], "ghz.n_photons"),
    ("seed = -3\n", ["sample", "--trials", "3"], "error: seed must be >= 0"),
    ("", ["sample", "--trials", "3", "--seed", "-1"], "error: --seed must be >= 0"),
    ("gate.mode = realistic\n", ["sweep", "--sweep", "gamma_rel", "--grid=-1:1:3"],
     "--grid for gamma_rel"),
    ("gate.mode = realistic\n", ["sweep", "--sweep", "g_rel", "--grid=-2:-1:2"],
     "--grid for g_rel"),
    ("gate.mode = realistic\n", ["sweep", "--sweep", "kappa_s_rel", "--grid=-1:0:2"],
     "--grid for kappa_s_rel"),
    ("cavity.gamma = -1\n", ["protocol"], "gamma must be nonnegative"),
    ("cavity.kappa = 2\ncavity.g_rel = -1\n", ["protocol"], "cavity.g_rel"),
    ("cavity.kappa = -2\n", ["protocol"], "cavity.kappa"),
    ("", ["sweep", "--sweep", "g_rel", "--grid=2:20:3"], "gate.mode"),
    ("", ["sample", "--trials", "0"], "error: --trials must be >= 1"),
    ("trials = 0\n", ["sample"], "error: trials must be >= 1"),
    ("gate.mode = realistic\n", ["sweep", "--sweep", "g_rel", "--grid=2:1:3"], "--grid"),
    ("alpha1 = nan\n", ["protocol"], "error: alpha1 must be finite"),
    ("beta2 = 1+infj\n", ["protocol"], "error: beta2 must be finite"),
    ("alpha2 = -infj\n", ["sample"], "error: alpha2 must be finite"),
    ("noise.t_over_t2 = -1\n", ["protocol"], "error: noise.t_over_t2 must be nonnegative"),
    ("", ["sweep", "--sweep", "t_over_t2", "--grid=-1:1:3"], "--grid for t_over_t2"),
    ("cavity.kappa = 1e308\n", ["protocol"], "error: cavity.g must be finite"),
    ("gate.mode = realistic\ncavity.kappa = 1e-320\n", ["protocol"],
     "check the cavity.* keys and gate.detuning_rel"),
    ("gate.mode = realistic\ncavity.omega_x = 1e308\ncavity.omega_c = -1e308\n",
     ["protocol"], "check the cavity.* keys and gate.detuning_rel"),
])
def test_bad_input_exits_2_naming_its_key(tmp_path, capsys, config, args, named):
    cfg = write(tmp_path / "c.cfg", config)
    out = tmp_path / "o.txt"
    assert run_cli(args + ["--config", cfg, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_internal_error_exits_1(tmp_path, capsys, monkeypatch):
    from spinphoton import cli

    def broken(*args, **kwargs):
        raise ValueError("an invariant failed")

    monkeypatch.setattr(cli, "run_protocol", broken)
    out = tmp_path / "o.json"
    assert run_cli(["protocol", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "internal error" in err and "an invariant failed" in err
    assert not out.exists()


def test_negative_detuning_sweep_accepted(tmp_path):
    cfg = write(tmp_path / "c.cfg", "gate.mode = realistic\n")
    out = str(tmp_path / "o.csv")
    assert run_cli(["sweep", "--config", cfg, "--sweep", "detuning_rel", "--grid=-1:1:3",
                    "--out", out]) == 0


# --- reflectance ----------------------------------------------------------------

def test_reflectance_single_point(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["reflectance", "--grid", "0.5:0.5:1", "--out", str(out)]) == 0
    header, row = out.read_text().strip().split("\n")
    assert header.split(",") == [
        "detuning_rel", "r_cold_re", "r_cold_im", "phase_cold",
        "r_hot_re", "r_hot_im", "phase_hot", "delta_phi"]
    vals = dict(zip(header.split(","), map(float, row.split(","))))
    assert vals["phase_cold"] == pytest.approx(-math.pi / 2, abs=1e-12)
    assert vals["delta_phi"] == pytest.approx(math.pi / 2, abs=0.05)


def test_reflectance_line_count(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["reflectance", "--grid=-5:5:1001", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1002


def test_reflectance_empty_range_exit_code(capsys):
    assert run_cli(["reflectance", "--grid", "0:1:0"]) == 2


def test_reflectance_rows_equal_single_point_evaluations(tmp_path):
    out = tmp_path / "r.csv"
    run_cli(["reflectance", "--grid=-3:3:41", "--out", str(out)])
    from spinphoton.cavity import CavityParams, conditional_phase, reflect
    params = CavityParams(g=10, kappa=1, gamma=0.1)
    for line in out.read_text().strip().split("\n")[1:]:
        d = float(line.split(",")[0])
        cold = reflect(params, d, coupled=False)
        hot = reflect(params, d, coupled=True)
        expected = (d, cold.r.real, cold.r.imag, cold.phase, hot.r.real, hot.r.imag,
                    hot.phase, conditional_phase(params, d))
        assert line == ",".join(f"{x:.17g}" for x in expected)


def test_reflectance_numbers_round_trip(tmp_path):
    out = tmp_path / "r.csv"
    run_cli(["reflectance", "--grid=-2:2:17", "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    from spinphoton.cavity import CavityParams, reflect
    params = CavityParams(g=10, kappa=1, gamma=0.1)
    for line in lines[1:]:
        vals = list(map(float, line.split(",")))
        resp = reflect(params, vals[0], coupled=False)
        assert vals[1] == resp.r.real  # exact: 17 significant digits round-trip
        assert vals[2] == resp.r.imag


# --- protocol -------------------------------------------------------------------

def test_protocol_scheme_b_uniform(tmp_path):
    cfg = write(tmp_path / "c.cfg", IDEAL_B)
    out = tmp_path / "p.json"
    assert run_cli(["protocol", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["protocol"] == "scheme-b"
    live = [b for b in doc["branches"] if b["probability"] > 0]
    assert len(live) == 2
    for b in live:
        assert b["probability"] == pytest.approx(0.5, abs=1e-12)
        assert b["concurrence"] == pytest.approx(1.0, abs=1e-12)
        assert len(b["amplitudes"]) == 4
        assert b["basis"] == ["RR", "RL", "LR", "LL"]


def test_protocol_transfer_trivial_input(tmp_path):
    cfg = write(tmp_path / "c.cfg", "protocol = transfer-ps\nalpha1 = 1\nbeta1 = 0\n")
    out = tmp_path / "p.json"
    assert run_cli(["protocol", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for b in doc["branches"]:
        assert b["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_protocol_realistic_echoes_cavity_block(tmp_path):
    cfg = write(tmp_path / "c.cfg", REALISTIC_A)
    out = tmp_path / "p.json"
    assert run_cli(["protocol", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["gate"]["mode"] == "realistic"
    assert doc["config"]["gate"]["cavity"]["g"] == pytest.approx(10.0)
    assert doc["config"]["gate"]["cavity"]["gamma"] == pytest.approx(0.1)


def test_protocol_noisy_run_emits_density_matrix(tmp_path):
    cfg = write(tmp_path / "c.cfg", "protocol = scheme-a\nnoise.t_over_t2 = 0.1\n")
    out = tmp_path / "p.json"
    assert run_cli(["protocol", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "density_matrix" in doc["branches"][0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_dephasing_rejected(tmp_path, capsys, value):
    cfg = write(tmp_path / "c.cfg", f"protocol = scheme-b\nnoise.t_over_t2 = {value}\n")
    assert run_cli(["protocol", "--config", cfg]) == 2
    assert "noise.t_over_t2" in capsys.readouterr().err


def test_protocol_json_round_trip_amplitudes(tmp_path):
    cfg = write(tmp_path / "c.cfg", IDEAL_B)
    out = tmp_path / "p.json"
    run_cli(["protocol", "--config", cfg, "--out", str(out)])
    doc = json.loads(out.read_text())
    from spinphoton.protocols import ProtocolConfig, scheme_b_entangle_photons
    res = scheme_b_entangle_photons(ProtocolConfig())
    for jb, rb in zip(doc["branches"], res.branches):
        if jb["probability"] == 0:
            continue
        amps = np.array([complex(re, im) for re, im in jb["amplitudes"]])
        assert np.array_equal(amps, rb.state.amplitudes)  # exact round trip


# --- sweep ---------------------------------------------------------------------

def test_sweep_csv_structure(tmp_path):
    cfg = write(tmp_path / "c.cfg", "protocol = scheme-b\ngate.mode = realistic\n")
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--config", cfg, "--sweep", "g_rel",
                    "--grid", "1:10:4", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("swept_name,swept_value,branch_label,probability,"
                        "fidelity,concurrence,success_probability")
    assert len(lines) == 1 + 4 * 4  # four branches per grid point


def test_sweep_unknown_parameter_lists_valid_names(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", IDEAL_B)
    assert run_cli(["sweep", "--config", cfg, "--sweep", "nope",
                    "--grid", "0:1:2"]) == 2
    err = capsys.readouterr().err
    assert "g_rel" in err and "t_over_t2" in err


def test_sweep_deterministic_output(tmp_path):
    cfg = write(tmp_path / "c.cfg", "protocol = scheme-b\ngate.mode = realistic\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["sweep", "--config", cfg, "--sweep", "g_rel", "--grid", "1:5:3",
             "--out", str(out1)])
    run_cli(["sweep", "--config", cfg, "--sweep", "g_rel", "--grid", "1:5:3",
             "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


# --- sample --------------------------------------------------------------------

def test_sample_single_live_branch(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "protocol = scheme-a\nalpha1 = 1\nbeta1 = 0\nalpha2 = 0\nbeta2 = 1\n")
    out = tmp_path / "s.csv"
    assert run_cli(["sample", "--config", cfg, "--trials", "1",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines == ["trial_index,branch_label", "0,H"]


def test_sample_zero_trials_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", IDEAL_B)
    assert run_cli(["sample", "--config", cfg, "--trials", "0"]) == 2


def test_sample_deterministic(tmp_path):
    cfg = write(tmp_path / "c.cfg", IDEAL_B)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["sample", "--config", cfg, "--trials", "200", "--out", str(out1)])
    run_cli(["sample", "--config", cfg, "--trials", "200", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_seed_changes_draws(tmp_path):
    cfg = write(tmp_path / "c.cfg", IDEAL_B)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["sample", "--config", cfg, "--trials", "50", "--out", str(out1)])
    run_cli(["sample", "--config", cfg, "--trials", "50", "--seed", "8",
             "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_sample_frequencies_match_probabilities(tmp_path):
    cfg = write(tmp_path / "c.cfg", IDEAL_B)
    out = tmp_path / "s.csv"
    run_cli(["sample", "--config", cfg, "--trials", "100000", "--out", str(out)])
    rows = out.read_text().strip().split("\n")[1:]
    labels = [r.split(",", 1)[1] for r in rows]
    freq = labels.count("+45/up") / len(labels)
    assert abs(freq - 0.5) < 0.01


def test_sample_includes_loss_branch_in_realistic_mode(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "protocol = scheme-b\ngate.mode = realistic\ncavity.g_rel = 1\n")
    out = tmp_path / "s.csv"
    run_cli(["sample", "--config", cfg, "--trials", "5000", "--out", str(out)])
    text = out.read_text()
    assert "no_detection" in text


# --- ghz photon count key ---------------------------------------------------------

def test_ghz_photon_count_key(tmp_path):
    cfg = write(tmp_path / "c.cfg", "protocol = ghz\nghz.n_photons = 4\n")
    out = tmp_path / "p.json"
    assert run_cli(["protocol", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    live = [b for b in doc["branches"] if b["probability"] > 0]
    assert len(live[0]["amplitudes"]) == 16
