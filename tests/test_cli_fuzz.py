"""The CLI's exit-code split over extreme but finite inputs.

Hypothesis draws every cavity key, ``gate.detuning_rel``, ``noise.t_over_t2``
and the ``--grid`` ends from a few magnitudes between the smallest subnormal
and the largest float, signed where a key allows it, and runs ``reflectance``,
``protocol``, ``sweep`` and ``sample`` in-process with RuntimeWarnings as
errors. An input the program cannot evaluate must exit 2, naming a key the
config set, a flag of the command line, or ``cavity.*``; a run that exits 0
must print only finite, physical numbers. The profile is derandomized, so the
suite is deterministic.
"""
import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinphoton.cli import main
from spinphoton.metrics import SWEEP_PARAMETERS
from spinphoton.protocols import PROTOCOL_NAMES
from test_batch_properties import DERANDOMIZED

MAGNITUDES = (0.0, 5e-324, 1e-300, 1.0, 1e150, 1e300, 1.7e308)
TOL = 1e-12

magnitudes = st.sampled_from(MAGNITUDES)
signed = st.builds(lambda x, sign: sign * x, magnitudes, st.sampled_from([1.0, -1.0]))


@st.composite
def configs(draw):
    """A config dict: each cavity rate absent, absolute or in kappa units."""
    config = {"gate.mode": draw(st.sampled_from(["realistic", "realistic", "ideal"])),
              "protocol": draw(st.sampled_from(PROTOCOL_NAMES)),
              "ghz.n_photons": draw(st.integers(2, 4))}
    for key, value in (("cavity.kappa", magnitudes), ("cavity.omega_c", signed),
                       ("gate.detuning_rel", signed), ("noise.t_over_t2", magnitudes)):
        if draw(st.booleans()):
            config[key] = draw(value)
    for key, value in (("cavity.g", magnitudes), ("cavity.gamma", magnitudes),
                       ("cavity.kappa_s", magnitudes), ("cavity.omega_x", signed)):
        form = draw(st.sampled_from(["", "", "_rel"]) | st.just(None))
        if form is not None:
            config[key + form] = draw(value)
    return config


def render(config: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in config.items())


def run(argv, config: dict):
    """Exit code, stderr and --out text of one in-process CLI call on ``config``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.cfg", Path(tmp) / "out"
        cfg.write_text(render(config), encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + ["--config", str(cfg), "--out", str(out)])
        return code, err.getvalue(), out.read_text() if out.exists() else None


def finite(text: str) -> float:
    x = float(text)
    assert math.isfinite(x), text
    return x


def score(text: str):
    """A CSV fidelity or concurrence: nan (dead branch) or empty (not a pair) allowed."""
    if text in ("", "nan"):
        return
    assert 0.0 <= finite(text) <= 1.0, text


def check_reflectance(text: str):
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        x = [finite(v) for v in row]
        assert math.hypot(x[1], x[2]) <= 1 + TOL and math.hypot(x[4], x[5]) <= 1 + TOL


def check_protocol(text: str):
    def refuse(constant):
        raise AssertionError(f"non-finite JSON number {constant}")

    doc = json.loads(text, parse_constant=refuse)
    total = 0.0
    for b in doc["branches"]:
        assert b["probability"] >= 0.0
        total += b["probability"]
        for key in ("fidelity", "concurrence"):
            assert b[key] is None or 0.0 <= b[key] <= 1.0, (key, b[key])
    assert total <= 1 + TOL


def check_sweep(text: str):
    totals = defaultdict(float)
    for _, value, _, p, fid, conc, success in list(csv.reader(io.StringIO(text)))[1:]:
        assert 0.0 <= finite(p) == finite(success)
        totals[finite(value)] += float(p)
        score(fid)
        score(conc)
    assert max(totals.values()) <= 1 + TOL


def check_sample(text: str, trials: int):
    rows = text.splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [str(i) for i in range(trials)]


CRITICAL = {"gate.mode": "realistic", "protocol": "scheme-b", "ghz.n_photons": 3,
            "cavity.kappa_s_rel": 1.0, "cavity.g_rel": 0.0, "gate.detuning_rel": 0.0}


@settings(DERANDOMIZED, max_examples=200)
@given(command=st.sampled_from(["reflectance", "protocol", "sweep", "sample"]),
       config=configs(), ends=st.lists(signed, min_size=2, max_size=2),
       count=st.integers(1, 3), sweep=st.sampled_from(SWEEP_PARAMETERS))
# critical coupling on resonance with g = 0: both coefficients are exactly 0
@example(command="protocol", config=CRITICAL, ends=[0.0, 0.0], count=1, sweep="g_rel")
@example(command="sample", config=CRITICAL, ends=[0.0, 0.0], count=1, sweep="g_rel")
@example(command="sweep", config=CRITICAL, ends=[0.0, 1.0], count=3, sweep="g_rel")
# n * t_over_t2 overflows in the dephased chain
@example(command="sweep", config={"protocol": "scheme-b"}, ends=[1.0, 1e308], count=2,
         sweep="t_over_t2")
# kappa * h and h * c overflow inside the cavity formula, so r = inf/inf
@example(command="sweep", config={"gate.mode": "realistic", "cavity.kappa": 1e10},
         ends=[1.0, 1e290], count=2, sweep="gamma_rel")
def test_extreme_input_exits_0_with_finite_output_or_2(command, config, ends, count, sweep):
    start, stop = sorted(ends)
    if count == 1:
        start = stop
    argv = [command]
    if command in ("reflectance", "sweep"):
        argv.append(f"--grid={start!r}:{stop!r}:{count}")
    if command == "sweep":
        argv += ["--sweep", sweep]
    if command == "sample":
        argv += ["--trials", "5"]
    code, err, out = run(argv, config)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and out is None, err
        named = [*config, "cavity.*"] + [a.split("=")[0] for a in argv if a.startswith("--")]
        assert any(name in err for name in named), (err, named)
        return
    assert err == ""
    if command == "reflectance":
        check_reflectance(out)
    elif command == "protocol":
        check_protocol(out)
    elif command == "sweep":
        check_sweep(out)
    else:
        check_sample(out, 5)
