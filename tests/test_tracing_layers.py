"""What the benchmark's per-layer tracer relies on in the package.

``bench/tracing.py`` names the public functions of each module in ``LAYERS``
and wraps them by name; deleting one breaks ``bench/run.py --trace 1``. The
file is run here as a plain script (no bytecode written next to it), without
running the benchmark. The tracer also counts zero branches with
``b.probability == 0.0`` over ``run_protocol(...).branches``, which needs a
scalar probability per branch, batched config or not. One traced command
checks that the wrappers install into the package, leave its output bytes
alone, and come out again.
"""
import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

import spinphoton
from spinphoton import cavity, cli, gates, metrics, protocols, qstate
from spinphoton.cavity import CavityParams
from spinphoton.gates import RealisticGate
from spinphoton.protocols import PROTOCOL_NAMES, ProtocolConfig, run_protocol

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_function_resolves():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"spinphoton.{layer}"),
                                       name, None))]
    assert missing == []


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
@pytest.mark.parametrize("t_over_t2", [0.0, np.array([0.1, 0.3])])
def test_batched_result_has_one_scalar_probability_per_branch(name, t_over_t2):
    cavity = CavityParams(g=np.array([2.0, 10.0]), kappa=1.0, gamma=0.1, kappa_s=0.2)
    config = ProtocolConfig(gate=RealisticGate(cavity, 0.5), t_over_t2=t_over_t2)
    branches = run_protocol(name, config, n_photons=3).branches
    assert len(branches) > 0
    assert all(isinstance(b.probability, float) for b in branches)


def test_a_traced_command_writes_the_untraced_bytes_and_uninstalls(tmp_path):
    modules = {"package": spinphoton, "cli": cli, "metrics": metrics, "protocols": protocols,
               "gates": gates, "qstate": qstate, "cavity": cavity}
    cfg = tmp_path / "c.cfg"
    cfg.write_text("protocol = ghz\nghz.n_photons = 3\nnoise.t_over_t2 = 0.3\n",
                   encoding="utf-8")
    argv = ["protocol", "--config", str(cfg), "--out"]
    assert cli.main(argv + [str(tmp_path / "untraced.json")]) == 0
    before = {name: dict(vars(module)) for name, module in modules.items()}
    hooks = {cls: cls.__post_init__ for cls in (qstate.PureState, qstate.DensityState)}

    tracer = runpy.run_path(str(TRACING))["Tracer"](modules)
    tracer.install()
    try:
        assert protocols.run_protocol is not before["protocols"]["run_protocol"]
        assert cli.main(argv + [str(tmp_path / "traced.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["protocols.run_protocol.calls"] == 1
    assert ((tmp_path / "traced.json").read_bytes()
            == (tmp_path / "untraced.json").read_bytes())
    moved = [f"{name}.{attr}" for name, module in modules.items()
             for attr, value in before[name].items() if vars(module).get(attr) is not value]
    assert moved == []
    assert all(cls.__post_init__ is hook for cls, hook in hooks.items())
