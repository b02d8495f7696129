"""What the benchmark's per-layer tracer relies on in the package.

``bench/tracing.py`` names the public functions of each module in ``LAYERS``
and wraps them by name; deleting one breaks ``bench/run.py --trace 1``. The
file is run here as a plain script (no bytecode written next to it), without
running the benchmark. The tracer also counts zero branches with
``b.probability == 0.0`` over ``run_protocol(...).branches``, which needs a
scalar probability per branch, batched config or not.
"""
import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

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
