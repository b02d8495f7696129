"""Every function the benchmark's per-layer tracer wraps exists in the package.

``bench/tracing.py`` names the public functions of each module in ``LAYERS``
and wraps them by name; deleting one breaks ``bench/run.py --trace 1``. The
file is run here as a plain script (no bytecode written next to it), without
running the benchmark.
"""
import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_function_resolves():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"spinphoton.{layer}"),
                                       name, None))]
    assert missing == []
