"""The benchmark's workloads: seeded inputs and the CLI commands that use them.

Each workload is a fixed list of ``spinphoton`` CLI commands. The seed only
draws the qubit amplitudes written into the config files and the ``sample``
seed, so the same seed always gives byte-identical inputs, and the work per
command (grid sizes, trial counts) never depends on the seed.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

PURE_PROTOCOLS = ("scheme-a", "scheme-b", "transfer-ps", "transfer-sp", "ghz")
GHZ_SIZES = (3, 4, 5, 6)

# A realistic gate with side leakage: every branch is live and survival < 1.
LOSSY_GATE = {"gate.mode": "realistic", "cavity.kappa_s_rel": 0.2}

# Per-command sizes. "full" is what the timed runs use; "smoke" runs every
# command and every check once, in a few seconds.
SIZES = {
    "full": {"pure_grid": 100, "dephased_grid": 10,
             "reflectance_points": 100_000, "trials": 200_000},
    "smoke": {"pure_grid": 3, "dephased_grid": 2,
              "reflectance_points": 101, "trials": 2_000},
}

WHY = {
    "sweep-pure": "2-6 qubit pure registers: per-call overhead of the pure-state "
                  "engine and protocol drivers over five protocols (sweeps and one-shot runs)",
    "ghz-dephased": "5-8 qubit density matrices up to 256x256 from dephased GHZ "
                    "chains n=3..6, plus JSON emission of a 64x64 density matrix",
    "grid-and-draws": "1e5-point reflectance grid and 2e5 seeded sample draws: "
                      "cavity response, CSV formatting and outcome sampling",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``spinphoton <kind> --config <file> --out <file> <args>``."""

    name: str                  # unique within the workload; names its files
    kind: str                  # protocol | sweep | reflectance | sample
    config: dict               # config-file keys and values
    args: tuple = ()           # flags after --config/--out
    units: int = 1             # input units (protocol evaluations, grid points, trials)
    grid: tuple | None = None  # (start, stop, count) of --grid
    swept_key: str | None = None  # config key that the swept parameter sets


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple


def render_config(config: dict) -> str:
    """Write values with full precision, so the program parses back the same floats."""
    return "".join(f"{key} = {value!r}\n" if not isinstance(value, str)
                   else f"{key} = {value}\n" for key, value in config.items())


def _amplitudes(rng: random.Random) -> dict:
    """Two normalized qubits, each amplitude of modulus at least sin(0.25)."""
    out = {}
    for a, b in (("alpha1", "beta1"), ("alpha2", "beta2")):
        theta = rng.uniform(0.25, math.pi / 2 - 0.25)
        out[a] = cmath.rect(math.cos(theta), rng.uniform(0.0, 2.0 * math.pi))
        out[b] = cmath.rect(math.sin(theta), rng.uniform(0.0, 2.0 * math.pi))
    return out


def _grid_arg(grid: tuple) -> str:
    # "--grid=a:b:n" in one token, so a negative start is not read as a flag
    start, stop, count = grid
    return f"--grid={start!r}:{stop!r}:{count}"


def _protocol_and_sweep(tag: str, config: dict, swept: str, swept_key: str,
                        grid: tuple) -> list[Command]:
    return [
        Command(f"protocol-{tag}", "protocol", config),
        Command(f"sweep-{tag}", "sweep", config,
                ("--sweep", swept, _grid_arg(grid)), grid[2], grid, swept_key),
    ]


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's commands with inputs drawn from ``seed``."""
    sizes = SIZES[size]
    rng = random.Random(seed)
    commands: list[Command] = []
    if name == "sweep-pure":
        for proto in PURE_PROTOCOLS:
            config = {"protocol": proto, **LOSSY_GATE, **_amplitudes(rng)}
            if proto == "ghz":
                config["ghz.n_photons"] = 4
            commands += _protocol_and_sweep(proto, config, "g_rel", "cavity.g_rel",
                                            (2.0, 20.0, sizes["pure_grid"]))
    elif name == "ghz-dephased":
        for n in GHZ_SIZES:
            config = {"protocol": "ghz", "ghz.n_photons": n, **LOSSY_GATE,
                      "noise.t_over_t2": 0.3, **_amplitudes(rng)}
            commands += _protocol_and_sweep(f"ghz{n}", config, "t_over_t2",
                                            "noise.t_over_t2",
                                            (0.05, 2.0, sizes["dephased_grid"]))
    elif name == "grid-and-draws":
        # every cavity value is explicit, so the check needs no CLI defaults
        cavity = {"cavity.kappa": 1.0, "cavity.g_rel": 10.0, "cavity.gamma_rel": 0.1,
                  "cavity.kappa_s_rel": 0.2, "cavity.omega_c": 0.0,
                  "cavity.omega_x_rel": 0.3}
        grid = (-5.0, 5.0, sizes["reflectance_points"])
        commands.append(Command("reflectance", "reflectance", cavity,
                                (_grid_arg(grid),), grid[2], grid))
        config = {"protocol": "scheme-b", **LOSSY_GATE, **_amplitudes(rng),
                  "seed": rng.randrange(2 ** 32)}
        trials = sizes["trials"]
        commands.append(Command("sample", "sample", config,
                                ("--trials", str(trials)), trials))
    else:
        raise ValueError(f"unknown workload {name!r} (valid: {', '.join(WHY)})")
    return Workload(name, WHY[name], tuple(commands))
