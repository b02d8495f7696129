"""Batch command-line front end.

Subcommands: reflectance | protocol | sweep | sample. Configuration comes from
a plain-text ``key = value`` file ('#' starts a comment); frequencies and
rates may be given in units of kappa with a ``_rel`` suffix. Data goes to
--out (or stdout) as CSV or JSON; human messages go to stderr. Exit codes:
0 success; 2 a usage or configuration error, with the flag or key at fault
named; 1 the program was at fault (an internal error, with its traceback) or
the output could not be written.

``reflectance`` evaluates its whole grid as one array, and ``sweep`` runs its
grid as one batched protocol pass; each sweep row equals the ``protocol`` run
at that grid point bit for bit. ``sample`` draws all its trials at once; its
``--seed`` (default: the config's ``seed`` key) is the only seed any
subcommand reads.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, conditional_phase, reflect
from .gates import GateMode, IdealGate, RealisticGate
from .metrics import SWEEP_PARAMETERS, SweepSpec, run_sweep
from .protocols import PROTOCOL_NAMES, ProtocolConfig, run_protocol
from .qstate import PureState, sample_indices


class ConfigError(ValueError):
    """Raised for malformed configuration files or flag values."""


_FLOAT_KEYS = {
    "cavity.g", "cavity.g_rel", "cavity.kappa", "cavity.gamma", "cavity.gamma_rel",
    "cavity.kappa_s", "cavity.kappa_s_rel", "cavity.omega_c", "cavity.omega_x",
    "cavity.omega_x_rel", "gate.detuning_rel", "noise.t_over_t2",
}
_COMPLEX_KEYS = {"alpha1", "beta1", "alpha2", "beta2"}
_INT_KEYS = {"seed", "trials", "ghz.n_photons"}
_STR_KEYS = {"gate.mode", "protocol"}
KNOWN_KEYS = _FLOAT_KEYS | _COMPLEX_KEYS | _INT_KEYS | _STR_KEYS

def parse_config_text(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value: str):
    try:
        if key in _FLOAT_KEYS:
            x = float(value)
        elif key in _COMPLEX_KEYS:
            x = complex(value.replace(" ", ""))
        elif key in _INT_KEYS:
            return int(value)
        else:
            return value
    except ValueError:
        raise ConfigError(f"cannot parse value for {key!r}: {value!r}")
    if not cmath.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return x


@dataclass(frozen=True)
class RunConfig:
    protocol: str
    cavity: CavityParams
    config: ProtocolConfig
    seed: int
    trials: int
    n_photons: int
    echo: dict


def resolve_config(raw: dict) -> RunConfig:
    vals = {k: _convert(k, v) for k, v in raw.items()}

    kappa = vals.get("cavity.kappa", 1.0)
    if kappa <= 0:
        raise ConfigError(f"cavity.kappa must be positive, got {kappa!r}")

    def cavity_value(key: str, default: float) -> float:
        rel = key + "_rel"
        if key in vals and rel in vals:
            raise ConfigError(f"both {key!r} and {rel!r} given")
        for k in (key, rel):
            if vals.get(k, 0.0) < 0:
                raise ConfigError(f"{k} must be nonnegative, got {vals[k]!r}")
        if rel in vals:
            return vals[rel] * kappa
        return vals.get(key, default)

    omega_c = vals.get("cavity.omega_c", 0.0)
    if "cavity.omega_x" in vals and "cavity.omega_x_rel" in vals:
        raise ConfigError("both 'cavity.omega_x' and 'cavity.omega_x_rel' given")
    if "cavity.omega_x_rel" in vals:  # offset from the cavity line, in kappa units
        omega_x = omega_c + vals["cavity.omega_x_rel"] * kappa
    else:
        omega_x = vals.get("cavity.omega_x", omega_c)
    g = cavity_value("cavity.g", 10.0 * kappa)
    gamma = cavity_value("cavity.gamma", 0.1 * kappa)
    kappa_s = cavity_value("cavity.kappa_s", 0.0)
    try:  # a large kappa can still overflow a default or a _rel value
        cavity = CavityParams(g=g, kappa=kappa, gamma=gamma, omega_c=omega_c,
                              omega_x=omega_x, kappa_s=kappa_s)
    except ValueError as exc:  # its messages start with the field name
        raise ConfigError(f"cavity.{exc}")

    mode_name = vals.get("gate.mode", "ideal")
    detuning_rel = vals.get("gate.detuning_rel", 0.5)
    if mode_name == "ideal":
        gate: GateMode = IdealGate()
    elif mode_name == "realistic":
        gate = RealisticGate(cavity, omega_c + detuning_rel * kappa)
        with np.errstate(all="ignore"):  # extreme values are refused just below
            coefficients = np.array(gate.coefficients)
        if not np.isfinite(coefficients).all():
            raise ConfigError(
                f"the realistic gate's reflection coefficients {coefficients.tolist()} "
                "are not finite: check the cavity.* keys and gate.detuning_rel")
    else:
        raise ConfigError(f"gate.mode must be 'ideal' or 'realistic', got {mode_name!r}")

    protocol = vals.get("protocol", "scheme-b")
    if protocol not in PROTOCOL_NAMES:
        raise ConfigError(
            f"unknown protocol {protocol!r} (valid: {', '.join(PROTOCOL_NAMES)})"
        )

    t_over_t2 = vals.get("noise.t_over_t2", 0.0)
    if t_over_t2 < 0:
        raise ConfigError(f"noise.t_over_t2 must be nonnegative, got {t_over_t2!r}")
    sq = 1.0 / math.sqrt(2.0)
    try:
        config = ProtocolConfig(
            gate=gate,
            alpha1=vals.get("alpha1", sq), beta1=vals.get("beta1", sq),
            alpha2=vals.get("alpha2", sq), beta2=vals.get("beta2", sq),
            t_over_t2=t_over_t2,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    seed = vals.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    trials = vals.get("trials", 1)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    n_photons = vals.get("ghz.n_photons", 3)
    if not 2 <= n_photons <= 6:
        raise ConfigError(f"ghz.n_photons must be in [2, 6], got {n_photons}")

    echo: dict = {"protocol": protocol}
    if isinstance(gate, IdealGate):
        echo["gate"] = {"mode": "ideal", "delta_phi": math.pi / 2}
    else:
        echo["gate"] = {
            "mode": "realistic",
            "detuning_rel": detuning_rel,
            "cavity": {
                "g": cavity.g, "kappa": cavity.kappa, "gamma": cavity.gamma,
                "kappa_s": cavity.kappa_s, "omega_c": cavity.omega_c,
                "omega_x": cavity.omega_x,
            },
        }
    echo["amplitudes"] = dict(zip(
        ("alpha1", "beta1", "alpha2", "beta2"),
        _pairs(np.array([config.alpha1, config.beta1, config.alpha2, config.beta2]))))
    echo["noise"] = {"t_over_t2": config.t_over_t2}
    echo["seed"] = seed
    if protocol == "ghz":
        echo["ghz"] = {"n_photons": n_photons}

    return RunConfig(protocol, cavity, config, seed, trials, n_photons, echo)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return resolve_config({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return resolve_config(parse_config_text(text))


def _pairs(a: np.ndarray) -> list:
    """A complex array as nested lists with an ``[re, im]`` pair per entry."""
    return np.stack([a.real, a.imag], -1).tolist()


def parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be 'start:stop:count', got {spec!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError:
        raise ConfigError(f"cannot parse grid {spec!r}")
    if n <= 0:
        raise ConfigError("empty range: grid count must be >= 1")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ConfigError(f"--grid start and stop must be finite, got {spec!r}")
    if n == 1 and a != b:
        raise ConfigError(f"--grid with count 1 needs start == stop, got {spec!r}")
    return list(np.linspace(a, b, n))


_CHUNK_ROWS = 4096  # rows formatted per write, to bound the text held at once


def _emit(parts, out_path: str | None) -> None:
    """Write the text pieces, in order, to ``out_path`` or stdout."""
    if out_path is None:
        sys.stdout.writelines(parts)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


def _csv_chunks(header: str, n_rows: int, format_rows):
    """The header line, then ``format_rows(start, stop)`` chunk by chunk."""
    yield header + "\n"
    for start in range(0, n_rows, _CHUNK_ROWS):
        yield format_rows(start, min(start + _CHUNK_ROWS, n_rows))


# --- subcommands -------------------------------------------------------------

def cmd_reflectance(args) -> int:
    run = load_config(args.config)
    grid = np.array(parse_grid(args.grid))
    params = run.cavity
    omega = params.omega_c + grid * params.kappa
    cold = reflect(params, omega, coupled=False)
    hot = reflect(params, omega, coupled=True)
    table = np.column_stack([grid, cold.r.real, cold.r.imag, cold.phase,
                             hot.r.real, hot.r.imag, hot.phase,
                             conditional_phase(params, omega)])
    row = ",".join(["%.17g"] * 8) + "\n"
    _emit(_csv_chunks("detuning_rel,r_cold_re,r_cold_im,phase_cold,"
                      "r_hot_re,r_hot_im,phase_hot,delta_phi", len(table),
                      lambda a, b: "".join(row % tuple(r) for r in table[a:b].tolist())),
          args.out)
    return 0


def _branch_payload(br) -> dict:
    state = br.state
    pure = isinstance(state, PureState)
    fidelity, conc = br.fidelity_vs_target, br.concurrence
    return {
        "label": br.label,
        "probability": br.probability,
        "register": [str(q) for q in state.register],
        "basis": state.basis_strings(),
        "amplitudes" if pure else "density_matrix":
            _pairs(state.amplitudes if pure else state.matrix),
        # the only fields that can hold NaN (a dead branch, a vanishing target)
        "fidelity": fidelity if fidelity == fidelity else None,
        "concurrence": conc if conc == conc else None,
        "success_probability": br.success_probability,
    }


def cmd_protocol(args) -> int:
    run = load_config(args.config)
    result = run_protocol(run.protocol, run.config, n_photons=run.n_photons)
    doc = {
        "protocol": run.protocol,
        "config": run.echo,
        "branches": [_branch_payload(b) for b in result.branches],
    }
    _emit([json.dumps(doc, indent=2, allow_nan=False) + "\n"], args.out)
    return 0


def cmd_sweep(args) -> int:
    run = load_config(args.config)
    if args.sweep not in SWEEP_PARAMETERS:
        raise ConfigError(
            f"unknown swept parameter {args.sweep!r} "
            f"(valid: {', '.join(SWEEP_PARAMETERS)})"
        )
    if args.sweep != "t_over_t2" and isinstance(run.config.gate, IdealGate):
        raise ConfigError(f"sweeping {args.sweep} needs gate.mode = realistic, got ideal")
    grid = parse_grid(args.grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"--grid of a sweep must be strictly increasing, got {args.grid!r}")
    if args.sweep != "detuning_rel" and min(grid) < 0:
        raise ConfigError(
            f"--grid for {args.sweep} must be nonnegative, got {float(min(grid))!r}")
    spec = SweepSpec(parameter=args.sweep, grid=tuple(grid), config=run.config,
                     protocol=run.protocol, n_photons=run.n_photons)
    rows = run_sweep(spec)
    row = "%s,%.17g,%s,%.17g,%.17g,%s,%.17g\n"
    _emit(_csv_chunks("swept_name,swept_value,branch_label,probability,fidelity,"
                      "concurrence,success_probability", len(rows),
                      lambda a, b: "".join(row % (
                          r["swept_name"], r["swept_value"], r["branch_label"],
                          r["probability"], r["fidelity"],
                          "" if r["concurrence"] is None else "%.17g" % r["concurrence"],
                          r["success_probability"]) for r in rows[a:b])),
          args.out)
    return 0


def cmd_sample(args) -> int:
    run = load_config(args.config)
    trials = args.trials if args.trials is not None else run.trials
    if trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {trials}")
    seed = args.seed if args.seed is not None else run.seed
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    result = run_protocol(run.protocol, run.config, n_photons=run.n_photons)
    labels = [b.label for b in result.branches]
    probabilities = [b.probability for b in result.branches]
    missing = 1.0 - sum(probabilities)
    if missing > 1e-9:
        # photon loss in realistic mode: no detector fires
        labels.append("no_detection")
        probabilities.append(missing)
    endings = np.array([f",{label}\n" for label in labels], dtype=object)
    draws = endings[sample_indices(probabilities, np.random.default_rng(seed), trials)]
    _emit(_csv_chunks("trial_index,branch_label", trials,
                      lambda a, b: "".join(map(str.__add__, map(str, range(a, b)),
                                               draws[a:b].tolist()))),
          args.out)
    return 0


# --- entry point -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinphoton",
        description="Spin-photon entanglement protocol simulator (batch runs).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")

    p_refl = sub.add_parser("reflectance", parents=[common],
                            help="cold/hot reflection sweep as CSV")
    p_refl.add_argument("--grid", required=True, metavar="a:b:n",
                        help="detuning grid in units of kappa")
    p_refl.set_defaults(func=cmd_reflectance)

    p_prot = sub.add_parser("protocol", parents=[common],
                            help="run one protocol, emit every branch as JSON")
    p_prot.set_defaults(func=cmd_protocol)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep one parameter, emit per-branch CSV rows")
    p_sweep.add_argument("--sweep", required=True, metavar="NAME",
                         help=f"one of: {', '.join(SWEEP_PARAMETERS)}")
    p_sweep.add_argument("--grid", required=True, metavar="a:b:n")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sample = sub.add_parser("sample", parents=[common],
                              help="seeded draws of detection outcomes as CSV")
    p_sample.add_argument("--trials", type=int, default=None)
    p_sample.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # every input fault is a ConfigError by now
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
