"""Output checks. Each returns a list of problems; an empty list is a pass.

They run outside the timed regions. Numbers are compared with a tolerance,
not byte for byte, because a change of arithmetic path may legitimately move
the 17th significant digit; byte identity is checked separately, between
two runs of the same command at the same seed.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-12
SIGMAS = 5.0


def _wrapped_diff(a, b):
    """|a - b| as angles, so that -pi and pi agree."""
    d = np.asarray(a) - np.asarray(b)
    return np.abs((d + np.pi) % (2.0 * np.pi) - np.pi)


def _cavity(config: dict) -> dict:
    kappa = config["cavity.kappa"]
    return {
        "kappa": kappa,
        "g": config["cavity.g_rel"] * kappa,
        "gamma": config["cavity.gamma_rel"] * kappa,
        "kappa_s": config["cavity.kappa_s_rel"] * kappa,
        "omega_c": config["cavity.omega_c"],
        "omega_x": config["cavity.omega_c"] + config["cavity.omega_x_rel"] * kappa,
    }


def check_reflectance(text: str, command, reference=None) -> list[str]:
    """Rows against r(w) = 1 - kappa h / (h c + g^2), evaluated here in numpy."""
    lines = text.splitlines()
    header = ("detuning_rel,r_cold_re,r_cold_im,phase_cold,"
              "r_hot_re,r_hot_im,phase_hot,delta_phi")
    if not lines or lines[0] != header:
        return ["unexpected reflectance header"]
    start, stop, count = command.grid
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (count, 8):
        return [f"expected {count} rows of 8 columns, got shape {data.shape}"]
    if not np.all(np.isfinite(data)):
        return ["non-finite value in reflectance output"]
    d, cold_re, cold_im, ph_cold, hot_re, hot_im, ph_hot, dphi = data.T
    p = _cavity(command.config)
    omega = p["omega_c"] + np.linspace(start, stop, count) * p["kappa"]
    c = 1j * (p["omega_c"] - omega) + (p["kappa"] + p["kappa_s"]) / 2.0
    h = 1j * (p["omega_x"] - omega) + p["gamma"] / 2.0
    cold = 1.0 - p["kappa"] / c
    hot = 1.0 - p["kappa"] * h / (h * c + p["g"] ** 2)
    r_cold = cold_re + 1j * cold_im
    r_hot = hot_re + 1j * hot_im
    problems = []
    for label, err in (
        ("detuning grid", np.abs(d - (omega - p["omega_c"]) / p["kappa"])),
        ("r_cold", np.abs(r_cold - cold)),
        ("r_hot", np.abs(r_hot - hot)),
        ("phase_cold", _wrapped_diff(ph_cold, np.angle(r_cold))),
        ("phase_hot", _wrapped_diff(ph_hot, np.angle(r_hot))),
        ("delta_phi", _wrapped_diff(dphi, ph_hot - ph_cold)),
    ):
        worst = float(np.max(err))
        if worst > TOL:
            problems.append(f"{label} off by {worst:.3g} (tolerance {TOL:g})")
    if np.max(np.abs(np.concatenate([r_cold, r_hot]))) > 1.0 + TOL:
        problems.append("|r| > 1")
    if np.any(dphi <= -np.pi) or np.any(dphi > np.pi):
        problems.append("delta_phi outside (-pi, pi]")
    return problems


def _in_unit(x: float) -> bool:
    return 0.0 <= x <= 1.0 + TOL


def _branch_problems(where: str, prob, fid, conc, register_size) -> list[str]:
    """Invariants of one branch; a missing fidelity or concurrence is None or NaN."""
    if prob is None or not math.isfinite(prob) or prob < 0.0:
        return [f"{where}: probability {prob!r} is not a finite nonnegative number"]
    problems = []
    live = prob > 0.0
    if _missing(fid):
        if live:
            problems.append(f"{where}: fidelity missing on a live branch")
    elif not _in_unit(fid):
        problems.append(f"{where}: fidelity {fid!r} outside [0, 1]")
    if register_size == 2:
        if _missing(conc):
            if live:
                problems.append(f"{where}: concurrence missing on a live branch")
        elif not _in_unit(conc):
            problems.append(f"{where}: concurrence {conc!r} outside [0, 1]")
    elif not _missing(conc):
        problems.append(f"{where}: concurrence reported where it is undefined")
    return problems


def _missing(x) -> bool:
    """None, NaN, JSON null and an empty CSV cell all mean "not reported"."""
    return x is None or math.isnan(x)


def _close(a, b) -> bool:
    if _missing(a) or _missing(b):
        return _missing(a) and _missing(b)
    return abs(a - b) <= TOL


def _reference_rows(result) -> list[tuple]:
    return [(b.label, b.probability, b.fidelity_vs_target, b.concurrence)
            for b in result.branches]


def _compare(where: str, got: list[tuple], expected: list[tuple]) -> list[str]:
    """Rows of (label, probability, fidelity, concurrence) against run_protocol."""
    if [g[0] for g in got] != [e[0] for e in expected]:
        return [f"{where}: branch labels {[g[0] for g in got]} differ from "
                f"run_protocol's {[e[0] for e in expected]}"]
    problems = []
    for g, e in zip(got, expected):
        for col, a, b in zip(("probability", "fidelity", "concurrence"), g[1:], e[1:]):
            if not _close(a, b):
                problems.append(f"{where} {g[0]}: {col} {a!r} != run_protocol's {b!r}")
    return problems


def _survival_problems(where: str, probs) -> list[str]:
    total = math.fsum(probs)
    return [] if total <= 1.0 + TOL else [f"{where}: probabilities sum to {total!r} > 1"]


def check_protocol(text: str, command, reference) -> list[str]:
    """JSON branches: invariants, finite states, and agreement with run_protocol."""
    try:
        doc = json.loads(text)
        branches = doc["branches"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable protocol JSON: {exc!r}"]
    problems = []
    got = []
    for br in branches:
        where = f"branch {br.get('label')!r}"
        prob, fid, conc = br.get("probability"), br.get("fidelity"), br.get("concurrence")
        size = len(br.get("register", ()))
        problems += _branch_problems(where, prob, fid, conc, size)
        state = br.get("amplitudes", br.get("density_matrix"))
        if state is None or not np.all(np.isfinite(np.asarray(state, dtype=float))):
            problems.append(f"{where}: state missing or not finite")
        got.append((br.get("label"), prob, fid, conc))
    if problems:
        return problems
    problems += _survival_problems("protocol", [g[1] for g in got])
    return problems + _compare("protocol", got, _reference_rows(reference(command.config)))


def _csv_float(cell: str):
    return None if cell == "" else float(cell)


def check_sweep(text: str, command, reference) -> list[str]:
    """Per grid point: invariants; at a few points: agreement with run_protocol."""
    header = ["swept_name", "swept_value", "branch_label", "probability", "fidelity",
              "concurrence", "success_probability"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return ["unexpected sweep header"]
    start, stop, count = command.grid
    grid = np.linspace(start, stop, count)
    points: dict[float, list] = {}
    for row in rows[1:]:
        if len(row) != len(header):
            return [f"malformed sweep row {row!r}"]
        points.setdefault(float(row[1]), []).append(row)
    if len(points) != count or np.max(np.abs(np.array(list(points)) - grid)) > TOL:
        return [f"sweep rows cover {len(points)} grid points, expected {count}"]
    reg_size = None
    problems = []
    for value, point_rows in points.items():
        for row in point_rows:
            prob, fid, conc, success = (_csv_float(c) for c in row[3:7])
            if reg_size is None:
                # the CLI leaves concurrence empty exactly when it is undefined
                reg_size = 2 if row[5] != "" else 0
            where = f"{command.swept_key}={value!r} {row[2]}"
            problems += _branch_problems(where, prob, fid, conc, reg_size)
            if success is None or not math.isfinite(success) or not _in_unit(success):
                problems.append(f"{where}: success_probability {success!r} outside [0, 1]")
        if not problems:
            problems += _survival_problems(f"{command.swept_key}={value!r}",
                                           [float(r[3]) for r in point_rows])
        if problems:
            return problems
    values = list(points)
    for i in sorted({0, count // 2, count - 1}):  # a few points, re-run here
        value = values[i]
        got = [(r[2], *(_csv_float(c) for c in r[3:6])) for r in points[value]]
        config = {**command.config, command.swept_key: value}
        problems += _compare(f"{command.swept_key}={value!r}", got,
                             _reference_rows(reference(config)))
    return problems


def check_sample(text: str, command, reference) -> list[str]:
    """Row count, known labels, and each frequency within 5 sigma of its probability."""
    trials = command.units
    lines = text.splitlines()
    if not lines or lines[0] != "trial_index,branch_label":
        return ["unexpected sample header"]
    if len(lines) - 1 != trials:
        return [f"{len(lines) - 1} rows for {trials} trials"]
    result = reference(command.config)
    probs = {b.label: b.probability for b in result.branches}
    missing = 1.0 - math.fsum(probs.values())
    if missing > 1e-9:
        probs["no_detection"] = missing
    counts = dict.fromkeys(probs, 0)
    for i, line in enumerate(lines[1:]):
        index, _, label = line.partition(",")
        if index != str(i):
            return [f"row {i + 1} has trial index {index!r}"]
        if label not in counts:
            return [f"unknown outcome label {label!r}"]
        counts[label] += 1
    problems = []
    for label, p in probs.items():
        sigma = math.sqrt(trials * p * (1.0 - p))
        if abs(counts[label] - trials * p) > SIGMAS * sigma + 1e-9:
            problems.append(f"{label}: {counts[label]} draws, expected "
                            f"{trials * p:.1f} +- {SIGMAS:g} x {sigma:.1f}")
    return problems


CHECKS = {"reflectance": check_reflectance, "protocol": check_protocol,
          "sweep": check_sweep, "sample": check_sample}


def check(text: str, command, reference) -> list[str]:
    """Run the check for the command's kind; a crash in the check is a failure too."""
    try:
        return CHECKS[command.kind](text, command, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output could not be checked: {exc!r}"]
