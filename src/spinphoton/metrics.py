"""Entanglement metrics and parameter-sweep drivers.

Entropies use the natural logarithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gates import RealisticGate
from .qstate import PureState, normalize, partial_trace

_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_YY = np.kron(_PAULI_Y, _PAULI_Y)


def concurrence(state) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1].

    For pure amplitudes (a, b, c, d) this is 2|ad - bc|; mixed states use the
    spin-flip eigenvalue construction on rho (Y x Y) rho* (Y x Y).
    """
    if state.n_qubits != 2:
        raise ValueError("concurrence is defined for exactly 2 qubits")
    if isinstance(state, PureState):
        a, b, c, d = normalize(state).amplitudes
        return float(min(2.0 * abs(a * d - b * c), 1.0))
    rho = normalize(state).matrix
    # factor rho = M M+; the eigenvalues of rho (YY) rho* (YY) are then the
    # squared singular values of M^T (YY) M, which stays accurate at the
    # (defective) zero eigenvalues where a direct eigvals call loses digits
    evals, evecs = np.linalg.eigh(rho)
    m = evecs * np.sqrt(np.clip(evals, 0.0, None))
    lam = np.linalg.svd(m.T @ _YY @ m, compute_uv=False)
    return float(min(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0), 1.0))


def entanglement_entropy(state, partition) -> float:
    """Von Neumann entropy (natural log) of the reduced state over ``partition``."""
    part = list(partition)
    if not part:
        raise ValueError("partition must be nonempty")
    if len(part) >= state.n_qubits:
        raise ValueError("partition must be a proper subset of the register")
    rho = normalize(partial_trace(state, part))
    evals = np.linalg.eigvalsh(rho.matrix)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log(evals)))


SWEEP_PARAMETERS = ("g_rel", "gamma_rel", "kappa_s_rel", "detuning_rel", "t_over_t2")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a strictly increasing grid, all else fixed."""

    parameter: str
    grid: tuple[float, ...]
    config: "protocols.ProtocolConfig"  # noqa: F821 (runtime import below)
    protocol: str
    n_photons: int = 3

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r} "
                f"(valid: {', '.join(SWEEP_PARAMETERS)})"
            )
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ValueError("sweep grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


def _config_at(spec: SweepSpec, value: float):
    cfg = spec.config
    if spec.parameter == "t_over_t2":
        return replace(cfg, t_over_t2=value)
    if not isinstance(cfg.gate, RealisticGate):
        raise ValueError(
            f"sweeping {spec.parameter!r} requires a realistic gate configuration"
        )
    p = cfg.gate.params
    if spec.parameter == "g_rel":
        p2 = replace(p, g=value * p.kappa)
        return replace(cfg, gate=RealisticGate(p2, cfg.gate.omega))
    if spec.parameter == "gamma_rel":
        p2 = replace(p, gamma=value * p.kappa)
        return replace(cfg, gate=RealisticGate(p2, cfg.gate.omega))
    if spec.parameter == "kappa_s_rel":
        p2 = replace(p, kappa_s=value * p.kappa)
        return replace(cfg, gate=RealisticGate(p2, cfg.gate.omega))
    # detuning_rel: move the probe frequency
    return replace(cfg, gate=RealisticGate(p, p.omega_c + value * p.kappa))


def _rows_at(spec: SweepSpec, value: float) -> list[dict]:
    from . import protocols  # local import; protocols also uses this module

    result = protocols.run_protocol(spec.protocol, _config_at(spec, value),
                                    n_photons=spec.n_photons)
    rows = []
    for br in result.branches:
        rows.append({
            "swept_name": spec.parameter,
            "swept_value": value,
            "branch_label": br.label,
            "probability": br.probability,
            "fidelity": br.fidelity_vs_target,
            "concurrence": br.concurrence,
            "success_probability": br.success_probability,
        })
    return rows


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (grid point, branch), in grid order. Pure: identical specs
    give identical tables."""
    return [row for value in spec.grid for row in _rows_at(spec, value)]
