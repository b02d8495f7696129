"""Entanglement metrics and parameter-sweep drivers.

Entropies use the natural logarithm. A sweep runs batched: the whole grid is
one batched config and one ``run_protocol`` call (split into passes of at
most ``MAX_BATCH_AMPLITUDES`` amplitudes), and each row equals the unbatched
run at its grid point bit for bit, read from per-label columns.
"""
from __future__ import annotations

import numpy as np

from .cavity import ParameterError, check_field
from .frozen import Frozen, replace
from .gates import RealisticGate
from .qstate import PureState, normalize, partial_trace

_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_YY = np.kron(_PAULI_Y, _PAULI_Y)


def concurrence(state):
    """Wootters concurrence of a two-qubit state, in [0, 1]; one value per
    batch element.

    For pure amplitudes (a, b, c, d) this is 2|ad - bc|; mixed states use the
    spin-flip eigenvalue construction on rho (Y x Y) rho* (Y x Y).
    """
    if state.n_qubits != 2:
        raise ValueError("concurrence is defined for exactly 2 qubits")
    if isinstance(state, PureState):
        v = normalize(state).amplitudes
        c = 2.0 * np.abs(v[..., 0] * v[..., 3] - v[..., 1] * v[..., 2])
        return np.minimum(c, 1.0)
    rho = normalize(state).matrix
    # factor rho = M M+; the eigenvalues of rho (YY) rho* (YY) are then the
    # squared singular values of M^T (YY) M, which stays accurate at the
    # (defective) zero eigenvalues where a direct eigvals call loses digits
    evals, evecs = np.linalg.eigh(rho)
    m = evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    lam = np.linalg.svd(np.swapaxes(m, -1, -2) @ _YY @ m, compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.clip(c, 0.0, 1.0)


def entanglement_entropy(state, partition) -> float:
    """Von Neumann entropy (natural log) of the reduced state over ``partition``."""
    part = list(partition)  # partial_trace refuses an empty one
    if len(part) >= state.n_qubits:
        raise ValueError("partition must be a proper subset of the register")
    rho = normalize(partial_trace(state, part))
    evals = np.linalg.eigvalsh(rho.matrix)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log(evals)))


SWEEP_PARAMETERS = ("g_rel", "gamma_rel", "kappa_s_rel", "detuning_rel", "t_over_t2")


class SweepSpec(Frozen):
    """One swept parameter over a strictly increasing grid, all else fixed."""

    def __init__(self, parameter: str, grid: tuple[float, ...],
                 config: "protocols.ProtocolConfig",  # noqa: F821 (runtime import below)
                 protocol: str, n_photons: int = 3):
        if parameter not in SWEEP_PARAMETERS:
            raise ParameterError(f"unknown sweep parameter {parameter!r} "
                                 f"(valid: {', '.join(SWEEP_PARAMETERS)})", field="parameter")
        grid = tuple(float(v) for v in grid)
        if not grid:
            raise ParameterError("grid must be nonempty", field="grid")
        check_field("grid", grid, "finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("grid must be strictly increasing", field="grid")
        self.__dict__.update(parameter=parameter, grid=grid, config=config, protocol=protocol,
                             n_photons=n_photons)


# Upper bound on batch elements x values per element (see _passes) in one
# protocol pass; longer grids run in several passes.
MAX_BATCH_AMPLITUDES = 2 ** 14


def _batched_config(spec: SweepSpec, values: np.ndarray):
    """The sweep's config with the swept parameter set to ``values`` (a batch);
    CavityParams or the gate refuses a swept value that overflows to inf."""
    cfg = spec.config
    if spec.parameter == "t_over_t2":
        return replace(cfg, t_over_t2=values)
    if not isinstance(cfg.gate, RealisticGate):
        raise ParameterError(f"gate must be realistic to sweep {spec.parameter!r}", field="gate")
    p = cfg.gate.params
    with np.errstate(over="ignore"):
        scaled = values * p.kappa
        if spec.parameter == "detuning_rel":  # move the probe frequency
            return replace(cfg, gate=RealisticGate(p, p.omega_c + scaled))
    field = {"g_rel": "g", "gamma_rel": "gamma", "kappa_s_rel": "kappa_s"}[spec.parameter]
    p2 = replace(p, **{field: scaled})
    # one (cavity, probe frequency) point per element
    return replace(cfg, gate=RealisticGate(p2, np.full(values.shape, cfg.gate.omega)))


def _passes(spec: SweepSpec) -> list[np.ndarray]:
    """The grid in order, split into the batches of one protocol pass each.

    The t_over_t2 = 0 point runs apart from the dephased ones, since its
    branch states are pure. Each pass holds at most MAX_BATCH_AMPLITUDES
    values per element of what the pass builds: the chain (scheme-b, and ghz
    of n photons) its n + 1 per-m terms, plus at n = 2 the 4x4 density matrix
    of the pair it scores; the other protocols 16 (a 4x4 pair density matrix).
    """
    grid = np.array(spec.grid)
    groups = [grid]
    if spec.parameter == "t_over_t2":
        groups = [grid[grid == 0.0], grid[grid != 0.0]]
    n = {"scheme-b": 2, "ghz": spec.n_photons}.get(spec.protocol)
    per_element = 16 if n is None else n + 1 + 16 * (n == 2)
    size = max(1, MAX_BATCH_AMPLITUDES // per_element)
    return [g[i:i + size] for g in groups for i in range(0, len(g), size)]


def sweep_columns(spec: SweepSpec):
    """Each protocol pass of the sweep, in grid order: (its grid values as a
    list, its ProtocolResult's BranchColumns)."""
    from . import protocols  # local import; protocols also uses this module

    for values in _passes(spec):
        result = protocols.run_protocol(spec.protocol, _batched_config(spec, values),
                                        n_photons=spec.n_photons)
        yield values.tolist(), result.columns


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (grid point, branch), in grid order. Pure: identical specs
    give identical tables."""
    return [{
        "swept_name": spec.parameter,
        "swept_value": value,
        "branch_label": c.label,
        "probability": c.probability[i],
        "fidelity": c.fidelity[i],
        "concurrence": None if c.concurrence is None else c.concurrence[i],
        "success_probability": c.probability[i],
    } for values, columns in sweep_columns(spec)
        for i, value in enumerate(values) for c in columns]
