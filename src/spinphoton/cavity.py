"""Reflection response of the single-sided quantum-dot micropillar cavity.

The standard weak-excitation input-output result for a single-sided cavity is
used throughout:

    r(omega) = 1 - kappa * h / (h * c + g^2)

with h = i(omega_x - omega) + gamma/2 and c = i(omega_c - omega) + (kappa +
kappa_s)/2. The cold (uncoupled) cavity is the g = 0 limit, where the
expression reduces to r0 = 1 - kappa / c, unit modulus when kappa_s = 0 with
phase

    phi0(omega) = +-pi + 2 arctan(2 (omega - omega_c) / kappa)

('+' below resonance, '-' above). In the strongly coupled (hot) cavity the
dipole pins the phase near zero for |omega - omega_c| << g, so the conditional
phase delta_phi = phi_hot - phi_cold approaches -phi0; delta_phi = pi/2 at a
probe detuning of kappa/2.

All rates follow the convention that kappa and gamma are twice the cavity
field and dipole decay rates respectively.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of one dot-cavity system (angular frequency units).

    A field may be an array: a batch of cavities, one per element, that
    broadcast against each other and against the probe frequency. Every
    field must be finite.
    """

    g: float
    kappa: float
    gamma: float
    omega_c: float = 0.0
    omega_x: float | None = None
    kappa_s: float = 0.0

    def __post_init__(self):
        if self.omega_x is None:
            object.__setattr__(self, "omega_x", self.omega_c)
        for name, value in vars(self).items():
            v = np.asarray(value, dtype=float)
            bad = ~np.isfinite(v)
            if bad.any():
                raise ValueError(f"{name} must be finite, got {float(v[bad].flat[0])!r}")
        if np.any(np.asarray(self.kappa) <= 0):
            raise ValueError("kappa must be positive")
        for name in ("g", "gamma", "kappa_s"):
            v = np.asarray(getattr(self, name), dtype=float)
            if (v < 0).any():
                raise ValueError(f"{name} must be nonnegative, got {float(v[v < 0].flat[0])!r}")

    def strong_coupling(self) -> bool:
        return self.g > self.kappa and self.g > self.gamma


@dataclass(frozen=True)
class ReflectionResponse:
    r: complex
    magnitude: float
    phase: float


def reflection_coefficient(params: CavityParams, omega, coupled: bool):
    """Complex r(omega). ``omega`` and the cavity fields may be arrays; the
    result has their broadcast shape (a numpy scalar when all are scalars).

    Everything is evaluated as arrays of at least one element, so a single
    frequency gets exactly the arithmetic of each element of a grid.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    c = 1j * (params.omega_c - w) + (params.kappa + params.kappa_s) / 2.0
    # the dipole factor cancels without coupling, which also avoids 0/0 at
    # omega = omega_x
    r = 1.0 - params.kappa / c
    g = np.asarray(params.g, dtype=float)
    if coupled and g.any():
        h = 1j * (params.omega_x - w) + params.gamma / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(g != 0.0, 1.0 - params.kappa * h / (h * c + g * g), r)
    shape = np.broadcast(omega, params.g, params.kappa, params.gamma, params.omega_c,
                         params.omega_x, params.kappa_s).shape
    return (np.broadcast_to(r, shape) if shape else r.reshape(()))[()]


def reflect(params: CavityParams, omega, coupled: bool) -> ReflectionResponse:
    """Reflection amplitude, magnitude and principal-value phase; arrays in,
    arrays out."""
    r = reflection_coefficient(params, omega, coupled)
    return ReflectionResponse(r, np.abs(r), np.angle(r))


def _wrap(angle):
    """Wrap to the principal interval (-pi, pi], elementwise."""
    w = np.mod(np.asarray(angle) + math.pi, 2.0 * math.pi) - math.pi
    return np.where(w <= -math.pi, w + 2.0 * math.pi, w)[()]


def conditional_phase(params: CavityParams, omega):
    """Phase difference arg r_hot - arg r_cold, wrapped to (-pi, pi]."""
    hot = reflect(params, omega, coupled=True)
    cold = reflect(params, omega, coupled=False)
    return _wrap(hot.phase - cold.phase)


def find_operating_point(params: CavityParams, target_phase: float,
                         tol: float = 1e-9) -> float:
    """Detuning omega - omega_c at which the conditional phase hits the target.

    Bisection over detunings in (0, 5 kappa]; the conditional phase spans
    (0, pi) there in the strong-coupling regime. Raises if the target is not
    bracketed.
    """
    if not 0.0 < target_phase < math.pi:
        raise ValueError("target phase must lie in (0, pi)")
    if not params.strong_coupling():
        raise ValueError("operating-point search requires strong coupling")

    def f(detuning: float) -> float:
        return conditional_phase(params, params.omega_c + detuning) - target_phase

    lo = 1e-9 * params.kappa
    hi = 5.0 * params.kappa
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("target phase unreachable in the (0, 5 kappa] bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
