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

import numpy as np

from .frozen import Frozen


class ParameterError(ValueError):
    """A model input the program cannot evaluate: a parameter outside its
    range, or cavity values whose reflection coefficients are not finite.
    ``field`` names the field or argument refused. Every CavityParams,
    ProtocolConfig and sweep-grid message starts with that name, so a front
    end can put its own key in its place."""

    def __init__(self, message: str, *, field: str):
        super().__init__(message)
        self.field = field


_RULES = {"finite": np.isfinite, "positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}
_PHASE_TOL = 1e-9  # find_operating_point's stop: |phase - target| <= _PHASE_TOL


def check_field(name: str, value, rule: str) -> None:
    """Raise ParameterError naming ``name`` unless every element of ``value``
    is ``rule``, a key of _RULES. Check "finite" first: NaN fails the others."""
    v = np.asarray(value, dtype=float)
    bad = ~_RULES[rule](v)
    if bad.any():
        raise ParameterError(f"{name} must be {rule}, got {float(v[bad].flat[0])!r}",
                             field=name)


class CavityParams(Frozen):
    """Physical parameters of one dot-cavity system (angular frequency units).

    A field may be an array: a batch of cavities, one per element, that
    broadcast against each other and against the probe frequency. Every
    field must be finite; a field out of range raises ParameterError.
    ``omega_x`` defaults to ``omega_c``.
    """

    def __init__(self, g: float, kappa: float, gamma: float, omega_c: float = 0.0,
                 omega_x: float | None = None, kappa_s: float = 0.0):
        if omega_x is None:
            omega_x = omega_c
        self.__dict__.update(g=g, kappa=kappa, gamma=gamma, omega_c=omega_c, omega_x=omega_x,
                             kappa_s=kappa_s)
        for name, value in vars(self).items():
            check_field(name, value, "finite")
        check_field("kappa", self.kappa, "positive")
        for name in ("g", "gamma", "kappa_s"):
            check_field(name, getattr(self, name), "nonnegative")

    def strong_coupling(self) -> bool:
        return self.g > self.kappa and self.g > self.gamma


class ReflectionResponse(Frozen):
    def __init__(self, r: complex, magnitude: float, phase: float):
        self.__dict__.update(r=r, magnitude=magnitude, phase=phase)


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
        # g * g may overflow to inf, which gives the g -> infinity limit r -> 1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = np.where(g != 0.0, 1.0 - params.kappa * h / (h * c + g * g), r)
    shape = np.broadcast(omega, params.g, params.kappa, params.gamma, params.omega_c,
                         params.omega_x, params.kappa_s).shape
    return (np.broadcast_to(r, shape) if shape else r.reshape(()))[()]


def reflect(params: CavityParams, omega, coupled: bool) -> ReflectionResponse:
    """Reflection amplitude, magnitude and principal-value phase; arrays in,
    arrays out."""
    r = reflection_coefficient(params, omega, coupled)
    return ReflectionResponse(r, np.abs(r), np.angle(r))


def phase_difference(hot_phase, cold_phase):
    """arg r_hot - arg r_cold from the two phases, wrapped to (-pi, pi], elementwise."""
    w = np.mod(np.asarray(hot_phase - cold_phase) + math.pi, 2.0 * math.pi) - math.pi
    return np.where(w <= -math.pi, w + 2.0 * math.pi, w)[()]


def conditional_phase(params: CavityParams, omega):
    """Phase difference arg r_hot - arg r_cold, wrapped to (-pi, pi]."""
    return phase_difference(reflect(params, omega, coupled=True).phase,
                            reflect(params, omega, coupled=False).phase)


def find_operating_point(params: CavityParams, target_phase: float) -> float:
    """Detuning omega - omega_c at which the conditional phase hits the target.

    Bisection over detunings in (0, 5 kappa]; the conditional phase spans
    (0, pi) there in the strong-coupling regime; it stops within _PHASE_TOL of
    the target. Raises ParameterError for a batch of cavities, weak coupling or
    a target the bracket does not hold.
    """
    for name, value in vars(params).items():
        if np.ndim(value):
            raise ParameterError(f"{name} must be a scalar, not a batch", field=name)
    if not 0.0 < target_phase < math.pi:
        raise ParameterError("target phase must lie in (0, pi)", field="target_phase")
    if not params.strong_coupling():
        raise ParameterError("operating-point search requires strong coupling", field="g")

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
        raise ParameterError("target phase unreachable in (0, 5 kappa]", field="target_phase")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= _PHASE_TOL:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
