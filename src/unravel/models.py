"""Benchmark qubit models.

Basis order is (|0>, |1>) with |0> the ground state, so
sigma_z = |1><1| - |0><0| = diag(-1, 1) and sigma_plus = |1><0| raises.
All phase-covariant models share the channel set
(sigma_plus, g_plus), (sigma_minus, g_minus), (sigma_z, g_z) and
H = omega0 * sigma_z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, UnknownModel
from .master_equation import MasterEquation, _const_rate, master_equation

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "KET0",
    "KET1",
    "PLUS",
    "MINUS",
    "OBSERVABLES",
    "PhaseCovariantRates",
    "phase_covariant_rates",
    "phase_covariant",
    "eternally_nm_rates",
    "eternally_nm",
    "non_p_divisible_rates",
    "non_p_divisible",
    "delayed_negative_rates",
    "delayed_negative_phase_covariant",
    "spontaneous_emission",
    "Model",
    "MODEL_NAMES",
    "build_model",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

OBSERVABLES: dict[str, np.ndarray] = {
    "sx": SIGMA_X,
    "sy": SIGMA_Y,
    "sz": SIGMA_Z,
    "p0": np.outer(KET0, KET0.conj()),
    "p1": np.outer(KET1, KET1.conj()),
}

RateFn = Callable[[float], float]


def _as_rate(g) -> RateFn:
    return g if callable(g) else _const_rate(g)


@dataclass(frozen=True)
class PhaseCovariantRates:
    gamma_plus: RateFn
    gamma_minus: RateFn
    gamma_z: RateFn
    omega0: float = 0.0

    def as_tuple(self, t: float) -> tuple[float, float, float]:
        return (self.gamma_plus(t), self.gamma_minus(t), self.gamma_z(t))


def phase_covariant_rates(gamma_plus, gamma_minus, gamma_z, omega0: float = 0.0) -> PhaseCovariantRates:
    """Rates from callables or constants."""
    return PhaseCovariantRates(_as_rate(gamma_plus), _as_rate(gamma_minus), _as_rate(gamma_z), float(omega0))


def phase_covariant(rates: PhaseCovariantRates) -> MasterEquation:
    """Phase-covariant qubit master equation with H = omega0 * sigma_z."""
    h = rates.omega0 * SIGMA_Z
    return master_equation(
        2,
        h,
        [
            (SIGMA_PLUS, rates.gamma_plus, "sigma_plus"),
            (SIGMA_MINUS, rates.gamma_minus, "sigma_minus"),
            (SIGMA_Z, rates.gamma_z, "sigma_z"),
        ],
    )


def eternally_nm_rates() -> PhaseCovariantRates:
    """g_plus = g_minus = 1, g_z(t) = -tanh(t)/2."""
    return phase_covariant_rates(1.0, 1.0, lambda t: -0.5 * np.tanh(t))


def eternally_nm() -> MasterEquation:
    """P-divisible for every t but never CP-divisible for t > 0."""
    return phase_covariant(eternally_nm_rates())


def non_p_divisible_rates(kappa: float = 0.25) -> PhaseCovariantRates:
    """g_plus = g_minus = (1/2) e^{-t/10} [kappa + (1-kappa) e^{-t/4} cos 2t], g_z = 1/2."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")

    def g(t: float) -> float:
        return 0.5 * np.exp(-t / 10.0) * (kappa + (1.0 - kappa) * np.exp(-t / 4.0) * np.cos(2.0 * t))

    return phase_covariant_rates(g, g, 0.5)


def non_p_divisible(kappa: float = 0.25) -> MasterEquation:
    """Loses P divisibility on a finite time window for small kappa."""
    return phase_covariant(non_p_divisible_rates(kappa))


def delayed_negative_rates() -> PhaseCovariantRates:
    """g_plus = g_minus = 1, g_z(t) = cos(2t)/2: rate turns negative only after t = pi/4."""
    return phase_covariant_rates(1.0, 1.0, lambda t: 0.5 * np.cos(2.0 * t))


def delayed_negative_phase_covariant() -> MasterEquation:
    """CP divisible on [0, pi/4], P divisible always; negativity starts away from t=0."""
    return phase_covariant(delayed_negative_rates())


def spontaneous_emission(omega0: float = 0.0, omega: float = 0.0, gamma: float = 1.0) -> MasterEquation:
    """Two-level atom, H = (omega0/2) sigma_z + omega sigma_x, channel (sigma_minus, gamma)."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    h = 0.5 * omega0 * SIGMA_Z + omega * SIGMA_X
    return master_equation(2, h, [(SIGMA_MINUS, gamma, "sigma_minus")])


@dataclass(frozen=True)
class Model:
    """Named model bundle: the equation plus whatever the CLI needs around it."""

    name: str
    me: MasterEquation
    rates: PhaseCovariantRates | None = None
    params: dict = field(default_factory=dict)
    default_initial: np.ndarray = field(default_factory=lambda: PLUS.copy())


def _build_phase_covariant(params: dict) -> Model:
    rates = phase_covariant_rates(
        params.get("gamma_plus", 1.0),
        params.get("gamma_minus", 1.0),
        params.get("gamma_z", 0.0),
        params.get("omega0", 0.0),
    )
    return Model("phase_covariant", phase_covariant(rates), rates, params)


def _build_eternally_nm(params: dict) -> Model:
    rates = eternally_nm_rates()
    return Model("eternally_nm", phase_covariant(rates), rates, params)


def _build_non_p(params: dict) -> Model:
    kappa = params.get("kappa", 0.25)
    rates = non_p_divisible_rates(kappa)
    return Model("non_p_divisible", phase_covariant(rates), rates, params)


def _build_delayed(params: dict) -> Model:
    rates = delayed_negative_rates()
    return Model("delayed_negative", phase_covariant(rates), rates, params)


def _build_spontaneous(params: dict) -> Model:
    me = spontaneous_emission(
        params.get("omega0", 0.0), params.get("omega", 0.0), params.get("gamma", 1.0)
    )
    return Model("spontaneous_emission", me, None, params)


# name -> (builder, the parameters it reads)
_BUILDERS = {
    "eternally_nm": (_build_eternally_nm, ()),
    "non_p_divisible": (_build_non_p, ("kappa",)),
    "spontaneous_emission": (_build_spontaneous, ("omega0", "omega", "gamma")),
    "phase_covariant": (_build_phase_covariant, ("gamma_plus", "gamma_minus", "gamma_z", "omega0")),
    "delayed_negative": (_build_delayed, ()),
}

MODEL_NAMES = sorted(_BUILDERS)


def build_model(name: str, params: dict | None = None) -> Model:
    """Registry model; bad names, parameters and values raise ConfigError."""
    try:
        builder, valid = _BUILDERS[name]
    except KeyError:
        raise UnknownModel(f"unknown model {name!r}; valid names: {', '.join(MODEL_NAMES)}") from None
    params = dict(params or {})
    for key in params:
        if key not in valid:
            raise ConfigError(
                f"unknown parameter {key!r} for model {name!r}; "
                f"valid: {', '.join(valid) or 'none'}"
            )
    try:
        return builder(params)
    except ValueError as err:
        raise ConfigError(f"model {name!r}: {err}") from None
