"""Benchmark model registry and rate functions."""

import numpy as np
import pytest

from unravel.errors import ConfigError, UnknownModel
from unravel.linalg import haar_state
from unravel.master_equation import lindblad_apply
from unravel.models import (
    MODEL_NAMES,
    OBSERVABLES,
    PLUS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    build_model,
    delayed_negative_rates,
    eternally_nm_rates,
    non_p_divisible_rates,
    spontaneous_emission,
)


def test_basis_conventions():
    # |0> is ground: sigma_plus raises, sigma_minus lowers
    assert np.allclose(SIGMA_PLUS @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(SIGMA_MINUS @ np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.allclose(OBSERVABLES["sz"], np.diag([-1.0, 1.0]))


def test_rate_functions_frozen_values():
    enm = eternally_nm_rates()
    assert enm.gamma_plus(3.7) == 1.0
    assert enm.gamma_z(2.0) == pytest.approx(-0.5 * np.tanh(2.0))

    day = delayed_negative_rates()
    assert day.gamma_z(0.0) == pytest.approx(0.5)
    assert day.gamma_z(np.pi / 4) == pytest.approx(0.0, abs=1e-15)
    assert day.gamma_z(1.0) == pytest.approx(0.5 * np.cos(2.0))

    npd = non_p_divisible_rates(0.25)
    assert npd.gamma_z(9.0) == 0.5
    assert npd.gamma_plus(0.0) == pytest.approx(0.5)  # (1/2)[k + (1-k)]
    t = 1.5
    want = 0.5 * np.exp(-t / 10) * (0.25 + 0.75 * np.exp(-t / 4) * np.cos(2 * t))
    assert npd.gamma_plus(t) == pytest.approx(want)
    assert want < 0  # the window where P divisibility can break


def test_non_p_kappa_validation():
    with pytest.raises(ValueError):
        non_p_divisible_rates(kappa=1.4)


def test_all_models_preserve_trace():
    gen = np.random.default_rng(31)
    for name in MODEL_NAMES:
        me = build_model(name).me
        psi = haar_state(2, gen)
        rho = np.outer(psi, psi.conj())
        for t in (0.0, 0.7, 2.3):
            assert abs(np.trace(lindblad_apply(me, t, rho))) < 1e-12, name


def test_observables_hermitian():
    for name, mat in OBSERVABLES.items():
        assert np.allclose(mat, mat.conj().T), name


def test_build_model_registry():
    model = build_model("non_p_divisible", {"kappa": 0.5})
    assert model.name == "non_p_divisible"
    assert model.rates.gamma_plus(0.0) == pytest.approx(0.5)
    assert np.allclose(model.default_initial, PLUS)
    with pytest.raises(UnknownModel):
        build_model("ohmic_bath")


def test_build_model_rejects_bad_parameters():
    with pytest.raises(ConfigError, match="kappa must lie"):
        build_model("non_p_divisible", {"kappa": 2.0})
    with pytest.raises(ConfigError, match="gamma must be"):
        build_model("spontaneous_emission", {"gamma": -1.0})
    with pytest.raises(ConfigError, match="valid: omega0, omega, gamma"):
        build_model("spontaneous_emission", {"kappa": 0.5})
    with pytest.raises(ConfigError, match="valid: none"):
        build_model("eternally_nm", {"kappa": 0.5})


def test_phase_covariant_params_forwarded():
    model = build_model("phase_covariant", {"gamma_plus": 0.3, "gamma_z": -0.1, "omega0": 2.0})
    snap = model.me.at(0.0)
    assert snap.gammas[0] == pytest.approx(0.3)
    assert snap.gammas[2] == pytest.approx(-0.1)
    assert np.allclose(snap.h, 2.0 * OBSERVABLES["sz"])


def test_spontaneous_emission_with_drive():
    me = spontaneous_emission(omega0=1.0, omega=0.5, gamma=2.0)
    snap = me.at(0.0)
    assert np.allclose(snap.h, 0.5 * OBSERVABLES["sz"] + 0.5 * OBSERVABLES["sx"])
    assert snap.gammas[0] == pytest.approx(2.0)
