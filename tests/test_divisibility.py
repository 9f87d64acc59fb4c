"""CP and P divisibility classification, closed form against sampling."""

from collections import Counter

import numpy as np
import pytest

from unravel.divisibility import (
    divisibility_scan,
    is_cp_divisible_at,
    is_p_divisible_at,
    min_rate_at,
    p_divisibility_min_eigenvalue,
    phase_covariant_p_divisible_at,
)
from unravel.models import (
    delayed_negative_phase_covariant,
    eternally_nm,
    non_p_divisible,
    phase_covariant,
    phase_covariant_rates,
    spontaneous_emission,
)
from unravel.propagate import TimeGrid

from branch_tools import calls_per_time, counting_model


def test_closed_form_boundary_cases():
    # boundary for g_plus = g_minus = 1 sits at g_z = -1/2
    assert phase_covariant_p_divisible_at(1.0, 1.0, -0.49)
    assert not phase_covariant_p_divisible_at(1.0, 1.0, -0.51)
    assert not phase_covariant_p_divisible_at(-0.1, 1.0, 0.0)
    assert phase_covariant_p_divisible_at(0.0, 0.0, 0.0)


def test_eternally_nm_is_p_but_not_cp():
    me = eternally_nm()
    for t in (0.5, 1.0, 2.0, 5.0):
        assert not is_cp_divisible_at(me, t)
        assert is_p_divisible_at(me, t)
    assert is_cp_divisible_at(me, 0.0)  # g_z(0) = 0


def test_spontaneous_emission_always_divisible():
    me = spontaneous_emission(gamma=1.0)
    assert is_cp_divisible_at(me, 3.0)
    assert is_p_divisible_at(me, 3.0)
    assert min_rate_at(me, 3.0) == pytest.approx(1.0)


def test_non_p_model_loses_p_divisibility():
    me = non_p_divisible(kappa=0.25)
    rates = non_p_divisible(0.25)  # noqa: F841  (constructor smoke)
    grid = TimeGrid(0.0, 3.0, 0.05)
    reports = divisibility_scan(me, grid)
    broken = [r.time for r in reports if not r.p]
    assert broken, "kappa = 1/4 must violate P divisibility somewhere"
    assert min(broken) == pytest.approx(1.05, abs=0.1)
    assert all(r.min_w_eigenvalue < 0 for r in reports if not r.p)


def test_non_p_model_kappa_one_stays_cp():
    me = non_p_divisible(kappa=1.0)
    for t in np.linspace(0.0, 5.0, 11):
        assert is_cp_divisible_at(me, float(t))


def test_delayed_negative_windows():
    me = delayed_negative_phase_covariant()
    assert is_cp_divisible_at(me, 0.5)  # inside [0, pi/4]
    assert not is_cp_divisible_at(me, 1.0)
    for t in np.linspace(0.0, 3.0, 100):
        assert phase_covariant_p_divisible_at(1.0, 1.0, 0.5 * np.cos(2.0 * t))


def test_scan_reports_are_consistent():
    reports = divisibility_scan(eternally_nm(), TimeGrid(0.0, 2.0, 0.1))
    assert reports[0].cp and reports[0].p
    for r in reports[1:]:
        assert not r.cp and r.p
        assert r.min_rate == pytest.approx(-0.5 * np.tanh(r.time))
        assert r.min_w_eigenvalue > -1e-12


def test_closed_form_agrees_with_sampling():
    # random rate tuples away from the decision boundary; the sampled test
    # is one-sided so borderline tuples are redrawn
    gen = np.random.default_rng(42)
    checked = 0
    while checked < 50:
        gp, gm = gen.uniform(0.0, 1.5, size=2)
        gz = gen.uniform(-1.0, 1.0)
        margin = gz + 0.5 * np.sqrt(gp * gm)
        if abs(margin) < 0.02:
            continue
        me = phase_covariant(phase_covariant_rates(gp, gm, gz))
        closed = phase_covariant_p_divisible_at(gp, gm, gz)
        sampled = is_p_divisible_at(me, 0.0, sample_count=300, seed=7)
        assert closed == sampled, f"disagreement at ({gp:.3f}, {gm:.3f}, {gz:.3f})"
        checked += 1


def test_min_eigenvalue_matches_qubit_formula():
    # g+ = g- = 1: the perp-restricted rate is 1 - 2x(1-x)(1-2 g_z) with
    # x = cos^2(theta/2), minimized at the equator, so min = 1/2 + g_z
    gz = -0.45
    me = phase_covariant(phase_covariant_rates(1.0, 1.0, gz))
    assert p_divisibility_min_eigenvalue(me, 0.0) == pytest.approx(0.5 + gz, abs=5e-3)


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError):
        is_p_divisible_at(eternally_nm(), 1.0, sample_count=0)


def test_scan_evaluates_once_per_grid_point():
    me, calls = counting_model(non_p_divisible())
    grid = TimeGrid(0.0, 1.0, 0.1)
    reports = divisibility_scan(me, grid, sample_count=20)
    assert [r.time for r in reports] == list(grid.times())
    assert calls_per_time(calls) == Counter(grid.times().tolist())
