"""Deterministic solver against closed forms it cannot have seen."""

from collections import Counter

import numpy as np
import pytest

from unravel.errors import GridMismatch, SingularMap
from unravel.linalg import trace_distance, vec
from unravel.master_equation import MasterEquation, master_equation
from unravel.models import KET1, PLUS, SIGMA_MINUS, eternally_nm, spontaneous_emission
from unravel.propagate import (
    OracleSolution,
    TimeGrid,
    choi_matrix,
    grids_equal,
    intermediate_propagator,
    propagate,
    propagator_map,
    propagator_maps,
)


def test_time_grid_basics():
    grid = TimeGrid(0.0, 1.0, 0.25)
    assert grid.n_steps == 4
    assert np.allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.3)  # dt does not divide the interval
    with pytest.raises(ValueError):
        TimeGrid(0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 5.0, 1e-320)  # the step count overflows to inf


def test_oracle_solution_length_check():
    grid = TimeGrid(0.0, 1.0, 0.5)
    with pytest.raises(GridMismatch):
        OracleSolution(grid, np.zeros((2, 2, 2), dtype=complex))
    with pytest.raises(GridMismatch):
        grids_equal(grid, TimeGrid(0.0, 1.0, 0.25))


def test_excited_population_decays_exponentially():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    sol = propagate(me, np.outer(KET1, KET1.conj()), grid)
    p1 = sol.states[:, 1, 1].real
    assert np.max(np.abs(p1 - np.exp(-grid.times()))) < 1e-9


def test_coherence_revival_rate_closed_form():
    # g_z = -tanh(t)/2 gives <sx>(t) = exp(-t) cosh(t); populations sit at 1/2
    me = eternally_nm()
    grid = TimeGrid(0.0, 5.0, 1e-2)
    sol = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    t = grid.times()
    sx = (sol.states[:, 0, 1] + sol.states[:, 1, 0]).real
    assert np.max(np.abs(sx - np.exp(-t) * np.cosh(t))) < 1e-8
    assert np.max(np.abs(sol.states[:, 1, 1].real - 0.5)) < 1e-10


def test_substep_refinement_converges():
    me = eternally_nm()
    grid = TimeGrid(0.0, 2.0, 0.05)
    rho0 = np.outer(PLUS, PLUS.conj())
    coarse = propagate(me, rho0, grid)
    fine = propagate(me, rho0, grid, substeps=5)
    assert trace_distance(coarse.states[-1], fine.states[-1]) < 1e-8


def test_trace_sink_grows_trace_as_predicted():
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    me = master_equation(
        2,
        np.zeros((2, 2)),
        [(SIGMA_MINUS, 1.0, "down")],
        trace_sink=lambda t: gamma_l - 0.2 * np.eye(2),
    )
    grid = TimeGrid(0.0, 2.0, 1e-2)
    sol = propagate(me, np.outer(KET1, KET1.conj()), grid)  # sink disables the trace guard
    traces = np.einsum("tii->t", sol.states).real
    assert np.max(np.abs(traces - np.exp(0.2 * grid.times()))) < 1e-8
    with pytest.raises(ArithmeticError):
        propagate(me, np.outer(KET1, KET1.conj()), grid, check_trace=True)


def test_propagator_maps_act_like_propagate():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.0, 0.05)
    rho0 = np.outer(PLUS, PLUS.conj())
    sol = propagate(me, rho0, grid)
    maps = propagator_maps(me, grid)
    assert np.allclose(maps[0], np.eye(4))
    k = grid.n_steps // 2
    rho_k = (maps[k] @ vec(rho0)).reshape(2, 2, order="F")
    assert np.max(np.abs(rho_k - sol.states[k])) < 1e-10
    with pytest.raises(IndexError):
        propagator_map(me, grid, grid.n_steps + 1)


def _counting(monkeypatch):
    calls = Counter()
    evaluate = MasterEquation._evaluate

    def counting(self, t):
        calls[float(t)] += 1
        return evaluate(self, t)

    monkeypatch.setattr(MasterEquation, "_evaluate", counting)
    return calls


def _assert_half_grid_once(calls, grid, substeps, points):
    """One evaluation per start, midpoint and end of every substep up to
    grid point ``points``, and none elsewhere."""
    assert max(calls.values()) == 1
    assert len(calls) == 2 * points * substeps + 1
    times = np.array(sorted(calls))
    want = grid.t0 + 0.5 * grid.dt / substeps * np.arange(len(calls))
    assert np.max(np.abs(times - want)) < 1e-12
    assert set(grid.times()[: points + 1]) <= set(calls)


@pytest.mark.parametrize("substeps", [1, 3])
def test_propagate_evaluates_each_half_grid_time_once(monkeypatch, substeps):
    me = eternally_nm()
    grid = TimeGrid(0.0, 0.5, 0.05)
    calls = _counting(monkeypatch)
    propagate(me, np.outer(PLUS, PLUS.conj()), grid, substeps=substeps)
    _assert_half_grid_once(calls, grid, substeps, grid.n_steps)


def test_propagator_maps_evaluate_each_half_grid_time_once(monkeypatch):
    me = eternally_nm()
    grid = TimeGrid(0.0, 0.5, 0.05)
    calls = _counting(monkeypatch)
    propagator_maps(me, grid, substeps=2)
    _assert_half_grid_once(calls, grid, 2, grid.n_steps)


@pytest.mark.parametrize("t_index", [0, 4])
def test_propagator_map_steps_only_to_its_point(monkeypatch, t_index):
    me = eternally_nm()
    grid = TimeGrid(0.0, 0.5, 0.05)
    want = propagator_maps(me, grid)[t_index]
    calls = _counting(monkeypatch)
    got = propagator_map(me, grid, t_index)
    assert got.tobytes() == want.tobytes()
    _assert_half_grid_once(calls, grid, 1, t_index)


def test_choi_of_identity_map():
    c = choi_matrix(np.eye(4, dtype=complex), 2)
    vals = np.linalg.eigvalsh(c)
    assert np.allclose(sorted(vals), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_intermediate_map_cp_for_markovian_flow():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 1.0, 0.05)
    maps = propagator_maps(me, grid)
    v = intermediate_propagator(maps[-1], maps[10])
    assert np.linalg.eigvalsh(choi_matrix(v, 2))[0] > -1e-8


def test_intermediate_map_not_cp_when_rates_negative():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.0, 0.05)
    maps = propagator_maps(me, grid)
    v = intermediate_propagator(maps[-1], maps[10])  # s = 0.5, t = 1.0
    assert np.linalg.eigvalsh(choi_matrix(v, 2))[0] < -1e-4


def test_intermediate_propagator_rejects_singular_base():
    with pytest.raises(SingularMap):
        intermediate_propagator(np.eye(4), np.zeros((4, 4)))
