"""Deterministic solver against closed forms it cannot have seen."""

import tracemalloc

import numpy as np
import pytest

from unravel.errors import DimensionMismatch, GridMismatch, ModelError, SingularMap
from unravel.linalg import haar_state, trace_distance, unvec, vec
from unravel.master_equation import lindblad_apply_snapshot, master_equation
from unravel.models import (
    KET1,
    MODEL_NAMES,
    PLUS,
    SIGMA_MINUS,
    SIGMA_X,
    build_model,
    eternally_nm,
    spontaneous_emission,
)
from unravel.propagate import (
    OracleSolution,
    TimeGrid,
    choi_matrix,
    grids_equal,
    intermediate_propagator,
    liouvillian,
    propagate,
    propagator_map,
    propagator_maps,
    rk4_step,
)

from branch_tools import calls_per_time, counting_model, equivalence_tool

EQ = equivalence_tool()


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


def _assert_half_grid_once(calls, grid, substeps, points):
    """One call of each of the model's pieces per start, midpoint and end of
    every substep up to grid point ``points``, and none elsewhere."""
    calls = calls_per_time(calls)
    assert max(calls.values()) == 1
    assert len(calls) == 2 * points * substeps + 1
    times = np.array(sorted(calls))
    want = grid.t0 + 0.5 * grid.dt / substeps * np.arange(len(calls))
    assert np.max(np.abs(times - want)) < 1e-12
    assert set(grid.times()[: points + 1]) <= set(calls)


@pytest.mark.parametrize("substeps", [1, 3])
def test_propagate_evaluates_each_half_grid_time_once(substeps):
    me, calls = counting_model(eternally_nm())
    grid = TimeGrid(0.0, 0.5, 0.05)
    propagate(me, np.outer(PLUS, PLUS.conj()), grid, substeps=substeps)
    _assert_half_grid_once(calls, grid, substeps, grid.n_steps)


def test_propagate_rejects_rho0_of_another_dimension_before_any_work():
    me, calls = counting_model(eternally_nm())
    for rho0 in [np.eye(3) / 3.0, np.array([1.0, 0.0]), np.ones((2, 3))]:
        with pytest.raises(DimensionMismatch):
            propagate(me, rho0, TimeGrid(0.0, 0.5, 0.05))
    assert not calls


def test_propagator_maps_evaluate_each_half_grid_time_once():
    me, calls = counting_model(eternally_nm())
    grid = TimeGrid(0.0, 0.5, 0.05)
    propagator_maps(me, grid, substeps=2)
    _assert_half_grid_once(calls, grid, 2, grid.n_steps)


@pytest.mark.parametrize("t_index", [0, 4])
def test_propagator_map_steps_only_to_its_point(t_index):
    grid = TimeGrid(0.0, 0.5, 0.05)
    want = propagator_maps(eternally_nm(), grid)[t_index]
    me, calls = counting_model(eternally_nm())
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


def _complex_channels():
    """Complex, non-normal jump operators (one at a negative rate) under a
    complex drive, so that conj(L) and L differ."""
    lop = np.array([[0.1j, -0.5 + 0.2j], [1.0, -0.3j]])
    drive = np.array([[0.2, 0.4 - 0.7j], [0.4 + 0.7j, -0.2]])
    return master_equation(2, lambda t: np.cos(t) * drive, [(lop, 0.7, "l"), (SIGMA_MINUS @ lop, -0.3, "m")])


@pytest.mark.parametrize(
    "build",
    [lambda name=name: build_model(name).me for name in MODEL_NAMES]
    + [EQ._trace_sink, EQ._criterion5_embedding, _complex_channels],
    ids=[*MODEL_NAMES, "trace_sink", "criterion5_embedding", "complex_channels"],
)
def test_liouvillian_stack_acts_as_the_generator(build):
    """The column-stacked Liouvillian of each time of a track, times vec rho,
    is vec L_t[rho] of the elementwise reference, for any matrix rho."""
    me = build()
    track = me.half_track(np.linspace(0.0, 2.0, 21))
    gen = np.random.default_rng(4)
    rhos = gen.standard_normal((5, me.dim, me.dim)) + 1j * gen.standard_normal((5, me.dim, me.dim))
    stack = liouvillian(track)
    assert stack.shape == (len(track.times), me.dim**2, me.dim**2)
    for k in range(len(track.times)):
        want = lindblad_apply_snapshot(track[k], rhos)
        got = unvec(vec(rhos) @ stack[k].T, me.dim)
        assert np.max(np.abs(got - want)) < 1e-14


def test_rk4_step_is_one_step_of_propagate():
    """rk4_step of a matrix, and of each matrix of a stack, is propagate's
    first step bit for bit."""
    me = eternally_nm()
    gen = np.random.default_rng(6)
    rhos = np.array([np.outer(psi, psi.conj()) for psi in (haar_state(2, gen) for _ in range(4))])
    for t0 in (0.0, 0.3):
        grid = TimeGrid(t0, t0 + 0.05, 0.05)
        want = np.array([propagate(me, rho, grid).states[1] for rho in rhos])
        for rho, step in zip(rhos, want):
            assert rk4_step(me, t0, rho, 0.05).tobytes() == step.tobytes()
        assert rk4_step(me, t0, rhos, 0.05).tobytes() == want.tobytes()


def _cut_decay(t_bad, sink=None):
    """Driven decay whose rate raises ValueError from t_bad on."""

    def rate(t):
        if t >= t_bad:
            raise ValueError(f"rate undefined at t={t}")
        return 1.0

    return master_equation(2, 0.3 * SIGMA_X, [(SIGMA_MINUS, rate, "down")], trace_sink=sink)


def test_cut_track_raises_at_the_first_step_past_it_after_the_drift_check():
    """A track cut at t = 0.5 raises its ModelError in the step that needs
    t = 0.5, after the points before it; a trace drift at an earlier point
    comes first, reported at its first point past 1e-8; maps up to the cut
    are those of the model that does not fail."""
    grid = TimeGrid(0.0, 1.0, 0.05)
    rho0 = np.outer(KET1, KET1.conj())
    with pytest.raises(ModelError, match="rate undefined at t=0.5") as info:
        propagate(_cut_decay(0.5), rho0, grid)
    assert isinstance(info.value.__cause__, ValueError) and info.value.time == 0.5
    growing = _cut_decay(0.5, sink=lambda t: SIGMA_MINUS.conj().T @ SIGMA_MINUS - 0.2 * np.eye(2))
    with pytest.raises(ArithmeticError, match="at t=0.05;"):
        propagate(growing, rho0, grid, check_trace=True)
    with pytest.raises(ModelError):
        propagate(growing, rho0, grid)
    # a drift that starts at t = 0.3 is named at its first point past 1e-8
    late = lambda t: SIGMA_MINUS.conj().T @ SIGMA_MINUS - (0.2 if t > 0.3 else 0.0) * np.eye(2)  # noqa: E731
    traces = np.trace(propagate(_cut_decay(2.0, late), rho0, grid).states, axis1=1, axis2=2)
    first = grid.times()[np.argmax(np.abs(traces.real - 1.0) + np.abs(traces.imag) > 1e-8)]
    assert 0.3 < first < 0.5
    with pytest.raises(ArithmeticError, match=f"at t={first:.6g};"):
        propagate(_cut_decay(0.5, late), rho0, grid, check_trace=True)
    whole = propagator_maps(_cut_decay(2.0), grid)
    for t_index in (0, 9):
        assert propagator_map(_cut_decay(0.5), grid, t_index).tobytes() == whole[t_index].tobytes()
    with pytest.raises(ModelError):
        propagator_map(_cut_decay(0.5), grid, 10)


def test_drift_check_stops_a_blown_up_run_before_it_overflows():
    """At gamma dt = 30 RK4 blows up by about 3e4 per step: the run stops at
    the first drifting point, before any overflow warning (an error under
    this suite's warning filter)."""
    grid = TimeGrid(0.0, 50.0, 0.1)
    with pytest.raises(ArithmeticError, match="at t=0.4;"):
        propagate(spontaneous_emission(omega=1.0, gamma=300.0), np.outer(PLUS, PLUS.conj()), grid)


def test_oracle_memory_is_bounded_by_its_blocks():
    """The criterion-5 embedding (d = 6) at dt = 1e-3 to t = 2: held all at
    once, its 4001 Liouvillians alone would be 4001 d^4 complex entries
    (83 MB), and the oracle peaked at about 300 MB; built a block of substeps
    at a time the peak is the track's and the states' (about 30 MB)."""
    me = EQ._criterion5_embedding()
    w0 = np.outer(np.kron(PLUS, EQ._CHI), np.kron(PLUS, EQ._CHI).conj())
    tracemalloc.start()
    try:
        propagate(me, w0, TimeGrid(0.0, 2.0, 1e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6, f"oracle peak {peak / 1e6:.0f} MB"
