"""Ensemble driver: batches and row tiles, determinism, error bars, abort reporting."""

import inspect

import numpy as np
import pytest

from unravel import engine
from unravel.engine import (
    METHOD_KINDS,
    error_vs_oracle,
    method_id,
    observable_series,
    run_ensemble,
    _chunk_sizes,
    _distance_stderr,
    _generator_track,
    _merge_counts,
    _reconstruct,
    _runner,
    _state_width,
    _tiles,
    _tree_sum,
)
from unravel.errors import (
    BadAmplitudes,
    DegenerateBlock,
    DimensionMismatch,
    GridMismatch,
    MissingTargetState,
    ModelError,
    NegativeRate,
    NegativeWEigenvalue,
    NotHermitian,
    StepTooLarge,
    UnknownMethod,
    UnravelError,
    ZeroVector,
)
from unravel.linalg import hermitize, trace_distance
from unravel.master_equation import MasterEquation, master_equation
from unravel.models import (
    KET0,
    KET1,
    OBSERVABLES,
    PLUS,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    delayed_negative_phase_covariant,
    eternally_nm,
    non_p_divisible,
    spontaneous_emission,
)
from unravel import cloning as cloning_module
from unravel import doubled as doubled_module
from unravel import mcwf as mcwf_module
from unravel import nmqj as nmqj_module
from unravel import tripled as tripled_module
from unravel.propagate import TimeGrid, propagate
from unravel.rate_operators import (
    state_dependent_gauge,
    time_dependent_gauge,
    w_matching_gauge,
)

from branch_tools import calls_per_time, counting_model, run_batches


def test_method_id_validation():
    with pytest.raises(UnknownMethod):
        method_id("qsd")
    with pytest.raises(UnknownMethod):
        method_id("mcwf", gauge=time_dependent_gauge(np.eye(2)))
    with pytest.raises(UnknownMethod):
        method_id("rroqj")  # needs an explicit operator gauge
    with pytest.raises(UnknownMethod):
        method_id("rroqj", gauge=state_dependent_gauge(lambda t, psi: psi))
    assert method_id("rroqj", gauge=time_dependent_gauge(np.eye(2))).kind == "rroqj"


def test_method_id_display_names():
    assert method_id("mcwf").display == "mcwf"
    assert method_id("im").display == "im(r_min=0.05)"
    assert method_id("im", r_min=0.2).display == "im(r_min=0.2)"
    assert method_id("wtd", display="waiting").display == "waiting"
    assert method_id("psi_roqj").gauge.kind == "none"  # default gauge
    assert set(METHOD_KINDS) > {"mcwf", "nmqj", "tripled", "plqt"}


def test_chunk_sizes_partition():
    assert _chunk_sizes(10_000, 20) == [500] * 20
    assert _chunk_sizes(7, 20) == [1] * 7
    assert _chunk_sizes(23, 5) == [5, 5, 5, 4, 4]
    assert sum(_chunk_sizes(997, 20)) == 997


def test_rejects_empty_ensemble():
    me = spontaneous_emission()
    with pytest.raises(ValueError):
        run_ensemble(method_id("mcwf"), me, PLUS, TimeGrid(0.0, 0.1, 1e-2), 0, seed=1)


def test_single_trajectory_has_zero_stderr():
    me = spontaneous_emission()
    res = run_ensemble(method_id("mcwf"), me, PLUS, TimeGrid(0.0, 0.5, 1e-2), 1, seed=1)
    assert res.n_traj == 1
    assert np.all(res.stderr == 0.0)
    assert res.rho_batches.shape[0] == 1
    # single pure trajectory: every reconstruction is a projector
    assert np.trace(res.rho_hat[-1]).real == pytest.approx(1.0)


def test_seed_changes_results_and_repeats():
    me = spontaneous_emission()
    grid = TimeGrid(0.0, 0.5, 1e-2)
    a = run_ensemble(method_id("mcwf"), me, PLUS, grid, 200, seed=1)
    b = run_ensemble(method_id("mcwf"), me, PLUS, grid, 200, seed=1)
    c = run_ensemble(method_id("mcwf"), me, PLUS, grid, 200, seed=2)
    assert np.array_equal(a.rho_hat, b.rho_hat)
    assert not np.array_equal(a.rho_hat, c.rho_hat)


def test_abort_carries_partial_series():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    with pytest.raises(MissingTargetState) as exc:
        run_ensemble(method_id("nmqj"), me, PLUS, grid, 200, seed=7)
    err = exc.value
    assert err.time == pytest.approx(grid.dt)  # fails on the second step
    partial = err.partial
    assert partial["n_traj"] == 200
    assert partial["rho_hat"].shape == (2, 2, 2)  # t = 0 and t = dt survived
    assert len(partial["times"]) == 2
    assert np.trace(partial["rho_hat"][0]).real == pytest.approx(1.0)


def test_abort_partial_carries_event_logs_cut_to_its_series(monkeypatch):
    monkeypatch.setattr(engine, "_DEFAULT_BATCHES", 4)
    me = delayed_negative_phase_covariant()
    grid = TimeGrid(0.0, 3.0, 1e-2)
    with pytest.raises(MissingTargetState) as exc:
        run_ensemble(method_id("nmqj"), me, PLUS, grid, 400, seed=3)
    partial = exc.value.partial
    last_step = len(partial["times"]) - 1  # step k leads to series point k + 1
    logs = partial["event_logs"]
    assert len(logs) == 4
    cut = 0
    for replica, log in enumerate(logs):
        full = run_batches("nmqj", me, PLUS, grid, replica, [100], 3)[2]["event_logs"][0]
        assert log == [entry for entry in full if entry[0] < last_step]
        cut += len(full) - len(log)
    assert cut > 0  # some replica ran past the first abort
    assert any(entry[1] == "reverse" for log in logs for entry in log)


@pytest.mark.parametrize(
    "rate, error, abort_time",
    [
        (lambda t: -20.0 if t < 0.8 else -500.0, StepTooLarge, 0.8),
        (-20.0, DegenerateBlock, 0.04),
    ],
    ids=["step_too_large", "degenerate_block"],
)
def test_abort_partial_is_the_extractable_prefix(rate, error, abort_time):
    """At seed 1, tripled's auxiliary block decays past extraction at
    t = 0.04. Whether the run goes on to abort (rate -500 asks for a jump
    probability 5 > 1 at t = 0.8) or not, the partial is the finished run up
    to t = 0.03."""
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_Z, rate, "sz")])
    with pytest.raises(error) as exc:
        run_ensemble(method_id("tripled"), me, PLUS, TimeGrid(0.0, 1.0, 1e-2), 40, seed=1)
    err = exc.value
    assert err.time == pytest.approx(abort_time)
    partial = err.partial
    assert partial["n_traj"] == 40
    assert len(partial["times"]) == 4
    prefix = run_ensemble(method_id("tripled"), me, PLUS, TimeGrid(0.0, 0.03, 1e-2), 40, seed=1)
    assert np.array_equal(partial["times"], prefix.grid.times())
    assert np.array_equal(partial["rho_hat"], prefix.rho_hat)
    assert np.array_equal(partial["stderr"], prefix.stderr)
    # batches of two trajectories lose their block before the mean does
    assert partial["stderr"][0] == 0.0 and np.all(np.isinf(partial["stderr"][1:]))


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_bad_initial_state_is_rejected_before_any_work(kind):
    """A state of the wrong shape is a DimensionMismatch; a non-finite one,
    or one whose norm is off 1 by more than 1e-6, is BadAmplitudes, before
    the model is evaluated. A state within the tolerance runs."""
    me, calls = counting_model(spontaneous_emission())
    gauge = time_dependent_gauge(np.zeros((2, 2))) if kind == "rroqj" else None
    method, grid = method_id(kind, gauge=gauge), TimeGrid(0.0, 0.1, 1e-2)
    for psi0, error in [
        (np.array([1.0, 0.0, 0.0]), DimensionMismatch),
        (PLUS[:, None], DimensionMismatch),
        (np.array([2.0, 0.0]), BadAmplitudes),
        (np.zeros(2), BadAmplitudes),
        (np.array([np.nan, 1.0]), BadAmplitudes),
        (np.array([np.inf, 0.0]), BadAmplitudes),
    ]:
        with pytest.raises(error):
            run_ensemble(method, me, psi0, grid, 4, seed=1)
    assert not calls
    assert len(run_ensemble(method, me, (1.0 + 5e-7) * PLUS, grid, 4, seed=1).rho_hat) == grid.n_steps + 1


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_model_error_mid_run_is_an_abort_with_its_partial(kind):
    """A model that fails mid-run (its hamiltonian stops being hermitian at
    t = 0.5) aborts every method with the time of the failure and the
    partial run before it. wtd's RK4 step reads K at the step's end, so its
    last full step is the one before."""
    not_hermitian = np.array([[0.0, 1.0], [0.0, 0.0]])
    me = master_equation(
        2, lambda t: np.zeros((2, 2)) if t < 0.5 else not_hermitian, [(SIGMA_MINUS, 1.0, "down")]
    )
    gauge = time_dependent_gauge(lambda t: np.zeros((2, 2))) if kind == "rroqj" else None
    with pytest.raises(NotHermitian) as exc:
        run_ensemble(method_id(kind, gauge=gauge), me, PLUS, TimeGrid(0.0, 1.0, 1e-2), 40, seed=1)
    err = exc.value
    n_pts = 50 if kind == "wtd" else 51
    assert err.time == pytest.approx(0.5)
    assert err.partial is not None
    assert len(err.partial["times"]) == len(err.partial["rho_hat"]) == n_pts
    assert err.partial["n_traj"] == 40


def _decay_failing_from(t_bad):
    """Driven decay whose sigma_- rate raises ValueError from t_bad on (None:
    never)."""

    def rate(t):
        if t_bad is not None and t >= t_bad:
            raise ValueError(f"rate undefined at t={t}")
        return 1.0

    return master_equation(2, 0.3 * SIGMA_X, [(SIGMA_MINUS, rate, "down")])


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_model_exception_mid_run_is_an_abort_with_the_finished_runs_prefix(kind):
    """A model's own exception (a rate that raises ValueError from t = 0.5)
    ends every method in a ModelError abort that keeps the ValueError as its
    cause, the failing time, and as its partial the finished run of the
    same model without the failure, cut at the step before."""
    me = _decay_failing_from(None)
    method = _rroqj(me) if kind == "rroqj" else method_id(kind)
    grid = TimeGrid(0.0, 1.0, 1e-2)
    with pytest.raises(ModelError) as exc:
        run_ensemble(method, _decay_failing_from(0.5), PLUS, grid, 200, seed=3)
    err = exc.value
    assert isinstance(err.__cause__, ValueError)
    assert str(err) == str(err.__cause__) == "rate undefined at t=0.5"
    assert err.time == 0.5
    finished = run_ensemble(method, me, PLUS, grid, 200, seed=3)
    # wtd's last step before t = 0.5 reads K at its end, t = 0.5
    n_pts = 50 if kind == "wtd" else 51
    partial = err.partial
    assert partial["n_traj"] == 200
    assert np.array_equal(partial["times"], grid.times()[:n_pts])
    assert partial["rho_hat"].tobytes() == finished.rho_hat[:n_pts].tobytes()
    assert partial["rho_batches"].tobytes() == finished.rho_batches[:, :n_pts].tobytes()
    assert partial["stderr"].tobytes() == finished.stderr[:n_pts].tobytes()


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_non_finite_model_value_mid_run_is_an_abort_with_the_finished_runs_prefix(kind):
    """A rate that returns NaN from t = 0.5 ends the model's track there:
    every method ends in a ModelError abort that names the piece and the
    time, with the finished run of the same model without the NaN, cut at
    the step before, as its partial (no silent jumps, no NaN estimate)."""
    me = _decay_failing_from(None)
    nan_from_half = master_equation(2, 0.3 * SIGMA_X, [(SIGMA_MINUS, lambda t: np.nan if t >= 0.5 else 1.0, "down")])
    method = _rroqj(me) if kind == "rroqj" else method_id(kind)
    grid = TimeGrid(0.0, 1.0, 1e-2)
    with pytest.raises(ModelError) as exc:
        run_ensemble(method, nan_from_half, PLUS, grid, 100, seed=3)
    err = exc.value
    assert isinstance(err.__cause__, FloatingPointError)
    assert str(err) == "rate 0 is not finite at t=0.5"
    assert err.time == 0.5
    finished = run_ensemble(method, me, PLUS, grid, 100, seed=3)
    n_pts = 50 if kind == "wtd" else 51
    partial = err.partial
    assert np.array_equal(partial["times"], grid.times()[:n_pts])
    assert partial["rho_hat"].tobytes() == finished.rho_hat[:n_pts].tobytes()
    assert partial["rho_batches"].tobytes() == finished.rho_batches[:, :n_pts].tobytes()


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_vanishing_drift_is_an_abort_not_a_nan_estimate(kind):
    """A trace sink of 2/dt times the identity, with no rate, sends every
    no-jump drift to exactly zero in one step. A method either finishes
    with a finite estimate (the pair-vector methods, and rroqj, whose gauge
    moves the drift off zero) or aborts with a time and a partial; the
    menu methods raise ZeroVector at t = 0 instead of normalizing a zero
    drift into NaN."""
    dt = 1e-2
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 0.0)], trace_sink=(2.0 / dt) * np.eye(2))
    method = _rroqj(me) if kind == "rroqj" else method_id(kind)
    grid = TimeGrid(0.0, 0.5, dt)
    if kind in ("doubled", "tripled", "rroqj"):
        assert np.isfinite(run_ensemble(method, me, PLUS, grid, 40, seed=1).rho_hat).all()
        return
    with pytest.raises(UnravelError) as exc:
        run_ensemble(method, me, PLUS, grid, 40, seed=1)
    err = exc.value
    assert err.time is not None and err.partial is not None
    if kind in ("mcwf", "wroqj", "psi_roqj", "im", "plqt", "cloning"):
        assert (type(err), err.time) == (ZeroVector, 0.0)


def test_distance_stderr_matches_pointwise_trace_distances():
    """The batched stderr equals the per-point, per-batch trace-distance
    loop bit for bit, and is inf wherever a batch has no reconstruction."""
    gen = np.random.default_rng(8)
    b, n_pts, d = 2, 4000, 2  # enough squares that x * x would round differently
    z = gen.standard_normal((b + 1, n_pts, d, d)) + 1j * gen.standard_normal((b + 1, n_pts, d, d))
    rho_hat, batches = hermitize(z[0]), z[1:]  # batches need not be hermitian yet
    batches[1, 3, 0, 1] = np.nan
    want = np.array([
        np.sqrt(sum(trace_distance(hermitize(batches[i, k]), rho_hat[k]) ** 2 for i in range(b))
                / (b * (b - 1)))
        if k != 3 else np.inf
        for k in range(n_pts)
    ])
    assert np.array_equal(_distance_stderr(rho_hat, batches), want)
    assert np.array_equal(_distance_stderr(rho_hat, batches[:1]), np.zeros(n_pts))


def test_observable_series_values_and_guards():
    me = spontaneous_emission()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    res = run_ensemble(method_id("mcwf"), me, PLUS, grid, 800, seed=11)
    times, means, stderr = observable_series(res, OBSERVABLES["sz"])
    assert times.shape == means.shape == stderr.shape == (grid.n_steps + 1,)
    assert means[0] == pytest.approx(0.0, abs=1e-12)  # |+> has <sz> = 0
    assert stderr[0] == 0.0  # every batch starts at the same state
    assert np.all(np.isfinite(stderr))
    with pytest.raises(DimensionMismatch):
        observable_series(res, np.eye(3))
    with pytest.raises(NotHermitian):
        observable_series(res, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_oracle_comparison_requires_matching_grid():
    me = spontaneous_emission()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    res = run_ensemble(method_id("mcwf"), me, PLUS, grid, 2000, seed=13)
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    times, dists = error_vs_oracle(res, oracle)
    assert dists.shape == (grid.n_steps + 1,)
    assert dists[0] < 1e-12
    assert dists.max() < 0.08
    other = propagate(me, np.outer(PLUS, PLUS.conj()), TimeGrid(0.0, 0.5, 1e-2))
    with pytest.raises(GridMismatch):
        error_vs_oracle(res, other)


def test_stderr_shrinks_with_ensemble_size():
    me = spontaneous_emission()
    grid = TimeGrid(0.0, 1.0, 2e-2)
    small = run_ensemble(method_id("mcwf"), me, PLUS, grid, 400, seed=17)
    large = run_ensemble(method_id("mcwf"), me, PLUS, grid, 6400, seed=17)
    ratio = small.stderr[1:].mean() / large.stderr[1:].mean()
    assert ratio > 2.5  # expect ~4 for a 16x ensemble


def test_weighted_diagnostics_surface_through_engine():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    res = run_ensemble(method_id("im"), me, PLUS, grid, 400, seed=19)
    wsum = res.diagnostics["weight_sum"]
    assert wsum.shape == (grid.n_steps + 1,)
    assert wsum[0] == pytest.approx(400.0)
    plqt = run_ensemble(method_id("plqt"), me, PLUS, grid, 400, seed=19)
    flips = plqt.diagnostics["sign_flip_steps"]
    assert flips == sorted(flips)
    assert plqt.event_counts["jump"] > 0


@pytest.mark.parametrize(
    "kind, build",
    [
        ("mcwf", spontaneous_emission),
        ("wroqj", eternally_nm),
        ("im", eternally_nm),
        ("plqt", eternally_nm),
        ("doubled", eternally_nm),
        ("cloning", spontaneous_emission),
        ("nmqj", spontaneous_emission),
        ("tripled", eternally_nm),
    ],
)
def test_generator_evaluated_once_per_grid_time(monkeypatch, kind, build):
    """All 20 chunks or replicas read one call of each of the model's pieces
    per grid time, and no other system is evaluated: tripled builds its
    embedding's track from the model's (``tripled.embedded_track``)."""
    me, calls = counting_model(build())
    grid = TimeGrid(0.0, 0.2, 1e-2)
    systems = set()
    evaluate = MasterEquation._evaluate

    def spying(self, t):
        systems.add(id(self))
        return evaluate(self, t)

    monkeypatch.setattr(MasterEquation, "_evaluate", spying)
    run_ensemble(method_id(kind), me, PLUS, grid, 40, seed=3)
    assert systems == {id(me)}
    calls = calls_per_time(calls)
    assert max(calls.values()) == 1
    assert len(calls) == grid.n_steps


def test_wtd_evaluates_each_half_grid_time_once():
    """All 20 wtd chunks read one call of each of the model's pieces per step
    start, midpoint and end; only jumps call them off that grid, at most
    twice each: the jump time and the midpoint of the rest of its step."""
    me, calls = counting_model(spontaneous_emission(omega=1.0))
    grid = TimeGrid(0.0, 0.5, 1e-2)
    res = run_ensemble(method_id("wtd"), me, PLUS, grid, 40, seed=3)
    calls = calls_per_time(calls)
    times = grid.times()
    half = set(times) | set(times[:-1] + 0.5 * np.diff(times))
    assert all(calls[t] == 1 for t in half)
    off_grid = sum(n for t, n in calls.items() if t not in half)
    assert res.event_counts["jump"] > 0
    assert off_grid <= 2 * res.event_counts["jump"]


@pytest.mark.parametrize("kind", METHOD_KINDS)
def test_every_runner_takes_the_batch_sizes_and_the_track(kind):
    """Every runner is ``run(me, psi0, grid, batch0, sizes, seed, track)``,
    the track with no default, and gives rho_sum and every per-batch
    diagnostics series a leading batch axis; rho_sum holds the model's
    d x d sums, whatever width the method steps."""
    me = spontaneous_emission() if kind in ("mcwf", "wtd", "cloning", "nmqj") else eternally_nm()
    method = _rroqj(me) if kind == "rroqj" else method_id(kind)
    run = _runner(method)
    params = list(inspect.signature(run).parameters.values())[:7]
    assert [p.name for p in params] == ["me", "psi0", "grid", "batch0", "sizes", "seed", "track"]
    assert params[6].default is inspect.Parameter.empty
    grid = TimeGrid(0.0, 0.05, 1e-2)
    rho_sum, _counts, diag, abort = run(me, PLUS, grid, 0, [3, 2], 1, _generator_track(method, me, grid))
    assert abort is None
    assert rho_sum.shape == (2, grid.n_steps + 1, me.dim, me.dim)
    for key, val in diag.items():
        if key != "sign_flip_steps":  # the steps of the tile, not of a batch
            assert len(val) == 2, key


def _per_batch_reference(method, me, psi, grid, n_traj, seed):
    """What run_ensemble reports, rebuilt from one runner call per batch
    (a replica method: one replica per batch), each on the whole grid:
    (rho_hat, rho_batches, stderr, counts, diagnostics, abort)."""
    sizes = _chunk_sizes(n_traj, 20)
    results = [run_batches(method, me, psi, grid, b, [n], seed) for b, n in enumerate(sizes)]
    aborts = [res[3] for res in results if res[3] is not None]
    abort = min(aborts, key=lambda a: a[1]) if aborts else None
    n_pts = abort[1] + 1 if abort else grid.n_steps + 1
    sums = [res[0][0, :n_pts] for res in results]
    rho_hat, degenerate = _reconstruct(method, _tree_sum(sums) / n_traj)
    if degenerate is not None:
        rho_hat = rho_hat[: degenerate[0][0]]
    means = [batch[: len(rho_hat)] / size for batch, size in zip(sums, sizes)]
    rho_batches, _ = _reconstruct(method, np.stack(means))
    diag = {}
    for key, val in results[0][2].items():
        vals = [res[2][key] for res in results]
        diag[key] = sorted(set().union(*vals)) if key == "sign_flip_steps" else _tree_sum([v[0] for v in vals])
    counts = _merge_counts([res[1] for res in results])
    return rho_hat, rho_batches, _distance_stderr(rho_hat, rho_batches), counts, diag, abort


def _rate_step():
    """Decay whose rate jumps from 5 to 300 at t = 0.5, under a sigma_x drive
    that spreads the rows' states."""
    return master_equation(2, 3.0 * SIGMA_X, [(SIGMA_MINUS, lambda t: 5.0 if t < 0.5 else 300.0, "down")])


def _rroqj(me):
    return method_id("rroqj", gauge=time_dependent_gauge(lambda t: 0.5 * np.eye(2)))


def _sink(lam):
    """Decay whose drift is shifted by -lam: the trace grows at rate lam, so
    cloning's populations clone (lam > 0) or die out (lam < 0)."""
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS

    def trace_sink():
        return master_equation(
            2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")], trace_sink=lambda t: gamma_l - lam * np.eye(2)
        )

    return trace_sink


TILED = [
    ("mcwf", spontaneous_emission, PLUS, 0.3),
    ("wtd", spontaneous_emission, PLUS, 0.3),
    ("wroqj", eternally_nm, PLUS, 0.3),
    ("rroqj", eternally_nm, PLUS, 0.3),
    ("psi_roqj", eternally_nm, PLUS, 0.3),
    ("im", eternally_nm, PLUS, 0.3),
    ("plqt", eternally_nm, PLUS, 0.3),
    ("doubled", eternally_nm, PLUS, 0.3),
    ("tripled", eternally_nm, PLUS, 0.3),
    # aborts (every tile runs to its own; the earliest wins): NegativeRate
    # at t = 0.79, a W eigenvalue at t = 1.01, and a StepTooLarge at t = 0.5
    # in many rows, whose message quotes the largest jump probability of the
    # first failing batch (cloning: replica)
    ("mcwf", delayed_negative_phase_covariant, PLUS, 1.2),
    ("wroqj", non_p_divisible, KET0, 1.2),
    ("mcwf", _rate_step, PLUS, 0.6),
    # cloning's replicas share tiles: without a sink as the menu driver's
    # batches; under a sink with clones and resampling, then with destroys,
    # resampling and extinct replicas; then the NegativeRate and
    # StepTooLarge aborts, without a sink; last, wtd's NegativeRate abort
    ("cloning", spontaneous_emission, PLUS, 0.3),
    ("cloning", _sink(0.8), KET1, 1.5),
    ("cloning", _sink(-2.0), KET1, 1.5),
    ("cloning", delayed_negative_phase_covariant, PLUS, 1.2),
    ("cloning", _rate_step, PLUS, 0.6),
    ("wtd", delayed_negative_phase_covariant, PLUS, 1.2),
]


@pytest.mark.parametrize(
    "n_traj, budget", [(7, "default"), (7, "small"), (63, "default"), (63, "small"), ("over", "default")]
)
@pytest.mark.parametrize("kind, build, psi, t_max", TILED)
def test_tiles_reproduce_per_batch_runs(monkeypatch, kind, build, psi, t_max, n_traj, budget):
    """Stepping whole tiles of batches gives bit for bit what one runner call
    per batch gives: the batch sums, counts and diagnostics (cloning's
    populations), and for an abort its error, message, time and partial
    series. N = 7 has one trajectory per batch, N = 63 unequal batches; a
    budget of 48 entries (24 rows of width 2, 12 of doubled's width 4, 8 of
    tripled's 6) splits that ensemble into several tiles. N = "over" is one
    row more than the default budget holds at the method's width (12,289,
    6145 and 4097 trajectories), which makes two tiles, the first holding
    both batch sizes."""
    if budget == "small":
        monkeypatch.setattr(engine, "_TILE_ENTRIES", 48)
    me = build()
    method = _rroqj(me) if kind == "rroqj" else method_id(kind)
    grid = TimeGrid(0.0, t_max, 1e-2)
    width = _state_width(kind, me.dim)
    if n_traj == "over":
        n_traj = engine._TILE_ENTRIES // width + 1
    sizes = _chunk_sizes(n_traj, 20)
    tiles = _tiles(sizes, width)
    if n_traj == 63 and budget == "small":
        assert 1 < len(tiles) < len(sizes)
    if n_traj * width > engine._TILE_ENTRIES and budget == "default":
        assert [len(tile) for tile in tiles] == [19, 1]
        assert len({sizes[i] for i in tiles[0]}) == 2
    rho_hat, rho_batches, stderr, counts, diag, abort = _per_batch_reference(method, me, psi, grid, n_traj, 5)
    if abort is not None:
        with pytest.raises(type(abort[0])) as info:
            run_ensemble(method, me, psi, grid, n_traj, seed=5)
        err = info.value
        assert isinstance(err, (NegativeRate, NegativeWEigenvalue, StepTooLarge))
        assert (str(err), err.time) == (str(abort[0]), abort[0].time)
        partial = err.partial
        assert len(partial["times"]) == abort[1] + 1
        for key, want in (("rho_hat", rho_hat), ("rho_batches", rho_batches), ("stderr", stderr)):
            assert np.array_equal(partial[key], want, equal_nan=True), key
        return
    res = run_ensemble(method, me, psi, grid, n_traj, seed=5)
    assert np.array_equal(res.rho_hat, rho_hat)
    assert np.array_equal(res.rho_batches, rho_batches)
    assert np.array_equal(res.stderr, stderr)
    assert res.event_counts == counts
    assert res.diagnostics.keys() == diag.keys()
    for key, want in diag.items():
        assert np.array_equal(res.diagnostics[key], want), key


def test_tiles_hold_whole_batches_within_the_budget(monkeypatch):
    """A tile holds whole consecutive batches whose rows times the state's
    width come to at most ``_TILE_ENTRIES``, or one batch larger than that.
    cloning's replicas tile as trajectories do, by members: all twenty in one
    tile at N = 10^4 and at N = 2000, and three tiles (eight, eight and four)
    at N = 10^4 under 8192 entries. An nmqj replica starts as one bucket,
    one row, so all twenty share one tile at any N and budget."""
    sizes = _chunk_sizes(1003, 20)  # 3 batches of 51 rows, 17 of 50
    monkeypatch.setattr(engine, "_TILE_ENTRIES", 320)
    tiles = _tiles(sizes, 2)  # 160 rows
    assert [i for tile in tiles for i in tile] == list(range(20))
    assert all(2 * sum(sizes[i] for i in tile) <= 320 for tile in tiles)
    assert [len(t) for t in tiles] == [3] * 6 + [2]
    assert _tiles(sizes, 4) == [[i] for i in range(20)]  # 80 rows: one batch a tile
    monkeypatch.setattr(engine, "_TILE_ENTRIES", 1)  # never fewer than one batch
    assert _tiles(sizes, 1) == [[i] for i in range(20)]
    monkeypatch.undo()
    assert _tiles([100, 6000, 100, 3996, 1], 6) == [[0], [1], [2, 3], [4]]  # 4096 rows
    grid = TimeGrid(0.0, 0.02, 1e-2)
    calls: dict = {"cloning": [], "nmqj": []}
    for module, kind in ((cloning_module, "cloning"), (nmqj_module, "nmqj")):
        log, run = calls[kind], module.run_replica
        monkeypatch.setattr(
            module, "run_replica", lambda *a, log=log, run=run, **kw: (log.append(list(a[4])), run(*a, **kw))[1]
        )
    budget = engine._TILE_ENTRIES

    def run_all(n_traj):
        for kind in calls:
            run_ensemble(method_id(kind), spontaneous_emission(), PLUS, grid, n_traj, seed=1)

    run_all(10_000)
    run_all(2000)
    monkeypatch.setattr(engine, "_TILE_ENTRIES", 8192)  # 4096 rows of width 2
    run_all(10_000)
    monkeypatch.setattr(engine, "_TILE_ENTRIES", budget)
    run_ensemble(method_id("nmqj"), spontaneous_emission(), PLUS, grid, 10**5, seed=1)
    assert calls["cloning"] == [[500] * 20, [100] * 20, [500] * 8, [500] * 8, [500] * 4]
    assert calls["nmqj"] == [[500] * 20, [100] * 20, [500] * 20, [5000] * 20]


@pytest.mark.parametrize(
    "n_traj, plans",
    [
        (2000, {2: [20], 4: [20], 6: [20]}),
        (10_000, {2: [20], 4: [12, 8], 6: [8, 8, 4]}),
        (10**5, {2: [2] * 10, 4: [1] * 20, 6: [1] * 20}),
    ],
)
def test_tile_plan_per_state_width(n_traj, plans):
    """The default budget's tiles of a qubit ensemble, batches per tile, by
    the width of the state its method steps: 2 (every method but doubled and
    tripled), 4 (doubled) and 6 (tripled). Every batch is in one tile, in
    order, and a tile holds more than the budget only as a single batch."""
    assert {kind: _state_width(kind, 2) for kind in METHOD_KINDS} == {
        **dict.fromkeys(METHOD_KINDS, 2), "doubled": 4, "tripled": 6
    }
    sizes = _chunk_sizes(n_traj, 20)
    for width, counts in plans.items():
        tiles = _tiles(sizes, width)
        assert [len(tile) for tile in tiles] == counts, width
        assert [i for tile in tiles for i in tile] == list(range(20))
        assert all(len(tile) == 1 or width * sum(sizes[i] for i in tile) <= engine._TILE_ENTRIES for tile in tiles)


def test_run_ensemble_tiles_by_the_width_of_the_stepped_state(monkeypatch):
    """At N = 10^4 on a qubit, mcwf steps one tile, doubled two (12 and 8
    batches) and tripled three (8, 8 and 4): its runner is called once per
    tile with that tile's batch sizes."""
    grid = TimeGrid(0.0, 0.02, 1e-2)
    for module, kind, counts in (
        (mcwf_module, "mcwf", [20]),
        (doubled_module, "doubled", [12, 8]),
        (tripled_module, "tripled", [8, 8, 4]),
    ):
        calls, runner = [], module.run_chunk
        monkeypatch.setattr(
            module, "run_chunk", lambda *args, run=runner, **kw: (calls.append(len(args[4])), run(*args, **kw))[1]
        )
        run_ensemble(method_id(kind), spontaneous_emission(), PLUS, grid, 10_000, seed=1)
        assert calls == counts, kind


def test_cloning_tiles_reproduce_per_replica_runs_at_n10000(monkeypatch):
    """At N = 10^4 cloning's 20 replicas of 500 step in three tiles (eight,
    eight and four replicas) under a budget of 4096 rows of width 2, with
    the bits of 20 separate replica runs."""
    monkeypatch.setattr(engine, "_TILE_ENTRIES", 8192)
    assert [len(tile) for tile in _tiles(_chunk_sizes(10_000, 20), 2)] == [8, 8, 4]
    me, grid, method = spontaneous_emission(), TimeGrid(0.0, 0.5, 1e-2), method_id("cloning")
    rho_hat, rho_batches, stderr, counts, diag, abort = _per_batch_reference(method, me, PLUS, grid, 10_000, 5)
    assert abort is None
    res = run_ensemble(method, me, PLUS, grid, 10_000, seed=5)
    assert np.array_equal(res.rho_hat, rho_hat)
    assert np.array_equal(res.rho_batches, rho_batches)
    assert np.array_equal(res.stderr, stderr)
    assert res.event_counts == counts
    assert np.array_equal(res.diagnostics["population"], diag["population"])


def test_replicas_across_tiles_report_the_earliest_abort(monkeypatch):
    """nmqj replicas spread over seven tiles, each tile run over the whole
    grid to its own first abort, report what running every replica to its
    own abort gives: the earliest abort (an earlier tile wins a tie), its
    error, message and time, the partial series and the event logs cut to
    them."""
    me, grid, method = delayed_negative_phase_covariant(), TimeGrid(0.0, 3.0, 1e-2), method_id("nmqj")
    sizes = _chunk_sizes(2000, 20)
    monkeypatch.setattr(engine, "_TILE_ENTRIES", 6)  # tiles of three replicas
    tiles = _tiles([1] * len(sizes), 2)  # an nmqj replica starts as one bucket, one row
    assert [len(tile) for tile in tiles] == [3] * 6 + [2]
    full = [run_batches(method, me, PLUS, grid, r, [n], 1) for r, n in enumerate(sizes)]
    aborts = [grid.n_steps if res[3] is None else res[3][1] for res in full]
    assert min(aborts[i] for i in tiles[0]) > min(aborts)  # a later tile's abort wins
    rho_hat, rho_batches, stderr, _counts, _diag, abort = _per_batch_reference(method, me, PLUS, grid, 2000, 1)
    with pytest.raises(MissingTargetState) as info:
        run_ensemble(method, me, PLUS, grid, 2000, seed=1)
    err = info.value
    assert (type(err), str(err), err.time) == (type(abort[0]), str(abort[0]), abort[0].time)
    partial = err.partial
    for key, want in (("rho_hat", rho_hat), ("rho_batches", rho_batches), ("stderr", stderr)):
        assert np.array_equal(partial[key], want), key
    last = len(partial["times"]) - 1
    assert partial["event_logs"] == [[e for e in res[2]["event_logs"][0] if e[0] < last] for res in full]


@pytest.mark.parametrize("build, t_max, aborts", [
    (spontaneous_emission, 0.5, False),
    (delayed_negative_phase_covariant, 3.0, True),
])
def test_nmqj_tiles_reproduce_per_replica_runs_at_n10000(build, t_max, aborts):
    """At N = 10^4 nmqj's 20 replicas of 500 step in one tile of twenty,
    with the bits of 20 separate one-replica runs: the series, counts and
    event logs of a finishing run, and the error, message, time, partial
    series and cut event logs of an aborting one."""
    me, grid, method = build(), TimeGrid(0.0, t_max, 1e-2), method_id("nmqj")
    full = [run_batches(method, me, PLUS, grid, r, [500], 5) for r in range(20)]
    rho_hat, rho_batches, stderr, counts, _diag, abort = _per_batch_reference(method, me, PLUS, grid, 10_000, 5)
    assert (abort is not None) == aborts
    if aborts:
        with pytest.raises(MissingTargetState) as info:
            run_ensemble(method, me, PLUS, grid, 10_000, seed=5)
        err = info.value
        assert (str(err), err.time) == (str(abort[0]), abort[0].time)
        partial = err.partial
        for key, want in (("rho_hat", rho_hat), ("rho_batches", rho_batches), ("stderr", stderr)):
            assert np.array_equal(partial[key], want), key
        last = len(partial["times"]) - 1
        assert partial["event_logs"] == [[e for e in res[2]["event_logs"][0] if e[0] < last] for res in full]
        return
    res = run_ensemble(method, me, PLUS, grid, 10_000, seed=5)
    assert np.array_equal(res.rho_hat, rho_hat)
    assert np.array_equal(res.rho_batches, rho_batches)
    assert np.array_equal(res.stderr, stderr)
    assert res.event_counts == counts
    assert res.diagnostics["event_logs"] == [r[2]["event_logs"][0] for r in full]
