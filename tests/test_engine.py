"""Ensemble driver: batches and row tiles, determinism, error bars, abort reporting."""

from collections import Counter

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
    _tiles,
    _tree_sum,
)
from unravel.errors import (
    DegenerateBlock,
    DimensionMismatch,
    GridMismatch,
    MissingTargetState,
    NegativeRate,
    NegativeWEigenvalue,
    NotHermitian,
    StepTooLarge,
    UnknownMethod,
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
from unravel import nmqj as nmqj_module
from unravel.nmqj import run_replica
from unravel.propagate import TimeGrid, propagate
from unravel.rate_operators import (
    state_dependent_gauge,
    time_dependent_gauge,
    w_matching_gauge,
)


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


def test_thread_count_does_not_change_bits():
    me = spontaneous_emission()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    serial = run_ensemble(method_id("mcwf"), me, PLUS, grid, 400, seed=5, threads=1)
    pooled = run_ensemble(method_id("mcwf"), me, PLUS, grid, 400, seed=5, threads=4)
    assert np.array_equal(serial.rho_hat, pooled.rho_hat)
    assert np.array_equal(serial.stderr, pooled.stderr)
    assert np.array_equal(serial.rho_batches, pooled.rho_batches)


def test_replica_method_threads_identical():
    from unravel.models import delayed_negative_phase_covariant

    me = delayed_negative_phase_covariant()
    grid = TimeGrid(0.0, 0.4, 1e-2)
    serial = run_ensemble(method_id("nmqj"), me, PLUS, grid, 2000, seed=3, threads=1)
    pooled = run_ensemble(method_id("nmqj"), me, PLUS, grid, 2000, seed=3, threads=3)
    assert np.array_equal(serial.rho_hat, pooled.rho_hat)
    assert "event_logs" in serial.diagnostics


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
        full = run_replica(me, PLUS, grid, 100, replica=replica, seed=3)[2]["event_log"]
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
    abort_time, n_pts = (0.49, 50) if kind == "wtd" else (0.5, 51)
    assert err.time == pytest.approx(abort_time)
    assert err.partial is not None
    assert len(err.partial["times"]) == len(err.partial["rho_hat"]) == n_pts
    assert err.partial["n_traj"] == 40


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


@pytest.mark.parametrize("threads", [1, 2])
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
def test_generator_evaluated_once_per_grid_time(monkeypatch, kind, build, threads):
    """All 20 chunks or replicas read one evaluation per grid time of the
    model, and no other system is evaluated: tripled builds its embedding's
    track from the model's (``tripled.embedded_track``)."""
    me = build()
    grid = TimeGrid(0.0, 0.2, 1e-2)
    calls = Counter()
    evaluate = MasterEquation._evaluate

    def counting(self, t):
        calls[(id(self), float(t))] += 1
        return evaluate(self, t)

    monkeypatch.setattr(MasterEquation, "_evaluate", counting)
    run_ensemble(method_id(kind), me, PLUS, grid, 40, seed=3, threads=threads)
    assert {system for system, _ in calls} == {id(me)}
    assert max(calls.values()) == 1
    assert len(calls) == grid.n_steps


def test_wtd_evaluates_each_half_grid_time_once(monkeypatch):
    """All 20 wtd chunks read one evaluation per step start, midpoint and
    end; only jumps evaluate off that grid, at most twice each: the jump time
    and the midpoint of the rest of its step."""
    me = spontaneous_emission(omega=1.0)
    grid = TimeGrid(0.0, 0.5, 1e-2)
    calls = Counter()
    evaluate = MasterEquation._evaluate

    def counting(self, t):
        calls[float(t)] += 1
        return evaluate(self, t)

    monkeypatch.setattr(MasterEquation, "_evaluate", counting)
    res = run_ensemble(method_id("wtd"), me, PLUS, grid, 40, seed=3)
    times = grid.times()
    half = set(times) | set(times[:-1] + 0.5 * np.diff(times))
    assert all(calls[t] == 1 for t in half)
    off_grid = sum(n for t, n in calls.items() if t not in half)
    assert res.event_counts["jump"] > 0
    assert off_grid <= 2 * res.event_counts["jump"]


def _per_batch_reference(method, me, psi, grid, n_traj, seed):
    """What run_ensemble reports, rebuilt from one runner call per batch
    with a plain row count (a replica method: one replica per batch), each
    on the whole grid: (rho_hat, rho_batches, stderr, counts, diagnostics,
    abort)."""
    sizes = _chunk_sizes(n_traj, 20)
    track = _generator_track(method, me, grid)
    if method.kind == "nmqj":
        results = [run_replica(me, psi, grid, n, replica=r, seed=seed, track=track) for r, n in enumerate(sizes)]
    else:
        results = [_runner(method)(me, psi, grid, b, n, seed, track=track) for b, n in enumerate(sizes)]
    aborts = [res[3] for res in results if res[3] is not None]
    abort = min(aborts, key=lambda a: a[1]) if aborts else None
    n_pts = abort[1] + 1 if abort else grid.n_steps + 1
    sums = [res[0][:n_pts] for res in results]
    rho_hat, degenerate = _reconstruct(method, _tree_sum(sums) / n_traj)
    if degenerate is not None:
        rho_hat = rho_hat[: degenerate[0][0]]
    means = [batch[: len(rho_hat)] / size for batch, size in zip(sums, sizes)]
    rho_batches, _ = _reconstruct(method, np.stack(means))
    diag = {}
    for key, val in results[0][2].items():
        vals = [res[2][key] for res in results]
        diag[key] = sorted(set().union(*vals)) if key == "sign_flip_steps" else _tree_sum(vals)
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
    # aborts (a later tile runs only the steps before the first tile's):
    # NegativeRate at t = 0.79, a W eigenvalue at t = 1.01, and a
    # StepTooLarge at t = 0.5 in many rows, whose message quotes the largest
    # jump probability of the first failing batch (cloning: replica)
    ("mcwf", delayed_negative_phase_covariant, PLUS, 1.2),
    ("wroqj", non_p_divisible, KET0, 1.2),
    ("mcwf", _rate_step, PLUS, 0.6),
    # cloning's replicas share tiles: equal populations, then clones and
    # resampling, then destroys, resampling and extinct replicas, then the
    # NegativeRate and StepTooLarge aborts; last, wtd's NegativeRate abort
    ("cloning", spontaneous_emission, PLUS, 0.3),
    ("cloning", _sink(0.8), KET1, 1.5),
    ("cloning", _sink(-2.0), KET1, 1.5),
    ("cloning", delayed_negative_phase_covariant, PLUS, 1.2),
    ("cloning", _rate_step, PLUS, 0.6),
    ("wtd", delayed_negative_phase_covariant, PLUS, 1.2),
]


@pytest.mark.parametrize(
    "n_traj, budget", [(7, "default"), (7, "small"), (63, "default"), (63, "small"), (4097, "default")]
)
@pytest.mark.parametrize("kind, build, psi, t_max", TILED)
def test_tiles_reproduce_per_batch_runs(monkeypatch, kind, build, psi, t_max, n_traj, budget):
    """Stepping whole tiles of batches gives bit for bit what one runner call
    per batch gives: the batch sums, counts and diagnostics (cloning's
    populations), and for an abort its error, message, time and partial
    series. N = 7 has one trajectory per batch, N = 63 unequal batches; a
    cap of 16 rows splits that ensemble into several tiles. N = 4097
    (batches of 205 and 204 rows) makes three tiles at the default cap, the
    second of them holding both sizes."""
    if budget == "small":
        monkeypatch.setattr(engine, "_TILE_ROWS", 16)
    me = build()
    method = _rroqj(me) if kind == "rroqj" else method_id(kind)
    grid = TimeGrid(0.0, t_max, 1e-2)
    sizes = _chunk_sizes(n_traj, 20)
    tiles = _tiles(sizes)
    if n_traj == 63 and budget == "small":
        assert 1 < len(tiles) < len(sizes)
    if n_traj == 4097:
        assert [[sizes[i] for i in tile] for tile in tiles] == [[205] * 9, [205] * 8 + [204] * 2, [204]]
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
    """A tile holds whole consecutive batches, at most ``_TILE_ROWS`` rows
    of them, or one batch larger than that; the replicas of cloning and
    nmqj tile as trajectories do, four replicas a tile at N = 10^4 and all
    twenty at N = 2000."""
    sizes = _chunk_sizes(1003, 20)  # 3 batches of 51 rows, 17 of 50
    monkeypatch.setattr(engine, "_TILE_ROWS", 160)
    tiles = _tiles(sizes)
    assert [i for tile in tiles for i in tile] == list(range(20))
    assert all(sum(sizes[i] for i in tile) <= 160 for tile in tiles)
    assert [len(t) for t in tiles] == [3] * 6 + [2]
    monkeypatch.setattr(engine, "_TILE_ROWS", 1)  # never fewer than one batch
    assert _tiles(sizes) == [[i] for i in range(20)]
    monkeypatch.undo()
    assert _tiles([100, 3000, 100, 1948, 1]) == [[0], [1], [2, 3], [4]]
    assert _tiles(_chunk_sizes(2000, 20)) == [list(range(20))]
    assert _tiles(_chunk_sizes(10_000, 20)) == [list(range(i, i + 4)) for i in range(0, 20, 4)]
    assert _tiles(_chunk_sizes(10**5, 20)) == [[i] for i in range(20)]
    grid = TimeGrid(0.0, 0.02, 1e-2)
    for module, kind in ((cloning_module, "cloning"), (nmqj_module, "nmqj")):
        calls = []
        replica = module.run_replica
        monkeypatch.setattr(
            module, "run_replica", lambda *args, **kw: (calls.append(list(args[3])), replica(*args, **kw))[1]
        )
        for n_traj in (10_000, 2000):
            run_ensemble(method_id(kind), spontaneous_emission(), PLUS, grid, n_traj, seed=1)
        assert calls == [[500] * 4] * 5 + [[100] * 20], kind


def test_cloning_tiles_reproduce_per_replica_runs_at_n10000():
    """At N = 10^4 cloning's 20 replicas of 500 step in five tiles of four,
    with the bits of 20 separate replica runs."""
    me, grid, method = spontaneous_emission(), TimeGrid(0.0, 0.5, 1e-2), method_id("cloning")
    rho_hat, rho_batches, stderr, counts, diag, abort = _per_batch_reference(method, me, PLUS, grid, 10_000, 5)
    assert abort is None
    res = run_ensemble(method, me, PLUS, grid, 10_000, seed=5)
    assert np.array_equal(res.rho_hat, rho_hat)
    assert np.array_equal(res.rho_batches, rho_batches)
    assert np.array_equal(res.stderr, stderr)
    assert res.event_counts == counts
    assert np.array_equal(res.diagnostics["population"], diag["population"])


def test_replicas_stop_at_the_earliest_abort_so_far(monkeypatch):
    """Each nmqj tile steps its replicas together up to the first abort
    among them, and only up to the earliest abort of the tiles before it
    (the earlier tile wins a tie, so it need not run that step); the result
    is what running every replica to its own abort gives: the error, its
    message and time, the partial series and the event logs cut to them."""
    me, grid, method = delayed_negative_phase_covariant(), TimeGrid(0.0, 3.0, 1e-2), method_id("nmqj")
    sizes = _chunk_sizes(2000, 20)
    monkeypatch.setattr(engine, "_TILE_ROWS", 300)  # tiles of three replicas of 100
    tiles = _tiles(sizes)
    assert [len(tile) for tile in tiles] == [3] * 6 + [2]
    track = _generator_track(method, me, grid)
    full = [run_replica(me, PLUS, grid, n, replica=r, seed=1, track=track) for r, n in enumerate(sizes)]
    # the steps each tile runs on its own: up to and with its first abort's
    aborts = [grid.n_steps if res[3] is None else res[3][1] for res in full]
    tile_aborts = [min(aborts[i] for i in tile) for tile in tiles]
    own = [min(a + 1, grid.n_steps) for a in tile_aborts]
    rho_hat, rho_batches, stderr, _counts, _diag, abort = _per_batch_reference(method, me, PLUS, grid, 2000, 1)

    calls = []
    step = nmqj_module._step
    monkeypatch.setattr(nmqj_module, "_step", lambda *args: (calls.append(args[0].t), step(*args))[1])
    with pytest.raises(MissingTargetState) as info:
        run_ensemble(method, me, PLUS, grid, 2000, seed=1)
    # a tile calls _step at steps 0, 1, ... and a new tile starts at t = 0
    per_tile = np.split(calls, np.nonzero(np.diff(calls) <= 0)[0] + 1)
    limits = [max(1, min(tile_aborts[:i], default=grid.n_steps)) for i in range(len(tiles))]
    assert [len(c) for c in per_tile] == [min(n, lim) for n, lim in zip(own, limits)]
    assert sum(len(c) for c in per_tile) < sum(own)  # some tile was stopped

    err = info.value
    assert (type(err), str(err), err.time) == (type(abort[0]), str(abort[0]), abort[0].time)
    partial = err.partial
    for key, want in (("rho_hat", rho_hat), ("rho_batches", rho_batches), ("stderr", stderr)):
        assert np.array_equal(partial[key], want), key
    last = len(partial["times"]) - 1
    assert partial["event_logs"] == [[e for e in res[2]["event_log"] if e[0] < last] for res in full]


@pytest.mark.parametrize("build, t_max, aborts", [
    (spontaneous_emission, 0.5, False),
    (delayed_negative_phase_covariant, 3.0, True),
])
def test_nmqj_tiles_reproduce_per_replica_runs_at_n10000(build, t_max, aborts):
    """At N = 10^4 nmqj's 20 replicas of 500 step in five tiles of four,
    with the bits of 20 separate one-replica runs: the series, counts and
    event logs of a finishing run, and the error, message, time, partial
    series and cut event logs of an aborting one."""
    me, grid, method = build(), TimeGrid(0.0, t_max, 1e-2), method_id("nmqj")
    track = _generator_track(method, me, grid)
    full = [run_replica(me, PLUS, grid, 500, replica=r, seed=5, track=track) for r in range(20)]
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
        assert partial["event_logs"] == [[e for e in res[2]["event_log"] if e[0] < last] for res in full]
        return
    res = run_ensemble(method, me, PLUS, grid, 10_000, seed=5)
    assert np.array_equal(res.rho_hat, rho_hat)
    assert np.array_equal(res.rho_batches, rho_batches)
    assert np.array_equal(res.stderr, stderr)
    assert res.event_counts == counts
    assert res.diagnostics["event_logs"] == [r[2]["event_log"] for r in full]
