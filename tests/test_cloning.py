"""Population unraveling for trace-changing drift overrides."""

import numpy as np
import pytest

from unravel import cloning, engine
from unravel.engine import _merge_counts, method_id, run_ensemble
from unravel.errors import NegativeRate, StepTooLarge
from unravel.linalg import trace_distance
from unravel.master_equation import master_equation
from unravel.mcwf import mcwf_branches
from unravel.models import KET0, KET1, PLUS, SIGMA_MINUS, SIGMA_X, eternally_nm, spontaneous_emission
from unravel.outcomes import Clone, Destroy, Deterministic, Jump, Menu, run_menus
from unravel.propagate import TimeGrid, propagate
from unravel.cloning import clone_branches, cloning_step

from branch_tools import run_batches

DT = 1e-2


def sink_model(gamma=1.0, lam=0.0):
    """Decay channel plus a drift override shifted by -lam * identity, so
    the trace grows at rate +lam (negative lam shrinks it)."""
    gamma_l = gamma * SIGMA_MINUS.conj().T @ SIGMA_MINUS
    return master_equation(
        2,
        np.zeros((2, 2)),
        [(SIGMA_MINUS, gamma, "down")],
        trace_sink=lambda t: gamma_l - lam * np.eye(2),
    )


def test_matched_sink_reduces_to_plain_branches():
    me = sink_model(gamma=0.8, lam=0.0)
    branches = clone_branches(me, KET1, 0.0, DT)
    plain = mcwf_branches(master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 0.8, "d")]), KET1, 0.0, DT)
    assert [type(b.event) for b in branches] == [Jump, Clone, Destroy, Deterministic]
    assert branches[1].probability == 0.0
    assert branches[2].probability == 0.0
    assert branches[0].probability == pytest.approx(plain[0].probability)
    assert np.allclose(branches[0].state, plain[0].state)
    assert np.allclose(branches[3].state, plain[1].state)
    assert sum(b.probability for b in branches) == pytest.approx(1.0)


def test_growing_trace_clones():
    me = sink_model(gamma=1.0, lam=0.3)
    branches = clone_branches(me, KET0, 0.0, DT)
    jump, clone, destroy, _det = branches
    assert jump.probability == 0.0  # ground state cannot decay
    assert clone.probability == pytest.approx(0.3 * DT)
    assert clone.copies == 2
    assert destroy.probability == 0.0
    assert np.allclose(clone.state, KET0)  # both copies keep the pre-step state


def test_shrinking_trace_destroys():
    me = sink_model(gamma=1.0, lam=-0.4)
    _jump, clone, destroy, _det = clone_branches(me, KET0, 0.0, DT)
    assert clone.probability == 0.0
    assert destroy.probability == pytest.approx(0.4 * DT)
    assert destroy.copies == 0


def test_negative_rates_are_refused():
    with pytest.raises(NegativeRate):
        clone_branches(eternally_nm(), KET0, 1.0, DT)


def test_step_reports_population_events():
    me = sink_model(gamma=1.0, lam=0.3)
    out = cloning_step(KET0, me, 0.0, DT, u=0.0)  # first live branch is the clone
    assert isinstance(out.event, Clone)
    out = cloning_step(KET0, me, 0.0, DT, u=0.999)
    assert isinstance(out.event, Deterministic)


def test_replica_tracks_growing_trace():
    lam = 0.2
    me = sink_model(gamma=1.0, lam=lam)
    grid = TimeGrid(0.0, 1.0, DT)
    n = 2000
    rho_sum, counts, diag, abort = run_batches("cloning", me, KET1, grid, 0, [n], 11)
    assert abort is None
    assert counts["clone"] > 0
    assert counts["destroy"] == 0
    assert diag["population"][0][0] == n
    assert diag["population"][0][-1] > n  # net growth at rate lam
    oracle = propagate(me, np.outer(KET1, KET1.conj()), grid, check_trace=False)
    for k, t in enumerate(grid.times()):
        est = rho_sum[0][k] / n
        assert trace_distance(est, oracle.states[k]) < 0.08
    assert np.trace(rho_sum[0][-1] / n).real == pytest.approx(np.exp(lam), abs=0.08)


def test_replica_resamples_through_heavy_shrinkage():
    me = sink_model(gamma=1.0, lam=-1.0)
    grid = TimeGrid(0.0, 3.0, DT)
    n = 500
    rho_sum, counts, diag, abort = run_batches("cloning", me, KET1, grid, 0, [n], 4)
    assert abort is None
    assert counts["destroy"] > 0
    pop = diag["population"][0]
    assert pop.min() >= 0.5 * n - 1  # resampling keeps the band
    traces = [np.trace(rho_sum[0][k] / n).real for k in range(grid.n_steps + 1)]
    expect = np.exp(-grid.times())
    assert np.max(np.abs(traces - expect)) < 0.06


def test_replica_survives_extinction():
    me = sink_model(gamma=1.0, lam=-5.0)
    grid = TimeGrid(0.0, 2.0, DT)
    rho_sum, _counts, diag, abort = run_batches("cloning", me, KET1, grid, 0, [1], 9)
    assert abort is None
    assert diag["population"][0][-1] == 0
    assert np.allclose(rho_sum[0][-1], 0.0)


def test_an_extinct_tile_steps_no_kernel():
    """Every replica dies out well before the rate turns negative at t = 1,
    so no kernel runs after that (``clone_menu`` would refuse the rate):
    the run finishes with zero sums and populations from the extinction
    on."""
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, lambda t: 1.0 if t < 1.0 else -1.0, "down")],
                         trace_sink=lambda t: gamma_l + 20.0 * np.eye(2))
    grid = TimeGrid(0.0, 1.5, DT)
    rho_sum, counts, diag, abort = run_batches("cloning", me, KET1, grid, 0, [3, 2], 9)
    assert abort is None and counts["clone"] == 0
    pop = diag["population"]
    (extinct,) = np.nonzero(pop.sum(axis=0) == 0)
    assert 0 < extinct[0] < 100 and np.array_equal(extinct, np.arange(extinct[0], grid.n_steps + 1))
    assert not rho_sum[:, extinct[0]:].any()


def test_run_menus_follows_a_menus_copies():
    """A toy menu whose one branch clones every member with probability 1:
    each batch's population reads n, 2n, then resamples to n with trace
    factor 4, and so on, and its sums' trace is trace factor x population,
    n 2^k."""
    def kernel(snap, cols, dt):
        return Menu(np.ones((1, cols.shape[1])), cols[None], cols, copies=np.array([2]))

    sizes, steps = [3, 2], 6
    grid = TimeGrid(0.0, steps * DT, DT)
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")])
    rho_sum, counts, diag, abort = run_menus(kernel, me, KET1, grid, 0, sizes, 3, [None] * steps)
    assert abort is None
    n = np.array(sizes)[:, None]
    assert np.array_equal(diag["population"], n * np.array([1, 2] * (steps // 2) + [1]))
    assert np.array_equal(np.trace(rho_sum, axis1=2, axis2=3).real, n * 2.0 ** np.arange(steps + 1))
    assert counts == {"jump": 0, "jump_by_channel": [], "clone": int(n.sum()) * (1 + 2) * steps // 2,
                      "destroy": 0, "deterministic": 0}


def test_replica_reproducible():
    me = sink_model(gamma=1.0, lam=0.3)
    grid = TimeGrid(0.0, 0.5, DT)
    a = run_batches("cloning", me, KET1, grid, 2, [100], 6)[0]
    b = run_batches("cloning", me, KET1, grid, 2, [100], 6)[0]
    assert np.array_equal(a, b)


def _alone(me, psi, grid, sizes, replica, seed):
    """One runner call per replica of a tile."""
    return [run_batches("cloning", me, psi, grid, replica + r, [n], seed) for r, n in enumerate(sizes)]


@pytest.mark.parametrize(
    "build, psi, t_max, sizes",
    [
        (spontaneous_emission, PLUS, 1.0, [500, 500, 500, 500]),  # replicas of N = 10^4
        (lambda: sink_model(gamma=1.0, lam=0.8), KET1, 1.5, [40, 40, 39]),  # clones, resampling
        (lambda: sink_model(gamma=1.0, lam=-2.0), KET1, 1.5, [3, 1, 40, 39]),  # destroys, extinction
    ],
)
def test_tile_matches_per_replica_runs(build, psi, t_max, sizes):
    """Replicas stepped together in one tile give, bit for bit, the sums,
    populations and counts of one run per replica."""
    me = build()
    grid = TimeGrid(0.0, t_max, DT)
    rho_sum, counts, diag, abort = run_batches("cloning", me, psi, grid, 2, sizes, 9)
    alone = _alone(me, psi, grid, sizes, 2, 9)
    assert abort is None and all(res[3] is None for res in alone)
    assert rho_sum.shape[0] == diag["population"].shape[0] == len(sizes)
    for r, (rho, _counts, own, _abort) in enumerate(alone):
        assert np.array_equal(rho_sum[r], rho[0])
        assert np.array_equal(diag["population"][r], own["population"][0])
    assert counts == _merge_counts([res[1] for res in alone])
    pops = diag["population"]
    if me.trace_sink is not None:
        # a population only moves against its trend when it is resampled
        grows = counts["clone"] > 0
        assert counts["destroy" if grows else "clone"] == 0
        assert np.any(np.diff(pops, axis=1) < 0 if grows else np.diff(pops, axis=1) > 0)
        assert grows or np.any(pops[:, -1] == 0)  # an extinct replica


def test_tile_abort_is_its_first_failing_replicas():
    """A jump probability above one stops the tile at the first step where
    any replica meets one, with the error of the first such replica: its
    message quotes that replica's own largest probability."""
    me = master_equation(2, 3.0 * SIGMA_X, [(SIGMA_MINUS, lambda t: 5.0 if t < 0.5 else 300.0, "down")])
    grid = TimeGrid(0.0, 0.6, DT)
    sizes = [30, 30, 29]
    rho_sum, _counts, diag, abort = run_batches("cloning", me, PLUS, grid, 0, sizes, 4)
    alone = _alone(me, PLUS, grid, sizes, 0, 4)
    first = min((res[3] for res in alone), key=lambda a: a[1])
    err, k = abort
    assert isinstance(err, StepTooLarge) and k == first[1]
    assert (str(err), err.time) == (str(first[0]), first[0].time)
    assert len({str(res[3][0]) for res in alone}) > 1  # the replicas' messages differ
    for r, (rho, _c, own, _a) in enumerate(alone):
        assert np.array_equal(rho_sum[r, : k + 1], rho[0, : k + 1])
        assert np.array_equal(diag["population"][r, : k + 1], own["population"][0, : k + 1])


def test_without_a_sink_cloning_is_mcwf_over_several_tiles(monkeypatch):
    """No trace sink: cloning forms no population branch, keeps its
    population and gives mcwf's counts and rho_hat bit for bit (N = 10^4,
    three tiles under a budget of 4096 rows of width 2)."""
    monkeypatch.setattr(engine, "_TILE_ENTRIES", 8192)
    assert [len(tile) for tile in engine._tiles(engine._chunk_sizes(10_000, 20), 2)] == [8, 8, 4]
    me = spontaneous_emission()
    grid = TimeGrid(0.0, 1.0, DT)
    plain = run_ensemble(method_id("mcwf"), me, PLUS, grid, 10_000, 42)
    monkeypatch.setattr(cloning, "clone_menu", None)  # the population branches are never formed
    res = run_ensemble(method_id("cloning"), me, PLUS, grid, 10_000, 42)
    assert res.event_counts == {**plain.event_counts, "clone": 0, "destroy": 0}
    assert np.all(res.diagnostics["population"] == 10_000)
    assert np.array_equal(res.rho_hat, plain.rho_hat)


def test_a_sink_that_starts_late_still_clones():
    """A sink that equals G_L before t = 0.5 and is shifted by -1/2 after
    it: the population is still until 0.5 and grows from then on, so
    liveness is judged over the whole track, not at its start."""
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")],
                         trace_sink=lambda t: gamma_l if t < 0.5 else gamma_l - 0.5 * np.eye(2))
    grid = TimeGrid(0.0, 1.0, DT)
    res = run_ensemble(method_id("cloning"), me, KET1, grid, 10_000, 42)
    pop = res.diagnostics["population"]
    assert res.event_counts["clone"] == 2898 and res.event_counts["destroy"] == 0
    assert np.all(pop[:51] == 10_000) and pop[-1] > 10_000
