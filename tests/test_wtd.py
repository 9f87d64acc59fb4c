"""Waiting-time sampling: exact crossing times, channel selection, ensembles.

The survival norm of an undriven decaying qubit is known in closed form,
which pins the bisected jump times to high precision.
"""

from collections import Counter

import numpy as np
import pytest

from unravel.engine import method_id, run_ensemble
from unravel.errors import NegativeRate, NoJumpPossible
from unravel.linalg import normalize, trace_distance
from unravel.master_equation import MasterEquation, master_equation
from unravel.models import KET0, KET1, PLUS, SIGMA_MINUS, SIGMA_Z, eternally_nm, spontaneous_emission
from unravel.propagate import TimeGrid, propagate
from unravel.rng import replica_generator
from unravel.wtd import first_jump_times, run_chunk, wtd_next_jump, wtd_select_channel


def test_crossing_time_matches_closed_form():
    # ||psi~(t)||^2 = e^{-gamma t} from |1>, so t1 = -ln(x)/gamma
    me = spontaneous_emission(gamma=1.0)
    t1, psi1, jumped = wtd_next_jump(me, KET1, 0.0, x=0.3, t_cap=5.0)
    assert jumped
    assert t1 == pytest.approx(-np.log(0.3), abs=1e-6)
    assert abs(np.vdot(psi1, KET1)) == pytest.approx(1.0)  # pre-jump state


def test_no_crossing_before_cap():
    me = spontaneous_emission(gamma=1.0)
    t1, _psi, jumped = wtd_next_jump(me, KET1, 0.0, x=0.2, t_cap=1.0)
    assert not jumped
    assert t1 == 1.0


def test_threshold_domain():
    me = spontaneous_emission(gamma=1.0)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            wtd_next_jump(me, KET1, 0.0, x=bad, t_cap=1.0)


def test_channel_selection_frozen_weights():
    me = master_equation(
        2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down"), (SIGMA_Z, 2.0, "z")]
    )
    # from |1>: fluxes (1, 2), so P(channel 0) = 1/3
    assert wtd_select_channel(me, KET1, 0.0, u=0.2) == 0
    assert wtd_select_channel(me, KET1, 0.0, u=0.5) == 1
    assert wtd_select_channel(me, KET1, 0.0, u=0.99) == 1


def test_no_flux_raises():
    me = spontaneous_emission(gamma=1.0)
    with pytest.raises(NoJumpPossible):
        wtd_select_channel(me, KET0, 0.0, u=0.5)


def test_negative_rate_refused():
    me = eternally_nm()
    with pytest.raises(NegativeRate):
        wtd_next_jump(me, KET1, 0.5, x=0.5, t_cap=2.0)


def test_chunk_reproduces_master_equation():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 0.05)
    n = 400
    rho_sum, counts, _diag, abort = run_chunk(me, KET1, grid, 0, n, seed=12)
    assert abort is None
    assert counts["jump"] > 0
    oracle = propagate(me, np.outer(KET1, KET1.conj()), grid)
    dists = [trace_distance(rho_sum[k] / n, oracle.states[k]) for k in range(grid.n_steps + 1)]
    assert max(dists) < 0.1


def test_aborted_chunk_keeps_the_initial_point():
    # gamma_3 of eternally_nm is 0 at t = 0 and negative from then on, so
    # every chunk aborts in step 1 (t = dt) and keeps points 0 and 1
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    one_step = TimeGrid(0.0, 1e-2, 1e-2)
    rho_sum, _counts, _diag, abort = run_chunk(me, PLUS, grid, 0, 5, seed=1)
    assert isinstance(abort[0], NegativeRate) and abort[1] == 1
    assert abort[0].time == pytest.approx(1e-2)
    assert np.allclose(rho_sum[0], 5 * np.outer(PLUS, PLUS.conj()))
    true_sum, _counts, _diag, none = run_chunk(me, PLUS, one_step, 0, 5, seed=1)
    assert none is None
    assert np.array_equal(rho_sum[1], true_sum[1])
    with pytest.raises(NegativeRate) as info:
        run_ensemble(method_id("wtd"), me, PLUS, grid, 20, seed=1)
    partial = info.value.partial
    assert info.value.time == pytest.approx(1e-2)
    assert np.allclose(partial["rho_hat"][0], np.outer(PLUS, PLUS.conj()))
    true_rho = run_ensemble(method_id("wtd"), me, PLUS, one_step, 20, seed=1).rho_hat
    assert np.array_equal(partial["rho_hat"], true_rho)


def test_chunk_reproduces_a_driven_master_equation():
    # the drive makes K non-normal in time order: the survival norm is no
    # longer an exponential and the post-jump state keeps evolving
    me = spontaneous_emission(omega=1.0)
    grid = TimeGrid(0.0, 3.0, 0.02)
    res = run_ensemble(method_id("wtd"), me, KET1, grid, 2000, seed=5)
    oracle = propagate(me, np.outer(KET1, KET1.conj()), grid)
    dists = np.array([trace_distance(res.rho_hat[k], oracle.states[k]) for k in range(grid.n_steps + 1)])
    assert res.event_counts["jump"] > 2000
    assert dists.max() <= 4.0 * res.stderr.max() + 1.0 / 2000


def test_first_jump_times_agree_with_wtd_next_jump():
    me = spontaneous_emission(omega=1.0)
    grid = TimeGrid(0.0, 3.0, 1e-2)
    samples = first_jump_times(me, KET1, grid, n=40, seed=7)
    assert 0 < np.isfinite(samples).sum() < 40
    thresholds = replica_generator(7, 0).random(40)
    for t_first, x in zip(samples, thresholds):
        t1, _psi, jumped = wtd_next_jump(me, KET1, 0.0, x=x, t_cap=grid.t_max, dt=grid.dt)
        assert jumped == np.isfinite(t_first)
        if jumped:
            assert abs(t1 - t_first) <= 1e-9


def test_first_jump_times_evaluate_only_the_half_grid(monkeypatch):
    """Rows retire at their first jump without evaluating the generator."""
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    calls = Counter()
    evaluate = MasterEquation._evaluate

    def counting(self, t):
        calls[float(t)] += 1
        return evaluate(self, t)

    monkeypatch.setattr(MasterEquation, "_evaluate", counting)
    samples = first_jump_times(me, KET1, grid, n=50, seed=3)
    assert np.isfinite(samples).sum() > 25
    assert sum(calls.values()) == len(calls) == 2 * grid.n_steps + 1


def test_first_jump_times_match_exponential():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 10.0, 1e-2)
    samples = first_jump_times(me, KET1, grid, n=2000, seed=4)
    finite = samples[np.isfinite(samples)]
    assert len(finite) > 1900
    scipy_stats = pytest.importorskip("scipy.stats")
    ks = scipy_stats.kstest(finite, lambda t: 1.0 - np.exp(-t)).statistic
    assert ks < 0.05


def test_first_jump_times_continuous_not_grid_locked():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 5.0, 1e-2)
    samples = first_jump_times(me, KET1, grid, n=200, seed=9)
    finite = samples[np.isfinite(samples)]
    off_grid = np.abs(finite / grid.dt - np.round(finite / grid.dt)) > 1e-6
    assert off_grid.mean() > 0.95


def test_chunk_follows_the_stream_contract():
    # a tile of four one-trajectory batches, each replayed jump by jump: its
    # batch's stream gives the threshold first, then a channel draw and a new
    # threshold at each jump
    me = spontaneous_emission(omega=1.0)
    grid = TimeGrid(0.0, 10.0, 1e-2)
    rho_sum, counts, _diag, abort = run_chunk(me, KET1, grid, 0, [1, 1, 1, 1], seed=3)
    assert abort is None
    total = 0
    for b in range(4):
        gen = replica_generator(3, b)
        t, psi, x = 0.0, KET1, gen.random()
        while True:
            t, psi, jumped = wtd_next_jump(me, psi, t, x=x, t_cap=grid.t_max, dt=grid.dt)
            if not jumped:
                break
            a = wtd_select_channel(me, psi, t, gen.random())
            psi, x, total = normalize(me.at(t).ls[a] @ psi)[0], gen.random(), total + 1
        assert np.allclose(rho_sum[b, -1], np.outer(psi, psi.conj()), atol=1e-6), b
    assert counts["jump"] == total >= 2
