"""The stream contract: batch b of every method draws from
``replica_generator(seed, b)``, in an order fixed within the batch."""

import numpy as np
import pytest

from unravel import outcomes
from unravel.engine import _chunk_sizes, method_id, run_ensemble
from unravel.linalg import hermitize, normalize
from unravel.mcwf import mcwf_step
from unravel.models import KET1, PLUS, eternally_nm, spontaneous_emission
from unravel.outcomes import Jump
from unravel.propagate import TimeGrid
from unravel.rate_operators import time_dependent_gauge
from unravel.rng import replica_generator, trajectory_generator, trajectory_uniforms
from unravel.wtd import run_chunk as wtd_run_chunk
from unravel.wtd import wtd_next_jump, wtd_select_channel

SEED = 42


def test_streams_are_numpy_philox_keyed_by_seed_and_index():
    """A batch's stream is Philox(key=[seed, 2^63 + b]); the per-trajectory
    forms that no runner calls stack Philox(key=[seed, k]) draws."""
    bits = np.random.Philox(key=np.array([SEED, 2**63 + 3], dtype=np.uint64))
    assert np.array_equal(replica_generator(SEED, 3).random(10), np.random.Generator(bits).random(10))
    rows = trajectory_uniforms(SEED, 3, 4, 9)
    assert rows.shape == (4, 9) and trajectory_uniforms(SEED, 0, 0, 9).shape == (0, 9)
    for k in range(4):
        assert np.array_equal(rows[k], trajectory_generator(SEED, 3 + k).random(9))


def test_mcwf_batch_is_a_hand_loop_on_its_stream():
    """Batch b of an mcwf ensemble is mcwf_step run row by row on
    ``replica_generator(seed, b).random((steps, size_b))``: row r takes
    column r at each step."""
    me = spontaneous_emission(omega=1.0, gamma=5.0)
    grid = TimeGrid(0.0, 0.5, 1e-2)
    n_traj, times = 47, grid.times()
    res = run_ensemble(method_id("mcwf"), me, PLUS, grid, n_traj, seed=SEED)
    jumps = 0
    for b, size in enumerate(_chunk_sizes(n_traj, 20)):
        u = replica_generator(SEED, b).random((grid.n_steps, size))
        rows = [PLUS] * size
        mean = [np.outer(PLUS, PLUS.conj())]
        for k in range(grid.n_steps):
            outcomes_k = [mcwf_step(me, rows[r], times[k], grid.dt, u[k, r]) for r in range(size)]
            rows = [out.state for out in outcomes_k]
            jumps += sum(isinstance(out.event, Jump) for out in outcomes_k)
            mean.append(sum(np.outer(row, row.conj()) for row in rows) / size)
        assert np.allclose(res.rho_batches[b], hermitize(np.array(mean)), atol=1e-12), b
    assert res.event_counts["jump"] == jumps > 20


# every method with its model: mcwf, wtd and the replica methods need
# non-negative rates
KINDS = [
    ("mcwf", spontaneous_emission),
    ("wtd", spontaneous_emission),
    ("nmqj", spontaneous_emission),
    ("cloning", spontaneous_emission),
    ("wroqj", eternally_nm),
    ("rroqj", eternally_nm),
    ("psi_roqj", eternally_nm),
    ("doubled", eternally_nm),
    ("tripled", eternally_nm),
    ("im", eternally_nm),
    ("plqt", eternally_nm),
]
MENU_KINDS = [(kind, build) for kind, build in KINDS if kind not in ("wtd", "nmqj", "cloning")]


def _method(kind):
    if kind == "rroqj":
        return method_id("rroqj", gauge=time_dependent_gauge(lambda t: 0.5 * np.eye(2)))
    return method_id(kind)


@pytest.mark.parametrize("steps", [1, 3, 37])
@pytest.mark.parametrize("kind, build", MENU_KINDS)
def test_draws_split_into_whole_steps_give_the_same_bits(monkeypatch, kind, build, steps):
    """One step per call, three (a divisor of neither 4 nor 37) or the whole
    grid at once give what the default four steps per call give: a batch's
    draws are its stream's in (steps, rows) order whatever the split. 37
    steps are no multiple of 4, and N = 63 makes batches of 4 and 3."""
    grid = TimeGrid(0.0, 0.37, 1e-2)
    assert grid.n_steps == 37 and outcomes._DRAW_STEPS == 4
    ref = run_ensemble(_method(kind), build(), PLUS, grid, 63, seed=SEED)
    monkeypatch.setattr(outcomes, "_DRAW_STEPS", steps)
    res = run_ensemble(_method(kind), build(), PLUS, grid, 63, seed=SEED)
    assert np.array_equal(res.rho_batches, ref.rho_batches, equal_nan=True)
    assert res.event_counts == ref.event_counts
    assert ref.event_counts["jump"] > 0


@pytest.mark.parametrize("kind, build", KINDS)
def test_a_batch_depends_on_n_only_through_its_size(kind, build):
    """N = 40 makes twenty batches of 2 rows (replica methods: members) and
    N = 41 batches of 3, 2, ..., 2. Batch b draws from its own stream
    whatever N is, so batches 1 to 19 agree bit for bit."""
    grid = TimeGrid(0.0, 0.3, 1e-2)
    runs = [run_ensemble(_method(kind), build(), PLUS, grid, n, seed=SEED) for n in (40, 41)]
    assert [len(res.rho_batches) for res in runs] == [20, 20]
    assert np.array_equal(runs[0].rho_batches[1:], runs[1].rho_batches[1:], equal_nan=True)
    assert all(res.event_counts["jump"] > 0 for res in runs)


def _wtd_replay(me, grid, seed, batch, size):
    """One batch of ``wtd.run_chunk`` replayed jump by jump: the thresholds
    of all its rows first, then each jump's channel draw and new threshold,
    in the order of the steps that hold the jumps and, within a step, of the
    rows. Returns the final sum of the rows' projectors and the step of each
    jump."""
    gen = replica_generator(seed, batch)
    state = [[0.0, KET1, x] for x in gen.random(size)]  # (t, psi, threshold) per row
    jumps = []
    while True:
        nxt = [wtd_next_jump(me, psi, t, x=x, t_cap=grid.t_max, dt=grid.dt) for t, psi, x in state]
        pending = [(int(t1 // grid.dt), r) for r, (t1, _psi, jumped) in enumerate(nxt) if jumped]
        if not pending:
            break
        step, r = min(pending)
        t1, psi, _ = nxt[r]
        a = wtd_select_channel(me, psi, t1, gen.random())
        state[r] = [t1, normalize(me.at(t1).ls[a] @ psi)[0], gen.random()]
        jumps.append(step)
    return sum(np.outer(psi, psi.conj()) for _t, psi, _jumped in nxt), jumps


def test_wtd_draws_thresholds_first_then_jumps_in_row_order():
    """A tile of batches 3 and 4, two rows each, in which both batches jump
    in one step, against a replay of each batch on its own stream."""
    me = spontaneous_emission(omega=2.0, gamma=3.0)
    grid = TimeGrid(0.0, 3.0, 2.5e-2)
    rho_sum, counts, _diag, abort = wtd_run_chunk(me, KET1, grid, 3, [2, 2], seed=SEED)
    assert abort is None
    replays = [_wtd_replay(me, grid, SEED, b, 2) for b in (3, 4)]
    for i, (final, _steps) in enumerate(replays):
        assert np.allclose(rho_sum[i, -1], final, atol=1e-6), i
    assert counts["jump"] == sum(len(steps) for _final, steps in replays)
    assert set(replays[0][1]) & set(replays[1][1])  # both batches jump in one step
