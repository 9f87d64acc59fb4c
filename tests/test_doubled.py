"""Pair-of-vectors unraveling: signed factorization and weighted estimator."""

from collections import Counter

import numpy as np
import pytest

from test_linalg import signed_zero_rows
from unravel.doubled import (
    _norm2_sums,
    _pair_outer,
    DoubledState,
    doubled_branches,
    doubled_step,
    gksl_to_doubled,
    run_chunk,
)
from unravel.errors import ZeroVector
from unravel.linalg import haar_state, trace_distance
from unravel.master_equation import MasterEquation, lindblad_apply, master_equation
from unravel.models import KET1, PLUS, SIGMA_MINUS, SIGMA_Z, eternally_nm, spontaneous_emission
from unravel.outcomes import Deterministic, Jump
from unravel.propagate import TimeGrid, propagate


def test_sign_of_negative_rate_lands_on_second_factor():
    model = gksl_to_doubled(eternally_nm())
    t = 1.0
    gz = -0.5 * np.tanh(t)
    root = np.sqrt(abs(gz))
    assert np.allclose(model.cs[2](t), root * SIGMA_Z)
    assert np.allclose(model.ds[2](t), -root * SIGMA_Z)
    # unit-rate raising channel keeps both factors equal
    assert np.allclose(model.cs[0](t), model.ds[0](t))


def test_doubled_model_evaluates_once_per_time(monkeypatch):
    """A, B and every C_i, D_i at one time share one evaluation of the model."""
    me = eternally_nm()
    calls = Counter()
    evaluate = MasterEquation._evaluate

    def counting(self, t):
        calls[float(t)] += 1
        return evaluate(self, t)

    monkeypatch.setattr(MasterEquation, "_evaluate", counting)
    model = gksl_to_doubled(me)
    for t in (0.3, 0.6):
        model.a(t), model.b(t), [c(t) for c in model.cs], [d(t) for d in model.ds]
    assert calls == Counter({0.3: 1, 0.6: 1})


def test_jump_probability_from_excited_state():
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 0.8, "down")])
    model = gksl_to_doubled(me)
    theta = DoubledState(KET1.copy(), KET1.copy())
    branches = doubled_branches(model, theta, 0.0, 1e-2)
    assert len(branches) == 2
    jump, det = branches
    assert isinstance(jump.event, Jump) and jump.event.channel == 0
    # q = (0.8 + 0.8)/2 = 0.8, so p = 0.8 dt
    assert jump.probability == pytest.approx(0.8e-2)
    assert isinstance(det.event, Deterministic)
    assert jump.probability + det.probability == pytest.approx(1.0)


def test_jump_preserves_joint_norm():
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 0.8, "down")])
    model = gksl_to_doubled(me)
    rng = np.random.default_rng(17)
    theta = DoubledState(2.0 * haar_state(2, rng), 0.5 * haar_state(2, rng))
    before = theta.norm2
    jump = doubled_branches(model, theta, 0.0, 1e-2)[0]
    assert jump.state.norm2 == pytest.approx(before, rel=1e-12)


def test_zero_joint_norm_rejected():
    model = gksl_to_doubled(eternally_nm())
    theta = DoubledState(np.zeros(2, complex), np.zeros(2, complex))
    with pytest.raises(ZeroVector):
        doubled_branches(model, theta, 0.0, 1e-2)


def test_branch_mean_reproduces_generator_action():
    me = eternally_nm()
    model = gksl_to_doubled(me)
    t, dt = 2.0, 1e-3  # dephasing rate is negative here
    rng = np.random.default_rng(5)
    psi = haar_state(2, rng)
    rho = np.outer(psi, psi.conj())
    mean = np.zeros((2, 2), complex)
    for b in doubled_branches(model, DoubledState(psi.copy(), psi.copy()), t, dt):
        mean += b.probability * np.outer(b.state.phi, b.state.psi.conj())
    target = rho + dt * lindblad_apply(me, t, rho)
    assert np.max(np.abs(mean - target)) < 10.0 * dt**2


def test_step_selects_deterministic_near_one():
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")])
    model = gksl_to_doubled(me)
    theta = DoubledState(KET1.copy(), KET1.copy())
    state, event = doubled_step(model, theta, 0.0, 1e-2, 0.999)
    assert isinstance(event, Deterministic)
    state, event = doubled_step(model, theta, 0.0, 1e-2, 0.0)
    assert isinstance(event, Jump)
    assert abs(state.phi[0]) > 0.9  # decayed to the ground component


def test_chunk_tracks_markovian_oracle():
    me = spontaneous_emission(omega0=1.0, gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    n = 1500
    rho_sum, counts, diag, abort = run_chunk(me, PLUS, grid, idx0=0, n=n, seed=31)
    assert abort is None
    assert counts["jump"] > 0
    assert diag["theta_norm2_sum"][0] == pytest.approx(2.0 * n)
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    # raw |phi><psi| means need hermitization before comparing
    dists = []
    for k in range(grid.n_steps + 1):
        est = rho_sum[k] / n
        est = 0.5 * (est + est.conj().T)
        dists.append(trace_distance(est, oracle.states[k]))
    assert max(dists) < 0.1


def test_chunk_is_reproducible():
    me = eternally_nm()
    grid = TimeGrid(0.0, 0.5, 1e-2)
    a = run_chunk(me, PLUS, grid, idx0=7, n=40, seed=5)[0]
    b = run_chunk(me, PLUS, grid, idx0=7, n=40, seed=5)[0]
    assert np.array_equal(a, b)


def test_pair_sums_and_norm_tally_keep_each_slice_bits():
    """The run_menus hooks of the doubled runner take a stack of batches and
    give each batch the bytes of its own 2-D reduction."""
    gen = np.random.default_rng(13)
    for batches, n in ((3, 51), (17, 50), (2, 9000)):
        rows = signed_zero_rows(gen, (batches, n, 4))
        pairs = np.array([np.einsum("ni,nj->ij", r[:, :2], np.conj(r[:, 2:])) for r in rows])
        norms = np.array([np.einsum("ni,ni->n", r, np.conj(r)).real.sum() for r in rows])
        assert _pair_outer(rows).tobytes() == pairs.tobytes()
        assert _norm2_sums(rows).tobytes() == norms.tobytes()
