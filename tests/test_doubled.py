"""Pair-of-vectors unraveling: signed factorization and weighted estimator."""

import numpy as np
import pytest

from test_linalg import signed_zero_rows
from unravel.doubled import (
    _norm2_sums,
    _pair_outer,
    DoubledState,
    doubled_branches,
    doubled_factors,
    doubled_step,
    run_chunk,
)
from unravel.errors import ZeroVector
from unravel.linalg import haar_state, trace_distance
from unravel.master_equation import lindblad_apply, master_equation
from unravel.models import KET1, PLUS, SIGMA_MINUS, SIGMA_Z, eternally_nm, spontaneous_emission
from unravel.outcomes import Deterministic, Jump
from unravel.propagate import TimeGrid, propagate


def test_sign_of_negative_rate_lands_on_second_factor():
    me = eternally_nm()
    t = 1.0
    f = doubled_factors(me.at(t))
    gz = -0.5 * np.tanh(t)
    root = np.sqrt(abs(gz))
    assert np.allclose(f.cs[2], root * SIGMA_Z)
    assert np.allclose(f.ds[2], -root * SIGMA_Z)
    # unit-rate raising channel keeps both factors equal
    assert np.array_equal(f.cs[0], f.ds[0])
    # channel by channel: C = sqrt|gamma| L and D = sign(gamma) sqrt|gamma| L,
    # the drift blocks A = B = -iH - G_L/2
    snap = me.at(t)
    for i, (g, lop) in enumerate(zip(snap.gammas, snap.ls)):
        assert f.cs[i].tobytes() == (np.sqrt(abs(g)) * lop).tobytes()
        assert f.ds[i].tobytes() == (np.copysign(1.0, g) * np.sqrt(abs(g)) * lop).tobytes()
    drift = -1j * snap.h - 0.5 * snap.gamma_l
    assert f.a.tobytes() == drift.tobytes() and f.b.tobytes() == drift.tobytes()


def test_jump_probability_from_excited_state():
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 0.8, "down")])
    theta = DoubledState(KET1.copy(), KET1.copy())
    branches = doubled_branches(me, theta, 0.0, 1e-2)
    assert len(branches) == 2
    jump, det = branches
    assert isinstance(jump.event, Jump) and jump.event.channel == 0
    # q = (0.8 + 0.8)/2 = 0.8, so p = 0.8 dt
    assert jump.probability == pytest.approx(0.8e-2)
    assert isinstance(det.event, Deterministic)
    assert jump.probability + det.probability == pytest.approx(1.0)


def test_jump_preserves_joint_norm():
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 0.8, "down")])
    rng = np.random.default_rng(17)
    theta = DoubledState(2.0 * haar_state(2, rng), 0.5 * haar_state(2, rng))
    before = theta.norm2
    jump = doubled_branches(me, theta, 0.0, 1e-2)[0]
    assert jump.state.norm2 == pytest.approx(before, rel=1e-12)


def test_zero_joint_norm_rejected():
    theta = DoubledState(np.zeros(2, complex), np.zeros(2, complex))
    with pytest.raises(ZeroVector):
        doubled_branches(eternally_nm(), theta, 0.0, 1e-2)


def test_branch_mean_reproduces_generator_action():
    me = eternally_nm()
    t, dt = 2.0, 1e-3  # dephasing rate is negative here
    rng = np.random.default_rng(5)
    psi = haar_state(2, rng)
    rho = np.outer(psi, psi.conj())
    mean = np.zeros((2, 2), complex)
    for b in doubled_branches(me, DoubledState(psi.copy(), psi.copy()), t, dt):
        mean += b.probability * np.outer(b.state.phi, b.state.psi.conj())
    target = rho + dt * lindblad_apply(me, t, rho)
    assert np.max(np.abs(mean - target)) < 10.0 * dt**2


def test_step_selects_deterministic_near_one():
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")])
    theta = DoubledState(KET1.copy(), KET1.copy())
    state, event = doubled_step(me, theta, 0.0, 1e-2, 0.999)
    assert isinstance(event, Deterministic)
    state, event = doubled_step(me, theta, 0.0, 1e-2, 0.0)
    assert isinstance(event, Jump)
    assert abs(state.phi[0]) > 0.9  # decayed to the ground component


def test_chunk_tracks_markovian_oracle():
    me = spontaneous_emission(omega0=1.0, gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    n = 1500
    rho_sum, counts, diag, abort = run_chunk(me, PLUS, grid, batch0=0, n=n, seed=31)
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
    a = run_chunk(me, PLUS, grid, batch0=7, n=40, seed=5)[0]
    b = run_chunk(me, PLUS, grid, batch0=7, n=40, seed=5)[0]
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
