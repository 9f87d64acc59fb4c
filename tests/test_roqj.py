"""Rate-operator jumps: spectra, gauge freedom, positivity guards.

The W operator lives on the orthogonal complement of the current state;
gauged variants add a vector phi that reshuffles jump and drift pieces
without touching the one-step law.
"""

import numpy as np
import pytest

from unravel.engine import method_id, run_ensemble
from unravel.errors import NegativeROEigenvalue, NegativeWEigenvalue
from unravel.linalg import (
    _eigh_lapack,
    _order_ties,
    complement_batch,
    haar_state,
    hermitize,
    phase_fix_columns,
    trace_distance,
)
from unravel.master_equation import master_equation
from unravel.models import (
    KET0,
    KET1,
    MINUS,
    PLUS,
    SIGMA_Z,
    eternally_nm,
    non_p_divisible,
    spontaneous_emission,
)
from unravel.outcomes import Deterministic, Jump
from unravel.propagate import TimeGrid, propagate
from unravel.rate_operators import (
    _jump_operators,
    gauge_none,
    jump_images,
    ro_spectrum_batch,
    state_dependent_gauge,
    time_dependent_gauge,
    w_matching_gauge,
    w_rate_operator,
    rate_operator,
    w_spectrum_batch,
)
from unravel.roqj import roqj_branches, roqj_step, wroqj_branches, wroqj_step

from branch_tools import calls_per_time, cascade_model, counting_model, run_batches


def test_w_spectrum_pure_dephasing_frozen():
    gz = 0.3
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_Z, gz, "z")])
    spectrum = w_rate_operator(me, 0.0, PLUS)
    # J|+> space: g_z |-><-|, and |-> spans the complement of |+>
    assert spectrum.values.shape == (1,)
    assert spectrum.values[0] == pytest.approx(gz)
    assert abs(np.vdot(spectrum.vectors[:, 0], MINUS)) == pytest.approx(1.0)


def test_w_jump_targets_orthogonal_to_state():
    gen = np.random.default_rng(14)
    me = eternally_nm()
    for _ in range(20):
        psi = haar_state(2, gen)
        t = gen.uniform(0.0, 4.0)
        spectrum = w_rate_operator(me, t, psi)
        overlaps = np.abs(spectrum.vectors.conj().T @ psi)
        assert np.max(overlaps) < 1e-9


def test_wroqj_branches_on_decay_match_plain_jump_law():
    gamma = 0.6
    me = spontaneous_emission(gamma=gamma)
    dt = 1e-2
    branches = wroqj_branches(me, KET1, 0.0, dt)
    jump = [b for b in branches if isinstance(b.event, Jump)]
    det = [b for b in branches if isinstance(b.event, Deterministic)]
    assert len(jump) == 1 and len(det) == 1
    assert jump[0].probability == pytest.approx(gamma * dt)
    assert abs(np.vdot(jump[0].state, KET0)) == pytest.approx(1.0)
    assert abs(np.vdot(det[0].state, KET1)) == pytest.approx(1.0)


def test_gauge_none_menu_is_the_bare_jump_matrix_spectrum():
    gamma = 0.6
    me = spontaneous_emission(gamma=gamma)
    gen = np.random.default_rng(2)
    dt = 1e-3
    for _ in range(10):
        psi = haar_state(2, gen)
        y = me.at(0.3).ls[0] @ psi
        j = gamma * np.outer(y, np.conj(y))
        want = sorted(v for v in np.linalg.eigvalsh(j) if v > 1e-12)
        br = roqj_branches(me, psi, 0.3, dt, gauge_none())
        got = sorted(
            b.probability / dt
            for b in br
            if isinstance(b.event, Jump) and b.probability > 1e-12 * dt
        )
        assert np.allclose(got, want, atol=1e-10)


def test_time_dependent_gauge_equals_state_dependent_with_matching_phi():
    me = eternally_nm()

    def c(t):
        return -0.5 * np.tanh(t) * np.eye(2)

    g_time = time_dependent_gauge(c)
    g_state = state_dependent_gauge(lambda t, psi: c(t) @ psi)
    gen = np.random.default_rng(7)
    dt = 1e-3
    for _ in range(10):
        # equatorial states: the menu this unraveling visits stays positive
        psi = np.array([1.0, np.exp(2j * np.pi * gen.random())]) / np.sqrt(2.0)
        t = gen.uniform(0.1, 3.0)
        bt = roqj_branches(me, psi, t, dt, g_time)
        bs = roqj_branches(me, psi, t, dt, g_state)
        assert len(bt) == len(bs)
        for x, y in zip(bt, bs):
            assert x.probability == pytest.approx(y.probability, abs=1e-12)
            assert abs(np.vdot(x.state, y.state)) == pytest.approx(1.0, abs=1e-9)


def test_w_matching_gauge_reproduces_w_menu():
    # phi = -2 J psi + (<psi|J|psi> + 1) psi makes psi itself an eigenvector
    # (excluded as a self-direction) and leaves the W spectrum on psi-perp
    me = eternally_nm()
    gauge = w_matching_gauge(me)
    gen = np.random.default_rng(19)
    dt = 1e-3
    for _ in range(10):
        psi = haar_state(2, gen)
        t = gen.uniform(0.1, 4.0)
        jumps_w = [b for b in wroqj_branches(me, psi, t, dt) if isinstance(b.event, Jump)]
        jumps_m = [
            b
            for b in roqj_branches(me, psi, t, dt, gauge)
            if isinstance(b.event, Jump) and b.probability > 1e-15
        ]
        pw = sorted(b.probability for b in jumps_w if b.probability > 1e-15)
        pm = sorted(b.probability for b in jumps_m)
        assert np.allclose(pw, pm, atol=1e-10)


def _w_block(snap, states):
    """Q^dag J Q on psi^perp from the jump operator J, and the basis Q, one
    (d, d-1) matrix per state column."""
    qs = np.ascontiguousarray(complement_batch(states).transpose(2, 1, 0))
    j = _jump_operators(snap, jump_images(snap, states))
    return hermitize(np.einsum("nki,nkl,nlj->nij", np.conj(qs), j, qs)), qs


def _haar_cols(dim, count, seed):
    """count Haar-random states as the columns (dim, count)."""
    gen = np.random.default_rng(seed)
    return np.stack([haar_state(dim, gen) for _ in range(count)], axis=1)


def test_w_values_at_d2_match_the_jump_operator_form():
    for me, t in ((eternally_nm(), 1.3), (non_p_divisible(kappa=0.25), 1.5), (spontaneous_emission(), 0.0)):
        snap = me.at(t)
        states = _haar_cols(2, 300, 31)
        vals, phis = w_spectrum_batch(snap, states)
        block, _qs = _w_block(snap, states)
        assert vals.shape == (1, 300) and phis.shape == (1, 2, 300)
        assert np.allclose(vals[0], block[:, 0, 0].real, rtol=1e-14, atol=1e-15)
        assert np.array_equal(phis, complement_batch(states))


def test_general_w_path_is_the_jump_operator_spectrum():
    """d > 2 keeps J, the block on psi^perp and its eigendecomposition: a
    ququart's 3 x 3 block through LAPACK bit for bit, a qutrit's 2 x 2 block
    through the closed form."""
    for dim in (3, 4):
        snap = cascade_model(dim).at(0.2)
        states = _haar_cols(dim, 100, 32)
        vals, phis = w_spectrum_batch(snap, states)
        vals, phis = vals.T, phis.transpose(2, 1, 0)  # one matrix per state
        block, qs = _w_block(snap, states)
        ref_vals, small = _eigh_lapack(block)
        _order_ties(ref_vals, small)
        ref_phis = phase_fix_columns(np.einsum("nkp,npj->nkj", qs, small))
        if dim == 4:
            assert np.array_equal(vals, ref_vals) and np.array_equal(phis, ref_phis)
        assert np.allclose(vals, ref_vals, rtol=0.0, atol=1e-15)
        assert np.allclose(phis, ref_phis, rtol=0.0, atol=1e-14)


def test_qutrit_rate_operator_takes_the_general_eigh():
    snap = cascade_model(3).at(0.2)
    states = _haar_cols(3, 100, 33)
    phis = 0.3 * _haar_cols(3, 100, 34)
    vals, vecs = ro_spectrum_batch(snap, states, phis)
    r = _jump_operators(snap, jump_images(snap, states))
    cross = 0.5 * np.einsum("in,jn->nij", phis, np.conj(states))
    r += cross + np.conj(np.swapaxes(cross, 1, 2))
    ref_vals, ref_vecs = _eigh_lapack(hermitize(hermitize(r)))
    _order_ties(ref_vals, ref_vecs)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def test_negative_w_eigenvalue_raises_where_p_divisibility_fails():
    me = non_p_divisible(kappa=0.25)
    # at t = 1.5 the raising/lowering rates are negative; from |0> the only
    # jump direction is |1> with rate g_plus < 0
    with pytest.raises(NegativeWEigenvalue):
        wroqj_step(me, KET0, 1.5, 1e-2, u=0.5)


def test_negative_ro_eigenvalue_with_trivial_gauge():
    me = non_p_divisible(kappa=0.25)
    with pytest.raises(NegativeROEigenvalue):
        roqj_step(me, KET0, 1.5, 1e-2, gauge_none(), u=0.5)


def test_rate_operator_eigendecomposition_is_consistent():
    me = eternally_nm()
    gauge = w_matching_gauge(me)
    psi = haar_state(2, np.random.default_rng(23))
    spectrum = rate_operator(me, 1.0, psi, gauge)
    # full-space operator: d eigenpairs, orthonormal
    assert spectrum.values.shape == (2,)
    v = spectrum.vectors
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)


def test_chunks_track_oracle_and_each_other():
    me = eternally_nm()
    grid = TimeGrid(0.0, 2.0, 1e-2)
    n = 500
    rho_w, _c1, _d1, abort_w = run_batches("wroqj", me, PLUS, grid, 0, [n], 6)
    assert abort_w is None
    gauge = time_dependent_gauge(lambda t: -0.5 * np.tanh(t) * np.eye(2))
    rho_r, _c2, _d2, abort_r = run_batches(method_id("rroqj", gauge=gauge), me, PLUS, grid, 0, [n], 6)
    assert abort_r is None
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    for series in (rho_w[0], rho_r[0]):
        dists = [trace_distance(series[k] / n, oracle.states[k]) for k in range(grid.n_steps + 1)]
        assert max(dists) < 0.09


def test_w_matching_gauge_reads_the_step_snapshot():
    """The batched w_matching gauge takes J from the kernel's snapshot, so
    an ensemble of 20 batches calls the model's pieces once per grid time."""
    me, calls = counting_model(eternally_nm())
    grid = TimeGrid(0.0, 0.2, 1e-2)
    method = method_id("psi_roqj", gauge=w_matching_gauge(me))
    run_ensemble(method, me, PLUS, grid, 40, seed=3)
    calls = calls_per_time(calls)
    assert len(calls) == grid.n_steps
    assert max(calls.values()) == 1
