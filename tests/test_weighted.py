"""Weighted unravelings: martingale weights and the sign-bit variant."""

import numpy as np
import pytest

from unravel.errors import InvalidRatePolicy, StepTooLarge
from unravel.linalg import trace_distance
from unravel.master_equation import master_equation
from unravel.mcwf import mcwf_branches
from unravel.models import (
    KET1,
    PLUS,
    SIGMA_MINUS,
    delayed_negative_phase_covariant,
    eternally_nm,
)
from unravel.outcomes import Deterministic, Jump
from unravel.propagate import TimeGrid, propagate
from unravel.weighted import (
    PlqtTrajectory,
    WeightedTrajectory,
    default_rate_policy,
    im_branches,
    im_step,
    plqt_branches,
    plqt_step,
    run_chunk_im,
    run_chunk_plqt,
)

DT = 1e-2


def decay(gamma):
    return master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, gamma, "down")])


def test_rate_policy_floors_small_rates():
    policy = default_rate_policy(r_min=0.05)
    assert np.allclose(policy(np.array([1.0, -0.3, 0.01])), [1.0, 0.3, 0.05])


def test_rate_policy_rejects_nonpositive_floor():
    with pytest.raises(InvalidRatePolicy):
        default_rate_policy(0.0)
    with pytest.raises(InvalidRatePolicy):
        default_rate_policy(-1.0)


def test_bad_policy_output_rejected():
    wt = WeightedTrajectory(KET1.copy(), 1.0)
    with pytest.raises(InvalidRatePolicy):
        im_branches(decay(1.0), wt, 0.0, DT, lambda g: np.zeros_like(g))
    with pytest.raises(InvalidRatePolicy):
        im_branches(decay(1.0), wt, 0.0, DT, lambda g: np.ones(3))


def test_matched_sampling_rate_reduces_to_plain_branches():
    me = decay(0.8)
    wt = WeightedTrajectory(KET1.copy(), 1.0)
    weighted = im_branches(me, wt, 0.0, DT, lambda g: np.abs(g))
    plain = mcwf_branches(me, KET1, 0.0, DT)
    assert len(weighted) == len(plain) == 2
    for wb, pb in zip(weighted, plain):
        assert wb.probability == pytest.approx(pb.probability)
        assert np.allclose(wb.state, pb.state)
        assert wb.weight_factor == pytest.approx(1.0)


def test_negative_rate_jump_carries_minus_one():
    me = decay(-0.5)
    wt = WeightedTrajectory(KET1.copy(), 1.0)
    jump, det = im_branches(me, wt, 0.0, DT, default_rate_policy(0.5))
    assert jump.probability == pytest.approx(0.5 * DT)  # fires at r, not gamma
    assert jump.weight_factor == pytest.approx(-1.0)
    # det factor 1 - (gamma - r) <L'L> dt with <L'L> = 1 from the excited state
    assert det.weight_factor == pytest.approx(1.0 + DT)
    stepped = im_step(wt, me, 0.0, DT, default_rate_policy(0.5), u=0.0)
    assert stepped.weight == pytest.approx(-1.0)


def test_sign_bit_lives_on_the_event():
    me = decay(-0.5)
    wt = PlqtTrajectory(KET1.copy(), 1, 1.0)
    jump, det = plqt_branches(me, wt, 0.0, DT)
    assert isinstance(jump.event, Jump) and jump.event.sign == -1
    assert jump.weight_factor == pytest.approx(1.0)  # magnitude untouched by jumps
    assert jump.probability == pytest.approx(0.5 * DT)
    assert isinstance(det.event, Deterministic)
    assert det.weight_factor == pytest.approx(1.0 + DT)

    flipped = plqt_step(wt, me, 0.0, DT, u=0.0)
    assert flipped.sign == -1 and flipped.magnitude == pytest.approx(1.0)
    assert flipped.weight == pytest.approx(-1.0)
    drifted = plqt_step(wt, me, 0.0, DT, u=0.999)
    assert drifted.sign == 1 and drifted.magnitude == pytest.approx(1.0 + DT)


def test_positive_rates_never_flip():
    me = decay(0.8)
    jump, _det = plqt_branches(me, PlqtTrajectory(KET1.copy(), 1, 1.0), 0.0, DT)
    assert jump.event.sign == 1


def test_oversized_step_rejected():
    wt = WeightedTrajectory(KET1.copy(), 1.0)
    with pytest.raises(StepTooLarge):
        im_branches(decay(1.0), wt, 0.0, 1.5, default_rate_policy())
    with pytest.raises(StepTooLarge):
        plqt_branches(decay(-1.0), PlqtTrajectory(KET1.copy(), 1, 1.0), 0.0, 1.5)


def test_im_chunk_weights_stay_centered_and_track_oracle():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.5, DT)
    n = 3000
    rho_sum, counts, diag, abort = run_chunk_im(me, PLUS, grid, batch0=0, n=n, seed=3)
    assert abort is None
    assert counts["jump"] > 0
    mean_w = diag["weight_sum"] / n
    assert mean_w[0] == 1.0
    assert np.max(np.abs(mean_w - 1.0)) < 0.12  # martingale, noisy at this n
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    dists = []
    for k in range(grid.n_steps + 1):
        est = rho_sum[k] / n
        dists.append(trace_distance(0.5 * (est + est.conj().T), oracle.states[k]))
    assert max(dists) < 0.1


def test_im_chunk_on_positive_model_never_flips():
    me = decay(0.8)
    _rho, _counts, diag, abort = run_chunk_im(me, KET1, TimeGrid(0.0, 1.0, DT), 0, 200, seed=1)
    assert abort is None
    assert diag["sign_flip_steps"] == []


def test_plqt_chunk_flips_only_after_rate_turns_negative():
    me = delayed_negative_phase_covariant()
    grid = TimeGrid(0.0, 1.2, DT)
    n = 3000
    rho_sum, _counts, diag, abort = run_chunk_plqt(me, PLUS, grid, batch0=0, n=n, seed=8)
    assert abort is None
    flips = diag["sign_flip_steps"]
    assert flips, "the negative window must produce sign flips"
    times = grid.times()
    assert all(times[k] > np.pi / 4 for k in flips)  # g_z = cos(2t)/2 < 0 there
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    dists = []
    for k in range(grid.n_steps + 1):
        est = rho_sum[k] / n
        dists.append(trace_distance(0.5 * (est + est.conj().T), oracle.states[k]))
    assert max(dists) < 0.1


def test_chunks_are_reproducible():
    me = eternally_nm()
    grid = TimeGrid(0.0, 0.4, DT)
    a = run_chunk_im(me, PLUS, grid, 5, 30, seed=2)[0]
    b = run_chunk_im(me, PLUS, grid, 5, 30, seed=2)[0]
    assert np.array_equal(a, b)
    c = run_chunk_plqt(me, PLUS, grid, 5, 30, seed=2)[0]
    d = run_chunk_plqt(me, PLUS, grid, 5, 30, seed=2)[0]
    assert np.array_equal(c, d)
