"""First-order jump stepper: branch law, jump statistics, and the agreement of
every menu method's batched step with its one-row *_step."""

import numpy as np
import pytest

from branch_tools import one_step_cases, sample_points
from unravel.cloning import clone_menu, cloning_step
from unravel.doubled import DoubledState, doubled_menu, doubled_step, gksl_to_doubled
from unravel.errors import NegativeRate, StepTooLarge
from unravel.linalg import trace_distance
from unravel.master_equation import master_equation
from unravel.mcwf import first_jump_times, mcwf_branches, mcwf_menu, mcwf_step, run_chunk
from unravel.models import KET0, KET1, SIGMA_MINUS, SIGMA_Z, eternally_nm, spontaneous_emission
from unravel.outcomes import Clone, Deterministic, Destroy, Jump, take_step
from unravel.propagate import TimeGrid, propagate
from unravel.rate_operators import time_dependent_gauge, w_matching_gauge
from unravel.roqj import ro_menu, roqj_step, w_menu, wroqj_step
from unravel.weighted import (
    PlqtTrajectory,
    WeightedTrajectory,
    default_rate_policy,
    im_menu,
    im_step,
    plqt_menu,
    plqt_step,
)

GAMMA = 0.8
STEP_DT = 1e-2


def test_branch_law_from_excited_state():
    me = spontaneous_emission(gamma=GAMMA)
    dt = 1e-2
    branches = mcwf_branches(me, KET1, 0.0, dt)
    assert len(branches) == 2
    jump, det = branches
    assert isinstance(jump.event, Jump) and jump.event.channel == 0
    assert jump.probability == pytest.approx(GAMMA * dt)
    assert np.allclose(jump.state, KET0)
    assert isinstance(det.event, Deterministic)
    assert det.probability == pytest.approx(1.0 - GAMMA * dt)
    # K|1> is parallel to |1>, so the no-jump state stays put
    assert abs(np.vdot(det.state, KET1)) == pytest.approx(1.0)


def test_ground_state_never_jumps():
    me = spontaneous_emission(gamma=GAMMA)
    branches = mcwf_branches(me, KET0, 0.0, 1e-2)
    assert branches[0].probability == 0.0
    out = mcwf_step(me, KET0, 0.0, 1e-2, u=0.999)
    assert np.allclose(out.state, KET0)


def test_step_selection_uses_uniform():
    me = spontaneous_emission(gamma=GAMMA)
    dt = 1e-2
    jumped = mcwf_step(me, KET1, 0.0, dt, u=0.5 * GAMMA * dt)
    assert isinstance(jumped.event, Jump)
    stayed = mcwf_step(me, KET1, 0.0, dt, u=2.0 * GAMMA * dt)
    assert isinstance(stayed.event, Deterministic)


def test_negative_rate_refused():
    me = eternally_nm()
    with pytest.raises(NegativeRate):
        mcwf_branches(me, KET1, 1.0, 1e-2)


def test_oversized_step_refused():
    me = spontaneous_emission(gamma=1.0)
    with pytest.raises(StepTooLarge):
        mcwf_branches(me, KET1, 0.0, dt=1.5)


def _mcwf_agreement():
    me = master_equation(
        2,
        0.3 * np.array([[0.0, 1.0], [1.0, 0.0]]),
        [(SIGMA_MINUS, GAMMA, "down"), (np.diag([-1.0, 1.0]).astype(complex), 0.2, "z")],
    )
    points = [(s, 0.4) for s in (KET1, (KET0 + 1j * KET1) / np.sqrt(2.0), KET0)]

    def scalar(psi, t, u):
        return mcwf_step(me, psi, t, STEP_DT, u).state, 1.0, 1

    return me, mcwf_menu, lambda psi: psi, scalar, points


def _roqj_agreement(label, gauge):
    me = eternally_nm()
    g = gauge(me)

    def kernel(snap, rows, dt):
        return w_menu(snap, rows, dt) if g is None else ro_menu(snap, rows, dt, g)

    def scalar(psi, t, u):
        if g is None:
            return wroqj_step(me, psi, t, STEP_DT, u).state, 1.0, 1
        return roqj_step(me, psi, t, STEP_DT, g, u).state, 1.0, 1

    return me, kernel, lambda psi: psi, scalar, _points(label)


def _im_agreement():
    me, policy = eternally_nm(), default_rate_policy()

    def scalar(psi, t, u):
        out = im_step(WeightedTrajectory(psi, 1.0), me, t, STEP_DT, policy, u)
        return out.state, out.weight, 1

    def kernel(snap, rows, dt):
        return im_menu(snap, rows, dt, policy)

    return me, kernel, lambda psi: psi, scalar, _points("im:eternally_nm")


def _plqt_agreement():
    me = eternally_nm()

    def scalar(psi, t, u):
        out = plqt_step(PlqtTrajectory(psi, 1, 1.0), me, t, STEP_DT, u)
        return out.state, out.sign * out.magnitude, 1

    return me, plqt_menu, lambda psi: psi, scalar, _points("plqt:eternally_nm")


def _doubled_agreement():
    me = eternally_nm()
    model = gksl_to_doubled(me)

    def scalar(psi, t, u):
        state, _event = doubled_step(model, DoubledState(psi, psi), t, STEP_DT, u)
        return np.concatenate([state.phi, state.psi]), 1.0, 1

    return (
        me,
        lambda snap, rows, dt: doubled_menu(model, snap.t, rows, dt),
        lambda psi: np.concatenate([psi, psi]),
        scalar,
        _points("doubled:eternally_nm"),
    )


def _cloning_agreement():
    # a trace sink that grows the excited share and shrinks the ground share,
    # so states on either side of the equator clone or destroy
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    me = master_equation(
        2,
        0.3 * np.array([[0.0, 1.0], [1.0, 0.0]]),
        [(SIGMA_MINUS, 1.0, "down")],
        trace_sink=lambda t: gamma_l - 0.4 * np.cos(t) * SIGMA_Z,
    )

    def scalar(psi, t, u):
        out = cloning_step(psi, me, t, STEP_DT, u)
        return out.state, 1.0, {Clone: 2, Destroy: 0}.get(type(out.event), 1)

    return me, clone_menu, lambda psi: psi, scalar, _points("cloning:spontaneous_emission")


def _points(label, n=4):
    """n states at one time inside the window the unbiasedness suite uses."""
    case = next(c for c in one_step_cases() if c.label == label)
    points = sample_points(case, n, seed=17)
    return [(psi, points[0][1]) for psi, _t in points]


AGREEMENT = {
    "mcwf": _mcwf_agreement,
    "wroqj": lambda: _roqj_agreement("wroqj:eternally_nm", lambda me: None),
    "psi_roqj[w_matching]": lambda: _roqj_agreement("psi_roqj[w_matching]:eternally_nm", w_matching_gauge),
    "rroqj": lambda: _roqj_agreement(
        "rroqj:eternally_nm", lambda me: time_dependent_gauge(lambda t: -0.5 * np.tanh(t) * np.eye(2))
    ),
    "im": _im_agreement,
    "plqt": _plqt_agreement,
    "doubled": _doubled_agreement,
    "cloning": _cloning_agreement,
}


def _aimed_uniforms(menu):
    """Each row draws the middle of a branch with positive probability,
    preferring branches no earlier row took, so jumps, population events
    and drifts are all exercised."""
    n, nb = menu.probs.shape
    edges = np.concatenate([np.zeros((n, 1)), np.cumsum(menu.probs, axis=1), np.ones((n, 1))], axis=1)
    us = np.empty(n)
    taken = set()
    for r in range(n):
        widths = np.diff(edges[r])
        live = [b for b in range(nb + 1) if widths[b] > 0.0]
        b = next((b for b in live if b not in taken), live[r % len(live)])
        taken.add(b)
        us[r] = edges[r, b] + 0.5 * widths[b]
    return us


@pytest.mark.parametrize("kind", list(AGREEMENT))
def test_vectorized_step_matches_scalar(kind):
    # the driver's one step on several rows against each row's *_step
    me, kernel, row_of, scalar, points = AGREEMENT[kind]()
    t = points[0][1]
    menu = kernel(me.at(t), np.stack([row_of(psi) for psi, _t in points]), STEP_DT)
    us = _aimed_uniforms(menu)
    step = take_step(menu, us, t)
    assert np.any(step.choice < menu.probs.shape[1]) and np.any(step.choice == menu.probs.shape[1])
    for i, (psi, _t) in enumerate(points):
        row, weight, copies = scalar(psi, t, us[i])
        assert np.allclose(step.rows[i], row, atol=1e-12)
        assert step.factors[i] == pytest.approx(weight, abs=1e-12)
        assert step.copies[i] == copies


def test_chunk_reproduces_master_equation():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    n = 600
    rho_sum, counts, _diag, abort = run_chunk(me, KET1, grid, 0, n, seed=3)
    assert abort is None
    assert counts["jump"] + counts["deterministic"] == n * grid.n_steps
    oracle = propagate(me, np.outer(KET1, KET1.conj()), grid)
    dists = [trace_distance(rho_sum[k] / n, oracle.states[k]) for k in range(grid.n_steps + 1)]
    assert max(dists) < 0.08


def test_chunk_abort_reports_step():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    rho_sum, _counts, _diag, abort = run_chunk(me, KET1, grid, 0, 10, seed=1)
    assert abort is not None
    err, k = abort
    assert isinstance(err, NegativeRate)
    assert k == 1  # g_z(0) = 0 lets the first step through


def test_first_jump_times_exponential_law():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 10.0, 1e-3)
    times = first_jump_times(me, KET1, grid, n=3000, seed=8)
    assert np.all(np.isfinite(times[times < np.inf]))
    finite = times[np.isfinite(times)]
    assert len(finite) > 2900
    assert np.mean(finite) == pytest.approx(1.0, abs=0.08)
    # survival beyond t: e^{-t}
    assert np.mean(times > 0.7) == pytest.approx(np.exp(-0.7), abs=0.03)


def test_first_jump_times_reproducible():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    a = first_jump_times(me, KET1, grid, 50, seed=5)
    b = first_jump_times(me, KET1, grid, 50, seed=5)
    assert np.array_equal(a, b)
