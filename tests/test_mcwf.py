"""First-order jump stepper: branch law, jump statistics, and the agreement of
every menu method's batched step with its one-row *_step."""

import tracemalloc

import numpy as np
import pytest

from branch_tools import one_step_cases, run_batches, sample_points
from test_roqj import _cascade
from unravel.cloning import clone_menu, cloning_step
from unravel.doubled import DoubledState, doubled_factors, doubled_step, factors_menu
from unravel.errors import NegativeRate, StepTooLarge
from unravel.linalg import apply_columns, trace_distance, weighted_outer_sum
from unravel.master_equation import master_equation
from unravel.mcwf import _BLOCK_STEPS, channel_menu, first_jump_times, mcwf_branches, mcwf_menu, mcwf_step
from unravel.models import (
    KET0,
    KET1,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    delayed_negative_phase_covariant,
    eternally_nm,
    spontaneous_emission,
)
from unravel import outcomes
from unravel.outcomes import Clone, Deterministic, Destroy, Jump, batch_runs, jump_rows, row_branches, take_step
from unravel.propagate import TimeGrid, propagate
from unravel.rate_operators import time_dependent_gauge, w_matching_gauge
from unravel.rng import replica_generator
from unravel.roqj import ro_menu, roqj_step, w_menu, wroqj_step
from unravel.tripled import embedded_track
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

    def kernel(snap, cols, dt):
        return w_menu(snap, cols, dt) if g is None else ro_menu(snap, cols, dt, g)

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

    def kernel(snap, cols, dt):
        return im_menu(snap, cols, dt, policy)

    return me, kernel, lambda psi: psi, scalar, _points("im:eternally_nm")


def _plqt_agreement():
    me = eternally_nm()

    def scalar(psi, t, u):
        out = plqt_step(PlqtTrajectory(psi, 1, 1.0), me, t, STEP_DT, u)
        return out.state, out.sign * out.magnitude, 1

    return me, plqt_menu, lambda psi: psi, scalar, _points("plqt:eternally_nm")


def _doubled_agreement():
    me = eternally_nm()

    def scalar(psi, t, u):
        state, _event = doubled_step(me, DoubledState(psi, psi), t, STEP_DT, u)
        return np.concatenate([state.phi, state.psi]), 1.0, 1

    return (
        me,
        # the kernel doubled.run_chunk steps
        lambda snap, cols, dt: factors_menu(doubled_factors(snap), snap.t, cols, dt),
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
    """Each trajectory draws the middle of a branch with positive
    probability, preferring branches no earlier one took, so jumps,
    population events and drifts are all exercised."""
    nb, n = menu.probs.shape
    edges = np.concatenate([np.zeros((n, 1)), np.cumsum(menu.probs.T, axis=1), np.ones((n, 1))], axis=1)
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
    # the driver's one step on several state columns against each state's *_step
    me, kernel, row_of, scalar, points = AGREEMENT[kind]()
    t = points[0][1]
    menu = kernel(me.at(t), np.stack([row_of(psi) for psi, _t in points], axis=1), STEP_DT)
    us = _aimed_uniforms(menu)
    step = take_step(menu, us, t)
    assert np.any(step.choice < len(menu.probs)) and np.any(step.choice == len(menu.probs))
    for i, (psi, _t) in enumerate(points):
        row, weight, copies = scalar(psi, t, us[i])
        assert np.allclose(step.cols[:, i], row, atol=1e-12)
        # a menu without weights or copies leaves them None: 1 each
        assert (1.0 if step.factors is None else step.factors[i]) == pytest.approx(weight, abs=1e-12)
        assert (1 if step.copies is None else step.copies[i]) == copies


@pytest.mark.parametrize(
    "sizes, n_runs",
    [
        ((3, 3, 3), 1),
        ((3, 2), 2),  # a tile of _chunk_sizes: larger batches first
        ((1,), 1),
        (np.array([5, 5, 2]), 2),  # cloning's populations are an int array
        ((2, 5, 5, 2), 3),
        ((2, 0, 0, 3), 3),  # extinct replicas
        ((8193, 8192), 2),  # either side of linalg._EINSUM_PASS
    ],
)
def test_batch_runs_stack_each_batch_as_its_own_columns(sizes, n_runs):
    """batch_runs groups consecutive batches of one size, in order. A run's
    view of a tile's columns (w, n) and weights (n,) holds batch b's own
    columns as slice b, without a copy, and one stacked weighted_outer_sum
    gives each batch the bits of its sum alone; an empty batch sums to 0."""
    gen = np.random.default_rng(4)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    cols = gen.standard_normal((3, bounds[-1])) + 1j * gen.standard_normal((3, bounds[-1]))
    weights = gen.standard_normal(bounds[-1])
    runs = batch_runs(sizes)
    assert len(runs) == n_runs
    batches = range(len(sizes))
    assert [b for run in runs for b in batches[run.batches]] == list(batches)
    for run in runs:
        stack, w = run.view(cols), run.view(weights)
        count, size = run.shape
        assert stack.shape == (count, 3, size) and w.shape == (count, size)
        if size:
            assert np.shares_memory(stack, cols) and np.shares_memory(w, weights)
        sums = weighted_outer_sum(stack, w)
        for j, b in enumerate(batches[run.batches]):
            own = slice(bounds[b], bounds[b + 1])
            assert sizes[b] == size
            assert np.array_equal(stack[j], cols[:, own]) and np.array_equal(w[j], weights[own])
            assert sums[j].tobytes() == weighted_outer_sum(cols[:, own], weights[own]).tobytes()


def test_chunk_reproduces_master_equation():
    me = spontaneous_emission(gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    n = 600
    rho_sum, counts, _diag, abort = run_batches("mcwf", me, KET1, grid, 0, [n], 3)
    assert abort is None
    assert counts["jump"] + counts["deterministic"] == n * grid.n_steps
    oracle = propagate(me, np.outer(KET1, KET1.conj()), grid)
    dists = [trace_distance(rho_sum[0, k] / n, oracle.states[k]) for k in range(grid.n_steps + 1)]
    assert max(dists) < 0.08


def test_chunk_abort_reports_step():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    rho_sum, _counts, _diag, abort = run_batches("mcwf", me, KET1, grid, 0, [10], 1)
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


def test_first_jump_times_refuse_a_negative_rate():
    # delayed_negative's sigma_z rate cos(2t)/2 turns negative after pi/4
    with pytest.raises(NegativeRate) as info:
        first_jump_times(delayed_negative_phase_covariant(), KET1, TimeGrid(0.0, 2.0, 1e-2), 10, seed=1)
    assert info.value.time == pytest.approx(0.79)


def test_first_jump_times_blocks_follow_one_stream():
    # from |1> the no-jump state stays |1>, so every step fires with the same
    # p = gamma dt; 1000 steps span two blocks of draws, and by t = 10 about
    # e^{-1} of the rows never jumped. The draws come from one stream, a
    # (steps, rows still waiting) block at a time
    me = spontaneous_emission(gamma=0.1)
    grid = TimeGrid(0.0, 10.0, 1e-2)
    times = first_jump_times(me, KET1, grid, 200, seed=3)
    assert grid.n_steps > _BLOCK_STEPS
    assert 20 < np.isinf(times).sum() < 180
    assert np.any(times[np.isfinite(times)] > grid.times()[_BLOCK_STEPS])
    p = mcwf_menu(me.at(0.0), KET1[:, None], grid.dt).probs.sum()
    gen, ref = replica_generator(3, 0), np.full(200, np.inf)
    for start in (0, _BLOCK_STEPS):
        waiting = np.nonzero(np.isinf(ref))[0]
        hit = gen.random((min(_BLOCK_STEPS, grid.n_steps - start), len(waiting))) < p
        for col, i in enumerate(waiting):
            if hit[:, col].any():
                ref[i] = grid.times()[start + 1 + np.argmax(hit[:, col])]
    assert np.array_equal(times, ref)


# The kernels hand out raw jump images and finish only the trajectories
# that take them; these are the targets (B, w, n) as the kernels used to
# finish every trajectory.


def _eager_channel_targets(snap, cols):
    ys = apply_columns(snap.ls, cols)
    norms = np.sqrt(np.einsum("ain,ain->an", ys, np.conj(ys)).real)
    return ys / np.where(norms > 0.0, norms, 1.0)[:, None, :]


def _lazy_mcwf():
    me = master_equation(
        2, 0.3 * SIGMA_Z, [(SIGMA_MINUS, GAMMA, "down"), (np.diag([-1.0, 1.0]).astype(complex), 0.2, "z")]
    )
    snap = me.at(0.4)
    return (lambda cols: mcwf_menu(snap, cols, STEP_DT)), (lambda cols: _eager_channel_targets(snap, cols)), 2, 0


def _lazy_cloning():
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    me = master_equation(2, 0.3 * SIGMA_X, [(SIGMA_MINUS, 1.0, "down")], trace_sink=lambda t: gamma_l - 0.4 * SIGMA_Z)
    snap = me.at(0.4)

    def eager(cols):
        # clone and destroy keep the pre-step state exactly (no division)
        return np.concatenate([_eager_channel_targets(snap, cols), cols[None], cols[None]])

    return (lambda cols: clone_menu(snap, cols, STEP_DT)), eager, 2, 0


def _lazy_doubled():
    f = doubled_factors(eternally_nm().at(0.5))

    def eager(cols):
        d = len(cols) // 2
        images = np.concatenate([apply_columns(f.cs, cols[:d]), apply_columns(f.ds, cols[d:])], axis=1)
        jn2 = np.einsum("ain,ain->an", images, np.conj(images)).real
        n2 = np.einsum("in,in->n", cols, np.conj(cols)).real
        return np.sqrt(n2[None, :] / np.where(jn2 > 0.0, jn2, 1.0))[:, None, :] * images

    return (lambda cols: factors_menu(f, 0.5, cols, STEP_DT)), eager, 4, 1  # sigma_+, sigma_-, sigma_z


# kind -> (kernel(cols), eager targets(cols), state width, branch of sigma_-)
LAZY = {"mcwf": _lazy_mcwf, "cloning": _lazy_cloning, "doubled": _lazy_doubled}


def _lazy_cols(width, n=40):
    """Random unit states, plus states with signed zeros and a ground
    state, as the columns (width, n)."""
    gen = np.random.default_rng(31)
    rows = gen.standard_normal((n, width)) + 1j * gen.standard_normal((n, width))
    rows[:4] = 0.0
    rows[:4, -1] = 1.0
    rows[1, 0] = complex(-0.0, 0.0)
    rows[2, 0] = complex(-0.0, -0.0)
    rows[3, 0] = complex(0.0, -0.0)
    rows[4, 1:] = 0.0  # |0> (and psi = 0 for doubled): a zero sigma_- image
    return np.ascontiguousarray((rows / np.linalg.norm(rows, axis=1)[:, None]).T)


@pytest.mark.parametrize("kind", list(LAZY))
def test_taken_targets_equal_the_eagerly_finished_ones(kind):
    menu_of, eager_of, width, _down = LAZY[kind]()
    cols = _lazy_cols(width)
    menu, eager = menu_of(cols), eager_of(cols)
    nb, n = menu.probs.shape
    i, b = np.repeat(np.arange(n), nb), np.tile(np.arange(nb), n)
    assert np.ascontiguousarray(jump_rows(menu, i, b).T).tobytes() == eager[b, :, i].tobytes()
    step = take_step(menu, _aimed_uniforms(menu), 0.4)
    jumped = np.nonzero(step.choice < nb)[0]
    assert len(set(step.choice[jumped])) == nb  # every jump branch was taken
    taken = eager[step.choice[jumped], :, jumped]
    assert np.ascontiguousarray(step.cols[:, jumped].T).tobytes() == taken.tobytes()


@pytest.mark.parametrize("kind", list(LAZY))
def test_row_branches_are_finished_and_zero_images_stay_zero(kind):
    """Jump branches that can be taken land at the norm of the state (the
    joint norm for doubled); a zero image (sigma_- on |0>) is a zero state
    with probability 0."""
    menu_of, _eager_of, width, down = LAZY[kind]()
    cols = _lazy_cols(width)
    for r in (0, 5):
        for br in row_branches(menu_of(cols[:, r : r + 1]), 0.4):
            if br.probability > 0.0 and not isinstance(br.event, Deterministic):
                assert np.linalg.norm(br.state) == pytest.approx(1.0, abs=1e-12)
    ground = row_branches(menu_of(cols[:, 4:5]), 0.4)[down]
    assert ground.probability == 0.0
    assert np.all(ground.state == 0.0)


def test_row_step_leaves_the_branch_list_it_built_unchanged(monkeypatch):
    """``row_step`` builds the branch list, then runs ``take_step`` on the same
    menu, which writes the jumped column into the menu's drift: every state
    of the list it built, the deterministic one too, keeps its bytes."""
    snap = spontaneous_emission().at(0.3)

    def menu():
        return mcwf_menu(snap, np.array([[0.6], [0.8]], dtype=complex), 0.1)

    want = row_branches(menu(), 0.3)
    built = []
    monkeypatch.setattr(outcomes, "row_branches", lambda m, t: built.append(row_branches(m, t)) or built[-1])
    branch = outcomes.row_step(menu(), 0.5 * want[0].probability, 0.3)
    assert isinstance(branch.event, Jump)
    (got,) = built
    assert [b.state.tobytes() for b in got] == [b.state.tobytes() for b in want]
    assert not np.array_equal(got[-1].state, branch.state)


def _unit_cols(width, n, seed=3):
    gen = np.random.default_rng(seed)
    cols = gen.standard_normal((width, n)) + 1j * gen.standard_normal((width, n))
    return cols / np.linalg.norm(cols, axis=0), gen.random(n)


def _peak(kernel, snap, cols, u):
    """The ``tracemalloc`` peak of one ``kernel`` call and ``take_step``,
    and the menu."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        menu = kernel(snap, cols, STEP_DT)
        take_step(menu, u, snap.t)
        return tracemalloc.get_traced_memory()[1] - base, menu
    finally:
        tracemalloc.stop()


def test_channel_menu_peak_memory_stays_near_its_targets():
    """On 1000 states of tripled's width (3d = 6, 4m = 12 channels) one
    ``channel_menu`` and ``take_step`` hold little beyond the menu's own jump
    images (``tracemalloc`` peak): a conjugate copy of the image stack alone
    would double the peak."""
    snap = embedded_track(eternally_nm(), np.array([0.5]))[0]
    assert snap.ls.shape == (12, 6, 6)
    peak, menu = _peak(channel_menu, snap, *_unit_cols(6, 1000))
    targets = menu.targets.nbytes
    assert targets == 12 * 1000 * 6 * 16
    assert peak < 1.5 * targets, peak / targets


def test_factors_menu_peak_memory_stays_near_its_targets():
    """On 2000 states of doubled's width (2d = 4, m = 3 channels) one
    ``factors_menu`` and ``take_step`` hold about twice the menu's jump
    images (``tracemalloc`` peak): the drift's sigma term as one broadcast
    product ``sigma * cols`` would add a temporary as large as the drift
    (2.5 times)."""
    snap = eternally_nm().track(np.array([0.5]))[0]
    factors = doubled_factors(snap)
    peak, menu = _peak(lambda snap, cols, dt: factors_menu(factors, snap.t, cols, dt), snap, *_unit_cols(4, 2000))
    targets = menu.targets.nbytes
    assert targets == 3 * 2000 * 4 * 16
    assert peak < 2.25 * targets, peak / targets


@pytest.mark.parametrize("dim, bound", [(2, 3.75), (4, 8.5)])
def test_w_menu_peak_memory_stays_near_its_images(dim, bound):
    """On 2000 states one ``w_menu`` and ``take_step`` hold a few times the
    stack of jump images L_a psi (``tracemalloc`` peak, in units of that
    stack): 3.4 at d = 2 (eternally_nm, three channels: the complements, the
    drift and its norm), 8.0 on the ququart cascade (three channels: J and
    the 3 x 3 W blocks per state). A conjugate or transposed copy of the
    image stack adds 1, one of the J stack 1.3."""
    snap = eternally_nm().at(0.5) if dim == 2 else _cascade(4).at(0.2)
    images = len(snap.ls) * dim * 2000 * 16
    peak, menu = _peak(w_menu, snap, *_unit_cols(dim, 2000))
    assert menu.targets.shape == (dim - 1, dim, 2000)
    assert peak < bound * images, peak / images


def test_clone_menu_peak_memory_stays_near_its_targets():
    """On 2000 states one ``clone_menu`` and ``take_step`` hold 2.3 times
    the menu's targets (``tracemalloc`` peak): the channel images and the
    two population copies of the states, which the menu's one concatenated
    stack holds, plus the channel menu's drift; a second copy of the
    targets adds 1."""
    snap = _cloning_agreement()[0].at(0.5)
    peak, menu = _peak(clone_menu, snap, *_unit_cols(2, 2000))
    targets = menu.targets.nbytes
    assert targets == 3 * 2 * 2000 * 16
    assert peak < 2.5 * targets, peak / targets
