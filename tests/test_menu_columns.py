"""Every menu kernel gives a column the same bits whatever columns share its
array: a stack of columns, each column alone and any subset of them get one
menu per column. ``outcomes.run_menus`` rests on this, since it steps the
distinct states of a tile, not its trajectories; the driver tests below pin
which states its kernel sees."""

import numpy as np
import pytest

from branch_tools import dense_model
from unravel.cloning import clone_menu
from unravel.doubled import doubled_factors, factors_menu
from unravel import outcomes
from unravel.master_equation import master_equation
from unravel.mcwf import mcwf_menu
from unravel.models import KET0, PLUS, SIGMA_MINUS, spontaneous_emission
from unravel.outcomes import Menu, jump_rows, run_menus
from unravel.propagate import TimeGrid
from unravel.rate_operators import time_dependent_gauge, w_matching_gauge
from unravel.roqj import ro_menu, w_menu
from unravel.tripled import embedded_track
from unravel.weighted import default_rate_policy, im_menu, plqt_menu

T, DT = 0.3, 0.05
SIGNED = (1.0, -1.0, 1.0)  # a negative rate for the weighted and pair methods


def _policy_im(snap, cols, dt):
    return im_menu(snap, cols, dt, default_rate_policy())


def _doubled(snap, cols, dt):
    return factors_menu(doubled_factors(snap), snap.t, cols, dt)


def _psi_roqj(snap, cols, dt):
    return ro_menu(snap, cols, dt, w_matching_gauge(None))


def _rroqj(snap, cols, dt):
    return ro_menu(snap, cols, dt, time_dependent_gauge(0.5 * np.eye(len(cols))))


# kind -> (kernel, snapshot of a dense model of dimension d with m channels,
# width of the stepped state in d's)
KERNELS = {
    "mcwf": (mcwf_menu, lambda d, m: dense_model(d, m).at(T), 1),
    "im": (_policy_im, lambda d, m: dense_model(d, m, SIGNED).at(T), 1),
    "plqt": (plqt_menu, lambda d, m: dense_model(d, m, SIGNED).at(T), 1),
    "doubled": (_doubled, lambda d, m: dense_model(d, m, SIGNED).at(T), 2),
    "tripled": (mcwf_menu, lambda d, m: embedded_track(dense_model(d, m, SIGNED), np.array([T]))[0], 3),
    "wroqj": (w_menu, lambda d, m: dense_model(d, m).at(T), 1),
    "psi_roqj": (_psi_roqj, lambda d, m: dense_model(d, m).at(T), 1),
    "rroqj": (_rroqj, lambda d, m: dense_model(d, m).at(T), 1),
    "cloning": (clone_menu, lambda d, m: dense_model(d, m, sink=0.4).at(T), 1),
}
# (d, channels) per kind: state widths 2 to 16, and 9 channels at d = 2
CASES = [(kind, d, 3) for kind in ("mcwf", "im", "plqt", "wroqj", "psi_roqj", "rroqj", "cloning") for d in (2, 3, 8, 9, 16)]
CASES += [("doubled", d, 3) for d in (2, 4, 8)] + [("tripled", d, 3) for d in (2, 3, 5)]
CASES += [(kind, 2, 9) for kind in KERNELS]
SUBSETS = [[0, 4], [2, 3, 9], [1, 5, 6, 7, 8], list(range(1, 10)), list(range(11))[::-1]]


def _per_column(menu, i):
    """The bytes of column i's jump probabilities, finished jump targets,
    drift and no-jump factor."""
    nb = len(menu.probs)
    parts = [menu.probs[:, i], jump_rows(menu, np.full(nb, i), np.arange(nb)), menu.drift[:, i]]
    if menu.det_factors is not None:
        parts.append(menu.det_factors[i])
    return [np.ascontiguousarray(p).tobytes() for p in parts]


@pytest.mark.parametrize("kind, dim, channels", CASES)
def test_a_kernel_gives_each_column_its_own_bits(kind, dim, channels):
    kernel, snap_of, blocks = KERNELS[kind]
    snap = snap_of(dim, channels)
    width = blocks * dim
    gen = np.random.default_rng(7)
    cols = gen.standard_normal((width, 11)) + 1j * gen.standard_normal((width, 11))
    cols = np.ascontiguousarray(cols / np.linalg.norm(cols, axis=0))
    whole = kernel(snap, cols, DT)
    assert whole.probs.any()
    for sub in [[i] for i in range(11)] + SUBSETS:
        part = kernel(snap, np.ascontiguousarray(cols[:, sub]), DT)
        for j, i in enumerate(sub):
            assert _per_column(part, j) == _per_column(whole, i), (sub, i)


def test_run_menus_never_steps_a_state_that_no_trajectory_holds():
    """Every trajectory leaves psi0, a sentinel, by a sure jump to |0> at
    step 0, then jumps with probability 1/2 at each step to its state times
    a phase: the kernel never sees the sentinel again, and the run ends with
    every trajectory at |0><0|."""
    sentinel = np.array([0.6, 0.8j])

    def kernel(k, cols, dt):
        if k > 0 and np.any(np.all(cols == sentinel[:, None], axis=0)):
            raise AssertionError(f"the kernel stepped the sentinel at step {k}")
        n = cols.shape[1]
        if k == 0:
            return Menu(np.ones((1, n)), np.repeat(KET0[None, :, None], n, axis=2), cols.copy())
        return Menu(np.full((1, n), 0.5), np.exp(0.3j * k) * cols[None], cols.copy())

    steps, sizes = 12, [40, 39]
    grid = TimeGrid(0.0, steps * 0.1, 0.1)
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")])
    rho_sum, counts, _diag, abort = run_menus(kernel, me, sentinel, grid, 0, sizes, 4, list(range(steps)))
    assert abort is None
    ground = np.diag([1.0, 0.0])
    assert np.allclose(rho_sum[:, 1:], np.array(sizes)[:, None, None, None] * ground, atol=1e-12)
    assert counts["jump"] >= sum(sizes)


@pytest.mark.parametrize("psi0, n", [(KET0, 100), (PLUS, 10**4)], ids=["ground-100", "plus-10000"])
def test_run_menus_steps_one_state_per_shared_history(monkeypatch, psi0, n):
    """mcwf on spontaneous emission: every jump lands on |0>, which never
    jumps again, so a tile's distinct histories are the no-jump one and one
    per step at which some trajectory jumped. From |0> the kernel steps one
    column at every step; from |+> at N = 10^4 at most 1 plus the steps
    with a jump so far."""
    me = spontaneous_emission()
    grid = TimeGrid(0.0, 1.0, 0.01)
    columns, jump_steps = [], []

    def kernel(snap, cols, dt):
        columns.append(cols.shape[1])
        return mcwf_menu(snap, cols, dt)

    def take_step(*args):
        step = outcomes_take_step(*args)
        jump_steps.append(len(step.jumped) > 0)
        return step

    outcomes_take_step = outcomes.take_step
    monkeypatch.setattr(outcomes, "take_step", take_step)
    rho_sum, counts, _diag, abort = run_menus(kernel, me, psi0, grid, 0, [n], 5, me.track(grid.times()[:-1]))
    assert abort is None and len(columns) == grid.n_steps
    if psi0 is KET0:
        assert columns == [1] * grid.n_steps and counts["jump"] == 0
    else:
        assert counts["jump"] > grid.n_steps
        assert all(c <= 1 + sum(jump_steps[:k]) for k, c in enumerate(columns))
