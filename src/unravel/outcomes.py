"""Step outcomes, event records, branch menus and the one step driver.

A "branch" is one possible result of a single time step together with its
exact probability. Every menu method writes its one-step law once, as a
batched kernel ``kernel(snap, cols, dt) -> Menu`` over n trajectories, the
columns of a (w, n) array (trajectory axis last: each product runs over n).
This module turns a menu into the step that runs (``take_step``) and into
the branch list of one (w, 1) column (``row_branches``), whose closed-form
expectation E[w |psi'><psi'|] the tests compare against rho + L[rho] dt.
``run_menus`` drives the step over a whole grid for one tile, for every
menu method: all its batches step together, and batch b draws its uniforms
from its own stream ``rng.replica_generator(seed, b)``, step-major, a few
steps per call. ``batch_runs`` groups a tile's batches into runs of equal
size, and ``BatchRun.view`` gives a run's columns as one (batches, w, size)
stack, reduced each step in one stacked call (``linalg.weighted_outer_sum``)
with the bits of one per batch.
Weighted methods carry a multiplicative weight factor per branch; the
cloning method carries a copy count, with which the driver makes each batch
a population that it resamples on the batch's own stream, one step drawn
per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from .errors import StepTooLarge, UnravelError
from .linalg import weighted_outer_sum
from .rng import replica_generator

__all__ = [
    "Deterministic", "Jump", "ReverseJump", "Clone", "Destroy", "StepOutcome", "Branch", "Menu", "Step",
    "jump_rows", "take_step", "row_branches", "row_step", "event_counts", "batch_runs", "run_menus"
]

# Steps whose uniforms ``run_menus`` draws in one call per batch. A call
# costs about a microsecond and a draw about 6 ns, so a few steps a call
# cost little more than one call for the whole grid, and hold only a few
# uniforms per trajectory.
_DRAW_STEPS = 4
# a population is resampled back to its batch's size when it leaves
# [_RESAMPLE_LO, _RESAMPLE_HI] times that size
_RESAMPLE_LO = 0.5
_RESAMPLE_HI = 2.0


@dataclass(frozen=True)
class Deterministic:
    probability: float = float("nan")


@dataclass(frozen=True)
class Jump:
    channel: int                      # channel index or eigenbranch index
    probability: float = float("nan")
    sign: int = 1                     # PLQT: sign of the rate at the jump


@dataclass(frozen=True)
class ReverseJump:
    source: int
    target: int
    channel: int
    probability: float = float("nan")


@dataclass(frozen=True)
class Clone:
    probability: float = float("nan")


@dataclass(frozen=True)
class Destroy:
    probability: float = float("nan")


@dataclass(frozen=True)
class StepOutcome:
    state: np.ndarray
    event: Deterministic | Jump | ReverseJump | Clone | Destroy


class Branch(NamedTuple):
    probability: float
    state: np.ndarray
    event: object
    weight_factor: float = 1.0
    copies: int = 1


@dataclass(frozen=True)
class Menu:
    """One step's law for n trajectories with B jump branches each.

    ``probs`` (B, n) are the jump probabilities; the deterministic branch
    takes the rest. ``targets`` (B, w, n) are the raw post-jump columns and
    ``drift`` (w, n) the post-step columns when nothing fires. A raw target
    is finished only where taken (``jump_rows``): divided by its entry of
    ``norms`` ((B', n), the first B' <= B branches) or multiplied by its
    entry of ``scales`` ((B, n)). Only weighted methods set ``jump_factors``
    ((B,)) and ``det_factors`` ((n,), the no-jump factor); only cloning sets
    ``copies`` ((B,), the members a branch leaves: 2 clone, 0 destroy), and
    ``run_menus`` then keeps each batch's population (a kernel's menus
    carry copies at every step or at none). ``take_step`` writes its step
    into ``drift`` and ``det_factors``, so a menu is stepped once.
    """

    probs: np.ndarray
    targets: np.ndarray
    drift: np.ndarray
    jump_factors: np.ndarray | None = None
    det_factors: np.ndarray | None = None
    copies: np.ndarray | None = None
    norms: np.ndarray | None = None
    scales: np.ndarray | None = None


class Step(NamedTuple):
    """One step of n trajectories, as ``take_step`` draws it: the weight
    factors only where the menu carries weights, the copies only where it
    carries copies."""

    cols: np.ndarray            # (w, n) post-step states
    choice: np.ndarray          # (n,) branch taken; B is the deterministic branch
    jumped: np.ndarray          # the trajectories that took a jump branch, ascending
    factors: np.ndarray | None  # (n,) weight factor picked up; None without weights
    copies: np.ndarray | None   # (n,) members left behind; None without copies


def _check_total(total: np.ndarray, t: float) -> None:
    """StepTooLarge where a trajectory's jump probabilities sum past 1."""
    if np.any(total > 1.0):
        raise StepTooLarge(
            f"one-step jump probability {total.max():.4g} > 1 at t={t:.6g}; reduce dt", time=t
        )


def jump_rows(menu: Menu, traj: np.ndarray, branches: np.ndarray) -> np.ndarray:
    """The finished targets of jump branch branches[k] of trajectory
    traj[k], as the columns (w, k)."""
    out = menu.targets[branches, :, traj].T
    if menu.scales is not None:
        return menu.scales[branches, traj] * out
    if menu.norms is not None:
        own = branches < menu.norms.shape[0]
        out[:, own] = out[:, own] / menu.norms[branches[own], traj[own]]
    return out


def take_step(menu: Menu, u: np.ndarray, t: float) -> Step:
    """Trajectory i takes the branch whose cumulative interval (kernel order,
    deterministic last) holds u[i]; a zero-probability branch is never taken.
    The step is finished in the menu's own arrays: the jumped columns are
    written into its ``drift`` and their factors into its ``det_factors``."""
    nb, n = menu.probs.shape
    # the cumulative edges a branch at a time, as np.cumsum sums them (it
    # would loop over the trajectories)
    edge, choice = np.zeros(n), np.zeros(n, dtype=np.int64)
    for p in menu.probs:
        edge += p
        choice += u >= edge
    _check_total(edge, t)
    jumped = np.nonzero(choice < nb)[0]
    taken = choice[jumped]
    cols = menu.drift
    cols[:, jumped] = jump_rows(menu, jumped, taken)
    factors = menu.det_factors
    if menu.jump_factors is not None:
        factors = np.ones(n) if factors is None else factors
        factors[jumped] = menu.jump_factors[taken]
    copies = None
    if menu.copies is not None:
        copies = np.ones(n, dtype=np.int64)
        copies[jumped] = menu.copies[taken]
    return Step(cols, choice, jumped, factors, copies)


def row_branches(menu: Menu, t: float) -> list[Branch]:
    """The branch list of trajectory 0, in kernel order with the deterministic
    branch last; population branches are labelled by their copies."""
    _check_total(menu.probs.sum(axis=0), t)
    p = menu.probs[:, 0]
    factors = np.ones(p.shape) if menu.jump_factors is None else menu.jump_factors
    copies = np.ones(p.shape, dtype=np.int64) if menu.copies is None else menu.copies
    states = jump_rows(menu, np.zeros(p.shape, dtype=np.int64), np.arange(p.shape[0]))
    out = []
    for b in range(p.shape[0]):
        pb, c = float(p[b]), int(copies[b])
        event = Jump(b, probability=pb) if c == 1 else Clone(pb) if c == 2 else Destroy(pb)
        out.append(Branch(pb, states[:, b], event, float(factors[b]), c))
    rest = 1.0 - float(p.sum())
    det = 1.0 if menu.det_factors is None else float(menu.det_factors[0])
    # a copy: ``take_step`` writes the jumped columns into the drift
    out.append(Branch(rest, menu.drift[:, 0].copy(), Deterministic(rest), det))
    return out


def row_step(menu: Menu, u: float, t: float) -> Branch:
    """The branch ``take_step`` gives trajectory 0 for the uniform u."""
    return row_branches(menu, t)[int(take_step(menu, np.array([u]), t).choice[0])]


def event_counts(hits: np.ndarray, copies: np.ndarray | None = None) -> dict:
    """Count dict from per-branch hits (deterministic last): ``jump``,
    ``jump_by_channel`` (by jump branch) and ``deterministic``, plus
    ``clone`` and ``destroy`` where branches carry copies."""
    jumps = hits[:-1]
    extra = {}
    if copies is not None:
        extra = {"clone": int(jumps[copies == 2].sum()), "destroy": int(jumps[copies == 0].sum())}
        jumps = jumps[copies == 1]
    return {
        "jump": int(jumps.sum()),
        "jump_by_channel": [int(x) for x in jumps],
        **extra,
        "deterministic": int(hits[-1]),
    }


def _first_error(err: UnravelError, spans, attempt: Callable) -> UnravelError:
    """The error ``attempt(a, b)`` raises on the first span (a, b) that meets
    one, else err: a tile reports what its first failing batch would have
    reported alone (messages quote extremes over the trajectories)."""
    for a, b in spans:
        try:
            attempt(a, b)
        except UnravelError as first:
            return first
    return err


class BatchRun(NamedTuple):
    """Consecutive batches of one size: their indices, their columns and
    (batches, size)."""

    batches: slice
    span: slice
    shape: tuple[int, int]

    def view(self, a: np.ndarray) -> np.ndarray:
        """The run's columns of ``a`` (w, n) or entries of ``a`` (n,) as one
        stack (batches, w, size) or (batches, size), a view."""
        return a[..., self.span].reshape(*a.shape[:-1], *self.shape).swapaxes(0, -2)


def batch_runs(sizes) -> list[BatchRun]:
    """The consecutive batches of the given sizes grouped into runs of equal
    size. ``engine._chunk_sizes`` puts a tile's larger batches first: at most
    two runs."""
    runs, batch, row = [], 0, 0
    for size, group in groupby(int(s) for s in sizes):
        count = len(list(group))
        runs.append(BatchRun(slice(batch, batch + count), slice(row, row + count * size), (count, size)))
        batch, row = batch + count, row + count * size
    return runs


def run_menus(
    kernel: Callable,
    me,
    psi0: np.ndarray,
    grid,
    batch0: int,
    sizes,
    seed: int,
    track,
    outer: Callable | None = None,
    weighted: bool = False,
    tally: tuple[str, Callable] | None = None,
):
    """Step the trajectories of batches batch0, batch0 + 1, ... of ``sizes``
    trajectories each (a tile of an ensemble) from psi0, all together as the
    columns of one (w, n) array, each batch on its own stream.

    Returns (rho_sum, counts, diagnostics, abort): rho_sum[b, k] is the
    ``outer`` sum (default ``weighted_outer_sum``) of batch b at grid point
    k, one reduction over that batch alone, as a run of the batch by itself
    gives it, and so is every diagnostics series; counts and sign-flip steps
    cover the tile. abort is None or (err, k) for a method error at step k,
    with everything before step k kept.
    ``weighted`` carries one weight per trajectory and records the
    ``weight_sum`` series and the ``sign_flip_steps`` where a jump took a
    negative factor; ``tally = (key, fn)`` records one more series.
    The hooks take stacks, one call per run of ``batch_runs``:
    ``outer(cols, weights)`` gets the run's columns viewed as (B, w, m) and
    weights (B, m) (None without ``weighted``) and returns the B sums
    (B, d, d); ``fn(cols)`` returns the B tallies (B,). Each slice's result
    must be what the hook gives that batch alone.
    ``kernel`` must build each menu's ``drift`` and ``det_factors`` afresh,
    arrays that nothing else holds: ``take_step`` writes the step into them.
    ``track`` is ``me.track`` over the grid's step starts, which the tiles
    of one ensemble share.
    Batch b's uniforms are ``replica_generator(seed, b)``'s draws in
    (steps, size_b) C order, one per trajectory and step; they are drawn
    ``_DRAW_STEPS`` steps per call, and any split into whole steps gives the
    same bits.

    A kernel whose menus carry ``copies`` makes each batch a population
    (the cloning method): a step repeats each member by the copies of the
    branch it took, and a batch whose population leaves [lo*n, hi*n] of its
    size n (``_RESAMPLE_LO``, ``_RESAMPLE_HI``) is resampled back to n
    (uniform, with replacement, by ``integers`` on its own stream), the
    ratio moving into its trace factor, so the estimator is unchanged in
    expectation. Each batch's sums are scaled by its trace factor, the
    ``population`` series (int64) is recorded and the counts split off
    ``clone`` and ``destroy``. Such a menu draws one step a call, so a
    resample's draws come between two steps' uniforms: a batch draws what
    it would draw alone. A batch that dies out steps on with no members,
    and a tile whose batches all have steps no kernel; its sums stay zero.
    """
    outer = outer or weighted_outer_sum
    times = grid.times()
    steps = grid.n_steps
    sizes = np.asarray(sizes, dtype=np.int64)
    pop = sizes.copy()  # the columns each batch holds, in batch order
    bounds, runs = np.concatenate([[0], np.cumsum(pop)]), batch_runs(pop)
    gens = [replica_generator(seed, batch0 + b) for b in range(len(sizes))]
    cols = np.repeat(np.asarray(psi0, dtype=complex)[:, None], int(bounds[-1]), axis=1)
    weights = np.ones(cols.shape[1]) if weighted else None
    rho_sum = np.zeros((len(sizes), steps + 1, me.dim, me.dim), dtype=complex)
    trace_factor, population = np.ones(len(sizes)), None  # set by the first menu with copies
    diag: dict = {}
    if weighted:
        diag["weight_sum"] = np.zeros((len(sizes), steps + 1))
        diag["sign_flip_steps"] = []
    if tally is not None:
        diag[tally[0]] = np.zeros((len(sizes), steps + 1))

    def record(k: int) -> None:
        for run in runs:
            stack, w = run.view(cols), None if weights is None else run.view(weights)
            sums = outer(stack, w)
            rho_sum[run.batches, k] = sums if population is None else trace_factor[run.batches, None, None] * sums
            if weighted:
                diag["weight_sum"][run.batches, k] = w.sum(axis=1)
            if tally is not None:
                diag[tally[0]][run.batches, k] = tally[1](stack)
        if population is not None:
            population[:, k] = pop

    def draw(count: int) -> np.ndarray:
        u = np.empty((count, cols.shape[1]))  # row j: the uniforms of the j-th step drawn
        for gen, a, b in zip(gens, bounds[:-1], bounds[1:]):
            u[:, a:b] = gen.random((count, b - a))
        return u

    record(0)
    hits, copies = np.zeros(1, dtype=np.int64), None  # hits grows to one slot per branch at the first step
    u, j = np.empty((0, 0)), 0  # u[j]: this step's uniforms, drawn with the next steps' where it can be
    for k in range(steps):
        if not cols.shape[1]:
            continue  # every batch died out: the estimate is legitimately zero
        try:
            menu = kernel(track[k], cols, grid.dt)
            if j == len(u):
                u, j = draw(1 if menu.copies is not None else min(_DRAW_STEPS, steps - k)), 0
            step = take_step(menu, u[j], times[k])
        except UnravelError as err:
            if j == len(u):  # the kernel failed before the step's draws
                u, j = draw(1), 0
            # a batch with no members steps no kernel, so it cannot fail
            spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
            err = _first_error(
                err, spans, lambda a, b: take_step(kernel(track[k], cols[:, a:b], grid.dt), u[j, a:b], times[k])
            )
            return rho_sum, event_counts(hits, copies), diag, (err, k)
        nb, copies = len(menu.probs), menu.copies
        del menu  # the next step's kernel runs without this one's jump targets
        j += 1
        by_branch = np.bincount(step.choice[step.jumped], minlength=nb + 1)
        by_branch[nb] = len(step.choice) - len(step.jumped)
        hits = hits + by_branch
        cols = step.cols
        if weighted:
            if np.any(step.factors[step.jumped] < 0.0):
                diag["sign_flip_steps"].append(k)
            weights = weights * step.factors
        if copies is not None:
            if population is None:
                population = diag["population"] = np.zeros((len(sizes), steps + 1), dtype=np.int64)
                population[:, : k + 1] = sizes[:, None]
            # a step at which no member cloned or died keeps the populations
            if not (step.copies == 1).all():
                cols, pop = _repopulate(step, bounds, sizes, gens, trace_factor)
                bounds, runs = np.concatenate([[0], np.cumsum(pop)]), batch_runs(pop)
        record(k + 1)
    return rho_sum, event_counts(hits, copies), diag, None


def _repopulate(step: Step, bounds: np.ndarray, sizes: np.ndarray, gens, trace_factor: np.ndarray):
    """The members a step leaves, as columns grouped by batch, and each
    batch's population: every column repeated by its copies, then a batch
    outside its band resampled back to its size (``trace_factor`` updated
    in place)."""
    pop = np.diff(np.concatenate([[0], np.cumsum(step.copies)])[bounds])
    take = np.repeat(np.arange(len(step.copies)), step.copies)  # the column each member copies
    leave = np.nonzero((pop > 0) & ((pop < _RESAMPLE_LO * sizes) | (pop > _RESAMPLE_HI * sizes)))[0]
    if len(leave):
        parts = np.split(take, np.cumsum(pop)[:-1])
        for r in leave:
            parts[r] = parts[r][gens[r].integers(0, int(pop[r]), size=int(sizes[r]))]
            trace_factor[r] *= pop[r] / sizes[r]
            pop[r] = sizes[r]
        take = np.concatenate(parts)
    return np.take(step.cols, take, axis=1), pop  # C order, as a column index would not give
