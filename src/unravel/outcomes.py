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
steps per call. The kernel runs on the tile's distinct histories, not on
its trajectories: the driver keeps one column per history that some
trajectory holds and, per trajectory, the index of its column. A step's
kernel call costs the distinct states, and each trajectory still costs its
draw, its branch choice and its share of the record. Every trajectory
starts at psi0, and a (state, branch) pair taken by jumpers makes one new
state, so an ensemble whose jumps land on few histories (mcwf and cloning
on spontaneous emission: one column per step with a jump so far) steps
few columns; one whose histories seldom coincide (doubled, im) steps about
as many as before and pays a little more bookkeeping.
``batch_runs`` groups a tile's batches into runs of equal size, and
``BatchRun.view`` gives a run's columns, gathered in trajectory order, as
one (batches, w, size) stack, reduced each step in one stacked call
(``linalg.weighted_outer_sum``) with the bits of one per batch.
Weighted methods carry a multiplicative weight factor per branch; the
cloning method carries a copy count, with which the driver makes each batch
a population that it resamples on the batch's own stream, one step drawn
per call; its copies and resamples copy the trajectories' indices, not
their states.
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
    carry copies at every step or at none).
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
    """One step of n trajectories, as ``take_step`` draws it: the distinct
    post-step states, each held by some trajectory, the weight factors only
    where the menu carries weights, the copies only where it carries
    copies."""

    states: np.ndarray          # (w, S) post-step states: drifts or jump targets in their place, then the rest
    held: np.ndarray            # (n,) the state each trajectory holds
    members: np.ndarray         # (S,) the trajectories that hold each state
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


def take_step(menu: Menu, u: np.ndarray, t: float, held=None, members=None) -> Step:
    """Trajectory i holds the menu's state held[i] (default: state i) and
    takes the branch of that state whose cumulative interval (kernel order,
    deterministic last) holds u[i]; a zero-probability branch is never
    taken. ``members`` counts each state's trajectories (by default from
    ``held``); every state must have one.

    The post-step states are the menu's drifts, then one finished target for
    each (state, jump branch) pair that some trajectory took, in ascending
    (state, branch) order, except that the first pair of a state that every
    trajectory holding it left takes that state's place. So every state is
    held by some trajectory, and only the jumpers are grouped."""
    nb, count = menu.probs.shape
    held = np.arange(count) if held is None else held
    choice, jumped = _choose(menu.probs, u, t, held)
    taken, origin = choice[jumped], held[jumped]
    factors = None if menu.det_factors is None else menu.det_factors[held]
    if menu.jump_factors is not None:
        factors = np.ones(len(held)) if factors is None else factors
        factors[jumped] = menu.jump_factors[taken]
    copies = None
    if menu.copies is not None:
        copies = np.ones(len(held), dtype=np.int64)
        copies[jumped] = menu.copies[taken]
    left = np.bincount(held, minlength=count) if members is None else members.copy()
    np.subtract.at(left, origin, 1)
    # the (state, branch) pairs taken, ascending, and the pair of each jumper
    key = origin * nb + taken
    order = key.argsort(kind="stable")
    key = key[order]
    lead = _leads(key)
    rank = lead.cumsum()
    rank -= 1
    into = np.empty_like(rank)
    into[order] = rank
    source, branch = np.divmod(key[lead], nb)
    joined = np.bincount(rank)
    # a state's first pair takes its place where no trajectory stayed on it
    fresh = _leads(source)
    fresh &= left[source] == 0
    fresh = ~fresh
    size = count + np.count_nonzero(fresh)
    slot = source.copy()
    slot[fresh] = np.arange(count, size)
    states = np.empty((len(menu.drift), size), dtype=complex)
    states[:, :count] = menu.drift
    states[:, slot] = jump_rows(menu, source, branch)
    members = np.concatenate([left, joined[fresh]])
    del left  # freed before ``after``, at the step's peak
    members[slot] = joined
    after = held.copy()
    after[jumped] = slot[into]
    return Step(states, after, members, choice, jumped, factors, copies)


def _leads(sorted_keys: np.ndarray) -> np.ndarray:
    """Where each run of equal keys starts."""
    lead = np.empty(len(sorted_keys), dtype=bool)
    lead[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=lead[1:])
    return lead


def _choose(probs: np.ndarray, u: np.ndarray, t: float, held: np.ndarray):
    """The branch of each trajectory, the number of its state's cumulative
    edges at or below its uniform, and the trajectories that take a jump
    branch, ascending. The edges are summed a branch at a time, as np.cumsum
    sums them (it would loop over the states). A uniform at or above every
    edge of every state takes the deterministic branch, so only the others
    are compared edge by edge."""
    nb = len(probs)
    edges = probs.copy()
    for b in range(1, nb):
        edges[b] += edges[b - 1]
    _check_total(edges[nb - 1 :], t)
    near = (~(u >= edges.max(initial=-np.inf))).nonzero()[0]  # NaN edges: every trajectory
    picked = (u[near] >= np.take(edges, held[near], axis=1)).sum(axis=0)
    choice = np.full(len(held), nb)
    choice[near] = picked
    return choice, near[picked < nb]


def _drop_empty(states: np.ndarray, held: np.ndarray, members: np.ndarray):
    """The states that some trajectory holds, in order, and the indices and
    member counts that point into them."""
    keep = members > 0
    if keep.all():
        return states, held, members
    return np.compress(keep, states, axis=1), (np.cumsum(keep) - 1)[held], members[keep]


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
    out.append(Branch(rest, menu.drift[:, 0], Deterministic(rest), det))
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
    trajectories each (a tile of an ensemble) from psi0, all together, each
    batch on its own stream. The kernel runs on the tile's distinct states,
    one column per history that some trajectory holds; the draws, the
    branch choices, the weights, the record and the abort replay stay per
    trajectory, so the results are those of stepping every trajectory's
    column, bit for bit.

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
    ``kernel`` runs on the tile's distinct states (``take_step``), so it
    must give each column the bits it gives that column alone.
    ``track`` is ``me.track`` over the grid's step starts, which the tiles
    of one ensemble share.
    Batch b's uniforms are ``replica_generator(seed, b)``'s draws in
    (steps, size_b) C order, one per trajectory and step; they are drawn
    ``_DRAW_STEPS`` steps per call, and any split into whole steps gives the
    same bits.

    A kernel whose menus carry ``copies`` makes each batch a population
    (the cloning method): a step repeats each member's state index by the
    copies of the branch it took, and a batch whose population leaves [lo*n, hi*n] of its
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
    pop = sizes.copy()  # the trajectories each batch holds, in batch order
    bounds, runs = np.concatenate([[0], np.cumsum(pop)]), batch_runs(pop)
    gens = [replica_generator(seed, batch0 + b) for b in range(len(sizes))]
    # the tile's distinct states (w, S), the state each trajectory holds and
    # the trajectories that hold each state: every trajectory starts at psi0
    states = np.array(psi0, dtype=complex)[:, None]
    held, members = np.zeros(int(bounds[-1]), dtype=np.int64), bounds[-1:].copy()
    weights = np.ones(len(held)) if weighted else None
    rho_sum = np.zeros((len(sizes), steps + 1, me.dim, me.dim), dtype=complex)
    trace_factor, population = np.ones(len(sizes)), None  # set by the first menu with copies
    diag: dict = {}
    if weighted:
        diag["weight_sum"] = np.zeros((len(sizes), steps + 1))
        diag["sign_flip_steps"] = []
    if tally is not None:
        diag[tally[0]] = np.zeros((len(sizes), steps + 1))

    def record(k: int) -> None:
        cols = np.take(states, held, axis=1)  # each trajectory's state, in trajectory order
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
        u = np.empty((count, len(held)))  # row j: the uniforms of the j-th step drawn
        for gen, a, b in zip(gens, bounds[:-1], bounds[1:]):
            u[:, a:b] = gen.random((count, b - a))
        return u

    def replay(k: int, u: np.ndarray, a: int, b: int) -> None:
        """Step k of the trajectories a:b alone."""
        own, inside = np.unique(held[a:b], return_inverse=True)
        take_step(kernel(track[k], np.take(states, own, axis=1), grid.dt), u[a:b], times[k], inside)

    record(0)
    hits, copies = np.zeros(1, dtype=np.int64), None  # hits grows to one slot per branch at the first step
    u, j = np.empty((0, 0)), 0  # u[j]: this step's uniforms, drawn with the next steps' where it can be
    for k in range(steps):
        if not len(held):
            continue  # every batch died out: the estimate is legitimately zero
        try:
            menu = kernel(track[k], states, grid.dt)
            if j == len(u):
                u, j = draw(1 if menu.copies is not None else min(_DRAW_STEPS, steps - k)), 0
            step = take_step(menu, u[j], times[k], held, members)
        except UnravelError as err:
            if j == len(u):  # the kernel failed before the step's draws
                u, j = draw(1), 0
            # a batch with no members steps no kernel, so it cannot fail
            spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
            err = _first_error(err, spans, lambda a, b: replay(k, u[j], a, b))
            return rho_sum, event_counts(hits, copies), diag, (err, k)
        nb, copies = len(menu.probs), menu.copies
        del menu  # the next step's kernel runs without this one's jump targets
        j += 1
        by_branch = np.bincount(step.choice[step.jumped], minlength=nb + 1)
        by_branch[nb] = len(step.choice) - len(step.jumped)
        hits = hits + by_branch
        states, held, members = step.states, step.held, step.members
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
                held, pop = _repopulate(step, bounds, sizes, gens, trace_factor)
                states, held, members = _drop_empty(states, held, np.bincount(held, minlength=len(members)))
                bounds, runs = np.concatenate([[0], np.cumsum(pop)]), batch_runs(pop)
        record(k + 1)
    return rho_sum, event_counts(hits, copies), diag, None


def _repopulate(step: Step, bounds: np.ndarray, sizes: np.ndarray, gens, trace_factor: np.ndarray):
    """The state each member a step leaves holds, grouped by batch, and each
    batch's population: every trajectory repeated by its copies, then a
    batch outside its band resampled back to its size (``trace_factor``
    updated in place)."""
    pop = np.diff(np.concatenate([[0], np.cumsum(step.copies)])[bounds])
    take = np.repeat(np.arange(len(step.copies)), step.copies)  # the trajectory each member copies
    leave = np.nonzero((pop > 0) & ((pop < _RESAMPLE_LO * sizes) | (pop > _RESAMPLE_HI * sizes)))[0]
    if len(leave):
        parts = np.split(take, np.cumsum(pop)[:-1])
        for r in leave:
            parts[r] = parts[r][gens[r].integers(0, int(pop[r]), size=int(sizes[r]))]
            trace_factor[r] *= pop[r] / sizes[r]
            pop[r] = sizes[r]
        take = np.concatenate(parts)
    return step.held[take], pop
