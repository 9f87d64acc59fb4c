"""Step outcomes, event records, branch menus and the one step driver.

A "branch" is one possible result of a single time step together with its
exact probability. Every menu method writes its one-step law once, as a
batched kernel ``kernel(snap, rows, dt) -> Menu`` over n trajectory rows.
This module turns a menu into the step that runs (``take_step``) and into
the branch list of one row (``row_branches``), whose closed-form expectation
E[w |psi'><psi'|] the tests compare against rho + L[rho] dt. ``run_menus``
drives the step over a whole grid for one tile of rows: all its batches
step together, and batch b draws its rows' uniforms from its own stream
``rng.replica_generator(seed, b)``, step-major, a few steps per call. Each
batch is summed over its own rows, and the batches of one size are summed
together: ``batch_runs`` groups a tile's batches into runs of equal size,
whose rows form one (batches, size, w) stack, and each step reduces each
run in one stacked call (``linalg.weighted_outer_sum``), with the same bits
as one call per batch.
Weighted methods carry a multiplicative weight factor per branch; the
cloning method carries a copy count.
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
    "Deterministic",
    "Jump",
    "ReverseJump",
    "Clone",
    "Destroy",
    "StepOutcome",
    "Branch",
    "Menu",
    "Step",
    "jump_rows",
    "take_step",
    "row_branches",
    "row_step",
    "event_counts",
    "batch_runs",
    "run_menus",
]

# Steps whose uniforms ``run_menus`` draws in one call per batch. A call
# costs about a microsecond and a draw about 6 ns, so a few steps a call
# cost little more than one call for the whole grid, and hold only a few
# uniforms per row.
_DRAW_STEPS = 4


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
    """One step's law for n rows with B jump branches each.

    ``probs`` (n, B) are the jump probabilities; the deterministic branch
    takes the rest. ``targets`` (n, B, w) are the raw post-jump rows and
    ``drift`` (n, w) the post-step rows when nothing fires. A raw target is
    finished only for the rows that take it (``jump_rows``): divided by its
    entry of ``norms`` ((n, B'), the first B' <= B branches; the rest are
    taken as they are) or multiplied by its entry of ``scales`` ((n, B)).
    Only weighted methods set ``jump_factors`` ((B,), the weight factor of
    each jump branch) and ``det_factors`` ((n,), the no-jump factor); only
    cloning sets ``copies`` ((B,), the members a branch leaves: 2 clone, 0
    destroy).
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
    rows: np.ndarray     # (n, w) post-step rows
    choice: np.ndarray   # (n,) branch taken; B is the deterministic branch
    factors: np.ndarray  # (n,) weight factor picked up (1 without weights)
    copies: np.ndarray   # (n,) members left behind (1 without copies)


def _check_total(menu: Menu, t: float) -> None:
    total = menu.probs.T.sum(axis=0)
    if np.any(total > 1.0):
        raise StepTooLarge(
            f"one-step jump probability {total.max():.4g} > 1 at t={t:.6g}; reduce dt", time=t
        )


def jump_rows(menu: Menu, rows: np.ndarray, branches: np.ndarray) -> np.ndarray:
    """The finished targets of jump branch branches[k] of row rows[k]."""
    out = menu.targets[rows, branches]
    if menu.scales is not None:
        return menu.scales[rows, branches][:, None] * out
    if menu.norms is not None:
        own = branches < menu.norms.shape[1]
        out[own] = out[own] / menu.norms[rows[own], branches[own]][:, None]
    return out


def take_step(menu: Menu, u: np.ndarray, t: float) -> Step:
    """Row i takes the branch whose cumulative interval (kernel order,
    deterministic last) holds u[i]; a zero-probability branch is never taken."""
    _check_total(menu, t)
    n, nb = menu.probs.shape
    # reduce over branches along axis 0 of the transpose: the channel kernels
    # build probs branch-major, where that is a fast contiguous pass
    choice = (u[None, :] >= np.cumsum(menu.probs.T, axis=0)).sum(axis=0)
    jumped = np.nonzero(choice < nb)[0]
    taken = choice[jumped]
    rows = menu.drift.copy()
    rows[jumped] = jump_rows(menu, jumped, taken)
    factors = np.ones(n) if menu.det_factors is None else menu.det_factors.copy()
    if menu.jump_factors is not None:
        factors[jumped] = menu.jump_factors[taken]
    copies = np.ones(n, dtype=np.int64)
    if menu.copies is not None:
        copies[jumped] = menu.copies[taken]
    return Step(rows, choice, factors, copies)


def row_branches(menu: Menu, t: float) -> list[Branch]:
    """The branch list of row 0, in kernel order with the deterministic
    branch last; population branches are labelled by their copies."""
    _check_total(menu, t)
    p = menu.probs[0]
    factors = np.ones(p.shape) if menu.jump_factors is None else menu.jump_factors
    copies = np.ones(p.shape, dtype=np.int64) if menu.copies is None else menu.copies
    states = jump_rows(menu, np.zeros(p.shape, dtype=np.int64), np.arange(p.shape[0]))
    out = []
    for b in range(p.shape[0]):
        pb, c = float(p[b]), int(copies[b])
        event = Jump(b, probability=pb) if c == 1 else Clone(pb) if c == 2 else Destroy(pb)
        out.append(Branch(pb, states[b], event, float(factors[b]), c))
    rest = 1.0 - float(p.sum())
    det = 1.0 if menu.det_factors is None else float(menu.det_factors[0])
    out.append(Branch(rest, menu.drift[0], Deterministic(rest), det))
    return out


def row_step(menu: Menu, u: float, t: float) -> Branch:
    """The branch ``take_step`` gives row 0 for the uniform u."""
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
    """The error ``attempt(a, b)`` raises on the first row span (a, b) that
    meets one, else err: a tile reports what its first failing batch would
    have reported alone (messages quote extremes over the rows)."""
    for a, b in spans:
        try:
            attempt(a, b)
        except UnravelError as first:
            return first
    return err


def batch_runs(sizes) -> list[tuple[slice, slice, tuple[int, int]]]:
    """The consecutive batches of a tile, of the given row counts, grouped
    into runs of equal size: (batch indices, row indices, (batches, size))
    per run, so that the rows of a run reshape to one (batches, size, w)
    stack. ``engine._chunk_sizes`` puts the larger batches first, so a tile
    has at most two runs."""
    runs, batch, row = [], 0, 0
    for size, group in groupby(int(s) for s in np.atleast_1d(sizes)):
        count = len(list(group))
        runs.append((slice(batch, batch + count), slice(row, row + count * size), (count, size)))
        batch, row = batch + count, row + count * size
    return runs


def run_menus(
    kernel: Callable,
    me,
    row0: np.ndarray,
    grid,
    batch0: int,
    n,
    seed: int,
    outer: Callable | None = None,
    weighted: bool = False,
    tally: tuple[str, Callable] | None = None,
    track=None,
):
    """Step the rows of batches batch0, batch0 + 1, ... from row0, all
    together, each batch on its own stream.

    ``n`` is the number of rows of batch batch0, or the sizes of consecutive
    batches of rows (a tile of an ensemble). Returns (rho_sum, counts,
    diagnostics, abort): rho_sum[k] is the ``outer`` sum (default
    ``weighted_outer_sum``) at grid point k, and abort is None or (err, k)
    for a method error at step k, with everything before step k kept. Given batch sizes, rho_sum and every
    diagnostics series gain a leading batch axis, and each batch's entry is
    one reduction over that batch's rows alone, as a run of the batch by
    itself gives it; counts and sign-flip steps cover all rows.
    ``weighted`` carries one weight per row and records the ``weight_sum``
    series and the ``sign_flip_steps`` where a jump took a negative factor;
    ``tally = (key, fn)`` records one more series.
    The hooks take stacks, one call per run of ``batch_runs``:
    ``outer(rows, weights)`` gets rows (B, m, w) and weights (B, m) (None
    without ``weighted``) and returns the B sums (B, d, d); ``fn(rows)``
    returns the B tallies (B,). Each slice's result must be what the hook
    gives that batch alone.
    ``track`` is ``me.track`` over the grid's step starts; the tiles of one
    ensemble share it, and a call without one evaluates its own.
    Batch b's uniforms are ``replica_generator(seed, b)``'s draws in
    (steps, size_b) C order, one per row and step; they are drawn
    ``_DRAW_STEPS`` steps per call, and any split into whole steps gives the
    same bits.
    """
    outer = outer or weighted_outer_sum
    times = grid.times()
    steps = grid.n_steps
    if track is None:
        track = me.track(times[:-1])
    sizes = np.atleast_1d(n)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    spans = list(zip(bounds[:-1], bounds[1:]))
    gens = [replica_generator(seed, batch0 + b) for b in range(len(spans))]
    rows = np.tile(np.asarray(row0, dtype=complex), (int(bounds[-1]), 1))
    weights = np.ones(len(rows)) if weighted else None
    runs = batch_runs(sizes)
    rho_sum = np.zeros((len(spans), steps + 1, me.dim, me.dim), dtype=complex)
    diag: dict = {}
    if weighted:
        diag["weight_sum"] = np.zeros((len(spans), steps + 1))
        diag["sign_flip_steps"] = []
    if tally is not None:
        diag[tally[0]] = np.zeros((len(spans), steps + 1))

    def record(k: int) -> None:
        for batches, span, shape in runs:
            stack = rows[span].reshape(*shape, -1)
            w = None if weights is None else weights[span].reshape(shape)
            rho_sum[batches, k] = outer(stack, w)
            if weighted:
                diag["weight_sum"][batches, k] = w.sum(axis=1)
            if tally is not None:
                diag[tally[0]][batches, k] = tally[1](stack)

    def result(abort):
        if np.ndim(n):
            return rho_sum, event_counts(hits), diag, abort
        one = {key: val if key == "sign_flip_steps" else val[0] for key, val in diag.items()}
        return rho_sum[0], event_counts(hits), one, abort

    record(0)
    hits = np.zeros(1, dtype=np.int64)  # grows to one slot per branch at the first step
    u = np.empty((_DRAW_STEPS, len(rows)))  # row j: the uniforms of step k + j
    for k in range(steps):
        j = k % _DRAW_STEPS
        if j == 0:
            count = min(_DRAW_STEPS, steps - k)
            for gen, (a, b) in zip(gens, spans):
                u[:count, a:b] = gen.random((count, b - a))
        try:
            menu = kernel(track[k], rows, grid.dt)
            step = take_step(menu, u[j], times[k])
        except UnravelError as err:
            err = _first_error(
                err, spans, lambda a, b: take_step(kernel(track[k], rows[a:b], grid.dt), u[j, a:b], times[k])
            )
            return result((err, k))
        nb = menu.probs.shape[1]
        del menu  # the next step's kernel runs without this one's jump targets
        hits = hits + np.bincount(step.choice, minlength=nb + 1)
        rows = step.rows
        if weighted:
            if np.any(step.factors[step.choice < nb] < 0.0):
                diag["sign_flip_steps"].append(k)
            weights = weights * step.factors
        record(k + 1)
    return result(None)
