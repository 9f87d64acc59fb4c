"""Step outcomes, event records, branch menus and the one step driver.

A "branch" is one possible result of a single time step together with its
exact probability. Every menu method writes its one-step law once, as a
batched kernel ``kernel(snap, rows, dt) -> Menu`` over n trajectory rows.
This module turns a menu into the step that runs (``take_step``, driven over
a whole grid by ``run_menus``) and into the branch list of one row
(``row_branches``), whose closed-form expectation E[w |psi'><psi'|] the
tests compare against rho + L[rho] dt. Weighted methods carry a
multiplicative weight factor per branch; the cloning method carries a copy
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import StepTooLarge, UnravelError
from .linalg import weighted_outer_sum
from .rng import trajectory_uniforms

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
    "take_step",
    "row_branches",
    "row_step",
    "event_counts",
    "run_menus",
]


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
    takes the rest. ``targets`` (n, B, w) are the post-jump rows and
    ``drift`` (n, w) the post-step rows when nothing fires. Only weighted
    methods set ``jump_factors`` ((B,), the weight factor of each jump
    branch) and ``det_factors`` ((n,), the no-jump factor); only cloning
    sets ``copies`` ((B,), the members a branch leaves: 2 clone, 0 destroy).
    """

    probs: np.ndarray
    targets: np.ndarray
    drift: np.ndarray
    jump_factors: np.ndarray | None = None
    det_factors: np.ndarray | None = None
    copies: np.ndarray | None = None


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
    rows[jumped] = menu.targets[jumped, taken]
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
    out = []
    for b in range(p.shape[0]):
        pb, c = float(p[b]), int(copies[b])
        event = Jump(b, probability=pb) if c == 1 else Clone(pb) if c == 2 else Destroy(pb)
        out.append(Branch(pb, menu.targets[0, b], event, float(factors[b]), c))
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


def run_menus(
    kernel: Callable,
    me,
    row0: np.ndarray,
    grid,
    idx0: int,
    n: int,
    seed: int,
    outer: Callable | None = None,
    weighted: bool = False,
    tally: tuple[str, Callable] | None = None,
):
    """Step n rows from row0 on the streams of trajectories idx0..idx0+n-1.

    Returns (rho_sum, counts, diagnostics, abort): rho_sum[k] is
    ``outer(rows, weights)`` (default ``weighted_outer_sum``) at grid point
    k, and abort is None or (err, k) for a method error at step k, with
    everything before step k kept.
    ``weighted`` carries one weight per row and records the ``weight_sum``
    series and the ``sign_flip_steps`` where a jump took a negative factor;
    ``tally = (key, fn(rows))`` records one more series.
    """
    outer = outer or weighted_outer_sum
    times = grid.times()
    steps = grid.n_steps
    u = trajectory_uniforms(seed, idx0, n, steps)
    rows = np.tile(np.asarray(row0, dtype=complex), (n, 1))
    weights = np.ones(n) if weighted else None
    rho_sum = np.zeros((steps + 1, me.dim, me.dim), dtype=complex)
    rho_sum[0] = outer(rows, weights)
    diag: dict = {}
    if weighted:
        diag["weight_sum"] = np.zeros(steps + 1)
        diag["weight_sum"][0] = weights.sum()
        diag["sign_flip_steps"] = []
    if tally is not None:
        diag[tally[0]] = np.zeros(steps + 1)
        diag[tally[0]][0] = tally[1](rows)
    hits = np.zeros(1, dtype=np.int64)  # grows to one slot per branch at the first step
    for k in range(steps):
        snap = me.at(times[k])
        try:
            menu = kernel(snap, rows, grid.dt)
            step = take_step(menu, u[:, k], times[k])
        except UnravelError as err:
            return rho_sum, event_counts(hits), diag, (err, k)
        nb = menu.probs.shape[1]
        hits = hits + np.bincount(step.choice, minlength=nb + 1)
        rows = step.rows
        if weighted:
            if np.any(step.factors[step.choice < nb] < 0.0):
                diag["sign_flip_steps"].append(k)
            weights = weights * step.factors
            diag["weight_sum"][k + 1] = weights.sum()
        if tally is not None:
            diag[tally[0]][k + 1] = tally[1](rows)
        rho_sum[k + 1] = outer(rows, weights)
    return rho_sum, event_counts(hits), diag, None
