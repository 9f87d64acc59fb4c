"""Variable-population unraveling of trace-non-preserving equations.

When the anticommutator operator is overridden (trace_sink), the trace of
rho grows or shrinks at rate tr((G_L - G) rho). A fixed-size trajectory
ensemble cannot represent that, so a step may also clone the current member
(both copies keep the pre-step state) or destroy it, with probabilities
delta * dt and -delta * dt where delta = <psi|(G_L - G)|psi>. The ensemble
estimate is trace_factor * sum |psi><psi| / N(0), whose trace tracks
tr rho(t) instead of sticking at one.

All rates must be nonnegative here; negative rates need one of the weighted
or pair-vector methods instead. ``clone_menu`` adds the clone and destroy
branches to the channel menu; ``run_replica`` wraps the shared selection
(``outcomes.take_step``) in its population and resampling loop. It steps
the consecutive replicas of one engine tile together, their members the
columns of one (d, members) array grouped by replica: one kernel call per
step over all of them, each replica drawing from its own stream and
resampled on its own, with the bits of one run per replica.

The population work is paid only where the population can move. On a track
whose sink equals G_L at every time (a model without trace_sink), clone
and destroy have probability exactly 0 at every step, so the replicas are
the batches of ``outcomes.run_menus`` on the channel menu alone, whose
branch choices are the full menu's. Under a sink, a step at which no
member cloned or died keeps its post-step columns as the states: no copy,
no per-replica tally and no resample check.
"""

from __future__ import annotations

import numpy as np

from .errors import UnravelError
from .master_equation import GeneratorSnapshot, MasterEquation
from .mcwf import channel_menu, require_nonnegative_rates
from .linalg import weighted_outer_sum
from .outcomes import (
    Branch, Menu, StepOutcome, _first_error, batch_runs, event_counts, row_branches, row_step, run_menus, take_step
)
from .propagate import TimeGrid
from .rng import replica_generator

__all__ = ["clone_menu", "clone_branches", "cloning_step", "run_replica"]

# a replica's population is resampled to its size when it leaves
# [_RESAMPLE_LO, _RESAMPLE_HI] times that size
_RESAMPLE_LO = 0.5
_RESAMPLE_HI = 2.0


def _jump_menu(snap: GeneratorSnapshot, cols: np.ndarray, dt: float) -> Menu:
    """``clone_menu`` without its clone and destroy branches."""
    require_nonnegative_rates(snap, "the cloning method")
    return channel_menu(snap, cols, dt)


def clone_menu(snap: GeneratorSnapshot, cols: np.ndarray, dt: float) -> Menu:
    """Kernel on state columns (d, n). Branch order: channel jumps, clone,
    destroy; drift last.

    Both clone copies keep the pre-step state; a destroyed member leaves none.
    """
    jumps = _jump_menu(snap, cols, dt)
    deltas = np.einsum("in,ij,jn->n", np.conj(cols), snap.gamma_l - snap.gamma_drift, cols).real
    probs = np.vstack([jumps.probs, np.maximum(0.0, deltas * dt), np.maximum(0.0, -deltas * dt)])
    # the channel images keep their norms; clone and destroy targets have none
    targets = np.concatenate([jumps.targets, cols[None], cols[None]])
    copies = np.array([1] * len(jumps.probs) + [2, 0])
    return Menu(probs, targets, jumps.drift, copies=copies, norms=jumps.norms)


def clone_branches(me: MasterEquation, psi: np.ndarray, t: float, dt: float) -> list[Branch]:
    """Branch order: channel jumps, clone, destroy, deterministic drift."""
    return row_branches(clone_menu(me.at(t), np.asarray(psi, dtype=complex)[:, None], dt), t)


def cloning_step(psi: np.ndarray, me: MasterEquation, t: float, dt: float, u: float) -> StepOutcome:
    """The event type tells the caller what to do with the population:
    Clone means two copies of the returned (pre-step) state now exist,
    Destroy means the member is gone."""
    b = row_step(clone_menu(me.at(t), np.asarray(psi, dtype=complex)[:, None], dt), u, t)
    return StepOutcome(state=b.state, event=b.event)


def run_replica(me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, batch0: int, sizes, seed: int, track):
    """Population realizations of the consecutive replicas batch0, batch0 +
    1, ... of ``sizes`` members each (a tile of an ensemble), stepped on
    ``track`` (``me.track`` over the grid's step starts). Returns (rho_sum,
    counts, diagnostics, abort); rho_sum and the ``population`` series have
    a leading replica axis, rho_sum entries are trace_factor * sum
    |psi><psi|, and abort is None or (err, k) for the first replica that
    fails, at the first step k at which one does.

    A replica's population is resampled back to its size (uniform, with
    replacement) whenever it leaves [lo*n, hi*n] (``_RESAMPLE_LO``,
    ``_RESAMPLE_HI``); the size ratio moves into its trace_factor so the
    estimator is unchanged in expectation. The replicas step together, one
    kernel call per step over all their members, each drawing from its own
    ``replica_generator`` in the order one replica alone draws, so every
    replica's series is the one it gives alone. Without a trace sink the
    replicas are ``run_menus``' batches of the channel menu.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    steps = grid.n_steps
    rho_0 = sizes[:, None, None] * np.outer(psi0, np.conj(psi0))
    if track.error is None and np.array_equal(track.gamma_l, track.gamma_drift):
        # no member ever clones or dies: the menu driver, with cloning's t = 0
        # sums, counts and population
        rho_sum, counts, diag, abort = run_menus(_jump_menu, me, psi0, grid, batch0, sizes, seed, track)
        rho_sum[:, 0] = rho_0
        det = counts.pop("deterministic")
        counts.update(clone=0, destroy=0, deterministic=det)
        return rho_sum, counts, {"population": np.repeat(sizes[:, None], steps + 1, axis=1)}, abort
    gens = [replica_generator(seed, batch0 + r) for r in range(len(sizes))]
    times = grid.times()
    states = np.repeat(np.asarray(psi0, dtype=complex)[:, None], int(sizes.sum()), axis=1)
    pop = sizes.copy()
    owners = np.repeat(np.arange(len(sizes)), pop)  # columns stay grouped by replica, in order
    trace_factor = np.ones(len(sizes))
    rho_sum = np.zeros((len(sizes), steps + 1, me.dim, me.dim), dtype=complex)
    rho_sum[:, 0] = rho_0
    population = np.zeros((len(sizes), steps + 1), dtype=np.int64)
    population[:, 0] = sizes
    m = len(me.channels)
    copies = np.array([1] * m + [2, 0])
    branch_copies = np.append(copies, 1)  # the deterministic branch keeps its member
    hits = np.zeros(m + 3, dtype=np.int64)
    abort = None
    for k in range(steps):
        if not states.shape[1]:
            continue  # every population extinct; the estimate is legitimately zero
        u = np.concatenate([gen.random(n) for gen, n in zip(gens, pop)])
        try:
            step = take_step(clone_menu(track[k], states, grid.dt), u, times[k])
        except UnravelError as err:
            # an extinct replica steps no kernel, so it cannot fail
            bounds = np.concatenate([[0], np.cumsum(pop)])
            spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
            abort = (_first_error(
                err, spans, lambda a, b: take_step(clone_menu(track[k], states[:, a:b], grid.dt), u[a:b], times[k])
            ), k)
            break
        if (step.copies == 1).all():
            # a still step: no member cloned or died, so the populations,
            # their order and their band are the last step's
            hits += np.bincount(step.choice, minlength=len(hits))
            states = step.cols
        else:
            # per replica and branch: the step's hits and the members they leave
            tally = np.bincount(owners * (m + 3) + step.choice, minlength=len(sizes) * (m + 3))
            tally = tally.reshape(len(sizes), m + 3)
            hits += tally.sum(axis=0)
            pop = tally @ branch_copies
            states = np.repeat(step.cols, step.copies, axis=1)
            leave = np.nonzero((pop > 0) & ~((_RESAMPLE_LO * sizes <= pop) & (pop <= _RESAMPLE_HI * sizes)))[0]
            if len(leave):
                parts = np.split(states, np.cumsum(pop)[:-1], axis=1)
                for r in leave:
                    idx = gens[r].integers(0, int(pop[r]), size=int(sizes[r]))
                    trace_factor[r] *= pop[r] / sizes[r]
                    parts[r] = parts[r][:, idx]
                    pop[r] = sizes[r]
                states = np.concatenate(parts, axis=1)
            owners = np.repeat(np.arange(len(sizes)), pop)
        population[:, k + 1] = pop
        # replicas of equal population: one stacked sum with the bits of one each
        for run in batch_runs(pop):
            rho_sum[run.batches, k + 1] = trace_factor[run.batches, None, None] * weighted_outer_sum(run.view(states))
    return rho_sum, event_counts(hits, copies), {"population": population}, abort
