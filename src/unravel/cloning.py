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
(``outcomes.take_step``) in its population and resampling loop.
"""

from __future__ import annotations

import numpy as np

from .errors import UnravelError
from .master_equation import GeneratorSnapshot, MasterEquation
from .mcwf import channel_menu, require_nonnegative_rates
from .outcomes import Branch, Menu, StepOutcome, event_counts, row_branches, row_step, take_step
from .propagate import TimeGrid
from .rng import replica_generator

__all__ = ["clone_menu", "clone_branches", "cloning_step", "run_replica"]


def clone_menu(snap: GeneratorSnapshot, rows: np.ndarray, dt: float) -> Menu:
    """Kernel. Branch order: channel jumps, clone, destroy; drift last.

    Both clone copies keep the pre-step state; a destroyed member leaves none.
    """
    require_nonnegative_rates(snap, "the cloning method")
    jumps = channel_menu(snap, rows, dt)
    deltas = np.einsum("ni,ij,nj->n", np.conj(rows), snap.gamma_l - snap.gamma_drift, rows).real
    # stacked branch-major like the channel part, then viewed as (n, B)
    probs = np.vstack([jumps.probs.T, np.maximum(0.0, deltas * dt), np.maximum(0.0, -deltas * dt)])
    targets = np.concatenate([np.swapaxes(jumps.targets, 0, 1), rows[None], rows[None]])
    copies = np.array([1] * jumps.probs.shape[1] + [2, 0])
    return Menu(probs.T, np.swapaxes(targets, 0, 1), jumps.drift, copies=copies)


def clone_branches(me: MasterEquation, psi: np.ndarray, t: float, dt: float) -> list[Branch]:
    """Branch order: channel jumps, clone, destroy, deterministic drift."""
    return row_branches(clone_menu(me.at(t), np.asarray(psi, dtype=complex)[None, :], dt), t)


def cloning_step(psi: np.ndarray, me: MasterEquation, t: float, dt: float, u: float) -> StepOutcome:
    """The event type tells the caller what to do with the population:
    Clone means two copies of the returned (pre-step) state now exist,
    Destroy means the member is gone."""
    b = row_step(clone_menu(me.at(t), np.asarray(psi, dtype=complex)[None, :], dt), u, t)
    return StepOutcome(state=b.state, event=b.event)


def run_replica(
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    n_members: int,
    replica: int,
    seed: int,
    resample_lo: float = 0.5,
    resample_hi: float = 2.0,
):
    """One population realization; rho_sum rows are trace_factor * sum |psi><psi|.

    The population is resampled back to n_members (uniform, with
    replacement) whenever it leaves [lo*n, hi*n]; the size ratio moves into
    trace_factor so the estimator is unchanged in expectation.
    """
    gen = replica_generator(seed, replica)
    d = me.dim
    steps = grid.n_steps
    times = grid.times()
    states = np.tile(np.asarray(psi0, dtype=complex), (n_members, 1))
    trace_factor = 1.0
    rho_sum = np.zeros((steps + 1, d, d), dtype=complex)
    rho_sum[0] = n_members * np.outer(psi0, np.conj(psi0))
    population = np.zeros(steps + 1, dtype=np.int64)
    population[0] = n_members
    m = len(me.channels)
    copies = np.array([1] * m + [2, 0])
    hits = np.zeros(m + 3, dtype=np.int64)
    diag = {"population": population}
    for k in range(steps):
        cur = states.shape[0]
        if cur == 0:
            population[k + 1] = 0
            continue  # population extinct; the estimate is legitimately zero
        try:
            menu = clone_menu(me.at(times[k]), states, grid.dt)
            step = take_step(menu, gen.random(cur), times[k])
        except UnravelError as err:
            return rho_sum, event_counts(hits, copies), diag, (err, k)
        hits += np.bincount(step.choice, minlength=m + 3)
        states = np.repeat(step.rows, step.copies, axis=0)
        if not (resample_lo * n_members <= states.shape[0] <= resample_hi * n_members):
            if states.shape[0] > 0:
                idx = gen.integers(0, states.shape[0], size=n_members)
                trace_factor *= states.shape[0] / n_members
                states = states[idx]
        population[k + 1] = states.shape[0]
        if states.shape[0]:
            rho_sum[k + 1] = trace_factor * np.einsum("ni,nj->ij", states, np.conj(states))
    return rho_sum, event_counts(hits, copies), diag, None
