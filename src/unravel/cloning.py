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
branches to the channel menu, their ``copies`` 2 and 0. ``run_replica``
runs it on ``outcomes.run_menus``, the one step driver of every menu
method, whose batches are the replicas: the driver repeats the members by
their copies and resamples each replica on its own stream, with the bits of
one run per replica.

The population work is paid only where the population can move. On a track
whose sink equals G_L at every time (a model without trace_sink), clone
and destroy have probability exactly 0 at every step, so the replicas run
on the channel menu alone, whose branch choices are the full menu's. Under
a sink, a step at which no member cloned or died keeps its post-step
columns as the states: no copy and no resample check.
"""

from __future__ import annotations

import numpy as np

from .master_equation import GeneratorSnapshot, MasterEquation
from .mcwf import channel_menu, require_nonnegative_rates
from .outcomes import Branch, Menu, StepOutcome, row_branches, row_step, run_menus
from .propagate import TimeGrid

__all__ = ["clone_menu", "clone_branches", "cloning_step", "run_replica"]

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

    The replicas are the batches of ``outcomes.run_menus`` on
    ``clone_menu``, whose copies make each one a population, resampled on
    its own stream; every replica's series is the one it gives alone.
    Without a trace sink they are its batches on the channel menu alone.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    still = track.error is None and np.array_equal(track.gamma_l, track.gamma_drift)
    rho_sum, counts, diag, abort = run_menus(
        _jump_menu if still else clone_menu, me, psi0, grid, batch0, sizes, seed, track
    )
    # cloning's own t = 0 sums, and the counts and population of a run
    # whose menus carried no copies
    rho_sum[:, 0] = sizes[:, None, None] * np.outer(psi0, np.conj(psi0))
    counts = {key: counts.get(key, 0) for key in ("jump", "jump_by_channel", "clone", "destroy", "deterministic")}
    diag.setdefault("population", np.repeat(sizes[:, None], grid.n_steps + 1, axis=1))
    return rho_sum, counts, diag, abort
