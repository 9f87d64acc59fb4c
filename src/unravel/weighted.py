"""Weighted unravelings: influence martingale and sign-bit trajectories.

Both methods jump with a strictly positive sampling rate r_a even where the
physical rate gamma_a is negative, and repair the mismatch with a scalar
weight per trajectory. The weighted ensemble mean E[w |psi><psi|] solves
the master equation; the weight itself is a martingale, E[w(t)] = 1.

The sign-bit flavor samples at r_a = |gamma_a|. Each negative-rate jump
then contributes the factor gamma/r = -1, so the jump part of the weight is
a bit s in {+1,-1}, which is what the trajectory record exposes. The
deterministic steps still rescale the weight magnitude; dropping that
rescaling would bias the estimator whenever rates are negative, so the
magnitude is carried alongside the sign rather than silently discarded.

Both kernels are ``mcwf.channel_menu`` at their sampling rates. The
one-row view of the sign-bit flavor moves a jump's factor sign(gamma) onto
the event as its sign bit and leaves the magnitude factor at 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidRatePolicy
from .master_equation import GeneratorSnapshot, MasterEquation
from .mcwf import channel_menu
from .outcomes import Branch, Jump, Menu, row_branches, row_step, run_menus

__all__ = [
    "WeightedTrajectory",
    "PlqtTrajectory",
    "default_rate_policy",
    "im_menu",
    "plqt_menu",
    "im_branches",
    "im_step",
    "plqt_branches",
    "plqt_step",
    "run_chunk_im",
    "run_chunk_plqt",
]

RatePolicy = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class WeightedTrajectory:
    state: np.ndarray
    weight: float


@dataclass(frozen=True)
class PlqtTrajectory:
    """State, sign bit, and the deterministic weight magnitude.

    ``sign`` is the +/-1 record the method is named for; ``magnitude``
    accumulates the no-jump factors. The estimator weight is their product.
    """

    state: np.ndarray
    sign: int
    magnitude: float

    @property
    def weight(self) -> float:
        return self.sign * self.magnitude


def default_rate_policy(r_min: float = 0.05) -> RatePolicy:
    """Sampling rates r_a = max(|gamma_a|, r_min)."""
    if r_min <= 0:
        raise InvalidRatePolicy(f"r_min must be positive, got {r_min}")

    def policy(gammas: np.ndarray) -> np.ndarray:
        return np.maximum(np.abs(gammas), r_min)

    return policy


def _row(wt) -> np.ndarray:
    return np.asarray(wt.state, dtype=complex)[None, :]


def im_menu(snap: GeneratorSnapshot, rows: np.ndarray, dt: float, r_policy: RatePolicy) -> Menu:
    """Influence-martingale kernel: channel jumps sampled at r = r_policy(gamma)."""
    rs = np.asarray(r_policy(snap.gammas), dtype=float)
    if rs.shape != snap.gammas.shape or np.any(rs <= 0.0):
        raise InvalidRatePolicy(
            f"rate policy must return one strictly positive rate per channel, got {rs} at t={snap.t:.6g}"
        )
    return channel_menu(snap, rows, dt, rs)


def plqt_menu(snap: GeneratorSnapshot, rows: np.ndarray, dt: float) -> Menu:
    """Sign-bit kernel: channel jumps sampled at |gamma|, factor sign(gamma)."""
    return channel_menu(snap, rows, dt, np.abs(snap.gammas))


def im_branches(
    me: MasterEquation, wt: WeightedTrajectory, t: float, dt: float, r_policy: RatePolicy
) -> Sequence[Branch]:
    return row_branches(im_menu(me.at(t), _row(wt), dt, r_policy), t)


def im_step(
    wt: WeightedTrajectory,
    me: MasterEquation,
    t: float,
    dt: float,
    r_policy: RatePolicy,
    u: float,
) -> WeightedTrajectory:
    b = row_step(im_menu(me.at(t), _row(wt), dt, r_policy), u, t)
    return WeightedTrajectory(b.state, wt.weight * b.weight_factor)


def _signed(b: Branch) -> Branch:
    """A jump's factor sign(gamma) is the sign bit on its event; the
    magnitude is untouched by jumps."""
    if isinstance(b.event, Jump):
        return b._replace(event=replace(b.event, sign=-1 if b.weight_factor < 0.0 else 1), weight_factor=1.0)
    return b


def plqt_branches(me: MasterEquation, wt: PlqtTrajectory, t: float, dt: float) -> Sequence[Branch]:
    """Jump menu at absolute rates; a negative-rate jump flips the sign."""
    return [_signed(b) for b in row_branches(plqt_menu(me.at(t), _row(wt), dt), t)]


def plqt_step(wt: PlqtTrajectory, me: MasterEquation, t: float, dt: float, u: float) -> PlqtTrajectory:
    b = _signed(row_step(plqt_menu(me.at(t), _row(wt), dt), u, t))
    if isinstance(b.event, Jump):
        return PlqtTrajectory(b.state, wt.sign * b.event.sign, wt.magnitude)
    return PlqtTrajectory(b.state, wt.sign, wt.magnitude * b.weight_factor)


def run_chunk_im(me, psi0, grid, batch0, n, seed, r_policy: RatePolicy | None = None, track=None):
    """Influence-martingale trajectories; rho_sum rows are weighted projector
    sums; n as in ``run_menus``."""
    policy = r_policy if r_policy is not None else default_rate_policy()
    return run_menus(
        lambda snap, rows, dt: im_menu(snap, rows, dt, policy),
        me,
        psi0,
        grid,
        batch0,
        n,
        seed,
        weighted=True,
        track=track,
    )


def run_chunk_plqt(me, psi0, grid, batch0, n, seed, track=None):
    """Sign-bit trajectories: sampling at |gamma|, sign flip on negative-rate jumps."""
    return run_menus(plqt_menu, me, psi0, grid, batch0, n, seed, weighted=True, track=track)
