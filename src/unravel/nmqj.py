"""Non-Markovian quantum jumps on an effective ensemble.

The ensemble is a list of buckets (count N_i, pure state psi_i) with
rho = sum_i (N_i/N) |psi_i><psi_i|. Positive-rate channels jump members
exactly as MCWF would. A negative-rate channel reverses earlier jumps: a
member sitting in bucket i (created by a direct jump j -> i through channel
a) moves back to j with per-member probability -(N_j/N_i) gamma_a
||L_a psi_j||^2 dt. Which bucket counts as "created by" is tracked in a
provenance map recorded at direct-jump time; a needed reversal whose source
bucket was never created or is now empty aborts with MissingTargetState,
which is the documented way this method announces it cannot unravel the
given dynamics from the given initial state. Demanded reverse flux is never
dropped silently. ``run_replica`` steps on one generator track, which the
engine shares between all replicas; ``nmqj_step`` is its step at one time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingTargetState, StepTooLarge, UnravelError
from .linalg import EPS, normalize
from .master_equation import GeneratorSnapshot, MasterEquation
from .outcomes import Jump, ReverseJump
from .propagate import TimeGrid
from .rng import replica_generator

__all__ = [
    "Bucket",
    "NmqjEnsemble",
    "nmqj_ensemble",
    "reverse_jump_probability",
    "nmqj_step",
    "run_replica",
]

_MERGE_FIDELITY = 1.0 - 1e-9
_SELF_FIDELITY = 1.0 - 1e-9


@dataclass
class Bucket:
    count: int
    state: np.ndarray


@dataclass
class NmqjEnsemble:
    """Buckets are append-only; ids are list indices and stay valid forever."""

    buckets: list[Bucket]
    provenance: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    # (child_id, channel) -> ids of buckets whose direct jumps created/fed child

    @property
    def total(self) -> int:
        return sum(b.count for b in self.buckets)

    def rho(self) -> np.ndarray:
        """sum_i (N_i/N) |psi_i><psi_i| over the populated buckets, in bucket
        order from zero, as a loop of ``+=`` sums it, bit for bit: an
        accumulation never sums pairwise (a reduction does when d = 1), and
        the trailing + 0 turns an all-(-0.0) entry into the loop's +0.0."""
        n = self.total
        live = [b for b in self.buckets if b.count]
        states = np.array([b.state for b in live])
        weights = np.array([b.count / n for b in live])
        outers = weights[:, None, None] * (states[:, :, None] * np.conj(states)[:, None, :])
        return np.add.accumulate(outers, axis=0)[-1] + 0.0

    def find(self, state: np.ndarray) -> int | None:
        for i, b in enumerate(self.buckets):
            if abs(np.vdot(b.state, state)) ** 2 >= _MERGE_FIDELITY:
                return i
        return None


def nmqj_ensemble(n: int, psi0: np.ndarray) -> NmqjEnsemble:
    return NmqjEnsemble([Bucket(int(n), np.asarray(psi0, dtype=complex).copy())])


def reverse_jump_probability(method_p: float, n_i: int, n_j: int) -> float:
    """p_{i->j} = -(N_j/N_i) * method_p, with method_p the (negative) direct
    probability evaluated at the target state."""
    if n_i == 0:
        raise ZeroDivisionError("reverse jump from an empty bucket (N_i = 0); caller must skip")
    return -(n_j / n_i) * method_p


def _check_reversibility(ens: NmqjEnsemble, snap: GeneratorSnapshot, neg: list[int], images: dict) -> None:
    # Every populated bucket j feeding a negative channel must have a
    # populated recorded child to pull members back from; a self-image is a
    # no-op. A child that has emptied cannot serve the demanded reverse flux,
    # so it counts as missing. ``images`` maps (j, a) of the populated
    # buckets to (||L_a psi_j||^2, L_a psi_j).
    for a in neg:
        for j, b in enumerate(ens.buckets):
            if b.count == 0:
                continue
            n2, y = images[(j, a)]
            if n2 <= EPS:
                continue
            if abs(np.vdot(b.state, y)) ** 2 >= _SELF_FIDELITY * n2:
                continue
            if not any(
                ens.buckets[i].count > 0 and j in ens.provenance.get((i, a), ())
                for i in range(len(ens.buckets))
            ):
                raise MissingTargetState(
                    f"negative rate on channel {a} at t={snap.t:.6g} must reverse jumps out of "
                    f"bucket {j}, but no populated bucket holds such jumps "
                    "(NMQJ inapplicable here)",
                    time=snap.t,
                )


def nmqj_step(
    me: MasterEquation, ens: NmqjEnsemble, t: float, dt: float, gen: np.random.Generator
) -> tuple[NmqjEnsemble, list]:
    """One synchronous step; returns the new ensemble and this step's events.
    The new ensemble shares nothing mutable with ``ens``."""
    own = NmqjEnsemble(ens.buckets, {k: set(v) for k, v in ens.provenance.items()})
    out, events, _ = _step(me.at(t), own, dt, gen)
    return out, events


def _step(snap: GeneratorSnapshot, ens: NmqjEnsemble, dt: float, gen: np.random.Generator):
    """``nmqj_step`` with the generator at the step's start time ``snap.t``,
    which takes over ``ens.provenance``: the returned ensemble holds and
    extends that dict. Returns (ensemble, events, whether a (child, channel,
    parent) provenance pair was added)."""
    t = snap.t
    pos = [a for a in range(len(snap.gammas)) if snap.gammas[a] > EPS]
    neg = [a for a in range(len(snap.gammas)) if snap.gammas[a] < -EPS]
    counts = [b.count for b in ens.buckets]
    states = [b.state for b in ens.buckets]
    # (bucket, channel) -> (||L_a psi_j||^2, L_a psi_j), for populated buckets:
    # only they jump, and a reverse jump into an empty one is skipped. The
    # stacked matmul gives each image the bits of L_a @ psi_j.
    norms2 = {}
    live = [j for j, c in enumerate(counts) if c]
    images = np.matmul(snap.ls[pos + neg][:, None], np.array([states[j] for j in live])[..., None])[..., 0]
    for a, row in zip(pos + neg, images):
        for j, y in zip(live, row):
            norms2[(j, a)] = (float(np.vdot(y, y).real), y)
    _check_reversibility(ens, snap, neg, norms2)

    # moves[(src, dst_resolver, channel, kind)] sampled per populated bucket
    new_counts = list(counts)
    pending_direct = []  # (src, channel, image, moved)
    events = []
    for i in range(len(states)):
        if counts[i] == 0:
            continue
        entries = []  # (prob, kind, channel, partner)
        for a in pos:
            n2, _y = norms2[(i, a)]
            p = snap.gammas[a] * n2 * dt
            if p > 0.0:
                entries.append((p, "direct", a, -1))
        for a in neg:
            for j in sorted(ens.provenance.get((i, a), ())):
                if counts[j] == 0:
                    continue  # reverse target empty: zero flux this step
                n2j, _ = norms2[(j, a)]
                p = reverse_jump_probability(snap.gammas[a] * n2j * dt, counts[i], counts[j])
                if p > 0.0:
                    entries.append((p, "reverse", a, j))
        total = sum(e[0] for e in entries)
        if total > 1.0:
            raise StepTooLarge(
                f"per-member move probability {total:.4g} > 1 at t={t:.6g}", time=t
            )
        if not entries:
            continue
        drawn = gen.multinomial(counts[i], [e[0] for e in entries] + [1.0 - total])
        for (p, kind, a, j), moved in zip(entries, drawn[:-1]):
            if moved == 0:
                continue
            if kind == "direct":
                pending_direct.append((i, a, norms2[(i, a)][1], int(moved)))
            else:
                new_counts[i] -= int(moved)
                new_counts[j] += int(moved)
                events.append(ReverseJump(source=i, target=j, channel=a, probability=p))

    out = NmqjEnsemble([Bucket(c, s) for c, s in zip(new_counts, states)], ens.provenance)
    added = False
    for (src, a, image, moved) in pending_direct:
        child_state = normalize(image)[0]
        child = out.find(child_state)
        if child is None:
            out.buckets.append(Bucket(0, child_state))
            child = len(out.buckets) - 1
        out.buckets[src].count -= moved
        out.buckets[child].count += moved
        parents = out.provenance.setdefault((child, a), set())
        added |= src not in parents
        parents.add(src)
        events.append(Jump(channel=a, probability=float("nan")))

    # deterministic drift of every bucket state, counts untouched
    now = np.array([b.state for b in out.buckets])
    for b, row in zip(out.buckets, now - 1j * dt * np.matmul(snap.k, now[..., None])[..., 0]):
        b.state = normalize(row)[0]
    assert out.total == ens.total, "member count must be conserved"
    if min(c.count for c in out.buckets) < 0:
        raise StepTooLarge(f"bucket overdrawn at t={t:.6g}; reduce dt", time=t)
    return out, events, added


def run_replica(
    me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, n_members: int, replica: int, seed: int, track=None
):
    """One independent NMQJ realization with its own member pool.

    Returns (sum-weighted rho series, counts, diagnostics, abort); the rho
    series carries sum_i N_i |psi_i><psi_i| so the engine can combine
    replicas exactly like trajectory sums. ``track`` is ``me.track`` over
    the grid's step starts (evaluated here if None); step k reads
    ``track[k]``.
    """
    gen = replica_generator(seed, replica)
    steps = grid.n_steps
    if track is None:
        track = me.track(grid.times()[:-1])
    ens = nmqj_ensemble(n_members, psi0)
    rho_sum = np.zeros((steps + 1, me.dim, me.dim), dtype=complex)
    rho_sum[0] = n_members * ens.rho()
    log = []
    seen_direct = set()  # (child, channel, parent) already logged
    n_jump = n_rev = 0
    abort = None
    for k in range(steps):
        try:
            ens, events, added = _step(track[k], ens, grid.dt, gen)
        except UnravelError as err:
            abort = (err, k)
            break
        for ev in events:
            if isinstance(ev, ReverseJump):
                n_rev += 1
                log.append((k, "reverse", ev.source, ev.target, ev.channel))
            else:
                n_jump += 1
        if added:
            for (child, a), parents in ens.provenance.items():
                for p in parents:
                    if (child, a, p) not in seen_direct:
                        seen_direct.add((child, a, p))
                        log.append((k, "direct", p, child, a))
        rho_sum[k + 1] = n_members * ens.rho()
    counts = {"jump": n_jump, "reverse_jump": n_rev, "deterministic": 0}
    return rho_sum, counts, {"event_log": log}, abort
