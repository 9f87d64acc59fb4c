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
dropped silently.

``run_replica`` steps the consecutive replicas of one engine tile together
on one generator track, which the engine shares between all tiles. Their
buckets are stacked arrays padded to a common bucket count (``_Buckets``):
states (R, B, d), counts (R, B) and the provenance as a boolean
(R, child, channel, parent) array. A step is a fixed set of stacked numpy
calls plus one multinomial draw per populated bucket with a move, from its
replica's own stream, so every replica gets the bits it gets alone. Each
replica's bucket sum sum_i N_i |psi_i><psi_i| is one
``linalg.weighted_outer_sum`` over its buckets, and a step logs its reverse
moves first, then the provenance entries its direct jumps add, in
(child, channel, parent) index order.
``nmqj_step`` is the same step for one ensemble held as ``Bucket`` records
(``NmqjEnsemble``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingTargetState, StepTooLarge, UnravelError
from .linalg import EPS, normalize_rows, weighted_outer_sum
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
        """sum_i (N_i/N) |psi_i><psi_i| over the buckets."""
        counts = np.array([b.count for b in self.buckets])
        return weighted_outer_sum(np.array([b.state for b in self.buckets]).T, counts) / self.total


def nmqj_ensemble(n: int, psi0: np.ndarray) -> NmqjEnsemble:
    return NmqjEnsemble([Bucket(int(n), np.asarray(psi0, dtype=complex).copy())])


def reverse_jump_probability(method_p, n_i, n_j):
    """p_{i->j} = -(N_j/N_i) * method_p, with method_p the (negative) direct
    probability evaluated at the target state; elementwise for arrays."""
    if np.any(np.asarray(n_i) == 0):
        raise ZeroDivisionError("reverse jump from an empty bucket (N_i = 0); caller must skip")
    return -(n_j / n_i) * method_p


def _fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a|b>|^2 over the last axis, broadcast: the bits of Python's
    ``abs(np.vdot(a, b)) ** 2`` for each pair."""
    return np.float_power(np.abs(np.vecdot(a, b)), 2)


@dataclass
class _Buckets:
    """The buckets of R replicas, padded to a common capacity B.

    Replica r holds buckets 0 .. size[r] - 1 of ``states`` (R, B, d) and
    ``counts`` (R, B); padding slots hold zero states and counts.
    ``prov[r, child, a, parent]`` records a direct jump parent -> child on
    channel a.
    """

    states: np.ndarray
    counts: np.ndarray
    size: np.ndarray
    prov: np.ndarray

    @classmethod
    def of(cls, ensembles: list[NmqjEnsemble], channels: int) -> "_Buckets":
        """The ensembles as the replicas of one tile, copied."""
        cap, d = max(len(e.buckets) for e in ensembles), len(ensembles[0].buckets[0].state)
        n_rep = len(ensembles)
        b = cls(np.zeros((n_rep, cap, d), dtype=complex), np.zeros((n_rep, cap), dtype=np.int64),
                np.array([len(e.buckets) for e in ensembles]), np.zeros((n_rep, cap, channels, cap), dtype=bool))
        for r, ens in enumerate(ensembles):
            n = len(ens.buckets)
            b.states[r, :n] = [x.state for x in ens.buckets]
            b.counts[r, :n] = [x.count for x in ens.buckets]
            for (child, a), parents in ens.provenance.items():
                b.prov[r, child, a, sorted(parents)] = True
        return b

    def ensemble(self, r: int) -> NmqjEnsemble:
        """Replica r as an ensemble that shares no array with these, its
        provenance keys in (child, channel) order."""
        n = int(self.size[r])
        buckets = [Bucket(int(c), s.copy()) for c, s in zip(self.counts[r, :n], self.states[r, :n])]
        return NmqjEnsemble(buckets, {
            (int(c), int(a)): set(np.flatnonzero(self.prov[r, c, a]).tolist())
            for c, a in zip(*np.nonzero(self.prov[r].any(axis=2)))
        })

    def grow(self) -> None:
        """Double the capacity."""
        n_rep, cap, d = self.states.shape
        channels = self.prov.shape[2]
        states = np.zeros((n_rep, 2 * cap, d), dtype=complex)
        counts = np.zeros((n_rep, 2 * cap), dtype=np.int64)
        prov = np.zeros((n_rep, 2 * cap, channels, 2 * cap), dtype=bool)
        states[:, :cap], counts[:, :cap], prov[:, :cap, :, :cap] = self.states, self.counts, self.prov
        self.states, self.counts, self.prov = states, counts, prov


def _merge(b: _Buckets, jr, js, channel, states):
    """Direct jumps (replica jr, parent js, channel) with normalized images
    ``states``, in one replica's order: the child bucket of each, the first
    (populated or not) whose state matches its image, else a new one opened
    for it, and the (replica, parent, child, channel) provenance entries
    they add, recorded in ``b.prov``. The entries come in (replica, child,
    channel, parent) index order."""
    match = _fidelity(b.states[jr], states[:, None]) >= _MERGE_FIDELITY
    match &= np.arange(b.states.shape[1]) < b.size[jr, None]
    child = match.argmax(axis=1)
    found = match.any(axis=1)
    if not found.all():
        opened = b.size.copy()
        for q in np.flatnonzero(~found):
            # no bucket from before the step matches: one opened earlier in
            # this step may, else this image opens one
            r = jr[q]
            fresh = _fidelity(b.states[r, opened[r]:b.size[r]], states[q]) >= _MERGE_FIDELITY
            if fresh.any():
                child[q] = opened[r] + fresh.argmax()
                continue
            if b.size[r] == b.states.shape[1]:
                b.grow()
            child[q] = b.size[r]
            b.states[r, child[q]] = states[q]
            b.size[r] += 1
    new = np.flatnonzero(~b.prov[jr, child, channel, js])
    b.prov[jr, child, channel, js] = True
    new = new[np.lexsort((js[new], channel[new], child[new], jr[new]))]
    return child, (jr[new], js[new], child[new], channel[new])


def _step(snap: GeneratorSnapshot, b: _Buckets, dt: float, gens):
    """One synchronous step of every replica of ``b``, updated in place;
    replica r draws from ``gens[r]``, one multinomial call for each of its
    populated buckets with a move, in bucket order.

    Returns (reverse, jumps, added): the reverse moves as arrays (replica,
    source, target, channel, probability) in the order one replica alone
    makes them (source, then channel, then target); the direct jumps as
    (replica, channel), in (replica, parent, channel) order; and the
    (replica, parent, child, channel) provenance entries the step added, in
    the order of ``_merge``.

    Raises the error of the first replica that fails. Inside a replica the
    order is one replica's: the reversibility check, then a move
    probability above 1 (first bucket), then a zero vector (merging, then
    drift), then an overdrawn bucket.
    """
    t = snap.t
    n_rep, cap, _ = b.states.shape
    gammas = snap.gammas.tolist()
    pos = np.array([a for a, g in enumerate(gammas) if g > EPS], dtype=np.intp)
    neg = np.array([a for a, g in enumerate(gammas) if g < -EPS], dtype=np.intp)
    n_pos, n_neg = len(pos), len(neg)
    counts = b.counts
    live = counts > 0
    members = counts.sum(axis=1)
    errors: dict[int, UnravelError] = {}
    # images L_a psi_j (R, B, channel, d), positive channels first, and their
    # squared norms: the stacked matmul gives the bits of L_a @ psi_j and
    # vecdot those of np.vdot
    images = np.matmul(snap.ls[np.concatenate([pos, neg])], b.states[:, :, None, :, None])[..., 0]
    norms2 = np.vecdot(images, images).real

    # per-member move probabilities of each populated bucket, in one
    # replica's order: direct jumps by channel, then reverse moves by
    # channel and target; zero where a move does not apply
    probs = snap.gammas[pos] * norms2[..., :n_pos] * dt
    probs = np.where(live[..., None] & (probs > 0.0), probs, 0.0)
    if n_neg:
        # Every populated bucket j feeding a negative channel must have a
        # populated recorded child to pull members back from; a self-image is
        # a no-op. A child that has emptied cannot serve the demanded reverse
        # flux, so it counts as missing.
        n2 = norms2[..., n_pos:]
        fid = _fidelity(b.states[:, :, None], images[:, :, n_pos:])
        held = (b.prov[:, :, neg] & live[:, :, None, None]).any(axis=1)  # (R, channel, parent)
        missing = (live[..., None] & (n2 > EPS) & ~(fid >= _SELF_FIDELITY * n2)).transpose(0, 2, 1) & ~held
        for r in np.flatnonzero(missing.any(axis=(1, 2))):
            a, j = divmod(int(missing[r].argmax()), cap)
            errors[int(r)] = MissingTargetState(
                f"negative rate on channel {neg[a]} at t={t:.6g} must reverse jumps out of "
                f"bucket {j}, but no populated bucket holds such jumps "
                "(NMQJ inapplicable here)",
                time=t,
            )
        back = reverse_jump_probability(
            (snap.gammas[neg] * n2 * dt).transpose(0, 2, 1)[:, None],  # [r, _, a, j]
            np.where(live, counts, 1)[:, :, None, None],
            counts[:, None, None, :],
        )
        applies = b.prov[:, :, neg] & live[:, :, None, None] & live[:, None, None, :] & (back > 0.0)
        back = np.where(applies, back, 0.0)
        probs = np.concatenate([probs, back.reshape(n_rep, cap, n_neg * cap)], axis=2)
    moved = np.zeros(probs.shape, dtype=np.int64)
    if probs.shape[2]:
        # an accumulation sums in slot order, as one replica's loop does; the
        # zero slots leave every partial sum as it is
        total = np.add.accumulate(probs, axis=2)[..., -1]
        for r in np.flatnonzero((total > 1.0).any(axis=1)):
            first = total[r, (total[r] > 1.0).argmax()]
            errors.setdefault(int(r), StepTooLarge(f"per-member move probability {first:.4g} > 1 at t={t:.6g}", time=t))
        # each bucket with a move draws over its moves (its nonzero slots,
        # which np.nonzero lists bucket by bucket), as one replica's loop does
        dr, di, ds = np.nonzero(probs)
        heads = np.flatnonzero(np.diff(dr * cap + di, prepend=-1))
        ends = [*heads[1:].tolist(), len(ds)]
        p, drawn = probs[dr, di, ds].tolist(), []
        for a, z, r, i in zip(heads.tolist(), ends, dr[heads].tolist(), di[heads].tolist()):
            if r in errors:
                drawn += [0] * (z - a)
            else:
                drawn += gens[r].multinomial(counts[r, i], p[a:z] + [1.0 - total[r, i]])[:-1].tolist()
        moved[dr, di, ds] = drawn

    if n_neg:
        returned = moved[..., n_pos:].reshape(n_rep, cap, n_neg, cap)
        rr, ri, ra, rj = np.nonzero(returned)
        reverse = (rr, ri, rj, neg[ra], back[rr, ri, ra, rj])
        b.counts = counts - returned.sum(axis=(2, 3)) + returned.sum(axis=(1, 2))
    else:
        reverse = (np.zeros(0, dtype=np.intp),) * 4 + (np.zeros(0),)

    # direct jumps: each moves its members into the first bucket (populated
    # or not) whose state matches the normalized image, or a new one
    jr, js, ja = np.nonzero(moved[..., :n_pos])
    added = (jr[:0],) * 4
    if len(jr):
        jm = moved[jr, js, ja]
        image, bad = normalize_rows(images[jr, js, ja])
        if bad is not None:
            errors.setdefault(int(jr[bad[0]]), bad[1])
        if errors:
            # only the first failing replica's error is raised: the replicas
            # after it need not step on
            keep = jr < min(errors)
            jr, js, ja, jm, image = jr[keep], js[keep], ja[keep], jm[keep], image[keep]
        child, added = _merge(b, jr, js, pos[ja], image)
        np.subtract.at(b.counts, (jr, js), jm)
        np.add.at(b.counts, (jr, child), jm)

    # deterministic drift of every bucket state, counts untouched
    exists = np.arange(b.states.shape[1]) < b.size[:, None]
    rows = b.states[exists]
    rows, bad = normalize_rows(rows - 1j * dt * np.matmul(snap.k, rows[..., None])[..., 0])
    if bad is not None:
        errors.setdefault(int(np.nonzero(exists)[0][bad[0]]), bad[1])
    b.states[exists] = rows
    assert (b.counts.sum(axis=1) == members).all(), "member count must be conserved"
    for r in np.flatnonzero((b.counts < 0).any(axis=1)):
        errors.setdefault(int(r), StepTooLarge(f"bucket overdrawn at t={t:.6g}; reduce dt", time=t))
    if errors:
        raise errors[min(errors)]
    return reverse, (jr, pos[ja]), added


def nmqj_step(
    me: MasterEquation, ens: NmqjEnsemble, t: float, dt: float, gen: np.random.Generator
) -> tuple[NmqjEnsemble, list]:
    """One synchronous step, ``run_replica``'s for one replica; returns the
    new ensemble and this step's events (reverse moves, then direct jumps).
    The new ensemble shares nothing mutable with ``ens``."""
    snap = me.at(t)
    b = _Buckets.of([ens], len(snap.gammas))
    (_, source, target, channel, p), (_, jumped), _ = _step(snap, b, dt, [gen])
    events = [
        ReverseJump(source=i, target=j, channel=a, probability=q)
        for i, j, a, q in zip(source.tolist(), target.tolist(), channel.tolist(), p.tolist())
    ]
    events += [Jump(channel=a, probability=float("nan")) for a in jumped.tolist()]
    return b.ensemble(0), events


def run_replica(me: MasterEquation, psi0: np.ndarray, grid: TimeGrid, batch0: int, sizes, seed: int, track):
    """Independent NMQJ realizations of the consecutive replicas batch0,
    batch0 + 1, ... of ``sizes`` members each (a tile of an ensemble; each
    replica starts as one bucket, a row of the tile, so the engine steps all
    of an ensemble's replicas in one call), each with its own member pool,
    stepped on ``track`` (``me.track`` over the grid's step starts; step k
    reads ``track[k]``).

    Returns (rho_sum, counts, diagnostics, abort); rho_sum has a leading
    replica axis, its rows carry sum_i N_i |psi_i><psi_i| so the engine can
    combine replicas exactly like trajectory sums, the diagnostics hold
    ``event_logs``, one per replica, and abort is None or (err, k) for the
    first replica that fails, at the first step k at which one does. The
    replicas step together, each drawing from its own ``replica_generator``
    in the order one replica alone draws, so every replica's series and log
    are the ones it gives alone.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    gens = [replica_generator(seed, batch0 + r) for r in range(len(sizes))]
    steps = grid.n_steps
    b = _Buckets.of([nmqj_ensemble(n, psi0) for n in sizes], len(me.channels))
    rho_sum = np.zeros((len(sizes), steps + 1, me.dim, me.dim), dtype=complex)
    rho_sum[:, 0] = weighted_outer_sum(np.swapaxes(b.states, 1, 2), b.counts)
    logs: list[list] = [[] for _ in sizes]
    n_jump = n_rev = 0
    abort = None
    for k in range(steps):
        try:
            (rr, ri, rj, ra, _), (jr, _), added = _step(track[k], b, grid.dt, gens)
        except UnravelError as err:
            abort = (err, k)
            break
        n_rev += len(rr)
        n_jump += len(jr)
        for r, i, j, a in zip(rr.tolist(), ri.tolist(), rj.tolist(), ra.tolist()):
            logs[r].append((k, "reverse", i, j, a))
        for r, parent, child, a in zip(*(x.tolist() for x in added)):
            logs[r].append((k, "direct", parent, child, a))
        rho_sum[:, k + 1] = weighted_outer_sum(np.swapaxes(b.states, 1, 2), b.counts)
    counts = {"jump": n_jump, "reverse_jump": n_rev, "deterministic": 0}
    return rho_sum, counts, {"event_logs": logs}, abort
