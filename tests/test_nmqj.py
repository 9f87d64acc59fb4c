"""Ensemble-correlated jumps: bucket bookkeeping and reverse-move rules."""

import numpy as np
import pytest

from unravel.errors import MissingTargetState, StepTooLarge
from unravel.linalg import trace_distance
from unravel.models import (
    KET0,
    KET1,
    MINUS,
    PLUS,
    delayed_negative_phase_covariant,
    eternally_nm,
)
from unravel.nmqj import (
    _Buckets,
    _merge,
    _step,
    Bucket,
    NmqjEnsemble,
    nmqj_ensemble,
    nmqj_step,
    reverse_jump_probability,
    run_replica,
)
from unravel.outcomes import ReverseJump
from unravel.propagate import TimeGrid, propagate
from unravel.rng import replica_generator

Z_CHANNEL = 2  # phase-covariant channel order: sigma_plus, sigma_minus, sigma_z


def test_reverse_probability_examples():
    assert reverse_jump_probability(-0.01, n_i=500, n_j=500) == pytest.approx(0.01)
    assert reverse_jump_probability(-0.005, n_i=600, n_j=300) == pytest.approx(0.0025)
    assert reverse_jump_probability(0.0, n_i=10, n_j=10) == 0.0


def test_reverse_probability_empty_bucket():
    with pytest.raises(ZeroDivisionError):
        reverse_jump_probability(-0.01, n_i=0, n_j=100)


def test_ensemble_accessors():
    ens = NmqjEnsemble([Bucket(3, KET0.copy()), Bucket(1, KET1.copy())])
    assert ens.total == 4
    assert np.allclose(ens.rho(), np.diag([0.75, 0.25]))


def test_rho_has_the_bits_of_a_summing_loop():
    """``rho`` sums the populated buckets in order from zero, as a loop of
    ``+=`` does, bit for bit: -0.0 entries included, and for d = 1 too,
    where a reduction would sum pairwise."""
    gen = np.random.default_rng(3)
    for _ in range(2000):
        d, n_buckets = int(gen.integers(1, 5)), int(gen.integers(1, 30))
        states = gen.standard_normal((n_buckets, d)) + 1j * gen.standard_normal((n_buckets, d))
        states.real[gen.random(states.shape) < 0.3] = -0.0
        states.imag[gen.random(states.shape) < 0.3] = -0.0
        counts = gen.integers(0, 5, n_buckets)
        counts[0] += counts.sum() == 0
        ens = NmqjEnsemble([Bucket(int(c), s) for c, s in zip(counts, states)])
        want = np.zeros((d, d), dtype=complex)
        for b in ens.buckets:
            if b.count:
                want += (b.count / ens.total) * np.outer(b.state, np.conj(b.state))
        assert ens.rho().tobytes() == want.tobytes()


def test_single_bucket_step_conserves_members():
    me = delayed_negative_phase_covariant()
    ens = nmqj_ensemble(500, PLUS)
    gen = replica_generator(3, 0)
    stepped, events = nmqj_step(me, ens, 0.1, 1e-2, gen)  # all rates positive here
    assert stepped.total == 500
    assert all(not isinstance(e, ReverseJump) for e in events)
    assert all(b.count >= 0 for b in stepped.buckets)


def test_direct_jump_records_provenance_and_merges():
    me = delayed_negative_phase_covariant()
    ens = nmqj_ensemble(4000, PLUS)
    gen = replica_generator(11, 0)
    stepped, _events = nmqj_step(me, ens, 0.1, 1e-2, gen)
    assert len(stepped.buckets) > 1
    for (child, _a), parents in stepped.provenance.items():
        assert 0 in parents
        assert child != 0
    # a second step must reuse existing buckets for repeat targets
    again, _ = nmqj_step(me, stepped, 0.11, 1e-2, gen)
    assert again.total == 4000


def test_negative_channel_without_history_aborts():
    me = eternally_nm()
    ens = nmqj_ensemble(100, PLUS)
    with pytest.raises(MissingTargetState):
        nmqj_step(me, ens, 0.5, 1e-2, replica_generator(1, 0))


def test_empty_reverse_target_is_skipped():
    # provenance exists but the child bucket holds zero members: the
    # demanded reverse flux has no source, so the step must abort with the
    # documented error instead of dividing by zero or dropping the flux
    me = eternally_nm()
    ens = NmqjEnsemble(
        [Bucket(100, PLUS.copy()), Bucket(0, MINUS.copy())],
        provenance={(1, Z_CHANNEL): {0}, (0, Z_CHANNEL): {1}},
    )
    with pytest.raises(MissingTargetState) as exc:
        nmqj_step(me, ens, 0.5, 1e-4, replica_generator(2, 0))
    assert exc.value.time == 0.5


def test_reverse_moves_flow_back_to_parent():
    me = eternally_nm()
    # half the pool already sits in the dephasing image; with g_z < 0 the
    # image bucket must leak members back toward its parent
    ens = NmqjEnsemble(
        [Bucket(50_000, PLUS.copy()), Bucket(50_000, MINUS.copy())],
        provenance={(1, Z_CHANNEL): {0}, (0, Z_CHANNEL): {1}},
    )
    stepped, events = nmqj_step(me, ens, 2.0, 1e-2, replica_generator(5, 0))
    rev = [e for e in events if isinstance(e, ReverseJump)]
    assert rev, "negative dephasing rate must generate reverse moves"
    assert {(e.source, e.target) for e in rev} <= {(0, 1), (1, 0)}
    assert stepped.total == 100_000
    # |g_z(2)| ~ 0.48: expect ~480 moves each way out of 50k at dt = 1e-2
    moved = sum(1 for e in events if isinstance(e, ReverseJump))
    assert moved == 2


def test_replica_abort_on_fresh_negative_rate():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.0, 1e-2)
    _rho, counts, diag, abort = run_replica(me, PLUS, grid, 50, replica=0, seed=7)
    assert abort is not None
    err, step = abort
    assert isinstance(err, MissingTargetState)
    assert step == 1  # g_z(0) = 0, the very next step has g_z < 0
    assert err.time == pytest.approx(grid.dt)
    assert counts["reverse_jump"] == 0
    # step 0 still runs (all rates vanish or stay positive at t = 0)
    assert all(entry[0] == 0 and entry[1] == "direct" for entry in diag["event_log"])


def test_replica_tracks_oracle_through_positive_window():
    me = delayed_negative_phase_covariant()
    grid = TimeGrid(0.0, 0.5, 1e-2)  # g_z stays positive below pi/4
    n = 3000
    rho_sum, counts, diag, abort = run_replica(me, PLUS, grid, n, replica=0, seed=42)
    assert abort is None
    assert counts["jump"] > 0
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    dists = [trace_distance(rho_sum[k] / n, oracle.states[k]) for k in range(grid.n_steps + 1)]
    assert max(dists) < 0.06
    kinds = {entry[1] for entry in diag["event_log"]}
    assert kinds == {"direct"}


def test_replica_reverse_events_reference_prior_directs():
    me = delayed_negative_phase_covariant()
    grid = TimeGrid(0.0, 1.2, 1e-2)  # crosses into the negative window
    _rho, counts, diag, abort = run_replica(me, PLUS, grid, 4000, replica=1, seed=9)
    assert abort is None
    assert counts["reverse_jump"] > 0
    directs = set()
    for entry in diag["event_log"]:
        step, kind = entry[0], entry[1]
        if kind == "direct":
            parent, child, channel = entry[2], entry[3], entry[4]
            directs.add((child, channel, parent))
        else:
            source, target, channel = entry[2], entry[3], entry[4]
            assert (source, channel, target) in directs, (
                f"reverse move at step {step} lacks a recorded direct jump"
            )


def test_step_leaves_its_input_ensemble_unchanged():
    me = delayed_negative_phase_covariant()
    gen = replica_generator(11, 0)
    first, _ = nmqj_step(me, nmqj_ensemble(4000, PLUS), 0.1, 1e-2, gen)
    before = {k: set(v) for k, v in first.provenance.items()}
    counts = [b.count for b in first.buckets]
    second, _ = nmqj_step(me, first, 0.11, 1e-2, gen)
    assert second.provenance is not first.provenance
    assert all(second.provenance[k] is not first.provenance[k] for k in first.provenance)
    assert first.provenance == before
    assert [b.count for b in first.buckets] == counts


def test_replica_log_is_that_of_a_scan_at_every_step():
    """``run_replica`` logs the provenance entries each step adds, sorted in
    stacked arrays; stepping the one-replica view (``nmqj_step``) and
    scanning its provenance map at every step logs the same entries in the
    same order, beside the same reverse moves. In steps 4 to 6 one key
    gains two parents, and two new keys' first jumps come against their
    (child, channel) order; those steps log what a provenance scan of the
    one-replica-at-a-time stepper logged. Its parent ids are below 8, where
    a Python set of ints iterates them in ascending order, as
    ``_merge`` sorts them."""
    me = delayed_negative_phase_covariant()
    grid = TimeGrid(0.0, 1.2, 1e-2)
    _rho, _counts, diag, _abort = run_replica(me, PLUS, grid, 2000, replica=0, seed=2)
    gen, ens = replica_generator(2, 0), nmqj_ensemble(2000, PLUS)
    log, seen = [], set()
    for k, t in enumerate(grid.times()[:-1]):
        ens, events = nmqj_step(me, ens, t, grid.dt, gen)
        log += [(k, "reverse", e.source, e.target, e.channel) for e in events if isinstance(e, ReverseJump)]
        for (child, a), parents in ens.provenance.items():
            for p in parents:
                if (child, a, p) not in seen:
                    seen.add((child, a, p))
                    log.append((k, "direct", p, child, a))
    assert [e for e in diag["event_log"] if 4 <= e[0] <= 6 and e[1] == "direct"] == [
        (4, "direct", 1, 2, 1), (4, "direct", 3, 2, 1),
        (5, "direct", 2, 2, 2), (5, "direct", 3, 0, 2),
        (6, "direct", 2, 1, 0), (6, "direct", 3, 1, 0), (6, "direct", 1, 1, 2),
    ]
    assert any(entry[1] == "reverse" for entry in diag["event_log"])
    assert diag["event_log"] == log


def test_a_tile_reports_its_first_failing_replica_as_it_fails_alone():
    """A tile's step raises the error of its first failing replica, the one
    that replica raises alone: a missing reverse target, or a move
    probability above 1 (a child of one member whose parent holds 10^6
    demands a reverse flux of 4800 a member), whichever comes first. Inside
    a replica the missing target comes before a move probability above 1."""
    me, t, dt = eternally_nm(), 2.0, 1e-2
    history = {(1, Z_CHANNEL): {0}, (0, Z_CHANNEL): {1}}
    fine = NmqjEnsemble([Bucket(50_000, PLUS.copy()), Bucket(50_000, MINUS.copy())], history)
    missing = nmqj_ensemble(100, PLUS)
    too_large = NmqjEnsemble([Bucket(10**6, PLUS.copy()), Bucket(1, MINUS.copy())], history)
    alone = {}
    for name, ens in (("missing", missing), ("too_large", too_large)):
        with pytest.raises((MissingTargetState, StepTooLarge)) as info:
            nmqj_step(me, ens, t, dt, replica_generator(1, 0))
        alone[name] = (type(info.value), str(info.value), info.value.time)
    assert alone["missing"][0] is MissingTargetState and alone["too_large"][0] is StepTooLarge
    with pytest.raises(MissingTargetState):  # its direct jumps alone have probability 100 a member
        nmqj_step(me, missing, t, 100.0, replica_generator(1, 0))
    nmqj_step(me, fine, t, dt, replica_generator(1, 0))
    for order in (("fine", "too_large", "missing"), ("fine", "missing", "too_large")):
        ensembles = {"fine": fine, "missing": missing, "too_large": too_large}
        tile = _Buckets.of([ensembles[name] for name in order], len(me.channels))
        with pytest.raises((MissingTargetState, StepTooLarge)) as info:
            _step(me.at(t), tile, dt, [replica_generator(1, r) for r in range(3)])
        assert (type(info.value), str(info.value), info.value.time) == alone[order[1]]


def test_merge_logs_by_replica_then_key_rank_then_parent():
    """Replica 0 holds ten buckets, more than a small Python set's eight
    slots. In one step its parents 2 and 9 jump into one new key and parent
    5 into a second, ranked after it; replica 1's parent 0 joins a third.
    The entries come by replica, then key rank, then parent id ascending,
    also when parent 9's jump arrives before parent 2's."""
    angles = np.linspace(0.1, 1.4, 10)
    states = [np.array([np.cos(x), np.sin(x)], dtype=complex) for x in angles]

    def tile():
        return _Buckets.of([NmqjEnsemble([Bucket(10, s) for s in ss], {}) for ss in (states, states[:3])], 2)

    # KET0 and MINUS match no bucket; replica 0 opens buckets 10 and 11 for them
    jr, js, channel = np.array([0, 0, 0, 1]), np.array([2, 5, 9, 0]), np.array([0, 1, 0, 0])
    images = np.array([KET0, MINUS, KET0, KET0])
    want = [(0, 2, 10, 0), (0, 9, 10, 0), (0, 5, 11, 1), (1, 0, 3, 0)]
    b = tile()
    child, entries = _merge(b, jr, js, channel, images)
    assert child.tolist() == [10, 11, 10, 3]
    assert list(zip(*(e.tolist() for e in entries))) == want
    assert b.ensemble(0).provenance == {(10, 0): {2, 9}, (11, 1): {5}}
    # parent 9 first, and replica 1's jump before parent 5's: the same log
    order = [2, 0, 3, 1]
    _child, entries = _merge(tile(), jr[order], js[order], channel[order], images[order])
    assert list(zip(*(e.tolist() for e in entries))) == want
