"""Auxiliary-level embedding: factor pairs, completion operator, extraction."""

from collections import Counter

import numpy as np
import pytest

from unravel.errors import DegenerateBlock, NotHermitian, NotPSD
from unravel.linalg import haar_state, hermitize, trace_distance
from unravel.master_equation import MasterEquation, master_equation
from unravel.models import (
    PLUS,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    delayed_negative_phase_covariant,
    eternally_nm,
    spontaneous_emission,
)
from unravel.propagate import TimeGrid, propagate
from unravel.tripled import (
    JumpPair,
    _extract_hermitized,
    default_completion_level,
    embedded_master_equation,
    embedded_system,
    embedded_track,
    pairs_from_master_equation,
    run_chunk,
    tripled_embed,
    tripled_extract,
)

TRACK_FIELDS = ("h", "ls", "gammas", "gamma_l", "gamma_drift", "k")


def _omega_of(jump3, t, d):
    # the third embedded jump is kron(Omega, |aux2><aux0|)
    return jump3(t).reshape(d, 3, d, 3)[:, 2, :, 0]


def signed_decay(gamma):
    return master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, gamma, "down")])


def test_pair_factors_split_the_rate():
    pairs = pairs_from_master_equation(signed_decay(0.8))
    (pair,) = pairs
    assert pair.label == "down"
    root = np.sqrt(0.4)
    assert np.allclose(pair.c(0.0), root * SIGMA_MINUS)
    assert np.allclose(pair.d(0.0), root * SIGMA_MINUS)

    (neg,) = pairs_from_master_equation(signed_decay(-0.5))
    assert np.allclose(neg.c(0.0), 0.5 * SIGMA_MINUS)
    assert np.allclose(neg.d(0.0), -0.5 * SIGMA_MINUS)


def test_completion_operator_for_unit_difference():
    (pair,) = pairs_from_master_equation(signed_decay(-0.5))  # C - D = sigma_minus
    a = default_completion_level(pair)
    assert a(0.0) == pytest.approx(1.0)
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), (pair,), 2, np.eye(2) / 2)
    omega = _omega_of(emb.jumps3[2], 0.0, 2)
    assert np.allclose(omega, np.diag([1.0, 0.0]), atol=1e-12)


def test_completion_identity_holds_with_default_level():
    pairs = pairs_from_master_equation(eternally_nm())
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), pairs, 2, np.eye(2) / 2)
    for t in (0.3, 1.0, 2.7):
        for i, pair in enumerate(pairs):
            a = default_completion_level(pair)(t)
            diff = pair.c(t) - pair.d(t)
            omega = _omega_of(emb.jumps3[4 * i + 2], t, 2)
            lhs = omega.conj().T @ omega + diff.conj().T @ diff
            assert np.allclose(lhs, a * np.eye(2), atol=1e-10)


def test_custom_level_is_broadcast_and_validated():
    (pair,) = pairs_from_master_equation(signed_decay(-0.5))
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), (pair,), 2, np.eye(2) / 2, a=lambda t: 2.0)
    omega = _omega_of(emb.jumps3[2], 0.0, 2)
    assert np.allclose(omega, np.diag([np.sqrt(2.0), 1.0]), atol=1e-12)
    assert emb.a(0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        tripled_embed(lambda t: np.zeros((2, 2)), (pair, pair), 2, np.eye(2) / 2, a=(lambda t: 1.0,))


def test_initial_state_extracts_to_rho0():
    rng = np.random.default_rng(23)
    psi = haar_state(2, rng)
    rho0 = np.outer(psi, psi.conj())
    _, w0 = tripled_embed(lambda t: np.zeros((2, 2)), (), 2, rho0)
    assert np.trace(w0) == pytest.approx(1.0)
    assert np.allclose(tripled_extract(w0), rho0, atol=1e-14)


def test_extraction_rejects_decayed_block():
    rho = np.eye(2) / 2
    w = np.kron(rho, np.diag([0.5, 0.5, 0.0]))  # no 01 coherence left
    with pytest.raises(DegenerateBlock):
        tripled_extract(w)


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_extraction_is_the_extraction_of_each_hermitized_w(d):
    """Bit for bit ``tripled_extract(hermitize(w))`` matrix by matrix, which
    is the block over its trace; NaN where the block trace is at the floor,
    with the message the one-matrix call gives for the first such W."""
    gen = np.random.default_rng(31)
    ws = gen.standard_normal((4, 6, 3 * d, 3 * d)) + 1j * gen.standard_normal((4, 6, 3 * d, 3 * d))
    ws[2, 1] *= 1e-14
    ws[3, 0] *= 1e-14
    ws[1, 5] *= 1e-15
    out, (idx, err) = _extract_hermitized(ws)
    assert idx == (1, 5)
    with pytest.raises(DegenerateBlock) as first:
        tripled_extract(hermitize(ws[1, 5]))
    assert str(err) == str(first.value)
    for i, k in np.ndindex(4, 6):
        if (i, k) in ((2, 1), (3, 0), (1, 5)):
            assert np.isnan(out[i, k]).all()
            continue
        block = hermitize(ws[i, k]).reshape(d, 3, d, 3)[:, 0, :, 1]
        want = tripled_extract(hermitize(ws[i, k]))
        assert np.array_equal(want, block / np.trace(block))
        assert np.array_equal(out[i, k], want)
    assert _extract_hermitized(ws[0])[1] is None


def test_embedded_equation_reproduces_signed_dynamics_exactly():
    me = eternally_nm()
    grid = TimeGrid(0.0, 1.5, 1e-2)
    pairs = pairs_from_master_equation(me)
    rho0 = np.outer(PLUS, PLUS.conj())
    emb, w0 = tripled_embed(lambda t: me.at(t).h, pairs, 2, rho0)
    me3 = embedded_master_equation(emb)
    assert [ch.label for ch in me3.channels] == [f"embedded_{i}" for i in range(12)]
    assert all(ch.rate(0.7) == 1.0 for ch in me3.channels)

    big = propagate(me3, w0, grid)
    ref = propagate(me, rho0, grid)
    for k, t in enumerate(grid.times()):
        w = big.states[k]
        assert np.trace(w).real == pytest.approx(1.0, abs=1e-9)
        assert trace_distance(tripled_extract(w), ref.states[k]) < 1e-7
        # the readout block starts at 1/2 and shrinks as exp(-int a);
        # here a(t) = 2|g_z| = tanh(t), so the integral is log cosh
        block_tr = np.trace(w.reshape(2, 3, 2, 3)[:, 0, :, 1])
        assert abs(block_tr) == pytest.approx(0.5 / np.cosh(t), abs=1e-6)


def test_embedding_evaluates_the_model_once_per_time(monkeypatch):
    """The embedding's pieces (H, every C, D, Omega and level) share one
    evaluation of the model per time; they used to make 37 each."""
    me = eternally_nm()
    calls = Counter()
    evaluate = MasterEquation._evaluate

    def counting(self, t):
        calls[(id(self), float(t))] += 1
        return evaluate(self, t)

    monkeypatch.setattr(MasterEquation, "_evaluate", counting)
    times = (0.1, 0.2, 0.3)
    embedded_system(me).track(times)
    assert {t: n for (system, t), n in calls.items() if system == id(me)} == dict.fromkeys(times, 1)
    calls.clear()
    pairs = pairs_from_master_equation(me)
    for t in (0.4, 0.5):
        for pair in pairs:
            pair.c(t), pair.d(t)
    assert calls == Counter({(id(me), 0.4): 1, (id(me), 0.5): 1})


def test_chunk_on_markovian_model_matches_oracle():
    me = spontaneous_emission(omega0=1.0, gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    n = 800
    rho_sum, counts, _diag, abort = run_chunk(me, PLUS, grid, idx0=0, n=n, seed=13)
    assert abort is None
    assert rho_sum.shape == (grid.n_steps + 1, 6, 6)
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    dists = [
        trace_distance(tripled_extract(rho_sum[k] / n), oracle.states[k])
        for k in range(grid.n_steps + 1)
    ]
    assert max(dists) < 0.1
    assert counts["jump"] > 0


def test_chunk_division_noise_grows_with_negative_window():
    me = eternally_nm()
    grid = TimeGrid(0.0, 0.5, 1e-2)
    n = 3000
    rho_sum, _counts, _diag, abort = run_chunk(me, PLUS, grid, idx0=0, n=n, seed=29)
    assert abort is None
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    dists = [
        trace_distance(tripled_extract(rho_sum[k] / n), oracle.states[k])
        for k in range(grid.n_steps + 1)
    ]
    assert max(dists) < 0.15


def _driven_complex_model():
    """Complex, time-dependent H and jump operators; rates of both signs."""
    return master_equation(
        2,
        lambda t: 0.3 * SIGMA_Z + np.cos(t) * np.array([[0.0, 0.2 - 0.7j], [0.2 + 0.7j, 0.0]]),
        [
            (lambda t: np.array([[0.1j, -0.5 + 0.2j * t], [1.0, -0.3j]]), lambda t: np.cos(3.0 * t), "a"),
            (SIGMA_Z, -0.2, "z"),
            (SIGMA_MINUS, lambda t: 1.0 - t, "down"),
        ],
    )


def _same_track(got, want):
    assert len(got.h) == len(want.h)
    for name in TRACK_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _level_rounding_model():
    """A rate whose completion level ||C - D||^2 = (sqrt(2|g|))^2 rounds up
    as float ** 2 (which the closures use) against x * x, so Omega is
    nonzero only if the track squares the same way."""
    return master_equation(2, 0.3 * SIGMA_X, [(SIGMA_Z, -3.7191, "z")])


@pytest.mark.parametrize(
    "build", [delayed_negative_phase_covariant, eternally_nm, _driven_complex_model, _level_rounding_model]
)
def test_embedded_track_is_the_embedding_evaluated_time_by_time(build):
    me = build()
    times = TimeGrid(0.0, 1.0, 1e-2).times()[:-1]
    system = embedded_system(me)
    track = embedded_track(me, times)
    assert track.error is None
    _same_track(track, system.track(times))
    for k in (0, 37, len(times) - 1):
        got, want = track[k], system.at(times[k])
        for name in TRACK_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, k)


def _fails_from(t_bad, piece):
    def h(t):
        return np.array([[0.0, 1.0], [0.0, 0.0]]) if piece == "hamiltonian" and t >= t_bad else 0.3 * SIGMA_X

    def rate(t):
        if piece == "rate" and t >= t_bad:
            raise ValueError(f"rate undefined at t={t}")
        # a rate this large leaves a rounding-size negative eigenvalue in
        # a - (C-D)^dag (C-D) at about half the times: NotPSD
        return -1e16 * (1.0 + t) if piece == "completion" and t >= t_bad else np.cos(t)

    lop = np.array([[0.3, 1.1 + 0.2j], [-0.7j, 0.4]])
    return master_equation(2, h, [(SIGMA_MINUS, 0.5, "down"), (lop, rate, "l")])


@pytest.mark.parametrize(
    "piece, error", [("hamiltonian", NotHermitian), ("rate", ValueError), ("completion", NotPSD)]
)
def test_embedded_track_ends_where_the_embedding_fails(piece, error):
    """An error at the first bad time ends both tracks at the same index,
    with the same class and message, and the prefixes are the same bytes."""
    me = _fails_from(0.5, piece)
    times = TimeGrid(0.0, 1.0, 1e-2).times()[:-1]
    got, want = embedded_track(me, times), embedded_system(me).track(times)
    _same_track(got, want)
    assert 50 <= len(got.h) < len(times)
    assert piece == "completion" or len(got.h) == 50
    for track in (got, want):
        with pytest.raises(error) as info:
            track[len(got.h)]
        assert str(info.value) == str(want.error)


def test_completion_level_too_small_raises_not_psd():
    """An override below ||C - D||^2 (1 here) leaves no Omega: NotPSD from
    the first time it is too small, in the closures and in the track."""
    (pair,) = pairs_from_master_equation(signed_decay(-0.5))
    level = lambda t: 2.0 if t < 0.3 else 0.5  # noqa: E731
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), (pair,), 2, np.eye(2) / 2, a=level)
    with pytest.raises(NotPSD):
        emb.jumps3[2](0.3)
    times = TimeGrid(0.0, 1.0, 0.1).times()[:-1]
    track = embedded_master_equation(emb).track(times)
    assert len(track.h) == 3
    with pytest.raises(NotPSD):
        track[3]
