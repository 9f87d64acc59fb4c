"""Auxiliary-level embedding: factor pairs, completion operator, extraction."""

from collections import Counter

import numpy as np
import pytest

from unravel.errors import DegenerateBlock, NotHermitian, NotPSD
from unravel.linalg import haar_state, hermitize, psd_sqrt, trace_distance
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
    embedded_master_equation,
    embedded_system,
    embedded_track,
    run_chunk,
    tripled_embed,
    tripled_extract,
)

TRACK_FIELDS = ("h", "ls", "gammas", "gamma_l", "gamma_drift", "k")


def _omega_of(jump3, t, d):
    # the third embedded jump is kron(Omega, |aux2><aux0|)
    return jump3(t).reshape(d, 3, d, 3)[:, 2, :, 0]


def _proj(i, j):
    p = np.zeros((3, 3))
    p[i, j] = 1.0
    return p


def _symmetric_pairs(snap):
    """Each channel gamma L . L^dag of a snapshot as the pair
    C = sqrt(|gamma|/2) L, D = sign(gamma) sqrt(|gamma|/2) L."""
    return [
        (np.sqrt(0.5 * abs(g)) * lop, np.copysign(1.0, g) * np.sqrt(0.5 * abs(g)) * lop)
        for g, lop in zip(snap.gammas, snap.ls)
    ]


def _embedding_at(t, h, pairs, levels=None):
    """The embedding at one time as a plain model built from np.kron and
    psd_sqrt, evaluated at t: the reference for every track of the module.
    ``levels`` defaults to ||C - D||^2 for each pair."""
    jumps = []
    for i, (c, d) in enumerate(pairs):
        diff = c - d
        a = float(np.linalg.norm(diff, ord=2) ** 2) if levels is None else levels[i]
        omega = psd_sqrt(a * np.eye(len(h)) - hermitize(diff.conj().T @ diff))
        jumps += [
            np.kron(c, _proj(0, 0)) + np.kron(d, _proj(1, 1)),
            np.kron(d, _proj(0, 0)) + np.kron(c, _proj(1, 1)),
            np.kron(omega, _proj(2, 0)),
            np.kron(omega, _proj(2, 1)),
        ]
    return master_equation(3 * len(h), np.kron(h, np.eye(3)), [(j, 1.0) for j in jumps]).at(t)


def _reference_at(me, t):
    """``embedded_system(me)`` at t, built time by time."""
    snap = me.at(t)
    return _embedding_at(t, snap.h, _symmetric_pairs(snap))


def signed_decay(gamma):
    return master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, gamma, "down")])


def test_pair_factors_split_the_rate():
    """The runner's first jump of a pair is C (x) P00 + D (x) P11, with
    C = sqrt(|gamma|/2) L and D = sign(gamma) C."""

    def factors(gamma):
        j1 = embedded_track(signed_decay(gamma), [0.0]).ls[0, 0].reshape(2, 3, 2, 3)
        return j1[:, 0, :, 0], j1[:, 1, :, 1]

    c, d = factors(0.8)
    root = np.sqrt(0.4)
    assert np.allclose(c, root * SIGMA_MINUS)
    assert np.allclose(d, root * SIGMA_MINUS)

    c, d = factors(-0.5)
    assert np.allclose(c, 0.5 * SIGMA_MINUS)
    assert np.allclose(d, -0.5 * SIGMA_MINUS)


HALF_DECAY = JumpPair(lambda t: 0.5 * SIGMA_MINUS, lambda t: -0.5 * SIGMA_MINUS, "down")  # C - D = sigma_minus


def test_completion_operator_for_unit_difference():
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), (HALF_DECAY,), 2, np.eye(2) / 2)
    assert emb.a(0.0) == pytest.approx(1.0)
    omega = _omega_of(emb.jumps3[2], 0.0, 2)
    assert np.allclose(omega, np.diag([1.0, 0.0]), atol=1e-12)


def test_completion_identity_holds_with_default_level():
    me = eternally_nm()
    system = embedded_system(me)
    jumps3 = [lambda t, i=i: system.at(t).ls[i] for i in range(12)]
    for t in (0.3, 1.0, 2.7):
        for i, (c, d) in enumerate(_symmetric_pairs(me.at(t))):
            diff = c - d
            a = float(np.linalg.norm(diff, ord=2) ** 2)
            omega = _omega_of(jumps3[4 * i + 2], t, 2)
            lhs = omega.conj().T @ omega + diff.conj().T @ diff
            assert np.allclose(lhs, a * np.eye(2), atol=1e-10)
            want = psd_sqrt(a * np.eye(2) - hermitize(diff.conj().T @ diff))
            assert omega.tobytes() == want.tobytes()


def test_custom_level_is_broadcast_and_validated():
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), (HALF_DECAY,), 2, np.eye(2) / 2, a=lambda t: 2.0)
    omega = _omega_of(emb.jumps3[2], 0.0, 2)
    assert np.allclose(omega, np.diag([np.sqrt(2.0), 1.0]), atol=1e-12)
    assert emb.a(0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        tripled_embed(lambda t: np.zeros((2, 2)), (HALF_DECAY, HALF_DECAY), 2, np.eye(2) / 2, a=(lambda t: 1.0,))


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
    rho0 = np.outer(PLUS, PLUS.conj())
    chi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    w0 = np.kron(rho0, np.outer(chi, chi))
    me3 = embedded_system(me)
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
    """The embedded system's track evaluates the model once per time."""
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


def test_chunk_on_markovian_model_matches_oracle():
    me = spontaneous_emission(omega0=1.0, gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    n = 800
    rho_sum, counts, _diag, abort = run_chunk(me, PLUS, grid, batch0=0, n=n, seed=13)
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
    rho_sum, _counts, _diag, abort = run_chunk(me, PLUS, grid, batch0=0, n=n, seed=29)
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


def _matches_time_by_time(track, reference, times):
    """Every snapshot of the track is, byte for byte, ``reference(t)`` at its
    time."""
    for k in range(len(track.h)):
        got, want = track[k], reference(times[k])
        for name in TRACK_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, k)


def _level_rounding_model():
    """A rate whose completion level ||C - D||^2 = (sqrt(2|g|))^2 rounds up
    as float ** 2 against x * x, so Omega is nonzero only if the track
    squares as float ** 2 does."""
    return master_equation(2, 0.3 * SIGMA_X, [(SIGMA_Z, -3.7191, "z")])


@pytest.mark.parametrize(
    "build", [delayed_negative_phase_covariant, eternally_nm, _driven_complex_model, _level_rounding_model]
)
def test_embedded_track_is_the_embedding_evaluated_time_by_time(build):
    me = build()
    times = TimeGrid(0.0, 1.0, 1e-2).times()[:-1]
    track = embedded_track(me, times)
    assert track.error is None and len(track.h) == len(times)
    _matches_time_by_time(track, lambda t: _reference_at(me, t), times)


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
    """An error at the first bad time ends the track there, with the class
    and message of the embedding built at that time, and the prefix is that
    embedding's bytes."""
    me = _fails_from(0.5, piece)
    times = TimeGrid(0.0, 1.0, 1e-2).times()[:-1]
    track = embedded_track(me, times)
    _matches_time_by_time(track, lambda t: _reference_at(me, t), times)
    end = len(track.h)
    assert 50 <= end < len(times)
    assert piece == "completion" or end == 50
    for fail in (lambda: track[end], lambda: _reference_at(me, times[end])):
        with pytest.raises(error) as info:
            fail()
        assert str(info.value) == str(track.error)


def test_user_embedding_is_the_embedding_evaluated_time_by_time():
    """tripled_embed's track is, time by time, the embedding of the user's
    callables: a complex pair with D = C and a real-typed one with D = -C,
    whose Omega is the root of a real matrix, at the default and at custom
    levels."""
    lop = np.array([[0.1j, -0.5 + 0.2j], [1.0, -0.3j]])
    real = np.array([[0.5, 1.0], [0.0, -0.3]])
    pairs = (
        JumpPair(lambda t: np.sqrt(0.3 * (1.0 + 0.5 * np.sin(t))) * lop,
                 lambda t: np.sqrt(0.3 * (1.0 + 0.5 * np.sin(t))) * lop),
        JumpPair(lambda t: 0.4 * np.cos(t) * real, lambda t: -0.4 * np.cos(t) * real),
    )
    custom = (lambda t: 0.2 + 0.1 * t, lambda t: 0.64 * np.cos(t) ** 2 * np.linalg.norm(real, ord=2) ** 2 + 0.5)
    times = TimeGrid(0.0, 2.0, 1e-2).times()

    def h(t):
        return 0.3 * SIGMA_Z + np.cos(t) * SIGMA_X

    for levels in (None, custom):
        emb, _ = tripled_embed(h, pairs, 2, np.eye(2) / 2, a=levels)
        track = embedded_master_equation(emb).track(times)
        assert track.error is None and len(track.h) == len(times)
        _matches_time_by_time(
            track,
            lambda t: _embedding_at(
                t, h(t), [(p.c(t), p.d(t)) for p in pairs], None if levels is None else [a(t) for a in levels]
            ),
            times,
        )


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ("d", ValueError, "d undefined at t=0.5"),
        ("hamiltonian", NotHermitian, r"hamiltonian\(t=0.5\) deviates"),
        # a callable's error comes before a hamiltonian that is not hermitian
        ("both", ValueError, "d undefined at t=0.5"),
    ],
)
def test_user_embedding_ends_at_the_first_bad_time(bad, error, message):
    def h(t):
        return np.array([[0.0, 1.0], [0.0, 0.0]]) if bad != "d" and t >= 0.5 else 0.3 * SIGMA_X

    def d(t):
        if bad != "hamiltonian" and t >= 0.5:
            raise ValueError(f"d undefined at t={t}")
        return -0.5 * SIGMA_MINUS

    emb, _ = tripled_embed(h, (JumpPair(lambda t: 0.5 * SIGMA_MINUS, d),), 2, np.eye(2) / 2)
    times = TimeGrid(0.0, 1.0, 1e-2).times()[:-1]
    track = embedded_master_equation(emb).track(times)
    assert len(track.h) == 50
    assert isinstance(track.error, error)
    with pytest.raises(error, match=message):
        track[50]
    with pytest.raises(error, match=message):
        emb.jumps3[0](times[50])


def test_completion_level_too_small_raises_not_psd():
    """An override below ||C - D||^2 (1 here) leaves no Omega: NotPSD from
    the first time it is too small, at one time and in the track."""
    level = lambda t: 2.0 if t < 0.3 else 0.5  # noqa: E731
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), (HALF_DECAY,), 2, np.eye(2) / 2, a=level)
    with pytest.raises(NotPSD):
        emb.jumps3[2](0.3)
    assert emb.a(0.3) == 0.5
    times = TimeGrid(0.0, 1.0, 0.1).times()[:-1]
    track = embedded_master_equation(emb).track(times)
    assert len(track.h) == 3
    with pytest.raises(NotPSD):
        track[3]
