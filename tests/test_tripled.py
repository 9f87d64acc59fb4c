"""Auxiliary-level embedding: factor pairs, completion operator, extraction."""

import numpy as np
import pytest

from unravel import engine, mcwf
from unravel.engine import _DEFAULT_BATCHES, _chunk_sizes, _reconstruct, _state_width, _tiles, method_id
from unravel.errors import DegenerateBlock, ModelError, NotHermitian, NotPSD, StepTooLarge
from unravel.linalg import haar_state, hermitize, psd_sqrt, trace_distance, weighted_outer_sum
from unravel.master_equation import master_equation
from unravel.models import (
    PLUS,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    delayed_negative_phase_covariant,
    eternally_nm,
    phase_covariant,
    phase_covariant_rates,
    spontaneous_emission,
)
from unravel.propagate import TimeGrid, propagate
from unravel.tripled import (
    JumpPair,
    _block_outer,
    embedded_master_equation,
    embedded_system,
    embedded_track,
    tripled_embed,
    tripled_extract,
)

from branch_tools import calls_per_time, counting_model, run_batches

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
def test_block_means_reconstruct_as_the_extraction_of_the_hermitized_w_mean(d):
    """The engine's reconstruction of the runner's block means (``_block_outer``
    over n) is, bit for bit, ``tripled_extract(hermitize(W))`` of the mean W
    of the same columns, point by point: columns (psi0, +-psi0, 0) and
    (0, 0, psi2), as a run holds them. NaN where the block trace is at the
    floor, with the message the one-matrix call gives for the first such
    point."""
    gen = np.random.default_rng(31)
    n = 40
    a = gen.standard_normal((4, 6, d, n)) + 1j * gen.standard_normal((4, 6, d, n))
    b = gen.standard_normal((4, 6, d, n)) + 1j * gen.standard_normal((4, 6, d, n))
    in_aux2 = gen.random((4, 6, 1, n)) < 0.3  # rows after an Omega jump
    a, b = np.where(in_aux2, 0.0, a), np.where(in_aux2, b, 0.0)
    a[2, 1] *= 1e-7
    a[3, 0] *= 1e-7
    a[1, 5] = 0.0
    cols = np.zeros((4, 6, 3 * d, n), dtype=complex)
    cols[..., 0::3, :], cols[..., 1::3, :], cols[..., 2::3, :] = a, gen.choice([-1.0, 1.0], (4, 6, 1, n)) * a, b
    ws = weighted_outer_sum(cols) / n
    out, (idx, err) = _reconstruct(method_id("tripled"), _block_outer(cols) / n)
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
    assert _reconstruct(method_id("tripled"), _block_outer(cols[0]) / n)[1] is None


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


def test_embedding_evaluates_the_model_once_per_time():
    """The embedded system's track calls each of the model's pieces once per
    time."""
    me, calls = counting_model(eternally_nm())
    times = (0.1, 0.2, 0.3)
    embedded_system(me).track(times)
    assert calls_per_time(calls) == dict.fromkeys(times, 1)


def _extracted(block_sum):
    """The states the engine reads from a series of block sums (d x d) over
    their trace, as ``tripled_extract`` reads them from W; none is degenerate."""
    rho, degenerate = _reconstruct(method_id("tripled"), block_sum)
    assert degenerate is None
    return rho


def test_chunk_on_markovian_model_matches_oracle():
    me = spontaneous_emission(omega0=1.0, gamma=1.0)
    grid = TimeGrid(0.0, 2.0, 1e-2)
    n = 800
    got = run_batches("tripled", me, PLUS, grid, 0, [n], 13)
    rho_sum, counts, _diag, abort = got
    assert abort is None
    assert rho_sum.shape == (1, grid.n_steps + 1, 2, 2)
    _assert_same_run(got, _full_track_run(me, PLUS, grid, 0, [n], 13))
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    dists = trace_distance(_extracted(rho_sum[0] / n), oracle.states)
    assert max(dists) < 0.1
    assert counts["jump"] > 0


def test_chunk_division_noise_grows_with_negative_window():
    me = eternally_nm()
    grid = TimeGrid(0.0, 0.5, 1e-2)
    n = 3000
    got = run_batches("tripled", me, PLUS, grid, 0, [n], 29)
    rho_sum, _counts, _diag, abort = got
    assert abort is None
    _assert_same_run(got, _full_track_run(me, PLUS, grid, 0, [n], 29))
    oracle = propagate(me, np.outer(PLUS, PLUS.conj()), grid)
    dists = trace_distance(_extracted(rho_sum[0] / n), oracle.states)
    assert max(dists) < 0.15


def _full_track_run(me, psi0, grid, batch0, sizes, seed):
    """The tripled runner's reference: mcwf on ``embedded_system(me)``
    stepping every embedded channel of the full track from psi0 (x) chi."""
    chi = np.zeros(3)
    chi[0] = chi[1] = 1.0 / np.sqrt(2.0)
    theta0 = np.kron(np.asarray(psi0, dtype=complex), chi)
    track = embedded_track(me, grid.times()[:-1])
    return mcwf.run_chunk(embedded_system(me), theta0, grid, batch0, sizes, seed, track)


def _assert_same_run(got, want):
    """rho_sum byte for byte the (aux0, aux1) block of the reference's W
    sums, equal counts and diagnostics, the same abort."""
    block = want[0][..., 0::3, 1::3]
    assert got[0].shape == block.shape and got[0].tobytes() == block.tobytes()
    assert got[1:3] == want[1:3]
    if want[3] is None:
        assert got[3] is None
    else:
        (err, k), (want_err, want_k) = got[3], want[3]
        assert (type(err), str(err), err.time, k) == (type(want_err), str(want_err), want_err.time, want_k)


def _idle_plus_signed_minus():
    """No sigma_+ (pair 0 is zero: all four of its channels are dead), a
    sigma_- rate that turns negative at pi/4 (its Omega, channels 6 and 7,
    is zero only before) and a positive sigma_z rate (Omega zero)."""
    return phase_covariant(phase_covariant_rates(0.0, lambda t: 0.5 * np.cos(2.0 * t), 0.5))


@pytest.mark.parametrize(
    "build, t_max, n_traj, dead",
    [
        # sigma_z is unitary, so ||C - D||^2 fills (C - D)^dag (C - D) and
        # pair 2's Omega is zero past pi/4 as well as before
        (delayed_negative_phase_covariant, 1.0, 300, {2, 3, 6, 7, 10, 11}),
        (delayed_negative_phase_covariant, 0.3, 4097, {2, 3, 6, 7, 10, 11}),
        (_idle_plus_signed_minus, 1.0, 300, {0, 1, 2, 3, 10, 11}),
    ],
)
def test_chunk_steps_live_channels_with_the_full_tracks_bits(build, t_max, n_traj, dead):
    """Each tile of the ensemble's batches gives the full-track run's rho_sum
    bytes and counts: the channels that are zero on the whole track drop
    out, jump_by_channel keeps 4 per pair, 0 at the dead ones."""
    me, grid = build(), TimeGrid(0.0, t_max, 1e-2)
    track = embedded_track(me, grid.times()[:-1])
    assert {i for i in range(12) if not track.ls[:, i].any()} == dead
    if build is _idle_plus_signed_minus:
        assert not track.ls[:79, 6].any() and track.ls[79:, 6].any(axis=(1, 2)).all()
    sizes = _chunk_sizes(n_traj, _DEFAULT_BATCHES)
    width = _state_width("tripled", me.dim)
    tiles = _tiles(sizes, width)
    assert (len(tiles) > 1) == (n_traj * width > engine._TILE_ENTRIES)
    for tile in tiles:
        tile_sizes = [sizes[i] for i in tile]
        got = run_batches("tripled", me, PLUS, grid, tile[0], tile_sizes, 17)
        _assert_same_run(got, _full_track_run(me, PLUS, grid, tile[0], tile_sizes, 17))
        by_channel = got[1]["jump_by_channel"]
        assert len(by_channel) == 12 and [by_channel[i] for i in sorted(dead)] == [0] * len(dead)
        assert got[1]["jump"] > 0


@pytest.mark.parametrize(
    "build, dt, step, error",
    [
        (delayed_negative_phase_covariant, 1.0, 0, StepTooLarge),  # jump probability 1.5
        (lambda: _fails_from(0.0, "hamiltonian"), 0.1, 0, NotHermitian),  # an empty track
        (lambda: _fails_from(0.5, "hamiltonian"), 0.1, 5, NotHermitian),
    ],
)
def test_chunk_aborts_as_the_full_track_run_does(build, dt, step, error):
    """An abort keeps the full-track run's error, step, sums and counts: no
    counts by channel at step 0, where no step has run, and 4 per pair
    after it."""
    me, grid = build(), TimeGrid(0.0, 2.0, dt)
    got = run_batches("tripled", me, PLUS, grid, 3, [40, 40, 39], 5)
    _assert_same_run(got, _full_track_run(me, PLUS, grid, 3, [40, 40, 39], 5))
    assert isinstance(got[3][0], error) and got[3][1] == step
    assert len(got[1]["jump_by_channel"]) == (0 if step == 0 else 8)


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
    "piece, error", [("hamiltonian", NotHermitian), ("rate", ModelError), ("completion", NotPSD)]
)
def test_embedded_track_ends_where_the_embedding_fails(piece, error):
    """An error at the first bad time ends the track there, with the class
    and message of the embedding built at that time, and the prefix is that
    embedding's bytes. The rate's own ValueError is the ModelError's cause."""
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
    assert isinstance(track.error.__cause__, ValueError) == (piece == "rate")


def test_user_embedding_is_the_embedding_evaluated_time_by_time():
    """tripled_embed's track is, time by time, the embedding of the user's
    callables evaluated as complex: a complex pair with D = C and a
    real-typed one with D = -C, at the default and at custom levels."""
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
                t, h(t), [(np.asarray(p.c(t), dtype=complex), np.asarray(p.d(t), dtype=complex)) for p in pairs],
                None if levels is None else [a(t) for a in levels],
            ),
            times,
        )


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ("d", ModelError, "d undefined at t=0.5"),
        ("hamiltonian", NotHermitian, r"hamiltonian\(t=0.5\) deviates"),
        # a callable's error comes before a hamiltonian that is not hermitian
        ("both", ModelError, "d undefined at t=0.5"),
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
    assert isinstance(track.error.__cause__, ValueError) == (bad != "hamiltonian")
    assert track.error.time == times[50]
    with pytest.raises(error, match=message):
        track[50]
    with pytest.raises(error, match=message):
        emb.jumps3[0](times[50])


@pytest.mark.parametrize(
    "dim, value, piece", [(2, np.nan, 0), (2, np.inf, 0), (3, -np.inf, 0), (3, 1e308, 2)]
)
def test_a_non_finite_factor_ends_the_user_embedding_as_a_model_error(dim, value, piece):
    """A factor C that is not finite from t = 0.5 on (or whose C - D
    overflows in (C - D)^dag (C - D), leaving Omega undefined) ends the
    track there with the ModelError of any non-finite piece, which the oracle
    raises at t = 0.5: no norm or root is taken of it."""
    lop = np.eye(dim, k=1)
    pair = JumpPair(lambda t: np.full((dim, dim), value) if t >= 0.5 else 0.5 * lop, lambda t: -0.5 * lop)
    emb, w0 = tripled_embed(lambda t: 0.3 * np.diag(np.arange(dim)), (pair,), dim, np.eye(dim) / dim)
    grid = TimeGrid(0.0, 1.0, 0.1)
    track = embedded_master_equation(emb).track(grid.times()[:-1])
    assert len(track.h) == 5
    assert isinstance(track.error, ModelError) and track.error.time == 0.5
    assert isinstance(track.error.__cause__, FloatingPointError)
    assert str(track.error) == f"jump operator {piece} is not finite at t=0.5"
    with pytest.raises(ModelError, match="is not finite at t=0.7"):
        emb.a(0.7)
    with pytest.raises(ModelError) as info:
        propagate(embedded_master_equation(emb), w0, grid)
    assert info.value.time == 0.5 and str(info.value) == str(track.error)


def test_completion_level_too_small_raises_not_psd():
    """An override below ||C - D||^2 (1 here) leaves no Omega: NotPSD from
    the first time it is too small, at one time and in the track. With two
    pairs, the one whose level is too small first ends the track with its
    NotPSD (the eigenvalue -0.5 of a level 0.5, -0.75 of 0.25); on a tie
    the first pair's is raised."""
    level = lambda t: 2.0 if t < 0.3 else 0.5  # noqa: E731
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), (HALF_DECAY,), 2, np.eye(2) / 2, a=level)
    with pytest.raises(NotPSD):
        emb.jumps3[2](0.3)
    assert emb.a(0.3) == 0.5
    times = TimeGrid(0.0, 1.0, 0.1).times()[:-1]
    track = embedded_master_equation(emb).track(times)
    assert len(track.h) == 3 and track.error.time == times[3]
    with pytest.raises(NotPSD):
        track[3]
    for second_from, end, message in ((0.5, 3, "-5.000e-01"), (0.3, 3, "-5.000e-01"), (0.2, 2, "-7.500e-01")):
        second = lambda t, t0=second_from: 2.0 if t < t0 else 0.25  # noqa: E731
        emb, _ = tripled_embed(lambda t: np.zeros((2, 2)), (HALF_DECAY,) * 2, 2, np.eye(2) / 2, a=(level, second))
        track = embedded_master_equation(emb).track(times)
        assert len(track.h) == end and track.error.time == times[end]
        with pytest.raises(NotPSD, match=message):
            track[end]

