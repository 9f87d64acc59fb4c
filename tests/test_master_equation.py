"""Generator assembly: snapshots, effective Hamiltonian, trace behavior."""

import numpy as np
import pytest

from unravel.master_equation import (
    MasterEquation,
    channel,
    decay_operator,
    drift_decay_operator,
    effective_hamiltonian,
    jump_superoperator_apply,
    lindblad_apply,
    master_equation,
)
from unravel.errors import DimensionMismatch, ModelError, NotHermitian
from unravel.models import (
    KET1,
    MODEL_NAMES,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    build_model,
    eternally_nm,
    spontaneous_emission,
)
from unravel.propagate import TimeGrid


def decay_qubit(gamma=1.0):
    return master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, gamma, "down")])


def test_effective_hamiltonian_frozen_decay():
    me = decay_qubit()
    k = me.at(0.0).k
    # H = 0, Gamma = |1><1|, so K = -(i/2)|1><1|
    assert np.allclose(k, np.diag([0.0, -0.5j]))
    assert np.allclose(effective_hamiltonian(me, 0.0), k)


def test_lindblad_apply_pure_dephasing_frozen():
    gz = 0.3
    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_Z, gz, "z")])
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    out = lindblad_apply(me, 0.0, plus)
    assert np.allclose(out, -gz * SIGMA_X)


def test_lindblad_matches_handwritten_formula():
    gen = np.random.default_rng(21)
    d = 3
    h = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    h = 0.5 * (h + h.conj().T)
    ls = [gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)) for _ in range(2)]
    gammas = [0.7, -0.4]  # a negative rate must pass straight through
    me = master_equation(d, h, [(l, g, "") for l, g in zip(ls, gammas)])
    rho = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    rho = 0.5 * (rho + rho.conj().T)
    want = -1j * (h @ rho - rho @ h)
    for l, g in zip(ls, gammas):
        want += g * (l @ rho @ l.conj().T - 0.5 * (l.conj().T @ l @ rho + rho @ l.conj().T @ l))
    assert np.allclose(lindblad_apply(me, 0.0, rho), want, atol=1e-12)
    assert abs(np.trace(lindblad_apply(me, 0.0, rho))) < 1e-12


def test_jump_superoperator_apply():
    me = decay_qubit(0.5)
    rho = np.outer(KET1, KET1.conj())
    out = jump_superoperator_apply(me, 0.0, rho)
    assert np.allclose(out, 0.5 * np.diag([1.0, 0.0]))


def test_time_dependent_rate_and_operator():
    me = master_equation(
        2, np.zeros((2, 2)), [(lambda t: t * SIGMA_X, lambda t: 2.0 * t, "grow")]
    )
    snap = me.at(3.0)
    assert np.allclose(snap.ls[0], 3.0 * SIGMA_X)
    assert snap.gammas[0] == pytest.approx(6.0)


def test_at_is_the_one_time_track(monkeypatch):
    me = eternally_nm()
    calls = []
    evaluate = MasterEquation._evaluate

    def counting(self, t):
        calls.append(t)
        return evaluate(self, t)

    monkeypatch.setattr(MasterEquation, "_evaluate", counting)
    got = me.at(1.25)
    assert calls == [1.25]
    want = me.track((1.25,))[0]
    assert got.t == want.t == 1.25
    for name in ("h", "ls", "gammas", "gamma_l", "gamma_drift", "k"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_eternally_nm_rate_values():
    snap = eternally_nm().at(2.0)
    assert snap.gammas[0] == pytest.approx(1.0)
    assert snap.gammas[1] == pytest.approx(1.0)
    assert snap.gammas[2] == pytest.approx(-0.5 * np.tanh(2.0))


def test_trace_sink_overrides_anticommutator():
    gamma = 1.0
    lam = 0.2
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS

    def sink(t):
        return gamma_l - lam * np.eye(2)

    me = master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, gamma, "down")], trace_sink=sink)
    assert np.allclose(decay_operator(me, 0.0), gamma_l)
    assert np.allclose(drift_decay_operator(me, 0.0), sink(0.0))
    # d tr(rho)/dt = tr((Gamma_L - Gamma_sink) rho) = lam * tr(rho)
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.trace(lindblad_apply(me, 0.0, rho)).real == pytest.approx(lam)
    # K picks up the sink, not the full decay operator
    assert np.allclose(me.at(0.0).k, -0.5j * sink(0.0))


def test_channel_constructor_keeps_label():
    ch = channel(SIGMA_MINUS, 0.4, "loss")
    assert ch.label == "loss"
    assert ch.rate(17.0) == pytest.approx(0.4)
    assert np.allclose(ch.jump_operator(17.0), SIGMA_MINUS)


def test_spontaneous_emission_rejects_negative_gamma():
    with pytest.raises(ValueError):
        spontaneous_emission(gamma=-1.0)


def _time_dependent_qubit():
    return master_equation(
        2,
        lambda t: np.cos(t) * SIGMA_X + 0.3 * SIGMA_Z,
        [(lambda t: t * SIGMA_X + SIGMA_MINUS, lambda t: np.sin(3.0 * t), "grow"), (SIGMA_Z, 0.2, "z")],
    )


def _sink_qubit():
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    return master_equation(
        2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")], trace_sink=lambda t: gamma_l - 0.2 * t * np.eye(2)
    )


def _mixed_qubit(sink: bool):
    """Every kind of piece at once: a callable hamiltonian, a constant jump
    operator with a callable rate, a callable one with a constant rate, and
    optionally a constant trace sink."""
    return master_equation(
        2,
        lambda t: np.sin(t) * SIGMA_Z + 0.5 * SIGMA_X,
        [(SIGMA_MINUS, lambda t: 1.0 + 0.5 * np.cos(t), "down"), (lambda t: np.exp(-t) * SIGMA_Z, -0.3, "z")],
        trace_sink=np.diag([0.1, 0.7]) if sink else None,
    )


def _reference_snapshot(me, t):
    """The generator pieces at t, assembled one time at a time."""
    h, ls, gammas, sink = me._evaluate(t)
    gamma_l = np.einsum("a,aki,akj->ij", gammas, np.conj(ls), ls)
    drift = gamma_l if sink is None else sink
    return {"h": h, "ls": ls, "gammas": gammas, "gamma_l": gamma_l, "gamma_drift": drift, "k": h - 0.5j * drift}


@pytest.mark.parametrize(
    "build",
    [
        *(lambda name=name: build_model(name).me for name in MODEL_NAMES),
        _time_dependent_qubit,
        _sink_qubit,
        lambda: _mixed_qubit(sink=False),
        lambda: _mixed_qubit(sink=True),
    ],
    ids=[*MODEL_NAMES, "time_dependent", "sink", "mixed", "mixed_sink"],
)
def test_track_matches_snapshots(build):
    """A track is byte for byte the stack of ``_evaluate`` at each of its
    times, constants read once and broadcast."""
    me = build()
    times = TimeGrid(0.0, 2.0, 0.05).times()[:-1]
    track = me.track(times)
    for k, t in enumerate(times):
        got, want = track[k], _reference_snapshot(me, t)
        assert got.t == t
        for name, b in want.items():
            a = getattr(got, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, t)
    with pytest.raises(IndexError):
        track[len(times)]


def test_track_raises_evaluation_error_from_the_failing_time_on():
    def h(t):
        return np.array([[0.0, 1.0], [0.0, 0.0]]) if t >= 0.5 else 0.3 * SIGMA_X

    me = master_equation(2, h, [(SIGMA_MINUS, 1.0, "down")])
    track = me.track(TimeGrid(0.0, 1.0, 0.1).times()[:-1])
    assert np.allclose(track[4].h, 0.3 * SIGMA_X)
    for k in (5, 9):
        with pytest.raises(NotHermitian):
            track[k]


def _fails_from(t_bad, piece):
    """A qubit whose ``piece`` goes wrong from t_bad on."""
    late = lambda t: t >= t_bad  # noqa: E731

    def h(t):
        return np.array([[0.0, 1.0], [0.0, 0.0]]) if "hamiltonian" in piece and late(t) else 0.3 * SIGMA_X

    def jump(t):
        return np.eye(3) if piece == "shape" and late(t) else SIGMA_MINUS

    def rate(t):
        if piece == "rate" and late(t):
            raise ValueError(f"rate undefined at t={t}")
        return np.cos(t)

    def sink(t):
        return SIGMA_MINUS if "sink" in piece and late(t) else np.eye(2)

    return master_equation(2, h, [(jump, rate, "down")], trace_sink=sink)


@pytest.mark.parametrize(
    "piece, error, first, cause",
    [
        ("hamiltonian", NotHermitian, "hamiltonian(t=", None),
        ("sink", NotHermitian, "trace_sink(t=", None),
        ("hamiltonian+sink", NotHermitian, "hamiltonian(t=", None),
        ("shape", DimensionMismatch, "jump operator 0(t=", None),
        ("rate", ModelError, "rate undefined at t=", ValueError),
    ],
)
def test_track_ends_at_the_first_bad_time_with_the_error_of_at(piece, error, first, cause):
    """The stacked checks end the track where evaluating time by time would
    first fail, with the error ``at`` raises there: a callable's error or a
    wrong shape before a non-hermitian hamiltonian, and that before such a
    trace sink. A callable's own exception is the cause of a ModelError at
    that time."""
    me = _fails_from(0.35, piece)
    times = TimeGrid(0.0, 1.0, 0.05).times()[:-1]
    track = me.track(times)
    assert len(track.h) == 7  # times[7] = 0.35
    for k in range(7):
        assert track[k].gamma_l.tobytes() == _reference_snapshot(me, times[k])["gamma_l"].tobytes()
    with pytest.raises(error) as at_err:
        me.at(times[7])
    assert str(at_err.value).startswith(f"{first}{times[7]}")
    if cause is None:
        assert at_err.value.__cause__ is None
    else:
        assert isinstance(at_err.value.__cause__, cause)
    # every error of a track carries the time that failed
    assert at_err.value.time == track.error.time == times[7]
    for k in (7, 12):
        with pytest.raises(error) as track_err:
            track[k]
        assert str(track_err.value) == str(at_err.value)


def _fails(t):
    raise ValueError(f"undefined at t={t}")


@pytest.mark.parametrize(
    "hamiltonian, channels, sink, error",
    [
        (np.eye(3), [(SIGMA_MINUS, _fails)], None, DimensionMismatch),
        (_fails, [(np.eye(3), 1.0)], None, ValueError),
        (np.zeros((2, 2)), [(lambda t: np.eye(3), 1.0), (np.eye(3), 1.0)], None, DimensionMismatch),
        (np.zeros((2, 2)), [(np.eye(3), _fails)], None, DimensionMismatch),
        (np.zeros((2, 2)), [(SIGMA_MINUS, _fails)], np.eye(3), ValueError),
        (SIGMA_MINUS, [(SIGMA_MINUS, 1.0)], np.eye(3), DimensionMismatch),
    ],
    ids=["hamiltonian", "after_a_callable", "callable_first", "operator_before_rate", "rate_before_sink", "sink"],
)
def test_constant_of_the_wrong_shape_fails_at_the_first_time(hamiltonian, channels, sink, error):
    """A constant piece of the wrong shape ends the track at its first time,
    with the error ``_evaluate`` raises there, in ``_evaluate``'s order (a
    callable's own exception as the cause of a ModelError)."""
    me = master_equation(2, hamiltonian, channels, trace_sink=sink)
    times = np.array([0.25, 0.5])
    with pytest.raises(error) as want:
        me._evaluate(times[0])
    track = me.track(times)
    assert len(track.h) == 0 and str(track.error) == str(want.value) and track.error.time == times[0]
    if error is ValueError:
        assert type(track.error) is ModelError and type(track.error.__cause__) is ValueError
    else:
        assert type(track.error) is error
    with pytest.raises(type(track.error)):
        track[1]


def _bad_from(t_bad, value):
    return lambda t: value if t >= t_bad else 1.0


@pytest.mark.parametrize("where, what", [
    ("hamiltonian", "hamiltonian"), ("jump", "jump operator 1"), ("rate", "rate 1"), ("overflow", "G_L"),
])
def test_a_non_finite_piece_ends_the_track_as_a_model_error(where, what):
    """From the first time at which the hamiltonian, a jump operator or a
    rate holds a non-finite entry, or G_L overflows, the track raises a
    ModelError that names the piece and the time; earlier times stay."""
    h = (lambda t: np.full((2, 2), np.inf) if t >= 0.2 else np.zeros((2, 2))) if where == "hamiltonian" else SIGMA_X
    scale = _bad_from(0.2, np.nan)
    second = {
        "jump": (lambda t: scale(t) * SIGMA_MINUS, 1.0),
        "rate": (SIGMA_MINUS, scale),
        "overflow": (SIGMA_MINUS, _bad_from(0.2, 1e308)),
    }.get(where, (SIGMA_MINUS, 1.0))
    first = (SIGMA_Z, _bad_from(0.2, 1e308) if where == "overflow" else 1.0)
    track = master_equation(2, h, [first, second]).track([0.0, 0.1, 0.2, 0.3])
    assert len(track.h) == len(track.k) == 2
    assert track[1].t == 0.1
    with pytest.raises(ModelError, match=f"^{what}.* is not finite at t=0.2$") as exc:
        track[3]
    assert isinstance(exc.value.__cause__, FloatingPointError) and exc.value.time == 0.2
