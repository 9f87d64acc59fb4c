"""Shared machinery for one-step expectation checks.

Every stepper advertises its one-step law as a list of Branch records.
Summing probability * factor * |state><state| over the list gives the exact
one-step expectation, which must match rho + L[rho] dt up to O(dt^2). The
helpers here compute both sides so the unit suite and the acceptance suite
use the same arithmetic. ``run_batches`` calls a method's tile runner the
way ``run_ensemble`` does; ``equivalence_tool`` loads
``tools/equivalence.py``; ``counting_model`` and ``calls_per_time`` count
the calls of a model's pieces.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from unravel import lindblad_apply
from unravel.doubled import DoubledState
from unravel.engine import _generator_track, _runner, method_id
from unravel.master_equation import Channel, MasterEquation
from unravel.nmqj import NmqjEnsemble, nmqj_step
from unravel.outcomes import Jump

# large enough that integer rounding in the mean-multinomial trick is
# invisible next to the 10*dt^2 residual bound
MEAN_POOL = 10**9


def run_batches(method, me, psi0, grid, batch0, sizes, seed):
    """The method's runner (a kind or a ``MethodId``) on batches batch0,
    batch0 + 1, ... of ``sizes`` rows each, on the generator track
    ``run_ensemble`` builds for it: (rho_sum, counts, diagnostics, abort),
    every series with a leading batch axis."""
    if isinstance(method, str):
        method = method_id(method)
    return _runner(method)(me, psi0, grid, batch0, sizes, seed, _generator_track(method, me, grid))


def counting_model(me: MasterEquation):
    """``me`` with every piece, constant or not, a callable that returns the
    same values (so the copy runs bit for bit as ``me``) and counts its
    calls: (copy, Counter of (piece, t) -> calls)."""
    calls = Counter()

    def counted(name, fn):
        def piece(t):
            calls[(name, float(t))] += 1
            return fn(t)

        return piece

    channels = tuple(
        Channel(counted(f"jump operator {i}", ch.jump_operator), counted(f"rate {i}", ch.rate), ch.label)
        for i, ch in enumerate(me.channels)
    )
    sink = None if me.trace_sink is None else counted("trace_sink", me.trace_sink)
    return MasterEquation(me.dim, counted("hamiltonian", me.hamiltonian), channels, sink), calls


def calls_per_time(calls: Counter) -> Counter:
    """t -> the calls of each piece at t, from ``counting_model``'s counter;
    every piece must have been called at the same times equally often."""
    by_piece = {}
    for (piece, t), n in calls.items():
        by_piece.setdefault(piece, {})[t] = n
    first, *rest = by_piece.values() or [{}]
    assert all(other == first for other in rest), "the pieces were called at different times"
    return Counter(first)


def equivalence_tool():
    """``tools/equivalence.py`` of this checkout, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
    spec = importlib.util.spec_from_file_location("equivalence", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def branch_expectation(branches, factor=None) -> np.ndarray:
    """sum_b p_b f_b |state_b><state_b| over a branch list.

    ``factor`` overrides the per-branch scalar; the default uses
    weight_factor * copies, which is right for every stepper except the
    sign-bit one (its jump sign lives on the event, not the weight).
    """
    out = None
    for b in branches:
        f = factor(b) if factor is not None else b.weight_factor * b.copies
        if isinstance(b.state, DoubledState):
            term = np.outer(b.state.phi, np.conj(b.state.psi))
        else:
            term = np.outer(b.state, np.conj(b.state))
        term = b.probability * f * term
        out = term if out is None else out + term
    return out


def plqt_factor(b) -> float:
    if isinstance(b.event, Jump):
        return float(b.event.sign)
    return b.weight_factor


def one_step_target(me, rho: np.ndarray, t: float, dt: float) -> np.ndarray:
    return rho + dt * lindblad_apply(me, t, rho)


def residual(me, rho0, t, dt, branches, factor=None) -> float:
    """max-norm gap between the enumerated expectation and rho + L[rho] dt."""
    got = branch_expectation(branches, factor)
    want = one_step_target(me, rho0, t, dt)
    return float(np.max(np.abs(got - want)))


class MeanDraw:
    """Stands in for a Generator: multinomial returns its own expectation,
    rounded to integers with the remainder pushed onto the largest
    fractional parts. Turns one nmqj_step into an exact mean-field step."""

    def multinomial(self, n: int, pvals) -> np.ndarray:
        raw = np.asarray(pvals, dtype=float) * n
        out = np.floor(raw).astype(np.int64)
        short = int(n - out.sum())
        order = np.argsort(raw - out)[::-1]
        out[order[:short]] += 1
        return out


def nmqj_mean_rho(me, weights, states, provenance, t, dt) -> np.ndarray:
    """Expected post-step density matrix of a bucket ensemble.

    ``weights`` are bucket fractions (summing to 1); they are blown up to a
    pool of MEAN_POOL members so the rounded mean draw is exact to ~1e-9.
    """
    counts = [int(round(w * MEAN_POOL)) for w in weights]
    counts[0] += MEAN_POOL - sum(counts)
    from unravel.nmqj import Bucket

    ens = NmqjEnsemble(
        [Bucket(c, np.asarray(s, dtype=complex).copy()) for c, s in zip(counts, states)],
        {k: set(v) for k, v in provenance.items()},
    )
    stepped, _events = nmqj_step(me, ens, t, dt, MeanDraw())
    return stepped.rho()


# ---------------------------------------------------------------------------
# the stepper x model applicability table
#
# Each case samples random (state, time) points inside a window where the
# stepper is defined: plain jumps and the cloning scheme need nonnegative
# rates, W-based menus need a positive perp spectrum, the ungauged rate
# operator needs both, and the identity-gauge flavor is only positive on the
# equator of the model it was designed for. The weighted, pair-vector and
# embedded methods take any sign anywhere. The waiting-time sampler has no
# branch enumeration; its law is checked distributionally elsewhere.


class OneStepCase:
    def __init__(self, label, window, states, run):
        self.label = label
        self.window = window
        self.states = states  # "haar" or "equatorial"
        self.run = run        # run(psi, t, dt) -> max-norm residual


def sample_points(case, n, seed):
    from unravel.linalg import haar_state

    rng = np.random.default_rng(seed)
    lo, hi = case.window
    out = []
    for _ in range(n):
        t = lo + (hi - lo) * rng.random()
        if case.states == "equatorial":
            psi = np.array([1.0, np.exp(2j * np.pi * rng.random())], complex) / np.sqrt(2.0)
        else:
            psi = haar_state(2, rng)
        out.append((psi, t))
    return out


def one_step_cases():
    from unravel.cloning import clone_branches
    from unravel.doubled import DoubledState, doubled_branches
    from unravel.mcwf import mcwf_branches
    from unravel.models import (
        KET0,
        KET1,
        SIGMA_Z,
        delayed_negative_phase_covariant,
        eternally_nm,
        non_p_divisible,
        spontaneous_emission,
    )
    from unravel.rate_operators import gauge_none, time_dependent_gauge, w_matching_gauge
    from unravel.roqj import roqj_branches, wroqj_branches
    from unravel.tripled import embedded_system, tripled_extract
    from unravel.weighted import (
        PlqtTrajectory,
        WeightedTrajectory,
        default_rate_policy,
        im_branches,
        plqt_branches,
    )

    models = {
        "spontaneous_emission": spontaneous_emission(omega0=1.0, omega=0.5, gamma=1.0),
        "eternally_nm": eternally_nm(),
        "delayed_negative": delayed_negative_phase_covariant(),
        "non_p_divisible": non_p_divisible(),
    }
    # nonnegative-rate windows (margins keep clear of the sign changes)
    cp = {"spontaneous_emission": (0.0, 3.0), "delayed_negative": (0.0, 0.7), "non_p_divisible": (0.0, 0.95)}
    # positive-W windows
    pdiv = dict(cp, eternally_nm=(0.0, 3.0), delayed_negative=(0.0, 3.0))
    full = {name: (0.0, 3.0) for name in models}

    cases = []

    def add(kind, name, window, run, states="haar"):
        cases.append(OneStepCase(f"{kind}:{name}", window, states, run))

    def projector_run(me, build, factor=None):
        def run(psi, t, dt):
            rho = np.outer(psi, np.conj(psi))
            return residual(me, rho, t, dt, build(psi, t, dt), factor)

        return run

    for name, window in cp.items():
        me = models[name]
        add("mcwf", name, window, projector_run(me, lambda p, t, dt, _me=me: mcwf_branches(_me, p, t, dt)))
        add("cloning", name, window, projector_run(me, lambda p, t, dt, _me=me: clone_branches(_me, p, t, dt)))
        add(
            "psi_roqj[none]",
            name,
            window,
            projector_run(me, lambda p, t, dt, _me=me: roqj_branches(_me, p, t, dt, gauge_none())),
        )

    for name, window in pdiv.items():
        me = models[name]
        add("wroqj", name, window, projector_run(me, lambda p, t, dt, _me=me: wroqj_branches(_me, p, t, dt)))
        wm = w_matching_gauge(me)
        add(
            "psi_roqj[w_matching]",
            name,
            window,
            projector_run(me, lambda p, t, dt, _me=me, _g=wm: roqj_branches(_me, p, t, dt, _g)),
        )

    identity_gauge = time_dependent_gauge(lambda t: -0.5 * np.tanh(t) * np.eye(2))
    add(
        "rroqj",
        "eternally_nm",
        (0.0, 3.0),
        projector_run(
            models["eternally_nm"],
            lambda p, t, dt, _me=models["eternally_nm"], _g=identity_gauge: roqj_branches(_me, p, t, dt, _g),
        ),
        states="equatorial",
    )

    for name, window in full.items():
        me = models[name]
        add(
            "doubled",
            name,
            window,
            projector_run(
                me,
                lambda p, t, dt, _me=me: doubled_branches(_me, DoubledState(p.copy(), p.copy()), t, dt),
            ),
        )
        policy = default_rate_policy()
        add(
            "im",
            name,
            window,
            projector_run(
                me,
                lambda p, t, dt, _me=me, _pol=policy: im_branches(_me, WeightedTrajectory(p, 1.0), t, dt, _pol),
            ),
        )
        add(
            "plqt",
            name,
            window,
            projector_run(
                me,
                lambda p, t, dt, _me=me: plqt_branches(_me, PlqtTrajectory(p, 1, 1.0), t, dt),
                factor=plqt_factor,
            ),
        )
        me3 = embedded_system(me)
        chi = np.zeros(3)
        chi[0] = chi[1] = 1.0 / np.sqrt(2.0)

        def tripled_run(psi, t, dt, _me=me, _me3=me3, _chi=chi):
            theta = np.kron(psi, _chi)
            mean = branch_expectation(mcwf_branches(_me3, theta, t, dt))
            got = tripled_extract(mean)
            want = one_step_target(_me, np.outer(psi, np.conj(psi)), t, dt)
            return float(np.max(np.abs(got - want)))

        add("tripled", name, window, tripled_run)

    for name, window in cp.items():
        me = models[name]

        def single_run(psi, t, dt, _me=me):
            got = nmqj_mean_rho(_me, [1.0], [psi], {}, t, dt)
            want = one_step_target(_me, np.outer(psi, np.conj(psi)), t, dt)
            return float(np.max(np.abs(got - want)))

        add("nmqj", name, window, single_run)

    # negative dephasing needs a mutually-imaged bucket pair with recorded
    # jump history both ways; the weight split varies with the sampled state
    for name, window in (("eternally_nm", (0.0, 3.0)), ("delayed_negative", (0.9, 3.0))):
        me = models[name]

        def pair_run(psi, t, dt, _me=me):
            other = SIGMA_Z @ psi
            w = 0.25 + 0.5 * abs(psi[0]) ** 2
            rho = w * np.outer(psi, np.conj(psi)) + (1.0 - w) * np.outer(other, np.conj(other))
            got = nmqj_mean_rho(_me, [w, 1.0 - w], [psi, other], {(0, 2): {1}, (1, 2): {0}}, t, dt)
            return float(np.max(np.abs(got - one_step_target(_me, rho, t, dt))))

        add("nmqj[pair]", name, window, pair_run)

    # the raising/lowering images of any qubit state are the poles, so three
    # buckets with pole provenance cover the window where those rates go
    # negative
    nonp = models["non_p_divisible"]

    def triple_run(psi, t, dt, _me=nonp):
        w0 = 0.4 + 0.2 * abs(psi[0]) ** 2
        w1 = w2 = 0.5 * (1.0 - w0)
        rho = (
            w0 * np.outer(psi, np.conj(psi))
            + w1 * np.outer(KET0, np.conj(KET0))
            + w2 * np.outer(KET1, np.conj(KET1))
        )
        got = nmqj_mean_rho(
            _me,
            [w0, w1, w2],
            [psi, KET0, KET1],
            {(1, 1): {0, 2}, (2, 0): {0, 1}},
            t,
            dt,
        )
        return float(np.max(np.abs(got - one_step_target(_me, rho, t, dt))))

    add("nmqj[poles]", "non_p_divisible", (1.2, 3.0), triple_run)

    return cases
