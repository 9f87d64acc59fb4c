"""Fingerprints of ensemble results, for checking that a change keeps them.

Run from the root of a source checkout (it imports ``src/unravel`` of the
checkout it sits in):

    python3 tools/equivalence.py write before.json --seeds 5 42
    python3 tools/equivalence.py compare before.json after.json

``write`` runs every input of ``INPUTS`` at each seed and records, per run,
the sha256 of ``rho_hat``, ``stderr`` and ``rho_batches``, the event counts,
the sha256 of every diagnostics entry (``weight_sum``, ``theta_norm2_sum``,
``population``, sign-flip steps, event logs), and for a run that aborts the
error class, its message, its time, the same hashes of its partial
series and the sha256 of its replicas' event logs. It keeps every
``STRIDE``-th point of ``rho_hat`` and ``stderr`` and the last one (base64
of their bytes), which is what ``compare`` judges a difference on, and the
run's oracle score: (sup over time of the trace distance from ``rho_hat``
to the RK4 oracle - 1/N) / max stderr, over the finished or partial series.
It also runs every input of ``ORACLE_INPUTS`` once (they draw no random
numbers) and records the sha256 of its array and every ``STRIDE``-th entry
along its first axis, and runs every config of ``CLI_INPUTS`` through
``unravel run`` at each seed, recording its exit code, the sha256 of
``<out>_results.csv`` and of ``<out>_summary.json`` with every
``wall_clock_ms`` zeroed. The file records the seeds and the build that
wrote it (numpy, its BLAS and the SIMD extensions numpy found), because the
bytes depend on them.

``compare`` exits 1 unless every fingerprint is identical. For an ensemble
that differs it prints max |d rho_hat| and the sup trace distance between
the two rho_hat series over the kept points, both over the larger max
stderr of the two runs, and whether the event counts match: a change that
moves only last bits keeps the counts and a ratio far below 1, one that
flips branches moves rho_hat at the 1/N scale and is judged by that sup
distance against the stderr, seed by seed. It then prints both files'
oracle scores side by side. ``compare(..., tolerant=True)``, the
build-tolerant rule that ``tests/test_fingerprints.py`` applies to files
written on different builds, accepts a difference where it stays within
what a build can move: the same exit codes and abort classes,
deterministic arrays within ``VALUE_TOL``, and ensembles whose sup trace
distance stays within ``SUP_TD_TOL`` max stderr of each other.

The inputs cover the ensemble cases of ``bench/`` (batched and per_step), the
weighted, gauged, population and replica methods, ensembles whose batches
are unequal, so that one tile holds batches of two sizes (N = 1003 for
mcwf, for im's weights and for doubled's pair sums and norm tally, N = 83
for wtd), are large (N = 10^4 for mcwf and cloning, cloning also under a
trace sink that starts to clone at t = 0.5, and N = 4097: im's weights,
plqt's sign flips and psi_roqj's ``w_matching`` gauge among them; of these
only tripled's N = 4097 run spans two tiles, batches of 205 and 204 rows in
the first, under the engine's budget of state entries, and
``tests/test_engine.py`` pins every method's runs across tiles against its
per-batch runs; nmqj's replicas take a row each, so its N = 4097 run and
its abort at N = 10^4 never span tiles) or hold one trajectory each
(N = 13), one abort of each kind of
method (channel and spectral menus, replica, waiting time, embedding), and the
deterministic paths: the RK4 oracle with and without substeps and with a
trace sink, the propagator maps with and without substeps and the
divisibility scan. A user
embedding built by ``tripled_embed`` (rather than the tripled runner's own)
is covered twice: the oracle of one with time-dependent pairs of both signs,
real- and complex-typed factors and custom completion levels, and mcwf on
the acceptance suite's criterion 5 embedding. Cloning under a trace sink
runs on a sink that grows the trace, one that starts late, one that shrinks
it so that every replica resamples, one under which every replica dies out,
and one that aborts. Driven cascade
decays run the spectral kernels' general-d paths, which the qubit closed
forms bypass: psi_roqj on a qutrit (3 x 3 rate operators) and wroqj on a
ququart (3 x 3 W blocks on psi^perp) pin them. wroqj on a qutrit builds its
W block through the general path too, but that block is 2 x 2 and takes
the closed-form eigh, so it covers the closed form inside a d > 2 kernel
rather than pinning the general one. The CLI configs
cover one run whose methods all finish and one in which some abort.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from unravel import TimeGrid, UnravelError, master_equation, method_id, run_ensemble  # noqa: E402
from unravel.cli import main as cli_main  # noqa: E402
from unravel.divisibility import divisibility_scan  # noqa: E402
from unravel.linalg import trace_distance  # noqa: E402
from unravel.propagate import propagate, propagator_maps  # noqa: E402
from unravel.models import KET0, KET1, PLUS, SIGMA_MINUS, SIGMA_X, SIGMA_Z, build_model  # noqa: E402
from unravel.rate_operators import gauge_none, time_dependent_gauge, w_matching_gauge  # noqa: E402
from unravel.tripled import JumpPair, embedded_master_equation, tripled_embed  # noqa: E402

DT = 1e-2
# every STRIDE-th point of a series, and its last, is kept for ``compare``
STRIDE = 10
# the build-tolerant rule of ``compare``: how far another build may move a
# deterministic array, and two ensembles' sup trace distance, in units of
# max stderr
VALUE_TOL = 1e-9
SUP_TD_TOL = 4.0


def _model(name):
    return lambda: build_model(name).me


def _shifted_sink(lam):
    """Decay at rate 1 with the drift shifted by -lam: the trace grows at
    rate lam, or shrinks where lam < 0."""
    def build():
        gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
        return master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")],
                               trace_sink=lambda t: gamma_l - lam * np.eye(2))
    return build


_trace_sink = _shifted_sink(0.5)


def _late_sink():
    """Decay at rate 1 whose drift equals G_L before t = 0.5 and is shifted
    by -1/2 from then on: the population is still until 0.5, then grows."""
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    return master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")],
                           trace_sink=lambda t: gamma_l if t < 0.5 else gamma_l - 0.5 * np.eye(2))


def _sigma_z(rate):
    return lambda: master_equation(2, np.zeros((2, 2)), [(SIGMA_Z, rate, "sz")])


def _step_rate(t):
    return 5.0 if t < 0.5 else 300.0


def _rate_step():
    """Decay whose rate jumps from 5 to 300 at t = 0.5 (dt = 0.01 then makes
    jump probabilities > 1), under a drive that spreads the rows' states."""
    return master_equation(2, 3.0 * SIGMA_X, [(SIGMA_MINUS, _step_rate, "down")])


def _rate_step_sink():
    """``_rate_step`` with the drift shifted by -1/2: the population grows
    until the rate's jump stops the run."""
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    return master_equation(2, 3.0 * SIGMA_X, [(SIGMA_MINUS, _step_rate, "down")],
                           trace_sink=lambda t: _step_rate(t) * gamma_l - 0.5 * np.eye(2))


def _cascade(dim):
    """Cascade decay dim-1 -> ... -> 0 (level k decays at rate k/2) under a
    drive that couples neighbouring levels, so that the rows' states spread
    over the whole space."""
    def build():
        lower = sum(np.outer(np.eye(dim)[k - 1], np.eye(dim)[k]) for k in range(1, dim))
        channels = [(np.outer(np.eye(dim)[k - 1], np.eye(dim)[k]), 0.5 * k, f"{k}->{k - 1}")
                    for k in range(dim - 1, 0, -1)]
        return master_equation(dim, 0.8 * (lower + lower.T), channels)
    return build


def _criterion5_embedding():
    """The acceptance suite's criterion 5: the rate-one decay recast as the
    pair C = D = sigma_-, embedded with the default completion level."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    pair = JumpPair(lambda t: sm, lambda t: sm, "recast")
    emb, _ = tripled_embed(lambda t: np.zeros((2, 2), dtype=complex), (pair,), 2, np.outer(PLUS, PLUS.conj()))
    return embedded_master_equation(emb)


_CHI = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
_REAL_FACTOR = np.array([[0.5, 1.0], [0.0, -0.3]])


def _user_embedding():
    """A user embedding under a driven complex hamiltonian: a time-dependent
    pair with D = C (a positive rate, complex factors), one with D = -C (a
    negative rate, real-typed factors, which are evaluated as complex), and
    a tuple of custom completion levels, the second one 0.5 above the least
    ||C - D||^2."""
    drive = np.array([[0.0, 0.2 - 0.7j], [0.2 + 0.7j, 0.0]])
    lop = np.array([[0.1j, -0.5 + 0.2j], [1.0, -0.3j]])
    positive = JumpPair(lambda t: np.sqrt(0.3 * (1.0 + 0.5 * np.sin(t))) * lop,
                        lambda t: np.sqrt(0.3 * (1.0 + 0.5 * np.sin(t))) * lop, "positive")
    negative = JumpPair(lambda t: 0.4 * np.cos(t) * _REAL_FACTOR, lambda t: -0.4 * np.cos(t) * _REAL_FACTOR, "negative")
    spread = np.linalg.norm(_REAL_FACTOR, ord=2) ** 2
    levels = (lambda t: 0.2 + 0.1 * t, lambda t: 4.0 * (0.4 * np.cos(t)) ** 2 * spread + 0.5)
    emb, w0 = tripled_embed(lambda t: 0.3 * SIGMA_Z + np.cos(t) * drive, (positive, negative), 2,
                            np.outer(PLUS, PLUS.conj()), a=levels)
    return propagate(embedded_master_equation(emb), w0, TimeGrid(0.0, 2.0, DT)).states


QUTRIT, QUQUART = np.ones(3, dtype=complex) / np.sqrt(3.0), np.ones(4, dtype=complex) / 2.0


def _gz_identity(me_name):
    gamma_z = build_model(me_name).rates.gamma_z
    return lambda me: method_id("rroqj", gauge=time_dependent_gauge(lambda t: gamma_z(t) * np.eye(2)))


def _kind(kind, **kw):
    return lambda me: method_id(kind, **kw)


# name -> (method(me), model(), psi0, n_traj, t_max)
INPUTS = {
    "batched/mcwf": (_kind("mcwf"), _model("spontaneous_emission"), PLUS, 2000, 1.5),
    "mcwf/n10000": (_kind("mcwf"), _model("spontaneous_emission"), PLUS, 10_000, 1.0),
    "mcwf/n1003": (_kind("mcwf"), _model("spontaneous_emission"), PLUS, 1003, 1.5),
    "im/n1003": (_kind("im"), _model("non_p_divisible"), PLUS, 1003, 1.5),
    "doubled/n1003": (_kind("doubled"), _model("eternally_nm"), PLUS, 1003, 1.5),
    "wtd/n83": (_kind("wtd"), _model("spontaneous_emission"), PLUS, 83, 2.0),
    "mcwf/n4097": (_kind("mcwf"), _model("spontaneous_emission"), PLUS, 4097, 1.0),
    # weighted and gauged runs at N = 4097
    "im/n4097": (_kind("im"), _model("non_p_divisible"), PLUS, 4097, 1.0),
    "plqt/n4097": (_kind("plqt"), _model("eternally_nm"), PLUS, 4097, 0.5),
    "psi_roqj/n4097": (lambda me: method_id("psi_roqj", gauge=w_matching_gauge(me)), _model("eternally_nm"),
                       PLUS, 4097, 0.5),
    "wroqj/n4097": (_kind("wroqj"), _model("eternally_nm"), PLUS, 4097, 0.5),
    "tripled/n4097": (_kind("tripled"), _model("eternally_nm"), PLUS, 4097, 0.5),
    "doubled/n13": (_kind("doubled"), _model("eternally_nm"), PLUS, 13, 1.5),
    "batched/wroqj": (_kind("wroqj"), _model("eternally_nm"), PLUS, 2000, 1.5),
    "batched/im": (_kind("im"), _model("non_p_divisible"), PLUS, 2000, 1.5),
    "batched/doubled": (_kind("doubled"), _model("eternally_nm"), PLUS, 2000, 1.5),
    "per_step/tripled": (_kind("tripled"), _model("delayed_negative"), PLUS, 1000, 1.0),
    "per_step/wtd": (_kind("wtd"), _model("spontaneous_emission"), PLUS, 80, 2.0),
    "cli/cloning": (_kind("cloning"), _model("spontaneous_emission"), PLUS, 2000, 1.0),
    "plqt/eternally_nm": (_kind("plqt"), _model("eternally_nm"), PLUS, 1000, 1.5),
    "plqt/delayed_negative": (_kind("plqt"), _model("delayed_negative"), PLUS, 1000, 1.5),
    "psi_roqj/none": (lambda me: method_id("psi_roqj", gauge=gauge_none()), _model("eternally_nm"),
                      PLUS, 500, 1.0),
    "psi_roqj/w_matching": (lambda me: method_id("psi_roqj", gauge=w_matching_gauge(me)),
                            _model("eternally_nm"), PLUS, 500, 1.0),
    "rroqj/gz_identity": (_gz_identity("eternally_nm"), _model("eternally_nm"), PLUS, 500, 1.0),
    "tripled/eternally_nm": (_kind("tripled"), _model("eternally_nm"), PLUS, 500, 1.0),
    "cloning/trace_sink": (_kind("cloning"), _trace_sink, KET1, 500, 1.0),
    # still steps, then clones, over three tiles
    "cloning/late_sink": (_kind("cloning"), _late_sink, KET1, 10_000, 1.0),
    # the trace shrinks: every replica resamples, some more than once
    "cloning/shrinking_sink": (_kind("cloning"), _shifted_sink(-1.0), KET1, 500, 3.0),
    # every replica of two members dies out, and then the whole tile
    "cloning/extinct": (_kind("cloning"), _shifted_sink(-5.0), KET1, 40, 2.0),
    "abort/mcwf": (_kind("mcwf"), _model("delayed_negative"), PLUS, 400, 1.5),
    "abort/wroqj": (_kind("wroqj"), _model("non_p_divisible"), KET0, 400, 3.0),
    "abort/mcwf_step_too_large": (_kind("mcwf"), _rate_step, PLUS, 400, 0.6),
    "abort/cloning_step_too_large": (_kind("cloning"), _rate_step_sink, PLUS, 400, 0.6),
    "abort/nmqj": (_kind("nmqj"), _model("delayed_negative"), PLUS, 400, 3.0),
    "abort/wtd": (_kind("wtd"), _model("delayed_negative"), PLUS, 80, 1.5),
    "abort/tripled_degenerate": (_kind("tripled"), _sigma_z(-20.0), PLUS, 40, 1.0),
    "abort/tripled_step": (_kind("tripled"), _sigma_z(lambda t: -20.0 if t < 0.8 else -500.0),
                           PLUS, 40, 1.0),
    "nmqj/spontaneous_emission": (_kind("nmqj"), _model("spontaneous_emission"), PLUS, 2000, 1.5),
    "nmqj/n4097": (_kind("nmqj"), _model("spontaneous_emission"), PLUS, 4097, 0.5),
    # the two replica runs of bench/ (cli_replica)
    "cloning/n10000": (_kind("cloning"), _model("spontaneous_emission"), PLUS, 10_000, 1.0),
    "abort/nmqj_n10000": (_kind("nmqj"), _model("delayed_negative"), PLUS, 10_000, 3.0),
    # the general-d spectral paths: a ququart's W block on psi^perp is 3 x 3
    # and a qutrit's psi_roqj rate operator too; a qutrit's W block is 2 x 2,
    # so wroqj/qutrit_cascade reaches the closed-form eigh
    "wroqj/qutrit_cascade": (_kind("wroqj"), _cascade(3), QUTRIT, 1000, 1.5),
    "wroqj/ququart_cascade": (_kind("wroqj"), _cascade(4), QUQUART, 1000, 1.5),
    "psi_roqj/qutrit_cascade": (lambda me: method_id("psi_roqj", gauge=gauge_none()), _cascade(3),
                                QUTRIT, 1000, 1.5),
    # a user embedding (tripled_embed) stepped by mcwf, as criterion 5 does
    "mcwf/criterion5_embedding": (_kind("mcwf"), _criterion5_embedding, np.kron(PLUS, _CHI), 500, 1.0),
}


def _oracle(model, psi, substeps, t_max=5.0):
    def run():
        return propagate(model(), np.outer(psi, np.conj(psi)), TimeGrid(0.0, t_max, DT), substeps).states
    return run


def _scan(model, t_max=3.0):
    def run():
        reports = divisibility_scan(model(), TimeGrid(0.0, t_max, DT))
        return np.array([[r.time, r.cp, r.p, r.min_rate, r.min_w_eigenvalue] for r in reports])
    return run


# name -> () -> array
ORACLE_INPUTS = {
    "oracle/eternally_nm": _oracle(_model("eternally_nm"), PLUS, 1),
    "oracle/eternally_nm/substeps3": _oracle(_model("eternally_nm"), PLUS, 3),
    "oracle/delayed_negative": _oracle(_model("delayed_negative"), PLUS, 1),
    "oracle/delayed_negative/substeps3": _oracle(_model("delayed_negative"), PLUS, 3),
    "oracle/trace_sink": _oracle(_trace_sink, KET1, 1),
    "oracle/trace_sink/substeps3": _oracle(_trace_sink, KET1, 3),
    "maps/non_p_divisible": lambda: propagator_maps(build_model("non_p_divisible").me, TimeGrid(0.0, 3.0, DT)),
    # three substep matrices per grid point: how the maps group substeps
    "maps/non_p_divisible/substeps3": lambda: propagator_maps(build_model("non_p_divisible").me,
                                                              TimeGrid(0.0, 3.0, DT), 3),
    "divisibility/non_p_divisible": _scan(_model("non_p_divisible")),
    "oracle/user_embedding": _user_embedding,
}


# name -> config of ``unravel run``, run at each seed
CLI_INPUTS = {
    "cli/finished": "model = spontaneous_emission\nmethods = cloning, wtd, doubled\n"
                    "trajectories = 400\nt_max = 1.5\n",
    # nmqj aborts with MissingTargetState, mcwf with NegativeRate, im finishes
    "cli/aborted": "model = delayed_negative\nmethods = nmqj, mcwf, im\ntrajectories = 400\nt_max = 3.0\n",
}


def _zero_wall_clocks(node):
    """The summary with every non-null ``wall_clock_ms`` set to 0."""
    if isinstance(node, dict):
        return {
            key: 0 if key == "wall_clock_ms" and val is not None else _zero_wall_clocks(val)
            for key, val in node.items()
        }
    return node


def cli_fingerprint(name: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "run"
        config.write_text(CLI_INPUTS[name] + f"seed = {seed}\nout = {out}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["run", "--config", str(config)])
        csv = Path(f"{out}_results.csv").read_bytes()
        summary = _zero_wall_clocks(json.loads(Path(f"{out}_summary.json").read_text()))
    return {
        "exit_code": code,
        "csv": hashlib.sha256(csv).hexdigest(),
        "summary": hashlib.sha256(json.dumps(summary, indent=2, sort_keys=True).encode()).hexdigest(),
    }


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _b64(a, dtype) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype=dtype).tobytes()).decode()


def _kept(a) -> np.ndarray:
    """Every ``STRIDE``-th entry of a along its first axis, and its last."""
    a = np.asarray(a)
    return a[np.unique(np.append(np.arange(0, len(a), STRIDE), len(a) - 1))] if len(a) else a


def _series(rho_hat, stderr, rho_batches) -> dict:
    return {
        "points": len(rho_hat),
        "rho_hat": _sha(rho_hat),
        "stderr": _sha(stderr),
        "rho_batches": _sha(rho_batches),
        "rho_hat_b64": _b64(_kept(rho_hat), complex),
        "stderr_b64": _b64(_kept(stderr), float),
    }


def _oracle_score(me, psi0, n_traj: int, rho_hat, stderr) -> float | None:
    """(sup TD from rho_hat to the oracle - 1/N) / max stderr, over the
    points of the series; None where no point has a finite nonzero stderr."""
    err = stderr[np.isfinite(stderr)]
    if len(rho_hat) < 2 or not err.size or err.max() == 0.0:
        return None
    psi0 = np.asarray(psi0, dtype=complex)
    grid = TimeGrid(0.0, DT * (len(rho_hat) - 1), DT)
    oracle = propagate(me, np.outer(psi0, psi0.conj()), grid).states
    return float((trace_distance(rho_hat, oracle).max() - 1.0 / n_traj) / err.max())


def _hash_diagnostics(diag: dict) -> dict:
    return {
        key: _sha(val) if isinstance(val, np.ndarray) else hashlib.sha256(repr(val).encode()).hexdigest()
        for key, val in diag.items()
    }


def fingerprint(name: str, seed: int) -> dict:
    method, model, psi0, n_traj, t_max = INPUTS[name]
    me = model()
    grid = TimeGrid(0.0, t_max, DT)
    try:
        res = run_ensemble(method(me), me, psi0, grid, n_traj, seed)
    except UnravelError as err:
        p = err.partial
        out = {
            "abort": {"error": type(err).__name__, "message": str(err), "time": float(err.time)},
            "partial": _series(p["rho_hat"], p["stderr"], p["rho_batches"]),
            "oracle_score": _oracle_score(me, psi0, n_traj, p["rho_hat"], p["stderr"]),
        }
        if "event_logs" in p:
            out["event_logs"] = hashlib.sha256(repr(p["event_logs"]).encode()).hexdigest()
        return out
    return {
        "abort": None,
        "series": _series(res.rho_hat, res.stderr, res.rho_batches),
        "event_counts": res.event_counts,
        "diagnostics": _hash_diagnostics(res.diagnostics),
        "oracle_score": _oracle_score(me, psi0, n_traj, res.rho_hat, res.stderr),
    }


def build() -> dict:
    """The numpy, BLAS and SIMD extensions this process runs on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '')} {blas.get('version', '')}".strip(),
        "simd": sorted(config.get("SIMD Extensions", {}).get("found", [])),
    }


def fingerprints(seeds: list[int], log=None) -> dict:
    """Every fingerprint at the given seeds, keyed ``name@seed`` (``name``
    for the deterministic inputs), with the build under ``_build``."""
    log = log or (lambda key: None)
    out = {"_build": {**build(), "seeds": list(seeds)}}
    for name in INPUTS:
        for seed in seeds:
            out[f"{name}@{seed}"] = fingerprint(name, seed)
            log(f"{name}@{seed}")
    for name in CLI_INPUTS:
        for seed in seeds:
            out[f"{name}@{seed}"] = cli_fingerprint(name, seed)
            log(f"{name}@{seed}")
    for name, run in ORACLE_INPUTS.items():
        values = np.ascontiguousarray(run(), dtype=complex)
        out[name] = {"values": _sha(values), "values_b64": _b64(_kept(values), complex)}
        log(name)
    return out


def write(path: Path, seeds: list[int]) -> None:
    out = fingerprints(seeds, log=lambda key: print(key, flush=True))
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def _values(b64: str, dtype=complex) -> np.ndarray:
    return np.frombuffer(base64.b64decode(b64), dtype=dtype)


def _distance(a: dict, b: dict):
    """max |d rho_hat| and the sup trace distance between two runs' kept
    points, and the larger max stderr of the two; None if the shapes differ."""
    sa, sb = (x.get("series") or x.get("partial") for x in (a, b))
    ra, rb = _values(sa["rho_hat_b64"]), _values(sb["rho_hat_b64"])
    if ra.shape != rb.shape or sa["points"] != sb["points"] or ra.size == 0:
        return None
    kept = len(_kept(np.arange(sa["points"])))
    d = int(round(np.sqrt(ra.size // kept)))
    diff = (ra - rb).reshape(kept, d, d)
    sup_td = 0.5 * np.abs(np.linalg.eigvalsh(0.5 * (diff + np.conj(np.swapaxes(diff, 1, 2))))).sum(axis=1).max()
    errs = [_values(s["stderr_b64"], float) for s in (sa, sb)]
    return np.abs(ra - rb).max(), sup_td, max(e[np.isfinite(e)].max(initial=0.0) for e in errs)


def _judge(a: dict, b: dict) -> str:
    """``_distance`` over the max stderr, and whether the event counts match."""
    dist = _distance(a, b)
    if dist is None:
        return "shapes differ"
    max_abs, sup_td, err = dist
    if "event_counts" in a:
        counts = "identical" if a["event_counts"] == b["event_counts"] else "differ"
    else:
        counts = "n/a (aborted)"
    with np.errstate(divide="ignore", invalid="ignore"):
        return (f"max |d rho_hat| {max_abs:.3e} ({max_abs / err:.2e} x max stderr), "
                f"sup TD {sup_td:.3e} ({sup_td / err:.2e} x max stderr), event counts {counts}")


def _within_build_rule(a: dict, b: dict) -> bool:
    """Whether two differing fingerprints of one input stay within what
    another build may move (``compare``'s ``tolerant``)."""
    if "csv" in a:
        return a["exit_code"] == b["exit_code"]
    if "values" in a:
        ra, rb = _values(a["values_b64"]), _values(b["values_b64"])
        return ra.shape == rb.shape and bool(np.all(np.abs(ra - rb) <= VALUE_TOL))
    if (a["abort"] or {}).get("error") != (b["abort"] or {}).get("error"):
        return False
    dist = _distance(a, b)
    return dist is not None and dist[1] <= SUP_TD_TOL * dist[2]


def _score(x) -> str:
    return "-" if x is None else f"{x:.2f}"


def compare(a: dict, b: dict, tolerant: bool = False) -> int:
    """Print how two fingerprint dicts differ, input by input, then their
    oracle scores side by side; the number of inputs that differ (with
    ``tolerant``, that differ beyond ``_within_build_rule``)."""
    if a.get("_build") != b.get("_build"):
        print(f"builds differ: {a.get('_build')} | {b.get('_build')}")
    keys = sorted((set(a) | set(b)) - {"_build"})
    differ = failed = 0
    for key in keys:
        if key not in a or key not in b:
            print(f"{key}: only in {'the second' if key in b else 'the first'} file")
            differ += 1
            failed += 1
            continue
        if a[key] == b[key]:
            print(f"{key}: identical")
            continue
        differ += 1
        failed += not (tolerant and _within_build_rule(a[key], b[key]))
        if "csv" in a[key]:
            fields = [f for f in ("exit_code", "csv", "summary") if a[key][f] != b[key][f]]
            print(f"{key}: differs in {', '.join(fields)}")
            continue
        if "values" in a[key]:
            ra, rb = (_values(x[key]["values_b64"]) for x in (a, b))
            fields = ["values"]
            delta = f"max |d values| {np.abs(ra - rb).max():.3e}" if ra.shape == rb.shape else "shapes differ"
        else:
            sa, sb = (x.get("series") or x.get("partial") for x in (a[key], b[key]))
            fields = [f for f in ("abort", "event_logs", "event_counts", "diagnostics")
                      if a[key].get(f) != b[key].get(f)]
            fields += [f for f in ("points", "rho_hat", "stderr", "rho_batches") if sa[f] != sb[f]]
            delta = _judge(a[key], b[key])
        print(f"{key}: differs in {', '.join(fields)}; {delta}")
    print(f"{len(keys) - differ} identical, {differ} differ")
    scored = [key for key in keys if "oracle_score" in a.get(key, {}) or "oracle_score" in b.get(key, {})]
    print("oracle score, (sup TD to the oracle - 1/N) / max stderr: first | second")
    for key in scored:
        print(f"  {key}: {_score(a.get(key, {}).get('oracle_score'))} | {_score(b.get(key, {}).get('oracle_score'))}")
    return failed if tolerant else differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="run every input and write the fingerprints")
    w.add_argument("out", type=Path)
    w.add_argument("--seeds", type=int, nargs="+", default=[5, 42])
    c = sub.add_parser("compare", help="compare two fingerprint files")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out, args.seeds)
        return 0
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    return 1 if compare(a, b) else 0


if __name__ == "__main__":
    sys.exit(main())
