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
series and the sha256 of its replicas' event logs; ``rho_hat`` and ``stderr``
themselves are kept (base64 of their bytes) so that ``compare`` can judge
where two files differ. It also runs
every input of ``ORACLE_INPUTS`` once (they draw no random numbers) and
records the sha256 and bytes of its array, and runs every config of
``CLI_INPUTS`` through ``unravel run`` at each seed, recording its exit code,
the sha256 of ``<out>_results.csv`` and of ``<out>_summary.json`` with every
``wall_clock_ms`` zeroed. ``compare`` exits 1 unless every fingerprint is
identical. For an ensemble that differs it prints max |d rho_hat|, the sup
over time of the trace distance between the two rho_hat series, both over
the larger max stderr of the two runs, and whether the event counts match:
a change that moves only last bits keeps the counts and a ratio far below 1,
one that flips branches moves rho_hat at the 1/N scale and is judged by that
sup distance against the stderr, seed by seed.

The inputs cover the ensemble cases of ``bench/`` (batched and per_step), the
weighted, gauged, population and replica methods, ensembles whose batches
are unequal, so that one tile holds batches of two sizes (N = 1003 for
mcwf, for im's weights and for doubled's pair sums and norm tally, N = 83
for wtd), fill several row tiles (N = 10^4 for mcwf and cloning, and N = 4097,
whose middle tile holds batches of 205 and 204 rows, nmqj's finishing run
among them) or hold one
trajectory each (N = 13), one abort of each kind of
method (channel and spectral menus, replica, waiting time, embedding), nmqj's
abort at N = 10^4, and the
deterministic paths: the RK4 oracle with and without substeps and with a
trace sink, the propagator maps and the divisibility scan. Driven cascade
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
from unravel.propagate import propagate, propagator_maps  # noqa: E402
from unravel.models import KET0, KET1, PLUS, SIGMA_MINUS, SIGMA_X, SIGMA_Z, build_model  # noqa: E402
from unravel.rate_operators import gauge_none, time_dependent_gauge, w_matching_gauge  # noqa: E402

DT = 1e-2


def _model(name):
    return lambda: build_model(name).me


def _trace_sink():
    """Decay at rate 1 with the drift shifted by -1/2: the trace grows."""
    gamma_l = SIGMA_MINUS.conj().T @ SIGMA_MINUS
    return master_equation(2, np.zeros((2, 2)), [(SIGMA_MINUS, 1.0, "down")],
                           trace_sink=lambda t: gamma_l - 0.5 * np.eye(2))


def _sigma_z(rate):
    return lambda: master_equation(2, np.zeros((2, 2)), [(SIGMA_Z, rate, "sz")])


def _rate_step():
    """Decay whose rate jumps from 5 to 300 at t = 0.5 (dt = 0.01 then makes
    jump probabilities > 1), under a drive that spreads the rows' states."""
    return master_equation(2, 3.0 * SIGMA_X, [(SIGMA_MINUS, lambda t: 5.0 if t < 0.5 else 300.0, "down")])


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
    "abort/mcwf": (_kind("mcwf"), _model("delayed_negative"), PLUS, 400, 1.5),
    "abort/wroqj": (_kind("wroqj"), _model("non_p_divisible"), KET0, 400, 3.0),
    "abort/mcwf_step_too_large": (_kind("mcwf"), _rate_step, PLUS, 400, 0.6),
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
    "divisibility/non_p_divisible": _scan(_model("non_p_divisible")),
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


def _series(times, rho_hat, stderr, rho_batches) -> dict:
    return {
        "points": len(times),
        "rho_hat": _sha(rho_hat),
        "stderr": _sha(stderr),
        "rho_batches": _sha(rho_batches),
        "rho_hat_b64": _b64(rho_hat, complex),
        "stderr_b64": _b64(stderr, float),
    }


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
            "partial": _series(p["times"], p["rho_hat"], p["stderr"], p["rho_batches"]),
        }
        if "event_logs" in p:
            out["event_logs"] = hashlib.sha256(repr(p["event_logs"]).encode()).hexdigest()
        return out
    return {
        "abort": None,
        "series": _series(grid.times(), res.rho_hat, res.stderr, res.rho_batches),
        "event_counts": res.event_counts,
        "diagnostics": _hash_diagnostics(res.diagnostics),
    }


def write(path: Path, seeds: list[int]) -> None:
    out = {}
    for name in INPUTS:
        for seed in seeds:
            out[f"{name}@{seed}"] = fingerprint(name, seed)
            print(f"{name}@{seed}", flush=True)
    for name in CLI_INPUTS:
        for seed in seeds:
            out[f"{name}@{seed}"] = cli_fingerprint(name, seed)
            print(f"{name}@{seed}", flush=True)
    for name, run in ORACLE_INPUTS.items():
        values = np.ascontiguousarray(run(), dtype=complex)
        out[name] = {"values": _sha(values), "values_b64": _b64(values, complex)}
        print(name, flush=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def _values(b64: str, dtype=complex) -> np.ndarray:
    return np.frombuffer(base64.b64decode(b64), dtype=dtype)


def _judge(a: dict, b: dict) -> str:
    """max |d rho_hat| and the sup trace distance between two runs' series,
    each over the larger max stderr, and whether their event counts match."""
    sa, sb = (x.get("series") or x.get("partial") for x in (a, b))
    ra, rb = _values(sa["rho_hat_b64"]), _values(sb["rho_hat_b64"])
    if ra.shape != rb.shape:
        return "shapes differ"
    if ra.size == 0:
        return "no points"
    d = int(round(np.sqrt(ra.size // sa["points"])))
    diff = (ra - rb).reshape(sa["points"], d, d)
    sup_td = 0.5 * np.abs(np.linalg.eigvalsh(0.5 * (diff + np.conj(np.swapaxes(diff, 1, 2))))).sum(axis=1).max()
    err = max(_values(s["stderr_b64"], float).max() for s in (sa, sb)) if "stderr_b64" in sa else np.nan
    if "event_counts" in a:
        counts = "identical" if a["event_counts"] == b["event_counts"] else "differ"
    else:
        counts = "n/a (aborted)"
    return (f"max |d rho_hat| {np.abs(ra - rb).max():.3e} ({np.abs(ra - rb).max() / err:.2e} x max stderr), "
            f"sup TD {sup_td:.3e} ({sup_td / err:.2e} x max stderr), event counts {counts}")


def compare(a_path: Path, b_path: Path) -> int:
    a, b = json.loads(a_path.read_text()), json.loads(b_path.read_text())
    differ = 0
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            print(f"{key}: only in {'the second' if key in b else 'the first'} file")
            differ += 1
            continue
        if a[key] == b[key]:
            print(f"{key}: identical")
            continue
        differ += 1
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
    print(f"{len(set(a) | set(b)) - differ} identical, {differ} differ")
    return 1 if differ else 0


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
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
