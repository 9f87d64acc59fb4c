"""Wall, CPU and peak RSS of ensembles against the engine's tile cap.

Run from the root of a source checkout (it runs ``src/unravel`` of the
checkout it sits in, or of ``--src``):

    python3 tools/tile_sweep.py
    python3 tools/tile_sweep.py --reps 5 --src ../other-checkout/src

For each method of ``CASES`` and each cap of ``CAPS`` (rows a tile may hold;
``one`` puts the whole ensemble in one tile), it runs ``run_ensemble`` at
N = 10^4 trajectories, on |+>, dt = 1e-2, to t_max = 2, seed 42, in a fresh
interpreter that sets ``engine._TILE_ROWS`` before the run, and
prints the median over ``--reps`` repetitions of the run's wall time, its
process CPU time and the interpreter's ``ru_maxrss``. An aborting run (nmqj
on delayed_negative) is timed to its abort. The caps alternate within each
repetition, in reverse order on every other one, so that a drift of the
host's speed falls on all of them alike. A method of ``ONE_TILE`` holds
every replica in one tile at any cap, so it runs once per repetition, at
the cap of the checkout it runs.

It then runs the ``unravel run`` commands of the benchmark's
``cli_replica`` workload (``bench/workloads.py``) in the same way, each in a
fresh interpreter that sets the cap and calls ``unravel.cli.main``, and
prints the median wall of the whole command, interpreter start-up included,
and the command's ``ru_maxrss``. This process imports neither numpy nor
unravel, so the RSS a child inherits at fork stays below the child's own
peak.

The tile rule is part of the engine, so a run also measures the rule of the
checkout it runs: under ``--src`` of an older checkout nmqj may tile by
members rather than by buckets, and there its one column shows that
checkout's cap. The cap is a trade-off between per-step Python overhead
(fewer, wider tiles) and the size of each tile's temporaries, so a change
to a step kernel's per-row cost calls for re-running this.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (standard library only)

# (method, model) as in the tile cap's comment in ``engine``
CASES = (
    ("mcwf", "spontaneous_emission"),
    ("cloning", "spontaneous_emission"),
    ("wtd", "spontaneous_emission"),
    ("nmqj", "delayed_negative"),
    ("wroqj", "eternally_nm"),
    ("psi_roqj", "eternally_nm"),
    ("im", "eternally_nm"),
    ("plqt", "eternally_nm"),
    ("doubled", "eternally_nm"),
    ("tripled", "eternally_nm"),
)
CAPS = ("2048", "4096", "8192", "one")
OWN_CAP = ("own",)  # leave the checkout's ``_TILE_ROWS`` as it is
# an nmqj replica is one row (it starts as one bucket), so its twenty
# replicas are one tile at every cap of ``CAPS``
ONE_TILE = frozenset({"nmqj"})
N_TRAJ, T_MAX, SEED = 10_000, 2.0, 42

_SET_CAP = """
if cap != "own":
    engine._TILE_ROWS = int(n_traj) if cap == "one" else int(cap)
"""

_ENSEMBLE = """
import json, resource, sys, time
from unravel import TimeGrid, UnravelError, engine, method_id, run_ensemble
from unravel.models import PLUS, build_model
kind, model, n_traj, t_max, seed, cap = sys.argv[1:]
""" + _SET_CAP + """
me, grid = build_model(model).me, TimeGrid(0.0, float(t_max), 1e-2)
w0, c0 = time.perf_counter(), time.process_time()
try:
    run_ensemble(method_id(kind), me, PLUS, grid, int(n_traj), int(seed))
    aborted = None
except UnravelError as err:
    aborted = err.time
wall, cpu = time.perf_counter() - w0, time.process_time() - c0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall": wall, "cpu": cpu, "rss": rss, "aborted": aborted}))
"""

_CLI = """
import sys
from unravel import cli, engine
cap, n_traj = sys.argv[1:3]
""" + _SET_CAP + """
sys.exit(cli.main(sys.argv[3:]))
"""


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _ensemble_run(src: Path, kind: str, model: str, cap: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _ENSEMBLE, kind, model, str(N_TRAJ), str(T_MAX), str(SEED), cap],
        env=_env(src), capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _cli_run(src: Path, workdir: Path, cmd: workloads.Command, cap: str) -> dict:
    config = workdir / f"{cmd.model}.cfg"
    config.write_text(f"model = {cmd.model}\n", encoding="utf-8")
    argv = cmd.argv(config, SEED, workdir / "out")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _CLI, cap, str(cmd.n_traj), *argv],
                            env=_env(src), cwd=workdir,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 2):  # 2: a method aborted, as nmqj does
        raise RuntimeError(f"unravel {' '.join(argv)} exited {proc.returncode}")
    return {"wall": wall, "rss": usage.ru_maxrss / 1024.0}


def _sweep(run, caps, reps: int) -> dict[str, list[dict]]:
    """``run(cap)`` for every cap, ``reps`` times, alternating the caps."""
    out: dict[str, list[dict]] = {cap: [] for cap in caps}
    for r in range(reps):
        for cap in caps if r % 2 == 0 else reversed(caps):
            out[cap].append(run(cap))
    return out


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package source to run")
    parser.add_argument("--reps", type=int, default=3, help="repetitions per cap (at least 3)")
    args = parser.parse_args(argv)
    if args.reps < 3:
        parser.error("--reps must be at least 3")
    src = args.src.resolve()
    one_tile_note = "  one tile at every cap: the checkout's own cap"

    print(f"run_ensemble, N = {N_TRAJ}, t_max = {T_MAX:g}, seed {SEED}, "
          f"median of {args.reps}: wall s / cpu s / ru_maxrss MB")
    heads = "  ".join(f"{cap + ' rows' if cap != 'one' else 'one tile':>22}" for cap in CAPS)
    print(f"{'method (model)':36}{heads}")
    for kind, model in CASES:
        caps = OWN_CAP if kind in ONE_TILE else CAPS
        runs = _sweep(lambda cap: _ensemble_run(src, kind, model, cap), caps, args.reps)
        cells = "  ".join(
            f"{_median(runs[c], 'wall'):8.3f} {_median(runs[c], 'cpu'):6.3f} {_median(runs[c], 'rss'):6.1f}"
            for c in caps
        )
        abort = runs[caps[0]][0]["aborted"]
        print(f"{f'{kind} ({model})':36}{cells}" + ("" if caps == CAPS else one_tile_note)
              + ("" if abort is None else f"  aborts at t = {abort:g}"))

    print(f"\nunravel run as in cli_replica, seed {SEED}, median of {args.reps}: "
          "wall s / ru_maxrss MB")
    print(f"{'methods (model)':36}{heads}")
    commands = [c for c in workloads.WORKLOADS["cli_replica"].commands if c.subcommand == "run"]
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in commands:
            caps = OWN_CAP if ONE_TILE.issuperset(cmd.methods) else CAPS
            runs = _sweep(lambda cap: _cli_run(src, Path(tmp), cmd, cap), caps, args.reps)
            cells = "  ".join(f"{_median(runs[c], 'wall'):15.3f} {_median(runs[c], 'rss'):6.1f}"
                              for c in caps)
            label = f"{'+'.join(cmd.methods)} ({cmd.model})"
            print(f"{label:36}{cells}" + ("" if caps == CAPS else one_tile_note))
    return 0


if __name__ == "__main__":
    sys.exit(main())
