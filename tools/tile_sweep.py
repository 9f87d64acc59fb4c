"""Wall, CPU and peak RSS of ensembles against the engine's tile budget.

Run from the root of a source checkout (it runs ``src/unravel`` of the
checkout it sits in, or of ``--src``):

    python3 tools/tile_sweep.py
    python3 tools/tile_sweep.py --reps 5 --src ../other-checkout/src

For each method of ``CASES`` and each budget of ``BUDGETS`` (state entries a
tile may hold, rows times the width of the state the method steps; ``one``
puts the whole ensemble in one tile), it runs ``run_ensemble`` at N = 10^4
trajectories, on |+>, dt = 1e-2, to t_max = 2, seed 42, in a fresh
interpreter that sets ``engine._TILE_ENTRIES`` before the run, and prints
the width of the method's state and, per budget, the median over
``--reps`` repetitions of the run's wall time, its process CPU time and
the interpreter's ``ru_maxrss``, and the tiles the run stepped. An
aborting run (nmqj on delayed_negative) is timed to its abort. The budgets
alternate within each repetition, in reverse order on every other one, so
that a drift of the host's speed falls on all of them alike. A method of
``ONE_TILE`` holds every replica in one tile at any budget, so it runs
once per repetition, at the budget of the checkout it runs.

It then runs the ``unravel run`` commands of the benchmark's
``cli_replica`` workload (``bench/workloads.py``) in the same way, each in a
fresh interpreter that sets the budget and calls ``unravel.cli.main``, and
prints the median wall of the whole command, interpreter start-up included,
and the command's ``ru_maxrss``. This process imports neither numpy nor
unravel, so the RSS a child inherits at fork stays below the child's own
peak.

The tile rule is part of the engine, so a run also measures the rule of the
checkout it runs; ``--src`` needs a checkout whose engine has
``_TILE_ENTRIES`` and ``_state_width``. The budget is a trade-off between
per-step Python overhead (fewer, wider tiles) and the size of each tile's
temporaries, so a change to a step kernel's per-row cost calls for
re-running this.
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

# (method, model) as in the tile budget's comment in ``engine``
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
BUDGETS = ("12288", "24576", "49152", "one")
OWN_BUDGET = ("own",)  # leave the checkout's ``_TILE_ENTRIES`` as it is
# an nmqj replica is one row (it starts as one bucket), so its twenty
# replicas are one tile at every budget of ``BUDGETS``
ONE_TILE = frozenset({"nmqj"})
N_TRAJ, T_MAX, SEED = 10_000, 2.0, 42

_SET_BUDGET = """
if budget != "own":
    engine._TILE_ENTRIES = sys.maxsize if budget == "one" else int(budget)
"""

_ENSEMBLE = """
import json, resource, sys, time
from unravel import TimeGrid, UnravelError, engine, method_id, run_ensemble
from unravel.models import PLUS, build_model
kind, model, n_traj, t_max, seed, budget = sys.argv[1:]
""" + _SET_BUDGET + """
tiles, runner = [], engine._runner


def counted(method):  # counts the runner calls, one per tile
    run = runner(method)
    return lambda *args: (tiles.append(1), run(*args))[1]


engine._runner = counted
me, grid = build_model(model).me, TimeGrid(0.0, float(t_max), 1e-2)
w0, c0 = time.perf_counter(), time.process_time()
try:
    run_ensemble(method_id(kind), me, PLUS, grid, int(n_traj), int(seed))
    aborted = None
except UnravelError as err:
    aborted = err.time
wall, cpu = time.perf_counter() - w0, time.process_time() - c0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall": wall, "cpu": cpu, "rss": rss, "aborted": aborted, "tiles": len(tiles),
                  "width": engine._state_width(kind, me.dim)}))
"""

_CLI = """
import sys
from unravel import cli, engine
budget, n_traj = sys.argv[1:3]
""" + _SET_BUDGET + """
sys.exit(cli.main(sys.argv[3:]))
"""


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _ensemble_run(src: Path, kind: str, model: str, budget: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _ENSEMBLE, kind, model, str(N_TRAJ), str(T_MAX), str(SEED), budget],
        env=_env(src), capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _cli_run(src: Path, workdir: Path, cmd: workloads.Command, budget: str) -> dict:
    config = workdir / f"{cmd.model}.cfg"
    config.write_text(f"model = {cmd.model}\n", encoding="utf-8")
    argv = cmd.argv(config, SEED, workdir / "out")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _CLI, budget, str(cmd.n_traj), *argv],
                            env=_env(src), cwd=workdir,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 2):  # 2: a method aborted, as nmqj does
        raise RuntimeError(f"unravel {' '.join(argv)} exited {proc.returncode}")
    return {"wall": wall, "rss": usage.ru_maxrss / 1024.0}


def _sweep(run, budgets, reps: int) -> dict[str, list[dict]]:
    """``run(budget)`` for every budget, ``reps`` times, alternating them."""
    out: dict[str, list[dict]] = {budget: [] for budget in budgets}
    for r in range(reps):
        for budget in budgets if r % 2 == 0 else reversed(budgets):
            out[budget].append(run(budget))
    return out


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package source to run")
    parser.add_argument("--reps", type=int, default=3, help="repetitions per budget (at least 3)")
    args = parser.parse_args(argv)
    if args.reps < 3:
        parser.error("--reps must be at least 3")
    src = args.src.resolve()
    one_tile_note = "  one tile at every budget: the checkout's own budget"

    print(f"run_ensemble, N = {N_TRAJ}, t_max = {T_MAX:g}, seed {SEED}, "
          f"median of {args.reps}: wall s / cpu s / ru_maxrss MB / tiles")
    heads = "  ".join(f"{budget + ' entries' if budget != 'one' else 'one tile':>25}" for budget in BUDGETS)
    print(f"{'method (model)':36}{'width':>5}  {heads}")
    for kind, model in CASES:
        budgets = OWN_BUDGET if kind in ONE_TILE else BUDGETS
        runs = _sweep(lambda budget: _ensemble_run(src, kind, model, budget), budgets, args.reps)
        cells = "  ".join(
            f"{_median(runs[b], 'wall'):8.3f} {_median(runs[b], 'cpu'):6.3f} {_median(runs[b], 'rss'):6.1f}"
            f" {runs[b][0]['tiles']:2d}"
            for b in budgets
        )
        first = runs[budgets[0]][0]
        print(f"{f'{kind} ({model})':36}{first['width']:5d}  {cells}" + ("" if budgets == BUDGETS else one_tile_note)
              + ("" if first["aborted"] is None else f"  aborts at t = {first['aborted']:g}"))

    print(f"\nunravel run as in cli_replica, seed {SEED}, median of {args.reps}: "
          "wall s / ru_maxrss MB")
    print(f"{'methods (model)':36}{'':5}  {heads}")
    commands = [c for c in workloads.WORKLOADS["cli_replica"].commands if c.subcommand == "run"]
    with tempfile.TemporaryDirectory() as tmp:
        for cmd in commands:
            budgets = OWN_BUDGET if ONE_TILE.issuperset(cmd.methods) else BUDGETS
            runs = _sweep(lambda budget: _cli_run(src, Path(tmp), cmd, budget), budgets, args.reps)
            cells = "  ".join(f"{_median(runs[b], 'wall'):18.3f} {_median(runs[b], 'rss'):6.1f}"
                              for b in budgets)
            label = f"{'+'.join(cmd.methods)} ({cmd.model})"
            print(f"{label:36}{'':5}  {cells}" + ("" if budgets == BUDGETS else one_tile_note))
    return 0


if __name__ == "__main__":
    sys.exit(main())
