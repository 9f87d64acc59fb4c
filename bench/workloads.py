"""The benchmark's workloads: what one pass runs and how its output is checked.

Every ensemble is checked against the RK4 oracle on the same grid. It passes
when its sup trace distance to the oracle is at most ``STDERR_TOL`` times its
own largest batch stderr, plus ``1/N`` (one trajectory's weight). The
tolerance is the same for every method and model: an unbiased ensemble stays
near 1-2 on any seed, a bias several stderr wide fails. The sup is compared
with the largest stderr rather than point by point because early points rest
on a handful of jumps per batch, where the batch stderr is itself unreliable;
the largest pointwise ratio is recorded alongside.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

DT = 1e-2
STDERR_TOL = 4.0
CLI_TIMEOUT_S = 150.0
CLI_THREADS = 2  # the engine's thread pool is on the path only in cli_replica


@dataclass(frozen=True)
class Case:
    """One ensemble: method token, model name, trajectories, final time."""

    method: str
    model: str
    n_traj: int
    t_max: float


@dataclass(frozen=True)
class Command:
    """One ``unravel`` CLI invocation; ``methods`` is empty for divisibility."""

    subcommand: str
    model: str
    methods: tuple[str, ...]
    n_traj: int
    t_max: float

    def argv(self, config: Path, seed: int, out: Path) -> list[str]:
        args = [self.subcommand, "--config", str(config), "--t-max", f"{self.t_max:g}",
                "--out", str(out)]
        if self.subcommand == "run":
            for m in self.methods:
                args += ["--method", m]
            args += ["--trajectories", str(self.n_traj), "--seed", str(seed),
                     "--threads", str(CLI_THREADS)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...] = ()  # run in-process with threads = 1
    commands: tuple[Command, ...] = ()


# Why each workload exists is recorded in BENCHMARK.json. A pass takes 4-9 s
# on a 2-core machine, so a run holds several; batched uses N = 2000 because
# larger arrays made the pass time on a shared machine markedly noisier.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "batched",
            cases=(
                Case("mcwf", "spontaneous_emission", 2000, 1.5),
                Case("wroqj", "eternally_nm", 2000, 1.5),
                Case("im", "non_p_divisible", 2000, 1.5),
                Case("doubled", "eternally_nm", 2000, 1.5),
            ),
        ),
        Workload(
            "per_step",
            cases=(
                # t_max = 1 still crosses the rate sign change at pi/4
                Case("tripled", "delayed_negative", 1000, 1.0),
                Case("wtd", "spontaneous_emission", 80, 2.0),
            ),
        ),
        Workload(
            "cli_replica",
            commands=(
                # N = 10^4 keeps nmqj's reverse-jump targets populated (at
                # N = 2000 it aborts with MissingTargetState) and its bias
                # several stderr wide
                Command("run", "delayed_negative", ("nmqj",), 10_000, 3.0),
                Command("run", "spontaneous_emission", ("cloning", "mcwf"), 10_000, 1.0),
                Command("divisibility", "non_p_divisible", (), 0, 5.0),
            ),
        ),
    )
}


@dataclass
class Check:
    """Outcome of one ensemble or command in one pass."""

    name: str
    ok: bool
    sup_td: float | None = None
    max_stderr: float | None = None
    td_over_stderr: float | None = None  # (sup TD - 1/N) / max stderr, judged
    max_pointwise_ratio: float | None = None  # max over t of (TD - 1/N) / stderr
    error: str | None = None
    fingerprint: tuple = ()


@dataclass
class PassResult:
    wall_s: float
    traj_steps: int = 0
    ensemble_s: float = 0.0
    peak_rss_mb: float | None = None
    checks: list[Check] = field(default_factory=list)
    events: dict[str, dict] = field(default_factory=dict)
    bytes_written: int = 0
    malformed: list[str] = field(default_factory=list)
    parts: list[tuple[str, float, float]] = field(default_factory=list)  # (name, start, end)
    ref_s: list[float] = field(default_factory=list)  # reference blocks around the parts

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.checks)


def oracle_verdict(name: str, dists, stderr, n_traj: int, fingerprint: tuple = ()) -> Check:
    """Judge an ensemble's distances to the oracle against its own stderr."""
    import numpy as np

    dists = np.asarray(dists, dtype=float)
    se = np.asarray(stderr, dtype=float)
    excess = dists - 1.0 / n_traj
    with np.errstate(divide="ignore", invalid="ignore"):
        # batches that agree up to rounding have no spread: x / 0 -> inf
        pointwise = np.where(excess <= 0.0, 0.0, excess / np.where(se < 1e-12, 0.0, se))
        score = float(np.maximum(excess.max(), 0.0) / se.max())
    if not np.isfinite(se).all():  # a batch could not be reconstructed
        score = float("inf")
    score = 0.0 if np.isnan(score) else score  # 0 / 0: exact agreement, zero spread
    return Check(name, score <= STDERR_TOL, float(dists.max()), float(se.max()), score,
                 float(pointwise.max()), fingerprint=fingerprint)


class Context:
    """Everything set-up builds; passes only read it."""

    def __init__(self, root: Path, workload: Workload, workdir: Path):
        self.root = root
        self.workload = workload
        self.workdir = workdir
        self.unravel = None
        self.inputs: list[tuple] = []  # (case, method_id, me, grid, psi0, rho0)
        self.configs: dict[str, Path] = {}
        self.models: dict[str, object] = {}


def setup(root: Path, workload: Workload, workdir: Path) -> Context:
    """Import unravel, build models and grids, and pay first-call set-up."""
    ctx = Context(root, workload, workdir)
    import numpy as np
    import unravel
    from unravel.models import PLUS, build_model

    if workload.commands:
        import unravel.cli

    ctx.unravel = unravel
    rho0 = np.outer(PLUS, PLUS.conj())
    for case in workload.cases:
        me = build_model(case.model).me
        grid = unravel.TimeGrid(0.0, case.t_max, DT)
        ctx.inputs.append((case, unravel.method_id(case.method), me, grid, PLUS, rho0))
        tiny = unravel.TimeGrid(0.0, 2 * DT, DT)
        unravel.run_ensemble(unravel.method_id(case.method), me, PLUS, tiny, 2, seed=0)
        unravel.propagate(me, rho0, tiny)
    for cmd in workload.commands:
        path = workdir / f"{cmd.model}.cfg"
        path.write_text(f"model = {cmd.model}\n", encoding="utf-8")
        ctx.configs[cmd.model] = path
        ctx.models[cmd.model] = build_model(cmd.model)
        tiny = replace(cmd, n_traj=4, t_max=2 * DT)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            unravel.cli.main(tiny.argv(path, 0, workdir / "warmup"))
    return ctx


def _events(counts: dict) -> dict:
    return {k: int(v) for k, v in counts.items() if not isinstance(v, list)}


def _pass_wall(res: PassResult) -> float:
    """Time of the parts alone, without the reference blocks between them."""
    return sum(end - start for _, start, end in res.parts)


def run_cases(ctx: Context, seed: int, reference=None) -> PassResult:
    """One pass over the in-process ensembles, each checked against the oracle.

    ``reference``, if given, is timed before each case and after the last one.
    """
    U = ctx.unravel
    res = PassResult(wall_s=0.0)
    for case, mid, me, grid, psi0, rho0 in ctx.inputs:
        name = f"{case.method}/{case.model}"
        if reference is not None:
            res.ref_s.append(reference())
        start = time.perf_counter()
        oracle = U.propagate(me, rho0, grid)
        try:
            ens = U.run_ensemble(mid, me, psi0, grid, case.n_traj, seed)
        except Exception as err:  # an abort is a counted failure, not the end of the run
            res.checks.append(Check(name, False, error=f"{type(err).__name__}: {err}"))
        else:
            _, dists = U.error_vs_oracle(ens, oracle)
            events = _events(ens.event_counts)
            res.checks.append(oracle_verdict(name, dists, ens.stderr, case.n_traj,
                                             (float(dists.max()), tuple(sorted(events.items())))))
            res.events[case.method] = events
            res.traj_steps += case.n_traj * grid.n_steps
            res.ensemble_s += ens.wall_clock_ms / 1e3
        res.parts.append((name, start, time.perf_counter()))
    if reference is not None:
        res.ref_s.append(reference())
    res.wall_s = _pass_wall(res)
    return res


def _wait_with_rusage(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` and return its own rusage (``subprocess`` drops it)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _run_cli_subprocess(ctx: Context, argv: list[str]) -> tuple[int, float, str]:
    """(exit code, peak RSS in MB, stderr text) of ``python -m unravel.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.root / "src")
    err_path = ctx.workdir / "cli.stderr"
    with open(err_path, "wb") as err, open(os.devnull, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "unravel.cli", *argv],
                                cwd=ctx.workdir, env=env, stdout=out, stderr=err)
        usage = _wait_with_rusage(proc, CLI_TIMEOUT_S)
    return proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")


def _run_cli_inprocess(ctx: Context, argv: list[str]) -> tuple[int, None, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = ctx.unravel.cli.main(argv)
    return code, None, err.getvalue()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_run_outputs(cmd: Command, out: Path, seed: int, res: PassResult) -> None:
    """Oracle-check each method of one ``unravel run`` from its CSV and summary."""
    import numpy as np

    summary = json.loads(Path(f"{out}_summary.json").read_text(encoding="utf-8"))
    rows = _read_csv(Path(f"{out}_results.csv"))
    n_pts = round(cmd.t_max / DT) + 1
    series: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for r in rows:
        series.setdefault((r["method"], r["observable"]), []).append(
            (float(r["mean"]), float(r["stderr"])))
    if summary["seed"] != seed or summary["n_traj"] != cmd.n_traj:
        res.malformed.append(f"{out.name}: summary does not echo the run's seed and N")
    oracle = np.array([[m for m, _ in series.get(("oracle", o), [])] for o in ("sx", "sy", "sz")])
    if oracle.shape != (3, n_pts):
        res.malformed.append(f"{out.name}: oracle rows {oracle.shape}, expected (3, {n_pts})")
        return
    for method in cmd.methods:
        name = f"{method}/{cmd.model}"
        info = summary["methods"].get(method)
        if info is None:
            res.malformed.append(f"{out.name}: no summary entry for {method}")
            res.checks.append(Check(name, False, error="missing from summary"))
            continue
        if info["aborted"]:
            res.checks.append(Check(name, False, error=f"abort {info['abort']}"))
            continue
        vals = [series.get((method, o), []) for o in ("sx", "sy", "sz")]
        if any(len(v) != n_pts for v in vals):
            res.malformed.append(f"{out.name}: {method} rows do not cover the grid")
            res.checks.append(Check(name, False, error="incomplete CSV"))
            continue
        means = np.array([[m for m, _ in v] for v in vals])
        errs = np.array([[e for _, e in v] for v in vals])
        # qubit: TD = |Bloch difference| / 2, and the engine's stderr is the
        # same norm taken over the batch spread of the three components
        dists = 0.5 * np.linalg.norm(means - oracle, axis=0)
        stderr = 0.5 * np.linalg.norm(errs, axis=0)
        if abs(dists.max() - info["max_oracle_distance"]) > 1e-8:
            res.malformed.append(
                f"{out.name}: {method} CSV sup TD {dists.max():.10g} != summary "
                f"{info['max_oracle_distance']:.10g}")
        events = _events(info["event_counts"])
        res.checks.append(oracle_verdict(name, dists, stderr, cmd.n_traj,
                                         (float(dists.max()), tuple(sorted(events.items())))))
        res.events[method] = events
        res.traj_steps += cmd.n_traj * (n_pts - 1)
        res.ensemble_s += info["wall_clock_ms"] / 1e3


def _check_divisibility(ctx: Context, cmd: Command, out: Path, res: PassResult) -> None:
    """Flags against the closed form of the phase-covariant family."""
    from unravel.divisibility import phase_covariant_p_divisible_at

    rates = ctx.models[cmd.model].rates
    rows = _read_csv(Path(f"{out}_divisibility.csv"))
    n_pts = round(cmd.t_max / DT) + 1
    problems = []
    if len(rows) != n_pts:
        problems.append(f"{len(rows)} rows, expected {n_pts}")
    for r in rows:
        t = float(r["t"])
        g = rates.as_tuple(t)
        cp, p = r["cp"] == "true", r["p"] == "true"
        if abs(float(r["min_rate"]) - min(g)) > 1e-9 or cp != (min(g) >= -1e-12):
            problems.append(f"CP column wrong at t={t:g}")
        if not p and phase_covariant_p_divisible_at(*g):
            problems.append(f"P violation reported at P-divisible t={t:g}")
    if not any(r["p"] == "false" for r in rows):
        problems.append("no P violation found on a non-P-divisible model")
    ok = not problems
    res.checks.append(Check(f"divisibility/{cmd.model}", ok, error="; ".join(problems[:3]) or None,
                            fingerprint=(len(rows),)))


def run_commands(ctx: Context, seed: int, in_process: bool = False, reference=None) -> PassResult:
    """One pass over the CLI commands; subprocesses unless ``in_process``.

    ``reference``, if given, is timed before each command and after the last one.
    """
    res = PassResult(wall_s=0.0)
    peaks = []
    for i, cmd in enumerate(ctx.workload.commands):
        if reference is not None:
            res.ref_s.append(reference())
        start = time.perf_counter()
        out = ctx.workdir / f"cmd{i}"
        argv = cmd.argv(ctx.configs[cmd.model], seed, out)
        runner = _run_cli_inprocess if in_process else _run_cli_subprocess
        code, peak, err_text = runner(ctx, argv)
        if peak is not None:
            peaks.append(peak)
        divisibility = cmd.subcommand == "divisibility"
        # exit 2: a method aborted; its partial rows and summary are still written
        if code == 0 or (code == 2 and not divisibility):
            try:
                if divisibility:
                    _check_divisibility(ctx, cmd, out, res)
                else:
                    _check_run_outputs(cmd, out, seed, res)
            except (OSError, KeyError, ValueError) as err:
                res.malformed.append(f"{out.name}: unreadable output: {err!r}")
        else:
            for name in [f"{m}/{cmd.model}" for m in cmd.methods] or [f"divisibility/{cmd.model}"]:
                res.checks.append(Check(name, False, error=f"exit {code}: {err_text.strip()[-200:]}"))
        res.bytes_written += sum(p.stat().st_size for p in ctx.workdir.glob(f"{out.name}_*"))
        res.parts.append((f"{cmd.subcommand}:{'+'.join(cmd.methods) or cmd.model}",
                          start, time.perf_counter()))
    if reference is not None:
        res.ref_s.append(reference())
    res.wall_s = _pass_wall(res)
    res.peak_rss_mb = max(peaks) if peaks else None
    return res


def run_pass(ctx: Context, seed: int, in_process_cli: bool = False, reference=None) -> PassResult:
    if ctx.workload.commands:
        return run_commands(ctx, seed, in_process=in_process_cli, reference=reference)
    return run_cases(ctx, seed, reference=reference)
