"""Benchmark of the unravel package: time to an oracle-checked ensemble.

Run from the root of a source checkout:

    python3 bench/run.py --workload batched --seed 1 --seconds 38 --trace 0

Workloads (``bench/workloads.py``): ``batched``, ``per_step``, ``cli_replica``.
Set-up is timed in this process and in fresh interpreters, then passes of the
workload repeat on the same seeded inputs for about ``--seconds`` (at least
``MIN_PASSES``). Every ensemble of every pass is checked against the oracle.

``--trace 0`` reports the end-to-end metrics as medians over the passes. The
timings are scaled to a fixed machine speed: a reference loop
(``bench/reference.py``) runs before every case or command and after the last,
and each pass's times are multiplied by the loop's nominal time over its mean
time in that pass, so the drift of a shared host's speed cancels. The raw
times are printed in the report above the result line.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (``bench/tracing.py``) together with the tracing
overhead. Human-readable lines go first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A traced run writes the spans of its last traced pass to
``.bench_out/spans-<workload>.csv.gz`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60.0

# Method token -> event kinds reported as <method>.events.<kind>.
EVENT_KINDS = {
    "mcwf": ("jump", "deterministic"),
    "wroqj": ("jump", "deterministic"),
    "im": ("jump", "deterministic"),
    "doubled": ("jump", "deterministic"),
    "tripled": ("jump", "deterministic"),
    "wtd": ("jump",),
    "nmqj": ("jump", "reverse_jump"),
    "cloning": ("jump", "clone", "destroy", "deterministic"),
}

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "traj_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_frac": "frac" for layer in tracing.LAYERS}
    units.update({
        "master_equation.at_calls": "count",
        "master_equation.evaluations": "count",
        "master_equation.memo_hit_ratio": "frac",
        "rng.streams": "count",
        "rng.uniform_bytes": "bytes",
        "engine.chunks": "count",
        "engine.parallelism": "ratio",
        "linalg.trace_distance_calls": "count",
        "divisibility.points": "count",
        "cli.bytes_written": "bytes",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_frac": "frac",
    })
    for method, kinds in EVENT_KINDS.items():
        units.update({f"{method}.events.{k}": "count" for k in kinds})
    return units


def _checkout_ok() -> bool:
    return (ROOT / "src" / "unravel" / "__init__.py").is_file()


def _setup(workload, workdir: Path):
    t0 = time.perf_counter()
    ctx = workloads.setup(ROOT, workload, workdir)
    return ctx, time.perf_counter() - t0


def _probe_setup(name: str) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _another_fits(elapsed: float, rounds: int, seconds: float) -> bool:
    return elapsed * (rounds + 1) / rounds <= seconds


def timed_run(ctx, seed: int, seconds: float):
    """Passes for about ``seconds``, each after a fresh-interpreter set-up probe.

    Interleaving the probes spreads the set-up samples over the same stretch
    of machine time as the passes; each probe is scaled like the pass that
    follows it.
    """
    reference.block()  # warm-up
    passes, probes = [], []
    t0 = time.perf_counter()
    while True:
        probes.append(_probe_setup(ctx.workload.name))
        passes.append(workloads.run_pass(ctx, seed, reference=reference.block))
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and not _another_fits(elapsed, len(passes), seconds):
            return passes, probes


def _consistency(passes) -> list[str]:
    """Same seed, same inputs: every pass must reproduce the first bit for bit."""
    problems = [m for p in passes for m in p.malformed]
    first = {c.name: c.fingerprint for c in passes[0].checks}
    for i, p in enumerate(passes[1:], start=2):
        for c in p.checks:
            if c.name in first and c.fingerprint != first[c.name]:
                problems.append(f"pass {i}: {c.name} differs from pass 1")
    return problems


def speed(p) -> float:
    """Factor that turns a time measured in pass ``p`` into one at the nominal
    machine speed: the reference loop's nominal time over its mean time there."""
    return reference.NOMINAL_S / statistics.fmean(p.ref_s)


def scaled_setup(passes, setup_samples) -> list[float]:
    """Set-up samples (in-process first, then one probe before each pass) scaled
    like the pass that follows them."""
    follows = [passes[0]] + list(passes)
    return [s * speed(p) for s, p in zip(setup_samples, follows)]


def end_to_end(passes, setup_samples, in_process: bool) -> dict[str, float]:
    """Medians over the passes, at the nominal machine speed (see ``speed``)."""
    if in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = statistics.median([p.peak_rss_mb for p in passes])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(scaled_setup(passes, setup_samples)),
        "wall_s": statistics.median([p.wall_s * speed(p) for p in passes]),
        "traj_steps_per_s": statistics.median([p.traj_steps / (p.ensemble_s * speed(p))
                                               for p in passes if p.ensemble_s > 0] or [0.0]),
        "peak_rss_mb": peak,
        "failed_frac": failed / attempted,
    }


def traced_run(ctx, seed: int, seconds: float):
    """Alternate untraced and traced passes; per-layer medians of the traced ones."""
    in_process_cli = bool(ctx.workload.commands)  # spans cannot cross a process boundary
    plain, traced, layer_rows, spans = [], [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(workloads.run_pass(ctx, seed, in_process_cli))
        tracer = tracing.Tracer()
        handle = tracing.install(tracer)
        try:
            traced.append(workloads.run_pass(ctx, seed, in_process_cli))
        finally:
            handle.remove()
        spans = tracer.spans
        row = tracing.layer_metrics(spans)
        # self time as a share of the traced pass: a layer off this workload's
        # path reads 0, and the base is reported as trace.traced_wall_s
        for layer in tracing.LAYERS:
            row[f"{layer}.self_frac"] = row.pop(f"{layer}.self_s") / traced[-1].wall_s
        row["cli.bytes_written"] = traced[-1].bytes_written if in_process_cli else 0
        for method, kinds in EVENT_KINDS.items():
            counts = traced[-1].events.get(method, {})
            for k in kinds:
                row[f"{method}.events.{k}"] = counts.get(k, 0)
        layer_rows.append(row)
        if not _another_fits(time.perf_counter() - t0, len(plain), seconds):
            break
    leftover = tracing.leftover_wrappers()
    split = _part_split(traced[-1].parts, spans)
    metrics = {k: statistics.median_low([r[k] for r in layer_rows]) for k in layer_rows[0]}
    untraced = statistics.median([p.wall_s for p in plain])
    traced_wall = statistics.median([p.wall_s for p in traced])
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced - 1.0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracing.write_spans(out_dir / f"spans-{ctx.workload.name}.csv.gz", spans)
    return plain + traced, metrics, leftover, split


def _part_split(parts, spans) -> dict[str, str]:
    """Top three layers by self time within each case or command of a pass."""
    out = {}
    for name, start, end in parts:
        inside = [s for s in spans if start <= s.start < end]
        selfs = tracing.layer_self_times(inside)
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        out[f"layers of {name}"] = ", ".join(f"{k} {v / (end - start):.2f}" for k, v in top)
    return out


def _part_medians(passes) -> dict[str, str]:
    walls: dict[str, list[float]] = {}
    for p in passes:
        for name, start, end in p.parts:
            walls.setdefault(name, []).append(end - start)
    return {f"wall of {name} (s)": f"{statistics.median(v):.4f}" for name, v in walls.items()}


def _probe_main(name: str) -> int:
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=_work_root()))
    try:
        _, seconds = _setup(workloads.WORKLOADS[name], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(seconds))
    return 0


def _work_root() -> Path:
    path = ROOT / ".bench_work"
    path.mkdir(exist_ok=True)
    return path


def _fmt_list(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def _print_report(name, seed, metrics, units, passes, problems, extra) -> None:
    print(f"workload {name}, seed {seed}, {len(passes)} passes")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:>16.6g} {units[key]}")
    for k, v in extra.items():
        print(f"  {k:34s} {v}")
    for c in passes[0].checks:
        verdict = "ok  " if c.ok else "FAIL"
        if c.sup_td is None:
            print(f"  check  {verdict} {c.name}: {c.error or 'outputs agree with the closed form'}")
        else:
            print(f"  oracle {verdict} {c.name}: sup TD {c.sup_td:.4f}, max stderr {c.max_stderr:.4f}, "
                  f"(sup TD - 1/N)/max stderr {c.td_over_stderr:.2f} (tol {workloads.STDERR_TOL:g}), "
                  f"largest pointwise ratio {c.max_pointwise_ratio:.2f}")
    for p in problems:
        print(f"  INCORRECT: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not _checkout_ok():
        print(f"error: no unravel sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return _probe_main(args.workload)

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=_work_root()))
    try:
        ctx, first_setup = _setup(workload, workdir)
        if args.trace:
            passes, metrics, leftover, extra = traced_run(ctx, args.seed, args.seconds)
            units = per_layer_units()
            problems = _consistency(passes) + [f"wrapper left installed: {n}" for n in leftover]
        else:
            passes, probes = timed_run(ctx, args.seed, args.seconds)
            setup_samples = [first_setup] + probes
            metrics = end_to_end(passes, setup_samples, in_process=not workload.commands)
            units = dict(UNITS)
            problems = _consistency(passes)
            extra = {"raw setup samples (s)": _fmt_list(setup_samples),
                     "raw pass wall samples (s)": _fmt_list([p.wall_s for p in passes]),
                     "scaled pass wall samples (s)": _fmt_list([p.wall_s * speed(p) for p in passes]),
                     "reference blocks (s)": _fmt_list([r for p in passes for r in p.ref_s]),
                     **_part_medians(passes)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_report(workload.name, args.seed, metrics, units, passes, problems, extra)
    reported = {k: v for k, v in metrics.items() if k != "failed_frac"}
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
