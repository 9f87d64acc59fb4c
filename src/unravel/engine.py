"""Ensemble driver: N trajectories of any method, reconstructed density
matrices, batch-means error bars, oracle comparison.

Work is split into a fixed number of contiguous trajectory chunks (the same
chunks double as the statistical batches). Every chunk derives its random
numbers from (seed, trajectory index) or (seed, replica index) alone and the
chunk sums are combined by a fixed-order pairwise tree, so the result is
bit-identical no matter how many worker threads execute the chunks.

A method abort (negative rate, missing reverse target, oversized step...)
is re-raised with two attributes attached: ``time`` (grid time of first
failure across chunks) and ``partial`` (dict with times / rho_hat / stderr
series up to the last completed step, plus the replicas' event_logs cut to
the steps that series covers, for methods that keep one) so callers can
still report what was simulated.
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import cloning as _cloning
from . import doubled as _doubled
from . import mcwf as _mcwf
from . import nmqj as _nmqj
from . import roqj as _roqj
from . import tripled as _tripled
from . import weighted as _weighted
from . import wtd as _wtd
from .errors import DegenerateBlock, DimensionMismatch, UnknownMethod
from .linalg import hermitize, require_hermitian, trace_distance
from .master_equation import MasterEquation
from .propagate import OracleSolution, TimeGrid, grids_equal
from .rate_operators import GaugeTransform, gauge_none

__all__ = [
    "MethodId",
    "method_id",
    "EnsembleResult",
    "run_ensemble",
    "observable_series",
    "error_vs_oracle",
    "METHOD_KINDS",
]

METHOD_KINDS = (
    "mcwf",
    "wtd",
    "nmqj",
    "wroqj",
    "rroqj",
    "psi_roqj",
    "doubled",
    "tripled",
    "im",
    "plqt",
    "cloning",
)
_REPLICA_KINDS = frozenset({"nmqj", "cloning"})
_GAUGE_KINDS = frozenset({"rroqj", "psi_roqj"})
_DEFAULT_BATCHES = 20


@dataclass(frozen=True)
class MethodId:
    kind: str
    gauge: GaugeTransform | None = None
    r_min: float = 0.05
    display: str = ""


def method_id(
    kind: str,
    gauge: GaugeTransform | None = None,
    r_min: float = 0.05,
    display: str | None = None,
) -> MethodId:
    if kind not in METHOD_KINDS:
        raise UnknownMethod(f"unknown method {kind!r}; valid: {', '.join(METHOD_KINDS)}")
    if gauge is not None and kind not in _GAUGE_KINDS:
        raise UnknownMethod(f"method {kind!r} takes no gauge")
    if kind == "rroqj":
        if gauge is None or gauge.kind != "time_dependent":
            raise UnknownMethod("rroqj needs a time-dependent gauge operator C_t")
    if kind == "psi_roqj" and gauge is None:
        gauge = gauge_none()
    if display is None:
        display = f"im(r_min={r_min:g})" if kind == "im" else kind
    return MethodId(kind=kind, gauge=gauge, r_min=r_min, display=display)


@dataclass(frozen=True)
class EnsembleResult:
    grid: TimeGrid
    rho_hat: np.ndarray        # (n_steps+1, d, d), hermitian
    stderr: np.ndarray         # (n_steps+1,) trace-distance standard error
    n_traj: int
    wall_clock_ms: float
    event_counts: dict
    rho_batches: np.ndarray    # (n_batches, n_steps+1, d, d)
    diagnostics: dict = field(default_factory=dict)


def _chunk_sizes(n_traj: int, batches: int) -> list[int]:
    b = min(batches, n_traj)
    base, rem = divmod(n_traj, b)
    return [base + (1 if i < rem else 0) for i in range(b)]


def _runner(method: MethodId):
    kind = method.kind
    plain = {"mcwf": _mcwf, "wtd": _wtd, "doubled": _doubled, "tripled": _tripled}
    if kind in plain:
        return plain[kind].run_chunk
    if kind == "wroqj":
        return partial(_roqj.run_chunk, flavor="w")
    if kind in ("rroqj", "psi_roqj"):
        return partial(_roqj.run_chunk, flavor="ro", gauge=method.gauge)
    if kind == "im":
        return partial(_weighted.run_chunk_im, r_policy=_weighted.default_rate_policy(method.r_min))
    if kind == "plqt":
        return _weighted.run_chunk_plqt
    if kind == "nmqj":
        return lambda me, psi0, grid, replica, n, seed: _nmqj.run_replica(
            me, psi0, grid, n, replica, seed
        )
    if kind == "cloning":
        return lambda me, psi0, grid, replica, n, seed: _cloning.run_replica(
            me, psi0, grid, n, replica, seed
        )
    raise UnknownMethod(f"unknown method {kind!r}")


def _tree_sum(arrays: list[np.ndarray]) -> np.ndarray:
    items = list(arrays)
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items), 2):
            nxt.append(items[i] + items[i + 1] if i + 1 < len(items) else items[i])
        items = nxt
    return items[0]


def _merge_counts(dicts: list[dict]) -> dict:
    """Chunk counts add up; per-branch lists add elementwise."""
    out: dict = {}
    for key, val in dicts[0].items():
        vals = [d[key] for d in dicts]
        out[key] = [sum(col) for col in zip(*vals)] if isinstance(val, list) else sum(vals)
    return out


def _merge_diagnostics(dicts: list[dict]) -> dict:
    """Chunk series add up, sign-flip steps unite, event logs are collected."""
    out: dict = {}
    for key in dicts[0]:
        vals = [d[key] for d in dicts]
        if key == "event_log":
            out["event_logs"] = vals
        elif key == "sign_flip_steps":
            out[key] = sorted(set().union(*vals))
        else:
            out[key] = _tree_sum(vals)
    return out


def _extract_point(w: np.ndarray) -> np.ndarray:
    return _tripled.tripled_extract(hermitize(w))


def _finalize_series(method: MethodId, mean_series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Turn per-point mean accumulators into density matrices."""
    if method.kind != "tripled":
        return np.array([hermitize(r) for r in mean_series])
    out = np.empty((mean_series.shape[0], mean_series.shape[1] // 3, mean_series.shape[2] // 3), dtype=complex)
    for i, w in enumerate(mean_series):
        try:
            out[i] = _extract_point(w)
        except DegenerateBlock as err:
            err.time = float(times[i])
            err.partial = {
                "times": times[:i],
                "rho_hat": out[:i].copy(),
                "stderr": np.zeros(i),
            }
            raise
    return out


def _batch_series(method: MethodId, sums, sizes, times) -> np.ndarray:
    """Per-batch reconstructions; tripled extraction failures become NaN."""
    b = len(sums)
    if method.kind != "tripled":
        return np.array([[hermitize(r) for r in sums[i] / sizes[i]] for i in range(b)])
    t_pts = sums[0].shape[0]
    d = sums[0].shape[1] // 3
    out = np.full((b, t_pts, d, d), np.nan, dtype=complex)
    for i in range(b):
        w_series = sums[i] / sizes[i]
        for k in range(t_pts):
            try:
                out[i, k] = _extract_point(w_series[k])
            except DegenerateBlock:
                pass  # leave NaN; stderr at this point becomes inf
    return out


def _distance_stderr(rho_hat: np.ndarray, rho_batches: np.ndarray) -> np.ndarray:
    b = rho_batches.shape[0]
    n_pts = rho_hat.shape[0]
    if b < 2:
        return np.zeros(n_pts)
    out = np.empty(n_pts)
    for k in range(n_pts):
        acc = 0.0
        bad = False
        for i in range(b):
            if not np.all(np.isfinite(rho_batches[i, k])):
                bad = True
                break
            acc += trace_distance(hermitize(rho_batches[i, k]), rho_hat[k]) ** 2
        out[k] = np.inf if bad else np.sqrt(acc / (b * (b - 1)))
    return out


def run_ensemble(
    method: MethodId,
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    n_traj: int,
    seed: int,
    threads: int = 1,
    batches: int = _DEFAULT_BATCHES,
) -> EnsembleResult:
    if isinstance(method, str):
        method = method_id(method)
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    psi = np.asarray(psi0, dtype=complex)
    run = _runner(method)
    sizes = _chunk_sizes(n_traj, batches)
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    times = grid.times()

    def job(b: int):
        # replica methods key their stream off the batch index, the rest
        # off the first trajectory index of the chunk
        index = b if method.kind in _REPLICA_KINDS else int(starts[b])
        return run(me, psi, grid, index, sizes[b], seed)

    t0 = _time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, range(len(sizes))))
    else:
        results = [job(b) for b in range(len(sizes))]

    aborts = [(res[3][0], res[3][1], b) for b, res in enumerate(results) if res[3] is not None]
    if aborts:
        err, k_star, _ = min(aborts, key=lambda a: a[1])
        partial_sums = [res[0][: k_star + 1] for res in results]
        mean = _tree_sum(partial_sums) / n_traj
        try:
            rho_hat = _finalize_series(method, mean, times)
            batch = _batch_series(method, partial_sums, sizes, times)
            stderr = _distance_stderr(rho_hat, batch)
        except DegenerateBlock as inner:
            rho_hat = inner.partial["rho_hat"]
            stderr = inner.partial["stderr"]
        err.time = float(times[k_star]) if err.time is None else err.time
        n_pts = rho_hat.shape[0]
        err.partial = {
            "times": times[:n_pts],
            "rho_hat": rho_hat,
            "stderr": stderr,
            "n_traj": n_traj,
        }
        # step k of an event log leads to point k + 1 of the series
        logs = [
            [entry for entry in res[2]["event_log"] if entry[0] < n_pts - 1]
            for res in results
            if "event_log" in res[2]
        ]
        if logs:
            err.partial["event_logs"] = logs
        raise err

    sums = [res[0] for res in results]
    mean = _tree_sum(sums) / n_traj
    rho_hat = _finalize_series(method, mean, times)
    rho_batches = _batch_series(method, sums, sizes, times)
    stderr = _distance_stderr(rho_hat, rho_batches)
    wall_ms = (_time.perf_counter() - t0) * 1e3
    return EnsembleResult(
        grid=grid,
        rho_hat=rho_hat,
        stderr=stderr,
        n_traj=n_traj,
        wall_clock_ms=wall_ms,
        event_counts=_merge_counts([res[1] for res in results]),
        rho_batches=rho_batches,
        diagnostics=_merge_diagnostics([res[2] for res in results]),
    )


def observable_series(result: EnsembleResult, obs: np.ndarray):
    """(times, mean, stderr) of tr(O rho_hat); stderr from batch spread."""
    obs = np.asarray(obs, dtype=complex)
    d = result.rho_hat.shape[1]
    if obs.shape != (d, d):
        raise DimensionMismatch(f"observable shape {obs.shape} does not match state dim {d}")
    require_hermitian(obs, what="observable")
    times = result.grid.times()
    means = np.einsum("tij,ji->t", result.rho_hat, obs).real
    b = result.rho_batches.shape[0]
    if b < 2:
        return times, means, np.zeros_like(means)
    vals = np.einsum("btij,ji->bt", result.rho_batches, obs).real
    center = vals.mean(axis=0)
    stderr = np.sqrt(((vals - center[None, :]) ** 2).sum(axis=0) / (b * (b - 1)))
    bad = ~np.isfinite(vals).all(axis=0)
    stderr[bad] = np.inf
    return times, means, stderr


def error_vs_oracle(result: EnsembleResult, oracle: OracleSolution):
    """Pointwise trace distance between the reconstruction and the oracle."""
    grids_equal(result.grid, oracle.grid)
    dists = np.array(
        [trace_distance(result.rho_hat[k], oracle.states[k]) for k in range(len(oracle.states))]
    )
    return oracle.grid.times(), dists
