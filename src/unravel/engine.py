"""Ensemble driver: N trajectories of any method, reconstructed density
matrices, batch-means error bars, oracle comparison.

The trajectories are split into a fixed number of contiguous batches, the
statistical batches of the error bars. A method of independent trajectories
steps them in one pass over row tiles: a tile is a run of whole consecutive
batches of at most ``_TILE_ROWS`` rows in all (a larger batch is a tile of
its own), and its runner steps all its rows together but sums each batch
over that batch's rows alone. The replica methods run one replica per
batch, and their replicas share tiles by the rows their states hold at the
start: ``cloning``'s replicas are the menu driver's batches, a row per
member, and ``nmqj`` steps all of a tile's buckets as stacked arrays; its
replica starts as one bucket, one row, so all its replicas share one tile.
Every batch (or replica) draws from its own stream
``rng.replica_generator(seed, batch index)``, in an order fixed within the
batch, and the batch sums are combined by a fixed-order pairwise tree, so a
seed fixes the result bit for bit, whatever the tiles.
The tiles run in order, each over the whole grid to its own end or abort:
the earliest abort wins, an earlier tile wins a tie, and nothing after its
step is kept (a later tile still runs to its own end). The tiles of
every method read one generator track, evaluated before any of them runs:
once per grid time, and for ``wtd`` also once per step midpoint
(``MasterEquation.half_track``). ``tripled`` reads the track of its
embedding, which ``tripled.embedded_track`` builds from the model's track
without evaluating the embedding. Only ``wtd``'s jumps evaluate off the
grid: each jump time and the midpoint of the rest of its step, once.

Finished and aborted runs share one reconstruction, one pass over the
stacked batch sums cut to the last point every batch reached, keeping the
longest prefix whose mean can be extracted (tripled's block can decay past
it; a batch's point that cannot be is NaN). Any method error (negative rate,
missing reverse target, a model error...) or such a DegenerateBlock is
raised with ``time`` and ``partial``. ``time`` is the time that failed
for an error of the generator track (so wtd's can be a step midpoint) and
otherwise the grid time of the first failing step across batches;
``partial`` is a dict with the prefix's times / rho_hat / rho_batches /
stderr, n_traj, and the replicas' event_logs cut to the steps it covers.
"""

from __future__ import annotations

import time as _time
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
from .errors import BadAmplitudes, DimensionMismatch, UnknownMethod
from .linalg import _half_trace_norms, hermitize, require_hermitian, trace_distance
from .master_equation import MasterEquation
from .propagate import OracleSolution, TimeGrid, grids_equal
from .rate_operators import GaugeTransform, gauge_none

__all__ = [
    "MethodId",
    "method_id",
    "EnsembleResult",
    "run_ensemble",
    "observable_series",
    "observable_stats",
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
_GAUGE_KINDS = frozenset({"rroqj", "psi_roqj"})
_DEFAULT_BATCHES = 20
# Most rows in a tile, counted as the rows each batch's state holds at the
# start (``run_ensemble``): an ensemble of up to 4096 trajectories is one
# tile, one of 10^4 three (8, 8 and 4 batches), and nmqj is one tile at
# any N. Wide tiles cut the per-step Python overhead. ``tools/tile_sweep.py
# --reps 5`` on a 2-core host (in-process ``run_ensemble`` at N = 10^4,
# seed 42, t_max = 2, median of 5 alternating runs), wall s at tiles of
# 2048 / 4096 / 8192 rows / one tile:
#   mcwf (spontaneous_emission)     0.187 / 0.153 / 0.170 / 0.144
#   cloning (spontaneous_emission)  0.345 / 0.306 / 0.337 / 0.282 (*)
#   wtd (spontaneous_emission)      1.051 / 1.003 / 0.950 / 0.888
#   wroqj (eternally_nm)            0.538 / 0.463 / 0.491 / 0.378
#   psi_roqj (eternally_nm)         0.926 / 0.842 / 0.841 / 0.653
#   im (eternally_nm)               0.304 / 0.292 / 0.236 / 0.223
#   plqt (eternally_nm)             0.296 / 0.256 / 0.238 / 0.219
#   doubled (eternally_nm)          0.380 / 0.331 / 0.329 / 0.274
#   tripled (eternally_nm)          0.633 / 0.637 / 0.562 / 0.529
# and nmqj (delayed_negative, to its abort at t = 1.41) 0.074 s, one tile
# at every cap. tripled does not gain at 4096, and neither does mcwf for
# sure: another sweep read it 0.181 s at 2048 rows and 0.197 at 4096.
# (*) From a later sweep, after cloning without a trace sink became
# ``run_menus`` on the channel menu, on a slower and noisier host; that
# sweep read mcwf 0.281 / 0.239 / 0.242 / 0.177, so 4096 rows still holds
# for cloning.
# Wider tiles are faster still; the cap stops at 4096 for memory, which
# grows with the tile: ru_maxrss of tripled's run reads 42.1 / 44.7 /
# 49.4 / 51.4 MB, and of the CLI's cloning + mcwf run at N = 10^4
# (cli_replica's command) 38.2 / 38.6 / 39.6 / 40.6 in the later sweep. A
# one-off measurement of that CLI run, before the cloning change, read
# 40.3 MB at 5000 rows against 39.7 at 4096, near the ~41 MB the benchmark
# harness's own peak sets for cli_replica's peak_rss_mb.
_TILE_ROWS = 4096


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
    """The method's runner ``run(me, psi0, grid, batch0, sizes, seed, track)``:
    a tile's batches from batch ``batch0`` on, of ``sizes`` rows (replica
    methods: members) each, stepped on ``_generator_track``'s track. Looked
    up at each call, so that a wrapper set on a module is seen."""
    kind = method.kind
    if kind in _GAUGE_KINDS:
        return partial(_roqj.run_chunk, gauge=method.gauge)
    if kind == "im":
        return partial(_weighted.run_chunk_im, r_policy=_weighted.default_rate_policy(method.r_min))
    runners = {
        "mcwf": _mcwf.run_chunk,
        "wtd": _wtd.run_chunk,
        "wroqj": _roqj.run_chunk,
        "doubled": _doubled.run_chunk,
        "tripled": _tripled.run_chunk,
        "plqt": _weighted.run_chunk_plqt,
        "cloning": _cloning.run_replica,
        "nmqj": _nmqj.run_replica,
    }
    if kind not in runners:
        raise UnknownMethod(f"unknown method {kind!r}")
    return runners[kind]


def _tiles(sizes: list[int]) -> list[list[int]]:
    """Consecutive batch indices grouped into tiles of at most ``_TILE_ROWS``
    rows, ``sizes`` giving each batch's rows (never fewer than one batch)."""
    tiles: list[list[int]] = []
    rows = 0
    for i, size in enumerate(sizes):
        if tiles and rows + size <= _TILE_ROWS:
            tiles[-1].append(i)
            rows += size
        else:
            tiles.append([i])
            rows = size
    return tiles


def _generator_track(method: MethodId, me: MasterEquation, grid: TimeGrid):
    """The track every tile or replica of the method steps on: the model's
    over the grid's step starts, the embedding's for tripled
    (``tripled.embedded_track``, built from the model's), the half-grid one
    for wtd."""
    if method.kind == "wtd":
        return me.half_track(grid.times())
    if method.kind == "tripled":
        return _tripled.embedded_track(me, grid.times()[:-1])
    return me.track(grid.times()[:-1])


def _tree_sum(arrays: list[np.ndarray]) -> np.ndarray:
    items = list(arrays)
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items), 2):
            nxt.append(items[i] + items[i + 1] if i + 1 < len(items) else items[i])
        items = nxt
    return items[0]


def _merge_counts(dicts: list[dict]) -> dict:
    """Tile counts add up; per-branch lists add elementwise."""
    out: dict = {}
    for key, val in dicts[0].items():
        vals = [d[key] for d in dicts]
        out[key] = [sum(col) for col in zip(*vals)] if isinstance(val, list) else sum(vals)
    return out


def _merge_diagnostics(dicts: list[dict]) -> dict:
    """Batch series add up in batch order, sign-flip steps unite, event logs
    are collected."""
    out: dict = {}
    for key in dicts[0]:
        vals = [d[key] for d in dicts]
        if key == "event_logs":
            out[key] = [log for tile in vals for log in tile]
        elif key == "sign_flip_steps":
            out[key] = sorted(set().union(*vals))
        else:
            out[key] = _tree_sum([batch for tile in vals for batch in tile])
    return out


def _reconstruct(method: MethodId, means: np.ndarray):
    """Density matrices of a stack of mean series (..., d, d), NaN where
    tripled's block cannot be extracted, and (index, DegenerateBlock) of the
    first such point in C order (None if there is none)."""
    rho = hermitize(means)
    return (rho, None) if method.kind != "tripled" else _tripled._normalized_blocks(rho)


def _distance_stderr(rho_hat: np.ndarray, rho_batches: np.ndarray) -> np.ndarray:
    """Batch-means stderr of the trace distance to rho_hat, point by point;
    inf where a batch has no reconstruction."""
    b = rho_batches.shape[0]
    if b < 2:
        return np.zeros(rho_hat.shape[0])
    finite = np.isfinite(rho_batches).all(axis=(0, 2, 3))
    # the masked difference is the only stack alive beside its temporaries
    dists = _half_trace_norms(np.where(finite[:, None, None], hermitize(rho_batches) - rho_hat, 0.0))
    # float_power squares through libm pow, as Python's float ** 2 does;
    # x * x differs from it in the last bit for ~0.1% of values
    out = np.sqrt(np.float_power(dists, 2).sum(axis=0) / (b * (b - 1)))
    out[~finite] = np.inf
    return out


def run_ensemble(
    method: MethodId,
    me: MasterEquation,
    psi0: np.ndarray,
    grid: TimeGrid,
    n_traj: int,
    seed: int,
) -> EnsembleResult:
    if isinstance(method, str):
        method = method_id(method)
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (me.dim,):
        raise DimensionMismatch(f"initial state has shape {psi.shape}, model dimension is {me.dim}")
    nrm = np.linalg.norm(psi)
    if not np.isfinite(psi).all() or abs(nrm - 1.0) > 1e-6:
        raise BadAmplitudes(f"initial state must be finite with norm within 1e-6 of 1, got norm {nrm:.8g}")
    sizes = _chunk_sizes(n_traj, _DEFAULT_BATCHES)
    times = grid.times()
    t0 = _time.perf_counter()
    run = _runner(method)
    track = _generator_track(method, me, grid)
    tile_sums, counts, diags, abort = [], [], [], None
    # the rows each batch's state holds: an nmqj replica starts as one bucket
    for tile in _tiles([1] * len(sizes) if method.kind == "nmqj" else sizes):
        # every tile runs to its own end; the earliest abort wins, and an
        # earlier tile wins a tie
        out = run(me, psi, grid, tile[0], [sizes[i] for i in tile], seed, track)
        for acc, part in zip((tile_sums, counts, diags), out):
            acc.append(part)
        if out[3] is not None and (abort is None or out[3][1] < abort[1]):
            abort = out[3]

    # cut every batch to the last point all of them reached, and all of them
    # to the last point before the mean's first that cannot be extracted
    n_pts = abort[1] + 1 if abort else len(times)
    sums = [batch[:n_pts] for tile in tile_sums for batch in tile]
    rho_hat, degenerate = _reconstruct(method, _tree_sum(sums) / n_traj)
    if degenerate is not None:
        (n_pts,), degenerate = degenerate
        rho_hat, degenerate.time = rho_hat[:n_pts], float(times[n_pts])
    rho_batches, _ = _reconstruct(method, np.stack(sums)[:, :n_pts] / np.array(sizes)[:, None, None, None])
    del tile_sums, sums  # free the batch sums before the stderr's temporaries
    stderr = _distance_stderr(rho_hat, rho_batches)

    err = abort[0] if abort else degenerate
    if err is not None:
        if err.time is None:
            err.time = float(times[abort[1]])
        err.partial = {
            "times": times[:n_pts],
            "rho_hat": rho_hat,
            "rho_batches": rho_batches,
            "stderr": stderr,
            "n_traj": n_traj,
        }
        # step k of an event log leads to point k + 1 of the series
        logs = [
            [entry for entry in log if entry[0] < n_pts - 1]
            for diag in diags
            for log in diag.get("event_logs", ())
        ]
        if logs:
            err.partial["event_logs"] = logs
        raise err

    wall_ms = (_time.perf_counter() - t0) * 1e3
    return EnsembleResult(
        grid=grid,
        rho_hat=rho_hat,
        stderr=stderr,
        n_traj=n_traj,
        wall_clock_ms=wall_ms,
        event_counts=_merge_counts(counts),
        rho_batches=rho_batches,
        diagnostics=_merge_diagnostics(diags),
    )


def observable_series(result: EnsembleResult, obs: np.ndarray):
    """(times, mean, stderr) of tr(O rho_hat); stderr from batch spread."""
    return (result.grid.times(), *observable_stats(result.rho_hat, result.rho_batches, obs))


def observable_stats(rho_hat: np.ndarray, rho_batches: np.ndarray, obs: np.ndarray):
    """(mean, stderr) of tr(O rho) point by point: the mean from rho_hat,
    the batch-means stderr from rho_batches, inf where a batch has no
    reconstruction. Serves finished results and an abort's partial alike."""
    obs = np.asarray(obs, dtype=complex)
    d = rho_hat.shape[1]
    if obs.shape != (d, d):
        raise DimensionMismatch(f"observable shape {obs.shape} does not match state dim {d}")
    require_hermitian(obs, what="observable")
    means = np.einsum("tij,ji->t", rho_hat, obs).real
    b = rho_batches.shape[0]
    if b < 2:
        return means, np.zeros_like(means)
    vals = np.einsum("btij,ji->bt", rho_batches, obs).real
    center = vals.mean(axis=0)
    stderr = np.sqrt(((vals - center[None, :]) ** 2).sum(axis=0) / (b * (b - 1)))
    bad = ~np.isfinite(vals).all(axis=0)
    stderr[bad] = np.inf
    return means, stderr


def error_vs_oracle(result: EnsembleResult, oracle: OracleSolution):
    """Pointwise trace distance between the reconstruction and the oracle."""
    grids_equal(result.grid, oracle.grid)
    return oracle.grid.times(), trace_distance(result.rho_hat, oracle.states)
