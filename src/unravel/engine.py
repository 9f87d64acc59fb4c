"""Ensemble driver: N trajectories of any method, reconstructed density
matrices, batch-means error bars, oracle comparison.

The trajectories are split into a fixed number of contiguous batches, the
statistical batches of the error bars. A method of independent trajectories
steps them in one pass over tiles: a tile is a run of whole consecutive
batches whose states hold at most ``_TILE_ENTRIES`` entries in all, rows
times the width of the state the method steps (d; 2d for doubled, 3d for
tripled; a larger batch is a tile of its own), and its runner steps all
its rows together but sums each batch over that batch's rows alone. The
replica methods run one replica per batch, and their replicas share tiles
by the rows their states hold at the start: ``cloning``'s replicas are the
menu driver's batches, a row per member, and ``nmqj`` steps all of a
tile's buckets as stacked arrays; its replica starts as one bucket, one
row, so all its replicas share one tile.
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
# Most state entries in a tile: a batch's rows, counted as the rows its
# state holds at the start (``run_ensemble``), times the width of the state
# the method steps (``_state_width``). On a qubit that is 12,288 rows of
# width 2 (every N = 10^4 ensemble but doubled's and tripled's is one
# tile), 6144 of doubled's width 4 (12 and 8 batches at N = 10^4) and 4096
# of tripled's width 6 (8, 8 and 4 batches); nmqj is one tile at any N.
# Wide tiles cut the per-step Python overhead, and the widest state sets
# the memory. ``tools/tile_sweep.py --reps 7`` on a 2-core Xeon host
# (in-process ``run_ensemble`` at N = 10^4, seed 42, t_max = 2, median of
# 7 alternating runs), wall s (tiles) at budgets of 12,288 / 24,576 /
# 49,152 entries / one tile:
#   mcwf (spontaneous_emission)     0.144 (2) / 0.126 (1) / 0.142 (1) / 0.163 (1)
#   cloning (spontaneous_emission)  0.143 (2) / 0.132 (1) / 0.132 (1) / 0.138 (1)
#   wtd (spontaneous_emission)      1.074 (2) / 1.051 (1) / 1.021 (1) / 0.977 (1)
#   wroqj (eternally_nm)            0.365 (2) / 0.356 (1) / 0.363 (1) / 0.363 (1)
#   psi_roqj (eternally_nm)         1.014 (2) / 0.804 (1) / 0.799 (1) / 0.903 (1)
#   im (eternally_nm)               0.234 (2) / 0.209 (1) / 0.213 (1) / 0.213 (1)
#   plqt (eternally_nm)             0.222 (2) / 0.237 (1) / 0.225 (1) / 0.231 (1)
#   doubled (eternally_nm)          0.423 (4) / 0.349 (2) / 0.310 (1) / 0.327 (1)
#   tripled (eternally_nm)          0.733 (5) / 0.691 (3) / 0.518 (2) / 0.515 (1)
# and nmqj (delayed_negative, to its abort at t = 1.41) 0.074 s, one tile.
# The one-tile columns of a width-2 method run the same plan, so their
# spread (mcwf 0.126-0.163 s) is the sweep's noise. Past 24,576 only
# doubled and tripled gain, and they pay in memory: ru_maxrss of
# tripled's run reads 42.4 / 45.0 / 49.3 / 51.6 MB and of doubled's
# 37.9 / 39.2 / 41.2 / 41.2. The CLI's cloning + mcwf run at N = 10^4
# (cli_replica's command) reads 0.342 / 0.342 / 0.347 / 0.357 s and
# 39.0 / 40.3 / 40.3 / 40.3 MB. 24,576 keeps tripled at 4096 rows, the row
# cap this budget replaced, and so at that cap's memory. The sweep ran on
# qubits only: a state wider than 6 entries gets fewer rows a tile than that
# cap gave (tripled from d = 3, 2730 rows; doubled from d = 4, 3072; the
# width-d methods from d = 7), which no d > 2 run has measured.
_TILE_ENTRIES = 24_576


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


def _state_width(kind: str, dim: int) -> int:
    """Entries of one row of the state the method steps: d, times the
    ``STATE_BLOCKS`` of the stacked states of ``doubled`` and ``tripled``."""
    return {"doubled": _doubled.STATE_BLOCKS, "tripled": _tripled.STATE_BLOCKS}.get(kind, 1) * dim


def _tiles(rows: list[int], width: int) -> list[list[int]]:
    """Consecutive batch indices grouped into tiles of at most
    ``_TILE_ENTRIES`` state entries, ``rows`` giving each batch's rows of
    ``width`` entries (never fewer than one batch)."""
    tiles: list[list[int]] = []
    held = 0
    for i, size in enumerate(rows):
        if tiles and (held + size) * width <= _TILE_ENTRIES:
            tiles[-1].append(i)
            held += size
        else:
            tiles.append([i])
            held = size
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
    rows = [1] * len(sizes) if method.kind == "nmqj" else sizes
    for tile in _tiles(rows, _state_width(method.kind, me.dim)):
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
