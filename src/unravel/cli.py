"""Command-line front end.

Two subcommands:

  unravel run           simulate the configured methods, write CSV + JSON
  unravel divisibility  scan CP / P divisibility over the grid, write CSV

Configuration is a flat key = value file (grammar in the README); every
value can also be overridden by a flag. Exit codes: 0 success, 1 config
problem, 2 a method aborted mid-run (partial rows are still written,
followed by a marker row whose observable column is abort[ErrorName]).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time as _time

import numpy as np

from .divisibility import divisibility_scan
from .engine import METHOD_KINDS, MethodId, method_id, observable_stats, run_ensemble
from .errors import (
    BadAmplitudes,
    ConfigError,
    ModelError,
    ParseError,
    UnknownMethod,
    UnravelError,
)
from .linalg import normalize, trace_distance
from .models import OBSERVABLES, build_model
from .propagate import TimeGrid, propagate
from .rate_operators import gauge_none, time_dependent_gauge, w_matching_gauge

__all__ = ["RunConfig", "parse_config", "run_command", "divisibility_command", "main"]

_GAUGE_NAMES = ("none", "gz_identity", "w_matching")
_DEFAULTS = dict(n_traj=10_000, dt=1e-2, t_max=5.0, seed=42)
_TOKEN_RE = re.compile(r"^([a-z_]+)(?:\((.*)\))?$")


class RunConfig:
    def __init__(self):
        self.model_name = "eternally_nm"
        self.model_params: dict[str, float] = {}
        self.method_tokens: list[str] = ["mcwf"]
        self.n_traj = _DEFAULTS["n_traj"]
        self.dt = _DEFAULTS["dt"]
        self.t_max = _DEFAULTS["t_max"]
        self.seed = _DEFAULTS["seed"]
        self.initial_state: np.ndarray | None = None  # None -> model default
        self.observable_names = ["sx", "sy", "sz"]
        self.out = "unravel"
        self.oracle_only = False


def _parse_method_token(token: str, lineno: int | None = None) -> tuple[str, dict]:
    where = f" (line {lineno})" if lineno is not None else ""
    m = _TOKEN_RE.match(token.strip())
    if not m:
        raise ParseError(f"malformed method token {token!r}{where}")
    name, arglist = m.group(1), m.group(2)
    if name not in METHOD_KINDS:
        raise UnknownMethod(
            f"unknown method {name!r}{where}; valid: {', '.join(METHOD_KINDS)}"
        )
    params: dict = {}
    if arglist:
        for item in arglist.split(","):
            if "=" not in item:
                raise ParseError(f"method parameter {item!r} is not key=value{where}")
            key, val = (s.strip() for s in item.split("=", 1))
            if key == "gauge":
                if val not in _GAUGE_NAMES:
                    raise UnknownMethod(
                        f"unknown gauge {val!r}{where}; valid: {', '.join(_GAUGE_NAMES)}"
                    )
                params["gauge"] = val
            elif key == "r_min":
                try:
                    params["r_min"] = float(val)
                except ValueError:
                    raise ParseError(f"r_min must be a number, got {val!r}{where}") from None
                if not 0 < params["r_min"] < np.inf:
                    raise ParseError(f"r_min must be finite and positive, got {val}{where}")
            else:
                raise ParseError(f"unknown method parameter {key!r}{where}")
    return name, params


def _parse_amplitudes(text: str, lineno: int | None = None) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    try:
        amps = np.array([complex(p.replace(" ", "")) for p in parts])
    except ValueError:
        raise BadAmplitudes(f"cannot parse amplitude list {text!r}") from None
    if not np.isfinite(amps).all():
        raise BadAmplitudes(f"initial state amplitudes must be finite, got {text!r}")
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > 1e-6:
        raise BadAmplitudes(f"initial state norm {nrm:.8g} deviates from 1 by more than 1e-6")
    return amps / nrm


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        try:
            _apply_key(cfg, key, val, lineno)
        except ValueError as err:
            raise ParseError(f"line {lineno}: {err}") from None
    return cfg


def _apply_key(cfg: RunConfig, key: str, val: str, lineno: int) -> None:
    if key == "model":
        cfg.model_name = val
    elif key.startswith("model."):
        value = float(val)
        if not np.isfinite(value):
            raise ValueError(f"{key} must be finite, got {val}")
        cfg.model_params[key[len("model."):]] = value
    elif key == "methods":
        cfg.method_tokens = _split_method_list(val)
        for t in cfg.method_tokens:
            if not t:  # --oracle-only, not an empty list, skips the methods
                raise ParseError(f"empty method token in methods = {val!r} (line {lineno}); "
                                 "--oracle-only runs no method")
            _parse_method_token(t, lineno)
    elif key == "trajectories":
        cfg.n_traj = int(val)
        if cfg.n_traj < 1:
            raise ValueError(f"trajectories must be >= 1, got {val}")
    elif key == "dt":
        cfg.dt = float(val)
        if cfg.dt <= 0:
            raise ValueError(f"dt must be positive, got {val}")
    elif key == "t_max":
        cfg.t_max = float(val)
        if cfg.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {val}")
    elif key == "seed":
        cfg.seed = int(val)
    elif key == "threads":  # checked, no effect
        if int(val) < 1:
            raise ValueError(f"threads must be >= 1, got {val}")
    elif key == "initial_state":
        cfg.initial_state = _parse_amplitudes(val, lineno)
    elif key == "observables":
        names = [s.strip() for s in val.split(",") if s.strip()]
        for name in names:
            if name not in OBSERVABLES:
                raise ValueError(
                    f"unknown observable {name!r}; valid: {', '.join(sorted(OBSERVABLES))}"
                )
        cfg.observable_names = names
    elif key == "out":
        cfg.out = val
    else:
        raise ValueError(f"unknown key {key!r}")


def _split_method_list(val: str) -> list[str]:
    # commas inside (...) belong to the token, not the list
    tokens, depth, cur = [], 0, []
    for ch in val:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            tokens.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tokens.append("".join(cur).strip())
    return tokens


def _build_gauge(name: str, model) -> object:
    if name == "none":
        return gauge_none()
    if name == "gz_identity":
        rates = getattr(model, "rates", None)
        gamma_z = getattr(rates, "gamma_z", None)
        if gamma_z is None:
            raise ConfigError(
                f"gauge gz_identity needs a phase-covariant model, got {model.name!r}"
            )
        dim = model.me.dim
        return time_dependent_gauge(lambda t: gamma_z(t) * np.eye(dim))
    if name == "w_matching":
        return w_matching_gauge(model.me)
    raise UnknownMethod(f"unknown gauge {name!r}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err.strerror}") from None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _observable_rows(rows, times, method_name, obs_names, obs_mats, rho_hat, rho_batches, n_traj):
    for name, mat in zip(obs_names, obs_mats):
        means, stderrs = observable_stats(rho_hat, rho_batches, mat)
        for k in range(len(times)):
            rows.append(
                f"{_fmt(times[k])},{method_name},{name},{_fmt(means[k])},"
                f"{_fmt(stderrs[k])},{n_traj}"
            )


def _method(token: str, model) -> MethodId:
    kind, params = _parse_method_token(token)
    gauge = _build_gauge(params["gauge"], model) if "gauge" in params else None
    return method_id(kind, gauge=gauge, r_min=params.get("r_min", 0.05), display=token)


def run_command(cfg: RunConfig) -> int:
    model = build_model(cfg.model_name, cfg.model_params)
    # every method is built before the oracle runs, so a token that cannot
    # run on the model fails before any work is done
    methods = [] if cfg.oracle_only else [(token, _method(token, model)) for token in cfg.method_tokens]
    grid = TimeGrid(0.0, cfg.t_max, cfg.dt)
    psi0 = cfg.initial_state if cfg.initial_state is not None else model.default_initial
    psi0 = normalize(np.asarray(psi0, dtype=complex))[0]
    if psi0.shape != (model.me.dim,):
        raise BadAmplitudes(
            f"initial state has {psi0.shape[0]} amplitudes, model dimension is {model.me.dim}"
        )
    obs_mats = [OBSERVABLES[name] for name in cfg.observable_names]

    t0 = _time.perf_counter()
    oracle = propagate(model.me, np.outer(psi0, np.conj(psi0)), grid)
    oracle_ms = (_time.perf_counter() - t0) * 1e3
    times = grid.times()

    rows: list[str] = []
    for name, mat in zip(cfg.observable_names, obs_mats):
        means = np.einsum("tij,ji->t", oracle.states, mat).real
        for k in range(len(times)):
            rows.append(f"{_fmt(times[k])},oracle,{name},{_fmt(means[k])},0,0")

    summary = {
        "model": cfg.model_name,
        "model_params": cfg.model_params,
        "n_traj": cfg.n_traj,
        "dt": cfg.dt,
        "t_max": cfg.t_max,
        "seed": cfg.seed,
        "oracle": {"wall_clock_ms": oracle_ms},
        "methods": {},
    }
    exit_code = 0
    for token, mid in methods:
        try:
            result = run_ensemble(mid, model.me, psi0, grid, cfg.n_traj, cfg.seed)
        except UnravelError as err:
            partial = err.partial or {
                "times": times[:1],
                "rho_hat": oracle.states[:1] * 0.0,
                "rho_batches": oracle.states[None, :1] * 0.0,
            }
            run_times, rho_hat, rho_batches = (partial[k] for k in ("times", "rho_hat", "rho_batches"))
            abort_t = float(err.time if err.time is not None else run_times[-1])
            abort = {"error": type(err).__name__, "time": abort_t, "message": str(err)}
            entry = {"wall_clock_ms": None, "event_counts": {}}
        else:
            run_times, rho_hat, rho_batches = times, result.rho_hat, result.rho_batches
            abort = None
            entry = {"wall_clock_ms": result.wall_clock_ms, "event_counts": result.event_counts}
        _observable_rows(
            rows, run_times, token, cfg.observable_names, obs_mats, rho_hat, rho_batches, cfg.n_traj
        )
        if abort is not None:
            rows.append(f"{_fmt(abort['time'])},{token},abort[{abort['error']}],0,0,{cfg.n_traj}")
            exit_code = 2
        dists = trace_distance(rho_hat, oracle.states[: len(run_times)])
        summary["methods"][token] = {
            **entry,
            "max_oracle_distance": float(dists.max()),
            "aborted": abort is not None,
            "abort": abort,
        }

    csv_path = f"{cfg.out}_results.csv"
    _write(csv_path, "t,method,observable,mean,stderr,n_traj\n" + "\n".join(rows) + "\n")
    json_path = f"{cfg.out}_summary.json"
    _write(json_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {csv_path} and {json_path}")
    return exit_code


def divisibility_command(cfg: RunConfig) -> int:
    model = build_model(cfg.model_name, cfg.model_params)
    grid = TimeGrid(0.0, cfg.t_max, cfg.dt)
    reports = divisibility_scan(model.me, grid)
    path = f"{cfg.out}_divisibility.csv"
    _write(path, "t,cp,p,min_rate,min_w_eigenvalue\n" + "".join(
        f"{_fmt(r.time)},{'true' if r.cp else 'false'},{'true' if r.p else 'false'},"
        f"{_fmt(r.min_rate)},{_fmt(r.min_w_eigenvalue)}\n"
        for r in reports
    ))
    print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config problems exit 1, not argparse's 2
        raise ParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="unravel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "divisibility"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--method", action="append", default=None,
                       help="method token, repeatable (e.g. mcwf, im(r_min=0.1))")
        p.add_argument("--trajectories", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-max", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None, help="accepted, no effect")
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--oracle-only", action="store_true")
    return parser


def _config_from_args(args) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config!r}: {err}") from None
    else:
        cfg = RunConfig()
    if args.method:
        for token in args.method:
            _parse_method_token(token)
        cfg.method_tokens = list(args.method)
    for attr, key in (
        ("trajectories", "n_traj"),
        ("dt", "dt"),
        ("t_max", "t_max"),
        ("seed", "seed"),
        ("out", "out"),
    ):
        val = getattr(args, attr)
        if val is not None:
            setattr(cfg, key, val)
    for name, count in (("trajectories", cfg.n_traj), ("threads", 1 if args.threads is None else args.threads)):
        if count < 1:
            raise ParseError(f"{name} must be >= 1, got {count}")
    if not (0 < cfg.dt < np.inf and 0 < cfg.t_max < np.inf):
        raise ParseError(f"grid needs finite positive dt and t_max, got dt={cfg.dt}, t_max={cfg.t_max}")
    try:
        TimeGrid(0.0, cfg.t_max, cfg.dt)
    except ValueError as err:
        raise ParseError(str(err)) from None
    if not 0 <= cfg.seed < 2**64:
        raise ParseError(f"seed must lie in [0, 2^64), got {cfg.seed}")
    out_dir = os.path.dirname(cfg.out) or "."
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir!r} does not exist")
    if args.oracle_only:
        cfg.oracle_only = True
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if args.command == "run":
            return run_command(cfg)
        return divisibility_command(cfg)
    except (ConfigError, BadAmplitudes, ModelError) as err:  # a model the oracle cannot evaluate
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # a grid or an ensemble that fits an index but not memory
        print(f"error: the run does not fit in memory ({err}); lower t_max or trajectories, "
              "or raise dt", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
