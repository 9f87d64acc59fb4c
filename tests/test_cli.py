"""Config grammar, CSV/JSON emission, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unravel.cli import divisibility_command, main, parse_config, run_command
from unravel.engine import method_id, observable_stats, run_ensemble
from unravel.errors import BadAmplitudes, MissingTargetState, ParseError, UnknownMethod
from unravel.models import PLUS, SIGMA_Z, delayed_negative_phase_covariant
from unravel.propagate import TimeGrid


def test_defaults():
    cfg = parse_config("")
    assert cfg.model_name == "eternally_nm"
    assert cfg.method_tokens == ["mcwf"]
    assert cfg.n_traj == 10_000
    assert cfg.dt == 1e-2
    assert cfg.t_max == 5.0
    assert cfg.seed == 42
    assert not hasattr(cfg, "threads")
    assert cfg.observable_names == ["sx", "sy", "sz"]
    assert cfg.out == "unravel"
    assert cfg.oracle_only is False


def test_full_config_round_trip():
    text = """
    # benchmark setup
    model = non_p_divisible
    model.kappa = 0.5

    methods = mcwf, im(r_min=0.1), psi_roqj(gauge=w_matching)
    trajectories = 500
    dt = 0.005
    t_max = 2.5
    seed = 7
    threads = 3
    initial_state = 0.6, 0.8
    observables = sz, p1
    out = bench/run1
    """
    cfg = parse_config(text)
    assert cfg.model_name == "non_p_divisible"
    assert cfg.model_params == {"kappa": 0.5}
    assert cfg.method_tokens == ["mcwf", "im(r_min=0.1)", "psi_roqj(gauge=w_matching)"]
    assert cfg.n_traj == 500
    assert cfg.dt == 0.005
    assert cfg.seed == 7
    assert not hasattr(cfg, "threads")  # the key is checked and has no effect
    assert np.allclose(cfg.initial_state, [0.6, 0.8])
    assert cfg.observable_names == ["sz", "p1"]
    assert cfg.out == "bench/run1"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_config("dt = -1")
    with pytest.raises(ParseError, match="line 2"):
        parse_config("dt = 0.01\ntrajectories = 0")
    with pytest.raises(ParseError, match="line 1"):
        parse_config("just some words")
    with pytest.raises(ParseError, match="unknown key"):
        parse_config("speed = 11")
    with pytest.raises(ParseError, match="observable"):
        parse_config("observables = sx, bogus")
    with pytest.raises(ParseError):
        parse_config("threads = 0")


def test_method_token_validation():
    with pytest.raises(UnknownMethod):
        parse_config("methods = qsd")
    with pytest.raises(UnknownMethod):
        parse_config("methods = psi_roqj(gauge=lorentz)")
    with pytest.raises(ParseError):
        parse_config("methods = im(r_min=0)")
    for r_min in ("nan", "inf"):
        with pytest.raises(ParseError):
            parse_config(f"methods = im(r_min={r_min})")
    with pytest.raises(ParseError):
        parse_config("methods = im(r_min=fast)")
    with pytest.raises(ParseError):
        parse_config("methods = mcwf(color=red)")
    with pytest.raises(ParseError):
        parse_config("methods = im(r_min")
    # no token or an empty one: --oracle-only is the way to run no method
    for methods in ("", "mcwf,,im", "mcwf,", ", mcwf", " , "):
        with pytest.raises(ParseError, match="line 2"):
            parse_config(f"dt = 0.01\nmethods = {methods}")


def test_initial_state_validation():
    with pytest.raises(BadAmplitudes):
        parse_config("initial_state = 1, 1")  # norm sqrt(2)
    with pytest.raises(BadAmplitudes):
        parse_config("initial_state = up, down")
    for text in ("nan, 0", "1, nanj", "inf, 0"):
        with pytest.raises(BadAmplitudes):
            parse_config(f"initial_state = {text}")
    cfg = parse_config("initial_state = 0.70710678118655, 0.70710678118655j")
    assert cfg.initial_state[1] == pytest.approx(1j / np.sqrt(2))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_command_emits_csv_and_summary(tmp_path):
    cfg = parse_config(
        f"""
        model = spontaneous_emission
        methods = mcwf
        trajectories = 200
        dt = 0.02
        t_max = 0.5
        seed = 3
        observables = sz, p1
        out = {tmp_path}/basic
        """
    )
    assert run_command(cfg) == 0
    lines = (tmp_path / "basic_results.csv").read_text().splitlines()
    assert lines[0] == "t,method,observable,mean,stderr,n_traj"
    n_points = 26  # t_max/dt + 1
    assert len(lines) == 1 + 2 * 2 * n_points  # (oracle + mcwf) x 2 observables
    oracle_rows = [l for l in lines[1:] if l.split(",")[1] == "oracle"]
    assert all(row.endswith(",0,0") for row in oracle_rows)
    for row in lines[1:]:
        t, method, obs, mean, stderr, n_traj = row.split(",")
        assert method in ("oracle", "mcwf")
        assert obs in ("sz", "p1")
        assert np.isfinite(float(mean))
        assert np.isfinite(float(stderr))
        assert n_traj in ("0", "200")

    raw = (tmp_path / "basic_summary.json").read_text()
    summary = json.loads(raw)
    # the file is the canonical sorted two-space rendering, newline-terminated
    assert raw == json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert summary["model"] == "spontaneous_emission"
    assert summary["n_traj"] == 200
    assert "threads" not in summary
    method = summary["methods"]["mcwf"]
    assert method["aborted"] is False
    assert method["abort"] is None
    assert method["max_oracle_distance"] < 0.25
    assert method["wall_clock_ms"] > 0
    assert method["event_counts"]["deterministic"] > 0


def test_aborting_method_writes_marker_and_exits_2(tmp_path):
    cfg = parse_config(
        f"""
        model = eternally_nm
        methods = nmqj
        trajectories = 50
        dt = 0.01
        t_max = 0.5
        observables = sx
        out = {tmp_path}/abort
        """
    )
    assert run_command(cfg) == 2
    lines = (tmp_path / "abort_results.csv").read_text().splitlines()
    marker = [l for l in lines if ",abort[" in l]
    assert marker == ["0.01,nmqj,abort[MissingTargetState],0,0,50"]
    nmqj_rows = [l for l in lines if l.split(",")[1] == "nmqj" and "abort" not in l]
    assert len(nmqj_rows) == 2  # t=0 and t=dt survived for the one observable
    summary = json.loads((tmp_path / "abort_summary.json").read_text())
    info = summary["methods"]["nmqj"]
    assert info["aborted"] is True
    assert info["abort"]["error"] == "MissingTargetState"
    assert info["abort"]["time"] == pytest.approx(0.01)


def test_aborted_rows_carry_the_partial_stderr(tmp_path):
    cfg = parse_config(
        f"""
        model = delayed_negative
        methods = nmqj
        trajectories = 400
        t_max = 3
        seed = 3
        observables = sz
        out = {tmp_path}/abort
        """
    )
    assert run_command(cfg) == 2
    with pytest.raises(MissingTargetState) as exc:
        run_ensemble(
            method_id("nmqj"), delayed_negative_phase_covariant(), PLUS,
            TimeGrid(0.0, 3.0, 1e-2), 400, seed=3,
        )
    partial = exc.value.partial
    # the observable's own batch stderr, as a finished method's rows carry,
    # not the trace-distance stderr of the partial
    _means, stderr = observable_stats(partial["rho_hat"], partial["rho_batches"], SIGMA_Z)
    lines = (tmp_path / "abort_results.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines if l.split(",")[1] == "nmqj" and "abort" not in l]
    assert [row[4] for row in rows] == [f"{s:.12g}" for s in stderr]
    assert stderr.max() > 0.01
    assert not np.allclose(stderr, partial["stderr"])


def test_oracle_only_skips_methods(tmp_path):
    config = _write(
        tmp_path,
        "cfg.txt",
        f"""
        model = spontaneous_emission
        trajectories = 99999
        dt = 0.05
        t_max = 0.5
        observables = p1
        out = {tmp_path}/oracle
        """,
    )
    assert main(["run", "--config", config, "--oracle-only"]) == 0
    lines = (tmp_path / "oracle_results.csv").read_text().splitlines()
    assert all(l.split(",")[1] == "oracle" for l in lines[1:])
    summary = json.loads((tmp_path / "oracle_summary.json").read_text())
    assert summary["methods"] == {}
    # decay law visible in the oracle rows: p1(t) = e^{-t} from |1>... but
    # the default start is |+>, so just pin the t=0 value
    first = lines[1].split(",")
    assert first[2] == "p1" and float(first[3]) == pytest.approx(0.5)


def test_flag_overrides_and_repeatable_method(tmp_path):
    config = _write(
        tmp_path,
        "cfg.txt",
        f"""
        model = spontaneous_emission
        trajectories = 5000
        dt = 0.02
        t_max = 1.0
        observables = sz
        out = {tmp_path}/flags
        """,
    )
    code = main(
        [
            "run",
            "--config", config,
            "--method", "mcwf",
            "--method", "im(r_min=0.1)",
            "--trajectories", "120",
            "--t-max", "0.4",
            "--seed", "9",
            "--out", f"{tmp_path}/flags2",
        ]
    )
    assert code == 0
    assert not (tmp_path / "flags_results.csv").exists()  # --out won
    lines = (tmp_path / "flags2_results.csv").read_text().splitlines()
    methods = {l.split(",")[1] for l in lines[1:]}
    assert methods == {"oracle", "mcwf", "im(r_min=0.1)"}
    assert {l.split(",")[5] for l in lines[1:]} == {"0", "120"}


def test_divisibility_scan_output(tmp_path):
    cfg = parse_config(f"model = eternally_nm\ndt = 0.5\nt_max = 2\nout = {tmp_path}/div")
    assert divisibility_command(cfg) == 0
    lines = (tmp_path / "div_divisibility.csv").read_text().splitlines()
    assert lines[0] == "t,cp,p,min_rate,min_w_eigenvalue"
    assert len(lines) == 6  # header + 5 grid points
    t0 = lines[1].split(",")
    assert t0[1] == "true" and t0[2] == "true"
    t1 = lines[3].split(",")  # t = 1.0: dephasing rate negative, still P
    assert t1[1] == "false" and t1[2] == "true"
    assert float(t1[3]) == pytest.approx(-0.5 * np.tanh(1.0), abs=1e-9)


def test_csv_is_byte_identical_across_threads(tmp_path):
    base = f"""
    model = delayed_negative
    methods = plqt, doubled
    trajectories = 300
    dt = 0.02
    t_max = 0.6
    seed = 21
    observables = sx, p0
    """
    a = _write(tmp_path, "a.txt", base + f"out = {tmp_path}/serial\n")
    b = _write(tmp_path, "b.txt", base + f"out = {tmp_path}/pooled\n")
    assert main(["run", "--config", a, "--threads", "1"]) == 0
    assert main(["run", "--config", b, "--threads", "4"]) == 0
    serial = (tmp_path / "serial_results.csv").read_bytes()
    pooled = (tmp_path / "pooled_results.csv").read_bytes()
    assert serial == pooled


def test_csv_is_byte_identical_across_interpreters(tmp_path):
    """Two fresh interpreters with different string hashing write the same
    CSV for one cloning + mcwf run."""
    config = _write(tmp_path, "run.txt", "model = spontaneous_emission\nmethods = cloning, mcwf\n"
                    "trajectories = 2000\nt_max = 1.0\nseed = 3\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"hash{hash_seed}"
        done = subprocess.run([sys.executable, "-m", "unravel.cli", "run", "--config", config, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    assert (tmp_path / "hash0_results.csv").read_bytes() == (tmp_path / "hash1_results.csv").read_bytes()


def test_bad_input_ends_in_one_error_line(tmp_path, capsys):
    """A NaN r_min, a NaN amplitude, a step too small to count, more steps
    than numpy can index, rates whose G_L = sum_a gamma_a L_a^dag L_a
    overflows (the oracle meets a ModelError at t = 0) and an output path
    that cannot be written each end in one ``error:`` line and exit 1,
    before any output is written where that can be known in advance."""
    nan_state = _write(tmp_path, "nan.txt", "initial_state = nan, 0\n")
    overflow = _write(tmp_path, "overflow.txt", "model = phase_covariant\nmodel.gamma_plus = 1e308\n"
                      "model.gamma_z = 1e308\n")
    (tmp_path / "dir_results.csv").mkdir()  # the CSV path is taken by a directory
    quick = ["--t-max", "0.05", "--trajectories", "20"]
    for argv in (
        ["run", "--method", "im(r_min=nan)", *quick, "--out", str(tmp_path / "r")],
        ["run", "--config", nan_state, *quick, "--out", str(tmp_path / "a")],
        ["run", "--dt", "1e-320", "--oracle-only", "--out", str(tmp_path / "d")],
        ["run", "--dt", "1e-300", "--oracle-only", "--out", str(tmp_path / "i")],
        ["run", "--config", overflow, *quick, "--out", str(tmp_path / "o")],
        ["divisibility", "--config", overflow, "--t-max", "0.05", "--out", str(tmp_path / "o")],
        ["run", *quick, "--out", str(tmp_path / "missing" / "x")],
        ["divisibility", "--t-max", "0.05", "--out", str(tmp_path / "missing" / "x")],
        ["run", *quick, "--out", str(tmp_path / "dir")],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert main(["run", "--config", overflow, *quick, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: G_L = sum_a gamma_a L_a^dag L_a is not finite at t=0.0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir_results.csv", "nan.txt", "overflow.txt"]


def test_a_method_that_cannot_run_fails_before_any_work(tmp_path, monkeypatch, capsys):
    """A method token that cannot run on the model (rroqj without a gauge,
    a gz_identity gauge on a model without gamma_z) ends ``run`` with exit
    1 before the oracle or any earlier method runs, and writes nothing."""
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before every method was built")

    monkeypatch.setattr("unravel.cli.propagate", forbidden)
    monkeypatch.setattr("unravel.cli.run_ensemble", forbidden)
    emission = _write(tmp_path, "emission.txt", "model = spontaneous_emission\n")
    for argv, expect in (
        (["--method", "mcwf", "--method", "rroqj"], "rroqj needs a time-dependent gauge"),
        (["--config", emission, "--method", "mcwf", "--method", "psi_roqj(gauge=gz_identity)"],
         "gauge gz_identity needs a phase-covariant model"),
    ):
        assert main(["run", *argv, "--t-max", "0.1", "--out", str(tmp_path / "x")]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and expect in err, (argv, err)
    assert [p.name for p in tmp_path.iterdir()] == ["emission.txt"]


def test_a_run_that_does_not_fit_in_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A grid that fits an index but not memory (``--t-max 1e9`` asks for a
    745 GiB time axis) ends ``run`` and ``divisibility`` with exit 1 and one
    ``error:`` line, and writes nothing; so does an ensemble too large for
    its states, and the line names the trajectory count as well as the grid.
    The allocations are stood in for, so that no host has to refuse a real
    one."""
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000001,)")

    def expect_one_error_line(argv):
        assert main([*argv, "--t-max", "0.1", "--out", str(tmp_path / "x")]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "745. GiB" in err and "t_max or trajectories" in err, (argv, err)

    monkeypatch.setattr("unravel.cli.propagate", too_large)
    monkeypatch.setattr("unravel.cli.divisibility_scan", too_large)
    expect_one_error_line(["run"])
    expect_one_error_line(["divisibility"])
    monkeypatch.undo()
    monkeypatch.setattr("unravel.cli.run_ensemble", too_large)
    expect_one_error_line(["run", "--method", "mcwf"])
    assert list(tmp_path.iterdir()) == []


def test_main_exits_1_on_config_problems(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.txt")]) == 1
    bad = _write(tmp_path, "bad.txt", "dt = nope")
    assert main(["run", "--config", bad]) == 1
    unknown_model = _write(tmp_path, "m.txt", f"model = harmonic\nout = {tmp_path}/x")
    assert main(["run", "--config", unknown_model]) == 1
    assert main(["run", "--method", "warp", "--out", str(tmp_path / "y")]) == 1
    assert main(["orbit"]) == 1  # unknown subcommand must not exit(2)
    for flags in (
        ["--dt", "0.3", "--t-max", "1"],  # dt does not divide t_max
        ["--dt", "inf"],
        ["--t-max", "nan"],
        ["--t-max", "inf"],
        ["--seed", "-1"],
        ["--seed", "18446744073709551616"],  # 2^64 does not fit a Philox key word
        ["--trajectories", "0"],
        ["--trajectories", "-3"],
        ["--threads", "0"],
        ["--threads", "-2"],
    ):
        assert main(["run", "--oracle-only", "--out", str(tmp_path / "z"), *flags]) == 1
    capsys.readouterr()
    for model, line, expect in (
        ("non_p_divisible", "model.kappa = 2", "kappa must lie in [0, 1]"),
        ("spontaneous_emission", "model.gamma = -1", "gamma must be >= 0"),
        ("spontaneous_emission", "model.omega0 = nan", "omega0 must be finite"),
        ("non_p_divisible", "model.bogus = 3", "unknown parameter 'bogus'"),
    ):
        config = _write(tmp_path, "p.txt", f"model = {model}\n{line}\nout = {tmp_path}/p\n")
        for command in ("run", "divisibility"):
            assert main([command, "--config", config, "--oracle-only"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and expect in err
    assert "valid: kappa" in err  # the unknown key's message names the model's parameters
