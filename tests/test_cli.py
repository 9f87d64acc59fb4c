"""Config grammar, CSV/JSON emission, exit codes."""

import json

import numpy as np
import pytest

from unravel.cli import divisibility_command, main, parse_config, run_command
from unravel.errors import BadAmplitudes, ParseError, UnknownMethod


def test_defaults():
    cfg = parse_config("")
    assert cfg.model_name == "eternally_nm"
    assert cfg.method_tokens == ["mcwf"]
    assert cfg.n_traj == 10_000
    assert cfg.dt == 1e-2
    assert cfg.t_max == 5.0
    assert cfg.seed == 42
    assert cfg.threads == 1
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
    assert cfg.threads == 3
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
    with pytest.raises(ParseError):
        parse_config("methods = im(r_min=fast)")
    with pytest.raises(ParseError):
        parse_config("methods = mcwf(color=red)")
    with pytest.raises(ParseError):
        parse_config("methods = im(r_min")


def test_initial_state_validation():
    with pytest.raises(BadAmplitudes):
        parse_config("initial_state = 1, 1")  # norm sqrt(2)
    with pytest.raises(BadAmplitudes):
        parse_config("initial_state = up, down")
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


def test_main_exits_1_on_config_problems(tmp_path):
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
    ):
        assert main(["run", "--oracle-only", "--out", str(tmp_path / "z"), *flags]) == 1
