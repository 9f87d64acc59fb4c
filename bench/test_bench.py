"""Self-test of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

TINY = workloads.Workload(
    "tiny",
    cases=(
        workloads.Case("mcwf", "spontaneous_emission", 40, 0.1),
        workloads.Case("wroqj", "eternally_nm", 40, 0.1),
    ),
)


def _span(name, start, end, parent=None, runner=False, layer="engine"):
    return Span(layer, name, start, parent, runner, end)


def test_self_time_subtracts_union_of_children():
    root = _span("run_ensemble", 0.0, 10.0)
    # two chunks on two pool threads overlap; the union [1, 5] is covered once
    a = _span("run_chunk", 1.0, 3.0, root, runner=True, layer="mcwf")
    b = _span("run_chunk", 2.0, 5.0, root, runner=True, layer="mcwf")
    # a child that outlives its parent is clipped to the parent's interval
    c = _span("trace_distance", 9.0, 12.0, root, layer="linalg")
    grandchild = _span("MasterEquation.at", 1.5, 2.0, a, layer="master_equation")
    spans = [root, a, b, c, grandchild]
    selfs = tracing.self_times(spans)
    assert selfs[id(root)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[id(a)] == pytest.approx(2.0 - 0.5)
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(grandchild)] == pytest.approx(0.5)
    m = tracing.layer_metrics(spans)
    assert m["engine.self_s"] == pytest.approx(5.0)
    assert m["mcwf.self_s"] == pytest.approx(4.5)
    assert m["master_equation.self_s"] == pytest.approx(0.5)
    assert m["linalg.trace_distance_calls"] == 1
    assert m["master_equation.at_calls"] == 1
    assert m["engine.chunks"] == 2


def test_nested_runner_belongs_to_the_dispatched_method():
    root = _span("run_ensemble", 0.0, 4.0)
    outer = _span("run_chunk", 0.0, 4.0, root, runner=True, layer="tripled")
    inner = _span("run_chunk", 1.0, 4.0, outer, runner=True, layer="mcwf")
    m = tracing.layer_metrics([root, outer, inner])
    assert tracing.effective_layer(inner) == "tripled"
    assert m["tripled.self_s"] == pytest.approx(4.0)
    assert m["mcwf.self_s"] == 0.0
    assert m["engine.chunks"] == 1


@pytest.fixture()
def tiny_ctx(tmp_path):
    return workloads.setup(ROOT, TINY, tmp_path)


def test_wrappers_removed_after_traced_run(tiny_ctx):
    import unravel
    from unravel import mcwf, rng
    from unravel.master_equation import MasterEquation

    originals = (rng.trajectory_uniforms, mcwf.trajectory_uniforms,
                 MasterEquation.__dict__["at"], unravel.run_ensemble)
    assert mcwf.trajectory_uniforms is rng.trajectory_uniforms
    tracer = tracing.Tracer()
    handle = tracing.install(tracer)
    try:
        assert mcwf.trajectory_uniforms is not originals[1]  # re-bound name is traced too
        res = workloads.run_cases(tiny_ctx, seed=3)
    finally:
        handle.remove()
    assert res.failed == 0
    assert tracing.leftover_wrappers() == []
    after = (rng.trajectory_uniforms, mcwf.trajectory_uniforms,
             MasterEquation.__dict__["at"], unravel.run_ensemble)
    assert all(x is y for x, y in zip(after, originals))
    m = tracing.layer_metrics(tracer.spans)
    assert m["engine.chunks"] == 40  # 20 per ensemble
    assert m["rng.streams"] == 80
    assert m["rng.uniform_bytes"] == 2 * 40 * 10 * 8


def test_failed_frac_counts_injected_abort(tiny_ctx, monkeypatch):
    from unravel import roqj

    def abort(*args, **kwargs):
        raise RuntimeError("injected abort")

    monkeypatch.setattr(roqj, "run_chunk", abort)
    res = workloads.run_cases(tiny_ctx, seed=3, reference=lambda: reference.NOMINAL_S)
    assert (res.attempted, res.failed) == (2, 1)
    assert "injected abort" in next(c.error for c in res.checks if not c.ok)
    metrics = run.end_to_end([res], [0.1], in_process=True)
    assert metrics["failed_frac"] == 0.5


def test_timings_scale_by_the_mean_reference_block_of_their_pass():
    nominal = reference.NOMINAL_S
    # the blocks around the two parts took 2, 2 and 1 nominal times: speed 3/5
    p = workloads.PassResult(wall_s=3.0, traj_steps=100, ensemble_s=2.0,
                             parts=[("a", 0.0, 2.0), ("b", 2.0, 3.0)],
                             ref_s=[2 * nominal, 2 * nominal, nominal],
                             checks=[workloads.Check("a", True)])
    assert run.speed(p) == pytest.approx(0.6)
    m = run.end_to_end([p], [0.4, 0.6], in_process=True)
    assert m["wall_s"] == pytest.approx(1.8)
    assert m["traj_steps_per_s"] == pytest.approx(100 / 1.2)
    assert m["setup_s"] == pytest.approx(0.3)  # both samples scaled like the first pass


def test_oracle_verdict_is_relative_to_stderr():
    n = 100
    check = workloads.oracle_verdict("x", [0.0, 0.02, 0.03], [0.0, 0.01, 0.005], n)
    assert check.ok and check.td_over_stderr == pytest.approx(2.0)
    assert check.max_pointwise_ratio == pytest.approx(4.0)
    check = workloads.oracle_verdict("x", [0.0, 0.06], [0.0, 0.01], n)
    assert not check.ok and check.td_over_stderr == pytest.approx(5.0)
    # zero spread is only forgiven up to one trajectory's weight
    assert workloads.oracle_verdict("x", [0.0, 0.005], [0.0, 0.0], n).ok
    assert not workloads.oracle_verdict("x", [0.0, 0.02], [0.0, 0.0], n).ok
    # a batch that could not be reconstructed leaves nothing to vouch for it
    assert not workloads.oracle_verdict("x", [0.0, 0.0], [0.0, float("inf")], n).ok
