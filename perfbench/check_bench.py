"""The benchmark's own tests, at a tiny size.

    python3 -m pytest perfbench/check_bench.py

The file name keeps these out of the repository's default pytest run: they
start many processes and take under a minute.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

BYPASSED = {
    # layers a workload never calls report zero
    "figures": ("fock.converged_value.calls", "fock.apply_tms.calls", "fock.ladder_rungs"),
    "high-order": ("fock.converged_value.calls", "fock.apply_tms.calls", "sweeps.tasks", "sweeps.workers"),
    "oracle": ("sweeps.tasks", "sweeps.workers"),
}


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    report = run.run_workload(workload, 0, 0.0, trace=False, size="tiny")
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(report["ratios"]) == {"failed_ratio", "typed_error_ratio"}

    traced = run.run_workload(workload, 0, 0.0, trace=True, size="tiny")["result"]
    assert traced["correct"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == run.PER_LAYER
    for name in BYPASSED[workload]:
        assert traced["metrics"][name]["value"] == 0, name


def _traced_bytes(job: str) -> tuple[str, str]:
    plain = passes.run_figure_job(job)["csv"]
    rec = tracer.Recorder()
    tracer.instrument(rec)
    try:
        traced = passes.run_figure_job(job)["csv"]
    finally:
        rec.restore()
    assert len(rec.start) > 0
    return plain, traced


@pytest.mark.parametrize("job", passes.TINY_FIGURE_JOBS + ("fig2",))
def test_tracing_leaves_csv_bytes_unchanged(job, monkeypatch):
    monkeypatch.setenv("SU11_THREADS", "1")  # spans of pool workers would be lost
    plain, traced = _traced_bytes(job)
    assert plain == traced == checks.reference_csv(job)


@pytest.mark.parametrize("module, attr", [
    ("su11.fock", "converged_value"), ("su11.fock", "_TMS_BLOCK_CACHE"), ("su11.qfi", "qfi_lossy"),
])
def test_a_missing_trace_target_fails_the_traced_run(module, attr, monkeypatch):
    sweeps = importlib.import_module("su11.sweeps")
    run_figure = sweeps.run_figure
    monkeypatch.delattr(importlib.import_module(module), attr)
    with pytest.raises(tracer.TraceTargetError, match=attr):
        tracer.instrument(tracer.Recorder())
    assert sweeps.run_figure is run_figure  # patches made before the failure are undone


def test_hook_time_is_kept_out_of_every_span():
    rec = tracer.Recorder()

    def slow_hook(args):
        time.sleep(0.05)

    inner = rec.wrap("inner", lambda: None, before=slow_hook)
    outer = rec.wrap("outer", inner)
    outer()
    rec.wrap("sibling", inner)()
    names = [rec.names[i] for i in rec.name]
    dur = {n: e - s - h for n, s, e, h in zip(names, rec.start, rec.end, rec.hook)}
    assert max(dur.values()) < 0.01


def test_wrong_value_and_untyped_exception_are_counted(monkeypatch):
    def broken(p):
        raise RuntimeError("injected")

    good = passes.HIGH_ORDER_CALCS["limits"]
    monkeypatch.setitem(passes.HIGH_ORDER_CALCS, "qfi_ideal", broken)
    monkeypatch.setitem(passes.HIGH_ORDER_CALCS, "limits", lambda p: good(p) * (1 + 1e-6))
    out = passes.high_order_pass({"seed": 0, "size": "tiny"}, None)
    t = checks.check_pass("high-order", 0, out)
    points = passes.HIGH_ORDER_POINTS["tiny"]
    assert t.cells == 4 * points
    assert t.failed == 2 * points  # every qfi_ideal and every limits cell, nothing else
    assert any("untyped exception RuntimeError" in f for f in t.failures)
    assert any("rtol" in f for f in t.failures)


def test_aborted_figure_job_counts_all_its_cells(monkeypatch):
    monkeypatch.setenv("SU11_THREADS", "1")

    def broken(p):
        raise RuntimeError("injected")

    monkeypatch.setattr(importlib.import_module("su11.sweeps"), "sensitivity_ideal", broken)
    out = passes.figures_pass({"size": "tiny"}, None)
    assert out["csv"]["fig3b"]["csv"] is None
    t = checks.check_pass("figures", 0, out)
    # fig3b aborted, and each of its in-process latency cells hit the same error; fig13a intact
    assert t.failed == 164 + len(passes.latency_cells("fig3b")) and t.cells == 164 + 244

    # one perturbed value in an intact table is one failed cell
    header, *rows = out["csv"]["fig13a"]["csv"].splitlines()
    cols = rows[5].split(",")
    cols[2] = repr(float(cols[2]) * (1 + 1e-8))
    rows[5] = ",".join(cols)
    tampered = {"csv": "\n".join([header, *rows]) + "\n"}
    assert checks.check_table("fig13a", tampered).failed == 1


def test_other_seeds_get_the_finite_or_typed_check_only():
    assert checks.reference_cells("high-order", 7) is None
    cells = [{"calc": "x", "value": float("nan"), "code": ""},
             {"calc": "x", "value": None, "code": "DarkFringe"},
             {"calc": "x", "value": 1.0, "code": ""}]
    t = checks.check_cells("high-order", 7, cells)
    assert (t.cells, t.typed, t.failed) == (3, 1, 1)


def test_latency_cells_must_match_their_job():
    out = passes.figures_pass({"size": "tiny"}, None)
    assert len(out["lat_units"]) == len(out["latency_cells"]) > 0
    assert checks.check_pass("figures", 0, out).failed == 0
    out["latency_cells"][3]["value"] = "1.5"
    out["latency_cells"][5]["error"] = "RuntimeError: injected"
    t = checks.check_latency_cells(out)
    assert t.failed == 2 and t.cells == 0  # failures, not extra attempted cells


def test_reference_speed_scales_wall_time_by_the_loop():
    s = speed.Sampler()
    half = 2 * speed.LOOP_REF_S
    s.samples = [(0.0, half, False), (0.5, 0.5 + 4 * half, True), (1.0, 1.0 + half, False)]
    assert s.ref_s(0.0, 1.0, marks_only=True) == pytest.approx(0.5)  # the host ran at half speed
    assert s.ref_s(0.0, 1.0) == pytest.approx(0.25)  # with the thread's sample, at a quarter
    s.samples = [(5.0, 5.0 + speed.LOOP_REF_S, False)]
    assert s.ref_s(0.0, 1.0) == pytest.approx(1.0)  # no sample near: the nearest one


def test_hd_quantile_does_not_jump_across_a_gap():
    two_clusters = [1.0] * 64 + [2.0] * 64
    assert run.hd_quantile(two_clusters, 0.5) == pytest.approx(1.5)
    moved = [1.0] * 63 + [2.0] * 65  # one cell crosses the gap
    assert abs(run.hd_quantile(moved, 0.5) - 1.5) < 0.1
    assert run.hd_quantile(list(range(1, 101)), 0.9) == pytest.approx(90.5, abs=0.2)
