"""Benchmark of the su11 calculator: three closed-loop workloads.

    python3 perfbench/run.py --workload figures|high-order|oracle \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports `su11` from `src/`.
Every pass of a workload runs in a fresh process (passes.py), so each starts
cold, as every `su11` invocation does.  Passes repeat, in the same unit
order, until `--seconds` have gone by (at least MIN_PASSES).  A unit (a
figure job, or one cell) is timed in every pass, at the reference speed of
speed.py, and its time is the median over the passes.  Set-up is timed in
SETUP_PROBES separate fresh processes, spread over the first passes, and
reported as their median.  Wall-clock values are printed beside the metrics.

With --trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced in-process pass,
measured next to the untraced passes they are compared with.  Earlier lines
print a readable report, the failure and typed-error ratios with their
bases, and the run's provenance.  Outputs are checked against refs/ after
the timed passes; see checks.py.  Spans and the full report are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("figures", "high-order", "oracle")
MIN_PASSES = 2
MAX_PASSES = 50
SETUP_PROBES = 11
PROBES_PER_PASS = 3  # before each of the first MIN_PASSES passes; the rest follow the last
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sweeps.evaluate_grid.busy_s": "s",
    "sweeps.tasks": "count",
    "sweeps.workers": "count",
    "sweeps.to_csv.busy_s": "s",
    "sweeps.parallel_efficiency": "ratio",
    "sensitivity.calls": "count",
    "sensitivity.busy_s": "s",
    "qfi.ideal.calls": "count",
    "qfi.ideal.busy_s": "s",
    "qfi.lossy.calls": "count",
    "qfi.lossy.busy_s": "s",
    "qfi.lossy.self_s": "s",
    "limits.calls": "count",
    "limits.busy_s": "s",
    "model.kernels.calls": "count",
    "model.kernels.busy_s": "s",
    "model.exponent.calls": "count",
    "model.exponent.busy_s": "s",
    "series.exp.calls": "count",
    "series.exp.busy_s": "s",
    "series.mul.calls": "count",
    "series.mul.busy_s": "s",
    "series.extract.calls": "count",
    "series.mul.ops_computed": "count",
    "fock.converged_value.calls": "count",
    "fock.converged_value.busy_s": "s",
    "fock.ladder_rungs": "count",
    "fock.useful_rung_ratio": "ratio",
    "fock.accepted_n_cut_p50": "n_cut",
    "fock.accepted_n_cut_max": "n_cut",
    "fock.convergence_failures": "count",
    "fock.leakage_retries": "count",
    "fock.apply_tms.calls": "count",
    "fock.apply_tms.busy_s": "s",
    "fock.tms_cache_hit_ratio": "ratio",
    "fock.tms_cache_hit_ratio.phi_sweep": "ratio",
    "fock.tms_cache_hit_ratio.g_sweep": "ratio",
    "fock.apply_loss.busy_s": "s",
    "fock.loss_branches": "count",
    "fock.subtract_photons.busy_s": "s",
    "fock.state_bytes_computed": "bytes",
    "tracing.overhead": "ratio",
}
CALCULATOR_LAYERS = ("sensitivity", "qfi.ideal", "qfi.lossy", "limits")


class BenchError(RuntimeError):
    pass


class Run:
    """Child processes of one benchmark run, all bounded by one deadline."""

    def __init__(self, workload: str, seed: int, size: str = "full"):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.setup_times: list[float] = []

    def _child(self, argv: list[str], threads: str | None = None) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if threads is not None:
            env["SU11_THREADS"] = threads
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        # a session of its own, so a timeout also ends the pass's pool workers
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired as err:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[0]} overran the run deadline") from err
        if proc.returncode != 0:
            raise BenchError(f"{argv[0]} exited {proc.returncode}: {stderr.strip()[-2000:]}")
        return stdout.strip().splitlines()[-1]

    def probe_setup(self) -> None:
        out = self._child([str(HERE / "setup_probe.py"), self.workload])
        self.setup_times.append(json.loads(out))

    def run_pass(self, trace: bool = False, threads: str | None = None, spans: str = "") -> dict:
        req = {"workload": self.workload, "seed": self.seed,
               "trace": trace, "size": self.size, "spans": spans}
        return json.loads(self._child([str(HERE / "passes.py"), json.dumps(req)], threads))


def measure(run: Run, seconds: float) -> list[dict]:
    """Untraced passes at the default worker count, for about `seconds`.

    A pass starts only if it is expected to end in time, so a run lasts
    `seconds` unless MIN_PASSES take longer.  The SETUP_PROBES set-up probes
    are spread over the first passes, whatever their number.
    """
    t0 = time.monotonic()
    passes: list[dict] = []
    while len(passes) < MAX_PASSES:
        elapsed = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        if len(passes) < MIN_PASSES:
            for _ in range(PROBES_PER_PASS):
                run.probe_setup()
        passes.append(run.run_pass())
    while len(run.setup_times) < SETUP_PROBES:
        run.probe_setup()
    return passes


def hd_quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of a sample.

    A weighted mean of all order statistics, with the weight of the i-th of
    n given by the Beta(p(n+1), (1-p)(n+1)) mass on [(i-1)/n, i/n].  Unlike
    a single order statistic, it does not jump when the quantile falls in a
    gap between clusters of cell times.  On high-order each calculator
    forms such a cluster, and the median falls between two of them.
    """
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    w = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(w @ x)


def _unit_medians(passes: list[dict], field: str, key: str) -> dict:
    times: dict = {}
    for p in passes:
        for u in p.get(field, []):
            times.setdefault(str(u["id"]), []).append(u[key])
    return {uid: statistics.median(ts) for uid, ts in times.items()}


def end_to_end(workload: str, passes: list[dict], unit_cells: dict,
               setup_times: list[dict], key: str = "ref_s") -> tuple[dict, int]:
    """End-to-end metrics from each unit's median time, and the latency sample count.

    `key` picks the unit time: "ref_s", at the reference speed (speed.py),
    for the metrics; "s", by the wall clock, for the report.

    `unit_cells` gives the cell count of each figure job; a call unit carries
    its own.  Throughput counts every unit.  Latency samples come from the
    figure cells timed in process on `figures`, whose jobs run their cells
    inside pool workers, and elsewhere from the call units, each cell of a
    unit getting the unit's time per cell; the `fig2` job is timed only as
    a whole.
    """
    unit_s = _unit_medians(passes, "units", key)
    cells = {}
    for p in passes:
        for u in p["units"]:
            cells[str(u["id"])] = unit_cells.get(str(u["id"]), u.get("cells", 1))
    if workload == "figures":
        samples_ms = [1e3 * s for s in _unit_medians(passes, "lat_units", key).values()]
    else:
        samples_ms = [1e3 * unit_s[u] / cells[u] for u in unit_s if u not in unit_cells
                      for _ in range(cells[u])]
    return {
        "setup_s": statistics.median(p[key] for p in setup_times),
        "cells_per_s": sum(cells.values()) / sum(unit_s.values()),
        "cell_ms_p50": hd_quantile(samples_ms, 0.5),
        "cell_ms_p90": hd_quantile(samples_ms, 0.9),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }, len(samples_ms)


def tally(workload: str, seed: int, passes: list[dict]) -> checks.Tally:
    total = checks.Tally()
    for p in passes:
        total.merge(checks.check_pass(workload, seed, p))
    return total


def traced(run: Run) -> tuple[dict, dict, list[dict], checks.Tally]:
    """Per-layer metrics from one traced pass, beside the untraced passes it is compared with.

    Spans recorded in pool workers would be lost, so figures is traced in one
    process and compared with an untraced one-process pass; a pass at the
    default worker count gives the wall time that parallel efficiency is
    measured against.
    """
    OUT.mkdir(exist_ok=True)
    spans = str(OUT / f"spans-{run.workload}-seed{run.seed}.npz")
    default = run.run_pass() if run.workload == "figures" else None
    plain = run.run_pass(threads="1")
    traced_pass = run.run_pass(trace=True, threads="1", spans=spans)
    passes = [p for p in (default, plain, traced_pass) if p is not None]
    t = tally(run.workload, run.seed, passes)
    for diff in checks.same_outputs(plain, traced_pass):
        t.fail("tracing", f"output of {diff} changed with tracing on")
    layers = dict(traced_pass["layers"])
    bases = dict(traced_pass["bases"])
    # at the reference speed (speed.py): the two passes may meet different host speeds
    overhead = traced_pass["ref_wall_s"] / plain["ref_wall_s"]
    layers["tracing.overhead"] = overhead
    bases["tracing.overhead"] = {
        "traced_ref_s": traced_pass["ref_wall_s"], "untraced_ref_s": plain["ref_wall_s"],
        "traced_wall_s": traced_pass["wall_s"], "untraced_wall_s": plain["wall_s"],
    }
    workers = default["workers"] if default else traced_pass["workers"]
    layers["sweeps.workers"] = workers
    # the traced busy time carries the tracing cost; scale it back to untraced time
    busy = sum(layers[f"{c}.busy_s"] for c in CALCULATOR_LAYERS) / overhead
    wall = default["wall_s"] if default else 0.0
    layers["sweeps.parallel_efficiency"] = busy / (workers * wall) if workers and wall else 0.0
    bases["sweeps.parallel_efficiency"] = {
        "calculator_busy_s": busy, "workers": workers, "untraced_wall_s": wall,
    }
    info = {
        "spans_file": str(Path(spans).relative_to(ROOT)),
        "spans": traced_pass["layers"]["trace.spans"],
        "traced_cells": traced_pass["layers"]["trace.cells"],
        "bases": bases,
    }
    return {k: layers[k] for k in PER_LAYER}, info, passes, t


def provenance(run: Run, passes: list[dict], t: checks.Tally) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "su11").glob("*.py")):
        digest.update(path.read_bytes())
    if run.workload == "figures":
        ref = "figure CSVs checked against their references"
    elif checks.reference_cells(run.workload, run.seed) is not None:
        ref = f"seeded cells checked against the references for seed {run.seed}"
    else:
        ref = f"no reference for seed {run.seed}: seeded cells get the finite-or-typed check only"
    if run.workload == "oracle" and run.size == "full":
        ref += "; fig2 checked against its reference"
    return {
        "workload": run.workload,
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": passes[0].get("numpy") if passes else None,
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "SU11_THREADS": os.environ.get("SU11_THREADS", ""),
        "workers": [p["workers"] for p in passes],
        "passes": len(passes),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "setup_probes": len(run.setup_times),
        "cells_per_pass": t.cells // max(1, len(passes)),
        "cells_attempted": t.cells,
        "typed_cells": t.typed,
        "failed_cells": t.failed,
        "reference": ref,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    run = Run(workload, seed, size)
    if trace:
        metrics, info, passes, t = traced(run)
        units = PER_LAYER
    else:
        passes = measure(run, seconds)
        t = tally(workload, seed, passes)
        metrics, n_samples = end_to_end(workload, passes, t.unit_cells, run.setup_times)
        wall, _ = end_to_end(workload, passes, t.unit_cells, run.setup_times, key="s")
        info = {"latency_samples": n_samples,
                "wall_clock": {k: wall[k] for k in ("setup_s", "cells_per_s", "cell_ms_p50", "cell_ms_p90")}}
        units = END_TO_END
    prov = provenance(run, passes, t)
    prov.update(info)
    ratios = {
        "failed_ratio": {"value": t.failed / t.cells, "failed": t.failed, "attempted": t.cells},
        "typed_error_ratio": {"value": t.typed / t.cells, "typed": t.typed, "attempted": t.cells},
    }
    return {
        "result": {
            "correct": t.failed == 0,
            "attempted": t.cells,
            "failed": t.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
        "ratios": ratios,
        "provenance": prov,
        "failures": t.failures,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "su11" / "__init__.py").is_file():
        print(f"su11 sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    result = report["result"]
    for key, m in result["metrics"].items():
        print(f"{args.workload:>10}  {key:<36} {m['value']:>14.6g} {m['unit']}")
    for key, r in report["ratios"].items():
        print(f"{args.workload:>10}  {key:<36} {r['value']:>14.6g} ratio  "
              + json.dumps({k: v for k, v in r.items() if k != "value"}))
    for key, v in report["provenance"].get("wall_clock", {}).items():
        print(f"{args.workload:>10}  {key + ' (wall clock)':<36} {v:>14.6g} {END_TO_END[key]}")
    for line in report["failures"]:
        print(f"FAILED {line}")
    print("provenance " + json.dumps(report["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
