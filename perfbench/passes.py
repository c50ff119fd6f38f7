"""One pass of a benchmark workload, run in a fresh process.

    python3 perfbench/passes.py '{"workload": "high-order", "seed": 0}'

prints one JSON object: the time of every unit of work, by the wall clock
("s") and at the reference speed of speed.py ("ref_s"), the value or error
code of every cell, the CSV text of every figure job, the peak RSS and the
pool size observed.  A fresh process per pass means every pass starts cold,
as every `su11` invocation does.  Request keys:

    workload  figures | high-order | oracle
    seed      input seed (figures ignores it: its grids are the paper's)
    trace     record spans and per-layer metrics (optional, default false)
    size      "full" or "tiny" (tiny serves the benchmark's own tests)
    spans     file to write the spans to when tracing (optional)
"""

from __future__ import annotations

import importlib
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
from su11.errors import Su11Error  # noqa: E402
from su11.model import Params  # noqa: E402

SWEEPS = importlib.import_module("su11.sweeps")
SENS = importlib.import_module("su11.sensitivity")
QFI = importlib.import_module("su11.qfi")
LIM = importlib.import_module("su11.limits")
FOCK = importlib.import_module("su11.fock")

# Calculators are looked up on their module at call time, so the tracer's
# patches take effect.
HIGH_ORDER_CALCS = {
    "sensitivity_lossy": lambda p: SENS.sensitivity_lossy(p).delta_phi,
    "qfi_ideal": lambda p: QFI.qfi_ideal(p).f,
    "qfi_lossy": lambda p: QFI.qfi_lossy(p).f,
    "limits": lambda p: LIM.limits(p).n_t,
}
MOMENT_ORDERS = (0, 1, 2, 3)
ORACLE_CALCS = {
    "qfi_pure": lambda p: FOCK.numeric_qfi_pure(p),
    "n_t": lambda p: FOCK.numeric_internal_photon_number(p),
    # the oracle path of verify's C1 grid: one ladder for every m (mode a)
    "moments_a": lambda p: [
        r["delta_phi"] for r in FOCK.numeric_moments_multi(p, MOMENT_ORDERS).values()
    ],
}

FIGURE_JOBS = tuple(f for f in SWEEPS.FIGURES if f != "fig2")
TINY_FIGURE_JOBS = ("fig3b", "fig13a")
# every LATENCY_STRIDE-th cell of each figure job is also timed on its own, in process
LATENCY_STRIDE = 16
JOB_MARKS = 3  # speed samples taken on each core before each figure job (speed.py)
HIGH_ORDER_POINTS = {"full": 32, "tiny": 4}  # m cycles through 8..15
SWEEP_POINTS = 5
# design ranges of (g, beta, phi) of the QFI and N_T sweeps; the QFI sweeps
# sit near verify's C2 points (see oracle_sweeps)
SWEEP_RANGES = {
    "qfi_pure": ((0.4, 0.6), (0.5, 1.0), (0.3, 0.5)),
    "n_t": ((0.3, 0.5), (0.5, 1.5), (0.2, 0.8)),
}
MOMENT_SWEEP_POINTS = 2
# C1's gains and loss placements, as (g, T1, T2, axis).  A point at g = 1
# costs about 1 s; the 16 cells of those points are the top seventh of the
# oracle's cell times, so the 90th percentile falls among them, not at
# their edge.
MOMENT_SWEEPS = (
    (0.5, 0.8, 1.0, "g"), (0.5, 1.0, 0.8, "g"), (1.0, 0.8, 1.0, "phi"), (1.0, 1.0, 0.8, "phi"),
)


def high_order_cells(seed: int, size: str = "full") -> list[tuple[str, dict]]:
    """Points over the figures' parameter ranges, one cell per calculator.

    `m` cycles through 8..15.  The other parameters come from a fixed design
    drawn over the ranges, which the seed moves by up to 1% of each range:
    the latency percentiles sit where the calculators' time clusters meet,
    and a free draw per seed would move them along with the inputs.
    """
    design = random.Random("high-order-design")
    rng = random.Random(f"high-order:{seed}")

    def draw(lo: float, hi: float) -> float:
        x = design.uniform(lo, hi) + 0.01 * (hi - lo) * rng.uniform(-1.0, 1.0)
        return min(hi, max(lo, x))

    cells = []
    for i in range(HIGH_ORDER_POINTS[size]):
        p = dict(
            g=draw(0.2, 2.0), beta=draw(0.2, 3.0), phi=draw(0.1, 3.0), m=8 + i % 8,
            T1=draw(0.3, 1.0), T2=draw(0.3, 1.0), eta=draw(0.3, 1.0),
        )
        cells.extend((calc, p) for calc in HIGH_ORDER_CALCS)
    return cells


def oracle_sweeps(seed: int, size: str = "full") -> list[dict]:
    """Short seeded oracle sweeps at m <= 3, along phi and along g.

    Along phi the squeezer blocks of one gain are shared by every point;
    along g no two points share them.  Each sweep starts from a fixed design
    point that the seed moves a little (by up to 0.004 in g and phi, 0.01 in
    beta): how far the cutoff ladder climbs depends steeply on g and phi,
    and a freer draw per seed would change the workload's cost along with
    its inputs.

    - QFI and N_T sweeps: one per (axis, calculator, m), five points each.
      The QFI sweeps start near verify's C2 points (g ~ 0.4..0.6,
      beta ~ 0.5..1, phi ~ 0.3..0.5); the N_T sweeps at g ~ 0.3..0.5, with
      internal loss (T1 ~ 0.86..0.98).
    - Lossy sensitivity sweeps, taken from verify's C1 grid: g in {0.5, 1},
      (T1, T2) in {(0.8, 1), (1, 0.8)}, beta ~ 0.5..1, phi ~ 0.2..0.4, and
      `numeric_moments_multi` over m = 0..3 per point, which gives one cell
      per m.  Loss multiplies the branch count, so these are the costliest
      points of the workload.
    """
    design = random.Random("oracle-design")
    rng = random.Random(f"oracle:{seed}")
    sweeps = []

    def sweep(axis: str, calc: str, n: int, **base) -> dict:
        points = [dict(base, **{axis: base[axis] + 0.08 * k}) for k in range(n)]
        return {"axis": axis, "calc": calc, "points": points}

    for axis in ("phi", "g"):
        for calc, (g, beta, phi) in SWEEP_RANGES.items():
            for m in range(4):
                sweeps.append(sweep(
                    axis, calc, SWEEP_POINTS,
                    g=design.uniform(*g) + rng.uniform(-0.004, 0.004),
                    beta=design.uniform(*beta) + rng.uniform(-0.01, 0.01),
                    phi=design.uniform(*phi) + rng.uniform(-0.004, 0.004),
                    m=m,
                    T1=design.uniform(0.86, 0.98) + rng.uniform(-0.002, 0.002) if calc == "n_t" else 1.0,
                ))
    moments = [
        sweep(
            axis, "moments_a", MOMENT_SWEEP_POINTS,
            g=g + rng.uniform(-0.004, 0.004),
            beta=design.uniform(0.5, 1.0) + rng.uniform(-0.01, 0.01),
            phi=design.uniform(0.2, 0.4) + rng.uniform(-0.004, 0.004),
            T1=t1, T2=t2,
        )
        for g, t1, t2, axis in MOMENT_SWEEPS
    ]
    if size == "tiny":
        return sweeps[:1] + moments[:1]
    return sweeps + moments


def eval_cell(fn, p: dict) -> dict:
    """Value or typed code of one call; an untyped exception is recorded, not raised.

    A call that returns a list (one value per m) gives a list as its value.
    """
    try:
        value = fn(Params(**p))
        value = [float(v) for v in value] if isinstance(value, list) else float(value)
    except Su11Error as err:
        return {"value": None, "code": SWEEPS._error_code(err)}
    except Exception as err:  # a failed cell must not abort the run
        return {"value": None, "code": "", "error": f"{type(err).__name__}: {err}"}
    return {"value": value, "code": ""}


def split_cells(r: dict, p: dict) -> list[tuple[dict, dict]]:
    """(result, params) of each cell of one call: one per m for a per-m call."""
    if "m" in p:
        return [(r, p)]
    values = r["value"] if isinstance(r["value"], list) else [None] * len(MOMENT_ORDERS)
    return [(dict(r, value=v), dict(p, m=m)) for v, m in zip(values, MOMENT_ORDERS)]


def latency_cells(fid: str) -> list[dict]:
    """Every LATENCY_STRIDE-th cell of a grid figure job, with its place in the CSV.

    Cells are in the job's task order (m, then axis value, then column), as
    `run_figure` builds them; `row` and `col` locate the cell's value and
    code in the job's table.
    """
    fig = SWEEPS.FIGURES[fid]
    xs = SWEEPS._lin(*fig.grid)
    cells = [
        {"job": fid, "row": i * len(xs) + k, "col": c, "task": (quantity, to_params(x, m))}
        for i, m in enumerate(fig.m_list)
        for k, x in enumerate(xs)
        for c, (_, quantity, to_params) in enumerate(fig.columns)
    ]
    return cells[::LATENCY_STRIDE]


def run_figure_job(fid: str) -> dict:
    try:
        text = SWEEPS.to_csv(SWEEPS.run_figure(SWEEPS.FigureJob(fid)))
    except Exception as err:  # an untyped error aborts the job; its cells count as failed
        return {"csv": None, "error": f"{type(err).__name__}: {err}"}
    return {"csv": text}


def figures_pass(req: dict, rec) -> dict:
    """The figure jobs at the default worker count, then their latency cells.

    Cells of a job run inside pool workers and cannot be timed one by one,
    so a sample of them (latency_cells) is also evaluated in process, each
    timed alone, as a pool worker evaluates it.  The sample runs after every
    job, so the workers that the jobs fork never inherit its state.
    """
    jobs = TINY_FIGURE_JOBS if req.get("size") == "tiny" else FIGURE_JOBS
    units, lat_units, csv, lat = [], [], {}, []
    for job in jobs:
        # a job's own samples come from the marks on either side of it
        speed.mark(JOB_MARKS, every_core=True)
        t0 = time.perf_counter()
        csv[job] = run_figure_job(job)
        units.append({"id": job, "t": (t0, time.perf_counter()), "pool": True})
    for cell in (c for job in jobs for c in latency_cells(job)):
        speed.mark()
        t0 = time.perf_counter()
        try:
            value, code, error = *SWEEPS._eval_task(cell["task"]), ""
        except Exception as err:  # a failed cell must not abort the run
            value, code, error = "", "", f"{type(err).__name__}: {err}"
        lat_units.append({"id": f"{cell['job']}#{cell['row']}.{cell['col']}",
                          "t": (t0, time.perf_counter())})
        lat.append({"job": cell["job"], "row": cell["row"], "col": cell["col"],
                    "value": value, "code": code, "error": error})
    return {"units": units, "lat_units": lat_units, "csv": csv, "latency_cells": lat}


def high_order_pass(req: dict, rec) -> dict:
    units, results = [], []
    for i, (calc, p) in enumerate(high_order_cells(req["seed"], req.get("size", "full"))):
        speed.mark()
        t0 = time.perf_counter()
        r = eval_cell(HIGH_ORDER_CALCS[calc], p)
        units.append({"id": i, "t": (t0, time.perf_counter())})
        results.append(dict(r, calc=calc, params=p))
    return {"units": units, "cells": results}


def oracle_pass(req: dict, rec) -> dict:
    size = req.get("size", "full")
    units, csv, results = [], {}, []
    if size == "full":
        if rec is not None:
            rec.context = "fig2"
        speed.mark()
        t0 = time.perf_counter()
        csv["fig2"] = run_figure_job("fig2")
        units.append({"id": "fig2", "t": (t0, time.perf_counter())})
    for j, sweep in enumerate(oracle_sweeps(req["seed"], size)):
        if rec is not None:
            rec.context = f"{sweep['axis']}_sweep"
        for k, p in enumerate(sweep["points"]):
            speed.mark()
            t0 = time.perf_counter()
            r = eval_cell(ORACLE_CALCS[sweep["calc"]], p)
            t = (t0, time.perf_counter())
            cells = split_cells(r, p)
            units.append({"id": f"{j}.{k}", "t": t, "cells": len(cells)})
            results.extend(dict(c, calc=sweep["calc"], axis=sweep["axis"], params=q) for c, q in cells)
    return {"units": units, "csv": csv, "cells": results}


PASSES = {"figures": figures_pass, "high-order": high_order_pass, "oracle": oracle_pass}


def _observe_pool(seen: list) -> None:
    """Record the size of every process pool the sweep runner starts."""
    base = getattr(SWEEPS, "ProcessPoolExecutor", None)
    if base is None:
        return

    class CountingPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            seen.append(max_workers or 0)
            super().__init__(max_workers, *args, **kwargs)

    SWEEPS.ProcessPoolExecutor = CountingPool


def run_pass(req: dict) -> dict:
    pools: list[int] = []
    _observe_pool(pools)
    rec = None
    if req.get("trace"):
        import tracer

        rec = tracer.Recorder()
        tracer.instrument(rec)
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        try:
            out = PASSES[req["workload"]](req, rec)
        finally:
            t1 = time.perf_counter()
            if rec is not None:
                rec.restore()
    for u in out["units"] + out.get("lat_units", []):
        u["s"] = u["t"][1] - u["t"][0]
        u["ref_s"] = sampler.ref_s(*u.pop("t"), marks_only=u.pop("pool", False))
    out["wall_s"] = t1 - t0
    out["ref_wall_s"] = sampler.ref_s(t0, t1)
    out["numpy"] = importlib.import_module("numpy").__version__
    out["workers"] = max(pools, default=0)
    out["pools"] = len(pools)
    if rec is not None:
        out["layers"], out["bases"] = tracer.layer_metrics(rec)
        if req.get("spans"):
            rec.save(req["spans"])
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["rss_mb"] = max(self_kb, child_kb) / 1024.0
    return out


if __name__ == "__main__":
    result = run_pass(json.loads(sys.argv[1]))
    print(json.dumps(result, allow_nan=True))
