"""Correctness checks of pass outputs against the committed references.

A cell fails on an untyped exception, a non-finite value, a value outside the
reference tolerance, or an error code that differs from the reference.
Closed-form values are held to rel 1e-9, loose enough for an equivalent
reformulation of the series engine and tight enough to catch a real change;
oracle values to rel 1e-7, above the oracle ladder's own 1e-8 agreement gate.
Seeds without a reference get only the finite-or-typed check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
REFERENCE_SEEDS = (0, 1)  # the default seed and one held-out seed
RTOL_ANALYTIC = 1e-9
RTOL_ORACLE = 1e-7


class Tally:
    def __init__(self):
        self.cells = 0
        self.typed = 0
        self.failed = 0
        self.failures: list[str] = []
        self.unit_cells: dict[str, int] = {}

    def fail(self, where: str, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {why}")

    def merge(self, other: "Tally") -> None:
        self.cells += other.cells
        self.typed += other.typed
        self.failed += other.failed
        self.unit_cells.update(other.unit_cells)
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])


def _close(value: float, ref: float, rtol: float) -> bool:
    return value == ref or abs(value - ref) <= rtol * abs(ref)


def check_value(value, code: str, ref, rtol: float) -> str | None:
    """Failure reason for one (value, code) cell, or None when it passes.

    `ref` is the reference (value, code) pair, or None for the
    finite-or-typed check alone.
    """
    if code:
        if ref is not None and code != ref[1]:
            return f"code {code!r}, reference {ref[1] or ref[0]!r}"
        return None
    if value is None or not math.isfinite(value):
        return f"non-finite value {value!r}"
    if ref is not None:
        if ref[1]:
            return f"value {value!r}, reference code {ref[1]!r}"
        if not _close(value, ref[0], rtol):
            return f"value {value!r}, reference {ref[0]!r} (rtol {rtol:g})"
    return None


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def reference_csv(job: str) -> str:
    return (REFS / "figures" / f"{job}.csv").read_text()


def check_table(job: str, out: dict) -> Tally:
    """One figure job's CSV against its reference, cell by cell."""
    t = Tally()
    header, ref_rows = _parse_csv(reference_csv(job))
    n_cols = (len(header) - 2) // 2
    total = len(ref_rows) * n_cols
    t.cells = t.unit_cells[job] = total
    if out.get("csv") is None:
        t.fail(job, f"job aborted: {out.get('error')}", total)
        return t
    got_header, rows = _parse_csv(out["csv"])
    if got_header != header or len(rows) != len(ref_rows):
        t.fail(job, "table shape differs from reference", total)
        return t
    for row, ref in zip(rows, ref_rows):
        if row[:2] != ref[:2] or len(row) != len(ref):
            t.fail(job, f"row keys {row[:2]} differ from reference {ref[:2]}", n_cols)
            continue
        for j in range(n_cols):
            label = header[2 + 2 * j]
            value, code = row[2 + 2 * j], row[3 + 2 * j]
            ref_value, ref_code = ref[2 + 2 * j], ref[3 + 2 * j]
            rtol = RTOL_ORACLE if "oracle" in label else RTOL_ANALYTIC
            why = check_value(
                float(value) if value else None, code,
                (float(ref_value) if ref_value else None, ref_code), rtol,
            )
            t.typed += bool(code)
            if why:
                t.fail(f"{job} {label} at {row[:2]}", why)
    return t


def check_latency_cells(out: dict) -> Tally:
    """Figure cells timed in process against the same cells of their job's CSV.

    They are the job's own cells, so they must match it byte for byte; the
    CSV itself is checked against the reference by check_table.  They are
    not counted as attempted cells a second time.
    """
    t = Tally()
    tables = {job: _parse_csv(o["csv"])[1] for job, o in out["csv"].items() if o.get("csv")}
    for cell in out["latency_cells"]:
        where = f"{cell['job']} cell {cell['row']}.{cell['col']} in process"
        if cell["error"]:
            t.fail(where, f"untyped exception {cell['error']}")
            continue
        rows = tables.get(cell["job"])
        if rows is None:
            continue  # the job aborted; check_table counted its cells
        row = rows[cell["row"]]
        got = (cell["value"], cell["code"])
        want = (row[2 + 2 * cell["col"]], row[3 + 2 * cell["col"]])
        if got != want:
            t.fail(where, f"{got} differs from the job's CSV {want}")
    return t


def reference_cells(workload: str, seed: int) -> list[dict] | None:
    path = REFS / f"{workload}-seed{seed}.json"
    if seed not in REFERENCE_SEEDS or not path.exists():
        return None
    return json.loads(path.read_text())["cells"]


def _cell_key(cell: dict) -> tuple[str, str]:
    return cell["calc"], json.dumps(cell["params"], sort_keys=True)


def check_cells(workload: str, seed: int, cells: list[dict]) -> Tally:
    """Seeded cells against the seed's reference, or finite-or-typed alone.

    A cell is matched to its reference by calculator and inputs, so a
    smaller pass (the tiny size) is checked against the same file.
    """
    t = Tally()
    refs = reference_cells(workload, seed)
    if refs is not None:
        refs = {_cell_key(r): r for r in refs}
    rtol = RTOL_ORACLE if workload == "oracle" else RTOL_ANALYTIC
    for i, cell in enumerate(cells):
        t.cells += 1
        t.typed += bool(cell["code"])
        where = f"{workload} cell {i} {cell['calc']}"
        if cell.get("error"):
            t.fail(where, f"untyped exception {cell['error']}")
            continue
        ref = None
        if refs is not None:
            r = refs.get(_cell_key(cell))
            if r is None:
                t.fail(where, "inputs not in the reference")
                continue
            ref = (r["value"], r["code"])
        why = check_value(cell["value"], cell["code"], ref, rtol)
        if why:
            t.fail(where, why)
    return t


def check_pass(workload: str, seed: int, out: dict) -> Tally:
    t = Tally()
    for job, job_out in out.get("csv", {}).items():
        t.merge(check_table(job, job_out))
    if "cells" in out:
        t.merge(check_cells(workload, seed, out["cells"]))
    if "latency_cells" in out:
        t.merge(check_latency_cells(out))
    return t


def same_outputs(a: dict, b: dict) -> list[str]:
    """Units whose outputs differ between two passes over the same inputs."""
    diff = [job for job in a.get("csv", {}) if a["csv"][job] != b.get("csv", {}).get(job)]
    cells_a, cells_b = a.get("cells", []), b.get("cells", [])
    diff += [f"cell {i}" for i, (x, y) in enumerate(zip(cells_a, cells_b)) if x != y]
    if len(cells_a) != len(cells_b):
        diff.append("cell count")
    return diff
