"""Regenerate the reference outputs in refs/ from the current sources.

    python3 perfbench/make_refs.py

Run it only when a change to su11's outputs is intended and reviewed: the
references are what every later benchmark run is checked against.
"""

import json

import checks
import passes


def main() -> None:
    (checks.REFS / "figures").mkdir(parents=True, exist_ok=True)
    for job in passes.FIGURE_JOBS + ("fig2",):
        out = passes.run_figure_job(job)
        (checks.REFS / "figures" / f"{job}.csv").write_text(out["csv"])
    for seed in checks.REFERENCE_SEEDS:
        for workload in ("high-order", "oracle"):
            req = {"workload": workload, "seed": seed, "size": "full"}
            cells = passes.PASSES[workload](req, None)["cells"]
            bad = checks.check_cells(workload, -1, cells)
            if bad.failed:
                raise SystemExit(f"{workload} seed {seed} fails its own checks: {bad.failures}")
            keep = ("calc", "axis", "params", "value", "code")
            body = {"workload": workload, "seed": seed,
                    "cells": [{k: c[k] for k in keep if k in c} for c in cells]}
            (checks.REFS / f"{workload}-seed{seed}.json").write_text(json.dumps(body, indent=0) + "\n")


if __name__ == "__main__":
    main()
