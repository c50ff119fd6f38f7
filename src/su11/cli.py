"""Command-line driver: sweeps, figure data, verification.

Exit codes: 0 success, 1 validation problem (arguments, config), 2 numerical
failure (a verification criterion failed, a finding stopped reproducing, or
unexpected arithmetic trouble).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from su11.sweeps import (
    FIGURES,
    FigureJob,
    parse_config,
    run_figure,
    run_sweep,
    to_csv,
)


def _cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text()
        specs = parse_config(text)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not specs:
        print("error: config contains no sweep sections", file=sys.stderr)
        return 1
    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: output directory {out_dir}: {err.strerror or err}", file=sys.stderr)
        return 1
    for spec in specs:
        table = run_sweep(spec)
        path = out_dir / f"{spec.name}.csv"
        if not _write(path, to_csv(table)):
            return 1
        print(path)
    return 0


def _write(path: Path, text: str) -> bool:
    """Write the CSV text; on failure report it and return False."""
    try:
        path.write_text(text)
    except OSError as err:
        print(f"error: cannot write {path}: {err.strerror or err}", file=sys.stderr)
        return False
    return True


def _cmd_figure(args) -> int:
    output = args.output or f"{args.figure_id}.csv"
    path = Path(output)
    try:
        job = FigureJob(args.figure_id)
        # checked before the figure is computed, not after
        if path.is_dir():
            raise ValueError(f"output path {path} is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"output directory {path.parent} does not exist")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    table = run_figure(job)
    if not _write(path, to_csv(table)):
        return 1
    print(output)
    return 0


def _cmd_verify(args) -> int:
    # imported here: the criteria load numpy and the Fock oracle, which sweeps and figures need not
    from su11.verify import run_verify

    results = run_verify()
    for result in results:
        print(result.line())
    criteria = [r for r in results if not r.finding]
    findings = [r for r in results if r.finding]
    print(f"{sum(r.passed for r in criteria)}/{len(criteria)} criteria passed")
    print(f"{sum(r.passed for r in findings)}/{len(findings)} findings reproduced")
    return 0 if all(r.passed for r in results) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="su11",
        description=(
            "Phase sensitivity, QFI and metrological limits of an SU(1,1) "
            "interferometer with multiphoton output subtraction and photon loss."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run every sweep section of a config file")
    p_sweep.add_argument("config", help="flat key = value config, one section per sweep")
    p_sweep.add_argument(
        "-o", "--output-dir", default=".", help="directory for <section>.csv files"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser(
        "figure", help=f"emit the data underlying a figure ({', '.join(sorted(FIGURES))})"
    )
    p_fig.add_argument("figure_id")
    p_fig.add_argument("-o", "--output", default=None, help="CSV path (default <id>.csv)")
    p_fig.set_defaults(func=_cmd_figure)

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
