"""Tests for sweep specs, config round-trips, CSV output and the CLI."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from su11.cli import main
from su11.model import Params
from su11.errors import Su11Error
from su11.qfi import cq_alpha, qfi_ideal, qfi_lossy
from su11.sweeps import (
    FIGURES,
    QUANTITIES,
    FigureJob,
    SweepSpec,
    _error_code,
    _eval_task,
    format_float,
    parse_config,
    run_figure,
    run_sweep,
    to_csv,
)
from su11.verify import CriterionResult, run_verify
from references import mp_ideal_qfi, serialize_config

EXAMPLE_CONFIG = """\
[delta-vs-T]
quantity = delta_phi_lossy
axis = T1
lo = 0.4
hi = 1.0
points = 4
m = 0,1
g = 1.0
beta = 1.0
phi = 0.4
T2 = 1.0
"""

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's committed figure tables, read only
REFERENCE_FIGURES = ROOT / "perfbench" / "refs" / "figures"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """`su11` with these arguments, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "su11.cli", *args], capture_output=True, text=True, env=env
    )


def run_sweep_config(text: str, tmp_path: Path) -> subprocess.CompletedProcess:
    """`su11 sweep` on the config text, in a fresh interpreter."""
    cfg = tmp_path / "sweeps.cfg"
    cfg.write_text(text)
    return run_cli("sweep", str(cfg), "-o", str(tmp_path))


class TestSweepSpec:
    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError):
            SweepSpec("s", "nope", "phi", 0.1, 1.0, 5)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            SweepSpec("s", "delta_phi_ideal", "m", 0.1, 1.0, 5)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            SweepSpec("s", "delta_phi_ideal", "phi", 0.1, 1.0, 1)

    def test_rejects_out_of_range_bounds(self):
        with pytest.raises(ValueError):
            SweepSpec("s", "delta_phi_lossy", "T1", 0.5, 1.2, 5)

    def test_rejects_an_out_of_range_m_after_the_first(self):
        with pytest.raises(ValueError):
            SweepSpec("s", "delta_phi_lossy", "T1", 0.5, 1.0, 5, m_list=(0, 16))


class TestConfig:
    def test_round_trip_is_identity(self):
        specs = parse_config(EXAMPLE_CONFIG)
        assert parse_config(serialize_config(specs)) == specs

    def test_missing_key_reported(self):
        with pytest.raises(ValueError, match="missing key"):
            parse_config("[s]\nquantity = delta_phi_ideal\n")

    def test_case_sensitive_parameter_names(self):
        (spec,) = parse_config(EXAMPLE_CONFIG)
        assert ("T2", 1.0) in spec.fixed


class TestRunSweep:
    def test_minimal_sweep_shape(self):
        spec = SweepSpec(
            "s", "delta_phi_ideal", "phi", 0.3, 0.5, 2, m_list=(0, 1),
            fixed=(("beta", 1.0), ("g", 1.0)),
        )
        header, rows = run_sweep(spec)
        assert header == ["phi", "m", "delta_phi_ideal", "error"]
        assert len(rows) == 4  # 2 points x 2 m values

    def test_dark_fringe_rows_carry_error_codes(self):
        spec = SweepSpec(
            "s", "delta_phi_ideal", "phi", -0.2, 0.2, 5, m_list=(1,),
            fixed=(("beta", 1.0), ("g", 1.0)),
        )
        _, rows = run_sweep(spec)
        failed = [r for r in rows if r[3]]
        assert failed and all(r[2] == "" for r in failed)
        assert failed[0][3] == "DarkFringe"
        assert all("nan" not in r[2].lower() for r in rows)

    @pytest.mark.parametrize(
        "quantity,params",
        [
            # float overflow past the large-g edge: Var(N) ~ u^2 and F ~ sinh^6 g
            ("delta_phi_lossy", dict(g=90.0, m=15)),
            ("qfi_ideal", dict(g=118.0, m=15)),
            # roundoff near phi = 2 pi k used to raise untyped errors
            ("qfi_ideal", dict(phi=1e-9, m=3)),
            ("qfi_ideal", dict(phi=2 * math.pi, m=1)),
            ("qcrb", dict(phi=2 * math.pi, m=1)),
            # the normalizer's complex power overflowed with an untyped error
            (
                "qfi_ideal",
                dict(g=0.08560370573548237, beta=2.981156668039141,
                     phi=-2.4127980815017835e-07, m=15),
            ),
            # the probe's inner products grow like 1/|X1|^2 next to a fringe and
            # cancel: the roundoff estimate turns these into codes, not values
            *[("qfi_ideal", dict(phi=phi, m=m)) for phi in (1e-8, 1e-7) for m in (1, 3, 8, 15)],
            ("qfi_ideal", dict(g=1.61, beta=1.02, phi=2 * math.pi + 6e-8, m=6)),
            ("qfi_lossy", dict(eta=1.0 - 1e-9, phi=1e-8, m=1)),
        ],
        ids=["dphi-g90", "qfi-g118", "qfi-phi1e-9", "qfi-2pi", "qcrb-2pi",
             "qfi-pow-overflow",
             *[f"qfi-phi{phi}-m{m}" for phi in ("1e-8", "1e-7") for m in (1, 3, 8, 15)],
             "qfi-2pi+6e-8", "qfi-lossy-eta1-1e-9"],
    )
    def test_overflow_and_roundoff_cells_carry_numerical_code(self, quantity, params):
        # the qfi_ideal cells were refused like the others until qfi_ideal became
        # 4 Var(n), which neither cancels near a fringe nor forms sinh^6 g: they
        # now hold that value, the same as C_Q at eta = 1 and 60-digit 4 Var(n).
        # The qcrb cell at eta = 1 reads qfi_ideal as well, so it holds 1 / sqrt(4 Var(n))
        p = Params(**params)
        value, code = _eval_task((quantity, p))
        if quantity == "qcrb":
            assert code == "" and float(value) == qfi_ideal(p).qcrb
            mpmath = pytest.importorskip("mpmath")
            assert float(value) == pytest.approx(1.0 / math.sqrt(mp_ideal_qfi(mpmath, p)), rel=1e-12)
            return
        if quantity != "qfi_ideal":
            assert (value, code) == ("", "Numerical")
            return
        assert code == "" and math.isfinite(float(value))
        assert float(value) == pytest.approx(cq_alpha(p.replace(eta=1.0), 0.0), rel=1e-14)
        mpmath = pytest.importorskip("mpmath")
        assert float(value) == pytest.approx(mp_ideal_qfi(mpmath, p), rel=1e-12)

    def test_qcrb_reads_qfi_ideal_at_eta_one_and_qfi_lossy_below(self):
        # seeded points over the whole Params domain: eta = 1 on half of them, a quarter next
        # to a fringe, beta = 0 and 1e92, m = 15 and nu > 1 among them.  Each qcrb cell is the
        # routed calculator's value or error code, and on both halves some cells tell it apart
        def cell(calculator, p):
            try:
                return format_float(calculator(p).qcrb), ""
            except Su11Error as err:
                return "", _error_code(err)

        rng = np.random.default_rng(39)
        told_apart = {True: 0, False: 0}
        for i in range(80):
            lossless = i % 2 == 0
            if i % 4 < 2:
                fringe = 2.0 * math.pi * rng.integers(-1, 2)
                phi = fringe + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -1.0)
            else:
                phi = rng.uniform(-10.0, 10.0)
            p = Params(
                g=float(10.0 ** rng.uniform(-3.0, 1.3)),
                beta=float(rng.choice([0.0, 1e92, 10.0 ** rng.uniform(-3.0, 2.0)])),
                phi=float(phi),
                m=15 if i % 5 == 0 else int(rng.integers(0, 16)),
                T1=float(rng.uniform(0.0, 1.0)),
                T2=float(rng.uniform(0.0, 1.0)),
                eta=1.0 if lossless else float(1.0 - rng.uniform(0.0, 1.0)),
                nu=int(rng.integers(1, 10**6)),
            )
            routed, other = (qfi_ideal, qfi_lossy) if p.eta == 1.0 else (qfi_lossy, qfi_ideal)
            assert _eval_task(("qcrb", p)) == cell(routed, p), p
            told_apart[lossless] += cell(other, p) != cell(routed, p)
        assert told_apart[True] and told_apart[False], told_apart

    @pytest.mark.parametrize(
        "quantity", ["delta_phi_lossy", "n_t", "sql", "qfi_ideal"],
        ids=["dphi-g12", "nt-g12", "sql-g12", "qfi-g12"],
    )
    def test_large_gain_cells_are_values(self, quantity):
        # the subtraction weight and the QFI's normalizer are taken in logs, so
        # nothing overflows at g = 12.5, m = 15 (values against mpmath:
        # test_sensitivity, test_limits, test_qfi)
        value, code = _eval_task((quantity, Params(g=12.5, m=15)))
        assert code == "" and 0.0 < float(value) < math.inf

    def test_near_fringe_cells_hold_a_value_or_a_code(self):
        # seeded points within 1e-6 rad of the phi = 0 dark fringe at high m,
        # where the extractions are all roundoff and may overflow
        analytic = [q for q in QUANTITIES if not q.startswith("oracle_")]
        assert len(analytic) == 8
        rng = np.random.default_rng(0)
        for _ in range(16):
            p = Params(
                g=float(rng.uniform(0.02, 0.5)),
                beta=float(rng.uniform(1.0, 5.0)),
                phi=float(rng.uniform(-1e-6, 1e-6)),
                m=int(rng.integers(8, 16)),
                T1=float(rng.uniform(0.6, 1.0)),
                T2=float(rng.uniform(0.6, 1.0)),
                eta=float(rng.uniform(0.6, 1.0)),
            )
            for quantity in analytic:
                value, code = _eval_task((quantity, p))
                assert (value == "") != (code == ""), (quantity, p, value, code)
                assert code or 0.0 < float(value) < math.inf, (quantity, p, value)

    def test_csv_deterministic(self):
        spec = parse_config(EXAMPLE_CONFIG)[0]
        first = to_csv(run_sweep(spec))
        second = to_csv(run_sweep(spec))
        assert first == second
        assert first.startswith("T1,m,delta_phi_lossy,error\n")

    def test_float_formatting_17_digits(self):
        spec = SweepSpec(
            "s", "delta_phi_ideal", "phi", 1.0 / 3.0, 2.0 / 3.0, 2, m_list=(0,),
            fixed=(("beta", 1.0), ("g", 1.0)),
        )
        _, rows = run_sweep(spec)
        assert rows[0][0] == format(1.0 / 3.0, ".17g")


class TestFigures:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            FigureJob("fig99")

    def test_fig5_has_both_loss_placements(self):
        header, rows = run_figure(FigureJob("fig5"))
        assert "delta_phi_internal" in header and "delta_phi_external" in header
        assert len(rows) == 71 * 4
        ms = {r[1] for r in rows}
        assert ms == {"0", "1", "2", "3"}

    def test_fig12_photon_numbers_increase_with_m(self):
        header, rows = run_figure(FigureJob("fig12"))
        i_val = header.index("n_t")
        by_m = {}
        for r in rows:
            if r[0] == format(1.0, ".17g"):
                by_m[int(r[1])] = float(r[i_val])
        assert by_m[0] < by_m[1] < by_m[2] < by_m[3]

    def test_fig13_curve_family(self):
        header, rows = run_figure(FigureJob("fig13b"))
        for col in ("delta_phi_lossy", "sql", "hl", "qcrb"):
            assert col in header
        assert len(rows) == 61
        assert all(r[1] == "1" for r in rows)

    def test_fig2_includes_oracle_mode_b(self):
        fig = FIGURES["fig2"]
        labels = [c[0] for c in fig.columns]
        assert "delta_phi_b_oracle" in labels

    def test_fig2_skips_only_points_that_fail_alone(self):
        # after its first Convergence, fig2 marks every later phase point
        # unconverged without climbing; each of them must fail on its own
        from su11 import fock
        from su11.errors import ConvergenceError
        from su11.sweeps import _lin, format_float

        fig = FIGURES["fig2"]
        _, rows = run_figure(FigureJob("fig2"))
        xs = _lin(*fig.grid)
        unconverged = {row[0] for row in rows if row[-1] == "Convergence"}
        first = min(i for i, x in enumerate(xs) if format_float(x) in unconverged)
        assert unconverged == {format_float(x) for x in xs[first:]}
        skipped = xs[first + 1 :]
        assert len(skipped) == 19 and skipped[0] == pytest.approx(1.33, abs=0.01)
        for phi in skipped:
            with pytest.raises(ConvergenceError):
                fock.numeric_moments_multi(Params(g=1.0, beta=1.0, phi=phi), fig.m_list, mode="b")

    @pytest.mark.parametrize("figure_id", list(FIGURES))
    def test_matches_reference_table(self, figure_id):
        # the benchmark's rule: values to rel 1e-9, oracle columns (converged
        # to 1e-8 by the cutoff ladder) to rel 1e-7, error codes exact
        got = to_csv(run_figure(FigureJob(figure_id))).splitlines()
        want = (REFERENCE_FIGURES / f"{figure_id}.csv").read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        rels = [1e-7 if "oracle" in label else 1e-9 for label in got[0].split(",")[2::2]]
        for got_line, want_line in zip(got[1:], want[1:]):
            row, ref = got_line.split(","), want_line.split(",")
            assert row[:2] == ref[:2]
            assert row[3::2] == ref[3::2]
            for value, ref_value, rel in zip(row[2::2], ref[2::2], rels):
                assert (value == "") == (ref_value == "")
                if value:
                    assert float(value) == pytest.approx(float(ref_value), rel=rel)


class TestMain:
    def test_figure_command(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figure", "fig12", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("T,m,n_t,n_t_error\n")

    def test_unknown_figure_exit_code(self):
        assert main(["figure", "fig99"]) == 1

    def test_sweep_command(self, tmp_path):
        cfg = tmp_path / "sweeps.cfg"
        cfg.write_text(EXAMPLE_CONFIG)
        assert main(["sweep", str(cfg), "-o", str(tmp_path)]) == 0
        text = (tmp_path / "delta-vs-T.csv").read_text()
        assert text.count("\n") == 1 + 4 * 2  # header + rows

    def test_readme_sweep_configs_run(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        configs = [b for b in re.findall(r"```\w*\n(.*?)```", readme, re.S) if b.startswith("[")]
        assert configs, "README shows no sweep config"
        for i, text in enumerate(configs):
            cfg, out = tmp_path / f"readme{i}.cfg", tmp_path / f"out{i}"
            cfg.write_text(text)
            assert main(["sweep", str(cfg), "-o", str(out)]) == 0
            sections = re.findall(r"^\[(.+)\]$", text, re.M)
            assert sorted(p.name for p in out.iterdir()) == sorted(f"{s}.csv" for s in sections)

    def test_oracle_sweep_reaches_complete_internal_loss(self, tmp_path):
        from su11.limits import limits

        cfg = tmp_path / "sweeps.cfg"
        cfg.write_text(
            "[nt-vs-T1]\nquantity = oracle_n_t\naxis = T1\nlo = 0.0\nhi = 1.0\n"
            "points = 3\nm = 0,1\ng = 0.5\nbeta = 0.5\nphi = 0.4\n"
        )
        assert main(["sweep", str(cfg), "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "nt-vs-T1.csv").read_text().splitlines()
        assert lines[0] == "T1,m,oracle_n_t,error"
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            t1, m, value, code = line.split(",")
            assert code == ""
            want = limits(Params(g=0.5, beta=0.5, phi=0.4, T1=float(t1), m=int(m))).n_t
            assert float(value) == pytest.approx(want, rel=1e-8)

    def test_oracle_sweeps_with_an_infinite_input_carry_numerical_codes(self, tmp_path):
        # an infinite beta aborted the sweep with a ZeroDivisionError, and an
        # infinite g wrote N_T = 0, where the closed form writes Numerical
        cfg = tmp_path / "sweeps.cfg"
        cfg.write_text(
            "[dphi-beta-inf]\nquantity = oracle_delta_phi_a\naxis = phi\nlo = 0.3\nhi = 0.5\n"
            "points = 2\nm = 0,1\ng = 1.0\nbeta = inf\n\n"
            "[nt-g-inf]\nquantity = oracle_n_t\naxis = phi\nlo = 0.3\nhi = 0.5\n"
            "points = 2\nm = 0,1\ng = inf\nbeta = 1.0\n"
        )
        assert main(["sweep", str(cfg), "-o", str(tmp_path)]) == 0
        for name in ("dphi-beta-inf", "nt-g-inf"):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            assert len(lines) == 1 + 2 * 2
            assert all(line.endswith(",,Numerical") for line in lines[1:]), lines

    def test_sweep_missing_file(self, tmp_path):
        assert main(["sweep", str(tmp_path / "absent.cfg")]) == 1

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_figure_output_is_an_error_before_computing(self, target, tmp_path, monkeypatch):
        out = tmp_path / "absent" / "x.csv" if target == "missing-dir" else tmp_path
        proc = run_cli("figure", "fig3b", "-o", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "absent").exists()

        def no_figure(job):
            raise AssertionError("the figure was computed")

        monkeypatch.setattr("su11.cli.run_figure", no_figure)
        assert main(["figure", "fig3b", "-o", str(out)]) == 1

    def test_sweep_output_dir_that_is_a_file_is_an_error(self, tmp_path):
        cfg = tmp_path / "sweeps.cfg"
        cfg.write_text(EXAMPLE_CONFIG)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        proc = run_cli("sweep", str(cfg), "-o", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("section", ["../escaped", "sub/x"], ids=["parent-dir", "sub-dir"])
    def test_section_name_that_is_not_a_file_name_is_a_validation_error(self, section, tmp_path):
        # each section is written to <output dir>/<section>.csv, so a path
        # in the name is refused before anything is computed or created
        cfg = tmp_path / "sweeps.cfg"
        cfg.write_text(f"[{section}]\nquantity = qcrb\naxis = g\nlo = 0.5\nhi = 1\npoints = 2\n")
        out = tmp_path / "out"
        proc = run_cli("sweep", str(cfg), "-o", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        assert not (tmp_path / "escaped.csv").exists()

    @pytest.mark.parametrize(
        "grid",
        ["axis = g\nlo = 0.5\nhi = inf\n", "axis = phi\nlo = -1e308\nhi = 1e308\n"],
        ids=["infinite-end", "overflowing-span"],
    )
    def test_unbounded_grid_is_a_validation_error_before_any_csv(self, grid, tmp_path):
        # both ends pass Params here, but the grid between them holds NaNs; the
        # valid first section must not be written either
        text = (
            "[a]\nquantity = delta_phi_ideal\naxis = g\nlo = 0.5\nhi = 1\npoints = 2\n\n"
            f"[b]\nquantity = delta_phi_ideal\n{grid}points = 3\n"
        )
        proc = run_sweep_config(text, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[s]\nquantity = delta_phi_ideal\n")
        assert main(["sweep", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "quantity = qcrb\naxis = g\n",  # no [section] header
            "[s]\nquantity = qcrb\nquantity = sql\naxis = g\nlo = 0.5\nhi = 1\npoints = 2\n",
            "[s]\nquantity = qcrb\naxis = g\nlo = 0.5\nhi = 1\npoints = 2\nbeta = 1%\n",
        ],
        ids=["missing-section-header", "duplicate-key", "bad-interpolation"],
    )
    def test_malformed_config_is_a_validation_error(self, text, tmp_path):
        proc = run_sweep_config(text, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text",
        [
            "[s]\nquantity = qfi_lossy\naxis = alpha\nlo = -1\nhi = 0\npoints = 2\neta = 0.7\n",
            "[s]\nquantity = qfi_lossy\naxis = eta\nlo = 0.5\nhi = 1\npoints = 2\nalpha = 0.3\n",
        ],
        ids=["axis", "fixed"],
    )
    def test_kraus_placement_is_not_a_sweep_parameter(self, text, tmp_path):
        # no quantity reads alpha: qfi_lossy minimizes over it in closed form
        proc = run_sweep_config(text, tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert not (tmp_path / "s.csv").exists()

    def test_non_integer_nu_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "nu.cfg"
        cfg.write_text("[s]\nquantity = qcrb\naxis = g\nlo = 0.5\nhi = 1\npoints = 2\nnu = 2.7\n")
        assert main(["sweep", str(cfg), "-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: nu must be a positive integer")
        assert not (tmp_path / "s.csv").exists()

    def test_integer_nu_enters_the_bound(self, tmp_path):
        cfg = tmp_path / "nu.cfg"
        cfg.write_text("[s]\nquantity = qcrb\naxis = g\nlo = 0.5\nhi = 1\npoints = 2\nnu = 2\n")
        assert main(["sweep", str(cfg), "-o", str(tmp_path)]) == 0
        for line in (tmp_path / "s.csv").read_text().splitlines()[1:]:
            g, _, value, _ = line.split(",")
            f = QUANTITIES["qfi_lossy"](Params(g=float(g)))
            assert float(value) == pytest.approx(1.0 / math.sqrt(2.0 * f), rel=1e-12)

    @pytest.mark.parametrize("passed, finding, seconds, line", [
        (True, False, 0.0, "PASS  C1  a criterion  [3 points] (0.0s)"),
        (False, False, 12.34, "FAIL  C1  a criterion  [3 points] (12.3s)"),
        (True, True, 0.06, "FINDING  C1  a criterion  [3 points] (0.1s)"),
        (False, True, 0.0, "FAIL  C1  a criterion  [3 points] (0.0s)"),
    ])
    def test_verdict_line(self, passed, finding, seconds, line):
        result = CriterionResult("C1", "a criterion", passed, "3 points", seconds, finding=finding)
        assert result.line() == line

    def test_verify_fills_in_each_criterions_time(self, monkeypatch):
        criterion = CriterionResult("C1", "a criterion", True, "3 points")
        finding = CriterionResult("F1", "a finding", True, "", finding=True)
        monkeypatch.setattr("su11.verify.CRITERIA", [lambda: criterion])
        monkeypatch.setattr("su11.verify.FINDINGS", [lambda: finding])
        results = run_verify()
        assert [(r.cid, r.passed, r.details, r.finding) for r in results] == [
            ("C1", True, "3 points", False), ("F1", True, "", True)]
        assert all(r.seconds > 0.0 for r in results)

    @pytest.mark.parametrize(
        "criterion_passes, finding_reproduces, code",
        [(True, True, 0), (False, True, 2), (True, False, 2)],
    )
    def test_verify_exit_code_is_its_verdict(
        self, criterion_passes, finding_reproduces, code, monkeypatch, capsys
    ):
        results = [
            CriterionResult("C1", "a criterion", criterion_passes, ""),
            CriterionResult("F1", "a finding", finding_reproduces, "", finding=True),
        ]
        monkeypatch.setattr("su11.verify.run_verify", lambda: results)
        assert main(["verify"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("FINDING  F1  " if finding_reproduces else "FAIL  F1  ")
        assert lines[2:] == [
            f"{int(criterion_passes)}/1 criteria passed",
            f"{int(finding_reproduces)}/1 findings reproduced",
        ]
