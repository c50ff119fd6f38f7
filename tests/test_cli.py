"""Tests for sweep specs, config round-trips, CSV output and the CLI."""

import math

import pytest

from su11.cli import main
from su11.model import Params
from su11.sweeps import (
    FIGURES,
    FigureJob,
    SweepSpec,
    _eval_task,
    parse_config,
    run_figure,
    run_sweep,
    serialize_config,
    to_csv,
)

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
            # float overflow: nan / inf / 0 used to reach the CSV
            ("delta_phi_lossy", dict(g=12.0, m=15)),
            ("n_t", dict(g=12.0, m=15)),
            ("sql", dict(g=12.0, m=15)),
            ("qfi_ideal", dict(g=12.0, m=15)),
            # roundoff near phi = 2 pi k used to raise untyped errors
            ("qfi_ideal", dict(phi=1e-9, m=3)),
            ("qfi_ideal", dict(phi=2 * math.pi, m=1)),
            ("qcrb", dict(phi=2 * math.pi, m=1)),
        ],
        ids=["dphi-g12", "nt-g12", "sql-g12", "qfi-g12", "qfi-phi1e-9", "qfi-2pi", "qcrb-2pi"],
    )
    def test_overflow_and_roundoff_cells_carry_numerical_code(self, quantity, params):
        assert _eval_task((quantity, Params(**params))) == ("", "Numerical")

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

    def test_parallel_cap_respected(self, monkeypatch):
        spec = parse_config(EXAMPLE_CONFIG)[0]
        monkeypatch.setenv("SU11_THREADS", "1")
        serial = to_csv(run_sweep(spec))
        monkeypatch.setenv("SU11_THREADS", "2")
        capped = to_csv(run_sweep(spec))
        assert serial == capped


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

    def test_sweep_missing_file(self, tmp_path):
        assert main(["sweep", str(tmp_path / "absent.cfg")]) == 1

    def test_sweep_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[s]\nquantity = delta_phi_ideal\n")
        assert main(["sweep", str(cfg)]) == 1
