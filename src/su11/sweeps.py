"""Parameter sweeps, figure-data jobs, config parsing and CSV emission.

Sweep configuration lives in flat ``key = value`` INI sections, one section
per sweep.  Sweeps and figures build their tables through one grid builder,
`_table`: it lists every cell in task order (m, then axis value, then
column) and hands them to `evaluate_grid` at once, which evaluates them in
process, one after another.  A closed-form point takes about 2 us
(sensitivity, qfi_ideal, limits, and qcrb at eta = 1) to about 0.3 ms
(qfi_lossy, and qcrb below eta = 1), so there is no worker pool and no
parallelism setting.

The figure table `FIGURES` is data: each job has an axis label, a grid
``(lo, hi, n)``, its m values and its columns.  A column (`_col`) is a
label, a quantity, the `Params` field that the axis value sets, and
overrides of the `Params` defaults, the paper's working point (g = beta = 1,
phi = 0.4).  A sweep is the one-column case.  Only fig2 has its own builder,
which shares one Fock-oracle cutoff ladder across m.

CSV output is deterministic: stable row ordering, 17-significant-digit
floats, and failed grid points carry an empty value cell plus a named error
code instead of NaNs.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from su11.errors import Su11Error
from su11.limits import limits
from su11.model import Params
from su11.qfi import qfi_ideal, qfi_lossy
from su11.sensitivity import sensitivity_ideal, sensitivity_lossy


def _oracle():
    """The Fock oracle, imported on first use: it loads numpy, which no closed form needs."""
    from su11 import fock

    return fock


QUANTITIES: Dict[str, Callable[[Params], float]] = {
    "delta_phi_ideal": lambda p: sensitivity_ideal(p).delta_phi,
    "delta_phi_lossy": lambda p: sensitivity_lossy(p).delta_phi,
    "qfi_ideal": lambda p: qfi_ideal(p).f,
    "qfi_lossy": lambda p: qfi_lossy(p).f,
    # eta = 1 reads the closed-form 4 Var(n); qfi_lossy keeps its own eta = 1 route for verify's C3
    "qcrb": lambda p: (qfi_ideal if p.eta == 1.0 else qfi_lossy)(p).qcrb,
    "sql": lambda p: limits(p).sql,
    "hl": lambda p: limits(p).hl,
    "n_t": lambda p: limits(p).n_t,
    "oracle_delta_phi_a": lambda p: _oracle().numeric_sensitivity(p, "a"),
    "oracle_delta_phi_b": lambda p: _oracle().numeric_sensitivity(p, "b"),
    "oracle_qfi": lambda p: _oracle().numeric_qfi_pure(p),
    "oracle_n_t": lambda p: _oracle().numeric_internal_photon_number(p),
}

AXES = ("g", "beta", "phi", "T1", "T2", "eta")
_FIXED_KEYS = AXES + ("nu",)


# the fields of SweepSpec, in order; its validating __new__ is on the subclass (see model.Params)
class _SweepFields(NamedTuple):
    name: str
    quantity: str
    axis: str
    lo: float
    hi: float
    n_points: int
    m_list: Tuple[int, ...]
    fixed: Tuple[Tuple[str, float], ...]


class SweepSpec(_SweepFields):
    """One linear sweep of a named quantity along one parameter axis, validated on construction."""

    __slots__ = ()

    def __new__(cls, name: str, quantity: str, axis: str, lo: float, hi: float, n_points: int,
                m_list: Tuple[int, ...] = (0,),
                fixed: Tuple[Tuple[str, float], ...] = ()) -> "SweepSpec":
        if quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {quantity!r}")
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}; choose from {AXES}")
        if n_points < 2:
            raise ValueError("n_points must be >= 2")
        if not m_list:
            raise ValueError("m_list must not be empty")
        for key, _ in fixed:
            if key not in _FIXED_KEYS:
                raise ValueError(f"unknown parameter override {key!r}")
        # an infinite end or a span that overflows puts NaNs on the grid
        if not math.isfinite(hi - lo):
            raise ValueError(f"sweep span from lo = {lo} to hi = {hi} is not finite")
        self = tuple.__new__(cls, (name, quantity, axis, lo, hi, n_points, m_list, fixed))
        # every grid point at every m through Params validation, so a sweep that parses runs
        for m in m_list:
            for x in self.grid():
                self.params_at(x, m)
        return self

    def params_at(self, x: float, m: int) -> Params:
        kw = dict(self.fixed)
        nu = kw.pop("nu", 1)
        if not float(nu).is_integer():
            raise ValueError(f"nu must be a positive integer, got {nu}")
        kw[self.axis] = x
        return Params(m=m, nu=int(nu), **kw)

    def grid(self) -> List[float]:
        return _lin(self.lo, self.hi, self.n_points)


# -- config files --------------------------------------------------------------


def parse_config(text: str) -> List[SweepSpec]:
    # imported here: only `su11 sweep` reads a config file
    import configparser

    cp = configparser.ConfigParser()
    cp.optionxform = str  # parameter names are case-sensitive (T1, T2)
    try:
        cp.read_string(text)
        sections = {section: dict(cp.items(section)) for section in cp.sections()}
    except configparser.Error as err:
        raise ValueError(f"malformed config: {err}") from None
    specs = []
    for section, opts in sections.items():
        # each section is written to <output dir>/<section>.csv
        if section in ("", ".", "..") or "/" in section or os.sep in section:
            raise ValueError(f"section name [{section}] is not a file name")
        try:
            quantity = opts.pop("quantity")
            axis = opts.pop("axis")
            lo = float(opts.pop("lo"))
            hi = float(opts.pop("hi"))
            n_points = int(opts.pop("points"))
            m_list = tuple(int(tok) for tok in opts.pop("m", "0").split(","))
        except KeyError as err:
            raise ValueError(f"section [{section}] is missing key {err}") from None
        fixed = tuple(sorted((k, float(v)) for k, v in opts.items()))
        specs.append(
            SweepSpec(
                name=section,
                quantity=quantity,
                axis=axis,
                lo=lo,
                hi=hi,
                n_points=n_points,
                m_list=m_list,
                fixed=fixed,
            )
        )
    return specs


# -- evaluation ----------------------------------------------------------------


def format_float(x: float) -> str:
    return format(x, ".17g")


def _error_code(err: Exception) -> str:
    name = type(err).__name__
    return name[:-5] if name.endswith("Error") else name


def _eval_task(task: Tuple[str, Params]) -> Tuple[str, str]:
    """Evaluate one (quantity, params) point; singular points become codes."""
    quantity, p = task
    try:
        return format_float(QUANTITIES[quantity](p)), ""
    except Su11Error as err:
        return "", _error_code(err)


def evaluate_grid(tasks: List[Tuple[str, Params]]) -> List[Tuple[str, str]]:
    """Evaluate tasks in process, in task order."""
    return [_eval_task(t) for t in tasks]


Table = Tuple[List[str], List[List[str]]]
# (label, quantity, to_params(x, m)) of one table column
Column = Tuple[str, str, Callable[[float, int], Params]]


def _table(
    xs: List[float], m_list: Tuple[int, ...], columns: Sequence[Column], header: List[str]
) -> Table:
    """Every cell in one grid, in task order (m, then axis value, then column).

    A row holds the axis value, m, and a value and an error code per column.
    """
    tasks = [(q, to_params(x, m)) for m in m_list for x in xs for _, q, to_params in columns]
    cells = iter(evaluate_grid(tasks))
    rows = [
        [format_float(x), str(m)] + [v for _ in columns for v in next(cells)]
        for m in m_list
        for x in xs
    ]
    return header, rows


def run_sweep(spec: SweepSpec) -> Table:
    """One row per grid point per m: axis value, m, quantity value, error code."""
    column = (spec.quantity, spec.quantity, spec.params_at)
    return _table(spec.grid(), spec.m_list, [column], [spec.axis, "m", spec.quantity, "error"])


def to_csv(table: Table) -> str:
    header, rows = table
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# -- figure-data jobs -----------------------------------------------------------


class _FigureJobFields(NamedTuple):
    figure_id: str


class FigureJob(_FigureJobFields):
    """One figure job of `FIGURES`, validated on construction."""

    __slots__ = ()

    def __new__(cls, figure_id: str) -> "FigureJob":
        if figure_id not in FIGURES:
            raise ValueError(f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}")
        return tuple.__new__(cls, (figure_id,))


class _FigureDef(NamedTuple):
    axis: str
    grid: Tuple[float, float, int]
    m_list: Tuple[int, ...]
    columns: Tuple[Column, ...]
    builder: Callable[["_FigureDef"], Table] = None


def _lin(lo: float, hi: float, n: int) -> List[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _col(label: str, quantity: str, param: str, **overrides) -> Column:
    """A figure column: `Params` with `overrides`, the axis value on `param`."""
    return label, quantity, lambda x, m: Params(m=m, **{param: x}, **overrides)


def _figure_header(fig: _FigureDef) -> List[str]:
    """Axis, m, then a value and an error column per declared column label."""
    header = [fig.axis, "m"]
    for label, _, _ in fig.columns:
        header.extend([label, f"{label}_error"])
    return header


def _build_fig2(fig: _FigureDef) -> Table:
    """Mode-a analytic plus mode-b oracle columns, sharing oracle pipelines.

    All m values reuse one pre-subtraction pipeline per phase point.  The
    cutoff the oracle accepts does not grow monotonically with phi: for phi
    = 0.05 .. 1.13 it is 114, 114, 114, 89, 89, 89, 89, 114, 114, 146, 188,
    188.  But from the first phase point whose ladder is exhausted (phi ~
    1.23) on, every later point fails the ladder on its own as well (a test
    runs each), so they are marked unconverged without re-climbing.
    """
    xs = _lin(*fig.grid)
    m_list = list(fig.m_list)
    rows_by_key = {}
    ladder_dead = False
    for x in xs:
        p = Params(g=1.0, beta=1.0, phi=x)
        oracle, code_b = {}, ""
        if ladder_dead:
            code_b = "Convergence"
        else:
            try:
                res = _oracle().numeric_moments_multi(p, m_list, mode="b")
                oracle = {m: format_float(res[m]["delta_phi"]) for m in m_list}
            except Su11Error as err:
                code_b = _error_code(err)
                ladder_dead = code_b == "Convergence"
        for m in m_list:
            cell_a = _eval_task(("delta_phi_ideal", p.replace(m=m)))
            rows_by_key[(m, x)] = [format_float(x), str(m), *cell_a, oracle.get(m, ""), code_b]
    rows = [rows_by_key[(m, x)] for m in m_list for x in xs]
    return _figure_header(fig), rows


_M = (0, 1, 2, 3)
_BETA_GRID = (0.0, 3.0, 61)
_G_GRID = (0.0, 2.0, 41)
_T_GRID = (0.4, 1.0, 61)

FIGURES: Dict[str, _FigureDef] = {
    "fig2": _FigureDef("phi", (0.05, 3.10, 32), _M, (
        _col("delta_phi_a", "delta_phi_ideal", "phi"),
        _col("delta_phi_b_oracle", "oracle_delta_phi_b", "phi"),
    ), builder=_build_fig2),
    "fig3a": _FigureDef("beta", _BETA_GRID, _M, (_col("delta_phi", "delta_phi_ideal", "beta"),)),
    "fig3b": _FigureDef("g", _G_GRID, _M, (_col("delta_phi", "delta_phi_ideal", "g"),)),
    "fig5": _FigureDef("T", (0.3, 1.0, 71), _M, (
        _col("delta_phi_internal", "delta_phi_lossy", "T1"),
        _col("delta_phi_external", "delta_phi_lossy", "T2"),
    )),
    "fig7a": _FigureDef("beta", _BETA_GRID, _M, (_col("qfi", "qfi_ideal", "beta"),)),
    "fig7b": _FigureDef("g", _G_GRID, _M, (_col("qfi", "qfi_ideal", "g"),)),
    "fig8a": _FigureDef("beta", (0.2, 3.0, 57), _M, (
        _col("delta_phi", "delta_phi_ideal", "beta"),
        _col("qcrb", "qcrb", "beta"),
    )),
    "fig8b": _FigureDef("g", (0.1, 2.0, 39), _M, (
        _col("delta_phi", "delta_phi_ideal", "g"),
        _col("qcrb", "qcrb", "g"),
    )),
    "fig10": _FigureDef("T", _T_GRID, _M, (_col("qfi_lossy", "qfi_lossy", "eta"),)),
    "fig11a": _FigureDef("beta", _BETA_GRID, _M, (
        _col("qfi_ideal", "qfi_ideal", "beta"),
        _col("qfi_lossy_T0.7", "qfi_lossy", "beta", eta=0.7),
    )),
    "fig11b": _FigureDef("g", _G_GRID, _M, (
        _col("qfi_ideal", "qfi_ideal", "g"),
        _col("qfi_lossy_T0.7", "qfi_lossy", "g", eta=0.7),
    )),
    "fig12": _FigureDef("T", _T_GRID, _M, (_col("n_t", "n_t", "T1"),)),
}
# fig13a..d: one curve family at each single m
_FIG13_COLUMNS = (
    _col("delta_phi_lossy", "delta_phi_lossy", "T1"),
    _col("sql", "sql", "T1"),
    _col("hl", "hl", "T1"),
    _col("qcrb", "qcrb", "eta"),
)
FIGURES.update(
    (f"fig13{c}", _FigureDef("T", _T_GRID, (m,), _FIG13_COLUMNS)) for m, c in zip(_M, "abcd")
)


def run_figure(job: FigureJob) -> Table:
    """Emit the sweep table underlying one published figure."""
    fig = FIGURES[job.figure_id]
    if fig.builder is not None:
        return fig.builder(fig)
    return _table(_lin(*fig.grid), fig.m_list, fig.columns, _figure_header(fig))
