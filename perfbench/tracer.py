"""In-memory span recorder that instruments su11 from the benchmark's side.

Each instrumented function is replaced, in the namespace where its callers
look it up, by a wrapper that records one span: name, start, end, parent span
and cell id.  Spans opened inside one cell (a calculator or oracle entry
point called with no cell already open) share that cell's id.  Spans stay in
memory in flat arrays; `save` writes them out once the pass is over and
`restore` puts every original back.

Hooks that count work (nonzero terms of a product, cache membership) run
outside the wrapped call, and their time is taken off every enclosing span,
so counting inflates no layer's busy or self time; it shows only in the
traced pass's wall time.

A target that no longer exists raises TraceTargetError: a layer that a
change removes or renames must be re-instrumented, not read as zero calls.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

CALCULATORS = {
    "sensitivity_ideal": "sensitivity",
    "sensitivity_lossy": "sensitivity",
    "qfi_ideal": "qfi.ideal",
    "qfi_lossy": "qfi.lossy",
    "limits": "limits",
}
# where each calculator is looked up by its callers
CALCULATOR_OWNERS = {
    "sweeps": tuple(CALCULATORS),
    "sensitivity": ("sensitivity_ideal", "sensitivity_lossy"),
    "qfi": ("qfi_ideal", "qfi_lossy"),
    "limits": ("limits",),
}
ORACLE_ENTRY_POINTS = (
    "numeric_moments_multi",
    "numeric_sensitivity",
    "numeric_qfi_pure",
    "numeric_cq",
    "numeric_internal_photon_number",
)


class TraceTargetError(RuntimeError):
    """An instrumented function or structure is missing from su11."""


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.outer = array("b")  # 1 when no span of the same name encloses it
        self.start = array("d")
        self.end = array("d")
        self.hook = array("d")  # hook time inside the span, taken off its duration
        self.counts: dict[str, float] = defaultdict(float)
        self.accepted_n_cut: list[int] = []
        self.context = ""
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self._cell_depth = 0
        self._cell_id = -1
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] += amount

    def _run_hook(self, hook, *args) -> None:
        t0 = time.perf_counter()
        hook(*args)
        if self._stack:
            self.hook[self._stack[-1]] += time.perf_counter() - t0

    def wrap(self, name, fn, cell=False, before=None, after=None):
        """`fn` recording a span per call, with hooks before and after it."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if before is not None:
                self._run_hook(before, args)
            if cell:
                if self._cell_depth == 0:
                    self._cell_id += 1
                self._cell_depth += 1
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.cell.append(self._cell_id)
            self.outer.append(self._depth[nid] == 0)
            self.end.append(0.0)
            self.hook.append(0.0)
            self._depth[nid] += 1
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self.hook[self._stack[-1]] += self.hook[idx]
                self._depth[nid] -= 1
                if cell:
                    self._cell_depth -= 1
            if after is not None:
                self._run_hook(after, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(owner, type):
            original = vars(owner).get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            raise TraceTargetError(f"trace target {label} not found")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            cell=np.frombuffer(self.cell, np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            hook=np.frombuffer(self.hook),
        )


def _nonzero_terms(series) -> int:
    return int(np.count_nonzero((series.val != 0) | (series.dph != 0)))


def instrument(rec: Recorder) -> None:
    """Patch every layer boundary the per-layer metrics need, or none of them."""
    try:
        _instrument(rec)
    except TraceTargetError:
        rec.restore()
        raise


def _instrument(rec: Recorder) -> None:
    mod = {
        n: importlib.import_module(f"su11.{n}")
        for n in ("sweeps", "sensitivity", "qfi", "limits", "model", "series", "fock", "errors")
    }
    errors, fock = mod["errors"], mod["fock"]

    sw = mod["sweeps"]
    rec.patch(sw, "run_figure", "sweeps.run_figure")
    rec.patch(sw, "evaluate_grid", "sweeps.evaluate_grid",
              before=lambda a: rec.add("sweeps.tasks", len(a[0])))
    rec.patch(sw, "to_csv", "sweeps.to_csv")
    for owner, attrs in CALCULATOR_OWNERS.items():
        for attr in attrs:
            rec.patch(mod[owner], attr, CALCULATORS[attr], cell=True)
    for owner in ("sensitivity", "qfi", "limits"):
        rec.patch(mod[owner], "kernels", "model.kernels")

    kernel_set = _required(mod["model"], "KernelSet")
    exponents = [a for a in vars(kernel_set) if a.startswith("exponent") or a == "x_polys"]
    if not exponents:
        raise TraceTargetError("trace target su11.model.KernelSet.exponent* not found")
    for attr in exponents:
        rec.patch(kernel_set, attr, "model.exponent")

    series = _required(mod["series"], "MultiSeries")

    def count_mul(args):
        a, b = args
        sparse = min(_nonzero_terms(a), _nonzero_terms(b)) if isinstance(b, series) else 1
        rec.add("series.mul.ops_computed", sparse * a.val.size)

    rec.patch(series, "exp", "series.exp")
    rec.patch(series, "extract", "series.extract")
    for attr in ("__mul__", "__rmul__"):
        rec.patch(series, attr, "series.mul", before=count_mul)

    for attr in ORACLE_ENTRY_POINTS:
        rec.patch(fock, attr, "fock.numeric", cell=True)
    _instrument_ladder(rec, fock, errors)

    cache = _required(fock, "_TMS_BLOCK_CACHE")

    def tms_key(args):
        x, g, theta = args[:3]
        return (float(g), float(theta), int(x.amps.shape[-1]))

    def tms_lookup(args):
        # read-only membership test of the block cache, before the call fills it
        if args[1] != 0.0:
            rec.add(f"tms.lookups.{rec.context}")
            if tms_key(args) in cache:
                rec.add(f"tms.hits.{rec.context}")

    def state_bytes(args, out):
        rec.add("fock.state_bytes_computed", out.amps.nbytes)

    def tms_out(args, out):
        # the call leaves its blocks in the cache; if not, the key has changed
        # and every lookup above would read as a miss
        if args[1] != 0.0 and tms_key(args) not in cache:
            raise TraceTargetError("fock._TMS_BLOCK_CACHE keys are no longer (g, theta, n_cut + 1)")
        state_bytes(args, out)

    def loss_out(args, out):
        rec.add("fock.loss_branches", out.amps.shape[0])
        state_bytes(args, out)

    rec.patch(fock, "apply_tms", "fock.apply_tms", before=tms_lookup, after=tms_out)
    rec.patch(fock, "apply_loss", "fock.apply_loss", after=loss_out)
    rec.patch(fock, "subtract_photons", "fock.subtract_photons", after=state_bytes)


def _instrument_ladder(rec: Recorder, fock, errors) -> None:
    """converged_value: count the rungs it evaluates and the cutoff it accepts."""
    original = _required(fock, "converged_value")

    def ladder(fn, *args, **kwargs):
        last = []

        def rung(n):
            rec.add("fock.ladder_rungs")
            last.append(n)
            try:
                return fn(n)
            except errors.LeakageError:
                rec.add("fock.leakage_retries")
                raise

        try:
            out = original(rung, *args, **kwargs)
        except errors.ConvergenceError:
            rec.add("fock.convergence_failures")
            raise
        rec.accepted_n_cut.append(last[-1])
        return out

    rec._patches.append((fock, "converged_value", original))
    fock.converged_value = rec.wrap("fock.converged_value", ladder)


def _required(owner, attr: str):
    value = getattr(owner, attr, None)
    if value is None:
        raise TraceTargetError(f"trace target {owner.__name__}.{attr} not found")
    return value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the base of every ratio."""
    nid = np.frombuffer(rec.name, np.int32)
    parent = np.frombuffer(rec.parent, np.int32)
    outer = np.frombuffer(rec.outer, np.int8).astype(bool)
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start) - np.frombuffer(rec.hook)
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])

    def select(name):
        return nid == rec._name_ids[name] if name in rec._name_ids else np.zeros(len(dur), bool)

    def calls(name):
        return int(np.count_nonzero(select(name)))

    def busy(name):
        return float(dur[select(name) & outer].sum())

    def self_time(name):
        sel = select(name)
        return float((dur[sel] - child[sel]).sum())

    c = rec.counts
    m = {}
    m["sweeps.evaluate_grid.busy_s"] = busy("sweeps.evaluate_grid")
    m["sweeps.tasks"] = int(c["sweeps.tasks"])
    m["sweeps.to_csv.busy_s"] = busy("sweeps.to_csv")
    m["sensitivity.calls"] = calls("sensitivity")
    m["sensitivity.busy_s"] = busy("sensitivity")
    m["qfi.ideal.calls"] = calls("qfi.ideal")
    m["qfi.ideal.busy_s"] = busy("qfi.ideal")
    m["qfi.lossy.calls"] = calls("qfi.lossy")
    m["qfi.lossy.busy_s"] = busy("qfi.lossy")
    m["qfi.lossy.self_s"] = self_time("qfi.lossy")
    m["limits.calls"] = calls("limits")
    m["limits.busy_s"] = busy("limits")
    for layer in ("model.kernels", "model.exponent", "series.exp", "series.mul"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.busy_s"] = busy(layer)
    m["series.extract.calls"] = calls("series.extract")
    m["series.mul.ops_computed"] = int(c["series.mul.ops_computed"])

    accepted = rec.accepted_n_cut
    rungs = int(c["fock.ladder_rungs"])
    m["fock.converged_value.calls"] = calls("fock.converged_value")
    m["fock.converged_value.busy_s"] = busy("fock.converged_value")
    m["fock.ladder_rungs"] = rungs
    m["fock.useful_rung_ratio"] = _ratio(2 * len(accepted), rungs)
    m["fock.accepted_n_cut_p50"] = float(statistics.median(accepted)) if accepted else 0.0
    m["fock.accepted_n_cut_max"] = max(accepted, default=0)
    m["fock.convergence_failures"] = int(c["fock.convergence_failures"])
    m["fock.leakage_retries"] = int(c["fock.leakage_retries"])
    m["fock.apply_tms.calls"] = calls("fock.apply_tms")
    m["fock.apply_tms.busy_s"] = busy("fock.apply_tms")
    bases = {
        "fock.useful_rung_ratio": {"numerator": 2 * len(accepted), "denominator": rungs},
    }
    contexts = {k.split(".", 2)[2] for k in c if k.startswith("tms.lookups.")}
    lookups = sum(c[f"tms.lookups.{k}"] for k in contexts)
    hits = sum(c[f"tms.hits.{k}"] for k in contexts)
    m["fock.tms_cache_hit_ratio"] = _ratio(hits, lookups)
    bases["fock.tms_cache_hit_ratio"] = {"hits": int(hits), "lookups": int(lookups)}
    for kind in ("phi_sweep", "g_sweep"):
        key = f"fock.tms_cache_hit_ratio.{kind}"
        m[key] = _ratio(c[f"tms.hits.{kind}"], c[f"tms.lookups.{kind}"])
        bases[key] = {"hits": int(c[f"tms.hits.{kind}"]), "lookups": int(c[f"tms.lookups.{kind}"])}
    m["fock.apply_loss.busy_s"] = busy("fock.apply_loss")
    m["fock.loss_branches"] = int(c["fock.loss_branches"])
    m["fock.subtract_photons.busy_s"] = busy("fock.subtract_photons")
    m["fock.state_bytes_computed"] = int(c["fock.state_bytes_computed"])
    m["trace.spans"] = len(dur)
    m["trace.cells"] = rec._cell_id + 1
    return m, bases
