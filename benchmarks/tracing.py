"""Spans around the calls into each fracorlicz layer, recorded from outside.

A Tracer replaces a name with a timing wrapper where its caller looks it
up: `solver` imports `operator_apply` and `seminorm_modular` by name, so
those are wrapped in the solver module's namespace; `inequalities` imports
`batch_luxemburg` by name; methods are wrapped on their class; suites in the
SUITES dict that `run_suite` indexes.  Every span is (name, start, end,
parent, work) and lives in memory until the run writes it out.  Nothing in
the package itself is edited.

`checks_only=True` wraps just the two solver entry points whose results the
correctness checks read; that costs one wrapper call per solve and per
epsilon stage, so it stays on in the untraced runs.
"""

from __future__ import annotations

import csv
import time
from typing import Callable, Dict, List, Optional

import numpy as np

import fracorlicz.cli as cli
import fracorlicz.inequalities as inequalities
import fracorlicz.nfunctions as nfunctions
import fracorlicz.solver as solver

# Suite timings reported on their own; the remaining suites are "pointwise".
HEAVY_SUITES = ("holder", "seminorm_sandwich", "modular_norm_sandwich", "diaz_saa")
LAYERS = ("solver", "grid", "nfunctions", "inequalities", "config")


def _mesh_pairs(mesh) -> int:
    return mesh.n * mesh.n


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent, work, result_info]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, original: Callable, name: str, work: Optional[Callable],
                 on_result: Optional[Callable], swap_args: Optional[Callable]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    work(args, kwargs) if work else 0, None]
            spans.append(span)
            if swap_args is not None:
                args, kwargs = swap_args(span, args, kwargs)
            stack.append(sid)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                span[5] = on_result(result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_attr(self, owner, attr: str, name: str, work=None, on_result=None,
                  swap_args=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(original, name, work, on_result, swap_args))
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap_item(self, mapping: dict, key: str, name: str):
        original = mapping[key]
        mapping[key] = self._wrapper(original, name, None, None, None)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self):
        while self._undo:
            self._undo.pop()()

    # -- what gets wrapped ---------------------------------------------------

    def install(self, checks_only: bool = False):
        stage_info = lambda r: (r.iterations, len(r.energy_trace), r.residual_inf)
        solve_info = lambda r: r.residual_inf
        for owner in (cli, solver):
            self.wrap_attr(owner, "solve_singular", "solver.solve_singular",
                           on_result=solve_info)
        self.wrap_attr(solver, "minimize_energy", "solver.minimize_energy",
                       on_result=stage_info)
        if checks_only:
            return

        for fn in ("comparison_experiment", "uniqueness_experiment", "symmetry_experiment"):
            self.wrap_attr(cli, fn, f"solver.{fn}")
        self.wrap_attr(solver, "energy", "solver.energy")
        self.wrap_attr(solver, "weak_residual", "solver.weak_residual")

        self.wrap_attr(solver, "seminorm_modular", "grid.seminorm_modular",
                       work=lambda a, k: _mesh_pairs(a[0].mesh))
        self.wrap_attr(solver, "operator_apply", "grid.operator_apply",
                       work=lambda a, k: _mesh_pairs(a[2]))
        self.wrap_attr(inequalities, "operator_apply_batch", "grid.operator_apply_batch",
                       work=lambda a, k: int(np.shape(a[0])[0]) * _mesh_pairs(a[2]))
        self.wrap_attr(solver, "luxemburg_norm", "grid.luxemburg_norm",
                       work=lambda a, k: 1, swap_args=_count_level_evals(1))
        self.wrap_attr(inequalities, "batch_luxemburg", "grid.batch_luxemburg",
                       work=lambda a, k: int(np.shape(a[0])[0]),
                       swap_args=_count_level_evals(2))

        self.wrap_attr(nfunctions.NFunction, "__call__", "nfunctions.G",
                       work=lambda a, k: int(np.size(a[1])))
        self.wrap_attr(nfunctions.NFunction, "deriv", "nfunctions.g",
                       work=lambda a, k: int(np.size(a[1])))
        self.wrap_attr(nfunctions.LogLogTable, "__call__", "nfunctions.table",
                       work=lambda a, k: int(np.size(a[1])))
        for owner in (inequalities, solver):
            self.wrap_attr(owner, "complementary", "nfunctions.complementary")

        for suite in list(inequalities.SUITES):
            self.wrap_item(inequalities.SUITES, suite, f"inequalities.{suite}")

        for fn in ("load_config", "config_digest", "build_solver_settings", "build_mesh",
                   "build_nfunction", "build_problem", "coefficient_field"):
            self.wrap_attr(cli, fn, f"config.{fn}")

    # -- reading the spans ---------------------------------------------------

    def _results(self, name: str) -> list:
        # a call that raised has no result; its command fails on the exception
        return [s[5] for s in self.spans if s[0] == name and s[5] is not None]

    def stage_results(self) -> List[tuple]:
        return self._results("solver.minimize_energy")

    def solve_residuals(self) -> List[float]:
        return self._results("solver.solve_singular")

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start", "end", "work"])
            for i, (name, start, end, parent, work, _) in enumerate(self.spans):
                out.writerow([i, parent, name, repr(start), repr(end), work])

    def layer_metrics(self) -> Dict[str, float]:
        return layer_metrics(self.spans)


def _count_level_evals(position: int):
    """Replace the modular callable at args[position] by a counting proxy."""

    def swap(span, args, kwargs):
        inner = args[position]
        span[4] = [span[4], 0]

        def counted(*a, **k):
            span[4][1] += 1
            return inner(*a, **k)

        return args[:position] + (counted,) + args[position + 1:], kwargs

    return swap


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer counts and times from the spans of one workload repetition."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def outermost(prefixes) -> List[int]:
        """Spans in the group with no ancestor in the same group."""
        picked = []
        for i, s in enumerate(spans):
            if not s[0].startswith(prefixes):
                continue
            p = s[3]
            while p >= 0 and not spans[p][0].startswith(prefixes):
                p = spans[p][3]
            if p < 0:
                picked.append(i)
        return picked

    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    ids = lambda name: by_name.get(name, [])
    total = lambda idx: float(sum(dur[i] for i in idx))
    work = lambda idx: sum(spans[i][4] for i in idx)
    mean_ms = lambda idx: 1e3 * total(idx) / len(idx) if idx else 0.0

    stages = [spans[i][5] for i in ids("solver.minimize_energy")]
    iterations = sum(st[0] for st in stages)
    accepted = sum(st[1] - 1 for st in stages)
    energy_ids = ids("solver.energy")
    # every stage evaluates the energy once at its start; the rest are trials
    trials = sum(1 for i in energy_ids
                 if spans[i][3] >= 0 and spans[spans[i][3]][0] == "solver.minimize_energy")
    trials -= len(stages)
    loop = ids("solver.minimize_energy")
    kernel = ids("grid.seminorm_modular") + ids("grid.operator_apply")
    lux = ids("grid.batch_luxemburg") + ids("grid.luxemburg_norm")
    suites = {name[len("inequalities."):]: total(idx)
              for name, idx in by_name.items() if name.startswith("inequalities.")}

    m = {
        "solver.stages": len(stages),
        "solver.iterations": iterations,
        "solver.energy_calls": len(energy_ids),
        "solver.residual_calls": len(ids("solver.weak_residual")),
        "solver.backtracks": trials - accepted,
        "solver.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "solver.loop_self_s": float(sum(dur[i] - child_time[i] for i in loop)),
        "solver.ms_per_iteration": 1e3 * total(loop) / iterations if iterations else 0.0,
        "grid.energy_ms": mean_ms(ids("grid.seminorm_modular")),
        "grid.residual_ms": mean_ms(ids("grid.operator_apply")),
        "grid.pair_evals": work(kernel),
        "grid.kernel_s": total(kernel),
        "grid.luxemburg_calls": len(lux),
        "grid.luxemburg_rows": sum(spans[i][4][0] for i in lux),
        "grid.luxemburg_level_evals": sum(spans[i][4][1] for i in lux),
        "grid.luxemburg_s": total(lux),
        "grid.operator_batch_s": total(ids("grid.operator_apply_batch")),
        "nfunctions.G_evals": work(ids("nfunctions.G")),
        "nfunctions.g_evals": work(ids("nfunctions.g")),
        "nfunctions.eval_s": total(outermost(("nfunctions.G", "nfunctions.g"))),
        "nfunctions.table_evals": work(ids("nfunctions.table")),
        "nfunctions.table_s": total(outermost(("nfunctions.table",))),
        "nfunctions.conjugate_builds": len(ids("nfunctions.complementary")),
        "nfunctions.conjugate_build_s": total(outermost(("nfunctions.complementary",))),
        "config.build_s": total(outermost(("config.",))),
    }
    for suite in HEAVY_SUITES:
        m[f"inequalities.{suite}_s"] = suites.get(suite, 0.0)
    m["inequalities.pointwise_s"] = float(sum(
        t for name, t in suites.items() if name not in HEAVY_SUITES))
    for layer in LAYERS:
        prefix = layer + "."
        m[f"{layer}.self_s"] = float(sum(
            dur[i] - child_time[i] for i, s in enumerate(spans) if s[0].startswith(prefix)))
    m["trace.spans"] = n
    return m
