"""The names the benchmark's traced mode wraps still exist and come back.

benchmarks/tracing.py times each layer by replacing package functions and
methods with wrappers where their callers look them up, so renaming one of
them (NFunction.__call__, solver.energy, inequalities.operator_apply_batch,
...) breaks `run.py --trace 1`.  This installs the full tracer against the
package and checks each wrap and its undo.
"""

from pathlib import Path

import fracorlicz.cli as cli
import fracorlicz.inequalities as inequalities
import fracorlicz.nfunctions as nfunctions
import fracorlicz.solver as solver

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _namespaces():
    """Every mapping the tracer may write a wrapper into, by a short name."""
    return {"cli": vars(cli), "solver": vars(solver), "inequalities": vars(inequalities),
            "NFunction": vars(nfunctions.NFunction),
            "LogLogTable": vars(nfunctions.LogLogTable), "SUITES": inequalities.SUITES}


def test_traced_mode_wraps_package_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    before = {name: dict(ns) for name, ns in _namespaces().items()}
    tracer = tracing.Tracer()
    try:
        tracer.install(checks_only=False)
        during = _namespaces()
        wrapped = {(name, key) for name, ns in before.items()
                   for key, value in ns.items() if during[name][key] is not value}
        for name, key in wrapped:
            assert during[name][key].__wrapped__ is before[name][key]
        assert {("NFunction", "__call__"), ("NFunction", "deriv"),
                ("LogLogTable", "__call__"), ("solver", "energy"),
                ("solver", "weak_residual"), ("solver", "operator_apply"),
                ("solver", "seminorm_modular"), ("solver", "minimize_energy"),
                ("cli", "solve_singular"), ("inequalities", "operator_apply_batch"),
                ("inequalities", "batch_luxemburg"), ("SUITES", "diaz_saa")} <= wrapped
    finally:
        tracer.restore()
    after = _namespaces()
    for name, ns in before.items():
        assert set(after[name]) == set(ns)
        assert all(after[name][key] is value for key, value in ns.items())
