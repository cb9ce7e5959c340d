"""One fresh process of the benchmark: set up, or run a workload's commands.

    python3 benchmarks/child.py PLAN.json

PLAN.json (written by run.py) names the package source directory, the mode
("setup" or "run"), whether to trace, and the commands with their config
files and output directories.  In "run" mode every command goes through
`fracorlicz.cli.main`; a command that raises, exits non-zero or fails a
check is recorded as failed, never re-raised.  The outcome is written to
the plan's result path as JSON.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

TORSION_GATE = 0.05
HASHED = ("solution*.txt", "verify_report.csv", "witness_*.txt")


def _import_package(src: Path):
    sys.path.insert(0, str(src))
    import fracorlicz
    import fracorlicz.cli
    where = Path(fracorlicz.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"fracorlicz imported from {where}, not from {src}")
    return fracorlicz.cli


def setup(cli, command: dict):
    """What a command does before its first solve or sweep: parse and build."""
    parser = cli.load_config(command["config"])
    cli.config_digest(parser)
    cli.build_solver_settings(parser, command["seed"])
    if command["command"] != "verify":
        base = Path(command["config"]).parent
        mesh = cli.build_mesh(parser)
        G = cli.build_nfunction(parser, base)
        cli.build_problem(parser, mesh, G, base)


def _manifest(out: Path) -> dict:
    fields = {}
    path = out / "manifest.txt"
    if path.is_file():
        for line in path.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition("=")
            fields.setdefault(key, value)
    return fields


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    files = sorted({p for pattern in HASHED for p in out.glob(pattern)})
    for p in files:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return f"{len(files)}:{h.hexdigest()}"


def check(command: dict, code: int, out: Path, residuals: list) -> tuple:
    """Correctness checks of one command; returns (problems, extra facts)."""
    problems, facts = [], {}
    if code != 0:
        problems.append(f"exit code {code}")
    manifest = _manifest(out)
    bad = [r for r in residuals if not r < command["tol"]]
    if bad:
        problems.append(f"{len(bad)} solve(s) ended with residual_inf >= tol: {bad}")
    kind = command["command"]
    if kind == "solve":
        if not residuals:
            problems.append("no solve ran")
        if "residual_inf" in manifest and not float(manifest["residual_inf"]) < command["tol"]:
            problems.append(f"manifest residual_inf={manifest['residual_inf']}")
        if command["torsion"]:
            err = float(manifest.get("torsion_l2_error", "nan"))
            facts["torsion_l2_err"] = err
            if not err < TORSION_GATE:
                problems.append(f"torsion_l2_err={err} not below {TORSION_GATE}")
    elif kind == "verify":
        verdict = manifest.get("verdict", "")
        if verdict != "PASS":
            problems.append(f"verdict={verdict or 'missing'}")
        report = out / "verify_report.csv"
        lines = report.read_text(encoding="utf-8").splitlines()[1:] if report.is_file() else []
        # name,samples,violations,min_gap,witness -- names may hold commas
        rows = [line.rsplit(",", 4) for line in lines]
        violations = sum(int(r[2]) for r in rows)
        facts["samples"] = sum(int(r[1]) for r in rows)
        if not rows or violations:
            problems.append(f"{len(rows)} report rows, {violations} violations")
    else:
        verdict = manifest.get("verdict", "").split(" ")[0]
        if verdict != "PASS":
            problems.append(f"verdict={verdict or 'missing'}")
    return problems, facts


def run(cli, plan: dict) -> dict:
    import numpy
    import scipy
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(checks_only=not plan["trace"])
    commands = []
    for command in plan["commands"]:
        out = Path(command["out"])
        argv = [command["command"], "--config", command["config"],
                "--seed", str(command["seed"]), "--out", str(out), "--quiet"]
        first_solve = len(tracer.solve_residuals())
        first_stage = len(tracer.stage_results())
        started = time.perf_counter()
        try:
            code = cli.main(argv)
            crash = None
        except Exception:  # the harness must count a crash, not die of it
            code, crash = -1, traceback.format_exc(limit=4)
        seconds = time.perf_counter() - started
        residuals = tracer.solve_residuals()[first_solve:]
        stages = tracer.stage_results()[first_stage:]
        problems, facts = check(command, code, out, residuals)
        if crash:
            problems.append(crash)
        commands.append({
            "name": command["name"], "exit": code, "seconds": seconds,
            "problems": problems, "digest": _digest(out),
            "solves": len(residuals), "stages": len(stages),
            "iterations": sum(st[0] for st in stages),
            "stages_above_tol": sum(1 for st in stages if not st[2] < command["tol"]),
            **facts,
        })
    tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": sum(c["seconds"] for c in commands),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "commands": commands,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if plan["trace"]:
        result["layers"] = tracer.layer_metrics()
        result["span_cost_s"] = span_cost()
        tracer.write_spans(Path(plan["result"]).with_name("spans.csv"))
    return result


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    from tracing import Tracer

    class Box:
        @staticmethod
        def noop(x):
            return x

    plain = Box.noop
    clock = time.perf_counter
    t0 = clock()
    for i in range(calls):
        plain(i)
    base = clock() - t0
    tracer = Tracer()
    tracer.wrap_attr(Box, "noop", "calibration")
    traced = Box.noop
    t0 = clock()
    for i in range(calls):
        traced(i)
    return max(0.0, (clock() - t0 - base) / calls)


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    cli = _import_package(Path(plan["src"]))
    if plan["mode"] == "setup":
        setup(cli, plan["commands"][0])
        # CLOCK_MONOTONIC is system-wide: the parent subtracts its spawn time
        result = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC)}
    else:
        result = run(cli, plan)
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
