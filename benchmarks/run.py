"""fracorlicz benchmark: time the CLI workloads end to end, or trace their layers.

    python3 benchmarks/run.py --workload solve-n400 [--seed N] [--seconds S] [--trace 0|1]

Run from a source checkout; the package is imported from its `src/`
directory.  Each repetition of a workload is one fresh single-threaded
process (BLAS pinned to one thread) that runs the workload's commands
through `fracorlicz.cli.main` and checks every output.  Repetitions continue
until S seconds have passed (at least two), and medians are reported.
Set-up time is measured by separate processes that only import the package
and build the first command's config and problem.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 traced and untraced repetitions alternate and it carries the
per-layer metrics plus the tracing overhead.  Full results, with machine
information, go to benchmarks/out/.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import TOL, WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
SETUP_REPS = 5        # timed set-up processes per run, after one warm-up
MIN_REPS = 2          # repetitions needed for a determinism comparison
RUN_LIMIT_S = 170.0   # a run must end within 180 s
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer counts that must repeat exactly for the same code and seed.
DETERMINISTIC_COUNTS = ("solver.stages", "solver.iterations", "solver.energy_calls",
                        "solver.residual_calls", "solver.backtracks", "grid.pair_evals",
                        "grid.luxemburg_calls", "grid.luxemburg_rows",
                        "grid.luxemburg_level_evals", "nfunctions.G_evals",
                        "nfunctions.g_evals", "nfunctions.table_evals",
                        "nfunctions.conjugate_builds", "trace.spans")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (no package, set-up fails)."""


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas_threads": {v: BLAS_THREADS for v in BLAS_VARS},
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Spawns the child processes of one run, each waited for or killed."""

    def __init__(self, workload: Workload, seed: int, out: Path, deadline: float):
        self.commands = workload.with_seed(seed)
        self.out = out
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{v: BLAS_THREADS for v in BLAS_VARS})
        out.mkdir(parents=True)
        for c in self.commands:
            (out / f"{c.name}.ini").write_text(c.config, encoding="utf-8")

    def _plan(self, mode: str, trace: bool, rep_dir: Path) -> Path:
        rep_dir.mkdir(parents=True)
        plan = {
            "src": str(ROOT / "src"), "mode": mode, "trace": trace,
            "result": str(rep_dir / "result.json"),
            "commands": [{"name": c.name, "command": c.command,
                          "config": str(self.out / f"{c.name}.ini"), "seed": c.seed,
                          "tol": TOL, "torsion": c.torsion,
                          "out": str(rep_dir / c.name)} for c in self.commands],
        }
        path = rep_dir / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        return path

    def _spawn(self, plan: Path, log: Path) -> tuple:
        """Run one child; returns (exit code or None if killed, spawn time, wall s).

        The spawn time is CLOCK_MONOTONIC, which the child can read too; the
        wall seconds include the polling delay of wait() and are only used
        to budget the run.
        """
        with open(log, "wb") as fh:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(plan)],
                                    stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=str(ROOT))
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            return code, spawned, time.clock_gettime(time.CLOCK_MONOTONIC) - spawned

    def setup_time(self) -> list:
        walls = []
        for i in range(SETUP_REPS + 1):
            rep_dir = self.out / f"setup{i}"
            code, spawned, _ = self._spawn(self._plan("setup", False, rep_dir),
                                           rep_dir / "log.txt")
            if code != 0:
                log = (rep_dir / "log.txt").read_text(errors="replace")
                raise BenchmarkError(f"set-up process exited {code}:\n{log}")
            done = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
            walls.append(done["setup_done"] - spawned)
        return walls[1:]

    def repetition(self, index: int, trace: bool) -> dict:
        rep_dir = self.out / f"rep{index}"
        code, _, wall = self._spawn(self._plan("run", trace, rep_dir), rep_dir / "log.txt")
        result_path = rep_dir / "result.json"
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            log = (rep_dir / "log.txt").read_text(errors="replace")
            problem = f"child exited {code} after {wall:.1f} s: {log[-2000:]}"
            result = {"commands": [{"name": c.name, "problems": [problem], "digest": None}
                                   for c in self.commands]}
        result.update(trace=trace, process_s=wall, index=index)
        return result


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def run(workload: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Measure one workload; returns the full result (see report())."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if out.exists():
        shutil.rmtree(out)
    runner = Runner(workload, seed, out, deadline)
    setup = runner.setup_time()

    reps = []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        # trace runs alternate untraced and traced repetitions
        traced = trace and len(reps) % 2 == 1
        rep = runner.repetition(len(reps), traced)
        reps.append(rep)
        longest = max(longest, rep["process_s"])
        now = time.monotonic()
        enough = now - t0 >= seconds and len(reps) >= MIN_REPS
        if enough or now + 1.3 * longest > deadline:
            break

    ok_reps = [r for r in reps if "wall_s" in r]
    plain = [r for r in ok_reps if not r["trace"]]
    traced = [r for r in ok_reps if r["trace"]]
    for rep in traced[1:]:
        differ = [k for k in DETERMINISTIC_COUNTS
                  if rep["layers"][k] != traced[0]["layers"][k]]
        if differ:
            rep["commands"][0]["problems"].append(f"deterministic counts differ: {differ}")

    # correctness: checks per command, then byte-identical outputs across reps
    attempted = failed = 0
    reference = {}
    notes = []
    for rep in reps:
        for cmd in rep["commands"]:
            attempted += 1
            problems = list(cmd["problems"])
            if cmd["digest"] is not None:
                ref = reference.setdefault(cmd["name"], cmd["digest"])
                if cmd["digest"] != ref:
                    problems.append(f"outputs differ from an earlier rep: {ref}")
            if problems:
                failed += 1
                notes.append(f"rep{rep['index']} {cmd['name']}: " + "; ".join(problems))

    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_info(), "setup_walls": setup, "reps": reps,
        "attempted": attempted, "failed": failed, "notes": notes,
        "plain": plain, "traced": traced,
        "elapsed_s": time.monotonic() - started,
    }


def end_to_end(res: dict) -> dict:
    plain = res["plain"]
    return {
        "wall_s": (_median([r["wall_s"] for r in plain]), "s"),
        "setup_s": (_median(res["setup_walls"]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB"),
    }


UNITS = {"_s": "s", "_ms": "ms", "_ratio": "ratio", "_pct": "%", "ms_per_iteration": "ms"}


def per_layer(res: dict) -> dict:
    traced, plain = res["traced"], res["plain"]
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in layers[0]:
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        if name in DETERMINISTIC_COUNTS:
            value = layers[0][name]
        else:
            value = _median([m[name] for m in layers])
        metrics[name] = (value, unit)
    t_wall = _median([r["wall_s"] for r in traced])
    u_wall = _median([r["wall_s"] for r in plain])
    metrics["trace.overhead_pct"] = (100.0 * (t_wall / u_wall - 1.0), "%")
    cost = _median([r["span_cost_s"] for r in traced])
    metrics["trace.overhead_est_pct"] = (
        100.0 * cost * layers[0]["trace.spans"] / t_wall, "%")
    return metrics


def report(res: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    mach = res["machine"]
    versions = next((r["versions"] for r in res["reps"] if "versions" in r), {})
    print(f"workload={res['workload']} seed={res['seed']} seconds={res['seconds']} "
          f"trace={res['trace']} reps={len(res['reps'])} "
          f"(plain {len(res['plain'])}, traced {len(res['traced'])}) "
          f"elapsed={res['elapsed_s']:.1f}s")
    print(f"machine: cpu={mach['cpu']!r} nproc={mach['nproc']} "
          + " ".join(f"{k}={v}" for k, v in versions.items())
          + f" blas_threads={BLAS_THREADS} commit={mach['commit']}")
    for rep in res["reps"]:
        for cmd in rep["commands"]:
            extra = "".join(f" {k}={cmd[k]}" for k in
                            ("seconds", "stages", "iterations", "stages_above_tol",
                             "torsion_l2_err", "samples") if k in cmd)
            print(f"rep{rep['index']}{' traced' if rep['trace'] else ''} {cmd['name']}: "
                  f"exit={cmd.get('exit')}{extra} outputs={cmd['digest']}")
    for note in res["notes"]:
        print(f"FAILED {note}")

    complete = res["traced"] if res["trace"] else res["plain"]
    if not complete or (res["trace"] and not res["plain"]):
        raise BenchmarkError("no repetition completed; see the failures above")
    metrics = per_layer(res) if res["trace"] else end_to_end(res)
    # derived end-to-end figures that exist on one workload only
    last = res["plain"][-1]["commands"] if res["plain"] else []
    derived = {}
    samples = sum(c.get("samples", 0) for c in last)
    if samples:
        derived["samples_per_s"] = (samples / _median([r["wall_s"] for r in res["plain"]]),
                                    "1/s")
    for c in last:
        if "torsion_l2_err" in c:
            derived["torsion_l2_err"] = (c["torsion_l2_err"], "ratio")
    derived["ops"] = (res["attempted"], "count")
    derived["ops_failed"] = (res["failed"], "count")
    for name, (value, unit) in {**metrics, **derived}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and waits for its child (see Runner._spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fracorlicz" / "cli.py").is_file():
        print(f"no fracorlicz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    out = HERE / "out" / f"{workload.name}-trace{args.trace}"
    try:
        res = run(workload, seed, args.seconds, bool(args.trace), out)
        final = report(res)
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    (out / "result.json").write_text(json.dumps({**res, "final": final}, indent=1),
                                     encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
