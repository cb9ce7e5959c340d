"""Command-line front end.

Subcommands: verify (inequality sweeps), solve, compare, uniqueness,
symmetry (solver experiments), norm (single-function norms).  Global flags:
--config PATH, --seed INT (overrides the config seed), --out DIR, --quiet.

Exit codes are a stable contract: 0 success, 1 verdict FAIL, 2 usage or
config error, 3 inconclusive.  VERDICT_EXIT holds the code of each verdict:
PASS, REPORTED (an out-of-hypothesis uniqueness run) and CONTROL (a symmetry
run on asymmetric data) exit 0, FAIL 1, INCONCLUSIVE (a solve that did not
converge; never reported as PASS) and ERROR (a numeric failure, such as a
modular whose unit level cannot be bracketed) 3.  _Run.conclude writes
verdict=... to the manifest and, for compare, uniqueness and symmetry,
prints the verdict line.  A solve that did not converge exits 3.  Every
config problem is a ConfigError: one "config error:" line, no manifest, and
no --out directory left behind that the run made.  A listed output that is
missing writes no manifest and exits 3.  All randomness
flows from the single seed, which draws the verify sweeps and the random
uniqueness start; solve, compare and symmetry do not read it.  Reports and
solution files contain no wall-clock entropy, so repeated runs with the same
seed are byte-identical (the manifest records wall time, per-stage
seconds and per-suite seconds and is the one exception).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .nfunctions import BracketExpansionError
from .grid import (GridFunction, ModularNotDecreasingError, modular_and_slope,
                   seminorm_modular_and_slope, luxemburg_norm)
from .solver import (solve_singular, comparison_experiment, uniqueness_experiment,
                     symmetry_experiment, torsion_reference)
from .inequalities import SUITES, STANDARD_FAMILIES, run_suite
from .config import (ConfigError, load_config, config_digest,
                     build_mesh, build_nfunction, build_problem,
                     build_solver_settings, coefficient_field, fraction_setting,
                     get_setting, name_list, positive_setting)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3
VERDICT_EXIT = {"PASS": EXIT_OK, "REPORTED": EXIT_OK, "CONTROL": EXIT_OK,
                "FAIL": EXIT_FAIL, "INCONCLUSIVE": EXIT_INCONCLUSIVE,
                "ERROR": EXIT_INCONCLUSIVE}


@dataclass
class RunManifest:
    command: str
    config_digest: str
    seed: int
    tool_version: str = __version__
    wall_time: float = 0.0
    outputs: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)

    def add_output(self, path: Path):
        self.outputs.append(str(path))

    def note(self, text: str):
        self.lines.append(text)

    def write(self, path: Path):
        for out in self.outputs:
            if not Path(out).exists():
                raise RuntimeError(f"manifest lists missing output {out}")
        body = [
            f"command={self.command}",
            f"config_digest={self.config_digest}",
            f"seed={self.seed}",
            f"tool_version={self.tool_version}",
            f"wall_time={self.wall_time:.3f}",
        ]
        body += [f"output={o}" for o in self.outputs]
        body += self.lines
        path.write_text("\n".join(body) + "\n", encoding="utf-8")


class _Run:
    """Shared context: parsed config, output directory, manifest."""

    def __init__(self, args, command: str):
        self.args = args
        self.parser = load_config(args.config)
        self.digest = config_digest(self.parser)
        self.base_dir = Path(args.config).resolve().parent
        self.settings = build_solver_settings(self.parser, args.seed)
        self.out = Path(args.out)
        self.made_out = not self.out.exists()
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest = RunManifest(command, self.digest, self.settings.seed)
        self.t0 = time.perf_counter()
        self.quiet = args.quiet

    def say(self, text: str):
        if not self.quiet:
            print(text)

    def conclude(self, verdict: str, shown: Optional[str] = None, detail: str = "") -> int:
        """Write verdict=<verdict><detail> to the manifest and return its exit code.

        With shown, first print the verdict line <verdict><shown>, even when quiet.
        """
        if shown is not None:
            print(verdict + shown)
        self.manifest.note(f"verdict={verdict}{detail}")
        return VERDICT_EXIT[verdict]

    def write_grid(self, name: str, gf: GridFunction) -> Path:
        path = self.out / name
        path.write_text(gf.to_text(), encoding="utf-8")
        self.manifest.add_output(path)
        return path

    def note_stages(self, result, solve: str = "") -> None:
        """One manifest line per stage of result, tagged solve=<solve> if given."""
        tag = f"solve={solve} " if solve else ""
        for st in result.stages:
            self.manifest.note(
                f"stage {tag}eps={st.epsilon:.6e} cells={st.cells} iterations={st.iterations} "
                f"energy={st.energy:.12e} pair_passes={st.pair_passes} backtracks={st.backtracks} "
                f"bb_fallbacks={st.bb_fallbacks} plain_steps={st.plain_steps} "
                f"seconds={st.seconds:.3f} stop={st.stop}")

    def finish(self) -> None:
        self.manifest.wall_time = time.perf_counter() - self.t0
        self.manifest.write(self.out / "manifest.txt")

    def discard(self) -> None:
        """Remove the output directory again if this run made it and wrote nothing."""
        if self.made_out and not any(self.out.iterdir()):
            self.out.rmdir()


def _problem_context(run: _Run):
    """(mesh, G, spec) of the config; each hypothesis warning of spec goes to
    the manifest as warning=<note> and, unless quiet, to stdout."""
    mesh = build_mesh(run.parser)
    G = build_nfunction(run.parser, run.base_dir)
    spec = build_problem(run.parser, mesh, G, run.base_dir)
    for note in spec.hypothesis_warnings():
        run.manifest.note(f"warning={note}")
        run.say(f"warning: {note}")
    return mesh, G, spec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(run: _Run) -> int:
    parser = run.parser
    suites = name_list(parser, "verify", "suites", SUITES)
    samples = get_setting(parser, "verify", "samples", float, default=10000.0)
    if not samples.is_integer():   # nor are inf and nan
        raise ConfigError(f"[verify] samples must be a whole number, got {samples:g}")
    if samples < 1:
        raise ConfigError(f"[verify] samples must be at least 1, got {samples:g}")
    samples = int(samples)
    fam_names = name_list(parser, "verify", "families", STANDARD_FAMILIES,
                          default=",".join(STANDARD_FAMILIES))
    s_order = fraction_setting(parser, "verify", "s", 0.5)

    rows = ["name,samples,violations,min_gap,witness"]
    failing = []
    for fam in fam_names:
        G = STANDARD_FAMILIES[fam]
        for suite in suites:
            kwargs = {"s": s_order} if suite in ("seminorm_sandwich", "diaz_saa") else {}
            start = time.perf_counter()
            report = run_suite(suite, G, samples, run.settings.seed, **kwargs)
            seconds = time.perf_counter() - start
            run.manifest.note(f"suite name={suite} family={fam} samples={report.samples} "
                              f"seconds={seconds:.3f} "
                              f"samples_per_s={report.samples / max(seconds, 1e-9):.1f}")
            wname = f"witness_{suite}_{fam}.txt"
            wpath = run.out / wname
            wpath.write_text(report.witness_text(), encoding="utf-8")
            run.manifest.add_output(wpath)
            rows.append(report.csv_row(wname))
            run.say(f"{report.name}: samples={report.samples} "
                    f"violations={report.violations} min_gap={report.min_gap:.3e}")
            if report.violations:
                failing.append(report.name)
    report_path = run.out / "verify_report.csv"
    report_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    run.manifest.add_output(report_path)
    if failing:
        for name in failing:
            print(f"suite failed: {name}", file=sys.stderr)
        return run.conclude("FAIL", detail=f" failing={';'.join(failing)}")
    return run.conclude("PASS")


def _is_torsion_benchmark(spec) -> bool:
    return (spec.G.family == "power" and spec.G.params[0] == 2.0
            and spec.s == 0.5 and spec.alpha == 0.0 and spec.beta == 0.0
            and not np.any(spec.f.values)
            and np.ptp(spec.k.values) == 0.0 and spec.k.values[0] > 0.0)


def cmd_solve(run: _Run) -> int:
    _, _, spec = _problem_context(run)
    st = run.settings
    result = solve_singular(spec, tol=st.tol, max_iter=st.max_iter)
    run.write_grid("solution.txt", result.u)
    run.manifest.note(f"converged={result.converged}")
    run.manifest.note(f"residual_inf={result.residual_inf:.6e}")
    run.manifest.note(f"iterations={result.iterations}")
    run.note_stages(result)
    if _is_torsion_benchmark(spec):
        ref = float(spec.k.values[0]) * torsion_reference(spec.mesh)
        err = (result.u - ref).l2_norm() / ref.l2_norm()
        print(f"torsion reference relative L2 error: {err:.6e}")
        run.manifest.note(f"torsion_l2_error={err:.6e}")
    print(f"solve {'converged' if result.converged else 'DID NOT CONVERGE'} "
          f"(residual_inf={result.residual_inf:.3e})")
    return EXIT_OK if result.converged else EXIT_INCONCLUSIVE


def cmd_compare(run: _Run) -> int:
    f_high_raw = get_setting(run.parser, "compare", "f_high", str)
    k_high_raw = get_setting(run.parser, "compare", "k_high", str)
    if not (f_high_raw or k_high_raw):
        raise ConfigError("[compare] needs f_high and/or k_high")
    mesh, G, low = _problem_context(run)
    f_high = (coefficient_field(f_high_raw, mesh, "f_high", run.base_dir)
              if f_high_raw else low.f)
    k_high = (coefficient_field(k_high_raw, mesh, "k_high", run.base_dir)
              if k_high_raw else low.k)
    high = replace(low, f=f_high, k=k_high)
    st = run.settings
    outcome = comparison_experiment(low, high, tol=st.tol, max_iter=st.max_iter)
    for side, result in (("low", outcome.low), ("high", outcome.high)):
        run.write_grid(f"solution_{side}.txt", result.u)
        run.note_stages(result, side)
    for note in outcome.notes:
        run.manifest.note(f"membership={note}")
    if outcome.inconclusive:
        return run.conclude("INCONCLUSIVE", ": a solve did not converge")
    n_viol = int(outcome.violated_nodes.size)
    return run.conclude("PASS" if outcome.ok else "FAIL",
                        f" violations={n_viol} tol_cmp={outcome.tol_cmp:.3e}",
                        f" violations={n_viol} tol_cmp={outcome.tol_cmp:.6e}")


def cmd_uniqueness(run: _Run) -> int:
    _, _, spec = _problem_context(run)
    threshold = positive_setting(run.parser, "uniqueness", "threshold", 1e-5)
    st = run.settings
    outcome = uniqueness_experiment(spec, tol=st.tol, max_iter=st.max_iter,
                                    seed=st.seed, threshold=threshold)
    run.note_stages(outcome.reference, "reference")
    for i, res in enumerate(outcome.results):
        run.write_grid(f"solution_init{i}.txt", res.u)
        run.note_stages(res, f"init{i}")
    run.manifest.note(f"max_pairwise={outcome.max_pairwise:.6e}")
    if outcome.inconclusive:
        return run.conclude("INCONCLUSIVE", ": a solve did not converge")
    measured = f" max_pairwise={outcome.max_pairwise:.3e} threshold={threshold:.1e}"
    if outcome.out_of_hypothesis:   # the spec's warning names the condition
        run.manifest.note("scope=out-of-hypothesis")
        return run.conclude("REPORTED", measured + " (out-of-hypothesis)")
    return run.conclude("PASS" if outcome.ok else "FAIL", measured)


def cmd_symmetry(run: _Run) -> int:
    mesh, _, spec = _problem_context(run)
    threshold = positive_setting(run.parser, "symmetry", "threshold", 1e-6)
    init_raw = get_setting(run.parser, "symmetry", "init", str)
    u_init = (coefficient_field(init_raw, mesh, "init", run.base_dir)
              if init_raw else None)
    st = run.settings
    outcome = symmetry_experiment(spec, u_init=u_init, tol=st.tol, max_iter=st.max_iter,
                                  threshold=threshold)
    run.write_grid("solution.txt", outcome.result.u)
    run.note_stages(outcome.result, "continuation" if u_init is None else "init")
    run.manifest.note(f"asymmetry={outcome.asymmetry:.6e}")
    if outcome.inconclusive:
        return run.conclude("INCONCLUSIVE", ": solve did not converge")
    if not outcome.symmetric_data:
        return run.conclude("CONTROL", f" asymmetry={outcome.asymmetry:.3e} "
                                       "(data not symmetric)")
    return run.conclude("PASS" if outcome.ok else "FAIL",
                        f" asymmetry={outcome.asymmetry:.3e} threshold={threshold:.1e}")


def cmd_norm(run: _Run) -> int:
    parser = run.parser
    mesh = build_mesh(parser)
    G = build_nfunction(parser, run.base_dir)
    expr = get_setting(parser, "norm", "u", str, required=True)
    kind = get_setting(parser, "norm", "kind", str, default="LG")
    u = coefficient_field(expr, mesh, "u", run.base_dir)
    if kind == "LG":
        modular_fn = lambda w: modular_and_slope(w, G)
    elif kind in ("seminorm_omega", "seminorm_full"):
        # the order is [norm] s, else [problem] s, else 1/2
        s = fraction_setting(parser, "norm" if parser.has_option("norm", "s") else "problem",
                             "s", 0.5)
        domain = "omega" if kind == "seminorm_omega" else "full"
        modular_fn = lambda w: seminorm_modular_and_slope(w, G, s, domain)
    else:
        raise ConfigError(f"[norm] kind must be LG, seminorm_omega or seminorm_full, "
                          f"got {kind!r}")
    value = luxemburg_norm(u, modular_fn)
    residual = abs(modular_fn(u / value)[0] - 1.0) if value > 0.0 else 0.0
    print(f"norm={value:.10g} bisection_residual={residual:.3e}")
    run.manifest.note(f"norm={value!r} residual={residual!r} kind={kind}")
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "solve": cmd_solve,
    "compare": cmd_compare,
    "uniqueness": cmd_uniqueness,
    "symmetry": cmd_symmetry,
    "norm": cmd_norm,
}


def make_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracorlicz",
        description="Fractional Orlicz-Sobolev toolkit: inequality verification "
                    "and the singular nonlocal solver.")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="experiment config file (INI)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return ap


def main(argv=None) -> int:
    try:
        args = make_argparser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors, matching the contract
        return int(err.code or 0)
    try:
        run = _Run(args, args.command)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code = COMMANDS[args.command](run)
    except ValueError as err:   # a ConfigError, or an experiment's precondition on the data
        print(f"config error: {err}", file=sys.stderr)
        run.discard()
        return EXIT_CONFIG
    except (ModularNotDecreasingError, BracketExpansionError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        code = run.conclude("ERROR")
    try:
        run.finish()
    except RuntimeError as err:  # an output the manifest lists is missing
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return code


if __name__ == "__main__":
    sys.exit(main())
