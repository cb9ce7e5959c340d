"""Command-line front end.

Subcommands: verify (inequality sweeps), solve, compare, uniqueness,
symmetry (solver experiments), norm (single-function norms).  Global flags:
--config PATH, --seed INT (overrides the config seed), --out DIR, --quiet.

Exit codes are a stable contract: 0 success/PASS, 1 verdict FAIL, 2 usage or
config error, 3 inconclusive (a solve that did not converge is never
reported as PASS; a numeric failure, such as a modular whose unit level
cannot be bracketed, writes verdict=ERROR to the manifest, and a listed
output that is missing writes no manifest).  All randomness
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
from typing import List

import numpy as np

from . import __version__
from .nfunctions import BracketExpansionError
from .grid import (GridFunction, ModularNotDecreasingError, modular, seminorm_modular,
                   luxemburg_norm)
from .solver import (solve_singular, comparison_experiment, uniqueness_experiment,
                     symmetry_experiment, torsion_reference)
from .inequalities import SUITES, STANDARD_FAMILIES, run_suite
from .config import (ConfigError, load_config, config_digest,
                     build_mesh, build_nfunction, build_problem,
                     build_solver_settings, coefficient_field, parse_list, get_setting,
                     positive_setting)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3


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

    def verdict(self, text: str):
        print(text)

    def write_grid(self, name: str, gf: GridFunction) -> Path:
        path = self.out / name
        path.write_text(gf.to_text(), encoding="utf-8")
        self.manifest.add_output(path)
        return path

    def finish(self) -> None:
        self.manifest.wall_time = time.perf_counter() - self.t0
        self.manifest.write(self.out / "manifest.txt")

    def discard(self) -> None:
        """Remove the output directory again if this run made it and wrote nothing."""
        if self.made_out and not any(self.out.iterdir()):
            self.out.rmdir()


def _problem_context(run: _Run):
    mesh = build_mesh(run.parser)
    G = build_nfunction(run.parser, run.base_dir)
    spec = build_problem(run.parser, mesh, G, run.base_dir)
    return mesh, G, spec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(run: _Run) -> int:
    parser = run.parser
    raw_suites = get_setting(parser, "verify", "suites", str, default="")
    suites = parse_list(raw_suites)
    if not suites:
        raise ConfigError("[verify] no suites selected")
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ConfigError(f"[verify] unknown suites: {', '.join(unknown)}")
    samples = get_setting(parser, "verify", "samples", float, default=10000.0)
    if not samples.is_integer():   # nor are inf and nan
        raise ConfigError(f"[verify] samples must be a whole number, got {samples:g}")
    if samples < 1:
        raise ConfigError(f"[verify] samples must be at least 1, got {samples:g}")
    samples = int(samples)
    fam_names = parse_list(get_setting(parser, "verify", "families", str,
                                       default=",".join(STANDARD_FAMILIES)))
    bad = [f for f in fam_names if f not in STANDARD_FAMILIES]
    if bad:
        raise ConfigError(f"[verify] unknown families: {', '.join(bad)}")
    for key, names in (("suites", suites), ("families", fam_names)):
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"[verify] {key} lists {', '.join(repeated)} more than once")
    s_order = get_setting(parser, "verify", "s", float, default=0.5)
    if not 0.0 < s_order < 1.0:
        raise ConfigError(f"[verify] s must lie in (0, 1), got {s_order}")

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
        run.manifest.note(f"verdict=FAIL failing={';'.join(failing)}")
        return EXIT_FAIL
    run.manifest.note("verdict=PASS")
    return EXIT_OK


def _is_torsion_benchmark(spec) -> bool:
    return (spec.G.family == "power" and spec.G.params[0] == 2.0
            and spec.s == 0.5 and spec.alpha == 0.0 and spec.beta == 0.0
            and not np.any(spec.f.values)
            and np.ptp(spec.k.values) == 0.0 and spec.k.values[0] > 0.0)


def cmd_solve(run: _Run) -> int:
    _, _, spec = _problem_context(run)
    for note in spec.hypothesis_warnings():
        run.manifest.note(f"warning={note}")
        run.say(f"warning: {note}")
    st = run.settings
    result = solve_singular(spec, tol=st.tol, max_iter=st.max_iter)
    run.write_grid("solution.txt", result.u)
    run.manifest.note(f"converged={result.converged}")
    run.manifest.note(f"residual_inf={result.residual_inf:.6e}")
    run.manifest.note(f"iterations={result.iterations}")
    for stage in result.stages:
        run.manifest.note(
            f"stage eps={stage.epsilon:.6e} cells={stage.cells} "
            f"iterations={stage.iterations} "
            f"energy={stage.energy:.12e} "
            f"pair_passes={stage.pair_passes} backtracks={stage.backtracks} "
            f"bb_fallbacks={stage.bb_fallbacks} plain_steps={stage.plain_steps} "
            f"seconds={stage.seconds:.3f} stop={stage.stop}")
    if _is_torsion_benchmark(spec):
        ref = float(spec.k.values[0]) * torsion_reference(spec.mesh)
        err = (result.u - ref).l2_norm() / ref.l2_norm()
        run.verdict(f"torsion reference relative L2 error: {err:.6e}")
        run.manifest.note(f"torsion_l2_error={err:.6e}")
    run.verdict(f"solve {'converged' if result.converged else 'DID NOT CONVERGE'} "
                f"(residual_inf={result.residual_inf:.3e})")
    return EXIT_OK if result.converged else EXIT_INCONCLUSIVE


def cmd_compare(run: _Run) -> int:
    mesh, G, low = _problem_context(run)
    parser = run.parser
    f_high_raw = get_setting(parser, "compare", "f_high", str)
    k_high_raw = get_setting(parser, "compare", "k_high", str)
    if f_high_raw is None and k_high_raw is None:
        print("[compare] needs f_high and/or k_high", file=sys.stderr)
        return EXIT_CONFIG
    f_high = (coefficient_field(f_high_raw, mesh, "f_high", run.base_dir)
              if f_high_raw else low.f)
    k_high = (coefficient_field(k_high_raw, mesh, "k_high", run.base_dir)
              if k_high_raw else low.k)
    high = replace(low, f=f_high, k=k_high)
    st = run.settings
    outcome = comparison_experiment(low, high, tol=st.tol, max_iter=st.max_iter)
    run.write_grid("solution_low.txt", outcome.low.u)
    run.write_grid("solution_high.txt", outcome.high.u)
    for note in outcome.notes:
        run.manifest.note(f"membership={note}")
    if outcome.inconclusive:
        run.verdict("INCONCLUSIVE: a solve did not converge")
        run.manifest.note("verdict=INCONCLUSIVE")
        return EXIT_INCONCLUSIVE
    n_viol = int(outcome.violated_nodes.size)
    verdict = "PASS" if n_viol == 0 else "FAIL"
    run.verdict(f"{verdict} violations={n_viol} tol_cmp={outcome.tol_cmp:.3e}")
    run.manifest.note(f"verdict={verdict} violations={n_viol} tol_cmp={outcome.tol_cmp:.6e}")
    return EXIT_OK if n_viol == 0 else EXIT_FAIL


def cmd_uniqueness(run: _Run) -> int:
    _, _, spec = _problem_context(run)
    threshold = positive_setting(run.parser, "uniqueness", "threshold", 1e-5)
    for note in spec.hypothesis_warnings():
        run.manifest.note(f"warning={note}")
        if "out" in note or "uniqueness" in note:
            run.say(f"warning: {note}")
    st = run.settings
    outcome = uniqueness_experiment(spec, tol=st.tol, max_iter=st.max_iter,
                                    seed=st.seed, threshold=threshold)
    for i, res in enumerate(outcome.results):
        run.write_grid(f"solution_init{i}.txt", res.u)
    if outcome.out_of_hypothesis:
        run.manifest.note("warning=out-of-hypothesis: beta >= p_minus - 1; "
                          "outcome reported, not asserted")
    run.manifest.note(f"max_pairwise={outcome.max_pairwise:.6e}")
    if outcome.inconclusive:
        run.verdict("INCONCLUSIVE: a solve did not converge")
        run.manifest.note("verdict=INCONCLUSIVE")
        return EXIT_INCONCLUSIVE
    if outcome.out_of_hypothesis:
        run.verdict(f"REPORTED max_pairwise={outcome.max_pairwise:.3e} "
                    f"threshold={threshold:.1e} (out-of-hypothesis)")
        run.manifest.note("verdict=REPORTED")
        return EXIT_OK
    verdict = "PASS" if outcome.max_pairwise < threshold else "FAIL"
    run.verdict(f"{verdict} max_pairwise={outcome.max_pairwise:.3e} threshold={threshold:.1e}")
    run.manifest.note(f"verdict={verdict}")
    return EXIT_OK if verdict == "PASS" else EXIT_FAIL


def cmd_symmetry(run: _Run) -> int:
    mesh, _, spec = _problem_context(run)
    threshold = positive_setting(run.parser, "symmetry", "threshold", 1e-6)
    init_raw = get_setting(run.parser, "symmetry", "init", str)
    u_init = (coefficient_field(init_raw, mesh, "init", run.base_dir)
              if init_raw else None)
    st = run.settings
    outcome = symmetry_experiment(spec, u_init=u_init, tol=st.tol, max_iter=st.max_iter)
    run.write_grid("solution.txt", outcome.result.u)
    run.manifest.note(f"asymmetry={outcome.asymmetry:.6e}")
    if outcome.inconclusive:
        run.verdict("INCONCLUSIVE: solve did not converge")
        run.manifest.note("verdict=INCONCLUSIVE")
        return EXIT_INCONCLUSIVE
    if not outcome.symmetric_data:
        run.verdict(f"CONTROL asymmetry={outcome.asymmetry:.3e} (data not symmetric)")
        run.manifest.note("verdict=CONTROL")
        return EXIT_OK
    verdict = "PASS" if outcome.asymmetry < threshold else "FAIL"
    run.verdict(f"{verdict} asymmetry={outcome.asymmetry:.3e} threshold={threshold:.1e}")
    run.manifest.note(f"verdict={verdict}")
    return EXIT_OK if verdict == "PASS" else EXIT_FAIL


def cmd_norm(run: _Run) -> int:
    parser = run.parser
    mesh = build_mesh(parser)
    G = build_nfunction(parser, run.base_dir)
    expr = get_setting(parser, "norm", "u", str, required=True)
    kind = get_setting(parser, "norm", "kind", str, default="LG")
    u = coefficient_field(expr, mesh, "u", run.base_dir)
    if kind == "LG":
        modular_fn = lambda w: modular(w, G)
    elif kind in ("seminorm_omega", "seminorm_full"):
        s = get_setting(parser, "norm", "s", float,
                        default=get_setting(parser, "problem", "s", float, default=0.5))
        domain = "omega" if kind == "seminorm_omega" else "full"
        modular_fn = lambda w: seminorm_modular(w, G, s, domain)
    else:
        print(f"unknown norm kind {kind!r} (LG, seminorm_omega, seminorm_full)",
              file=sys.stderr)
        return EXIT_CONFIG
    value = luxemburg_norm(u, modular_fn)
    residual = abs(modular_fn(u / value) - 1.0) if value > 0.0 else 0.0
    run.verdict(f"norm={value:.10g} bisection_residual={residual:.3e}")
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
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        run.discard()
        return EXIT_CONFIG
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        run.discard()
        return EXIT_CONFIG
    except (ModularNotDecreasingError, BracketExpansionError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        run.manifest.note("verdict=ERROR")
        code = EXIT_INCONCLUSIVE
    try:
        run.finish()
    except RuntimeError as err:  # an output the manifest lists is missing
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return code


if __name__ == "__main__":
    sys.exit(main())
