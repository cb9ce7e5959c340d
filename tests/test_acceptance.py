"""Acceptance criteria, one test per criterion, at full stated scale.

Each test prints a single PASS/FAIL line (visible with pytest -s, and in
the captured output on failure).  Tolerances are pinned here and match the
package contracts; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from fracorlicz.nfunctions import power_nfunction
from fracorlicz.grid import (Mesh, GridFunction, random_fourier, random_positive,
                             lg_norm, seminorm_modular)
from fracorlicz.inequalities import (SUITES, STANDARD_FAMILIES, run_suite,
                                     hidden_convexity_gap, diaz_saa_value)
from fracorlicz.solver import (ProblemSpec, energy, weak_residual, solve_singular,
                               comparison_experiment, uniqueness_experiment,
                               symmetry_experiment, torsion_reference)
from fracorlicz.cli import main as cli_main

P3 = power_nfunction(3.0)


def fourier_field(rng, mesh):
    """One random sine series as a grid function."""
    return GridFunction(mesh, random_fourier(rng, mesh, 1)[1][0])


def _report(name: str, ok: bool, metric: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({metric})")
    assert ok, f"{name}: {metric}"


# ---------------------------------------------------------------------------
# 1. inequality suites, >= 1e5 seeded samples each, all four families
# ---------------------------------------------------------------------------

def test_acceptance_inequality_suites():
    t0 = time.perf_counter()
    total_violations = 0
    worst = ("", 0.0)
    regime_floor = 10 ** 9
    for fam, G in STANDARD_FAMILIES.items():
        for name in SUITES:
            samples = 1000000 if name == "monotone_difference" else 100000
            report = run_suite(name, G, samples, seed=42)
            total_violations += report.violations
            if report.min_gap < worst[1]:
                worst = (report.name, report.min_gap)
            if name == "picone":
                regime_floor = min(regime_floor,
                                   *report.extra["regime_counts"].values())
    elapsed = time.perf_counter() - t0
    ok = total_violations == 0 and regime_floor >= 10000
    _report("inequality-suites", ok,
            f"violations={total_violations}, min regime hits={regime_floor}, "
            f"worst={worst}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. torsion oracle at n in {100, 200, 400}
# ---------------------------------------------------------------------------

def test_acceptance_torsion_oracle():
    t0 = time.perf_counter()
    errors = []
    for n in (100, 200, 400):
        mesh = Mesh(-1.0, 1.0, n)
        spec = ProblemSpec(G=power_nfunction(2.0), s=0.5, alpha=0.0, beta=0.0,
                           f=GridFunction.zeros(mesh),
                           k=GridFunction.constant(mesh, 1.0),
                           epsilon0=1e-2, epsilon_min=1e-2)
        result = solve_singular(spec, tol=1e-9)
        assert result.converged
        ref = torsion_reference(mesh)
        errors.append((result.u - ref).l2_norm() / ref.l2_norm())
    elapsed = time.perf_counter() - t0
    ok = errors[-1] < 0.05 and errors[0] > errors[1] > errors[2]
    _report("torsion-oracle", ok,
            f"rel L2 errors={['%.4f' % e for e in errors]}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 3. gradient consistency, 100 random pairs per built-in family
# ---------------------------------------------------------------------------

def test_acceptance_gradient_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mesh = Mesh(0.0, 1.0, 32)
    eps = 0.5
    worst = 0.0
    for G in STANDARD_FAMILIES.values():
        spec = ProblemSpec(G=G, s=0.5, alpha=0.5, beta=0.5,
                           f=GridFunction.constant(mesh, 1.0),
                           k=GridFunction.constant(mesh, 1.0),
                           epsilon0=1e-2, epsilon_min=1e-4)
        for _ in range(100):
            u = random_positive(rng, mesh)
            phi = fourier_field(rng, mesh)
            t = 1e-6
            fd = (energy(spec, u.with_values(u.values + t * phi.values), eps)
                  - energy(spec, u.with_values(u.values - t * phi.values), eps)) / (2 * t)
            an = mesh.h * float(np.dot(weak_residual(u, spec, eps).values, phi.values))
            worst = max(worst, abs(fd - an) / (1.0 + abs(an)))
    elapsed = time.perf_counter() - t0
    _report("gradient-consistency", worst < 1e-5,
            f"worst rel err={worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. uniqueness at n = 200, epsilon down to 1e-6, three starts
# ---------------------------------------------------------------------------

def test_acceptance_uniqueness():
    t0 = time.perf_counter()
    mesh = Mesh(0.0, 1.0, 200)
    spec = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                       f=GridFunction.constant(mesh, 1.0),
                       k=GridFunction.constant(mesh, 1.0),
                       epsilon0=1e-2, epsilon_min=1e-6)
    outcome = uniqueness_experiment(spec, tol=1e-9, seed=11, threshold=1e-5)
    elapsed = time.perf_counter() - t0
    ok = outcome.ok and not outcome.out_of_hypothesis
    _report("uniqueness", ok,
            f"max pairwise={outcome.max_pairwise:.2e} < 1e-5, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. comparison with doubled forcing
# ---------------------------------------------------------------------------

def test_acceptance_comparison():
    t0 = time.perf_counter()
    mesh = Mesh(0.0, 1.0, 200)
    low = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                      f=GridFunction.constant(mesh, 1.0),
                      k=GridFunction.constant(mesh, 1.0),
                      epsilon0=1e-2, epsilon_min=1e-6)
    high = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                       f=GridFunction.constant(mesh, 2.0),
                       k=GridFunction.constant(mesh, 1.0),
                       epsilon0=1e-2, epsilon_min=1e-6)
    outcome = comparison_experiment(low, high, tol=1e-9)
    elapsed = time.perf_counter() - t0
    _report("comparison", outcome.ok,
            f"violations={outcome.violated_nodes.size} at "
            f"tol_cmp={outcome.tol_cmp:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. symmetry inheritance from an asymmetric start
# ---------------------------------------------------------------------------

def test_acceptance_symmetry():
    t0 = time.perf_counter()
    mesh = Mesh(-1.0, 1.0, 128)
    spec = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                       f=GridFunction(mesh, np.exp(-mesh.nodes ** 2 / 0.25)),
                       k=GridFunction.constant(mesh, 1.0),
                       epsilon0=1e-2, epsilon_min=1e-6)
    init = GridFunction(mesh, 0.5 + 0.4 * np.sin(3.0 * mesh.nodes)
                        + 0.2 * (mesh.nodes > 0.3))
    outcome = symmetry_experiment(spec, u_init=init, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = outcome.ok and outcome.symmetric_data and outcome.asymmetry < 1e-6
    _report("symmetry", ok, f"asymmetry={outcome.asymmetry:.2e} < 1e-6, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. equality cases
# ---------------------------------------------------------------------------

def test_acceptance_equality_cases():
    rng = np.random.default_rng(5)
    mesh = Mesh(0.0, 1.0, 32)
    u = random_positive(rng, mesh)
    doubled = 2.0 * u
    # pairing at proportional fields, q at the homogeneity degree
    scale = seminorm_modular(u, P3, 0.5, "full")
    pairing = abs(diaz_saa_value(doubled, u, P3, 0.5, 3.0))
    ok_pairing = pairing <= 1e-8 * scale
    # interpolation endpoints are computed exactly
    vals = rng.uniform(0.1, 5.0, (4, 1000))
    gap0 = hidden_convexity_gap(P3, 2.5, *vals, np.zeros(1000))
    gap1 = hidden_convexity_gap(P3, 2.5, *vals, np.ones(1000))
    ok_endpoint = np.all(gap0 == 0.0) and np.all(gap1 == 0.0)
    # norm homogeneity to 1e-12
    worst = 0.0
    for G in STANDARD_FAMILIES.values():
        w = fourier_field(rng, mesh)
        n2 = lg_norm(2.0 * w, G)
        worst = max(worst, abs(n2 - 2.0 * lg_norm(w, G)) / max(n2, 1.0))
    ok_homog = worst <= 1e-12
    ok = ok_pairing and ok_endpoint and ok_homog
    _report("equality-cases", ok,
            f"pairing={pairing:.1e} (scale {scale:.1e}), endpoints exact, "
            f"homogeneity dev={worst:.1e}")


# ---------------------------------------------------------------------------
# 8. determinism of reports and solution files
# ---------------------------------------------------------------------------

def test_acceptance_determinism(tmp_path):
    t0 = time.perf_counter()
    verify_cfg = tmp_path / "verify.ini"
    verify_cfg.write_text("""
[verify]
suites = young, picone, hidden_convexity
samples = 20000
families = power3, powersum34

[solver]
seed = 9
""")
    solve_cfg = tmp_path / "solve.ini"
    solve_cfg.write_text("""
[mesh]
a = 0
b = 1
n = 64

[nfunction]
family = power
p = 3

[problem]
s = 0.5
alpha = 0.5
beta = 0.5
f = 1
k = 1
epsilon0 = 1e-2
epsilon_min = 1e-5

[solver]
tol = 1e-9
seed = 9
""")
    for i in (1, 2):
        assert cli_main(["verify", "--config", str(verify_cfg),
                         "--out", str(tmp_path / f"v{i}"), "--quiet"]) == 0
        assert cli_main(["solve", "--config", str(solve_cfg),
                         "--out", str(tmp_path / f"s{i}"), "--quiet"]) == 0
    same_report = ((tmp_path / "v1" / "verify_report.csv").read_bytes()
                   == (tmp_path / "v2" / "verify_report.csv").read_bytes())
    same_witness = all(
        (tmp_path / "v2" / w.name).read_bytes() == w.read_bytes()
        for w in (tmp_path / "v1").glob("witness_*.txt"))
    same_solution = ((tmp_path / "s1" / "solution.txt").read_bytes()
                     == (tmp_path / "s2" / "solution.txt").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = same_report and same_witness and same_solution
    _report("determinism", ok,
            f"report={same_report}, witnesses={same_witness}, "
            f"solution={same_solution}, {elapsed:.0f}s")
