"""End-to-end command-line runs on small configs."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import fracorlicz
import fracorlicz.solver as solver
from fracorlicz.cli import main
from fracorlicz.config import load_config, config_digest
from fracorlicz.grid import Mesh, GridFunction, ModularNotDecreasingError
from fracorlicz.nfunctions import BracketExpansionError


BASE = """
[mesh]
a = {a}
b = {b}
n = {n}

[nfunction]
family = {family}
p = {p}

[problem]
s = 0.5
alpha = {alpha}
beta = {beta}
f = {f}
k = {k}
epsilon0 = {eps0}
epsilon_min = {epsmin}

[solver]
tol = 1e-9
seed = 7
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def torsion_config(tmp_path, n=64):
    text = BASE.format(a=-1.0, b=1.0, n=n, family="power", p=2,
                       alpha=0, beta=0, f="0", k="1", eps0="1e-2", epsmin="1e-2")
    return write(tmp_path, "torsion.ini", text)


def singular_config(tmp_path, n=48, extra=""):
    text = BASE.format(a=0.0, b=1.0, n=n, family="power", p=3,
                       alpha=0.5, beta=0.5, f="1", k="1",
                       eps0="1e-2", epsmin="1e-4") + extra
    return write(tmp_path, "singular.ini", text)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_torsion_reports_reference_error(tmp_path, capsys):
    cfg = torsion_config(tmp_path)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "torsion reference relative L2 error" in captured.out
    assert (tmp_path / "out" / "solution.txt").exists()
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "config_digest=" in manifest and "command=solve" in manifest
    assert "torsion_l2_error=" in manifest


def test_solve_manifest_reports_stage_telemetry(tmp_path):
    cfg = torsion_config(tmp_path, n=32)
    counts = []
    for run in ("t1", "t2"):
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / run), "--quiet"]) == 0
        lines = (tmp_path / run / "manifest.txt").read_text().splitlines()
        (stage,) = [line for line in lines if line.startswith("stage ")]
        fields = dict(item.split("=") for item in stage.split()[1:])
        assert fields["stop"] == "pg_tol"
        assert float(fields["seconds"]) >= 0.0
        del fields["seconds"]
        counts.append(fields)
        assert "seconds" not in (tmp_path / run / "solution.txt").read_text()
    assert counts[0] == counts[1]
    # a pg_tol stop: the start pass, one per accepted step, one per rejected trial
    assert int(counts[0]["pair_passes"]) == (int(counts[0]["iterations"])
                                             + int(counts[0]["backtracks"]))


def test_solve_manifest_reports_mesh_levels(tmp_path):
    text = BASE.format(a=0.0, b=1.0, n=64, family="power", p=3, alpha=0.5, beta=0.5,
                       f="1", k="1", eps0="1e-2", epsmin="1e-6")
    out = tmp_path / "out"
    assert main(["solve", "--config", write(tmp_path, "paper.ini", text),
                 "--out", str(out), "--quiet"]) == 0
    stages = [line for line in (out / "manifest.txt").read_text().splitlines()
              if line.startswith("stage ")]
    cells = [dict(item.split("=") for item in line.split()[1:])["cells"] for line in stages]
    assert cells == ["32"] * 15 + ["64"]


def test_solve_with_capped_coarse_stage_is_inconclusive(tmp_path, monkeypatch):
    minimize = solver.minimize_energy

    def capped(spec, epsilon, u_init, tol=1e-9, max_iter=None):
        if spec.mesh.n == 32 and epsilon == spec.epsilon0:
            max_iter = 5
        return minimize(spec, epsilon, u_init, tol=tol, max_iter=max_iter)

    # only the first coarse stage is capped; every later stage converges
    monkeypatch.setattr(solver, "minimize_energy", capped)
    cfg = singular_config(tmp_path, n=64)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    lines = (out / "manifest.txt").read_text().splitlines()
    stops = [(fields["cells"], fields["stop"]) for fields in
             (dict(item.split("=") for item in line.split()[1:])
              for line in lines if line.startswith("stage "))]
    assert stops == [("32", "max_iter")] + [("32", "pg_tol")] * 7 + [("64", "pg_tol")]
    assert "converged=False" in lines
    assert float(next(line for line in lines if line.startswith("residual_inf="))
                 .split("=")[1]) < 1e-9


def test_solve_nonconverged_is_inconclusive(tmp_path):
    cfg = torsion_config(tmp_path)
    text = open(cfg).read() + "\nmax_iter = 2\n"
    cfg2 = write(tmp_path, "stuck.ini", text.replace("seed = 7", "seed = 7"))
    # put max_iter in [solver]
    cfg_text = open(cfg).read().replace("tol = 1e-9", "tol = 1e-14\nmax_iter = 2")
    cfg3 = write(tmp_path, "stuck2.ini", cfg_text)
    code = main(["solve", "--config", cfg3, "--out", str(tmp_path / "out3"), "--quiet"])
    assert code == 3  # inconclusive, never PASS


@pytest.mark.parametrize("command", ["solve", "compare", "symmetry"])
def test_solver_outputs_do_not_depend_on_seed(tmp_path, command):
    text = BASE.format(a=-1.0, b=1.0, n=24, family="power", p=3,
                       alpha=0.5, beta=0.5, f="bump(0, 0.5)", k="1",
                       eps0="1e-2", epsmin="1e-3")
    cfg = write(tmp_path, "seedless.ini",
                text + "\n[compare]\nf_high = 2\n\n[symmetry]\ninit = 1 + x\n")
    for seed in ("1", "2"):
        assert main([command, "--config", cfg, "--seed", seed,
                     "--out", str(tmp_path / seed), "--quiet"]) == 0
    names = sorted(path.name for path in (tmp_path / "1").glob("solution*.txt"))
    assert names
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("line, flags, key", [
    ("tol = inf", [], "[solver] tol"),
    ("tol = 0", [], "[solver] tol"),
    ("tol = nan", [], "[solver] tol"),
    ("max_iter = 0", [], "[solver] max_iter"),
    ("max_iter = -5", [], "[solver] max_iter"),
    ("tol = 1e-9", ["--seed", "-1"], "[solver] seed"),
], ids=["tol-inf", "tol-0", "tol-nan", "max_iter-0", "max_iter-neg", "seed-neg"])
def test_solver_setting_out_of_range_is_config_error(tmp_path, capsys, line, flags, key):
    text = open(torsion_config(tmp_path, n=16)).read().replace("tol = 1e-9", line)
    cfg = write(tmp_path, "bad_solver.ini", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")] + flags) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_config_error_leaves_no_output_directory(tmp_path, capsys):
    text = open(torsion_config(tmp_path, n=16)).read().replace("tol = 1e-9", "tol = inf")
    cfg = write(tmp_path, "bad_tol.ini", text + "\n[verify]\nsuites = young\nsamples = 10\n")
    out = tmp_path / "never"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert "[solver] tol" in capsys.readouterr().err
    assert not out.exists()


def test_nonfinite_epsilon_is_config_error(tmp_path, capsys):
    text = BASE.format(a=0.0, b=1.0, n=16, family="power", p=3,
                       alpha=0.5, beta=0.5, f="1", k="1", eps0="nan", epsmin="1e-3")
    cfg = write(tmp_path, "nan_eps.ini", text)
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[problem]" in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha, beta, eps0, named", [
    ("52", "0.5", "1e-2", "alpha=52"),
    ("60", "0.5", "1e-2", "alpha=60"), ("200", "0.5", "1e-2", "alpha=200"),
    ("1e3", "0.5", "1e-2", "alpha=1000"), ("0.5", "40", "1e10", "beta=40"),
    ("inf", "0.5", "1e-2", "alpha must be finite and nonnegative, got inf"),
    ("nan", "0.5", "1e-2", "alpha must be finite and nonnegative, got nan"),
    ("0.5", "nan", "1e-2", "beta must be finite and nonnegative, got nan"),
    ("0.5", "inf", "1e-2", "beta must be finite and nonnegative, got inf"),
], ids=["alpha-52", "alpha-60", "alpha-200", "alpha-1e3", "beta-40-eps0-1e10", "alpha-inf",
        "alpha-nan", "beta-nan", "beta-inf"])
def test_degenerate_exponent_is_config_error(tmp_path, capsys, alpha, beta, eps0, named):
    # the forcing's epsilon_min**-alpha overflows a float once alpha > 51.4 at
    # epsilon_min = 1e-6, and epsilon0**(1 + beta) once beta > 29.8 at epsilon0 = 1e10
    text = BASE.format(a=0.0, b=1.0, n=16, family="power", p=3, alpha=alpha, beta=beta,
                       f="1", k="1", eps0=eps0, epsmin="1e-6")
    out = tmp_path / "never"
    assert main(["solve", "--config", write(tmp_path, "exp.ini", text),
                 "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: [problem]: ")
    assert named in lines[0]
    assert not out.exists()


def test_solve_emits_hypothesis_warnings(tmp_path):
    cfg = torsion_config(tmp_path)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "warning=f == 0" in manifest


def test_every_problem_command_writes_and_prints_the_hypothesis_warnings(tmp_path, capsys):
    # beta = 2.5 >= p_minus - 1 = 2 is outside the hypothesis; every
    # command, uniqueness included, warns once per condition
    text = BASE.format(a=0.0, b=1.0, n=16, family="power", p=3,
                       alpha=0.5, beta=2.5, f="1", k="1", eps0="1e-2", epsmin="1e-3")
    cfg = write(tmp_path, "oub.ini",
                text + "\n[compare]\nf_high = 2\n\n[symmetry]\ninit = 1 + x\n")
    manifests, printed = {}, {}
    for command in ("solve", "compare", "uniqueness", "symmetry"):
        out = tmp_path / command
        main([command, "--config", cfg, "--out", str(out)])
        lines = (out / "manifest.txt").read_text().splitlines()
        manifests[command] = [line for line in lines if line.startswith("warning=")]
        printed[command] = [line for line in capsys.readouterr().out.splitlines()
                            if line.startswith("warning: ")]
    expected = manifests["solve"]
    assert any("outside the uniqueness hypothesis" in line for line in expected)
    assert printed["solve"] == [line.replace("=", ": ", 1) for line in expected]
    for command in ("compare", "symmetry"):
        assert manifests[command] == expected and printed[command] == printed["solve"]
    assert manifests["uniqueness"] == expected
    assert printed["uniqueness"] == printed["solve"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_pass_and_determinism(tmp_path):
    cfg = write(tmp_path, "verify.ini", """
[verify]
suites = young, scaling
samples = 4000
families = power3, powerlog3

[solver]
seed = 11
""")
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v1"), "--quiet"])
    assert code == 0
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v2"), "--quiet"])
    assert code == 0
    a = (tmp_path / "v1" / "verify_report.csv").read_bytes()
    b = (tmp_path / "v2" / "verify_report.csv").read_bytes()
    assert a == b
    for w in (tmp_path / "v1").glob("witness_*.txt"):
        assert (tmp_path / "v2" / w.name).read_bytes() == w.read_bytes()
    rows = a.decode().strip().splitlines()
    assert rows[0] == "name,samples,violations,min_gap,witness"
    assert len(rows) == 1 + 2 * 2  # two suites, two families


def test_verify_manifest_reports_suite_timing(tmp_path):
    # one manifest line per suite and family with its seconds and rate;
    # the report and the witnesses carry no timing
    cfg = write(tmp_path, "verify.ini",
                "[verify]\nsuites = young, holder\nsamples = 500\nfamilies = power3, powerlog3\n")
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    timing = [line for line in lines if line.startswith("suite ")]
    seen = set()
    for line in timing:
        fields = dict(item.split("=") for item in line.split()[1:])
        assert set(fields) == {"name", "family", "samples", "seconds", "samples_per_s"}
        assert int(fields["samples"]) == 500
        assert float(fields["seconds"]) >= 0.0 and float(fields["samples_per_s"]) > 0.0
        seen.add((fields["name"], fields["family"]))
    assert seen == {(s, f) for s in ("young", "holder") for f in ("power3", "powerlog3")}
    assert len(timing) == 4
    assert [line for line in lines if line.startswith("verdict=")] == ["verdict=PASS"]
    for path in [out / "verify_report.csv", *out.glob("witness_*.txt")]:
        assert "second" not in path.read_text()


def test_verify_empty_suites_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "empty.ini", "[verify]\nsuites =\n")
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no suites selected" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_samples_below_one_is_config_error(tmp_path, capsys, samples):
    cfg = write(tmp_path, "few.ini",
                f"[verify]\nsuites = young\nsamples = {samples}\nfamilies = power3\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[verify] samples" in err


def test_verify_infinite_samples_is_config_error(tmp_path, capsys):
    # int(float("inf")) overflows; that is a parse failure of the key
    cfg = write(tmp_path, "inf.ini",
                "[verify]\nsuites = young\nsamples = inf\nfamilies = power3\n")
    out = tmp_path / "never"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[verify] samples" in err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["2.5", "1e-3", "nan"])
def test_verify_fractional_samples_is_config_error(tmp_path, capsys, samples):
    cfg = write(tmp_path, "frac.ini",
                f"[verify]\nsuites = young\nsamples = {samples}\nfamilies = power3\n")
    out = tmp_path / "never"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[verify] samples" in err
    assert f"got {float(samples):g}" in err
    assert not out.exists()


def test_verify_samples_in_exponent_notation(tmp_path):
    cfg = write(tmp_path, "exp.ini",
                "[verify]\nsuites = young\nsamples = 2e4\nfamilies = power3\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    with open(tmp_path / "o" / "verify_report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == "20000"


@pytest.mark.parametrize("key, listed, repeated", [
    ("suites", "young, holder, young", "young"),
    ("families", "power3, power4, power3", "power3")])
def test_verify_duplicate_names_are_config_errors(tmp_path, capsys, key, listed, repeated):
    settings = {"suites": "young", "families": "power3", key: listed}
    cfg = write(tmp_path, "dup.ini",
                f"[verify]\nsuites = {settings['suites']}\nsamples = 10\n"
                f"families = {settings['families']}\n")
    out = tmp_path / "never"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"[verify] {key}" in err and repeated in err
    assert not out.exists()


@pytest.mark.parametrize("s", ["0", "1", "1.5", "-0.2"])
def test_verify_order_outside_unit_interval_is_config_error(tmp_path, capsys, s):
    cfg = write(tmp_path, "order.ini",
                "[verify]\nsuites = seminorm_sandwich, diaz_saa\nsamples = 50\n"
                f"families = power3\ns = {s}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[verify] s" in err


def test_verify_report_is_valid_csv(tmp_path):
    # family names such as powersum(p=3,q=4) hold a comma and get quoted
    cfg = write(tmp_path, "csv.ini",
                "[verify]\nsuites = young\nsamples = 200\nfamilies = power3, powersum34\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    with open(tmp_path / "o" / "verify_report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [5, 5, 5]
    assert rows[2][0] == "young[powersum(p=3,q=4)]"
    assert rows[2][4] == "witness_young_powersum34.txt"


def test_verify_unknown_suite_is_config_error(tmp_path):
    cfg = write(tmp_path, "bad.ini", "[verify]\nsuites = nosuch\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key, listed, bad", [
    ("suites", "young, nosuch", "nosuch"),
    ("families", "power3, power9", "power9")])
@pytest.mark.parametrize("out_exists", [False, True])
def test_verify_unknown_name_is_config_error_without_output(tmp_path, capsys, key,
                                                            listed, bad, out_exists):
    # one "config error:" line that names the input; no --out directory is
    # left behind, and no manifest.txt without a verdict in one that was there
    settings = {"suites": "young", "families": "power3", key: listed}
    cfg = write(tmp_path, "unknown.ini",
                f"[verify]\nsuites = {settings['suites']}\nsamples = 10\n"
                f"families = {settings['families']}\n")
    out = tmp_path / "o"
    if out_exists:
        out.mkdir()
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: [verify] unknown {key}: {bad}"]
    assert out.exists() == out_exists
    assert not (out / "manifest.txt").exists()


def test_seed_override_changes_witness(tmp_path):
    cfg = write(tmp_path, "verify.ini",
                "[verify]\nsuites = young\nsamples = 2000\nfamilies = power3\n"
                "\n[solver]\nseed = 1\n")
    main(["verify", "--config", cfg, "--out", str(tmp_path / "w1"), "--quiet"])
    main(["verify", "--config", cfg, "--seed", "2",
          "--out", str(tmp_path / "w2"), "--quiet"])
    a = (tmp_path / "w1" / "verify_report.csv").read_text()
    b = (tmp_path / "w2" / "verify_report.csv").read_text()
    assert a != b


# ---------------------------------------------------------------------------
# compare / uniqueness / symmetry
# ---------------------------------------------------------------------------

def test_compare_pass(tmp_path, capsys):
    cfg = singular_config(tmp_path, extra="\n[compare]\nf_high = 2\n")
    code = main(["compare", "--config", cfg, "--out", str(tmp_path / "c"), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")
    assert (tmp_path / "c" / "solution_low.txt").exists()
    assert (tmp_path / "c" / "solution_high.txt").exists()


def test_compare_requires_high_side(tmp_path):
    cfg = singular_config(tmp_path)
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize("command, extra, named", [
    ("compare", "", "[compare] needs f_high and/or k_high"),
    ("norm", "\n[norm]\nu = 1\nkind = bogus\n", "[norm] kind"),
    ("norm", "\n[norm]\nu = 1\nkind = seminorm_full\ns = 1.5\n",
     "[norm] s must lie in (0, 1), got 1.5"),
    ("verify", "\n[verify]\nsuites = young\nsamples = 10\nfamilies =\n",
     "[verify] no families selected"),
], ids=["compare-no-high-side", "norm-kind-bogus", "norm-s-1.5", "verify-no-families"])
def test_command_config_problem_is_one_config_error(tmp_path, capsys, command, extra, named):
    cfg = singular_config(tmp_path, n=16, extra=extra)
    out = tmp_path / "never"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and named in lines[0]
    assert not out.exists()


def test_uniqueness_pass(tmp_path, capsys):
    cfg = singular_config(tmp_path, n=32)
    code = main(["uniqueness", "--config", cfg, "--out", str(tmp_path / "u"), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")
    assert (tmp_path / "u" / "solution_init2.txt").exists()


def test_uniqueness_out_of_hypothesis_warns(tmp_path):
    text = BASE.format(a=0.0, b=1.0, n=24, family="power", p=3,
                       alpha=0.5, beta=2.5, f="1", k="1",
                       eps0="1e-2", epsmin="1e-3")
    cfg = write(tmp_path, "oub.ini", text)
    code = main(["uniqueness", "--config", cfg, "--out", str(tmp_path / "u2"), "--quiet"])
    manifest = (tmp_path / "u2" / "manifest.txt").read_text()
    assert "out-of-hypothesis" in manifest
    assert code == 0  # reported, not asserted


def test_uniqueness_out_of_hypothesis_is_reported(tmp_path, capsys):
    # beta = 2.5 >= p_minus - 1 = 2: the spread is reported, not judged
    text = BASE.format(a=0.0, b=1.0, n=16, family="power", p=3,
                       alpha=0.5, beta=2.5, f="1", k="1",
                       eps0="1e-2", epsmin="1e-3")
    out = tmp_path / "u"
    assert main(["uniqueness", "--config", write(tmp_path, "rep.ini", text),
                 "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out.startswith("REPORTED")
    assert "verdict=REPORTED" in (out / "manifest.txt").read_text().splitlines()


@pytest.mark.parametrize("command", ["uniqueness", "symmetry"])
@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_threshold_that_cannot_pass_is_config_error(tmp_path, capsys, command, value):
    cfg = singular_config(tmp_path, n=16, extra=f"\n[{command}]\nthreshold = {value}\n")
    out = tmp_path / "never"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"[{command}] threshold" in err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("compare", "\n[compare]\nf_high = 2\n"), ("uniqueness", ""), ("symmetry", "")])
def test_capped_experiment_is_inconclusive(tmp_path, command, extra):
    text = open(singular_config(tmp_path, n=16, extra=extra)).read()
    cfg = write(tmp_path, "capped.ini", text.replace("tol = 1e-9", "tol = 1e-9\nmax_iter = 1"))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert "verdict=INCONCLUSIVE" in (out / "manifest.txt").read_text()


def _stage_fields(out):
    return [dict(item.split("=") for item in line.split()[1:])
            for line in (out / "manifest.txt").read_text().splitlines()
            if line.startswith("stage ")]


def test_experiment_manifests_report_every_solve_stage(tmp_path):
    # eps 1e-2 .. 1e-4: eight coarse stages on 32 cells, then the 64-cell level
    cfg = singular_config(tmp_path, n=64, extra="\n[compare]\nf_high = 2\n\n"
                                                "[symmetry]\ninit = 1 + x\n")
    continuation = ["32"] * 8 + ["64"]
    tagged = {}
    for command in ("compare", "uniqueness", "symmetry"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        fields = _stage_fields(out)
        assert all(f["stop"] == "pg_tol" for f in fields)
        tagged[command] = [(f["solve"], f["cells"]) for f in fields]
        starts = [f for f in fields if f["solve"].startswith("init")]
        assert all((f["cells"], float(f["eps"])) == ("64", 1e-4) for f in starts)
        for path in out.glob("solution*.txt"):
            assert "seconds" not in path.read_text()
    assert tagged["compare"] == ([("low", c) for c in continuation]
                                 + [("high", c) for c in continuation])
    assert tagged["uniqueness"] == ([("reference", c) for c in continuation]
                                    + [(f"init{i}", "64") for i in range(3)])
    assert tagged["symmetry"] == [("init", "64")]


@pytest.mark.parametrize("command", ["uniqueness", "symmetry"])
def test_direct_solve_short_of_pg_tol_is_inconclusive(tmp_path, monkeypatch, command):
    # the continuation converges; only the solves from a start are capped
    continuation, minimize = solver.solve_singular, solver.minimize_energy
    running = []

    def tracked(spec, **kwargs):
        running.append(True)
        try:
            return continuation(spec, **kwargs)
        finally:
            running.pop()

    def capped(spec, epsilon, u_init, tol=1e-9, max_iter=None):
        return minimize(spec, epsilon, u_init, tol=tol, max_iter=max_iter if running else 3)

    monkeypatch.setattr(solver, "solve_singular", tracked)
    monkeypatch.setattr(solver, "minimize_energy", capped)
    out = tmp_path / "o"
    cfg = singular_config(tmp_path, n=32, extra="\n[symmetry]\ninit = 1 + x\n")
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 3
    assert "verdict=INCONCLUSIVE" in (out / "manifest.txt").read_text()
    stops = {(f["solve"], f["stop"]) for f in _stage_fields(out)}
    assert {stop for solve, stop in stops if solve.startswith("init")} == {"max_iter"}
    assert {stop for solve, stop in stops if not solve.startswith("init")} <= {"pg_tol"}


def test_uniqueness_fail(tmp_path, capsys):
    cfg = singular_config(tmp_path, n=32, extra="\n[uniqueness]\nthreshold = 1e-300\n")
    out = tmp_path / "u"
    assert main(["uniqueness", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().out.startswith("FAIL")
    manifest = (out / "manifest.txt").read_text()
    assert "verdict=FAIL" in manifest
    assert float(manifest.split("max_pairwise=")[1].split()[0]) > 0.0


def test_symmetry_pass_and_control(tmp_path, capsys):
    sym = BASE.format(a=-1.0, b=1.0, n=32, family="power", p=3,
                      alpha=0.5, beta=0.5, f="bump(0, 0.5)", k="1",
                      eps0="1e-2", epsmin="1e-3") + "\n[symmetry]\ninit = 1 + x\n"
    cfg = write(tmp_path, "sym.ini", sym)
    code = main(["symmetry", "--config", cfg, "--out", str(tmp_path / "s"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")
    control = sym.replace("bump(0, 0.5)", "bump(0.3, 0.5)")
    cfg2 = write(tmp_path, "ctrl.ini", control)
    code = main(["symmetry", "--config", cfg2, "--out", str(tmp_path / "s2"), "--quiet"])
    assert code == 0
    # control run is labeled, not judged
    assert "verdict=CONTROL" in (tmp_path / "s2" / "manifest.txt").read_text()


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------

def test_norm_analytic_value(tmp_path, capsys):
    cfg = write(tmp_path, "norm.ini", """
[mesh]
a = 0
b = 1
n = 64

[nfunction]
family = power
p = 2

[norm]
u = 1
kind = LG
""")
    code = main(["norm", "--config", cfg, "--out", str(tmp_path / "n")])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split("norm=")[1].split()[0])
    assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-5)
    assert "bisection_residual=" in out


def test_norm_homogeneity_through_cli(tmp_path, capsys):
    template = """
[mesh]
a = 0
b = 1
n = 64

[nfunction]
family = powersum
p = 3
q = 4

[norm]
u = {expr}
kind = seminorm_full
s = 0.5
"""
    cfg1 = write(tmp_path, "n1.ini", template.format(expr="bump(0.5, 0.2)"))
    cfg2 = write(tmp_path, "n2.ini", template.format(expr="2 * bump(0.5, 0.2)"))
    main(["norm", "--config", cfg1, "--out", str(tmp_path / "na")])
    v1 = float(capsys.readouterr().out.split("norm=")[1].split()[0])
    main(["norm", "--config", cfg2, "--out", str(tmp_path / "nb")])
    v2 = float(capsys.readouterr().out.split("norm=")[1].split()[0])
    assert v2 == pytest.approx(2.0 * v1, rel=1e-9)


def test_norm_of_constant_seminorm_is_zero(tmp_path, capsys):
    # the domain seminorm modular of a constant field vanishes at every
    # scale, so its Luxemburg gauge is 0 rather than an unbracketable level
    cfg = write(tmp_path, "flat.ini",
                "[mesh]\na = 0\nb = 1\nn = 16\n\n[nfunction]\nfamily = power\np = 2\n"
                "\n[norm]\nu = 1\nkind = seminorm_omega\n")
    code = main(["norm", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    assert "norm=0 " in capsys.readouterr().out


@pytest.mark.parametrize("error", [ModularNotDecreasingError, BracketExpansionError],
                         ids=lambda e: e.__name__)
def test_numeric_failure_is_inconclusive_error(tmp_path, capsys, monkeypatch, error):
    import fracorlicz.cli as cli

    def broken(u, modular_fn):
        raise error("level not bracketed")

    monkeypatch.setattr(cli, "luxemburg_norm", broken)
    cfg = write(tmp_path, "err.ini",
                "[mesh]\na = 0\nb = 1\nn = 16\n\n[nfunction]\nfamily = power\np = 2\n"
                "\n[norm]\nu = x\n")
    code = main(["norm", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and "level not bracketed" in err
    assert "verdict=ERROR" in (tmp_path / "o" / "manifest.txt").read_text()


def test_missing_listed_output_is_inconclusive_error(tmp_path, capsys, monkeypatch):
    import fracorlicz.cli as cli

    def lists_missing(run):
        run.manifest.add_output(run.out / "never_written.txt")
        return cli.EXIT_OK

    monkeypatch.setitem(cli.COMMANDS, "norm", lists_missing)
    cfg = write(tmp_path, "missing.ini", "[mesh]\na = 0\nb = 1\nn = 16\n")
    code = main(["norm", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "never_written.txt" in err


def test_norm_bad_kind(tmp_path):
    cfg = write(tmp_path, "badkind.ini",
                "[mesh]\na = 0\nb = 1\nn = 16\n\n[nfunction]\nfamily = power\np = 2\n"
                "\n[norm]\nu = 1\nkind = L7\n")
    assert main(["norm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_malformed_config_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "broken.ini", "[mesh\na = 0\n")
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_expression_exit_2(tmp_path, capsys):
    text = BASE.format(a=0.0, b=1.0, n=24, family="power", p=3,
                       alpha=0.5, beta=0.5, f="sin(x)", k="1",
                       eps0="1e-2", epsmin="1e-3")
    cfg = write(tmp_path, "badexpr.ini", text)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "column" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["-" * 1200 + "1", "(" * 300 + "1" + ")" * 300],
                         ids=["1200-minus-signs", "300-parentheses"])
def test_deeply_nested_expression_is_config_error(tmp_path, capsys, expr):
    text = BASE.format(a=0.0, b=1.0, n=16, family="power", p=3,
                       alpha=0.5, beta=0.5, f=expr, k="1",
                       eps0="1e-2", epsmin="1e-3")
    cfg = write(tmp_path, "deep.ini", text)
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: coefficient f: column ")
    assert not out.exists()


def test_nonfinite_coefficient_is_named_config_error(tmp_path, capsys, recwarn):
    # the cell-centred mesh on [-1, 1] with 33 cells has a node at x = 0
    text = BASE.format(a=-1.0, b=1.0, n=33, family="power", p=3,
                       alpha=0.5, beta=0.5, f="pow(x, -1)", k="1",
                       eps0="1e-2", epsmin="1e-3")
    cfg = write(tmp_path, "pole.ini", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "coefficient f" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_missing_config_exit_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2


def test_config_digest_canonical(tmp_path):
    a = load_config(write(tmp_path, "a.ini", "[mesh]\na = 0\nb = 1\nn = 16\n"))
    b = load_config(write(tmp_path, "b.ini", "[mesh]\nn = 16\nb   =   1\na = 0\n"))
    assert config_digest(a) == config_digest(b)


def test_coefficient_from_file(tmp_path, capsys):
    mesh = Mesh(0.0, 1.0, 16)
    field = GridFunction(mesh, 1.0 + mesh.nodes)
    (tmp_path / "coef.txt").write_text(field.to_text())
    text = BASE.format(a=0.0, b=1.0, n=16, family="power", p=3,
                       alpha=0.5, beta=0.5, f="file:coef.txt", k="1",
                       eps0="1e-2", epsmin="1e-3")
    cfg = write(tmp_path, "filecoef.ini", text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "fo"), "--quiet"]) == 0


def test_one_column_coefficient_file_is_config_error(tmp_path, capsys):
    (tmp_path / "coef.txt").write_text("0.03125\n0.09375\n")
    text = BASE.format(a=0.0, b=1.0, n=16, family="power", p=3,
                       alpha=0.5, beta=0.5, f="file:coef.txt", k="1",
                       eps0="1e-2", epsmin="1e-3")
    cfg = write(tmp_path, "onecol.ini", text)
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: coefficient f: ")
    assert not out.exists()


TABULATED = """
[mesh]
a = 0
b = 1
n = 32

[nfunction]
family = tabulated
table = table.txt

[norm]
u = 1
kind = LG
"""


@pytest.mark.parametrize("table", ["1 0.5\n", "1\n2\n3\n4\n5\n"],
                         ids=["one-row", "one-column"])
def test_malformed_table_file_is_config_error(tmp_path, capsys, table):
    (tmp_path / "table.txt").write_text(table)
    cfg = write(tmp_path, "tab.ini", TABULATED)
    out = tmp_path / "never"
    assert main(["norm", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: [nfunction]: ")
    assert not out.exists()


def test_tabulated_nfunction_from_config(tmp_path, capsys):
    t = np.logspace(-6, 6, 400)
    np.savetxt(tmp_path / "table.txt", np.column_stack([t, t ** 3 / 3.0]))
    cfg = write(tmp_path, "tab.ini", TABULATED)
    code = main(["norm", "--config", cfg, "--out", str(tmp_path / "t")])
    out = capsys.readouterr().out
    assert code == 0
    # closed form: modular(1/lam) = lam^-3 / 3 = 1 at lam = 3^(-1/3)
    value = float(out.split("norm=")[1].split()[0])
    assert value == pytest.approx(3.0 ** (-1.0 / 3.0), rel=1e-4)


def test_solution_files_deterministic(tmp_path):
    cfg = singular_config(tmp_path, n=24)
    main(["solve", "--config", cfg, "--out", str(tmp_path / "d1"), "--quiet"])
    main(["solve", "--config", cfg, "--out", str(tmp_path / "d2"), "--quiet"])
    a = (tmp_path / "d1" / "solution.txt").read_bytes()
    b = (tmp_path / "d2" / "solution.txt").read_bytes()
    assert a == b


def test_cli_import_loads_no_scipy():
    # the runtime is numpy-only: scipy is a test dependency
    src = os.path.dirname(os.path.dirname(fracorlicz.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, fracorlicz.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"

