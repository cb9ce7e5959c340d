"""Workload definitions: the CLI commands each workload runs, with configs.

A workload is a list of commands, each one `fracorlicz.cli.main` invocation
with a config text and a seed.  The benchmark seed replaces the workload's
default seed; a command whose own default differs (the torsion solve) keeps
its offset from it, so the defaults reproduce the documented runs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

SEED_MODULUS = 2 ** 32
TOL = 1e-9  # solver tolerance; every solve's final residual_inf must be below it

ALL_SUITES = ("young, scaling, modular_norm_sandwich, seminorm_sandwich, holder, "
              "conjugate_sandwich, monotone_difference, hidden_convexity, picone, "
              "diaz_saa")
ALL_FAMILIES = "power3, power4, powersum34, powerlog3"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the checks its outputs must pass."""

    name: str           # unique within the workload; names the output dir
    command: str        # CLI subcommand
    config: str         # INI text
    seed: int
    torsion: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    commands: List[Command]

    def with_seed(self, seed: int) -> List[Command]:
        shift = seed - self.default_seed
        return [Command(c.name, c.command, c.config, (c.seed + shift) % SEED_MODULUS,
                        c.torsion) for c in self.commands]


def _solver_section(seed: int, max_iter: Optional[int] = None) -> str:
    text = f"[solver]\ntol = {TOL!r}\nseed = {seed}\n"
    if max_iter is not None:
        text += f"max_iter = {max_iter}\n"
    return text


def paper_config(n: int, seed: int = 11, epsilon_min: float = 1e-6,
                 max_iter: Optional[int] = None) -> str:
    """p = 3 power, s = alpha = beta = 1/2, f = k = 1 on (0, 1), plus the
    sections the compare, uniqueness and symmetry commands read."""
    return (
        f"[mesh]\na = 0.0\nb = 1.0\nn = {n}\n\n"
        "[nfunction]\nfamily = power\np = 3\n\n"
        "[problem]\ns = 0.5\nalpha = 0.5\nbeta = 0.5\nf = 1\nk = 1\n"
        f"epsilon0 = 1e-2\nepsilon_min = {epsilon_min!r}\n\n"
        + _solver_section(seed, max_iter) + "\n"
        "[compare]\nf_high = 2\n\n"
        "[uniqueness]\nthreshold = 1e-5\n\n"
        "[symmetry]\ninit = 1 + x\n"
    )


def torsion_config(n: int, seed: int = 7) -> str:
    """p = 2, alpha = beta = 0, f = 0, k = 1 on (-1, 1): closed-form solution."""
    return (
        f"[mesh]\na = -1.0\nb = 1.0\nn = {n}\n\n"
        "[nfunction]\nfamily = power\np = 2\n\n"
        "[problem]\ns = 0.5\nalpha = 0.0\nbeta = 0.0\nf = 0\nk = 1\n"
        "epsilon0 = 1e-2\nepsilon_min = 1e-2\n\n"
        + _solver_section(seed)
    )


def verify_config(samples: int, seed: int = 42) -> str:
    return (
        f"[verify]\nsuites = {ALL_SUITES}\nsamples = {samples}\n"
        f"families = {ALL_FAMILIES}\n\n[solver]\nseed = {seed}\n"
    )


def solve_workload(name: str = "solve-n400", n: int = 400, epsilon_min: float = 1e-6,
                   max_iter: Optional[int] = None) -> Workload:
    return Workload(name, 11, [
        Command("paper", "solve", paper_config(n, 11, epsilon_min, max_iter=max_iter), 11),
        Command("torsion", "solve", torsion_config(n, 7), 7, torsion=True),
    ])


def experiments_workload(name: str = "experiments-n200", n: int = 200,
                         epsilon_min: float = 1e-6) -> Workload:
    config = paper_config(n, 11, epsilon_min)
    return Workload(name, 11, [
        Command("compare", "compare", config, 11),
        Command("uniqueness", "uniqueness", config, 11),
        Command("symmetry", "symmetry", config, 11),
    ])


def verify_workload(name: str = "verify-20k", samples: int = 20000) -> Workload:
    return Workload(name, 42, [Command("verify", "verify", verify_config(samples), 42)])


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (solve_workload(), experiments_workload(), verify_workload())
}
