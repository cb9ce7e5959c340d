"""Experiment configuration: INI-style structured text.

Sections: [mesh] a, b, n; [nfunction] family + parameters (or a
two-column table file); [problem] s, alpha, beta, f, k (expression or
file:PATH), epsilon0, epsilon_min, optional obstacle; [solver] tol
(finite, > 0), max_iter (>= 1), seed (>= 0); plus per-command sections
([verify], [compare], [uniqueness], [symmetry], [norm]).

The config digest is the SHA-256 of the canonicalized bytes (sorted
sections and keys, normalized whitespace), so reordering a file does not
change its identity.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .nfunctions import NFunction, construct_nfunction
from .grid import Mesh, GridFunction
from .solver import ProblemSpec
from .expressions import evaluate_expression, ExpressionError


class ConfigError(ValueError):
    """Malformed configuration; message carries location when known."""


@dataclass(frozen=True)
class SolverSettings:
    tol: float = 1e-9
    max_iter: Optional[int] = None
    seed: int = 0


def load_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as err:
        lineno = getattr(err, "lineno", None)
        if lineno is None and getattr(err, "errors", None):
            lineno = err.errors[0][0]
        where = f"line {lineno}: " if lineno else ""
        raise ConfigError(f"{where}{err.message if hasattr(err, 'message') else err}") from err
    return parser


def config_digest(parser: configparser.ConfigParser) -> str:
    lines = []
    for section in sorted(parser.sections()):
        for key in sorted(parser[section]):
            lines.append(f"{section}.{key}={parser[section][key].strip()}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _get(parser, section, key, cast, default=None, required=False):
    if section not in parser or key not in parser[section]:
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = parser[section][key].strip()
    try:
        return cast(raw)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from err


def build_mesh(parser) -> Mesh:
    a = _get(parser, "mesh", "a", float, required=True)
    b = _get(parser, "mesh", "b", float, required=True)
    n = _get(parser, "mesh", "n", int, required=True)
    try:
        return Mesh(a, b, n)
    except ValueError as err:
        raise ConfigError(f"[mesh]: {err}") from err


def build_nfunction(parser, base_dir: Optional[Path] = None) -> NFunction:
    family = _get(parser, "nfunction", "family", str, required=True).lower()
    try:
        if family == "tabulated":
            rel = _get(parser, "nfunction", "table", str, required=True)
            path = (base_dir / rel) if base_dir else Path(rel)
            data = np.loadtxt(path)
            return construct_nfunction("tabulated", abscissa=data[:, 0],
                                       values=data[:, 1], label=path.stem)
        params = {}
        for key in ("p", "q"):
            val = _get(parser, "nfunction", key, float)
            if val is not None:
                params[key] = val
        return construct_nfunction(family, **params)
    except (ValueError, OSError, KeyError) as err:
        raise ConfigError(f"[nfunction]: {err}") from err


def coefficient_field(raw: str, mesh: Mesh, label: str,
                      base_dir: Optional[Path] = None) -> GridFunction:
    """Expression or file:PATH -> grid function on the mesh."""
    raw = raw.strip()
    if raw.startswith("file:"):
        rel = raw[len("file:"):].strip()
        path = (base_dir / rel) if base_dir else Path(rel)
        try:
            return GridFunction.from_text(path.read_text(encoding="utf-8"), mesh, label)
        except (OSError, ValueError) as err:
            raise ConfigError(f"coefficient {label}: {err}") from err
    try:
        # a non-finite value is reported below, naming the coefficient
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values = evaluate_expression(raw, mesh.nodes)
        return GridFunction(mesh, values * np.ones(mesh.n), label)
    except (ExpressionError, ValueError) as err:
        raise ConfigError(f"coefficient {label}: {err}") from err


def build_problem(parser, mesh: Mesh, G: NFunction,
                  base_dir: Optional[Path] = None) -> ProblemSpec:
    s = _get(parser, "problem", "s", float, required=True)
    alpha = _get(parser, "problem", "alpha", float, default=0.0)
    beta = _get(parser, "problem", "beta", float, default=0.0)
    f_raw = _get(parser, "problem", "f", str, required=True)
    k_raw = _get(parser, "problem", "k", str, required=True)
    eps0 = _get(parser, "problem", "epsilon0", float, default=1e-2)
    eps_min = _get(parser, "problem", "epsilon_min", float, default=1e-6)
    obstacle_raw = _get(parser, "problem", "obstacle", str)
    f = coefficient_field(f_raw, mesh, "f", base_dir)
    k = coefficient_field(k_raw, mesh, "k", base_dir)
    obstacle = (coefficient_field(obstacle_raw, mesh, "obstacle", base_dir)
                if obstacle_raw else None)
    try:
        return ProblemSpec(G=G, s=s, alpha=alpha, beta=beta, f=f, k=k,
                           epsilon0=eps0, epsilon_min=eps_min, obstacle=obstacle)
    except ValueError as err:
        raise ConfigError(f"[problem]: {err}") from err


def build_solver_settings(parser, seed_override: Optional[int] = None) -> SolverSettings:
    tol = _get(parser, "solver", "tol", float, default=1e-9)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"[solver] tol must be finite and positive, got {tol}")
    max_iter = _get(parser, "solver", "max_iter", int, default=None)
    if max_iter is not None and max_iter < 1:
        raise ConfigError(f"[solver] max_iter must be at least 1, got {max_iter}")
    seed = _get(parser, "solver", "seed", int, default=0)
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        raise ConfigError(f"[solver] seed (or --seed) must be nonnegative, got {seed}")
    return SolverSettings(tol=tol, max_iter=max_iter, seed=seed)


def parse_list(raw: str) -> list:
    return [item.strip() for item in raw.split(",") if item.strip()]
