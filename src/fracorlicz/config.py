"""Experiment configuration: INI-style structured text.

Sections: [mesh] a, b, n; [nfunction] family + parameters (or a
two-column table file); [problem] s, alpha, beta, f, k (expression or
file:PATH), epsilon0, epsilon_min, optional obstacle; [solver] tol
(finite, > 0), max_iter (>= 1), seed (>= 0); plus per-command sections
([verify], [compare], [uniqueness], [symmetry], [norm]); the [uniqueness]
and [symmetry] thresholds must be finite and > 0 as well, and the [verify]
and [norm] orders s must lie in (0, 1).

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


def get_setting(parser, section, key, cast, default=None, required=False):
    if section not in parser or key not in parser[section]:
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = parser[section][key].strip()
    try:
        return cast(raw)
    except (ValueError, TypeError, OverflowError) as err:   # int(float("inf")) overflows
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from err


def positive_setting(parser, section, key, default: float) -> float:
    """A float setting that must be finite and > 0, else a ConfigError naming it."""
    value = get_setting(parser, section, key, float, default=default)
    if not (np.isfinite(value) and value > 0.0):
        raise ConfigError(f"[{section}] {key} must be finite and positive, got {value}")
    return value


def fraction_setting(parser, section, key, default: float) -> float:
    """A float setting in the open interval (0, 1), else a ConfigError naming it."""
    value = get_setting(parser, section, key, float, default=default)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"[{section}] {key} must lie in (0, 1), got {value}")
    return value


def name_list(parser, section, key, known, default: str = "") -> list:
    """A comma-separated list of names from known, each at most once.

    An empty list, an unknown name or a repeated one is a ConfigError
    naming the key.
    """
    raw = get_setting(parser, section, key, str, default=default)
    names = [item.strip() for item in raw.split(",") if item.strip()]
    if not names:
        raise ConfigError(f"[{section}] no {key} selected")
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigError(f"[{section}] unknown {key}: {', '.join(unknown)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"[{section}] {key} lists {', '.join(repeated)} more than once")
    return names


def build_mesh(parser) -> Mesh:
    a = get_setting(parser, "mesh", "a", float, required=True)
    b = get_setting(parser, "mesh", "b", float, required=True)
    n = get_setting(parser, "mesh", "n", int, required=True)
    try:
        return Mesh(a, b, n)
    except ValueError as err:
        raise ConfigError(f"[mesh]: {err}") from err


def build_nfunction(parser, base_dir: Optional[Path] = None) -> NFunction:
    family = get_setting(parser, "nfunction", "family", str, required=True).lower()
    try:
        if family == "tabulated":
            rel = get_setting(parser, "nfunction", "table", str, required=True)
            path = (base_dir / rel) if base_dir else Path(rel)
            data = np.loadtxt(path, ndmin=2)
            if data.shape[1] != 2:
                raise ValueError(f"table {rel} needs two columns (t, G(t)), "
                                 f"got {data.shape[1]}")
            return construct_nfunction("tabulated", abscissa=data[:, 0],
                                       values=data[:, 1], label=path.stem)
        params = {}
        for key in ("p", "q"):
            val = get_setting(parser, "nfunction", key, float)
            if val is not None:
                params[key] = val
        return construct_nfunction(family, **params)
    except KeyError as err:   # a parameter the family needs and the config lacks
        raise ConfigError(f"missing [nfunction] {err.args[0]}") from err
    except (ValueError, OSError) as err:
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
    s = get_setting(parser, "problem", "s", float, required=True)
    alpha = get_setting(parser, "problem", "alpha", float, default=0.0)
    beta = get_setting(parser, "problem", "beta", float, default=0.0)
    f_raw = get_setting(parser, "problem", "f", str, required=True)
    k_raw = get_setting(parser, "problem", "k", str, required=True)
    eps0 = get_setting(parser, "problem", "epsilon0", float, default=1e-2)
    eps_min = get_setting(parser, "problem", "epsilon_min", float, default=1e-6)
    obstacle_raw = get_setting(parser, "problem", "obstacle", str)
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
    tol = positive_setting(parser, "solver", "tol", 1e-9)
    max_iter = get_setting(parser, "solver", "max_iter", int, default=None)
    if max_iter is not None and max_iter < 1:
        raise ConfigError(f"[solver] max_iter must be at least 1, got {max_iter}")
    seed = get_setting(parser, "solver", "seed", int, default=0)
    if seed_override is not None:
        seed = seed_override
    if seed < 0:
        raise ConfigError(f"[solver] seed (or --seed) must be nonnegative, got {seed}")
    return SolverSettings(tol=tol, max_iter=max_iter, seed=seed)
