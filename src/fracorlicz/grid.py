"""One-dimensional meshes, grid functions, and Orlicz modulars.

The domain (a, b) is split into n cells with cell-centered nodes; grid
functions carry one value per node and are extended by zero outside the
domain.  Cell centers keep the singular kernel |x - y|^(-1-s) away from
coincident node pairs, and the midpoint rule is used throughout.

The nonlocal (Gagliardo-type) modular comes in two flavours: the double sum
over the domain only, and the full-space version that adds, for every node,
the exact integral of the kernel against the zero exterior.  The exterior
term reduces in closed form to the cumulative integral of G(r)/r (see
NFunction.integral_over_t), so no truncation radius enters the value.

The kernel powers depend only on |i - j|, so they are cached as O(n) data
behind (n, n) Toeplitz views, and one row-blocked pair pass yields the
double sum of G (the modular), of g (the operator), or both at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .nfunctions import NFunction, BracketExpansionError, solve_increasing

__all__ = [
    "Mesh", "GridFunction", "modular", "seminorm_modular", "luxemburg_norm",
    "lg_norm", "gagliardo_seminorm", "difference_quotients", "holder_pairing_check",
    "poincare_constant_estimate", "random_fourier", "random_positive",
    "ModularNotDecreasingError",
]


class ModularNotDecreasingError(RuntimeError):
    """The Luxemburg solve could not bracket the unit level of the modular.

    Signals a broken modular callable, not bad data.
    """


@dataclass(frozen=True)
class Mesh:
    """Cell-centered mesh on (a, b) with n cells."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (self.b > self.a):
            raise ValueError("mesh needs b > a")
        if self.n < 8:
            raise ValueError("mesh needs at least 8 cells")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.a + (np.arange(self.n) + 0.5) * self.h


@dataclass(frozen=True)
class GridFunction:
    """Nodal values on a mesh, implicitly zero outside (a, b)."""

    mesh: Mesh
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        if values.shape != (self.mesh.n,):
            raise ValueError(f"expected {self.mesh.n} nodal values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, mesh: Mesh, value: float, label: str = "") -> "GridFunction":
        return cls(mesh, np.full(mesh.n, float(value)), label)

    @classmethod
    def zeros(cls, mesh: Mesh, label: str = "") -> "GridFunction":
        return cls(mesh, np.zeros(mesh.n), label)

    def with_values(self, values, label: Optional[str] = None) -> "GridFunction":
        return GridFunction(self.mesh, values, self.label if label is None else label)

    def __add__(self, other):
        self._check_mesh(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other):
        self._check_mesh(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, scalar):
        return self.with_values(self.values * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.with_values(self.values / float(scalar))

    def _check_mesh(self, other):
        if other.mesh != self.mesh:
            raise ValueError("grid functions live on different meshes")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        return float(np.sqrt(self.mesh.h * np.sum(self.values ** 2)))

    def to_text(self) -> str:
        """Two-column serialization (x_i, value), round-trip exact."""
        lines = [f"{x:.17g} {v:.17g}" for x, v in zip(self.mesh.nodes, self.values)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, mesh: Mesh, label: str = "") -> "GridFunction":
        rows = [line.split() for line in text.strip().splitlines() if line.strip()]
        values = np.array([float(r[1]) for r in rows])
        xs = np.array([float(r[0]) for r in rows])
        if len(values) != mesh.n or not np.allclose(xs, mesh.nodes, atol=1e-12):
            raise ValueError("serialized grid function does not match the mesh")
        return cls(mesh, values, label)


# ---------------------------------------------------------------------------
# Kernel geometry, cached per (mesh, s)
# ---------------------------------------------------------------------------

PAIR_BLOCK = 64  # rows per slab of the pair pass: cache-sized, few Python steps


@functools.lru_cache(maxsize=8)
def _kernel(mesh: Mesh, s: float):
    """Pairwise powers 1/d^s, 1/d, 1/d^(1+s) (zero diagonal), boundary powers.

    d = h |i - j| makes each pairwise power a read-only Toeplitz view.
    """
    d = mesh.h * np.arange(1, mesh.n)
    x = mesh.nodes
    view = lambda v: sliding_window_view(np.concatenate([v[::-1], [0.0], v]), mesh.n)[::-1]
    return (view(d ** (-s)), view(1.0 / d), view(d ** (-1.0 - s)),
            (x - mesh.a) ** (-s), (mesh.b - x) ** (-s))


def difference_quotients(values: np.ndarray, mesh: Mesh, s: float):
    """(|u_i - u_j| / d_ij^s over all ordered node pairs, their weights 1 / d_ij).

    The quotients are flattened per row of values (leading batch axes are
    kept) and the weights flattened alike, diagonal pairs 0 in both, so
    h^2 sum(w G(q)) is the domain Gagliardo modular of each row.
    """
    inv_s, inv_1, _, _, _ = _kernel(mesh, s)
    q = np.abs(values[..., :, None] - values[..., None, :]) * inv_s
    return q.reshape(values.shape[:-1] + (-1,)), inv_1.ravel()


def _check_order(s: float):
    if not (0.0 < s < 1.0):
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")


# ---------------------------------------------------------------------------
# Modulars
# ---------------------------------------------------------------------------

def modular(u: GridFunction, G: NFunction) -> float:
    """Integral of G(|u|) over the domain (midpoint rule)."""
    return float(u.mesh.h * np.sum(G(np.abs(u.values))))


def _pair_pass(values: np.ndarray, G: NFunction, mesh: Mesh, s: float,
               energy: bool, gradient: bool):
    """(h^2 sum_ij G(q_ij) / d_ij, 2h sum_j g(q_ij) sign(u_i - u_j) / d_ij^(1+s)).

    q_ij = |u_i - u_j| / d_ij^s over i != j; a part not asked for is None,
    and values may carry batch axes.  A block of rows meets the columns from
    its first row on, so pairs across blocks are evaluated once: G terms are
    symmetric, g terms antisymmetric (later columns take negated sums).
    """
    inv_s, inv_1, inv_1s, _, _ = _kernel(mesh, s)
    total = 0.0
    grad = np.zeros(values.shape) if gradient else None
    for lo in range(0, mesh.n, PAIR_BLOCK):
        b = min(PAIR_BLOCK, mesh.n - lo)
        diff = values[..., lo:lo + b, None] - values[..., None, lo:]
        q = np.abs(diff) * inv_s[lo:lo + b, lo:]
        if energy:
            e, w = G(q), inv_1[lo:lo + b, lo:]
            total = total + (2.0 * np.einsum("...ij,ij->...", e, w)
                             - np.einsum("...ij,ij->...", e[..., :b], w[:, :b]))
        if gradient:
            t = np.copysign(G.deriv(q), diff) * inv_1s[lo:lo + b, lo:]
            grad[..., lo:lo + b] += t.sum(axis=-1)
            grad[..., lo + b:] -= t[..., b:].sum(axis=-2)
    return (mesh.h ** 2 * total if energy else None,
            2.0 * mesh.h * grad if gradient else None)


def exterior_tail_energy(values: np.ndarray, G: NFunction, mesh: Mesh, s: float) -> float:
    """Exact kernel integral of the zero extension against every node.

    Per node and per side the integral over exterior distance r of
    G(|u| / r^s) / r from the boundary gap to infinity equals
    integral_over_t(|u| * gap^{-s}) / s; the symmetric pair orders
    contribute the factor 2.
    """
    _, _, _, left_s, right_s = _kernel(mesh, s)
    c = np.abs(values)
    lam = G.integral_over_t
    return float(2.0 * mesh.h / s * np.sum(lam(c * left_s) + lam(c * right_s)))


def exterior_tail_gradient(values: np.ndarray, G: NFunction, mesh: Mesh, s: float) -> np.ndarray:
    """Derivative of exterior_tail_energy / (2 h) with respect to each node.

    Equals sign(u_i) * (G(|u_i| dl^-s) + G(|u_i| dr^-s)) / (s |u_i|), the
    exact weak-form pairing of the operator against the exterior zeros;
    values may carry leading batch axes.
    """
    _, _, _, left_s, right_s = _kernel(mesh, s)
    c = np.abs(values)
    contrib = G(c * left_s) + G(c * right_s)
    return np.sign(values) * contrib / (s * np.where(c > 0.0, c, 1.0))


def seminorm_modular(u: GridFunction, G: NFunction, s: float,
                     domain: str = "omega") -> float:
    """Gagliardo-type modular of u at order s.

    domain "omega": double sum over domain node pairs (diagonal excluded;
    the diagonal-cell integrand vanishes under refinement for s < 1).
    domain "full": adds the exact exterior contribution of the zero
    extension, making the value the full-space modular.
    """
    _check_order(s)
    interior = float(_pair_pass(u.values, G, u.mesh, s, energy=True, gradient=False)[0])
    if domain == "omega":
        return interior
    if domain == "full":
        return interior + exterior_tail_energy(u.values, G, u.mesh, s)
    raise ValueError(f"unknown modular domain {domain!r}")


# ---------------------------------------------------------------------------
# The discrete nonlocal operator (h-normalized gradient of the modular)
# ---------------------------------------------------------------------------

def operator_apply(values: np.ndarray, G: NFunction, mesh: Mesh, s: float) -> np.ndarray:
    """Apply the discrete fractional operator induced by G to a nodal field.

    Component i is 2h * sum_{j != i} g(|u_i - u_j| / d_ij^s) sign(u_i - u_j)
    / d_ij^(1+s) plus twice the exact exterior-tail term; this equals the
    gradient of the full-space modular with respect to u_i divided by h;
    values may carry leading batch axes.
    """
    interior = _pair_pass(values, G, mesh, s, energy=False, gradient=True)[1]
    return interior + 2.0 * exterior_tail_gradient(values, G, mesh, s)


operator_apply_batch = operator_apply  # the randomized sweeps' name for batches


def modular_and_operator(values: np.ndarray, G: NFunction, mesh: Mesh, s: float):
    """seminorm_modular(..., "full") and operator_apply from one pair pass."""
    interior, grad = _pair_pass(values, G, mesh, s, energy=True, gradient=True)
    return (float(interior) + exterior_tail_energy(values, G, mesh, s),
            grad + 2.0 * exterior_tail_gradient(values, G, mesh, s))


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------

def _unit_level_gauge(level: Callable, rows: np.ndarray) -> np.ndarray:
    """Luxemburg gauge 1 / mu of each listed row, where level(mu, rows) = 1.

    level must be nondecreasing in the scale factor mu applied to the row.
    """
    try:
        mu = solve_increasing(level, np.ones(len(rows)), args=(rows,))
    except BracketExpansionError as err:
        raise ModularNotDecreasingError(f"no unit level of the modular: {err}") from err
    return 1.0 / mu


def luxemburg_norm(u: GridFunction, modular_fn: Callable[[GridFunction], float]) -> float:
    """inf(lambda > 0 : modular(u / lambda) <= 1) by a bracketed monotone solve.

    The scaled modular modular(mu u) is solved for the unit level in mu to
    relative accuracy BISECT_REL_TOL (nfunctions.solve_increasing), and the
    norm is 1 / mu.  Returns 0 where the modular vanishes at u, e.g. u = 0.
    """
    if modular_fn(u) == 0.0:
        return 0.0
    level = lambda mu, _rows: np.array([modular_fn(u * m) for m in mu])
    return float(_unit_level_gauge(level, np.zeros(1, dtype=int))[0])


def lg_norm(u: GridFunction, G: NFunction) -> float:
    """Luxemburg norm of the plain Orlicz modular."""
    return luxemburg_norm(u, lambda w: modular(w, G))


def gagliardo_seminorm(u: GridFunction, G: NFunction, s: float,
                       domain: str = "omega") -> float:
    """Luxemburg gauge of the Gagliardo modular (domain or full-space)."""
    return luxemburg_norm(u, lambda w: seminorm_modular(w, G, s, domain))


# ---------------------------------------------------------------------------
# Batched helpers for the randomized sweeps (samples stacked row-wise)
# ---------------------------------------------------------------------------

def batch_modular(values: np.ndarray, h: float, G_eval: Callable) -> np.ndarray:
    return h * np.sum(G_eval(np.abs(values)), axis=-1)


def batch_luxemburg(values: np.ndarray, h: float, G_eval: Callable) -> np.ndarray:
    """Row-wise Luxemburg norms of a sample matrix, solved as one batch.

    Each row's level h * sum(G_eval(mu |row|)) is solved for the unit level
    in mu like luxemburg_norm; zero rows get norm 0.  The still-unsolved
    rows are gathered from values at each evaluation, so no second
    full-size copy of the batch stays alive during the solve.
    """
    out = np.zeros(values.shape[0])
    nonzero = np.flatnonzero(np.any(values, axis=1))
    out[nonzero] = _unit_level_gauge(
        lambda mu, rows: h * np.sum(G_eval(np.abs(values[rows]) * mu[:, None]), axis=1),
        nonzero)
    return out


# ---------------------------------------------------------------------------
# Pairing checks and the Poincare sweep
# ---------------------------------------------------------------------------

def holder_pairing_check(u: GridFunction, v: GridFunction, G: NFunction,
                         conjugate=None) -> tuple:
    """Test the Orlicz Hoelder bound: pairing <= 2 ||u||_G ||v||_conjugate.

    Returns (lhs, rhs, ok) with ok true when lhs <= rhs + 1e-8 (1 + rhs).
    """
    from .nfunctions import complementary as build_conjugate
    if conjugate is None:
        conjugate = build_conjugate(G)
    u._check_mesh(v)
    lhs = float(u.mesh.h * np.sum(u.values * v.values))
    rhs = 2.0 * lg_norm(u, G) * luxemburg_norm(v, lambda w: float(
        w.mesh.h * np.sum(conjugate(np.abs(w.values)))))
    return lhs, rhs, lhs <= rhs + 1e-8 * (1.0 + rhs)


def random_fourier(rng: np.random.Generator, mesh: Mesh, samples: int) -> tuple:
    """(coefficients, fields): samples sine series with uniform [-1, 1] coefficients.

    Row i of fields is sum_k coefficients[i, k - 1] sin(pi k x) over modes
    k = 1..8 at the nodes x scaled to (0, 1); the modes vanish at the
    boundary, so the zero extension stays natural.  One (samples, 8) draw
    consumes the stream like samples successive draws of 8.
    """
    x = (np.arange(mesh.n) + 0.5) / mesh.n
    coeff = rng.uniform(-1.0, 1.0, (samples, 8))
    return coeff, coeff @ np.sin(np.pi * np.outer(np.arange(1, 9), x))


def random_positive(rng: np.random.Generator, mesh: Mesh) -> GridFunction:
    """exp of a Fourier bump: strictly positive with bounded mutual ratios."""
    return GridFunction(mesh, np.exp(random_fourier(rng, mesh, 1)[1][0]), "positive")


def poincare_constant_estimate(G: NFunction, s: float, mesh: Mesh,
                               samples: int = 200, seed: int = 0) -> float:
    """Empirical constant: max over samples of modular / full seminorm modular.

    Zero-extended nonzero fields are never constant on the real line, so the
    denominator cannot vanish; this is asserted, not guarded.
    """
    _check_order(s)
    if samples < 100:
        raise ValueError("need at least 100 samples for a stable estimate")
    worst = 0.0
    for values in random_fourier(np.random.default_rng(seed), mesh, samples)[1]:
        if not np.any(values):
            continue
        u = GridFunction(mesh, values)
        denom = seminorm_modular(u, G, s, "full")
        assert denom > 0.0, "full-space modular of a nonzero field must be positive"
        worst = max(worst, modular(u, G) / denom)
    return worst
