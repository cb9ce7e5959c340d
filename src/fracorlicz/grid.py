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
double sum of G (the modular), of g (the operator), or both at once.  The
pass takes G and g together from the N-function's pair_terms, the one
evaluator each family supplies, and writes its slabs with out= into one
workspace that every pass, for one field or a batch, keeps while the slab
size stays; pair_terms writes its terms into the G and g slabs too, so a
warm pass of a built-in family allocates no slab-sized array.  The
operator paired with a test field (operator_pairing) takes the weak form
instead: one g term per unordered node pair, over the pair enumeration
that difference_quotients uses, in the same workspace.  That workspace
makes pair passes from several threads at once unsafe; the package runs
them from one thread.

Luxemburg gauges, of one field or of the rows of a sample matrix, take the
level contract of nfunctions.solve_increasing: a modular evaluation yields
the modular and its derivative in log scale, and only the root-finder
divides them.  batch_luxemburg solves the rows it is given at once; a
caller that must bound its memory hands it one row chunk at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .nfunctions import NFunction, BracketExpansionError, complementary, solve_increasing

__all__ = [
    "Mesh", "GridFunction", "modular", "seminorm_modular", "modular_and_slope",
    "seminorm_modular_and_slope", "luxemburg_norm", "lg_norm", "gagliardo_seminorm",
    "difference_quotients", "holder_pairing_check",
    "poincare_constant_estimate", "fourier_coefficients", "sine_basis",
    "random_fourier", "random_positive",
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
        if any(len(r) != 2 for r in rows):
            raise ValueError("serialized grid function needs two columns (x, value) per row")
        values = np.array([float(r[1]) for r in rows])
        xs = np.array([float(r[0]) for r in rows])
        if len(values) != mesh.n or not np.allclose(xs, mesh.nodes, atol=1e-12):
            raise ValueError("serialized grid function does not match the mesh")
        return cls(mesh, values, label)


# ---------------------------------------------------------------------------
# Kernel geometry, cached per (mesh, s)
# ---------------------------------------------------------------------------

PAIR_BLOCK = 64  # rows per slab of the pair pass: cache-sized, few Python steps
PAIR_SLABS = 4   # slab buffers of the pair pass: difference, quotient, G and g terms


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


@functools.lru_cache(maxsize=8)
def _unordered_pairs(mesh: Mesh, s: float):
    """(incidence, 1/d^s, 2/d, 1/d^(1+s)) over the node pairs i < j, read-only.

    The pairs run in np.triu_indices(n, 1) order.  Column k of the
    (n, pairs) incidence matrix holds +1 at row i and -1 at row j, so
    values @ incidence forms every difference u_i - u_j exactly (one
    product by +1, one by -1, the rest zeros) where values are finite.
    """
    inv_s, inv_1, inv_1s, _, _ = _kernel(mesh, s)
    i, j = np.triu_indices(mesh.n, 1)
    incidence = np.zeros((mesh.n, i.size))
    incidence[i, np.arange(i.size)] = 1.0
    incidence[j, np.arange(i.size)] = -1.0
    data = (incidence, inv_s[i, j], 2.0 * inv_1[i, j], inv_1s[i, j])
    for a in data:
        a.flags.writeable = False
    return data


def difference_quotients(values: np.ndarray, mesh: Mesh, s: float):
    """(|u_i - u_j| / d_ij^s over the unordered node pairs i < j, weights 2 / d_ij).

    The n(n - 1)/2 quotients of each row of values (leading batch axes are
    kept) run over the pairs of np.triu_indices(n, 1), and each weight
    counts its pair in both orders, so h^2 sum(w G(q)) is the domain
    Gagliardo modular of each row.  values are finite: the differences
    come from the incidence product of _unordered_pairs, through which a
    non-finite entry reaches every pair of its row.
    """
    incidence, inv_s, weights, _ = _unordered_pairs(mesh, s)
    q = np.abs(values @ incidence)
    q *= inv_s
    return q, weights


def _check_order(s: float):
    if not (0.0 < s < 1.0):
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")


# ---------------------------------------------------------------------------
# Modulars
# ---------------------------------------------------------------------------

def modular(u: GridFunction, G: NFunction) -> float:
    """Integral of G(|u|) over the domain (midpoint rule)."""
    return float(u.mesh.h * np.sum(G(np.abs(u.values))))


@functools.lru_cache(maxsize=1)
def _slab_workspace(floats: int) -> np.ndarray:
    """The slab buffers of every pair pass, kept while their size stays."""
    return np.empty(floats)


def _pair_pass(values: np.ndarray, G: NFunction, mesh: Mesh, s: float,
               energy: bool, gradient: bool):
    """(h^2 sum_ij G(q_ij) / d_ij, 2h sum_j g(q_ij) sign(u_i - u_j) / d_ij^(1+s)).

    q_ij = |u_i - u_j| / d_ij^s over i != j; a part not asked for is None,
    and values may carry batch axes.  A block of rows meets the columns from
    its first row on, so pairs across blocks are evaluated once: G terms are
    symmetric, g terms antisymmetric (later columns take negated sums).
    Every block takes G and g from one G.pair_terms call and writes its
    difference, quotient and term slabs with out= into the PAIR_SLABS flat
    buffers of _slab_workspace; energy and gradient pick the sums taken.
    The returned arrays are fresh and share no memory with the buffers.
    """
    inv_s, inv_1, inv_1s, _, _ = _kernel(mesh, s)
    slab = values.size * min(PAIR_BLOCK, mesh.n)
    work = _slab_workspace(PAIR_SLABS * slab)
    total = 0.0
    grad = np.zeros(values.shape) if gradient else None
    for lo in range(0, mesh.n, PAIR_BLOCK):
        b = min(PAIR_BLOCK, mesh.n - lo)
        shape = values.shape[:-1] + (b, mesh.n - lo)
        diff, q, G_slab, g_slab = (work[k * slab:k * slab + math.prod(shape)].reshape(shape)
                                   for k in range(PAIR_SLABS))
        np.subtract(values[..., lo:lo + b, None], values[..., None, lo:], out=diff)
        np.abs(diff, out=q)
        q *= inv_s[lo:lo + b, lo:]
        e, g = G.pair_terms(q, out=(G_slab, g_slab))
        if energy:
            w = inv_1[lo:lo + b, lo:]
            total = total + (2.0 * np.einsum("...ij,ij->...", e, w)
                             - np.einsum("...ij,ij->...", e[..., :b], w[:, :b]))
        if gradient:
            t = np.copysign(g, diff, out=g_slab)
            t *= inv_1s[lo:lo + b, lo:]
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


operator_apply_batch = operator_apply  # a name benchmarks/tracing.py wraps in inequalities


def operator_pairing(values: np.ndarray, phi: np.ndarray, G: NFunction, mesh: Mesh,
                     s: float) -> np.ndarray:
    """h <A(u), phi>: operator_apply(values) paired with phi, per row.

    By the antisymmetry of the pair terms this is the weak form
    2h^2 sum_{i<j} g(q_ij) sign(u_i - u_j) (phi_i - phi_j) / d_ij^(1+s)
    + 2h sum_i tail_i phi_i over the unordered pairs of
    difference_quotients, tail_i the exterior_tail_gradient term, so each
    pair takes one pair_terms entry.  It equals
    h * sum(operator_apply(values, G, mesh, s) * phi, axis=-1) up to
    rounding.  values and phi are finite, shaped alike, and may carry
    leading batch axes; the pair slabs live in the one slab workspace.
    """
    incidence, inv_s, _, inv_1s = _unordered_pairs(mesh, s)
    shape = values.shape[:-1] + (inv_s.size,)
    slab = math.prod(shape)
    work = _slab_workspace(PAIR_SLABS * slab)
    diff, q, G_slab, g_slab = (work[k * slab:(k + 1) * slab].reshape(shape)
                               for k in range(PAIR_SLABS))
    np.matmul(values, incidence, out=diff)
    np.abs(diff, out=q)
    q *= inv_s
    _, g = G.pair_terms(q, out=(G_slab, g_slab))
    t = np.copysign(g, diff, out=g_slab)
    t *= np.matmul(phi, incidence, out=q)
    t *= inv_1s
    tails = exterior_tail_gradient(values, G, mesh, s)
    tails *= phi
    return 2.0 * mesh.h ** 2 * t.sum(axis=-1) + 2.0 * mesh.h * tails.sum(axis=-1)


def modular_and_operator(values: np.ndarray, G: NFunction, mesh: Mesh, s: float):
    """seminorm_modular(..., "full") and operator_apply from one pair pass."""
    interior, grad = _pair_pass(values, G, mesh, s, energy=True, gradient=True)
    return (float(interior) + exterior_tail_energy(values, G, mesh, s),
            grad + 2.0 * exterior_tail_gradient(values, G, mesh, s))


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------

def modular_and_slope(u: GridFunction, G) -> tuple:
    """(modular(u, G), its derivative d modular(mu u) / d log mu at mu = 1).

    G is an NFunction or a derived function (its level_terms); the
    derivative is h sum |u| g(|u|), from the same evaluation as the modular.
    """
    value, derivative = (np.sum(a) for a in G.level_terms(np.abs(u.values)))
    return float(u.mesh.h * value), float(u.mesh.h * derivative)


def seminorm_modular_and_slope(u: GridFunction, G: NFunction, s: float,
                               domain: str = "omega") -> tuple:
    """(seminorm_modular(u, G, s, domain), its derivative in log scale).

    One pair pass gives the modular and its gradient, the operator divided
    by h (with the exterior tails on the full domain), so the derivative of
    the modular of mu u in log mu at mu = 1 is h times the operator paired
    with u.
    """
    _check_order(s)
    if domain == "omega":
        value, operator = _pair_pass(u.values, G, u.mesh, s, energy=True, gradient=True)
        value = float(value)
    elif domain == "full":
        value, operator = modular_and_operator(u.values, G, u.mesh, s)
    else:
        raise ValueError(f"unknown modular domain {domain!r}")
    return value, float(u.mesh.h * (operator @ u.values))


def _unit_level_gauge(level: Callable, count: int, at_one) -> np.ndarray:
    """Luxemburg gauges 1 / mu of rows 0 .. count - 1, where level(mu, rows) = 1.

    level returns each listed row's level at its scale factor mu and the
    level's derivative in log mu; it must be nondecreasing in mu.  at_one
    is level's pair at mu = 1 for every row.
    """
    try:
        mu = solve_increasing(level, np.ones(count), args=(np.arange(count),), at_one=at_one)
    except BracketExpansionError as err:
        raise ModularNotDecreasingError(f"no unit level of the modular: {err}") from err
    return 1.0 / mu


def luxemburg_norm(u: GridFunction, modular_fn: Callable[[GridFunction], tuple]) -> float:
    """inf(lambda > 0 : modular(u / lambda) <= 1) by the monotone root-finder.

    modular_fn(w) returns (modular of w, d modular(mu w) / d log mu at
    mu = 1), as modular_and_slope and seminorm_modular_and_slope do: the
    level contract of nfunctions.solve_increasing.  The scaled modular
    modular(mu u) is solved for the unit level in mu to relative accuracy
    BISECT_REL_TOL (Newton in log mu from mu = 1, steered by the log-log
    slope the root-finder forms from that pair, so a modular that scales
    like a power costs one evaluation at mu = 1 and one at the root), and
    the norm is 1 / mu.  Returns 0 where the modular vanishes at u, e.g.
    u = 0.
    """
    value, derivative = modular_fn(u)
    if value == 0.0:
        return 0.0

    def level(mu, _rows):
        return tuple(np.array([v]) for v in modular_fn(u * mu[0]))

    return float(_unit_level_gauge(level, 1, (np.array([value]), np.array([derivative])))[0])


def lg_norm(u: GridFunction, G) -> float:
    """Luxemburg norm of the plain Orlicz modular."""
    return luxemburg_norm(u, lambda w: modular_and_slope(w, G))


def gagliardo_seminorm(u: GridFunction, G: NFunction, s: float,
                       domain: str = "omega") -> float:
    """Luxemburg gauge of the Gagliardo modular (domain or full-space)."""
    return luxemburg_norm(u, lambda w: seminorm_modular_and_slope(w, G, s, domain))


# ---------------------------------------------------------------------------
# Batched helpers for the randomized sweeps (samples stacked row-wise)
# ---------------------------------------------------------------------------

def batch_luxemburg(values: np.ndarray, h: float, terms: Callable) -> tuple:
    """(norms, modulars) of the rows of a sample matrix, solved together.

    terms(t, out) returns (F(t), t F'(t)) for a nonnegative array t, as
    NFunction.level_terms does; out holds two buffers shaped like t that it
    may write into.  Each row's level h sum F(mu |row|) and its derivative
    in log mu, h sum t F', are solved for the unit level in mu like
    luxemburg_norm.  The level at mu = 1 is the row's modular: the first
    evaluation, computed as h * sum(F(|row|)).  Zero rows get 0 for both.
    The temporaries are a few arrays shaped like values, so a caller that
    bounds its memory passes its rows a chunk at a time (the verify
    sweeps).  Rows are solved independently: each row's sums run in an
    order fixed by the row alone, so how the rows are cut moves no bit.
    |values| is taken once and read directly at mu = 1; each later
    evaluation gathers only the rows still open into kept buffers, so
    terms sees about 2 entries per batch entry for a pure power.
    """
    norms, modulars = np.zeros(values.shape[0]), np.zeros(values.shape[0])
    rows = np.flatnonzero(np.any(values, axis=1))
    magnitude = np.abs(values[rows])
    work = np.empty((3,) + magnitude.shape)

    def sums(F, tF):
        # the derivative only steers: einsum's row sum is the faster one
        # whose order does not depend on the number of rows
        return h * np.sum(F, axis=1), h * np.einsum("ij->i", tF)

    def level(mu, open_rows):
        t, F_buf, tF_buf = work[:, :open_rows.size]
        np.take(magnitude, open_rows, axis=0, out=t, mode="clip")
        t *= mu[:, None]
        return sums(*terms(t, (F_buf, tF_buf)))

    at_one = sums(*terms(magnitude, (work[1], work[2])))
    modulars[rows] = at_one[0]
    norms[rows] = _unit_level_gauge(level, rows.size, at_one)
    return norms, modulars


# ---------------------------------------------------------------------------
# Pairing checks and the Poincare sweep
# ---------------------------------------------------------------------------

def holder_pairing_check(u: GridFunction, v: GridFunction, G: NFunction,
                         conjugate=None) -> tuple:
    """Test the Orlicz Hoelder bound: pairing <= 2 ||u||_G ||v||_conjugate.

    Returns (lhs, rhs, ok) with ok true when lhs <= rhs + 1e-8 (1 + rhs).
    """
    if conjugate is None:
        conjugate = complementary(G)
    u._check_mesh(v)
    lhs = float(u.mesh.h * np.sum(u.values * v.values))
    rhs = 2.0 * lg_norm(u, G) * lg_norm(v, conjugate)
    return lhs, rhs, lhs <= rhs + 1e-8 * (1.0 + rhs)


FOURIER_MODES = 8  # sine modes of a random field


def fourier_coefficients(rng: np.random.Generator, samples: int) -> np.ndarray:
    """(samples, FOURIER_MODES) coefficients, uniform on [-1, 1].

    One (samples, 8) draw consumes the stream like samples successive draws
    of 8.
    """
    return rng.uniform(-1.0, 1.0, (samples, FOURIER_MODES))


def sine_basis(mesh: Mesh) -> np.ndarray:
    """(FOURIER_MODES, n) modes sin(pi k x), k = 1..8, at the nodes scaled to (0, 1).

    The modes vanish at the boundary, so the zero extension stays natural.
    """
    x = (np.arange(mesh.n) + 0.5) / mesh.n
    return np.sin(np.pi * np.outer(np.arange(1, FOURIER_MODES + 1), x))


def random_fourier(rng: np.random.Generator, mesh: Mesh, samples: int) -> tuple:
    """(coefficients, fields): samples sine series with uniform [-1, 1] coefficients.

    Row i of fields is coefficients[i] @ sine_basis(mesh), with the
    coefficients from fourier_coefficients.  A sweep that forms its fields
    a row chunk at a time draws the coefficients the same way and
    multiplies a chunk of them by the same basis.
    """
    coeff = fourier_coefficients(rng, samples)
    return coeff, coeff @ sine_basis(mesh)


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
