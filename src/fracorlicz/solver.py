"""Variational solver for the singular nonlocal reaction problem.

The continuous problem asks for a positive field, vanishing outside the
domain, whose fractional g-Laplacian balances a singular reaction
f(x) u^-alpha + k(x) u^beta.  The solver minimizes the epsilon-regularized
energy

    full nonlocal modular of u  -  sum over nodes of the primitive of
    f (u+eps)^-alpha + k (u+eps)^beta

over the box 0 <= u <= obstacle (the obstacle is optional), by projected
L-BFGS descent guarded by an Armijo backtracking line search (factor 1/2,
slope fraction 1e-4).  The descent runs in the metric of the spectral
fractional Laplacian of the interval, applied in O(n log n) by one sine
transform, which is spectrally comparable to the quadratic operator, so the
iteration count barely grows with n (preconditioned Barzilai-Borwein,
Molina & Raydan 1996).  The L-BFGS memory of the last MEMORY curvature
pairs (Liu & Nocedal 1989) sits on that Barzilai-Borwein-scaled metric and
takes up the few slow modes left, where the p = 3 Hessian's weights vanish
on the flat top of the profile.  A box clamp is an exact projection only
under a diagonal metric, so an iteration at which a bound binds clears the
memory and steps in the identity metric instead (Bertsekas 1982).  The
regularization is then driven down a geometric schedule, and the stagewise
Cauchy increments (the sup distances between consecutive stage solutions)
are recorded.  The schedule is a predictor-corrector continuation (Allgower
& Georg 1990): each stage after the first starts from the Lagrange
extrapolation in epsilon, at its own epsilon, through the last three stage
solutions (as many as there are, at the second and third stages), clamped
onto the box, and the descent corrects it.

The schedule runs on a coarse mesh and the fine meshes only polish its
answer (nested iteration in the full-multigrid sense, Brandt 1977).  The
levels halve the problem's mesh while its cell count is even and the half
keeps at least COARSEST_CELLS cells.  Data moves down by pairs of cells: f
and k are averaged, which keeps reflection symmetry, and the obstacle takes
the cell minimum, so a node pinned at 0 stays pinned.  The whole schedule
runs on the coarsest level from u = 0; each finer level starts from the
coarser solution, interpolated linearly with zero values at a and b, and
runs one stage at epsilon_min.  A mesh that does not halve is the
one-level case of the same loop.  A solve has converged when every stage
of every level stopped at pg_tol and the coarse Cauchy increments
decrease over the last three epsilon stages.

The continuation takes no start: one restricted to the coarsest mesh would
change only its first stage.  The uniqueness and symmetry experiments give
each start to one minimize_energy call on the full mesh at epsilon_min
instead, the one place where a start can change the answer.

Everything is deterministic and takes no seed: each stage's first trial is
the unit step, and no wall-clock entropy enters the iterates (the per-stage
seconds in StageStats are telemetry only).
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .nfunctions import (NFunction, complementary, sobolev_conjugate,
                         reaction_weight_nfunction, singular_weight_nfunction,
                         SobolevConjugateError, gauss_log_segments)
from .grid import (GridFunction, Mesh, modular_and_slope, seminorm_modular, operator_apply,
                   modular_and_operator, luxemburg_norm, random_positive)
from .inequalities import call_vectorised, f2_monotonicity_check

logger = logging.getLogger(__name__)

COARSEST_CELLS = 32   # the nested solve halves the mesh down to no fewer cells
PREDICTOR_POINTS = 3  # coarse stage starts extrapolate the last three solutions
MEMORY = 5            # curvature pairs behind the L-BFGS direction
ARMIJO_SLOPE = 1e-4
ARMIJO_FACTOR = 0.5
ENERGY_DESCENT_SLACK = 1e-12
# a stage's first trial moves no node by more than this: the unit step on a
# forcing near eps**-alpha would overshoot past what 60 halvings can recover
FIRST_STEP_CAP = 100.0


@dataclass(frozen=True)
class ProblemSpec:
    """Data of the singular problem and its regularization window.

    f is the singular-term coefficient (nonnegative, nontrivial in
    hypothesis), k the reaction coefficient (positive in hypothesis), and
    the optional obstacle is the upper bound of the constraint box.  A
    custom right-hand side F(x, u) switches the solver to the general path,
    which requires the ratio F(x, s)/s^(p_minus - 1) to be non-increasing.
    """

    G: NFunction
    s: float
    alpha: float
    beta: float
    f: GridFunction
    k: GridFunction
    epsilon0: float = 1e-2
    epsilon_min: float = 1e-6
    obstacle: Optional[GridFunction] = None
    F_custom: Optional[Callable] = None
    label: str = ""

    @property
    def mesh(self) -> Mesh:
        return self.f.mesh

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError("fractional order s must lie in (0, 1)")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.f.mesh != self.k.mesh:
            raise ValueError("coefficients f and k live on different meshes")
        if np.any(self.f.values < 0.0) or np.any(self.k.values < 0.0):
            raise ValueError("coefficients must be nonnegative nodewise")
        if not (np.isfinite(self.epsilon0) and np.isfinite(self.epsilon_min)):
            raise ValueError("epsilon0 and epsilon_min must be finite, got "
                             f"{self.epsilon0} and {self.epsilon_min}")
        if not (self.epsilon_min > 0.0):
            raise ValueError("epsilon_min must stay positive: the bare "
                             "singularity is never evaluated")
        if self.epsilon0 < self.epsilon_min:
            raise ValueError("epsilon0 must be >= epsilon_min")
        # the reaction primitive takes epsilon**(1 - alpha) and epsilon**(1 + beta)
        # as Python floats, which raise OverflowError past the largest float,
        # and the forcing's (u + epsilon)**-alpha is largest at u = 0; over
        # the schedule the largest powers sit at its two ends
        log_ends = np.log([self.epsilon_min, self.epsilon0])
        for name, value, e in (("alpha", self.alpha, 1.0 - self.alpha),
                               ("alpha", self.alpha, -self.alpha),
                               ("beta", self.beta, 1.0 + self.beta)):
            if np.max(e * log_ends) > np.log(np.finfo(float).max):
                raise ValueError(f"{name}={value:g} is too large for epsilon in "
                                 f"[{self.epsilon_min:g}, {self.epsilon0:g}]: "
                                 f"epsilon**{e:g} overflows a float")
        if self.obstacle is not None:
            if self.obstacle.mesh != self.mesh:
                raise ValueError("obstacle mesh mismatch")
            if np.any(self.obstacle.values < 0.0):
                raise ValueError("obstacle must be nonnegative")

    def hypothesis_warnings(self) -> list:
        """Out-of-hypothesis labels; the solver runs anyway and records them."""
        notes = []
        if not np.any(self.f.values > 0.0):
            notes.append("f == 0: singular term absent (hypothesis wants f nonzero)")
        if np.any(self.k.values == 0.0):
            notes.append("k vanishes somewhere (hypothesis wants k > 0)")
        if self.alpha == 0.0:
            notes.append("alpha == 0: no singularity")
        if self.beta == 0.0:
            notes.append("beta == 0: degenerate reaction exponent")
        if self.beta >= self.G.p_minus - 1.0:
            notes.append(
                f"beta={self.beta:g} >= p_minus-1={self.G.p_minus - 1.0:g}: "
                "outside the uniqueness hypothesis")
        notes.extend(self.G.warnings)
        return notes


@dataclass(frozen=True)
class StageStats:
    """Record of one epsilon stage of minimize_energy.

    cells is the stage's mesh size.  iterations and energy are the stage's
    loop count and final energy; increment is the continuation's Cauchy
    increment, a sup distance to the stage's end: from the previous stage's
    solution for a coarse stage after the first under solve_singular (not
    from its predicted start), else from the stage's start (on a finer mesh
    level, the interpolated coarse solution).
    pair_passes counts the O(n^2) kernel sweeps: one at the start and one
    per evaluated Armijo trial.  backtracks counts rejected trials,
    bb_fallbacks the curvature pairs discarded for nonpositive curvature
    (each clears the L-BFGS memory and doubles the Barzilai-Borwein scale
    instead), and plain_steps the iterations that stepped in the identity
    metric because a bound was binding.  stop is "pg_tol" (converged),
    "linesearch_stall" or "max_iter".  seconds is wall-clock time, so it
    never enters the solution files.
    """

    epsilon: float
    cells: int
    iterations: int
    energy: float
    increment: float
    pair_passes: int
    backtracks: int
    bb_fallbacks: int
    plain_steps: int
    seconds: float
    stop: str


@dataclass
class SolveResult:
    u: GridFunction
    energy_trace: List[Tuple[int, float]]
    residual_inf: float
    converged: bool
    iterations: int = 0
    stages: List[StageStats] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Energy and residual
# ---------------------------------------------------------------------------

def _reaction(spec: ProblemSpec, values: np.ndarray,
              epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
    """(primitive, forcing) of the regularized right-hand side at each node.

    The forcing is f (u+eps)^-alpha + k (u+eps)^beta and the primitive its
    integral from 0 to u_i, in closed form from the same two powers of
    u + eps; the alpha = 1 branch is the logarithm exactly.  The general
    path evaluates F_custom at u + eps and integrates it numerically on
    log-spaced panels so the near-origin steepness is resolved.
    """
    shifted = values + epsilon
    if spec.F_custom is not None:
        return (_general_primitive(spec.F_custom, spec.mesh.nodes, values, epsilon),
                call_vectorised(spec.F_custom, spec.mesh.nodes, shifted))
    singular = shifted ** (-spec.alpha)
    reaction = shifted ** spec.beta
    forcing = spec.f.values * singular + spec.k.values * reaction
    if spec.alpha == 1.0:
        f_part = spec.f.values * np.log(shifted / epsilon)
    else:
        e = 1.0 - spec.alpha
        f_part = spec.f.values * (shifted * singular - epsilon ** e) / e
    e2 = 1.0 + spec.beta
    k_part = spec.k.values * (shifted * reaction - epsilon ** e2) / e2
    return f_part + k_part, forcing


def _general_primitive(F, x_nodes, w, epsilon):
    """Integral of F(x, t + eps) for t in [0, w], per node, by panel Gauss.

    Substituting tau = t + eps, 24 panels are log-spaced on [eps, w + eps],
    which resolves power-like steepness near the shifted origin; each gets
    the rule of `gauss_log_segments`.
    """
    w = np.asarray(w, float)
    out = np.zeros_like(w)
    active = w > 0.0
    if not active.any():
        return out
    la = np.log(epsilon)
    lb = np.log(w[active] + epsilon)
    knots = np.exp(la + (lb - la)[:, None] * np.linspace(0.0, 1.0, 25))   # (m, 25)
    x = np.asarray(x_nodes, float)[active, None, None]
    integrand = lambda tau: call_vectorised(F, np.broadcast_to(x, tau.shape), tau)
    out[active] = np.sum(gauss_log_segments(integrand, knots), axis=-1)
    return out


def energy(spec: ProblemSpec, u: GridFunction, epsilon: float) -> float:
    """Regularized energy: full nonlocal modular minus the reaction term."""
    primitive = _reaction(spec, u.values, epsilon)[0]
    return seminorm_modular(u, spec.G, spec.s, "full") - float(spec.mesh.h * np.sum(primitive))


def weak_residual(u: GridFunction, spec: ProblemSpec, epsilon: float) -> GridFunction:
    """Gradient of the regularized energy with respect to nodal values, / h.

    Component i pairs the operator kernel at u against the hat of node i
    (2h sum of kernel terms plus twice the exact exterior tail) and
    subtracts the regularized forcing.
    """
    op = operator_apply(u.values, spec.G, spec.mesh, spec.s)
    return u.with_values(op - _reaction(spec, u.values, epsilon)[1], label="residual")


def _energy_and_residual(spec: ProblemSpec, values: np.ndarray,
                         epsilon: float) -> Tuple[float, np.ndarray]:
    """energy and weak_residual at raw nodal values, from one pair pass."""
    full, op = modular_and_operator(values, spec.G, spec.mesh, spec.s)
    primitive, forcing = _reaction(spec, values, epsilon)
    return full - float(spec.mesh.h * primitive.sum()), op - forcing


# ---------------------------------------------------------------------------
# Box projection and the projected-gradient loop
# ---------------------------------------------------------------------------

def _project(values: np.ndarray, upper: Optional[np.ndarray]) -> np.ndarray:
    # the constraint set is a box in the discrete setting: clamping is exact
    lo = np.maximum(values, 0.0)
    return lo if upper is None else np.minimum(lo, upper)


def spectral_inverse_metric(mesh: Mesh, s: float) -> Callable[[np.ndarray], np.ndarray]:
    """M^-1 for M the spectral fractional operator of the interval.

    M has the sine modes of the cell-centred nodes (an orthonormal DST-II
    basis, m = 1..n) as eigenvectors and (2 / C_1s) (pi m / (b - a))^(2s)
    as eigenvalues, C_1s = s 4^s Gamma(1/2 + s) / (sqrt(pi) Gamma(1 - s)):
    the spectral counterpart of the p = 2 operator of operator_apply, to
    which it is spectrally comparable (Servadei & Valdinoci 2014).  M^-1 g
    is one real FFT of the odd extension of g, a product with the O(n)
    inverse eigenvalues and one inverse FFT: no pair pass and no (n, n)
    array.
    """
    n = mesh.n
    c1s = s * 4.0 ** s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * math.gamma(1.0 - s))
    weights = np.zeros(n + 1)   # index 0 is no sine mode
    weights[1:] = 0.5 * c1s * (np.pi * np.arange(1, n + 1) / (mesh.b - mesh.a)) ** (-2.0 * s)
    return lambda g: np.fft.irfft(weights * np.fft.rfft(np.concatenate([g, -g[::-1]])), 2 * n)[:n]


def _lbfgs_direction(grad: np.ndarray, metric_grad: np.ndarray, gamma: float,
                     S: np.ndarray, Y: np.ndarray, MY: np.ndarray, rho: Sequence[float],
                     order: Sequence[int]) -> np.ndarray:
    """H grad for the L-BFGS inverse Hessian H of the pairs in the rows of S, Y.

    Row i holds a pair s_i = du, y_i = dg, MY the row M^-1 y_i and rho[i]
    = 1 / (s_i . y_i) > 0; order lists the rows oldest first.  H is the
    two-loop recursion (Nocedal 1980) over the pairs on H0 = gamma M^-1,
    metric_grad = M^-1 grad.  It runs in matrix form (Byrd, Nocedal &
    Schnabel 1994): the products S grad, S Y^T, alpha M^-1 Y, Y r and
    (alpha - beta) S are one call each, and only the two scalar recursions
    over the rows run in Python floats, so the count of array calls does
    not depend on the number of rows.
    """
    Sg = (S @ grad).tolist()
    SY = (S @ Y.T).tolist()          # SY[i][j] = s_i . y_j
    alpha = [0.0] * len(order)
    for pos in range(len(order) - 1, -1, -1):
        i = order[pos]               # s_i . q, q = grad - sum over newer j of alpha_j y_j
        acc = Sg[i]
        for j in order[pos + 1:]:
            acc -= alpha[j] * SY[i][j]
        alpha[i] = rho[i] * acc
    r = metric_grad - np.dot(alpha, MY)
    r *= gamma
    Yr = (Y @ r).tolist()
    gain = [0.0] * len(order)        # alpha_i - beta_i
    for pos, i in enumerate(order):  # y_i . r, r grown by the older gain_j s_j
        acc = Yr[i]
        for j in order[:pos]:
            acc += gain[j] * SY[j][i]
        gain[i] = alpha[i] - rho[i] * acc
    return r + np.dot(gain, S)


def minimize_energy(spec: ProblemSpec, epsilon: float, u_init: GridFunction,
                    tol: float = 1e-9, max_iter: Optional[int] = None) -> SolveResult:
    """Minimize the regularized energy over the constraint box.

    Projected L-BFGS descent in the spectral metric M of
    spectral_inverse_metric: each trial is the clamp of u - t H grad, with
    t = 1 first and then halved.  H is the L-BFGS inverse Hessian of the
    last MEMORY curvature pairs (du, dg) on the initial H0 = eta M^-1, eta
    the Barzilai-Borwein scale (du.dg) / (dg.M^-1 dg) of the newest pair
    (_lbfgs_direction).  M^-1 dg is the difference of the two transformed
    gradients, so an iteration takes one sine transform; the first one
    after a binding iteration transforms dg as well.  A pair with du.dg <=
    0 clears the memory and doubles eta instead (counted in bb_fallbacks),
    and with an empty memory H grad is eta M^-1 grad.  A stage's first
    trial is the unit step on M^-1 grad, shortened so that it moves no node
    by more than FIRST_STEP_CAP.  A clamp projects exactly only under a
    diagonal metric, so an iteration at which a bound binds (u_i = 0 with
    grad_i > 0, or u_i = obstacle_i with grad_i < 0) clears the memory and
    steps along eta grad, with eta the Barzilai-Borwein scale in the
    identity metric (counted in plain_steps).  A node whose obstacle is <=
    0 is fixed at 0, not a binding bound: its gradient is zeroed before
    either metric applies, so it moves no other node, and the clamp holds
    it.  Armijo backtracking never accepts an energy increase, and a trial
    whose clamp points uphill is halved without an evaluation.  The loop
    ends on the infinity norm of the unpreconditioned unit-step projected
    gradient, so converged means pg_inf < tol whatever the metric.  Each
    evaluated trial costs one pair pass, which yields its energy and
    residual together; the accepted trial's residual is the next gradient.
    Non-convergence is reported in the result, never raised; a start on
    another mesh is a ValueError.
    """
    start = time.perf_counter()
    mesh = spec.mesh
    if u_init.mesh != mesh:
        raise ValueError(f"u_init lives on {u_init.mesh}, the problem on {mesh}")
    if max_iter is None:
        max_iter = 50 * mesh.n
    upper = None if spec.obstacle is None else spec.obstacle.values
    pinned = None if upper is None else upper <= 0.0
    inverse_metric = spectral_inverse_metric(mesh, spec.s)
    # the curvature pairs in rows of (MEMORY, n) buffers: held rows, the
    # oldest at slot once all are held, and the next pair written at slot
    S, Y, MY = (np.empty((MEMORY, mesh.n)) for _ in range(3))
    rho = [0.0] * MEMORY
    held = slot = 0

    u = _project(u_init.values, upper)
    E, grad = _energy_and_residual(spec, u, epsilon)
    trace = [(0, E)]
    eta = 1.0
    passes = 1
    backtracks = bb_fallbacks = plain_steps = 0
    prev_u = prev_grad = prev_metric_grad = None
    stop = "max_iter"

    it = 0
    for it in range(1, max_iter + 1):
        pg_inf = float(np.abs(u - _project(u - grad, upper)).max())
        if pg_inf < tol:
            break

        binds = (u <= 0.0) & (grad > 0.0)
        free_grad = grad
        if upper is not None:
            binds = (binds | ((u >= upper) & (grad < 0.0))) & ~pinned
            free_grad = np.where(pinned, 0.0, grad)
        plain = bool(binds.any())
        plain_steps += plain
        metric_grad = None if plain else inverse_metric(free_grad)
        if plain:
            held = slot = 0
        if prev_u is not None:
            du = np.subtract(u, prev_u, out=S[slot])
            dg = np.subtract(free_grad, prev_grad, out=Y[slot])
            denom = float(np.dot(du, dg))
            if denom <= 0.0:
                eta *= 2.0
                bb_fallbacks += 1
                held = slot = 0
            elif plain:
                eta = denom / float(np.dot(dg, dg))
            else:
                metric_dg = MY[slot]
                if prev_metric_grad is None:
                    metric_dg[:] = inverse_metric(dg)
                else:
                    np.subtract(metric_grad, prev_metric_grad, out=metric_dg)
                eta = denom / float(np.dot(dg, metric_dg))
                rho[slot] = 1.0 / denom
                held = min(held + 1, MEMORY)
                slot = (slot + 1) % MEMORY
        eta = min(max(eta, 1e-14), 1e14)
        if plain:
            step = eta * free_grad
        elif held:
            order = [(slot - held + i) % MEMORY for i in range(held)]
            step = _lbfgs_direction(free_grad, metric_grad, eta, S[:held], Y[:held],
                                    MY[:held], rho, order)
        else:
            step = eta * metric_grad
        length = 1.0
        if prev_u is None:
            reach = float(np.max(np.abs(step)))
            if reach > FIRST_STEP_CAP:
                length = FIRST_STEP_CAP / reach

        accepted = False
        for _ in range(60):
            trial = _project(u - length * step, upper)
            direction = trial - u
            slope = mesh.h * float(np.dot(grad, direction))  # <dJ, d>
            if slope == 0.0:
                break
            if slope < 0.0:   # a clamped metric step can point uphill: shorten it
                E_trial, grad_trial = _energy_and_residual(spec, trial, epsilon)
                passes += 1
                if E_trial <= E + ARMIJO_SLOPE * slope + ENERGY_DESCENT_SLACK * (1.0 + abs(E)):
                    accepted = True
                    break
                backtracks += 1
            length *= ARMIJO_FACTOR
        if not accepted:
            # stationary within line-search resolution
            stop = "linesearch_stall"
            break

        eta *= length
        prev_u, prev_grad, prev_metric_grad = u, free_grad, metric_grad
        u, grad, E = trial, grad_trial, E_trial
        trace.append((it, E))

    pg_inf = float(np.max(np.abs(u - _project(u - grad, upper))))
    converged = pg_inf < tol
    if converged:
        stop = "pg_tol"
    stats = StageStats(epsilon=epsilon, cells=mesh.n, iterations=it, energy=E,
                       increment=float(np.max(np.abs(u - u_init.values))),
                       pair_passes=passes, backtracks=backtracks,
                       bb_fallbacks=bb_fallbacks, plain_steps=plain_steps,
                       seconds=time.perf_counter() - start, stop=stop)
    return SolveResult(
        u=u_init.with_values(u, label=spec.label or "solution"),
        energy_trace=trace,
        residual_inf=pg_inf,
        converged=converged,
        iterations=it,
        stages=[stats],
    )


# ---------------------------------------------------------------------------
# Continuation in the regularization parameter
# ---------------------------------------------------------------------------

def _epsilon_schedule(spec: ProblemSpec) -> List[float]:
    schedule = []
    eps = spec.epsilon0
    while eps > spec.epsilon_min * (1.0 + 1e-12):
        schedule.append(eps)
        eps *= 0.5
    schedule.append(spec.epsilon_min)
    return schedule


def _coarsened(spec: ProblemSpec) -> ProblemSpec:
    """spec on the mesh of half its cells (the cell count must be even).

    f and k take cell-pair means and the obstacle the pair minimum, so a
    node pinned at 0 stays pinned.  F_custom reads spec.mesh.nodes, so it
    needs nothing.
    """
    mesh = Mesh(spec.mesh.a, spec.mesh.b, spec.mesh.n // 2)
    restrict = lambda gf, pair: GridFunction(mesh, pair(gf.values[0::2], gf.values[1::2]),
                                             gf.label)
    mean = lambda a, b: 0.5 * (a + b)
    obstacle = None if spec.obstacle is None else restrict(spec.obstacle, np.minimum)
    return replace(spec, f=restrict(spec.f, mean), k=restrict(spec.k, mean), obstacle=obstacle)


def _interpolate(u: GridFunction, mesh: Mesh) -> GridFunction:
    """u linearly interpolated onto mesh, with zero values at a and b."""
    coarse = u.mesh
    values = np.interp(mesh.nodes, np.concatenate([[coarse.a], coarse.nodes, [coarse.b]]),
                       np.concatenate([[0.0], u.values, [0.0]]))
    return GridFunction(mesh, values, u.label)


def _predicted_start(history: Sequence[Tuple[float, np.ndarray]], epsilon: float,
                     upper: Optional[np.ndarray]) -> np.ndarray:
    """Lagrange extrapolation at epsilon through the (epsilon, solution)
    pairs of history, clamped onto the box [0, upper]."""
    values = np.zeros_like(history[0][1])
    for i, (e_i, u_i) in enumerate(history):
        weight = math.prod((epsilon - e_j) / (e_i - e_j)
                           for j, (e_j, _) in enumerate(history) if j != i)
        values += weight * u_i
    return _project(values, upper)


def solve_singular(spec: ProblemSpec, *, tol: float = 1e-9,
                   max_iter: Optional[int] = None) -> SolveResult:
    """Continuation solve from u = 0, nested over mesh levels.

    The levels halve spec's mesh while its cell count is even and the half
    keeps at least COARSEST_CELLS cells; otherwise there is one level.  The
    whole epsilon schedule runs on the coarsest level.  The first stage
    starts from u = 0; each later stage from the Lagrange extrapolation in
    epsilon, at the stage's epsilon, through the last PREDICTOR_POINTS stage
    solutions (fewer while fewer exist), clamped onto the box.  The weights
    use the actual epsilon values, so the last step to epsilon_min, which
    is not a halving, is predicted as well as the others.  Each finer level
    starts from the coarser solution, interpolated linearly with zero
    values at a and b, and runs one stage at epsilon_min.  Every stage is
    one minimize_energy call with tol and max_iter (default 50 times that
    level's cells), recorded in stages in the order run.

    The continuation itself is a numerical device (the analysis sends the
    regularization to zero abstractly).  converged requires every stage to
    stop at pg_tol and the stagewise sup-norm increments of the coarsest
    level, the distances between consecutive stage solutions, to decrease
    over its last three stages; residual_inf is the finest level's.
    """
    levels = [spec]
    while levels[-1].mesh.n % 2 == 0 and levels[-1].mesh.n // 2 >= COARSEST_CELLS:
        levels.append(_coarsened(levels[-1]))
    levels.reverse()
    u = GridFunction.zeros(levels[0].mesh)

    schedule = _epsilon_schedule(spec)
    plan = ([(levels[0], eps) for eps in schedule]
            + [(level, spec.epsilon_min) for level in levels[1:]])
    stages: List[StageStats] = []
    trace: List[Tuple[int, float]] = []
    all_converged = True
    total_iters = 0
    history: List[Tuple[float, np.ndarray]] = []   # the coarse stage solutions
    for level, eps in plan:
        if u.mesh != level.mesh:
            u = _interpolate(u, level.mesh)
        elif history:
            upper = None if level.obstacle is None else level.obstacle.values
            u = u.with_values(_predicted_start(history[-PREDICTOR_POINTS:], eps, upper))
        result = minimize_energy(level, eps, u, tol=tol, max_iter=max_iter)
        u = result.u
        if level is levels[0]:
            if history:   # the Cauchy increment, not the distance from the prediction
                increment = float(np.max(np.abs(u.values - history[-1][1])))
                result.stages[0] = replace(result.stages[0], increment=increment)
            history.append((eps, u.values))
        stages.extend(result.stages)
        offset = total_iters
        trace.extend([(offset + i, e) for i, e in result.energy_trace])
        total_iters += result.iterations
        all_converged = all_converged and result.converged
        if not result.converged:
            logger.warning("stage eps=%g cells=%d did not converge (pg_inf=%.3e)",
                           eps, level.mesh.n, result.residual_inf)

    cauchy_ok = True
    if len(schedule) >= 4:
        last = [st.increment for st in stages[len(schedule) - 3:len(schedule)]]
        cauchy_ok = all(last[i + 1] <= last[i] * (1.0 + 1e-6) + 1e-14
                        for i in range(len(last) - 1))
        if not cauchy_ok:
            logger.warning("continuation increments not decreasing: %s", last)
    return SolveResult(
        u=u,
        energy_trace=trace,
        residual_inf=result.residual_inf,
        converged=all_converged and cauchy_ok,
        iterations=total_iters,
        stages=stages,
    )


def solve_general(spec: ProblemSpec, *, tol: float = 1e-9,
                  max_iter: Optional[int] = None) -> SolveResult:
    """Continuation solve for a custom right-hand side F(x, u).

    Rejected up front unless F is nonnegative on samples and the ratio
    F(x, s)/s^(p_minus - 1) is non-increasing in s.
    """
    if spec.F_custom is None:
        raise ValueError("solve_general needs a custom right-hand side")
    xs = spec.mesh.nodes[:: max(1, spec.mesh.n // 8)]
    s_grid = np.logspace(-3.0, 2.0, 40)
    if not f2_monotonicity_check(spec.F_custom, xs, s_grid, spec.G.p_minus):
        raise ValueError("custom right-hand side violates the decreasing-ratio "
                         "condition F(x,s)/s^(p_minus-1)")
    for x in xs:
        if np.any(np.asarray([spec.F_custom(x, s) for s in s_grid[:8]]) < 0.0):
            raise ValueError("custom right-hand side must be nonnegative")
    return solve_singular(spec, tol=tol, max_iter=max_iter)


# ---------------------------------------------------------------------------
# Coefficient-membership advisories
# ---------------------------------------------------------------------------

def _conjugate_norm(u: GridFunction, nf) -> float:
    """Luxemburg norm of u in the Orlicz space of the conjugate of nf."""
    conjugate = complementary(nf)  # built once: the solve visits many levels
    return luxemburg_norm(u, lambda w: modular_and_slope(w, conjugate))


def membership_report(spec: ProblemSpec) -> list:
    """Advisory norms of the coefficients in the composed Orlicz spaces.

    At desk scale every discretized coefficient has finite norm, so this is
    diagnostic output, not a gate.  When the Sobolev conjugate does not
    exist (integrability test fails) the check is skipped with a note.
    """
    notes = []
    try:
        gstar = sobolev_conjugate(spec.G, spec.s)
    except SobolevConjugateError as err:
        return [f"membership checks skipped: Sobolev conjugate unavailable "
                f"({err.failed_tail} tail)"]
    k_norm = _conjugate_norm(spec.k, reaction_weight_nfunction(gstar, spec.beta))
    notes.append(f"reaction coefficient norm (conjugate composed space): {k_norm:.6g}")
    if spec.alpha > 1.0:
        f_l1 = float(spec.mesh.h * np.sum(np.abs(spec.f.values)))
        notes.append(f"singular coefficient L1 norm: {f_l1:.6g}")
    elif spec.alpha == 1.0:
        f_norm = _conjugate_norm(spec.f, gstar)
        notes.append(f"singular coefficient norm (conjugate Sobolev space): {f_norm:.6g}")
    else:
        f_norm = _conjugate_norm(spec.f, singular_weight_nfunction(gstar, spec.alpha))
        notes.append(f"singular coefficient norm (conjugate composed space): {f_norm:.6g}")
    return notes


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class ComparisonOutcome:
    low: SolveResult
    high: SolveResult
    violated_nodes: np.ndarray
    tol_cmp: float
    inconclusive: bool
    notes: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (not self.inconclusive) and self.violated_nodes.size == 0


def discretization_estimate(mesh: Mesh, s: float, scale: float) -> float:
    """Crude mesh-error proxy: scale * h^min(1, 2-2s) / 10."""
    return scale * mesh.h ** min(1.0, 2.0 - 2.0 * s) / 10.0


def comparison_experiment(spec_low: ProblemSpec, spec_high: ProblemSpec, *,
                          tol: float = 1e-9, max_iter: Optional[int] = None) -> ComparisonOutcome:
    """Solve an ordered pair of problems and look for comparison violations.

    Preconditions: f and k ordered nodewise, all other data equal.  The
    violation set collects nodes where the low solution exceeds the high one
    by more than tol_cmp (solver tolerance plus a mesh-error allowance).
    """
    if spec_low.mesh != spec_high.mesh:
        raise ValueError("comparison needs a shared mesh")
    if (spec_low.G.name != spec_high.G.name or spec_low.s != spec_high.s
            or spec_low.alpha != spec_high.alpha or spec_low.beta != spec_high.beta):
        raise ValueError("comparison data must agree except in f and k")
    if np.any(spec_low.f.values > spec_high.f.values) or \
       np.any(spec_low.k.values > spec_high.k.values):
        raise ValueError("need f_low <= f_high and k_low <= k_high nodewise")
    notes = tuple(membership_report(spec_low))
    low = solve_singular(spec_low, tol=tol, max_iter=max_iter)
    high = solve_singular(spec_high, tol=tol, max_iter=max_iter)
    inconclusive = not (low.converged and high.converged)
    scale = max(low.u.sup_norm(), high.u.sup_norm(), 1e-30)
    tol_cmp = 10.0 * (tol + discretization_estimate(spec_low.mesh, spec_low.s, scale))
    violated = np.nonzero(low.u.values > high.u.values + tol_cmp)[0]
    return ComparisonOutcome(low, high, violated, tol_cmp, inconclusive, notes)


def _solve_from(spec: ProblemSpec, u_init: Optional[GridFunction], tol: float,
                max_iter: Optional[int]) -> SolveResult:
    """The continuation solve without a start; with one, a single
    minimize_energy call from it on the full mesh at epsilon_min."""
    if u_init is None:
        return solve_singular(spec, tol=tol, max_iter=max_iter)
    return minimize_energy(spec, spec.epsilon_min, u_init, tol=tol, max_iter=max_iter)


@dataclass
class UniquenessOutcome:
    reference: SolveResult
    results: List[SolveResult]
    max_pairwise: float
    threshold: float
    out_of_hypothesis: bool
    inconclusive: bool

    @property
    def ok(self) -> bool:
        return (not self.inconclusive) and self.max_pairwise < self.threshold


def uniqueness_experiment(spec: ProblemSpec,
                          inits: Optional[Sequence[GridFunction]] = None,
                          tol: float = 1e-9, max_iter: Optional[int] = None,
                          seed: int = 0,
                          threshold: float = 1e-5) -> UniquenessOutcome:
    """Solve the epsilon_min problem from several starts; measure the spread.

    reference is the continuation solve (from u = 0); results holds one
    direct minimize_energy solve on the full mesh at epsilon_min per start.
    Without inits, the starts are 0.1, 1 and a random_positive field drawn
    from seed.  The spread is the max, over all pairs of these solves,
    reference included, of the sup-distance normalized by 1 + sup-norm.
    The outcome is inconclusive unless every solve stopped at pg_tol.  A
    reaction exponent at or above p_minus - 1 marks the run
    out-of-hypothesis: it still executes, but the outcome is reported
    rather than asserted.
    """
    if inits is None:
        mesh = spec.mesh
        inits = [GridFunction.constant(mesh, 0.1), GridFunction.constant(mesh, 1.0),
                 random_positive(np.random.default_rng(seed), mesh)]
    if len(inits) < 3:
        raise ValueError("uniqueness experiment needs at least 3 distinct starts")
    solves = [_solve_from(spec, u0, tol, max_iter) for u0 in [None, *inits]]
    spread = max(float(np.max(np.abs(a.u.values - b.u.values)) / (1.0 + a.u.sup_norm()))
                 for a, b in itertools.combinations(solves, 2))
    return UniquenessOutcome(solves[0], solves[1:], spread, threshold,
                             out_of_hypothesis=spec.beta >= spec.G.p_minus - 1.0,
                             inconclusive=not all(r.converged for r in solves))


@dataclass
class SymmetryOutcome:
    result: SolveResult
    asymmetry: float
    threshold: float
    symmetric_data: bool
    inconclusive: bool

    @property
    def ok(self) -> bool:
        return (not self.inconclusive) and self.asymmetry < self.threshold


def _is_even(values: np.ndarray) -> bool:
    return bool(np.max(np.abs(values - values[::-1])) <= 1e-12 * (1.0 + np.max(np.abs(values))))


def symmetry_experiment(spec: ProblemSpec, u_init: Optional[GridFunction] = None,
                        tol: float = 1e-9, max_iter: Optional[int] = None,
                        threshold: float = 1e-6) -> SymmetryOutcome:
    """Solve and measure the reflection asymmetry of the solution.

    Without u_init the solve is the continuation from u = 0; with it, one
    direct minimize_energy solve from u_init on the full mesh at
    epsilon_min.  The discrete scheme is reflection-equivariant, so with
    symmetric data the converged solution is symmetric to solver tolerance
    even from an asymmetric start: the outcome is ok when the solve
    converged (stopped at pg_tol) and the sup-norm asymmetry is below
    threshold.  Asymmetric data is admitted as a labeled control case: the
    run executes and the asymmetry is reported, but symmetric_data is False
    so the caller knows not to hold it against the expectation.  Requires
    an even cell count so reflection maps nodes to nodes.
    """
    if spec.mesh.n % 2 != 0:
        raise ValueError("symmetry experiment needs an even cell count")
    symmetric = (_is_even(spec.f.values) and _is_even(spec.k.values)
                 and (spec.obstacle is None or _is_even(spec.obstacle.values)))
    result = _solve_from(spec, u_init, tol, max_iter)
    u = result.u.values
    asym = float(np.max(np.abs(u - u[::-1])))
    return SymmetryOutcome(result, asym, threshold, symmetric, not result.converged)


# ---------------------------------------------------------------------------
# Closed-form reference for the quadratic benchmark
# ---------------------------------------------------------------------------

def torsion_reference(mesh: Mesh) -> GridFunction:
    """Exact minimizer for the quadratic kernel at order 1/2 with unit forcing.

    For G(t) = t^2/2                                 the operator pairing is
    the plain Gagliardo form, i.e. 2 pi times the half-Laplacian in one
    dimension; the half-ball profile solves half-Laplacian of
    sqrt(r^2 - x^2) = constant, so unit forcing gives the profile divided
    by 2 pi.  (Radius r and centre follow the mesh interval.)
    """
    centre = 0.5 * (mesh.a + mesh.b)
    radius = 0.5 * (mesh.b - mesh.a)
    x = mesh.nodes
    profile = np.sqrt(np.maximum(0.0, radius ** 2 - (x - centre) ** 2))
    return GridFunction(mesh, profile / (2.0 * np.pi), "torsion-reference")
