"""Energy, residual, minimization, continuation, and the experiments."""

from dataclasses import replace
from math import gamma

import numpy as np
import pytest

import fracorlicz.solver as solver
from fracorlicz.nfunctions import power_nfunction, power_sum_nfunction, power_log_nfunction
from fracorlicz.grid import (Mesh, GridFunction, operator_apply, random_fourier,
                             random_positive, seminorm_modular)
from fracorlicz.inequalities import STANDARD_FAMILIES, diaz_saa_value
from fracorlicz.solver import (
    ProblemSpec, SolveResult, energy, weak_residual, minimize_energy,
    solve_singular, solve_general, comparison_experiment, uniqueness_experiment,
    symmetry_experiment, torsion_reference, membership_report,
    discretization_estimate,
)

P2 = power_nfunction(2.0)
P3 = power_nfunction(3.0)
PS = power_sum_nfunction(3.0, 4.0)
PL = power_log_nfunction(3.0)


def fourier_field(rng, mesh):
    """One random sine series as a grid function."""
    return GridFunction(mesh, random_fourier(rng, mesh, 1)[1][0])


def _spec(mesh, G=P3, s=0.5, alpha=0.5, beta=0.5, f=1.0, k=1.0,
          eps0=1e-2, eps_min=1e-4, obstacle=None, F=None):
    return ProblemSpec(G=G, s=s, alpha=alpha, beta=beta,
                       f=GridFunction.constant(mesh, f),
                       k=GridFunction.constant(mesh, k),
                       epsilon0=eps0, epsilon_min=eps_min,
                       obstacle=obstacle, F_custom=F)


def _torsion_spec(mesh):
    return ProblemSpec(G=P2, s=0.5, alpha=0.0, beta=0.0,
                       f=GridFunction.zeros(mesh),
                       k=GridFunction.constant(mesh, 1.0),
                       epsilon0=1e-2, epsilon_min=1e-2)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_problem_spec_rejections():
    mesh = Mesh(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        _spec(mesh, s=1.5)
    with pytest.raises(ValueError):
        _spec(mesh, alpha=-1.0)
    with pytest.raises(ValueError):
        _spec(mesh, f=-1.0)
    with pytest.raises(ValueError):
        _spec(mesh, eps_min=0.0)
    with pytest.raises(ValueError):
        _spec(mesh, eps0=1e-8, eps_min=1e-6)
    with pytest.raises(ValueError):
        ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                    f=GridFunction.constant(mesh, 1.0),
                    k=GridFunction.constant(Mesh(0.0, 2.0, 16), 1.0))
    with pytest.raises(ValueError):
        _spec(mesh, obstacle=GridFunction.constant(mesh, -1.0))


@pytest.mark.parametrize("eps0, eps_min", [
    (float("inf"), 1e-6), (float("nan"), 1e-6), (float("inf"), float("inf")),
], ids=["eps0-inf", "eps0-nan", "both-inf"])
def test_problem_spec_rejects_nonfinite_epsilon(eps0, eps_min):
    # inf made the halving schedule endless; nan collapsed it to one stage
    with pytest.raises(ValueError, match="finite"):
        _spec(Mesh(0.0, 1.0, 16), eps0=eps0, eps_min=eps_min)


def test_hypothesis_warnings():
    mesh = Mesh(0.0, 1.0, 16)
    clean = _spec(mesh)
    assert clean.hypothesis_warnings() == []
    shady = _spec(mesh, f=0.0, beta=2.5)  # f trivial, beta >= p_minus - 1
    notes = shady.hypothesis_warnings()
    assert any("f == 0" in n for n in notes)
    assert any("uniqueness hypothesis" in n for n in notes)


# ---------------------------------------------------------------------------
# residual and energy
# ---------------------------------------------------------------------------

def test_residual_zero_data():
    mesh = Mesh(0.0, 1.0, 16)
    spec = _spec(mesh, f=0.0, k=0.0, alpha=0.0, beta=0.0)
    r = weak_residual(GridFunction.zeros(mesh), spec, 1e-2)
    assert np.array_equal(r.values, np.zeros(16))


def test_residual_antisymmetry_of_operator_part():
    mesh = Mesh(-1.0, 1.0, 16)
    spec = _spec(mesh, f=0.0, k=0.0, alpha=0.0, beta=0.0)
    rng = np.random.default_rng(0)
    u = fourier_field(rng, mesh)
    plus = weak_residual(u, spec, 1e-2).values
    minus = weak_residual(u.with_values(-u.values), spec, 1e-2).values
    assert np.array_equal(plus, -minus)


def test_residual_torsion_interior_convergence():
    # discrete operator applied to the closed-form profile: the interior
    # residual halves per refinement (rate ~ 1); the boundary sup norm does
    # not decay because the profile has a square-root edge
    sups = []
    for n in (50, 100, 200):
        mesh = Mesh(-1.0, 1.0, n)
        ref = torsion_reference(mesh)
        r = weak_residual(ref, _torsion_spec(mesh), 1e-2).values
        interior = np.abs(mesh.nodes) <= 0.75
        sups.append(np.max(np.abs(r[interior])))
    assert sups[0] > sups[1] > sups[2]
    rate = np.log2(sups[0] / sups[2]) / 2.0
    assert rate == pytest.approx(1.0, abs=0.3)


def test_energy_trivial_and_log_branch():
    mesh = Mesh(0.0, 1.0, 32)
    spec = _spec(mesh)
    assert energy(spec, GridFunction.zeros(mesh), 1e-2) == 0.0
    # alpha = 1 reaction primitive: f * ln((u + eps)/eps); k switched off
    log_spec = _spec(mesh, alpha=1.0, k=0.0, eps0=1.0, eps_min=1.0)
    u = GridFunction.constant(mesh, 1.0)
    reaction = energy(log_spec, u, 1.0) - seminorm_modular(u, P3, 0.5, "full")
    assert reaction == pytest.approx(-np.log(2.0), rel=1e-12)


@pytest.mark.parametrize("G", [P2, P3, PS, PL], ids=lambda g: g.family)
def test_gradient_consistency(G):
    # central differences of the energy against the residual field
    rng = np.random.default_rng(42)
    mesh = Mesh(0.0, 1.0, 24)
    spec = _spec(mesh, G=G)
    eps = 0.5
    for _ in range(10):
        u = random_positive(rng, mesh)
        phi = fourier_field(rng, mesh)
        t = 1e-6
        fd = (energy(spec, u.with_values(u.values + t * phi.values), eps)
              - energy(spec, u.with_values(u.values - t * phi.values), eps)) / (2 * t)
        an = mesh.h * float(np.dot(weak_residual(u, spec, eps).values, phi.values))
        assert abs(fd - an) / (1.0 + abs(an)) < 1e-5


def test_modular_part_convex_along_rays():
    rng = np.random.default_rng(7)
    mesh = Mesh(0.0, 1.0, 16)
    for _ in range(1000):
        u = fourier_field(rng, mesh)
        v = fourier_field(rng, mesh)
        theta = rng.uniform(0.0, 1.0)
        mid = u.with_values((1 - theta) * u.values + theta * v.values)
        chord = ((1 - theta) * seminorm_modular(u, PS, 0.5, "full")
                 + theta * seminorm_modular(v, PS, 0.5, "full"))
        val = seminorm_modular(mid, PS, 0.5, "full")
        assert val <= chord + 1e-10 * (1.0 + abs(chord))


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def test_minimize_trivial_to_zero():
    # without forcing the energy is the nonnegative modular, minimized at 0;
    # a quadratic kernel reaches it to gradient precision, a degenerate one
    # (derivative vanishing quadratically) only to the square root of it
    mesh = Mesh(0.0, 1.0, 24)
    rng = np.random.default_rng(1)
    init = GridFunction(mesh, np.maximum(random_fourier(rng, mesh, 1)[1][0], 0.0))
    quad_spec = _spec(mesh, G=P2, f=0.0, k=0.0, alpha=0.0, beta=0.0)
    res = minimize_energy(quad_spec, 1e-2, init, tol=1e-10)
    assert res.converged
    assert np.max(np.abs(res.u.values)) < 1e-8
    degen_spec = _spec(mesh, G=P3, f=0.0, k=0.0, alpha=0.0, beta=0.0)
    res3 = minimize_energy(degen_spec, 1e-2, init, tol=1e-10)
    assert res3.converged
    assert np.max(np.abs(res3.u.values)) < 1e-4
    assert energy(degen_spec, res3.u, 1e-2) < 1e-14


def test_minimize_energy_descent():
    mesh = Mesh(-1.0, 1.0, 64)
    res = minimize_energy(_torsion_spec(mesh), 1e-2, GridFunction.zeros(mesh))
    energies = [e for _, e in res.energy_trace]
    assert res.converged
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * (1.0 + np.abs(energies[:-1])))


def test_minimize_torsion_matches_reference():
    mesh = Mesh(-1.0, 1.0, 100)
    res = minimize_energy(_torsion_spec(mesh), 1e-2, GridFunction.zeros(mesh), tol=1e-9)
    ref = torsion_reference(mesh)
    assert res.converged
    assert (res.u - ref).l2_norm() / ref.l2_norm() < 0.05


def test_minimize_obstacle_complementarity():
    # strong forcing against a low ceiling: the solution clamps to the
    # obstacle on an interior set and the residual is nonnegative there
    mesh = Mesh(0.0, 1.0, 48)
    ceiling = GridFunction.constant(mesh, 0.1)
    spec = _spec(mesh, G=P2, alpha=0.0, beta=0.0, f=0.0, k=5.0,
                 eps0=1e-2, eps_min=1e-2, obstacle=ceiling)
    res = minimize_energy(spec, 1e-2, GridFunction.zeros(mesh), tol=1e-10)
    assert res.converged
    assert np.all(res.u.values <= 0.1 + 1e-12)
    active = res.u.values >= 0.1 - 1e-8
    assert active.sum() >= mesh.n // 4  # clamps on an interior set
    r = weak_residual(res.u, spec, 1e-2).values
    # complementarity at the ceiling: the energy pushes against the bound,
    # so the unconstrained gradient is nonpositive there and zero elsewhere
    assert np.all(r[active] <= 1e-8)
    assert np.max(np.abs(r[~active])) < 1e-8


def test_minimize_unreachable_tol_is_not_converged():
    # the line search stalls near machine precision, far above tol: the
    # stage must report what it reached, not claim convergence
    mesh = Mesh(0.0, 1.0, 16)
    res = minimize_energy(_spec(mesh), 1e-2, GridFunction.zeros(mesh), tol=1e-300)
    assert res.residual_inf > 1e-300
    assert not res.converged


def test_minimize_respects_max_iter():
    mesh = Mesh(-1.0, 1.0, 64)
    res = minimize_energy(_torsion_spec(mesh), 1e-2, GridFunction.zeros(mesh),
                          tol=1e-14, max_iter=3)
    assert not res.converged  # reported, never silent


def _stage_counts(res):
    (stage,) = res.stages
    return stage.pair_passes, stage.backtracks, stage.bb_fallbacks, stage.stop


def test_stage_stats_stop_reasons_repeat_exactly():
    mesh = Mesh(-1.0, 1.0, 64)
    spec = _torsion_spec(mesh)
    runs = [minimize_energy(spec, 1e-2, GridFunction.zeros(mesh)) for _ in range(2)]
    assert runs[0].stages[0].stop == "pg_tol"
    assert _stage_counts(runs[0]) == _stage_counts(runs[1])
    capped = minimize_energy(spec, 1e-2, GridFunction.zeros(mesh), tol=1e-14, max_iter=5)
    assert capped.stages[0].stop == "max_iter" and capped.iterations == 5
    small = Mesh(0.0, 1.0, 16)
    stalled = minimize_energy(_spec(small), 1e-2, GridFunction.zeros(small), tol=1e-300)
    assert stalled.stages[0].stop == "linesearch_stall"
    spec = _spec(small)
    solved = solve_singular(spec, tol=1e-9)
    assert [st.epsilon for st in solved.stages] == solver._epsilon_schedule(spec)


def test_minimize_one_pair_pass_per_armijo_trial(monkeypatch):
    # one kernel sweep at the start, then exactly one per line-search trial
    # (accepted steps plus rejected trials)
    import fracorlicz.grid as grid
    calls = []
    inner = grid._pair_pass
    monkeypatch.setattr(grid, "_pair_pass", lambda *a, **k: calls.append(1) or inner(*a, **k))
    mesh = Mesh(0.0, 1.0, 32)
    res = minimize_energy(_spec(mesh), 1e-3, GridFunction.zeros(mesh))
    (stage,) = res.stages
    accepted = len(res.energy_trace) - 1
    assert res.converged and stage.backtracks > 0
    assert len(calls) == stage.pair_passes == 1 + accepted + stage.backtracks


# ---------------------------------------------------------------------------
# the spectral metric
# ---------------------------------------------------------------------------

def _dense_inverse_metric(mesh, s):
    """S^T diag(1 / lambda) S with S the orthonormal DST-II matrix of the nodes."""
    n = mesh.n
    m = np.arange(1, n + 1)
    S = np.sin(np.pi * np.outer(m, np.arange(n) + 0.5) / n) * np.sqrt(2.0 / n)
    S[-1] /= np.sqrt(2.0)
    c1s = s * 4.0 ** s * gamma(0.5 + s) / (np.sqrt(np.pi) * gamma(1.0 - s))
    lam = 2.0 / c1s * (np.pi * m / (mesh.b - mesh.a)) ** (2.0 * s)
    assert np.allclose(S @ S.T, np.eye(n), atol=1e-13)
    return S.T @ (S / lam[:, None])


def _applied_columns(fn, n):
    return np.column_stack([fn(e) for e in np.eye(n)])


@pytest.mark.parametrize("n,s,a,b", [(8, 0.5, 0.0, 1.0), (33, 0.25, -1.0, 1.0),
                                     (64, 0.75, 0.5, 3.0)])
def test_spectral_inverse_metric_is_the_dst_form(n, s, a, b):
    mesh = Mesh(a, b, n)
    fft_form = _applied_columns(solver.spectral_inverse_metric(mesh, s), n)
    dense = _dense_inverse_metric(mesh, s)
    assert np.max(np.abs(fft_form - dense)) < 1e-13 * np.max(np.abs(dense))
    assert np.max(np.abs(fft_form - fft_form.T)) < 1e-13 * np.max(np.abs(dense))
    assert np.min(np.linalg.eigvalsh(0.5 * (fft_form + fft_form.T))) > 0.0


def test_spectral_metric_is_comparable_to_the_quadratic_operator():
    # the eigenvalues of M^-1 A, A the p = 2 operator of operator_apply,
    # stay in one band as the mesh is refined: a condition number bounded
    # in n is what makes the preconditioned iteration count flat
    for n in (16, 32, 64, 128):
        mesh = Mesh(0.0, 1.0, n)
        A = operator_apply(np.eye(n), P2, mesh, 0.5)
        ev = np.linalg.eigvals(_applied_columns(solver.spectral_inverse_metric(mesh, 0.5), n) @ A)
        assert np.max(np.abs(ev.imag)) < 1e-10
        assert 0.4 < np.min(ev.real) and np.max(ev.real) < 1.0


def test_obstacle_that_binds_takes_plain_steps_and_converges():
    # the constant ceiling 0.25 is active on most of the interval: a clamped
    # metric step never converges there, the identity-metric steps do
    mesh = Mesh(0.0, 1.0, 64)
    spec = _spec(mesh, eps_min=1e-6, obstacle=GridFunction.constant(mesh, 0.25))
    res = solve_singular(spec, tol=1e-9)
    assert res.converged
    assert all(st.stop == "pg_tol" for st in res.stages)
    assert all(st.plain_steps > 0 for st in res.stages if st.pair_passes > 1)
    assert 0 < np.sum(res.u.values >= 0.25) < mesh.n


def test_zero_obstacle_node_is_fixed_not_binding():
    # an obstacle that is 0 at one node pins that node; it must not send
    # every iteration back to the identity metric (when it did, before the
    # coarse stages started from predicted solutions, the pinned solve took
    # 1546 passes and 1397 plain steps against 452 passes unpinned)
    mesh = Mesh(0.0, 1.0, 100)
    passes = []
    for zero in (False, True):
        ceiling = np.full(mesh.n, 10.0)
        ceiling[0] = 0.0 if zero else 10.0
        res = solve_singular(_spec(mesh, eps_min=1e-6, obstacle=GridFunction(mesh, ceiling)),
                             tol=1e-9)
        assert res.converged
        assert all(st.plain_steps == 0 for st in res.stages)
        passes.append(sum(st.pair_passes for st in res.stages))
    assert res.u.values[0] == 0.0
    # pinning a node changes the problem: 247 passes against 202
    assert passes[1] <= 1.3 * passes[0]


# ---------------------------------------------------------------------------
# the L-BFGS direction
# ---------------------------------------------------------------------------

def _curvature_memory(rng, mesh, m, inverse_metric):
    """m pairs (s, A s) for an SPD A, with their M^-1 y and rho, in (m, n) rows."""
    B = rng.standard_normal((mesh.n, mesh.n))
    A = B @ B.T + mesh.n * np.eye(mesh.n)
    S = rng.standard_normal((m, mesh.n))
    Y = S @ A
    MY = np.array([inverse_metric(y) for y in Y])
    return S, Y, MY, [1.0 / float(np.dot(a, b)) for a, b in zip(S, Y)]


def _two_loop(grad, gamma, inverse_metric, pairs):
    """The textbook two-loop recursion over (s, y) pairs, oldest first."""
    q, alphas = grad.copy(), []
    for s, y in reversed(pairs):
        alphas.append(np.dot(s, q) / np.dot(s, y))
        q -= alphas[-1] * y
    r = gamma * inverse_metric(q)
    for (s, y), a in zip(pairs, reversed(alphas)):
        r += s * (a - np.dot(y, r) / np.dot(s, y))
    return r


@pytest.mark.parametrize("m, slot", [(1, 0), (3, 0), (5, 2)])
def test_lbfgs_direction_is_the_two_loop_recursion(m, slot):
    # the matrix form over ring rows (the oldest at slot) against the
    # textbook recursion with its own transform of q
    rng = np.random.default_rng(m)
    mesh = Mesh(0.0, 1.0, 24)
    inverse_metric = solver.spectral_inverse_metric(mesh, 0.5)
    S, Y, MY, rho = _curvature_memory(rng, mesh, m, inverse_metric)
    order = [(slot + i) % m for i in range(m)]
    grad = rng.standard_normal(mesh.n)
    got = solver._lbfgs_direction(grad, inverse_metric(grad), 0.7, S, Y, MY, rho, order)
    expected = _two_loop(grad, 0.7, inverse_metric, [(S[i], Y[i]) for i in order])
    assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected))
    assert np.dot(got, grad) > 0.0   # H is positive definite: a descent direction


class _CountedArray(np.ndarray):
    """An array that counts the ufunc and array-function calls it takes part in."""

    calls = 0

    @staticmethod
    def _plain(items):
        return tuple(x.view(np.ndarray) if isinstance(x, _CountedArray) else x for x in items)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedArray.calls += 1
        if "out" in kwargs:
            kwargs["out"] = self._plain(kwargs["out"])
        result = getattr(ufunc, method)(*self._plain(inputs), **kwargs)
        return result.view(_CountedArray) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        _CountedArray.calls += 1
        result = func(*self._plain(args), **kwargs)
        return result.view(_CountedArray) if isinstance(result, np.ndarray) else result


def test_lbfgs_direction_array_calls_do_not_grow_with_memory():
    # the products over the memory are whole-array calls: only the scalar
    # recursions loop over the pairs
    rng = np.random.default_rng(5)
    mesh = Mesh(0.0, 1.0, 24)
    inverse_metric = solver.spectral_inverse_metric(mesh, 0.5)
    counts = []
    for m in (1, 2, 5, 9):
        S, Y, MY, rho = _curvature_memory(rng, mesh, m, inverse_metric)
        grad = rng.standard_normal(mesh.n)
        S, Y, MY, grad, metric_grad = (a.view(_CountedArray) for a in
                                       (S, Y, MY, grad, inverse_metric(grad)))
        _CountedArray.calls = 0
        solver._lbfgs_direction(grad, metric_grad, 1.0, S, Y, MY, rho, list(range(m)))
        counts.append(_CountedArray.calls)
    assert counts[0] > 0 and len(set(counts)) == 1


def _counted_transforms(monkeypatch):
    """Patch spectral_inverse_metric so each transform it returns is counted."""
    calls = []
    inner = solver.spectral_inverse_metric

    def counting(mesh, s):
        transform = inner(mesh, s)
        return lambda g: calls.append(1) or transform(g)

    monkeypatch.setattr(solver, "spectral_inverse_metric", counting)
    return calls


def test_one_sine_transform_per_non_binding_iteration(monkeypatch):
    # M^-1 dg is the difference of two transformed gradients: with no bound
    # binding, every iteration that steps takes exactly one transform
    calls = _counted_transforms(monkeypatch)
    res = solve_singular(_spec(Mesh(0.0, 1.0, 200), eps_min=1e-6), tol=1e-9)
    assert res.converged
    assert all(st.stop == "pg_tol" and st.plain_steps == 0 for st in res.stages)
    assert len(calls) == sum(st.iterations - 1 for st in res.stages)


def test_binding_iterations_take_no_transform(monkeypatch):
    # a binding iteration steps in the identity metric and clears the
    # memory; only the first free iteration after it transforms dg too
    calls = _counted_transforms(monkeypatch)
    mesh = Mesh(0.0, 1.0, 64)
    res = solve_singular(_spec(mesh, eps_min=1e-6, obstacle=GridFunction.constant(mesh, 0.25)),
                         tol=1e-9)
    assert res.converged and all(st.stop == "pg_tol" for st in res.stages)
    free = sum(st.iterations - 1 - st.plain_steps for st in res.stages)
    assert sum(st.plain_steps for st in res.stages) > 0
    assert free <= len(calls) <= free + sum(st.plain_steps for st in res.stages)


def test_paper_problem_passes_are_iterations_plus_backtracks():
    # one pass at the start and one per evaluated trial: at a pg_tol stop
    # the last iteration evaluates nothing
    res = solve_singular(_spec(Mesh(0.0, 1.0, 200), eps_min=1e-6), tol=1e-9)
    assert res.converged
    for st in res.stages:
        assert st.stop == "pg_tol"
        assert st.pair_passes == st.iterations + st.backtracks


def test_finest_level_passes_barely_depend_on_start_rounding(monkeypatch):
    # eight 1e-11 perturbations of power4's interpolated start at n = 400:
    # the finest level takes 121-124 passes (137-222 when the step kept one
    # curvature number, the Barzilai-Borwein scale, instead of the memory)
    spec = _spec(Mesh(0.0, 1.0, 400), G=STANDARD_FAMILIES["power4"],
                 eps_min=1e-6)
    res, calls = _recorded_stages(monkeypatch, spec)
    level, start, result = calls[-1]
    assert level.mesh.n == 400 and result.converged
    passes = []
    for seed in range(8):
        noise = 1e-11 * np.random.default_rng(seed).standard_normal(start.size)
        perturbed = minimize_energy(level, spec.epsilon_min,
                                    GridFunction(level.mesh, np.maximum(start + noise, 0.0)))
        assert perturbed.converged
        passes.append(perturbed.stages[0].pair_passes)
    assert max(passes) - min(passes) <= 15


def test_paper_problem_pair_passes_stay_low():
    # deterministic count: the nested spectral solve takes 238 passes here
    # (406 when each coarse stage starts from the previous solution instead
    # of the extrapolated one, 466 in the identity metric, 274 when the step
    # kept one curvature number instead of the L-BFGS memory); the bound
    # leaves a margin of about 15%
    mesh = Mesh(0.0, 1.0, 200)
    res = solve_singular(_spec(mesh, eps_min=1e-6), tol=1e-9)
    assert res.converged
    assert all(st.stop == "pg_tol" and st.plain_steps == 0 for st in res.stages)
    assert sum(st.pair_passes for st in res.stages) <= 275


def test_uphill_trial_is_never_evaluated(monkeypatch):
    # a metric that reverses the gradient makes every clamped trial point
    # uphill: none is evaluated, so the stage stalls on its start pass
    monkeypatch.setattr(solver, "spectral_inverse_metric", lambda mesh, s: lambda g: -g)
    mesh = Mesh(0.0, 1.0, 16)
    res = minimize_energy(_spec(mesh), 1e-2, GridFunction.constant(mesh, 0.5))
    (stage,) = res.stages
    assert stage.stop == "linesearch_stall"
    assert stage.pair_passes == 1 and stage.backtracks == 0
    assert len(res.energy_trace) == 1


def test_huge_forcing_stage_converges():
    # at alpha = 15 the forcing at u = 0 is eps**-15 >= 1e30: an uncapped
    # unit first trial overshoots beyond what 60 halvings recover, and every
    # stage ends in linesearch_stall with pg_inf up to 1e90
    mesh = Mesh(0.0, 1.0, 16)
    spec = _spec(mesh, alpha=15.0, eps_min=1e-6)
    first = minimize_energy(spec, 1e-2, GridFunction.zeros(mesh), max_iter=1)
    assert 0.0 < np.max(first.u.values) <= solver.FIRST_STEP_CAP
    res = solve_singular(spec, tol=1e-9)
    assert res.converged
    assert all(st.stop == "pg_tol" for st in res.stages)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_solve_singular_positive_and_cauchy():
    mesh = Mesh(0.0, 1.0, 64)
    spec = _spec(mesh, eps0=1e-2, eps_min=1e-5)
    res = solve_singular(spec, tol=1e-9)
    assert res.converged
    assert np.all(res.u.values > 0.0)  # interior positivity
    coarsest = min(st.cells for st in res.stages)
    last = [st.increment for st in res.stages if st.cells == coarsest][-3:]
    assert last[0] >= last[1] >= last[2]  # Cauchy increments decreasing


def test_solve_singular_interior_floor_baseline():
    # frozen regression: minimum nodal value of the singular solve with a
    # tiny reaction coefficient (positivity floor driven by the forcing)
    mesh = Mesh(0.0, 1.0, 100)
    spec = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                       f=GridFunction.constant(mesh, 1.0),
                       k=GridFunction.constant(mesh, 1e-6),
                       epsilon0=1e-2, epsilon_min=1e-6)
    res = solve_singular(spec, tol=1e-9)
    assert res.converged
    assert res.u.values.min() == pytest.approx(0.05796863354980814, rel=1e-6)


def test_solve_singular_self_convergence():
    # reaction-only problem: doubling the mesh moves the solution by less
    # than the discretization allowance
    def run(n):
        mesh = Mesh(0.0, 1.0, n)
        spec = _spec(mesh, G=P3, alpha=0.0, beta=1.0, f=0.0, k=1.0,
                     eps0=1e-2, eps_min=1e-4)
        return solve_singular(spec, tol=1e-10)

    coarse = run(50)
    fine = run(100)
    assert coarse.converged and fine.converged
    on_fine = np.repeat(coarse.u.values, 2)
    gap = np.max(np.abs(on_fine - fine.u.values))
    allowance = discretization_estimate(fine.u.mesh, 0.5,
                                        fine.u.sup_norm()) * 10.0
    assert gap < max(allowance, 0.05 * fine.u.sup_norm())


def test_epsilon_monotonicity_observed():
    # observational regression, not a theorem of the method: as the
    # regularization shrinks, the forcing strengthens, so the solutions
    # u_eps rise nodewise while the shifted fields u_eps + eps fall
    # nodewise (the shifted field is the quantity squeezed from above in
    # the continuation analysis)
    mesh = Mesh(0.0, 1.0, 48)
    spec = _spec(mesh, alpha=0.5, beta=0.0, k=0.0, f=1.0,
                 eps0=1e-2, eps_min=1e-4)
    u = GridFunction.zeros(mesh)
    prev = None
    u_drops = shifted_rises = 0
    for eps in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        out = minimize_energy(spec, eps, u, tol=1e-10)
        u = out.u
        if prev is not None:
            p_eps, p_vals = prev
            u_drops += int(np.sum(u.values < p_vals - 1e-10))
            shifted_rises += int(np.sum(u.values + eps > p_vals + p_eps + 1e-10))
        prev = (eps, u.values.copy())
    assert u_drops == 0
    assert shifted_rises == 0


def test_solve_determinism():
    mesh = Mesh(0.0, 1.0, 32)
    spec = _spec(mesh, eps0=1e-2, eps_min=1e-4)
    a = solve_singular(spec, tol=1e-9)
    b = solve_singular(spec, tol=1e-9)
    assert a.u.values.tobytes() == b.u.values.tobytes()
    untimed = lambda result: [replace(stage, seconds=0.0) for stage in result.stages]
    assert a.stages and untimed(a) == untimed(b)


def test_start_on_another_mesh_is_rejected():
    mesh = Mesh(0.0, 1.0, 32)
    spec = _spec(mesh)
    for other in (Mesh(0.0, 2.0, 32), Mesh(0.0, 1.0, 64)):
        start = GridFunction.constant(other, 0.1)
        with pytest.raises(ValueError, match="u_init"):
            minimize_energy(spec, 1e-2, start)
    # the continuation takes no start, and tol is keyword-only, so a start
    # passed in tol's old place fails at the call
    with pytest.raises(TypeError):
        solve_singular(spec, GridFunction.constant(mesh, 0.1))


def test_nested_solve_matches_the_fine_mesh_continuation():
    mesh = Mesh(0.0, 1.0, 128)
    spec = _spec(mesh, eps_min=1e-4)
    res = solve_singular(spec, tol=1e-9)
    assert res.converged
    assert [st.cells for st in res.stages] == [32] * 8 + [64, 128]
    u = GridFunction.zeros(mesh)
    for eps in solver._epsilon_schedule(spec):
        ref = minimize_energy(spec, eps, u, tol=1e-9)
        assert ref.converged
        u = ref.u
    assert np.max(np.abs(res.u.values - u.values)) < 1e-8


@pytest.mark.parametrize("n", [45, 62])
def test_mesh_that_does_not_halve_takes_one_level(n):
    spec = _spec(Mesh(0.0, 1.0, n), eps_min=1e-4)
    res = solve_singular(spec, tol=1e-9)
    assert res.converged
    assert [st.epsilon for st in res.stages] == solver._epsilon_schedule(spec)
    assert all(st.cells == n for st in res.stages)


def test_paper_problem_finest_level_is_a_short_polish():
    # the 200-cell level starts from the interpolated 100-cell solution:
    # 69 passes (72 with one curvature number instead of the L-BFGS
    # memory), against 194 for the whole schedule on this mesh alone; the
    # bound leaves a margin of about 15%
    res = solve_singular(_spec(Mesh(0.0, 1.0, 200), eps_min=1e-6), tol=1e-9)
    assert res.converged
    assert [st.cells for st in res.stages[-3:]] == [50, 100, 200]
    assert res.stages[-1].pair_passes <= 80


def test_restriction_keeps_even_data_even():
    mesh = Mesh(-1.0, 1.0, 64)
    rng = np.random.default_rng(3)
    even = lambda v: v + v[::-1]
    ceiling = even(rng.uniform(0.5, 1.0, mesh.n))
    ceiling[[0, -1]] = 0.0
    spec = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                       f=GridFunction(mesh, even(rng.uniform(0.0, 1.0, mesh.n))),
                       k=GridFunction(mesh, even(rng.uniform(0.5, 1.0, mesh.n))),
                       obstacle=GridFunction(mesh, ceiling))
    coarse = solver._coarsened(spec)
    assert coarse.mesh == Mesh(-1.0, 1.0, 32)
    for gf in (coarse.f, coarse.k, coarse.obstacle):
        assert np.array_equal(gf.values, gf.values[::-1])
    assert coarse.obstacle.values[0] == 0.0  # a pinned node stays pinned
    assert np.array_equal(coarse.f.values, 0.5 * (spec.f.values[0::2] + spec.f.values[1::2]))


def _recorded_stages(monkeypatch, spec):
    """solve_singular on spec, with each stage's (level, start, result)."""
    calls = []

    def recording(level, eps, u_init, **kwargs):
        result = minimize_energy(level, eps, u_init, **kwargs)
        calls.append((level, u_init.values.copy(), result))
        return result

    monkeypatch.setattr(solver, "minimize_energy", recording)
    return solve_singular(spec, tol=1e-9), calls


def _coarse_passes(res):
    coarsest = min(st.cells for st in res.stages)
    return sum(st.pair_passes for st in res.stages if st.cells == coarsest)


def test_paper_problem_coarse_schedule_is_predicted():
    # 118 coarse passes (142 with one curvature number instead of the
    # L-BFGS memory), 286 when each stage starts from the previous solution;
    # the bound leaves a margin of about 15%
    res = solve_singular(_spec(Mesh(0.0, 1.0, 200), eps_min=1e-6), tol=1e-9)
    assert res.converged
    assert _coarse_passes(res) <= 136


@pytest.mark.parametrize("family", sorted(STANDARD_FAMILIES))
def test_predicted_start_cuts_coarse_passes(monkeypatch, family):
    spec = _spec(Mesh(0.0, 1.0, 64), G=STANDARD_FAMILIES[family], eps_min=1e-6)
    predicted = solve_singular(spec, tol=1e-9)
    # one point: the extrapolation is the previous stage's solution
    monkeypatch.setattr(solver, "PREDICTOR_POINTS", 1)
    previous = solve_singular(spec, tol=1e-9)
    assert predicted.converged and previous.converged
    assert _coarse_passes(predicted) < _coarse_passes(previous)
    assert np.max(np.abs(predicted.u.values - previous.u.values)) < 1e-8


def test_increment_is_the_distance_between_stage_solutions(monkeypatch):
    res, calls = _recorded_stages(monkeypatch, _spec(Mesh(0.0, 1.0, 128), eps_min=1e-5))
    assert res.converged and len(calls) == len(res.stages)
    previous = None
    for stage, (level, start, result) in zip(res.stages, calls):
        coarse = level.mesh.n == res.stages[0].cells
        reference = previous if coarse and previous is not None else start
        assert stage.increment == float(np.max(np.abs(result.u.values - reference)))
        previous = result.u.values
    assert not np.array_equal(calls[3][1], calls[2][2].u.values)   # a predicted start


def test_predicted_start_stays_in_the_box(monkeypatch):
    # the pinned-node obstacle of test_zero_obstacle_node_is_fixed_not_binding
    mesh = Mesh(0.0, 1.0, 100)
    ceiling = np.full(mesh.n, 10.0)
    ceiling[0] = 0.0
    spec = _spec(mesh, eps_min=1e-6, obstacle=GridFunction(mesh, ceiling))
    res, calls = _recorded_stages(monkeypatch, spec)
    assert res.converged
    for level, start, _ in calls:
        assert np.all(start >= 0.0) and np.all(start <= level.obstacle.values)
        assert start[0] == 0.0
    assert res.u.values[0] == 0.0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_comparison_identical_specs():
    mesh = Mesh(0.0, 1.0, 32)
    spec = _spec(mesh)
    out = comparison_experiment(spec, spec, tol=1e-9)
    assert out.ok
    assert np.array_equal(out.low.u.values, out.high.u.values)


def test_comparison_ordered_forcing():
    mesh = Mesh(0.0, 1.0, 64)
    low = _spec(mesh, f=1.0)
    high = _spec(mesh, f=2.0)
    out = comparison_experiment(low, high, tol=1e-9)
    assert out.ok and out.violated_nodes.size == 0
    assert np.all(out.high.u.values >= out.low.u.values)


def test_comparison_reaction_bump():
    mesh = Mesh(0.0, 1.0, 64)
    low = _spec(mesh)
    bump = 1.0 + np.exp(-(mesh.nodes - 0.5) ** 2 / 0.02)
    high = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5, f=low.f,
                       k=GridFunction(mesh, bump),
                       epsilon0=low.epsilon0, epsilon_min=low.epsilon_min)
    out = comparison_experiment(low, high, tol=1e-9)
    assert out.ok


def test_comparison_precondition_rejection():
    mesh = Mesh(0.0, 1.0, 32)
    with pytest.raises(ValueError):
        comparison_experiment(_spec(mesh, f=2.0), _spec(mesh, f=1.0))
    with pytest.raises(ValueError):
        comparison_experiment(_spec(mesh, alpha=0.5), _spec(mesh, alpha=0.7))


def test_uniqueness_experiment_small():
    mesh = Mesh(0.0, 1.0, 64)
    spec = _spec(mesh, eps0=1e-2, eps_min=1e-5)
    out = uniqueness_experiment(spec, tol=1e-9, seed=11)
    assert out.ok
    assert not out.out_of_hypothesis
    assert out.max_pairwise < 1e-5


def test_experiment_starts_are_direct_epsilon_min_solves():
    # a start reaches the n-cell problem at epsilon_min, not a coarse stage
    mesh = Mesh(-1.0, 1.0, 64)
    spec = _spec(mesh, eps0=1e-2, eps_min=1e-5)
    uniq = uniqueness_experiment(spec, tol=1e-9, seed=11)
    sym = symmetry_experiment(spec, u_init=GridFunction(mesh, 1.0 + mesh.nodes), tol=1e-9)
    for res in uniq.results + [sym.result]:
        assert res.converged
        assert [(st.cells, st.epsilon, st.stop) for st in res.stages] == \
            [(64, spec.epsilon_min, "pg_tol")]
    coarse = len(solver._epsilon_schedule(spec))
    assert [st.cells for st in uniq.reference.stages] == [32] * coarse + [64]
    assert uniq.ok and sym.ok


def test_uniqueness_spread_includes_the_reference(monkeypatch):
    mesh = Mesh(0.0, 1.0, 32)
    spec = _spec(mesh, eps0=1e-2, eps_min=1e-4)
    continuation = solver.solve_singular

    def shifted(spec, **kwargs):
        result = continuation(spec, **kwargs)
        return replace(result, u=result.u.with_values(result.u.values + 1e-3))

    monkeypatch.setattr(solver, "solve_singular", shifted)
    out = uniqueness_experiment(spec, tol=1e-9, seed=11)
    assert not out.inconclusive and not out.ok
    ref = out.reference.u
    gaps = [np.max(np.abs(ref.values - r.u.values)) / (1.0 + ref.sup_norm())
            for r in out.results]
    assert min(gaps) > 5e-4 and out.max_pairwise == max(gaps)


def test_uniqueness_needs_three_starts():
    mesh = Mesh(0.0, 1.0, 32)
    with pytest.raises(ValueError):
        uniqueness_experiment(_spec(mesh), inits=[GridFunction.zeros(mesh)])


def test_uniqueness_out_of_hypothesis_flagged():
    mesh = Mesh(0.0, 1.0, 32)
    spec = _spec(mesh, beta=2.5, eps0=1e-2, eps_min=1e-3)  # beta >= p_minus - 1
    out = uniqueness_experiment(spec, tol=1e-8, seed=1)
    assert out.out_of_hypothesis  # runs, but labeled; outcome only reported


def test_symmetry_experiment_asymmetric_init():
    mesh = Mesh(-1.0, 1.0, 64)
    bump = np.exp(-mesh.nodes ** 2 / 0.25)
    spec = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                       f=GridFunction(mesh, bump),
                       k=GridFunction.constant(mesh, 1.0),
                       epsilon0=1e-2, epsilon_min=1e-4)
    init = GridFunction(mesh, 0.5 + 0.4 * np.sin(3.0 * mesh.nodes))
    out = symmetry_experiment(spec, u_init=init, tol=1e-9)
    assert out.ok and out.symmetric_data
    assert out.asymmetry < 1e-6


def test_symmetry_control_case():
    mesh = Mesh(-1.0, 1.0, 64)
    skew = 1.0 + 0.5 * (mesh.nodes > 0.2)
    spec = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                       f=GridFunction(mesh, skew),
                       k=GridFunction.constant(mesh, 1.0),
                       epsilon0=1e-2, epsilon_min=1e-3)
    out = symmetry_experiment(spec, tol=1e-9)
    assert not out.symmetric_data
    assert out.asymmetry > 1e-3  # reported, not held against the expectation


def test_symmetry_outcome_above_its_threshold_is_not_ok():
    # the control case converges with asymmetry > 1e-3: ok follows the threshold
    mesh = Mesh(-1.0, 1.0, 64)
    skew = 1.0 + 0.5 * (mesh.nodes > 0.2)
    spec = ProblemSpec(G=P3, s=0.5, alpha=0.5, beta=0.5,
                       f=GridFunction(mesh, skew),
                       k=GridFunction.constant(mesh, 1.0),
                       epsilon0=1e-2, epsilon_min=1e-3)
    out = symmetry_experiment(spec, tol=1e-9, threshold=1e-3)
    assert not out.inconclusive and out.threshold == 1e-3 and out.asymmetry > 1e-3
    assert not out.ok
    assert replace(out, threshold=2.0 * out.asymmetry).ok


def test_symmetry_needs_even_count():
    mesh = Mesh(-1.0, 1.0, 33)
    with pytest.raises(ValueError):
        symmetry_experiment(_spec(mesh))


# ---------------------------------------------------------------------------
# general right-hand side
# ---------------------------------------------------------------------------

def test_general_path_reproduces_singular():
    mesh = Mesh(0.0, 1.0, 32)
    direct = _spec(mesh, eps0=1e-2, eps_min=1e-4)
    F = lambda x, u: 1.0 * u ** (-0.5) + 1.0 * u ** 0.5
    general = _spec(mesh, eps0=1e-2, eps_min=1e-4, F=F)
    a = solve_singular(direct, tol=1e-10)
    b = solve_general(general, tol=1e-10)
    assert a.converged and b.converged
    assert np.max(np.abs(a.u.values - b.u.values)) < 1e-8


def test_general_path_decreasing_nonlinearity():
    mesh = Mesh(0.0, 1.0, 32)
    F = lambda x, u: 1.0 / (1.0 + u)
    spec = _spec(mesh, f=0.0, k=0.0, alpha=0.0, beta=0.0,
                 eps0=1e-2, eps_min=1e-4, F=F)
    out = uniqueness_experiment(spec, tol=1e-9, seed=4,
                                inits=[GridFunction.constant(mesh, 0.1),
                                       GridFunction.constant(mesh, 1.0),
                                       GridFunction.constant(mesh, 2.0)])
    assert out.ok


def test_general_path_rejections():
    mesh = Mesh(0.0, 1.0, 32)
    growing = _spec(mesh, F=lambda x, u: u ** 3.0)  # ratio increases
    with pytest.raises(ValueError):
        solve_general(growing)
    with pytest.raises(ValueError):
        solve_general(_spec(mesh))  # no custom right-hand side


# ---------------------------------------------------------------------------
# membership advisories
# ---------------------------------------------------------------------------

def test_membership_report_with_conjugate_available():
    mesh = Mesh(0.0, 1.0, 16)
    spec = _spec(mesh, G=P2, s=0.25, alpha=0.5, beta=0.5)
    notes = membership_report(spec)
    assert any("reaction coefficient" in n for n in notes)
    assert any("singular coefficient" in n for n in notes)


def test_membership_report_builds_each_conjugate_once(monkeypatch):
    builds = []
    build = solver.complementary

    def counted(nf):
        builds.append(nf)
        return build(nf)

    monkeypatch.setattr(solver, "complementary", counted)
    spec = _spec(Mesh(0.0, 1.0, 64), G=P2, s=0.3, alpha=0.5, beta=0.5)
    notes = membership_report(spec)
    assert len(notes) == 2
    assert len(builds) == 2  # reaction and singular weights, one table each


def test_membership_report_skips_when_unavailable():
    mesh = Mesh(0.0, 1.0, 16)
    spec = _spec(mesh, G=P3, s=0.5)
    notes = membership_report(spec)
    assert len(notes) == 1 and "skipped" in notes[0]


def test_diaz_saa_links_converged_solutions():
    # converged positive solutions of two ordered problems satisfy the
    # pairing inequality at the lower index
    mesh = Mesh(0.0, 1.0, 48)
    a = solve_singular(_spec(mesh, f=1.0, eps0=1e-2, eps_min=1e-4), tol=1e-9)
    b = solve_singular(_spec(mesh, f=2.0, eps0=1e-2, eps_min=1e-4), tol=1e-9)
    assert a.converged and b.converged
    val = diaz_saa_value(a.u, b.u, P3, 0.5, P3.p_minus)
    assert val >= -1e-8 * (1.0 + abs(val))
