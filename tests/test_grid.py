"""Meshes, grid functions, modulars, Luxemburg norms, pairing checks."""

import numpy as np
import pytest
from scipy.integrate import quad

from fracorlicz.nfunctions import (power_nfunction, power_sum_nfunction,
                                   power_log_nfunction, complementary, BISECT_REL_TOL)
from fracorlicz.inequalities import STANDARD_FAMILIES
from fracorlicz.grid import (
    Mesh, GridFunction, ModularNotDecreasingError, modular, seminorm_modular,
    modular_and_slope, seminorm_modular_and_slope, luxemburg_norm, lg_norm,
    gagliardo_seminorm, holder_pairing_check,
    poincare_constant_estimate, random_fourier, random_positive,
    operator_apply, operator_apply_batch, operator_pairing,
    exterior_tail_energy, exterior_tail_gradient,
    batch_luxemburg, difference_quotients,
)
from fracorlicz.inequalities import FIELD_CHUNK

P2 = power_nfunction(2.0)
P3 = power_nfunction(3.0)
FAMILIES = {
    "power3": P3,
    "power4": power_nfunction(4.0),
    "powersum34": power_sum_nfunction(3.0, 4.0),
    "powerlog3": power_log_nfunction(3.0),
}


def fourier_field(rng, mesh):
    """One random sine series as a grid function."""
    return GridFunction(mesh, random_fourier(rng, mesh, 1)[1][0])


# ---------------------------------------------------------------------------
# mesh and grid function plumbing
# ---------------------------------------------------------------------------

def test_mesh_invariants():
    mesh = Mesh(0.0, 1.0, 16)
    assert mesh.h == pytest.approx(1.0 / 16)
    assert np.all(mesh.nodes > 0.0) and np.all(mesh.nodes < 1.0)
    with pytest.raises(ValueError):
        Mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Mesh(1.0, 0.0, 16)


def test_grid_function_checks():
    mesh = Mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        GridFunction(mesh, np.ones(7))
    with pytest.raises(ValueError):
        GridFunction(mesh, np.array([np.nan] + [0.0] * 7))
    u = GridFunction(mesh, np.arange(8.0))
    with pytest.raises(ValueError):
        u.values[0] = 5.0  # immutable


def test_grid_function_arithmetic_and_mesh_guard():
    mesh = Mesh(0.0, 1.0, 8)
    u = GridFunction.constant(mesh, 2.0)
    v = GridFunction.constant(mesh, 1.0)
    assert np.all((u - v).values == 1.0)
    assert np.all((3.0 * v).values == 3.0)
    other = GridFunction.constant(Mesh(0.0, 2.0, 8), 1.0)
    with pytest.raises(ValueError):
        u + other


def test_serialization_roundtrip():
    mesh = Mesh(-1.0, 1.0, 12)
    u = GridFunction(mesh, np.sin(mesh.nodes) * np.pi, "wave")
    text = u.to_text()
    back = GridFunction.from_text(text, mesh, "wave")
    assert np.array_equal(back.values, u.values)
    with pytest.raises(ValueError):
        GridFunction.from_text(text, Mesh(-1.0, 1.0, 24))


# ---------------------------------------------------------------------------
# plain modular
# ---------------------------------------------------------------------------

def test_modular_trivial_cases():
    mesh = Mesh(0.0, 1.0, 32)
    assert modular(GridFunction.zeros(mesh), P2) == 0.0
    assert modular(GridFunction.constant(mesh, 1.0), P2) == pytest.approx(0.5)


def test_modular_midpoint_convergence():
    # integral of x^2/2 over (0,1) is 1/6; midpoint rule converges at h^2
    errors = []
    for n in (32, 64, 128):
        mesh = Mesh(0.0, 1.0, n)
        u = GridFunction(mesh, mesh.nodes)
        errors.append(abs(modular(u, P2) - 1.0 / 6.0))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)


# ---------------------------------------------------------------------------
# nonlocal modular
# ---------------------------------------------------------------------------

def test_seminorm_modular_trivial():
    mesh = Mesh(0.0, 1.0, 16)
    zero = GridFunction.zeros(mesh)
    const = GridFunction.constant(mesh, 3.0)
    assert seminorm_modular(zero, P2, 0.5, "omega") == 0.0
    assert seminorm_modular(zero, P2, 0.5, "full") == 0.0
    assert seminorm_modular(const, P2, 0.5, "omega") == 0.0
    # the zero extension sees the constant: full-space value is positive
    assert seminorm_modular(const, P2, 0.5, "full") > 0.0


def test_seminorm_modular_checks_order():
    mesh = Mesh(0.0, 1.0, 16)
    u = GridFunction.constant(mesh, 1.0)
    with pytest.raises(ValueError):
        seminorm_modular(u, P2, 1.5)
    with pytest.raises(ValueError):
        seminorm_modular(u, P2, 0.5, "weird")


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_difference_quotients_weight_to_the_domain_modular(s):
    mesh = Mesh(-1.0, 2.0, 12)
    fields = random_fourier(np.random.default_rng(3), mesh, 4)[1]
    q, w = difference_quotients(fields, mesh, s)
    pairs = mesh.n * (mesh.n - 1) // 2
    assert q.shape == (4, pairs) and w.shape == (pairs,)
    assert np.all(w > 0.0)
    for row, values in zip(q, fields):
        expected = seminorm_modular(GridFunction(mesh, values), P3, s, "omega")
        assert mesh.h ** 2 * np.sum(w * P3(row)) == pytest.approx(expected, rel=1e-12)


def test_seminorm_self_convergence():
    # smooth bump: first-order convergence at s = 1/2, so a 10x refinement
    # agrees within 1 percent from n = 200 on (measured: 0.62 percent)
    def value(n):
        mesh = Mesh(0.0, 1.0, n)
        u = GridFunction(mesh, np.sin(np.pi * mesh.nodes) ** 2)
        return seminorm_modular(u, P2, 0.5, "omega")

    coarse, fine = value(200), value(2000)
    assert abs(coarse - fine) / fine < 0.01


def test_seminorm_convergence_rate_recorded():
    # doubling differences shrink at the documented rate min(1, 2-2s) = 1
    vals = {}
    for n in (64, 128, 256):
        mesh = Mesh(0.0, 1.0, n)
        u = GridFunction(mesh, np.sin(np.pi * mesh.nodes) ** 2)
        vals[n] = seminorm_modular(u, P2, 0.5, "omega")
    d1 = abs(vals[128] - vals[64])
    d2 = abs(vals[256] - vals[128])
    assert np.log2(d1 / d2) == pytest.approx(1.0, abs=0.15)


def test_full_space_dominates_domain_part():
    rng = np.random.default_rng(0)
    mesh = Mesh(0.0, 1.0, 24)
    for _ in range(20):
        u = fourier_field(rng, mesh)
        full = seminorm_modular(u, P2, 0.5, "full")
        omega = seminorm_modular(u, P2, 0.5, "omega")
        assert full >= omega  # exact: the tail adds a nonnegative term


def test_exterior_tail_against_quadrature():
    # per-node tail: integral over r of G(|u_i| / r^s) / r beyond both gaps,
    # checked against adaptive quadrature of the defining integral
    mesh = Mesh(0.0, 1.0, 8)
    s = 0.6
    values = np.linspace(0.3, 1.7, 8)
    for G in (P2, FAMILIES["powerlog3"]):
        expected = 0.0
        for xi, ui in zip(mesh.nodes, values):
            for d in (xi - mesh.a, mesh.b - xi):
                part, _ = quad(lambda r: float(G(ui * r ** (-s))) / r,
                               d, np.inf, limit=400)
                expected += part
        expected *= 2.0 * mesh.h
        got = exterior_tail_energy(values, G, mesh, s)
        assert got == pytest.approx(expected, rel=1e-7)


def test_exterior_tail_gradient_is_exact_derivative():
    mesh = Mesh(0.0, 1.0, 8)
    s = 0.5
    values = np.linspace(0.2, 1.0, 8)
    grad = exterior_tail_gradient(values, P3, mesh, s)
    eps = 1e-7
    for i in range(8):
        up = values.copy(); up[i] += eps
        dn = values.copy(); dn[i] -= eps
        fd = (exterior_tail_energy(up, P3, mesh, s)
              - exterior_tail_energy(dn, P3, mesh, s)) / (2 * eps)
        assert fd == pytest.approx(2.0 * mesh.h * grad[i], rel=1e-6)


def test_reduction_reflection_invariance():
    # summation-order independence proxy: the double sum is exactly
    # reflection-equivariant, so reversing the nodal values (a permutation
    # of all terms) must reproduce the value to 1e-12 relative
    rng = np.random.default_rng(5)
    mesh = Mesh(0.0, 1.0, 32)
    for _ in range(5):
        u = fourier_field(rng, mesh)
        a = seminorm_modular(u, P2, 0.5, "full")
        b = seminorm_modular(u.with_values(u.values[::-1]), P2, 0.5, "full")
        assert abs(a - b) <= 1e-12 * max(a, 1.0)


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------

def test_luxemburg_zero_and_analytic_value():
    mesh = Mesh(0.0, 1.0, 32)
    assert lg_norm(GridFunction.zeros(mesh), P2) == 0.0
    # modular(u/lam) = 1/(2 lam^2) = 1 at lam = 1/sqrt(2)
    assert lg_norm(GridFunction.constant(mesh, 1.0), P2) == \
        pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)


def test_luxemburg_homogeneity_exact():
    rng = np.random.default_rng(2)
    mesh = Mesh(0.0, 1.0, 32)
    for G in FAMILIES.values():
        u = fourier_field(rng, mesh)
        n1 = lg_norm(2.0 * u, G)
        n2 = 2.0 * lg_norm(u, G)
        assert abs(n1 - n2) <= 1e-12 * max(n2, 1.0)


def test_luxemburg_triangle_inequality():
    rng = np.random.default_rng(3)
    mesh = Mesh(0.0, 1.0, 24)
    for G in FAMILIES.values():
        for _ in range(250):
            u = fourier_field(rng, mesh)
            v = fourier_field(rng, mesh)
            assert lg_norm(u + v, G) <= lg_norm(u, G) + lg_norm(v, G) + 1e-8


def test_luxemburg_detects_broken_modular():
    mesh = Mesh(0.0, 1.0, 16)
    u = GridFunction.constant(mesh, 1.0)
    def increasing(w):
        m = float(np.max(np.abs(w.values)))
        return 1.0 / (1e-6 + m), -m / (1e-6 + m) ** 2

    with pytest.raises(ModularNotDecreasingError):
        luxemburg_norm(u, increasing)


def test_modular_norm_sandwich_both_modulars():
    rng = np.random.default_rng(4)
    for G in FAMILIES.values():
        mesh = Mesh(0.0, 1.0, 16)
        for _ in range(25):
            u = fourier_field(rng, mesh)
            if not np.any(u.values):
                continue
            for mod_fn in (lambda w: modular_and_slope(w, G),
                           lambda w: seminorm_modular_and_slope(w, G, 0.5, "omega")):
                phi = mod_fn(u)[0]
                if phi == 0.0:
                    continue
                norm = luxemburg_norm(u, mod_fn)
                low = min(norm ** G.p_minus, norm ** G.p_plus)
                high = max(norm ** G.p_minus, norm ** G.p_plus)
                assert phi >= low - 1e-6 * (1.0 + phi + low)
                assert phi <= high + 1e-6 * (1.0 + phi + high)


def test_gagliardo_seminorm_domains():
    rng = np.random.default_rng(6)
    mesh = Mesh(0.0, 1.0, 24)
    u = fourier_field(rng, mesh)
    omega = gagliardo_seminorm(u, P2, 0.5, "omega")
    full = gagliardo_seminorm(u, P2, 0.5, "full")
    assert full >= omega > 0.0  # bigger modular, bigger gauge


def _level_terms(G, conjugate):
    """batch_luxemburg's evaluator of G, or of its conjugate table as the Hoelder sweep uses it."""
    return complementary(G).table.level_terms if conjugate else G.level_terms


def _reference_norms(G, rows, h):
    """Closed form (h sum G(|u|))^(1/p) for a power, else scipy's find_root
    on the log-log level equation, derivative-free."""
    from scipy.optimize.elementwise import find_root
    if G.family == "power":
        return (h * np.sum(G(np.abs(rows)), axis=1)) ** (1.0 / G.params[0])
    res = find_root(
        lambda y, i: np.log(h * np.sum(G(np.abs(rows[i]) * np.exp(y)[:, None]), axis=1)),
        (-30.0, 30.0), args=(np.arange(len(rows)),),
        tolerances={"xatol": 1e-14, "xrtol": 0.0})
    return np.exp(-res.x)


def test_modular_and_slope_share_one_evaluation():
    # the values are the modulars bit for bit, and the second terms are the
    # derivatives of modular(mu u) in log mu at mu = 1
    rng = np.random.default_rng(13)
    mesh = Mesh(0.0, 1.0, 16)
    u = fourier_field(rng, mesh)
    eps = 1e-6
    for G in FAMILIES.values():
        pairs = [(lambda w: modular_and_slope(w, G), lambda w: modular(w, G))]
        pairs += [(lambda w, d=d: seminorm_modular_and_slope(w, G, 0.5, d),
                   lambda w, d=d: seminorm_modular(w, G, 0.5, d)) for d in ("omega", "full")]
        for with_slope, plain in pairs:
            value, derivative = with_slope(u)
            assert value == plain(u)
            fd = (plain(u * np.exp(eps)) - plain(u * np.exp(-eps))) / (2 * eps)
            assert derivative == pytest.approx(fd, rel=1e-7)


def test_batch_luxemburg_modulars_are_the_plain_modulars():
    # the first level evaluation, at mu = 1, is h sum G(|row|) bit for bit
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 32)
    _, rows = random_fourier(rng, mesh, 200)
    rows[3] = 0.0
    for G in FAMILIES.values():
        modulars = batch_luxemburg(rows, mesh.h, G.level_terms)[1]
        assert np.array_equal(modulars, mesh.h * np.sum(G(np.abs(rows)), axis=-1))


def test_batch_luxemburg_matches_single():
    rng = np.random.default_rng(8)
    mesh = Mesh(0.0, 1.0, 16)
    rows = np.vstack([random_fourier(rng, mesh, 6)[1], np.zeros(16)])
    batch = batch_luxemburg(rows, mesh.h, P3.level_terms)[0]
    for row, val in zip(rows, batch):
        ref = lg_norm(GridFunction(mesh, row), P3)
        assert val == pytest.approx(ref, abs=1e-9, rel=1e-9)


def test_batch_luxemburg_level_evaluations_few_on_pure_power():
    # log modular is affine in log scale for a pure power, so the Newton
    # step from mu = 1 lands on the root and one more level certifies it
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 32)
    _, rows = random_fourier(rng, mesh, 200)
    calls = []

    def counted(t, out):
        calls.append(1)
        return P3.level_terms(t, out)

    batch = batch_luxemburg(rows, mesh.h, counted)[0]
    assert len(calls) <= 12
    # pure power: modular(u / lam) = modular(u) / lam^p, so the norm is closed form
    exact = (mesh.h * np.sum(P3(np.abs(rows)), axis=1)) ** (1.0 / 3.0)
    assert np.allclose(batch, exact, rtol=1e-12, atol=0.0)


def test_batch_luxemburg_reuses_bracket_level_values():
    # the level at mu = 1 is evaluated once: it is the modular and the
    # root-finder's start, so no level is evaluated twice
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 32)
    _, rows = random_fourier(rng, mesh, 200)
    calls = []

    def counted(t, out):
        calls.append(1)
        return P3.level_terms(t, out)

    batch_luxemburg(rows, mesh.h, counted)
    assert len(calls) <= 7


@pytest.mark.parametrize("name, conjugate, bound", [
    ("power3", False, 4.0), ("power3", True, 4.0),
    ("powersum34", False, 7.0), ("powerlog3", False, 7.0)])
def test_batch_luxemburg_row_evaluations(name, conjugate, bound):
    # each evaluation gathers only the rows still open, and the Newton
    # step lands on a pure power's root: row evaluations per row, i.e.
    # entries passed to the evaluator over the batch size
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 32)
    _, rows = random_fourier(rng, mesh, 200)
    terms = _level_terms(FAMILIES[name], conjugate)
    entries = []

    def counted(t, out):
        entries.append(t.size)
        return terms(t, out)

    batch_luxemburg(rows, mesh.h, counted)
    assert sum(entries) / rows.size <= bound


@pytest.mark.parametrize("name, conjugate, bound", [
    ("power3", False, 3.1), ("power3", True, 3.1), ("power4", False, 3.1),
    ("powersum34", False, 6.2), ("powerlog3", False, 6.2)])
def test_batch_luxemburg_row_evaluations_with_early_stop(name, conjugate, bound):
    # the root-finder stops once an iterate's log gap is within
    # BISECT_REL_TOL / 2: a pure power's Newton step lands there, so the
    # evaluation at mu = 1 and the one at that step make 2 per row (about
    # 4 for powersum34 and powerlog3 on this data); the power norms stay
    # within 2 BISECT_REL_TOL of the closed form
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 32)
    _, rows = random_fourier(rng, mesh, 200)
    G = FAMILIES[name]
    terms = _level_terms(G, conjugate)
    entries = []

    def counted(t, out):
        entries.append(t.size)
        return terms(t, out)

    norms = batch_luxemburg(rows, mesh.h, counted)[0]
    assert sum(entries) / rows.size <= bound
    if not conjugate and G.family == "power":
        p = G.params[0]
        exact = (mesh.h * np.sum(np.abs(rows) ** p / p, axis=1)) ** (1.0 / p)
        assert np.max(np.abs(norms / exact - 1.0)) <= 2.0 * BISECT_REL_TOL


STRADDLED_CHUNK = 4096  # a chunk size the row counts below sit on and around


@pytest.mark.parametrize("nonzero", [STRADDLED_CHUNK - 1, STRADDLED_CHUNK,
                                     STRADDLED_CHUNK + 1, 2 * STRADDLED_CHUNK + 3])
def test_batch_luxemburg_chunking_changes_no_bit(nonzero):
    # rows are solved independently: calls on consecutive slices that each
    # hold 1, 5, 1000, STRADDLED_CHUNK or the field sweeps' FIELD_CHUNK
    # nonzero rows, the two zero rows included where they sit at the end of
    # the first STRADDLED_CHUNK, equal one call on all rows bit for bit, and
    # a call on the zero rows alone gives zeros.  Each row's sums run in an
    # order that does not depend on how many rows a call holds (a BLAS
    # matrix product for the derivative's sum moved a row of the power3
    # conjugate by an ulp at cuts of 5 and of 4096)
    rng = np.random.default_rng(12)
    mesh = Mesh(0.0, 1.0, 8)
    _, fields = random_fourier(rng, mesh, nonzero)
    rows = np.insert(fields, [STRADDLED_CHUNK - 1, STRADDLED_CHUNK - 1], 0.0, axis=0)
    zero = [STRADDLED_CHUNK - 1, STRADDLED_CHUNK]
    for terms in (_level_terms(P3, False), _level_terms(P3, True)):
        whole, whole_modulars = batch_luxemburg(rows, mesh.h, terms)
        assert not np.any(batch_luxemburg(rows[zero], mesh.h, terms))
        for chunk in (1, 5, 1000, STRADDLED_CHUNK, FIELD_CHUNK):
            # cut before every chunk-th nonzero row
            cuts = list(np.flatnonzero(np.any(rows, axis=1))[::chunk]) + [len(rows)]
            parts = [batch_luxemburg(rows[lo:hi], mesh.h, terms)
                     for lo, hi in zip(cuts, cuts[1:])]
            chunked, chunked_modulars = (np.concatenate(v) for v in zip(*parts))
            assert np.array_equal(chunked, whole)
            assert np.array_equal(chunked_modulars, whole_modulars)
            assert np.all(chunked[zero] == 0.0) and np.all(np.delete(chunked, zero) > 0.0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_batch_luxemburg_matches_reference_norms(name):
    # powers against the closed form (h sum G(|u|))^(1/p), the others
    # against scipy's find_root on the same log-log equation
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 32)
    _, rows = random_fourier(rng, mesh, 200)
    G = FAMILIES[name]
    batch = batch_luxemburg(rows, mesh.h, G.level_terms)[0]
    assert np.allclose(batch, _reference_norms(G, rows, mesh.h), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name, kind, bound", [
    ("power3", "G", 2.05), ("power3", "conjugate", 2.05), ("power3", "seminorm", 2.05),
    ("power4", "G", 2.05), ("power4", "conjugate", 2.05), ("power4", "seminorm", 2.05),
    ("powersum34", "G", 4.5), ("powerlog3", "G", 4.5)])
def test_newton_level_evaluations_per_row(name, kind, bound):
    # a pure power's level, its conjugate table's (a pure power too) and
    # its kernel-weighted seminorm level scale like powers of mu, so the
    # Newton step from mu = 1 lands on the root and the next evaluation
    # certifies it: 2 row evaluations per row
    rng = np.random.default_rng(9)
    G = FAMILIES[name]
    if kind == "seminorm":
        mesh = Mesh(0.0, 1.0, 8)
        rows, weights = difference_quotients(random_fourier(rng, mesh, 200)[1], mesh, 0.5)
        h = mesh.h ** 2

        def terms(t, out):
            e, tg = G.level_terms(t, out)
            return e * weights, tg * weights
    else:
        mesh = Mesh(0.0, 1.0, 32)
        _, rows = random_fourier(rng, mesh, 200)
        h = mesh.h
        terms = _level_terms(G, kind == "conjugate")
    entries = []

    def counted(t, out):
        entries.append(t.size)
        return terms(t, out)

    batch_luxemburg(rows, h, counted)
    assert sum(entries) / rows.size <= bound


@pytest.mark.parametrize("name", ["power3", "powersum34", "powerlog3"])
@pytest.mark.parametrize("wrong", ["half", "quadruple", "one"])
def test_wrong_slope_steers_but_the_value_certifies(name, wrong):
    # the stop reads only the level, so a slope off by a factor of 2 or 4,
    # or a constant 1, costs evaluations but not accuracy
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 32)
    _, rows = random_fourier(rng, mesh, 200)
    G = FAMILIES[name]

    def terms(t, out):
        e, tg = G.level_terms(t, out)
        if wrong == "one":
            tg[...] = e
        else:
            tg *= 0.5 if wrong == "half" else 4.0
        return e, tg

    norms = batch_luxemburg(rows, mesh.h, terms)[0]
    ref = _reference_norms(G, rows, mesh.h)
    assert np.max(np.abs(norms / ref - 1.0)) <= BISECT_REL_TOL


@pytest.mark.parametrize("name", ["power3", "powersum34", "powerlog3"])
@pytest.mark.parametrize("wrong", ["quadruple", "one"])
def test_stalled_newton_steps_through_the_bracket_ends(name, wrong):
    # a slope 4x too steep, or a constant 1, stalls the Newton step; the
    # false-position step through the bracket ends then takes over, which
    # costs at most 10.3 level evaluations per row here (bisecting a
    # bracket as wide as the walk step took 40-62)
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 32)
    _, rows = random_fourier(rng, mesh, 200)
    G = FAMILIES[name]
    entries = []

    def terms(t, out):
        entries.append(t.size)
        e, tg = G.level_terms(t, out)
        if wrong == "one":
            tg[...] = e
        else:
            tg *= 4.0
        return e, tg

    norms = batch_luxemburg(rows, mesh.h, terms)[0]
    assert sum(entries) / rows.size <= 11.0
    assert np.max(np.abs(norms / _reference_norms(G, rows, mesh.h) - 1.0)) <= BISECT_REL_TOL


@pytest.mark.parametrize("domain", ["omega", "full"])
@pytest.mark.parametrize("name", ["power3", "powerlog3"])
def test_gagliardo_seminorm_matches_reference(name, domain):
    # a power's modular of mu u is mu^p times that of u (the exterior tail
    # too), so its gauge is the modular's p-th root; powerlog3's gauge is
    # checked against scipy's find_root on the log of the plain modular
    from scipy.optimize.elementwise import find_root
    rng = np.random.default_rng(7)
    mesh = Mesh(0.0, 1.0, 24)
    G = FAMILIES[name]
    log_level = np.vectorize(lambda y: np.log(seminorm_modular(u * np.exp(y), G, 0.5, domain)))
    for _ in range(3):
        u = fourier_field(rng, mesh)
        norm = gagliardo_seminorm(u, G, 0.5, domain)
        if G.family == "power":
            ref = seminorm_modular(u, G, 0.5, domain) ** (1.0 / G.params[0])
        else:
            res = find_root(log_level, (-30.0, 30.0),
                            tolerances={"xatol": 1e-14, "xrtol": 0.0})
            ref = float(np.exp(-res.x))
        assert norm == pytest.approx(ref, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# pairing and Poincare
# ---------------------------------------------------------------------------

def test_holder_trivial_and_equality():
    mesh = Mesh(0.0, 1.0, 32)
    zero = GridFunction.zeros(mesh)
    lhs, rhs, ok = holder_pairing_check(zero, zero, P2)
    assert lhs == 0.0 and rhs == 0.0 and ok
    one = GridFunction.constant(mesh, 1.0)
    lhs, rhs, ok = holder_pairing_check(one, one, P2)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0, rel=1e-8)
    assert ok


def test_holder_random_pairs():
    rng = np.random.default_rng(9)
    mesh = Mesh(0.0, 1.0, 16)
    for G in FAMILIES.values():
        conj = complementary(G)
        for _ in range(40):
            u = fourier_field(rng, mesh)
            v = fourier_field(rng, mesh)
            lhs, rhs, ok = holder_pairing_check(u, v, G, conj)
            assert ok, (lhs, rhs, G.name)


def test_poincare_estimate_properties():
    mesh = Mesh(0.0, 1.0, 64)
    small = poincare_constant_estimate(P2, 0.5, mesh, samples=100, seed=5)
    assert np.isfinite(small) and small > 0.0
    # running max is nondecreasing in the sample count under a shared seed
    large = poincare_constant_estimate(P2, 0.5, mesh, samples=300, seed=5)
    assert large >= small
    # frozen regression baseline: the empirical max stabilizes near 0.0294
    assert small == pytest.approx(0.029351, abs=1e-4)
    assert abs(large - small) / small < 0.10
    with pytest.raises(ValueError):
        poincare_constant_estimate(P2, 0.5, mesh, samples=10, seed=5)


# ---------------------------------------------------------------------------
# discrete operator
# ---------------------------------------------------------------------------

def test_operator_antisymmetry():
    rng = np.random.default_rng(10)
    mesh = Mesh(-1.0, 1.0, 24)
    u = fourier_field(rng, mesh)
    plus = operator_apply(u.values, P3, mesh, 0.5)
    minus = operator_apply(-u.values, P3, mesh, 0.5)
    assert np.array_equal(plus, -minus)


def test_operator_pairing_matches_symmetrized_double_sum():
    # the representer form h <A(u), phi> must agree with the symmetric
    # double-sum weak form over all node pairs plus the exterior tails
    from fracorlicz.grid import _kernel
    rng = np.random.default_rng(11)
    mesh = Mesh(0.0, 1.0, 16)
    s = 0.5
    u = fourier_field(rng, mesh)
    phi = fourier_field(rng, mesh)
    inv_s, _, inv_1s, _, _ = _kernel(mesh, s)
    du = u.values[:, None] - u.values[None, :]
    dphi = phi.values[:, None] - phi.values[None, :]
    double_sum = mesh.h ** 2 * np.sum(
        P3.deriv(np.abs(du) * inv_s) * np.sign(du) * dphi * inv_1s)
    tails = 2.0 * mesh.h * np.sum(
        exterior_tail_gradient(u.values, P3, mesh, s) * phi.values)
    expected = double_sum + tails
    got = mesh.h * np.sum(operator_apply(u.values, P3, mesh, s) * phi.values)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("batch", [(64,), (1,), (2,), (), (2, 3)])
def test_operator_pairing_is_the_paired_operator(name, batch):
    # the weak form over the unordered pairs is h sum(A(u) phi) of the
    # operator, for a batch, one row, two rows, one field and two batch axes
    G = FAMILIES[name]
    rng = np.random.default_rng(14)
    mesh = Mesh(0.0, 1.0, 12)
    count = int(np.prod(batch))
    u = np.exp(random_fourier(rng, mesh, count)[1]).reshape(batch + (mesh.n,))
    phi = random_fourier(rng, mesh, count)[1].reshape(batch + (mesh.n,))
    got = operator_pairing(u, phi, G, mesh, 0.5)
    want = mesh.h * np.sum(operator_apply(u, G, mesh, 0.5) * phi, axis=-1)
    assert np.shape(got) == batch
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def _dense_pair_reference(values, G, mesh, s):
    """Interior modular and operator from full n x n matrices over mesh.nodes."""
    x = mesh.nodes
    off = ~np.eye(mesh.n, dtype=bool)
    d = np.where(off, np.abs(x[:, None] - x[None, :]), 1.0)
    diff = values[:, None] - values[None, :]
    q = np.abs(diff) / d ** s
    energy = mesh.h ** 2 * np.sum(np.where(off, G(q) / d, 0.0))
    terms = np.where(off, G.deriv(q) * np.sign(diff) / d ** (1.0 + s), 0.0)
    return energy, 2.0 * mesh.h * np.sum(terms, axis=1)


@pytest.mark.parametrize("n", [8, 65, 130])
@pytest.mark.parametrize("G", [P2, P3, FAMILIES["powersum34"], FAMILIES["powerlog3"]],
                         ids=lambda g: g.family + str(g.params[0]))
def test_pair_pass_matches_dense_double_sum(G, n):
    # the blocked pass against the plain double sum, at sizes that are not
    # multiples of the row block; a batch of fields matches field by field
    from fracorlicz.grid import modular_and_operator
    rng = np.random.default_rng(n)
    mesh = Mesh(0.0, 1.0, n)
    s = 0.4
    _, fields = random_fourier(rng, mesh, 2)
    batch = operator_apply(fields, G, mesh, s)
    for values, batch_row in zip(fields, batch):
        energy, interior = _dense_pair_reference(values, G, mesh, s)
        tails = 2.0 * exterior_tail_gradient(values, G, mesh, s)
        u = GridFunction(mesh, values)
        assert seminorm_modular(u, G, s, "omega") == pytest.approx(energy, rel=1e-12)
        op = operator_apply(values, G, mesh, s)
        scale = np.max(np.abs(interior + tails))
        assert np.max(np.abs(op - (interior + tails))) <= 1e-10 * scale
        assert np.max(np.abs(batch_row - op)) <= 1e-10 * scale
        full, fused = modular_and_operator(values, G, mesh, s)
        assert full == seminorm_modular(u, G, s, "full")
        assert np.array_equal(fused, op)


def test_warm_pair_pass_allocates_less_than_two_slabs():
    # the slab buffers outlive the pass: a warm n = 400 pass allocates only
    # O(n) results and per-block row sums, not its 64 x 400 slabs
    import tracemalloc
    from fracorlicz.grid import modular_and_operator, PAIR_BLOCK
    mesh = Mesh(0.0, 1.0, 400)
    values = np.sqrt(mesh.nodes * (1.0 - mesh.nodes))
    modular_and_operator(values, P3, mesh, 0.5)
    tracemalloc.start()
    try:
        modular_and_operator(values, P3, mesh, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * PAIR_BLOCK * mesh.n * 8


@pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
def test_warm_pair_pass_allocates_less_than_two_slabs_every_family(name):
    # each family's pair_terms writes only into the slab buffers, so a warm
    # n = 400 energy-and-gradient pass stays under the power3 bound
    import tracemalloc
    from fracorlicz.grid import modular_and_operator, PAIR_BLOCK
    G = STANDARD_FAMILIES[name]
    mesh = Mesh(0.0, 1.0, 400)
    values = np.sqrt(mesh.nodes * (1.0 - mesh.nodes))
    modular_and_operator(values, G, mesh, 0.5)
    tracemalloc.start()
    try:
        modular_and_operator(values, G, mesh, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * PAIR_BLOCK * mesh.n * 8


def test_pair_pass_results_do_not_alias_the_slab_buffers():
    from fracorlicz.grid import modular_and_operator, _slab_workspace, PAIR_BLOCK, PAIR_SLABS
    rng = np.random.default_rng(21)
    mesh = Mesh(0.0, 1.0, 130)
    s = 0.4
    a, b = random_fourier(rng, mesh, 2)[1]
    energy_a, op_a = modular_and_operator(a, P3, mesh, s)
    kept = op_a.copy()
    energy_b, op_b = modular_and_operator(b, P3, mesh, s)
    hits = _slab_workspace.cache_info().hits
    work = _slab_workspace(PAIR_SLABS * PAIR_BLOCK * mesh.n)
    assert _slab_workspace.cache_info().hits == hits + 1   # the buffer the passes used
    assert not np.shares_memory(op_a, op_b)
    assert not np.shares_memory(op_a, work) and not np.shares_memory(op_b, work)
    assert np.array_equal(op_a, kept)
    # a batched pass on another mesh between two 1-D passes changes nothing
    first = operator_apply(a, P3, mesh, s)
    small = Mesh(0.0, 1.0, 12)
    batches = rng.uniform(-1.0, 1.0, (2, 512, small.n))
    x = operator_apply(batches[0], P3, small, s)
    again = operator_apply(a, P3, mesh, s)
    assert np.array_equal(first, again) and np.array_equal(op_a, kept)
    # batched passes use the one workspace too: a second pass of the same
    # shape is a cache hit, and neither result aliases the other or it
    kept_x = x.copy()
    operator_apply(batches[0], P3, small, s)
    hits = _slab_workspace.cache_info().hits
    y = operator_apply(batches[1], P3, small, s)
    assert _slab_workspace.cache_info().hits == hits + 1
    work = _slab_workspace(PAIR_SLABS * batches[0].size * small.n)
    assert not np.shares_memory(x, y)
    assert not np.shares_memory(x, work) and not np.shares_memory(y, work)
    # a batched pass repeated after another batched pass gives the same bits
    assert np.array_equal(x, kept_x)
    assert np.array_equal(operator_apply(batches[0], P3, small, s), kept_x)
    assert (energy_a, energy_b) == (modular_and_operator(a, P3, mesh, s)[0],
                                    modular_and_operator(b, P3, mesh, s)[0])


def _owning_array(arr):
    """The array whose buffer a (possibly strided) view reads."""
    owner = arr
    while getattr(arr, "base", None) is not None:
        arr = arr.base
        if isinstance(arr, np.ndarray):
            owner = arr
    return owner


def test_kernel_cache_owns_vectors_not_matrices():
    # the Toeplitz views of _kernel own O(n) floats: at n = 1600 three dense
    # matrices would own 61 MB
    from fracorlicz.grid import _kernel
    mesh = Mesh(0.0, 1.0, 1600)
    owners = {}
    for arr in _kernel(mesh, 0.5):
        assert arr.shape in ((1600, 1600), (1600,))
        owner = _owning_array(arr)
        owners[id(owner)] = owner.nbytes
    assert sum(owners.values()) < 1_000_000


def test_operator_batch_matches_single():
    rng = np.random.default_rng(12)
    mesh = Mesh(0.0, 1.0, 12)
    rows = np.stack([random_positive(rng, mesh).values for _ in range(5)])
    batch = operator_apply_batch(rows, P3, mesh, 0.5)
    for row, out in zip(rows, batch):
        assert np.allclose(out, operator_apply(row, P3, mesh, 0.5), rtol=1e-12)


def test_random_field_generators():
    # one (m, 8) draw consumes the stream like m successive draws of 8, so
    # batched and one-at-a-time callers see the same coefficients
    mesh = Mesh(0.0, 1.0, 32)
    rng = np.random.default_rng(13)
    coeff, fields = random_fourier(rng, mesh, 5)
    ref = np.random.default_rng(13)
    assert np.array_equal(coeff, [ref.uniform(-1.0, 1.0, 8) for _ in range(5)])
    modes = np.sin(np.pi * np.outer(np.arange(1, 9), mesh.nodes))
    assert np.allclose(fields, coeff @ modes, rtol=0.0, atol=1e-14)
    assert rng.random() == ref.random()
    v = random_positive(rng, mesh)
    assert np.all(v.values > 0.0)
    ratio = v.values.max() / v.values.min()
    assert ratio < 1e6  # bounded mutual ratios by construction
