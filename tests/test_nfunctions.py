"""N-function calculus: construction, indices, conjugates, compositions."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from fracorlicz.nfunctions import (
    NFunction, InvalidNFunctionError, BracketExpansionError,
    SobolevConjugateError, power_nfunction, power_log_nfunction,
    power_sum_nfunction, tabulated_nfunction, construct_nfunction,
    estimate_indices, complementary, inverse_nfunction, sobolev_conjugate,
    compose_power, reaction_weight_nfunction, singular_weight_nfunction,
    essentially_faster, solve_increasing, LogLogTable, INDEX_GRID, _LOG_HUGE,
    BISECT_REL_TOL, _increasing_knots,
)

FAMILIES = {
    "power3": power_nfunction(3.0),
    "power4": power_nfunction(4.0),
    "powersum34": power_sum_nfunction(3.0, 4.0),
    "powerlog3": power_log_nfunction(3.0),
}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_power2_point_values():
    G = power_nfunction(2.0)
    assert G(3.0) == pytest.approx(4.5)
    assert G.deriv(3.0) == pytest.approx(3.0)
    assert G.deriv2(3.0) == pytest.approx(1.0)


def test_powersum_at_one():
    G = power_sum_nfunction(3.0, 4.0)
    assert G(1.0) == pytest.approx(1.0 / 3.0 + 1.0 / 4.0)


def test_powerlog_at_one():
    # |ln 1| = 0, so the value is t^p / p
    assert power_log_nfunction(2.0)(1.0) == pytest.approx(0.5)
    assert power_log_nfunction(3.0)(1.0) == pytest.approx(1.0 / 3.0)


def test_constructor_rejections():
    with pytest.raises(InvalidNFunctionError):
        power_nfunction(1.5)
    with pytest.raises(InvalidNFunctionError):
        power_sum_nfunction(3.0, 2.0)
    with pytest.raises(InvalidNFunctionError):
        power_log_nfunction(1.0)
    with pytest.raises(InvalidNFunctionError):
        construct_nfunction("nosuchfamily", p=3.0)


def test_dispatcher_matches_direct_constructors():
    assert construct_nfunction("power", p=3.0)(2.0) == power_nfunction(3.0)(2.0)
    assert construct_nfunction("powersum", p=3.0, q=4.0)(2.0) == \
        power_sum_nfunction(3.0, 4.0)(2.0)


def test_powerlog_derivative_right_limit_at_kink():
    # the derivative jumps upward at t = 1; the value there is the right limit
    G = power_log_nfunction(3.0)
    assert G.deriv(1.0) == pytest.approx(4.0 / 3.0)
    assert float(G.deriv(1.0 - 1e-12)) == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_validate_clean_for_standard_families():
    for G in FAMILIES.values():
        assert G.validate() == []


def test_powerlog2_carries_warnings():
    G = power_log_nfunction(2.0)
    assert G.warnings  # lower index collapses and convexity fails near the kink
    assert any("index" in w for w in G.warnings)


# ---------------------------------------------------------------------------
# growth indices
# ---------------------------------------------------------------------------

def test_indices_power_exact():
    # the derivative ratio is constant, so the estimate is exact
    for p in (2.0, 3.0, 4.5):
        lo, hi = estimate_indices(power_nfunction(max(p, 2.0)))
        assert lo == pytest.approx(p if p >= 2 else 2.0, abs=1e-9)
        assert hi == pytest.approx(p if p >= 2 else 2.0, abs=1e-9)


def test_indices_powersum_analytic_limits():
    # ratio (2 + 3t)/(1 + t): infimum 2 at t -> 0, supremum 3 at t -> infinity
    lo, hi = estimate_indices(power_sum_nfunction(3.0, 4.0))
    assert lo == pytest.approx(3.0, rel=1e-6)
    assert hi == pytest.approx(4.0, rel=1e-6)


def test_indices_powerlog_observed_extrema():
    # frozen output of the derivative-ratio grid search on the standard grid;
    # the infimum sits just left of the kink (limit 1.5), the supremum just
    # right of it (limit 3.75)
    lo, hi = estimate_indices(power_log_nfunction(3.0))
    assert lo == pytest.approx(1.507552718379645, abs=1e-12)
    assert hi == pytest.approx(3.748107054777698, abs=1e-12)
    # recorded closed-form envelope covers both monotonicity ratios
    G = power_log_nfunction(3.0)
    assert (G.p_minus, G.p_plus) == (1.5, 4.0)


def test_indices_grid_span_enforced():
    with pytest.raises(ValueError):
        estimate_indices(power_nfunction(3.0), np.logspace(-2, 2, 64))


def test_indices_reject_vanishing_derivative():
    broken = power_nfunction(3.0)
    vanishing = lambda t, out: (broken(t), np.zeros_like(t))
    bad = NFunction(family="broken", params=(), pair_terms=vanishing,
                    deriv2_fn=broken.deriv2_fn, tail_primitive_fn=broken.tail_primitive_fn,
                    p_minus=3.0, p_plus=3.0)
    with pytest.raises(InvalidNFunctionError):
        estimate_indices(bad)


def test_nfunction_needs_a_tail_primitive():
    # the full-space modular's exterior tails have no other path
    G = power_nfunction(3.0)
    with pytest.raises(TypeError, match="tail_primitive_fn"):
        NFunction(family="no-tail", params=(), pair_terms=G.pair_terms,
                  deriv2_fn=G.deriv2_fn, p_minus=3.0, p_plus=3.0)


def test_index_ratio_bounds_value_ratio():
    # consequence of the index bracketing: p- <= t g / G <= p+ on samples
    for G in FAMILIES.values():
        t = np.logspace(-6, 6, 1000)
        ratio = t * G.deriv(t) / G(t)
        assert np.all(ratio >= G.p_minus - 1e-8)
        assert np.all(ratio <= G.p_plus + 1e-8)


def test_doubling_constant():
    for G in FAMILIES.values():
        t = np.logspace(-6, 6, 400)
        assert np.all(G(2 * t) <= G.delta2_constant * G(t) * (1 + 1e-9))


# ---------------------------------------------------------------------------
# complementary function
# ---------------------------------------------------------------------------

def test_complementary_power2_self_conjugate():
    conj = complementary(power_nfunction(2.0))
    assert conj(3.0) == pytest.approx(4.5, rel=1e-10)
    assert conj(3.0) == pytest.approx(4.5, rel=1e-12)


def test_complementary_power3_analytic():
    # Legendre transform of t^3/3 is (2/3) t^(3/2); at t=1 the maximizer is 1
    conj = complementary(power_nfunction(3.0))
    assert conj(1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    t = np.logspace(-3, 3, 41)
    assert np.allclose(conj(t), (2.0 / 3.0) * t ** 1.5, rtol=1e-8)


def test_complementary_reads_its_table_once_per_call(monkeypatch):
    # the Newton refinement is seeded from the table slope, the one lookup
    conj = complementary(power_nfunction(3.0))
    calls = []
    locate = LogLogTable._locate

    def counted(self, x):
        calls.append(1)
        return locate(self, x)

    monkeypatch.setattr(LogLogTable, "_locate", counted)
    conj(np.array([0.5, 2.0]))
    assert len(calls) == 1


def test_nan_argument_propagates():
    G = power_nfunction(3.0)
    conj = complementary(G)
    for fn in (conj, conj.table, inverse_nfunction(G)):
        out = fn(np.array([np.nan, 0.0, 1.0]))
        assert np.isnan(out[0]) and out[1] == 0.0 and np.isfinite(out[2])


def _pair_families():
    from fracorlicz.inequalities import STANDARD_FAMILIES
    return {"power2": power_nfunction(2.0), **STANDARD_FAMILIES}


def _closed_forms(G, t):
    """(G(t), g(t)) of a built-in family, written out as printed."""
    p, *q = G.params
    if G.family == "power":
        return t ** p / p, t ** (p - 1.0)
    if G.family == "powersum":
        q = q[0]
        return t ** p / p + t ** q / q, t ** (p - 1.0) + t ** (q - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log(t)
        value = np.where(t == 0.0, 0.0, t ** p * (np.abs(log) + 1.0) / p)
        slope = np.where(t == 0.0, 0.0, t ** (p - 1.0)
                         * np.where(t < 1.0, 1.0 - 1.0 / p - log, log + 1.0 + 1.0 / p))
    return value, slope


@pytest.mark.parametrize("name", list(_pair_families()))
def test_pair_terms_match_fn_and_deriv(name):
    # G and g within 4 ulp of the closed forms (exact where infinite or 0),
    # and G, G.deriv and level_terms the same bits as pair_terms into buffers
    G = _pair_families()[name]
    t = np.concatenate([[0.0, 1e-300, 1e-3, 1.0, 7.5, 1e300, np.inf],
                        np.logspace(-6.0, 6.0, 97),
                        np.exp(np.random.default_rng(5).uniform(-14.0, 14.0, 20000))])
    with np.errstate(over="ignore"):
        e, g = G.pair_terms(t, out=(np.empty_like(t), np.empty_like(t)))
        assert np.array_equal(G(t), e) and np.array_equal(G.deriv(t), g)
        level, tg = G.level_terms(t)
        assert np.array_equal(level, e) and np.array_equal(tg, t * g)
        refs = _closed_forms(G, t)
    for got, ref in zip((e, g), refs):
        finite = np.isfinite(ref) & (ref > 0.0)
        assert np.array_equal(got[~finite], ref[~finite])
        assert np.all(np.abs(got[finite] - ref[finite]) <= 4.0 * np.spacing(ref[finite]))
    if G.family == "power" and G.params[0] == 2.0:
        assert np.array_equal(e, refs[0])


@pytest.mark.parametrize("name", list(_pair_families()))
def test_pair_terms_keep_nan(name):
    G = _pair_families()[name]
    t = np.array([np.nan, 0.0, 1.0])
    e, g = G.pair_terms(t, out=(np.empty(3), np.empty(3)))
    for part in (e, g, G(t), G.deriv(t)):
        assert np.isnan(part[0]) and part[1] == 0.0 and part[2] > 0.0


@pytest.mark.parametrize("name", list(_pair_families()))
def test_pair_terms_at_edge_arguments(name):
    # +0.0 (never -0.0) at t <= 0, NaN at NaN, and G and G.deriv the same
    # bits as pair_terms, with and without buffers; the power family's
    # domain is t >= 0 (it does not clamp), so its negative arguments check
    # the bits only
    G = _pair_families()[name]
    t = np.array([-1e300, -1.0, -0.0, 0.0, 5e-324, 1.0, 1e300, np.inf, np.nan])
    with np.errstate(over="ignore"):
        e, g = G.pair_terms(t, out=(np.empty_like(t), np.empty_like(t)))
        parts = [G(t), G.pair_terms(t, out=(np.empty_like(t), None))[0],
                 G.deriv(t), G.pair_terms(t, out=(None, np.empty_like(t)))[1]]
    for part, fused in zip(parts, (e, e, g, g)):
        assert np.array_equal(part[:-1].view(np.int64), fused[:-1].view(np.int64))
        assert np.isnan(part[-1])
    zero = slice(3 if G.family == "power" else 0, 4)
    for part in (e, g):
        assert np.all(part[zero] == 0.0) and not np.any(np.signbit(part[zero]))
        assert part[4] >= 0.0 and not np.signbit(part[4])
        assert 0.0 < part[5] < np.inf and part[6] >= 1e300 and part[7] == np.inf
        assert np.isnan(part[8])
    assert e[5] == G(1.0) and g[5] == G.deriv(1.0)


def test_tabulated_derivative_vanishes_at_origin():
    t = np.logspace(-3, 3, 200)
    T = tabulated_nfunction(t, t ** 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert T.deriv(0.0) == 0.0
        assert inverse_nfunction(T)(np.array([0.0]))[0] == 0.0


@pytest.mark.filterwarnings("error")
def test_table_derivative_vanishes_at_origin():
    # the (v / x) * slope form was 0/0 there: NaN with a RuntimeWarning
    G = power_nfunction(3.0)
    conj = complementary(G)
    x = np.array([0.0, 1.0, np.nan])
    for fn in (conj.deriv, sobolev_conjugate(G, 0.25).deriv):
        out = fn(x)
        assert out[0] == 0.0 and out[1] > 0.0 and np.isnan(out[2])
    assert conj.deriv(1.0) == pytest.approx(1.0, rel=1e-6)   # (2/3) t^(3/2) at 1


def _scalar_rule_subject(name):
    if name in FAMILIES:
        return FAMILIES[name]
    if name == "tabulated":
        t = np.logspace(-3, 3, 200)
        return tabulated_nfunction(t, t ** 3)
    derive = {"conjugate": complementary, "inverse": inverse_nfunction}[name]
    return derive(power_nfunction(3.0))


@pytest.mark.parametrize("name", [*FAMILIES, "tabulated", "conjugate", "inverse"])
def test_table_derivative_of_a_scalar_is_a_float(name):
    # one scalar rule: a 0-d argument gives a Python float, an array an
    # array of its shape
    F = _scalar_rule_subject(name)
    assert type(F(2.0)) is float and type(F.inverse(2.0)) is float
    for t in (0.0, 1.0, 2.5):
        assert type(F.deriv(t)) is float and type(F.deriv(np.float64(t))) is float
    if isinstance(F, NFunction):
        assert type(F.deriv2(2.0)) is float and type(F.integral_over_t(2.0)) is float
    else:
        assert type(F.table.derivative(np.float64(2.5))) is float
    assert F.deriv(np.array([1.0])).shape == (1,)
    assert F(np.ones((2, 3))).shape == F.inverse(np.ones((2, 3))).shape == (2, 3)


def test_complementary_powersum_bracket():
    # value at g(1) = 2 must sit inside the conjugate sandwich bounds
    G = power_sum_nfunction(3.0, 4.0)
    conj = complementary(G)
    val = conj(2.0)
    assert (G.p_minus - 1.0) * G(1.0) <= val <= (G.p_plus - 1.0) * G(1.0)


def test_young_inequality_and_equality_case():
    rng = np.random.default_rng(7)
    for G in FAMILIES.values():
        conj = complementary(G)
        a = rng.uniform(0.0, 100.0, 20000)
        b = rng.uniform(0.0, 100.0, 20000)
        Ga, Gb = G(a), conj(b)
        gap = Ga + Gb - a * b
        assert np.all(gap >= -1e-8 * (1.0 + Ga + Gb))
        # equality branch within 1e-6 relative, through the interpolated table
        t = rng.uniform(0.05, 50.0, 2000)
        bg = G.deriv(t)
        dev = np.abs(G(t) + conj(bg) - t * bg)
        assert np.all(dev <= 1e-6 * (1.0 + G(t) + conj(bg)))


def test_conjugate_sandwich_property():
    rng = np.random.default_rng(11)
    for G in FAMILIES.values():
        conj = complementary(G)
        t = np.exp(rng.uniform(-6 * np.log(10), 6 * np.log(10), 10000))
        val = conj(G.deriv(t))
        low = (G.p_minus - 1.0) * G(t)
        high = (G.p_plus - 1.0) * G(t)
        assert np.all(val >= low - 1e-6 * (1.0 + val + low))
        assert np.all(val <= high + 1e-6 * (1.0 + val + high))


def test_scaling_bounds_property():
    rng = np.random.default_rng(13)
    for G in FAMILIES.values():
        lam = np.exp(rng.uniform(-5, 5, 10000))
        t = np.exp(rng.uniform(-5, 5, 10000))
        Gt, Glt = G(t), G(lam * t)
        low = np.minimum(lam ** G.p_minus, lam ** G.p_plus) * Gt
        high = np.maximum(lam ** G.p_minus, lam ** G.p_plus) * Gt
        assert np.all(Glt >= low * (1 - 1e-9) - 1e-300)
        assert np.all(Glt <= high * (1 + 1e-9) + 1e-300)


def test_complementary_involution():
    # numeric conjugate of the conjugate returns the original function,
    # including across the derivative jump of the power-log family
    for G in FAMILIES.values():
        double = complementary(complementary(G))
        t = np.logspace(-4, 4, 33)
        assert np.allclose(double(t), G(t), rtol=1e-4)


def _with_slope(F):
    """F as the root-finder's level: (F(x), x F'(x))."""
    def level(x, *args):
        return F(x), x * F.deriv(x)
    return level


def _tanh(x):
    return np.tanh(x), x * (1.0 - np.tanh(x) ** 2)


def _one_plus(x):
    return 1.0 + x, x


def test_solve_increasing_matches_scipy_find_root():
    # the in-package Newton iteration against scipy's root-finder as a
    # reference, across the derivative jump of the power-log family
    from scipy.optimize.elementwise import find_root
    G = FAMILIES["powerlog3"]
    target = np.logspace(-9, 9, 37)
    res = find_root(lambda y, log_t: np.log(G(np.exp(y))) - log_t, (-60.0, 60.0),
                    args=(np.log(target),), tolerances={"xatol": 1e-13, "xrtol": 0.0})
    assert np.allclose(solve_increasing(_with_slope(G), target), np.exp(res.x),
                       rtol=1e-11, atol=0.0)


def test_bracket_expansion_failure():
    # bounded increasing function never reaches the target
    with pytest.raises(BracketExpansionError):
        solve_increasing(_tanh, 2.0)


def _recording(fn, seen):
    def wrapped(x, *args):
        seen.append(np.array(x, copy=True))
        return fn(x, *args)
    return wrapped


def test_bracket_walk_gives_up_without_reaching_zero_or_inf():
    # the walk raises after its budget in either direction, and every
    # point it evaluates is a positive finite float
    for fn, target, side in ((_tanh, 2.0, "upper"), (_one_plus, 0.5, "lower")):
        seen = []
        with pytest.raises(BracketExpansionError, match=side):
            solve_increasing(_recording(fn, seen), target)
        x = np.concatenate(seen)
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)


def test_bracket_walk_reaches_far_roots():
    # the root-finder reaches roots in [1e-70, 1e59] from x = 1
    G = FAMILIES["power3"]
    roots = np.array([1e-70, 1e-3, 1.0, 1e4, 1e59])
    seen = []
    assert np.allclose(solve_increasing(_recording(_with_slope(G), seen), G(roots)), roots,
                       rtol=1e-11, atol=0.0)
    x = np.concatenate(seen)
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)


@pytest.mark.parametrize("factor", [0.5, 4.0, None])
def test_wrong_slope_changes_the_count_not_the_root(factor):
    # the stop reads only the level: a slope off by a factor, or a constant
    # 1 (factor None), still gives every root to BISECT_REL_TOL
    G = FAMILIES["powersum34"]
    roots = np.logspace(-60, 50, 45)

    def level(x):
        value, derivative = _with_slope(G)(x)
        return value, (value if factor is None else factor * derivative)

    got = solve_increasing(level, G(roots))
    assert np.max(np.abs(got / roots - 1.0)) <= BISECT_REL_TOL


def test_newton_root_of_a_power_costs_two_evaluations():
    # the Newton step from x = 1 lands on a pure power's root and the next
    # evaluation certifies it, for roots far out on both sides
    G = FAMILIES["power4"]
    roots = np.array([1e-70, 1e-3, 0.5, 1e4, 1e59])
    seen = []
    got = solve_increasing(_recording(_with_slope(G), seen), G(roots))
    assert len(seen) == 2
    assert np.max(np.abs(got / roots - 1.0)) <= BISECT_REL_TOL


def test_nan_level_stops_the_walk_with_a_nan_root():
    # an element whose level is NaN, at the start or further out, stops
    # walking and gets a NaN root; the other elements are unaffected
    def cube_or_nan(x, nan_above):
        level = np.where(x > nan_above, np.nan, x ** 3)
        return level, 3.0 * level
    nan_above = np.array([np.inf, 0.0, 100.0, np.inf])
    calls = []
    root = solve_increasing(_recording(cube_or_nan, calls), np.array([8.0, 8.0, 1e15, 1e-6]),
                            args=(nan_above,))
    assert np.isnan(root[1]) and np.isnan(root[2])
    assert np.allclose(root[[0, 3]], [2.0, 1e-2], rtol=1e-12, atol=0.0)
    assert len(calls) < 20


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_roundtrip():
    for G in FAMILIES.values():
        inv = inverse_nfunction(G)
        tau = np.logspace(-6, 6, 200)
        assert np.allclose(G(inv(tau)), tau, rtol=1e-8)


@pytest.mark.parametrize("name, rtol", [("power3", 1e-13), ("power4", 1e-13),
                                        ("powersum34", 1e-8), ("powerlog3", 1e-5)])
def test_inverse_of_the_inverse_is_the_forward_table(monkeypatch, name, rtol):
    # the inverse table is concave, so its own inverse is the forward
    # table on the same grid, not a root solve; rtol is that table's
    # interpolation error (log-log lines are exact for a pure power)
    G = FAMILIES[name]
    inv = inverse_nfunction(G)

    def refuse(*args, **kwargs):
        raise AssertionError("solve_increasing called")

    monkeypatch.setattr("fracorlicz.nfunctions.solve_increasing", refuse)
    t = np.concatenate([np.logspace(-11.9, 11.9, 4001), [0.5, 1.0, 2.0]])
    assert np.max(np.abs(inv.inverse(t) / G(t) - 1.0)) < rtol
    assert inv.inverse(0.0) == 0.0 and np.isnan(inv.inverse(np.array([np.nan]))[0])


@pytest.mark.parametrize("name", list(FAMILIES))
def test_conjugate_table_log_log_slope_at_least_one(name):
    # the Hoelder sweep solves Luxemburg levels of conj.table, and the
    # root-finder's early stop needs log-log slope >= 1 in its argument
    table = complementary(FAMILIES[name]).table
    knots = table.abscissa
    x = np.concatenate([np.geomspace(knots[0], knots[-1], 200001), knots,
                        [knots[0] * 1e-3, knots[-1] * 1e3]])
    assert np.min(table.slope(x)) >= 1.0


def test_inverse_closed_form_power():
    G = power_nfunction(3.0)
    tau = np.logspace(-3, 3, 31)
    assert np.allclose(G.inverse(tau), (3.0 * tau) ** (1.0 / 3.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# Sobolev conjugate and compositions
# ---------------------------------------------------------------------------

def test_sobolev_conjugate_closed_form():
    # inverse-side integral for a pure power: C * t^(1/p - s/N)
    G = power_nfunction(2.0)
    conj = sobolev_conjugate(G, s=0.25)
    t = np.logspace(-3, 3, 41)
    exact = np.sqrt(2.0) * t ** 0.25 / 0.25
    assert np.max(np.abs(conj.inverse(t) - exact) / exact) < 1e-4


def test_sobolev_conjugate_zero():
    conj = sobolev_conjugate(power_nfunction(2.0), s=0.25)
    assert conj.inverse(0.0) == 0.0
    assert conj(0.0) == 0.0


def test_sobolev_conjugate_inverse_shape():
    conj = sobolev_conjugate(power_nfunction(2.0), s=0.25)
    t = np.logspace(-6, 6, 400)
    vals = conj.inverse(t)
    assert np.all(np.diff(vals) > 0.0)
    d1 = np.diff(vals) / np.diff(t)
    assert np.all(np.diff(d1) <= 1e-12 * np.maximum(1.0, d1[:-1]))  # concave


def test_sobolev_conjugate_integrability_refusals():
    with pytest.raises(SobolevConjugateError) as err:
        sobolev_conjugate(power_nfunction(2.0), s=0.9)
    assert err.value.failed_tail == "origin"
    with pytest.raises(SobolevConjugateError):
        sobolev_conjugate(power_nfunction(3.0), s=0.5)


def test_compose_power_identity_and_substitution():
    G = power_nfunction(2.0)
    gstar = sobolev_conjugate(G, s=0.25)
    ident = compose_power(gstar, 1.0)
    t = np.logspace(-2, 2, 21)
    assert np.allclose(ident(t), gstar(t), rtol=1e-6)
    half = compose_power(gstar, 0.5)
    assert half(4.0) == pytest.approx(float(gstar(2.0)), rel=1e-6)


def test_compose_power_closed_form_spot():
    # reaction weight with unit exponent ratio: value against the closed-form
    # forward map of the conjugate (s = 0.25, p = 2: forward exponent 4)
    G = power_nfunction(2.0)
    gstar = sobolev_conjugate(G, s=0.25)
    K = reaction_weight_nfunction(gstar, beta=1.0)
    t = 7.0
    assert K(t) == pytest.approx(float(gstar(np.sqrt(t))), rel=1e-8)


def test_compose_power_rejections():
    G = power_nfunction(2.0)
    gstar = sobolev_conjugate(G, s=0.25)
    with pytest.raises(ValueError):
        compose_power(gstar, 0.0)
    with pytest.raises(ValueError):
        singular_weight_nfunction(gstar, alpha=1.0)
    with pytest.raises(ValueError):
        reaction_weight_nfunction(gstar, beta=-0.5)


# ---------------------------------------------------------------------------
# growth comparison
# ---------------------------------------------------------------------------

def test_essentially_faster_examples():
    P2, P3 = power_nfunction(2.0), power_nfunction(3.0)
    PS = power_sum_nfunction(3.0, 4.0)
    assert essentially_faster(P2, P3) is True
    assert essentially_faster(P2, P2) is False
    assert essentially_faster(P3, PS) is True


def test_essentially_faster_needs_wide_range():
    with pytest.raises(ValueError):
        essentially_faster(power_nfunction(2.0), power_nfunction(3.0), t_max=1e6)


# ---------------------------------------------------------------------------
# tabulated family and the table helper
# ---------------------------------------------------------------------------

def test_tabulated_from_power_samples():
    t = np.logspace(-6, 6, 600)
    G = tabulated_nfunction(t, t ** 3 / 3.0, label="cubic")
    assert G(2.0) == pytest.approx(8.0 / 3.0, rel=1e-8)
    assert G.deriv(2.0) == pytest.approx(4.0, rel=1e-4)
    assert G.p_minus == pytest.approx(3.0, abs=2e-2)
    assert G.p_plus == pytest.approx(3.0, abs=2e-2)


def test_tabulated_second_derivative_is_the_interpolants():
    # t^3 samples are a line in log-log, so the interpolant is t^3 and its
    # second derivative 6t; on curved data it matches a central difference
    # of g between knots; at 0 and inf it is the extensions' limit, so the
    # conjugate's Newton refinement there raises no warning
    t = np.logspace(-3, 3, 200)
    G = tabulated_nfunction(t, t ** 3)
    x = np.logspace(-2.9, 2.9, 57)
    assert np.allclose(G.deriv2(x), 6.0 * x, rtol=1e-9, atol=0.0)
    H = tabulated_nfunction(t, t ** 3 + t ** 2)
    mid = np.sqrt(t[:-1] * t[1:])
    eps = 1e-7
    fd = (H.deriv(mid * (1 + eps)) - H.deriv(mid * (1 - eps))) / (2 * eps * mid)
    assert np.allclose(H.deriv2(mid), fd, rtol=1e-5, atol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert G.deriv2(0.0) == 0.0 and G.deriv2(np.inf) == np.inf
        conj = complementary(G)
        assert conj(0.0) == 0.0 and conj(np.inf) == np.inf


def test_tabulated_terms_are_the_table_lookups():
    # pair_terms takes G and g from one lookup, with the bits of the table's
    # value and derivative, and rejects a negative argument as the table does
    t = np.logspace(-3, 3, 200)
    table = LogLogTable(t, t ** 3 + t ** 2)
    G = tabulated_nfunction(t, t ** 3 + t ** 2)
    x = np.concatenate([[0.0, 1e-300, np.inf], np.logspace(-5, 5, 101)])
    G_x, g_x = G.pair_terms(x, (None, None))
    assert np.array_equal(G_x, table(x)) and np.array_equal(g_x, table.derivative(x))
    with pytest.raises(ValueError):
        G(-1.0)


def test_tabulated_rejects_nonconvex():
    t = np.linspace(0.1, 10.0, 200)
    with pytest.raises(InvalidNFunctionError):
        tabulated_nfunction(t, np.sqrt(t))


def test_tabulated_rejects_bad_shapes():
    with pytest.raises(InvalidNFunctionError):
        tabulated_nfunction(np.ones((3, 2)), np.ones((3, 2)))


def test_loglog_table_monotone_and_extends():
    t = np.logspace(-3, 3, 100)
    table = LogLogTable(t, t ** 2)
    assert table(0.0) == 0.0
    # power-law extension beyond the knots
    assert table(1e5) == pytest.approx(1e10, rel=1e-6)
    with pytest.raises(ValueError):
        table(-1.0)


def test_tail_primitive_against_quadrature():
    # closed forms of the cumulative integral of G(r)/r checked against
    # adaptive quadrature, including across the power-log kink
    for G in FAMILIES.values():
        for x in (0.3, 1.0, 2.7, 10.0):
            ref, _ = quad(lambda r: float(G(r)) / r, 0.0, x, limit=200)
            assert float(G.integral_over_t(x)) == pytest.approx(ref, rel=1e-8)


# ---------------------------------------------------------------------------
# the in-package monotone table against scipy's PCHIP as a reference
# ---------------------------------------------------------------------------

def _pchip_reference(table, splits=()):
    """Value and log-log slope of one scipy PCHIP per piece between the cuts,
    with power-law extension by the end slopes of the outer pieces."""
    lx, ly = np.log(table.abscissa), np.log(table.values)
    cuts = sorted(int(np.searchsorted(table.abscissa, p)) for p in splits)
    bounds = [0] + cuts + [lx.size - 1]
    pieces = [PchipInterpolator(lx[a:b + 1], ly[a:b + 1])
              for a, b in zip(bounds[:-1], bounds[1:])]
    lo_slope = pieces[0].derivative()(lx[0])
    hi_slope = pieces[-1].derivative()(lx[-1])

    def evaluate(x):
        l = np.log(x)
        piece = np.searchsorted(lx[cuts], l, side="right")
        val = np.array([pieces[k](v) for k, v in zip(piece, l)])
        slope = np.array([pieces[k].derivative()(v) for k, v in zip(piece, l)])
        below, above = l < lx[0], l > lx[-1]
        val[below] = ly[0] + lo_slope * (l[below] - lx[0])
        val[above] = ly[-1] + hi_slope * (l[above] - lx[-1])
        slope[below], slope[above] = lo_slope, hi_slope
        return np.exp(val), slope

    return evaluate, cuts


def _reference_points(table, cuts, rng):
    a = table.abscissa
    inside = np.exp(rng.uniform(np.log(a[0]), np.log(a[-1]), 400))
    kink = [a[c] * f for c in cuts for f in (1.0, 1.0 - 1e-12, 1.0 + 1e-12)]
    kink += [np.sqrt(a[c - 1] * a[c]) for c in cuts] + [np.sqrt(a[c] * a[c + 1]) for c in cuts]
    ends = [a[0] * 1e-3, a[0] * 0.5, a[0], a[-1], a[-1] * 2.0, a[-1] * 1e3]
    return np.concatenate([inside, kink, ends, a[::97]])


@pytest.mark.parametrize("name, kind", [(f, "conjugate") for f in FAMILIES]
                         + [("powerlog3", "inverse")])
def test_loglog_table_matches_scipy_pchip(name, kind):
    G = FAMILIES[name]
    if kind == "conjugate":
        table = complementary(G).table
        splits = [float(G.deriv(b * (1.0 - 1e-9))) for b in G.breakpoints]
        splits += [float(G.deriv(b)) for b in G.breakpoints]
    else:
        table = inverse_nfunction(G).table
        splits = [float(G(b)) for b in G.breakpoints]
    reference, cuts = _pchip_reference(table, splits)
    assert len(cuts) == len(splits)   # the powerlog3 kink is really split
    x = _reference_points(table, cuts, np.random.default_rng(5))
    want_value, want_slope = reference(x)
    assert np.allclose(table(x), want_value, rtol=1e-12, atol=0.0)
    assert np.allclose(table.slope(x), want_slope, rtol=1e-12, atol=0.0)
    assert np.allclose(table.derivative(x), want_value / x * want_slope, rtol=1e-12, atol=0.0)



# ---------------------------------------------------------------------------
# the bucket-indexed segment lookup against a binary search
# ---------------------------------------------------------------------------

def _clustered_table():
    """The table of a tabulated N-function with irregular knots and three
    tight clusters, so that one lookup bucket holds dozens of knots."""
    rng = np.random.default_rng(17)
    spread = np.exp(np.sort(rng.uniform(np.log(1e-3), np.log(1e3), 120)))
    clusters = [c * np.exp(1e-4 * np.arange(40)) for c in (0.05, 1.0, 7.0)]
    t = np.unique(np.concatenate([spread, *clusters]))
    return LogLogTable(t, t ** 3 + t ** 2)


LOOKUP_TABLES = [f"conjugate-{name}" for name in FAMILIES] + [
    "inverse-powerlog3", "tabulated-clustered"]


def _lookup_table(name):
    kind, family = name.split("-")
    if kind == "conjugate":
        return complementary(FAMILIES[family]).table
    if kind == "inverse":
        return inverse_nfunction(FAMILIES[family]).table
    return _clustered_table()


def _searchsorted_row(table, x):
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.clip(np.log(x), -_LOG_HUGE, _LOG_HUGE)
    return np.searchsorted(table._lx, lx, side="right")


SPECIAL_PROBES = np.array([0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, 5e-324])


def _segment_probes(table):
    """Knots, their float neighbours, the special values and random points
    from below the knots to above them."""
    knots = table.abscissa
    lx0, lx1 = table._lx[0], table._lx[-1]
    return np.concatenate([
        knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf), SPECIAL_PROBES,
        np.exp(np.random.default_rng(3).uniform(lx0 - 5.0, lx1 + 5.0, 20000)),
    ])


@pytest.mark.parametrize("name", LOOKUP_TABLES)
def test_table_segment_matches_binary_search(name):
    table = _lookup_table(name)
    knots = table.abscissa
    x = _segment_probes(table)
    want = _searchsorted_row(table, x)
    with np.errstate(divide="ignore", invalid="ignore"):   # log of 0 and of negatives
        row, _ = table._segment(x)
        assert np.array_equal(row, want)
        grid = table._segment(x[: x.size // 2 * 2].reshape(2, -1))[0]
        assert grid.shape == (2, x.size // 2)
        assert np.array_equal(grid.ravel(), want[: x.size // 2 * 2])
        for v in [*SPECIAL_PROBES, knots[0], knots[-1], np.nextafter(knots[7], 0.0)]:
            one = table._segment(np.array(v))[0]
            assert one.shape == () and one == _searchsorted_row(table, np.array(v))
        # the lookup gathers exactly the rows the binary search names, and
        # rejects the negative probes
        with pytest.raises(ValueError, match="nonnegative"):
            table._locate(x)
        keep = ~(x < 0.0)   # NaN stays
        c, s, _ = table._locate(x[keep])
        lx = np.clip(np.log(x[keep]), -_LOG_HUGE, _LOG_HUGE)
    assert np.array_equal(c, table._coef[want[keep]])
    assert np.array_equal(s, lx - table._origin[want[keep]], equal_nan=True)


def _block_horner(table, x):
    """(value, log slope, derivative, second derivative) from a binary
    search, one gathered (..., 4) coefficient block and the Horner
    expressions on its columns: the reference for the in-place lookups."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lx = np.clip(np.log(x), -_LOG_HUGE, _LOG_HUGE)
        row = np.searchsorted(table._lx, lx, side="right")
        c, s = table._coef[row], lx - table._origin[row]
        log_v = ((c[..., 0] * s + c[..., 1]) * s + c[..., 2]) * s + c[..., 3]
        sigma = (3.0 * c[..., 0] * s + 2.0 * c[..., 1]) * s + c[..., 2]
        curvature = 6.0 * c[..., 0] * s + 2.0 * c[..., 1]
        return (np.exp(log_v), sigma, np.exp(log_v - lx) * sigma,
                np.exp(log_v - 2.0 * lx) * (sigma * (sigma - 1.0) + curvature))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", LOOKUP_TABLES)
def test_table_lookups_keep_the_block_horner_bits(name):
    # the lookups run their Horner passes in place on contiguous columns;
    # they keep the bits of the block form at 0, inf, NaN, at the knots and
    # their neighbours and at random points, for arrays of any shape, for
    # 0-d arguments and with the level buffers batch_luxemburg passes
    table = _lookup_table(name)
    x = _segment_probes(table)
    x = x[~(x < 0.0)]
    value, sigma, derivative, _ = _block_horner(table, x)
    assert _same_bits(table(x), value)
    assert _same_bits(table.slope(x), sigma)
    assert _same_bits(table.derivative(x), derivative)
    level = value * sigma
    assert all(_same_bits(a, b) for a, b in zip(table.level_terms(x), (value, level)))
    grid = x[: x.size // 2 * 2].reshape(2, -1)
    out = (np.empty(grid.shape), np.empty(grid.shape))
    got = table.level_terms(grid, out)
    assert got[0] is out[0] and got[1] is out[1]
    assert _same_bits(got[0], value[: grid.size].reshape(grid.shape))
    assert _same_bits(got[1], level[: grid.size].reshape(grid.shape))
    for i in range(0, x.size, 997):
        assert table(x[i]) == value[i] or np.isnan(value[i])
        assert isinstance(table.derivative(x[i]), float)
        assert _same_bits(table.slope(x[i]), sigma[i])


def test_tabulated_second_derivative_keeps_the_block_horner_bits():
    t = np.logspace(-3, 3, 200)
    H = tabulated_nfunction(t, t ** 3 + t ** 2)
    table = LogLogTable(t, t ** 3 + t ** 2)
    x = _segment_probes(table)
    x = x[~(x < 0.0)]
    assert _same_bits(H.deriv2(x), _block_horner(table, x)[3])


def _loop_knots(abscissa, values):
    """The conjugate's knot filter as a greedy scan, the reference."""
    keep = np.zeros(abscissa.size, dtype=bool)
    last_a = last_v = -np.inf
    for i in range(abscissa.size):
        if abscissa[i] > last_a and values[i] > last_v and values[i] > 0.0:
            keep[i] = True
            last_a, last_v = abscissa[i], values[i]
    return keep


TABULATED_BASES = {
    "tabulated-cubic": lambda t=np.logspace(-6, 6, 600): tabulated_nfunction(t, t ** 3 / 3.0),
    "tabulated-curved": lambda t=np.logspace(-3, 3, 200): tabulated_nfunction(t, t ** 3 + t ** 2),
}


@pytest.mark.parametrize("name", [*FAMILIES, *TABULATED_BASES])
def test_conjugate_knot_filter_is_the_greedy_scan(name, monkeypatch):
    # complementary's vectorised filter keeps the knots the scan keeps, on
    # the knots it builds (the powerlog kink span included), so the table
    # is the one the scan gives
    seen = []

    def recorded(abscissa, values):
        keep = _increasing_knots(abscissa, values)
        seen.append((abscissa, values, keep))
        return keep

    monkeypatch.setattr("fracorlicz.nfunctions._increasing_knots", recorded)
    G = FAMILIES[name] if name in FAMILIES else TABULATED_BASES[name]()
    table = complementary(G).table
    (abscissa, values, keep), = seen
    assert np.array_equal(keep, _loop_knots(abscissa, values))
    assert _same_bits(table.abscissa, abscissa[keep]) and _same_bits(table.values, values[keep])


def test_knot_filter_drops_wiggles_like_the_scan():
    # wiggling, nonpositive and NaN values over distinct sorted abscissae
    rng = np.random.default_rng(21)
    for _ in range(20):
        abscissa = np.sort(rng.uniform(0.0, 10.0, 300))
        values = np.cumsum(rng.normal(0.2, 1.0, 300))
        values[rng.integers(0, 300, 5)] = np.nan
        assert np.array_equal(_increasing_knots(abscissa, values),
                              _loop_knots(abscissa, values))


def _clamped_table():
    """Knots 1..5 whose PCHIP slope at the first knot clamps to 0."""
    return LogLogTable(np.arange(1.0, 6.0), np.array([1.0, 1.01, 3.0, 9.0, 27.0]))


EDGE_PROBES = np.array([0.0, 5e-324, 1e-300, 1e300, np.inf, np.nan])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", [*LOOKUP_TABLES, "clamped"])
def test_table_contract_at_the_edges(name):
    # 0 -> 0, inf -> inf and NaN -> NaN through the power-law extensions,
    # whose slopes are positive; the derivative at 0 and at inf is the
    # extension's limit; no warning, and a negative argument is an error
    table = _clamped_table() if name == "clamped" else _lookup_table(name)
    value = table(EDGE_PROBES)
    slope = table.slope(EDGE_PROBES)
    deriv = table.derivative(EDGE_PROBES)
    assert value[0] == 0.0 and value[4] == np.inf and np.isnan(value[5])
    assert np.all(value[:4] <= value[1:5])
    low, high = slope[0], slope[4]
    assert low > 0.0 and high > 0.0 and slope[1] == low and slope[3] == high
    assert deriv[0] == (0.0 if low > 1.0 else np.inf)
    assert deriv[4] == (np.inf if high > 1.0 else 0.0)
    assert np.all(deriv[1:4] >= 0.0) and np.isnan(slope[5]) and np.isnan(deriv[5])
    if name.startswith("inverse"):
        assert deriv[0] == np.inf
    for x, want in ((0.0, 0.0), (np.inf, np.inf)):
        assert table(x) == want and table.derivative(x) == deriv[0 if x == 0.0 else 4]
    with pytest.raises(ValueError):
        table(np.array([1.0, -1.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_table_lookups_reject_negative_arguments():
    # one check in the lookup: the table's value, slope, derivative and
    # level terms, the derivatives of the derived functions and the
    # tabulated family's terms all raise on a negative argument
    G = power_nfunction(2.0)
    t = np.logspace(-3, 3, 200)
    tab = tabulated_nfunction(t, t ** 3 + t ** 2)
    table = complementary(G).table
    for lookup in (table, table.slope, table.derivative, table.level_terms,
                   complementary(G).deriv, inverse_nfunction(G).deriv,
                   sobolev_conjugate(G, 0.25).deriv, tab, tab.deriv, tab.deriv2):
        with pytest.raises(ValueError, match="nonnegative"):
            lookup(np.array([1.0, -1.0]))


def test_clamped_end_slope_extends_by_the_end_secant():
    table = _clamped_table()
    assert table._coef[1, 2] == 0.0   # the clamped knot slope
    assert table.slope(0.5) == pytest.approx(np.log(1.01) / np.log(2.0), rel=1e-12)
    assert 0.0 < table(1e-300) < table(0.5) < table(1.0) == pytest.approx(1.0)


def test_derived_derivatives_take_the_extension_limits():
    G = power_nfunction(3.0)
    assert inverse_nfunction(G).deriv(0.0) == np.inf      # slope 1/3 below the knots
    assert complementary(G).deriv(np.inf) == np.inf      # slope 3/2 above them
    with pytest.raises(ValueError):
        complementary(G)(-1.0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_derived_functions_are_infinite_at_infinity(name):
    # the table seeds inf there; Newton and the Fenchel value must keep it
    G = FAMILIES[name]
    for F in (complementary(G), inverse_nfunction(G)):
        assert F(np.inf) == np.inf
        assert np.array_equal(F(np.array([0.0, np.inf])), [0.0, np.inf])


@pytest.mark.parametrize("name", [*FAMILIES, "tabulated", "conjugate"])
def test_infinite_target_has_an_infinite_root(name):
    # as 0 maps to 0 and NaN to NaN, with no walk toward an unbounded root
    F = _scalar_rule_subject(name)
    assert F.inverse(np.inf) == np.inf
    roots = F.inverse(np.array([0.0, 1.0, np.inf, np.nan]))
    assert roots[0] == 0.0 and np.isfinite(roots[1]) and roots[1] > 0.0
    assert roots[2] == np.inf and np.isnan(roots[3])


def test_nan_target_has_a_nan_root():
    # as every table maps NaN to NaN
    for F in (power_sum_nfunction(3.0, 4.0), complementary(power_nfunction(3.0))):
        assert np.isnan(F.inverse(np.nan))
        roots = F.inverse(np.array([np.nan, 0.0, 1.0]))
        assert np.isnan(roots[0]) and roots[1] == 0.0 and roots[2] > 0.0


@pytest.mark.parametrize("name", ["conjugate-powerlog3", "tabulated-clustered"])
@pytest.mark.parametrize("guess", ["first", "last"])
def test_table_segment_corrects_any_first_guess(name, guess):
    # a bucket index that names the first (or last) segment for every
    # finite argument leaves all the work to the corrections, which must
    # walk up (or down) to the binary-search row and stop there
    table = _lookup_table(name)
    table._bucket_row[:-1] = 0 if guess == "first" else table._lx.size
    x = _segment_probes(table)
    with np.errstate(divide="ignore", invalid="ignore"):
        row, _ = table._segment(x)
    assert np.array_equal(row, _searchsorted_row(table, x))
