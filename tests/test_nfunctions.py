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
    essentially_faster, solve_increasing, LogLogTable, INDEX_GRID,
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
    bad = NFunction(family="broken", params=(), fn=broken.fn,
                    deriv_fn=lambda t: np.zeros_like(np.asarray(t, float)),
                    deriv2_fn=broken.deriv2_fn, p_minus=3.0, p_plus=3.0)
    with pytest.raises(InvalidNFunctionError):
        estimate_indices(bad)


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


def test_solve_increasing_matches_scipy_find_root():
    # the in-package Chandrupatla iteration against scipy's as a reference,
    # across the derivative jump of the power-log family
    from scipy.optimize.elementwise import find_root
    G = FAMILIES["powerlog3"]
    target = np.logspace(-9, 9, 37)
    res = find_root(lambda y, log_t: np.log(G(np.exp(y))) - log_t, (-60.0, 60.0),
                    args=(np.log(target),), tolerances={"xatol": 1e-13, "xrtol": 0.0})
    assert np.allclose(solve_increasing(G, target), np.exp(res.x), rtol=1e-11, atol=0.0)


def test_bracket_expansion_failure():
    # bounded increasing function never reaches the target
    with pytest.raises(BracketExpansionError):
        solve_increasing(np.tanh, 2.0)


# ---------------------------------------------------------------------------
# inverse
# ---------------------------------------------------------------------------

def test_inverse_roundtrip():
    for G in FAMILIES.values():
        inv = inverse_nfunction(G)
        tau = np.logspace(-6, 6, 200)
        assert np.allclose(G(inv(tau)), tau, rtol=1e-8)


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
    conj = sobolev_conjugate(G, s=0.25, dim=1)
    t = np.logspace(-3, 3, 41)
    exact = np.sqrt(2.0) * t ** 0.25 / 0.25
    assert np.max(np.abs(conj.inverse(t) - exact) / exact) < 1e-4


def test_sobolev_conjugate_zero():
    conj = sobolev_conjugate(power_nfunction(2.0), s=0.25, dim=1)
    assert conj.inverse(0.0) == 0.0
    assert conj(0.0) == 0.0


def test_sobolev_conjugate_inverse_shape():
    conj = sobolev_conjugate(power_nfunction(2.0), s=0.25, dim=1)
    t = np.logspace(-6, 6, 400)
    vals = conj.inverse(t)
    assert np.all(np.diff(vals) > 0.0)
    d1 = np.diff(vals) / np.diff(t)
    assert np.all(np.diff(d1) <= 1e-12 * np.maximum(1.0, d1[:-1]))  # concave


def test_sobolev_conjugate_integrability_refusals():
    with pytest.raises(SobolevConjugateError) as err:
        sobolev_conjugate(power_nfunction(2.0), s=0.9, dim=1)
    assert err.value.failed_tail == "origin"
    with pytest.raises(SobolevConjugateError):
        sobolev_conjugate(power_nfunction(3.0), s=0.5, dim=1)


def test_compose_power_identity_and_substitution():
    G = power_nfunction(2.0)
    gstar = sobolev_conjugate(G, s=0.25, dim=1)
    ident = compose_power(gstar, 1.0)
    t = np.logspace(-2, 2, 21)
    assert np.allclose(ident(t), gstar(t), rtol=1e-6)
    half = compose_power(gstar, 0.5)
    assert half(4.0) == pytest.approx(float(gstar(2.0)), rel=1e-6)


def test_compose_power_closed_form_spot():
    # reaction weight with unit exponent ratio: value against the closed-form
    # forward map of the conjugate (s = 0.25, p = 2: forward exponent 4)
    G = power_nfunction(2.0)
    gstar = sobolev_conjugate(G, s=0.25, dim=1)
    K = reaction_weight_nfunction(gstar, beta=1.0)
    t = 7.0
    assert K(t) == pytest.approx(float(gstar(np.sqrt(t))), rel=1e-8)


def test_compose_power_rejections():
    G = power_nfunction(2.0)
    gstar = sobolev_conjugate(G, s=0.25, dim=1)
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

