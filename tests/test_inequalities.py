"""Gap functions and randomized sweeps for the structural inequalities."""

import numpy as np
import pytest

from fracorlicz.nfunctions import (power_nfunction, power_sum_nfunction,
                                   power_log_nfunction, complementary)
from fracorlicz.grid import (Mesh, GridFunction, random_positive, seminorm_modular,
                             gagliardo_seminorm, batch_luxemburg, fourier_coefficients,
                             sine_basis)
from fracorlicz.inequalities import (
    InequalityReport, FCFunction, fc_check, hidden_convexity_gap, picone_gap,
    picone_constant, diaz_saa_value, monotone_difference_gap,
    ray_convexity_probe, f2_monotonicity_check, default_exponent, run_suite,
    SUITES, STANDARD_FAMILIES, sharpen_witness, sweep_seminorm_sandwich,
    _finish_report, _field_gauges, _sharpen_into, _coefficient_stream, SEMINORM_CELLS,
    FIELD_CELLS, FIELD_CHUNK, DIAZ_SAA_CHUNK,
)

P2 = power_nfunction(2.0)
P3 = power_nfunction(3.0)
PS = power_sum_nfunction(3.0, 4.0)


# ---------------------------------------------------------------------------
# hidden convexity
# ---------------------------------------------------------------------------

def test_hidden_convexity_endpoints_exact_zero():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0.1, 5.0, (4, 200))
    for t in (0.0, 1.0):
        gaps = hidden_convexity_gap(PS, 2.5, *vals, np.full(200, t))
        assert np.all(gaps == 0.0)


def test_hidden_convexity_identical_fields():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.1, 5.0, 200)
    b = rng.uniform(0.1, 5.0, 200)
    gaps = hidden_convexity_gap(PS, 2.5, a, b, a, b, rng.uniform(0, 1, 200))
    scale = 1.0 + PS(np.abs(a - b))
    assert np.all(np.abs(gaps) <= 1e-12 * scale)


def test_hidden_convexity_sweep_and_guards():
    rng = np.random.default_rng(3)
    vals = np.exp(rng.uniform(-3, 3, (4, 20000)))
    t = rng.uniform(0, 1, 20000)
    gaps = hidden_convexity_gap(PS, 2.5, *vals, t)
    rhs = (1 - t) * PS(np.abs(vals[0] - vals[1])) + t * PS(np.abs(vals[2] - vals[3]))
    assert np.all(gaps >= -1e-10 * (1.0 + rhs))
    with pytest.raises(ValueError):
        hidden_convexity_gap(PS, 5.0, *vals, t)  # q > p_minus
    with pytest.raises(ValueError):
        hidden_convexity_gap(PS, 2.5, *vals, 1.2)  # t outside [0, 1]
    with pytest.raises(ValueError):
        hidden_convexity_gap(PS, 2.5, -1.0, 1.0, 1.0, 1.0, 0.5)


def test_hidden_convexity_boundary_exponent_powerlog():
    # the power-log family admits the convexity only up to its lower index
    PL = power_log_nfunction(3.0)
    rng = np.random.default_rng(4)
    vals = np.exp(rng.uniform(-2, 2, (4, 20000)))
    t = rng.uniform(0, 1, 20000)
    gaps = hidden_convexity_gap(PL, PL.p_minus, *vals, t)
    rhs = (1 - t) * PL(np.abs(vals[0] - vals[1])) + t * PL(np.abs(vals[2] - vals[3]))
    assert np.all(gaps >= -1e-10 * (1.0 + rhs))


# ---------------------------------------------------------------------------
# Picone
# ---------------------------------------------------------------------------

def _separate_evaluation_gaps(G, q, ux, uy, vx, vy, t):
    """The Picone and hidden-convexity gaps with one G or g call per value."""
    ux, uy, vx, vy, t = map(np.asarray, (ux, uy, vx, vy, t))
    du = ux - uy
    g1 = G(1.0)
    ru, rv = G(np.abs(du)) / g1, G(np.abs(vx - vy)) / g1
    pm, pp = G.p_minus, G.p_plus
    lhs = G.deriv(np.abs(du)) * np.sign(du) * (vx ** q / ux ** (q - 1.0)
                                               - vy ** q / uy ** (q - 1.0))
    rhs = picone_constant(G, q)[0] * np.maximum(rv ** (q / pp), rv ** (q / pm)) \
        * np.maximum(ru ** ((pm - q) / pp), ru ** ((pp - q) / pm))
    sigma = lambda a, b: ((1.0 - t) * a ** q + t * b ** q) ** (1.0 / q)
    convex = ((1.0 - t) * G(np.abs(ux - uy)) + t * G(np.abs(vx - vy))
              - G(np.abs(sigma(ux, vx) - sigma(uy, vy))))
    return (lhs, rhs, rhs - lhs), convex


@pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
def test_gaps_keep_the_bits_of_separate_evaluations(name):
    # picone_gap and hidden_convexity_gap take their G and g values from
    # one call each; the gaps keep the bits of one evaluation per value,
    # on arrays and on the scalars witness sharpening passes
    G = STANDARD_FAMILIES[name]
    q = default_exponent(G)
    rng = np.random.default_rng(8)
    ux, uy, vx, vy = np.exp(rng.uniform(-2.0, 2.0, (4, 500)))
    t = rng.uniform(0.0, 0.999, 500)
    for i in [slice(None), *range(0, 500, 50)]:
        args = [float(a) if isinstance(i, int) else a for a in (ux[i], uy[i], vx[i], vy[i])]
        picone, convex = _separate_evaluation_gaps(G, q, *args, t[i])
        got = picone_gap(G, q, *args)
        assert all(np.array_equal(a, b) for a, b in zip(got, picone))
        assert np.array_equal(hidden_convexity_gap(G, q, *args, t[i]), convex)


def test_picone_trivial_cases():
    lhs, rhs, gap = picone_gap(PS, 2.5, 2.0, 2.0, 1.0, 3.0)
    assert lhs == 0.0 and gap >= 0.0  # equal u-values: sign convention
    lhs, rhs, gap = picone_gap(PS, 2.5, 2.0, 1.0, 0.0, 0.0)
    assert lhs == 0.0 and rhs == 0.0 and gap == 0.0


def test_picone_swap_symmetry_exact():
    rng = np.random.default_rng(5)
    ux = np.exp(rng.uniform(-2, 2, 10000))
    uy = np.exp(rng.uniform(-2, 2, 10000))
    vx = rng.uniform(0, 5, 10000)
    vy = rng.uniform(0, 5, 10000)
    l1, r1, g1 = picone_gap(PS, 2.5, ux, uy, vx, vy)
    l2, r2, g2 = picone_gap(PS, 2.5, uy, ux, vy, vx)
    assert np.max(np.abs(g1 - g2)) <= 1e-12 * np.max(1.0 + np.abs(g1))


def test_picone_guards():
    with pytest.raises(ValueError):
        picone_gap(PS, 2.5, 0.0, 1.0, 1.0, 1.0)  # u not strictly positive
    with pytest.raises(ValueError):
        picone_gap(PS, 2.5, 1.0, 1.0, -1.0, 1.0)  # v negative
    with pytest.raises(ValueError):
        picone_gap(PS, 4.5, 1.0, 2.0, 1.0, 1.0)  # q above the lower index


def test_picone_constant_recipe():
    # pure power: all four regime exponents reduce to {2, 1}; value below one
    # selects the min exponent, giving the sharp constant p * G(1) = 1
    C, per_regime = picone_constant(P3, 3.0)
    assert C == pytest.approx(1.0)
    assert len(per_regime) == 4
    # for the mixed family the uniform constant dominates the true need
    Cs, _ = picone_constant(PS, 2.0)
    assert Cs >= PS.p_plus * float(PS(1.0))


def test_picone_sweep_all_regimes():
    for fam, G in STANDARD_FAMILIES.items():
        report = run_suite("picone", G, 4000, seed=31)
        assert report.violations == 0, fam
        counts = report.extra["regime_counts"]
        assert all(c >= 400 for c in counts.values()), counts
        assert report.extra["constant_kind"] == "artifact constant"


# ---------------------------------------------------------------------------
# monotone difference bound
# ---------------------------------------------------------------------------

def test_monotone_difference_point_example():
    lhs, ratio = monotone_difference_gap(P2, -1.0, 1.0)
    assert lhs == pytest.approx(4.0)
    assert ratio == pytest.approx(2.0)


def test_monotone_difference_equal_arguments():
    lhs, ratio = monotone_difference_gap(P2, 0.7, 0.7)
    assert lhs == 0.0 and np.isnan(ratio)


def test_monotone_difference_constants():
    # brute-force infimum of the ratio over seeded pairs; the pure cubic
    # attains its sharp constant 3 * 2^(2-3) = 1.5 at symmetric pairs
    rng = np.random.default_rng(123)
    a = rng.uniform(-50, 50, 200000)
    b = rng.uniform(-50, 50, 200000)
    keep = np.abs(a - b) > 1e-12
    expected_floor = {"power3": 1.499, "power4": 0.999,
                      "powersum34": 0.999, "powerlog3": 0.55}
    for fam, G in STANDARD_FAMILIES.items():
        lhs, ratio = monotone_difference_gap(G, a[keep], b[keep])
        assert np.all(lhs >= -1e-8 * (1.0 + np.abs(lhs)))
        c_est = np.nanmin(ratio)
        assert c_est > expected_floor[fam], fam


# ---------------------------------------------------------------------------
# Diaz-Saa pairing
# ---------------------------------------------------------------------------

def _positive_pair(seed, n=24):
    rng = np.random.default_rng(seed)
    mesh = Mesh(0.0, 1.0, n)
    return random_positive(rng, mesh), random_positive(rng, mesh)


def test_diaz_saa_identical_fields_zero():
    u, _ = _positive_pair(1)
    assert diaz_saa_value(u, u, PS, 0.5, 2.5) == 0.0


def test_diaz_saa_proportional_homogeneous_case():
    # equality on rays requires the modular to be exactly q-homogeneous:
    # the pure cubic with q = 3 reduces to an exact cancellation, while the
    # mixed family at the same inputs stays strictly positive
    u, _ = _positive_pair(2)
    doubled = 2.0 * u
    scale = seminorm_modular(u, P3, 0.5, "full")
    assert abs(diaz_saa_value(doubled, u, P3, 0.5, 3.0)) <= 1e-8 * scale
    assert diaz_saa_value(doubled, u, PS, 0.5, 3.0) > 0.0


def test_diaz_saa_symmetry_exact():
    u, v = _positive_pair(3)
    assert diaz_saa_value(u, v, PS, 0.5, 2.5) == diaz_saa_value(v, u, PS, 0.5, 2.5)


def test_diaz_saa_random_pairs_nonnegative():
    for seed in range(25):
        u, v = _positive_pair(seed + 100, n=16)
        val = diaz_saa_value(u, v, PS, 0.5, 2.5)
        assert val >= -1e-8 * (1.0 + abs(val))


@pytest.mark.parametrize("family", sorted(STANDARD_FAMILIES))
def test_diaz_saa_witness_replays(family):
    # the witness coefficients rebuild the worst pair of the sweep (600
    # samples: a full chunk and a partial one); its single-pair value is
    # min_gap up to the rounding of a batched against a one-row matmul
    G = STANDARD_FAMILIES[family]
    report = run_suite("diaz_saa", G, 600, seed=5)
    w = report.witness
    mesh = Mesh(0.0, 1.0, w["n"])
    modes = np.sin(np.pi * np.outer(np.arange(1, 9), (np.arange(w["n"]) + 0.5) / w["n"]))
    u, v = (GridFunction(mesh, np.exp(np.asarray(w[key]) @ modes))
            for key in ("coeff_u", "coeff_v"))
    value = diaz_saa_value(u, v, G, w["s"], w["q"])
    assert value == pytest.approx(report.min_gap, rel=1e-12, abs=0.0)


def test_diaz_saa_nan_gap_is_the_witness(monkeypatch):
    # a NaN pairing in row 550 (row 38 of the second chunk) is a violation,
    # and the witness holds that row's coefficients
    import fracorlicz.inequalities as ineq
    real = ineq.operator_pairing

    def poisoned(values, phi, G, mesh, s):
        out = real(values, phi, G, mesh, s)
        if values.shape[-2] == 88:
            out[..., 38] = np.nan
        return out

    monkeypatch.setattr(ineq, "operator_pairing", poisoned)
    report = run_suite("diaz_saa", P3, 600, seed=5)
    assert report.violations == 1 and np.isnan(report.min_gap)
    rng = np.random.default_rng(5)
    rng.uniform(-1.0, 1.0, (2, 512, 8))  # the first chunk's u and v draws
    assert report.witness["coeff_u"] == rng.uniform(-1.0, 1.0, (88, 8))[38].tolist()


def test_diaz_saa_guards():
    u, v = _positive_pair(4)
    with pytest.raises(ValueError):
        diaz_saa_value(u, v, PS, 0.5, 10.0)
    bad = u.with_values(np.where(np.arange(u.mesh.n) == 3, 0.0, u.values))
    with pytest.raises(ValueError):
        diaz_saa_value(bad, v, PS, 0.5, 2.5)
    huge = 1e7 * u
    with pytest.raises(ValueError):
        diaz_saa_value(huge, v, PS, 0.5, 2.5)  # ratio bound exceeded


# ---------------------------------------------------------------------------
# ray convexity of the q-th root energy
# ---------------------------------------------------------------------------

def test_ray_convexity_identical_fields():
    u, _ = _positive_pair(5)
    (W0, W1, Wt), gap = ray_convexity_probe(u, u, 0.3, P3, 0.5, 2.0)
    assert W0 == W1
    assert abs(gap) <= 1e-10 * (1.0 + W0)


def test_ray_convexity_ray_equality_homogeneous():
    # proportional fields with q equal to the homogeneity degree: the map is
    # linear on the ray and the chord gap vanishes to quadrature precision
    u, _ = _positive_pair(6)
    (W0, W1, Wt), gap = ray_convexity_probe(u, 3.0 * u, 0.4, P3, 0.5, 3.0)
    assert abs(gap) <= 1e-8 * (1.0 + max(W0, W1))


def test_ray_convexity_strict_below_lower_index():
    # q strictly below the lower index: strictly convex, positive margins
    u, v = _positive_pair(7)
    (_, _, _), gap_ray = ray_convexity_probe(u, 3.0 * u, 0.4, P3, 0.5, 2.0)
    assert gap_ray > 0.0  # even rays bend for q < p_minus
    (_, _, _), gap_ind = ray_convexity_probe(u, v, 0.5, P3, 0.5, 2.0)
    assert gap_ind > 1.0  # independent bumps: recorded positive margin


def test_ray_convexity_guards():
    u, v = _positive_pair(8)
    with pytest.raises(ValueError):
        ray_convexity_probe(u, v, 0.0, P3, 0.5, 2.0)
    with pytest.raises(ValueError):
        ray_convexity_probe(u, v, 0.5, P3, 0.5, 9.0)
    bad = u.with_values(np.zeros(u.mesh.n))
    with pytest.raises(ValueError):
        ray_convexity_probe(bad, v, 0.5, P3, 0.5, 2.0)


# ---------------------------------------------------------------------------
# FC class and the decreasing-ratio condition
# ---------------------------------------------------------------------------

def test_fc_check_pure_power():
    for gamma in (1.5, 2.0, 3.0):
        theta1, theta2, ok = fc_check(lambda x: x ** gamma,
                                      lambda x: gamma * x ** (gamma - 1.0))
        assert theta1 == pytest.approx(gamma, rel=1e-12)
        assert theta2 == pytest.approx(gamma, rel=1e-12)
        assert ok


def test_fc_check_concave_rejected():
    theta1, theta2, ok = fc_check(np.sqrt, lambda x: 0.5 / np.sqrt(x))
    assert not ok  # derivative decreasing: violates the class conditions


def test_fc_check_mixed_power():
    theta1, theta2, ok = fc_check(lambda x: x ** 2 + x ** 3,
                                  lambda x: 2 * x + 3 * x ** 2)
    assert ok
    assert 1.9 < theta1 < theta2 < 3.1


def test_fc_function_record():
    psi = FCFunction(Psi=lambda x: x ** 2, Psi_prime=lambda x: 2 * x,
                     theta1=2.0, theta2=2.0)
    assert psi.theta1 == psi.theta2 == 2.0


def test_f2_monotonicity_examples():
    p_minus = 3.0
    s_grid = np.logspace(-2, 2, 50)
    xs = [0.2, 0.5]
    ok_low = f2_monotonicity_check(lambda x, s: s ** 1.5, xs, s_grid, p_minus)
    assert ok_low  # exponent below p_minus - 1
    ok_boundary = f2_monotonicity_check(lambda x, s: s ** 2.0, xs, s_grid, p_minus)
    assert ok_boundary  # constant ratio at the boundary exponent
    ok_high = f2_monotonicity_check(lambda x, s: s ** 3.0, xs, s_grid, p_minus)
    assert not ok_high
    with pytest.raises(ValueError):
        f2_monotonicity_check(lambda x, s: s, xs, np.array([-1.0, 1.0]), p_minus)


# ---------------------------------------------------------------------------
# reports and determinism
# ---------------------------------------------------------------------------

def test_report_invariants_and_serialization():
    report = run_suite("young", P3, 5000, seed=9)
    assert report.violations == 0
    assert report.min_gap <= 0 or report.min_gap >= 0  # finite
    row = report.csv_row("w.txt")
    assert row.startswith("young[")
    assert row.endswith(",w.txt")
    text = report.witness_text()
    assert "a=" in text and "b=" in text


def test_nan_gap_is_a_violation():
    # NaN compares false both ways: it counts as a violation and is the witness
    report = _finish_report("probe", [0.5, np.nan, -1e-12], 1e-8,
                            lambda i: {"row": i}, 3)
    assert report.violations == 1
    assert report.witness == {"row": 1} and np.isnan(report.min_gap)


def test_sweeps_deterministic():
    a = run_suite("picone", PS, 3000, seed=77)
    b = run_suite("picone", PS, 3000, seed=77)
    assert a.csv_row() == b.csv_row()
    assert a.witness_text() == b.witness_text()
    c = run_suite("picone", PS, 3000, seed=78)
    assert c.min_gap != a.min_gap  # different seed explores different points


def test_all_suites_clean_at_module_scale():
    for fam, G in STANDARD_FAMILIES.items():
        for name in SUITES:
            report = run_suite(name, G, 1500, seed=11)
            assert report.violations == 0, (fam, name, report.min_gap)
            assert report.min_gap >= -report.tolerance


def test_seminorm_sandwich_gauge_matches_gagliardo_seminorm():
    # the sweep's batched gauge on its worst row equals the single-field
    # Luxemburg gauge of the domain Gagliardo modular
    s = 0.5
    mesh = Mesh(0.0, 1.0, SEMINORM_CELLS)
    for seed in (3, 4):
        for G in STANDARD_FAMILIES.values():
            report = sweep_seminorm_sandwich(G, 40, seed, s=s)
            rng = np.random.default_rng(seed)
            coeff = rng.uniform(-1.0, 1.0, (40, 8))
            fields = coeff @ np.sin(np.pi * np.outer(np.arange(1, 9), mesh.nodes))
            keep = np.max(np.abs(fields - fields[:, :1]), axis=1) > 1e-9
            row = fields[keep][report.witness["coeff_row"]]
            ref = gagliardo_seminorm(GridFunction(mesh, row), G, s, "omega")
            assert report.witness["norm"] == pytest.approx(ref, rel=1e-10, abs=0.0)


FIELD_SWEEPS = ("modular_norm_sandwich", "seminorm_sandwich", "holder")


@pytest.mark.parametrize("name, bound_mb", [
    ("modular_norm_sandwich", 6), ("seminorm_sandwich", 8), ("holder", 12)])
def test_field_sweeps_hold_chunks_not_samples(name, bound_mb):
    # coefficients, fields, quotients and gauges are formed one
    # FIELD_CHUNK of rows at a time, so at 20 000 samples the traced peak
    # is the per-sample result vectors and one chunk's coefficients and
    # temporaries (whole-sample arrays peaked at 12-26 MB)
    import tracemalloc
    tracemalloc.start()
    try:
        run_suite(name, P3, 20000, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


@pytest.mark.parametrize("name", ["holder", "diaz_saa"])
def test_pair_sweeps_keep_no_coefficient_block(name):
    # each chunk draws its own u and v coefficients and only per-sample
    # vectors outlive it, so at 20 000 samples the traced peak is one
    # chunk's temporaries (keeping the (samples, 8) coefficient blocks,
    # these sweeps peaked at 6.05 and 6.13 MB); the memo of the shared
    # gauges starts cold, and the conjugate table is built and numpy.random
    # (imported on first use) loaded untraced
    import tracemalloc
    _field_gauges.cache_clear()
    complementary(P3)
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        run_suite(name, P3, 20000, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.mark.parametrize("total", [DIAZ_SAA_CHUNK + 3, FIELD_CHUNK + 3])
def test_coefficient_stream_starts_at_its_row(total):
    # the positioned stream, drawn from in two parts as a chunked sweep
    # draws, gives rows [k:] of one block draw from default_rng(seed), for
    # k at and around each chunk boundary
    block = fourier_coefficients(np.random.default_rng(9), total)
    for k in {0, 1, DIAZ_SAA_CHUNK - 1, DIAZ_SAA_CHUNK, DIAZ_SAA_CHUNK + 1,
              FIELD_CHUNK - 1, FIELD_CHUNK, FIELD_CHUNK + 1, total - 1, total}:
        if k > total:
            continue
        stream = _coefficient_stream(9, k)
        first = fourier_coefficients(stream, min(1, total - k))
        rest = fourier_coefficients(stream, total - k - len(first))
        assert np.array_equal(np.concatenate([first, rest]), block[k:])


@pytest.mark.parametrize("samples", [300, 2 * DIAZ_SAA_CHUNK + 77])
def test_diaz_saa_witness_in_the_last_partial_chunk_replays(samples, monkeypatch):
    # a pairing pushed far below zero in the last row of the last, partial
    # chunk makes that row the witness, and its coefficients are the
    # ones the sweep drew for it: the chunk's u block, then its v block
    import fracorlicz.inequalities as ineq
    real = ineq.operator_pairing
    last = samples % DIAZ_SAA_CHUNK

    def lowered(values, phi, G, mesh, s):
        out = real(values, phi, G, mesh, s)
        if values.shape[-2] == last:
            out[..., -1] -= 1e6
        return out

    monkeypatch.setattr(ineq, "operator_pairing", lowered)
    report = run_suite("diaz_saa", P3, samples, seed=5)
    assert report.violations == 1 and report.min_gap < -1e6
    rng = np.random.default_rng(5)
    for lo in range(0, samples, DIAZ_SAA_CHUNK):
        rows = min(DIAZ_SAA_CHUNK, samples - lo)
        coeff_u = fourier_coefficients(rng, rows)
        coeff_v = fourier_coefficients(rng, rows)
    assert report.witness["coeff_u"] == coeff_u[-1].tolist()
    assert report.witness["coeff_v"] == coeff_v[-1].tolist()


@pytest.mark.parametrize("name", FIELD_SWEEPS)
def test_field_sweeps_do_not_depend_on_the_row_chunk(monkeypatch, name):
    # the sweep-level twin of test_batch_luxemburg_chunking_changes_no_bit:
    # a small odd chunk and one above the sample count give the reports of
    # the default chunking bit for bit
    samples = 1500
    for G in STANDARD_FAMILIES.values():
        reference = run_suite(name, G, samples, 5)
        for chunk in (37, samples + 1):
            with monkeypatch.context() as m:
                m.setattr("fracorlicz.inequalities.FIELD_CHUNK", chunk)
                report = run_suite(name, G, samples, 5)
            assert report.csv_row() == reference.csv_row()
            assert report.witness_text() == reference.witness_text()


STRADDLING_SAMPLES = FIELD_CHUNK + 3   # two row chunks, the second of 3 rows


def _chunked_fields(coeff, mesh):
    """The sweeps' fields: coefficients times the sine basis, FIELD_CHUNK rows at a time."""
    basis = sine_basis(mesh)
    return np.concatenate([coeff[lo:lo + FIELD_CHUNK] @ basis
                           for lo in range(0, len(coeff), FIELD_CHUNK)])


@pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
def test_holder_reads_the_gauges_of_its_own_u_fields(name):
    # the shared gauges are batch_luxemburg's on the u fields the Hoelder
    # sweep draws first, bit for bit, and the Hoelder report is the one
    # both gauges solved in the sweep give
    G = STANDARD_FAMILIES[name]
    mesh = Mesh(0.0, 1.0, FIELD_CELLS)
    rng = np.random.default_rng(6)
    u = _chunked_fields(fourier_coefficients(rng, STRADDLING_SAMPLES), mesh)
    v = _chunked_fields(fourier_coefficients(rng, STRADDLING_SAMPLES), mesh)
    nu = batch_luxemburg(u, mesh.h, G.level_terms)[0]
    assert np.array_equal(_field_gauges(G, STRADDLING_SAMPLES, 6, FIELD_CHUNK)[0], nu)
    nv = batch_luxemburg(v, mesh.h, complementary(G).table.level_terms)[0]
    lhs = mesh.h * np.sum(u * v, axis=1)
    rhs = 2.0 * nu * nv
    report = run_suite("holder", G, STRADDLING_SAMPLES, 6)
    worst = int(np.argmin(rhs - lhs))
    assert report.min_gap == rhs[worst] - lhs[worst]
    assert report.witness["coeff_row"] == worst
    assert (report.witness["lhs"], report.witness["rhs"]) == (lhs[worst], rhs[worst])


@pytest.mark.parametrize("name", sorted(STANDARD_FAMILIES))
def test_shared_gauges_do_not_depend_on_the_sweep_order(name):
    # a Hoelder run on a cold memo equals one after the modular sandwich
    # filled it, and the sandwich likewise, report and witness included
    G = STANDARD_FAMILIES[name]

    def cold(suite):
        _field_gauges.cache_clear()
        return run_suite(suite, G, STRADDLING_SAMPLES, 8)

    for first, second in (("modular_norm_sandwich", "holder"),
                          ("holder", "modular_norm_sandwich")):
        reference = cold(second)
        cold(first)
        warm = run_suite(second, G, STRADDLING_SAMPLES, 8)
        assert _field_gauges.cache_info().currsize == 1
        assert warm.csv_row() == reference.csv_row()
        assert warm.witness_text() == reference.witness_text()


def test_shared_gauges_keep_one_read_only_entry():
    # one entry: another seed, sample count or chunk solves anew
    _field_gauges.cache_clear()
    first = _field_gauges(P3, 300, 1, FIELD_CHUNK)
    assert _field_gauges(P3, 300, 1, FIELD_CHUNK) is first
    assert _field_gauges.cache_info().hits == 1
    assert all(not part.flags.writeable for part in first)
    for args in ((P3, 300, 2, FIELD_CHUNK), (P3, 301, 1, FIELD_CHUNK),
                 (P3, 300, 1, 37), (PS, 300, 1, FIELD_CHUNK)):
        assert _field_gauges(*args) is not first
        assert _field_gauges.cache_info().currsize == 1
    assert _field_gauges.cache_info().hits == 1
    again = _field_gauges(P3, 300, 1, FIELD_CHUNK)
    assert again is not first
    assert all(np.array_equal(a, b) for a, b in zip(again, first))


def test_sharpening_without_an_accepted_move_keeps_min_gap():
    # the scalar re-evaluation of the witness reads lower than the sweep's
    # array value, and every move raises the gap: nothing is adopted
    witness = {"a": 2.0, "family": "test"}
    gap_of = lambda w: 0.5 if w["a"] == 2.0 else 3.0
    report = InequalityReport(name="test", samples=1, violations=0, min_gap=1.0,
                              witness=witness, tolerance=1e-8)
    _sharpen_into(report, gap_of, np.random.default_rng(0))
    assert report.min_gap == 1.0 and report.witness is witness
    # an accepted move that lowers the gap is adopted
    report.min_gap = 1.0
    _sharpen_into(report, lambda w: 2.0 if w["a"] == 2.0 else 0.25,
                  np.random.default_rng(0))
    assert report.min_gap == 0.25 and report.witness["a"] != 2.0


def test_default_exponent_respects_lower_index():
    assert default_exponent(P3) == 2.5
    assert default_exponent(power_log_nfunction(3.0)) == 1.5


def test_sharpen_witness_stays_in_domain():
    gap_of = lambda w: float(hidden_convexity_gap(
        PS, 2.5, w["u0x"], w["u0y"], w["u1x"], w["u1y"], w["t"]))
    witness = {"u0x": 1.0, "u0y": 2.0, "u1x": 0.5, "u1y": 1.5, "t": 0.5}
    rng = np.random.default_rng(0)
    sharpened, best = sharpen_witness(gap_of, witness, rng)
    assert np.isfinite(best)
    assert best <= gap_of(witness)
    assert 0.0 <= sharpened["t"] <= 1.0  # moves out of [0,1] are rejected
    assert best >= -1e-10  # no false violation is manufactured
