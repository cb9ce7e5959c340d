"""Executable gap functions for the structural inequalities of the theory.

Every inequality used by the solver's convergence and comparison machinery
is turned into a gap function (right side minus left side) together with a
seeded randomized sweep that counts violations and keeps the most adverse
witness.  Sweeps are reproducible: the same seed gives bit-identical
reports.  Violation tolerances scale with the magnitude of both sides to
absorb floating-point cancellation at large upper indices.

Suites are registered in SUITES and drive the command-line `verify`
front end; min_gap together with the witness makes a failing run replayable.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .nfunctions import (NFunction, complementary, convex_samples,
                         power_nfunction, power_log_nfunction,
                         power_sum_nfunction)
from .grid import (FOURIER_MODES, GridFunction, Mesh, operator_pairing,
                   seminorm_modular, batch_luxemburg, difference_quotients,
                   fourier_coefficients, random_fourier, sine_basis)
# no sweep calls it any more, but benchmarks/tracing.py wraps this name here
from .grid import operator_apply_batch  # noqa: F401

__all__ = [
    "InequalityReport", "FCFunction", "fc_check",
    "hidden_convexity_gap", "picone_gap", "picone_constant",
    "diaz_saa_value", "monotone_difference_gap", "ray_convexity_probe",
    "f2_monotonicity_check", "default_exponent", "call_vectorised", "run_suite",
    "SUITES", "STANDARD_FAMILIES",
]


def standard_families() -> Dict[str, NFunction]:
    """The four families every acceptance sweep runs over."""
    return {
        "power3": power_nfunction(3.0),
        "power4": power_nfunction(4.0),
        "powersum34": power_sum_nfunction(3.0, 4.0),
        "powerlog3": power_log_nfunction(3.0),
    }


STANDARD_FAMILIES = standard_families()


def default_exponent(G: NFunction) -> float:
    """Convexity exponent for the sweeps: capped at the lower index."""
    return min(2.5, G.p_minus)


def _check_exponent(G: NFunction, q: float) -> None:
    if not (1.0 < q <= G.p_minus):
        raise ValueError(f"need 1 < q <= p_minus={G.p_minus:g}, got q={q}")


def call_vectorised(fn, *args) -> np.ndarray:
    """fn(*args) as a float array shaped like the broadcast args.

    One vectorised call is tried first; if it raises TypeError or
    ValueError, or returns another shape, fn is called element by element.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    try:
        out = np.asarray(fn(*args), float)
        if out.shape == shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.vectorize(fn, otypes=[float])(*args)


@dataclass
class InequalityReport:
    """Outcome of one randomized sweep.

    violations counts samples whose gap fell below -tolerance; min_gap is
    the most adverse gap seen (including the sharpened witness), and
    witness holds the inputs attaining it, serializable as key=value lines
    for replay.
    """

    name: str
    samples: int
    violations: int
    min_gap: float
    witness: dict
    tolerance: float
    extra: dict = field(default_factory=dict)

    def csv_row(self, witness_path: str = "-") -> str:
        """One verify_report.csv row; names holding commas are quoted."""
        line = io.StringIO()
        csv.writer(line, lineterminator="").writerow(
            [self.name, self.samples, self.violations, f"{self.min_gap:.17g}", witness_path])
        return line.getvalue()

    def witness_text(self) -> str:
        lines = [f"{k}={v!r}" for k, v in sorted(self.witness.items())]
        lines += [f"# {k}={v!r}" for k, v in sorted(self.extra.items())]
        return "\n".join(lines) + "\n"

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _finish_report(name, gaps, tols, witness_of, samples, extra=None) -> InequalityReport:
    gaps = np.asarray(gaps, float)
    tols = np.asarray(tols, float)
    worst = int(np.argmin(gaps))  # the first NaN, if any
    violations = int(np.sum(~(gaps >= -tols)))  # a NaN gap is a violation
    return InequalityReport(
        name=name, samples=int(samples), violations=violations,
        min_gap=float(gaps[worst]), witness=witness_of(worst),
        tolerance=float(np.atleast_1d(tols)[worst] if tols.ndim else tols),
        extra=extra or {},
    )


# ---------------------------------------------------------------------------
# Pointwise gap functions
# ---------------------------------------------------------------------------

def hidden_convexity_gap(G: NFunction, q: float, u0x, u0y, u1x, u1y, t):
    """Gap of the convexity bound along the q-power interpolation curve.

    The curve sigma_t = ((1-t) u0^q + t u1^q)^(1/q) satisfies
    G(|sigma_t(x) - sigma_t(y)|) <= (1-t) G(|u0(x)-u0(y)|) + t G(|u1(x)-u1(y)|)
    whenever 1 < q <= p_minus.  At t = 0 and t = 1 the curve is the endpoint
    itself, so those branches are evaluated exactly.
    """
    _check_exponent(G, q)
    u0x, u0y, u1x, u1y = map(np.asarray, (u0x, u0y, u1x, u1y))
    if np.any(u0x < 0) or np.any(u0y < 0) or np.any(u1x < 0) or np.any(u1y < 0):
        raise ValueError("interpolated fields must be nonnegative")
    t = np.asarray(t, float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("interpolation parameter t must lie in [0, 1]")

    def sigma(a, b):
        mix = (1.0 - t) * a ** q + t * b ** q
        out = mix ** (1.0 / q)
        out = np.where(t == 0.0, a, out)
        return np.where(t == 1.0, b, out)

    # the three G values from one evaluation
    lhs, G0, G1 = G(np.abs(np.array(np.broadcast_arrays(
        sigma(u0x, u1x) - sigma(u0y, u1y), u0x - u0y, u1x - u1y))))
    rhs = (1.0 - t) * G0 + t * G1
    return rhs - lhs


def picone_constant(G: NFunction, q: float):
    """Uniform constant of the pointwise Picone bound, plus per-regime values.

    The four case regimes (differences above/below one in each argument)
    each admit the constant p_plus * G(1)**e with their own exponent e; a
    single valid constant takes the max exponent when G(1) >= 1 and the min
    when G(1) < 1.  The uniformization is an artifact choice (recorded as
    such in reports), not a sharp constant.
    """
    return _picone_constant(G, q, G(1.0))


def _picone_constant(G: NFunction, q: float, g1: float):
    """picone_constant from the value g1 = G(1)."""
    pm, pp = G.p_minus, G.p_plus
    exps = (
        1.0 + pm / pp,
        1.0 + pp / pm,
        (pp ** 2 - q * (pp - pm)) / (pp * pm),
        (q * (pp - pm) + pm ** 2) / (pp * pm),
    )
    cstar = max(exps) if g1 >= 1.0 else min(exps)
    uniform = pp * g1 ** cstar
    per_regime = tuple(pp * g1 ** e for e in exps)
    return uniform, per_regime


def picone_gap(G: NFunction, q: float, ux, uy, vx, vy):
    """(lhs, rhs, gap) of the discrete Picone bound at a pair of point values.

    lhs pairs the operator kernel at the u-differences against differences
    of v^q / u^(q-1); u must be strictly positive, v nonnegative.  The sign
    convention g(|0|) * 0/|0| = 0 removes the 0/0 at equal u-values.
    """
    _check_exponent(G, q)
    ux, uy, vx, vy = map(lambda z: np.asarray(z, float), (ux, uy, vx, vy))
    if np.any(ux <= 0) or np.any(uy <= 0):
        raise ValueError("u must be strictly positive at both points")
    if np.any(vx < 0) or np.any(vy < 0):
        raise ValueError("v must be nonnegative")
    du = ux - uy
    # G and g at |du|, G at |dv| and G(1) from one pair_terms call
    t = np.array(np.broadcast_arrays(np.abs(du), np.abs(vx - vy), 1.0))
    (G_du, G_dv, g1), (g_du, _, _) = G.pair_terms(t, (None, None))
    lhs = g_du * np.sign(du) * (vx ** q / ux ** (q - 1.0) - vy ** q / uy ** (q - 1.0))
    g1 = float(g1.flat[0])   # G(1) at every entry
    ru = G_du / g1
    rv = G_dv / g1
    pm, pp = G.p_minus, G.p_plus
    C, _ = _picone_constant(G, q, g1)
    rhs = C * np.maximum(rv ** (q / pp), rv ** (q / pm)) \
            * np.maximum(ru ** ((pm - q) / pp), ru ** ((pp - q) / pm))
    return lhs, rhs, rhs - lhs


def monotone_difference_gap(G: NFunction, a, b):
    """(lhs, ratio) of the monotone-difference bound.

    lhs = (g(|b|) sign b - g(|a|) sign a)(b - a) must dominate a positive
    multiple of G(|b - a|); the ratio lhs / G(|b - a|) estimates that
    constant.  Equal arguments return (0, nan) and are skipped by sweeps.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    signed = lambda z: G.deriv(np.abs(z)) * np.sign(z)
    lhs = (signed(b) - signed(a)) * (b - a)
    denom = G(np.abs(b - a))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0.0, lhs / np.where(denom > 0, denom, 1.0), np.nan)
    return lhs, ratio


def f2_monotonicity_check(F: Callable, x_samples, s_grid, p_minus: float) -> bool:
    """True when s -> F(x, s) / s^(p_minus - 1) is non-increasing at each x.

    Each step may rise by 1e-10 times (1 + |ratio|) to absorb rounding.
    """
    s_grid = np.sort(np.asarray(s_grid, float))
    if np.any(s_grid <= 0.0):
        raise ValueError("monotonicity grid must be positive")
    for x in np.atleast_1d(x_samples):
        ratio = np.array([float(F(x, s)) / s ** (p_minus - 1.0) for s in s_grid])
        if np.any(np.diff(ratio) > 1e-10 * (1.0 + np.abs(ratio[:-1]))):
            return False
    return True


# ---------------------------------------------------------------------------
# The FC class of comparison functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FCFunction:
    """A C^1 strictly convex candidate with the two-sided derivative bounds.

    theta1 and theta2 are the estimated extremes of x Psi'(x) / Psi(x).
    """

    Psi: Callable
    Psi_prime: Callable
    theta1: float = 0.0
    theta2: float = 0.0


def fc_check(Psi, Psi_prime: Optional[Callable] = None):
    """Estimate (theta1, theta2) = inf/sup of x Psi' / Psi and verify shape.

    Accepts either the pair of callables or an FCFunction record.  The
    samples are 2048 log-spaced points on [1e-6, 1e6].  ok requires
    theta1 >= 0, Psi' increasing on the samples, and convexity of Psi
    (`convex_samples` on the sampled values).
    """
    if isinstance(Psi, FCFunction):
        Psi, Psi_prime = Psi.Psi, Psi.Psi_prime
    if Psi_prime is None:
        raise TypeError("fc_check needs the derivative alongside the function")
    x = np.logspace(-6, 6, 2048)
    psi = call_vectorised(Psi, x)
    dpsi = call_vectorised(Psi_prime, x)
    ratio = x * dpsi / psi
    theta1 = float(ratio.min())
    theta2 = float(ratio.max())
    increasing = not np.any(np.diff(dpsi) < -1e-12 * (1.0 + np.abs(dpsi[1:])))
    ok = bool(theta1 >= 0.0 and increasing and convex_samples(x, psi))
    return theta1, theta2, ok


# ---------------------------------------------------------------------------
# Grid-pair gap functions
# ---------------------------------------------------------------------------

def _check_positive_pair(u: GridFunction, v: GridFunction):
    u._check_mesh(v)
    if np.any(u.values <= 0.0) or np.any(v.values <= 0.0):
        raise ValueError("both fields must be strictly positive on interior nodes")
    ratio = np.max(u.values / v.values)
    ratio = max(ratio, np.max(v.values / u.values))
    if ratio >= 1e6:
        raise ValueError(f"field ratio {ratio:.3g} exceeds the 1e+06 bound")


def diaz_saa_value(u: GridFunction, v: GridFunction, G: NFunction, s: float,
                   q: float) -> float:
    """Symmetrized operator pairing whose nonnegativity encodes uniqueness.

    Pairs the operator at u against (u^q - v^q)/u^(q-1) and the operator at
    v against the mirrored bracket; both brackets extend by zero outside the
    domain, so the full-space quadrature reduces to the interior pairing
    plus the exact exterior tails.  Equality at proportional inputs requires
    the modular to be exactly q-homogeneous (pure power with exponent q);
    otherwise proportional inputs give a strictly positive value.
    """
    _check_exponent(G, q)
    _check_positive_pair(u, v)
    pair_u, pair_v = _diaz_saa_parts(u.values, v.values, G, u.mesh, s, q)
    return float(pair_u + pair_v)


def _diaz_saa_parts(u, v, G: NFunction, mesh: Mesh, s: float, q: float):
    """h <A(u), (u^q - v^q) / u^(q-1)> and h <A(v), (v^q - u^q) / v^(q-1)>.

    u and v are positive nodal values and may carry leading batch axes;
    both pairings come from one operator_pairing call on them stacked.
    """
    uq = u ** q
    vq = v ** q
    bracket_u = (uq - vq) / u ** (q - 1.0)
    bracket_v = (vq - uq) / v ** (q - 1.0)
    pair_u, pair_v = operator_pairing(np.stack([u, v]), np.stack([bracket_u, bracket_v]),
                                      G, mesh, s)
    return pair_u, pair_v


def ray_convexity_probe(u0: GridFunction, u1: GridFunction, t: float,
                        G: NFunction, s: float, q: float):
    """Convexity gap of w -> full modular of w^(1/q) along a segment.

    Returns (values, gap) where values = (W(w0), W(w1), W(w_t)) with
    w_i = u_i^q and w_t their convex combination; gap is the chord minus the
    midpoint value and must be nonnegative.  The gap vanishes on rays only
    for exactly q-homogeneous modulars; for q < p_minus and non-proportional
    inputs it is strictly positive.
    """
    _check_exponent(G, q)
    if not (0.0 < t < 1.0):
        raise ValueError("t must lie strictly between 0 and 1")
    if np.any(u0.values <= 0.0) or np.any(u1.values <= 0.0):
        raise ValueError("ray probe needs strictly positive fields")
    u0._check_mesh(u1)
    w0 = u0.values ** q
    w1 = u1.values ** q
    wt = (1.0 - t) * w0 + t * w1
    W = lambda w: seminorm_modular(u0.with_values(w ** (1.0 / q)), G, s, "full")
    W0, W1, Wt = W(w0), W(w1), W(wt)
    return (W0, W1, Wt), (1.0 - t) * W0 + t * W1 - Wt


# ---------------------------------------------------------------------------
# Witness sharpening: greedy coordinate descent on the gap
# ---------------------------------------------------------------------------

def sharpen_witness(gap_fn: Callable[[dict], float], witness: dict,
                    rng: np.random.Generator) -> tuple:
    """Shrink the worst gap by 120 rounds of multiplicative coordinate tweaks.

    Only numeric entries are perturbed; moves that violate the gap
    function's own domain checks are discarded.  Returns (witness, gap):
    the witness passed in, and its own gap, when no move is accepted.
    """
    current = witness
    best = gap_fn(current)
    keys = [k for k, v in current.items() if isinstance(v, float)]
    scales = (0.3, 0.1, 0.03, 0.01)
    for _ in range(120):
        k = keys[rng.integers(len(keys))]
        step = scales[rng.integers(len(scales))] * (1 if rng.random() < 0.5 else -1)
        trial = dict(current)
        trial[k] = trial[k] * (1.0 + step)
        try:
            val = gap_fn(trial)
        except (ValueError, FloatingPointError):
            continue
        if np.isfinite(val) and val < best:
            best, current = val, trial
    return current, float(best)


# ---------------------------------------------------------------------------
# Randomized suites
# ---------------------------------------------------------------------------

SCALED_TOL = 1e-8  # per-sample tolerance of a suite, relative to 1 + sum of |magnitudes|


def _scaled_tol(*magnitudes) -> np.ndarray:
    total = magnitudes[0] * 0.0 + 1.0
    for m in magnitudes:
        total = total + np.abs(m)
    return SCALED_TOL * total


def sweep_young(G: NFunction, samples: int, seed: int) -> InequalityReport:
    """a b <= G(a) + conjugate(b) on uniform pairs in (0, 100)^2.

    conj(b) is the Newton-refined Fenchel value, not the raw table, so
    near-equality pairs are not polluted by interpolation error.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 100.0, samples)
    b = rng.uniform(0.0, 100.0, samples)
    conj = complementary(G)
    Ga = G(a)
    Gb = conj(b)
    gaps = Ga + Gb - a * b
    tols = _scaled_tol(Ga, Gb)
    witness = lambda i: {"a": float(a[i]), "b": float(b[i]), "family": G.name}
    return _finish_report("young", gaps, tols, witness, samples)


def sweep_scaling(G: NFunction, samples: int, seed: int) -> InequalityReport:
    """Two-sided power-scaling bounds with the recorded growth indices."""
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(-5.0, 5.0, samples))
    t = np.exp(rng.uniform(-5.0, 5.0, samples))
    Gt = G(t)
    Glt = G(lam * t)
    low = np.minimum(lam ** G.p_minus, lam ** G.p_plus) * Gt
    high = np.maximum(lam ** G.p_minus, lam ** G.p_plus) * Gt
    gap = np.minimum(Glt - low, high - Glt)
    tols = _scaled_tol(Glt, high)
    witness = lambda i: {"lambda": float(lam[i]), "t": float(t[i]), "family": G.name}
    return _finish_report("scaling", gap, tols, witness, samples)


FIELD_CELLS = 32     # mesh of the modular-norm sandwich and Hoelder sweeps
SEMINORM_CELLS = 8   # mesh of the seminorm sandwich: n(n - 1)/2 quotients per field
FIELD_CHUNK = 1024   # samples per row chunk of the field sweeps


def _by_row_chunks(samples: int, solve: Callable, chunk: int) -> tuple:
    """solve(rows) over consecutive slices of chunk samples in order, joined.

    solve returns a tuple of per-sample vectors for the samples of its
    slice (a filtered slice returns fewer); each is concatenated over the
    slices.  The sweeps draw their coefficients and form their fields,
    quotients and gauges inside solve, so they hold O(chunk x cells) field
    data and O(samples) result vectors, whatever the sample count.  The
    field sweeps draw one coefficient row per sample from each stream, in
    order, and solve rows independently, so the chunk size moves at most
    an ulp of a gauge (batch_luxemburg); a solve that draws two rows per
    sample from one stream (Diaz-Saa: the chunk's u rows, then its v rows)
    makes the chunk part of its sample law.
    """
    parts = [solve(slice(lo, min(lo + chunk, samples))) for lo in range(0, samples, chunk)]
    return tuple(np.concatenate(vectors) for vectors in zip(*parts))


def _sandwich_report(name: str, G: NFunction, phi, norm, **witness_extra) -> InequalityReport:
    """min(norm^p-, norm^p+) <= modular phi <= max(norm^p-, norm^p+), row-wise."""
    low = np.minimum(norm ** G.p_minus, norm ** G.p_plus)
    high = np.maximum(norm ** G.p_minus, norm ** G.p_plus)
    gap = np.minimum(phi - low, high - phi)
    tols = 1e-6 * (1.0 + phi + high)
    witness = lambda i: {"norm": float(norm[i]), "modular": float(phi[i]),
                         "coeff_row": i, "family": G.name, **witness_extra}
    return _finish_report(name, gap, tols, witness, len(phi))


def _coefficient_stream(seed: int, rows: int) -> np.random.Generator:
    """default_rng(seed) positioned after its first rows coefficient rows.

    Each coefficient of fourier_coefficients is one uniform double, one
    step of the bit generator, so the stream skips rows * FOURIER_MODES
    steps without drawing them; the next draw is row `rows` of one block
    draw from default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(rows * FOURIER_MODES)
    return rng


@functools.lru_cache(maxsize=1)
def _field_gauges(G: NFunction, samples: int, seed: int, chunk: int) -> tuple:
    """(gauges, modulars, kept) of the seed's first FIELD_CELLS field draw.

    The fields are the first samples coefficient rows of default_rng(seed)
    times the sine basis, drawn, formed and gauged one chunk of rows at a
    time; kept marks the fields that are not numerically zero.  The
    modular-norm sandwich and the Hoelder sweep both draw these fields
    first, so one entry, read-only, serves a family's two sweeps:
    batch_luxemburg solves each row on its own, so the gauges are those
    each sweep would solve.
    """
    mesh = Mesh(0.0, 1.0, FIELD_CELLS)
    rng = np.random.default_rng(seed)
    basis = sine_basis(mesh)

    def solve(rows):
        fields = fourier_coefficients(rng, rows.stop - rows.start) @ basis
        return (*batch_luxemburg(fields, mesh.h, G.level_terms),
                np.max(np.abs(fields), axis=1) > 1e-12)

    parts = _by_row_chunks(samples, solve, chunk)
    for part in parts:
        part.flags.writeable = False
    return parts


def sweep_modular_norm_sandwich(G: NFunction, samples: int, seed: int) -> InequalityReport:
    """Modular bracketed by powers of its own Luxemburg gauge (plain modular).

    The gauges and modulars of the seed's random_fourier fields come from
    _field_gauges, which the Hoelder sweep shares; numerically zero fields
    are dropped, and coeff_row counts the fields kept.
    """
    norm, phi, kept = _field_gauges(G, samples, seed, FIELD_CHUNK)
    return _sandwich_report("modular_norm_sandwich", G, phi[kept], norm[kept])


def sweep_seminorm_sandwich(G: NFunction, samples: int, seed: int,
                            s: float = 0.5) -> InequalityReport:
    """Same sandwich for the Gagliardo modular and its gauge, on SEMINORM_CELLS cells.

    Per row chunk, the fields' coefficients are drawn and their scaled
    difference quotients over the unordered node pairs are formed once, so
    the Gagliardo modular is a kernel-weighted plain modular of them, and
    the gauge and the modular come from one batch_luxemburg solve,
    independent of the claim under test.  Constant fields are dropped; coeff_row counts the fields kept.
    """
    mesh = Mesh(0.0, 1.0, SEMINORM_CELLS)
    rng = np.random.default_rng(seed)
    basis = sine_basis(mesh)

    def solve(rows):
        fields = fourier_coefficients(rng, rows.stop - rows.start) @ basis
        fields = fields[np.max(np.abs(fields - fields[:, :1]), axis=1) > 1e-9]
        quotients, weights = difference_quotients(fields, mesh, s)

        def weighted_terms(z, out):
            e, tg = G.level_terms(z, out)
            e *= weights
            tg *= weights
            return e, tg

        return batch_luxemburg(quotients, mesh.h ** 2, weighted_terms)

    norm, phi = _by_row_chunks(samples, solve, FIELD_CHUNK)
    return _sandwich_report("seminorm_sandwich", G, phi, norm, s=s)


def sweep_holder(G: NFunction, samples: int, seed: int) -> InequalityReport:
    """Orlicz Hoelder pairing bound over random field pairs.

    The coefficients of u are the seed's first samples rows and those of v
    the next samples rows, as two random_fourier calls would draw them;
    each chunk draws its u rows from one stream and its v rows from a
    second one that starts after the u rows (_coefficient_stream), and
    forms the fields, the pairing and the conjugate gauges of v.  The
    gauges of u are those of the modular-norm sandwich's fields
    (_field_gauges), solved once.
    """
    mesh = Mesh(0.0, 1.0, FIELD_CELLS)
    conj = complementary(G)
    rng_u = np.random.default_rng(seed)
    rng_v = _coefficient_stream(seed, samples)
    basis = sine_basis(mesh)
    nu = _field_gauges(G, samples, seed, FIELD_CHUNK)[0]

    def solve(rows):
        u = fourier_coefficients(rng_u, rows.stop - rows.start) @ basis
        v = fourier_coefficients(rng_v, rows.stop - rows.start) @ basis
        # the conjugate gauge reads the raw table: the factor-2 slack of the
        # bound dwarfs the interpolation error, and it is several times
        # cheaper than the polished pointwise conjugate
        return (mesh.h * np.sum(u * v, axis=1),
                batch_luxemburg(v, mesh.h, conj.table.level_terms)[0])

    lhs, nv = _by_row_chunks(samples, solve, FIELD_CHUNK)
    rhs = 2.0 * nu * nv
    gap = rhs - lhs
    tols = _scaled_tol(rhs)
    witness = lambda i: {"lhs": float(lhs[i]), "rhs": float(rhs[i]),
                         "coeff_row": i, "family": G.name}
    return _finish_report("holder", gap, tols, witness, samples)


def sweep_conjugate_sandwich(G: NFunction, samples: int, seed: int) -> InequalityReport:
    """(p- - 1) G(t) <= conjugate(g(t)) <= (p+ - 1) G(t) via the table."""
    rng = np.random.default_rng(seed)
    t = np.exp(rng.uniform(-6.0 * np.log(10.0), 6.0 * np.log(10.0), samples))
    conj = complementary(G)
    Gt = G(t)
    val = conj(G.deriv(t))
    low = (G.p_minus - 1.0) * Gt
    high = (G.p_plus - 1.0) * Gt
    gap = np.minimum(val - low, high - val)
    tols = 1e-6 * (1.0 + val + high)
    witness = lambda i: {"t": float(t[i]), "family": G.name}
    return _finish_report("conjugate_sandwich", gap, tols, witness, samples)


def sweep_monotone_difference(G: NFunction, samples: int, seed: int) -> InequalityReport:
    """Nonnegativity and uniform lower ratio of the kernel difference bound."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-50.0, 50.0, samples)
    b = rng.uniform(-50.0, 50.0, samples)
    distinct = np.abs(a - b) > 1e-12
    a, b = a[distinct], b[distinct]
    lhs, ratio = monotone_difference_gap(G, a, b)
    tols = _scaled_tol(lhs)
    worst = int(np.argmin(ratio))
    report = _finish_report("monotone_difference", lhs, tols,
                            lambda i: {"a": float(a[i]), "b": float(b[i]),
                                       "family": G.name},
                            len(a),
                            extra={"ratio_inf": float(ratio[worst]),
                                   "ratio_witness": (float(a[worst]), float(b[worst]))})
    return report


def sweep_hidden_convexity(G: NFunction, samples: int, seed: int) -> InequalityReport:
    rng = np.random.default_rng(seed)
    q = default_exponent(G)
    vals = np.exp(rng.uniform(-3.0, 3.0, (4, samples)))
    t = rng.uniform(0.0, 1.0, samples)
    gaps = hidden_convexity_gap(G, q, *vals, t)
    scale = 1.0 + np.abs((1.0 - t) * G(np.abs(vals[0] - vals[1]))
                         + t * G(np.abs(vals[2] - vals[3])))
    tols = 1e-10 * scale
    witness = lambda i: {"u0x": float(vals[0][i]), "u0y": float(vals[1][i]),
                         "u1x": float(vals[2][i]), "u1y": float(vals[3][i]),
                         "t": float(t[i]), "q": q, "family": G.name}
    report = _finish_report("hidden_convexity", gaps, tols, witness, samples)
    gap_of = lambda w: float(hidden_convexity_gap(
        G, q, w["u0x"], w["u0y"], w["u1x"], w["u1y"], w["t"]))
    _sharpen_into(report, gap_of, rng)
    return report


def _sharpen_into(report: InequalityReport, gap_of, rng):
    """Adopt the sharpened witness and gap when an accepted move lowered min_gap.

    Without an accepted move the gap is the witness's own, re-evaluated on
    scalars, whose last bits may differ from the sweep's array value; it
    replaces nothing.
    """
    witness, best = sharpen_witness(gap_of, report.witness, rng)
    if witness is not report.witness and best < report.min_gap:
        report.min_gap = best
        report.witness = witness
        if best < -report.tolerance:
            report.violations += 1
            report.extra["sharpened_violation"] = True


def sweep_picone(G: NFunction, samples: int, seed: int) -> InequalityReport:
    """Picone gap with stratified difference regimes.

    Samples split evenly between differences below and above one in each of
    the two arguments so that all four case regimes of the bound are
    exercised; the per-regime hit counts land in the report extras.
    """
    rng = np.random.default_rng(seed)
    q = default_exponent(G)
    big_u = rng.random(samples) < 0.5
    big_v = rng.random(samples) < 0.5
    du = np.where(big_u, rng.uniform(1.0, 20.0, samples), rng.uniform(0.0, 1.0, samples))
    dv = np.where(big_v, rng.uniform(1.0, 20.0, samples), rng.uniform(0.0, 1.0, samples))
    ux = np.exp(rng.uniform(-2.0, 2.0, samples))
    uy = ux + du * np.where(rng.random(samples) < 0.5, 1.0, -1.0)
    uy = np.where(uy > 0.0, uy, ux + du)  # keep strictly positive
    vx = rng.uniform(0.0, 5.0, samples)
    vy = vx + dv * np.where(rng.random(samples) < 0.5, 1.0, -1.0)
    vy = np.where(vy >= 0.0, vy, vx + dv)
    lhs, rhs, gap = picone_gap(G, q, ux, uy, vx, vy)
    tols = _scaled_tol(lhs, rhs)
    regime_u = np.abs(ux - uy) > 1.0
    regime_v = np.abs(vx - vy) > 1.0
    counts = {
        "small_small": int(np.sum(~regime_u & ~regime_v)),
        "small_large": int(np.sum(~regime_u & regime_v)),
        "large_small": int(np.sum(regime_u & ~regime_v)),
        "large_large": int(np.sum(regime_u & regime_v)),
    }
    uniform_c, per_regime = picone_constant(G, q)
    witness = lambda i: {"ux": float(ux[i]), "uy": float(uy[i]),
                         "vx": float(vx[i]), "vy": float(vy[i]),
                         "q": q, "family": G.name}
    extra = {"regime_counts": counts, "constant": uniform_c,
             "per_regime_constants": per_regime, "constant_kind": "artifact constant"}
    report = _finish_report("picone", gap, tols, witness, samples, extra=extra)
    gap_of = lambda w: float(picone_gap(G, q, w["ux"], w["uy"], w["vx"], w["vy"])[2])
    _sharpen_into(report, gap_of, rng)
    return report


# field pairs per chunk: the chunk's u coefficients are drawn before its v
# coefficients, so this is part of the sample law (changing it re-draws
# every sample)
DIAZ_SAA_CHUNK = 512
DIAZ_SAA_CELLS = 12


def sweep_diaz_saa(G: NFunction, samples: int, seed: int, s: float = 0.5) -> InequalityReport:
    """Nonnegativity of the symmetrized pairing over positive field pairs.

    Fields are exponentials of Fourier bumps (strictly positive, bounded
    mutual ratios) on DIAZ_SAA_CELLS cells, paired at the exponent
    default_exponent(G); the pairings are weak forms over the unordered
    node pairs with the exact exterior tails (operator_pairing),
    DIAZ_SAA_CHUNK field pairs at a time.  Only the gaps and scales are
    kept: the witness replays the stream to the worst pair's chunk and
    draws that chunk's coefficients again.
    """
    rng = np.random.default_rng(seed)
    q = default_exponent(G)
    mesh = Mesh(0.0, 1.0, DIAZ_SAA_CELLS)

    def solve(rows):
        u = random_fourier(rng, mesh, rows.stop - rows.start)[1]
        v = random_fourier(rng, mesh, rows.stop - rows.start)[1]
        pair_u, pair_v = _diaz_saa_parts(np.exp(u), np.exp(v), G, mesh, s, q)
        return pair_u + pair_v, np.abs(pair_u) + np.abs(pair_v)

    def witness(i):
        lo = i - i % DIAZ_SAA_CHUNK
        rows = min(DIAZ_SAA_CHUNK, samples - lo)
        replay = _coefficient_stream(seed, 2 * lo)   # every earlier chunk is full
        coeff_u = fourier_coefficients(replay, rows)
        coeff_v = fourier_coefficients(replay, rows)
        return {"coeff_u": coeff_u[i - lo].tolist(), "coeff_v": coeff_v[i - lo].tolist(),
                "q": q, "s": s, "n": DIAZ_SAA_CELLS, "family": G.name}

    gaps, scales = _by_row_chunks(samples, solve, DIAZ_SAA_CHUNK)
    tols = SCALED_TOL * (1.0 + scales)
    return _finish_report("diaz_saa", gaps, tols, witness, samples)


SUITES: Dict[str, Callable] = {
    "young": sweep_young,
    "scaling": sweep_scaling,
    "modular_norm_sandwich": sweep_modular_norm_sandwich,
    "seminorm_sandwich": sweep_seminorm_sandwich,
    "holder": sweep_holder,
    "conjugate_sandwich": sweep_conjugate_sandwich,
    "monotone_difference": sweep_monotone_difference,
    "hidden_convexity": sweep_hidden_convexity,
    "picone": sweep_picone,
    "diaz_saa": sweep_diaz_saa,
}


def run_suite(name: str, G: NFunction, samples: int, seed: int, **kwargs) -> InequalityReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    report = SUITES[name](G, samples, seed, **kwargs)
    report.name = f"{name}[{G.name}]"
    return report
