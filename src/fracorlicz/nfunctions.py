"""N-function (Young function) calculus.

An N-function is a convex G : [0, inf) -> [0, inf) with G(0) = 0, G(t)/t -> 0
at zero and G(t)/t -> infinity at infinity.  This module builds the analytic
families used throughout the package (pure powers, powers with a logarithmic
correction, sums of powers, tabulated data), estimates their growth indices,
and tabulates the derived objects: the complementary (convex-conjugate)
function, the inverse, the fractional Sobolev conjugate, and power
compositions of it.

All evaluators are vectorised over numpy arrays; a 0-d argument gives a
Python float (`_float_if_0d`).  A family's G and its derivative g have one
evaluator, the `pair_terms` field of NFunction, which gives both from
shared powers and logarithms and writes into buffers its caller hands it;
G, G.deriv and G.level_terms each take their part of that one call.  A
user-built family supplies its own pair_terms and tail primitive under the
contract in the NFunction docstring.

Derived functions are stored as strictly monotone tables interpolated with
a monotonicity preserving cubic (PCHIP, Fritsch & Carlson) in log-log
coordinates, with power-law extensions of positive slope beyond the
tabulated range: a table maps 0 to 0, inf to inf and NaN to NaN, its
derivative there is the extension's limit, and a negative argument is a
ValueError.  Each derived function evaluates in one way: its table, or one
Newton refinement seeded from the table (the complementary function's
maximizer, the inverse).  Monotone equations without a table (the inverses
of the families, Luxemburg norms) go through one root-finder, a
safeguarded Newton iteration in log-log coordinates.  Every level it
solves follows one contract, that of `level_terms`: an evaluation yields
the level and its derivative in log scale, and the root-finder alone
divides them into the log-log slope that steers it.  Both algorithms live
in this module on numpy alone.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Growth indices are estimated on this fixed log grid (12 decades, 4096
# points): the ratio t g'(t)/g(t) is monotone or nearly so for the built-in
# families, so endpoint refinement beyond this density is unnecessary.
INDEX_GRID = np.logspace(-6.0, 6.0, 4096)

# Default abscissa range for derived-function tables.  Wide enough that the
# property sweeps (arguments up to ~1e8) stay on interpolated knots.
TABLE_LOG10_RANGE = (-12.0, 12.0)
TABLE_KNOTS = 4096

BISECT_REL_TOL = 1e-12   # relative root tolerance for all monotone solves
MAX_WALK_STEPS = 8       # outward walk budget per element: reaches 2^+-255
MAX_ROOT_STEPS = 2046    # root-finder cap: the float exponent range in bits
_LOG_X_MAX = 700.0       # root-finder iterates keep exp(+-this) finite and normal

# log 0 and log inf are clipped to +-this before a table lookup, so they land
# on the power-law extensions (where 0 * inf would give NaN): exp of the
# extension there is 0 or inf, for the value and for value / x alike
_LOG_HUGE = 1e300

BUCKETS_PER_KNOT = 8   # table lookup buckets, uniform in log x, per knot


class InvalidNFunctionError(ValueError):
    """Input does not define a usable N-function."""


class BracketExpansionError(RuntimeError):
    """A monotone solve failed to bracket its target within MAX_WALK_STEPS walk steps."""


class SobolevConjugateError(ValueError):
    """The integrability test for the Sobolev conjugate failed.

    `failed_tail` is "origin" when the defining integral diverges at zero
    and "infinity" when the required divergence at infinity is absent.
    """

    def __init__(self, message: str, failed_tail: str):
        super().__init__(message)
        self.failed_tail = failed_tail


def _as_array(t):
    return np.asarray(t, dtype=float)


def _float_if_0d(value):
    """The scalar rule of every evaluator: a 0-d result as a Python float."""
    return float(value) if np.ndim(value) == 0 else value


def solve_increasing(fn, target, args=(), at_one=None):
    """Solve fn(x, *args) = target for a nondecreasing fn, vectorised over target.

    fn returns (level, d level / d log x), arrays shaped like x, both from
    one evaluation, as NFunction.level_terms does; their quotient is the
    log-log slope, and this is the one place that forms it.  Each element
    with target > 0 solves f(y) = log level - log target = 0 in y = log x
    by Newton's method from y = 0, with the step -f / max(slope, 1), to
    BISECT_REL_TOL, i.e. to that relative accuracy in x.  at_one, where
    the caller has it, is fn's pair at x = 1, shaped like target; it takes
    the place of the first evaluation.
    target == 0 maps to 0, target == inf to inf, and a NaN target or a NaN
    level to NaN.

    Each element keeps a bracket [lo, hi] of its root in y from the signs
    of f seen so far.  It takes the Newton step when that lands strictly
    inside the bracket and its last evaluation at least halved |f|;
    otherwise it takes the false-position step through the bracket ends,
    Illinois style (an end that stays while the other end moves twice in
    a row counts with half its f; Dowell & Jarratt, BIT 11, 1971), and
    bisects where that step does not land strictly inside; while one end
    is still open (and where the level is 0 or inf), it walks outward by
    the larger of |f| and log 2 * 2^k at its k-th walk step.
    MAX_WALK_STEPS walk steps reach 2^+-255, and one more raises
    BracketExpansionError.  No iterate leaves
    |y| <= _LOG_X_MAX, so fn is never evaluated at 0 or inf.

    fn must have log-log slope >= 1 wherever it is positive, as every
    N-function, modular and Luxemburg level has (G(x)/x is nondecreasing
    for a convex G with G(0) = 0, and so for sums of them).  Then a step of
    -f crosses the root, which makes a walk step bracket it, and the stop
    is certified: an element stops once |f| <= BISECT_REL_TOL / 2, which
    puts y within BISECT_REL_TOL / 2 of the root, or once its bracket is
    narrower than BISECT_REL_TOL, at the end with the smaller |f|.  The stop
    reads only f, so an inexact slope changes the number of evaluations,
    not the accuracy.  A pure power's root costs two evaluations: the
    Newton step lands on it and the next evaluation certifies it.

    args holds arrays shaped like target, one entry per element; fn sees
    only the elements still open, with args cut down to match, so a
    batched caller passes a row index and gathers its per-row data from it.
    """
    target = _as_array(target)
    flat = target.ravel()
    root = np.where(np.isnan(flat) | (flat == np.inf), flat, 0.0)
    pos = np.flatnonzero((flat > 0.0) & (flat < np.inf))
    log_t = np.log(flat[pos])
    args = tuple(np.ravel(a)[pos] for a in args)
    # per open element: its position in root, its iterate y, the bracket
    # [lo, hi] with the gaps there and their Illinois weights w_lo, w_hi,
    # the end the previous evaluation moved (-1 lo, +1 hi), the gap at the
    # previous iterate and the number of walk steps taken
    y = np.zeros(pos.size)
    lo, hi = np.full(pos.size, -np.inf), np.full(pos.size, np.inf)
    f_lo, f_hi, w_lo, w_hi, f_last = (np.full(pos.size, np.inf) for _ in range(5))
    moved, walks = np.zeros(pos.size), np.zeros(pos.size)
    for step in range(MAX_ROOT_STEPS + 1):
        if not pos.size:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if step == 0 and at_one is not None:
                level, d_level = (np.ravel(a)[pos] for a in at_one)
            else:
                level, d_level = fn(np.exp(y), *args)
            f = np.log(level) - log_t
            slope = d_level / level   # a level of 0 or inf gives no slope
        below, above = f < 0.0, f > 0.0
        lo, f_lo = np.where(below, y, lo), np.where(below, f, f_lo)
        hi, f_hi = np.where(above, y, hi), np.where(above, f, f_hi)
        w_lo = np.where(below, f, np.where(above & (moved > 0.0), 0.5 * w_lo, w_lo))
        w_hi = np.where(above, f, np.where(below & (moved < 0.0), 0.5 * w_hi, w_hi))
        moved = above.astype(float) - below
        done = np.abs(f) <= 0.5 * BISECT_REL_TOL
        stop = done | (hi - lo < BISECT_REL_TOL) | np.isnan(f) | (step == MAX_ROOT_STEPS)
        if stop.any():
            k = np.flatnonzero(stop)
            end = np.where(np.abs(f_lo[k]) <= np.abs(f_hi[k]), lo[k], hi[k])
            root[pos[k]] = np.where(np.isnan(f[k]), np.nan,
                                    np.exp(np.where(done[k], y[k], end)))
            k = np.flatnonzero(~stop)
            pos, y, f, slope, lo, hi, f_lo, f_hi, w_lo, w_hi, moved, f_last, walks, log_t = (
                a[k] for a in (pos, y, f, slope, lo, hi, f_lo, f_hi, w_lo, w_hi, moved,
                               f_last, walks, log_t))
            args = tuple(a[k] for a in args)
        with np.errstate(invalid="ignore"):
            y_next = y - f / np.fmax(slope, 1.0)
        ok = (lo < y_next) & (y_next < hi) & (np.abs(f) <= 0.5 * np.abs(f_last))
        f_last = f
        if not ok.all():
            k = np.flatnonzero(~ok)
            walk = np.isinf(lo[k]) | np.isinf(hi[k])
            stuck = k[walk][walks[k[walk]] == MAX_WALK_STEPS]
            if stuck.size:
                raise BracketExpansionError(
                    "upper bracket expansion exhausted (target beyond function range)"
                    if np.any(f[stuck] < 0.0) else "lower bracket expansion exhausted")
            gap = np.where(np.isfinite(f[k]), np.abs(f[k]), 0.0)
            reach = -np.sign(f[k]) * np.fmax(gap, np.log(2.0) * 2.0 ** walks[k])
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                inside = lo[k] - w_lo[k] * (hi[k] - lo[k]) / (w_hi[k] - w_lo[k])
            inside = np.where((lo[k] < inside) & (inside < hi[k]), inside,
                              0.5 * (lo[k] + hi[k]))
            y_next[k] = np.where(walk, y[k] + reach, inside)
            walks[k] += walk
        y = np.clip(y_next, -_LOG_X_MAX, _LOG_X_MAX, out=y_next)
    return _float_if_0d(root.reshape(target.shape))


def _pchip_slopes(h, m):
    """Knot slopes of the monotone cubic through one piece of increasing data.

    h are the interval widths and m the secant slopes (at least two
    intervals).  Interior knots take the weighted harmonic mean of the
    neighbouring secants (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980;
    Fritsch & Butland 1984); each end takes the one-sided three-point
    estimate, clamped at 0.  For increasing data these are the only
    branches of the shape-preserving rules that can fire.
    """
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    d = np.empty(m.size + 1)
    with np.errstate(divide="ignore"):   # a flat secant gives a zero slope
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[0] = ((2.0 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1])
    d[-1] = ((2.0 * h[-1] + h[-2]) * m[-1] - h[-1] * m[-2]) / (h[-1] + h[-2])
    d[[0, -1]] = np.maximum(d[[0, -1]], 0.0)
    return d


class LogLogTable:
    """Strictly increasing positive table, monotone-cubic interpolated in log-log.

    The interpolant is PCHIP (`_pchip_slopes`) on (log abscissa, log value)
    over N knots, held as N + 1 cubic segments: segment i, 0 < i < N, spans
    [knot i - 1, knot i], and segments 0 and N are the power laws that
    extend the table below and above its knots with the boundary log-log
    slopes, or the end secant where PCHIP clamps an end slope to 0 (so
    monotonicity survives extrapolation, which cubic extension would not
    guarantee, and both extensions increase strictly).  A lookup finds the
    segment through a bucket index (`_segment`) and runs one pass
    (`_horner`) that gathers the four coefficient columns one at a time and
    steps the Horner forms of the log value and the log slope in place
    together; the value and the derivative are exponentials of them, so 0
    maps to 0, inf to inf and NaN to NaN with no mask, and a negative
    argument is a ValueError.  Results follow the scalar rule
    (`_float_if_0d`).
    split_at lists abscissae where the tabulated function has a derivative
    kink: knot slopes are computed per piece between them, so the C1
    smoothing of a single PCHIP cannot smear error across the kink.
    """

    def __init__(self, abscissa: np.ndarray, values: np.ndarray,
                 split_at: Sequence[float] = ()):
        abscissa = _as_array(abscissa)
        values = _as_array(values)
        keep = (abscissa > 0.0) & (values > 0.0)
        abscissa, values = abscissa[keep], values[keep]
        if abscissa.size < 4:
            raise InvalidNFunctionError("table needs at least 4 positive knots")
        if np.any(np.diff(abscissa) <= 0.0) or np.any(np.diff(values) <= 0.0):
            raise InvalidNFunctionError("table must be strictly increasing")
        self.abscissa = abscissa
        self.values = values
        lx, ly = np.log(abscissa), np.log(values)
        h = np.diff(lx)
        m = np.diff(ly) / h
        # piece ends (knot indices, shared at cuts); every piece spans >= 2 intervals
        bounds = [0]
        for point in sorted(set(float(s) for s in split_at if s > 0.0)):
            idx = int(np.searchsorted(abscissa, point))
            if max(4, bounds[-1] + 2) <= idx <= abscissa.size - 4:
                bounds.append(idx)
        bounds.append(abscissa.size - 1)
        # d_left[k], d_right[k]: knot slopes at the ends of interval k
        d_left, d_right = np.empty(h.size), np.empty(h.size)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            d = _pchip_slopes(h[lo:hi], m[lo:hi])
            d_left[lo:hi], d_right[lo:hi] = d[:-1], d[1:]
        # Hermite cubic of each segment in powers of (log x - its left end),
        # highest power first: one contiguous column per power, and _coef
        # the (segments, 4) view of one row per segment
        curv = (d_left + d_right - 2.0 * m) / h
        self._columns = np.zeros((4, abscissa.size + 1))
        self._columns[:, 1:-1] = curv / h, (m - d_left) / h - curv, d_left, ly[:-1]
        self._columns[2:, 0] = d_left[0] if d_left[0] > 0.0 else m[0], ly[0]
        self._columns[2:, -1] = d_right[-1] if d_right[-1] > 0.0 else m[-1], ly[-1]
        self._coef = self._columns.T
        self._origin = np.concatenate([lx[:1], lx])
        self._lx = lx
        # bucket index over B equal widths of [lx[0], lx[-1]]: bucket k,
        # 1 <= k <= B, starts at lx[0] + (k - 1) * width; bucket 0 takes
        # everything below lx[0], bucket B + 1 the next width from lx[-1]
        # on, and bucket B + 2, which holds no knot, everything above and
        # NaN.  Each knot is bucketed by the lookup's own arithmetic
        # (_bucket), which is monotone in log x, so a knot in a lower bucket
        # lies below any log x of the bucket and one in a higher bucket
        # above it: _bucket_row[b] counts the knots in buckets below b, and
        # the row of log x adds the knots of its bucket at or below it
        buckets = BUCKETS_PER_KNOT * lx.size
        self._bucket_scale = buckets / (lx[-1] - lx[0])
        self._bucket_top = buckets + 2.0
        counts = np.bincount(self._bucket(lx).astype(np.intp), minlength=buckets + 3)
        self._bucket_row = np.concatenate([[0], np.cumsum(counts[:-1])])
        self._bucket_knots = int(counts.max())   # the compares a lookup makes
        self._knots = np.concatenate([lx, [np.inf]])

    def _bucket(self, lx, out=None):
        """The bucket of each clipped log x as a whole float, into out (None: fresh).

        Truncation is floor on [0, _bucket_top], and fmin sends NaN to the
        top bucket.
        """
        with np.errstate(over="ignore"):
            out = np.subtract(lx, self._lx[0], out=out)
            out *= self._bucket_scale
        out += 1.0
        np.fmin(out, self._bucket_top, out=out)
        return np.fmax(out, 0.0, out=out)

    def _segment(self, x, spare=None):
        """(row, log x clipped to +-_LOG_HUGE), both shaped like x: row is the segment holding x.

        row equals np.searchsorted(self._lx, log x, side="right"), and NaN
        gets the last segment.  The row starts at the count of knots in
        the buckets below that of log x and steps over each knot of its
        bucket at or below log x: the knots in order, at most
        _bucket_knots of them, gathered into spare, a flat float buffer of
        x's size (None: a fresh one) that first holds the bucket.
        """
        with np.errstate(divide="ignore"):
            lx = np.log(np.reshape(x, -1))
        np.clip(lx, -_LOG_HUGE, _LOG_HUGE, out=lx)
        spare = self._bucket(lx, spare)
        row = self._bucket_row.take(spare.astype(np.intp))
        for _ in range(self._bucket_knots):
            row += lx >= self._knots.take(row, out=spare)
        return row.reshape(np.shape(x)), lx.reshape(np.shape(x))

    def _horner(self, x, value, slope, curvature=None, keep_log=False):
        """One lookup of x: log value, log slope and curvature into buffers shaped like x.

        Every lookup goes through here, so this is where a negative
        argument is rejected.  value receives ((c0 s + c1) s + c2) s + c3,
        slope (3 c0 s + 2 c1) s + c2 and curvature 6 c0 s + 2 c1, for the
        coefficients c of x's segment and the offset s of log x in it;
        value and slope are always filled, curvature only when it is given.
        The coefficient columns are gathered one at a time into one scratch
        buffer just before their Horner step, and the passes are
        interleaved.  Returns log x (clipped) when keep_log, else its
        buffer serves as the scratch and None comes back.
        """
        x = _as_array(x)
        if np.any(x < 0.0):
            raise ValueError("table argument must be nonnegative")
        flat = np.empty(x.size)
        row, lx = self._segment(x, flat)
        row = row.reshape(-1)
        self._origin.take(row, out=flat, mode="clip")
        np.subtract(lx.reshape(-1), flat, out=flat)
        scratch = np.empty(row.shape) if keep_log else lx.reshape(-1)
        s, c = flat.reshape(x.shape), scratch.reshape(x.shape)

        def gather(k):   # coefficient column k into the scratch buffer c views
            self._columns[k].take(row, out=scratch, mode="clip")

        gather(0)
        np.multiply(c, s, out=value)
        if curvature is not None:
            np.multiply(c, 6.0, out=curvature)
            curvature *= s
        c *= 3.0
        np.multiply(c, s, out=slope)
        gather(1)
        value += c
        value *= s
        c *= 2.0
        slope += c
        slope *= s
        if curvature is not None:
            curvature += c
        gather(2)
        slope += c
        value += c
        value *= s
        gather(3)
        value += c
        return lx if keep_log else None

    def __call__(self, x):
        value, slope = np.empty(np.shape(x)), np.empty(np.shape(x))
        self._horner(x, value, slope)
        with np.errstate(over="ignore"):
            return _float_if_0d(np.exp(value, out=value))

    def slope(self, x):
        """d(log value)/d(log abscissa), constant beyond the knots."""
        value, slope = np.empty(np.shape(x)), np.empty(np.shape(x))
        self._horner(x, value, slope)
        return _float_if_0d(slope)

    def level_terms(self, x, out=None):
        """(v, v * log slope) from one lookup, as NFunction.level_terms gives them.

        The second is dv / d log x, the root-finder's level derivative.  out
        holds two buffers shaped like x that receive them (None: fresh
        arrays), as batch_luxemburg passes them.
        """
        value, slope = _buffers(np.shape(x), (None, None) if out is None else out)
        self._horner(x, value, slope)
        with np.errstate(over="ignore"):
            np.exp(value, out=value)
        slope *= value
        return value, slope

    def derivative(self, x):
        """dv/dx = exp(log v - log x) * dlogv/dlogx from one lookup.

        At 0 (inf) this is the extension's limit: 0 (inf) for a slope d > 1,
        as an N-function, its conjugate and its Sobolev conjugate have, and
        inf (0) for d < 1, as an inverse has; d exactly 1 gives 1 there.
        """
        value, slope = np.empty(np.shape(x)), np.empty(np.shape(x))
        value -= self._horner(x, value, slope, keep_log=True)
        with np.errstate(over="ignore"):
            np.exp(value, out=value)
        value *= slope
        return _float_if_0d(value)


def log_grid(lo_exp: float, hi_exp: float, n: int,
             breakpoints: Sequence[float] = ()) -> np.ndarray:
    """Log-spaced grid with optional extra knots inserted (e.g. kink points)."""
    parts = [np.logspace(lo_exp, hi_exp, n)]
    for b in breakpoints:
        if 10.0 ** lo_exp < b < 10.0 ** hi_exp:
            parts.append(np.asarray([b], float))
    grid = np.unique(np.concatenate(parts)) if len(parts) > 1 else parts[0]
    return grid


def convex_samples(x: np.ndarray, values: np.ndarray) -> bool:
    """True when sampled values at increasing x > 0 pass the convexity test.

    True second divided differences are >= 0 for convex data on any grid;
    each may fall below 0 by 1e-10 times max(1, value / x**2) to absorb
    rounding.
    """
    d1 = np.diff(values) / np.diff(x)
    dd = np.diff(d1) / (x[2:] - x[:-2])
    return not np.any(dd < -1e-10 * np.maximum(1.0, values[1:-1] / x[1:-1] ** 2))


def _newton_refine(fn, slope, x, target):
    """Two damped Newton steps on fn(x) = target from the seed x, elementwise.

    Two steps square the interpolation error of a table seed away.  A
    nonpositive slope is replaced by 1, and the multiplicative clamp of
    each step to [x/2, 2x] keeps iterates positive near kinks.  An infinite
    seed, which a table gives only at an infinite target, is the root and
    stays.
    """
    for _ in range(2):
        d = slope(x)
        d = np.where(d > 0.0, d, 1.0)
        level = fn(x)
        with np.errstate(invalid="ignore"):   # inf - inf at an infinite seed
            gap = level - target
        x = np.where(np.isinf(x), x, np.clip(x - gap / d, 0.5 * x, 2.0 * x))
    return x


def gauss_log_segments(fn, knots: np.ndarray) -> np.ndarray:
    """Integrals of fn over consecutive knot intervals, Gauss-Legendre in log t.

    knots are positive and increase along the last axis, which may follow
    leading batch axes; each interval gets the 16-point rule in the log
    variable, so fn sees arrays shaped knots.shape[:-1] + (intervals, 16).
    Returns one integral per interval.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    llo = np.log(knots[..., :-1])
    lhi = np.log(knots[..., 1:])
    half = 0.5 * (lhi - llo)
    centre = 0.5 * (lhi + llo)
    tau = np.exp(centre[..., None] + half[..., None] * nodes)
    return half * np.sum(weights * fn(tau) * tau, axis=-1)


# ---------------------------------------------------------------------------
# The central object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NFunction:
    """A Young function with derivative data and growth indices.

    Fields follow the package-wide conventions: ``p_minus``/``p_plus`` are
    the growth indices (for pure powers both equal the exponent), and
    ``eval_domain`` is the abscissa interval on which numeric evaluation is
    trusted.  ``warnings`` records documented relaxations (for instance a
    lower index at or below 2, which the solver tolerates but flags).

    ``pair_terms(t, out)`` is the one evaluator of G and g = G' that a
    family supplies: for an array t it returns (G(t), g(t)).  out =
    (G buffer, g buffer) holds arrays shaped like t that t does not
    overlap, or None where the family is to allocate; a family may write
    into them (as scratch too) or ignore them.  The pair pass of ``grid``
    passes its slab buffers; G(t), G.deriv(t) and G.level_terms(t) each
    take their part of the one call, so a family writes its G and g
    formulas once.  ``tail_primitive_fn`` is required: it is the
    cumulative integral of G(r)/r behind the exterior tails of the
    full-space modular (`integral_over_t`).
    """

    family: str
    params: tuple
    pair_terms: Callable[[np.ndarray, tuple], tuple]
    deriv2_fn: Callable[[np.ndarray], np.ndarray]
    tail_primitive_fn: Callable[[np.ndarray], np.ndarray]
    p_minus: float
    p_plus: float
    eval_domain: tuple = (1e-12, 1e12)
    breakpoints: tuple = ()
    warnings: tuple = ()
    label: str = ""

    def __call__(self, t):
        return _float_if_0d(self.pair_terms(_as_array(t), (None, None))[0])

    def deriv(self, t):
        return _float_if_0d(self.pair_terms(_as_array(t), (None, None))[1])

    def deriv2(self, t):
        return _float_if_0d(self.deriv2_fn(_as_array(t)))

    def level_terms(self, t, out=(None, None)):
        """(G(t), t g(t)) for an array t, from one pair_terms call into out.

        Summed over a field, the first is a Luxemburg level and the second
        its derivative in log scale: the pair the root-finder takes, which
        forms the level's log-log slope from it.  out is as in pair_terms.
        """
        G, g = self.pair_terms(t, out)
        g *= t
        return G, g

    def inverse(self, tau):
        """Inverse of the function itself, by the root-finder on level_terms."""
        return solve_increasing(self.level_terms, tau)

    def integral_over_t(self, x):
        """Cumulative integral of G(r)/r from 0 to x.

        This is the primitive behind the exact exterior-tail formulas of the
        nonlocal modulars: the tail of the kernel integral beyond distance d
        collapses to integral_over_t(c * d**-s) / s for a field of height c.
        """
        return _float_if_0d(self.tail_primitive_fn(_as_array(x)))

    @property
    def delta2_constant(self) -> float:
        return 2.0 ** self.p_plus

    @property
    def name(self) -> str:
        return self.label or f"{self.family}{self.params}"

    def validate(self) -> list:
        """Check the type invariants on a sample grid; return violations.

        The grid is 512 log-spaced points two decades inside eval_domain,
        plus the breakpoints.  Checks: value 0 at 0, monotone and convex
        values, derivative 0 at 0 and nondecreasing, nonnegative second
        derivative, index bracketing of t*g/G, and the doubling bound
        G(2t) <= 2**p_plus * G(t).
        """
        lo, hi = self.eval_domain
        grid = log_grid(np.log10(lo) + 2, np.log10(hi) - 2, 512, self.breakpoints)
        problems = []
        Gv = self(grid)
        gv = self.deriv(grid)
        gpv = self.deriv2(grid)
        if abs(self(0.0)) > 1e-300:
            problems.append("G(0) != 0")
        if abs(self.deriv(0.0)) > 1e-300:
            problems.append("g(0) != 0")
        if np.any(np.diff(Gv) < 0.0):
            problems.append("values not nondecreasing")
        if not convex_samples(grid, Gv):
            problems.append("second divided differences negative (non-convex)")
        if np.any(np.diff(gv) < -1e-12 * np.maximum(1.0, np.abs(gv[1:]))):
            problems.append("derivative not nondecreasing")
        if np.any(gpv < -1e-12 * np.maximum(1.0, np.abs(gv / grid))):
            problems.append("second derivative negative on samples")
        ratio = grid * gv / Gv
        slack = 1e-8
        if np.any(ratio < self.p_minus * (1.0 - slack) - slack):
            problems.append("t*g/G drops below p_minus")
        if np.any(ratio > self.p_plus * (1.0 + slack) + slack):
            problems.append("t*g/G exceeds p_plus")
        doubling = self(2.0 * grid) - self.delta2_constant * Gv
        if np.any(doubling > 1e-9 * self.delta2_constant * Gv):
            problems.append("doubling condition violated")
        return problems


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _power(x, k: float, out):
    """x**k into out (None: a fresh array), by products for k = 2 and 3.

    x * x has the bits of numpy's square; x * x * x is within 1 ulp of the
    cube and about three times cheaper than the general power.  out may be
    x itself (a cube in place takes the general power).
    """
    if k not in (2.0, 3.0) or (k == 3.0 and out is x):
        return np.power(x, k, out=out)
    out = np.multiply(x, x, out=out)
    if k == 3.0:
        out *= x
    return out


def _buffers(shape, out):
    """The pair_terms buffers: those of out, fresh arrays of shape for a None."""
    return [np.empty(shape) if buf is None else buf for buf in out]


def power_nfunction(p: float) -> NFunction:
    """G(t) = t**p / p for p >= 2 (the fractional p-Laplacian case).

    pair_terms takes t >= 0 and keeps NaN; it does not clamp a negative t
    (every caller passes |u| or a difference quotient), as a clamp would
    cost one more pass over each pair-pass slab.
    """
    p = float(p)
    if p < 2.0:
        raise InvalidNFunctionError(f"power family needs p >= 2, got {p}")

    def pair_terms(t, out):
        # G = t g / p from the one power g = t**(p - 1): within a few ulp of
        # t**p / p, and the same bits at p = 2
        G, g = out
        g = _power(t, p - 1.0, g)
        G = np.multiply(t, g, out=G)
        G /= p
        return G, g

    return NFunction(
        family="power", params=(p,),
        pair_terms=pair_terms,
        deriv2_fn=lambda t: (p - 1.0) * t ** (p - 2.0),
        p_minus=p, p_plus=p,
        tail_primitive_fn=lambda x: x ** p / p ** 2,
        label=f"power(p={p:g})",
    )


def power_sum_nfunction(p: float, q: float) -> NFunction:
    """G(t) = t**p / p + t**q / q with 2 <= p <= q (the (p,q) operator).

    G and g are +0 at finite t <= 0 and NaN at NaN.
    """
    p, q = float(p), float(q)
    if not (2.0 <= p <= q):
        raise InvalidNFunctionError(f"power-sum family needs 2 <= p <= q, got ({p}, {q})")
    weight = q / p - 1.0

    def pair_terms(t, out):
        # c = max(t, 0), a = c**(p - 1), b = c**(q - 1): g = a + b and
        # G = t ((q/p - 1) a + g) / q = t a / p + t b / q, clamped at +0
        a, b = _buffers(t.shape, out)
        np.maximum(t, 0.0, out=a)
        _power(a, q - 1.0, b)
        _power(a, p - 1.0, a)
        g = np.add(b, a, out=b)
        a *= weight
        a += g
        a *= t
        a /= q
        return np.maximum(a, 0.0, out=a), g

    return NFunction(
        family="powersum", params=(p, q),
        pair_terms=pair_terms,
        deriv2_fn=lambda t: (p - 1.0) * t ** (p - 2.0) + (q - 1.0) * t ** (q - 2.0),
        p_minus=p, p_plus=q,
        tail_primitive_fn=lambda x: x ** p / p ** 2 + x ** q / q ** 2,
        label=f"powersum(p={p:g},q={q:g})",
    )


def power_log_nfunction(p: float) -> NFunction:
    """G(t) = t**p (|ln t| + 1) / p for p >= 2, exactly as printed.

    The absolute value kinks at t = 1: the derivative is obtained by
    symbolic differentiation split there, and its value at t = 1 is the
    right limit.  The derivative jumps upward across the kink, so G stays
    convex, but the pointwise ratio t g'(t)/g(t) dips to p(p-2)/(p-1) just
    left of the kink while t g(t)/G(t) climbs to p + 1 just right of it.
    The recorded indices are the closed-form envelope of both ratios, which
    is what the scaling and conjugate-sandwich inequalities actually need.
    G, its derivatives and its tail primitive are +0 at finite t <= 0 (for
    p = 2, g is its value at the smallest normal float, below 2e-305) and
    NaN at NaN.
    """
    p = float(p)
    if p < 2.0:
        raise InvalidNFunctionError(f"power-log family needs p >= 2, got {p}")
    c_lo = 1.0 - 1.0 / p
    c_hi = 1.0 + 1.0 / p
    tiny = np.finfo(float).tiny

    def pair_terms(t, out):
        # c = max(t, tiny), L = ln c, a = c**(p - 1) and w = (|L| + 1) a:
        # G = w t / p clamped at +0, g = w + copysign(a, L) / p (so t = 1,
        # where L = +0, takes c_hi); the sign of L rides on a
        G, a = _buffers(t.shape, out)
        np.maximum(t, tiny, out=G)
        _power(G, p - 1.0, a)
        L = np.log(G, out=G)
        np.copysign(a, L, out=a)
        w = np.abs(L, out=G)
        w += 1.0
        w *= a
        np.abs(w, out=w)
        a /= p
        a += w
        w *= t
        w /= p
        return np.maximum(w, 0.0, out=w), a

    def gprime(t):
        t = _as_array(t)
        safe = np.where(t <= 0, 1.0, t)
        lo = safe ** (p - 2.0) * ((p - 1.0) * (c_lo - np.log(safe)) - 1.0)
        hi = safe ** (p - 2.0) * ((p - 1.0) * (np.log(safe) + c_hi) + 1.0)
        return np.where(t <= 0, 0.0, np.where(t < 1.0, lo, hi))

    lam1 = c_hi / p ** 2  # cumulative of G(r)/r up to 1

    def tail_primitive(x):
        x = _as_array(x)
        safe = np.where(x <= 0, 1.0, x)
        lo = safe ** p * (c_hi - np.log(safe)) / p ** 2
        xp = safe ** p
        hi = lam1 + (xp * np.log(safe) / p + (xp - 1.0) * (1.0 / p - 1.0 / p ** 2)) / p
        return np.where(x <= 0, 0.0, np.where(x <= 1.0, lo, hi))

    p_minus = p * (p - 2.0) / (p - 1.0)
    notes = []
    if p_minus <= 2.0:
        notes.append(
            f"lower growth index {p_minus:g} <= 2: outside the strict index "
            "bound; admitted with degraded guarantees")
    if p == 2.0:
        notes.append("derivative decreases on (exp(-1/2), 1): not convex there")
    return NFunction(
        family="powerlog", params=(p,),
        pair_terms=pair_terms, deriv2_fn=gprime,
        p_minus=p_minus, p_plus=p + 1.0,
        breakpoints=(1.0,),
        warnings=tuple(notes),
        tail_primitive_fn=tail_primitive,
        label=f"powerlog(p={p:g})",
    )


def tabulated_nfunction(abscissa, values, label: str = "tabulated") -> NFunction:
    """N-function from a two-column table (t, G(t)) with strictly increasing t.

    The derivative comes from the log-log interpolant; non-convex input is
    rejected.  Indices are taken from the derivative-ratio extrema on the
    trusted domain, widened by the value-ratio extrema so the scaling
    inequalities hold with the recorded constants.
    """
    abscissa = _as_array(abscissa)
    values = _as_array(values)
    if abscissa.ndim != 1 or abscissa.shape != values.shape:
        raise InvalidNFunctionError("tabulated input must be two equal 1-d columns")
    table = LogLogTable(abscissa, values)
    t = table.abscissa
    if not convex_samples(t, table.values):
        raise InvalidNFunctionError("tabulated data is not convex")

    def pair_terms(t, out):
        # G = v and g = (v / t) sigma, sigma the log slope, from one lookup
        G, g = _buffers(t.shape, out)
        lt = table._horner(t, G, g, keep_log=True)
        np.subtract(G, lt, out=lt)
        with np.errstate(over="ignore"):
            g *= np.exp(lt, out=lt)
            return np.exp(G, out=G), g

    def deriv2(x):
        # the interpolant's own second derivative, (v / x^2)(sigma^2 - sigma
        # + sigma'), sigma' = d sigma / d log x, from one lookup: at 0 and inf
        # it is the power-law extension's limit
        log_v, sigma, curvature = (np.empty(x.shape) for _ in range(3))
        lx = table._horner(x, log_v, sigma, curvature, keep_log=True)
        with np.errstate(over="ignore"):
            return np.exp(log_v - 2.0 * lx) * (sigma * (sigma - 1.0) + curvature)

    # cumulative of G(r)/r: head from the local power fit, then per-segment
    # Gauss-Legendre in the log variable
    integrand = lambda r: table(r) / r
    head = table(t[0]) / max(table.slope(t[0]), 1e-6)
    cumulative = head + np.concatenate([[0.0], np.cumsum(gauss_log_segments(integrand, t))])
    tail_table = LogLogTable(t, cumulative)

    grid = log_grid(np.log10(t[0]), np.log10(t[-1]), 1024)
    slope = table.slope(grid)                    # = t g / G
    curve = grid * deriv2(grid) / table.derivative(grid)
    p_minus = float(min(slope.min(), 1.0 + curve.min()))
    p_plus = float(max(slope.max(), 1.0 + curve.max()))
    return NFunction(
        family="tabulated", params=(),
        pair_terms=pair_terms, deriv2_fn=deriv2,
        p_minus=p_minus, p_plus=p_plus,
        eval_domain=(float(t[0]), float(t[-1])),
        tail_primitive_fn=tail_table,
        label=label,
    )


FAMILY_BUILDERS = {
    "power": lambda params: power_nfunction(params["p"]),
    "powerlog": lambda params: power_log_nfunction(params["p"]),
    "powersum": lambda params: power_sum_nfunction(params["p"], params["q"]),
}


def construct_nfunction(family: str, **params) -> NFunction:
    """Build a named family; the config front end routes through here."""
    family = family.lower()
    if family == "tabulated":
        return tabulated_nfunction(params["abscissa"], params["values"],
                                   params.get("label", "tabulated"))
    if family not in FAMILY_BUILDERS:
        raise InvalidNFunctionError(f"unknown N-function family {family!r}")
    return FAMILY_BUILDERS[family](params)


# ---------------------------------------------------------------------------
# Growth indices
# ---------------------------------------------------------------------------

def estimate_indices(nf: NFunction, grid: Optional[np.ndarray] = None) -> tuple:
    """Estimate (p_minus, p_plus) as 1 + inf/sup of t g'(t)/g(t) on a grid.

    The grid (INDEX_GRID by default) must span at least 12 decades.

    For smooth analytic families this reproduces the closed-form limits to
    about 1e-6 relative.  Families whose derivative jumps (the power-log
    family at t = 1) carry wider closed-form indices on the object itself;
    this estimator still reports the raw derivative-ratio extrema.
    """
    if grid is None:
        grid = INDEX_GRID
    span = np.log10(grid[-1] / grid[0])
    if span < 12.0:
        raise ValueError(f"index grid must span >= 12 decades, got {span:.1f}")
    g = nf.deriv(grid)
    gp = nf.deriv2(grid)
    if np.any(~np.isfinite(g)) or np.any(g <= 0.0):
        raise InvalidNFunctionError("derivative vanishes or is non-finite at t > 0")
    ratio = grid * gp / g
    if np.any(~np.isfinite(ratio)):
        raise InvalidNFunctionError("index ratio non-finite on grid")
    return 1.0 + float(ratio.min()), 1.0 + float(ratio.max())


# ---------------------------------------------------------------------------
# Derived functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedNFunction:
    """A function derived from an N-function, stored as a monotone table.

    Evaluation takes one path: `evaluate` when it is set (a refinement
    seeded from the table), the table (PCHIP in log-log) otherwise.
    """

    table: LogLogTable
    label: str
    inverse_table: Optional[LogLogTable] = None
    evaluate: Optional[Callable] = None

    def __call__(self, t):
        return self.table(t) if self.evaluate is None else self.evaluate(t)

    def deriv(self, t):
        return self.table.derivative(t)

    def inverse(self, v):
        if self.inverse_table is not None:
            return self.inverse_table(v)
        return solve_increasing(self.table.level_terms, v)

    def level_terms(self, t):
        """(F(t), t F'(t)) for an array t, as NFunction.level_terms gives them."""
        return self(t), t * self.deriv(t)

    @property
    def name(self):
        return self.label


def _increasing_knots(abscissa: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the knots that rise strictly in both coordinates, for sorted abscissae.

    Numerically differentiated bases can wiggle.  A knot is kept when its
    value is positive and above every earlier value (NaN values aside) and
    its abscissa is above the one before it.  Where no two abscissae tie,
    these are the knots a greedy scan keeps when it takes each knot above
    the last one kept in both coordinates; of tied abscissae, only the
    first can be kept.
    """
    earlier = np.fmax.accumulate(np.concatenate([[-np.inf], values[:-1]]))
    rises = abscissa > np.concatenate([[-np.inf], abscissa[:-1]])
    return rises & (values > earlier) & (values > 0.0)


@functools.lru_cache(maxsize=1)
def complementary(nf) -> DerivedNFunction:
    """The complementary function sup_tau (t*tau - G(tau)), seeded by its table.

    The supremum at level t is attained at the maximizer tau where the
    derivative g crosses t.  The table is parametrized by a tau-grid of the
    base (abscissa g(tau), value t*tau - G(tau)), which places every knot
    exactly on the conjugate and spans the full image of g; its slope at t
    is the maximizer.  Evaluation reads that slope, refines it by two
    Newton steps on g(tau) = t when the base is an NFunction (which has a
    second derivative), and returns the Fenchel value t*tau - G(tau).  By
    Fenchel-Young that value never exceeds the conjugate, and its error is
    quadratic in the error of tau.  A derivative jump of the base maps to
    an affine stretch of the conjugate; that stretch is filled with exact
    knots so interpolation stays accurate across it, and the breakpoints
    enter the evaluation as candidate maximizers.
    The last build is kept (one entry: the verify sweeps of one family
    share it), so the result is shared and must not be changed.
    """
    breaks = tuple(getattr(nf, "breakpoints", ()))
    grid = log_grid(*TABLE_LOG10_RANGE, TABLE_KNOTS, breaks)
    abscissa = nf.deriv(grid)
    values = abscissa * grid - nf(grid)
    splits = []
    for b in breaks:
        lo, hi = nf.deriv(b * (1.0 - 1e-9)), nf.deriv(b)
        splits += [lo, hi]
        # fill the affine stretch of the conjugate across the derivative jump
        if hi > lo > 0.0:
            span = np.logspace(np.log10(lo), np.log10(hi), 65)[1:-1]
            abscissa = np.concatenate([abscissa, span])
            values = np.concatenate([values, span * b - nf(b)])
    order = np.argsort(abscissa)
    abscissa, values = abscissa[order], values[order]
    keep = _increasing_knots(abscissa, values)
    table = LogLogTable(abscissa[keep], values[keep], split_at=splits)
    refine = isinstance(nf, NFunction)

    def evaluate(t):
        t = _as_array(t)
        tau = table.derivative(t)   # 0 at t = 0, so the value is 0 there; rejects t < 0
        if refine:
            tau = _newton_refine(nf.deriv, nf.deriv2, tau, t)
        level = nf(tau)
        with np.errstate(invalid="ignore"):   # inf - inf where t = tau = inf
            val = np.where(np.isinf(tau), tau, t * tau - level)
        for b in breaks:
            val = np.maximum(val, t * b - nf(b))
        return _float_if_0d(val)

    return DerivedNFunction(table=table, label=f"conjugate[{nf.name}]", evaluate=evaluate)


def inverse_nfunction(nf: NFunction) -> DerivedNFunction:
    """Inverse of nf: the swapped value table, refined by Newton on nf(t) = tau.

    Its own inverse is the forward table of nf on the same grid, so the
    concave inverse table (log-log slope <= 1) never goes to the
    root-finder.
    """
    grid = log_grid(*TABLE_LOG10_RANGE, TABLE_KNOTS, nf.breakpoints)
    values = nf(grid)
    table = LogLogTable(values, grid, split_at=[nf(b) for b in nf.breakpoints])

    def evaluate(tau):
        return _float_if_0d(_newton_refine(nf, nf.deriv, table(tau), tau))

    return DerivedNFunction(table=table, label=f"inverse[{nf.name}]", evaluate=evaluate,
                            inverse_table=LogLogTable(grid, values, split_at=nf.breakpoints))


def sobolev_conjugate(nf: NFunction, s: float) -> DerivedNFunction:
    """Build the one-dimensional (N = 1) Sobolev conjugate from its inverse-side integral.

    The inverse of the conjugate at t is the integral from 0 to t of
    G^{-1}(tau) * tau^{-(1+s)}, tabulated on 1200 log-spaced knots
    over [1e-10, 1e10].  Construction is refused when the
    integrand is non-integrable at the origin (estimated local power <= -1)
    or when the matching divergence test at infinity fails (estimated power
    < -1), with a diagnostic naming the failing tail.
    """
    if not (0.0 < s < 1.0):
        raise ValueError("fractional order s must lie in (0, 1)")
    kappa = 1.0 + s
    ginv = nf.inverse

    def log_slope(tau_a, tau_b):
        return (np.log(ginv(tau_b)) - np.log(ginv(tau_a))) / np.log(tau_b / tau_a)

    head_power = log_slope(1e-9, 1e-8) - kappa
    if head_power <= -1.0 + 1e-12:
        raise SobolevConjugateError(
            f"integrand power near zero is {head_power:.4f} <= -1: "
            "the defining integral diverges at the origin", "origin")
    tail_power = log_slope(1e8, 1e9) - kappa
    if tail_power < -1.0 - 1e-12:
        raise SobolevConjugateError(
            f"integrand power at infinity is {tail_power:.4f} < -1: "
            "the required divergence at infinity is absent", "infinity")

    breaks = [nf(b) for b in nf.breakpoints]
    knots = log_grid(-10.0, 10.0, 1200, breaks)
    integrand = lambda tau: ginv(tau) * tau ** (-kappa)
    # head piece: integrand ~ C tau^a near zero, integrable since a > -1
    a = log_slope(knots[0] * 1e-2, knots[0]) - kappa
    head = integrand(knots[0]) * knots[0] / (a + 1.0)
    cumulative = head + np.concatenate([[0.0], np.cumsum(gauss_log_segments(integrand, knots))])

    inverse_side = LogLogTable(knots, cumulative)   # this is (G_*)^{-1}
    forward = LogLogTable(cumulative, knots)        # G_* itself
    return DerivedNFunction(
        table=forward, inverse_table=inverse_side,
        label=f"sobolev_conjugate[{nf.name}; s={s:g}, N=1]",
    )


def compose_power(gstar: DerivedNFunction, exponent: float) -> DerivedNFunction:
    """Table of t -> gstar(t**exponent) for positive exponents, on 2048 knots.

    These compositions measure the coefficient data of the singular
    problem: exponent 1/(beta+1) <= 1 for the reaction weight and
    1/(1-alpha) >= 1 (alpha < 1 only) for the singular weight.
    """
    if not exponent > 0.0:
        raise ValueError(f"composition exponent must be positive, got {exponent}")
    grid = log_grid(*TABLE_LOG10_RANGE, 2048)
    return DerivedNFunction(
        table=LogLogTable(grid, gstar(grid ** exponent)),
        label=f"compose[{gstar.name}; e={exponent:g}]",
    )


def reaction_weight_nfunction(gstar: DerivedNFunction, beta: float) -> DerivedNFunction:
    """N-function measuring the reaction coefficient: gstar(t**(1/(beta+1)))."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    return compose_power(gstar, 1.0 / (beta + 1.0))


def singular_weight_nfunction(gstar: DerivedNFunction, alpha: float) -> DerivedNFunction:
    """N-function measuring the singular coefficient for alpha < 1."""
    if alpha >= 1.0:
        raise ValueError("singular-weight composition is defined for alpha < 1 only")
    return compose_power(gstar, 1.0 / (1.0 - alpha))


def essentially_faster(H, G, t_max: float = 1e8) -> bool:
    """True when H(k t) / G(t) decays toward zero along the top decades.

    Decision rule: for every k in (0.5, 1, 2, 10) the ratio at t_max must be below
    1e-3 times the ratio four decades earlier.  (A two-decade window cannot
    separate a single power of decay from none at the 1e-3 threshold, so
    the window is widened; borderline growth gaps stay conservatively
    False.)  Inconclusive growth returns False with a debug diagnostic.
    """
    if t_max < 1e8:
        raise ValueError("comparison needs t_max >= 1e8")
    for k in (0.5, 1.0, 2.0, 10.0):
        r_far = H(k * t_max) / G(t_max)
        r_near = H(k * t_max / 1e4) / G(t_max / 1e4)
        if not np.isfinite(r_far) or not np.isfinite(r_near):
            logger.debug("essentially_faster inconclusive: non-finite ratio at k=%g", k)
            return False
        if r_far >= 1e-3 * r_near:
            logger.debug("essentially_faster: ratio %g -> %g not decaying at k=%g",
                         r_near, r_far, k)
            return False
    return True
