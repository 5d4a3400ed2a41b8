"""Apply the lattice shift operator to test functions and cross-check.

For a fixed grid draw the operator takes f to

    sum_I gamma(|I|) <g_I, f> h_I(x)

over admitted cells I; only the cell containing x matters at each level,
and the pairing <g_I, f> vanishes whenever f is affine on I because the
generator g has zero mean and zero first moment.  Averaging over draws is
compared against the direct principal value, for odd K the integral

    PV int K(x - t) f(t) dt = int_0^inf K(s) [f(x - s) - f(x + s)] ds,

bounded where f is Lipschitz at x.  Where f jumps at x it diverges, and
`direct_pv` raises OperatorError naming the jump.

Pairings are exact: test functions are piecewise-constant or
piecewise-linear with rational knots, so Monte-Carlo noise is the only
stochastic error in the comparison.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dyadic
from .kernels import KernelSpec, kernel_value
from .piecewise import PiecewiseLinear, StepFunction, gauss_legendre, make_g, make_h
from .solver import CoefficientTable

__all__ = [
    "TestFunction",
    "indicator_function",
    "triangle_function",
    "apply_averaged",
    "direct_pv",
    "OperatorError",
]


class OperatorError(RuntimeError):
    """Raised for an operator input outside the hypotheses, such as a jump
    of f at x: `x`, and f's values `left` and `right` of it."""

    def __init__(self, message: str, x: float = None, left: float = None, right: float = None):
        super().__init__(message)
        self.x, self.left, self.right = x, left, right


@dataclass(frozen=True)
class TestFunction:
    """Bounded, compactly supported step or piecewise-linear function.

    The operator is applied to bounded f, so every value must be finite;
    a NaN or infinite value is rejected at construction.
    """

    # not a test case, despite the name pytest keys on
    __test__ = False

    base: StepFunction | PiecewiseLinear

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.base.values):
            raise ValueError(
                "test function values must be finite: the operator is applied "
                "to bounded f"
            )

    @property
    def knots(self) -> tuple:
        if isinstance(self.base, StepFunction):
            return self.base.breakpoints
        return self.base.knots

    @property
    def pieces(self) -> list[tuple[float, float, str]]:
        """f as a sum of pieces (k, J, "step") for J 1(t >= k) and (k, S,
        "ramp") for S (t - k)_+ over its knots k, the zero ones left out."""
        kn = [float(k) for k in self.knots]
        values = np.asarray(self.base.values, dtype=float)
        if isinstance(self.base, StepFunction):
            return [(k, j, "step") for k, j in zip(kn, np.diff([0.0, *values, 0.0])) if j]
        jumps = [values[0], *([0.0] * (len(kn) - 2)), -values[-1]]
        ramps = np.diff([0.0, *(np.diff(values) / np.diff(kn)), 0.0])
        return ([(k, j, "step") for k, j in zip(kn, jumps) if j]
                + [(k, r, "ramp") for k, r in zip(kn, ramps) if r])

    def __call__(self, t):
        return self.base(t)


def indicator_function() -> TestFunction:
    """The indicator of [0, 1]."""
    return TestFunction(StepFunction([0, 1], [1.0]))


def triangle_function() -> TestFunction:
    """The unit tent on [0, 2], peak 1 at 1."""
    return TestFunction(PiecewiseLinear([0, 1, 2], [0.0, 1.0, 0.0]))


# equal cells of omega in [1/2, 1] on which the level functions are read, their ends and midpoints
OMEGA_CELLS = 1 << 11
_OMEGA_FINE = 0.5 + np.arange(2 * OMEGA_CELLS + 1) / (4 * OMEGA_CELLS)
# equal cells of phi = 1 - sigma in [0, 1) on which a level with no knot nearer than
# |D| = SIGMA_READ_D is read, and the sigma at their ends
SIGMA_CELLS = 1 << 14
SIGMA_READ_D = 0.25
_SIGMA_NODES = 1.0 - np.arange(SIGMA_CELLS + 1) / SIGMA_CELLS
# h's quarter values, and h per cell of phi
H_VALUES = np.array(make_h().values)
_H_CELLS = np.repeat(H_VALUES, SIGMA_CELLS // 4)
_LN2 = math.log(2.0)
# G1(s) = integral_s^1 g = sum_p a_p (s - p/4)_+ and g(s) = -sum_p a_p 1(s >= p/4), p = 0 .. 4,
# a_p = g_(p-1) - g_p; per end of the cell they are read from (left, then right: reversed),
# the a_p with zeros past p = 4, and the sums over p <= f of a_p (p - f)^k, k = 0, 1, 2,
# per block f = 0 .. 4
_G1_STEPS = -np.diff([0.0, *make_g().values, 0.0])
_G1_WEIGHTS = [np.append(a, [0.0, 0.0, 0.0]) for a in (_G1_STEPS, _G1_STEPS[::-1])]
_LAG = np.subtract.outer(np.arange(5.0), np.arange(5.0))
_BLOCK_SUMS = [np.stack([((_LAG >= 0) * (-_LAG) ** k) @ a for k in range(3)])
               for a in (_G1_STEPS, _G1_STEPS[::-1])]


def _level_moments(table: CoefficientTable, levels: set, kinds: set) -> dict:
    """Per level n of `levels`: for the piece `kinds` present, the reads
    (`_cells`) of Y0(w), the mean over u in [0, 1) of gamma(L) omega
    1(omega >= w) (masses), of Y1(w), of gamma(L) (omega - w)_+ (steps
    and ramps), and of YS(w), of gamma(L) L (omega - w)_+^2 (ramps),
    omega = 2^-u, L = 2^n / omega, None for the others; then the moments
    M_k, the means of gamma omega^k, k = 0, 1, -1, and the omega where
    the read of Y0 bends by more than its curvature: 1/2, 1 and the ends
    of the cells where Y0' = -c / ln 2 jumps.  From the table's exact
    antiderivatives of c, c e^-v and c e^v at v = ln L, a level at a
    time, so that no temporary outgrows a level."""
    ramps = "ramp" in kinds
    w = _OMEGA_FINE if ramps else _OMEGA_FINE[::2]
    log_w = np.log(w)
    ns = sorted(levels)
    v0 = np.array(ns, dtype=float) * _LN2
    c0, q0 = table.c_integral(v0), table.q_at(v0)
    p0 = table.p_at(v0) if ramps else None
    # the full moments, from omega = 1/2
    m0 = (table.c_integral(v0 + _LN2) - c0) / _LN2
    m1 = (q0 - table.q_at(v0 + _LN2) / 2.0) / _LN2
    moments = {}
    for i, n in enumerate(ns):
        v = v0[i] - log_w
        part1 = (q0[i] - w * table.q_at(v)) / _LN2
        y0 = _cells(part1, ramps) if "mass" in kinds else None
        y1, ys, mm1 = None, None, 0.0
        if kinds - {"mass"}:
            part0 = (table.c_integral(v) - c0[i]) / _LN2
            y1 = _cells(part1 - w * part0, ramps)
        if ramps:
            m = (table.p_at(v) / w - p0[i]) / _LN2
            ys, mm1 = _cells(np.ldexp(part1 - 2.0 * w * part0 + w * w * m, n), True), m[0]
        # the read's ends, and the ends of the read's cells that hold a jump of c
        jumps = np.exp(v0[i] - np.array([table.u_min, table.u_max]))
        jumps = np.floor((jumps[(jumps > 0.5) & (jumps < 1.0)] - 0.5) * 2 * OMEGA_CELLS)
        kinks = 0.5 + np.concatenate([[0, OMEGA_CELLS], jumps, jumps + 1]) / (2 * OMEGA_CELLS)
        moments[n] = y0, y1, ys, m0[i], m1[i], mm1, kinks
    return moments


def _cells(y: np.ndarray, midpoints: bool) -> tuple:
    """Values, rises and, given the `midpoints` between, the bends
    2 (y_j + y_(j+1) - 2 y_mid) of a quadratic read, per cell."""
    ends = y[::2] if midpoints else y
    rises = np.append(np.diff(ends), 0.0)
    if not midpoints:
        return ends, rises, None
    return ends, rises, np.append(2.0 * (ends[:-1] + ends[1:] - 2.0 * y[1::2]), 0.0)


def level_terms(table: CoefficientTable, pieces: list[tuple[float, float, str]],
                probes: Sequence[tuple[float, range]]) -> list[tuple[range, Callable]]:
    """The level-term function of the averaged operator on f = the sum of
    `pieces` at each probe (x, levels), as (levels, term) for
    `dyadic.accumulate_probes`; the probes share `_level_moments` over the
    levels any of them reads.  A piece (k, J, "step") is J 1(t >= k), (k,
    S, "ramp") is S (t - k)_+ and (k, P, "mass") is P delta(t - k): on a
    unit mass at y, the term is that of the two-point kernel sum K(x - y)."""
    kinds = {kind for _, _, kind in pieces}
    moments = _level_moments(table, set().union(*(lv for _, lv in probes)), kinds)
    return [(lv, _probe_term(pieces, moments, x, lv)) for x, lv in probes]


def _probe_term(pieces: list[tuple], moments: dict, x: float, levels: range) -> Callable:
    """Level-term function of the averaged operator at x for `levels`:
    term(n, sigma, None) is the mean over u = log2 r in [0, 1) of
    gamma(L) h_I(x) <g_I, f>, L = 2^(n + u), I the cell that holds x in the
    level-n lattice of shift sigma translated by -x, which leaves sigma
    uniform.  `pieces` are f's (knot, J, S or P, kind) (`level_terms`),
    `moments` `_level_moments` at `levels`.

    x = 0 then sits at phi = 1 - sigma in its cell, in h's quarter
    floor(4 phi) (sigma = 0 read as its limit from above), for every u.
    A knot at d = k - x lies at s = phi + D omega in the cell, D = d /
    2^n, omega = 2^-u, and h_I(x) <g_I, f> = H[q] sum (J G1(s) + S L
    G2(s) + P g(s) / L), G1(s) = integral_s^1 g = sum_p a_p (s - p/4)_+,
    G2(s) = integral_s^1 (t - s) g(t) dt = -sum_p (a_p / 2) (s - p/4)_+^2,
    g(s) = -sum_p a_p 1(s >= p/4), all zero off [0, 1] (g has zero mean
    and first moment), so a knot with |D| >= 2 never shares the cell.
    From the cell's right end (D < 0) rho = sigma replaces rho = phi, the
    a_p reverse, and G2's and g's signs flip (g is symmetric, so its
    reversed a_p are -a_p); with omega_p = (p/4 - rho) / |D| the knot's
    mean over u is

        sum_p a_p (J |D| Y1(omega_p) -+ S D^2 / 2 YS(omega_p) -+ P Y0(omega_p) / 2^n),

    Y0, Y1 and YS (`_level_moments`) zero for omega_p >= 1 and polynomial
    in omega_p below 1/2 (Y0 is M_1 there).  With y' = 4 rho + 2 |D| = f
    + z, omega_p = 1/2 + (p - f - z) / (4 |D|): the p <= f add up to a
    polynomial in z, and at most p = f + 1 and f + 2 lie inside, each one
    read of the level's table, weighted by block f; from f = 4 on the
    knot has left the cell.  No point takes a log or an exp2.  A step's
    and a mass's reads are linear; a ramp's are quadratic, through the
    cell's midpoint, to keep the second differences of f's ramps, all
    that is left where the cell is much longer than f.

    A level whose knots within |D| < 2 all lie at |D| >= SIGMA_READ_D is
    read instead from its sum at SIGMA_CELLS + 1 equally spaced phi,
    linearly between them, times H, constant on each cell of phi (phi = 1
    is a cell of its own).  On the indicator at probes -1, 0.25, 2 and 5,
    65% of the points land on such levels, and the table cuts the time
    of an apply call by about a fifth; it reads rows 0 to 2 of `mc`.  A
    mass's sum has kinks in sigma, where an omega_p crosses a kink of Y0
    (`_level_moments`), which a linear read would smooth into a
    bias that more draws do not shrink: the points in a cell that holds
    one are read directly.

    Bounds per point, before H's factor of at most 7, with C = sup |c| /
    ln 2, C1 = sup |c'| / ln 2, j the jumps of c where the table's tails
    leave its end samples, W = OMEGA_CELLS, P = SIGMA_CELLS, and per knot
    within |D| < 2 (at most two reads, |a_p| <= 2): |Y1''| <= 2 C puts a
    step's reads within |J D| C / (4 W^2); |YS'''| <= 8 C 2^n puts a
    ramp's within |S| D^2 2^n C / (36 sqrt(3) W^3); Y0' = -c / ln 2, so
    |Y0''| <= 2 C1, and with the kinks of j a mass's reads are within |P|
    2^-n (C1 / (4 W^2) + j / (2 W ln 2)).  The sigma table adds |J| C /
    (|D| P^2), |S| 2^n C / P^2 and, since a mass's sum is linear in sigma
    between the omega read's nodes, at most two per cell and read, |P|
    2^-n 2 C1 / (W |D| P).  Rounding adds 16 eps of a knot's
    terms, each up to 18 |J| sup |c|, 54 |S| 2^n sup |c| and 5 |P| 2^-n
    sup |c|: a ramp's terms are of order 2^n and cancel to a sum of
    order 2^-n where the cell is much longer than f, so at high levels
    that rounding is the larger.  Where all knots lie on one side of x
    and f has no mass, f's J add up to 0, and its S and S k too, so the
    knots' errors cancel to first (second) order in their spread w =
    (last knot - first) / 2^n; a linear read's error e, zero past the
    read's ends, has |e'| <= 8 W times its bound on |e|, and the reads
    and the table are also within 6 C (sum |J| w ((1 + 8 W) / (16 W^2) +
    2 / P) + sum |S| w^2 2^n (1.001 / W + 4 / P)): 0.12 / 2^n on the
    indicator on hilbert.
    """
    @functools.lru_cache(maxsize=1)
    def level(row: int) -> tuple[list[tuple], tuple | None]:
        """Per piece that can share x's cell at level row `row`: the slope and
        offset of y' - floor(2 |D|) in sigma, the step of omega_p in cells
        per unit of z, the polynomial's coefficients of z^0 up to its degree
        (2 for a ramp, 1 for a step, 0 for a mass), the reads' weights per
        block (indices past the end clip to zeros) and the level's reads;
        then the sigma table, or None: its values and rises per cell, NaN
        in a cell that holds a kink of a mass's sum, and whether any does.
        A worker runs its tasks in row order, so one row is kept at a time."""
        y0, y1, ys, m0, m1, mm1, y0_kinks = moments[levels[row]]
        knots, kinks, dense = [], [], True
        for k, scale, kind in pieces:
            d = math.ldexp(k - x, -levels[row])
            if not abs(d) < 2.0:
                continue
            dense &= abs(d) >= SIGMA_READ_D
            right, low = d < 0, math.floor(2.0 * abs(d))
            # alpha + beta t + gamma t^2, t = p - f - z, for the omega_p <= 1/2
            if kind == "ramp":
                big = math.ldexp(scale * (0.5 if right else -0.5), levels[row])
                abc = (big * d * d * (m1 - m0 + mm1 / 4),
                       big * abs(d) * (mm1 / 4 - m0 / 2), big * mm1 / 16)
                weight, reads = big * d * d / 2.0 ** levels[row], ys
            elif kind == "mass":
                weight = math.ldexp(scale if right else -scale, -levels[row])
                abc, reads = (weight * m1, 0.0, 0.0), y0
                # phi's cell coordinate where an omega_p crosses a kink of Y0
                rho = np.subtract.outer(np.arange(5.0) / 4.0, abs(d) * y0_kinks).ravel()
                kinks.append(SIGMA_CELLS * (1.0 - rho if right else rho))
            else:
                abc = (scale * abs(d) * (m1 - m0 / 2), -scale * m0 / 4, 0.0)
                weight, reads = scale * abs(d), y1
            e0, e1, e2 = _BLOCK_SUMS[right][:, low:]
            poly = (abc[0] * e0 + abc[1] * e1 + abc[2] * e2, -abc[1] * e0 - 2.0 * abc[2] * e1,
                    abc[2] * e0)[:{"ramp": 3, "step": 2, "mass": 1}[kind]]
            weights = [weight * _G1_WEIGHTS[right][low + 1 + r : 6 + r]
                       for r in range(1 if abs(d) <= 0.5 else 2)]
            frac = 2.0 * abs(d) - low
            knots.append((4.0 if right else -4.0, frac if right else 4.0 + frac,
                          OMEGA_CELLS / (2.0 * abs(d)), poly, weights, reads))
        if not dense:
            return knots, None
        sums = knot_sum(knots, _SIGMA_NODES)
        rises = np.append(np.diff(sums) * _H_CELLS, 0.0)
        # a cell that holds a kink of a mass's sum reads NaN
        rises[np.clip(np.concatenate([[], *kinks]), 0, SIGMA_CELLS).astype(int)] = np.nan
        return knots, (np.append(sums[:-1] * _H_CELLS, sums[-1] * _H_CELLS[-1]), rises, bool(kinks))

    def knot_sum(knots: list[tuple], sigma: np.ndarray) -> np.ndarray:
        """The sum over `knots` (`level`) at each sigma, before H."""
        shape = sigma.shape
        out = dyadic.scratch("vals", shape)
        out.fill(0.0)
        index = dyadic.scratch("index", shape, np.intp)
        block = dyadic.scratch("blocks", shape, np.intp)
        cell = dyadic.scratch("cell", shape)
        for slope, offset, step, poly, weights, (values, rises, bends) in knots:
            # y' - floor(2 |D|), its block and z
            z = np.multiply(sigma, slope, out=dyadic.scratch("z", shape))
            z += offset
            floor = np.floor(z, out=dyadic.scratch("floor", shape))
            z -= floor
            np.copyto(block, floor, casting="unsafe")
            # the polynomial, Horner in z
            acc = np.take(poly[-1], block, out=floor, mode="clip")
            for c in poly[-2::-1]:
                acc *= z
                acc += np.take(c, block, out=cell, mode="clip")
            out += acc
            # omega_(f+1)'s cell coordinate (1 - z) step, then omega_(f+2)'s
            pos = np.multiply(z, -step, out=z)
            pos += step
            for k, weight in enumerate(weights):
                if k:
                    pos += step
                at = np.minimum(pos, OMEGA_CELLS, out=acc)
                np.copyto(index, at, casting="unsafe")
                at -= index
                # the indices are in range: clip mode only skips the check
                read = np.take(rises, index, out=dyadic.scratch("read", shape), mode="clip")
                if bends is not None:
                    bent = np.take(bends, index, out=cell, mode="clip")
                    bent *= np.subtract(at, 1.0, out=dyadic.scratch("at1", shape))
                    read += bent
                read *= at
                read += np.take(values, index, out=at, mode="clip")
                read *= np.take(weight, block, out=at, mode="clip")
                out += read
        return out

    def direct(knots: list[tuple], sigma: np.ndarray) -> np.ndarray:
        """The sum over `knots` at each sigma, times H."""
        out = knot_sum(knots, sigma)
        # h's quarter floor(4 - 4 sigma), the last for sigma = 0
        quarter = np.multiply(sigma, -4.0, out=dyadic.scratch("z", sigma.shape))
        quarter += 4.0
        index = dyadic.scratch("index", sigma.shape, np.intp)
        np.copyto(index, quarter, casting="unsafe")
        out *= np.take(H_VALUES, index, out=quarter, mode="clip")
        return out

    def term(n: int, sigma: np.ndarray, _=None) -> np.ndarray:
        knots, cells = level(n - levels.start)
        if cells is None:
            return direct(knots, sigma)
        shape = sigma.shape
        index = dyadic.scratch("index", shape, np.intp)
        # phi's cell coordinate, in (0, SIGMA_CELLS]
        pos = np.multiply(sigma, -SIGMA_CELLS, out=dyadic.scratch("z", shape))
        pos += SIGMA_CELLS
        np.copyto(index, pos, casting="unsafe")
        pos -= index
        out = np.take(cells[1], index, out=dyadic.scratch("table", shape), mode="clip")
        out *= pos
        out += np.take(cells[0], index, out=pos, mode="clip")
        if cells[2]:
            kinked = np.flatnonzero(np.isnan(out, out=dyadic.scratch("kinked", shape, bool)))
            if kinked.size:
                out[kinked] = direct(knots, sigma[kinked])
        return out

    return term


def apply_averaged(
    table: CoefficientTable,
    f: TestFunction,
    xs: Sequence[float],
    num_samples: int,
    seed: int = 0,
    tol_tail: float = 1e-4,
    threads: int = 1,
) -> list[dyadic.Estimate]:
    """Average the operator over grid draws at each probe.

    The level floor adapts per probe: cells shorter than the distance from
    the probe to the nearest knot of f pair to zero (f is affine on them),
    so they are excluded a priori.  The ceiling comes from the requested
    tail tolerance.  Every probe is checked before the first draw, and one
    engine pass serves them all (`dyadic.accumulate_probes`).
    """
    gamma_sup = table.sup_norm()
    probes = []
    for x in map(float, xs):
        if not math.isfinite(x):
            raise ValueError(f"probe x = {x!r} is not finite")
        dist = min(abs(x - float(k)) for k in f.knots)
        if not dyadic.MIN_DISTANCE <= dist < dyadic.MAX_DISTANCE:
            raise ValueError(
                f"probe x = {x!r} is {dist:g} from a knot of f, outside [2^-40, 2^1022): "
                "the level range is unbounded there, or its cells overflow"
            )
        probes.append((x, dyadic.levels_for_distance(dist, gamma_sup, tol_tail)))
    tallies = dyadic.accumulate_probes(seed, num_samples, level_terms(table, f.pieces, probes),
                                       threads=threads)
    return [
        dyadic.estimate(x, lv, t, gamma_sup, num_samples, seed)
        for (x, lv), t in zip(probes, tallies)
    ]


def direct_pv(spec: KernelSpec, f: TestFunction, x: float) -> float:
    """The principal value at x, as the integral over s > 0 above.

    Panels end at 0, at each distance from x to a knot of f (the integrand
    is 0 past the largest, d_max) and at d_min 2^j from j = -52 to d_max,
    not below 2^-1000 nor within a relative 2^-40 of a knot's distance: f
    is polynomial on both sides of a panel, and [a, 2a] resolves K, which
    x^3 K'' bounded lets vary only on the scale of s.  10-node
    Gauss-Legendre on every panel, one call of K and of f per side for all
    nodes, math.fsum over the panel sums.  OperatorError where
    f jumps at x; ValueError for x non-finite or within 2^-1000 of a knot.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"need a finite x, got {x!r}")
    # f's limits at its knots, from the left [0] + lo and from the right hi + [0]
    v = list(f.base.values)
    lo, hi = (v, v) if isinstance(f.base, StepFunction) else (v[1:], v[:-1])
    for k, left, right in zip(f.knots, [0.0] + lo, hi + [0.0]):
        if float(k) == x and left != right:
            raise OperatorError(f"f jumps from {left:g} to {right:g} at x = {x!r}: the PV diverges",
                                x, left, right)
    dists = sorted({abs(x - float(k)) for k in f.knots} - {0.0})
    if dists[0] < 2.0**-1000:
        raise ValueError(f"x = {x!r} is within 2^-1000 of a knot of f, where 1/s overflows")
    edges = {0.0, *dists}
    d = max(dists[0] * 2.0**-52, 2.0**-1000)
    while d < dists[-1]:
        # so close an edge leaves a panel whose nodes round onto the knot,
        # where f and its mirror image read different sides
        if all(abs(d - k) > d * 2.0**-40 for k in dists):
            edges.add(d)
        d *= 2.0
    cuts = np.array(sorted(edges))
    half = 0.5 * np.diff(cuts)
    nodes, weights = gauss_legendre(10)
    s = (cuts[:-1] + half)[:, None] + half[:, None] * nodes
    vals = kernel_value(spec, s) * (f(x - s) - f(x + s))
    return math.fsum((half * (vals @ weights)).tolist())
