"""The guarantee constants (one half, one quarter, the join floor and the
default reduction amounts), the bounds at a sampler mix (``coin_bounds``,
``eal_bounds``) and the reduction-parameter optimization.

The constants and bounds live here only; this module imports no other htsp
module but the errors, so every module can read them.

The expected net decrease of every edge class, after charging, is a linear
form in the reduction amounts (tau, gamma, beta) with coefficients built
from the flattened even-at-last rates.  For a fixed sampler mix the best
amounts solve a tiny linear program: maximize the minimum form subject to
the ordering and cap constraints.  The mix itself is then line-searched.

The program is solved exactly by enumerating constraint-intersection
vertices; no LP library involved.  Every coefficient is affine in the mix,
so at lam = n/d all constraint rows are integers over one common factor.
A float screen solves all C(17, 4) bases at once in closed form: each 4x4
determinant and Cramer numerator is a bilinear form in the 2x2 minors of
the basis's first and last two rows.  Floats only pick the near-optimal
bases; each of those is re-solved on the integer rows from its cofactor
matrix and certified by integer inequalities, and the largest exact delta
wins, the first basis in ``itertools.combinations`` order on a tie.  The
optimal face is an edge, not a vertex, at every mix checked, so that
tie-break fixes the reported amounts.

The mix search needs only the optimal delta, which LP duality certifies
on one basis: its vertex is feasible and its dual multipliers, the last
column of its cofactor matrix over its determinant, are nonnegative.  The
LP has few distinct optimal bases over the mix range, so the search tries
the bases it has already certified first, in integers, and screens only
where none of them is optimal; the reported solution still comes from the
screen at the final mix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import LpFailure

#: guaranteed even-at-last lower bounds per sampler route, by coin kind
EAL_BOUNDS = {
    "mi": {
        "special": Fraction(1, 36),
        "half-special": Fraction(1, 21),
        "other": Fraction(1, 18),
    },
    "maxent": {
        "special": Fraction(128, 6561),
        "half-special": Fraction(4, 27),
        "other": Fraction(1, 12),
    },
}
#: guaranteed lower bounds for the correlation rows, by sampler route; the
#: both-degree-two row is the special edges' even-at-last bound
CORRELATION_BOUNDS = {
    "mi": {
        "adjacent-pair-both": Fraction(1, 9),
        "adjacent-pair-exactly-first": Fraction(1, 9),
        "full-star-two-of-four": Fraction(2, 21),
        "full-star-split-pairs": Fraction(4, 63),
        "interior-edge-both-degree-two": EAL_BOUNDS["mi"]["special"],
        "boundary-edge-one-odd": Fraction(1, 9),
    },
    "maxent": {
        "adjacent-pair-both": Fraction(1, 9),
        "adjacent-pair-exactly-first": Fraction(12, 72),
        "full-star-two-of-four": Fraction(8, 27),
        "full-star-split-pairs": Fraction(16, 81),
        "interior-edge-both-degree-two": EAL_BOUNDS["maxent"]["special"],
        "boundary-edge-one-odd": Fraction(5, 18),
    },
}
#: one half: the exact tree marginal of every edge (a cycle piece's pair
#: draws each of its edges with it), and an increase branch's trigger share
HALF = Fraction(1, 2)
#: the quarter mass: each edge's share of the perfect-matching
#: decomposition and its join value before reductions, and a decrease
#: branch's trigger share
QUARTER = Fraction(1, 4)
#: optimized share of max-entropy draws in the mixed sampler
DEFAULT_MIX_LAMBDA = Fraction(4715, 10000)
#: largest reduction amount any edge class may take
BETA_CAP = Fraction(1, 12)
#: the default reduction amounts: tau of a plain or special degree edge,
#: gamma of a K5 edge (a cycle edge takes beta, at ``BETA_CAP``)
DEFAULT_TAU = Fraction(23, 648)
DEFAULT_GAMMA = Fraction(13, 324)
#: the least join value an edge may keep after its reduction and charges
FLOOR = Fraction(1, 6)
#: guaranteed gap below one half of the expected fractional join cost / c(x)
EPSILON = 0.001695
#: guaranteed bound on the expected tree-plus-join cost / c(x)
TOUR_RATIO_BOUND = 1.4983
#: standard errors a sampled estimate may sit past its bound and pass
SIGMAS = 3
#: the parameter LP's float screen: a basis whose float determinant is at
#: most ``SCREEN_SINGULAR`` counts as singular, and one within ``SCREEN_NEAR``
#: of every row and of the best float delta is kept; they only pick
#: candidates, and an integer certificate decides each one
SCREEN_SINGULAR = 1e-12
SCREEN_NEAR = 1e-9
#: the max-entropy fit stops once every fitted marginal is within this
#: relative error of its target; an exact marginal row on a route the fit
#: enters passes within it of one half
FIT_TOLERANCE = 1e-6
#: the least variance a sampled row's standard error is computed from, so
#: that an estimate of 0 or 1 keeps a positive standard error
VARIANCE_FLOOR = 1e-12


def mixed_rates(lam: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Flattened reduction rates (p, p_special, p_half_special) at mix lam.

    The max-entropy route does not need a separate half-special bound.
    """
    lam = Fraction(lam)
    mi, me = EAL_BOUNDS["mi"], EAL_BOUNDS["maxent"]
    p = lam * me["other"] + (1 - lam) * mi["other"]
    p_sp = lam * me["special"] + (1 - lam) * mi["special"]
    p_hs = lam * me["other"] + (1 - lam) * mi["half-special"]
    return p, p_sp, p_hs


def coin_bounds(lam: Fraction) -> dict[str, Fraction]:
    """Each coin kind's flattened bound at mix lam: the rate a coin group's
    reduction is flattened to."""
    return dict(zip(("other", "special", "half-special"), mixed_rates(lam)))


def eal_bounds(sampler: str, lam: Fraction) -> dict[str, Fraction]:
    """Each coin kind's guaranteed even-at-last bound: the route's own
    table on ``mi`` and ``maxent``, the coin bound at mix lam on ``mix``."""
    return dict(EAL_BOUNDS[sampler]) if sampler in EAL_BOUNDS else coin_bounds(lam)


def decrease_forms(lam: Fraction) -> list[tuple[str, tuple[Fraction, Fraction, Fraction]]]:
    """Expected net decrease per worst-case charging pattern.

    Each entry is a linear form c_tau*tau + c_gamma*gamma + c_beta*beta.
    The third cycle case is dominated by the first but kept for
    completeness of the case list.
    """
    p, p_sp, p_hs = mixed_rates(lam)
    zero = Fraction(0)
    return [
        ("cycle/end-pair-sources", (zero, zero, p / 4)),
        ("cycle/one-external-source", (zero, -5 * p / 4, 3 * p / 4)),
        ("cycle/all-internal-cycle-parent", (zero, zero, p / 2)),
        ("cycle/all-internal-degree-parent", (-2 * p, zero, p)),
        ("nonspecial/plain-degree-sources", (p_hs - p / 2, zero, zero)),
        ("nonspecial/k5-sources", (p_hs, -p / 2, zero)),
        ("nonspecial/cycle-sources", (p_hs, zero, -p / 4)),
        ("special/never-charged", (p_sp, zero, zero)),
        ("k5/plain-degree-sources", (-p / 3, p, zero)),
        ("k5/k5-sources", (zero, 2 * p / 3, zero)),
        ("k5/cycle-sources", (zero, p, -p / 3)),
    ]


@dataclass(frozen=True)
class LpSolution:
    lam: Fraction
    tau: Fraction
    gamma: Fraction
    beta: Fraction
    delta: Fraction
    binding: tuple[str, ...]

    @property
    def epsilon(self) -> Fraction:
        return 2 * self.delta

    def as_floats(self) -> dict[str, float]:
        return {
            "lambda": float(self.lam),
            "tau": float(self.tau),
            "gamma": float(self.gamma),
            "beta": float(self.beta),
            "delta": float(self.delta),
            "epsilon": float(self.epsilon),
        }


def _constraints(lam: Fraction) -> list[tuple[str, tuple[Fraction, ...], Fraction]]:
    """All LP constraints as a*x <= b over x = (tau, gamma, beta, delta)."""
    cons: list[tuple[str, tuple[Fraction, ...], Fraction]] = []
    zero, one = Fraction(0), Fraction(1)
    for name, (ct, cg, cb) in decrease_forms(lam):
        cons.append((f"form:{name}", (-ct, -cg, -cb, one), zero))
    cons.append(("tau>=0", (-one, zero, zero, zero), zero))
    cons.append(("tau<=gamma", (one, -one, zero, zero), zero))
    cons.append(("gamma<=beta", (zero, one, -one, zero), zero))
    cons.append(("beta<=cap", (zero, zero, one, zero), BETA_CAP))
    cons.append(("beta>=2tau", (2 * one, zero, -one, zero), zero))
    cons.append(("beta>=2gamma", (zero, 2 * one, -one, zero), zero))
    return cons


@functools.cache
def _bases(n_constraints: int) -> np.ndarray:
    """Every choice of four constraints, one row per candidate vertex."""
    combos = np.array(list(itertools.combinations(range(n_constraints), 4)))
    combos.setflags(write=False)
    return combos


#: the ten column pairs of an augmented row (tau, gamma, beta, delta | b)
_PAIRS = list(itertools.combinations(range(5), 2))
_C0, _C1 = np.array(_PAIRS).T


def _laplace_table() -> np.ndarray:
    """The five 4x4 minors of a basis's augmented rows [A | b] as bilinear
    forms in the 2x2 minors of rows (0, 1) and (2, 3): output j is
    top . table[j] . bot.

    Output j < 4 is the Cramer numerator of x_j, output 4 is det A.
    """
    table = np.zeros((5, len(_PAIRS), len(_PAIRS)))
    for j in range(5):
        cols = [c for c in range(5) if c != j]
        # b sits last among ``cols``; Cramer's matrix has it in column j
        flip = 1 if j == 4 else (-1) ** (3 - j)
        for p, q in itertools.combinations(range(4), 2):
            r, s = (c for c in range(4) if c not in (p, q))
            top = _PAIRS.index((cols[p], cols[q]))
            bot = _PAIRS.index((cols[r], cols[s]))
            table[j, top, bot] = flip * (-1) ** (p + q + 1)
    return table


_LAPLACE = _laplace_table()


def _minors(ri: np.ndarray, rk: np.ndarray) -> np.ndarray:
    """2x2 minors of augmented row pairs over the ten column pairs."""
    return ri[..., _C0] * rk[..., _C1] - ri[..., _C1] * rk[..., _C0]


@functools.cache
def _basis_pairs(n_constraints: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row pairs that open and that close a basis, and each basis's
    flat position in the (opening x closing) grid."""
    combos = _bases(n_constraints)
    top, ti = np.unique(combos[:, :2], axis=0, return_inverse=True)
    bot, bi = np.unique(combos[:, 2:], axis=0, return_inverse=True)
    flat = ti.reshape(-1) * len(bot) + bi.reshape(-1)
    for t in (top, bot, flat):
        t.setflags(write=False)
    return top, bot, flat


@functools.cache
def _affine_rows() -> tuple[tuple[str, ...], np.ndarray, np.ndarray, int]:
    """Constraint names, and the augmented rows as u + lam*v over one
    common denominator q, with u and v integer (object) arrays.

    Every coefficient is affine in the mix, so at lam = n/d the rows are
    the integers u*d + v*n over the positive factor q*d.
    """
    at0, at1 = _constraints(Fraction(0)), _constraints(Fraction(1))
    u = [[*coefs, b] for _, coefs, b in at0]
    v = [[y - x for x, y in zip(r0, [*coefs, b])] for r0, (_, coefs, b) in zip(u, at1)]
    q = math.lcm(*(f.denominator for row in u + v for f in row))
    ints = [np.array([[int(f * q) for f in row] for row in t], dtype=object) for t in (u, v)]
    for t in ints:
        t.setflags(write=False)
    return tuple(name for name, _, _ in at0), ints[0], ints[1], q


def _integer_rows(lam: Fraction) -> np.ndarray:
    """The augmented rows at mix lam as integers (object array), over the
    positive factor q * lam.denominator."""
    _, u, v, _ = _affine_rows()
    return u * lam.denominator + v * lam.numerator


def _screen(lam: Fraction, rows: np.ndarray) -> list[list[int]]:
    """The bases the float screen keeps at mix lam, in
    ``itertools.combinations`` order: every basis of four constraints is
    solved by Cramer's rule, each 4x4 determinant expanded from the 2x2
    minors of its row pairs, and the feasible ones within ``SCREEN_NEAR``
    of the best float delta are kept."""
    names, _, _, q = _affine_rows()
    m = len(names)
    # int / int divides correctly rounded: the floats of the Fraction rows
    aug = (rows / (q * lam.denominator)).astype(float)

    # every basis's Cramer numerators and det A, read off one grid of
    # bilinear forms between the minors of opening and closing row pairs
    top, bot, flat = _basis_pairs(m)
    grid = (_minors(aug[top[:, 0]], aug[top[:, 1]]) @ _LAPLACE) @ \
        _minors(aug[bot[:, 0]], aug[bot[:, 1]]).T
    grid = grid.reshape(5, -1)[:, flat]
    good = np.flatnonzero(np.abs(grid[4]) > SCREEN_SINGULAR)
    xs = grid[:4, good] / grid[4, good]
    feas = (aug[:, :4] @ xs - aug[:, 4:]).max(axis=0) <= SCREEN_NEAR
    if not feas.any():
        raise LpFailure(f"feasible region is empty at lambda {lam}")
    deltas = xs[3, feas]
    return _bases(m)[good[feas][deltas >= deltas.max() - SCREEN_NEAR]].tolist()


#: each row index with the other three, in order
_OTHERS = [[k for k in range(4) if k != i] for i in range(4)]


def _vertex(rows: list[list[int]],
            basis: list[int]) -> Optional[tuple[list[int], int, list[int]]]:
    """A basis's vertex as integer numerators N over its determinant D made
    positive, with D times each of its rows' dual multipliers for
    "maximize delta"; None if the basis is singular.

    With C the cofactor matrix of the basis rows A, N = C^T b and the
    multipliers y = C[:, 3] / D solve y A = (0, 0, 0, 1).
    """
    a = [rows[i] for i in basis]
    cof = [[0] * 4 for _ in range(4)]
    for i, (r0, r1, r2) in enumerate([[a[k] for k in ks] for ks in _OTHERS]):
        for j, (c0, c1, c2) in enumerate(_OTHERS):
            det = (r0[c0] * (r1[c1] * r2[c2] - r1[c2] * r2[c1])
                   - r0[c1] * (r1[c0] * r2[c2] - r1[c2] * r2[c0])
                   + r0[c2] * (r1[c0] * r2[c1] - r1[c1] * r2[c0]))
            cof[i][j] = -det if (i + j) % 2 else det
    den = sum(x * c for x, c in zip(a[0], cof[0]))
    if den == 0:
        return None
    sign = 1 if den > 0 else -1
    num = [sign * sum(c[j] * r[4] for c, r in zip(cof, a)) for j in range(4)]
    return num, sign * den, [sign * c[3] for c in cof]


def _slacks(rows: list[list[int]], num: list[int], den: int) -> list[int]:
    """A N - b D on every row: the vertex N / D is feasible when none is
    positive, and a row binds where it is zero."""
    t, g, b, d = num
    return [r[0] * t + r[1] * g + r[2] * b + r[3] * d - r[4] * den for r in rows]


def _certify(rows: list[list[int]], basis: list[int]) -> Optional[Fraction]:
    """The optimal delta if ``basis`` is an optimal basis of the integer
    ``rows``, else None.  By LP duality it is when its vertex is feasible
    (primal) and its dual multipliers are all nonnegative (dual)."""
    vertex = _vertex(rows, basis)
    if vertex is None:
        return None
    num, den, duals = vertex
    if min(duals) < 0 or max(_slacks(rows, num, den)) > 0:
        return None
    return Fraction(num[3], den)


def _optimal_delta(lam: Fraction, known: list[list[int]]) -> Fraction:
    """The optimal delta at mix lam, certified on an optimal basis: first
    the bases in ``known``, most recent first; when none is optimal here,
    the screen's bases in order, the first certified one joining ``known``;
    when none of those is either, ``solve_amounts``'s answer or failure.
    ``known`` belongs to one search, so no basis outlives it."""
    rows = _integer_rows(lam)
    ints = rows.tolist()
    for basis in reversed(known):
        delta = _certify(ints, basis)
        if delta is not None:
            return delta
    for basis in _screen(lam, rows):
        delta = _certify(ints, basis)
        if delta is not None:
            known.append(basis)
            return delta
    return solve_amounts(lam).delta


def solve_amounts(lam: Fraction) -> LpSolution:
    """Exact maximizer of the minimum decrease form at a fixed mix.

    Vertex enumeration with a float screen and an integer certificate.
    Each basis the screen keeps is re-solved on the integer-scaled rows
    (numerators N over the determinant D), certified by A N <= b D on
    every row, and its binding rows are the equalities.  Among the
    certified bases the one with the largest exact delta wins, the first
    in ``itertools.combinations`` order on a tie: at every mix checked the
    optimal face is an edge, whose two vertices can differ in gamma, so
    the tie-break fixes the reported amounts.  ``Fraction``s are built
    for the returned solution only.
    """
    lam = Fraction(lam)
    names = _affine_rows()[0]
    rows = _integer_rows(lam)
    ints = rows.tolist()
    best: Optional[tuple[list[int], int, list[int]]] = None
    for basis in _screen(lam, rows):
        vertex = _vertex(ints, basis)
        if vertex is None:
            continue
        num, den, _ = vertex
        slack = _slacks(ints, num, den)
        if max(slack) <= 0 and (best is None or num[3] * best[1] > best[0][3] * den):
            best = (num, den, slack)
    if best is None:
        raise LpFailure(f"float screening lost the optimum at lambda {lam}")
    num, den, slack = best
    tau, gamma, beta, delta = (Fraction(k, den) for k in num)
    binding = tuple(name for name, s in zip(names, slack) if s == 0)
    return LpSolution(lam, tau, gamma, beta, delta, binding)


def _quantize(x: float, denom: int = 10 ** 7) -> Fraction:
    return Fraction(round(x * denom), denom)


def optimize() -> LpSolution:
    """Grid the mix in steps of 0.02, bracket the best value, refine by
    golden section to a bracket of 1e-5; the solution at the mix found.

    The search reads each delta off a certified optimal basis
    (``_optimal_delta``); the bases it certifies live in this call only.
    """
    known: list[list[int]] = []
    lams = [_quantize(x) for x in np.arange(0.0, 1.0 + 1e-12, 0.02)]
    vals = [_optimal_delta(l, known) for l in lams]
    i = int(np.argmax([float(v) for v in vals]))
    lo = float(lams[max(0, i - 1)])
    hi = float(lams[min(len(lams) - 1, i + 1)])

    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = float(_optimal_delta(_quantize(c), known))
    fd = float(_optimal_delta(_quantize(d), known))
    while b - a > 1e-5:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = float(_optimal_delta(_quantize(c), known))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = float(_optimal_delta(_quantize(d), known))
    return solve_amounts(_quantize((a + b) / 2, 10 ** 5))
