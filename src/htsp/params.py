"""The guarantee constants, and the reduction-parameter optimization.

The constants live here only; this module imports no other htsp module
but the errors, so every module can read them.

The expected net decrease of every edge class, after charging, is a linear
form in the reduction amounts (tau, gamma, beta) with coefficients built
from the flattened even-at-last rates.  For a fixed sampler mix the best
amounts solve a tiny linear program: maximize the minimum form subject to
the ordering and cap constraints.  The mix itself is then line-searched.

The program is solved exactly by enumerating constraint-intersection
vertices in rational arithmetic; no LP library involved.
"""

from __future__ import annotations

import functools
import itertools
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
#: optimized share of max-entropy draws in the mixed sampler
DEFAULT_MIX_LAMBDA = Fraction(4715, 10000)
#: largest reduction amount any edge class may take
BETA_CAP = Fraction(1, 12)
#: guaranteed gap below one half of the expected fractional join cost / c(x)
EPSILON = 0.001695
#: guaranteed bound on the expected tree-plus-join cost / c(x)
TOUR_RATIO_BOUND = 1.4983


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


def _solve4(rows: list[tuple[Fraction, ...]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    n = 4
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


@dataclass(frozen=True)
class LpSolution:
    lam: Fraction
    tau: Fraction
    gamma: Fraction
    beta: Fraction
    delta: Fraction
    binding: tuple[str, ...]


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


def solve_amounts(lam: Fraction) -> LpSolution:
    """Exact maximizer of the minimum decrease form at a fixed mix.

    Vertex enumeration with a float pre-pass: candidate bases are screened
    in floating point and only the near-optimal ones are re-solved and
    verified in exact rationals.
    """
    lam = Fraction(lam)
    cons = _constraints(lam)
    amat = np.array([[float(c) for c in coefs] for _, coefs, _ in cons])
    bvec = np.array([float(b) for _, _, b in cons])

    combos = _bases(len(cons))
    stacks = amat[combos]  # (k, 4, 4)
    rhs = bvec[combos]  # (k, 4)
    good = np.abs(np.linalg.det(stacks)) > 1e-12
    xs = np.linalg.solve(stacks[good], rhs[good][..., None])[..., 0]
    feas = np.all(xs @ amat.T <= bvec[None, :] + 1e-9, axis=1)
    if not feas.any():
        raise LpFailure(f"feasible region is empty at lambda {lam}")
    deltas = xs[feas, 3]
    near = combos[good][feas][deltas >= deltas.max() - 1e-9]
    best: Optional[tuple[Fraction, list[Fraction]]] = None
    for combo in near.tolist():
        rows = [cons[i][1] for i in combo]
        rhs = [cons[i][2] for i in combo]
        x = _solve4(rows, rhs)
        if x is None:
            continue
        if all(sum(c * v for c, v in zip(coefs, x)) <= b for _, coefs, b in cons):
            if best is None or x[3] > best[0]:
                best = (x[3], x)
    if best is None:
        raise LpFailure(f"float screening lost the optimum at lambda {lam}")
    delta, x = best
    binding = tuple(
        name
        for name, coefs, b in cons
        if sum(c * v for c, v in zip(coefs, x)) == b
    )
    return LpSolution(lam, x[0], x[1], x[2], delta, binding)


@dataclass(frozen=True)
class OptimizationResult:
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


def _quantize(x: float, denom: int = 10 ** 7) -> Fraction:
    return Fraction(round(x * denom), denom)


def optimize(grid_step: float = 0.02, refine_tol: float = 1e-5) -> OptimizationResult:
    """Grid the mix, bracket the best value, refine by golden section."""
    lams = [_quantize(x) for x in np.arange(0.0, 1.0 + 1e-12, grid_step)]
    vals = [solve_amounts(l).delta for l in lams]
    i = int(np.argmax([float(v) for v in vals]))
    lo = float(lams[max(0, i - 1)])
    hi = float(lams[min(len(lams) - 1, i + 1)])

    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = float(solve_amounts(_quantize(c)).delta)
    fd = float(solve_amounts(_quantize(d)).delta)
    while b - a > refine_tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = float(solve_amounts(_quantize(c)).delta)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = float(solve_amounts(_quantize(d)).delta)
    lam = _quantize((a + b) / 2, 10 ** 5)
    sol = solve_amounts(lam)
    return OptimizationResult(lam, sol.tau, sol.gamma, sol.beta, sol.delta, sol.binding)
