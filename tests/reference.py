"""Independent checks the tests hold the package against.

None of these has a caller in the package: each recomputes a quantity the
package derives another way (a Kirchhoff count, closed-form marginals, a
grid search over the parameter LP, an exact expected join cost), or reads
a structure the package builds.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from htsp.graph import MultiGraph
from htsp.join import exact_eal_probabilities
from htsp.matching import MatchingDistribution, ShiftedSolution
from htsp.oracle import exact_expected_net_decrease
from htsp.params import BETA_CAP, decrease_forms
from htsp.trees import MaxEntWeights, _matrix_tree_marginals


def edge_ids_of(dist: MatchingDistribution, mask: int) -> frozenset[int]:
    """The edge ids of a matching given as a bit mask over edge positions."""
    g = dist.graph
    return frozenset(g.edge_ids[i] for i in range(g.m) if (mask >> i) & 1)


def part_sums(sh: ShiftedSolution) -> list[Fraction]:
    """The value each part of a shifted solution carries."""
    return [sum((sh.values[e] for e in p), Fraction(0)) for p in sh.parts]


def spanning_tree_count(g: MultiGraph) -> int:
    """Kirchhoff count, for cross-checks."""
    if g.n == 1:
        return 1
    lap = np.zeros((g.n, g.n))
    for u, v in g.endpoints:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    minor = lap[:-1, :-1]
    return round(float(np.linalg.det(minor))) if minor.size else 1


def maxent_marginals(fit: MaxEntWeights) -> dict[int, float]:
    """Edge marginals of a fitted max-entropy distribution."""
    out = {eid: 1.0 for eid in fit.forced}
    out.update({eid: 0.0 for eid in fit.zeros})
    for c in fit.components:
        w = [c.weights[eid] for eid in c.graph.edge_ids]
        for eid, p in zip(c.graph.edge_ids, _matrix_tree_marginals(c.graph, w)):
            out[eid] = float(p)
    return out


def exact_expected_join_cost(h, classes, params, samplers) -> object:
    """Expected fractional join cost: quarter cost minus the net decreases."""
    probs = exact_eal_probabilities(h, classes, samplers)
    net = exact_expected_net_decrease(h, classes, params, samplers, probs)
    inst = h.instance
    total = 0
    for e in range(inst.graph.m):
        total = total + inst.costs[e] * (Fraction(1, 4) - net[e])
    return total


def grid_oracle(lam: Fraction, coarse: float = 1e-3,
                fine: float = 1e-4, window: float = 2e-3) -> float:
    """Best minimum form on a dense grid; independent check of the LP.

    A full coarse sweep brackets the optimum, then a fine local sweep
    around the bracket sharpens it.
    """
    forms = [tuple(map(float, c)) for _, c in decrease_forms(Fraction(lam))]
    cap = float(BETA_CAP)

    def sweep(t_lo, t_hi, g_lo, g_hi, b_lo, b_hi, step):
        taus = np.arange(t_lo, t_hi + step / 2, step)
        gammas = np.arange(g_lo, g_hi + step / 2, step)
        best = -np.inf
        best_at = (0.0, 0.0, 0.0)
        for beta in np.arange(b_lo, b_hi + step / 2, step):
            t = taus[taus <= min(beta / 2, cap) + 1e-15]
            g = gammas[gammas <= beta / 2 + 1e-15]
            if len(t) == 0 or len(g) == 0:
                continue
            tt, gg = np.meshgrid(t, g, indexing="ij")
            ok = tt <= gg + 1e-15
            val = np.full(tt.shape, np.inf)
            for ct, cg, cb in forms:
                val = np.minimum(val, ct * tt + cg * gg + cb * beta)
            val = np.where(ok, val, -np.inf)
            i = int(np.argmax(val))
            if val.flat[i] > best:
                best = float(val.flat[i])
                best_at = (float(tt.flat[i]), float(gg.flat[i]), beta)
        return best, best_at

    best, (t0, g0, b0) = sweep(0.0, cap, 0.0, cap, 0.0, cap, coarse)
    fine_best, _ = sweep(
        max(0.0, t0 - window), min(cap, t0 + window),
        max(0.0, g0 - window), min(cap, g0 + window),
        max(0.0, b0 - window), min(cap, b0 + window),
        fine,
    )
    return max(best, fine_best)
