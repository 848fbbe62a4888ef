"""The Fraction greedy that ``htsp.decomp``'s integer greedy replaced.

Kept as a test oracle: every step is done in ``Fraction``, exactly as the
package did before the integer rewrite, so the two can be compared weight
for weight and key for key, the integer greedy through
``exact_convex_decomposition``, its one-state call.  See ``htsp.decomp`` for
the method.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from htsp.decomp import DecompositionFailure, DecompositionShape, DecompositionState, decompose
from htsp.graph import bits


def exact_convex_decomposition(
    candidates: Sequence[int],
    target: Sequence[Fraction],
    upper: Sequence[tuple[int, int]] = (),
    lower: Sequence[tuple[int, int]] = (),
) -> dict[int, Fraction]:
    """``htsp.decomp.decompose`` on one state, its weights as ``Fraction``s
    keyed in the order the greedy took them; a failure raises."""
    shape = DecompositionShape(candidates, len(target), upper, lower)
    (res,) = decompose([(shape, DecompositionState.of([Fraction(x) for x in target]))])
    if isinstance(res, DecompositionFailure):
        raise res
    return {shape.cands[i]: Fraction(k, res.denominator)
            for i, k in zip(res.order, res.numerators)}


def fraction_convex_decomposition(
    candidates: Sequence[int],
    target: Sequence[Fraction],
    upper: Sequence[tuple[int, int]] = (),
    lower: Sequence[tuple[int, int]] = (),
) -> dict[int, Fraction]:
    """Weights over candidates reproducing ``target`` exactly.

    Raises DecompositionFailure when the greedy gets stuck, which signals
    that the target is outside the polytope spanned by the candidates.
    """
    m = len(target)
    cands = sorted(set(candidates))
    if not cands:
        raise DecompositionFailure("no candidates")
    size = cands[0].bit_count()
    if any(c.bit_count() != size for c in cands):
        raise DecompositionFailure("candidates differ in cardinality")

    # precompute intersection sizes per candidate and constraint
    upper = list(upper)
    lower = list(lower)
    up_k = [[(c & mask).bit_count() for mask, _ in upper] for c in cands]
    lo_k = [[(c & mask).bit_count() for mask, _ in lower] for c in cands]

    r = [Fraction(x) for x in target]
    sigma = Fraction(1)
    weights: dict[int, Fraction] = {}
    max_rounds = len(cands) + len(upper) + len(lower) + m + 8

    for _ in range(max_rounds):
        if sigma == 0:
            break
        supp = 0
        forced = 0
        for e in range(m):
            if r[e] > 0:
                supp |= 1 << e
            if r[e] == sigma:
                forced |= 1 << e
        up_sum = [sum(r[e] for e in bits(mask)) for mask, _ in upper]
        lo_sum = [sum(r[e] for e in bits(mask)) for mask, _ in lower]

        best_t = Fraction(0)
        best_i = -1
        for i, c in enumerate(cands):
            if c & ~supp or forced & ~c:
                continue
            ok = True
            t = sigma
            for j, (_, bound) in enumerate(upper):
                k = up_k[i][j]
                slack = sigma * bound - up_sum[j]
                if slack == 0 and k != bound:
                    ok = False
                    break
                if k < bound:
                    t = min(t, slack / (bound - k))
            if not ok:
                continue
            for j, (_, bound) in enumerate(lower):
                k = lo_k[i][j]
                slack = lo_sum[j] - sigma * bound
                if slack == 0 and k != bound:
                    ok = False
                    break
                if k > bound:
                    t = min(t, slack / (k - bound))
            if not ok:
                continue
            for e in bits(c):
                if r[e] < t:
                    t = r[e]
            if t > best_t:
                best_t = t
                best_i = i
        if best_i < 0:
            raise DecompositionFailure("decomposition stuck; target outside the polytope")
        c = cands[best_i]
        weights[c] = weights.get(c, Fraction(0)) + best_t
        for e in bits(c):
            r[e] -= best_t
        sigma -= best_t
    if sigma != 0 or any(x != 0 for x in r):
        raise DecompositionFailure("decomposition did not exhaust the target")
    return weights
