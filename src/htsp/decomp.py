"""Exact convex decomposition of a polytope point over 0/1 candidate sets.

Used twice: writing the quarter-mass vector as a distribution over perfect
matchings, and writing shifted marginals as a distribution over constrained
spanning trees.  The greedy subtracts the largest multiple of a candidate
that keeps the scaled residual inside the polytope; restricting candidates
to the minimal face of the residual guarantees a new constraint goes tight
at every step, so the loop terminates with an exact rational decomposition.

Candidates are bitmasks over edge positions.  Constraints are given as
(mask, bound) pairs: ``upper`` means x(mask) <= sigma * bound on the scaled
residual, ``lower`` means x(mask) >= sigma * bound.  All candidates must
contain the same number of edges (a basis cardinality), which makes the
total-mass equality self-maintaining.

The greedy runs on integers: the residual ``r`` and the scale ``sigma``
are kept as integer numerators ``R`` and ``S`` (``res`` and ``sig``) over
one running common denominator ``D`` (``den``), divided by their gcd after
every step.  A candidate whose step is capped by a constraint it
meets ``d`` times too few (or too many, for a lower bound) can move by
``slack / d``; with ``L`` the lcm of every such ``d``, each candidate's
step is ``T / (D * L)`` for an integer ``T``, so one round is a handful
of numpy integer operations and only the chosen weight becomes a
``Fraction``.  Arrays are int64 while a per-round bound shows that no
product can reach 2**62, and exact Python ints (``dtype=object``) after.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

INT64_SAFE = 2 ** 62


def _bit_rows(masks: Sequence[int], m: int) -> np.ndarray:
    """0/1 matrix with one row per mask and one column per edge position."""
    width = max(1, (m + 7) // 8)
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=m, bitorder="little").astype(np.int64)


def exact_convex_decomposition(
    candidates: Sequence[int],
    target: Sequence[Fraction],
    upper: Sequence[tuple[int, int]] = (),
    lower: Sequence[tuple[int, int]] = (),
) -> dict[int, Fraction]:
    """Weights over candidates reproducing ``target`` exactly.

    Raises ValueError when the greedy gets stuck, which signals that the
    target is outside the polytope spanned by the candidates.
    """
    m = len(target)
    cands = sorted(set(candidates))
    if not cands:
        raise ValueError("no candidates")
    size = cands[0].bit_count()
    if any(c.bit_count() != size for c in cands):
        raise ValueError("candidates differ in cardinality")

    # one column per constraint, each read as sign * x(mask) >= sigma * bound
    cons = list(upper) + list(lower)
    sign = np.array([-1] * len(upper) + [1] * len(lower), dtype=np.int64)
    bound = sign * np.array([b for _, b in cons], dtype=np.int64)
    member = _bit_rows(cands, m)
    con_rows = _bit_rows([mask for mask, _ in cons], m)
    # d[i, j] > 0: candidate i caps the step at slack_j / d[i, j];
    # d[i, j] != 0 on a tight constraint j keeps candidate i out
    d = sign * (member @ con_rows.T) - bound
    moves = d != 0
    caps = d > 0
    scale = math.lcm(*set(d[caps].tolist()))
    divisor = np.where(caps, d, 1)
    if scale >= INT64_SAFE:
        divisor = divisor.astype(object)
    quota = np.where(caps, scale // divisor, 0)
    inside = member.astype(bool)
    missing = ~inside
    headroom = int(np.abs(bound).max(initial=0)) + m + 2

    r = [Fraction(x) for x in target]
    den = math.lcm(*(x.denominator for x in r))
    res = np.array([x.numerator * (den // x.denominator) for x in r], dtype=object)
    sig = den
    weights: dict[int, Fraction] = {}
    max_rounds = len(cands) + len(upper) + len(lower) + m + 8
    alive = np.arange(len(cands))

    for _ in range(max_rounds):
        if sig == 0:
            break
        top = max(sig, int(np.abs(res).max(initial=0)))
        if top * headroom * scale < INT64_SAFE:
            res, bnd = res.astype(np.int64, copy=False), bound
        else:
            res, bnd = res.astype(object, copy=False), bound.astype(object)
        slack = sign * (con_rows @ res) - sig * bnd
        forced = res == sig
        # leaving the support, missing a forced edge or moving a tight
        # constraint rules a candidate out for good: r only falls where the
        # chosen candidate sits, and the chosen one keeps every tight
        # constraint tight and every forced edge forced
        keep = ~(inside[alive] @ (res <= 0))
        keep &= ~(missing[alive] @ forced)
        keep &= ~(moves[alive] @ (slack == 0))
        alive = alive[keep]
        top_t = sig * scale
        step = np.where(caps[alive], slack * quota[alive], top_t).min(
            axis=1, initial=top_t)
        step = np.minimum(step, np.where(inside[alive], res * scale, top_t).min(
            axis=1, initial=top_t))
        best = int(np.argmax(step)) if alive.size else -1
        if best < 0 or step[best] <= 0:
            raise ValueError("decomposition stuck; target outside the polytope")
        t = int(step[best])
        i = int(alive[best])
        c = cands[i]
        weights[c] = weights.get(c, Fraction(0)) + Fraction(t, den * scale)
        res = res * scale
        res[inside[i]] -= t
        sig = sig * scale - t
        den *= scale
        g = math.gcd(sig, int(np.gcd.reduce(res)))
        if g:
            g = math.gcd(g, den)
            res //= g
            sig //= g
            den //= g
    if sig != 0 or np.any(res != 0):
        raise ValueError("decomposition did not exhaust the target")
    return weights
