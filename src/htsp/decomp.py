"""Exact convex decomposition of polytope points over 0/1 candidate sets.

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

One kernel decomposes many points of one polytope at once.

- Per shape (``DecompositionShape``, built once per candidate set): the
  candidates, the constraint rows, the row x candidate deficits ``d`` (int8
  when they fit; d > 0 says how far a candidate stays inside a bound),
  packed bit words that rule candidates out, and the lcm ``L`` of every
  positive ``d``.  The spanning trees of a contracted minor under its
  vertex-subset rows are one shape, cached with the minor's trees and
  shared by every shifted state on that minor.  The step quotas ``L / d``
  are made once per ``decompose`` call, so the cached arrays stay small.
- Per state (``DecompositionState``): the target, the candidates the state
  may use, and a few upper rows of its own (the partition parts).

``decompose`` runs the states of one shape in blocks of at most
``BLOCK_CELLS`` states x candidates x rows.  Every round of a block prunes
the candidates (support, tight rows), takes each state's
largest step and first best candidate, updates and divides out the gcd,
for all of its states at once and over the candidates still alive in any
of them.  Finished states leave the block; the rest go on in lockstep.

The greedy runs on integers: the residual ``r`` and the scale ``sigma``
of each state are kept as integer numerators over one running common
denominator ``D``, divided by their gcd after every step.  A candidate
whose step is capped by a constraint it meets ``d`` times too few (or too
many, for a lower bound) can move by ``slack / d``; with ``L`` a common
multiple of every such ``d``, each candidate's step is ``T / (D * L)`` for
the integer ``T = slack * (L / d)``.  A step is slack / d whatever ``L``
is, so taking ``L`` over the whole shape (and the rows of a block's
states) instead of over one state's candidates changes no weight and no
comparison between steps.  A block's arrays are int64 while a per-round
bound shows that no product can reach 2**62, and exact Python ints
(``dtype=object``) after.  Each state's weights come back as integer
numerators over one denominator; ``exact_convex_decomposition`` is the
one-state call that returns ``Fraction``s.

The greedy has no rule of its own for a forced edge (r_e = sigma) that a
candidate misses: in every polytope the package decomposes, the support
and tight-row rules already drop such a candidate.

- Tree shapes carry the pair row x(E({u, v})) <= sigma of each edge
  e = uv.  At r_e = sigma that row is tight, so a candidate with no edge
  between u and v moves it, and one with a parallel edge uses an edge at
  r = 0.
- In the matching shape every vertex has r(delta(u)) = sigma, so
  r_e = sigma leaves every other edge at u at r = 0, and a perfect
  matching that misses e uses one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

INT64_SAFE = 2 ** 62
#: states x candidates x rows: the size of a block's largest temporary
BLOCK_CELLS = 2 ** 15


class DecompositionFailure(ValueError):
    """The greedy's own failure: no candidates, candidates of different
    cardinalities, a stuck greedy, or a target it did not exhaust.  The
    last two say that the target is outside the candidates' polytope."""


def _bit_rows(masks: Sequence[int], m: int) -> np.ndarray:
    """Bool matrix with one row per mask and one column per edge position."""
    width = max(1, (m + 7) // 8)
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=m, bitorder="little").view(bool)


def _lcm_of_positive(a: np.ndarray) -> int:
    """The lcm of the distinct positive entries of ``a``."""
    pos = np.sort(a[a > 0])
    return math.lcm(*pos[:1].tolist(), *pos[1:][pos[1:] != pos[:-1]].tolist())


def _pack(a: np.ndarray) -> np.ndarray:
    """A bool array (..., k) as words (..., ceil(k / 64)): entry 64 w + j is
    bit j of word w."""
    b = np.packbits(a, axis=-1, bitorder="little")
    pad = -b.shape[-1] % 8
    if pad:
        b = np.concatenate([b, np.zeros(b.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    return np.ascontiguousarray(b).view(np.uint64)


class DecompositionShape:
    """Everything the decompositions over one candidate set share."""

    def __init__(self, candidates: Sequence[int], m: int,
                 upper: Sequence[tuple[int, int]] = (),
                 lower: Sequence[tuple[int, int]] = ()):
        cands = sorted(set(candidates))
        if not cands:
            raise DecompositionFailure("no candidates")
        size = cands[0].bit_count()
        if any(c.bit_count() != size for c in cands):
            raise DecompositionFailure("candidates differ in cardinality")
        self.m = m
        self.cands = tuple(cands)
        self.upper = tuple(upper)
        self.lower = tuple(lower)
        # one row per constraint, each read as sign * x(mask) >= sigma * bound
        cons = self.upper + self.lower
        self.sign = np.array([-1] * len(upper) + [1] * len(lower), dtype=np.int64)
        self.bound = self.sign * np.array([b for _, b in cons], dtype=np.int64)
        self.member = _bit_rows(cands, m)
        self.rows = _bit_rows([mask for mask, _ in cons], m)
        # d[j, i] > 0: candidate i caps the step at slack_j / d[j, i];
        # d[j, i] != 0 on a tight constraint j keeps candidate i out
        d = (self.sign[:, None] * (self.rows.astype(np.int64) @ self.member.T.astype(np.int64))
             - self.bound[:, None])
        self.deficit = d.astype(np.int8) if d.size and -128 <= d.min() and d.max() < 128 else d
        # a candidate is ruled out by a support edge at r_e <= 0 or by a
        # tight row it moves
        self.rule_words = _pack(np.concatenate([self.member, (d != 0).T], axis=1))
        self.scale = _lcm_of_positive(d)
        self.headroom = int(np.abs(self.bound).max(initial=0)) + m + 2


@dataclass(frozen=True, eq=False)
class DecompositionState:
    """One point to decompose over a shape."""

    target: tuple[Fraction, ...]
    #: (mask, bound) upper rows of this state alone
    upper: tuple[tuple[int, int], ...] = ()
    #: which of the shape's candidates this state may use; all when None
    alive: Optional[np.ndarray] = None


class Decomposition(NamedTuple):
    """Candidate indices in the order the greedy took them, with their
    weights as numerators over the least common ``denominator``."""

    order: tuple[int, ...]
    numerators: tuple[int, ...]
    denominator: int


def decompose(shape: DecompositionShape, states: Sequence[DecompositionState]
              ) -> list[Union[Decomposition, DecompositionFailure]]:
    """Each state's decomposition, or the ``DecompositionFailure`` that says
    its target is outside the polytope its candidates span."""
    # a row caps a candidate's step at slack * quota; a row that does not
    # cap it adds one whole step instead.  The shape's rows come with a row
    # x_e >= 0 per edge, whose caps are the greedy's edge caps r_e.
    d = np.concatenate([shape.deficit, shape.member.T])
    caps = d > 0
    quota = shape.scale // np.where(caps, d, 1).astype(
        object if shape.scale >= INT64_SAFE else np.int64)
    quota = np.where(caps, quota, 0)
    if shape.scale < 2 ** 31:
        quota = quota.astype(np.int32)
    row_caps = (quota, ~caps)
    rows = len(d) + max((len(s.upper) for s in states), default=0)
    per = max(1, BLOCK_CELLS // (len(shape.cands) * (rows + 1)))
    out: list = []
    for lo in range(0, len(states), per):
        out.extend(_decompose_block(shape, row_caps, states[lo:lo + per]))
    return out


def exact_convex_decomposition(
    candidates: Sequence[int],
    target: Sequence[Fraction],
    upper: Sequence[tuple[int, int]] = (),
    lower: Sequence[tuple[int, int]] = (),
) -> dict[int, Fraction]:
    """Weights over candidates reproducing ``target`` exactly, keyed in the
    order the greedy took them.

    Raises DecompositionFailure when the greedy gets stuck, which signals
    that the target is outside the polytope spanned by the candidates.
    """
    shape = DecompositionShape(candidates, len(target), upper, lower)
    (res,) = decompose(shape, [DecompositionState(tuple(Fraction(x) for x in target))])
    if isinstance(res, DecompositionFailure):
        raise res
    return {shape.cands[i]: Fraction(k, res.denominator)
            for i, k in zip(res.order, res.numerators)}


def _decompose_block(shape: DecompositionShape, row_caps: tuple[np.ndarray, np.ndarray],
                     states: Sequence[DecompositionState]
                     ) -> list[Union[Decomposition, DecompositionFailure]]:
    m, n_cands = shape.m, len(shape.cands)
    out: list = [None] * len(states)

    # the states' own upper rows, padded by empty rows of bound 1: their
    # slack is sigma, so they never go tight and never cap below sigma
    own_rows = np.zeros((len(states), max(len(s.upper) for s in states), m), dtype=bool)
    own_bound = np.ones(own_rows.shape[:2], dtype=np.int64)
    for b, s in enumerate(states):
        if s.upper:
            own_rows[b, :len(s.upper)] = _bit_rows([mask for mask, _ in s.upper], m)
            own_bound[b, :len(s.upper)] = [bd for _, bd in s.upper]
    own_d = own_bound[:, :, None] - own_rows.astype(np.int64) @ shape.member.T.astype(np.int64)
    own_words = _pack((own_d != 0).transpose(0, 2, 1))
    scale = math.lcm(shape.scale, _lcm_of_positive(own_d))
    headroom = max(shape.headroom, int(own_bound.max(initial=0)) + m + 2)
    own_d = own_d.transpose(1, 0, 2)
    tables: dict = {}

    def tables_as(dtype) -> tuple[np.ndarray, ...]:
        # int64 rounds read the small int and bool tables as they are
        if dtype not in tables:
            quota, uncapped = row_caps
            if scale != shape.scale:
                quota = quota.astype(dtype) * (scale // shape.scale)
            own_div = np.where(own_d > 0, own_d, 1).astype(dtype)
            arrays = (quota, uncapped, np.where(own_d > 0, scale // own_div, 0), own_d <= 0,
                      shape.rows.T, shape.sign, shape.bound, own_rows, own_bound)
            tables[dtype] = tuple(x.astype(object) for x in arrays) if dtype is object else arrays
        return tables[dtype]

    alive = np.ones((len(states), n_cands), dtype=bool)
    nums, den, limit = [], [], []
    for b, s in enumerate(states):
        if s.alive is not None:
            alive[b] = s.alive
        dn = math.lcm(*(x.denominator for x in s.target))
        nums.append([x.numerator * (dn // x.denominator) for x in s.target])
        den.append(dn)
        limit.append(int(alive[b].sum()) + len(shape.bound) + len(s.upper) + m + 8)
    ids = np.arange(len(states))
    res = np.array(nums, dtype=object).reshape(len(states), m)
    sig = np.array(den, dtype=object)
    limit = np.array(limit)
    taken: list[list[tuple[int, int, int]]] = [[] for _ in states]
    stuck = ~alive.any(axis=1)
    rounds = 0

    while True:
        # settle the states that are stuck, whose sigma reached zero, or
        # whose rounds ran out
        done = stuck | (sig == 0) | (rounds == limit)
        if done.any():
            exhausted = (sig == 0) & ~(res != 0).any(axis=1)
            for j in np.flatnonzero(done).tolist():
                if stuck[j]:
                    out[ids[j]] = DecompositionFailure(
                        "no candidates" if rounds == 0 else
                        "decomposition stuck; target outside the polytope")
                elif exhausted[j]:
                    out[ids[j]] = _weights(taken[ids[j]])
                else:
                    out[ids[j]] = DecompositionFailure("decomposition did not exhaust the target")
            keep = np.flatnonzero(~done)
            ids, res, sig, limit = ids[keep], res[keep], sig[keep], limit[keep]
            den = [den[j] for j in keep.tolist()]
        if not ids.size:
            return out
        rounds += 1

        top = max(int(np.abs(res).max(initial=0)), int(sig.max()))
        dtype = np.int64 if top * headroom * scale < INT64_SAFE else object
        res, sig = res.astype(dtype), sig.astype(dtype)
        quota, uncapped, own_quota, own_uncapped, rows_t, sign, bound, own_r, own_b = \
            tables_as(dtype)
        slack = sign * (res @ rows_t) - sig[:, None] * bound
        own_slack = sig[:, None] * own_b[ids] - (own_r[ids] @ res[:, :, None])[:, :, 0]

        # leaving the support or moving a tight constraint rules a candidate
        # out for good: r only falls where the chosen candidate sits, and
        # the chosen one keeps every tight constraint tight
        live = alive[ids]
        cols = np.flatnonzero(live.any(axis=0))
        keys = _pack(np.concatenate([res <= 0, slack == 0], axis=1))
        own_keys = _pack(own_slack == 0)
        live[:, cols] &= ~(
            ((shape.rule_words[cols][None] & keys[:, None, :]) != 0).any(axis=2)
            | ((own_words[ids[:, None], cols] & own_keys[:, None, :]) != 0).any(axis=2))
        alive[ids] = live
        cols = np.flatnonzero(live.any(axis=0))
        if not cols.size:
            stuck = np.ones(len(ids), dtype=bool)
            continue

        # every live candidate's largest step, the first largest per state
        top_t = sig * scale
        cap = int(top_t.max())
        slack = np.concatenate([slack, res], axis=1)
        step = (slack.T[:, :, None] * quota[:, cols][:, None, :]
                + (uncapped[:, cols] * cap)[:, None, :]).min(axis=0, initial=cap)
        at = (slice(None), ids[:, None], cols)
        step = np.minimum(step, (own_slack.T[:, :, None] * own_quota[at]
                                 + own_uncapped[at] * cap).min(axis=0, initial=cap))
        step = np.minimum(step, top_t[:, None])
        step[~live[:, cols]] = -1
        best = step.argmax(axis=1)
        t = step[np.arange(len(ids)), best]
        stuck = t <= 0
        t[stuck] = 0
        chosen = cols[best]
        for j in np.flatnonzero(~stuck).tolist():
            taken[ids[j]].append((int(chosen[j]), int(t[j]), den[j] * scale))

        res = res * scale - t[:, None] * shape.member[chosen].astype(dtype)
        sig = sig * scale - t
        g = np.gcd.reduce(np.concatenate([res, sig[:, None]], axis=1), axis=1).tolist()
        div = [math.gcd(gj, dn * scale) if gj else 1 for gj, dn in zip(g, den)]
        den = [dn * scale // gj for dn, gj in zip(den, div)]
        div = np.array(div, dtype=dtype)
        res //= div[:, None]
        sig //= div


def _weights(taken: list[tuple[int, int, int]]) -> Decomposition:
    """Sum the steps of one state over their least common denominator."""
    den = math.lcm(*(q for _, _, q in taken))
    acc: dict[int, int] = {}
    for i, t, q in taken:
        acc[i] = acc.get(i, 0) + t * (den // q)
    g = math.gcd(den, *acc.values())
    return Decomposition(tuple(acc), tuple(k // g for k in acc.values()), den // g)
