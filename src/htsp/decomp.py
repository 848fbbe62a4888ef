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

One kernel decomposes many points of many polytopes at once.

- Per shape (``DecompositionShape``, built once per candidate set): the
  candidates, the constraint rows, the row x candidate deficits ``d`` (int8
  when they fit; d > 0 says how far a candidate stays inside a bound),
  packed bit words that rule candidates out, and the lcm ``L`` of every
  positive ``d``.  The spanning trees of a contracted minor under its
  vertex-subset rows are one shape, cached with the minor's trees and
  shared by every shifted state on that minor.  The step quotas ``L / d``
  are made once per ``decompose`` call and dropped after the shape's last
  block, so the cached arrays stay small.
- Per state (``DecompositionState``): the target, the candidates the state
  may use, and a few upper rows of its own (the partition parts).

``decompose`` takes (shape, state) jobs of any number of shapes, as a
degree piece's compile passes the states of all its minor shapes at once.
A shape whose states are at most ``SHARED_CELLS`` candidates x rows each
(the minors of pieces of up to eight vertices, on the generators'
instances) shares blocks with other such shapes, smallest first: each
state reads its own shape's tables, padded to the block's largest.  A
larger shape runs alone, reading its tables as they are.  A block holds
at most ``BLOCK_CELLS`` states x candidates x rows.  Every round of a
block prunes the candidates (support, tight rows), takes each state's
largest step and first best candidate, updates and divides out the gcd,
for all of its states at once and over the live (state, candidate) pairs
only.  Finished states leave the block; the rest go on in lockstep.

The greedy runs on integers: the residual ``r`` and the scale ``sigma``
of each state are kept as integer numerators over one running common
denominator ``D``, divided by their gcd after every step.  A candidate
whose step is capped by a constraint it meets ``d`` times too few (or too
many, for a lower bound) can move by ``slack / d``; with ``L`` a common
multiple of every such ``d``, each candidate's step is ``T / (D * L)`` for
the integer ``T = slack * (L / d)``.  A step is slack / d whatever ``L``
is, so taking ``L`` over a block's shapes and its states' own rows
instead of over one state's candidates changes no weight and no
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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

INT64_SAFE = 2 ** 62
#: states x candidates x rows: the size of a block's largest temporary
BLOCK_CELLS = 2 ** 16
#: a shape whose states are at most this many cells each shares blocks
#: with other such shapes
SHARED_CELLS = 2 ** 12


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

    @functools.cached_property
    def integer_target(self) -> tuple[list[int], int]:
        """The target as numerators over its least common denominator."""
        dens = [x.denominator for x in self.target]
        dn = math.lcm(*dens)
        return [x.numerator * (dn // d) for x, d in zip(self.target, dens)], dn


class Decomposition(NamedTuple):
    """Candidate indices in the order the greedy took them, with their
    weights as numerators over the least common ``denominator``."""

    order: tuple[int, ...]
    numerators: tuple[int, ...]
    denominator: int


def decompose(jobs: Sequence[tuple[DecompositionShape, DecompositionState]]
              ) -> list[Union[Decomposition, DecompositionFailure]]:
    """Each (shape, state) job's decomposition, or the ``DecompositionFailure``
    that says its target is outside the polytope its candidates span."""
    own = max((len(state.upper) for _, state in jobs), default=0)
    by_shape: dict[int, tuple[DecompositionShape, list[int]]] = {}
    for j, (shape, _) in enumerate(jobs):
        by_shape.setdefault(id(shape), (shape, []))[1].append(j)
    blocks: list[list[int]] = []
    small: list[tuple[int, int]] = []
    for shape, idx in by_shape.values():
        cells = len(shape.cands) * (len(shape.bound) + shape.m + own + 1)
        if cells <= SHARED_CELLS:
            small.extend((cells, j) for j in idx)
            continue
        per = max(1, BLOCK_CELLS // cells)
        blocks.extend(idx[lo:lo + per] for lo in range(0, len(idx), per))
    # small shapes share blocks, smallest first, each block as many states
    # as fit at its largest shape's size
    block: list[int] = []
    for cells, j in sorted(small, key=lambda x: x[0]):
        if block and (len(block) + 1) * cells > BLOCK_CELLS:
            blocks.append(block)
            block = []
        block.append(j)
    if block:
        blocks.append(block)
    out: list = [None] * len(jobs)
    # a shape's step tables live from its first block to its last: a large
    # shape's blocks come one after the other
    last = {id(jobs[j][0]): k for k, block in enumerate(blocks) for j in block}
    prepared: dict[int, _StepTables] = {}
    for k, block in enumerate(blocks):
        tables: list[_StepTables] = []
        slot: dict[int, int] = {}
        which = []
        for j in block:
            shape = jobs[j][0]
            if id(shape) not in slot:
                if id(shape) not in prepared:
                    prepared[id(shape)] = _step_tables(shape)
                slot[id(shape)] = len(tables)
                tables.append(prepared[id(shape)])
            which.append(slot[id(shape)])
        for j, res in zip(block, _decompose_block(tables, which, [jobs[j][1] for j in block])):
            out[j] = res
        for t in tables:
            if last[id(t.shape)] == k:
                del prepared[id(t.shape)]
    return out


class _StepTables(NamedTuple):
    """A shape's step quotas, made once per ``decompose`` call for all its
    blocks (so the cached shapes stay small): per candidate and row, over
    the shape's rows then one row x_e >= 0 per edge (whose caps are the
    greedy's edge caps r_e), ``scale / d`` where the row caps the
    candidate's step (d > 0), else 0 and ``uncapped``."""

    shape: DecompositionShape
    quota: np.ndarray
    uncapped: np.ndarray


def _step_tables(shape: DecompositionShape) -> _StepTables:
    d = np.concatenate([shape.deficit.T, shape.member], axis=1)
    caps = d > 0
    quota = shape.scale // np.where(caps, d, 1).astype(
        object if shape.scale >= INT64_SAFE else np.int64)
    quota = np.where(caps, quota, 0)
    if shape.scale < 2 ** 31:
        quota = quota.astype(np.int32)
    return _StepTables(shape, quota, ~caps)


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
    (res,) = decompose([(shape, DecompositionState(tuple(Fraction(x) for x in target)))])
    if isinstance(res, DecompositionFailure):
        raise res
    return {shape.cands[i]: Fraction(k, res.denominator)
            for i, k in zip(res.order, res.numerators)}


def _stack(arrays: Sequence[np.ndarray], shape: tuple[int, ...], fill=0) -> np.ndarray:
    """The arrays padded by ``fill`` to ``shape`` and stacked on a new
    first axis."""
    out = np.full((len(arrays),) + shape, fill, dtype=np.result_type(*arrays))
    for i, a in enumerate(arrays):
        out[(i,) + tuple(slice(0, k) for k in a.shape)] = a
    return out


def _decompose_block(tables: Sequence[_StepTables], which: Sequence[int],
                     states: Sequence[DecompositionState]
                     ) -> list[Union[Decomposition, DecompositionFailure]]:
    """Decompose ``states`` in lockstep, state b over the shape of
    ``tables[which[b]]``.

    A one-shape block reads its shape's tables as they are, on a first
    axis of length one.  A block of several shapes pads each shape's
    tables to the block's largest (candidates that are never alive, empty
    rows that never go tight or cap, edges at zero) and stacks them on
    that axis.  Each round reads the tables for the live (state,
    candidate) pairs only, at the state's shape."""
    shapes = [t.shape for t in tables]
    m = max(s.m for s in shapes)
    n_cands = max(len(s.cands) for s in shapes)
    n_rows = max(len(s.bound) for s in shapes)
    one = len(shapes) == 1
    which = np.zeros(len(states), dtype=np.intp) if one else np.asarray(which, dtype=np.intp)
    out: list = [None] * len(states)

    # per shape the rows (an empty padding row reads x(mask) <= sigma), and
    # the rule words: a candidate is ruled out by a support edge at
    # r_e <= 0 or by a tight row it moves
    if one:
        (shape,) = shapes
        member, rows_t = shape.member[None], shape.rows.T[None]
        sign, bound, rule_words = shape.sign[None], shape.bound[None], shape.rule_words[None]
    else:
        member = _stack([s.member for s in shapes], (n_cands, m), False)
        rows_t = _stack([s.rows.T for s in shapes], (m, n_rows), False)
        sign = _stack([s.sign for s in shapes], (n_rows,), -1)
        bound = _stack([s.bound for s in shapes], (n_rows,), -1)
        moves = _stack([s.deficit.T != 0 for s in shapes], (n_cands, n_rows), False)
        rule_words = _pack(np.concatenate([member, moves], axis=2))

    # the states' own upper rows, padded by empty rows of bound 1: their
    # slack is sigma, so they never go tight and never cap below sigma
    own_rows = np.zeros((len(states), max(len(s.upper) for s in states), m), dtype=bool)
    own_bound = np.ones(own_rows.shape[:2], dtype=np.int64)
    at = [(b, k) for b, s in enumerate(states) for k in range(len(s.upper))]
    if at:
        at = tuple(np.array(at).T)
        own_rows[at] = _bit_rows([mask for s in states for mask, _ in s.upper], m)
        own_bound[at] = [bd for s in states for _, bd in s.upper]
    # counts fit int16: a row holds at most m edges
    held = own_rows.astype(np.int16) @ (member[0].T if one else member[which].transpose(
        0, 2, 1)).astype(np.int16)
    own_d = (own_bound[:, :, None] - held).transpose(0, 2, 1)
    own_words = _pack(own_d != 0)
    scale = math.lcm(*(s.scale for s in shapes), _lcm_of_positive(own_d))
    headroom = max(max(s.headroom for s in shapes), int(own_bound.max(initial=0)) + m + 2)

    # the quotas at the block's scale
    def at_scale(t: _StepTables) -> np.ndarray:
        if scale == t.shape.scale:
            return t.quota
        return t.quota.astype(object if scale >= INT64_SAFE else np.int64) * (
            scale // t.shape.scale)

    if one:
        quota, uncapped = at_scale(tables[0])[None], tables[0].uncapped[None]
    else:
        # a shape's edge rows start at the block's; the padding caps nothing
        quotas = [at_scale(t) for t in tables]
        quota = np.zeros((len(tables), n_cands, n_rows + m), dtype=np.result_type(*quotas))
        uncapped = np.ones(quota.shape, dtype=bool)
        for i, (t, q) in enumerate(zip(tables, quotas)):
            c, r = len(t.shape.cands), len(t.shape.bound)
            for dst, src in ((quota, q), (uncapped, t.uncapped)):
                dst[i, :c, :r] = src[:, :r]
                dst[i, :c, n_rows:n_rows + t.shape.m] = src[:, r:]
    cache: dict = {}

    def tables_as(dtype) -> tuple[np.ndarray, ...]:
        # int64 rounds read the small int and bool tables as they are
        if dtype not in cache:
            own_div = np.where(own_d > 0, own_d, 1).astype(dtype)
            arrays = (quota, uncapped, np.where(own_d > 0, scale // own_div, 0), own_d <= 0,
                      rows_t, sign, bound, own_rows, own_bound)
            cache[dtype] = tuple(x.astype(object) for x in arrays) if dtype is object else arrays
        return cache[dtype]

    alive = np.zeros((len(states), n_cands), dtype=bool)
    res = np.zeros((len(states), m), dtype=object)
    den, limit = [], []
    for b, s in enumerate(states):
        shape = shapes[which[b]]
        alive[b, :len(shape.cands)] = True if s.alive is None else s.alive
        nums, dens = s.integer_target
        res[b, :len(nums)] = nums
        den.append(dens)
        limit.append(len(shape.bound) + len(s.upper) + shape.m + 8)
    ids = np.arange(len(states))
    sig = np.array(den, dtype=object)
    limit = np.array(limit) + alive.sum(axis=1)
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
        quota_t, uncapped_t, own_quota, own_uncapped, rows_tt, sign_t, bound_t, own_r, own_b = \
            tables_as(dtype)
        on = slice(None) if one else which[ids]
        slack = (sign_t[on] * np.matmul(res[:, None, :], rows_tt[on])[:, 0, :]
                 - sig[:, None] * bound_t[on])
        own_slack = sig[:, None] * own_b[ids] - (own_r[ids] @ res[:, :, None])[:, :, 0]

        # leaving the support or moving a tight constraint rules a candidate
        # out for good: r only falls where the chosen candidate sits, and
        # the chosen one keeps every tight constraint tight
        at, cand = np.nonzero(alive[ids])
        state, shape_at = ids[at], which[ids[at]]
        keys = _pack(np.concatenate([res <= 0, slack == 0], axis=1))
        own_keys = _pack(own_slack == 0)
        out_now = (((rule_words[shape_at, cand] & keys[at]) != 0).any(axis=1)
                   | ((own_words[state, cand] & own_keys[at]) != 0).any(axis=1))
        alive[state[out_now], cand[out_now]] = False
        live = ~out_now
        at, cand, state, shape_at = at[live], cand[live], state[live], shape_at[live]

        # every live candidate's largest step, the first largest per state
        top_t = sig * scale
        cap = int(top_t.max())
        slack = np.concatenate([slack, res], axis=1)
        step = np.minimum(
            _least_cap(slack[at], quota_t[shape_at, cand], uncapped_t[shape_at, cand], cap),
            _least_cap(own_slack[at], own_quota[state, cand], own_uncapped[state, cand], cap))
        steps = np.full((len(ids), n_cands), -1, dtype=dtype)
        steps[at, cand] = np.minimum(step, top_t[at])
        best = steps.argmax(axis=1)
        t = steps[np.arange(len(ids)), best]
        stuck = t <= 0
        t[stuck] = 0
        for j in np.flatnonzero(~stuck).tolist():
            taken[ids[j]].append((int(best[j]), int(t[j]), den[j] * scale))

        res = res * scale - t[:, None] * member[which[ids], best].astype(dtype)
        sig = sig * scale - t
        g = np.gcd.reduce(np.concatenate([res, sig[:, None]], axis=1), axis=1).tolist()
        div = [math.gcd(gj, dn * scale) if gj else 1 for gj, dn in zip(g, den)]
        den = [dn * scale // gj for dn, gj in zip(den, div)]
        div = np.array(div, dtype=dtype)
        res //= div[:, None]
        sig //= div


def _least_cap(slack: np.ndarray, quota: np.ndarray, uncapped: np.ndarray, cap) -> np.ndarray:
    """Per pair, the smallest of its rows' caps: slack x quota on a row that
    caps the candidate (``quota`` is 0 on the others), ``cap`` on one that
    does not; computed in place in ``slack``."""
    slack *= quota
    np.putmask(slack, uncapped, cap)
    return slack.min(axis=1, initial=cap)


def _weights(taken: list[tuple[int, int, int]]) -> Decomposition:
    """Sum the steps of one state over their least common denominator."""
    den = math.lcm(*(q for _, _, q in taken))
    acc: dict[int, int] = {}
    for i, t, q in taken:
        acc[i] = acc.get(i, 0) + t * (den // q)
    g = math.gcd(den, *acc.values())
    return Decomposition(tuple(acc), tuple(k // g for k in acc.values()), den // g)
