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
  candidates and the slack rows, each affine in the scaled residual
  (sigma itself, then the constraints, then one row r_e per edge).  Per
  candidate: packed bit words of the rows it moves, and per row its
  deficit d (a unit step along the candidate lowers the row's slack by
  d).  A block reads each candidate's cap list, its rows with d > 0,
  made from its shapes' deficits.  The spanning trees of a contracted
  minor under its vertex-subset rows are one shape, cached with the
  minor's trees and shared by every shifted state on that minor.
- Per state (``DecompositionState``): the target, the candidates the state
  may use, and a few upper rows of its own (the partition parts).

``decompose`` takes (shape, state) jobs of any number of shapes, as a
degree piece's compile passes the states of all its minor shapes at once,
and an odd piece its three split pieces' matchings.  It orders the jobs by
shape and target and cuts them into blocks of at most ``BLOCK_CELLS``
cells, a state's cells being its candidates times its rows.  A block holds
states of any number of shapes, with no padding: its tables are its
shapes' tables one after the other, each state reads its own shape's
rows, cap lists and rule words, and its own rows enter as (pair, row)
entries where the pair's candidate moves the row.  Every round runs all
the block's live states in lockstep:

- the states are grouped by (shape, residual, sigma), and each group's
  slack rows and tight-row key are computed once;
- the live (state, candidate) pairs are pruned by their group's key (a
  support edge at r_e <= 0, or a tight row the candidate moves), then by
  the state's own tight rows;
- each distinct (group, candidate) of the pairs left takes the smallest
  cap over its cap list once, and each pair the smaller of that and its
  own rows' caps;
- each state takes its first largest step in its own candidate order,
  updates and divides out the gcd.

Finished states leave the block; the rest go on.

The greedy runs on integers: the residual ``r`` and the scale ``sigma``
of each state are kept as integer numerators over one running common
denominator ``D``, divided by their gcd after every step.  A candidate
whose step is capped by a row it lowers by ``d`` can move by
``slack / d``; with ``L`` a common multiple of every such ``d``, each
candidate's step is ``T / (D * L)`` for the integer ``T = slack * (L / d)``.
A step is slack / d whatever ``L`` is, so taking ``L`` over a block's
shapes and its states' own rows instead of over one state's candidates
changes no weight and no comparison between steps: a state's greedy does
not depend on its block.  A block's arrays are int64 while a per-round
bound shows that no product can reach 2**62, and exact Python ints
(``dtype=object``) after.  Each state's weights come back as integer
numerators over one denominator.

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
#: (candidate x row) cells of a block's states, each state counted on its
#: own: it bounds every table and per-round temporary of the block
BLOCK_CELLS = 2 ** 18


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
    """The lcm of the positive entries of ``a``, taken over the distinct
    entries above 1."""
    pos = np.sort(a[a > 1])
    return math.lcm(*pos[:1].tolist(), *pos[1:][pos[1:] != pos[:-1]].tolist())


def _pack(a: np.ndarray) -> np.ndarray:
    """A bool array (..., k) as words (..., ceil(k / 64)): entry 64 w + j is
    bit j of word w."""
    b = np.packbits(a, axis=-1, bitorder="little")
    pad = -b.shape[-1] % 8
    if pad:
        b = np.concatenate([b, np.zeros(b.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    return np.ascontiguousarray(b).view(np.uint64)


def _ragged(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranges of lengths ``lens`` laid end to end: per position its range
    and its offset in that range."""
    owner = np.repeat(np.arange(len(lens)), lens)
    return owner, np.arange(len(owner)) - (np.cumsum(lens) - lens)[owner]


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
        # the slack rows, coef . r + const * sigma: sigma (no step exceeds
        # it), each constraint read as sign * x(mask) >= sigma * sign *
        # bound, then r_e per edge
        cons = self.upper + self.lower
        sign = np.array([-1] * len(upper) + [1] * len(lower), dtype=np.int8)
        self.member = _bit_rows(cands, m)
        self.coef = np.concatenate([np.zeros((1, m), dtype=np.int8),
                                    sign[:, None] * _bit_rows([mask for mask, _ in cons], m),
                                    np.eye(m, dtype=np.int8)])
        bound = sign * np.array([b for _, b in cons], dtype=np.int64)
        self.const = np.concatenate([[1], -bound, np.zeros(m, dtype=np.int64)])
        # d[i, k] = coef_k . x_i + const_k: a unit step along candidate i
        # lowers slack row k by d; d > 0 caps the step at slack / d, d != 0
        # on a tight row keeps candidate i out (an integer product: a float
        # one pages in BLAS kernels, about 0.2 MB resident, for no gain at
        # these sizes)
        d = self.member.astype(np.int64) @ self.coef.T.astype(np.int64) + self.const
        self.rule_words = _pack(d != 0)
        # kept dense: most entries of a tree shape are positive, so a cap
        # list (row and d per entry) would take twice the bytes; a block
        # makes the lists of its own shapes
        self.deficit = d.astype(np.int8) if -128 <= d.min() and d.max() < 128 else d
        self.scale = _lcm_of_positive(d)
        self.headroom = int(np.abs(bound).max(initial=0)) + m + 2


@dataclass(frozen=True, eq=False)
class DecompositionState:
    """One point to decompose over a shape."""

    #: the target as integer numerators over their least common
    #: denominator; the states of one target share the tuple
    integer_target: tuple[tuple[int, ...], int]
    #: (mask, bound) upper rows of this state alone
    upper: tuple[tuple[int, int], ...] = ()
    #: which of the shape's candidates this state may use; all when None
    alive: Optional[np.ndarray] = None

    @classmethod
    def of(cls, target: Sequence[Fraction], upper: tuple[tuple[int, int], ...] = (),
           alive: Optional[np.ndarray] = None) -> "DecompositionState":
        """The state of a target given as exact rationals."""
        dens = [x.denominator for x in target]
        dn = math.lcm(*dens)
        return cls((tuple(x.numerator * (dn // d) for x, d in zip(target, dens)), dn),
                   upper, alive)


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
    # the states of one shape and one target (the states the trees' route
    # makes of one target share it) side by side: they share each round's
    # caps while their residuals agree
    rank: dict[int, int] = {}
    order = sorted(range(len(jobs)), key=lambda j: (
        rank.setdefault(id(jobs[j][0]), len(rank)),
        rank.setdefault(id(jobs[j][1].integer_target), len(rank))))
    blocks: list[list[int]] = []
    cells = 0
    for j in order:
        shape, state = jobs[j]
        size = (len(shape.cands) if state.alive is None else np.count_nonzero(state.alive)) * (
            len(shape.const) + len(state.upper))
        if not blocks or cells + size > BLOCK_CELLS:
            blocks.append([])
            cells = 0
        blocks[-1].append(j)
        cells += size
    out: list = [None] * len(jobs)
    for block in blocks:
        shapes: list[DecompositionShape] = []
        slot: dict[int, int] = {}
        which = []
        for j in block:
            shape = jobs[j][0]
            if id(shape) not in slot:
                slot[id(shape)] = len(shapes)
                shapes.append(shape)
            which.append(slot[id(shape)])
        for j, res in zip(block, _decompose_block(shapes, which, [jobs[j][1] for j in block])):
            out[j] = res
    return out


class _Tables(NamedTuple):
    """A block's shapes one after the other: their candidates, their slack
    rows and their cap lists, with where each shape starts."""

    cand_at: np.ndarray
    n_cands: np.ndarray
    row_at: np.ndarray
    width: np.ndarray
    #: per candidate its edges (padded to the block's m) and rule words
    member: np.ndarray
    rule: np.ndarray
    #: per slack row its affine form, and whether it is an edge row r_e
    coef: np.ndarray
    const: np.ndarray
    edge: np.ndarray
    #: per candidate its cap list: entries cap_ptr[i] to cap_ptr[i + 1]
    #: of (row within the shape, d)
    cap_ptr: np.ndarray
    cap_row: np.ndarray
    cap_d: np.ndarray


def _block_tables(shapes: Sequence[DecompositionShape]) -> _Tables:
    m = max(s.m for s in shapes)
    n_cands = np.array([len(s.cands) for s in shapes])
    width = np.array([len(s.const) for s in shapes])
    cand_at, row_at = np.cumsum(n_cands) - n_cands, np.cumsum(width) - width
    ptrs, cap_rows, cap_ds = zip(*(_cap_lists(s) for s in shapes))
    n_caps = np.array([len(r) for r in cap_rows])
    member = np.zeros((n_cands.sum(), m), dtype=bool)
    rule = np.zeros((n_cands.sum(), max(s.rule_words.shape[1] for s in shapes)),
                    dtype=np.uint64)
    coef = np.zeros((width.sum(), m), dtype=np.int8)
    for s, c, r in zip(shapes, cand_at.tolist(), row_at.tolist()):
        member[c:c + len(s.cands), :s.m] = s.member
        rule[c:c + len(s.cands), :s.rule_words.shape[1]] = s.rule_words
        coef[r:r + len(s.const), :s.m] = s.coef
    return _Tables(
        cand_at, n_cands, row_at, width, member, rule, coef,
        np.concatenate([s.const for s in shapes]),
        np.concatenate([np.arange(len(s.const)) >= len(s.const) - s.m for s in shapes]),
        np.concatenate([[0]] + [p[1:] + at for p, at in zip(
            ptrs, (np.cumsum(n_caps) - n_caps).tolist())]),
        np.concatenate(cap_rows), np.concatenate(cap_ds))


@functools.lru_cache(maxsize=1)
def _cap_lists(shape: DecompositionShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A shape's cap lists, its entries of d > 0 in (candidate, row) order:
    per candidate where its list starts, then per entry its row and d.  The
    last shape's lists stay cached: a call's blocks take the shapes in
    order, so a shape whose states fill several blocks makes them once."""
    d = shape.deficit
    caps = np.flatnonzero(d > 0)
    cand, row = np.divmod(caps, d.shape[1])
    ptr = np.zeros(len(shape.cands) + 1, dtype=np.int64)
    np.cumsum(np.bincount(cand, minlength=len(shape.cands)), out=ptr[1:])
    return ptr, row.astype(np.int16 if d.shape[1] < 2 ** 15 else np.int32), d.ravel()[caps]


def _decompose_block(shapes: Sequence[DecompositionShape], which: Sequence[int],
                     states: Sequence[DecompositionState]
                     ) -> list[Union[Decomposition, DecompositionFailure]]:
    """Decompose ``states`` in lockstep, state b over ``shapes[which[b]]``,
    on the live (state, candidate) pairs only."""
    tab = _block_tables(shapes)
    which = np.asarray(which, dtype=np.intp)
    m = tab.member.shape[1]
    out: list = [None] * len(states)

    # the live pairs, by state then candidate; a pair's candidate indexes
    # the block's tables
    n_cands = tab.n_cands[which]
    pos = np.flatnonzero(np.concatenate([
        np.ones(c, dtype=bool) if s.alive is None else s.alive
        for s, c in zip(states, n_cands.tolist())]))
    pst, within = _ragged(n_cands)
    pst, cand = pst[pos], within[pos] + tab.cand_at[which][pst[pos]]

    # the states' own upper rows one after the other, and the (pair, own
    # row) entries that matter: those whose row the candidate moves
    n_own = np.array([len(s.upper) for s in states], dtype=np.intp)
    own_state = np.repeat(np.arange(len(states)), n_own)
    own_rows = _bit_rows([mask for s in states for mask, _ in s.upper], m)
    own_bound = np.array([bd for s in states for _, bd in s.upper], dtype=np.int64)
    e_pair, e_row, d = _own_entries(n_own, pst, cand, _pack(own_rows), _pack(tab.member),
                                    own_bound)
    scale = math.lcm(*(s.scale for s in shapes), _lcm_of_positive(d))
    headroom = max(max(s.headroom for s in shapes), int(own_bound.max(initial=0)) + m + 2)
    # a step's numerator is slack x (scale / d) on a row that caps it; an
    # entry of d < 0 caps nothing and reads -1
    kind = np.int32 if scale < 2 ** 31 else np.int64 if scale < INT64_SAFE else object
    unit = np.array(scale, dtype=kind)
    cap_quota = (unit // tab.cap_d).astype(kind)
    e_quota = np.where(d > 0, unit // np.maximum(d, 1), -1).astype(kind)

    targets = [s.integer_target for s in states]
    res = np.array([nums + (0,) * (m - len(nums)) for nums, _ in targets],
                   dtype=object).reshape(len(states), m)
    den = np.array([dn for _, dn in targets], dtype=object)
    sig = den.copy()
    count = np.bincount(pst, minlength=len(states))
    limit = (np.array([len(s.upper) + len(s.lower) + s.m + 8 for s in shapes])[which]
             + n_own + count)
    ids = np.arange(len(states))
    # per round the (state, candidate, step, step's denominator) of each
    # state that stepped
    steps: list[tuple[np.ndarray, ...]] = []
    exhausted = np.zeros(len(states), dtype=bool)
    stuck = count == 0
    rounds = 0

    while True:
        # settle the states that are stuck, whose sigma reached zero, or
        # whose rounds ran out
        done = stuck | (sig == 0) | (rounds == limit)
        if done.any():
            ok = ~stuck & (sig == 0) & ~(res != 0).any(axis=1)
            exhausted[ids[ok]] = True
            for j in np.flatnonzero(done & ~ok).tolist():
                out[ids[j]] = DecompositionFailure(
                    "decomposition did not exhaust the target" if not stuck[j] else
                    "no candidates" if rounds == 0 else
                    "decomposition stuck; target outside the polytope")
            keep = ~done
            ids, res, sig, den, limit = ids[keep], res[keep], sig[keep], den[keep], limit[keep]
            (pst, cand), e_pair, (e_row, e_quota) = _keep_pairs(
                keep[pst], ((np.cumsum(keep) - 1)[pst], cand), e_pair, (e_row, e_quota))
        if not ids.size:
            break
        rounds += 1

        top = max(int(np.abs(res).max(initial=0)), int(sig.max()))
        dtype = np.int64 if top * headroom * scale < INT64_SAFE else object
        res, sig = res.astype(dtype, copy=False), sig.astype(dtype, copy=False)
        shape_at = which[ids]

        # the slack rows of each distinct (shape, residual, sigma) once, and
        # each distinct (group, candidate) of the live pairs once
        group, first = _groups(shape_at, res, sig)
        gshape = shape_at[first]
        slack, row_at, keys = _group_slack(tab, gshape, res[first], sig[first])
        of_pair, g, c = _distinct(tab, gshape, group[pst], cand)
        # own rows read their state's live place; a settled state's rows
        # read any, and no entry is left to read them
        live_at = np.zeros(len(states), dtype=np.intp)
        live_at[ids] = np.arange(len(ids))
        at = live_at[own_state]
        e_slack = (sig[at] * own_bound - (own_rows * res[at]).sum(axis=1))[e_row]

        # leaving the support or moving a tight row rules a candidate out
        # for good: r only falls where the chosen candidate sits, and the
        # chosen one keeps every tight row tight
        moved = ((tab.rule[c] & keys[g]) != 0).any(axis=1)
        live = ~moved[of_pair]
        live[e_pair[e_slack == 0]] = False
        (pst, cand, of_pair), e_pair, (e_row, e_quota, e_slack) = _keep_pairs(
            live, (pst, cand, of_pair), e_pair, (e_row, e_quota, e_slack))

        # every live pair's largest step: the least of its group's cap on
        # its candidate and its own rows' caps; per state the first largest
        caps = np.zeros(len(g), dtype=dtype)
        caps[~moved] = _least_caps(tab, cap_quota, slack, row_at[g[~moved]], c[~moved])
        step = caps[of_pair]
        capping = e_quota > 0
        np.minimum.at(step, e_pair[capping], e_slack[capping] * e_quota[capping])
        count = np.bincount(pst, minlength=len(ids))
        t = np.zeros(len(ids), dtype=dtype)
        t[count > 0] = np.maximum.reduceat(step, (np.cumsum(count) - count)[count > 0])
        best_at = np.flatnonzero(step == t[pst])
        best_at = best_at[_run_starts(pst[best_at])]
        best = np.zeros(len(ids), dtype=np.intp)
        best[pst[best_at]] = cand[best_at]
        stuck = t <= 0
        t[stuck] = 0
        q = den * scale
        steps.append((ids[~stuck], (best - tab.cand_at[shape_at])[~stuck], t[~stuck], q[~stuck]))

        res = res * scale - t[:, None] * tab.member[best].astype(dtype)
        sig = sig * scale - t
        gcd = np.gcd.reduce(np.concatenate([res, sig[:, None]], axis=1), axis=1).astype(object)
        div = np.gcd(gcd, q)
        div[gcd == 0] = 1
        den = q // div
        div = div.astype(dtype)
        res //= div[:, None]
        sig //= div

    for b, w in zip(np.flatnonzero(exhausted).tolist(), _weights(steps, exhausted)):
        out[b] = w
    return out


def _own_entries(n_own: np.ndarray, pst: np.ndarray, cand: np.ndarray, own_words: np.ndarray,
                 member_words: np.ndarray, own_bound: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (pair, own row) entries whose row the pair's candidate moves:
    each entry's pair, row and the d != 0 by which a unit step lowers the
    row's slack.  Row k of every state at a time, so the temporaries are
    the size of the pairs."""
    first = np.cumsum(n_own) - n_own
    out = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int64))]
    for k in range(int(n_own.max(initial=0))):
        pair = np.flatnonzero(n_own[pst] > k)
        row = first[pst[pair]] + k
        d = own_bound[row] - np.bitwise_count(own_words[row] & member_words[cand[pair]]).sum(
            axis=1, dtype=np.int64)
        out.append((pair[d != 0], row[d != 0], d[d != 0]))
    return tuple(np.concatenate(x) for x in zip(*out))


def _keep_pairs(keep: np.ndarray, pairs: tuple[np.ndarray, ...], e_pair: np.ndarray,
                entries: tuple[np.ndarray, ...]) -> tuple:
    """The pair arrays at the pairs ``keep`` marks, and the own-row entries
    of those pairs, their pair renumbered."""
    e_keep = keep[e_pair]
    return (tuple(a[keep] for a in pairs), (np.cumsum(keep) - 1)[e_pair[e_keep]],
            tuple(a[e_keep] for a in entries))


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``a`` starts."""
    new = np.ones(len(a), dtype=bool)
    new[1:] = a[1:] != a[:-1]
    return new


def _groups(shape_at: np.ndarray, res: np.ndarray, sig: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Per state its group, the states of one (shape, residual, sigma),
    and per group one of its states; on Python ints each state alone."""
    if res.dtype == object:
        return np.arange(len(sig)), np.arange(len(sig))
    key = np.concatenate([shape_at[:, None], sig[:, None], res], axis=1)
    # each row as one opaque byte string: equal rows are equal strings
    rows, group = np.unique(key.view(np.dtype((np.void, key.itemsize * key.shape[1]))),
                            return_inverse=True)
    group = group.reshape(-1)
    first = np.empty(len(rows), dtype=np.intp)
    first[group] = np.arange(len(group))
    return group, first


def _group_slack(tab: _Tables, shape_at: np.ndarray, res: np.ndarray, sig: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each group's slack rows end to end, where each group's rows start, and
    per group the packed key of its tight rows.  An edge row reads
    max(r_e, 0): an edge at r_e <= 0 is out of the support."""
    owner, within = _ragged(tab.width[shape_at])
    rows = tab.row_at[shape_at][owner] + within
    slack = (tab.coef[rows] * res[owner]).sum(axis=1) + tab.const[rows] * sig[owner]
    slack[tab.edge[rows] & (slack < 0)] = 0
    tight = np.zeros((len(shape_at), tab.rule.shape[1] * 64), dtype=bool)
    tight[owner, within] = slack == 0
    width = tab.width[shape_at]
    return slack, np.cumsum(width) - width, _pack(tight)


def _distinct(tab: _Tables, shape_at: np.ndarray, group: np.ndarray, cand: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (group, candidate) pairs, each once: per pair its
    index among them, and per distinct pair its group and candidate."""
    n = tab.n_cands[shape_at]
    at = np.cumsum(n) - n
    place = at[group] + cand - tab.cand_at[shape_at][group]
    seen = np.zeros(n.sum(), dtype=bool)
    seen[place] = True
    distinct = np.flatnonzero(seen)
    g = np.repeat(np.arange(len(n)), n)[distinct]
    return (np.cumsum(seen) - 1)[place], g, distinct - at[g] + tab.cand_at[shape_at[g]]


def _least_caps(tab: _Tables, cap_quota: np.ndarray, slack: np.ndarray, row_at: np.ndarray,
                cand: np.ndarray) -> np.ndarray:
    """Per (group, candidate), given by where the group's slack rows start
    and the candidate, the smallest cap of its cap list, slack x quota."""
    lo = tab.cap_ptr[cand]
    lens = tab.cap_ptr[cand + 1] - lo
    starts = np.cumsum(lens) - lens
    # the cap lists end to end, one cell per (pair, list entry)
    entry = np.repeat(lo - starts, lens)
    entry += np.arange(len(entry))
    caps = slack[np.repeat(row_at, lens) + tab.cap_row[entry]]
    caps *= cap_quota[entry]
    return np.minimum.reduceat(caps, starts)


def _weights(steps: list[tuple[np.ndarray, ...]], exhausted: np.ndarray
             ) -> list[Decomposition]:
    """Per exhausted state, in order, its steps summed over their least
    common denominator.  A state takes a candidate at most once: its step
    tightens a row the candidate moves, which rules it out."""
    if not exhausted.any():
        return []
    s, c, t, q = (np.concatenate(x) for x in zip(*steps))
    # by state, then round: a state steps at most once a round
    at = np.repeat(np.arange(len(steps)), [len(x[0]) for x in steps])
    keep = exhausted[s]
    order = np.argsort(s[keep] * len(steps) + at[keep])
    s, c, t, q = (x[keep][order] for x in (s, c, t, q))
    new = _run_starts(s)
    starts = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    den = np.lcm.reduceat(q, starts)
    num = t.astype(object) * (den[seg] // q)
    g = np.gcd(np.gcd.reduceat(num, starts), den)
    num, c = (num // g[seg]).tolist(), c.tolist()
    return [Decomposition(tuple(c[a:b]), tuple(num[a:b]), dn) for a, b, dn in zip(
        starts.tolist(), starts[1:].tolist() + [len(s)], (den // g).tolist())]
