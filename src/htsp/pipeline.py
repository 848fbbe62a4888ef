"""Whole-instance tree sampling over the cut hierarchy.

Each non-leaf node gets a piece sampler: degree pieces run the matching,
shifting, and constrained-tree machinery (matroid route, max-entropy
route, or a per-trial mix), K5 pieces draw a uniform Hamiltonian path,
and cycle pieces draw one edge per partner pair.  The union over pieces
is a rooted tree: the root vertex keeps degree two and everything else is
spanned exactly once.

Degree-piece sampling states (matching, color class, surgery branch) form
a finite mixture, so every piece also exposes its full tree distribution,
exactly: the matroid route's rationals, or a float table's entries read as
the dyadic rationals they are.  Every sampled
command draws blocks of trials from these compiled distributions.  Under
``htsp sample --dump-shift`` a degree piece's walk is drawn after its tree,
from the exact posterior of the walk's visits given the tree
(``ShiftLedger``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import AssemblyError, ConfigError, InfeasibleShift, SizeLimitExceeded
from .hierarchy import CutHierarchy, LocalMultigraph
from .matching import (
    SURGERY_MOVE,
    ShiftedSolution,
    _interior_at,
    _parts_from_submatching,
    _shifted,
    provenance,
    seven_coloring,
    surgery_drops,
    surgery_options,
    surgery_parts,
)
from .params import DEFAULT_MIX_LAMBDA, HALF
from .trees import (
    TreeWeights,
    constrained_tree_weights,
    k5_paths,
    maxent_fits,
    maxent_tree_law,
)

DECOMPOSITION_INTERIOR_LIMIT = 12


@dataclass(frozen=True)
class SamplerParams:
    """Which tree sampler degree pieces use, and its mix."""

    sampler: str = "mix"  # 'mi' | 'maxent' | 'mix'
    mix_lambda: Fraction = DEFAULT_MIX_LAMBDA

    def __post_init__(self):
        if self.sampler not in ("mi", "maxent", "mix"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if not 0 <= self.mix_lambda <= 1:
            raise ConfigError(f"mix_lambda {self.mix_lambda} is outside [0, 1]")

    @classmethod
    def from_float(cls, sampler: str, mix_lambda: float) -> "SamplerParams":
        """Parameters from a float mix, as the CLI and configs give it."""
        if not math.isfinite(mix_lambda):
            raise ConfigError(f"mix_lambda {mix_lambda} is not a finite number")
        return cls(sampler, Fraction(mix_lambda).limit_denominator(10 ** 9))

    @property
    def effective_lambda(self) -> Fraction:
        """Max-entropy share implied by the sampler choice."""
        if self.sampler == "mi":
            return Fraction(0)
        if self.sampler == "maxent":
            return Fraction(1)
        return Fraction(self.mix_lambda)


# ---------------------------------------------------------------------------
# piece samplers
# ---------------------------------------------------------------------------

class CyclePieceSampler:
    """One edge per partner pair; the topmost piece also draws its root pairs."""

    kind = "cycle"

    def __init__(self, piece: LocalMultigraph, is_root: bool):
        self.pairs: list[tuple[int, int]] = [tuple(p) for p in piece.internal_pairs()]
        if is_root:
            self.pairs += [tuple(p) for p in piece.external_pairs()]
        #: per edge id, its pair's index and its side in the pair
        self._pair_of = {e: (j, side) for j, pair in enumerate(self.pairs)
                         for side, e in enumerate(pair)}

    def draw_rows(self, T: np.ndarray, rng: np.random.Generator) -> None:
        """Draw a block of trials into ``T``, which holds one row of trials
        per edge id: each pair's first edge row, then its second."""
        if self.pairs:
            first, second = np.array(self.pairs, dtype=np.intp).T
            # drawn (trials, pairs) and transposed: the order the stream is
            # read in fixes which trees a seed gives
            pick = np.less(rng.random((T.shape[1], len(first))).T, 0.5)
            T[first] = pick
            T[second] = np.logical_not(pick, out=pick)

    def parity_law(self, sets: list[set[int]]) -> tuple[dict[int, int], int]:
        """Law of the drawn edges' parities on ``sets``, as in ``join.parity_law``:
        each pair flips the sets holding the edge it picks.  The t pairs
        that touch a set are convolved in pair order, and the law counts
        their choices per state, over the denominator 2**t; the other pairs
        drop out."""
        flips: dict[int, list[int]] = {}
        for i, ids in enumerate(sets):
            for e in ids:
                at = self._pair_of.get(e)
                if at is not None:
                    flips.setdefault(at[0], [0, 0])[at[1]] |= 1 << i
        law = {0: 1}
        for j in sorted(flips):
            acc: dict[int, int] = {}
            for state, count in law.items():
                for flip in flips[j]:
                    acc[state ^ flip] = acc.get(state ^ flip, 0) + count
            law = acc
        return law, 1 << len(flips)

    def exact_marginal(self, eid: int) -> Fraction:
        return HALF


class GuideTable:
    """Index lookup into a cumulative distribution by a guide table (Chen
    and Asau, 1974).  A draw u gets ``min(searchsorted(cdf, u, "right"),
    K - 1)`` for K entries: the first index whose entry is above u, the
    last index for a draw at or past the total (which floats may leave just
    below 1)."""

    #: stepping passes before the remaining draws fall back to a search
    PASSES = 2

    def __init__(self, cdf: np.ndarray):
        # the last entry raised to infinity: a search then stops at K - 1
        self.cdf = np.array(cdf, dtype=float)
        self.cdf[-1] = np.inf
        # 2K buckets; bucket j holds the first index whose entry is above j / 2K
        buckets = 2 * len(self.cdf)
        self.guide = np.searchsorted(self.cdf, np.arange(buckets) / buckets, side="right")

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """The index of each draw of ``u``, an array of floats in [0, 1)."""
        cdf = self.cdf
        # one bucket below floor(u * 2K), so that the bucket's edge is never
        # above u even where the product rounds up to the next integer; from
        # there, step forward while the entry is not above u
        start = (u * len(self.guide)).astype(np.intp)
        start -= 1
        np.maximum(start, 0, out=start)
        idx = self.guide[start]
        for _ in range(self.PASSES):
            idx += cdf[idx] <= u
        late = np.flatnonzero(cdf[idx] <= u)
        if late.size:
            idx[late] = np.searchsorted(cdf, u[late], side="right")
        return idx


class EnumeratedPieceSampler:
    """Degree or K5 piece with a fully enumerated interior-tree mixture.

    The trees are given as uint64 masks over the positions of ``edge_ids``
    (ascending, as a piece's interior graph lists them) and kept only as
    the table ``holds``: one row per edge id the trees use (``cols``), one
    column per tree.  The trees run in the order of their ascending
    edge-id lists; all have one size, so of two trees the one holding the
    first edge where they differ comes first.

    ``weights`` are the trees' float probabilities, or with ``den`` their
    exact probabilities as integer numerators over ``den``.  Every piece
    keeps its exact law as integer numerators over their lowest common
    denominator (``exact_nums`` over ``exact_den``).  Exact weights give
    them directly, and the float probabilities ``probs`` are their
    quotients, correctly rounded, then normalized.  Float weights are
    normalized into ``probs``, and each entry of ``probs``, a dyadic
    rational, is read exactly over the exact sum of the entries: the law
    the guide table draws, up to the rounding of its cdf."""

    def __init__(self, kind: str, edge_ids: Sequence[int], masks: np.ndarray,
                 weights: Sequence, den: Optional[int] = None):
        self.kind = kind
        # one row per edge position, one column per tree
        held = np.unpackbits(masks.astype("<u8").view(np.uint8).reshape(-1, 8),
                             axis=1, bitorder="little")[:, :len(edge_ids)].T.astype(bool)
        order = np.lexsort(~held[::-1])
        used = held.any(axis=1)
        #: the edges the trees use, and per edge which trees hold it: one
        #: contiguous row of trees per edge, so a block of draws is a take
        #: along each row
        self.cols = np.asarray(edge_ids, dtype=np.intp)[used]
        self._col_of = {e: i for i, e in enumerate(self.cols.tolist())}
        self.holds = np.ascontiguousarray(held[used][:, order])
        if den is None:
            probs = np.asarray(weights, dtype=float)[order]
            probs = probs / probs.sum()
            ratios = [p.as_integer_ratio() for p in probs.tolist()]
            unit = max(d for _, d in ratios)
            nums = [k * (unit // d) for k, d in ratios]
            den = sum(nums)
        else:
            nums = [weights[i] for i in order.tolist()]
            # an int quotient rounds correctly, in lowest terms or not
            probs = np.array([k / den for k in nums])
            probs = probs / probs.sum()
        self.probs = probs
        g = math.gcd(den, *nums)
        self.exact_nums = tuple([k // g for k in nums])
        self.exact_den = den // g
        if sum(self.exact_nums) != self.exact_den:
            raise AssemblyError(f"{kind} piece tree probabilities do not sum to 1")
        self.table = GuideTable(np.cumsum(self.probs))

    @property
    def trees(self) -> tuple[frozenset[int], ...]:
        """Every tree as its edge ids, read off ``holds`` on each access."""
        return tuple(frozenset(self.cols[held].tolist()) for held in self.holds.T)

    def draw_rows(self, T: np.ndarray, rng: np.random.Generator) -> None:
        """Draw a block of trials into ``T``, which holds one row of trials
        per edge id, by a lookup into the trees' cdf: per edge of ``cols``,
        whether each drawn tree holds it."""
        T[self.cols] = np.take(self.holds, self.table.lookup(rng.random(T.shape[1])), axis=1)

    def edge_counts(self, ids) -> np.ndarray:
        """Per tree, how many of the edges ``ids`` it holds."""
        return np.count_nonzero(self.holds[[self._col_of[e] for e in ids if e in self._col_of]],
                                axis=0)

    def probability(self, event: np.ndarray) -> Fraction:
        """The probability of the trees ``event`` marks: one ``Fraction`` of
        the summed numerators."""
        nums = self.exact_nums
        return Fraction(sum([nums[i] for i in np.flatnonzero(event).tolist()]), self.exact_den)

    def parity_law(self, sets: list[set[int]]) -> tuple[dict[int, int], int]:
        """Law of the tree's parities on ``sets``, as in ``join.parity_law``:
        summed numerators over ``exact_den``."""
        states = np.zeros(len(self.probs), dtype=np.int64)
        for i, ids in enumerate(sets):
            states |= (self.edge_counts(ids) & 1) << i
        law: dict[int, int] = {}
        for state, k in zip(states.tolist(), self.exact_nums):
            law[state] = law.get(state, 0) + k
        return law, self.exact_den

    def exact_marginal(self, eid: int) -> Fraction:
        return self.probability(self.edge_counts([eid]))


def k5_sampler(piece: LocalMultigraph) -> EnumeratedPieceSampler:
    paths = k5_paths(piece)
    return EnumeratedPieceSampler("k5", piece.internal_graph()[0].edge_ids, paths,
                                  [1] * len(paths), den=len(paths))


# -- degree-piece state enumeration -----------------------------------------

def _submask_of_class(classes: list[list[int]], cls: int) -> int:
    mask = 0
    for i in classes[cls]:
        mask |= 1 << i
    return mask


def _class_submasks(classes: list[list[int]]) -> list[tuple[int, int]]:
    """Each distinct class submask with the number of classes giving it,
    in class order: empty classes all give the same shifted state."""
    counts: dict[int, int] = {}
    for cls in range(len(classes)):
        sub = _submask_of_class(classes, cls)
        counts[sub] = counts.get(sub, 0) + 1
    return list(counts.items())


def _check_interior(piece: LocalMultigraph) -> None:
    if piece.graph.n - 1 > DECOMPOSITION_INTERIOR_LIMIT:
        raise SizeLimitExceeded(
            f"piece interior {piece.graph.n - 1} exceeds enumeration limit "
            f"{DECOMPOSITION_INTERIOR_LIMIT}"
        )


def _piece_states(piece: LocalMultigraph, classes: bool, built: Optional[dict] = None,
                  steps: Optional[list] = None
                  ) -> tuple[list[ShiftedSolution], list[tuple[int, int]], int]:
    """A degree piece's sampling states, each distinct state once, the
    walk's visits to them as (weight, state index) in walk order, and the
    denominator of the weights: a visit's probability is its integer
    weight over the piece's one denominator.

    The walk takes a matching of each split piece, then a color class
    (with ``classes``, the matroid route) or the empty sub-matching
    (without, the max-entropy route), then on an odd piece a surgery
    branch and its drop.  Color classes that give one submask are one
    visit, at their summed probability.  A state is fixed by its matching,
    surgery kind, adjusted edge and parts (the split pieces share their
    edge positions); the trigger edge of a surgery branch only enters the
    provenance, which is the first visit's, so two triggers at one
    boundary vertex visit one state.  ``built`` keeps the states by key
    across walks: the two routes share the max-entropy route's states.
    ``steps``, if given, gets each visit's own step in walk order, the
    arguments of ``matching.provenance``: its sampling graph, matching,
    sub-matching, surgery branch and split pairing.

    The weights count in units of the matching weights' least common
    denominator, of the seven classes and, on an odd piece, of the three
    pairings, of a branch's share of 1/24 (a decrease branch takes 2, an
    increase branch 4) and of the two drops that split an increase."""
    _check_interior(piece)
    odd = piece.graph.n % 2 == 1
    states: list[ShiftedSolution] = []
    visits: list[tuple[int, int]] = []
    index: dict[tuple, int] = {}
    built = {} if built is None else built

    def visit(weight: int, key: tuple, build, step: tuple) -> None:
        if key not in index:
            if key not in built:
                built[key] = build()
            index[key] = len(states)
            states.append(built[key])
        visits.append((weight, index[key]))
        if steps is not None:
            steps.append(step)

    unit = math.lcm(*(w.denominator for _, dist in piece.split_matchings for w in dist.weights))
    even_parts: dict[int, tuple] = {}
    # the states are built by ``matching._shifted`` from the parts the walk
    # has already read
    for sp, dist in piece.split_matchings:
        g = sp.graph if odd else piece.graph
        interior = sp.interior_graph() if odd else piece.internal_graph()[0]
        at = sp.interior_at if odd else _interior_at(g, interior)
        for mk, w in zip(dist.masks, dist.weights):
            wk = w.numerator * (unit // w.denominator)
            subs = _class_submasks(seven_coloring(g, mk)) if classes else [(0, 7)]
            if not odd:
                for sub, k in subs:
                    if sub not in even_parts:
                        even_parts[sub] = _parts_from_submatching(
                            g, set(piece.internal_edge_ids), sub)
                    parts = even_parts[sub]
                    visit(wk * k, (mk, None, None, parts),
                          lambda: _shifted(g, interior, at, parts, mk, sub),
                          (g, mk, sub, None, None))
                continue
            options = surgery_options(sp, mk)
            for sub, k in subs:
                for kind, e, f, pb in options:
                    share = wk * k * pb.numerator * (24 // pb.denominator)
                    drops = surgery_drops(sp, sub, kind, f)
                    for dropped in drops:
                        parts = surgery_parts(sp, sub, f, dropped)
                        # one or two drops share the branch
                        visit(share * (2 // len(drops)), (mk, kind, f, parts),
                              lambda: _shifted(g, interior, at, parts, mk, sub,
                                               (kind, e, f, dropped), SURGERY_MOVE[kind],
                                               sp.pairing),
                              (g, mk, sub, (kind, e, f, dropped), sp.pairing))
    return states, visits, unit * (7 * 3 * 24 * 2 if odd else 7)




class DegreePieceSampler:
    """Runs both routes on one degree piece and mixes their tree laws."""

    kind = "degree"

    def __init__(self, piece: LocalMultigraph, params: SamplerParams):
        self.params = params
        self.piece = piece
        #: the states both walks build, by key, until the compile ends
        self._built: dict = {}

    @functools.cached_property
    def _edge_ids(self) -> tuple[int, ...]:
        """The interior edge ids every state's interior graph lists, in its
        order: the positions of every tree mask of the piece."""
        return self.piece.internal_graph()[0].edge_ids

    # -- per-state tree laws ----------------------------------------------

    @staticmethod
    def _mi_weights(states: list[ShiftedSolution]) -> list[TreeWeights]:
        """Each state's decomposition, all in one batch; a state that fails
        raises, in state order."""
        weights = constrained_tree_weights(states)
        for w in weights:
            if isinstance(w, InfeasibleShift):
                raise w
        return weights

    def _maxent_laws(self, states: list[ShiftedSolution]) -> tuple[list[int], list[tuple]]:
        """Each distinct interior vector's tree law once, its fit made in one
        ``maxent_fits`` call, and per state the index of its law."""
        first: dict = {}
        for sh in states:
            first.setdefault(sh.interior_thirds, sh)
        fits = maxent_fits([(sh.interior_graph, sh.interior_thirds, 3) for sh in first.values()])
        law_of = {key: i for i, key in enumerate(first)}
        return ([law_of[sh.interior_thirds] for sh in states],
                [maxent_tree_law(fit, self._edge_ids) for fit in fits])

    # -- full mixtures ------------------------------------------------------

    def mi_mixture(self) -> tuple[np.ndarray, list[int], int]:
        """The matroid route's trees as position masks, and their exact
        probabilities as integer numerators over one common denominator,
        which the function returns last.  Each distinct state is
        decomposed once, all of them in one batch, at the summed
        probability of its visits; a state that fails raises in the order
        of first visits."""
        states, visits, visit_den = _piece_states(self.piece, True, self._built)
        prob = [0] * len(states)
        for k, i in visits:
            prob[i] += k
        weights = self._mi_weights(states)
        den = math.lcm(*(w.denominator for w in weights))
        total: dict[int, int] = {}
        for pr, w in zip(prob, weights):
            scale = pr * (den // w.denominator)
            for t, k in zip(w.trees, w.numerators):
                total[t] = total.get(t, 0) + scale * k
        den *= visit_den
        if sum(total.values()) != den:
            raise AssemblyError("matroid-route tree mixture does not sum to 1")
        return np.array(list(total), dtype=np.uint64), list(total.values()), den

    def maxent_mixture(self) -> tuple[np.ndarray, np.ndarray]:
        """The max-entropy route's trees as ascending position masks and
        their float probabilities, each added visit by visit."""
        states, visits, visit_den = _piece_states(self.piece, False, self._built)
        law_of, laws = self._maxent_laws(states)
        # all the laws' trees indexed in one sorted array
        masks, where = np.unique(np.concatenate([m for m, _ in laws]), return_inverse=True)
        starts = np.cumsum([0] + [len(m) for m, _ in laws])
        acc = np.zeros(len(masks))
        for k, i in visits:
            j = law_of[i]
            # an int quotient rounds correctly, as the float of a Fraction does
            np.add.at(acc, where[starts[j]:starts[j + 1]], k / visit_den * laws[j][1])
        return masks, acc

    def compiled(self) -> EnumeratedPieceSampler:
        """The piece's tree mixture on its route mix; the walk's states are
        dropped."""
        lam = self.params.effective_lambda
        den = None
        if lam == 0:
            masks, probs, den = self.mi_mixture()
        else:
            masks, probs = self.maxent_mixture()
            probs = float(lam) * probs
            if lam != 1:
                # the routes mixed tree by tree: the max-entropy share first
                mi_masks, nums, mi_den = self.mi_mixture()
                masks, where = np.unique(np.concatenate([masks, mi_masks]),
                                         return_inverse=True)
                acc = np.zeros(len(masks))
                acc[where[:len(probs)]] = probs
                acc[where[len(probs):]] += float(1 - lam) * np.array([k / mi_den for k in nums])
                probs = acc
        out = EnumeratedPieceSampler("degree", self._edge_ids, masks, probs, den=den)
        self._built.clear()
        return out

    # -- the walk's joint law with the tree -----------------------------------

    def walk_visits(self) -> list[tuple[str, tuple, object, dict]]:
        """Every visit of the walk on each route the mix draws from, the
        max-entropy route first, as its route, its step (the arguments of
        ``matching.provenance``), its probability (the route's share times
        the visit's weight over its denominator, a ``Fraction``) and its
        state's tree law, a dict of position masks to probabilities:
        ``Fraction``s on the matroid route, the fit's floats on the
        max-entropy route.  Built by the compile's own walk, decompositions
        and fits."""
        lam = self.params.effective_lambda
        out = []
        for route, share in (("maxent", lam), ("mi", 1 - lam)):
            if share == 0:
                continue
            steps: list = []
            states, visits, den = _piece_states(self.piece, route == "mi", self._built, steps)
            if route == "mi":
                laws = [dict(zip(w.trees, (Fraction(k, w.denominator) for k in w.numerators)))
                        for w in self._mi_weights(states)]
            else:
                law_of, fitted = self._maxent_laws(states)
                tables = [dict(zip(m.tolist(), p.tolist())) for m, p in fitted]
                laws = [tables[j] for j in law_of]
            out += [(route, step, share * Fraction(k, den), laws[i])
                    for (k, i), step in zip(visits, steps)]
        self._built.clear()
        return out


PieceSampler = Union[CyclePieceSampler, EnumeratedPieceSampler]


def build_piece_samplers(h: CutHierarchy, params: SamplerParams) -> dict[int, PieceSampler]:
    """Compiled sampler per non-leaf node, keyed by node id."""
    out: dict[int, PieceSampler] = {}
    for nd in h.non_leaves():
        if nd.kind == "cycle":
            out[nd.node_id] = CyclePieceSampler(nd.piece, nd.is_root)
        elif nd.piece.graph.n == 5:
            out[nd.node_id] = k5_sampler(nd.piece)
        else:
            out[nd.node_id] = DegreePieceSampler(nd.piece, params).compiled()
    return out


# ---------------------------------------------------------------------------
# the walk behind a drawn tree
# ---------------------------------------------------------------------------

class ShiftPosterior:
    """A degree piece's walk given its tree.  Visit v of a route and tree T
    have the joint weight P(route) * P(v | route) * P(T | state of v), the
    walk's joint law; normalized over the visits, it is the posterior of
    the walk given T, from which ``draw`` takes one visit."""

    def __init__(self, piece: LocalMultigraph, params: SamplerParams):
        self.position = {eid: i for i, eid in enumerate(piece.internal_graph()[0].edge_ids)}
        self.visits = DegreePieceSampler(piece, params).walk_visits()
        #: per tree mask, the visits that reach it and the lookup table of
        #: their posterior, built on the tree's first draw
        self._tables: dict[int, tuple[np.ndarray, GuideTable]] = {}

    def joint(self, tree: int) -> list:
        """Per visit, its joint weight with the tree of position mask
        ``tree``: exact on the matroid route, a float where a max-entropy
        law enters."""
        return [p * law.get(tree, 0) for _, _, p, law in self.visits]

    def draw(self, edges: frozenset[int], rng: np.random.Generator) -> dict:
        """The ledger of one visit drawn from the posterior given the
        piece's edges among ``edges``, by one uniform of ``rng``."""
        tree = sum(1 << i for eid, i in self.position.items() if eid in edges)
        if tree not in self._tables:
            w = np.array([float(x) for x in self.joint(tree)])
            reach = np.flatnonzero(w > 0)
            if not reach.size:
                raise AssemblyError(f"no walk of the piece reaches the tree {sorted(edges)}")
            self._tables[tree] = reach, GuideTable(np.cumsum(w[reach] / w[reach].sum()))
        reach, table = self._tables[tree]
        route, step, _, _ = self.visits[int(reach[table.lookup(rng.random(1))[0]])]
        return dict(provenance(*step), mode=route)


class ShiftLedger:
    """What ``htsp sample --dump-shift`` prints per piece of a tree: the
    mode of a cycle or K5 piece, and for a degree piece the ledger of its
    walk drawn from the posterior given the tree (``ShiftPosterior``,
    built on the piece's first draw).  Trial t's draw at piece i reads its
    own stream ``SeedSequence(seed, spawn_key=(t, i))``, so the trees do
    not depend on the ledger."""

    def __init__(self, h: CutHierarchy, params: SamplerParams, seed: int):
        from .engine import check_seed  # a local import: the engine imports this module
        check_seed(seed=seed)
        self.nodes = sorted(h.non_leaves(), key=lambda nd: nd.node_id)
        self.params = params
        self.seed = seed
        self._posteriors: dict[int, ShiftPosterior] = {}

    def draw(self, trial: int, edges: frozenset[int]) -> dict[int, dict]:
        """Each non-leaf node's ledger for trial ``trial``'s tree ``edges``,
        by node id."""
        out: dict[int, dict] = {}
        for nd in self.nodes:
            if nd.kind == "cycle" or nd.piece.graph.n == 5:
                out[nd.node_id] = {"mode": "cycle" if nd.kind == "cycle" else "k5"}
                continue
            if nd.node_id not in self._posteriors:
                self._posteriors[nd.node_id] = ShiftPosterior(nd.piece, self.params)
            rng = np.random.default_rng(np.random.SeedSequence(self.seed,
                                                               spawn_key=(trial, nd.node_id)))
            out[nd.node_id] = self._posteriors[nd.node_id].draw(edges, rng)
        return out
