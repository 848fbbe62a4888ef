"""Whole-instance tree sampling over the cut hierarchy.

Each non-leaf node gets a piece sampler: degree pieces run the matching,
shifting, and constrained-tree machinery (matroid route, max-entropy
route, or a per-trial mix), K5 pieces draw a uniform Hamiltonian path,
and cycle pieces draw one edge per partner pair.  The union over pieces
is a rooted tree: the root vertex keeps degree two and everything else is
spanned exactly once.

Degree-piece sampling states (matching, color class, surgery branch) form
a finite mixture, so every piece also exposes its full tree distribution;
the matroid route's probabilities are exact rationals.  Batch experiments
draw from these compiled distributions; single-trial sampling takes the
same states one random step at a time, draws the state's tree from its
own table, and keeps the full provenance ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import AssemblyError, ConfigError, InfeasibleShift, SizeLimitExceeded
from .graph import bits, find_root
from .hierarchy import CutHierarchy, LocalMultigraph
from .matching import (
    THIRD,
    ShiftedSolution,
    apply_surgery,
    odd_surgery,
    seven_coloring,
    shift,
    surgery_drops,
    surgery_options,
)
from .params import DEFAULT_MIX_LAMBDA
from .trees import (
    constrained_tree_weights,
    k5_paths,
    maxent_fit,
    maxent_tree_distribution,
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

    def __init__(self, piece: LocalMultigraph, is_root: bool, node_id: Optional[int] = None):
        self.piece = piece
        self.node_id = node_id
        self.pairs: list[tuple[int, int]] = [tuple(p) for p in piece.internal_pairs()]
        if is_root:
            self.pairs += [tuple(p) for p in piece.external_pairs()]

    def sample(self, rng: np.random.Generator) -> tuple[frozenset[int], dict]:
        picks = rng.integers(0, 2, size=len(self.pairs))
        edges = frozenset(p[int(k)] for p, k in zip(self.pairs, picks))
        return edges, {"mode": "cycle"}

    def draw_block(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``n`` draws at once: the edge ids, first edges of the pairs then
        second edges, and per id a row of trials saying whether it is drawn."""
        pairs = np.array(self.pairs, dtype=np.intp).reshape(-1, 2)
        p = len(pairs)
        block = np.empty((2 * p, n), dtype=bool)
        if p:
            # drawn (trials, pairs) and transposed: the order the stream is
            # read in fixes which trees a seed gives
            np.less(rng.random((n, p)).T, 0.5, out=block[:p])
            np.logical_not(block[:p], out=block[p:])
        return pairs.T.ravel(), block

    def parity_law(self, sets: list[set[int]]) -> dict[int, Fraction]:
        """Law of the drawn edges' parities on ``sets``, as in ``join.parity_law``:
        each pair flips the sets holding the edge it picks, with chance 1/2."""
        law = {0: Fraction(1)}
        for a, b in self.pairs:
            flip_a = sum(1 << i for i, ids in enumerate(sets) if a in ids)
            flip_b = sum(1 << i for i, ids in enumerate(sets) if b in ids)
            if flip_a or flip_b:
                acc: dict[int, Fraction] = {}
                for state, pr in law.items():
                    for flip in (flip_a, flip_b):
                        acc[state ^ flip] = acc.get(state ^ flip, 0) + pr / 2
                law = acc
        return law

    def exact_marginal(self, eid: int) -> Fraction:
        return Fraction(1, 2)


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

    def draw(self, rng: np.random.Generator) -> int:
        """The index of one draw: one uniform of ``rng``, looked up."""
        return int(self.lookup(np.array([rng.random()]))[0])


class EnumeratedPieceSampler:
    """Degree or K5 piece with a fully enumerated interior-tree mixture."""

    def __init__(self, piece: LocalMultigraph, kind: str,
                 trees: list[frozenset[int]], probs: list,
                 exact: bool, generative, node_id: Optional[int] = None):
        self.piece = piece
        self.node_id = node_id
        self.kind = kind
        order = sorted(range(len(trees)), key=lambda i: sorted(trees[i]))
        self.trees = tuple(trees[i] for i in order)
        raw = [probs[i] for i in order]
        self.exact_probs: Optional[tuple[Fraction, ...]] = tuple(raw) if exact else None
        self.probs = np.array([float(p) for p in raw])
        self.probs = self.probs / self.probs.sum()
        self.table = GuideTable(np.cumsum(self.probs))
        self._generative = generative
        if exact and sum(raw, Fraction(0)) != 1:
            raise AssemblyError(f"{kind} piece tree probabilities do not sum to 1")
        #: the edges the trees use, and per edge which trees hold it: one
        #: contiguous row of trees per edge, so a block of draws is a take
        #: along each row
        self.cols = np.array(sorted({e for t in self.trees for e in t}), dtype=np.intp)
        self._col_of = {int(e): i for i, e in enumerate(self.cols)}
        self.holds = np.zeros((len(self.cols), len(self.trees)), dtype=bool)
        for i, t in enumerate(self.trees):
            self.holds[[self._col_of[e] for e in t], i] = True

    def sample(self, rng: np.random.Generator) -> tuple[frozenset[int], dict]:
        if self._generative is not None:
            return self._generative(rng)
        return self.trees[self.table.draw(rng)], {"mode": self.kind}

    def draw_block(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``n`` draws from the compiled mixture at once, by the lookup of
        ``sample``: the edge ids ``cols`` and per id a row of trials saying
        whether the drawn tree holds it."""
        idx = self.table.lookup(rng.random(n))
        return self.cols, np.take(self.holds, idx, axis=1)

    def parity_law(self, sets: list[set[int]]) -> dict[int, object]:
        """Law of the tree's parities on ``sets``, as in ``join.parity_law``;
        exact when the tree probabilities are."""
        probs = self.exact_probs if self.exact_probs is not None else self.probs
        states = np.zeros(len(self.trees), dtype=np.int64)
        for i, ids in enumerate(sets):
            cols = [self._col_of[e] for e in ids if e in self._col_of]
            states |= (np.count_nonzero(self.holds[cols], axis=0) & 1) << i
        law: dict[int, object] = {}
        for state, pr in zip(states.tolist(), probs):
            law[state] = law.get(state, 0) + pr
        return law

    def exact_marginal(self, eid: int):
        if self.exact_probs is not None:
            return sum(
                (p for t, p in zip(self.trees, self.exact_probs) if eid in t),
                Fraction(0),
            )
        return float(sum(p for t, p in zip(self.trees, self.probs) if eid in t))


def k5_sampler(piece: LocalMultigraph, node_id: Optional[int] = None) -> EnumeratedPieceSampler:
    paths = k5_paths(piece)
    probs = [Fraction(1, len(paths))] * len(paths)
    return EnumeratedPieceSampler(piece, "k5", paths, probs, exact=True,
                                  generative=None, node_id=node_id)


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


def _values_key(values: dict[int, Fraction]) -> tuple[tuple[int, ...], ...]:
    """Exact values as an integer key (edge ids, numerators, denominators);
    hashing ``Fraction``s is slow."""
    ids = sorted(values)
    return (tuple(ids), tuple([values[e].numerator for e in ids]),
            tuple([values[e].denominator for e in ids]))


def _check_interior(piece: LocalMultigraph) -> None:
    if piece.graph.n - 1 > DECOMPOSITION_INTERIOR_LIMIT:
        raise SizeLimitExceeded(
            f"piece interior {piece.graph.n - 1} exceeds enumeration limit "
            f"{DECOMPOSITION_INTERIOR_LIMIT}"
        )


def _piece_states(piece: LocalMultigraph, classes: bool):
    """Yield (probability, ShiftedSolution) over a degree piece's sampling
    states: a matching of each split piece, then a color class (with
    ``classes``, the matroid route) or the empty sub-matching (without,
    the max-entropy route), then on an odd piece a surgery branch and its
    drop.  Each distinct state of a matching comes once, at the summed
    probability of the color classes that give it."""
    _check_interior(piece)
    odd = piece.graph.n % 2 == 1
    for sp, dist in piece.split_matchings:
        g = sp.graph if odd else piece.graph
        for mk, w in zip(dist.masks, dist.weights):
            subs = _class_submasks(seven_coloring(g, mk)) if classes else [(0, 7)]
            if not odd:
                for sub, k in subs:
                    yield w * Fraction(k, 7), shift(piece, mk, sub)
                continue
            options = surgery_options(sp, mk)
            for sub, k in subs:
                base = THIRD * w * Fraction(k, 7)
                for kind, e, f, pb in options:
                    drops = surgery_drops(sp, sub, kind, f)
                    for dropped in drops:
                        yield base * pb / len(drops), apply_surgery(
                            sp, mk, sub, kind, e, f, dropped)


class DegreePieceSampler:
    """Runs both routes on one degree piece and caches every distribution."""

    kind = "degree"

    def __init__(self, piece: LocalMultigraph, params: SamplerParams,
                 node_id: Optional[int] = None):
        self.node_id = node_id
        self.params = params
        self.piece = piece
        self._me_cache: dict = {}
        # what single draws look up: per split piece its matchings, per
        # state its trees
        self._tables: dict = {}
        self._mi_mixture = None
        self._me_mixture = None

    # -- cached per-state distributions -----------------------------------

    def _me_fit(self, shifted: ShiftedSolution):
        values = shifted.interior_values()
        key = _values_key(values)
        if key not in self._me_cache:
            self._me_cache[key] = maxent_fit(shifted.interior_graph, values)
        return self._me_cache[key]

    def _table(self, key, build) -> tuple:
        """(outcomes, their ``GuideTable``) under ``key``, by ``build()``
        on first use: a pair of the outcomes and their probabilities."""
        if key not in self._tables:
            outcomes, probs = build()
            self._tables[key] = (outcomes, GuideTable(np.cumsum(probs)))
        return self._tables[key]

    def _matching_table(self, split: int) -> tuple:
        dist = self.piece.split_matchings[split][1]
        return self._table(("matching", split),
                           lambda: (dist.masks, [float(w) for w in dist.weights]))

    def _mi_table(self, shifted: ShiftedSolution) -> tuple:
        def build():
            (w,) = constrained_tree_weights([shifted])
            if isinstance(w, InfeasibleShift):
                raise w
            return (tuple(frozenset(bits(t)) for t in w.trees),
                    [k / w.denominator for k in w.numerators])

        return self._table(("mi", _values_key(shifted.values), shifted.parts), build)

    def _me_table(self, shifted: ShiftedSolution) -> tuple:
        return self._table(("maxent", _values_key(shifted.interior_values())),
                           lambda: maxent_tree_distribution(self._me_fit(shifted)))

    # -- full mixtures ------------------------------------------------------

    def mi_mixture(self) -> dict[frozenset[int], Fraction]:
        if self._mi_mixture is None:
            # each distinct state decomposed once, all of them in one batch;
            # a state that fails raises at its first visit
            index: dict = {}
            states: list[ShiftedSolution] = []
            visits: list[tuple[Fraction, int]] = []
            for pr, shifted in _piece_states(self.piece, classes=True):
                key = (_values_key(shifted.values), shifted.parts)
                if key not in index:
                    index[key] = len(states)
                    states.append(shifted)
                visits.append((pr, index[key]))
            weights = constrained_tree_weights(states)
            # per denominator of (state probability x tree weight), each
            # tree's integer numerator; one Fraction per tree at the end
            acc: dict[int, dict[int, int]] = {}
            for pr, i in visits:
                w = weights[i]
                if isinstance(w, InfeasibleShift):
                    raise w
                row = acc.setdefault(pr.denominator * w.denominator, {})
                for t, k in zip(w.trees, w.numerators):
                    row[t] = row.get(t, 0) + pr.numerator * k
            den = math.lcm(*acc)
            total: dict[int, int] = {}
            for d, row in acc.items():
                for t, k in row.items():
                    total[t] = total.get(t, 0) + k * (den // d)
            if sum(total.values()) != den:
                raise AssemblyError("matroid-route tree mixture does not sum to 1")
            self._mi_mixture = {frozenset(bits(t)): Fraction(k, den)
                                for t, k in total.items()}
        return self._mi_mixture

    def maxent_mixture(self) -> dict[frozenset[int], float]:
        if self._me_mixture is None:
            acc: dict[frozenset[int], float] = {}
            # each distinct fit's tree law once; not kept, as it is large
            laws: dict = {}
            for pr, shifted in _piece_states(self.piece, classes=False):
                fit = self._me_fit(shifted)
                if id(fit) not in laws:
                    laws[id(fit)] = maxent_tree_distribution(fit)
                trees, probs = laws[id(fit)]
                fpr = float(pr)
                for t, w in zip(trees, probs):
                    acc[t] = acc.get(t, 0.0) + fpr * float(w)
            self._me_mixture = acc
        return self._me_mixture

    def compiled(self) -> EnumeratedPieceSampler:
        lam = self.params.effective_lambda
        if lam == 0:
            mix = self.mi_mixture()
            trees = list(mix)
            return EnumeratedPieceSampler(
                self.piece, "degree", trees, [mix[t] for t in trees],
                exact=True, generative=self._generative, node_id=self.node_id,
            )
        me = self.maxent_mixture()
        acc: dict[frozenset[int], float] = {t: float(lam) * p for t, p in me.items()}
        if lam != 1:
            for t, p in self.mi_mixture().items():
                acc[t] = acc.get(t, 0.0) + float(1 - lam) * float(p)
        trees = list(acc)
        return EnumeratedPieceSampler(
            self.piece, "degree", trees, [acc[t] for t in trees],
            exact=False, generative=self._generative, node_id=self.node_id,
        )

    # -- generative path ----------------------------------------------------

    def _generative(self, rng: np.random.Generator) -> tuple[frozenset[int], dict]:
        """One walk through the states of ``_piece_states``: the route, the
        split piece, its matching, the color class on the matroid route,
        the surgery branch, then the state's tree."""
        use_maxent = bool(rng.random() < float(self.params.effective_lambda))
        piece = self.piece
        odd = piece.graph.n % 2 == 1
        split = int(rng.integers(0, 3)) if odd else 0
        sp = piece.split_matchings[split][0]
        masks, table = self._matching_table(split)
        mk = masks[table.draw(rng)]
        sub = 0
        if not use_maxent:
            classes = seven_coloring(sp.graph if odd else piece.graph, mk)
            sub = _submask_of_class(classes, int(rng.integers(0, 7)))
        shifted = odd_surgery(sp, mk, sub, rng) if odd else shift(piece, mk, sub)
        # drawing from the enumerated max-entropy law is equal in law to
        # sequential conditioning and much cheaper per trial
        trees, table = (self._me_table if use_maxent else self._mi_table)(shifted)
        return (trees[table.draw(rng)],
                dict(shifted.provenance, mode="maxent" if use_maxent else "mi"))


PieceSampler = Union[CyclePieceSampler, EnumeratedPieceSampler]


def build_piece_samplers(h: CutHierarchy, params: SamplerParams) -> dict[int, PieceSampler]:
    """Compiled sampler per non-leaf node, keyed by node id."""
    out: dict[int, PieceSampler] = {}
    for nd in h.non_leaves():
        if nd.kind == "cycle":
            out[nd.node_id] = CyclePieceSampler(nd.piece, nd.is_root, nd.node_id)
        elif nd.piece.graph.n == 5:
            out[nd.node_id] = k5_sampler(nd.piece, nd.node_id)
        else:
            out[nd.node_id] = DegreePieceSampler(nd.piece, params, nd.node_id).compiled()
    return out


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSample:
    """A sampled rooted tree plus per-piece provenance."""

    edges: frozenset[int]
    provenance: dict[int, dict]


def piece_rng(seed: int, trial: int, node_id: int) -> np.random.Generator:
    """Independent, reproducible stream for one piece in one trial."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial, node_id)))


def sample_r0_tree(
    h: CutHierarchy,
    params: SamplerParams,
    rng: Optional[np.random.Generator] = None,
    *,
    seed: Optional[int] = None,
    trial: int = 0,
    samplers: Optional[dict[int, PieceSampler]] = None,
) -> TreeSample:
    """Sample every piece (post-order) and validate the assembled tree."""
    if samplers is None:
        samplers = build_piece_samplers(h, params)
    edges: set[int] = set()
    prov: dict[int, dict] = {}
    for nd in sorted(h.non_leaves(), key=lambda nd: nd.node_id):
        r = rng if rng is not None else piece_rng(seed or 0, trial, nd.node_id)
        sub, p = samplers[nd.node_id].sample(r)
        edges |= sub
        prov[nd.node_id] = p
    ts = TreeSample(frozenset(edges), prov)
    validate_r0_tree(h, ts.edges)
    return ts


def validate_r0_tree(h: CutHierarchy, edges: frozenset[int]) -> None:
    g = h.instance.graph
    root = h.instance.root
    if len(edges) != g.n:
        raise AssemblyError(f"expected {g.n} edges, got {len(edges)}")
    deg_root = sum(
        1 for eid in edges if root in g.endpoints[eid]
    )
    if deg_root != 2:
        raise AssemblyError(f"root degree {deg_root}, expected 2")
    parent = list(range(g.n))
    for eid in edges:
        u, v = g.endpoints[eid]
        if root in (u, v):
            continue
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru == rv:
            raise AssemblyError("cycle among non-root edges")
        parent[ru] = rv
    comps = {find_root(parent, v) for v in range(g.n) if v != root}
    if len(comps) != 1:
        raise AssemblyError("non-root edges do not span the other vertices")
