"""Fractional odd-join construction with flow-routed charging.

Start from a quarter on every edge (half of each edge's fractional value).
An edge settled at a piece where the sampled tree left both its endpoints
even (or both canonical cuts evenly crossed) can afford a reduction; a
per-edge coin flattens the reduction probability down to the guaranteed
even-at-last lower bound for its class.  Reductions can push min-cuts at
lower hierarchy levels below one when those cuts are crossed oddly, so
each deficient cut is repaid by charging the cut's internal edges: degree
cuts split the repayment by a max-flow assignment, canonical cuts split it
evenly between the two partner edges.  Partner edges share one coin, so a
single repayment covers both of their canonical cuts at once.

This module builds the tables of that scheme once per instance; the chunk
kernels of ``engine.BatchEngine`` apply them to whole blocks of trees.  It
also holds the pairing DP of the integral join and the tour walk of one
tree; ``engine.CompiledInstance.tours`` feeds them a block's odd sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    AssemblyError,
    ConfigError,
    EstimateBelowBound,
    FlowInfeasible,
    NoPerfectMatching,
    OddSetTooLarge,
)
from .graph import augment, flow_arcs, in_units, lcm_denominator
from .hierarchy import CutHierarchy
from .params import BETA_CAP, DEFAULT_GAMMA, DEFAULT_TAU, coin_bounds
from .pipeline import PieceSampler


def coin_kind(kind: str) -> str:
    """The row of the even-at-last table that bounds an edge class."""
    return kind if kind in ("special", "half-special") else "other"


@dataclass(frozen=True)
class ReductionParams:
    """The reduction amounts of the edge classes, read by ``amount``."""

    tau: Fraction
    gamma: Fraction
    beta: Fraction

    def __post_init__(self):
        if not (0 <= self.tau <= self.gamma <= self.beta <= BETA_CAP):
            raise ConfigError(f"need 0 <= tau <= gamma <= beta <= {BETA_CAP}")
        if self.beta < 2 * self.tau or self.beta < 2 * self.gamma:
            raise ConfigError("need beta >= 2*tau and beta >= 2*gamma")

    @classmethod
    def default(cls) -> "ReductionParams":
        return cls(DEFAULT_TAU, DEFAULT_GAMMA, BETA_CAP)  # the optimum sits at the cap

    def amount(self, kind: str) -> Fraction:
        if kind == "cycle":
            return self.beta
        if kind == "k5-degree":
            return self.gamma
        return self.tau


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeClass:
    settled: int  # node id
    kind: str  # 'special' | 'half-special' | 'other-degree' | 'k5-degree' | 'cycle'
    coin_group: tuple

    @property
    def coin_kind(self) -> str:
        return coin_kind(self.kind)


def classify(h: CutHierarchy) -> dict[int, EdgeClass]:
    """Settled node, reduction class, and coin group per edge: one coin per
    degree-piece edge, one per partner pair of a cycle piece.

    The topmost piece samples its own root pairs, so those four edges are
    settled at the root and behave like cycle edges.
    """
    out: dict[int, EdgeClass] = {}
    for nd in h.non_leaves():
        piece = nd.piece
        if nd.kind == "cycle":
            ext = piece.external_pairs() if nd.is_root else []
            for side, pairs in (("pair", piece.internal_pairs()), ("ext", ext)):
                for j, pair in enumerate(pairs):
                    for eid in pair:
                        out[eid] = EdgeClass(nd.node_id, "cycle", (nd.node_id, side, j))
        else:
            k5 = piece.graph.n == 5
            boundary = set(piece.boundary_vertices)
            for eid in piece.internal_edge_ids:
                pos = piece.graph.edge_index(eid)
                u, v = piece.graph.endpoints[pos]
                nb = (u not in boundary) + (v not in boundary)
                if k5:
                    kind = "k5-degree"
                elif nb == 2:
                    kind = "special"
                elif nb == 1:
                    kind = "half-special"
                else:
                    kind = "other-degree"
                out[eid] = EdgeClass(nd.node_id, kind, (eid,))
    m = h.instance.graph.m
    if len(out) != m or set(out) != set(range(m)):
        raise AssemblyError(f"{len(out)} of {m} edges settled at a piece")
    return out


# ---------------------------------------------------------------------------
# even at last
# ---------------------------------------------------------------------------

#: per edge id, its even-at-last event as ``(edge ids, parity)`` pairs
EalConditions = dict[int, tuple[tuple[frozenset[int], int], ...]]


def eal_conditions(h: CutHierarchy, classes: dict[int, EdgeClass]) -> EalConditions:
    """Each edge's even-at-last event, as ``(edge ids, parity)`` pairs.

    An edge is even at last when, for every pair, the tree holds a number
    of those edges with that parity (0 even, 1 odd): a degree-piece edge uv
    needs both endpoints even in its piece, an edge settled at a cycle piece
    (root pairs included) one edge of each external pair.
    """
    out: EalConditions = {}
    for eid in sorted(classes):
        nd = h.nodes[classes[eid].settled]
        g = nd.piece.graph
        if nd.kind == "cycle":
            out[eid] = tuple((frozenset(pair), 1) for pair in nd.piece.external_pairs())
        else:
            u, v = g.endpoints[g.edge_index(eid)]
            out[eid] = (frozenset(g.incident_ids(u)), 0), (frozenset(g.incident_ids(v)), 0)
    return out


def parity_law(samplers: dict[int, PieceSampler], classes: dict[int, EdgeClass],
               sets: Sequence[Iterable[int]]) -> tuple[dict[int, int], int]:
    """Joint law of the tree's parities on a few edge sets.

    Bit i of a state is the parity of the tree's edges in ``sets[i]``.
    Pieces sample independently, so the law is the XOR convolution of the
    pieces' own laws, in node order: integer numerators over the returned
    denominator, the product of the pieces' ones.
    """
    by_piece: dict[int, list[set[int]]] = {}
    for i, ids in enumerate(sets):
        for e in ids:
            nid = classes[e].settled
            if nid not in by_piece:
                by_piece[nid] = [set() for _ in sets]
            by_piece[nid][i].add(e)
    # the first piece law as it is: its convolution with the point mass at
    # 0 would give it back
    pieces = sorted(by_piece)
    law, den = samplers[pieces[0]].parity_law(by_piece[pieces[0]]) if pieces else ({0: 1}, 1)
    for nid in pieces[1:]:
        piece_law, piece_den = samplers[nid].parity_law(by_piece[nid])
        den *= piece_den
        acc: dict[int, int] = {}
        for a, pa in law.items():
            for b, pb in piece_law.items():
                acc[a ^ b] = acc.get(a ^ b, 0) + pa * pb
        law = acc
    return law, den


def event_weight(samplers: dict[int, PieceSampler], classes: dict[int, EdgeClass],
                 conditions: Sequence[tuple[frozenset[int], int]],
                 odd_cuts: Sequence[Iterable[int]] = ()) -> tuple[int, int]:
    """The probability of ``event_probability``'s event as its numerator
    and denominator."""
    k = len(conditions)
    want = sum(parity << i for i, (_, parity) in enumerate(conditions))
    law, den = parity_law(samplers, classes, [ids for ids, _ in conditions] + list(odd_cuts))
    return sum(pr for state, pr in law.items()
               if state & ((1 << k) - 1) == want and (state >> k or not odd_cuts)), den


def event_probability(samplers: dict[int, PieceSampler],
                      classes: dict[int, EdgeClass],
                      conditions: Sequence[tuple[frozenset[int], int]],
                      odd_cuts: Sequence[Iterable[int]] = ()) -> Fraction:
    """Probability that every parity condition holds and, when ``odd_cuts``
    are given, the tree crosses at least one of them oddly."""
    return Fraction(*event_weight(samplers, classes, conditions, odd_cuts))


def exact_eal_probabilities(conditions: EalConditions, classes: dict[int, EdgeClass],
                            samplers: dict[int, PieceSampler]) -> dict[int, Fraction]:
    """Even-at-last probability per edge of ``eal_conditions``: one value
    per distinct set of conditions."""
    by_conditions: dict[tuple, Fraction] = {}
    out: dict[int, Fraction] = {}
    for eid, conds in conditions.items():
        if conds not in by_conditions:
            by_conditions[conds] = event_probability(samplers, classes, conds)
        out[eid] = by_conditions[conds]
    return out


# ---------------------------------------------------------------------------
# charge routing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowAssignment:
    """Charge split fractions x(source, target) with unit row sums."""

    fractions: dict[tuple[int, int], Fraction]
    load: dict[int, Fraction]
    cap: Fraction

    def row(self, source: int) -> list[tuple[int, Fraction]]:
        return [
            (f, x) for (s, f), x in sorted(self.fractions.items()) if s == source
        ]


def bipartization_flow(piece, demands: dict[int, Fraction]) -> FlowAssignment:
    """Route each external edge's demand to the internal edges at its
    boundary vertex, keeping every internal edge's load under the cap.

    The cap is half the largest demand, except on a K5 piece where thirds
    are unavoidable and a uniform split meets two thirds of the maximum.
    """
    g = piece.graph
    ext_ids = set(piece.external_edge_ids)
    rows: dict[int, list[int]] = {}
    for s in demands:
        pos = g.edge_index(s)
        u, v = g.endpoints[pos]
        bv = u if v == piece.external_vertex else v
        rows[s] = sorted(
            e for e in g.incident_ids(bv) if e not in ext_ids
        )
    maxd = max(demands.values())
    if g.n == 5:
        fractions = {}
        load: dict[int, Fraction] = {}
        for s, targets in rows.items():
            if len(targets) != 3:
                raise FlowInfeasible(
                    f"K5 boundary vertex of edge {s} has {len(targets)} internal edges, not 3"
                )
            for f in targets:
                fractions[(s, f)] = Fraction(1, 3)
                load[f] = load.get(f, Fraction(0)) + demands[s] / 3
        cap = 2 * maxd / 3
        if any(l > cap for l in load.values()):
            raise FlowInfeasible("uniform thirds exceed the K5 cap")
        return FlowAssignment(fractions, load, cap)
    cap = maxd / 2
    flow = _charge_flow(rows, demands, cap)
    if flow is None:
        raise FlowInfeasible(f"no assignment at cap {cap}")
    fractions = {}
    load = {}
    for (s, f), val in flow.items():
        if val:
            fractions[(s, f)] = val / demands[s]
            load[f] = load.get(f, Fraction(0)) + val
    for s in demands:
        total = sum((x for (ss, _), x in fractions.items() if ss == s), Fraction(0))
        if total != 1:
            raise FlowInfeasible(f"charge fractions of edge {s} sum to {total}, not 1")
    return FlowAssignment(fractions, load, cap)


def _charge_flow(rows: dict[int, list[int]], demands: dict[int, Fraction],
                 cap: Fraction) -> Optional[dict[tuple[int, int], Fraction]]:
    """Route each source's demand to the targets of its row, each target
    taking at most ``cap``: the flow on every (source, target), or None
    when the demands do not all fit.

    A max flow by ``graph.augment`` in units of 1/D, the common denominator
    of the demands and the cap, on vertex 0 (S), the sorted sources, the
    sorted targets and the sink (T).  Its edges are S-s, f-T, then s-f in
    row order, so each vertex meets its arcs in that order.
    """
    sources = sorted(rows)
    targets = sorted({f for ts in rows.values() for f in ts})
    index = {x: i for i, x in enumerate([*sources, *targets], 1)}
    sink = len(index) + 1
    pairs = [(s, f) for s in sources for f in rows[s]]
    D = lcm_denominator([cap, *demands.values()])
    units = [in_units(demands[s], D) for s in sources]
    edges = ([(0, index[s]) for s in sources] + [(index[f], sink) for f in targets]
             + [(index[s], index[f]) for s, f in pairs])
    caps = (units + [in_units(cap, D)] * len(targets)
            + [in_units(demands[s], D) for s, _ in pairs])
    arcs = flow_arcs(sink + 1, edges, caps)
    flow = [0] * len(edges)
    while (augment(arcs, flow, 1, sink) >> sink) & 1:
        pass
    if flow[:len(sources)] != units:
        return None
    return {pair: Fraction(val, D)
            for pair, val in zip(pairs, flow[len(sources) + len(targets):])}


@dataclass(frozen=True)
class DegreeChargeSite:
    source: int
    amount: Fraction
    cut_ids: tuple[int, ...]  # sorted
    targets: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class PairChargeGroup:
    """Sources sharing one coin; one repayment serves all their cuts."""

    amount: Fraction
    members: tuple[tuple[int, tuple[int, ...]], ...]  # (source, sorted cut edge ids)


@dataclass(frozen=True)
class PairChargeSite:
    targets: tuple[int, int]
    groups: tuple[PairChargeGroup, ...]


def build_charge_sites(h: CutHierarchy, classes: dict[int, EdgeClass],
                       params: ReductionParams
                       ) -> tuple[list[DegreeChargeSite], list[PairChargeSite]]:
    """Static charge-routing tables for one instance and parameter set."""
    degree_sites: list[DegreeChargeSite] = []
    pair_sites: list[PairChargeSite] = []
    for nd in h.non_leaves():
        piece = nd.piece
        g = piece.graph
        if nd.kind != "cycle":
            ext_ids = sorted(piece.external_edge_ids)
            demands = {}
            for s in ext_ids:
                kind = classes[s].kind
                amt = params.amount(kind)
                demands[s] = amt / 2 if kind == "cycle" else amt
            assign = bipartization_flow(piece, demands)
            for s in ext_ids:
                pos = g.edge_index(s)
                u, v = g.endpoints[pos]
                bv = u if v == piece.external_vertex else v
                cut = tuple(sorted(g.incident_ids(bv)))
                degree_sites.append(
                    DegreeChargeSite(
                        s, params.amount(classes[s].kind), cut, tuple(assign.row(s))
                    )
                )
        else:
            pairs = piece.internal_pairs()
            ext_pairs = piece.external_pairs()
            if not pairs or len(ext_pairs) != 2:
                continue
            left, right = _orient_end_pairs(piece, ext_pairs)
            for pair in pairs:
                entries: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
                cut_l = tuple(sorted(left + pair))
                cut_r = tuple(sorted(right + pair))
                for s in left:
                    entries.setdefault(classes[s].coin_group, []).append((s, cut_l))
                for s in right:
                    entries.setdefault(classes[s].coin_group, []).append((s, cut_r))
                groups = []
                for _, members in sorted(entries.items()):
                    amount = params.amount(classes[members[0][0]].kind)
                    kinds = {classes[s].kind for s, _ in members}
                    if any(params.amount(kind) != amount for kind in kinds):
                        # one repayment serves the whole coin group
                        raise FlowInfeasible(
                            f"coin group of edges {[s for s, _ in members]} has "
                            f"{len({params.amount(kind) for kind in kinds})} "
                            f"reduction amounts, not one"
                        )
                    groups.append(PairChargeGroup(amount, tuple(members)))
                pair_sites.append(PairChargeSite(tuple(pair), tuple(groups)))
    return degree_sites, pair_sites


def _orient_end_pairs(piece, ext_pairs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order the two external pairs as (chain-start side, chain-end side)."""
    chain = piece.chain
    first = chain[0]
    out: list = [None, None]
    for pair in ext_pairs:
        pos = piece.graph.edge_index(pair[0])
        u, v = piece.graph.endpoints[pos]
        inner = u if u != piece.external_vertex else v
        if inner == first and out[0] is None:
            out[0] = tuple(pair)
        else:
            out[1] = tuple(pair)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# coins
# ---------------------------------------------------------------------------

def coin_groups(classes: dict[int, EdgeClass]) -> dict[tuple, tuple[int, ...]]:
    groups: dict[tuple, list[int]] = {}
    for eid, cl in sorted(classes.items()):
        groups.setdefault(cl.coin_group, []).append(eid)
    return {k: tuple(v) for k, v in groups.items()}


@dataclass(frozen=True)
class Coin:
    """A coin group's even-at-last estimate, its coin bound, the rate
    ``min(1, bound / estimate)`` that flattens the one to the other, and
    the rate's threshold: the double t with ``x < t`` exactly when x is
    below the rate, for every x that ``Generator.random()`` returns.

    Those x are multiples k / 2**53, and k < r * 2**53 holds exactly when
    k < ceil(r * 2**53); a rate is at most one, so that ceiling over 2**53
    is a double.  A coin then costs one float comparison, not a
    ``Fraction`` one, and falls the same way.
    """

    estimate: Fraction
    bound: Fraction
    rate: Fraction
    threshold: float

    @classmethod
    def flatten(cls, estimate: Fraction, bound: Fraction) -> "Coin":
        rate = bound / estimate if estimate > bound else Fraction(1)
        return cls(estimate, bound, rate, math.ceil(rate * 2 ** 53) / 2 ** 53)


def coin_table(classes: dict[int, EdgeClass], groups: dict[tuple, tuple[int, ...]],
               eal_probability: dict[int, Fraction], lam: Fraction) -> dict[tuple, Coin]:
    """The ``Coin`` of each coin group of ``coin_groups(classes)``, its
    bound the coin kind's ``params.coin_bounds`` at mix lam.  Groups of
    one coin kind and estimate share one record, made once."""
    bounds = coin_bounds(lam)
    memo: dict[tuple, Coin] = {}
    out: dict[tuple, Coin] = {}
    for grp, members in groups.items():
        est = eal_probability[members[0]]
        if any(eal_probability[e] != est for e in members[1:]):
            # one coin flattens every member to the bound only if they share
            # one even-at-last rate
            raise EstimateBelowBound(
                f"coin group {members} has {len({eal_probability[e] for e in members})} "
                f"even-at-last estimates, not one"
            )
        kind = classes[members[0]].coin_kind
        # the integer pair hashes far faster than the ``Fraction`` does
        key = (kind, est.numerator, est.denominator)
        if key not in memo:
            memo[key] = Coin.flatten(est, bounds[kind])
        out[grp] = memo[key]
    return out


def check_eal_bounds(coins: dict[tuple, Coin], groups: dict[tuple, tuple[int, ...]]) -> None:
    """Refuse an even-at-last estimate below its coin bound, over the
    records of ``coin_table``; each distinct record is checked once."""
    checked: set[int] = set()
    for grp, coin in coins.items():
        if id(coin) not in checked and coin.estimate < coin.bound:
            raise EstimateBelowBound(
                f"even-at-last estimate {float(coin.estimate):.6g} below bound "
                f"{float(coin.bound):.6g} for edges {groups[grp]}"
            )
        checked.add(id(coin))


# ---------------------------------------------------------------------------
# integral join and tour extraction
# ---------------------------------------------------------------------------

#: most odd vertices the exact pairing DP accepts
ODD_SET_LIMIT = 18


def min_cost_perfect_matching(odd: list[int], dist,
                              memo: Optional[dict] = None
                              ) -> tuple[object, list[tuple[int, int]]]:
    """Exact pairing by dynamic programming over vertex-id bitmasks.

    The memo is keyed by subsets of the full vertex set, so one dictionary
    can be shared across calls with different odd sets of one instance.
    The cost is in the metric's own numbers: integers on an integer metric.
    """
    k = len(odd)
    if k % 2:
        raise NoPerfectMatching(f"{k} odd vertices cannot be paired")
    if k == 0:
        return 0, []
    if k > ODD_SET_LIMIT:
        raise OddSetTooLarge(f"{k} odd vertices exceeds the exact limit {ODD_SET_LIMIT}")
    if memo is None:
        memo = {}
    if 0 not in memo:
        memo[0] = (0, None)

    def solve(mask: int):
        hit = memo.get(mask)
        if hit is not None:
            return hit[0]
        lowbit = mask & -mask
        i = lowbit.bit_length() - 1
        rest = mask ^ lowbit
        best = None
        best_j = None
        r = rest
        while r:
            jbit = r & -r
            j = jbit.bit_length() - 1
            r ^= jbit
            cand = dist[i][j] + solve(rest ^ jbit)
            if best is None or cand < best:
                best = cand
                best_j = j
        memo[mask] = (best, best_j)
        return best

    full = 0
    for v in odd:
        full |= 1 << v
    cost = solve(full)
    pairs = []
    mask = full
    while mask:
        _, j = memo[mask]
        i = (mask & -mask).bit_length() - 1
        pairs.append((i, j))
        mask ^= (1 << i) | (1 << j)
    return cost, pairs


def tour_walk(ci, edges: Iterable[int], pairs: Sequence[tuple[int, int]],
              shortcut: bool = True) -> tuple[list[int], int]:
    """The closed tour of a tree ``edges`` and its integral join ``pairs`` on
    the metric of an ``engine.CompiledInstance``, and its cost in units of
    1/cost_denom.

    Each pair is joined along a shortest path; the tour is the Euler circuit
    of the combined multigraph from the root, in the order of ``edges`` and
    then of the join's legs, shortcut to first visits and priced in the
    shortest-path metric (always a metric, so the shortcut never costs more
    than the walk).
    """
    g = ci.inst.graph
    d, nxt = ci.metric
    legs = [g.endpoints[eid] for eid in edges]
    for a, b in pairs:
        node = a
        while node != b:
            step = nxt[node][b]
            legs.append((node, step))
            node = step

    # Euler circuit over the leg multiset: at the top vertex, skip its used
    # legs, then walk its next one or, with none left, close it
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(legs):
        adj[u].append(i)
        adj[v].append(i)
    used = [False] * len(legs)
    ptr = [0] * g.n
    stack = [ci.inst.root]
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        at, p = adj[v], ptr[v]
        while p < len(at) and used[at[p]]:
            p += 1
        ptr[v] = p
        if p == len(at):
            circuit.append(stack.pop())
        else:
            i = at[p]
            used[i] = True
            a, b = legs[i]
            stack.append(b if a == v else a)
    if not all(used):
        raise AssemblyError("leg multiset is not connected")
    circuit.reverse()

    if shortcut:
        seen: set[int] = set()
        tour = []
        for v in circuit:
            if v not in seen:
                seen.add(v)
                tour.append(v)
        steps = zip(tour, tour[1:] + tour[:1])
    else:
        tour = circuit[:-1]
        steps = zip(circuit, circuit[1:])
    return tour, sum(d[a][b] for a, b in steps)
