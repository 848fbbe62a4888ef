"""Exact verification layer: no sampling, just the compiled distributions.

Piece samplers expose their full tree mixtures, pieces are independent,
and every relevant event (inclusion patterns, endpoint parities, cut
crossings) is a function of finitely many edge indicators.  So marginals,
even-at-last rates, reduction rates, and the expected net decrease of
every edge can be computed exactly (rationally on the matroid route) and
compared against the guaranteed bounds without Monte Carlo error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .hierarchy import CutHierarchy
from .join import (
    EdgeClass,
    ReductionParams,
    build_charge_sites,
    coin_groups,
    joint_indicator,
)
from .params import EAL_BOUNDS
from .pipeline import CyclePieceSampler, PieceSampler


def exact_marginals(h: CutHierarchy, samplers: dict[int, PieceSampler],
                    classes: dict[int, EdgeClass]) -> dict[int, object]:
    """Inclusion probability of every edge, from its settled piece."""
    out: dict[int, object] = {}
    for eid, cl in classes.items():
        s = samplers[cl.settled]
        if isinstance(s, CyclePieceSampler):
            out[eid] = Fraction(1, 2)
        else:
            out[eid] = s.exact_marginal(eid)
    return out


# ---------------------------------------------------------------------------
# events as (edge list, pattern predicate)
# ---------------------------------------------------------------------------

Event = tuple[list[int], Callable[[int], bool]]


def eal_event(h: CutHierarchy, classes: dict[int, EdgeClass], eid: int) -> Event:
    """The even-at-last condition of one edge as an indicator-pattern event."""
    nd = h.nodes[classes[eid].settled]
    piece = nd.piece
    g = piece.graph
    if nd.kind == "cycle":
        pairs = [tuple(p) for p in piece.external_pairs()]
        edges = [e for p in pairs for e in p]

        def pred(pat: int) -> bool:
            return all(
                ((pat >> (2 * i)) & 3).bit_count() == 1 for i in range(len(pairs))
            )

        return edges, pred
    u, v = g.endpoints[g.edge_index(eid)]
    at_u = sorted(g.incident_ids(u))
    at_v = sorted(g.incident_ids(v))
    edges = sorted(set(at_u) | set(at_v))
    idx = {e: j for j, e in enumerate(edges)}
    mask_u = sum(1 << idx[e] for e in at_u)
    mask_v = sum(1 << idx[e] for e in at_v)

    def pred(pat: int) -> bool:
        return (pat & mask_u).bit_count() % 2 == 0 and (pat & mask_v).bit_count() % 2 == 0

    return edges, pred


def conjoin(base: Event, extra_edges: Sequence[int],
            extra_pred: Callable[[int], bool]) -> Event:
    """Event on the union edge set requiring both component predicates."""
    edges = list(base[0])
    idx = {e: j for j, e in enumerate(edges)}
    for e in extra_edges:
        if e not in idx:
            idx[e] = len(edges)
            edges.append(e)
    sub = [idx[e] for e in extra_edges]
    base_pred = base[1]
    k = len(base[0])
    base_mask = (1 << k) - 1

    def pred(pat: int) -> bool:
        sub_pat = 0
        for j, pos in enumerate(sub):
            if (pat >> pos) & 1:
                sub_pat |= 1 << j
        return base_pred(pat & base_mask) and extra_pred(sub_pat)

    return edges, pred


def event_probability(samplers: dict[int, PieceSampler],
                      classes: dict[int, EdgeClass], event: Event):
    edges, pred = event
    total = Fraction(0)
    for pat, pr in joint_indicator(samplers, classes, edges):
        if pred(pat):
            total = total + pr
    return total


def odd_pred(k: int) -> Callable[[int], bool]:
    return lambda pat: pat.bit_count() % 2 == 1


# ---------------------------------------------------------------------------
# exact reduction and net-decrease accounting
# ---------------------------------------------------------------------------

def exact_rates(classes: dict[int, EdgeClass], params: ReductionParams,
                eal_probability: dict[int, object]) -> dict[tuple, object]:
    """Coin rates kept rational when the estimates are rational."""
    rates: dict[tuple, object] = {}
    for grp, members in coin_groups(classes).items():
        est = eal_probability[members[0]]
        bound = params.coin_bound(classes[members[0]].coin_kind)
        if isinstance(est, Fraction):
            rates[grp] = min(Fraction(1), bound / est)
        else:
            rates[grp] = min(1.0, float(bound) / est)
    return rates


def exact_reduction_probability(classes, params, eal_probability) -> dict[int, object]:
    """Per-edge reduction rate; equals the class bound whenever the
    even-at-last estimate clears it."""
    rates = exact_rates(classes, params, eal_probability)
    return {
        e: rates[cl.coin_group] * eal_probability[e] for e, cl in classes.items()
    }


def exact_expected_net_decrease(
    h: CutHierarchy,
    classes: dict[int, EdgeClass],
    params: ReductionParams,
    samplers: dict[int, PieceSampler],
    eal_probability: dict[int, object],
) -> dict[int, object]:
    """E[quarter - z_e] per edge: reductions in, expected charges out, given
    the exact even-at-last probabilities of ``exact_eal_probabilities``."""
    rates = exact_rates(classes, params, eal_probability)
    red = exact_reduction_probability(classes, params, eal_probability)
    net: dict[int, object] = {
        e: red[e] * params.amount(cl.kind) for e, cl in classes.items()
    }
    degree_sites, pair_sites = build_charge_sites(h, classes, params)
    for site in degree_sites:
        s = site.source
        base = eal_event(h, classes, s)
        ev = conjoin(base, list(site.cut_ids), odd_pred(len(site.cut_ids)))
        p = event_probability(samplers, classes, ev)
        rate = rates[classes[s].coin_group]
        for f, frac in site.targets:
            net[f] = net[f] - site.amount * frac * rate * p
    for site in pair_sites:
        t0, t1 = site.targets
        for grp in site.groups:
            members = grp.members
            s0 = members[0][0]
            base = eal_event(h, classes, s0)
            cuts = [cut for _, cut in members]
            # union event: even-at-last of the shared piece AND any listed
            # cut crossed oddly
            edges = list(base[0])
            idx = {e: j for j, e in enumerate(edges)}
            for cut in cuts:
                for e in cut:
                    if e not in idx:
                        idx[e] = len(edges)
                        edges.append(e)
            base_mask = (1 << len(base[0])) - 1
            cut_masks = [
                sum(1 << idx[e] for e in cut) for cut in cuts
            ]
            base_pred = base[1]

            def pred(pat: int) -> bool:
                if not base_pred(pat & base_mask):
                    return False
                return any((pat & cm).bit_count() % 2 == 1 for cm in cut_masks)

            p = event_probability(samplers, classes, (edges, pred))
            rate = rates[classes[s0].coin_group]
            half = grp.amount / 2
            net[t0] = net[t0] - half * rate * p
            net[t1] = net[t1] - half * rate * p
    return net


# ---------------------------------------------------------------------------
# piece-level correlation events
# ---------------------------------------------------------------------------

def correlation_tuples(piece) -> dict[str, list[tuple]]:
    """Qualifying edge tuples for the per-vertex correlation checks."""
    g = piece.graph
    ext = piece.external_vertex
    ext_ids = set(piece.external_edge_ids)
    boundary = set(piece.boundary_vertices)
    out: dict[str, list[tuple]] = {
        "adjacent-pair-both": [],
        "adjacent-pair-exactly-first": [],
        "full-star-two-of-four": [],
        "full-star-split-pairs": [],
        "interior-edge-both-degree-two": [],
        "boundary-edge-one-odd": [],
    }
    for v in range(g.n):
        if v == ext:
            continue
        internal = sorted(e for e in g.incident_ids(v) if e not in ext_ids)
        for i in range(len(internal)):
            for j in range(i + 1, len(internal)):
                f, gg = internal[i], internal[j]
                out["adjacent-pair-both"].append((f, gg))
                out["adjacent-pair-exactly-first"].append((f, gg))
                out["adjacent-pair-exactly-first"].append((gg, f))
        if len(internal) == 4:
            e0, e1, e2, e3 = internal
            out["full-star-two-of-four"].append(tuple(internal))
            for split in (
                ((e0, e1), (e2, e3)),
                ((e0, e2), (e1, e3)),
                ((e0, e3), (e1, e2)),
            ):
                out["full-star-split-pairs"].append(split)
    for eid in piece.internal_edge_ids:
        u, v = g.endpoints[g.edge_index(eid)]
        nb = (u not in boundary) + (v not in boundary)
        if nb == 2:
            out["interior-edge-both-degree-two"].append((eid, u, v))
        elif nb == 0:
            out["boundary-edge-one-odd"].append((eid, u, v))
    return out


def correlation_event_probability(sampler, piece, row: str, tup) -> tuple[object, Callable]:
    """Exact probability of one correlation event plus its tree predicate."""
    g = piece.graph

    if row == "adjacent-pair-both":
        f, gg = tup
        pred = lambda t: f in t and gg in t
    elif row == "adjacent-pair-exactly-first":
        f, gg = tup
        pred = lambda t: f in t and gg not in t
    elif row == "full-star-two-of-four":
        es = tup
        pred = lambda t: sum(1 for e in es if e in t) == 2
    elif row == "full-star-split-pairs":
        (a, b), (c, d) = tup
        pred = lambda t: (int(a in t) + int(b in t) == 1) and (int(c in t) + int(d in t) == 1)
    elif row == "interior-edge-both-degree-two":
        eid, u, v = tup
        iu = [e for e in g.incident_ids(u)]
        iv = [e for e in g.incident_ids(v)]
        pred = lambda t: sum(1 for e in iu if e in t) == 2 and sum(1 for e in iv if e in t) == 2
    elif row == "boundary-edge-one-odd":
        eid, u, v = tup
        ext_ids = set(piece.external_edge_ids)
        iu = [e for e in g.incident_ids(u) if e not in ext_ids]
        iv = [e for e in g.incident_ids(v) if e not in ext_ids]
        pred = lambda t: (sum(1 for e in iu if e in t) % 2) != (sum(1 for e in iv if e in t) % 2)
    else:
        raise ValueError(row)

    probs = sampler.exact_probs if sampler.exact_probs is not None else sampler.probs
    total = Fraction(0)
    for t, pr in zip(sampler.trees, probs):
        if pred(t):
            total = total + pr
    return total, pred


#: guaranteed lower bounds for the correlation rows, by sampler route; the
#: both-degree-two row is the special edges' even-at-last bound
CORRELATION_BOUNDS = {
    "mi": {
        "adjacent-pair-both": Fraction(1, 9),
        "adjacent-pair-exactly-first": Fraction(1, 9),
        "full-star-two-of-four": Fraction(2, 21),
        "full-star-split-pairs": Fraction(4, 63),
        "interior-edge-both-degree-two": EAL_BOUNDS["mi"]["special"],
        "boundary-edge-one-odd": Fraction(1, 9),
    },
    "maxent": {
        "adjacent-pair-both": Fraction(1, 9),
        "adjacent-pair-exactly-first": Fraction(12, 72),
        "full-star-two-of-four": Fraction(8, 27),
        "full-star-split-pairs": Fraction(16, 81),
        "interior-edge-both-degree-two": EAL_BOUNDS["maxent"]["special"],
        "boundary-edge-one-odd": Fraction(5, 18),
    },
}
