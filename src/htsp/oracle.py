"""Exact verification layer: no sampling, just the compiled distributions.

Piece samplers expose their full tree mixtures, pieces are independent,
and every relevant event (endpoint parities, split partner pairs, cut
crossings) is a condition on the tree's parities on a few edge sets, read
off one joint law (``join.parity_law``).  So marginals,
even-at-last rates, reduction rates, and the expected net decrease of
every edge can be computed exactly (rationally on the matroid route) and
compared against the guaranteed bounds without Monte Carlo error.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import CutHierarchy
from .join import EdgeClass, event_probability
from .pipeline import PieceSampler


def exact_marginals(h: CutHierarchy, samplers: dict[int, PieceSampler],
                    classes: dict[int, EdgeClass]) -> dict[int, object]:
    """Inclusion probability of every edge, from its settled piece."""
    return {eid: samplers[cl.settled].exact_marginal(eid) for eid, cl in classes.items()}


# ---------------------------------------------------------------------------
# exact reduction and net-decrease accounting
# ---------------------------------------------------------------------------

def exact_expected_net_decrease(ci) -> dict[int, object]:
    """E[quarter - z_e] per edge of an ``engine.CompiledInstance``:
    reductions in, expected charges out, read off its exact even-at-last
    probabilities, coin rates and charge sites.

    A site charges when its source is even at last, its coin comes up, and
    one of its cuts is crossed oddly; a pair site's coin group repays once
    for all of its members' cuts.
    """
    classes, samplers, rates = ci.classes, ci.samplers, ci.rates
    # an edge is reduced when it is even at last and its coin comes up
    net: dict[int, object] = {
        e: rates[cl.coin_group] * ci.eal_probability[e] * ci.rp.amount(cl.kind)
        for e, cl in classes.items()
    }
    degree_sites, pair_sites = ci.sites
    for site in degree_sites:
        s = site.source
        p = event_probability(samplers, classes, ci.eal_conditions[s],
                              [site.cut_ids])
        rate = rates[classes[s].coin_group]
        for f, frac in site.targets:
            net[f] = net[f] - site.amount * frac * rate * p
    for site in pair_sites:
        t0, t1 = site.targets
        for grp in site.groups:
            s0 = grp.members[0][0]
            p = event_probability(samplers, classes, ci.eal_conditions[s0],
                                  [cut for _, cut in grp.members])
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


def correlation_event_probability(sampler, piece, row: str, tup) -> tuple[object, np.ndarray]:
    """Exact probability of one correlation event plus the event itself, a
    bool row over the sampler's trees.  The trees hold interior edges
    only, so a vertex's external edges count zero."""
    g = piece.graph
    count = sampler.edge_counts

    if row in ("adjacent-pair-both", "full-star-two-of-four"):
        event = count(tup) == 2
    elif row == "adjacent-pair-exactly-first":
        event = (count(tup[:1]) == 1) & (count(tup[1:]) == 0)
    elif row == "full-star-split-pairs":
        event = (count(tup[0]) == 1) & (count(tup[1]) == 1)
    elif row == "interior-edge-both-degree-two":
        event = (count(g.incident_ids(tup[1])) == 2) & (count(g.incident_ids(tup[2])) == 2)
    elif row == "boundary-edge-one-odd":
        event = count(g.incident_ids(tup[1])) % 2 != count(g.incident_ids(tup[2])) % 2
    else:
        raise ValueError(row)
    return sampler.probability(event), event
