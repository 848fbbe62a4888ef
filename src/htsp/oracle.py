"""Exact verification layer: no sampling, just the compiled distributions.

Piece samplers expose their full tree mixtures, pieces are independent,
and every relevant event (endpoint parities, split partner pairs, cut
crossings) is a condition on the tree's parities on a few edge sets, read
off one joint law (``join.parity_law``).  So marginals,
even-at-last rates, reduction rates, and the expected net decrease of
every edge can be computed exactly and compared against the guaranteed
bounds without Monte Carlo error.

Exact probabilities travel as integer numerators over one denominator,
from the piece tables (``EnumeratedPieceSampler.exact_nums``, a cycle
piece's counts of pair choices) through the joint law and its events
(``join.event_weight``) to each edge's net decrease, whose terms are
integer products summed over their least common denominator.  A
``Fraction`` is made once per value that leaves the layer: a marginal, an
even-at-last or correlation-event probability, a net decrease.  On the
max-entropy and mixed routes the piece tables are the drawn float tables,
read exactly, so every value is a ``Fraction`` on every sampler.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .hierarchy import CutHierarchy
from .join import EdgeClass, event_weight
from .pipeline import PieceSampler


def exact_marginals(h: CutHierarchy, samplers: dict[int, PieceSampler],
                    classes: dict[int, EdgeClass]) -> dict[int, Fraction]:
    """Inclusion probability of every edge, from its settled piece."""
    return {eid: samplers[cl.settled].exact_marginal(eid) for eid, cl in classes.items()}


# ---------------------------------------------------------------------------
# exact reduction and net-decrease accounting
# ---------------------------------------------------------------------------

def exact_expected_net_decrease(ci) -> dict[int, Fraction]:
    """E[quarter - z_e] per edge of an ``engine.CompiledInstance``:
    reductions in, expected charges out, read off its exact even-at-last
    probabilities, coin table and charge sites.

    A site charges when its source is even at last, its coin comes up, and
    one of its cuts is crossed oddly; a pair site's coin group repays once
    for all of its members' cuts.  Each edge's value is its reduction less
    its charges in site order, degree sites first.  Every term is a
    product of integer numerators and denominators, and an edge's terms
    sum over their least common denominator into one ``Fraction``.
    """
    classes, samplers = ci.classes, ci.samplers
    rates = {grp: coin.rate.as_integer_ratio() for grp, coin in ci.coins.items()}
    # an edge is reduced when it is even at last and its coin comes up
    reduction = {
        e: _product(rates[cl.coin_group], ci.eal_probability[e].as_integer_ratio(),
                    ci.rp.amount(cl.kind).as_integer_ratio())
        for e, cl in classes.items()
    }
    charges: dict[int, list] = {e: [] for e in classes}
    degree_sites, pair_sites = ci.sites
    for site in degree_sites:
        s = site.source
        p = event_weight(samplers, classes, ci.eal_conditions[s], [site.cut_ids])
        rate = rates[classes[s].coin_group]
        amount = site.amount.as_integer_ratio()
        for f, frac in site.targets:
            charges[f].append(_product(amount, frac.as_integer_ratio(), rate, p))
    for site in pair_sites:
        for grp in site.groups:
            s0 = grp.members[0][0]
            p = event_weight(samplers, classes, ci.eal_conditions[s0],
                             [cut for _, cut in grp.members])
            half = (grp.amount.numerator, 2 * grp.amount.denominator)
            paid = _product(half, rates[classes[s0].coin_group], p)
            for t in site.targets:
                charges[t].append(paid)
    return {e: _difference(reduction[e], charges[e]) for e in classes}


def _product(*factors: tuple[int, int]) -> tuple[int, int]:
    """The product of (numerator, denominator) pairs, as one such pair."""
    num, den = 1, 1
    for n, d in factors:
        num, den = num * n, den * d
    return num, den


def _difference(start: tuple[int, int], terms: list[tuple[int, int]]) -> Fraction:
    """``start`` less each of the (numerator, denominator) pairs ``terms``,
    over their least common denominator."""
    num, den = start
    for n, d in terms:
        lcm = den // math.gcd(den, d) * d
        num, den = num * (lcm // den) - n * (lcm // d), lcm
    return Fraction(num, den)


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


def correlation_event_probability(sampler, piece, row: str, tup) -> tuple[Fraction, np.ndarray]:
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
