"""The compiled instance and the vectorized Monte Carlo engine.

``CompiledInstance`` builds each per-instance structure once for every
command, and ``BatchEngine`` adds the chunk plans.  Trials are
embarrassingly parallel, so the engine draws whole chunks of piece choices
at once: each piece draws its own block of trials into the chunk's tree
rows (``draw_rows``; a tree-table piece by a guide-table lookup into its
cdf), even-at-last flags and cut parities are XORs of whole edge rows (a
chunk holds one row of trials per edge), and the join arithmetic runs in
integers after scaling every charge quantum by a common denominator (so
feasibility checks are exact, not float).  The charges, the cut covers
made from them and each trial's cost sums are held in the narrowest
integer type (``LANES``) that the join plan's bound on the charges proves
exact; only per-edge and per-chunk totals are added in int64.  Verification reads the
min-cuts through the hierarchy and never lists them: one running
two-minimum over the k + 1 partner pairs of a cycle piece with a k-vertex
chain covers its k(k+1)/2 segment cuts, and the label cut of each degree
piece's child is checked directly.
A run folds, in index order, the ``BatchStats`` records its chunks of
``MAX_CHUNK`` trials return; chunk ``idx`` of ``tree_chunks`` draws its
trees, then its coins, from its own stream ``SeedSequence(seed,
spawn_key=(idx,))``, so a run, and ``htsp join`` and ``tour`` at its seed,
depend only on instance, seed and flags.  Each edge's sum of squared charges
(``BatchStats.z_sumsq``) adds the squares one after the other in trial
order within a chunk, and the chunks' sums in chunk order, so its bits are
those of one running sum, however the work is split.  A run of two or more
full chunks uses the CPUs this process may run on: chunk ``idx`` goes to
process ``idx % P``, where process 0 is the caller and the others are the
engine's helpers, forked by ``os.fork`` at its first such run and kept
while it lives; the caller folds every record, so the output is the same
at any CPU count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
import weakref
from dataclasses import dataclass, field, fields
from functools import cached_property
from fractions import Fraction
from typing import BinaryIO, Iterable, Iterator, NoReturn, Optional, Sequence

import numpy as np

from .errors import (AssemblyError, ConfigError, FeasibilityViolation, HelperLost, HtspError,
                     ScaleOverflow)
from .graph import HalfIntegralInstance
from .hierarchy import build_hierarchy, min_cuts_via_hierarchy
from .join import (
    ReductionParams,
    build_charge_sites,
    check_eal_bounds,
    classify,
    coin_groups,
    coin_rates,
    coin_thresholds,
    eal_conditions,
    exact_eal_probabilities,
    min_cost_perfect_matching,
)
from .params import FLOOR, QUARTER
from .pipeline import CyclePieceSampler, SamplerParams, build_piece_samplers, validate_r0_tree

#: most parity keys the integral-join cache of an engine holds; above it the
#: cache is emptied before the next miss.  A 14-vertex instance has at most
#: 2**13 keys, so it never empties there
JOIN_CACHE_LIMIT = 1 << 16
#: most subset entries the pairing DP's shared memo holds between solves; one
#: solve at ``join.ODD_SET_LIMIT`` odd vertices fills up to 2**17
DP_MEMO_LIMIT = 1 << 18
#: most trials a chunk holds; the cost scaling keeps a chunk's int64 cost
#: sums exact for that many
MAX_CHUNK = 1 << 14
#: trials per block of the per-edge sums of squared charges
SUMSQ_BLOCK = 1 << 10
INT64_MAX = int(np.iinfo(np.int64).max)
#: the integer types a chunk's trial rows may take, narrowest first
LANES = (np.int16, np.int32, np.int64)


# ---------------------------------------------------------------------------
# the batch engine
# ---------------------------------------------------------------------------

def check_positive(**counts: int) -> None:
    """Raise ``ConfigError`` unless every named count is at least 1."""
    for name, value in counts.items():
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")


def check_seed(**seeds: Optional[int]) -> None:
    """Raise ``ConfigError`` unless every named seed that is set is at least
    0: numpy refuses a negative one with a bare ``ValueError``."""
    for name, value in seeds.items():
        if value is not None and value < 0:
            raise ConfigError(f"{name} must be at least 0, got {value}")


def narrowest_lane(bound: int) -> type:
    """The first of ``LANES`` that holds every integer of absolute value up
    to ``bound``; ``ScaleOverflow`` if none does."""
    for lane in LANES:
        if bound <= np.iinfo(lane).max:
            return lane
    raise ScaleOverflow(f"{bound} does not fit in int64")


def _lcm_denominator(values: Iterable[Fraction]) -> int:
    d = 1
    for v in values:
        d = math.lcm(d, Fraction(v).denominator)
    return d


@dataclass
class BatchStats:
    """A run's counts and sums under its ``SETTINGS``, or one chunk's record
    of them (``BatchEngine._run_chunk``).  A chunk's ``z_sum`` is its int64
    partial; a run's holds Python ints, which cannot wrap."""

    SETTINGS = ("verified", "integral", "z_denom", "cost_denom")
    trials: int = 0
    incl: Optional[np.ndarray] = None
    eal: Optional[np.ndarray] = None
    reduced: Optional[np.ndarray] = None
    z_sum: Optional[np.ndarray] = None
    z_sumsq: Optional[np.ndarray] = None
    zc_sum: int = 0
    zc_sumsq: float = 0.0
    tree_sum: int = 0
    tree_sumsq: float = 0.0
    total_sum: int = 0
    total_sumsq: float = 0.0
    feasibility_failures: int = 0
    verified: bool = False
    integral: bool = False
    sym_counts: dict = field(default_factory=dict)
    z_denom: int = 1
    cost_denom: int = 1

    def fold(self, chunk: BatchStats) -> None:
        """Add a chunk's record to these totals, field by field and pair by
        pair, leaving the settings; each float adds in one step."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(chunk, f.name)
            if isinstance(mine, dict):
                mine.update((key, mine[key] + cells) for key, cells in theirs.items())
            elif f.name not in self.SETTINGS:
                setattr(self, f.name, mine + theirs)


class CompiledInstance:
    """One instance compiled once for every command: the hierarchy, the
    piece samplers, the edge classes and their even-at-last conditions,
    built eagerly; the even-at-last probabilities, coin rates, charge
    sites, integer costs and integer metric, each built on first use.
    ``tree_chunks`` draws the trials of every sampled command but
    ``sample``.  It checks no even-at-last bound, and only a command that
    reads costs can meet their ``ScaleOverflow``."""

    def __init__(self, inst: HalfIntegralInstance,
                 sampler_params: Optional[SamplerParams] = None,
                 reduction_params: Optional[ReductionParams] = None):
        self.inst = inst
        self.sp = sampler_params or SamplerParams()
        self.rp = reduction_params or ReductionParams.default(self.sp.effective_lambda)
        self.h = build_hierarchy(inst)
        self.samplers = build_piece_samplers(self.h, self.sp)
        self.classes = classify(self.h)
        self.eal_conditions = eal_conditions(self.h, self.classes)
        self.m = inst.graph.m
        self.n = inst.graph.n
        self.lp_cost = inst.lp_cost()
        self.root_edges = inst.graph.incident_ids(inst.root)
        # tree-table pieces read a chunk's stream first, then cycle pieces,
        # each group by node id: the order fixes which trees a seed gives
        self.draw_order = sorted(
            self.samplers,
            key=lambda nid: (isinstance(self.samplers[nid], CyclePieceSampler), nid),
        )
        self._pairings: dict[tuple[int, ...], tuple[int, list[tuple[int, int]]]] = {}

    @cached_property
    def eal_probability(self) -> dict[int, object]:
        return exact_eal_probabilities(self.eal_conditions, self.classes, self.samplers)

    @cached_property
    def rates(self) -> dict[tuple, object]:
        return coin_rates(self.classes, self.rp, self.eal_probability)

    @cached_property
    def sites(self) -> tuple[list, list]:
        """The degree and the pair charge sites."""
        return build_charge_sites(self.h, self.classes, self.rp)

    @cached_property
    def cost_denom(self) -> int:
        """The costs' common denominator.  Raises ``ScaleOverflow`` unless
        the int64 sums stay exact: a tree, an integral join and a metric
        entry each cost at most the sum S of all scaled costs, a trial's
        tree plus join at most 2S, and a chunk adds ``MAX_CHUNK`` trials."""
        denom = _lcm_denominator(self.inst.costs)
        total = sum(c * denom for c in self.inst.costs)
        if 2 * MAX_CHUNK * total > INT64_MAX:
            raise ScaleOverflow(
                f"costs over their common denominator {denom} sum to {total}; "
                f"{MAX_CHUNK} trials of tree plus join could overflow int64"
            )
        return denom

    @cached_property
    def cost_int(self) -> np.ndarray:
        """Each edge's cost in units of 1/cost_denom."""
        return np.array([int(c * self.cost_denom) for c in self.inst.costs],
                        dtype=np.int64)

    @cached_property
    def metric(self) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs shortest-path costs over the support graph, in units of
        1/cost_denom, and ``nxt[u, v]``, the vertex after u on a shortest
        path to v.  Floyd-Warshall: the first cheapest parallel edge seeds
        a pair, and only a strictly shorter path through k replaces it."""
        n = self.n
        # unconnected: two such add up without overflow, above any real path
        d = np.full((n, n), INT64_MAX // 4, dtype=np.int64)
        np.fill_diagonal(d, 0)
        # a direct edge steps straight to its far end
        nxt = np.tile(np.arange(n), (n, 1))
        g = self.inst.graph
        for eid, (u, v) in zip(g.edge_ids, g.endpoints):
            c = self.cost_int[eid]
            if c < d[u, v]:
                d[u, v] = d[v, u] = c
        for k in range(n):
            alt = d[:, k][:, None] + d[k, :][None, :]
            better = alt < d
            d = np.where(better, alt, d)
            nxt = np.where(better, nxt[:, k][:, None], nxt)
        return d, nxt

    def pairing(self, odd: Sequence[int]) -> tuple[int, list[tuple[int, int]]]:
        """The cheapest pairing of the odd vertices ``odd`` in ``metric``, as
        its cost and its pairs, solved once per odd set: the memo empties
        before a miss once it holds ``JOIN_CACHE_LIMIT`` sets."""
        key = tuple(odd)
        hit = self._pairings.get(key)
        if hit is None:
            if len(self._pairings) >= JOIN_CACHE_LIMIT:
                self._pairings.clear()
            hit = self._pairings[key] = min_cost_perfect_matching(list(key), self.metric[0])
        return hit

    # -- the trials ------------------------------------------------------------
    #
    # A chunk is edge-major: row e of a tree block says, per trial, whether
    # the tree holds edge e.  A cut's parity is then the XOR of its edge
    # rows and its cover the sum of its charge rows, both whole-row work.

    def tree_chunks(self, trials: int, seed: int, chunks: Optional[Iterable[int]] = None
                    ) -> Iterator[tuple[int, np.ndarray, np.random.Generator]]:
        """Chunks 0, 1, ... of ``MAX_CHUNK`` trials (the last one the rest),
        or those of the indices ``chunks`` in their order, each as its first
        trial, its tree block and its stream ``SeedSequence(seed,
        spawn_key=(idx,))``, which the chunk's coins read next.  A block is
        drawn piece by piece in ``draw_order``, and every tree is checked
        for its edge count and its degree at the root."""
        check_positive(trials=trials)
        check_seed(seed=seed)
        starts = range(0, trials, MAX_CHUNK)
        for idx in range(len(starts)) if chunks is None else chunks:
            done = starts[idx]
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
            T = self._draw_trees(min(MAX_CHUNK, trials - done), rng)
            bits = T.view(np.uint8)
            # per trial, its edge count: the rows added in place as small ints
            count = np.add.reduce(bits, axis=0, dtype=np.uint16 if self.m < 1 << 16 else np.intp)
            if not np.all(count == self.n):
                raise AssemblyError(f"assembled samples without {self.n} edges")
            if not np.all(_sum_rows(bits, self.root_edges, out=count) == 2):
                raise AssemblyError(f"assembled samples without degree 2 at root {self.inst.root}")
            yield done, T, rng

    def _draw_trees(self, n: int, rng: np.random.Generator) -> np.ndarray:
        T = np.zeros((self.m, n), dtype=bool)
        for nid in self.draw_order:
            self.samplers[nid].draw_rows(T, rng)
        return T

    def trees(self, T: np.ndarray) -> list[frozenset[int]]:
        """The trees of a block of ``tree_chunks``, one per trial, each checked
        by ``validate_r0_tree`` as the draws of ``htsp sample`` are."""
        trees = [frozenset(ids) for ids in np.nonzero(T.T)[1].reshape(-1, self.n).tolist()]
        for edges in trees:
            validate_r0_tree(self.h, edges)
        return trees


class BatchEngine(CompiledInstance):
    """Reusable vectorized trial runner for one instance and one config;
    it takes the arguments of ``CompiledInstance``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        check_eal_bounds(self.classes, self.rp, self.eal_probability)
        self._build_eal_plan()
        self._build_join_plan()
        self._build_verify_plan()
        self._join_cache: dict[bytes, int] = {}
        self._dp_memo: dict = {}
        self._helpers = _Helpers(self)

    def __copy__(self) -> BatchEngine:
        """A twin on the same plans and caches, with helper processes of its
        own, so it may change its plans before its first parallel run."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._helpers = _Helpers(twin)
        return twin

    # -- plans ------------------------------------------------------------

    def _build_eal_plan(self) -> None:
        """Each edge's even-at-last conditions, read by index into
        ``eal_condition_cols`` (edge columns, parity); edges with equal
        conditions share one entry, and so one flag."""
        conditions: dict[tuple[frozenset[int], int], int] = {}
        by_key: dict[tuple[int, ...], list[int]] = {}
        for e in range(self.m):
            key = tuple(conditions.setdefault(c, len(conditions))
                        for c in self.eal_conditions[e])
            by_key.setdefault(key, []).append(e)
        self.eal_condition_cols = [
            (np.array(sorted(ids), dtype=np.int64), parity)
            for ids, parity in conditions
        ]
        self.eal_plan = [(key, edges[0], edges[1:]) for key, edges in by_key.items()]

    def _build_join_plan(self) -> None:
        degree_sites, pair_sites = self.sites
        quanta = [QUARTER, FLOOR]
        for e, cl in self.classes.items():
            quanta.append(self.rp.amount(cl.kind))
        for site in degree_sites:
            for f, frac in site.targets:
                quanta.append(site.amount * frac)
        for site in pair_sites:
            for grp in site.groups:
                quanta.append(grp.amount / 2)
        self.z_denom = _lcm_denominator(quanta)
        if self.z_denom >= 2 ** 40:
            raise ScaleOverflow(f"charge denominator {self.z_denom} exceeds 2**40")
        D = self.z_denom
        # the join's start and floor in units of 1/D, exact: both quanta
        # enter D
        self.quarter_int = int(QUARTER * D)
        self.floor_int = int(FLOOR * D)
        self.amount_int = np.zeros(self.m, dtype=np.int64)
        for e, cl in self.classes.items():
            self.amount_int[e] = int(self.rp.amount(cl.kind) * D)
        # a draw below the exact threshold is a draw below the rate; the
        # nearest double to a Fraction rate can sit one draw quantum off
        thresholds = coin_thresholds(self.rates)
        self.groups = [(np.array(members, dtype=np.int64), thresholds[grp])
                       for grp, members in sorted(coin_groups(self.classes).items())]
        # the sites read their cuts by index into ``site_cut_cols``, so a
        # chunk computes each distinct cut's parity once
        site_cuts: dict[tuple[int, ...], int] = {}

        def site_cut(cut) -> int:
            return site_cuts.setdefault(tuple(sorted(cut)), len(site_cuts))

        self.degree_site_plan = [
            (
                site.source,
                site_cut(site.cut_ids),
                [(f, int(site.amount * frac * D)) for f, frac in site.targets],
            )
            for site in degree_sites
        ]
        self.pair_site_plan = [
            (
                site.targets,
                [
                    (
                        int(grp.amount * D) // 2,
                        [(s, site_cut(cut)) for s, cut in grp.members],
                    )
                    for grp in site.groups
                ],
            )
            for site in pair_sites
        ]
        self.site_cut_cols = [np.array(c, dtype=np.int64) for c in site_cuts]
        # the most charge |z_e| an edge can carry
        most = [self.quarter_int + int(a) for a in self.amount_int]
        for f, amt in (t for _, _, targets in self.degree_site_plan for t in targets):
            most[f] += amt
        for (t0, t1), groups in self.pair_site_plan:
            most[t0] += sum(half for half, _ in groups)
            most[t1] += sum(half for half, _ in groups)
        self._choose_lanes(most)
        lane = self.lane
        # the repayments as lane scalars, so a site's row stays in the lane
        self.degree_site_plan = [(src, k, [(f, lane(amt)) for f, amt in targets])
                                 for src, k, targets in self.degree_site_plan]
        self.pair_site_plan = [(targets, [(lane(half), members) for half, members in groups])
                               for targets, groups in self.pair_site_plan]

    def _choose_lanes(self, most: Sequence[int]) -> None:
        """The chunk's integer lanes, from the most charge ``most[e]`` each
        edge can carry.  ``lane`` holds the charges and every value
        ``_infeasible`` forms from them: a cut's cover, a gap pair's cover
        less or plus D, and the sum of two such, all within 2 * sum(most)
        + 2D.  ``sum_lane`` holds a trial's cost sums, cost times charge
        and a tree's cost: int32 or wider, and no narrower than the charges
        it reads; a chunk adds them in int64.  Raises ``ScaleOverflow``
        unless those int64 sums of cost times charge stay exact."""
        cost = [int(c) for c in self.cost_int]
        charge_cost = sum(c * z for c, z in zip(cost, most))
        if MAX_CHUNK * charge_cost > INT64_MAX:
            raise ScaleOverflow(f"{MAX_CHUNK} trials of cost times charge could overflow int64")
        bound = 2 * sum(most) + 2 * self.z_denom
        self.lane = narrowest_lane(bound)
        # 2**15 lies past int16, so the cost sums take int32 at least
        self.sum_lane = narrowest_lane(max(charge_cost, sum(cost), bound, 1 << 15))

    def _build_verify_plan(self) -> None:
        """The min-cuts as the hierarchy holds them (see ``_infeasible``).

        A cycle piece's gaps are its partner pairs, external and internal,
        one between each two neighbours on its cycle, so its segment cuts
        are exactly the unions of two distinct gaps.  The label cut of a
        degree piece's child is checked directly, reusing a charge site's
        parity where the site reads the same cut; a cycle child's label cut
        is two of its own gaps.
        """
        sites = {tuple(c.tolist()): k for k, c in enumerate(self.site_cut_cols)}
        direct: dict[tuple[int, ...], int] = {}
        self.cycle_gaps = []
        for nd in self.h.non_leaves():
            piece = nd.piece
            if nd.kind == "cycle":
                gaps = piece.external_pairs() + piece.internal_pairs()
                ids = [e for gap in gaps for e in gap]
                if (len(gaps) != len(piece.chain) + 1
                        or any(len(gap) != 2 for gap in gaps)
                        or sorted(ids) != sorted(piece.graph.edge_ids)):
                    raise AssemblyError(
                        f"cycle piece of node {nd.node_id} is not split into "
                        f"one partner pair per gap"
                    )
                self.cycle_gaps.append(gaps)
                continue
            for v, child in zip(piece.internal_vertices, nd.children):
                if self.h.nodes[child].kind != "cycle":
                    cut = tuple(sorted(piece.graph.incident_ids(v)))
                    direct.setdefault(cut, sites.get(cut, -1))
        self.direct_cuts = [
            (np.array(cut, dtype=np.int64), k) for cut, k in direct.items()
        ]

    # -- chunk primitives ----------------------------------------------------

    def _eal_flags(self, T: np.ndarray) -> np.ndarray:
        met = []
        for cols, parity in self.eal_condition_cols:
            odd = _odd_rows(T, cols)
            met.append(odd if parity else np.logical_not(odd, out=odd))
        eal = np.ones_like(T)
        for key, first, rest in self.eal_plan:
            for k in key:
                eal[first] &= met[k]
            if rest:
                eal[rest] = eal[first]
        return eal

    # -- main loop ------------------------------------------------------------

    def run(self, trials: int, seed: int, *, join: bool = True, verify: bool = False,
            integral: bool = False, symmetry_pairs: Sequence[tuple[int, int]] = ()
            ) -> BatchStats:
        """The records of the chunks of ``tree_chunks``, folded in index order.

        Chunk ``idx`` is computed by process ``idx % P`` of ``P =
        processes(trials)``: process 0 is this one and the others are the
        engine's helpers, so the fold, and the result, is the same at any P.
        A run whose chunks fail raises the error of the lowest failing
        chunk, as one process does."""
        flags = (join, verify, integral, symmetry_pairs)
        P = processes(trials)
        shares = [range(k, -(-trials // MAX_CHUNK), P) for k in range(P)]
        if P == 1:
            # catching nothing, one process raises a chunk's error at once
            replies = [self._share(trials, seed, shares[0], flags, ())]
        else:
            replies = self._helpers.run(self, trials, seed, shares, flags)
        failed = [(share[len(records)], err)
                  for share, (records, err) in zip(shares, replies) if err is not None]
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        st = self._record(0, symmetry_pairs, verify, integral, z_type=object)
        for idx in range(sum(map(len, shares))):
            st.fold(replies[idx % P][0][idx // P])
        return st

    def _share(self, trials: int, seed: int, chunks: range, flags: tuple, catch
               ) -> tuple[list[BatchStats], Optional[BaseException]]:
        """The records of the chunks ``chunks`` of a run, in their order, up
        to the first that raises an error of the type(s) ``catch``, and that
        error."""
        records = []
        try:
            for _, T, rng in self.tree_chunks(trials, seed, chunks):
                records.append(self._run_chunk(T, rng, *flags))
        except catch as exc:
            return records, exc
        return records, None

    def _record(self, trials: int, symmetry_pairs, verified: bool, integral: bool,
                z_type: type = np.int64) -> BatchStats:
        """A record of ``trials`` trials under the run's settings, its fields
        ``incl`` to ``z_sumsq`` zero arrays in field order; ``z_sum`` holds ``z_type``."""
        # incl, eal, reduced, z_sum and z_sumsq, in field order
        sums = (np.zeros(self.m, dtype=t) for t in (np.int64, np.int64, np.int64, z_type, float))
        return BatchStats(trials, *sums, verified=verified, integral=integral,
                          sym_counts={p: np.zeros(4, dtype=np.int64) for p in symmetry_pairs},
                          z_denom=self.z_denom, cost_denom=self.cost_denom)

    def _run_chunk(self, T, rng, join, verify, integral, symmetry_pairs) -> BatchStats:
        """The record of a chunk's tree block ``T``, its coins read from its
        stream ``rng``."""
        n = T.shape[1]
        st = self._record(n, symmetry_pairs, verify, integral)
        st.incl = held = _row_counts(T)
        # each pair's four cells from the trials holding both edges and each
        # edge's own count
        both = np.empty(n, dtype=bool)
        for a, b in symmetry_pairs:
            n11 = np.count_nonzero(np.logical_and(T[a], T[b], out=both))
            na, nb = int(held[a]), int(held[b])
            st.sym_counts[(a, b)] += (n - na - nb + n11, nb - n11, na - n11, n11)
        if not join:
            return st
        eal, reduced, site_odd, z = self._join(T, rng)
        st.eal = _row_counts(eal)
        st.reduced = _row_counts(reduced)
        st.z_sum = z.sum(1, dtype=np.int64)
        st.z_sumsq = self._square_sums(z)
        # einsum adds integer rows in the sum lane without the int64 copy of
        # a block that matmul makes, which would set the chunk's peak memory;
        # the chunk totals are added in int64
        cost = self.cost_int.astype(self.sum_lane)
        zc = np.einsum("e,et->t", cost, z, dtype=self.sum_lane)
        st.zc_sum = int(zc.sum(dtype=np.int64))
        st.zc_sumsq = float((zc.astype(float) ** 2).sum())
        tree_cost = np.einsum("e,et->t", cost, T, dtype=self.sum_lane)
        st.tree_sum = int(tree_cost.sum(dtype=np.int64))
        st.tree_sumsq = float((tree_cost.astype(float) ** 2).sum())
        if verify:
            st.feasibility_failures = int(self._infeasible(T, z, site_odd).sum())
        if integral:
            ij = self._integral_costs(T.T)
            # the int64 join costs lift the sum to int64
            total = tree_cost + ij
            st.total_sum = int(total.sum())
            st.total_sumsq = float((total.astype(float) ** 2).sum())
        return st

    def _join(self, T: np.ndarray, rng: np.random.Generator):
        """The fractional joins of a tree block: the even-at-last flags, the
        reduced edges, the parity rows of ``site_cut_cols`` and the charges
        (see ``_charges``).  Each coin group, in the order of ``groups``,
        reads a row ``rng.random(trials)``: its coin falls heads in a trial
        when that trial's draw is below the group's threshold."""
        eal = self._eal_flags(T)
        reduced = np.zeros_like(T)
        # one coin row at a time: a (groups, trials) block of uniforms
        # would set the chunk's peak memory
        for members, rate in self.groups:
            reduced[members] = eal[members] & (rng.random(T.shape[1]) < rate)
        site_odd = [_odd_rows(T, cols) for cols in self.site_cut_cols]
        return eal, reduced, site_odd, self._charges(reduced, site_odd)

    def _square_sums(self, z: np.ndarray) -> np.ndarray:
        """Per edge, the sum over the chunk's trials of its squared charge
        (z / z_denom)**2, added in trial order.

        The squares can overflow int64 when the charge denominator is large,
        and they only feed the sigma of the delta-floor rows, so they are
        summed in floats; the order of the adds fixes the bits of a report,
        so it must stay trial order (a pairwise sum would move them).  Each
        block of ``SUMSQ_BLOCK`` trials is divided into a ``(trials, m)``
        float buffer (every lane's integers convert to floats exactly, so
        the lane moves no bit), squared, the running sums folded into its first row, and its
        rows added by one reduction over axis 0, which adds the rows one
        after the other for every edge at once.  That holds for two or more
        columns (every instance has m = 2n >= 6 edges); with one column
        numpy switches to pairwise summation.
        """
        m, n = z.shape
        buf = np.empty((min(SUMSQ_BLOCK, n), m))
        acc = np.zeros(m)
        for lo in range(0, n, SUMSQ_BLOCK):
            rows = buf[:min(SUMSQ_BLOCK, n - lo)]
            np.divide(z[:, lo:lo + len(rows)].T, self.z_denom, out=rows)
            rows *= rows
            rows[0] += acc
            np.add.reduce(rows, axis=0, out=acc)
        return acc

    def _charges(self, reduced: np.ndarray,
                 site_odd: Sequence[np.ndarray]) -> np.ndarray:
        """Per edge and trial, the fractional join in units of 1/z_denom, in
        the plan's ``lane``: a quarter, less the reduced edges' amounts,
        plus the repayments of the charge sites whose cut is odd.
        ``site_odd`` holds the parity rows of ``site_cut_cols``."""
        n = reduced.shape[1]
        lane = self.lane
        # a multiply into ``z`` casts the bool block in small buffers, with
        # no block-sized temporary; a masked subtract was 7x slower.  Each
        # row is one cache line (64 bytes) longer than the chunk: at 2**14
        # trials a row spans a power of two of bytes, so the rows would meet
        # in one cache set and the trial-major reads of ``_square_sums``
        # would miss on every edge
        pad = 64 // np.dtype(lane).itemsize
        z = np.empty((self.m, n + pad), dtype=lane)[:, :n]
        np.multiply(reduced, -self.amount_int.astype(lane)[:, None], out=z)
        z += lane(self.quarter_int)
        # two bool rows and one lane row serve every site
        active, hit = np.empty((2, n), dtype=bool)
        paid = np.empty(n, dtype=lane)
        for src, k, targets in self.degree_site_plan:
            np.logical_and(reduced[src], site_odd[k], out=active)
            for f, amt in targets:
                z[f] += np.multiply(active, amt, out=paid)
        for (t0, t1), groups in self.pair_site_plan:
            for half_amt, members in groups:
                active.fill(False)
                for s, k in members:
                    active |= np.logical_and(reduced[s], site_odd[k], out=hit)
                np.multiply(active, half_amt, out=paid)
                z[t0] += paid
                z[t1] += paid
        return z

    def _infeasible(self, T: np.ndarray, z: np.ndarray,
                    site_odd: Sequence[np.ndarray]) -> np.ndarray:
        """Per trial, whether the charges ``z`` (in units of 1/z_denom) break
        the join on the trees ``T``: an edge under its floor (``FLOOR``), or an
        odd min-cut covered below 1.  ``site_odd`` holds the parity rows of
        ``site_cut_cols``.

        An odd segment cut of a cycle piece is an odd gap and an even one,
        so some segment fails exactly when (least cover of an odd gap) +
        (least cover of an even gap) < 1.  With D = z_denom, the running
        row minima ``least_even`` of cover + D * parity and ``least_odd``
        of cover - D * parity sum below 0 exactly then, wherever every
        charge is non-negative; a trial with a charge under the floor
        fails anyway.
        """
        lane = self.lane
        D = lane(self.z_denom)
        bad = (z < lane(self.floor_int)).any(axis=0)
        # row buffers only, in the plan's lane, with unmasked arithmetic: a
        # (gaps, trials) block would set the chunk's peak memory, and a
        # masked minimum was 8x slower than the adds
        n = T.shape[1]
        parity = np.empty(n, dtype=bool)
        cover, lift, shifted, least_even, least_odd = np.empty((5, n), dtype=lane)
        for cols, k in self.direct_cuts:
            # a parity no site holds is dropped after use: keeping all of
            # them would set the chunk's peak memory
            odd = site_odd[k] if k >= 0 else _odd_rows(T, cols)
            np.less(_sum_rows(z, cols, out=cover), D, out=parity)
            parity &= odd
            bad |= parity

        def lift_gap(a: int, b: int) -> None:
            np.add(z[a], z[b], out=cover)
            np.not_equal(T[a], T[b], out=parity)
            np.multiply(parity, D, out=lift)

        for (a, b), *rest in self.cycle_gaps:
            lift_gap(a, b)
            np.add(cover, lift, out=least_even)
            np.subtract(cover, lift, out=least_odd)
            for a, b in rest:
                lift_gap(a, b)
                np.add(cover, lift, out=shifted)
                np.minimum(least_even, shifted, out=least_even)
                np.subtract(cover, lift, out=shifted)
                np.minimum(least_odd, shifted, out=least_odd)
            np.add(least_even, least_odd, out=cover)
            bad |= cover < 0
        return bad

    def checked_joins(self, T: np.ndarray, rng: np.random.Generator,
                      first: int) -> np.ndarray:
        """The fractional joins of ``htsp join`` on a block of ``tree_chunks``,
        one column per trial in units of 1/z_denom, their coins read from
        the block's stream ``rng`` as a chunk reads them, and checked as a
        chunk checks its trials.  Column j is trial ``first + j``; the first
        failing trial raises ``FeasibilityViolation`` naming its edges under
        the floor and its odd min-cuts covered below one."""
        _, _, site_odd, z = self._join(T, rng)
        bad = np.flatnonzero(self._infeasible(T, z, site_odd))
        if bad.size:
            j, D = int(bad[0]), self.z_denom
            under = np.flatnonzero(z[:, j] < self.floor_int).tolist()
            cuts = []
            for cut in min_cuts_via_hierarchy(self.h):
                ids = list(cut.edge_ids)
                cover = int(z[ids, j].sum())
                if T[ids, j].sum() % 2 and cover < D:
                    cuts.append((sorted(cut.shore), str(Fraction(cover, D))))
            if not (under or cuts):
                raise AssemblyError(f"trial {first + j} fails the hierarchy check, "
                                    "but no floor and no min-cut of the list")
            raise FeasibilityViolation(f"trial {first + j}: edges under the floor {under}, "
                                       f"odd min-cuts covered below one {cuts}")
        return z

    # -- integral joins --------------------------------------------------------

    def _integral_costs(self, T: np.ndarray) -> np.ndarray:
        """Integral join cost per trial of a ``(trials, m)`` tree block; the
        chunk hands over a transposed view of its edge-major block.

        A trial's join depends only on its odd vertices, and a chunk holds
        few distinct odd sets, so only those are looked up (and solved on a
        miss), in the order of their first trial, and their costs scattered
        back.  The cache key is the trial's vertex parities packed as
        ``np.packbits`` packs them: vertex v is bit ``7 - v % 8`` of byte
        ``v // 8``.
        """
        rows = T.T
        trials = T.shape[0]
        nbytes = -(-self.n // 8)
        # key bytes, padded to whole uint64 words, built a byte row at a
        # time and turned to one row per trial
        packed = np.zeros((-(-nbytes // 8) * 8, trials), dtype=np.uint8)
        g = self.inst.graph
        for v in range(self.n):
            packed[v >> 3] |= _odd_rows(rows, g.incident_ids(v)).view(np.uint8) << (7 - (v & 7))
        keys = np.ascontiguousarray(packed.T)
        # lexsort on 16-bit digits, which numpy radix-sorts: about 7x faster
        # than on the 64-bit words; any total order groups equal keys
        order = np.lexsort(keys.view(np.uint16).T)
        ordered = keys.view(np.uint64)[order]
        starts = np.ones(trials, dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
        inverse = np.empty(trials, dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        # lexsort is stable, so each run of equal keys starts at its first
        # trial; ``rank`` lists the runs by that trial
        firsts = order[starts]
        rank = np.argsort(firsts)
        firsts = firsts[rank]
        blob = keys[firsts, :nbytes].tobytes()
        found = [self._join_cache.get(blob[k:k + nbytes])
                 for k in range(0, len(blob), nbytes)]
        d, _ = self.metric
        for j, cost in enumerate(found):
            if cost is None:
                # the caps are kept between lookups, never inside a solve
                if len(self._join_cache) >= JOIN_CACHE_LIMIT:
                    self._join_cache.clear()
                if len(self._dp_memo) >= DP_MEMO_LIMIT:
                    self._dp_memo.clear()
                odd = np.flatnonzero(np.unpackbits(keys[firsts[j]])[:self.n])
                c, _ = min_cost_perfect_matching(odd.tolist(), d, memo=self._dp_memo)
                key = blob[j * nbytes:(j + 1) * nbytes]
                found[j] = self._join_cache[key] = int(c)
        costs = np.empty(len(found), dtype=np.int64)
        costs[rank] = found
        return costs[inverse]


# ---------------------------------------------------------------------------
# the helper processes
# ---------------------------------------------------------------------------

def cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes(trials: int) -> int:
    """How many processes a run of ``trials`` trials spreads its chunks
    over: one per CPU, but each with at least one full chunk of
    ``MAX_CHUNK`` trials.  One where there is no ``os.fork``, or while a
    second thread runs: a forked child holds only the forking thread, and
    a lock another thread held stays held in it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(cpu_count(), trials // MAX_CHUNK))


def _send(fd: int, obj) -> None:
    data = memoryview(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    while data:
        data = data[os.write(fd, data):]


class _Helpers:
    """The helper processes of one engine: forked at its first run of two or
    more full chunks, with the engine as it is then, and kept while the
    engine lives, each with its own join caches.

    A helper keeps no descriptor but its own two pipe ends, so it reads EOF
    on its task pipe, and leaves by ``os._exit``, when its engine is
    collected (``close``, which a finalizer also runs at interpreter exit),
    when that pipe is closed, or when the parent dies."""

    def __init__(self, owner: BatchEngine):
        #: per helper: its pid, the write end of its task pipe and a reader
        #: on its reply pipe
        self.procs: list[tuple[int, int, BinaryIO]] = []
        self.parent = os.getpid()
        weakref.finalize(owner, self.close)

    def run(self, engine: BatchEngine, trials: int, seed: int, shares: list[range],
            flags: tuple) -> list[tuple]:
        """Share k > 0 of a run's chunks to helper k - 1 and share 0 to this
        process; the replies of ``_share``, in share order.  Any exception
        here ends every helper before it propagates; the next run forks anew."""
        try:
            while len(self.procs) < len(shares) - 1:
                self._fork(engine)
            helpers = self.procs[:len(shares) - 1]
            for (pid, tasks, _), share in zip(helpers, shares[1:]):
                # the chunk size as the caller sees it now, not as it was at
                # the fork
                try:
                    _send(tasks, (MAX_CHUNK, trials, seed, share, flags))
                except BrokenPipeError:
                    raise HelperLost(f"helper process {pid} ended before it returned "
                                     "its chunks") from None
            replies = [engine._share(trials, seed, shares[0], flags, HtspError)]
            for pid, _, replies_in in helpers:
                try:
                    replies.append(pickle.load(replies_in))
                except (EOFError, pickle.UnpicklingError):
                    raise HelperLost(f"helper process {pid} ended before it returned "
                                     "its chunks") from None
            return replies
        except BaseException:
            self.close(kill=True)
            raise

    def _fork(self, engine: BatchEngine) -> None:
        tasks_r, tasks_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (tasks_r, tasks_w, replies_r, replies_w):
                os.close(fd)
            raise
        if pid == 0:
            try:
                _serve(engine, tasks_r, replies_w)
            finally:
                os._exit(1)
        os.close(tasks_r)
        os.close(replies_w)
        self.procs.append((pid, tasks_w, os.fdopen(replies_r, "rb")))

    def close(self, kill: bool = False) -> None:
        """End every helper, by closing its task pipe or by SIGKILL, and reap
        it."""
        if os.getpid() != self.parent:
            # a helper's inherited copy of another engine's helpers
            return
        procs, self.procs = self.procs, []
        for pid, tasks, _ in procs:
            os.close(tasks)
            if kill:
                os.kill(pid, signal.SIGKILL)
        for pid, _, replies_in in procs:
            os.waitpid(pid, 0)
            replies_in.close()


def _serve(engine: BatchEngine, tasks_fd: int, replies_fd: int) -> NoReturn:
    """A helper's loop: it closes every other descriptor, then answers each
    task with the reply of ``BatchEngine._share``, whatever error a chunk
    raises included, until EOF."""
    global MAX_CHUNK
    lo, hi = sorted((tasks_fd, replies_fd))
    os.closerange(0, lo)
    os.closerange(lo + 1, hi)
    os.closerange(hi + 1, os.sysconf("SC_OPEN_MAX"))
    tasks = os.fdopen(tasks_fd, "rb")
    while True:
        try:
            # the caller's chunk size rebinds this process's own
            MAX_CHUNK, trials, seed, share, flags = pickle.load(tasks)
        except EOFError:
            os._exit(0)
        _send(replies_fd, engine._share(trials, seed, share, flags, Exception))


def _odd_rows(rows: np.ndarray, ids) -> np.ndarray:
    """Per trial, whether an odd number of the edges ``ids`` is drawn: the
    XOR of their rows of an edge-major bool block."""
    first, *rest = ids
    out = rows[first].copy()
    for e in rest:
        out ^= rows[e]
    return out


def _row_counts(rows: np.ndarray) -> np.ndarray:
    """Per row of a bool block, how many of its entries are set; row by row,
    which is several times faster than a reduction over axis 1."""
    return np.fromiter((np.count_nonzero(r) for r in rows), dtype=np.int64, count=len(rows))


def _sum_rows(rows: np.ndarray, ids, out: np.ndarray) -> np.ndarray:
    """Per trial, the sum of the rows ``ids`` (two or more) of an
    edge-major block, written to ``out``."""
    first, second, *rest = ids
    np.add(rows[first], rows[second], out=out)
    for e in rest:
        out += rows[e]
    return out
