"""The trial-major batch chunk that ``htsp.engine.BatchEngine`` replaced.

Kept as a test oracle: trees, even-at-last flags, reductions and charges are
``(trials, m)`` arrays, and every cut is read by fancy-indexing its edge
columns, exactly as the package did before the chunk went edge-major.  The
methods below, with the old per-trial integral-join lookup and the old
per-piece even-at-last plans (an edge-vertex incidence matrix per degree
piece, the external pairs per cycle piece), are the old ones verbatim,
except that a charge site names its cut by an index into the engine's
``site_cut_cols`` and that verification, still one check per listed min-cut,
is its own method, ``_infeasible``: it is the oracle for the engine's check
through the hierarchy.  Its ``run`` is the old loop over chunks of
``engine.MAX_CHUNK`` trials, each adding its counts into one shared
``BatchStats``: the oracle for the engine's fold of chunk records.  The
twin also keeps the old sampling plan, a (cols, tree matrix, cdf) table per
tree-table piece read by ``np.searchsorted`` and the pairs of each cycle
piece, built from the engine's samplers, so it is an independent oracle for
the pieces' own block draws.
``rowmajor(engine)`` gives a twin of a built engine that runs them, so the
two layouts can be compared on one engine, field for field.
"""

from __future__ import annotations

import copy

import numpy as np

import htsp.engine
from htsp.errors import AssemblyError
from htsp.hierarchy import min_cuts_via_hierarchy
from htsp.join import min_cost_perfect_matching
from htsp.engine import BatchEngine, BatchStats
from htsp.pipeline import CyclePieceSampler


class RowMajorEngine(BatchEngine):
    """A ``BatchEngine`` whose chunk runs on ``(trials, m)`` arrays."""

    def _build_eal_plan(self) -> None:
        self.eal_degree = []
        self.eal_cycle = []
        for nd in self.h.non_leaves():
            piece = nd.piece
            g = piece.graph
            if nd.kind == "cycle":
                ext_pairs = [tuple(p) for p in piece.external_pairs()]
                settled = [
                    e for e in g.edge_ids
                    if self.classes[e].settled == nd.node_id
                ]
                self.eal_cycle.append(
                    (np.array(ext_pairs, dtype=np.int64),
                     np.array(settled, dtype=np.int64))
                )
            else:
                cols = sorted(g.edge_ids)
                col_of = {e: i for i, e in enumerate(cols)}
                inc = np.zeros((len(cols), g.n), dtype=np.uint8)
                for e, (u, v) in zip(g.edge_ids, g.endpoints):
                    inc[col_of[e], u] = 1
                    inc[col_of[e], v] = 1
                settled = [
                    (e, *g.endpoints[g.edge_index(e)])
                    for e in piece.internal_edge_ids
                ]
                self.eal_degree.append(
                    (np.array(cols, dtype=np.int64), inc, settled)
                )

    def _draw_trees(self, n: int, rng: np.random.Generator) -> np.ndarray:
        T = np.zeros((n, self.m), dtype=bool)
        for nid, cols, mat, cdf in self.enum_plan:
            idx = np.searchsorted(cdf, rng.random(n), side="right")
            idx = np.minimum(idx, len(cdf) - 1)
            T[:, cols] = mat[idx]
        for nid, pairs in self.cycle_plan:
            if len(pairs) == 0:
                continue
            pick = rng.random((n, len(pairs))) < 0.5
            T[np.arange(n)[:, None], pairs[:, 0][None, :]] = pick
            T[np.arange(n)[:, None], pairs[:, 1][None, :]] = ~pick
        return T

    def _eal_flags(self, T: np.ndarray) -> np.ndarray:
        n = T.shape[0]
        eal = np.zeros((n, self.m), dtype=bool)
        for cols, inc, settled in self.eal_degree:
            par = (T[:, cols].astype(np.uint8) @ inc) % 2
            for e, u, v in settled:
                eal[:, e] = (par[:, u] == 0) & (par[:, v] == 0)
        for ext_pairs, settled in self.eal_cycle:
            flag = np.ones(n, dtype=bool)
            for a, b in ext_pairs:
                cnt = T[:, a].astype(np.int8) + T[:, b].astype(np.int8)
                flag &= cnt == 1
            eal[:, settled] = flag[:, None]
        return eal

    def run(self, trials, seed, *, join=True, verify=False, integral=False,
            symmetry_pairs=()):
        chunk = htsp.engine.MAX_CHUNK
        st = BatchStats()
        st.incl = np.zeros(self.m, dtype=np.int64)
        st.eal = np.zeros(self.m, dtype=np.int64)
        st.reduced = np.zeros(self.m, dtype=np.int64)
        st.z_sum = [0] * self.m
        st.z_sumsq = [0.0] * self.m
        st.z_denom = self.z_denom
        st.cost_denom = self.cost_denom
        st.verified = verify
        st.integral = integral
        for a, b in symmetry_pairs:
            st.sym_counts[(a, b)] = np.zeros(4, dtype=np.int64)
        done = 0
        idx = 0
        while done < trials:
            n = min(chunk, trials - done)
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(idx,))
            )
            self._run_chunk(n, rng, st, join, verify, integral, symmetry_pairs)
            done += n
            idx += 1
        st.trials = trials
        return st

    def _run_chunk(self, n, rng, st, join, verify, integral, symmetry_pairs):
        T = self._draw_trees(n, rng)
        if not np.all(T.sum(1) == self.n):
            raise AssemblyError(f"assembled samples without {self.n} edges")
        st.incl += T.sum(0)
        for a, b in symmetry_pairs:
            ta, tb = T[:, a], T[:, b]
            c = st.sym_counts[(a, b)]
            c[0] += int(np.sum(~ta & ~tb))
            c[1] += int(np.sum(~ta & tb))
            c[2] += int(np.sum(ta & ~tb))
            c[3] += int(np.sum(ta & tb))
        if not join:
            return
        eal = self._eal_flags(T)
        st.eal += eal.sum(0)
        reduced = np.zeros((n, self.m), dtype=bool)
        for members, rate in self.groups:
            coin = rng.random(n) < rate
            reduced[:, members] = eal[:, members] & coin[:, None]
        st.reduced += reduced.sum(0)
        D = self.z_denom
        z = np.full((n, self.m), D // 4, dtype=np.int64)
        z -= reduced * self.amount_int[None, :]
        for src, k, targets in self.degree_site_plan:
            cut_cols = self.site_cut_cols[k]
            oddc = (T[:, cut_cols].sum(1) % 2).astype(bool)
            active = reduced[:, src] & oddc
            for f, amt in targets:
                z[:, f] += active * amt
        for targets, groups in self.pair_site_plan:
            for half_amt, members in groups:
                act = np.zeros(n, dtype=bool)
                for s, k in members:
                    cut_cols = self.site_cut_cols[k]
                    act |= reduced[:, s] & (T[:, cut_cols].sum(1) % 2).astype(bool)
                t0, t1 = targets
                z[:, t0] += act * half_amt
                z[:, t1] += act * half_amt
        st.z_sum = [a + int(b) for a, b in zip(st.z_sum, z.sum(0, dtype=np.int64))]
        # each chunk's exact integer sum of squares, in Python ints (int64
        # could wrap), as a float; the chunks add in order
        st.z_sumsq = [
            a + float(b) for a, b in zip(st.z_sumsq, (z.astype(object) ** 2).sum(0))
        ]
        zc = z @ self.cost_int
        st.zc_sum += int(zc.sum())
        st.zc_sumsq += float((zc.astype(float) ** 2).sum())
        tree_cost = T.astype(np.int64) @ self.cost_int
        st.tree_sum += int(tree_cost.sum())
        st.tree_sumsq += float((tree_cost.astype(float) ** 2).sum())
        if verify:
            st.feasibility_failures += int(self._infeasible(T, z).sum())
        if integral:
            ij = self._integral_costs(T)
            total = tree_cost + ij
            st.total_sum += int(total.sum())
            st.total_sumsq += float((total.astype(float) ** 2).sum())

    def _infeasible(self, T: np.ndarray, z: np.ndarray) -> np.ndarray:
        D = self.z_denom
        bad = np.zeros(T.shape[0], dtype=bool)
        bad |= (z < D // 6).any(axis=1)
        for cut_cols in self.cut_cols:
            oddc = (T[:, cut_cols].sum(1) % 2).astype(bool)
            short = z[:, cut_cols].sum(1) < D
            bad |= oddc & short
        return bad

    def _integral_costs(self, T: np.ndarray) -> np.ndarray:
        par = (T.astype(np.uint8) @ self._inc_full) % 2
        packed = np.packbits(par, axis=1)
        keys = [row.tobytes() for row in packed]
        d, _ = self.metric
        if not hasattr(self, "_dp_memo"):
            self._dp_memo = {}
        out = np.empty(T.shape[0], dtype=np.int64)
        for i, key in enumerate(keys):
            cost = self._join_cache.get(key)
            if cost is None:
                odd = [v for v in range(self.n) if par[i, v]]
                c, _ = min_cost_perfect_matching(odd, d, memo=self._dp_memo)
                cost = int(c)
                self._join_cache[key] = cost
            out[i] = cost
        return out


def rowmajor(engine: BatchEngine) -> RowMajorEngine:
    """A twin of ``engine`` sharing its plans, running the trial-major chunk.

    The twin gets its own join caches, its own sampling and even-at-last
    plans, the edge-vertex incidence matrix the old engine built and the
    full min-cut list, so no drawn tree, integral join cost, even-at-last
    flag or verified cut is shared between the two.
    """
    twin = copy.copy(engine)
    twin.__class__ = RowMajorEngine
    twin._build_eal_plan()
    twin.enum_plan = []
    twin.cycle_plan = []
    for nid in sorted(engine.samplers):
        s = engine.samplers[nid]
        if isinstance(s, CyclePieceSampler):
            twin.cycle_plan.append((nid, np.array(s.pairs, dtype=np.int64)))
        else:
            twin.enum_plan.append((nid, np.array(s.cols, dtype=np.int64),
                                   np.ascontiguousarray(s.holds.T), np.cumsum(s.probs)))
    twin.cut_cols = [
        np.array(sorted(c.edge_ids), dtype=np.int64)
        for c in min_cuts_via_hierarchy(engine.h)
    ]
    g = engine.inst.graph
    twin._inc_full = np.zeros((engine.m, engine.n), dtype=np.uint8)
    for eid, (u, v) in zip(g.edge_ids, g.endpoints):
        twin._inc_full[eid, u] = 1
        twin._inc_full[eid, v] = 1
    twin._join_cache = {}
    twin._dp_memo = {}
    return twin
