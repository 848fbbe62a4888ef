"""Independent checks the tests hold the package against.

None of these has a caller in the package.  Four are the one-shot forms
of package routines that only the tests call: the sorted list of every
min-cut, a single max-entropy fit, and one shifted state or surgery
branch (``shift``, ``apply_surgery``).
Each other one recomputes a quantity the
package derives another way (a Stoer-Wagner edge connectivity, every
spanning tree of a graph by brute force over edge subsets, a rooted tree
checked one trial at a time by union-find, a Kirchhoff count, closed-form marginals, a
grid search over the parameter LP, the parameter LP by LAPACK and
``Fraction`` Gauss-Jordan, the exact layer's laws, event probabilities
and net decreases in ``Fraction`` dicts, an exact expected join cost, the
``Fraction`` shortest-path metric with successors, the charge split
by a ``Fraction`` Edmonds-Karp, a tree's odd vertices
by degree counts, the even-at-last probabilities by indicator patterns, the matroid-route mixture
by per-class states and ``Fraction`` sums, a degree piece's walk, shift
and surgery on ``Fraction`` dicts, the odd-set rows of the matching
polytope one vertex set at a time, a state's tree marginals over
every interior edge, the max-entropy fit one component at a time and its
tree law as edge-id sets, connectivity by a graph search, the cactus
min-cuts by removing cycle-edge pairs, spanning-tree polytope membership
by every vertex subset, the critical set of a contraction step, each
trial's join and its check in ``Fraction`` dicts, the engine's integer
plan by one ``Fraction`` product per edge, coin group and site member), or
reads a structure the package builds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from htsp.engine import narrowest_lane
from htsp.errors import (AssemblyError, FeasibilityViolation, InfeasibleShift, LpFailure,
                         NonConvergence, NumericalBreakdown)
from htsp.graph import MultiGraph, bits
from htsp.hierarchy import (Cactus, CutHierarchy, CutView, _canonical_shore, _critical_shore,
                            _min_cut_shores, min_cuts_via_hierarchy)
from htsp.join import EalConditions, EdgeClass, ReductionParams, coin_groups
from htsp.matching import (
    SURGERY_MOVE,
    MatchingDistribution,
    ShiftedSolution,
    SplitPiece,
    _interior_at,
    _parts_from_submatching,
    _shifted,
    decompose_matchings,
    pairings_of,
    provenance,
    seven_coloring,
    split_external,
    surgery_drops,
    surgery_options,
    surgery_parts,
)
from htsp.oracle import exact_expected_net_decrease
from htsp.params import (BETA_CAP, FIT_TOLERANCE, FLOOR, QUARTER, LpSolution, _bases, _constraints,
                         coin_bounds, decrease_forms)
from htsp.pipeline import CyclePieceSampler, _check_interior, _class_submasks, _submask_of_class
from htsp.trees import (
    FIT_MAX_ROUNDS,
    MaxEntComponent,
    MaxEntWeights,
    _plan_fit,
    constrained_tree_weights,
    contract_row,
    maxent_fits,
)


def enumerate_min_cuts(g: MultiGraph) -> list[CutView]:
    """All cuts of value 4, one per shore/complement pair, ordered by shore
    size, then by the sorted shore.

    The canonical shore is the side not containing vertex 0.  Includes the
    singleton cuts.  Raises ConnectivityError when the graph is not
    4-edge-connected.
    """
    out = [g.cut(frozenset(bits(mask))) for mask in _min_cut_shores(g)]
    out.sort(key=lambda c: (len(c.shore), sorted(c.shore)))
    return out


def _union_find_joins(n: int, pairs) -> bool:
    """Whether the vertex pairs ``pairs`` join n vertices without a cycle,
    each pair merging two classes of a union-find with path halving."""
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def enumerate_spanning_trees(g: MultiGraph) -> tuple[int, ...]:
    """All spanning trees as bitmasks over edge positions, by brute force:
    every set of n - 1 edge positions in ``itertools.combinations`` order
    that a union-find joins without a cycle."""
    return tuple(
        sum(1 << i for i in combo)
        for combo in itertools.combinations(range(g.m), g.n - 1)
        if _union_find_joins(g.n, (g.endpoints[i] for i in combo))
    )


def validate_r0_tree(h: CutHierarchy, edges: frozenset[int]) -> None:
    """Raise ``AssemblyError`` unless ``edges`` is a rooted tree of the
    instance: n edges, two of them at the root, and the others a spanning
    tree of the other vertices, checked one edge at a time."""
    g = h.instance.graph
    root = h.instance.root
    if len(edges) != g.n:
        raise AssemblyError(f"expected {g.n} edges, got {len(edges)}")
    deg_root = sum(1 for eid in edges if root in g.endpoints[eid])
    if deg_root != 2:
        raise AssemblyError(f"root degree {deg_root}, expected 2")
    others = [v for v in range(g.n) if v != root]
    at = {v: i for i, v in enumerate(others)}
    pairs = [(at[u], at[v]) for u, v in (g.endpoints[eid] for eid in sorted(edges))
             if root not in (u, v)]
    if not _union_find_joins(len(others), pairs):
        raise AssemblyError("cycle among non-root edges")
    # n - 2 edges joining n - 1 vertices without a cycle span them


def maxent_fit(interior_graph: MultiGraph, targets: dict[int, Fraction]) -> MaxEntWeights:
    """Fit weighted-uniform tree weights matching the target marginals: the
    one-problem call of ``maxent_fits``.

    Contracts value-one edges and deletes value-zero edges first, then
    factors across tight vertex subsets and fits each factor by
    multiplicative updates with matrix-tree marginals.
    """
    (fit,) = maxent_fits([(interior_graph, *integer_targets(interior_graph, targets))])
    return fit


def integer_targets(g: MultiGraph, targets: dict[int, Fraction]) -> tuple[tuple[int, ...], int]:
    """Targets by edge id as numerators in the graph's edge order over
    their least common denominator."""
    den = math.lcm(*(targets[eid].denominator for eid in g.edge_ids))
    return tuple(targets[eid].numerator * (den // targets[eid].denominator)
                 for eid in g.edge_ids), den


def contract_forced(g: MultiGraph, values: dict[int, Fraction]):
    """The minor of ``g`` at values given as ``Fraction``s by edge id."""
    return contract_row(g, *integer_targets(g, values))


def edge_ids_of(dist: MatchingDistribution, mask: int) -> frozenset[int]:
    """The edge ids of a matching given as a bit mask over edge positions."""
    g = dist.graph
    return frozenset(g.edge_ids[i] for i in range(g.m) if (mask >> i) & 1)


def tree_sets(masks, edge_ids) -> list[frozenset[int]]:
    """Trees given as masks over the positions of ``edge_ids``, as edge-id
    sets."""
    return [frozenset(edge_ids[i] for i in bits(int(m))) for m in masks]


def is_connected(g: MultiGraph) -> bool:
    """Whether every vertex is reached from vertex 0."""
    seen = {0} if g.n else set()
    stack = list(seen)
    while stack:
        v = stack.pop()
        for i in g.incident(v):
            w = g.other_end(i, v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _component_after_removal(g: MultiGraph, removed_eids: set[int]) -> set[int]:
    """The vertices vertex 0 reaches without the edges ``removed_eids``."""
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for i in g.incident(v):
            if g.edge_ids[i] in removed_eids:
                continue
            w = g.other_end(i, v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def cactus_min_cut_shores(cactus: Cactus, n_orig: int) -> set[frozenset[int]]:
    """Pull every cactus min-cut (two edges of one cycle) back to a
    canonical original-vertex shore."""
    g = cactus.graph
    out: set[frozenset[int]] = set()
    for cyc in cactus.cycles:
        k = len(cyc)
        for i in range(k):
            for j in range(i + 1, k):
                comp = _component_after_removal(g, {cyc[i], cyc[j]})
                shore = frozenset(v for v in range(n_orig) if cactus.phi[v] in comp)
                if 0 < len(shore) < n_orig:
                    out.add(_canonical_shore(shore, n_orig))
    return out


def in_spanning_tree_polytope(g: MultiGraph, values: dict[int, Fraction]) -> bool:
    """Exact membership check by enumerating all vertex-subset constraints."""
    total = sum((values[eid] for eid in g.edge_ids), Fraction(0))
    if total != g.n - 1:
        return False
    if any(values[eid] < 0 for eid in g.edge_ids):
        return False
    for size in range(2, g.n):
        for sub in itertools.combinations(range(g.n), size):
            s = set(sub)
            inside = sum(
                (values[eid] for eid, (u, v) in zip(g.edge_ids, g.endpoints)
                 if u in s and v in s),
                Fraction(0),
            )
            if inside > size - 1:
                return False
    return True


def state_values(sh: ShiftedSolution) -> dict[int, Fraction]:
    """Every edge of a shifted state's sampling graph by id, with its value."""
    return {eid: Fraction(k, 3) for eid, k in zip(sh.graph.edge_ids, sh.thirds)}


def interior_values(sh: ShiftedSolution) -> dict[int, Fraction]:
    """A shifted state's interior edges by ascending id, with their values."""
    return dict(sorted((eid, Fraction(k, 3)) for eid, k in
                       zip(sh.interior_graph.edge_ids, sh.interior_thirds)))


def forced_edges(sh: ShiftedSolution) -> frozenset[int]:
    """A shifted state's interior edges at value one."""
    return frozenset(eid for eid, k in zip(sh.interior_graph.edge_ids, sh.interior_thirds)
                     if k == 3)


def state_provenance(sh: ShiftedSolution) -> dict:
    """A shifted state's walk-step ledger, by ``matching.provenance``."""
    return provenance(sh.graph, sh.matching_mask, sh.submatching_mask, sh.surgery, sh.pairing)


def part_sums(sh: ShiftedSolution) -> list[Fraction]:
    """The value each part of a shifted solution carries."""
    values = state_values(sh)
    return [sum((values[e] for e in p), Fraction(0)) for p in sh.parts]


def stoer_wagner_connectivity(g: MultiGraph) -> int:
    """Global edge connectivity by Stoer-Wagner on edge multiplicities,
    the check ``MultiGraph.edge_connectivity`` replaced."""
    if g.n < 2 or not is_connected(g):
        return 0
    w = [[0] * g.n for _ in range(g.n)]
    for u, v in g.endpoints:
        w[u][v] += 1
        w[v][u] += 1
    active = list(range(g.n))
    best = None
    while len(active) > 1:
        # maximum adjacency order
        a = [active[0]]
        rest = active[1:]
        weights = {v: w[active[0]][v] for v in rest}
        while rest:
            nxt = max(rest, key=lambda v: (weights[v], -v))
            a.append(nxt)
            rest.remove(nxt)
            for v in rest:
                weights[v] += w[nxt][v]
        s, t = a[-2], a[-1]
        cut_of_phase = sum(w[t][v] for v in active if v != t)
        if best is None or cut_of_phase < best:
            best = cut_of_phase
        # merge t into s
        for v in active:
            if v not in (s, t):
                w[s][v] += w[t][v]
                w[v][s] = w[s][v]
        active.remove(t)
    return best


def spanning_tree_count(g: MultiGraph) -> int:
    """Kirchhoff count, for cross-checks."""
    if g.n == 1:
        return 1
    lap = np.zeros((g.n, g.n))
    for u, v in g.endpoints:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    minor = lap[:-1, :-1]
    return round(float(np.linalg.det(minor))) if minor.size else 1


def maxent_marginals(fit: MaxEntWeights) -> dict[int, float]:
    """Edge marginals of a fitted max-entropy distribution."""
    out = {eid: 1.0 for eid in fit.forced}
    out.update({eid: 0.0 for eid in fit.zeros})
    for c in fit.components:
        w = [c.weights[eid] for eid in c.graph.edge_ids]
        for eid, p in zip(c.graph.edge_ids, matrix_tree_marginals(c.graph, w)):
            out[eid] = float(p)
    return out


# ---------------------------------------------------------------------------
# the max-entropy fit one component at a time and its tree law as frozensets:
# the package's code before the fits of a piece went lockstep and the laws
# to position masks
# ---------------------------------------------------------------------------

def _laplacian_minor_inverse(g: MultiGraph, w) -> np.ndarray:
    lap = [[0.0] * g.n for _ in range(g.n)]
    for x, (u, v) in zip(w, g.endpoints):
        lap[u][u] += x
        lap[v][v] += x
        lap[u][v] -= x
        lap[v][u] -= x
    minor = np.array(lap)[:-1, :-1]
    try:
        return np.linalg.inv(minor)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown("singular weighted Laplacian minor") from exc


def matrix_tree_marginals(g: MultiGraph, w) -> np.ndarray:
    """Inclusion probability of each edge under the weighted-uniform law."""
    w = np.asarray(w, dtype=float).tolist()
    inv = _laplacian_minor_inverse(g, w).tolist()
    ground = g.n - 1
    out = []
    for x, (u, v) in zip(w, g.endpoints):
        if v == ground:
            u, v = v, u
        if u == ground:
            reff = inv[v][v]
        else:
            reff = inv[u][u] + inv[v][v] - 2 * inv[u][v]
        out.append(x * reff)
    return np.array(out)


def fit_component(g: MultiGraph, targets, tol: float = FIT_TOLERANCE,
                  max_rounds: int = FIT_MAX_ROUNDS) -> MaxEntComponent:
    """One component's fit by multiplicative updates, on its own."""
    t = np.asarray(targets, dtype=float)
    w = np.ones(g.m)
    err = np.inf
    for _ in range(max_rounds):
        marg = matrix_tree_marginals(g, w)
        if np.any(marg <= 0):
            raise NumericalBreakdown("nonpositive marginal during fitting")
        err = float(np.max(np.abs(marg / t - 1.0)))
        if err <= tol:
            break
        w = w * (t / marg)
        w = w / np.max(w)
    else:
        raise NonConvergence(f"fit error {err:.3e} after {max_rounds} rounds")
    return MaxEntComponent(g, {eid: float(x) for eid, x in zip(g.edge_ids, w)}, err)


def per_component_maxent_fit(interior_graph: MultiGraph, targets) -> MaxEntWeights:
    """The package's plan of a fit (contraction, tight-set factoring), each
    component fitted on its own."""
    plan = _plan_fit(interior_graph, *integer_targets(interior_graph, targets))
    return MaxEntWeights(tuple(fit_component(g, t) for g, t in plan.components),
                         plan.forced, plan.zeros)


def maxent_tree_distribution(fit: MaxEntWeights) -> tuple[tuple[frozenset[int], ...], np.ndarray]:
    """Enumerated support and probabilities of the fitted distribution, as
    edge-id sets."""
    trees: list[frozenset[int]] = [frozenset(fit.forced)]
    probs = np.array([1.0])
    for c in fit.components:
        masks = enumerate_spanning_trees(c.graph)
        wvec = [c.weights[eid] for eid in c.graph.edge_ids]
        cw = []
        for mask in masks:
            p = 1.0
            for i in bits(mask):
                p *= wvec[i]
            cw.append(p)
        cw = np.array(cw)
        cw = cw / cw.sum()
        ids = [frozenset(c.graph.edge_ids[i] for i in bits(mask)) for mask in masks]
        new_trees = []
        new_probs = np.empty(len(trees) * len(masks))
        k = 0
        for t, tp in zip(trees, probs):
            for tree, mp in zip(ids, cw):
                new_trees.append(t | tree)
                new_probs[k] = tp * mp
                k += 1
        trees = new_trees
        probs = new_probs
    return tuple(trees), probs


def exact_expected_join_cost(ci) -> object:
    """Expected fractional join cost of a ``CompiledInstance``: quarter
    cost minus the net decreases."""
    net = exact_expected_net_decrease(ci)
    inst = ci.inst
    total = 0
    for e in range(inst.graph.m):
        total = total + inst.costs[e] * (Fraction(1, 4) - net[e])
    return total


def shortest_path_metric(inst) -> tuple[list[list[Fraction]], dict]:
    """All-pairs shortest paths over the support graph in ``Fraction``s,
    with successors: ``nxt[(u, v)]`` is the vertex after u on a shortest
    path to v.  The oracle for ``CompiledInstance.metric``."""
    g = inst.graph
    n = g.n
    INF = None
    d = [[INF] * n for _ in range(n)]
    nxt: dict[tuple[int, int], int] = {}
    for v in range(n):
        d[v][v] = Fraction(0)
    for eid, (u, v) in zip(g.edge_ids, g.endpoints):
        c = inst.costs[eid]
        if d[u][v] is INF or c < d[u][v]:
            d[u][v] = d[v][u] = c
            nxt[(u, v)] = v
            nxt[(v, u)] = u
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik is INF:
                continue
            row_k = d[k]
            for j in range(n):
                if row_k[j] is INF:
                    continue
                alt = dik + row_k[j]
                if d[i][j] is INF or alt < d[i][j]:
                    d[i][j] = d[j][i] = alt
                    nxt[(i, j)] = nxt[(i, k)]
                    nxt[(j, i)] = nxt[(j, k)]
    return d, nxt


def odd_vertices(inst, tree_edges) -> list[int]:
    """The odd-degree vertices of an edge set, in vertex order, by counting
    degrees edge by edge.  The oracle for ``CompiledInstance._odd_sets``."""
    g = inst.graph
    deg = [0] * g.n
    for eid in tree_edges:
        u, v = g.endpoints[eid]
        deg[u] += 1
        deg[v] += 1
    return [v for v in range(g.n) if deg[v] % 2 == 1]


def grid_oracle(lam: Fraction, coarse: float = 1e-3,
                fine: float = 1e-4, window: float = 2e-3) -> float:
    """Best minimum form on a dense grid; independent check of the LP.

    A full coarse sweep brackets the optimum, then a fine local sweep
    around the bracket sharpens it.
    """
    forms = [tuple(map(float, c)) for _, c in decrease_forms(Fraction(lam))]
    cap = float(BETA_CAP)

    def sweep(t_lo, t_hi, g_lo, g_hi, b_lo, b_hi, step):
        taus = np.arange(t_lo, t_hi + step / 2, step)
        gammas = np.arange(g_lo, g_hi + step / 2, step)
        best = -np.inf
        best_at = (0.0, 0.0, 0.0)
        for beta in np.arange(b_lo, b_hi + step / 2, step):
            t = taus[taus <= min(beta / 2, cap) + 1e-15]
            g = gammas[gammas <= beta / 2 + 1e-15]
            if len(t) == 0 or len(g) == 0:
                continue
            tt, gg = np.meshgrid(t, g, indexing="ij")
            ok = tt <= gg + 1e-15
            val = np.full(tt.shape, np.inf)
            for ct, cg, cb in forms:
                val = np.minimum(val, ct * tt + cg * gg + cb * beta)
            val = np.where(ok, val, -np.inf)
            i = int(np.argmax(val))
            if val.flat[i] > best:
                best = float(val.flat[i])
                best_at = (float(tt.flat[i]), float(gg.flat[i]), beta)
        return best, best_at

    best, (t0, g0, b0) = sweep(0.0, cap, 0.0, cap, 0.0, cap, coarse)
    fine_best, _ = sweep(
        max(0.0, t0 - window), min(cap, t0 + window),
        max(0.0, g0 - window), min(cap, g0 + window),
        max(0.0, b0 - window), min(cap, b0 + window),
        fine,
    )
    return max(best, fine_best)


# ---------------------------------------------------------------------------
# the parameter LP by LAPACK screen and Fraction Gauss-Jordan: the package's
# code before the screen went to closed-form minors and the re-solve to
# integers
# ---------------------------------------------------------------------------

def _solve4(rows: list[tuple[Fraction, ...]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    n = 4
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def solve_amounts(lam: Fraction) -> LpSolution:
    """Exact maximizer of the minimum decrease form at a fixed mix.

    Vertex enumeration with a float pre-pass: candidate bases are screened
    in floating point and only the near-optimal ones are re-solved and
    verified in exact rationals.
    """
    lam = Fraction(lam)
    cons = _constraints(lam)
    amat = np.array([[float(c) for c in coefs] for _, coefs, _ in cons])
    bvec = np.array([float(b) for _, _, b in cons])

    combos = _bases(len(cons))
    stacks = amat[combos]  # (k, 4, 4)
    rhs = bvec[combos]  # (k, 4)
    good = np.abs(np.linalg.det(stacks)) > 1e-12
    xs = np.linalg.solve(stacks[good], rhs[good][..., None])[..., 0]
    feas = np.all(xs @ amat.T <= bvec[None, :] + 1e-9, axis=1)
    if not feas.any():
        raise LpFailure(f"feasible region is empty at lambda {lam}")
    deltas = xs[feas, 3]
    near = combos[good][feas][deltas >= deltas.max() - 1e-9]
    best: Optional[tuple[Fraction, list[Fraction]]] = None
    for combo in near.tolist():
        rows = [cons[i][1] for i in combo]
        rhs = [cons[i][2] for i in combo]
        x = _solve4(rows, rhs)
        if x is None:
            continue
        if all(sum(c * v for c, v in zip(coefs, x)) <= b for _, coefs, b in cons):
            if best is None or x[3] > best[0]:
                best = (x[3], x)
    if best is None:
        raise LpFailure(f"float screening lost the optimum at lambda {lam}")
    delta, x = best
    binding = tuple(
        name
        for name, coefs, b in cons
        if sum(c * v for c, v in zip(coefs, x)) == b
    )
    return LpSolution(lam, x[0], x[1], x[2], delta, binding)


# ---------------------------------------------------------------------------
# the exact layer in ``Fraction`` dicts: the package's code before the piece
# laws, the parity law, event probabilities and net decreases went to integer
# numerators over one denominator
# ---------------------------------------------------------------------------

def exact_probs(sampler) -> tuple[Fraction, ...]:
    """A tree-table piece's exact tree probabilities as ``Fraction``s, in
    tree order."""
    return tuple(Fraction(k, sampler.exact_den) for k in sampler.exact_nums)


def piece_parity_law(sampler, sets: list[set[int]]) -> dict[int, Fraction]:
    """Law of a piece's parities on ``sets``, in ``Fraction``s."""
    if isinstance(sampler, CyclePieceSampler):
        law = {0: Fraction(1)}
        for a, b in sampler.pairs:
            flip_a = sum(1 << i for i, ids in enumerate(sets) if a in ids)
            flip_b = sum(1 << i for i, ids in enumerate(sets) if b in ids)
            if flip_a or flip_b:
                acc: dict[int, Fraction] = {}
                for state, pr in law.items():
                    for flip in (flip_a, flip_b):
                        acc[state ^ flip] = acc.get(state ^ flip, 0) + pr / 2
                law = acc
        return law
    states = np.zeros(len(sampler.probs), dtype=np.int64)
    for i, ids in enumerate(sets):
        states |= (sampler.edge_counts(ids) & 1) << i
    law = {}
    for state, pr in zip(states.tolist(), exact_probs(sampler)):
        law[state] = law.get(state, 0) + pr
    return law


def parity_law(samplers, classes, sets) -> dict[int, Fraction]:
    """The joint parity law as the XOR convolution of ``piece_parity_law``s
    in node order."""
    by_piece: dict[int, list[set[int]]] = {}
    for i, ids in enumerate(sets):
        for e in ids:
            by_piece.setdefault(classes[e].settled, [set() for _ in sets])[i].add(e)
    law: dict[int, object] = {0: Fraction(1)}
    for nid in sorted(by_piece):
        piece_law = piece_parity_law(samplers[nid], by_piece[nid])
        acc: dict[int, object] = {}
        for a, pa in law.items():
            for b, pb in piece_law.items():
                acc[a ^ b] = acc.get(a ^ b, 0) + pa * pb
        law = acc
    return law


def event_probability(samplers, classes, conditions, odd_cuts=()) -> object:
    """Probability that every parity condition holds and, with ``odd_cuts``,
    that one of the cuts is crossed oddly, summed off ``parity_law``."""
    k = len(conditions)
    want = sum(parity << i for i, (_, parity) in enumerate(conditions))
    law = parity_law(samplers, classes, [ids for ids, _ in conditions] + list(odd_cuts))
    return sum(pr for state, pr in law.items()
               if state & ((1 << k) - 1) == want and (state >> k or not odd_cuts))


def eal_probabilities(conditions: EalConditions, classes, samplers) -> dict[int, object]:
    """Even-at-last probability per edge by ``event_probability``."""
    return {eid: event_probability(samplers, classes, conds)
            for eid, conds in conditions.items()}


def piece_probability(sampler, event: np.ndarray) -> Fraction:
    """The probability of the trees ``event`` marks, summed in tree order
    from a ``Fraction`` zero."""
    probs = exact_probs(sampler)
    return sum((probs[i] for i in np.flatnonzero(event).tolist()), Fraction(0))


def exact_marginal(sampler, eid: int) -> Fraction:
    """An edge's inclusion probability from its settled piece: one half on
    a cycle piece, ``piece_probability`` otherwise."""
    if isinstance(sampler, CyclePieceSampler):
        return Fraction(1, 2)
    return piece_probability(sampler, sampler.edge_counts([eid]))


def expected_net_decrease(ci, eal_probability, rates) -> dict[int, Fraction]:
    """E[quarter - z_e] per edge, by ``Fraction`` arithmetic on the given
    even-at-last probabilities and coin rates."""
    classes, samplers = ci.classes, ci.samplers
    net: dict[int, object] = {
        e: rates[cl.coin_group] * eal_probability[e] * ci.rp.amount(cl.kind)
        for e, cl in classes.items()
    }
    degree_sites, pair_sites = ci.sites
    for site in degree_sites:
        s = site.source
        p = event_probability(samplers, classes, ci.eal_conditions[s], [site.cut_ids])
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
# even-at-last probabilities by indicator patterns: the package's code before
# the even-at-last event became parity conditions on one law
# ---------------------------------------------------------------------------

def indicator_distribution(sampler, eids: list[int]) -> list[tuple[int, object]]:
    """Joint inclusion law of a piece's edges ``eids``, as (pattern, probability)."""
    if isinstance(sampler, CyclePieceSampler):
        pair_of = {}
        for idx, (a, b) in enumerate(sampler.pairs):
            pair_of[a] = (idx, 0)
            pair_of[b] = (idx, 1)
        patterns = [(0, Fraction(1))]
        by_pair: dict[int, list[int]] = {}
        for j, e in enumerate(eids):
            idx, _ = pair_of[e]
            by_pair.setdefault(idx, []).append(j)
        for idx, members in sorted(by_pair.items()):
            new = []
            a, b = sampler.pairs[idx]
            for chosen in (a, b):
                bit = 0
                for j in members:
                    if eids[j] == chosen:
                        bit |= 1 << j
                for pat, pr in patterns:
                    new.append((pat | bit, pr * Fraction(1, 2)))
            patterns = new
        merged: dict[int, Fraction] = {}
        for pat, pr in patterns:
            merged[pat] = merged.get(pat, Fraction(0)) + pr
        return sorted(merged.items())
    merged = {}
    for t, pr in zip(sampler.trees, exact_probs(sampler)):
        pat = 0
        for j, e in enumerate(eids):
            if e in t:
                pat |= 1 << j
        merged[pat] = merged.get(pat, Fraction(0)) + pr
    return sorted(merged.items())


def joint_indicator(samplers, classes, eids) -> list[tuple[int, object]]:
    """Joint inclusion distribution of edges, grouped by settled piece."""
    eids = list(eids)
    groups: dict[int, list[int]] = {}
    for j, e in enumerate(eids):
        groups.setdefault(classes[e].settled, []).append(j)
    patterns: list[tuple[int, object]] = [(0, Fraction(1))]
    for nid in sorted(groups):
        idxs = groups[nid]
        sub = indicator_distribution(samplers[nid], [eids[j] for j in idxs])
        new: dict[int, object] = {}
        for pat, pr in patterns:
            for spat, spr in sub:
                full = pat
                for bitpos, j in enumerate(idxs):
                    if (spat >> bitpos) & 1:
                        full |= 1 << j
                key = full
                add = pr * spr
                new[key] = new.get(key, 0 * add) + add
        patterns = sorted(new.items())
    return patterns


def pattern_eal_probabilities(h, classes, samplers) -> dict[int, object]:
    """Even-at-last probability per edge, as a ``Fraction``."""
    out: dict[int, object] = {}
    for nd in h.non_leaves():
        piece = nd.piece
        g = piece.graph
        if nd.kind == "cycle":
            ext = [e for pair in piece.external_pairs() for e in pair]
            joint = joint_indicator(samplers, classes, ext)
            p = 0
            for pat, pr in joint:
                c1 = (pat & 0b0011).bit_count()
                c2 = ((pat >> 2) & 0b0011).bit_count()
                if c1 == 1 and c2 == 1:
                    p = p + pr
            for eid in g.edge_ids:
                if classes[eid].settled == nd.node_id:
                    out[eid] = p
        else:
            sampler = samplers[nd.node_id]
            trees = sampler.trees
            ext_ids = set(piece.external_edge_ids)
            ext_at = {
                v: [e for e in g.incident_ids(v) if e in ext_ids]
                for v in range(g.n)
            }
            for eid in piece.internal_edge_ids:
                u, v = g.endpoints[g.edge_index(eid)]
                int_u = [e for e in g.incident_ids(u) if e not in ext_ids]
                int_v = [e for e in g.incident_ids(v) if e not in ext_ids]
                parity_pr: dict[tuple[int, int], object] = {}
                probs = exact_probs(sampler)
                if probs is None:
                    probs = sampler.probs
                for t, pr in zip(trees, probs):
                    a = sum(1 for e in int_u if e in t) % 2
                    b = sum(1 for e in int_v if e in t) % 2
                    parity_pr[(a, b)] = parity_pr.get((a, b), 0) + pr
                ext_edges = ext_at[u] + ext_at[v]
                joint = joint_indicator(samplers, classes, ext_edges)
                nu = len(ext_at[u])
                p = 0
                for (a, b), qpr in parity_pr.items():
                    for pat, jpr in joint:
                        eu = (pat & ((1 << nu) - 1)).bit_count() % 2
                        ev = (pat >> nu).bit_count() % 2
                        if (a + eu) % 2 == 0 and (b + ev) % 2 == 0:
                            p = p + qpr * jpr
                out[eid] = p
    return out


# ---------------------------------------------------------------------------
# one state at a time: the state builders the compile's walk replaced with
# ``matching._shifted`` on the parts it has already read
# ---------------------------------------------------------------------------

def shift(piece, matching_mask: int, submatching_mask: int = 0) -> ShiftedSolution:
    """One on matched edges, one third elsewhere; parts from the sub-matching."""
    g, interior = piece.graph, piece.internal_graph()[0]
    parts = _parts_from_submatching(g, set(piece.internal_edge_ids), submatching_mask)
    return _shifted(g, interior, _interior_at(g, interior), parts, matching_mask,
                    submatching_mask)


def apply_surgery(split: SplitPiece, matching_mask: int, submatching_mask: int,
                  kind: str, trigger: int, adjusted: int,
                  dropped: Optional[int] = None) -> ShiftedSolution:
    """Shift on the split graph, then move one third of value on ``adjusted``
    (down on a decrease, up on an increase).

    ``dropped`` is one of the branch's ``surgery_drops``: for an increase
    hitting a three-edge part, the part member removed so the surviving
    pair is tight at one.
    """
    if kind not in SURGERY_MOVE:
        raise ValueError(kind)
    drops = surgery_drops(split, submatching_mask, kind, adjusted)
    if dropped not in drops:
        raise InfeasibleShift(
            f"dropped edge {dropped} is not one of {drops}, the drops of the "
            f"{kind} on edge {adjusted}"
        )
    return _shifted(split.graph, split.interior_graph(), split.interior_at,
                    surgery_parts(split, submatching_mask, adjusted, dropped),
                    matching_mask, submatching_mask, (kind, trigger, adjusted, dropped),
                    SURGERY_MOVE[kind], split.pairing)


# ---------------------------------------------------------------------------
# the matroid-route mixture by per-class states and Fraction sums: the
# package's code before equal states were merged and the sums went to
# integer numerators
# ---------------------------------------------------------------------------

def per_class_mi_states(piece):
    """Yield (probability, ShiftedSolution) over the matroid route."""
    g = piece.graph
    _check_interior(piece)
    seventh = Fraction(1, 7)
    if g.n % 2 == 0:
        dist = decompose_matchings(piece)
        for mk, w in zip(dist.masks, dist.weights):
            classes = seven_coloring(g, mk)
            for cls in range(7):
                sub = _submask_of_class(classes, cls)
                yield w * seventh, shift(piece, mk, sub)
        return
    third = Fraction(1, 3)
    for pairing in pairings_of(piece.external_edge_ids):
        sp = split_external(piece, pairing)
        dist = decompose_matchings(sp)
        for mk, w in zip(dist.masks, dist.weights):
            classes = seven_coloring(sp.graph, mk)
            for cls in range(7):
                sub = _submask_of_class(classes, cls)
                base = third * w * seventh
                for kind, e, f, pb in surgery_options(sp, mk):
                    if kind == "decrease":
                        yield base * pb, apply_surgery(sp, mk, sub, kind, e, f)
                        continue
                    parts = _parts_from_submatching(sp.graph, set(sp.internal_edge_ids()), sub)
                    home = [p for p in parts if f in p]
                    if home and len(home[0]) == 3:
                        for dropped in (x for x in home[0] if x != f):
                            yield base * pb / 2, apply_surgery(
                                sp, mk, sub, kind, e, f, dropped
                            )
                    else:
                        yield base * pb, apply_surgery(sp, mk, sub, kind, e, f)


@dataclass(frozen=True)
class ConstrainedTreeDistribution:
    """A shifted state's tree distribution as edge-id sets and ``Fraction``
    weights; ``numerators`` are the weights over their least common
    ``denominator``."""

    trees: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...]
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        den = math.lcm(*(w.denominator for w in self.weights))
        nums = tuple(w.numerator * (den // w.denominator) for w in self.weights)
        if sum(nums) != den:
            raise InfeasibleShift("tree weights do not sum to 1")
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    def cdf(self) -> np.ndarray:
        return np.cumsum(np.array([float(w) for w in self.weights]))

    def sample(self, rng: np.random.Generator) -> frozenset[int]:
        i = int(np.searchsorted(self.cdf(), rng.random(), side="right"))
        return self.trees[min(i, len(self.trees) - 1)]


def constrained_tree_distribution(shifted: ShiftedSolution) -> ConstrainedTreeDistribution:
    """The package's decomposition of one state, re-checked over every
    interior edge by ``_marginals_reproduce``."""
    (w,) = constrained_tree_weights([shifted])
    if isinstance(w, InfeasibleShift):
        raise w
    dist = ConstrainedTreeDistribution(
        tuple(tree_sets(w.trees, shifted.interior_graph.edge_ids)),
        tuple(Fraction(k, w.denominator) for k in w.numerators),
    )
    if not _marginals_reproduce(dist, interior_values(shifted)):
        raise InfeasibleShift("tree marginals do not reproduce the shifted vector")
    return dist


def _marginals_reproduce(dist: ConstrainedTreeDistribution,
                         values: dict[int, Fraction]) -> bool:
    """Whether every edge's tree marginal is its value, on numerators over
    the weights' denominator."""
    marg = dict.fromkeys(values, 0)
    for t, k in zip(dist.trees, dist.numerators):
        for eid in t:
            if eid not in marg:
                return False
            marg[eid] += k
    return all(marg[eid] * v.denominator == v.numerator * dist.denominator
               for eid, v in values.items())


def fraction_mi_mixture(piece) -> dict[frozenset[int], Fraction]:
    """The matroid-route tree mixture of a degree piece, one state per
    color class and every sum a ``Fraction``."""
    cache: dict = {}
    acc: dict[frozenset[int], Fraction] = {}
    for pr, shifted in per_class_mi_states(piece):
        key = (tuple(sorted(state_values(shifted).items())), shifted.parts)
        if key not in cache:
            cache[key] = constrained_tree_distribution(shifted)
        dist = cache[key]
        for t, w in zip(dist.trees, dist.weights):
            acc[t] = acc.get(t, Fraction(0)) + pr * w
    if sum(acc.values()) != 1:
        raise AssemblyError("matroid-route tree mixture does not sum to 1")
    return acc


def tree_marginals(dist: ConstrainedTreeDistribution) -> dict[int, Fraction]:
    """Each edge's inclusion probability, summed in ``Fraction``s."""
    out: dict[int, Fraction] = {}
    for t, w in zip(dist.trees, dist.weights):
        for eid in t:
            out[eid] = out.get(eid, Fraction(0)) + w
    return out


def fraction_marginal_check(shifted: ShiftedSolution,
                            dist: ConstrainedTreeDistribution) -> None:
    """Raise unless the tree marginals reproduce the shifted vector, on
    ``Fraction`` dicts."""
    values = interior_values(shifted)
    minor = contract_forced(shifted.interior_graph, values)
    if tree_marginals(dist) | {e: Fraction(0) for e in minor.zeros} != {
        eid: v for eid, v in values.items() if v > 0 or eid in minor.zeros
    }:
        raise InfeasibleShift("tree marginals do not reproduce the shifted vector")


def find_critical_set(g: MultiGraph, root_vertex: int) -> Optional[frozenset[int]]:
    """Minimal proper tight set not crossed by any proper tight set, as the
    hierarchy build picks it from the min-cut shores of ``g``; None when
    every proper tight set is crossed (a double cycle) or none exists."""
    shore = _critical_shore(g, _min_cut_shores(g), root_vertex)
    return None if shore is None else frozenset(bits(shore))


# ---------------------------------------------------------------------------
# the charge split's max flow in ``Fraction``s
# ---------------------------------------------------------------------------

def fraction_max_flow(rows: dict[int, list[int]], demands: dict[int, Fraction],
              cap: Fraction) -> Optional[dict[tuple[int, int], Fraction]]:
    """Edmonds-Karp on source -> externals -> internals -> sink."""
    sources = sorted(rows)
    targets = sorted({f for ts in rows.values() for f in ts})
    S, T = "S", "T"
    capacity: dict[tuple, Fraction] = {}
    adj: dict = {S: [], T: []}
    for s in sources:
        capacity[(S, s)] = demands[s]
        adj[S].append(s)
        adj.setdefault(s, []).append(S)
    for f in targets:
        capacity[(f, T)] = cap
        adj.setdefault(f, []).append(T)
        adj[T].append(f)
    for s in sources:
        for f in rows[s]:
            capacity[(s, f)] = demands[s]
            adj[s].append(f)
            adj[f].append(s)
    flow: dict[tuple, Fraction] = {}

    def residual(a, b) -> Fraction:
        return capacity.get((a, b), Fraction(0)) - flow.get((a, b), Fraction(0)) + flow.get((b, a), Fraction(0))

    total = Fraction(0)
    while True:
        prev = {S: None}
        queue = [S]
        while queue and T not in prev:
            x = queue.pop(0)
            for y in adj[x]:
                if y not in prev and residual(x, y) > 0:
                    prev[y] = x
                    queue.append(y)
        if T not in prev:
            break
        path = []
        node = T
        while node != S:
            path.append((prev[node], node))
            node = prev[node]
        aug = min(residual(a, b) for a, b in path)
        for a, b in path:
            back = flow.get((b, a), Fraction(0))
            if back >= aug:
                flow[(b, a)] = back - aug
            else:
                flow[(a, b)] = flow.get((a, b), Fraction(0)) + aug - back
                if back:
                    flow[(b, a)] = Fraction(0)
        total += aug
    if total != sum(demands.values()):
        return None
    return {
        (s, f): flow.get((s, f), Fraction(0))
        for s in sources
        for f in rows[s]
    }


# ---------------------------------------------------------------------------
# the per-trial join in ``Fraction``s
# ---------------------------------------------------------------------------

def detect_eal(conditions: EalConditions, tree_edges: frozenset[int]) -> dict[int, bool]:
    """Per-edge flag: every even-at-last condition of ``eal_conditions``
    holds on the tree."""
    return {
        eid: all(len(ids & tree_edges) % 2 == parity for ids, parity in conds)
        for eid, conds in conditions.items()
    }


@dataclass(frozen=True)
class JoinSolution:
    """Join vector with the full per-edge accounting ledger."""

    z: dict[int, Fraction]
    eal: dict[int, bool]
    coins: dict[tuple, bool]
    reductions: dict[int, Fraction]
    charges: dict[int, tuple[tuple[tuple[int, ...], Fraction], ...]]


def build_join(h: CutHierarchy, classes: dict[int, EdgeClass], params: ReductionParams,
               tree_edges: frozenset[int], rates: dict[tuple, object],
               rng: np.random.Generator, sites, conditions: EalConditions) -> JoinSolution:
    """One trial of the reduction-and-charge scheme for a sampled tree, with
    the charge sites of ``build_charge_sites`` and the even-at-last
    conditions of ``eal_conditions``.  A group's coin falls heads when
    ``rng.random() < rates[grp]``, the groups in sorted order; the coin
    table's thresholds (``join.Coin.threshold``) give the same coins.  The oracle for
    the joins of ``BatchEngine.checked_joins``, fed a chunk's coin draws."""
    degree_sites, pair_sites = sites
    eal = detect_eal(conditions, tree_edges)
    groups = coin_groups(classes)
    coins = {grp: bool(rng.random() < rates[grp]) for grp in sorted(groups)}
    m = h.instance.graph.m
    z = {e: QUARTER for e in range(m)}
    reductions: dict[int, Fraction] = {}
    for grp, members in groups.items():
        for e in members:
            if eal[e] and coins[grp]:
                reductions[e] = params.amount(classes[e].kind)
                z[e] -= reductions[e]
    charges: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}

    def odd(cut_ids) -> bool:
        return sum(1 for c in cut_ids if c in tree_edges) % 2 == 1

    for site in degree_sites:
        if site.source in reductions and odd(site.cut_ids):
            for f, frac in site.targets:
                amt = site.amount * frac
                z[f] += amt
                charges.setdefault(f, []).append(((site.source,), amt))
    for site in pair_sites:
        for grp in site.groups:
            active = [s for s, cut in grp.members if s in reductions and odd(cut)]
            if active:
                half = grp.amount / 2
                for t in site.targets:
                    z[t] += half
                    charges.setdefault(t, []).append((tuple(active), half))
    return JoinSolution(z, eal, coins, reductions,
                        {e: tuple(v) for e, v in charges.items()})


@dataclass(frozen=True)
class JoinReport:
    ok: bool
    floor_violations: tuple[int, ...]
    cut_violations: tuple[tuple[frozenset[int], Fraction], ...]


def verify_join(z: dict[int, Fraction], tree_edges: frozenset[int], h: CutHierarchy,
                min_cuts: Optional[list[CutView]] = None,
                raise_on_violation: bool = True) -> JoinReport:
    """Floor of one sixth everywhere; odd min-cuts covered to one, read from
    the hierarchy's min-cut list (cuts with more than four edges are
    certified by the floor alone)."""
    if min_cuts is None:
        min_cuts = min_cuts_via_hierarchy(h)
    floor_bad = tuple(e for e, v in sorted(z.items()) if v < FLOOR)
    cut_bad = []
    for cut in min_cuts:
        if sum(1 for e in cut.edge_ids if e in tree_edges) % 2 == 1:
            total = sum((z[e] for e in cut.edge_ids), Fraction(0))
            if total < 1:
                cut_bad.append((cut.shore, total))
    report = JoinReport(not floor_bad and not cut_bad, floor_bad, tuple(cut_bad))
    if raise_on_violation and not report.ok:
        raise FeasibilityViolation(
            f"floor violations {report.floor_violations}, "
            f"cut violations {[(sorted(s), str(v)) for s, v in report.cut_violations]}"
        )
    return report


def _lcm_of_denominators(values) -> int:
    d = 1
    for v in values:
        d = math.lcm(d, Fraction(v).denominator)
    return d


def fraction_plan(engine) -> dict:
    """A ``BatchEngine``'s integer plan by ``Fraction`` arithmetic, one
    product per edge, coin group and site member: the costs over their
    common denominator, the charge quanta over theirs (``z_denom``), each
    group's coin rate and threshold, and the lanes the most charge per edge
    takes.  Sites read their cuts as sorted edge-id tuples, and the lanes
    the engine's verification plan."""
    inst, rp, classes = engine.inst, engine.rp, engine.classes
    cost_denom = _lcm_of_denominators(inst.costs)
    cost_int = [int(c * cost_denom) for c in inst.costs]
    degree_sites, pair_sites = engine.sites
    quanta = [QUARTER, FLOOR] + [rp.amount(cl.kind) for cl in classes.values()]
    for site in degree_sites:
        quanta += [site.amount * frac for _, frac in site.targets]
    for site in pair_sites:
        quanta += [rp.amount(classes[grp.members[0][0]].kind) / 2 for grp in site.groups]
    D = _lcm_of_denominators(quanta)
    amount_int = [int(rp.amount(classes[e].kind) * D) for e in range(engine.m)]
    degree_plan = [
        (site.source, tuple(sorted(site.cut_ids)),
         [(f, int(site.amount * frac * D)) for f, frac in site.targets])
        for site in degree_sites
    ]
    pair_plan = [
        (site.targets,
         [(int(rp.amount(classes[grp.members[0][0]].kind) * D) // 2,
           [(s, tuple(sorted(cut))) for s, cut in grp.members])
          for grp in site.groups])
        for site in pair_sites
    ]
    rates, bounds = {}, coin_bounds(engine.sp.effective_lambda)
    for grp, members in coin_groups(classes).items():
        est = engine.eal_probability[members[0]]
        bound = bounds[classes[members[0]].coin_kind]
        one = Fraction(1) if isinstance(est, Fraction) else 1.0
        rates[grp] = bound / est if est > bound else one
    thresholds = {grp: math.ceil(Fraction(r) * 2 ** 53) / 2 ** 53 for grp, r in rates.items()}
    most = [int(QUARTER * D) + a for a in amount_int]
    for _, _, targets in degree_plan:
        for f, amt in targets:
            most[f] += amt
    for (t0, t1), groups in pair_plan:
        most[t0] += sum(half for half, _ in groups)
        most[t1] += sum(half for half, _ in groups)
    cover = max((sum(most[e] for e in cols.tolist()) for cols, _ in engine.direct_cuts),
                default=0)
    gap = max((most[a] + most[b] for gaps in engine.cycle_gaps for a, b in gaps), default=0)
    bound = max(cover, 2 * (gap + D), max(most), abs(int(FLOOR * D)))
    charge_cost = sum(c * z for c, z in zip(cost_int, most))
    return {
        "cost_denom": cost_denom,
        "cost_int": cost_int,
        "lp_cost": sum(inst.costs, Fraction(0)) / 2,
        "z_denom": D,
        "amount_int": amount_int,
        "degree_plan": degree_plan,
        "pair_plan": pair_plan,
        "rates": {grp: (type(r), r) for grp, r in rates.items()},
        "thresholds": [thresholds[grp] for grp in sorted(rates)],
        "lane": narrowest_lane(bound),
        "sum_lane": narrowest_lane(max(charge_cost, sum(cost_int), bound, 1 << 15)),
    }


# ---------------------------------------------------------------------------
# the degree-piece walk on Fraction dicts: the package's walk, shift and
# surgery before a state's values became integer thirds and a visit's
# probability an integer weight over one denominator per piece
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionState:
    """A shifted state with its values as ``Fraction``s by edge id."""

    values: dict[int, Fraction]
    interior_graph: MultiGraph
    interior_edge_ids: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    forced: frozenset[int]
    provenance: dict

    def interior_values(self) -> dict[int, Fraction]:
        return {eid: self.values[eid] for eid in self.interior_edge_ids}


def fraction_shifted(g: MultiGraph, internal: set[int], interior_graph: MultiGraph,
                     parts: tuple[tuple[int, ...], ...], matching_mask: int,
                     submatching_mask: int, surgery: Optional[tuple] = None,
                     move: Fraction = Fraction(0), **extra) -> FractionState:
    """One on matched edges, one third elsewhere, plus ``move`` on the
    surgery's adjusted edge; ``extra`` provenance (an odd piece's
    ``pairing``) follows the surgery's."""
    values = {
        g.edge_ids[i]: (Fraction(1) if (matching_mask >> i) & 1 else Fraction(1, 3))
        for i in range(g.m)
    }
    if surgery is not None:
        values[surgery[2]] += move
    return FractionState(
        values=values,
        interior_graph=interior_graph,
        interior_edge_ids=tuple(sorted(internal)),
        parts=parts,
        forced=frozenset(eid for eid in internal if values[eid] == 1),
        provenance={
            "matching": tuple(sorted(g.edge_ids[i] for i in bits(matching_mask))),
            "submatching": tuple(sorted(g.edge_ids[i] for i in bits(submatching_mask))),
            "surgery": surgery,
            **extra,
        },
    )


def fraction_shift(piece, matching_mask: int, submatching_mask: int = 0) -> FractionState:
    g = piece.graph
    internal = set(piece.internal_edge_ids)
    parts = _parts_from_submatching(g, internal, submatching_mask)
    return fraction_shifted(g, internal, piece.internal_graph()[0], parts,
                            matching_mask, submatching_mask)


def fraction_apply_surgery(split: SplitPiece, matching_mask: int, submatching_mask: int,
                           kind: str, trigger: int, adjusted: int,
                           dropped: Optional[int] = None) -> FractionState:
    parts = split.parts(submatching_mask)
    if kind == "decrease":
        move = -Fraction(1, 3)
    elif kind == "increase":
        move = Fraction(1, 3)
    else:
        raise ValueError(kind)
    drops = surgery_drops(split, submatching_mask, kind, adjusted)
    if dropped not in drops:
        raise InfeasibleShift(f"dropped edge {dropped} is not one of {drops}")
    if dropped is not None:
        parts = tuple(tuple(e for e in p if e != dropped) if adjusted in p else p
                      for p in parts)
    return fraction_shifted(split.graph, set(split.internal_edge_ids()),
                            split.interior_graph(), tuple(sorted(parts)), matching_mask,
                            submatching_mask, (kind, trigger, adjusted, dropped), move,
                            pairing=split.pairing)


def fraction_piece_states(piece, classes: bool, built: Optional[dict] = None,
                          ledgers: Optional[list] = None
                          ) -> tuple[list[FractionState], list[tuple[Fraction, int]]]:
    """A degree piece's distinct states and the walk's visits to them as
    (probability, state index), every probability a ``Fraction`` product.
    ``ledgers``, if given, gets each visit's own ledger in visit order: its
    matching and sub-matching as edge ids, its surgery branch (kind,
    trigger, adjusted edge, drop) and, on an odd piece, its pairing."""
    _check_interior(piece)
    odd = piece.graph.n % 2 == 1
    states: list[FractionState] = []
    visits: list[tuple[Fraction, int]] = []
    index: dict[tuple, int] = {}
    built = {} if built is None else built

    def visit(pr: Fraction, key: tuple, build, surgery=None) -> None:
        if key not in index:
            if key not in built:
                built[key] = build()
            index[key] = len(states)
            states.append(built[key])
        visits.append((pr, index[key]))
        if ledgers is not None:
            ledger = {"matching": tuple(sorted(edge_ids_of(dist, mk))),
                      "submatching": tuple(sorted(edge_ids_of(dist, sub))),
                      "surgery": surgery}
            if odd:
                ledger["pairing"] = sp.pairing
            ledgers.append(ledger)

    even_parts: dict[int, tuple] = {}
    for sp, dist in piece.split_matchings:
        g = sp.graph if odd else piece.graph
        for mk, w in zip(dist.masks, dist.weights):
            subs = _class_submasks(seven_coloring(g, mk)) if classes else [(0, 7)]
            if not odd:
                for sub, k in subs:
                    if sub not in even_parts:
                        even_parts[sub] = _parts_from_submatching(
                            g, set(piece.internal_edge_ids), sub)
                    visit(w * Fraction(k, 7), (mk, None, None, even_parts[sub]),
                          lambda: fraction_shift(piece, mk, sub))
                continue
            options = surgery_options(sp, mk)
            for sub, k in subs:
                base = Fraction(1, 3) * w * Fraction(k, 7)
                parts = sp.parts(sub)
                for kind, e, f, pb in options:
                    drops = surgery_drops(sp, sub, kind, f)
                    for dropped in drops:
                        kept = parts if dropped is None else tuple(sorted(
                            tuple(x for x in p if x != dropped) if f in p else p
                            for p in parts))
                        visit(base * pb / len(drops), (mk, kind, f, kept),
                              lambda: fraction_apply_surgery(sp, mk, sub, kind, e, f, dropped),
                              (kind, e, f, dropped))
    return states, visits


# ---------------------------------------------------------------------------
# the odd-set rows of the matching polytope, one vertex set at a time
# ---------------------------------------------------------------------------

def odd_set_lower_constraints(g: MultiGraph) -> list[tuple[int, int]]:
    """Boundary masks of odd vertex sets, one per complement pair: the sets
    without vertex n - 1, in ascending order of their vertex masks."""
    out = []
    for s in range(1, 1 << (g.n - 1)):
        if bin(s).count("1") % 2 == 0:
            continue
        mask = 0
        for i, (u, v) in enumerate(g.endpoints):
            if ((s >> u) & 1) != ((s >> v) & 1):
                mask |= 1 << i
        out.append((mask, 1))
    return out
