import copy
import csv
import functools
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htsp.errors import (
    AssemblyError,
    ConfigError,
    FeasibilityViolation,
    FlowInfeasible,
    GenerationFailure,
    NoPerfectMatching,
)
from htsp.hierarchy import build_hierarchy, min_cuts_via_hierarchy
from htsp.join import (
    Coin,
    ReductionParams,
    bipartization_flow,
    build_charge_sites,
    check_eal_bounds,
    classify,
    coin_groups,
    coin_table,
    eal_conditions,
    exact_eal_probabilities,
    min_cost_perfect_matching,
    tour_walk,
)
import htsp.engine
from htsp.cli import main
from htsp.generators import generate_double_cycle, generate_random_4reg
from htsp.graph import bits, parse_instance, serialize_instance
from htsp.params import (BETA_CAP, DEFAULT_MIX_LAMBDA, DEFAULT_TAU, coin_bounds, eal_bounds,
                         optimize)
from htsp.pipeline import SamplerParams, build_piece_samplers
from htsp.engine import BatchEngine, CompiledInstance, _odd_rows
from htsp.stats import ExperimentConfig, run_suite
from tests.conftest import (ALL_FAMILIES, FAMILY_SEED, family_instance, fractional_cost_instance,
                            trial_trees)
from tests.reference import (build_join, detect_eal, fraction_max_flow, fraction_plan,
                             odd_vertices, shortest_path_metric, verify_join)

QUARTER = Fraction(1, 4)


def rates_of(coins) -> dict:
    """Each coin group's rate, from a ``coin_table``."""
    return {grp: coin.rate for grp, coin in coins.items()}


def thresholds_of(coins) -> dict:
    """Each coin group's threshold, from a ``coin_table``."""
    return {grp: coin.threshold for grp, coin in coins.items()}


def prepared(inst, sampler="mix"):
    h = build_hierarchy(inst)
    sp = SamplerParams(sampler=sampler)
    rp = ReductionParams.default()
    samplers = build_piece_samplers(h, sp)
    classes = classify(h)
    probs = exact_eal_probabilities(eal_conditions(h, classes), classes, samplers)
    coins = coin_table(classes, coin_groups(classes), probs, sp.effective_lambda)
    sites = build_charge_sites(h, classes, rp)
    return h, sp, rp, samplers, classes, coins, sites


def test_classify_covers_every_edge_once(any_instance):
    h = build_hierarchy(any_instance)
    classes = classify(h)
    assert sorted(classes) == list(range(any_instance.graph.m))
    for eid, cl in classes.items():
        nd = h.nodes[cl.settled]
        assert nd.kind != "leaf"
        if cl.kind == "cycle":
            assert nd.kind == "cycle"
        else:
            assert nd.kind == "degree"
            if cl.kind == "k5-degree":
                assert nd.piece.graph.n == 5


def test_classify_kinds_on_families():
    dc = classify(build_hierarchy(family_instance("double-cycle")))
    assert {c.kind for c in dc.values()} == {"cycle"}
    k5 = classify(build_hierarchy(family_instance("k5-gadget")))
    assert {c.kind for c in k5.values()} == {"cycle", "k5-degree"}
    zoo = classify(build_hierarchy(family_instance("zoo")))
    kinds = {c.kind for c in zoo.values()}
    assert {"cycle", "special", "half-special", "other-degree"} <= kinds


def test_detect_eal_double_cycle_flags_everything():
    # the topmost piece draws one edge per pair, so its edges are always even
    inst = family_instance("double-cycle")
    h = build_hierarchy(inst)
    classes = classify(h)
    sp = SamplerParams(sampler="mi")
    for edges in trial_trees(CompiledInstance(inst, sp), 20, 1):
        eal = detect_eal(eal_conditions(h, classes), edges)
        assert all(eal.values())


def test_detect_eal_degree_matches_parity_definition(zoo_instance):
    h = build_hierarchy(zoo_instance)
    classes = classify(h)
    sp = SamplerParams(sampler="mix")
    for edges in trial_trees(CompiledInstance(zoo_instance, sp), 30, 3):
        eal = detect_eal(eal_conditions(h, classes), edges)
        for nd in h.non_leaves():
            g = nd.piece.graph
            deg = {
                v: sum(1 for e in g.incident_ids(v) if e in edges)
                for v in range(g.n)
            }
            if nd.kind == "cycle":
                flags = {
                    eal[e]
                    for e in g.edge_ids
                    if classes[e].settled == nd.node_id
                }
                assert len(flags) == 1  # shared flag per cycle piece
            else:
                for e in nd.piece.internal_edge_ids:
                    u, v = g.endpoints[g.edge_index(e)]
                    assert eal[e] == (deg[u] % 2 == 0 and deg[v] % 2 == 0)


def test_exact_eal_probabilities_clear_bounds(any_instance):
    for sampler in ("mi", "maxent", "mix"):
        h = build_hierarchy(any_instance)
        sp = SamplerParams(sampler=sampler)
        samplers = build_piece_samplers(h, sp)
        classes = classify(h)
        probs = exact_eal_probabilities(eal_conditions(h, classes), classes, samplers)
        bounds = eal_bounds(sp.sampler, sp.effective_lambda)
        for e, cl in classes.items():
            assert float(probs[e]) >= float(bounds[cl.coin_kind]) - 1e-12


def test_no_reduction_keeps_quarter(zoo_instance):
    h, sp, rp, samplers, classes, coins, sites = prepared(zoo_instance)
    (edges,) = trial_trees(CompiledInstance(zoo_instance, sp), 1, 7)
    zero_rates = {g: 0.0 for g in coins}
    rng = np.random.default_rng(0)
    js = build_join(h, classes, rp, edges, zero_rates, rng, sites,
                    eal_conditions(h, classes))
    assert all(z == QUARTER for z in js.z.values())
    assert not js.reductions and not js.charges


def test_reduction_params_refuse_unordered_amounts():
    with pytest.raises(ConfigError, match="tau <= gamma <= beta"):
        ReductionParams(Fraction(1, 20), Fraction(1, 40), Fraction(1, 12))


def test_reduction_params_refuse_beta_under_twice_an_amount():
    with pytest.raises(ConfigError, match="beta >= 2\\*tau"):
        ReductionParams(Fraction(1, 20), Fraction(1, 20), Fraction(1, 20))


@pytest.mark.parametrize("sampler", ["mi", "maxent", "mix"])
def test_coin_thresholds_fall_as_the_rates_do(sampler):
    """At the quanta next to each threshold and on random draws, comparing
    with the double threshold gives the exact comparison with the rate."""
    h, sp, rp, samplers, classes, coins, sites = prepared(family_instance("zoo"), sampler)
    edge_cases = {("one",): Fraction(1), ("zero",): Fraction(0), ("tiny",): Fraction(1e-300),
                  ("quantum",): Fraction(3, 2 ** 53), ("third",): Fraction(1, 3)}
    # an estimate of one flattens to its bound: the record's rate is the bound
    coins = {**coins, **{grp: Coin.flatten(Fraction(1), r) for grp, r in edge_cases.items()}}
    rates, thresholds = rates_of(coins), thresholds_of(coins)
    assert all(rates[grp] == r for grp, r in edge_cases.items())
    draws = np.random.default_rng(1).random(2_000)
    for grp, r in rates.items():
        t = thresholds[grp]
        assert type(t) is float and 0 <= t <= 1
        k = int(t * 2 ** 53)
        for x in [k / 2 ** 53, (k - 1) / 2 ** 53, *draws]:
            if 0 <= x < 1:
                assert (x < t) == (x < r), (grp, r, x)
    conditions = eal_conditions(h, classes)
    trees = trial_trees(CompiledInstance(family_instance("zoo"), sp), 20, 3)
    for trial, edges in enumerate(trees):
        by_rate = build_join(h, classes, rp, edges, rates, np.random.default_rng(trial),
                             sites, conditions)
        by_threshold = build_join(h, classes, rp, edges, thresholds,
                                  np.random.default_rng(trial), sites, conditions)
        assert by_rate == by_threshold
    # the Monte Carlo chunk flips its coins against the same thresholds
    engine = BatchEngine(family_instance("zoo"), sp)
    want = [engine.coins[grp].threshold for grp in sorted(coin_groups(engine.classes))]
    assert [rate for _, rate in engine.groups] == want


def test_equal_estimates_share_one_rate(zoo_instance):
    """Rates are shared by value: coin groups of one coin kind whose
    estimates are equal ``Fraction``s, each made on its own, read one rate."""
    classes = classify(build_hierarchy(zoo_instance))
    groups = coin_groups(classes)
    probs = {e: Fraction(3, 4) for e in classes}
    rates = rates_of(coin_table(classes, groups, probs, DEFAULT_MIX_LAMBDA))
    bounds = coin_bounds(DEFAULT_MIX_LAMBDA)
    first: dict[str, Fraction] = {}
    for grp, members in groups.items():
        kind = classes[members[0]].coin_kind
        assert type(rates[grp]) is Fraction
        assert rates[grp] == bounds[kind] / Fraction(3, 4), grp
        assert rates[grp] is first.setdefault(kind, rates[grp]), grp
    assert len(first) > 1


def _fractional_cost_instance():
    """``conftest.fractional_cost_instance`` as read from its instance file."""
    want = fractional_cost_instance()
    text = serialize_instance(want)
    assert "/" in text
    inst = parse_instance(text)
    assert inst.costs == want.costs
    return inst


@functools.cache
def plan_instance(name: str):
    if name in ALL_FAMILIES:
        return family_instance(name)
    if name == "fractional-costs":
        return _fractional_cost_instance()
    family, k = name.rsplit("-", 1)
    return generate_double_cycle(int(k), np.random.default_rng(FAMILY_SEED))


@functools.cache
def _optimized():
    return optimize()


def plan_params(name: str) -> tuple:
    """Sampler and reduction parameters: the defaults, ``optimize()``'s
    amounts and mix, either pure sampler, and tau equal to gamma, so two
    edge kinds share one reduction amount."""
    if name == "optimized":
        res = _optimized()
        sp = SamplerParams(sampler="mix", mix_lambda=res.lam)
        return sp, ReductionParams(res.tau, res.gamma, res.beta)
    if name == "tau-is-gamma":
        sp = SamplerParams()
        return sp, ReductionParams(DEFAULT_TAU, DEFAULT_TAU, BETA_CAP)
    return SamplerParams(sampler="mix" if name == "default" else name), None


def engine_plan(engine: BatchEngine) -> dict:
    """The fields of ``reference.fraction_plan`` as the engine holds them:
    repayments as ints and site cuts as edge-id tuples."""
    cuts = [tuple(c.tolist()) for c in engine.site_cut_cols]
    return {
        "cost_denom": engine.cost_denom,
        "cost_int": engine.cost_int.tolist(),
        "lp_cost": engine.inst.lp_cost(),
        "z_denom": engine.z_denom,
        "amount_int": engine.amount_int.tolist(),
        "degree_plan": [(src, cuts[k], [(f, int(amt)) for f, amt in targets])
                        for src, k, targets in engine.degree_site_plan],
        "pair_plan": [(targets, [(int(half), [(s, cuts[k]) for s, k in members])
                                 for half, members in groups])
                      for targets, groups in engine.pair_site_plan],
        "rates": {grp: (type(coin.rate), coin.rate) for grp, coin in engine.coins.items()},
        "thresholds": [t for _, t in engine.groups],
        "lane": engine.lane,
        "sum_lane": engine.sum_lane,
    }


PLAN_INSTANCES = ALL_FAMILIES + ("double-cycle-24", "double-cycle-100", "fractional-costs")


@pytest.mark.parametrize("params", ["default", "optimized", "mi", "maxent", "tau-is-gamma"])
@pytest.mark.parametrize("name", PLAN_INSTANCES)
def test_integer_plan_equals_the_fraction_formulas(name, params):
    """Every integer of the engine's plan, scaled once per distinct value,
    equals the one ``Fraction`` product per edge, coin group and site
    member gives, and so does the LP cost."""
    sp, rp = plan_params(params)
    engine = BatchEngine(plan_instance(name), sp, rp)
    want = fraction_plan(engine)
    assert engine_plan(engine) == want
    assert engine.lp_cost == want["lp_cost"]


def test_join_ledger_conservation(zoo_instance):
    h, sp, rp, samplers, classes, coins, sites = prepared(zoo_instance)
    rates = rates_of(coins)
    degree_sites, pair_sites = sites
    cuts = min_cuts_via_hierarchy(h)
    for trial, edges in enumerate(trial_trees(CompiledInstance(zoo_instance, sp), 60, 13)):
        rng = np.random.default_rng((13, trial))
        js = build_join(h, classes, rp, edges, rates, rng, sites,
                        eal_conditions(h, classes))
        # z equals quarter minus reduction plus received charges
        for e in range(zoo_instance.graph.m):
            expect = QUARTER - js.reductions.get(e, Fraction(0))
            for _, amt in js.charges.get(e, ()):
                expect += amt
            assert js.z[e] == expect
        # every deficient odd min-cut is repaid in full
        for site in degree_sites:
            odd = sum(1 for c in site.cut_ids if c in edges) % 2 == 1
            if site.source in js.reductions and odd:
                received = sum(
                    amt
                    for f, _ in site.targets
                    for srcs, amt in js.charges.get(f, ())
                    if site.source in srcs
                )
                assert received == site.amount
        verify_join(js.z, edges, h, cuts)


def test_partner_coins_correlated(k5_instance):
    h, sp, rp, samplers, classes, coins, sites = prepared(k5_instance)
    rates = rates_of(coins)
    for trial, edges in enumerate(trial_trees(CompiledInstance(k5_instance, sp), 40, 3)):
        rng = np.random.default_rng((5, trial))
        js = build_join(h, classes, rp, edges, rates, rng, sites,
                        eal_conditions(h, classes))
        for e, cl in classes.items():
            if cl.kind != "cycle":
                continue
            partners = [
                f for f, c2 in classes.items() if c2.coin_group == cl.coin_group
            ]
            red = {f in js.reductions for f in partners}
            assert len(red) == 1  # all or none


def test_bipartization_flow_non_k5_cap():
    inst = family_instance("zoo")
    h = build_hierarchy(inst)
    piece = next(nd.piece for nd in h.non_leaves() if nd.kind == "degree")
    demands = {e: Fraction(1) for e in piece.external_edge_ids}
    assign = bipartization_flow(piece, demands)
    assert assign.cap == Fraction(1, 2)
    assert all(l <= assign.cap for l in assign.load.values())
    for s in demands:
        assert sum(x for (_, x) in assign.row(s)) == 1


def test_bipartization_flow_k5_thirds():
    inst = family_instance("k5-gadget")
    h = build_hierarchy(inst)
    piece = next(nd.piece for nd in h.non_leaves() if nd.kind == "degree")
    demands = {e: Fraction(1) for e in piece.external_edge_ids}
    assign = bipartization_flow(piece, demands)
    assert assign.cap == Fraction(2, 3)
    assert all(x == Fraction(1, 3) for x in assign.fractions.values())
    assert max(assign.load.values()) == Fraction(2, 3)


def test_bipartization_flow_mixed_demands():
    inst = family_instance("zoo")
    h = build_hierarchy(inst)
    piece = next(
        nd.piece for nd in h.non_leaves() if nd.kind == "degree" and nd.piece.graph.n > 5
    )
    rp = ReductionParams.default()
    ext = sorted(piece.external_edge_ids)
    demands = {
        ext[0]: rp.tau,
        ext[1]: rp.gamma,
        ext[2]: rp.beta / 2,
        ext[3]: rp.beta / 2,
    }
    assign = bipartization_flow(piece, demands)
    bound = max(rp.tau / 2, rp.gamma / 2, rp.beta / 4)
    assert assign.cap == bound
    assert all(l <= bound for l in assign.load.values())


def test_verify_join_passes_half_x(zoo_instance):
    h = build_hierarchy(zoo_instance)
    z = {e: QUARTER for e in range(zoo_instance.graph.m)}
    sp = SamplerParams(sampler="mi")
    (edges,) = trial_trees(CompiledInstance(zoo_instance, sp), 1, 2)
    report = verify_join(z, edges, h)
    assert report.ok


def test_verify_join_catches_deficient_cut(zoo_instance):
    h = build_hierarchy(zoo_instance)
    cuts = min_cuts_via_hierarchy(h)
    sp = SamplerParams(sampler="mi")
    for edges in trial_trees(CompiledInstance(zoo_instance, sp), 50, 4):
        odd_cut = next(
            (
                c
                for c in cuts
                if sum(1 for e in c.edge_ids if e in edges) % 2 == 1
            ),
            None,
        )
        if odd_cut is not None:
            break
    assert odd_cut is not None
    z = {e: QUARTER for e in range(zoo_instance.graph.m)}
    z[odd_cut.edge_ids[0]] = Fraction(1, 4) - Fraction(1, 12)  # cut at 11/12
    with pytest.raises(FeasibilityViolation):
        verify_join(z, edges, h, cuts)
    report = verify_join(z, edges, h, cuts, raise_on_violation=False)
    assert not report.ok and report.cut_violations


def test_integral_join_empty_and_pair(zoo_instance):
    """``tours`` on a block of trials: each tree's cost is its edges' sum, its
    join costs nothing without odd vertices and a shortest path with two,
    and its tour visits every vertex once for at most tree plus join."""
    inst = zoo_instance
    ci = CompiledInstance(inst, SamplerParams(sampler="mi"))
    d, _ = shortest_path_metric(inst)
    [(_, T, _)] = ci.tree_chunks(3000, 6)
    sizes = set()
    for col, (tree_cost, join_cost, tour, tour_cost) in zip(T.T, ci.tours(T, 0)):
        edges = np.flatnonzero(col).tolist()
        odd = odd_vertices(inst, edges)
        sizes.add(len(odd))
        assert Fraction(tree_cost, ci.cost_denom) == sum(inst.costs[e] for e in edges)
        if not odd:
            assert join_cost == 0
        if len(odd) == 2:
            assert Fraction(join_cost, ci.cost_denom) == d[odd[0]][odd[1]]
        # a tour visits every vertex exactly once
        assert sorted(tour) == list(range(inst.graph.n))
        assert tour_cost <= tree_cost + join_cost
    assert {0, 2} <= sizes


@pytest.mark.parametrize("family", ["zoo", "nested"])
def test_odd_sets_list_each_trials_odd_vertices(family):
    """``_odd_sets`` lists a block's distinct odd-vertex sets once each, in
    the order of their first trial, and points each trial at its own."""
    ci = CompiledInstance(family_instance(family))
    [(_, T, _)] = ci.tree_chunks(500, 4)
    masks, index = ci._odd_sets(T)
    odd = [odd_vertices(ci.inst, np.flatnonzero(col).tolist()) for col in T.T]
    assert [list(bits(masks[i])) for i in index.tolist()] == odd
    firsts = [index.tolist().index(i) for i in range(len(masks))]
    assert len(set(masks)) == len(masks) and firsts == sorted(firsts)


def _brute_force_matching(odd, d):
    best = None
    if not odd:
        return Fraction(0)
    first, rest = odd[0], odd[1:]
    for i in range(len(rest)):
        sub = rest[:i] + rest[i + 1:]
        cand = d[first][rest[i]] + _brute_force_matching(sub, d)
        if best is None or cand < best:
            best = cand
    return best


def test_matching_dp_against_brute_force(zoo_instance, monkeypatch):
    """The DP on a shared memo against brute force; and the compiled
    instance's ``pairing``, on its one memo kept so small that it empties
    between solves, against the DP on a fresh memo: same cost, same pairs."""
    inst = zoo_instance
    d, _ = shortest_path_metric(inst)
    h = build_hierarchy(inst)
    sp = SamplerParams(sampler="mix")
    ci = CompiledInstance(inst, sp)
    limit = 64
    monkeypatch.setattr(htsp.engine, "PAIRING_MEMO_LIMIT", limit)
    memo = {}
    checked = clears = 0
    for edges in trial_trees(ci, 40, 8):
        odd = odd_vertices(inst, edges)
        clears += len(ci._memo) >= limit
        assert ci.pairing(odd) == min_cost_perfect_matching(odd, ci.metric[0])
        if len(odd) > 10:
            continue
        cost, pairs = min_cost_perfect_matching(odd, d, memo=memo)
        assert cost == _brute_force_matching(odd, d)
        assert sorted(v for p in pairs for v in p) == sorted(odd)
        checked += 1
    assert checked > 5
    assert clears > 1


def test_exact_net_decrease_meets_delta_floor():
    """At the optimal operating point every edge's expected decrease clears
    the optimized floor, instance by instance, in exact arithmetic."""
    from htsp.oracle import exact_expected_net_decrease
    from htsp.params import solve_amounts

    sol = solve_amounts(Fraction(4715, 10000))
    floor = float(sol.delta)
    for family in ("double-cycle", "k5-gadget", "nested", "zoo", "random-4reg"):
        inst = family_instance(family)
        net = exact_expected_net_decrease(
            CompiledInstance(inst, SamplerParams(sampler="mix"))
        )
        worst = min(float(v) for v in net.values())
        assert worst >= floor - 1e-9, (family, worst, floor)


def test_exact_expected_join_cost_beats_bound():
    """The strongest cost check: the exact expectation of the fractional
    join cost sits below the guaranteed fraction of the LP value."""
    from htsp.params import optimize
    from tests.reference import exact_expected_join_cost

    res = optimize()
    for family in ("double-cycle", "k5-gadget", "nested", "zoo", "random-4reg"):
        inst = family_instance(family)
        sp = SamplerParams(sampler="mix", mix_lambda=res.lam)
        rp = ReductionParams(res.tau, res.gamma, res.beta)
        expected = float(exact_expected_join_cost(CompiledInstance(inst, sp, rp)))
        bound = (0.5 - 0.001695) * float(inst.lp_cost())
        assert expected <= bound + 1e-9, (family, expected, bound)


def test_estimate_below_bound_raises(zoo_instance):
    from htsp.errors import EstimateBelowBound

    h = build_hierarchy(zoo_instance)
    classes = classify(h)
    groups = coin_groups(classes)
    bogus = {e: Fraction(1, 10 ** 6) for e in classes}
    with pytest.raises(EstimateBelowBound):
        check_eal_bounds(coin_table(classes, groups, bogus, DEFAULT_MIX_LAMBDA), groups)


def test_bound_check_is_exact(zoo_instance):
    """An estimate at its bound passes with rate one, one part in 10**12
    below it is refused, and twice the bound halves the rate."""
    from htsp.errors import EstimateBelowBound

    classes = classify(build_hierarchy(zoo_instance))
    groups = coin_groups(classes)
    lam = DEFAULT_MIX_LAMBDA
    bounds = coin_bounds(lam)
    bound = {e: bounds[cl.coin_kind] for e, cl in classes.items()}
    coins = coin_table(classes, groups, bound, lam)
    check_eal_bounds(coins, groups)
    rates = rates_of(coins)
    assert all(r == 1 and isinstance(r, Fraction) for r in rates.values())
    below = {e: b * (1 - Fraction(1, 10 ** 12)) for e, b in bound.items()}
    with pytest.raises(EstimateBelowBound):
        check_eal_bounds(coin_table(classes, groups, below, lam), groups)
    above = {e: 2 * b for e, b in bound.items()}
    assert set(rates_of(coin_table(classes, groups, above, lam)).values()) == {Fraction(1, 2)}


@pytest.mark.parametrize("sampler", ["mi", "maxent", "mix"])
def test_exact_eal_probabilities_match_indicator_patterns(any_instance, sampler):
    """The parity-law probabilities against the indicator-pattern code they
    replaced: equal ``Fraction``s on every sampler."""
    from tests.reference import pattern_eal_probabilities

    h = build_hierarchy(any_instance)
    samplers = build_piece_samplers(h, SamplerParams(sampler=sampler))
    classes = classify(h)
    new = exact_eal_probabilities(eal_conditions(h, classes), classes, samplers)
    old = pattern_eal_probabilities(h, classes, samplers)
    assert sorted(new) == sorted(old)
    for e in old:
        assert isinstance(new[e], Fraction) and new[e] == old[e], e


def test_detect_eal_matches_chunk_flags():
    """Per-tree detection and the batch chunk read one set of conditions;
    on sampled trees they flag the same edges."""
    from htsp.engine import BatchEngine

    for family in ("zoo", "k5-gadget", "nested"):
        engine = BatchEngine(family_instance(family), SamplerParams(sampler="mix"))
        trees = trial_trees(engine, 40, 4)
        T = np.zeros((engine.m, len(trees)), dtype=bool)
        for j, t in enumerate(trees):
            T[sorted(t), j] = True
        flags = engine._eal_flags(T)
        for j, t in enumerate(trees):
            eal = detect_eal(engine.eal_conditions, t)
            assert [eal[e] for e in range(engine.m)] == flags[:, j].tolist()


def test_odd_set_limit():
    from htsp.errors import OddSetTooLarge

    d = [[Fraction(1)] * 24 for _ in range(24)]
    with pytest.raises(OddSetTooLarge):
        min_cost_perfect_matching(list(range(20)), d)


def _ring_edges_with_odd(inst, k):
    """A connected edge multiset on a double cycle with exactly k odd vertices:
    a Hamiltonian path, plus parallel copies that each make two more odd."""
    links = list(inst.graph.parallel_classes().values())
    edges = [link[0] for link in links[:-1]]
    for link in links[:-1]:
        odd = odd_vertices(inst, frozenset(edges))
        if len(odd) >= k:
            break
        u, v = inst.graph.endpoints[link[1]]
        if u not in odd and v not in odd:
            edges.append(link[1])
    assert len(odd_vertices(inst, frozenset(edges))) == k
    return edges


def _r0_tree_with_odd(inst, k):
    """A rooted tree of ``validate_r0_tree``'s form with exactly k odd
    vertices: a spanning tree of the non-root vertices by Kruskal's rule in
    a seeded random edge order, plus the root's first two edges."""
    g = inst.graph
    rng = np.random.default_rng(0)
    while True:
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        edges = list(g.incident_ids(inst.root)[:2])
        for e in rng.permutation(g.m).tolist():
            u, v = (find(x) for x in g.endpoints[e])
            if inst.root not in g.endpoints[e] and u != v:
                parent[u] = v
                edges.append(e)
        if len(odd_vertices(inst, edges)) == k:
            return edges


def test_tour_and_batch_paths_share_the_odd_set_limit():
    """``tours`` and the chunk's ``_integral_costs`` pair odd sets on the one
    path: both accept ``ODD_SET_LIMIT`` odd vertices, at the same cost, and
    both raise ``OddSetTooLarge`` at two more.  Three K4,4 clusters on a
    host cycle give 24 vertices and trees with many leaves."""
    from htsp import generators
    from htsp.errors import OddSetTooLarge
    from htsp.join import ODD_SET_LIMIT

    b, ring = generators._host_cycle(6)
    for i in (2, 3, 4):
        b.expand(ring[i], generators.CLUSTERS["k44"](), f"Q{i}")
    inst = b.materialize(ring[0], ring[1], ring[-1], np.random.default_rng(0))
    ci = CompiledInstance(inst, SamplerParams(sampler="mi"))
    for k, accepted in ((ODD_SET_LIMIT, True), (ODD_SET_LIMIT + 2, False)):
        T = np.zeros((inst.graph.m, 1), dtype=bool)
        T[_r0_tree_with_odd(inst, k), 0] = True
        tours = lambda: list(ci.tours(T, 0))
        batch = lambda: ci._integral_costs(T.T)
        if accepted:
            [(_, join_cost, _, _)] = tours()
            assert join_cost == batch()[0] > 0
        else:
            with pytest.raises(OddSetTooLarge):
                tours()
            with pytest.raises(OddSetTooLarge):
                batch()


def test_disconnected_legs_raise_assembly_error():
    # two parallel edges away from the root: even degrees, so no join legs,
    # and the Euler walk from the root cannot reach them
    inst = family_instance("double-cycle")
    g = inst.graph
    seen: dict = {}
    for eid, (u, v) in zip(g.edge_ids, g.endpoints):
        key = (min(u, v), max(u, v))
        if inst.root not in key and key in seen:
            pair = [seen[key], eid]
            break
        seen[key] = eid
    with pytest.raises(AssemblyError, match="not connected"):
        tour_walk(CompiledInstance(inst), pair, [])


def test_flow_rows_off_one_raise_flow_infeasible(monkeypatch):
    """A flow whose split of one edge's demand does not sum to the demand
    is refused with a typed error, not a bare assert."""
    import htsp.join as join_mod
    from htsp.errors import FlowInfeasible

    h = build_hierarchy(family_instance("zoo"))
    piece = next(
        nd.piece for nd in h.non_leaves() if nd.kind == "degree" and nd.piece.graph.n > 5
    )
    demands = {e: Fraction(1) for e in piece.external_edge_ids}
    real = join_mod.augment

    def short_flow(arcs, flow, source, t):
        seen = real(arcs, flow, source, t)
        if not (seen >> t) & 1:
            # the flow is final: take half of the first source's demand back
            # from its edges to the targets, and leave its edge from S full
            out = [pos for pos, _, sign, _ in arcs[1] if sign == 1]
            excess = sum(flow[pos] for pos in out) // 2
            for pos in out:
                take = min(flow[pos], excess)
                flow[pos] -= take
                excess -= take
        return seen

    monkeypatch.setattr(join_mod, "augment", short_flow)
    with pytest.raises(FlowInfeasible, match="sum to 1/2"):
        bipartization_flow(piece, demands)


@functools.cache
def _hierarchy_and_classes(name: str) -> tuple:
    if name.startswith("random-4reg-seed-"):
        seed = int(name.rsplit("-", 1)[1])
        inst = generate_random_4reg(12, np.random.default_rng(seed))
    else:
        inst = family_instance(name)
    h = build_hierarchy(inst)
    return h, classify(h)


SPLIT_INSTANCES = ALL_FAMILIES + tuple(f"random-4reg-seed-{seed}" for seed in range(4))


@pytest.mark.parametrize("params", ["default", "optimized", "mi", "maxent"])
def test_charge_split_equals_the_fraction_edmonds_karp(params):
    """On every degree piece but K5, with the demands ``build_charge_sites``
    gives it, ``bipartization_flow`` splits each demand as the ``Fraction``
    Edmonds-Karp does, in the same order, with the same loads."""
    sp, rp = plan_params(params)
    rp = rp or ReductionParams.default()
    compared = 0
    for name in SPLIT_INSTANCES:
        h, classes = _hierarchy_and_classes(name)
        for nd in h.non_leaves():
            piece = nd.piece
            if nd.kind == "cycle" or piece.graph.n == 5:
                continue
            demands = {}
            for s in sorted(piece.external_edge_ids):
                amount = rp.amount(classes[s].kind)
                demands[s] = amount / 2 if classes[s].kind == "cycle" else amount
            g, ext = piece.graph, set(piece.external_edge_ids)
            rows = {}
            for s in demands:
                u, v = g.endpoints[g.edge_index(s)]
                inner = u if v == piece.external_vertex else v
                rows[s] = sorted(e for e in g.incident_ids(inner) if e not in ext)
            cap = max(demands.values()) / 2
            flow = fraction_max_flow(rows, demands, cap)
            if flow is None:
                with pytest.raises(FlowInfeasible, match="no assignment at cap"):
                    bipartization_flow(piece, demands)
                continue
            got = bipartization_flow(piece, demands)
            want = [((s, f), x / demands[s]) for (s, f), x in flow.items() if x]
            load = {}
            for (s, f), x in flow.items():
                if x:
                    load[f] = load.get(f, Fraction(0)) + x
            assert list(got.fractions.items()) == want, (name, nd.node_id)
            assert list(got.load.items()) == list(load.items()) and got.cap == cap
            compared += 1
    assert compared > 0


_AMOUNTS = st.fractions(min_value=0, max_value=2, max_denominator=6)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_charge_flow_equals_the_fraction_edmonds_karp_on_random_rows(data):
    """On random rows, demands and caps, feasible or not, the integer flow
    gives the ``Fraction`` Edmonds-Karp's dict, in its order, and None
    exactly when it does."""
    from htsp.join import _charge_flow

    sources = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True))
    targets = data.draw(st.lists(st.integers(50, 90), min_size=1, max_size=6, unique=True))
    rows = {s: data.draw(st.lists(st.sampled_from(targets), max_size=len(targets), unique=True))
            for s in sources}
    demands = {s: data.draw(_AMOUNTS) for s in sources}
    cap = data.draw(_AMOUNTS)
    want = fraction_max_flow(rows, demands, cap)
    got = _charge_flow(rows, demands, cap)
    assert (got is None) == (want is None)
    assert got is None or list(got.items()) == list(want.items())


def test_coin_group_with_two_estimates_raises(zoo_instance):
    """Partner edges share one coin, so they must share one even-at-last
    estimate; a split estimate is refused with a typed error."""
    from htsp.errors import EstimateBelowBound
    from htsp.join import coin_groups

    h = build_hierarchy(zoo_instance)
    classes = classify(h)
    members = next(m for m in coin_groups(classes).values() if len(m) > 1)
    probs = {e: Fraction(9, 10) for e in classes}
    probs[members[0]] = Fraction(19, 20)
    with pytest.raises(EstimateBelowBound, match="2 even-at-last estimates"):
        coin_table(classes, coin_groups(classes), probs, DEFAULT_MIX_LAMBDA)


# -- certifying checks that are raises, not asserts ----------------------------

def _classify_without_pieces():
    from types import SimpleNamespace

    h = build_hierarchy(family_instance("nested"))
    classify(SimpleNamespace(non_leaves=lambda: [], instance=h.instance))


def _k5_vertex_with_two_internal_edges():
    from types import SimpleNamespace

    h = build_hierarchy(family_instance("k5-gadget"))
    piece = next(nd.piece for nd in h.non_leaves()
                 if nd.kind == "degree" and nd.piece.graph.n == 5)
    g = piece.graph
    s = piece.external_edge_ids[0]
    u, v = g.endpoints[g.edge_index(s)]
    bv = u if v == piece.external_vertex else v
    stolen = next(e for e in g.incident_ids(bv) if e not in piece.external_edge_ids)
    fake = SimpleNamespace(graph=g, external_vertex=piece.external_vertex,
                           external_edge_ids=piece.external_edge_ids + [stolen])
    bipartization_flow(fake, {s: Fraction(1)})


def _coin_group_with_two_amounts():
    import dataclasses

    h = build_hierarchy(family_instance("double-cycle"))
    classes = classify(h)
    nd = next(nd for nd in h.non_leaves()
              if nd.piece.internal_pairs() and len(nd.piece.external_pairs()) == 2)
    e = nd.piece.external_pairs()[0][0]
    classes[e] = dataclasses.replace(classes[e], kind="k5-degree")
    build_charge_sites(h, classes, ReductionParams.default())


def _odd_count_of_odd_vertices():
    min_cost_perfect_matching([0, 1, 2], [[Fraction(1)] * 3 for _ in range(3)])


def _k5_paths_of_a_larger_piece():
    from htsp.trees import k5_paths

    h = build_hierarchy(family_instance("zoo"))
    k5_paths(next(nd.piece for nd in h.non_leaves()
                  if nd.kind == "degree" and nd.piece.graph.n > 5))


def _cluster_at_a_degree_three_vertex():
    from htsp import generators

    generators.PIECE_CATALOG["degree-three"] = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    try:
        generators._cluster_from_piece("degree-three")
    finally:
        del generators.PIECE_CATALOG["degree-three"]


#: name -> (fault, the typed error it raises)
CHECK_FAULTS = {
    "classify-cover": (_classify_without_pieces, AssemblyError),
    "k5-three-targets": (_k5_vertex_with_two_internal_edges, FlowInfeasible),
    "one-amount-per-group": (_coin_group_with_two_amounts, FlowInfeasible),
    "even-odd-set": (_odd_count_of_odd_vertices, NoPerfectMatching),
    "k5-paths-interior": (_k5_paths_of_a_larger_piece, AssemblyError),
    "four-stubs": (_cluster_at_a_degree_three_vertex, GenerationFailure),
}


@pytest.mark.parametrize("fault", sorted(CHECK_FAULTS))
def test_broken_check_raises_typed_error(fault):
    run, error = CHECK_FAULTS[fault]
    with pytest.raises(error):
        run()


def test_join_checks_survive_python_O():
    """Under ``python -O`` every check of ``CHECK_FAULTS`` still raises."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    script = """
from tests.test_join import CHECK_FAULTS

try:
    assert False
except AssertionError:
    raise SystemExit("assertions are on")
for name, (run, error) in CHECK_FAULTS.items():
    try:
        run()
    except error:
        print(name)
"""
    env = {"PATH": "", "PYTHONPATH": f"{root / 'src'}:{root}"}
    out = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == list(CHECK_FAULTS)


def _assert_metric_equals_reference(inst, ci=None):
    """The integer metric, over its cost denominator, and its successors
    equal the ``Fraction`` Floyd-Warshall's entry for entry."""
    ci = ci or CompiledInstance(inst)
    d, nxt = ci.metric
    # lists of Python int rows, which the pairing DP and the tour walk index
    assert all(type(x) is int for table in (d, nxt) for row in table for x in row)
    d, nxt = np.array(d), np.array(nxt)
    ref_d, ref_nxt = shortest_path_metric(inst)
    n = inst.graph.n
    assert [[Fraction(int(x), ci.cost_denom) for x in row] for row in d] == ref_d
    assert {(u, v): int(nxt[u, v]) for u in range(n) for v in range(n) if u != v} == ref_nxt


@pytest.mark.parametrize("family", ["double-cycle", "k5-gadget", "nested",
                                    "random-4reg", "zoo"])
def test_integer_metric_equals_the_fraction_reference(family):
    _assert_metric_equals_reference(family_instance(family))


def test_integer_metric_equals_the_fraction_reference_on_a_long_double_cycle():
    from htsp.generators import generate_double_cycle, generate_random_4reg

    _assert_metric_equals_reference(generate_double_cycle(100, np.random.default_rng(0)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["double-cycle", "k5-gadget", "nested"]), st.data())
def test_integer_metric_equals_the_fraction_reference_on_random_costs(family, data):
    """Small integer and fractional costs, parallel edges of unequal cost
    and ties among paths included."""
    from htsp.graph import HalfIntegralInstance

    inst = family_instance(family)
    cost = st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 1, 2, 3, 7]))
    costs = data.draw(st.lists(cost, min_size=inst.graph.m, max_size=inst.graph.m))
    _assert_metric_equals_reference(HalfIntegralInstance(inst.graph, tuple(costs)))


def engine_fails(engine, z, tree_edges) -> bool:
    """Whether the engine's check through the hierarchy, ``_infeasible`` on
    a one-column block, fails the ``Fraction`` join ``z`` on the tree."""
    T = np.zeros((engine.m, 1), dtype=bool)
    T[sorted(tree_edges)] = True
    scaled = [z[e] * engine.z_denom for e in range(engine.m)]
    assert all(v.denominator == 1 for v in scaled)
    col = np.array([[int(v)] for v in scaled], dtype=np.int64)
    site_odd = [_odd_rows(T, cols) for cols in engine.site_cut_cols]
    return bool(engine._infeasible(T, col, site_odd)[0])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_engine_trial_check_agrees_with_verify_join(family):
    """The engine's check against the reference ``verify_join`` on 200
    reference joins, each also with one edge's charge lowered by a
    twelfth: the two pass and fail together."""
    inst = family_instance(family)
    engine = BatchEngine(inst, SamplerParams(sampler="mix"))
    cuts = min_cuts_via_hierarchy(engine.h)
    pick = np.random.default_rng(11)
    failed = 0
    for trial, edges in enumerate(trial_trees(engine, 200, 12)):
        js = build_join(engine.h, engine.classes, engine.rp, edges, rates_of(engine.coins),
                        np.random.default_rng(trial), engine.sites, engine.eal_conditions)
        lowered = dict(js.z)
        lowered[int(pick.integers(engine.m))] -= Fraction(1, 12)
        for z in (js.z, lowered):
            ok = verify_join(z, edges, engine.h, cuts, raise_on_violation=False).ok
            assert engine_fails(engine, z, edges) == (not ok)
            failed += not ok
    assert failed > 0


def test_engine_trial_check_catches_deficient_cut(zoo_instance):
    """The deficient cut of ``test_verify_join_catches_deficient_cut``:
    every charge a quarter except one edge of an odd min-cut at a sixth."""
    engine = BatchEngine(zoo_instance, SamplerParams(sampler="mi"))
    cuts = min_cuts_via_hierarchy(engine.h)
    for edges in trial_trees(engine, 50, 4):
        odd_cut = next((c for c in cuts
                        if sum(1 for e in c.edge_ids if e in edges) % 2 == 1), None)
        if odd_cut is not None:
            break
    z = {e: QUARTER for e in range(engine.m)}
    assert not engine_fails(engine, z, edges)
    z[odd_cut.edge_ids[0]] = Fraction(1, 6)
    assert engine_fails(engine, z, edges)
    assert not verify_join(z, edges, engine.h, cuts, raise_on_violation=False).ok


class _Draws:
    """Hands out given uniforms in order, as ``rng.random()`` would."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self) -> float:
        return next(self._draws)


@pytest.mark.parametrize("sampler", ["mi", "maxent", "mix"])
@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_checked_joins_equal_the_reference_join(family, sampler, monkeypatch):
    """``BatchEngine.checked_joins``, the joins of ``htsp join``, equal the
    reference ``build_join`` fed each trial's coin uniforms from its chunk's
    stream, in sorted group order, in units of 1/z_denom, trial by trial;
    a chunk that starts past trial 0 included."""
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", 150)
    engine = BatchEngine(family_instance(family), SamplerParams(sampler=sampler))
    thresholds = thresholds_of(engine.coins)
    firsts = []
    for first, T, rng in engine.tree_chunks(200, 2):
        n = T.shape[1]
        # the coins ``checked_joins`` reads next: one row per group, in
        # the sorted order of ``engine.groups``
        twin = copy.deepcopy(rng)
        draws = np.array([twin.random(n) for _ in engine.groups]).reshape(-1, n)
        z = engine.checked_joins(T, rng, first)
        for j in range(n):
            edges = frozenset(np.flatnonzero(T[:, j]).tolist())
            js = build_join(engine.h, engine.classes, engine.rp, edges, thresholds,
                            _Draws(draws[:, j].tolist()), engine.sites, engine.eal_conditions)
            assert [int(js.z[e] * engine.z_denom) for e in range(engine.m)] == z[:, j].tolist()
        firsts.append(first)
    assert firsts == [0, 150]


def test_checked_joins_without_charges_name_a_deficient_cut():
    """With the charge sites emptied, reductions go unpaid: some trial's
    join fails, and the error names its odd min-cuts below one."""
    engine = BatchEngine(family_instance("zoo"), SamplerParams(sampler="mix"))
    engine.degree_site_plan, engine.pair_site_plan = [], []
    with pytest.raises(FeasibilityViolation, match=r"odd min-cuts covered below one \[\(\["):
        for first, T, rng in engine.tree_chunks(200, 2):
            engine.checked_joins(T, rng, first)


@pytest.mark.parametrize("family", ["zoo", "nested", "random-4reg"])
def test_join_and_tour_read_the_trials_of_a_run(family, tmp_path, capsys, monkeypatch,
                                               one_process):
    """Trial t of ``htsp join|tour --trials N --seed S`` is trial t of
    ``BatchEngine.run(N, S)`` and of ``htsp stats``, over chunks that end in
    a ragged one: the trees and charges ``join`` writes sum to the run's
    ``incl`` and ``z_sum``, the mean of its fractional join costs is the
    cost suite's, the tree and integral join costs it reads from ``tours``
    sum to the integral run's ``tree_sum`` and ``total_sum - tree_sum``, and
    ``tour`` reads the run's trees."""
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", 64)
    path = str(tmp_path / f"{family}.htsp")
    assert main(["generate", "--family", family, "--seed", "3", "--out", path]) == 0
    with open(path, encoding="utf-8") as fh:
        engine = BatchEngine(parse_instance(fh.read()), SamplerParams())
    blocks = []
    run_chunk = engine._run_chunk
    monkeypatch.setattr(engine, "_run_chunk",
                        lambda T, *rest: blocks.append(T.copy()) or run_chunk(T, *rest))
    want = engine.run(150, 2, join=True, integral=True)
    trees = [frozenset(np.flatnonzero(col).tolist()) for col in np.concatenate(blocks, 1).T]

    written = []
    checked_joins = BatchEngine.checked_joins

    def record(self, T, rng, first):
        z = checked_joins(self, T, rng, first)
        written.append((T.copy(), z.copy()))
        return z

    monkeypatch.setattr(BatchEngine, "checked_joins", record)
    read, costs = [], []
    tours = CompiledInstance.tours

    def record_tours(self, T, first, shortcut=True):
        read.append(T.copy())
        for res in tours(self, T, first, shortcut):
            costs.append(res[:2])
            yield res

    monkeypatch.setattr(CompiledInstance, "tours", record_tours)
    capsys.readouterr()
    assert main(["join", path, "--trials", "150", "--seed", "2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [T.shape[1] for T, _ in written] == [64, 64, 22]
    assert [int(r["trial"]) for r in rows] == list(range(150))
    T = np.concatenate([T for T, _ in written], axis=1)
    z = np.concatenate([z for _, z in written], axis=1)
    assert [frozenset(np.flatnonzero(col).tolist()) for col in T.T] == trees
    assert T.sum(axis=1).tolist() == want.incl.tolist()
    assert z.sum(axis=1, dtype=np.int64).tolist() == want.z_sum.tolist()
    cost = next(r for r in run_suite(ExperimentConfig(instance=path, trials=150, seed=2,
                                                      suite="cost")).rows
                if r.name == "fractional-join-cost")
    mean = sum(float(r["fractional_join_cost"]) for r in rows) / len(rows)
    assert mean == pytest.approx(cost.estimate, rel=1e-9)
    assert [T.shape[1] for T in read] == [64, 64, 22]
    assert all((a == b).all() for a, b in zip(read, (T for T, _ in written)))
    assert sum(tree for tree, _ in costs) == want.tree_sum
    assert sum(join for _, join in costs) == want.total_sum - want.tree_sum

    read.clear()
    assert main(["tour", path, "--trials", "150", "--seed", "2"]) == 0
    read_trees = [frozenset(np.flatnonzero(col).tolist()) for col in np.concatenate(read, 1).T]
    assert read_trees == trees


@pytest.mark.parametrize("cmd", ["join", "tour"])
def test_join_and_tour_solve_each_odd_set_once(cmd, tmp_path, capsys, monkeypatch):
    """``htsp join`` and ``htsp tour`` run the pairing DP on the instance's
    one memo, so it solves each distinct odd set of their trials once: a
    call whose odd set the memo does not hold yet comes once per set, and
    fewer than once per trial.  A memo that empties before every solve
    writes the same bytes."""
    path = str(tmp_path / "zoo.htsp")
    assert main(["generate", "--family", "zoo", "--seed", "3", "--out", path]) == 0
    solved = []
    solve = htsp.engine.min_cost_perfect_matching

    def counted(odd, d, memo):
        if sum(1 << v for v in odd) not in memo:
            solved.append(tuple(odd))
        return solve(odd, d, memo=memo)

    monkeypatch.setattr(htsp.engine, "min_cost_perfect_matching", counted)
    capsys.readouterr()
    outputs = []
    for limit in (htsp.engine.PAIRING_MEMO_LIMIT, 1):
        monkeypatch.setattr(htsp.engine, "PAIRING_MEMO_LIMIT", limit)
        assert main([cmd, path, "--trials", "300", "--seed", "2"]) == 0
        outputs.append(capsys.readouterr().out)
        if limit > 1:
            assert 1 < len(solved) == len(set(solved)) < 300
    assert outputs[0] == outputs[1]
