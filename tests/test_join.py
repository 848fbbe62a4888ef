import copy
import csv
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htsp.errors import (
    AssemblyError,
    FeasibilityViolation,
    FlowInfeasible,
    GenerationFailure,
    NoPerfectMatching,
)
from htsp.hierarchy import build_hierarchy, min_cuts_via_hierarchy
from htsp.join import (
    ReductionParams,
    bipartization_flow,
    build_charge_sites,
    check_eal_bounds,
    classify,
    coin_groups,
    coin_rates,
    coin_thresholds,
    eal_conditions,
    exact_eal_probabilities,
    integral_join_and_tour,
    min_cost_perfect_matching,
    odd_vertices,
)
import htsp.cli
import htsp.engine
from htsp.cli import main
from htsp.graph import parse_instance
from htsp.pipeline import SamplerParams, build_piece_samplers, sample_r0_tree
from htsp.engine import BatchEngine, CompiledInstance, _odd_rows
from htsp.stats import ExperimentConfig, run_suite
from tests.conftest import ALL_FAMILIES, family_instance
from tests.reference import build_join, detect_eal, shortest_path_metric, verify_join

QUARTER = Fraction(1, 4)


def prepared(inst, sampler="mix"):
    h = build_hierarchy(inst)
    sp = SamplerParams(sampler=sampler)
    rp = ReductionParams.default(sp.effective_lambda)
    samplers = build_piece_samplers(h, sp)
    classes = classify(h)
    probs = exact_eal_probabilities(eal_conditions(h, classes), classes, samplers)
    rates = coin_rates(classes, rp, probs)
    sites = build_charge_sites(h, classes, rp)
    return h, sp, rp, samplers, classes, rates, sites


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
    samplers = build_piece_samplers(h, sp)
    for trial in range(20):
        ts = sample_r0_tree(h, sp, seed=1, trial=trial, samplers=samplers)
        eal = detect_eal(eal_conditions(h, classes), ts.edges)
        assert all(eal.values())


def test_detect_eal_degree_matches_parity_definition(zoo_instance):
    h = build_hierarchy(zoo_instance)
    classes = classify(h)
    sp = SamplerParams(sampler="mix")
    samplers = build_piece_samplers(h, sp)
    for trial in range(30):
        ts = sample_r0_tree(h, sp, seed=3, trial=trial, samplers=samplers)
        eal = detect_eal(eal_conditions(h, classes), ts.edges)
        for nd in h.non_leaves():
            g = nd.piece.graph
            deg = {
                v: sum(1 for e in g.incident_ids(v) if e in ts.edges)
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
        rp = ReductionParams.default(sp.effective_lambda)
        samplers = build_piece_samplers(h, sp)
        classes = classify(h)
        probs = exact_eal_probabilities(eal_conditions(h, classes), classes, samplers)
        from htsp.stats import eal_bounds_for

        bounds = eal_bounds_for(sp, rp)
        for e, cl in classes.items():
            assert float(probs[e]) >= float(bounds[cl.kind]) - 1e-12


def test_no_reduction_keeps_quarter(zoo_instance):
    h, sp, rp, samplers, classes, rates, sites = prepared(zoo_instance)
    ts = sample_r0_tree(h, sp, seed=7, trial=0, samplers=samplers)
    zero_rates = {g: 0.0 for g in rates}
    rng = np.random.default_rng(0)
    js = build_join(h, classes, rp, ts.edges, zero_rates, rng, sites,
                    eal_conditions(h, classes))
    assert all(z == QUARTER for z in js.z.values())
    assert not js.reductions and not js.charges


@pytest.mark.parametrize("sampler", ["mi", "maxent", "mix"])
def test_coin_thresholds_fall_as_the_rates_do(sampler):
    """At the quanta next to each threshold and on random draws, comparing
    with the double threshold gives the exact comparison with the rate."""
    h, sp, rp, samplers, classes, rates, sites = prepared(family_instance("zoo"), sampler)
    edge_cases = {("one",): Fraction(1), ("zero",): 0.0, ("tiny",): 1e-300,
                  ("quantum",): Fraction(3, 2 ** 53), ("third",): Fraction(1, 3)}
    rates = {**rates, **edge_cases}
    thresholds = coin_thresholds(rates)
    draws = np.random.default_rng(1).random(2_000)
    for grp, r in rates.items():
        t = thresholds[grp]
        assert type(t) is float and 0 <= t <= 1
        k = int(t * 2 ** 53)
        for x in [k / 2 ** 53, (k - 1) / 2 ** 53, *draws]:
            if 0 <= x < 1:
                assert (x < t) == (x < r), (grp, r, x)
    conditions = eal_conditions(h, classes)
    for trial in range(20):
        ts = sample_r0_tree(h, sp, seed=3, trial=trial, samplers=samplers)
        by_rate = build_join(h, classes, rp, ts.edges, rates, np.random.default_rng(trial),
                             sites, conditions)
        by_threshold = build_join(h, classes, rp, ts.edges, thresholds,
                                  np.random.default_rng(trial), sites, conditions)
        assert by_rate == by_threshold
    # the Monte Carlo chunk flips its coins against the same thresholds
    engine = BatchEngine(family_instance("zoo"), sp)
    want = [coin_thresholds(engine.rates)[grp] for grp in sorted(coin_groups(engine.classes))]
    assert [rate for _, rate in engine.groups] == want


def test_join_ledger_conservation(zoo_instance):
    h, sp, rp, samplers, classes, rates, sites = prepared(zoo_instance)
    degree_sites, pair_sites = sites
    cuts = min_cuts_via_hierarchy(h)
    for trial in range(60):
        ts = sample_r0_tree(h, sp, seed=13, trial=trial, samplers=samplers)
        rng = np.random.default_rng((13, trial))
        js = build_join(h, classes, rp, ts.edges, rates, rng, sites,
                        eal_conditions(h, classes))
        # z equals quarter minus reduction plus received charges
        for e in range(zoo_instance.graph.m):
            expect = QUARTER - js.reductions.get(e, Fraction(0))
            for _, amt in js.charges.get(e, ()):
                expect += amt
            assert js.z[e] == expect
        # every deficient odd min-cut is repaid in full
        for site in degree_sites:
            odd = sum(1 for c in site.cut_ids if c in ts.edges) % 2 == 1
            if site.source in js.reductions and odd:
                received = sum(
                    amt
                    for f, _ in site.targets
                    for srcs, amt in js.charges.get(f, ())
                    if site.source in srcs
                )
                assert received == site.amount
        verify_join(js.z, ts.edges, h, cuts)


def test_partner_coins_correlated(k5_instance):
    h, sp, rp, samplers, classes, rates, sites = prepared(k5_instance)
    for trial in range(40):
        ts = sample_r0_tree(h, sp, seed=3, trial=trial, samplers=samplers)
        rng = np.random.default_rng((5, trial))
        js = build_join(h, classes, rp, ts.edges, rates, rng, sites,
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
    samplers = build_piece_samplers(h, sp)
    ts = sample_r0_tree(h, sp, seed=2, trial=0, samplers=samplers)
    report = verify_join(z, ts.edges, h)
    assert report.ok


def test_verify_join_catches_deficient_cut(zoo_instance):
    h = build_hierarchy(zoo_instance)
    cuts = min_cuts_via_hierarchy(h)
    sp = SamplerParams(sampler="mi")
    samplers = build_piece_samplers(h, sp)
    for trial in range(50):
        ts = sample_r0_tree(h, sp, seed=4, trial=trial, samplers=samplers)
        odd_cut = next(
            (
                c
                for c in cuts
                if sum(1 for e in c.edge_ids if e in ts.edges) % 2 == 1
            ),
            None,
        )
        if odd_cut is not None:
            break
    assert odd_cut is not None
    z = {e: QUARTER for e in range(zoo_instance.graph.m)}
    z[odd_cut.edge_ids[0]] = Fraction(1, 4) - Fraction(1, 12)  # cut at 11/12
    with pytest.raises(FeasibilityViolation):
        verify_join(z, ts.edges, h, cuts)
    report = verify_join(z, ts.edges, h, cuts, raise_on_violation=False)
    assert not report.ok and report.cut_violations


def test_integral_join_empty_and_pair(zoo_instance):
    inst = zoo_instance
    ci = CompiledInstance(inst, SamplerParams(sampler="mi"))
    d, _ = shortest_path_metric(inst)
    for trial in range(30):
        ts = sample_r0_tree(ci.h, ci.sp, seed=6, trial=trial, samplers=ci.samplers)
        res = integral_join_and_tour(ci, ts.edges)
        odd = odd_vertices(inst, ts.edges)
        if not odd:
            assert res.join_cost == 0
        if len(odd) == 2:
            assert res.join_cost == d[odd[0]][odd[1]]
        # a tour visits every vertex exactly once
        assert sorted(res.tour) == list(range(inst.graph.n))
        assert res.tour_cost <= res.tree_cost + res.join_cost


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


def test_matching_dp_against_brute_force(zoo_instance):
    inst = zoo_instance
    d, _ = shortest_path_metric(inst)
    h = build_hierarchy(inst)
    sp = SamplerParams(sampler="mix")
    samplers = build_piece_samplers(h, sp)
    memo = {}
    checked = 0
    for trial in range(40):
        ts = sample_r0_tree(h, sp, seed=8, trial=trial, samplers=samplers)
        odd = odd_vertices(inst, ts.edges)
        if len(odd) > 10:
            continue
        cost, pairs = min_cost_perfect_matching(odd, d, memo=memo)
        assert cost == _brute_force_matching(odd, d)
        assert sorted(v for p in pairs for v in p) == sorted(odd)
        checked += 1
    assert checked > 5


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
        rp = ReductionParams(res.tau, res.gamma, res.beta, sp.effective_lambda)
        expected = float(exact_expected_join_cost(CompiledInstance(inst, sp, rp)))
        bound = (0.5 - 0.001695) * float(inst.lp_cost())
        assert expected <= bound + 1e-9, (family, expected, bound)


def test_estimate_below_bound_raises(zoo_instance):
    from htsp.errors import EstimateBelowBound

    h = build_hierarchy(zoo_instance)
    classes = classify(h)
    rp = ReductionParams.default()
    bogus = {e: 1e-6 for e in classes}
    with pytest.raises(EstimateBelowBound):
        check_eal_bounds(classes, rp, bogus)


def test_bound_check_is_exact_on_fractions_and_tolerant_on_floats(zoo_instance):
    """A ``Fraction`` one part in 10**12 below its bound is refused; a float
    that close passes, as the 1e-9 tolerance allows."""
    from htsp.errors import EstimateBelowBound

    classes = classify(build_hierarchy(zoo_instance))
    rp = ReductionParams.default()
    bound = {e: rp.coin_bound(cl.coin_kind) for e, cl in classes.items()}
    check_eal_bounds(classes, rp, bound)
    rates = coin_rates(classes, rp, bound)
    assert all(r == 1 and isinstance(r, Fraction) for r in rates.values())
    below = {e: b * (1 - Fraction(1, 10 ** 12)) for e, b in bound.items()}
    with pytest.raises(EstimateBelowBound):
        check_eal_bounds(classes, rp, below)
    check_eal_bounds(classes, rp, {e: float(b) for e, b in below.items()})
    above = {e: 2 * b for e, b in bound.items()}
    assert set(coin_rates(classes, rp, above).values()) == {Fraction(1, 2)}


@pytest.mark.parametrize("sampler", ["mi", "maxent", "mix"])
def test_exact_eal_probabilities_match_indicator_patterns(any_instance, sampler):
    """The parity-law probabilities against the indicator-pattern code they
    replaced: equal ``Fraction``s on the matroid route, floats within 1e-12."""
    from tests.reference import pattern_eal_probabilities

    h = build_hierarchy(any_instance)
    samplers = build_piece_samplers(h, SamplerParams(sampler=sampler))
    classes = classify(h)
    new = exact_eal_probabilities(eal_conditions(h, classes), classes, samplers)
    old = pattern_eal_probabilities(h, classes, samplers)
    assert sorted(new) == sorted(old)
    for e in old:
        if sampler == "mi":
            assert isinstance(new[e], Fraction) and new[e] == old[e], e
        else:
            assert abs(new[e] - old[e]) <= 1e-12, e


def test_detect_eal_matches_chunk_flags():
    """Per-tree detection and the batch chunk read one set of conditions;
    on sampled trees they flag the same edges."""
    from htsp.engine import BatchEngine

    for family in ("zoo", "k5-gadget", "nested"):
        engine = BatchEngine(family_instance(family), SamplerParams(sampler="mix"))
        trees = [
            sample_r0_tree(engine.h, engine.sp, seed=4, trial=t,
                           samplers=engine.samplers).edges
            for t in range(40)
        ]
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


def test_tour_and_batch_paths_share_the_odd_set_limit():
    from htsp.errors import OddSetTooLarge
    from htsp.generators import generate_double_cycle
    from htsp.join import ODD_SET_LIMIT
    from htsp.engine import BatchEngine

    inst = generate_double_cycle(20, np.random.default_rng(0))
    engine = BatchEngine(inst, SamplerParams(sampler="mi"))
    for k, accepted in ((ODD_SET_LIMIT, True), (ODD_SET_LIMIT + 2, False)):
        edges = _ring_edges_with_odd(inst, k)
        row = np.zeros((1, inst.graph.m), dtype=bool)
        row[0, edges] = True
        tour = lambda: integral_join_and_tour(engine, frozenset(edges))
        batch = lambda: engine._integral_costs(row)
        if accepted:
            assert tour().join_cost == Fraction(int(batch()[0]), engine.cost_denom)
        else:
            with pytest.raises(OddSetTooLarge):
                tour()
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
            pair = frozenset({seen[key], eid})
            break
        seen[key] = eid
    with pytest.raises(AssemblyError, match="not connected"):
        integral_join_and_tour(CompiledInstance(inst), pair)


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
    real = join_mod._max_flow

    def short_flow(rows, demands, cap):
        flow = real(rows, demands, cap)
        first = min(rows)
        return {(s, f): (x / 2 if s == first else x) for (s, f), x in flow.items()}

    monkeypatch.setattr(join_mod, "_max_flow", short_flow)
    with pytest.raises(FlowInfeasible, match="sum to 1/2"):
        bipartization_flow(piece, demands)


def test_coin_group_with_two_estimates_raises(zoo_instance):
    """Partner edges share one coin, so they must share one even-at-last
    estimate; a split estimate is refused with a typed error."""
    from htsp.errors import EstimateBelowBound
    from htsp.join import coin_groups

    h = build_hierarchy(zoo_instance)
    classes = classify(h)
    rp = ReductionParams.default()
    members = next(m for m in coin_groups(classes).values() if len(m) > 1)
    probs = {e: 0.9 for e in classes}
    probs[members[0]] = 0.95
    with pytest.raises(EstimateBelowBound, match="2 even-at-last estimates"):
        coin_rates(classes, rp, probs)


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
    ref_d, ref_nxt = shortest_path_metric(inst)
    n = inst.graph.n
    assert [[Fraction(int(x), ci.cost_denom) for x in row] for row in d] == ref_d
    assert {(u, v): int(nxt[u, v]) for u in range(n) for v in range(n) if u != v} == ref_nxt


@pytest.mark.parametrize("family", ["double-cycle", "k5-gadget", "nested",
                                    "random-4reg", "zoo"])
def test_integer_metric_equals_the_fraction_reference(family):
    _assert_metric_equals_reference(family_instance(family))


def test_integer_metric_equals_the_fraction_reference_on_a_long_double_cycle():
    from htsp.generators import generate_double_cycle

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
    for trial in range(200):
        ts = sample_r0_tree(engine.h, engine.sp, seed=12, trial=trial,
                            samplers=engine.samplers)
        js = build_join(engine.h, engine.classes, engine.rp, ts.edges, engine.rates,
                        np.random.default_rng(trial), engine.sites, engine.eal_conditions)
        lowered = dict(js.z)
        lowered[int(pick.integers(engine.m))] -= Fraction(1, 12)
        for z in (js.z, lowered):
            ok = verify_join(z, ts.edges, engine.h, cuts, raise_on_violation=False).ok
            assert engine_fails(engine, z, ts.edges) == (not ok)
            failed += not ok
    assert failed > 0


def test_engine_trial_check_catches_deficient_cut(zoo_instance):
    """The deficient cut of ``test_verify_join_catches_deficient_cut``:
    every charge a quarter except one edge of an odd min-cut at a sixth."""
    engine = BatchEngine(zoo_instance, SamplerParams(sampler="mi"))
    cuts = min_cuts_via_hierarchy(engine.h)
    for trial in range(50):
        ts = sample_r0_tree(engine.h, engine.sp, seed=4, trial=trial,
                            samplers=engine.samplers)
        odd_cut = next((c for c in cuts
                        if sum(1 for e in c.edge_ids if e in ts.edges) % 2 == 1), None)
        if odd_cut is not None:
            break
    z = {e: QUARTER for e in range(engine.m)}
    assert not engine_fails(engine, z, ts.edges)
    z[odd_cut.edge_ids[0]] = Fraction(1, 6)
    assert engine_fails(engine, z, ts.edges)
    assert not verify_join(z, ts.edges, engine.h, cuts, raise_on_violation=False).ok


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
    thresholds = coin_thresholds(engine.rates)
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
    cost suite's, and ``tour`` reads the run's trees."""
    monkeypatch.setattr(htsp.engine, "MAX_CHUNK", 64)
    path = str(tmp_path / f"{family}.htsp")
    assert main(["generate", "--family", family, "--seed", "3", "--out", path]) == 0
    with open(path, encoding="utf-8") as fh:
        engine = BatchEngine(parse_instance(fh.read()), SamplerParams())
    blocks = []
    run_chunk = engine._run_chunk
    monkeypatch.setattr(engine, "_run_chunk",
                        lambda T, *rest: blocks.append(T.copy()) or run_chunk(T, *rest))
    want = engine.run(150, 2, join=True)
    trees = [frozenset(np.flatnonzero(col).tolist()) for col in np.concatenate(blocks, 1).T]

    written = []
    checked_joins = BatchEngine.checked_joins

    def record(self, T, rng, first):
        z = checked_joins(self, T, rng, first)
        written.append((T.copy(), z.copy()))
        return z

    monkeypatch.setattr(BatchEngine, "checked_joins", record)
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

    read = []
    monkeypatch.setattr(htsp.cli, "integral_join_and_tour",
                        lambda ci, edges, shortcut: read.append(edges) or
                        integral_join_and_tour(ci, edges, shortcut=shortcut))
    assert main(["tour", path, "--trials", "150", "--seed", "2"]) == 0
    assert read == trees


@pytest.mark.parametrize("cmd", ["join", "tour"])
def test_join_and_tour_solve_each_odd_set_once(cmd, tmp_path, capsys, monkeypatch):
    """``htsp join`` and ``htsp tour`` solve the pairing DP once per distinct
    odd set of their trials, and a memo that empties before every miss
    writes the same bytes."""
    path = str(tmp_path / "zoo.htsp")
    assert main(["generate", "--family", "zoo", "--seed", "3", "--out", path]) == 0
    solved = []
    solve = htsp.engine.min_cost_perfect_matching
    monkeypatch.setattr(htsp.engine, "min_cost_perfect_matching",
                        lambda odd, d: solved.append(tuple(odd)) or solve(odd, d))
    capsys.readouterr()
    outputs = []
    for limit in (htsp.engine.JOIN_CACHE_LIMIT, 1):
        monkeypatch.setattr(htsp.engine, "JOIN_CACHE_LIMIT", limit)
        assert main([cmd, path, "--trials", "300", "--seed", "2"]) == 0
        outputs.append(capsys.readouterr().out)
        if limit > 1:
            assert 1 < len(solved) == len(set(solved)) < 300
    assert outputs[0] == outputs[1]
