"""Acceptance suite: the headline guarantees at their stated tolerances.

One test per criterion; each prints a single [PASS]/[FAIL] line.  Every
run is seeded, so the whole suite is reproducible bit for bit.  Budgets
follow the stated criteria: 1e5 trials for marginals and correlation
rows, 1e6 for the even-at-last table, reduction flattening, and the cost
bounds.
"""

import functools
import time
from fractions import Fraction

import numpy as np

from htsp.generators import generate_random_4reg, standalone_piece
from htsp.hierarchy import (
    build_cactus,
    build_hierarchy,
    min_cuts_via_hierarchy,
)
from htsp.join import ReductionParams
from htsp.oracle import exact_marginals
from htsp.params import (EPSILON, HALF, QUARTER, TOUR_RATIO_BOUND, coin_bounds, eal_bounds,
                         optimize)
from htsp.pipeline import SamplerParams
from htsp.engine import BatchEngine
from htsp.stats import (
    binomial_row,
    mean_and_sigma,
    sampled_row,
    suite_correlations,
)
from tests.brute_min_cuts import brute_min_cuts
from tests.conftest import ALL_FAMILIES, family_instance
from tests.reference import cactus_min_cut_shores, in_spanning_tree_polytope, interior_values
from tests.single_draws import odd_surgery, sample_matching

T_MARGINALS = 100_000
T_CORRELATIONS = 100_000
T_EAL = 1_000_000
T_COST = 1_000_000
T_SYMMETRY = 100_000
T_SURGERY = 100_000
SEED = 20_2024


@functools.cache
def optimal():
    return optimize()


@functools.cache
def optimal_reduction_params() -> ReductionParams:
    res = optimal()
    return ReductionParams(res.tau, res.gamma, res.beta)


@functools.cache
def engine(family: str, sampler: str) -> BatchEngine:
    res = optimal()
    sp = SamplerParams(sampler=sampler, mix_lambda=res.lam)
    rp = ReductionParams(res.tau, res.gamma, res.beta)
    return BatchEngine(family_instance(family), sp, rp)


@functools.cache
def eal_run(family: str, sampler: str):
    return engine(family, sampler).run(T_EAL, seed=SEED, join=True)


@functools.cache
def cost_run(family: str):
    return engine(family, "mix").run(
        T_COST, seed=SEED + 1, join=True, verify=True, integral=True
    )


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def z_score(row) -> float:
    """How many standard errors a sampled row's estimate lies from its bound."""
    return abs(row.estimate - row.bound) / row.stderr


# -- criterion 1: parameter reproduction ------------------------------------

def test_criterion_1_parameter_reproduction():
    t0 = time.time()
    res = optimize()
    elapsed = time.time() - t0
    f = res.as_floats()
    checks = {
        "lambda": (f["lambda"], 0.4715, 1e-4),
        "tau": (f["tau"], 0.0355, 1e-4),
        "gamma": (f["gamma"], 0.0401, 1e-4),
        "beta": (f["beta"], 1 / 12, 1e-4),
        "delta": (f["delta"], 0.0008475, 1e-4),
        "epsilon": (f["epsilon"], 0.001695, 2e-4),
    }
    ok = all(abs(got - want) <= tol for got, want, tol in checks.values())
    ok = ok and elapsed < 1.0
    report(
        "criterion 1 (parameter reproduction)",
        ok,
        f"lambda={f['lambda']:.5f} tau={f['tau']:.5f} gamma={f['gamma']:.5f} "
        f"beta={f['beta']:.5f} delta={f['delta']:.7f} in {elapsed:.2f}s",
    )


# -- criterion 2: marginal fidelity ------------------------------------------

def test_criterion_2_marginal_fidelity():
    rows = []
    exact_ok = True
    for family in ALL_FAMILIES:
        eng = engine(family, "mix")
        st = eng.run(T_MARGINALS, seed=SEED, join=False)
        rows += [binomial_row("marginals", "edge-in-tree", "mix", f"{family}:{e}",
                              "two-sided", HALF, int(st.incl[e]), st.trials)
                 for e in range(eng.m)]
        mi = engine(family, "mi")
        marg = exact_marginals(mi.h, mi.samplers, mi.classes)
        exact_ok = exact_ok and all(
            marg[e] == Fraction(1, 2) for e in range(mi.m)
        )
    report(
        "criterion 2 (marginal fidelity)",
        all(r.passed for r in rows) and exact_ok,
        f"worst |p-1/2| z-score {max(map(z_score, rows)):.2f} over 5 families at {T_MARGINALS} "
        f"trials; exact rational identity on the matroid route: {exact_ok}",
    )


# -- criterion 3: correlation tables ------------------------------------------

def test_criterion_3_correlation_tables():
    failures = []
    rows = 0
    for piece_name in ("c8_12", "c7bar"):
        piece = standalone_piece(piece_name)
        for sampler in ("mi", "maxent"):
            rep = suite_correlations(
                piece, sampler, T_CORRELATIONS, seed=SEED + 3,
                piece_label=piece_name,
            )
            rows += len(rep)
            failures += [
                (r.name, r.context, r.estimate, r.bound)
                for r in rep
                if not r.passed
            ]
    report(
        "criterion 3 (correlation tables)",
        not failures,
        f"{rows} rows on even/odd pieces x (mi, maxent); failures: {failures[:3]}",
    )


# -- criterion 4: even-at-last table ------------------------------------------

def test_criterion_4_eal_table():
    failures = []
    seen_kinds = set()
    # nested contributes a cycle piece below the root, whose even-at-last
    # rate is a genuine mixture rather than the root's always-even case
    for family in ("zoo", "k5-gadget", "nested"):
        for sampler in ("mi", "maxent", "mix"):
            eng = engine(family, sampler)
            st = eal_run(family, sampler)
            bounds = eal_bounds(eng.sp.sampler, eng.sp.effective_lambda)
            by_class: dict[str, list[int]] = {}
            for e, cl in eng.classes.items():
                by_class.setdefault(cl.kind, []).append(e)
            for kind, edges in by_class.items():
                seen_kinds.add(kind)
                for e in edges:
                    row = binomial_row("eal", kind, sampler, f"{family}:{e}", "lower",
                                       bounds[eng.classes[e].coin_kind], int(st.eal[e]),
                                       st.trials)
                    if not row.passed:
                        failures.append((family, sampler, kind, e, row.estimate))
    needed = {"special", "half-special", "other-degree", "k5-degree", "cycle"}
    report(
        "criterion 4 (even-at-last table)",
        not failures and needed <= seen_kinds,
        f"classes {sorted(seen_kinds)} at {T_EAL} trials; failures: {failures[:3]}",
    )


# -- criterion 5: reduction flattening ----------------------------------------

def test_criterion_5_reduction_flattening():
    failures = []
    floor = float(optimal().delta)
    net_failures = []
    for family in ("zoo", "k5-gadget", "nested"):
        eng = engine(family, "mix")
        st = eal_run(family, "mix")
        bounds = coin_bounds(eng.sp.effective_lambda)
        targets = {
            "special": bounds["special"],
            "half-special": bounds["half-special"],
            "other-degree": bounds["other"],
            "k5-degree": bounds["other"],
            "cycle": bounds["other"],
        }
        for e, cl in eng.classes.items():
            row = binomial_row("reduction", cl.kind, "mix", f"{family}:{e}", "two-sided",
                               targets[cl.kind], int(st.reduced[e]), st.trials)
            if not row.passed:
                failures.append((family, e, cl.kind, row.estimate))
        # every edge's mean net decrease clears the optimized floor
        for e in range(eng.m):
            mean_z, sigma = mean_and_sigma(st.z_sum[e], st.z_sumsq[e], st.trials,
                                           1 / st.z_denom)
            row = sampled_row("reduction", "net-decrease", "mix", f"{family}:{e}", "lower",
                              floor, float(QUARTER) - mean_z, sigma, st.trials)
            if not row.passed:
                net_failures.append((family, e, row.estimate))
    report(
        "criterion 5 (reduction flattening)",
        not failures and not net_failures,
        f"per-edge reduction rates match the flattened targets and net "
        f"decreases clear delta={floor:.7f} at {T_EAL} trials; "
        f"failures: {(failures + net_failures)[:3]}",
    )


# -- criterion 6: join feasibility ---------------------------------------------

def test_criterion_6_join_feasibility():
    total_failures = 0
    total_trials = 0
    cuts_ok = True
    for family in ALL_FAMILIES:
        st = cost_run(family)
        total_failures += st.feasibility_failures
        total_trials += st.trials
        inst = family_instance(family)
        h = engine(family, "mix").h
        brute = {frozenset(c.edge_ids) for c in brute_min_cuts(inst.graph)}
        via = {frozenset(c.edge_ids) for c in min_cuts_via_hierarchy(h)}
        cuts_ok = cuts_ok and via == brute
    report(
        "criterion 6 (join feasibility)",
        total_failures == 0 and cuts_ok,
        f"{total_failures}/{total_trials} infeasible joins across 5 families; "
        f"min-cut lists match brute force: {cuts_ok}",
    )


# -- criterion 7: cost bound ----------------------------------------------------

def test_criterion_7_cost_bound():
    failures = []
    details = []
    for family in ALL_FAMILIES:
        eng = engine(family, "mix")
        st = cost_run(family)
        cx = float(eng.lp_cost)
        zc_mean, zc_sig = mean_and_sigma(
            st.zc_sum, st.zc_sumsq, st.trials,
            1.0 / (st.z_denom * st.cost_denom),
        )
        frac = sampled_row("cost", "fractional-join-cost", "mix", family, "upper",
                           (float(HALF) - EPSILON) * cx, zc_mean, zc_sig, st.trials)
        tot_mean, tot_sig = mean_and_sigma(
            st.total_sum, st.total_sumsq, st.trials, 1.0 / st.cost_denom
        )
        tot = sampled_row("cost", "tree-plus-join-cost", "mix", family, "upper",
                          TOUR_RATIO_BOUND * cx, tot_mean, tot_sig, st.trials)
        details.append(
            f"{family}: frac slack {frac.slack / cx:+.2e}, "
            f"ratio {tot_mean / cx:.4f} (slack {tot.slack / cx:+.4f})"
        )
        if not (frac.passed and tot.passed):
            failures.append(family)
    report(
        "criterion 7 (cost bound)",
        not failures,
        f"{T_COST} trials/instance; " + "; ".join(details),
    )


# -- criterion 8: structure oracle -----------------------------------------------

def test_criterion_8_structure_oracle():
    rng = np.random.default_rng(SEED + 8)
    bad = 0
    for i in range(50):
        n = int(rng.integers(8, 15))
        inst = generate_random_4reg(n, rng)
        h = build_hierarchy(inst)
        brute_cuts = {frozenset(c.edge_ids) for c in brute_min_cuts(inst.graph)}
        via = {frozenset(c.edge_ids) for c in min_cuts_via_hierarchy(h)}
        cactus = build_cactus(h)
        shores = cactus_min_cut_shores(cactus, inst.graph.n)
        brute_shores = {c.shore for c in brute_min_cuts(inst.graph)}
        if via != brute_cuts or shores != brute_shores:
            bad += 1
    report(
        "criterion 8 (structure oracle)",
        bad == 0,
        f"hierarchy and cactus reproduce brute-force min-cuts on 50 random "
        f"instances (n <= 14); mismatches: {bad}",
    )


# -- criterion 9: odd-surgery properties ------------------------------------------

def test_criterion_9_odd_surgery():
    from htsp.matching import decompose_matchings, pairings_of, split_external, surgery_options
    from tests.reference import apply_surgery

    piece = standalone_piece("c7bar")
    rng = np.random.default_rng(SEED + 9)
    sums: dict[int, float] = {}
    sumsq: dict[int, float] = {}
    dists = {}
    for idx, pairing in enumerate(pairings_of(piece.external_edge_ids)):
        sp = split_external(piece, pairing)
        dists[idx] = (sp, decompose_matchings(sp))
    for _ in range(T_SURGERY):
        idx = int(rng.integers(0, 3))
        sp, dist = dists[idx]
        mk = sample_matching(dist, rng)
        sh = odd_surgery(sp, mk, 0, rng)
        for e, v in interior_values(sh).items():
            x = float(v)
            sums[e] = sums.get(e, 0.0) + x
            sumsq[e] = sumsq.get(e, 0.0) + x * x
    rows = []
    for e, s in sums.items():
        mean = s / T_SURGERY
        var = max(sumsq[e] / T_SURGERY - mean * mean, 1e-12)
        rows.append(sampled_row("surgery", "interior-value", "mi", f"edge:{e}", "two-sided",
                                HALF, mean, (var / T_SURGERY) ** 0.5, T_SURGERY))
    # exhaustive polytope membership over every surgery branch
    member_ok = True
    for idx in range(3):
        sp, dist = dists[idx]
        for mk in dist.masks:
            for kind, e, f, _ in surgery_options(sp, mk):
                sh = apply_surgery(sp, mk, 0, kind, e, f)
                if not in_spanning_tree_polytope(sh.interior_graph,
                                                 interior_values(sh)):
                    member_ok = False
    report(
        "criterion 9 (odd-surgery properties)",
        all(r.passed for r in rows) and member_ok,
        f"worst |E[y]-1/2| z-score {max(map(z_score, rows)):.2f} over {T_SURGERY} surgeries; "
        f"polytope membership on every branch: {member_ok}",
    )


# -- criterion 10: symmetry invariant ----------------------------------------------

def test_criterion_10_symmetry():
    failures = []
    for family in ("zoo", "random-4reg"):
        eng = engine(family, "mix")
        rng = np.random.default_rng(SEED + 10)
        pairs = set()
        while len(pairs) < 20:
            a, b = sorted(map(int, rng.choice(eng.m, size=2, replace=False)))
            if a != b:
                pairs.add((a, b))
        st = eng.run(T_SYMMETRY, seed=SEED + 11, join=False,
                     symmetry_pairs=sorted(pairs))
        for (a, b), c in st.sym_counts.items():
            n00, n01, n10, n11 = (int(x) for x in c)
            for x, y in ((n00, n11), (n01, n10)):
                px, py = x / st.trials, y / st.trials
                # px and py count disjoint outcomes of one multinomial draw
                var = max(px + py - (px - py) ** 2, 1e-12) / st.trials
                row = sampled_row("symmetry", "swap", "mix", f"{family}:{a},{b}", "two-sided",
                                  0.0, px - py, var ** 0.5, st.trials)
                if not row.passed:
                    failures.append((family, a, b, px, py))
    report(
        "criterion 10 (symmetry invariant)",
        not failures,
        f"20 edge pairs x 2 instances at {T_SYMMETRY} trials; "
        f"failures: {failures[:3]}",
    )
