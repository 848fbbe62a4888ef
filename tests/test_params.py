from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htsp import params
from htsp.errors import LpFailure
from htsp.params import (
    _quantize,
    decrease_forms,
    mixed_rates,
    optimize,
    solve_amounts,
)
from tests import reference
from tests.reference import grid_oracle

PUBLISHED = {
    "lambda": 0.4715,
    "tau": 0.0355,
    "gamma": 0.0401,
    "beta": 1 / 12,
    "delta": 0.0008475,
    "epsilon": 0.001695,
}


def test_optimize_reproduces_published_values():
    res = optimize()
    f = res.as_floats()
    assert abs(f["lambda"] - PUBLISHED["lambda"]) <= 1e-4
    assert abs(f["tau"] - PUBLISHED["tau"]) <= 1e-4
    assert abs(f["gamma"] - PUBLISHED["gamma"]) <= 1e-4
    assert abs(f["beta"] - PUBLISHED["beta"]) <= 1e-4
    assert abs(f["delta"] - PUBLISHED["delta"]) <= 1e-4
    assert abs(f["epsilon"] - PUBLISHED["epsilon"]) <= 2e-4


def test_optimize_runs_fast():
    import time

    t0 = time.time()
    optimize()
    assert time.time() - t0 < 1.0


def test_epsilon_is_twice_delta():
    res = optimize()
    assert res.epsilon == 2 * res.delta


def test_binding_constraints_reported():
    res = optimize()
    assert any(name.startswith("form:") for name in res.binding)
    assert "beta<=cap" in res.binding


def test_lp_against_grid_oracle_at_extremes():
    best = float(optimize().delta)
    for lam in (Fraction(0), Fraction(1)):
        sol = solve_amounts(lam)
        grid = grid_oracle(lam)
        # the grid maximum is feasible, so it can only sit below the LP value
        assert grid <= float(sol.delta) + 1e-12
        assert float(sol.delta) - grid <= 1e-3
        # the optimum over the mix dominates both endpoints
        assert float(sol.delta) <= best + 1e-12


def test_case_list_is_complete():
    forms = decrease_forms(Fraction(1, 2))
    assert len(forms) == 11
    names = [n for n, _ in forms]
    assert sum(1 for n in names if n.startswith("cycle/")) == 4
    assert sum(1 for n in names if n.startswith("nonspecial/")) == 3
    assert sum(1 for n in names if n.startswith("k5/")) == 3
    assert sum(1 for n in names if n.startswith("special/")) == 1


def test_dominated_cycle_case_is_dominated():
    # the all-internal-cycle-parent case can never be the unique minimum
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        forms = dict(decrease_forms(lam))
        end_pair = forms["cycle/end-pair-sources"]
        dominated = forms["cycle/all-internal-cycle-parent"]
        # both are multiples of beta; the dominated one is twice as large
        assert dominated[2] == 2 * end_pair[2]


def test_mixed_rates_interpolate():
    p0, p_sp0, p_hs0 = mixed_rates(Fraction(0))
    p1, p_sp1, p_hs1 = mixed_rates(Fraction(1))
    assert (p0, p_sp0, p_hs0) == (Fraction(1, 18), Fraction(1, 36), Fraction(1, 21))
    assert (p1, p_sp1) == (Fraction(1, 12), Fraction(128, 6561))
    assert p_hs1 == Fraction(1, 12)
    pm, _, _ = mixed_rates(Fraction(1, 2))
    assert pm == (Fraction(1, 12) + Fraction(1, 18)) / 2


def test_bounds_are_read_by_coin_kind_at_a_mix():
    """The coin bounds are the mixed rates by coin kind; the even-at-last
    bounds are the route's table on a pure route and the coin bounds on
    the mix.  The matroid route's table is the mix at 0, and the
    max-entropy one differs from the mix at 1 only on half-special coins."""
    lam = Fraction(4715, 10000)
    assert params.coin_bounds(lam) == dict(zip(("other", "special", "half-special"),
                                              mixed_rates(lam)))
    assert params.eal_bounds("mix", lam) == params.coin_bounds(lam)
    assert params.eal_bounds("mi", Fraction(0)) == params.coin_bounds(Fraction(0))
    maxent, at_one = params.eal_bounds("maxent", Fraction(1)), params.coin_bounds(Fraction(1))
    assert {k for k in maxent if maxent[k] != at_one[k]} == {"half-special"}


def test_solve_amounts_respects_constraints():
    for lam in (Fraction(0), Fraction(4715, 10000), Fraction(1)):
        sol = solve_amounts(lam)
        assert 0 <= sol.tau <= sol.gamma <= sol.beta <= Fraction(1, 12)
        assert sol.beta >= 2 * sol.tau and sol.beta >= 2 * sol.gamma
        # delta equals the smallest decrease form at the solution
        vals = [
            ct * sol.tau + cg * sol.gamma + cb * sol.beta
            for _, (ct, cg, cb) in decrease_forms(lam)
        ]
        assert min(vals) == sol.delta


def _visited_mixes(monkeypatch) -> list[Fraction]:
    """Every mix ``optimize()`` searches or solves at, in call order; each
    searched delta is checked against ``solve_amounts`` on the way."""
    seen: list[Fraction] = []
    search, solve = params._optimal_delta, params.solve_amounts

    def searched(lam, known):
        seen.append(Fraction(lam))
        delta = search(lam, known)
        assert delta == solve(lam).delta
        return delta

    def solved(lam):
        seen.append(Fraction(lam))
        return solve(lam)

    monkeypatch.setattr(params, "_optimal_delta", searched)
    monkeypatch.setattr(params, "solve_amounts", solved)
    optimize()
    monkeypatch.undo()
    return seen


def test_solve_amounts_equals_the_reference_where_optimize_looks(monkeypatch):
    # the closed-form screen and integer certificate give the LAPACK and
    # Fraction Gauss-Jordan solver's answer, tie-break and binding included;
    # at every mix searched, the certified delta is that answer's delta
    grid = [_quantize(x) for x in np.arange(0.0, 1.0 + 1e-12, 0.02)]
    visited = _visited_mixes(monkeypatch)
    assert len(grid) == 51 and len(visited) == 72
    for lam in [*grid, *visited, Fraction(0), Fraction(1), Fraction(4715, 10000)]:
        assert solve_amounts(lam) == reference.solve_amounts(lam)


#: the bases certified across the examples of the property below
_SHARED_BASES: list[list[int]] = []


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 7).flatmap(
    lambda d: st.tuples(st.integers(0, d), st.just(d))))
def test_certified_delta_is_the_optimum(nd):
    # a basis certified at one mix is tried at every later one: it is
    # accepted only where duality proves it optimal
    lam = Fraction(*nd)
    assert params._optimal_delta(lam, _SHARED_BASES) == solve_amounts(lam).delta


def _reference_vertices(lam: Fraction) -> list[tuple[list[int], list[Fraction]]]:
    """Every basis with a feasible vertex at mix lam, and that vertex."""
    cons = params._constraints(lam)
    out = []
    for combo in params._bases(len(cons)).tolist():
        x = reference._solve4([cons[i][1] for i in combo], [cons[i][2] for i in combo])
        if x is not None and all(
                sum(c * v for c, v in zip(coefs, x)) <= b for _, coefs, b in cons):
            out.append((combo, x))
    return out


def test_a_feasible_basis_that_is_not_optimal_is_refused():
    # only the dual multipliers tell these apart from an optimal basis
    half = Fraction(1, 2)
    best = solve_amounts(half).delta
    rows = params._integer_rows(half).tolist()
    suboptimal = [combo for combo, x in _reference_vertices(half) if x[3] < best]
    assert suboptimal
    for combo in suboptimal:
        assert params._certify(rows, combo) is None
    known = [suboptimal[0]]
    assert params._optimal_delta(half, known) == best
    assert len(known) == 2 and params._certify(rows, known[1]) == best


def test_the_certificate_does_not_depend_on_the_determinant_sign():
    # swapping two rows of a basis flips the sign of its determinant
    half = Fraction(1, 2)
    rows = params._integer_rows(half).tolist()
    known: list[list[int]] = []
    best = params._optimal_delta(half, known)
    (basis,) = known
    swapped = [basis[1], basis[0], *basis[2:]]
    assert params._certify(rows, basis) == params._certify(rows, swapped) == best


def test_optimize_screens_a_few_mixes_and_keeps_no_basis(monkeypatch):
    calls = []
    real = params._screen
    monkeypatch.setattr(params, "_screen", lambda lam, rows: calls.append(lam) or real(lam, rows))
    first = optimize()
    screened = calls[:]
    calls.clear()
    # the search starts from no known basis, so it screens its first mix,
    # and a second search screens the same mixes again
    assert screened[0] == 0 and len(screened) <= 8
    assert optimize() == first and calls == screened


def test_tie_break_is_the_first_optimal_basis():
    # at the default mix the optimal face is an edge whose two vertices
    # differ in gamma; the first basis in combinations order is reported
    lam = Fraction(4715, 10000)
    feasible = [x for _, x in _reference_vertices(lam)]
    best = max(x[3] for x in feasible)
    optima = [x for x in feasible if x[3] == best]
    assert len({tuple(x) for x in optima}) == len({x[1] for x in optima}) == 2
    sol = solve_amounts(lam)
    assert [sol.tau, sol.gamma, sol.beta, sol.delta] == optima[0]


def test_empty_feasible_region_raises(monkeypatch):
    real = params._constraints
    zero, one = Fraction(0), Fraction(1)
    # tau >= 1 against beta <= 1/12 and tau <= gamma <= beta
    monkeypatch.setattr(params, "_constraints", lambda lam: [
        *real(lam), ("tau>=1", (-one, zero, zero, zero), -one)])
    params._affine_rows.cache_clear()
    try:
        with pytest.raises(LpFailure, match="feasible region is empty"):
            solve_amounts(Fraction(1, 2))
        with pytest.raises(LpFailure, match="feasible region is empty"):
            params._optimal_delta(Fraction(1, 2), [])
    finally:
        monkeypatch.undo()
        params._affine_rows.cache_clear()
    assert solve_amounts(Fraction(1, 2)) == reference.solve_amounts(Fraction(1, 2))
