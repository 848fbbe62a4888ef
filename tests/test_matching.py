from fractions import Fraction

import numpy as np
import pytest

from htsp.errors import InfeasibleShift, NoPerfectMatching
from htsp.generators import standalone_piece
from htsp.graph import MultiGraph
import htsp.matching as matching
from htsp.matching import (
    MatchingDistribution,
    SplitPiece,
    _parts_from_submatching,
    decompose_matchings,
    enumerate_perfect_matchings,
    pairings_of,
    seven_coloring,
    split_external,
    surgery_options,
)
from tests.reference import (apply_surgery, edge_ids_of, in_spanning_tree_polytope,
                             interior_values, odd_set_lower_constraints, part_sums, shift,
                             state_values)
from tests.single_draws import odd_split, odd_surgery, sample_matching, select_submatching

QUARTER = Fraction(1, 4)
THIRD = Fraction(1, 3)


def four_parallel_piece():
    g = MultiGraph(2, [(i, 0, 1) for i in range(4)])
    from htsp.hierarchy import LocalMultigraph

    return LocalMultigraph(g, 1, (None, None))


def test_four_parallel_edges_uniform():
    dist = decompose_matchings(four_parallel_piece())
    assert len(dist.masks) == 4
    assert all(w == QUARTER for w in dist.weights)


def test_k44_quarter_mass_identity():
    piece = standalone_piece("k44")
    dist = decompose_matchings(piece)
    # the distribution asserts per-edge mass 1/4 on construction
    assert sum(dist.weights, Fraction(0)) == 1
    assert len(enumerate_perfect_matchings(piece.graph)) == 24


def test_split_piece_matchings_cross_zero_or_two():
    piece = standalone_piece("c7bar")
    for pairing in pairings_of(piece.external_edge_ids):
        sp = split_external(piece, pairing)
        dist = decompose_matchings(sp)
        for mk in dist.masks:
            ids = edge_ids_of(dist, mk)
            assert len(ids & set(sp.interior_cut_ids)) in (0, 2)


def test_sample_matching_frequencies():
    piece = standalone_piece("octahedron")
    dist = decompose_matchings(piece)
    rng = np.random.default_rng(5)
    n = 100_000
    counts = {mk: 0 for mk in dist.masks}
    for _ in range(n):
        counts[sample_matching(dist, rng)] += 1
    for mk, w in zip(dist.masks, dist.weights):
        p = float(w)
        sd = max((p * (1 - p) / n) ** 0.5, 1e-9)
        assert abs(counts[mk] / n - p) <= 4 * sd


def test_sample_matching_degenerate_and_reproducible():
    g = MultiGraph(2, [(0, 0, 1), (1, 0, 1)])
    dist = MatchingDistribution(g, (0b01, 0b10), (Fraction(1, 2), Fraction(1, 2)))
    one = MatchingDistribution(g, (0b01,), (Fraction(1),))
    rng = np.random.default_rng(0)
    assert all(sample_matching(one, rng) == 0b01 for _ in range(10))
    a = [sample_matching(dist, np.random.default_rng(7)) for _ in range(5)]
    b = [sample_matching(dist, np.random.default_rng(7)) for _ in range(5)]
    assert a == b


def test_seven_coloring_induced_property():
    piece = standalone_piece("c8_12")
    dist = decompose_matchings(piece)
    g = piece.graph
    for mk in dist.masks:
        classes = seven_coloring(g, mk)
        assert len(classes) == 7
        owner = {}
        for i in range(g.m):
            if (mk >> i) & 1:
                u, v = g.endpoints[i]
                owner[u] = i
                owner[v] = i
        for cls in classes:
            chosen = set(cls)
            # no edge of the piece is adjacent to two chosen matching edges
            for j in range(g.m):
                if j in chosen:
                    continue
                u, v = g.endpoints[j]
                a, b = owner[u], owner[v]
                if a != b:
                    assert not (a in chosen and b in chosen)


def test_submatching_rate_one_seventh():
    piece = standalone_piece("octahedron")
    dist = decompose_matchings(piece)
    g = piece.graph
    mk = dist.masks[0]
    rng = np.random.default_rng(11)
    n = 70_000
    matched = [i for i in range(g.m) if (mk >> i) & 1]
    hits = {i: 0 for i in matched}
    for _ in range(n):
        sub = select_submatching(piece, mk, rng)
        for i in matched:
            if (sub >> i) & 1:
                hits[i] += 1
    for i in matched:
        p = hits[i] / n
        sd = (p * (1 - p) / n) ** 0.5 if 0 < p < 1 else 1e-3
        assert abs(p - 1 / 7) <= 4 * max(sd, 1e-4)


def test_single_matched_edge_one_class_in_seven():
    piece = four_parallel_piece()
    rng = np.random.default_rng(2)
    n = 70_000
    got = 0
    for _ in range(n):
        if select_submatching(piece, 0b0001, rng):
            got += 1
    p = got / n
    sd = (p * (1 - p) / n) ** 0.5
    assert abs(p - 1 / 7) <= 4 * sd


def test_shift_values_and_parts():
    piece = standalone_piece("c8_12")
    dist = decompose_matchings(piece)
    g = piece.graph
    rng = np.random.default_rng(1)
    mk = dist.masks[0]
    sub = select_submatching(piece, mk, rng)
    sh = shift(piece, mk, sub)
    # every vertex carries total shifted value two
    for v in range(g.n):
        assert sum(state_values(sh)[e] for e in g.incident_ids(v)) == 2
    # every proper cut keeps shifted value at least two
    import itertools

    for size in range(2, g.n - 1):
        for sub_v in itertools.combinations(range(g.n), size):
            s = set(sub_v)
            tot = sum(
                state_values(sh)[eid]
                for eid, (u, v) in zip(g.edge_ids, g.endpoints)
                if (u in s) != (v in s)
            )
            assert tot >= 2
    for part, total in zip(sh.parts, part_sums(sh)):
        assert len(part) <= 3 and total <= 1
    assert in_spanning_tree_polytope(sh.interior_graph, interior_values(sh))


def test_shift_expectation_is_half():
    piece = standalone_piece("octahedron")
    dist = decompose_matchings(piece)
    acc = {eid: Fraction(0) for eid in piece.graph.edge_ids}
    for mk, w in zip(dist.masks, dist.weights):
        sh = shift(piece, mk, 0)
        for eid, val in state_values(sh).items():
            acc[eid] += w * val
    assert all(v == Fraction(1, 2) for v in acc.values())


def test_odd_split_shape():
    piece = standalone_piece("c7bar")
    rng = np.random.default_rng(0)
    sp = odd_split(piece, rng)
    g = sp.graph
    assert g.n == piece.graph.n + 1
    assert all(d == 4 for d in g.degrees())
    cut = [e for e in sp.interior_cut_ids]
    assert len(cut) == 4
    # the interior cut has value four in the split graph
    interior = set(range(sp.interior_vertex_count))
    crossing = [
        eid
        for eid, (u, v) in zip(g.edge_ids, g.endpoints)
        if (u in interior) != (v in interior)
    ]
    assert sorted(crossing) == sorted(cut)


def test_odd_surgery_interior_sums():
    piece = standalone_piece("c7bar")
    k = piece.graph.n - 1
    for pairing in pairings_of(piece.external_edge_ids):
        sp = split_external(piece, pairing)
        dist = decompose_matchings(sp)
        for mk in dist.masks:
            for kind, e, f, _ in surgery_options(sp, mk):
                sh = apply_surgery(sp, mk, 0, kind, e, f)
                assert sum(interior_values(sh).values()) == k - 1
                assert in_spanning_tree_polytope(
                    sh.interior_graph, interior_values(sh)
                )


def test_odd_surgery_marginal_preserving_exact():
    """The expected post-surgery value of every interior edge is one half,
    as an exact rational identity over all branches."""
    piece = standalone_piece("c7bar")
    acc: dict[int, Fraction] = {}
    for pairing in pairings_of(piece.external_edge_ids):
        sp = split_external(piece, pairing)
        dist = decompose_matchings(sp)
        for mk, w in zip(dist.masks, dist.weights):
            for kind, e, f, pb in surgery_options(sp, mk):
                sh = apply_surgery(sp, mk, 0, kind, e, f)
                pr = Fraction(1, 3) * w * pb
                for eid, val in interior_values(sh).items():
                    acc[eid] = acc.get(eid, Fraction(0)) + pr * val
    assert all(v == Fraction(1, 2) for v in acc.values())


def test_odd_surgery_part_invariant():
    piece = standalone_piece("c7bar")
    rng = np.random.default_rng(9)
    for _ in range(200):
        sp = odd_split(piece, rng)
        dist = decompose_matchings(sp)
        mk = sample_matching(dist, rng)
        sub = select_submatching(sp, mk, rng)
        sh = odd_surgery(sp, mk, sub, rng)
        for part, total in zip(sh.parts, part_sums(sh)):
            assert len(part) <= 3
            assert total <= 1
        surgery = sh.surgery
        assert surgery[0] in ("decrease", "increase")


def test_odd_set_rows_equal_the_one_set_at_a_time_listing():
    """The odd-set rows of every graph whose matchings a compile decomposes
    (an even piece's graph, an odd piece's three split graphs), on the
    conftest families and random-4reg at n = 12, generator seeds 0-3, are
    the rows of the one-set-at-a-time listing, in its order."""
    from tests.conftest import ALL_FAMILIES
    from tests.test_compiled_digests import instance
    from tests.test_pipeline import degree_pieces

    pieces = [piece for name in [*ALL_FAMILIES, *(f"random-4reg-12-{s}" for s in range(4))]
              for piece in degree_pieces(instance(name))]
    graphs = [piece.graph if sp is None else sp.graph
              for piece in pieces for sp, _ in piece.split_matchings]
    # four even pieces and four odd ones, with three split graphs each
    assert sorted(p.graph.n % 2 for p in pieces) == [0] * 4 + [1] * 4 and len(graphs) == 16
    for g in graphs:
        assert matching._odd_set_lower_constraints(g) == odd_set_lower_constraints(g)


@pytest.mark.parametrize("weights, match", [
    ((Fraction(5, 4), Fraction(-1, 4), QUARTER, QUARTER), "positive"),
    ((QUARTER, QUARTER, QUARTER, Fraction(1, 8)), "sum to 1"),
    ((Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)), "mass"),
])
def test_corrupted_matching_distribution_raises(weights, match):
    piece = four_parallel_piece()
    masks = tuple(1 << i for i in range(4))
    with pytest.raises(NoPerfectMatching, match=match):
        MatchingDistribution(piece.graph, masks, weights)


# ---------------------------------------------------------------------------
# surgery invariants: each broken one raises InfeasibleShift, also under -O
# ---------------------------------------------------------------------------

def _c7bar_case(kind: str, part_len: int):
    """(split, matching, submatching, trigger, adjusted, home part) of a
    c7bar surgery branch of ``kind`` whose adjusted edge lies in a part of
    ``part_len`` edges (``()`` as the part for 0)."""
    piece = standalone_piece("c7bar")
    for pairing in pairings_of(piece.external_edge_ids):
        sp = split_external(piece, pairing)
        internal = set(sp.internal_edge_ids())
        for mk in decompose_matchings(sp).masks:
            for cls in seven_coloring(sp.graph, mk):
                sub = sum(1 << i for i in cls)
                parts = _parts_from_submatching(sp.graph, internal, sub)
                for k, e, f, _ in surgery_options(sp, mk):
                    home = next((p for p in parts if f in p), ())
                    if k == kind and len(home) == part_len:
                        return sp, mk, sub, e, f, home
    raise LookupError((kind, part_len))


class _NoInternalEdges(SplitPiece):
    def internal_edge_ids(self) -> list[int]:
        return []


def _one_cut_crossing():
    sp, mk, *_ = _c7bar_case("increase", 0)
    matched_cut = [i for i in range(sp.graph.m) if (mk >> i) & 1
                   and sp.graph.edge_ids[i] in sp.interior_cut_ids]
    surgery_options(sp, mk & ~(1 << matched_cut[0]))


def _boundary_without_internal_edges():
    sp, mk, *_ = _c7bar_case("decrease", 0)
    bare = _NoInternalEdges(sp.base, sp.graph, sp.pairing, sp.interior_cut_ids)
    surgery_options(bare, mk)


def _drop_the_adjusted_edge():
    sp, mk, sub, e, f, _ = _c7bar_case("increase", 3)
    apply_surgery(sp, mk, sub, "increase", e, f, dropped=f)


def _drop_from_a_two_edge_part():
    sp, mk, sub, e, f, home = _c7bar_case("increase", 2)
    apply_surgery(sp, mk, sub, "increase", e, f, dropped=home[0])


def _mixed_branch_kinds():
    sp, mk, *_ = _c7bar_case("decrease", 0)
    options = matching.surgery_options
    matching.surgery_options = lambda split, mask: (
        options(split, mask) + [("increase", 0, 0, Fraction(0))]
    )
    try:
        odd_surgery(sp, mk, 0, np.random.default_rng(0))
    finally:
        matching.surgery_options = options


SURGERY_FAULTS = {
    "one-cut-crossing": _one_cut_crossing,
    "boundary-without-internal-edges": _boundary_without_internal_edges,
    "drop-the-adjusted-edge": _drop_the_adjusted_edge,
    "drop-from-a-two-edge-part": _drop_from_a_two_edge_part,
    "mixed-branch-kinds": _mixed_branch_kinds,
}


@pytest.mark.parametrize("fault", sorted(SURGERY_FAULTS))
def test_broken_surgery_invariant_raises(fault):
    with pytest.raises(InfeasibleShift):
        SURGERY_FAULTS[fault]()


def test_surgery_checks_survive_python_O():
    """Under ``python -O`` every broken surgery invariant still raises."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    script = """
from htsp.errors import InfeasibleShift
from tests.test_matching import SURGERY_FAULTS

try:
    assert False
except AssertionError:
    raise SystemExit("assertions are on")
for name, fault in SURGERY_FAULTS.items():
    try:
        fault()
    except InfeasibleShift:
        print(name)
"""
    env = {"PATH": "", "PYTHONPATH": f"{root / 'src'}:{root}"}
    out = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == list(SURGERY_FAULTS)
