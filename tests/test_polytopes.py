import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from posetdegen import polytopes
from posetdegen import (
    antichain_poset,
    build_polytope,
    build_poset,
    chain_poset,
    chain_structure,
    check_normality,
    ehrhart_values,
    order_structure,
    validate_relative_structure,
)
from posetdegen.errors import InternalClosureFailure, TheoremViolation
from posetdegen.lattice import IdealLattice
from posetdegen.polytopes import (
    indicator,
    pack_bits,
    packed_dilation,
    packed_multichains,
    unpack,
)
from posetdegen.posets import RelativeStructure

from conftest import (
    NotALatticePoint,
    canonical_triangulation,
    decompose_point,
    lattice_points,
    max_antichain,
    naive_check_normality,
    naive_multichain_points,
    nth_finite_difference,
    point_in_dilation,
    recompose,
    small_poset_corpus,
    transfer_map,
    valid_weak_structures,
)


def grid22():
    return build_poset(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


def grid23():
    elements = [f"p{i}.{j}" for i in (1, 2) for j in (3, 4, 5)]
    covers = [
        ("p1.3", "p1.4"), ("p1.4", "p1.5"), ("p2.3", "p2.4"), ("p2.4", "p2.5"),
        ("p1.3", "p2.3"), ("p1.4", "p2.4"), ("p1.5", "p2.5"),
    ]
    return build_poset(elements, covers)


def test_unit_square_vertices():
    for kind in ("order", "chain", "relative"):
        poly = build_polytope(order_structure(antichain_poset(["a", "b"])), kind)
        assert sorted(poly.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_relative_trivial_equals_order_and_chain_extremes():
    for poset in small_poset_corpus(4):
        s_order = order_structure(poset)
        s_chain = chain_structure(poset)
        assert build_polytope(s_order, "relative").vertices == build_polytope(
            s_order, "order"
        ).vertices
        assert build_polytope(s_chain, "relative").vertices == build_polytope(
            s_chain, "chain"
        ).vertices


def test_triangulation_chain_single_simplex():
    s = order_structure(chain_poset(["a", "b", "c"]))
    assert len(canonical_triangulation(s)) == 1


def test_triangulation_counts_grids():
    assert len(canonical_triangulation(order_structure(grid22()))) == 2
    assert len(canonical_triangulation(chain_structure(grid23()))) == 5


def test_triangulation_unimodular_and_volume_accounting():
    # simplices are unimodular and their count equals the Ehrhart leading
    # term n! * vol, computed independently by finite differences
    for poset in small_poset_corpus(4):
        for s in valid_weak_structures(poset):
            tri = canonical_triangulation(s)
            assert all(t.is_unimodular() for t in tri)
            values = ehrhart_values(s, poset.n)
            assert nth_finite_difference(values) == len(tri)


def test_triangulation_covers_dilation_two():
    for poset in small_poset_corpus(3):
        for s in valid_weak_structures(poset):
            tri = canonical_triangulation(s)
            for point in lattice_points(s, 2):
                assert any(t.barycentric(point, 2) is not None for t in tri)


def test_lattice_points_m0_m1():
    for poset in small_poset_corpus(4):
        s = chain_structure(poset)
        assert lattice_points(s, 0) == frozenset({(0,) * poset.n})
        assert lattice_points(s, 1) == frozenset(build_polytope(s, "relative").vertices)


def test_lattice_points_chain2_dilation2():
    s = order_structure(chain_poset(["a", "b"]))
    assert len(lattice_points(s, 2)) == 6


def test_lattice_points_against_box_oracle():
    # membership oracle: x in m*R iff x lies in m*Delta for some linearization
    for poset in small_poset_corpus(3):
        for s in valid_weak_structures(poset):
            tri = canonical_triangulation(s)
            for m in (1, 2, 3):
                expected = {
                    pt
                    for pt in product(range(m + 1), repeat=poset.n)
                    if point_in_dilation(pt, m, s, tri)
                }
                assert lattice_points(s, m) == expected


def test_ehrhart_examples():
    chain2 = order_structure(chain_poset(["a", "b"]))
    assert ehrhart_values(chain2, 3) == [1, 3, 6, 10]
    square = order_structure(antichain_poset(["a", "b"]))
    assert ehrhart_values(square, 4) == [(m + 1) ** 2 for m in range(5)]
    p2 = order_structure(grid22())
    assert ehrhart_values(p2, 1)[1] == 6  # binomial(4, 2)


def test_ehrhart_walk_matches_a_fresh_count_per_dilation():
    # the per-dilation multichain DP is the oracle of the one-walk recurrence
    for poset in small_poset_corpus(4):
        for s in valid_weak_structures(poset):
            assert ehrhart_values(s, 8) == [s.lattice.multichain_count(m) for m in range(9)]


def test_ehrhart_takes_one_zeta_walk_per_dilation(monkeypatch):
    # a fresh DP per dilation would take 0 + 1 + ... + 49 = 1225 walks
    walks = []
    real = IdealLattice.zeta_walk

    def counted(self, counts):
        walks.append(len(counts))
        real(self, counts)

    monkeypatch.setattr(IdealLattice, "zeta_walk", counted)
    assert ehrhart_values(order_structure(grid22()), 50)[:3] == [1, 6, 20]
    assert len(walks) == 49


def test_ehrhart_memory_stays_linear_in_the_dilation():
    # the steps of every dilation at once would be m^2/2 list slots, 2.6 MB
    point = order_structure(chain_poset(["a"]))
    point.lattice
    tracemalloc.start()
    try:
        values = ehrhart_values(point, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == list(range(1, 802))
    assert peak < 500_000


def drop_first_element(monkeypatch):
    """Patch max_weak to lose element 0, so the vertex of {e0} is the origin."""
    real = RelativeStructure.max_weak
    monkeypatch.setattr(RelativeStructure, "max_weak", lambda self, mask: real(self, mask) & ~1)


@pytest.mark.parametrize("count", [
    lambda s: ehrhart_values(s, 2),
    lambda s: check_normality(s, 2),
])
def test_peeling_certificate_trips_on_a_lost_maximal_element(monkeypatch, count):
    s = order_structure(grid22())
    drop_first_element(monkeypatch)
    with pytest.raises(InternalClosureFailure, match="not generated by its <'-maximal"):
        count(s)


def add_stray_points(monkeypatch, k, points):
    """Patch packed_dilation so that dilation k also holds `points`."""
    real = polytopes.packed_dilation
    codes = {sum(v << (pack_bits(k) * i) for i, v in enumerate(p)) for p in points}

    def patched(structure, m):
        found = real(structure, m)
        return found | codes if m == k else found

    monkeypatch.setattr(polytopes, "packed_dilation", patched)


def count_one_too_high(monkeypatch):
    real = IdealLattice.multichain_count
    monkeypatch.setattr(IdealLattice, "multichain_count", lambda self, m: real(self, m) + 1)


def test_normality_failure_seen_by_the_set_oracle_raises(monkeypatch):
    # a dilation with points that no sum reaches: the set oracle names the
    # smallest of them, and the count, one higher than the sums, trips the trap
    s = chain_structure(grid22())
    add_stray_points(monkeypatch, 2, [(0, 0, 0, 3), (3, 0, 0, 0)])
    assert naive_check_normality(s, 3) == (False, (2, (3, 0, 0, 0)))
    count_one_too_high(monkeypatch)
    with pytest.raises(TheoremViolation, match="dilation 2 has 21 points but 20 2-fold sums"):
        check_normality(s, 3)


def test_normality_count_disagreeing_with_enumeration_raises(monkeypatch):
    count_one_too_high(monkeypatch)
    with pytest.raises(TheoremViolation, match="2-fold sums of dilation 1"):
        check_normality(chain_structure(grid22()), 2)


def test_decompose_point_vertices_and_roundtrip():
    for poset in small_poset_corpus(3):
        for s in valid_weak_structures(poset):
            for m in (1, 2, 3):
                for point in lattice_points(s, m):
                    chain = decompose_point(point, m, s)
                    assert recompose(chain, s) == tuple(point)
                    assert all(a & ~b == 0 for a, b in zip(chain, chain[1:]))


def test_decompose_point_order_polytope_thresholds():
    # with <' trivial the tuple is J_i = {p : x_p >= m - i + 1}
    for poset in small_poset_corpus(3):
        s = order_structure(poset)
        for m in (2, 3):
            for point in lattice_points(s, m):
                chain = decompose_point(point, m, s)
                expected = [
                    sum(1 << p for p in range(poset.n) if point[p] >= m - i + 1)
                    for i in range(1, m + 1)
                ]
                assert list(chain) == expected


def test_decompose_point_rejects():
    s = order_structure(chain_poset(["a", "b"]))
    with pytest.raises(NotALatticePoint):
        decompose_point((0, 1), 1, s)  # {b} is not an ideal indicator
    with pytest.raises(NotALatticePoint):
        decompose_point((5, 0), 2, s)


def test_repeated_point_raises():
    # an unvalidated <' above < makes {a} and {a,b} share the vertex (1, 0)
    s = RelativeStructure(chain_poset(["a", "b"]), (0, 1))
    with pytest.raises(InternalClosureFailure):
        packed_dilation(s, 1)


def test_packed_multichains_match_the_tuple_recursion(corpus5):
    # unmarked one and two steps on every valid structure with at most 5
    # elements; with 4 or fewer, also the minimal and maximal elements
    # marked, each requirement alone and followed by the top one
    for poset in corpus5:
        marked = poset.minimals | poset.maximals
        for s in valid_weak_structures(poset):
            cases = [(0, [0]), (0, [0, 0])]
            if poset.n <= 4:
                values = sorted({m & marked for m in s.lattice.masks})
                cases += [(marked, [r]) for r in values]
                cases += [(marked, [r, marked]) for r in values]
            for mark, reqs in cases:
                bits = pack_bits(len(reqs))
                got = {unpack(c, poset.n, bits) for c in packed_multichains(s, mark, reqs)}
                assert got == naive_multichain_points(s, mark, reqs)


def test_one_step_chains_build_no_superset_lists():
    # the 4,096 ideals of a 12-antichain; a pairwise superset test would make 4,096**2
    s = order_structure(antichain_poset([f"a{i}" for i in range(12)]))
    assert len(packed_dilation(s, 1)) == 4096


def test_check_normality_matches_the_set_oracle(corpus5):
    # the oracle builds every dilation and finds each a k-fold sum, as the
    # unimodular canonical triangulation proves
    for poset in corpus5:
        dilations = range(1, 5) if poset.n <= 4 else range(1, 4)
        for s in valid_weak_structures(poset):
            for k in dilations:
                assert naive_check_normality(s, k) == (True, None)
                assert check_normality(s, k) is True


@pytest.mark.parametrize("k_max", [2, 50])
def test_normality_builds_dilation_1_alone_for_any_k(monkeypatch, k_max):
    built = []
    real = polytopes.packed_dilation

    def recording(structure, m):
        built.append(m)
        return real(structure, m)

    monkeypatch.setattr(polytopes, "packed_dilation", recording)
    assert check_normality(chain_structure(grid23()), k_max) is True
    assert built == [1]


def test_normality_examples():
    assert check_normality(order_structure(chain_poset(["a", "b", "c"])), 3) is True
    assert check_normality(chain_structure(grid22()), 3) is True
    p2relative = chain_structure(grid23())
    assert check_normality(p2relative, 2) is True


def test_transfer_map_zero_and_chain_top():
    chain = chain_poset(["a", "b"])
    assert transfer_map((0, 0), chain) == (0, 0)
    assert transfer_map((1, 1), chain) == (0, 1)


def test_transfer_map_sends_ideals_to_max_antichains():
    for poset in small_poset_corpus(4):
        s = order_structure(poset)
        for mask in s.lattice.masks:
            image = transfer_map(indicator(mask, poset.n), poset)
            assert image == indicator(max_antichain(mask, poset.above), poset.n)


def test_transfer_map_affine_on_linearization_simplices():
    poset = grid22()
    s = order_structure(poset)
    for simplex in canonical_triangulation(s):
        images = [transfer_map(v, poset) for v in simplex.vertices]
        mid = tuple(
            Fraction(a + b, 2) for a, b in zip(simplex.vertices[0], simplex.vertices[-1])
        )
        expected = tuple(Fraction(a + b, 2) for a, b in zip(images[0], images[-1]))
        assert transfer_map(mid, poset) == expected


def test_transfer_map_membership_check():
    chain = chain_poset(["a", "b"])
    with pytest.raises(ValueError, match="violates the order polytope"):
        transfer_map((0, 1), chain)  # increases along the order
    with pytest.raises(ValueError, match="out of"):
        transfer_map((2, 0), chain)


def test_point_codes_are_byte_wide():
    assert [pack_bits(k) for k in (0, 1, 255, 256, 65535, 65536)] == [8, 8, 8, 16, 16, 24]
    for bits, top in ((8, 255), (16, 65535)):
        point = (top, 0, 1, top - 1)
        code = sum(v << (bits * i) for i, v in enumerate(point))
        assert unpack(code, 4, bits) == point
        assert unpack(0, 4, bits) == (0,) * 4
