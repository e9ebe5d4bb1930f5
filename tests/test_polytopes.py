from fractions import Fraction
from itertools import product

import pytest

from posetdegen import polytopes
from posetdegen import (
    antichain_poset,
    build_polytope,
    build_poset,
    canonical_triangulation,
    chain_poset,
    chain_structure,
    check_normality,
    decompose_point,
    ehrhart_values,
    lattice_points,
    order_structure,
    validate_relative_structure,
)
from posetdegen.errors import InternalClosureFailure, NotALatticePoint
from posetdegen.lattice import IdealLattice, max_antichain
from posetdegen.polytopes import indicator, pack_bits, packed_dilation
from posetdegen.posets import RelativeStructure

from conftest import (
    naive_check_normality,
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


def test_normality_failure_names_the_same_point_as_the_set_oracle(monkeypatch):
    # a dilation with points that no sum reaches: the count is higher than
    # the sums, and the failure path names the smallest code, as the oracle
    s = chain_structure(grid22())
    add_stray_points(monkeypatch, 2, [(0, 0, 0, 3), (3, 0, 0, 0)])
    expected = naive_check_normality(s, 3)
    assert expected == (False, (2, (3, 0, 0, 0)))
    count_one_too_high(monkeypatch)
    assert check_normality(s, 3) == expected


def test_normality_count_disagreeing_with_enumeration_raises(monkeypatch):
    count_one_too_high(monkeypatch)
    with pytest.raises(InternalClosureFailure, match="not its multichain count"):
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


def test_normality_examples():
    assert check_normality(order_structure(chain_poset(["a", "b", "c"])), 3)[0]
    assert check_normality(chain_structure(grid22()), 3)[0]
    p2relative = chain_structure(grid23())
    assert check_normality(p2relative, 2)[0]


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
