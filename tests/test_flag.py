import time
from fractions import Fraction
from itertools import combinations

import pytest

from posetdegen import (
    build_flag_poset,
    enumerate_ideals,
    flag_degeneration,
    flag_polytope,
    mcop_recognize,
)
from posetdegen.errors import ValidationError
from posetdegen.flag import PlueckerMap
from posetdegen.marked import build_mrpp, mrpp_points, standardize, mrpp_subdivide

from conftest import (
    flag_weight,
    grass_poset,
    lattice_points,
    naive_mcop_recognize,
    weyl_dimension,
)


def all_dims(n):
    inner = [d for d in range(1, n)]
    out = []
    for r in range(len(inner) + 1):
        for choice in combinations(inner, r):
            out.append((0,) + choice + (n,))
    return out


def mask_bits_local(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_flag_poset_examples():
    f = build_flag_poset(5, (0, 2, 4, 5))
    # 3 marked corners plus the union of the 2x3 and 4x1 grids (8 elements)
    assert len(f.poset.elements) == 11
    assert f.marked_labels == ("p1.2", "p3.4", "p5.5")
    assert f.marking == {"p1.2": 3, "p3.4": 2, "p5.5": 1}
    # the marking decomposes as one fundamental term per marked chain ideal
    from posetdegen.marked import fundamental_decomposition

    fd = fundamental_decomposition(f.structure("gt"))
    ks = [sorted(f.poset.elements[i] for i in mask_bits_local(k)) for k, _ in fd.terms]
    assert [a for _, a in fd.terms] == [1, 1, 1]
    assert ks == [["p1.2"], ["p1.2", "p3.4"], ["p1.2", "p3.4", "p5.5"]]

    f2 = build_flag_poset(5, (0, 2, 5))
    assert len(f2.poset.elements) == 8
    lat = enumerate_ideals(f2.poset)
    assert len(lat) == 12  # 1 + C(5,2) + 1, the middle layer being C(5,2) = 10
    middle = [m for m in lat.masks if bin(m & f2.marked_mask).count("1") == 1]
    assert len(middle) == 10

    f3 = build_flag_poset(7, (0, 3, 7))
    assert len(grass_poset(f3).elements) == 12  # the 3x4 grid P_3
    assert len(f3.poset.elements) == 14


def test_invalid_dims():
    for dims in ((0, 2), (1, 2, 4), (0, 3, 2, 4), (0,)):
        with pytest.raises(ValidationError, match="dims must increase strictly from 0 to n"):
            build_flag_poset(4, dims)


def test_grass_maps_require_grassmannian_dims():
    f = build_flag_poset(5, (0, 2, 4, 5))
    with pytest.raises(ValidationError, match="Grassmannian maps require dims"):
        PlueckerMap(f, "O").variables()


def test_psi_o_figure_example():
    f = build_flag_poset(7, (0, 3, 7))
    m = PlueckerMap(f, "O")
    ideal = m.to_ideal((2, 4, 7))
    assert sorted(ideal) == [
        "p1.4", "p1.5", "p1.6", "p1.7", "p2.4", "p2.5", "p3.4"
    ]
    assert m.from_ideal(ideal) == (2, 4, 7)


def test_psi_c_figure_example():
    f = build_flag_poset(7, (0, 3, 7))
    m = PlueckerMap(f, "C")
    ideal = m.to_ideal((7, 6, 3))
    assert sorted(ideal) == [
        "p1.4", "p1.5", "p1.6", "p1.7", "p2.4", "p2.5", "p2.6"
    ]
    assert m.from_ideal(ideal) == (7, 6, 3)


def test_psi_gt_figure_example():
    f = build_flag_poset(5, (0, 2, 4, 5))
    m = PlueckerMap(f, "GT")
    ideal = m.to_ideal((3, 5))
    assert sorted(ideal) == [
        "p1.2", "p1.3", "p1.4", "p1.5", "p2.3", "p2.4"
    ]
    assert m.from_ideal(ideal) == (3, 5)


def test_psi_fflv_figure_example():
    f = build_flag_poset(5, (0, 2, 4, 5))
    m = PlueckerMap(f, "FFLV")
    ideal = m.to_ideal((1, 5, 3, 4))
    assert sorted(ideal) == [
        "p1.2", "p1.3", "p1.4", "p1.5", "p2.3", "p2.4", "p2.5", "p3.4"
    ]
    assert m.from_ideal(ideal) == (1, 5, 3, 4)


def test_all_maps_biject_small():
    for n in range(2, 7):
        for k in range(1, n):
            f = build_flag_poset(n, (0, k, n))
            lat = enumerate_ideals(grass_poset(f))
            for mode in ("O", "C"):
                m = PlueckerMap(f, mode)
                variables = m.variables()
                ideals = {m.to_ideal(v) for v in variables}
                assert len(variables) == len(ideals) == len(lat)
                for v in variables:
                    assert m.from_ideal(m.to_ideal(v)) == v
        for dims in all_dims(n):
            f = build_flag_poset(n, dims)
            lat = enumerate_ideals(f.poset)
            for mode in ("GT", "FFLV"):
                m = PlueckerMap(f, mode)
                variables = m.variables()
                ideals = {m.to_ideal(v) for v in variables}
                assert len(variables) == len(ideals) == len(lat)
                for v in variables:
                    assert m.from_ideal(m.to_ideal(v)) == v


def test_gl_binomials_pull_back_to_hibi_generators():
    # psi_O(min tuple) and psi_O(max tuple) are meet and join of the images
    f = build_flag_poset(4, (0, 2, 4))
    m = PlueckerMap(f, "O")
    poset = grass_poset(f)
    for t1 in m.variables():
        for t2 in m.variables():
            j1 = sum(1 << poset.index(e) for e in m.to_ideal(t1))
            j2 = sum(1 << poset.index(e) for e in m.to_ideal(t2))
            mins = tuple(min(a, b) for a, b in zip(t1, t2))
            maxs = tuple(max(a, b) for a, b in zip(t1, t2))
            jmin = sum(1 << poset.index(e) for e in m.to_ideal(mins))
            jmax = sum(1 << poset.index(e) for e in m.to_ideal(maxs))
            assert jmin == j1 & j2
            assert jmax == j1 | j2


def test_flag_polytope_counts_weyl():
    g24 = build_flag_poset(4, (0, 2, 4))
    assert len(flag_polytope(g24, "gt").points) == 6
    assert len(flag_polytope(g24, "fflv").points) == 6
    gl3 = build_flag_poset(3, (0, 1, 2, 3))
    assert len(flag_polytope(gl3, "gt").points) == 8
    assert weyl_dimension(flag_weight(3, (0, 1, 2, 3))) == 8


def test_flag_structures_are_standard_and_valid():
    for n in range(2, 7):
        for dims in all_dims(n):
            if n > 4 and len(dims) > 4:
                continue
            f = build_flag_poset(n, dims)
            for mode in ("gt", "fflv"):
                s = f.structure(mode)  # validates conditions (i)-(iii)
                std = standardize(s)
                assert std.is_identity


def test_gt_fflv_ehrhart_equivalent():
    for n, dims in ((3, (0, 1, 2, 3)), (4, (0, 2, 4)), (4, (0, 1, 3, 4))):
        f = build_flag_poset(n, dims)
        gt = f.structure("gt")
        ff = f.structure("fflv")
        for m in (1, 2, 3):
            assert len(mrpp_points(gt, m)) == len(mrpp_points(ff, m))


def test_mcop_on_flag_poset_gives_gt_and_fflv():
    # O = everything unmarked gives the GT polytope, C = everything the FFLV one
    f = build_flag_poset(4, (0, 2, 4))
    from posetdegen.marked import mcop_build

    free = [e for e in f.poset.elements if e not in f.marked_labels]
    gt_points = set(mrpp_points(f.structure("gt")))
    ff_points = set(mrpp_points(f.structure("fflv")))
    assert set(mcop_build(f.poset, f.marking, [], free).points) == gt_points
    assert set(mcop_build(f.poset, f.marking, free, []).points) == ff_points
    # and mcop_recognize finds partitions reproducing them
    assert mcop_recognize(f.structure("gt"), flag_polytope(f, "gt")) is not None
    assert mcop_recognize(f.structure("fflv"), flag_polytope(f, "fflv")) is not None


def test_grassmannian_vertex_labels_match_grid_ideals():
    # for dims {0,k,n} the FFLV polytope vertices project to the chain
    # polytope vertices of P_k
    f = build_flag_poset(5, (0, 2, 5))
    poly = flag_polytope(f, "fflv")
    poset = f.poset
    grid = grass_poset(f)
    grid_cols = [poset.index(e) for e in grid.elements]
    projected = {tuple(p[i] for i in grid_cols) for p in poly.points}
    from posetdegen.posets import chain_structure

    expected = set(lattice_points(chain_structure(grid), 1))
    assert projected == expected


def notmcop_weight(structure):
    lat = structure.lattice
    std = standardize(structure)
    target = ",".join(sorted(["p1.2", "p1.3", "p1.4", "p1.5"]))
    return std, [
        Fraction(1) if lat.label_key(pos) == target else Fraction(0)
        for pos in std.jlambda
    ]


def test_notmcop_example_full_reproduction():
    start = time.time()
    f = build_flag_poset(5, (0, 2, 5))
    s = f.structure("fflv")
    std, w = notmcop_weight(s)
    sub = mrpp_subdivide(std, w)
    assert len(sub) == 2
    big = max(sub, key=lambda p: len(p.vertices))
    small = min(sub, key=lambda p: len(p.vertices))
    assert len(big.vertices) == 9
    assert big.added_covers(std.quotient.poset) == [("p2.3", "p1.5")]
    # the other part is a simplex: dim + 1 affinely independent vertices
    from posetdegen.linalg import affine_dimension

    assert len(small.vertices) == affine_dimension(small.vertices) + 1
    # the 9-vertex part is not a marked chain-order polytope for any partition
    part_structure = std.quotient.with_order(big.order)
    target = build_mrpp(part_structure)
    assert set(target.points) == set(big.points)
    assert mcop_recognize(part_structure, target) is None
    assert time.time() - start < 1.0


def test_flag_degeneration_zero_weight():
    f = build_flag_poset(4, (0, 2, 4))
    s = f.structure("fflv")
    std = standardize(s)
    parts = flag_degeneration(f, "fflv", std, [0] * len(std.jlambda))
    assert len(parts) == 1
    assert parts[0]["added_covers"] == []
    assert parts[0]["vanishing_variables"] == []
    # the names are read off masks of P_d, so another flag's quotient is refused
    other = standardize(build_flag_poset(4, (0, 1, 3, 4)).structure("fflv"))
    with pytest.raises(ValidationError, match="not that of the flag's structure"):
        flag_degeneration(f, "fflv", other, [0] * len(other.jlambda))


def test_flag_degeneration_notmcop_report():
    f = build_flag_poset(5, (0, 2, 5))
    s = f.structure("fflv")
    std, w = notmcop_weight(s)
    parts = flag_degeneration(f, "fflv", std, w)
    assert len(parts) == 2
    nine = [p for p in parts if p["vertices"] == 9][0]
    assert nine["added_covers"] == [("p2.3", "p1.5")]
    assert nine["lattice_points"] == 9
    assert nine["vanishing_variables"] == ["5,2"]  # psi_FFLV name of J_1


def test_flag_degeneration_canonical_components_are_chains():
    from posetdegen.degeneration import canonical_interior_weight

    f = build_flag_poset(4, (0, 2, 4))
    s = f.structure("gt")
    std = standardize(s)
    w = canonical_interior_weight(std.quotient)
    parts = flag_degeneration(f, "gt", std, [w[q] for q in std.lattice_map])
    # every component is a section of a linearization simplex
    for part in parts:
        assert part["vertices"] == part["lattice_points"]


def test_mcop_recognize_matches_bit_order_oracle_on_flags():
    # GT is all of the free elements in O, FFLV all in C (the first split);
    # the notmcop part of criterion 6 is no MCOP
    for n in range(1, 5):
        for dims in all_dims(n):
            f = build_flag_poset(n, dims)
            free = tuple(sorted(x for x in f.poset.elements if x not in f.marking))
            for mode, split in (("gt", ((), free)), ("fflv", (free, ()))):
                s = f.structure(mode)
                target = build_mrpp(s)
                assert mcop_recognize(s, target) == naive_mcop_recognize(s, target)
                if n == 4 and len(dims) == 5:
                    assert mcop_recognize(s, target) == split
    s = build_flag_poset(5, (0, 2, 5)).structure("fflv")
    std, w = notmcop_weight(s)
    big = max(mrpp_subdivide(std, w), key=lambda p: len(p.vertices))
    part_structure = std.quotient.with_order(big.order)
    target = build_mrpp(part_structure)
    assert naive_mcop_recognize(part_structure, target) is None
    assert mcop_recognize(part_structure, target) is None
