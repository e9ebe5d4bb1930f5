"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is exact (integer or rational equality); there are no numeric
tolerances anywhere.  Each test prints a PASS line when its criterion holds.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from posetdegen import (
    antichain_poset,
    build_flag_poset,
    build_poset,
    canonical_interior_weight,
    chain_structure,
    check_normality,
    cone_position,
    ehrhart_values,
    mcop_build,
    mcop_recognize,
    order_structure,
    subdivide,
    validate_relative_structure,
)
from posetdegen.errors import ConditionViolated
from posetdegen.flag import PlueckerMap
from posetdegen.lattice import enumerate_ideals
from posetdegen.linalg import affine_dimension
from posetdegen.marked import build_mrpp, mrpp_points, mrpp_subdivide, standardize
from posetdegen.polytopes import packed_dilation
from posetdegen.posets import linear_extension_indices, mask_bits

from conftest import (
    brute_force_extensions,
    canonical_triangulation,
    criterion_7_markings,
    flag_weight,
    fundamental_mrpp,
    lattice_points,
    linear_extensions,
    part_section,
    random_poset,
    sample_cone_weight,
    small_poset_corpus,
    theta,
    valid_weak_structures,
    weyl_dimension,
)


def all_dims(n):
    inner = list(range(1, n))
    return [
        (0,) + choice + (n,)
        for r in range(len(inner) + 1)
        for choice in combinations(inner, r)
    ]


@pytest.fixture(scope="module")
def exhaustive_structures():
    """Every poset on <= 5 elements (up to isomorphism) with every valid <'."""
    out = []
    for poset in small_poset_corpus(5):
        out.append((poset, valid_weak_structures(poset)))
    return out


@pytest.fixture(scope="module")
def random_eight_posets():
    rng = random.Random(20260808)
    posets = []
    while len(posets) < 20:
        p = random_poset(rng, 8)
        if len(enumerate_ideals(p)) <= 60:
            posets.append(p)
    return posets


def sampled_weak_structures(poset, rng, limit=3):
    """Order, chain, and a few random valid intermediates."""
    structures = [order_structure(poset), chain_structure(poset)]
    rows_all = list(poset.above)
    rel = [
        (i, j) for i in range(poset.n) for j in range(poset.n)
        if poset.above[i] >> j & 1
    ]
    tries = 0
    while len(structures) < 2 + limit and tries < 20:
        tries += 1
        keep = [p for p in rel if rng.random() < 0.6]
        rows = [0] * poset.n
        for i, j in keep:
            rows[i] |= 1 << j
        pairs = [(poset.elements[i], poset.elements[j]) for i, j in keep]
        try:
            structures.append(validate_relative_structure(poset, pairs))
        except ConditionViolated:
            continue
    return structures


def test_criterion_1_ehrhart_equivalence(exhaustive_structures, random_eight_posets):
    for poset, structures in exhaustive_structures:
        reference = None
        for s in structures:
            values = [len(packed_dilation(s, m)) for m in range(5)]
            assert ehrhart_values(s, 4) == values  # the multichain DP, against enumeration
            if reference is None:
                reference = values
            assert values == reference, f"Ehrhart mismatch on {poset!r}"
    rng = random.Random(11)
    for poset in random_eight_posets:
        reference = None
        for s in sampled_weak_structures(poset, rng):
            values = [len(packed_dilation(s, m)) for m in range(4)]
            assert ehrhart_values(s, 3) == values
            if reference is None:
                reference = values
            assert values == reference, f"Ehrhart mismatch on {poset!r}"
    print("PASS criterion 1: Ehrhart equivalence across all valid weak orders")


def test_criterion_2_normality(exhaustive_structures, random_eight_posets):
    for _, structures in exhaustive_structures:
        for s in structures:
            assert check_normality(s, 3) is True
    rng = random.Random(12)
    for poset in random_eight_posets:
        for s in sampled_weak_structures(poset, rng, limit=1):
            assert check_normality(s, 3) is True
    print("PASS criterion 2: normality certificates up to dilation 3")


def test_criterion_3_triangulation_counts(exhaustive_structures):
    for poset, structures in exhaustive_structures:
        expected = len(linear_extensions(poset))
        for s in structures:
            assert len(canonical_triangulation(s)) == expected
    grid22 = build_poset(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    grid23 = build_poset(
        [f"p{i}.{j}" for i in (1, 2) for j in (3, 4, 5)],
        [
            ("p1.3", "p1.4"), ("p1.4", "p1.5"), ("p2.3", "p2.4"),
            ("p2.4", "p2.5"), ("p1.3", "p2.3"), ("p1.4", "p2.4"),
            ("p1.5", "p2.5"),
        ],
    )
    for poset, count in ((grid22, 2), (grid23, 5)):
        oracle = brute_force_extensions(poset)
        assert len(oracle) == count
        assert len(canonical_triangulation(order_structure(poset))) == count
        assert len(canonical_triangulation(chain_structure(poset))) == count
    print("PASS criterion 3: triangulation size equals linear-extension count")


def test_criterion_4_hilbert_equality(exhaustive_structures):
    for _, structures in exhaustive_structures:
        for s in structures:
            counts = [len(packed_dilation(s, m)) for m in range(4)]
            monomials = [s.lattice.multichain_count(m) for m in range(4)]
            assert counts == monomials
    print("PASS criterion 4: standard monomial counts equal Ehrhart counts")


def criterion5_structures():
    grid22 = build_poset(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    grid23 = build_poset(
        [f"p{i}.{j}" for i in (1, 2) for j in (3, 4, 5)],
        [
            ("p1.3", "p1.4"), ("p1.4", "p1.5"), ("p2.3", "p2.4"),
            ("p2.4", "p2.5"), ("p1.3", "p2.3"), ("p1.4", "p2.4"),
            ("p1.5", "p2.5"),
        ],
    )
    vee = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    structures = [
        order_structure(grid22), chain_structure(grid22),
        order_structure(grid23), chain_structure(grid23),
        order_structure(antichain_poset(["w", "x", "y", "z"])),
        chain_structure(vee),
    ]
    f = build_flag_poset(5, (0, 2, 5))
    structures.append(f.structure("fflv").unmarked())
    return structures


def test_criterion_5_subdivision_soundness():
    rng = random.Random(20260808)
    for s in criterion5_structures():
        lat = s.lattice
        extensions = len(linear_extension_indices(s.poset))
        zero = subdivide(s, [0] * len(lat))
        assert len(zero) == 1 and zero[0].order == s.poset
        canonical = subdivide(s, canonical_interior_weight(s))
        assert len(canonical) == extensions
        for _ in range(100):
            w = sample_cone_weight(s, rng)
            assert cone_position(s, w).position in ("interior", "boundary")
            sub = subdivide(s, w)
            assert sum(p.linearization_count for p in sub) == extensions
            for part in sub:
                # closure under union/intersection/star and full height are
                # re-verified inside subdivide; check order containment and
                # the height profile here as the stated acceptance conditions
                assert s.poset.is_weaker_than(part.order)
                sizes = {bin(lat.masks[i]).count("1") for i in part.sublattice}
                assert sizes == set(range(s.poset.n + 1))
    print("PASS criterion 5: 100 sampled-weight subdivisions per structure are sound")


def test_criterion_6_notmcop_exact_reproduction():
    start = time.time()
    f = build_flag_poset(5, (0, 2, 5))
    s = f.structure("fflv")
    std = standardize(s)
    lat = s.lattice
    target_key = ",".join(sorted(["p1.2", "p1.3", "p1.4", "p1.5"]))
    w = [
        Fraction(1) if lat.label_key(pos) == target_key else Fraction(0)
        for pos in std.jlambda
    ]
    parts, _ = mrpp_subdivide(std, w)
    assert len(parts) == 2
    sections = [part_section(std.quotient, part) for part in parts]
    big_part, big = max(zip(parts, sections), key=lambda ps: len(ps[1].vertices))
    small = min(sections, key=lambda section: len(section.vertices))
    assert len(big.vertices) == 9
    assert big_part.added_covers(std.quotient.poset) == [("p2.3", "p1.5")]
    assert len(small.vertices) == affine_dimension(small.vertices) + 1  # a simplex
    part_structure = std.quotient.with_order(big_part.order)
    assert mcop_recognize(part_structure, mrpp_points(part_structure)) is None
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 6: notmcop example reproduced in {elapsed:.2f}s")


def test_criterion_7_mcop_equals_mrpp():
    # every split of one marking has the marked count of the DP: the
    # Ehrhart-equivalence that mcop_recognize's single count rests on
    cases = 0
    for poset, marking, splits in criterion_7_markings(5):
        count = ehrhart_values(validate_relative_structure(poset, [], marking), 1)[1]
        for c_part, o_part in splits:
            # mcop_build raises TheoremViolation on any mismatch
            assert len(mcop_build(poset, marking, c_part, o_part).points) == count
            cases += 1
    print(f"PASS criterion 7: MCOP = MRPP with one point count on {cases} exhaustive cases")


def test_criterion_8_flag_dimension_counts():
    checked = 0
    for n in range(1, 6):
        for dims in all_dims(n):
            f = build_flag_poset(n, dims)
            expected = weyl_dimension(flag_weight(n, dims))
            for mode in ("gt", "fflv"):
                points = mrpp_points(f.structure(mode))
                assert len(points) == expected, (n, dims, mode)
            checked += 1
    print(f"PASS criterion 8: GT/FFLV counts match the Weyl oracle for {checked} dims")


def test_criterion_9_standardization():
    rng = random.Random(31415)
    built = 0
    while built < 20:
        poset = random_poset(rng, 5)
        marked = poset.minimals | poset.maximals
        for i in range(poset.n):
            if not marked >> i & 1 and rng.random() < 0.3:
                marked |= 1 << i
        height = [bin(poset.below[i]).count("1") for i in range(poset.n)]
        values = {
            poset.elements[i]: max(0, 3 - height[i] - rng.randint(0, 1))
            for i in mask_bits(marked)
        }
        # a random chain/order split gives a valid weak order on each try
        weak_sources = [
            i for i in range(poset.n)
            if not marked >> i & 1 and rng.random() < 0.5
        ]
        weak = [
            (poset.elements[i], poset.elements[j])
            for i in weak_sources
            for j in mask_bits(poset.above[i])
        ]
        s = validate_relative_structure(poset, weak, values)
        std = standardize(s)
        built += 1
        for m in (1, 2, 3):
            pts = mrpp_points(s, m)
            image = sorted(theta(std, p) for p in pts)
            assert len(set(image)) == len(pts)
            assert image == sorted(mrpp_points(std.quotient, m))

    # Example "fundexample", both directions
    q_covers = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    q_poset = build_poset(["a", "b", "c", "d"], q_covers)
    sq = chain_structure(q_poset)
    p_poset = build_poset(
        ["p0", "a", "b", "c", "d", "p1"],
        q_covers + [("p0", e) for e in "abcd"] + [(e, "p1") for e in "abcd"],
    )
    sp = validate_relative_structure(p_poset, q_covers, {"p0": 1, "p1": 0})
    face = fundamental_mrpp(sp, 1 << p_poset.index("p0"))
    projected = sorted(
        tuple(pt[p_poset.index(e)] for e in "abcd") for pt in face.points
    )
    assert projected == sorted(lattice_points(sq, 1))
    std = standardize(sp)
    assert sorted(theta(std, p) for p in build_mrpp(sp).points) == sorted(
        build_mrpp(std.quotient).points
    )
    print("PASS criterion 9: theta bijections and fundexample reproduction")


def test_criterion_10_pluecker_roundtrips():
    total = 0
    for n in range(2, 7):
        for k in range(1, n):
            f = build_flag_poset(n, (0, k, n))
            corner = f"p1.{k}"
            for mode, full in (("O", "GT"), ("C", "FFLV")):
                # O and C are the level-k slices of GT and FFLV, less p_{1,k}
                m, g = PlueckerMap(f, mode), PlueckerMap(f, full)
                assert m.variables() == [v for v in g.variables() if len(v) == k]
                for v in m.variables():
                    ideal = m.to_ideal(v)
                    assert corner not in ideal and ideal | {corner} == g.to_ideal(v)
                    assert m.from_ideal(ideal) == v
                    total += 1
        for dims in all_dims(n):
            f = build_flag_poset(n, dims)
            for mode in ("GT", "FFLV"):
                m = PlueckerMap(f, mode)
                for v in m.variables():
                    assert m.from_ideal(m.to_ideal(v)) == v
                    total += 1

    f37 = build_flag_poset(7, (0, 3, 7))
    m_o = PlueckerMap(f37, "O")
    assert sorted(m_o.to_ideal((2, 4, 7))) == [
        "p1.4", "p1.5", "p1.6", "p1.7", "p2.4", "p2.5", "p3.4"
    ]
    m_c = PlueckerMap(f37, "C")
    assert sorted(m_c.to_ideal((7, 6, 3))) == [
        "p1.4", "p1.5", "p1.6", "p1.7", "p2.4", "p2.5", "p2.6"
    ]
    f5 = build_flag_poset(5, (0, 2, 4, 5))
    m_gt = PlueckerMap(f5, "GT")
    assert sorted(m_gt.to_ideal((3, 5))) == [
        "p1.2", "p1.3", "p1.4", "p1.5", "p2.3", "p2.4"
    ]
    m_ff = PlueckerMap(f5, "FFLV")
    assert sorted(m_ff.to_ideal((1, 5, 3, 4))) == [
        "p1.2", "p1.3", "p1.4", "p1.5", "p2.3", "p2.4", "p2.5", "p3.4"
    ]
    print(f"PASS criterion 10: {total} Pluecker round-trips plus figure examples")
