import random
from fractions import Fraction

import pytest

from posetdegen import degeneration, lattice as lattice_module
from posetdegen import (
    antichain_poset,
    canonical_interior_weight,
    chain_poset,
    chain_structure,
    cone_position,
    ehrhart_values,
    ideal_presentation,
    order_structure,
    subdivide,
    zhu_components,
)
from posetdegen.degeneration import ConePosition, WeightVector
from posetdegen.errors import InternalClosureFailure, KindMismatch, OutsideCone
from posetdegen.posets import (
    RelativeStructure,
    build_poset,
    linear_extension_indices,
    mask_bits,
    transitive_closure,
)

from conftest import (
    counted,
    eager_chain_part,
    incomparable_pairs,
    minimal_cone_shift,
    naive_cone_position,
    naive_covers,
    naive_star_closure_failure,
    naive_subdivide,
    part_affine,
    posets_up_to_iso,
    random_poset,
    sample_cone_weight,
    small_poset_corpus,
    valid_weak_structures,
)


def grid22():
    return build_poset(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


def key(structure, labels):
    lat = structure.lattice
    return [lat.label_key(i) for i in range(len(lat))].index(",".join(sorted(labels)))


def test_presentation_chain_empty():
    s = chain_structure(chain_poset(["a", "b", "c"]))
    for kind in ("hibi", "hibili", "relative", "monomial"):
        assert len(ideal_presentation(s, kind)) == 0


def test_presentation_square_single_generator():
    s = order_structure(antichain_poset(["a", "b"]))
    pres = ideal_presentation(s, "hibi")
    assert len(pres) == 1
    (a, b), (u, m) = pres.generators[0]
    lat = s.lattice
    assert {lat.masks[a], lat.masks[b]} == {0b01, 0b10}
    assert lat.masks[u] == 0b11 and lat.masks[m] == 0


def test_presentation_kind_mismatch():
    s = order_structure(chain_poset(["a", "b"]))  # <' trivial differs from <
    with pytest.raises(KindMismatch):
        ideal_presentation(s, "hibili")


def test_presentation_relative_matches_hibi_for_trivial_weak():
    for poset in small_poset_corpus(4):
        s = order_structure(poset)
        assert (
            ideal_presentation(s, "relative").generators
            == ideal_presentation(s, "hibi").generators
        )


def test_cone_zero_boundary():
    s = order_structure(antichain_poset(["a", "b"]))
    assert cone_position(s, [0, 0, 0, 0]).position == "boundary"


def test_cone_canonical_interior_everywhere():
    for poset in small_poset_corpus(4):
        for s in valid_weak_structures(poset):
            w = canonical_interior_weight(s)
            pos = cone_position(s, w)
            assert pos.position in ("interior", "boundary")
            if incomparable_pairs(s.lattice):
                assert pos.position == "interior"


def test_cone_outside_with_witness():
    s = order_structure(antichain_poset(["a", "b"]))
    pos = cone_position(s, [0, 1, 1, 0])
    assert pos.position == "outside"
    lat = s.lattice
    assert [(lat.masks[a], lat.masks[b]) for a, b in pos.violated] == [(0b01, 0b10)]


def test_canonical_weight_values():
    chain2 = order_structure(chain_poset(["a", "b"]))
    assert [int(v) for v in canonical_interior_weight(chain2).values] == [4, 1, 0]
    square = order_structure(antichain_poset(["a", "b"]))
    assert [int(v) for v in canonical_interior_weight(square).values] == [4, 1, 1, 0]


def test_subdivide_zero_single_part():
    for poset in small_poset_corpus(4):
        for s in valid_weak_structures(poset):
            sub = subdivide(s, [0] * len(s.lattice))
            assert len(sub.parts) == 1
            assert sub.parts[0].order == poset
            assert sub.parts[0].sublattice == tuple(range(len(s.lattice)))


def test_subdivide_canonical_full_triangulation():
    for poset in small_poset_corpus(4):
        for s in valid_weak_structures(poset):
            sub = subdivide(s, canonical_interior_weight(s))
            exts = linear_extension_indices(poset)
            assert len(sub.parts) == len(exts)
            assert all(p.linearization_count == 1 for p in sub.parts)


def test_subdivide_outside_raises():
    s = order_structure(antichain_poset(["a", "b", "c"]))
    lat = s.lattice
    w = [0] * len(lat)
    # violate in both signs: one positive and one negative middle spike on
    # incomparable singletons makes w and -w both fail some inequality
    w[key(s, ["a"])] = 5
    w[key(s, ["b"])] = -5
    with pytest.raises(OutsideCone) as info:
        subdivide(s, w)
    assert info.value.witnesses == (("a", "c"), ("a", "b,c"), ("a,b", "b,c"))


def grid33():
    cells = [f"p{i}{j}" for i in range(3) for j in range(3)]
    covers = [(f"p{i}{j}", f"p{i + 1}{j}") for i in range(2) for j in range(3)]
    covers += [(f"p{i}{j}", f"p{i}{j + 1}") for i in range(3) for j in range(2)]
    return build_poset(cells, covers)


def square_weight(structure, labels):
    """w_J = |J ∩ A|^2 for the elements A with the given labels."""
    a_mask = sum(1 << structure.poset.index(x) for x in labels)
    return [bin(m & a_mask).count("1") ** 2 for m in structure.lattice.masks]


def test_subdivide_enumerates_each_parts_ideals_once(monkeypatch):
    # interior weights: every part is a chain and needs no enumeration beyond
    # the base lattice; walked parts: one enumeration each, inside
    # sublattice_to_order, whose certified lattice the star scan reuses
    calls = counted(monkeypatch, lattice_module, "enumerate_ideals")
    for s in (order_structure(grid33()), chain_structure(grid33())):
        calls.clear()
        sub = subdivide(s, canonical_interior_weight(s))
        assert len(sub.parts) == 42
        assert len(calls) == 1
    s = chain_structure(grid33())
    s.lattice  # the base lattice, enumerated before counting
    calls.clear()
    sub = subdivide(s, square_weight(s, ["p00", "p11"]))
    assert len(sub.parts) == 8
    assert len(calls) == 8


def test_zhu_components_reuse_each_parts_lattice(monkeypatch):
    # the parts' ideals are enumerated once, by subdivide's certificate, and
    # each component's presentation runs over that lattice
    calls = counted(monkeypatch, lattice_module, "enumerate_ideals")
    s = chain_structure(grid33())
    s.lattice  # the base lattice, enumerated before counting
    calls.clear()
    sub, comps = zhu_components(s, square_weight(s, ["p00", "p11"]))
    assert len(comps) == 8
    assert len(calls) == 8
    for comp in comps:
        oracle = s.with_order(comp.part.order).unmarked()
        to_base = [s.lattice.position[m] for m in oracle.lattice.masks]
        assert comp.presentation.generators == tuple(
            ((to_base[a], to_base[b]), (to_base[u], to_base[t]))
            for (a, b), (u, t) in ideal_presentation(oracle, "relative").generators
        )


def test_subdivide_zero_weight_walks_without_linearizations(monkeypatch):
    def refuse(poset):
        raise AssertionError("linear_extension_indices called")

    monkeypatch.setattr(degeneration, "linear_extension_indices", refuse)
    cells = [f"x{i}{j}" for i in range(4) for j in range(4)]
    covers = [(f"x{i}{j}", f"x{i + 1}{j}") for i in range(3) for j in range(4)]
    covers += [(f"x{i}{j}", f"x{i}{j + 1}") for i in range(4) for j in range(3)]
    s = order_structure(build_poset(cells, covers))
    sub = subdivide(s, [0] * len(s.lattice))
    assert len(sub.parts) == 1
    assert sub.parts[0].linearization_count == 24024


def part_table(sub):
    return [(p.sublattice, p.order, part_affine(p), p.linearization_count) for p in sub.parts]


def prefix_sharing_structures(rng, count):
    """Seeded structures on 6 to 8 elements with 24 to 400 linearizations,
    whose consecutive linearizations share long prefixes: <' trivial, <' = <
    and a random star-closed <' between them."""
    out = []
    while len(out) < count:
        n = rng.randint(6, 8)
        poset = random_poset(rng, n)
        if not 24 <= len(linear_extension_indices(poset)) <= 400:
            continue
        out += [order_structure(poset), chain_structure(poset)]
        weak = transitive_closure([row & rng.getrandbits(n) for row in poset.above], n)
        s = RelativeStructure(poset, weak)
        if naive_star_closure_failure(s) is None:
            out.append(s)
    return out


def interior_perturbation(s, rng):
    """The canonical weight plus a rational of denominator 48 to 144 on each
    ideal: every slack of the canonical weight is a positive integer, and
    the four terms of a slack move it by less than 1."""
    return [c + Fraction(rng.randint(-3, 3), 16 * rng.choice((3, 5, 7, 9)))
            for c in canonical_interior_weight(s).values]


def test_subdivide_matches_grouping_oracle():
    # every valid structure with at most 4 elements and a seeded sample with
    # 5; least-shift weights (many on the boundary, where the parts are
    # walked), their negations and the canonical weight.  Then interior
    # weights on 6 to 8 elements, where the interior path lifts only the
    # suffix each linearization does not share with the one before: the
    # canonical weight, a rational one with unequal denominators and their
    # negations
    rng = random.Random(7)

    def check(s, w):
        sub = subdivide(s, w)
        assert part_table(sub) == naive_subdivide(s, w)
        for part in sub.parts:  # carried on both paths
            assert part.covers == part.order.covers() == naive_covers(part.order)
        return sub

    structures = [s for poset in small_poset_corpus(4) for s in valid_weak_structures(poset)]
    for poset in rng.sample(posets_up_to_iso(5), 10):
        valid = valid_weak_structures(poset)
        structures += rng.sample(valid, min(2, len(valid)))
    walked = 0
    for s in structures:
        canonical = canonical_interior_weight(s).values
        a_mask = rng.randrange(1 << s.poset.n)
        raw = [bin(m & a_mask).count("1") ** 2 for m in s.lattice.masks]
        t = minimal_cone_shift(s, raw)
        weights = [[r + t * c for r, c in zip(raw, canonical)]]
        weights += [list(sample_cone_weight(s, rng, spread).values) for spread in (1, 2)]
        weights += [[-v for v in w] for w in weights] + [list(canonical)]
        for w in weights:
            check(s, w)
            walked += bool(cone_position(s, w).tight)
    assert walked > 600
    for s in prefix_sharing_structures(rng, 12):
        rational = interior_perturbation(s, rng)
        assert len({v.denominator for v in rational}) > 1
        for w in (list(canonical_interior_weight(s).values), rational):
            for signed in (w, [-v for v in w]):
                assert cone_position(s, signed).tight == ()
                assert len(check(s, signed).parts) == len(linear_extension_indices(s.poset))


def test_linearization_parts_match_the_eager_build():
    # interior weights and their negations: one part per linearization, in
    # the order linear_extension_indices lists them, which is sublattice
    # order with no sort; the order and covers built on demand equal the
    # chain Poset and sorted consecutive pairs built for every part before
    rng = random.Random(23)
    structures = [s for poset in small_poset_corpus(4) for s in valid_weak_structures(poset)]
    structures += prefix_sharing_structures(rng, 6)
    for s in structures:
        exts = linear_extension_indices(s.poset)
        canonical = list(canonical_interior_weight(s).values)
        for w in (canonical, interior_perturbation(s, rng)):
            for signed in (w, [-v for v in w]):
                sub = subdivide(s, signed)
                assert [p.linearization for p in sub.parts] == exts
                sublattices = [p.sublattice for p in sub.parts]
                assert sublattices == sorted(sublattices)
                for part in sub.parts:
                    assert "order" not in vars(part) and "covers" not in vars(part)
                    old = eager_chain_part(part)
                    assert part.order == old.order
                    assert part.covers == old.covers
                    assert part.added_covers(s.poset) == old.added_covers(s.poset)


def test_cone_position_matches_fraction_oracle():
    # linear weights are tight on many pairs; a few ideals moved by rationals
    # of unequal denominators make pairs violated, tight and strict at once
    rng = random.Random(13)
    structures = [s for poset in small_poset_corpus(4) for s in valid_weak_structures(poset)]
    structures += prefix_sharing_structures(rng, 6)
    seen = set()
    for s in structures:
        masks = s.lattice.masks
        for _ in range(4):
            c = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5, 7)))
                 for _ in range(s.poset.n)]
            w = [sum(c[p] for p in mask_bits(m)) for m in masks]
            for i in rng.sample(range(len(w)), min(3, len(w))):
                w[i] += Fraction(rng.randint(-2, 2), rng.choice((2, 3, 4, 9)))
            pos = cone_position(s, w)
            assert (pos.position, pos.violated, pos.tight) == naive_cone_position(s, w)
            seen.add((pos.position, bool(pos.tight)))
    assert {("outside", True), ("outside", False), ("boundary", True), ("interior", False)} <= seen


def test_a_lift_that_misses_a_vertex_trips_the_interpolation_check():
    s = order_structure(grid22())
    ints = [int(v) for v in canonical_interior_weight(s).values]
    vertex_bits = [mask_bits(top) for top in s.weak_maxima]
    assert len(degeneration.triangulation_parts(s, ints, vertex_bits)) == 2
    top = s.lattice.position[s.poset.full]
    vertex_bits[top] = vertex_bits[top][1:]
    with pytest.raises(InternalClosureFailure, match="does not interpolate"):
        degeneration.triangulation_parts(s, ints, vertex_bits)


def walk_case():
    # |J ∩ {a, b}|^2 on three free elements: two parts, a before b or after,
    # each with one wall
    s = order_structure(antichain_poset(["a", "b", "c"]))
    return s, square_weight(s, ["a", "b"])


def test_walk_case_has_two_parts_across_one_wall():
    s, w = walk_case()
    assert cone_position(s, w).position == "boundary"
    sub = subdivide(s, w)
    assert [p.linearization_count for p in sub.parts] == [3, 3]
    for part in sub.parts:
        ext = degeneration.first_linearization(part.order)
        crossings = degeneration.wall_crossings(ext, part.order, part.covers, s.poset)
        assert len(list(crossings)) == 1


def test_fine_boundary_walk_lifts_every_linearization_instead(monkeypatch):
    # one tight pair on three free elements: five parts with two walls
    # each, so the walk would lift more than the six linearizations
    s = order_structure(antichain_poset(["a", "b", "c"]))
    w = [bin(m).count("1") ** 2 for m in s.lattice.masks]
    w[key(s, ["a", "b"])] = 2
    assert len(cone_position(s, w).tight) == 1
    lifts = counted(monkeypatch, degeneration, "affine_lift_on_chain")
    enumerations = counted(monkeypatch, degeneration, "linear_extension_indices")
    sub = subdivide(s, w)
    assert [p.linearization_count for p in sub.parts] == [2, 1, 1, 1, 1]
    assert part_table(sub) == naive_subdivide(s, w)
    assert len(enumerations) == 1
    assert len(lifts) == 2 * 6


def test_missed_part_trips_the_count(monkeypatch):
    real = degeneration.wall_crossings
    monkeypatch.setattr(degeneration, "wall_crossings",
                        lambda *args: list(real(*args))[1:])
    s, w = walk_case()
    with pytest.raises(InternalClosureFailure, match="account for every linearization"):
        subdivide(s, w)


def test_equal_interior_lifts_trip_the_distinctness_check(monkeypatch):
    real = degeneration.linear_extension_indices
    monkeypatch.setattr(degeneration, "linear_extension_indices",
                        lambda poset: [ext for ext in real(poset) for _ in (0, 1)])
    s = order_structure(antichain_poset(["a", "b"]))
    with pytest.raises(InternalClosureFailure, match="share an affine lift"):
        subdivide(s, canonical_interior_weight(s))


def test_two_sided_lift_trips_the_regularity_check(monkeypatch):
    # a weight outside both cones, let past the cone test as a boundary one
    s = order_structure(antichain_poset(["a", "b", "c"]))
    w = [0] * len(s.lattice)
    w[key(s, ["a"])] = 5
    w[key(s, ["b"])] = -5
    pairs = incomparable_pairs(s.lattice)
    monkeypatch.setattr(degeneration, "cone_position",
                        lambda structure, values: ConePosition("boundary", (), pairs[:1],
                                                               len(pairs)))
    with pytest.raises(InternalClosureFailure, match="both sides"):
        subdivide(s, w)


def test_subdivide_negated_weight_evaluates_the_cone_once(monkeypatch):
    calls = counted(monkeypatch, degeneration, "cone_position")
    for s in (order_structure(grid33()), chain_structure(grid22())):
        w = canonical_interior_weight(s)
        plus = subdivide(s, w)
        calls.clear()
        minus = subdivide(s, -w)
        assert len(calls) == 1
        assert [(p.sublattice, p.order, p.linearization_count) for p in minus.parts] == [
            (p.sublattice, p.order, p.linearization_count) for p in plus.parts
        ]
        assert [part_affine(p) for p in minus.parts] == [
            (tuple(-x for x in a), -b) for a, b in map(part_affine, plus.parts)
        ]


def test_subdivide_soundness_sampled():
    rng = random.Random(99)
    structures = []
    for poset in (grid22(), antichain_poset(["a", "b", "c"])):
        structures.append(order_structure(poset))
        structures.append(chain_structure(poset))
    for s in structures:
        exts = len(linear_extension_indices(s.poset))
        for _ in range(25):
            w = sample_cone_weight(s, rng)
            assert cone_position(s, w).position in ("interior", "boundary")
            sub = subdivide(s, w)
            assert sum(p.linearization_count for p in sub.parts) == exts
            affines = set(map(part_affine, sub.parts))
            assert len(affines) == len(sub.parts)
            for part in sub.parts:
                assert s.poset.is_weaker_than(part.order)
                sizes = {bin(s.lattice.masks[i]).count("1") for i in part.sublattice}
                assert sizes == set(range(s.poset.n + 1))


def test_subdivide_refinement_after_canonical_push():
    # parts of a boundary weight are unions of parts of the pushed weight
    rng = random.Random(123)
    s = chain_structure(grid22())
    for _ in range(10):
        raw = [Fraction(rng.randint(-4, 4)) for _ in s.lattice.masks]
        t = minimal_cone_shift(s, raw)
        canon = canonical_interior_weight(s)
        w = [r + t * c for r, c in zip(raw, canon.values)]
        coarse = subdivide(s, w)
        eps = Fraction(1, 1 + max(abs(int(v)) for v in w) if w else 1)
        fine = subdivide(s, [v + eps * c for v, c in zip(w, canon.values)])
        fine_sets = [set(p.sublattice) for p in fine.parts]
        for part in coarse.parts:
            inside = [f for f in fine_sets if f <= set(part.sublattice)]
            assert set().union(*inside) == set(part.sublattice)


def test_zhu_components_zero_weight():
    s = chain_structure(grid22())
    sub, comps = zhu_components(s, [0] * len(s.lattice))
    assert len(comps) == 1
    assert comps[0].vanishing == ()
    assert comps[0].presentation.generators == ideal_presentation(s, "relative").generators


def test_zhu_components_canonical_weight():
    s = chain_structure(grid22())
    w = canonical_interior_weight(s)
    sub, comps = zhu_components(s, w)
    total = len(s.lattice)
    for comp in comps:
        assert len(comp.presentation) == 0  # chains have no incomparable pairs
        assert len(comp.vanishing) == total - (s.poset.n + 1)
    assert len(comps) == len(linear_extension_indices(s.poset))


def test_standard_monomial_counts():
    for poset in small_poset_corpus(4):
        s = order_structure(poset)
        assert s.lattice.multichain_count(1) == len(s.lattice)
    chain2 = order_structure(chain_poset(["a", "b"]))
    assert chain2.lattice.multichain_count(2) == 6
    square = order_structure(antichain_poset(["a", "b"]))
    assert square.lattice.multichain_count(2) == 9


def test_standard_monomials_match_ehrhart():
    for poset in small_poset_corpus(4):
        for s in valid_weak_structures(poset):
            values = ehrhart_values(s, 3)
            assert values == [s.lattice.multichain_count(m) for m in range(4)]


def test_sample_cone_weight_lands_in_cone():
    rng = random.Random(5)
    for poset in small_poset_corpus(3):
        s = order_structure(poset)
        for _ in range(20):
            w = sample_cone_weight(s, rng)
            assert cone_position(s, w).position in ("interior", "boundary")


def test_weight_vector_negation():
    w = WeightVector([1, 2, Fraction(1, 2)])
    assert (-w).values == (-1, -2, Fraction(-1, 2))
