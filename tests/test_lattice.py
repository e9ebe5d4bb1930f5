import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from posetdegen import (
    antichain_poset,
    build_poset,
    chain_poset,
    chain_structure,
    cone_position,
    enumerate_ideals,
    ideal_presentation,
    order_structure,
    sublattice_to_order,
)
from posetdegen import lattice as lattice_module
from posetdegen.errors import (
    ConditionViolated,
    InternalClosureFailure,
    ValidationError,
)
from posetdegen.lattice import pair_stars, star, star_closure_failure, two_generated_star_failure
from posetdegen.posets import (
    Poset,
    RelativeStructure,
    linear_extension_indices,
    mask_bits,
    transitive_closure,
    validate_relative_structure,
)

from conftest import (
    counted,
    incomparable_pairs,
    make_poset,
    max_antichain,
    naive_enumerate_ideals,
    naive_prescribed_multichain_count,
    naive_star_closure_failure,
    random_poset,
    small_poset_corpus,
    star_mask,
    stronger_orders,
    valid_weak_structures,
    weaker_order_rows,
)


def test_ideal_counts():
    assert len(enumerate_ideals(antichain_poset(["a", "b"]))) == 4
    for n in range(1, 6):
        assert len(enumerate_ideals(chain_poset([f"c{i}" for i in range(n)]))) == n + 1
    assert len(enumerate_ideals(antichain_poset(list("abcde")))) == 32


def test_grid_ideal_count_is_binomial():
    # P_2 for n=5 is the 2x3 grid; its ideals count C(5,2) = 10
    elements = [f"p{i}.{j}" for i in (1, 2) for j in (3, 4, 5)]
    covers = [
        ("p1.3", "p1.4"), ("p1.4", "p1.5"), ("p2.3", "p2.4"), ("p2.4", "p2.5"),
        ("p1.3", "p2.3"), ("p1.4", "p2.4"), ("p1.5", "p2.5"),
    ]
    assert len(enumerate_ideals(build_poset(elements, covers))) == 10


def unlatticed(poset):
    """A structure over `poset` with trivial <' and no lattice built yet."""
    return RelativeStructure(poset, (0,) * poset.n)


@st.composite
def posets(draw, max_n=9):
    """A poset on up to `max_n` elements, indexed in a random order, so that
    index order need not be a linear extension."""
    n = draw(st.integers(0, max_n))
    rank = draw(st.permutations(range(n)))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[rank[i]] |= 1 << rank[j]
    return make_poset(n, transitive_closure(rows, n))


def test_enumerate_ideals_matches_the_dfs_oracle_on_the_corpus():
    for poset in small_poset_corpus(5):
        masks = naive_enumerate_ideals(poset)
        assert enumerate_ideals(poset).masks == masks
        assert unlatticed(poset).ideal_count == len(masks)


@settings(max_examples=200, deadline=None)
@given(poset=posets())
def test_enumerate_ideals_and_ideal_count_match_the_dfs_oracle(poset):
    masks = naive_enumerate_ideals(poset)
    assert enumerate_ideals(poset).masks == masks
    assert unlatticed(poset).ideal_count == len(masks)


def test_ideal_count_of_disjoint_unions_lists_no_ideal_of_the_union(monkeypatch):
    rng = random.Random(21)
    for _ in range(60):
        parts = [random_poset(rng, rng.randint(1, 5), rng.choice([0.0, 0.4, 1.0]))
                 for _ in range(rng.randint(2, 4))]
        n = sum(part.n for part in parts)
        place = rng.sample(range(n), n)  # each part's elements, scattered
        rows = [0] * n
        start = 0
        for part in parts:
            for i, row in enumerate(part.above):
                rows[place[start + i]] = sum(1 << place[start + j] for j in mask_bits(row))
            start += part.n
        union = make_poset(n, rows)
        expected = prod(len(enumerate_ideals(part)) for part in parts)
        assert len(enumerate_ideals(union)) == expected
        calls = counted(monkeypatch, lattice_module, "enumerate_ideals")
        s = unlatticed(union)
        assert s.ideal_count == expected
        assert "lattice" not in vars(s)
        assert all(poset.n < n for poset, in calls)
        monkeypatch.undo()
        assert s.ideal_count == len(s.lattice)


def test_ideal_count_of_a_connected_poset_keeps_its_lattice():
    s = unlatticed(make_poset(3, (0b110, 0, 0)))
    assert s.ideal_count == 5
    assert vars(s)["lattice"].masks == naive_enumerate_ideals(s.poset)


def test_pair_stars_match_star_and_the_definition():
    for poset in small_poset_corpus(5):
        for s in valid_weak_structures(poset):
            lat = s.lattice
            rows = list(pair_stars(s))
            assert [(a, b) for a, b, _, _ in rows] == incomparable_pairs(lat)
            for a, b, union, st_ab in rows:
                m1, m2 = lat.masks[a], lat.masks[b]
                assert lat.masks[union] == m1 | m2
                assert st_ab == star(a, b, s)
                assert lat.masks[st_ab] == star_mask(m1, m2, s)


def test_a_star_that_leaves_the_lattice_raises_the_one_line_error(monkeypatch):
    grid = build_poset(["a", "b", "c", "d"],
                       [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    s = chain_structure(grid)
    lat = s.lattice
    a, b = incomparable_pairs(lat)[0]
    monkeypatch.setattr(RelativeStructure, "weak_down_closure", lambda self, mask: 1 << 3)
    with pytest.raises(InternalClosureFailure) as single:
        star(a, b, s)
    message = "star of 'a,b' and 'a,c' left the lattice"
    assert str(single.value) == message
    for scan in (lambda: list(pair_stars(s)), lambda: cone_position(s, [0] * len(lat)),
                 lambda: ideal_presentation(s, "relative")):
        with pytest.raises(InternalClosureFailure) as info:
            scan()
        assert str(info.value) == message


def test_keys_are_the_label_keys():
    rng = random.Random(7)
    names = ["a", "b10", "b2", "B", "é", "z", "ab", "a1", "a10", "a2", "x.y", "0"]
    for _ in range(40):
        n = rng.randint(0, len(names))
        poset = random_poset(rng, n, rng.choice([0.0, 0.3]))
        lat = enumerate_ideals(Poset(rng.sample(names, n), poset.above))
        assert lat.keys == tuple(lat.label_key(i) for i in range(len(lat)))


def test_lattice_sorted_and_closed():
    for poset in small_poset_corpus(4):
        lat = enumerate_ideals(poset)
        keys = [(bin(m).count("1"), m) for m in lat.masks]
        assert keys == sorted(keys)
        assert 0 in lat.position and poset.full in lat.position
        for a in lat.masks:
            for b in lat.masks:
                assert (a | b) in lat.position and (a & b) in lat.position


def test_max_antichain():
    chain = chain_poset(["a", "b"])
    assert max_antichain(0, chain.above) == 0
    assert max_antichain(0b11, chain.above) == 0b10  # {a,b} -> {b}
    trivial = (0, 0)
    assert max_antichain(0b11, trivial) == 0b11  # trivial order keeps everything


def test_star_trivial_weak_order_is_intersection():
    for poset in small_poset_corpus(4):
        s = order_structure(poset)
        lat = s.lattice
        for a in range(len(lat)):
            for b in range(len(lat)):
                assert star_mask(lat.masks[a], lat.masks[b], s) == lat.masks[a] & lat.masks[b]


def test_star_nested_is_smaller_ideal():
    for poset in small_poset_corpus(4):
        for s in valid_weak_structures(poset):
            lat = s.lattice
            for a in range(len(lat)):
                for b in range(len(lat)):
                    if lat.masks[a] & ~lat.masks[b] == 0:
                        assert star_mask(lat.masks[a], lat.masks[b], s) == lat.masks[a]


def test_star_empty_meet():
    s = chain_structure(antichain_poset(["a", "b"]))
    lat = s.lattice
    a = lat.position[0b01]
    b = lat.position[0b10]
    assert star(a, b, s) == lat.position[0]


def test_star_indicator_identity_exhaustive():
    # 1_{max'J1} + 1_{max'J2} == 1_{max'(J1 u J2)} + 1_{max'(J1 * J2)}
    for poset in small_poset_corpus(5):
        for s in valid_weak_structures(poset):
            lat = s.lattice
            for a, b in incomparable_pairs(lat):
                m1, m2 = lat.masks[a], lat.masks[b]
                left = [0] * poset.n
                for m in (s.max_weak(m1), s.max_weak(m2)):
                    for i in range(poset.n):
                        left[i] += m >> i & 1
                right = [0] * poset.n
                for m in (s.max_weak(m1 | m2), s.max_weak(star_mask(m1, m2, s))):
                    for i in range(poset.n):
                        right[i] += m >> i & 1
                assert left == right


def test_star_closure_failure_matches_pairwise_oracle():
    # every weaker order on every poset with at most 5 elements, valid or not
    failures = 0
    for poset in small_poset_corpus(5):
        lat = enumerate_ideals(poset)
        for rows in weaker_order_rows(poset):
            s = RelativeStructure(poset, rows)
            s.__dict__["lattice"] = lat
            expected = naive_star_closure_failure(s)
            assert star_closure_failure(s) == expected
            weak = [
                (poset.elements[i], poset.elements[j])
                for i in range(poset.n) for j in mask_bits(rows[i])
            ]
            if expected is None:
                validate_relative_structure(poset, weak)
                continue
            failures += 1
            with pytest.raises(ConditionViolated) as info:
                validate_relative_structure(poset, weak)
            assert info.value.condition == "ii"
            assert info.value.witness == tuple(lat.label_key(p) for p in expected)
            assert str(info.value) == (
                "condition ii violated: ideal lattice is not closed under the star operation"
            )
    assert failures > 0


def assert_certificate_agrees(s, scan=naive_star_closure_failure):
    """The two-generated certificate fails exactly when the pair scan does, a
    triple it names is a pair whose star is not an ideal, and a failure is
    reported as the naive oracle's first pair."""
    found = two_generated_star_failure(s)
    assert (found is None) == (scan(s) is None)
    if found is not None:
        z, a, b = found
        down = s.poset.down_closure
        m1, m2 = down(1 << z | 1 << a), down(1 << z | 1 << b)
        assert star_mask(m1, m2, s) not in s.lattice.position
        assert star_closure_failure(s) == naive_star_closure_failure(s)
    return found is not None


def test_two_generated_certificate_matches_scan_on_small_posets():
    # every weaker order on every poset with at most 5 elements, valid or not
    failures = 0
    for poset in small_poset_corpus(5):
        lat = enumerate_ideals(poset)
        for rows in weaker_order_rows(poset):
            s = RelativeStructure(poset, rows)
            s.__dict__["lattice"] = lat
            failures += assert_certificate_agrees(s)
    assert failures > 0


def test_two_generated_certificate_matches_scan_on_a_seeded_sample():
    rng = random.Random(20211209)
    failures = 0
    for _ in range(2000):
        n = rng.randint(7, 10)
        poset = random_poset(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7]))
        keep = rng.choice([0.25, 0.5, 0.75])
        rows = [0] * n
        for i in range(n):
            for j in mask_bits(poset.above[i]):
                if rng.random() < keep:
                    rows[i] |= 1 << j
        s = RelativeStructure(poset, transitive_closure(rows, n))
        failures += assert_certificate_agrees(s, lattice_module.first_star_failure)
    assert 200 < failures < 1800


def test_matching_with_a_link_validates_without_the_pair_scan(monkeypatch):
    # six pairs a_k < b_k, <' on three of them, and a0 < b3 linking a <'-pair
    # to a plain one: 648 ideals, so 209,628 pairs against 792 two-generated ones
    labels = [x for k in range(6) for x in (f"a{k}", f"b{k}")]
    covers = [(f"a{k}", f"b{k}") for k in range(6)] + [("a0", "b3")]
    weak = [(f"a{k}", f"b{k}") for k in range(3)]
    poset = build_poset(labels, covers)
    s = validate_relative_structure(poset, weak)
    assert len(s.lattice) == 648
    assert naive_star_closure_failure(s) is None

    def refuse(structure):
        raise AssertionError("pair scan called")

    monkeypatch.setattr(lattice_module, "first_star_failure", refuse)
    assert validate_relative_structure(poset, weak).weak_above == s.weak_above


def test_trivial_and_equal_weak_orders_validate_without_star_work(monkeypatch):
    calls = []
    real_max_weak = RelativeStructure.max_weak
    real_closure = RelativeStructure.weak_down_closure

    def counted_max_weak(self, mask):
        calls.append("max_weak")
        return real_max_weak(self, mask)

    def counted_closure(self, mask):
        calls.append("weak_down_closure")
        return real_closure(self, mask)

    monkeypatch.setattr(RelativeStructure, "max_weak", counted_max_weak)
    monkeypatch.setattr(RelativeStructure, "weak_down_closure", counted_closure)
    cells = [f"p{i}.{j}" for i in range(4) for j in range(4)]
    covers = [(f"p{i}.{j}", f"p{i + 1}.{j}") for i in range(3) for j in range(4)]
    covers += [(f"p{i}.{j}", f"p{i}.{j + 1}") for i in range(4) for j in range(3)]
    grid = build_poset(cells, covers)
    order_structure(grid)
    chain_structure(grid)
    assert calls == []
    # a weak order strictly between the two does reach the counted closure
    matching = build_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    validate_relative_structure(matching, [("a", "b")])
    assert "weak_down_closure" in calls


def test_sublattice_to_order_identity():
    for poset in small_poset_corpus(4):
        lat = enumerate_ideals(poset)
        assert sublattice_to_order(lat.masks, poset) == poset


def test_sublattice_to_order_maximal_chain_gives_linearization():
    poset = antichain_poset(["a", "b", "c"])
    for ext in linear_extension_indices(poset):
        chain = [0]
        cur = 0
        for i in ext:
            cur |= 1 << i
            chain.append(cur)
        order = sublattice_to_order(chain, poset)
        for x, y in zip(ext, ext[1:]):
            assert order.less(x, y)


def test_sublattice_to_order_two_element_example():
    poset = antichain_poset(["a", "b"])
    order = sublattice_to_order([0b00, 0b01, 0b11], poset)
    assert order.less(0, 1)


def test_sublattice_roundtrip_on_stronger_orders():
    for poset in small_poset_corpus(4):
        for stronger in stronger_orders(poset):
            masks = enumerate_ideals(stronger).masks
            assert sublattice_to_order(masks, poset) == stronger


def test_sublattice_errors():
    poset = antichain_poset(["a", "b"])
    with pytest.raises(ValidationError, match="not closed under union/intersection"):
        sublattice_to_order([0b00, 0b01, 0b10], poset)  # missing the union
    with pytest.raises(ValidationError, match="height 2, expected 3"):
        sublattice_to_order([0b00, 0b11], poset)


ABC = antichain_poset(["a", "b", "c"])
A_B_C = chain_poset(["a", "b", "c"])
SUBLATTICE_CASES = {
    # {a} | {b} is missing although every height is present
    "not-closed": (ABC, [0b000, 0b001, 0b010, 0b101, 0b111], ValidationError,
                   "not closed under union/intersection"),
    "closed-but-short": (ABC, [0b000, 0b111], ValidationError, "height 2, expected 4"),
    # b and c enter together: the recovered relation has the cycle b < c < b
    "cycle": (ABC, [0b000, 0b001, 0b110, 0b111], ValidationError,
              "does not reproduce the sublattice"),
    # c before b before a: a chain of sets, but not of ideals of a < b < c
    "not-ideals": (A_B_C, [0b000, 0b100, 0b110, 0b111], ValidationError,
                   "not stronger than the base order"),
    "whole-lattice": (ABC, enumerate_ideals(ABC).masks, ABC, None),
    "maximal-chain": (ABC, [0b000, 0b010, 0b011, 0b111],
                      build_poset(["a", "b", "c"], [("b", "a"), ("a", "c")]), None),
}


@pytest.mark.parametrize(
    "poset,masks,expected,message", SUBLATTICE_CASES.values(), ids=SUBLATTICE_CASES.keys()
)
def test_sublattice_to_order_outcomes(poset, masks, expected, message):
    if message is None:
        assert sublattice_to_order(masks, poset) == expected
        return
    with pytest.raises(expected, match=message) as info:
        sublattice_to_order(masks, poset)
    assert type(info.value) is expected


def test_zeta_multichain_count_matches_superset_dp():
    # every poset with at most 5 elements: unmarked counts, and counts with a
    # random marked set under random requirements and under the marked parts
    # of a random multichain (never empty)
    rng = random.Random(5)
    for poset in small_poset_corpus(5):
        lat = enumerate_ideals(poset)
        for m in range(5):
            assert lat.multichain_count(m) == naive_prescribed_multichain_count(lat, 0, [0] * m)
        extensions = linear_extension_indices(poset)
        for _ in range(4):
            marked = rng.getrandbits(poset.n)
            parts = sorted({mask & marked for mask in lat.masks})
            ext = rng.choice(extensions)
            sizes = sorted(rng.randrange(poset.n + 1) for _ in range(rng.randrange(6)))
            chain = [sum(1 << p for p in ext[:k]) & marked for k in sizes]
            drawn = [rng.choice(parts) for _ in range(rng.randrange(6))]
            for reqs in (chain, drawn):
                count = lat.prescribed_multichain_count(marked, reqs)
                assert count == naive_prescribed_multichain_count(lat, marked, reqs)
                assert count or reqs is drawn


def test_maximal_chain_count_equals_extensions():
    for poset in small_poset_corpus(5):
        lat = enumerate_ideals(poset)
        assert lat.maximal_chain_count() == len(linear_extension_indices(poset))
