import random

import pytest

from posetdegen import (
    antichain_poset,
    build_poset,
    chain_poset,
    chain_structure,
    order_structure,
    validate_relative_structure,
)
from posetdegen.errors import ConditionViolated, CycleDetected, DuplicateLabel, UnknownLabel
from posetdegen.posets import linear_extension_indices, mask_bits

from conftest import (
    brute_force_extensions,
    linear_extensions,
    naive_covers,
    naive_mask_bits,
    random_poset,
    recursive_linear_extension_indices,
    small_poset_corpus,
    stronger_orders,
)


def grid(rows, cols):
    elements = [f"p{i}.{j}" for i in range(1, rows + 1) for j in range(1, cols + 1)]
    covers = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if j < cols:
                covers.append((f"p{i}.{j}", f"p{i}.{j + 1}"))
            if i < rows:
                covers.append((f"p{i}.{j}", f"p{i + 1}.{j}"))
    return build_poset(elements, covers)


def test_build_chain():
    p = build_poset(["a", "b"], [("a", "b")])
    assert p.less(0, 1) and not p.less(1, 0)
    assert sum(bin(m).count("1") for m in p.above) == 1


def test_build_antichain():
    p = build_poset(["a", "b"], [])
    assert p.above == (0, 0)


def test_build_transitive_closure():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.less(0, 2)


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        build_poset(["a", "a"], [])


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        build_poset(["a"], [("a", "b")])


def test_cycle_detected_names_cycle():
    with pytest.raises(CycleDetected) as info:
        build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert set(info.value.cycle) == {"a", "b", "c"}


def test_linear_extensions_antichain():
    assert len(linear_extensions(antichain_poset(["a", "b"]))) == 2


@pytest.mark.parametrize("rows,cols,expected", [(2, 2, 2), (2, 3, 5)])
def test_linear_extensions_grids_against_bruteforce(rows, cols, expected):
    p = grid(rows, cols)
    exts = linear_extensions(p)
    oracle = brute_force_extensions(p)
    assert len(exts) == expected
    assert sorted(exts) == sorted(oracle)


def test_linear_extensions_complete_on_corpus():
    for poset in small_poset_corpus(4):
        assert sorted(linear_extensions(poset)) == sorted(brute_force_extensions(poset))


def test_linear_extensions_keep_the_recursive_depth_first_order():
    rng = random.Random(16)
    posets = small_poset_corpus(5) + [grid(3, 4), grid(2, 7), antichain_poset([])] + [
        random_poset(rng, 8, density) for density in (0.2, 0.35, 0.5) for _ in range(20)]
    for poset in posets:
        assert linear_extension_indices(poset) == recursive_linear_extension_indices(poset)


def test_stronger_orders_counts():
    assert len(stronger_orders(chain_poset(["a", "b"]))) == 1
    assert len(stronger_orders(antichain_poset(["a", "b"]))) == 3
    assert len(stronger_orders(antichain_poset(["a", "b", "c"]))) == 19


def test_stronger_orders_contain_base():
    base = grid(2, 2)
    for stronger in stronger_orders(base):
        assert base.is_weaker_than(stronger)


def test_linear_extensions_are_the_total_stronger_orders():
    p = antichain_poset(["a", "b", "c"])
    totals = [
        q for q in stronger_orders(p)
        if all(q.less(i, j) or q.less(j, i) for i in range(3) for j in range(i + 1, 3))
    ]
    exts = linear_extensions(p)
    assert len(totals) == len(exts) == 6


def test_validate_order_and_chain_cases_everywhere():
    for poset in small_poset_corpus(4):
        order_structure(poset)
        chain_structure(poset)


def test_validate_condition_i():
    p = build_poset(["a", "b"], [])
    with pytest.raises(ConditionViolated) as info:
        validate_relative_structure(p, [("a", "b")])
    assert info.value.condition == "i"


def test_validate_condition_ii_witness():
    # p < z < q with z < x, z < y; dropping z <' q and keeping the rest makes
    # star({p,z,q,x}, {p,z,q,y}) the non-ideal {q}
    p = build_poset(
        ["p", "z", "q", "x", "y"],
        [("p", "z"), ("z", "q"), ("z", "x"), ("z", "y")],
    )
    with pytest.raises(ConditionViolated) as info:
        validate_relative_structure(p, [("p", "z"), ("z", "x"), ("z", "y")])
    assert info.value.condition == "ii"
    assert set(info.value.witness) == {"p,q,x,z", "p,q,y,z"}


def test_validate_condition_iii():
    p = build_poset(["a", "b"], [("a", "b")])
    with pytest.raises(ConditionViolated) as info:
        validate_relative_structure(p, [("a", "b")], {"a": 1, "b": 0})
    assert info.value.condition == "iii"
    assert info.value.witness == ("a", "b")


def test_validate_minmax():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(ConditionViolated) as info:
        validate_relative_structure(p, [], {"a": 1})
    assert info.value.condition == "minmax"


def test_validate_dominance():
    p = build_poset(["a", "b"], [("a", "b")])
    with pytest.raises(ConditionViolated) as info:
        validate_relative_structure(p, [], {"a": 0, "b": 1})
    assert info.value.condition == "dominance"


def test_validate_marked_antichain():
    p = antichain_poset(["a", "b"])
    s = validate_relative_structure(p, [], {"a": 2, "b": 1})
    assert sorted(mask_bits(s.marked)) == [0, 1]


def test_mask_bits_matches_shift_loop_oracle():
    for mask in range(1 << 12):
        assert mask_bits(mask) == naive_mask_bits(mask)
    rng = random.Random(64)
    for _ in range(3000):
        mask = rng.getrandbits(64) & rng.getrandbits(64) & rng.getrandbits(64)
        assert mask_bits(mask) == naive_mask_bits(mask)
        assert mask_bits(mask | 1 << 63) == naive_mask_bits(mask | 1 << 63)


def test_covers_match_triple_loop_oracle():
    rng = random.Random(8)
    posets = small_poset_corpus(5) + [random_poset(rng, 8, density) for density in
                                      (0.2, 0.35, 0.5) for _ in range(30)]
    for poset in posets:
        assert poset.covers() == naive_covers(poset)
