import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from posetdegen import (
    antichain_poset,
    build_flag_poset,
    build_mrpp,
    build_poset,
    chain_poset,
    ehrhart_values,
    fundamental_decomposition,
    mcop_build,
    mcop_recognize,
    mrpp_subdivide,
    standardize,
    validate_relative_structure,
)
from posetdegen import lattice as lattice_module, marked
from posetdegen.errors import (
    ConditionViolated,
    InternalClosureFailure,
    TheoremViolation,
    ValidationError,
)
from posetdegen.linalg import extreme_points
from posetdegen.marked import _mcop_inequalities, marked_vertices, mcop_split, mrpp_points
from posetdegen.posets import chain_structure, mask_bits, transitive_closure
from posetdegen.degeneration import canonical_interior_weight
from posetdegen.polytopes import indicator

from conftest import (
    counted,
    criterion_7_markings,
    fundamental_mrpp,
    gt_pattern_count,
    lattice_points,
    make_poset,
    marked_corpus_structures,
    max_antichain,
    naive_fundamental_decomposition,
    naive_mcop_box,
    naive_mcop_recognize,
    naive_mrpp_points,
    naive_section_counts,
    random_poset,
    sample_cone_weight,
    scaled_structure,
    shorten_part_sections,
    theta,
)


def marked_diamond(marking={"bot": 2, "top": 0}):
    poset = build_poset(
        ["bot", "x", "y", "top"], [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")]
    )
    return validate_relative_structure(poset, [], marking)


def marked_diamond_chain(marking={"bot": 2, "top": 0}):
    # <' keeps the relations with unmarked sources (the FFLV-style weakening)
    poset = build_poset(
        ["bot", "x", "y", "top"], [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")]
    )
    return validate_relative_structure(
        poset, [("x", "top"), ("y", "top")], marking
    )


def test_fundamental_decomposition_single_term():
    s = marked_diamond()
    fd = fundamental_decomposition(s)
    # lambda = (2, 0) on the chain bot < top decomposes as 2 * omega_{bot}
    assert fd.terms == ((1 << s.poset.index("bot"), 2),)
    assert fd.shift == 0
    assert len(fd.chain_masks()) == 3


def test_fundamental_decomposition_zero_marking():
    poset = chain_poset(["a", "b"])
    s = validate_relative_structure(poset, [], {"a": 0, "b": 0})
    fd = fundamental_decomposition(s)
    assert fd.terms == ()
    assert fd.chain_masks() == (0, s.marked)


def test_fundamental_decomposition_negative_shift():
    poset = chain_poset(["a", "b"])
    s = validate_relative_structure(poset, [], {"a": 1, "b": -1})
    fd = fundamental_decomposition(s)
    assert fd.shift == 1
    # lambda + omega_{P*} = (2, 0) = 2 * omega_{{a}}
    assert fd.terms == ((1 << poset.index("a"), 2),)


def test_fundamental_decomposition_sum_identity():
    # sum of alpha_K * omega_K equals lambda + shift * omega_{P*}
    rng = random.Random(17)
    for _ in range(20):
        poset = random_poset(rng, 5)
        marked = poset.minimals | poset.maximals
        height = [bin(poset.below[i]).count("1") for i in range(poset.n)]
        values = {
            poset.elements[i]: 2 - height[i] - rng.randint(0, 1)
            for i in mask_bits(marked)
        }
        s = validate_relative_structure(poset, [], values)
        fd = fundamental_decomposition(s)
        total = {i: 0 for i in mask_bits(marked)}
        for k, alpha in fd.terms:
            for i in mask_bits(k):
                total[i] += alpha
        for i in mask_bits(marked):
            assert total[i] == values[poset.elements[i]] + fd.shift


def test_fundamental_decomposition_matches_the_level_loop():
    # one term per distinct shifted value agrees with one layer per level,
    # and the chain of D(lambda) is that of the sorted term ideals
    rng = random.Random(25)
    for _ in range(150):
        poset = random_poset(rng, rng.randint(1, 6))
        marked_mask = poset.minimals | poset.maximals | rng.getrandbits(poset.n)
        raw = {i: rng.randint(-4, 6) for i in mask_bits(marked_mask)}
        # the largest raw value at or above an element keeps the marking dominant
        marking = {poset.elements[i]: max(v for j, v in raw.items()
                                          if j == i or poset.above[i] >> j & 1)
                   for i in raw}
        s = validate_relative_structure(poset, [], marking)
        for scale in (1, 3):
            fd = fundamental_decomposition(s, scale)
            terms, shift = naive_fundamental_decomposition(s, scale)
            assert (fd.terms, fd.shift) == (terms, shift)
            masks = {0, s.marked, *(k for k, _ in terms)}
            assert fd.chain_masks() == tuple(sorted(masks, key=lambda m: bin(m).count("1")))


def test_fundamental_mrpp_extremes():
    s = marked_diamond()
    p = s.poset
    empty = fundamental_mrpp(s, 0)
    assert empty.points == ((0, 0, 0, 0),)
    full = fundamental_mrpp(s, s.marked)
    assert full.points == (indicator(s.max_weak(p.full), p.n),)


def test_fundamental_mrpp_is_marked_layer():
    s = marked_diamond()
    k = 1 << s.poset.index("bot")
    layer = fundamental_mrpp(s, k)
    for point in layer.points:
        assert point[s.poset.index("bot")] == 1
        assert point[s.poset.index("top")] == 0


def test_build_mrpp_matches_fundamental_for_omega_k():
    poset = build_poset(["m0", "u", "m1"], [("m0", "u"), ("u", "m1")])
    s = validate_relative_structure(poset, [], {"m0": 1, "m1": 0})
    fd = fundamental_decomposition(s)
    assert fd.terms == ((1 << poset.index("m0"), 1),)
    assert build_mrpp(s).points == fundamental_mrpp(s, 1 << poset.index("m0")).points


def test_build_mrpp_zero_marking_is_origin():
    poset = chain_poset(["a", "b"])
    s = validate_relative_structure(poset, [], {"a": 0, "b": 0})
    assert build_mrpp(s).points == ((0, 0),)


def test_minkowski_decomposition_small():
    # R_lambda equals the Minkowski sum of its fundamental pieces
    s = marked_diamond_chain()
    fd = fundamental_decomposition(s)
    total = {(0,) * s.poset.n}
    for k, alpha in fd.terms:
        piece = fundamental_mrpp(s, k).points
        for _ in range(alpha):
            total = {tuple(a + b for a, b in zip(x, y)) for x in total for y in piece}
    assert set(build_mrpp(s).points) == total


def test_mrpp_dilation_is_scaled_marking():
    # m * R_lambda = R_{m lambda} at the lattice-point level
    s = marked_diamond_chain()
    base = set(build_mrpp(s).points)
    for m in (2, 3):
        scaled = set(mrpp_points(s, m))
        minkowski = {(0,) * s.poset.n}
        for _ in range(m):
            minkowski = {
                tuple(a + b for a, b in zip(x, y)) for x in minkowski for y in base
            }
        assert scaled == minkowski


def test_mrpp_points_match_naive_recursion():
    cases = []
    for make in (marked_diamond, marked_diamond_chain):
        cases += [(make(), m) for m in (1, 2, 3)]
        cases.append((make({"bot": 70, "top": 0}), 1))  # 70 steps in one byte
        cases.append((make({"bot": 3, "top": -2}), 2))  # negative shift
    for n in (2, 3, 4):
        for r in range(n):
            for inner in combinations(range(1, n), r):
                f = build_flag_poset(n, (0, *inner, n))
                cases += [(f.structure(mode), m) for mode in ("gt", "fflv") for m in (1, 2)]
    for s, m in cases:
        assert mrpp_points(s, m) == naive_mrpp_points(s, m)


def test_marked_ehrhart_counts_match_naive_points():
    # the filtered multichain DP against the tuple-list recursion at scales
    # 0-2, on the marked corpus and on every flag with n <= 4
    cases = marked_corpus_structures()
    for n in range(1, 5):
        for r in range(n):
            for inner in combinations(range(1, n), r):
                f = build_flag_poset(n, (0, *inner, n))
                cases += [f.structure(mode) for mode in ("gt", "fflv")]
    for s in cases:
        assert ehrhart_values(s, 2) == [len(naive_mrpp_points(s, m)) for m in range(3)]


def test_mrpp_ehrhart_independent_of_weak_order():
    # marked structures over the same poset and marking have equal counts
    rng = random.Random(31)
    for _ in range(10):
        poset = random_poset(rng, 5)
        marked = poset.minimals | poset.maximals
        labels = {poset.elements[i]: 2 for i in mask_bits(marked & poset.minimals)}
        labels.update(
            {poset.elements[i]: 0 for i in mask_bits(marked & ~poset.minimals)}
        )
        free = [i for i in range(poset.n) if not marked >> i & 1]
        weak_variants = []
        for obits in range(1 << len(free)):
            keep_src = [free[k] for k in range(len(free)) if not obits >> k & 1]
            pairs = [
                (poset.elements[i], poset.elements[j])
                for i in keep_src
                for j in mask_bits(poset.above[i])
            ]
            weak_variants.append(validate_relative_structure(poset, pairs, labels))
        counts = {
            tuple(len(mrpp_points(s, m)) for m in (1, 2, 3)) for s in weak_variants
        }
        assert len(counts) == 1


def test_gl3_adjoint_count_with_gt_oracle():
    # full flag of gl_3, marking (3,2,1): 8 points, matching GT patterns for (2,1,0)
    poset = build_poset(
        ["p1.1", "p1.2", "p2.2", "p1.3", "p2.3", "p3.3"],
        [
            ("p1.1", "p1.2"), ("p1.2", "p2.2"), ("p1.2", "p1.3"),
            ("p2.2", "p2.3"), ("p1.3", "p2.3"), ("p2.3", "p3.3"),
        ],
    )
    s = validate_relative_structure(poset, [], {"p1.1": 3, "p2.2": 2, "p3.3": 1})
    assert len(build_mrpp(s).points) == 8 == gt_pattern_count((2, 1, 0))


def test_standardize_identity_on_standard():
    s = marked_diamond()
    std = standardize(s)
    assert std.is_identity
    assert std.quotient.poset.elements == s.poset.elements


def test_standardize_collapses_gap_markings():
    poset = build_poset(
        ["m1", "u", "m2", "m3"], [("m1", "u"), ("u", "m2"), ("m2", "m3")]
    )
    s = validate_relative_structure(poset, [], {"m1": 1, "m2": 1, "m3": 0})
    std = standardize(s)
    classes = [
        sorted(poset.elements[i] for i in mask_bits(m)) for m in std.class_masks
    ]
    assert ["m1", "m2", "u"] in classes
    assert not std.is_identity


def test_standardize_theta_bijection_random():
    rng = random.Random(7)
    for _ in range(12):
        poset = random_poset(rng, 5)
        marked = poset.minimals | poset.maximals
        for i in range(poset.n):
            if not marked >> i & 1 and rng.random() < 0.3:
                marked |= 1 << i
        # dominance holds because values strictly decrease with ideal height
        height = [bin(poset.below[i]).count("1") for i in range(poset.n)]
        values = {
            poset.elements[i]: max(0, 3 - height[i] - rng.randint(0, 1))
            for i in mask_bits(marked)
        }
        s = validate_relative_structure(poset, [], values)
        std = standardize(s)
        for m in (1, 2, 3):
            pts = mrpp_points(s, m)
            qpts = mrpp_points(std.quotient, m)
            image = sorted(theta(std, p) for p in pts)
            assert image == sorted(qpts)
            assert len(set(image)) == len(pts)


def test_fundexample_embedding_and_collapse():
    # the relative polytope of Q is the fundamental MRPP of Q + {p0, p1}
    q_elems = ["a", "b", "c", "d"]
    q_covers = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    q_poset = build_poset(q_elems, q_covers)
    sq = chain_structure(q_poset)
    p_elems = ["p0"] + q_elems + ["p1"]
    p_covers = (
        q_covers
        + [("p0", e) for e in q_elems]
        + [(e, "p1") for e in q_elems]
    )
    p_poset = build_poset(p_elems, p_covers)
    sp = validate_relative_structure(p_poset, q_covers, {"p0": 1, "p1": 0})
    k = 1 << p_poset.index("p0")
    face = fundamental_mrpp(sp, k)
    projected = sorted(
        tuple(pt[p_poset.index(e)] for e in q_elems) for pt in face.points
    )
    assert projected == sorted(lattice_points(sq, 1))
    # reverse: the marked structure is standard, and theta keeps the Q block
    std = standardize(sp)
    assert std.is_identity
    mp = build_mrpp(sp)
    assert sorted(theta(std, p) for p in mp.points) == sorted(
        build_mrpp(std.quotient).points
    )


def test_mrpp_subdivide_enumerates_each_order_once(monkeypatch):
    # the quotient's ideals once (by standardize's validation), each walked
    # part's once (by subdivide's certificate); the sections reuse those
    # lattices
    f = build_flag_poset(5, (0, 2, 5))
    s = f.structure("fflv")
    std = standardize(s)
    fundamental = ",".join(sorted(["p1.2", "p1.3", "p1.4", "p1.5"]))
    notmcop = [int(s.lattice.label_key(pos) == fundamental) for pos in std.jlambda]
    canonical = canonical_interior_weight(std.quotient)
    interior = [canonical[q] for q in std.lattice_map]
    real = lattice_module.enumerate_ideals
    calls = []
    monkeypatch.setattr(lattice_module, "enumerate_ideals",
                        lambda poset: calls.append(poset) or real(poset))
    for w, parts, enumerations in ((notmcop, 2, 3), (interior, 5, 1)):
        calls.clear()
        assert len(mrpp_subdivide(standardize(s), w)) == parts
        assert len(calls) == len(set(calls)) == enumerations


def test_mcop_split_of_sections_and_mixed_rows():
    # the two parts of the Gr(2,5) FFLV degeneration are not MCOP-shaped, so
    # their vertices come from Wolfe's test; the sections of a GT
    # degeneration are marked order polytopes of <'' (all O), whose vertices
    # come from their tight-cover partitions and agree with Wolfe's test
    f = build_flag_poset(5, (0, 2, 5))
    s = f.structure("fflv")
    std = standardize(s)
    fundamental = ",".join(sorted(["p1.2", "p1.3", "p1.4", "p1.5"]))
    notmcop = [int(s.lattice.label_key(pos) == fundamental) for pos in std.jlambda]
    parts = mrpp_subdivide(std, notmcop)
    assert len(parts) == 2 and all(mcop_split(part.structure) is None for part in parts)
    s = build_flag_poset(4, (0, 1, 2, 3, 4)).structure("gt")
    std = standardize(s)
    canonical = canonical_interior_weight(std.quotient)
    free = std.quotient.poset.full & ~std.quotient.marked
    for w, count in (([canonical[q] for q in std.lattice_map], 12), ([0] * len(std.jlambda), 1)):
        parts = mrpp_subdivide(std, w)
        assert len(parts) == count
        for part in parts:
            assert mcop_split(part.structure) == (0, free)
            assert part.vertices == tuple(sorted(extreme_points(part.points)))
    # b's <'-row holds c but not d, above it in <: neither C nor O
    poset = chain_poset(["a", "b", "c", "d"])
    s = validate_relative_structure(poset, [("b", "c")], {"a": 1, "d": 0})
    assert mcop_split(s) is None
    assert mcop_split(validate_relative_structure(poset, [], {"a": 1, "d": 0})) == (0, 0b0110)
    poly = build_mrpp(s)
    assert poly.vertices == tuple(sorted(extreme_points(poly.points)))


def test_mrpp_subdivide_zero_single_part():
    s = marked_diamond_chain()
    std = standardize(s)
    sub = mrpp_subdivide(std, [0] * len(std.jlambda))
    assert len(sub) == 1
    assert set(sub[0].points) == set(build_mrpp(std.quotient).points)


def test_mrpp_subdivide_canonical_counts_sections():
    s = marked_diamond_chain()
    std = standardize(s)
    w = canonical_interior_weight(std.quotient)
    sub = mrpp_subdivide(std, [w[q] for q in std.lattice_map])
    assert len(sub) == 2  # two linearizations of the diamond, both full-dimensional
    covered = set()
    for part in sub:
        covered.update(part.points)
    assert covered == set(build_mrpp(std.quotient).points)


def test_mrpp_subdivide_lower_dimensional_section_raises(monkeypatch):
    # every section is full-dimensional by theory; an injected short one is a bug
    s = marked_diamond_chain()
    std = standardize(s)
    w = canonical_interior_weight(std.quotient)
    shorten_part_sections(monkeypatch)
    with pytest.raises(TheoremViolation, match="lower dimension"):
        mrpp_subdivide(std, [w[q] for q in std.lattice_map])


def test_mrpp_subdivide_lower_dimensional_walked_section_raises(monkeypatch):
    # a walked part's dimension is read off the runs of one linearization
    f = build_flag_poset(5, (0, 2, 5))
    s = f.structure("fflv")
    std = standardize(s)
    fundamental = ",".join(sorted(["p1.2", "p1.3", "p1.4", "p1.5"]))
    notmcop = [int(s.lattice.label_key(pos) == fundamental) for pos in std.jlambda]
    assert mrpp_subdivide(std, notmcop)[0].linearization is None
    shorten_part_sections(monkeypatch)
    with pytest.raises(TheoremViolation, match="lower dimension"):
        mrpp_subdivide(std, notmcop)


def doubled_first_multiplicity(monkeypatch):
    # every fine section's first run counted twice as often: the dimension
    # stays, the volume grows
    real = marked._section_runs

    def doubled(quotient, terms, chain):
        (d, k), *rest = real(quotient, terms, chain)
        return [(d, 2 * k), *rest]

    monkeypatch.setattr(marked, "_section_runs", doubled)


def whole_volume_off_by_one(monkeypatch):
    # the MRPP's Ehrhart count at dilation d one too large: its d-th
    # difference, the normalized volume, grows by one
    real = marked.ehrhart_values
    monkeypatch.setattr(marked, "ehrhart_values",
                        lambda structure, m: real(structure, m)[:-1] + [real(structure, m)[-1] + 1])


@pytest.mark.parametrize("inject", [doubled_first_multiplicity, whole_volume_off_by_one])
def test_mrpp_subdivide_volume_mismatch_raises(monkeypatch, inject):
    s = marked_diamond_chain()
    std = standardize(s)
    w = canonical_interior_weight(std.quotient)
    inject(monkeypatch)
    with pytest.raises(InternalClosureFailure, match="do not cover the marked polytope"):
        mrpp_subdivide(std, [w[q] for q in std.lattice_map])


def interior_sections(structure, rng=None):
    """The standardization of a marked structure and the parts of its
    quotient's subdivision under the canonical interior weight, or, with
    `rng`, under a sampled cone weight plus the canonical one, which is
    interior too."""
    std = standardize(structure)
    canonical = canonical_interior_weight(std.quotient)
    w = canonical
    if rng is not None:
        w = [x + c for x, c in zip(sample_cone_weight(std.quotient, rng), canonical)]
    return std, mrpp_subdivide(std, [w[q] for q in std.lattice_map])


def assert_counts_match_the_oracle(std, parts):
    """Each fine part's counts and run dimension equal those of its built
    section; returns how many parts have fewer vertices than points."""
    terms = dict(fundamental_decomposition(std.quotient).terms)
    fewer = 0
    for part in parts:
        assert part.linearization is not None
        runs = marked._section_runs(std.quotient, terms, part.sublattice)
        counts = (part.vertex_count, part.point_count, sum(d for d, _ in runs))
        assert counts == naive_section_counts(std.quotient, part)
        fewer += part.vertex_count < part.point_count
    return fewer


FLAG_CASES = [(n, tuple(range(n + 1)), mode) for n in (3, 4) for mode in ("gt", "fflv")] + [
    (4, (0, 2, 4), "gt"), (4, (0, 2, 4), "fflv"), (4, (0, 1, 3, 4), "gt"), (5, (0, 2, 5), "fflv")]


@pytest.mark.parametrize("n, dims, mode", FLAG_CASES)
def test_fine_section_counts_match_the_point_set_oracle_on_flags(n, dims, mode):
    # at marking scale 1 the full flags' runs all have k_r = 1, so vertices
    # and points agree; scales 2 and 3 give k_r > 1
    s = build_flag_poset(n, dims).structure(mode)
    for scale in (1, 2, 3):
        std, parts = interior_sections(scaled_structure(s, scale))
        fewer = assert_counts_match_the_oracle(std, parts)
        assert fewer == (0 if scale == 1 else len(parts))


def test_fine_section_counts_match_the_point_set_oracle_on_the_marked_corpus():
    checked = fewer = 0
    for s in marked_corpus_structures():
        for scale in (1, 2, 3):
            std, parts = interior_sections(scaled_structure(s, scale))
            fewer += assert_counts_match_the_oracle(std, parts)
            checked += len(parts)
    assert checked > 1000 and fewer > 100


@st.composite
def marked_structures(draw):
    """A poset on at most 6 elements with its extremal elements marked and
    others at random, a dominant marking (values fall with the number of
    elements below), a chain/order choice of <' for each free element and a
    marking scale in 1..3."""
    n = draw(st.integers(1, 6))
    above = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                above[i] |= 1 << j
    poset = make_poset(n, transitive_closure(above, n))
    marked_mask = poset.minimals | poset.maximals
    for i in range(n):
        if draw(st.booleans()):
            marked_mask |= 1 << i
    height = [bin(poset.below[i]).count("1") for i in range(n)]
    marking = {poset.elements[i]: max(0, 4 - height[i] - draw(st.integers(0, 1)))
               for i in mask_bits(marked_mask)}
    weak = [(poset.elements[i], poset.elements[j])
            for i in mask_bits(poset.full & ~marked_mask) if draw(st.booleans())
            for j in mask_bits(poset.above[i])]
    structure = validate_relative_structure(poset, weak, marking)
    return scaled_structure(structure, draw(st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(structure=marked_structures(), seed=st.integers(0, 2**16))
def test_fine_section_counts_match_the_point_set_oracle_on_random_structures(structure, seed):
    assert_counts_match_the_oracle(*interior_sections(structure))
    assert_counts_match_the_oracle(*interior_sections(structure, random.Random(seed)))


def test_fine_sections_build_no_point_set(monkeypatch):
    # the counts come from the chain; the whole MRPP is certified by its
    # Ehrhart counts, so no point set, vertex list or section structure is
    # made, and each is built on first access for a caller that asks
    s = build_flag_poset(4, (0, 1, 2, 3, 4)).structure("fflv")
    calls = [counted(monkeypatch, marked, name)
             for name in ("mrpp_points", "marked_vertices", "structure_of_part")]
    std, parts = interior_sections(s)
    assert [len(c) for c in calls] == [0, 0, 0]
    part = parts[0]
    assert len(part.points) == part.point_count and len(part.vertices) == part.vertex_count
    assert part.structure.poset == part.order
    assert [len(c) for c in calls] == [1, 1, 1]


def test_mrpp_subdivide_parts_sharing_a_restricted_lift_raise(monkeypatch):
    # lifts that differ only by a multiple of x_bot - lambda_bot agree on the
    # marked section, so two such parts would be one section twice
    s = marked_diamond_chain()
    std = standardize(s)
    bot = std.quotient.poset.index("bot")
    real = marked.subdivide

    def shared(structure, weights):
        parts = real(structure, weights)
        a, b = parts[0].lift
        parts[1].lift = (a[:bot] + (a[bot] + 1,) + a[bot + 1:], b - 2)
        return parts

    monkeypatch.setattr(marked, "subdivide", shared)
    w = canonical_interior_weight(std.quotient)
    with pytest.raises(InternalClosureFailure, match="share an affine lift"):
        mrpp_subdivide(std, [w[q] for q in std.lattice_map])


def test_mcop_marked_order_polytope_inequalities():
    poset = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    poly = mcop_build(poset, {"a": 2, "c": 0}, [], ["b"])
    assert sorted(poly.points) == [(2, 0, 0), (2, 1, 0), (2, 2, 0)]


def test_mcop_fundamental_vertices_formula():
    # for fundamental markings the vertices are 1_{A(J)},
    # A(J) = (J n (P* u O)) u max_< J
    poset = build_poset(
        ["bot", "x", "y", "top"], [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")]
    )
    marking = {"bot": 1, "top": 0}
    marked = (1 << poset.index("bot")) | (1 << poset.index("top"))
    k_mask = 1 << poset.index("bot")
    free = [poset.index("x"), poset.index("y")]
    from posetdegen.lattice import enumerate_ideals

    lat = enumerate_ideals(poset)
    for obits in range(4):
        o_idx = [free[k] for k in range(2) if obits >> k & 1]
        c_idx = [free[k] for k in range(2) if not obits >> k & 1]
        o_mask = sum(1 << i for i in o_idx)
        poly = mcop_build(
            poset,
            marking,
            [poset.elements[i] for i in c_idx],
            [poset.elements[i] for i in o_idx],
        )
        expected = set()
        for mask in lat.masks:
            if mask & marked == k_mask:
                a_of_j = (mask & (marked | o_mask)) | max_antichain(mask, poset.above)
                expected.add(indicator(a_of_j, poset.n))
        assert set(poly.points) == expected


def test_mcop_partition_and_dominance_errors():
    poset = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(ValidationError, match="C and O must partition the unmarked elements"):
        mcop_build(poset, {"a": 1, "c": 0}, ["b"], ["b"])
    # dominance is checked where construction (2) validates its structure
    with pytest.raises(ConditionViolated, match="condition dominance violated"):
        mcop_build(poset, {"a": 0, "c": 1}, ["b"], [])


def test_mcop_build_returns_the_checked_mrpp_points():
    # the sorted MRPP list itself, not the box search's depth-first order
    grid = build_poset(["a", "b", "c", "d", "e", "f"], [
        ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e"), ("d", "f"), ("e", "f")])
    # the elements listed top down: the box sets v before u
    chain = build_poset(["t", "u", "v", "b"], [("b", "v"), ("v", "u"), ("u", "t")])
    cases = [(grid, {"a": 2, "f": 0}, ["b", "c"], ["d", "e"]),
             (grid, {"a": 3, "c": 1, "f": -1}, ["b", "d"], ["e"]),
             (chain, {"b": 2, "t": 0}, [], ["u", "v"]),
             (chain, {"b": 2, "t": 0}, ["u"], ["v"])]
    for n, dims in ((3, (0, 1, 2, 3)), (4, (0, 2, 4))):
        f = build_flag_poset(n, dims)
        free = [e for i, e in enumerate(f.poset.elements) if not f.structure("gt").marked >> i & 1]
        cases += [(f.poset, f.marking, [], free), (f.poset, f.marking, free, [])]
    for poset, marking, chain_part, order_part in cases:
        poly = mcop_build(poset, marking, chain_part, order_part)
        assert poly.points == tuple(mrpp_points(poly.structure))


def is_subsequence(items, sequence):
    rest = iter(sequence)
    return all(item in rest for item in items)


def test_marked_vertices_keep_the_order_of_the_sorted_points():
    # each path (tight covers, rank of the MCOP rows, Wolfe) returns a
    # subsequence of its sorted points, so the vertices come out sorted
    f = build_flag_poset(4, (0, 1, 2, 3, 4))
    cases = []
    for mode, c_empty in (("gt", True), ("fflv", False)):
        s = f.structure(mode)
        assert (mcop_split(s)[0] == 0) == c_empty
        cases.append((s, mrpp_points(s)))
    s = build_flag_poset(5, (0, 2, 5)).structure("fflv")
    std = standardize(s)
    fundamental = ",".join(sorted(["p1.2", "p1.3", "p1.4", "p1.5"]))
    notmcop = [int(s.lattice.label_key(pos) == fundamental) for pos in std.jlambda]
    part = max(mrpp_subdivide(std, notmcop), key=lambda p: len(p.points))
    assert mcop_split(part.structure) is None
    cases.append((part.structure, part.points))
    for structure, points in cases:
        assert list(points) == sorted(set(points))
        vertices = marked_vertices(structure, points)
        assert len(vertices) > 1 and is_subsequence(vertices, points)


def test_mcop_recognize_order_and_chain():
    poset = build_poset(["a", "b", "c", "d"],
                        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    marking = {"a": 2, "d": 0}
    order_poly = mcop_build(poset, marking, [], ["b", "c"])
    s_order = validate_relative_structure(poset, [], marking)
    assert mcop_recognize(s_order, order_poly) is not None
    chain_pairs = [
        (poset.elements[i], poset.elements[j])
        for i in (poset.index("b"), poset.index("c"))
        for j in mask_bits(poset.above[i])
    ]
    s_chain = validate_relative_structure(poset, chain_pairs, marking)
    chain_poly = mcop_build(poset, marking, ["b", "c"], [])
    assert mcop_recognize(s_chain, chain_poly) is not None


PARTIAL_FLAGS = ((2, (0, 1, 2)), (3, (0, 1, 3)), (3, (0, 2, 3)), (3, (0, 1, 2, 3)),
                 (4, (0, 2, 4)), (4, (0, 1, 2, 4)), (4, (0, 1, 3, 4)))


def shuffled_flag_posets(seeds=(1, 2)):
    """The partial flag posets with n <= 4, their elements in seeded random
    orders, which are no longer linearizations, with their markings."""
    out = []
    for n, dims in PARTIAL_FLAGS:
        f = build_flag_poset(n, dims)
        relations = [(f.poset.elements[i], f.poset.elements[j])
                     for i in range(f.poset.n) for j in mask_bits(f.poset.above[i])]
        for seed in seeds:
            labels = list(f.poset.elements)
            random.Random(seed).shuffle(labels)
            out.append((build_poset(labels, relations), f.marking))
    return out


def test_mcop_pruned_box_matches_full_scan():
    # every chain/order split of the marked posets below, of the partial flag
    # posets with n <= 4 (the full n = 4 flag scans a 4^6 box per split), of
    # their shuffles and of criterion 7's corpus: the box search, which sets
    # the marked coordinates first, then the free ones along a linearization,
    # and checks only the chains of covers, keeps every point of the full
    # scan over all chains
    diamond = marked_diamond().poset
    square = build_poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    cases = [
        (diamond, {"bot": 2, "top": 0}),
        (diamond, {"bot": 3, "top": -2}),
        (square, {"a": 2, "d": 0}),
        (build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")]), {"a": 2, "c": 0}),
    ]
    for n, dims in PARTIAL_FLAGS:
        f = build_flag_poset(n, dims)
        cases.append((f.poset, f.marking))
    cases += shuffled_flag_posets()
    cases += [(poset, marking) for poset, marking, _ in criterion_7_markings(5)]
    for poset, marking in cases:
        free = [x for x in poset.elements if x not in marking]
        for r in range(len(free) + 1):
            for order_part in combinations(free, r):
                chain_part = [x for x in free if x not in order_part]
                poly = mcop_build(poset, marking, chain_part, order_part)
                assert poly.points == tuple(
                    naive_mcop_box(poset, marking, chain_part, order_part)
                )


def test_mcop_recognize_matches_bit_order_oracle():
    # every split's MCOP as the target, on criterion 7's corpus with n <= 4;
    # without one point, or with one marked coordinate moved, nothing matches
    cases = 0
    for poset, marking, splits in criterion_7_markings(4):
        for c_part, o_part in splits:
            built = mcop_build(poset, marking, c_part, o_part)
            found = mcop_recognize(built.structure, built)
            assert found is not None
            assert found == naive_mcop_recognize(built.structure, built)
            points = list(built.points)
            marked = poset.index(next(iter(marking)))
            moved = list(points[-1])
            moved[marked] += 1
            for target in (points[1:], points[:-1] + [tuple(moved)]):
                assert mcop_recognize(built.structure, target) is None
                assert naive_mcop_recognize(built.structure, target) is None
            cases += 1
    assert cases == 928


def test_mcop_recognize_matches_bit_order_oracle_on_shuffled_flags():
    # every split's MCOP as the target, on the partial flag posets with n <= 4
    # in element orders that are not linearizations
    for poset, marking in shuffled_flag_posets():
        free = [x for x in poset.elements if x not in marking]
        for r in range(len(free) + 1):
            for order_part in combinations(free, r):
                chain_part = [x for x in free if x not in order_part]
                built = mcop_build(poset, marking, chain_part, order_part)
                found = mcop_recognize(built.structure, built)
                assert found is not None
                assert found == naive_mcop_recognize(built.structure, built)


def test_mcop_recognize_on_the_shuffled_full_n5_fflv_flag():
    # every chain of the FFLV split has both anchors marked, so the box search
    # prunes on the sums over the mids set so far; the split and the 1024
    # points are those found when each chain was checked only once complete
    f = build_flag_poset(5, range(6))
    poset, weak = f.poset, f.structure("fflv").weak_above
    pairs = lambda rows: [(poset.elements[i], poset.elements[j])
                          for i in range(poset.n) for j in mask_bits(rows[i])]
    labels = list(poset.elements)
    random.Random(1).shuffle(labels)
    s = validate_relative_structure(build_poset(labels, pairs(poset.above)), pairs(weak),
                                    f.marking)
    target = build_mrpp(s)
    found = mcop_recognize(s, target)
    free = tuple(sorted(x for x in labels if x not in f.marking))
    assert found == (free, ()) and len(free) == 10
    built = mcop_build(s.poset, f.marking, *found)
    assert built.points == target.points and len(built.points) == 1024


def test_mcop_inequalities_are_the_chains_of_covers():
    # the system of all chains has 40 (GT) and 70 (FFLV) rows for n = 4,
    # 90 and 480 for n = 5
    for n, counts in ((4, (12, 7)), (5, (20, 16))):
        f = build_flag_poset(n, range(n + 1))
        covers = set(f.poset.covers())
        for mode, count in zip(("gt", "fflv"), counts):
            s = f.structure(mode)
            c_mask, o_mask = mcop_split(s)
            values = {i: s.marking[i] for i in mask_bits(s.marked)}
            ranges, chains = _mcop_inequalities(f.poset, values, s.marked | o_mask, c_mask)
            assert len(chains) == count
            for a, mids, b in chains:
                # the box search prunes on partial sums of mids, all >= 0
                assert all(ranges[p][0] >= 0 for p in mids)
                steps = (a, *mids, b)
                assert all(pair in covers for pair in zip(steps, steps[1:]))


def test_mrpp_points_wider_than_a_byte():
    # 300 steps take two bytes per coordinate; a negative marking shifts them
    for top, shift in ((0, 0), (-5, 5)):
        s = validate_relative_structure(chain_poset(["bot", "x", "top"]), [],
                                        {"bot": 300 + top, "top": top})
        assert mrpp_points(s) == [(300 + top, v, top) for v in range(top, 301 + top)]
        assert fundamental_decomposition(s).shift == shift
