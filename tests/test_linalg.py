from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from posetdegen import build_flag_poset, chain_poset, mcop_build
from posetdegen import marked
from posetdegen.degeneration import canonical_interior_weight
from posetdegen.errors import TheoremViolation
from posetdegen.linalg import affine_dimension, extreme_points, in_convex_hull
from posetdegen.marked import (
    _mcop_rows,
    marked_dimension,
    marked_vertices,
    mcop_split,
    mrpp_points,
    mrpp_subdivide,
    standardize,
)
from posetdegen.posets import mask_bits, transitive_closure, validate_relative_structure

from conftest import (
    criterion_7_markings,
    make_poset,
    marked_corpus_structures,
    naive_affine_dimension,
    naive_in_convex_hull,
)


def oracle_vertices(points):
    """The simplex filter; it drops the coordinates that are constant on the
    set (the marked ones), which changes no hull membership."""
    pts = [tuple(p) for p in points]
    free = [j for j in range(len(pts[0])) if len({p[j] for p in pts}) > 1]
    proj = [tuple(p[j] for j in free) for p in pts]
    return [p for i, p in enumerate(pts)
            if not naive_in_convex_hull(proj[i], proj[:i] + proj[i + 1:])]


COORDS = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def hull_problems(draw):
    """A probe and at most 9 points in dimension at most 4: general sets, sets
    on a line or plane through a base point, with repeated points, and probes
    that are members, convex combinations, near them or arbitrary."""
    d = draw(st.integers(1, 4))
    vec = st.tuples(*[COORDS] * d)
    k = draw(st.integers(0, 9))
    if draw(st.booleans()):
        points = draw(st.lists(vec, min_size=k, max_size=k))
    else:
        base = draw(vec)
        gens = draw(st.lists(vec, min_size=1, max_size=max(1, d - 1)))
        points = []
        for _ in range(k):
            steps = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
            points.append(tuple(b + sum(s * g[j] for s, g in zip(steps, gens))
                                for j, b in enumerate(base)))
    if points and draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    probe = draw(st.sampled_from(("member", "combination", "near", "any")))
    if probe == "member" and points:
        return draw(st.sampled_from(points)), points
    if probe in ("combination", "near") and points:
        weights = draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)))
        total = sum(weights) or 1
        point = tuple(sum(Fraction(w, total) * q[j] for w, q in zip(weights, points))
                      for j in range(d))
        if probe == "near":
            point = tuple(a + Fraction(draw(COORDS)) / 8 for a in point)
        return point, points
    return draw(vec), points


@settings(max_examples=100, deadline=None)
@given(problem=hull_problems())
def test_in_convex_hull_matches_simplex_oracle(problem):
    point, points = problem
    assert in_convex_hull(point, points) == naive_in_convex_hull(point, points)


def test_in_convex_hull_decided_by_wolfe():
    # no midpoint certificate and the directions sum to zero: inside
    triangle = [(-1, -1), (1, 0), (0, 1)]
    assert in_convex_hull((0, 0), triangle)
    # outside, although the sum of the directions, (7, 3), does not
    # separate them: it meets (-2, 1) at -11
    fan = [(10, 1), (-1, 1), (-2, 1)]
    assert not in_convex_hull((0, 0), fan)
    assert in_convex_hull((0, 1), fan)
    # on an edge, not at its midpoint: the first iterate (0, 1) is
    # orthogonal to both edge directions, so it must not count as separating
    assert in_convex_hull((0, 0), [(3, 0), (-2, 0), (0, 1)])


def test_in_convex_hull_edge_cases():
    assert not in_convex_hull((0, 0), [])
    assert in_convex_hull((1, 1), [(1, 1)])
    assert in_convex_hull((Fraction(1, 2),), [(0,), (1,)])
    assert not in_convex_hull((2,), [(0,), (1,)])
    # a repeated point is inside the rest, so neither copy is a vertex
    assert extreme_points([(0,), (1,), (1,)]) == [(0,)]
    segment = [((1,), 1), ((-1,), 0)]
    assert extreme_points([(0,), (1,), (1,)], segment) == [(0,)]
    assert extreme_points([], segment) == []
    with pytest.raises(TheoremViolation):
        extreme_points([(0,), (2,)], segment)


def marked_corpus_point_sets():
    """The distinct MRPP point sets of criterion 7's exhaustive marked corpus
    (every chain/order split gives one of them)."""
    return sorted({tuple(mrpp_points(s)) for s in marked_corpus_structures()})


def test_extreme_points_match_oracle_on_marked_corpus():
    point_sets = marked_corpus_point_sets()
    assert len(point_sets) > 50
    for points in point_sets:
        assert extreme_points(points) == oracle_vertices(points)


def test_extreme_points_match_oracle_on_flags():
    # the full flags with n <= 4, (5; 0,1,3,5) and Gr(2,5), in both modes;
    # every one is MCOP-shaped: marked_vertices reads the GT ones off their
    # tight-cover partitions and ranks the tight rows of the FFLV ones
    flags = [(n, tuple(range(n + 1))) for n in range(1, 5)] + [(5, (0, 1, 3, 5)), (5, (0, 2, 5))]
    for n, dims in flags:
        f = build_flag_poset(n, dims)
        for mode in ("gt", "fflv"):
            s = f.structure(mode)
            points = mrpp_points(s)
            wolfe = extreme_points(points)
            assert wolfe == oracle_vertices(points), (n, dims, mode)
            assert mcop_split(s) is not None
            assert marked_vertices(s, points) == tuple(sorted(wolfe)), (n, dims, mode)


def rank_path_vertices(structure, points):
    """The vertices by the rank of the tight rows of the MCOP inequalities."""
    rows = _mcop_rows(structure, mcop_split(structure), points[0])
    return tuple(sorted(extreme_points(points, rows)))


def test_rank_path_matches_wolfe_on_criterion_7_splits():
    # every chain/order split of criterion 7's corpus: its MCOP takes the
    # rank path, or with C empty the tight-cover partition, and the vertices
    # equal Wolfe's and the simplex oracle's (both computed once per
    # distinct point set); with C empty they also equal the rank path's
    expected = {}
    splits = order_splits = 0
    for poset, marking, split_list in criterion_7_markings(5):
        for c_part, o_part in split_list:
            built = mcop_build(poset, marking, c_part, o_part)
            c_mask = sum(1 << poset.index(x) for x in c_part)
            o_mask = sum(1 << poset.index(x) for x in o_part)
            assert mcop_split(built.structure) == (c_mask, o_mask)
            points = built.points
            if points not in expected:
                wolfe = extreme_points(points)
                assert wolfe == oracle_vertices(points)
                expected[points] = tuple(sorted(wolfe))
            assert built.vertices == expected[points]
            if not c_part:
                assert rank_path_vertices(built.structure, points) == built.vertices
                order_splits += 1
            splits += 1
    assert splits == 10232 and order_splits == 6967


@st.composite
def difference_systems(draw):
    """Integer points of the box [0, 2]^d (d <= 4) that meet random rows
    x_i - x_j <= c and ±x_i <= c, with the rows and the box's own, plus
    random integer rows moved to touch the point set.  Rows e_i - e_j and
    ±e_i form a totally unimodular matrix, so with integer bounds they cut
    out an integral polytope: the hull of the points, which the rows define.
    The touching rows are valid but need not define anything."""
    d = draw(st.integers(1, 4))
    rows = [(tuple(int(k == i) for k in range(d)), 2) for i in range(d)]
    rows += [(tuple(-int(k == i) for k in range(d)), 0) for i in range(d)]
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        sign = draw(st.sampled_from((1, -1)))
        row = [0] * d
        row[i] += sign
        if i != j and draw(st.booleans()):
            row[j] -= sign
        rows.append((tuple(row), draw(st.integers(-2, 2))))
    points = [x for x in product(range(3), repeat=d)
              if all(sum(a * v for a, v in zip(row, x)) <= b for row, b in rows)]
    assume(points)
    for _ in range(draw(st.integers(0, 3))):
        row = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
        rows.append((row, max(sum(a * v for a, v in zip(row, x)) for x in points)))
    return points, draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(system=difference_systems())
def test_extreme_points_by_rank_matches_wolfe(system):
    points, rows = system
    assert extreme_points(points, rows) == extreme_points(points)


@st.composite
def point_sets(draw):
    """At most 9 points in dimension at most 5 with small integer and
    rational coordinates, half of them in an affine subspace through a base
    point."""
    d = draw(st.integers(1, 5))
    vec = st.tuples(*[COORDS] * d)
    k = draw(st.integers(0, 9))
    if draw(st.booleans()):
        return draw(st.lists(vec, min_size=k, max_size=k))
    base = draw(vec)
    gens = draw(st.lists(vec, min_size=1, max_size=d))
    points = []
    for _ in range(k):
        steps = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
        points.append(tuple(b + sum(s * g[j] for s, g in zip(steps, gens))
                            for j, b in enumerate(base)))
    return points


@settings(max_examples=100, deadline=None)
@given(points=point_sets())
def test_affine_dimension_matches_fraction_rank(points):
    assert affine_dimension(points) == naive_affine_dimension(points)


def test_affine_dimension_matches_fraction_rank_on_marked_polytopes():
    point_sets = marked_corpus_point_sets()
    for n in range(1, 5):
        f = build_flag_poset(n, tuple(range(n + 1)))
        point_sets += [mrpp_points(f.structure(mode)) for mode in ("gt", "fflv")]
    for points in point_sets:
        assert affine_dimension(points) == naive_affine_dimension(points)
    assert affine_dimension([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    assert affine_dimension([(Fraction(1, 2), 0), (0, Fraction(1, 3))]) == 1


def test_tight_cover_vertices_match_rank_path_on_gt_flags():
    # every GT flag with n <= 5, Wolfe's test too below 100 points (it takes
    # about 9 s on the full n = 5 flag)
    flags = 0
    for n in range(1, 6):
        for r in range(n):
            for inner in combinations(range(1, n), r):
                s = build_flag_poset(n, (0, *inner, n)).structure("gt")
                assert mcop_split(s)[0] == 0
                points = mrpp_points(s)
                vertices = marked_vertices(s, points)
                assert vertices == rank_path_vertices(s, points), (n, inner)
                if len(points) < 100:
                    assert vertices == tuple(sorted(extreme_points(points))), (n, inner)
                assert marked_dimension(s, points) == affine_dimension(points)
                flags += 1
    assert flags == 31


@st.composite
def marked_order_structures(draw):
    """A random poset on at most 6 elements, its minimal and maximal elements
    marked and others optionally, with dominant values in 0..2 under trivial
    <': a marked order polytope.  Each marked value is the largest raw value
    at or above it, so equal values along a chain are common."""
    n = draw(st.integers(1, 6))
    above = [0] * n
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            above[i] |= 1 << j
    poset = make_poset(n, transitive_closure(above, n))
    marked = poset.minimals | poset.maximals
    for i in range(n):
        if draw(st.booleans()):
            marked |= 1 << i
    raw = {i: draw(st.integers(0, 2)) for i in mask_bits(marked)}
    marking = {poset.elements[i]: max(v for j, v in raw.items()
                                      if j == i or poset.above[i] >> j & 1)
               for i in raw}
    return validate_relative_structure(poset, [], marking)


@settings(max_examples=60, deadline=None)
@given(structure=marked_order_structures())
def test_tight_cover_vertices_and_dimension_match_the_oracles(structure):
    points = mrpp_points(structure)
    assert mcop_split(structure)[0] == 0
    vertices = marked_vertices(structure, points)
    assert vertices == rank_path_vertices(structure, points)
    assert vertices == tuple(sorted(extreme_points(points)))
    assert marked_dimension(structure, points) == affine_dimension(points)


def test_forced_free_element_lowers_the_dimension():
    # f lies between marks 2 and 1 and g between two marks 1: g is forced to 1
    s = validate_relative_structure(
        chain_poset(["a", "f", "m", "g", "b"]), [], {"a": 2, "m": 1, "b": 1})
    points = mrpp_points(s)
    assert points == [(2, 1, 1, 1, 1), (2, 2, 1, 1, 1)]
    assert marked_dimension(s, points) == affine_dimension(points) == 1
    assert marked_vertices(s, points) == rank_path_vertices(s, points) == tuple(points)


def test_tight_cover_dimension_matches_rank_on_every_section(monkeypatch):
    # every section mrpp_subdivide builds for the marked corpus, under the
    # zero weight and the canonical interior weight of the quotient (none of
    # these sections is lower-dimensional, nor any of 20,464 subdivisions of
    # criterion 7's splits under canonical and random cone weights; the
    # hypothesis test above covers lower-dimensional point sets)
    real = marked.marked_dimension
    seen = []

    def checked(structure, points):
        value = real(structure, points)
        assert value == affine_dimension(points)
        split = mcop_split(structure)
        seen.append(split is not None and not split[0])
        return value

    monkeypatch.setattr(marked, "marked_dimension", checked)
    for s in marked_corpus_structures():
        std = standardize(s)
        canonical = canonical_interior_weight(std.quotient).values
        for w in ([0] * len(std.jlambda), [canonical[q] for q in std.lattice_map]):
            mrpp_subdivide(s, w)
    assert sum(seen) > 100 and not all(seen)


@pytest.mark.parametrize("change,message", [
    (lambda x, free, marked_i: {free: max(x) + 1}, "breaks the cover"),
    (lambda x, free, marked_i: {marked_i: x[marked_i] + 1}, "moves the marked coordinate"),
])
def test_tight_cover_vertices_check_every_point(change, message):
    s = build_flag_poset(3, (0, 1, 2, 3)).structure("gt")
    points = mrpp_points(s)
    free = mask_bits(s.poset.full & ~s.marked)[0]
    marked_i = mask_bits(s.marked)[0]
    bad = list(points[3])
    for i, v in change(points[3], free, marked_i).items():
        bad[i] = v
    with pytest.raises(TheoremViolation, match=message):
        marked_vertices(s, points + [tuple(bad)])
