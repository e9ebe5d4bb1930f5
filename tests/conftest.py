"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately naive (permutation filters, bounding-box
enumeration, finite differences, Weyl products) so they stay independent of
the library code paths they are used to check.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from posetdegen.posets import Poset, RelativeStructure, mask_bits, transitive_closure
from posetdegen.lattice import enumerate_ideals, star_mask
from posetdegen.marked import fundamental_decomposition
from posetdegen.polytopes import canonical_triangulation, indicator


def make_poset(n, above):
    return Poset([f"e{i}" for i in range(n)], tuple(above))


def posets_up_to_iso(n):
    """All posets on n labeled elements, one representative per isomorphism class.

    Upper-triangular transitive relations hit every isomorphism class (every
    poset admits a linear extension); a minimum over permutations picks the
    canonical one.
    """
    out = []
    seen = set()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        above = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                above[i] |= 1 << j
        ok = True
        for i in range(n):
            acc = above[i]
            for j in range(n):
                if above[i] >> j & 1:
                    acc |= above[j]
            if acc != above[i]:
                ok = False
                break
        if not ok:
            continue
        canon = min(
            tuple(sorted(
                (perm[i], perm[j])
                for i in range(n) for j in range(n) if above[i] >> j & 1
            ))
            for perm in permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            out.append(make_poset(n, above))
    return out


def small_poset_corpus(max_n=5):
    return [p for n in range(1, max_n + 1) for p in posets_up_to_iso(n)]


def weaker_order_rows(poset):
    """All transitive subrelations of the order, as 'above' bitmask rows."""
    n = poset.n
    rel = [(i, j) for i in range(n) for j in range(n) if poset.above[i] >> j & 1]
    out = []
    for bits in range(1 << len(rel)):
        rows = [0] * n
        for k, (i, j) in enumerate(rel):
            if bits >> k & 1:
                rows[i] |= 1 << j
        good = True
        for i in range(n):
            acc = rows[i]
            for j in range(n):
                if rows[i] >> j & 1:
                    acc |= rows[j]
            if acc != rows[i]:
                good = False
                break
        if good:
            out.append(tuple(rows))
    return out


def naive_star_closure_failure(structure):
    """Pairwise oracle: the first incomparable pair of lattice positions whose
    star is not an ideal, or None."""
    lat = structure.lattice
    for a, b in lat.incomparable_pairs:
        if star_mask(lat.masks[a], lat.masks[b], structure) not in lat.position:
            return a, b
    return None


def valid_weak_structures(poset, lattice=None):
    """Every relative structure on the poset whose lattice is star-closed."""
    lat = lattice if lattice is not None else enumerate_ideals(poset)
    out = []
    for rows in weaker_order_rows(poset):
        s = RelativeStructure(poset, rows)
        s.__dict__["lattice"] = lat
        if naive_star_closure_failure(s) is None:
            out.append(s)
    return out


def random_poset(rng, n, density=0.35):
    above = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                above[i] |= 1 << j
    return make_poset(n, transitive_closure(above, n))


def brute_force_extensions(poset):
    """Permutation filter oracle for linear extensions."""
    n = poset.n
    out = []
    for perm in permutations(range(n)):
        position = {p: k for k, p in enumerate(perm)}
        if all(
            position[i] < position[j]
            for i in range(n) for j in range(n) if poset.above[i] >> j & 1
        ):
            out.append(tuple(poset.elements[p] for p in perm))
    return out


def weyl_dimension(weight):
    """dim of the gl_n irrep with weakly decreasing highest weight `weight`."""
    n = len(weight)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(weight[i] - weight[j] + j - i, j - i)
    assert dim.denominator == 1
    return dim.numerator


def flag_weight(n, dims):
    """The gl_n weight sum of fundamental weights omega_{d_i}, i = 1..l-1."""
    inner = list(dims)[1:-1]
    return tuple(sum(1 for d in inner if d >= j) for j in range(1, n + 1))


def gt_pattern_count(weight):
    """Direct enumeration of Gelfand-Tsetlin patterns with the given top row."""
    rows = [tuple(weight)]
    count = 0
    top = tuple(weight)

    def interlacing(upper):
        k = len(upper) - 1
        ranges = [range(upper[i + 1], upper[i] + 1) for i in range(k)]
        return [tuple(r) for r in product(*ranges) if all(
            r[i] >= r[i + 1] for i in range(k - 1))]

    def rec(upper):
        nonlocal count
        if len(upper) == 1:
            count += 1
            return
        for lower in interlacing(upper):
            rec(lower)

    rec(top)
    return count


def point_in_dilation(point, m, structure, simplices=None):
    """Membership oracle: x lies in m*R iff some m*Delta contains it (exact barycentric)."""
    if simplices is None:
        simplices = canonical_triangulation(structure)
    return any(s.barycentric(point, m) is not None for s in simplices)


def recompose(chain, structure):
    """Sum of the vertices 1_{max' J} over a chain of ideal masks."""
    n = structure.poset.n
    total = [0] * n
    for mask in chain:
        for i in mask_bits(structure.max_weak(mask)):
            total[i] += 1
    return tuple(total)


def naive_mrpp_points(structure, scale=1):
    """Integer points of R_{scale*lambda} by recursion over tuple-list multichains."""
    fd = fundamental_decomposition(structure, scale)
    lat = structure.lattice
    marked = structure.marked
    n = structure.poset.n
    reqs = [k for k, alpha in fd.terms for _ in range(alpha)]
    top_vertex = indicator(structure.max_weak(structure.poset.full), n)
    offset = tuple(-fd.shift * t for t in top_vertex)
    if not reqs:
        return [offset]
    sups = lat.superset_lists
    vertex_vectors = [indicator(structure.max_weak(m), n) for m in lat.masks]
    points = set()
    chains = 0

    def rec(last, depth, acc):
        nonlocal chains
        if depth == len(reqs):
            points.add(tuple(acc))
            chains += 1
            return
        base = sups[last] if last is not None else range(len(lat.masks))
        for j in base:
            if lat.masks[j] & marked == reqs[depth]:
                v = vertex_vectors[j]
                rec(j, depth + 1, [a + b for a, b in zip(acc, v)])

    rec(None, 0, list(offset))
    assert chains == len(points), "prescribed multichains produced a repeated point"
    return sorted(points)


def nth_finite_difference(values):
    """values = p(0..n) for a degree-n polynomial; returns n! * leading coeff."""
    seq = list(values)
    while len(seq) > 1:
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return seq[0]


@pytest.fixture(scope="session")
def corpus5():
    return small_poset_corpus(5)


@pytest.fixture(scope="session")
def corpus4():
    return small_poset_corpus(4)


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260808)
