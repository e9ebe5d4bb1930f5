"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately naive (permutation filters, bounding-box
enumeration, finite differences, Weyl products) so they stay independent of
the library code paths they are used to check.
"""

import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from posetdegen.degeneration import (Part, as_weight, canonical_interior_weight, structure_of_part,
                                     subdivide)
from posetdegen.posets import (
    Poset,
    RelativeStructure,
    linear_extension_indices,
    mask_bits,
    transitive_closure,
    validate_relative_structure,
)
from posetdegen.lattice import enumerate_ideals, star, sublattice_to_order
from posetdegen.marked import (
    MarkedPolytope,
    fundamental_decomposition,
    mcop_build,
    mrpp_points,
    mrpp_subdivide,
    standardize,
)
from posetdegen import marked, polytopes
from posetdegen.errors import InternalClosureFailure, ValidationError
from posetdegen.linalg import affine_dimension, solve
from posetdegen.polytopes import indicator, unpack


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def shorten_part_sections(monkeypatch):
    """Patch marked._section_runs so that the first run of every part's
    chain, a fine part's lattice or a walked part's linearization, reads one
    ideal short, and so its marked section one dimension."""
    real = marked._section_runs

    def short(quotient, terms, chain):
        (d, k), *rest = real(quotient, terms, chain)
        return [(d - 1, k), *rest]

    monkeypatch.setattr(marked, "_section_runs", short)


def naive_section_counts(quotient, part):
    """(vertices, lattice points, dimension) of a part's marked section read
    off its built point set: the section's structure (`structure_of_part`),
    its points (`mrpp_points`), then `marked_vertices`, looked up on the
    module at the call so that a test can wrap it, and the rank
    `linalg.affine_dimension` of them."""
    structure = structure_of_part(quotient, part)
    points = mrpp_points(structure)
    return (len(marked.marked_vertices(structure, points)), len(points),
            affine_dimension(points))


def theta(std, point):
    """The unimodular projection of a standardization (`standardize`): the
    point's coordinates at `std.theta_src`, one per element of the quotient."""
    return tuple(point[i] for i in std.theta_src)


def scaled_structure(structure, scale):
    """The structure with its marking multiplied by `scale`, validated anew."""
    poset = structure.poset
    weak = [(poset.elements[i], poset.elements[j])
            for i in range(poset.n) for j in mask_bits(structure.weak_above[i])]
    marking = {poset.elements[i]: scale * v for i, v in structure.marking.items()}
    return validate_relative_structure(poset, weak, marking)


def naive_mask_bits(mask):
    """Shift-loop oracle for `mask_bits`: one step per bit up to the highest."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


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


def star_mask(m1, m2, structure):
    """The star of two ideal masks by its definition: the <'-ideal generated
    by (J1 ∩ J2) ∩ (max' J1 ∪ max' J2)."""
    gens = (m1 & m2) & (structure.max_weak(m1) | structure.max_weak(m2))
    return structure.weak_down_closure(gens)


def max_antichain(mask, above_rows):
    """Elements of `mask` with no larger element of `mask` under the given order."""
    out = 0
    for i in mask_bits(mask):
        if above_rows[i] & mask == 0:
            out |= 1 << i
    return out


def linear_extensions(poset):
    """All linearizations of the order, as tuples of element labels."""
    return [tuple(poset.elements[i] for i in ext) for ext in linear_extension_indices(poset)]


def naive_enumerate_ideals(poset):
    """DFS oracle for `enumerate_ideals`: every ideal reached by adding one
    element whose lower set is inside, sorted by (size, mask)."""
    seen = {0}
    queue = [0]
    below = poset.below
    while queue:
        cur = queue.pop()
        for i in range(poset.n):
            if not cur >> i & 1 and below[i] & ~cur == 0:
                nxt = cur | 1 << i
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return tuple(sorted(seen, key=lambda m: (bin(m).count("1"), m)))


def incomparable_pairs(lat):
    """Oracle for the scan order of `pair_stars`: every pair (a, b) of
    lattice positions, a < b, whose ideals are incomparable."""
    out = []
    for a in range(len(lat.masks)):
        for b in range(a + 1, len(lat.masks)):
            m1, m2 = lat.masks[a], lat.masks[b]
            if m1 & ~m2 and m2 & ~m1:
                out.append((a, b))
    return out


def naive_star_closure_failure(structure):
    """Pairwise oracle: the first incomparable pair of lattice positions whose
    star is not an ideal, or None."""
    lat = structure.lattice
    for a, b in incomparable_pairs(lat):
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


def stronger_orders(poset):
    """All partial orders on the same elements whose relation contains the given one.

    Exhaustive BFS adding one pair at a time and closing; memoized by the
    closed relation.  Exponential: meant for the small test corpus.
    """
    n = poset.n
    seen = {poset.above}
    queue = [poset.above]
    while queue:
        above = queue.pop()
        for i in range(n):
            for j in range(n):
                if i == j or above[i] >> j & 1 or above[j] >> i & 1:
                    continue
                rows = list(above)
                rows[i] |= 1 << j
                closed = transitive_closure(rows, n)
                if closed not in seen:
                    seen.add(closed)
                    queue.append(closed)
    return [Poset(poset.elements, above) for above in sorted(seen)]


def naive_affine_lift(structure, extension, values):
    """Interpolate the weight on the simplex of one linearization, in Fractions."""
    position = structure.lattice.position
    n = structure.poset.n
    a = [Fraction(0)] * n
    cur_mask = 0
    cur_max = 0
    chain = [position[0]]
    prev_value = values[chain[0]]
    b = prev_value
    for p in extension:
        cur_mask |= 1 << p
        knocked = cur_max & structure.weak_below[p]
        cur_max = (cur_max & ~knocked) | (1 << p)
        pos = position[cur_mask]
        chain.append(pos)
        value = values[pos]
        a[p] = value - prev_value + sum(a[q] for q in mask_bits(knocked))
        prev_value = value
    return (tuple(a), b), chain


def naive_subdivide(structure, values):
    """Grouping oracle for `subdivide`: lift every linearization and group the
    simplices by exact equality of their affine lifts.  Returns the parts as
    (sublattice, order, affine, linearization count), sorted by sublattice."""
    lat = structure.lattice
    values = [Fraction(v) for v in values]
    groups = {}
    for ext in linear_extension_indices(structure.poset):
        key, chain = naive_affine_lift(structure, ext, values)
        entry = groups.setdefault(key, [set(), 0])
        entry[0].update(chain)
        entry[1] += 1
    parts = []
    for affine, (positions, count) in groups.items():
        sub = tuple(sorted(positions))
        order = sublattice_to_order([lat.masks[i] for i in sub], structure.poset)
        parts.append((sub, order, affine, count))
    return sorted(parts, key=lambda part: part[0])


def random_poset(rng, n, density=0.35):
    above = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                above[i] |= 1 << j
    return make_poset(n, transitive_closure(above, n))


def naive_superset_lists(lattice):
    """For each position, the positions of all ideals containing it (itself
    included), by a mask test on every pair."""
    masks = lattice.masks
    return [[j for j, mm in enumerate(masks) if mm & m == m] for m in masks]


def naive_prescribed_multichain_count(lattice, marked, reqs):
    """Superset-list oracle for `IdealLattice.prescribed_multichain_count`:
    each step pushes every count to all the ideals containing its own."""
    if not reqs:
        return 1
    masks = lattice.masks
    sups = naive_superset_lists(lattice)
    counts = [1 if mask & marked == reqs[0] else 0 for mask in masks]
    for req in reqs[1:]:
        nxt = [0] * len(masks)
        for i, ci in enumerate(counts):
            for j in sups[i]:
                nxt[j] += ci
        if marked:
            nxt = [c if mask & marked == req else 0 for c, mask in zip(nxt, masks)]
        counts = nxt
    return sum(counts)


def part_affine(part):
    """A part's affine function in Fractions: (a over P, b), its integer
    lift over its scale."""
    a, b = part.lift
    return tuple(Fraction(x, part.scale) for x in a), Fraction(b, part.scale)


def naive_part_report(structure, part, vertices, lattice_points, vanishing_keys):
    """One part of a `subdivide` report the long way: covers by the triple
    loop, the affine function in Fractions, the vanishing keys sorted here."""
    labels = part.order.elements
    covers = naive_covers(part.order)
    fmt = lambda x: str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    added = [(labels[i], labels[j]) for i, j in covers if not structure.poset.less(i, j)]
    return {
        "added_covers": [list(c) for c in sorted(added)],
        "order_covers": sorted([labels[i], labels[j]] for i, j in covers),
        "vertices": vertices,
        "lattice_points": lattice_points,
        "vanishing_variables": sorted(vanishing_keys),
        "affine": {
            "normal": [fmt(a) for a in part_affine(part)[0]],
            "constant": fmt(part_affine(part)[1]),
        },
    }


def naive_subdivide_dict(structure, values):
    """The report of `posetdegen subdivide` for a parsed weight as a dict,
    built with `naive_part_report` and one `label_key` call per vanishing
    ideal."""
    if structure.marked:
        std = standardize(structure)
        quotient = std.quotient
        qlat = quotient.lattice
        parts = [
            naive_part_report(quotient, part, *naive_section_counts(quotient, part)[:2],
                              [qlat.label_key(i) for i in range(len(qlat))
                               if i not in part.sublattice])
            for part in mrpp_subdivide(std, values)
        ]
        return {"parts": parts, "dropped_lower_dimensional": 0}
    lat = structure.lattice
    parts = [
        naive_part_report(structure, part, len(part.sublattice), len(part.sublattice),
                          [lat.label_key(i) for i in range(len(lat))
                           if i not in part.sublattice])
        for part in subdivide(structure, values)
    ]
    return {"parts": parts}


def naive_subdivide_report(structure, values):
    """The bytes `posetdegen subdivide` prints for a parsed weight:
    `naive_subdivide_dict` through `json.dumps`."""
    report = naive_subdivide_dict(structure, values)
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def eager_chain_part(part):
    """A part that carries its linearization, rebuilt as the interior path
    built every part before orders were made on demand: the chain's Poset,
    above[p] the elements after p, and its consecutive pairs, sorted, with
    no linearization left to read."""
    ext = part.linearization
    n = len(part.elements)
    full = (1 << n) - 1
    above = [0] * n
    mask = 0
    for p in ext:
        mask |= 1 << p
        above[p] = full ^ mask
    return Part(part.sublattice, part.lift, part.scale, part.linearization_count,
                part.elements, order=Poset(part.elements, above),
                covers=sorted(zip(ext, ext[1:])))


def eager_subdivide(subdivide):
    """`subdivide` with each part that carries its linearization replaced by
    `eager_chain_part`; returns the wrapper and the list of the parts it
    replaced."""
    replaced = []

    def run(structure, w):
        parts = subdivide(structure, w)
        replaced.extend(p for p in parts if p.linearization is not None)
        return tuple(p if p.linearization is None else eager_chain_part(p) for p in parts)

    return run, replaced


def naive_covers(poset):
    """Triple-loop oracle for cover pairs: i < j with no k strictly between."""
    out = []
    for i in range(poset.n):
        for j in mask_bits(poset.above[i]):
            if not any(poset.less(i, k) and poset.less(k, j) for k in range(poset.n)):
                out.append((i, j))
    return out


def recursive_linear_extension_indices(poset):
    """Recursive peeling oracle for `linear_extension_indices`: the same
    depth-first order, one Python frame per placed element."""
    n = poset.n
    out = []
    current = []

    def peel(placed):
        if len(current) == n:
            out.append(tuple(current))
            return
        for i in range(n):
            if not placed >> i & 1 and poset.below[i] & ~placed == 0:
                current.append(i)
                peel(placed | 1 << i)
                current.pop()

    peel(0)
    return out


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


def grass_poset(flag):
    """The unmarked grid P_k = {p_{a,b} : a <= k < b} of a flag with dims
    {0, k, n}: P_d less its two marked corners, as an induced sub-poset."""
    assert flag.l == 2, "Grassmannian dims {0, k, n}"
    poset = flag.poset
    keep = [i for i in range(poset.n) if not flag.marked_mask >> i & 1]
    above = [sum(1 << y for y, j in enumerate(keep) if poset.above[i] >> j & 1) for i in keep]
    return Poset([poset.elements[i] for i in keep], tuple(above))


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


def determinant(rows):
    """Determinant of a square rational matrix."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


class Simplex:
    """The simplex of one linearization: vertices 1_{max' J} along its chain."""

    def __init__(self, linearization, vertices, chain_positions):
        self.linearization = tuple(linearization)
        self.vertices = tuple(vertices)
        self.chain_positions = tuple(chain_positions)

    def edge_matrix(self):
        base = self.vertices[0]
        return [[v[i] - base[i] for i in range(len(base))] for v in self.vertices[1:]]

    def is_unimodular(self):
        return abs(determinant(self.edge_matrix())) == 1

    def barycentric(self, point, m=1):
        """Coefficients c >= 0 with sum m expressing `point` over the vertices, or None."""
        n = len(self.vertices[0])
        cols = [[Fraction(v[i]) for v in self.vertices] for i in range(n)]
        cols.append([Fraction(1)] * len(self.vertices))
        rhs = [Fraction(x) for x in point] + [Fraction(m)]
        try:
            coeffs = solve(cols, rhs)
        except ValueError:
            return None
        if any(c < 0 for c in coeffs):
            return None
        return coeffs


def canonical_triangulation(structure):
    """The canonical triangulation, the membership oracle of the dilations:
    one unimodular simplex per linearization of <; their union is the
    polytope."""
    n = structure.poset.n
    lat = structure.lattice
    simplices = []
    for ext in linear_extension_indices(structure.poset):
        chain_masks = [0]
        cur = 0
        for i in ext:
            cur |= 1 << i
            chain_masks.append(cur)
        vertices = [indicator(structure.max_weak(m), n) for m in chain_masks]
        positions = [lat.position[m] for m in chain_masks]
        simplex = Simplex(ext, vertices, positions)
        if not simplex.is_unimodular():
            raise InternalClosureFailure(f"linearization simplex {ext} is not unimodular")
        simplices.append(simplex)
    return simplices


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


def naive_multichain_points(structure, marked, reqs):
    """Oracle for `polytopes.packed_multichains`, as coordinate tuples: the
    sums of 1_{max' J_d} over the chains J_1 <= ... <= J_k of ideals with
    J_d & marked == reqs[d], by recursion over tuple-list multichains."""
    lat = structure.lattice
    n = structure.poset.n
    sups = naive_superset_lists(lat)
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

    rec(None, 0, [0] * n)
    assert chains == len(points), "prescribed multichains produced a repeated point"
    return points


class NotALatticePoint(Exception):
    """A point that `decompose_point` finds outside the dilation."""


def lattice_points(structure, m):
    """Integer points of m * R(P,<,<') as coordinate tuples."""
    n = structure.poset.n
    bits = polytopes.pack_bits(m)
    return frozenset(unpack(code, n, bits) for code in polytopes.packed_dilation(structure, m))


def decompose_point(point, m, structure):
    """The unique weakly increasing ideal tuple summing to `point`.

    Greedy peeling: the top ideal is the <-ideal generated by the support,
    because max_<' of it generates it both as a <'-ideal and a <-ideal.
    """
    n = structure.poset.n
    lat = structure.lattice
    x = list(point)
    if len(x) != n or any(v < 0 for v in x):
        raise NotALatticePoint(f"{point} is not in dilation {m}")
    chain = []
    for _ in range(m):
        support = sum(1 << i for i in range(n) if x[i] > 0)
        ideal = structure.poset.down_closure(support)
        if ideal not in lat.position:
            raise NotALatticePoint(f"{point} is not in dilation {m}")
        chain.append(ideal)
        for i in mask_bits(structure.max_weak(ideal)):
            x[i] -= 1
            if x[i] < 0:
                raise NotALatticePoint(f"{point} is not in dilation {m}")
    if any(x):
        raise NotALatticePoint(f"{point} is not in dilation {m}")
    chain.reverse()
    if any(a & ~b for a, b in zip(chain, chain[1:])):
        raise NotALatticePoint(f"{point} is not in dilation {m}")
    return chain


def minimal_cone_shift(structure, values):
    """Smallest integer t with values + t * canonical inside the closed cone."""
    lat = structure.lattice
    canonical = canonical_interior_weight(structure)
    t = 0
    for a, b in incomparable_pairs(lat):
        union = lat.position[lat.masks[a] | lat.masks[b]]
        s = star(a, b, structure)
        slack_w = values[a] + values[b] - values[union] - values[s]
        if slack_w <= 0:
            continue
        slack_c = canonical[union] + canonical[s] - canonical[a] - canonical[b]
        needed = -(-slack_w // slack_c)  # exact ceiling of slack_w / slack_c
        t = max(t, int(needed))
    return t


def naive_cone_position(structure, values):
    """Fraction oracle for `cone_position`: (position, violated, tight) from
    the slack of each incomparable pair, summed in Fractions unscaled."""
    lat = structure.lattice
    values = as_weight(structure, values)
    violated, tight = [], []
    for a, b in incomparable_pairs(lat):
        union = lat.position[lat.masks[a] | lat.masks[b]]
        slack = values[union] + values[star(a, b, structure)] - values[a] - values[b]
        if slack < 0:
            violated.append((a, b))
        elif slack == 0:
            tight.append((a, b))
    if violated:
        return "outside", tuple(violated), tuple(tight)
    return ("boundary" if tight else "interior"), (), tuple(tight)


def sample_cone_weight(structure, rng, spread=9):
    """Random integer weight shifted into the closed cone by t * canonical."""
    lat = structure.lattice
    raw = [Fraction(rng.randint(-spread, spread)) for _ in lat.masks]
    t = minimal_cone_shift(structure, raw)
    canonical = canonical_interior_weight(structure)
    return tuple(r + t * c for r, c in zip(raw, canonical))


def fundamental_mrpp(structure, k_mask):
    """Face of R(P,<,<') cut by the fundamental marking of the ideal K of (P*,<)."""
    if structure.marked == 0:
        raise ValidationError("structure carries no marking")
    if k_mask & ~structure.marked:
        raise ValidationError("K is not a subset of the marked set")
    lat = structure.lattice
    n = structure.poset.n
    pts = [
        indicator(structure.max_weak(m), n)
        for m in lat.masks
        if m & structure.marked == k_mask
    ]
    if not pts:
        raise InternalClosureFailure("fundamental MRPP is empty; K is not an ideal of (P*,<)")
    return MarkedPolytope(structure, sorted(pts))


def naive_fundamental_decomposition(structure, scale=1):
    """(terms, shift) of `fundamental_decomposition` by one layer per level
    of the shifted marking, from its peak down to 1, a run of equal layers
    merged into one term: a loop as long as the largest value."""
    values = {i: scale * structure.marking[i] for i in mask_bits(structure.marked)}
    shift = -min(0, min(values.values()))
    shifted = {i: v + shift for i, v in values.items()}
    terms = []
    for level in range(max(shifted.values()), 0, -1):
        layer = sum(1 << i for i, v in shifted.items() if v >= level)
        if terms and terms[-1][0] == layer:
            terms[-1][1] += 1
        else:
            terms.append([layer, 1])
    return tuple(map(tuple, terms)), shift


def naive_mrpp_points(structure, scale=1):
    """Integer points of R_{scale*lambda} by recursion over tuple-list multichains."""
    fd = fundamental_decomposition(structure, scale)
    n = structure.poset.n
    reqs = [k for k, alpha in fd.terms for _ in range(alpha)]
    top_vertex = indicator(structure.max_weak(structure.poset.full), n)
    offset = tuple(-fd.shift * t for t in top_vertex)
    points = naive_multichain_points(structure, structure.marked, reqs)
    return sorted(tuple(a + b for a, b in zip(p, offset)) for p in points)


def marked_corpus_structures(max_n=4):
    """Criterion 7's exhaustive marked corpus: every poset with at most
    `max_n` elements, its minimal and maximal elements marked with dominant
    values in 0..2, under each <' that keeps either all or none of the
    relations above each free element (one per chain/order split)."""
    out = []
    for n in range(1, max_n + 1):
        for poset in posets_up_to_iso(n):
            marked = poset.minimals | poset.maximals
            free = [i for i in range(n) if not marked >> i & 1]
            midx = mask_bits(marked)
            for values in product(range(3), repeat=len(midx)):
                lam = dict(zip(midx, values))
                if any(lam[i] < lam[j] for i in midx for j in mask_bits(poset.above[i] & marked)):
                    continue
                marking = {poset.elements[i]: lam[i] for i in midx}
                for obits in range(1 << len(free)):
                    weak = [(poset.elements[i], poset.elements[j])
                            for k, i in enumerate(free) if not obits >> k & 1
                            for j in mask_bits(poset.above[i])]
                    out.append(validate_relative_structure(poset, weak, marking))
    return out


def criterion_7_markings(max_n=5):
    """Criterion 7's marked corpus: every poset with at most `max_n`
    elements, its minimal and maximal elements marked and any others
    optionally, with dominant values in 0..2.  Yields (poset, marking,
    splits), the splits (C, O) of the free elements in bit order (bit k of
    the split's number set when the k-th free element is in O)."""
    for n in range(1, max_n + 1):
        for poset in posets_up_to_iso(n):
            required = poset.minimals | poset.maximals
            optional = [i for i in range(n) if not required >> i & 1]
            for extra in range(1 << len(optional)):
                marked = required
                for k, i in enumerate(optional):
                    if extra >> k & 1:
                        marked |= 1 << i
                midx = mask_bits(marked)
                free = [poset.elements[i] for i in range(n) if not marked >> i & 1]
                for values in product(range(3), repeat=len(midx)):
                    lam = dict(zip(midx, values))
                    if any(lam[i] < lam[j]
                           for i in midx for j in mask_bits(poset.above[i] & marked)):
                        continue
                    marking = {poset.elements[i]: lam[i] for i in midx}
                    yield poset, marking, mcop_splits(free)


def mcop_splits(free):
    """The chain/order splits of the labels `free`, in bit order."""
    return [
        ([x for k, x in enumerate(free) if not bits >> k & 1],
         [x for k, x in enumerate(free) if bits >> k & 1])
        for bits in range(1 << len(free))
    ]


def naive_mcop_recognize(structure, target):
    """Bit-order oracle for `mcop_recognize`: build the MCOP of every
    chain/order split in turn and return the first whose point set equals
    the target's, as (sorted C labels, sorted O labels); None otherwise."""
    poset = structure.poset
    marking = {poset.elements[i]: structure.marking[i] for i in mask_bits(structure.marked)}
    free = [poset.elements[i] for i in mask_bits(poset.full & ~structure.marked)]
    target_points = set(target.points if hasattr(target, "points") else target)
    for c_part, o_part in mcop_splits(free):
        if set(mcop_build(poset, marking, c_part, o_part).points) == target_points:
            return tuple(sorted(c_part)), tuple(sorted(o_part))
    return None


def naive_rank(rows):
    """Rank of a list of rational vectors, by Gauss-Jordan over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def naive_affine_dimension(points):
    """Affine dimension as the Fraction rank of the differences to the first point."""
    pts = list(points)
    if not pts:
        return -1
    return naive_rank([[Fraction(x) - Fraction(y) for x, y in zip(p, pts[0])]
                       for p in pts[1:]])


def naive_check_normality(structure, k_max):
    """Set-equality oracle for `check_normality`: builds every dilation and
    names the smallest packed code in which it differs from the k-fold sums."""
    n = structure.poset.n
    base = polytopes.packed_dilation(structure, 1)
    current = set(base)
    for k in range(2, k_max + 1):
        sums = {a + b for a in current for b in base}
        target = polytopes.packed_dilation(structure, k)
        if sums != target:
            bad = sorted(target.symmetric_difference(sums))[0]
            return False, (k, unpack(bad, n))
        current = sums
    return True, None


def naive_in_convex_hull(point, points):
    """Simplex oracle for `linalg.in_convex_hull`: phase 1 with Bland's rule,
    exact over the rationals."""
    pts = [tuple(p) for p in points]
    if not pts:
        return False
    d = len(point)
    m = d + 1
    nvars = len(pts)
    rows = [[Fraction(p[r]) for p in pts] for r in range(d)]
    rows.append([Fraction(1)] * nvars)
    rhs = [Fraction(x) for x in point] + [Fraction(1)]
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = [-a for a in rows[r]]
            rhs[r] = -rhs[r]
    # tableau columns: nvars structural + m artificial + rhs
    tab = [rows[r] + [Fraction(1) if i == r else Fraction(0) for i in range(m)] + [rhs[r]]
           for r in range(m)]
    basis = [nvars + r for r in range(m)]
    total = nvars + m
    while True:
        in_basis = set(basis)
        # phase-1 reduced costs: cost 1 on artificials, 0 on structural columns
        entering = None
        for j in range(total):
            if j in in_basis:
                continue
            red = (Fraction(1) if j >= nvars else Fraction(0))
            red -= sum(tab[i][j] for i in range(m) if basis[i] >= nvars)
            if red < 0:
                entering = j
                break
        if entering is None:
            break
        ratio = None
        leaving = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                r = tab[i][-1] / a
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leaving]):
                    ratio = r
                    leaving = i
        if leaving is None:
            break  # unbounded cannot happen for a feasibility problem, defensive
        piv = tab[leaving][entering]
        tab[leaving] = [a / piv for a in tab[leaving]]
        for i in range(m):
            if i != leaving and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leaving])]
        basis[leaving] = entering
    objective = sum(tab[i][-1] for i in range(m) if basis[i] >= nvars)
    return objective == 0


def naive_mcop_box(poset, marking, chain_part, order_part):
    """Full bounding-box scan for the marked chain-order polytope: every box
    point, in lexicographic order, that satisfies x_{p_1} + ... + x_{p_r} <=
    x_a - x_b on each chain a < p_1 < ... < p_r < b with a, b marked or in
    `order_part` and every p_i in `chain_part`."""
    values = {poset.index(k): v for k, v in marking.items()}
    chain = {poset.index(x) for x in chain_part}
    anchors = set(values) | {poset.index(x) for x in order_part}
    lo, hi = min(values.values()), max(values.values())
    ranges = [
        [values[i]] if i in values else range(0, hi - lo + 1) if i in chain
        else range(lo, hi + 1)
        for i in range(poset.n)
    ]
    inequalities = []

    def extend(a, mids):
        last = mids[-1] if mids else a
        for b in anchors:
            if poset.less(last, b):
                inequalities.append((a, tuple(mids), b))
        for p in chain:
            if poset.less(last, p):
                extend(a, mids + [p])

    for a in anchors:
        extend(a, [])
    return [
        x for x in product(*ranges)
        if all(sum(x[p] for p in mids) <= x[a] - x[b] for a, mids, b in inequalities)
    ]


def transfer_map(point, poset):
    """The piecewise-linear transfer x_p -> x_p - max_{q > p} x_q on the order
    polytope, in Fractions; raises ValueError outside the order polytope."""
    n = poset.n
    x = [Fraction(v) for v in point]
    for i in range(n):
        if x[i] < 0 or x[i] > 1:
            raise ValueError(f"coordinate {poset.elements[i]} out of [0,1]")
        for j in mask_bits(poset.above[i]):
            if x[i] < x[j]:
                raise ValueError(
                    f"x[{poset.elements[i]}] < x[{poset.elements[j]}] violates the order polytope"
                )
    out = []
    for i in range(n):
        over = [x[j] for j in mask_bits(poset.above[i])]
        out.append(x[i] - (max(over) if over else Fraction(0)))
    return tuple(out)


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
