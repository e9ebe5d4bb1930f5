"""Markings, fundamental decompositions, marked relative poset polytopes,
standardization to quotient structures, MRPP subdivisions and the
chain-order polytope comparison."""

from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import add, eq, le, lt, sub

from . import linalg
from .degeneration import Part, first_linearization, structure_of_part, subdivide
from .errors import (
    InternalClosureFailure,
    InvalidStructure,
    NotAPartition,
    NotDominant,
    TheoremViolation,
)
from .posets import (
    Poset,
    RelativeStructure,
    mask_bits,
    validate_relative_structure,
)
from .polytopes import ehrhart_values, indicator, pack_bits, packed_multichains, unpack


class FundamentalDecomposition:
    """The unique expression of a dominant marking as sum of fundamental ones.

    `terms` is the strictly increasing chain of ideals of (P*,<) with their
    positive multiplicities; `shift` is the translation making the marking
    nonnegative (0 when it already is).
    """

    def __init__(self, terms, shift, marked_mask):
        self.terms = tuple(terms)
        self.shift = shift
        self.marked_mask = marked_mask

    def chain_masks(self):
        """D(lambda): the term ideals together with the empty set and all of P*."""
        masks = {0, self.marked_mask}
        masks.update(k for k, _ in self.terms)
        return tuple(sorted(masks, key=lambda m: bin(m).count("1")))

    def steps(self):
        """J_d & P* for each step of the multichains summed to the lattice
        points: every term ideal, repeated by its multiplicity."""
        return [k for k, alpha in self.terms for _ in range(alpha)]


def fundamental_decomposition(structure, scale=1):
    """Layer decomposition of the (scaled) marking of a marked structure."""
    if structure.marked == 0:
        raise InvalidStructure("structure carries no marking")
    marked = structure.marked
    values = {i: scale * structure.marking[i] for i in mask_bits(marked)}
    shift = -min(0, min(values.values()))
    shifted = {i: v + shift for i, v in values.items()}
    peak = max(shifted.values())
    terms = []
    for level in range(peak, 0, -1):
        layer = sum(1 << i for i, v in shifted.items() if v >= level)
        if terms and terms[-1][0] == layer:
            terms[-1][1] += 1
        else:
            terms.append([layer, 1])
    return FundamentalDecomposition(
        [(k, a) for k, a in terms], shift, marked
    )


class MarkedPolytope:
    """An MRPP presented by its full integer point set (vertices on demand)."""

    def __init__(self, structure, points):
        self.structure = structure
        self.points = tuple(sorted(points))

    def __len__(self):
        return len(self.points)

    @cached_property
    def vertices(self):
        return marked_vertices(self.structure, self.points)

    @cached_property
    def dimension(self):
        return marked_dimension(self.structure, self.points)


def mrpp_points(structure, scale=1):
    """Integer points of R_{scale*lambda}: sums over prescribed-intersection multichains."""
    fd = fundamental_decomposition(structure, scale)
    n = structure.poset.n
    reqs = fd.steps()
    bits = pack_bits(len(reqs))
    points = (unpack(code, n, bits)
              for code in packed_multichains(structure, structure.marked, reqs))
    if fd.shift:
        shift = [fd.shift * bit for bit in indicator(structure.max_weak(structure.poset.full), n)]
        points = (tuple(map(sub, x, shift)) for x in points)
    return sorted(points)


def build_mrpp(structure, scale=1):
    """The marked relative poset polytope of the structure's marking."""
    return MarkedPolytope(structure, mrpp_points(structure, scale))


class StandardizedStructure:
    """Quotient data of Theorem-style standardization.

    `quotient` is the standard marked structure over Q = P/~ with orders
    (<<, <<'); `theta_src` lists, per Q coordinate, the P coordinate that the
    unimodular projection copies; `jlambda` holds the base-lattice positions
    of J_lambda in ascending order and `lattice_map` their images in the
    quotient lattice.
    """

    def __init__(self, base, quotient, class_masks, theta_src, jlambda, lattice_map):
        self.base = base
        self.quotient = quotient
        self.class_masks = tuple(class_masks)
        self.theta_src = tuple(theta_src)
        self.jlambda = tuple(jlambda)
        self.lattice_map = tuple(lattice_map)

    @property
    def is_identity(self):
        return all(bin(m).count("1") == 1 for m in self.class_masks) and (
            len(self.jlambda) == len(self.base.lattice)
        )

    def theta(self, point):
        return tuple(point[i] for i in self.theta_src)


def standardize(structure):
    """Collapse elements indistinguishable by J_lambda; returns the quotient data."""
    if structure.marked == 0:
        raise InvalidStructure("structure carries no marking")
    poset = structure.poset
    lat = structure.lattice
    n = poset.n
    fd = fundamental_decomposition(structure)
    chain = set(fd.chain_masks())
    jlambda = [i for i, m in enumerate(lat.masks) if m & structure.marked in chain]

    signatures = [0] * n
    for k, pos in enumerate(jlambda):
        m = lat.masks[pos]
        for p in mask_bits(m):
            signatures[p] |= 1 << k

    by_sig = {}
    for p in range(n):
        by_sig.setdefault(signatures[p], []).append(p)
    classes = sorted(by_sig.values(), key=lambda members: members[0])
    class_masks = [sum(1 << p for p in members) for members in classes]
    class_of = {}
    for c, members in enumerate(classes):
        for p in members:
            class_of[p] = c

    labels = ["|".join(poset.elements[p] for p in members) for members in classes]
    q = len(classes)
    above = [0] * q
    for a in range(q):
        for b in range(q):
            if a != b and signatures[classes[b][0]] & ~signatures[classes[a][0]] == 0:
                above[a] |= 1 << b
    qposet = Poset(labels, tuple(above))

    weak_pairs = set()
    for p1 in range(n):
        for p2 in mask_bits(structure.weak_above[p1]):
            c1, c2 = class_of[p1], class_of[p2]
            if c1 != c2 and not class_masks[c1] & structure.marked:
                weak_pairs.add((labels[c1], labels[c2]))

    mu = {}
    for c, members in enumerate(classes):
        marked_members = class_masks[c] & structure.marked
        if marked_members:
            mu[labels[c]] = structure.marking[mask_bits(marked_members)[0]]
    quotient = validate_relative_structure(qposet, sorted(weak_pairs), mu)

    # theta copies a marked representative for marked classes, the single
    # member otherwise (non-marked classes are singletons for valid input)
    theta_src = []
    for c in range(q):
        marked_members = class_masks[c] & structure.marked
        if marked_members:
            theta_src.append(mask_bits(marked_members)[0])
        else:
            members = mask_bits(class_masks[c])
            if len(members) != 1:
                raise InternalClosureFailure("unmarked equivalence class is not a singleton")
            theta_src.append(members[0])

    qlat = quotient.lattice
    lattice_map = []
    for pos in jlambda:
        m = lat.masks[pos]
        qmask = 0
        for c in range(q):
            inside = class_masks[c] & m
            if inside == class_masks[c]:
                qmask |= 1 << c
            elif inside:
                raise InternalClosureFailure("ideal of J_lambda is not a union of classes")
        lattice_map.append(qlat.position[qmask])
    if len(set(lattice_map)) != len(qlat):
        raise InternalClosureFailure("projection is not a lattice bijection")

    marked_classes = mask_bits(quotient.marked)
    for a in marked_classes:
        for b in marked_classes:
            if a != b and not (quotient.poset.less(a, b) or quotient.poset.less(b, a)):
                raise InternalClosureFailure("quotient marked set is not a chain")
    qfd = fundamental_decomposition(quotient)
    if len(qfd.chain_masks()) != bin(quotient.marked).count("1") + 1:
        raise InternalClosureFailure("standardized structure is not standard")
    return StandardizedStructure(
        structure, quotient, class_masks, theta_src, jlambda, lattice_map
    )


class MarkedPart(Part):
    """A part of the quotient's subdivision, at the standardized level, with
    the lattice points and the structure of its marked section."""

    def __init__(self, part, structure, restricted_affine, points):
        super().__init__(part.sublattice, part.order, part.covers, part.lift, part.scale,
                         part.linearization_count)
        self.structure = structure
        self.restricted_affine = restricted_affine
        self.points = tuple(sorted(points))

    @cached_property
    def vertices(self):
        return marked_vertices(self.structure, self.points)


class MarkedSubdivision:
    def __init__(self, standardized, parts, dropped):
        self.standardized = standardized
        self.parts = tuple(parts)
        self.dropped = dropped  # big parts whose section is lower-dimensional

    def __len__(self):
        return len(self.parts)


def restricted_affine(structure, affine):
    """Affine function modulo the fixed marked coordinates: the canonical key
    on the section subspace x_p = lambda_p."""
    a, b = affine
    free = tuple(
        a[i] for i in range(structure.poset.n) if not structure.marked >> i & 1
    )
    const = b + sum(
        a[i] * structure.marking[i] for i in mask_bits(structure.marked)
    )
    return free, const


def mrpp_subdivide(structure, w):
    """Subdivide the standardized MRPP under a weight over J_lambda.

    The non-marked relative polytope of the quotient is subdivided with the
    transported weights; each part is intersected with the marked section and
    kept when the section is full-dimensional.
    """
    std = standardize(structure)
    quotient = std.quotient
    values = list(w.values) if hasattr(w, "values") else [Fraction(v) for v in w]
    if len(values) != len(std.jlambda):
        raise ValueError(
            f"weight has {len(values)} entries, J_lambda has {len(std.jlambda)}"
        )
    wq = [Fraction(0)] * len(quotient.lattice)
    for k, qpos in enumerate(std.lattice_map):
        wq[qpos] = Fraction(values[k])
    big = subdivide(quotient, wq)

    whole = MarkedPolytope(quotient, mrpp_points(quotient))
    keep = []
    dropped = 0
    seen_affines = set()
    covered = set()
    for part in big.parts:
        section_structure = structure_of_part(quotient, part)
        pts = mrpp_points(section_structure)
        if marked_dimension(section_structure, pts) != whole.dimension:
            dropped += 1
            continue
        raff = restricted_affine(quotient, part.affine)
        if raff in seen_affines:
            raise InternalClosureFailure("two section parts share an affine lift")
        seen_affines.add(raff)
        covered.update(pts)
        keep.append(MarkedPart(part, section_structure, raff, pts))
    if covered != set(whole.points):
        raise InternalClosureFailure("section parts do not cover the marked polytope")
    return MarkedSubdivision(std, keep, dropped)


def _mcop_chains(poset, anchors, middle):
    """The chains of covers a ⋖ p_1 ⋖ ... ⋖ p_r ⋖ b of (P,<) with a, b in
    `anchors` and every p_i in `middle` (r >= 0), as (a, (p_1, ..., p_r), b).

    From each anchor the walk steps to upper covers, emits a chain at an
    anchor, goes on through `middle` and stops at anything else.  When
    every element is an anchor or in `middle`, the rows
    sum(x[p] for p in mids) <= x[a] - x[b] of these chains imply the row of
    every chain a < p_1 < ... < p_r < b with p_i in `middle`: refine each
    step into covers and split the result at the anchors it passes; the
    row is the sum of the pieces' rows minus the rows x_q >= 0 of the
    `middle` elements q it skipped.  So it holds where they hold, and
    where it is tight they all are, as slacks >= 0 that add up to 0 are 0:
    the point set and the rank of the tight rows at every point are those
    of the full system.  With elements in neither mask (a partial split
    of `mcop_recognize`), the chains are chains of covers of every split
    that extends this one.
    """
    up = [[] for _ in range(poset.n)]
    for i, j in poset.covers():
        up[i].append(j)
    out = []

    def walk(a, mids, last):
        for q in up[last]:
            if anchors >> q & 1:
                out.append((a, mids, q))
            elif middle >> q & 1:
                walk(a, mids + (q,), q)

    for a in mask_bits(anchors):
        walk(a, (), a)
    return out


def _mcop_inequalities(poset, values, anchors, middle):
    """The inequalities of a marked chain-order polytope among the elements
    of `anchors | middle`.

    `values` is the marking by element index, `anchors` holds the marked
    elements and those of O, `middle` those of C.  Returns the ranges, a
    dict element -> (lo, hi) bounding its coordinate, and the chains
    (a, mids, b) of `_mcop_chains`, each standing for
    sum(x[p] for p in mids) <= x[a] - x[b].
    """
    lam_min = min(values.values())
    lam_max = max(values.values())
    ranges = {}
    for i in mask_bits(anchors | middle):
        if i in values:
            ranges[i] = (values[i], values[i])
        elif anchors >> i & 1:
            ranges[i] = (lam_min, lam_max)
        else:
            ranges[i] = (0, lam_max - lam_min)
    return ranges, _mcop_chains(poset, anchors, middle)


def mcop_split(structure):
    """The masks (C, O) of a marked structure that is `mcop_build`'s
    construction (2), where each free element's <'-row is empty (O) or all
    of its <-row (C); None otherwise.  Marked rows are empty by (iii)."""
    poset = structure.poset
    c_mask = o_mask = 0
    for i in mask_bits(poset.full & ~structure.marked):
        if not structure.weak_above[i]:
            o_mask |= 1 << i
        elif structure.weak_above[i] == poset.above[i]:
            c_mask |= 1 << i
        else:
            return None
    return c_mask, o_mask


def _free_blocks(n, marked, tight):
    """The free blocks of the partition of the n elements that the pairs
    `tight` generate, by union-find: the blocks holding no element of the
    mask `marked`.

    This is the face structure of a marked order polytope
    O = {x : x_q <= x_p for p ⋖ q, x_a = lambda_a for a in P*} (Pegel 2018).
    At a point x of O, take as `tight` its tight covers, those with
    x_p = x_q; their blocks form the tight-cover partition.  A vector v
    is in the kernel of the rows tight at x exactly when v_p = v_q on each
    tight cover and v_a = 0 on P*: when v is constant on each block and 0
    on each block holding a marked element.  So the kernel has one
    dimension per free block, and the tight rows have rank n minus their
    number.  The smallest face F of O through x has that kernel as its
    direction space: F satisfies the tight rows with equality, and for v in
    the kernel x ± εv stays in O for small ε > 0, as the other rows have
    slack at x, so it lies in F.  Hence dim F is the number of free blocks,
    and x is a vertex exactly when there is none.
    """
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p, q in tight:
        parent[root(p)] = root(q)
    return len({root(i) for i in range(n)} - {root(i) for i in mask_bits(marked)})


def _order_vertices(structure, points):
    """The sorted vertices of conv(points), the distinct lattice points of a
    marked order polytope (`mcop_split` gives C = 0): the points whose
    tight-cover partition has no free block (`_free_blocks`), that is, at
    which every element reaches a marked one along tight covers.

    The cover rows and x_a = lambda_a on P* define the polytope, with the
    marking read off the first point; a point that breaks a cover or moves
    a marked coordinate raises TheoremViolation.  All points are decided
    at once: the k-th byte of an integer stands for the k-th point, a
    cover's integer has byte k set to 1 when the cover is tight there, and
    reach[i] has it set when element i reaches a marked element at that
    point.  Reach spreads along the tight covers until it stops growing.
    """
    poset = structure.poset
    covers = poset.covers()
    columns = list(zip(*points))
    for i in mask_bits(structure.marked):
        fixed = points[0][i]
        if columns[i].count(fixed) != len(points):
            bad = next(x for x in points if x[i] != fixed)
            raise TheoremViolation(
                f"{bad} moves the marked coordinate {poset.elements[i]!r} off {fixed}")
    for p, q in covers:
        if any(map(lt, columns[p], columns[q])):
            bad = next(x for x in points if x[p] < x[q])
            raise TheoremViolation(
                f"{bad} breaks the cover {poset.elements[p]!r} < {poset.elements[q]!r}")
    every = int.from_bytes(b"\1" * len(points), "little")
    reach = [every if structure.marked >> i & 1 else 0 for i in range(poset.n)]
    tight = [(p, q, int.from_bytes(bytes(map(eq, columns[p], columns[q])), "little"))
             for p, q in covers]
    grown = True
    while grown:
        grown = False
        for p, q, t in tight:
            joined = (reach[p] | reach[q]) & t
            if joined & ~reach[p] or joined & ~reach[q]:
                reach[p] |= joined
                reach[q] |= joined
                grown = True
    vertex = every
    for r in reach:
        vertex &= r
    return tuple(sorted(compress(points, vertex.to_bytes(len(points), "little"))))


def marked_vertices(structure, points):
    """The sorted vertices of conv(points), the MRPP of the structure for the
    marking on the points' marked coordinates.

    MCOP-shaped structures (`mcop_split`) give MCOP(C, O), which is this
    MRPP (Fang, Fourier, Litza and Pegel 2020).  The theorem wants every
    extremal element marked, which validation enforces ("minmax"); a
    section structure of `mrpp_subdivide` inherits that, as its stronger
    order has no new extremal elements.  With C empty, MCOP(C, O) is the
    marked order polytope, whose vertices `_order_vertices` reads off the
    tight-cover partitions.  Otherwise the ranges and chains of
    `_mcop_inequalities` go as rows to `linalg.extreme_points`, whose rank
    test needs valid rows that include a defining system.  The chains,
    x_p = lambda_p on P* and x_p >= 0 on C (both among the ranges) define
    MCOP(C, O); only the chains of covers are listed, which leaves every
    rank as it is for the system of all chains (`_mcop_chains`).  The other
    ranges are extra rows, which keep the criterion because they are valid:
    on a maximal chain through p, the chains between consecutive anchors
    keep an O coordinate between the least and largest marking value and a
    C one at most their difference.  Other shapes, such as the Gr(2,5) FFLV
    parts, go to Wolfe's test.
    """
    split = mcop_split(structure)
    if split is None or not points:
        return tuple(sorted(linalg.extreme_points(points)))
    if not split[0]:
        return _order_vertices(structure, points)
    return tuple(sorted(linalg.extreme_points(points, _mcop_rows(structure, split, points[0]))))


def _mcop_rows(structure, split, point):
    """The ranges and chains of `_mcop_inequalities` for the split (C, O) of
    `mcop_split`, as integer rows (a, b) meaning a·x <= b, with the marking
    read off `point`."""
    n = structure.poset.n
    values = {i: point[i] for i in mask_bits(structure.marked)}
    ranges, chains = _mcop_inequalities(
        structure.poset, values, structure.marked | split[1], split[0])
    rows = []
    for i, (lo, hi) in ranges.items():
        rows += [(indicator(1 << i, n), hi), ([-x for x in indicator(1 << i, n)], -lo)]
    for a, mids, b in chains:
        row = list(indicator(sum(1 << p for p in mids) | 1 << b, n))
        row[a] = -1
        rows.append((row, 0))
    return rows


def marked_dimension(structure, points):
    """The dimension of conv(points), the lattice points of the structure's
    MRPP for the marking on their marked coordinates.

    For a marked order polytope (`mcop_split` gives C = 0, see
    `marked_vertices`) it is the number of free blocks (`_free_blocks`) at
    the sum of all points.  That sum is len(points) times their centroid,
    which weighs every point, so every vertex, positively and so lies in
    the relative interior of conv(points), where the smallest face is the
    polytope itself; the covers tight at the sum are those tight at the
    centroid.  Other shapes take the rank of `linalg.affine_dimension`.
    """
    split = mcop_split(structure)
    if split is None or split[0] or not points:
        return linalg.affine_dimension(points)
    total = list(map(sum, zip(*points)))
    tight = [(p, q) for p, q in structure.poset.covers() if total[p] == total[q]]
    return _free_blocks(structure.poset.n, structure.marked, tight)


def mcop_build(poset, marking, chain_part, order_part):
    """Marked chain-order polytope via two constructions that must agree.

    (1) bounding-box enumeration against the defining inequalities and
    (2) the MRPP with p <' q iff p < q and p not in P* u O.
    Their disagreement raises TheoremViolation.
    """
    marking = dict(marking)
    marked_mask = 0
    for label in marking:
        marked_mask |= 1 << poset.index(label)
    c_mask = o_mask = 0
    for x in chain_part:
        c_mask |= 1 << poset.index(x)
    for x in order_part:
        o_mask |= 1 << poset.index(x)
    free = poset.full & ~marked_mask
    if c_mask & o_mask or (c_mask | o_mask) != free:
        raise NotAPartition("C and O must partition the unmarked elements")
    values = {poset.index(k): int(v) for k, v in marking.items()}
    for i in values:
        for j in mask_bits(poset.above[i] & marked_mask):
            if values[i] < values[j]:
                raise NotDominant(
                    f"marking increases along {poset.elements[i]} < {poset.elements[j]}"
                )

    # construction (2): the MRPP of the order weakened away from P* u O
    weak_pairs = [
        (poset.elements[i], poset.elements[j])
        for i in mask_bits(free & ~o_mask)
        for j in mask_bits(poset.above[i])
    ]
    structure = validate_relative_structure(poset, weak_pairs, marking)
    mrpp = mrpp_points(structure)

    # construction (1): box enumeration against the chain-order inequalities;
    # the fixed marked coordinates are set first, then the free ones along a
    # linearization of (P,<), and each chain is checked as soon as its last
    # coordinate is set
    n = poset.n
    ranges, chains = _mcop_inequalities(poset, values, marked_mask | o_mask, c_mask)
    order = mask_bits(marked_mask) + [i for i in first_linearization(poset)
                                      if not marked_mask >> i & 1]
    position = {i: k for k, i in enumerate(order)}
    checks = [[] for _ in range(n)]
    for a, mids, b in chains:
        checks[max(position[i] for i in (a, b, *mids))].append((a, mids, b))

    box_points = []
    point = [0] * n

    def enumerate_box(k):
        if k == n:
            box_points.append(tuple(point))
            return
        i = order[k]
        lo, hi = ranges[i]
        for v in range(lo, hi + 1):
            point[i] = v
            if all(sum(point[p] for p in mids) <= point[a] - point[b]
                   for a, mids, b in checks[k]):
                enumerate_box(k + 1)

    enumerate_box(0)

    if set(box_points) != set(mrpp):
        raise TheoremViolation(
            "chain-order inequalities and the MRPP construction disagree"
        )
    return MarkedPolytope(structure, box_points)


def mcop_recognize(structure, target):
    """The first chain/order split (C, O), in bit order, whose MCOP equals
    `target`, a lattice point set; None when there is none.

    Split k puts the i-th free element in O when bit i of k is set, and the
    splits are ranked by k.  By the pairwise Ehrhart-equivalence of relative
    poset polytopes every MCOP of the marking has as many lattice points as
    the structure's MRPP, a count the multichain DP gives without building a
    point.  So the target is MCOP(C, O) exactly when it has that many points
    and each of them satisfies the split's ranges and chain inequalities
    (`_mcop_inequalities`, the ones `mcop_build`'s box search applies).  A
    backtracking search decides the free elements from the highest bit down,
    C before O, so its first complete split is the smallest k; each range and
    chain inequality is tested on every target point once its elements are
    decided, and a failure prunes the subtree.  Only the winning split's MCOP
    is built (with `mcop_build`'s cross-check); a target that differs from it
    raises TheoremViolation.
    """
    if structure.marked == 0:
        raise InvalidStructure("structure carries no marking")
    poset = structure.poset
    n = poset.n
    marked = structure.marked
    values = {i: structure.marking[i] for i in mask_bits(marked)}
    count = ehrhart_values(structure, 1)[1]
    points = {
        tuple(x) for x in (target.points if isinstance(target, MarkedPolytope) else target)
    }
    if len(points) != count or any(
        len(x) != n or any(v != int(v) for v in x) for x in points
    ):
        return None
    free = mask_bits(poset.full & ~marked)
    columns = list(zip(*points))

    def satisfied(anchors, middle, new):
        """Whether every target point meets the ranges of the elements in
        `new` and the chain inequalities among `anchors | middle` that
        involve one of them."""
        ranges, chains = _mcop_inequalities(poset, values, anchors, middle)
        for i in mask_bits(new):
            lo, hi = ranges[i]
            if not lo <= min(columns[i]) <= max(columns[i]) <= hi:
                return False
        for a, mids, b in chains:
            if new >> a & 1 or new >> b & 1 or any(new >> p & 1 for p in mids):
                total = columns[b]
                for p in mids:
                    total = map(add, total, columns[p])
                if not all(map(le, total, columns[a])):
                    return False
        return True

    def search(k, o_mask, c_mask):
        if k < 0:
            return o_mask, c_mask
        bit = 1 << free[k]
        for o, c in ((o_mask, c_mask | bit), (o_mask | bit, c_mask)):
            if satisfied(marked | o, c, bit):
                found = search(k - 1, o, c)
                if found is not None:
                    return found
        return None

    found = search(len(free) - 1, 0, 0) if satisfied(marked, 0, marked) else None
    if found is None:
        return None
    labels = lambda mask: tuple(sorted(poset.elements[i] for i in mask_bits(mask)))
    o_part, c_part = labels(found[0]), labels(found[1])
    marking = {poset.elements[i]: v for i, v in values.items()}
    built = mcop_build(poset, marking, c_part, o_part)
    if set(built.points) != points:
        raise TheoremViolation(
            f"the inequalities of MCOP(C={list(c_part)}, O={list(o_part)}) hold on all"
            f" {count} target points but it has {len(built.points)}: the MCOPs of one"
            " marking are not Ehrhart-equivalent"
        )
    return c_part, o_part
