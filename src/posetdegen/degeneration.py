"""Binomial/monomial presentations, the distinguished cone, regular
subdivisions under weights, part-order recovery and Zhu-style components.

Weights live in R^{J(P,<)} as sequences of Fractions (or ints) aligned with
the lattice positions.  A weight is admissible for subdivision when it lies
in the closed cone cut out by

    w_{J1} + w_{J2} <= w_{J1 u J2} + w_{J1 * J2}

over incomparable pairs.  The subdivision itself is computed without convex
hulls: the linearization simplices triangulate every part, and the part of
a simplex is the set of ideals J on which its affine lift f meets the
weight, f(J) = w_J.  Strictly inside the cone every simplex is its own
part; on the boundary the parts are found by walking across their walls,
so the work grows with the number of parts rather than with e(P), and a
walk that would lift more than e(P) linearizations lifts each one once
instead.  The parts do not change when the weight is negated.  Worked
examples in the literature appear in both lifting conventions, so
`subdivide` accepts a weight whenever it or its negation lies in the
closed cone; `cone_position` always reports the literal position.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import InternalClosureFailure, KindMismatch, OutsideCone
from .lattice import IdealLattice, star, star_closure_failure, sublattice_to_order
from .posets import Poset, linear_extension_indices, mask_bits


class WeightVector:
    """Rational weights, one per ideal, aligned with the lattice positions."""

    def __init__(self, values):
        self.values = tuple(Fraction(v) for v in values)

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    def __neg__(self):
        return WeightVector(tuple(-v for v in self.values))


def as_weight(structure, w):
    values = tuple(Fraction(v) for v in (w.values if isinstance(w, WeightVector) else w))
    if len(values) != len(structure.lattice):
        raise ValueError(
            f"weight has {len(values)} entries, lattice has {len(structure.lattice)}"
        )
    return values


class IdealPresentation:
    """Generators of a Hibi / Hibi-Li / relative / monomial ideal.

    Each generator is ((a, b), (u, s)) in lattice positions: the binomial
    X_a X_b - X_u X_s, with the second pair None for the monomial kind.
    """

    KINDS = ("hibi", "hibili", "relative", "monomial")

    def __init__(self, kind, generators):
        self.kind = kind
        self.generators = tuple(generators)

    def __len__(self):
        return len(self.generators)


def ideal_presentation(structure, kind):
    """One generator per unordered incomparable pair of ideals."""
    if kind not in IdealPresentation.KINDS:
        raise KindMismatch(f"unknown presentation kind {kind!r}")
    lat = structure.lattice
    if kind == "hibili" and structure.weak_above != structure.poset.above:
        raise KindMismatch("hibili presentation requires <' = <")
    gens = []
    for a, b in lat.incomparable_pairs:
        union = lat.position[lat.masks[a] | lat.masks[b]]
        if kind == "monomial":
            gens.append(((a, b), None))
        elif kind == "hibi":
            meet = lat.position[lat.masks[a] & lat.masks[b]]
            gens.append(((a, b), (union, meet)))
        else:  # hibili (with <' = <) and relative both use the structure's star
            gens.append(((a, b), (union, star(a, b, structure))))
    return IdealPresentation(kind, gens)


class ConePosition:
    def __init__(self, position, violated, tight):
        self.position = position  # 'interior' | 'boundary' | 'outside'
        self.violated = tuple(violated)
        self.tight = tuple(tight)

    def __repr__(self):
        return f"ConePosition({self.position}, violated={self.violated}, tight={self.tight})"


def integer_weight(values):
    """Rational values as (ints, scale): each value times the lcm of their
    denominators, a positive int."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def cone_position(structure, w):
    """Evaluate w against the defining inequalities of the distinguished cone.

    The slacks are compared in integers: w is scaled once by
    `integer_weight`, whose scale is positive, so no slack changes sign."""
    values, _ = integer_weight(as_weight(structure, w))
    lat = structure.lattice
    position, masks = lat.position, lat.masks
    violated = []
    tight = []
    for a, b in lat.incomparable_pairs:
        slack = (values[position[masks[a] | masks[b]]] + values[star(a, b, structure)]
                 - values[a] - values[b])
        if slack < 0:
            violated.append((a, b))
        elif slack == 0:
            tight.append((a, b))
    if violated:
        return ConePosition("outside", violated, tight)
    if tight:
        return ConePosition("boundary", (), tight)
    return ConePosition("interior", (), ())


def canonical_interior_weight(structure):
    """w_J = |P \\ J|^2, strictly inside the cone for every valid structure.

    No command calls it; it stays public as the README's canonical weight,
    the one whose subdivision is the canonical triangulation, for library
    users to build without writing a weights file."""
    n = structure.poset.n
    return WeightVector(
        [(n - bin(m).count("1")) ** 2 for m in structure.lattice.masks]
    )


class Part:
    """One part of a regular subdivision of the relative poset polytope.

    Its affine function is `lift / scale`: `lift` is (a: tuple of ints over
    P, b: int) and `scale` the one denominator shared by every part.
    """

    def __init__(self, sublattice, order, covers, lift, scale, linearization_count):
        self.sublattice = tuple(sublattice)  # lattice positions, ascending
        self.order = order  # recovered <'' as a Poset
        self.covers = covers  # order.covers(), as that lists them
        self.lift = lift
        self.scale = scale
        self.linearization_count = linearization_count

    @cached_property
    def affine(self):
        """The affine function as (a: tuple of Fractions over P, b: Fraction)."""
        a, b = self.lift
        return tuple(Fraction(x, self.scale) for x in a), Fraction(b, self.scale)

    def added_covers(self, base_poset):
        """Cover pairs of the recovered order that are not relations of the base."""
        labels, above = self.order.elements, base_poset.above
        return [(labels[i], labels[j]) for i, j in self.covers if not above[i] >> j & 1]


def structure_of_part(structure, part):
    """The structure over a part's order <'', with the lattice J(<'') that
    `subdivide` certified: the part's members, in base lattice order."""
    masks = structure.lattice.masks
    lattice = IdealLattice(part.order, [masks[i] for i in part.sublattice])
    return structure.with_order(part.order, lattice)


class Subdivision:
    def __init__(self, structure, weight, parts):
        self.structure = structure
        self.weight = weight
        self.parts = tuple(parts)

    def __len__(self):
        return len(self.parts)


def affine_lift_on_chain(structure, extension, values):
    """Interpolate integer weights on the simplex of one linearization.

    Walking the chain, adding element p turns 1_{max' J} into itself plus
    e_p minus the indicators knocked below p by <'; that triangular structure
    determines the affine function (a, b) by forward substitution, in ints
    when the values are ints.  Returns (a, b) and the lattice positions of
    the chain's ideals.
    """
    position = structure.lattice.position
    a = [0] * structure.poset.n
    cur_mask = 0
    cur_max = 0
    chain = [0]  # the empty ideal sorts first
    prev_value = b = values[0]
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


def first_linearization(poset):
    """A linearization of (P,<): each element after everything below it."""
    out = []
    placed = 0
    while placed != poset.full:
        i = next(i for i in mask_bits(poset.full & ~placed) if poset.below[i] & ~placed == 0)
        out.append(i)
        placed |= 1 << i
    return out


def wall_crossings(ext, order, covers, base):
    """One linearization of the base order beyond each wall of a part.

    `ext` is a linearization of the part's order <'' and `covers` its cover
    pairs.  For each cover p ⋖'' q that the base order leaves incomparable,
    the elements between p and q in `ext` that lie above p move to just
    after q: nothing lies between p and q, so this is a linearization of
    <'' with q right after p.
    Swapping p and q gives a linearization of < whose simplex lies across
    that wall.
    """
    index = {x: k for k, x in enumerate(ext)}
    for p, q in covers:
        if base.less(p, q):
            continue
        i, j = index[p], index[q]
        above = order.above[p]
        between = ext[i + 1:j]
        yield (ext[:i] + [x for x in between if not above >> x & 1] + [q, p]
               + [x for x in between if above >> x & 1] + ext[j + 1:])


def triangulation_parts(structure, values, vertex_bits):
    """One part per linearization, for weights strictly inside the cone (or
    its negation): the part's order is the linearization itself, whose
    covers are its consecutive pairs.  A chain's ideals are all comparable,
    so no part needs a star check.

    The lift is `affine_lift_on_chain`'s forward substitution, shared along
    prefixes: step k depends only on the first k elements, so each
    linearization keeps the steps of the prefix it shares with the one
    before (`linear_extension_indices` lists them depth first) and lifts
    and checks only its new suffix.  Every node of the prefix tree is
    lifted once.
    """
    poset = structure.poset
    n, full = poset.n, poset.full
    position = structure.lattice.position
    weak_below = structure.weak_below
    a = [0] * n
    above = [0] * n  # the linearization's order: above[p] = the elements after p
    masks = [0] * (n + 1)  # masks[k]: the ideal of the first k elements
    maxes = [0] * (n + 1)  # its <'-maximal elements
    chain = [0] * (n + 1)  # its lattice position; the empty ideal sorts first
    b = values[0]
    parts = []
    lifts = set()
    prev = ()
    for ext in linear_extension_indices(poset):
        shared = 0
        while shared < len(prev) and prev[shared] == ext[shared]:
            shared += 1
        for k in range(shared, n):
            p = ext[k]
            mask = masks[k + 1] = masks[k] | 1 << p
            knocked = maxes[k] & weak_below[p]
            maxes[k + 1] = maxes[k] & ~knocked | 1 << p
            pos = chain[k + 1] = position[mask]
            value = values[pos]
            a[p] = value - values[chain[k]]
            if knocked:
                a[p] += sum(map(a.__getitem__, mask_bits(knocked)))
            if b + sum(map(a.__getitem__, vertex_bits[pos])) != value:
                raise InternalClosureFailure("affine lift does not interpolate the part")
            above[p] = full ^ mask
        prev = ext
        affine = (tuple(a), b)
        if affine in lifts:
            raise InternalClosureFailure("two linearizations share an affine lift")
        lifts.add(affine)
        parts.append((chain[:], Poset(poset.elements, above), sorted(zip(ext, ext[1:])),
                      affine, 1))
    return parts


def walk_parts(structure, values, vertex_bits, linearizations):
    """The parts of a coarse subdivision, walked from part to part.

    A part's lift f is read off any of its linearizations; its members are
    the ideals J with f(J) = w_J, and each wall to a neighbouring part is
    crossed by `wall_crossings`.  A walk across a fine subdivision lifts
    each part once per wall; once it has made as many lifts as there are
    linearizations, every linearization is lifted once instead, so the walk
    never costs more than twice the lifts of `triangulation_parts`.  The
    weight must lie on one side of every part's lift (w - f >= 0
    throughout, or <= 0 throughout): that one-sided lift certifies the
    subdivision as regular.
    """
    poset = structure.poset
    masks = structure.lattice.masks
    parts = []
    lifts = set()
    signs = set()

    def visit(ext):
        """The order and covers of the part that `ext` lies in, or None if
        already found."""
        affine, _ = affine_lift_on_chain(structure, ext, values)
        if affine in lifts:
            return None
        lifts.add(affine)
        a, b = affine
        members = []
        for i, bits in enumerate(vertex_bits):
            gap = values[i] - b - sum(a[p] for p in bits)
            if gap:
                signs.add(gap > 0)
            else:
                members.append(i)
        if len(signs) > 1:
            raise InternalClosureFailure("the weight lies on both sides of a part's lift")
        member_masks = [masks[i] for i in members]
        order = sublattice_to_order(member_masks, poset)
        # sublattice_to_order certified member_masks as exactly J(<''), in lattice order
        part_lattice = IdealLattice(order, member_masks)
        failure = star_closure_failure(structure.with_order(order, part_lattice))
        if failure is not None:
            x, y = (part_lattice.label_key(pos) for pos in failure)
            raise InternalClosureFailure(f"star of {x!r} and {y!r} left the lattice")
        covers = order.covers()
        parts.append((members, order, covers, affine, part_lattice.maximal_chain_count()))
        return order, covers

    queue = [first_linearization(poset)]
    budget = linearizations
    while queue and budget:
        ext = queue.pop()
        budget -= 1
        found = visit(ext)
        if found is not None:
            queue.extend(wall_crossings(ext, *found, poset))
    if queue:
        for ext in linear_extension_indices(poset):
            visit(ext)
    return parts


def subdivide(structure, w):
    """Regular subdivision of R(P,<,<') induced by a weight in the closed cone.

    Raises OutsideCone when neither w nor -w is admissible: -w lies in the
    closed cone exactly when no inequality is strict for w.  When every
    inequality is strict for w or for -w, each linearization simplex is a
    part (`triangulation_parts`); otherwise the parts are walked
    (`walk_parts`), at a cost that grows with their number, not with e(P),
    and is at most that of lifting every linearization twice.
    The weight is scaled once to integers, and each part keeps its integer
    lift with that scale.  Either way the parts' linearization counts must
    add up to e(P).
    """
    values = as_weight(structure, w)
    ints, scale = integer_weight(values)
    pos = cone_position(structure, ints)
    lat = structure.lattice
    pairs = len(lat.incomparable_pairs)
    if pos.position == "outside" and len(pos.violated) + len(pos.tight) < pairs:
        raise OutsideCone(
            [(lat.label_key(a), lat.label_key(b)) for a, b in pos.violated]
        )
    vertex_bits = [mask_bits(top) for top in structure.weak_maxima]
    linearizations = lat.maximal_chain_count()
    if not pos.tight and len(pos.violated) in (0, pairs):
        found = triangulation_parts(structure, ints, vertex_bits)
    else:
        found = walk_parts(structure, ints, vertex_bits, linearizations)
    parts = sorted(
        (Part(sub, order, covers, lift, scale, count)
         for sub, order, covers, lift, count in found),
        key=lambda p: p.sublattice,
    )
    if sum(p.linearization_count for p in parts) != linearizations:
        raise InternalClosureFailure("parts do not account for every linearization")
    return Subdivision(structure, values, parts)


class ZhuComponent:
    """A part together with the presentation of its relative Hibi ideal and
    the coordinates that vanish on it, both in positions of the base lattice."""

    def __init__(self, part, presentation, vanishing):
        self.part = part
        self.presentation = presentation
        self.vanishing = tuple(vanishing)  # lattice positions outside the part


def zhu_components(structure, w):
    """Per part: generators of I_{P,<'',<'} plus the vanishing variables X_J."""
    subdivision = subdivide(structure, w)
    lat = structure.lattice
    components = []
    for part in subdivision.parts:
        to_base = part.sublattice
        part_structure = structure_of_part(structure, part).unmarked()
        presentation = IdealPresentation("relative", [
            ((to_base[a], to_base[b]), (to_base[u], to_base[s]))
            for (a, b), (u, s) in ideal_presentation(part_structure, "relative").generators
        ])
        inside = set(part.sublattice)
        vanishing = [i for i in range(len(lat)) if i not in inside]
        components.append(ZhuComponent(part, presentation, vanishing))
    return subdivision, components
