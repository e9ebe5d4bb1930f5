"""Binomial/monomial presentations, the distinguished cone, regular
subdivisions under weights, part-order recovery and Zhu-style components.

Weights live in R^{J(P,<)} as sequences of Fractions (or ints) aligned with
the lattice positions.  A weight is admissible for subdivision when it lies
in the closed cone cut out by

    w_{J1} + w_{J2} <= w_{J1 u J2} + w_{J1 * J2}

over incomparable pairs.  The subdivision itself is computed without convex
hulls: the linearization simplices triangulate every part, so grouping
simplices by exact equality of the interpolated affine lift is correct, and
that grouping is invariant under negating the weight.  Worked examples in
the literature appear in both lifting conventions, so `subdivide` accepts a
weight whenever it or its negation lies in the closed cone; `cone_position`
always reports the literal position.
"""

from fractions import Fraction

from .errors import InternalClosureFailure, KindMismatch, OutsideCone
from .lattice import star, star_closure_failure, sublattice_to_order
from .posets import linear_extension_indices, mask_bits


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


def cone_position(structure, w):
    """Evaluate w against the defining inequalities of the distinguished cone."""
    values = as_weight(structure, w)
    lat = structure.lattice
    violated = []
    tight = []
    for a, b in lat.incomparable_pairs:
        union = lat.position[lat.masks[a] | lat.masks[b]]
        s = star(a, b, structure)
        slack = values[union] + values[s] - values[a] - values[b]
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
    """w_J = |P \\ J|^2, strictly inside the cone for every valid structure."""
    n = structure.poset.n
    return WeightVector(
        [(n - bin(m).count("1")) ** 2 for m in structure.lattice.masks]
    )


class Part:
    """One part of a regular subdivision of the relative poset polytope."""

    def __init__(self, sublattice, order, affine, linearization_count):
        self.sublattice = tuple(sublattice)  # lattice positions, ascending
        self.order = order  # recovered <'' as a Poset
        self.affine = affine  # (a: tuple of Fractions over P, b: Fraction)
        self.linearization_count = linearization_count

    def added_covers(self, base_poset):
        """Cover pairs of the recovered order that are not relations of the base."""
        return [
            (self.order.elements[i], self.order.elements[j])
            for i, j in self.order.covers()
            if not base_poset.less(i, j)
        ]


class Subdivision:
    def __init__(self, structure, weight, parts):
        self.structure = structure
        self.weight = weight
        self.parts = tuple(parts)

    def __len__(self):
        return len(self.parts)


def affine_lift_on_chain(structure, extension, values):
    """Interpolate the weight on the simplex of one linearization.

    Walking the chain, adding element p turns 1_{max' J} into itself plus
    e_p minus the indicators knocked below p by <'; that triangular structure
    determines the affine function (a, b) by forward substitution.  Returns
    (a, b) and the lattice positions of the chain's ideals.
    """
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


def subdivide(structure, w):
    """Regular subdivision of R(P,<,<') induced by a weight in the closed cone.

    Linearizations are grouped by exact equality of their affine lifts; each
    group's chain ideals form the part's sublattice, whose recovered order is
    the part's <''.  Raises OutsideCone when neither w nor -w is admissible:
    -w lies in the closed cone exactly when no inequality is strict for w.
    """
    values = as_weight(structure, w)
    pos = cone_position(structure, values)
    lat = structure.lattice
    if (pos.position == "outside"
            and len(pos.violated) + len(pos.tight) < len(lat.incomparable_pairs)):
        raise OutsideCone(
            [(lat.label_key(a), lat.label_key(b)) for a, b in pos.violated]
        )
    groups = {}
    extensions = linear_extension_indices(structure.poset)
    for ext in extensions:
        key, chain = affine_lift_on_chain(structure, ext, values)
        entry = groups.setdefault(key, [set(), 0])
        entry[0].update(chain)
        entry[1] += 1
    parts = []
    for (a, b), (positions, count) in groups.items():
        sub = tuple(sorted(positions))
        order = sublattice_to_order([lat.masks[i] for i in sub], structure.poset)
        part_structure = structure.with_order(order)
        failure = star_closure_failure(part_structure)
        if failure is not None:
            x, y = (part_structure.lattice.label_key(pos) for pos in failure)
            raise InternalClosureFailure(f"star of {x!r} and {y!r} left the lattice")
        # the affine function must reproduce the weight on the part's vertices
        for i in sub:
            vertex_mask = structure.max_weak(lat.masks[i])
            value = b + sum(a[p] for p in mask_bits(vertex_mask))
            if value != values[i]:
                raise InternalClosureFailure("affine lift does not interpolate the part")
        parts.append(Part(sub, order, (a, b), count))
    parts.sort(key=lambda p: p.sublattice)
    if sum(p.linearization_count for p in parts) != len(extensions):
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
        part_structure = structure.with_order(part.order).unmarked()
        to_base = [lat.position[m] for m in part_structure.lattice.masks]
        presentation = IdealPresentation("relative", [
            ((to_base[a], to_base[b]), (to_base[u], to_base[s]))
            for (a, b), (u, s) in ideal_presentation(part_structure, "relative").generators
        ])
        inside = set(part.sublattice)
        vanishing = [i for i in range(len(lat)) if i not in inside]
        components.append(ZhuComponent(part, presentation, vanishing))
    return subdivision, components


def standard_monomial_count(structure, m):
    """Degree-m standard monomials of the monomial ideal: weakly increasing tuples."""
    return structure.lattice.multichain_count(m)


def minimal_cone_shift(structure, values):
    """Smallest integer t with values + t * canonical inside the closed cone."""
    lat = structure.lattice
    canonical = as_weight(structure, canonical_interior_weight(structure))
    t = 0
    for a, b in lat.incomparable_pairs:
        union = lat.position[lat.masks[a] | lat.masks[b]]
        s = star(a, b, structure)
        slack_w = values[a] + values[b] - values[union] - values[s]
        if slack_w <= 0:
            continue
        slack_c = canonical[union] + canonical[s] - canonical[a] - canonical[b]
        needed = -(-slack_w // slack_c)  # exact ceiling of slack_w / slack_c
        t = max(t, int(needed))
    return t


def sample_cone_weight(structure, rng, spread=9):
    """Random integer weight shifted into the closed cone by t * canonical."""
    lat = structure.lattice
    raw = [Fraction(rng.randint(-spread, spread)) for _ in lat.masks]
    t = minimal_cone_shift(structure, raw)
    canonical = as_weight(structure, canonical_interior_weight(structure))
    return WeightVector([r + t * c for r, c in zip(raw, canonical)])
