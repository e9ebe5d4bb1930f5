"""Finite posets, order enumeration and relative-structure validation.

Elements are canonically indexed by input order; every subset that appears
downstream (ideals, antichains, marked sets) is an int bitmask over that
indexing.  The strict order itself is stored as one bitmask per element:
``above[i]`` is the set of j with i < j.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ConditionViolated, CycleDetected, ValidationError


def transitive_closure(above, n):
    """Close a strict relation given as per-element 'above' bitmasks."""
    rows = list(above)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return tuple(rows)


def mask_bits(mask):
    """Indices of the set bits of a mask, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Poset:
    """An immutable finite poset with a transitively closed strict order.

    Instances are cheap value objects; do not mutate `elements` or `above`
    after construction.  `above[i]` holds the strictly greater elements,
    `below[i]` the strictly smaller ones.
    """

    def __init__(self, elements, above):
        self.elements = tuple(elements)
        self.above = tuple(above)
        self.n = len(self.elements)
        self.full = (1 << self.n) - 1
        self._index = {e: i for i, e in enumerate(self.elements)}

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown element {label!r}") from None

    def less(self, i, j):
        return bool(self.above[i] >> j & 1)

    @cached_property
    def below(self):
        rows = [0] * self.n
        for i in range(self.n):
            for j in mask_bits(self.above[i]):
                rows[j] |= 1 << i
        return tuple(rows)

    @cached_property
    def minimals(self):
        return sum(1 << i for i in range(self.n) if self.below[i] == 0)

    @cached_property
    def maximals(self):
        return sum(1 << i for i in range(self.n) if self.above[i] == 0)

    @cached_property
    def upper_covers(self):
        """For each element i, the mask of the j with i < j and nothing
        strictly between: above[i] minus everything above an element of it."""
        above = self.above
        out = []
        for row in above:
            reach = 0
            rest = row
            while rest:
                low = rest & -rest
                reach |= above[low.bit_length() - 1]
                rest ^= low
            out.append(row & ~reach)
        return tuple(out)

    def covers(self):
        """Cover pairs (i, j): i < j with nothing strictly between, by i, then j."""
        return [(i, j) for i, row in enumerate(self.upper_covers) for j in mask_bits(row)]

    def cover_labels(self):
        return [(self.elements[i], self.elements[j]) for i, j in self.covers()]

    def down_closure(self, mask):
        """The order ideal generated by `mask`."""
        out = mask
        for i in mask_bits(mask):
            out |= self.below[i]
        return out

    def is_ideal(self, mask):
        for i in mask_bits(mask):
            if self.below[i] & ~mask:
                return False
        return True

    def is_weaker_than(self, other):
        """True when every relation of self holds in `other` (same elements)."""
        return self.elements == other.elements and all(
            a & ~b == 0 for a, b in zip(self.above, other.above)
        )

    def key(self):
        return (self.elements, self.above)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        pairs = ",".join(f"{a}<{b}" for a, b in self.cover_labels())
        return f"Poset({list(self.elements)}; {pairs})"


def _find_cycle(n, edges, start):
    # BFS over the raw cover edges, tracking one path back to `start`.
    parent = {start: None}
    queue = [start]
    while queue:
        u = queue.pop(0)
        for a, b in edges:
            if a != u:
                continue
            if b == start:
                path = [start]
                v = u
                while v is not None and v != start:
                    path.append(v)
                    v = parent[v]
                path.reverse()
                return path
            if b not in parent:
                parent[b] = u
                queue.append(b)
    return [start]


def build_poset(elements, covers):
    """Build a poset from labels and covering pairs; rejects cycles by name."""
    elements = list(elements)
    seen = set()
    for e in elements:
        if e in seen:
            raise ValidationError(f"duplicate element {e!r}")
        seen.add(e)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    above = [0] * n
    edge_list = []
    for a, b in covers:
        if a not in index:
            raise ValidationError(f"unknown element {a!r} in cover ({a!r}, {b!r})")
        if b not in index:
            raise ValidationError(f"unknown element {b!r} in cover ({a!r}, {b!r})")
        if a == b:
            raise CycleDetected([a])
        above[index[a]] |= 1 << index[b]
        edge_list.append((index[a], index[b]))
    closed = transitive_closure(above, n)
    for i in range(n):
        if closed[i] >> i & 1:
            cycle = _find_cycle(n, edge_list, i)
            raise CycleDetected([elements[v] for v in cycle])
    return Poset(elements, closed)


def antichain_poset(elements):
    return Poset(elements, (0,) * len(elements))


def chain_poset(elements):
    elements = list(elements)
    n = len(elements)
    above = [0] * n
    for i in range(n - 1):
        above[i] = 1 << (i + 1)
    return Poset(elements, transitive_closure(above, n))


def linear_extension_indices(poset):
    """All linearizations as index tuples, built by peeling minimal elements
    depth first, the smallest index first.

    The elements that can come next depend only on the ideal already
    placed.  So each ideal's level, the mask of its minimal unplaced
    elements and their indices, is built once, on the ideal's first visit,
    and kept in a table keyed by the placed mask; a later visit iterates
    the kept indices.  Placing i makes minimal only upper covers of i, so a
    level is built from its parent's in as many steps as i has upper
    covers, never by a scan of all n elements.  The walk keeps its own
    stack of iterators, so a chain longer than the recursion limit still
    has its one linearization.
    """
    n = poset.n
    below = poset.below
    upper_covers = [mask_bits(row) for row in poset.upper_covers]
    start = sum(1 << i for i in range(n) if not below[i])
    levels = {0: (start, mask_bits(start))}
    out = [] if n else [()]  # the empty poset has one, empty, linearization
    current = []
    placed = 0
    stack = [iter(levels[0][1])]
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
            if current:
                placed ^= 1 << current.pop()
            continue
        current.append(i)
        if len(current) == n:  # a full ideal has an empty level: record, step back
            out.append(tuple(current))
            current.pop()
            continue
        placed |= 1 << i
        level = levels.get(placed)
        if level is None:
            mask = levels[placed ^ 1 << i][0] ^ 1 << i
            for j in upper_covers[i]:
                if below[j] & ~placed == 0:
                    mask |= 1 << j
            level = levels[placed] = (mask, mask_bits(mask))
        stack.append(iter(level[1]))
    return out


class RelativeStructure:
    """A validated triple (P, <, <') with an optional marking.

    ``weak_above`` stores <' in the same bitmask format as the poset order.
    ``marked`` is a bitmask (0 when absent) and ``marking`` maps marked
    element indices to integers.
    """

    def __init__(self, poset, weak_above, marked=0, marking=None):
        self.poset = poset
        self.weak_above = tuple(weak_above)
        self.marked = marked
        self.marking = dict(marking or {})

    @cached_property
    def weak_below(self):
        rows = [0] * self.poset.n
        for i in range(self.poset.n):
            for j in mask_bits(self.weak_above[i]):
                rows[j] |= 1 << i
        return tuple(rows)

    @cached_property
    def lattice(self):
        from .lattice import enumerate_ideals

        return enumerate_ideals(self.poset)

    @cached_property
    def ideal_count(self):
        """|J(P,<)|, without listing J(P) when P is disconnected.

        J(P ⊔ Q) is J(P) × J(Q), so the count is the product over the
        components of the comparability graph: a chain of k elements counts
        k + 1, any other component the ideals listed on its own.  A lattice
        already built, or a connected P, gives `len(lattice)`, and the
        connected case keeps the lattice it lists."""
        if "lattice" in self.__dict__:
            return len(self.lattice)
        from .lattice import enumerate_ideals

        poset = self.poset
        linked = [a | b for a, b in zip(poset.above, poset.below)]
        components = []
        left = poset.full
        while left:
            component = frontier = left & -left
            while frontier:
                reach = 0
                for i in mask_bits(frontier):
                    reach |= linked[i]
                frontier = reach & ~component
                component |= frontier
            left ^= component
            components.append(mask_bits(component))
        if len(components) < 2:
            return len(self.lattice)
        count = 1
        for members in components:
            k = len(members)
            if sum(bin(linked[i]).count("1") for i in members) == k * (k - 1):
                count *= k + 1
            else:
                index = {i: r for r, i in enumerate(members)}
                above = [sum(1 << index[j] for j in mask_bits(poset.above[i]))
                         for i in members]
                count *= len(enumerate_ideals(Poset(members, above)))
        return count

    def weak_down_closure(self, mask):
        out = mask
        for i in mask_bits(mask):
            out |= self.weak_below[i]
        return out

    def max_weak(self, mask):
        """<'-maximal elements of a subset."""
        out = 0
        for i in mask_bits(mask):
            if self.weak_above[i] & mask == 0:
                out |= 1 << i
        return out

    @cached_property
    def weak_maxima(self):
        """max' of each ideal of the lattice, by position."""
        return tuple(self.max_weak(m) for m in self.lattice.masks)

    def with_order(self, poset, lattice=None):
        """Same weak order and marking over a stronger base order.

        `lattice`, when given, must be J(poset); it spares the enumeration.
        """
        out = RelativeStructure(poset, self.weak_above, self.marked, self.marking)
        if lattice is not None:
            out.__dict__["lattice"] = lattice
        return out

    def unmarked(self):
        """The structure without its marking; a lattice already built is kept."""
        return RelativeStructure(self.poset, self.weak_above).with_order(
            self.poset, self.__dict__.get("lattice")
        )

    def __repr__(self):
        weak = ",".join(
            f"{self.poset.elements[i]}<'{self.poset.elements[j]}"
            for i in range(self.poset.n)
            for j in mask_bits(self.weak_above[i])
        )
        return f"RelativeStructure({self.poset!r}; {weak or 'trivial'})"


def order_structure(poset):
    """<' trivial: the relative polytope becomes the order polytope."""
    return validate_relative_structure(poset, [])


def chain_structure(poset):
    """<' equal to <: the relative polytope becomes the chain polytope."""
    weak = [
        (poset.elements[i], poset.elements[j])
        for i in range(poset.n)
        for j in mask_bits(poset.above[i])
    ]
    return validate_relative_structure(poset, weak)


def validate_relative_structure(poset, weak_covers, marked=None):
    """Check conditions (i)-(iii) plus marking sanity and return the structure.

    `weak_covers` is a list of label pairs generating <'; `marked` is an
    optional mapping from labels to integer marking values.  Raises
    ConditionViolated naming the failed condition with a witness.
    """
    n = poset.n
    rows = [0] * n
    for a, b in weak_covers:
        rows[poset.index(a)] |= 1 << poset.index(b)
    weak_above = transitive_closure(rows, n)
    for i in range(n):
        if weak_above[i] >> i & 1:
            raise ConditionViolated("i", poset.elements[i], "weak relation is cyclic")
        extra = weak_above[i] & ~poset.above[i]
        if extra:
            j = mask_bits(extra)[0]
            raise ConditionViolated(
                "i",
                (poset.elements[i], poset.elements[j]),
                f"{poset.elements[i]} <' {poset.elements[j]} does not hold in <",
            )

    structure = RelativeStructure(poset, weak_above)

    from .lattice import star_closure_failure

    failure = star_closure_failure(structure)
    if failure is not None:
        lat = structure.lattice
        raise ConditionViolated(
            "ii",
            tuple(lat.label_key(pos) for pos in failure),
            "ideal lattice is not closed under the star operation",
        )

    if marked is not None:
        marked_mask = 0
        marking = {}
        for label, value in marked.items():
            i = poset.index(label)
            marked_mask |= 1 << i
            marking[i] = int(value)
        for i in mask_bits(marked_mask):
            if weak_above[i]:
                j = mask_bits(weak_above[i])[0]
                raise ConditionViolated(
                    "iii",
                    (poset.elements[i], poset.elements[j]),
                    f"marked element {poset.elements[i]} has {poset.elements[j]} above it in <'",
                )
        missing = (poset.minimals | poset.maximals) & ~marked_mask
        if missing:
            i = mask_bits(missing)[0]
            raise ConditionViolated(
                "minmax", poset.elements[i],
                f"extremal element {poset.elements[i]} is not marked",
            )
        for i in mask_bits(marked_mask):
            for j in mask_bits(poset.above[i] & marked_mask):
                if marking[i] < marking[j]:
                    raise ConditionViolated(
                        "dominance",
                        (poset.elements[i], poset.elements[j]),
                        f"marking increases along {poset.elements[i]} < {poset.elements[j]}",
                    )
        # the same structure, marked: the lattice of the star check is kept
        structure.marked = marked_mask
        structure.marking = marking
    return structure
