"""The distributive lattice of order ideals and its operations.

Ideals are bitmasks over the poset's element indexing; the lattice stores
them sorted by (cardinality, bit pattern), and that sorted position is the
canonical key used by weight vectors downstream.
"""

from functools import cached_property

from .errors import HeightDeficient, InternalClosureFailure, NotASublattice
from .posets import Poset, mask_bits


class IdealLattice:
    """J(P,<) as a sorted list of ideal bitmasks with position lookup."""

    def __init__(self, poset, masks):
        self.poset = poset
        self.masks = tuple(masks)
        self.position = {m: i for i, m in enumerate(self.masks)}

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    def label_key(self, pos):
        """Comma-joined sorted labels of an ideal; the empty ideal is ''."""
        labels = sorted(self.poset.elements[i] for i in mask_bits(self.masks[pos]))
        return ",".join(labels)

    @cached_property
    def superset_lists(self):
        """For each position, the positions of all ideals containing it (incl. itself)."""
        out = []
        for i, m in enumerate(self.masks):
            out.append([j for j, mm in enumerate(self.masks) if mm & m == m])
        return out

    @cached_property
    def incomparable_pairs(self):
        out = []
        for a in range(len(self.masks)):
            for b in range(a + 1, len(self.masks)):
                m1, m2 = self.masks[a], self.masks[b]
                if m1 & ~m2 and m2 & ~m1:
                    out.append((a, b))
        return out

    def multichain_count(self, m):
        """Number of weakly increasing m-tuples of ideals."""
        return self.prescribed_multichain_count(0, [0] * m)

    def prescribed_multichain_count(self, marked, reqs):
        """Number of weakly increasing chains J_1 <= ... <= J_k of ideals with
        J_d & marked == reqs[d], the chains that `packed_multichains` sums.

        One DP over `superset_lists`: counts[j] is the number of chains so
        far that end in ideal j; a step pushes each count to every superset
        and keeps those that meet the step's requirement.
        """
        if not reqs:
            return 1
        masks = self.masks
        supersets = self.superset_lists
        counts = [1 if mask & marked == reqs[0] else 0 for mask in masks]
        for req in reqs[1:]:
            nxt = [0] * len(masks)
            for i, ci in enumerate(counts):
                if ci:
                    for j in supersets[i]:
                        nxt[j] += ci
            if marked:
                nxt = [c if mask & marked == req else 0 for c, mask in zip(nxt, masks)]
            counts = nxt
        return sum(counts)

    def maximal_chain_count(self):
        """Number of maximal chains (equals the number of linearizations of <)."""
        counts = {0: 1}
        for m in self.masks:  # sorted by cardinality, so predecessors come first
            if m == 0:
                continue
            counts[m] = sum(
                counts[m & ~(1 << i)]
                for i in mask_bits(m)
                if (m & ~(1 << i)) in self.position
            )
        return counts[self.poset.full]


def enumerate_ideals(poset):
    """All order ideals of (P,<), complete and duplicate-free."""
    seen = {0}
    queue = [0]
    below = poset.below
    n = poset.n
    while queue:
        cur = queue.pop()
        for i in range(n):
            if not cur >> i & 1 and below[i] & ~cur == 0:
                nxt = cur | 1 << i
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    masks = sorted(seen, key=lambda m: (bin(m).count("1"), m))
    return IdealLattice(poset, masks)


def max_antichain(mask, above_rows):
    """Elements of `mask` with no larger element of `mask` under the given order."""
    out = 0
    for i in mask_bits(mask):
        if above_rows[i] & mask == 0:
            out |= 1 << i
    return out


def star_mask(m1, m2, structure):
    """The <'-ideal generated by (J1 ∩ J2) ∩ (max' J1 ∪ max' J2), as a mask."""
    gens = (m1 & m2) & (structure.max_weak(m1) | structure.max_weak(m2))
    return structure.weak_down_closure(gens)


def star(pos1, pos2, structure):
    """Lattice position of J1 * J2; raises if closure fails (validated structures never do)."""
    lat = structure.lattice
    s = star_mask(lat.masks[pos1], lat.masks[pos2], structure)
    try:
        return lat.position[s]
    except KeyError:
        raise InternalClosureFailure(
            f"star of {lat.label_key(pos1)!r} and {lat.label_key(pos2)!r} left the lattice"
        ) from None


def star_closure_failure(structure):
    """First incomparable pair (a, b) of lattice positions, a < b in scan order,
    whose star is not an ideal of <; None when the lattice is star-closed.

    Three cases hold by construction and are decided without a scan or the
    lattice: trivial <' (the star is J1 ∩ J2), <' = < (every <'-ideal is a
    <-ideal) and < a chain (n(n-1)/2 relations; no incomparable pair).  Otherwise
    J1 * J2 is the <'-down-closure of gens = J1 ∩ J2 ∩ (max' J1 ∪ max' J2)
    alone, so each distinct gens is closed once.
    """
    weak = structure.weak_above
    above = structure.poset.above
    if not any(weak) or weak == above:
        return None
    n = structure.poset.n
    if sum(bin(row).count("1") for row in above) == n * (n - 1) // 2:
        return None  # < is a chain, so its ideals are all comparable
    lat = structure.lattice
    masks = lat.masks
    position = lat.position
    max_weak = [structure.max_weak(m) for m in masks]
    closed = set()
    for a, m1 in enumerate(masks):
        x1 = max_weak[a]
        for b in range(a + 1, len(masks)):
            m2 = masks[b]
            if m1 & ~m2 and m2 & ~m1:
                gens = m1 & m2 & (x1 | max_weak[b])
                if gens not in closed:
                    if structure.weak_down_closure(gens) not in position:
                        return a, b
                    closed.add(gens)
    return None


def sublattice_to_order(masks, poset):
    """Recover the unique order stronger than < whose ideal lattice is `masks`.

    Defined by p ≺ q iff every member containing q also contains p; that
    relation is transitive except on a cycle, whose elements enter no ideal.
    So with the full set a member, one certificate (the recovered order's
    ideals are the members) decides closure and acyclicity; the pairwise
    scan runs only to name a failure.
    """
    members = set(masks)

    def fail(error, message):
        for a in members:
            for b in members:
                if a | b not in members or a & b not in members:
                    raise NotASublattice("set is not closed under union/intersection")
        raise error(message)

    n = poset.n
    sizes = {bin(m).count("1") for m in members}
    if sizes != set(range(n + 1)):
        fail(HeightDeficient, f"sublattice has height {len(sizes)}, expected {n + 1}")
    above = [0] * n
    for q in range(n):
        meet = poset.full
        for m in members:
            if m >> q & 1:
                meet &= m
        for p in mask_bits(meet & ~(1 << q)):
            above[p] |= 1 << q
    stronger = Poset(poset.elements, above)
    if not poset.is_weaker_than(stronger):
        fail(NotASublattice, "recovered order is not stronger than the base order")
    if set(enumerate_ideals(stronger).masks) != members:
        fail(NotASublattice, "recovered order does not reproduce the sublattice")
    return stronger
