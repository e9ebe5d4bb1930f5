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
    def keys(self):
        """`label_key` of every position, in lattice order: each mask is
        read once through the element bits taken in label order."""
        labels = self.poset.elements
        ranked = [(1 << i, labels[i]) for i in sorted(range(self.poset.n),
                                                      key=labels.__getitem__)]
        return tuple([",".join([label for bit, label in ranked if mask & bit])
                      for mask in self.masks])

    @cached_property
    def zeta_steps(self):
        """For each element p, in a linear extension of the order, the pairs
        (J - p, J) of positions of the ideals J in which p is maximal."""
        above = self.poset.above
        position = self.position
        steps = [[] for _ in range(self.poset.n)]
        for j, mask in enumerate(self.masks):
            for p in mask_bits(mask):
                if not above[p] & mask:
                    steps[p].append((position[mask ^ 1 << p], j))
        below = self.poset.below
        return [steps[p] for p in sorted(range(self.poset.n),
                                         key=lambda p: bin(below[p]).count("1"))]

    def zeta_walk(self, counts):
        """One zeta transform in place along `zeta_steps`: counts[J] becomes
        the sum of counts[I] over the ideals I inside J."""
        for pairs in self.zeta_steps:
            for low, high in pairs:
                counts[high] += counts[low]

    def multichain_count(self, m):
        """Number of weakly increasing m-tuples of ideals."""
        return self.prescribed_multichain_count(0, [0] * m)

    def prescribed_multichain_count(self, marked, reqs):
        """Number of weakly increasing chains J_1 <= ... <= J_k of ideals with
        J_d & marked == reqs[d], the chains that `packed_multichains` sums.

        One DP: counts[j] is the number of chains so far that end in ideal j.
        A step turns each count into the sum of the counts of the ideals
        inside j, then keeps the ideals that meet the step's requirement.
        The sum is a zeta transform along `zeta_steps`: once the elements
        before p are done, counts[J] sums the ideals I inside J with J - I
        among them; an I without p that lies inside J makes p maximal in J
        (an element of J above p would be in J - I, hence done before p), and
        those I are the ones inside J - p.  So adding counts[J - p] to
        counts[J] for each J in which p is maximal brings p in, at a cost of
        at most n additions per ideal.
        """
        if not reqs:
            return 1
        masks = self.masks
        counts = [1 if mask & marked == reqs[0] else 0 for mask in masks]
        for req in reqs[1:]:
            self.zeta_walk(counts)
            if marked:
                counts = [c if mask & marked == req else 0 for c, mask in zip(counts, masks)]
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
    """All order ideals of (P,<), sorted by size, then by mask.

    Listed level by level: a level maps each ideal of one size to its
    addable elements, the minimal ones outside it.  Adding i keeps the
    others addable and can newly make addable only upper covers of i, so a
    child's addable mask is built from its parent's, once per child.  The
    ideals of a level all have the same size, so a plain int sort orders it.
    """
    below = poset.below
    upper_covers = [[(1 << j, below[j]) for j in mask_bits(row)] for row in poset.upper_covers]
    masks = [0]
    level = {0: poset.minimals}
    while level:
        nxt = {}
        for ideal, addable in level.items():
            rest = addable
            while rest:
                bit = rest & -rest
                rest ^= bit
                child = ideal | bit
                if child not in nxt:
                    grown = addable ^ bit
                    for up, need in upper_covers[bit.bit_length() - 1]:
                        if need & ~child == 0:
                            grown |= up
                    nxt[child] = grown
        level = nxt
        masks += sorted(nxt)
    return IdealLattice(poset, masks)


def star(pos1, pos2, structure):
    """Lattice position of J1 * J2; raises if closure fails (validated structures never do)."""
    lat = structure.lattice
    tops = structure.weak_maxima
    gens = lat.masks[pos1] & lat.masks[pos2] & (tops[pos1] | tops[pos2])
    try:
        return lat.position[structure.weak_down_closure(gens)]
    except KeyError:
        raise star_error(lat, pos1, pos2) from None


def star_error(lat, pos1, pos2):
    """The one-line error for a star of two positions that left the lattice;
    its `pair` is (pos1, pos2)."""
    error = InternalClosureFailure(
        f"star of {lat.label_key(pos1)!r} and {lat.label_key(pos2)!r} left the lattice"
    )
    error.pair = pos1, pos2
    return error


def pair_stars(structure):
    """(a, b, J1 ∪ J2, J1 * J2) in lattice positions for every incomparable
    pair of ideals J1, J2 at positions a < b, a first, then b.

    The masks sort by size, so the mask at b is not inside the one at a:
    the pair is incomparable exactly when J1 is not inside J2.  For trivial
    <' the star is J1 ∩ J2; otherwise `_star_scan` gives it.  A star that
    leaves the lattice raises, as in `star`.
    """
    if any(structure.weak_above):
        return _star_scan(structure)
    return _meet_scan(structure.lattice)


def _meet_scan(lat):
    masks, position = lat.masks, lat.position
    for a, m1 in enumerate(masks):
        for b in range(a + 1, len(masks)):
            m2 = masks[b]
            if m1 & ~m2:
                yield a, b, position[m1 | m2], position[m1 & m2]


def _star_scan(structure):
    """The rows of `pair_stars` for any <'.  The star is the <'-down-closure
    of gens = J1 ∩ J2 ∩ (max' J1 ∪ max' J2) alone, so it is closed once for
    each distinct gens."""
    lat = structure.lattice
    masks, position = lat.masks, lat.position
    tops = structure.weak_maxima
    stars = {}
    for a, m1 in enumerate(masks):
        x1 = tops[a]
        for b in range(a + 1, len(masks)):
            m2 = masks[b]
            if m1 & ~m2:
                gens = m1 & m2 & (x1 | tops[b])
                s = stars.get(gens)
                if s is None:
                    s = stars[gens] = position.get(structure.weak_down_closure(gens))
                    if s is None:
                        raise star_error(lat, a, b)
                yield a, b, position[m1 | m2], s


def star_closure_failure(structure):
    """First incomparable pair (a, b) of lattice positions, a < b in scan order,
    whose star is not an ideal of <; None when the lattice is star-closed.

    Three cases hold by construction and are decided without a scan or the
    lattice: trivial <' (the star is J1 ∩ J2), <' = < (every <'-ideal is a
    <-ideal) and < a chain (n(n-1)/2 relations; no incomparable pair).
    Otherwise the cheaper of two exact pair counts decides: the n·C(n, 2)
    pairs of `two_generated_star_failure`, whose passing proves closure,
    against the |J|(|J|-1)/2 pairs of `first_star_failure`.  |J| is
    `RelativeStructure.ideal_count`, which lists no ideal of a disconnected
    poset, so a passing two-generated check leaves J(P) unlisted.  A failure
    is always named by the scan, so it names the same pair either way.
    """
    weak = structure.weak_above
    above = structure.poset.above
    if not any(weak) or weak == above:
        return None
    n = structure.poset.n
    if sum(bin(row).count("1") for row in above) == n * (n - 1) // 2:
        return None  # < is a chain, so its ideals are all comparable
    size = structure.ideal_count
    if n * n * (n - 1) // 2 < size * (size - 1) // 2:
        if two_generated_star_failure(structure) is None:
            return None
    return first_star_failure(structure)


def first_star_failure(structure):
    """First incomparable pair (a, b) of lattice positions, a < b, whose star
    is not an ideal of <, by the scan of `pair_stars` for any <'; None when
    there is none."""
    try:
        for _ in _star_scan(structure):
            pass
    except InternalClosureFailure as failure:
        return failure.pair
    return None


def two_generated_star_failure(structure):
    """First (z, a, b), a < b, for which down{z, a} * down{z, b} is not an
    ideal of <; None when there is none, and then the lattice is star-closed.

    That is n·C(n, 2) pairs whatever the number of ideals.  Write down X for
    the <-ideal generated by X, K = I ∩ J, G(I, J) = K ∩ (max' I ∪ max' J),
    so that I * J = <'-down(G(I, J)), which is empty iff G(I, J) is.

    Claim: if some I * J is not an ideal, some down{z, a} * down{z, b} is not.

    (1) Restriction.  For an up-set X of <' with the orders restricted to it,
    (I * J) ∩ X = (I ∩ X) * (J ∩ X) computed in X: every <'-upper bound of an
    element of X lies in X, so max' and <'-down-closure agree there.

    (2) Lemma.  Let J(X) be star-closed, U and V ideals of X with U * V
    empty, a in U - V and b in V - U.  Then down a * down b is empty.
    First, each k in U ∩ V is <'-below some element of U - V and of V - U:
    take k' <'-maximal in U ∩ V with k <=' k'; as k' is not in G(U, V), it
    has <'-upper bounds in U and in V, none in U ∩ V.  Next, suppose some
    x in down a ∩ V has no <'-upper bound in down a, and take the pair
    (U, V ∪ down a).  a has no <'-upper bound in V ∪ down a (one in V would
    put a in V; none is below a), so a is in G and in the star; x < a.  A g
    in G with x <=' g lies in U ∩ V (g = x, or g is outside down a by the
    choice of x), so it has <'-upper bounds in U and in V and is in neither
    max': x is not in the star, against star-closure.  So each x in
    down a ∩ down b has a <'-upper bound in down a and, by symmetry, one in
    down b: G is empty.

    (3) Proof of the claim, by induction on n.  Let z be in S = I * J and
    y < z outside it; y is in K.  Raise z to an element of G <'-above it
    (y stays below), and swap I and J so that z is in max' I.  Take y
    <'-maximal among the elements of K - S below z, and X = {x : y <' x},
    which leaves y out.  If J(X) is not star-closed, induction gives a
    failing down_X{z', a} * down_X{z', b}, and by (1) down{z', a} *
    down{z', b} fails in P.  Otherwise:
    - S ∩ X is empty (S is a <'-ideal without y), so by (1) U * V is empty
      for U = I ∩ X and V = J ∩ X;
    - y is not in G, so some a in max' I has y <' a, and a is not in J (it
      would be in G, and y in S): a is in U - V; likewise some b in V - U;
    - no x in X lies below z: x = z would put y in S, and x < z would be in
      K - S (S is a <'-ideal) and <'-above y, against the choice of y.
    So I' = down{z, a} and J' = down{z, b} meet X in down_X a and down_X b,
    whose star is empty by (2), and by (1) I' * J' misses X.  A g in
    G(I', J') with y <=' g is then y itself, which is in neither max' I'
    (y <' a) nor max' J' (y <' b): y is not in I' * J'.  z is, as z is in
    max' I' (I' lies in I).  As y < z, I' * J' is not an ideal.
    """
    poset = structure.poset
    n = poset.n
    down = [1 << i | row for i, row in enumerate(poset.below)]
    tops = {}
    closed = set()
    for z in range(n):
        row = [down[z] | d for d in down]
        for m in row:
            if m not in tops:
                tops[m] = structure.max_weak(m)
        for a in range(n):
            m1 = row[a]
            x1 = tops[m1]
            for b in range(a + 1, n):
                m2 = row[b]
                if m1 & ~m2 and m2 & ~m1:
                    gens = m1 & m2 & (x1 | tops[m2])
                    if gens not in closed:
                        s = structure.weak_down_closure(gens)
                        if not poset.is_ideal(s):
                            return z, a, b
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
