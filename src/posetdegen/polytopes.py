"""Order, chain and relative poset polytopes: vertices, dilation lattice
points, Ehrhart counts and normality.

Lattice points of dilations and of marked polytopes are sums of the vectors
1_{max' J} over weakly increasing chains of ideals, and one zeta walk along
`IdealLattice.zeta_steps` either counts those chains
(`IdealLattice.prescribed_multichain_count`) or enumerates their sums
(`packed_multichains`).  `check_peeling` certifies once per structure that
distinct chains give distinct points, so Ehrhart counts are counts of
chains, with no point built, and normality compares the number of 2-fold
sums of dilation 1 with the count of dilation 2, which settles every
dilation (`check_normality`).  Printed points are enumerated in a packed
integer encoding so that set arithmetic stays cheap; public functions
decode to coordinate tuples.  A chain of k steps packs k.bit_length() bits
per coordinate, rounded up to whole bytes, so that a code decodes with
`int.to_bytes`.
"""

from itertools import combinations_with_replacement

from .errors import InternalClosureFailure, InvalidStructure
from .posets import RelativeStructure, mask_bits

PACK_BITS = 8  # bits per coordinate below 256 steps; check_normality compares dilations in it


def pack_bits(steps):
    """Bits per coordinate for sums of `steps` 0/1 vectors: whole bytes, one
    byte below 256 steps."""
    return PACK_BITS * max(1, (steps.bit_length() + 7) // 8)


def unpack(code, n, bits=PACK_BITS):
    """The n coordinates of a packed code, `bits` (a multiple of 8) each,
    the first in the lowest bits."""
    raw = code.to_bytes(n * bits // 8, "little")
    if bits == 8:
        return tuple(raw)
    width = bits // 8
    return tuple(int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width))


def indicator(mask, n):
    return tuple(1 if mask >> i & 1 else 0 for i in range(n))


def weak_rows_for_kind(structure, kind):
    if kind == "order":
        return (0,) * structure.poset.n
    if kind == "chain":
        return structure.poset.above
    if kind == "relative":
        return structure.weak_above
    raise InvalidStructure(f"unknown polytope kind {kind!r}")


def structure_for_kind(structure, kind):
    rows = weak_rows_for_kind(structure, kind)
    if rows == structure.weak_above:
        return structure
    out = RelativeStructure(structure.poset, rows)
    return out.with_order(structure.poset, structure.lattice)  # J(P) depends on < alone


class LatticePolytope:
    """Vertex presentation of an order/chain/relative poset polytope."""

    def __init__(self, structure, kind, vertices, vertex_labels):
        self.structure = structure
        self.kind = kind
        self.vertices = tuple(vertices)
        self.vertex_labels = tuple(vertex_labels)


def build_polytope(structure, kind="relative"):
    """Vertices {1_{max_<' J}} over the ideal lattice, for the requested kind."""
    s = structure_for_kind(structure, kind)
    n = s.poset.n
    lat = s.lattice
    vertices = [indicator(top, n) for top in s.weak_maxima]
    if len(set(vertices)) != len(vertices):
        raise InternalClosureFailure("vertex map J -> 1_{max' J} is not injective")
    return LatticePolytope(s, kind, vertices, lat.masks)


def packed_multichains(structure, marked, reqs):
    """Packed codes of the sums of 1_{max' J_d} over the weakly increasing
    chains J_1 <= ... <= J_k of ideals with J_d & marked == reqs[d].

    The walk of `IdealLattice.prescribed_multichain_count`, with sets of
    codes where the count has integers: ends[j] holds the sums of the chains
    so far that end in ideal j.  Distinct chains give distinct points; a
    repeat raises.
    """
    if not reqs:
        return {0}
    lat = structure.lattice
    bits = pack_bits(len(reqs))
    codes = [sum(1 << (bits * i) for i in mask_bits(top)) for top in structure.weak_maxima]
    ends = [{code} if mask & marked == reqs[0] else set()
            for mask, code in zip(lat.masks, codes)]
    for req in reqs[1:]:
        for pairs in lat.zeta_steps:
            for low, high in pairs:
                ends[high] |= ends[low]
        ends = [{acc + code for acc in end} if mask & marked == req else set()
                for mask, code, end in zip(lat.masks, codes, ends)]
    points = set().union(*ends)
    if len(points) != lat.prescribed_multichain_count(marked, reqs):
        raise InternalClosureFailure("distinct multichains produced a repeated point")
    return points


def packed_dilation(structure, m):
    """Packed point codes of the m-th dilation, via weakly increasing ideal tuples."""
    return packed_multichains(structure, 0, [0] * m)


def check_peeling(structure):
    """Certify once that the multichain -> point map is injective, for every m.

    The certificate is down_<(max_<' J) = J for every ideal J; raises
    InternalClosureFailure otherwise.  It suffices: in x = sum of 1_{max' J_d}
    over J_1 <= ... <= J_m the support lies in J_m and contains max' J_m, so
    its down-closure is J_m.  Subtracting 1_{max' J_m} leaves the sum over the
    shorter chain, so greedy peeling recovers the whole chain from x, and
    distinct chains give distinct points.  Marked points are these sums
    translated by one fixed vector, so they stay distinct; a count of chains
    is then a count of lattice points.
    """
    lat = structure.lattice
    down_closure = structure.poset.down_closure
    for pos, (mask, top) in enumerate(zip(lat.masks, structure.weak_maxima)):
        if down_closure(top) != mask:
            raise InternalClosureFailure(
                f"ideal {lat.label_key(pos)!r} is not generated by its <'-maximal elements"
            )


def ehrhart_values(structure, m_max):
    """Counts of lattice points of the dilations m = 0..m_max.

    Unmarked, dilation m is m * R(P,<,<') and counts every m-multichain of
    ideals: after m - 1 zeta walks from all ones, counts[J] is the number of
    them that end in J, so one walk per dilation yields them all.  Marked,
    dilation m is R_{m*lambda} and counts the multichains whose steps meet
    the fundamental decomposition of m*lambda, one DP per dilation, whose
    steps are listed only while it is counted.  No point is built:
    `check_peeling` makes the chain count the point count.
    """
    check_peeling(structure)
    lat = structure.lattice
    if structure.marked:
        from .marked import fundamental_decomposition  # marked builds on this module

        count = lat.prescribed_multichain_count
        return [count(structure.marked, fundamental_decomposition(structure, m).steps())
                for m in range(m_max + 1)]
    values = []
    counts = [1] * len(lat.masks)
    for m in range(m_max + 1):
        if m > 1:
            lat.zeta_walk(counts)
        values.append(sum(counts) if m else 1)
    return values


def check_normality(structure, k_max):
    """Verify each dilation k <= k_max equals the k-fold Minkowski sum of
    dilation 1, from the 2-fold sums alone.

    Each point of dilation k is a chain sum, so a sum of k points of
    dilation 1: dilation k lies inside the k-fold sums.  With `check_peeling`
    the multichain count is the size of dilation k, so dilation 2 equals the
    2-fold sums exactly when they are as many.

    That settles every k, by straightening (Hibi 1987).  Write
    v_K = 1_{max' K} and suppose the 2-fold sums are dilation 2.  For
    incomparable ideals I and J, v_I + v_J = v_A + v_B for a chain A ⊆ B.
    Both sums have the support max' I ∪ max' J = max' A ∪ max' B.  By
    `check_peeling` (down_<(max' K) = K for every ideal K) its down-closure
    is I ∪ J; it lies in B and contains max' B, so its down-closure is also
    B.  So B = I ∪ J, strictly larger than I and than J.  Now straighten any
    k vertices: replace an incomparable pair {I, J} by {A, I ∪ J}, which
    keeps the sum.  Sort the ideal sizes in decreasing order.  A replacement
    adds the size |I ∪ J|, above |I| and |J|, and no size above it
    (|A| <= |B|), so the sorted size vector grows strictly in lexicographic
    order.  There are finitely many such vectors, so straightening stops, at
    k pairwise comparable ideals: a chain.  So every k-fold sum lies in
    dilation k, and no k > 2 needs a sum or a point.

    Dilation 2 is built only when the sizes differ, to name the smallest
    code in which the sets differ.

    Returns (True, None) or (False, (2, failing_point)).
    """
    check_peeling(structure)
    if k_max < 2:
        return True, None
    base = packed_dilation(structure, 1)
    sums = {a + b for a, b in combinations_with_replacement(base, 2)}
    if len(sums) == structure.lattice.multichain_count(2):
        return True, None
    diff = packed_dilation(structure, 2).symmetric_difference(sums)
    if not diff:
        raise InternalClosureFailure(
            f"dilation 2 has {len(sums)} points, not its multichain count"
        )
    return False, (2, unpack(min(diff), structure.poset.n))
