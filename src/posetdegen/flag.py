"""Type-A flag specialization: triangular flag posets, the four index
bijections, Gelfand-Tsetlin / FFLV polytopes and degeneration reports.

Element labels are "p{i}.{j}" (dots, not commas, so that comma-joined ideal
keys stay unambiguous).  For dims = {d_0 < ... < d_l} the marked elements are
p_{d_{i-1}+1, d_i} with marking value l - i + 1, the sum of the fundamental
markings of the increasing chain of marked ideals.
"""

from itertools import combinations

from .errors import ValidationError
from .marked import build_mrpp, mrpp_subdivide
from .posets import Poset, mask_bits, validate_relative_structure


def element_label(i, j):
    return f"p{i}.{j}"


class FlagData:
    """The poset P_d with its marked corner chain and dominant marking."""

    def __init__(self, n, dims):
        self.n = n
        self.dims = tuple(dims)
        self.l = len(self.dims) - 1
        pairs = set()
        for i in range(1, self.l + 1):
            pairs.add((self.dims[i - 1] + 1, self.dims[i]))
        for i in range(1, self.l):
            d = self.dims[i]
            for a in range(1, d + 1):
                for b in range(d + 1, n + 1):
                    pairs.add((a, b))
        self.pairs = sorted(pairs)
        self.poset = _pair_poset(self.pairs)
        self.marked_labels = tuple(
            element_label(self.dims[i - 1] + 1, self.dims[i])
            for i in range(1, self.l + 1)
        )
        self.marking = {
            label: self.l - i for i, label in enumerate(self.marked_labels)
        }
        self.marked_mask = sum(1 << self.poset.index(x) for x in self.marked_labels)

    def structure(self, mode):
        """The validated relative structure of the GT or FFLV polytope."""
        if mode == "gt":
            weak = []
        elif mode == "fflv":
            weak = [
                (self.poset.elements[i], self.poset.elements[j])
                for i in range(self.poset.n)
                if not self.marked_mask >> i & 1
                for j in mask_bits(self.poset.above[i])
            ]
        else:
            raise ValidationError(f"unknown mode {mode!r}")
        return validate_relative_structure(self.poset, weak, self.marking)


def _pair_poset(pairs):
    """The poset on the labels of the pairs (a, b), ordered componentwise."""
    above = [
        sum(1 << y for y, (a2, b2) in enumerate(pairs)
            if (a1, b1) != (a2, b2) and a1 <= a2 and b1 <= b2)
        for a1, b1 in pairs
    ]
    return Poset([element_label(a, b) for a, b in pairs], tuple(above))


def build_flag_poset(n, dims):
    dims = tuple(dims)
    if (
        len(dims) < 2
        or dims[0] != 0
        or dims[-1] != n
        or any(a >= b for a, b in zip(dims, dims[1:]))
        or n < 1
    ):
        raise ValidationError(f"dims must increase strictly from 0 to n, got {dims}")
    return FlagData(n, dims)


def _reordered_tuple(subset, k):
    """FFLV ordering: entries <= k sit at their own positions, the rest fill
    the remaining positions in decreasing order."""
    fixed = {a for a in subset if a <= k}
    rest = sorted((a for a in subset if a > k), reverse=True)
    out = []
    it = iter(rest)
    for i in range(1, k + 1):
        out.append(i if i in fixed else next(it))
    return tuple(out)


class PlueckerMap:
    """A bijection between Pluecker indices and order ideals.

    GT and FFLV index the ideals of all of P_d, one formula each, read off
    `FlagData.pairs` and masks.  O and C are their slices at level 1 on the
    Grassmannian grid P_k of dims {0, k, n}: P_d is P_k with the marked
    corner p_{1,k} below all of it and p_{k+1,n} above, so the ideals of P_k
    plus p_{1,k} are the ideals of P_d holding one corner, and the O (C)
    ideal of a k-index is its GT (FFLV) ideal less p_{1,k}.  `to_ideal`
    returns a frozenset of element labels, `from_ideal` the canonical index
    tuple.
    """

    def __init__(self, flag, mode):
        if mode not in ("O", "C", "GT", "FFLV"):
            raise ValidationError(f"unknown map mode {mode!r}")
        self.flag = flag
        self.mode = mode
        self.fflv = mode in ("C", "FFLV")
        self.corners = [1 << flag.poset.index(x) for x in flag.marked_labels]
        # the lengths of the indices, and the corner that O and C leave out
        self.levels, self.corner = flag.dims, 0
        if mode in ("O", "C"):
            if flag.l != 2:
                raise ValidationError("Grassmannian maps require dims of the form {0,k,n}")
            self.levels, self.corner = flag.dims[1:2], self.corners[0]

    def _canonical(self, index):
        if self.fflv:
            return _reordered_tuple(index, len(index))
        return tuple(sorted(index))

    def variables(self):
        """All index tuples, in the canonical order of each variable.

        No command lists them; they stay public as the domain of the paper's
        index bijection, which the acceptance tests round-trip through
        `to_ideal` and `from_ideal` in every mode."""
        n = self.flag.n
        return [self._canonical(c)
                for k in self.levels for c in combinations(range(1, n + 1), k)]

    def to_ideal(self, index):
        """The order ideal, as a frozenset of labels, of a Pluecker index.

        Commands only go the other way (`flag_degeneration` names the
        vanishing variables); this direction stays public because the
        paper's index bijections are stated from indices to ideals, and the
        acceptance tests check them and their round trip through
        `from_ideal`."""
        index = tuple(index)
        k = len(index)
        flag = self.flag
        if k not in self.levels:
            raise ValidationError(f"tuple length {k} is not one of the dims")
        if len(set(index)) != k or any(not 1 <= a <= flag.n for a in index):
            raise ValidationError(f"bad Pluecker index {index}")
        if self._canonical(index) != index:
            raise ValidationError(f"{index} is not in the canonical {self.mode} ordering")
        if self.fflv:
            # generated by the entries beyond k and the level's top corner
            level = flag.dims.index(k)
            gens = self.corners[level - 1] if level else 0
            for i, a in enumerate(index, start=1):
                if a > k:
                    gens |= 1 << flag.poset.index(element_label(i, a))
            mask = flag.poset.down_closure(gens)
        else:
            mask = sum(1 << t for t, (a, b) in enumerate(flag.pairs)
                       if a <= k and b <= index[k - a] + a - 1)
        return frozenset(flag.poset.elements[t] for t in mask_bits(mask & ~self.corner))

    def from_ideal(self, members):
        poset = self.flag.poset
        mask = 0
        for label in members:
            mask |= 1 << poset.index(label)
        if self.corner and mask & self.flag.marked_mask:
            raise ValidationError("the given set is not inside the grid P_k")
        mask |= self.corner
        if not poset.is_ideal(mask):
            raise ValidationError("the given set is not an order ideal")
        return self._mask_index(mask)

    def _mask_index(self, mask):
        """The canonical index of the ideal `mask` of P_d, whose marked
        corners give its level and so the length k of the index.  GT: the
        entry k + 1 - i is k + 1 - i plus the number of p_{i,b}, b > k, in
        the ideal.  FFLV: entry i is b for the maximal element p_{i,b},
        b > k, of the ideal and i when row i has none; the marked corners
        in the ideal all have b <= k."""
        flag = self.flag
        k = flag.dims[bin(mask & flag.marked_mask).count("1")]
        pairs = flag.pairs
        if self.fflv:
            above = flag.poset.above
            tops = dict(pairs[t] for t in mask_bits(mask)
                        if not above[t] & mask and pairs[t][1] > k)
            index = tuple(tops.get(i, i) for i in range(1, k + 1))
            if _reordered_tuple(index, k) != index:
                raise ValidationError("ideal does not correspond to an FFLV variable")
            return index
        rows = [0] * (k + 1)
        for t in mask_bits(mask):
            a, b = pairs[t]
            if a <= k < b:
                rows[a] += 1
        return tuple(k + 1 - i + rows[i] for i in range(k, 0, -1))

    def variable_name(self, index):
        return ",".join(str(a) for a in index)


def flag_polytope(flag, mode):
    """GT (trivial weak order) or FFLV (weak order dropping marked elements)."""
    return build_mrpp(flag.structure(mode))


def flag_degeneration(flag, mode, std, w):
    """Subdivide the GT/FFLV polytope, whose structure `std` standardizes,
    under a weight over J_lambda, and report the components by name: a list
    of part dicts, ready for serialization.

    Standardizing a flag structure changes nothing: every ideal of P_d meets
    the marked chain in a prefix, so J_lambda is all of J(P_d), and the
    principal ideals keep the elements apart.  So the quotient's masks are
    masks of P_d; each lattice position is named once, and a part's
    vanishing variables are the names of the positions outside it.
    """
    quotient = std.quotient
    if quotient.poset != flag.poset:
        raise ValidationError("the standardization is not that of the flag's structure")
    pmap = PlueckerMap(flag, "GT" if mode == "gt" else "FFLV")
    names = [pmap.variable_name(pmap._mask_index(mask)) for mask in quotient.lattice.masks]
    by_name = sorted(range(len(names)), key=names.__getitem__)
    parts = []
    for part in mrpp_subdivide(std, w):
        inside = set(part.sublattice)
        parts.append(
            {
                "added_covers": sorted(part.added_covers(quotient.poset)),
                "vertices": len(part.vertices),
                "lattice_points": len(part.points),
                "vanishing_variables": [names[pos] for pos in by_name if pos not in inside],
            }
        )
    return parts
