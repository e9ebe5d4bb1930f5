"""Type-A flag specialization: triangular flag posets, the four index
bijections, Gelfand-Tsetlin / FFLV polytopes and degeneration reports.

Element labels are "p{i}.{j}" (dots, not commas, so that comma-joined ideal
keys stay unambiguous).  For dims = {d_0 < ... < d_l} the marked elements are
p_{d_{i-1}+1, d_i} with marking value l - i + 1, the sum of the fundamental
markings of the increasing chain of marked ideals.
"""

from functools import cached_property
from itertools import combinations

from .errors import InvalidDims, InvalidIndex, ModeDimsMismatch
from .marked import build_mrpp, mrpp_subdivide, standardize
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
        elements = [element_label(a, b) for a, b in self.pairs]
        n_el = len(elements)
        above = [0] * n_el
        for x, (a1, b1) in enumerate(self.pairs):
            for y, (a2, b2) in enumerate(self.pairs):
                if x != y and a1 <= a2 and b1 <= b2:
                    above[x] |= 1 << y
        self.poset = Poset(elements, tuple(above))
        self.marked_labels = tuple(
            element_label(self.dims[i - 1] + 1, self.dims[i])
            for i in range(1, self.l + 1)
        )
        self.marking = {
            label: self.l - i for i, label in enumerate(self.marked_labels)
        }
        self.marked_mask = sum(1 << self.poset.index(x) for x in self.marked_labels)

    def grid_labels(self, k):
        """Labels of the subposet P_k = {p_{a,b} : a <= k < b}."""
        return [element_label(a, b) for a, b in self.pairs if a <= k < b]

    @cached_property
    def grass_poset(self):
        """The unmarked grid P_k for Grassmannian dims {0, k, n}."""
        if self.l != 2:
            raise ModeDimsMismatch("Grassmannian maps require dims of the form {0,k,n}")
        k = self.dims[1]
        labels = self.grid_labels(k)
        idx = {lab: t for t, lab in enumerate(labels)}
        above = [0] * len(labels)
        for lab in labels:
            i = self.poset.index(lab)
            for j in mask_bits(self.poset.above[i]):
                other = self.poset.elements[j]
                if other in idx:
                    above[idx[lab]] |= 1 << idx[other]
        return Poset(labels, tuple(above))

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
            raise ModeDimsMismatch(f"unknown mode {mode!r}")
        return validate_relative_structure(self.poset, weak, self.marking)


def build_flag_poset(n, dims):
    dims = tuple(dims)
    if (
        len(dims) < 2
        or dims[0] != 0
        or dims[-1] != n
        or any(a >= b for a, b in zip(dims, dims[1:]))
        or n < 1
    ):
        raise InvalidDims(f"dims must increase strictly from 0 to n, got {dims}")
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

    Modes O and C live on the Grassmannian grid P_k; modes GT and FFLV on all
    of P_d.  `to_ideal` returns a frozenset of element labels, `from_ideal`
    the canonical index tuple.
    """

    def __init__(self, flag, mode):
        self.flag = flag
        self.mode = mode
        if mode in ("O", "C"):
            self.poset = flag.grass_poset
        elif mode in ("GT", "FFLV"):
            self.poset = flag.poset
        else:
            raise ModeDimsMismatch(f"unknown map mode {mode!r}")

    def variables(self):
        """All index tuples, in the canonical order of each variable.

        No command lists them; they stay public as the domain of the paper's
        index bijection, which the acceptance tests round-trip through
        `to_ideal` and `from_ideal` in every mode."""
        n = self.flag.n
        if self.mode == "O":
            k = self.flag.dims[1]
            return [tuple(c) for c in combinations(range(1, n + 1), k)]
        if self.mode == "C":
            k = self.flag.dims[1]
            return [
                _reordered_tuple(set(c), k)
                for c in combinations(range(1, n + 1), k)
            ]
        out = []
        for k in self.flag.dims:
            for c in combinations(range(1, n + 1), k):
                if self.mode == "GT":
                    out.append(tuple(c))
                else:
                    out.append(_reordered_tuple(set(c), k))
        return out

    def _check_tuple(self, index, k=None):
        if len(set(index)) != len(index) or any(
            not 1 <= a <= self.flag.n for a in index
        ):
            raise InvalidIndex(f"bad Pluecker index {index}")
        if k is not None and len(index) != k:
            raise InvalidIndex(f"index {index} has wrong length")

    def to_ideal(self, index):
        """The order ideal, as a frozenset of labels, of a Pluecker index.

        Commands only go the other way (`from_ideal` names the vanishing
        variables); this direction stays public because the paper's index
        bijections are stated from indices to ideals, and the acceptance
        tests check them and their round trip through `from_ideal`."""
        index = tuple(index)
        flag = self.flag
        if self.mode in ("O", "GT"):
            if sorted(index) != list(index):
                raise InvalidIndex(f"{self.mode} indices are increasing tuples")
        if self.mode == "O":
            k = flag.dims[1]
            self._check_tuple(index, k)
            members = {
                element_label(i, j)
                for (i, j) in ((i, j) for i in range(1, k + 1) for j in range(k + 1, flag.n + 1))
                if j <= index[k - i] + i - 1
            }
            return frozenset(members)
        if self.mode == "GT":
            k = len(index)
            if k not in flag.dims:
                raise InvalidIndex(f"tuple length {k} is not one of the dims")
            self._check_tuple(index)
            members = {
                element_label(a, b)
                for (a, b) in flag.pairs
                if a <= k and b <= index[k - a] + a - 1
            }
            return frozenset(members)
        if self.mode == "C":
            k = flag.dims[1]
            self._check_tuple(index, k)
            if _reordered_tuple(set(index), k) != index:
                raise InvalidIndex(f"{index} is not in the canonical C ordering")
            gens = [element_label(i, a) for i, a in enumerate(index, start=1) if a > k]
            poset = flag.grass_poset
            mask = poset.down_closure(sum(1 << poset.index(g) for g in gens))
            return frozenset(poset.elements[i] for i in mask_bits(mask))
        # FFLV
        k = len(index)
        if k not in flag.dims:
            raise InvalidIndex(f"tuple length {k} is not one of the dims")
        self._check_tuple(index)
        if _reordered_tuple(set(index), k) != index:
            raise InvalidIndex(f"{index} is not in the canonical FFLV ordering")
        level = flag.dims.index(k)
        gens = [element_label(i, a) for i, a in enumerate(index, start=1) if a > k]
        gens += list(flag.marked_labels[:level])
        poset = flag.poset
        mask = poset.down_closure(sum(1 << poset.index(g) for g in gens))
        return frozenset(poset.elements[i] for i in mask_bits(mask))

    def from_ideal(self, members):
        members = frozenset(members)
        flag = self.flag
        poset = self.poset
        mask = 0
        for label in members:
            mask |= 1 << poset.index(label)
        if not poset.is_ideal(mask):
            raise InvalidIndex("the given set is not an order ideal")
        if self.mode == "O":
            k = flag.dims[1]
            return tuple(
                k + 1 - i + self._row_length(mask, i, k) for i in range(k, 0, -1)
            )
        if self.mode == "GT":
            level = sum(
                1 for lab in flag.marked_labels if (1 << flag.poset.index(lab)) & mask
            )
            k = flag.dims[level]
            if k == 0:
                return ()
            return tuple(
                k + 1 - i + self._row_length(mask, i, k) for i in range(k, 0, -1)
            )
        if self.mode == "C":
            k = flag.dims[1]
            maxes = {}
            for i in mask_bits(mask):
                if poset.above[i] & mask == 0:
                    a, b = _split_label(poset.elements[i])
                    maxes[a] = b
            return tuple(maxes.get(i, i) for i in range(1, k + 1))
        # FFLV: the unmarked <'-maximal elements are the generating entries
        level = sum(
            1 for lab in flag.marked_labels if (1 << poset.index(lab)) & mask
        )
        k = flag.dims[level]
        if k == 0:
            return ()
        maxes = {}
        for i in mask_bits(mask & ~flag.marked_mask):
            if poset.above[i] & mask == 0:
                a, b = _split_label(poset.elements[i])
                if b > k:
                    maxes[a] = b
        out = tuple(maxes.get(i, i) for i in range(1, k + 1))
        if _reordered_tuple(set(out), k) != out:
            raise InvalidIndex("ideal does not correspond to an FFLV variable")
        return out

    def _row_length(self, mask, i, k):
        poset = self.poset
        count = 0
        for j in range(k + 1, self.flag.n + 1):
            label = element_label(i, j)
            if label in poset._index and mask >> poset.index(label) & 1:
                count += 1
        return count

    def variable_name(self, index):
        return ",".join(str(a) for a in index)


def _split_label(label):
    i, j = label[1:].split(".")
    return int(i), int(j)


def flag_polytope(flag, mode):
    """GT (trivial weak order) or FFLV (weak order dropping marked elements)."""
    return build_mrpp(flag.structure(mode))


class DegenerationReport:
    def __init__(self, flag, mode, subdivision, parts):
        self.flag = flag
        self.mode = mode
        self.subdivision = subdivision
        self.parts = parts  # list of dicts, ready for serialization


def flag_degeneration(flag, mode, w):
    """Subdivide the GT/FFLV polytope and report the components by name."""
    structure = flag.structure(mode)
    sub = mrpp_subdivide(structure, w)
    std = sub.standardized
    pmap = PlueckerMap(flag, "GT" if mode == "gt" else "FFLV")
    lat = std.quotient.lattice
    parts = []
    for part in sub.parts:
        inside = set(part.sublattice)
        vanishing = []
        for pos in range(len(lat)):
            if pos not in inside:
                members = frozenset(
                    std.quotient.poset.elements[i] for i in mask_bits(lat.masks[pos])
                )
                vanishing.append(pmap.variable_name(pmap.from_ideal(members)))
        parts.append(
            {
                "added_covers": sorted(part.added_covers(std.quotient.poset)),
                "vertices": len(part.vertices),
                "lattice_points": len(part.points),
                "vanishing_variables": sorted(vanishing),
            }
        )
    return DegenerationReport(flag, mode, sub, parts)
