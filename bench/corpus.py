"""Seeded input corpus, job lists and exact output checks of the benchmark.

A workload is a fixed list of `posetdegen` commands.  The seed chooses the
element order of every poset file, the sampled cone weights, the set A of the
supermodular weight |J ∩ A|^2 and which pairs of the matching carry <'; the
shapes (and so the amount of work) are the same for every seed.

Every value a check compares a report against is computed here, from the
generated posets, with this file's own small combinatorics: ideal lists,
linear-extension and multichain counts, the star operation, incomparable
pairs and the Weyl dimension.  Nothing here calls posetdegen.
"""

import json
import os
import random
from fractions import Fraction

DEFAULT_SEED = 0


class Mismatch(Exception):
    """A report that breaks an exact invariant."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def close(rows):
    rows = list(rows)
    for k in range(len(rows)):
        for i in range(len(rows)):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


class Poset:
    """Labels in file order, a strict order `above` and a weaker order
    `weak_above`, both as transitively closed bitmask rows."""

    def __init__(self, labels, covers, weak_covers=(), marked=None):
        self.labels = list(labels)
        self.covers = [list(c) for c in covers]
        self.weak_covers = [list(c) for c in weak_covers]
        self.marked = dict(marked) if marked else None
        index = {x: i for i, x in enumerate(self.labels)}
        self.index = index
        n = len(self.labels)
        self.n = n

        def rows(pairs):
            out = [0] * n
            for a, b in pairs:
                out[index[a]] |= 1 << index[b]
            return close(out)

        self.above = rows(self.covers)
        self.weak_above = rows(self.weak_covers)
        self.below = [sum(1 << i for i in range(n) if self.above[i] >> j & 1)
                      for j in range(n)]
        self.weak_below = [sum(1 << i for i in range(n) if self.weak_above[i] >> j & 1)
                           for j in range(n)]
        self.ideals = self._ideals()
        self.position = {m: k for k, m in enumerate(self.ideals)}

    def file(self):
        data = {"elements": self.labels, "covers": self.covers}
        if self.weak_covers:
            data["weak_covers"] = self.weak_covers
        if self.marked:
            data["marked"] = self.marked
        return data

    def _ideals(self):
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for i in range(self.n):
                if not cur >> i & 1 and self.below[i] & ~cur == 0:
                    nxt = cur | 1 << i
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return sorted(seen, key=lambda m: (bin(m).count("1"), m))

    def key(self, mask):
        return ",".join(sorted(self.labels[i] for i in bits(mask)))

    def keys(self):
        return [self.key(m) for m in self.ideals]

    def max_weak(self, mask):
        return sum(1 << i for i in bits(mask) if self.weak_above[i] & mask == 0)

    def star(self, m1, m2):
        gens = (m1 & m2) & (self.max_weak(m1) | self.max_weak(m2))
        out = gens
        for i in bits(gens):
            out |= self.weak_below[i]
        return out

    def incomparable_pairs(self):
        masks = self.ideals
        return [(a, b) for x, a in enumerate(masks) for b in masks[x + 1:]
                if a & ~b and b & ~a]

    def linear_extension_count(self, subset=None):
        """Linearizations of the order restricted to `subset` (all by default)."""
        full = (1 << self.n) - 1 if subset is None else subset
        counts = {0: 1}
        for size in range(1, bin(full).count("1") + 1):
            nxt = {}
            for m, c in counts.items():
                for i in bits(full & ~m):
                    if self.below[i] & full & ~m == 0:
                        nxt[m | 1 << i] = nxt.get(m | 1 << i, 0) + c
            counts = nxt
        return counts[full]

    def multichain_count(self, m):
        """Weakly increasing m-tuples of ideals."""
        if m == 0:
            return 1
        counts = [1] * len(self.ideals)
        for _ in range(m - 1):
            counts = [sum(c for a, c in zip(self.ideals, counts) if a & ~b == 0)
                      for b in self.ideals]
        return sum(counts)


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def grid(rng, rows, cols, weak=False):
    """The rows x cols product of chains; <' = < when `weak`, else trivial."""
    label = lambda i, j: f"x{i}{j}"
    covers = [(label(i, j), label(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    covers += [(label(i, j), label(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    labels = [label(i, j) for i in range(rows) for j in range(cols)]
    covers = shuffled(rng, covers)
    return Poset(shuffled(rng, labels), covers, covers if weak else ())


def antichain(rng, size):
    return Poset(shuffled(rng, [f"a{i}" for i in range(size)]), [])


def matching(rng, pairs):
    """a_k < b_k for k < pairs, with <' on a seeded half of the pairs."""
    covers = [(f"a{k}", f"b{k}") for k in range(pairs)]
    weak = sorted(rng.sample(covers, pairs // 2))
    labels = [x for c in covers for x in c]
    return Poset(shuffled(rng, labels), shuffled(rng, covers), weak)


def flag_pairs(n, dims):
    pairs = {(dims[i - 1] + 1, dims[i]) for i in range(1, len(dims))}
    for d in dims[1:-1]:
        pairs.update((a, b) for a in range(1, d + 1) for b in range(d + 1, n + 1))
    return sorted(pairs)


def flag_label(a, b):
    return f"p{a}.{b}"


def flag_poset(rng, n, dims, mode):
    """The GT or FFLV structure of the flag poset P_d, in the library's labels
    (elements in sorted (a, b) order when `rng` is None)."""
    pairs = flag_pairs(n, dims)
    l = len(dims) - 1
    marked = {flag_label(dims[i - 1] + 1, dims[i]): l - i + 1 for i in range(1, l + 1)}
    labels = [flag_label(a, b) for a, b in pairs]
    relations = [(flag_label(*p), flag_label(*q)) for p in pairs for q in pairs
                 if p != q and p[0] <= q[0] and p[1] <= q[1]]
    weak = [(x, y) for x, y in relations if x not in marked] if mode == "fflv" else []
    if rng is not None:
        labels, relations = shuffled(rng, labels), shuffled(rng, relations)
    return Poset(labels, relations, weak, marked)


def weyl_dimension(n, dims):
    """dim of the gl_n irreducible with highest weight sum_{inner d} omega_d."""
    weight = [sum(1 for d in dims[1:-1] if d >= j) for j in range(1, n + 1)]
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(weight[i] - weight[j] + j - i, j - i)
    return int(dim)


def canonical_weight(poset):
    return [(poset.n - bin(m).count("1")) ** 2 for m in poset.ideals]


def sampled_cone_weight(poset, rng, interior=False, spread=9):
    """Random integers shifted by the least t * canonical into the closed cone
    w_J1 + w_J2 <= w_{J1 u J2} + w_{J1 * J2}, or by (t + 1) * canonical into
    its interior, where the subdivision is the triangulation by linearization
    simplices whatever the sample."""
    canonical = canonical_weight(poset)
    raw = [rng.randint(-spread, spread) for _ in poset.ideals]
    pos = poset.position
    t = 0
    for a, b in poset.incomparable_pairs():
        u, s = pos[a | b], pos[poset.star(a, b)]
        slack = raw[pos[a]] + raw[pos[b]] - raw[u] - raw[s]
        if slack > 0:
            room = canonical[u] + canonical[s] - canonical[pos[a]] - canonical[pos[b]]
            t = max(t, -(-slack // room))
    t += 1 if interior else 0
    return [r + t * c for r, c in zip(raw, canonical)]


def weights_file(poset, values):
    return {"weights": {k: str(v) for k, v in zip(poset.keys(), values)}}


# ---------------------------------------------------------------- checks

def check_subdivide(poset, values, parts_expected):
    weight = dict(zip(poset.keys(), map(Fraction, values)))
    all_keys = poset.keys()

    def check(report):
        parts = report["parts"]
        insides = []
        for part in parts:
            inside = set(all_keys) - set(part["vanishing_variables"])
            insides.append(inside)
            expect(part["lattice_points"] == len(inside), "part point count")
            normal = [Fraction(x) for x in part["affine"]["normal"]]
            const = Fraction(part["affine"]["constant"])
            for m in poset.ideals:
                key = poset.key(m)
                if key in inside:
                    lift = const + sum(normal[i] for i in bits(poset.max_weak(m)))
                    expect(lift == weight[key], f"affine lift misses the weight at {key!r}")
        expect(set().union(*insides) == set(all_keys), "parts do not cover every ideal")
        expect(len(parts) == parts_expected, f"{len(parts)} parts, expected {parts_expected}")
    return check


def check_cone_check(poset, values):
    pos = poset.position
    violated, tight = [], []
    for a, b in poset.incomparable_pairs():
        slack = (values[pos[a | b]] + values[pos[poset.star(a, b)]]
                 - values[pos[a]] - values[pos[b]])
        pair = [poset.key(a), poset.key(b)]
        if slack < 0:
            violated.append(pair)
        elif slack == 0:
            tight.append(pair)
    position = "outside" if violated else "boundary" if tight else "interior"
    expected = {"position": position, "violated": violated, "tight": tight}

    def check(report):
        expect(report == expected, "cone position differs from the slack computation")
    return check


def check_validate(poset):
    def check(report):
        expect(report["valid"] is True, "not valid")
        expect(report["ideal_count"] == len(poset.ideals), "ideal count")
        expect(report["elements"] == poset.labels, "element list")
    return check


def check_ideals(poset):
    def check(report):
        expect(report["ideals"] == poset.keys(), "ideal list")
    return check


def check_ehrhart(poset, max_dilation):
    def check(report):
        expected = {str(m): poset.multichain_count(m) for m in range(max_dilation + 1)}
        expect(report["ehrhart"] == expected, "Ehrhart counts differ from multichain counts")
    return check


def check_normality(max_dilation):
    def check(report):
        expect(report == {"normal": True, "max_dilation": max_dilation}, "not normal")
    return check


def check_ideal_gens(poset):
    def check(report):
        expected = [{"lead": [poset.key(a), poset.key(b)],
                     "trail": [poset.key(a | b), poset.key(poset.star(a, b))]}
                    for a, b in poset.incomparable_pairs()]
        expect(report == {"kind": "relative", "generators": expected}, "generators")
    return check


def check_flag_points(poset, points, dims_n, dims):
    expect(len(points) == weyl_dimension(dims_n, dims), "point count is not the Weyl dimension")
    expect(len(set(map(tuple, points))) == len(points), "repeated lattice point")
    marked = [(poset.index[x], v) for x, v in poset.marked.items()]
    expect(all(p[i] == v for p in points for i, v in marked), "marked coordinate")
    expect(all(min(p) >= 0 for p in points), "negative coordinate")


def check_flag_polytope(n, dims, kind):
    poset = flag_poset(None, n, dims, kind)

    def check(report):
        expect(report["kind"] == kind and report["elements"] == poset.labels, "header")
        check_flag_points(poset, report["lattice_points"], n, dims)
        points = set(map(tuple, report["lattice_points"]))
        expect(report["vertices"] and all(tuple(v) in points for v in report["vertices"]),
               "vertices are not lattice points")
    return check


def check_flag_point_set(n, dims, mode):
    poset = flag_poset(None, n, dims, mode)

    def check(report):
        expect(report["lattice_point_count"] == len(report["lattice_points"]), "count")
        check_flag_points(poset, report["lattice_points"], n, dims)
    return check


def check_mcop_recognize(poset):
    free = sorted(x for x in poset.labels if x not in poset.marked)

    def check(report):
        expect(report["found"] is True, "no chain/order split found")
        expect(sorted(report["chain"] + report["order"]) == free, "split is not a partition")
    return check


def check_degenerate(n, dims, parts_expected=None):
    def check(report):
        parts = report["parts"]
        points = weyl_dimension(n, dims)
        expect(parts and all(1 <= p["vertices"] <= p["lattice_points"] <= points
                             for p in parts), "part sizes")
        expect(sum(p["lattice_points"] for p in parts) >= points, "parts miss points")
        if parts_expected is not None:
            expect(len(parts) == parts_expected, "part count")
    return check


def check_standardize(poset):
    def check(report):
        classes = report["classes"]
        expect(sorted(x for c in classes for x in c) == sorted(poset.labels),
               "classes do not partition the elements")
        expect(len(report["quotient_elements"]) == len(classes), "quotient size")
        expect(not report["identity"] or all(len(c) == 1 for c in classes),
               "identity with a class of several elements")
    return check


# ---------------------------------------------------------------- workloads

class Job:
    """One CLI command: argv with `{name}` placeholders for its input files."""

    def __init__(self, name, argv, files, check):
        self.name = name
        self.argv = argv
        self.files = files
        self.check = check


def weight_job(name, command, poset, values, check):
    """A command on a poset file and a weights file; `values` None means the
    zero weight, given as an empty table with --default-zero."""
    files = {"poset": poset.file()}
    argv = [command, "{poset}", "--weights", "{weights}"]
    if values is None:
        files["weights"] = {"weights": {}}
        argv.append("--default-zero")
    else:
        files["weights"] = weights_file(poset, values)
    return Job(name, argv, files, check)


def subdivide_grid(seed):
    jobs = []
    rng = lambda name: random.Random(f"{seed}:{name}")

    def subdivide(name, poset, values, parts):
        zero = [0] * len(poset.ideals)
        check = check_subdivide(poset, zero if values is None else values, parts)
        jobs.append(weight_job(name, "subdivide", poset, values, check))

    # fine weights: every linearization simplex is its own part
    p = grid(rng("3x4-canonical"), 3, 4)
    subdivide("3x4-canonical", p, canonical_weight(p), p.linear_extension_count())
    r = rng("3x4-chain-sampled")
    p = grid(r, 3, 4, weak=True)
    subdivide("3x4-chain-sampled", p, sampled_cone_weight(p, r, True),
              p.linear_extension_count())
    r = rng("2x7-sampled")
    p = grid(r, 2, 7)
    subdivide("2x7-sampled", p, sampled_cone_weight(p, r, True), p.linear_extension_count())
    p = grid(rng("2x7-chain-canonical"), 2, 7, weak=True)
    subdivide("2x7-chain-canonical", p, canonical_weight(p), p.linear_extension_count())
    # coarse weights: 4x4 has 24,024 linearizations
    p = grid(rng("4x4-zero"), 4, 4)
    subdivide("4x4-zero", p, None, 1)
    r = rng("4x4-supermodular")
    p = grid(r, 4, 4)
    column = r.randrange(4)
    a_mask = sum(1 << p.index[f"x{i}{column}"] for i in range(4))
    # an element incomparable to part of the column, so A has several orderings;
    # |J ∩ A|^2 then has one part per linearization of A
    extra = r.choice([i for i in range(p.n) if not a_mask >> i & 1
                      and any(not (p.above[i] | p.below[i]) >> j & 1 for j in bits(a_mask))])
    a_mask |= 1 << extra
    values = [bin(m & a_mask).count("1") ** 2 for m in p.ideals]
    subdivide("4x4-supermodular", p, values, p.linear_extension_count(a_mask))
    return jobs


def lattice_enum(seed):
    jobs = []
    rng = lambda name: random.Random(f"{seed}:{name}")

    def poset_job(name, argv, poset, check):
        jobs.append(Job(name, argv, {"poset": poset.file()}, check))

    p = antichain(rng("antichain10-validate"), 10)
    poset_job("antichain10-validate", ["validate", "{poset}"], p, check_validate(p))
    p = antichain(rng("antichain9-ideals"), 9)
    poset_job("antichain9-ideals", ["ideals", "{poset}"], p, check_ideals(p))
    p = matching(rng("matching6-validate"), 6)
    poset_job("matching6-validate", ["validate", "{poset}"], p, check_validate(p))
    p = grid(rng("4x4-ehrhart5"), 4, 4)
    poset_job("4x4-ehrhart5", ["ehrhart", "{poset}", "--max-dilation", "5"], p,
              check_ehrhart(p, 5))
    p = grid(rng("2x8-ehrhart6"), 2, 8)
    poset_job("2x8-ehrhart6", ["ehrhart", "{poset}", "--max-dilation", "6"], p,
              check_ehrhart(p, 6))
    p = grid(rng("2x8-normality4"), 2, 8)
    poset_job("2x8-normality4", ["normality", "{poset}", "--max-dilation", "4"], p,
              check_normality(4))
    p = grid(rng("4x4-chain-ideal-gens"), 4, 4, weak=True)
    poset_job("4x4-chain-ideal-gens", ["ideal-gens", "{poset}", "--kind", "relative"], p,
              check_ideal_gens(p))
    r = rng("3x4-chain-cone-check")
    p = grid(r, 3, 4, weak=True)
    values = sampled_cone_weight(p, r)
    jobs.append(weight_job("3x4-chain-cone-check", "cone-check", p, values,
                           check_cone_check(p, values)))
    return jobs


def marked_flag(seed):
    jobs = []
    rng = lambda name: random.Random(f"{seed}:{name}")
    full4 = (0, 1, 2, 3, 4)
    for kind in ("gt", "fflv"):
        jobs.append(Job(f"n4-{kind}-polytope",
                        ["polytope", "--kind", kind, "--n", "4", "--dims", "0,1,2,3,4"],
                        {}, check_flag_polytope(4, full4, kind)))
    jobs.append(Job("n5-0135-gt-polytope",
                    ["polytope", "--kind", "gt", "--n", "5", "--dims", "0,1,3,5"],
                    {}, check_flag_polytope(5, (0, 1, 3, 5), "gt")))
    # the box search's cost depends on the element order, so this file keeps
    # the library's order for every seed
    p = flag_poset(None, 4, full4, "gt")
    jobs.append(Job("n4-gt-mcop-recognize", ["mcop-recognize", "{poset}"],
                    {"poset": p.file()}, check_mcop_recognize(p)))
    # the full-flag GT marking is strictly decreasing along its marked chain,
    # so J_lambda holds every ideal and standardization is the identity
    r = rng("n4-gt-degenerate")
    p = flag_poset(None, 4, full4, "gt")
    jobs.append(Job("n4-gt-degenerate",
                    ["flag", "--n", "4", "--dims", "0,1,2,3,4", "--mode", "gt",
                     "--action", "degenerate", "--weights", "{weights}"],
                    {"weights": weights_file(p, sampled_cone_weight(p, r, True))},
                    check_degenerate(4, full4)))
    jobs.append(Job("gr25-fflv-degenerate",
                    ["flag", "--n", "5", "--dims", "0,2,5", "--mode", "fflv",
                     "--action", "degenerate", "--weights", "{weights}", "--default-zero"],
                    {"weights": {"weights": {"p1.2,p1.3,p1.4,p1.5": "1"}}},
                    check_degenerate(5, (0, 2, 5), 2)))
    jobs.append(Job("n5-fflv-point-set",
                    ["flag", "--n", "5", "--dims", "0,1,2,3,4,5", "--mode", "fflv",
                     "--action", "polytope"],
                    {}, check_flag_point_set(5, (0, 1, 2, 3, 4, 5), "fflv")))
    p = flag_poset(rng("gr25-fflv-standardize"), 5, (0, 2, 5), "fflv")
    jobs.append(Job("gr25-fflv-standardize", ["standardize", "{poset}"],
                    {"poset": p.file()}, check_standardize(p)))
    return jobs


WORKLOADS = {
    "subdivide-grid": subdivide_grid,
    "lattice-enum": lattice_enum,
    "marked-flag": marked_flag,
}


def write_inputs(jobs, directory):
    """Write each job's input files and return the argv lists that name them."""
    argvs = []
    for job in jobs:
        paths = {}
        for name, data in job.files.items():
            path = os.path.join(directory, f"{job.name}.{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            paths[name] = path
        argvs.append([a.format(**paths) for a in job.argv])
    return argvs
