"""Exact linear algebra: affine dimension, convex-combination and vertex tests.

Everything runs over the integers or fractions.Fraction; no floating point
is used anywhere.
"""

import math
from collections import Counter
from fractions import Fraction

from .errors import TheoremViolation


def affine_dimension(points):
    """Dimension of the affine hull of a point set (-1 for the empty set): the
    rank of the differences to the first point, scaled to integers once.

    No library code calls it: `mrpp_subdivide` reads every section's
    dimension off the runs of a chain.  It stays here as the rank oracle
    that the tests check those runs against, and because the benchmark's
    tracer names the span `linalg.affine_dimension`."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    scale = math.lcm(*(x.denominator for p in pts for x in p))
    return _rank(([int((x - y) * scale) for x, y in zip(p, base)] for p in pts[1:]), len(base))


def _rank(vectors, limit):
    """Rank of integer vectors, counted up to `limit`, fraction-free: each
    vector is reduced against an echelon form of primitive integer rows, one
    per lead column, in increasing lead column, and what is left, if
    anything, becomes a new row."""
    rows = {}  # lead column -> primitive row
    for v in vectors:
        if len(rows) == limit:
            break
        for lead in sorted(rows):
            if v[lead]:
                row = rows[lead]
                f, g = row[lead], v[lead]
                v = [f * x - g * y for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            d = math.gcd(*v)
            rows[lead] = [x // d for x in v]
    return len(rows)


def solve(matrix, rhs):
    """Solve a square nonsingular rational system; returns the solution vector."""
    n = len(matrix)
    mat = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        mat[c], mat[pivot] = mat[pivot], mat[c]
        inv = mat[c][c]
        mat[c] = [a / inv for a in mat[c]]
        for i in range(n):
            if i != c and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return [mat[i][n] for i in range(n)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def in_convex_hull(point, points):
    """Exact test whether `point` is a convex combination of `points`.

    A member, or the midpoint of two members, is inside; a point that the
    sum of the directions to the members separates strictly is outside.
    Everything else goes to Wolfe's minimum-norm-point algorithm on those
    directions, which over the rationals is finite and never rounds.
    """
    members = {tuple(p) for p in points}
    if not members:
        return False
    p = tuple(point)
    if p in members:
        return True
    # tuples are built from lists: CPython grows a tuple built from a
    # generator by resizing it, so the tuples it frees pile up unused
    if any(tuple([2 * a - b for a, b in zip(p, q)]) in members for q in members):
        return True
    directions = [tuple([b - a for a, b in zip(p, q)]) for q in members]
    total = [sum(column) for column in zip(*directions)]
    if all(_dot(total, d) > 0 for d in directions):
        return False
    return _origin_in_hull(directions)


def _origin_in_hull(directions):
    """Wolfe (1976): walk to the point of conv(directions) nearest the origin.

    The corral is an affinely independent subset of the directions and
    `weights` the convex combination x of it; each major step adds the
    direction least aligned with x, each minor step moves x to the nearest
    point of the corral's affine hull, stepping back to the hull's boundary
    (and dropping the points whose weight reaches zero) while that point lies
    outside the corral's convex hull.
    """
    corral = [min(directions, key=lambda d: _dot(d, d))]
    weights = [Fraction(1)]
    while True:
        x = [sum(w * c[j] for w, c in zip(weights, corral)) for j in range(len(corral[0]))]
        if not any(x):
            return True
        scale = math.lcm(*(a.denominator for a in x))
        x = [int(a * scale) for a in x]
        nearest = min(directions, key=lambda d: _dot(x, d))
        if _dot(x, nearest) > 0:
            return False  # x separates the directions from the origin
        corral.append(nearest)
        weights.append(Fraction(0))
        while True:
            k = len(corral)
            gram = [[_dot(a, b) for b in corral] + [1] for a in corral]
            alpha = solve(gram + [[1] * k + [0]], [0] * k + [1])[:k]
            if all(a > 0 for a in alpha):
                weights = alpha
                break
            theta = min(w / (w - a) for w, a in zip(weights, alpha) if a <= 0)
            weights = [(1 - theta) * w + theta * a for w, a in zip(weights, alpha)]
            corral = [c for c, w in zip(corral, weights) if w > 0]
            weights = [w for w in weights if w > 0]


def extreme_points(points, inequalities=None):
    """The vertices of conv(points): members that are not combinations of the rest.

    Without `inequalities`, each member is tested against the others
    (`in_convex_hull`).  Else they are integer rows (a, b), each meaning
    a·x <= b, that hold on every point (or TheoremViolation is raised) and
    include a defining system of conv(points); a distinct member x is then a
    vertex exactly when the rows tight at x have rank n.  At a vertex the
    defining rows tight at x already do.  A non-vertex lies strictly inside
    a segment of conv(points), along which every valid row tight at x is
    tight, so those rows vanish on its direction.  Tight rows ±c·e_j fix
    coordinate j, and the other tight rows are ranked on the free ones.
    """
    pts = [tuple(p) for p in points]
    if inequalities is None or not pts:
        out = []
        for i, p in enumerate(pts):
            others = pts[:i] + pts[i + 1:]
            if not in_convex_hull(p, others):
                out.append(p)
        return out
    columns = list(zip(*pts))
    fixed = [0] * len(pts)  # bitmask of the coordinates a tight unit row fixes
    tight = [[] for _ in pts]
    for a, b in inequalities:
        support = [j for j, c in enumerate(a) if c]
        terms = [columns[j] if a[j] == 1 else [a[j] * x for x in columns[j]] for j in support]
        for k, value in enumerate(map(sum, zip(*terms)) if terms else [0] * len(pts)):
            if value == b:
                if len(support) == 1:
                    fixed[k] |= 1 << support[0]
                else:
                    tight[k].append(a)
            elif value > b:
                raise TheoremViolation(f"{pts[k]} violates the inequality {tuple(a)}·x <= {b}")
    copies = Counter(pts)
    out = []
    for p, mask, rows in zip(pts, fixed, tight):
        free = [j for j in range(len(p)) if not mask >> j & 1]
        if copies[p] == 1 and _rank({tuple(a[j] for j in free) for a in rows}, len(free)) == len(free):
            out.append(p)
    return out
