"""Exact linear algebra: affine dimension, determinant, convex-combination tests.

Everything runs over the integers or fractions.Fraction; no floating point
is used anywhere.
"""

import math
from fractions import Fraction


def determinant(rows):
    """Determinant of a square rational matrix."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def affine_dimension(points):
    """Dimension of the affine hull of a point set (-1 for the empty set).

    Fraction-free: the differences to the first point, scaled once to
    integers by the lcm of the denominators, are reduced into an echelon
    form of primitive integer rows, one per lead column.  A difference is
    reduced against the rows in increasing lead column; what is left, if
    anything, becomes a new row.  The count stops at the ambient dimension.
    """
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    ambient = len(base)
    scale = math.lcm(*(x.denominator for p in pts for x in p))
    rows = {}  # lead column -> primitive row
    for p in pts[1:]:
        if len(rows) == ambient:
            break
        v = [int((x - y) * scale) for x, y in zip(p, base)]
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


def extreme_points(points):
    """The vertices of conv(points): members that are not combinations of the rest."""
    pts = [tuple(p) for p in points]
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not in_convex_hull(p, others):
            out.append(p)
    return out
