"""Reference cone code used only by the tests: the {-1,0,1} ray search for
the special normal shapes of weight cones (with its shape checks and the
trace-type relaxation), which shares nothing with the library's double
description but _canonical_reps and int_echelon; a fraction-free
double-description ray oracle with no shape assumptions and its own integer
elimination; the Fraction RREF reference (rref, rank, its nullspace and
reduction modulo a span, an exact linear solve, and the vector helpers they
need) that the library's one integer elimination is checked against; cone
membership, and the sign law of a linear functional on a cone read off from
its rays and lineality."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from splithiggs.cones import (
    MAX_DIM,
    ConeSpec,
    DimensionTooLarge,
    MalformedNormal,
    _canonical_reps,
    extremal_rays_special,
    lineality_space,
)
from splithiggs.linalg import IntVector, int_echelon, primitive
from splithiggs.roots import Vector, dot


# ---------------------------------------------------------------------------
# Fraction RREF reference


def vec(xs: Sequence) -> Vector:
    return tuple(Fraction(x) for x in xs)


def scale(v: Sequence, c) -> Vector:
    c = Fraction(c)
    return tuple(Fraction(a) * c for a in v)


def add(x: Sequence, y: Sequence) -> Vector:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(x, y))


def rref(rows: Sequence[Sequence]) -> Tuple[List[Vector], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(vec(r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [a * inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def rref_nullspace(rows: Sequence[Sequence], dim: int) -> List[Vector]:
    """Basis of {x : A x = 0} for the row list A, in free-column order, read
    off the Fraction RREF."""
    red, pivots = rref(rows)
    basis: List[Vector] = []
    for f in (c for c in range(dim) if c not in pivots):
        x = [Fraction(0)] * dim
        x[f] = Fraction(1)
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def reduce_mod_span(v: Sequence, red_rows: Sequence[Vector], pivots: Sequence[int]) -> Vector:
    """Subtract the span component of v determined by RREF rows.

    Zeroes the pivot coordinates of v; two vectors differing by an element of
    the span reduce to the same result.
    """
    x = list(vec(v))
    for row, p in zip(red_rows, pivots):
        if x[p] != 0:
            f = x[p]
            x = [a - f * b for a, b in zip(x, row)]
    return tuple(x)


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return tuple()
    dim = len(rows[0])
    aug = [list(vec(r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for row in red:
        if all(a == 0 for a in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * dim
    for row, p in zip(red, pivots):
        if p == dim:
            return None
        x[p] = row[-1] - sum(row[c] * x[c] for c in range(dim) if c != p and row[c] != 0)
    # pivot columns of an RREF matrix have a single nonzero entry, so the
    # substitution above already used only free coordinates (all zero here)
    return tuple(x)


def cone_contains(cone: ConeSpec, x: Sequence) -> bool:
    return all(dot(h, x) <= 0 for h in cone.ineqs) and all(
        dot(e, x) == 0 for e in cone.eqs
    )


# ---------------------------------------------------------------------------
# {-1,0,1} ray search


def special_rays_oracle(cone: ConeSpec) -> Tuple[IntVector, ...]:
    """Extremal rays via {-1,0,1} candidate enumeration, independent of the
    library's double description.

    Requires the special normal shapes of weight cones, whose extremal rays
    have coordinates in {-1,0,1} up to the central projection used for
    trace-zero weights.  The candidates are reduced modulo the lineality
    space and each is kept iff it passes the rank test of _is_extremal; the
    kept rays stay in sorted order.
    """
    members = _special_candidates(cone)
    lin = lineality_space(cone)
    return tuple(r for r in _canonical_reps(members, lin, cone.dim)
                 if _is_extremal(cone, r, len(lin)))


def _classify_ineq(h: IntVector) -> None:
    support = [a for a in primitive(h) if a != 0]
    if len(support) in (1, 2) and all(a in (1, -1) for a in support):
        return
    raise MalformedNormal(f"inequality normal {h} outside the special shapes")


def _classify_eqs(eqs: Sequence[IntVector], dim: int):
    """Split equalities into index-pair constraints, zero-coordinate
    constraints, and at most one all-positive (trace-type) constraint."""
    pairs: List[Tuple[int, int]] = []
    zeros: List[int] = []
    positive: List[IntVector] = []
    for e in eqs:
        p = primitive(e)
        nz = [i for i, a in enumerate(p) if a != 0]
        if len(nz) == 1:
            zeros.append(nz[0])
        elif len(nz) == 2 and p[nz[0]] == p[nz[1]] and abs(p[nz[0]]) == 1:
            pairs.append((nz[0], nz[1]))
        elif len(nz) == dim and all(a > 0 for a in p):
            positive.append(p)
        else:
            raise MalformedNormal(f"equality {e} outside the special shapes")
    if len(positive) > 1:
        raise MalformedNormal("more than one trace-type equality")
    if positive and (pairs or zeros):
        raise MalformedNormal("trace-type equality cannot mix with pair equalities")
    return pairs, zeros, positive


_UNIT = frozenset((-1, 0, 1))


def _special_members(dim: int, ineqs: Sequence[IntVector], pairs, zeros) -> List[IntVector]:
    """Every nonzero x in {-1,0,1}^dim with h.x <= 0 for each h in ineqs,
    x_i + x_j = 0 for each (i, j) in pairs and x_i = 0 for each i in zeros,
    in lexicographic order.

    Every normal has at most two nonzero entries (the special shapes).  The
    coordinates are assigned left to right; a constraint is tested once the
    last coordinate it reads is set, so a failing prefix is never extended.
    """
    # rules[i][v]: for x_i = v, the allowed values of earlier coordinates
    rules = [{v: {} for v in ((0,) if i in zeros else (-1, 0, 1))} for i in range(dim)]

    def restrict(i: int, j: int, allowed) -> None:
        for v, rule in rules[i].items():
            rule[j] = rule.get(j, _UNIT) & allowed(v)

    for h in ineqs:
        support = [(i, a) for i, a in enumerate(h) if a]
        i, a = support[-1]
        if len(support) == 1:
            rules[i] = {v: rule for v, rule in rules[i].items() if a * v <= 0}
        else:
            j, b = support[0]
            restrict(i, j, lambda v: frozenset(u for u in _UNIT if b * u + a * v <= 0))
    for (p, q) in pairs:
        restrict(max(p, q), min(p, q), lambda v: frozenset((-v,)))

    prefixes: List[IntVector] = [()]
    for level in rules:
        steps = [(v, tuple(rule.items())) for v, rule in sorted(level.items())]
        prefixes = [x + (v,) for x in prefixes for v, rule in steps
                    if all(x[j] in allowed for j, allowed in rule)]
    return [x for x in prefixes if any(x)]


def _is_extremal(cone: ConeSpec, r: IntVector, lin_dim: int) -> bool:
    """Whether the cone member r spans an extremal ray modulo the lineality
    space: the constraints tight at r cut out the smallest face containing
    r, and that face is a ray iff their rank is dim - lin_dim - 1."""
    tight = cone.eqs + tuple(h for h in cone.ineqs
                             if sum(a * b for a, b in zip(h, r)) == 0)
    return len(int_echelon(tight, cone.dim)[1]) == cone.dim - lin_dim - 1


def _special_candidates(cone: ConeSpec) -> List[IntVector]:
    """Nonzero members of the cone whose classes modulo the lineality space
    include every extremal ray: the {-1,0,1} members.

    A single trace-type equality (all-positive coefficients) is handled by
    relaxing it, which leaves a cone invariant under the all-ones direction,
    and projecting the relaxed members back onto the equality hyperplane.
    """
    if cone.dim > MAX_DIM:
        raise DimensionTooLarge(f"special enumeration capped at dimension {MAX_DIM}")
    for h in cone.ineqs:
        _classify_ineq(h)
    pairs, zeros, positive = _classify_eqs(cone.eqs, cone.dim)
    if not positive:
        return _special_members(cone.dim, cone.ineqs, pairs, zeros)
    if any(sum(h) for h in cone.ineqs):
        raise MalformedNormal(
            "trace-type equality requires all-ones-invariant inequalities"
        )
    m = positive[0]
    m_ones = sum(m)
    members = []
    for r in _special_members(cone.dim, cone.ineqs, (), ()):
        m_r = sum(a * b for a, b in zip(m, r))
        w = tuple(m_ones * a - m_r for a in r)
        if any(w):
            members.append(w)
    return members


# ---------------------------------------------------------------------------
# Fraction-free double description


@dataclass(frozen=True)
class RaysResult:
    lineality: Tuple[IntVector, ...]
    rays: Tuple[IntVector, ...]


def _idot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(x, y))


def _neg(v: Sequence[int]) -> IntVector:
    return tuple(-a for a in v)


def _cut(a: IntVector, v: IntVector, v0: IntVector) -> IntVector:
    """primitive((a.v0) v - (a.v) v0): v moved along v0 onto a.x = 0, by a
    positive factor when a.v0 > 0."""
    av0, av = _idot(a, v0), _idot(a, v)
    return primitive([av0 * x - av * y for x, y in zip(v, v0)])


def _echelon(rows: Sequence[Sequence[int]]) -> Tuple[List[IntVector], List[int]]:
    """The oracle's own integer elimination, for integer rows of any shape:
    (primitive RREF rows with positive pivots, pivot columns)."""
    mat = [list(r) for r in rows if any(r)]
    pivots: List[int] = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        for j in range(len(mat)):
            if j != r and mat[j][c]:
                mat[j] = list(primitive(
                    [mat[r][c] * x - mat[j][c] * y for x, y in zip(mat[j], mat[r])]))
        pivots.append(c)
    rows_out = [primitive(row if row[p] > 0 else _neg(row)) for row, p in zip(mat, pivots)]
    return rows_out, pivots


def brute_rays_oracle(cone: ConeSpec) -> RaysResult:
    """Double-description enumeration (Fukuda & Prodon 1996) in integers;
    no shape assumptions.

    Returns the lineality basis as the primitive RREF rows of the lineality
    space, sorted, and the rays as primitive representatives modulo it with
    the pivot coordinates of those rows zeroed, sorted."""
    if cone.dim > 8:
        raise DimensionTooLarge("double description capped at dimension 8")
    dim = cone.dim
    constraints: List[IntVector] = list(cone.ineqs)
    for e in cone.eqs:
        constraints += [e, _neg(e)]
    lin: List[IntVector] = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    rays: List[IntVector] = []
    inserted: List[IntVector] = []
    for a in constraints:
        i0 = next((i for i, v in enumerate(lin) if _idot(a, v)), None)
        if i0 is not None:
            v0 = lin.pop(i0)
            if _idot(a, v0) < 0:
                v0 = _neg(v0)
            lin = [w for w in (_cut(a, v, v0) for v in lin) if any(w)]
            rays = [_cut(a, r, v0) for r in rays] + [primitive(_neg(v0))]
        else:
            pos = [r for r in rays if _idot(a, r) > 0]
            neg = [r for r in rays if _idot(a, r) < 0]
            zero = [r for r in rays if _idot(a, r) == 0]
            if pos:
                keep = zero + neg
                for p, n in itertools.product(pos, neg):
                    if _adjacent(p, n, inserted, dim, len(lin)):
                        ap, an = _idot(a, p), _idot(a, n)
                        keep.append(primitive([ap * x - an * y for x, y in zip(n, p)]))
                rays = list(dict.fromkeys(keep))
        inserted.append(a)
    red, piv = _echelon(lin)
    canon = set()
    for r in rays:
        for row, p in zip(red, piv):
            if r[p]:
                r = tuple(row[p] * x - r[p] * y for x, y in zip(r, row))
        q = primitive(r)
        if any(q):
            canon.add(q)
    return RaysResult(tuple(sorted(red)), tuple(sorted(canon)))


def _adjacent(p: IntVector, n: IntVector, inserted: Sequence[IntVector], dim: int,
              lin_dim: int) -> bool:
    active = [a for a in inserted if _idot(a, p) == 0 and _idot(a, n) == 0]
    return len(_echelon(active)[1]) == dim - lin_dim - 2


def nonneg_on_cone(d: Sequence, cone: ConeSpec) -> Optional[IntVector]:
    """None if d.x >= 0 holds on the whole cone; else a violating direction.

    The functional is non-negative on the cone iff it is >= 0 on every
    extremal ray and exactly 0 on the lineality space.  The witness is the
    lexicographically least primitive violating vector.
    """
    bad: List[IntVector] = []
    for r in extremal_rays_special(cone):
        if dot(d, r) < 0:
            bad.append(r)
    for v in lineality_space(cone):
        val = dot(d, v)
        if val != 0:
            bad.append(primitive(v if val < 0 else [-a for a in v]))
    return min(bad) if bad else None
