"""Reference cone code used only by the tests: a double-description ray
oracle with no shape assumptions and the rational-vector helpers it needs,
an exact linear solve, cone membership, and the sign law of a linear
functional on a cone read off from its rays and lineality."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from splithiggs.cones import (
    ConeSpec,
    DimensionTooLarge,
    extremal_rays_special,
    lineality_space,
)
from splithiggs.linalg import (
    Vector,
    dot,
    primitive,
    rank,
    rref,
    scale,
    sub,
    vec,
)


def is_zero(v: Sequence) -> bool:
    return all(Fraction(a) == 0 for a in v)


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


@dataclass(frozen=True)
class RaysResult:
    lineality: Tuple[Vector, ...]
    rays: Tuple[Vector, ...]


def brute_rays_oracle(cone: ConeSpec) -> RaysResult:
    """Double-description enumeration; no shape assumptions."""
    if cone.dim > 8:
        raise DimensionTooLarge("double description capped at dimension 8")
    dim = cone.dim
    constraints: List[Vector] = list(cone.ineqs)
    for e in cone.eqs:
        constraints.append(e)
        constraints.append(scale(e, -1))
    lin: List[Vector] = [vec([1 if j == i else 0 for j in range(dim)]) for i in range(dim)]
    rays: List[Vector] = []
    inserted: List[Vector] = []
    for a in constraints:
        v0 = next((v for v in lin if dot(a, v) != 0), None)
        if v0 is not None:
            av0 = dot(a, v0)
            lin = [sub(v, scale(v0, dot(a, v) / av0)) for v in lin if v is not v0]
            lin = [w for w in (vec(primitive(v)) for v in lin) if not is_zero(w)]
            rays = [sub(r, scale(v0, dot(a, r) / av0)) for r in rays]
            r0 = scale(v0, -1) if av0 > 0 else v0
            rays.append(r0)
            rays = [vec(primitive(r)) for r in rays]
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            neg = [r for r in rays if dot(a, r) < 0]
            zero = [r for r in rays if dot(a, r) == 0]
            if pos:
                keep = zero + neg
                for p, n in itertools.product(pos, neg):
                    if _adjacent(p, n, inserted, dim, len(lin)):
                        w = sub(scale(n, dot(a, p)), scale(p, dot(a, n)))
                        keep.append(vec(primitive(w)))
                seen = set()
                rays = []
                for r in keep:
                    if r not in seen:
                        seen.add(r)
                        rays.append(r)
        inserted.append(a)
    red, piv = rref(lin)
    canon = set()
    for r in rays:
        q = primitive(reduce_mod_span(r, red, piv))
        if any(q):
            canon.add(q)
    lin_basis = tuple(sorted(primitive(v) for v in red))
    return RaysResult(lin_basis, tuple(sorted(canon)))


def _adjacent(p: Vector, n: Vector, inserted: Sequence[Vector], dim: int, lin_dim: int) -> bool:
    active = [a for a in inserted if dot(a, p) == 0 and dot(a, n) == 0]
    return rank(active) == dim - lin_dim - 2


def nonneg_on_cone(d: Sequence, cone: ConeSpec) -> Optional[Vector]:
    """None if d.x >= 0 holds on the whole cone; else a violating direction.

    The functional is non-negative on the cone iff it is >= 0 on every
    extremal ray and exactly 0 on the lineality space.  The witness is the
    lexicographically least primitive violating vector.
    """
    bad: List[Vector] = []
    for r in extremal_rays_special(cone):
        if dot(d, r) < 0:
            bad.append(r)
    for v in lineality_space(cone):
        val = dot(d, v)
        if val != 0:
            w = v if val < 0 else scale(v, -1)
            bad.append(primitive(w))
    return min(bad) if bad else None
