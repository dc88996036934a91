"""Rational polyhedral cones of admissible flag weights.

A cone is given by inequality normals h (constraints h.x <= 0) and equality
vectors (v.x = 0), held as integer vectors: weight cones are built from
primitive integer normals, and a rational normal is scaled by the common
denominator of its entries.  Two ray engines are provided: a fast
enumerator for the special normal shapes produced by weight cones
(coordinates of extremal rays lie in {-1,0,1} up to the central projection
used for trace-zero weights), and a generic double-description construction
used as a cross-check oracle.  The fast enumerator assigns candidate
coordinates left to right and tests each constraint once the last
coordinate it reads is set, so the ordering chain x_j <= x_{j+1} of a weight
cone cuts almost every branch early.  Rays are returned as primitive integer
vectors, canonicalized modulo the lineality space, lexicographically sorted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .bundle import Group, HiggsPair, Flag, step_index
from .linalg import (
    Vector,
    dot,
    feasible_nonneg_combination,
    int_nullspace,
    is_zero,
    primitive,
    rank,
    reduce_mod_span,
    rref,
    scale,
    sub,
    vec,
)

IntVector = Tuple[int, ...]


class MalformedNormal(ValueError):
    pass


class DimensionTooLarge(ValueError):
    pass


def _int_normal(h: Sequence) -> IntVector:
    """h unchanged if its entries are ints, else scaled to integers by the
    least common denominator (a positive factor: the constraint is the same)."""
    if all(type(a) is int for a in h):
        return tuple(h)
    fr = [Fraction(a) for a in h]
    d = lcm(*(a.denominator for a in fr))
    return tuple(int(a * d) for a in fr)


def _int_primitive(v: Sequence[int]) -> IntVector:
    """Integer vector divided by the gcd of its entries; sign kept, zero fixed."""
    g = gcd(*v)
    return tuple(v) if g <= 1 else tuple(a // g for a in v)


@dataclass(frozen=True)
class ConeSpec:
    """dim-dimensional cone {x : h.x <= 0 for h in ineqs, v.x = 0 for v in eqs}."""
    dim: int
    ineqs: Tuple[IntVector, ...]
    eqs: Tuple[IntVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "ineqs", tuple(map(_int_normal, self.ineqs)))
        object.__setattr__(self, "eqs", tuple(map(_int_normal, self.eqs)))
        for h in self.ineqs + self.eqs:
            if len(h) != self.dim:
                raise MalformedNormal("constraint length differs from cone dimension")
        if not all(any(h) for h in self.ineqs):
            raise MalformedNormal("zero inequality normal")


def cone_contains(cone: ConeSpec, x: Sequence) -> bool:
    return all(dot(h, x) <= 0 for h in cone.ineqs) and all(
        dot(e, x) == 0 for e in cone.eqs
    )


@lru_cache(maxsize=None)
def lineality_space(cone: ConeSpec) -> Tuple[tuple, ...]:
    """Basis of the largest subspace inside the cone (all constraints tight),
    equal to linalg.nullspace of its constraint rows, with int entries where
    those are integral."""
    return tuple(int_nullspace(cone.ineqs + cone.eqs, cone.dim))


def _classify_ineq(h: IntVector) -> None:
    support = [a for a in _int_primitive(h) if a != 0]
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
        p = _int_primitive(e)
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


def _canonical_reps(members: Sequence[IntVector], lin: Sequence[Vector]) -> List[IntVector]:
    """Primitive representatives of the members modulo the span of lin.

    Each member is reduced by integer multiples of the primitive RREF rows of
    lin, which zeroes their pivot coordinates up to a positive factor."""
    red, piv = rref(lin)
    rows = [(p, primitive(row)) for row, p in zip(red, piv)]
    reps = set()
    for x in members:
        for p, row in rows:
            f = x[p]
            if f:
                d = row[p]
                x = tuple(d * a - f * b for a, b in zip(x, row))
        q = _int_primitive(x)
        if any(q):
            reps.add(q)
    return sorted(reps)


def _extremal_filter(reps: Sequence[Vector]) -> List[Vector]:
    out = []
    for i, r in enumerate(reps):
        others = [q for j, q in enumerate(reps) if j != i]
        if not others or not feasible_nonneg_combination(others, r):
            out.append(r)
    return out


@lru_cache(maxsize=None)
def extremal_rays_special(cone: ConeSpec) -> Tuple[Vector, ...]:
    """Extremal rays via {-1,0,1} candidate enumeration.

    Requires the special normal shapes of weight cones.  A single trace-type
    equality (all-positive coefficients) is handled by relaxing it, which
    leaves a cone invariant under the all-ones direction, and projecting the
    relaxed generators back onto the equality hyperplane.
    """
    if cone.dim > 12:
        raise DimensionTooLarge("special enumeration capped at dimension 12")
    for h in cone.ineqs:
        _classify_ineq(h)
    pairs, zeros, positive = _classify_eqs(cone.eqs, cone.dim)
    if positive:
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
    else:
        members = _special_members(cone.dim, cone.ineqs, pairs, zeros)
    reps = _canonical_reps(members, lineality_space(cone))
    return tuple(_extremal_filter(reps))


@dataclass(frozen=True)
class RaysResult:
    lineality: Tuple[Vector, ...]
    rays: Tuple[Vector, ...]


def brute_rays_oracle(cone: ConeSpec) -> RaysResult:
    """Double-description enumeration; no shape assumptions.  Test oracle."""
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


# ---------------------------------------------------------------------------
# Weight cones of flags


def weight_cone(pair: HiggsPair, flag: Flag) -> ConeSpec:
    """Cone of admissible step weights for a flag.

    Ordering constraints chain the steps; the group contributes equalities
    (weight-reversal pairing for symplectic/orthogonal forms, the rank-weighted
    zero-sum for trace-free groups); each supported entry contributes its
    step-space normal unless the ordering already implies it.  Membership
    agrees pointwise with pattern_compatible.
    """
    k = len(flag)
    steps = step_index(flag, pair.rank)
    ineqs = [_unit_diff(j, j + 1, k) for j in range(k - 1)]
    seen = set(ineqs)

    def add(normal: IntVector):
        if normal not in seen:
            seen.add(normal)
            ineqs.append(normal)

    pat = pair.pattern
    for (t, s) in pat.endo:
        jt, js = steps[t], steps[s]
        if jt > js:
            add(_unit_diff(jt, js, k))
    for (a, b) in pat.beta:
        add(_unit_sum(steps[a], steps[b], k, 1))
    for (a, b) in pat.gamma:
        add(_unit_sum(steps[a], steps[b], k, -1))

    eqs: List[IntVector] = []
    if pair.group in (Group.SP2NC, Group.GLNR):
        for i in range(k // 2):
            eqs.append(_unit_sum(i, k - 1 - i, k, 1))
        if k % 2 == 1:
            eqs.append(tuple(int(j == k // 2) for j in range(k)))
    elif pair.group is Group.SLNC:
        sizes = [len(flag[0])] + [len(b) - len(a) for a, b in zip(flag, flag[1:])]
        eqs.append(tuple(sizes))
    return ConeSpec(k, tuple(ineqs), tuple(eqs))


def _unit_diff(i: int, j: int, k: int) -> IntVector:
    out = [0] * k
    out[i] += 1
    out[j] -= 1
    return tuple(out)


def _unit_sum(i: int, j: int, k: int, sign: int) -> IntVector:
    """Primitive normal of sign*(x_i + x_j); sign*x_i when i == j."""
    out = [0] * k
    out[i] = out[j] = sign
    return tuple(out)
