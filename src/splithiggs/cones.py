"""Rational polyhedral cones of admissible flag weights.

A cone is given by inequality normals h (constraints h.x <= 0) and equality
vectors (v.x = 0), held as integer vectors: weight cones are built from
primitive integer normals, and a rational normal is scaled by the common
denominator of its entries (linalg.int_vector).  Extremal rays are
enumerated by double description on integers, for any normals: the rays
grow one inequality at a time, so the cost follows the rays, not the
members of the cone.  Rays are reduced modulo the lineality space by the
rows of linalg.int_echelon and returned as primitive integer vectors,
lexicographically sorted.  Nothing here computes with Fractions: the only
ones are lineality entries that are not integral, which int_nullspace
returns and reports print as "p/q".
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from .bundle import Flag, Group, HiggsPair, HiggsPattern, step_index
# perfbench/tracing.py wraps the LP at this name, so it stays importable here
from .linalg import feasible_nonneg_combination  # noqa: F401
from .linalg import IntVector, idot, int_echelon, int_nullspace, int_vector, primitive


class MalformedNormal(ValueError):
    pass


class DimensionTooLarge(ValueError):
    pass


# Rank 12 is bounded by the certificate walks, up to Fubini(n) flags (about
# 28 billion at n = 12), and by the Sp2nR simplified compile's 3**n chains,
# not by the ray enumeration.
MAX_DIM = 12


@dataclass(frozen=True)
class ConeSpec:
    """dim-dimensional cone {x : h.x <= 0 for h in ineqs, v.x = 0 for v in eqs}."""
    dim: int
    ineqs: Tuple[IntVector, ...]
    eqs: Tuple[IntVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "ineqs", tuple(map(int_vector, self.ineqs)))
        object.__setattr__(self, "eqs", tuple(map(int_vector, self.eqs)))
        for h in self.ineqs + self.eqs:
            if len(h) != self.dim:
                raise MalformedNormal("constraint length differs from cone dimension")
        if not all(any(h) for h in self.ineqs):
            raise MalformedNormal("zero inequality normal")


@lru_cache(maxsize=1 << 16)
def lineality_space(cone: ConeSpec) -> Tuple[tuple, ...]:
    """Basis of the largest subspace inside the cone (all constraints tight):
    linalg.int_nullspace of its constraint rows."""
    return tuple(int_nullspace(cone.ineqs + cone.eqs, cone.dim))


def _canonical_reps(members: Sequence[IntVector], lin: Sequence[tuple],
                    dim: int) -> List[IntVector]:
    """Primitive representatives of the members modulo the span of lin.

    Each member is reduced by integer multiples of the int_echelon rows of
    lin, which zeroes their pivot coordinates up to a positive factor."""
    red, piv = int_echelon([int_vector(v) for v in lin], dim)
    reps = set()
    for x in members:
        for row, p in zip(red, piv):
            f = x[p]
            if f:
                d = row[p]
                x = tuple(d * a - f * b for a, b in zip(x, row))
        q = primitive(x)
        if any(q):
            reps.add(q)
    return sorted(reps)


def double_description(cone: ConeSpec) -> Tuple[Tuple[IntVector, ...], Tuple[IntVector, ...]]:
    """The extremal rays modulo the lineality space and a lineality basis,
    by double description (Motzkin et al. 1953; Fukuda & Prodon 1996), for
    any integer cone.

    The lineality starts as a primitive integer basis of the equalities'
    nullspace, with no rays, and the inequalities h are added one at a
    time.  If h is nonzero on a lineality vector v, oriented so h.v > 0,
    v leaves the lineality: every other lineality vector and every ray is
    moved along v onto h.x = 0, and -v becomes a ray.  Otherwise the rays
    with h.r > 0 are dropped, and each adjacent pair of rays p, n with
    h.p > 0 > h.n adds their positive combination on h.x = 0.  Each ray
    carries the bitmask of the inequalities tight at it; since the rays are
    always the extremal ones of the cone so far, p and n are adjacent iff no
    third ray is tight at every inequality both are tight at.  The lineality
    vectors left at the end, primitive integer vectors, span the lineality
    space, whose int_echelon rows are the same for any basis; the rays are
    returned as the sorted _canonical_reps modulo that span.
    """
    if cone.dim > MAX_DIM:
        raise DimensionTooLarge(f"ray enumeration capped at dimension {MAX_DIM}")
    lin = [primitive(v) for v in int_nullspace(cone.eqs, cone.dim)]
    rays: List[Tuple[IntVector, int]] = []  # (ray, mask of the inequalities tight at it)
    for i, h in enumerate(cone.ineqs):
        bit = 1 << i
        v = next((v for v in lin if idot(h, v)), None)
        if v is not None:
            lin.remove(v)
            hv = idot(h, v)
            if hv < 0:
                v, hv = tuple(-a for a in v), -hv

            def along(w: IntVector) -> IntVector:
                hw = idot(h, w)
                return primitive([hv * a - hw * b for a, b in zip(w, v)])

            lin = [along(w) for w in lin]
            rays = [(along(r), m | bit) for r, m in rays] + [(tuple(-a for a in v), bit - 1)]
            continue
        values = [(j, r, m, idot(h, r)) for j, (r, m) in enumerate(rays)]
        kept = [(r, m | bit if x == 0 else m) for _, r, m, x in values if x <= 0]
        for jp, p, mp, xp in values:
            for jn, n, mn, xn in values:
                common = mp & mn
                if xp > 0 > xn and not any(m & common == common for j, (_, m) in enumerate(rays)
                                           if j != jp and j != jn):
                    kept.append((primitive([xp * b - xn * a for a, b in zip(p, n)]),
                                 common | bit))
        rays = kept
    return tuple(_canonical_reps([r for r, _ in rays], lin, cone.dim)), tuple(lin)


@lru_cache(maxsize=1 << 16)
def extremal_rays_special(cone: ConeSpec) -> Tuple[IntVector, ...]:
    """The extremal rays of double_description, kept per cone."""
    return double_description(cone)[0]


# ---------------------------------------------------------------------------
# Weight cones of flags


def weight_cone(pair: HiggsPair, flag: Flag) -> ConeSpec:
    """Cone of admissible step weights for a flag, with every normal listed.

    Ordering constraints chain the steps; the group contributes equalities
    (_group_equalities); each supported entry contributes its step-space
    normal once, unless the ordering already implies it (an endo entry (t,s)
    with t in a step no later than s's).  A weight is
    a member iff, read as summand weights w, it keeps every entry at weight
    <= 0: w_t <= w_s for an endo entry (t,s), w_a + w_b <= 0 for beta (a,b)
    and w_a + w_b >= 0 for gamma (a,b).  The rays report prints these
    normals; the certificate walks use the same cone as FlagConeKey.
    """
    k = len(flag)
    steps = step_index(flag, pair.rank)
    ineqs = [_unit_diff(j, j + 1, k) for j in range(k - 1)]
    seen = set(ineqs)

    def add(normal: IntVector):
        if normal not in seen:
            seen.add(normal)
            ineqs.append(normal)

    for (t, s) in pair.pattern.endo:
        jt, js = steps[t], steps[s]
        if jt > js:
            add(_unit_diff(jt, js, k))
    for (a, b) in pair.pattern.beta:
        add(_unit_sum(steps[a], steps[b], k, 1))
    for (a, b) in pair.pattern.gamma:
        add(_unit_sum(steps[a], steps[b], k, -1))
    return ConeSpec(k, tuple(ineqs), _group_equalities(pair.group, flag))


def _group_equalities(group: Group, flag: Flag) -> Tuple[IntVector, ...]:
    """A flag's group equalities: the weight-reversal pairing lambda_j =
    -lambda_{k-1-j} for symplectic/orthogonal forms, the rank-weighted
    zero sum for SLnC, none for Sp2nR."""
    k = len(flag)
    if group in (Group.SP2NC, Group.GLNR):
        eqs = [_unit_sum(i, k - 1 - i, k, 1) for i in range(k // 2)]
        if k % 2 == 1:
            eqs.append(_unit_sum(k // 2, k // 2, k, 1))
        return tuple(eqs)
    if group is Group.SLNC:
        return ((len(flag[0]),) + tuple(len(b) - len(a) for a, b in zip(flag, flag[1:])),)
    return ()


class FlagConeKey(NamedTuple):
    """A flag's weight cone without the normals its chain x_j <= x_{j+1}
    implies, the key under which flags share their geometry.  On the chain
    the endo interval (i, j) (x_j <= x_i, so x constant on steps i..j) is
    implied by any interval containing it, the beta pair (i, j)
    (x_i + x_j <= 0) by a pair (a, b) with a >= i and b >= j, and the gamma
    pair (i, j) (x_i + x_j >= 0) by a pair (a, b) with a <= i and b <= j.
    So the key keeps the maximal intervals, the maximal beta pairs and the
    minimal gamma pairs, each pair i <= j and each list sorted, with the
    group equalities.  Its cone is the same set as weight_cone's, whose
    normals include its own, so its rays and lineality basis are the same."""
    dim: int
    eqs: Tuple[IntVector, ...]
    endo: Tuple[Tuple[int, int], ...]
    beta: Tuple[Tuple[int, int], ...]
    gamma: Tuple[Tuple[int, int], ...]

    def cone(self) -> ConeSpec:
        k = self.dim
        return ConeSpec(k, tuple([_unit_diff(j, j + 1, k) for j in range(k - 1)]
                                 + [_unit_diff(j, i, k) for i, j in self.endo]
                                 + [_unit_sum(i, j, k, 1) for i, j in self.beta]
                                 + [_unit_sum(i, j, k, -1) for i, j in self.gamma]), self.eqs)


def flag_cone_key(group: Group, pattern: HiggsPattern, flag: Flag,
                  steps: Sequence[int]) -> FlagConeKey:
    """The FlagConeKey of a flag with step index steps (bundle.step_index).
    Per step i it keeps the widest pair (i, j) of each family, then scans
    the steps: an endo interval is kept iff it reaches past every interval
    starting earlier, a beta pair iff its j is above every one starting
    later, and a gamma pair iff its j is below every one starting earlier."""
    k = len(flag)
    endo, beta, gamma = [], [], []
    if pattern.endo:
        top = [-1] * k  # per step i, the last step j > i of an interval (i, j)
        for t, s in pattern.endo:
            i, j = steps[s], steps[t]
            if j > i and j > top[i]:
                top[i] = j
        reach = -1
        for i, j in enumerate(top):
            if j > reach:
                endo.append((i, j))
                reach = j
    if pattern.beta:
        top = [-1] * k  # per step i, the last step j >= i of a pair (i, j)
        for a, b in pattern.beta:
            i, j = steps[a], steps[b]
            if i > j:
                i, j = j, i
            if j > top[i]:
                top[i] = j
        reach = -1
        for i in reversed(range(k)):
            if top[i] > reach:
                beta.append((i, top[i]))
                reach = top[i]
        beta.reverse()
    if pattern.gamma:
        low = [k] * k  # per step i, the first step j >= i of a pair (i, j)
        for a, b in pattern.gamma:
            i, j = steps[a], steps[b]
            if i > j:
                i, j = j, i
            if j < low[i]:
                low[i] = j
        reach = k
        for i, j in enumerate(low):
            if j < reach:
                gamma.append((i, j))
                reach = j
    return FlagConeKey(k, _group_equalities(group, flag), tuple(endo), tuple(beta), tuple(gamma))


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
