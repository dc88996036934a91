"""Rational polyhedral cones of admissible flag weights.

A cone is given by inequality normals h (constraints h.x <= 0) and equality
vectors (v.x = 0), held as integer vectors: weight cones are built from
primitive integer normals, and a rational normal is scaled by the common
denominator of its entries (linalg.int_vector).  Extremal rays are
enumerated for the special normal shapes produced by weight cones, whose
extremal rays have coordinates in {-1,0,1} up to the central projection used
for trace-zero weights.  The enumerator assigns candidate coordinates left
to right and tests each constraint once the last coordinate it reads is set,
so the ordering chain x_j <= x_{j+1} of a weight cone cuts almost every
branch early.  Candidates are reduced modulo the lineality space by the rows
of linalg.int_echelon, and a reduced candidate is kept iff the constraints
tight at it have rank one less than the codimension of the lineality space
(an exact rank test by the same elimination, no linear program).  Rays are
returned as primitive integer vectors, lexicographically sorted.  Nothing
here computes with Fractions: the only ones are lineality entries that are
not integral, which int_nullspace returns and reports print as "p/q".
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .bundle import Flag, Group, HiggsPair, HiggsPattern, step_index
# perfbench/tracing.py wraps the LP at this name, so it stays importable here
from .linalg import feasible_nonneg_combination  # noqa: F401
from .linalg import IntVector, int_echelon, int_nullspace, int_vector, primitive


class MalformedNormal(ValueError):
    pass


class DimensionTooLarge(ValueError):
    pass


MAX_DIM = 12  # the {-1,0,1} search visits up to 3**dim candidates


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


def _is_extremal(cone: ConeSpec, r: IntVector, lin_dim: int) -> bool:
    """Whether the cone member r spans an extremal ray modulo the lineality
    space: the constraints tight at r cut out the smallest face containing
    r, and that face is a ray iff their rank is dim - lin_dim - 1."""
    tight = cone.eqs + tuple(h for h in cone.ineqs
                             if sum(a * b for a, b in zip(h, r)) == 0)
    return len(int_echelon(tight, cone.dim)[1]) == cone.dim - lin_dim - 1


@lru_cache(maxsize=1 << 16)
def extremal_rays_special(cone: ConeSpec) -> Tuple[IntVector, ...]:
    """Extremal rays via {-1,0,1} candidate enumeration.

    Requires the special normal shapes of weight cones.  The candidates are
    reduced modulo the lineality space and each is kept iff it passes the
    rank test of _is_extremal; the kept rays stay in sorted order.
    """
    members = _special_candidates(cone)
    lin = lineality_space(cone)
    return tuple(r for r in _canonical_reps(members, lin, cone.dim)
                 if _is_extremal(cone, r, len(lin)))


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


def summand_cone(group: Group, rank: int, pairing: Optional[Tuple[int, ...]],
                 pattern: HiggsPattern) -> ConeSpec:
    """Cone C of summand weights, the union of all flags' weight cones (see
    stability): every entry margin <= 0 (w_t - w_s for an endo entry
    (t,s), w_a + w_b for beta (a,b), -(w_a + w_b) for gamma (a,b)), and
    w_sigma(i) = -w_i for a pairing or sum(w) = 0 for SLnC."""
    n = rank
    ineqs = sorted({_unit_diff(t, s, n) for (t, s) in pattern.endo if t != s}
                   | {_unit_sum(a, b, n, 1) for (a, b) in pattern.beta}
                   | {_unit_sum(a, b, n, -1) for (a, b) in pattern.gamma})
    if pairing is not None:
        eqs = [_unit_sum(i, j, n, 1) for i, j in enumerate(pairing) if i <= j]
    else:
        eqs = [(1,) * n] if group is Group.SLNC else []
    return ConeSpec(n, tuple(ineqs), tuple(eqs))


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
