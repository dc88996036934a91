"""Stability decision procedures and the general-vs-simplified sweep harness.

The general checker quantifies the filtration definition over all weighted
coordinate flags, and decides on one cone per pattern by this lemma.  A
weighted flag (flag, lambda) gives summand i the weight w_i = lambda_j of
the first step j containing it.  Its degree functional telescopes to
sum_i w_i (d_i - alpha) (bundle.flag_degree_term), and it is compatible with
the field iff every entry margin of w is <= 0: w_t - w_s for an endo entry
(t,s), w_a + w_b for beta (a,b) and -(w_a + w_b) for gamma (a,b).  So the
union of all flags' weight cones, mapped to summand space, is the convex
cone C of _key_cone: the margins <= 0, w_sigma(i) = -w_i for a
pairing and sum(w) = 0 for SLnC.  Every w in C is the image of the flag of
its sublevel sets.  At alpha = p/q a vector w of C takes the value
q*(w.d) - p*sum(w).  C is the conic hull of its generators, its extremal
rays and each lineality basis vector and its negation (_generators), and
the verdicts read off the generators' values:

- semistable: every generator has value >= 0;
- stable: in addition every generator at value zero is central: constant,
  or for jordan's colorings constant on each color class;
- polystable, the taut test: the generators at value zero are all
  constant, or none moves an entry margin.  The flag of a relative-interior
  point of the zero face is strictly increasing on it and moves every
  margin the face moves.  The real symplectic simplified test
  (include_trivial, which also counts the one-step flag) keeps the second
  clause alone.  Both readings need the pair semistable on the general
  side, for only then do the generators at value zero span a face of C; on
  an unstable pair either test walks the flags.

Certificates name a flag.  So certify walks the flags lazily in
enumerate_flags order and stops at the first flag that fires: the lex-least
destabilising direction, the first non-central direction at value zero, or
the first flag whose zero face holds a strictly increasing weight and moves
an entry.  Flags share geometry through the irredundant key of their weight
cone (cones.FlagConeKey: the normals the flag's chain implies dropped), so
a cone's rays and lineality come from one double description for every
flag, pattern and pair that has it, and a walk runs it only for a key not
yet seen (_flag_geometry).

Every caller decides through one pass per side and alpha (PairInputs), on
the group, degree list, pairing and cone key alone.  Each value of a side, q*x - p*b at alpha = p/q, is linear in alpha, so the
side is semistable on one closed interval of alpha whose two ends, its
walls, are the only alphas where its zero face can change (Thaddeus 1994,
the critical values of alpha-stability).  The walls are computed once per
PairInputs (_walls), in the loop that takes the degree products: the
general side's from the summand cone's generator values, the
simplified side's from the subobject values.  Each alpha is then read off
the two walls in constant time: the general pass gives the semistable,
stable and both taut readings, the simplified pass semistable and stable,
and a certificate finds the subobject that fires by one scan.  Every caller
certifies and reads only what it reports.  A sweep certifies the rows that
name a pair; the classification (`check`, jordan) certifies its verdict
and reads the polystable test of a pair semistable but not stable,
certifying no refusal, and `check --mode both` reads a stable pair's for
the probe it prints; the public checkers certify the verdicts they return.
The simplified checkers evaluate the per-group subbundle criteria on each
pattern's subobjects, compiled into summand bitmasks: a decision reads
every subobject's degree from one table of its subset degree sums.

Both per-pattern compiles, the summand cone and the subobjects, depend on
the pattern only through the inequalities its support imposes.  So each
is keyed by the pattern's cone key (_cone_key: the strong closure of its
relation, one reach bitmask per node, one key per summand cone) and
compiled once per key, straight from the reach masks: the cone from the
normals of the key's classes and Hasse pairs (_key_normals) by one double
description, the subobjects as the bitmasks of the sets closed under the
key's predecessors.  One pattern -> key table (_cone_key) sits in front of
both key tables, 65,536 entries each.  Given the degrees, both passes too
depend on the pattern only through its key, so a sweep tallies: it decides
each distinct (degree list, cone key) once, on the first instance with it,
in a decision table per degree list that holds at most the rank's key
count, and only counts the later instances of a key whose readings name no
row.  Each side's walls are read once per key and alpha, and a pair is
built only to name a row, its certificates walking its own flags.

The strictness exemption for central directions (weights constant across all
summands) transcribes the off-center requirement of the stable clause; only
the real symplectic group has a positive-dimensional center in this family,
so the exemption is vacuous elsewhere.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from enum import Enum
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .bundle import (
    ALPHA_DIGITS,
    INT_BOUND,
    PAIRED,
    Flag,
    Group,
    HiggsPair,
    HiggsPattern,
    NonzeroAlphaUnsupported,
    Twist,
    _alpha_value,
    enumerate_flags,
    flag_degree_term,
    group_bundle,
    iter_flags,
    orthogonal_pair,
    resolve_alpha,
    reversal,
    sl_pair,
    sp_real_pair,
    step_index,
    summand_weights,
    symplectic_pair,
)
from .cones import ConeSpec, FlagConeKey, double_description, entry_normals, flag_cone_key
# perfbench/tracing.py wraps these at their names, so they stay importable here
from .bundle import admissible_chain_pairs, invariant_subsets  # noqa: F401
from .cones import extremal_rays_special, lineality_space, weight_cone  # noqa: F401
# the general decider's summand cone has one coordinate per summand
from .cones import MAX_DIM as MAX_RANK
from .linalg import IntVector, idot, primitive
from .roots import Character, RootSystemSpec, degree_via_character


class PreconditionUnstable(ValueError):
    pass


class Status(str, Enum):
    UNSTABLE = "unstable"
    SEMISTABLE_ONLY = "semistable_only"
    POLYSTABLE = "polystable"
    STABLE = "stable"


@dataclass(frozen=True)
class Certificate:
    """Witness for a verdict.

    kind 'destabilizer': a direction (flag weights, subset, or chain) where
    the degree functional is negative.  kind 'equality_witness': a nonzero
    non-central direction achieving exactly zero (for polystability
    failures, `entry` names a supported entry at strictly negative weight).
    """
    kind: str
    flag: Optional[Flag] = None
    weights: Optional[Tuple[int, ...]] = None
    subset: Optional[Tuple[int, ...]] = None
    chain: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    entry: Optional[Tuple[str, int, int]] = None
    value: Optional[Fraction] = None


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: Optional[Certificate] = None


# ---------------------------------------------------------------------------
# Geometry: the summand cone of each pattern, and each flag's data for the
# certificate walk.


@dataclass(frozen=True)
class FlagData:
    """A flag's weight cone's rays and lineality (_flag_geometry), and its
    step data."""
    flag: Flag
    rays: Tuple[IntVector, ...]
    lineality: Tuple[tuple, ...]
    steps: Tuple[int, ...]
    deg_jumps: Tuple[int, ...]
    size_jumps: Tuple[int, ...]


class SummandCone(NamedTuple):
    """C's generators (_generators), with per generator its sum (the
    coefficient of alpha) and its bits: 1 when it is not constant, 2 when
    it moves an entry margin, which every ray does (a vector at which every
    inequality of C is tight lies in the lineality) and no lineality vector
    does."""
    generators: Tuple[IntVector, ...]
    sums: Tuple[int, ...]
    bits: Tuple[int, ...]


def _is_constant(v: Sequence[int]) -> bool:
    return all(x == v[0] for x in v)


def _generators(rays: Sequence[IntVector],
                lineality: Sequence[IntVector]) -> Tuple[IntVector, ...]:
    """A cone's generators, whose conic hull it is: its rays, then each
    lineality vector followed by its negation."""
    return (*rays, *(w for v in lineality for w in (v, tuple(-a for a in v))))


@lru_cache(maxsize=1 << 16)
def _key_cone(group: Group, rank: int, pairing: Optional[Tuple[int, ...]],
              key: Tuple[int, ...]) -> SummandCone:
    """C of a cone key: the key's normals (_key_normals), and w_sigma(i) =
    -w_i for a pairing or sum(w) = 0 for SLnC, held here alone as the
    generators of the double description's rays and lineality."""
    n = rank
    if pairing is not None:
        eqs = tuple(tuple(int(k in (i, j)) for k in range(n))
                    for i, j in enumerate(pairing) if i <= j)
    else:
        eqs = ((1,) * n,) if group is Group.SLNC else ()
    rays, lin = double_description(ConeSpec(n, _key_normals(key, n), eqs))
    gens = _generators(rays, lin)
    return SummandCone(gens, tuple(map(sum, gens)), tuple(
        2 * (i < len(rays)) | (not _is_constant(g)) for i, g in enumerate(gens)))


@lru_cache(maxsize=1 << 16)
def _cone_key(group: Group, rank: int, pairing: Optional[Tuple[int, ...]],
              pattern: HiggsPattern) -> Tuple[int, ...]:
    """The strong closure of the pattern's relation, one reach mask per
    node.  The relation: outside Sp2nR on the summands, t -> s for an endo
    entry (t,s) (w_t <= w_s); for Sp2nR on the literals, node i for +w_i and
    node rank + i for -w_i, +a -> -b and +b -> -a for beta (a,b) (w_a + w_b
    <= 0) and -a -> +b and -b -> +a for gamma (a,b).  It is closed by
    bitmask Warshall, then strengthened once through zero.  Each node u has
    a negation u': the other literal, or sigma(u) under a pairing
    (w_sigma(u) = -w_u, so a fixed summand is zero); SLnC has none.  A node
    that reaches some u with u -> u' (w_u <= 0) then reaches all that each v
    with v' -> v (w_v >= 0) reaches, which keeps the relation closed.  On a
    relation symmetric under negation, as every Sp2nR pattern's and every
    paired pattern's that validate_pair accepts is, that adds u -> v for
    each such u and v: the boolean octagon strong closure (Mine 2006), a
    normal form of the cone (Bagnara, Hill & Zaffanella 2009), so patterns
    with one summand cone get one key.  Each relation added is implied by C
    and holds on every invariant subset and admissible chain
    (_key_subobjects, _key_chains), so patterns with one key have the same
    summand cone and subobjects (an Sp2nR chain is the {-1,0,1} point that
    is -1 on S1, 0 on S2 - S1 and 1 elsewhere).  Kept per group, exact
    pattern and pairing."""
    n = rank
    if group is not Group.SP2NR:
        reach = [1 << i for i in range(n)]
        for t, s in pattern.endo:
            reach[t] |= 1 << s
        neg = pairing
    else:
        reach = [1 << i for i in range(2 * n)]
        for a, b in pattern.beta:
            reach[a] |= 1 << n + b
            reach[b] |= 1 << n + a
        for a, b in pattern.gamma:
            reach[n + a] |= 1 << b
            reach[n + b] |= 1 << a
        neg = tuple(range(n, 2 * n)) + tuple(range(n))
    for k in range(len(reach)):
        bit, via = 1 << k, reach[k]
        reach = [r | via if r & bit else r for r in reach]
    if neg is not None:
        low = high = 0  # the nodes u with u -> u', and all that their u' reach
        for u, r in enumerate(reach):
            if r >> neg[u] & 1:
                low |= 1 << u
                high |= reach[neg[u]]
        if low:
            reach = [r | high if r & low else r for r in reach]
    return tuple(reach)


def _key_normals(key: Tuple[int, ...], rank: int) -> Tuple[IntVector, ...]:
    """Inequality normals of a cone key's summand cone, sorted: a ring
    through each class of mutually reachable nodes and one relation per
    Hasse pair of classes, between least members, which imply the rest of
    the closure.  A relation u -> v of nodes is the normal of x_u - x_v <= 0,
    where node i is w_i and, on the literals, node rank + i is -w_i."""
    classes: Dict[int, int] = {}  # mutually reachable nodes reach the same set
    for u, r in enumerate(key):
        classes[r] = classes.get(r, 0) | 1 << u
    above = [(r & ~c, c) for r, c in classes.items()]  # per class, the nodes strictly above
    links = []
    for up, c in above:
        cover = up & ~reduce(operator.or_, (up2 for up2, c2 in above if c2 & up), 0)
        ring = _members(c)
        links += zip(ring, ring[1:] + ring[:1])
        links += [(ring[0], _members(c2)[0]) for _, c2 in above if c2 & cover]
    normals = set()
    for u, v in links:
        out = [0] * rank
        out[u % rank] += 1 if u < rank else -1
        out[v % rank] -= 1 if v < rank else -1
        if any(out):  # a one-node ring is no relation
            normals.add(primitive(out))
    return tuple(sorted(normals))


def flag_data(pair: HiggsPair) -> List[FlagData]:
    return [single_flag_data(pair, flag) for flag in enumerate_flags(pair)]


def single_flag_data(pair: HiggsPair, flag: Flag) -> FlagData:
    """A flag's weight cone, its rays and lineality, and its step data.  The
    geometry is looked up by the flag's FlagConeKey, which flags with the
    same irredundant weight cone share."""
    k, steps = len(flag), step_index(flag, pair.rank)
    rays, lin = _flag_geometry(flag_cone_key(pair.group, pair.pattern, flag, steps))
    deg, size = [0] * k, [0] * k  # per step, the degree and count of the summands it adds
    for j, d in zip(steps, pair.bundle.degrees):
        deg[j] += d
        size[j] += 1
    return FlagData(flag, rays, lin, steps, tuple(deg), tuple(size))


@lru_cache(maxsize=1 << 16)
def _flag_geometry(key: FlagConeKey) -> Tuple[Tuple[IntVector, ...], Tuple[tuple, ...]]:
    """The extremal rays and lineality basis of a FlagConeKey's cone, from
    one double description, held here alone.  Its lineality is empty but
    for the constant vector of an Sp2nR flag of the zero field: the chain's
    normals, all tight, force a constant weight, which every group equality
    and every beta or gamma normal forbids."""
    return double_description(key.cone())


def _int_coeffs(fd: FlagData, alpha: Fraction) -> Tuple[int, ...]:
    """Degree-functional coefficients scaled by the positive denominator of
    alpha; the scaling preserves every sign condition."""
    p, q = alpha.numerator, alpha.denominator
    return tuple(q * dd - p * nn for dd, nn in zip(fd.deg_jumps, fd.size_jumps))


FlagWitness = Callable[[FlagData, Tuple[int, ...]], Optional[Verdict]]


def _first_witness(pair: HiggsPair, alpha: Fraction, witness: FlagWitness) -> Optional[Verdict]:
    """The verdict witness(flag data, degree coefficients) returns for the
    first flag, in enumerate_flags order, where it returns one, else None.
    Each flag's geometry is built only when the walk reaches it."""
    for flag in iter_flags(pair):
        fd = single_flag_data(pair, flag)
        verdict = witness(fd, _int_coeffs(fd, alpha))
        if verdict is not None:
            return verdict
    return None


def _walk_to_witness(pair: HiggsPair, alpha: Fraction, witness: FlagWitness) -> Verdict:
    verdict = _first_witness(pair, alpha, witness)
    if verdict is None:
        raise AssertionError("no flag carries the witness of the summand cone's verdict")
    return verdict


# ---------------------------------------------------------------------------
# Deciders.  Each side reads one pass per alpha off its two walls, from
# integer sign tests alone (PairInputs.general, PairInputs.simplified), and
# certify builds the certificate of the verdict a pass read.  Sweeps read the passes and
# certify only the rows they report; the classification certifies its
# verdict, and the public checkers the verdicts they return.


class Subobjects(NamedTuple):
    """A pattern's simplified subobjects as pairs of summand bitmasks.  With
    T[m] the degree sum of the summands in mask m and full the mask of all
    of them, subobject k is the mask pair (s1[k], s2[k]) and takes
    A = T[full] - T[s1[k]] - T[s2[k]] and the coefficient of alpha
    B = sums[k] = n - |s1[k]| - |s2[k]|.  At alpha = p/q its value
    q*A - p*B is negative exactly when it destabilises: an Sp2nR chain
    S1 <= S2 is (S1, S2), so A = deg V - deg S1 - deg S2; a subset S is
    (full, S), so A = -deg S and B = -|S|.
    improper lists the (at most three) improper subobjects, all others are
    proper; no_complement (complex and orthogonal groups) the proper
    subsets without an invariant complement (for a paired group, an
    isotropic one).  A certificate decodes its chain or subset from the
    masks (_members)."""
    s1: Tuple[int, ...]
    s2: Tuple[int, ...]
    sums: Tuple[int, ...]
    improper: Tuple[int, ...]
    no_complement: Tuple[int, ...]


@lru_cache(maxsize=1 << 16)
def _key_subobjects(group: Group, rank: int, pairing: Optional[Tuple[int, ...]],
                    key: Tuple[int, ...]) -> Subobjects:
    """The subobjects of a cone key, enumerated from its reach masks as the
    sets closed under the key's predecessors: for Sp2nR the chains
    (_key_chains), else the invariant subsets S in the size-then-lex order
    of bundle.invariant_subsets (_size_lex).  No summand outside S reaches
    into S, and with a pairing S is isotropic; a proper one has no invariant
    complement when its complement fails the same test.  The test reads two
    tables over all masks m, built as _subset_sums builds its sums: the
    union of the reach masks of m's summands, and of their partners' bits.
    An isotropic S holds no summand that an s with sigma(s) -> s reaches,
    or it would hold s and sigma(s), so no relation the strong closure adds
    (_cone_key) points into S."""
    if group is Group.SP2NR:
        return _key_chains(rank, key)
    full = (1 << rank) - 1
    reach, image = [0], [0]
    for i in range(rank):
        bit = 1 << pairing[i] if pairing else 0
        reach += [r | key[i] for r in reach]
        image += [m | bit for m in image]

    def closed(m):
        return not (reach[full ^ m] | image[m]) & m

    items = [m for m in _size_lex(rank) if closed(m)]
    return Subobjects((full,) * len(items), tuple(items), tuple(-m.bit_count() for m in items),
                      tuple(i for i, m in enumerate(items) if m in (0, full)),
                      tuple(i for i, m in enumerate(items)
                            if m not in (0, full) and not closed(full ^ m)))


@lru_cache(maxsize=64)
def _size_lex(rank: int) -> Tuple[int, ...]:
    """Every bitmask of rank summands, in size-then-lex order of its
    members."""
    return tuple(sum(1 << i for i in s) for r in range(rank + 1)
                 for s in itertools.combinations(range(rank), r))


def _key_chains(n: int, key: Tuple[int, ...]) -> Subobjects:
    """The admissible chains S1 <= S2, in sorted order of their index
    tuples.  A chain is admissible iff the literals at weight -1,
    L = {+w_i : i in S1} | {-w_i : i not in S2}, are closed under the key's
    predecessors.  Given S2 that holds iff S1 holds R, the summands whose
    +w_i reaches a -w_j outside S2, and misses F, those that a -w_j inside
    S2 reaches: S1 runs over R | X for every X in S2 - F - R, or S2 has no
    chain.  In the transitive closure every path between two + literals
    runs through a - one, which R and F account for.  The strong closure
    adds +i -> +j and -j -> -i only through zero, where +i -> -i and
    -j -> +j: j in S2 already puts j in F, and i outside S2 puts i in R, so
    the chains, the {-1,0,1} points of C, are the same.  Walking S2 in lex
    order, each chain is filed under its S1, and the chains are read in the
    lex order of S1."""
    full = (1 << n) - 1
    lex = [0]  # the masks in lex order: the empty set, those holding i, the rest
    for i in reversed(range(n)):
        lex = [0] + [1 << i | m for m in lex] + lex[1:]
    under: List[List[int]] = [[] for _ in range(full + 1)]  # per S1, its S2 in lex order
    for m2 in lex:
        required = sum(1 << i for i in range(n) if key[i] >> n & ~m2)
        free = m2 & ~reduce(operator.or_, (key[n + j] for j in range(n) if m2 >> j & 1), 0)
        if required & ~free:
            continue
        free &= ~required
        x = free
        while True:  # every subset x of free
            under[required | x].append(m2)
            if not x:
                break
            x = (x - 1) & free
    s1: List[int] = []
    s2: List[int] = []
    sums: List[int] = []
    improper: List[int] = []
    for m1 in lex:
        tops = under[m1]
        if m1 in (0, full):
            improper += [len(s2) + k for k, m2 in enumerate(tops) if m2 in (0, full)]
        s1 += [m1] * len(tops)
        s2 += tops
        c = n - m1.bit_count()
        sums += [c - m2.bit_count() for m2 in tops]
    return Subobjects(tuple(s1), tuple(s2), tuple(sums), tuple(improper), ())


def _members(mask: int) -> Tuple[int, ...]:
    """The summands of a bitmask, as a sorted tuple."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _subset_sums(degrees: Sequence[int]) -> List[int]:
    """T[m], the degree sum of the summands in bitmask m, for all 2^n masks."""
    table = [0]
    for d in degrees:
        table += [x + d for x in table]
    return table


class GeneralPass(NamedTuple):
    """The general side's readings at one alpha: semistable, stable, and
    the two taut readings of polystability, off-center (taut) and with the
    central directions (graded, include_trivial).  The taut readings hold
    on a semistable pair only: on an unstable one they read False, and
    _taut walks the flags."""
    semistable: bool
    stable: bool
    taut: bool
    graded: bool


class SimplifiedPass(NamedTuple):
    """The simplified side's readings at one alpha."""
    semistable: bool
    stable: bool


# Each side's passes by the union of its zero face's bits, the unstable
# pass last.  A semistable pair's general pass: stable when no vector is
# non-constant, graded when none moves a margin, taut when either holds;
# its simplified pass: stable when no proper subobject is at value zero.
_GENERAL_PASSES = (*(GeneralPass(True, not bits & 1, bits != 3, not bits & 2)
                     for bits in range(4)), GeneralPass(False, False, False, False))
_SIMPLIFIED_PASSES = (SimplifiedPass(True, True), SimplifiedPass(True, False),
                      SimplifiedPass(False, False))


def _walls(values: Iterable[Tuple[int, int, int]], passes: tuple) -> tuple:
    """A side's two walls, (x_u, b_u, bits_u, x_l, b_l, bits_l, bits,
    passes), from its values (x, b, their bits).  Each value q*x - p*b is
    linear in alpha = p/q, so the side is semistable on one closed interval
    of alpha, and its zero face changes only at the interval's ends: the
    upper end the least x/b over b > 0, kept as the value (x_u, b_u), the
    lower end the greatest x/b over b < 0, kept as (x_l, b_l), compared by
    cross-multiplication, each with the union of the bits of the values
    tied at it.  bits is the union of those of the values at zero for every
    alpha (b = 0, x = 0).  An open end is (1, 0), which every alpha passes;
    a negative b = 0 value makes the upper end (-1, 0), which none passes.
    passes is the side's pass table, indexed by the bits of its zero face,
    the unstable pass last."""
    x_u = x_l = 1
    b_u = bits_u = b_l = bits_l = bits = 0
    for x, b, k in values:
        if b > 0:
            tie = x * b_u - x_u * b
            if tie < 0:
                x_u, b_u, bits_u = x, b, k
            elif not tie:
                bits_u |= k
        elif b:
            tie = x * b_l - x_l * b
            if tie > 0:
                x_l, b_l, bits_l = x, b, k
            elif not tie:
                bits_l |= k
        elif x < 0:
            return -1, 0, 0, 1, 0, 0, 0, passes
        elif not x:
            bits |= k
    return x_u, b_u, bits_u, x_l, b_l, bits_l, bits, passes


def _read_walls(walls: tuple, alpha: Fraction):
    """A side's pass at alpha, read off its walls: semistable iff both ends'
    values q*x - p*b are >= 0, and the zero face takes the bits tied at an
    end whose value is zero."""
    x_u, b_u, bits_u, x_l, b_l, bits_l, bits, passes = walls
    p, q = alpha.as_integer_ratio()
    upper, lower = q * x_u - p * b_u, q * x_l - p * b_l
    if upper < 0 or lower < 0:
        return passes[-1]
    if not upper:
        bits |= bits_u
    if not lower:
        bits |= bits_l
    return passes[bits]


# Whether a summand weight vector at value zero is central, for
# PairInputs.stable_under: jordan's colorings use "constant on each color
# class"; the deciders read constancy (_is_constant)
CentralTest = Callable[[Sequence[int]], bool]


class PairInputs:
    """The decision state of one (group, degree list, pairing, cone key),
    shared by every alpha and verdict: both compiles, fetched once by the
    key, and each side's two walls (_walls), formed in the loop that takes
    the products with the degrees: w.d for every generator w of the
    summand cone, A for every subobject from the table of subset
    degree sums (a sweep's, else taken on first use).  An alpha is one
    reading of the walls per side; the rare paths that need a product
    (stable_under, no_complement_at, _simplified_certify) take it again.
    of(pair) builds a pair's state, its key looked up by _cone_key."""
    __slots__ = ("group", "degrees", "sums", "_args", "_cone", "_subobjects", "_general",
                 "_simplified")

    def __init__(self, group: Group, degrees: Tuple[int, ...],
                 pairing: Optional[Tuple[int, ...]], key: Tuple[int, ...],
                 sums: Optional[List[int]] = None):
        self.group, self.degrees, self.sums = group, degrees, sums
        self._args = (group, len(degrees), pairing, key)  # the key tables' arguments
        self._cone = self._subobjects = self._general = self._simplified = None

    @classmethod
    def of(cls, pair: HiggsPair) -> PairInputs:
        group, pairing = pair.group, pair.bundle.pairing
        return cls(group, pair.bundle.degrees, pairing,
                   _cone_key(group, pair.rank, pairing, pair.pattern))

    def summand_cone(self) -> SummandCone:
        self._cone = self._cone or _key_cone(*self._args)
        return self._cone

    def subobjects(self) -> Subobjects:
        self._subobjects = self._subobjects or _key_subobjects(*self._args)
        return self._subobjects

    def subset_sums(self) -> List[int]:
        self.sums = self.sums or _subset_sums(self.degrees)
        return self.sums

    def general(self, alpha: Fraction) -> GeneralPass:
        """The general pass, read off the walls of the generator values
        q*(w.d) - p*sum(w): unstable outside them, else read off the union
        of the bits of the generators at value zero."""
        if self._general is None:
            c, d = self.summand_cone(), self.degrees
            self._general = _walls(((sum(map(operator.mul, d, w)), b, k) for w, b, k in
                                    zip(c.generators, c.sums, c.bits)), _GENERAL_PASSES)
        return _read_walls(self._general, alpha)

    def stable_under(self, alpha: Fraction, central: CentralTest) -> bool:
        """Whether the pair is general-stable when central, not constancy,
        reads the zero face: semistable, and central passes each generator
        at value zero; it is called on no other."""
        if not self.general(alpha).semistable:
            return False
        c, d = self.summand_cone(), self.degrees
        p, q = alpha.numerator, alpha.denominator
        return all(central(w) for w, b in zip(c.generators, c.sums)
                   if q * sum(map(operator.mul, d, w)) == p * b)

    def simplified(self, alpha: Fraction) -> SimplifiedPass:
        """The simplified pass, read off the walls of the subobject values
        q*A - p*B: unstable outside them, else stable unless a proper
        subobject is at value zero."""
        if self._simplified is None:
            s, t = self.subobjects(), self.subset_sums()
            full = t[-1]
            proper = [1] * len(s.sums)
            for i in s.improper:
                proper[i] = 0
            self._simplified = _walls(((full - t[x] - t[y], b, k) for x, y, b, k in
                                       zip(s.s1, s.s2, s.sums, proper)), _SIMPLIFIED_PASSES)
        return _read_walls(self._simplified, alpha)

    def no_complement_at(self) -> Optional[int]:
        """The first proper invariant subset of degree zero without an
        invariant complement (complex and orthogonal groups, at alpha 0)."""
        s, t = self.subobjects(), self.subset_sums()
        return next((i for i in s.no_complement if t[s.s2[i]] == 0), None)


def _general_certify(inputs: PairInputs, alpha: Fraction, reading, pair: HiggsPair) -> Verdict:
    """The verdict a pass read, with the certificate on the first flag of
    pair that fires: the lex-least destabilising generator, or the first
    non-central direction at value zero."""
    if reading.stable:
        return Verdict(Status.STABLE)
    if not reading.semistable:
        return _walk_to_witness(pair, alpha,
                                lambda fd, c: _destabilizer(fd, c, alpha.denominator))
    return _walk_to_witness(pair, alpha, _equality_witness)


def _destabilizer(fd: FlagData, c: Tuple[int, ...], q: int) -> Optional[Verdict]:
    bad = [w for w in _generators(fd.rays, fd.lineality) if idot(c, w) < 0]
    if not bad:
        return None
    w = min(bad)
    return Verdict(Status.UNSTABLE, Certificate(
        "destabilizer", flag=fd.flag, weights=tuple(w), value=Fraction(idot(c, w), q)))


def _equality_witness(fd: FlagData, c: Tuple[int, ...]) -> Optional[Verdict]:
    # every step adds a summand, so a step vector is constant iff its summand
    # weights are; a flag cone's lineality is constant (_flag_geometry)
    w = next((r for r in fd.rays if idot(c, r) == 0 and not _is_constant(r)), None)
    return None if w is None else Verdict(Status.SEMISTABLE_ONLY, Certificate(
        "equality_witness", flag=fd.flag, weights=tuple(w), value=Fraction(0)))


def _taut(inputs: PairInputs, alpha: Fraction, pair: Optional[HiggsPair],
          general: Optional[GeneralPass] = None, include_trivial: bool = False) -> bool:
    """The taut test, off the general pass at alpha (read here unless given):
    polystable when no entry margin moves on the zero face of C or, without
    include_trivial, when that face is all constant.  The rays at value zero
    span a face of C only when no value is negative: a pair the general side
    finds unstable is decided flag by flag, as the certificate walks."""
    g = general or inputs.general(alpha)
    if g.semistable:
        return g.graded if include_trivial else g.taut
    return _first_witness(pair, alpha, partial(
        _taut_witness, pattern=pair.pattern, include_trivial=include_trivial)) is None


def _taut_refusal(inputs: PairInputs, alpha: Fraction, pair: HiggsPair,
                  include_trivial: bool = False) -> Verdict:
    """The verdict of a pair the taut test refuses, with its certificate."""
    return _walk_to_witness(pair, alpha, partial(
        _taut_witness, pattern=pair.pattern, include_trivial=include_trivial))


def _taut_witness(fd: FlagData, c: Tuple[int, ...], pattern: HiggsPattern,
                  include_trivial: bool) -> Optional[Verdict]:
    """When the flag's degree-zero face contains a strictly increasing
    weight vector and moves a supported entry functional, a strictly
    increasing face weight placing the first moved entry at strictly
    negative weight.  The face contains a strictly increasing vector iff
    every adjacent step gap is widened by some face ray: a lineality vector
    is constant, and a flag cone has one only where no entry can move
    (_flag_geometry).  A one-step flag only carries central directions,
    which the off-center polystable clause does not quantify over; the real
    symplectic graded-form criterion (include_trivial) does include them."""
    k = len(fd.flag)
    if k < 2 and not include_trivial:
        return None
    rays0 = [r for r in fd.rays if idot(c, r) == 0]
    if not all(any(r[i] < r[i + 1] for r in rays0) for i in range(k - 1)):
        return None
    entry = next((entry for entry, _, _, f in entry_normals(pattern, fd.steps, k)
                  if any(idot(f, r) for r in rays0)), None)
    if entry is None:
        return None
    # every entry normal is <= 0 on the cone, so the moved entry is < 0 on the sum
    return Verdict(Status.SEMISTABLE_ONLY, Certificate(
        "equality_witness", flag=fd.flag,
        weights=primitive([sum(col) for col in zip(*rays0)]), entry=entry, value=Fraction(0)))


def _simplified_certify(inputs: PairInputs, alpha: Fraction, reading, pair: HiggsPair) -> Verdict:
    """The verdict a pass read, with the certificate on the subobject that
    fires, which names no flag of pair: the first destabilising one on an
    unstable reading, the first proper one at value zero (the equality
    witness against stability) on a semistable one."""
    if reading.stable:
        return Verdict(Status.STABLE)
    s, t = inputs.subobjects(), inputs.subset_sums()
    full = t[-1]
    p, q = alpha.as_integer_ratio()
    semistable, improper = reading.semistable, s.improper
    for at, (x, y, b) in enumerate(zip(s.s1, s.s2, s.sums)):
        v = q * (full - t[x] - t[y]) - p * b
        if (not v and at not in improper) if semistable else v < 0:
            break
    else:  # a reading no subobject bears out, as a test may force
        return Verdict(Status.SEMISTABLE_ONLY if semistable else Status.UNSTABLE)
    if inputs.group is Group.SP2NR:
        key, item = "chain", (_members(x), _members(y))
    else:
        key, item = "subset", _members(y)
    if semistable:
        return Verdict(Status.SEMISTABLE_ONLY, Certificate(
            "equality_witness", **{key: item}, value=Fraction(0)))
    # a chain reports its value q*A - p*B over q, a subset S its degree T[S]
    value = Fraction(v, q) if key == "chain" else Fraction(t[y])
    return Verdict(Status.UNSTABLE, Certificate("destabilizer", **{key: item}, value=value))


def _simplified_polystable(inputs: PairInputs, alpha: Fraction, pair: Optional[HiggsPair],
                           general: Optional[GeneralPass] = None) -> bool:
    """Complement search for the complex/orthogonal groups: polystable when
    no proper invariant subset of degree zero lacks an invariant complement
    (for a paired group, an isotropic one).  For the real symplectic group,
    the graded-form criterion realized on the coordinate splitting: the
    taut test on the summand cone with include_trivial, which also
    quantifies the central directions the general off-center clause skips."""
    if inputs.group is Group.SP2NR:
        return _taut(inputs, alpha, pair, general, include_trivial=True)
    return inputs.no_complement_at() is None


def _simplified_refusal(inputs: PairInputs, alpha: Fraction, pair: HiggsPair) -> Verdict:
    if inputs.group is Group.SP2NR:
        return _taut_refusal(inputs, alpha, pair, include_trivial=True)
    return Verdict(Status.SEMISTABLE_ONLY, Certificate(
        "equality_witness", subset=_members(inputs.subobjects().s2[inputs.no_complement_at()]),
        value=Fraction(0)))


class Decider(NamedTuple):
    """One side of the comparison: read returns its pass at one alpha, and
    certify the verdict that pass reads, with its certificate;
    polystable_read is its polystable test, and refusal the verdict, with
    its certificate, of a pair that test refuses, which only polystable and
    a sweep's disagreement rows build.  Callers ask the polystable test of
    a pair the same side finds semistable, but it answers on every pair as
    the per-flag or per-subobject walk does: a sweep also asks it of a pair
    the other side finds unstable.  The pair is passed for the flag walks,
    and the polystable test may be given the general pass at alpha."""
    read: Callable[[PairInputs, Fraction], tuple]
    certify: Callable[[PairInputs, Fraction, tuple, HiggsPair], Verdict]
    polystable_read: Callable[..., bool]
    refusal: Callable[[PairInputs, Fraction, HiggsPair], Verdict]

    def verdicts(self, inputs: PairInputs, alpha: Fraction,
                 pair: HiggsPair) -> Tuple[Verdict, Verdict]:
        """The (semistable, stable) verdicts, the same unstable verdict twice
        for an unstable pair."""
        strict = self.certify(inputs, alpha, self.read(inputs, alpha), pair)
        if strict.status is Status.UNSTABLE:
            return strict, strict
        return Verdict(Status.SEMISTABLE_ONLY), strict

    def polystable(self, inputs: PairInputs, alpha: Fraction, pair: HiggsPair) -> Verdict:
        if self.polystable_read(inputs, alpha, pair):
            return Verdict(Status.POLYSTABLE)
        return self.refusal(inputs, alpha, pair)

    def classify(self, inputs: PairInputs, alpha: Fraction, pair: HiggsPair) -> Verdict:
        """The classification: polystable when semistable, not stable and
        polystable_read passes.  A pair the test refuses carries its
        classification's certificate, no refusal's, and a stable pair's test
        is not read here, only by probe."""
        reading = self.read(inputs, alpha)
        if reading.semistable and not reading.stable and \
                self.polystable_read(inputs, alpha, pair):
            return Verdict(Status.POLYSTABLE)
        return self.certify(inputs, alpha, reading, pair)

    def probe(self, inputs: PairInputs, alpha: Fraction, pair: HiggsPair,
              verdict: Verdict) -> bool:
        """Whether the pair classify gave verdict is polystable: semistable
        and polystable_read passes, a stable pair included, whose test only
        this reads.  The probe check --mode both prints."""
        return verdict.status is Status.POLYSTABLE or \
            verdict.status is Status.STABLE and self.polystable_read(inputs, alpha, pair)


GENERAL = Decider(PairInputs.general, _general_certify, _taut, _taut_refusal)
SIMPLIFIED = Decider(PairInputs.simplified, _simplified_certify,
                     _simplified_polystable, _simplified_refusal)


# ---------------------------------------------------------------------------
# Public checkers: views of the decider passes on one pair


def semistable_general(pair: HiggsPair, alpha=0) -> Verdict:
    return GENERAL.verdicts(PairInputs.of(pair), resolve_alpha(pair, alpha), pair)[0]


def stable_general(pair: HiggsPair, alpha=0) -> Verdict:
    return GENERAL.verdicts(PairInputs.of(pair), resolve_alpha(pair, alpha), pair)[1]


def polystable_general_taut(pair: HiggsPair, alpha=0) -> Verdict:
    a = resolve_alpha(pair, alpha)
    inputs = PairInputs.of(pair)
    if not GENERAL.read(inputs, a).semistable:
        raise PreconditionUnstable("polystability requires a semistable pair")
    return GENERAL.polystable(inputs, a, pair)


def classify_general(pair: HiggsPair, alpha=0) -> Verdict:
    return GENERAL.classify(PairInputs.of(pair), resolve_alpha(pair, alpha), pair)


def semistable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    return SIMPLIFIED.verdicts(PairInputs.of(pair), resolve_alpha(pair, alpha), pair)[0]


def stable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    return SIMPLIFIED.verdicts(PairInputs.of(pair), resolve_alpha(pair, alpha), pair)[1]


def polystable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    """The simplified polystable test, or the simplified unstable verdict."""
    a = resolve_alpha(pair, alpha)
    inputs = PairInputs.of(pair)
    semi, _ = SIMPLIFIED.verdicts(inputs, a, pair)
    return semi if semi.status is Status.UNSTABLE else SIMPLIFIED.polystable(inputs, a, pair)


def classify_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    return SIMPLIFIED.classify(PairInputs.of(pair), resolve_alpha(pair, alpha), pair)


# ---------------------------------------------------------------------------
# Degree-formula consistency (filtration form vs character pairing)


def degree_consistency_check(pair: HiggsPair, flag: Flag,
                             weights: Sequence[Fraction]) -> bool:
    """The flag degree functional equals the character-side degree: the
    split bundle paired against the antidominant character whose dual has
    the given step weights as eigenvalues."""
    mu = summand_weights(flag, weights, pair.rank)
    rank = pair.rank
    rhs = flag_degree_term(pair, flag, weights, Fraction(0))
    if rank == 1:
        return mu[0] * pair.bundle.degrees[0] == rhs
    order = sorted(range(rank), key=lambda i: (mu[i], i))
    sorted_mu = [mu[i] for i in order]
    assignment = [0] * rank
    for pos, i in enumerate(order):
        assignment[i] = pos
    coeffs = {
        j: sorted_mu[j] - sorted_mu[j + 1]
        for j in range(rank - 1)
        if sorted_mu[j] != sorted_mu[j + 1]
    }
    central = sum(sorted_mu, Fraction(0)) / rank
    chi = Character.make(RootSystemSpec("A", rank - 1), coeffs, central)
    lhs = degree_via_character(chi, pair.bundle.degrees, assignment)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Sweep harness


# The most instances one sweep checks: a budgeted sweep draws and checks
# budget instances, and its subsample costs memory in proportion before the
# first check.
SWEEP_INSTANCE_CAP = 10 ** 6


class DocumentError(ValueError):
    """A refused request, tagged with the document field it names."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python, but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_twist(genus, twist_ell) -> None:
    """The genus and twist fields, as pair and sweep documents take them."""
    if not (_is_int(genus) and genus >= 0):
        raise DocumentError("genus", "expected a non-negative integer")
    if not _is_int(twist_ell):
        raise DocumentError("twist", 'expected an integer or "K"')


@dataclass(frozen=True)
class SweepSpec:
    """A sweep request, admitted on construction by the rules of a sweep
    document: the first field that breaks one raises DocumentError naming
    the document's field (an alpha of another type than int, str or
    Fraction raises resolve_alpha's TypeError).  parsed_alphas holds per
    alpha its report label and its value, None for the slope "mu".  The
    instance cap of an unbudgeted spec needs the exact count of the degree
    lists, so _draw_indices checks it when the sweep starts."""
    group: Group
    ranks: Tuple[int, ...]
    degree_min: int = -2
    degree_max: int = 2
    twist_ell: int = 2
    genus: int = 0
    alphas: Tuple[Union[int, str, Fraction], ...] = (0,)
    budget: Optional[int] = None
    parsed_alphas: Tuple[Tuple[str, Optional[Fraction]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            group = Group(self.group)
        except ValueError:
            raise DocumentError("group", f"unknown group {self.group!r}") from None
        ranks, alphas, budget = self.ranks, self.alphas, self.budget
        if not (isinstance(ranks, (list, tuple)) and all(_is_int(r) and r >= 1 for r in ranks)):
            raise DocumentError("ranks", "expected a list of positive integers")
        if not ranks or len(set(ranks)) < len(ranks):
            raise DocumentError("ranks", "expected a non-empty list of distinct ranks")
        if any(r > MAX_RANK for r in ranks):
            raise DocumentError("ranks", f"rank {max(ranks)} is above the cap of {MAX_RANK}")
        if group is Group.SP2NC and any(r % 2 for r in ranks):
            raise DocumentError("ranks", "Sp2nC ranks are even (rank 2n)")
        if not (isinstance(alphas, (list, tuple)) and alphas):
            raise DocumentError("alphas", "expected a non-empty list")
        parsed = []
        for alpha in alphas:
            try:
                parsed.append((str(alpha), _alpha_value(group, alpha)))
            except NonzeroAlphaUnsupported as exc:
                raise DocumentError("alphas", str(exc)) from None
            except ValueError as exc:
                raise DocumentError("alphas", str(exc)) from None
        if len({a for _, a in parsed}) < len(parsed):  # every "mu" parses to None
            raise DocumentError("alphas", "expected a list of distinct alphas")
        if budget is not None and not (_is_int(budget) and budget >= 1):
            raise DocumentError("budget", "expected a positive integer")
        if budget is not None and budget > SWEEP_INSTANCE_CAP:
            raise DocumentError("budget", f"{budget} is above the cap of {SWEEP_INSTANCE_CAP}")
        _check_twist(self.genus, self.twist_ell)
        lo, hi = self.degree_min, self.degree_max
        for name, value in (("degree_min", lo), ("degree_max", hi)):
            if not _is_int(value):
                raise DocumentError(name, "expected an integer")
            if abs(value) >= INT_BOUND:
                raise DocumentError(name, f"a degree has at most {ALPHA_DIGITS} digits")
        if lo > hi:
            raise DocumentError("degree_max", f"must be at least degree_min={lo}")
        for rank in ranks:
            if degree_list_count(group, lo, hi, rank, SWEEP_INSTANCE_CAP) > SWEEP_INSTANCE_CAP:
                raise DocumentError("degree_max", f"rank {rank} lists more than "
                                    f"{SWEEP_INSTANCE_CAP} degree tuples in the window")
        for name, value in (("group", group), ("ranks", tuple(ranks)),
                            ("alphas", tuple(alphas)), ("parsed_alphas", tuple(parsed))):
            object.__setattr__(self, name, value)


def _unrank_subset(slots: Sequence, index: int) -> Tuple:
    """The index-th subset of slots in size-then-lex order: the order in
    which itertools.combinations yields the subsets of each size, smallest
    size first."""
    n = len(slots)
    r = 0
    while index >= math.comb(n, r):
        index -= math.comb(n, r)
        r += 1
    out = []
    start = 0
    for remaining in range(r, 0, -1):
        for c in range(start, n):
            block = math.comb(n - 1 - c, remaining - 1)
            if index < block:
                out.append(slots[c])
                start = c + 1
                break
            index -= block
    return tuple(out)


def _degree_draws(group: Group, lo: int, hi: int, rank: int) -> Tuple[int, int, int]:
    """The multisets a window's degree lists are drawn from, as (top, width,
    size): size-multisets of the width values top, top - 1, ..., whole
    non-increasing lists, or for paired groups their upper halves (with
    reversal pairing d_{sigma(i)} = -d_i).  The width is computed, as a
    window may be wider than a range's len can count (sys.maxsize)."""
    if group in PAIRED:
        top = min(hi, -lo)
        if top < 0:  # no paired list fits a window without 0: draw none
            return 0, 0, 1
        return top, top + 1, rank // 2
    return hi, hi - lo + 1, rank


def degree_list_count(group: Group, lo: int, hi: int, rank: int, limit: int) -> int:
    """How many multisets a window's degree lists are drawn from (SLnC: before
    its sum filter), counted without drawing them; any count above limit may
    read limit + 1."""
    _, width, size = _degree_draws(group, lo, hi, rank)
    k = min(size, width - 1)
    if k < 0:
        return int(size == 0)
    # C(n, k) with k <= n / 2 is at least 2**k, so a large k is over the limit
    return math.comb(width + size - 1, k) if k < limit.bit_length() else limit + 1


# A window's degree lists are counted and unranked, never listed or held: a
# window may list up to 10^6 of them.


def _degree_list_total(group: Group, lo: int, hi: int, rank: int) -> int:
    """How many degree lists the window has, in closed form."""
    if group is Group.SLNC:
        return _sum_zero_count(lo, rank, hi, 0)
    _, width, size = _degree_draws(group, lo, hi, rank)
    return math.comb(width + size - 1, size)


def _degree_list_at(group: Group, lo: int, hi: int, rank: int, index: int) -> Tuple[int, ...]:
    """The window's index-th degree list in sweep order, unranked directly.
    The order is that of the non-increasing lists as
    combinations_with_replacement draws them from hi down to lo: SLnC's
    those summing to 0, and the paired groups' their upper halves completed
    by the pairing."""
    if group is Group.SLNC:
        return _sum_zero_list_at(lo, hi, rank, index)
    a = _multiset_at(*_degree_draws(group, lo, hi, rank), index)
    return _paired_list(a, rank) if group in PAIRED else a


def _paired_list(half: Tuple[int, ...], rank: int) -> Tuple[int, ...]:
    """A paired group's degree list from its upper half."""
    return half + (0,) * (rank % 2) + tuple(-x for x in reversed(half))


def _multiset_at(top: int, width: int, size: int, index: int) -> Tuple[int, ...]:
    """The index-th size-multiset of the width values top, top - 1, ... in
    combinations_with_replacement order.  C(m - c + r - 1, r) of the
    r-multisets left start at position c or later, so the next position is
    the last c where at most index of them start earlier; a binary search
    finds it.  The last value needs none: one 1-multiset starts at each
    position from start on."""
    m, out, start = width, [], 0
    for r in range(size, 1, -1):
        left = math.comb(m - start + r - 1, r) - index
        c = start - 1 + bisect.bisect_left(range(start, m), True,
                                           key=lambda c: math.comb(m - c + r - 1, r) < left)
        index -= math.comb(m - start + r - 1, r) - math.comb(m - c + r - 1, r)
        out.append(top - c)
        start = c
    if size:
        out.append(top - start - index)
    return tuple(out)


def _sum_zero_range(lo: int, rest: int, top: int, need: int) -> range:
    """The values v, from the largest, that may come next in a non-increasing
    list of rest values in [lo, top] summing to need: those that leave the
    rest - 1 later values in [lo, v] able to make up need - v,
    lo * (rest - 1) <= need - v <= v * (rest - 1)."""
    return range(min(top, need - (rest - 1) * lo), max(lo, -(-need // rest)) - 1, -1)


@lru_cache(maxsize=1 << 12)  # the widest window a sweep admits needs about 2,100
def _sum_zero_count(lo: int, rest: int, top: int, need: int) -> int:
    """How many non-increasing lists of rest values in [lo, top] sum to need:
    the SLnC degree lists that _degree_list_at unranks, from that prefix
    state.  Kept: the unranking of every index of a sweep, and of later
    sweeps with the same lower bound, asks the same counts again."""
    if rest == 0:
        return int(need == 0)
    values = _sum_zero_range(lo, rest, top, need)
    if rest <= 2:  # every value of the range has exactly one completion
        return len(values)
    return sum(_sum_zero_count(lo, rest - 1, v, need - v) for v in values)


def _sum_zero_list_at(lo: int, hi: int, rank: int, index: int) -> Tuple[int, ...]:
    """The index-th non-increasing list of rank values in [lo, hi] summing
    to 0, in _degree_list_at's order: per position the value whose block of
    completions holds the index."""
    out, top, need = [], hi, 0
    for rest in range(rank, 0, -1):
        for v in _sum_zero_range(lo, rest, top, need):
            block = _sum_zero_count(lo, rest - 1, v, need - v)
            if index < block:
                break
            index -= block
        out.append(v)
        top, need = v, need - v
    return tuple(out)


# Each group's pair constructor by name, looked up in this module when a
# sweep's pattern table is filled, so a wrapper set here (a tracer, a test)
# sees every pattern built.
_MAKERS = {Group.SP2NC: "symplectic_pair", Group.SLNC: "sl_pair",
           Group.SP2NR: "sp_real_pair", Group.GLNR: "orthogonal_pair"}

Orbit = Tuple[Tuple[int, int], ...]


@lru_cache(maxsize=64)
def _slots(group: Group, rank: int) -> Tuple[Tuple[Orbit, ...], ...]:
    """Per pattern axis of a rank's instances (one per entry set the
    group's constructor takes: Sp2nR beta, then gamma), the entry orbits a
    pattern switches on or off together: every SLnC entry alone; for the
    paired groups the orbits of (t,s) -> (sigma(s), sigma(t)) under the
    reversal sigma; for Sp2nR the orbits {(a,b), (b,a)}.  Orbits are in
    order of their least entry, and list their entries in order."""
    if group is Group.SLNC:
        return (tuple(((t, s),) for t in range(rank) for s in range(rank)),)
    if group is Group.SP2NR:
        sym = tuple(((a, a),) if a == b else ((a, b), (b, a))
                    for a in range(rank) for b in range(a, rank))
        return sym, sym
    sigma = reversal(rank)
    return (tuple(sorted({tuple(sorted({(t, s), (sigma[s], sigma[t])}))
                          for t in range(rank) for s in range(rank)})),)


def _pattern_count(group: Group, rank: int) -> int:
    """How many patterns a rank's instances run through per degree list."""
    return 2 ** sum(map(len, _slots(group, rank)))


@lru_cache(maxsize=1 << 16)  # as many patterns as _cone_key holds
def _pattern_at(group: Group, rank: int, index: int) -> Tuple[HiggsPattern, Tuple[int, ...]]:
    """The index-th pattern of a rank's instances and its cone key, built
    once per process and shared by all of them: index is a mixed-radix
    number, one digit (a subset of orbits) per axis, the last axis fastest.
    The group's constructor builds it on the zero degree list, so
    validate_pair checks it once; no rule of that check reads the degrees."""
    entries = []
    for orbits in reversed(_slots(group, rank)):
        index, digit = divmod(index, 2 ** len(orbits))
        entries.append(set(itertools.chain.from_iterable(_unrank_subset(orbits, digit))))
    make = globals()[_MAKERS[group]]
    pair = make((0,) * rank, Twist(0, 0), *reversed(entries))
    return pair.pattern, _cone_key(group, rank, pair.bundle.pairing, pair.pattern)


def _count_for_rank(spec: SweepSpec, rank: int) -> int:
    return _degree_list_total(spec.group, spec.degree_min, spec.degree_max, rank) * \
        _pattern_count(spec.group, rank)


def count_instances(spec: SweepSpec) -> int:
    total = sum(_count_for_rank(spec, r) for r in spec.ranks)
    return min(total, spec.budget) if spec.budget is not None else total


def _draw(total: int, k: int) -> List[int]:
    """sorted(random.Random(0).sample(range(total), k)).  A range longer than
    sys.maxsize has no len, so there the distinct draws sample makes for any
    population above its set size are made here."""
    rng = random.Random(0)
    if total <= sys.maxsize:
        return sorted(rng.sample(range(total), k))
    picked = set()
    while len(picked) < k:
        picked.add(rng.randrange(total))
    return sorted(picked)


def _draw_indices(spec: SweepSpec) -> List[Tuple[int, Iterator[int]]]:
    """Per rank of spec, the indices of its instances a sweep checks, sorted
    and counted from the rank's first.  A rank's instances run through its
    degree lists in _degree_list_at order, and per list through every
    pattern in _pattern_at order.  A budgeted spec with more draws a
    deterministic subsample, so its time and memory scale with the budget,
    not with the window; an unbudgeted spec takes every index, as a range,
    not a list, and above SWEEP_INSTANCE_CAP is refused on the call, before
    any index."""
    counts = [_count_for_rank(spec, r) for r in spec.ranks]
    total = sum(counts)
    if spec.budget is not None and total > spec.budget:
        draws = _draw(total, spec.budget)
    elif total > SWEEP_INSTANCE_CAP:  # a budgeted total is at most the budget
        raise DocumentError(
            "budget", f"spec yields {total} instances, above the cap of "
            f"{SWEEP_INSTANCE_CAP}; pass a budget to subsample")
    else:
        draws = range(total)
    return [(r, map(operator.sub, draws[bisect.bisect_left(draws, start):
                                         bisect.bisect_left(draws, start + count)],
                    itertools.repeat(start)))
            for r, start, count in zip(spec.ranks, itertools.accumulate(counts, initial=0),
                                       counts)]


def _pair_key(pair: HiggsPair) -> dict:
    pat = pair.pattern
    return {
        "group": pair.group.value,
        "degrees": list(pair.bundle.degrees),
        "endo": sorted(pat.endo),
        "beta": sorted(pat.beta),
        "gamma": sorted(pat.gamma),
    }


def cert_json(cert: Optional[Certificate], base: int) -> Optional[dict]:
    """A certificate as JSON, its summand indices counted from base: 0 in
    sweep reports, 1 in documents."""
    if cert is None:
        return None
    out = {"kind": cert.kind}
    if cert.flag is not None:
        out["flag"] = [[i + base for i in step] for step in cert.flag]
    if cert.weights is not None:
        out["weights"] = list(cert.weights)
    if cert.subset is not None:
        out["subset"] = [i + base for i in cert.subset]
    if cert.chain is not None:
        out["chain"] = [[i + base for i in part] for part in cert.chain]
    if cert.entry is not None:
        family, a, b = cert.entry
        out["entry"] = [family, a + base, b + base]
    if cert.value is not None:
        out["value"] = str(cert.value)
    return out


def _agreement_matrix() -> Dict[Tuple[bool, bool], int]:
    """A count per (general, simplified) reading, every one from 0."""
    return dict.fromkeys(itertools.product((False, True), repeat=2), 0)


@dataclass
class SweepReport:
    spec: SweepSpec
    instances: int = 0
    checks: int = 0
    semi_matrix: Dict[Tuple[bool, bool], int] = field(default_factory=_agreement_matrix)
    stable_matrix: Dict[Tuple[bool, bool], int] = field(default_factory=_agreement_matrix)
    poly_matrix: Dict[Tuple[bool, bool], int] = field(default_factory=_agreement_matrix)
    mismatches: List[dict] = field(default_factory=list)
    poly_disagreements: List[dict] = field(default_factory=list)
    poly_implication_failures: List[dict] = field(default_factory=list)
    polystable_found: List[dict] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def agreement_ok(self) -> bool:
        return not self.mismatches

    def poly_agreement_rate(self) -> Optional[Fraction]:
        total = sum(self.poly_matrix.values())
        if total == 0:
            return None
        agree = self.poly_matrix.get((True, True), 0) + \
            self.poly_matrix.get((False, False), 0)
        return Fraction(agree, total)

    def to_json(self) -> dict:
        def mat(m):
            return {f"general={a} simplified={b}": m[(a, b)]
                    for (a, b) in sorted(m)}

        rate = self.poly_agreement_rate()
        return {
            "group": self.spec.group.value,
            "ranks": list(self.spec.ranks),
            "alphas": [str(a) for a in self.spec.alphas],
            "instances": self.instances,
            "checks": self.checks,
            "semistable_agreement": mat(self.semi_matrix),
            "stable_agreement": mat(self.stable_matrix),
            "polystable_pairs": mat(self.poly_matrix),
            "polystable_agreement_rate": None if rate is None else str(rate),
            "mismatches": self.mismatches,
            "polystable_disagreements": self.poly_disagreements,
            "polystable_implication_failures": self.poly_implication_failures,
            "elapsed_ms": self.elapsed_ms,
        }


def _decide(inputs: PairInputs, alphas: Sequence[Tuple[str, Fraction]]) -> List[tuple]:
    """Per alpha of a degree list, its label and value, both passes and the
    simplified polystable read, given the general pass, or None where the
    real symplectic read walks the flags, as a decision has no pair (on a
    pair the simplified side finds semistable and the general side not)."""
    general, simplified = GENERAL.read, SIMPLIFIED.read
    polystable = SIMPLIFIED.polystable_read
    out = []
    for label, a in alphas:
        g, s = general(inputs, a), simplified(inputs, a)
        out.append((label, a, g, s, None if s.semistable and not g.semistable else
                    s.semistable and polystable(inputs, a, None, g)))
    return out


def _names_row(readings: Sequence[tuple], collect_polystable: bool) -> bool:
    """Whether an instance with these _decide readings names its pair in a
    row: a mismatch, a polystable disagreement or implication failure, or
    a found pair.  A polystable read that walks the pair's flags (s_poly
    None) is made only on a semistable mismatch."""
    return any(gs != ss or gt != st or (gs and g_taut) != s_poly or
               collect_polystable and s_poly
               for _, _, (gs, gt, g_taut, _), (ss, st), s_poly in readings)


def _count(report: SweepReport, readings: Sequence[tuple], n: int) -> None:
    """Count n instances with these _decide readings, each polystable read
    made, into the report's totals and matrices."""
    report.instances += n
    report.checks += n * len(readings)
    for _, _, (gs, gt, g_taut, _), (ss, st), s_poly in readings:
        report.semi_matrix[gs, ss] += n
        report.stable_matrix[gt, st] += n
        if gs or ss:
            report.poly_matrix[gs and g_taut, s_poly] += n


def _count_rows(report: SweepReport, pair: HiggsPair, inputs: PairInputs,
                readings: Sequence[tuple], collect_polystable: bool) -> None:
    """Count one instance whose key's readings name a row, with its rows
    naming pair, and pair's flags walked: its polystable read where the
    key's walks them, and a certificate only for a row that reports one."""
    made = []
    for label, a, g, s, s_poly in readings:
        gs, gt, g_taut, _ = g
        ss, st = s
        g_poly = gs and g_taut
        if s_poly is None:
            s_poly = SIMPLIFIED.polystable_read(inputs, a, pair, g)
        if gs != ss or gt != st:
            report.mismatches.append({
                "pair": _pair_key(pair),
                "alpha": label,
                "general_semistable": gs,
                "simplified_semistable": ss,
                "general_stable": gt,
                "simplified_stable": st,
                "general_certificate": cert_json(
                    GENERAL.certify(inputs, a, g, pair).certificate, 0),
                "simplified_certificate": cert_json(
                    SIMPLIFIED.certify(inputs, a, s, pair).certificate, 0),
            })
        if g_poly != s_poly:
            report.poly_disagreements.append({
                "pair": _pair_key(pair),
                "alpha": label,
                "general_taut": g_poly,
                "simplified": s_poly,
                "simplified_certificate": cert_json(
                    SIMPLIFIED.refusal(inputs, a, pair).certificate
                    if ss and not s_poly else None, 0),
            })
        if s_poly and not gs:
            report.poly_implication_failures.append({"pair": _pair_key(pair), "alpha": label})
        if collect_polystable and s_poly:
            report.polystable_found.append({**_pair_key(pair), "alpha": label, "stable": gt})
        made.append((label, a, g, s, s_poly))
    _count(report, made, 1)


def _tally(report: SweepReport, table: dict) -> None:
    """Count a degree list's instances that were only tallied."""
    for _, readings, n in table.values():
        if n:
            _count(report, readings, n)


def _sweep_rank(report: SweepReport, rank: int, indices: Iterable[int],
                collect_polystable: bool) -> None:
    """Check one rank's instances at sorted indices and count them into the
    report.  Each degree list among the indices is unranked once and gets
    one bundle, one table of subset degree sums, one slope for "mu" and one
    decision table.  The table maps each cone key decided on the list to
    the inputs it was decided on, built from the list and the key with no
    pair, their _decide readings, and how many of its instances were
    tallied, counted when the next list starts; None where the readings
    name a row, so each instance with the key gets a pair, built from its
    pattern, and its rows, in index order."""
    spec = report.spec
    group, lo, hi = spec.group, spec.degree_min, spec.degree_max
    twist, count = Twist(spec.twist_ell, spec.genus), _pattern_count(group, rank)
    table: dict = {}
    last = None
    for i in indices:
        at, k = divmod(i, count)
        if at != last:
            _tally(report, table)
            degrees = _degree_list_at(group, lo, hi, rank, at)
            bundle, sums, last, table = group_bundle(group, degrees), _subset_sums(degrees), at, {}
            mu = Fraction(bundle.degree, rank)  # "mu" (a is None) is the slope, 0 outside Sp2nR
            alphas = [(label, mu if a is None else a) for label, a in spec.parsed_alphas]
        pattern, key = _pattern_at(group, rank, k)
        entry = table.get(key)
        if entry is None:
            inputs = PairInputs(group, degrees, bundle.pairing, key, sums)
            readings = _decide(inputs, alphas)
            entry = table[key] = [inputs, readings,
                                  None if _names_row(readings, collect_polystable) else 0]
        if entry[2] is None:
            _count_rows(report, HiggsPair(group, bundle, twist, pattern), entry[0], entry[1],
                        collect_polystable)
        else:
            entry[2] += 1
    _tally(report, table)


def equivalence_sweep(spec: SweepSpec, collect_polystable: bool = False) -> SweepReport:
    """Run general and simplified checkers over every instance and alpha.

    Semistable/stable verdicts must agree (mismatches are collected with
    full certificates).  Polystability agreement is probed and logged only:
    disagreements never fail the sweep, but a simplified-polystable instance
    that is not general-semistable is recorded as an implication failure.
    The instances are walked in this process, one degree list at a time.
    Each distinct (degree list, cone key) is decided once, from the list
    and the key alone, and a later instance with that key is only counted
    unless the key's readings name a row, so the decision table holds at
    most the rank's key count, and a pair is built only to name a row.
    """
    t0 = time.monotonic()
    report = SweepReport(spec)
    for rank, indices in _draw_indices(spec):
        _sweep_rank(report, rank, indices, collect_polystable)
    report.mismatches.sort(key=repr)
    report.poly_disagreements.sort(key=repr)
    report.poly_implication_failures.sort(key=repr)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report
