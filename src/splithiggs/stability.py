"""Stability decision procedures and the general-vs-simplified sweep harness.

The general checker quantifies the filtration definition over all coordinate
flags: for each flag it builds the admissible weight cone, evaluates the
degree functional on extremal rays and lineality, and derives the verdict
from sign conditions.  The simplified checkers evaluate the per-group
subbundle criteria directly.  Both produce machine-checkable certificates.

Each pattern's geometry is compiled once into integer rows: per ray and
lineality vector its size term B, whether it is central, the step gaps it
widens and the entry functionals it moves; the pattern-independent part is
shared by every flag with the same cone and size jumps.  A pair adds its
degree term A per row once, and at alpha = p/q each row is decided by the
sign of q*A - p*B.  Each decider decides first and certifies after: sweeps
decide every check and build certificates only for the rows they report
(mismatches, polystable disagreements); the classification, the public
checkers and `check` build the one certificate of each verdict they return.

The strictness exemption for central directions (weights constant across all
summands) transcribes the off-center requirement of the stable clause; only
the real symplectic group has a positive-dimensional center in this family,
so the exemption is vacuous elsewhere.  Polystability at the general level
checks the tautological coordinate splitting: on every flag's degree-zero
face that contains a strictly increasing weight vector, every supported
entry functional must vanish identically on the face.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .bundle import (
    Flag,
    Group,
    HiggsPair,
    HiggsPattern,
    ModelError,
    NonzeroAlphaUnsupported,
    Twist,
    admissible_chain_pairs,
    enumerate_flags,  # perfbench/tracing.py wraps it at this name
    flag_degree_term,
    invariant_subsets,
    orthogonal_pair,
    reversal,
    sl_pair,
    sp_real_pair,
    step_index,
    summand_weights,
    symplectic_pair,
)
from .cones import ConeSpec, extremal_rays_special, lineality_space, weight_cone
from .linalg import Vector, primitive, scale
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
    kind 'splitting_witness': data certifying a positive polystable verdict.
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


_parse_alpha = lru_cache(maxsize=256)(Fraction)  # sweeps resolve each alpha per instance


def resolve_alpha(pair: HiggsPair, alpha: Union[int, str, Fraction]) -> Fraction:
    """Normalize the parameter; the symbolic value 'mu' means slope(V)."""
    if isinstance(alpha, str):
        if alpha == "mu":
            a = Fraction(pair.bundle.degree, pair.rank)
        else:
            try:
                a = _parse_alpha(alpha)
            except ValueError:
                raise ValueError(f"unknown symbolic alpha {alpha!r}") from None
    else:
        a = Fraction(alpha)
    if a != 0 and pair.group is not Group.SP2NR:
        raise NonzeroAlphaUnsupported(
            f"alpha must be 0 for group {pair.group.value}"
        )
    return a


# ---------------------------------------------------------------------------
# Per-pattern geometry, compiled into integer rows once.  Flags, cones, rays
# and lineality depend on rank, pairing and pattern alone, so every instance
# differing only in degrees shares them.  A vector v of a flag takes the
# value q*A - p*B at alpha = p/q (q > 0), with A = deg_jumps.v from the
# pair's degrees and B = size_jumps.v from the flag: the degree functional
# scaled by q, which keeps every sign.


@dataclass(frozen=True)
class FlagData:
    flag: Flag
    cone: ConeSpec
    rays: Tuple[Vector, ...]
    lineality: Tuple[Vector, ...]
    steps: Tuple[int, ...]
    deg_jumps: Tuple[int, ...]
    size_jumps: Tuple[int, ...]


class FlagRows(NamedTuple):
    """A flag's rays and lineality with their pattern-independent terms,
    shared by every flag with equal (cone, size jumps): B of each vector,
    and per ray whether it is central (constant across steps) and the
    adjacent step gaps it widens (bit i: r[i] < r[i + 1]).  Lineality
    vectors are tight on every ordering constraint, hence always central."""
    cone: ConeSpec
    rays: Tuple[Vector, ...]
    lineality: Tuple[Vector, ...]
    ray_b: Tuple[int, ...]
    lin_b: Tuple[int, ...]
    central: Tuple[bool, ...]
    gaps: Tuple[int, ...]


class PatternRows:
    """A pattern's flags, and their rays and lineality vectors laid out flag
    by flag as rows: ray row i belongs to flag ray_flag[i], lineality row j
    to flag lin_flag[j].  The entry-functional masks of the polystable test
    are compiled on its first use."""

    def __init__(self, pattern: HiggsPattern, flags: tuple):
        self.pattern = pattern
        self.flags = flags  # (flag, step index, size jumps, FlagRows) per flag
        self.ray_flag, self.ray_vec, self.ray_b = _layout(
            flags, lambda fr: (fr.rays, fr.ray_b))
        self.lin_flag, self.lin_vec, self.lin_b = _layout(
            flags, lambda fr: (fr.lineality, fr.lin_b))
        central = itertools.chain.from_iterable(fr.central for _, _, _, fr in flags)
        self.noncentral = tuple(i for i, c in enumerate(central) if not c)  # ray rows

    @cached_property
    def taut(self) -> Tuple[tuple, tuple]:
        """(ray row, flag, gaps, entries) of the rays that widen a gap or
        move an entry, bit j of entries meaning the flag's j-th entry
        functional is nonzero on the ray; and (flag, all gaps, entries moved
        by the lineality) of each flag where some entry functional is
        nonzero on a ray or a lineality vector: no other flag can fail the
        polystable test."""
        rows, flags = [], []
        start = 0
        for f, (_, steps, _, fr) in enumerate(self.flags):
            k = fr.cone.dim
            funcs = [v for _, v in _entry_functionals(self.pattern, steps, k)]
            ents = [_entry_mask(funcs, r) for r in fr.rays]
            lin_ent = 0
            for v in fr.lineality:
                lin_ent |= _entry_mask(funcs, v)
            if lin_ent or any(ents):
                rows.extend((start + j, f, g, e)
                            for j, (g, e) in enumerate(zip(fr.gaps, ents)) if g or e)
                flags.append((f, (1 << (k - 1)) - 1, lin_ent))
            start += len(fr.rays)
        return tuple(rows), tuple(flags)


def _layout(flags: tuple, pick) -> Tuple[tuple, tuple, tuple]:
    """Rows of one kind of vector, flag by flag: each row's flag, vector
    and B."""
    row_flag, row_vec, row_b = [], [], []
    for f, (_, _, _, fr) in enumerate(flags):
        vectors, bs = pick(fr)
        row_flag += [f] * len(vectors)
        row_vec += vectors
        row_b += bs
    return tuple(row_flag), tuple(row_vec), tuple(row_b)


def _entry_mask(funcs: Sequence[Sequence[int]], v: Sequence[int]) -> int:
    return sum(1 << j for j, f in enumerate(funcs) if _idot(f, v))


# (rank, pairing) -> ((flag, step index, size jumps), ...); flags do not
# depend on the group or the pattern, so Sp2nC and GLnR share the rows
_FLAG_TABLE: Dict[tuple, tuple] = {}
# (cone, size jumps) -> FlagRows, shared by every pattern
_ROWS_CACHE: Dict[tuple, FlagRows] = {}
# (group, rank, pairing, pattern) -> PatternRows
_GEOMETRY_CACHE: Dict[tuple, PatternRows] = {}


def _flags(pair: HiggsPair) -> tuple:
    key = (pair.rank, pair.bundle.pairing)
    got = _FLAG_TABLE.get(key)
    if got is None:
        got = _FLAG_TABLE[key] = tuple(
            (flag, step_index(flag, pair.rank), _size_jumps(flag))
            for flag in enumerate_flags(pair))
    return got


def _size_jumps(flag: Flag) -> Tuple[int, ...]:
    return tuple(len(flag[0]) if j == 0 else len(flag[j]) - len(flag[j - 1])
                 for j in range(len(flag)))


def _deg_jumps(flag: Flag, degrees: Sequence[int]) -> Tuple[int, ...]:
    out, prev = [], 0
    for step in flag:
        deg_step = sum(degrees[i] for i in step)
        out.append(deg_step - prev)
        prev = deg_step
    return tuple(out)


@lru_cache(maxsize=1024)
def _deg_jump_rows(rank: int, pairing, degrees: Tuple[int, ...]) -> tuple:
    """deg_jumps of every flag of the (rank, pairing) table, which the
    pattern's geometry has filled; instances of a sweep share degrees."""
    return tuple(_deg_jumps(flag, degrees) for flag, _, _ in _FLAG_TABLE[(rank, pairing)])


def _flag_rows(cone: ConeSpec, size_jumps: Tuple[int, ...]) -> FlagRows:
    key = (cone, size_jumps)
    got = _ROWS_CACHE.get(key)
    if got is None:
        rays, lin = extremal_rays_special(cone), lineality_space(cone)
        got = _ROWS_CACHE[key] = FlagRows(
            cone, rays, lin,
            tuple(_idot(size_jumps, r) for r in rays),
            tuple(_idot(size_jumps, v) for v in lin),
            tuple(all(x == r[0] for x in r) for r in rays),
            tuple(sum(1 << i for i in range(len(r) - 1) if r[i] < r[i + 1])
                  for r in rays))
    return got


def _geometry(pair: HiggsPair) -> PatternRows:
    key = (pair.group, pair.rank, pair.bundle.pairing, pair.pattern)
    got = _GEOMETRY_CACHE.get(key)
    if got is None:
        got = _GEOMETRY_CACHE[key] = PatternRows(pair.pattern, tuple(
            (flag, steps, size_jumps, _flag_rows(weight_cone(pair, flag), size_jumps))
            for flag, steps, size_jumps in _flags(pair)))
    return got


def flag_data(pair: HiggsPair) -> List[FlagData]:
    inputs = PairInputs(pair)
    return [inputs.flag_data(f) for f in range(len(inputs.geometry.flags))]


def single_flag_data(pair: HiggsPair, flag: Flag) -> FlagData:
    """flag_data for one flag of the pair, built without the other flags."""
    cone = weight_cone(pair, flag)
    return FlagData(flag, cone, extremal_rays_special(cone), lineality_space(cone),
                    step_index(flag, pair.rank),
                    _deg_jumps(flag, pair.bundle.degrees), _size_jumps(flag))


def _int_coeffs(fd: FlagData, alpha: Fraction) -> Tuple[int, ...]:
    """Degree-functional coefficients scaled by the positive denominator of
    alpha; the scaling preserves every sign condition."""
    p, q = alpha.numerator, alpha.denominator
    return tuple(q * dd - p * nn for dd, nn in zip(fd.deg_jumps, fd.size_jumps))


def _idot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def _entry_functionals(pattern: HiggsPattern, steps: Sequence[int], k: int):
    """Step-space functionals of supported entries, oriented so that
    admissibility is functional <= 0."""
    for (t, s) in sorted(pattern.endo):
        jt, js = steps[t], steps[s]
        if jt != js:
            v = [0] * k
            v[jt] += 1
            v[js] -= 1
            yield ("endo", t, s), tuple(v)
    for (a, b) in sorted(pattern.beta):
        v = [0] * k
        v[steps[a]] += 1
        v[steps[b]] += 1
        yield ("beta", a, b), tuple(v)
    for (a, b) in sorted(pattern.gamma):
        v = [0] * k
        v[steps[a]] -= 1
        v[steps[b]] -= 1
        yield ("gamma", a, b), tuple(v)


# ---------------------------------------------------------------------------
# Deciders.  Each splits in two: decide returns the status and the index of
# the first flag, subset or chain that fires, from integer sign tests alone;
# certify builds that one certificate.  Sweeps decide and certify only the
# rows they report; the classification and the public checkers certify.


@dataclass
class PairInputs:
    """Both deciders' inputs for one pair, fetched on first use and shared by
    every alpha and verdict: the general decider's compiled pattern rows and
    their A terms, the simplified one's invariant subsets (Sp2nR:
    admissible chains S1 <= S2) and their degree sums."""
    pair: HiggsPair
    _values: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def geometry(self) -> PatternRows:
        return _geometry(self.pair)

    @cached_property
    def deg_jumps(self) -> Tuple[Tuple[int, ...], ...]:
        self.geometry  # fills the flag table
        return _deg_jump_rows(self.pair.rank, self.pair.bundle.pairing,
                              self.pair.bundle.degrees)

    @cached_property
    def a_terms(self) -> Tuple[List[int], List[int]]:
        """A = deg_jumps.v of every ray row and every lineality row."""
        g, dj = self.geometry, self.deg_jumps
        return ([sum(map(operator.mul, dj[f], v)) for f, v in zip(g.ray_flag, g.ray_vec)],
                [sum(map(operator.mul, dj[f], v)) for f, v in zip(g.lin_flag, g.lin_vec)])

    def values(self, alpha: Fraction) -> Tuple[List[int], List[int]]:
        """q*A - p*B of every ray row and every lineality row."""
        p, q = alpha.numerator, alpha.denominator
        got = self._values.get((p, q))
        if got is None:
            ray_a, lin_a = self.a_terms
            if p == 0:
                got = ray_a, lin_a
            else:
                g = self.geometry
                got = ([q * a - p * b for a, b in zip(ray_a, g.ray_b)],
                       [q * a - p * b for a, b in zip(lin_a, g.lin_b)])
            self._values[(p, q)] = got
        return got

    def flag_data(self, f: int) -> FlagData:
        flag, steps, size_jumps, fr = self.geometry.flags[f]
        return FlagData(flag, fr.cone, fr.rays, fr.lineality, steps,
                        self.deg_jumps[f], size_jumps)

    @cached_property
    def subobjects(self) -> list:
        if self.pair.group is Group.SP2NR:
            return admissible_chain_pairs(self.pair)
        return invariant_subsets(self.pair)

    @cached_property
    def sums(self) -> Tuple[List[int], List[int], List[bool]]:
        """Per subobject, (A, B, proper) with value q*A - p*B negative
        exactly when it destabilises: Sp2nR chains deg V - deg S1 - deg S2
        and n - |S1| - |S2|; subsets -deg S and 0."""
        pair = self.pair
        n, d = pair.rank, pair.bundle.degrees
        if pair.group is Group.SP2NR:
            deg_v = pair.bundle.degree
            return ([deg_v - sum(d[i] for i in s1 + s2) for s1, s2 in self.subobjects],
                    [n - len(s1) - len(s2) for s1, s2 in self.subobjects],
                    [0 < len(s1) < n or 0 < len(s2) < n for s1, s2 in self.subobjects])
        return ([-sum(d[i] for i in s) for s in self.subobjects],
                [0] * len(self.subobjects),
                [0 < len(s) < n for s in self.subobjects])


class Decision(NamedTuple):
    """UNSTABLE, SEMISTABLE_ONLY or STABLE, and the flag, subset or chain
    that decides it: the destabilising one, or the first carrying an
    equality witness; None for STABLE."""
    status: Status
    at: Optional[int] = None


CentralTest = Callable[[Sequence[int], Flag], bool]


def _general_decide(inputs: PairInputs, alpha: Fraction,
                    central_test: Optional[CentralTest] = None) -> Decision:
    g = inputs.geometry
    ray_vals, lin_vals = inputs.values(alpha)
    # semistable: no ray value below zero, every lineality value zero
    first = next((g.ray_flag[i] for i, v in enumerate(ray_vals) if v < 0), len(g.flags))
    first = next((g.lin_flag[j] for j, v in enumerate(lin_vals)
                  if v and g.lin_flag[j] < first), first)
    if first < len(g.flags):
        return Decision(Status.UNSTABLE, first)
    # stable: no non-central ray at value zero, and no lineality vector a
    # custom central test rejects (every lineality vector is central)
    if central_test is None:
        first = next((g.ray_flag[i] for i in g.noncentral if ray_vals[i] == 0),
                     len(g.flags))
    else:
        flags = g.flags
        first = next((f for f, v, val in zip(g.ray_flag, g.ray_vec, ray_vals)
                      if val == 0 and not central_test(v, flags[f][0])), len(flags))
        first = next((f for f, v in zip(g.lin_flag, g.lin_vec)
                      if f < first and not central_test(v, flags[f][0])), first)
    if first < len(g.flags):
        return Decision(Status.SEMISTABLE_ONLY, first)
    return Decision(Status.STABLE)


def _general_certify(inputs: PairInputs, alpha: Fraction, decision: Decision,
                     central_test: Optional[CentralTest] = None) -> Verdict:
    """The verdict of a decision, with the certificate on its flag: the
    lex-least destabilising ray or lineality direction, or the first
    non-central direction at value zero."""
    if decision.at is None:
        return Verdict(decision.status)
    fd = inputs.flag_data(decision.at)
    c = _int_coeffs(fd, alpha)
    if decision.status is Status.UNSTABLE:
        bad = [r for r in fd.rays if _idot(c, r) < 0]
        for v in fd.lineality:
            val = _idot(c, v)
            if val != 0:
                bad.append(primitive(v if val < 0 else scale(v, -1)))
        w = min(bad)
        return Verdict(Status.UNSTABLE, Certificate(
            "destabilizer", flag=fd.flag, weights=tuple(w),
            value=Fraction(_idot(c, w), alpha.denominator)))
    central = inputs.geometry.flags[decision.at][3].central
    for r, r_central in zip(fd.rays, central):
        if _idot(c, r) == 0 and not (central_test(r, fd.flag) if central_test else r_central):
            return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                "equality_witness", flag=fd.flag, weights=tuple(r), value=Fraction(0)))
    v = next(v for v in fd.lineality if not central_test(v, fd.flag))
    return Verdict(Status.SEMISTABLE_ONLY, Certificate(
        "equality_witness", flag=fd.flag, weights=tuple(primitive(v)), value=Fraction(0)))


def _taut_decide(inputs: PairInputs, alpha: Fraction,
                 include_trivial: bool = False) -> Optional[int]:
    """The first flag whose degree-zero face contains a strictly increasing
    weight vector and moves a supported entry functional; None when there
    is none (polystable).  The face contains a strictly increasing vector
    iff every adjacent step gap is widened by some face ray (lineality
    vectors are constant across steps and cannot widen a gap)."""
    rows, flags = inputs.geometry.taut
    if not flags:
        return None
    ray_vals = inputs.values(alpha)[0]
    gaps = [0] * len(inputs.geometry.flags)
    ents = gaps[:]
    for i, f, g, e in rows:
        if ray_vals[i] == 0:
            gaps[f] |= g
            ents[f] |= e
    for f, full, lin_ent in flags:
        # a one-step flag only carries central directions, which the
        # off-center polystable clause does not quantify over; the real
        # symplectic graded-form criterion does include them
        if (full or include_trivial) and gaps[f] == full and (ents[f] or lin_ent):
            return f
    return None


def _taut_certify(inputs: PairInputs, alpha: Fraction, at: Optional[int]) -> Verdict:
    """An explicit witness on the flag _taut_decide found: a strictly
    increasing face weight placing the first moved entry at strictly
    negative weight."""
    if at is None:
        return Verdict(Status.POLYSTABLE)
    fd = inputs.flag_data(at)
    c = _int_coeffs(fd, alpha)
    rays0 = [r for r in fd.rays if _idot(c, r) == 0]
    face_dirs = rays0 + [tuple(v) for v in fd.lineality]
    entry, f = next((entry, f) for entry, f in
                    _entry_functionals(inputs.pair.pattern, fd.steps, len(fd.flag))
                    if any(_idot(f, v) != 0 for v in face_dirs))
    lam = [Fraction(sum(col)) for col in zip(*rays0)]
    if _idot(f, lam) == 0:
        for v in fd.lineality:
            fv = _idot(f, v)
            if fv != 0:
                sgn = -1 if fv > 0 else 1
                lam = [x + sgn * y for x, y in zip(lam, v)]
                break
    return Verdict(Status.SEMISTABLE_ONLY, Certificate(
        "equality_witness", flag=fd.flag,
        weights=tuple(primitive(lam)), entry=entry, value=Fraction(0)))


def _simplified_decide(inputs: PairInputs, alpha: Fraction) -> Decision:
    """The first destabilising subobject decides both verdicts; otherwise
    the first proper one at value zero is the equality witness against
    stability."""
    a, b, proper = inputs.sums
    p, q = alpha.numerator, alpha.denominator
    vals = a if p == 0 else [q * x - p * y for x, y in zip(a, b)]
    at = next((i for i, v in enumerate(vals) if v < 0), None)
    if at is not None:
        return Decision(Status.UNSTABLE, at)
    at = next((i for i, (v, pr) in enumerate(zip(vals, proper)) if pr and v == 0), None)
    return Decision(Status.STABLE if at is None else Status.SEMISTABLE_ONLY, at)


def _simplified_certify(inputs: PairInputs, alpha: Fraction, decision: Decision) -> Verdict:
    if decision.at is None:
        return Verdict(decision.status)
    s = inputs.subobjects[decision.at]
    key = "chain" if inputs.pair.group is Group.SP2NR else "subset"
    if decision.status is not Status.UNSTABLE:
        return Verdict(decision.status, Certificate(
            "equality_witness", **{key: s}, value=Fraction(0)))
    a, b = inputs.sums[0][decision.at], inputs.sums[1][decision.at]
    # a chain reports its value q*A - p*B over q, a subset its degree -A
    value = Fraction(alpha.denominator * a - alpha.numerator * b, alpha.denominator) \
        if key == "chain" else Fraction(-a)
    return Verdict(Status.UNSTABLE, Certificate("destabilizer", **{key: s}, value=value))


def _simplified_poly_decide(inputs: PairInputs, alpha: Fraction) -> Optional[int]:
    """Complement search for the complex/orthogonal groups: the first proper
    invariant subset of degree zero without an invariant complement (for a
    paired group, an isotropic one).  For the real symplectic group, the
    graded-form criterion realized on the coordinate splitting: the
    weight-zero test over every flag, including the one-step flag (whose
    nonzero weights the general off-center clause skips but the graded-form
    statement quantifies)."""
    pair = inputs.pair
    if pair.group is Group.SP2NR:
        return _taut_decide(inputs, alpha, include_trivial=True)
    n, sigma = pair.rank, pair.bundle.pairing
    a, _, proper = inputs.sums
    for i, s in enumerate(inputs.subobjects):
        if not proper[i] or a[i] != 0:
            continue
        comp = set(range(n)).difference(s)
        if any(src in comp and t not in comp for (t, src) in pair.pattern.endo) or \
                (sigma is not None and any(sigma[j] in comp for j in comp)):
            return i
    return None


def _simplified_poly_certify(inputs: PairInputs, alpha: Fraction,
                             at: Optional[int]) -> Verdict:
    if inputs.pair.group is Group.SP2NR:
        return _taut_certify(inputs, alpha, at)
    if at is None:
        return Verdict(Status.POLYSTABLE)
    return Verdict(Status.SEMISTABLE_ONLY, Certificate(
        "equality_witness", subset=inputs.subobjects[at], value=Fraction(0)))


class Decider(NamedTuple):
    """One side of the comparison: decide and certify its semistable and
    stable verdicts, and its polystable test, meaningful on a pair the same
    side finds semistable."""
    decide: Callable[..., Decision]
    certify: Callable[..., Verdict]
    poly_decide: Callable[[PairInputs, Fraction], Optional[int]]
    poly_certify: Callable[[PairInputs, Fraction, Optional[int]], Verdict]

    def verdicts(self, inputs: PairInputs, alpha: Fraction) -> Tuple[Verdict, Verdict]:
        """The (semistable, stable) verdicts, the same unstable verdict twice
        for an unstable pair."""
        strict = self.certify(inputs, alpha, self.decide(inputs, alpha))
        if strict.status is Status.UNSTABLE:
            return strict, strict
        return Verdict(Status.SEMISTABLE_ONLY), strict

    def polystable(self, inputs: PairInputs, alpha: Fraction) -> Verdict:
        return self.poly_certify(inputs, alpha, self.poly_decide(inputs, alpha))

    def classify(self, inputs: PairInputs, alpha: Fraction
                 ) -> Tuple[Verdict, Optional[Verdict]]:
        """The classification, and the polystable verdict it computed: only
        a strictly semistable pair is tested, else the second item is None."""
        decision = self.decide(inputs, alpha)
        if decision.status is not Status.SEMISTABLE_ONLY:
            return self.certify(inputs, alpha, decision), None
        poly = self.polystable(inputs, alpha)
        if poly.status is Status.POLYSTABLE:
            return poly, poly
        return self.certify(inputs, alpha, decision), poly


GENERAL = Decider(_general_decide, _general_certify, _taut_decide, _taut_certify)
SIMPLIFIED = Decider(_simplified_decide, _simplified_certify,
                     _simplified_poly_decide, _simplified_poly_certify)


# ---------------------------------------------------------------------------
# Public checkers: views of the decider passes on one pair


def semistable_general(pair: HiggsPair, alpha=0) -> Verdict:
    return GENERAL.verdicts(PairInputs(pair), resolve_alpha(pair, alpha))[0]


def stable_general(pair: HiggsPair, alpha=0,
                   central_test: Optional[CentralTest] = None) -> Verdict:
    inputs, a = PairInputs(pair), resolve_alpha(pair, alpha)
    return _general_certify(inputs, a, _general_decide(inputs, a, central_test), central_test)


def polystable_general_taut(pair: HiggsPair, alpha=0) -> Verdict:
    a = resolve_alpha(pair, alpha)
    inputs = PairInputs(pair)
    if GENERAL.decide(inputs, a).status is Status.UNSTABLE:
        raise PreconditionUnstable("polystability requires a semistable pair")
    return GENERAL.polystable(inputs, a)


def classify_general(pair: HiggsPair, alpha=0) -> Verdict:
    return GENERAL.classify(PairInputs(pair), resolve_alpha(pair, alpha))[0]


def semistable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    return SIMPLIFIED.verdicts(PairInputs(pair), resolve_alpha(pair, alpha))[0]


def stable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    return SIMPLIFIED.verdicts(PairInputs(pair), resolve_alpha(pair, alpha))[1]


def polystable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    """The simplified polystable test, or the simplified unstable verdict."""
    a = resolve_alpha(pair, alpha)
    inputs = PairInputs(pair)
    semi, _ = SIMPLIFIED.verdicts(inputs, a)
    return semi if semi.status is Status.UNSTABLE else SIMPLIFIED.polystable(inputs, a)


def classify_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    return SIMPLIFIED.classify(PairInputs(pair), resolve_alpha(pair, alpha))[0]


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


@dataclass(frozen=True)
class SweepSpec:
    group: Group
    ranks: Tuple[int, ...]
    degree_min: int = -2
    degree_max: int = 2
    twist_ell: int = 2
    genus: int = 0
    alphas: Tuple[Union[int, str, Fraction], ...] = (0,)
    budget: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "group", Group(self.group))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "alphas", tuple(self.alphas))


def _endo_orbits(rank: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Orbits of entries under the closure (t,s) -> (sigma(s), sigma(t))."""
    sigma = reversal(rank)
    seen = set()
    orbits = []
    for t in range(rank):
        for s in range(rank):
            if (t, s) in seen:
                continue
            orb = {(t, s), (sigma[s], sigma[t])}
            seen |= orb
            orbits.append(tuple(sorted(orb)))
    return orbits


def _subset_patterns(slots: Sequence) -> Iterator[Tuple]:
    for r in range(len(slots) + 1):
        yield from itertools.combinations(slots, r)


def _unrank_subset(slots: Sequence, index: int) -> Tuple:
    """The index-th subset of slots in size-then-lex order.

    Matches the yield order of _subset_patterns exactly, so indexed and
    streamed enumeration agree element by element.
    """
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


def _degree_draws(group: Group, lo: int, hi: int, rank: int) -> Tuple[range, int]:
    """The values and the size of the multisets _degree_lists draws: whole
    non-increasing lists, or for paired groups their upper halves (with
    reversal pairing d_{sigma(i)} = -d_i)."""
    if group in (Group.SP2NC, Group.GLNR):
        top = min(hi, -lo)
        if top < 0:  # no paired list fits a window without 0: draw none
            return range(0), 1
        return range(top, -1, -1), rank // 2
    return range(hi, lo - 1, -1), rank


def degree_list_count(group: Group, lo: int, hi: int, rank: int, limit: int) -> int:
    """How many multisets _degree_lists draws for a window (SLnC: before its
    sum filter), counted without drawing them; any count above limit may
    read limit + 1."""
    values, size = _degree_draws(group, lo, hi, rank)
    k = min(size, len(values) - 1)
    if k < 0:
        return int(size == 0)
    # C(n, k) with k <= n / 2 is at least 2**k, so a large k is over the limit
    return math.comb(len(values) + size - 1, k) if k < limit.bit_length() else limit + 1


@lru_cache(maxsize=None)
def _degree_lists(group: Group, lo: int, hi: int, rank: int) -> Tuple[Tuple[int, ...], ...]:
    draws = itertools.combinations_with_replacement(*_degree_draws(group, lo, hi, rank))
    if group in (Group.SP2NC, Group.GLNR):
        middle = (0,) if rank % 2 else ()
        return tuple(a + middle + tuple(-x for x in reversed(a)) for a in draws)
    if group is Group.SLNC:
        return tuple(t for t in draws if sum(t) == 0)
    return tuple(draws)


def _close_sym(slots: Sequence[Tuple[int, int]]) -> set:
    out = set()
    for (a, b) in slots:
        out.add((a, b))
        out.add((b, a))
    return out


def _instances_for_rank(spec: SweepSpec, rank: int) -> Iterator[HiggsPair]:
    tw = Twist(spec.twist_ell, spec.genus)
    degree_lists = _degree_lists(spec.group, spec.degree_min, spec.degree_max, rank)
    if spec.group in (Group.SP2NC, Group.GLNR):
        make = symplectic_pair if spec.group is Group.SP2NC else orthogonal_pair
        for degrees in degree_lists:
            for orbs in _subset_patterns(_endo_orbits(rank)):
                entries = set(itertools.chain.from_iterable(orbs))
                yield make(degrees, tw, entries)
    elif spec.group is Group.SLNC:
        all_entries = [(t, s) for t in range(rank) for s in range(rank)]
        for degrees in degree_lists:
            for entries in _subset_patterns(all_entries):
                yield sl_pair(degrees, tw, set(entries))
    elif spec.group is Group.SP2NR:
        sym_slots = [(a, b) for a in range(rank) for b in range(a, rank)]
        for degrees in degree_lists:
            for beta in _subset_patterns(sym_slots):
                bset = _close_sym(beta)
                for gamma in _subset_patterns(sym_slots):
                    yield sp_real_pair(degrees, tw, bset, _close_sym(gamma))
    else:  # pragma: no cover
        raise ModelError(f"unknown group {spec.group}")


def _instance_at(spec: SweepSpec, rank: int, index: int) -> HiggsPair:
    """The index-th instance of _instances_for_rank, built directly."""
    tw = Twist(spec.twist_ell, spec.genus)
    degree_lists = _degree_lists(spec.group, spec.degree_min, spec.degree_max, rank)
    if spec.group in (Group.SP2NC, Group.GLNR):
        make = symplectic_pair if spec.group is Group.SP2NC else orthogonal_pair
        orbits = _endo_orbits(rank)
        di, pi = divmod(index, 2 ** len(orbits))
        orbs = _unrank_subset(orbits, pi)
        return make(degree_lists[di], tw,
                    set(itertools.chain.from_iterable(orbs)))
    if spec.group is Group.SLNC:
        all_entries = [(t, s) for t in range(rank) for s in range(rank)]
        di, pi = divmod(index, 2 ** (rank * rank))
        return sl_pair(degree_lists[di], tw,
                       set(_unrank_subset(all_entries, pi)))
    if spec.group is Group.SP2NR:
        sym_slots = [(a, b) for a in range(rank) for b in range(a, rank)]
        m = 2 ** len(sym_slots)
        di, rest = divmod(index, m * m)
        bi, gi = divmod(rest, m)
        return sp_real_pair(degree_lists[di], tw,
                            _close_sym(_unrank_subset(sym_slots, bi)),
                            _close_sym(_unrank_subset(sym_slots, gi)))
    raise ModelError(f"unknown group {spec.group}")  # pragma: no cover


def _count_for_rank(spec: SweepSpec, rank: int) -> int:
    n_deg = len(_degree_lists(spec.group, spec.degree_min, spec.degree_max, rank))
    if spec.group in (Group.SP2NC, Group.GLNR):
        return n_deg * 2 ** len(_endo_orbits(rank))
    if spec.group is Group.SLNC:
        return n_deg * 2 ** (rank * rank)
    n_sym = 2 ** (rank * (rank + 1) // 2)
    return n_deg * n_sym * n_sym


def count_instances(spec: SweepSpec) -> int:
    total = sum(_count_for_rank(spec, r) for r in spec.ranks)
    return min(total, spec.budget) if spec.budget is not None else total


def iter_instances(spec: SweepSpec) -> Iterator[HiggsPair]:
    counts = [_count_for_rank(spec, r) for r in spec.ranks]
    total = sum(counts)
    if spec.budget is not None and total > spec.budget:
        # Deterministic subsample, materialized by direct index decoding so
        # the cost scales with the budget, not with the full instance count.
        offset = 0
        block = 0
        for idx in sorted(random.Random(0).sample(range(total), spec.budget)):
            while idx >= offset + counts[block]:
                offset += counts[block]
                block += 1
            yield _instance_at(spec, spec.ranks[block], idx - offset)
        return
    for rank in spec.ranks:
        yield from _instances_for_rank(spec, rank)


def _pair_key(pair: HiggsPair) -> dict:
    pat = pair.pattern
    return {
        "group": pair.group.value,
        "degrees": list(pair.bundle.degrees),
        "endo": sorted(pat.endo),
        "beta": sorted(pat.beta),
        "gamma": sorted(pat.gamma),
    }


def _cert_key(cert: Optional[Certificate]) -> Optional[dict]:
    if cert is None:
        return None
    out = {"kind": cert.kind}
    if cert.flag is not None:
        out["flag"] = [list(s) for s in cert.flag]
    if cert.weights is not None:
        out["weights"] = list(cert.weights)
    if cert.subset is not None:
        out["subset"] = list(cert.subset)
    if cert.chain is not None:
        out["chain"] = [list(cert.chain[0]), list(cert.chain[1])]
    if cert.entry is not None:
        out["entry"] = list(cert.entry)
    if cert.value is not None:
        out["value"] = str(cert.value)
    return out


@dataclass
class SweepReport:
    spec: SweepSpec
    instances: int = 0
    checks: int = 0
    semi_matrix: Dict[Tuple[bool, bool], int] = field(default_factory=dict)
    stable_matrix: Dict[Tuple[bool, bool], int] = field(default_factory=dict)
    poly_matrix: Dict[Tuple[bool, bool], int] = field(default_factory=dict)
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


def _sweep_one(args) -> List[tuple]:
    """Check one instance at every alpha; returns mergeable row tuples.
    Only the decisions are computed, and a certificate only for a row that
    reports one."""
    pair, alphas, collect_polystable = args
    inputs = PairInputs(pair)
    rows = []
    for alpha in alphas:
        a = resolve_alpha(pair, alpha)
        g, s = GENERAL.decide(inputs, a), SIMPLIFIED.decide(inputs, a)
        gs = g.status is not Status.UNSTABLE
        ss = s.status is not Status.UNSTABLE
        gt = g.status is Status.STABLE
        st = s.status is Status.STABLE
        mismatch = None
        if gs != ss or gt != st:
            mismatch = {
                "pair": _pair_key(pair),
                "alpha": str(alpha),
                "general_semistable": gs,
                "simplified_semistable": ss,
                "general_stable": gt,
                "simplified_stable": st,
                "general_certificate": _cert_key(
                    GENERAL.certify(inputs, a, g).certificate),
                "simplified_certificate": _cert_key(
                    SIMPLIFIED.certify(inputs, a, s).certificate),
            }
        g_poly = gs and GENERAL.poly_decide(inputs, a) is None
        s_at = SIMPLIFIED.poly_decide(inputs, a) if ss else None
        s_poly = ss and s_at is None
        disagreement = None
        if g_poly != s_poly:
            disagreement = {
                "pair": _pair_key(pair),
                "alpha": str(alpha),
                "general_taut": g_poly,
                "simplified": s_poly,
                "simplified_certificate": _cert_key(
                    None if s_at is None else SIMPLIFIED.poly_certify(inputs, a, s_at).certificate),
            }
        implication = {"pair": _pair_key(pair), "alpha": str(alpha)} \
            if (s_poly and not gs) else None
        found = None
        if collect_polystable and s_poly:
            found = {**_pair_key(pair), "alpha": str(alpha), "stable": bool(gt)}
        rows.append((gs, ss, gt, st, mismatch,
                     g_poly, s_poly, disagreement, implication, found))
    return rows


def equivalence_sweep(spec: SweepSpec, collect_polystable: bool = False,
                      jobs: int = 1) -> SweepReport:
    """Run general and simplified checkers over every instance and alpha.

    Semistable/stable verdicts must agree (mismatches are collected with
    full certificates).  Polystability agreement is probed and logged only:
    disagreements never fail the sweep, but a simplified-polystable instance
    that is not general-semistable is recorded as an implication failure.
    With jobs > 1, instances are checked by a process pool; the merged
    report is identical to the sequential one.
    """
    t0 = time.monotonic()
    report = SweepReport(spec)
    for key in itertools.product((False, True), repeat=2):
        report.semi_matrix[key] = 0
        report.stable_matrix[key] = 0
        report.poly_matrix[key] = 0
    work = ((pair, spec.alphas, collect_polystable) for pair in iter_instances(spec))
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            results = list(pool.imap(_sweep_one, work, chunksize=64))
    else:
        results = map(_sweep_one, work)
    for rows in results:
        report.instances += 1
        for (gs, ss, gt, st, mismatch,
             g_poly, s_poly, disagreement, implication, found) in rows:
            report.checks += 1
            report.semi_matrix[(gs, ss)] += 1
            report.stable_matrix[(gt, st)] += 1
            if mismatch is not None:
                report.mismatches.append(mismatch)
            if gs or ss:
                report.poly_matrix[(g_poly, s_poly)] += 1
            if disagreement is not None:
                report.poly_disagreements.append(disagreement)
            if implication is not None:
                report.poly_implication_failures.append(implication)
            if found is not None:
                report.polystable_found.append(found)
    report.mismatches.sort(key=repr)
    report.poly_disagreements.sort(key=repr)
    report.poly_implication_failures.sort(key=repr)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report
