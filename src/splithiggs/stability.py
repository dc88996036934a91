"""Stability decision procedures and the general-vs-simplified sweep harness.

The general checker quantifies the filtration definition over all coordinate
flags: for each flag it builds the admissible weight cone, evaluates the
degree functional on extremal rays and lineality, and derives the verdict
from sign conditions.  The simplified checkers evaluate the per-group
subbundle criteria directly.  Both produce machine-checkable certificates.

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
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

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


def resolve_alpha(pair: HiggsPair, alpha: Union[int, str, Fraction]) -> Fraction:
    """Normalize the parameter; the symbolic value 'mu' means slope(V)."""
    if isinstance(alpha, str):
        if alpha == "mu":
            a = Fraction(pair.bundle.degree, pair.rank)
        else:
            try:
                a = Fraction(alpha)
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
# Per-pair flag data; geometry shared across instances differing only in
# degrees (flags, cones, and rays depend on rank, pairing, and pattern alone)


@dataclass(frozen=True)
class FlagData:
    flag: Flag
    cone: ConeSpec
    rays: Tuple[Vector, ...]
    lineality: Tuple[Vector, ...]
    steps: Tuple[int, ...]
    deg_jumps: Tuple[int, ...]
    size_jumps: Tuple[int, ...]


# (rank, pairing) -> ((flag, step index, size jumps), ...); flags do not
# depend on the group or the pattern, so Sp2nC and GLnR share the rows
_FLAG_TABLE: Dict[tuple, tuple] = {}
_GEOMETRY_CACHE: Dict[tuple, tuple] = {}


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


def _geometry(pair: HiggsPair):
    key = (pair.group, pair.rank, pair.bundle.pairing, pair.pattern)
    got = _GEOMETRY_CACHE.get(key)
    if got is None:
        rows = []
        for flag, steps, size_jumps in _flags(pair):
            cone = weight_cone(pair, flag)
            rows.append((flag, cone, extremal_rays_special(cone),
                         lineality_space(cone), steps, size_jumps))
        got = tuple(rows)
        _GEOMETRY_CACHE[key] = got
    return got


def flag_data(pair: HiggsPair) -> List[FlagData]:
    d = pair.bundle.degrees
    return [FlagData(flag, cone, rays, lin, steps, _deg_jumps(flag, d), size_jumps)
            for flag, cone, rays, lin, steps, size_jumps in _geometry(pair)]


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


def _is_central(v: Sequence, flag=None) -> bool:
    return all(x == v[0] for x in v)


# ---------------------------------------------------------------------------
# General checkers


def semistable_general(pair: HiggsPair, alpha=0) -> Verdict:
    a = resolve_alpha(pair, alpha)
    return _semistable(flag_data(pair), a)


def _semistable(data: Sequence[FlagData], alpha: Fraction) -> Verdict:
    for fd in data:
        c = _int_coeffs(fd, alpha)
        bad = [r for r in fd.rays if _idot(c, r) < 0]
        for v in fd.lineality:
            val = _idot(c, v)
            if val != 0:
                bad.append(primitive(v if val < 0 else scale(v, -1)))
        if bad:
            w = min(bad)
            return Verdict(Status.UNSTABLE, Certificate(
                "destabilizer", flag=fd.flag, weights=tuple(w),
                value=Fraction(_idot(c, w), alpha.denominator)))
    return Verdict(Status.SEMISTABLE_ONLY)


CentralTest = Callable[[Sequence[int], Flag], bool]


def stable_general(pair: HiggsPair, alpha=0,
                   central_test: Optional[CentralTest] = None) -> Verdict:
    a = resolve_alpha(pair, alpha)
    return _stable(flag_data(pair), a, central_test)


def _stable(data: Sequence[FlagData], alpha: Fraction,
            central_test: Optional[CentralTest] = None,
            semi: Optional[Verdict] = None) -> Verdict:
    semi = semi or _semistable(data, alpha)
    if semi.status is Status.UNSTABLE:
        return semi
    central = central_test or _is_central
    for fd in data:
        c = _int_coeffs(fd, alpha)
        for r in fd.rays:
            if _idot(c, r) == 0 and not central(r, fd.flag):
                return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                    "equality_witness", flag=fd.flag, weights=tuple(r),
                    value=Fraction(0)))
        # lineality directions are tight on every ordering constraint, hence
        # constant across steps; with the default central test they are
        # exempt, but a custom test may reject them
        for v in fd.lineality:
            if not central(v, fd.flag):
                return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                    "equality_witness", flag=fd.flag,
                    weights=tuple(primitive(v)), value=Fraction(0)))
    return Verdict(Status.STABLE)


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


def polystable_general_taut(pair: HiggsPair, alpha=0) -> Verdict:
    a = resolve_alpha(pair, alpha)
    data = flag_data(pair)
    if _semistable(data, a).status is Status.UNSTABLE:
        raise PreconditionUnstable("polystability requires a semistable pair")
    return _polystable_taut(pair, data, a)


def _polystable_taut(pair: HiggsPair, data: Sequence[FlagData],
                     alpha: Fraction, include_trivial: bool = False) -> Verdict:
    for fd in data:
        k = len(fd.flag)
        if k < 2 and not include_trivial:
            # a one-step flag only carries central directions, which the
            # off-center polystable clause does not quantify over; the real
            # symplectic graded-form criterion does include them
            continue
        c = _int_coeffs(fd, alpha)
        rays0 = [r for r in fd.rays if _idot(c, r) == 0]
        # the degree-zero face contains a strictly increasing weight vector
        # iff every adjacent step gap is widened by some face ray (lineality
        # vectors are constant across steps and cannot widen a gap)
        if not all(any(r[i] < r[i + 1] for r in rays0) for i in range(k - 1)):
            continue
        face_dirs = list(rays0) + [tuple(v) for v in fd.lineality]
        for entry, f in _entry_functionals(pair.pattern, fd.steps, k):
            if all(_idot(f, v) == 0 for v in face_dirs):
                continue
            # explicit witness: a strictly increasing face weight placing
            # this entry at strictly negative weight
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
                weights=tuple(primitive(lam)), entry=entry,
                value=Fraction(0)))
    return Verdict(Status.POLYSTABLE)


def classify_general(pair: HiggsPair, alpha=0) -> Verdict:
    a = resolve_alpha(pair, alpha)
    data = flag_data(pair)
    semi = _semistable(data, a)
    if semi.status is Status.UNSTABLE:
        return semi
    strict = _stable(data, a, semi=semi)
    if strict.status is Status.STABLE:
        return strict
    poly = _polystable_taut(pair, data, a)
    if poly.status is Status.POLYSTABLE:
        return poly
    return strict


# ---------------------------------------------------------------------------
# Simplified (per-group) checkers


def _deg(pair: HiggsPair, subset: Sequence[int]) -> int:
    d = pair.bundle.degrees
    return sum(d[i] for i in subset)


def semistable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    a = resolve_alpha(pair, alpha)
    if pair.group is Group.SP2NR:
        return _sp_real_chain_check(pair, a, strict=False)
    for s in invariant_subsets(pair):
        if _deg(pair, s) > 0:
            return Verdict(Status.UNSTABLE, Certificate(
                "destabilizer", subset=s, value=Fraction(_deg(pair, s))))
    return Verdict(Status.SEMISTABLE_ONLY)


def stable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    a = resolve_alpha(pair, alpha)
    if pair.group is Group.SP2NR:
        return _sp_real_chain_check(pair, a, strict=True)
    semi = semistable_simplified(pair, alpha)
    if semi.status is Status.UNSTABLE:
        return semi
    full = tuple(range(pair.rank))
    for s in invariant_subsets(pair):
        if not s or s == full:
            continue
        if _deg(pair, s) == 0:
            return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                "equality_witness", subset=s, value=Fraction(0)))
    return Verdict(Status.STABLE)


def _sp_real_chain_check(pair: HiggsPair, alpha: Fraction, strict: bool,
                         chains=None) -> Verdict:
    n = pair.rank
    d = pair.bundle.degrees
    deg_v = pair.bundle.degree
    p, q = alpha.numerator, alpha.denominator
    if chains is None:
        chains = admissible_chain_pairs(pair)
    best_eq: Optional[Certificate] = None
    for (s1, s2) in chains:
        lhs = q * (deg_v - sum(d[i] for i in s2) - sum(d[i] for i in s1)) - \
            p * (n - len(s2) - len(s1))
        if lhs < 0:
            return Verdict(Status.UNSTABLE, Certificate(
                "destabilizer", chain=(s1, s2), value=Fraction(lhs, q)))
        if strict and lhs == 0 and best_eq is None:
            if 0 < len(s1) < n or 0 < len(s2) < n:
                best_eq = Certificate("equality_witness", chain=(s1, s2),
                                      value=Fraction(0))
    if strict and best_eq is not None:
        return Verdict(Status.SEMISTABLE_ONLY, best_eq)
    return Verdict(Status.STABLE if strict else Status.SEMISTABLE_ONLY)


def polystable_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    """Complement-search polystability for the complex/orthogonal groups; for
    the real symplectic group, the graded-form criterion realized on the
    coordinate splitting: the weight-zero test over every flag, including the
    one-step flag (whose nonzero weights the general off-center clause skips
    but the graded-form statement quantifies)."""
    a = resolve_alpha(pair, alpha)
    if pair.group is Group.SP2NR:
        data = flag_data(pair)
        semi = _semistable(data, a)
        if semi.status is Status.UNSTABLE:
            return semi
        return _polystable_taut(pair, data, a, include_trivial=True)
    semi = semistable_simplified(pair, alpha)
    if semi.status is Status.UNSTABLE:
        return semi
    full = tuple(range(pair.rank))
    paired = pair.bundle.pairing is not None
    for s in invariant_subsets(pair):
        if not s or s == full or _deg(pair, s) != 0:
            continue
        comp = tuple(i for i in range(pair.rank) if i not in s)
        ok = _endo_closed(pair, comp)
        if ok and paired:
            sigma = pair.bundle.pairing
            ok = all(sigma[i] not in comp for i in comp)
        if not ok:
            return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                "equality_witness", subset=s, value=Fraction(0)))
    return Verdict(Status.POLYSTABLE)


def _endo_closed(pair: HiggsPair, subset: Sequence[int]) -> bool:
    s = set(subset)
    return all(t in s for (t, src) in pair.pattern.endo if src in s)


def classify_simplified(pair: HiggsPair, alpha=0) -> Verdict:
    semi = semistable_simplified(pair, alpha)
    if semi.status is Status.UNSTABLE:
        return semi
    strict = stable_simplified(pair, alpha)
    if strict.status is Status.STABLE:
        return strict
    poly = polystable_simplified(pair, alpha)
    if poly.status is Status.POLYSTABLE:
        return poly
    return strict


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


def _monotone_tuples(lo: int, hi: int, n: int) -> List[Tuple[int, ...]]:
    return list(itertools.combinations_with_replacement(
        range(hi, lo - 1, -1), n))


def _paired_degrees(hi: int, lo: int, rank: int) -> List[Tuple[int, ...]]:
    """Non-increasing degree lists with reversal pairing d_{sigma(i)} = -d_i."""
    half = rank // 2
    cap = min(hi, -lo)
    middle = (0,) if rank % 2 else ()
    return [a + middle + tuple(-x for x in reversed(a))
            for a in itertools.combinations_with_replacement(
                range(cap, -1, -1), half)]


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


@lru_cache(maxsize=None)
def _degree_lists(group: Group, lo: int, hi: int, rank: int) -> Tuple[Tuple[int, ...], ...]:
    if group in (Group.SP2NC, Group.GLNR):
        return tuple(_paired_degrees(hi, lo, rank))
    if group is Group.SLNC:
        return tuple(t for t in _monotone_tuples(lo, hi, rank) if sum(t) == 0)
    return tuple(_monotone_tuples(lo, hi, rank))


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
    """Check one instance at every alpha; returns mergeable row tuples."""
    pair, alphas, probe_polystable, collect_polystable = args
    data = flag_data(pair)
    chains = admissible_chain_pairs(pair) \
        if pair.group is Group.SP2NR else None
    rows = []
    for alpha in alphas:
        a = resolve_alpha(pair, alpha)
        g_semi = _semistable(data, a)
        g_stable = _stable(data, a, semi=g_semi)
        if pair.group is Group.SP2NR:
            s_semi = _sp_real_chain_check(pair, a, False, chains)
            s_stable = _sp_real_chain_check(pair, a, True, chains)
        else:
            s_semi = semistable_simplified(pair, a)
            s_stable = stable_simplified(pair, a)
        gs = g_semi.status is not Status.UNSTABLE
        ss = s_semi.status is not Status.UNSTABLE
        gt = g_stable.status is Status.STABLE
        st = s_stable.status is Status.STABLE
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
                    g_semi.certificate or g_stable.certificate),
                "simplified_certificate": _cert_key(
                    s_semi.certificate or s_stable.certificate),
            }
        probe = None
        if probe_polystable:
            g_poly = gs and (_polystable_taut(pair, data, a).status
                             is Status.POLYSTABLE)
            if pair.group is Group.SP2NR:
                # the graded-form criterion additionally quantifies the
                # one-step flag, so it can be strictly stronger than the
                # general tautological test
                sp = _polystable_taut(pair, data, a, include_trivial=True) \
                    if ss else None
            else:
                sp = polystable_simplified(pair, a) if ss else None
            s_poly = sp is not None and sp.status is Status.POLYSTABLE
            disagreement = None
            if g_poly != s_poly:
                disagreement = {
                    "pair": _pair_key(pair),
                    "alpha": str(alpha),
                    "general_taut": g_poly,
                    "simplified": s_poly,
                    "simplified_certificate": _cert_key(
                        None if sp is None else sp.certificate),
                }
            implication = {"pair": _pair_key(pair), "alpha": str(alpha)} \
                if (s_poly and not gs) else None
            found = None
            if collect_polystable and s_poly:
                found = {**_pair_key(pair), "alpha": str(alpha),
                         "stable": bool(gt)}
            probe = (g_poly, s_poly, disagreement, implication, found)
        rows.append((gs, ss, gt, st, mismatch, probe))
    return rows


def equivalence_sweep(spec: SweepSpec, collect_polystable: bool = False,
                      probe_polystable: bool = True,
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
    work = ((pair, spec.alphas, probe_polystable, collect_polystable)
            for pair in iter_instances(spec))
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            results = list(pool.imap(_sweep_one, work, chunksize=64))
    else:
        results = map(_sweep_one, work)
    for rows in results:
        report.instances += 1
        for gs, ss, gt, st, mismatch, probe in rows:
            report.checks += 1
            report.semi_matrix[(gs, ss)] += 1
            report.stable_matrix[(gt, st)] += 1
            if mismatch is not None:
                report.mismatches.append(mismatch)
            if probe is None:
                continue
            g_poly, s_poly, disagreement, implication, found = probe
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
