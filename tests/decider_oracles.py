"""Reference deciders used only by the tests: the per-flag and per-subobject
walks that read each verdict straight off the flag data and the subobjects,
with the certificate rules the library keeps (lex-least destabilising
direction, first equality witness in flag order).  The library decides the
general verdicts on one summand cone per pattern and walks flags only to
build the certificate it reports; these walks are the oracle it is compared
with."""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from splithiggs.bundle import Group, HiggsPair
from splithiggs.linalg import idot, primitive
from splithiggs.stability import (
    Certificate,
    CentralTest,
    FlagData,
    Status,
    Verdict,
    _entry_functionals,
    _int_coeffs,
)


def _is_central(w: Sequence) -> bool:
    return all(x == w[0] for x in w)


def _summand(fd: FlagData, v: Sequence) -> tuple:
    """A flag's step weights as summand weights, which a central test reads."""
    return tuple(v[j] for j in fd.steps)


def semistable_walk(data: Sequence[FlagData], alpha: Fraction) -> Verdict:
    for fd in data:
        c = _int_coeffs(fd, alpha)
        bad = [r for r in fd.rays if idot(c, r) < 0]
        for v in fd.lineality:
            val = idot(c, v)
            if val != 0:
                bad.append(primitive(v if val < 0 else [-a for a in v]))
        if bad:
            w = min(bad)
            return Verdict(Status.UNSTABLE, Certificate(
                "destabilizer", flag=fd.flag, weights=tuple(w),
                value=Fraction(idot(c, w), alpha.denominator)))
    return Verdict(Status.SEMISTABLE_ONLY)


def stable_walk(data: Sequence[FlagData], alpha: Fraction,
                central_test: Optional[CentralTest] = None) -> Verdict:
    """The stable verdict of a pair semistable_walk found semistable."""
    central = central_test or _is_central
    for fd in data:
        c = _int_coeffs(fd, alpha)
        for r in fd.rays:
            if idot(c, r) == 0 and not central(_summand(fd, r)):
                return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                    "equality_witness", flag=fd.flag, weights=tuple(r),
                    value=Fraction(0)))
        for v in fd.lineality:
            if not central(_summand(fd, v)):
                return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                    "equality_witness", flag=fd.flag,
                    weights=tuple(primitive(v)), value=Fraction(0)))
    return Verdict(Status.STABLE)


def general_walk(data: Sequence[FlagData], alpha: Fraction,
                 central_test: Optional[CentralTest] = None) -> Tuple[Verdict, Verdict]:
    semi = semistable_walk(data, alpha)
    if semi.status is Status.UNSTABLE:
        return semi, semi
    return semi, stable_walk(data, alpha, central_test)


def polystable_taut_walk(pair: HiggsPair, data: Sequence[FlagData], alpha: Fraction,
                         include_trivial: bool = False) -> Verdict:
    for fd in data:
        k = len(fd.flag)
        if k < 2 and not include_trivial:
            continue
        c = _int_coeffs(fd, alpha)
        rays0 = [r for r in fd.rays if idot(c, r) == 0]
        if not all(any(r[i] < r[i + 1] for r in rays0) for i in range(k - 1)):
            continue
        face_dirs = list(rays0) + [tuple(v) for v in fd.lineality]
        for entry, f in _entry_functionals(pair.pattern, fd.steps, k):
            if all(idot(f, v) == 0 for v in face_dirs):
                continue
            lam = [Fraction(sum(col)) for col in zip(*rays0)]
            if idot(f, lam) == 0:
                for v in fd.lineality:
                    fv = idot(f, v)
                    if fv != 0:
                        sgn = -1 if fv > 0 else 1
                        lam = [x + sgn * y for x, y in zip(lam, v)]
                        break
            return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                "equality_witness", flag=fd.flag,
                weights=tuple(primitive(lam)), entry=entry,
                value=Fraction(0)))
    return Verdict(Status.POLYSTABLE)


def simplified_walk(pair: HiggsPair, subobjects: Sequence,
                    alpha: Fraction) -> Tuple[Verdict, Verdict]:
    n, d = pair.rank, pair.bundle.degrees
    witness: Optional[Certificate] = None
    if pair.group is Group.SP2NR:
        deg_v = pair.bundle.degree
        p, q = alpha.numerator, alpha.denominator
        for chain in subobjects:
            s1, s2 = chain
            lhs = q * (deg_v - sum(d[i] for i in s1 + s2)) - p * (n - len(s1) - len(s2))
            if lhs < 0:
                unstable = Verdict(Status.UNSTABLE, Certificate(
                    "destabilizer", chain=chain, value=Fraction(lhs, q)))
                return unstable, unstable
            if lhs == 0 and witness is None and (0 < len(s1) < n or 0 < len(s2) < n):
                witness = Certificate("equality_witness", chain=chain,
                                      value=Fraction(0))
    else:
        for s in subobjects:
            deg = sum(d[i] for i in s)
            if deg > 0:
                unstable = Verdict(Status.UNSTABLE, Certificate(
                    "destabilizer", subset=s, value=Fraction(deg)))
                return unstable, unstable
            if deg == 0 and witness is None and 0 < len(s) < n:
                witness = Certificate("equality_witness", subset=s,
                                      value=Fraction(0))
    strict = Verdict(Status.STABLE) if witness is None else \
        Verdict(Status.SEMISTABLE_ONLY, witness)
    return Verdict(Status.SEMISTABLE_ONLY), strict


def simplified_polystable_walk(pair: HiggsPair, data: Sequence[FlagData],
                               subobjects: Sequence, alpha: Fraction) -> Verdict:
    if pair.group is Group.SP2NR:
        return polystable_taut_walk(pair, data, alpha, include_trivial=True)
    n, d, sigma = pair.rank, pair.bundle.degrees, pair.bundle.pairing
    for s in subobjects:
        if not 0 < len(s) < n or sum(d[i] for i in s) != 0:
            continue
        comp = set(range(n)).difference(s)
        if any(src in comp and t not in comp for (t, src) in pair.pattern.endo) or \
                (sigma is not None and any(sigma[i] in comp for i in comp)):
            return Verdict(Status.SEMISTABLE_ONLY, Certificate(
                "equality_witness", subset=s, value=Fraction(0)))
    return Verdict(Status.POLYSTABLE)
