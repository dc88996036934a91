"""Reference deciders used only by the tests: the per-flag and per-subobject
walks that read each verdict straight off the flag data and the subobjects,
with the certificate rules the library keeps (lex-least destabilising
direction, first equality witness in flag order).  The library decides the
general verdicts on one summand cone per pattern and walks flags only to
build the certificate it reports; these walks are the oracle it is compared
with.  The per-alpha scans (general_scan, simplified_scan) read each pass
from every value at one alpha, the oracle of the passes the library reads
off each side's two walls."""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from splithiggs import stability
from splithiggs.bundle import Group, HiggsPair
from splithiggs.linalg import idot, primitive
from splithiggs.stability import (
    Certificate,
    CentralTest,
    FlagData,
    GeneralPass,
    PairInputs,
    SimplifiedPass,
    Status,
    SweepReport,
    SweepSpec,
    Verdict,
    _int_coeffs,
    _pair_key,
    cert_json,
)

from bundle_helpers import iter_instances


def _is_central(w: Sequence) -> bool:
    return all(x == w[0] for x in w)


def _summand(fd: FlagData, v: Sequence) -> tuple:
    """A flag's step weights as summand weights, which a central test reads."""
    return tuple(v[j] for j in fd.steps)


def _entry_functionals(pattern, steps: Sequence[int], k: int):
    """Step-space functionals of supported entries, oriented so that
    admissibility is functional <= 0: the oracle's own copy of the normals
    cones.entry_normals lists, not primitive, and with no endo entry inside
    one step."""
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


def cone_products(inputs: PairInputs) -> List[int]:
    """w.d for each generator w of the summand cone."""
    return [idot(inputs.degrees, w) for w in inputs.summand_cone().generators]


def subobject_products(inputs: PairInputs) -> List[int]:
    """A of each subobject, T[full] - T[s1] - T[s2] off the subset sums T."""
    s, t = inputs.subobjects(), inputs.subset_sums()
    return [t[-1] - t[x] - t[y] for x, y in zip(s.s1, s.s2)]


def general_scan(inputs: PairInputs, alpha: Fraction) -> GeneralPass:
    """The general pass by one scan of the summand cone's generator values
    q*(w.d) - p*sum(w) at alpha: unstable at the first negative value, else
    read off the union of the bits of the generators at value zero."""
    c, products = inputs.summand_cone(), cone_products(inputs)
    p, q = alpha.numerator, alpha.denominator
    bits = 0
    for x, b, k in zip(products, c.sums, c.bits):
        v = q * x - p * b
        if v < 0:
            return GeneralPass(False, False, False, False)
        if not v:
            bits |= k
    return GeneralPass(True, not bits & 1, bits != 3, not bits & 2)


def simplified_scan(inputs: PairInputs, alpha: Fraction) -> Tuple[SimplifiedPass, Optional[int]]:
    """The simplified pass by one scan of the subobject values q*A - p*B at
    alpha, and the subobject that fires: the first destabilising one, else
    the first proper one at value zero, else None."""
    s, a = inputs.subobjects(), subobject_products(inputs)
    p, q = alpha.numerator, alpha.denominator
    values = [q * x - p * b for x, b in zip(a, s.sums)]
    at = next((i for i, v in enumerate(values) if v < 0), None)
    if at is not None:
        return SimplifiedPass(False, False), at
    at = next((i for i, v in enumerate(values) if not v and i not in s.improper), None)
    return SimplifiedPass(True, at is None), at


def sweep_one(report: SweepReport, pair: HiggsPair, alphas: Sequence[tuple],
              collect_polystable: bool) -> None:
    """Count one instance into report at every alpha of
    SweepSpec.parsed_alphas, decided on its own inputs, with its rows in
    the sweep's row order.  The deciders are looked up at their stability
    names when called, so a test that replaces one replaces it here too."""
    general, simplified = stability.GENERAL, stability.SIMPLIFIED
    inputs = PairInputs.of(pair)
    report.instances += 1
    report.checks += len(alphas)
    for label, a in alphas:
        a = Fraction(pair.bundle.degree, pair.rank) if a is None else a
        g, s = general.read(inputs, a), simplified.read(inputs, a)
        gs, gt, g_taut, _ = g
        ss, st = s
        g_poly = gs and g_taut
        s_poly = ss and simplified.polystable_read(inputs, a, pair)
        report.semi_matrix[gs, ss] += 1
        report.stable_matrix[gt, st] += 1
        if gs != ss or gt != st:
            report.mismatches.append({
                "pair": _pair_key(pair), "alpha": label,
                "general_semistable": gs, "simplified_semistable": ss,
                "general_stable": gt, "simplified_stable": st,
                "general_certificate": cert_json(
                    general.certify(inputs, a, g, pair).certificate, 0),
                "simplified_certificate": cert_json(
                    simplified.certify(inputs, a, s, pair).certificate, 0)})
        if g_poly != s_poly:
            report.poly_disagreements.append({
                "pair": _pair_key(pair), "alpha": label,
                "general_taut": g_poly, "simplified": s_poly,
                "simplified_certificate": cert_json(
                    simplified.refusal(inputs, a, pair).certificate if ss and not s_poly else None,
                    0)})
        if s_poly and not gs:
            report.poly_implication_failures.append({"pair": _pair_key(pair), "alpha": label})
        if collect_polystable and s_poly:
            report.polystable_found.append({**_pair_key(pair), "alpha": label, "stable": gt})
        if gs or ss:
            report.poly_matrix[g_poly, s_poly] += 1


def per_instance_sweep(spec: SweepSpec, collect_polystable: bool = False) -> SweepReport:
    """The report of equivalence_sweep, every instance decoded and counted
    by sweep_one, the rows sorted as the sweep sorts them."""
    report = SweepReport(spec)
    for pair in iter_instances(spec):
        sweep_one(report, pair, spec.parsed_alphas, collect_polystable)
    for rows in (report.mismatches, report.poly_disagreements, report.poly_implication_failures):
        rows.sort(key=repr)
    return report
