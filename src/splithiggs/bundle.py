"""Split-model Higgs pairs: degree lists, support patterns, coordinate flags.

A bundle is an ordered direct sum of line bundles, recorded as a non-increasing
list of integer degrees, optionally with a summand pairing realizing a
symplectic or orthogonal form.  A Higgs field is recorded only through its
support pattern: which matrix entries may be nonzero.  Flags are chains of
coordinate index subsets; with a pairing, a flag is the perpendicular
closure of an isotropic lower half and is built from it directly.  All
indices are 0-based internally.

Groups and their models:
  Sp2nC - rank 2n bundle with symplectic pairing; endomorphism pattern closed
          under (t,s) -> (sigma(s),sigma(t)).
  SLnC  - rank n bundle, degrees summing to 0; unconstrained endo pattern.
  Sp2nR - rank n bundle; two symmetric patterns (beta: V* -> V twist,
          gamma: V -> V* twist).
  GLnR  - rank n bundle with orthogonal pairing; the symmetric field is stored
          as the endomorphism obtained by composing with the form, so the
          pattern obeys the same closure rule as Sp2nC.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

Entry = Tuple[int, int]
Flag = Tuple[Tuple[int, ...], ...]


class Group(str, Enum):
    SP2NC = "Sp2nC"
    SLNC = "SLnC"
    SP2NR = "Sp2nR"
    GLNR = "GLnR"


class Form(str, Enum):
    NONE = "none"
    SYMPLECTIC = "symplectic"
    ORTHOGONAL = "orthogonal"


class ModelError(ValueError):
    pass


class PairingViolation(ModelError):
    pass


class SymmetryViolation(ModelError):
    pass


class SectionInfeasible(ModelError):
    pass


class NonzeroAlphaUnsupported(ModelError):
    pass


def reversal(k: int) -> Tuple[int, ...]:
    return tuple(k - 1 - i for i in range(k))


@dataclass(frozen=True)
class Twist:
    """Degree of the twisting line bundle, plus the curve genus."""
    ell: int
    genus: int
    is_canonical: bool = False

    def __post_init__(self):
        if self.genus < 0:
            raise ModelError("genus must be non-negative")
        if self.is_canonical and self.ell != 2 * self.genus - 2:
            raise ModelError("canonical twist needs ell = 2*genus - 2")

    @staticmethod
    def canonical(genus: int) -> "Twist":
        return Twist(2 * genus - 2, genus, True)


@dataclass(frozen=True)
class SplitBundle:
    """Ordered sum of line bundles with an optional summand pairing."""
    degrees: Tuple[int, ...]
    pairing: Optional[Tuple[int, ...]] = None
    form: Form = Form.NONE
    det_trivial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if self.pairing is not None:
            object.__setattr__(self, "pairing", tuple(int(i) for i in self.pairing))
        object.__setattr__(self, "form", Form(self.form))
        k = len(self.degrees)
        if k == 0:
            raise ModelError("need at least one summand")
        if any(a < b for a, b in zip(self.degrees, self.degrees[1:])):
            raise ModelError("degrees must be non-increasing")
        if self.det_trivial and sum(self.degrees) != 0:
            raise ModelError("det_trivial requires degrees summing to 0")
        if self.form is not Form.NONE and self.pairing is None:
            raise ModelError(f"form {self.form.value} requires a pairing")
        sigma = self.pairing
        if sigma is not None:
            if sorted(sigma) != list(range(k)) or any(sigma[sigma[i]] != i for i in range(k)):
                raise PairingViolation("pairing must be an involution of the indices")
            for i in range(k):
                if self.degrees[sigma[i]] != -self.degrees[i]:
                    raise PairingViolation(
                        f"degree of paired summand {sigma[i]} must be {-self.degrees[i]}"
                    )
            if self.form is Form.SYMPLECTIC and any(sigma[i] == i for i in range(k)):
                raise PairingViolation("symplectic pairing cannot fix a summand")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


def slope_semistable(degrees: Sequence[int]) -> bool:
    """No coordinate subbundle of larger slope: all summand degrees equal."""
    return len(set(degrees)) <= 1


def slope_stable(degrees: Sequence[int]) -> bool:
    """Every proper coordinate subbundle has smaller slope: single summand."""
    return len(degrees) == 1


@dataclass(frozen=True)
class HiggsPattern:
    """Boolean support of the Higgs field.

    kind "endo": entries (t, s) meaning a possibly-nonzero component mapping
    summand s into summand t (twisted by L).  kind "sym_pair": two symmetric
    entry sets, beta mapping the dual into the bundle and gamma the bundle
    into its dual.
    """
    kind: str
    endo: FrozenSet[Entry] = frozenset()
    beta: FrozenSet[Entry] = frozenset()
    gamma: FrozenSet[Entry] = frozenset()

    def __post_init__(self):
        if self.kind not in ("endo", "sym_pair"):
            raise ModelError("pattern kind must be 'endo' or 'sym_pair'")
        for name in ("endo", "beta", "gamma"):
            entries = getattr(self, name)
            object.__setattr__(
                self, name, frozenset((int(a), int(b)) for a, b in entries)
            )
        if self.kind == "endo" and (self.beta or self.gamma):
            raise ModelError("endo pattern cannot carry beta/gamma entries")
        if self.kind == "sym_pair" and self.endo:
            raise ModelError("sym_pair pattern cannot carry endo entries")

    @property
    def is_zero(self) -> bool:
        return not (self.endo or self.beta or self.gamma)


def endo_pattern(entries: Sequence[Entry]) -> HiggsPattern:
    return HiggsPattern("endo", endo=frozenset(entries))


def sym_pattern(beta: Sequence[Entry], gamma: Sequence[Entry]) -> HiggsPattern:
    return HiggsPattern("sym_pair", beta=frozenset(beta), gamma=frozenset(gamma))


@dataclass(frozen=True)
class HiggsPair:
    group: Group
    bundle: SplitBundle
    twist: Twist
    pattern: HiggsPattern

    def __post_init__(self):
        object.__setattr__(self, "group", Group(self.group))

    @property
    def rank(self) -> int:
        return self.bundle.rank


def symplectic_pair(degrees, twist, entries) -> HiggsPair:
    """Sp2nC pair from a full non-increasing degree list (rank 2n)."""
    bundle = SplitBundle(tuple(degrees), reversal(len(degrees)), Form.SYMPLECTIC)
    return validate_pair(HiggsPair(Group.SP2NC, bundle, twist, endo_pattern(entries)))


def sl_pair(degrees, twist, entries) -> HiggsPair:
    bundle = SplitBundle(tuple(degrees), None, Form.NONE, det_trivial=True)
    return validate_pair(HiggsPair(Group.SLNC, bundle, twist, endo_pattern(entries)))


def sp_real_pair(degrees, twist, beta, gamma) -> HiggsPair:
    bundle = SplitBundle(tuple(degrees))
    return validate_pair(HiggsPair(Group.SP2NR, bundle, twist, sym_pattern(beta, gamma)))


def orthogonal_pair(degrees, twist, entries) -> HiggsPair:
    """GLnR pair; entries are components of the field composed with the form."""
    bundle = SplitBundle(tuple(degrees), reversal(len(degrees)), Form.ORTHOGONAL)
    return validate_pair(HiggsPair(Group.GLNR, bundle, twist, endo_pattern(entries)))


_GROUP_SHAPE = {
    Group.SP2NC: (Form.SYMPLECTIC, "endo"),
    Group.SLNC: (Form.NONE, "endo"),
    Group.SP2NR: (Form.NONE, "sym_pair"),
    Group.GLNR: (Form.ORTHOGONAL, "endo"),
}


def validate_pair(pair: HiggsPair, strict_sections: bool = False) -> HiggsPair:
    """Check all structural invariants; return the pair unchanged.

    With strict_sections and genus 0, additionally require every supported
    entry to have non-negative line-bundle degree, so a nonzero section can
    exist: endo (t,s) needs ell + d_t - d_s >= 0; beta (i,j) needs
    ell + d_i + d_j >= 0; gamma (i,j) needs ell - d_i - d_j >= 0.
    """
    b, p = pair.bundle, pair.pattern
    k = b.rank
    want_form, want_kind = _GROUP_SHAPE[pair.group]
    if b.form is not want_form:
        raise ModelError(f"group {pair.group.value} requires form {want_form.value}")
    if p.kind != want_kind:
        raise ModelError(f"group {pair.group.value} requires pattern kind {want_kind}")
    if pair.group is Group.SLNC and not b.det_trivial:
        raise ModelError("SLnC requires det_trivial")
    if pair.group is Group.SP2NC and k % 2 != 0:
        raise ModelError("Sp2nC requires even rank")
    for name in ("endo", "beta", "gamma"):
        for (a, c) in getattr(p, name):
            if not (0 <= a < k and 0 <= c < k):
                raise ModelError(f"{name} entry ({a},{c}) out of range")
    sigma = b.pairing
    if sigma is not None and p.kind == "endo":
        for (t, s) in p.endo:
            if (sigma[s], sigma[t]) not in p.endo:
                raise SymmetryViolation(
                    f"endo entry ({t},{s}) requires partner ({sigma[s]},{sigma[t]})"
                )
    for name in ("beta", "gamma"):
        entries = getattr(p, name)
        for (a, c) in entries:
            if (c, a) not in entries:
                raise SymmetryViolation(f"{name} entry ({a},{c}) requires ({c},{a})")
    if strict_sections and pair.twist.genus == 0:
        ell, d = pair.twist.ell, b.degrees
        for (t, s) in p.endo:
            if ell + d[t] - d[s] < 0:
                raise SectionInfeasible(f"endo entry ({t},{s}) has degree {ell + d[t] - d[s]}")
        for (a, c) in p.beta:
            if ell + d[a] + d[c] < 0:
                raise SectionInfeasible(f"beta entry ({a},{c}) has degree {ell + d[a] + d[c]}")
        for (a, c) in p.gamma:
            if ell - d[a] - d[c] < 0:
                raise SectionInfeasible(f"gamma entry ({a},{c}) has degree {ell - d[a] - d[c]}")
    return pair


# ---------------------------------------------------------------------------
# Coordinate flags


def _subsets_between(lo: FrozenSet[int], hi: FrozenSet[int]) -> Iterator[FrozenSet[int]]:
    """All sets S with lo < S <= hi (strict at the bottom)."""
    extra = sorted(hi - lo)
    for r in range(1, len(extra) + 1):
        for combo in itertools.combinations(extra, r):
            yield lo | frozenset(combo)


def flag_steps_ok(pair: HiggsPair, steps: Sequence[FrozenSet[int]]) -> bool:
    """Perpendicularity: with a pairing, step k-i is the complement of the
    pairing image of step i (counting the full set as step k, empty as 0)."""
    sigma = pair.bundle.pairing
    if sigma is None:
        return True
    k = len(steps)
    full = frozenset(range(pair.rank))
    chain = [frozenset()] + [frozenset(s) for s in steps]
    for i in range(k + 1):
        mapped = full - frozenset(sigma[j] for j in chain[i])
        if chain[k - i] != mapped:
            return False
    return True


def enumerate_flags(pair: HiggsPair, max_steps: Optional[int] = None) -> List[Flag]:
    """Every coordinate flag of length <= max_steps (default: the rank),
    respecting the pairing constraint, each once, lexicographically sorted.

    Without a pairing every chain of subsets ending at the full set is a
    flag.  With a pairing sigma a flag is fixed by its lower half, an
    isotropic chain S_1 < ... < S_m (S_m disjoint from sigma(S_m)): step k-i
    is full - sigma(S_i), and the middle step full - sigma(S_m) is present
    exactly when it strictly contains S_m.  So paired flags are built from
    their lower halves directly instead of filtered out of every chain.
    """
    n = pair.rank
    if max_steps is None:
        max_steps = n
    if max_steps < 1:
        raise ModelError("max_steps must be >= 1")
    full = frozenset(range(n))
    sigma = pair.bundle.pairing
    if sigma is not None:
        return sorted(tuple(tuple(sorted(s)) for s in flag)
                      for flag in _paired_flags(full, sigma, max_steps))
    out: List[Flag] = []

    def extend(chain: List[FrozenSet[int]]):
        if chain and chain[-1] == full:
            out.append(tuple(tuple(sorted(s)) for s in chain))
            return
        if len(chain) == max_steps:
            return
        lo = chain[-1] if chain else frozenset()
        for s in _subsets_between(lo, full):
            extend(chain + [s])

    extend([])
    out.sort()
    return out


def _paired_flags(full: FrozenSet[int], sigma: Sequence[int],
                  max_steps: int) -> List[List[FrozenSet[int]]]:
    """Pairing-compatible flags of length <= max_steps, as lists of sets."""
    def perp(s: FrozenSet[int]) -> FrozenSet[int]:
        return full - frozenset(sigma[i] for i in s)

    isotropic = [s for s in _subsets_between(frozenset(), full)
                 if not any(sigma[i] in s for i in s)]
    out: List[List[FrozenSet[int]]] = []

    def extend(chain: List[FrozenSet[int]]):
        # chain = [empty, S_1, ..., S_m]; a flag has at least 2m steps
        top = chain[-1]
        middle = perp(top)
        flag = chain[1:] + ([middle] if middle != top else []) + \
            [perp(s) for s in reversed(chain[:-1])]
        if len(flag) <= max_steps:
            out.append(flag)
        if 2 * len(chain) <= max_steps:
            for s in isotropic:
                if top < s:
                    extend(chain + [s])

    extend([frozenset()])
    return out


def step_index(flag: Flag, rank: int) -> Tuple[int, ...]:
    """For each summand, the 0-based index of the first flag step containing it."""
    out = [-1] * rank
    for j, step in enumerate(flag):
        for s in step:
            if out[s] < 0:
                out[s] = j
    if any(v < 0 for v in out):
        raise ModelError("flag does not exhaust the summands")
    return tuple(out)


def assert_flag(pair: HiggsPair, flag: Flag) -> None:
    """Validate a chain: strictly increasing, final step full, pairing-compatible."""
    sets = [frozenset(s) for s in flag]
    if not sets:
        raise ModelError("empty flag")
    if sets[-1] != frozenset(range(pair.rank)):
        raise ModelError("last flag step must contain every summand")
    for a, b in zip(sets, sets[1:]):
        if not a < b:
            raise ModelError("flag steps must strictly increase")
    for s in flag:
        if list(s) != sorted(set(s)):
            raise ModelError("flag steps must be sorted index tuples")
    if not flag_steps_ok(pair, sets):
        raise PairingViolation("flag is not compatible with the summand pairing")


@dataclass(frozen=True)
class WeightedFlag:
    """A coordinate flag with one rational weight per step, non-decreasing."""
    steps: Flag
    weights: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(tuple(int(i) for i in s) for s in self.steps))
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if len(self.steps) != len(self.weights):
            raise ModelError("one weight per flag step required")
        if any(a > b for a, b in zip(self.weights, self.weights[1:])):
            raise ModelError("weights must be non-decreasing")


def summand_weights(flag: Flag, weights: Sequence[Fraction], rank: int) -> Tuple[Fraction, ...]:
    steps = step_index(flag, rank)
    return tuple(Fraction(weights[j]) for j in steps)


def _entry_margins(pair: HiggsPair, w: Sequence[Fraction]):
    """Yield one value per supported entry; admissible iff each is <= 0."""
    p = pair.pattern
    for (t, s) in p.endo:
        yield w[t] - w[s]
    for (a, c) in p.beta:
        yield w[a] + w[c]
    for (a, c) in p.gamma:
        yield -(w[a] + w[c])


def pattern_compatible(pair: HiggsPair, flag: Flag, weights: Sequence[Fraction]) -> bool:
    """Whether the field respects the weighted flag: no entry raises weight.

    Endo entry (t,s): weight(t) <= weight(s).  beta (i,j): w_i + w_j <= 0.
    gamma (i,j): w_i + w_j >= 0.
    """
    w = summand_weights(flag, weights, pair.rank)
    return all(m <= 0 for m in _entry_margins(pair, w))


def pattern_weight_zero(pair: HiggsPair, flag: Flag, weights: Sequence[Fraction]) -> bool:
    """Whether every supported entry sits at weight exactly zero."""
    w = summand_weights(flag, weights, pair.rank)
    return all(m == 0 for m in _entry_margins(pair, w))


def flag_degree_term(pair: HiggsPair, flag: Flag, weights: Sequence[Fraction],
                     alpha: Fraction = Fraction(0)) -> Fraction:
    """Degree functional of a weighted flag.

    lambda_k (deg V - alpha n) + sum_{j<k} (lambda_j - lambda_{j+1})
    (deg S_j - alpha |S_j|).  A nonzero alpha is meaningful only for Sp2nR.
    """
    alpha = Fraction(alpha)
    if alpha != 0 and pair.group is not Group.SP2NR:
        raise NonzeroAlphaUnsupported(
            f"alpha must be 0 for group {pair.group.value}"
        )
    d = pair.bundle.degrees
    lam = [Fraction(x) for x in weights]
    k = len(flag)
    total = lam[k - 1] * (sum(d) - alpha * pair.rank)
    for j in range(k - 1):
        deg_step = sum(d[i] for i in flag[j])
        total += (lam[j] - lam[j + 1]) * (deg_step - alpha * len(flag[j]))
    return total


def degree_coefficients(pair: HiggsPair, flag: Flag,
                        alpha: Fraction = Fraction(0)) -> Tuple[Fraction, ...]:
    """Coefficients c with flag_degree_term = sum_j c_j lambda_j.

    c_j = (deg S_j - deg S_{j-1}) - alpha (|S_j| - |S_{j-1}|).
    """
    alpha = Fraction(alpha)
    if alpha != 0 and pair.group is not Group.SP2NR:
        raise NonzeroAlphaUnsupported(
            f"alpha must be 0 for group {pair.group.value}"
        )
    d = pair.bundle.degrees
    out: List[Fraction] = []
    prev_deg, prev_size = 0, 0
    for step in flag:
        deg_step = sum(d[i] for i in step)
        out.append((deg_step - prev_deg) - alpha * (len(step) - prev_size))
        prev_deg, prev_size = deg_step, len(step)
    return tuple(out)


# ---------------------------------------------------------------------------
# Criterion-side subobjects


def _endo_invariant(entries: FrozenSet[Entry], subset: FrozenSet[int]) -> bool:
    return all(t in subset for (t, s) in entries if s in subset)


def invariant_subsets(pair: HiggsPair) -> List[Tuple[int, ...]]:
    """Coordinate subsets closed under the endo pattern; for paired groups
    (Sp2nC/GLnR) restricted to isotropic subsets (disjoint from their pairing
    image).  Includes the empty set and, when admissible, the full set."""
    if pair.pattern.kind != "endo":
        raise ModelError("invariant_subsets applies to endo patterns")
    k = pair.rank
    sigma = pair.bundle.pairing
    out: List[Tuple[int, ...]] = []
    for r in range(k + 1):
        for combo in itertools.combinations(range(k), r):
            s = frozenset(combo)
            if sigma is not None and any(sigma[i] in s for i in s):
                continue
            if _endo_invariant(pair.pattern.endo, s):
                out.append(combo)
    return out


def chain_admissible(pair: HiggsPair, s1: FrozenSet[int], s2: FrozenSet[int]) -> bool:
    """Sp2nR: whether the field respects the chain S1 <= S2 (weights -1/0/+1).

    beta entry (a,b) is allowed iff a or b lies in S1, or both lie in S2;
    gamma entry (a,b) iff a or b lies outside S2, or both lie outside S1.
    """
    p = pair.pattern
    for (a, b) in p.beta:
        if not (a in s1 or b in s1 or (a in s2 and b in s2)):
            return False
    for (a, b) in p.gamma:
        if not (a not in s2 or b not in s2 or (a not in s1 and b not in s1)):
            return False
    return True


def admissible_chain_pairs(pair: HiggsPair) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Sp2nR: all chains S1 <= S2 of coordinate subsets (degenerate chains
    included) that the field respects."""
    if pair.group is not Group.SP2NR:
        raise ModelError("chain pairs apply to Sp2nR only")
    k = pair.rank
    subsets = [frozenset(c) for r in range(k + 1)
               for c in itertools.combinations(range(k), r)]
    out = []
    for s2 in subsets:
        for s1 in subsets:
            if s1 <= s2 and chain_admissible(pair, s1, s2):
                out.append((tuple(sorted(s1)), tuple(sorted(s2))))
    out.sort()
    return out


def perp_complement(pair: HiggsPair, subset: Sequence[int]) -> Tuple[int, ...]:
    """Orthogonal complement of a coordinate subset under the pairing form."""
    sigma = pair.bundle.pairing
    if sigma is None:
        raise ModelError("perp complement requires a pairing")
    s = set(subset)
    return tuple(i for i in range(pair.rank) if sigma[i] not in s)
