"""Split-model Higgs pairs: degree lists, support patterns, coordinate flags.

A bundle is an ordered direct sum of line bundles, recorded as a non-increasing
list of integer degrees, optionally with a summand pairing.  The pair's group
alone states the bundle's structure: whether it carries a pairing, which form
the pairing realizes, and whether the determinant is trivial (validate_pair).
A Higgs field is recorded only through its support pattern: which matrix
entries, of the families the group states, may be nonzero.  Flags are chains
of coordinate index subsets; with a pairing, a flag is the perpendicular
closure of an isotropic lower half and is built from it directly.  All
indices are 0-based internally.  The parameter alpha is read by one rule,
resolve_alpha.

Groups and their models (PAIRED: the groups whose bundle carries a pairing):
  Sp2nC - rank 2n bundle with symplectic pairing, fixing no summand;
          endomorphism pattern closed under (t,s) -> (sigma(s),sigma(t)).
  SLnC  - rank n bundle, degrees summing to 0; unconstrained endo pattern.
  Sp2nR - rank n bundle; two symmetric patterns (beta: V* -> V twist,
          gamma: V -> V* twist).
  GLnR  - rank n bundle with orthogonal pairing; the symmetric field is stored
          as the endomorphism obtained by composing with the form, so the
          pattern obeys the same closure rule as Sp2nC.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from fractions import Fraction
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple, Union

Entry = Tuple[int, int]
Flag = Tuple[Tuple[int, ...], ...]


class Group(str, Enum):
    SP2NC = "Sp2nC"
    SLNC = "SLnC"
    SP2NR = "Sp2nR"
    GLNR = "GLnR"


PAIRED = (Group.SP2NC, Group.GLNR)  # the symplectic and the orthogonal form


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
        # kept when exact ints, else rebuilt by _as_int, as SplitBundle does
        if type(self.ell) is not int or type(self.genus) is not int:
            object.__setattr__(self, "ell", _as_int(self.ell, "twist degree"))
            object.__setattr__(self, "genus", _as_int(self.genus, "genus"))
        if self.genus < 0:
            raise ModelError("genus must be non-negative")
        if self.is_canonical and self.ell != 2 * self.genus - 2:
            raise ModelError("canonical twist needs ell = 2*genus - 2")

    @staticmethod
    def canonical(genus: int) -> "Twist":
        return Twist(2 * genus - 2, genus, True)


def _as_int(value, what: str) -> int:
    """value as an int when it equals one (a bool, Fraction(2)); a value
    int() would truncate (1.5) or parse ("2") raises ModelError."""
    try:
        if (out := int(value)) == value:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ModelError(f"{what} {value!r} is not an integer")


@dataclass(frozen=True)
class SplitBundle:
    """Ordered sum of line bundles with an optional summand pairing, an
    involution with d_sigma(i) = -d_i; the pair's group states its form."""
    degrees: Tuple[int, ...]
    pairing: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        for name, what in (("degrees", "degree"), ("pairing", "pairing index")):
            values = getattr(self, name)
            # kept when a tuple of exact ints, else rebuilt by _as_int
            if values is not None and (type(values) is not tuple or not all(
                    type(x) is int for x in values)):
                object.__setattr__(self, name, tuple(_as_int(x, what) for x in values))
        k = len(self.degrees)
        if k == 0:
            raise ModelError("need at least one summand")
        if any(a < b for a, b in zip(self.degrees, self.degrees[1:])):
            raise ModelError("degrees must be non-increasing")
        sigma = self.pairing
        if sigma is not None:
            if sorted(sigma) != list(range(k)) or any(sigma[sigma[i]] != i for i in range(k)):
                raise PairingViolation("pairing must be an involution of the indices")
            for i in range(k):
                if self.degrees[sigma[i]] != -self.degrees[i]:
                    raise PairingViolation(
                        f"degree of paired summand {sigma[i]} must be {-self.degrees[i]}"
                    )

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


def slope_stable(degrees: Sequence[int]) -> bool:
    """Every proper coordinate subbundle has smaller slope: single summand."""
    return len(degrees) == 1


@dataclass(frozen=True)
class HiggsPattern:
    """Boolean support of the Higgs field: endo entries (t, s) meaning a
    possibly-nonzero component mapping summand s into summand t (twisted by
    L), and two symmetric entry sets, beta mapping the dual into the bundle
    and gamma the bundle into its dual.  The pair's group states which of
    them it carries (validate_pair); HiggsPattern() is every group's zero
    field."""
    endo: FrozenSet[Entry] = frozenset()
    beta: FrozenSet[Entry] = frozenset()
    gamma: FrozenSet[Entry] = frozenset()

    def __post_init__(self):
        for name in ("endo", "beta", "gamma"):
            entries = getattr(self, name)
            # kept when a frozenset of exact int pairs, else rebuilt by _as_int
            if type(entries) is not frozenset or not all(
                    type(a) is int and type(b) is int for a, b in entries):
                object.__setattr__(self, name, frozenset(
                    (_as_int(a, f"{name} index"), _as_int(b, f"{name} index"))
                    for a, b in entries))


@dataclass(frozen=True)
class HiggsPair:
    group: Group
    bundle: SplitBundle
    twist: Twist
    pattern: HiggsPattern

    def __post_init__(self):
        if type(self.group) is not Group:
            object.__setattr__(self, "group", Group(self.group))

    @property
    def rank(self) -> int:
        return self.bundle.rank


def group_bundle(group: Group, degrees: Sequence[int],
                 pairing: Optional[Tuple[int, ...]] = None) -> SplitBundle:
    """A group's bundle on a degree list with the given pairing, by default
    the reversal for the PAIRED groups and none for the others."""
    if group in PAIRED and pairing is None:
        if group is Group.SP2NC and len(degrees) % 2:
            raise ModelError("Sp2nC ranks are even (rank 2n)")
        pairing = reversal(len(degrees))
    return SplitBundle(tuple(degrees), pairing)


def symplectic_pair(degrees, twist, entries) -> HiggsPair:
    """Sp2nC pair from a full non-increasing degree list (rank 2n)."""
    return validate_pair(HiggsPair(Group.SP2NC, group_bundle(Group.SP2NC, degrees), twist,
                                   HiggsPattern(endo=entries)))


def sl_pair(degrees, twist, entries) -> HiggsPair:
    return validate_pair(HiggsPair(Group.SLNC, group_bundle(Group.SLNC, degrees), twist,
                                   HiggsPattern(endo=entries)))


def sp_real_pair(degrees, twist, beta, gamma) -> HiggsPair:
    return validate_pair(HiggsPair(Group.SP2NR, group_bundle(Group.SP2NR, degrees), twist,
                                   HiggsPattern(beta=beta, gamma=gamma)))


def orthogonal_pair(degrees, twist, entries) -> HiggsPair:
    """GLnR pair; entries are components of the field composed with the form."""
    return validate_pair(HiggsPair(Group.GLNR, group_bundle(Group.GLNR, degrees), twist,
                                   HiggsPattern(endo=entries)))


def validate_pair(pair: HiggsPair, strict_sections: bool = False) -> HiggsPair:
    """Check all structural invariants; return the pair unchanged.

    The group states the bundle's structure, checked first and in this
    order: SLnC degrees sum to 0; a pairing is present exactly for the
    PAIRED groups; an Sp2nC (symplectic) pairing fixes no summand, so the
    rank is even.  Then the pattern: it carries only the entry families of
    the group's field (beta and gamma for Sp2nR, endo for the others), and
    its entries are in range and symmetric.

    With strict_sections and genus 0, additionally require every supported
    entry to have non-negative line-bundle degree, so a nonzero section can
    exist: endo (t,s) needs ell + d_t - d_s >= 0; beta (i,j) needs
    ell + d_i + d_j >= 0; gamma (i,j) needs ell - d_i - d_j >= 0.
    """
    b, p, group = pair.bundle, pair.pattern, pair.group
    k, sigma = b.rank, b.pairing
    if group is Group.SLNC and b.degree != 0:
        raise ModelError("group SLnC requires degrees summing to 0")
    if (sigma is not None) != (group in PAIRED):
        rule = "requires a" if sigma is None else "carries no"
        raise ModelError(f"group {group.value} {rule} summand pairing")
    if group is Group.SP2NC and any(sigma[i] == i for i in range(k)):
        raise PairingViolation("symplectic pairing cannot fix a summand")
    for name in ("endo",) if group is Group.SP2NR else ("beta", "gamma"):
        if getattr(p, name):
            raise ModelError(f"group {group.value} takes no {name} entries")
    for name in ("endo", "beta", "gamma"):
        for (a, c) in getattr(p, name):
            if not (0 <= a < k and 0 <= c < k):
                raise ModelError(f"{name} entry ({a},{c}) out of range")
    if sigma is not None:  # a PAIRED group, so an endo pattern
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


# The most decimal digits of an alpha's numerator, denominator or integer,
# and of a document's degree: the exponent and decimal forms Fraction also
# reads are refused, since "1e100000000" parses for minutes and prints past
# Python's 4,300 digits, and a report prints sums and slopes of the degrees.
ALPHA_DIGITS = 100
INT_BOUND = 10 ** ALPHA_DIGITS  # the least integer longer than ALPHA_DIGITS digits
_ALPHA_FORM = re.compile(r"([+-]?[0-9]{1,%d})(?:/([0-9]{1,%d}))?" % (ALPHA_DIGITS, ALPHA_DIGITS))


def _shown(text: str) -> str:
    """A refused alpha string as its message quotes it, cut after 40 characters."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def _alpha_value(group: Group, alpha: Union[int, str, Fraction]) -> Optional[Fraction]:
    """The parameter as a Fraction, None for the symbolic slope 'mu'.  A
    string is "mu", an integer or "p/q", and an integer or each part of
    "p/q" at most ALPHA_DIGITS digits long, or ValueError; any other type
    than int, str or Fraction raises TypeError, and a nonzero value outside
    Sp2nR NonzeroAlphaUnsupported."""
    if isinstance(alpha, str):
        if alpha == "mu":
            return None
        form = _ALPHA_FORM.fullmatch(alpha)
        if form is None:
            raise ValueError(f'{_shown(alpha)} is not "mu", an integer or a "p/q" string '
                             f"of at most {ALPHA_DIGITS} digits each")
        q = int(form[2] or 1)
        if not q:
            raise ValueError(f"{_shown(alpha)} is not a rational number")
        a = Fraction(int(form[1]), q)  # read off the match, not parsed again by Fraction(str)
    elif isinstance(alpha, (int, Fraction)) and not isinstance(alpha, bool):
        if isinstance(alpha, int) and abs(alpha) >= INT_BOUND:
            raise ValueError(f"an integer alpha has at most {ALPHA_DIGITS} digits")
        a = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    else:  # a float or bool would enter a verdict inexactly
        raise TypeError(f"alpha must be an int, a str or a Fraction, "
                        f"not {type(alpha).__name__}")
    if a and group is not Group.SP2NR:
        raise NonzeroAlphaUnsupported(f"alpha must be 0 for group {group.value}")
    return a


def resolve_alpha(pair: HiggsPair, alpha: Union[int, str, Fraction]) -> Fraction:
    """Normalize the parameter; the symbolic value 'mu' means slope(V)."""
    a = _alpha_value(pair.group, alpha)
    if a is None:
        a = _alpha_value(pair.group, Fraction(pair.bundle.degree, pair.rank))
    return a


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


def enumerate_flags(pair: HiggsPair) -> List[Flag]:
    """Every coordinate flag respecting the pairing constraint, each once,
    lexicographically sorted."""
    return list(iter_flags(pair))


def iter_flags(pair: HiggsPair) -> Iterator[Flag]:
    """The flags of enumerate_flags in the same order, generated one at a
    time, so a walk that stops early never builds the rest.

    The flags are generated depth first, the candidates for each next step
    in lexicographic order of their sorted tuples; since no flag is a prefix
    of another, this is the lexicographic order of the flags.  Without a
    pairing every chain of subsets ending at the full set is a flag.  With a
    pairing sigma a flag is fixed by its lower half, an isotropic chain
    S_1 < ... < S_m (S_m disjoint from sigma(S_m)): step k-i is
    full - sigma(S_i), and the middle step full - sigma(S_m) is present
    exactly when it strictly contains S_m.  So paired flags are built from
    their lower halves directly instead of filtered out of every chain.
    """
    full = frozenset(range(pair.rank))
    sigma = pair.bundle.pairing
    if sigma is not None:
        return _paired_flags(full, sigma)
    return _chain_flags((), frozenset(), full)


def _step(s: FrozenSet[int]) -> Tuple[int, ...]:
    return tuple(sorted(s))


def _chain_flags(prefix: Flag, top: FrozenSet[int], full: FrozenSet[int]) -> Iterator[Flag]:
    """Flags starting with prefix (whose last step is top)."""
    if top == full:
        yield prefix
        return
    for s in _sorted_supersets(top, full):
        yield from _chain_flags(prefix + (s,), frozenset(s), full)


@lru_cache(maxsize=1 << 12)
def _sorted_supersets(top: FrozenSet[int], full: FrozenSet[int]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(sorted(map(_step, _subsets_between(top, full))))


def _paired_flags(full: FrozenSet[int], sigma: Tuple[int, ...]) -> Iterator[Flag]:
    """Pairing-compatible flags."""
    def perp(s: FrozenSet[int]) -> FrozenSet[int]:
        return full - frozenset(sigma[i] for i in s)

    def extend(chain: List[FrozenSet[int]]) -> Iterator[Flag]:
        # chain = [empty, S_1, ..., S_m].  Each option is keyed by the flag
        # step it puts after S_m: ending the lower half puts the middle step
        # (or, for a Lagrangian S_m, full - sigma(S_{m-1})), which is not
        # isotropic, so keys differ.
        top = chain[-1]
        middle = perp(top)
        rest = ([middle] if middle != top else []) + [perp(s) for s in reversed(chain[:-1])]
        options = [(_step(rest[0]), None)]
        options += [(s, s) for s in _isotropic_supersets(top, sigma)]
        for _, s in sorted(options, key=lambda o: o[0]):
            if s is None:
                yield tuple(map(_step, chain[1:] + rest))
            else:
                yield from extend(chain + [frozenset(s)])

    return extend([frozenset()])


@lru_cache(maxsize=1 << 12)
def _isotropic_supersets(top: FrozenSet[int], sigma: Tuple[int, ...]
                         ) -> Tuple[Tuple[int, ...], ...]:
    return tuple(s for s in _sorted_supersets(top, frozenset(range(len(sigma))))
                 if not any(sigma[i] in s for i in s))


def flag_count(pair: HiggsPair) -> int:
    """len(enumerate_flags(pair)), counted without listing the flags.

    Without a pairing a flag is an ordered set partition of the summands (its
    step differences), counted by the Fubini numbers.  With a pairing it is
    its isotropic lower half: choose k of the c 2-cycles, one summand of
    each, and an ordered set partition of those k."""
    sigma = pair.bundle.pairing
    if sigma is None:
        return _fubini(pair.rank)
    c = sum(i < j for i, j in enumerate(sigma))
    return sum(math.comb(c, k) * 2 ** k * _fubini(k) for k in range(c + 1))


@lru_cache(maxsize=64)
def _fubini(m: int) -> int:
    """The number of ordered set partitions of m elements."""
    return 1 if m == 0 else sum(math.comb(m, i) * _fubini(m - i) for i in range(1, m + 1))


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
    if not sets or not sets[0]:
        raise ModelError("empty flag or flag step")
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


def summand_weights(flag: Flag, weights: Sequence[Fraction], rank: int) -> Tuple[Fraction, ...]:
    steps = step_index(flag, rank)
    return tuple(Fraction(weights[j]) for j in steps)


def flag_degree_term(pair: HiggsPair, flag: Flag, weights: Sequence[Fraction],
                     alpha: Fraction = Fraction(0)) -> Fraction:
    """Degree functional of a weighted flag.

    lambda_k (deg V - alpha n) + sum_{j<k} (lambda_j - lambda_{j+1})
    (deg S_j - alpha |S_j|).  A nonzero alpha is meaningful only for Sp2nR.
    """
    alpha = resolve_alpha(pair, alpha)
    d = pair.bundle.degrees
    lam = [Fraction(x) for x in weights]
    k = len(flag)
    total = lam[k - 1] * (sum(d) - alpha * pair.rank)
    for j in range(k - 1):
        deg_step = sum(d[i] for i in flag[j])
        total += (lam[j] - lam[j + 1]) * (deg_step - alpha * len(flag[j]))
    return total


# ---------------------------------------------------------------------------
# Criterion-side subobjects


def _endo_invariant(entries: FrozenSet[Entry], subset: FrozenSet[int]) -> bool:
    return all(t in subset for (t, s) in entries if s in subset)


def invariant_subsets(pair: HiggsPair) -> List[Tuple[int, ...]]:
    """Coordinate subsets closed under the endo pattern; for paired groups
    (Sp2nC/GLnR) restricted to isotropic subsets (disjoint from their pairing
    image).  Includes the empty set and, when admissible, the full set."""
    if pair.group is Group.SP2NR:
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


def admissible_chain_pairs(pair: HiggsPair) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Sp2nR: all chains S1 <= S2 of coordinate subsets (degenerate chains
    included) that the field respects, sorted.  The 3^n chains are walked
    directly as bitmasks.  The field respects a chain iff each beta entry
    (a,b) has a or b in S1, or both in S2, and each gamma entry (a,b) has a
    or b outside S2, or both outside S1.  So S2 fixes the beta entries S1
    must meet (those not inside S2) and the gamma entries it must miss
    (those inside S2), and S1 runs over the subsets of the rest of S2."""
    if pair.group is not Group.SP2NR:
        raise ModelError("chain pairs apply to Sp2nR only")
    k = pair.rank
    sets = sorted(tuple(i for i in range(k) if m >> i & 1) for m in range(1 << k))
    lex = {sum(1 << i for i in s): r for r, s in enumerate(sets)}  # bitmask -> index in sets
    beta = [1 << a | 1 << b for a, b in pair.pattern.beta]
    gamma = [1 << a | 1 << b for a, b in pair.pattern.gamma]
    codes = []
    for m2 in range(1 << k):
        meet = [m for m in beta if m & m2 != m]
        free = m2
        for m in gamma:
            if m & m2 == m:
                free &= ~m
        m1 = free
        while True:  # every subset m1 of free
            if all(m1 & m for m in meet):
                codes.append(lex[m1] << k | lex[m2])
            if not m1:
                break
            m1 = (m1 - 1) & free
    codes.sort()  # the order of the chains' index tuples
    return [(sets[c >> k], sets[c & (1 << k) - 1]) for c in codes]
