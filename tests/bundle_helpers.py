"""Weighted-flag, subbundle and degree-window helpers used only by the
tests: the package decides stability through weight cones and subobject
lists, and decodes a sweep window's degree lists by unranking; these are the
textbook forms the tests check that machinery against, and the decoder of
every instance of a sweep, which the sweep itself only counts."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from splithiggs import stability
from splithiggs.bundle import (
    Flag,
    Group,
    HiggsPair,
    ModelError,
    NonzeroAlphaUnsupported,
    Twist,
    group_bundle,
    summand_weights,
)
from splithiggs.stability import SweepSpec


def slope_semistable(degrees: Sequence[int]) -> bool:
    """No coordinate subbundle of larger slope: all summand degrees equal."""
    return len(set(degrees)) <= 1


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


def pattern_weight_zero(pair: HiggsPair, flag: Flag, weights: Sequence[Fraction]) -> bool:
    """Whether every supported entry sits at weight exactly zero."""
    w = summand_weights(flag, weights, pair.rank)
    return all(m == 0 for m in _entry_margins(pair, w))


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


def perp_complement(pair: HiggsPair, subset: Sequence[int]) -> Tuple[int, ...]:
    """Orthogonal complement of a coordinate subset under the pairing form."""
    sigma = pair.bundle.pairing
    if sigma is None:
        raise ModelError("perp complement requires a pairing")
    s = set(subset)
    return tuple(i for i in range(pair.rank) if sigma[i] not in s)


def reference_degree_lists(group: Group, lo: int, hi: int,
                           rank: int) -> Iterator[Tuple[int, ...]]:
    """A window's degree lists in sweep order, by the textbook rule: every
    non-increasing list of rank values in [lo, hi] as
    combinations_with_replacement draws them from hi down to lo, kept when
    it sums to 0 (SLnC) or is minus its own reversal (the reversal pairing
    of Sp2nC and GLnR); Sp2nR keeps them all."""
    for d in itertools.combinations_with_replacement(range(hi, lo - 1, -1), rank):
        if group is Group.SLNC and sum(d) != 0:
            continue
        if group in (Group.SP2NC, Group.GLNR) and d != tuple(-x for x in reversed(d)):
            continue
        yield d


def instances_at(spec: SweepSpec, rank: int, indices: Iterable[int]) -> Iterator[HiggsPair]:
    """The instances of one rank at sorted indices, decoded directly: a
    rank's instances run through its degree lists in _degree_list_at order,
    and per list through every pattern in _pattern_at order.  Each distinct
    degree list among the indices is unranked and its bundle built once.
    A sweep builds only the pairs it decides or names in a row; the tests
    decode every instance."""
    group, twist = spec.group, Twist(spec.twist_ell, spec.genus)
    count, last = stability._pattern_count(group, rank), None
    for i in indices:
        at, k = divmod(i, count)
        if at != last:
            last, bundle = at, group_bundle(group, stability._degree_list_at(
                group, spec.degree_min, spec.degree_max, rank, at))
        yield HiggsPair(group, bundle, twist, stability._pattern_at(group, rank, k)[0])


def iter_instances(spec: SweepSpec) -> Iterator[HiggsPair]:
    """Every instance a sweep of spec checks, in its order, from the
    sweep's own index draw (refused on the call above the instance cap)."""
    return itertools.chain.from_iterable(
        instances_at(spec, rank, indices) for rank, indices in stability._draw_indices(spec))


# Every stability name that counts or unranks a sweep window's degree lists:
# tests that require a sweep to be refused before any such work replace
# each of them with a refusal.
DEGREE_WINDOW_WORK = ("_degree_list_total", "_degree_list_at", "_multiset_at",
                      "_sum_zero_count", "_sum_zero_list_at")
