"""Weighted-flag and subbundle helpers used only by the tests: the package
decides stability through weight cones and subobject lists, and these are
the textbook forms the tests check that machinery against."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from splithiggs.bundle import (
    Flag,
    Group,
    HiggsPair,
    ModelError,
    NonzeroAlphaUnsupported,
    _entry_margins,
    summand_weights,
)


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


# Every stability name that lists, counts or unranks a sweep window's degree
# lists, or decodes instances from them: tests that require a sweep to be
# refused before any such work replace each of them with a refusal.
DEGREE_WINDOW_WORK = ("_degree_lists", "_sum_zero_lists", "_degree_list_total",
                      "_degree_list_at", "_multiset_at", "_sum_zero_count",
                      "_instances_for_rank", "_instances_at")
