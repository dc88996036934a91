"""Decomposition of polystable real-symplectic pairs into stable factors.

A polystable pair splits as a direct sum of stable factors from three
families: real symplectic blocks, unitary blocks (vanishing field), and
indefinite-unitary blocks (field supported strictly across a two-coloring
of the block).  The decomposition refines the summand set into connected
components of the field's coupling graph, classifies each block as the
first family, by shape plus its stability check, that fits in the order
unitary, indefinite-unitary, real symplectic, and records enough indexing
to rebuild the input exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .bundle import (
    Group,
    HiggsPair,
    ModelError,
    Twist,
    slope_stable,
    sp_real_pair,
)
from .stability import (
    SIMPLIFIED,
    PairInputs,
    Status,
    Verdict,
    classify_simplified,
    resolve_alpha,
    stable_general,  # perfbench/tracing.py wraps it at this name
    stable_simplified,  # perfbench/tracing.py wraps it at this name
)


class DecompositionError(ModelError):
    """Base class for decomposition failures."""


class NotPolystable(DecompositionError):
    """The input does not classify as polystable (or better); verdict is its
    classification, with its certificate."""

    def __init__(self, verdict: Verdict):
        super().__init__(f"pair classifies as {verdict.status.value}")
        self.verdict = verdict


class UnstableFactor(DecompositionError):
    """A block fits no stable factor family."""


@dataclass(frozen=True)
class Factor:
    """One direct summand of the decomposition.

    kind is "SpR", "Un", or "Upq"; indices are the ambient summand indices
    (ascending); embedded_pair is the block re-indexed as a standalone
    real-symplectic pair.  For an indefinite-unitary factor, colors holds
    the two local index classes, the first containing local index 0."""
    kind: str
    indices: Tuple[int, ...]
    embedded_pair: HiggsPair
    colors: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    @property
    def label(self) -> str:
        if self.kind == "Upq":
            return f"Upq({len(self.colors[0])},{len(self.colors[1])})"
        return f"{self.kind}({len(self.indices)})"

    def key(self) -> Tuple[str, Tuple[int, ...]]:
        """Multiset identity: the label together with the degree data."""
        return (self.label, self.embedded_pair.bundle.degrees)


@dataclass(frozen=True)
class Decomposition:
    factors: Tuple[Factor, ...]
    rank: int
    twist: Twist

    def labels(self) -> Tuple[str, ...]:
        return tuple(f.label for f in self.factors)


def _coupling_blocks(pair: HiggsPair) -> List[Tuple[int, ...]]:
    """Finest partition of the summands closed under the field support."""
    parent = list(range(pair.rank))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b) in pair.pattern.beta | pair.pattern.gamma:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: Dict[int, List[int]] = {}
    for i in range(pair.rank):
        groups.setdefault(find(i), []).append(i)
    return [tuple(groups[r]) for r in sorted(groups)]


def _color_central_test(color_one: Sequence[int]):
    """Summand weights central for the two-block unitary structure: constant
    on each color class (the product structure leaves a two-dimensional
    center)."""
    one = set(color_one)

    def test(w: Sequence[int]) -> bool:
        sides = ([x for i, x in enumerate(w) if i in one],
                 [x for i, x in enumerate(w) if i not in one])
        return all(all(x == side[0] for x in side) for side in sides if side)

    return test


def _upq_coloring(inputs: PairInputs, alpha: Fraction, sub: HiggsPair
                  ) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The two-coloring of sub's entries with the field strictly across
    colors, local index 0 in the first color, when the per-color stability
    check on sub's inputs passes.  A coupling block is connected under its
    entries, so once index 0 is fixed there is at most one such coloring:
    one breadth-first pass builds it, or meets an entry inside a color."""
    m = sub.rank
    entries = sub.pattern.beta | sub.pattern.gamma
    if m < 2 or not entries:
        return None
    neighbours: List[List[int]] = [[] for _ in range(m)]
    for (a, b) in entries:
        neighbours[a].append(b)
        neighbours[b].append(a)
    color = {0: 0}
    queue = [0]
    for i in queue:
        for j in neighbours[i]:
            if j not in color:
                color[j] = 1 - color[i]
                queue.append(j)
            elif color[j] == color[i]:
                return None
    one = tuple(i for i in range(m) if color[i] == 0)
    if not inputs.stable_under(alpha, _color_central_test(one)):
        return None
    return one, tuple(i for i in range(m) if color[i] == 1)


def _classify_block(pair: HiggsPair, block: Tuple[int, ...], alpha: Fraction) -> Factor:
    local = {g: i for i, g in enumerate(block)}
    degrees = tuple(pair.bundle.degrees[g] for g in block)
    beta = {(local[a], local[b]) for (a, b) in pair.pattern.beta if a in local}
    gamma = {(local[a], local[b]) for (a, b) in pair.pattern.gamma if a in local}
    sub = sp_real_pair(degrees, pair.twist, beta, gamma)
    if not (beta or gamma) and slope_stable(degrees):
        return Factor("Un", block, sub)
    inputs = PairInputs.of(sub)  # shared by the Upq and SpR stable tests
    colors = _upq_coloring(inputs, alpha, sub)
    if colors is not None:
        return Factor("Upq", block, sub, colors)
    if SIMPLIFIED.read(inputs, alpha).stable:
        return Factor("SpR", block, sub)
    raise UnstableFactor(f"summand block {block} fits no stable factor family")


def decompose(pair: HiggsPair, alpha=0) -> Decomposition:
    """Split a polystable pair into stable factors, finest first by index."""
    if pair.group is not Group.SP2NR:
        raise ModelError(
            "decomposition is implemented for the real symplectic group only")
    a = resolve_alpha(pair, alpha)
    verdict = classify_simplified(pair, a)
    if verdict.status not in (Status.STABLE, Status.POLYSTABLE):
        raise NotPolystable(verdict)
    factors = tuple(_classify_block(pair, block, a)
                    for block in _coupling_blocks(pair))
    return Decomposition(factors, pair.rank, pair.twist)


def reassemble(dec: Decomposition) -> HiggsPair:
    """Direct sum of the factors in their recorded ambient positions."""
    seen: List[int] = []
    degrees = [0] * dec.rank
    beta, gamma = set(), set()
    for f in dec.factors:
        sub = f.embedded_pair
        for pos, g in enumerate(f.indices):
            degrees[g] = sub.bundle.degrees[pos]
        beta |= {(f.indices[a], f.indices[b]) for (a, b) in sub.pattern.beta}
        gamma |= {(f.indices[a], f.indices[b]) for (a, b) in sub.pattern.gamma}
        seen.extend(f.indices)
    if sorted(seen) != list(range(dec.rank)):
        raise ModelError("factor index blocks must partition the summands")
    return sp_real_pair(tuple(degrees), dec.twist, beta, gamma)
