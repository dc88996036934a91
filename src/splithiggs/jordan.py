"""Decomposition of polystable real-symplectic pairs into stable factors.

A polystable pair splits as a direct sum of stable factors from three
families: real symplectic blocks, unitary blocks (vanishing field), and
indefinite-unitary blocks (field supported strictly across a two-coloring
of the block).  The decomposition refines the summand set into connected
components of the field's coupling graph, classifies each block by shape
plus the stability check of the candidate family, and records enough
indexing to rebuild the input exactly.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .bundle import (
    Group,
    HiggsPair,
    ModelError,
    Twist,
    slope_stable,
    sp_real_pair,
    step_index,
)
from .stability import (
    Status,
    classify_simplified,
    resolve_alpha,
    stable_general,
    stable_simplified,
)

logger = logging.getLogger(__name__)


class DecompositionError(ModelError):
    """Base class for decomposition failures."""


class NotPolystable(DecompositionError):
    """The input does not classify as polystable (or better)."""


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
    normalized: bool = True

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


def _color_central_test(color_one: Sequence[int], rank: int):
    """Weights central for the two-block unitary structure: constant on each
    color class (the product structure leaves a two-dimensional center)."""
    one = set(color_one)

    def test(v: Sequence[int], flag) -> bool:
        steps = step_index(flag, rank)
        w = [v[steps[i]] for i in range(rank)]
        sides = ([w[i] for i in range(rank) if i in one],
                 [w[i] for i in range(rank) if i not in one])
        return all(all(x == side[0] for x in side) for side in sides if side)

    return test


def _upq_coloring(sub: HiggsPair, alpha) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Search two-colorings with the field strictly across colors and the
    per-color stability check passing; local index 0 names the first color."""
    m = sub.rank
    if m < 2:
        return None
    entries = sub.pattern.beta | sub.pattern.gamma
    if not entries:
        return None
    for size in range(1, m):
        for rest in combinations(range(1, m), size - 1):
            one = frozenset((0,) + rest)
            if any((a in one) == (b in one) for (a, b) in entries):
                continue
            verdict = stable_general(sub, alpha,
                                     central_test=_color_central_test(one, m))
            if verdict.status is Status.STABLE:
                return (tuple(sorted(one)),
                        tuple(i for i in range(m) if i not in one))
    return None


def _classify_block(pair: HiggsPair, block: Tuple[int, ...], alpha) -> Factor:
    local = {g: i for i, g in enumerate(block)}
    degrees = tuple(pair.bundle.degrees[g] for g in block)
    beta = {(local[a], local[b]) for (a, b) in pair.pattern.beta if a in local}
    gamma = {(local[a], local[b]) for (a, b) in pair.pattern.gamma if a in local}
    sub = sp_real_pair(degrees, pair.twist, beta, gamma)
    fits: List[Tuple[str, Optional[tuple]]] = []
    if not (beta or gamma) and slope_stable(degrees):
        fits.append(("Un", None))
    colors = _upq_coloring(sub, alpha)
    if colors is not None:
        fits.append(("Upq", colors))
    if stable_simplified(sub, alpha).status is Status.STABLE:
        fits.append(("SpR", None))
    if not fits:
        raise UnstableFactor(
            f"summand block {block} fits no stable factor family")
    if len(fits) > 1:
        logger.info("block %s fits %s; keeping %s by family precedence",
                    block, [k for k, _ in fits], fits[0][0])
    kind, colors = fits[0]
    return Factor(kind, block, sub, colors)


def decompose(pair: HiggsPair, alpha=0) -> Decomposition:
    """Split a polystable pair into stable factors, finest first by index."""
    if pair.group is not Group.SP2NR:
        raise ModelError(
            "decomposition is implemented for the real symplectic group only")
    a = resolve_alpha(pair, alpha)
    verdict = classify_simplified(pair, a)
    if verdict.status not in (Status.STABLE, Status.POLYSTABLE):
        raise NotPolystable(f"pair classifies as {verdict.status.value}")
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
