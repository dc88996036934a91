"""The per-pattern compile the library replaced, used only by the tests as
the oracle of its cone-key compiles: the summand cone of a pattern's
entries, a cone key's irredundant pattern form (_cone_form), and the
summand cone and subobjects compiled from a pattern through
extremal_rays_special, lineality_space and bundle's tuple enumerators
invariant_subsets and admissible_chain_pairs on the pattern's pair with all
degrees 0.  count_fetches counts the library's compile lookups and the
compiles themselves."""
from __future__ import annotations

import collections
import operator
from functools import reduce
from typing import Dict, List, Optional, Tuple

from splithiggs.bundle import (Group, HiggsPair, HiggsPattern, Twist, admissible_chain_pairs,
                               group_bundle, invariant_subsets)
from splithiggs.cones import ConeSpec, _unit_diff, _unit_sum, extremal_rays_special, lineality_space
from splithiggs import stability
from splithiggs.linalg import idot
from splithiggs.stability import SummandCone, Subobjects, _is_constant, _members


def summand_cone(group: Group, rank: int, pairing: Optional[Tuple[int, ...]],
                 pattern: HiggsPattern) -> ConeSpec:
    """Cone C of summand weights, the union of all flags' weight cones (see
    stability): every entry margin <= 0 (w_t - w_s for an endo entry
    (t,s), w_a + w_b for beta (a,b), -(w_a + w_b) for gamma (a,b)), and
    w_sigma(i) = -w_i for a pairing or sum(w) = 0 for SLnC."""
    n = rank
    ineqs = sorted({_unit_diff(t, s, n) for (t, s) in pattern.endo if t != s}
                   | {_unit_sum(a, b, n, 1) for (a, b) in pattern.beta}
                   | {_unit_sum(a, b, n, -1) for (a, b) in pattern.gamma})
    if pairing is not None:
        eqs = [_unit_sum(i, j, n, 1) for i, j in enumerate(pairing) if i <= j]
    else:
        eqs = [(1,) * n] if group is Group.SLNC else []
    return ConeSpec(n, tuple(ineqs), tuple(eqs))


def cone_form(key: Tuple[int, ...], rank: int) -> HiggsPattern:
    """The compile input of a cone key, built from the closure alone: per
    class of mutually reachable nodes a cycle through its members (endo)
    or, on the literals, a star through its least + and least - member, and
    beta (i,i) and gamma (i,i) for each summand of a class holding both +w_i
    and -w_i (all zero); per Hasse pair of classes one entry between least
    members.  Its cone is the key's, with the implied normals left out.  A
    literal entry is kept once, as a <= b: the form is a compile input, not
    a validated pattern."""
    classes: Dict[int, int] = {}  # mutually reachable nodes reach the same set
    for u, r in enumerate(key):
        classes[r] = classes.get(r, 0) | 1 << u
    above = [(r & ~c, c) for r, c in classes.items()]  # per class, the nodes strictly above
    hasse = []
    for up, c in above:
        cover = up & ~reduce(operator.or_, (up2 for up2, c2 in above if c2 & up), 0)
        hasse += [(c, c2) for _, c2 in above if c2 & cover]

    def least(mask):
        return (mask & -mask).bit_length() - 1

    if len(key) == rank:  # a relation on the summands
        endo = {(least(a), least(b)) for a, b in hasse}
        for c in classes.values():
            ring = _members(c)
            if len(ring) > 1:
                endo.update(zip(ring, ring[1:] + ring[:1]))
        return HiggsPattern("endo", endo=endo)

    def entry(a, b):
        return (a, b) if a <= b else (b, a)

    low = (1 << rank) - 1
    beta, gamma = set(), set()
    for c in classes.values():
        plus, minus = c & low, c >> rank
        if plus & minus:  # all zero
            links = [(i, i) for i in _members(plus | minus)]
        elif plus and minus:  # +x = -y for every + member x and - member y
            links = [entry(x, least(minus)) for x in _members(plus)] + \
                [entry(least(plus), y) for y in _members(minus)]
        else:
            continue
        beta.update(links)
        gamma.update(links)
    for a, b in hasse:  # a pattern's edge +a -> -b is beta (a,b), -a -> +b gamma (a,b)
        if a & low and b >> rank:
            beta.add(entry(least(a & low), least(b >> rank)))
        else:
            gamma.add(entry(least(a >> rank), least(b & low)))
    return HiggsPattern("sym_pair", beta=beta, gamma=gamma)


def compile_cone(group: Group, rank: int, pairing: Optional[Tuple[int, ...]],
                 pattern: HiggsPattern) -> SummandCone:
    cone = summand_cone(group, rank, pairing, pattern)
    rays, lin = extremal_rays_special(cone), lineality_space(cone)

    def bits(v):
        return (not _is_constant(v)) | 2 * any(idot(h, v) for h in cone.ineqs)

    return SummandCone(rays, lin, tuple(map(sum, rays)), tuple(map(bits, rays)),
                       tuple(map(sum, lin)), reduce(operator.or_, map(bits, lin), 0))


def compile_subobjects(group: Group, rank: int, pairing: Optional[Tuple[int, ...]],
                       pattern: HiggsPattern) -> Subobjects:
    """The subobjects depend on the pattern and the pairing alone, so they
    are enumerated on the pattern's pair with all degrees 0."""
    n = rank
    pair = HiggsPair(group, group_bundle(group, (0,) * n, pairing), Twist(0, 0), pattern)
    mask, full = _subset_masks(n), (1 << n) - 1
    if group is Group.SP2NR:
        items = admissible_chain_pairs(pair)
        s1 = tuple(mask[lo] for lo, _ in items)
        s2 = tuple(mask[hi] for _, hi in items)
        return Subobjects(s1, s2, tuple(n - len(lo) - len(hi) for lo, hi in items),
                          tuple(i for i, (lo, hi) in enumerate(zip(s1, s2))
                                if lo in (0, full) and hi in (0, full)), ())
    items = invariant_subsets(pair)

    def no_complement(s):
        comp = set(range(n)).difference(s)
        return any(src in comp and t not in comp for (t, src) in pattern.endo) or \
            (pairing is not None and any(pairing[j] in comp for j in comp))

    return Subobjects((full,) * len(items), tuple(mask[s] for s in items),
                      tuple(-len(s) for s in items),
                      tuple(i for i, s in enumerate(items) if len(s) in (0, n)),
                      tuple(i for i, s in enumerate(items) if 0 < len(s) < n and no_complement(s)))


def _subset_masks(n: int) -> Dict[Tuple[int, ...], int]:
    """Each subset of range(n), as a sorted tuple, to its bitmask."""
    subsets: List[Tuple[int, ...]] = [()]
    for i in range(n):
        subsets += [s + (i,) for s in subsets]
    return dict(zip(subsets, range(1 << n)))


def count_fetches(monkeypatch, names) -> collections.Counter:
    """Counts of the decider-input fetches at the names stability calls:
    per name the calls, or for a cone-key compile table (_key_cone,
    _key_subobjects) the compiles, its misses.  A table is still cleared
    by its name."""
    calls: collections.Counter = collections.Counter()
    for name in names:
        fn = getattr(stability, name)
        info = getattr(fn, "cache_info", None)

        def counted(*args, _fn=fn, _info=info, _name=name):
            misses = _info and _info().misses
            out = _fn(*args)
            if _info is None or _info().misses != misses:
                calls[_name] += 1
            return out

        if info is not None:
            counted.cache_clear = fn.cache_clear
        monkeypatch.setattr(stability, name, counted)
    return calls
