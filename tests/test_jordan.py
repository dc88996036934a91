"""Decomposition of polystable real-symplectic pairs: factor goldens,
round-trip reconstruction, and multiset uniqueness under relabeling."""
import collections
import random
from fractions import Fraction
from itertools import combinations

import pytest

from splithiggs import jordan, stability
from splithiggs.bundle import ModelError, Twist, sl_pair, sp_real_pair
from splithiggs.jordan import (
    Decomposition,
    Factor,
    NotPolystable,
    UnstableFactor,
    decompose,
    reassemble,
)
from splithiggs.stability import (
    PairInputs,
    Status,
    SweepSpec,
    classify_simplified,
    equivalence_sweep,
    stable_simplified,
)

from compile_oracles import count_fetches

T = Twist(2, 0)


def test_two_real_rank1_factors():
    pair = sp_real_pair((0, 0), T, {(0, 0), (1, 1)}, {(0, 0), (1, 1)})
    dec = decompose(pair, 0)
    assert dec.labels() == ("SpR(1)", "SpR(1)")
    assert [f.indices for f in dec.factors] == [(0,), (1,)]
    for f in dec.factors:
        assert stable_simplified(f.embedded_pair, 0).status is Status.STABLE
    assert reassemble(dec) == pair


def test_zero_field_gives_unitary_lines():
    pair = sp_real_pair((1, 1), T, set(), set())
    dec = decompose(pair, 1)  # the central parameter value for this bundle
    assert dec.labels() == ("Un(1)", "Un(1)")
    for f in dec.factors:
        assert f.embedded_pair.pattern.is_zero
    assert reassemble(dec) == pair


def test_cross_coupled_block_is_indefinite_unitary():
    # Both symmetric fields strictly across the two lines; the block is
    # connected, not stable as a real symplectic pair (the first line is an
    # equality witness), but stable once per-color weights count as central.
    pair = sp_real_pair((1, 1), T, {(0, 1), (1, 0)}, {(0, 1), (1, 0)})
    assert classify_simplified(pair, 0).status is Status.POLYSTABLE
    dec = decompose(pair, 0)
    assert dec.labels() == ("Upq(1,1)",)
    f = dec.factors[0]
    assert f.indices == (0, 1)
    assert f.colors == ((0,), (1,))
    assert reassemble(dec) == pair


def test_single_factor_identity():
    pair = sp_real_pair((0,), T, {(0, 0)}, {(0, 0)})
    dec = decompose(pair, 0)
    assert dec.labels() == ("SpR(1)",)
    assert reassemble(dec) == pair


def test_multiset_uniqueness_under_relabeling():
    a = decompose(sp_real_pair((0, 0), T, {(0, 0)}, {(0, 0)}), 0)
    b = decompose(sp_real_pair((0, 0), T, {(1, 1)}, {(1, 1)}), 0)
    assert a.labels() != b.labels()  # order tracks the blocks
    assert sorted(f.key() for f in a.factors) == \
        sorted(f.key() for f in b.factors)


def test_rejects_non_polystable():
    with pytest.raises(NotPolystable):
        decompose(sp_real_pair((1, 1), T, {(0, 0), (1, 1)}, set()), 1)
    with pytest.raises(NotPolystable):
        decompose(sp_real_pair((1, 0), T, set(), set()), 0)


def test_rejects_other_groups():
    with pytest.raises(ModelError):
        decompose(sl_pair((0, 0), T, set()), 0)


def test_sweep_polystables_round_trip():
    # Every polystable instance of the small sweep decomposes into stable
    # factors and reassembles to itself.
    spec = SweepSpec(group="Sp2nR", ranks=(1, 2), alphas=("0", "mu"))
    rep = equivalence_sweep(spec, collect_polystable=True)
    assert rep.polystable_found
    seen_labels = set()
    for row in rep.polystable_found:
        pair = sp_real_pair(tuple(row["degrees"]), Twist(spec.twist_ell, spec.genus),
                            {tuple(e) for e in row["beta"]},
                            {tuple(e) for e in row["gamma"]})
        alpha = Fraction(row["alpha"]) if row["alpha"] != "mu" else "mu"
        dec = decompose(pair, alpha)
        assert reassemble(dec) == pair
        assert sorted(i for f in dec.factors for i in f.indices) == \
            list(range(pair.rank))
        seen_labels.update(dec.labels())
    assert "SpR(1)" in seen_labels and "Un(1)" in seen_labels


def test_each_block_fetches_its_inputs_once(monkeypatch):
    calls = count_fetches(monkeypatch, ("_pattern_cone", "_pattern_subobjects", "_key_subobjects"))
    per_block = []

    def classify_block(*args, _fn=jordan._classify_block):
        before = calls.copy()
        factor = _fn(*args)
        per_block.append(calls - before)
        return factor

    monkeypatch.setattr(jordan, "_classify_block", classify_block)
    for pair, alpha in [
        (sp_real_pair((1, 1), T, {(0, 1), (1, 0)}, {(0, 1), (1, 0)}), 0),
        (sp_real_pair((0, 0, 0, 0), T, {(0, 1), (1, 0), (2, 3), (3, 2)},
                      {(0, 3), (3, 0), (1, 2), (2, 1)}), 0),
        (sp_real_pair((0, 0), T, {(0, 0), (1, 1)}, {(0, 0), (1, 1)}), 0),
        (sp_real_pair((1, 1), T, set(), set()), 1),
    ]:
        stability._cone_key.cache_clear()
        stability._key_subobjects.cache_clear()
        calls.clear()
        per_block.clear()
        dec = decompose(pair, alpha)
        assert reassemble(dec) == pair
        assert len(per_block) == len(dec.factors)
        # one compiled chain list per block, and one geometry shared by its
        # colorings
        for fetched in per_block:
            assert fetched["_pattern_subobjects"] == 1
            assert fetched["_pattern_cone"] <= 1
        if any(f.kind == "Upq" for f in dec.factors):
            assert any(fetched["_pattern_cone"] for fetched in per_block)
        # the chains are compiled once per distinct cone key: the input's
        # and its blocks', no more keys than patterns
        patterns = {(p.rank, p.pattern) for p in (pair, *(f.embedded_pair for f in dec.factors))}
        keys = {(rank, stability._cone_key(pattern, rank)) for rank, pattern in patterns}
        assert calls["_key_subobjects"] == len(keys) <= len(patterns)


def _upq_coloring_search(inputs, alpha):
    """The coloring search the one-pass build replaced: every coloring with
    local index 0 in the first color, smallest first color first, the
    field strictly across colors and the per-color stability check
    passing."""
    sub = inputs.pair
    m = sub.rank
    entries = sub.pattern.beta | sub.pattern.gamma
    if m < 2 or not entries:
        return None
    for size in range(1, m):
        for rest in combinations(range(1, m), size - 1):
            one = frozenset((0,) + rest)
            if any((a in one) == (b in one) for (a, b) in entries):
                continue
            if inputs.stable_under(alpha, jordan._color_central_test(one)):
                return (tuple(sorted(one)), tuple(i for i in range(m) if i not in one))
    return None


def test_upq_coloring_matches_the_search():
    # seeded coupling blocks of ranks 2-6: odd cycles and loops have no
    # coloring, the rest one, which the stability check keeps or refuses
    rng = random.Random(7)
    seen = collections.Counter()
    for trial in range(800):
        n = rng.randint(2, 6)
        bipartite = rng.random() < 0.7
        side = [rng.randint(0, 1) for _ in range(n)]
        sym = [(a, b) for a in range(n) for b in range(a, n)
               if not bipartite or side[a] != side[b]]
        beta, gamma = ({e for a, b in sym if rng.random() < 0.4 for e in ((a, b), (b, a))}
                       for _ in range(2))
        degrees = tuple(sorted((rng.randint(-1, 1) for _ in range(n)), reverse=True))
        pair = sp_real_pair(degrees, T, beta, gamma)
        alpha = rng.choice((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(-1)))
        for block in jordan._coupling_blocks(pair):
            if len(block) < 2:
                continue
            local = {g: i for i, g in enumerate(block)}
            sub = sp_real_pair(tuple(degrees[g] for g in block), T,
                               {(local[a], local[b]) for a, b in beta if a in local},
                               {(local[a], local[b]) for a, b in gamma if a in local})
            want = _upq_coloring_search(PairInputs(sub), alpha)
            assert jordan._upq_coloring(PairInputs(sub), alpha) == want, (trial, block)
            seen[want is not None] += 1
    assert seen[True] > 20 and seen[False] > 20
