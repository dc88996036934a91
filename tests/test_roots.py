"""Root-system module: frozen small-rank values and structural properties."""
from fractions import Fraction
from fractions import Fraction as Q
from typing import Dict, FrozenSet, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splithiggs.roots import (
    Character,
    InvalidRootSystem,
    NotAntidominant,
    RootSystemSpec,
    Vector,
    character_weights,
    degree_via_character,
    dot,
    fundamental_weights,
    rep_weights,
    s_of_character,
    _e,
)

from cone_oracles import solve_linear, vec


# Root-system helpers used only by these tests


def simple_roots(spec: RootSystemSpec) -> Tuple[Vector, ...]:
    n, d = spec.rank, spec.ambient_dim
    chain = [tuple(a - b for a, b in zip(_e(i, d), _e(i + 1, d))) for i in range(n - 1)]
    if spec.family == "A":
        chain = [tuple(a - b for a, b in zip(_e(i, d), _e(i + 1, d))) for i in range(n)]
        return tuple(chain)
    if spec.family == "C":
        return tuple(chain + [vec([0] * (n - 1) + [2])])
    if spec.family == "B":
        return tuple(chain + [vec([0] * (n - 1) + [1])])
    last = [Fraction(0)] * n
    last[n - 2] = Fraction(1)
    last[n - 1] = Fraction(1)
    return tuple(chain + [tuple(last)])


def all_roots(spec: RootSystemSpec) -> Tuple[Vector, ...]:
    """Every root, sorted, in e-coordinates."""
    n, d = spec.rank, spec.ambient_dim
    out: List[Vector] = []
    if spec.family == "A":
        for i in range(d):
            for j in range(d):
                if i != j:
                    out.append(tuple(a - b for a, b in zip(_e(i, d), _e(j, d))))
        return tuple(sorted(out))
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * n
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    out.append(tuple(v))
    if spec.family in ("B", "C"):
        c = 1 if spec.family == "B" else 2
        for i in range(n):
            for s in (c, -c):
                v = [Fraction(0)] * n
                v[i] = Fraction(s)
                out.append(tuple(v))
    return tuple(sorted(out))


def simple_coefficients(spec: RootSystemSpec, root: Vector) -> Tuple[Fraction, ...]:
    """Coefficients of a root in the simple-root basis (exact solve)."""
    basis = simple_roots(spec)
    cols = list(zip(*basis))  # ambient_dim rows, one column per simple root
    sol = solve_linear(cols, root)
    if sol is None:
        raise InvalidRootSystem("vector outside the root lattice span")
    return sol


def parabolic_root_sets(spec: RootSystemSpec, subset: FrozenSet[int]):
    """Root sets of the standard parabolic picked by a set of simple roots.

    subset holds 0-based indices of the chosen simple roots.  Returns
    (members, levi_part, nilradical): roots whose coefficients on the chosen
    simple roots are all >= 0, the sub-subset where they are all 0, and the
    difference.  An empty subset selects the full root system.
    """
    n = spec.rank
    if not all(0 <= i < n for i in subset):
        raise InvalidRootSystem("simple-root index out of range")
    members: List[Vector] = []
    levi: List[Vector] = []
    for root in all_roots(spec):
        coeffs = simple_coefficients(spec, root)
        chosen = [coeffs[i] for i in subset]
        if all(c >= 0 for c in chosen):
            members.append(root)
            if all(c == 0 for c in chosen):
                levi.append(root)
    nil = [r for r in members if r not in levi]
    return tuple(members), tuple(levi), tuple(nil)


def trace_pairing(spec: RootSystemSpec, x: Sequence, y: Sequence) -> Q:
    """Invariant form <x,y> = sum over defining-rep weights w of w(x)w(y)."""
    return sum((dot(w, x) * dot(w, y) for w in rep_weights(spec)), Q(0))


def root_values_at(spec: RootSystemSpec, s: Sequence) -> Dict[Vector, Q]:
    """Evaluate every root at a Cartan element (roots act as functionals)."""
    return {r: dot(r, s) for r in all_roots(spec)}


def test_simple_roots_small_rank():
    assert simple_roots(RootSystemSpec("A", 1)) == ((Q(1), Q(-1)),)
    assert simple_roots(RootSystemSpec("C", 1)) == ((Q(2),),)
    assert simple_roots(RootSystemSpec("B", 2)) == ((Q(1), Q(-1)), (Q(0), Q(1)))
    assert simple_roots(RootSystemSpec("C", 2)) == ((Q(1), Q(-1)), (Q(0), Q(2)))
    assert simple_roots(RootSystemSpec("D", 2)) == ((Q(1), Q(-1)), (Q(1), Q(1)))


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 1, 2), ("A", 2, 6), ("A", 3, 12), ("B", 2, 8), ("C", 1, 2),
     ("C", 2, 8), ("C", 3, 18), ("D", 2, 4), ("D", 3, 12)],
)
def test_root_counts(family, rank, count):
    roots = all_roots(RootSystemSpec(family, rank))
    assert len(roots) == count
    assert len(set(roots)) == count
    for r in roots:
        assert tuple(-a for a in r) in roots


def test_rank_bounds():
    with pytest.raises(InvalidRootSystem):
        RootSystemSpec("D", 1)
    with pytest.raises(InvalidRootSystem):
        RootSystemSpec("E", 6)


def test_simple_coefficients_are_integral_one_sign():
    for family, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 3)]:
        spec = RootSystemSpec(family, rank)
        for root in all_roots(spec):
            coeffs = simple_coefficients(spec, root)
            assert all(c.denominator == 1 for c in coeffs)
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_fundamental_weights_dual_to_coroots():
    for family, rank in [("A", 3), ("B", 3), ("C", 2), ("D", 3)]:
        spec = RootSystemSpec(family, rank)
        fw = fundamental_weights(spec)
        simp = simple_roots(spec)
        for i, wt in enumerate(fw):
            for j, alpha in enumerate(simp):
                norm = sum(a * a for a in alpha)
                coroot = tuple(2 * a / norm for a in alpha)
                pair = sum(a * b for a, b in zip(wt, coroot))
                assert pair == (1 if i == j else 0)


def test_rep_weights_shapes():
    assert rep_weights(RootSystemSpec("A", 1)) == ((Q(1), Q(0)), (Q(0), Q(1)))
    assert rep_weights(RootSystemSpec("C", 1)) == ((Q(1),), (Q(-1),))
    c2 = rep_weights(RootSystemSpec("C", 2))
    assert c2 == ((Q(1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1)), (Q(-1), Q(0)))
    b1 = rep_weights(RootSystemSpec("B", 1))
    assert b1 == ((Q(1),), (Q(0),), (Q(-1),))


def test_trace_pairing_gram():
    # identity on traceless vectors for family A; twice the dot product else
    a2 = RootSystemSpec("A", 2)
    x, y = (Q(1), Q(0), Q(-1)), (Q(2), Q(-1), Q(-1))
    assert trace_pairing(a2, x, y) == sum(p * q for p, q in zip(x, y))
    c2 = RootSystemSpec("C", 2)
    u, v = (Q(3), Q(1)), (Q(1), Q(-2))
    assert trace_pairing(c2, u, v) == 2 * sum(p * q for p, q in zip(u, v))


def test_dual_of_character_rank_one_frozen():
    # sl(2): chi = -(first fundamental weight)  ->  s = (-1/2, 1/2)
    a1 = RootSystemSpec("A", 1)
    chi = Character.make(a1, {0: Q(-1)})
    assert s_of_character(chi) == (Q(-1, 2), Q(1, 2))
    # sp(2): same character shape  ->  s = (-1/2)
    c1 = RootSystemSpec("C", 1)
    chi = Character.make(c1, {0: Q(-1)})
    assert s_of_character(chi) == (Q(-1, 2),)


def test_dual_reproduces_character_via_trace_form():
    for family, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]:
        spec = RootSystemSpec(family, rank)
        chi = Character.make(spec, {0: Q(-2), rank - 1: Q(-1, 3)})
        s = s_of_character(chi)
        f = chi.functional()
        for alpha in simple_roots(spec):
            norm = sum(a * a for a in alpha)
            coroot = tuple(2 * a / norm for a in alpha)
            assert trace_pairing(spec, s, coroot) == sum(
                a * b for a, b in zip(f, coroot)
            )


def test_antidominance_required():
    c2 = RootSystemSpec("C", 2)
    with pytest.raises(NotAntidominant):
        s_of_character(Character.make(c2, {0: Q(1)}))
    with pytest.raises(InvalidRootSystem):
        s_of_character(Character.make(c2, {0: Q(-1)}, central=Q(1)))


def test_parabolic_root_sets_c2():
    c2 = RootSystemSpec("C", 2)
    members, levi, nil = parabolic_root_sets(c2, frozenset({0}))
    assert set(levi) == {(Q(0), Q(2)), (Q(0), Q(-2))}
    assert len(members) == 2 + 3  # levi pair + three strictly positive on root 0
    assert set(nil) == {(Q(1), Q(-1)), (Q(1), Q(1)), (Q(2), Q(0))}
    full, full_levi, full_nil = parabolic_root_sets(c2, frozenset())
    assert set(full) == set(all_roots(c2)) == set(full_levi)
    assert full_nil == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_strictly_antidominant_dual_vanishes_exactly_on_levi(data):
    family = data.draw(st.sampled_from(["A", "B", "C", "D"]))
    rank = data.draw(st.integers(2 if family == "D" else 1, 3))
    spec = RootSystemSpec(family, rank)
    subset = frozenset(
        data.draw(st.sets(st.integers(0, rank - 1), max_size=rank))
    )
    coeffs = {
        i: -Q(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)))
        for i in subset
    }
    chi = Character.make(spec, coeffs)
    s = s_of_character(chi)
    _, levi, _ = parabolic_root_sets(spec, subset)
    vals = root_values_at(spec, s)
    assert {r for r, v in vals.items() if v == 0} == set(levi)


def test_degree_via_character_matches_weighted_sum():
    c2 = RootSystemSpec("C", 2)
    chi = Character.make(c2, {0: Q(-1), 1: Q(-1, 2)})
    mu = character_weights(chi)
    assert mu == (Q(-3, 4), Q(-1, 4), Q(1, 4), Q(3, 4))
    assert mu == tuple(sorted(mu))
    degs = [5, 1, -1, -5]
    expect = sum(m * d for m, d in zip(mu, degs))
    assert degree_via_character(chi, degs) == expect
    # explicit assignment permutes which summand carries which weight
    assert degree_via_character(chi, [5, 1], assignment=[0, 3]) == mu[0] * 5 + mu[3] * 1
