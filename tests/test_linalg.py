"""Exact linear algebra: goldens plus randomized cross-checks of the one
integer elimination against the Fraction RREF reference of cone_oracles."""
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splithiggs.linalg import (
    feasible_nonneg_combination,
    int_echelon,
    int_nullspace,
    int_vector,
    nullspace,
    primitive,
)
from splithiggs.roots import dot

from cone_oracles import add, rank, reduce_mod_span, rref, rref_nullspace, scale, solve_linear, vec

ints = st.integers(-6, 6)


def test_vector_basics():
    assert vec([1, "1/2"]) == (Q(1), Q(1, 2))
    assert dot((Q(1), Q(2)), (Q(3), Q(4))) == 11
    with pytest.raises(ValueError):
        dot((Q(1),), (Q(1), Q(2)))
    assert add((Q(1), Q(2)), (Q(3), Q(4))) == (Q(4), Q(6))
    assert scale((Q(1), Q(-2)), Q(1, 2)) == (Q(1, 2), Q(-1))


def test_primitive():
    assert primitive(vec(["2/3", "-4/3", 2])) == (Q(1), Q(-2), Q(3))
    assert primitive(vec([0, 0])) == (Q(0), Q(0))
    assert primitive(vec([0, "-1/2"])) == (Q(0), Q(-1))  # sign preserved
    assert primitive(vec([4, 6])) == (Q(2), Q(3))
    assert primitive((-4, 0, 6)) == (-2, 0, 3)
    assert all(type(a) is int for a in primitive(vec(["2/3", "-4/3", 2])))
    assert int_vector((1, 2)) == (1, 2)
    assert int_vector((Q(1, 2), "-1/3", 1)) == (3, -2, 6)
    assert all(type(a) is int for a in int_vector(vec(["1/2", 4])))


def test_rref_and_rank():
    rows = [vec([1, 2, 3]), vec([2, 4, 6]), vec([1, 0, 1])]
    red, pivots = rref(rows)
    assert pivots == [0, 1]
    assert red == [vec([1, 0, 1]), vec([0, 1, 1])]
    assert rank(rows) == 2
    assert rank([]) == 0


def test_nullspace():
    rows = [vec([1, 2, 3]), vec([1, 0, 1])]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for r in rows:
        assert dot(r, v) == 0
    assert nullspace([], 2) == [vec([1, 0]), vec([0, 1])]


def test_solve_linear():
    rows = [vec([1, 1]), vec([1, -1])]
    assert solve_linear(rows, vec([3, 1])) == (Q(2), Q(1))
    assert solve_linear([vec([1, 1]), vec([2, 2])], vec([1, 3])) is None
    # underdetermined: free variables pinned to zero
    sol = solve_linear([vec([1, 1, 0])], vec([5]))
    assert sol is not None and dot(vec([1, 1, 0]), sol) == 5


def test_reduce_mod_span():
    red, pivots = rref([vec([1, 0, 1])])
    out = reduce_mod_span(vec([2, 3, 4]), red, pivots)
    assert out == (Q(0), Q(3), Q(2))
    # canonical on cosets: v and v + span element reduce identically
    out2 = reduce_mod_span(add(vec([2, 3, 4]), scale(vec([1, 0, 1]), Q(7, 3))), red, pivots)
    assert out2 == out


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=4))
def test_nullspace_orthogonal_and_complements_rank(rows_raw):
    rows = [vec(r) for r in rows_raw]
    basis = nullspace(rows, 3)
    assert rank(rows) + len(basis) == 3
    for v in basis:
        for r in rows:
            assert dot(r, v) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.lists(ints, min_size=dim, max_size=dim), max_size=6))))
def test_int_nullspace_equals_nullspace(case):
    dim, rows = case
    basis = int_nullspace(rows, dim)
    assert basis == rref_nullspace(rows, dim)
    assert nullspace([vec(r) for r in rows], dim) == basis
    assert all(type(a) is int for v in basis for a in v if Q(a).denominator == 1)


def _rational_rows(rng: random.Random, dim: int):
    """Up to 6 rows of small rationals, about a third of the entries zero,
    so rows share pivots, vanish and depend on each other; signs are
    uniform, so many rows lead with a negative entry."""
    def entry():
        if rng.random() < 0.35:
            return Q(0)
        return Q(rng.randint(-6, 6), rng.randint(1, 4))
    return [tuple(entry() for _ in range(dim)) for _ in range(rng.randint(0, 6))]


def test_int_echelon_is_the_primitive_rref():
    rng = random.Random(20240611)
    negative = 0
    for _ in range(3000):
        dim = rng.randint(1, 7)
        rows = _rational_rows(rng, dim)
        red, pivots = rref(rows)
        got = int_echelon([int_vector(r) for r in rows], dim)
        assert got == ([primitive(r) for r in red], pivots), rows
        negative += any(next(a for a in r if a) < 0 for r in rows if any(r))
    assert negative > 1000


def test_feasible_nonneg_combination_basics():
    cols = [vec([1, 0]), vec([0, 1])]
    assert feasible_nonneg_combination(cols, vec([2, 3]))
    assert not feasible_nonneg_combination(cols, vec([-1, 0]))
    assert feasible_nonneg_combination([], vec([0, 0]))
    assert not feasible_nonneg_combination([], vec([1, 0]))
    # mixed-sign generators spanning a halfplane
    cols = [vec([1, 1]), vec([-1, 1])]
    assert feasible_nonneg_combination(cols, vec([0, 5]))
    assert not feasible_nonneg_combination(cols, vec([0, -1]))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=5),
    st.lists(st.integers(0, 4), min_size=2, max_size=2),
)
def test_feasible_detects_constructed_combinations(cols_raw, coeffs):
    cols = [vec(c) for c in cols_raw]
    target = vec([0, 0, 0])
    for c, col in zip(coeffs, cols):
        target = add(target, scale(col, Q(c)))
    assert feasible_nonneg_combination(cols, target)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(ints, min_size=2, max_size=2), min_size=1, max_size=4),
       st.lists(ints, min_size=2, max_size=2))
def test_feasible_agrees_with_exhaustive_small_grid(cols_raw, target_raw):
    # brute force over a coefficient grid can only certify feasibility
    cols = [vec(c) for c in cols_raw]
    target = vec(target_raw)
    got = feasible_nonneg_combination(cols, target)
    grid = [Q(n, 2) for n in range(0, 25)]

    def search(i, acc):
        if i == len(cols):
            return acc == target
        return any(search(i + 1, add(acc, scale(cols[i], g))) for g in grid)

    if len(cols) <= 2 and search(0, vec([0, 0])):
        assert got
