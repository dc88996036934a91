"""Exact linear algebra on small integer vectors.

Rays, cone normals and elimination rows are integer tuples, and there is
one exact elimination: int_echelon brings integer rows to a reduced echelon
form by integer row combinations alone, each row primitive with a positive
pivot, so each is primitive() of the matching RREF row.  int_nullspace reads
a nullspace basis off it, and cones reduces rays modulo the lineality space
by it.  A rational vector enters through int_vector or primitive, which
scale it to integers.  Fraction remains where the parameter alpha enters
(stability's values and certificates), in nullspace entries that are not
integral (which reports print as "p/q"), in roots, and in the textbook
phase-1 simplex of feasible_nonneg_combination, kept as the exact LP the
tests check cone results against.  Small dimensions only (everything in this
package lives in dimension <= 12), and no floats anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

IntVector = Tuple[int, ...]


def idot(a: Sequence, b: Sequence):
    """The dot product, in the type of the entries (ints stay ints)."""
    return sum(x * y for x, y in zip(a, b))


def int_vector(v: Sequence) -> IntVector:
    """v unchanged if its entries are ints, else scaled to integers by the
    least common denominator (a positive factor: direction and the
    constraint h.x <= 0 stay the same)."""
    if all(type(a) is int for a in v):
        return tuple(v)
    fr = [Fraction(a) for a in v]
    d = lcm(*(a.denominator for a in fr))
    return tuple(int(a * d) for a in fr)


def primitive(v: Sequence) -> IntVector:
    """v scaled to coprime integers, preserving direction.

    The zero vector maps to itself.  The sign is never flipped: a ray and its
    negative stay distinct.
    """
    try:
        g = gcd(*v)
    except TypeError:  # a Fraction or "p/q" entry: scale to integers first
        v = int_vector(v)
        g = gcd(*v)
    return tuple(v) if g <= 1 else tuple(a // g for a in v)


def int_echelon(rows: Sequence[Sequence[int]], dim: int) -> Tuple[List[IntVector], List[int]]:
    """Reduced echelon form of integer rows: (nonzero rows, pivot columns).

    Integer row combinations keep every row a multiple of its RREF row and
    zero each pivot column outside its own row; the rows are then made
    primitive with a positive pivot, so each is primitive() of its RREF row.
    """
    mat = [list(row) for row in rows if any(row)]
    pivots: List[int] = []
    for c in range(dim):
        r = len(pivots)
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow, a = mat[r], mat[r][c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                row = [a * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    out = []
    for row, p in zip(mat, pivots):
        g = gcd(*row) if row[p] > 0 else -gcd(*row)
        out.append(tuple(x // g for x in row))
    return out, pivots


def int_nullspace(rows: Sequence[Sequence[int]], dim: int) -> List[tuple]:
    """Basis of {x : A x = 0} for the integer row list A, in free-column
    order: per free column f, x_f = 1, the other free coordinates 0 and
    x_p = -row[f] / row[p] at each pivot p of int_echelon, an int where
    that is integral and a Fraction otherwise."""
    red, pivots = int_echelon(rows, dim)
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        x: list = [0] * dim
        x[f] = 1
        for row, p in zip(red, pivots):
            q, rem = divmod(-row[f], row[p])
            x[p] = Fraction(-row[f], row[p]) if rem else q
        basis.append(tuple(x))
    return basis


def nullspace(rows: Sequence[Sequence], dim: int) -> List[tuple]:
    """int_nullspace of rational rows, each scaled to integers first."""
    return int_nullspace([int_vector(row) for row in rows], dim)


def feasible_nonneg_combination(columns: Sequence[Sequence], target: Sequence) -> bool:
    """Exact feasibility of  { x >= 0 : sum_j x_j * columns[j] = target }.

    Phase-1 simplex with Bland's rule; Fractions only, so the answer is exact
    and termination is guaranteed.
    """
    d = len(target)
    m = len(columns)
    A = [[Fraction(columns[j][i]) for j in range(m)] for i in range(d)]
    b = [Fraction(t) for t in target]
    for i in range(d):
        if b[i] < 0:
            A[i] = [-a for a in A[i]]
            b[i] = -b[i]
    # columns 0..m-1 are the real variables, m+i is the artificial for row i
    n = m + d
    T = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(d)] + [b[i]]
         for i in range(d)]
    basis = [m + i for i in range(d)]
    # objective: minimize sum of artificials; maintain reduced-cost row
    z = [Fraction(0)] * (n + 1)
    for i in range(d):
        for j in range(n + 1):
            z[j] += T[i][j]
    # cost of artificial basics is 1, so reduced cost = (sum of rows) - cost vector
    for j in range(m, n):
        z[j] -= 1
    while True:
        enter = next((j for j in range(n) if j not in basis and z[j] > 0), None)
        if enter is None:
            break
        ratios = [(T[i][n] / T[i][enter], basis[i], i)
                  for i in range(d) if T[i][enter] > 0]
        if not ratios:
            # unbounded phase-1 cannot happen (objective bounded below by 0)
            raise ArithmeticError("phase-1 simplex unbounded")
        leave_row = min(ratios)[2]
        piv = T[leave_row][enter]
        T[leave_row] = [a / piv for a in T[leave_row]]
        for i in range(d):
            if i != leave_row and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * p for a, p in zip(T[i], T[leave_row])]
        f = z[enter]
        z = [a - f * p for a, p in zip(z, T[leave_row])]
        basis[leave_row] = enter
    return z[n] == 0
