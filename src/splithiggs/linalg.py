"""Exact linear algebra on small rational and integer vectors.

Rays and cone normals are integer tuples; the general routines take any
exact numbers (ints, Fractions, "p/q" strings via vec) and compute with
Fractions, while int_nullspace eliminates integer rows without them.  Small
dimensions only (everything in this package lives in dimension <= 12), so
plain Gaussian elimination is enough; the textbook phase-1 simplex of
feasible_nonneg_combination is kept as the exact LP the tests check cone
results against.  No floats anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]


def vec(xs: Sequence) -> Vector:
    return tuple(Fraction(x) for x in xs)


def dot(x: Sequence, y: Sequence) -> Fraction:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(x, y)), Fraction(0))


def scale(v: Sequence, c) -> Vector:
    c = Fraction(c)
    return tuple(Fraction(a) * c for a in v)


def add(x: Sequence, y: Sequence) -> Vector:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(x, y))


def sub(x: Sequence, y: Sequence) -> Vector:
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(x, y))


def is_zero(v: Sequence) -> bool:
    return all(Fraction(a) == 0 for a in v)


def primitive(v: Sequence) -> Tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction.

    The zero vector maps to itself.  The sign is never flipped: a ray and its
    negative stay distinct.
    """
    fr = [Fraction(a) for a in v]
    if all(a == 0 for a in fr):
        return tuple(0 for _ in fr)
    denom = lcm(*[a.denominator for a in fr]) if fr else 1
    ints = [int(a * denom) for a in fr]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    return tuple(a // g for a in ints)


def rref(rows: Sequence[Sequence]) -> Tuple[List[Vector], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(vec(r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [a * inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence], dim: int) -> List[Vector]:
    """Basis of {x : A x = 0} for the row list A, in free-column order."""
    red, pivots = rref(rows)
    free = [c for c in range(dim) if c not in pivots]
    basis: List[Vector] = []
    for f in free:
        x = [Fraction(0)] * dim
        x[f] = Fraction(1)
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def int_nullspace(rows: Sequence[Sequence[int]], dim: int) -> List[tuple]:
    """nullspace() of integer rows, eliminating without Fractions.

    Integer row combinations bring the rows to a reduced echelon form whose
    rows are multiples of the RREF rows, so each basis vector is read off
    with one division per pivot: an int where nullspace() has an integral
    Fraction, the same Fraction otherwise, hence equal vectors.
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
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        x: list = [0] * dim
        x[f] = 1
        for row, p in zip(mat, pivots):
            q, rem = divmod(-row[f], row[p])
            x[p] = Fraction(-row[f], row[p]) if rem else q
        basis.append(tuple(x))
    return basis


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return tuple()
    dim = len(rows[0])
    aug = [list(vec(r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for row in red:
        if all(a == 0 for a in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * dim
    for row, p in zip(red, pivots):
        if p == dim:
            return None
        x[p] = row[-1] - sum(row[c] * x[c] for c in range(dim) if c != p and row[c] != 0)
    # pivot columns of an RREF matrix have a single nonzero entry, so the
    # substitution above already used only free coordinates (all zero here)
    return tuple(x)


def reduce_mod_span(v: Sequence, red_rows: Sequence[Vector], pivots: Sequence[int]) -> Vector:
    """Subtract the span component of v determined by RREF rows.

    Zeroes the pivot coordinates of v; two vectors differing by an element of
    the span reduce to the same result.
    """
    x = list(vec(v))
    for row, p in zip(red_rows, pivots):
        if x[p] != 0:
            f = x[p]
            x = [a - f * b for a, b in zip(x, row)]
    return tuple(x)


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
