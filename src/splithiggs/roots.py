"""Classical root systems in the standard coordinate basis.

Families A/B/C/D at small rank, with just enough structure for the stability
machinery: fundamental weights, antidominant characters and their duals under
the trace form of the defining representation, and degree evaluation of a
split bundle against a character.

Vectors are tuples of Fractions in e-coordinates.  For family A the ambient
dimension is rank+1 (diagonal matrices of sl(rank+1), represented by traceless
vectors); for B/C/D the ambient dimension equals the rank.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]

FAMILIES = ("A", "B", "C", "D")


class InvalidRootSystem(ValueError):
    pass


class NotAntidominant(ValueError):
    pass


@dataclass(frozen=True)
class RootSystemSpec:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidRootSystem(f"unknown family {self.family!r}")
        low = {"A": 1, "B": 1, "C": 1, "D": 2}[self.family]
        if self.rank < low:
            raise InvalidRootSystem(f"family {self.family} needs rank >= {low}")

    @property
    def ambient_dim(self) -> int:
        return self.rank + 1 if self.family == "A" else self.rank


def dot(x: Sequence, y: Sequence) -> Fraction:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(x, y)), Fraction(0))


def _e(i: int, dim: int) -> Vector:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))


def fundamental_weights(spec: RootSystemSpec) -> Tuple[Vector, ...]:
    """Duals of the simple coroots, as functionals in e-coordinates.

    For family A the representative orthogonal to (1,...,1) is returned.
    """
    n, d = spec.rank, spec.ambient_dim
    out: List[Vector] = []
    if spec.family == "A":
        for k in range(1, n + 1):
            w = [Fraction(1) if i < k else Fraction(0) for i in range(d)]
            shift = Fraction(k, d)
            out.append(tuple(a - shift for a in w))
        return tuple(out)
    for k in range(1, n + 1):
        w = [Fraction(1) if i < k else Fraction(0) for i in range(n)]
        if spec.family == "B" and k == n:
            w = [a / 2 for a in w]
        if spec.family == "D" and k >= n - 1:
            w = [Fraction(1, 2)] * n
            if k == n - 1:
                w[n - 1] = Fraction(-1, 2)
        out.append(tuple(w))
    return tuple(out)


def rep_weights(spec: RootSystemSpec) -> Tuple[Vector, ...]:
    """Weights of the defining representation, in summand order.

    A: e_1..e_n (dim rank+1).  C/D: e_1..e_n, -e_n..-e_1.  B: the middle zero
    weight sits between the two halves.
    """
    n, d = spec.rank, spec.ambient_dim
    if spec.family == "A":
        return tuple(_e(i, d) for i in range(d))
    head = [_e(i, n) for i in range(n)]
    tail = [tuple(-a for a in _e(i, n)) for i in reversed(range(n))]
    if spec.family == "B":
        return tuple(head + [tuple([Fraction(0)] * n)] + tail)
    return tuple(head + tail)


@dataclass(frozen=True)
class Character:
    """Antidominant character of a standard parabolic.

    simple_coeffs maps 0-based simple-root indices (the parabolic's subset) to
    coefficients on the matching fundamental weights; all must be <= 0.
    central is the multiple of the trace functional sum(e_i*), meaningful only
    for family A with a reductive (gl-type) center; 0 elsewhere.
    """
    spec: RootSystemSpec
    simple_coeffs: Tuple[Tuple[int, Fraction], ...]
    central: Fraction = Fraction(0)

    @staticmethod
    def make(spec: RootSystemSpec, coeffs: Dict[int, Fraction], central=0) -> "Character":
        items = tuple(sorted((i, Fraction(c)) for i, c in coeffs.items()))
        return Character(spec, items, Fraction(central))

    @property
    def subset(self) -> FrozenSet[int]:
        return frozenset(i for i, _ in self.simple_coeffs)

    def functional(self) -> Vector:
        """e*-coordinates of the character as a functional on the Cartan."""
        fw = fundamental_weights(self.spec)
        d = self.spec.ambient_dim
        out = [self.central] * d
        for i, c in self.simple_coeffs:
            out = [a + c * b for a, b in zip(out, fw[i])]
        return tuple(out)

    def is_antidominant(self, strict: bool = False) -> bool:
        return all((c < 0 if strict else c <= 0) for _, c in self.simple_coeffs)


def s_of_character(chi: Character) -> Vector:
    """Dual of an antidominant character under the trace form.

    Returns the Cartan element s with <s,x> = chi(x) for every x in the
    center-plus-Levi-center subspace; for the families here the trace form is
    the identity (A, on traceless representatives) or twice it (B/C/D).
    """
    if not chi.is_antidominant():
        raise NotAntidominant("character has a positive simple coefficient")
    if chi.spec.family != "A" and chi.central != 0:
        raise InvalidRootSystem("central part requires family A")
    f = chi.functional()
    if chi.spec.family == "A":
        return f
    return tuple(a / 2 for a in f)


def character_weights(chi: Character) -> Tuple[Fraction, ...]:
    """Defining-rep weights evaluated at the dual of the character."""
    s = s_of_character(chi)
    return tuple(dot(w, s) for w in rep_weights(chi.spec))


def degree_via_character(chi: Character, degrees: Sequence[int],
                         assignment: Sequence[int] | None = None) -> Fraction:
    """deg(E)(sigma, chi) in the split model: sum of weight(i) * degree(i).

    assignment[i] gives the defining-rep weight index of summand i; identity
    by default.
    """
    mu = character_weights(chi)
    if assignment is None:
        assignment = range(len(degrees))
    return sum((mu[a] * Fraction(d) for a, d in zip(assignment, degrees)), Fraction(0))
