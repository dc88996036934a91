"""Split-model data layer: validation, flags, weights, degree bookkeeping."""
import itertools
import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splithiggs.bundle import (
    Group,
    HiggsPair,
    HiggsPattern,
    ModelError,
    NonzeroAlphaUnsupported,
    PairingViolation,
    SectionInfeasible,
    SplitBundle,
    SymmetryViolation,
    Twist,
    _alpha_value,
    admissible_chain_pairs,
    assert_flag,
    enumerate_flags,
    flag_count,
    flag_degree_term,
    flag_steps_ok,
    group_bundle,
    invariant_subsets,
    iter_flags,
    orthogonal_pair,
    reversal,
    sl_pair,
    slope_stable,
    sp_real_pair,
    summand_weights,
    symplectic_pair,
    validate_pair,
)
from splithiggs.stability import classify_general, classify_simplified

from bundle_helpers import (
    WeightedFlag,
    chain_admissible,
    degree_coefficients,
    pattern_compatible,
    pattern_weight_zero,
    perp_complement,
    slope_semistable,
)

T = Twist(2, 1)


def test_twist():
    assert Twist.canonical(2) == Twist(2, 2, True)
    with pytest.raises(ModelError):
        Twist(1, 2, True)
    with pytest.raises(ModelError):
        Twist(0, -1)


def test_split_bundle_invariants():
    with pytest.raises(ModelError):
        SplitBundle((1, 2))  # increasing
    with pytest.raises(PairingViolation):
        SplitBundle((1, -1), (0, 1))  # not degree-reversing
    with pytest.raises(PairingViolation):
        SplitBundle((1, 0, -1), (2, 0, 1))  # not an involution
    b = SplitBundle((1, 0, -1), reversal(3))
    assert b.rank == 3 and b.degree == 0 and b.slope() == 0


def test_slope_helpers():
    assert slope_semistable([2, 2, 2]) and not slope_semistable([2, 1])
    assert slope_stable([5]) and not slope_stable([2, 2])


def test_group_shape_enforcement():
    with pytest.raises(ModelError):
        validate_pair(HiggsPair(Group.SP2NC, SplitBundle((0,)), T, HiggsPattern()))
    with pytest.raises(PairingViolation):  # a symplectic pairing fixes no summand
        validate_pair(HiggsPair(Group.SP2NC, SplitBundle((0, 0), (0, 1)), T, HiggsPattern()))
    with pytest.raises(ModelError, match="group SLnC requires degrees summing to 0"):
        validate_pair(
            HiggsPair(Group.SLNC, SplitBundle((1, 0)), T, HiggsPattern())
        )  # degrees summing to 1
    # an odd Sp2nC rank is refused for its rank, not for the reversal pairing
    for degrees in ((1, 0, -1), (2, 1, -2)):
        with pytest.raises(ModelError, match=re.escape("Sp2nC ranks are even (rank 2n)")):
            symplectic_pair(degrees, T, [])
    # HiggsPattern() is every group's zero field, and a pattern carries only
    # the entry families of its group's field
    for group, degrees in ((Group.SP2NC, (1, -1)), (Group.SLNC, (1, -1)),
                           (Group.SP2NR, (1, -1)), (Group.GLNR, (1, 0, -1))):
        bundle = group_bundle(group, degrees)
        assert validate_pair(HiggsPair(group, bundle, T, HiggsPattern())).pattern == HiggsPattern()
        for name in ("endo",) if group is Group.SP2NR else ("beta", "gamma"):
            with pytest.raises(ModelError, match=f"group {group.value} takes no {name} entries"):
                validate_pair(HiggsPair(group, bundle, T, HiggsPattern(**{name: {(0, 0)}})))


def test_a_pairing_belongs_to_the_paired_groups_alone():
    # A pairing on an Sp2nR or SLnC bundle would add its equalities to the
    # general decider's summand cone and not to the simplified criteria: on
    # this Sp2nR pair the two read stable and unstable.
    stray = HiggsPair(Group.SP2NR, SplitBundle((1, 0, -1), reversal(3)), T,
                      HiggsPattern(beta={(0, 0), (1, 1)}, gamma={(0, 0)}))
    with pytest.raises(ModelError, match="group Sp2nR carries no summand pairing"):
        validate_pair(stray)
    with pytest.raises(ModelError, match="group SLnC carries no summand pairing"):
        validate_pair(HiggsPair(Group.SLNC, SplitBundle((1, 0, -1), reversal(3)), T,
                                HiggsPattern()))
    for group, degrees in ((Group.SP2NC, (1, -1)), (Group.GLNR, (1, 0, -1))):
        with pytest.raises(ModelError, match=f"group {group.value} requires a summand pairing"):
            validate_pair(HiggsPair(group, SplitBundle(degrees), T, HiggsPattern()))
    pair = sp_real_pair((1, 0, -1), T, [(0, 0), (1, 1)], [(0, 0)])
    assert classify_general(pair).status is classify_simplified(pair).status


def test_pair_group_is_normalized_to_the_enum():
    pattern = HiggsPattern()
    pair = HiggsPair("Sp2nR", SplitBundle((0,)), T, pattern)
    assert pair.group is Group.SP2NR
    assert HiggsPair(Group.SP2NR, SplitBundle((0,)), T, pattern) == pair
    with pytest.raises(ValueError):
        HiggsPair("Sp4nR", SplitBundle((0,)), T, pattern)


def test_symmetry_closure_endo():
    # entry (0,1) on a rank-2 symplectic bundle is self-paired
    p = symplectic_pair((1, -1), T, [(0, 1)])
    assert p.pattern.endo == frozenset({(0, 1)})
    # entry (0,0) requires its partner (1,1)
    with pytest.raises(SymmetryViolation):
        symplectic_pair((1, -1), T, [(0, 0)])
    orthogonal_pair((1, 0, -1), T, [(0, 0), (2, 2)])
    with pytest.raises(SymmetryViolation):
        orthogonal_pair((1, 0, -1), T, [(0, 0)])


def test_symmetry_closure_sym_pair():
    sp_real_pair((1, 0), T, beta=[(0, 1), (1, 0)], gamma=[])
    with pytest.raises(SymmetryViolation):
        sp_real_pair((1, 0), T, beta=[(0, 1)], gamma=[])
    with pytest.raises(SymmetryViolation):
        sp_real_pair((1, 0), T, beta=[], gamma=[(1, 0)])


def test_strict_sections_genus_zero():
    flat = Twist(0, 0)
    pair = sl_pair((1, -1), flat, [(1, 0)])
    with pytest.raises(SectionInfeasible):
        validate_pair(pair, strict_sections=True)
    # downward maps are fine, and genus >= 1 is never checked
    validate_pair(sl_pair((1, -1), flat, [(0, 1)]), strict_sections=True)
    validate_pair(sl_pair((1, -1), Twist(0, 1), [(1, 0)]), strict_sections=True)
    with pytest.raises(SectionInfeasible):
        validate_pair(sp_real_pair((1, 1), flat, [], [(0, 0)]), strict_sections=True)


def test_enumerate_flags_rank2():
    sl = sl_pair((0, 0), T, [])
    assert enumerate_flags(sl) == [
        ((0,), (0, 1)),
        ((0, 1),),
        ((1,), (0, 1)),
    ]
    sp = symplectic_pair((1, -1), T, [])
    assert enumerate_flags(sp) == [
        ((0,), (0, 1)),
        ((0, 1),),
        ((1,), (0, 1)),
    ]


def test_enumerate_flags_counts():
    # unpaired rank n: ordered chains of nonempty subsets ending at the top
    assert len(enumerate_flags(sl_pair((0, 0, 0), T, []))) == 13
    assert len(enumerate_flags(sp_real_pair((0, 0, 0, 0), T, [], []))) == 75


def test_enumerate_flags_paired_rank4():
    sp = symplectic_pair((2, 1, -1, -2), T, [])
    flags = enumerate_flags(sp)
    full = (0, 1, 2, 3)
    for f in flags:
        assert f[-1] == full
        assert_flag(sp, f)
    # perpendicular chains: the lower half determines the upper half
    assert ((0,), (0, 1), (0, 1, 2), full) in flags
    assert ((0, 1), full) in flags
    assert ((0,), (0, 1, 2), full) in flags
    assert ((0, 2), full) in flags  # one summand from each pairing orbit
    assert ((0, 3), full) not in flags  # contains a full pairing orbit
    assert (full,) in flags


def filtered_chain_flags(pair):
    """Reference enumerator: every chain of subsets ending at the full set,
    kept when it passes the pairing check of flag_steps_ok."""
    full = frozenset(range(pair.rank))
    out = []

    def extend(chain):
        if chain and chain[-1] == full:
            if flag_steps_ok(pair, chain):
                out.append(tuple(tuple(sorted(s)) for s in chain))
            return
        lo = chain[-1] if chain else frozenset()
        extra = sorted(full - lo)
        for r in range(1, len(extra) + 1):
            for combo in itertools.combinations(extra, r):
                extend(chain + [lo | frozenset(combo)])

    extend([])
    return sorted(out)


def involutions(n):
    """Every involution of range(n), as a tuple of images."""
    if n == 0:
        yield ()
        return
    for sub in involutions(n - 1):  # n - 1 fixed
        yield sub + (n - 1,)
    for j in range(n - 1):  # n - 1 swapped with j
        rest = [i for i in range(n - 1) if i != j]
        for sub in involutions(n - 2):
            sigma = [0] * n
            for a, b in zip(rest, sub):
                sigma[a] = rest[b]
            sigma[j], sigma[n - 1] = n - 1, j
            yield tuple(sigma)


def test_paired_flags_match_filtered_chains():
    for n, count in zip(range(1, 7), (1, 2, 4, 10, 26, 76)):
        sigmas = set(involutions(n))
        assert len(sigmas) == count
        for sigma in sorted(sigmas):
            # SplitBundle rejects a pairing that is not an involution
            bundle = SplitBundle((0,) * n, sigma)
            pair = HiggsPair(Group.GLNR, bundle, T, HiggsPattern())
            assert enumerate_flags(pair) == filtered_chain_flags(pair), sigma


def test_unpaired_flags_match_filtered_chains():
    for n in range(1, 5):
        pair = sl_pair((0,) * n, T, [])
        assert enumerate_flags(pair) == filtered_chain_flags(pair)


def test_flag_count_matches_enumerate_flags():
    for n in range(1, 8):
        pair = sl_pair((0,) * n, T, [])
        assert flag_count(pair) == len(enumerate_flags(pair)), n
    for n in range(1, 7):
        for sigma in involutions(n):
            bundle = SplitBundle((0,) * n, sigma)
            pair = HiggsPair(Group.GLNR, bundle, T, HiggsPattern())
            assert flag_count(pair) == len(enumerate_flags(pair)), sigma


def test_iter_flags_is_lazy():
    # the first flag of rank 12 comes without the other 28 billion
    pair = sl_pair((0,) * 12, T, [])
    assert flag_count(pair) == 28091567595
    assert next(iter_flags(pair)) == tuple(tuple(range(j + 1)) for j in range(12))


def test_assert_flag_rejects():
    sp4 = symplectic_pair((2, 1, -1, -2), T, [])
    with pytest.raises(PairingViolation):
        assert_flag(sp4, ((0, 1, 2), (0, 1, 2, 3)))
    sp = symplectic_pair((1, -1), T, [])
    with pytest.raises(ModelError):
        assert_flag(sp, ((0,),))
    with pytest.raises(ModelError):
        assert_flag(sp, ((0, 1), (0, 1)))


def test_weighted_flag():
    WeightedFlag(((0,), (0, 1)), (Q(-1), Q(1)))
    with pytest.raises(ModelError):
        WeightedFlag(((0,), (0, 1)), (Q(1), Q(-1)))
    with pytest.raises(ModelError):
        WeightedFlag(((0,), (0, 1)), (Q(1),))


def test_summand_weights():
    w = summand_weights(((1,), (1, 2), (0, 1, 2)), [Q(-1), Q(0), Q(2)], 3)
    assert w == (Q(2), Q(-1), Q(0))


def test_pattern_entries_normalise_to_int_pairs():
    # a frozenset of exact int pairs is kept as given; lists, sets, bool and
    # other int-like entries are rebuilt through int(), to equal patterns
    given = frozenset({(0, 1), (2, 0)})
    kept = HiggsPattern(endo=given)
    assert kept.endo is given
    for entries in ([(0, 1), (2, 0)], {(0, 1), (2, 0)}, frozenset({(0, True), (2, False)}),
                    [(Q(0), 1), (2, 0)], [[0, 1], [2, 0]]):
        rebuilt = HiggsPattern(endo=entries)
        assert rebuilt == kept and hash(rebuilt) == hash(kept)
        assert all(type(x) is int for entry in rebuilt.endo for x in entry)
    flagged = HiggsPattern(beta=frozenset({(True, 0)}), gamma=[(1, True)])
    assert flagged.beta == {(1, 0)} and flagged.gamma == {(1, 1)}
    assert [type(x) for entry in (*flagged.beta, *flagged.gamma) for x in entry] == [int] * 4


def test_constructors_refuse_values_int_would_truncate():
    # int() reads 1.5 as 1, 0.9 as 0 and "2" as 2, so each would reach a
    # verdict as another integer; a value equal to its int() still converts
    for make, message in [
        (lambda: sl_pair((1.5, -1.5), Twist(2, 0), [(1, 0)]), "degree 1.5 is not an integer"),
        (lambda: SplitBundle(("2", "-2")), "degree '2' is not an integer"),
        (lambda: SplitBundle((0.5, -0.5), (1, 0)), "degree 0.5 is not an integer"),
        (lambda: sp_real_pair((0.9,), Twist(2, 0), [(0.2, 0.7)], []),
         "degree 0.9 is not an integer"),
        (lambda: sp_real_pair((0,), Twist(2, 0), [(0.2, 0.7)], []),
         "beta index 0.2 is not an integer"),
        (lambda: SplitBundle((1, -1), (1, 0.5)), "pairing index 0.5 is not an integer"),
        (lambda: HiggsPattern(endo=[(0, "1")]), "endo index '1' is not an integer"),
        (lambda: HiggsPattern(gamma=[(float("inf"), 0)]), "gamma index inf is not an integer"),
        (lambda: SplitBundle((None,)), "degree None is not an integer"),
    ]:
        with pytest.raises(ModelError, match=re.escape(message)):
            make()
    b = SplitBundle((2.0, True, Q(0), -1, Q(-2)), (4, Q(3), 2.0, True, False))
    assert b == SplitBundle((2, 1, 0, -1, -2), (4, 3, 2, 1, 0))
    assert all(type(x) is int for x in (*b.degrees, *b.pairing))


def test_twist_refuses_values_int_would_truncate():
    # a twist of 1.5 would give an endo entry of degree -0.5 (1 - (-1) - 1.5)
    for make, message in [
        (lambda: sl_pair((1, -1), Twist(1.5, 0), [(1, 0)]), "twist degree 1.5 is not an integer"),
        (lambda: Twist(2, "1"), "genus '1' is not an integer"),
        (lambda: Twist(2, 0.5), "genus 0.5 is not an integer"),
        (lambda: Twist(None, 0), "twist degree None is not an integer"),
    ]:
        with pytest.raises(ModelError, match=re.escape(message)):
            make()
    with pytest.raises(ModelError, match="genus must be non-negative"):
        Twist(0, -1.0)
    kept = Twist(2, 1)
    for given in (Twist(2, True), Twist(2.0, Q(1)), Twist(Q(4, 2), 1.0)):
        assert given == kept and hash(given) == hash(kept)
        assert type(given.ell) is int and type(given.genus) is int
    assert Twist(0.0, True, True) == Twist.canonical(1)


def test_pattern_compatible_orientation():
    # upward map on a downward-weighted flag is incompatible
    sl = sl_pair((1, -1), T, [(1, 0)])
    flag = ((0,), (0, 1))
    assert not pattern_compatible(sl, flag, [Q(-1), Q(1)])
    assert pattern_compatible(sl, flag, [Q(0), Q(0)])
    sl2 = sl_pair((1, -1), T, [(0, 1)])
    assert pattern_compatible(sl2, flag, [Q(-1), Q(1)])
    assert not pattern_weight_zero(sl2, flag, [Q(-1), Q(1)])
    assert pattern_weight_zero(sl2, flag, [Q(0), Q(0)])


def test_pattern_compatible_sym_pair():
    pair = sp_real_pair((1, 0), T, beta=[(0, 0)], gamma=[])
    flag = ((0,), (0, 1))
    lam = [Q(-1), Q(1)]
    assert pattern_compatible(pair, flag, lam)  # -1 + -1 <= 0
    gpair = sp_real_pair((1, 0), T, beta=[], gamma=[(0, 0)])
    assert not pattern_compatible(gpair, flag, lam)  # needs w0 + w0 >= 0
    assert pattern_compatible(gpair, flag, [Q(0), Q(1)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "+", "-"]), st.integers(0, 3), st.integers(0, 10 ** 90),
       st.integers(0, 3), st.one_of(st.none(), st.just(1), st.integers(1, 10 ** 90)))
def test_alpha_strings_read_as_fraction_reads_them(sign, zeros, p, q_zeros, q):
    # signs, leading zeros and p/1: the value read off the match is the one
    # Fraction(str) parses, of the same type
    text = sign + "0" * zeros + str(p) + ("" if q is None else "/" + "0" * q_zeros + str(q))
    got, want = _alpha_value(Group.SP2NR, text), Q(text)
    assert got == want and type(got) is type(want)


def test_a_fraction_alpha_passes_through():
    alpha = Q(-3, 7)
    assert _alpha_value(Group.SP2NR, alpha) is alpha
    assert _alpha_value(Group.SLNC, Q(0)) == 0
    with pytest.raises(NonzeroAlphaUnsupported):
        _alpha_value(Group.SLNC, alpha)


def test_flag_degree_term_golden():
    # symplectic rank 4, second basis ray: value -2 deg(step 2) = -6
    sp = symplectic_pair((2, 1, -1, -2), T, [])
    flag = ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3))
    lam = [Q(-1), Q(-1), Q(1), Q(1)]
    assert flag_degree_term(sp, flag, lam) == -6
    coeffs = degree_coefficients(sp, flag)
    assert coeffs == (Q(2), Q(1), Q(-1), Q(-2))
    assert sum(c * l for c, l in zip(coeffs, lam)) == -6


def test_flag_degree_term_alpha():
    pair = sp_real_pair((1,), T, [], [])
    assert flag_degree_term(pair, ((0,),), [Q(1)], Q(0)) == 1
    assert flag_degree_term(pair, ((0,),), [Q(1)], Q(1, 2)) == Q(1, 2)
    with pytest.raises(NonzeroAlphaUnsupported):
        flag_degree_term(sl_pair((0,), T, []), ((0,),), [Q(1)], Q(1))
    with pytest.raises(NonzeroAlphaUnsupported):
        degree_coefficients(sl_pair((0,), T, []), ((0,),), Q(1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_degree_term_equals_coefficient_form(data):
    n = data.draw(st.integers(1, 5))
    degs = tuple(sorted((data.draw(st.integers(-3, 3)) for _ in range(n)), reverse=True))
    pair = sp_real_pair(degs, T, [], [])
    flags = enumerate_flags(pair)
    flag = flags[data.draw(st.integers(0, len(flags) - 1))]
    lam = []
    cur = Q(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
    for _ in flag:
        lam.append(cur)
        cur += Q(data.draw(st.integers(0, 3)), data.draw(st.integers(1, 2)))
    alpha = Q(data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 2)))
    lhs = flag_degree_term(pair, flag, lam, alpha)
    rhs = sum(c * l for c, l in zip(degree_coefficients(pair, flag, alpha), lam))
    assert lhs == rhs


def test_invariant_subsets_sl():
    sl = sl_pair((1, -1), T, [(1, 0)])
    assert invariant_subsets(sl) == [(), (1,), (0, 1)]


def test_invariant_subsets_symplectic():
    sp = symplectic_pair((1, -1), T, [(0, 1), (1, 0)])
    assert invariant_subsets(sp) == [()]
    empty = symplectic_pair((1, -1), T, [])
    assert invariant_subsets(empty) == [(), (0,), (1,)]


def test_invariant_subsets_orthogonal_middle():
    # odd-rank orthogonal pairing fixes the middle summand (degree 0)
    pair = orthogonal_pair((1, 0, -1), T, [])
    assert (1,) not in invariant_subsets(pair)  # middle is never isotropic
    assert (0,) in invariant_subsets(pair)


def test_perp_complement():
    sp = symplectic_pair((2, 1, -1, -2), T, [])
    assert perp_complement(sp, (0,)) == (0, 1, 2)
    assert perp_complement(sp, (0, 1)) == (0, 1)
    assert perp_complement(sp, ()) == (0, 1, 2, 3)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_invariant_implies_perp_complement_invariant(data):
    # closure rule makes the perpendicular complement of an invariant
    # isotropic subset invariant as well
    half = data.draw(st.integers(1, 2))
    k = 2 * half
    degs = tuple(sorted((data.draw(st.integers(0, 2)) for _ in range(half)), reverse=True))
    degrees = degs + tuple(-d for d in reversed(degs))
    sigma = reversal(k)
    cand = [(t, s) for t in range(k) for s in range(k)]
    chosen = set()
    for e in data.draw(st.lists(st.sampled_from(cand), max_size=5)):
        chosen.add(e)
        chosen.add((sigma[e[1]], sigma[e[0]]))
    pair = symplectic_pair(degrees, T, sorted(chosen))
    for s in invariant_subsets(pair):
        comp = perp_complement(pair, s)
        entries = pair.pattern.endo
        assert all(t in comp for (t, s2) in entries if s2 in comp)


def test_chain_admissible_rows():
    # closed forms of the degenerate-chain conditions
    n = 2
    full = frozenset(range(n))
    beta_only = sp_real_pair((0, 0), T, [(0, 0)], [])
    gamma_only = sp_real_pair((0, 0), T, [], [(1, 1)])
    both = sp_real_pair((0, 0), T, [(0, 1), (1, 0)], [(0, 0)])
    empty = frozenset()
    # (empty, empty) admissible iff beta = 0
    assert not chain_admissible(beta_only, empty, empty)
    assert chain_admissible(gamma_only, empty, empty)
    # (full, full) admissible iff gamma = 0
    assert chain_admissible(beta_only, full, full)
    assert not chain_admissible(gamma_only, full, full)
    # (empty, full) always admissible
    for p in (beta_only, gamma_only, both):
        assert chain_admissible(p, empty, full)
    # (A, A): beta must touch A, gamma must touch the complement
    a = frozenset({0})
    assert chain_admissible(both, a, a) == (
        all(x in a or y in a for (x, y) in both.pattern.beta)
        and all(x not in a or y not in a for (x, y) in both.pattern.gamma)
    )


def test_admissible_chain_pairs_n1():
    pair = sp_real_pair((0,), T, [(0, 0)], [(0, 0)])
    assert admissible_chain_pairs(pair) == [((), (0,))]
    free = sp_real_pair((0,), T, [], [])
    assert admissible_chain_pairs(free) == [((), ()), ((), (0,)), ((0,), (0,))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_chain_admissibility_matches_three_step_weights(data):
    # the closed-form rules agree with weight bookkeeping at lambda=(-1,0,1)
    n = data.draw(st.integers(1, 3))
    degs = tuple(sorted((data.draw(st.integers(-2, 2)) for _ in range(n)), reverse=True))
    pairs_all = [(a, b) for a in range(n) for b in range(n)]
    beta = set()
    for e in data.draw(st.lists(st.sampled_from(pairs_all), max_size=3)):
        beta.add(e)
        beta.add((e[1], e[0]))
    gamma = set()
    for e in data.draw(st.lists(st.sampled_from(pairs_all), max_size=3)):
        gamma.add(e)
        gamma.add((e[1], e[0]))
    pair = sp_real_pair(degs, T, sorted(beta), sorted(gamma))
    subsets = [frozenset(s) for s in _powerset(range(n))]
    for s2 in subsets:
        for s1 in subsets:
            if not s1 <= s2:
                continue
            w = [Q(-1) if i in s1 else (Q(0) if i in s2 else Q(1)) for i in range(n)]
            expect = all(w[a] + w[b] <= 0 for (a, b) in pair.pattern.beta) and all(
                w[a] + w[b] >= 0 for (a, b) in pair.pattern.gamma
            )
            assert chain_admissible(pair, s1, s2) == expect


def _powerset(items):
    import itertools

    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def test_chains_enumerated_directly_match_the_set_pair_filter():
    # the 3^n direct enumeration against every one of the 4^n set pairs
    # filtered by chain_admissible, in the same sorted order
    rng = random.Random(7)
    for n in range(1, 7):
        slots = [(a, b) for a in range(n) for b in range(a, n)]
        for _ in range(6 if n < 6 else 3):
            beta, gamma = ({e for a, b in rng.sample(slots, rng.randint(0, min(4, len(slots))))
                            for e in ((a, b), (b, a))} for _ in range(2))
            pair = sp_real_pair((0,) * n, T, beta, gamma)
            subsets = [frozenset(s) for s in _powerset(range(n))]
            want = sorted((tuple(sorted(s1)), tuple(sorted(s2)))
                          for s2 in subsets for s1 in subsets
                          if s1 <= s2 and chain_admissible(pair, s1, s2))
            assert admissible_chain_pairs(pair) == want
