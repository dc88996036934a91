"""Cone engine tests: frozen ray goldens; the library's double description
against two independent oracles, the {-1,0,1} search of the special shapes
(exact tuples) and the brute double-description oracle (any shape, dim <= 8);
an LP feasibility oracle for functional bounds; and the {-1,0,1} search
itself kept honest, its pruned candidates against a full scan and its rank
test for extremal rays against the LP filter."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splithiggs.bundle import (
    Form,
    Group,
    HiggsPair,
    HiggsPattern,
    SplitBundle,
    Twist,
    assert_flag,
    enumerate_flags,
    reversal,
    orthogonal_pair,
    sl_pair,
    sp_real_pair,
    symplectic_pair,
)
from splithiggs.cones import (
    ConeSpec,
    _canonical_reps,
    DimensionTooLarge,
    MalformedNormal,
    extremal_rays_special,
    lineality_space,
    weight_cone,
)
from splithiggs.linalg import feasible_nonneg_combination, primitive
from splithiggs.roots import dot
from splithiggs.stability import (SweepSpec, _count_for_rank, _instances_at, _pattern_cone,
                                  iter_instances)

from bundle_helpers import pattern_compatible
from compile_oracles import summand_cone
from cone_oracles import (
    _classify_eqs,
    _special_candidates,
    _special_members,
    brute_rays_oracle,
    cone_contains,
    nonneg_on_cone,
    reduce_mod_span,
    rref,
    rref_nullspace,
    special_rays_oracle,
    vec,
)
from cone_oracles import rank as mat_rank


def unit(i, dim, sign=1):
    return vec([sign if j == i else 0 for j in range(dim)])


def cone(dim, ineqs=(), eqs=()):
    return ConeSpec(dim, tuple(vec(h) for h in ineqs), tuple(vec(e) for e in eqs))


# ---------------------------------------------------------------------------
# Goldens


def test_octant_rays():
    c = cone(3, ineqs=[(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    assert extremal_rays_special(c) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert lineality_space(c) == ()


def test_halfplane_rays_and_lineality():
    c = cone(2, ineqs=[(1, 0)])
    assert extremal_rays_special(c) == ((-1, 0),)
    assert lineality_space(c) == ((0, 1),)


def test_order_cone_rays_mod_lineality():
    c = cone(3, ineqs=[(1, -1, 0), (0, 1, -1)])
    assert lineality_space(c) == ((1, 1, 1),)
    oracle = brute_rays_oracle(c)
    assert set(extremal_rays_special(c)) == set(oracle.rays)


def test_paired_rank4_step_rays():
    c = cone(
        4,
        ineqs=[(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)],
        eqs=[(1, 0, 0, 1), (0, 1, 1, 0)],
    )
    assert extremal_rays_special(c) == ((-1, -1, 1, 1), (-1, 0, 0, 1))
    assert lineality_space(c) == ()


def test_trace_zero_projection_ray():
    c = cone(2, ineqs=[(1, -1)], eqs=[(1, 2)])
    assert extremal_rays_special(c) == ((-2, 1),)
    oracle = brute_rays_oracle(c)
    assert oracle.rays == ((-2, 1),)
    assert oracle.lineality == ()


def test_opposed_sum_normals_slice():
    c = cone(2, ineqs=[(1, 1), (-1, -1), (1, -1)])
    assert extremal_rays_special(c) == ((-1, 1),)
    assert brute_rays_oracle(c).rays == ((-1, 1),)


def test_zero_cone_has_no_rays():
    c = cone(2, ineqs=[(1, -1)], eqs=[(1, 0), (0, 1)])
    assert extremal_rays_special(c) == ()
    assert lineality_space(c) == ()


def test_full_space_is_pure_lineality():
    c = cone(3)
    assert extremal_rays_special(c) == ()
    assert len(lineality_space(c)) == 3


def test_out_of_shape_cones_answered_and_zero_normals_rejected():
    # shapes the {-1,0,1} search refuses: the double description answers them
    for c in (cone(2, ineqs=[(1, 2)]), cone(3, eqs=[(1, -1, 0)]),
              cone(3, eqs=[(1, 1, 1), (1, 0, 1)])):
        with pytest.raises(MalformedNormal):
            special_rays_oracle(c)
        assert extremal_rays_special(c) == brute_rays_oracle(c).rays
    with pytest.raises(MalformedNormal):
        ConeSpec(2, (vec([0, 0]),), ())


def test_dimension_guards():
    with pytest.raises(DimensionTooLarge):
        brute_rays_oracle(cone(9, ineqs=[unit(0, 9)]))
    with pytest.raises(DimensionTooLarge):
        extremal_rays_special(cone(13, ineqs=[unit(0, 13)]))


# ---------------------------------------------------------------------------
# LP oracle: exists x in cone with d.x < 0?


def lp_negative_feasible(d, c: ConeSpec) -> bool:
    """Exact phase-1 encoding of: exists x with A x <= 0, E x = 0, d.x = -1."""
    n_ineq = len(c.ineqs)
    rows = n_ineq + len(c.eqs) + 1

    def stacked(x_col):
        col = [dot(h, x_col) for h in c.ineqs]
        col += [dot(e, x_col) for e in c.eqs]
        col.append(dot(d, x_col))
        return vec(col)

    columns = []
    for i in range(c.dim):
        e_i = unit(i, c.dim)
        columns.append(stacked(e_i))
        columns.append(vec([-a for a in stacked(e_i)]))
    for j in range(n_ineq):
        columns.append(unit(j, rows))  # slack: A x + s = 0
    target = vec([0] * (rows - 1) + [-1])
    return feasible_nonneg_combination(columns, target)


def special_cone_strategy(general=False):
    """Cones of the special shapes; with general, also inequalities with
    integer entries in -3..3 and a general equality, which only the double
    description and the brute oracle answer."""
    dims = st.integers(min_value=1, max_value=4)
    kinds = ["diff", "sum", "negsum", "single"] + (["general"] if general else [])
    entry = st.integers(min_value=-3, max_value=3)

    def build(dim, data):
        ineqs = []
        n = data.draw(st.integers(min_value=0, max_value=4))
        for _ in range(n):
            kind = data.draw(st.sampled_from(kinds))
            i = data.draw(st.integers(min_value=0, max_value=dim - 1))
            j = data.draw(st.integers(min_value=0, max_value=dim - 1))
            row = [0] * dim
            if kind == "general":
                row = [data.draw(entry) for _ in range(dim)]
            elif kind == "diff":
                if i == j:
                    continue
                row[i], row[j] = 1, -1
            elif kind == "single":
                row[i] = data.draw(st.sampled_from([1, -1]))
            else:
                s = 1 if kind == "sum" else -1
                row[i] += s
                row[j] += s
            if any(row):
                ineqs.append(tuple(row))
        eqs = []
        if general and data.draw(st.booleans()):
            eqs.append(tuple(data.draw(entry) for _ in range(dim)))
        elif dim >= 2 and data.draw(st.booleans()):
            i = data.draw(st.integers(min_value=0, max_value=dim - 2))
            j = data.draw(st.integers(min_value=i + 1, max_value=dim - 1))
            row = [0] * dim
            row[i] = row[j] = 1
            eqs.append(tuple(row))
        return cone(dim, ineqs, eqs)

    return st.data(), dims, build


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_special_matches_oracle_and_lp(data):
    _, dims, build = special_cone_strategy(general=True)
    dim = data.draw(st.integers(min_value=1, max_value=4))
    c = build(dim, data)
    rays = extremal_rays_special(c)
    oracle = brute_rays_oracle(c)
    assert set(rays) == set(oracle.rays)
    lin_a = list(lineality_space(c))
    lin_b = list(oracle.lineality)
    assert mat_rank(lin_a) == mat_rank(lin_b) == mat_rank(lin_a + lin_b)
    # every ray is a cone member and satisfies the constraints homogeneously
    for r in rays:
        assert cone_contains(c, r)
        assert cone_contains(c, [2 * a for a in r])
    # functional sign law vs LP feasibility
    d = tuple(data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(dim))
    witness = nonneg_on_cone(d, c)
    assert lp_negative_feasible(d, c) == (witness is not None)
    if witness is not None:
        assert cone_contains(c, witness)
        assert dot(d, witness) < 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rays_are_extremal(data):
    _, dims, build = special_cone_strategy(general=True)
    dim = data.draw(st.integers(min_value=1, max_value=4))
    c = build(dim, data)
    rays = list(extremal_rays_special(c))
    lin = lineality_space(c)
    for i, r in enumerate(rays):
        others = [q for j, q in enumerate(rays) if j != i]
        for v in lin:
            others.append(v)
            others.append(tuple(-a for a in v))
        if others:
            assert not feasible_nonneg_combination(others, r)


# ---------------------------------------------------------------------------
# Weight cones


def test_weight_cone_matches_membership():
    tw = Twist(3, 0)
    pair = sl_pair((1, 0, -1), tw, {(1, 0), (2, 1)})
    for flag in enumerate_flags(pair):
        c = weight_cone(pair, flag)
        assert c.dim == len(flag)
        # trace-type equality present exactly once
        assert len(c.eqs) == 1


def test_weight_cone_pointwise_agreement():
    tw = Twist(2, 1)
    cases = [
        sl_pair((1, 0, -1), tw, {(1, 0), (2, 1)}),
        symplectic_pair((2, -2), tw, {(1, 0)}),
        sp_real_pair((1, -1), tw, beta={(0, 0)}, gamma={(1, 1)}),
    ]
    for pair in cases:
        for flag in enumerate_flags(pair):
            c = weight_cone(pair, flag)
            k = len(flag)
            for w in itertools.product(range(-2, 3), repeat=k):
                lam = tuple(Fraction(a) for a in w)
                member = cone_contains(c, lam)
                ordered = all(lam[i] <= lam[i + 1] for i in range(k - 1))
                if not ordered:
                    assert not member
                    continue
                group_ok = True
                if pair.group in (Group.SP2NC, Group.GLNR):
                    group_ok = all(lam[i] + lam[k - 1 - i] == 0 for i in range(k))
                elif pair.group is Group.SLNC:
                    sizes = [len(flag[0])] + [
                        len(b) - len(a) for a, b in zip(flag, flag[1:])
                    ]
                    group_ok = sum(s * l for s, l in zip(sizes, lam)) == 0
                assert member == (group_ok and pattern_compatible(pair, flag, lam))


def _summand_cone_pairs():
    """Every pattern of the small ranks at one degree list, and seeded
    patterns of the larger ones."""
    for group, ranks in [("Sp2nR", (1, 2)), ("SLnC", (1, 2, 3)),
                         ("GLnR", (1, 2, 3)), ("Sp2nC", (2,))]:
        yield from iter_instances(SweepSpec(group=group, ranks=ranks, degree_min=0,
                                            degree_max=0))
    rng = random.Random(5)
    for group, rank in [("Sp2nR", 3), ("Sp2nR", 4), ("Sp2nR", 5), ("SLnC", 4),
                        ("SLnC", 5), ("GLnR", 4), ("GLnR", 5), ("Sp2nC", 4)]:
        spec = SweepSpec(group=group, ranks=(rank,), degree_min=0, degree_max=0)
        for _ in range(60):
            yield next(_instances_at(spec, rank, (rng.randrange(_count_for_rank(spec, rank)),)))


def test_summand_cone_rays_match_the_oracle():
    # the summand cone has the special shapes: the double description gives
    # the {-1,0,1} search's exact tuples and the brute oracle's rays on every
    # cone built here, and so does the library's compile from the cone key,
    # with a lineality of the same span
    seen = set()
    for pair in _summand_cone_pairs():
        args = pair.group, pair.rank, pair.bundle.pairing, pair.pattern
        c = summand_cone(*args)
        if c in seen:
            continue
        seen.add(c)
        assert extremal_rays_special(c) == special_rays_oracle(c), pair.pattern
        oracle = brute_rays_oracle(c)
        assert set(extremal_rays_special(c)) == set(oracle.rays), pair.pattern
        compiled = _pattern_cone(*args)
        assert compiled.rays == extremal_rays_special(c), pair.pattern
        lin_a, lin_b = list(lineality_space(c)), list(oracle.lineality)
        lin_c = list(compiled.lineality)
        assert mat_rank(lin_a) == mat_rank(lin_b) == mat_rank(lin_c) == \
            mat_rank(lin_a + lin_b) == mat_rank(lin_a + lin_c)
    assert len(seen) > 400


def test_paired_weight_cone_rays_golden():
    tw = Twist(2, 1)
    pair = symplectic_pair((2, 1, -1, -2), tw, set())
    flag = ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3))
    c = weight_cone(pair, flag)
    assert extremal_rays_special(c) == ((-1, -1, 1, 1), (-1, 0, 0, 1))


# ---------------------------------------------------------------------------
# The {-1,0,1} search's pruned candidates, and fraction-free lineality


def full_scan_members(c: ConeSpec):
    """Reference for _special_members: every candidate of {-1,0,1}^dim, in
    itertools.product order, with the equalities handled as in
    special_rays_oracle (a trace-type equality is relaxed)."""
    pairs, zeros, positive = _classify_eqs(c.eqs, c.dim)
    if positive:
        pairs, zeros = [], []
    out = []
    for x in itertools.product((-1, 0, 1), repeat=c.dim):
        if (any(x) and all(x[i] + x[j] == 0 for i, j in pairs)
                and all(x[i] == 0 for i in zeros)
                and all(dot(h, x) <= 0 for h in c.ineqs)):
            out.append(x)
    return out


def pruned_members(c: ConeSpec):
    pairs, zeros, positive = _classify_eqs(c.eqs, c.dim)
    if positive:
        return _special_members(c.dim, c.ineqs, (), ())
    return _special_members(c.dim, c.ineqs, pairs, zeros)


@st.composite
def weight_cones(draw):
    """The weight cone of a random pattern on a random flag, dim <= 7.

    The flag is read off from summand levels: step t holds every summand
    whose level is at most the t-th smallest level.  Unpaired groups cut a
    random ordering of the summands into blocks of equal level; for the
    paired groups the levels are antisymmetric under the reversal pairing,
    which is what makes the flag pairing-compatible."""
    group = draw(st.sampled_from(list(Group)))
    if group is Group.SP2NC:
        rank = draw(st.sampled_from([2, 4, 6]))
    else:
        rank = draw(st.integers(min_value=1, max_value=7))
    sigma = reversal(rank) if group in (Group.SP2NC, Group.GLNR) else None
    index = st.integers(min_value=0, max_value=rank - 1)
    if sigma is None:
        order = draw(st.permutations(range(rank)))
        cuts = draw(st.sets(st.integers(1, rank - 1))) if rank > 1 else set()
        levels = [0] * rank
        for pos, i in enumerate(order):
            levels[i] = sum(c <= pos for c in cuts)
    else:
        levels = [0] * rank
        for i in range(rank // 2):
            levels[i] = draw(st.integers(-3, 3))
            levels[sigma[i]] = -levels[i]
    cuts = sorted(set(levels))
    flag = tuple(tuple(i for i in range(rank) if levels[i] <= t) for t in cuts)
    entries = draw(st.lists(st.tuples(index, index), max_size=5))
    if group is Group.SP2NR:
        split = draw(st.integers(0, len(entries)))
        beta = {e for (a, b) in entries[:split] for e in ((a, b), (b, a))}
        gamma = {e for (a, b) in entries[split:] for e in ((a, b), (b, a))}
        pattern = HiggsPattern("sym_pair", beta=frozenset(beta), gamma=frozenset(gamma))
        bundle = SplitBundle((0,) * rank)
    else:
        endo = {(t, s) for (t, s) in entries if t != s}
        if sigma is not None:
            endo |= {(sigma[s], sigma[t]) for (t, s) in endo}
        pattern = HiggsPattern("endo", endo=frozenset(endo))
        form = {Group.SP2NC: Form.SYMPLECTIC, Group.GLNR: Form.ORTHOGONAL}.get(group, Form.NONE)
        bundle = SplitBundle((0,) * rank, sigma, form, det_trivial=group is Group.SLNC)
    pair = HiggsPair(group, bundle, Twist(2, 0), pattern)
    return weight_cone(pair, flag)


@settings(max_examples=250, deadline=None)
@given(c=weight_cones())
def test_pruned_search_matches_full_scan(c):
    assert pruned_members(c) == full_scan_members(c)


def test_pruned_search_covers_every_equality_kind():
    def chain(*blocks):
        return tuple(tuple(sorted(sum(blocks[:t + 1], ()))) for t in range(len(blocks)))

    kinds = set()
    for pair, flag in (
        (sl_pair((3, 2, 1, 0, -1, -2, -3), Twist(2, 0), {(1, 0), (4, 2), (6, 5)}),
         chain((6,), (0,), (5,), (1,), (4,), (2,), (3,))),
        (sl_pair((3, 2, 1, 0, -1, -2, -3), Twist(2, 0), {(1, 0), (4, 2), (6, 5)}),
         chain((6, 2), (0,), (1, 5), (4, 3))),
        (symplectic_pair((3, 2, 1, -1, -2, -3), Twist(2, 0), {(1, 0), (5, 4)}),
         chain((0,), (1,), (2,), (3,), (4,), (5,))),
        (HiggsPair(Group.GLNR, SplitBundle((3, 2, 1, 0, -1, -2, -3), reversal(7),
                                           Form.ORTHOGONAL),
                   Twist(2, 0), HiggsPattern("endo", endo=frozenset({(1, 0), (6, 5)}))),
         chain((1,), (0,), (2,), (3,), (4,), (6,), (5,))),
    ):
        assert_flag(pair, flag)
        c = weight_cone(pair, flag)
        pairs, zeros, positive = _classify_eqs(c.eqs, c.dim)
        kinds |= {k for k, xs in (("pair", pairs), ("zero", zeros),
                                  ("trace", positive)) if xs}
        assert pruned_members(c) == full_scan_members(c)
    assert kinds == {"pair", "zero", "trace"}


@settings(max_examples=80, deadline=None)
@given(c=weight_cones())
def test_weight_cone_lineality_equals_nullspace(c):
    assert lineality_space(c) == tuple(rref_nullspace(c.ineqs + c.eqs, c.dim))


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rational_normal_lineality_equals_nullspace(data):
    dim = data.draw(st.integers(min_value=1, max_value=5))
    row = st.lists(fractions, min_size=dim, max_size=dim)
    ineqs = [h for h in data.draw(st.lists(row, max_size=4)) if any(h)]
    eqs = data.draw(st.lists(row, max_size=3))
    c = ConeSpec(dim, tuple(map(tuple, ineqs)), tuple(map(tuple, eqs)))
    assert all(type(a) is int for h in c.ineqs + c.eqs for a in h)
    assert lineality_space(c) == tuple(rref_nullspace(ineqs + eqs, dim))


def test_fractional_lineality_golden():
    c = cone(3, ineqs=[(1, "1/2", 0), (-1, "-1/2", 0)])
    assert c.ineqs == ((2, 1, 0), (-2, -1, 0))
    assert lineality_space(c) == ((Fraction(-1, 2), 1, 0), (0, 0, 1))
    assert lineality_space(c) == tuple(rref_nullspace(c.ineqs, 3))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_reps_match_the_rref_reduction(data):
    _, dims, build = special_cone_strategy()
    c = build(data.draw(st.integers(min_value=1, max_value=6)), data)
    members, lin = _special_candidates(c), lineality_space(c)
    red, piv = rref(lin)
    want = {primitive(reduce_mod_span(x, red, piv)) for x in members}
    assert _canonical_reps(members, lin, c.dim) == sorted(w for w in want if any(w))


# ---------------------------------------------------------------------------
# The {-1,0,1} search's rank test against the exact LP filter, and the double
# description against both


def _extremal_filter(reps):
    """LP reference: keep a candidate iff it is not a nonnegative
    combination of the other candidates (exact phase-1 simplex)."""
    out = []
    for i, r in enumerate(reps):
        others = [q for j, q in enumerate(reps) if j != i]
        if not others or not feasible_nonneg_combination(others, r):
            out.append(r)
    return out


def assert_rank_test_matches_lp(c: ConeSpec):
    reps = _canonical_reps(_special_candidates(c), lineality_space(c), c.dim)
    assert special_rays_oracle(c) == tuple(_extremal_filter(reps))
    assert extremal_rays_special(c) == special_rays_oracle(c)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_test_matches_lp_on_special_cones(data):
    _, dims, build = special_cone_strategy()
    dim = data.draw(st.integers(min_value=1, max_value=7))
    assert_rank_test_matches_lp(build(dim, data))


@settings(max_examples=200, deadline=None)
@given(c=weight_cones())
def test_rank_test_matches_lp_on_weight_cones(c):
    assert_rank_test_matches_lp(c)


def test_rank_test_matches_lp_on_every_flag():
    tw = Twist(2, 0)
    kinds = set()
    for pair in (
        sl_pair((1, 1, 0, -2), tw, {(1, 0), (3, 2), (2, 0)}),
        symplectic_pair((2, 1, -1, -2), tw, {(1, 0), (3, 2)}),
        orthogonal_pair((1, 0, 0, 0, -1), tw, {(1, 0), (4, 3)}),
        sp_real_pair((1, 0, -1), tw, {(0, 1), (1, 0)}, {(2, 2)}),
    ):
        for flag in enumerate_flags(pair):
            c = weight_cone(pair, flag)
            pairs, zeros, positive = _classify_eqs(c.eqs, c.dim)
            kinds |= {k for k, xs in (("pair", pairs), ("zero", zeros),
                                      ("trace", positive)) if xs}
            assert_rank_test_matches_lp(c)
    assert kinds == {"pair", "zero", "trace"}
