"""Stability checkers: frozen verdict goldens, cross-checker laws, and the
mini equivalence sweeps.

Expected values were derived by hand from the subbundle criteria (degree
sums over invariant subsets and admissible chains) before the checkers ran;
the general checker must reproduce them through the flag/cone route.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splithiggs.bundle import (
    NonzeroAlphaUnsupported,
    Twist,
    enumerate_flags,
    orthogonal_pair,
    sl_pair,
    sp_real_pair,
    step_index,
    symplectic_pair,
)
from splithiggs.cones import primitive
from splithiggs.stability import (
    PreconditionUnstable,
    Status,
    SweepSpec,
    classify_general,
    classify_simplified,
    count_instances,
    degree_consistency_check,
    equivalence_sweep,
    flag_data,
    iter_instances,
    polystable_general_taut,
    polystable_simplified,
    resolve_alpha,
    semistable_general,
    semistable_simplified,
    stable_general,
    stable_simplified,
)
from splithiggs.stability import _flags, _geometry, _int_coeffs, _idot

T = Twist(2, 0)


# ---------------------------------------------------------------------------
# Frozen verdict goldens


def test_symplectic_rank2_destabilized():
    # V = W + W* with deg W = 1; the field maps W* into W, so W itself is an
    # invariant isotropic subbundle of positive degree.
    pair = symplectic_pair((1, -1), T, {(0, 1)})
    v = semistable_general(pair)
    assert v.status is Status.UNSTABLE
    assert v.certificate.kind == "destabilizer"
    assert v.certificate.flag == ((0,), (0, 1))
    assert v.certificate.weights == (-1, 1)
    assert v.certificate.value == Fraction(-2)
    s = semistable_simplified(pair)
    assert s.status is Status.UNSTABLE
    assert s.certificate.subset == (0,)
    assert s.certificate.value == Fraction(1)  # deg of the destabilizer


def test_symplectic_rank2_strictly_semistable():
    # Same shape with deg W = 0: the invariant isotropic W has degree 0.
    pair = symplectic_pair((0, 0), T, {(0, 1)})
    assert semistable_general(pair).status is Status.SEMISTABLE_ONLY
    st_ = stable_general(pair)
    assert st_.status is Status.SEMISTABLE_ONLY
    assert st_.certificate.kind == "equality_witness"
    assert classify_simplified(pair).status is Status.SEMISTABLE_ONLY
    # the complement of the degree-0 invariant subset is not invariant
    assert polystable_simplified(pair).status is Status.SEMISTABLE_ONLY
    assert polystable_general_taut(pair).status is Status.SEMISTABLE_ONLY


def test_special_linear_nilpotent_strictly_semistable():
    # Two degree-0 lines with a single lower-triangular component: the target
    # line is invariant of degree 0 but its complement is not invariant.
    pair = sl_pair((0, 0), T, {(1, 0)})
    assert classify_general(pair).status is Status.SEMISTABLE_ONLY
    assert classify_simplified(pair).status is Status.SEMISTABLE_ONLY
    assert polystable_general_taut(pair).status is Status.SEMISTABLE_ONLY
    assert polystable_simplified(pair).status is Status.SEMISTABLE_ONLY


def test_special_linear_zero_field_equal_lines():
    # Zero field on two equal-degree lines: every subset is invariant with
    # degree 0, so nothing is stable, while the tautological splitting is
    # immediate (no entries to obstruct the degree-zero faces).
    pair = sl_pair((0, 0), T, set())
    v = stable_general(pair)
    assert v.status is Status.SEMISTABLE_ONLY
    assert v.certificate.kind == "equality_witness"
    assert polystable_general_taut(pair).status is Status.POLYSTABLE
    assert polystable_simplified(pair).status is Status.POLYSTABLE
    assert classify_general(pair).status is Status.POLYSTABLE


def test_real_rank1_both_fields_stable():
    pair = sp_real_pair((0,), T, {(0, 0)}, {(0, 0)})
    assert classify_general(pair, 0).status is Status.STABLE
    assert classify_simplified(pair, 0).status is Status.STABLE
    assert polystable_simplified(pair, 0).status is Status.POLYSTABLE


def test_real_rank1_parameter_thresholds():
    # Single line of degree 1 carrying only the symmetric field into the
    # bundle: the trivial-flag inequality reads deg V <= alpha * n.
    pair = sp_real_pair((1,), T, {(0, 0)}, set())
    for alpha, expect in [
        (Fraction(1, 2), Status.UNSTABLE),
        (1, Status.STABLE),
        (2, Status.STABLE),
    ]:
        assert classify_general(pair, alpha).status is expect
        assert classify_simplified(pair, alpha).status is expect
    # away from the wall the graded-form search also passes
    assert polystable_simplified(pair, 2).status is Status.POLYSTABLE
    assert polystable_general_taut(pair, 2).status is Status.POLYSTABLE


def test_real_rank1_wall_graded_form_refines():
    # At the wall deg V = alpha * n with a one-sided field, no splitting can
    # place the field in the weight-zero part for the nonzero one-step
    # weights, so the graded-form criterion refuses what the off-center
    # clause (which skips one-step flags) accepts.
    pair = sp_real_pair((1,), T, {(0, 0)}, set())
    assert stable_simplified(pair, 1).status is Status.STABLE
    assert stable_general(pair, 1).status is Status.STABLE
    assert polystable_general_taut(pair, 1).status is Status.POLYSTABLE
    v = polystable_simplified(pair, 1)
    assert v.status is Status.SEMISTABLE_ONLY
    assert v.certificate.flag == ((0,),)
    assert v.certificate.weights == (-1,)
    assert v.certificate.entry == ("beta", 0, 0)


def test_real_rank2_diagonal_stable():
    pair = sp_real_pair((0, 0), T, {(0, 0), (1, 1)}, {(0, 0), (1, 1)})
    assert classify_general(pair, 0).status is Status.STABLE
    assert classify_simplified(pair, 0).status is Status.STABLE
    assert polystable_simplified(pair, 0).status is Status.POLYSTABLE


def test_real_boundary_sum_not_polystable():
    # Direct sum of two wall factors (degree-1 lines with diagonal symmetric
    # field) at alpha = 1: strictly semistable, and the weight-zero test
    # fails on the degree-zero face of the two-step flag.
    pair = sp_real_pair((1, 1), T, {(0, 0), (1, 1)}, set())
    assert classify_general(pair, 1).status is Status.SEMISTABLE_ONLY
    v = polystable_general_taut(pair, 1)
    assert v.status is Status.SEMISTABLE_ONLY
    assert v.certificate.flag == ((0,), (0, 1))
    assert v.certificate.weights == (-2, -1)
    assert v.certificate.entry == ("beta", 0, 0)
    assert polystable_simplified(pair, 1).status is Status.SEMISTABLE_ONLY


def test_real_gamma_only_threshold():
    # gamma-only pattern: the empty chain pair gives deg V >= alpha * n.
    pair = sp_real_pair((0, 0), T, set(), {(0, 0), (1, 0), (0, 1)})
    assert semistable_general(pair, -1).status is Status.SEMISTABLE_ONLY
    assert semistable_simplified(pair, -1).status is Status.SEMISTABLE_ONLY
    assert semistable_general(pair, 1).status is Status.UNSTABLE
    assert semistable_simplified(pair, 1).status is Status.UNSTABLE


def test_polystable_requires_semistable():
    pair = symplectic_pair((1, -1), T, {(0, 1)})
    with pytest.raises(PreconditionUnstable):
        polystable_general_taut(pair)


# ---------------------------------------------------------------------------
# Parameter handling


def test_alpha_resolution():
    pair = sp_real_pair((1, 1), T, {(0, 0), (1, 1)}, set())
    assert resolve_alpha(pair, "mu") == Fraction(1)
    assert resolve_alpha(pair, "1/2") == Fraction(1, 2)
    assert resolve_alpha(pair, "-1") == Fraction(-1)
    assert resolve_alpha(pair, Fraction(3, 4)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        resolve_alpha(pair, "lambda")
    sl = sl_pair((0, 0), T, set())
    with pytest.raises(NonzeroAlphaUnsupported):
        resolve_alpha(sl, 1)
    assert resolve_alpha(sl, "mu") == 0  # slope of a trivial-determinant sum


# ---------------------------------------------------------------------------
# Cross-checker laws


def _sym_close(entries):
    return {e for (a, b) in entries for e in ((a, b), (b, a))}


@st.composite
def real_pairs(draw):
    n = draw(st.integers(1, 3))
    degrees = tuple(sorted(
        (draw(st.integers(-2, 2)) for _ in range(n)), reverse=True))
    slots = [(a, b) for a in range(n) for b in range(a, n)]
    beta = _sym_close(draw(st.sets(st.sampled_from(slots), max_size=len(slots))))
    gamma = _sym_close(draw(st.sets(st.sampled_from(slots), max_size=len(slots))))
    return sp_real_pair(degrees, T, beta, gamma)


@settings(max_examples=60, deadline=None)
@given(real_pairs(), st.sampled_from([-1, 0, 1, "mu"]))
def test_status_ladder_consistency(pair, alpha):
    semi = semistable_general(pair, alpha)
    if semi.status is Status.UNSTABLE:
        assert classify_general(pair, alpha).status is Status.UNSTABLE
        return
    strict = stable_general(pair, alpha)
    poly = polystable_general_taut(pair, alpha)
    if strict.status is Status.STABLE:
        # a stable pair meets the off-center weight-zero condition vacuously
        assert poly.status is Status.POLYSTABLE
    out = classify_general(pair, alpha).status
    if strict.status is Status.STABLE:
        assert out is Status.STABLE
    elif poly.status is Status.POLYSTABLE:
        assert out is Status.POLYSTABLE
    else:
        assert out is Status.SEMISTABLE_ONLY
    # the graded-form criterion never accepts more than the general probe
    if polystable_simplified(pair, alpha).status is Status.POLYSTABLE:
        assert poly.status is Status.POLYSTABLE


@settings(max_examples=60, deadline=None)
@given(real_pairs(), st.sampled_from([-1, 0, 1, "mu"]))
def test_general_matches_chains(pair, alpha):
    assert (semistable_general(pair, alpha).status is Status.UNSTABLE) == \
        (semistable_simplified(pair, alpha).status is Status.UNSTABLE)
    assert (stable_general(pair, alpha).status is Status.STABLE) == \
        (stable_simplified(pair, alpha).status is Status.STABLE)


def test_summand_relabeling_invariance():
    # Swapping the two equal-degree summands moves the pattern but cannot
    # move any verdict.
    for b1, b2 in [({(0, 0)}, {(1, 1)}),
                   ({(0, 0), (0, 1), (1, 0)}, {(1, 1), (0, 1), (1, 0)})]:
        p1 = sp_real_pair((0, 0), T, b1, set())
        p2 = sp_real_pair((0, 0), T, b2, set())
        for alpha in (-1, 0, 1):
            assert classify_general(p1, alpha).status is \
                classify_general(p2, alpha).status
            assert polystable_simplified(p1, alpha).status is \
                polystable_simplified(p2, alpha).status
    q1 = sl_pair((0, 0), T, {(1, 0)})
    q2 = sl_pair((0, 0), T, {(0, 1)})
    assert classify_general(q1).status is classify_general(q2).status


def test_zero_field_laws_real_group():
    # With a vanishing field, the pair is semistable exactly at the central
    # parameter value over an equal-degree sum, and stable only in rank one.
    for degrees in [(0,), (1,), (0, 0), (1, 0), (2, 2), (1, 1, 1), (2, 1, 0)]:
        pair = sp_real_pair(degrees, T, set(), set())
        mu = Fraction(sum(degrees), len(degrees))
        for alpha in (Fraction(-1), Fraction(0), Fraction(1), mu):
            semi = semistable_general(pair, alpha).status
            expect = alpha == mu and len(set(degrees)) <= 1
            assert (semi is not Status.UNSTABLE) == expect
            stab = stable_general(pair, alpha).status is Status.STABLE
            assert stab == (expect and len(degrees) == 1)


def test_rays_are_primitive():
    for pair in [
        symplectic_pair((2, 1, -1, -2), T, set()),
        sp_real_pair((1, 0), T, {(0, 0), (1, 1)}, {(0, 1), (1, 0)}),
        sl_pair((1, 0, -1), T, {(0, 1), (1, 2)}),
    ]:
        for fd in flag_data(pair):
            for r in fd.rays:
                assert tuple(primitive(r)) == r


def test_flag_table_matches_enumerate_flags():
    for pair in [
        sl_pair((1, 0, -1), T, {(0, 1)}),
        sp_real_pair((1, 0, 0, -1), T, set(), set()),
        symplectic_pair((2, 1, -1, -2), T, {(1, 0), (3, 2)}),
        orthogonal_pair((1, 0, 0, 0, -1), T, set()),
    ]:
        rows = _flags(pair)
        assert [flag for flag, _, _ in rows] == enumerate_flags(pair)
        for flag, steps, sizes in rows:
            assert steps == step_index(flag, pair.rank)
            assert sizes == tuple(len(b) - len(a) for a, b in zip(((),) + flag, flag))
        # the geometry rows reference the table's flag tuples
        assert all(g[0] is f[0] for g, f in zip(_geometry(pair), rows))
        assert [fd.flag for fd in flag_data(pair)] == [f[0] for f in rows]
    # flags depend on rank and pairing only: Sp2nC and GLnR share the rows
    sp = symplectic_pair((1, 0, 0, -1), T, set())
    gl = orthogonal_pair((2, 0, 0, -2), T, {(1, 0), (3, 2)})
    assert _flags(sp) is _flags(gl)


def test_certificate_is_lex_least():
    # Independent scan: the reported destabilizer must be the lex-least
    # (flag, ray) violation over the whole flag list.
    pair = symplectic_pair((2, 1, -1, -2), T, set())
    alpha = resolve_alpha(pair, 0)
    violations = []
    for fd in flag_data(pair):
        c = _int_coeffs(fd, alpha)
        for r in fd.rays:
            if _idot(c, r) < 0:
                violations.append((fd.flag, r))
    assert violations, "test pair must be unstable"
    flag, ray = min(violations)
    v = semistable_general(pair, 0)
    assert v.status is Status.UNSTABLE
    assert v.certificate.flag == flag
    assert v.certificate.weights == ray


def test_verdicts_are_deterministic():
    pair = sp_real_pair((1, 0), T, {(0, 0), (1, 1)}, {(0, 1), (1, 0)})
    a = classify_general(pair, "mu")
    b = classify_general(pair, "mu")
    assert a == b


# ---------------------------------------------------------------------------
# Degree bookkeeping


def test_degree_consistency_examples():
    pair = sl_pair((1, -1), T, set())
    flag = ((0,), (0, 1))
    assert degree_consistency_check(pair, flag, (Fraction(-1), Fraction(1)))
    assert degree_consistency_check(pair, flag, (Fraction(2), Fraction(2)))
    pair2 = sp_real_pair((2, 1, 0), T, set(), set())
    flag2 = ((1,), (1, 2), (0, 1, 2))
    assert degree_consistency_check(
        pair2, flag2, (Fraction(-3), Fraction(-1), Fraction(2)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_degree_consistency_random(data):
    n = data.draw(st.integers(1, 5))
    degrees = tuple(sorted(
        (data.draw(st.integers(-3, 3)) for _ in range(n)), reverse=True))
    pair = sp_real_pair(degrees, T, set(), set())
    cuts = sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=0, max_size=n - 1)))
    perm = data.draw(st.permutations(range(n)))
    steps, prev = [], []
    for c in cuts:
        steps.append(tuple(sorted(perm[: c + 1])))
    steps.append(tuple(sorted(perm)))
    flag = tuple(dict.fromkeys(steps))
    lam = sorted(data.draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=len(flag), max_size=len(flag))))
    assert degree_consistency_check(pair, flag, tuple(lam))


# ---------------------------------------------------------------------------
# Sweep harness


@pytest.mark.parametrize("group,ranks,alphas", [
    ("Sp2nC", (2,), ("0",)),
    ("SLnC", (1, 2), ("0",)),
    ("Sp2nR", (1, 2), ("-1", "0", "1", "mu")),
    ("GLnR", (1, 2), ("0",)),
])
def test_mini_sweep_agreement(group, ranks, alphas):
    spec = SweepSpec(group=group, ranks=ranks, alphas=alphas)
    n = count_instances(spec)
    assert sum(1 for _ in iter_instances(spec)) == n
    rep = equivalence_sweep(spec)
    assert rep.instances == n
    assert rep.checks == n * len(alphas)
    assert rep.agreement_ok
    assert not rep.mismatches
    assert not rep.poly_implication_failures
    assert rep.elapsed_ms >= 0
    js = rep.to_json()
    assert js["instances"] == n
    assert all(isinstance(k, str) for k in js["semistable_agreement"])
    assert js["semistable_agreement"].get("general=True simplified=False", 0) == 0
    assert js["semistable_agreement"].get("general=False simplified=True", 0) == 0


def test_real_rank1_sweep_logs_wall_refinements():
    spec = SweepSpec(group="Sp2nR", ranks=(1,), alphas=("-1", "0", "1", "mu"))
    rep = equivalence_sweep(spec)
    assert rep.agreement_ok
    assert rep.poly_disagreements, "wall cases must be logged"
    for d in rep.poly_disagreements:
        assert d["general_taut"] and not d["simplified"]


def test_sweep_budget_is_deterministic():
    spec = SweepSpec(group="Sp2nR", ranks=(2,), alphas=("0",), budget=40)
    assert count_instances(spec) == 40
    first = list(iter_instances(spec))
    second = list(iter_instances(spec))
    assert first == second
    assert len(first) == 40


def test_sweep_collects_polystable_instances():
    spec = SweepSpec(group="Sp2nR", ranks=(1,), alphas=("0", "mu"))
    rep = equivalence_sweep(spec, collect_polystable=True)
    assert rep.polystable_found
    for row in rep.polystable_found:
        assert set(row) >= {"degrees", "alpha", "stable"}
