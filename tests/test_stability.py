"""Stability checkers: frozen verdict goldens, cross-checker laws, and the
mini equivalence sweeps.

Expected values were derived by hand from the subbundle criteria (degree
sums over invariant subsets and admissible chains) before the checkers ran;
the general checker must reproduce them through the flag/cone route.
"""
import dataclasses
import itertools
import random
import time
import tracemalloc
import types
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splithiggs import bundle, cli, cones, jordan, linalg, roots, stability
from splithiggs.bundle import (
    Group,
    HiggsPattern,
    NonzeroAlphaUnsupported,
    Twist,
    enumerate_flags,
    flag_count,
    orthogonal_pair,
    reversal,
    sl_pair,
    sp_real_pair,
    step_index,
    symplectic_pair,
)
from splithiggs.cli import cmd_sweep
from splithiggs.cones import primitive
from splithiggs.linalg import idot
from splithiggs.stability import (
    SWEEP_INSTANCE_CAP,
    PreconditionUnstable,
    Status,
    SweepSpec,
    classify_general,
    classify_simplified,
    count_instances,
    degree_consistency_check,
    degree_list_count,
    equivalence_sweep,
    flag_data,
    polystable_general_taut,
    polystable_simplified,
    resolve_alpha,
    semistable_general,
    semistable_simplified,
    stable_general,
    stable_simplified,
)
from splithiggs.stability import (
    _count_for_rank,
    _degree_list_at,
    _degree_list_total,
    _walk_to_witness,
    _int_coeffs,
)

from bundle_helpers import (DEGREE_WINDOW_WORK, instances_at, iter_instances,
                            reference_degree_lists)
from compile_oracles import compile_cone, compile_subobjects, cone_form, cone_parts

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


@pytest.mark.parametrize("alpha", [0.1, 0.0, True, False, None, Decimal("0.5")])
def test_alpha_of_another_type_is_refused(alpha):
    # a float or bool would become a Fraction silently: 0.1 is not 1/10
    pair = sp_real_pair((1, 1), T, {(0, 0), (1, 1)}, set())
    with pytest.raises(TypeError):
        resolve_alpha(pair, alpha)
    with pytest.raises(TypeError):
        classify_general(pair, alpha)
    with pytest.raises(TypeError):
        equivalence_sweep(SweepSpec(group="Sp2nR", ranks=(1,), alphas=(alpha,)))


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
    # the certify walk visits the flags of enumerate_flags in its order,
    # each with its step index and step sizes
    for pair in [
        sl_pair((1, 0, -1), T, {(0, 1)}),
        sp_real_pair((1, 0, 0, -1), T, set(), set()),
        symplectic_pair((2, 1, -1, -2), T, {(1, 0), (3, 2)}),
        orthogonal_pair((1, 0, 0, 0, -1), T, set()),
    ]:
        walk = []
        with pytest.raises(AssertionError):  # nothing fires: every flag is walked
            _walk_to_witness(pair, Fraction(0), lambda fd, c: walk.append(fd))
        assert [fd.flag for fd in walk] == enumerate_flags(pair)
        assert walk == flag_data(pair)
        assert len(walk) == flag_count(pair)
        for fd in walk:
            assert fd.steps == step_index(fd.flag, pair.rank)
            assert fd.size_jumps == tuple(
                len(b) - len(a) for a, b in zip(((),) + fd.flag, fd.flag))


def test_flags_share_geometry_through_the_irredundant_cone():
    # on every flag of seeded patterns of every group at ranks 1-5: the
    # irredundant normals are a subset of weight_cone's, both cones have the
    # same rays and lineality basis, and every flag witness certifies the
    # same on either
    rng = random.Random(15)
    checked, reduced, fired = 0, 0, 0
    for group in Group:
        for rank in range(2 if group is Group.SP2NC else 1, 6, 2 if group is Group.SP2NC else 1):
            spec = SweepSpec(group=group, ranks=(rank,), degree_min=-2, degree_max=2)
            count = _count_for_rank(spec, rank)
            for pair in instances_at(spec, rank, sorted(rng.sample(range(count), min(count, 3)))):
                alphas = {resolve_alpha(pair, a) for a in (0, "mu")}
                if group is Group.SP2NR:
                    alphas |= {Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)}
                for fd in flag_data(pair):
                    cone = cones.flag_cone_key(group, pair.pattern, fd.flag, fd.steps).cone()
                    full = cones.weight_cone(pair, fd.flag)
                    assert set(cone.ineqs) <= set(full.ineqs) and cone.eqs == full.eqs
                    reduced += len(cone.ineqs) < len(full.ineqs)
                    whole = dataclasses.replace(fd, rays=cones.extremal_rays_special(full),
                                                lineality=cones.lineality_space(full))
                    assert (whole.rays, whole.lineality) == (fd.rays, fd.lineality)
                    for a in alphas:
                        c = _int_coeffs(fd, a)
                        found = stability._destabilizer(fd, c, a.denominator)
                        assert found == stability._destabilizer(whole, c, a.denominator)
                        fired += found is not None
                        assert stability._equality_witness(fd, c) == \
                            stability._equality_witness(whole, c)
                        for trivial in (False, True):
                            assert stability._taut_witness(fd, c, pair.pattern, trivial) == \
                                stability._taut_witness(whole, c, pair.pattern, trivial)
                    checked += 1
    # most flags drop a normal, and many certificates fire
    assert checked > 3000 and reduced > checked // 2 and fired > 500


def test_a_flag_cone_has_lineality_only_on_the_real_symplectic_zero_field(monkeypatch):
    # on every flag of seeded patterns and the zero field of every group at
    # ranks 1-6: the chain's normals, all tight, force a constant vector,
    # which every group equality and every beta or gamma normal forbids.  A
    # cold walk runs one double description per flag key and fills only the
    # flag geometry table, not the ray and lineality caches
    stability._flag_geometry.cache_clear()
    side = [cones.extremal_rays_special, cones.lineality_space]
    sizes = [f.cache_info().currsize for f in side]
    runs = []
    monkeypatch.setattr(stability, "double_description",
                        lambda cone: runs.append(cone) or cones.double_description(cone))
    rng = random.Random(27)
    walked = 0
    for group in Group:
        for rank in range(2 if group is Group.SP2NC else 1, 7, 2 if group is Group.SP2NC else 1):
            spec = SweepSpec(group=group, ranks=(rank,), degree_min=-2, degree_max=2)
            count = _count_for_rank(spec, rank)
            pairs = list(instances_at(spec, rank, sorted(rng.sample(range(count), min(count, 2)))))
            for pair in pairs + [dataclasses.replace(pairs[0], pattern=HiggsPattern())]:
                zero = group is Group.SP2NR and pair.pattern == HiggsPattern()
                for flag in enumerate_flags(pair):
                    lin = stability.single_flag_data(pair, flag).lineality
                    assert lin == (((1,) * len(flag),) if zero else ()), (pair, flag)
                    walked += 1
    assert [f.cache_info().currsize for f in side] == sizes
    assert len(runs) == stability._flag_geometry.cache_info().currsize > 500
    assert walked > 20000


def test_certificate_is_lex_least():
    # Independent scan: the reported destabilizer must be the lex-least
    # (flag, ray) violation over the whole flag list.
    pair = symplectic_pair((2, 1, -1, -2), T, set())
    alpha = resolve_alpha(pair, 0)
    violations = []
    for fd in flag_data(pair):
        c = _int_coeffs(fd, alpha)
        for r in fd.rays:
            if idot(c, r) < 0:
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


def _endo_orbits(rank):
    """Orbits of entries under the closure (t,s) -> (sigma(s), sigma(t))."""
    sigma = reversal(rank)
    seen = set()
    orbits = []
    for t in range(rank):
        for s in range(rank):
            if (t, s) in seen:
                continue
            orb = {(t, s), (sigma[s], sigma[t])}
            seen |= orb
            orbits.append(tuple(sorted(orb)))
    return orbits


def _subsets(slots):
    for r in range(len(slots) + 1):
        yield from itertools.combinations(slots, r)


def _close_sym(slots):
    out = set()
    for (a, b) in slots:
        out.add((a, b))
        out.add((b, a))
    return out


def reference_instances(spec, rank):
    """The instances of one rank, each group's layout written out as nested
    loops: degree list outermost, then the patterns in subset order."""
    tw = Twist(spec.twist_ell, spec.genus)
    degree_lists = reference_degree_lists(spec.group, spec.degree_min, spec.degree_max, rank)
    if spec.group in (Group.SP2NC, Group.GLNR):
        make = symplectic_pair if spec.group is Group.SP2NC else orthogonal_pair
        for degrees in degree_lists:
            for orbs in _subsets(_endo_orbits(rank)):
                yield make(degrees, tw, set(itertools.chain.from_iterable(orbs)))
    elif spec.group is Group.SLNC:
        all_entries = [(t, s) for t in range(rank) for s in range(rank)]
        for degrees in degree_lists:
            for entries in _subsets(all_entries):
                yield sl_pair(degrees, tw, set(entries))
    else:
        sym_slots = [(a, b) for a in range(rank) for b in range(a, rank)]
        for degrees in degree_lists:
            for beta in _subsets(sym_slots):
                for gamma in _subsets(sym_slots):
                    yield sp_real_pair(degrees, tw, _close_sym(beta), _close_sym(gamma))


@pytest.mark.parametrize("window", [(-1, 1), (0, 0), (1, 2), (-2, -1)])
@pytest.mark.parametrize("group,ranks", [
    ("Sp2nC", (2, 4)),
    ("SLnC", (1, 2, 3)),
    ("Sp2nR", (1, 2, 3)),
    ("GLnR", (1, 2, 3, 4)),
])
def test_indexed_and_streamed_instances_agree(monkeypatch, group, ranks, window):
    # each index alone, and the sweep's draws of exhaustive and budgeted
    # sweeps, decode to the reference layout; the sweep walks the same
    # degree lists and builds one bundle per list it visits
    spec = SweepSpec(group=group, ranks=ranks, degree_min=window[0],
                     degree_max=window[1])
    every = []
    for r in ranks:
        want = list(reference_instances(spec, r))
        assert len(want) == _count_for_rank(spec, r)
        assert [next(instances_at(spec, r, (i,))) for i in range(len(want))] == want
        every += want
    built = []

    def counted(group, degrees, pairing=None, _make=stability.group_bundle):
        built.append((len(degrees), tuple(degrees)))
        return _make(group, degrees, pairing)

    monkeypatch.setattr(stability, "group_bundle", counted)
    budgeted = dataclasses.replace(spec, budget=37)
    picked = sorted(random.Random(0).sample(range(len(every)), 37)) \
        if len(every) > 37 else range(len(every))
    for sweep, want in ((spec, every), (budgeted, [every[i] for i in picked])):
        assert list(iter_instances(sweep)) == want
        built.clear()
        assert equivalence_sweep(sweep).instances == len(want)
        assert built == list(dict.fromkeys((p.rank, p.bundle.degrees) for p in want))


_CONSTRUCTORS = [
    ("Sp2nC", (2,), "symplectic_pair"),
    ("SLnC", (2,), "sl_pair"),
    ("Sp2nR", (1, 2), "sp_real_pair"),
    ("GLnR", (1, 2, 3), "orthogonal_pair"),
]


@pytest.mark.parametrize("group,ranks,name", _CONSTRUCTORS)
def test_sweeps_build_each_pattern_once_at_the_module_constructor(monkeypatch, group, ranks,
                                                                  name):
    # the benchmark's tracer wraps the constructors at these names; a sweep
    # calls one once per distinct pattern, and not again for a repeated spec
    calls = []

    def counted(*args, _make=getattr(stability, name)):
        calls.append(args)
        return _make(*args)

    monkeypatch.setattr(stability, name, counted)
    for budget in (None, 7):
        stability._pattern_at.cache_clear()
        calls.clear()
        spec = SweepSpec(group=group, ranks=ranks, degree_min=-1, degree_max=1,
                         budget=budget)
        report = equivalence_sweep(spec)
        patterns = {(pair.rank, pair.pattern) for pair in iter_instances(spec)}
        assert len(calls) == len(patterns) > 0
        assert report.instances == count_instances(spec)
        if budget is None:
            assert len(patterns) == sum(stability._pattern_count(spec.group, r) for r in ranks)
            assert len(patterns) < report.instances
        calls.clear()
        equivalence_sweep(spec)
        assert calls == []


@pytest.mark.parametrize("group,ranks", [c[:2] for c in _CONSTRUCTORS])
def test_instances_share_one_pattern_object(group, ranks):
    spec = SweepSpec(group=group, ranks=ranks, degree_min=-1, degree_max=1)
    every = iter_instances(spec)
    for r in ranks:
        pairs = list(itertools.islice(every, _count_for_rank(spec, r)))
        assert all(pair.pattern is next(instances_at(spec, r, (i,))).pattern
                   for i, pair in enumerate(pairs))


@pytest.mark.parametrize("group,ranks,name", _CONSTRUCTORS)
def test_sweeps_still_validate_each_pattern(monkeypatch, group, ranks, name):
    # the pattern table is filled through the constructor, so its
    # validation still refuses what it would refuse per instance
    def refuse(*args):
        raise bundle.ModelError("refused pattern")

    monkeypatch.setattr(stability, name, refuse)
    stability._pattern_at.cache_clear()
    for budget in (None, 7):
        spec = SweepSpec(group=group, ranks=ranks, degree_min=-1, degree_max=1,
                         budget=budget)
        with pytest.raises(bundle.ModelError, match="refused pattern"):
            equivalence_sweep(spec)


@pytest.mark.parametrize("group", list(Group))
def test_degree_list_count_matches_the_built_lists(group):
    for lo in range(-4, 3):
        for hi in range(lo, 4):
            for rank in range(1, 6):
                if group is Group.SLNC:  # every monotone tuple, before the sum filter
                    built = list(itertools.combinations_with_replacement(
                        range(hi, lo - 1, -1), rank))
                else:
                    built = list(reference_degree_lists(group, lo, hi, rank))
                assert degree_list_count(group, lo, hi, rank, 10 ** 9) == len(built)


@pytest.mark.parametrize("window", [(1, 2), (-2, -1)])
def test_paired_window_without_zero_has_no_instances(window):
    # every paired degree list holds 0 or a pair x, -x, so neither fits
    for group, ranks in (("GLnR", (1,)), ("GLnR", (1, 2, 3)), ("Sp2nC", (2,))):
        spec = SweepSpec(group=group, ranks=ranks, degree_min=window[0],
                         degree_max=window[1])
        assert count_instances(spec) == 0
        assert all(degree_list_count(Group(group), *window, r, 10) == 0 for r in ranks)
        report = equivalence_sweep(spec)
        assert report.instances == report.checks == 0
        doc = {"group": group, "ranks": list(ranks), "degree_min": window[0],
               "degree_max": window[1]}
        out, code = cmd_sweep(doc)
        assert code == 0 and out["instances"] == out["engine"]["instance_counts"] == 0


def test_degree_list_count_stops_above_the_limit():
    assert degree_list_count(Group.SP2NR, -20, 20, 3, 10 ** 9) == 12341
    assert degree_list_count(Group.SP2NR, -100000, 100000, 3, 10 ** 6) > 10 ** 6
    # a huge window or rank takes a few steps, not one per value
    assert degree_list_count(Group.SLNC, 0, 0, 10 ** 9, 10) == 1
    assert degree_list_count(Group.GLNR, -(10 ** 9), 10 ** 9, 10 ** 9, 10) > 10


def test_sum_zero_degree_lists_match_the_filtered_draws():
    # the counted and unranked SLnC lists against every monotone tuple of the
    # window filtered by its sum, in the same order, the empty list of rank 0 too
    for lo in range(-10, 1):
        for hi in range(-1, 11):
            for rank in range(6):
                want = tuple(t for t in itertools.combinations_with_replacement(
                    range(hi, lo - 1, -1), rank) if sum(t) == 0)
                total = _degree_list_total(Group.SLNC, lo, hi, rank)
                assert tuple(_degree_list_at(Group.SLNC, lo, hi, rank, i)
                             for i in range(total)) == want


def _assert_compiles_alike(group, n, pattern, pairing=None):
    """The key compiles of a pattern against the pattern path they
    replaced, on the key's form (compile_oracles), whose strong closure is
    the key: the same subobjects, and the same generators read back by
    cone_parts: the rays in order with their sums and bits, the lineality
    pairs' bits, and their span with the same int_echelon rows as
    lineality_space, so the same cone.  Returns the key and its compiles
    with the lineality as those rows."""
    pairing = pairing or bundle.group_bundle(group, (0,) * n).pairing
    key = stability._cone_key(group, n, pairing, pattern)
    form = cone_form(key, n)
    assert stability._cone_key(group, n, pairing, form) == key
    subobjects = stability._key_subobjects(group, n, pairing, key)
    assert subobjects == compile_subobjects(group, n, pairing, form)
    got = cone_parts(stability._key_cone(group, n, pairing, key), n)
    assert got == cone_parts(compile_cone(group, n, pairing, form), n)
    return key, (*got, subobjects)


def _paired_patterns(n, sigma, rng, sample):
    """Every endo pattern closed under (t,s) -> (sigma(s), sigma(t)), or a
    seeded sample of them."""
    orbits = sorted({tuple(sorted({(t, s), (sigma[s], sigma[t])}))
                     for t in range(n) for s in range(n)})
    picks = range(1 << len(orbits)) if sample is None else \
        (rng.getrandbits(len(orbits)) for _ in range(sample))
    for bits in picks:
        yield HiggsPattern(endo={e for k, orbit in enumerate(orbits) if bits >> k & 1
                                 for e in orbit})


def _key_census_cases(group, rng):
    """(rank, pairing, pattern, key): every sweep pattern of ranks <= 3 and
    40 seeded ones of each rank 4-6 (Sp2nR up to 5), with the key
    _pattern_at gives it; for the paired groups also the patterns under
    every non-reversal pairing of ranks <= 3 and 40 under a seeded one of
    each rank 4-6, with no key."""
    for n in range(1, 6 if group is Group.SP2NR else 7):
        if group is Group.SP2NC and n % 2:
            continue
        count = stability._pattern_count(group, n)
        for index in range(count) if n <= 3 else rng.sample(range(count), 40):
            yield (n, None, *stability._pattern_at(group, n, index))
        if group not in (Group.GLNR, Group.SP2NC):
            continue
        involutions = [p for p in itertools.permutations(range(n))
                       if all(p[p[i]] == i for i in range(n)) and p != bundle.reversal(n)
                       and (group is Group.GLNR or all(p[i] != i for i in range(n)))]
        for sigma in involutions if n <= 3 else [rng.choice(involutions)]:
            for pattern in _paired_patterns(n, sigma, rng, None if n <= 3 else 40):
                yield n, sigma, pattern, None


@pytest.mark.parametrize("group", list(Group))
def test_one_cone_key_per_cone(group):
    # the strong closure is a normal form: on every case of _key_census_cases
    # the key compiles match the pattern path, on the key's form and on the
    # pattern itself, a sweep pattern's key is the one _pattern_at gives it,
    # and two patterns of one rank and pairing have equal keys iff they have
    # equal compiles (rays, ray sums and bits, lineality rows, subobjects)
    rng = random.Random(16)
    keys, compiles = {}, {}
    for n, sigma, pattern, swept in _key_census_cases(group, rng):
        pairing = sigma or bundle.group_bundle(group, (0,) * n).pairing
        key, compiled = _assert_compiles_alike(group, n, pattern, pairing)
        assert swept is None or swept == key
        assert keys.setdefault((n, pairing, compiled), key) == key
        assert compiles.setdefault((n, pairing, key), compiled) == compiled
        form = cone_form(key, n)
        for compile_ in (compile_cone, compile_subobjects):
            assert compile_(group, n, pairing, form) == compile_(group, n, pairing, pattern)
    assert len(keys) > 1


def test_rank12_key_compiles_match_the_pattern_path():
    # the Sp2nR zero field (3^12 chains) and beta star (entries (0, j))
    star = {e for j in range(1, 12) for e in ((0, j), (j, 0))}
    for beta in (set(), star):
        stability._key_subobjects.cache_clear()
        _assert_compiles_alike(Group.SP2NR, 12, HiggsPattern(beta=beta))


def test_patterns_with_one_cone_through_zero_get_one_key():
    # w_0 = 0 (beta and gamma (0,0)) with beta (0,1) (w_0 + w_1 <= 0) or
    # with beta (1,1) (w_1 <= 0) is one cone; so is beta (0,1) with gamma
    # (0,0), (1,1), all four literals zero, against its form beta and gamma
    # (0,0), (1,1).  The transitive closures of each two differ (only the
    # first has a path +w_1 -> -w_0), and their strong closures are one key
    def sym(beta, gamma):
        return HiggsPattern(beta=beta, gamma=gamma)

    for one, other in [(sym({(0, 0), (0, 1), (1, 0)}, {(0, 0)}), sym({(0, 0), (1, 1)}, {(0, 0)})),
                       (sym({(0, 1), (1, 0)}, {(0, 0), (1, 1)}),
                        sym({(0, 0), (1, 1)}, {(0, 0), (1, 1)}))]:
        key, compiled = _assert_compiles_alike(Group.SP2NR, 2, one)
        assert _assert_compiles_alike(Group.SP2NR, 2, other) == (key, compiled)
    assert key == (0b1111,) * 4 and cone_form(key, 2) == other


def test_chain_rows_match_the_membership_rule():
    # the Sp2nR subobjects' masks, decoded as certificates decode them,
    # against the admissible chains in order, and their alpha coefficients
    # against the membership rule c_i = 1 - [i in S1] - [i in S2],
    # B = sum(c), and A = c.d read from the subset-sum table on seeded
    # degrees, on the zero pattern and seeded patterns
    rng = random.Random(5)
    for n in range(1, 8):
        sym = [(a, b) for a in range(n) for b in range(a, n)]
        for p in (0, 0.15, 0.3, 0.5):
            beta, gamma = ({e for a, b in sym if rng.random() < p for e in ((a, b), (b, a))}
                           for _ in range(2))
            pattern = HiggsPattern(beta=beta, gamma=gamma)
            s = stability._key_subobjects(Group.SP2NR, n, None,
                                            stability._cone_key(Group.SP2NR, n, None, pattern))
            chains = bundle.admissible_chain_pairs(
                sp_real_pair((0,) * n, bundle.Twist(99, 0), beta, gamma))
            rows = [tuple(1 - (i in s1) - (i in s2) for i in range(n)) for s1, s2 in chains]
            assert [(stability._members(lo), stability._members(hi))
                    for lo, hi in zip(s.s1, s.s2)] == chains
            assert list(s.sums) == list(map(sum, rows)) and len(chains) > 0
            degrees = tuple(sorted((rng.randint(-9, 9) for _ in range(n)), reverse=True))
            stability._key_subobjects.cache_clear()
            inputs = stability.PairInputs.of(
                sp_real_pair(degrees, bundle.Twist(99, 0), beta, gamma))
            got, t = inputs.subobjects(), inputs.subset_sums()
            assert got == s
            assert [t[-1] - t[lo] - t[hi] for lo, hi in zip(got.s1, got.s2)] == \
                [sum(c * d for c, d in zip(r, degrees)) for r in rows]


@pytest.mark.parametrize("group", list(Group))
def test_degree_lists_are_counted_and_unranked_as_streamed(group):
    # every index of every window in [-5, 5], paired windows without 0 and
    # the SLnC rank 0 included, against the textbook listing
    for lo in range(-5, 6):
        for hi in range(lo, 6):
            for rank in range(0 if group is Group.SLNC else 1, 7):
                want = list(reference_degree_lists(group, lo, hi, rank))
                assert _degree_list_total(group, lo, hi, rank) == len(want)
                assert [_degree_list_at(group, lo, hi, rank, i)
                        for i in range(len(want))] == want


@pytest.mark.parametrize("group,ranks", [
    ("Sp2nC", (2, 4)), ("SLnC", (1, 2, 3)), ("Sp2nR", (1, 2, 3)), ("GLnR", (1, 3, 5)),
])
def test_budgeted_sweeps_decode_without_the_stream(monkeypatch, group, ranks):
    # a budgeted sweep unranks its draws: each distinct drawn degree list is
    # unranked and its bundle built once
    spec = SweepSpec(group=group, ranks=ranks, degree_min=-4, degree_max=4, budget=60)
    got = list(iter_instances(spec))
    built = []

    def counted(group, degrees, pairing=None, _make=stability.group_bundle):
        built.append(tuple(degrees))
        return _make(group, degrees, pairing)

    monkeypatch.setattr(stability, "group_bundle", counted)
    assert equivalence_sweep(spec).instances == len(got) == 60
    assert built == list(dict.fromkeys(p.bundle.degrees for p in got))
    assert len(built) < len(got)


def test_the_chain_compile_holds_three_pointers_per_chain():
    # Sp2nR rank 10, zero field: all 3^10 chains, held as two mask tuples
    # and their alpha coefficients with one int object per mask, within 10%
    # of three 8-byte pointers per chain; the filing under S1 peaks below
    # 4 MB (the pattern path's enumeration peaked at about 7 MB here)
    key = stability._cone_key(Group.SP2NR, 10, None, HiggsPattern())
    tracemalloc.start()
    chains = stability._key_subobjects.__wrapped__(Group.SP2NR, 10, None, key)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(chains.s1) == 3 ** 10 and len(chains.improper) == 3
    assert held < 1.1 * 24 * 3 ** 10
    assert peak < 4_000_000


def test_a_budgeted_sweep_over_a_huge_window_holds_nothing():
    # 736,281 Sp2nR rank-6 lists per window: one draw unranks one list, in
    # far less time than listing the window takes, and no cache keeps an
    # entry for the window once the sweep is done
    spec = SweepSpec(group="Sp2nR", ranks=(6,), degree_min=-12, degree_max=13, budget=1)
    assert _degree_list_total(spec.group, -12, 13, 6) == 736281
    list(iter_instances(spec))  # the rank's slot table and first pattern
    caches = [f for module in (bundle, cones, linalg, roots, stability)
              for f in vars(module).values() if hasattr(f, "cache_info")]
    for shift in (1, 2, 3):
        window = dataclasses.replace(spec, degree_min=-12 - shift, degree_max=13 - shift)
        sizes = [f.cache_info().currsize for f in caches]
        tracemalloc.start()
        start = time.process_time()
        pair, = iter_instances(window)
        elapsed = time.process_time() - start
        del pair
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert elapsed < 0.1
        assert held < 50_000
        grown = {f.__name__ for f, n in zip(caches, sizes) if f.cache_info().currsize != n}
        assert grown <= {"_pattern_at"}


def test_an_unbudgeted_sweep_at_the_cap_holds_nothing():
    # 250,000 Sp2nR rank-1 lists of 4 patterns each, exactly the cap: the
    # sweep walks its indices as a range, so the first instance comes at
    # once and nothing in proportion to the window is held while it runs
    spec = SweepSpec(group="Sp2nR", ranks=(1,), degree_min=-124_999, degree_max=125_000)
    assert count_instances(spec) == SWEEP_INSTANCE_CAP
    next(iter_instances(spec))  # the rank's slot table and first pattern
    tracemalloc.start()
    start = time.process_time()
    instances = iter_instances(spec)
    first = next(instances)
    elapsed = time.process_time() - start
    held, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert first.bundle.degrees == (125_000,)
    assert elapsed < 0.1
    assert held < 50_000


def test_a_sweep_holds_one_degree_lists_decisions(monkeypatch):
    # 2,500 Sp2nR rank-1 degree lists of 4 patterns each, at an alpha where
    # no row is reported: each list's decision table is dropped when the
    # next list starts, so it never holds more than one list's keys, and
    # the sweep's traced peak stays far below the 9 MB a table over the
    # window's (degree list, cone key)s holds here
    spec = SweepSpec(group="Sp2nR", ranks=(1,), degree_min=-1249, degree_max=1250,
                     alphas=("1/2",))
    equivalence_sweep(dataclasses.replace(spec, degree_min=0, degree_max=0))  # the compiles
    held = []
    tally = stability._tally
    monkeypatch.setattr(stability, "_tally",
                        lambda report, table: held.append(len(table)) or tally(report, table))
    tracemalloc.start()
    report = equivalence_sweep(spec)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert report.instances == 10_000 and not report.poly_disagreements
    # one table per list, counted when the next list starts, and at most
    # the rank's 4 keys in it
    assert max(held) == 4 and sum(map(bool, held)) == 2_500
    assert peak < 1_000_000


def test_sweep_spec_refuses_a_budget_before_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("subsample drawn")

    monkeypatch.setattr(random.Random, "sample", refuse)
    window = dict(group="Sp2nR", ranks=(3,), degree_min=-20, degree_max=20)
    for budget in (0, -1, True, 2.0, "5", SWEEP_INSTANCE_CAP + 1, 10 ** 7):
        with pytest.raises(ValueError, match="budget"):
            SweepSpec(**window, budget=budget)
    assert SweepSpec(**window, budget=SWEEP_INSTANCE_CAP).budget == SWEEP_INSTANCE_CAP
    assert SweepSpec(**window).budget is None


def test_every_cache_is_bounded():
    # a long-lived process must not grow any cache without limit
    caches = {id(f): f for module in (bundle, cones, linalg, roots, stability, jordan, cli)
              for f in vars(module).values() if hasattr(f, "cache_info")}
    names = {f.__name__ for f in caches.values()}
    assert {"extremal_rays_special", "lineality_space", "_sum_zero_count",
            "_cone_key", "_key_cone", "_key_subobjects",
            "_pattern_at", "_flag_geometry"} <= names
    assert all(f.cache_info().maxsize is not None for f in caches.values())


def _refuse(*args, **kwargs):
    raise AssertionError("sweep work started")


@pytest.mark.parametrize("spec, field", [
    (dict(group="SLnC", ranks=(2.7, True)), "ranks"),
    (dict(group="SLnC", ranks=()), "ranks"),
    (dict(group="SLnC", ranks=(1, 2, 1)), "ranks"),
    (dict(group="SLnC", ranks=(2,), alphas=("0", "1/2")), "alphas"),
    (dict(group="SLnC", ranks=(2,), alphas=("0", "0/1")), "alphas"),
    (dict(group="Sp2nC", ranks=(2, 3)), "ranks"),
    (dict(group="Sp2nR", ranks=(2,), degree_min=0.5), "degree_min"),
    (dict(group="Sp2nR", ranks=(3,), degree_min=-10 ** 4, degree_max=10 ** 4, budget=1),
     "degree_max"),
    (dict(group="SLnC", ranks=(2, 13), budget=1), "ranks"),
])
def test_sweep_spec_refuses_what_a_sweep_document_may_not_ask(monkeypatch, spec, field):
    # the library admits a spec by the document's rules, before any degree
    # list is listed, counted or unranked, and before any slot table or
    # subsample, and names the document's field
    for owner, name in [*((stability, name) for name in DEGREE_WINDOW_WORK),
                        (stability, "_slots"), (random.Random, "sample")]:
        monkeypatch.setattr(owner, name, _refuse)
    with pytest.raises(cli.DocumentError) as err:
        equivalence_sweep(SweepSpec(**spec))
    assert err.value.field == field
    with pytest.raises(cli.DocumentError) as doc_err:
        cmd_sweep({**spec, "ranks": list(spec["ranks"])})
    assert (doc_err.value.field, doc_err.value.message) == (field, err.value.message)


def test_a_sweep_spec_refuses_a_repeated_alpha():
    # one value twice, in any of its forms, would check every instance twice
    # at it; "mu" is one value, though it moves with the degree list, and a
    # refused form is reported first
    for group, alphas in [("SLnC", ("0", "0")), ("SLnC", ("0", "0/1")), ("SLnC", (0, "0")),
                          ("SLnC", (Fraction(0), 0)), ("Sp2nR", ("mu", "mu")),
                          ("Sp2nR", ("1/2", "mu", "2/4"))]:
        with pytest.raises(cli.DocumentError) as err:
            SweepSpec(group=group, ranks=(2,), alphas=alphas)
        assert (err.value.field, err.value.message) == \
            ("alphas", "expected a list of distinct alphas")
    with pytest.raises(cli.DocumentError) as err:
        SweepSpec(group="Sp2nR", ranks=(2,), alphas=("0", "0", "1/0"))
    assert err.value.message == "'1/0' is not a rational number"
    assert SweepSpec(group="Sp2nR", ranks=(2,), alphas=("mu", "0", "1")).parsed_alphas == \
        (("mu", None), ("0", Fraction(0)), ("1", Fraction(1)))


def test_an_unbudgeted_sweep_above_the_cap_is_refused_before_any_instance(monkeypatch):
    # one degree list of 2**36 patterns: the count needs the degree lists, so
    # the sweep refuses it when it starts, before an instance
    for owner, name in [(stability, "_pattern_at"), (stability, "_degree_list_at"),
                        (random.Random, "sample")]:
        monkeypatch.setattr(owner, name, _refuse)
    spec = SweepSpec("SLnC", (6,), 0, 0)
    for run in (stability._draw_indices, iter_instances, equivalence_sweep):
        with pytest.raises(cli.DocumentError) as err:
            run(spec)
        assert err.value.field == "budget" and f"{2 ** 36} instances" in err.value.message
    with pytest.raises(cli.DocumentError) as doc_err:
        cmd_sweep({"group": "SLnC", "ranks": [6], "degree_min": 0, "degree_max": 0})
    assert (doc_err.value.field, doc_err.value.message) == ("budget", err.value.message)


def test_draws_above_sys_maxsize_are_the_draws_sample_makes(monkeypatch):
    # above its set size sample draws distinct randbelow(total) values; a
    # total above sys.maxsize takes the same draws without sample
    rng = random.Random(3)
    cases = [(rng.randrange(2000, 10 ** 12), k) for k in (1, 2, 5, 6, 40, 100, 300)
             for _ in range(10)]
    want = [sorted(random.Random(0).sample(range(total), k)) for total, k in cases]
    monkeypatch.setattr(stability, "sys", types.SimpleNamespace(maxsize=0))
    assert [stability._draw(total, k) for total, k in cases] == want
