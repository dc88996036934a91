"""Acceptance gate: ten exact criteria over the full advertised ranges.

Each test prints a one-line verdict summary.  Sweep reports are cached at
module level so later criteria (decomposition, probe log) reuse the runs
from the equivalence criteria instead of repeating them.
"""
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from splithiggs.bundle import (
    Group,
    HiggsPattern,
    Twist,
    admissible_chain_pairs,
    enumerate_flags,
    flag_degree_term,
    orthogonal_pair,
    sl_pair,
    slope_stable,
    sp_real_pair,
    symplectic_pair,
)
from splithiggs.cli import cmd_dim
from splithiggs.cones import flag_cone_key, weight_cone
from splithiggs.jordan import _color_central_test, decompose, reassemble
from splithiggs.moduli import euler_char
from splithiggs.stability import (
    PairInputs,
    Status,
    SweepSpec,
    count_instances,
    degree_consistency_check,
    equivalence_sweep,
    flag_data,
    resolve_alpha,
    semistable_general,
    stable_general,
    stable_simplified,
)

from bundle_helpers import (iter_instances, perp_complement, reference_degree_lists,
                            slope_semistable)
from cone_oracles import brute_rays_oracle, special_rays_oracle
from cone_oracles import rank as mat_rank
from decider_oracles import general_walk

DEGREE_WINDOW = (-2, 2)


@lru_cache(maxsize=None)
def run_sweep(group: str, ranks: tuple, alphas: tuple, collect: bool = False):
    spec = SweepSpec(group=group, ranks=ranks, degree_min=DEGREE_WINDOW[0],
                     degree_max=DEGREE_WINDOW[1], alphas=alphas)
    t0 = time.monotonic()
    report = equivalence_sweep(spec, collect_polystable=collect)
    return report, time.monotonic() - t0


def assert_full_agreement(report, wall, budget_s, want_instances):
    assert report.instances == want_instances, \
        f"expected {want_instances} instances, swept {report.instances}"
    assert report.mismatches == [], \
        f"{len(report.mismatches)} verdict mismatches, first: {report.mismatches[0]}"
    for matrix in (report.semi_matrix, report.stable_matrix):
        assert matrix.get((True, False), 0) == 0
        assert matrix.get((False, True), 0) == 0
        assert sum(matrix.values()) == report.checks
    assert wall < budget_s, f"sweep took {wall:.1f}s, budget {budget_s}s"


def test_a1_symplectic_complex_equivalence():
    report, wall = run_sweep("Sp2nC", (2, 4), ("0",))
    assert_full_agreement(report, wall, 120, 6168)
    print(f"[A1] Sp2nC ranks (2,4): {report.checks} checks, "
          f"100% general==simplified agreement in {wall:.1f}s -> PASS")


def test_a2_special_linear_equivalence():
    report, wall = run_sweep("SLnC", (1, 2, 3), ("0",))
    assert_full_agreement(report, wall, 120, 2610)
    print(f"[A2] SLnC ranks (1,2,3): {report.checks} checks, "
          f"100% agreement in {wall:.1f}s -> PASS")


REAL_ALPHAS = ("-1", "0", "1", "mu")


def chain_signature(s1, s2, rank):
    return (len(s1) == 0, s1 == s2, len(s2) == rank)


def test_a3_real_symplectic_equivalence():
    report, wall = run_sweep("Sp2nR", (1, 2, 3), REAL_ALPHAS, collect=True)
    assert_full_agreement(report, wall, 300, 144340)
    assert report.checks == 577360

    # The degenerate-chain rows: classify every non-strict chain by which of
    # the three inclusions 0 <= S1 <= S2 <= V collapse.  Over ranks 1-2, all
    # six signatures must be evaluated; the fully collapsed chain (0, V) must
    # be identically satisfied (its admissibility and its degree condition
    # are both vacuous), the two half-collapsed chains (0,0) and (V,V) must
    # be admissible exactly when the respective field component vanishes,
    # and each of the five non-vacuous rows must reject some instance at
    # some alpha, so none of them is dead weight.
    TRIVIAL = (True, False, True)
    evaluated = {}
    violated = {}
    small = SweepSpec(group="Sp2nR", ranks=(1, 2),
                      degree_min=DEGREE_WINDOW[0], degree_max=DEGREE_WINDOW[1])
    for pair in iter_instances(small):
        n = pair.rank
        d = pair.bundle.degrees
        deg_v = pair.bundle.degree
        full = tuple(range(n))
        chains = admissible_chain_pairs(pair)
        assert ((), full) in chains
        assert (((), ()) in chains) == (not pair.pattern.beta)
        assert ((full, full) in chains) == (not pair.pattern.gamma)
        for alpha in REAL_ALPHAS:
            a = resolve_alpha(pair, alpha)
            p, q = a.numerator, a.denominator
            for (s1, s2) in chains:
                sig = chain_signature(s1, s2, n)
                if sig == (False, False, False):
                    continue
                margin = q * (deg_v - sum(d[i] for i in s2)
                              - sum(d[i] for i in s1)) \
                    - p * (n - len(s2) - len(s1))
                evaluated[sig] = evaluated.get(sig, 0) + 1
                if sig == TRIVIAL:
                    assert margin == 0, (pair, alpha)
                elif margin < 0:
                    violated[sig] = violated.get(sig, 0) + 1
    all_six = {(e1, e2, e3)
               for e1 in (True, False) for e2 in (True, False)
               for e3 in (True, False)} - {(False, False, False),
                                           (True, True, True)}
    assert set(evaluated) == all_six, sorted(evaluated)
    assert set(violated) == all_six - {TRIVIAL}, sorted(violated)
    print(f"[A3] Sp2nR ranks (1,2,3) x alphas {REAL_ALPHAS}: "
          f"{report.checks} checks, 100% agreement in {wall:.1f}s; all 6 "
          f"degenerate chain rows evaluated, the collapsed row vacuous and "
          f"the other five sharp -> PASS")


def test_a4_orthogonal_real_equivalence():
    report, wall = run_sweep("GLnR", (1, 2, 3, 4), ("0",))
    assert_full_agreement(report, wall, 120, 6362)
    print(f"[A4] GLnR ranks (1,2,3,4): {report.checks} checks, "
          f"100% agreement in {wall:.1f}s -> PASS")


A5_RANGES = [("Sp2nC", (2, 4)), ("SLnC", (1, 2, 3)),
             ("Sp2nR", (1, 2, 3)), ("GLnR", (1, 2, 3, 4))]


def boundary_ray_vectors(rank):
    """Expected extremal rays of the empty-pattern full-flag cone for the
    paired symplectic model: for each j, -1 on the first j coordinates and
    +1 on the last j."""
    out = []
    for j in range(1, rank // 2 + 1):
        v = [0] * rank
        for c in range(j):
            v[c] = -1
        for c in range(rank - j, rank):
            v[c] = 1
        out.append(tuple(v))
    return frozenset(out)


def _satisfies(cone, v, lineality=False):
    """Whether v lies in the cone, or, with lineality, in its lineality space."""
    values = [sum(a * b for a, b in zip(h, v)) for h in cone.ineqs]
    return all(x == 0 if lineality else x <= 0 for x in values) and \
        all(sum(a * b for a, b in zip(e, v)) == 0 for e in cone.eqs)


def test_a5_ray_enumeration_oracle():
    # Weight cones depend only on the support pattern and the flag, never on
    # the degree list, so sweeping the patterns at a single degree vector
    # generates every cone the equivalence ranges produce.  Each flag's
    # geometry is that of its irredundant cone (its FlagConeKey's cone): the
    # {-1,0,1} search (exact tuples) and the brute oracle check it once per
    # distinct irredundant cone, and each distinct full weight cone is proven
    # the same set, since its normals include the irredundant ones (so it
    # lies inside) and it holds every irredundant ray and lineality vector
    # (so it contains the irredundant cone).
    checked, proven = 0, set()
    for group, ranks in A5_RANGES:
        spec = SweepSpec(group=group, ranks=ranks, degree_min=0, degree_max=0)
        full_seen = set()
        for pair in iter_instances(spec):
            for fd in flag_data(pair):
                if pair.rank > 6:
                    continue
                cone = flag_cone_key(pair.group, pair.pattern, fd.flag, fd.steps).cone()
                if cone not in proven:
                    proven.add(cone)
                    assert fd.rays == special_rays_oracle(cone), (group, pair.pattern, fd.flag)
                    oracle = brute_rays_oracle(cone)
                    assert frozenset(fd.rays) == frozenset(oracle.rays), \
                        (group, pair.pattern, fd.flag)
                    lin_a, lin_b = list(fd.lineality), list(oracle.lineality)
                    assert mat_rank(lin_a) == mat_rank(lin_b) == mat_rank(lin_a + lin_b), \
                        (group, pair.pattern, fd.flag)
                full = weight_cone(pair, fd.flag)
                key = (full.ineqs, full.eqs)
                if key in full_seen:
                    continue
                full_seen.add(key)
                assert set(cone.ineqs) <= set(full.ineqs) and cone.eqs == full.eqs, \
                    (group, pair.pattern, fd.flag)
                assert all(_satisfies(full, r) for r in fd.rays), (group, pair.pattern, fd.flag)
                assert all(_satisfies(full, v, lineality=True) and
                           _satisfies(full, [-a for a in v], lineality=True)
                           for v in fd.lineality), (group, pair.pattern, fd.flag)
                checked += 1
    for rank in (2, 4):
        pair = symplectic_pair((0,) * rank, Twist(2, 0), set())
        full_flag = tuple(tuple(range(j + 1)) for j in range(rank))
        fd = next(f for f in flag_data(pair) if f.flag == full_flag)
        assert frozenset(fd.rays) == boundary_ray_vectors(rank), rank
    print(f"[A5] {checked} distinct weight cones, {len(proven)} distinct irredundant "
          f"cones: rays == {{-1,0,1}} search and brute oracle on every one, rays and "
          f"lineality, each full cone the same set; full-flag "
          f"boundary rays match the closed form at ranks 2 and 4 -> PASS")


def test_a6_zero_field_laws():
    lo, hi = DEGREE_WINDOW
    tw = Twist(2, 0)
    checks = 0
    for rank in (1, 2, 3):
        for degrees in itertools.combinations_with_replacement(
                range(hi, lo - 1, -1), rank):
            pair = sp_real_pair(degrees, tw, set(), set())
            mu = Fraction(sum(degrees), rank)
            for alpha in REAL_ALPHAS:
                a = resolve_alpha(pair, alpha)
                semi = semistable_general(pair, a).status is not Status.UNSTABLE
                stab = stable_general(pair, a).status is Status.STABLE
                assert semi == (a == mu and slope_semistable(degrees)), \
                    (degrees, a)
                assert stab == (a == mu and slope_stable(degrees)), (degrees, a)
                checks += 1
    print(f"[A6] zero-field laws: {checks} (degrees, alpha) cases, "
          f"semistable and stable biconditionals exact -> PASS")


def random_real_pair(rng, rank):
    degrees = tuple(sorted((rng.randint(-3, 3) for _ in range(rank)),
                           reverse=True))
    slots = [(a, b) for a in range(rank) for b in range(a, rank)]
    beta, gamma = set(), set()
    for (a, b) in slots:
        if rng.random() < 0.3:
            beta |= {(a, b), (b, a)}
        if rng.random() < 0.3:
            gamma |= {(a, b), (b, a)}
    return sp_real_pair(degrees, Twist(2, 0), beta, gamma)


def random_sl_pair(rng, rank):
    head = [rng.randint(-2, 2) for _ in range(rank - 1)]
    degrees = tuple(sorted(head + [-sum(head)], reverse=True))
    entries = {(t, s) for t in range(rank) for s in range(rank)
               if rng.random() < 0.25}
    return sl_pair(degrees, Twist(2, 0), entries)


def random_flag(rng, rank):
    order = list(range(rank))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, rank), rng.randint(0, rank - 1)))
    flag = []
    for stop in cuts + [rank]:
        flag.append(tuple(sorted(order[:stop])))
    return tuple(flag)


def test_a7_degree_formula_consistency():
    rng = random.Random(0)
    for trial in range(500):
        rank = rng.randint(1, 6)
        pair = random_real_pair(rng, rank) if rng.random() < 0.5 \
            else random_sl_pair(rng, rank)
        flag = random_flag(rng, rank)
        raw = sorted(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in flag)
        assert degree_consistency_check(pair, flag, raw), (trial, pair, flag)

    # On every pairing-compatible flag of the paired groups, the functional
    # that is -1 on a step, +1 outside the step's perpendicular complement,
    # and 0 between evaluates to minus the sum of the two step degrees.
    identity_checks = 0
    for group, ranks in [("Sp2nC", (2, 4)), ("GLnR", (1, 2, 3, 4))]:
        make = symplectic_pair if group == "Sp2nC" else orthogonal_pair
        for rank in ranks:
            for degrees in reference_degree_lists(Group(group), *DEGREE_WINDOW, rank):
                pair = make(degrees, Twist(2, 0), set())
                for flag in enumerate_flags(pair):
                    steps = [tuple(s) for s in flag]
                    m = len(steps)
                    for a_idx in range(m - 1):
                        s = steps[a_idx]
                        t = perp_complement(pair, s)
                        assert t in steps, (group, flag, s)
                        b_idx = steps.index(t)
                        lam = tuple(
                            Fraction(-1 if j <= min(a_idx, b_idx) else
                                     (1 if j > max(a_idx, b_idx) else 0))
                            for j in range(m))
                        value = flag_degree_term(pair, flag, lam, Fraction(0))
                        want = -sum(pair.bundle.degrees[i] for i in s) \
                            - sum(pair.bundle.degrees[i] for i in t)
                        assert value == want, (group, degrees, flag, s)
                        identity_checks += 1
    print(f"[A7] 500 random character-vs-filtration degree checks and "
          f"{identity_checks} paired-flag boundary identities, all exact "
          f"-> PASS")


def test_a8_dimension_formula():
    golden = [("Sp2nR", 1, 2, 3), ("Sp2nR", 2, 2, 10),
              ("SLnC", 2, 3, 6), ("SLnC", 3, 2, 8)]
    for group, n, genus, want in golden:
        report, code = cmd_dim(group, n, genus)
        assert code == 0 and report["expected_dimension"] == want, \
            (group, n, genus)
    assert euler_char(2, 0, 2) == -2
    print(f"[A8] dimension golden table {[g[3] for g in golden]} via cmd_dim "
          f"and euler_char(2,0,2) == -2 -> PASS")


def degree_preserving_permutations(degrees):
    rank = len(degrees)
    for perm in itertools.permutations(range(rank)):
        if all(degrees[perm[i]] == degrees[i] for i in range(rank)):
            yield perm


def factor_passes_label_check(factor, alpha):
    sub = factor.embedded_pair
    kind = factor.kind
    if kind == "Un":
        return sub.pattern == HiggsPattern() and slope_stable(sub.bundle.degrees)
    if kind == "Upq":
        one = set(factor.colors[0])
        entries = sub.pattern.beta | sub.pattern.gamma
        if not all((a in one) != (b in one) for (a, b) in entries):
            return False
        test = _color_central_test(one)
        stable = PairInputs.of(sub).stable_under(alpha, test)
        assert stable == (general_walk(flag_data(sub), alpha, test)[1].status is Status.STABLE)
        return stable
    return stable_simplified(sub, alpha).status is Status.STABLE


def test_a9_jordan_holder_on_swept_polystables():
    report, _ = run_sweep("Sp2nR", (1, 2, 3), REAL_ALPHAS, collect=True)
    rows = [r for r in report.polystable_found if len(r["degrees"]) <= 2]
    assert rows, "sweep collected no small polystable instances"
    tw = Twist(2, 0)
    labels_seen = set()
    for row in rows:
        degrees = tuple(row["degrees"])
        beta = {tuple(e) for e in row["beta"]}
        gamma = {tuple(e) for e in row["gamma"]}
        pair = sp_real_pair(degrees, tw, beta, gamma)
        alpha = row["alpha"]
        a = resolve_alpha(pair, alpha)
        dec = decompose(pair, alpha)
        for factor in dec.factors:
            assert factor_passes_label_check(factor, a), (row, factor.label)
            labels_seen.add(factor.label)
        assert reassemble(dec) == pair, row
        base_keys = sorted(f.key() for f in dec.factors)
        for perm in degree_preserving_permutations(degrees):
            relabeled = sp_real_pair(
                degrees, tw,
                {(perm[x], perm[y]) for (x, y) in beta},
                {(perm[x], perm[y]) for (x, y) in gamma})
            other = decompose(relabeled, alpha)
            assert sorted(f.key() for f in other.factors) == base_keys, \
                (row, perm)
    assert {"SpR(1)", "Un(1)"} <= labels_seen
    print(f"[A9] decomposition on {len(rows)} swept polystable instances "
          f"(ranks <= 2): factors verified per label {sorted(labels_seen)}, "
          f"exact reassembly, permutation-invariant multisets -> PASS")


def strip_elapsed(js):
    js = dict(js)
    js.pop("elapsed_ms", None)
    return js


def test_a10_polystability_probe_log():
    expected_disagreements = {"Sp2nC": 28, "SLnC": 0, "Sp2nR": 16, "GLnR": 32}
    runs = [("Sp2nC", (2, 4), ("0",)), ("SLnC", (1, 2, 3), ("0",)),
            ("Sp2nR", (1, 2, 3), REAL_ALPHAS), ("GLnR", (1, 2, 3, 4), ("0",))]
    for group, ranks, alphas in runs:
        collect = group == "Sp2nR"
        report, _ = run_sweep(group, ranks, alphas, collect=collect)
        js = report.to_json()
        # The probe runs exactly on the semistable instances.
        assert sum(report.poly_matrix.values()) == \
            report.semi_matrix.get((True, True), 0)
        assert js["polystable_agreement_rate"] is not None
        assert report.poly_implication_failures == [], group
        disagreements = report.poly_disagreements
        assert len(disagreements) == expected_disagreements[group], \
            (group, len(disagreements))
        for entry in disagreements:
            assert entry["general_taut"] is True
            assert entry["simplified"] is False
    # Determinism of the probe log on a re-run of a small slice.
    spec = SweepSpec(group="Sp2nR", ranks=(1, 2), degree_min=-2, degree_max=2,
                     alphas=REAL_ALPHAS)
    first = strip_elapsed(equivalence_sweep(spec).to_json())
    second = strip_elapsed(equivalence_sweep(spec).to_json())
    assert first == second
    print(f"[A10] probe log produced and deterministic; zero implication "
          f"failures; disagreement counts {expected_disagreements} all in "
          f"the conservative direction -> PASS")
