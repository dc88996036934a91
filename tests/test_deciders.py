"""The summand-cone deciders against the reference walks: read one pass of
sign tests per side, then certify by the lazy flag walk, must give the
walks' verdicts and certificates byte for byte; a sweep certifies exactly
the rows it reports, and its rows are those the decider views assemble."""
import collections
import itertools
import json
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from splithiggs import stability
from splithiggs.bundle import (Group, HiggsPair, Twist, admissible_chain_pairs, group_bundle,
                               invariant_subsets, sp_real_pair)
from splithiggs.jordan import _color_central_test
from splithiggs.linalg import idot
from splithiggs.stability import (
    GENERAL,
    SIMPLIFIED,
    PairInputs,
    SimplifiedPass,
    Status,
    SweepReport,
    SweepSpec,
    _count_for_rank,
    cert_json,
    equivalence_sweep,
    flag_data,
    resolve_alpha,
)

from bundle_helpers import instances_at, iter_instances
from decider_oracles import (
    cone_products,
    general_scan,
    general_walk,
    per_instance_sweep,
    polystable_taut_walk,
    simplified_polystable_walk,
    simplified_scan,
    simplified_walk,
    subobject_products,
    sweep_one,
)

MAX_RANK = {Group.SP2NR: 5, Group.SLNC: 5, Group.SP2NC: 4, Group.GLNR: 5}


@st.composite
def pairs(draw):
    group = draw(st.sampled_from(list(Group)))
    rank = draw(st.sampled_from(range(2 if group is Group.SP2NC else 1,
                                      MAX_RANK[group] + 1, 2 if group is Group.SP2NC else 1)))
    lo = draw(st.integers(-2, 0))
    spec = SweepSpec(group=group, ranks=(rank,), degree_min=lo,
                     degree_max=draw(st.integers(0, 2)))
    count = _count_for_rank(spec, rank)
    return next(instances_at(spec, rank, (draw(st.integers(0, count - 1)),)))


def _alphas(draw, pair):
    out = [0, "mu"]
    if pair.group is Group.SP2NR:
        out += draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7),
                             min_size=1, max_size=3))
        # the slope and its neighbours are where verdicts change
        mu = Fraction(pair.bundle.degree, pair.rank)
        out += [mu + Fraction(1, 2), mu - Fraction(1, 3)]
    return [resolve_alpha(pair, a) for a in out]


@settings(max_examples=200, deadline=None)
@given(pairs(), st.data())
def test_decide_and_certify_match_the_walks(pair, data):
    # the summand-cone decisions, certified by the lazy flag walk, against
    # the walks over every flag; the polystable tests on every pair, the
    # general-unstable ones included
    inputs = PairInputs.of(pair)
    fds = flag_data(pair)
    subs = admissible_chain_pairs(pair) if pair.group is Group.SP2NR \
        else invariant_subsets(pair)
    for a in _alphas(data.draw, pair):
        assert GENERAL.verdicts(inputs, a, pair) == general_walk(fds, a)
        assert GENERAL.polystable(inputs, a, pair) == polystable_taut_walk(pair, fds, a)
        trivial = polystable_taut_walk(pair, fds, a, include_trivial=True)
        taut = trivial.status is Status.POLYSTABLE
        assert stability._taut(inputs, a, pair, include_trivial=True) == taut
        # given the general pass, as a sweep's decision gives it
        assert stability._taut(inputs, a, pair, inputs.general(a), True) == taut
        if not taut:
            assert stability._taut_refusal(inputs, a, pair, True) == trivial
        assert SIMPLIFIED.verdicts(inputs, a, pair) == simplified_walk(pair, subs, a)
        assert SIMPLIFIED.polystable(inputs, a, pair) == \
            simplified_polystable_walk(pair, fds, subs, a)
        if pair.rank > 1:
            # jordan's colorings: constant on each color class
            rest = data.draw(st.sets(st.integers(1, pair.rank - 1)))
            test = _color_central_test((0, *rest))
            assert inputs.stable_under(a, test) == \
                (general_walk(fds, a, test)[1].status is Status.STABLE)


def _ends(values):
    """The two walls of values (x, b), as Fractions: the least x/b over
    b > 0 and the greatest over b < 0, where they exist."""
    values = list(values)
    upper = [Fraction(x, b) for x, b in values if b > 0]
    lower = [Fraction(x, b) for x, b in values if b < 0]
    return ([min(upper)] if upper else []) + ([max(lower)] if lower else [])


@pytest.mark.parametrize("group, ranks", [(Group.SP2NR, (1, 2, 3)), (Group.SLNC, (3,)),
                                          (Group.GLNR, (4,)), (Group.SP2NC, (4,))])
def test_walls_read_as_the_per_alpha_scans(group, ranks):
    # every pattern (sampled above 4,096) on seeded degree lists: both passes
    # read off the two walls equal one scan of every value, at each wall of
    # both sides and 1/97 either side of it, at 0 and at the slope (outside
    # Sp2nR too: the passes are defined at every alpha)
    rng = random.Random(25)
    on_wall = collections.Counter()
    for rank in ranks:
        count = stability._pattern_count(group, rank)
        patterns = range(count) if count <= 4096 else rng.sample(range(count), 4096)
        lists = stability._degree_list_total(group, -3, 3, rank)
        for at in rng.sample(range(lists), min(3, lists)):
            bundle = group_bundle(group, stability._degree_list_at(group, -3, 3, rank, at))
            mu = Fraction(bundle.degree, rank)
            for k in patterns:
                pair = HiggsPair(group, bundle, Twist(2, 0),
                                 stability._pattern_at(group, rank, k)[0])
                inputs = PairInputs.of(pair)
                c, s = inputs.summand_cone(), inputs.subobjects()
                ends = _ends(zip(cone_products(inputs), c.sums)) + \
                    _ends(zip(subobject_products(inputs), s.sums))
                for alpha in {0, mu, *ends, *(e + d for e in ends for d in (
                        Fraction(1, 97), Fraction(-1, 97)))}:
                    alpha = Fraction(alpha)
                    g, (simplified, fires) = inputs.general(alpha), simplified_scan(inputs, alpha)
                    assert g == general_scan(inputs, alpha), (k, bundle, alpha)
                    assert inputs.simplified(alpha) == simplified, (k, bundle, alpha)
                    if alpha in ends:
                        on_wall[g, simplified] += 1
                    # the certificate names the subobject the scan fires on
                    cert = SIMPLIFIED.certify(inputs, alpha, simplified, pair).certificate
                    assert (cert is None) == (fires is None)
    # at some wall each side reads a zero face with a non-central vector
    assert any(g.semistable and not g.stable for g, _ in on_wall), on_wall
    assert any(s.semistable and not s.stable for _, s in on_wall), on_wall


def test_sweep_at_many_alphas_matches_per_instance_decisions():
    # an Sp2nR sweep at twelve alphas, wall values of these windows among
    # them (k, k/2 and k/3, the slope, 1/97 off zero), reports as the
    # instances decided one by one do
    alphas = ("-1", "-1/2", "-1/3", "-1/97", "0", "1/97", "1/3", "1/2", "2/3", "1",
              "3/2", "mu")
    for spec in (SweepSpec(group="Sp2nR", ranks=(1, 2), degree_min=-1, degree_max=1,
                           alphas=alphas),
                 SweepSpec(group="Sp2nR", ranks=(3,), degree_min=-2, degree_max=2,
                           alphas=alphas, budget=400)):
        _assert_tallied_as_counted(spec)


def test_custom_central_test_sees_only_rays_at_value_zero():
    spec = SweepSpec(group="Sp2nR", ranks=(2,), degree_min=-1, degree_max=1)
    screened = 0
    for pair, alpha in itertools.product(iter_instances(spec), ("-1", "0", "1/2", "mu")):
        inputs = PairInputs.of(pair)
        a = resolve_alpha(pair, alpha)
        seen = []

        def test(w):
            seen.append(tuple(w))
            return True

        inputs.stable_under(a, test)
        if not inputs.general(a).semistable:
            assert not seen
            continue
        p, q = a.numerator, a.denominator
        values = [(w, q * idot(pair.bundle.degrees, w) - p * sum(w))
                  for w in inputs.summand_cone().generators]
        # the generators at value zero are tested, no other
        assert sorted(seen) == sorted(w for w, v in values if v == 0)
        screened += bool(seen) and any(v for _, v in values)
    assert screened, "some pair must have vectors at and off value zero"


def test_destabilizer_reads_the_zero_field_lineality_as_generators():
    # an Sp2nR zero-field flag's cone has the constant vector as its
    # lineality, whose value is nonzero off the slope: the general
    # certificates, read off the flag's generators, equal the walk's, which
    # negates the lineality itself, and some name a constant weight
    constant = 0
    for rank in range(1, 5):
        for at in range(stability._degree_list_total(Group.SP2NR, -2, 2, rank)):
            degrees = stability._degree_list_at(Group.SP2NR, -2, 2, rank, at)
            pair = sp_real_pair(degrees, Twist(2, 0), set(), set())
            inputs, fds = PairInputs.of(pair), flag_data(pair)
            mu = Fraction(pair.bundle.degree, rank)
            for a in {Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2), mu + 1} - {mu}:
                verdicts = GENERAL.verdicts(inputs, a, pair)
                assert verdicts == general_walk(fds, a), (degrees, a)
                assert verdicts[0].status is Status.UNSTABLE
                constant += len(set(verdicts[0].certificate.weights)) == 1
    assert constant > 100


def test_sweep_certifies_the_rows_it_reports(monkeypatch):
    # read and certify the simplified side's pass at alpha + 1: the sweep
    # then reports mismatches, and each row carries the certificates of that
    # pass.  The general side stays at alpha, as the real symplectic
    # polystable read is given its pass
    certified = collections.Counter()

    def counted(side, certify):
        def wrapper(*args):
            certified[side] += 1
            return certify(*args)
        return wrapper

    real = stability.SIMPLIFIED
    monkeypatch.setattr(stability, "GENERAL", GENERAL._replace(
        certify=counted("general", GENERAL.certify)))
    monkeypatch.setattr(stability, "SIMPLIFIED", real._replace(
        read=lambda inputs, a: real.read(inputs, a + 1),
        certify=counted("simplified", lambda inputs, a, r, pair: real.certify(inputs, a + 1, r,
                                                                              pair)),
        refusal=counted("simplified poly", real.refusal)))
    spec = SweepSpec(group="Sp2nR", ranks=(1, 2), degree_min=0, degree_max=1,
                     alphas=("0", "mu"))
    report = equivalence_sweep(spec)
    monkeypatch.undo()
    # one certificate per side and reported row, none for the other checks
    assert report.mismatches and report.checks > len(report.mismatches)
    assert certified["general"] == certified["simplified"] == len(report.mismatches)
    assert certified["simplified poly"] == sum(
        d["simplified_certificate"] is not None for d in report.poly_disagreements)
    both = 0
    for row in report.mismatches:
        key = row["pair"]
        pair = sp_real_pair(tuple(key["degrees"]), Twist(2, 0),
                            set(map(tuple, key["beta"])), set(map(tuple, key["gamma"])))
        a = resolve_alpha(pair, row["alpha"])
        inputs = PairInputs.of(pair)
        general = GENERAL.certify(inputs, a, GENERAL.read(inputs, a), pair)
        simplified = SIMPLIFIED.certify(inputs, a + 1, SIMPLIFIED.read(inputs, a + 1), pair)
        assert row["general_certificate"] == cert_json(general.certificate, 0)
        assert row["simplified_certificate"] == cert_json(simplified.certificate, 0)
        assert row["general_stable"] == (general.status is Status.STABLE)
        assert row["simplified_semistable"] == (simplified.status is not Status.UNSTABLE)
        # and the certify step is the walks' certificate
        fds = flag_data(pair)
        assert general.certificate == general_walk(fds, a)[1].certificate
        both += general.certificate is not None and simplified.certificate is not None
    assert both, "some reported row must carry a certificate on both sides"


def test_simplified_polystable_on_general_unstable_pairs(monkeypatch):
    # force the simplified side to find every pair semistable: the sweep,
    # the classification and the public checker then ask the real
    # symplectic polystable test of pairs the general side finds unstable,
    # where the rays at value zero are no face of the summand cone
    forced = SIMPLIFIED._replace(read=lambda inputs, a: SimplifiedPass(True, False))
    monkeypatch.setattr(stability, "SIMPLIFIED", forced)
    alphas = ("0", "mu", "1/2", "-1")
    spec = SweepSpec(group="Sp2nR", ranks=(2, 3), degree_min=-1, degree_max=1,
                     alphas=alphas, budget=300)
    unstable = found = 0
    for pair in iter_instances(spec):
        inputs, fds = PairInputs.of(pair), flag_data(pair)
        for alpha, parsed in zip(alphas, spec.parsed_alphas):
            a = resolve_alpha(pair, alpha)
            if GENERAL.read(inputs, a).semistable:
                continue
            unstable += 1
            # one alpha's report: the general side is unstable, so its one
            # polystable count is (False, the simplified read)
            report = SweepReport(spec)
            sweep_one(report, pair, [parsed], False)
            walk = polystable_taut_walk(pair, fds, a, include_trivial=True)
            assert report.poly_matrix[False, True] == (walk.status is Status.POLYSTABLE)
            for disagreement in report.poly_disagreements:
                if disagreement["simplified_certificate"]:
                    assert disagreement["simplified_certificate"] == \
                        cert_json(walk.certificate, 0)
            assert stability.polystable_simplified(pair, alpha) == walk
            assert (forced.classify(inputs, a, pair).status is Status.POLYSTABLE) == \
                (walk.status is Status.POLYSTABLE)
            found += walk.status is Status.SEMISTABLE_ONLY
    assert unstable and found, "some unstable pair must carry a taut witness"


def _reference_report(spec, pair, alphas):
    """The report of one instance, assembled from the public decider views,
    each on fresh inputs: the (semistable, stable) verdicts and the
    polystable tests of both sides, certified."""
    report = SweepReport(spec)
    report.instances, report.checks = 1, len(alphas)
    for label, _ in alphas:
        a = resolve_alpha(pair, label)
        g_semi, g_strict = GENERAL.verdicts(PairInputs.of(pair), a, pair)
        s_semi, s_strict = SIMPLIFIED.verdicts(PairInputs.of(pair), a, pair)
        gs, ss = g_semi.status is not Status.UNSTABLE, s_semi.status is not Status.UNSTABLE
        gt, st_ = g_strict.status is Status.STABLE, s_strict.status is Status.STABLE
        report.semi_matrix[gs, ss] += 1
        report.stable_matrix[gt, st_] += 1
        key = stability._pair_key(pair)
        if (gs, gt) != (ss, st_):
            report.mismatches.append({
                "pair": key, "alpha": label,
                "general_semistable": gs, "simplified_semistable": ss,
                "general_stable": gt, "simplified_stable": st_,
                "general_certificate": cert_json(g_strict.certificate, 0),
                "simplified_certificate": cert_json(s_strict.certificate, 0)})
        g_poly = gs and GENERAL.polystable(PairInputs.of(pair), a, pair).status is Status.POLYSTABLE
        s_verdict = SIMPLIFIED.polystable(PairInputs.of(pair), a, pair) if ss else None
        s_poly = ss and s_verdict.status is Status.POLYSTABLE
        if gs or ss:
            report.poly_matrix[g_poly, s_poly] += 1
        if g_poly != s_poly:
            report.poly_disagreements.append({
                "pair": key, "alpha": label, "general_taut": g_poly, "simplified": s_poly,
                "simplified_certificate": cert_json(
                    s_verdict.certificate if ss and not s_poly else None, 0)})
        if s_poly and not gs:
            report.poly_implication_failures.append({"pair": key, "alpha": label})
        if s_poly:
            report.polystable_found.append({**key, "alpha": label, "stable": gt})
    return report


@pytest.mark.parametrize("group", list(Group))
def test_sweep_rows_match_the_decider_views(group):
    # the sweep's reading of the two passes, counted into a one-instance
    # report, against the report assembled from verdicts and polystable, on
    # seeded instances of ranks 1-4
    rng = random.Random(14)
    semi, stable = collections.Counter(), collections.Counter()
    for rank in (2, 4) if group is Group.SP2NC else (1, 2, 3, 4):
        spec = SweepSpec(group=group, ranks=(rank,), degree_min=-2, degree_max=2)
        count = _count_for_rank(spec, rank)
        for pair in instances_at(spec, rank, sorted(rng.sample(range(count), min(12, count)))):
            alphas = [("0", Fraction(0)), ("mu", None)]
            if group is Group.SP2NR:
                mu = Fraction(pair.bundle.degree, pair.rank)
                alphas += [(str(a), a) for a in (
                    mu + Fraction(1, 2), mu - Fraction(1, 2),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)))]
            report = SweepReport(spec)
            sweep_one(report, pair, alphas, True)
            assert report == _reference_report(spec, pair, alphas)
            for (_, s), k in report.semi_matrix.items():
                semi[s] += k
            for (_, s), k in report.stable_matrix.items():
                stable[s] += k
    # on the simplified side, semistable and unstable, stable and not, all occur
    assert stable[True] and semi[False] and semi[True] > stable[True]


def _shared_key_specs(rng):
    """Seeded exhaustive and budgeted sweeps of every group, ranks 1-4, on
    narrow windows: many instances share a degree list and a cone key."""
    drawn = (str(Fraction(rng.randint(-9, 9), rng.randint(2, 5))) for _ in range(2))
    sp_alphas = tuple(dict.fromkeys(("0", "mu", *drawn)))  # a sweep takes distinct alphas
    windows = {Group.SP2NR: ((1, 2), (3,), (4,)), Group.SLNC: ((1, 2, 3), (4,), (4,)),
               Group.SP2NC: ((2,), (4,), (4,)), Group.GLNR: ((1, 2, 3), (4,), (4,))}
    for group, (exhaustive, *budgeted) in windows.items():
        alphas = sp_alphas if group is Group.SP2NR else ("0", "mu")
        yield SweepSpec(group=group, ranks=exhaustive, degree_min=-1, degree_max=1,
                        alphas=alphas)
        for ranks in budgeted:
            lo = -rng.randint(0, 1)
            yield SweepSpec(group=group, ranks=ranks, degree_min=lo, degree_max=-lo,
                            alphas=alphas, budget=rng.randint(150, 250))


def _full_report(report):
    return {**report.to_json(), "elapsed_ms": None, "polystable_found": report.polystable_found}


def _assert_tallied_as_counted(spec):
    """The sweep's report, found pairs and their order included, is the one
    counted instance by instance, with found pairs collected or not."""
    for collect in (True, False):
        assert _full_report(equivalence_sweep(spec, collect)) == \
            _full_report(per_instance_sweep(spec, collect)), (spec, collect)


def test_shared_decisions_match_per_instance_decisions():
    # a sweep decides each (degree list, cone key) once and only counts the
    # later instances of a key that names no row: exhaustive and budgeted
    # sweeps of every group report as the per-instance count does
    shared = 0
    for spec in _shared_key_specs(random.Random(17)):
        instances = list(iter_instances(spec))
        shared += len(instances) - len({(pair.bundle.degrees, stability._cone_key(
            pair.group, pair.rank, pair.bundle.pairing, pair.pattern)) for pair in instances})
        _assert_tallied_as_counted(spec)
    assert shared > 1000


def test_shared_decisions_name_each_instance_in_their_rows(monkeypatch):
    # with the simplified side forced semistable, every pair the general side
    # finds unstable reports a mismatch, and the real symplectic polystable
    # read walks its flags: the rows of patterns with one key carry their
    # own pair, and the certificates their own pairs give
    forced = SIMPLIFIED._replace(read=lambda inputs, a: SimplifiedPass(True, False))
    monkeypatch.setattr(stability, "SIMPLIFIED", forced)
    for spec in _shared_key_specs(random.Random(18)):
        _assert_tallied_as_counted(spec)
        report = equivalence_sweep(spec, collect_polystable=True)
        key_of = {json.dumps(stability._pair_key(pair)):
                  (pair.bundle.degrees,
                   stability._cone_key(pair.group, pair.rank, pair.bundle.pairing, pair.pattern))
                  for pair in iter_instances(spec)}
        rows = collections.defaultdict(list)
        for row in report.mismatches:
            rows[key_of[json.dumps(row["pair"])], row["alpha"]].append(row)
        shared = [group for group in rows.values() if len(group) > 1]
        # some key's rows name two patterns, each its own
        assert shared, spec
        for group in shared:
            assert len({json.dumps(row["pair"]) for row in group}) == len(group)


def _walk_specs():
    """Every third of the shared-key sweeps, and an exhaustive Sp2nR sweep
    at three alphas."""
    return [*itertools.islice(_shared_key_specs(random.Random(17)), 0, None, 3),
            SweepSpec(group="Sp2nR", ranks=(1, 2), degree_min=-1, degree_max=1,
                      alphas=("0", "mu", "1/2"))]


def test_an_exhaustive_sweep_builds_pairs_only_to_name_a_row(monkeypatch):
    # a decision reads the degree list and the cone key, and builds no pair;
    # an instance whose key's readings name a row builds one, and every other
    # instance is only counted.  Whether an instance names a row is read off
    # its own per-instance count, so a key either names rows on all its
    # instances or on none
    built = []
    monkeypatch.setattr(stability, "HiggsPair",
                        lambda *args: built.append(args) or HiggsPair(*args))
    tallied = named = 0
    for spec in _walk_specs():
        for collect in (True, False):
            expected = 0
            for pair in iter_instances(spec):
                report = SweepReport(spec)
                sweep_one(report, pair, spec.parsed_alphas, collect)
                expected += bool(report.mismatches or report.poly_disagreements or
                                 report.poly_implication_failures or report.polystable_found)
            built.clear()
            report = equivalence_sweep(spec, collect)
            assert len(built) == expected < report.instances, (spec, collect)
            tallied += report.instances - expected
            named += expected
    assert tallied and named


def test_a_sweep_reads_each_sides_walls_once_per_decided_key_and_alpha(monkeypatch):
    # the real symplectic polystable read of a decision takes the general
    # pass the decision read, and a row reads no wall: each side's walls are
    # read once per (degree list, cone key) and alpha
    reads = collections.Counter()
    read_walls = stability._read_walls

    def counted(walls, alpha):
        reads["general" if walls[-1] is stability._GENERAL_PASSES else "simplified"] += 1
        return read_walls(walls, alpha)

    monkeypatch.setattr(stability, "_read_walls", counted)
    for spec in _walk_specs():
        decided = len({(pair.bundle.degrees, stability._cone_key(
            pair.group, pair.rank, pair.bundle.pairing, pair.pattern))
            for pair in iter_instances(spec)})
        reads.clear()
        report = equivalence_sweep(spec, collect_polystable=True)
        assert reads["general"] == reads["simplified"] == decided * len(spec.alphas), spec
        assert decided < report.instances
