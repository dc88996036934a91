"""Command-line contract: documents, reports, exit codes, determinism."""
import collections
import contextlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splithiggs import bundle, cli, stability
from splithiggs.bundle import enumerate_flags
from splithiggs.cli import (
    DocumentError,
    cmd_check,
    cmd_rays,
    cmd_sweep,
    main,
    pair_to_document,
    parse_pair_document,
    parse_sweep_document,
)
from splithiggs.stability import flag_data, single_flag_data

from bundle_helpers import DEGREE_WINDOW_WORK
from compile_oracles import count_fetches

SP_UNSTABLE = {
    "group": "Sp2nC", "n": 1, "genus": 0, "twist": 2,
    "degrees": [1, -1], "alpha": "0", "supp": [[1, 2]],
}
SL_STABLE = {
    "group": "SLnC", "n": 2, "genus": 0, "twist": 2,
    "degrees": [1, -1], "alpha": "0", "supp": [[2, 1]],
}
REAL_COUPLED = {
    "group": "Sp2nR", "genus": 0, "twist": 2, "degrees": [1, 1],
    "alpha": "0",
    "beta_supp": [[1, 2], [2, 1]], "gamma_supp": [[1, 2], [2, 1]],
}


def run_cli(args, tmp_path, doc=None, capsys=None):
    argv = list(args)
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv.append(str(path))
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def normalized(report):
    report = json.loads(json.dumps(report))
    report.get("engine", {}).pop("elapsed_ms", None)
    return report


# ---------------------------------------------------------------------------
# Documents


def test_document_round_trip():
    for doc in (SP_UNSTABLE, SL_STABLE, REAL_COUPLED):
        pair, alpha, value = parse_pair_document(doc)
        again, alpha2, value2 = parse_pair_document(pair_to_document(pair, alpha))
        assert again == pair and alpha2 == alpha and value2 == value


def test_document_rejections():
    cases = [
        ({**SP_UNSTABLE, "group": "Spin7"}, "group"),
        ({**SP_UNSTABLE, "degrees": [1]}, "degrees"),
        ({**SP_UNSTABLE, "twist": "L"}, "twist"),
        ({**SP_UNSTABLE, "supp": [[0, 1]]}, "supp"),
        ({**SP_UNSTABLE, "supp": [[1, 2, 3]]}, "supp"),
        ({**SP_UNSTABLE, "alpha": "1/2"}, "alpha"),
        ({**SP_UNSTABLE, "pairing": [1, 2]}, "pair"),
        ({**SL_STABLE, "pairing": [2, 1]}, "pairing"),
        ({**SL_STABLE, "degrees": [1, 0]}, "pair"),
        ({**REAL_COUPLED, "supp": [[1, 1]]}, "supp"),
        ({**REAL_COUPLED, "beta_supp": [[1, 2]]}, "pair"),
    ]
    for doc, field in cases:
        with pytest.raises(DocumentError) as err:
            parse_pair_document(doc)
        assert err.value.field == field, doc


@pytest.mark.parametrize("override, field", [
    ({"alpha": "1/0"}, "alpha"),
    ({"alpha": 0.5}, "alpha"),
    ({"alpha": True}, "alpha"),
    ({"genus": True}, "genus"),
    ({"genus": 1.0}, "genus"),
])
def test_alpha_and_genus_types_exit_one(override, field, tmp_path, capsys):
    doc = {**REAL_COUPLED, **override}
    with pytest.raises(DocumentError) as err:
        cmd_check(doc)
    assert err.value.field == field
    code, report = run_cli(["check"], tmp_path, doc, capsys)
    assert code == 1 and report["error"]["field"] == field


def test_alpha_override_division_by_zero_exits_one(tmp_path, capsys):
    with pytest.raises(DocumentError) as err:
        cmd_check(REAL_COUPLED, alpha_override="1/0")
    assert err.value.field == "alpha"
    code, report = run_cli(["check", "--alpha", "1/0"], tmp_path,
                           REAL_COUPLED, capsys)
    assert code == 1 and report["error"]["field"] == "alpha"


def test_integer_alpha_still_accepted():
    pair, alpha, value = parse_pair_document({**REAL_COUPLED, "alpha": 1})
    assert alpha == 1 and value == Fraction(1) and pair.group.value == "Sp2nR"


BIG = "9" * 4400  # past the 4,300 digits Python converts between int and str


@pytest.mark.parametrize("command, text, field", [
    ("check", '{"group": "Sp2nR", "degrees": [%s, 1]}' % BIG, "pair_file"),
    ("jh", '{"group": "Sp2nR", "degrees": [1, 1], "genus": %s}' % BIG, "pair_file"),
    ("sweep", '{"group": "Sp2nR", "ranks": [1], "degree_max": %s}' % BIG, "spec_file"),
    ("check", json.dumps({**REAL_COUPLED, "alpha": "1e4400"}), "alpha"),
    ("jh", json.dumps({**REAL_COUPLED, "alpha": "1e4400"}), "alpha"),
    ("check", json.dumps({**REAL_COUPLED, "alpha": "1e100000000"}), "alpha"),
    ("check", json.dumps({**REAL_COUPLED, "alpha": "0.5"}), "alpha"),
    ("check", json.dumps({**REAL_COUPLED, "alpha": " 1/2"}), "alpha"),
    ("check", json.dumps({**REAL_COUPLED, "alpha": "1/" + "3" * 101}), "alpha"),
    ("check", '{"group": "Sp2nR", "degrees": [1, 1], "alpha": 1%s}' % ("0" * 100), "alpha"),
    ("sweep", json.dumps({"group": "Sp2nR", "ranks": [1], "alphas": ["1e100000000"]}),
     "alphas"),
    ("sweep", '{"group": "Sp2nR", "ranks": [1], "alphas": [%s]}' % BIG[:4000], "alphas"),
    ("check", '{"group": "Sp2nR", "degrees": [%s, %s8], "alpha": "mu"}' % (
        BIG[:4300], BIG[:4299]), "degrees"),
    ("rays", '{"group": "Sp2nR", "degrees": [1, -1%s], "flag": [[1, 2]]}' % ("0" * 100),
     "degrees"),
    ("sweep", '{"group": "Sp2nR", "ranks": [1], "degree_max": 1%s}' % ("0" * 100),
     "degree_max"),
    ("sweep", '{"group": "Sp2nR", "ranks": [1], "degree_min": -%s}' % BIG[:4300],
     "degree_min"),
])
def test_unbounded_numbers_exit_one_quickly(command, text, field, tmp_path, capsys):
    # a number the documents do not bound is refused with its field, before
    # any parse or print whose cost grows with its digits
    path = tmp_path / "doc.json"
    path.write_text(text)
    t0 = time.perf_counter()
    code = main([command, str(path)])
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["error"]["field"] == field
    assert elapsed < 0.1


def test_alpha_override_takes_the_document_forms(tmp_path, capsys):
    for alpha, code in [("1e4400", 1), ("1/0", 1), ("-12/7", 0), ("+3", 0), ("mu", 0)]:
        got, report = run_cli(["check", f"--alpha={alpha}"], tmp_path, REAL_COUPLED, capsys)
        assert got == code and ("error" not in report or report["error"]["field"] == "alpha")


def test_pair_and_sweep_documents_refuse_a_zero_denominator_alike():
    with pytest.raises(DocumentError) as pair_err:
        parse_pair_document({**REAL_COUPLED, "alpha": "1/0"})
    with pytest.raises(DocumentError) as sweep_err:
        parse_sweep_document({"group": "Sp2nR", "ranks": [1], "alphas": ["1/0"]})
    assert pair_err.value.message == sweep_err.value.message == "'1/0' is not a rational number"


def test_each_document_parses_its_alpha_once(monkeypatch):
    # parse_pair_document keeps the value it resolves; check, rays and jh
    # use it, and the report still labels the alpha as the document gave it
    parses = []

    def counted(group, alpha, _value=bundle._alpha_value):
        if isinstance(alpha, str):
            parses.append(alpha)
        return _value(group, alpha)

    monkeypatch.setattr(bundle, "_alpha_value", counted)
    unstable = {**REAL_COUPLED, "beta_supp": [[1, 1]], "gamma_supp": [], "degrees": [1, 0]}
    for doc, label in [(REAL_COUPLED, "0"), ({**REAL_COUPLED, "alpha": "1/3"}, "1/3"),
                       ({**REAL_COUPLED, "alpha": "mu"}, "mu=1"), (unstable, "0")]:
        parses.clear()
        report, _ = cmd_check(doc)
        assert parses == [doc["alpha"]] and report["alpha"] == label
        parses.clear()
        report, _ = cmd_rays({**doc, "flag": [[1], [1, 2]]})
        assert parses == [doc["alpha"]] and report["input"]["alpha"] == doc["alpha"]
        parses.clear()
        report, code = cli.cmd_jh(doc)
        assert parses == [doc["alpha"]] and report["input"]["alpha"] == doc["alpha"]
        assert code == (1 if doc is unstable else 0)


def test_canonical_twist_spelling():
    doc = {**REAL_COUPLED, "genus": 2, "twist": "K"}
    pair, _, _ = parse_pair_document(doc)
    assert pair.twist.ell == 2 and pair.twist.is_canonical
    assert pair_to_document(pair, "0")["twist"] == "K"


# ---------------------------------------------------------------------------
# check


def test_check_reports_frozen_certificates(tmp_path, capsys):
    code, report = run_cli(["check"], tmp_path, SP_UNSTABLE, capsys)
    assert code == 0
    assert report["verdict"] == "unstable"
    assert report["agreement"] == {"semistable": True, "stable": True}
    gen = report["general"]["certificate"]
    assert gen["flag"] == [[1], [1, 2]]
    assert gen["weights"] == [-1, 1]
    assert gen["value"] == "-2"
    simp = report["simplified"]["certificate"]
    assert simp["subset"] == [1]
    assert simp["value"] == "1"


def test_check_single_modes(tmp_path, capsys):
    code, report = run_cli(["check", "--mode", "general"], tmp_path,
                           SL_STABLE, capsys)
    assert code == 0 and report["verdict"] == "stable"
    assert "simplified" not in report and "agreement" not in report
    code, report = run_cli(["check", "--mode", "simplified"], tmp_path,
                           SL_STABLE, capsys)
    assert code == 0 and report["verdict"] == "stable"
    assert "general" not in report


ZERO12 = [0] * 12
STAR12 = [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7], [1, 8], [1, 9], [1, 10], [1, 11],
          [1, 12], [2, 1], [3, 1], [4, 1], [5, 1], [6, 1], [7, 1], [8, 1], [9, 1], [10, 1],
          [11, 1], [12, 1]]
RANK12_REPORTS = [
    ({"group": "Sp2nR", "genus": 0, "twist": 2, "degrees": ZERO12, "alpha": "0"}, "general",
     {"alpha": "0",
      "engine": {"instance_counts": 28091567595, "mode": "general"},
      "general": {"certificate": None, "verdict": "polystable"},
      "input": {"alpha": "0", "beta_supp": [], "degrees": ZERO12, "gamma_supp": [],
                "genus": 0, "group": "Sp2nR", "twist": 2},
      "verdict": "polystable"}),
    ({"group": "Sp2nR", "genus": 0, "twist": 2, "degrees": ZERO12, "alpha": "0",
      "beta_supp": STAR12}, "general",
     {"alpha": "0",
      "engine": {"instance_counts": 28091567595, "mode": "general"},
      "general": {"certificate": {
          "flag": [list(range(1, j + 1)) for j in range(1, 13)],
          "kind": "equality_witness", "value": "0",
          "weights": [-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 1]},
          "verdict": "semistable_only"},
      "input": {"alpha": "0", "beta_supp": STAR12, "degrees": ZERO12, "gamma_supp": [],
                "genus": 0, "group": "Sp2nR", "twist": 2},
      "verdict": "semistable_only"}),
    ({"group": "SLnC", "n": 12, "genus": 0, "twist": 2, "degrees": ZERO12, "alpha": "0",
      "supp": []}, "both",
     {"agreement": {"semistable": True, "stable": True},
      "alpha": "0",
      "engine": {"instance_counts": 28091567595, "mode": "both"},
      "general": {"certificate": None, "verdict": "polystable"},
      "input": {"alpha": "0", "degrees": ZERO12, "genus": 0, "group": "SLnC", "supp": [],
                "twist": 2},
      "polystable_probe": {"general_taut": True, "simplified": True},
      "simplified": {"certificate": None, "verdict": "polystable"},
      "verdict": "polystable"}),
]


@pytest.mark.parametrize("doc, mode, want", RANK12_REPORTS)
def test_rank12_reports_are_frozen(doc, mode, want):
    # recorded once from the {-1,0,1} ray search, which took 8-14 s and up
    # to 243 MB per document on a shared 2-vCPU VM; double description gives
    # the same reports
    report, code = cmd_check(doc, mode)
    assert code == 0 and normalized(report) == want


def test_check_zero_field_at_slope_alpha(tmp_path, capsys):
    doc = {"group": "Sp2nR", "genus": 0, "twist": 2, "degrees": [1],
           "alpha": "mu", "beta_supp": [], "gamma_supp": []}
    code, report = run_cli(["check"], tmp_path, doc, capsys)
    assert code == 0 and report["verdict"] == "stable"


def test_check_alpha_override(tmp_path, capsys):
    from splithiggs.stability import classify_simplified

    doc = {"group": "Sp2nR", "genus": 0, "twist": 2, "degrees": [1],
           "alpha": "0", "beta_supp": [[1, 1]], "gamma_supp": [[1, 1]]}
    pair, _, _ = parse_pair_document(doc)
    for alpha in ("1/2", "1", "2", "mu"):
        code, report = run_cli(["check", "--alpha", alpha], tmp_path, doc,
                               capsys)
        assert code == 0
        assert report["verdict"] == classify_simplified(pair, alpha).status.value
    # The override wins over the document's own value in the echoed input.
    code, report = run_cli(["check", "--alpha", "1"], tmp_path, doc, capsys)
    assert report["input"]["alpha"] == "1"


def test_check_input_errors(tmp_path, capsys):
    bad = {**SP_UNSTABLE, "degrees": [1, -1, 0]}
    code, report = run_cli(["check"], tmp_path, bad, capsys)
    assert code == 1
    assert report["error"]["field"] == "degrees"
    code, report = run_cli(["check", str(tmp_path / "missing.json")],
                           tmp_path, None, capsys)
    assert code == 1 and report["error"]["field"] == "pair_file"
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, report = run_cli(["check", str(bad_json)], tmp_path, None, capsys)
    assert code == 1 and "invalid JSON" in report["error"]["message"]


def test_internal_failure_exits_two(tmp_path, capsys, monkeypatch):
    def boom(inputs, alpha):
        raise AssertionError("synthetic internal fault")

    # a fault inside the general decider's pass
    monkeypatch.setattr(cli, "GENERAL", stability.GENERAL._replace(read=boom))
    code, report = run_cli(["check"], tmp_path, SP_UNSTABLE, capsys)
    assert code == 2
    assert report["error"]["field"] == "internal"


GL_ZERO = {"group": "GLnR", "degrees": [0, 0, 0], "alpha": "0"}


@pytest.fixture
def decider_input_calls(monkeypatch):
    """count_fetches of both compiles, with the pattern -> cone key table
    and the cone-key compile tables empty."""
    for table in ("_cone_key", "_key_cone", "_key_subobjects"):
        getattr(stability, table).cache_clear()
    return count_fetches(monkeypatch, ("_pattern_cone", "_pattern_subobjects", "_key_cone",
                                       "_key_subobjects"))


def _pattern_key(pair):
    return pair.group, pair.rank, pair.bundle.pairing, pair.pattern


@pytest.mark.parametrize("doc", [SP_UNSTABLE, SL_STABLE, REAL_COUPLED, GL_ZERO])
def test_check_fetches_each_decider_input_once(doc, decider_input_calls):
    cmd_check(doc, "both")
    assert decider_input_calls == {"_pattern_cone": 1, "_pattern_subobjects": 1,
                                   "_key_cone": 1, "_key_subobjects": 1}
    decider_input_calls.clear()
    # the pattern's inputs are compiled: a second document compiles none
    cmd_check(doc, "both")
    assert decider_input_calls == {"_pattern_cone": 1, "_pattern_subobjects": 1}
    decider_input_calls.clear()
    cmd_check(doc, "general")
    assert decider_input_calls == {"_pattern_cone": 1}


@pytest.mark.parametrize("doc", [
    SP_UNSTABLE, SL_STABLE, REAL_COUPLED, GL_ZERO,
    {"group": "SLnC", "degrees": [0, 0], "supp": [[1, 2]]},
    {"group": "Sp2nC", "degrees": [0, 0]},
    {"group": "GLnR", "degrees": [1, 0, -1], "supp": [[1, 2], [2, 3]]},
    {"group": "Sp2nR", "degrees": [0, 0]},
])
def test_each_mode_builds_its_own_side_only(doc, monkeypatch):
    # check --mode general compiles no subobjects, and --mode simplified
    # builds no summand cone outside Sp2nR, whose simplified polystable
    # test is the graded taut test on that cone
    def refuse(*args):
        raise AssertionError("the other side's inputs were built")

    with monkeypatch.context() as patch:
        patch.setattr(stability, "_pattern_subobjects", refuse)
        general, _ = cmd_check(doc, "general")
    if doc["group"] != "Sp2nR":
        with monkeypatch.context() as patch:
            patch.setattr(stability, "_pattern_cone", refuse)
            simplified, _ = cmd_check(doc, "simplified")
        assert simplified["verdict"] == cmd_check(doc, "both")[0]["simplified"]["verdict"]
    assert general["verdict"] == cmd_check(doc, "both")[0]["general"]["verdict"]


def test_sweep_decides_once_per_degree_list_and_cone_key(decider_input_calls, monkeypatch):
    passes = collections.Counter()
    for name in ("GENERAL", "SIMPLIFIED"):
        def read(inputs, a, _read=getattr(stability, name).read, _name=name):
            passes[_name] += 1
            return _read(inputs, a)
        monkeypatch.setattr(stability, name, getattr(stability, name)._replace(read=read))
    for doc in [
        {"group": "Sp2nR", "ranks": [1, 2], "degree_min": 0, "degree_max": 1,
         "alphas": ["-1", "0", "1", "mu"]},
        {"group": "SLnC", "ranks": [2], "alphas": ["0", "mu"]},
        {"group": "GLnR", "ranks": [1, 2, 3], "alphas": ["0"]},
    ]:
        stability._key_cone.cache_clear()
        stability._key_subobjects.cache_clear()
        decider_input_calls.clear()
        passes.clear()
        report, _ = cmd_sweep(doc)
        assert report["checks"] == report["instances"] * len(doc["alphas"])
        # one input fetch and one pass per side and alpha for each distinct
        # (degree list, cone key), reported rows included; one compile per
        # side and distinct cone key, which no more patterns than there are
        # share
        instances = list(stability.iter_instances(parse_sweep_document(doc)))
        decided = {(pair.bundle.degrees, stability._cone_key(pair.pattern, pair.rank))
                   for pair in instances}
        patterns = set(map(_pattern_key, instances))
        keys = {(group, rank, pairing, stability._cone_key(pattern, rank))
                for group, rank, pairing, pattern in patterns}
        assert report["instances"] > len(decided) and len(patterns) >= len(keys) > 1
        assert decider_input_calls == {"_pattern_cone": len(decided),
                                       "_pattern_subobjects": len(decided),
                                       "_key_cone": len(keys), "_key_subobjects": len(keys)}
        assert passes == {"GENERAL": len(decided) * len(doc["alphas"]),
                          "SIMPLIFIED": len(decided) * len(doc["alphas"])}


def test_patterns_with_one_closure_enumerate_once(decider_input_calls):
    # (0,1), (1,2) implies (0,2): both patterns have one cone key, so the
    # second document finds its subobjects and summand cone compiled
    docs = [{"group": "SLnC", "degrees": [1, 0, -1], "supp": supp}
            for supp in ([[1, 2], [2, 3]], [[1, 2], [2, 3], [1, 3]])]
    reports = [cmd_check(doc, "both")[0] for doc in docs]
    assert decider_input_calls == {"_pattern_cone": 2, "_pattern_subobjects": 2,
                                   "_key_cone": 1, "_key_subobjects": 1}
    assert reports[0]["general"] == reports[1]["general"]
    assert reports[0]["simplified"] == reports[1]["simplified"]


def test_check_is_deterministic(tmp_path, capsys):
    runs = [normalized(run_cli(["check"], tmp_path, REAL_COUPLED, capsys)[1])
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(SL_STABLE))
    code = main(["--output", str(out), "check", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["verdict"] == "stable"


# ---------------------------------------------------------------------------
# sweep


SWEEP_DOC = {"group": "SLnC", "ranks": [1, 2], "degree_min": -1,
             "degree_max": 1, "twist": 2, "genus": 0, "alphas": ["0"]}


def test_sweep_agreement_report(tmp_path, capsys):
    code, report = run_cli(["sweep"], tmp_path, SWEEP_DOC, capsys)
    assert code == 0
    assert report["mismatches"] == []
    assert report["instances"] == report["checks"] > 0
    assert report["semistable_agreement"]["general=True simplified=False"] == 0
    assert report["semistable_agreement"]["general=False simplified=True"] == 0


def test_sweep_empty_ranges(tmp_path, capsys):
    code, report = run_cli(["sweep"], tmp_path, {**SWEEP_DOC, "ranks": []},
                           capsys)
    assert code == 0 and report["instances"] == 0


def test_sweep_budget_cap(tmp_path, capsys):
    huge = {"group": "Sp2nR", "ranks": [5], "alphas": ["0"]}
    code, report = run_cli(["sweep"], tmp_path, huge, capsys)
    assert code == 1
    assert report["error"]["field"] == "budget"
    assert "1000000" in report["error"]["message"]


def test_budget_above_the_cap_is_refused_before_any_draw(tmp_path, capsys, monkeypatch):
    # a budgeted sweep draws budget indices and checks that many instances
    def refuse(*args):
        raise AssertionError("instances were drawn")

    monkeypatch.setattr(stability, "iter_instances", refuse)
    wide = {"group": "Sp2nR", "ranks": [3], "degree_min": -50, "degree_max": 50,
            "alphas": ["0"]}
    over = cli.SWEEP_INSTANCE_CAP + 1
    for doc, args, budget in [({**wide, "budget": over}, [], None),
                              ({**wide, "budget": 10 ** 9}, [], None),
                              (wide, ["--budget", str(over)], over)]:
        with pytest.raises(DocumentError) as err:
            cmd_sweep(doc, budget)
        assert err.value.field == "budget"
        assert str(cli.SWEEP_INSTANCE_CAP) in err.value.message
        code, report = run_cli(["sweep", *args], tmp_path, doc, capsys)
        assert code == 1 and report["error"]["field"] == "budget"
    spec = parse_sweep_document({**wide, "budget": cli.SWEEP_INSTANCE_CAP})
    assert spec.budget == cli.SWEEP_INSTANCE_CAP


def test_a_budgeted_sweep_of_more_than_sys_maxsize_instances_runs(tmp_path, capsys):
    # 2**64 SLnC rank-8 patterns: a range that long has no len for sample
    doc = {"group": "SLnC", "ranks": [8], "degree_min": 0, "degree_max": 0, "budget": 1}
    code, report = run_cli(["sweep"], tmp_path, doc, capsys)
    assert code == 0 and report["instances"] == report["checks"] == 1


def test_sweep_budget_subsample_is_fast_and_deterministic(tmp_path, capsys):
    doc = {"group": "Sp2nR", "ranks": [2], "alphas": ["0"]}
    first = run_cli(["sweep", "--budget", "25"], tmp_path, doc, capsys)
    second = run_cli(["sweep", "--budget", "25"], tmp_path, doc, capsys)
    assert first[0] == second[0] == 0
    assert first[1]["instances"] == 25
    assert normalized(first[1]) == normalized(second[1])


def test_sweep_jobs_match_sequential(tmp_path, capsys):
    # on the Sp2nR spec, whose patterns share cone keys, the pool's chunks
    # cut through the degree lists' decision tables: a chunk shares its
    # table or none, and the report is still the serial one
    shared_keys = {"group": "Sp2nR", "ranks": [1, 2], "degree_min": -1, "degree_max": 1,
                   "alphas": ["mu", "-1/2", "1/3", "1"]}
    for doc in (SWEEP_DOC, shared_keys):
        seq = run_cli(["sweep"], tmp_path, doc, capsys)
        par = run_cli(["sweep", "--jobs", "2"], tmp_path, doc, capsys)
        assert seq[0] == par[0] == 0
        assert normalized(seq[1]) == normalized(par[1])
    assert seq[1]["polystable_disagreements"]


def test_sweep_jobs_start_at_most_one_worker_per_cpu(monkeypatch):
    # no real process is started: the pool maps in this process
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, work, chunksize=1):
            return map(fn, work)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    seq, _ = cmd_sweep(SWEEP_DOC)
    par, _ = cmd_sweep(SWEEP_DOC, jobs=10 ** 6)
    assert sizes == [min(10 ** 6, os.cpu_count() or 1)]
    assert normalized(seq) == normalized(par)


def test_sweep_document_rejections():
    for doc, field in [
        ({"ranks": [1]}, "group"),
        ({"group": "SLnC"}, "ranks"),
        ({"group": "SLnC", "ranks": [0]}, "ranks"),
        ({"group": "SLnC", "ranks": [1], "alphas": []}, "alphas"),
        ({"group": "SLnC", "ranks": [1], "budget": 0}, "budget"),
    ]:
        with pytest.raises(DocumentError) as err:
            parse_sweep_document(doc)
        assert err.value.field == field


@pytest.mark.parametrize("override, field", [
    ({"degree_min": 2, "degree_max": 1}, "degree_max"),
    ({"degree_min": "a"}, "degree_min"),
    ({"degree_max": "2"}, "degree_max"),
    ({"degree_min": 0.5}, "degree_min"),
    ({"degree_max": True}, "degree_max"),
])
def test_sweep_degree_range_exits_one(override, field, tmp_path, capsys):
    doc = {**SWEEP_DOC, **override}
    with pytest.raises(DocumentError) as err:
        cmd_sweep(doc)
    assert err.value.field == field
    code, report = run_cli(["sweep"], tmp_path, doc, capsys)
    assert code == 1 and report["error"]["field"] == field


REAL_SWEEP = {"group": "Sp2nR", "ranks": [1], "alphas": ["0", "1/2", "mu", 1]}


@pytest.mark.parametrize("override, field", [
    ({"alphas": ["x"]}, "alphas"),
    ({"alphas": ["1/0"]}, "alphas"),
    ({"alphas": [0.5]}, "alphas"),
    ({"alphas": [True]}, "alphas"),
    ({"alphas": "0"}, "alphas"),
    ({"budget": True}, "budget"),
    ({"ranks": [True]}, "ranks"),
    ({"genus": True}, "genus"),
    ({"genus": -1}, "genus"),
    ({"twist": "L"}, "twist"),
    ({"twist": 1.5}, "twist"),
    ({"twist": True}, "twist"),
    ({"group": "SLnC", "alphas": ["1"]}, "alphas"),
    ({"group": "GLnR", "alphas": ["0", "-1/2"]}, "alphas"),
    ({"group": "Sp2nC", "ranks": [2, 3]}, "ranks"),
])
def test_sweep_field_types_exit_one(override, field, tmp_path, capsys):
    doc = {**REAL_SWEEP, **override}
    with pytest.raises(DocumentError) as err:
        cmd_sweep(doc)
    assert err.value.field == field
    code, report = run_cli(["sweep"], tmp_path, doc, capsys)
    assert code == 1 and report["error"]["field"] == field


def test_sweep_alphas_and_canonical_twist_are_accepted(tmp_path, capsys):
    spec = parse_sweep_document({**REAL_SWEEP, "genus": 2, "twist": "K"})
    assert spec.twist_ell == 2 and spec.genus == 2
    assert spec.alphas == ("0", "1/2", "mu", "1")
    assert parse_sweep_document({**REAL_SWEEP, "twist": "K"}).twist_ell == -2
    for group in ("SLnC", "GLnR"):
        assert parse_sweep_document({"group": group, "ranks": [1],
                                     "alphas": ["0", 0, "mu"]}).alphas == ("0", "0", "mu")
    code, report = run_cli(["sweep"], tmp_path, {**REAL_SWEEP, "genus": 2, "twist": "K"},
                           capsys)
    assert code == 0 and report["checks"] == 4 * report["instances"] > 0


@pytest.mark.parametrize("override, field", [
    ({"supp": [[True, 2]]}, "supp"),
    ({"degrees": [True, -1]}, "degrees"),
    ({"twist": True}, "twist"),
    ({"n": True}, "n"),
    ({"n": "1"}, "n"),
    ({"genus": -1}, "genus"),
    ({"pairing": [2, True]}, "pairing"),
])
def test_pair_field_types_exit_one(override, field, tmp_path, capsys):
    doc = {**SP_UNSTABLE, **override}
    with pytest.raises(DocumentError) as err:
        cmd_check(doc)
    assert err.value.field == field
    code, report = run_cli(["check"], tmp_path, doc, capsys)
    assert code == 1 and report["error"]["field"] == field


@pytest.mark.parametrize("field", ["beta_supp", "gamma_supp"])
def test_real_support_bool_index_exits_one(field, tmp_path, capsys):
    doc = {**REAL_COUPLED, field: [[1, 2], [2, True]]}
    with pytest.raises(DocumentError) as err:
        cmd_check(doc)
    assert err.value.field == field
    code, report = run_cli(["check"], tmp_path, doc, capsys)
    assert code == 1 and report["error"]["field"] == field


def test_oversized_degree_window_is_refused_before_any_list(tmp_path, capsys,
                                                           monkeypatch):
    def refuse(*args):
        raise AssertionError("a degree list was listed, counted or unranked")

    for name in DEGREE_WINDOW_WORK:
        monkeypatch.setattr(stability, name, refuse)
    wide = {"group": "Sp2nR", "ranks": [3], "degree_min": -100000,
            "degree_max": 100000, "alphas": ["0"]}
    for doc in (wide, {**wide, "budget": 5}):
        with pytest.raises(DocumentError) as err:
            cmd_sweep(doc)
        assert err.value.field == "degree_max"
        code, report = run_cli(["sweep"], tmp_path, doc, capsys)
        assert code == 1 and report["error"]["field"] == "degree_max"


@pytest.mark.parametrize("doc, code, field", [
    ({"group": "Sp2nR", "ranks": [1], "degree_min": -10 ** 19, "degree_max": 10 ** 19,
      "budget": 1}, 1, "degree_max"),
    ({"group": "SLnC", "ranks": [2], "degree_min": -10 ** 19, "degree_max": 10 ** 19},
     1, "degree_max"),
    ({"group": "GLnR", "ranks": [1], "degree_min": -10 ** 30, "degree_max": 10 ** 30},
     0, None),
])
def test_windows_wider_than_sys_maxsize_are_counted(tmp_path, capsys, doc, code, field):
    # a window's width is computed, not taken as a range's len, which stops
    # at sys.maxsize: the first two list more than the cap of degree lists;
    # GLnR rank 1 lists the one paired list (0,), of 2 patterns
    spec = dict(doc, ranks=tuple(doc["ranks"]))
    if field is None:
        assert stability.count_instances(stability.SweepSpec(**spec)) == 2
    else:
        with pytest.raises(DocumentError) as err:
            stability.SweepSpec(**spec)
        assert err.value.field == field
    got, report = run_cli(["sweep"], tmp_path, doc, capsys)
    assert got == code
    if field is None:
        assert report["instances"] == 2 and report["mismatches"] == []
    else:
        assert report["error"]["field"] == field


def test_ranks_above_the_cap_are_refused_before_any_work(tmp_path, capsys, monkeypatch):
    top = cli.MAX_RANK
    sl = {k: v for k, v in SL_STABLE.items() if k != "n"}
    pair, _, _ = parse_pair_document({**sl, "degrees": [0] * top})
    assert pair.rank == top
    assert parse_sweep_document({**SWEEP_DOC, "ranks": [top], "degree_min": 0,
                                 "degree_max": 0, "budget": 1}).ranks == (top,)

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("_pattern_cone", "iter_flags", "degree_list_count", "count_instances"):
        monkeypatch.setattr(stability, name, refuse)
    for name in ("PairInputs", "decompose"):
        monkeypatch.setattr(cli, name, refuse)
    for command, cmd, doc in [
        ("check", cmd_check, {**sl, "degrees": [0] * (top + 1), "supp": []}),
        ("check", cmd_check, {**SP_UNSTABLE, "n": None, "degrees": [0] * (top + 2)}),
        ("jh", cli.cmd_jh, {**REAL_COUPLED, "degrees": [0] * (top + 1)}),
        ("sweep", cmd_sweep, {**SWEEP_DOC, "ranks": [2, top + 1], "budget": 1}),
    ]:
        field = "ranks" if command == "sweep" else "degrees"
        with pytest.raises(DocumentError) as err:
            cmd(doc)
        assert err.value.field == field and f"cap of {top}" in err.value.message
        code, report = run_cli([command], tmp_path, doc, capsys)
        assert code == 1 and report["error"]["field"] == field


def test_sweep_single_degree_range_is_accepted(tmp_path, capsys):
    code, report = run_cli(["sweep"], tmp_path,
                           {**SWEEP_DOC, "degree_min": 0, "degree_max": 0}, capsys)
    assert code == 0 and report["instances"] > 0


# ---------------------------------------------------------------------------
# Malformed documents: exit 1 with a field path, never 2

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.floats(-2, 2, allow_nan=False),
              st.sampled_from(["", "K", "L", "mu", "x", "1/0", "1/2", "0", "-1"])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.just("a"), inner),
    max_leaves=6)


@st.composite
def mutated(draw, bases, fields):
    """A base document with one or two fields removed or replaced."""
    doc = dict(draw(st.sampled_from(bases)))
    for name in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2,
                              unique=True)):
        if draw(st.booleans()):
            doc.pop(name, None)
        else:
            doc[name] = draw(json_values)
    return doc


def main_exit(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, path])
    return code, json.loads(out.getvalue())


def assert_exit_contract(command, cmd, doc):
    try:
        _, code = cmd(doc)
        assert code == 0
    except DocumentError as exc:
        assert exc.field
        code = 1
    main_code, report = main_exit(command, doc)
    assert main_code == code
    if code:
        assert report["error"]["field"] not in ("", "internal", "input")


@settings(max_examples=150, deadline=None)
@given(doc=mutated([SP_UNSTABLE, SL_STABLE, REAL_COUPLED],
                   ["group", "n", "genus", "twist", "degrees", "alpha", "supp",
                    "beta_supp", "gamma_supp", "pairing"]))
def test_malformed_pair_documents_exit_one(doc):
    assert_exit_contract("check", cmd_check, doc)


@settings(max_examples=100, deadline=None)
@given(doc=mutated([{**SWEEP_DOC, "budget": 2}, {**REAL_SWEEP, "budget": 2}],
                   ["group", "ranks", "degree_min", "degree_max", "twist",
                    "genus", "alphas"]))
def test_malformed_sweep_documents_exit_one(doc):
    # the budget stays 2, so every accepted document is a small sweep
    assert_exit_contract("sweep", cmd_sweep, doc)


@pytest.mark.parametrize("command, doc", [
    ("check", {"degrees": [1, -1]}),
    ("jh", {"degrees": [1, -1]}),
    ("sweep", {"ranks": [2]}),
])
def test_a_document_without_group_names_the_missing_field(command, doc):
    code, report = main_exit(command, doc)
    assert code == 1
    assert report["error"] == {"field": "group", "message": "missing required field"}
    code, report = main_exit(command, {**doc, "group": "Bad"})
    assert code == 1
    assert report["error"] == {"field": "group", "message": "unknown group 'Bad'"}


@pytest.mark.parametrize("command, doc, key", [
    ("check", {**REAL_COUPLED, "beta": [[1, 2], [2, 1]]}, "beta"),
    ("jh", {**REAL_COUPLED, "beta": [[1, 2], [2, 1]]}, "beta"),
    ("check", {**SL_STABLE, "flag": [[1], [1, 2]]}, "flag"),
    ("rays", {**SL_STABLE, "flag": [[1], [1, 2]], "flags": [[1, 2]]}, "flags"),
    ("sweep", {**REAL_SWEEP, "budget": 2, "degreemin": -1}, "degreemin"),
    ("sweep", {**REAL_SWEEP, "budget": 2, "alpha": "1/2"}, "alpha"),
])
def test_unknown_document_keys_exit_one(command, doc, key):
    # a misspelt key would otherwise leave its field at the default
    code, report = main_exit(command, doc)
    assert code == 1
    assert report["error"] == {"field": key, "message": "unknown field"}
    assert main_exit(command, {k: v for k, v in doc.items() if k != key})[0] == 0


# ---------------------------------------------------------------------------
# rays


def test_rays_full_flag_golden(tmp_path, capsys):
    doc = {"group": "Sp2nC", "n": 2, "genus": 0, "twist": 2,
           "degrees": [1, 1, -1, -1], "alpha": "0", "supp": [],
           "flag": [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]]}
    code, report = run_cli(["rays"], tmp_path, doc, capsys)
    assert code == 0
    assert sorted(map(tuple, report["rays"])) == [
        (-1, -1, 1, 1), (-1, 0, 0, 1)]
    values = dict(zip(map(tuple, report["rays"]), report["degree_values"]))
    assert values[(-1, -1, 1, 1)] == "-4"
    assert values[(-1, 0, 0, 1)] == "-2"


def test_rays_trivial_flag_is_pointlike(tmp_path, capsys):
    doc = {**SL_STABLE, "supp": [], "flag": [[1, 2]]}
    code, report = run_cli(["rays"], tmp_path, doc, capsys)
    assert code == 0
    assert report["rays"] == [] and report["lineality"] == []
    assert report["constraints"]["equalities"] != []


def test_rays_invalid_flag(tmp_path, capsys):
    for flag in ([[1]], [[], [1, 2]]):
        doc = {**SL_STABLE, "flag": flag}
        code, report = run_cli(["rays"], tmp_path, doc, capsys)
        assert code == 1 and report["error"]["field"] == "flag"


@pytest.mark.parametrize("entry", [1.0, True, False, 0, 3, -1, "1", None, [1]])
def test_rays_flag_entries_are_indices(entry):
    code, report = main_exit("rays", {**SL_STABLE, "flag": [[entry], [1, 2]]})
    assert code == 1 and report["error"]["field"] == "flag"
    assert main_exit("rays", {**SL_STABLE, "flag": [[1], [1, 2]]})[0] == 0


def test_rays_report_matches_whole_geometry(monkeypatch):
    def from_whole_geometry(pair, flag):
        return next(fd for fd in flag_data(pair) if fd.flag == flag)

    docs = [
        {**SL_STABLE, "n": 3, "degrees": [1, 0, -1], "supp": [[2, 1], [3, 2]]},
        {**SP_UNSTABLE, "n": 2, "degrees": [2, 1, -1, -2], "supp": [[2, 1], [4, 3]]},
        {"group": "GLnR", "genus": 1, "twist": "K", "degrees": [1, 0, -1],
         "supp": [[2, 1], [3, 2]], "alpha": "0"},
        {**REAL_COUPLED, "degrees": [1, 0, -1], "alpha": "1/3"},
        {**REAL_COUPLED, "alpha": "mu"},
    ]
    checked = 0
    for doc in docs:
        pair, _, _ = parse_pair_document(doc)
        for flag in enumerate_flags(pair):
            assert single_flag_data(pair, flag) == from_whole_geometry(pair, flag)
            flag_doc = {**doc, "flag": [[i + 1 for i in step] for step in flag]}
            got, code = cmd_rays(flag_doc)
            with monkeypatch.context() as m:
                m.setattr(cli, "single_flag_data", from_whole_geometry)
                want, want_code = cmd_rays(flag_doc)
            assert code == want_code == 0
            assert normalized(got) == normalized(want)
            checked += 1
    assert checked == 13 + 17 + 3 + 13 + 3


# ---------------------------------------------------------------------------
# dim


def test_dim_goldens(tmp_path, capsys):
    for group, n, genus, want in [
        ("Sp2nR", 1, 2, 3), ("Sp2nR", 2, 2, 10),
        ("SLnC", 2, 3, 6), ("SLnC", 3, 2, 8),
    ]:
        code, report = run_cli(
            ["dim", "--group", group, "--n", str(n), "--genus", str(genus)],
            tmp_path, None, capsys)
        assert code == 0 and report["expected_dimension"] == want


def test_dim_euler_subquery(tmp_path, capsys):
    code, report = run_cli(
        ["dim", "--group", "Sp2nR", "--n", "1", "--genus", "2",
         "--euler", "2", "0"], tmp_path, None, capsys)
    assert code == 0
    assert report["euler_char"] == {"rank": 2, "degree": 0, "value": -2}


def test_dim_rejects_orthogonal_real_group(tmp_path, capsys):
    code, report = run_cli(
        ["dim", "--group", "GLnR", "--n", "2", "--genus", "2"],
        tmp_path, None, capsys)
    assert code == 1 and report["error"]["field"] == "group"


@pytest.mark.parametrize("args, field", [
    (["--group", "SLnC", "--n", "2", "--genus", "1"], "genus"),
    (["--group", "SLnC", "--n", "0", "--genus", "2"], "n"),
    (["--group", "SLnC", "--n", "0", "--genus", "1"], "genus"),
    (["--group", "Spin7", "--n", "2", "--genus", "2"], "group"),
    (["--group", "SLnC", "--n", "2", "--genus", "2", "--euler", "0", "1"], "euler"),
    (["--group", "SLnC", "--n", "2", "--genus", "2", "--euler", "-2", "1"], "euler"),
])
def test_dim_errors_name_their_option(args, field, tmp_path, capsys):
    code, report = run_cli(["dim"] + args, tmp_path, None, capsys)
    assert code == 1 and report["error"]["field"] == field


# ---------------------------------------------------------------------------
# jh


def test_jh_two_block_decomposition(tmp_path, capsys):
    doc = {"group": "Sp2nR", "genus": 0, "twist": 2, "degrees": [2, 1],
           "alpha": "0", "beta_supp": [[1, 1], [2, 2]],
           "gamma_supp": [[1, 1], [2, 2]]}
    code, report = run_cli(["jh"], tmp_path, doc, capsys)
    assert code == 0
    assert [f["label"] for f in report["factors"]] == ["SpR(1)", "SpR(1)"]
    assert [f["indices"] for f in report["factors"]] == [[1], [2]]
    assert report["round_trip"]["matches_input"] is True


def test_jh_indefinite_unitary_factor(tmp_path, capsys):
    code, report = run_cli(["jh"], tmp_path, REAL_COUPLED, capsys)
    assert code == 0
    [factor] = report["factors"]
    assert factor["label"] == "Upq(1,1)"
    assert factor["colors"] == [[1], [2]]


def test_jh_rejects_unstable_with_certificate(tmp_path, capsys):
    doc = {"group": "Sp2nR", "genus": 0, "twist": 2, "degrees": [1, -1],
           "alpha": "0", "beta_supp": [], "gamma_supp": []}
    code, report = run_cli(["jh"], tmp_path, doc, capsys)
    assert code == 1
    assert report["verdict"] == "unstable"
    assert report["certificate"] is not None
