"""Smoke tests of the benchmark itself: every workload at a tiny size, the
traced run's span bookkeeping, and the correctness gate rejecting corrupted
reports.  Run with ``python3 -m pytest perfbench`` from the checkout root."""
import copy
import gc
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import workloads
from tracing import PATCHES, Tracer

BENCH = json.loads((gate.ROOT / "BENCHMARK.json").read_text())
PROG = gate.load_program()
GOLDEN = run.load_golden()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS.values():
        first = list(itertools.islice(workloads.requests(w, 7), 3))
        assert first == list(itertools.islice(workloads.requests(w, 7), 3))
        assert first != list(itertools.islice(workloads.requests(w, 8), 3))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_the_gate(name):
    w = workloads.WORKLOADS[name]
    out = run.execute(PROG, w, 0, 0.0, tiny=True)
    assert out.checks > 0 and out.failed == 0
    assert out.prefix_digest == run.execute(PROG, w, 0, 0.0, tiny=True).prefix_digest
    e2e = run.end_to_end(out, 0.1, out.failed, out.checks)
    assert set(e2e) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_tiny_run(name, tmp_path):
    w = workloads.WORKLOADS[name]
    originals = [getattr(getattr(PROG, mod), attr) for mod, attr, _ in PATCHES]
    tracer = Tracer()
    with tracer.installed(PROG):
        out = run.execute(PROG, w, 1, 0.0, tiny=True, tracer=tracer)
    assert [getattr(getattr(PROG, mod), attr) for mod, attr, _ in PATCHES] == originals
    assert out.failed == 0
    self_ns = tracer.self_times()
    children = [0] * len(self_ns)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            children[p] += tracer.end[i] - tracer.start[i]
    for i, own in enumerate(self_ns):
        assert own >= 0
        assert own + children[i] == tracer.end[i] - tracer.start[i]
    e2e = run.end_to_end(out, 0.1, 0, out.checks)
    layer = run.per_layer(tracer, out, e2e, e2e, 30.0, tmp_path / "spans.csv.gz")
    assert set(layer) == {m["name"] for m in BENCH["per_layer"]}
    assert (tmp_path / "spans.csv.gz").is_file()
    if w.kind == "sweep":
        assert layer["stability.equivalence_sweep.self_s"]["value"] > 0
    else:
        assert layer["cli.cmd_check.self_s"]["value"] > 0


def test_cold_rotations_leave_the_run_process_cold():
    rays = PROG.cones.extremal_rays_special
    before = rays.cache_info().currsize
    out = run.execute(PROG, workloads.WORKLOADS["sweep-cold"], 2, 0.0, tiny=True)
    assert out.checks > 0 and out.failed == 0 and len(out.child_rss_mb) == 1
    assert rays.cache_info().currsize == before


def _doc_outputs():
    rng = workloads.random.Random(3)
    while True:
        doc = workloads.pair_document(rng, "Sp2nR", rng.choice((1, 2)))
        outputs = gate.call_doc(PROG, doc, run.contextlib.nullcontext)
        if len(outputs) == 2:
            return outputs


def _digest(reports):
    h = gate.new_digest()
    for r in reports:
        h.update(gate.canonical_line(r))
    return h.hexdigest()


def test_gate_rejects_a_flipped_verdict():
    outputs = _doc_outputs()
    assert not gate.doc_failed(outputs)
    flipped = copy.deepcopy(outputs)
    flipped[0][1]["agreement"]["stable"] = False
    assert gate.doc_failed(flipped)
    broken_jh = copy.deepcopy(outputs)
    broken_jh[1][1]["round_trip"]["matches_input"] = False
    assert gate.doc_failed(broken_jh)
    # a verdict changed in both deciders still agrees: only the digest sees it
    relabeled = copy.deepcopy(outputs)
    relabeled[0][1]["verdict"] = "unstable"
    assert not gate.doc_failed(relabeled)
    assert _digest(r for _, r, _ in relabeled) != _digest(r for _, r, _ in outputs)
    # timing fields never reach the digest
    timed = copy.deepcopy(outputs)
    timed[0][1]["engine"]["elapsed_ms"] += 1000
    assert _digest(r for _, r, _ in timed) == _digest(r for _, r, _ in outputs)


def test_gate_rejects_a_sweep_mismatch():
    payload = next(workloads.requests(workloads.WORKLOADS["sweep-warm"], 0, tiny=True))[0]
    report = gate.call_sweep(PROG, payload)
    assert gate.sweep_failures(report) == 0
    before = _digest([report.to_json()])
    report.mismatches.append({"pair": {"degrees": [0]}, "alpha": "0"})
    report.poly_implication_failures.append({"pair": {"degrees": [0]}, "alpha": "0"})
    assert gate.sweep_failures(report) == 1
    assert _digest([report.to_json()]) != before


def test_golden_gate_checks_the_seed_and_the_reference():
    w = workloads.WORKLOADS["check-docs"]
    out = run.execute(PROG, w, 1, 0.0)
    assert run.golden_gate(PROG, w, 1, out, GOLDEN) == []
    # an unlisted seed still gets the full-size reference prefix
    tampered = copy.deepcopy(GOLDEN)
    tampered["check-docs"][str(run.REFERENCE_SEED)] = "0" * 64
    bad = run.golden_gate(PROG, w, 1000, out, tampered)
    assert [label for label, _ in bad] == ["reference"]
    tampered["check-docs"]["1"] = "0" * 64
    bad = dict(run.golden_gate(PROG, w, 1, out, tampered))
    assert set(bad) == {"prefix", "reference"} and all(bad.values())


def test_reference_prefix_reaches_the_top_ranks():
    for name, top in (("check-docs", 4), ("sweep-cold", 5)):
        w = workloads.WORKLOADS[name]
        stream = workloads.requests(w, run.REFERENCE_SEED)
        payloads = [p for rot in itertools.islice(stream, w.prefix[0]) for p in rot]
        ranks = [len(p["degrees"]) if "degrees" in p else max(p["ranks"])
                 for p in payloads]
        assert max(ranks) >= top


def test_one_command_prints_every_metric():
    done = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "sweep-warm",
                           "--seed", "0", "--seconds", "0", "--trace", "0"],
                          cwd=gate.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(gate.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "sweep-warm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_meter_scales_by_the_nearest_loop_timings():
    meter = run.speed.Meter(0.0)
    n = meter.NEAREST
    meter.at_ns = list(range(0, 20 * n, 10))
    meter.cal_ms = [10.0] * n + [20.0] * n
    assert meter.scaled_ns(0, 4) == 4
    assert meter.scaled_ns(20 * n - 4, 8) == 4


def test_reference_loop_triggers_no_collection():
    # a large resident cache of tracked objects, as the program's caches grow
    resident = [(i, [i]) for i in range(200_000)]
    collections = []

    def count(phase, info):
        collections.append(phase)

    gc.callbacks.append(count)
    try:
        run.speed.sample_ms()
    finally:
        gc.callbacks.remove(count)
    assert collections == [] and gc.isenabled() and resident
