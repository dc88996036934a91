#!/usr/bin/env python3
"""Benchmark of splithiggs: three workloads, one command.

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  Each run is one fresh interpreter, because the geometry
cache and the ``lru_cache`` tables of the program live for the whole process.
The run sets up (imports the program and sends the workload's warm-up),
sends the seed's requests until ``--seconds`` have passed and the current
rotation is complete, checks every output, and prints one JSON object as its
last line: the end-to-end metrics with ``--trace 0``, and with ``--trace 1``
the per-layer metrics of a traced run (after an untraced run of the same
inputs in a child interpreter, for the tracing overhead).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import gate
import speed
import workloads
from tracing import CACHED, MODULES, Tracer

OUT = gate.ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# the seed whose full-size prefix every run sends again after its timed
# window and compares with golden.json, whatever its own seed
REFERENCE_SEED = 0
# seconds of requests between timings of the reference loop (speed.py)
CAL_EVERY_S = 0.1


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """Outcome of sending one workload's requests."""

    def __init__(self) -> None:
        self.starts_ns: list = []
        self.latencies_ns: list = []
        self.checks = 0
        self.failed = 0
        self.prefix_checks = 0
        self.prefix_digest: Optional[str] = None
        self.run_digest = gate.new_digest()
        # the digest input, kept only where a child process must hand it on
        self.lines: Optional[list] = None
        self.rss_prefix_mb = 0.0
        self.child_rss_mb: list = []  # peak RSS of each child process
        self.meter = speed.Meter(CAL_EVERY_S)

    def add(self, start_ns: int, elapsed_ns: int, checks: int) -> None:
        self.starts_ns.append(start_ns)
        self.latencies_ns.append(elapsed_ns)
        self.checks += checks

    def record(self, line: bytes) -> None:
        self.run_digest.update(line)
        if self.lines is not None:
            self.lines.append(line)

    def merge(self, child: dict) -> None:
        """Take in the requests that a child process sent."""
        self.starts_ns += child["starts_ns"]
        self.latencies_ns += child["latencies_ns"]
        self.checks += child["checks"]
        self.failed += child["failed"]
        for line in child["lines"]:
            self.record(line)
        self.meter.at_ns += child["cal_at_ns"]
        self.meter.cal_ms += child["cal_ms"]
        self.child_rss_mb.append(child["rss_mb"])

    def scaled_ns(self) -> list:
        """Each request's time at the reference machine speed."""
        return [self.meter.scaled_ns(t, dt)
                for t, dt in zip(self.starts_ns, self.latencies_ns)]


def warm_up(prog, workload) -> None:
    for payload in workload.warmup:
        report = gate.call_sweep(prog, payload)
        if gate.sweep_failures(report):
            raise RuntimeError(f"warm-up request fails the gate: {payload}")


def send(prog, workload, rotation: list, run: Run, tracer: Optional[Tracer]) -> None:
    """Send one rotation's requests, timing and checking each."""
    report_span = (lambda: tracer.span("cli.report_json")) if tracer \
        else contextlib.nullcontext
    request_span = (lambda: tracer.span("bench.request")) if tracer \
        else contextlib.nullcontext
    for payload in rotation:
        run.meter.calibrate()
        if tracer:
            tracer.request_id += 1
        t0 = time.perf_counter_ns()
        try:
            with request_span():
                if workload.kind == "sweep":
                    out = gate.call_sweep(prog, payload)
                else:
                    out = gate.call_doc(prog, payload, report_span)
        except Exception as exc:  # a failed request is counted, not fatal
            checks = _expected_checks(prog, workload, payload)
            run.add(t0, time.perf_counter_ns() - t0, checks)
            run.failed += checks
            run.record(gate.canonical_line({"error": type(exc).__name__}))
            print(f"perfbench: request failed: {exc!r}", file=sys.stderr)
            continue
        elapsed = time.perf_counter_ns() - t0
        if workload.kind == "sweep":
            run.add(t0, elapsed, out.checks)
            run.failed += gate.sweep_failures(out)
            run.record(gate.canonical_line(out.to_json()))
        else:
            run.add(t0, elapsed, 1)
            run.failed += gate.doc_failed(out)
            for _, report, code in out:
                run.record(gate.canonical_line({**report, "exit": code}))


def send_in_child(prog, workload, rotation: list, tracer: Optional[Tracer]) -> dict:
    """Send one rotation from a forked child process.  The child starts from
    this process's state, so no rotation finds caches that an earlier one
    filled.  Returns what the child recorded."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            block = Run()
            block.lines = []
            if tracer:
                tracer.clear()
            send(prog, workload, rotation, block, tracer)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump({"starts_ns": block.starts_ns,
                             "latencies_ns": block.latencies_ns,
                             "checks": block.checks, "failed": block.failed,
                             "lines": block.lines, "cal_at_ns": block.meter.at_ns,
                             "cal_ms": block.meter.cal_ms, "rss_mb": _rss_mb(),
                             "trace": tracer.dump() if tracer else None}, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"the child process of a rotation ended with status {status}")
    return pickle.loads(data)


def execute(prog, workload, seed: int, seconds: float, tiny: bool = False,
            tracer: Optional[Tracer] = None) -> Run:
    run = Run()
    prefix = workload.prefix[1 if tiny else 0]
    deadline = time.perf_counter() + seconds
    for n_rot, rotation in enumerate(workloads.requests(workload, seed, tiny), 1):
        if workload.fresh_process:
            child = send_in_child(prog, workload, rotation, tracer)
            run.merge(child)
            if tracer:
                tracer.absorb(child["trace"])
        else:
            send(prog, workload, rotation, run, tracer)
        if n_rot == prefix:
            run.prefix_checks = run.checks
            run.prefix_digest = run.run_digest.hexdigest()
            run.rss_prefix_mb = statistics.median(run.child_rss_mb) \
                if run.child_rss_mb else _rss_mb()
        if n_rot >= prefix and time.perf_counter() >= deadline:
            run.meter.calibrate(force=True)
            return run
    raise AssertionError("request stream ended")  # pragma: no cover


def _expected_checks(prog, workload, payload) -> int:
    if workload.kind != "sweep":
        return 1
    try:
        spec = prog.stability.SweepSpec(**payload)
        return prog.stability.count_instances(spec) * len(spec.alphas)
    except Exception:
        return 1


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def golden_gate(prog, workload, seed: int, run: Run, golden: dict) -> list:
    """Compare the run's prefix with golden.json when its seed is listed
    there, and always the full-size prefix of REFERENCE_SEED, sent afresh;
    returns the (label, checks) of each mismatch."""
    digests = golden[workload.name]
    bad = []
    want = digests.get(str(seed))
    if want is not None and want != run.prefix_digest:
        bad.append(("prefix", run.prefix_checks))
    ref = execute(prog, workload, REFERENCE_SEED, 0.0)
    ref_ok = not ref.failed and ref.prefix_digest == digests[str(REFERENCE_SEED)]
    if not ref_ok:
        bad.append(("reference", ref.checks))
    print(f"perfbench: golden prefix={'absent' if want is None else want == run.prefix_digest}"
          f" reference={ref_ok}")
    return bad


def end_to_end(run: Run, setup_s: float, failed: int, attempted: int) -> dict:
    """Timings scaled to the reference machine speed (see speed.py)."""
    scaled = run.scaled_ns()
    busy_s = sum(scaled) / 1e9
    lat_ms = sorted(ns / 1e6 for ns in scaled)
    p99 = statistics.quantiles(lat_ms, n=100, method="inclusive")[98] \
        if len(lat_ms) > 1 else lat_ms[0]
    metrics = {
        "checks_per_s": (run.checks / busy_s, "1/s"),
        "queries_per_s": (len(lat_ms) / busy_s, "1/s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_p99_ms": (p99, "ms"),
        "peak_rss_mb": (run.rss_prefix_mb, "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(tracer: Tracer, run: Run, untraced: dict, traced: dict,
              rss_end_mb: float, out_path: Path) -> dict:
    self_ns = tracer.self_times()
    tracer.write(out_path, self_ns)
    summary = tracer.summary(self_ns)
    counts = tracer.counts
    busy_ns = sum(run.latencies_ns)

    def row(name):
        return summary.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    m = {}
    for name in ("cones.weight_cone", "cones.extremal_rays_special",
                 "cones.lineality_space", "linalg.feasible_nonneg_combination",
                 "linalg.nullspace", "bundle.enumerate_flags", "stability.flag_data",
                 "bundle.invariant_subsets", "bundle.admissible_chain_pairs",
                 "bundle.validate_pair", "jordan.decompose"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.self_s"] = (row(name)["self_ns"] / 1e9, "s")
    for name in CACHED:
        m[f"{name}.hits"] = (counts[f"{name}.hits"], "count")
        m[f"{name}.misses"] = (counts[f"{name}.misses"], "count")
    m["cones.candidates_scanned"] = (counts["candidates"], "count.computed")
    fnc = row("linalg.feasible_nonneg_combination")["calls"]
    m["cones.extremal_yield"] = (counts["rays_kept"] / fnc if fnc else 0.0, "rays/call")
    flag_calls = row("stability.flag_data")["calls"]
    m["stability.geometry_reuse"] = (
        counts["geometry_seen"] / flag_calls if flag_calls else 0.0, "ratio")
    m["stability.equivalence_sweep.self_s"] = (
        row("stability.equivalence_sweep")["self_ns"] / 1e9, "s")
    for name in ("stability.classify_general", "stability.classify_simplified",
                 "stability.polystable_general_taut", "stability.polystable_simplified",
                 "cli.parse_pair_document", "cli.report_json"):
        m[f"{name}.s"] = (row(name)["total_ns"] / 1e9, "s")
    for name in ("cli.cmd_check", "cli.cmd_jh"):
        m[f"{name}.self_s"] = (row(name)["self_ns"] / 1e9, "s")
    module_ns = {mod: sum(r["self_ns"] for n, r in summary.items()
                          if n.startswith(mod + ".")) for mod in MODULES}
    for mod, ns in module_ns.items():
        m[f"module.{mod}.self_s"] = (ns / 1e9, "s")
    m["module.cones_linalg.self_share"] = (
        (module_ns["cones"] + module_ns["linalg"]) / busy_ns, "ratio")
    m["stability.equivalence_sweep.self_share"] = (
        row("stability.equivalence_sweep")["self_ns"] / busy_ns, "ratio")
    m["workload.flags_per_pair"] = (counts["flags"] / flag_calls if flag_calls else 0.0, "flags")
    chain_calls = row("bundle.admissible_chain_pairs")["calls"]
    m["workload.chains_per_sp2nr_pair"] = (
        counts["chains"] / chain_calls if chain_calls else 0.0, "chains")
    m["trace.spans"] = (len(tracer.start), "count")
    m["trace.overhead.checks_per_s"] = (
        untraced["checks_per_s"]["value"] - traced["checks_per_s"]["value"], "1/s")
    m["trace.overhead.query_p50_ms"] = (
        traced["query_p50_ms"]["value"] - untraced["query_p50_ms"]["value"], "ms")
    m["process.peak_rss_end_mb"] = (rss_end_mb, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def untraced_child(args) -> dict:
    """The same run without tracing, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=gate.ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    cal_ms = speed.samples(2)
    t_setup = time.perf_counter_ns()
    try:
        prog = gate.load_program()
        golden = load_golden()
    except (gate.ProgramMissing, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    with (tracer.installed(prog) if tracer else contextlib.nullcontext()):
        warm_up(prog, workload)
    setup_s = (time.perf_counter_ns() - t_setup) / 1e9 \
        / speed.slowdown(cal_ms + speed.samples(2))

    child = untraced_child(args) if args.trace else None
    if tracer:
        tracer.clear()
    with (tracer.installed(prog) if tracer else contextlib.nullcontext()):
        run = execute(prog, workload, args.seed, args.seconds, tracer=tracer)
    rss_end_mb = _rss_mb()
    bad = golden_gate(prog, workload, args.seed, run, golden)
    failed = run.failed + sum(checks for _, checks in bad)
    attempted = run.checks + sum(checks for label, checks in bad if label == "reference")
    e2e = end_to_end(run, setup_s, failed, attempted)
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"requests={len(run.latencies_ns)} checks={run.checks} failed={failed} "
          f"slowdown={speed.slowdown(run.meter.cal_ms):.4f} "
          f"raw_checks_per_s={run.checks / (sum(run.latencies_ns) / 1e9):.6g} "
          f"prefix_digest={run.prefix_digest} run_digest={run.run_digest.hexdigest()}")
    if tracer:
        out_path = OUT / f"{workload.name}-seed{args.seed}-spans.csv.gz"
        metrics = per_layer(tracer, run, child["metrics"], e2e, rss_end_mb, out_path)
        correct = failed == 0 and child["correct"]
    else:
        metrics = e2e
        correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
