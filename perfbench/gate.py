"""Loading the program from source, calling it, and the correctness gate.

Every request goes through public functions only: ``equivalence_sweep`` for
sweep specs, ``cmd_check`` (mode ``both``) and ``cmd_jh`` for documents.
Each output is checked on the spot, and its canonical form (every timing
field removed) feeds a sha256 digest, so a change of verdict, certificate
or count shows as a digest mismatch rather than as a speed-up.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    pass


def load_program() -> SimpleNamespace:
    """Import splithiggs from this checkout's ``src`` and nowhere else."""
    init = SRC / "splithiggs" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("splithiggs")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"splithiggs imported from {pkg.__file__}, not {init}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"splithiggs.{name}")
        for name in ("bundle", "cli", "cones", "jordan", "linalg", "stability")
    })


# ---------------------------------------------------------------------------
# Calls (the timed part of a request)


def call_sweep(prog: SimpleNamespace, payload: dict):
    # looked up at call time, so the traced run sees its wrapper
    return prog.stability.equivalence_sweep(prog.stability.SweepSpec(**payload))


def call_doc(prog: SimpleNamespace, doc: dict, report_span) -> List[Tuple[str, dict, int]]:
    """cmd_check in mode both, then cmd_jh for a real symplectic pair that
    classifies stable or polystable; each report serialized as a CLI would."""
    report, code = prog.cli.cmd_check(doc, "both")
    with report_span():
        json.dumps(report, sort_keys=True)
    out = [("check", report, code)]
    if doc["group"] == "Sp2nR" and report.get("verdict") in ("stable", "polystable"):
        jh, jh_code = prog.cli.cmd_jh(doc)
        with report_span():
            json.dumps(jh, sort_keys=True)
        out.append(("jh", jh, jh_code))
    return out


# ---------------------------------------------------------------------------
# Judging (untimed)


def sweep_failures(report) -> int:
    """Checks of a sweep with a decider mismatch or an implication failure."""
    bad = {json.dumps([m["pair"], m["alpha"]], sort_keys=True)
           for m in report.mismatches + report.poly_implication_failures}
    return min(report.checks, len(bad)) if bad else 0


def doc_failed(outputs: List[Tuple[str, dict, int]]) -> bool:
    for kind, report, code in outputs:
        if code != 0:
            return True
        if kind == "check" and report.get("agreement") != {"semistable": True,
                                                           "stable": True}:
            return True
        if kind == "jh" and report.get("round_trip", {}).get("matches_input") is not True:
            return True
    return False


def canonical(report: dict) -> dict:
    """The report without its timing fields."""
    out = {k: v for k, v in report.items() if k != "elapsed_ms"}
    if isinstance(out.get("engine"), dict):
        out["engine"] = {k: v for k, v in out["engine"].items() if k != "elapsed_ms"}
    return out


def canonical_line(report: dict) -> bytes:
    """One line of digest input: the canonical report as compact JSON."""
    return json.dumps(canonical(report), sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"



def new_digest():
    return hashlib.sha256()
