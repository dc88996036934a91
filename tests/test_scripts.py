"""Smoke tests of scripts/: each script's main runs a small range end to end
through the sweeps and, for the decomposition census, through jordan."""
import importlib.util
import pathlib
import re

from splithiggs.stability import count_instances

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_acceptance_sweeps_script_agrees_on_slnc(capsys):
    script = _load("run_acceptance_sweeps")
    assert script.main(["--groups", "SLnC"]) == 0
    out = capsys.readouterr().out
    (spec,) = [spec for name, spec in script.SWEEPS if name == "SLnC"]
    head = re.search(r"== SLnC: (\d+) instances, (\d+) checks in [\d.]+s "
                     r"\([\d,]+ checks/s\) -> agreement OK", out)
    assert head, out
    assert int(head.group(1)) == int(head.group(2)) == count_instances(spec) > 2000
    assert "MISMATCHES" not in out and "== Sp2nR" not in out


def test_decomposition_script_reassembles_every_polystable(capsys):
    # the script asserts that each decomposition reassembles to its input
    assert _load("decompose_swept_polystables").main(
        ["--max-rank", "2", "--degree-bound", "1"]) == 0
    out = capsys.readouterr().out
    hits = int(re.search(r"; (\d+) polystable hits", out).group(1))
    census = [int(line.split()[-1]) for line in out.splitlines()[1:]]
    assert hits > 0 and sum(census) == hits
