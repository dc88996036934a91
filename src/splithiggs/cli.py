"""Command-line front end: parse pair/spec documents, run checks, sweeps,
ray dumps, dimension queries, and decompositions; emit deterministic
JSON-compatible reports.

Documents are flat JSON objects with 1-based summand indices; all rationals
travel as "p/q" strings.  Exit codes: 0 success, 1 input error, 2 internal
invariant failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .bundle import (
    Form,
    Group,
    HiggsPair,
    HiggsPattern,
    ModelError,
    SplitBundle,
    Twist,
    assert_flag,
    validate_pair,
)
from .cones import DimensionTooLarge
from .jordan import NotPolystable, decompose, reassemble
from .moduli import euler_char, expected_dimension
from .stability import (
    Certificate,
    Status,
    SweepSpec,
    classify_general,
    classify_simplified,
    count_instances,
    equivalence_sweep,
    flag_data,
    polystable_general_taut,
    polystable_simplified,
    resolve_alpha,
    single_flag_data,
)

SWEEP_INSTANCE_CAP = 10 ** 6


class DocumentError(ValueError):
    """Input-document problem, tagged with the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


_GROUP_RANK = {
    Group.SP2NC: lambda n: 2 * n,
    Group.SLNC: lambda n: n,
    Group.SP2NR: lambda n: n,
    Group.GLNR: lambda n: n,
}


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python, but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(doc: dict, name: str, default=None, required: bool = False):
    if name in doc:
        return doc[name]
    if required:
        raise DocumentError(name, "missing required field")
    return default


def _genus(doc: dict) -> int:
    genus = _field(doc, "genus", default=0)
    if not (_is_int(genus) and genus >= 0):
        raise DocumentError("genus", "expected a non-negative integer")
    return genus


def _twist_ell(doc: dict, genus: int) -> Tuple[int, bool]:
    """(degree, canonical) of the twist field: an integer degree, or "K" for
    the canonical bundle, of degree 2*genus - 2."""
    twist = _field(doc, "twist", default=2)
    if twist == "K":
        return 2 * genus - 2, True
    if not _is_int(twist):
        raise DocumentError("twist", 'expected an integer or "K"')
    return twist, False


def _sweep_alpha(alpha, group: Group) -> str:
    """A sweep alpha, checked as resolve_alpha would check it for every
    instance of the group ("mu" is the slope, 0 outside Sp2nR)."""
    if not (isinstance(alpha, str) or _is_int(alpha)):
        raise DocumentError(
            "alphas", f'entry {alpha!r} is not "mu", an integer or a "p/q" string')
    if alpha != "mu":
        try:
            value = Fraction(alpha)
        except (ValueError, ZeroDivisionError):
            raise DocumentError("alphas", f"entry {alpha!r} is not a rational number") from None
        if value != 0 and group is not Group.SP2NR:
            raise DocumentError("alphas", f"alpha must be 0 for group {group.value}")
    return str(alpha)


def _index_pairs(raw, field: str, rank: int) -> set:
    out = set()
    if raw is None:
        return out
    if not isinstance(raw, list):
        raise DocumentError(field, "expected a list of index pairs")
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise DocumentError(field, f"entry {item!r} is not an index pair")
        a, b = item
        if not all(_is_int(x) and 1 <= x <= rank for x in (a, b)):
            raise DocumentError(
                field, f"entry {item!r} must use 1-based indices in 1..{rank}")
        out.add((a - 1, b - 1))
    return out


def parse_pair_document(doc: dict, alpha_override: Optional[str] = None,
                        strict_sections: bool = False) -> Tuple[HiggsPair, object]:
    """Build and validate a pair from a flat document; returns (pair, alpha)."""
    if not isinstance(doc, dict):
        raise DocumentError("document", "expected a JSON object")
    try:
        group = Group(_field(doc, "group", required=True))
    except ValueError:
        raise DocumentError("group", f"unknown group {doc.get('group')!r}") from None
    degrees = _field(doc, "degrees", required=True)
    if not (isinstance(degrees, list) and degrees
            and all(_is_int(d) for d in degrees)):
        raise DocumentError("degrees", "expected a non-empty list of integers")
    n = _field(doc, "n")
    if n is not None:
        if not (_is_int(n) and n >= 1):
            raise DocumentError("n", "expected a positive integer")
        want = _GROUP_RANK[group](n)
        if len(degrees) != want:
            raise DocumentError(
                "degrees", f"group parameter n={n} needs {want} entries, "
                f"got {len(degrees)}")
    rank = len(degrees)
    genus = _genus(doc)
    ell, canonical = _twist_ell(doc, genus)
    twist = Twist(ell, genus, canonical)
    pairing = _field(doc, "pairing")
    form = {Group.SP2NC: Form.SYMPLECTIC, Group.GLNR: Form.ORTHOGONAL}.get(
        group, Form.NONE)
    if pairing is not None:
        if form is Form.NONE:
            raise DocumentError("pairing", "this group carries no summand pairing")
        if not (isinstance(pairing, list) and all(_is_int(p) for p in pairing)
                and sorted(pairing) == list(range(1, rank + 1))):
            raise DocumentError(
                "pairing", "expected a 1-based permutation of the summands")
        pairing = tuple(p - 1 for p in pairing)
    if form is not Form.NONE and pairing is None:
        pairing = tuple(rank - 1 - i for i in range(rank))
    if group is Group.SP2NR:
        pattern = HiggsPattern(
            "sym_pair",
            beta=frozenset(_index_pairs(doc.get("beta_supp"), "beta_supp", rank)),
            gamma=frozenset(_index_pairs(doc.get("gamma_supp"), "gamma_supp", rank)),
        )
        if "supp" in doc:
            raise DocumentError("supp", "this group takes beta_supp/gamma_supp")
    else:
        pattern = HiggsPattern(
            "endo", endo=frozenset(_index_pairs(doc.get("supp"), "supp", rank)))
        for bad in ("beta_supp", "gamma_supp"):
            if bad in doc:
                raise DocumentError(bad, "this group takes supp")
    try:
        bundle = SplitBundle(tuple(degrees), pairing, form,
                             det_trivial=group is Group.SLNC)
        pair = validate_pair(HiggsPair(group, bundle, twist, pattern),
                             strict_sections=strict_sections)
    except ModelError as exc:
        raise DocumentError("pair", str(exc)) from exc
    alpha = alpha_override if alpha_override is not None \
        else _field(doc, "alpha", default="0")
    if not (isinstance(alpha, str) or _is_int(alpha)):
        raise DocumentError("alpha", 'expected "mu", an integer or a "p/q" string')
    try:
        resolve_alpha(pair, alpha)
    except (ValueError, ZeroDivisionError, ModelError) as exc:
        raise DocumentError("alpha", str(exc)) from exc
    return pair, alpha


def pair_to_document(pair: HiggsPair, alpha) -> dict:
    """Canonical flat document for a pair (inverse of parsing)."""
    doc = {
        "group": pair.group.value,
        "degrees": list(pair.bundle.degrees),
        "genus": pair.twist.genus,
        "twist": "K" if pair.twist.is_canonical else pair.twist.ell,
        "alpha": str(alpha),
    }
    if pair.bundle.pairing is not None:
        doc["pairing"] = [p + 1 for p in pair.bundle.pairing]
    if pair.pattern.kind == "endo":
        doc["supp"] = sorted([a + 1, b + 1] for (a, b) in pair.pattern.endo)
    else:
        doc["beta_supp"] = sorted([a + 1, b + 1] for (a, b) in pair.pattern.beta)
        doc["gamma_supp"] = sorted([a + 1, b + 1] for (a, b) in pair.pattern.gamma)
    return doc


def _frac_str(value) -> str:
    return str(Fraction(value))


def _num(value):
    """JSON-safe exact number: int when integral, else a "p/q" string."""
    f = Fraction(value)
    return int(f) if f.denominator == 1 else str(f)


def _vec(v) -> list:
    return [_num(x) for x in v]


def _cert_doc(cert: Optional[Certificate]) -> Optional[dict]:
    if cert is None:
        return None
    out = {"kind": cert.kind}
    if cert.flag is not None:
        out["flag"] = [[i + 1 for i in step] for step in cert.flag]
    if cert.weights is not None:
        out["weights"] = [int(w) for w in cert.weights]
    if cert.subset is not None:
        out["subset"] = [i + 1 for i in cert.subset]
    if cert.chain is not None:
        out["chain"] = [[i + 1 for i in part] for part in cert.chain]
    if cert.entry is not None:
        fam, a, b = cert.entry
        out["entry"] = [fam, a + 1, b + 1]
    if cert.value is not None:
        out["value"] = _frac_str(cert.value)
    return out


def _engine(mode: str, counts: int, t0: float) -> dict:
    return {"mode": mode, "instance_counts": counts,
            "elapsed_ms": int((time.monotonic() - t0) * 1000)}


def cmd_check(doc: dict, mode: str = "both", alpha_override=None,
              strict_sections: bool = False) -> Tuple[dict, int]:
    t0 = time.monotonic()
    pair, alpha = parse_pair_document(doc, alpha_override, strict_sections)
    n_flags = len(flag_data(pair))
    report: dict = {
        "input": pair_to_document(pair, alpha),
        "alpha": _frac_str(resolve_alpha(pair, alpha)) if alpha != "mu" else
        f"mu={_frac_str(resolve_alpha(pair, alpha))}",
    }
    code = 0
    if mode in ("general", "both"):
        g = classify_general(pair, alpha)
        report["general"] = {"verdict": g.status.value,
                             "certificate": _cert_doc(g.certificate)}
    if mode in ("simplified", "both"):
        s = classify_simplified(pair, alpha)
        report["simplified"] = {"verdict": s.status.value,
                                "certificate": _cert_doc(s.certificate)}
    if mode == "both":
        g_status = report["general"]["verdict"]
        s_status = report["simplified"]["verdict"]
        semis_agree = (g_status == "unstable") == (s_status == "unstable")
        stable_agree = (g_status == "stable") == (s_status == "stable")
        report["agreement"] = {"semistable": semis_agree,
                               "stable": stable_agree}
        gp = polystable_general_taut(pair, alpha).status is Status.POLYSTABLE \
            if g_status != "unstable" else False
        sp = polystable_simplified(pair, alpha).status is Status.POLYSTABLE \
            if s_status != "unstable" else False
        report["polystable_probe"] = {"general_taut": gp, "simplified": sp}
        report["verdict"] = s_status
        if not (semis_agree and stable_agree):
            report["diagnostics"] = "general and simplified checkers disagree"
            code = 2
    else:
        report["verdict"] = report[mode]["verdict"]
    report["engine"] = _engine(mode, n_flags, t0)
    return report, code


def parse_sweep_document(doc: dict, budget_override: Optional[int] = None) -> SweepSpec:
    if not isinstance(doc, dict):
        raise DocumentError("document", "expected a JSON object")
    try:
        group = Group(_field(doc, "group", required=True))
    except ValueError:
        raise DocumentError("group", f"unknown group {doc.get('group')!r}") from None
    ranks = _field(doc, "ranks", required=True)
    if not (isinstance(ranks, list) and
            all(_is_int(r) and r >= 1 for r in ranks)):
        raise DocumentError("ranks", "expected a list of positive integers")
    if group is Group.SP2NC and any(r % 2 for r in ranks):
        raise DocumentError("ranks", "Sp2nC ranks are even (rank 2n)")
    alphas = _field(doc, "alphas", default=["0"])
    if not (isinstance(alphas, list) and alphas):
        raise DocumentError("alphas", "expected a non-empty list")
    alphas = [_sweep_alpha(a, group) for a in alphas]
    budget = budget_override if budget_override is not None \
        else _field(doc, "budget")
    if budget is not None and not (_is_int(budget) and budget >= 1):
        raise DocumentError("budget", "expected a positive integer")
    genus = _genus(doc)
    twist_ell, _ = _twist_ell(doc, genus)
    degree_min = _field(doc, "degree_min", default=-2)
    degree_max = _field(doc, "degree_max", default=2)
    for name, value in (("degree_min", degree_min), ("degree_max", degree_max)):
        if not _is_int(value):
            raise DocumentError(name, "expected an integer")
    if degree_min > degree_max:
        raise DocumentError(
            "degree_max", f"must be at least degree_min={degree_min}")
    spec = SweepSpec(
        group=group,
        ranks=tuple(ranks),
        degree_min=degree_min,
        degree_max=degree_max,
        twist_ell=twist_ell,
        genus=genus,
        alphas=tuple(alphas),
        budget=budget,
    )
    uncapped = count_instances(dataclasses.replace(spec, budget=None))
    if budget is None and uncapped > SWEEP_INSTANCE_CAP:
        raise DocumentError(
            "budget", f"spec yields {uncapped} instances, above the cap of "
            f"{SWEEP_INSTANCE_CAP}; pass a budget to subsample")
    return spec


def cmd_sweep(doc: dict, budget_override: Optional[int] = None,
              jobs: int = 1) -> Tuple[dict, int]:
    spec = parse_sweep_document(doc, budget_override)
    report = equivalence_sweep(spec, jobs=jobs)
    out = report.to_json()
    out["engine"] = {"mode": "sweep", "instance_counts": report.instances,
                     "elapsed_ms": out.pop("elapsed_ms")}
    return out, 0


def cmd_rays(doc: dict) -> Tuple[dict, int]:
    t0 = time.monotonic()
    pair, alpha = parse_pair_document(doc)
    raw_flag = _field(doc, "flag", required=True)
    if not (isinstance(raw_flag, list) and raw_flag and
            all(isinstance(step, list) for step in raw_flag)):
        raise DocumentError("flag", "expected a list of index lists")
    try:
        flag = tuple(tuple(sorted(i - 1 for i in step)) for step in raw_flag)
        assert_flag(pair, flag)
    except (ModelError, TypeError) as exc:
        raise DocumentError("flag", str(exc)) from exc
    fd = single_flag_data(pair, flag)
    a = resolve_alpha(pair, alpha)
    p, q = a.numerator, a.denominator
    coeffs = [q * dd - p * nn for dd, nn in zip(fd.deg_jumps, fd.size_jumps)]
    report = {
        "input": pair_to_document(pair, alpha),
        "flag": [[i + 1 for i in step] for step in flag],
        "constraints": {
            "inequalities": [_vec(h) for h in fd.cone.ineqs],
            "equalities": [_vec(h) for h in fd.cone.eqs],
        },
        "lineality": [_vec(v) for v in fd.lineality],
        "rays": [_vec(r) for r in fd.rays],
        "degree_values": [_frac_str(Fraction(sum(c * x for c, x in zip(coeffs, r)), q))
                          for r in fd.rays],
        "engine": _engine("rays", 1, t0),
    }
    return report, 0


def cmd_dim(group: str, n: int, genus: int,
            euler: Optional[Sequence[int]] = None) -> Tuple[dict, int]:
    t0 = time.monotonic()
    try:
        dim = expected_dimension(group, n, genus)
    except ModelError as exc:
        raise DocumentError("group", str(exc)) from exc
    report = {
        "group": Group(group).value,
        "n": n,
        "genus": genus,
        "expected_dimension": dim,
    }
    if euler is not None:
        r, d = euler
        report["euler_char"] = {"rank": r, "degree": d,
                                "value": euler_char(r, d, genus)}
    report["engine"] = _engine("dim", 1, t0)
    return report, 0


def cmd_jh(doc: dict, alpha_override=None) -> Tuple[dict, int]:
    t0 = time.monotonic()
    pair, alpha = parse_pair_document(doc, alpha_override)
    try:
        dec = decompose(pair, alpha)
    except NotPolystable as exc:
        verdict = classify_simplified(pair, alpha)
        report = {
            "input": pair_to_document(pair, alpha),
            "error": {"field": "pair", "message": str(exc)},
            "verdict": verdict.status.value,
            "certificate": _cert_doc(verdict.certificate),
            "engine": _engine("jh", 1, t0),
        }
        return report, 1
    rebuilt = reassemble(dec)
    canonical = json.dumps(pair_to_document(rebuilt, alpha), sort_keys=True)
    report = {
        "input": pair_to_document(pair, alpha),
        "factors": [
            {
                "label": f.label,
                "indices": [i + 1 for i in f.indices],
                "degrees": list(f.embedded_pair.bundle.degrees),
                **({"colors": [[i + 1 for i in c] for c in f.colors]}
                   if f.colors else {}),
            }
            for f in dec.factors
        ],
        "round_trip": {
            "matches_input": rebuilt == pair,
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        },
        "engine": _engine("jh", len(dec.factors), t0),
    }
    return report, 0 if rebuilt == pair else 2


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str, field: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DocumentError(field, f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(field, f"invalid JSON: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splithiggs",
        description="Stability of split twisted pairs: checks, sweeps, "
                    "ray dumps, dimensions, decompositions.")
    parser.add_argument("--output", help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify a single pair")
    p_check.add_argument("pair_file")
    p_check.add_argument("--mode", choices=("general", "simplified", "both"),
                         default="both")
    p_check.add_argument("--alpha", help="override the document's parameter")
    p_check.add_argument("--strict-sections", action="store_true",
                         help="reject entries with negative twisted degree "
                              "at genus 0")

    p_sweep = sub.add_parser("sweep", help="run an equivalence sweep")
    p_sweep.add_argument("spec_file")
    p_sweep.add_argument("--budget", type=int,
                         help="deterministic subsample size")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes for instance checking")

    p_rays = sub.add_parser("rays", help="dump a flag's weight cone")
    p_rays.add_argument("pair_file",
                        help="pair document carrying a 'flag' field")

    p_dim = sub.add_parser("dim", help="expected moduli dimension")
    p_dim.add_argument("--group", required=True)
    p_dim.add_argument("--n", type=int, required=True)
    p_dim.add_argument("--genus", type=int, required=True)
    p_dim.add_argument("--euler", nargs=2, type=int, metavar=("RANK", "DEG"),
                       help="also report the Euler characteristic")

    p_jh = sub.add_parser("jh", help="decompose a polystable pair")
    p_jh.add_argument("pair_file")
    p_jh.add_argument("--alpha", help="override the document's parameter")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            doc = _load_json(args.pair_file, "pair_file")
            report, code = cmd_check(doc, args.mode, args.alpha,
                                     args.strict_sections)
        elif args.command == "sweep":
            doc = _load_json(args.spec_file, "spec_file")
            report, code = cmd_sweep(doc, args.budget, args.jobs)
        elif args.command == "rays":
            doc = _load_json(args.pair_file, "pair_file")
            report, code = cmd_rays(doc)
        elif args.command == "dim":
            report, code = cmd_dim(args.group, args.n, args.genus, args.euler)
        else:
            doc = _load_json(args.pair_file, "pair_file")
            report, code = cmd_jh(doc, args.alpha)
    except DocumentError as exc:
        _emit({"error": {"field": exc.field, "message": exc.message}},
              args.output)
        return 1
    except (ModelError, DimensionTooLarge) as exc:
        _emit({"error": {"field": "input", "message": str(exc)}}, args.output)
        return 1
    except Exception as exc:  # internal invariant failure
        _emit({"error": {"field": "internal", "message": f"{type(exc).__name__}: {exc}"}},
              args.output)
        return 2
    _emit(report, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
