"""Command-line front end: parse pair/spec documents, run checks, sweeps,
ray dumps, dimension queries, and decompositions; emit deterministic
JSON-compatible reports.

Documents are flat JSON objects with 1-based summand indices and no keys
but their own fields; all rationals travel as "p/q" strings.  Exit codes:
0 success, 1 input error, 2 internal invariant failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .bundle import (
    ALPHA_DIGITS,
    INT_BOUND,
    PAIRED,
    Group,
    HiggsPair,
    HiggsPattern,
    ModelError,
    Twist,
    assert_flag,
    flag_count,
    group_bundle,
    validate_pair,
)
from .cones import DimensionTooLarge, weight_cone
from .jordan import NotPolystable, decompose, reassemble
from .moduli import euler_char, expected_dimension
from .stability import (
    GENERAL,
    MAX_RANK,
    SIMPLIFIED,
    SWEEP_INSTANCE_CAP,
    DocumentError,
    PairInputs,
    SweepSpec,
    _check_twist,
    _int_coeffs,
    _is_int,
    cert_json,
    classify_general,  # perfbench/tracing.py wraps it at this name
    classify_simplified,  # perfbench/tracing.py wraps it at this name
    equivalence_sweep,
    flag_data,  # perfbench/tracing.py wraps it at this name
    polystable_general_taut,  # perfbench/tracing.py wraps it at this name
    polystable_simplified,  # perfbench/tracing.py wraps it at this name
    resolve_alpha,
    single_flag_data,
)

PAIR_FIELDS = frozenset({"group", "degrees", "n", "genus", "twist", "pairing", "alpha",
                         "supp", "beta_supp", "gamma_supp"})
SWEEP_FIELDS = frozenset({"group", "ranks", "degree_min", "degree_max", "genus", "twist",
                          "alphas", "budget"})


def _refuse_unknown(doc: dict, known: frozenset) -> None:
    """A misspelt key would otherwise leave its field at the default."""
    name = next((name for name in doc if name not in known), None)
    if name is not None:
        raise DocumentError(str(name), "unknown field")


def _field(doc: dict, name: str, default=None, required: bool = False):
    if name in doc:
        return doc[name]
    if required:
        raise DocumentError(name, "missing required field")
    return default


def _twist(doc: dict) -> tuple:
    """(genus, twist degree, canonical) as the document gives them, unchecked:
    a twist of "K" is the canonical bundle, of degree 2*genus - 2."""
    genus, twist = _field(doc, "genus", default=0), _field(doc, "twist", default=2)
    if twist == "K" and _is_int(genus):
        return genus, 2 * genus - 2, True
    return genus, twist, False


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
                        strict_sections: bool = False, known: frozenset = PAIR_FIELDS,
                        ) -> Tuple[HiggsPair, object, Fraction]:
    """Build and validate a pair from a flat document whose keys are all in
    known; returns the pair, the alpha as the document gives it (the
    report's label) and its value, resolved once."""
    if not isinstance(doc, dict):
        raise DocumentError("document", "expected a JSON object")
    _refuse_unknown(doc, known)
    group = _field(doc, "group", required=True)
    try:
        group = Group(group)
    except ValueError:
        raise DocumentError("group", f"unknown group {group!r}") from None
    degrees = _field(doc, "degrees", required=True)
    if not (isinstance(degrees, list) and degrees
            and all(_is_int(d) for d in degrees)):
        raise DocumentError("degrees", "expected a non-empty list of integers")
    if any(abs(d) >= INT_BOUND for d in degrees):
        raise DocumentError("degrees", f"a degree has at most {ALPHA_DIGITS} digits")
    if len(degrees) > MAX_RANK:
        raise DocumentError(
            "degrees", f"rank {len(degrees)} is above the cap of {MAX_RANK}")
    n = _field(doc, "n")
    if n is not None:
        if not (_is_int(n) and n >= 1):
            raise DocumentError("n", "expected a positive integer")
        want = 2 * n if group is Group.SP2NC else n
        if len(degrees) != want:
            raise DocumentError(
                "degrees", f"group parameter n={n} needs {want} entries, "
                f"got {len(degrees)}")
    if group is Group.SP2NC and len(degrees) % 2:
        raise DocumentError("degrees", "Sp2nC ranks are even (rank 2n)")
    rank = len(degrees)
    genus, ell, canonical = _twist(doc)
    _check_twist(genus, ell)
    twist = Twist(ell, genus, canonical)
    pairing = _field(doc, "pairing")
    if pairing is not None:
        if group not in PAIRED:
            raise DocumentError("pairing", "this group carries no summand pairing")
        if not (isinstance(pairing, list) and all(_is_int(p) for p in pairing)
                and sorted(pairing) == list(range(1, rank + 1))):
            raise DocumentError(
                "pairing", "expected a 1-based permutation of the summands")
        pairing = tuple(p - 1 for p in pairing)
    if group is Group.SP2NR:
        pattern = HiggsPattern(
            beta=frozenset(_index_pairs(doc.get("beta_supp"), "beta_supp", rank)),
            gamma=frozenset(_index_pairs(doc.get("gamma_supp"), "gamma_supp", rank)),
        )
        if "supp" in doc:
            raise DocumentError("supp", "this group takes beta_supp/gamma_supp")
    else:
        pattern = HiggsPattern(endo=frozenset(_index_pairs(doc.get("supp"), "supp", rank)))
        for bad in ("beta_supp", "gamma_supp"):
            if bad in doc:
                raise DocumentError(bad, "this group takes supp")
    try:
        bundle = group_bundle(group, degrees, pairing)
        pair = validate_pair(HiggsPair(group, bundle, twist, pattern),
                             strict_sections=strict_sections)
    except ModelError as exc:
        raise DocumentError("pair", str(exc)) from exc
    alpha = alpha_override if alpha_override is not None \
        else _field(doc, "alpha", default="0")
    if not (isinstance(alpha, str) or _is_int(alpha)):
        raise DocumentError("alpha", 'expected "mu", an integer or a "p/q" string')
    try:
        value = resolve_alpha(pair, alpha)
    except ValueError as exc:
        raise DocumentError("alpha", str(exc)) from None
    return pair, alpha, value


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
    if pair.group is not Group.SP2NR:
        doc["supp"] = sorted([a + 1, b + 1] for (a, b) in pair.pattern.endo)
    else:
        doc["beta_supp"] = sorted([a + 1, b + 1] for (a, b) in pair.pattern.beta)
        doc["gamma_supp"] = sorted([a + 1, b + 1] for (a, b) in pair.pattern.gamma)
    return doc


def _num(value):
    """JSON-safe exact number: int when integral, else a "p/q" string."""
    f = Fraction(value)
    return int(f) if f.denominator == 1 else str(f)


def _vec(v) -> list:
    return [_num(x) for x in v]


def _engine(mode: str, counts: int, t0: float) -> dict:
    return {"mode": mode, "instance_counts": counts,
            "elapsed_ms": int((time.monotonic() - t0) * 1000)}


def cmd_check(doc: dict, mode: str = "both", alpha_override=None,
              strict_sections: bool = False) -> Tuple[dict, int]:
    t0 = time.monotonic()
    pair, alpha, a = parse_pair_document(doc, alpha_override, strict_sections)
    inputs = PairInputs(pair)
    report: dict = {
        "input": pair_to_document(pair, alpha),
        "alpha": str(a) if alpha != "mu" else f"mu={a}",
    }
    code = 0
    probe = {}
    for side, decider, probe_key in (("general", GENERAL, "general_taut"),
                                     ("simplified", SIMPLIFIED, "simplified")):
        if mode in (side, "both"):
            verdict = decider.classify(inputs, a)
            report[side] = {"verdict": verdict.status.value,
                            "certificate": cert_json(verdict.certificate, 1)}
            if mode == "both":  # the probe is printed only here
                probe[probe_key] = decider.probe(inputs, a, verdict)
    if mode == "both":
        g_status = report["general"]["verdict"]
        s_status = report["simplified"]["verdict"]
        semis_agree = (g_status == "unstable") == (s_status == "unstable")
        stable_agree = (g_status == "stable") == (s_status == "stable")
        report["agreement"] = {"semistable": semis_agree,
                               "stable": stable_agree}
        report["polystable_probe"] = probe
        report["verdict"] = s_status
        if not (semis_agree and stable_agree):
            report["diagnostics"] = "general and simplified checkers disagree"
            code = 2
    else:
        report["verdict"] = report[mode]["verdict"]
    report["engine"] = _engine(mode, flag_count(pair), t0)
    return report, code


def parse_sweep_document(doc: dict, budget_override: Optional[int] = None) -> SweepSpec:
    """The spec of a sweep document, which SweepSpec admits.  Read here: the
    defaults, a twist of "K", alphas as JSON strings or integers (labelled
    by their strings), and --budget over the document's budget."""
    if not isinstance(doc, dict):
        raise DocumentError("document", "expected a JSON object")
    _refuse_unknown(doc, SWEEP_FIELDS)
    group, ranks = _field(doc, "group", required=True), _field(doc, "ranks", required=True)
    alphas = _field(doc, "alphas", default=["0"])
    if isinstance(alphas, list):
        for alpha in alphas:
            if not (isinstance(alpha, str) or _is_int(alpha)):
                raise DocumentError(
                    "alphas", f'entry {alpha!r} is not "mu", an integer or a "p/q" string')
        alphas = [str(alpha) for alpha in alphas]
    genus, twist_ell, _ = _twist(doc)
    budget = budget_override if budget_override is not None else _field(doc, "budget")
    return SweepSpec(group, ranks, _field(doc, "degree_min", default=-2),
                     _field(doc, "degree_max", default=2), twist_ell, genus, alphas, budget)


def cmd_sweep(doc: dict, budget_override: Optional[int] = None) -> Tuple[dict, int]:
    spec = parse_sweep_document(doc, budget_override)
    report = equivalence_sweep(spec)
    out = report.to_json()
    out["engine"] = {"mode": "sweep", "instance_counts": report.instances,
                     "elapsed_ms": out.pop("elapsed_ms")}
    return out, 0


def cmd_rays(doc: dict) -> Tuple[dict, int]:
    t0 = time.monotonic()
    pair, alpha, a = parse_pair_document(doc, known=PAIR_FIELDS | {"flag"})
    raw_flag = _field(doc, "flag", required=True)
    if not (isinstance(raw_flag, list) and raw_flag and
            all(isinstance(step, list) for step in raw_flag)):
        raise DocumentError("flag", "expected a list of index lists")
    for i in (i for step in raw_flag for i in step):
        if not (_is_int(i) and 1 <= i <= pair.rank):
            raise DocumentError(
                "flag", f"entry {i!r} must be a 1-based index in 1..{pair.rank}")
    try:
        flag = tuple(tuple(sorted(i - 1 for i in step)) for step in raw_flag)
        assert_flag(pair, flag)
    except ModelError as exc:
        raise DocumentError("flag", str(exc)) from exc
    fd, cone = single_flag_data(pair, flag), weight_cone(pair, flag)
    coeffs, q = _int_coeffs(fd, a), a.denominator
    report = {
        "input": pair_to_document(pair, alpha),
        "flag": [[i + 1 for i in step] for step in flag],
        "constraints": {
            "inequalities": [_vec(h) for h in cone.ineqs],
            "equalities": [_vec(h) for h in cone.eqs],
        },
        "lineality": [_vec(v) for v in fd.lineality],
        "rays": [_vec(r) for r in fd.rays],
        "degree_values": [str(Fraction(sum(c * x for c, x in zip(coeffs, r)), q))
                          for r in fd.rays],
        "engine": _engine("rays", 1, t0),
    }
    return report, 0


def cmd_dim(group: str, n: int, genus: int,
            euler: Optional[Sequence[int]] = None) -> Tuple[dict, int]:
    t0 = time.monotonic()
    # expected_dimension's checks, in its order, each naming its option
    if genus < 2:
        raise DocumentError("genus", "expected dimension is defined for genus >= 2")
    try:
        group = Group(group)
    except ValueError:
        raise DocumentError("group", f"unknown group {group!r}") from None
    if n < 1:
        raise DocumentError("n", "group parameter n must be positive")
    try:
        dim = expected_dimension(group, n, genus)
    except ModelError as exc:
        raise DocumentError("group", str(exc)) from exc
    report = {
        "group": group.value,
        "n": n,
        "genus": genus,
        "expected_dimension": dim,
    }
    if euler is not None:
        r, d = euler
        if r < 1:
            raise DocumentError("euler", "rank must be positive")
        report["euler_char"] = {"rank": r, "degree": d,
                                "value": euler_char(r, d, genus)}
    report["engine"] = _engine("dim", 1, t0)
    return report, 0


def cmd_jh(doc: dict, alpha_override=None) -> Tuple[dict, int]:
    t0 = time.monotonic()
    pair, alpha, a = parse_pair_document(doc, alpha_override)
    try:
        dec = decompose(pair, a)
    except NotPolystable as exc:
        verdict = exc.verdict
        report = {
            "input": pair_to_document(pair, alpha),
            "error": {"field": "pair", "message": str(exc)},
            "verdict": verdict.status.value,
            "certificate": cert_json(verdict.certificate, 1),
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
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
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
                         help=f"deterministic subsample size, at most {SWEEP_INSTANCE_CAP}")

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
            report, code = cmd_sweep(doc, args.budget)
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
