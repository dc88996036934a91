"""Seeded inputs of the three benchmark workloads.

A workload is an endless stream of requests built from the seed alone; the
program under test only ever sees the generated sweep specs and pair
documents.  Requests come in rotations (three sweeps, or one document of
each family and rank for ``check-docs``), and a run stops only at a rotation
boundary, so every run covers the same mix of families and ranks.

This module imports nothing from the program: a sweep request is a plain
dict of ``SweepSpec`` keyword arguments and a document request is the JSON
object a CLI user would send.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" (equivalence_sweep specs) or "docs" (pair documents)
    # rotations always completed, however short the run (full size, tiny
    # size): the digest checked against golden.json and the peak-RSS reading
    # both cover exactly these
    prefix: Tuple[int, int]
    rotations: Callable[[random.Random, bool], Iterator[List[dict]]]
    # requests sent once, untimed, before the timed window: the set-up a
    # user of this workload pays once per process
    warmup: Tuple[dict, ...] = ()
    # each rotation runs in a child forked from the set-up process, so it
    # never finds caches that an earlier rotation filled
    fresh_process: bool = False


def _rationals(rng: random.Random, count: int) -> List[str]:
    """Distinct non-integral rationals p/q with |p/q| < 2."""
    out: List[str] = []
    while len(out) < count:
        q = rng.randint(2, 9)
        a = Fraction(rng.randint(-2 * q + 1, 2 * q - 1), q)
        if a.denominator > 1 and str(a) not in out:
            out.append(str(a))
    return out


# Geometry depends on the support pattern only, so one sweep over a single
# degree list builds it for every pattern of the ranks sweep-warm uses.
WARM_UP = (
    dict(group="Sp2nR", ranks=(1, 2), degree_min=0, degree_max=0, alphas=("mu",)),
    dict(group="SLnC", ranks=(3,), degree_min=0, degree_max=0, alphas=("0",)),
)


def sweep_warm(rng: random.Random, tiny: bool) -> Iterator[List[dict]]:
    # Sweeps once the warm-up has built the geometry of every pattern, so
    # the deciders, instance construction and report merging do the work:
    # exhaustive real symplectic sweeps of a seed-chosen degree list at
    # seed-chosen alphas, and SLnC rank-3 sweeps subsampled from a
    # seed-chosen window.  Two of the three requests are real symplectic,
    # so the median request lies inside one family's latencies.
    b_sl = 8 if tiny else 100

    def sp_real():
        d = rng.randint(-6, 6)
        return dict(group="Sp2nR", ranks=(1, 2), degree_min=d, degree_max=d,
                    alphas=("mu", *_rationals(rng, 3)))

    while True:
        yield [sp_real(),
               dict(group="SLnC", ranks=(3,), degree_min=-rng.randint(1, 5),
                    degree_max=rng.randint(1, 5), alphas=("0",), budget=b_sl),
               sp_real()]


def _with_lower(rng: random.Random, top: int) -> Tuple[int, ...]:
    """The top rank and a seeded subset of the lower ones."""
    return tuple(r for r in range(1, top) if rng.random() < 0.5) + (top,)


def sweep_cold(rng: random.Random, tiny: bool) -> Iterator[List[dict]]:
    # Budget-subsampled sweeps dominated by the top rank.  Each rotation runs
    # in a fresh process, so every geometry it needs is built cold however
    # often a pattern recurs in the run.  The program draws its subsample
    # from the instance count alone; the seed picks the rank sets and degree
    # windows, and through them the instances drawn.
    b_sp, b_gl, b_sl = (1, 1, 1) if tiny else (2, 2, 1)
    while True:
        width = rng.randint(6, 30)
        low = rng.randint(0, width - 1)
        cap = rng.randint(3, 30)
        yield [
            dict(group="Sp2nR", ranks=_with_lower(rng, 3), degree_min=-low,
                 degree_max=width - 1 - low, alphas=("mu", *_rationals(rng, 3)),
                 budget=b_sp),
            dict(group="GLnR", ranks=_with_lower(rng, 5),
                 degree_min=-cap - rng.randint(0, 3), degree_max=cap,
                 alphas=("0",), budget=b_gl),
            # SLnC windows stay narrow: the program lists every monotone
            # degree tuple of a window before filtering
            dict(group="SLnC", ranks=_with_lower(rng, 4), degree_min=-rng.randint(2, 10),
                 degree_max=rng.randint(2, 10), alphas=("0",), budget=b_sl),
        ]


# Ranks of the document stream: 1-4, GLnR up to 5, and the even ranks of
# Sp2nC.  The tiny size keeps ranks 1-2.
_DOC_RANKS = {
    "Sp2nC": (2, 4),
    "SLnC": (1, 2, 3, 4),
    "Sp2nR": (1, 2, 3, 4),
    "GLnR": (1, 2, 3, 4, 5),
}
_TINY_DOC_RANKS = {g: tuple(r for r in ranks if r <= 2)
                   for g, ranks in _DOC_RANKS.items()}


def _degrees(rng: random.Random, group: str, n: int) -> List[int]:
    if group in ("Sp2nC", "GLnR"):
        # reversal pairing: d[n-1-i] = -d[i]; odd GLnR ranks pin the middle
        half = sorted((rng.randint(0, 4) for _ in range(n // 2)), reverse=True)
        return half + [0] * (n % 2) + [-d for d in reversed(half)]
    if group == "SLnC":
        while True:
            d = [rng.randint(-4, 4) for _ in range(n - 1)]
            d.append(-sum(d))
            if abs(d[-1]) <= 6:
                return sorted(d, reverse=True)
    return sorted((rng.randint(-4, 4) for _ in range(n)), reverse=True)


def _sym_support(rng: random.Random, n: int, p: float) -> List[List[int]]:
    out = set()
    for a in range(n):
        for b in range(a, n):
            if rng.random() < p:
                out |= {(a + 1, b + 1), (b + 1, a + 1)}
    return sorted(map(list, out))


def _endo_support(rng: random.Random, n: int, p: float,
                  paired: bool) -> List[List[int]]:
    out = set()
    for t in range(n):
        for s in range(n):
            if rng.random() < p:
                out.add((t + 1, s + 1))
                if paired:  # closure (t,s) -> (sigma(s), sigma(t))
                    out.add((n - s, n - t))
    return sorted(map(list, out))


def pair_document(rng: random.Random, group: str, n: int) -> dict:
    """One valid pair document of a family and rank, 1-based as the CLI
    takes it."""
    p = rng.uniform(0.15, 0.6)
    genus = rng.choice((0, 0, 1, 2))
    doc = {"group": group, "degrees": _degrees(rng, group, n), "genus": genus,
           "twist": "K" if genus >= 2 and rng.random() < 0.5 else 2}
    if group == "Sp2nR":
        doc["beta_supp"] = _sym_support(rng, n, p)
        doc["gamma_supp"] = _sym_support(rng, n, p)
        doc["alpha"] = rng.choice(("0", "mu", _rationals(rng, 1)[0]))
    else:
        doc["supp"] = _endo_support(rng, n, p, paired=group != "SLnC")
        doc["alpha"] = "0"
    return doc


def check_docs(rng: random.Random, tiny: bool) -> Iterator[List[dict]]:
    # One document of each family and rank per rotation, in seeded order:
    # latencies span three orders of magnitude across ranks, so a mix drawn
    # at random would move the median query with the seed.
    ranks = _TINY_DOC_RANKS if tiny else _DOC_RANKS
    strata = [(group, n) for group in sorted(ranks) for n in ranks[group]]
    while True:
        rng.shuffle(strata)
        yield [pair_document(rng, group, n) for group, n in strata]


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-warm", "sweep", (6, 1), sweep_warm, WARM_UP),
        Workload("sweep-cold", "sweep", (20, 1), sweep_cold, fresh_process=True),
        Workload("check-docs", "docs", (10, 4), check_docs),
    )
}


def requests(workload: Workload, seed: int, tiny: bool = False) -> Iterator[List[dict]]:
    """Rotations of request payloads for one seed (same seed, same inputs)."""
    rng = random.Random(f"{workload.name}/{seed}")
    return workload.rotations(rng, tiny)
