"""Spans recorded around the calls into the program's layers.

The traced run replaces each public function of bundle, cones, linalg,
stability, jordan and cli at the name its caller looks up (``stability`` and
``cones`` import functions by name) with a wrapper that records one span:
name, start, end, parent and request.  Spans stay in memory and are written
out once the run ends.  Per-element helpers (``linalg.dot``, ``primitive``,
``vec``, ``step_index``, ``resolve_alpha``...) are not wrapped: they run
millions of times and their cost stays in the caller's self time.  The
deciders inside ``equivalence_sweep`` are private or intra-module calls, so
their time is the sweep's self time.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array
from collections import Counter
from typing import Dict, List

# (module whose namespace the caller looks the name up in, attribute, span)
PATCHES = [
    # entry points the benchmark itself calls
    ("stability", "equivalence_sweep", "stability.equivalence_sweep"),
    ("cli", "cmd_check", "cli.cmd_check"),
    ("cli", "cmd_jh", "cli.cmd_jh"),
    # instance construction and validation
    ("stability", "sp_real_pair", "bundle.sp_real_pair"),
    ("stability", "sl_pair", "bundle.sl_pair"),
    ("stability", "symplectic_pair", "bundle.symplectic_pair"),
    ("stability", "orthogonal_pair", "bundle.orthogonal_pair"),
    ("jordan", "sp_real_pair", "bundle.sp_real_pair"),
    ("bundle", "validate_pair", "bundle.validate_pair"),
    ("cli", "validate_pair", "bundle.validate_pair"),
    ("cli", "parse_pair_document", "cli.parse_pair_document"),
    # geometry
    ("stability", "flag_data", "stability.flag_data"),
    ("cli", "flag_data", "stability.flag_data"),
    ("stability", "enumerate_flags", "bundle.enumerate_flags"),
    ("stability", "weight_cone", "cones.weight_cone"),
    ("stability", "extremal_rays_special", "cones.extremal_rays_special"),
    ("stability", "lineality_space", "cones.lineality_space"),
    ("cones", "lineality_space", "cones.lineality_space"),
    ("cones", "feasible_nonneg_combination", "linalg.feasible_nonneg_combination"),
    # cones.nullspace_of imports linalg.nullspace when it runs
    ("linalg", "nullspace", "linalg.nullspace"),
    # criterion-side subobjects
    ("stability", "invariant_subsets", "bundle.invariant_subsets"),
    ("stability", "admissible_chain_pairs", "bundle.admissible_chain_pairs"),
    # public classifiers reached from cli and jordan
    ("cli", "classify_general", "stability.classify_general"),
    ("cli", "classify_simplified", "stability.classify_simplified"),
    ("cli", "polystable_general_taut", "stability.polystable_general_taut"),
    ("cli", "polystable_simplified", "stability.polystable_simplified"),
    ("jordan", "classify_simplified", "stability.classify_simplified"),
    ("jordan", "stable_general", "stability.stable_general"),
    ("jordan", "stable_simplified", "stability.stable_simplified"),
    ("cli", "decompose", "jordan.decompose"),
    ("cli", "reassemble", "jordan.reassemble"),
]

CACHED = ("cones.extremal_rays_special", "cones.lineality_space")
MODULES = ("bundle", "cones", "linalg", "stability", "jordan", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self._seen_geometry: set = set()

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        nid = self._name_id(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        open_, close, after = self.open, self.close, self._after.get(name)
        cache_info = getattr(fn, "cache_info", None) if name in CACHED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "stability.flag_data":
                self._note_geometry(args[0] if args else kwargs["pair"])
            misses = cache_info().misses if cache_info else 0
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if cache_info:
                miss = cache_info().misses != misses
                self.counts[name + (".misses" if miss else ".hits")] += 1
                if miss and name == "cones.extremal_rays_special":
                    self.counts["candidates"] += 3 ** args[0].dim
                    self.counts["rays_kept"] += len(result)
            if after:
                self.counts[after] += len(result)
            return result

        return traced

    _after = {"stability.flag_data": "flags",
              "bundle.admissible_chain_pairs": "chains"}

    def _note_geometry(self, pair) -> None:
        key = (pair.group, pair.rank, pair.bundle.pairing, pair.pattern)
        self.counts["geometry_seen"] += key in self._seen_geometry
        self._seen_geometry.add(key)

    @contextlib.contextmanager
    def installed(self, prog):
        """Patch every site in PATCHES for the duration of the block."""
        saved = []
        wrappers: Dict[int, object] = {}
        try:
            for mod_name, attr, name in PATCHES:
                mod = getattr(prog, mod_name)
                fn = getattr(mod, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def clear(self) -> None:
        """Forget the spans and counts so far, but not which geometry keys
        were seen: the warm-up runs traced, and the timed window is reported."""
        for arr in (self.name_id, self.parent, self.request, self.start, self.end):
            del arr[:]
        self.counts.clear()

    def dump(self) -> dict:
        """The spans and counts, to move them out of a child process."""
        return {"names": self.names, "name_id": self.name_id, "parent": self.parent,
                "request": self.request, "start": self.start, "end": self.end,
                "counts": self.counts, "request_id": self.request_id}

    def absorb(self, dump: dict) -> None:
        """Append the spans and counts of a child process that started from
        a cleared copy of this tracer (the monotonic clock is shared by all
        processes of the machine)."""
        offset = len(self.start)
        ids = [self._name_id(name) for name in dump["names"]]
        self.name_id.extend(ids[i] for i in dump["name_id"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in dump["parent"])
        self.request.extend(dump["request"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])
        self.counts.update(dump["counts"])
        self.request_id = dump["request_id"]

    # -- results ------------------------------------------------------------

    def self_times(self) -> array:
        """Per span, its duration minus the durations of its direct children.

        Raises if a child is not nested inside its parent, or if any self
        time comes out negative: then self time plus children's durations
        would not equal the span's duration."""
        n = len(self.start)
        own = array("q", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                    raise AssertionError(f"span {i} escapes its parent {p}")
                own[p] -= self.end[i] - self.start[i]
        if any(v < 0 for v in own):
            raise AssertionError("negative self time")
        return own

    def write(self, path, self_ns: array) -> None:
        """All spans as gzip'd CSV: id,parent,request,name,start_ns,end_ns,self_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,request,name,start_ns,end_ns,self_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.request[i]},"
                         f"{names[self.name_id[i]]},{self.start[i]},"
                         f"{self.end[i]},{self_ns[i]}\n")

    def summary(self, self_ns: array) -> Dict[str, Dict[str, int]]:
        """calls, total_ns and self_ns per span name."""
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(len(self.start)):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_ns"] += self.end[i] - self.start[i]
            row["self_ns"] += self_ns[i]
        return out
