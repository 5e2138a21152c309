"""Spans around the package's public functions, recorded from outside.

The tracer wraps each function in ``TARGETS`` at every ``galoiscensus``
module attribute bound to the same object (``from .x import f`` copies the
reference, and ``identities`` keeps its suites in a dict), so calls made
inside the package are seen too.  Spans live in memory as parallel arrays of
name, start, end, parent and run id and are written out once, at the end.
A span's self time is its duration minus the time its child spans cover.

Two things are deliberately not measured here:

* the phases inside a census stripe (``_quartic_red_mask``,
  ``_square_mask`` and friends), which are private; their breakdown needs
  timings reported by the census itself;
* ``asymptotics``, which runs in microseconds and which no workload uses.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute, count taken from the return value)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("census.run_census", "census", "run_census", None),
    ("census.list_a3_cubics", "census", "list_a3_cubics", None),
    ("families.gen_d4vc_family", "families", "gen_d4vc_family", len),
    ("families.cross_validate", "families", "cross_validate", lambda r: r.members_checked),
    ("classify.classify_quartic", "classify", "classify_quartic", None),
    ("classify.reducibility_witness", "classify", "reducibility_witness", None),
    ("classify.resolvent_integer_roots", "classify", "resolvent_integer_roots", None),
    ("classify.disc_quartic", "classify", "disc_quartic", None),
    ("classify.frobenius_cycle_type", "classify", "frobenius_cycle_type", None),
    ("exactarith.divisors", "exactarith", "divisors", None),
    ("exactarith.perfect_square", "exactarith", "perfect_square", None),
    ("exactarith.factorize", "exactarith", "factorize", None),
    ("exactarith.cubefree_decompose", "exactarith", "cubefree_decompose", None),
    ("identities.symmetry", "identities", "symmetry_suite", lambda r: r.cases_checked),
    ("identities.star", "identities", "star_suite", lambda r: r.cases_checked),
    ("identities.discF", "identities", "disc_F_suite", lambda r: r.cases_checked),
    ("identities.surface", "identities", "surface_suite", lambda r: r.cases_checked),
    ("eisenstein.parametrize_cubic_witness", "eisenstein", "parametrize_cubic_witness", None),
    ("eisenstein.ParamWitness.verify", "eisenstein", "ParamWitness.verify", None),
)
CALL_COUNTED = [t[0] for t in TARGETS if t[1] in ("classify", "exactarith", "eisenstein")]

# Per-layer metric -> the end-to-end metric and workloads it should move.
MOVES = {
    "census.run_s": "wall_s on cubic-h500 and quartic-h60",
    "census.stripes": "wall_s on cubic-h500 and quartic-h60 (stripe granularity)",
    "census.stripe_ms.p50": "wall_s on cubic-h500 and quartic-h60",
    "census.stripe_ms.p90": "wall_s on cubic-h500 and quartic-h60",
    "census.stripe_ms.max": "wall_s on cubic-h500 and quartic-h60",
    "census.first_stripe_s": "wall_s on cubic-h500 and quartic-h60",
    "census.tail_s": "wall_s on cubic-h500 and quartic-h60",
    "census.pool_speedup": "wall_s on quartic-h60 (pool balance); no change on cubic-h500",
    "census.journal_bytes": "no end-to-end metric on any workload",
    "census.journal_lines": "no end-to-end metric on any workload",
    "census.resume_s": "no end-to-end metric on any workload (journal read path)",
    "census.list_a3_cubics_s": "work_per_s on algebra",
    "families.gen_s": "work_per_s and wall_s on d4vc-6e5",
    "families.members": "work_per_s on d4vc-6e5 (must not change)",
    "families.cross_validate_s": "work_per_s and wall_s on d4vc-6e5",
    "families.validate_us_per_member": "work_per_s on d4vc-6e5",
    **{f"{n}.{k}": "work_per_s on d4vc-6e5 (large d) and algebra (small d)"
       for n in CALL_COUNTED if n.startswith(("classify.", "exactarith.")) for k in ("calls", "self_s")},
    **{f"identities.{s}.{k}": "work_per_s on algebra"
       for s in ("symmetry", "star", "discF", "surface") for k in ("s", "cases")},
    **{f"{n}.{k}": "work_per_s on algebra"
       for n in CALL_COUNTED if n.startswith("eisenstein.") for k in ("calls", "self_s")},
    "cli.self_s": "wall_s on d4vc-6e5 (argument parsing, report and JSON-line emission)",
    "trace.overhead_frac": "none: traced serial wall over untraced serial wall, minus 1",
}


def _rebind(module, original, wrapper) -> int:
    """Point every reference to ``original`` in the module's namespace, and
    in dicts it holds (directly or inside tuples), at ``wrapper``."""
    n = 0
    for name, value in list(vars(module).items()):
        if value is original:
            setattr(module, name, wrapper)
            n += 1
        elif isinstance(value, dict):
            for key, item in list(value.items()):
                if item is original:
                    value[key] = wrapper
                    n += 1
                elif isinstance(item, tuple) and any(x is original for x in item):
                    value[key] = tuple(wrapper if x is original else x for x in item)
                    n += 1
    return n


class Tracer:
    """Records spans while ``enabled``; ``run_id`` tags the spans of one call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._stack: list[int] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.marks: list[tuple[int, float]] = []  # (run_census span, stripe completion time)
        self.missing: list[str] = []
        self.enabled = False
        self.run_id = 0

    def install(self, package) -> None:
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{package.__name__}.{info.name}")
        prefix = package.__name__ + "."
        modules = [m for k, m in list(sys.modules.items()) if k == package.__name__ or k.startswith(prefix)]
        for span, mod, attr, count in TARGETS:
            owner = importlib.import_module(prefix + mod)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None)
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original, count)
            if path:  # a method: the class attribute is the only reference
                setattr(owner, last, wrapper)
            elif not sum(_rebind(m, original, wrapper) for m in modules):
                self.missing.append(span)

    def _wrap(self, span: str, fn, count):
        self.names.append(span)
        nid = len(self.names) - 1
        signature = inspect.signature(fn) if span == "census.run_census" else None

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._run.append(self.run_id)
            self._start.append(0.0)
            self._end.append(0.0)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.arguments["progress"] = self._recorder(i, bound.arguments.get("progress"))
                args, kwargs = bound.args, bound.kwargs
            self._stack.append(i)
            self._start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[i] = perf_counter()
                self._stack.pop()
            if count is not None:
                key = (self.run_id, span)
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _recorder(self, span_index: int, user):
        def progress(done: int, total: int) -> None:
            self.marks.append((span_index, perf_counter()))
            if user is not None:
                user(done, total)

        return progress

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "run": np.array(self._run, dtype=np.int32),
        }

    def save(self, path) -> None:
        marks = np.array(self.marks, dtype=np.float64).reshape(-1, 2)
        np.savez(path, names=np.array(self.names), marks=marks, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans give; run 0 is the timed call,
        run 1 the journal resume.  Pool speed-up, overhead and journal size
        come from outside the spans and are filled in by the caller."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        name_id = {n: i for i, n in enumerate(self.names)}

        def select(span: str, run: int = 0) -> np.ndarray:
            if span not in name_id:
                return np.zeros(dur.size, dtype=bool)
            return (a["name"] == name_id[span]) & (a["run"] == run)

        def total(span: str, run: int = 0) -> float:
            return float(dur[select(span, run)].sum())

        def count(span: str) -> int:
            return self.counts.get((0, span), 0)

        m: dict[str, float] = {}
        runs = np.nonzero(select("census.run_census"))[0]
        first, tail, gaps, stripes = 0.0, 0.0, [], 0
        for i in runs:
            t = [when for span, when in self.marks if span == i]
            if not t:
                continue
            stripes += len(t)
            first += t[0] - a["start"][i]
            tail += a["end"][i] - t[-1]
            gaps.extend(np.diff(t) * 1e3)
        m["census.run_s"] = total("census.run_census")
        m["census.stripes"] = stripes
        for q, key in ((50, "p50"), (90, "p90"), (100, "max")):
            m[f"census.stripe_ms.{key}"] = float(np.percentile(gaps, q)) if gaps else 0.0
        m["census.first_stripe_s"] = float(first)
        m["census.tail_s"] = float(tail)
        m["census.resume_s"] = total("census.run_census", run=1)
        m["census.list_a3_cubics_s"] = total("census.list_a3_cubics")

        m["families.gen_s"] = total("families.gen_d4vc_family")
        m["families.members"] = count("families.gen_d4vc_family")
        m["families.cross_validate_s"] = total("families.cross_validate")
        validated = count("families.cross_validate")
        m["families.validate_us_per_member"] = m["families.cross_validate_s"] / validated * 1e6 if validated else 0.0

        for span in CALL_COUNTED:
            sel = select(span)
            m[f"{span}.calls"] = int(sel.sum())
            m[f"{span}.self_s"] = float(self_time[sel].sum())
        for suite in ("symmetry", "star", "discF", "surface"):
            m[f"identities.{suite}.s"] = total(f"identities.{suite}")
            m[f"identities.{suite}.cases"] = count(f"identities.{suite}")
        m["cli.self_s"] = float(self_time[select("cli.main")].sum())
        return m
