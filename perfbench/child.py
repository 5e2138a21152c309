"""One workload call in a fresh process, started by run.py.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds the workload name, the mode (``setup`` stops once the
package is imported and the inputs are built), the worker count, the seed,
whether to trace, the checkout root, a scratch directory, and the
``time.monotonic()`` reading taken just before this process was launched.
The process prints one JSON line: set-up time, the timed call's wall time,
peak RSS of this process and of its largest waited-for child, and the
checked outcome; a traced call adds the per-layer metrics and writes its
spans next to the results.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, Ctx


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import galoiscensus as gc
    import galoiscensus.cli  # noqa: F401  (imports, and so binds on gc, every module)

    if not Path(gc.__file__).resolve().is_relative_to(src.resolve()):
        print(f"galoiscensus imported from {gc.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[spec["workload"]]
    ctx = Ctx(tmp=Path(spec["tmp"]), workers=spec["workers"], seed=spec["seed"], smoke=spec["smoke"])
    inputs = workload.setup(ctx)
    result = {"setup_s": time.monotonic() - spec["launch"]}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(gc)
        tracer.enabled = True
    t0 = time.perf_counter()
    out = workload.run(gc, inputs)
    result["wall_s"] = time.perf_counter() - t0
    if tracer:
        tracer.enabled = False
    result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    result["children_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    outcome = workload.check(gc, ctx, inputs, out)
    if tracer:
        layers = {"census.journal_bytes": 0, "census.journal_lines": 0}
        if workload.uses_census:
            journal = inputs["journal"].read_bytes()
            layers["census.journal_bytes"] = len(journal)
            layers["census.journal_lines"] = journal.count(b"\n")
            tracer.run_id = 1
            tracer.enabled = True
            resumed = workload.resume(gc, ctx, inputs)
            tracer.enabled = False
            outcome.attempted += resumed.attempted
            outcome.failed += resumed.failed
            outcome.notes += resumed.notes
        layers.update(tracer.layer_metrics())
        tracer.save(Path(spec["spans"]))
        result["layers"] = layers
        result["missing_spans"] = tracer.missing
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        work=outcome.work,
        notes=outcome.notes,
        versions={"python": sys.version.split()[0], "numpy": np.__version__, "galoiscensus": gc.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
