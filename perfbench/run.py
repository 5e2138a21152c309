"""The galois-census benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads (see ``workloads.py`` and BENCHMARK.json for why each was chosen):
``cubic-h500``, ``quartic-h60``, ``d4vc-6e5`` and ``algebra``.  Only
``algebra`` uses the seed; the censuses and the d4vc family are exhaustive.
``--workload all`` runs the four in turn; its last line prefixes each metric
with its workload.

Every workload call runs in a fresh process (``child.py``).

``--trace 0`` repeats the 2-worker workload call at least twice, and again
while another call should end within ``--seconds``, each time after a few
set-up-only processes.  It prints the end-to-end metrics as medians over the
calls: ``wall_s``, ``work_per_s`` (tuples, members or checks per second),
``setup_s``, ``peak_rss_mb`` and ``worker_peak_rss_mb``.

``--trace 1`` makes one untraced 2-worker call (census workloads only), one
untraced serial call and one traced serial call, so every span lands in one
process, and prints the per-layer metrics.  The spans go to
``.perfbench_out/spans-<workload>.npz``.

Both modes check every output against pinned values; a failed check counts
in ``failed`` and makes the command exit 1.  The last stdout line is the
result JSON.  Journals and ``--out`` files live in ``.perfbench_tmp/`` and
are removed before exit.

``--smoke`` runs the same code at tiny sizes in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import MOVES
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
WORKERS = 2
SETUP_PROBES = 3  # set-up-only processes before each call
BUDGET_S = 170.0  # per workload, so that a one-workload run ends within 180 s


class ChildError(RuntimeError):
    pass


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a child's process group and wait until it is gone."""
    for _ in range(200):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    print(f"warning: process group {pgid} still exists after SIGKILL", file=sys.stderr)


class Runner:
    def __init__(self, name: str, args: argparse.Namespace):
        self.name = name
        self.args = args
        self.workload = WORKLOADS[name]
        self.started = time.monotonic()
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_DIR))
        self.launched = 0

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def child(self, mode: str, workers: int, trace: bool = False) -> dict:
        """Launch one workload process and return its JSON line."""
        self.launched += 1
        tmp = self.tmp / f"call{self.launched}"
        tmp.mkdir()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
        spec = {
            "workload": self.name, "mode": mode, "workers": workers, "trace": trace,
            "seed": self.args.seed, "smoke": self.args.smoke, "root": str(ROOT), "tmp": str(tmp),
            "spans": str(OUT_DIR / f"spans-{self.name}.npz"),
        }
        spec["launch"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1.0))
        except BaseException as exc:
            _kill_group(proc.pid)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildError(f"{mode} process overran the {BUDGET_S:.0f} s budget") from exc
            raise
        finally:
            _kill_group(proc.pid)
            shutil.rmtree(tmp, ignore_errors=True)
        lines = out.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(
                f"{mode} process exited with {proc.returncode}:\n{err.decode()[-2000:]}"
            )
        return json.loads(lines[-1])

    def measure(self) -> tuple[dict, list[dict]]:
        """End-to-end metrics: medians over repeated untraced 2-worker calls."""
        probes = 1 if self.args.smoke else SETUP_PROBES
        setups: list[float] = []
        calls: list[dict] = []
        t0 = time.monotonic()
        # at least two calls; a further call only if it should end within --seconds
        while len(calls) < 2 or time.monotonic() - t0 + calls[-1]["wall_s"] <= self.args.seconds:
            if calls and self.remaining() < 1.5 * max(c["wall_s"] for c in calls) + 5.0:
                break
            setups += [self.child("setup", WORKERS)["setup_s"] for _ in range(probes)]
            calls.append(self.child("run", WORKERS))
        setups += [c["setup_s"] for c in calls]
        med = statistics.median
        metrics = {
            "wall_s": med(c["wall_s"] for c in calls),
            "work_per_s": med(c["work"] / c["wall_s"] for c in calls),
            "setup_s": med(setups),
            "peak_rss_mb": med(c["peak_rss_mb"] for c in calls),
            # a workload without a pool does its work in the workload process
            "worker_peak_rss_mb": med(c["children_peak_rss_mb"] or c["peak_rss_mb"] for c in calls),
        }
        return metrics, calls

    def trace(self) -> tuple[dict, list[dict]]:
        """Per-layer metrics from one traced serial call, plus the untraced
        serial (and, for censuses, 2-worker) calls they are compared with."""
        pooled = self.child("run", WORKERS) if self.workload.uses_census else None
        serial = self.child("run", 1)
        traced = self.child("run", 1, trace=True)
        if traced["missing_spans"]:
            print(f"warning: not found, so not traced: {traced['missing_spans']}", file=sys.stderr)
        metrics = dict(traced["layers"])
        metrics["census.pool_speedup"] = serial["wall_s"] / pooled["wall_s"] if pooled else 0.0
        metrics["trace.overhead_frac"] = traced["wall_s"] / serial["wall_s"] - 1.0
        calls = [c for c in (pooled, serial, traced) if c]
        return metrics, calls


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def run_workload(name: str, args: argparse.Namespace, units: dict[str, str]) -> dict | None:
    """Measure one workload, print its metrics and provenance, and return the
    result object; None when a workload process failed to report."""
    runner = Runner(name, args)
    try:
        metrics, calls = runner.trace() if args.trace else runner.measure()
    except ChildError as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return None

    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    provenance = {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **{k: v for k, v in calls[0]["versions"].items() if k != "python"},
        "workers": 1 if args.trace else WORKERS,
        "seed": args.seed,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "calls": len(calls),
        "pinned_values": runner.workload.provenance,
    }
    label = f"{name} ({'traced, serial' if args.trace else f'{WORKERS} workers'})"
    print(f"perfbench {label}: {len(calls)} calls, {runner.remaining():.0f} s of budget left")
    metrics = {k: metrics[k] for k in units}
    for k, value in metrics.items():
        note = MOVES[k] if args.trace else ""
        alias = f"  [{runner.workload.work_unit}_per_s]" if k == "work_per_s" else ""
        print(f"  {k:<44} {value!r:>24} {units[k]:<6}{alias}  {note}")
    print(f"  {'error_rate':<44} {failed / attempted!r:>24}        ({failed}/{attempted})")
    for call in calls:
        for note in call["notes"]:
            print(f"  FAILED: {note}")
    print("provenance " + json.dumps(provenance))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"provenance": provenance, "result": result, "calls": calls}
    (OUT_DIR / f"{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the checks")
    args = parser.parse_args(argv)
    # a terminated run still stops its workload processes (see Runner.child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "galoiscensus" / "__init__.py").is_file():
        print(f"error: no galoiscensus package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, units)
            if results[name] is None:
                return 1
    finally:
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
