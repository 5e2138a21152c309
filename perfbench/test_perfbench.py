"""Tests of the benchmark itself: the smoke mode end to end, the checks on
wrong outputs, the tracer, and the refusal to run without the package.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import galoiscensus as gc  # noqa: E402
import galoiscensus.cli  # noqa: E402,F401
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Ctx  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _ctx(tmp_path: Path) -> Ctx:
    return Ctx(tmp=tmp_path, workers=1, seed=3, smoke=True)


def test_census_check_counts_a_wrong_class(tmp_path):
    w = WORKLOADS["cubic-h500"]
    ctx = _ctx(tmp_path)
    inputs = w.setup(ctx)
    result = w.run(gc, inputs)
    assert w.check(gc, ctx, inputs, result).failed == 0
    report = json.loads(inputs["out"].read_text())
    report["counts"]["A3"] -= 1
    report["counts"]["S3"] += 1
    inputs["out"].write_text(json.dumps(report))
    assert w.check(gc, ctx, inputs, result).failed == 1


def test_family_check_counts_a_misclassified_member(tmp_path):
    w = WORKLOADS["d4vc-6e5"]
    ctx = _ctx(tmp_path)
    inputs = w.setup(ctx)
    result = w.run(gc, inputs)
    lines = inputs["out"].read_text().splitlines()
    member = json.loads(lines[0])
    member["class"] = "S4"
    lines[0] = json.dumps(member)
    inputs["out"].write_text("\n".join(lines))
    outcome = w.check(gc, ctx, inputs, result)
    assert outcome.failed >= 1 and outcome.attempted == 315


def test_algebra_check_counts_bad_cycle_types_and_witnesses(tmp_path):
    w = WORKLOADS["algebra"]
    ctx = _ctx(tmp_path)
    inputs = w.setup(ctx)
    result = w.run(gc, inputs)
    assert w.check(gc, ctx, inputs, result).failed == 0
    coeffs, p, _, _ = result["frobenius"][0]
    result["frobenius"][0] = (coeffs, p, "V4", (4,))
    result["witness_errors"].append(((0, 0, 0), "injected"))
    result["reducible"].append((0, 0, 0, 2))  # X^4 + 2 is irreducible
    assert w.check(gc, ctx, inputs, result).failed == 3


def test_tracer_sees_calls_inside_the_package(tmp_path):
    tracer = Tracer()
    tracer.install(gc)
    assert tracer.missing == []
    tracer.enabled = True
    argv = ["census", "--degree", "3", "--height", "6", "--threads", "1",
            "--out", str(tmp_path / "r.json")]
    assert gc.cli.main(argv) == 0
    assert gc.identities.run_suites(["discF"], 3)[0].cases_checked == 42
    tracer.enabled = False
    m = tracer.layer_metrics()
    assert m["census.stripes"] == 7
    assert m["identities.discF.cases"] == 42
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names[:2] == ["cli.main", "census.run_census"] and spans["parent"][1] == 0
    cli_s = spans["end"][0] - spans["start"][0]
    assert m["cli.self_s"] > 0 and m["cli.self_s"] + m["census.run_s"] == pytest.approx(cli_s)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_all_workloads_in_one_command():
    done = _bench("--workload", "all", "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert len(result["metrics"]) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert "algebra.work_per_s" in result["metrics"]
