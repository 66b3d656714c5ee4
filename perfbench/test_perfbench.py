"""Self-tests of the benchmark, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ellforge import equivderham, series, sheafmodel  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [name for name, unit in tracing.UNITS.items() if unit in ("count", "bytes")]


def _last_json(argv):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=170, check=False, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    result = _last_json(["--workload", "cartan", "--seed", "2", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONFIG[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_reference_raises_failed_frac(monkeypatch):
    monkeypatch.setitem(workloads.TORUS_GROUP_DIMS, 1, 3)
    args = run.parse_args(["--workload", "cartan", "--seed", "2", "--seconds", "0",
                           "--size", "tiny"])
    record = run.measure(args)
    assert record["failed"] > 0
    assert record["failed_tasks"] == ["torus-reduction"]
    assert record["result"]["correct"] is False


def test_traced_run_leaves_cli_stdout_identical():
    cases = [
        (["sigma", "--qorder", "3", "--zorder", "4", "--json"], "sigma_q3_z4.json"),
        (["euler", "--roots", "2", "--nilpotency", "4", "--qorder", "2"], "euler_r2_n4_q2.txt"),
        (["sheaf", "--weights", "1,2", "--anchor", "1/2,0", "--sections", "--degree", "4"],
         "sheaf_w12_sections.txt"),
    ]
    plain = [workloads._cli_stdout(argv) for argv, _ in cases]
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(extra_modules=(workloads,))
        traced = [workloads._cli_stdout(argv) for argv, _ in cases]
    assert traced == plain
    for (code, out), (_, golden) in zip(traced, cases):
        assert code == 0 and out == (workloads.GOLDEN / golden).read_bytes()
    metrics = tracer.metrics()
    assert metrics["cli.calls"] == len(cases)
    assert metrics["cli.stdout_bytes"] == sum(len(out) for _, out in plain)


def test_uninstall_restores_every_binding():
    before = (series.rref, equivderham.nullspace, sheafmodel.matrix_rank,
              series.MultiSeries.__rmul__, workloads.cartan_cohomology)
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(extra_modules=(workloads,))
        assert equivderham.nullspace is not before[1]
        assert sheafmodel.matrix_rank is not before[2]
        assert series.MultiSeries.__rmul__ is series.MultiSeries.__mul__
    after = (series.rref, equivderham.nullspace, sheafmodel.matrix_rank,
             series.MultiSeries.__rmul__, workloads.cartan_cohomology)
    assert after == before


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_for_a_fixed_seed(name):
    counts = []
    for _ in range(2):
        tasks = workloads.build(name, 7, "tiny")
        with tracing.Tracer() as tracer:
            tracer.install(extra_modules=(workloads,))
            sample = run.run_pass(tasks, tracer)
        assert not sample["failed"]
        counts.append({k: sample["layers"][k] for k in COUNTS})
        assert tracer.spans and None not in tracer.spans
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cartan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
