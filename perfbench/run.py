"""Benchmark of ellforge: three workloads, timed end to end and traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cartan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30      # every workload

One workload runs in one process, as a closed loop: one caller and one
thread, each task starting when the previous one returns.  A pass runs
every task of the workload once and checks each result against its
reference.  Passes repeat until ``--seconds`` have elapsed since the start
of the first pass, a warm-up that the medians leave out.

With ``--trace 0`` the metrics are the end-to-end ones:

    wall_s       wall time of one pass, i.e. time to a verified result
    cpu_s        process CPU time of the same pass
    setup_s      fresh interpreter: import ellforge and build the inputs
                 (median over several fresh processes)
    peak_rss_mb  peak resident memory of the workload's process

With ``--trace 1`` the same passes run untraced for half the time and
then under ``tracer.Tracer`` for the other half, and the metrics are the
per-layer ones.  The last line of standard output is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a summary
line before it gives ``failed_frac``, the share of failed verdicts.  Each
run also writes its samples, spans and environment to ``perfbench/results``.

The run pins its environment: it re-executes itself with a fixed
``PYTHONHASHSEED`` and without ``ELLFORGE_THREADS``, so ``ellforge check``
runs serially.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("qseries", "cartan", "weil-sheaf")
HASH_SEED = "0"
SETUP_PROBES = 7
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="workload to run; every workload, one process each, if omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks the tasks, for the benchmark's self-tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "ELLFORGE_THREADS": os.environ.get("ELLFORGE_THREADS"),
    }


# ------------------------------------------------------------------ passes


def run_pass(tasks, tracer=None) -> dict:
    """Run every task once; a traced pass also carries its per-layer metrics."""
    gc.collect()
    failed = []
    task_s = {}
    if tracer is not None:
        tracer.reset()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            ok = tracer.task(task.name, task.run) if tracer else task.run()
        except Exception:  # a task that raises is a failed verdict, not a crash
            traceback.print_exc()
            ok = False
        task_s[task.name] = time.perf_counter() - t0
        if not ok:
            failed.append(task.name)
    sample = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0,
              "failed": failed, "task_s": task_s}
    if tracer is not None:
        sample["layers"] = tracer.metrics()
    return sample


def run_passes(tasks, deadline, min_passes, tracer=None) -> list[dict]:
    """Repeat passes until ``deadline`` (perf_counter) and ``min_passes`` ran."""
    samples = []
    while len(samples) < min_passes or time.perf_counter() < deadline:
        samples.append(run_pass(tasks, tracer))
    return samples


def setup_seconds(args) -> list[float]:
    """Cold start of fresh interpreters, measured inside each one."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        out.append(float(proc.stdout.split()[-1]))
    return out


def setup_probe(args):
    start = time.perf_counter()
    import workloads  # imports every ellforge module the tasks use; timed

    workloads.build(args.workload, args.seed, args.size)
    print(repr(time.perf_counter() - start))


def measure(args) -> dict:
    """One workload run; returns the result record."""
    import workloads

    tasks = workloads.build(args.workload, args.seed, args.size)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "tasks": [t.name for t in tasks]}
    setup = setup_seconds(args) if args.trace == 0 else []
    # the warm-up pass lets lazy set-up finish; it counts toward --seconds
    # but not toward the medians
    start = time.perf_counter()
    warmup = run_pass(tasks)
    if args.trace == 0:
        samples = run_passes(tasks, start + args.seconds, MIN_PASSES)
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "cpu_s": statistics.median(s["cpu_s"] for s in samples),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        record.update(setup_samples=setup, samples=samples)
        timed = samples
    else:
        from tracer import UNITS, Tracer

        plain = run_passes(tasks, start + args.seconds / 2, 1)
        with Tracer() as tracer:
            tracer.install(extra_modules=(workloads,))
            traced = run_passes(tasks, start + args.seconds, 1, tracer)
        # counts repeat exactly from pass to pass; median_low keeps them whole
        metrics = {name: statistics.median_low(s["layers"][name] for s in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = statistics.median(
            s["wall_s"] for s in traced
        ) - statistics.median(s["wall_s"] for s in plain)
        units = UNITS
        record.update(samples=plain, traced_samples=traced, spans=tracer.spans)
        timed = plain + traced
    failures = [warmup["failed"], *(s["failed"] for s in timed)]
    attempted = len(tasks) * len(failures)
    failed = sum(len(f) for f in failures)
    record.update(
        environment=environment(),
        attempted=attempted,
        failed=failed,
        failed_tasks=sorted({name for f in failures for name in f}),
        result={
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    )
    return record


def write_record(record):
    RESULTS.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")


def summary_line(record) -> str:
    metrics = record["result"]["metrics"]
    shown = "".join(f"  {k} {v['value']:.4g} {v['unit']}" for k, v in metrics.items()
                    if k in END_TO_END_UNITS)
    passes = len(record["samples"]) + len(record.get("traced_samples", []))
    frac = record["failed"] / record["attempted"]
    return (f"# {record['workload']}: {passes} timed passes{shown}  "
            f"failed_frac {frac:.4g} ({record['failed']}/{record['attempted']})")


def run_all(args) -> int:
    """Every workload in its own process; prints a table and their results."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    if args.trace == 0:
        header = ["workload", *END_TO_END_UNITS, "failed_frac"]
        print("  ".join(f"{h:>12}" for h in header))
        for name, res in results.items():
            cells = [f"{res['metrics'][m]['value']:.4g}" for m in END_TO_END_UNITS]
            cells.append(f"{res['failed'] / res['attempted']:.4g}")
            print("  ".join(f"{c:>12}" for c in [name, *cells]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "ellforge" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no ellforge sources under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or "ELLFORGE_THREADS" in os.environ:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        env.pop("ELLFORGE_THREADS", None)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv], env)
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import ellforge

    if Path(ellforge.__file__).resolve().parent != SRC / "ellforge":
        print(f"error: imported ellforge from {ellforge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    record = measure(args)
    write_record(record)
    print("# env " + json.dumps(record["environment"], sort_keys=True))
    print(summary_line(record))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
