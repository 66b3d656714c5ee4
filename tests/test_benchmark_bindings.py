"""The traced benchmark under perfbench/ still binds to the library.

The benchmark's tracer wraps the library's classes by method name and its
modules by name, and its self-tests are not part of this suite.  These
tests load ``perfbench/tracer.py`` and ``perfbench/workloads.py`` as they
are, without changing them, so that a change to the library that would
break a traced benchmark run fails here.
"""
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_every_traced_method_is_defined_on_its_class(tracer):
    for layer, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(f"ellforge.{layer}"), cls_name)
        assert meth in cls.__dict__, (layer, cls_name, meth)


def test_every_named_function_lives_in_its_layer(tracer):
    for layer, name in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(f"ellforge.{layer}"), name)
        assert inspect.isfunction(fn) and fn.__module__ == f"ellforge.{layer}", (layer, name)


def test_tracer_installs_over_the_workloads_and_uninstalls(tracer):
    workloads = _load("workloads")
    modules = [importlib.import_module(f"ellforge.{m}") for m in tracer.MODULES]
    classes = [
        getattr(importlib.import_module(f"ellforge.{layer}"), cls_name)
        for layer, cls_name, _ in tracer.METHODS
    ]
    namespaces = [*modules, *classes, workloads]
    before = [dict(vars(ns)) for ns in namespaces]
    t = tracer.Tracer()
    t.install(extra_modules=(workloads,))
    try:
        assert [dict(vars(ns)) for ns in namespaces] != before  # something is wrapped
    finally:
        t.uninstall()
    for ns, old in zip(namespaces, before):
        assert all(vars(ns)[k] is v for k, v in old.items()), ns


def test_cartan_workload_never_imports_numpy():
    # a fresh interpreter, since this one already holds numpy
    path = str(PERFBENCH / "workloads.py")
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('workloads', {path!r})\n"
        "workloads = importlib.util.module_from_spec(spec)\n"
        "sys.modules['workloads'] = workloads\n"
        "spec.loader.exec_module(workloads)\n"
        "tasks = workloads.build('cartan', 1)\n"
        "print(all([t.run() for t in tasks]), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("workload", ["qseries", "cartan", "weil-sheaf"])
def test_every_benchmark_task_passes_at_full_size(workload):
    # a failed verdict raises the benchmark's failed share, so each task of
    # each workload must hold once at the size the benchmark runs
    tasks = _load("workloads").build(workload, seed=1, size="full")
    assert tasks
    assert [t.name for t in tasks if not t.run()] == []


def test_a_traced_pass_holds_and_counts_eliminations(tracer):
    # the tracer's elimination hooks read the rows of every rref call, so
    # one traced pass shows that they still suit the row type
    workloads = _load("workloads")
    tasks = [t for name in ("cartan", "weil-sheaf") for t in workloads.build(name, seed=1)]
    with tracer.Tracer() as t:
        t.install(extra_modules=(workloads,))
        failed = [task.name for task in tasks if not t.task(task.name, task.run)]
    assert failed == []
    assert t.metrics()["series.rref.calls"] > 0
