"""The names bench/run.py reaches into csagg for must exist.

The benchmark patches module attributes from outside (bench/probes.py) and
calls the experiment entry points directly, so renaming one of them breaks
it. These checks make that a test failure, not only a benchmark failure.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
BOUNDARY_PROBES = ("csagg.experiments:velocities", "csagg.experiments:StepReport")


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        with mock.patch.dict(os.environ):  # it sets a BLAS thread default on import
            spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_probe_targets_resolve(bench_run):
    targets = [target for target, _, _ in bench_run.LAYER_PROBES] + list(BOUNDARY_PROBES)
    missing = []
    for target in targets:
        module_name, attr = target.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(target)
    assert not missing, f"benchmark probes name missing functions: {missing}"


def test_experiment_entry_points_exist(bench_run):
    experiments = importlib.import_module("csagg.experiments")
    for scenario in ("matrix", "routing"):
        run = bench_run.runner(experiments, SimpleNamespace(scenario=scenario))
        assert run is getattr(experiments, f"run_{scenario}") and callable(run)
