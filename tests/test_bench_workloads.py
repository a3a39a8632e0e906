"""The benchmark's sessions call the package's public entry points: each must still run.

``bench/workloads.py`` calls training pipelines, models, layers and
evaluation by name and keyword, so a changed signature fails the benchmark
run.  This test runs every workload's set-up, one measured round and its
probe in-process, so it fails first.  It does not run the workloads'
``check``: nc-onehot's accuracy floor depends on the seed, and the
benchmark's own smoke run checks every output.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``workloads`` and ``meter`` modules, imported from ``bench/``."""
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # as bench/run.py does
    try:
        yield importlib.import_module("workloads"), importlib.import_module("meter")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = write_bytecode


@pytest.mark.parametrize("name", ["nc-onehot", "lp-train", "lp-rank"])
def test_workload_sets_up_measures_and_probes(bench, name, tmp_path):
    workloads, meter = bench
    wl = workloads.WORKLOADS[name]
    state = wl.setup(1, tmp_path)
    rnd = wl.measure(state, meter.Meter())
    wl.probe(rnd)
    assert len(rnd.epoch_s) == len(rnd.outputs["loss"]) == wl.epochs
    assert all(math.isfinite(x) for x in rnd.outputs["loss"])
    assert rnd.infer_s and rnd.eval_s and rnd.eval_candidates > 0
    assert 0 <= rnd.failed <= rnd.attempted
