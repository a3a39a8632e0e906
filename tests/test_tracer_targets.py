"""The benchmark's span tracer wraps names of the package: each must still exist.

``bench/tracer.py`` looks every target up as ``owner.__dict__[attr]`` when
tracing starts, so a deleted or renamed function fails the traced benchmark
run with a ``KeyError``.  This test fails first.
"""

import importlib.util
from pathlib import Path

import pytest

import brgcn

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer_module()._targets(brgcn)


@pytest.mark.parametrize(
    "owner, attr", [t[:2] for t in TARGETS], ids=[f"{owner.__name__}.{attr}" for owner, attr, _, _ in TARGETS]
)
def test_every_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__, f"{owner.__name__}.{attr} is wrapped by {TRACER.name} but not defined"
