"""The traced benchmark run's entry points still exist.

``perfbench/tracer.py`` wraps named layer entry points from the
benchmark's side; a target that no longer resolves only marks the
traced perfbench run incorrect.  This test makes such a rename fail the
unit suite too.  It reads the tracer module and changes nothing in it.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _load_tracer()
_TARGETS = [(module, path) for module, path, _ in _TRACER.TARGETS]
_TARGETS.append(("repro.serve.server", "Server._execute"))


@pytest.mark.parametrize("module,path", _TARGETS,
                         ids=[f"{m}.{p}" for m, p in _TARGETS])
def test_trace_target_resolves(module, path):
    assert _TRACER._resolve(module, path) is not None
