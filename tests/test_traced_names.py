"""Every function perfbench traces is still bound under its name.

perfbench/tracing.py looks its targets up by name when a traced run starts,
so an engine change that deletes or renames one breaks the benchmark.  This
test reads the target lists from that file and fails first.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TARGETS = list(tracing.SPAN_TARGETS) + list(tracing.COUNT_TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    importlib.import_module(f"qhact.{target.split('.')[0]}")
    fn = tracing.resolve(target)
    assert callable(fn), target
    assert tracing.bindings(fn), target
