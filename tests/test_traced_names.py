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


def test_names_run_and_replay_read_resolve():
    # perfbench/run.py records KERNEL_BACKEND and runs the monomial-grid
    # affine sweep, and perfbench/replay.py times _kernel.conv_reduce
    import qhact
    from qhact import _kernel
    from qhact.classify import SearchGrid, enumerate_taft_affine, generic_affine_p

    assert qhact.KERNEL_BACKEND == "python"
    assert callable(_kernel.conv_reduce)
    grid = SearchGrid(level=5, g_shape="monomial")
    assert enumerate_taft_affine(generic_affine_p(3, 5), 5, grid)
