"""The names the benchmark's tracer patches must exist in ``src/spepi``.

``perfbench/tracing.PATCHES`` wraps entry functions by module and
attribute name, and reads ``run_chunk``'s arguments by position.  A
renamed function or a moved argument would make traced runs fail or
count the wrong thing, so both are checked here, along with the flag
``perfbench/worker.py`` reads.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import spepi._kernels as kernels

from conftest import _OUT_ARGS

ROOT = Path(__file__).resolve().parents[1]


def _patches():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


@pytest.mark.parametrize("module, attr", [row[:2] for row in _patches()],
                         ids=lambda value: value)
def test_every_patched_name_resolves(module, attr):
    owner = importlib.import_module(module)
    assert Path(owner.__file__).resolve().parent == ROOT / "src" / "spepi"
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_run_chunk_arguments_keep_their_positions():
    params = list(inspect.signature(kernels.run_chunk).parameters)
    assert params[8] == "ok"
    assert params[12:17] == ["S_out", "I_out", "R_out", "phi_out", "Z_out"]
    assert {field: params[i] for field, i in _OUT_ARGS.items()} == {
        "S": "S_out", "I": "I_out", "R": "R_out", "phi": "phi_out", "Z": "Z_out"}


def test_the_kernel_path_flag_the_worker_reads_is_false():
    # perfbench/worker.py reads spepi._kernels.using_numba for each run's
    # environment record; there is one stepping path, so it is False
    assert kernels.using_numba is False
