"""The names the benchmark's tracer patches must exist in ``src/spepi``.

``perfbench/tracing.PATCHES`` wraps entry functions by module and
attribute name, and reads ``run_chunk``'s arguments by position.  A
renamed function or a moved argument would make traced runs fail or
count the wrong thing, so both are checked here.
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


@pytest.mark.parametrize("name", ["run_chunk", "run_chunk_py", "run_chunk_jit"])
def test_run_chunk_arguments_keep_their_positions(name):
    params = list(inspect.signature(getattr(kernels, name)).parameters)
    assert params[8] == "ok"
    assert params[12:17] == ["S_out", "I_out", "R_out", "phi_out", "Z_out"]
    assert {field: params[i] for field, i in _OUT_ARGS.items()} == {
        "S": "S_out", "I": "I_out", "R": "R_out", "phi": "phi_out", "Z": "Z_out"}
