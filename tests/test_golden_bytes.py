"""Golden bytes: the CLI outputs of the five bundled scenarios never change.

Each output below is hashed with sha256 and compared with the digest in
``golden_digests.json``.  A change that is meant to leave every result
bit-for-bit alone (a faster kernel, a refactor) must pass this test
unchanged; a change that is meant to move a result must say so and
regenerate the file with

    PYTHONPATH=src python tests/test_golden_bytes.py > tests/golden_digests.json

The digests assume the C library's ``expm1`` of the machine that made
them (glibc 2.36 on x86-64): the exponential families evaluate it at every
step, and another libm may round some results differently in the last
bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from spepi.cli import main
from spepi.scenario import FIGURE_SCENARIO_NAMES

DIGESTS_PATH = Path(__file__).with_name("golden_digests.json")

# (output name, subcommand and its options besides --scenario, output kind)
_SCENARIO_RUNS = (
    ("simulate", ["simulate"], "file"),
    ("simulate-eps-1e-200", ["simulate", "--eps-z", "1e-200", "--eps-s", "1e-200"], "file"),
    ("analyze", ["analyze"], "stdout"),
    ("sweep-gamma0", ["sweep", "--param", "params.gamma[0]", "--grid", "0.1:0.9:30"], "file"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(args) -> str:
    """Run the CLI, assert it succeeds, return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0, f"{args} failed"
    return out.getvalue()


def _scenario_digests(name, tmp_dir: Path) -> dict:
    digests = {}
    for output, argv, kind in _SCENARIO_RUNS:
        out = tmp_dir / f"{name}-{output}.out"
        args = [argv[0], "--scenario", name, *argv[1:]]
        if kind == "file":
            args += ["--out", str(out)]
        stdout = _run(args)
        data = out.read_bytes() if kind == "file" else stdout.encode("utf-8")
        digests[f"{name}/{output}"] = _sha256(data)
    return digests


def _figure_digests(tmp_dir: Path) -> dict:
    stdout = _run(["reproduce-figures", "--out", str(tmp_dir)])
    digests = {"reproduce-figures/stdout": _sha256(stdout.encode("utf-8"))}
    for path in sorted(tmp_dir.iterdir()):
        digests[f"reproduce-figures/{path.name}"] = _sha256(path.read_bytes())
    return digests


def _expected(prefix: str) -> dict:
    golden = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return {k: v for k, v in golden.items() if k.startswith(prefix + "/")}


@pytest.mark.parametrize("name", FIGURE_SCENARIO_NAMES)
def test_scenario_outputs_match_golden_digests(name, tmp_path):
    assert _scenario_digests(name, tmp_path) == _expected(name)


def test_reproduce_figures_outputs_match_golden_digests(tmp_path):
    assert _figure_digests(tmp_path) == _expected("reproduce-figures")


if __name__ == "__main__":  # regenerate: print the digests of this checkout as JSON
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label in FIGURE_SCENARIO_NAMES:
            digests.update(_scenario_digests(label, Path(tmp)))
        figures_dir = Path(tmp) / "figures"
        figures_dir.mkdir()
        digests.update(_figure_digests(figures_dir))
    print(json.dumps(digests, indent=2, sort_keys=True))
