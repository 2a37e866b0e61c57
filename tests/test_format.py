"""The block formatter writes exactly the bytes of per-value "%.17g", takes
the fallback on every exact tie, and builds no table at import."""

from __future__ import annotations

import io
import os
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spepi._format as fmt
from spepi import cli

# rows on both sides of the writer's block edge
BLOCK_ROWS = (1, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1)
# tracemalloc peak of format_rows per value on one full block of a t column
# and 11 geometric tails: 85 bytes measured with 512-row blocks, plus 15%
# (322 before the word layout)
PEAK_BYTES_PER_VALUE = 98


def _reference(block: np.ndarray, sep: str) -> bytes:
    return "".join(sep.join(f"{x:.17g}" for x in row) + "\n"
                   for row in block.tolist()).encode()


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.inf if steps > 0 else 0.0)
    return float(x)


def _tie(m: int, j: int) -> float:
    # odd 53-bit m times 2**-j: 18 or more significant digits ending in 5
    return float(Fraction(2 * m + 1, 2 ** j))


finite_bits = st.integers(0, 0x7FEF_FFFF_FFFF_FFFF).map(_from_bits)
pow10_neighbours = st.builds(lambda k, d: _ulps(float(f"1e{k}"), d),
                             st.integers(-307, 308), st.integers(-2, 2))
ties = st.builds(_tie, st.integers(2 ** 51, 2 ** 52 - 1), st.sampled_from([2, 3, 4]))
subnormals_and_zeros = st.one_of(st.integers(1, 2 ** 52 - 1).map(_from_bits),
                                 st.sampled_from([0.0, -0.0]))
values = st.one_of(finite_bits, pow10_neighbours, ties, subnormals_and_zeros)


# 200 examples, or more under a larger profile (--hypothesis-profile=thorough)
@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(st.lists(values, min_size=1, max_size=40), st.sampled_from(BLOCK_ROWS),
       st.integers(1, 6), st.sampled_from([",", " "]))
def test_block_bytes_equal_per_value_formatting(drawn, rows, cols, sep):
    block = np.resize(np.array(drawn), (rows, cols))
    assert fmt.format_rows(block, sep) == _reference(block, sep)


def test_every_power_of_ten_and_its_neighbours():
    x = np.array([_ulps(float(f"1e{k}"), d) for k in range(-307, 309) for d in range(-2, 3)])
    assert fmt.format_rows(x.reshape(-1, 5), ",") == _reference(x.reshape(-1, 5), ",")


def test_exact_ties_take_the_fallback():
    rng = np.random.default_rng(5)
    x = np.array([_tie(int(m), j) for m in rng.integers(2 ** 51, 2 ** 52, 600)
                  for j in (2, 3, 4)])
    _, _, slow = fmt._digits(x)

    def is_tie(v):
        k = len(str(int(v))) - 1  # every value here is above 1e15
        return (Fraction(v) * Fraction(10) ** (16 - k)).denominator == 2

    exact = np.array([is_tie(v) for v in x])
    assert exact.sum() > 100
    assert slow[exact].all()
    assert fmt.format_rows(x.reshape(-1, 3), ",") == _reference(x.reshape(-1, 3), ",")


def test_specials_take_the_fallback():
    x = np.array([-0.0, 5e-324, 2.2250738585072009e-308, -1.5, np.inf, np.nan])
    _, _, slow = fmt._digits(x)
    assert slow.all()
    assert fmt.format_rows(x.reshape(2, 3), " ") == _reference(x.reshape(2, 3), " ")


@pytest.mark.parametrize("rows", BLOCK_ROWS + (2 * cli._CSV_BLOCK_ROWS + 1,))
def test_written_rows_number_t_across_blocks(rows):
    rng = np.random.default_rng(rows)
    S, I = rng.random(rows), rng.random((rows, 2)) * 1e-200
    out = io.BytesIO()
    cli._write_rows(out, (S, I), ",")
    expected = "".join(f"{t},{S[t]:.17g},{I[t, 0]:.17g},{I[t, 1]:.17g}\n" for t in range(rows))
    assert out.getvalue() == expected.encode()


def test_temporaries_per_value_stay_bounded():
    rows = cli._CSV_BLOCK_ROWS
    t = np.arange(rows, dtype=np.float64)
    tails = [np.exp(-rate * t) * 0.3 for rate in np.linspace(0.02, 0.6, 11)]
    block = np.column_stack([t] + tails)
    fmt.format_rows(block, ",")  # builds the tables
    tracemalloc.start()
    try:
        fmt.format_rows(block, ",")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / block.size < PEAK_BYTES_PER_VALUE


def test_importing_spepi_builds_no_table(tmp_path):
    # analyze and sweep write no trajectory rows, so they never load the
    # formatter; importing it builds none of its cached tables
    sweep = ["sweep", "--scenario", "fig2-left", "--out", str(tmp_path / "sweep.csv"),
             "--param", "incidence.beta[2]", "--grid", "0.05:0.5:3"]
    code = ("import sys, spepi, spepi.cli as c; "
            "c.main(['analyze', '--scenario', 'fig2-left']); "
            f"c.main({sweep!r}); "
            "loaded = 'spepi._format' in sys.modules; "
            "import spepi._format as f; "
            "print(loaded, *(t.cache_info().currsize for t in vars(f).values() "
            "if hasattr(t, 'cache_info')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fmt.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    loaded, *sizes = out.splitlines()[-1].split()
    assert loaded == "False"
    assert len(sizes) >= 2 and set(sizes) == {"0"}
