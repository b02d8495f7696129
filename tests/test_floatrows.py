"""``floatrows.csv_rows`` against ``"%.17g" % x``, cell by cell.

The reference is the row template the ``reflectance`` CSV was written with
before: one ``%`` conversion per float. Every set below must give its bytes.
"""
import decimal
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spinphoton import floatrows
from spinphoton.cli import main
from test_batch_properties import DERANDOMIZED

ROOT = Path(__file__).resolve().parent.parent
N = 24_000  # values per random set


def reference(table: np.ndarray) -> str:
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in table.tolist())


def assert_cells_match(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    table = np.resize(values, (-(-values.size // 8), 8))
    got, want = floatrows.csv_rows(table), reference(table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first: {bad[0]}")


def test_random_bit_patterns():
    bits = np.random.default_rng(1).integers(0, 2 ** 64, N, dtype=np.uint64).view(np.float64)
    assert_cells_match(bits[np.isfinite(bits)])


def test_log_uniform_values_from_1e_13_to_1e19():
    rng = np.random.default_rng(2)
    size = np.exp(rng.uniform(np.log(1e-13), np.log(1e19), N))
    assert_cells_match(size * rng.choice([-1.0, 1.0], N))


@pytest.mark.parametrize("k", range(-4, 15))
def test_exact_ties_round_half_to_even(k):
    # odd / 2**j has j decimals, the last a 5: with j = 17 - k, a value in
    # [10**k, 10**(k + 1)) has 18 significant digits and is a tie at the 17th
    j = 17 - k
    low, high = (math.ceil(10.0 ** e * 2 ** (j - 1)) for e in (k, k + 1))
    odd = 2 * np.random.default_rng(10 + k).integers(low, high, 2000) + 1
    assert_cells_match(odd / 2.0 ** j)


def _digits_class(value: float) -> tuple:
    """(k, sign, trailing zeros) of ``value``'s 17 significant digits, rounded
    half to even as ``%.17g`` rounds them, with ``10**k <= |digits| < 10**(k + 1)``."""
    sign, digits, exponent = decimal.Context(prec=17).create_decimal(value).as_tuple()
    zeros = 17 - len(bytes(digits).rstrip(b"\0"))  # also those the Decimal leaves out
    return len(digits) + exponent - 1, sign, zeros


def test_every_exponent_sign_and_trailing_zero_count():
    # Random bits almost never end in zeros, so each row of the slot tables
    # gets a cell of its own: k = -4..14, either sign, and t = 0..16 trailing
    # zeros among the 17 digits. For k >= 0 and t >= 16 - k nothing follows
    # the point, and the point is dropped too.
    rng = np.random.default_rng(6)
    cells, seen = [], set()
    for k in range(-4, 15):
        for sign in (0, 1):
            for t in range(17):
                for _ in range(100):  # 16 or 17 digits may not survive a double
                    m = int(rng.integers(10 ** (16 - t), 10 ** (17 - t)))
                    m += m % 10 == 0  # its last digit is not a zero
                    value = (-1) ** sign * float(f"{m}e{t + k - 16}")
                    if _digits_class(value) == (k, sign, t):
                        break
                cells.append(value)
                seen.add(_digits_class(value))
    assert seen == {(k, sign, t) for k in range(-4, 15) for sign in (0, 1) for t in range(17)}
    assert sum("." not in "%.17g" % v for v in cells) == 2 * sum(range(1, 16))
    assert_cells_match(cells)


def test_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-5, 17)
    down = np.nextafter(powers, 0.0)
    up = np.nextafter(powers, np.inf)
    assert_cells_match(np.concatenate([powers, down, up, np.nextafter(down, 0.0),
                                       np.nextafter(up, np.inf), -powers, -down, -up]))


def test_values_next_to_one():
    steps = np.arange(N // 2)
    assert_cells_match(np.concatenate([1.0 - steps * 2.0 ** -53, 1.0 + steps * 2.0 ** -52]))


def test_zeros_subnormals_and_the_largest_double():
    tiny = np.finfo(np.float64).smallest_subnormal
    largest = np.finfo(np.float64).max
    special = [0.0, -0.0, tiny, -tiny, 4 * tiny, -4 * tiny, 1e-310, -2.5e-320,
               np.finfo(np.float64).tiny, largest, -largest, np.nextafter(largest, 0.0)]
    assert_cells_match(special)
    # the widest text, 24 characters, in every column
    assert_cells_match([-4 * tiny] * 8 + [-largest] * 8)


def test_the_edges_of_fixed_notation():
    edges = [1e-4, 1e15]
    near = [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)]
    inside = [9.9999999999999998e-5, 1.0000000000000001e-4, 999999999999999.88,
              999999999999999.9, 123456789012345.67, 0.00012345678901234567]
    values = edges + near + inside
    assert_cells_match(values + [-v for v in values])


def test_tables_of_one_row_or_one_column():
    values = np.random.default_rng(4).standard_normal(40)
    for table in (values.reshape(1, -1), values.reshape(-1, 1)):
        assert floatrows.csv_rows(table) == reference(table)


@pytest.mark.parametrize("n_cols", [1, 3, 8, 9000])
def test_tables_formatted_in_several_blocks(n_cols):
    # more than two blocks of _BLOCK_CELLS cells, the last one partial; a row
    # wider than a block is a block of its own
    n_rows = max(2, 2 * floatrows._BLOCK_CELLS // n_cols + 5)
    table = np.random.default_rng(n_cols).standard_normal((n_rows, n_cols))
    assert floatrows.csv_rows(table) == reference(table)


@settings(DERANDOMIZED, max_examples=200)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_table(table):
    assert floatrows.csv_rows(table) == reference(table)


# The detuning column of these grids, -7 * 10**j to 3 * 10**j in 4 steps, and
# the responses and phases beside it put cells in every fixed-notation class
# 10**k <= |x| < 10**(k + 1), k = -4..14, and on both sides of them.
GRIDS = [f"-7e{j}:3e{j}:5" for j in range(-5, 17)]


def test_reflectance_writes_every_cell_as_percent_does(tmp_path, monkeypatch):
    tables = []
    real = floatrows.csv_rows

    def recording(table):
        tables.append(table.copy())
        return real(table)

    monkeypatch.setattr(floatrows, "csv_rows", recording)
    out = tmp_path / "r.csv"
    cells = []
    for grid in GRIDS:
        del tables[:]
        assert main(["reflectance", f"--grid={grid}", "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").split("\n", 1)[1]
        assert rows == "".join(map(reference, tables))
        cells += [t.ravel() for t in tables]
    size = np.abs(np.concatenate(cells))
    fixed = size[(size >= 1e-4) & (size < 1e15)]
    assert set(np.floor(np.log10(fixed)).astype(int)) == set(range(-4, 15))
    assert (size == 0).any() and (size < 1e-4).sum() > (size == 0).sum()
    assert (size >= 1e15).any()


def test_startup_loads_no_formatting_module_and_builds_no_table():
    # every functools.cache of the module, each a table built on first use
    code = ("import json, sys, spinphoton.cli\n"
            "loaded = 'spinphoton.floatrows' in sys.modules\n"
            "from spinphoton import floatrows\n"
            "sizes = {name: f.cache_info().currsize for name, f in vars(floatrows).items()\n"
            "         if hasattr(f, 'cache_info')}\n"
            "print(json.dumps([loaded, sizes]))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded, sizes = json.loads(done.stdout)
    assert not loaded
    assert {"_quads", "_tables"} <= set(sizes)
    assert set(sizes.values()) == {0}
