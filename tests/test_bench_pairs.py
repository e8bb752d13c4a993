"""The paired statistics scripts/bench_pairs.py records for each number."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "differences, p",
    [
        ([-1.0] * 10, 2 / 2**10),  # the change lower in all ten pairs
        ([-1.0] * 9 + [1.0], 2 * 11 / 2**10),
        ([-1.0] * 9 + [0.0], 2 / 2**9),  # a tie is dropped
        ([1.0, -1.0, 0.0], 1.0),
        ([0.0, 0.0], 1.0),
    ],
)
def test_sign_test_p(differences, p):
    assert math.isclose(bench_pairs.sign_test_p(differences), p)


def test_summary_records_the_paired_differences():
    base = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 11.0, 10.0, 12.0, 14.5]
    got = bench_pairs.summary(base, change)
    assert got["differences"] == [-1.0, 0.0, -2.0, -1.0, 0.5]
    assert got["difference_median"] == -1.0
    assert got["difference_quartiles"] == [-1.0, 0.0]
    assert got["change_lower_in"] == 3
    assert math.isclose(got["sign_test_p"], 2 * 5 / 2**4)
    assert got["base_median"] == 12.0 and got["base_iqr"] == 2.0
