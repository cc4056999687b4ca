"""The benchmark's `series`, `aut approx` and `relcheck` reports stay
byte-identical: the CLI contract's benchmark rows in tests/test_contract.py."""

import pytest

from test_contract import BENCHMARK_ROWS, breaches


@pytest.mark.parametrize("row", BENCHMARK_ROWS, ids=[row.name for row in BENCHMARK_ROWS])
def test_report_digest_is_unchanged(row):
    assert breaches(row) == []
