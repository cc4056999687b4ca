"""Every `$ monsterlie ...` example in README.md is a row of the CLI
contract in tests/test_contract.py and prints the report its row pins."""

import shlex

import pytest

from test_contract import README_ROWS, ROOT, breaches


def test_every_readme_example_has_a_digest():
    examples = [shlex.split(line[2:], comments=True)[1:] for line in
                (ROOT / "README.md").read_text().splitlines() if line.startswith("$ monsterlie ")]
    assert sorted(examples) == sorted(shlex.split(row.argv) for row in README_ROWS)


@pytest.mark.parametrize("row", README_ROWS, ids=[row.argv for row in README_ROWS])
def test_readme_example_output_is_unchanged(row):
    assert breaches(row) == []
