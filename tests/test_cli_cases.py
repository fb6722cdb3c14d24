"""Each row of ``cli_cases.CASES`` as a test of its own, run in-process through ``cli.main``.

A row's test id is its argv cut short, its words joined by ``_``; pytest
numbers the rows whose ids repeat.
"""

import pytest

from cli_cases import CASES, Case, run


@pytest.mark.parametrize("case", CASES, ids=lambda case: "_".join(case.argv)[:60])
def test_case(case: Case, tmp_path, monkeypatch, capsys):
    run(case, tmp_path, monkeypatch, capsys)
