"""Each row of ``cli_cases.CASES`` as a test of its own, run in-process through ``cli.main``.

A row's test id is its argv cut short, its words joined by ``_``. Rows that
share an argv differ in a file's content, so their ids add the first file's
content, cut short, by ``repr``: inserting a row renames no other row.
"""

from collections import Counter

import pytest

from cli_cases import CASES, Case, run


def _argv_id(case: Case) -> str:
    return "_".join(case.argv)[:60]


_ARGV_IDS = Counter(map(_argv_id, CASES))


def case_id(case: Case) -> str:
    """The row's argv, then, if another row shares it, the first created file's content (``None``: a directory)."""
    argv = _argv_id(case)
    if _ARGV_IDS[argv] == 1:
        return argv
    content = next(iter(case.files.values()), None)
    return f"{argv}_{content if content is None else content[:40]!r}"


IDS = [case_id(case) for case in CASES]
assert len(set(IDS)) == len(IDS), [i for i, n in Counter(IDS).items() if n > 1]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_case(case: Case, tmp_path, monkeypatch, capsys):
    run(case, tmp_path, monkeypatch, capsys)
