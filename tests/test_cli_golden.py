"""Pinned ``cnq`` invocations keep their exit code, stdout and stderr byte for byte.

``tests/golden/cli.json`` is written by ``tests/make_golden.py``.
"""

import json

import pytest

from make_golden import GOLDEN, ROOT, cases, run

PINNED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert list(PINNED) == [" ".join(argv) for argv in cases()]


@pytest.mark.parametrize("key", list(PINNED))
def test_cli_output_is_pinned(key, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(tuple(key.split(" "))) == PINNED[key]
