"""Every demo script runs to the end against the package's public API."""

from pathlib import Path
import re
import runpy

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert not re.search(r"\bnan\b", out, re.IGNORECASE)
