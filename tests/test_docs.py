"""The README quick start and the demo scripts run as written."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs_as_shown():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```pycon\n(.*?)```", section, re.S)
    assert blocks, "the quick start should hold a pycon block"
    test = doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README quick start",
                                               str(ROOT / "README.md"), 0)
    result = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE).run(test)
    assert result.attempted and not result.failed


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
