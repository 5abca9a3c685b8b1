"""Smoke-run every demo script and the README library example, so public API
changes cannot silently break them."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("closed_form_tour.py", []),
    ("reproduce_figure.py", ["2000"]),
    ("sinr_terms.py", ["2000"]),
])
def test_demo_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(code, "README.md", "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("GammaParams(kappa=2.410")
