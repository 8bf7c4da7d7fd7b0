"""Smoke tests: the example scripts run end to end with small arguments, and
README's Python examples run as written."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import dofcount

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(dofcount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_disturbance_demo():
    result = run_script("run_disturbance_demo.py", "--trials", "2000", "--seed", "3")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "deck: one card each of Face=K/Suit=S, Face=K/Suit=H, Face=Q/Suit=S, Face=Q/Suit=H" in lines
    assert "repeatability audit: pass" in lines
    assert "witness run: Face=K -> Suit=S -> Face=Q (probability 1/8)" in lines
    assert "  variable 'Face' observed as 'K' at step 1 and 'Q' at step 3" in lines
    assert "Monte Carlo cross-check (2000 trials, seed 3):" in lines
    assert sum(line.startswith("  Suit=S then Face=K then Suit=") for line in lines) == 2


def test_k_sweep():
    result = run_script("run_k_sweep.py", "--n-max", "2", "--v-max", "2")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "N=2: urn K=2; card box K over V=1..2: [2, 3]; quantum K=4" in lines
    assert "K changes with V at fixed N, so K = K(N) fails for the card box." in lines


def test_readme_python_blocks():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:  # optimize=0: the block's asserts run under python -O too
        exec(compile(block, "README.md", "exec", optimize=0), {})


def test_package_exports_what_readme_and_scripts_import():
    # the top-level namespace holds exactly the names README's Python block
    # and scripts/ import from it; everything else is read from its module
    sources = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    sources += [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    imported = {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "dofcount"
        for alias in node.names
    }
    public = {
        name for name, value in vars(dofcount).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == imported
