"""The scripts under scripts/ run against this checkout's src/ and report
what their docstrings promise."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def run_script(name: str, *args: str) -> list[str]:
    """Run scripts/<name> with this checkout's src/ first on the path and
    return its output lines; the script must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_golden_tour():
    lines = run_script("golden_tour.py")
    documents = [name for name in os.listdir(os.path.join(ROOT, "data"))
                 if name.endswith(".json")]
    assert documents
    for name in documents:
        assert any(line.startswith(name) for line in lines), name


def test_duality_sweep():
    lines = run_script("duality_sweep.py", "--count", "30", "--seed", "1")
    assert "systems checked: 30" in lines
    assert "disagreements: 0" in lines


def test_oracle_bench():
    lines = run_script("oracle_bench.py", "--range", "2", "--samples", "5")
    rows = [line for line in lines if "grades=" in line]
    assert rows
    assert all(row.endswith(" ok") for row in rows), rows
