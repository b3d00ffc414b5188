"""The scripts under scripts/, and ``python -m ncample``, run against this
checkout's src/ and report what their docstrings promise."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def run_python(*args: str) -> list[str]:
    """Run the interpreter with this checkout's src/ first on the path and
    return its output lines; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def run_script(name: str, *args: str) -> list[str]:
    return run_python(os.path.join(ROOT, "scripts", name), *args)


def test_module_entry_point():
    # python -m ncample runs the CLI from a checkout without installing it
    lines = run_python("-m", "ncample", "verdict", os.path.join(ROOT, "data", "p1-O1.json"))
    assert "kind: NCAmple" in lines


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
