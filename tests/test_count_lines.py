"""scripts/count_lines.py: total and code lines per module."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "count_lines.py")


def load_script():
    spec = importlib.util.spec_from_file_location("count_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_comments_docstrings_and_blanks_are_not_code():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    s = '''a string\n"
        "    over two lines'''  # trailing comment\n"
        "    return x\n"
    )
    assert load_script().count(source) == (9, 4)


def test_runs_on_the_package():
    pkg = os.path.join(ROOT, "src", "fedsim")
    out = subprocess.run(
        [sys.executable, SCRIPT, pkg], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    rows = {line.split()[0]: tuple(map(int, line.split()[1:])) for line in out[1:]}
    modules = sorted(n for n in os.listdir(pkg) if n.endswith(".py"))
    assert sorted(rows) == sorted([*modules, "total"])
    for name in modules:
        with open(os.path.join(pkg, name)) as f:
            assert rows[name][0] == len(f.read().splitlines())
        assert 0 < rows[name][1] <= rows[name][0]
    assert rows["total"] == tuple(
        sum(rows[n][i] for n in modules) for i in (0, 1)
    )
