"""Every name a package module imports is used in that module, no
package module guards anything with an assert, which python -O removes,
and start-up loads no module the command line does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seifert

MODULES = sorted(p for p in Path(seifert.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_package_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES + [Path(seifert.__file__)],
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == []


def test_cli_start_up_skips_the_dataclass_stack():
    # -S keeps site-packages .pth hooks from importing anything first
    env = dict(os.environ, PYTHONPATH=str(Path(seifert.__file__).parents[1]))
    code = ("import sys, seifert.cli; print(' '.join(m for m in "
            "('dataclasses', 'inspect', 'typing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_commands_that_print_no_fraction_or_json_load_neither():
    env = dict(os.environ, PYTHONPATH=str(Path(seifert.__file__).parents[1]))
    code = (
        "import contextlib, io, sys\n"
        "from seifert.cli import run_cli\n"
        "codes = []\n"
        "for argv in (['normalize', '(O,o,0 | 0, (3,4))'],\n"
        "             ['equiv', '(O,o,0 | 1)', '(O,o,0 | -1)'],\n"
        "             ['group', 'order', '(O,o,0 | -1, (2,1), (3,5))'],\n"
        "             ['group', 'order', '(O,o,1 | 0)']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(run_cli(argv))\n"
        "print(*codes, *(m for m in ('fractions', 'decimal', 'json')\n"
        "                if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0", "1"]


def test_report_json_prints_the_same_bytes(capsys):
    import json
    from seifert.cli import build_report, run_cli
    text = "(O,o,0 | -1, (2,1), (3,1), (5,1))"
    assert run_cli(["report", "--json", text]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(build_report(text), indent=2) + "\n"
    assert json.loads(out)["euler_sum"] == "1/30"
