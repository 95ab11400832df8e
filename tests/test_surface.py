"""The package's public surface is what the program runs.

Every public module-level ``def``, ``class`` or UPPER_CASE constant in
``src/endosurv`` must be named somewhere in ``src/`` or ``perfbench/``
besides its own definition line; an ``__init__`` import counts as a use.
Names are matched as whole words in the text, not as AST references,
because some calls go through strings (``ObjectiveView`` reaches
``evaluate_outcome`` and ``evaluate_selection`` by name).  Code that only
the tests need lives in ``tests/oracles.py``; a constant whose last use
goes is deleted with it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "endosurv"
DEFINITION = re.compile(r"^(?:(?:def|class)\s+([A-Za-z]\w*)|([A-Z][A-Z0-9_]*)\s*=)",
                        re.MULTILINE)


def source_lines():
    """(path, line number, text) of every Python line in src/ and perfbench/."""
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for number, text in enumerate(path.read_text().splitlines(), 1):
                yield path, number, text


def public_definitions():
    """(name, path, line number) of each public module-level def, class or
    constant."""
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for match in DEFINITION.finditer(text):
            yield (match.group(1) or match.group(2), path,
                   text.count("\n", 0, match.start()) + 1)


def test_every_public_definition_is_used_by_the_program():
    lines = list(source_lines())
    unused = []
    for name, def_path, def_line in public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for path, number, text in lines
                   if (path, number) != (def_path, def_line)):
            unused.append(f"{def_path.name}:{def_line} {name}")
    assert not unused, "used nowhere in src/ or perfbench/: " + ", ".join(unused)


def cli_import_loads(prefixes):
    """Modules starting with one of ``prefixes`` that a fresh process has
    loaded after ``import endosurv.cli``."""
    probe = ("import sys, endosurv.cli; print(' '.join(m for m in sys.modules "
             f"if m.startswith({tuple(prefixes)!r})))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return done.stdout.split()


def test_cli_import_loads_no_interpolate_or_sparse():
    # the B-spline basis is numpy's: a process running endosurv pays for
    # neither scipy.interpolate nor the scipy.sparse it pulls in
    assert cli_import_loads(("scipy.interpolate", "scipy.sparse")) == []


def test_cli_import_loads_no_scipy_optimize():
    # the lambda search minimizes its working model with its own Newton
    # steps: scipy.optimize would add about 15 MB to the process
    assert cli_import_loads(("scipy.optimize",)) == []
