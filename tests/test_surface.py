"""The package's public surface is what the program runs.

Every public module-level ``def``, ``class`` or UPPER_CASE constant in
``src/endosurv`` must be named somewhere in ``src/`` or ``perfbench/``
besides its own definition line and the package's ``__init__`` (a
re-export alone is not a use).  Names are matched as whole words in the
text, not as AST references, because some calls go through strings
(``ObjectiveView`` reaches ``evaluate_outcome`` and ``evaluate_selection``
by name).  Code that only the tests need lives in ``tests/oracles.py``; a
constant whose last use goes is deleted with it.  Which rows form which
likelihood case, how the treatment and interaction columns change with the
arm, and what each term kind may do are decided in ``design.py`` alone.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from endosurv import design

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
                   if (path, number) != (def_path, def_line)
                   and path != PACKAGE / "__init__.py"):
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


def test_cli_import_loads_no_scipy_linalg():
    # Cholesky factors and inverses come from numpy.linalg: scipy.linalg
    # would add about 6 MB and 30 ms to every process
    assert cli_import_loads(("scipy.linalg",)) == []


def test_cholesky_factors_are_taken_in_numerics_and_optimizer_only():
    # the lambda search factors -H_p for each probe's AIC and the fit keeps
    # the chosen probe's L^-1; inference reads it and factorizes nothing
    found = [f"{path.name}:{number}" for path, number, text in source_lines()
             if path.parent == PACKAGE
             and path.name not in ("numerics.py", "optimizer.py")
             and re.search(r"\b(?:inverse_cholesky|cholesky)\b", text)]
    assert not found, "Cholesky named outside its two modules: " + ", ".join(found)


# the likelihood-case code, 2 * status + treatment, in either order
CASE_CODE = re.compile(r"2(?:\.0)?\s*\*\s*[\w.\[\]]*status\s*\+\s*[\w.\[\]]*treatment"
                       r"|treatment\s*\+\s*2(?:\.0)?\s*\*\s*[\w.\[\]]*status")


def test_case_code_is_formed_in_design_only():
    # assemble sorts the rows by case once; every other module reads the
    # case bounds (tests/oracles.py, the independent reference, is outside
    # the package)
    found = [f"{path.name}:{number}" for path, number, text in source_lines()
             if path.parent == PACKAGE and path.name != "design.py"
             and CASE_CODE.search(text)]
    assert not found, "case code formed outside design.py: " + ", ".join(found)


def test_interaction_cols_are_read_in_design_only():
    # how the treatment and interaction columns change with the arm is
    # DesignBundle.arm_parts' to say; other modules take its (a, b)
    found = [f"{path.name}:{number}" for path, number, text in source_lines()
             if path.parent == PACKAGE and path.name != "design.py"
             and re.search(r"\binteraction_cols\b", text)]
    assert not found, "interaction_cols read outside design.py: " + ", ".join(found)


# a string literal naming one of the term kinds in design's table
KIND_LITERAL = re.compile(rf"""["']({'|'.join(design._KINDS)})["']""")


def test_term_kinds_are_told_apart_in_design_only():
    # which equations a kind may enter, whether it names a column, takes J
    # or is penalized, and its label are design._KINDS' to say; a line that
    # names two kinds elsewhere is a second table
    found = [f"{path.name}:{number}" for path, number, text in source_lines()
             if path.parent == PACKAGE and path.name != "design.py"
             and len(set(KIND_LITERAL.findall(text))) >= 2]
    assert not found, "term kinds told apart outside design.py: " + ", ".join(found)
