"""Pytest plugin: fail the session if a ``raise`` in ``src/dofcount`` never ran.

Load it by name, with ``tests`` on the path::

    PYTHONPATH=src:tests python -m pytest -q -p raise_coverage

Every ``raise`` statement inside a function body of the package is listed
from the source with ``ast``.  A line tracer, set with ``sys.settrace`` and
``threading.settrace`` and active only in frames whose code lives in the
package, records the lines that run.  At session end each ``raise`` none of
whose lines ran is reported as ``file:line in function`` and the session
fails.  The one exemption is ``cli.main``: it runs only as the console
script, which the tests start in a subprocess, out of the tracer's reach.
The file is no ``test_*`` module, so a plain test run neither collects
nor loads it.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

EXEMPT = {("cli.py", "main")}  # (file, function): run only by subprocess tests

_raises: dict[str, list[tuple[int, int, str]]] = {}  # file -> (first line, last line, function)
_ran: dict[str, set[int]] = {}  # file -> lines that ran
_unreached: list[str] = []


def _package_files() -> list[Path]:
    (root,) = importlib.util.find_spec("dofcount").submodule_search_locations
    return sorted(Path(root).glob("*.py"))


def _function_raises(tree: ast.AST) -> list[tuple[int, int, str]]:
    """``(lineno, end_lineno, qualified function)`` of each raise in a function body."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_function = not isinstance(child, ast.ClassDef)
                visit(child, (*scope, child.name), in_function or is_function)
            else:
                if isinstance(child, ast.Raise) and in_function:
                    found.append((child.lineno, child.end_lineno, ".".join(scope)))
                visit(child, scope, in_function)

    visit(tree, (), False)
    return found


def _local_tracer(ran: set[int]):
    def trace(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    return trace


def _tracer(frame, event, arg):
    ran = _ran.get(frame.f_code.co_filename)
    return None if ran is None else _local_tracer(ran)


def pytest_configure(config):
    for path in _package_files():
        raises = _function_raises(ast.parse(path.read_text()))
        raises = [r for r in raises if (path.name, r[2]) not in EXEMPT]
        if raises:
            _raises[str(path)] = raises
            _ran[str(path)] = set()
    threading.settrace(_tracer)
    sys.settrace(_tracer)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    for file, raises in _raises.items():
        ran = _ran[file]
        for first, last, function in raises:
            if ran.isdisjoint(range(first, last + 1)):
                _unreached.append(f"{Path(file).name}:{first} in {function}")
    if _unreached:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    total = sum(map(len, _raises.values()))
    if _unreached:
        terminalreporter.section("raise coverage", red=True)
        terminalreporter.write_line(f"{len(_unreached)} of {total} raise statements never ran:")
        for line in _unreached:
            terminalreporter.write_line(f"  {line}")
    else:
        terminalreporter.write_line(f"raise coverage: all {total} raise statements ran")
