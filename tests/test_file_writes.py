"""Every file the package writes goes through one of two writers:
`cli._write_file`, which leaves the file owner-only, and
`cards.CardLedger`, which creates its ledger owner-only and appends to it.
The scan fails on any other place in the package that could write one."""

import ast
import pathlib

import blindpay

SRC = pathlib.Path(blindpay.__file__).parent
WRITERS = {"_write_file", "CardLedger"}


def _calls(node, scope=()):
    """Each call under node, with the names of the definitions it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _calls(child, scope + (child.name,) if named else scope)


def _mode(call: ast.Call) -> str:
    """The mode an open() call passes: "r" when it passes none, "?" when
    it is computed, which counts as writing."""
    node = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if node is None:
        return "r"
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else "?"


def violations(source: str, name: str) -> list[str]:
    found = []
    for call, scope in _calls(ast.parse(source, name)):
        func, where = call.func, f"{name}:{call.lineno}"
        if isinstance(func, ast.Name) and func.id == "open" and set(_mode(call)) & set("wax+?"):
            found.append(f"{where}: open() with mode {_mode(call)!r}")
        if (isinstance(func, ast.Attribute) and func.attr == "open"
                and isinstance(func.value, ast.Name) and func.value.id == "os"
                and not WRITERS & set(scope)):
            found.append(f"{where}: os.open outside {' and '.join(sorted(WRITERS))}")
    return found


def test_no_file_is_written_but_by_the_two_writers():
    found = [v for path in sorted(SRC.glob("*.py"))
             for v in violations(path.read_text(), path.name)]
    assert found == [], "write through cli._write_file: " + "; ".join(found)


def test_the_scan_sees_each_way_to_write():
    source = '''
open(p, "w")
open(p, mode="ab")
open(p, "r+b")
open(p, m)
open(p)
open(p, "rb")
def f():
    os.open(p, 0)
def _write_file(path, text):
    os.open(path, 0)
class CardLedger:
    def __init__(self, path):
        os.open(path, 0)
'''
    assert [v.split(": ", 1)[0] for v in violations(source, "m.py")] == [
        "m.py:2", "m.py:3", "m.py:4", "m.py:5", "m.py:9"]
