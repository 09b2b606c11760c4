"""An operator's text becomes a number one way: `encoding.INT`, unsigned
ASCII digits, the rule every record integer is read by.  The builtin `int`
also takes a sign, underscores, surrounding whitespace and other scripts'
digits, so the scan fails on any call of it, or any use of it as a value,
in the two modules that read what an operator types: the command line and
the scenario spec.  A type annotation is no such use."""

import ast
import pathlib

import blindpay

SRC = pathlib.Path(blindpay.__file__).parent
OPERATOR_MODULES = ("cli.py", "harness.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def violations(source: str, name: str) -> list[str]:
    tree = ast.parse(source, name)
    typed = {id(node) for annotation in _annotations(tree) if annotation is not None
             for node in ast.walk(annotation)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "int" and id(node) not in typed]
    return [f"{name}:{node.lineno}" for node in sorted(uses, key=lambda node: node.lineno)]


def test_no_operator_text_is_read_by_the_builtin_int():
    found = [v for name in OPERATOR_MODULES
             for v in violations((SRC / name).read_text(), name)]
    assert found == [], "read an operator's integer with encoding.INT: " + "; ".join(found)


def test_the_scan_sees_each_use_of_int():
    source = '''
int(text)
ap.add_argument("--seed", type=int)
convert = {"int": int}
isinstance(v, int)
int.from_bytes(b, "big")
def f(a: int, b: int | None = None) -> dict[str, int]:
    c: int = 0
    return lambda: int(a)
class C:
    d: list[int] = []
'''
    assert violations(source, "m.py") == [
        "m.py:2", "m.py:3", "m.py:4", "m.py:5", "m.py:6", "m.py:9"]
