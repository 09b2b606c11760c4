"""`group.dleq_verify` answers every proof check with a bool: a withheld
proof, a value outside the subgroup and a false proof are all False, and
nothing raises.  A caller that wrapped it in a `try` would grow a second
rule for what counts as a failed proof, so the scan fails on any call of
it in the body of a `try` in the package."""

import ast
import pathlib

import blindpay

SRC = pathlib.Path(blindpay.__file__).parent
TRY_NODES = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))


def wrapped_checks(source: str, module: str) -> list[str]:
    """module:line of each dleq_verify call in the body of a try."""
    found = set()
    for node in ast.walk(ast.parse(source, module)):
        if not isinstance(node, TRY_NODES):
            continue
        for call in (c for stmt in node.body for c in ast.walk(stmt)):
            if isinstance(call, ast.Call) and "dleq_verify" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                found.add(call.lineno)
    return [f"{module}:{line}" for line in sorted(found)]


def test_no_proof_check_is_wrapped_in_a_try():
    found = [place for path in sorted(SRC.glob("*.py"))
             for place in wrapped_checks(path.read_text(), path.stem)]
    assert found == [], "call dleq_verify bare; it raises nothing: " + "; ".join(found)


def test_the_scan_sees_each_wrapped_check():
    source = '''
try:
    ok = dleq_verify(proof, b1, y1, b2, y2, p)
except MalformedElement:
    ok = False
try:
    if group.dleq_verify(proof, *statement):
        try:
            pass
        finally:
            pass
finally:
    pass
def judge(proofs):
    try:
        return [dleq_verify(pr, *s) for pr in proofs]
    except ValueError:
        return dleq_verify(None, *s)
ok = dleq_verify(proof, b1, y1, b2, y2, p)
'''
    assert wrapped_checks(source, "m") == ["m:3", "m:7", "m:16"]
