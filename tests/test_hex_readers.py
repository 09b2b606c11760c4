"""Hex text becomes bytes at three places only: the record codec
`encoding.HEX`, the step line `purchase.StepTranscript.parse` and the
wire's `id` field kind, which encodes a card id once `cards.checked_card_id`
has passed it.  `bytes.fromhex` takes uppercase and whitespace, so a new
reader of card ids that called it would grow a second card-id rule; the
scan fails on any `.fromhex` elsewhere in the package, called or not."""

import ast
import pathlib

import blindpay

SRC = pathlib.Path(blindpay.__file__).parent
ALLOWED = {"encoding.HEX", "purchase.StepTranscript.parse", "wire.FIELD_KINDS.id"}


def _places(node, path):
    """(place, line) of each `.fromhex` under node.  A place is the module,
    then the name a module-level assignment binds, each definition and each
    constant dict key it sits in."""
    if isinstance(node, ast.Attribute) and node.attr == "fromhex":
        yield ".".join(path), node.lineno
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        path += (node.name,)
    elif (isinstance(node, ast.Assign) and len(path) == 1
          and [type(t) for t in node.targets] == [ast.Name]):
        path += (node.targets[0].id,)
    if isinstance(node, ast.Dict):
        for key, value in zip(node.keys, node.values):
            if key is not None:
                yield from _places(key, path)
            named = isinstance(key, ast.Constant) and isinstance(key.value, str)
            yield from _places(value, path + (key.value,) if named else path)
        return
    for child in ast.iter_child_nodes(node):
        yield from _places(child, path)


def places(source: str, module: str) -> list[tuple[str, int]]:
    return list(_places(ast.parse(source, module), (module,)))


def test_hex_is_read_only_at_the_allowed_places():
    found = [place for path in sorted(SRC.glob("*.py"))
             for place in places(path.read_text(), path.stem)]
    stray = [f"{place} (line {line})" for place, line in found if place not in ALLOWED]
    assert stray == [], "read a card id through cards.checked_card_id: " + "; ".join(stray)
    assert {place for place, _ in found} == ALLOWED  # drop a place that no longer reads hex


def test_the_scan_names_each_place_of_fromhex():
    source = '''
HEX = Codec(bytes.hex, bytes.fromhex)
KINDS = {"id": (lambda c: bytes.fromhex(c), None), "int": (int, None), **more}
def read(text):
    return bytearray.fromhex(text)
class Step:
    def parse(self, line):
        parts = {k: bytes.fromhex(v) for k, v in line}
        return parts
bytes.fromhex("ab")
'''
    assert places(source, "m") == [("m.HEX", 2), ("m.KINDS.id", 3), ("m.read", 5),
                                    ("m.Step.parse", 8), ("m", 10)]
