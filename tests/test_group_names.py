"""Operator text names a group by one rule, `group.group_for`: a name of
`NAMED_GROUPS` or 8 to `DESK_BITS` in ASCII digits.  `seller init
--group-bits`, a scenario's `group_bits` and `scenario sweep --group-bits`
all read it.  A module that generated a desk group, checked a size or
looked up a named group by itself would grow a second rule, so the scan
fails on any use or import of those names outside `group.py`."""

import ast
import pathlib

import blindpay

SRC = pathlib.Path(blindpay.__file__).parent
GROUP_RULE_NAMES = {"gen_params", "check_desk_bits", "named_group", "NAMED_GROUPS"}


def uses(source: str, module: str) -> list[str]:
    """module:line of each use or import of a name of GROUP_RULE_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source, module)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{module}:{node.lineno}" for name in names if name in GROUP_RULE_NAMES]
    return sorted(set(found), key=lambda place: int(place.rpartition(":")[2]))


def test_only_group_py_turns_text_into_a_group():
    found = [place for path in sorted(SRC.glob("*.py")) if path.name != "group.py"
             for place in uses(path.read_text(), path.stem)]
    assert found == [], "read a group through group.group_for: " + "; ".join(found)


def test_the_scan_sees_each_use_of_a_group_rule_name():
    source = '''
"""Docstrings may name gen_params and NAMED_GROUPS."""
from .group import NAMED_GROUPS, group_for
params = gen_params(bits, seed=3)
group.check_desk_bits(bits)
if text in group.NAMED_GROUPS:
    named_group(text)
group_for(text, rng)
'''
    assert uses(source, "m") == ["m:3", "m:4", "m:5", "m:6", "m:7"]
