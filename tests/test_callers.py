"""Every function, class and method in the package has a caller in the
package (ROADMAP item 13): a definition that only tests reach is moved into
the tests or deleted, unless an open item names its product caller.  And
each ledger refusal code is spelled in cards.py alone."""

import ast
import pathlib

import blindpay
from blindpay.cards import REFUSALS

SRC = pathlib.Path(blindpay.__file__).parent

# Defined in the package and called only from tests, each for its reason.
NO_CALLER_YET = {
    "purchase.begin_upgrade": "criterion 8 pins the upgrade path",
    "dispute.prove_k_table": "item 4a checks the K table against the licenses' s",
    "dispute.verify_k_table": "item 4a checks the K table against the licenses' s",
    "group.dleq_equations_hold": "the reference that dleq_verify is tested against",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name) of each module-level function and class
    and of each class's methods, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (method.name.startswith("__") and method.name.endswith("__"))):
                    yield f"{module}.{node.name}.{method.name}", method.name


def test_every_definition_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    # a name is used where it is read as a name or an attribute; an import
    # binds it without using it
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = {qualified for module, tree in trees.items()
              for qualified, name in _definitions(module, tree) if name not in used}
    assert unused - set(NO_CALLER_YET) == set(), (
        f"{sorted(unused - set(NO_CALLER_YET))} have no caller in the package: "
        "delete them or move them into the tests")
    assert set(NO_CALLER_YET) - unused == set(), (
        f"{sorted(set(NO_CALLER_YET) - unused)} now have a caller: drop them from NO_CALLER_YET")


def test_only_cards_spells_a_ledger_refusal_code():
    # every other module reads the codes from cards.REFUSALS, so a code
    # renamed there is renamed from the ledger to the buyer
    codes = {code for code, _ in REFUSALS.values()}
    spelled = {(path.name, code) for path in SRC.glob("*.py") if path.name != "cards.py"
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               for code in codes if code in node.value}
    assert spelled == set()
