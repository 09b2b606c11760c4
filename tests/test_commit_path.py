"""Every change to the bank's ledger goes through `CardLedger._commit`,
which checks the whole change, writes it in one piece and only then moves
the state.  The scan fails on any other `CardLedger` method that writes to
the ledger file or moves a card, a balance or the seq itself."""

import ast
import pathlib

import blindpay

CARDS = pathlib.Path(blindpay.__file__).parent / "cards.py"
COMMIT = "_commit"
WRITES = {"write", "writelines", "flush", "pwrite", "truncate", "ftruncate"}
CARD_FIELDS = {"status", "spent_by", "spend_seq"}
MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _targets(node):
    """The names a statement binds, tuples taken apart."""
    stack = list(node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target])
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack += target.elts
        else:
            yield target.value if isinstance(target, ast.Starred) else target


def _is_accounts(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "accounts"


def violations(source: str, name: str) -> list[str]:
    """Each change outside _commit, in line order, but for two that open a
    ledger: __init__ binds the empty state and cuts a torn last line."""
    found = []
    ledger = next(node for node in ast.parse(source, name).body
                  if isinstance(node, ast.ClassDef) and node.name == "CardLedger")
    for method in ledger.body:
        if not isinstance(method, ast.FunctionDef) or method.name == COMMIT:
            continue
        opening = method.name == "__init__"

        def flag(node, what):
            found.append((node.lineno, f"{name}:{node.lineno} in {method.name}: {what}"))
        for node in ast.walk(method):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in WRITES and not (opening and attr == "truncate"):
                    flag(node, f"writes with .{attr}()")
                if attr in MUTATORS and _is_accounts(node.func.value):
                    flag(node, f"changes accounts with .{attr}()")
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                continue
            for target in _targets(node):
                if isinstance(target, ast.Attribute) and target.attr in CARD_FIELDS:
                    flag(node, f"sets a card's {target.attr}")
                elif (isinstance(target, ast.Attribute) and target.attr in ("_seq", "accounts")
                      and not (opening and isinstance(node, (ast.Assign, ast.AnnAssign)))):
                    flag(node, f"sets {target.attr}")
                elif isinstance(target, ast.Subscript) and _is_accounts(target.value):
                    flag(node, "assigns into accounts")
    return [what for _, what in sorted(found)]


def test_only_the_commit_path_changes_the_ledger():
    found = violations(CARDS.read_text(), CARDS.name)
    assert found == [], f"change the ledger through CardLedger.{COMMIT}: " + "; ".join(found)


def test_the_scan_sees_each_way_to_change_the_ledger():
    source = '''
class CardLedger:
    def __init__(self):
        self.accounts: dict = {}
        self._seq = 0
        fh.truncate(0)
    def _commit(self, card):
        os.write(fd, b"")
        card.status = 1
        self._seq += 1
        self.accounts[a] = 1
    def a(self, card):
        os.write(fd, b"")
        self._fh.write(b"")
        os.ftruncate(fd, 0)
        fh.truncate(0)
    def b(self, card):
        card.status = 2
        card.spent_by, (card.spend_seq, x) = "s", (1, 2)
        self._seq += 1
        self._seq = 3
        self.accounts["s"] = 1
        self.accounts["s"] += 1
        self.accounts.update(s=1)
        del self.accounts["s"]
        self.accounts = {}
    def c(self):
        return self._seq + len(self.accounts) + self.accounts.get("s", 0)
'''
    assert [v.split(" in ", 1)[0] for v in violations(source, "m.py")] == [
        f"m.py:{line}" for line in (*range(13, 17), 18, 19, 19, *range(20, 27))]
