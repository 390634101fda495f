"""Only ``market`` sums over outcomes.

Every probability-weighted sum and every last-axis dot goes through
``market.dot`` (or ``expectation``, ``centred`` and ``lp_norm``, built on
it), so that every module rounds such a sum the same way and a batch row
gets the bits of the same position alone.  A module other than
``market.py`` fails this test when it calls ``vecdot``, applies ``@`` to an
expression that names ``probs``, or sums (``.sum(`` or ``np.sum``) such an
expression.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "minkdev").glob("*.py"))


def _names_probs(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "probs" or isinstance(n, ast.Attribute) and n.attr == "probs"
               for n in ast.walk(node))


def _outcome_sums(tree: ast.AST):
    """``(line, what)`` of each weighted sum or last-axis dot in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if _names_probs(node.left) or _names_probs(node.right):
                yield node.lineno, "@ with probs"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "vecdot":
                yield node.lineno, "vecdot"
            elif name == "sum" and isinstance(func, ast.Attribute) and _names_probs(func.value):
                yield node.lineno, ".sum of probs"
            elif name == "sum" and any(map(_names_probs, node.args)):
                yield node.lineno, "np.sum of probs"


def test_the_scan_finds_each_form_of_a_weighted_sum():
    forms = ["np.vecdot(x, w)", "float(space.probs @ x)", "W @ (rows * space.probs)",
             "(space.probs * X).sum(axis=-1)", "np.sum(probs * x * y)"]
    assert [len(list(_outcome_sums(ast.parse(form)))) for form in forms] == [1] * len(forms)
    assert list(_outcome_sums(ast.parse("W @ y + w.sum() + np.sum(rows * x)"))) == []


def test_only_market_sums_over_outcomes():
    found = {path.name: list(_outcome_sums(ast.parse(path.read_text(encoding="utf-8")))) for path in LIBRARY}
    assert found.pop("market.py")            # the one weighted sum lives there
    assert {name: sums for name, sums in found.items() if sums} == {}
