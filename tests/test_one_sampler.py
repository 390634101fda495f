"""Only ``market`` draws sampled positions.

Every sampled check (the set falsifiers, the axiom witnesses, the dual
checks and the suite criteria) draws its positions with
``market.sample_positions``, uniformly from the box ``[-SAMPLE_RANGE,
SAMPLE_RANGE]^n``, so the box is decided in one place.  A module other than
``market.py`` fails this test when it calls ``uniform`` with the box as its
bounds, spelled as ``SAMPLE_RANGE`` or as its value, and with a ``size``.
Scalar draws from the box (a constant, a shift) take no ``size`` and stay
where they are.
"""

import ast
from pathlib import Path

from minkdev.market import SAMPLE_RANGE

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "minkdev").glob("*.py"))


def _is_range(node: ast.AST) -> bool:
    """``SAMPLE_RANGE``, ``market.SAMPLE_RANGE`` or the number it holds."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float) and node.value == SAMPLE_RANGE
    return getattr(node, "id", getattr(node, "attr", None)) == "SAMPLE_RANGE"


def _box_draws(tree: ast.AST):
    """The line of each ``uniform(-R, R, size)`` call in ``tree``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "uniform"):
            continue
        args = dict(zip(("low", "high", "size"), node.args)) | {k.arg: k.value for k in node.keywords}
        low, high = args.get("low"), args.get("high")
        negated = isinstance(low, ast.UnaryOp) and isinstance(low.op, ast.USub)
        if negated and _is_range(low.operand) and high is not None and _is_range(high) and "size" in args:
            yield node.lineno


def test_the_scan_finds_each_spelling_of_a_box_draw():
    forms = ["rng.uniform(-market.SAMPLE_RANGE, market.SAMPLE_RANGE, size=A.space.n)",
             "rng.uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=(trials, space.n))",
             "rng.uniform(-4.0, 4.0, size=(100, space.n))",
             "[rng.uniform(-4.0, 4.0, size=space.n) for _ in range(50)]",
             "rng.uniform(-4, 4, n)"]
    assert [len(list(_box_draws(ast.parse(form)))) for form in forms] == [1] * len(forms)
    scalars = ["rng.uniform(-market.SAMPLE_RANGE, market.SAMPLE_RANGE)",
               "rng.uniform(-2 * market.SAMPLE_RANGE, 2 * market.SAMPLE_RANGE)",
               "rng.uniform(-3.0, 3.0, size=(k, n))", "rng.uniform(0.5, 1.5, size=n)"]
    assert [list(_box_draws(ast.parse(form))) for form in scalars] == [[]] * len(scalars)


def test_only_market_draws_sampled_positions():
    drawing = [path.stem for path in LIBRARY if any(_box_draws(ast.parse(path.read_text(encoding="utf-8"))))]
    assert drawing == ["market"]            # the one sampler lives there
