"""Structural gate: the Figure-3 flow exists once, in ``repro.core``.

Profile construction, the method loop and the error formula each have
one home (``repro.core.workflow.study`` / ``predict_all`` and
``repro.core.accuracy``).  A figure, campaign, script or example that
re-spells one of them forks the flow — a hand-built profile is how the
capacity axis came to be guessed instead of mapped — so this walks the
syntax trees (no imports of the scanned files) and fails on:

* a call to ``ScaleModelProfile(...)``, ``ScaleModelPredictor(...)`` or
  ``make_predictor(...)``;
* a division whose left operand contains an ``abs(...)`` call — the
  inline error formula, as a fraction or a percent;

anywhere under ``src/``, ``scripts/`` or ``examples/`` outside
``src/repro/core/``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = ("src", "scripts", "examples")
EXEMPT = ROOT / "src" / "repro" / "core"
FLOW_CALLS = {"ScaleModelProfile", "ScaleModelPredictor", "make_predictor"}


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _contains_abs(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Call) and _called_name(n) == "abs"
        for n in ast.walk(node)
    )


def forked_flow_sites(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) in FLOW_CALLS:
            yield f"{path.relative_to(ROOT)}:{node.lineno}: {_called_name(node)}(...)"
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div)
            and _contains_abs(node.left)
        ):
            yield f"{path.relative_to(ROOT)}:{node.lineno}: abs(...) / ..."


def test_flow_is_not_respelled_outside_core():
    sites = [
        site
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if EXEMPT not in path.parents
        for site in forked_flow_sites(path)
    ]
    assert not sites, "Figure-3 flow re-spelled outside repro.core:\n" + "\n".join(sites)
