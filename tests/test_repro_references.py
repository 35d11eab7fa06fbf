"""Structural gate: every reference to a ``repro`` name resolves.

Deleting a module or a helper leaves two kinds of reference behind that
no ordinary test trips over:

* an ``import repro...`` or ``from repro... import name`` that only runs
  lazily — inside a function, or in a bench file Tier-1 never executes;
* a backticked ``repro.x.y`` path in the prose docs.

The first check walks the syntax trees of ``src/``, ``scripts/``,
``examples/``, ``benchmarks/`` and ``tests/`` (every import node, not just
the top-level ones) and imports what each names.  The second resolves
every backticked path in the docs: the longest importable module prefix,
then ``getattr`` for the rest, so ``repro.workloads.generators._Grid``
passes.  ``benchmarks/perf/README.md`` is not scanned: it names
``repro.bench`` on purpose.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
CODE_TREES = ("src", "scripts", "examples", "benchmarks", "tests")
DOCS = (
    "README.md",
    "DESIGN.md",
    "docs/ARCHITECTURE.md",
    "examples/README.md",
    "scripts/README.md",
)
BACKTICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _import(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        obj = _import(".".join(parts[:cut]))
        if obj is None:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def import_references(path: pathlib.Path):
    """(line, dotted name) for every absolute ``repro`` import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield node.lineno, alias.name
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and _is_repro(node.module or "")
        ):
            for alias in node.names:
                if alias.name == "*":
                    yield node.lineno, node.module
                else:
                    yield node.lineno, f"{node.module}.{alias.name}"


def doc_references(path: pathlib.Path):
    """(line, dotted path) for every backticked ``repro.x`` in ``path``."""
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for span in BACKTICKED.findall(line):
            for dotted in DOTTED.findall(span):
                yield lineno, dotted


def test_every_repro_import_resolves():
    seen, broken = 0, []
    for top in CODE_TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            for lineno, dotted in import_references(path):
                seen += 1
                if not _resolves(dotted):
                    broken.append(f"{path.relative_to(ROOT)}:{lineno}: {dotted}")
    assert seen > 0
    assert not broken, "unresolvable repro imports:\n" + "\n".join(broken)


def test_every_backticked_repro_path_in_the_docs_resolves():
    seen, broken = 0, []
    for doc in DOCS:
        for lineno, dotted in doc_references(ROOT / doc):
            seen += 1
            if not _resolves(dotted):
                broken.append(f"{doc}:{lineno}: {dotted}")
    assert seen > 0
    assert not broken, "stale repro paths in the docs:\n" + "\n".join(broken)
