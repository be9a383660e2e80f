"""Every public name has a caller or a gate.

A name that `gcalc/__init__.py` re-exports must be referenced by the code of
a package module other than `__init__.py` or by the acceptance gate, or sit
in KEEP with the reason it stays. References are read from the syntax trees:
a definition is not a reference, and a name that appears only in a
docstring or a comment does not count.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gcalc"
GATE = ROOT / "tests" / "test_acceptance.py"

KEEP = {
    "weighted_norm": "perfbench/child.py wraps it by name (ROADMAP item 1)",
    "capacity_estimate": "library form of the capacity command, incl. monitored events",
    "control_monte_carlo": "single-measure Monte Carlo cross-check of the lattice",
    "sup_estimate_check": "the running-maximum estimate, which no command runs",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports() -> set:
    return {alias.asname or alias.name
            for node in ast.walk(_tree(PACKAGE / "__init__.py"))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _referenced(path: Path) -> set:
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_has_a_caller_a_gate_or_a_reason():
    exports = _exports()
    assert set(KEEP) <= exports
    used = _referenced(GATE).union(*(_referenced(path) for path in PACKAGE.glob("*.py")
                                     if path.name != "__init__.py"))
    assert sorted(exports - used - set(KEEP)) == []
