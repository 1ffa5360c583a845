"""The decision path uses only the public names of its sibling modules.

`compact` is exempt: it derives the paper's lemma objects from the core's
internals on purpose."""
import ast
import os

import pytest

import ticket

DECISION_PATH = ["formula", "terms", "combinators", "oracle", "countermodel", "shadow", "cli"]


def _private_imports(module: str) -> list[str]:
    path = os.path.join(os.path.dirname(ticket.__file__), module + ".py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ticket")):
            out.extend(f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_"))
    return out


@pytest.mark.parametrize("module", DECISION_PATH)
def test_decision_path_imports_no_private_names(module):
    assert _private_imports(module) == []
