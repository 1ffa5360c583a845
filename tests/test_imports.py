"""The decision path uses only the public names of its sibling modules,
and its import loads neither `dataclasses` nor the lemma-side modules.

`compact` is exempt: it derives the paper's lemma objects from the core's
internals on purpose."""
import ast
import json
import os
import subprocess
import sys

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


def test_cli_import_loads_no_dataclasses_and_no_lemma_modules():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, a tenth
    # of a fresh process's start-up; `blueprint` and `compact` serve only
    # the lemma checks. -S keeps site-packages from loading any of them.
    src = os.path.dirname(os.path.dirname(ticket.__file__))
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import ticket.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert "ticket.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ticket.blueprint", "ticket.compact"}
