"""The decision path uses only the public names of its sibling modules,
has no `assert`, its import loads neither `dataclasses` nor the lemma-side
modules, and every top-level function and class it defines is reached by
name from a root: `cli.main`, a module's import-time code, a name that a
lemma-side module imports, or a test reference (TEST_REFERENCES). So a
definition that only the lemma checks use passes when `compact` or
`blueprint` imports it by name (`terms.free_vars`, `terms._free_map` and
`formula.formula_sort_key` do); only one that nothing reaches fails.

`compact` is exempt: it derives the paper's lemma objects from the core's
internals on purpose."""
import ast
import json
import os
import subprocess
import sys

import pytest

import ticket

DECISION_PATH = [
    "record",
    "formula",
    "terms",
    "combinators",
    "oracle",
    "countermodel",
    "shadow",
    "cli",
]
LEMMA_SIDE = ["blueprint", "compact"]
# decision-path functions that tests use as references for the search
TEST_REFERENCES = [
    ("terms", "alpha_canonical"),
    ("oracle", "enumerate_inhabitants"),
    ("countermodel", "search_matrices"),
]


def _parse(module: str) -> ast.Module:
    path = os.path.join(os.path.dirname(ticket.__file__), module + ".py")
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _private_imports(module: str) -> list[str]:
    tree = _parse(module)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ticket")):
            out.extend(f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_"))
    return out


@pytest.mark.parametrize("module", DECISION_PATH)
def test_decision_path_imports_no_private_names(module):
    assert _private_imports(module) == []


@pytest.mark.parametrize("module", DECISION_PATH)
def test_decision_path_has_no_assert(module):
    # `python -O` strips assert statements, so every check on the decision
    # path raises instead
    lines = [node.lineno for node in ast.walk(_parse(module)) if isinstance(node, ast.Assert)]
    assert lines == []


def _sibling_imports(tree: ast.Module) -> tuple[dict, dict]:
    """Local name -> (module, name) for `from .module import name`, and
    local name -> module for `from . import module`."""
    names, modules = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    names[local] = (node.module, alias.name)
                else:
                    modules[local] = alias.name
    return names, modules


def _unreached_definitions() -> list[str]:
    """Top-level functions and classes of the decision path that no root
    reaches by name: the roots are `cli.main`, each module's import-time
    code, what the lemma-side modules import, and TEST_REFERENCES."""
    trees = {m: _parse(m) for m in DECISION_PATH}
    defs = {
        m: {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for m, tree in trees.items()
    }
    imports = {m: _sibling_imports(tree) for m, tree in trees.items()}

    def refs(module: str, node: ast.AST):
        names, modules = imports[module]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in defs[module]:
                    yield module, sub.id
                elif sub.id in names:
                    yield names[sub.id]
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in modules:
                    yield modules[sub.value.id], sub.attr

    roots = [("cli", "main"), *TEST_REFERENCES]
    for m in LEMMA_SIDE:
        roots.extend(_sibling_imports(_parse(m))[0].values())
    for m, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                roots.extend(refs(m, node))
    reached: set[tuple[str, str]] = set()
    stack = [r for r in roots if r[0] in defs]
    while stack:
        m, name = stack.pop()
        if (m, name) in reached or name not in defs[m]:
            continue
        reached.add((m, name))
        stack.extend(r for r in refs(m, defs[m][name]) if r[0] in defs)
    return sorted(f"{m}.{n}" for m in DECISION_PATH for n in defs[m] if (m, n) not in reached)


def test_decision_path_defines_only_what_it_uses():
    # a definition that no root reaches is dead code
    assert _unreached_definitions() == []


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
    # the command line is read without argparse, whose import loads gettext
    assert not loaded & {"argparse", "gettext"}


def test_cli_import_builds_the_small_split_tables():
    # every `oracle._splits` table for up to three free ranks is built by
    # the import, so a process forked after it finds them; each is what a
    # call of the uncached function gives
    src = os.path.dirname(os.path.dirname(ticket.__file__))
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import ticket.cli\n"
        "from ticket.oracle import _splits\n"
        "built = _splits.cache_info().currsize\n"
        "keys = [(p, q, r) for r in range(4) for p in range(r + 1) for q in range(r + 1)]\n"
        "same = all(_splits(*key) == _splits.__wrapped__(*key) for key in keys)\n"
        "print(json.dumps([built, len(keys), _splits.cache_info().misses, same]))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, check=True)
    built, keys, misses, same = json.loads(out.stdout)
    # the calls after the import all hit the cache
    assert built == keys == misses == 30
    assert same
