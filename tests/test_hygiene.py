"""Source hygiene: no unused imports in the package, and every CLI command
in the README's quick start still parses."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from motifcc import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "motifcc").glob("*.py"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, including a quoted one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(path: Path) -> list[str]:
    """``line: name`` for each name ``path`` imports and never uses; an
    import line marked ``# noqa`` is exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys  # noqa\nfrom typing import Iterable, List\n"
        "def f(x: 'Iterable[int]') -> None:\n    return None\n"
    )
    assert unused_imports(module) == ["1: os", "3: List"]


def quick_start_commands() -> list[str]:
    """The ``motifcc ...`` commands of the README's quick-start block, with
    backslash-continued lines joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(CLI\)\s*```sh\n(.*?)```", readme, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("motifcc ")]


def test_quick_start_has_commands():
    assert len(quick_start_commands()) >= 5


@pytest.mark.parametrize("command", quick_start_commands())
def test_quick_start_command_parses(command):
    argv = shlex.split(command)[1:]
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
