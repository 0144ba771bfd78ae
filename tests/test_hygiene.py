"""Source hygiene: no unused imports and no function or class that nothing
names in the package, no run of a command imports ``scipy.sparse`` or
``scipy.optimize`` or makes a ``VarId``, every CLI command in the README's
quick start still parses, and the README's weight-spec and Python API
examples run."""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from motifcc import cli
from motifcc.graph import write_edge_list
from motifcc.lpmodel import VarId

from test_lp_rows import planted_graph

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


def dead_definitions(modules: list[Path], corpus: list[Path]) -> tuple[list[str], int]:
    """``file:line: name`` of each function or class that ``modules``
    define (dunders aside) and no file of ``corpus`` names other than where
    it is defined, and the number of names checked."""
    words = Counter(w for path in corpus for w in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = [
        (path, node)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    definitions = Counter(node.name for _, node in defined)
    dead = [f"{path.name}:{node.lineno}: {node.name}" for path, node in defined if words[node.name] <= definitions[node.name]]
    return dead, len(definitions)


def test_every_definition_is_named_elsewhere():
    corpus = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
              ROOT / "README.md"]
    dead, checked = dead_definitions(MODULES, corpus)
    assert dead == []
    assert checked > 200


def test_the_check_sees_a_dead_definition(tmp_path):
    module, caller = tmp_path / "m.py", tmp_path / "caller.py"
    module.write_text(
        "class Used:\n    def method(self):\n        return orphan_twin()\n    def __len__(self):\n        return 0\n"
        "def orphan():\n    pass\n"
        "def orphan_twin():\n    pass\n"
    )
    caller.write_text("from m import Used\nUsed().method()\n")
    assert dead_definitions([module], [module, caller]) == (["m.py:6: orphan"], 4)


# Runs one command of each kind in this interpreter, then prints the exit
# codes and which of scipy.sparse and scipy.optimize got imported.
FRESH_RUN = """
import contextlib, io, json, sys
from pathlib import Path
from motifcc.cli import main
from motifcc.generators import fig2_weights, make_fixture
from motifcc.lpmodel import build_lp2

tmp = Path(sys.argv[1])
graph = make_fixture("fig2a", {}).graph
build_lp2(fig2_weights(graph).layers[0].weights, graph.n).to_text(str(tmp / "lp2.txt"))
fig2a = ["--generator", "fig2a", "--weights", "fig2"]
commands = [
    ["solve", *fig2a],
    ["solve", "--lp-dump", str(tmp / "lp2.txt"), "--solution-out", str(tmp / "sol.json")],
    ["solve", *fig2a, "--relaxation", "LP1"],
    ["exact", *fig2a],
    ["baseline", *fig2a, "--kind", "vertex"],
    ["verify", "--problem", str(tmp / "lp2.txt"), "--solution", str(tmp / "sol.json")],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted({"scipy.sparse", "scipy.optimize"} & set(sys.modules))]))
"""


def test_a_run_imports_neither_scipy_sparse_nor_optimize(tmp_path):
    """The rows are numpy arrays and HiGHS is loaded on its own, so
    ``scipy.sparse`` (about 0.2 s and 20 MB) and ``scipy.optimize`` stay out
    of every command."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    codes, imported = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [cli.EXIT_OK] * 6
    assert imported == []


def test_only_lpmodel_reads_the_scipy_view():
    """``LpProblem.A`` builds a scipy matrix, which the solve path must not
    need: outside ``lpmodel`` the package reads the row arrays."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "lpmodel.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "A"
    ]
    assert readers == []


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


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after ``heading`` in the README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(rf"{re.escape(heading)}\n.*?```{lang}\n(.*?)```", readme, re.S).group(1)


def test_readme_weight_spec_solves(tmp_path):
    spec = tmp_path / "weights.json"
    spec.write_text(readme_block("### Weight specs", "json"), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["solve", "--generator", "fig2a", "--weights", str(spec)]) == cli.EXIT_OK
    report = json.loads(out.getvalue())
    assert report["relaxation"] == "LP3"
    assert report["lp_value"] == pytest.approx(6.0309, abs=1e-4)


def test_readme_python_api_runs(capsys):
    scope = {}
    exec(compile(readme_block("## Python API", "python"), "README.md", "exec"), scope)
    result = scope["result"]
    assert result.status == "optimal" and result.pivots == 0 < result.iterations  # solved on HiGHS
    assert sorted(map(sorted, scope["part"].clusters)) == [[1, 2, 3], [4, 5, 6]]
    assert capsys.readouterr().out.startswith("(frozenset({1, 2, 3}), frozenset({4, 5, 6})) 6.86666")


def test_a_solve_makes_no_variable_id(tmp_path, monkeypatch):
    """LP columns are arrays on the solve path (``lpmodel.Columns``): LP1,
    LP2 and LP3 runs build, solve, check and round without making one
    ``VarId``, which only dumps, solution JSON and tests read."""
    made = []
    init = VarId.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    edges = tmp_path / "planted22.txt"
    write_edge_list(planted_graph(22), edges)
    fig2a = ["--generator", "fig2a", "--weights", "fig2"]
    monkeypatch.setattr(VarId, "__init__", counting)
    for argv, relaxation in (
        (["solve", "--input", str(edges), "--undirected", "--method", "MMCC"], "LP3"),
        (["solve", *fig2a], "LP2"),
        (["solve", *fig2a, "--relaxation", "LP1"], "LP1"),
    ):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(out.getvalue())["relaxation"] == relaxation
    assert made == []
    VarId.pair_var(1, 2)
    assert made == [("pair", (1, 2))]  # the count sees a VarId made
