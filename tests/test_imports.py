"""Every name a module imports is used in that module: an ``ast`` scan of
the package, the tests and the benchmarks in place of a linter's
unused-import check.  A name listed in ``__all__`` counts as used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        names = {getattr(t, "id", None) for t in getattr(node, "targets", ())}
        if isinstance(node, ast.Assign) and "__all__" in names:
            used |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [p for d in ("src/balimpute", "tests", "benchmarks")
             for p in sorted((ROOT / d).glob("*.py"))]
    assert paths
    assert [hit for p in paths for hit in unused_imports(p)] == []
