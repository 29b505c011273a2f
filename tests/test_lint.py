"""Source checks that need only the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    """Names bound by a top-level import of ``path`` that its code never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in bound.items() if name not in read]


def test_no_unused_top_level_imports():
    # an __init__ module's imports are its re-exports
    files = [p for d in ("src/isodelaunay", "tests") for p in sorted((ROOT / d).glob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    assert [msg for p in files for msg in _unused_imports(p)] == []


def test_no_unread_private_top_level_definitions():
    # a top-level _private function or class that no module of the package
    # reads (by name, attribute or import) is dead code or belongs in tests/
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in sorted((ROOT / "src/isodelaunay").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    defined = [(p, node) for p, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(defined) > 10
    assert [f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for p, node in defined if node.name not in read] == []
