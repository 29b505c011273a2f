"""Source checks that need only the standard library."""

import ast
import os
import subprocess
import sys
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


def _read_names(paths) -> set[str]:
    """Every name the modules at ``paths`` read, as a name, an attribute or a
    ``from`` import."""
    read = set()
    for p in paths:
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _top_level_definitions(private: bool) -> list[tuple[Path, ast.AST]]:
    """The package's top-level functions and classes, _private or public."""
    return [(p, node) for p in sorted((ROOT / "src/isodelaunay").glob("*.py"))
            for node in ast.parse(p.read_text(), str(p)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and not node.name.startswith("__")]


def test_no_unread_private_top_level_definitions():
    # a top-level _private function or class that no module of the package
    # reads (by name, attribute or import) is dead code or belongs in tests/
    read = _read_names(sorted((ROOT / "src/isodelaunay").glob("*.py")))
    defined = _top_level_definitions(private=True)
    assert len(defined) > 10
    assert [f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for p, node in defined if node.name not in read] == []


def test_no_public_top_level_definition_only_tests_read():
    # the library's surface is the pipeline's surface: a public function or
    # class, or a public method or property of a class, that neither the
    # package nor the benchmark reads belongs in tests/
    read = _read_names(sorted((ROOT / "src/isodelaunay").glob("*.py"))
                       + sorted((ROOT / "bench").glob("*.py")))
    defined = _top_level_definitions(private=False)
    methods = [(p, item) for p, node in defined if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    assert len(defined) > 50 and len(methods) > 15
    assert [f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for p, node in defined + methods if node.name not in read] == []


def test_the_package_loads_no_numpy():
    # numpy is a test dependency only: no module of the library may load it
    modules = sorted(p.stem for p in (ROOT / "src/isodelaunay").glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) > 5
    script = ("import sys, isodelaunay\n" + "".join(f"import isodelaunay.{m}\n" for m in modules)
              + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_every_parameter_is_read():
    # a parameter that its function never reads is an argument every caller
    # passes for nothing
    unread = []
    count = 0
    for p in sorted((ROOT / "src/isodelaunay").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                          + [x for x in (a.vararg, a.kwarg) if x]]
                body = node.body if isinstance(node.body, list) else [node.body]
                read = {n.id for b in body for n in ast.walk(b) if isinstance(n, ast.Name)}
                count += len(params)
                unread += [f"{p.relative_to(ROOT)}:{node.lineno}: {q}"
                           for q in params if q not in ("self", "cls") and q not in read]
    assert count > 100
    assert unread == []


def test_every_defaulted_parameter_is_set_by_some_caller():
    # a default that no call in the package or the benchmark overrides is a
    # constant dressed as an option.  Calls are matched by the bare name of
    # the callee (a name or an attribute), so a same-named function elsewhere
    # that passes that many arguments, or that keyword, hides a knob.
    paths = sorted((ROOT / "src/isodelaunay").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    calls = {}
    for p in paths:
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call, index, name):
        return (index is not None and (len(call.args) > index
                                       or any(isinstance(x, ast.Starred) for x in call.args))
                or any(k.arg in (name, None) for k in call.keywords))

    knobs = []
    count = 0
    for p in sorted((ROOT / "src/isodelaunay").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            if positional and positional[0].arg in ("self", "cls"):  # a method's callers skip it
                positional = positional[1:]
            first = len(positional) - len(a.defaults)
            defaulted = [(i, x.arg) for i, x in enumerate(positional) if i >= first]
            defaulted += [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            count += len(defaulted)
            knobs += [f"{p.relative_to(ROOT)}:{node.lineno}: {node.name}({name})"
                      for i, name in defaulted
                      if not any(passed(c, i, name) for c in calls.get(node.name, ()))]
    assert count > 5
    assert knobs == []


def _callers(path: Path, name: str) -> set[str]:
    """The top-level definitions of ``path`` that call ``name``, a builtin
    such as ``print`` or a dotted name such as ``json.dump``, with
    ``<module>`` for a call outside any of them."""
    out = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if any(isinstance(n, ast.Call) and ast.unparse(n.func) == name for n in ast.walk(node)):
            out.add(getattr(node, "name", "<module>"))
    return out


def test_only_the_cli_prints_and_opens_files():
    # commands return their reports, run prints only errors, and _emit is the
    # one writer of a report to stdout; _read_json and _write are the only
    # file access, and the library opens no file
    cli = ROOT / "src/isodelaunay/cli.py"
    assert _callers(cli, "print") == {"run"}
    assert _callers(cli, "sys.stdout.write") == {"_emit"}
    assert _callers(cli, "json.dump") == set()
    assert _callers(cli, "open") == {"_read_json", "_write"}
    library = [p for p in sorted((ROOT / "src/isodelaunay").glob("*.py")) if p != cli]
    assert len(library) > 5
    assert [f"{p.name}: {n}" for p in library
            for n in ("print", "open", "json.dump", "sys.stdout.write") if _callers(p, n)] == []
