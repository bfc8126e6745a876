"""Every name imported in src/, tests/ and demos/ is read somewhere in
its module; package ``__init__`` re-exports and ``__future__`` imports
are exempt.  Every function, method and class defined in src/ is
referenced from src/, tests/, demos/ or perfbench/; dunder names are
exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items()
            if name not in read]


def test_no_unused_imports():
    files = [p for d in ("src", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 20
    assert [u for p in files for u in _unused_imports(p)] == []


def _definitions(path):
    """(name, line) of every function, method and class the file
    defines, dunder names left out."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _references(path):
    """The names a file reads: Name and Attribute loads, import aliases,
    and the parts of string constants that are dotted identifiers (how
    perfbench/tracer.py names its targets).  Docstrings and other bare
    string statements are not references."""
    tree = ast.parse(path.read_text(), str(path))
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
                if alias.asname:
                    names.add(alias.asname)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in bare
              and all(part.isidentifier() for part in node.value.split("."))):
            names.update(node.value.split("."))
    return names


def test_every_definition_in_src_is_referenced():
    referenced = set()
    for d in ("src", "tests", "demos", "perfbench"):
        for p in sorted((ROOT / d).rglob("*.py")):
            referenced |= _references(p)
    defined = [(p.relative_to(ROOT), name, line)
               for p in sorted((ROOT / "src").rglob("*.py"))
               for name, line in _definitions(p)]
    assert len(defined) > 250
    assert [f"{p}:{line} {name}" for p, name, line in defined
            if name not in referenced] == []
