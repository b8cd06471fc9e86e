"""Every public function and class has a caller in the program, and
every module uses each name it imports.

A name exported by ``frameparse`` counts as used when the package (its
``__init__`` aside) or the benchmark under ``perfbench/`` mentions it as
an identifier, an attribute or an exact string (the benchmark's tracer
looks functions up by name).  Helpers that only tests call are deleted
or moved into the tests, except the few kept below.
"""

import ast
import inspect
from pathlib import Path

import frameparse as fp

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    "render_grammar": "round trip of the grammar format the CLI reads",
    "render_gr_file": "round trip of the GR format the CLI reads",
    "write_treebank": "round trip of the treebank format the CLI reads",
    "collapse_classes": "the paper's fine-to-coarse frame mapping "
                        "(acceptance criterion 06)",
    "load_class_map": "reads the fine-to-coarse class map that "
                      "collapse_classes applies",
}


def _mentions(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_function_and_class_has_a_caller():
    package = ROOT / "src" / "frameparse"
    sources = [path for path in package.glob("*.py")
               if path.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").rglob("*.py"))
    mentioned = _mentions(sources)
    public = {name for name in fp.__all__
              if inspect.isfunction(getattr(fp, name))
              or inspect.isclass(getattr(fp, name))}
    assert set(KEPT) <= public
    assert public - mentioned == set(KEPT)


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    yield "%s:%d %s" % (path.name, node.lineno, name)


def test_no_module_imports_a_name_it_does_not_use():
    # The tracer wraps functions under the names their callers import, so
    # an import kept only for it would pass for a live call site.
    package = ROOT / "src" / "frameparse"
    unused = [entry for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"
              for entry in _unused_imports(path)]
    assert unused == []
