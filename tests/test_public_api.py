"""Every public function and class, and every public method and
property of an exported class, has a caller in the program, and every
module uses each name it imports.

A function or class counts as used when the package (its ``__init__``
aside) or the benchmark under ``perfbench/`` mentions it as an
identifier, an attribute or an exact string (the benchmark's tracer
looks functions up by name); a method or property only when they
mention it as an attribute (``x.name``), since a local variable or a
string of the same name calls nothing.  Helpers that only tests call
are deleted or moved into the tests, except the few kept below.  A
parameter with a default, of a public function or method written with
``def``, must be passed by some call in the program: an option that
only tests set is a second code path with no user.
"""

import ast
import inspect
import re
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
    """The identifiers and strings ``paths`` mention, and the attributes."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names | attributes, attributes


def test_every_public_function_and_class_has_a_caller():
    package = ROOT / "src" / "frameparse"
    sources = [path for path in package.glob("*.py")
               if path.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").rglob("*.py"))
    mentioned, attributes = _mentions(sources)
    assert not [name for name in fp.__all__
                if inspect.ismodule(getattr(fp, name))]
    public = {name for name in fp.__all__
              if inspect.isfunction(getattr(fp, name))
              or inspect.isclass(getattr(fp, name))}
    methods = {f"{name}.{attr}"
               for name in public if inspect.isclass(getattr(fp, name))
               for attr, value in vars(getattr(fp, name)).items()
               if not attr.startswith("_")
               and (inspect.isfunction(value) or isinstance(value, property))}
    assert set(KEPT) <= public
    assert ({name for name in public if name not in mentioned}
            | {name for name in methods
               if name.rsplit(".", 1)[-1] not in attributes}) == set(KEPT)


def _program_calls():
    """Per callee name (``f(...)`` or ``x.f(...)``), the call sites in
    the package and the benchmark, each as the number of positional
    arguments (None after a ``*`` argument) and the keywords (None
    after a ``**`` argument)."""
    calls = {}
    paths = sorted((ROOT / "src" / "frameparse").glob("*.py"))
    paths += sorted((ROOT / "perfbench").rglob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (None if starred else len(node.args),
                 None if None in keywords else keywords))
    return calls


def _public_defs():
    """(call name, qualified name, function, leading bound arguments)
    for every public function, and every public method or ``__init__``
    of an exported class, written with ``def``."""
    for name in fp.__all__:
        value = getattr(fp, name)
        if inspect.isfunction(value):
            yield name, name, value, 0
        elif inspect.isclass(value):
            for attr, method in vars(value).items():
                # a dataclass's generated __init__ has no source file
                if not inspect.isfunction(method) \
                        or method.__code__.co_filename == "<string>":
                    continue
                if attr == "__init__":
                    yield name, f"{name}.__init__", method, 1
                elif not attr.startswith("_"):
                    yield attr, f"{name}.{attr}", method, 1


def test_every_defaulted_parameter_is_passed_by_the_program():
    calls = _program_calls()
    unpassed = []
    for call_name, qualname, function, bound in _public_defs():
        sites = calls.get(call_name, [])
        params = list(inspect.signature(function).parameters.values())[bound:]
        for index, param in enumerate(params):
            if param.default is inspect.Parameter.empty \
                    or param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                continue
            positional = param.kind == param.POSITIONAL_OR_KEYWORD
            if not any((positional and (count is None or count > index))
                       or keywords is None or param.name in keywords
                       for count, keywords in sites):
                unpassed.append(f"{qualname}({param.name}=)")
    assert unpassed == []


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


def test_value_equality_is_written_once():
    # Records compare and hash by a key through one base class; a class
    # that writes its own pair is a copy of it.
    defined = set()
    for path in sorted((ROOT / "src" / "frameparse").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                defined |= {(path.name, node.name, item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and item.name in ("__eq__", "__hash__")}
    assert defined == {("grammar.py", "_Value", "__eq__"),
                       ("grammar.py", "_Value", "__hash__")}


def test_readme_api_session_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [session] = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(session, "README.md", "exec"), {})
    tree, *relations = capsys.readouterr().out.splitlines()
    assert tree == ("(S (NP (pn Paul)) (VP (v intends) (VPto (to to) "
                    "(VP (v leave) (NP (pn IBM))))))")
    assert relations == ["dobj(leave,IBM,_)", "ncsubj(intend,Paul,_)",
                         "ncsubj(leave,Paul,_)", "xcomp(to,intend,leave)"]
    assert all(f"`{relation}`" in readme for relation in relations)
