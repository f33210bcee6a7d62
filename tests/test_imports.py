"""Every name a package module imports is used in that module, every
name a package module defines is read somewhere, every parameter of a
package function or lambda but ``self`` and ``cls`` is read by its body,
every import of a package module sits outside function bodies, and every
reference to a module docstring's paragraph names one, and no two package
modules define the same module-level name.

No linter is a dependency, so this reads each module's syntax tree with
the standard library.  ``__init__.py`` re-exports by importing, so it is
exempt, and so is each import in ``KEPT``, marked ``# noqa: F401`` in its
module; any other import, marked or not, must be read.  A module-level
name counts as read when a module under ``src``, ``tests`` or
``benchmarks`` reads, imports or spells it as a string (the benchmark's
tracer names what it patches), or when ``README.md`` mentions it.  A
module-level name that only ``tests`` reads is a reference route kept
for the tests, and must be listed in ``REFERENCE`` with the reason."""

import ast
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "bihooks")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")
# module -> names imported and never read: ``fock.dominance_key`` is the
# attribute the benchmark's tracer patches
KEPT = {"fock.py": {"dominance_key"}}
# package names only the tests read -> why the package keeps them
REFERENCE = {
    "braces_transpose_label": "the second route to a conjugate family's "
                              "labels, checked against family_label",
    "graded_dimension_by_enumeration": "the enumeration route to graded "
                                       "dimensions, checked against the peel",
}


def unused_imports(source: str, kept=frozenset()) -> list[str]:
    """The names ``source`` imports and never reads, with their lines,
    but for the names in ``kept`` on lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                if name in kept and "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read(), KEPT.get(module, ())) == []


def test_unused_import_check_sees_a_leftover():
    source = ("import os\nfrom x import (\n    a, b,\n)\n"
              "from y import c  # noqa: F401\nprint(a)\n")
    assert unused_imports(source, {"c"}) == ["os (line 1)", "b (line 3)"]


def test_unlisted_noqa_import_is_reported():
    source = ("from y import c  # noqa: F401\n"
              "from z import d  # noqa: F401\n")
    assert unused_imports(source, {"c"}) == ["d (line 2)"]
    assert unused_imports(source) == ["c (line 1)", "d (line 2)"]


def defined_names(source: str) -> dict[str, int]:
    """The non-dunder names that ``source``'s top-level definitions and
    assignments bind, with their lines."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t)):
                if isinstance(name, ast.Name):
                    out[name.id] = node.lineno
    return {k: v for k, v in out.items() if not re.fullmatch("__.*__", k)}


def read_names(source: str) -> set[str]:
    """The names ``source`` loads, takes as attributes, imports or holds
    as a whole string constant."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def names_read_under(*tops: str) -> set[str]:
    """``read_names`` over every module under the given top folders."""
    read = set()
    for top in tops:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as fh:
                        read |= read_names(fh.read())
    return read


def package_names() -> list[tuple[str, int, str]]:
    """(module, line, name) for each module-level name of the package."""
    out = []
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module)) as fh:
            out += [(module, line, name)
                    for name, line in defined_names(fh.read()).items()]
    return out


def readme_words() -> set[str]:
    with open(os.path.join(ROOT, "README.md")) as fh:
        return set(re.findall(r"\w+", fh.read()))


def test_no_dead_module_level_names():
    read = readme_words() | names_read_under("src", "tests", "benchmarks")
    assert [f"{module}:{line} {name}" for module, line, name in package_names()
            if name not in read] == []


def clashing_names(names) -> list[str]:
    """Each name that more than one module defines, with every
    ``module:line`` defining it, from (module, line, name) triples."""
    where: dict[str, list[str]] = {}
    for module, line, name in names:
        where.setdefault(name, []).append(f"{module}:{line}")
    return [f"{name} ({', '.join(at)})" for name, at in sorted(where.items())
            if len({place.split(":")[0] for place in at}) > 1]


def test_no_name_is_defined_by_two_modules():
    assert clashing_names(package_names()) == []


def test_clash_check_sees_a_leftover():
    names = [("a.py", 1, "x"), ("b.py", 2, "x"), ("a.py", 3, "y"),
             ("a.py", 4, "y"), ("b.py", 5, "z")]
    assert clashing_names(names) == ["x (a.py:1, b.py:2)"]


def undeclared_test_only(names, outside: set[str], tests: set[str],
                         declared) -> list[str]:
    """The names that ``tests`` reads and ``outside`` does not, but that
    ``declared`` lacks, then the declared names that are not such."""
    test_only = {name for name in names if name in tests and name not in outside}
    return sorted(test_only - set(declared)) + sorted(set(declared) - test_only)


def test_test_only_names_are_declared():
    outside = readme_words() | names_read_under("src", "benchmarks")
    assert undeclared_test_only([name for _, _, name in package_names()],
                                outside, names_read_under("tests"),
                                REFERENCE) == []


def test_test_only_check_sees_a_leftover():
    names, outside, tests = ["a", "b", "c", "d"], {"a"}, {"a", "b", "c"}
    assert undeclared_test_only(names, outside, tests, {"b": ""}) == ["c"]
    assert undeclared_test_only(names, outside, tests, {"b", "c", "d"}) == ["d"]


def test_dead_name_check_sees_a_leftover():
    source = ("A: int = 1\nB, (C, __all__) = 2, (3, ())\n"
              "def f():\n    return A\nclass K:\n    D = 4\n")
    assert defined_names(source) == {"A": 1, "B": 2, "C": 2, "f": 3, "K": 5}
    assert read_names(source) & {"A", "B", "C", "D", "f", "K"} == {"A"}
    assert {"g", "h", "i", "j"} <= read_names(
        "from m import g\nimport n.h\nx.i\nt = ('j',)\n")


def unused_parameters(source: str) -> list[str]:
    """The parameters of each function and lambda in ``source``, but
    ``self`` and ``cls``, that its body never reads (a nested function's
    read counts), with their lines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a for a in args.posonlyargs + args.args + [args.vararg]
                  + args.kwonlyargs + [args.kwarg] if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        name = getattr(node, "name", "lambda")
        out += [(node.lineno, f"{name}:{node.lineno} {a.arg}") for a in params
                if a.arg not in read | {"self", "cls"}]
    return [text for _, text in sorted(out, key=lambda item: item[0])]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_unused_parameters(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_parameters(fh.read()) == []


def test_unused_parameter_check_sees_a_leftover():
    source = ("class K:\n    def m(self, a, *rest, b=0, **kw):\n"
              "        def inner():\n            return a + kw\n"
              "        return inner\n"
              "f = lambda x, e: x\n"
              "def g(cls, y):\n    return 1\n")
    assert unused_parameters(source) == [
        "m:2 rest", "m:2 b", "lambda:6 e", "g:7 y"]


def imports_inside_functions(source: str) -> list[int]:
    """The lines of the imports in ``source`` that sit in a function body,
    at any depth."""
    tree = ast.parse(source)
    return sorted({inner.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_imports_inside_functions(module):
    with open(os.path.join(SRC, module)) as fh:
        assert imports_inside_functions(fh.read()) == []


def test_function_import_check_sees_a_leftover():
    source = ("import os\nclass K:\n    from m import a\n"
              "    def f(self):\n        import b\n"
              "        def g():\n            from c import d\n"
              "        return g\n")
    assert imports_inside_functions(source) == [5, 7]


def stale_paragraph_references(text: str, module: str | None,
                               docstrings: dict[str, str]) -> list[str]:
    """The references in ``text`` that name no paragraph of a module
    docstring opening with their title and a full stop, as (module,
    title).  A reference reads ``module docstring, "Title"``, for the
    docstring of ``module``, or the same after a module name m in single
    backticks, for that of m.py.  Whitespace, wrapped lines and the ``#``
    opening a wrapped comment line count as one space."""
    flat = re.sub(r"\s*\n\s*#?\s*", " ", text)
    out = []
    for named, title in re.findall(r'(?:`(\w+)` )?module docstring, "([^"]+)"',
                                   flat):
        owner = f"{named}.py" if named else module
        paragraphs = docstrings.get(owner, "").split("\n\n")
        if not any(para.startswith(f"{title}.") for para in paragraphs):
            out.append(f"{owner}, {title!r}")
    return out


def module_docstrings() -> dict[str, str]:
    out = {}
    for module in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, module)) as fh:
            out[module] = ast.get_docstring(ast.parse(fh.read())) or ""
    return out


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_docstring_references_name_a_paragraph(module):
    with open(os.path.join(SRC, module)) as fh:
        source = fh.read()
    assert stale_paragraph_references(source, module, module_docstrings()) == []


def test_readme_docstring_references_name_a_paragraph():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    assert stale_paragraph_references(text, None, module_docstrings()) == []


def test_docstring_reference_check_sees_a_leftover():
    docstrings = {"m.py": "Title.\n\nKept rows.  About.\n\nTwo.  More."}
    source = ('x = 1  # (module docstring, "Two"), (module\n'
              '# docstring, "Kept\n    # rows") and (module docstring, "Gone")\n')
    assert stale_paragraph_references(source, "m.py", docstrings) == [
        "m.py, 'Gone'"]
    readme = ('(`m` module docstring, "Kept\nrows"), (`m` module docstring,\n'
              '"Conjugate\nrows") and (module docstring, "Two")\n')
    assert stale_paragraph_references(readme, None, docstrings) == [
        "m.py, 'Conjugate rows'", "None, 'Two'"]
