"""Every name a package module imports is used in that module.

No linter is a dependency, so this reads each module's syntax tree with
the standard library.  ``__init__.py`` re-exports by importing, so it is
exempt, and so is each import in ``KEPT``, marked ``# noqa: F401`` in its
module; any other import, marked or not, must be read."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "bihooks")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")
# module -> names imported and never read: ``fock.dominance_key`` is the
# attribute the benchmark's tracer patches
KEPT = {"fock.py": {"dominance_key"}}


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
