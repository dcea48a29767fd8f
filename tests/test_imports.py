"""Every module of the package uses each name it imports.

A deleted function leaves its imports behind in the modules that called it;
this check finds them.  `__init__.py` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

import vrannot

PACKAGE = Path(vrannot.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of a module that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    notes = [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    notes += [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    # a quoted annotation such as "kg.Schema" reads the names in it
    quoted = [ast.parse(note.value, mode="eval") for note in notes
              if isinstance(note, ast.Constant) and isinstance(note.value, str)]
    used = {node.id for part in (tree, *quoted) for node in ast.walk(part) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport re as regex\nfrom a.b import c, d\nfrom . import e\nd(os)\n"
    assert unused_imports(source) == ["line 2: regex", "line 3: c", "line 4: e"]
    assert unused_imports("import os.path\nimport typing\nos.path.join\nx: 'typing.Any'\n") == []
    assert unused_imports("import re\ndef f() -> 're.Match': return 're'\n") == []
    assert unused_imports("import re\nx = 're'\n") == ["line 1: re"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
