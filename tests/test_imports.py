"""Every module of the package uses each name it imports, reads each private
name it defines somewhere, and the package imports each module only when it
is used.

A deleted function leaves its imports behind in the modules that called it,
and a deleted caller leaves its private helpers behind; these checks find
them.  `__init__.py` re-exports the public names through a
lazy table, which is checked against the modules it names; a command loads
only the modules it runs.
"""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vrannot

from helpers import LISTING_DIR

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


# --------------------------------------------------------------------------
# the lazy re-export table of `vrannot/__init__.py`
# --------------------------------------------------------------------------

# The public names of the package, as they were when the table was introduced.
PUBLIC_NAMES = [
    "Histogram", "LintFinding", "LintRule", "QueryResult", "VRPattern", "distribution",
    "images_with_vr_count", "iou", "lint", "parse_pattern", "query_images", "render_overlay",
    "AnnotatedObject", "AnnotationCorpus", "BoundingBox", "CorpusDiff", "CorpusStats",
    "ImageDelta", "VisualRelationship", "compute_stats", "diff_corpora", "find_exact_duplicates",
    "load_corpus", "load_master_list", "save_corpus",
    "AmbiguousClassError", "ApplyError", "ConfigError", "ParseError", "StepFailedError",
    "UnknownNameError", "VrannotError",
    "GraphStore", "Iri", "Schema", "Triple", "default_schema", "dump_store",
    "extract_annotations", "load_schema", "load_store", "lower_annotations", "materialize",
    "read_dump",
    "ImageBlock", "Instruction", "InstructionKind", "NewVRSpec", "parse_script",
    "render_script", "validate_and_apply",
    "WorkflowConfig", "WorkflowReport", "load_workflow_config", "run_workflow",
    "run_workflow_files",
]


def export_table(init_source: str) -> dict[str, tuple[str, ...]]:
    """The `_HOMES` table (home module -> names) of an `__init__.py`, read without running it."""
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_HOMES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no _HOMES table")


def module_names(source: str) -> set[str]:
    """The names a module binds at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
    return names


def missing_exports(init_source: str, read_module) -> list[str]:
    """`module.name` for each name of the table that its home module does not define."""
    return [f"{module}.{name}" for module, names in export_table(init_source).items()
            for name in names if name not in module_names(read_module(module))]


def test_the_check_finds_a_name_missing_from_its_home():
    init = "_HOMES = {'a': ('f', 'C', 'X', 'gone'), 'b': ('g', 'y')}\n"
    sources = {"a": "def f(): pass\nclass C: pass\nX: int = 1\n",
               "b": "from .a import f as g\nx, (y, z) = 1, (2, 3)\n"}
    assert missing_exports(init, sources.__getitem__) == ["a.gone"]


def test_every_exported_name_is_defined_in_its_home_module():
    def read(module):
        return (PACKAGE / f"{module}.py").read_text(encoding="utf-8")

    assert missing_exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"), read) == []


def test_all_is_the_frozen_list_of_public_names():
    assert sorted(vrannot.__all__) == sorted(PUBLIC_NAMES)
    assert len(vrannot.__all__) == len(set(vrannot.__all__))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"vrannot.{vrannot._HOME[name]}")
    assert getattr(vrannot, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from vrannot import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(vrannot, name) for name in PUBLIC_NAMES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'vrannot' has no attribute 'nope'"):
        vrannot.nope  # noqa: B018
    assert not hasattr(vrannot, "_private")
    with pytest.raises(ImportError):
        exec("from vrannot import nope", {})


# --------------------------------------------------------------------------
# private names: each one some module of the package reads
# --------------------------------------------------------------------------


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each private name (`_f`, `_C`, `_X`; no dunder) that a
    module binds at its top level and no module reads: as a loaded name, as an
    attribute, or by a `from` import (which also reads each name it binds)."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}.{name}" for module, source in sources.items()
            for name in sorted(module_names(source))
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_finds_an_unread_private_name():
    sources = {"a": "def _f(): pass\nclass _C: pass\n_X = _Y = 1\n__all__ = []\ndef g(): pass\n_T: int = 2\n",
               "b": "from .a import _f\nimport a\na._X\nprint(_T)\n_T = 3\n"}
    assert unread_private_names(sources) == ["a._C", "a._Y"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


# --------------------------------------------------------------------------
# start-up: a command imports only the modules it runs
# --------------------------------------------------------------------------

SRC = PACKAGE.parent
COMMON = ["vrannot", "vrannot.cli", "vrannot.corpus", "vrannot.errors"]

LOADED = """
import sys
{code}
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("vrannot", "dataclasses", "decimal"))))
"""


def loaded_after(code: str) -> list[str]:
    """The vrannot, dataclasses and decimal modules loaded in a fresh interpreter after `code`."""
    result = subprocess.run(
        [sys.executable, "-c", LOADED.format(code=code)], capture_output=True, text=True,
        encoding="utf-8", env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=True,
    )
    return result.stdout.split()


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import vrannot") == ["vrannot"]
    # a submodule or a name loads its home module, and what that imports
    assert loaded_after("import vrannot\nvrannot.kg.GraphStore") == [
        "vrannot", "vrannot.corpus", "vrannot.errors", "vrannot.kg"]
    assert loaded_after("from vrannot import parse_pattern") == [
        "vrannot", "vrannot.analyze", "vrannot.corpus", "vrannot.errors"]


def test_importing_the_cli_loads_only_the_common_modules():
    assert loaded_after("import vrannot.cli") == COMMON


@pytest.mark.parametrize("argv,added", [
    (["validate"], []),
    (["stats"], []),
    (["stats", "--distribution", "vrs_per_image"], ["vrannot.analyze"]),
    (["query", "--pattern", "*,*,*"], ["vrannot.analyze"]),
    (["query", "--count", "1.."], ["vrannot.analyze"]),
    (["lint"], ["vrannot.analyze"]),
], ids=["validate", "stats", "stats-distribution", "query", "query-count", "lint"])
def test_a_read_only_command_adds_at_most_analyze(argv, added):
    corpus = [f"--annotations={LISTING_DIR / 'annotations.json'}",
              f"--classes={LISTING_DIR / 'classes.json'}", f"--predicates={LISTING_DIR / 'predicates.json'}"]
    code = ("import contextlib, io, vrannot.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert vrannot.cli.main({[*argv, *corpus]!r}) == 0")
    assert loaded_after(code) == sorted([*COMMON, *added])


KG = ["vrannot.kg"]
SCRIPTED = ["vrannot.protocol"]
WORKFLOW = ["vrannot.protocol", "vrannot.workflow"]
CORPUS = ["--annotations={L}/annotations.json", "--classes={L}/classes.json",
          "--predicates={L}/predicates.json"]


@pytest.mark.parametrize("argv,added", [
    (["apply", "{L}/script.txt", *CORPUS, "--out", "{T}/applied.json"], SCRIPTED),
    (["workflow", "run", "{T}/workflow_demo/config.json"], WORKFLOW),
    (["kg", "lower", *CORPUS, "--out", "{T}/lowered.nt"], KG),
    (["kg", "materialize", "{T}/graph.nt", "--schema", "{T}/axioms.txt", "--out", "{T}/closed.nt"], KG),
    (["kg", "extract", "{T}/graph.nt", *CORPUS[1:], "--out", "{T}/extracted.json"], KG),
    (["diff", *[arg.split("=")[1] for arg in CORPUS] * 2], []),
    (["overlay", *CORPUS, "--image", "{image}", "--out", "{T}/overlay.svg"], ["vrannot.analyze"]),
], ids=["apply", "workflow-run", "kg-lower", "kg-materialize", "kg-extract", "diff", "overlay"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, added):
    """No command loads `dataclasses` or `decimal`; each adds only its handler's modules."""
    from vrannot import kg
    from vrannot.corpus import load_corpus

    corpus = load_corpus(*(LISTING_DIR / f"{name}.json" for name in ("annotations", "classes", "predicates")))
    dump = kg.dump_store(kg.lower_annotations(corpus, kg.default_schema(corpus)))
    (tmp_path / "graph.nt").write_bytes(dump.encode())
    (tmp_path / "axioms.txt").write_text("prop near\nsymmetric near\n", encoding="utf-8")
    shutil.copytree(LISTING_DIR.parent / "workflow_demo", tmp_path / "workflow_demo")
    args = [arg.format(L=LISTING_DIR, T=tmp_path, image=next(iter(corpus.images))) for arg in argv]
    code = ("import contextlib, io, vrannot.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert vrannot.cli.main({args!r}) == 0")
    assert loaded_after(code) == sorted([*COMMON, *added])
