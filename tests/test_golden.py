"""Every report the CLI prints, byte for byte.

Each case runs one command on one input and compares its stdout with the file
under `tests/data/golden/<input>/` that the command printed when the file was
written.  The inputs are listing 1 (with the workflow demo for `workflow run`)
and a 200-image corpus of `bench/gen.py` at seed 11, which has exact
duplicates, degenerate boxes, empty images and filenames that need escaping.

To rewrite the files after a deliberate change of a report, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from vrannot.cli import main
from vrannot.corpus import METRICS

from helpers import DATA_DIR, DEMO_DIR, LISTING_DIR

GOLDEN_DIR = DATA_DIR / "golden"
GEN_PATH = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
CORPUS_NAMES = ("annotations.json", "classes.json", "predicates.json")
FORMATS = {"text": "txt", "structured": "json"}


def _gen():
    """`bench/gen.py`, imported by its path (its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN_PATH)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def make_inputs(root: Path) -> dict[str, dict]:
    """Per input, the files its commands read: `corpus` (three paths), `after`
    (the corpus `diff` compares it with), `script` for `apply` and `config`
    for `workflow run`; writes what is not a checked-in file under `root`."""
    listing, demo, generated = root / "listing_1", root / "workflow_demo", root / "generated"
    shutil.copytree(LISTING_DIR, listing)
    shutil.copytree(DEMO_DIR, demo, ignore=shutil.ignore_patterns("expected_*", "out"))
    generated.mkdir()
    gen = _gen()
    rng = random.Random(11)
    corpus = gen.make_corpus(rng, 200)
    names = corpus.write(generated)
    files = {f"{io}_{side}": (name if io == "input" else f"out/{name}")
             for io in ("input", "output") for side, name in zip(("annotations", "classes", "predicates"), names)}
    curation = gen.make_curation(rng, corpus, files)
    for name, text in curation.scripts.items():
        (generated / name).write_text(text, encoding="utf-8")
    (generated / "config.json").write_text(json.dumps(curation.config, indent=2), encoding="utf-8")
    after = curation.states[-1].write(generated, "final_")
    corpus_files = [listing / name for name in CORPUS_NAMES]
    return {
        "listing_1": {
            "corpus": corpus_files,
            "after": [listing / "expected_annotations.json", *corpus_files[1:]],
            "script": listing / "script.txt",
            "config": demo / "config.json",
        },
        "generated": {
            "corpus": [generated / name for name in names],
            "after": [generated / name for name in after],
            "script": generated / "proto_a.txt",
            "config": generated / "config.json",
        },
    }


def _corpus_args(paths) -> list[str]:
    return [arg for flag, path in zip(("--annotations", "--classes", "--predicates"), paths)
            for arg in (flag, str(path))]


def cases(files: dict, out: Path) -> dict[str, list[str]]:
    """Golden file name -> argv of one input; `out` is where `apply` writes."""
    corpus = _corpus_args(files["corpus"])
    first_class = json.loads(Path(files["corpus"][1]).read_text(encoding="utf-8"))[0]
    reports = {
        "stats": ["stats"],
        **{f"stats_{metric}": ["stats", "--distribution", metric] for metric in METRICS},
        "query_bound": ["query", "--pattern", f"{first_class}, *, *"],
        "query_wildcards": ["query", "--pattern", "*, *, *"],
        "query_count": ["query", "--count", "7..8"],
        "lint": ["lint"],
    }
    argvs = {f"{name}.{suffix}": [*argv, *corpus, "--format", form]
             for name, argv in reports.items() for form, suffix in FORMATS.items()}
    argvs.update({f"diff.{suffix}": ["diff", *map(str, files["corpus"]), *map(str, files["after"]),
                                     "--format", form] for form, suffix in FORMATS.items()})
    argvs["apply.txt"] = ["apply", str(files["script"]), *corpus, "--out", str(out / "applied.json")]
    argvs["workflow_run.txt"] = ["workflow", "run", str(files["config"])]
    return argvs


SOURCES = ("listing_1", "generated")
GOLDEN = [(path.parent.name, path.name) for path in sorted(GOLDEN_DIR.glob("*/*"))]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("source", SOURCES)
def test_every_case_has_a_golden_file(inputs, tmp_path, source):
    assert sorted(cases(inputs[source], tmp_path)) == sorted(name for s, name in GOLDEN if s == source)


@pytest.mark.parametrize(("source", "name"), GOLDEN, ids=[f"{s}/{n}" for s, n in GOLDEN])
def test_report_bytes(inputs, tmp_path, capsysbinary, source, name):
    code = main(cases(inputs[source], tmp_path)[name])
    assert code == 0
    assert capsysbinary.readouterr().out == (GOLDEN_DIR / source / name).read_bytes()


def write_golden(root: Path) -> None:
    """Rewrite every golden file with the stdout of its command, run on the current code."""
    for source, files in make_inputs(root).items():
        (GOLDEN_DIR / source).mkdir(parents=True, exist_ok=True)
        for name, argv in cases(files, root).items():
            buffer = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"exit {code}: {argv}")
            buffer.flush()
            (GOLDEN_DIR / source / name).write_bytes(buffer.buffer.getvalue())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_golden(Path(scratch))
