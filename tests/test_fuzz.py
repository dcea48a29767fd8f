"""Seeded CLI fuzz: every command on mutated inputs, each in a fresh process.

Each case copies the listing-1 corpus, its script, a workflow config, an
axiom file and a lowered dump into its own directory, applies one mutation
to one input and runs one command.  Whatever the input, the command must end
in a documented exit code without a traceback, and a failed command must
leave every output as it was: absent, or byte-identical to before.  A
missing input must end in exit code 4 and `error: file not found: <path>`,
and `kg extract` on a dump with one subject moved under another namespace
in exit code 3 and a message naming that subject.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import vrannot
from vrannot import kg
from vrannot.corpus import load_corpus

from helpers import LISTING_DIR

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}  # docs/formats.md, "Exit codes"
SRC = Path(vrannot.__file__).resolve().parent.parent

CORPUS = {"A": "annotations.json", "C": "classes.json", "P": "predicates.json"}
INPUTS = {**CORPUS, "S": "script.txt", "W": "config.json", "X": "axioms.txt", "G": "graph.nt"}
JSON_INPUTS = {"A", "C", "P", "W"}
IMAGE = "1426904233_ee344879b6_b.jpg"
CORPUS_ARGS = ["--annotations", "in/annotations.json", "--classes", "in/classes.json",
               "--predicates", "in/predicates.json"]

# name -> (argv, inputs it reads, outputs it writes); paths relative to the case directory
COMMANDS = {
    "validate": (["validate", *CORPUS_ARGS], "ACP", []),
    "stats": (["stats", *CORPUS_ARGS, "--format", "structured"], "ACP", []),
    "stats-distribution": (["stats", *CORPUS_ARGS, "--distribution", "vrs_per_image"], "A", []),
    "query-pattern": (["query", *CORPUS_ARGS, "--pattern", "*, *, *"], "ACP", []),
    "query-count": (["query", *CORPUS_ARGS, "--count", "1.."], "A", []),
    "lint": (["lint", *CORPUS_ARGS, "--strict"], "ACP", []),
    "overlay": (["overlay", *CORPUS_ARGS, "--image", IMAGE, "--out", "out/o.svg"], "ACP",
                ["out/o.svg"]),
    "apply": (["apply", "in/script.txt", *CORPUS_ARGS, "--out", "out/a.json"], "SACP",
              ["out/a.json"]),
    "workflow-run": (["workflow", "run", "in/config.json"], "WAS",
                     ["out/annotations.json", "out/classes.json", "out/predicates.json"]),
    "kg-lower": (["kg", "lower", *CORPUS_ARGS, "--schema", "in/axioms.txt", "--out", "out/g.nt"],
                 "ACPX", ["out/g.nt"]),
    "kg-materialize": (["kg", "materialize", "in/graph.nt", "--schema", "in/axioms.txt",
                        "--out", "out/closed.nt"], "GX", ["out/closed.nt"]),
    "kg-extract": (["kg", "extract", "in/graph.nt", "--schema", "in/axioms.txt",
                    "--classes", "in/classes.json", "--predicates", "in/predicates.json",
                    "--out", "out/e.json"], "GXCP", ["out/e.json"]),
    "diff": (["diff", *(f"in/{name}" for name in CORPUS.values()),
              *(f"in/{name}" for name in CORPUS.values())], "AC", []),
}


def _insert(data: bytes, rng: random.Random, chunk: bytes) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + chunk + data[at:]


def _flip(data, rng, kind):
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def _truncate(data, rng, kind):
    return data[: rng.randrange(len(data))]


def _nest(data, rng, kind):
    return _insert(data, rng, b"[" * 100_000)


def _in_a_string(char: str):
    """A mutation that writes `char` as a JSON escape right after an opening
    quote of a JSON input, and as itself anywhere in any other input."""
    def mutate(data, rng, kind):
        if kind in JSON_INPUTS:
            opening = [m.start() for m in re.finditer(rb'"', data)][::2]
            at = rng.choice(opening) + 1
            return data[:at] + b"\\u%04x" % ord(char) + data[at:]
        return _insert(data, rng, char.encode("utf-8", "surrogatepass"))
    return mutate


def _huge_int(data, rng, kind):
    digits = list(re.finditer(rb"\d+", data))
    if digits:
        run = rng.choice(digits)
        return data[: run.start()] + b"9" * 5000 + data[run.end():]
    if kind in JSON_INPUTS:  # a master list: a new first entry
        return data.replace(b"[", b"[" + b"9" * 5000 + b",", 1)
    return _insert(data, rng, b"9" * 5000)


def _non_utf8(data, rng, kind):
    return _insert(data, rng, rng.choice([b"\xff", b"\xc3(", b"\x80", b"\xf4\x90\x80\x80"]))


FOREIGN = b"http://other/ns#"


def _foreign_namespace(data, rng, kind):
    """In a dump, moves the subject of one line under another namespace."""
    if kind != "G":
        return _insert(data, rng, FOREIGN)
    lines = data.split(b"\n")
    at = rng.randrange(len(lines) - 1)  # the last line is empty
    lines[at] = lines[at].replace(kg.DEFAULT_NAMESPACE.encode(), FOREIGN, 1)
    return b"\n".join(lines)


MUTATIONS = {
    "flip": _flip,
    "truncate": _truncate,
    "nest": _nest,
    "surrogate": _in_a_string("\ud800"),
    "huge-int": _huge_int,
    "non-utf8": _non_utf8,
    "directory": None,  # the input path names a directory
    "nul": _in_a_string("\x00"),
    "missing": None,  # the input is not written
    "foreign-namespace": _foreign_namespace,
}
UNMADE = "out/new/deeper/"  # where the unmade_dir case writes every output


def _cases(command: str):
    """Each mutation hits each script, config, axiom file and dump the command
    reads, and one corpus file, rotating over them from command to command.
    A writing command also meets a directory in place of an output, and
    writes every output under a directory that does not exist yet."""
    _, inputs, outputs = COMMANDS[command]
    corpus = [kind for kind in inputs if kind in CORPUS]
    offset = list(COMMANDS).index(command)
    cases = []
    for i, mutation in enumerate(MUTATIONS):
        targets = [kind for kind in inputs if kind not in CORPUS]
        targets += [corpus[(offset + i) % len(corpus)]] if corpus else []
        cases += [(mutation, target, None) for target in targets]
    cases += [("output-directory", None, output) for output in outputs[-1:]]
    cases += [("unmade_dir", None, None)] if outputs else []
    return cases


@pytest.fixture(scope="module")
def originals(tmp_path_factory) -> dict[str, bytes]:
    """The unmutated inputs: listing 1, a workflow config over it, an axiom
    file with rules that join, and the dump `kg lower` writes for it."""
    files = {kind: (LISTING_DIR / name).read_bytes() for kind, name in CORPUS.items()}
    files["S"] = (LISTING_DIR / "script.txt").read_bytes()
    config = {f"input_{key}": f"{key}.json" for key in ("annotations", "classes", "predicates")}
    config.update({f"output_{key}": f"../out/{key}.json"
                   for key in ("annotations", "classes", "predicates")})
    config["steps"] = [
        {"kind": "apply_protocol_file", "path": "script.txt"},
        {"kind": "merge_predicate", "from": "near", "to": "beside"},
        {"kind": "dedup_vrs"},
    ]
    files["W"] = json.dumps(config, indent=2).encode()
    corpus = load_corpus(*(LISTING_DIR / name for name in CORPUS.values()))
    schema = kg.default_schema(corpus)
    lines = [f"class {term}" for term in sorted(schema.classes)]
    lines += [f"prop {term}" for term in sorted(schema.properties)]
    lines += [f"annclass {name} {term}" for name, term in schema.ann_classes.items()]
    lines += [f"annprop {name} {term}" for name, term in schema.ann_properties.items()]
    lines += ["symmetric beside", "inverse on under", "transitive on", "subclass TeddyBear Bear"]
    files["X"] = ("\n".join(lines) + "\n").encode()
    axioms = tmp_path_factory.mktemp("axioms") / "axioms.txt"
    axioms.write_bytes(files["X"])
    files["G"] = kg.dump_store(kg.lower_annotations(corpus, kg.load_schema(axioms))).encode()
    return files


def _state(path: Path):
    if path.is_dir():
        return ("directory", sorted(os.listdir(path)))
    return path.read_bytes() if path.exists() else None


def _run_case(case_dir: Path, originals, command, case) -> str | None:
    """Prepare, run and check one case; a description of what broke, or None."""
    mutation, target, output_dir = case
    argv, _, outputs = COMMANDS[command]
    rng = random.Random(f"{command}/{mutation}/{target}")
    (case_dir / "in").mkdir(parents=True)
    (case_dir / "out").mkdir()
    for kind, data in originals.items():
        path = case_dir / "in" / INPUTS[kind]
        if kind != target:
            path.write_bytes(data)
        elif mutation == "directory":
            path.mkdir()
        elif mutation != "missing":
            path.write_bytes(MUTATIONS[mutation](data, rng, kind))
    for output in outputs:  # some outputs exist beforehand, some do not
        if output == output_dir:
            (case_dir / output).mkdir()
        elif rng.random() < 0.5:
            (case_dir / output).write_bytes(b"previous " + output.encode() + b"\n")
    before = {output: _state(case_dir / output) for output in outputs}
    listing = sorted(os.listdir(case_dir / "out"))

    def vrannot(argv):
        return subprocess.run(
            [sys.executable, "-m", "vrannot.cli", *argv], cwd=case_dir,
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=120,
        )

    problems = []
    if mutation != "unmade_dir":
        result = vrannot(argv)
    else:  # the same run twice: under an unmade directory, then into the existing one
        config = case_dir / "in" / INPUTS["W"]
        config.write_bytes(originals["W"].replace(b'"../out/', b'"../' + UNMADE.encode()))
        result = vrannot([arg.replace("out/", UNMADE, 1) for arg in argv])
        config.write_bytes(originals["W"])
        reference = vrannot(argv)
        made = [_state(case_dir / output.replace("out/", UNMADE, 1)) for output in outputs]
        existing = [_state(case_dir / output) for output in outputs]
        if (result.returncode, result.stdout, made) != (0, reference.stdout, existing):
            problems.append("other outputs under an unmade directory than in an existing one")
    if result.returncode not in DOCUMENTED_EXIT_CODES:
        problems.append(f"exit code {result.returncode}")
    if b"Traceback" in result.stderr:
        problems.append("a traceback on stderr")
    if result.returncode != 0:
        changed = [o for o in outputs if _state(case_dir / o) != before[o]]
        if changed or sorted(os.listdir(case_dir / "out")) != listing:
            problems.append(f"outputs changed: {changed or sorted(os.listdir(case_dir / 'out'))}")
    if mutation == "missing":  # a workflow step puts its ordinal and kind before the cause
        expected = rb"error: (step \d+ \(\w+\) failed: )?file not found: %s\n" % re.escape(
            f"in/{INPUTS[target]}".encode())
        if result.returncode != 4 or not re.fullmatch(expected, result.stderr):
            problems.append(f"exit code {result.returncode} and another message for a missing input")
    if (command, mutation, target) == ("kg-extract", "foreign-namespace", "G"):
        expected = rb"error: subject %s\S+ is not under namespace %s\n" % (
            re.escape(FOREIGN), re.escape(repr(kg.DEFAULT_NAMESPACE).encode()))
        if result.returncode != 3 or not re.fullmatch(expected, result.stderr):
            problems.append(f"exit code {result.returncode} and another message for a foreign one")
    if output_dir is not None and result.returncode != 4:
        problems.append(f"exit code {result.returncode} for a directory as output")
    if mutation is None and (result.returncode not in (0, 1)
                             or not all((case_dir / o).is_file() for o in outputs)):
        problems.append("the unmutated inputs fail")
    if not problems:
        shutil.rmtree(case_dir)
        return None
    tail = result.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
    return f"{command} {case}: {', '.join(problems)}; stderr ends {tail}"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_inputs_end_in_a_documented_exit_code(tmp_path, originals, command):
    cases = [(None, None, None), *_cases(command)]  # first the unmutated inputs
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_run_case, tmp_path / str(i), originals, command, case)
                   for i, case in enumerate(cases)]
        problems = [future.result() for future in futures]
    assert [p for p in problems if p] == []

