import argparse
import errno
import gc
import json
import os
import random
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import vrannot
import vrannot.cli
from vrannot import analyze, kg
from vrannot.cli import _parse_count, build_parser, main
from vrannot.corpus import (AnnotationCorpus, canonical_annotations_bytes, diff_corpora, load_corpus,
                            save_corpus)
from vrannot.errors import ConfigError, MalformedGraphError, ParseError
from vrannot.kg import load_store, read_dump
from vrannot.protocol import parse_script

from helpers import DEMO_DIR, LISTING_DIR, load_listing_corpus, load_listing_expected, random_corpus
from test_corpus import repeating_corpus, vr_record, write_corpus_bytes, write_corpus_files
from test_dump_io import IRI_REFUSED, IRI_REFUSED_IDS

pytestmark = pytest.mark.usefixtures("capsys")

OUTPUT_NAMES = ("annotations.json", "classes.json", "predicates.json")


def corpus_args(directory=LISTING_DIR):
    return [
        "--annotations", str(directory / "annotations.json"),
        "--classes", str(directory / "classes.json"),
        "--predicates", str(directory / "predicates.json"),
    ]


def load_file(path):
    with read_dump(path) as lines:
        return load_store(lines)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys):
        code, out, err = run(capsys, "validate", *corpus_args())
        assert code == 0
        assert out == "ok: 5 images, 26 relationships\n"
        assert err == ""

    def test_missing_file(self, capsys, tmp_path):
        args = corpus_args()
        args[1] = str(tmp_path / "absent.json")
        code, out, err = run(capsys, "validate", *args)
        assert code == 4
        assert err.startswith("error:")

    def test_malformed_data(self, capsys, tmp_path):
        bad = tmp_path / "annotations.json"
        bad.write_text('{"x.jpg": [{"wrong": 1}]}', encoding="utf-8")
        args = corpus_args()
        args[1] = str(bad)
        code, out, err = run(capsys, "validate", *args)
        assert code == 3
        assert err.startswith("error:")

    def test_duplicate_key_names_file(self, capsys, tmp_path):
        bad = tmp_path / "annotations.json"
        text = (LISTING_DIR / "annotations.json").read_text(encoding="utf-8")
        bad.write_text(text.replace('{"predicate": 3,', '{"predicate": 3, "predicate": 3,', 1),
                       encoding="utf-8")
        args = corpus_args()
        args[1] = str(bad)
        code, out, err = run(capsys, "validate", *args)
        assert code == 3
        assert out == ""
        assert err == f"error: {bad}: duplicate key 'predicate'\n"

    @pytest.mark.parametrize(
        "position,text,reason",
        [
            (1, "[" * 200_000, "nested too deeply"),
            (3, "[" * 200_000, "nested too deeply"),
            (5, "[" * 200_000, "nested too deeply"),
            (1, '{"\\ud800.jpg": []}', "image key '\\ud800.jpg' is not valid Unicode"),
            (5, '["on", "\\udc00"]', "predicate name '\\udc00' is not valid Unicode"),
            (1, "[" + "9" * 5000 + "]", "integer literal has too many digits"),
        ],
        ids=[
            "deep annotations", "deep classes", "deep predicates", "surrogate key", "surrogate name",
            "huge integer",
        ],
    )
    def test_hostile_input_is_a_data_error(self, tmp_path, position, text, reason):
        """Checked in a fresh process: stderr holds the one error line, no traceback."""
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        args = corpus_args()
        args[position] = str(bad)
        src = Path(vrannot.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "vrannot.cli", "validate", *args],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
        )
        assert (result.returncode, result.stdout) == (3, b"")
        assert result.stderr == f"error: {bad}: {reason}\n".encode()


class TestAnnotationsFromAPipe:
    """An annotations file that can be read only once, from a pipe or a FIFO,
    gets the regular file's outcome.  Each runs in a fresh process with a timeout."""

    BAD = b'{"x.jpg": [x]}'

    def validate(self, annotations, stdin=None):
        args = corpus_args()
        args[1] = annotations
        src = Path(vrannot.__file__).resolve().parent.parent
        return subprocess.run(
            [sys.executable, "-m", "vrannot.cli", "validate", *args], input=stdin,
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=60,
        )

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("data", [BAD, b'{"x.jpg": []}\n\xff', b"{}\r\n"],
                             ids=["invalid", "invalid-utf-8", "valid"])
    def test_stdin_pipe(self, tmp_path, data):
        regular = tmp_path / "annotations.json"
        regular.write_bytes(data)
        expected = self.validate(str(regular))
        result = self.validate("/dev/stdin", stdin=data)  # `input` is sent through a pipe
        assert result.returncode == expected.returncode
        assert result.stdout == expected.stdout
        assert result.stderr == expected.stderr.replace(str(regular).encode(), b"/dev/stdin")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe(self, tmp_path):
        regular = tmp_path / "annotations.json"
        regular.write_bytes(self.BAD)
        fifo = tmp_path / "fifo.json"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(self.BAD,), daemon=True)
        writer.start()
        try:
            result = self.validate(str(fifo))
        finally:  # a reader end lets a writer still waiting for one finish
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join(10)
            os.close(reader)
        assert (result.returncode, result.stdout) == (3, b"")
        assert result.stderr == f"error: {fifo}: Expecting value: line 1 column 12 (char 11)\n".encode()
        assert self.validate(str(regular)).stderr == result.stderr.replace(
            str(fifo).encode(), str(regular).encode())


class TestStats:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "stats", *corpus_args())
        assert code == 0
        assert out == (
            "object classes: 14\n"
            "predicates: 9\n"
            "images: 5\n"
            "relationships: 26\n"
            "mean relationships per image: 5.20\n"
            "images with duplicate relationships: 0\n"
        )

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "stats", *corpus_args(), "--format", "structured")
        assert code == 0
        assert json.loads(out) == {
            "object_classes": 14,
            "predicates": 9,
            "images": 5,
            "relationships": 26,
            "mean_relationships_per_image": 5.2,
            "images_with_duplicate_relationships": 0,
        }

    def test_distribution_text(self, capsys):
        code, out, _ = run(capsys, "stats", *corpus_args(), "--distribution", "vrs_per_image")
        assert code == 0
        assert out == "vrs_per_image:\n  2: 1\n  5: 2\n  6: 1\n  8: 1\n"

    def test_distribution_structured(self, capsys):
        code, out, _ = run(
            capsys,
            "stats", *corpus_args(),
            "--distribution", "vrs_per_image", "--format", "structured",
        )
        assert code == 0
        assert json.loads(out) == {
            "metric": "vrs_per_image",
            "buckets": [[2, 1], [5, 2], [6, 1], [8, 1]],
        }

    @pytest.mark.parametrize(
        "metric, buckets",
        [
            ("vrs_per_image", [[2, 1], [5, 2], [6, 1], [8, 1]]),
            ("distinct_classes_per_image", [[3, 1], [4, 1], [5, 1], [6, 2]]),
            ("distinct_predicates_per_image", [[2, 1], [3, 1], [4, 2], [6, 1]]),
        ],
    )
    def test_distribution_bytes(self, capsys, metric, buckets):
        _, text, _ = run(capsys, "stats", *corpus_args(), "--distribution", metric)
        assert text == f"{metric}:\n" + "".join(f"  {value}: {n}\n" for value, n in buckets)
        _, structured, _ = run(
            capsys, "stats", *corpus_args(), "--distribution", metric, "--format", "structured"
        )
        assert structured == json.dumps({"buckets": buckets, "metric": metric}, indent=2) + "\n"

    def test_unknown_metric_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "stats", *corpus_args(), "--distribution", "colors")
        assert code == 2

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "stats", *corpus_args())
        _, second, _ = run(capsys, "stats", *corpus_args())
        assert first == second


class TestQuery:
    def test_pattern(self, capsys):
        code, out, _ = run(capsys, "query", *corpus_args(), "--pattern", "(bus, beside, car)")
        assert code == 0
        assert out == "8934043045_251b42d19a_b.jpg\n"

    def test_pattern_with_bindings(self, capsys):
        code, out, _ = run(capsys, "query", *corpus_args(), "--pattern", "(person, wear, *)")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("object: ")
        assert "4929276486_ca06aedbb9_b.jpg" in lines

    def test_pattern_structured(self, capsys):
        code, out, _ = run(
            capsys,
            "query", *corpus_args(),
            "--pattern", "(bus, beside, *)", "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["images"] == ["8934043045_251b42d19a_b.jpg"]
        assert payload["bindings"] == {"object": ["car"]}

    def test_count_exact(self, capsys):
        code, out, _ = run(capsys, "query", *corpus_args(), "--count", "2")
        assert code == 0
        assert out == "7171463996_900cb4ce33_b.jpg\n"

    def test_count_closed_range(self, capsys):
        code, out, _ = run(capsys, "query", *corpus_args(), "--count", "5..6")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_count_open_range(self, capsys):
        code, out, _ = run(capsys, "query", *corpus_args(), "--count", "7..")
        assert code == 0
        assert out == "8934043045_251b42d19a_b.jpg\n"

    def test_count_with_a_negative_lower_bound(self, capsys):
        """A spec that starts with `-` is given after `=`; a negative lower bound selects from 0."""
        code, out, err = run(capsys, "query", *corpus_args(), "--count=-1..")
        assert (code, err) == (0, "")
        assert out == "".join(f"{image}\n" for image in sorted(load_listing_corpus().images))
        assert len(out.splitlines()) == 5

    def test_count_structured(self, capsys):
        code, out, _ = run(capsys, "query", *corpus_args(), "--count", "2", "--format", "structured")
        assert (code, out) == (0, '{\n  "images": [\n    "7171463996_900cb4ce33_b.jpg"\n  ]\n}\n')

    def test_count_malformed(self, capsys):
        code, _, err = run(capsys, "query", *corpus_args(), "--count", "many")
        assert code == 2
        assert "count" in err

    def test_pattern_and_count_conflict(self, capsys):
        code, _, _ = run(
            capsys, "query", *corpus_args(), "--pattern", "(a, b, c)", "--count", "2"
        )
        assert code == 2

    def test_mode_required(self, capsys):
        code, _, _ = run(capsys, "query", *corpus_args())
        assert code == 2

    @pytest.mark.parametrize("pattern", ["a, b", "a, , c", "(a, b, c, d)"])
    def test_pattern_malformed(self, capsys, pattern):
        code, out, err = run(capsys, "query", *corpus_args(), "--pattern", pattern)
        assert (code, out) == (2, "")
        assert err == (
            f"error: pattern must be three comma-separated names, got {pattern!r}\n"
        )

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "query", *corpus_args(), "--pattern", "(zebra, *, *)")
        assert code == 3
        assert "zebra" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--pattern", "a,b", "pattern must be three comma-separated names, got 'a,b'"),
        ("--count", "x", "bad count spec 'x'"),
        ("--count", "1..x", "bad count spec '1..x'"),
        ("--count", "x..", "bad count spec 'x..'"),
    ], ids=["pattern", "count", "count-high", "count-open"])
    def test_a_malformed_flag_exits_2_before_the_corpus_is_read(self, capsys, tmp_path, flag,
                                                                 value, message):
        args = corpus_args()
        args[args.index("--classes") + 1] = str(tmp_path / "missing.json")
        assert run(capsys, "query", *args, flag, value) == (2, "", f"error: {message}\n")

    def test_an_open_count_reads_the_corpus_first(self, capsys, tmp_path):
        """A well-formed `A..` is read as a whole range; then the corpus is loaded
        and its missing file reported."""
        args = corpus_args()
        args[args.index("--classes") + 1] = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "query", *args, "--count", "7..")
        assert (code, out, err) == (4, "", f"error: file not found: {tmp_path / 'missing.json'}\n")


class TestCollectorState:
    """`main` runs a command with the cyclic collector paused and leaves the
    collector as it found it, whatever the exit."""

    @pytest.fixture(autouse=True)
    def keep_the_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case,expected", [
        ("success", 0), ("data-error", 3), ("missing-file", 4), ("usage-error", 2),
    ])
    def test_main_restores_the_collector(self, capsys, tmp_path, enabled, case, expected):
        args = corpus_args()
        if case == "data-error":
            (tmp_path / "annotations.json").write_text("[]", encoding="utf-8")
            args[1] = str(tmp_path / "annotations.json")
        elif case == "missing-file":
            args[1] = str(tmp_path / "absent.json")
        argv = ["validate", *args] if case != "usage-error" else ["validate", *args[2:]]
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, *argv)[0] == expected
        assert gc.isenabled() is enabled

    def test_the_command_runs_with_the_collector_paused(self, capsys, monkeypatch):
        states = []

        def recording_load(*paths):
            states.append(gc.isenabled())
            return load_corpus(*paths)

        monkeypatch.setattr(vrannot.cli, "load_corpus", recording_load)
        gc.enable()
        assert run(capsys, "validate", *corpus_args()) == (0, "ok: 5 images, 26 relationships\n", "")
        assert states == [False] and gc.isenabled()


class TestCountParity:
    """Every count spec selects what a brute-force filter of `corpus.images` does."""

    SPECS = ["3", "0", "-1", "2..5", "..2", "5..", "..", "9..", "5..2"]

    @staticmethod
    def brute(corpus, spec):
        low, dots, high = spec.partition("..")
        if not dots:
            high = low
        low, high = int(low or 0), int(high) if high else float("inf")
        return sorted(image for image, vrs in corpus.images.items() if low <= len(vrs) <= high)

    @pytest.mark.parametrize("seed", range(6))
    def test_text_and_structured_match_the_filter(self, capsys, tmp_path, seed):
        rng = random.Random(seed)
        if seed == 0:
            corpus = AnnotationCorpus({}, ["a"], ["p"])
        else:
            corpus = random_corpus(rng, max_images=30, max_vrs=10, allow_empty_images=seed % 2 == 1)
        paths = [tmp_path / name for name in OUTPUT_NAMES]
        save_corpus(corpus, *paths)
        args = [f"--{flag}={path}" for flag, path in zip(("annotations", "classes", "predicates"), paths)]
        for spec in self.SPECS:
            images = self.brute(corpus, spec)
            assert analyze.images_with_vr_count(corpus, _parse_count(spec)) == images
            assert run(capsys, "query", *args, "--count", spec) == (
                0, "".join(f"{image}\n" for image in images), "")
            structured = json.dumps({"images": images}, sort_keys=True, indent=2, ensure_ascii=False)
            assert run(capsys, "query", *args, "--count", spec, "--format", "structured") == (
                0, structured + "\n", "")
            if ".." not in spec:  # an `int` target selects what its one-count range does
                assert analyze.images_with_vr_count(corpus, int(spec)) == images


# Each integer text, and the inputs that accept it: a `--count` bound, a script index, a
# script box coordinate and an xsd:integer dump literal.  Every input reads ASCII digits by
# the dump literal's rule, each with its own sign policy; a script field is trimmed first.
INTEGER_TEXTS = [
    ("0", "count index box dump"), ("7", "count index box dump"), ("007", "count index box dump"),
    ("-1", "count box dump"), ("+5", "count dump"),
    ("\u0663", ""), ("\uff13", ""), ("\u00b2", ""), ("1_0", ""), ("0x1", ""), ("+", ""), ("-", ""),
    ("", ""), ("9" * 4301, ""), (" 3", "index box"), ("3 ", "index box"),
]
INTEGER_IDS = ["zero", "seven", "leading-zeros", "minus", "plus", "arabic-indic-digit",
               "fullwidth-digit", "superscript-two", "underscore", "hex", "lone-plus",
               "lone-minus", "empty", "too-many-digits", "leading-space", "trailing-space"]


@pytest.mark.parametrize("text,accepted", INTEGER_TEXTS, ids=INTEGER_IDS)
class TestIntegerTextParity:
    """Each integer text is accepted or refused alike by the library reader and
    the command of each input, with that input's exit code and message."""

    @pytest.fixture
    def work(self, tmp_path):
        """One image of 8 equal VRs, so that every index up to 7 applies; an empty schema."""
        vr = vr_record(0, [1, 2, 3, 4], 0, 1, [1, 2, 3, 4])
        write_corpus_files(tmp_path, {"im.jpg": [vr] * 8}, ["person", "horse"], ["ride"])
        (tmp_path / "axioms.txt").write_text("", encoding="utf-8")
        return tmp_path

    def test_count_bound(self, capsys, work, text, accepted):
        for spec in ([text, f"{text}..", f"..{text}"] if text else [text]):
            # `=` keeps argparse from reading a spec such as `-1..` as an option
            code, out, err = run(capsys, "query", *corpus_args(work), f"--count={spec}")
            if "count" in accepted:
                assert (code, err) == (0, "")
                assert _parse_count(spec).start == (int(text) if spec.startswith(text) else 0)
            else:
                assert (code, out, err) == (2, "", f"error: bad count spec {spec!r}\n")
                with pytest.raises(ConfigError, match="^bad count spec "):
                    _parse_count(spec)

    def check_script(self, capsys, work, line, ok, message):
        script = work / "script.txt"
        script.write_text(f"imname; im.jpg\n{line}\n", encoding="utf-8")
        out = work / "out.json"
        code, stdout, err = run(capsys, "apply", str(script), *corpus_args(work), "--out", str(out))
        if ok:
            assert (code, err) == (0, "") and out.exists()
            return parse_script(script.read_text(encoding="utf-8"))[0].instructions[0]
        assert (code, stdout, err, out.exists()) == (3, "", f"error: line 2: {message}\n", False)
        with pytest.raises(ParseError) as refused:
            parse_script(script.read_text(encoding="utf-8"))
        assert str(refused.value) == f"line 2: {message}"

    def test_script_index(self, capsys, work, text, accepted):
        line = f"cvrsbb; {text}; (person, ride, horse); [1,2,3,4]"
        instruction = self.check_script(capsys, work, line, "index" in accepted,
                                        f"expected a non-negative index, got {text.strip()!r}")
        assert instruction is None or instruction.vr_index == int(text)

    def test_box_coordinate(self, capsys, work, text, accepted):
        box = f"[{text},2,3,4]"
        instruction = self.check_script(capsys, work, f"cvrsbb; 0; (person, ride, horse); {box}",
                                        "box" in accepted,
                                        f"bounding box must hold 4 integers, got {box!r}")
        assert instruction is None or instruction.new_bbox.ymin == int(text)

    def test_dump_literal(self, capsys, work, text, accepted):
        line = f'<a> <p> "{text}"^^<{kg.XSD_INTEGER_IRI}> .'
        graph, out = work / "g.nt", work / "closed.nt"
        graph.write_text(line + "\n", encoding="utf-8")
        code, stdout, err = run(capsys, "kg", "materialize", str(graph),
                                "--schema", str(work / "axioms.txt"), "--out", str(out))
        if "dump" in accepted:
            assert (code, err) == (0, "") and out.exists()
            assert [triple.object for triple in load_store([(1, line)])] == [int(text)]
            return
        message = f"line 1: bad integer literal {text!r}"
        assert (code, stdout, err, out.exists()) == (3, "", f"error: {message}\n", False)
        with pytest.raises(MalformedGraphError) as refused:
            load_store([(1, line)])
        assert str(refused.value) == message

    def test_overlay_vr(self, capsys, work, text, accepted):
        """`--vr` takes what a `--count` bound takes; the index is then checked against the image."""
        out = work / "overlay.svg"
        code, stdout, err = run(capsys, "overlay", *corpus_args(work), "--image", "im.jpg",
                                f"--vr={text}", "--out", str(out))
        if "count" not in accepted:
            assert (code, stdout, out.exists()) == (2, "", False)
            assert err.endswith(f"error: argument --vr: invalid int value: {text!r}\n")
        elif int(text) < 0:
            assert (code, stdout, out.exists()) == (3, "", False)
            assert err == (f"error: im.jpg: vr {int(text)}: selection={int(text)} out of range "
                           "(image has 8 relationships)\n")
        else:
            assert (code, stdout, err) == (0, "", "")
            svg = out.read_bytes()
            assert run(capsys, "overlay", *corpus_args(work), "--image", "im.jpg", "--vr", str(int(text)),
                       "--out", str(out))[0] == 0
            assert out.read_bytes() == svg


class TestInputNames:
    """Every input path is named in a message as it was given: `./d/x.json` stays
    `./d/x.json` and `d//x.json` stays `d//x.json`."""

    SHAPES = ["./d/{}", "d//{}", "d/./{}"]

    @pytest.fixture
    def work(self, tmp_path, monkeypatch):
        (tmp_path / "d").mkdir()
        for name in OUTPUT_NAMES:
            shutil.copy(LISTING_DIR / name, tmp_path / "d" / name)
        (tmp_path / "d" / "axioms.txt").write_text("", encoding="utf-8")
        (tmp_path / "d" / "graph.nt").write_text("<a> <p> <o> .\n", encoding="utf-8")
        (tmp_path / "d" / "bad.json").write_text("[1,\n", encoding="utf-8")
        (tmp_path / "d" / "root.json").write_text("[]\n", encoding="utf-8")
        (tmp_path / "d" / "list.json").write_text('{"a": 1}\n', encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @staticmethod
    def corpus(annotations="d/annotations.json", classes="d/classes.json",
               predicates="d/predicates.json"):
        return ["--annotations", annotations, "--classes", classes, "--predicates", predicates]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_json_syntax_error(self, capsys, work, shape):
        path = shape.format("bad.json")
        reason = "Expecting value: line 2 column 1 (char 4)"
        for corpus in (self.corpus(annotations=path), self.corpus(classes=path),
                       self.corpus(predicates=path)):
            assert run(capsys, "validate", *corpus) == (3, "", f"error: {path}: {reason}\n")
        assert run(capsys, "workflow", "run", path) == (3, "", f"error: {path}: {reason}\n")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_shape_error(self, capsys, work, shape):
        root = shape.format("root.json")
        assert run(capsys, "validate", *self.corpus(annotations=root)) == (
            3, "", f"error: {root}: annotations root must be an object\n")
        names = shape.format("list.json")
        assert run(capsys, "validate", *self.corpus(classes=names)) == (
            3, "", f"error: {names}: object class master list must be an array of strings\n")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_missing_input(self, capsys, work, shape):
        none = shape.format("none")
        for argv in (
            ["validate", *self.corpus(annotations=none)],
            ["validate", *self.corpus(classes=none)],
            ["validate", *self.corpus(predicates=none)],
            ["apply", none, *self.corpus(), "--out", "out.json"],
            ["kg", "materialize", "d/graph.nt", "--schema", none, "--out", "out.nt"],
            ["kg", "lower", *self.corpus(), "--schema", none, "--out", "out.nt"],
            ["kg", "materialize", none, "--schema", "d/axioms.txt", "--out", "out.nt"],
            ["workflow", "run", none],
        ):
            assert run(capsys, *argv) == (4, "", f"error: file not found: {none}\n"), argv
        assert sorted(os.listdir(work)) == ["d"]

    def test_an_empty_path_is_not_found(self, capsys, work):
        assert run(capsys, "validate", *self.corpus(annotations="")) == (
            4, "", "error: file not found: \n")


class TestLint:
    def dirty_dir(self, tmp_path):
        corpus = load_listing_corpus()
        image = "7171463996_900cb4ce33_b.jpg"
        corpus.images[image].append(corpus.images[image][0])
        directory = tmp_path / "dirty"
        directory.mkdir()
        save_corpus(
            corpus,
            directory / "annotations.json",
            directory / "classes.json",
            directory / "predicates.json",
        )
        return directory

    def test_clean(self, capsys):
        code, out, _ = run(capsys, "lint", *corpus_args(), "--strict")
        assert code == 0
        assert out == ""

    def test_findings_text(self, capsys, tmp_path):
        code, out, _ = run(capsys, "lint", *corpus_args(self.dirty_dir(tmp_path)))
        assert code == 0
        assert out.startswith("7171463996_900cb4ce33_b.jpg\tExactDuplicateVR\t")

    def test_strict_exit(self, capsys, tmp_path):
        code, _, _ = run(capsys, "lint", *corpus_args(self.dirty_dir(tmp_path)), "--strict")
        assert code == 1

    def test_structured(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "lint", *corpus_args(self.dirty_dir(tmp_path)), "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["rule"] == "ExactDuplicateVR"
        assert payload[0]["severity"] == "warning"

    def test_bad_threshold(self, capsys):
        code, _, err = run(capsys, "lint", *corpus_args(), "--threshold", "0")
        assert code == 2
        assert err == "error: near-duplicate threshold must be in (0, 1]\n"

    @pytest.mark.parametrize("threshold", ["2", "-1", "nan"])
    def test_a_bad_threshold_exits_2_before_the_corpus_is_read(self, capsys, tmp_path, threshold):
        args = corpus_args()
        args[args.index("--classes") + 1] = str(tmp_path / "missing.json")
        assert run(capsys, "lint", *args, "--threshold", threshold) == (
            2, "", "error: near-duplicate threshold must be in (0, 1]\n")
        assert run(capsys, "lint", *corpus_args(), "--threshold", "1")[0] == 0


class TestOverlay:
    def test_writes_svg(self, capsys, tmp_path):
        out_path = tmp_path / "overlay.svg"
        code, out, _ = run(
            capsys,
            "overlay", *corpus_args(),
            "--image", "7171463996_900cb4ce33_b.jpg",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text(encoding="utf-8").startswith("<?xml")

    def test_vr_selection_repeatable(self, capsys, tmp_path):
        out_path = tmp_path / "overlay.svg"
        code, _, _ = run(
            capsys,
            "overlay", *corpus_args(),
            "--image", "1426904233_ee344879b6_b.jpg",
            "--vr", "0", "--vr", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "<rect " in out_path.read_text(encoding="utf-8")

    def test_unknown_image(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "overlay", *corpus_args(),
            "--image", "ghost.jpg", "--out", str(tmp_path / "x.svg"),
        )
        assert code == 3
        assert "ghost.jpg" in err

    def test_selection_out_of_range_names_the_image_bound(self, capsys, tmp_path):
        out_path = tmp_path / "x.svg"
        code, out, err = run(
            capsys,
            "overlay", *corpus_args(),
            "--image", "1426904233_ee344879b6_b.jpg", "--vr", "99", "--out", str(out_path),
        )
        assert (code, out) == (3, "")
        assert err == ("error: 1426904233_ee344879b6_b.jpg: vr 99: selection=99 out of range "
                       "(image has 6 relationships)\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("image, classes, message", [
        ("im\x0bg.jpg", ["dog", "cat"], "'im\\x0bg.jpg' holds '\\x0b'"),  # the href
        ("a.jpg", ["a\x01b", "cat"], "'a\\x01b' holds '\\x01'"),  # a label
        ("a.jpg", ["dog", "c\ufffe"], "'c\\ufffe' holds '\\ufffe'"),
    ])
    def test_text_no_xml_document_holds_exits_3_with_nothing_written(self, capsys, tmp_path, image,
                                                                        classes, message):
        files = write_corpus_files(tmp_path, {image: [vr_record(0, [0, 5, 0, 5], 0, 1, [1, 5, 1, 5])]},
                                   classes, ["near"])
        args = [arg for pair in zip(("--annotations", "--classes", "--predicates"), map(str, files))
                for arg in pair]
        out_path = tmp_path / "out" / "o.svg"
        assert run(capsys, "overlay", *args, "--image", image, "--out", str(out_path)) == (
            3, "", f"error: {message}, which no XML 1.0 document can hold\n")
        assert not out_path.parent.exists()


class TestApply:
    def test_bundled_script(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, err = run(
            capsys,
            "apply", str(LISTING_DIR / "script.txt"), *corpus_args(), "--out", str(out_path),
        )
        assert code == 0
        assert err == ""
        assert out == (
            "images touched: 5\n"
            "relationships changed: 4\n"
            "relationships added: 1\n"
            "relationships removed: 0\n"
            "images removed: 1\n"
        )
        assert out_path.read_bytes() == canonical_annotations_bytes(load_listing_expected())

    def test_faulty_script_reports_line_and_writes_nothing(self, capsys, tmp_path):
        script = tmp_path / "bad.txt"
        script.write_text(
            "imname; 1426904233_ee344879b6_b.jpg\n"
            "cvrpxx; 5; (teddy bear, sit on, basket); in\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "result.json"
        code, _, err = run(capsys, "apply", str(script), *corpus_args(), "--out", str(out_path))
        assert code == 3
        assert "aborted at line 2" in err
        assert "tuple-mismatch" in err
        assert not out_path.exists()

    def test_missing_script(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "apply", str(tmp_path / "absent.txt"), *corpus_args(),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 4


class TestWorkflow:
    def prepared(self, tmp_path, name):
        workdir = tmp_path / name
        shutil.copytree(DEMO_DIR, workdir, ignore=shutil.ignore_patterns("expected_*", "out"))
        return workdir

    def test_run(self, capsys, tmp_path):
        workdir = self.prepared(tmp_path, "run")
        code, out, err = run(capsys, "workflow", "run", str(workdir / "config.json"))
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 12
        assert lines[0].startswith("step 1 update_master_lists: ")
        assert lines[-1] == "done: 11 steps"
        assert (workdir / "out" / "annotations.json").exists()

    def test_stdout_is_deterministic(self, capsys, tmp_path):
        first = self.prepared(tmp_path, "first")
        _, out_a, _ = run(capsys, "workflow", "run", str(first / "config.json"))
        second = self.prepared(tmp_path, "second")
        _, out_b, _ = run(capsys, "workflow", "run", str(second / "config.json"))
        assert out_a == out_b

    def test_failing_step(self, capsys, tmp_path):
        workdir = self.prepared(tmp_path, "fail")
        raw = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
        raw["steps"].insert(0, {"kind": "merge_class", "from": "dog", "to": "dog"})
        (workdir / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run(capsys, "workflow", "run", str(workdir / "config.json"))
        assert code == 3
        assert "step 1 (merge_class) failed" in err

    def test_missing_config(self, capsys, tmp_path):
        code, _, _ = run(capsys, "workflow", "run", str(tmp_path / "absent.json"))
        assert code == 4

    @pytest.mark.parametrize("script", ["missing", "directory"])
    def test_unreadable_script_step_is_an_io_error(self, capsys, tmp_path, script):
        """A step that cannot read its file exits 4, like `apply` on that file."""
        workdir = self.prepared(tmp_path, script)
        raw = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
        raw["steps"].insert(0, {"kind": "apply_protocol_file", "path": "edit.txt"})
        (workdir / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        if script == "directory":
            (workdir / "edit.txt").mkdir()
        code, out, err = run(capsys, "workflow", "run", str(workdir / "config.json"))
        assert (code, out) == (4, "")
        assert err.startswith("error: step 1 (apply_protocol_file) failed: ")
        assert str(workdir / "edit.txt") in err
        assert not (workdir / "out").exists()
        apply_code, _, _ = run(
            capsys, "apply", str(workdir / "edit.txt"), *corpus_args(workdir),
            "--out", str(tmp_path / "r.json"),
        )
        assert apply_code == 4

    def test_unknown_config_keys_are_quoted(self, capsys, tmp_path):
        """A key's control characters reach stderr escaped, never raw."""
        workdir = self.prepared(tmp_path, "keys")
        raw = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
        raw["bad\x1b[31mkey"] = raw["nul\x00key"] = 1
        (workdir / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run(capsys, "workflow", "run", str(workdir / "config.json"))
        assert (code, out) == (3, "")
        assert err == "error: unknown config keys: 'bad\\x1b[31mkey', 'nul\\x00key'\n"
        assert "\x1b" not in err and "\x00" not in err

    def test_duplicate_step_key(self, capsys, tmp_path):
        workdir = self.prepared(tmp_path, "dup")
        config = workdir / "config.json"
        text = config.read_text(encoding="utf-8")
        text = text.replace('"from": "plane", "to"', '"from": "plane", "from": "dog", "to"')
        config.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "workflow", "run", str(config))
        assert code == 3
        assert out == ""
        assert err == f"error: {config}: duplicate key 'from'\n"
        assert not (workdir / "out").exists()


    def test_unwritable_output_keeps_previous_outputs(self, capsys, tmp_path):
        workdir = self.prepared(tmp_path, "blocked")
        out = workdir / "out"
        out.mkdir()
        (out / "annotations.json").write_bytes(b"previous annotations\n")
        (out / "classes.json").write_bytes(b"previous classes\n")
        (out / "predicates.json").mkdir()
        code, stdout, err = run(capsys, "workflow", "run", str(workdir / "config.json"))
        assert (code, stdout) == (4, "")
        assert err == f"error: [Errno 21] Is a directory: '{out / 'predicates.json'}'\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "annotations.json", "classes.json", "predicates.json"
        ]
        assert (out / "annotations.json").read_bytes() == b"previous annotations\n"
        assert (out / "classes.json").read_bytes() == b"previous classes\n"

    def test_outputs_identical_across_hash_seeds(self, tmp_path):
        """Two processes with different string hashing print the same reports
        and write the same bytes: the workflow, the inspect commands (stats,
        query, lint), diff, the kg chain, apply and overlay."""
        src = Path(vrannot.__file__).resolve().parent.parent
        inputs = list(OUTPUT_NAMES)
        outputs = [f"out/{name}" for name in OUTPUT_NAMES]
        schema = ["--schema", "axioms.txt"]
        corpus = ["--annotations", inputs[0], "--classes", inputs[1], "--predicates", inputs[2]]
        listing = [f"listing/{name}" for name in OUTPUT_NAMES]
        structured = ["--format", "structured"]
        commands = [
            ["workflow", "run", "config.json"],
            ["stats", *corpus, *structured],
            ["query", *corpus, "--pattern", "*, *, *", *structured],
            ["query", *corpus, "--count", "1..", *structured],
            ["lint", *corpus],
            ["diff", *inputs, *outputs],
            ["kg", "lower", *corpus, *schema, "--out", "g.nt"],
            ["kg", "materialize", "g.nt", *schema, "--out", "closed.nt"],
            ["kg", "extract", "closed.nt", *schema, "--classes", inputs[1],
             "--predicates", inputs[2], "--out", "extracted.json"],
            ["apply", "listing/script.txt", "--annotations", listing[0], "--classes", listing[1],
             "--predicates", listing[2], "--out", "applied.json"],
            ["overlay", *corpus, "--image", "img05.jpg", "--out", "overlay.svg"],
        ]
        results = []
        for seed in ("0", "1"):
            workdir = self.prepared(tmp_path, f"seed{seed}")
            (workdir / "axioms.txt").write_text(demo_axioms(), encoding="utf-8")
            shutil.copytree(LISTING_DIR, workdir / "listing")
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            stdouts = []
            for argv in commands:
                result = subprocess.run(
                    [sys.executable, "-m", "vrannot.cli", *argv],
                    cwd=workdir, env=env, capture_output=True, timeout=120,
                )
                assert (result.returncode, result.stderr) == (0, b""), argv
                stdouts.append(result.stdout)
            written = [(workdir / name).read_bytes() for name in
                       (*outputs, "g.nt", "closed.nt", "extracted.json", "applied.json", "overlay.svg")]
            results.append((stdouts, written))
        assert results[0] == results[1]
        stdouts = results[0][0]
        assert stdouts[0].endswith(b"done: 11 steps\n")
        assert json.loads(stdouts[2])["images"] and json.loads(stdouts[3])["images"]
        assert b"(added 0)" not in stdouts[7]  # the axioms infer something
        assert stdouts[9].startswith(b"images touched: ") and b"<rect" in results[0][1][-1]


def demo_axioms() -> str:
    """The default designations of the workflow demo corpus plus one axiom
    of each kind the materializer joins on."""
    corpus = load_corpus(*(DEMO_DIR / name for name in OUTPUT_NAMES))
    schema = kg.default_schema(corpus)
    lines = [f"class {term}" for term in sorted(schema.classes | {"Agent", "Worn"})]
    lines += [f"prop {term}" for term in sorted(schema.properties)]
    lines += [f"annclass {name} {term}" for name, term in schema.ann_classes.items()]
    lines += [f"annprop {name} {term}" for name, term in schema.ann_properties.items()]
    lines += [
        "symmetric beside", "inverse on under", "transitive on", "subprop sitOn on",
        "eqprop walk walkOn", "subclass TeddyBear Bear", "domain wear Agent", "range wear Worn",
    ]
    return "\n".join(lines) + "\n"


class TestKgCommands:
    def seed(self, tmp_path):
        directory = tmp_path / "kgdata"
        directory.mkdir()
        corpus = load_corpus(
            LISTING_DIR / "annotations.json",
            LISTING_DIR / "classes.json",
            LISTING_DIR / "predicates.json",
        )
        keep = "7171463996_900cb4ce33_b.jpg"
        corpus.images = {keep: corpus.images[keep]}
        save_corpus(
            corpus,
            directory / "annotations.json",
            directory / "classes.json",
            directory / "predicates.json",
        )
        (directory / "axioms.txt").write_text(
            "class Person\n"
            "class Jacket\n"
            "class Boat\n"
            "class Dog\n"
            "class Hat\n"
            "prop wear\n"
            "prop wornBy\n"
            "prop beside\n"
            "inverse wear wornBy\n"
            "annclass person Person\n"
            "annclass jacket Jacket\n"
            "annclass boat Boat\n"
            "annclass dog Dog\n"
            "annclass hat Hat\n"
            "annprop wear wear\n"
            "annprop beside beside\n",
            encoding="utf-8",
        )
        return directory

    def test_lower(self, capsys, tmp_path):
        directory = self.seed(tmp_path)
        graph = tmp_path / "g.nt"
        code, out, _ = run(
            capsys, "kg", "lower", *corpus_args(directory), "--out", str(graph)
        )
        assert code == 0
        store = load_file(graph)
        assert out == f"triples: {len(store)}\n"
        lines = graph.read_text(encoding="utf-8").splitlines()
        assert lines == sorted(lines)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_lower_refuses_a_named_pipe_as_out(self, capsys, tmp_path):
        fifo = tmp_path / "g.nt"
        os.mkfifo(fifo)
        code, out, err = run(capsys, "kg", "lower", *corpus_args(), "--out", str(fifo))
        assert (code, out) == (4, "")
        assert err == f"error: [Errno 17] File exists and is not a regular file: '{fifo}'\n"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(tmp_path) == [fifo.name]

    def test_lower_materialize_extract_chain(self, capsys, tmp_path):
        directory = self.seed(tmp_path)
        lowered = tmp_path / "g.nt"
        closed = tmp_path / "closed.nt"
        extracted = tmp_path / "extracted.json"

        code, _, _ = run(
            capsys,
            "kg", "lower", *corpus_args(directory),
            "--schema", str(directory / "axioms.txt"),
            "--out", str(lowered),
        )
        assert code == 0

        code, out, _ = run(
            capsys,
            "kg", "materialize", str(lowered),
            "--schema", str(directory / "axioms.txt"),
            "--out", str(closed),
        )
        assert code == 0
        # the single wear VR gains exactly one wornBy counterpart
        assert out == f"triples: {len(load_file(closed))} (added 1)\n"

        code, out, _ = run(
            capsys,
            "kg", "extract", str(closed),
            "--schema", str(directory / "axioms.txt"),
            "--classes", str(directory / "classes.json"),
            "--predicates", str(directory / "predicates.json"),
            "--out", str(extracted),
        )
        assert code == 0
        assert out == "images: 1, relationships: 2\n"
        back = load_corpus(
            extracted, directory / "classes.json", directory / "predicates.json"
        )
        original = load_corpus(
            directory / "annotations.json",
            directory / "classes.json",
            directory / "predicates.json",
        )
        types = {
            back.vr_type_names(vr)
            for vrs in back.images.values()
            for vr in vrs
        }
        assert {original.vr_type_names(vr) for vrs in original.images.values() for vr in vrs} <= types

    def test_extract_without_schema_round_trips(self, capsys, tmp_path):
        directory = self.seed(tmp_path)
        graph = tmp_path / "g.nt"
        run(capsys, "kg", "lower", *corpus_args(directory), "--out", str(graph))
        extracted = tmp_path / "back.json"
        code, out, _ = run(
            capsys,
            "kg", "extract", str(graph),
            "--classes", str(directory / "classes.json"),
            "--predicates", str(directory / "predicates.json"),
            "--out", str(extracted),
        )
        assert code == 0
        assert out == "images: 1, relationships: 2\n"
        assert extracted.read_bytes() == (directory / "annotations.json").read_bytes()

    def test_extract_under_another_namespace(self, capsys, tmp_path):
        directory = self.seed(tmp_path)
        graph, out = tmp_path / "g.nt", tmp_path / "back.json"
        run(capsys, "kg", "lower", *corpus_args(directory), "--out", str(graph))
        argv = ["kg", "extract", str(graph), "--classes", str(directory / "classes.json"),
                "--predicates", str(directory / "predicates.json"),
                "--namespace", "http://other/ns#", "--out", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (3, "")
        assert err == "error: no hasFilename triple under namespace 'http://other/ns#'\n"
        assert not out.exists()
        graph.write_bytes(b"")  # an empty dump still extracts to an empty corpus
        code, stdout, _ = run(capsys, *argv)
        assert (code, stdout, out.read_bytes()) == (0, "images: 0, relationships: 0\n", b"{}\n")

    def test_extract_refuses_a_subject_under_another_namespace(self, capsys, tmp_path):
        namespaces = (kg.DEFAULT_NAMESPACE, "http://other/ns#")
        self.check_foreign_subject_refused(capsys, tmp_path, *namespaces)

    def test_extract_refuses_a_subject_under_a_longer_namespace(self, capsys, tmp_path):
        self.check_foreign_subject_refused(capsys, tmp_path, "http://a/", "http://a/b#")

    def check_foreign_subject_refused(self, capsys, tmp_path, inside, outside):
        """One image lowered under each namespace, concatenated: extracting
        under `inside` names the other image's subject and exits 3."""
        images = list(json.loads((LISTING_DIR / "annotations.json").read_bytes()))[:2]
        dumps = [tmp_path / "a.nt", tmp_path / "b.nt"]
        for image, dump, namespace in zip(images, dumps, (inside, outside)):
            argv = ["kg", "lower", *corpus_args(), "--image", image, "--namespace", namespace,
                    "--out", str(dump)]
            assert run(capsys, *argv)[0] == 0
        mixed, out = tmp_path / "mixed.nt", tmp_path / "back.json"
        mixed.write_bytes(dumps[0].read_bytes() + dumps[1].read_bytes())
        code, stdout, err = run(
            capsys, "kg", "extract", str(mixed), "--classes", str(LISTING_DIR / "classes.json"),
            "--predicates", str(LISTING_DIR / "predicates.json"), "--namespace", inside,
            "--out", str(out),
        )
        assert (code, stdout) == (3, "")
        assert err == f"error: subject {outside}img_{images[1]} is not under namespace '{inside}'\n"
        assert not out.exists()
        axioms = tmp_path / "axioms.txt"
        axioms.write_bytes(b"")
        closed = tmp_path / "closed.nt"
        code, stdout, _ = run(capsys, "kg", "materialize", str(mixed), "--schema", str(axioms),
                              "--namespace", inside, "--out", str(closed))
        triples = len(load_file(mixed))
        assert (code, stdout) == (0, f"triples: {triples} (added 0)\n")

    def test_materialize_requires_schema(self, capsys, tmp_path):
        code, _, _ = run(capsys, "kg", "materialize", "g.nt", "--out", "x.nt")
        assert code == 2

    def test_bad_graph_file(self, capsys, tmp_path):
        directory = self.seed(tmp_path)
        graph = tmp_path / "g.nt"
        graph.write_text("not a triple\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "kg", "extract", str(graph),
            "--classes", str(directory / "classes.json"),
            "--predicates", str(directory / "predicates.json"),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3
        assert "line 1" in err

    def input_argv(self, directory, command, path):
        """The arguments of `command` reading `path` as its line-oriented
        input: a dump, a script (`apply`) or an axiom file (`lower`)."""
        lists = ["--classes", str(directory / "classes.json"),
                 "--predicates", str(directory / "predicates.json")]
        return {
            "materialize": ["kg", "materialize", str(path), "--schema", str(directory / "axioms.txt")],
            "extract": ["kg", "extract", str(path), *lists],
            "apply": ["apply", str(path), *corpus_args(directory)],
            "lower": ["kg", "lower", *corpus_args(directory), "--schema", str(path)],
        }[command]

    @pytest.mark.parametrize("command", ["materialize", "extract", "apply", "lower"])
    def test_invalid_utf8_wins_over_an_earlier_bad_line(self, capsys, tmp_path, command):
        directory = self.seed(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"garbage\n<a> <p> <b> .\n<a> <p> \"\xc3(\" .\n")
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *self.input_argv(directory, command, bad), "--out", str(out))
        assert (code, stdout) == (3, "")
        assert err == "error: line 3: invalid UTF-8 (invalid continuation byte)\n"
        assert not out.exists()

    @pytest.mark.parametrize("namespace,reason", [
        ("http://a>b#", "holds '>', which no IRI in a dump can hold"),
        ("http://a<b#", "holds '<', which no IRI in a dump can hold"),
        ("http://a\nb#", "holds '\\n', which no IRI in a dump can hold"),
        ("http://a\udcff#", "is not valid UTF-8"),  # an undecodable byte on the command line
        *((f"http://a{char}b#", f"holds {char!r}, which no IRI in a dump can hold")
          for char in IRI_REFUSED),
    ], ids=["gt", "lt", "line-feed", "not-utf8", *IRI_REFUSED_IDS])
    @pytest.mark.parametrize("command", ["lower", "materialize", "extract"])
    def test_namespace_a_dump_cannot_hold_is_a_usage_error(self, capsys, tmp_path, command,
                                                           namespace, reason):
        directory = self.seed(tmp_path)
        graph = tmp_path / "g.nt"
        assert run(capsys, "kg", "lower", *corpus_args(directory), "--out", str(graph))[0] == 0
        if command == "lower":
            argv = ["kg", "lower", *corpus_args(directory)]
        else:
            argv = self.input_argv(directory, command, graph)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *argv, "--namespace", namespace, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.endswith(f"error: argument --namespace: {namespace!r} {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("char", IRI_REFUSED, ids=IRI_REFUSED_IDS)
    @pytest.mark.parametrize("position", ["subject", "predicate", "object"])
    @pytest.mark.parametrize("command", ["materialize", "extract"])
    def test_a_dump_iri_outside_iriref_exits_3(self, capsys, tmp_path, command, position, char):
        """A character N-Triples refuses in an IRI, in any position of a dump line."""
        directory = self.seed(tmp_path)
        graph = tmp_path / "g.nt"
        assert run(capsys, "kg", "lower", *corpus_args(directory), "--out", str(graph))[0] == 0
        lines = graph.read_text(encoding="utf-8").split("\n")
        terms = lines[1].split(" ")
        terms[("subject", "predicate", "object").index(position)] = f"<{kg.DEFAULT_NAMESPACE}a{char}b>"
        lines[1] = " ".join(terms)
        graph.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *self.input_argv(directory, command, graph), "--out", str(out))
        detail = ("not a triple line" if position != "object" else
                  f"unreadable object term {terms[2]!r}")
        assert (code, stdout, err) == (3, "", f"error: line 2: {detail}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["materialize", "extract"])
    def test_a_raw_carriage_return_in_a_dump_literal_exits_3(self, capsys, tmp_path, command):
        """A dump line ends only at a line feed, and N-Triples refuses a raw carriage return
        inside a literal all the same."""
        directory = self.seed(tmp_path)
        graph = tmp_path / "g.nt"
        ns = kg.DEFAULT_NAMESPACE
        graph.write_bytes(f'<{ns}a> <{ns}p> "x" .\n<{ns}a> <{ns}p> "x\ry" .\n'.encode())
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *self.input_argv(directory, command, graph), "--out", str(out))
        assert (code, stdout) == (3, "")
        assert err == "error: line 2: unreadable object term '\"x\\ry\"'\n"
        assert not out.exists()

    def test_undecodable_namespace_byte_is_a_usage_error(self, tmp_path):
        directory = self.seed(tmp_path)
        out = tmp_path / "g.nt"
        src = Path(vrannot.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "vrannot.cli", "kg", "lower", *corpus_args(directory),
             "--namespace", b"http://a\xff#", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
        )
        assert (result.returncode, result.stdout) == (2, b"")
        message = b"error: argument --namespace: 'http://a\\udcff#' is not valid UTF-8\n"
        assert result.stderr.endswith(message)
        assert not out.exists()


    @pytest.mark.parametrize("command", ["lower", "materialize"])
    def test_failed_dump_keeps_previous_out(self, capsys, tmp_path, monkeypatch, command):
        directory = self.seed(tmp_path)
        schema = ["--schema", str(directory / "axioms.txt")]
        lowered = tmp_path / "g.nt"
        assert run(capsys, "kg", "lower", *corpus_args(directory), *schema, "--out", str(lowered))[0] == 0
        out = tmp_path / "previous.nt"
        out.write_bytes(b"previous dump\n")

        def failing_dump(store):
            raise RuntimeError("dump failed")

        monkeypatch.setattr(kg, "dump_store", failing_dump)
        inputs = corpus_args(directory) if command == "lower" else [str(lowered)]
        with pytest.raises(RuntimeError):
            main(["kg", command, *inputs, *schema, "--out", str(out)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.nt", "kgdata", "previous.nt"]
        assert out.read_bytes() == b"previous dump\n"

    @pytest.mark.parametrize("command", ["lower", "materialize"])
    def test_dump_failing_partway_keeps_previous_out(self, capsys, tmp_path, monkeypatch,
                                                     command):
        """The dump is written as it is made, so it can fail after its temp file
        holds a line; the previous output still stands and no temp file is left."""
        directory = self.seed(tmp_path)
        schema = ["--schema", str(directory / "axioms.txt")]
        lowered = tmp_path / "g.nt"
        assert run(capsys, "kg", "lower", *corpus_args(directory), *schema, "--out", str(lowered))[0] == 0
        out = tmp_path / "previous.nt"
        out.write_bytes(b"previous dump\n")
        staged = []

        def lines():
            yield lowered.read_bytes().splitlines(keepends=True)[0]
            staged.extend(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp"))
            raise RuntimeError("dump failed")

        monkeypatch.setattr(kg, "dump_store", lambda store: lines())
        inputs = corpus_args(directory) if command == "lower" else [str(lowered)]
        with pytest.raises(RuntimeError, match="^dump failed$"):
            main(["kg", command, *inputs, *schema, "--out", str(out)])
        assert len(staged) == 1 and staged[0].startswith(".previous.nt.")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.nt", "kgdata", "previous.nt"]
        assert out.read_bytes() == b"previous dump\n"


def run_fresh(argv, env=(), **options):
    """`vrannot ARGV` in a fresh interpreter, with `env` added to the environment."""
    src = Path(vrannot.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-m", "vrannot.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(src), **dict(env)},
                          capture_output=True, timeout=120, **options)


class TestHostEncoding:
    """stdout and stderr are UTF-8 whatever the host's encoding: under an
    ASCII or a Latin-1 stdio encoding, each command gives the bytes and the
    exit code of a UTF-8 run."""

    COMMANDS = {
        "query": (["query", "--count", "0.."], 0, "東京.jpg\n".encode(), b""),
        "lint": (["lint", "--format", "structured"], 0, '"image": "東京.jpg"'.encode(), b""),
        "error": (["query", "--pattern", "ĉevala, *, *"], 3, b"",
                  "error: unknown object class: 'ĉevala'\n".encode()),
    }

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_output_bytes_do_not_depend_on_the_encoding(self, tmp_path, command, encoding):
        argv, code, out, err = self.COMMANDS[command]
        duplicate = vr_record(0, [0, 10, 0, 10], 0, 1, [0, 10, 0, 10])
        write_corpus_files(tmp_path, {"東京.jpg": [duplicate, duplicate]}, ["café", "ĉevalo"], ["sur"])
        argv = [*argv, *corpus_args(tmp_path)]
        expected = run_fresh(argv, {"PYTHONIOENCODING": "utf-8"})
        assert expected.returncode == code and out in expected.stdout and expected.stderr == err
        result = run_fresh(argv, {"PYTHONIOENCODING": encoding})
        assert (result.returncode, result.stdout, result.stderr) == (
            expected.returncode, expected.stdout, expected.stderr)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs an enforced RLIMIT_AS")
class TestOutOfMemory:
    """An input too large for the memory available exits 3 with one error
    line and writes nothing.  Only the child runs under the address-space
    limit, set between its fork and its exec; one child runs at a time, and
    the same command on a small input passes under the same limit."""

    LIMIT = 150 << 20

    def run(self, argv):
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (self.LIMIT, self.LIMIT))

        result = run_fresh(argv, preexec_fn=limit)
        return result.returncode, result.stdout, result.stderr

    def test_a_huge_dump_literal(self, tmp_path):
        schema = tmp_path / "schema.txt"
        schema.write_text("", encoding="utf-8")
        for name, size in (("small.nt", 10), ("huge.nt", 40 << 20)):
            (tmp_path / name).write_text(f'<{kg.DEFAULT_NAMESPACE}img_x> <{kg.DEFAULT_NAMESPACE}hasFilename> '
                                         f'"{"a" * size}" .\n', encoding="utf-8")
        argv = ["kg", "materialize", "--schema", str(schema), "--out", str(tmp_path / "closed.nt")]
        assert self.run([*argv, str(tmp_path / "small.nt")]) == (0, b"triples: 1 (added 0)\n", b"")
        (tmp_path / "closed.nt").unlink()
        assert self.run([*argv, str(tmp_path / "huge.nt")]) == (3, b"", b"error: out of memory\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["huge.nt", "schema.txt", "small.nt"]

    def test_a_huge_image_entry(self, tmp_path):
        vr = json.dumps(vr_record(0, [0, 10, 0, 10], 0, 1, [0, 10, 0, 10])).encode()
        huge = tmp_path / "annotations.json"
        huge.write_bytes(b'{"big.jpg": [' + b", ".join([vr] * ((40 << 20) // len(vr))) + b"]}")
        args = corpus_args()
        assert self.run(["validate", *args])[0] == 0
        args[1] = str(huge)
        assert self.run(["validate", *args]) == (3, b"", b"error: out of memory\n")

    @pytest.mark.parametrize("body", ["a" * (4 << 20), "\\t" * (2 << 20), '\\"' * (2 << 20)],
                             ids=["plain", "tab-escapes", "quote-escapes"])
    def test_a_4_mib_dump_literal_fits(self, tmp_path, body):
        """A literal is read with no regex group repeated over it, which would
        keep state for each of its characters."""
        (tmp_path / "schema.txt").write_text("", encoding="utf-8")
        dump = (f'<{kg.DEFAULT_NAMESPACE}img_x> <{kg.DEFAULT_NAMESPACE}hasFilename> '
                f'"{body}" .\n').encode()
        (tmp_path / "g.nt").write_bytes(dump)
        argv = ["kg", "materialize", str(tmp_path / "g.nt"), "--schema", str(tmp_path / "schema.txt"),
                "--out", str(tmp_path / "closed.nt")]
        assert self.run(argv) == (0, b"triples: 1 (added 0)\n", b"")
        assert (tmp_path / "closed.nt").read_bytes() == dump

    def huge_input(self, tmp_path, reader):
        """The argv of a command whose `reader` input holds one 96 MiB token,
        and of the same command on a small input; each writes into `out`."""
        huge, out = "a" * (96 << 20), tmp_path / "out"
        if reader == "script":
            (tmp_path / "huge").write_text(f"imname; {huge}.jpg\n", encoding="utf-8")
            return (["apply", str(tmp_path / "huge"), *corpus_args(), "--out", str(out / "a.json")],
                    ["apply", str(LISTING_DIR / "script.txt"), *corpus_args(), "--out", str(out / "a.json")])
        if reader == "axiom file":
            (tmp_path / "huge").write_text(f"class {huge}\n", encoding="utf-8")
            (tmp_path / "small").write_text("class A\n", encoding="utf-8")
            (tmp_path / "g.nt").write_bytes(b"")
            argv = ["kg", "materialize", str(tmp_path / "g.nt"), "--out", str(out / "c.nt"), "--schema"]
            return [*argv, str(tmp_path / "huge")], [*argv, str(tmp_path / "small")]
        if reader == "master list":
            (tmp_path / "huge").write_text(json.dumps([huge]), encoding="utf-8")
            (tmp_path / "g.nt").write_bytes(b"")
            argv = ["kg", "extract", str(tmp_path / "g.nt"), "--out", str(out / "e.json"),
                    "--predicates", str(LISTING_DIR / "predicates.json"), "--classes"]
            return [*argv, str(tmp_path / "huge")], [*argv, str(LISTING_DIR / "classes.json")]
        config = json.loads((DEMO_DIR / "config.json").read_text(encoding="utf-8"))
        config.update({key: str(DEMO_DIR / value) for key, value in config.items()
                       if key.startswith("input_")})
        config.update({key: str(out / key) for key in config if key.startswith("output_")})
        config["steps"] = [config["steps"][0]]  # update_master_lists
        (tmp_path / "small").write_text(json.dumps(config), encoding="utf-8")
        config["steps"][0]["additions"] = [huge]
        (tmp_path / "huge").write_text(json.dumps(config), encoding="utf-8")
        return ["workflow", "run", str(tmp_path / "huge")], ["workflow", "run", str(tmp_path / "small")]

    @pytest.mark.parametrize("reader", ["script", "axiom file", "master list", "workflow config"])
    def test_a_huge_input_to_each_other_reader(self, tmp_path, reader):
        huge, small = self.huge_input(tmp_path, reader)
        try:
            assert self.run(huge) == (3, b"", b"error: out of memory\n")
            assert not (tmp_path / "out").exists()
        finally:
            (tmp_path / "huge").unlink()
        assert self.run(small)[0] == 0 and any((tmp_path / "out").iterdir())


class TestDurableOutputs:
    def test_failed_directory_fsync_exits_4(self, capsys, tmp_path, monkeypatch):
        real_fsync = os.fsync

        def fail_on_directory(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fail_on_directory)
        out = tmp_path / "out"
        out.mkdir()
        code, stdout, err = run(capsys, "kg", "lower", *corpus_args(), "--out", str(out / "g.nt"))
        assert (code, stdout) == (4, "")
        assert err == f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"
        assert [path.name for path in out.iterdir()] == ["g.nt"]  # renamed, no temp file left


class TestOutputDirectories:
    """Every writing command makes the missing directories of its output and
    writes there the bytes it writes into an existing directory; a staging
    error names the output given, never the temp file."""

    def argv(self, tmp_path, command, out):
        graph, axioms = str(tmp_path / "g.nt"), str(tmp_path / "axioms.txt")
        masters = ["--classes", str(LISTING_DIR / "classes.json"),
                   "--predicates", str(LISTING_DIR / "predicates.json")]
        return {
            "kg lower": ["kg", "lower", *corpus_args()],
            "kg materialize": ["kg", "materialize", graph, "--schema", axioms],
            "overlay": ["overlay", *corpus_args(), "--image", "7171463996_900cb4ce33_b.jpg"],
            "apply": ["apply", str(LISTING_DIR / "script.txt"), *corpus_args()],
            "kg extract": ["kg", "extract", graph, *masters],
        }[command] + ["--out", str(out)]

    @pytest.mark.parametrize("command", ["kg lower", "kg materialize", "overlay", "apply", "kg extract"])
    def test_missing_nested_directory_is_made(self, capsys, tmp_path, command):
        assert run(capsys, *self.argv(tmp_path, "kg lower", tmp_path / "g.nt"))[0] == 0
        (tmp_path / "axioms.txt").write_text("prop near\nsymmetric near\n", encoding="utf-8")
        (tmp_path / "existing").mkdir()
        results = []
        for out in (tmp_path / "existing" / "out", tmp_path / "new" / "deeper" / "out"):
            code, stdout, err = run(capsys, *self.argv(tmp_path, command, out))
            results.append((code, stdout, err, out.read_bytes() if code == 0 else None))
        assert results[0][0] == 0, results[0]
        assert results[1] == results[0]
        assert sorted(p.name for p in (tmp_path / "new" / "deeper").iterdir()) == ["out"]

    def test_staging_error_names_the_output(self, capsys, tmp_path, monkeypatch):
        real_open = os.open

        def deny_temp_files(path, *args, **kwargs):
            # root ignores the mode bits, so the denial is injected here
            if os.fspath(path).endswith(".tmp"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", deny_temp_files)
        out = tmp_path / "new" / "g.nt"
        code, stdout, err = run(capsys, *self.argv(tmp_path, "kg lower", out))
        assert (code, stdout) == (4, "")
        assert err == f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{out}'\n"
        assert list((tmp_path / "new").iterdir()) == []  # the directory stays, empty

    @pytest.mark.parametrize("under", ["file", "file/deeper"])
    def test_output_under_a_regular_file(self, capsys, tmp_path, under):
        (tmp_path / "file").write_bytes(b"a file\n")
        out = tmp_path / under / "g.nt"
        code, stdout, err = run(capsys, *self.argv(tmp_path, "kg lower", out))
        assert (code, stdout) == (4, "")
        assert ".tmp" not in err
        assert err == f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_bytes() == b"a file\n"


def writing_commands(parser=None, prefix=()):
    """(words, subparser) of every command of `build_parser()` that takes --out."""
    parser = parser or build_parser()
    found = [(prefix, parser)] if "--out" in parser._option_string_actions else []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += writing_commands(sub, (*prefix, name))
    return found


def argument_name(action) -> str:
    """A flag as given, a positional by its name in capitals, as --out errors name them."""
    return action.option_strings[0] if action.option_strings else action.dest.upper()


NOT_FILES = {"-h", "--out", "--image", "--vr", "--namespace"}  # the arguments that name no file
IN_PLACE = {("apply",): "--annotations", ("kg", "materialize"): "GRAPH"}  # --out may be this input
COLLISIONS = [(words, name, form) for words, parser in writing_commands()
              for name in parser.get_default("inputs") or ["no inputs listed"]
              for form in ("direct", "symlink", "dot-dot")]


class TestOutputCollisions:
    """No --out may be the file of one of its command's inputs, once `..` and
    symbolic links are resolved: such a run exits 2 before any file is read,
    with one error line, every input as it was and no temp file.  Two commands
    may replace an input with a file of the same format."""

    def test_every_writing_command_lists_each_file_it_reads(self):
        for words, parser in writing_commands():
            files = {argument_name(action) for action in parser._actions} - NOT_FILES
            listed = parser.get_default("inputs") or ()
            assert len(set(listed)) == len(listed), words
            assert {*listed, IN_PLACE.get(words)} - {None} == files, words

    def files(self, tmp_path, parser):
        """Each file argument of the command -> a distinct file of its own bytes."""
        names = {argument_name(action) for action in parser._actions} - NOT_FILES
        paths = {}
        for index, name in enumerate(sorted(names)):
            paths[name] = tmp_path / f"input{index}"
            paths[name].write_bytes(f"{name} bytes\n".encode())
        return paths

    @pytest.mark.parametrize("words, name, form", COLLISIONS,
                             ids=[f"{' '.join(w)}-{n}-{f}" for w, n, f in COLLISIONS])
    def test_an_out_on_an_input_exits_2(self, capsys, tmp_path, words, name, form):
        parser = dict(writing_commands())[words]
        files = self.files(tmp_path, parser)
        out = {"direct": files[name], "symlink": tmp_path / "link",
               "dot-dot": tmp_path / "missing" / ".." / files[name].name}[form]
        if form == "symlink":
            out.symlink_to(files[name].name)
        argv = list(words)
        for action in parser._actions:
            key = argument_name(action)
            if key in files or (action.required and key != "--out"):
                value = str(files.get(key, "x"))
                argv += [value] if key.isupper() else [key, value]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: --out and {name} paths must differ\n")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_apply_may_replace_its_annotations(self, capsys, tmp_path):
        for name in OUTPUT_NAMES:
            shutil.copy(LISTING_DIR / name, tmp_path / name)
        annotations = str(tmp_path / "annotations.json")
        code, _, err = run(capsys, "apply", str(LISTING_DIR / "script.txt"), *corpus_args(tmp_path),
                           "--out", annotations)
        assert (code, err) == (0, "")
        assert load_corpus(annotations, *(tmp_path / name for name in OUTPUT_NAMES[1:])) \
            == load_listing_expected()
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(OUTPUT_NAMES)

    def test_materialize_may_replace_its_graph(self, capsys, tmp_path):
        graph, closed = tmp_path / "g.nt", tmp_path / "closed.nt"
        (tmp_path / "axioms.txt").write_text("prop near\nsymmetric near\n", encoding="utf-8")
        assert run(capsys, "kg", "lower", *corpus_args(), "--out", str(graph))[0] == 0
        schema = ["--schema", str(tmp_path / "axioms.txt")]
        assert run(capsys, "kg", "materialize", str(graph), *schema, "--out", str(closed))[0] == 0
        code, _, err = run(capsys, "kg", "materialize", str(graph), *schema, "--out", str(graph))
        assert (code, err) == (0, "")
        assert graph.read_bytes() == closed.read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["axioms.txt", "closed.nt", "g.nt"]


UNUSABLE_OUTPUTS = {  # a kind of output no command can write -> its errno
    "directory": errno.EISDIR,
    "under a file": errno.ENOTDIR,
    "named pipe": errno.EEXIST,
    "symlink loop": errno.ELOOP,
}


def unusable_output(directory, form, name="out"):
    """An output path of the given UNUSABLE_OUTPUTS kind in a directory."""
    out = directory / name
    if form == "directory":
        out.mkdir()
    elif form == "under a file":
        out.write_bytes(b"a file\n")
        out = out / "deeper"
    elif form == "named pipe":
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        os.mkfifo(out)
    else:
        out.symlink_to(out.name)
    return out


def output_error(out, form) -> str:
    code = UNUSABLE_OUTPUTS[form]
    reason = "File exists and is not a regular file" if code == errno.EEXIST else os.strerror(code)
    return f"error: [Errno {code}] {reason}: '{out}'\n"


class TestUnusableOutputFirst:
    """An output that cannot be written is refused, exit 4 with the one error
    line naming it, before any input is read: with every input missing, the
    error is the output's, and nothing is written."""

    @pytest.mark.parametrize("form", UNUSABLE_OUTPUTS)
    @pytest.mark.parametrize("words", [words for words, _ in writing_commands()], ids=" ".join)
    def test_every_writing_command(self, capsys, tmp_path, words, form):
        parser = dict(writing_commands())[words]
        argv = list(words)
        for action in parser._actions:
            key = argument_name(action)
            if action.required and key != "--out":
                value = "x" if key in NOT_FILES else str(tmp_path / "missing")
                argv += [value] if key.isupper() else [key, value]
        out = unusable_output(tmp_path, form)
        before = sorted(tmp_path.iterdir())
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout, err) == (4, "", output_error(out, form))
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("form", UNUSABLE_OUTPUTS)
    @pytest.mark.parametrize("output", ["output_annotations", "output_predicates"])
    def test_workflow_run(self, capsys, tmp_path, output, form):
        workdir = tmp_path / "run"
        shutil.copytree(DEMO_DIR, workdir, ignore=shutil.ignore_patterns("expected_*", "out"))
        (workdir / "annotations.json").unlink()
        out = unusable_output(workdir, form, "blocked")  # the config's other outputs are in out/
        raw = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
        raw[output] = str(out.relative_to(workdir))
        (workdir / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        before = sorted(workdir.iterdir())
        code, stdout, err = run(capsys, "workflow", "run", str(workdir / "config.json"))
        assert (code, stdout, err) == (4, "", output_error(out, form))
        assert sorted(workdir.iterdir()) == before


class TestDiff:
    def expected_dir(self, tmp_path):
        directory = tmp_path / "expected"
        directory.mkdir()
        save_corpus(
            load_listing_expected(),
            directory / "annotations.json",
            directory / "classes.json",
            directory / "predicates.json",
        )
        return directory

    def args(self, tmp_path):
        expected = self.expected_dir(tmp_path)
        return [
            str(LISTING_DIR / "annotations.json"),
            str(LISTING_DIR / "classes.json"),
            str(LISTING_DIR / "predicates.json"),
            str(expected / "annotations.json"),
            str(expected / "classes.json"),
            str(expected / "predicates.json"),
        ]

    def test_text(self, capsys, tmp_path):
        code, out, _ = run(capsys, "diff", *self.args(tmp_path))
        assert code == 0
        assert out == (
            "modified 1426904233_ee344879b6_b.jpg changed=1 added=0 removed=0\n"
            "modified 3223670633_7d3d72dfe8_b.jpg changed=1 added=0 removed=0\n"
            "modified 4929276486_ca06aedbb9_b.jpg changed=1 added=1 removed=0\n"
            "removed 7171463996_900cb4ce33_b.jpg\n"
            "modified 8934043045_251b42d19a_b.jpg changed=1 added=0 removed=0\n"
            "total: images_touched=5 changed=4 added=1 removed=0 "
            "images_added=0 images_removed=1\n"
        )

    def test_structured(self, capsys, tmp_path):
        code, out, _ = run(capsys, "diff", *self.args(tmp_path), "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["images_touched"] == 5
        assert payload["vrs_changed"] == 4
        assert payload["vrs_added"] == 1
        assert payload["images_removed"] == 1
        assert len(payload["images"]) == 5

    def test_structured_bytes(self, capsys, tmp_path):
        """Each delta is its fields as a JSON object; the bytes are fixed."""
        def vr(predicate, box):
            return {"subject": {"category": 0, "bbox": box}, "predicate": predicate,
                    "object": {"category": 1, "bbox": [0, 5, 0, 5]}}

        sides = {
            "before": {"a.jpg": [vr(0, [1, 2, 3, 4])],
                       "b.jpg": [vr(0, [1, 2, 3, 4]), vr(1, [2, 3, 4, 5])]},
            "after": {"b.jpg": [vr(1, [2, 3, 4, 5]), vr(1, [1, 2, 3, 4]), vr(1, [1, 2, 3, 4])],
                      'c "q" 東.jpg': []},
        }
        argv = []
        for side, annotations in sides.items():
            (tmp_path / side).mkdir()
            argv += map(str, write_corpus_files(tmp_path / side, annotations,
                                                ["person", "dog"], ["near", "on"]))
        code, out, _ = run(capsys, "diff", *argv, "--format", "structured")
        assert code == 0
        deltas = [("a.jpg", "removed", 0, 0, 0), ("b.jpg", "modified", 1, 1, 0),
                  ('c \\"q\\" 東.jpg', "added", 0, 0, 0)]
        images = ",\n".join(
            f'    {{\n      "added": {a},\n      "changed": {c},\n      "filename": "{name}",\n'
            f'      "removed": {r},\n      "status": "{status}"\n    }}'
            for name, status, c, a, r in deltas
        )
        assert out == (
            f'{{\n  "images": [\n{images}\n  ],\n  "images_added": 1,\n  "images_removed": 1,\n'
            '  "images_touched": 3,\n  "vrs_added": 1,\n  "vrs_changed": 1,\n  "vrs_removed": 0\n}\n'
        )

    def test_identical_corpora(self, capsys):
        left = [
            str(LISTING_DIR / "annotations.json"),
            str(LISTING_DIR / "classes.json"),
            str(LISTING_DIR / "predicates.json"),
        ]
        code, out, _ = run(capsys, "diff", *left, *left)
        assert code == 0
        assert out == (
            "total: images_touched=0 changed=0 added=0 removed=0 "
            "images_added=0 images_removed=0\n"
        )

    def test_a_sparse_edit_costs_about_one_model(self, capsys, tmp_path):
        """B is loaded onto A's objects, so the diff's peak stays near one model of A,
        not two (2.2 times one model when B was loaded apart)."""
        rng = random.Random(3407)
        before = repeating_corpus(rng, 1500)
        after = before.copy()
        for vrs in after.images.values():
            if rng.random() < 0.1:
                i = rng.randrange(len(vrs))
                vrs[i] = vrs[i]._replace(predicate_id=(vrs[i].predicate_id + 1) % 30)
        names = ("annotations.json", "classes.json", "predicates.json")
        paths = [write_corpus_bytes([tmp_path / f"{side}_{name}" for name in names], corpus)
                 for side, corpus in (("a", before), ("b", after))]
        argv = ["diff", *map(str, paths[0] + paths[1])]
        tracemalloc.start()
        try:
            model = load_corpus(*paths[0])
            size = tracemalloc.get_traced_memory()[0]
            del model
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        diff = diff_corpora(load_corpus(*paths[0]), load_corpus(*paths[1]))
        assert (code, capsys.readouterr().out.splitlines()[-1]) == (0, (
            f"total: images_touched={diff.images_touched} changed={diff.vrs_changed} added=0 removed=0 "
            "images_added=0 images_removed=0"))
        assert diff.images_touched > 100
        assert peak <= 1.5 * size, (peak, size)


class TestLineBreaksInNames:
    """A text report prints each name as it is, whatever line breaks it holds, so its
    bytes equal those the library's own results give."""

    CLASSES = ["per\nson", "ho\rrse", "ca\x85t", "do\u2028g"]
    PREDICATES = ["ri\nde", "ne\x85ar", "o\u2028n", "by\r"]

    def files(self, tmp_path, side, annotations):
        (tmp_path / side).mkdir()
        paths = write_corpus_files(tmp_path / side, annotations, self.CLASSES, self.PREDICATES)
        return [str(path) for path in paths]

    def test_text_reports_equal_the_library_output(self, capsys, tmp_path):
        box, other = [0, 4, 0, 4], [1, 5, 1, 5]
        kept = vr_record(2, box, 1, 3, box)  # one box under two classes
        before = self.files(tmp_path, "before", {
            "a\n.jpg": [vr_record(0, box, 0, 1, other)] * 2,  # an exact duplicate
            "b\u2028.jpg": [kept, vr_record(3, other, 3, 0, box)],
        })
        after = self.files(tmp_path, "after", {
            "b\u2028.jpg": [kept, vr_record(1, other, 2, 2, box)],
            "c\x85\r.jpg": [vr_record(0, box, 0, 1, other)],
        })
        corpus = load_corpus(*before)
        findings = analyze.lint(corpus)
        assert {f.rule.value for f in findings} >= {"ExactDuplicateVR", "MultiClassBbox"}
        histogram = analyze.distribution(corpus, "distinct_classes_per_image")
        result = analyze.query_images(corpus, analyze.parse_pattern("*, *, *"))
        diff = diff_corpora(corpus, load_corpus(*after))
        expected = {
            ("lint",): analyze.format_findings(findings),
            ("stats", "--distribution", histogram.metric):
                f"{histogram.metric}:\n" + "".join(f"  {v}: {n}\n" for v, n in histogram.buckets),
            ("query", "--pattern", "*, *, *"):
                "".join(f"{image}\n" for image in result.images)
                + "".join(f"{position}: {', '.join(names)}\n" for position, names in result.bindings.items()),
            ("query", "--count", "2"): "".join(f"{image}\n" for image in sorted(corpus.images)),
        }
        flags = ["--annotations", before[0], "--classes", before[1], "--predicates", before[2]]
        for (command, *options), text in expected.items():
            assert run(capsys, command, *flags, *options) == (0, text, "")
        assert [(d.filename, d.status) for d in diff.deltas] == [
            ("a\n.jpg", "removed"), ("b\u2028.jpg", "modified"), ("c\x85\r.jpg", "added")]
        assert run(capsys, "diff", *before, *after) == (0, (
            "removed a\n.jpg\n"
            "modified b\u2028.jpg changed=1 added=0 removed=0\n"
            "added c\x85\r.jpg\n"
            "total: images_touched=3 changed=1 added=0 removed=0 images_added=1 images_removed=1\n"
        ), "")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_option(self, capsys):
        assert run(capsys, "validate", "--annotations", "x.json")[0] == 2

    @pytest.mark.parametrize("command", [
        "validate", "stats", "query", "lint", "overlay", "apply", "workflow", "workflow run", "kg",
        "kg lower", "kg materialize", "kg extract", "diff",
    ])
    def test_subcommand_help(self, command):
        """Each subcommand's help, which prints the choices and defaults its parser
        reads, in a fresh interpreter under CI's flags, where any warning fails it."""
        src = Path(vrannot.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-X", "warn_default_encoding", "-W", "error",
             "-m", "vrannot.cli", *command.split(), "--help"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.startswith(b"usage: vrannot")
