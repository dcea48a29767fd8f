import errno
import gc
import io
import itertools
import json
import os
import random
import re
import stat
import tracemalloc
import types
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

import vrannot.corpus
from vrannot.corpus import (
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    CorpusDiff,
    CorpusStats,
    ImageDelta,
    VisualRelationship,
    _round_half_up,
    canonical_annotations_bytes,
    canonical_master_list_bytes,
    compute_stats,
    diff_corpora,
    find_exact_duplicates,
    input_lines,
    load_corpus,
    load_master_list,
    read_input,
    save_corpus,
)
from vrannot.errors import (
    DuplicateMasterNameError,
    FileMissingError,
    IdOutOfRangeError,
    MalformedRecordError,
    ParseError,
    UnknownNameError,
    VrannotError,
)

from helpers import (
    LISTING_DIR,
    check_result_tuple,
    decode_utf8,
    load_listing_corpus,
    random_bbox,
    random_corpus,
    random_vr,
    text_lines,
)


def write_corpus_files(tmp_path, annotations, classes, predicates):
    a = tmp_path / "annotations.json"
    c = tmp_path / "classes.json"
    p = tmp_path / "predicates.json"
    a.write_text(json.dumps(annotations), encoding="utf-8")
    c.write_text(json.dumps(classes), encoding="utf-8")
    p.write_text(json.dumps(predicates), encoding="utf-8")
    return a, c, p


def vr_record(subject_class, subject_bbox, predicate, object_class, object_bbox):
    return {
        "predicate": predicate,
        "subject": {"category": subject_class, "bbox": subject_bbox},
        "object": {"category": object_class, "bbox": object_bbox},
    }


class TestLoad:
    def test_empty_corpus(self, tmp_path):
        paths = write_corpus_files(tmp_path, {}, [], [])
        corpus = load_corpus(*paths)
        assert corpus.images == {}
        assert corpus.vr_count == 0

    def test_single_record(self, tmp_path):
        annotations = {"a.jpg": [vr_record(0, [0, 10, 0, 10], 0, 1, [5, 20, 5, 20])]}
        paths = write_corpus_files(tmp_path, annotations, ["person", "shelf"], ["on"])
        corpus = load_corpus(*paths)
        assert corpus.vr_count == 1
        vr = corpus.images["a.jpg"][0]
        assert corpus.vr_type_names(vr) == ("person", "on", "shelf")
        assert vr.subject.bbox == BoundingBox(0, 10, 0, 10)

    def test_class_id_out_of_range(self, tmp_path):
        annotations = {"a.jpg": [vr_record(5, [0, 10, 0, 10], 0, 1, [5, 20, 5, 20])]}
        paths = write_corpus_files(tmp_path, annotations, ["person", "shelf"], ["on"])
        with pytest.raises(IdOutOfRangeError) as err:
            load_corpus(*paths)
        assert err.value.field == "subject.category"
        assert err.value.value == 5

    def test_predicate_id_out_of_range(self, tmp_path):
        annotations = {"a.jpg": [vr_record(0, [0, 10, 0, 10], 3, 1, [5, 20, 5, 20])]}
        paths = write_corpus_files(tmp_path, annotations, ["person", "shelf"], ["on"])
        with pytest.raises(IdOutOfRangeError) as err:
            load_corpus(*paths)
        assert err.value.field == "predicate"

    def test_duplicate_master_name(self, tmp_path):
        paths = write_corpus_files(tmp_path, {}, ["person", "person"], ["on"])
        with pytest.raises(DuplicateMasterNameError):
            load_corpus(*paths)

    @pytest.mark.parametrize("which, what", [(1, "object class"), (2, "predicate")])
    @pytest.mark.parametrize("master", [{"person": 0}, ["person", 1], "person", None])
    def test_master_list_must_be_an_array_of_strings(self, tmp_path, which, what, master):
        paths = list(write_corpus_files(tmp_path, {}, ["person"], ["on"]))
        paths[which].write_text(json.dumps(master), encoding="utf-8")
        message = f"^{re.escape(str(paths[which]))}: {what} master list must be an array of strings$"
        with pytest.raises(MalformedRecordError, match=message):
            load_corpus(*paths)

    @pytest.mark.parametrize("which", [1, 2])
    def test_duplicate_key_in_master_list(self, tmp_path, which):
        paths = list(write_corpus_files(tmp_path, {}, ["person"], ["on"]))
        paths[which].write_text('{"a": 1, "a": 2}', encoding="utf-8")
        message = f"^{re.escape(str(paths[which]))}: duplicate key 'a'$"
        with pytest.raises(MalformedRecordError, match=message):
            load_corpus(*paths)

    def test_duplicate_image_key(self, tmp_path):
        _, c, p = write_corpus_files(tmp_path, {}, ["person"], ["on"])
        a = tmp_path / "annotations.json"
        a.write_text('{"a.jpg": [], "a.jpg": []}', encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            load_corpus(a, c, p)

    def test_missing_file(self, tmp_path):
        _, c, p = write_corpus_files(tmp_path, {}, [], [])
        with pytest.raises(FileMissingError):
            load_corpus(tmp_path / "nope.json", c, p)

    def test_bool_is_not_an_id(self, tmp_path):
        annotations = {"a.jpg": [vr_record(True, [0, 10, 0, 10], 0, 0, [5, 20, 5, 20])]}
        paths = write_corpus_files(tmp_path, annotations, ["person"], ["on"])
        with pytest.raises(MalformedRecordError):
            load_corpus(*paths)

    def test_bad_bbox_arity(self, tmp_path):
        annotations = {"a.jpg": [vr_record(0, [0, 10, 0], 0, 0, [5, 20, 5, 20])]}
        paths = write_corpus_files(tmp_path, annotations, ["person"], ["on"])
        with pytest.raises(MalformedRecordError):
            load_corpus(*paths)

    def test_extra_record_key_rejected(self, tmp_path):
        record = vr_record(0, [0, 10, 0, 10], 0, 0, [5, 20, 5, 20])
        record["note"] = "hm"
        paths = write_corpus_files(tmp_path, {"a.jpg": [record]}, ["person"], ["on"])
        with pytest.raises(MalformedRecordError):
            load_corpus(*paths)

    def test_degenerate_bbox_loads(self, tmp_path):
        annotations = {"a.jpg": [vr_record(0, [10, 10, 0, 10], 0, 0, [5, 20, 5, 20])]}
        paths = write_corpus_files(tmp_path, annotations, ["person"], ["on"])
        corpus = load_corpus(*paths)
        assert not corpus.images["a.jpg"][0].subject.bbox.well_formed

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_deep_nesting_is_a_load_error(self, tmp_path, which):
        paths = write_corpus_files(tmp_path, {}, [], [])
        paths[which].write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="nested too deeply") as err:
            load_corpus(*paths)
        assert err.value.location == str(paths[which])

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_huge_integer_is_a_load_error(self, tmp_path, which):
        """More digits than int() converts (4300 by default) is malformed data."""
        paths = write_corpus_files(tmp_path, {}, [], [])
        paths[which].write_text("[" + "9" * 5000 + "]", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="integer literal has too many digits") as err:
            load_corpus(*paths)
        assert err.value.location == str(paths[which])

    def test_lone_surrogate_image_key(self, tmp_path):
        _, c, p = write_corpus_files(tmp_path, {}, [], [])
        a = tmp_path / "annotations.json"
        a.write_text('{"a.jpg": [], "\\ud800.jpg": []}', encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=r"image key '\\ud800\.jpg'") as err:
            load_corpus(a, c, p)
        assert err.value.location == str(a)

    def test_lone_surrogate_after_an_earlier_problem(self, tmp_path):
        _, c, p = write_corpus_files(tmp_path, {}, [], [])
        a = tmp_path / "annotations.json"
        a.write_text('{"a.jpg": 7, "\\udc00.jpg": []}', encoding="utf-8")
        with pytest.raises(MalformedRecordError, match="array of records"):
            load_corpus(a, c, p)

    @pytest.mark.parametrize("which,what", [(1, "object class name"), (2, "predicate name")])
    def test_lone_surrogate_master_name(self, tmp_path, which, what):
        paths = write_corpus_files(tmp_path, {}, ["person"], ["on"])
        paths[which].write_text('["ok", "\\udfff"]', encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=what):
            load_corpus(*paths)

    def test_escaped_surrogate_pair_round_trips(self, tmp_path):
        _, c, p = write_corpus_files(tmp_path, {}, ["person"], ["on"])
        a = tmp_path / "annotations.json"
        a.write_text('{"\\ud83d\\ude00.jpg": []}', encoding="utf-8")
        corpus = load_corpus(a, c, p)
        assert list(corpus.images) == ["\U0001f600.jpg"]
        save_corpus(corpus, tmp_path / "saved.json")
        assert (tmp_path / "saved.json").read_text(encoding="utf-8") == '{\n  "\U0001f600.jpg": []\n}\n'

    @pytest.mark.parametrize("key", ["\\ud800a.jpg", "a\\udbffb.jpg", "a.jpg\\udc00", "\\ud83d.jpg"],
                             ids=["start", "middle", "end", "half-a-pair"])
    def test_lone_surrogate_anywhere_in_an_image_key(self, tmp_path, key):
        _, c, p = write_corpus_files(tmp_path, {}, [], [])
        a = tmp_path / "annotations.json"
        a.write_text(f'{{"{key}": []}}', encoding="utf-8")
        with pytest.raises(MalformedRecordError) as err:
            load_corpus(a, c, p)
        text = json.loads(f'"{key}"')
        assert (err.value.location, err.value.reason) == (str(a), f"image key {text!r} is not valid Unicode")

    def test_astral_character_in_an_image_key_loads(self, tmp_path):
        _, c, p = write_corpus_files(tmp_path, {}, [], [])
        a = tmp_path / "annotations.json"
        a.write_text('{"a\U0001f600.jpg": []}', encoding="utf-8")
        assert list(load_corpus(a, c, p).images) == ["a\U0001f600.jpg"]


# --------------------------------------------------------------------------
# reference loader: the record loop as it was before load validation was
# streamlined, kept verbatim as the oracle for accepted corpora and errors
# --------------------------------------------------------------------------


def _ref_reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise MalformedRecordError("annotations", f"duplicate key {key!r}")
        out[key] = value
    return out


def _ref_is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _ref_parse_bbox(raw, where):
    if not isinstance(raw, list) or len(raw) != 4 or any(not _ref_is_int(v) for v in raw):
        raise MalformedRecordError(where, f"bbox must be 4 integers, got {raw!r}")
    return BoundingBox(*raw)


def _ref_parse_annotated_object(raw, where):
    if not isinstance(raw, dict) or set(raw) != {"category", "bbox"}:
        raise MalformedRecordError(where, "expected an object with keys 'category' and 'bbox'")
    if not _ref_is_int(raw["category"]):
        raise MalformedRecordError(where, "category must be an integer")
    return AnnotatedObject(raw["category"], _ref_parse_bbox(raw["bbox"], where))


def reference_load_corpus(annotations_path, classes_path, predicates_path):
    classes = load_master_list(classes_path, "object class")
    predicates = load_master_list(predicates_path, "predicate")
    text = Path(annotations_path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text, object_pairs_hook=_ref_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(str(annotations_path), str(exc)) from None
    except MalformedRecordError as exc:  # a duplicate key is reported against its file
        raise MalformedRecordError(str(annotations_path), exc.reason) from None
    if not isinstance(raw, dict):
        raise MalformedRecordError(str(annotations_path), "annotations root must be an object")

    images = {}
    for image, records in raw.items():
        if not isinstance(records, list):
            raise MalformedRecordError(image, "image entry must be an array of records")
        vrs = []
        for index, record in enumerate(records):
            where = f"{image}[{index}]"
            if not isinstance(record, dict) or set(record) != {"predicate", "subject", "object"}:
                raise MalformedRecordError(
                    where, "expected keys 'predicate', 'subject' and 'object'"
                )
            if not _ref_is_int(record["predicate"]):
                raise MalformedRecordError(where, "predicate must be an integer")
            subject = _ref_parse_annotated_object(record["subject"], where + ".subject")
            obj = _ref_parse_annotated_object(record["object"], where + ".object")
            if not 0 <= subject.class_id < len(classes):
                raise IdOutOfRangeError(image, index, "subject.category", subject.class_id, len(classes))
            if not 0 <= obj.class_id < len(classes):
                raise IdOutOfRangeError(image, index, "object.category", obj.class_id, len(classes))
            if not 0 <= record["predicate"] < len(predicates):
                raise IdOutOfRangeError(image, index, "predicate", record["predicate"], len(predicates))
            vrs.append(VisualRelationship(subject, record["predicate"], obj))
        images[image] = vrs
    return AnnotationCorpus(images, classes, predicates)


class Pairs(list):
    """A JSON object given as (key, value) pairs, so that keys may repeat."""


class Repeating(dict):
    """A dict that json.dumps writes as the pairs it was made from, repeats included."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(self.pairs)

    def items(self):
        return self.pairs


def encodable(value):
    """The value with each Pairs as a Repeating, for json.dumps."""
    if isinstance(value, Pairs):
        return Repeating((key, encodable(v)) for key, v in value)
    if isinstance(value, dict):
        return {key: encodable(v) for key, v in value.items()}
    if isinstance(value, list):
        return [encodable(v) for v in value]
    return value


def dumps(value) -> str:
    """json.dumps that also writes Pairs, repeated keys included."""
    return json.dumps(encodable(value))


def raw_annotations(corpus):
    return json.loads(canonical_annotations_bytes(corpus))


def with_repeat(mapping: dict, rng) -> Pairs:
    """The mapping with one of its keys repeated at a random later position."""
    pairs = Pairs(mapping.items())
    key, value = rng.choice(pairs)
    pairs.insert(rng.randrange(pairs.index((key, value)) + 1, len(pairs) + 1), (key, value))
    return pairs


MUTATION_KINDS = (
    "drop record key", "extra record key", "drop object key", "extra object key",
    "odd category", "odd predicate", "short bbox", "long bbox", "odd bbox value",
    "bbox not a list", "category range", "predicate range", "non-dict record",
    "non-dict object", "non-list image", "non-dict root", "repeat root key",
    "repeat record key", "repeat object key",
)
# A participant retyped to hash and compare equal to an earlier one of its image:
# `True == 1 == 1.0` and `7.0 == 7`, so only the type checks can refuse it.
RETYPE_KINDS = ("category equal to an earlier one", "bbox value equal to an earlier one")


def mutate(raw: dict, rng, n_classes: int, n_predicates: int, touched: set,
           kinds=MUTATION_KINDS):
    """Apply one seeded single-field mutation of one of `kinds` to an image
    not yet in `touched`; returns (kind, new root)."""
    image = rng.choice([image for image, records in raw.items() if records and image not in touched])
    touched.add(image)
    records = raw[image]
    index = rng.randrange(len(records))
    record = records[index]
    side = rng.choice(("subject", "object"))
    kind = rng.choice(kinds)
    if kind in RETYPE_KINDS:
        if (index, side) == (0, "subject"):
            side = "object"
        participants = [(i, s) for i in range(index + 1) for s in ("subject", "object")]
        i, s = rng.choice(participants[:participants.index((index, side))])
        category, bbox = records[i][s]["category"], list(records[i][s]["bbox"])
        if kind == RETYPE_KINDS[0]:
            category = rng.choice((float(category), bool(category)) if category in (0, 1)
                                  else (float(category),))
        else:
            k = rng.randrange(4)
            bbox[k] = float(bbox[k])
        record[side] = {"category": category, "bbox": bbox}
    elif kind == "drop record key":
        del record[rng.choice(sorted(record))]
    elif kind == "extra record key":
        record[rng.choice(("note", "score", "Predicate"))] = rng.choice((0, "x", None))
    elif kind == "drop object key":
        del record[side][rng.choice(("category", "bbox"))]
    elif kind == "extra object key":
        record[side][rng.choice(("score", "name"))] = rng.choice((0.5, "x", []))
    elif kind == "odd category":
        record[side]["category"] = rng.choice((True, False, 1.0, 0.0, "1", None))
    elif kind == "odd predicate":
        record["predicate"] = rng.choice((True, False, 1.0, 0.0, "0", None))
    elif kind == "short bbox":
        record[side]["bbox"] = record[side]["bbox"][:3]
    elif kind == "long bbox":
        record[side]["bbox"] = record[side]["bbox"] + [7]
    elif kind == "odd bbox value":
        record[side]["bbox"][rng.randrange(4)] = rng.choice(("7", True, 7.0, None, [7]))
    elif kind == "bbox not a list":
        record[side]["bbox"] = rng.choice(("0,1,2,3", {"ymin": 0}, None, 4))
    elif kind == "category range":
        record[side]["category"] = rng.choice((n_classes, n_classes + 5, -1))
    elif kind == "predicate range":
        record["predicate"] = rng.choice((n_predicates, n_predicates + 5, -1))
    elif kind == "non-dict record":
        records[index] = rng.choice(([], "record", 3, None, [record]))
    elif kind == "non-dict object":
        record[side] = rng.choice(([], "object", 0, None))
    elif kind == "non-list image":
        raw[image] = rng.choice(({}, "records", 3, None, record))
    elif kind == "non-dict root":
        return kind, rng.choice(([raw], "annotations", None, 3))
    elif kind == "repeat root key":
        return kind, with_repeat(raw, rng)
    elif kind == "repeat record key":
        records[index] = with_repeat(record, rng)
    elif kind == "repeat object key":
        record[side] = with_repeat(record[side], rng)
    return kind, raw


def load_outcome(loader, paths):
    try:
        return loader(*paths)
    except VrannotError as exc:
        return type(exc), str(exc)


def read_pairs(lines) -> list[tuple[int, str]]:
    """The pairs of a line reader; a line holding `bad` is refused, as a
    parser refuses a malformed line."""
    pairs = []
    for line_no, line in lines:
        if "bad" in line:
            raise ParseError(line_no, "bad line")
        pairs.append((line_no, line))
    return pairs


def whole_file_outcome(data: bytes):
    try:
        return read_pairs(text_lines(decode_utf8(data, ParseError)))
    except VrannotError as exc:
        return type(exc), str(exc)


def streamed_outcome(data: bytes):
    handle = io.BytesIO(data)
    try:
        with input_lines(handle, ParseError) as lines:
            return read_pairs(lines)
    except VrannotError as exc:
        return type(exc), str(exc)
    finally:
        assert handle.closed


LINE_PIECES = (b"a", b" b\t", b"#c", b"bad", b"\n", b"\n", b"\r\n", b"\r", "\x85".encode(),
               "\u2028".encode(), "\u6771".encode(), b"\xff", b"\xe4", b"\xb8\xad", b"\xc3(",
               b"\xed\xa0\x80", b"\xf0\x9f\x98")


class TestLineReader:
    """The one reading policy of scripts, axiom files and dumps."""

    def test_lines_end_only_at_a_line_feed(self):
        text = "a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i\r\n  # note\n\n \t\n  j \rk \x0c\n"
        assert streamed_outcome(text.encode()) == [
            (1, "a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i"), (5, "j \rk")]

    @pytest.mark.parametrize("data", [
        b"a\n\xff\nb\n", b"a\nb\n\xf0\x9f\x98", b"a\n\xe4\n\xb8\xad\n", b"a\r\nb \r\n\r\n",
        b"a\rb\r#c\n", "a\x85b\n\u2028\n#\u2028c\n".encode(), b"bad\na\n\xc3(\n",
        b"a\nbad\n", b"\xff bad\n", b"", b"\n\n",
    ], ids=["bad-byte-mid-file", "bad-byte-at-end", "split-across-line-break", "crlf", "bare-cr",
            "unicode-breaks", "bad-line-before-bad-byte", "bad-line", "bad-byte-on-bad-line",
            "empty", "blank"])
    def test_matches_the_whole_file_reader(self, data):
        assert streamed_outcome(data) == whole_file_outcome(data)

    def test_matches_the_whole_file_reader_on_seeded_inputs(self):
        rng = random.Random(1301)
        kinds = Counter()
        for _ in range(3000):
            data = b"".join(rng.choice(LINE_PIECES) for _ in range(rng.randrange(12)))
            expected = whole_file_outcome(data)
            assert streamed_outcome(data) == expected, data
            kinds[expected[1].split(": ", 1)[1][:7] if isinstance(expected, tuple) else "ok"] += 1
        # lines read, bad lines and bad bytes were all reached
        assert min(kinds[k] for k in ("ok", "bad lin", "invalid")) > 50, kinds

    def test_missing_input(self, tmp_path):
        with pytest.raises(FileMissingError) as err:
            read_input(tmp_path / "absent.txt")
        assert str(err.value) == f"file not found: {tmp_path / 'absent.txt'}"

    def test_json_error_offsets_count_translated_line_breaks(self, tmp_path):
        """JSON inputs read as in text mode: `\\r\\n` and `\\r` count as one
        character each in the decoder's error position."""
        path = tmp_path / "classes.json"
        path.write_bytes(b'[\r\n  "a",\r\n]\r\n')
        with pytest.raises(MalformedRecordError) as err:
            load_master_list(path)
        assert str(err.value) == f"{path}: Expecting value: line 3 column 1 (char 9)"
        path.write_bytes(b'[\r"a",\r]')
        with pytest.raises(MalformedRecordError) as err:
            load_master_list(path)
        assert str(err.value) == f"{path}: Expecting value: line 3 column 1 (char 7)"


class TestLoaderOracle:
    def check(self, tmp_path, root, classes, predicates):
        a = tmp_path / "annotations.json"
        c = tmp_path / "classes.json"
        p = tmp_path / "predicates.json"
        a.write_text(dumps(root), encoding="utf-8")
        c.write_text(json.dumps(classes), encoding="utf-8")
        p.write_text(json.dumps(predicates), encoding="utf-8")
        expected = load_outcome(reference_load_corpus, (a, c, p))
        assert load_outcome(load_corpus, (a, c, p)) == expected
        return expected

    def test_valid_corpora_equal_reference(self, tmp_path):
        rng = random.Random(41)
        for _ in range(40):
            corpus = random_corpus(rng, max_images=12, allow_empty_images=True)
            outcome = self.check(
                tmp_path, raw_annotations(corpus), corpus.object_class_names, corpus.predicate_names
            )
            assert outcome == corpus

    def test_mutations_match_reference(self, tmp_path):
        rng = random.Random(43)
        kinds, errors = set(), set()
        for _ in range(400):
            corpus = random_corpus(rng, max_images=6, max_vrs=5)
            n_classes, n_predicates = len(corpus.object_class_names), len(corpus.predicate_names)
            root = raw_annotations(corpus)
            touched = set()
            for _ in range(min(len(root), rng.choice((1, 1, 1, 2)))):
                kind, root = mutate(root, rng, n_classes, n_predicates, touched)
                kinds.add(kind)
                if not isinstance(root, dict):
                    break
            outcome = self.check(
                tmp_path, root, corpus.object_class_names, corpus.predicate_names
            )
            if isinstance(outcome, tuple):
                errors.add(outcome[0])
        assert len(kinds) == 19
        assert errors == {MalformedRecordError, IdOutOfRangeError}

    def test_first_problem_in_file_order(self, tmp_path):
        good = vr_record(0, [0, 10, 0, 10], 0, 0, [5, 20, 5, 20])
        late_range = vr_record(0, [0, 10, 0, 10], 0, 9, [5, 20, 5, 20])
        early_range = vr_record(0, [0, 10, 0, 10], 9, 0, [5, 20, 5, 20])
        bad_bbox = vr_record(0, [0, 10, 0], 0, 0, [5, 20, 5, 20])
        root = {"a.jpg": [good, late_range], "b.jpg": [bad_bbox, early_range]}
        outcome = self.check(tmp_path, root, ["person"], ["on"])
        assert outcome == (
            IdOutOfRangeError,
            "a.jpg: vr 1: object.category=9 out of range (master list has 1 entries)",
        )

    def test_equal_participants_share_one_object(self, tmp_path):
        box = [0, 10, 0, 10]
        records = [vr_record(0, box, 0, 0, box), vr_record(0, list(box), 0, 1, [1, 2, 3, 4])]
        paths = write_corpus_files(tmp_path, {"a.jpg": records}, ["person", "cup"], ["on"])
        first, second = load_corpus(*paths).images["a.jpg"]
        assert first.subject is first.object is second.subject
        assert second.object == AnnotatedObject(1, BoundingBox(1, 2, 3, 4))

    def test_two_problems_in_one_record(self, tmp_path):
        # Which of two problems is reported depends only on the check order.
        faults = (
            lambda r: r.update(predicate=1.0),
            lambda r: r.update(predicate=5),
            lambda r: r.update(note=0),
            *(
                fault
                for side in ("subject", "object")
                for fault in (
                    lambda r, side=side: r[side].update(category=True),
                    lambda r, side=side: r[side].update(category=5),
                    lambda r, side=side: r[side].update(bbox=[0, 1]),
                    lambda r, side=side: r[side].update(score=0.5),
                )
            ),
        )
        errors = set()
        for first, second in itertools.permutations(faults, 2):
            record = vr_record(0, [0, 10, 0, 10], 0, 0, [5, 20, 5, 20])
            first(record)
            second(record)
            outcome = self.check(tmp_path, {"a.jpg": [record]}, ["person"], ["on"])
            errors.add(outcome[0])
        assert errors == {MalformedRecordError, IdOutOfRangeError}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, tmp_path, enabled):
        good = write_corpus_files(
            tmp_path, {"a.jpg": [vr_record(0, [0, 1, 0, 1], 0, 0, [0, 1, 0, 1])]}, ["c"], ["p"]
        )
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        bad = write_corpus_files(
            bad_dir, {"a.jpg": [vr_record(3, [0, 1, 0, 1], 0, 0, [0, 1, 0, 1])]}, ["c"], ["p"]
        )
        (bad_dir / "broken.json").write_text('{"a.jpg": [', encoding="utf-8")
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            load_corpus(*good)
            assert gc.isenabled() is enabled
            with pytest.raises(IdOutOfRangeError):
                load_corpus(*bad)
            assert gc.isenabled() is enabled
            with pytest.raises(MalformedRecordError):
                load_corpus(bad_dir / "broken.json", bad[1], bad[2])
            assert gc.isenabled() is enabled
            with pytest.raises(FileMissingError):
                load_corpus(bad_dir / "missing.json", bad[1], bad[2])
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()


class TestLoaderExactTypes:
    """The loader builds values without their Python constructors and tests
    shapes by exact class; it must still refuse what the reference refuses."""

    check = TestLoaderOracle.check

    def test_retypes_equal_to_an_earlier_participant_are_refused(self, tmp_path):
        rng = random.Random(47)
        kinds = Counter()
        for _ in range(120):
            corpus = random_corpus(rng, max_images=4, max_vrs=5)
            kind, root = mutate(raw_annotations(corpus), rng, len(corpus.object_class_names),
                                len(corpus.predicate_names), set(), RETYPE_KINDS)
            outcome = self.check(tmp_path, root, corpus.object_class_names, corpus.predicate_names)
            assert outcome[0] is MalformedRecordError, (kind, root)
            kinds[kind] += 1
        assert min(kinds[kind] for kind in RETYPE_KINDS) > 30, kinds

    def test_a_later_duplicate_key_wins_over_an_earlier_problem(self, tmp_path):
        """Duplicate keys are found while the JSON is decoded, before any record is checked."""
        lacking = vr_record(0, [0, 10, 0, 10], 0, 0, [5, 20, 5, 20])
        del lacking["object"]
        repeating = Pairs(vr_record(0, [0, 10, 0, 10], 0, 0, [5, 20, 5, 20]).items())
        repeating.append(("predicate", 0))
        outcome = self.check(tmp_path, {"x.jpg": [lacking], "y.jpg": [repeating]}, ["c"], ["p"])
        assert outcome == (MalformedRecordError, f"{tmp_path / 'annotations.json'}: duplicate key 'predicate'")

    def test_loaded_values_have_the_exact_types(self, tmp_path):
        corpus = random_corpus(random.Random(53), max_images=12)
        loaded = self.check(tmp_path, raw_annotations(corpus), corpus.object_class_names,
                            corpus.predicate_names)
        assert loaded == corpus
        for vr in itertools.chain.from_iterable(loaded.images.values()):
            assert type(vr) is VisualRelationship
            for obj in (vr.subject, vr.object):
                assert type(obj) is AnnotatedObject and type(obj.bbox) is BoundingBox
                assert {type(value) for value in (vr.predicate_id, obj.class_id, *obj.bbox)} == {int}


# Image-key characters that are JSON punctuation, need an escape or are not ASCII.
KEY_ALPHABET = 'a.:{},[]"\\ \t\x01é東😀\u2028'


def exotic_keys(corpus, rng):
    """The corpus with its images renamed to keys drawn from KEY_ALPHABET."""
    images = {
        f"{n}{''.join(rng.choice(KEY_ALPHABET) for _ in range(rng.randrange(6)))}": vrs
        for n, vrs in enumerate(corpus.images.values())
    }
    return AnnotationCorpus(images, corpus.object_class_names, corpus.predicate_names)


# Ways to write one root: whitespace, line ends, key order and escapes vary.
LAYOUTS = {
    "dumps": dumps,
    "indented-sorted": lambda root: json.dumps(
        encodable(root), indent=2, sort_keys=True, ensure_ascii=False),
    "compact": lambda root: json.dumps(
        encodable(root), separators=(",", ":"), ensure_ascii=False),
    "crlf": lambda root: json.dumps(
        encodable(root), indent=1, ensure_ascii=False).replace("\n", "\r\n"),
    "tabs": lambda root: " \t\r\n" + json.dumps(
        encodable(root), indent="\t", ensure_ascii=False) + "\n\t ",
    "ascii-escapes": lambda root: json.dumps(encodable(root), indent=2, ensure_ascii=True),
}

RECORD = '{"predicate": 0, "subject": {"category": 0, "bbox": [0, 1, 0, 1]}, ' \
         '"object": {"category": 0, "bbox": [0, 1, 0, 1]}}'
EDGE_TEXTS = {
    "empty-object": "{}",
    "spaced-empty-object": " \r\n{ \t}\n ",
    "bom": "\ufeff{}",
    "array-root": "[]",
    "empty-file": "",
    "whitespace-only": " \n",
    "trailing-comma": f'{{"a.jpg": [{RECORD}],}}',
    "trailing-data": '{"a.jpg": []} x',
    "second-root": '{"a.jpg": []}{}',
    "no-close": '{"a.jpg": []',
    "no-colon": '{"a.jpg" []}',
    "no-comma": '{"a.jpg": [] "b.jpg": []}',
    "number-key": '{"a.jpg": [], 1: []}',
    "raw-control-character-in-key": '{"a\x01.jpg": []}',
    "bad-escape-in-key": '{"a\\x.jpg": []}',
    "nan-entry": '{"a.jpg": NaN}',
    "repeated-image-after-a-record-problem":
        f'{{"a.jpg": [{{"predicate": 0}}], "b.jpg": [{RECORD}], "a.jpg": []}}',
    "repeated-escaped-record-key": '{"a.jpg": [' + RECORD[:-1] + ', "\\u0070redicate": 0}]}',
    "colon-in-a-string-value":
        '{"a.jpg": [' + RECORD.replace('"predicate": 0', '"predicate": ":"') + "]}",
    "equal-keys-escaped-differently": '{"a.jpg": [], "\\u0061.jpg": []}',
}


def check_text(tmp_path, text, classes=("c",), predicates=("p",)):
    """Load `text` as the annotations file; the outcome must equal the reference's."""
    paths = tuple(tmp_path / f"{name}.json" for name in ("annotations", "classes", "predicates"))
    paths[0].write_bytes(text.encode("utf-8"))
    paths[1].write_text(json.dumps(list(classes)), encoding="utf-8")
    paths[2].write_text(json.dumps(list(predicates)), encoding="utf-8")
    expected = load_outcome(reference_load_corpus, paths)
    assert load_outcome(load_corpus, paths) == expected, text
    return expected


class TestLoaderLayouts:
    """A valid file is decoded an image at a time, anything else strictly;
    both must give the reference's outcome however the file is laid out."""

    def test_valid_corpora_in_every_layout(self, tmp_path):
        rng = random.Random(59)
        for _ in range(30):
            corpus = exotic_keys(random_corpus(rng, max_images=8, allow_empty_images=True), rng)
            root = raw_annotations(corpus)
            for layout in LAYOUTS.values():
                outcome = check_text(tmp_path, layout(root), corpus.object_class_names,
                                     corpus.predicate_names)
                assert outcome == corpus

    def test_mutations_in_every_layout(self, tmp_path):
        rng = random.Random(61)
        kinds, errors = set(), set()
        for _ in range(150):
            corpus = exotic_keys(random_corpus(rng, max_images=5, max_vrs=4), rng)
            root = raw_annotations(corpus)
            kind, root = mutate(root, rng, len(corpus.object_class_names),
                                len(corpus.predicate_names), set())
            kinds.add(kind)
            for layout in LAYOUTS.values():
                outcome = check_text(tmp_path, layout(root), corpus.object_class_names,
                                     corpus.predicate_names)
                errors.add(outcome[0])
        assert len(kinds) == len(MUTATION_KINDS)
        assert errors == {MalformedRecordError, IdOutOfRangeError}

    @pytest.mark.parametrize("text", EDGE_TEXTS.values(), ids=EDGE_TEXTS.keys())
    def test_edge_texts(self, tmp_path, text):
        check_text(tmp_path, text)

    def test_a_valid_file_skips_the_strict_decode(self, tmp_path, monkeypatch):
        corpus = exotic_keys(random_corpus(random.Random(67), max_images=10), random.Random(68))
        corpus.images['a:b "c" \\d {e}, é.jpg'] = []
        decoded = []
        strict = vrannot.corpus._load_json
        monkeypatch.setattr(vrannot.corpus, "_load_json",
                            lambda path, *rest: decoded.append(path.name) or strict(path, *rest))
        for layout in LAYOUTS.values():
            text = layout(raw_annotations(corpus))
            assert check_text(tmp_path, text, corpus.object_class_names,
                              corpus.predicate_names) == corpus
        assert set(decoded) == {"classes.json", "predicates.json"}  # only these are strict
        check_text(tmp_path, EDGE_TEXTS["repeated-escaped-record-key"])
        assert decoded[-1] == "annotations.json"  # an unproven file falls back to it

    def test_peak_memory_stays_below_three_file_sizes(self, tmp_path):
        # The decoded records of one image at a time are held next to the
        # text and the model, never the dict tree of the whole file.
        rng = random.Random(71)
        images = {f"img_{k:04d}.jpg": [random_vr(rng, 60, 30) for _ in range(8)]
                  for k in range(600)}
        corpus = AnnotationCorpus(images, [f"c{k}" for k in range(60)],
                                  [f"p{k}" for k in range(30)])
        paths = tuple(tmp_path / name for name in ("a.json", "c.json", "p.json"))
        save_corpus(corpus, *paths)
        tracemalloc.start()
        try:
            loaded = load_corpus(*paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == corpus
        assert peak < 3 * paths[0].stat().st_size


class TestChunkedLoaderLayouts(TestLoaderLayouts):
    """Every layout test again, with the scan's window read 1 to 7 characters
    at a time, so that each step of the scan meets the window's end."""

    @pytest.fixture(autouse=True, params=range(1, 8))
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(vrannot.corpus, "_CHUNK", request.param)


class OneByteFile(io.FileIO):
    """A file that gives at most one byte a read, so that the text decoder
    meets every byte edge."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:1])


class CountingText(io.TextIOWrapper):
    """A text stream that records the sizes its reads ask for."""

    sizes: list = []

    def read(self, size=-1):
        if size >= 0:  # not the strict decode's whole-file read of a master list
            self.sizes.append(size)
        return super().read(size)


def uniform_corpus(rng, images=("a.jpg",), vrs=2000):
    return AnnotationCorpus({image: [random_vr(rng, 6, 4) for _ in range(vrs)] for image in images},
                            [f"c{k}" for k in range(6)], [f"p{k}" for k in range(4)])


class TestChunkEdges:
    """The window's end may cut a character, a line end or an image's array."""

    TEXTS = {
        "multi-byte-keys": '{"é中.jpg": [%s], "\U0001F600 .jpg": [], "bé": [%s]}'
                           % (RECORD, RECORD),
        "crlf": '{\r\n"a.jpg": [\r\n%s\r\n],\r\n"b.jpg": []\r\n}\r\n' % RECORD,
        "bare-cr": '{\r"a.jpg":\r[%s],\r"b.jpg": []}\r' % RECORD,
        "bom": "\ufeff{\"a.jpg\": []}",
    }

    @pytest.fixture
    def one_byte_reads(self, monkeypatch):
        monkeypatch.setattr(vrannot.corpus, "_open_input",
                            lambda path: io.BufferedReader(OneByteFile(path)))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 1 << 16])
    @pytest.mark.parametrize("name", TEXTS)
    def test_every_byte_edge(self, tmp_path, monkeypatch, one_byte_reads, name, chunk):
        monkeypatch.setattr(vrannot.corpus, "_CHUNK", chunk)
        check_text(tmp_path, self.TEXTS[name])

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_invalid_utf_8_is_placed_in_the_whole_file(self, tmp_path, monkeypatch,
                                                      one_byte_reads, chunk):
        monkeypatch.setattr(vrannot.corpus, "_CHUNK", chunk)
        data = b'{"a.jpg": [' + RECORD.encode() + b'],\r\n"\xe4\xb8.jpg": []}'
        paths = tuple(tmp_path / f"{n}.json" for n in ("annotations", "classes", "predicates"))
        paths[0].write_bytes(data)
        paths[1].write_text('["c"]', encoding="utf-8")
        paths[2].write_text('["p"]', encoding="utf-8")
        outcome = load_outcome(load_corpus, paths)
        assert outcome == load_outcome(reference_load_corpus_bytes, paths)
        offset = data.index(b"\xe4")
        assert f"position {offset}-" in outcome[1]  # a byte offset in the whole file

    def counted_load(self, tmp_path, monkeypatch, corpus, edit=lambda text: text):
        """The outcome of loading `corpus`'s files, its annotations text passed
        through `edit`, with 7-character chunks; the sizes the scan read; and
        the length of the text."""
        paths = tuple(tmp_path / name for name in ("a.json", "c.json", "p.json"))
        save_corpus(corpus, *paths)
        text = edit(paths[0].read_text(encoding="utf-8"))
        paths[0].write_text(text, encoding="utf-8")
        monkeypatch.setattr(vrannot.corpus, "_CHUNK", 7)
        monkeypatch.setattr(vrannot.corpus, "io", types.SimpleNamespace(
            TextIOWrapper=CountingText, BytesIO=io.BytesIO))
        monkeypatch.setattr(CountingText, "sizes", [])
        return load_outcome(load_corpus, paths), CountingText.sizes, len(text)

    def test_a_huge_image_is_read_in_doubling_chunks(self, tmp_path, monkeypatch):
        corpus = uniform_corpus(random.Random(73))
        outcome, sizes, length = self.counted_load(tmp_path, monkeypatch, corpus)
        assert outcome == corpus
        # One read a doubling, not one a chunk: the array is decoded O(log n) times.
        assert sizes == [7 << k for k in range(len(sizes))]
        assert len(sizes) <= (length // 7).bit_length() + 1

    def test_the_read_size_resets_after_an_image(self, tmp_path, monkeypatch):
        corpus = uniform_corpus(random.Random(79), ("a.jpg", "b.jpg", "c.jpg"), vrs=300)
        outcome, sizes, _ = self.counted_load(tmp_path, monkeypatch, corpus)
        assert outcome == corpus
        starts = [k for k, size in enumerate(sizes) if size == 7]
        assert len(starts) >= 2  # a kept image starts the doubling again
        for start, stop in zip(starts, starts[1:] + [len(sizes)]):
            assert sizes[start:stop] == [7 << k for k in range(stop - start)]

    def test_a_record_problem_is_not_read_past(self, tmp_path, monkeypatch):
        # More text cannot mend a decoded array, so the strict decode starts at once.
        corpus = uniform_corpus(random.Random(89), [f"{k:02d}.jpg" for k in range(50)], vrs=20)
        outcome, sizes, length = self.counted_load(
            tmp_path, monkeypatch, corpus,
            lambda text: re.sub(r'"predicate": \d+', '"predicate": 99', text, count=1))
        assert outcome[0] is IdOutOfRangeError
        assert sum(sizes) < length / 10


class TestSettledErrors:
    """A syntax error short of the window's end is no cut: the strict decode
    runs at once.  A string or whitespace run longer than a chunk is still read on."""

    def load(self, tmp_path, monkeypatch, corpus, edit):
        """The outcome of loading `corpus`'s files, its annotations text passed through
        `edit`; the characters the scan asked for before each strict decode; the text."""
        paths = tuple(tmp_path / name for name in ("a.json", "c.json", "p.json"))
        save_corpus(corpus, *paths)
        text = edit(paths[0].read_text(encoding="utf-8"))
        paths[0].write_text(text, encoding="utf-8")
        monkeypatch.setattr(vrannot.corpus, "io", types.SimpleNamespace(
            TextIOWrapper=CountingText, BytesIO=io.BytesIO))
        monkeypatch.setattr(CountingText, "sizes", [])
        strict, decoded = vrannot.corpus._load_json, []
        monkeypatch.setattr(vrannot.corpus, "_load_json", lambda path, *rest: decoded.append(
            (path.name, sum(CountingText.sizes))) or strict(path, *rest))
        return load_outcome(load_corpus, paths), decoded, text

    def test_an_early_syntax_error_is_not_read_past(self, tmp_path, monkeypatch):
        corpus = uniform_corpus(random.Random(97), [f"{k:03d}.jpg" for k in range(200)], vrs=8)
        outcome, decoded, text = self.load(
            tmp_path, monkeypatch, corpus,
            lambda text: text.replace('"predicate":', '"predicate"', 1))
        chunk = vrannot.corpus._CHUNK
        assert len(text) > 4 * chunk
        assert decoded[-1][0] == "a.json" and decoded[-1][1] <= 3 * chunk
        paths = tuple(tmp_path / name for name in ("a.json", "c.json", "p.json"))
        monkeypatch.undo()
        assert outcome == load_outcome(reference_load_corpus, paths)
        assert outcome[0] is MalformedRecordError and "Expecting ':' delimiter" in outcome[1]

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace('.jpg"', '.jpg' + "x" * 70000 + '"', 1),
        lambda text: text.replace('":', '"' + " " * 70000 + ":", 1),
        lambda text: text.replace('": [', '":' + "\n" * 70000 + " [", 1),
        lambda text: text.replace("],", "]" + "\t" * 70000 + ",", 1),
        lambda text: text.replace('\n  ],\n  "b.jpg"', '\n  ]' + "\t" * 70000 + ',\n  "b.jpg"'),
        lambda text: text.replace('\n  ],\n  "b.jpg"', '\n  ],' + " " * 70000 + '"b.jpg"'),
        lambda text: text + " " * 70000,
    ], ids=["long-key", "before-colon", "after-colon", "inside-array", "before-comma",
            "after-comma", "after-root"])
    def test_a_valid_file_with_long_tokens_skips_the_strict_decode(self, tmp_path, monkeypatch,
                                                                   edit):
        corpus = uniform_corpus(random.Random(101), ("a.jpg", "b.jpg"), vrs=40)
        outcome, decoded, text = self.load(tmp_path, monkeypatch, corpus, edit)
        assert len(text) > 70000
        assert [name for name, _ in decoded] == ["c.json", "p.json"]
        assert list(outcome.images.values()) == list(corpus.images.values())


def reference_load_corpus_bytes(annotations_path, classes_path, predicates_path):
    """`reference_load_corpus`, with an undecodable file refused as a whole-file decode refuses it."""
    try:
        Path(annotations_path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecordError(str(annotations_path), str(exc)) from None
    return reference_load_corpus(annotations_path, classes_path, predicates_path)


class TestBoundedMemory:
    """Load and save hold memory in proportion to one image, not to the file."""

    def corpus(self):
        # As in VRD, each object of an image takes part in several of its VRs, so
        # the model is smaller than its file and a peak above it is the load's own.
        rng = random.Random(83)
        images = {}
        for k in range(601):
            objects = [AnnotatedObject(rng.randrange(60), random_bbox(rng)) for _ in range(4)]
            images[f"img_{k:04d}.jpg"] = [
                VisualRelationship(subject, rng.randrange(30), obj)
                for subject, obj in (rng.sample(objects, 2) for _ in range(8))]
        images["img_東京.jpg"] = images.pop("img_0600.jpg")
        return AnnotationCorpus(images, [f"c{k}" for k in range(60)], [f"p{k}" for k in range(30)])

    def test_load_peak_stays_near_the_model(self, tmp_path):
        # One CJK filename made a whole-file str two bytes a character; the
        # window holds only the text of the images read next.
        corpus = self.corpus()
        paths = tuple(tmp_path / name for name in ("a.json", "c.json", "p.json"))
        save_corpus(corpus, *paths)
        tracemalloc.start()
        try:
            loaded = load_corpus(*paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == corpus
        assert peak <= 1.5 * paths[0].stat().st_size

    def test_save_peak_stays_near_one_entry(self, tmp_path):
        corpus = self.corpus()
        out = tmp_path / "a.json"
        tracemalloc.start()
        try:
            save_corpus(corpus, out, tmp_path / "c.json", tmp_path / "p.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == canonical_annotations_bytes(corpus)
        assert peak <= 0.05 * out.stat().st_size

    def test_a_save_failing_partway_replaces_nothing(self, tmp_path, monkeypatch):
        corpus = self.corpus()
        corpus.images["zz_\ud800.jpg"] = []  # sorted last: no UTF-8 form
        out = tmp_path / "out"
        out.mkdir()
        paths = [out / "annotations.json", out / "classes.json", out / "predicates.json"]
        for path in paths:
            path.write_bytes(b"previous " + path.name.encode() + b"\n")
        before = tree(tmp_path)
        written = []
        chunks = vrannot.corpus._annotations_chunks

        def counted(corpus):
            for chunk in chunks(corpus):
                written.append(len(chunk))
                yield chunk

        monkeypatch.setattr(vrannot.corpus, "_annotations_chunks", counted)
        with pytest.raises(UnicodeEncodeError):
            save_corpus(corpus, *paths)
        assert len(written) == len(corpus.images) - 1  # the entries before it were written
        assert tree(tmp_path) == before


def plain(value):
    """The nested plain tuple of a value's fields, read by attribute name."""
    if isinstance(value, VisualRelationship):
        return (plain(value.subject), value.predicate_id, plain(value.object))
    if isinstance(value, AnnotatedObject):
        return (value.class_id, plain(value.bbox))
    return (value.ymin, value.ymax, value.xmin, value.xmax)


class TestValueLayout:
    """The value types hash, compare and order as the tuples of their fields;
    sorted outputs and the loader's participant sharing rest on that."""

    def seeded_values(self, seed):
        rng = random.Random(seed)
        vrs = [random_vr(rng, 3, 2) for _ in range(60)]
        vrs += [VisualRelationship(vr.object, vr.predicate_id, vr.subject) for vr in vrs[:20]]
        vrs += [VisualRelationship(*vr) for vr in vrs[:10]]  # value-equal, not identical
        objects = [o for vr in vrs for o in (vr.subject, vr.object)]
        return [vrs, objects, [o.bbox for o in objects]]

    @pytest.mark.parametrize("seed", range(5))
    def test_hash_equality_and_order_follow_the_field_tuple(self, seed):
        for values in self.seeded_values(seed):
            for a in values:
                assert hash(a) == hash(plain(a))
                assert a == plain(a) and not a != plain(a)
            for a, b in itertools.product(values[:40], repeat=2):
                assert (a == b) == (plain(a) == plain(b))
                assert (a < b) == (plain(a) < plain(b))
                assert (a <= b) == (plain(a) <= plain(b))

    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_boxes_keep_the_field_order(self, seed):
        boxes = self.seeded_values(seed)[2]
        by_fields = sorted(boxes, key=lambda b: (b.ymin, b.ymax, b.xmin, b.xmax))
        assert sorted(boxes) == by_fields
        assert [plain(b) for b in sorted(boxes)] == [plain(b) for b in by_fields]

    def test_fields_keep_their_names_and_order(self):
        vr = VisualRelationship(
            AnnotatedObject(1, BoundingBox(2, 3, 4, 5)), 6, AnnotatedObject(7, BoundingBox(8, 9, 10, 11))
        )
        assert BoundingBox._fields == ("ymin", "ymax", "xmin", "xmax")
        assert AnnotatedObject._fields == ("class_id", "bbox")
        assert VisualRelationship._fields == ("subject", "predicate_id", "object")
        assert vr == ((1, (2, 3, 4, 5)), 6, (7, (8, 9, 10, 11)))
        assert vr._replace(predicate_id=0) == ((1, (2, 3, 4, 5)), 0, (7, (8, 9, 10, 11)))

    @pytest.mark.parametrize("seed", range(5))
    def test_loaded_equal_participants_are_one_object(self, tmp_path, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, max_vrs=12)
        for image, vrs in corpus.images.items():  # draw participants from a small pool
            pool = [AnnotatedObject(*o) for vr in vrs[:2] for o in (vr.subject, vr.object)]
            vrs[:] = [
                VisualRelationship(rng.choice(pool), vr.predicate_id, rng.choice(pool)) for vr in vrs
            ]
        paths = [tmp_path / "a.json", tmp_path / "c.json", tmp_path / "p.json"]
        save_corpus(corpus, *paths)
        loaded = load_corpus(*paths)
        assert loaded.images == corpus.images
        for vrs in loaded.images.values():
            first = {}
            for o in (o for vr in vrs for o in (vr.subject, vr.object)):
                assert first.setdefault(o, o) is o


class TestSave:
    def test_round_trip_value_equality(self, tmp_path):
        corpus = load_listing_corpus()
        out = tmp_path / "out.json"
        save_corpus(corpus, out, tmp_path / "c.json", tmp_path / "p.json")
        again = load_corpus(out, tmp_path / "c.json", tmp_path / "p.json")
        assert again == corpus

    def test_canonical_fixed_point(self, tmp_path):
        corpus = load_listing_corpus()
        first = canonical_annotations_bytes(corpus)
        (tmp_path / "a.json").write_bytes(first)
        reloaded = load_corpus(
            tmp_path / "a.json", LISTING_DIR / "classes.json", LISTING_DIR / "predicates.json"
        )
        assert canonical_annotations_bytes(reloaded) == first

    def test_insertion_order_irrelevant(self):
        vr = VisualRelationship(
            AnnotatedObject(0, BoundingBox(0, 5, 0, 5)), 0, AnnotatedObject(0, BoundingBox(1, 6, 1, 6))
        )
        a = AnnotationCorpus({"x.jpg": [vr], "y.jpg": []}, ["c"], ["p"])
        b = AnnotationCorpus({"y.jpg": [], "x.jpg": [vr]}, ["c"], ["p"])
        assert canonical_annotations_bytes(a) == canonical_annotations_bytes(b)

    def test_vr_order_preserved(self, tmp_path):
        corpus = load_listing_corpus()
        out = tmp_path / "a.json"
        save_corpus(corpus, out)
        again = load_corpus(out, LISTING_DIR / "classes.json", LISTING_DIR / "predicates.json")
        for image in corpus.images:
            assert again.images[image] == corpus.images[image]


def tree(directory):
    """Every path under `directory` with its bytes (None for a directory)."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes() if path.is_file() else None
        for path in sorted(directory.rglob("*"))
    }


class TestAllOrNothingSave:
    """A failed save leaves earlier outputs byte-identical and no temp file."""

    def outputs(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        paths = [out / "annotations.json", out / "classes.json", out / "predicates.json"]
        for path in paths:
            path.write_bytes(b"previous " + path.name.encode() + b"\n")
        return out, paths

    def test_success_leaves_no_temp_file(self, tmp_path):
        corpus = load_listing_corpus()
        out, paths = self.outputs(tmp_path)
        save_corpus(corpus, *paths)
        assert sorted(tree(out)) == ["annotations.json", "classes.json", "predicates.json"]
        assert paths[0].read_bytes() == canonical_annotations_bytes(corpus)

    def test_directory_as_predicates_path(self, tmp_path):
        out, paths = self.outputs(tmp_path)
        paths[2].unlink()
        paths[2].mkdir()
        before = tree(tmp_path)
        with pytest.raises(IsADirectoryError) as err:
            save_corpus(load_listing_corpus(), *paths)
        assert err.value.filename == str(paths[2])
        assert tree(tmp_path) == before

    def test_missing_directories_are_made(self, tmp_path):
        corpus = load_listing_corpus()
        out, paths = self.outputs(tmp_path)
        save_corpus(corpus, *paths)
        nested = [tmp_path / "new" / "deeper" / path.name for path in paths]
        save_corpus(corpus, *nested)
        assert [path.read_bytes() for path in nested] == [path.read_bytes() for path in paths]
        assert sorted(tree(tmp_path / "new")) == ["deeper", *(f"deeper/{p.name}" for p in paths)]

    @pytest.mark.parametrize("under", ["file", "file/deeper"])
    def test_output_under_a_regular_file(self, tmp_path, under):
        (tmp_path / "file").write_bytes(b"a file\n")
        before = tree(tmp_path)
        target = tmp_path / under / "annotations.json"
        with pytest.raises(NotADirectoryError) as err:
            save_corpus(load_listing_corpus(), target)
        assert err.value.filename == str(target)
        assert tree(tmp_path) == before

    def test_unwritable_directory(self, tmp_path, monkeypatch):
        out, paths = self.outputs(tmp_path)
        locked = tmp_path / "locked"
        locked.mkdir()
        (locked / "predicates.json").write_bytes(b"previous predicates\n")
        before = tree(tmp_path)
        real_open = os.open

        def open_unless_locked(path, *args, **kwargs):
            # root ignores the mode bits, so the denial is also injected here
            if os.path.dirname(path) == os.path.realpath(locked):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, *args, **kwargs)

        locked.chmod(0o555)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "open", open_unless_locked)
                with pytest.raises(PermissionError):
                    save_corpus(load_listing_corpus(), paths[0], paths[1], locked / "predicates.json")
        finally:
            locked.chmod(0o755)
        assert tree(tmp_path) == before

    def test_failed_fsync_replaces_nothing(self, tmp_path, monkeypatch):
        out, paths = self.outputs(tmp_path)
        before = tree(tmp_path)
        calls = []
        real_fsync = os.fsync

        def fsync_until_full(fd):
            calls.append(fd)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real_fsync(fd)

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync_until_full)
            with pytest.raises(OSError):
                save_corpus(load_listing_corpus(), *paths)
        assert tree(tmp_path) == before

    def test_failed_rename_is_the_only_window(self, tmp_path, monkeypatch):
        """A failure between two renames keeps the renames already made, but
        still leaves no temp file."""
        corpus = load_listing_corpus()
        out, paths = self.outputs(tmp_path)
        before = tree(tmp_path)
        real_replace = os.replace

        def replace_once(source, target):
            if target == os.path.realpath(paths[1]):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_replace(source, target)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replace_once)
            with pytest.raises(OSError):
                save_corpus(corpus, *paths)
        after = tree(tmp_path)
        assert after["out/annotations.json"] == canonical_annotations_bytes(corpus)
        assert {k: v for k, v in after.items() if k != "out/annotations.json"} == {
            k: v for k, v in before.items() if k != "out/annotations.json"
        }

    def test_directory_fsynced_after_the_renames(self, tmp_path, monkeypatch):
        out, paths = self.outputs(tmp_path)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def record_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                events.append("directory fsync")
            real_fsync(fd)

        def record_replace(source, target):
            events.append("rename")
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        save_corpus(load_listing_corpus(), *paths)
        # all three targets share one directory, synced once after the last rename
        assert events == ["rename", "rename", "rename", "directory fsync"]

    def test_failed_directory_fsync_leaves_no_temp_file(self, tmp_path, monkeypatch):
        corpus = load_listing_corpus()
        out, paths = self.outputs(tmp_path)
        real_fsync = os.fsync

        def fail_on_directory(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fail_on_directory)
        with pytest.raises(OSError):
            save_corpus(corpus, *paths)
        # the renames were made; only their durability is in doubt
        assert sorted(tree(out)) == ["annotations.json", "classes.json", "predicates.json"]
        assert paths[0].read_bytes() == canonical_annotations_bytes(corpus)

    def test_symlinked_output_is_written_through(self, tmp_path):
        corpus = load_listing_corpus()
        target = tmp_path / "real.json"
        target.write_bytes(b"previous\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        save_corpus(corpus, link)
        assert link.is_symlink()
        assert target.read_bytes() == canonical_annotations_bytes(corpus)


FILENAME_ALPHABET = 'aZ9._- "\\/\x00\x01\x08\x1f\x7f\t\n\r\u2028\u2029\ufeffé߀中😀'
INTS = (0, 1, -1, 9, 10, -10**6, 2**31, -(2**63) - 1, 10**30)


def reference_annotations_bytes(corpus):
    """The canonical annotations form as json.dumps writes it."""
    payload = {
        image: [
            vr_record(
                vr.subject.class_id,
                list(vr.subject.bbox),
                vr.predicate_id,
                vr.object.class_id,
                list(vr.object.bbox),
            )
            for vr in vrs
        ]
        for image, vrs in corpus.images.items()
    }
    return (json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode()


def exotic_int(rng):
    return rng.choice(INTS) if rng.random() < 0.5 else rng.randrange(-500, 500)


def exotic_vr(rng):
    def participant():
        return AnnotatedObject(exotic_int(rng), BoundingBox(*(exotic_int(rng) for _ in range(4))))

    return VisualRelationship(participant(), exotic_int(rng), participant())


def exotic_name(rng):
    return "".join(rng.choice(FILENAME_ALPHABET) for _ in range(rng.randrange(0, 8)))


class TestCanonicalWriter:
    def test_matches_json_dumps_on_seeded_corpora(self):
        rng = random.Random(2028)
        for _ in range(300):
            images = {}
            for _ in range(rng.randrange(0, 8)):
                vrs = [exotic_vr(rng) for _ in range(rng.randrange(0, 4))]
                images[exotic_name(rng)] = vrs
            corpus = AnnotationCorpus(images, [exotic_name(rng)], [exotic_name(rng)])
            assert canonical_annotations_bytes(corpus) == reference_annotations_bytes(corpus)

    @pytest.mark.parametrize(
        "images",
        [{}, {"a.jpg": []}, {"b.jpg": [], "a.jpg": [], "\u2028\"\\.jpg": []}],
        ids=["empty-corpus", "one-empty-image", "only-empty-images"],
    )
    def test_empty_shapes(self, images):
        corpus = AnnotationCorpus(images, [], [])
        assert canonical_annotations_bytes(corpus) == reference_annotations_bytes(corpus)

    def test_peak_memory_does_not_follow_the_widest_filename(self):
        # One CJK filename would make a whole-file str two bytes per
        # character; the writer's transient memory must stay near one copy
        # of the encoded file, whatever the filenames hold.
        rng = random.Random(2030)
        images = {f"img_{k:04d}.jpg": [random_vr(rng, 60, 30) for _ in range(8)] for k in range(400)}
        images["img_\u6771\u4eac.jpg"] = [random_vr(rng, 60, 30)]
        corpus = AnnotationCorpus(images, [], [])
        tracemalloc.start()
        try:
            data = canonical_annotations_bytes(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data == reference_annotations_bytes(corpus)
        assert peak < 2.5 * len(data)

    def test_master_lists_match_json_dumps(self):
        rng = random.Random(2029)
        for _ in range(200):
            names = list({exotic_name(rng) for _ in range(rng.randrange(0, 6))})
            expected = json.dumps(names, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
            assert canonical_master_list_bytes(names) == expected.encode()


class TestStats:
    def test_empty(self):
        stats = compute_stats(AnnotationCorpus({}, [], []))
        assert (stats.image_count, stats.vr_count, stats.mean_vrs_per_image) == (0, 0, 0.0)

    def test_two_image_fixture(self):
        def vr(i):
            return VisualRelationship(
                AnnotatedObject(0, BoundingBox(i, i + 10, 0, 10)),
                0,
                AnnotatedObject(1, BoundingBox(i + 1, i + 11, 5, 15)),
            )

        a = [vr(0), vr(1), vr(2)]
        b = [vr(3), vr(4), vr(5), vr(6), vr(3)]
        corpus = AnnotationCorpus({"a.jpg": a, "b.jpg": b}, ["u", "v"], ["p"])
        stats = compute_stats(corpus)
        assert stats.vr_count == 8
        assert stats.mean_vrs_per_image == 4.0
        assert stats.images_with_exact_duplicate_vrs == 1

    def test_mean_rounds_half_up(self):
        # 5 / 8 = 0.625 must round to 0.63, not banker's 0.62
        rng = random.Random(3)
        images = {f"i{k}.jpg": [] for k in range(8)}
        images["i0.jpg"] = [random_vr(rng, 2, 1) for _ in range(5)]
        corpus = AnnotationCorpus(images, ["u", "v"], ["p"])
        assert compute_stats(corpus).mean_vrs_per_image == 0.63

    def test_round_half_up_matches_the_decimal_reference(self):
        def reference(numerator, denominator):
            if denominator == 0:
                return 0.0
            exact = Decimal(numerator) / Decimal(denominator)
            return float(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))

        halves = [(5, 8), (1, 8), (3, 8), (7, 8), (1, 200), (3, 200), (1, 40), (201, 200), (0, 3)]
        assert [_round_half_up(n, d) for n, d in halves[:3]] == [0.63, 0.13, 0.38]
        rng = random.Random(4242)
        pairs = halves + [(rng.randrange(0, 10 ** rng.randrange(1, 12)), rng.randrange(1, 10 ** 6))
                          for _ in range(20000)]
        pairs += [(k, d) for d in (0, 1, 2, 3, 7, 8, 16, 40, 200, 400, 1000) for k in range(0, 2001)]
        for numerator, denominator in pairs:
            assert _round_half_up(numerator, denominator) == reference(numerator, denominator), (
                numerator, denominator)

    def test_listing_fixture_counts(self):
        stats = compute_stats(load_listing_corpus())
        assert stats.object_class_count == 14
        assert stats.predicate_count == 9
        assert stats.image_count == 5
        assert stats.vr_count == 26
        assert stats.images_with_exact_duplicate_vrs == 0

    def test_brute_force_recount(self):
        rng = random.Random(11)
        for _ in range(25):
            corpus = random_corpus(rng, allow_empty_images=True)
            stats = compute_stats(corpus)
            assert stats.vr_count == sum(len(v) for v in corpus.images.values())
            assert stats.image_count == len(corpus.images)
            dup = sum(
                1
                for vrs in corpus.images.values()
                if any(vrs[i] == vrs[j] for i in range(len(vrs)) for j in range(i + 1, len(vrs)))
            )
            assert stats.images_with_exact_duplicate_vrs == dup


class TestNameResolution:
    def test_unknown_name(self):
        corpus = load_listing_corpus()
        with pytest.raises(UnknownNameError, match=r"^unknown object class: 'zebra'$"):
            corpus.class_id("zebra")
        with pytest.raises(UnknownNameError, match=r"^unknown predicate: 'hover'$"):
            corpus.predicate_id("hover")

    def test_retired_name_does_not_resolve(self):
        corpus = load_listing_corpus()
        corpus.retired_class_ids.add(corpus.class_id("bear"))
        with pytest.raises(UnknownNameError, match=r"^unknown object class \(retired\): 'bear'$"):
            corpus.class_id("bear")
        corpus.retired_predicate_ids.add(corpus.predicate_id("on"))
        with pytest.raises(UnknownNameError, match=r"^unknown predicate \(retired\): 'on'$"):
            corpus.predicate_id("on")

    def test_validate_catches_bad_ids(self):
        corpus = load_listing_corpus()
        corpus.validate()
        corpus.images["img_bad"] = [
            VisualRelationship(
                AnnotatedObject(99, BoundingBox(0, 5, 0, 5)), 0, AnnotatedObject(0, BoundingBox(0, 5, 0, 5))
            )
        ]
        with pytest.raises(IdOutOfRangeError):
            corpus.validate()

    @pytest.mark.parametrize("names", ["object_class_names", "predicate_names"])
    def test_validate_catches_a_duplicate_name(self, names):
        corpus = load_listing_corpus()
        getattr(corpus, names).append(getattr(corpus, names)[0])
        with pytest.raises(DuplicateMasterNameError):
            corpus.validate()

    @pytest.mark.parametrize("field", ["subject.category", "object.category", "predicate"])
    def test_validate_names_the_field_out_of_range(self, field):
        corpus = load_listing_corpus()
        image = sorted(corpus.images)[0]
        vr = corpus.images[image][1]
        bound = len(corpus.predicate_names if field == "predicate" else corpus.object_class_names)
        if field == "predicate":
            vr = vr._replace(predicate_id=bound)
        else:
            side = field.split(".")[0]
            vr = vr._replace(**{side: getattr(vr, side)._replace(class_id=bound)})
        corpus.images[image][1] = vr
        with pytest.raises(IdOutOfRangeError) as err:
            corpus.validate()
        assert (err.value.image, err.value.vr_index, err.value.field) == (image, 1, field)
        assert (err.value.value, err.value.bound) == (bound, bound)


class TestValidateMatchesTheLoader:
    """`validate` raises what `load_corpus` raises on the saved files, so
    `vrannot validate`, which only loads, reports what a second walk would."""

    @pytest.mark.parametrize("fault", ["subject.category", "object.category", "predicate",
                                       "object_class_names", "predicate_names"])
    def test_same_error_on_seeded_corpora(self, tmp_path, fault):
        rng = random.Random(1707)
        for trial in range(20):
            corpus = random_corpus(rng)
            if fault.endswith("_names"):
                names = getattr(corpus, fault)
                names.append(rng.choice(names))
                expected = DuplicateMasterNameError
            else:
                image = rng.choice(sorted(corpus.images))
                index = rng.randrange(len(corpus.images[image]))
                vr = corpus.images[image][index]
                bound = len(corpus.predicate_names if fault == "predicate" else corpus.object_class_names)
                bad = rng.choice((bound, bound + rng.randrange(1, 5), -1))
                if fault == "predicate":
                    vr = vr._replace(predicate_id=bad)
                else:
                    side = fault.split(".")[0]
                    vr = vr._replace(**{side: getattr(vr, side)._replace(class_id=bad)})
                corpus.images[image][index] = vr
                expected = IdOutOfRangeError
            paths = [tmp_path / f"{trial}_{name}.json" for name in ("a", "c", "p")]
            save_corpus(corpus, *paths)
            with pytest.raises(expected) as validated:
                corpus.validate()
            with pytest.raises(expected) as loaded:
                load_corpus(*paths)
            assert type(validated.value) is type(loaded.value)
            assert str(validated.value) == str(loaded.value)


class TestFindExactDuplicates:
    def test_empty(self):
        assert find_exact_duplicates([]) == []

    def test_aba(self):
        rng = random.Random(5)
        a = random_vr(rng, 3, 2)
        b = random_vr(rng, 3, 2)
        assert find_exact_duplicates([a, b, a]) == [(0, 2)]

    def test_matches_pairwise_oracle(self):
        rng = random.Random(17)
        for _ in range(50):
            # few distinct values so collisions actually happen
            pool = [random_vr(rng, 2, 1, ) for _ in range(3)]
            vrs = [rng.choice(pool) for _ in range(rng.randrange(0, 20))]
            expected = [
                (i, j)
                for i in range(len(vrs))
                for j in range(i + 1, len(vrs))
                if vrs[i] == vrs[j]
            ]
            assert find_exact_duplicates(vrs) == expected


def resolved_multiset(corpus, image):
    return Counter(
        (
            corpus.object_class_names[vr.subject.class_id],
            tuple(vr.subject.bbox),
            corpus.predicate_names[vr.predicate_id],
            corpus.object_class_names[vr.object.class_id],
            tuple(vr.object.bbox),
        )
        for vr in corpus.images[image]
    )


class TestDiff:
    def test_identical(self):
        corpus = load_listing_corpus()
        diff = diff_corpora(corpus, corpus.copy())
        assert diff.deltas == []
        assert diff.images_touched == 0

    def test_added_and_removed_images(self):
        before = load_listing_corpus()
        after = before.copy()
        first = next(iter(after.images))
        del after.images[first]
        after.images["new.jpg"] = []
        diff = diff_corpora(before, after)
        statuses = {d.filename: d.status for d in diff.deltas}
        assert statuses == {first: "removed", "new.jpg": "added"}
        assert diff.images_removed == 1 and diff.images_added == 1

    def test_change_pairing(self):
        rng = random.Random(23)
        base = random_corpus(rng, max_images=1, max_vrs=5)
        image = next(iter(base.images))
        after = base.copy()
        removed_vr = after.images[image].pop()
        extra = [random_vr(rng, 6, 4) for _ in range(2)]
        while any(vr == removed_vr for vr in extra):
            extra = [random_vr(rng, 6, 4) for _ in range(2)]
        after.images[image].extend(extra)
        diff = diff_corpora(base, after)
        (delta,) = diff.deltas
        assert (delta.changed, delta.added, delta.removed) == (1, 1, 0)

    def test_against_counter_oracle(self):
        rng = random.Random(29)
        for _ in range(40):
            before = random_corpus(rng, allow_empty_images=True)
            after = before.copy()
            for image in list(after.images):
                roll = rng.random()
                if roll < 0.2:
                    del after.images[image]
                elif roll < 0.6 and after.images[image]:
                    index = rng.randrange(len(after.images[image]))
                    after.images[image][index] = random_vr(rng, 6, 4)
                elif roll < 0.8:
                    after.images[image].append(random_vr(rng, 6, 4))
            diff = diff_corpora(before, after)

            expected_changed = expected_added = expected_removed = 0
            touched = set()
            for image in set(before.images) | set(after.images):
                if image not in after.images or image not in before.images:
                    touched.add(image)
                    continue
                old = resolved_multiset(before, image)
                new = resolved_multiset(after, image)
                if old == new:
                    continue
                touched.add(image)
                gone = sum((old - new).values())
                came = sum((new - old).values())
                expected_changed += min(gone, came)
                expected_added += max(0, came - gone)
                expected_removed += max(0, gone - came)
            assert diff.images_touched == len(touched)
            assert diff.vrs_changed == expected_changed
            assert diff.vrs_added == expected_added
            assert diff.vrs_removed == expected_removed

    def test_copy_is_independent(self):
        corpus = load_listing_corpus()
        clone = corpus.copy()
        image = next(iter(clone.images))
        clone.images[image].append(clone.images[image][0])
        clone.object_class_names.append("extra")
        assert len(corpus.images[image]) + 1 == len(clone.images[image])
        assert "extra" not in corpus.object_class_names


class TestResultTuples:
    """The result types keep the repr text, equality and immutability they
    had as frozen dataclasses."""

    @pytest.mark.parametrize("value,text", [
        (CorpusStats(3, 2, 5, 8, 1.6, 1),
         "CorpusStats(object_class_count=3, predicate_count=2, image_count=5, vr_count=8, "
         "mean_vrs_per_image=1.6, images_with_exact_duplicate_vrs=1)"),
        (ImageDelta("a.jpg", "added"),
         "ImageDelta(filename='a.jpg', status='added', changed=0, added=0, removed=0)"),
        (ImageDelta('b"\'.jpg', "modified", changed=1, added=2, removed=3),
         "ImageDelta(filename='b\"\\'.jpg', status='modified', changed=1, added=2, removed=3)"),
        (CorpusDiff([ImageDelta("a.jpg", "removed")]),
         "CorpusDiff(deltas=[ImageDelta(filename='a.jpg', status='removed', changed=0, added=0, "
         "removed=0)])"),
    ], ids=["stats", "delta", "delta-quotes", "diff"])
    def test_repr_equality_and_immutability(self, value, text):
        check_result_tuple(value, text)

    def test_diff_totals(self):
        diff = CorpusDiff([ImageDelta("a.jpg", "removed"), ImageDelta("b.jpg", "added"),
                           ImageDelta("c.jpg", "modified", changed=1, added=2, removed=3)])
        totals = (diff.images_touched, diff.images_added, diff.images_removed,
                  diff.vrs_changed, diff.vrs_added, diff.vrs_removed)
        assert totals == (3, 1, 1, 1, 2, 3)
        assert diff.deltas[2]._asdict() == {"filename": "c.jpg", "status": "modified",
                                            "changed": 1, "added": 2, "removed": 3}


class TestCorpusClass:
    def test_defaults_are_fresh_and_empty(self):
        first, second = AnnotationCorpus(), AnnotationCorpus()
        first.images["a.jpg"] = []
        first.object_class_names.append("x")
        first.retired_class_ids.add(0)
        assert (second.images, second.object_class_names, second.predicate_names,
                second.retired_class_ids, second.retired_predicate_ids) == ({}, [], [], set(), set())

    def test_given_containers_are_kept_not_copied(self):
        images, classes, predicates, retired = {}, [], [], set()
        corpus = AnnotationCorpus(images, classes, predicates, retired_predicate_ids=retired)
        assert corpus.images is images and corpus.object_class_names is classes
        assert corpus.predicate_names is predicates and corpus.retired_predicate_ids is retired

    def test_equality_is_field_wise(self):
        corpus = load_listing_corpus()
        assert corpus == corpus.copy() and not corpus != corpus.copy()
        for name, change in (("images", lambda c: c.images.popitem()),
                             ("object_class_names", lambda c: c.object_class_names.append("z")),
                             ("predicate_names", lambda c: c.predicate_names.append("z")),
                             ("retired_class_ids", lambda c: c.retired_class_ids.add(0)),
                             ("retired_predicate_ids", lambda c: c.retired_predicate_ids.add(0))):
            other = corpus.copy()
            change(other)
            assert other != corpus, name
        assert corpus != (corpus.images, corpus.object_class_names, corpus.predicate_names)
        with pytest.raises(TypeError):
            hash(corpus)

    def test_attributes_are_reassignable_and_repr_names_them(self):
        corpus = AnnotationCorpus({"a.jpg": []}, ["x"], ["y"])
        corpus.images = {}
        assert corpus == AnnotationCorpus({}, ["x"], ["y"])
        assert repr(corpus) == ("AnnotationCorpus(images={}, object_class_names=['x'], "
                                "predicate_names=['y'], retired_class_ids=set(), "
                                "retired_predicate_ids=set())")
