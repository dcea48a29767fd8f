"""The streamed dump reader and the byte-line dump writer against whole-file oracles.

`reference_load` is the whole-file reader: the dump is decoded in one piece
and split into lines (`helpers.decode_utf8` and `helpers.text_lines`), then
parsed by the same line loop as `load_store`.
`reference_dump` sorts the dump's lines as text, joins them and encodes the
result.  The streamed forms must give the same store, bytes and errors.
"""

import random
import re
import tracemalloc
from collections import deque

import pytest

from vrannot import kg
from vrannot.corpus import (
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    VisualRelationship,
    replace_files,
)
from vrannot.errors import MalformedAxiomError, MalformedGraphError, VrannotError
from vrannot.kg import (
    _LINE_RE,
    DEFAULT_NAMESPACE,
    XSD_INTEGER_IRI,
    GraphStore,
    Iri,
    Schema,
    Triple,
    _object_key,
    default_schema,
    dump_store,
    format_term,
    load_store,
    load_schema,
    lower_annotations,
    materialize,
    read_dump,
)

from helpers import decode_utf8, random_class_names, random_predicate_names, random_vr, text_lines
from test_corpus import FILENAME_ALPHABET, INTS


def reference_load(data: bytes, namespace: str = DEFAULT_NAMESPACE) -> GraphStore:
    text = decode_utf8(data, lambda line, reason: MalformedGraphError(f"line {line}: {reason}"))
    store = GraphStore(namespace)
    objects = {}
    for line_no, line in text_lines(text):
        matched = _LINE_RE.match(line)
        if not matched:
            raise MalformedGraphError(f"line {line_no}: not a triple line")
        subject, predicate, object_text = matched.groups()
        o = objects.get(object_text)
        if o is None:
            o = objects[object_text] = store._id(_object_key(object_text.strip(), line_no))
        store._add((store._id(subject), store._id(predicate), o))
    return store


def reference_dump(store: GraphStore) -> bytes:
    lines = sorted(" ".join(map(format_term, (t.subject, t.predicate, t.object))) + " ."
                   for t in store)
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def streamed_load(data: bytes, path) -> GraphStore:
    path.write_bytes(data)
    with read_dump(path) as lines:
        return load_store(lines)


def streamed_schema(data: bytes, path):
    path.write_bytes(data)
    return load_schema(path)


def outcome(load, *args):
    """The dump of the loaded store, or the type and message of the error."""
    try:
        return dump_store(load(*args)).encode()
    except VrannotError as exc:
        return type(exc), str(exc)


def exotic_text(rng) -> str:
    return "".join(rng.choice(FILENAME_ALPHABET) for _ in range(rng.randrange(0, 6)))


def valid_dump(rng) -> bytes:
    """A lowered corpus with exotic filenames, as a dump."""
    names = [exotic_text(rng) + f"{k}.jpg" for k in range(rng.randrange(1, 4))]
    images = {name: [random_vr(rng, 4, 3) for _ in range(rng.randrange(1, 4))] for name in names}
    annotations = AnnotationCorpus(
        images, random_class_names(rng, 4), random_predicate_names(rng, 3)
    )
    return dump_store(lower_annotations(annotations, default_schema(annotations))).encode()


BAD_UTF8 = (b"\xff", b"\xc3(", b"\xe4\xb8A", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf0\x9f\x98",
            b"\xe4\n\xb8\xad")
BAD_OBJECTS = ('"x\\q"', '"x\\"', f'"1.5"^^<{XSD_INTEGER_IRI}>', f'""^^<{XSD_INTEGER_IRI}>',
               f'"{"9" * 5000}"^^<{XSD_INTEGER_IRI}>', '"x"^^<http://example.org/t>', "naked",
               "<b> <c>")


def _at_line(rng, data: bytes, insert: bytes) -> bytes:
    lines = data.split(b"\n")
    lines.insert(rng.randrange(len(lines) + 1), insert)
    return b"\n".join(lines)


def _space_in_iri(rng, data):
    cut = data.find(b"#", rng.randrange(len(data)))
    return data if cut < 0 else data[:cut + 1] + b" " + data[cut + 1:]


def _bad_utf8(rng, data):
    cut = rng.randrange(len(data) + 1)
    return data[:cut] + rng.choice(BAD_UTF8) + data[cut:]


def _bad_object(rng, data):
    line = f"<{DEFAULT_NAMESPACE}a> <{DEFAULT_NAMESPACE}p> {rng.choice(BAD_OBJECTS)} ."
    return _at_line(rng, data, line.encode())


MUTATIONS = (
    _space_in_iri,
    lambda rng, data: data.replace(b"\n", b"\r\n"),
    lambda rng, data: data.replace(b"\n", b"\r\n", rng.randrange(1, 4)),
    lambda rng, data: data.replace(b"\n", b"\r", rng.randrange(1, 3)),
    _bad_utf8,
    lambda rng, data: data + rng.choice(BAD_UTF8[-3:]),  # at the end, no line break after it
    _bad_object,
    lambda rng, data: _at_line(rng, data, rng.choice((b"garbage", b"<a> <p>", b"<a> <p> <b>"))),
    lambda rng, data: _at_line(rng, data, rng.choice((b"", b"   ", b"# comment \xe4\xb8\xad"))),
    lambda rng, data: data[: rng.randrange(len(data) + 1)],
)


class TestStreamedReader:
    def test_matches_the_whole_file_reader_on_seeded_malformed_dumps(self, tmp_path):
        rng = random.Random(1201)
        path = tmp_path / "g.nt"
        errors = set()
        for _ in range(400):
            data = valid_dump(rng)
            for _ in range(rng.randrange(1, 4)):
                data = rng.choice(MUTATIONS)(rng, data)
            expected = outcome(reference_load, data)
            assert outcome(streamed_load, data, path) == expected, data
            if isinstance(expected, tuple):
                errors.add(expected[1].split(":")[1].split("(")[0].strip())
        # every kind of error was reached
        assert errors >= {"invalid UTF-8", "not a triple line", "unknown escape \\q",
                          "bad integer literal '1.5'", "unreadable object term 'naked'"}

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"garbage\n# ok\n<a> <p> \"\xc3(\" .\n",
             "line 3: invalid UTF-8 (invalid continuation byte)"),
            (b'<a> <p> "x\\q" .\n\n\xff\n', "line 3: invalid UTF-8 (invalid start byte)"),
            (b"garbage\r\n<a> <p> <b> .\xe4\n\xb8\xad\n",
             "line 2: invalid UTF-8 (invalid continuation byte)"),
            (b"garbage\n<a> <p> <b> .\n\xf0\x9f\x98", "line 3: invalid UTF-8 (unexpected end of data)"),
            (b"<a b> <p> <c d> .\r\n<a> <p> \"x\" .\r<b> <q> <c> .\n",
             "line 2: unreadable object term"),
            (b"<a> <p> <b> .\ngarbage\n", "line 2: not a triple line"),
        ],
        ids=["bad-line-before-bad-byte", "bad-escape-before-bad-byte", "split-across-line-break",
             "bad-byte-at-end", "spaces-and-carriage-returns", "bad-line-alone"],
    )
    def test_utf8_errors_win_over_earlier_lines(self, tmp_path, data, message):
        expected = outcome(reference_load, data)
        assert expected[0] is MalformedGraphError and expected[1].startswith(message)
        assert outcome(streamed_load, data, tmp_path / "g.nt") == expected

    @pytest.mark.parametrize("load,error", [
        (streamed_load, MalformedGraphError),
        (streamed_schema, MalformedAxiomError),
    ], ids=["dump", "axiom-file"])
    def test_failed_loads_close_the_file(self, tmp_path, monkeypatch, load, error):
        opened = []

        def recording_open(path):
            opened.append(real_open(path))
            return opened[-1]

        real_open = kg._open_input
        monkeypatch.setattr(kg, "_open_input", recording_open)
        for data in (b"garbage\n", b"\xff\n", b"garbage\n\xff\n", b"<a> <p> <b> .\n<a> <p>\n"):
            with pytest.raises(error):
                load(data, tmp_path / "g.nt")
        assert len(opened) == 4 and all(handle.closed for handle in opened)

    @pytest.mark.parametrize("line,term", [
        (b"<a> <p> <b> <c> .", "<b> <c>"),
        (b"<a> <p> <b> .\x01> .", "<b> .\x01>"),
    ], ids=["two-objects", "runs-on-past-a-line"])
    def test_an_object_iri_holding_an_angle_bracket_is_refused(self, tmp_path, line, term):
        """As in subjects and predicates, `<` and `>` end an object IRI, so a
        line that runs on past another line's ` .` cannot be read back."""
        message = f"line 2: unreadable object term {term!r}"
        data = b"<a> <p> <b> .\n" + line + b"\n"
        assert outcome(reference_load, data) == (MalformedGraphError, message)
        assert outcome(streamed_load, data, tmp_path / "g.nt") == (MalformedGraphError, message)


def cjk_store() -> GraphStore:
    """301 lowered images, one with a CJK filename, as in the construction memory test."""
    rng = random.Random(1203)
    images = {f"img_{k:04d}.jpg": [random_vr(rng, 60, 30) for _ in range(8)]
              for k in range(300)}
    images["img_東京.jpg"] = [random_vr(rng, 60, 30)]
    annotations = AnnotationCorpus(
        images, [f"class {k}" for k in range(60)], [f"predicate {k}" for k in range(30)]
    )
    return lower_annotations(annotations, default_schema(annotations))


def random_term(rng, kind: str):
    if kind == "iri":
        local = rng.choice(("a", "b", "a b", "b> .\x01", "b> .", "東", "\U0001f600", "a\udcff"))
        return Iri(DEFAULT_NAMESPACE + local + exotic_text(rng))
    if kind == "int":
        return rng.choice(INTS)
    return exotic_text(rng) + rng.choice(('"', "\\", "\x01", "京", "\U0001f600", "", "\ud800"))


def dump_cannot_hold(term) -> bool:
    """An IRI holding `<`, `>` or a line feed, or any text term holding a lone surrogate."""
    text = term.value if isinstance(term, Iri) else term
    if not isinstance(text, str):
        return False
    return bool(isinstance(term, Iri) and set(text) & set("<>\n")
                or any("\ud800" <= c <= "\udfff" for c in text))


class TestByteLineDump:
    def test_matches_the_sorted_text_dump_on_seeded_stores(self, tmp_path):
        rng = random.Random(1202)
        refused = 0
        for _ in range(300):
            store = GraphStore()
            for _ in range(rng.randrange(0, 30)):
                kind = rng.choice(("iri", "int", "str"))
                triple = Triple(random_term(rng, "iri"), random_term(rng, "iri"),
                                random_term(rng, kind))
                if any(map(dump_cannot_hold, (triple.subject, triple.predicate, triple.object))):
                    size = len(store)
                    with pytest.raises(MalformedGraphError,
                                       match="which no IRI in a dump can hold|is not valid UTF-8"):
                        store.add(triple)
                    assert len(store) == size
                    refused += 1
                else:
                    store.add(triple)
            data = dump_store(store).encode()
            assert data == reference_dump(store)
            # every store `add` builds reads back, through either reader
            assert outcome(reference_load, data) == data
            assert outcome(streamed_load, data, tmp_path / "g.nt") == data
        assert refused > 100

    def test_matches_the_sorted_text_dump_on_seeded_prefix_subjects(self, tmp_path):
        """Subjects whose IRIs are prefixes of one another, with `a ` and `a\\t` sorting
        before `a`'s closing `>`, and objects `"5"`, 5 and `"5 ."` beside one another."""
        ns = DEFAULT_NAMESPACE
        iris = [Iri(ns + local) for local in ("a", "ab", "a!", "a ", "a\t")]
        objects = [*iris, "5", 5, "5 .", "5 ", 55]
        rng = random.Random(1204)
        for _ in range(200):
            store = GraphStore()
            for _ in range(rng.randrange(0, 25)):
                store.add(Triple(rng.choice(iris), rng.choice(iris[:3]), rng.choice(objects)))
            data = dump_store(store).encode()
            assert data == reference_dump(store)
            assert outcome(reference_load, data) == data
            assert outcome(streamed_load, data, tmp_path / "g.nt") == data

    def test_a_dump_is_re_iterable_and_equal_by_its_lines(self, tmp_path):
        """A store's dump makes its lines afresh at each pass: reading it whole
        first leaves a later write whole, and it shows the store as it is then."""
        store = cjk_store()
        dump = dump_store(store)
        lines = list(dump)
        assert len(lines) == len(store) and list(dump) == lines
        replace_files([(tmp_path / "alone.nt", dump_store(store))])
        assert dump.encode() == reference_dump(store)
        replace_files([(tmp_path / "after.nt", dump)])
        assert (tmp_path / "after.nt").read_bytes() == (tmp_path / "alone.nt").read_bytes() \
            == reference_dump(store)
        shuffled = list(store)
        random.Random(1205).shuffle(shuffled)
        same = GraphStore()
        for triple in shuffled:
            same.add(triple)
        assert dump_store(same) == dump and dump_store(same) != kg.Dump(lines[:-1])
        later = dump_store(same)
        same.add(Triple(Iri(DEFAULT_NAMESPACE + "z"), Iri(DEFAULT_NAMESPACE + "p"), 1))
        assert later != dump and len(list(later)) == len(lines) + 1

    def test_a_dump_encodes_only_as_utf8(self):
        assert kg.Dump([b"a\n"]).encode("UTF8") == b"a\n"
        with pytest.raises(LookupError, match="^a dump is UTF-8, not latin-1$"):
            kg.Dump([b"a\n"]).encode("latin-1")

    def test_no_store_holds_a_lone_surrogate(self):
        """A lone surrogate has no UTF-8 form, so no dump could hold it."""
        ns = DEFAULT_NAMESPACE
        store = GraphStore()
        with pytest.raises(MalformedGraphError) as err:
            store.add(Triple(Iri(ns + "a"), Iri(ns + "p"), "\ud800"))
        assert str(err.value) == "literal '\\ud800' is not valid UTF-8"
        for position in range(3):
            terms = [Iri(ns + "a"), Iri(ns + "p"), Iri(ns + "b")]
            terms[position] = Iri(ns + "a\udcff")
            with pytest.raises(MalformedGraphError) as err:
                store.add(Triple(*terms))
            assert str(err.value) == f"{ns + 'a' + chr(0xDCFF)!r} is not valid UTF-8"
        assert len(store) == 0 and store._terms == []
        # `<`, `>` or a line feed is named first, wherever the surrogate is
        with pytest.raises(MalformedGraphError, match="holds '<'"):
            store.add(Triple(Iri(ns + "\ud800<"), Iri(ns + "p"), Iri(ns + "b")))
        bad = "http://a\udcff#"
        annotations = AnnotationCorpus({"a.jpg": []}, [], [])
        for make in (GraphStore, lambda namespace: load_store([], namespace),
                     lambda namespace: lower_annotations(annotations, default_schema(annotations),
                                                         namespace)):
            with pytest.raises(MalformedGraphError, match="is not valid UTF-8"):
                make(bad)
        box = BoundingBox(0, 4, 0, 4)
        vr = VisualRelationship(AnnotatedObject(0, box), 0, AnnotatedObject(0, box))
        annotations = AnnotationCorpus({"a.jpg": [vr]}, ["person"], ["near"])
        schema = Schema(classes={"Person"}, properties={"near"},
                        ann_classes={"person": "P\ud800"}, ann_properties={"near": "near"})
        with pytest.raises(MalformedGraphError, match="is not valid UTF-8"):
            lower_annotations(annotations, schema)
        store = lower_annotations(annotations, default_schema(annotations))
        with pytest.raises(MalformedGraphError, match="is not valid UTF-8"):
            materialize(store, Schema(symmetric=["near\udfff"]))

    @pytest.mark.parametrize("local", ["b> <c", "b<c", "b\nc"], ids=["two-terms", "lt", "line-feed"])
    def test_no_store_holds_an_iri_a_dump_cannot(self, local):
        ns, bad = DEFAULT_NAMESPACE, DEFAULT_NAMESPACE + local
        for position in range(3):
            store = GraphStore()
            terms = [Iri(ns + "a"), Iri(ns + "p"), Iri(ns + "b")]
            terms[position] = Iri(bad)
            with pytest.raises(MalformedGraphError) as err:
                store.add(Triple(*terms))
            assert str(err.value) == f"{bad!r} holds {local[1]!r}, which no IRI in a dump can hold"
            assert len(store) == 0 and store._terms == []
        annotations = AnnotationCorpus({"a.jpg": []}, [], [])
        for make in (GraphStore, lambda namespace: load_store([], namespace),
                     lambda namespace: lower_annotations(annotations, default_schema(annotations),
                                                         namespace)):
            with pytest.raises(MalformedGraphError, match="which no IRI in a dump can hold"):
                make(bad)
        # A hand-built Schema: a designated term, then a term of each axiom kind.
        box = BoundingBox(0, 4, 0, 4)
        vr = VisualRelationship(AnnotatedObject(0, box), 0, AnnotatedObject(0, box))
        annotations = AnnotationCorpus({"a.jpg": [vr]}, ["person"], ["near"])
        for ann_classes, ann_properties in (({"person": local}, {"near": "near"}),
                                            ({"person": "Person"}, {"near": local})):
            schema = Schema(classes={"Person"}, properties={"near"},
                            ann_classes=ann_classes, ann_properties=ann_properties)
            with pytest.raises(MalformedGraphError, match="which no IRI in a dump can hold"):
                lower_annotations(annotations, schema)
        store = lower_annotations(annotations, default_schema(annotations))
        before = dump_store(store).encode()
        for axioms in ({"subclass_of": [("Person", local)]}, {"eq_class": [(local, "Person")]},
                       {"subprop_of": [("near", local)]}, {"inverse_of": [(local, "near")]},
                       {"transitive": [local]}, {"symmetric": [local]},
                       {"domain": [("near", local)]}, {"range": [(local, "Person")]}):
            with pytest.raises(MalformedGraphError, match="which no IRI in a dump can hold"):
                materialize(store, Schema(**axioms))
        assert dump_store(store).encode() == before

    @pytest.mark.parametrize("value", [5, None, b"x", ["x"]], ids=["int", "none", "bytes", "list"])
    def test_no_store_holds_iri_text_that_is_not_a_string(self, value):
        """A namespace, a designated term or an axiom term that is not a `str` is refused by
        name, and the input store is left as it was."""
        message = f"^IRI {re.escape(repr(value))} is not a string$"
        annotations = AnnotationCorpus({"a.jpg": []}, [], [])
        for make in (GraphStore, lambda namespace: load_store([], namespace),
                     lambda namespace: lower_annotations(annotations, default_schema(annotations),
                                                         namespace)):
            with pytest.raises(MalformedGraphError, match=message):
                make(value)
        box = BoundingBox(0, 4, 0, 4)
        vr = VisualRelationship(AnnotatedObject(0, box), 0, AnnotatedObject(0, box))
        annotations = AnnotationCorpus({"a.jpg": [vr]}, ["person"], ["near"])
        for ann_classes, ann_properties in (({"person": value}, {"near": "near"}),
                                            ({"person": "Person"}, {"near": value})):
            schema = Schema(classes={"Person"}, properties={"near"},
                            ann_classes=ann_classes, ann_properties=ann_properties)
            with pytest.raises(MalformedGraphError, match=message):
                lower_annotations(annotations, schema)
        store = lower_annotations(annotations, default_schema(annotations))
        before, terms = dump_store(store).encode(), list(store._terms)
        for axioms in ({"subclass_of": [("Person", value)]}, {"eq_class": [(value, "Person")]},
                       {"subprop_of": [("near", value)]}, {"eq_prop": [(value, "near")]},
                       {"inverse_of": [(value, "near")]}, {"transitive": [value]},
                       {"symmetric": [value]}, {"domain": [("near", value)]},
                       {"range": [(value, "Person")]}):
            with pytest.raises(MalformedGraphError, match=message):
                materialize(store, Schema(**axioms))
        assert dump_store(store).encode() == before and store._terms == terms

    def test_prefix_subjects_and_a_string_beside_its_integer(self, tmp_path):
        """Subject IRIs that are prefixes of one another, and the string `"5"`, a
        prefix of the integer 5's `"5"^^<...>`, sort as the text of their lines."""
        ns = DEFAULT_NAMESPACE
        a, ab, a_bang, p = Iri(ns + "a"), Iri(ns + "ab"), Iri(ns + "a!"), Iri(ns + "p")
        store = GraphStore()
        for triple in ((ab, p, a), (a, p, 5), (a_bang, p, "5"), (a, p, "5"), (ab, p, "5 ."),
                       (a_bang, p, 5)):
            store.add(Triple(*triple))
        data = dump_store(store).encode()
        assert data == reference_dump(store)
        integer = f"^^<{XSD_INTEGER_IRI}>"
        assert data.decode("utf-8").splitlines() == [
            f'<{ns}a!> <{ns}p> "5" .', f'<{ns}a!> <{ns}p> "5"{integer} .',
            f'<{ns}a> <{ns}p> "5" .', f'<{ns}a> <{ns}p> "5"{integer} .',
            f'<{ns}ab> <{ns}p> "5 ." .', f'<{ns}ab> <{ns}p> <{ns}a> .',
        ]
        assert outcome(streamed_load, data, tmp_path / "g.nt") == data

    def test_peak_memory_stays_near_the_dump_size(self):
        # One CJK filename would make a whole-dump str two bytes per character.
        rng = random.Random(1203)
        images = {f"img_{k:04d}.jpg": [random_vr(rng, 60, 30) for _ in range(8)]
                  for k in range(300)}
        images["img_東京.jpg"] = [random_vr(rng, 60, 30)]
        annotations = AnnotationCorpus(
            images, [f"class {k}" for k in range(60)], [f"predicate {k}" for k in range(30)]
        )
        store = lower_annotations(annotations, default_schema(annotations))
        tracemalloc.start()
        try:
            dump = dump_store(store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = dump.encode()
        assert data == reference_dump(store)
        assert peak < 2 * len(data)

    def test_a_write_holds_one_subject_at_a_time(self):
        """Iterating the dump, as a write does, never holds its whole line list."""
        store = cjk_store()
        tracemalloc.start()
        try:
            deque(dump_store(store), maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = dump_store(store).encode()
        assert data == reference_dump(store)
        assert peak < 0.25 * len(data)
