import io
import itertools
import random
import re
from pathlib import Path

import pytest

from vrannot.corpus import (
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    VisualRelationship,
    input_lines,
)
from vrannot.errors import (
    AmbiguousClassError,
    ConfigError,
    FileMissingError,
    ImageNotFoundError,
    MalformedAxiomError,
    MalformedGraphError,
    SelfAxiomError,
    UndeclaredTermError,
    UnknownNameError,
    UnmappedNameError,
)
from vrannot.kg import (
    _AXIOMS,
    DEFAULT_NAMESPACE,
    RDF_TYPE,
    GraphStore,
    Iri,
    Schema,
    Triple,
    class_local,
    default_schema,
    dump_store,
    extract_annotations,
    format_term,
    load_schema,
    load_store,
    lower_annotations,
    materialize,
    property_local,
    read_dump,
)

from helpers import canonicalize_corpus, check_record, check_result_tuple, random_corpus
from test_acceptance import _NS, naive_closure
from test_corpus import FILENAME_ALPHABET


def iri(local):
    return Iri(DEFAULT_NAMESPACE + local)


def dump_text(store) -> str:
    return dump_store(store).encode().decode("utf-8")


def load_text(text: str, namespace: str = DEFAULT_NAMESPACE) -> GraphStore:
    with input_lines(io.BytesIO(text.encode("utf-8")),
                     lambda line, reason: MalformedGraphError(f"line {line}: {reason}"),
                     " \t\r\n") as lines:  # trimmed as `read_dump` trims
        return load_store(lines, namespace)


def t(subject, predicate, object_):
    return Triple(subject, predicate, object_)


def store_of(*triples):
    store = GraphStore()
    for triple in triples:
        store.add(triple)
    return store


def tiny_corpus():
    return AnnotationCorpus(
        images={
            "i1.jpg": [
                VisualRelationship(
                    AnnotatedObject(0, BoundingBox(0, 10, 0, 10)),
                    0,
                    AnnotatedObject(1, BoundingBox(2, 5, 3, 6)),
                )
            ]
        },
        object_class_names=["person", "hat"],
        predicate_names=["wear"],
    )


class TestMangling:
    def test_class_local(self):
        assert class_local("person") == "Person"
        assert class_local("teddy bear") == "TeddyBear"
        assert class_local("fire-hydrant") == "FireHydrant"
        assert class_local("traffic light 2") == "TrafficLight2"

    def test_property_local(self):
        assert property_local("on") == "on"
        assert property_local("sit on") == "sitOn"
        assert property_local("walk_on") == "walkOn"

    @pytest.mark.parametrize("name", ["", "---", "3d glasses", "2"])
    def test_unusable_names(self, name):
        with pytest.raises(ConfigError):
            class_local(name)


class TestDefaultSchema:
    def test_designates_every_live_name(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        assert schema.ann_classes == {"person": "Person", "hat": "Hat"}
        assert schema.ann_properties == {"wear": "wear"}
        assert schema.classes == {"Person", "Hat"}
        assert schema.properties == {"wear"}
        assert schema.subclass_of == []

    def test_skips_retired_names(self):
        corpus = tiny_corpus()
        corpus.object_class_names.append("cap")
        corpus.retired_class_ids.add(2)
        schema = default_schema(corpus)
        assert "cap" not in schema.ann_classes

    def test_mangling_collision(self):
        corpus = tiny_corpus()
        corpus.object_class_names.append("teddy bear")
        corpus.object_class_names.append("teddy-bear")
        with pytest.raises(ConfigError, match="TeddyBear"):
            default_schema(corpus)

    def test_reserved_collision(self):
        corpus = tiny_corpus()
        corpus.object_class_names.append("image")
        with pytest.raises(ConfigError, match="reserved"):
            default_schema(corpus)
        corpus.object_class_names.pop()
        corpus.predicate_names.append("has object")
        with pytest.raises(ConfigError, match="reserved"):
            default_schema(corpus)


class TestLoadSchema:
    def load(self, tmp_path, text):
        path = tmp_path / "axioms.txt"
        path.write_text(text, encoding="utf-8")
        return load_schema(path)

    def test_full_grammar(self, tmp_path):
        schema = self.load(
            tmp_path,
            "# object classes\n"
            "class Person\n"
            "class TeddyBear\n"
            "class Toy\n"
            "\n"
            "prop above\n"
            "prop below\n"
            "prop holds\n"
            "prop touches\n"
            "prop inside\n"
            "\n"
            "subclass TeddyBear Toy\n"
            "eqclass Person Person2\n".replace("eqclass Person Person2\n", "")
            + "inverse above below\n"
            "subprop holds touches\n"
            "transitive inside\n"
            "symmetric touches\n"
            "domain holds Person\n"
            "range holds Toy\n"
            "annclass person Person\n"
            "annclass teddy bear TeddyBear\n"
            "annprop sit on holds\n",
        )
        assert schema.classes == {"Person", "TeddyBear", "Toy"}
        assert schema.subclass_of == [("TeddyBear", "Toy")]
        assert schema.inverse_of == [("above", "below")]
        assert schema.subprop_of == [("holds", "touches")]
        assert schema.transitive == ["inside"]
        assert schema.symmetric == ["touches"]
        assert schema.domain == [("holds", "Person")]
        assert schema.range == [("holds", "Toy")]
        assert schema.ann_classes == {"person": "Person", "teddy bear": "TeddyBear"}
        assert schema.ann_properties == {"sit on": "holds"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileMissingError):
            load_schema(tmp_path / "absent.txt")

    def test_use_before_declaration(self, tmp_path):
        with pytest.raises(UndeclaredTermError) as err:
            self.load(tmp_path, "subclass TeddyBear Toy\nclass TeddyBear\nclass Toy\n")
        assert err.value.line == 1

    def test_undeclared_term(self, tmp_path):
        with pytest.raises(UndeclaredTermError):
            self.load(tmp_path, "class Toy\nannclass toy Toyy\n")

    def test_self_axiom(self, tmp_path):
        for body in (
            "class A\nsubclass A A\n",
            "class A\neqclass A A\n",
            "prop p\nsubprop p p\n",
            "prop p\neqprop p p\n",
            "prop p\ninverse p p\n",
        ):
            with pytest.raises(SelfAxiomError) as err:
                self.load(tmp_path, body)
            assert err.value.line == 2

    @pytest.mark.parametrize(
        "body",
        [
            "widget A\n",
            "class\n",
            "class Two Words\n",
            "class bad~name\n",
            "prop p\ntransitive p q\n",
            "prop p\nclass C\ndomain p\n",
            "class Person\nannclass Person\n",
        ],
    )
    def test_malformed(self, tmp_path, body):
        with pytest.raises(MalformedAxiomError):
            self.load(tmp_path, body)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "axioms.txt"
        path.write_bytes(b"class A\nclass B\xff\n")
        with pytest.raises(MalformedAxiomError) as err:
            load_schema(path)
        assert str(err.value) == "line 2: invalid UTF-8 (invalid start byte)"

    def test_lines_end_only_at_a_line_feed(self, tmp_path):
        schema = self.load(tmp_path, "class A\nannclass a\u2028b A\n")
        assert schema.ann_classes == {"a\u2028b": "A"}
        with pytest.raises(MalformedAxiomError) as err:
            self.load(tmp_path, "class A\n# page\x0cbreak\x85here\nwidget A\n")
        assert str(err.value) == "line 3: unknown keyword 'widget'"
        text = "class A\nclass B\nsubclass A B\nannclass a b A\n"
        assert self.load(tmp_path, text.replace("\n", "\r\n")) == self.load(tmp_path, text)

    @pytest.mark.parametrize("line", ["nope", "nope A", "nope A B"])
    def test_unknown_keyword_with_or_without_arguments(self, tmp_path, line):
        with pytest.raises(MalformedAxiomError) as err:
            self.load(tmp_path, f"class A\n{line}\n")
        assert str(err.value) == "line 2: unknown keyword 'nope'"

    @pytest.mark.parametrize("keyword", ["class", "prop", "annclass", "annprop"])
    def test_known_keyword_without_arguments(self, tmp_path, keyword):
        with pytest.raises(MalformedAxiomError) as err:
            self.load(tmp_path, f"class A\n{keyword}\n")
        assert str(err.value) == f"line 2: {keyword} needs arguments"

    def test_duplicate_designations(self, tmp_path):
        with pytest.raises(MalformedAxiomError, match="designated twice"):
            self.load(tmp_path, "class A\nclass B\nannclass person A\nannclass person B\n")
        with pytest.raises(MalformedAxiomError, match="designated twice"):
            self.load(tmp_path, "class A\nannclass person A\nannclass human A\n")

    def test_mixed_class_prop_namespaces(self, tmp_path):
        # a class term is not usable where a property is required
        with pytest.raises(UndeclaredTermError):
            self.load(tmp_path, "class A\nclass B\nprop p\nsubprop p A\n")


# One case per axiom keyword: its Schema field, its argument kinds, the arity
# text of its error, and what a valid line stores.  Declared terms are
# classes A and B, properties p and q.
AXIOM_CASES = {
    "subclass": ("subclass_of", ("class", "class"), "2 class terms"),
    "eqclass": ("eq_class", ("class", "class"), "2 class terms"),
    "subprop": ("subprop_of", ("prop", "prop"), "2 property terms"),
    "eqprop": ("eq_prop", ("prop", "prop"), "2 property terms"),
    "inverse": ("inverse_of", ("prop", "prop"), "2 property terms"),
    "transitive": ("transitive", ("prop",), "1 property term"),
    "symmetric": ("symmetric", ("prop",), "1 property term"),
    "domain": ("domain", ("prop", "class"), "a property and a class"),
    "range": ("range", ("prop", "class"), "a property and a class"),
}
DECLARATIONS = "class A\nclass B\nprop p\nprop q\n"
FIRST = {"class": "A", "prop": "p"}
SECOND = {"class": "B", "prop": "q"}
OTHER_KIND = {"class": "p", "prop": "A"}


class TestAxiomTable:
    def load(self, tmp_path, text):
        path = tmp_path / "axioms.txt"
        path.write_text(text, encoding="utf-8")
        return load_schema(path)

    def test_cases_cover_table(self):
        assert AXIOM_CASES == _AXIOMS

    @pytest.mark.parametrize("keyword", sorted(AXIOM_CASES))
    def test_valid_line_lands_in_field(self, tmp_path, keyword):
        field, kinds, _ = AXIOM_CASES[keyword]
        terms = [FIRST[kinds[0]], *(SECOND[kind] for kind in kinds[1:])]
        schema = self.load(tmp_path, DECLARATIONS + f"{keyword} {' '.join(terms)}\n")
        expected = Schema(classes={"A", "B"}, properties={"p", "q"})
        getattr(expected, field).append(terms[0] if len(terms) == 1 else tuple(terms))
        assert schema == expected

    @pytest.mark.parametrize("keyword", sorted(AXIOM_CASES))
    def test_wrong_argument_count(self, tmp_path, keyword):
        _, kinds, arity = AXIOM_CASES[keyword]
        terms = [FIRST[kind] for kind in kinds]
        for args in (terms[:-1], terms + terms[:1]):
            with pytest.raises(MalformedAxiomError) as err:
                self.load(tmp_path, DECLARATIONS + f"{keyword} {' '.join(args)}\n")
            reason = f"{keyword} takes {arity}" if args else f"{keyword} needs arguments"
            assert str(err.value) == f"line 5: {reason}"

    @pytest.mark.parametrize("keyword", sorted(AXIOM_CASES))
    def test_term_of_wrong_kind(self, tmp_path, keyword):
        _, kinds, _ = AXIOM_CASES[keyword]
        for position, kind in enumerate(kinds):
            terms = [FIRST[k] if i == 0 else SECOND[k] for i, k in enumerate(kinds)]
            terms[position] = OTHER_KIND[kind]
            with pytest.raises(UndeclaredTermError) as err:
                self.load(tmp_path, DECLARATIONS + f"{keyword} {' '.join(terms)}\n")
            assert (err.value.line, err.value.name) == (5, terms[position])

    @pytest.mark.parametrize(
        "keyword", sorted(k for k, (_, kinds, _) in AXIOM_CASES.items() if len(kinds) == 2)
    )
    def test_self_axiom_only_for_same_kind(self, tmp_path, keyword):
        field, kinds, _ = AXIOM_CASES[keyword]
        # X is both a class and a property, so every keyword accepts `X X`
        text = "class X\nprop X\n" + f"{keyword} X X\n"
        if kinds[0] == kinds[1]:
            with pytest.raises(SelfAxiomError) as err:
                self.load(tmp_path, text)
            assert (err.value.line, err.value.name) == (3, "X")
        else:
            assert getattr(self.load(tmp_path, text), field) == [("X", "X")]

    def test_docs_keyword_sentence_matches(self):
        """docs/formats.md's keyword sentence lists exactly the declaration,
        designation and axiom keywords."""
        text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")
        sentence = text.split("The full keyword set is ", 1)[1].split(".", 1)[0]
        documented = re.findall(r"`([a-z]+)`", sentence)
        assert len(documented) == len(set(documented))
        assert set(documented) == {"class", "prop", "annclass", "annprop", *_AXIOMS}


SCHEMA_TEXT = (
    "Schema(classes={'A'}, properties=set(), subclass_of=[('A', 'B')], eq_class=[], subprop_of=[], "
    "eq_prop=[], inverse_of=[], transitive=[], symmetric=[], domain=[], range=[], "
    "ann_classes={'a': 'A'}, ann_properties={})")


class TestRecords:
    """`Iri` and `Triple` are named tuples and `Schema` a mutable record; each
    keeps the repr text and equality it had as a dataclass."""

    @pytest.mark.parametrize("value,text", [
        (Iri("http://x#a"), "Iri(value='http://x#a')"),
        (Triple(Iri("http://x#a"), Iri("http://x#p"), 'l"it'),
         "Triple(subject=Iri(value='http://x#a'), predicate=Iri(value='http://x#p'), "
         "object='l\"it')"),
        (Triple(Iri("s"), Iri("p"), 5), "Triple(subject=Iri(value='s'), predicate=Iri(value='p'), "
                                        "object=5)"),
    ], ids=["iri", "triple-str", "triple-int"])
    def test_named_tuples(self, value, text):
        check_result_tuple(value, text)

    @pytest.mark.parametrize("other", ["x", ("x",)], ids=["str", "tuple"])
    def test_an_iri_equals_only_an_iri(self, other):
        iri_ = Iri("x")
        assert iri_ != other and other != iri_
        assert not iri_ == other and not other == iri_
        assert len({iri_, other}) == 2 and iri_ == Iri("x") and hash(iri_) == hash(Iri("x"))

    def test_a_triple_equals_the_plain_tuple_of_its_terms(self):
        a, p = iri("a"), iri("p")
        assert t(a, p, 5) == (a, p, 5) and (a, p, 5) == t(a, p, 5)
        assert t(a, p, "x") != t(a, p, Iri("x")) and t(a, p, "x") != (a.value, p.value, "x")

    @pytest.mark.parametrize("make,text", [
        (Schema, "Schema(classes=set(), properties=set(), subclass_of=[], eq_class=[], "
                 "subprop_of=[], eq_prop=[], inverse_of=[], transitive=[], symmetric=[], "
                 "domain=[], range=[], ann_classes={}, ann_properties={})"),
        (lambda: Schema(ann_classes={"a": "A"}, subclass_of=[("A", "B")], classes={"A"}),
         SCHEMA_TEXT),
    ], ids=["defaults", "given"])
    def test_schema(self, make, text):
        check_record(make, text)

    def test_schema_defaults_are_fresh_and_given_containers_kept(self):
        first, second = Schema(), Schema()
        assert all(a is not b for a, b in zip(vars(first).values(), vars(second).values()))
        first.classes.add("A")
        first.transitive.append("p")
        first.ann_classes["a"] = "A"
        assert second == Schema() and first != second
        classes = {"A"}
        assert Schema(classes=classes).classes is classes

    def test_schema_takes_only_its_fields_by_keyword(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            Schema(bogus=1)
        with pytest.raises(TypeError, match="unexpected keyword argument 'a'"):
            Schema(classes=set(), z=1, a=2)
        with pytest.raises(TypeError):
            Schema({"A"})


class TestGraphStore:
    def test_add_and_contains(self):
        store = GraphStore()
        triple = t(iri("a"), iri("p"), iri("b"))
        assert store.add(triple) is True
        assert store.add(triple) is False
        assert triple in store
        assert len(store) == 1

    def test_match(self):
        a, b, c = iri("a"), iri("b"), iri("c")
        p, q = iri("p"), iri("q")
        store = store_of(t(a, p, b), t(a, q, b), t(b, p, c), t(a, p, 5), t(a, p, "x"))
        assert set(store.match(subject=a, predicate=p)) == {t(a, p, b), t(a, p, 5), t(a, p, "x")}
        assert store.match(predicate=q) == [t(a, q, b)]
        assert set(store.match(object=b)) == {t(a, p, b), t(a, q, b)}
        assert store.match(subject=c) == []
        assert store.match(subject=a, predicate=p, object=5) == [t(a, p, 5)]
        assert len(store.match()) == 5

    @pytest.mark.parametrize("position,term", [
        (0, "lit"), (0, 5), (1, 5), (1, "p"), (2, 2.5), (2, None), (2, ("x",)), (2, b"x"),
        (2, True), (0, Iri(5)), (1, Iri(None)), (2, Iri(b"x")),
    ], ids=["str-subject", "int-subject", "int-predicate", "str-predicate", "float", "none",
            "tuple", "bytes", "bool", "int-iri-subject", "none-iri-predicate", "bytes-iri-object"])
    def test_add_refuses_a_term_no_dump_can_write(self, position, term):
        """Nothing is inserted, not even into the term dictionary, and the dump still loads."""
        store = store_of(t(iri("a"), iri("p"), iri("b")))
        ids = dict(store._ids)
        terms = [iri("a"), iri("p"), iri("b")]
        terms[position] = term
        what = "is not an IRI" + (", a string or an integer" if position == 2 else "")
        name = Triple._fields[position]
        with pytest.raises(MalformedGraphError, match=f"^{name} {re.escape(repr(term))} {what}$"):
            store.add(t(*terms))
        assert store._ids == ids and list(store) == [t(iri("a"), iri("p"), iri("b"))]
        assert set(load_text(dump_text(store))) == set(store)

    def test_copy_is_independent(self):
        store = store_of(t(iri("a"), iri("p"), iri("b")))
        dup = store.copy()
        dup.add(t(iri("x"), iri("p"), iri("y")))
        assert len(store) == 1 and len(dup) == 2


class TestTermDictionary:
    def test_literals_and_iris_stay_apart(self):
        a, p = iri("a"), iri("p")
        objects = [1, "1", Iri("1"), DEFAULT_NAMESPACE + "a"]
        store = store_of(*(t(a, p, o) for o in objects))
        assert len(store) == len(objects)
        assert all(t(a, p, o) in store for o in objects)
        decoded = sorted((type(x.object).__name__, str(x.object)) for x in store)
        assert decoded == [("Iri", "1"), ("int", "1"), ("str", "1"),
                           ("str", DEFAULT_NAMESPACE + "a")]
        assert t(a, p, 2) not in store and t(iri("x"), p, 1) not in store
        # a dump cannot write a bool (see format_term), so add refuses one
        with pytest.raises(MalformedGraphError, match="^object True is not an IRI, a string"):
            store.add(t(a, p, True))
        assert t(a, p, True) not in store and len(store) == len(objects)

    def test_copy_clones_the_indexes(self):
        a, b, p = iri("a"), iri("b"), iri("p")
        store = store_of(t(a, p, b))
        dup = store.copy()
        dup.add(t(a, p, 5))
        dup.add(t(b, iri("q"), a))
        assert store.match(subject=a) == [t(a, p, b)]
        assert store.match(predicate=p) == [t(a, p, b)]
        assert t(b, iri("q"), a) not in store
        assert set(dup.match(subject=a)) == {t(a, p, b), t(a, p, 5)}


class TestLower:
    def test_exact_triples_for_one_vr(self):
        store = lower_annotations(tiny_corpus(), default_schema(tiny_corpus()))
        img = iri("img_i1.jpg")
        subj = iri("img_i1.jpg_obj_Person_0_10_0_10")
        obj = iri("img_i1.jpg_obj_Hat_2_5_3_6")
        expected = {
            t(img, RDF_TYPE, iri("Image")),
            t(img, iri("hasFilename"), "i1.jpg"),
            t(img, iri("hasObject"), subj),
            t(subj, RDF_TYPE, iri("Person")),
            t(subj, iri("bboxYmin"), 0),
            t(subj, iri("bboxYmax"), 10),
            t(subj, iri("bboxXmin"), 0),
            t(subj, iri("bboxXmax"), 10),
            t(img, iri("hasObject"), obj),
            t(obj, RDF_TYPE, iri("Hat")),
            t(obj, iri("bboxYmin"), 2),
            t(obj, iri("bboxYmax"), 5),
            t(obj, iri("bboxXmin"), 3),
            t(obj, iri("bboxXmax"), 6),
            t(subj, iri("wear"), obj),
        }
        assert set(store) == expected
        assert len(store) == 15

    def test_empty_corpus(self):
        empty = AnnotationCorpus(images={}, object_class_names=[], predicate_names=[])
        assert len(lower_annotations(empty, Schema())) == 0

    def test_shared_object_lowered_once(self):
        person = AnnotatedObject(0, BoundingBox(0, 10, 0, 10))
        corpus = AnnotationCorpus(
            images={
                "i.jpg": [
                    VisualRelationship(person, 0, AnnotatedObject(1, BoundingBox(2, 5, 3, 6))),
                    VisualRelationship(person, 0, AnnotatedObject(1, BoundingBox(7, 9, 7, 9))),
                ]
            },
            object_class_names=["person", "hat"],
            predicate_names=["wear"],
        )
        store = lower_annotations(corpus, default_schema(corpus))
        assert len(store.match(predicate=iri("hasObject"))) == 3
        assert len(store.match(predicate=iri("bboxYmin"))) == 3

    def test_single_image_selection(self):
        corpus = tiny_corpus()
        corpus.images["i2.jpg"] = list(corpus.images["i1.jpg"])
        schema = default_schema(corpus)
        whole = lower_annotations(corpus, schema)
        one = lower_annotations(corpus, schema, image="i2.jpg")
        assert len(one) == 15
        assert set(one) < set(whole)
        with pytest.raises(ImageNotFoundError):
            lower_annotations(corpus, schema, image="ghost.jpg")

    def test_filename_encoding(self):
        corpus = tiny_corpus()
        corpus.images["a b/c.jpg"] = corpus.images.pop("i1.jpg")
        store = lower_annotations(corpus, default_schema(corpus))
        assert store.match(predicate=iri("hasFilename"))[0].subject == iri("img_a%20b%2Fc.jpg")

    def test_unmapped_name(self):
        schema = default_schema(tiny_corpus())
        del schema.ann_properties["wear"]
        with pytest.raises(UnmappedNameError):
            lower_annotations(tiny_corpus(), schema)

    def test_unmapped_class(self):
        schema = default_schema(tiny_corpus())
        del schema.ann_classes["hat"]
        with pytest.raises(UnmappedNameError, match="^no schema designation for object class 'hat'$"):
            lower_annotations(tiny_corpus(), schema)

    def test_lone_surrogate_in_a_filename_is_refused(self):
        corpus = AnnotationCorpus({"a\udcff.jpg": []}, [], [])
        message = f"^{re.escape(repr('a' + chr(0xDCFF) + '.jpg'))} is not valid UTF-8$"
        with pytest.raises(MalformedGraphError, match=message):
            lower_annotations(corpus, default_schema(corpus))

    def test_custom_namespace(self):
        ns = "urn:x-test:"
        store = lower_annotations(tiny_corpus(), default_schema(tiny_corpus()), namespace=ns)
        assert store.match(predicate=Iri(ns + "hasFilename"))


def props(*names):
    return Schema(properties=set(names))


class TestMaterialize:
    def test_inverse(self):
        schema = props("above", "below")
        schema.inverse_of.append(("above", "below"))
        a, b = iri("a"), iri("b")
        result = materialize(store_of(t(a, iri("above"), b)), schema)
        assert t(b, iri("below"), a) in result
        assert len(result) == 2

    def test_inverse_is_bidirectional(self):
        schema = props("above", "below")
        schema.inverse_of.append(("above", "below"))
        a, b = iri("a"), iri("b")
        result = materialize(store_of(t(a, iri("below"), b)), schema)
        assert t(b, iri("above"), a) in result

    def test_subproperty(self):
        schema = props("sitOn", "on")
        schema.subprop_of.append(("sitOn", "on"))
        a, b = iri("a"), iri("b")
        result = materialize(store_of(t(a, iri("sitOn"), b)), schema)
        assert t(a, iri("on"), b) in result
        # not the other way round
        result = materialize(store_of(t(a, iri("on"), b)), schema)
        assert t(a, iri("sitOn"), b) not in result

    def test_equivalent_property_both_ways(self):
        schema = props("under", "beneath")
        schema.eq_prop.append(("under", "beneath"))
        a, b = iri("a"), iri("b")
        assert t(a, iri("beneath"), b) in materialize(store_of(t(a, iri("under"), b)), schema)
        assert t(a, iri("under"), b) in materialize(store_of(t(a, iri("beneath"), b)), schema)

    def test_symmetric(self):
        schema = props("touches")
        schema.symmetric.append("touches")
        a, b = iri("a"), iri("b")
        result = materialize(store_of(t(a, iri("touches"), b)), schema)
        assert t(b, iri("touches"), a) in result

    def test_transitive_chain(self):
        schema = props("inside")
        schema.transitive.append("inside")
        nodes = [iri(f"n{i}") for i in range(4)]
        store = store_of(*(t(nodes[i], iri("inside"), nodes[i + 1]) for i in range(3)))
        result = materialize(store, schema)
        for i in range(4):
            for j in range(i + 1, 4):
                assert t(nodes[i], iri("inside"), nodes[j]) in result
        assert len(result) == 6

    def test_domain_and_range(self):
        schema = Schema(classes={"Person", "Clothing"}, properties={"wear"})
        schema.domain.append(("wear", "Person"))
        schema.range.append(("wear", "Clothing"))
        a, b = iri("a"), iri("b")
        result = materialize(store_of(t(a, iri("wear"), b)), schema)
        assert t(a, RDF_TYPE, iri("Person")) in result
        assert t(b, RDF_TYPE, iri("Clothing")) in result

    def test_subclass_chain_on_types(self):
        schema = Schema(classes={"TeddyBear", "Toy", "Thing"})
        schema.subclass_of += [("TeddyBear", "Toy"), ("Toy", "Thing")]
        a = iri("a")
        result = materialize(store_of(t(a, RDF_TYPE, iri("TeddyBear"))), schema)
        assert t(a, RDF_TYPE, iri("Toy")) in result
        assert t(a, RDF_TYPE, iri("Thing")) in result

    def test_equivalent_class_both_ways(self):
        schema = Schema(classes={"Sofa", "Couch"})
        schema.eq_class.append(("Sofa", "Couch"))
        a = iri("a")
        assert t(a, RDF_TYPE, iri("Couch")) in materialize(
            store_of(t(a, RDF_TYPE, iri("Sofa"))), schema
        )
        assert t(a, RDF_TYPE, iri("Sofa")) in materialize(
            store_of(t(a, RDF_TYPE, iri("Couch"))), schema
        )

    def test_rules_compose(self):
        schema = props("p", "q", "r")
        schema.inverse_of.append(("p", "q"))
        schema.subprop_of.append(("q", "r"))
        a, b = iri("a"), iri("b")
        result = materialize(store_of(t(a, iri("p"), b)), schema)
        assert t(b, iri("q"), a) in result
        assert t(b, iri("r"), a) in result

    def test_literals_never_become_subjects(self):
        schema = Schema(classes={"C"}, properties={"p", "q"})
        schema.symmetric.append("p")
        schema.transitive.append("p")
        schema.inverse_of.append(("p", "q"))
        schema.range.append(("p", "C"))
        a = iri("a")
        result = materialize(store_of(t(a, iri("p"), 5), t(a, iri("p"), "x")), schema)
        for triple in result:
            assert isinstance(triple.subject, Iri)
        assert t(5, RDF_TYPE, iri("C")) not in result

    def test_transitive_join_with_a_later_right_partner(self):
        """(b p c) is derived two rounds after (a p b) was drawn, so (a p c)
        needs the backward join from (b p c) to the triples drawn before it."""
        schema = props("p", "r", "s")
        schema.subprop_of += [("r", "s"), ("s", "p")]
        schema.transitive.append("p")
        a, b, c, p = iri("a"), iri("b"), iri("c"), iri("p")
        result = materialize(store_of(t(a, p, b), t(b, iri("r"), c)), schema)
        assert t(b, p, c) in result
        assert t(a, p, c) in result
        assert len(result) == 5

    def test_literal_is_never_a_join_node(self):
        """(b p a) and (a p 5) chain through the IRI a, but (a p 5) chains
        on from 5 to nothing: no store holds a literal subject such as (5 p b)."""
        schema = props("p")
        schema.transitive.append("p")
        a, b, p = iri("a"), iri("b"), iri("p")
        for triples in ([t(a, p, 5), t(b, p, a)], [t(b, p, a), t(a, p, 5)]):
            store = store_of(*triples)
            assert set(materialize(store, schema)) == {*triples, t(b, p, 5)}
            with pytest.raises(MalformedGraphError, match="^subject 5 is not an IRI$"):
                store.add(t(5, p, b))

    def test_subproperty_carries_literals(self):
        schema = props("p", "q")
        schema.subprop_of.append(("p", "q"))
        a = iri("a")
        result = materialize(store_of(t(a, iri("p"), 7)), schema)
        assert t(a, iri("q"), 7) in result

    def test_input_untouched_and_monotone(self):
        schema = props("inside")
        schema.transitive.append("inside")
        store = store_of(
            t(iri("a"), iri("inside"), iri("b")), t(iri("b"), iri("inside"), iri("c"))
        )
        result = materialize(store, schema)
        assert len(store) == 2
        assert set(store) <= set(result)

    def test_idempotent(self):
        schema = props("above", "below", "inside")
        schema.inverse_of.append(("above", "below"))
        schema.transitive.append("inside")
        store = store_of(
            t(iri("a"), iri("above"), iri("b")),
            t(iri("a"), iri("inside"), iri("b")),
            t(iri("b"), iri("inside"), iri("c")),
        )
        once = materialize(store, schema)
        twice = materialize(once, schema)
        assert set(once) == set(twice)


class TestExtract:
    def names(self, corpus):
        return corpus.object_class_names, corpus.predicate_names

    def test_round_trip_tiny(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        store = lower_annotations(corpus, schema)
        back = extract_annotations(store, schema, *self.names(corpus))
        assert back.images == canonicalize_corpus(corpus).images

    def test_dump_under_another_namespace_is_an_error(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        text = dump_text(lower_annotations(corpus, schema))
        other = "http://other/ns#"
        message = f"^no hasFilename triple under namespace {re.escape(repr(other))}$"
        with pytest.raises(MalformedGraphError, match=message):
            extract_annotations(load_text(text, namespace=other), schema, *self.names(corpus))
        empty = extract_annotations(load_text("", namespace=other), schema, *self.names(corpus))
        assert empty.images == {}

    def test_subject_under_another_namespace_is_an_error(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        other = "http://other/ns#"
        text = dump_text(lower_annotations(corpus, schema))
        text += dump_text(lower_annotations(corpus, schema, namespace=other))
        store = load_text(text)
        # checked before any image is read, so the literal member is not reached
        store.add(t(iri("img_i1.jpg"), iri("hasObject"), "oops"))
        under = re.escape(repr(DEFAULT_NAMESPACE))
        message = f"^subject {re.escape(other)}img_i1.jpg is not under namespace {under}$"
        with pytest.raises(MalformedGraphError, match=message):
            extract_annotations(store, schema, *self.names(corpus))
        literal = lower_annotations(corpus, schema)  # a literal subject never enters a store
        with pytest.raises(MalformedGraphError, match="^subject 'i1.jpg' is not an IRI$"):
            literal.add(t("i1.jpg", iri("hasObject"), iri("x")))
        assert len(literal) == len(lower_annotations(corpus, schema))

    def test_round_trip_randomized(self):
        rng = random.Random(73)
        for _ in range(25):
            corpus = random_corpus(rng, max_images=5, max_vrs=5)
            schema = default_schema(corpus)
            store = lower_annotations(corpus, schema)
            back = extract_annotations(store, schema, *self.names(corpus))
            assert back.images == canonicalize_corpus(corpus).images

    def test_inverse_materialization_doubles_vrs(self):
        corpus = AnnotationCorpus(
            images={
                "i.jpg": [
                    VisualRelationship(
                        AnnotatedObject(0, BoundingBox(0, 10, 0, 10)),
                        0,
                        AnnotatedObject(1, BoundingBox(20, 30, 20, 30)),
                    )
                ]
            },
            object_class_names=["person", "sofa"],
            predicate_names=["above", "below"],
        )
        schema = default_schema(corpus)
        schema.inverse_of.append(("above", "below"))
        extracted = extract_annotations(
            materialize(lower_annotations(corpus, schema), schema), schema, *self.names(corpus)
        )
        vrs = extracted.images["i.jpg"]
        assert len(vrs) == 2
        assert {extracted.vr_type_names(vr) for vr in vrs} == {
            ("person", "above", "sofa"),
            ("sofa", "below", "person"),
        }

    def test_most_specific_class_wins(self):
        corpus = tiny_corpus()
        schema = Schema(
            classes={"Person", "Hat", "Headwear"},
            properties={"wear"},
            subclass_of=[("Hat", "Headwear")],
            ann_classes={"person": "Person", "hat": "Hat", "headwear": "Headwear"},
            ann_properties={"wear": "wear"},
        )
        store = lower_annotations(corpus, schema)
        node = iri("img_i1.jpg_obj_Hat_2_5_3_6")
        materialized = materialize(store, schema)
        assert t(node, RDF_TYPE, iri("Headwear")) in materialized
        back = extract_annotations(
            materialized, schema, ["person", "hat", "headwear"], ["wear"]
        )
        vr = back.images["i1.jpg"][0]
        assert back.class_name(vr.object.class_id) == "hat"

    def test_ambiguous_class(self):
        schema = Schema(
            classes={"Person", "Hat", "Cap"},
            properties={"wear"},
            ann_classes={"person": "Person", "hat": "Hat", "cap": "Cap"},
            ann_properties={"wear": "wear"},
        )
        corpus = tiny_corpus()
        store = lower_annotations(corpus, schema)
        store.add(t(iri("img_i1.jpg_obj_Hat_2_5_3_6"), RDF_TYPE, iri("Cap")))
        with pytest.raises(AmbiguousClassError):
            extract_annotations(store, schema, ["person", "hat", "cap"], ["wear"])

    def test_coordinate_arity_enforced(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        node = iri("img_i1.jpg_obj_Hat_2_5_3_6")

        missing = GraphStore()
        for triple in lower_annotations(corpus, schema):
            if not (triple.subject == node and triple.predicate == iri("bboxYmin")):
                missing.add(triple)
        with pytest.raises(MalformedGraphError, match="bboxYmin"):
            extract_annotations(missing, schema, *self.names(corpus))

        doubled = lower_annotations(corpus, schema)
        doubled.add(t(node, iri("bboxYmin"), 99))
        with pytest.raises(MalformedGraphError, match="bboxYmin"):
            extract_annotations(doubled, schema, *self.names(corpus))

    def test_untyped_object_rejected(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        node = iri("img_i1.jpg_obj_Hat_2_5_3_6")
        store = GraphStore()
        for triple in lower_annotations(corpus, schema):
            if not (triple.subject == node and triple.predicate == RDF_TYPE):
                store.add(triple)
        with pytest.raises(MalformedGraphError, match="class"):
            extract_annotations(store, schema, *self.names(corpus))

    def test_filename_checks(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        base = lower_annotations(corpus, schema)

        second_name = base.copy()
        second_name.add(t(iri("img_i1.jpg"), iri("hasFilename"), "other.jpg"))
        with pytest.raises(MalformedGraphError, match="two filenames"):
            extract_annotations(second_name, schema, *self.names(corpus))

        shared_name = base.copy()
        shared_name.add(t(iri("img_ghost"), iri("hasFilename"), "i1.jpg"))
        with pytest.raises(MalformedGraphError, match="two image individuals"):
            extract_annotations(shared_name, schema, *self.names(corpus))

        non_string = base.copy()
        non_string.add(t(iri("img_ghost"), iri("hasFilename"), 7))
        with pytest.raises(MalformedGraphError, match="non-string"):
            extract_annotations(non_string, schema, *self.names(corpus))

    def test_literal_member_rejected(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        store = lower_annotations(corpus, schema)
        store.add(t(iri("img_i1.jpg"), iri("hasObject"), "oops"))
        with pytest.raises(MalformedGraphError, match="literal"):
            extract_annotations(store, schema, *self.names(corpus))

    def test_designated_name_missing_from_master_list(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        store = lower_annotations(corpus, schema)
        with pytest.raises(UnknownNameError):
            extract_annotations(store, schema, corpus.object_class_names, ["hold"])

    def test_designated_class_missing_from_master_list(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        store = lower_annotations(corpus, schema)
        with pytest.raises(UnknownNameError, match="^unknown object class: 'hat'$"):
            extract_annotations(store, schema, ["person"], corpus.predicate_names)

    def test_non_vr_triples_ignored(self):
        corpus = tiny_corpus()
        schema = default_schema(corpus)
        store = lower_annotations(corpus, schema)
        # chatter between non-member nodes and undesignated predicates
        store.add(t(iri("x"), iri("related"), iri("y")))
        store.add(
            t(
                iri("img_i1.jpg_obj_Person_0_10_0_10"),
                iri("annotatedBy"),
                "someone",
            )
        )
        back = extract_annotations(store, schema, *self.names(corpus))
        assert back.images == canonicalize_corpus(corpus).images


class TestHandBuiltSchema:
    """What `load_schema` cannot yield, a hand-built `Schema` may hold; `materialize` and
    `extract_annotations` refuse it with MalformedGraphError and leave the store as it was."""

    def check_refused(self, stage, message):
        corpus = tiny_corpus()
        store = lower_annotations(corpus, default_schema(corpus))
        before = dump_store(store).encode()
        with pytest.raises(MalformedGraphError, match=f"^{re.escape(message)}$"):
            stage(store, corpus)
        assert dump_store(store).encode() == before

    @pytest.mark.parametrize("axioms, message", [
        ({"subclass_of": [5]}, "subclass_of holds 5, which is not a pair of terms"),
        ({"subprop_of": [("a",)]}, "subprop_of holds ('a',), which is not a pair of terms"),
        ({"subclass_of": ["AB"]}, "subclass_of holds 'AB', which is not a pair of terms"),
    ], ids=["int", "one-term", "two-letter-string"])
    def test_materialize_refuses_an_axiom_that_is_not_a_pair(self, axioms, message):
        self.check_refused(lambda store, _: materialize(store, Schema(**axioms)), message)

    @pytest.mark.parametrize("value", [5, ["x"]], ids=["int", "list"])
    @pytest.mark.parametrize("field", ["ann_classes", "ann_properties"])
    def test_extract_refuses_a_designated_term_that_is_not_a_string(self, field, value):
        def extract(store, corpus):
            schema = default_schema(corpus)
            designations = getattr(schema, field)
            designations[next(iter(designations))] = value
            return extract_annotations(store, schema, corpus.object_class_names, corpus.predicate_names)
        self.check_refused(extract, f"IRI {value!r} is not a string")

    @pytest.mark.parametrize("field, pair, undeclared", [
        ("subclass_of", ("A", "B"), "B"), ("eq_class", ("B", "A"), "B"),
        ("subclass_of", ("A", ["x"]), ["x"]),
    ], ids=["subclass", "eqclass", "unhashable"])
    def test_extract_refuses_an_undeclared_class(self, field, pair, undeclared):
        schema = Schema(classes={"A"}, **{field: [pair]})
        self.check_refused(
            lambda store, corpus: extract_annotations(
                store, schema, corpus.object_class_names, corpus.predicate_names),
            f"{field} holds {pair!r}: {undeclared!r} is not a declared class")


class TestCanonicalize:
    def test_orders_and_dedups(self):
        a = VisualRelationship(
            AnnotatedObject(0, BoundingBox(5, 9, 5, 9)), 0, AnnotatedObject(1, BoundingBox(0, 2, 0, 2))
        )
        b = VisualRelationship(
            AnnotatedObject(0, BoundingBox(0, 9, 0, 9)), 0, AnnotatedObject(1, BoundingBox(0, 2, 0, 2))
        )
        corpus = AnnotationCorpus(
            images={"i.jpg": [a, b, a]},
            object_class_names=["person", "hat"],
            predicate_names=["wear"],
        )
        out = canonicalize_corpus(corpus)
        assert out.images["i.jpg"] == [b, a]
        assert corpus.images["i.jpg"] == [a, b, a]


class TestSerialization:
    def test_term_formats(self):
        assert format_term(iri("a")) == f"<{DEFAULT_NAMESPACE}a>"
        assert format_term(7) == '"7"^^<http://www.w3.org/2001/XMLSchema#integer>'
        assert format_term('say "hi"\n') == '"say \\"hi\\"\\n"'
        with pytest.raises(MalformedGraphError):
            format_term(True)

    def test_dump_is_sorted_and_terminated(self):
        store = store_of(
            t(iri("b"), iri("p"), iri("c")),
            t(iri("a"), iri("p"), iri("b")),
        )
        text = dump_text(store)
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert all(line.endswith(" .") for line in lines)
        assert text.endswith(".\n")

    def test_round_trip(self):
        store = store_of(
            t(iri("a"), iri("p"), iri("b")),
            t(iri("a"), iri("bboxYmin"), 42),
            t(iri("a"), iri("hasFilename"), 'tricky "name"\twith\nstuff\\end.jpg'),
        )
        loaded = load_text(dump_text(store))
        assert set(loaded) == set(store)
        assert dump_store(loaded) == dump_store(store)

    def test_round_trip_of_lowered_corpus(self):
        store = lower_annotations(tiny_corpus(), default_schema(tiny_corpus()))
        assert set(load_text(dump_text(store))) == set(store)

    def test_round_trip_of_every_filename_character(self):
        """Dump lines end only at a line feed: the other line breaks that
        str.splitlines knows stay inside a filename literal."""
        corpus = tiny_corpus()
        vr = corpus.images.pop("i1.jpg")
        for char in FILENAME_ALPHABET + "\x0b\x0c\x1c\x1d\x1e\x85":
            corpus.images[f"a{char}b.jpg"] = vr
        schema = default_schema(corpus)
        store = lower_annotations(corpus, schema)
        loaded = load_text(dump_text(store))
        assert set(loaded) == set(store)
        back = extract_annotations(loaded, schema, corpus.object_class_names, corpus.predicate_names)
        assert back.images == corpus.images

    def test_error_line_after_a_line_break_inside_a_literal(self):
        text = f'<{DEFAULT_NAMESPACE}a> <{DEFAULT_NAMESPACE}p> "x\x0cy\u2028z" .\nnot a triple\n'
        with pytest.raises(MalformedGraphError) as err:
            load_text(text)
        assert str(err.value) == "line 2: not a triple line"

    def test_load_skips_comments_and_blanks(self):
        text = "# a comment\n\n" + f'<{DEFAULT_NAMESPACE}a> <{DEFAULT_NAMESPACE}p> "x" .\n'
        store = load_text(text)
        assert len(store) == 1

    def test_read_dump(self, tmp_path):
        store = store_of(t(iri("a"), iri("hasFilename"), "\u00e9t\u00e9.jpg"))
        (tmp_path / "g.nt").write_bytes(dump_store(store).encode("utf-8"))
        with read_dump(tmp_path / "g.nt") as lines:
            assert set(load_store(lines)) == set(store)

    def test_read_dump_rejects_invalid_utf8(self, tmp_path):
        line = f'<{DEFAULT_NAMESPACE}a> <{DEFAULT_NAMESPACE}p> "x" .\n'.encode()
        (tmp_path / "g.nt").write_bytes(line + line.replace(b'"x"', b'"\xc3("'))
        with pytest.raises(MalformedGraphError) as err, read_dump(tmp_path / "g.nt") as lines:
            load_store(lines)
        assert str(err.value) == "line 2: invalid UTF-8 (invalid continuation byte)"

    def test_error_names_the_first_line_of_a_repeated_object_text(self):
        """Object texts are parsed once per load; a bad one must still be
        reported at the first line that holds it."""
        head = f"<{DEFAULT_NAMESPACE}a> <{DEFAULT_NAMESPACE}p>"
        bad = '"x"^^<http://example.org/custom>'
        lines = [f'{head} "ok" .', f"{head} {bad} .", f'{head} "ok" .', "", f"{head} {bad} ."]
        with pytest.raises(MalformedGraphError, match=r"^line 2: unsupported literal type"):
            load_text("\n".join(lines) + "\n")
        # a text parsed fine earlier does not hide a new bad one
        lines[1] = f'{head} "ok" .'
        with pytest.raises(MalformedGraphError, match=r"^line 5: "):
            load_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "line,detail",
        [
            ("<a> <p> <b>", "line 2"),
            ("<a> <p>", "line 2"),
            ('<a> <p> "x"^^<http://example.org/custom> .', "literal type"),
            ('<a> <p> "x\\q" .', "unknown escape"),
            ('<a> <p> "x\\" .', "line 2"),
            ('<a> <p> "1.5"^^<http://www.w3.org/2001/XMLSchema#integer> .', "bad integer"),
            ("<a> <p> naked .", "unreadable"),
        ],
    )
    def test_malformed_lines(self, line, detail):
        with pytest.raises(MalformedGraphError, match=detail):
            load_text("# leading comment\n" + line + "\n")


def pooled_corpus(rng):
    """A random corpus whose VRs reuse three objects per image, so that
    relations chain and transitive joins have work in both directions."""
    corpus = random_corpus(rng, max_images=4, max_vrs=8, n_predicates=3)
    for name, vrs in corpus.images.items():
        pool = [vr.subject for vr in vrs[:3]]
        corpus.images[name] = [
            VisualRelationship(rng.choice(pool), vr.predicate_id, rng.choice(pool)) for vr in vrs
        ]
    return corpus


def random_axioms(rng, schema):
    """Random axioms over a lowered corpus's terms, including the reserved
    vocabulary, so that rules also meet literal objects and image nodes."""
    pools = {
        "class": sorted(schema.classes) + ["Image"],
        "prop": sorted(schema.properties) + ["hasObject", "hasFilename", "bboxYmin"],
    }
    for _ in range(rng.randrange(1, 9)):
        keyword = rng.choice(sorted(_AXIOMS))
        field, kinds, _ = _AXIOMS[keyword]
        terms = tuple(rng.choice(pools[kind]) for kind in kinds)
        if len(terms) == 1:
            getattr(schema, field).append(terms[0])
        elif kinds[0] != kinds[1] or terms[0] != terms[1]:
            getattr(schema, field).append(terms)
    return schema


class TestLoweredCorpusOracles:
    """The id-level lower, materialize, dump and load paths against the naive
    oracles, on seeded random corpora."""

    def test_closure_equals_naive_oracle(self):
        rng = random.Random(6061)
        for _ in range(40):
            corpus = pooled_corpus(rng)
            schema = random_axioms(rng, default_schema(corpus))
            store = lower_annotations(corpus, schema, namespace=_NS)
            closed = materialize(store, schema)
            assert set(closed) == naive_closure(set(store), schema)
            assert len(set(store)) == len(store)

    def test_dump_load_dump_is_a_fixed_point(self):
        rng = random.Random(6062)
        for _ in range(40):
            corpus = random_corpus(rng, max_images=4, max_vrs=6)
            # filenames that need escaping in a string literal
            corpus.images = {f'{name} "q"\\\t\n€': vrs for name, vrs in corpus.images.items()}
            schema = random_axioms(rng, default_schema(corpus))
            store = lower_annotations(corpus, schema)
            for graph in (store, materialize(store, schema)):
                text = dump_text(graph)
                loaded = load_text(text)
                assert dump_text(loaded) == text
                assert set(loaded) == set(graph)


class TestStoreLayout:
    """The one subject index against brute force, and order independence."""

    def test_match_equals_a_filter_of_every_triple(self):
        rng = random.Random(1101)
        nodes, predicates = [iri(f"n{i}") for i in range(5)], [iri(f"p{i}") for i in range(3)]
        objects = [*nodes, 1, 2, "1", "x"]
        probes = ([*nodes, iri("absent")], [*predicates, iri("absent")], [*objects, 3])
        for _ in range(30):
            store = store_of(*(t(rng.choice(nodes), rng.choice(predicates), rng.choice(objects))
                               for _ in range(rng.randrange(30))))
            dup = store.copy()
            dup.add(t(iri("n9"), iri("p9"), 9))
            for graph in (store, dup):
                every = list(graph)
                for bound in itertools.product((False, True), repeat=3):
                    pattern = [rng.choice(pool) if b else None for b, pool in zip(bound, probes)]
                    expected = [x for x in every if all(
                        want is None or want == got
                        for want, got in zip(pattern, (x.subject, x.predicate, x.object)))]
                    found = graph.match(*pattern)
                    assert sorted(found, key=repr) == sorted(expected, key=repr)

    def test_insertion_order_changes_no_closure_and_no_dump(self):
        rng = random.Random(1102)
        for _ in range(20):
            corpus = pooled_corpus(rng)
            schema = random_axioms(rng, default_schema(corpus))
            triples = list(lower_annotations(corpus, schema))
            results = []
            for _ in range(2):
                rng.shuffle(triples)
                closed = materialize(store_of(*triples), schema)
                results.append((set(closed), dump_store(closed)))
            assert results[0] == results[1]
