"""`extract_annotations` and `default_schema` against the code before them,
kept in `helpers` as the oracle.

The reference extraction holds each image's filename both by subject and in a
set of the filenames taken, and walks an image's members beside the map of
their objects; the reference designation holds each term it takes in a dict
beside the declared set.  On seeded stores, each edited into one of the shapes
extraction refuses or into an image order that differs from the subjects'
order, and on seeded master lists, both sides must give the same corpus in the
same image order or the same exception class and message."""

import random

from vrannot.corpus import AnnotationCorpus
from vrannot.errors import VrannotError
from vrannot.kg import (COORDINATE_PROPERTIES, HAS_FILENAME, HAS_OBJECT, RDF_TYPE, GraphStore, Iri,
                        Triple, default_schema, extract_annotations, lower_annotations, materialize)

from helpers import random_corpus, reference_default_schema, reference_extract_annotations

_NS = "http://example.org/vr#"


def outcome(call, *args):
    """What a call gives, in a form that compares order too, or the class and
    message of the error it raises."""
    try:
        result = call(*args)
    except VrannotError as exc:
        return type(exc), str(exc)
    if isinstance(result, AnnotationCorpus):
        return list(result.images.items()), result.object_class_names, result.predicate_names
    return {name: list(value.items()) if isinstance(value, dict) else value
            for name, value in vars(result).items()}


def rebuilt(triples) -> GraphStore:
    """A store of `triples`, added in their order."""
    store = GraphStore(_NS)
    for triple in triples:
        store.add(triple)
    return store


def prop(local):
    return Iri(_NS + local)


def edit(rng, store: GraphStore, corpus, schema) -> GraphStore:
    """`store` with one seeded edit, of a kind extraction refuses or not."""
    triples = list(store)
    named = [t for t in triples if t.predicate == prop(HAS_FILENAME)]
    images = [t.subject for t in named]
    members = [t.object for t in triples if t.predicate == prop(HAS_OBJECT)]
    image, node = rng.choice(images or [prop("i")]), rng.choice(members or [prop("o")])
    kind = rng.randrange(16) if named else 15  # once no filename is left, only a reorder
    if kind == 0:  # two filenames on one subject
        triples.append(Triple(image, prop(HAS_FILENAME), rng.choice(["z.jpg", named[0].object])))
    elif kind == 1:  # one filename on two subjects, the second new or an object node
        triples.append(Triple(rng.choice([prop("late"), node]), prop(HAS_FILENAME), named[-1].object))
    elif kind == 2:  # a non-string filename, alone or beside the string one
        triples = [t for t in triples if rng.random() < 0.5 or t not in named]
        triples.append(Triple(image, prop(HAS_FILENAME), rng.choice([7, prop("f")])))
    elif kind == 3:  # a foreign or nested subject
        subject = rng.choice([Iri("http://elsewhere.example/x"), prop("a/b"), prop("c#d")])
        triples.insert(rng.randrange(len(triples) + 1), Triple(subject, prop("p"), 1))
    elif kind == 4:  # no filename at all, or on some subjects only
        drop = set(rng.sample(named, rng.randrange(1, len(named) + 1)))
        triples = [t for t in triples if t not in drop]
    elif kind == 5:  # hasObject to a literal
        triples.append(Triple(image, prop(HAS_OBJECT), rng.choice([3, "n", ""])))
    elif kind == 6:  # a missing coordinate
        coordinate = prop(rng.choice(COORDINATE_PROPERTIES))
        triples = [t for t in triples if (t.subject, t.predicate) != (node, coordinate)]
    elif kind == 7:  # a doubled or non-integer coordinate
        triples.append(Triple(node, prop(rng.choice(COORDINATE_PROPERTIES)), rng.choice([-5, "9"])))
    elif kind == 8:  # no class
        triples = [t for t in triples if not (t.subject == node and t.predicate == RDF_TYPE)]
    elif kind == 9:  # a second designated class: ambiguous unless one is the other's subclass
        triples.append(Triple(node, RDF_TYPE, prop(rng.choice(sorted(schema.classes)))))
    elif kind == 10:  # an undesignated class and a stray triple between objects
        triples += [Triple(node, RDF_TYPE, prop("Other")), Triple(node, prop("stray"), node)]
    elif kind == 11:  # a relationship to an object of another image or to no object
        triples.append(Triple(node, prop(rng.choice(sorted(schema.properties))),
                              rng.choice([*members, prop("loose")])))
    elif kind == 12:  # filenames moved among subjects, so their order is not the subjects'
        renamed = dict(zip(named, rng.sample([t.object for t in named], len(named))))
        triples = [Triple(t.subject, t.predicate, renamed[t]) if t in renamed else t for t in triples]
    else:  # the same triples added in another order: subjects met in another order
        rng.shuffle(triples)
    return rebuilt(triples)


class TestExtraction:
    def test_seeded_stores(self):
        rng = random.Random(3001)
        refused = set()
        for _ in range(400):
            corpus = random_corpus(rng, max_images=6, max_vrs=5, n_classes=5, n_predicates=4)
            schema = default_schema(corpus)
            if rng.random() < 0.3:  # a most specific class to find
                terms = sorted(schema.classes)
                schema.subclass_of.append(tuple(rng.sample(terms, 2)))
            store = lower_annotations(corpus, schema, namespace=_NS)
            for _ in range(rng.randrange(4)):
                store = edit(rng, store, corpus, schema)
            if rng.random() < 0.3:
                store = materialize(store, schema)
            classes, predicates = corpus.object_class_names, corpus.predicate_names
            if rng.random() < 0.1:  # a designated name the master lists lack
                classes, predicates = rng.choice([(classes[1:], predicates), (classes, predicates[1:])])
            new = outcome(extract_annotations, store, schema, classes, predicates)
            assert new == outcome(reference_extract_annotations, store, schema, classes, predicates)
            refused.add(new[0] if isinstance(new[0], type) else "ok")
        assert len(refused) >= 4  # the corpus and several kinds of refusal were compared

    def test_empty_and_filename_only_stores(self):
        schema = default_schema(AnnotationCorpus({}, ["a"], ["p"]))
        for store in (GraphStore(_NS),
                      rebuilt([Triple(prop("i"), prop(HAS_FILENAME), "b.jpg"),
                               Triple(prop("h"), prop(HAS_FILENAME), "a.jpg")])):
            new = outcome(extract_annotations, store, schema, ["a"], ["p"])
            assert new == outcome(reference_extract_annotations, store, schema, ["a"], ["p"])
            assert new[0] == [(name, []) for name in sorted(name for *_, name in store)]


# each pool mangles to few terms: collisions among live, retired and repeated
# names, and names whose term is reserved or that no term can be made from
CLASS_POOL = ["a b", "a_b", "A B", "ab", "Ab", "has object", "image", "Image", "bbox ymin",
              "teddy bear", "teddy-bear", "9 lives", "--", "x"]
PREDICATE_POOL = ["sit on", "sit_on", "Sit On", "siton", "has filename", "hasObject", "bbox xmax",
                  "image", "on", "ON", "on ", "4x4", "x"]


class TestDefaultDesignation:
    def test_seeded_master_lists(self):
        rng = random.Random(3002)
        seen = set()
        for _ in range(2000):
            classes = [rng.choice(CLASS_POOL) for _ in range(rng.randrange(6))]
            predicates = [rng.choice(PREDICATE_POOL) for _ in range(rng.randrange(6))]
            corpus = AnnotationCorpus(
                {}, classes, predicates,
                retired_class_ids={i for i in range(len(classes)) if rng.random() < 0.3},
                retired_predicate_ids={i for i in range(len(predicates)) if rng.random() < 0.3},
            )
            new = outcome(default_schema, corpus)
            assert new == outcome(reference_default_schema, corpus)
            seen.add(new[1].split(" ")[-3] if isinstance(new, tuple) else "ok")
        assert {"ok", "reserved", "to"} <= seen  # schemas, reserved terms and collisions
