"""`GraphStore` against the store before it, kept in `helpers` as the oracle.

`ReferenceGraphStore` holds each triple twice, in a set and in its subject's
list; `GraphStore` holds it once, as a key of its subject's ordered dict.  On
seeded sequences of operations, on loaded dumps and under `materialize`, the
two must give the same answers, the same `add` results in the same order,
the same subject index in the same order, and byte-identical dumps.  The
object terms of a dump are read against the regex that read them before."""

import itertools
import random

from vrannot.errors import MalformedGraphError
from vrannot.kg import (RDF_TYPE, XSD_INTEGER_IRI, GraphStore, Iri, Schema, Triple, _object_key,
                        dump_store, format_term, load_store, materialize)

from helpers import ReferenceGraphStore, reference_load_store, reference_object_key
from test_acceptance import _NS, naive_closure


def iri(local):
    return Iri(_NS + local)


NODES = [*map(iri, ("n0", "n1", "n2", "n3", "n4")), Iri("http://elsewhere.example/n")]
PREDICATES = [iri("p0"), iri("p1"), iri("p2")]
OBJECTS = [*NODES, 0, 1, -1, "1", "x", "", "\t\"é", Iri("1")]
REFUSED = [Triple("lit", PREDICATES[0], NODES[0]), Triple(NODES[0], 5, NODES[1]),
           Triple(NODES[0], PREDICATES[0], 2.5), Triple(NODES[0], PREDICATES[0], True),
           Triple(NODES[0], PREDICATES[0], "\ud800"), Triple(Iri("a b"), PREDICATES[0], 1),
           (NODES[0], PREDICATES[0])]
ODD_PROBES = [(), (NODES[0], PREDICATES[0]), "abc", (NODES[0], PREDICATES[0], NODES[0], NODES[0])]


def outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", call(*args)
    except (MalformedGraphError, ValueError) as exc:
        return type(exc), str(exc)


def random_triple(rng):
    return Triple(rng.choice(NODES[:4]), rng.choice(PREDICATES), rng.choice(OBJECTS))


def assert_same(new, old):
    """The same terms, triples, subject index in order, and dump bytes."""
    assert new._terms == old._terms and new._ids == old._ids
    assert [(s, list(ts)) for s, ts in new._by_subject.items()] == list(old._by_subject.items())
    assert len(new) == len(old) == len(list(new))
    assert set(new) == set(old)
    assert dump_store(new).encode() == dump_store(old).encode()


class TestOperationSequences:
    def test_seeded_sequences(self):
        rng = random.Random(2801)
        for _ in range(300):
            pairs = [(GraphStore(_NS), ReferenceGraphStore(_NS))]
            new, old = pairs[0]
            for _ in range(rng.randrange(80)):
                op = rng.randrange(10)
                if op < 5:
                    triple = rng.choice(REFUSED) if rng.random() < 0.1 else random_triple(rng)
                    assert outcome(new.add, triple) == outcome(old.add, triple)
                elif op == 5:  # go on with a copy or with a store copied earlier
                    pairs.append((new.copy(), old.copy()))
                    new, old = rng.choice(pairs)
                elif op == 6:
                    probe = rng.choice(ODD_PROBES) if rng.random() < 0.3 else Triple(
                        rng.choice(NODES), rng.choice([*PREDICATES, RDF_TYPE]), rng.choice(OBJECTS))
                    assert (probe in new) is (probe in old)
                elif op == 7:
                    for mask in itertools.product((False, True), repeat=3):
                        pattern = [rng.choice(pool) if bound else None
                                   for bound, pool in zip(mask, (NODES, PREDICATES, OBJECTS))]
                        found, expected = new.match(*pattern), old.match(*pattern)
                        if pattern[0] is None:  # a scan, in each store's own order
                            found, expected = sorted(found, key=repr), sorted(expected, key=repr)
                        assert found == expected
                else:
                    assert_same(new, old)
            for new, old in pairs:
                assert_same(new, old)

    def test_contains_is_total(self):
        new, old = GraphStore(_NS), ReferenceGraphStore(_NS)
        for store in (new, old):
            store.add(Triple(NODES[0], PREDICATES[0], NODES[0]))
        for probe in ODD_PROBES:
            assert probe not in new and probe not in old


# text variants of one triple's object, each read to the same term
_INTEGER_TEXTS = {2: ['"+2"^^<' + XSD_INTEGER_IRI + ">", '"02"^^<' + XSD_INTEGER_IRI + ">"]}
_STRING_TEXTS = {"\t\"é": ['"\t\\"é"']}


def _variant(rng, triple) -> str:
    """The triple's line, now and then with another text of its object or more blanks."""
    s, p, o = map(format_term, triple)
    texts = _INTEGER_TEXTS.get(triple.object, []) if triple.object.__class__ is int else (
        _STRING_TEXTS.get(triple.object, []) if triple.object.__class__ is str else [])
    if texts and rng.random() < 0.5:
        o = rng.choice(texts)
    if rng.random() < 0.2:
        o = rng.choice((" ", "\t", " \t")) + o + rng.choice(("", " ", "\t"))
    return f"{s} {p} {o} ."


class TestLoadStore:
    """Dumps whose subjects come back out of order, with duplicate lines while
    a subject's lines run and after it comes back."""

    def test_against_the_reference_loader(self):
        rng = random.Random(2802)
        objects = [*OBJECTS, 2]
        loaded = 0
        for _ in range(400):
            triples = [Triple(rng.choice(NODES), rng.choice(PREDICATES), rng.choice(objects))
                       for _ in range(rng.randrange(1, 30))]
            runs = []  # runs of one subject's lines; a subject may have several runs
            for subject, group in itertools.groupby(sorted(triples, key=repr), key=lambda t: t[0]):
                lines = [_variant(rng, t) for t in group]
                cut = rng.randrange(len(lines) + 1)
                runs += [lines[:cut], lines[cut:]]
            rng.shuffle(runs)
            lines = [line for run in runs for line in run]
            for _ in range(rng.randrange(4)):  # a duplicate next to its line or anywhere later
                at = rng.randrange(len(lines))
                lines.insert(rng.choice((at, rng.randrange(at, len(lines) + 1))), lines[at])
            if rng.random() < 0.05:
                bad = rng.choice(('<a> <p> .', '<a> <p> "x', '"x" <p> <o> .', '<a> <p> "\\q" .'))
                lines.insert(rng.randrange(len(lines)), bad)
            pairs = list(enumerate(lines, start=1))
            new, old = outcome(load_store, pairs, _NS), outcome(reference_load_store, pairs, _NS)
            if new[0] != "ok" or old[0] != "ok":
                assert new == old
                continue
            assert_same(new[1], old[1])
            loaded += 1
        assert loaded > 350


def _schema_with_every_family(rng) -> Schema:
    props, classes = ["p0", "p1", "p2", "p3"], ["C0", "C1", "C2", "C3"]
    schema = Schema(classes=set(classes), properties=set(props))

    def two(pool):
        return tuple(rng.sample(pool, 2))

    for _ in range(rng.randrange(1, 3)):
        schema.subprop_of.append(two(props))
        schema.eq_prop.append(two(props))
        schema.inverse_of.append(two(props))
        schema.transitive.append(rng.choice(props))
        schema.symmetric.append(rng.choice(props))
        schema.subclass_of.append(two(classes))
        schema.eq_class.append(two(classes))
        schema.domain.append((rng.choice(props), rng.choice(classes)))
        schema.range.append((rng.choice(props), rng.choice(classes)))
    return schema


def _logged_adds(monkeypatch):
    """The (store class, triple, result) of every `_add` of either store, in call order."""
    log = {GraphStore: [], ReferenceGraphStore: []}
    for cls in log:
        def _add(self, triple, add=cls._add, calls=log[cls]):
            result = add(self, triple)
            calls.append((triple, result))
            return result
        monkeypatch.setattr(cls, "_add", _add)
    return log


class TestMaterialize:
    def test_every_rule_family(self, monkeypatch):
        rng = random.Random(2803)
        log = _logged_adds(monkeypatch)
        nodes, classes = NODES[:5], [iri(f"C{i}") for i in range(4)]
        predicates = [iri(f"p{i}") for i in range(4)]
        for _ in range(150):
            schema = _schema_with_every_family(rng)
            new, old = GraphStore(_NS), ReferenceGraphStore(_NS)
            for _ in range(rng.randrange(25)):
                if rng.random() < 0.25:
                    triple = Triple(rng.choice(nodes), RDF_TYPE, rng.choice(classes))
                else:
                    triple = Triple(rng.choice(nodes), rng.choice(predicates),
                                    rng.choice([*nodes, *nodes, 1, "x"]))
                assert new.add(triple) == old.add(triple)
            closed_new, closed_old = materialize(new, schema), materialize(old, schema)
            assert log[GraphStore] == log[ReferenceGraphStore]
            assert_same(closed_new, closed_old)
            assert_same(new, old)  # the inputs are left as they were
            assert set(closed_new) == naive_closure(set(new), schema)
        assert sum(result for _, result in log[GraphStore]) > 1000


class TestJoinsOverTheGroupIterated:
    """The transitive forward join iterates the group of its object `o` while
    it adds to the group of its subject `s`.  When `s == o` it emits the triple
    it is iterating, which is never new, so the group never changes size."""

    def closed(self, schema, *triples):
        store, old = GraphStore(_NS), ReferenceGraphStore(_NS)
        for triple in triples:
            store.add(triple)
            old.add(triple)
        result = materialize(store, schema)
        assert set(result) == naive_closure(set(triples), schema)
        assert_same(result, materialize(old, schema))
        return result

    def test_transitive_self_loops(self):
        a, b, c, p = iri("a"), iri("b"), iri("c"), iri("p")
        schema = Schema(properties={"p"}, transitive=["p"])
        orders = itertools.permutations([Triple(a, p, a), Triple(a, p, b), Triple(b, p, c),
                                         Triple(c, p, c), Triple(b, p, a)])
        for triples in orders:
            assert len(self.closed(schema, *triples)) == 7  # a and b reach a, b and c; c itself

    def test_symmetric_and_inverse_with_subject_equal_to_object(self):
        a, b = iri("a"), iri("b")
        schema = Schema(properties={"s", "i", "j", "t"}, symmetric=["s", "t"],
                        inverse_of=[("i", "j")], transitive=["s", "i", "t"])
        result = self.closed(schema, Triple(a, iri("s"), a), Triple(a, iri("i"), a),
                             Triple(a, iri("t"), b), Triple(b, iri("i"), b))
        assert Triple(a, iri("j"), a) in result and Triple(a, iri("t"), a) in result

    def test_hub_subject_with_many_joins(self):
        hub, p = iri("hub"), iri("p")
        spokes = [iri(f"s{i}") for i in range(40)]
        schema = Schema(properties={"p", "q"}, transitive=["p"], subprop_of=[("q", "p")])
        triples = [Triple(hub, p, hub), *(Triple(hub, p, s) for s in spokes),
                   *(Triple(s, iri("q"), hub) for s in spokes[::3])]
        result = self.closed(schema, *triples)
        assert all(Triple(s, p, t) in result for s in spokes[::3] for t in spokes)


class TestObjectKey:
    """`_object_key` reads an object term without a repeated regex group; it
    must accept and refuse what the repeated group did, with the same key or
    the same message."""

    ALPHABET = ['"', "\\", "\n", "\r", "\t", "n", "t", "a", "é", " "]
    # what a literal body may hold: the characters that need no escape, and the escape pairs
    READABLE = ["\t", "n", "t", "a", "é", " ", "\\t", '\\"', "\\\\", "\\n", "\\r"]
    SUFFIXES = [f"^^<{XSD_INTEGER_IRI}>", "^^<x>", "^^<>", '^^<a"b>', "^^<a b>", "^^x",
                "^<x>", '"', '^^<x>"', " ", "^^<x>\\"]
    # an escaped closing quote, a backslash before a line break, an empty datatype, ...
    EDGES = ['"\\', '"a\\"', '"a\\\n"', '"\\\r"', '"a"b"', '""', '"x"^^<>',
             f'"+0"^^<{XSD_INTEGER_IRI}>', "<>", "<a>x"]

    def texts(self, rng):
        yield from self.EDGES
        for _ in range(120_000):
            tokens = self.READABLE if rng.random() < 0.6 else self.ALPHABET
            if rng.random() < 0.1:
                tokens = [*tokens, "1", "2", "+", "-"]
            body = "".join(rng.choice(tokens) for _ in range(rng.randrange(8)))
            form, suffix = rng.randrange(6), "" if rng.random() < 0.6 else rng.choice(self.SUFFIXES)
            yield body if form == 0 else f"<{body}>{suffix}" if form == 1 else f'"{body}"{suffix}'

    def test_against_the_repeated_group(self):
        rng = random.Random(2804)
        read = refused = 0
        for text in self.texts(rng):
            expected = outcome(reference_object_key, text, 3)
            assert outcome(_object_key, text, 3) == expected, text
            read += expected[0] == "ok"
            refused += expected[0] != "ok"
        assert read > 15_000 and refused > 15_000
