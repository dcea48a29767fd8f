"""Triple-graph bridge: lower annotations to a graph, infer, extract back.

Lowering builds, per image, one image individual (typed, carrying its
filename as a string literal) plus one individual per distinct (class, box)
pair, linked by `hasObject`; each object carries its class and four
coordinate integer literals; each relationship becomes one triple between
object individuals.  A schema file declares classes and properties, the
axioms over them, and the designation maps tying corpus names to schema
terms.  Materialization computes the least fixpoint of the rule set
(subproperty, equivalence, inverse, symmetric, transitive, subclass,
domain, range).  Extraction walks the (possibly inferred) graph back to a
corpus, labeling each object with its most specific designated class.

Only designated terms round-trip: inferred triples involving undesignated
superproperties or superclasses enrich the graph without leaking into the
extracted annotations.

The store is dictionary-encoded, as in HDT and RDFox: each term has an int
id, a triple is a tuple of three ids, and one index lists triples by subject.
Stages work on ids; `Iri` and `Triple` are only the facade of `GraphStore`.
"""

from __future__ import annotations

import codecs
import re
from collections import defaultdict
from itertools import zip_longest
from typing import NamedTuple
from urllib.parse import quote

from .corpus import (
    DEFAULT_NAMESPACE,
    _SURROGATE,
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    Record,
    VisualRelationship,
    _open_input,
    gc_paused,
    input_lines,
)
from .errors import (
    AmbiguousClassError,
    ConfigError,
    ImageNotFoundError,
    MalformedAxiomError,
    MalformedGraphError,
    SelfAxiomError,
    UndeclaredTermError,
    UnknownNameError,
    UnmappedNameError,
)

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER_IRI = "http://www.w3.org/2001/XMLSchema#integer"

IMAGE_CLASS = "Image"
HAS_OBJECT = "hasObject"
HAS_FILENAME = "hasFilename"
COORDINATE_PROPERTIES = ("bboxYmin", "bboxYmax", "bboxXmin", "bboxXmax")
RESERVED_LOCALS = frozenset({IMAGE_CLASS, HAS_OBJECT, HAS_FILENAME, *COORDINATE_PROPERTIES})

_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_NESTED = re.compile(r"[/#]")  # past a namespace in an IRI, the mark of a longer namespace
_IRI_STOPS = r'\x00-\x20<>"{}|^`\\'  # what N-Triples' IRIREF excludes: no dump IRI holds one
_IRI_BREAK = re.compile(f"[{_IRI_STOPS}]")
_IRI = f"<([^{_IRI_STOPS}]*)>"  # an IRI term of a dump line, its text the group


def check_iri(text: str) -> str:
    """`text`, if a dump can hold it inside an IRI; else MalformedGraphError."""
    if not isinstance(text, str):
        raise MalformedGraphError(f"IRI {text!r} is not a string")
    bad = _IRI_BREAK.search(text)
    if bad:
        raise MalformedGraphError(f"{text!r} holds {bad[0]!r}, which no IRI in a dump can hold")
    if _SURROGATE.search(text):
        raise MalformedGraphError(f"{text!r} is not valid UTF-8")
    return text


class Iri(NamedTuple):
    """An IRI term; it equals only an `Iri`, never a string literal or a plain tuple."""

    value: str

    def __eq__(self, other) -> bool:
        return other.__class__ is Iri and self.value == other.value

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return self.value


RDF_TYPE = Iri(RDF_TYPE_IRI)


class Triple(NamedTuple):
    """Subject and predicate are IRIs; the object may also be an int or str literal."""

    subject: Iri
    predicate: Iri
    object: Iri | int | str


def _key(term) -> str | tuple:
    """IRIs key by string, literals by (type, value): 1, "1" and <1> stay apart."""
    return term.value if isinstance(term, Iri) else (type(term), term)


class GraphStore:
    """Dictionary-encoded set of triples.

    `_terms[id]` is the key of a term (see `_key`) and `_ids` maps it back.
    Each triple is an `(s, p, o)` id tuple in `_triples`, listed in insertion
    order under its subject in `_by_subject`, the one index.  The public
    methods encode and decode `Iri`/`Triple` values at the boundary."""

    def __init__(self, namespace: str = DEFAULT_NAMESPACE):
        self.namespace = check_iri(namespace)
        self._ids: dict[str | tuple, int] = {}
        self._terms: list[str | tuple] = []
        self._triples: set[tuple[int, int, int]] = set()
        self._by_subject = defaultdict(list)

    def _id(self, key) -> int:
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(self._terms)
            self._terms.append(key)
        return found

    def _add(self, triple: tuple[int, int, int]) -> bool:
        size = len(self._triples)
        self._triples.add(triple)
        if len(self._triples) == size:
            return False
        self._by_subject[triple[0]].append(triple)
        return True

    def _term(self, term_id: int):
        key = self._terms[term_id]
        return Iri(key) if key.__class__ is str else key[1]

    def _encode(self, triple: Triple, lookup) -> tuple:
        return tuple(lookup(_key(t)) for t in triple)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self):
        return (Triple(*map(self._term, t)) for t in self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return self._encode(triple, self._ids.get) in self._triples

    def add(self, triple: Triple) -> bool:
        """Insert; True when the triple is new.  A term a dump cannot write raises: a subject
        or predicate that is not an `Iri`, an object that is not an `Iri`, `str` or `int`."""
        for position, term in zip(Triple._fields, triple, strict=True):
            if isinstance(term, Iri) and term.value.__class__ is str:
                check_iri(term.value)
            elif position != "object":
                raise MalformedGraphError(f"{position} {term!r} is not an IRI")
            elif term.__class__ not in (str, int):
                raise MalformedGraphError(f"object {term!r} is not an IRI, a string or an integer")
            elif term.__class__ is str and _SURROGATE.search(term):
                raise MalformedGraphError(f"literal {term!r} is not valid UTF-8")
        return self._add(self._encode(triple, self._id))

    def match(self, subject=None, predicate=None, object=None) -> list[Triple]:
        """All triples matching the given positions (None = any).  Only the
        subject is indexed: without one, the match is a scan."""
        terms = (subject, predicate, object)
        keep = [(i, self._ids.get(_key(t), -1)) for i, t in enumerate(terms) if t is not None]
        candidates = self._triples if subject is None else self._by_subject.get(keep[0][1], ())
        return [Triple(*map(self._term, t)) for t in candidates if all(t[i] == w for i, w in keep)]

    def copy(self) -> GraphStore:
        """An independent store; the index is cloned, not rebuilt."""
        out = GraphStore(self.namespace)
        out._ids, out._terms, out._triples = dict(self._ids), list(self._terms), set(self._triples)
        out._by_subject.update((s, list(ts)) for s, ts in self._by_subject.items())
        return out


# --------------------------------------------------------------------------
# schema
# --------------------------------------------------------------------------


# axiom keyword -> (Schema field, argument kinds, arity text of its error)
_AXIOMS = {
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

_KEYWORDS = frozenset({"class", "prop", "annclass", "annprop", *_AXIOMS})

# Schema field -> the type of its empty default: the declared terms, the axioms, the designations
_SCHEMA_FIELDS = {"classes": set, "properties": set,
                  **{name: list for name, _, _ in _AXIOMS.values()},
                  "ann_classes": dict, "ann_properties": dict}


class Schema(Record):
    """Declared terms, axioms over them, and the corpus-name designations.
    Built by keyword; each field not given is a fresh empty container."""

    def __init__(self, **given):
        unknown = given.keys() - _SCHEMA_FIELDS.keys()
        if unknown:
            raise TypeError(f"Schema() got an unexpected keyword argument {min(unknown)!r}")
        for name, empty in _SCHEMA_FIELDS.items():
            setattr(self, name, given[name] if name in given else empty())


def _schema_local(token: str, line: int) -> str:
    if not _LOCAL_RE.match(token):
        raise MalformedAxiomError(line, f"invalid term {token!r}")
    return token


def load_schema(path) -> Schema:
    """Parse a line-oriented axiom file; every term must be declared on an
    earlier line than its first use."""
    schema = Schema()
    declared = {"class": schema.classes, "prop": schema.properties}

    def need(kind: str, token: str, line: int) -> str:
        name = _schema_local(token, line)
        if name not in declared[kind]:
            raise UndeclaredTermError(line, name)
        return name

    with input_lines(_open_input(path), MalformedAxiomError) as lines:
        for line_no, line in lines:
            fields = line.split(None, 1)
            keyword = fields[0]
            rest = fields[1].strip() if len(fields) == 2 else ""
            if keyword not in _KEYWORDS:
                raise MalformedAxiomError(line_no, f"unknown keyword {keyword!r}")
            if not rest:
                raise MalformedAxiomError(line_no, f"{keyword} needs arguments")
            if keyword in declared:
                declared[keyword].add(_schema_local(rest, line_no))
                continue
            if keyword in ("annclass", "annprop"):
                # the last token is the schema term; the rest is the corpus name
                split = rest.rsplit(None, 1)
                if len(split) != 2:
                    raise MalformedAxiomError(line_no, f"{keyword} needs a corpus name and a term")
                corpus_name, term = split
                term = need(keyword[3:], term, line_no)  # annclass -> class, annprop -> prop
                mapping = schema.ann_classes if keyword == "annclass" else schema.ann_properties
                if corpus_name in mapping:
                    raise MalformedAxiomError(line_no, f"{corpus_name!r} designated twice")
                if term in mapping.values():
                    raise MalformedAxiomError(line_no, f"term {term!r} designated twice")
                mapping[corpus_name] = term
                continue
            target, kinds, arity = _AXIOMS[keyword]
            args = rest.split()
            if len(args) != len(kinds):
                raise MalformedAxiomError(line_no, f"{keyword} takes {arity}")
            terms = tuple(need(kind, token, line_no) for kind, token in zip(kinds, args))
            if len(terms) == 1:
                getattr(schema, target).append(terms[0])
                continue
            # relating a term to itself is rejected; domain/range relate two kinds
            if kinds[0] == kinds[1] and terms[0] == terms[1]:
                raise SelfAxiomError(line_no, terms[0])
            getattr(schema, target).append(terms)
    return schema


# --------------------------------------------------------------------------
# name mangling and default designations
# --------------------------------------------------------------------------


def _name_parts(name: str) -> list[str]:
    parts = [p for p in re.split(r"[^0-9A-Za-z]+", name) if p]
    if not parts or parts[0][0].isdigit():
        raise ConfigError(f"cannot derive a graph identifier from {name!r}")
    return parts


def class_local(name: str) -> str:
    """`teddy bear` -> `TeddyBear`."""
    return "".join(p[:1].upper() + p[1:] for p in _name_parts(name))


def property_local(name: str) -> str:
    """`sit on` -> `sitOn`: the class form with its first letter, never a digit, lowered."""
    local = class_local(name)
    return local[0].lower() + local[1:]


def default_schema(corpus: AnnotationCorpus) -> Schema:
    """Axiom-free schema designating every live corpus name via mangling.
    Two names yielding one term, or a reserved term, are rejected."""
    schema = Schema()
    for names, retired, mangle, declared, designated in (
        (corpus.object_class_names, corpus.retired_class_ids, class_local,
         schema.classes, schema.ann_classes),
        (corpus.predicate_names, corpus.retired_predicate_ids, property_local,
         schema.properties, schema.ann_properties),
    ):
        taken: dict[str, str] = {}  # term -> the name it came from
        for number, name in enumerate(names):
            if number in retired:
                continue
            local = mangle(name)
            if local in RESERVED_LOCALS:
                raise ConfigError(f"{name!r} maps to reserved term {local!r}")
            if local in taken:
                raise ConfigError(f"{name!r} and {taken[local]!r} both map to term {local!r}")
            taken[local] = name
            declared.add(local)
            designated[name] = local
    return schema


# --------------------------------------------------------------------------
# lowering
# --------------------------------------------------------------------------


@gc_paused()
def lower_annotations(
    corpus: AnnotationCorpus,
    schema: Schema,
    namespace: str = DEFAULT_NAMESPACE,
    image: str | None = None,
) -> GraphStore:
    """Lower the whole corpus (or one image) to a graph.

    Object individuals are shared within an image by (class, box) identity,
    so two VRs naming the same localized object reference one node.
    """
    if image is not None and image not in corpus.images:
        raise ImageNotFoundError(image)
    selected = corpus.images if image is None else {image: corpus.images[image]}
    store = GraphStore(namespace)
    intern, add = store._id, store._add

    def iri(local: str) -> int:
        return intern(namespace + local)

    def designations(names: list[str], mapping: dict[str, str]) -> list:  # (term, id) or None
        return [(mapping[name], iri(check_iri(mapping[name]))) if name in mapping else None
                for name in names]

    class_terms = designations(corpus.object_class_names, schema.ann_classes)
    property_terms = designations(corpus.predicate_names, schema.ann_properties)
    rdf_type, image_class = intern(RDF_TYPE_IRI), iri(IMAGE_CLASS)
    has_filename, has_object = iri(HAS_FILENAME), iri(HAS_OBJECT)
    coordinate_properties = [iri(prop) for prop in COORDINATE_PROPERTIES]
    for filename, vrs in selected.items():
        if _SURROGATE.search(filename):  # which `quote` cannot encode
            raise MalformedGraphError(f"{filename!r} is not valid UTF-8")
        img_local = "img_" + quote(filename, safe="")
        img = iri(img_local)
        add((img, rdf_type, image_class))
        add((img, has_filename, intern((str, filename))))
        nodes: dict[AnnotatedObject, int] = {}

        def node_of(obj: AnnotatedObject) -> int:
            node = nodes.get(obj)
            if node is not None:
                return node
            if class_terms[obj.class_id] is None:
                raise UnmappedNameError(corpus.class_name(obj.class_id), "object class")
            term, term_id = class_terms[obj.class_id]
            node = nodes[obj] = iri("{}_obj_{}_{}_{}_{}_{}".format(img_local, term, *obj.bbox))
            if add((img, has_object, node)):
                add((node, rdf_type, term_id))
                for prop, value in zip(coordinate_properties, obj.bbox):
                    add((node, prop, intern((int, value))))
            return node

        for vr in vrs:
            subject, object_ = node_of(vr.subject), node_of(vr.object)
            if property_terms[vr.predicate_id] is None:
                raise UnmappedNameError(corpus.predicate_name(vr.predicate_id), "predicate")
            add((subject, property_terms[vr.predicate_id][1], object_))
    return store


# --------------------------------------------------------------------------
# materialization
# --------------------------------------------------------------------------


def _check_pairs(schema: Schema) -> None:
    """Refuse, in a hand-built schema, an axiom of two terms (`_AXIOMS`) that is not a pair."""
    for target, kinds, _ in _AXIOMS.values():
        for axiom in getattr(schema, target) if len(kinds) == 2 else ():
            if not isinstance(axiom, (tuple, list)) or len(axiom) != 2:
                raise MalformedGraphError(f"{target} holds {axiom!r}, which is not a pair of terms")


def _both_ways(pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The pairs and their reverses, for the symmetric axioms."""
    return [*pairs, *((b, a) for a, b in pairs)]


@gc_paused()
def materialize(store: GraphStore, schema: Schema) -> GraphStore:
    """Least fixpoint of the axiom rules over the store; the input store is
    left unmodified.  Literal objects never move into subject position, so
    inverse/symmetric/transitive/range rules skip them.

    Semi-naive: each triple is drawn from a frontier once and dispatched on
    its predicate; the first frontier holds only the triples some rule reads.
    A transitive join looks forward in the subject index and back at the
    triples of its predicate drawn so far: of two joinable triples, the later
    drawn finds the other.
    """
    _check_pairs(schema)
    result = store.copy()

    def iri(local: str) -> int:
        return result._id(store.namespace + check_iri(local))  # once per schema term use

    def links(pairs) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for a, b in pairs:
            out.setdefault(iri(a), set()).add(iri(b))
        return out

    superprops = links((*schema.subprop_of, *_both_ways(schema.eq_prop)))
    mirrors = links((*_both_ways(schema.inverse_of), *((p, p) for p in schema.symmetric)))
    domains, ranges = links(schema.domain), links(schema.range)
    transitive = {iri(p) for p in schema.transitive}
    superclasses = links((*schema.subclass_of, *_both_ways(schema.eq_class)))
    rdf_type = result._id(RDF_TYPE_IRI)
    rules = {  # predicate -> its rules; the last maps an object to the subjects drawn so far
        p: (superprops.get(p, ()), mirrors.get(p, ()), domains.get(p, ()), ranges.get(p, ()),
            {} if p in transitive else None)
        for p in {*superprops, *mirrors, *domains, *ranges, *transitive} - {rdf_type}
    }

    terms, by_subject = result._terms, result._by_subject
    read = {*rules, rdf_type} if superclasses else rules
    frontier = [t for triples in by_subject.values() for t in triples if t[1] in read]
    while frontier:
        pending: list[tuple[int, int, int]] = []

        def emit(triple: tuple[int, int, int]) -> None:
            if result._add(triple):
                pending.append(triple)
        for s, p, o in frontier:
            if p == rdf_type:
                for c in superclasses.get(o, ()):
                    emit((s, rdf_type, c))
                continue
            if p not in rules:
                continue
            supers, mirror, domain, range_, drawn = rules[p]
            for q in supers:
                emit((s, q, o))
            for c in domain:
                emit((s, rdf_type, c))
            node = terms[o].__class__ is str
            for q in mirror if node else ():
                emit((o, q, s))
            for c in range_ if node else ():
                emit((o, rdf_type, c))
            if drawn is not None:
                for inward in drawn.get(s, ()):
                    emit((inward, p, o))
                if node:  # the join node must be an IRI
                    for _, q, onward in by_subject.get(o, ()):
                        if q == p:
                            emit((s, p, onward))
                    drawn.setdefault(o, []).append(s)
        frontier = pending
    return result


# --------------------------------------------------------------------------
# extraction
# --------------------------------------------------------------------------


def _subclass_ancestors(schema: Schema) -> dict[str, set[str]]:
    """term -> every term it is a subclass of (reflexive, transitive, via equivalences)."""
    edges: dict[str, set[str]] = {c: {c} for c in schema.classes}
    for target in ("subclass_of", "eq_class"):
        for pair in getattr(schema, target):
            for term in pair:
                if not isinstance(term, str) or term not in edges:
                    raise MalformedGraphError(f"{target} holds {pair!r}: {term!r} is not a declared class")
    for a, b in (*schema.subclass_of, *_both_ways(schema.eq_class)):
        edges[a].add(b)
    closure: dict[str, set[str]] = {}
    for start in schema.classes:
        seen, queue = {start}, [start]
        while queue:
            fresh = edges[queue.pop()] - seen
            seen |= fresh
            queue += fresh
        closure[start] = seen
    return closure


@gc_paused()
def extract_annotations(
    store: GraphStore,
    schema: Schema,
    object_class_names: list[str],
    predicate_names: list[str],
) -> AnnotationCorpus:
    """Walk a lowered (possibly materialized) graph back to a corpus.

    Per image, every triple between two of its object individuals whose
    predicate is a designated annotation property yields one VR.  VRs come
    out in canonical order (subject box, predicate id, object box) with
    exact duplicates collapsed.  A non-empty store with no filename triple
    under its namespace, or with a subject outside it, raises MalformedGraphError.
    A subject is inside when the rest of its IRI holds no `/` or `#`, as no
    local name made by lowering does.
    """
    _check_pairs(schema)
    terms, by_subject, namespace = store._terms, store._by_subject, store.namespace

    def known(local: str) -> int | None:  # None, which no triple holds, if absent
        return store._ids.get(namespace + check_iri(local))

    # name -> first position, as list.index would give
    class_ids = {name: i for i, name in reversed(list(enumerate(object_class_names)))}
    predicate_ids = {name: i for i, name in reversed(list(enumerate(predicate_names)))}
    property_ids: dict[int | None, int] = {}
    for name, term in schema.ann_properties.items():
        if name not in predicate_ids:
            raise UnknownNameError(name, "predicate")
        property_ids[known(term)] = predicate_ids[name]
    annotation_classes = {known(term): term for term in schema.ann_classes.values()}
    class_of_term = {term: name for name, term in schema.ann_classes.items()}
    coordinate_slots = {known(prop): slot for slot, prop in enumerate(COORDINATE_PROPERTIES)}
    has_object, has_filename = known(HAS_OBJECT), known(HAS_FILENAME)
    rdf_type, ancestors = store._ids.get(RDF_TYPE_IRI), _subclass_ancestors(schema)

    filenames: dict[int, str] = {}
    used, foreign = set(), []  # filenames taken; subject IRIs outside the namespace
    for s, triples in by_subject.items():
        key = terms[s]  # every subject is an IRI
        if not key.startswith(namespace) or _NESTED.search(key, len(namespace)):
            foreign.append(key)
        for filename in [store._term(o) for _, p, o in triples if p == has_filename]:
            if not isinstance(filename, str):
                raise MalformedGraphError(f"{store._term(s)} has a non-string filename")
            if s in filenames:
                raise MalformedGraphError(f"{store._term(s)} carries two filenames")
            if filename in used:
                raise MalformedGraphError(f"filename {filename!r} used by two image individuals")
            filenames[s] = filename
            used.add(filename)
    if not filenames and len(store):  # most likely a dump lowered under another namespace
        raise MalformedGraphError(f"no {HAS_FILENAME} triple under namespace {namespace!r}")
    if foreign:
        raise MalformedGraphError(f"subject {min(foreign)} is not under namespace {namespace!r}")

    def read_object(node: int) -> AnnotatedObject:
        """The object of a node, from one pass over its triples."""
        coords, candidates = [[], [], [], []], set()  # value ids per coordinate; class terms
        for _, p, o in by_subject.get(node, ()):
            if p in coordinate_slots:
                coords[coordinate_slots[p]].append(o)
            elif p == rdf_type and o in annotation_classes:
                candidates.add(annotation_classes[o])
        box = tuple(store._term(found[0]) if len(found) == 1 else None for found in coords)
        for prop, value, found in zip(COORDINATE_PROPERTIES, box, coords):
            if not isinstance(value, int):
                detail = f"needs exactly one integer {prop}, found {len(found)}"
                raise MalformedGraphError(f"{terms[node]} {detail}")
        if not candidates:
            raise MalformedGraphError(f"{terms[node]} has no designated annotation class")
        minima = [c for c in candidates if all(other in ancestors[c] for other in candidates)]
        if len(minima) != 1:  # no single most specific class
            raise AmbiguousClassError(terms[node], sorted(candidates))
        name = class_of_term[minima[0]]
        if name not in class_ids:
            raise UnknownNameError(name, "object class")
        return AnnotatedObject(class_ids[name], BoundingBox(*box))

    images: dict[str, list[VisualRelationship]] = {}
    for img in sorted(filenames, key=filenames.__getitem__):
        members: set[int] = set()
        for _, p, o in by_subject.get(img, ()):
            if p == has_object:
                if terms[o].__class__ is not str:
                    raise MalformedGraphError(f"{terms[img]} links a literal via {HAS_OBJECT}")
                members.add(o)
        objects = {node: read_object(node) for node in members}
        # keyed by the VR's sort key, which fixes it, so equal VRs collapse
        vrs: dict[tuple, VisualRelationship] = {}
        for node in members:
            subject = objects[node]
            for _, p, o in by_subject.get(node, ()):
                if p in property_ids and o in members:
                    object_ = objects[o]
                    key = (subject.bbox, property_ids[p], object_.bbox,
                           subject.class_id, object_.class_id)
                    vrs[key] = VisualRelationship(subject, property_ids[p], object_)
        images[filenames[img]] = [vrs[key] for key in sorted(vrs)]
    return AnnotationCorpus(images, list(object_class_names), list(predicate_names))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}  # escape letter -> character
_ESCAPE_TABLE = str.maketrans({char: "\\" + letter for letter, char in _ESCAPES.items()})
_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape_literal(text: str, line: int) -> str:
    # `_OBJECT_RE` pairs every backslash with the character after it.
    try:
        return _ESCAPE_RE.sub(lambda match: _ESCAPES[match.group(1)], text)
    except KeyError as unknown:
        raise MalformedGraphError(f"line {line}: unknown escape \\{unknown.args[0]}") from None


def format_term(term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, bool):
        raise MalformedGraphError(f"unsupported literal {term!r}")
    if isinstance(term, int):
        return f'"{term}"^^<{XSD_INTEGER_IRI}>'
    return f'"{term.translate(_ESCAPE_TABLE)}"'


class Dump:
    """A store's dump: the lines in order, each UTF-8 `bytes` ending in a line
    break.  It is lazy and can be iterated more than once: each pass makes the
    lines afresh from the store as it is then.  Two dumps are equal when their
    lines are."""

    def __init__(self, store: GraphStore):
        self._store = store

    def __iter__(self):
        by_subject = self._store._by_subject
        text = [(f"<{key}>" if key.__class__ is str else format_term(key[1])).encode("utf-8")
                for key in self._store._terms]
        for s in sorted(by_subject, key=text.__getitem__):
            subject = text[s]
            yield from sorted([b" ".join((subject, text[p], text[o], b".\n"))
                               for _, p, o in by_subject[s]])

    def __eq__(self, other):
        return isinstance(other, Dump) and all(a == b for a, b in zip_longest(self, other))

    def encode(self, encoding: str = "utf-8") -> bytes:
        """The whole dump as one `bytes`; its lines are UTF-8 already."""
        if codecs.lookup(encoding).name != "utf-8":
            raise LookupError(f"a dump is UTF-8, not {encoding}")
        return b"".join(self)


def dump_store(store: GraphStore) -> Dump:
    """One ` .`-terminated line per triple, sorted, made subject by subject as
    the dump is iterated: so a write holds one subject's lines at a time, and
    the dump reflects the store as it is then.  Each term is formatted and
    encoded once per iteration.  UTF-8 bytes sort in code-point order, as text
    does.  The order rests on two premises.  No IRI holds `>` (`check_iri`), so
    no line's text runs on past another line's ` .`, and sorting the lines with
    ` .\\n` appended gives the order of their text.  Every subject is an IRI
    (`add`, lowering, `materialize` and `load_store` see to it), so the
    formatted subjects are prefix-free and alone order two subjects' lines."""
    return Dump(store)


_OBJECT_RE = re.compile(rf'{_IRI}|"((?:[^"\\\n\r]|\\.)*)"(?:\^\^{_IRI})?')  # iri | literal
_IRI_TOKEN = re.compile(_IRI).fullmatch  # a whole subject or predicate token, space-free as any IRI
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")  # the lexical space of xsd:integer, in ASCII digits


def _object_key(text: str, line: int) -> str | tuple:
    """The dictionary key of a dumped object term (see `_key`)."""
    term = _OBJECT_RE.fullmatch(text)
    if not term:
        raise MalformedGraphError(f"line {line}: unreadable object term {text!r}")
    iri, body, datatype = term.groups()
    if iri is not None:
        return iri
    if datatype is None:
        return (str, _unescape_literal(body, line))
    if datatype != XSD_INTEGER_IRI:
        raise MalformedGraphError(f"line {line}: unsupported literal type {datatype!r}")
    body = _unescape_literal(body, line)
    try:
        if _INTEGER_RE.fullmatch(body):  # `int()` alone also takes `1_000`, ` 7` and `٣`
            return (int, int(body))
    except ValueError:  # past `int()`'s digit limit
        pass
    raise MalformedGraphError(f"line {line}: bad integer literal {body!r}")


def read_dump(path):
    """Open a dump file, which must be UTF-8, for `load_store`: a context
    manager giving its (line number, line) pairs, read a line at a time.
    Invalid UTF-8 anywhere wins over a malformed line (see `input_lines`)."""
    return input_lines(_open_input(path),
                       lambda line, reason: MalformedGraphError(f"line {line}: {reason}"))


@gc_paused()
def load_store(lines, namespace: str = DEFAULT_NAMESPACE) -> GraphStore:
    """Parse the (line number, line) pairs of a dump back into a store, from
    `read_dump` or `input_lines` over a dump in memory; `#` comment lines and
    blanks are skipped there.

    No IRI holds a space, so a line is split at its first two spaces: the
    first two parts must be IRI tokens and the third must end in ` .` after at
    least one character, or the line is not a triple line.  Each distinct term
    text is checked once, when first seen: a subject against the last line's (a
    dump is sorted by subject), a predicate in a dict of tokens, an IRI object
    `<x>` as the store's key `x` (a `str` key is a checked IRI), a literal in a
    dict of its texts.  Each line gives its ids in the order object, subject,
    predicate."""
    store = GraphStore(namespace)
    ids, intern, triples, by_subject = store._ids, store._id, store._triples, store._by_subject
    literals: dict[str, int] = {}  # a literal object's text, with the line's " .", -> id
    predicates: dict[str, int] = {}  # predicate token -> id
    subject_token, s = None, None  # the last line's subject token and its id
    for line_no, line in lines:
        parts = line.split(" ", 2)
        if not (len(parts) == 3 and parts[2][-2:] == " ." and len(parts[2]) > 2
                and (parts[0] == subject_token or _IRI_TOKEN(parts[0]))
                and ((p := predicates.get(parts[1])) is not None or _IRI_TOKEN(parts[1]))):
            raise MalformedGraphError(f"line {line_no}: not a triple line")
        rest = parts[2]
        o = ids.get(rest[1:-3]) if rest[0] == "<" and rest[-3] == ">" else literals.get(rest)
        if o is None:  # a first sighting; ids count from 0, so no truth test
            key = _object_key(rest[:-2].strip(" \t"), line_no)  # N-Triples whitespace only
            o = intern(key)
            if key.__class__ is tuple:
                literals[rest] = o
        if parts[0] != subject_token:
            subject_token, s = parts[0], intern(parts[0][1:-1])
        if p is None:
            p = predicates[parts[1]] = intern(parts[1][1:-1])
        triple = (s, p, o)
        if triple not in triples:
            triples.add(triple)
            by_subject[s].append(triple)
    return store
