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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

from .corpus import AnnotatedObject, AnnotationCorpus, BoundingBox, VisualRelationship
from .errors import (
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

DEFAULT_NAMESPACE = "http://example.org/vrannot#"
RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER_IRI = "http://www.w3.org/2001/XMLSchema#integer"

IMAGE_CLASS = "Image"
HAS_OBJECT = "hasObject"
HAS_FILENAME = "hasFilename"
COORDINATE_PROPERTIES = ("bboxYmin", "bboxYmax", "bboxXmin", "bboxXmax")
RESERVED_LOCALS = frozenset({IMAGE_CLASS, HAS_OBJECT, HAS_FILENAME, *COORDINATE_PROPERTIES})

_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Iri:
    value: str

    @classmethod
    def of(cls, namespace: str, local: str) -> Iri:
        return cls(namespace + local)

    def __str__(self) -> str:
        return self.value


RDF_TYPE = Iri(RDF_TYPE_IRI)


@dataclass(frozen=True)
class Triple:
    """Subject and predicate are IRIs; the object may also be a literal
    (int or str)."""

    subject: Iri
    predicate: Iri
    object: Iri | int | str


class GraphStore:
    """Set of triples with subject/predicate/object indexes."""

    def __init__(self, namespace: str = DEFAULT_NAMESPACE):
        self.namespace = namespace
        self._triples: set[Triple] = set()
        self._by_subject: dict[Iri, set[Triple]] = {}
        self._by_predicate: dict[Iri, set[Triple]] = {}
        self._by_object: dict[object, set[Triple]] = {}

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self):
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def add(self, triple: Triple) -> bool:
        """Insert; True when the triple is new."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._by_subject.setdefault(triple.subject, set()).add(triple)
        self._by_predicate.setdefault(triple.predicate, set()).add(triple)
        self._by_object.setdefault(triple.object, set()).add(triple)
        return True

    def match(self, subject=None, predicate=None, object=None) -> list[Triple]:
        """All triples matching the given positions (None = any)."""
        candidates: set[Triple] | None = None
        if subject is not None:
            candidates = self._by_subject.get(subject, set())
        if predicate is not None:
            found = self._by_predicate.get(predicate, set())
            candidates = found if candidates is None else candidates & found
        if object is not None:
            found = self._by_object.get(object, set())
            candidates = found if candidates is None else candidates & found
        return list(self._triples if candidates is None else candidates)

    def copy(self) -> GraphStore:
        out = GraphStore(self.namespace)
        for triple in self._triples:
            out.add(triple)
        return out

    def iri(self, local: str) -> Iri:
        return Iri.of(self.namespace, local)


# --------------------------------------------------------------------------
# schema
# --------------------------------------------------------------------------


@dataclass
class Schema:
    """Declared terms, axioms over them, and the corpus-name designations."""

    classes: set[str] = field(default_factory=set)
    properties: set[str] = field(default_factory=set)
    subclass_of: list[tuple[str, str]] = field(default_factory=list)
    eq_class: list[tuple[str, str]] = field(default_factory=list)
    subprop_of: list[tuple[str, str]] = field(default_factory=list)
    eq_prop: list[tuple[str, str]] = field(default_factory=list)
    inverse_of: list[tuple[str, str]] = field(default_factory=list)
    transitive: list[str] = field(default_factory=list)
    symmetric: list[str] = field(default_factory=list)
    domain: list[tuple[str, str]] = field(default_factory=list)
    range: list[tuple[str, str]] = field(default_factory=list)
    ann_classes: dict[str, str] = field(default_factory=dict)
    ann_properties: dict[str, str] = field(default_factory=dict)


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


def _schema_local(token: str, line: int) -> str:
    if not _LOCAL_RE.match(token):
        raise MalformedAxiomError(line, f"invalid term {token!r}")
    return token


def load_schema(path) -> Schema:
    """Parse a line-oriented axiom file; every term must be declared on an
    earlier line than its first use."""
    path = Path(path)
    if not path.exists():
        raise FileMissingError(path)
    schema = Schema()
    declared = {"class": schema.classes, "prop": schema.properties}

    def need(kind: str, token: str, line: int) -> str:
        name = _schema_local(token, line)
        if name not in declared[kind]:
            raise UndeclaredTermError(line, name)
        return name

    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
    """`sit on` -> `sitOn`."""
    parts = _name_parts(name)
    head = parts[0][:1].lower() + parts[0][1:]
    return head + "".join(p[:1].upper() + p[1:] for p in parts[1:])


def default_schema(corpus: AnnotationCorpus) -> Schema:
    """Axiom-free schema designating every live corpus name via mangling.

    Mangling collisions (two names yielding one term, or a term colliding
    with the reserved vocabulary) are rejected.
    """
    schema = Schema()

    def claim(local: str, name: str, taken: dict[str, str]) -> str:
        if local in RESERVED_LOCALS:
            raise ConfigError(f"{name!r} maps to reserved term {local!r}")
        if local in taken:
            raise ConfigError(f"{name!r} and {taken[local]!r} both map to term {local!r}")
        taken[local] = name
        return local

    taken_classes: dict[str, str] = {}
    for class_id, name in enumerate(corpus.object_class_names):
        if class_id in corpus.retired_class_ids:
            continue
        local = claim(class_local(name), name, taken_classes)
        schema.classes.add(local)
        schema.ann_classes[name] = local
    taken_props: dict[str, str] = {}
    for predicate_id, name in enumerate(corpus.predicate_names):
        if predicate_id in corpus.retired_predicate_ids:
            continue
        local = claim(property_local(name), name, taken_props)
        schema.properties.add(local)
        schema.ann_properties[name] = local
    return schema


# --------------------------------------------------------------------------
# lowering
# --------------------------------------------------------------------------


def _image_local(filename: str) -> str:
    return "img_" + quote(filename, safe="")


def _object_local(image_local: str, class_term: str, bbox: BoundingBox) -> str:
    return "{}_obj_{}_{}_{}_{}_{}".format(image_local, class_term, *bbox.to_list())


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
    if image is not None:
        if image not in corpus.images:
            raise ImageNotFoundError(image)
        selected = {image: corpus.images[image]}
    else:
        selected = corpus.images

    store = GraphStore(namespace)

    def class_term(class_id: int) -> str:
        name = corpus.class_name(class_id)
        try:
            return schema.ann_classes[name]
        except KeyError:
            raise UnmappedNameError(name, "object class") from None

    def property_term(predicate_id: int) -> str:
        name = corpus.predicate_name(predicate_id)
        try:
            return schema.ann_properties[name]
        except KeyError:
            raise UnmappedNameError(name, "predicate") from None

    for filename, vrs in selected.items():
        img_local = _image_local(filename)
        img = store.iri(img_local)
        store.add(Triple(img, RDF_TYPE, store.iri(IMAGE_CLASS)))
        store.add(Triple(img, store.iri(HAS_FILENAME), filename))

        def object_node(obj: AnnotatedObject) -> Iri:
            term = class_term(obj.class_id)
            node = store.iri(_object_local(img_local, term, obj.bbox))
            if store.add(Triple(img, store.iri(HAS_OBJECT), node)):
                store.add(Triple(node, RDF_TYPE, store.iri(term)))
                for prop, value in zip(COORDINATE_PROPERTIES, obj.bbox.to_list()):
                    store.add(Triple(node, store.iri(prop), value))
            return node

        for vr in vrs:
            subject_node = object_node(vr.subject)
            object_node_ = object_node(vr.object)
            store.add(Triple(subject_node, store.iri(property_term(vr.predicate_id)), object_node_))
    return store


# --------------------------------------------------------------------------
# materialization
# --------------------------------------------------------------------------


def _both_ways(pairs):
    """Each pair followed by its reverse, for the symmetric axioms."""
    for a, b in pairs:
        yield a, b
        yield b, a


def materialize(store: GraphStore, schema: Schema) -> GraphStore:
    """Least fixpoint of the axiom rules over the store; the input store is
    left unmodified.  Literal objects never move into subject position, so
    inverse/symmetric/transitive/range rules skip them."""
    ns = store.namespace

    def iri(local: str) -> Iri:
        return Iri.of(ns, local)

    def links(pairs) -> dict[Iri, set[Iri]]:
        out: dict[Iri, set[Iri]] = {}
        for a, b in pairs:
            out.setdefault(iri(a), set()).add(iri(b))
        return out

    superprops = links((*schema.subprop_of, *_both_ways(schema.eq_prop)))
    inverses = links(_both_ways(schema.inverse_of))
    transitive = {iri(p) for p in schema.transitive}
    symmetric = {iri(p) for p in schema.symmetric}
    domains = links(schema.domain)
    ranges = links(schema.range)
    superclasses = links((*schema.subclass_of, *_both_ways(schema.eq_class)))

    result = store.copy()
    frontier = list(result)
    while frontier:
        pending: list[Triple] = []

        def emit(triple: Triple) -> None:
            if result.add(triple):
                pending.append(triple)

        for t in frontier:
            s, p, o = t.subject, t.predicate, t.object
            if p == RDF_TYPE:
                if isinstance(o, Iri):
                    for d in superclasses.get(o, ()):
                        emit(Triple(s, RDF_TYPE, d))
                continue
            for q in superprops.get(p, ()):
                emit(Triple(s, q, o))
            if isinstance(o, Iri):
                if p in symmetric:
                    emit(Triple(o, p, s))
                for q in inverses.get(p, ()):
                    emit(Triple(o, q, s))
                if p in transitive:
                    for onward in result.match(subject=o, predicate=p):
                        emit(Triple(s, p, onward.object))
            if p in transitive:
                for inward in result.match(predicate=p, object=s):
                    emit(Triple(inward.subject, p, o))
            for c in domains.get(p, ()):
                emit(Triple(s, RDF_TYPE, c))
            if isinstance(o, Iri):
                for c in ranges.get(p, ()):
                    emit(Triple(o, RDF_TYPE, c))
        frontier = pending
    return result


# --------------------------------------------------------------------------
# extraction
# --------------------------------------------------------------------------


def _subclass_ancestors(schema: Schema) -> dict[str, set[str]]:
    """term -> all terms it is a subclass of (reflexive, transitive,
    through equivalences)."""
    edges: dict[str, set[str]] = {c: {c} for c in schema.classes}
    for a, b in (*schema.subclass_of, *_both_ways(schema.eq_class)):
        edges[a].add(b)
    closure: dict[str, set[str]] = {}
    for start in schema.classes:
        seen = {start}
        queue = [start]
        while queue:
            for nxt in edges[queue.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        closure[start] = seen
    return closure


def _most_specific_class(
    node: Iri, candidates: set[str], ancestors: dict[str, set[str]]
) -> str:
    minima = [c for c in candidates if all(other in ancestors[c] for other in candidates)]
    if len(minima) != 1:
        raise AmbiguousClassError(node.value, sorted(candidates))
    return minima[0]


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
    exact duplicates collapsed.
    """
    ns = store.namespace

    def iri(local: str) -> Iri:
        return Iri.of(ns, local)

    class_of_term = {term: name for name, term in schema.ann_classes.items()}
    property_ids: dict[Iri, int] = {}
    for name, term in schema.ann_properties.items():
        try:
            property_ids[iri(term)] = predicate_names.index(name)
        except ValueError:
            raise UnknownNameError(name, "predicate") from None
    annotation_class_iris = {iri(term): term for term in schema.ann_classes.values()}
    ancestors = _subclass_ancestors(schema)

    filenames: dict[Iri, str] = {}
    for t in store.match(predicate=iri(HAS_FILENAME)):
        if not isinstance(t.object, str):
            raise MalformedGraphError(f"{t.subject} has a non-string filename")
        if t.subject in filenames:
            raise MalformedGraphError(f"{t.subject} carries two filenames")
        if t.object in filenames.values():
            raise MalformedGraphError(f"filename {t.object!r} used by two image individuals")
        filenames[t.subject] = t.object

    def read_object(node: Iri) -> AnnotatedObject:
        coords = []
        for prop in COORDINATE_PROPERTIES:
            values = store.match(subject=node, predicate=iri(prop))
            if len(values) != 1 or not isinstance(values[0].object, int):
                raise MalformedGraphError(
                    f"{node} needs exactly one integer {prop}, found {len(values)}"
                )
            coords.append(values[0].object)
        candidates = {
            annotation_class_iris[t.object]
            for t in store.match(subject=node, predicate=RDF_TYPE)
            if isinstance(t.object, Iri) and t.object in annotation_class_iris
        }
        if not candidates:
            raise MalformedGraphError(f"{node} has no designated annotation class")
        term = _most_specific_class(node, candidates, ancestors)
        name = class_of_term[term]
        try:
            class_id = object_class_names.index(name)
        except ValueError:
            raise UnknownNameError(name, "object class") from None
        return AnnotatedObject(class_id, BoundingBox(*coords))

    images: dict[str, list[VisualRelationship]] = {}
    for img in sorted(filenames, key=lambda node: filenames[node]):
        members: set[Iri] = set()
        for t in store.match(subject=img, predicate=iri(HAS_OBJECT)):
            if not isinstance(t.object, Iri):
                raise MalformedGraphError(f"{img} links a literal via {HAS_OBJECT}")
            members.add(t.object)
        objects = {node: read_object(node) for node in members}

        vrs: set[VisualRelationship] = set()
        for node in members:
            for t in store.match(subject=node):
                if t.predicate in property_ids and t.object in members:
                    vrs.add(
                        VisualRelationship(
                            objects[node], property_ids[t.predicate], objects[t.object]
                        )
                    )
        images[filenames[img]] = sorted(
            vrs,
            key=lambda vr: (
                vr.subject.bbox,
                vr.predicate_id,
                vr.object.bbox,
                vr.subject.class_id,
                vr.object.class_id,
            ),
        )
    return AnnotationCorpus(images, list(object_class_names), list(predicate_names))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def _escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape_literal(text: str, line: int) -> str:
    # The literal regexes pair every backslash with the character after it.
    def unescape(match: re.Match) -> str:
        try:
            return _ESCAPES[match.group(1)]
        except KeyError:
            raise MalformedGraphError(f"line {line}: unknown escape \\{match.group(1)}") from None

    return _ESCAPE_RE.sub(unescape, text)


def format_term(term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, bool):
        raise MalformedGraphError(f"unsupported literal {term!r}")
    if isinstance(term, int):
        return f'"{term}"^^<{XSD_INTEGER_IRI}>'
    return f'"{_escape_literal(term)}"'


def format_triple(triple: Triple) -> str:
    return (
        f"{format_term(triple.subject)} {format_term(triple.predicate)} "
        f"{format_term(triple.object)} ."
    )


def dump_store(store: GraphStore) -> str:
    """One ` .`-terminated line per triple, sorted, for diffable dumps."""
    return "".join(line + "\n" for line in sorted(format_triple(t) for t in store))


_LINE_RE = re.compile(r"<([^<>]*)> <([^<>]*)> (.+) \.$")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"$')
_TYPED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"\^\^<([^<>]*)>$')


def _parse_object(text: str, line: int):
    if text.startswith("<") and text.endswith(">"):
        return Iri(text[1:-1])
    typed = _TYPED_RE.match(text)
    if typed:
        if typed.group(2) != XSD_INTEGER_IRI:
            raise MalformedGraphError(f"line {line}: unsupported literal type {typed.group(2)!r}")
        body = _unescape_literal(typed.group(1), line)
        try:
            return int(body)
        except ValueError:
            raise MalformedGraphError(f"line {line}: bad integer literal {body!r}") from None
    plain = _STRING_RE.match(text)
    if plain:
        return _unescape_literal(plain.group(1), line)
    raise MalformedGraphError(f"line {line}: unreadable object term {text!r}")


def load_store(text: str, namespace: str = DEFAULT_NAMESPACE) -> GraphStore:
    """Parse a dump back into a store; `#` comment lines and blanks allowed."""
    store = GraphStore(namespace)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        matched = _LINE_RE.match(line)
        if not matched:
            raise MalformedGraphError(f"line {line_no}: not a triple line")
        subject, predicate, object_text = matched.groups()
        store.add(
            Triple(Iri(subject), Iri(predicate), _parse_object(object_text.strip(), line_no))
        )
    return store
