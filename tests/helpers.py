"""Shared fixture paths and random-corpus generators for the test suite."""

from __future__ import annotations

import io
import random
import re
from collections import Counter, defaultdict
from pathlib import Path

from vrannot import protocol
from vrannot.analyze import (_METRIC_VALUES, Histogram, LintFinding, LintRule, QueryResult,
                             VRPattern, _image_objects, iou)
from vrannot.corpus import (
    METRICS,
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    CorpusDiff,
    DEFAULT_NAMESPACE,
    ImageDelta,
    VisualRelationship,
    _ids_by_name,
    _INTEGER,
    _SURROGATE,
    find_exact_duplicates,
    input_lines,
    load_corpus,
    read_input,
    strip_quotes,
)
from vrannot.errors import (AmbiguousClassError, ConfigError, DuplicateMasterNameError, ImageNotFoundError,
                            MalformedGraphError, ParseError, SelfMergeError, UnknownNameError, UnsupportedRewriteError)
from vrannot.kg import (_IRI, _IRI_TOKEN, _NESTED, COORDINATE_PROPERTIES, HAS_FILENAME, HAS_OBJECT,
                        RDF_TYPE_IRI, RESERVED_LOCALS, XSD_INTEGER_IRI, GraphStore, Iri, Schema, Triple,
                        _check_pairs, _key, _subclass_ancestors, _unescape_literal, check_iri,
                        class_local, property_local)
from vrannot.protocol import (_CHANGES, ImageBlock, Instruction, InstructionKind, NewVRSpec,
                              _parse_bbox_literal, _parse_index)
from vrannot.workflow import CLASSES, PREDICATES

DATA_DIR = Path(__file__).parent / "data"
LISTING_DIR = DATA_DIR / "listing_1"
DEMO_DIR = DATA_DIR / "workflow_demo"

_ADJECTIVES = ("red", "tall", "small", "old", "wet", "shiny", "round", "flat", "dark", "pale")
_NOUNS = ("dog", "chair", "lamp", "tree", "cup", "sign", "bag", "wall", "bike", "bird")
_VERBS = ("touch", "hold", "face", "cover", "follow", "push", "carry", "guard")
_PREPS = ("near", "over", "behind", "against")


def load_listing_corpus() -> AnnotationCorpus:
    return load_corpus(
        LISTING_DIR / "annotations.json",
        LISTING_DIR / "classes.json",
        LISTING_DIR / "predicates.json",
    )


def load_listing_expected() -> AnnotationCorpus:
    return load_corpus(
        LISTING_DIR / "expected_annotations.json",
        LISTING_DIR / "classes.json",
        LISTING_DIR / "predicates.json",
    )


def random_class_names(rng: random.Random, count: int) -> list[str]:
    pool = [f"{a} {n}" for a in _ADJECTIVES for n in _NOUNS]
    return rng.sample(pool, count)


def random_predicate_names(rng: random.Random, count: int) -> list[str]:
    pool = [v for v in _VERBS] + [f"{v} {p}" for v in _VERBS for p in _PREPS]
    return rng.sample(pool, count)


def random_bbox(rng: random.Random, span: int = 400) -> BoundingBox:
    ymin = rng.randrange(0, span)
    xmin = rng.randrange(0, span)
    return BoundingBox(ymin, ymin + rng.randrange(1, 80), xmin, xmin + rng.randrange(1, 80))


def random_vr(rng: random.Random, n_classes: int, n_predicates: int) -> VisualRelationship:
    return VisualRelationship(
        AnnotatedObject(rng.randrange(n_classes), random_bbox(rng)),
        rng.randrange(n_predicates),
        AnnotatedObject(rng.randrange(n_classes), random_bbox(rng)),
    )


def random_corpus(
    rng: random.Random,
    max_images: int = 10,
    max_vrs: int = 8,
    n_classes: int = 6,
    n_predicates: int = 4,
    allow_empty_images: bool = False,
) -> AnnotationCorpus:
    images = {}
    low = 0 if allow_empty_images else 1
    for index in range(rng.randrange(1, max_images + 1)):
        images[f"i{index:03d}.jpg"] = [
            random_vr(rng, n_classes, n_predicates)
            for _ in range(rng.randrange(low, max_vrs + 1))
        ]
    return AnnotationCorpus(
        images,
        random_class_names(rng, n_classes),
        random_predicate_names(rng, n_predicates),
    )


def canonicalize_corpus(corpus: AnnotationCorpus) -> AnnotationCorpus:
    """Oracle for a graph round trip: dedup each image and sort its VRs by
    (subject box, predicate, object box, subject class, object class)."""
    work = corpus.copy()
    for image, vrs in work.images.items():
        work.images[image] = sorted(
            set(vrs),
            key=lambda vr: (
                vr.subject.bbox,
                vr.predicate_id,
                vr.object.bbox,
                vr.subject.class_id,
                vr.object.class_id,
            ),
        )
    return work


# The canonical writer's per-VR text as it was written out by hand before
# json.dumps made it; the derived `corpus._VR_TEMPLATE` must equal it.
REFERENCE_VR_TEMPLATE = """\
    {
      "object": {
        "bbox": [
          %d,
          %d,
          %d,
          %d
        ],
        "category": %d
      },
      "predicate": %d,
      "subject": {
        "bbox": [
          %d,
          %d,
          %d,
          %d
        ],
        "category": %d
      }
    }"""


def decode_utf8(data: bytes, error) -> str:
    """The whole-file decode that `corpus.input_lines` replaced, kept as its
    oracle: invalid UTF-8 anywhere raises `error(line, reason)` naming the
    1-based line of the first bad byte, before any line is read."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise error(line, f"invalid UTF-8 ({exc.reason})") from None


def text_lines(text: str):
    """The oracle's line split, after `decode_utf8`: (1-based line number,
    stripped line) for each line that is neither blank nor a `#` comment; a
    line ends only at `\\n`."""
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def check_result_tuple(value, text: str) -> None:
    """A result named tuple has the repr `text`, equals its rebuilt twin and
    no changed copy, and refuses assignment to each field."""
    assert repr(value) == text
    twin = type(value)(*value)
    assert twin == value and not twin != value
    assert value != type(value)(*value[:-1], "other")
    for name in type(value)._fields:
        try:
            setattr(value, name, None)
        except AttributeError:
            continue
        raise AssertionError(f"{type(value).__name__}.{name} is assignable")


def check_record(make, text: str) -> None:
    """A mutable record, built afresh by each call of `make`, has the repr
    `text`, equals its twin field by field but no copy with a field changed,
    equals no other type, and is unhashable."""
    value = make()
    assert repr(value) == text
    assert value == make() and not value != make()
    assert value != tuple(vars(value).values()) and value != vars(value)
    for name in vars(value):
        changed = make()
        setattr(changed, name, "other")
        assert value != changed, name
    try:
        hash(value)
    except TypeError:
        return
    raise AssertionError(f"{type(value).__name__} is hashable")


def reference_diff_corpora(before: AnnotationCorpus, after: AnnotationCorpus) -> CorpusDiff:
    """`corpus.diff_corpora` as it was before its one-pass rewrite, kept
    verbatim as its oracle: it walks the sorted union of the image keys,
    re-expresses every VR of `after` when any id's name moved, and counts a
    modified image with two Counters and two subtractions."""
    # `after`'s VRs are compared in `before`'s ids, where equal ids mean equal
    # names.  When every id keeps its name, as after most steps, `after`'s lists
    # are used as they are; `==` on the VRs a step's copy shares compares pointers.
    classes = _ids_by_name(before.object_class_names, after.object_class_names)
    predicates = _ids_by_name(before.predicate_names, after.predicate_names)
    same_ids = classes == [*range(len(classes))] and predicates == [*range(len(predicates))]
    deltas: list[ImageDelta] = []
    for image in sorted(set(before.images) | set(after.images)):
        if image not in after.images:
            deltas.append(ImageDelta(image, "removed"))
            continue
        if image not in before.images:
            deltas.append(ImageDelta(image, "added"))
            continue
        old, new = before.images[image], after.images[image]
        if not same_ids:
            new = [((classes[s], s_box), predicates[p], (classes[o], o_box))
                   for (s, s_box), p, (o, o_box) in new]
        if old == new:
            continue
        old, new = Counter(old), Counter(new)
        if old == new:
            continue
        gone = sum((old - new).values())
        came = sum((new - old).values())
        paired = min(gone, came)
        deltas.append(
            ImageDelta(image, "modified", changed=paired, added=came - paired, removed=gone - paired)
        )
    return CorpusDiff(deltas)


# The analysis functions as they were before `lint` walked an image's objects
# in one pass, kept verbatim as the oracles of the differential tests: `lint`
# with its severity table, three object walks and re-sorted box groups,
# `query_images` with one wildcard setup per position, and `distribution`
# with its hand count.


def reference_query_images(corpus: AnnotationCorpus, pattern: VRPattern) -> QueryResult:
    """Images having at least one VR matching the pattern; bindings collect
    the distinct names observed at each wildcard position, sorted."""
    want_subject, want_predicate, want_object = corpus.vr_type_ids(pattern)

    images: list[str] = []
    seen: dict[str, set[str]] = {}
    if pattern.subject is None:
        seen["subject"] = set()
    if pattern.predicate is None:
        seen["predicate"] = set()
    if pattern.object is None:
        seen["object"] = set()

    for image in sorted(corpus.images):
        hit = False
        for vr in corpus.images[image]:
            if want_subject is not None and vr.subject.class_id != want_subject:
                continue
            if want_predicate is not None and vr.predicate_id != want_predicate:
                continue
            if want_object is not None and vr.object.class_id != want_object:
                continue
            hit = True
            if pattern.subject is None:
                seen["subject"].add(corpus.class_name(vr.subject.class_id))
            if pattern.predicate is None:
                seen["predicate"].add(corpus.predicate_name(vr.predicate_id))
            if pattern.object is None:
                seen["object"].add(corpus.class_name(vr.object.class_id))
        if hit:
            images.append(image)
    return QueryResult(images, {position: sorted(names) for position, names in seen.items()})


def reference_distribution(corpus: AnnotationCorpus, metric: str) -> Histogram:
    value = _METRIC_VALUES.get(metric)
    if value is None:
        raise ConfigError(f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}")
    counts: dict[int, int] = {}
    for vrs in corpus.images.values():
        v = value(vrs)
        counts[v] = counts.get(v, 0) + 1
    return Histogram(metric, sorted(counts.items()))


_SEVERITY = {
    LintRule.EXACT_DUPLICATE_VR: "warning",
    LintRule.NEAR_DUPLICATE_BBOX: "warning",
    LintRule.DEGENERATE_BBOX: "error",
    LintRule.MULTI_CLASS_BBOX: "warning",
    LintRule.EMPTY_IMAGE_ENTRY: "warning",
}


def reference_lint(corpus: AnnotationCorpus, near_dup_iou_threshold: float = 0.9) -> list[LintFinding]:
    """All findings over the corpus, ordered by (image, rule, detail)."""
    if not 0.0 < near_dup_iou_threshold <= 1.0:
        raise ConfigError("near-duplicate threshold must be in (0, 1]")
    findings: list[LintFinding] = []

    def add(rule: LintRule, image: str, detail: str) -> None:
        findings.append(LintFinding(rule, image, detail, _SEVERITY[rule]))

    for image, vrs in corpus.images.items():
        if not vrs:
            add(LintRule.EMPTY_IMAGE_ENTRY, image, "no relationships")
            continue
        for i, j in find_exact_duplicates(vrs):
            s, p, o = corpus.vr_type_names(vrs[i])
            add(LintRule.EXACT_DUPLICATE_VR, image, f"vr[{i}] == vr[{j}]: ({s}, {p}, {o})")

        objects = _image_objects(vrs)
        for class_id, bbox in objects:
            if not bbox.well_formed:
                add(
                    LintRule.DEGENERATE_BBOX,
                    image,
                    f"class '{corpus.class_name(class_id)}' box {list(bbox)}",
                )

        by_bbox: dict[BoundingBox, list[int]] = {}
        for class_id, bbox in objects:
            by_bbox.setdefault(bbox, []).append(class_id)
        for bbox, class_ids in sorted(by_bbox.items()):
            if len(class_ids) > 1:
                names = sorted(corpus.class_name(c) for c in class_ids)
                add(
                    LintRule.MULTI_CLASS_BBOX,
                    image,
                    f"box {list(bbox)} classes {names}",
                )

        usable = [o for o in objects if o.bbox.well_formed]
        for index, (class_a, box_a) in enumerate(usable):
            for class_b, box_b in usable[index + 1 :]:
                if class_a != class_b or box_a == box_b:
                    continue
                ratio = iou(box_a, box_b)
                if ratio >= near_dup_iou_threshold:
                    first, second = sorted((box_a, box_b))
                    add(
                        LintRule.NEAR_DUPLICATE_BBOX,
                        image,
                        f"class '{corpus.class_name(class_a)}' boxes "
                        f"{list(first)} ~ {list(second)} iou {ratio:.3f}",
                    )

    findings.sort(key=lambda f: (f.image, f.rule.value, f.detail))
    return findings


# --------------------------------------------------------------------------
# the graph store before its one index: a triple set beside per-subject lists
# --------------------------------------------------------------------------


class ReferenceGraphStore:
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

    def copy(self) -> ReferenceGraphStore:
        """An independent store; the index is cloned, not rebuilt."""
        out = ReferenceGraphStore(self.namespace)
        out._ids, out._terms, out._triples = dict(self._ids), list(self._terms), set(self._triples)
        out._by_subject.update((s, list(ts)) for s, ts in self._by_subject.items())
        return out


_OBJECT_RE = re.compile(rf'{_IRI}|"((?:[^"\\\n\r]|\\.)*)"(?:\^\^{_IRI})?')  # iri | literal


def reference_object_key(text: str, line: int) -> str | tuple:
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
        if _INTEGER(body):
            return (int, int(body))
    except ValueError:  # past `int()`'s digit limit
        pass
    raise MalformedGraphError(f"line {line}: bad integer literal {body!r}")


def reference_load_store(lines, namespace: str = DEFAULT_NAMESPACE) -> ReferenceGraphStore:
    """`load_store` into a `ReferenceGraphStore`, deduplicating through its triple set."""
    store = ReferenceGraphStore(namespace)
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
            key = reference_object_key(rest[:-2].strip(" \t"), line_no)  # N-Triples whitespace only
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


# --------------------------------------------------------------------------
# the workflow steps before one list rewrite: a per-VR callback, None dropping the VR
# --------------------------------------------------------------------------


def reference_update_master_lists(
    corpus: AnnotationCorpus,
    target: str,
    renames: list[tuple[str, str]] = (),
    additions: list[str] = (),
) -> AnnotationCorpus:
    """Rename and append master-list names; ids of renamed entries stay put.

    A new name colliding with any current entry (live or retired) is an
    error, as is renaming a name that does not resolve.
    """
    if target not in (CLASSES, PREDICATES):
        raise ConfigError(f"unknown master-list target {target!r}")
    work = corpus.copy()
    names = work.object_class_names if target == CLASSES else work.predicate_names
    resolve = work.class_id if target == CLASSES else work.predicate_id
    for old, new in renames:
        index = resolve(old)
        if new in names:
            raise DuplicateMasterNameError(new)
        names[index] = new
    for name in additions:
        if name in names:
            raise DuplicateMasterNameError(name)
        names.append(name)
    return work


def reference_apply_protocol_file(corpus: AnnotationCorpus, path) -> AnnotationCorpus:
    """Parse and apply one protocol script from disk."""
    blocks = protocol.parse_script(read_input(path))
    new, _ = protocol.validate_and_apply(corpus, blocks)
    return new


def reference_rewrite_vrs(corpus: AnnotationCorpus, rewrite, images=None) -> AnnotationCorpus:
    """Copy the corpus and map each VR of the given images (None: all images)
    through `rewrite`; a None result drops the VR."""
    work = corpus.copy()
    for image in work.images if images is None else images:
        work.images[image] = [new for new in map(rewrite, work.images[image]) if new is not None]
    return work


def reference_rewrite_class(vr: VisualRelationship, from_id: int, to_id: int) -> VisualRelationship:
    subject = vr.subject
    obj = vr.object
    if subject.class_id == from_id:
        subject = AnnotatedObject(to_id, subject.bbox)
    if obj.class_id == from_id:
        obj = AnnotatedObject(to_id, obj.bbox)
    if subject is vr.subject and obj is vr.object:
        return vr
    return VisualRelationship(subject, vr.predicate_id, obj)


def reference_change_class_for_image_set(
    corpus: AnnotationCorpus,
    image_filenames: list[str],
    from_name: str,
    to_name: str,
) -> AnnotationCorpus:
    """Rewrite one object class to another inside the listed images only.

    Both names stay live; this is a scoped relabeling, not a merge.
    """
    from_id = corpus.class_id(from_name)
    to_id = corpus.class_id(to_name)
    for image in image_filenames:
        if image not in corpus.images:
            raise ImageNotFoundError(image)
    return reference_rewrite_vrs(corpus, lambda vr: reference_rewrite_class(vr, from_id, to_id),
                                 image_filenames)


def reference_merge_object_class(
    corpus: AnnotationCorpus, from_name: str, to_name: str
) -> AnnotationCorpus:
    """Rewrite every use of one class to another, globally, and retire the
    donor name.  The donor keeps its master-list slot so no id shifts."""
    if from_name == to_name:
        raise SelfMergeError(from_name)
    from_id = corpus.class_id(from_name)
    to_id = corpus.class_id(to_name)
    work = reference_rewrite_vrs(corpus, lambda vr: reference_rewrite_class(vr, from_id, to_id))
    work.retired_class_ids.add(from_id)
    return work


def reference_merge_predicate(
    corpus: AnnotationCorpus, from_name: str, to_name: str
) -> AnnotationCorpus:
    if from_name == to_name:
        raise SelfMergeError(from_name)
    from_id = corpus.predicate_id(from_name)
    to_id = corpus.predicate_id(to_name)
    work = reference_rewrite_vrs(
        corpus, lambda vr: vr._replace(predicate_id=to_id) if vr.predicate_id == from_id else vr
    )
    work.retired_predicate_ids.add(from_id)
    return work


def reference_type_ids(vr: VisualRelationship) -> tuple[int, int, int]:
    return (vr.subject.class_id, vr.predicate_id, vr.object.class_id)


def reference_remove_vr_types_global(
    corpus: AnnotationCorpus, types: list[tuple[str, str, str]]
) -> AnnotationCorpus:
    """Delete every VR whose name triple matches any of the given types."""
    doomed = {corpus.vr_type_ids(names) for names in types}
    return reference_rewrite_vrs(corpus, lambda vr: None if reference_type_ids(vr) in doomed else vr)


def reference_remove_empty_images(corpus: AnnotationCorpus) -> AnnotationCorpus:
    work = corpus.copy()
    work.images = {image: vrs for image, vrs in work.images.items() if vrs}
    return work


def reference_change_vr_type_global(
    corpus: AnnotationCorpus,
    from_type: tuple[str, str, str],
    to_type: tuple[str, str, str],
) -> AnnotationCorpus:
    """Rewrite one VR type to another everywhere, keeping bounding boxes.

    Because boxes stay with their roles, a target type that exchanges the
    two class names (subject becomes object and vice versa) cannot be
    expressed here and is rejected; per-image protocol edits cover that.
    """
    from_ids, to_ids = corpus.vr_type_ids(from_type), corpus.vr_type_ids(to_type)
    if from_ids[0] != from_ids[2] and (to_ids[0], to_ids[2]) == (from_ids[2], from_ids[0]):
        raise UnsupportedRewriteError(
            f"rewriting {from_type} to {to_type} would swap subject and object roles"
        )

    def rewrite(vr: VisualRelationship) -> VisualRelationship:
        if reference_type_ids(vr) != from_ids:
            return vr
        return VisualRelationship(
            AnnotatedObject(to_ids[0], vr.subject.bbox),
            to_ids[1],
            AnnotatedObject(to_ids[2], vr.object.bbox),
        )

    return reference_rewrite_vrs(corpus, rewrite)


def reference_dedup_vrs(corpus: AnnotationCorpus) -> AnnotationCorpus:
    """Drop exact-duplicate VRs per image, keeping the first occurrence."""
    work = corpus.copy()
    for image, vrs in work.images.items():
        work.images[image] = list(dict.fromkeys(vrs))
    return work


REFERENCE_STEPS = {  # step kind -> the function above, as workflow.STEPS names it
    "update_master_lists": reference_update_master_lists,
    "apply_protocol_file": reference_apply_protocol_file,
    "change_class_for_image_set": reference_change_class_for_image_set,
    "merge_class": reference_merge_object_class,
    "merge_predicate": reference_merge_predicate,
    "remove_vr_types_global": reference_remove_vr_types_global,
    "remove_empty_images": reference_remove_empty_images,
    "change_vr_type_global": reference_change_vr_type_global,
    "dedup_vrs": reference_dedup_vrs,
}


# --------------------------------------------------------------------------
# extraction and default designation before each fact was held once: image
# filenames both by subject and as a set, members beside their objects, and
# each taken term beside the declared set
# --------------------------------------------------------------------------


def reference_default_schema(corpus: AnnotationCorpus) -> Schema:
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


def reference_extract_annotations(
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
# the script grammar before one table: a hand-written branch per instruction kind
# --------------------------------------------------------------------------


def reference_parse_name(text: str, line: int, what: str) -> str:
    name = strip_quotes(text)
    if not name:
        raise ParseError(line, f"empty {what}")
    return name


def reference_parse_ref_tuple(text: str, line: int) -> tuple[str, str, str]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(line, f"expected a (subject, predicate, object) tuple, got {text!r}")
    parts = [p.strip() for p in text[1:-1].split(",")]
    if len(parts) != 3:
        raise ParseError(line, f"reference tuple must hold 3 names, got {text!r}")
    return tuple(reference_parse_name(p, line, "reference-tuple name") for p in parts)


def reference_parse_script(source: str | bytes) -> list[ImageBlock]:
    """`parse_script` with each instruction kind's fields parsed by its own branch."""
    data = source.encode("utf-8", "surrogatepass") if isinstance(source, str) else source
    blocks: list[ImageBlock] = []
    current: ImageBlock | None = None

    with input_lines(io.BytesIO(data), ParseError) as lines:
        for line_no, line in lines:
            fields = [f.strip() for f in line.split(";")]
            mnemonic = fields[0]
            try:
                kind = InstructionKind(mnemonic)
            except ValueError:
                raise ParseError(line_no, f"unknown mnemonic {mnemonic!r}") from None

            if kind is InstructionKind.IMNAME:
                if len(fields) not in (2, 3):
                    raise ParseError(line_no, "imname takes a filename and an optional rimxxx flag")
                filename = fields[1]
                if not filename:
                    raise ParseError(line_no, "empty filename")
                remove = False
                if len(fields) == 3:
                    if fields[2] != InstructionKind.RIMXXX.value:
                        raise ParseError(line_no, f"unexpected trailing field {fields[2]!r}")
                    remove = True
                current = ImageBlock(filename, line_no, remove_image=remove)
                blocks.append(current)
                continue

            if kind is InstructionKind.RIMXXX:
                raise ParseError(line_no, "rimxxx is only valid as a flag on an imname line")
            if current is None:
                raise ParseError(line_no, "instruction before any imname line")
            if current.remove_image:
                raise ParseError(line_no, "instruction after an image-removal header")

            if kind is InstructionKind.AVRXXX:
                if len(fields) != 6:
                    raise ParseError(line_no, "avrxxx takes 5 fields: class; [bbox]; predicate; class; [bbox]")
                spec = NewVRSpec(
                    subject_class=reference_parse_name(fields[1], line_no, "subject class name"),
                    subject_bbox=_parse_bbox_literal(fields[2], line_no),
                    predicate=reference_parse_name(fields[3], line_no, "predicate name"),
                    object_class=reference_parse_name(fields[4], line_no, "object class name"),
                    object_bbox=_parse_bbox_literal(fields[5], line_no),
                )
                current.instructions.append(Instruction(kind, line_no, new_vr=spec))
                continue

            # the rest address a VR by index and tuple: rvrxxx and the kinds of _CHANGES
            if kind is InstructionKind.RVRXXX:
                # a trailing `;` yields one empty extra field; both forms accepted
                if len(fields) == 4 and fields[3] == "":
                    fields = fields[:3]
                if len(fields) != 3:
                    raise ParseError(line_no, "rvrxxx takes 2 fields: index; (tuple)")
            elif len(fields) != 4:
                raise ParseError(line_no, f"{mnemonic} takes 3 fields: index; (tuple); payload")
            index = _parse_index(fields[1], line_no)
            ref = reference_parse_ref_tuple(fields[2], line_no)
            new, payload = {}, _CHANGES[kind][1] if kind in _CHANGES else None
            if payload == "bbox":
                new = {"new_bbox": _parse_bbox_literal(fields[3], line_no)}
            elif payload:
                new = {"new_name": reference_parse_name(fields[3], line_no, f"{payload} name")}
            current.instructions.append(Instruction(kind, line_no, vr_index=index, ref_tuple=ref, **new))
    return blocks


def reference_render_tuple(ref: tuple[str, str, str]) -> str:
    return "({}, {}, {})".format(*ref)


def reference_render_bbox(bbox: BoundingBox) -> str:
    return "[{},{},{},{}]".format(*bbox)


def reference_render_instruction(ins: Instruction) -> str:
    """`_render_instruction` with a hand-written line per instruction kind."""
    kind = ins.kind.value
    if ins.kind is InstructionKind.AVRXXX:
        vr = ins.new_vr
        return (
            f"{kind}; {vr.subject_class}; {reference_render_bbox(vr.subject_bbox)}; "
            f"{vr.predicate}; {vr.object_class}; {reference_render_bbox(vr.object_bbox)}"
        )
    if ins.kind is InstructionKind.RVRXXX:
        return f"{kind}; {ins.vr_index}; {reference_render_tuple(ins.ref_tuple)};"
    bbox = _CHANGES[ins.kind][1] == "bbox"
    payload = reference_render_bbox(ins.new_bbox) if bbox else ins.new_name
    return f"{kind}; {ins.vr_index}; {reference_render_tuple(ins.ref_tuple)}; {payload}"
