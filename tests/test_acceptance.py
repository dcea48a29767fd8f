"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single `criterion N: PASS`
line (visible with -s, or via the pytest -v result line).  Tolerances and
runtime budgets are pinned as constants below, not computed.
"""

import os
import random
import shutil
import time
from collections import Counter

import pytest

from vrannot.analyze import METRICS, LintRule, distribution, iou, lint
from vrannot.corpus import (
    AnnotationCorpus,
    AnnotatedObject,
    BoundingBox,
    VisualRelationship,
    canonical_annotations_bytes,
    compute_stats,
    load_corpus,
)
from vrannot.errors import ApplyError
from vrannot.kg import (
    RDF_TYPE,
    GraphStore,
    Iri,
    Schema,
    Triple,
    default_schema,
    extract_annotations,
    lower_annotations,
    materialize,
)
from vrannot.protocol import parse_script, validate_and_apply
from vrannot.workflow import (
    dedup_vrs,
    load_workflow_config,
    merge_object_class,
    merge_predicate,
    run_workflow_files,
)

from helpers import (
    DEMO_DIR,
    LISTING_DIR,
    load_listing_corpus,
    load_listing_expected,
    random_bbox,
    random_class_names,
    random_corpus,
)

APPLY_TIME_BUDGET_SECONDS = 1.0
STATS_TIME_BUDGET_SECONDS = 10.0
MEAN_TOLERANCE = 0.05
FAULT_SCRIPT_COUNT = 20
ORACLE_INSTANCES = 100
ROUND_TRIP_INSTANCES = 100
IOU_PAIRS = 1000

# Pinned reference statistics for the published annotation release this
# tooling targets; criterion 4 runs only when its files are configured.
REFERENCE_OBJECT_CLASSES = 109
REFERENCE_PREDICATES = 71
REFERENCE_TRAIN_VRS = 29_333
REFERENCE_TEST_VRS = 9_201
REFERENCE_TOTAL_VRS = 38_534
REFERENCE_TRAIN_MEAN = 7.8
REFERENCE_TEST_MEAN = 9.9

DATASET_ENV_VARS = (
    "VRANNOT_TRAIN_ANNOTATIONS",
    "VRANNOT_TEST_ANNOTATIONS",
    "VRANNOT_CLASSES",
    "VRANNOT_PREDICATES",
)


def test_criterion_1_bundled_script_applies_cleanly():
    started = time.perf_counter()
    corpus = load_listing_corpus()
    blocks = parse_script((LISTING_DIR / "script.txt").read_bytes())
    result, report = validate_and_apply(corpus, blocks)
    expected = load_listing_expected()
    elapsed = time.perf_counter() - started

    assert result.images == expected.images
    assert result.object_class_names == expected.object_class_names
    assert result.predicate_names == expected.predicate_names
    assert report.images_touched == 5
    assert elapsed < APPLY_TIME_BUDGET_SECONDS
    print(f"criterion 1: PASS: script applied in {elapsed:.3f}s, result equals expected corpus")


def test_criterion_2_fault_injection_aborts_atomically():
    corpus = load_listing_corpus()
    snapshot = canonical_annotations_bytes(corpus)
    images = sorted(corpus.images)

    scripts = []
    for index in range(FAULT_SCRIPT_COUNT):
        image = images[index % len(images)]
        actual = corpus.vr_type_names(corpus.images[image][0])
        wrong_object = next(
            name for name in corpus.object_class_names if name != actual[2]
        )
        lines = [f"imname; {image}"]
        for _ in range(index % 3):
            lines.append("avrxxx; person; [0,9,0,9]; on; shelf; [10,19,10,19]")
        fault_kind = index % 3
        if fault_kind == 0:
            lines.append(f"rvrxxx; {len(corpus.images[image]) + 5}; {actual};".replace("'", ""))
            cause = ApplyError.INDEX_OUT_OF_RANGE
        elif fault_kind == 1:
            lines.append(f"cvrooc; 0; ({actual[0]}, {actual[1]}, {wrong_object}); person")
            cause = ApplyError.TUPLE_MISMATCH
        else:
            lines.append(f"cvrsoc; 0; ({actual[0]}, {actual[1]}, {actual[2]}); zzz unknown zzz")
            cause = ApplyError.UNKNOWN_NAME
        scripts.append(("\n".join(lines) + "\n", len(lines), cause))

    passed = 0
    for text, fault_line, cause in scripts:
        blocks = parse_script(text)
        with pytest.raises(ApplyError) as err:
            validate_and_apply(corpus, blocks)
        assert err.value.line == fault_line
        assert err.value.cause == cause
        assert canonical_annotations_bytes(corpus) == snapshot
        passed += 1

    assert passed == FAULT_SCRIPT_COUNT
    print(
        f"criterion 2: PASS: {passed}/{FAULT_SCRIPT_COUNT} faulty scripts aborted at the "
        "right line, input bytes unchanged"
    )


def test_criterion_3_workflow_runs_are_deterministic_and_clean(tmp_path):
    def run_once(name):
        workdir = tmp_path / name
        shutil.copytree(DEMO_DIR, workdir, ignore=shutil.ignore_patterns("expected_*", "out"))
        run_workflow_files(load_workflow_config(workdir / "config.json"))
        return workdir / "out"

    first = run_once("first")
    second = run_once("second")
    for name in ("annotations.json", "classes.json", "predicates.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    final = load_corpus(
        first / "annotations.json", first / "classes.json", first / "predicates.json"
    )
    findings = lint(final)
    assert sum(f.rule is LintRule.EXACT_DUPLICATE_VR for f in findings) == 0
    assert sum(f.rule is LintRule.EMPTY_IMAGE_ENTRY for f in findings) == 0
    print(
        "criterion 3: PASS: 11-step run is byte-identical across repeats; "
        "final corpus has no duplicate VRs and no empty image entries"
    )


def test_criterion_4_published_dataset_statistics():
    paths = [os.environ.get(name) for name in DATASET_ENV_VARS]
    if not all(paths):
        pytest.skip(
            "published annotation set not configured; set "
            + ", ".join(DATASET_ENV_VARS)
        )
    train_path, test_path, classes_path, predicates_path = paths

    started = time.perf_counter()
    train = load_corpus(train_path, classes_path, predicates_path)
    test = load_corpus(test_path, classes_path, predicates_path)
    train_stats = compute_stats(train)
    test_stats = compute_stats(test)
    elapsed = time.perf_counter() - started

    assert train_stats.object_class_count == REFERENCE_OBJECT_CLASSES
    assert train_stats.predicate_count == REFERENCE_PREDICATES
    assert train_stats.vr_count == REFERENCE_TRAIN_VRS
    assert test_stats.vr_count == REFERENCE_TEST_VRS
    assert train_stats.vr_count + test_stats.vr_count == REFERENCE_TOTAL_VRS
    assert abs(train_stats.mean_vrs_per_image - REFERENCE_TRAIN_MEAN) <= MEAN_TOLERANCE
    assert abs(test_stats.mean_vrs_per_image - REFERENCE_TEST_MEAN) <= MEAN_TOLERANCE
    assert train_stats.images_with_exact_duplicate_vrs == 0
    assert test_stats.images_with_exact_duplicate_vrs == 0
    assert elapsed < STATS_TIME_BUDGET_SECONDS
    print(
        f"criterion 4: PASS: published counts reproduced exactly in {elapsed:.2f}s "
        f"(means within ±{MEAN_TOLERANCE})"
    )


# ---------------------------------------------------------------------------
# criterion 5: the naive oracle recomputes the closure from scratch each pass,
# with none of the engine's frontier bookkeeping.
# ---------------------------------------------------------------------------

_NS = "http://example.org/check#"


def _iri(local):
    return Iri(_NS + local)


def naive_closure(triples, schema):
    out = set(triples)
    while True:
        fresh = set()

        def add(s, p, o):
            t = Triple(s, p, o)
            if t not in out:
                fresh.add(t)

        by_predicate = {}
        for t in out:
            by_predicate.setdefault(t.predicate, []).append(t)

        def over(prop):
            return by_predicate.get(_iri(prop), [])

        for a, b in schema.subprop_of:
            for t in over(a):
                add(t.subject, _iri(b), t.object)
        for a, b in schema.eq_prop:
            for t in over(a):
                add(t.subject, _iri(b), t.object)
            for t in over(b):
                add(t.subject, _iri(a), t.object)
        for a, b in schema.inverse_of:
            for t in over(a):
                if isinstance(t.object, Iri):
                    add(t.object, _iri(b), t.subject)
            for t in over(b):
                if isinstance(t.object, Iri):
                    add(t.object, _iri(a), t.subject)
        for p in schema.symmetric:
            for t in over(p):
                if isinstance(t.object, Iri):
                    add(t.object, _iri(p), t.subject)
        for p in schema.transitive:
            # the join node (first object = second subject) must be an IRI;
            # the final object may be a literal
            hops = {}
            for t in over(p):
                hops.setdefault(t.subject, set()).add(t.object)
            for t in over(p):
                if isinstance(t.object, Iri):
                    for onward in hops.get(t.object, ()):
                        add(t.subject, _iri(p), onward)
        for p, c in schema.domain:
            for t in over(p):
                add(t.subject, RDF_TYPE, _iri(c))
        for p, c in schema.range:
            for t in over(p):
                if isinstance(t.object, Iri):
                    add(t.object, RDF_TYPE, _iri(c))
        for t in by_predicate.get(RDF_TYPE, []):
            for a, b in schema.subclass_of:
                if t.object == _iri(a):
                    add(t.subject, RDF_TYPE, _iri(b))
            for a, b in schema.eq_class:
                if t.object == _iri(a):
                    add(t.subject, RDF_TYPE, _iri(b))
                if t.object == _iri(b):
                    add(t.subject, RDF_TYPE, _iri(a))

        if not fresh:
            return out
        out |= fresh


def random_schema(rng):
    classes = [f"C{i}" for i in range(4)]
    props = [f"p{i}" for i in range(4)]
    schema = Schema(classes=set(classes), properties=set(props))
    for _ in range(rng.randrange(0, 11)):
        kind = rng.randrange(9)
        if kind == 0:
            schema.subclass_of.append(tuple(rng.sample(classes, 2)))
        elif kind == 1:
            schema.eq_class.append(tuple(rng.sample(classes, 2)))
        elif kind == 2:
            schema.subprop_of.append(tuple(rng.sample(props, 2)))
        elif kind == 3:
            schema.eq_prop.append(tuple(rng.sample(props, 2)))
        elif kind == 4:
            schema.inverse_of.append(tuple(rng.sample(props, 2)))
        elif kind == 5:
            schema.transitive.append(rng.choice(props))
        elif kind == 6:
            schema.symmetric.append(rng.choice(props))
        elif kind == 7:
            schema.domain.append((rng.choice(props), rng.choice(classes)))
        else:
            schema.range.append((rng.choice(props), rng.choice(classes)))
    return schema


def random_store(rng, schema):
    nodes = [_iri(f"n{i}") for i in range(6)]
    props = sorted(schema.properties)
    classes = sorted(schema.classes)
    store = GraphStore(_NS)
    for _ in range(rng.randrange(1, 51)):
        roll = rng.random()
        if roll < 0.15:
            store.add(Triple(rng.choice(nodes), RDF_TYPE, _iri(rng.choice(classes))))
        elif roll < 0.25:
            store.add(Triple(rng.choice(nodes), _iri(rng.choice(props)), rng.randrange(100)))
        elif roll < 0.3:
            store.add(Triple(rng.choice(nodes), _iri(rng.choice(props)), "note"))
        else:
            store.add(Triple(rng.choice(nodes), _iri(rng.choice(props)), rng.choice(nodes)))
    return store


def test_criterion_5_materializer_equals_naive_oracle():
    rng = random.Random(20240842)
    for _ in range(ORACLE_INSTANCES):
        schema = random_schema(rng)
        store = random_store(rng, schema)
        closed = materialize(store, schema)
        assert set(closed) == naive_closure(set(store), schema)
        assert set(store) <= set(closed)
        assert set(materialize(closed, schema)) == set(closed)
    print(
        f"criterion 5: PASS: {ORACLE_INSTANCES}/{ORACLE_INSTANCES} closures equal the "
        "naive fixpoint oracle; all idempotent and monotone"
    )


# ---------------------------------------------------------------------------
# criterion 6: the reference ordering below is reimplemented from scratch so
# the round trip is not checked against the library's own canonicalizer.
# ---------------------------------------------------------------------------


def reference_canonical(images):
    out = {}
    for image, vrs in images.items():
        seen = set()
        kept = []
        for vr in vrs:
            if vr not in seen:
                seen.add(vr)
                kept.append(vr)
        kept.sort(
            key=lambda vr: (
                tuple(vr.subject.bbox),
                vr.predicate_id,
                tuple(vr.object.bbox),
                vr.subject.class_id,
                vr.object.class_id,
            )
        )
        out[image] = kept
    return out


def inverse_free_corpus(rng):
    """Corpus whose VRs all point 'downward' in box order, so the inverse of
    any VR can never collide with an original."""
    classes = random_class_names(rng, 4)
    images = {}
    for i in range(rng.randrange(1, 5)):
        vrs = set()
        for _ in range(rng.randrange(1, 5)):
            y0 = rng.randrange(0, 40)
            subject = AnnotatedObject(
                rng.randrange(len(classes)), BoundingBox(y0, y0 + 10, 0, 10)
            )
            y1 = rng.randrange(100, 140)
            object_ = AnnotatedObject(
                rng.randrange(len(classes)), BoundingBox(y1, y1 + 10, 0, 10)
            )
            vrs.add(VisualRelationship(subject, 0, object_))
        images[f"im{i}.jpg"] = sorted(
            vrs, key=lambda vr: (vr.subject.bbox, vr.object.bbox, vr.subject.class_id)
        )
    return AnnotationCorpus(
        images=images, object_class_names=classes, predicate_names=["above", "below"]
    )


def test_criterion_6_graph_round_trip():
    rng = random.Random(64201)
    for _ in range(ROUND_TRIP_INSTANCES):
        corpus = random_corpus(rng)
        schema = default_schema(corpus)
        back = extract_annotations(
            lower_annotations(corpus, schema),
            schema,
            corpus.object_class_names,
            corpus.predicate_names,
        )
        assert back.images == reference_canonical(corpus.images)

    doubled = 0
    for _ in range(25):
        corpus = inverse_free_corpus(rng)
        schema = default_schema(corpus)
        schema.inverse_of.append(("above", "below"))
        extracted = extract_annotations(
            materialize(lower_annotations(corpus, schema), schema),
            schema,
            corpus.object_class_names,
            corpus.predicate_names,
        )
        assert extracted.vr_count == 2 * corpus.vr_count
        for image, vrs in corpus.images.items():
            inverses = [
                VisualRelationship(vr.object, 1, vr.subject) for vr in vrs
            ]
            assert set(extracted.images[image]) == set(vrs) | set(inverses)
        doubled += 1

    print(
        f"criterion 6: PASS: {ROUND_TRIP_INSTANCES}/{ROUND_TRIP_INSTANCES} round trips "
        f"exact; inverse schema doubled VR counts on {doubled}/25 corpora"
    )


def test_criterion_7_property_suites():
    rng = random.Random(7_000_001)

    for _ in range(IOU_PAIRS):
        a, b = random_bbox(rng), random_bbox(rng)
        ab = iou(a, b)
        assert 0.0 <= ab <= 1.0
        assert ab == iou(b, a)
        assert iou(a, a) == 1.0

    for _ in range(50):
        corpus = random_corpus(rng)
        once = dedup_vrs(corpus)
        assert dedup_vrs(once).images == once.images

        class_pair = rng.sample(corpus.object_class_names, 2)
        assert merge_object_class(corpus, *class_pair).vr_count == corpus.vr_count
        predicate_pair = rng.sample(corpus.predicate_names, 2)
        assert merge_predicate(corpus, *predicate_pair).vr_count == corpus.vr_count

        for metric in METRICS:
            assert distribution(corpus, metric).population == len(corpus.images)
        histogram = distribution(corpus, "vrs_per_image")
        assert sum(value * count for value, count in histogram.buckets) == corpus.vr_count

    print(
        f"criterion 7: PASS: {IOU_PAIRS} box pairs, 50 dedup/merge/histogram corpora: "
        "zero violations"
    )
