import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from xml.sax import saxutils

import pytest

import vrannot
from vrannot.analyze import (
    METRICS,
    Histogram,
    LintFinding,
    LintRule,
    QueryResult,
    VRPattern,
    distribution,
    format_findings,
    images_with_vr_count,
    iou,
    lint,
    parse_pattern,
    query_images,
    render_overlay,
    xml_escape,
    xml_quoteattr,
)
from vrannot.corpus import (
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    VisualRelationship,
)
from vrannot.errors import (
    ConfigError,
    DegenerateBoxError,
    IdOutOfRangeError,
    ImageNotFoundError,
    UnknownNameError,
)
from vrannot.workflow import dedup_vrs

from helpers import (check_result_tuple, load_listing_corpus, random_bbox, random_corpus, reference_distribution,
                     reference_lint, reference_query_images)

CLASSES = ["person", "jacket", "watch", "dog", "hat", "road", "street"]
PREDICATES = ["wear", "on", "beside"]


def obj(class_name, y0, y1, x0, x1):
    return AnnotatedObject(CLASSES.index(class_name), BoundingBox(y0, y1, x0, x1))


def vr(subject, predicate, object_):
    return VisualRelationship(subject, PREDICATES.index(predicate), object_)


def small_corpus():
    person = obj("person", 0, 200, 0, 100)
    return AnnotationCorpus(
        images={
            "a.jpg": [
                vr(person, "wear", obj("jacket", 20, 120, 10, 90)),
                vr(person, "wear", obj("watch", 90, 110, 80, 100)),
            ],
            "b.jpg": [vr(obj("person", 5, 150, 5, 95), "wear", obj("jacket", 30, 100, 20, 80))],
            "c.jpg": [vr(obj("dog", 10, 60, 10, 60), "beside", obj("person", 0, 180, 70, 150))],
        },
        object_class_names=list(CLASSES),
        predicate_names=list(PREDICATES),
    )


class TestQuery:
    def test_object_wildcard(self):
        result = query_images(small_corpus(), VRPattern("person", "wear", None))
        assert result.images == ["a.jpg", "b.jpg"]
        assert result.bindings == {"object": ["jacket", "watch"]}

    def test_all_wildcards(self):
        result = query_images(small_corpus(), VRPattern(None, None, None))
        assert result.images == ["a.jpg", "b.jpg", "c.jpg"]
        assert result.bindings["subject"] == ["dog", "person"]
        assert result.bindings["predicate"] == ["beside", "wear"]
        assert result.bindings["object"] == ["jacket", "person", "watch"]

    def test_fully_concrete(self):
        result = query_images(small_corpus(), VRPattern("dog", "beside", "person"))
        assert result.images == ["c.jpg"]
        assert result.bindings == {}

    def test_no_match(self):
        result = query_images(small_corpus(), VRPattern("watch", None, None))
        assert result.images == []
        assert result.bindings == {"predicate": [], "object": []}

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            query_images(small_corpus(), VRPattern("zebra", None, None))
        with pytest.raises(UnknownNameError):
            query_images(small_corpus(), VRPattern(None, "zebra", None))

    def test_randomized_against_naive_filter(self):
        rng = random.Random(61)
        for _ in range(40):
            corpus = random_corpus(rng)
            fields = [
                rng.choice([None, rng.choice(corpus.object_class_names)]),
                rng.choice([None, rng.choice(corpus.predicate_names)]),
                rng.choice([None, rng.choice(corpus.object_class_names)]),
            ]
            pattern = VRPattern(*fields)
            result = query_images(corpus, pattern)

            expected_images = []
            for image in sorted(corpus.images):
                for v in corpus.images[image]:
                    s, p, o = corpus.vr_type_names(v)
                    if (
                        (pattern.subject in (None, s))
                        and (pattern.predicate in (None, p))
                        and (pattern.object in (None, o))
                    ):
                        expected_images.append(image)
                        break
            assert result.images == expected_images


class TestParsePattern:
    @pytest.mark.parametrize(
        "text",
        [
            "(person, wear, *)",
            "person, wear, *",
            "('person', 'wear', *)",
            "(`person', `wear', *)",
        ],
    )
    def test_equivalent_forms(self, text):
        assert parse_pattern(text) == VRPattern("person", "wear", None)

    def test_all_wildcards(self):
        assert parse_pattern("*,*,*") == VRPattern(None, None, None)

    @pytest.mark.parametrize("text", ["person, wear", "a, b, c, d", "person,,wear", ""])
    def test_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_pattern(text)


class TestImagesWithVRCount:
    def test_exact(self):
        assert images_with_vr_count(small_corpus(), 2) == ["a.jpg"]
        assert images_with_vr_count(small_corpus(), 1) == ["b.jpg", "c.jpg"]
        assert images_with_vr_count(small_corpus(), 9) == []

    def test_range(self):
        assert images_with_vr_count(small_corpus(), range(1, 3)) == ["a.jpg", "b.jpg", "c.jpg"]
        assert images_with_vr_count(small_corpus(), range(2, 100)) == ["a.jpg"]


class TestDistribution:
    def test_empty_corpus(self):
        empty = AnnotationCorpus(images={}, object_class_names=[], predicate_names=[])
        hist = distribution(empty, "vrs_per_image")
        assert hist.buckets == [] and hist.population == 0

    def test_vrs_per_image(self):
        hist = distribution(small_corpus(), "vrs_per_image")
        assert hist.buckets == [(1, 2), (2, 1)]
        assert hist.population == 3

    def test_distinct_classes(self):
        # a.jpg: person + jacket + watch = 3; the shared person counts once
        hist = distribution(small_corpus(), "distinct_classes_per_image")
        assert hist.buckets == [(2, 2), (3, 1)]

    def test_distinct_predicates(self):
        hist = distribution(small_corpus(), "distinct_predicates_per_image")
        assert hist.buckets == [(1, 3)]

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            distribution(small_corpus(), "colors_per_image")

    def test_cross_footing_randomized(self):
        rng = random.Random(29)
        for _ in range(30):
            corpus = random_corpus(rng)
            populations = set()
            for metric in METRICS:
                hist = distribution(corpus, metric)
                populations.add(hist.population)
                assert hist.buckets == sorted(hist.buckets)
            assert populations == {len(corpus.images)}
            vr_hist = distribution(corpus, "vrs_per_image")
            assert sum(v * n for v, n in vr_hist.buckets) == corpus.vr_count


class TestIoU:
    def test_identity(self):
        box = BoundingBox(3, 33, 7, 77)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 10, 0, 10), BoundingBox(20, 30, 20, 30)) == 0.0

    def test_edge_touching_is_zero(self):
        assert iou(BoundingBox(0, 10, 0, 10), BoundingBox(0, 10, 10, 20)) == 0.0

    def test_half_overlap(self):
        ratio = iou(BoundingBox(0, 10, 0, 10), BoundingBox(0, 10, 5, 15))
        assert ratio == pytest.approx(1 / 3)

    def test_containment(self):
        ratio = iou(BoundingBox(0, 10, 0, 10), BoundingBox(2, 8, 2, 8))
        assert ratio == pytest.approx(36 / 100)

    def test_degenerate_rejected(self):
        good = BoundingBox(0, 10, 0, 10)
        for bad in (BoundingBox(5, 5, 0, 10), BoundingBox(10, 0, 0, 10), BoundingBox(-1, 5, 0, 10)):
            with pytest.raises(DegenerateBoxError):
                iou(bad, good)
            with pytest.raises(DegenerateBoxError):
                iou(good, bad)

    def test_properties_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b = random_bbox(rng), random_bbox(rng)
            ab = iou(a, b)
            assert 0.0 <= ab <= 1.0
            assert ab == iou(b, a)
            assert iou(a, a) == 1.0


def one_vr_corpus(subject, predicate_id, object_, extra_vrs=(), classes=CLASSES):
    return AnnotationCorpus(
        images={"x.jpg": [VisualRelationship(subject, predicate_id, object_), *extra_vrs]},
        object_class_names=list(classes),
        predicate_names=list(PREDICATES),
    )


class TestLint:
    def test_clean_corpus(self):
        assert lint(load_listing_corpus()) == []

    def test_empty_image_entry(self):
        corpus = small_corpus()
        corpus.images["empty.jpg"] = []
        findings = lint(corpus)
        assert [(f.rule, f.image, f.detail) for f in findings] == [
            (LintRule.EMPTY_IMAGE_ENTRY, "empty.jpg", "no relationships")
        ]
        assert findings[0].severity == "warning"

    def test_exact_duplicate(self):
        duplicate = vr(obj("person", 0, 10, 0, 10), "wear", obj("hat", 0, 5, 0, 5))
        corpus = one_vr_corpus(duplicate.subject, duplicate.predicate_id, duplicate.object, [duplicate])
        findings = lint(corpus)
        assert len(findings) == 1
        assert findings[0].rule is LintRule.EXACT_DUPLICATE_VR
        assert findings[0].detail == "vr[0] == vr[1]: (person, wear, hat)"

    def test_degenerate_bbox(self):
        corpus = one_vr_corpus(
            AnnotatedObject(0, BoundingBox(10, 10, 0, 5)), 0, obj("hat", 0, 5, 0, 5)
        )
        findings = lint(corpus)
        assert len(findings) == 1
        assert findings[0].rule is LintRule.DEGENERATE_BBOX
        assert findings[0].severity == "error"
        assert findings[0].detail == "class 'person' box [10, 10, 0, 5]"

    def test_multi_class_bbox(self):
        shared = BoundingBox(0, 50, 0, 90)
        corpus = one_vr_corpus(
            AnnotatedObject(CLASSES.index("road"), shared),
            PREDICATES.index("beside"),
            obj("person", 60, 100, 0, 40),
            extra_vrs=[
                VisualRelationship(
                    AnnotatedObject(CLASSES.index("street"), shared),
                    PREDICATES.index("beside"),
                    obj("person", 60, 100, 0, 40),
                )
            ],
        )
        findings = lint(corpus)
        assert len(findings) == 1
        assert findings[0].rule is LintRule.MULTI_CLASS_BBOX
        assert findings[0].detail == "box [0, 50, 0, 90] classes ['road', 'street']"

    def test_near_duplicate_bbox(self):
        corpus = one_vr_corpus(
            AnnotatedObject(0, BoundingBox(0, 100, 0, 100)),
            0,
            obj("hat", 200, 220, 0, 20),
            extra_vrs=[
                vr(obj("person", 0, 100, 0, 95), "wear", obj("hat", 200, 220, 0, 20))
            ],
        )
        findings = lint(corpus)
        assert len(findings) == 1
        assert findings[0].rule is LintRule.NEAR_DUPLICATE_BBOX
        assert findings[0].detail == (
            "class 'person' boxes [0, 100, 0, 95] ~ [0, 100, 0, 100] iou 0.950"
        )
        # a stricter threshold silences it
        assert lint(corpus, near_dup_iou_threshold=0.96) == []

    def test_near_duplicate_needs_same_class(self):
        corpus = one_vr_corpus(
            AnnotatedObject(0, BoundingBox(0, 100, 0, 100)),
            0,
            obj("hat", 200, 220, 0, 20),
            extra_vrs=[vr(obj("dog", 0, 100, 0, 95), "wear", obj("hat", 200, 220, 0, 20))],
        )
        assert lint(corpus) == []

    def test_threshold_validation(self):
        for bad in (0.0, -0.5, 1.01):
            with pytest.raises(ConfigError):
                lint(small_corpus(), near_dup_iou_threshold=bad)
        lint(small_corpus(), near_dup_iou_threshold=1.0)

    def test_findings_are_sorted(self):
        corpus = small_corpus()
        dup = corpus.images["a.jpg"][0]
        corpus.images["a.jpg"].append(dup)
        corpus.images["a.jpg"].append(
            vr(AnnotatedObject(0, BoundingBox(7, 7, 0, 5)), "on", obj("hat", 0, 5, 0, 5))
        )
        corpus.images["zz.jpg"] = []
        findings = lint(corpus)
        keys = [(f.image, f.rule.value, f.detail) for f in findings]
        assert keys == sorted(keys)
        assert len(findings) >= 3

    def test_dedup_clears_exact_duplicates(self):
        rng = random.Random(313)
        for _ in range(20):
            corpus = random_corpus(rng)
            image = rng.choice(sorted(corpus.images))
            corpus.images[image].append(corpus.images[image][0])
            cleaned = lint(dedup_vrs(corpus))
            assert all(f.rule is not LintRule.EXACT_DUPLICATE_VR for f in cleaned)

    def test_randomized_against_naive_checker(self):
        rng = random.Random(401)
        threshold = 0.9
        for _ in range(40):
            corpus = random_corpus(rng, max_images=5, max_vrs=5)
            # salt the corpus with lintable structure
            for image in list(corpus.images):
                vrs = corpus.images[image]
                if rng.random() < 0.4:
                    vrs.append(rng.choice(vrs))
                if rng.random() < 0.4:
                    donor = rng.choice(vrs)
                    other = (donor.subject.class_id + 1) % len(corpus.object_class_names)
                    vrs.append(
                        VisualRelationship(
                            AnnotatedObject(other, donor.subject.bbox),
                            donor.predicate_id,
                            donor.object,
                        )
                    )
                if rng.random() < 0.4:
                    donor = rng.choice(vrs)
                    box = donor.subject.bbox
                    shrunk = BoundingBox(box.ymin, box.ymax, box.xmin, max(box.xmin + 1, box.xmax - 1))
                    vrs.append(
                        VisualRelationship(
                            AnnotatedObject(donor.subject.class_id, shrunk),
                            donor.predicate_id,
                            donor.object,
                        )
                    )
                if rng.random() < 0.2:
                    donor = rng.choice(vrs)
                    vrs.append(
                        VisualRelationship(
                            AnnotatedObject(
                                donor.subject.class_id,
                                BoundingBox(5, 5, 0, 9),
                            ),
                            donor.predicate_id,
                            donor.object,
                        )
                    )
            if rng.random() < 0.3:
                corpus.images["hollow.jpg"] = []

            naive = Counter()
            for image, vrs in corpus.images.items():
                if not vrs:
                    naive[(image, LintRule.EMPTY_IMAGE_ENTRY)] += 1
                    continue
                for i in range(len(vrs)):
                    for j in range(i + 1, len(vrs)):
                        if vrs[i] == vrs[j]:
                            naive[(image, LintRule.EXACT_DUPLICATE_VR)] += 1
                objects = {(o.class_id, o.bbox) for v in vrs for o in (v.subject, v.object)}
                for class_id, box in objects:
                    if not box.well_formed:
                        naive[(image, LintRule.DEGENERATE_BBOX)] += 1
                boxes = {}
                for class_id, box in objects:
                    boxes.setdefault(box, set()).add(class_id)
                for box, ids in boxes.items():
                    if len(ids) > 1:
                        naive[(image, LintRule.MULTI_CLASS_BBOX)] += 1
                usable = sorted(
                    (pair for pair in objects if pair[1].well_formed),
                    key=lambda pair: (pair[1], pair[0]),
                )
                for i in range(len(usable)):
                    for j in range(i + 1, len(usable)):
                        (ca, ba), (cb, bb) = usable[i], usable[j]
                        if ca == cb and ba != bb and iou(ba, bb) >= threshold:
                            naive[(image, LintRule.NEAR_DUPLICATE_BBOX)] += 1

            actual = Counter((f.image, f.rule) for f in lint(corpus, threshold))
            assert actual == naive


def hazard_box(rng: random.Random, base: BoundingBox) -> BoundingBox:
    """A box near `base` (IoU near 1, or `base` itself), a degenerate box
    (empty extent or a negative coordinate), or an unrelated box."""
    kind = rng.randrange(4)
    if kind == 0:
        return base
    if kind == 1:
        return BoundingBox(*(edge + rng.randrange(-2, 3) for edge in base))
    if kind == 2:
        y, x = rng.randrange(-2, 40), rng.randrange(-2, 40)
        return BoundingBox(y, y + rng.randrange(-1, 3), x, x + rng.randrange(-1, 3))
    return random_bbox(rng, span=60)


def hazard_corpus(rng: random.Random) -> AnnotationCorpus:
    """A small corpus dense in what the analysis functions tell apart: boxes
    drawn from a small per-image pool, so that one box often carries several
    classes, degenerate or not; near-duplicate boxes; exact duplicate VRs; and
    empty images."""
    classes = CLASSES[: rng.randrange(1, len(CLASSES) + 1)]
    predicates = PREDICATES[: rng.randrange(1, len(PREDICATES) + 1)]
    images = {}
    for index in range(rng.randrange(0, 5)):
        vrs = []
        if rng.random() >= 0.15:
            base = random_bbox(rng, span=60)
            pool = [hazard_box(rng, base) for _ in range(rng.randrange(1, 6))]
            for _ in range(rng.randrange(1, 7)):
                vrs.append(VisualRelationship(
                    AnnotatedObject(rng.randrange(len(classes)), rng.choice(pool)),
                    rng.randrange(len(predicates)),
                    AnnotatedObject(rng.randrange(len(classes)), rng.choice(pool)),
                ))
                if rng.random() < 0.2:
                    vrs.append(rng.choice(vrs))
        images[f"i{index}.jpg"] = vrs
    return AnnotationCorpus(images, list(classes), list(predicates))


def near_duplicate_ratios(corpus: AnnotationCorpus) -> list[float]:
    """The IoU of every pair of distinct well-formed boxes of one class in one image."""
    ratios = []
    for vrs in corpus.images.values():
        objects = {o for v in vrs for o in (v.subject, v.object) if o.bbox.well_formed}
        ratios += [iou(a.bbox, b.bbox) for a in objects for b in objects
                   if a.class_id == b.class_id and a.bbox < b.bbox]
    return ratios


class TestAgainstTheReference:
    """`lint`, `query_images` and `distribution` against their previous forms,
    kept verbatim in helpers, on seeded corpora: equal results, in order."""

    SEEDS = range(1200)

    def test_lint(self):
        seen = Counter()
        for seed in self.SEEDS:
            rng = random.Random(seed)
            corpus = hazard_corpus(rng)
            thresholds = [0.9]
            ratios = [r for r in near_duplicate_ratios(corpus) if r > 0]
            if ratios:  # a pair's IoU at, just below and just above the threshold
                ratio = rng.choice(ratios)
                thresholds += [ratio, math.nextafter(ratio, 0)]
                if ratio < 1:
                    thresholds.append(math.nextafter(ratio, 1))
                seen["boundary thresholds"] += 1
            for threshold in thresholds:
                findings = lint(corpus, threshold)
                assert findings == reference_lint(corpus, threshold), (seed, threshold)
                seen.update(f.rule for f in findings)
            for vrs in corpus.images.values():
                boxes = Counter(o.bbox for o in {o for v in vrs for o in (v.subject, v.object)})
                seen["degenerate multi-class"] += any(n > 1 and not box.well_formed
                                                      for box, n in boxes.items())
        # every rule, the boundary thresholds and a degenerate box with several classes occur often
        assert min(seen.values()) >= 50 and len(seen) == len(LintRule) + 2, seen

    def test_query_images(self):
        positions = Counter()
        for seed in self.SEEDS:
            rng = random.Random(seed)
            corpus = hazard_corpus(rng)
            for mask in range(8):  # bit k set: position k is a wildcard
                names = (corpus.object_class_names, corpus.predicate_names, corpus.object_class_names)
                pattern = VRPattern(*(None if mask >> k & 1 else rng.choice(pool)
                                      for k, pool in enumerate(names)))
                result = query_images(corpus, pattern)
                expected = reference_query_images(corpus, pattern)
                assert result.images == expected.images, (seed, pattern)
                assert list(result.bindings.items()) == list(expected.bindings.items()), (seed, pattern)
                positions.update(position for position, bound in result.bindings.items() if bound)
        assert min(positions[name] for name in VRPattern._fields) >= 1000

    def test_distribution(self):
        for seed in self.SEEDS:
            corpus = hazard_corpus(random.Random(seed))
            for metric in METRICS:
                assert distribution(corpus, metric) == reference_distribution(corpus, metric), seed


def test_the_docs_list_each_lint_rule_with_its_severity():
    """docs/formats.md's lint table names each rule once, with the severity
    `lint` gives its findings."""
    degenerate = AnnotatedObject(0, BoundingBox(5, 5, 0, 9))
    person = obj("person", 0, 100, 0, 100)
    duplicate = vr(degenerate, "on", AnnotatedObject(1, degenerate.bbox))
    corpus = AnnotationCorpus(
        {"empty.jpg": [], "x.jpg": [duplicate, duplicate, vr(person, "on", obj("person", 0, 100, 0, 99))]},
        list(CLASSES), list(PREDICATES))
    severities = {f.rule.value: f.severity for f in lint(corpus)}
    assert sorted(severities) == sorted(rule.value for rule in LintRule)
    text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")
    section = text.split("\n## Lint findings\n")[1].split("\n## ")[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    assert {row[0][3:-1]: row[2] for row in rows} == severities and len(rows) == len(severities)


class TestResultTuples:
    """The result types keep the repr text, equality and immutability they
    had as frozen dataclasses."""

    @pytest.mark.parametrize("value,text", [
        (VRPattern("person", None, "dog"), "VRPattern(subject='person', predicate=None, object='dog')"),
        (QueryResult(["a.jpg"], {"predicate": ["on"]}),
         "QueryResult(images=['a.jpg'], bindings={'predicate': ['on']})"),
        (Histogram("vrs_per_image", [(1, 2), (3, 1)]),
         "Histogram(metric='vrs_per_image', buckets=[(1, 2), (3, 1)])"),
        (LintFinding(LintRule.EMPTY_IMAGE_ENTRY, "a.jpg", "no relationships", "warning"),
         "LintFinding(rule=<LintRule.EMPTY_IMAGE_ENTRY: 'EmptyImageEntry'>, image='a.jpg', "
         "detail='no relationships', severity='warning')"),
    ], ids=["pattern", "query", "histogram", "finding"])
    def test_repr_equality_and_immutability(self, value, text):
        check_result_tuple(value, text)

    def test_histogram_population(self):
        assert Histogram("vrs_per_image", [(1, 2), (3, 1)]).population == 3
        assert distribution(small_corpus(), "vrs_per_image").population == len(small_corpus().images)


class TestFormatFindings:
    def test_layout(self):
        corpus = small_corpus()
        corpus.images["empty.jpg"] = []
        text = format_findings(lint(corpus))
        assert text == "empty.jpg\tEmptyImageEntry\tno relationships\n"

    def test_empty(self):
        assert format_findings([]) == ""


class TestOverlay:
    def test_single_vr(self, tmp_path):
        out = tmp_path / "b.svg"
        render_overlay(small_corpus(), "b.jpg", None, out)
        svg = out.read_text(encoding="utf-8")
        assert svg.count("<rect ") == 2
        assert svg.count("<text ") == 2
        assert 'href="b.jpg"' in svg
        assert ">person</text>" in svg and ">jacket</text>" in svg

    def test_shared_objects_drawn_once(self, tmp_path):
        out = tmp_path / "a.svg"
        render_overlay(small_corpus(), "a.jpg", None, out)
        svg = out.read_text(encoding="utf-8")
        # person, jacket, watch: the shared person box appears once
        assert svg.count("<rect ") == 3

    def test_selection_subset(self, tmp_path):
        out = tmp_path / "a.svg"
        render_overlay(small_corpus(), "a.jpg", [1], out)
        svg = out.read_text(encoding="utf-8")
        assert svg.count("<rect ") == 2
        assert ">watch</text>" in svg and ">jacket</text>" not in svg

    def test_viewport_covers_boxes(self, tmp_path):
        out = tmp_path / "c.svg"
        render_overlay(small_corpus(), "c.jpg", None, out)
        svg = out.read_text(encoding="utf-8")
        assert 'viewBox="0 0 150 180"' in svg

    def test_bad_selection_index(self, tmp_path):
        with pytest.raises(IdOutOfRangeError):
            render_overlay(small_corpus(), "a.jpg", [0, 5], tmp_path / "x.svg")

    def test_unknown_image(self, tmp_path):
        with pytest.raises(ImageNotFoundError):
            render_overlay(small_corpus(), "ghost.jpg", None, tmp_path / "x.svg")

    def test_label_and_href_escaping(self, tmp_path):
        corpus = AnnotationCorpus(
            images={
                'odd "name".jpg': [
                    VisualRelationship(
                        AnnotatedObject(0, BoundingBox(0, 10, 0, 10)),
                        0,
                        AnnotatedObject(1, BoundingBox(20, 30, 20, 30)),
                    )
                ]
            },
            object_class_names=["black & white dog", "<hat>"],
            predicate_names=["wear"],
        )
        out = tmp_path / "odd.svg"
        render_overlay(corpus, 'odd "name".jpg', None, out)
        svg = out.read_text(encoding="utf-8")
        assert "black &amp; white dog" in svg
        assert "&lt;hat&gt;" in svg
        assert "&" not in svg.replace("&amp;", "").replace("&lt;", "").replace("&gt;", "").replace("&quot;", "")

    def test_bytes_pinned(self, tmp_path):
        image = "it's \"odd\" & <x>\t.jpg"
        corpus = AnnotationCorpus(
            images={
                image: [
                    VisualRelationship(
                        AnnotatedObject(0, BoundingBox(0, 10, 0, 10)),
                        0,
                        AnnotatedObject(1, BoundingBox(20, 30, 20, 30)),
                    )
                ]
            },
            object_class_names=["black & white dog", "<hat> \"q\" 's"],
            predicate_names=["wear"],
        )
        out = tmp_path / "odd.svg"
        render_overlay(corpus, image, None, out)
        assert out.read_bytes() == (
            b'<?xml version="1.0" encoding="UTF-8"?>\n'
            b'<svg xmlns="http://www.w3.org/2000/svg" width="30" height="30" viewBox="0 0 30 30">\n'
            b'  <image href="it\'s &quot;odd&quot; &amp; &lt;x&gt;&#9;.jpg" x="0" y="0" '
            b'width="30" height="30"/>\n'
            b'  <rect x="0" y="0" width="10" height="10" fill="none" stroke="#e6194b" '
            b'stroke-width="2"/>\n'
            b'  <text x="2" y="14" font-family="sans-serif" font-size="12" '
            b'fill="#e6194b">black &amp; white dog</text>\n'
            b'  <rect x="20" y="20" width="10" height="10" fill="none" stroke="#3cb44b" '
            b'stroke-width="2"/>\n'
            b'  <text x="22" y="34" font-family="sans-serif" font-size="12" '
            b'fill="#3cb44b">&lt;hat&gt; "q" \'s</text>\n'
            b"</svg>\n"
        )

    @staticmethod
    def overlay_of(tmp_path, *boxes):
        """The SVG text of one VR per pair of boxes, each box a [ymin, ymax, xmin, xmax] list."""
        vrs = [VisualRelationship(AnnotatedObject(0, BoundingBox(*s)), 0, AnnotatedObject(1, BoundingBox(*o)))
               for s, o in zip(boxes[::2], boxes[1::2])]
        corpus = AnnotationCorpus({"a.jpg": vrs}, ["dog", "cat"], ["near"])
        render_overlay(corpus, "a.jpg", None, tmp_path / "a.svg")
        return (tmp_path / "a.svg").read_text(encoding="utf-8")

    def test_negative_boxes_keep_a_1x1_viewport(self, tmp_path):
        svg = self.overlay_of(tmp_path, [-10, -5, -10, -5], [-10, -5, -10, -5])
        assert '<svg xmlns="http://www.w3.org/2000/svg" width="1" height="1" viewBox="0 0 1 1">' in svg
        assert '<rect x="-10" y="-10" width="5" height="5" ' in svg

    def test_a_reversed_box_is_drawn_from_its_lesser_coordinates(self, tmp_path):
        svg = self.overlay_of(tmp_path, [0, 5, 10, 3], [0, 5, 10, 3])
        assert 'width="10" height="5" viewBox="0 0 10 5"' in svg
        assert '<rect x="3" y="0" width="7" height="5" ' in svg
        assert '<text x="5" y="14" ' in svg

    def test_every_length_is_non_negative(self, tmp_path):
        rng = random.Random(2929)
        for _ in range(200):
            boxes = [[rng.randrange(-50, 50) for _ in range(4)] for _ in range(2 * rng.randrange(1, 4))]
            svg = self.overlay_of(tmp_path, *boxes)
            lengths = [int(n) for n in re.findall(r' (?:width|height)="(-?[0-9]+)"', svg)]
            assert len(lengths) == 2 + 2 + 2 * len({(i % 2, *box) for i, box in enumerate(boxes)})
            assert min(lengths[:4]) >= 1 and min(lengths) >= 0
            assert re.search(r'viewBox="0 0 ([0-9]+) ([0-9]+)"', svg).groups() == tuple(map(str, lengths[:2]))


class TestXmlEscaping:
    ALPHABET = "&<>\"'\n\r\t\\ aZ9;é中😀"

    def test_matches_saxutils_randomized(self):
        rng = random.Random(47)
        for _ in range(2000):
            text = "".join(rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 12)))
            assert xml_escape(text) == saxutils.escape(text)
            assert xml_quoteattr(text) == saxutils.quoteattr(text)

    def test_cli_import_stays_lean(self):
        src = str(Path(vrannot.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        heavy = ("xml.sax", "urllib.request", "http.client", "email")
        code = (
            "import sys, vrannot.cli\n"
            f"print(sorted(m for m in sys.modules if m.startswith({heavy!r})))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, encoding="utf-8",
            check=True,
        )
        assert result.stdout.strip() == "[]"
