"""Read-only analysis over a corpus: pattern queries, distributions, and lint.

Everything here treats the corpus as an immutable value.  Lint covers the
mechanically checkable quality problems: duplicate relationships, degenerate
and near-duplicate boxes, one box carrying several classes, and empty image
entries.  Naming problems (synonymous classes and the like) are for humans;
the query operations exist to surface candidates for that kind of review.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from itertools import groupby
from typing import NamedTuple

from .corpus import (METRICS, AnnotatedObject, AnnotationCorpus, BoundingBox, find_exact_duplicates,
                     replace_files, strip_quotes)
from .errors import ConfigError, DegenerateBoxError, IdOutOfRangeError, ImageNotFoundError, VrannotError

WILDCARD = "*"


class VRPattern(NamedTuple):
    """A type query; None fields are wildcards."""

    subject: str | None
    predicate: str | None
    object: str | None


def parse_pattern(text: str) -> VRPattern:
    """Parse `subject, predicate, object` with `*` wildcards; parentheses and
    quotes around names are optional."""
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    parts = [strip_quotes(p.strip()) for p in inner.split(",")]
    if len(parts) != 3 or any(not p for p in parts):
        raise ConfigError(f"pattern must be three comma-separated names, got {text!r}")
    return VRPattern(*(None if p == WILDCARD else p for p in parts))


class QueryResult(NamedTuple):
    """Images matching a pattern plus the names seen at wildcard positions."""

    images: list[str]
    bindings: dict[str, list[str]]


def query_images(corpus: AnnotationCorpus, pattern: VRPattern) -> QueryResult:
    """Images having at least one VR matching the pattern; bindings collect
    the distinct names observed at each wildcard position, sorted."""
    want_subject, want_predicate, want_object = corpus.vr_type_ids(pattern)

    images: list[str] = []
    seen: dict[str, set[str]] = {position: set() for position, name in zip(VRPattern._fields, pattern)
                                 if name is None}

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


def images_with_vr_count(corpus: AnnotationCorpus, target: int | range) -> list[str]:
    """Images whose VR list length equals the target (or falls in the range)."""
    counts = target if isinstance(target, range) else (target,)
    return sorted(image for image, vrs in corpus.images.items() if len(vrs) in counts)


# --------------------------------------------------------------------------
# distributions
# --------------------------------------------------------------------------

_METRIC_VALUES = dict(zip(METRICS, (  # each metric, in METRICS order -> its value for one VR list
    len,
    lambda vrs: len({o.class_id for vr in vrs for o in (vr.subject, vr.object)}),
    lambda vrs: len({vr.predicate_id for vr in vrs}),
)))


class Histogram(NamedTuple):
    metric: str
    buckets: list[tuple[int, int]]  # (value, image count), ascending by value

    @property
    def population(self) -> int:
        return sum(count for _, count in self.buckets)


def distribution(corpus: AnnotationCorpus, metric: str) -> Histogram:
    value = _METRIC_VALUES.get(metric)
    if value is None:
        raise ConfigError(f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}")
    return Histogram(metric, sorted(Counter(map(value, corpus.images.values())).items()))


# --------------------------------------------------------------------------
# geometry
# --------------------------------------------------------------------------


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union with half-open pixel intervals [min, max)."""
    if not a.well_formed:
        raise DegenerateBoxError(f"degenerate box {list(a)}")
    if not b.well_formed:
        raise DegenerateBoxError(f"degenerate box {list(b)}")
    inter_h = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    inter_w = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    if inter_h <= 0 or inter_w <= 0:
        return 0.0
    intersection = inter_h * inter_w
    area_a = (a.ymax - a.ymin) * (a.xmax - a.xmin)
    area_b = (b.ymax - b.ymin) * (b.xmax - b.xmin)
    return intersection / (area_a + area_b - intersection)


# --------------------------------------------------------------------------
# lint
# --------------------------------------------------------------------------


class LintRule(Enum):
    EXACT_DUPLICATE_VR = "ExactDuplicateVR"
    NEAR_DUPLICATE_BBOX = "NearDuplicateBbox"
    DEGENERATE_BBOX = "DegenerateBbox"
    MULTI_CLASS_BBOX = "MultiClassBbox"
    EMPTY_IMAGE_ENTRY = "EmptyImageEntry"


class LintFinding(NamedTuple):
    rule: LintRule
    image: str
    detail: str
    severity: str


def _image_objects(vrs: list) -> list[AnnotatedObject]:
    """Distinct participants of some VRs, sorted by box, then class, for determinism."""
    objects = {o for vr in vrs for o in (vr.subject, vr.object)}
    return sorted(objects, key=lambda o: (o.bbox, o.class_id))


def lint(corpus: AnnotationCorpus, near_dup_iou_threshold: float = 0.9) -> list[LintFinding]:
    """All findings over the corpus, ordered by (image, rule, detail)."""
    if not 0.0 < near_dup_iou_threshold <= 1.0:
        raise ConfigError("near-duplicate threshold must be in (0, 1]")
    findings: list[LintFinding] = []

    def add(rule: LintRule, image: str, detail: str) -> None:
        severity = "error" if rule is LintRule.DEGENERATE_BBOX else "warning"
        findings.append(LintFinding(rule, image, detail, severity))

    for image, vrs in corpus.images.items():
        if not vrs:
            add(LintRule.EMPTY_IMAGE_ENTRY, image, "no relationships")
            continue
        for i, j in find_exact_duplicates(vrs):
            s, p, o = corpus.vr_type_names(vrs[i])
            add(LintRule.EXACT_DUPLICATE_VR, image, f"vr[{i}] == vr[{j}]: ({s}, {p}, {o})")

        # one pass over the objects: sorted by (box, class), equal boxes are adjacent
        usable: list[AnnotatedObject] = []
        for bbox, group in groupby(_image_objects(vrs), key=lambda o: o.bbox):
            objects = list(group)
            if bbox.well_formed:
                usable += objects
            else:
                for class_id, _ in objects:
                    add(LintRule.DEGENERATE_BBOX, image,
                        f"class '{corpus.class_name(class_id)}' box {list(bbox)}")
            if len(objects) > 1:
                names = sorted(corpus.class_name(c) for c, _ in objects)
                add(LintRule.MULTI_CLASS_BBOX, image, f"box {list(bbox)} classes {names}")

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


def format_findings(findings: list[LintFinding]) -> str:
    """One tab-separated line per finding: image, rule, detail."""
    return "".join(f"{f.image}\t{f.rule.value}\t{f.detail}\n" for f in findings)


# --------------------------------------------------------------------------
# overlays
# --------------------------------------------------------------------------

_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#008080", "#9a6324",
)


# Same output as xml.sax.saxutils, whose import pulls in urllib.request and email.
def xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


# What XML 1.0's `Char` production leaves out; no escape, not even a character reference, holds it.
_XML_EXCLUDED = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _xml_text(text: str) -> str:
    """`text`, if an XML document can hold it; else VrannotError naming it and its character."""
    bad = _XML_EXCLUDED.search(text)
    if bad:
        raise VrannotError(f"{text!r} holds {bad[0]!r}, which no XML 1.0 document can hold")
    return text


def xml_quoteattr(text: str) -> str:
    text = xml_escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' in text and "'" in text:
        text = text.replace('"', "&quot;")
    return f"'{text}'" if '"' in text else f'"{text}"'


def render_overlay(
    corpus: AnnotationCorpus,
    filename: str,
    selection: list[int] | None,
    out_path,
) -> None:
    """Write an SVG overlay of the selected VRs' object boxes.

    The raster image is referenced by relative path, never decoded, so the
    viewport falls back to the maximum box extent, at least 1x1.  Each box is
    drawn from its lesser to its greater coordinate.  Objects shared between
    selected VRs are drawn once.  A filename or drawn class name holding a
    character that XML 1.0 excludes raises VrannotError before anything is
    written.
    """
    if filename not in corpus.images:
        raise ImageNotFoundError(filename)
    vrs = corpus.images[filename]
    if selection is None:
        picked = vrs
    else:
        for index in selection:
            if not 0 <= index < len(vrs):
                raise IdOutOfRangeError(filename, index, "selection", index, len(vrs),
                                        "image has {} relationships")
        picked = [vrs[i] for i in selection]

    boxes = [(class_id, *sorted(bbox[:2]), *sorted(bbox[2:]))  # (class, ymin, ymax, xmin, xmax)
             for class_id, bbox in _image_objects(picked)]
    width = max([1, *(xmax for *_, xmax in boxes)])
    height = max([1, *(ymax for _, _, ymax, _, _ in boxes)])

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
        f'  <image href={xml_quoteattr(_xml_text(filename))} x="0" y="0" '
        f'width="{width}" height="{height}"/>\n',
    ]
    for index, (class_id, ymin, ymax, xmin, xmax) in enumerate(boxes):
        color = _PALETTE[index % len(_PALETTE)]
        label = xml_escape(_xml_text(corpus.class_name(class_id)))
        parts.append(
            f'  <rect x="{xmin}" y="{ymin}" width="{xmax - xmin}" height="{ymax - ymin}" '
            f'fill="none" stroke="{color}" stroke-width="2"/>\n'
        )
        parts.append(
            f'  <text x="{xmin + 2}" y="{ymin + 14}" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>\n'
        )
    parts.append("</svg>\n")
    replace_files([(out_path, ["".join(parts).encode("utf-8")])])
