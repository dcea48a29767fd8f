"""Seeded inputs for the benchmark workloads and the outputs they must produce.

Everything here is plain Python over id-level tuples and never imports
vrannot, so the expectations are computed independently of the code under
test.  A relationship is `(subject_id, subject_box, predicate_id, object_id,
object_box)`; a box is `(ymin, ymax, xmin, xmax)`.

The same seed gives the same files byte for byte.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

N_CLASSES = 60
N_PREDICATES = 30

_ADJECTIVES = (
    "red", "tall", "small", "old", "wet", "shiny", "round", "flat", "dark", "pale", "soft", "bent",
)
_NOUNS = (
    "dog", "chair", "lamp", "tree", "cup", "sign", "bag", "wall", "bike", "bird", "boat", "kite",
)
_VERBS = (
    "touch", "hold", "face", "cover", "follow", "push", "carry", "guard", "watch", "lean", "pull",
    "hang",
)
_PREPS = ("near", "over", "behind", "against")
# Filename suffixes for the ~1% of images that exercise escaping and the
# non-ASCII path of the canonical writer; none may contain `;`.
_ODD_SUFFIXES = ("_café", "_東京", '_"quoted"', "_back\\slash", "_it's", "_naïve façade")

ADDED_CLASS = "fresh gadget"


def _box(rng: random.Random) -> tuple[int, int, int, int]:
    ymin = rng.randrange(0, 400)
    xmin = rng.randrange(0, 400)
    return (ymin, ymin + rng.randrange(8, 120), xmin, xmin + rng.randrange(8, 120))


def _degenerate_box(rng: random.Random) -> tuple[int, int, int, int]:
    ymin, ymax, xmin, xmax = _box(rng)
    pick = rng.randrange(3)
    if pick == 0:
        return (ymin, ymin, xmin, xmax)  # zero height
    if pick == 1:
        return (ymin, ymax, xmax, xmin)  # inverted width
    return (-rng.randrange(1, 20), ymax, xmin, xmax)  # negative coordinate


def well_formed(box) -> bool:
    ymin, ymax, xmin, xmax = box
    return 0 <= ymin < ymax and 0 <= xmin < xmax


def _few(rng: random.Random, population, share: float) -> list:
    """A seeded sample of about `share` of the population, never empty."""
    population = list(population)
    return rng.sample(population, min(len(population), max(1, round(len(population) * share))))


@dataclass
class Corpus:
    images: dict[str, list[tuple]]
    classes: list[str]
    predicates: list[str]
    retired_classes: set[int] = field(default_factory=set)
    retired_predicates: set[int] = field(default_factory=set)

    def copy(self) -> Corpus:
        return Corpus(
            {name: list(vrs) for name, vrs in self.images.items()},
            list(self.classes),
            list(self.predicates),
            set(self.retired_classes),
            set(self.retired_predicates),
        )

    @property
    def vr_count(self) -> int:
        return sum(len(vrs) for vrs in self.images.values())

    def live_classes(self) -> list[int]:
        return [c for c in range(len(self.classes)) if c not in self.retired_classes]

    def live_predicates(self) -> list[int]:
        return [p for p in range(len(self.predicates)) if p not in self.retired_predicates]

    def type_names(self, vr) -> tuple[str, str, str]:
        return (self.classes[vr[0]], self.predicates[vr[2]], self.classes[vr[3]])

    def write(self, directory: Path, stem: str = "") -> tuple[str, str, str]:
        """Write the three corpus files; returns their names relative to `directory`."""
        names = (f"{stem}annotations.json", f"{stem}classes.json", f"{stem}predicates.json")
        payloads = (
            {
                image: [
                    {
                        "predicate": p,
                        "subject": {"category": s, "bbox": list(sb)},
                        "object": {"category": o, "bbox": list(ob)},
                    }
                    for s, sb, p, o, ob in vrs
                ]
                for image, vrs in self.images.items()
            },
            self.classes,
            self.predicates,
        )
        for name, payload in zip(names, payloads):
            (directory / name).write_text(
                json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
                encoding="utf-8",
            )
        return names


def read_annotations(path: Path) -> dict[str, list[tuple]]:
    """Parse an annotations file back to id-level tuples."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    return {
        image: [
            (
                r["subject"]["category"],
                tuple(r["subject"]["bbox"]),
                r["predicate"],
                r["object"]["category"],
                tuple(r["object"]["bbox"]),
            )
            for r in records
        ]
        for image, records in raw.items()
    }


def make_corpus(rng: random.Random, n_images: int) -> Corpus:
    """60 classes, 30 predicates, 6 to 10 VRs per image (8 on average).

    Subjects and objects are drawn from a small per-image object pool, so
    objects are shared between VRs and chains form for the transitive rule.
    Predicates follow a skewed distribution, as in real corpora.  A few
    percent of images get an exact-duplicate VR or a degenerate box, about
    1% are empty and about 1% have odd filenames.
    """
    classes = rng.sample([f"{a} {n}" for a in _ADJECTIVES for n in _NOUNS], N_CLASSES)
    predicates = rng.sample(
        list(_VERBS) + [f"{v} {p}" for v in _VERBS for p in _PREPS], N_PREDICATES
    )
    weights = [1.0 / (rank + 3) for rank in range(N_PREDICATES)]
    indices = range(n_images)
    odd = {i: _ODD_SUFFIXES[k % len(_ODD_SUFFIXES)] for k, i in enumerate(_few(rng, indices, 0.01))}
    empty = set(_few(rng, indices, 0.01))
    duplicated = set(_few(rng, indices, 0.03))
    degenerate = set(_few(rng, indices, 0.03))

    images: dict[str, list[tuple]] = {}
    for i in indices:
        filename = f"img_{i:06d}{odd.get(i, '')}.jpg"
        if i in empty:
            images[filename] = []
            continue
        pool = [(rng.randrange(N_CLASSES), _box(rng)) for _ in range(rng.randint(4, 12))]
        if i in degenerate:
            pool[0] = (pool[0][0], _degenerate_box(rng))
        vrs = []
        for _ in range(rng.randint(6, 10)):
            (s, sb), (o, ob) = rng.sample(pool, 2)
            vrs.append((s, sb, rng.choices(range(N_PREDICATES), weights)[0], o, ob))
        if i in duplicated:
            j, k = sorted(rng.sample(range(len(vrs)), 2))
            vrs[k] = vrs[j]
        images[filename] = vrs
    return Corpus(images, classes, predicates)


# --------------------------------------------------------------------------
# inspect: read-only commands
# --------------------------------------------------------------------------


def _round_half_up(numerator: int, denominator: int) -> float:
    exact = Decimal(numerator) / Decimal(denominator)
    return float(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def expected_stats(corpus: Corpus) -> dict:
    return {
        "object_classes": len(corpus.classes),
        "predicates": len(corpus.predicates),
        "images": len(corpus.images),
        "relationships": corpus.vr_count,
        "mean_relationships_per_image": _round_half_up(corpus.vr_count, len(corpus.images)),
        "images_with_duplicate_relationships": sum(
            1 for vrs in corpus.images.values() if len(set(vrs)) < len(vrs)
        ),
    }


def expected_query(corpus: Corpus, subject: int | None) -> dict:
    """Structured `query --pattern` output for `<subject>, *, *` or `*, *, *`."""
    images = []
    seen = {"predicate": set(), "object": set()}
    if subject is None:
        seen["subject"] = set()
    for image in sorted(corpus.images):
        hits = [vr for vr in corpus.images[image] if subject is None or vr[0] == subject]
        if hits:
            images.append(image)
        for vr in hits:
            seen["predicate"].add(corpus.predicates[vr[2]])
            seen["object"].add(corpus.classes[vr[3]])
            if subject is None:
                seen["subject"].add(corpus.classes[vr[0]])
    return {"images": images, "bindings": {k: sorted(v) for k, v in seen.items()}}


def expected_count(corpus: Corpus, low: int) -> dict:
    return {"images": sorted(i for i, vrs in corpus.images.items() if len(vrs) >= low)}


# Lint rules whose findings the generator can predict exactly.
CHECKED_LINT_RULES = ("ExactDuplicateVR", "DegenerateBbox", "EmptyImageEntry")


def expected_lint(corpus: Corpus) -> list[tuple[str, str, str]]:
    """Sorted (image, rule, detail) findings of the rules in CHECKED_LINT_RULES."""
    found = []
    for image, vrs in corpus.images.items():
        if not vrs:
            found.append((image, "EmptyImageEntry", "no relationships"))
            continue
        positions: dict[tuple, list[int]] = {}
        for index, vr in enumerate(vrs):
            positions.setdefault(vr, []).append(index)
        for vr, where in positions.items():
            s, p, o = corpus.type_names(vr)
            for k, i in enumerate(where):
                for j in where[k + 1 :]:
                    detail = f"vr[{i}] == vr[{j}]: ({s}, {p}, {o})"
                    found.append((image, "ExactDuplicateVR", detail))
        objects = {(vr[0], vr[1]) for vr in vrs} | {(vr[3], vr[4]) for vr in vrs}
        for class_id, box in objects:
            if not well_formed(box):
                detail = f"class '{corpus.classes[class_id]}' box {list(box)}"
                found.append((image, "DegenerateBbox", detail))
    return sorted(found)


# --------------------------------------------------------------------------
# curate: a workflow using all nine step kinds, simulated step by step
# --------------------------------------------------------------------------


def _resolved(corpus: Corpus, image: str) -> Counter:
    return Counter(
        (corpus.classes[s], sb, corpus.predicates[p], corpus.classes[o], ob)
        for s, sb, p, o, ob in corpus.images[image]
    )


def diff_deltas(before: Corpus, after: Corpus) -> list[tuple]:
    """Name-level value diff: (image, status, changed, added, removed) per
    touched image; removals and additions of an image that pair up count
    as changes."""
    same_names = before.classes == after.classes and before.predicates == after.predicates
    deltas = []
    for image in sorted(set(before.images) | set(after.images)):
        if image not in after.images:
            deltas.append((image, "removed", 0, 0, 0))
        elif image not in before.images:
            deltas.append((image, "added", 0, 0, 0))
        elif not (same_names and before.images[image] == after.images[image]):
            old, new = _resolved(before, image), _resolved(after, image)
            gone, came = sum((old - new).values()), sum((new - old).values())
            if gone or came:
                paired = min(gone, came)
                deltas.append((image, "modified", paired, came - paired, gone - paired))
    return deltas


def _totals(deltas) -> tuple[int, int, int, int, int, int]:
    """(touched, changed, added, removed, images_added, images_removed)."""
    return (
        len(deltas),
        sum(d[2] for d in deltas),
        sum(d[3] for d in deltas),
        sum(d[4] for d in deltas),
        sum(1 for d in deltas if d[1] == "added"),
        sum(1 for d in deltas if d[1] == "removed"),
    )


def diff_text(before: Corpus, after: Corpus) -> str:
    """Expected text output of `vrannot diff before after`."""
    deltas = diff_deltas(before, after)
    lines = [
        f"modified {d[0]} changed={d[2]} added={d[3]} removed={d[4]}"
        if d[1] == "modified"
        else f"{d[1]} {d[0]}"
        for d in deltas
    ]
    touched, changed, added, removed, images_added, images_removed = _totals(deltas)
    lines.append(
        f"total: images_touched={touched} changed={changed} added={added} "
        f"removed={removed} images_added={images_added} images_removed={images_removed}"
    )
    return "\n".join(lines) + "\n"


_SCRIPT_KINDS = ("cvrsoc", "cvrsbb", "cvrooc", "cvrobb", "cvrpxx", "rvrxxx", "avrxxx")


def _box_literal(box) -> str:
    return "[{},{},{},{}]".format(*box)


def _script(rng: random.Random, corpus: Corpus, images: list[str], use: list[int]) -> str:
    """Generate a protocol script over `images` against the current state of
    `corpus`, applying each line to it as it is written.  Classes in `use`
    are preferred as replacement and added names."""
    lines = []
    classes = corpus.live_classes()
    predicates = corpus.live_predicates()

    def some_class() -> int:
        return rng.choice(use) if use and rng.random() < 0.5 else rng.choice(classes)

    for image in images:
        vrs = corpus.images[image]
        if rng.random() < 0.1:
            lines.append(f"imname; {image}; rimxxx")
            del corpus.images[image]
            continue
        lines.append(f"imname; {image}")
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(_SCRIPT_KINDS)
            if kind == "avrxxx" or not vrs:
                vr = (some_class(), _box(rng), rng.choice(predicates), some_class(), _box(rng))
                s, p, o = corpus.type_names(vr)
                sb, ob = _box_literal(vr[1]), _box_literal(vr[4])
                lines.append(f"avrxxx; {s}; {sb}; {p}; {o}; {ob}")
                vrs.append(vr)
                continue
            index = rng.randrange(len(vrs))
            s, sb, p, o, ob = vrs[index]
            head = "{}; {}; ({}, {}, {})".format(kind, index, *corpus.type_names(vrs[index]))
            if kind == "rvrxxx":
                lines.append(head + ";")
                del vrs[index]
                continue
            if kind == "cvrsoc":
                s = some_class()
                payload = corpus.classes[s]
            elif kind == "cvrooc":
                o = some_class()
                payload = corpus.classes[o]
            elif kind == "cvrsbb":
                sb = _box(rng)
                payload = _box_literal(sb)
            elif kind == "cvrobb":
                ob = _box(rng)
                payload = _box_literal(ob)
            else:
                p = rng.choice(predicates)
                payload = corpus.predicates[p]
            lines.append(f"{head}; {payload}")
            vrs[index] = (s, sb, p, o, ob)
    return "\n".join(lines) + "\n"


def _recolor(corpus: Corpus, images, old: int, new: int) -> None:
    """Replace class `old` by `new` in subject and object roles."""
    for image in images:
        corpus.images[image] = [
            (new if s == old else s, sb, p, new if o == old else o, ob)
            for s, sb, p, o, ob in corpus.images[image]
        ]


def _repredicate(corpus: Corpus, match, new: int) -> None:
    """Give predicate `new` to every VR whose ids satisfy `match(s, p, o)`."""
    for image, vrs in corpus.images.items():
        corpus.images[image] = [
            (s, sb, new, o, ob) if match(s, p, o) else (s, sb, p, o, ob)
            for s, sb, p, o, ob in vrs
        ]


def _images_using(corpus: Corpus, class_id: int) -> list[str]:
    return sorted(
        image for image, vrs in corpus.images.items() if any(class_id in (v[0], v[3]) for v in vrs)
    )


@dataclass
class Curation:
    """A generated workflow: its config, the expected results, and the names
    the output checks look for."""

    config: dict
    scripts: dict[str, str]
    states: list[Corpus]  # input state, then the state after every step
    merged_class: str
    merged_predicate: str
    removed_types: list[tuple[str, str, str]]
    rewritten_type: tuple[str, str, str]
    renamed: tuple[str, str]

    @property
    def workflow_stdout(self) -> str:
        lines = []
        for ordinal, step in enumerate(self.config["steps"], start=1):
            t = _totals(diff_deltas(self.states[ordinal - 1], self.states[ordinal]))
            lines.append(
                f"step {ordinal} {step['kind']}: touched={t[0]} changed={t[1]} added={t[2]} "
                f"removed={t[3]} images_removed={t[5]}"
            )
        lines.append(f"done: {len(self.config['steps'])} steps")
        return "\n".join(lines) + "\n"


def make_curation(rng: random.Random, corpus: Corpus, files: dict[str, str]) -> Curation:
    """Ten steps covering all nine kinds.  Every script, image set and name
    is drawn from the simulated state at the step where it runs, so a rename
    before a script is reflected in the script's reference tuples."""
    state = corpus.copy()
    states = [corpus]
    steps: list[dict] = []
    scripts: dict[str, str] = {}

    def step(entry: dict) -> None:
        steps.append(entry)
        states.append(state.copy())

    def types_present() -> list[tuple[int, int, int]]:
        return sorted({(v[0], v[2], v[3]) for vrs in state.images.values() for v in vrs})

    def names(type_ids) -> tuple[str, str, str]:
        s, p, o = type_ids
        return (state.classes[s], state.predicates[p], state.classes[o])

    scripts["proto_a.txt"] = _script(rng, state, _few(rng, sorted(state.images), 0.01), [])
    step({"kind": "apply_protocol_file", "path": "proto_a.txt"})

    source, target = rng.sample(state.live_classes(), 2)
    holders = _images_using(state, source)
    scoped = _few(rng, holders, 0.01 * len(state.images) / max(1, len(holders)))
    _recolor(state, scoped, source, target)
    step({
        "kind": "change_class_for_image_set", "images": scoped,
        "from": state.classes[source], "to": state.classes[target],
    })

    renamed = rng.choice(state.live_classes())
    old_name = state.classes[renamed]
    state.classes[renamed] = new_name = old_name + " v2"
    state.classes.append(ADDED_CLASS)
    step({
        "kind": "update_master_lists", "target": "classes",
        "renames": [[old_name, new_name]], "additions": [ADDED_CLASS],
    })

    added = len(state.classes) - 1
    users = _images_using(state, renamed)
    picked = _few(rng, users, 0.005 * len(state.images) / max(1, len(users)))
    picked += _few(rng, sorted(set(state.images) - set(picked)), 0.005)
    scripts["proto_b.txt"] = _script(rng, state, picked, [renamed, added])
    step({"kind": "apply_protocol_file", "path": "proto_b.txt"})

    donor, heir = rng.sample([c for c in state.live_classes() if c not in (renamed, added)], 2)
    _recolor(state, state.images, donor, heir)
    state.retired_classes.add(donor)
    step({"kind": "merge_class", "from": state.classes[donor], "to": state.classes[heir]})

    p_donor, p_heir = rng.sample(state.live_predicates(), 2)
    _repredicate(state, lambda s, p, o: p == p_donor, p_heir)
    state.retired_predicates.add(p_donor)
    step({
        "kind": "merge_predicate",
        "from": state.predicates[p_donor], "to": state.predicates[p_heir],
    })

    doomed = rng.sample(types_present(), 3)
    for image, vrs in state.images.items():
        state.images[image] = [v for v in vrs if (v[0], v[2], v[3]) not in doomed]
    step({"kind": "remove_vr_types_global", "types": [list(names(t)) for t in doomed]})

    s, p, o = rewritten = rng.choice(types_present())
    p_new = rng.choice([q for q in state.live_predicates() if q != p and (s, q, o) not in doomed])
    _repredicate(state, lambda *ids: ids == rewritten, p_new)
    step({
        "kind": "change_vr_type_global",
        "from": list(names(rewritten)), "to": list(names((s, p_new, o))),
    })

    for image, vrs in state.images.items():
        state.images[image] = list(dict.fromkeys(vrs))
    step({"kind": "dedup_vrs"})

    state.images = {image: vrs for image, vrs in state.images.items() if vrs}
    step({"kind": "remove_empty_images"})

    return Curation(
        config={**files, "steps": steps},
        scripts=scripts,
        states=states,
        merged_class=corpus.classes[donor],
        merged_predicate=corpus.predicates[p_donor],
        removed_types=[names(t) for t in doomed],
        rewritten_type=names(rewritten),
        renamed=(old_name, new_name),
    )


# --------------------------------------------------------------------------
# graph: axiom file and the round-trip oracle
# --------------------------------------------------------------------------


def _camel(name: str, upper: bool) -> str:
    parts = name.split()
    head = parts[0].capitalize() if upper else parts[0]
    return head + "".join(p.capitalize() for p in parts[1:])


@dataclass
class Axioms:
    text: str
    symmetric: set[int]
    inverse: dict[int, int]
    transitive: set[int]


def make_axioms(corpus: Corpus) -> Axioms:
    """Every rule family on a minority of the predicates (10 of 30).

    Rules sit on fixed predicate positions spread over the frequency ranks,
    so a seed changes names but not how much inference there is to do.
    Symmetric, inverse and transitive rules sit on disjoint predicates that
    are all designated, so their mirrors come back on extraction.  Subprop,
    eqprop, subclass, domain and range rules point at terms no corpus name
    designates: they grow the graph but leave the extracted VRs alone.
    """
    class_terms = [_camel(c, True) for c in corpus.classes]
    prop_terms = [_camel(p, False) for p in corpus.predicates]
    symmetric = {2, 17}
    inverse = {5: 20, 20: 5}
    transitive = {8, 23}
    lines = [f"class {t}" for t in class_terms]
    lines += ["class Thing", "class Agent", "class Patient"]
    lines += [f"prop {t}" for t in prop_terms]
    lines += ["prop relatedTo", "prop linkedWith"]
    lines += [f"symmetric {prop_terms[p]}" for p in sorted(symmetric)]
    lines.append(f"inverse {prop_terms[5]} {prop_terms[20]}")
    lines += [f"transitive {prop_terms[p]}" for p in sorted(transitive)]
    lines += [f"subprop {prop_terms[p]} relatedTo" for p in (11, 26)]
    lines.append(f"eqprop {prop_terms[14]} linkedWith")
    lines.append(f"domain {prop_terms[29]} Agent")
    lines.append(f"range {prop_terms[29]} Patient")
    lines += [f"subclass {class_terms[c]} Thing" for c in range(0, len(class_terms), 6)]
    lines += [f"annclass {name} {term}" for name, term in zip(corpus.classes, class_terms)]
    lines += [f"annprop {name} {term}" for name, term in zip(corpus.predicates, prop_terms)]
    return Axioms("\n".join(lines) + "\n", symmetric, inverse, transitive)


def lowered_triples(corpus: Corpus) -> int:
    """Per image: type and filename, six triples per distinct (class, box)
    object, one per distinct (subject object, predicate, object object)."""
    total = 0
    for vrs in corpus.images.values():
        objects = {(v[0], v[1]) for v in vrs} | {(v[3], v[4]) for v in vrs}
        total += 2 + 6 * len(objects) + len(set(vrs))
    return total


def extracted_vrs(corpus: Corpus, axioms: Axioms) -> dict[str, set[tuple]]:
    """Input VRs plus their symmetric, inverse and transitive mirrors, per image."""
    out = {}
    for image, vrs in corpus.images.items():
        edges = {((s, sb), p, (o, ob)) for s, sb, p, o, ob in vrs}
        while True:
            new = set()
            for a, p, b in edges:
                if p in axioms.symmetric:
                    new.add((b, p, a))
                if p in axioms.inverse:
                    new.add((b, axioms.inverse[p], a))
                if p in axioms.transitive:
                    new.update((a, p, d) for c, q, d in edges if q == p and c == b)
            if new <= edges:
                break
            edges |= new
        out[image] = {(a[0], a[1], p, b[0], b[1]) for a, p, b in edges}
    return out
