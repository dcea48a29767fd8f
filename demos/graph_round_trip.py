"""Round-trip annotations through a triple graph and gain inferred ones.

Lowers a two-image corpus into triples under a schema whose axioms declare
`ride` and `riddenBy` as inverses, materializes the inferences, and extracts
the graph back.  The extracted corpus contains every original relationship
plus one `ridden by` counterpart per `ride`.
"""

from pathlib import Path

from vrannot import (
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    VisualRelationship,
    dump_store,
    extract_annotations,
    load_schema,
    lower_annotations,
    materialize,
)

OUT_DIR = Path(__file__).parent / "out" / "graph"
CLASSES = ["person", "horse", "hat"]
PREDICATES = ["ride", "wear", "ridden by"]

AXIOMS = """\
# terms
class Person
class Horse
class Hat
class Animal
prop ride
prop riddenBy
prop wear

# axioms
subclass Horse Animal
inverse ride riddenBy

# designations tying corpus names to terms
annclass person Person
annclass horse Horse
annclass hat Hat
annprop ride ride
annprop wear wear
annprop ridden by riddenBy
"""


def vr(s_class, s_box, predicate, o_class, o_box):
    return VisualRelationship(
        AnnotatedObject(CLASSES.index(s_class), BoundingBox(*s_box)),
        PREDICATES.index(predicate),
        AnnotatedObject(CLASSES.index(o_class), BoundingBox(*o_box)),
    )


corpus = AnnotationCorpus(
    images={
        "stable.jpg": [
            vr("person", (20, 180, 60, 140), "ride", "horse", (90, 330, 20, 260)),
            vr("person", (20, 180, 60, 140), "wear", "hat", (10, 45, 80, 130)),
        ],
        "farm.jpg": [
            vr("person", (30, 170, 200, 280), "ride", "horse", (100, 340, 150, 390)),
        ],
    },
    object_class_names=list(CLASSES),
    predicate_names=list(PREDICATES),
)

OUT_DIR.mkdir(parents=True, exist_ok=True)
axiom_path = OUT_DIR / "axioms.txt"
axiom_path.write_text(AXIOMS, encoding="utf-8")
schema = load_schema(axiom_path)

lowered = lower_annotations(corpus, schema)
closed = materialize(lowered, schema)
print(f"lowered triples: {len(lowered)}, after materialization: {len(closed)}")

extracted = extract_annotations(closed, schema, CLASSES, PREDICATES)
print(f"relationships: {corpus.vr_count} in, {extracted.vr_count} out\n")

for image in sorted(extracted.images):
    for rel in extracted.images[image]:
        s, p, o = corpus.vr_type_names(rel)
        print(f"  {image}: ({s}, {p}, {o})")

print("\ninferred triples:")
for line in dump_store(closed):  # UTF-8 bytes, each ending in a line break
    text = line.decode("utf-8").rstrip("\n")
    if "riddenBy" in text or "Animal" in text:
        print(f"  {text}")
