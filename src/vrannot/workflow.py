"""Configured multi-step corpus transformation runs.

A workflow is an ordered list of typed steps applied to one corpus.  Steps
never renumber master-list ids: names removed by a merge are tombstoned so
every later step (and any protocol file in the same run) keeps addressing
the ids it was written against.  Runs are all-or-nothing; a failing step
raises StepFailedError with its 1-based ordinal and the input corpus is
left untouched.

The file form of a config is a JSON object:

    {
      "input_annotations": "...", "input_classes": "...", "input_predicates": "...",
      "output_annotations": "...", "output_classes": "...", "output_predicates": "...",
      "steps": [{"kind": "<step kind>", ...}, ...]
    }

Relative paths resolve against the directory containing the config file.
Step kinds and their keys are listed in STEPS and documented in
docs/formats.md.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

from . import protocol
from .corpus import (
    _SURROGATE,
    AnnotatedObject,
    AnnotationCorpus,
    CorpusDiff,
    VisualRelationship,
    _load_json,
    check_output,
    diff_corpora,
    load_corpus,
    read_input,
    save_corpus,
)
from .errors import (
    ConfigError,
    DuplicateMasterNameError,
    ImageNotFoundError,
    MalformedRecordError,
    SelfMergeError,
    StepFailedError,
    UnsupportedRewriteError,
    VrannotError,
)

CLASSES = "classes"
PREDICATES = "predicates"


# --------------------------------------------------------------------------
# corpus operations (pure: corpus in, new corpus out)
# --------------------------------------------------------------------------


def update_master_lists(
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


def apply_protocol_file(corpus: AnnotationCorpus, path) -> AnnotationCorpus:
    """Parse and apply one protocol script from disk."""
    blocks = protocol.parse_script(read_input(path))
    new, _ = protocol.validate_and_apply(corpus, blocks)
    return new


def _rewrite_vrs(corpus: AnnotationCorpus, rewrite, images=None) -> AnnotationCorpus:
    """Copy the corpus and replace the VR list of each given image (None: all
    images) with `rewrite` of it, a new list that keeps each unchanged VR."""
    work = corpus.copy()
    for image in work.images if images is None else images:
        work.images[image] = rewrite(work.images[image])
    return work


def _rewrite_class(vrs: list[VisualRelationship], from_id: int, to_id: int) -> list[VisualRelationship]:
    """`vrs` with each object of class `from_id` relabeled `to_id`."""
    def relabel(obj: AnnotatedObject) -> AnnotatedObject:
        return AnnotatedObject(to_id, obj.bbox) if obj.class_id == from_id else obj

    return [VisualRelationship(relabel(vr.subject), vr.predicate_id, relabel(vr.object))
            if from_id in (vr.subject.class_id, vr.object.class_id) else vr for vr in vrs]


def change_class_for_image_set(
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
    return _rewrite_vrs(corpus, lambda vrs: _rewrite_class(vrs, from_id, to_id), image_filenames)


def merge_object_class(
    corpus: AnnotationCorpus, from_name: str, to_name: str
) -> AnnotationCorpus:
    """Rewrite every use of one class to another, globally, and retire the
    donor name.  The donor keeps its master-list slot so no id shifts."""
    if from_name == to_name:
        raise SelfMergeError(from_name)
    from_id = corpus.class_id(from_name)
    to_id = corpus.class_id(to_name)
    work = _rewrite_vrs(corpus, lambda vrs: _rewrite_class(vrs, from_id, to_id))
    work.retired_class_ids.add(from_id)
    return work


def merge_predicate(
    corpus: AnnotationCorpus, from_name: str, to_name: str
) -> AnnotationCorpus:
    if from_name == to_name:
        raise SelfMergeError(from_name)
    from_id = corpus.predicate_id(from_name)
    to_id = corpus.predicate_id(to_name)
    work = _rewrite_vrs(corpus, lambda vrs: [
        vr._replace(predicate_id=to_id) if vr.predicate_id == from_id else vr for vr in vrs])
    work.retired_predicate_ids.add(from_id)
    return work


def _type_ids(vr: VisualRelationship) -> tuple[int, int, int]:
    return (vr.subject.class_id, vr.predicate_id, vr.object.class_id)


def remove_vr_types_global(
    corpus: AnnotationCorpus, types: list[tuple[str, str, str]]
) -> AnnotationCorpus:
    """Delete every VR whose name triple matches any of the given types."""
    doomed = {corpus.vr_type_ids(names) for names in types}
    return _rewrite_vrs(corpus, lambda vrs: [vr for vr in vrs if _type_ids(vr) not in doomed])


def remove_empty_images(corpus: AnnotationCorpus) -> AnnotationCorpus:
    work = corpus.copy()
    work.images = {image: vrs for image, vrs in work.images.items() if vrs}
    return work


def change_vr_type_global(
    corpus: AnnotationCorpus,
    from_type: tuple[str, str, str],
    to_type: tuple[str, str, str],
) -> AnnotationCorpus:
    """Rewrite one VR type to another everywhere, keeping bounding boxes.

    Because boxes stay with their roles, a target type that exchanges the
    two class names (subject becomes object and vice versa) cannot be
    expressed here and is rejected; per-image protocol edits cover that.
    """
    from_ids, (subject, predicate, obj) = corpus.vr_type_ids(from_type), corpus.vr_type_ids(to_type)
    if from_ids[0] != from_ids[2] and (subject, obj) == (from_ids[2], from_ids[0]):
        raise UnsupportedRewriteError(
            f"rewriting {from_type} to {to_type} would swap subject and object roles"
        )
    return _rewrite_vrs(corpus, lambda vrs: [
        VisualRelationship(AnnotatedObject(subject, vr.subject.bbox), predicate,
                           AnnotatedObject(obj, vr.object.bbox))
        if _type_ids(vr) == from_ids else vr for vr in vrs])


def dedup_vrs(corpus: AnnotationCorpus) -> AnnotationCorpus:
    """Drop exact-duplicate VRs per image, keeping the first occurrence."""
    return _rewrite_vrs(corpus, lambda vrs: list(dict.fromkeys(vrs)))


# --------------------------------------------------------------------------
# step table
# --------------------------------------------------------------------------


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string")
    return value


def _path(value, where: str) -> str:
    if "\0" in _string(value, where):  # no filesystem path can hold a NUL
        raise ConfigError(f"{where} must not contain a NUL character")
    return value


def _string_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be an array of strings")
    return value


def _names(value, k: int) -> bool:
    """Whether `value` is an array of exactly `k` strings."""
    return isinstance(value, list) and len(value) == k and all(isinstance(v, str) for v in value)


def _name_pair_list(value, where: str) -> list[tuple[str, str]]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array of [old, new] pairs")
    if not all(_names(entry, 2) for entry in value):
        raise ConfigError(f"{where} entries must be [old, new] string pairs")
    return [tuple(entry) for entry in value]


def _name_triple(value, where: str) -> tuple[str, str, str]:
    if not _names(value, 3):
        raise ConfigError(f"{where} must be a [subject, predicate, object] name triple")
    return tuple(value)


def _name_triple_list(value, where: str) -> list[tuple[str, str, str]]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array of name triples")
    return [_name_triple(t, f"{where}[{i}]") for i, t in enumerate(value)]


_FROM_TO_NAMES = {"from": ("from_name", _string), "to": ("to_name", _string)}

# kind -> (step function, {config key: (parameter, validator)}, optional keys).
# Keys are validated in the order listed.  The function is named, not stored,
# and looked up in this module when the step runs, so a wrapper installed on
# the module attribute sees every call.
STEPS = {
    "update_master_lists": (
        "update_master_lists",
        {
            "target": ("target", _string),
            "renames": ("renames", _name_pair_list),
            "additions": ("additions", _string_list),
        },
        ("renames", "additions"),
    ),
    "apply_protocol_file": ("apply_protocol_file", {"path": ("path", _path)}, ()),
    "change_class_for_image_set": (
        "change_class_for_image_set",
        {"images": ("image_filenames", _string_list), **_FROM_TO_NAMES},
        (),
    ),
    "merge_class": ("merge_object_class", _FROM_TO_NAMES, ()),
    "merge_predicate": ("merge_predicate", _FROM_TO_NAMES, ()),
    "remove_vr_types_global": (
        "remove_vr_types_global",
        {"types": ("types", _name_triple_list)},
        (),
    ),
    "remove_empty_images": ("remove_empty_images", {}, ()),
    "change_vr_type_global": (
        "change_vr_type_global",
        {"from": ("from_type", _name_triple), "to": ("to_type", _name_triple)},
        (),
    ),
    "dedup_vrs": ("dedup_vrs", {}, ()),
}


class Step(NamedTuple("Step", [("kind", str), ("args", dict)])):
    """One configured step: a kind of STEPS and the keyword arguments of its
    function, by default a fresh empty dict."""

    __slots__ = ()

    def __new__(cls, kind: str, args: dict | None = None):
        return super().__new__(cls, kind, {} if args is None else args)


class WorkflowConfig(NamedTuple):
    steps: list[Step]
    input_annotations: Path | None = None
    input_classes: Path | None = None
    input_predicates: Path | None = None
    output_annotations: Path | None = None
    output_classes: Path | None = None
    output_predicates: Path | None = None


_PATH_KEYS = WorkflowConfig._fields[1:]  # every field after steps


class StepReport(NamedTuple):
    ordinal: int
    kind: str
    effect: CorpusDiff


class WorkflowReport(NamedTuple):
    steps: list[StepReport]


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


def run_workflow(
    config: WorkflowConfig, corpus: AnnotationCorpus
) -> tuple[AnnotationCorpus, WorkflowReport]:
    """Run all steps in order; any failure aborts the run via StepFailedError
    and leaves the input corpus unmodified."""
    if not config.steps:
        raise ConfigError("a workflow needs at least one step")
    current = corpus
    reports: list[StepReport] = []
    for ordinal, step in enumerate(config.steps, start=1):
        before = current
        try:
            current = globals()[STEPS[step.kind][0]](current, **step.args)
        except (VrannotError, OSError) as exc:
            raise StepFailedError(ordinal, step.kind, exc) from exc
        reports.append(StepReport(ordinal, step.kind, diff_corpora(before, current)))
    return current, WorkflowReport(reports)


def run_workflow_files(config: WorkflowConfig) -> WorkflowReport:
    """Load the input corpus, run the steps, write canonical outputs."""
    for name in _PATH_KEYS:
        if getattr(config, name) is None:
            raise ConfigError(f"config key {name!r} is required for a file-based run")
    for name in _PATH_KEYS[3:]:  # each output is refused before any input is read
        check_output(getattr(config, name))
    corpus = load_corpus(config.input_annotations, config.input_classes, config.input_predicates)
    result, report = run_workflow(config, corpus)
    save_corpus(result, config.output_annotations, config.output_classes, config.output_predicates)
    return report


# --------------------------------------------------------------------------
# config file loading
# --------------------------------------------------------------------------


def _parse_step(entry, ordinal: int, base_dir: Path) -> Step:
    where = f"steps[{ordinal}]"
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"{where} must be an object with a 'kind' key")
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in STEPS:
        raise ConfigError(f"{where}: unknown step kind {kind!r}")
    _, spec, optional = STEPS[kind]
    keys = set(entry) - {"kind"}
    required = set(spec).difference(optional)
    if not required <= keys <= set(spec):
        expected = "{" + (", ".join(sorted(required)) or "none") + "}"
        if optional:
            expected += " plus optional {" + ", ".join(sorted(optional)) + "}"
        raise ConfigError(f"{where} ({kind}): expected keys {expected}, got {sorted(keys)}")
    args = {
        param: check(entry[key], f"{where}.{key}")
        for key, (param, check) in spec.items()
        if key in entry
    }
    if "path" in args:  # script paths resolve like the config's own paths
        args["path"] = str(base_dir / args["path"])
    return Step(kind, args)


def load_workflow_config(path) -> WorkflowConfig:
    """Read a config file; relative paths resolve against the file's directory."""
    try:
        raw = _load_json(path)
    except MalformedRecordError as exc:
        raise ConfigError(str(exc)) from None
    if _SURROGATE.search(json.dumps(raw, ensure_ascii=False)):  # from a \ud800 escape
        raise ConfigError(f"{path}: a string is not valid Unicode")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    missing = [k for k in (*_PATH_KEYS, "steps") if k not in raw]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    unknown = set(raw) - {*_PATH_KEYS, "steps"}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(map(repr, sorted(unknown)))}")

    base_dir = Path(path).parent
    resolved = {key: base_dir / _path(raw[key], key) for key in _PATH_KEYS}
    files = [os.path.realpath(resolved[key]) for key in _PATH_KEYS]  # inputs, then outputs, by side
    for side, name in enumerate(("annotations", "classes", "predicates")):
        if files[side] == files[side + 3]:
            raise ConfigError(f"input and output {name} paths must differ")
    for index in range(3, 6):  # no output is the file of an input or of another output
        if files[index] in files[:index]:
            other = _PATH_KEYS[files.index(files[index])]
            raise ConfigError(f"{_PATH_KEYS[index]} and {other} paths must differ")
    if not isinstance(raw["steps"], list) or not raw["steps"]:
        raise ConfigError("steps must be a non-empty array")
    steps = [_parse_step(entry, i, base_dir) for i, entry in enumerate(raw["steps"])]
    outputs = dict(zip(files[3:], _PATH_KEYS[3:]))
    scripts = [(f"steps[{i}].path", step.args["path"])
               for i, step in enumerate(steps) if "path" in step.args]
    for name, other in [("CONFIG", path), *scripts]:  # nor the config's own file or a step's script
        output = outputs.get(os.path.realpath(other))
        if output:
            raise ConfigError(f"{output} and {name} paths must differ")
    return WorkflowConfig(steps=steps, **resolved)
