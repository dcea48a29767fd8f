"""Core data model for visual relationship annotation corpora.

A corpus maps image filenames to ordered lists of visual relationships.
Object classes and predicates are referenced by integer id; the id is the
position of the name in one of two master lists carried with the corpus.

The three value types -- `BoundingBox`, `AnnotatedObject` and
`VisualRelationship` -- are named tuples: immutable, unpackable, hashed,
compared and ordered field by field like the plain tuple of their fields
(which they also compare equal to).  Edit one with `_replace`.

On disk a corpus is three UTF-8 JSON files: the annotations object
(filename -> list of relationship records) and the two master lists (plain
string arrays).  `save_corpus` writes a canonical form -- image keys sorted,
object keys sorted, fixed indentation -- so equal corpora always serialize
to identical bytes.
"""

from __future__ import annotations

import errno
import gc
import io
import json
import os
import re
import stat
from collections import Counter
from contextlib import contextmanager
from json.decoder import scanstring
from json.encoder import encode_basestring
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

from .errors import (
    DuplicateMasterNameError,
    FileMissingError,
    IdOutOfRangeError,
    MalformedRecordError,
    UnknownNameError,
    VrannotError,
)

_SURROGATE = re.compile(r"[\ud800-\udfff]")  # a `str` has a UTF-8 form unless it holds one
# The lexical space of xsd:integer, in ASCII digits: every integer text of every input
# (`int()` alone also takes `1_0`, ` 7` and `٣`).  Each caller adds its own sign policy.
_INTEGER = re.compile(r"[+-]?[0-9]+").fullmatch


def _integer(text: str) -> int | None:
    """The value of an `_INTEGER` text; None for other text or past `int()`'s digit limit."""
    try:
        return int(text) if _INTEGER(text) else None
    except ValueError:
        return None


# Named here, where the CLI parser reads them without importing `analyze` or `kg`.
METRICS = ("vrs_per_image", "distinct_classes_per_image", "distinct_predicates_per_image")
DEFAULT_NAMESPACE = "http://example.org/vrannot#"
_first, _second, _third = itemgetter(0), itemgetter(1), itemgetter(2)


class BoundingBox(NamedTuple):
    """Pixel box stored in [ymin, ymax, xmin, xmax] order."""

    ymin: int
    ymax: int
    xmin: int
    xmax: int

    @property
    def well_formed(self) -> bool:
        """False for degenerate boxes: empty extent or negative coordinates."""
        return 0 <= self.ymin < self.ymax and 0 <= self.xmin < self.xmax


class AnnotatedObject(NamedTuple):
    """A localized object: class id plus bounding box."""

    class_id: int
    bbox: BoundingBox


class VisualRelationship(NamedTuple):
    """One (subject, predicate, object) annotation."""

    subject: AnnotatedObject
    predicate_id: int
    object: AnnotatedObject


class AnnotationCorpus(SimpleNamespace):
    """In-memory corpus: per-image relationship lists plus the master lists.

    `retired_class_ids` / `retired_predicate_ids` mark names tombstoned by a
    merge during the current run.  Retired ids keep their master-list slot
    (so ids never shift mid-run) but their names no longer resolve.  The sets
    are runtime state only; they are not serialized.  Corpora compare equal
    field by field.
    """

    def __init__(self, images=None, object_class_names=None, predicate_names=None,
                 retired_class_ids=None, retired_predicate_ids=None):
        self.images: dict[str, list[VisualRelationship]] = {} if images is None else images
        self.object_class_names: list[str] = [] if object_class_names is None else object_class_names
        self.predicate_names: list[str] = [] if predicate_names is None else predicate_names
        self.retired_class_ids: set[int] = set() if retired_class_ids is None else retired_class_ids
        self.retired_predicate_ids: set[int] = (
            set() if retired_predicate_ids is None else retired_predicate_ids)

    @property
    def vr_count(self) -> int:
        return sum(len(vrs) for vrs in self.images.values())

    def copy(self) -> AnnotationCorpus:
        """Independent corpus: new lists and sets, sharing only the immutable VR values."""
        return _rewritten(self, list)

    def class_name(self, class_id: int) -> str:
        return self.object_class_names[class_id]

    def predicate_name(self, predicate_id: int) -> str:
        return self.predicate_names[predicate_id]

    def class_id(self, name: str) -> int:
        """Resolve a live object-class name; retired names do not resolve."""
        return _live_id(self.object_class_names, self.retired_class_ids, name, "object class")

    def predicate_id(self, name: str) -> int:
        """Resolve a live predicate name; retired names do not resolve."""
        return _live_id(self.predicate_names, self.retired_predicate_ids, name, "predicate")

    def vr_type_names(self, vr: VisualRelationship) -> tuple[str, str, str]:
        """The (subject class, predicate, object class) name triple of a VR."""
        return (
            self.object_class_names[vr.subject.class_id],
            self.predicate_names[vr.predicate_id],
            self.object_class_names[vr.object.class_id],
        )

    def vr_type_ids(self, names) -> tuple:
        """The id triple of a (subject class, predicate, object class) name triple,
        the inverse of `vr_type_names`; a `None` name (a query wildcard) stays `None`."""
        pairs = tuple(zip((self.class_id, self.predicate_id, self.class_id), names, strict=True))
        return tuple(None if name is None else resolve(name) for resolve, name in pairs)

    def validate(self) -> None:
        """Re-check the corpus invariants; raises on the first violation.

        These are the loader's checks, order and errors, run on the records a
        save writes: an id or coordinate must be an exact `int` (not a `bool`),
        a key or name must have a UTF-8 form.  So a corpus that validates saves
        to files that load back equal, in which the value-equal participants of
        one image are a single object.  What no file can hold is refused as
        MalformedRecordError too: an image key that is not a `str` (at
        `images`), and an entry that does not unpack as `(class, box),
        predicate, (class, box)` (at `image[index]`)."""
        classes = _master_list(self.object_class_names, "object_class_names", "object class")
        predicates = _master_list(self.predicate_names, "predicate_names", "predicate")
        for image, records in self.images.items():
            if not isinstance(image, str):
                raise MalformedRecordError("images", f"image key {image!r} is not a string")
            if isinstance(records, list):
                _check_utf8(image, "images", "image key")  # the loader's first check, before the entry
                records = [_record(image, index, vr) for index, vr in enumerate(records)]
            _image_vrs(image, records, len(classes), len(predicates), "images")


def _rewritten(corpus: AnnotationCorpus, rewrite, images=None) -> AnnotationCorpus:
    """An independent corpus whose VR list of each chosen image (None: every image) is
    `rewrite` of `corpus`'s, a new list; every other list and set is a copy."""
    chosen = corpus.images if images is None else set(images)
    lists = {name: rewrite(vrs) if name in chosen else list(vrs) for name, vrs in corpus.images.items()}
    return AnnotationCorpus(lists, list(corpus.object_class_names), list(corpus.predicate_names),
                            set(corpus.retired_class_ids), set(corpus.retired_predicate_ids))


def _record(image: str, index: int, vr) -> dict:
    """The record that a save writes for the VR at `image[index]`."""
    try:
        (s, s_box), p, (o, o_box) = vr
        return {"predicate": p, "subject": {"category": s, "bbox": list(s_box)},
                "object": {"category": o, "bbox": list(o_box)}}
    except (TypeError, ValueError):
        raise MalformedRecordError(f"{image}[{index}]", "expected a VR: (class, box), predicate, "
                                   "(class, box)") from None


def _live_id(names: list[str], retired: set[int], name: str, what: str) -> int:
    try:
        index = names.index(name)
    except ValueError:
        raise UnknownNameError(name, what) from None
    if index in retired:
        raise UnknownNameError(name, f"{what} (retired)")
    return index


# Quotes that may wrap a name in a script or a query pattern.
_OPEN_QUOTES = "`'\"‘“"
_CLOSE_QUOTES = "'\"’”"


def strip_quotes(name: str) -> str:
    if len(name) >= 2 and name[0] in _OPEN_QUOTES and name[-1] in _CLOSE_QUOTES:
        return name[1:-1].strip()
    return name


class CorpusStats(NamedTuple):
    """Headline corpus counts.

    `mean_vrs_per_image` is rounded half-up to 2 decimals for display; the
    exact value is vr_count / image_count over the integer fields.
    """

    object_class_count: int
    predicate_count: int
    image_count: int
    vr_count: int
    mean_vrs_per_image: float
    images_with_exact_duplicate_vrs: int


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------


@contextmanager
def gc_paused():
    """Pause the cyclic collector while a large acyclic structure is built:
    its collections would only rescan the new objects, again and again.
    Usable as a decorator; the previous state is restored on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_json(path, stream=None):
    """The JSON value of the file at `path`, decoded strictly; read from `stream`,
    that file already open as text, when one is given."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        out = dict(pairs)
        if len(out) != len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise MalformedRecordError(str(path), f"duplicate key {key!r}")
                seen.add(key)
        return out
    if stream is None:
        stream = io.TextIOWrapper(_open_input(path), encoding="utf-8")
    try:
        with stream:  # read as text: JSON error positions count `\r\n` and `\r` as one `\n`
            return json.loads(stream.read(), object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedRecordError(str(path), str(exc)) from None
    except ValueError:  # int() refuses a literal over the interpreter's digit limit
        raise MalformedRecordError(str(path), "integer literal has too many digits") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise MalformedRecordError(str(path), "nested too deeply") from None


def _open_input(path):
    """An input file opened for binary reading; a missing path raises FileMissingError."""
    if not os.path.exists(path):
        raise FileMissingError(path)
    return open(path, "rb")


def read_input(path) -> bytes:
    """The bytes of an input file (see `_open_input`)."""
    with _open_input(path) as handle:
        return handle.read()


@contextmanager
def input_lines(handle, error, strip=None):
    """Give an iterator of the (1-based line number, stripped line) pairs of a
    script, axiom file or dump, read from the open binary `handle` a line at a
    time; blank and `#` comment lines are skipped; the handle is closed on exit.
    A line is stripped of the characters in `strip`, or of all whitespace.
    A line ends only at `\\n`: a `\\r\\n` file reads the same, and every other
    Unicode line break stays inside its line.  It is decoded with its `\\n`,
    which no UTF-8 sequence spans, so invalid UTF-8 raises `error(line,
    "invalid UTF-8 (reason)")` with the line and reason of a whole-file decode.
    That error wins over a VrannotError raised on an earlier line while the
    lines are read: before that one propagates, the rest is read for it."""
    def lines():
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip(strip)
            except UnicodeDecodeError as exc:
                raise error(line_no, f"invalid UTF-8 ({exc.reason})") from None
            if line and not line.startswith("#"):
                yield line_no, line

    with handle:
        pairs = lines()
        try:
            yield pairs
        except VrannotError:
            for _ in pairs:
                pass
            raise


def _check_utf8(text: str, path, what: str) -> None:
    """Reject a text with no UTF-8 form, such as a `\\ud800` escape decodes to,
    on load rather than fail on a later save."""
    if _SURROGATE.search(text):
        raise MalformedRecordError(str(path), f"{what} {text!r} is not valid Unicode")


def load_master_list(path, what: str = "name") -> list[str]:
    """Load one master list: a JSON array of unique strings."""
    return _master_list(_load_json(path), path, what)


def _master_list(data, path, what: str) -> list[str]:
    """`data`, checked as the master list of `what` names read from `path`."""
    if not isinstance(data, list) or any(not isinstance(n, str) for n in data):
        raise MalformedRecordError(str(path), f"{what} master list must be an array of strings")
    seen: set[str] = set()
    label = f"{what} name"
    for name in data:
        _check_utf8(name, path, label)
        if name in seen:
            raise DuplicateMasterNameError(name)
        seen.add(name)
    return data


# A dict of as many entries as a getter takes keys, from which it takes them all, has
# exactly those keys; a missing one raises KeyError.
_record_fields = itemgetter("predicate", "subject", "object")
_object_fields = itemgetter("category", "bbox")
_new = tuple.__new__  # builds a named tuple from its fields without the generated Python `__new__`


def _parse_annotated_object(raw: object, shared: dict, image: str, index: int,
                            side: str) -> AnnotatedObject:
    """The checked participant of a record, as the one object in `shared` of its value."""
    # The location string is built only on a raise; `x.__class__ is int` rejects bool.
    try:
        if raw.__class__ is not dict or len(raw) != 2:
            raise KeyError
        category, bbox = _object_fields(raw)
    except KeyError:
        raise MalformedRecordError(
            f"{image}[{index}].{side}", "expected an object with keys 'category' and 'bbox'"
        ) from None
    if category.__class__ is not int:
        raise MalformedRecordError(f"{image}[{index}].{side}", "category must be an integer")
    if bbox.__class__ is list and len(bbox) == 4:
        ymin, ymax, xmin, xmax = bbox
        if ymin.__class__ is ymax.__class__ is xmin.__class__ is xmax.__class__ is int:
            key = (category, ymin, ymax, xmin, xmax)  # exact ints: an equal key is an equal value
            return shared.get(key) or shared.setdefault(
                key, _new(AnnotatedObject, (category, _new(BoundingBox, bbox))))
    raise MalformedRecordError(f"{image}[{index}].{side}", f"bbox must be 4 integers, got {bbox!r}")


_WS = r"[ \t\n\r]*"  # JSON whitespace; below, the root's punctuation with the whitespace around it
_ROOT_OPEN = re.compile(_WS + r"\{" + _WS).match
_COLON = re.compile(_WS + ":" + _WS).match
_COMMA = re.compile(_WS + "," + _WS + '(?=")').match
_ROOT_CLOSE = re.compile(_WS + r"\}" + _WS + r"\Z").match
_raw_decode = json.JSONDecoder().raw_decode  # the C scanner, with no Python hook
_CHUNK = 1 << 16  # characters read at a time into the scan's window
_PUNCTUATION = re.compile(r"[ \t\n\r,}]*").match  # what a failed root punctuation check read
_CUT_LAG = 8  # how far back the decoder fails on a cut token other than a string: `-Infinit`


def _image_vrs(image: str, records, n_classes: int, n_predicates: int, path, seed=None) -> list:
    """The checked VRs of one decoded image entry; raises on its first problem.
    `seed` is the same image's VR list in a corpus loaded earlier: the entry's
    participants and VRs that equal one of its own are then its objects."""
    _check_utf8(image, path, "image key")
    if not isinstance(records, list):
        raise MalformedRecordError(image, "image entry must be an array of records")
    vrs: list[VisualRelationship] = []
    # Immutable, so value-equal participants in one image can share one object:
    # the first, by its (category, ymin, ymax, xmin, xmax).
    shared: dict[tuple, AnnotatedObject] = {}
    if seed:  # the seed's participants go first; a seed VR is reused only if both of its are kept
        known = {}
        for vr in seed:
            subject, _, obj = vr
            if (shared.setdefault((subject.class_id,) + subject.bbox, subject) is subject
                    and shared.setdefault((obj.class_id,) + obj.bbox, obj) is obj):
                known[vr] = vr
    for index, record in enumerate(records):
        try:
            if record.__class__ is not dict or len(record) != 3:
                raise KeyError
            predicate, subject, obj = _record_fields(record)
        except KeyError:
            raise MalformedRecordError(
                f"{image}[{index}]", "expected keys 'predicate', 'subject' and 'object'"
            ) from None
        if predicate.__class__ is not int:
            raise MalformedRecordError(f"{image}[{index}]", "predicate must be an integer")
        subject = _parse_annotated_object(subject, shared, image, index, "subject")
        obj = _parse_annotated_object(obj, shared, image, index, "object")
        if not 0 <= subject.class_id < n_classes:  # the first id outside its master list
            raise IdOutOfRangeError(image, index, "subject.category", subject.class_id, n_classes)
        if not 0 <= obj.class_id < n_classes:
            raise IdOutOfRangeError(image, index, "object.category", obj.class_id, n_classes)
        if not 0 <= predicate < n_predicates:
            raise IdOutOfRangeError(image, index, "predicate", predicate, n_predicates)
        vrs.append(_new(VisualRelationship, (subject, predicate, obj)))
    return list(map(known.get, vrs, vrs)) if seed else vrs


def _scan_images(stream, n_classes: int, n_predicates: int, path, seeds: dict) -> dict:
    """Decode and check a valid annotations object an image at a time: only the
    root's punctuation is read here; each image's array is decoded by the C
    scanner and checked.  `stream` is read in chunks into a window of text that
    starts at the current image's key.  A step that the window's end may have cut
    short reads more and retries the image, twice as much on each retry in a row,
    so that an array is decoded O(log n) times; it raises with the file's end in
    the window.  A problem that more text cannot mend raises at once.  So does a
    syntax error that the scan or the decoder met short of the window's end, as
    no cut lies behind it: a cut leaves the end inside the string, number,
    literal or whitespace being read.  `seeds` maps an image to its `_image_vrs` seed."""
    images: dict[str, list[VisualRelationship]] = {}
    text, key, end, size, eof = "", 0, 0, _CHUNK, False
    while True:
        try:
            if not images:  # the window holds the file's start until an image is kept
                if (found := _ROOT_OPEN(text)) is None:
                    raise ValueError("root is not an object")
                key = found.end()
            end = key
            while text.startswith('"', key):
                image, end = scanstring(text, key + 1)
                if image in images:
                    raise VrannotError("repeated image")
                if (found := _COLON(text, end)) is None:
                    raise ValueError("no ':'")
                start = found.end()
                records, end = _raw_decode(text, start)
                vrs = _image_vrs(image, records, n_classes, n_predicates, path, seeds.get(image))
                # Each key of a checked record is one of its 7 field names and no value
                # holds a `:`, so 7 pairs a record means that none of its keys repeats.
                if text.count(":", start, end) != 7 * len(records):
                    raise VrannotError("repeated key")
                if (found := _COMMA(text, end)) is None:
                    break
                images[image] = vrs  # kept once the next key is in the window
                key, size = found.end(), _CHUNK
            if eof and _ROOT_CLOSE(text, end) is not None:
                if end > key:  # the last image, read but not yet kept
                    images[image] = vrs
                return images
            raise ValueError("no '}' or data after it")
        except ValueError as exc:  # the window's end may have cut a key, an array or punctuation
            pos = getattr(exc, "pos", None)
            if pos is None:  # the root's own punctuation, past the whitespace around it
                reach = _PUNCTUATION(text, end).end()
            elif text.startswith('"', pos):  # a string, which may run on past the window
                reach = len(text)
            else:  # the decoder stops at most `_CUT_LAG` short of a cut
                reach = pos + _CUT_LAG
            if eof or reach < len(text):  # more text cannot mend an error short of the end
                raise
        more = stream.read(size)
        text, key, size, eof = (text[key:] if images else text) + more, 0, 2 * size, len(more) < size


def _load_images(path, n_classes: int, n_predicates: int, seeds: dict) -> dict:
    handle = _open_input(path)
    if not handle.seekable():  # a pipe or FIFO is read whole, so that it can be reread
        with handle:
            handle = io.BytesIO(handle.read())
    with io.TextIOWrapper(handle, encoding="utf-8") as stream:
        try:
            return _scan_images(stream, n_classes, n_predicates, path, seeds)
        except (VrannotError, ValueError, RecursionError):
            pass  # the strict decode below reports the file's first problem, as documented
        stream.seek(0)
        raw = _load_json(path, stream)
    if not isinstance(raw, dict):
        raise MalformedRecordError(str(path), "annotations root must be an object")
    return {image: _image_vrs(image, records, n_classes, n_predicates, path, seeds.get(image))
            for image, records in raw.items()}


def load_corpus(annotations_path, classes_path, predicates_path, *,
                share_with: AnnotationCorpus | None = None) -> AnnotationCorpus:
    """Load a corpus from its three files and enforce the model invariants.

    Out-of-range ids are hard errors.  Degenerate bounding boxes are *not*:
    they load fine and only surface through lint.  A valid annotations file
    is read in chunks and decoded image by image, so its memory follows the
    model, not the file; any other is decoded whole, strictly, so that its
    first problem is reported as `docs/formats.md` orders them.

    `share_with`, a corpus that `load_corpus` returned earlier, lends its
    immutable values: in each image that it also holds, the new corpus uses
    its participants and returns each VR that equals one of its VRs as that
    object, so a second version of a corpus costs about its lists and its
    edited VRs.  Every list is new, and the value-equal participants of an
    image are still one object.  Its ids and coordinates must be exact
    `int`s, as in every loaded corpus: a `True` would stand in for `1`.
    Checks, errors and the value loaded are as without it.
    """
    classes = load_master_list(classes_path, "object class")
    predicates = load_master_list(predicates_path, "predicate")
    seeds = {} if share_with is None else share_with.images
    with gc_paused():  # the decoded records and the model are acyclic
        images = _load_images(annotations_path, len(classes), len(predicates), seeds)
    return AnnotationCorpus(images, classes, predicates)


# --------------------------------------------------------------------------
# canonical serialization
# --------------------------------------------------------------------------


# Per VR, the exact text json.dumps(sort_keys=True, indent=2) gives it inside an
# image array (object, predicate, subject; bbox before category in each object),
# made by json.dumps itself: a record of "%d"s, unquoted and indented by the array.
_VR_TEMPLATE = "\n".join("    " + line for line in json.dumps(
    {"object": {"bbox": ["%d"] * 4, "category": "%d"}, "predicate": "%d",
     "subject": {"bbox": ["%d"] * 4, "category": "%d"}}, sort_keys=True, indent=2,
).replace('"%d"', "%d").splitlines())


def _annotations_chunks(corpus: AnnotationCorpus):
    head = "{\n"
    for image in sorted(corpus.images):
        key, vrs = encode_basestring(image), corpus.images[image]
        body = ",\n".join([_VR_TEMPLATE % (*o_box, o_class, predicate, *s_box, s_class)
                           for (s_class, s_box), predicate, (o_class, o_box) in vrs])
        yield (f"{head}  {key}: [\n{body}\n  ]" if vrs else f"{head}  {key}: []").encode("utf-8")
        head = ",\n"
    yield b"{}\n" if head == "{\n" else b"\n}\n"


def canonical_annotations_bytes(corpus: AnnotationCorpus) -> bytes:
    """The bytes of json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=False) + "\n", written without building the payload.

    Image keys are sorted; per-image VR order is semantic (scripts index into
    it) and is preserved as-is.  Each image's entry is encoded on its own, with
    the `{` or `,` before it, and `save_corpus` writes these chunks one by one:
    no whole-file str is built, whose size would follow the widest character of
    any filename, and a save holds one entry at a time.
    """
    return b"".join(_annotations_chunks(corpus))


def canonical_master_list_bytes(names: list[str]) -> bytes:
    return (json.dumps(list(names), indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _fsync_directory(directory: str) -> None:
    if os.name != "posix":  # elsewhere os.open cannot open a directory
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def check_output(path) -> str:
    """The real path that an output `path` is written to, a symlink followed.
    A target that exists and is not a regular file (a directory, FIFO, socket,
    device or symlink loop), or that cannot be looked up (under a regular
    file), raises OSError naming `path`."""
    target = os.path.realpath(path)  # a symlinked output is written where it points
    try:
        mode = os.stat(target).st_mode
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISREG(mode):  # a FIFO, socket or device would be replaced by a file
            raise OSError(errno.EEXIST, "File exists and is not a regular file")
    except FileNotFoundError:  # a new file
        pass
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    return target


def replace_files(targets) -> None:
    """Write each (path, chunks) pair, `chunks` an iterable of `bytes` joined
    on disk, through a temp file next to its path, making its missing parent
    directories, which stay if a later step fails.  A path that `check_output`
    refuses, or whose real path an earlier pair's has, is refused as OSError
    before its temp file is made, so before any target is replaced: two temp
    files renamed onto one file would leave the last.  The chunks may be made
    lazily while they are written, as a `kg` `Dump` makes its lines, and may
    raise partway; the temp file is then removed and the error propagates.

    Every temp file is written and fsynced before the first one is renamed
    over its target, so a failure while writing changes no target, leaves no
    temp file and names the path given.  The renames run in order; only a
    failure between two of them can leave earlier targets replaced and later
    ones not.  Then each target's directory is fsynced, so that the renames
    survive a power loss.
    """
    staged: list[tuple[str, str]] = []
    try:
        for path, chunks in targets:
            target = check_output(path)
            if any(target == other for _, other in staged):
                raise OSError(errno.EINVAL, "Same file as an earlier output", os.fspath(path))
            directory, name = os.path.split(target)
            temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
            try:
                if not os.path.exists(directory):
                    os.makedirs(directory, exist_ok=True)
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                staged.append((temp, target))
                with open(fd, "wb") as handle:
                    handle.writelines(chunks)
                    handle.flush()
                    os.fsync(fd)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        for temp, target in staged:
            os.replace(temp, target)
        for directory in dict.fromkeys(os.path.dirname(target) for _, target in staged):
            _fsync_directory(directory)
    except BaseException:
        for temp, _ in staged:
            try:
                os.unlink(temp)
            except FileNotFoundError:  # already renamed into place
                pass
        raise


def save_corpus(
    corpus: AnnotationCorpus,
    annotations_path,
    classes_path=None,
    predicates_path=None,
) -> None:
    """Write the canonical on-disk form; equal corpora yield identical bytes.

    Master lists are written when their paths are given.  Retired names stay
    in the lists (ids must not shift); retirement itself is not persisted.
    The annotations are encoded entry by entry while they are written, so an
    entry may raise partway, as a filename with no UTF-8 form does; then no
    file is replaced and no temp file is left (see replace_files), as when
    two paths name one file (`p` and `d/../p`, or a symlink to `p`): OSError.
    """
    targets = [(annotations_path, _annotations_chunks(corpus))]
    if classes_path is not None:
        targets.append((classes_path, [canonical_master_list_bytes(corpus.object_class_names)]))
    if predicates_path is not None:
        targets.append((predicates_path, [canonical_master_list_bytes(corpus.predicate_names)]))
    replace_files(targets)


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def find_exact_duplicates(vrs: list[VisualRelationship]) -> list[tuple[int, int]]:
    """All index pairs (i, j), i < j, holding value-identical relationships."""
    if len(set(vrs)) == len(vrs):  # the common case: nothing to pair
        return []
    positions: dict[VisualRelationship, list[int]] = {}
    for index, vr in enumerate(vrs):
        positions.setdefault(vr, []).append(index)
    pairs = [
        (i, j)
        for indices in positions.values()
        for k, i in enumerate(indices)
        for j in indices[k + 1 :]
    ]
    return sorted(pairs)


def _round_half_up(numerator: int, denominator: int) -> float:
    """numerator / denominator (both >= 0) rounded half-up to 2 decimals, exactly."""
    if denominator == 0:
        return 0.0
    return (200 * numerator + denominator) // (2 * denominator) / 100


def compute_stats(corpus: AnnotationCorpus) -> CorpusStats:
    """Headline counts; class/predicate counts exclude retired names."""
    vr_count = corpus.vr_count
    image_count = len(corpus.images)
    duplicates = sum(
        1 for vrs in corpus.images.values() if len(set(vrs)) < len(vrs)
    )
    return CorpusStats(
        object_class_count=len(corpus.object_class_names) - len(corpus.retired_class_ids),
        predicate_count=len(corpus.predicate_names) - len(corpus.retired_predicate_ids),
        image_count=image_count,
        vr_count=vr_count,
        mean_vrs_per_image=_round_half_up(vr_count, image_count),
        images_with_exact_duplicate_vrs=duplicates,
    )


# --------------------------------------------------------------------------
# corpus diffing
# --------------------------------------------------------------------------


class ImageDelta(NamedTuple):
    """Value delta of one image entry between two corpora.

    VRs are compared by resolved names and boxes (robust to id renumbering).
    Within an image the lists are compared as multisets; surplus removals are
    paired with surplus additions and reported as `changed`.
    """

    filename: str
    status: str  # "modified" | "added" | "removed"
    changed: int = 0
    added: int = 0
    removed: int = 0


class CorpusDiff(NamedTuple):
    deltas: list[ImageDelta]

    @property
    def images_touched(self) -> int:
        return len(self.deltas)

    @property
    def images_added(self) -> int:
        return sum(1 for d in self.deltas if d.status == "added")

    @property
    def images_removed(self) -> int:
        return sum(1 for d in self.deltas if d.status == "removed")

    @property
    def vrs_changed(self) -> int:
        return sum(d.changed for d in self.deltas)

    @property
    def vrs_added(self) -> int:
        return sum(d.added for d in self.deltas)

    @property
    def vrs_removed(self) -> int:
        return sum(d.removed for d in self.deltas)


def _ids_by_name(before: list[str], after: list[str]) -> list[int]:
    """For each id of `after`, the id of `before` with the same name; a name
    that `before` lacks gets a fresh id past the end of `before`."""
    ids = {name: i for i, name in enumerate(before)}
    return [ids.setdefault(name, len(ids)) for name in after]


def diff_corpora(before: AnnotationCorpus, after: AnnotationCorpus) -> CorpusDiff:
    """Name-level value diff; VR removals and additions of an image that pair
    up one-to-one count as changes.  Image-level adds/removes do not feed the
    VR counters; deltas are sorted by filename.  `after`'s VRs are compared
    in `before`'s ids, where equal ids mean equal names: only an image using
    an id whose name moved is re-expressed.  So an image a step left alone
    costs one list comparison (by pointer, of the VRs that the step's copy
    shares, or that `load_corpus` reused for `after` with `share_with=before`)
    and an edited one a multiset count."""
    classes = _ids_by_name(before.object_class_names, after.object_class_names)
    predicates = _ids_by_name(before.predicate_names, after.predicate_names)
    moved_classes = {i for i, j in enumerate(classes) if i != j}
    moved_predicates = {i for i, j in enumerate(predicates) if i != j}
    deltas = [ImageDelta(image, "added") for image in after.images.keys() - before.images.keys()]
    for image, old in before.images.items():
        new = after.images.get(image)
        if new is None:
            deltas.append(ImageDelta(image, "removed"))
            continue
        if (moved_predicates and not moved_predicates.isdisjoint(map(_second, new))
                or moved_classes and not (moved_classes.isdisjoint(map(_first, map(_first, new)))
                                          and moved_classes.isdisjoint(map(_first, map(_third, new))))):
            new = [((classes[s], s_box), predicates[p], (classes[o], o_box))
                   for (s, s_box), p, (o, o_box) in new]
        if old == new:
            continue
        unmatched, came = Counter(old), 0
        for vr in new:
            if unmatched.get(vr):
                unmatched[vr] -= 1
            else:
                came += 1
        gone = len(old) - len(new) + came
        if gone or came:
            paired = min(gone, came)
            deltas.append(ImageDelta(image, "modified", paired, came - paired, gone - paired))
    deltas.sort()
    return CorpusDiff(deltas)
