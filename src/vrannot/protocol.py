"""Line-oriented customization scripts: parse, validate, apply.

A script is a sequence of image blocks.  Each block opens with an `imname`
line naming the image (optionally flagged for removal) and is followed by
instructions editing that image's relationship list.  Instructions address
relationships by 0-based index into the *current* list, so edits within a
block see the effects of earlier lines, and every index-addressed line also
names the expected (subject, predicate, object) class triple.  The applier
checks that triple before touching anything and aborts the whole run on the
first mismatch, reporting the offending source line.

Lines end only at `\n`; fields split on `;` and are trimmed of whitespace;
`#` starts a comment line and blank lines are ignored.  `_GRAMMAR` below gives
each instruction's fields after its mnemonic, and docs/formats.md the grammar
in full.  Names may be bare or wrapped in straight, typographic, or
backtick-and-apostrophe quotes.  `render_script` refuses a filename or name
that would not read back as itself.
"""

from __future__ import annotations

import io
from enum import Enum
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

from .corpus import (
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    CorpusDiff,
    VisualRelationship,
    _integer,
    diff_corpora,
    input_lines,
    strip_quotes,
)
from .errors import ApplyError, ParseError, UnknownNameError


class InstructionKind(Enum):
    IMNAME = "imname"
    CVRSOC = "cvrsoc"
    CVRSBB = "cvrsbb"
    CVROOC = "cvrooc"
    CVROBB = "cvrobb"
    CVRPXX = "cvrpxx"
    RVRXXX = "rvrxxx"
    AVRXXX = "avrxxx"
    RIMXXX = "rimxxx"


# index-addressed change kinds -> (VisualRelationship field replaced, payload)
_CHANGES = {
    InstructionKind.CVRSOC: ("subject", "class"),
    InstructionKind.CVRSBB: ("subject", "bbox"),
    InstructionKind.CVROOC: ("object", "class"),
    InstructionKind.CVROBB: ("object", "bbox"),
    InstructionKind.CVRPXX: ("predicate_id", "predicate"),
}

# each instruction kind -> the roles of its fields after the mnemonic, and the arity text of its
# error; parse_script and _render_instruction both read it
_GRAMMAR = {
    InstructionKind.AVRXXX: (("subject class", "bbox", "predicate", "object class", "bbox"),
                             "class; [bbox]; predicate; class; [bbox]"),
    InstructionKind.RVRXXX: (("index", "tuple"), "index; (tuple)"),
    **{kind: (("index", "tuple", payload), "index; (tuple); payload")
       for kind, (_, payload) in _CHANGES.items()},
}


class NewVRSpec(NamedTuple):
    """Payload of an `avrxxx` line: a full relationship given by names."""

    subject_class: str
    subject_bbox: BoundingBox
    predicate: str
    object_class: str
    object_bbox: BoundingBox


class Instruction(NamedTuple):
    kind: InstructionKind
    source_line: int
    vr_index: int | None = None
    ref_tuple: tuple[str, str, str] | None = None
    new_name: str | None = None
    new_bbox: BoundingBox | None = None
    new_vr: NewVRSpec | None = None


class ImageBlock(SimpleNamespace):
    """One `imname` block; mutable, as `parse_script` appends its instructions."""

    def __init__(self, filename: str, source_line: int, remove_image: bool = False,
                 instructions: list[Instruction] | None = None):
        self.filename, self.source_line, self.remove_image = filename, source_line, remove_image
        self.instructions: list[Instruction] = [] if instructions is None else instructions


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def _parse_index(text: str, line: int) -> int:
    value = _integer(text)
    if value is not None and text[0] not in "+-":  # unsigned
        return value
    raise ParseError(line, f"expected a non-negative index, got {text!r}")


def _parse_name(role: str, text: str, line: int) -> str:
    name = strip_quotes(text)
    if not name:
        raise ParseError(line, f"empty {role} name")
    return name


def _parse_bbox_literal(text: str, line: int) -> BoundingBox:
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(line, f"expected a [ymin,ymax,xmin,xmax] literal, got {text!r}")
    values = [None if p[:1] == "+" else _integer(p) for p in map(str.strip, text[1:-1].split(","))]
    if len(values) == 4 and None not in values:
        return BoundingBox(*values)
    raise ParseError(line, f"bounding box must hold 4 integers, got {text!r}")


def _parse_ref_tuple(text: str, line: int) -> tuple[str, str, str]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(line, f"expected a (subject, predicate, object) tuple, got {text!r}")
    parts = [p.strip() for p in text[1:-1].split(",")]
    if len(parts) != 3:
        raise ParseError(line, f"reference tuple must hold 3 names, got {text!r}")
    return tuple(_parse_name("reference-tuple", p, line) for p in parts)  # type: ignore[return-value]


# each field role -> (the Instruction field it fills outside avrxxx, its parser, its renderer);
# a role other than index, tuple and bbox is a name, kept as it is read
_ROLES = {role: ("new_name", partial(_parse_name, role), str)
          for roles, _ in _GRAMMAR.values() for role in roles}
_ROLES.update(
    index=("vr_index", _parse_index, str),
    tuple=("ref_tuple", _parse_ref_tuple, lambda ref: f"({', '.join(ref)})"),
    bbox=("new_bbox", _parse_bbox_literal, lambda box: f"[{','.join(map(str, box))}]"),
)


def parse_script(source: str | bytes) -> list[ImageBlock]:
    """Parse script text into image blocks; total over arbitrary byte input.

    Every failure raises ParseError carrying the 1-based source line.  Text
    is read as its UTF-8 form, so a lone surrogate in it is invalid UTF-8.
    """
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
                if not fields[1]:
                    raise ParseError(line_no, "empty filename")
                if len(fields) == 3 and fields[2] != InstructionKind.RIMXXX.value:
                    raise ParseError(line_no, f"unexpected trailing field {fields[2]!r}")
                blocks.append(current := ImageBlock(fields[1], line_no, remove_image=len(fields) == 3))
                continue

            if kind is InstructionKind.RIMXXX:
                raise ParseError(line_no, "rimxxx is only valid as a flag on an imname line")
            if current is None:
                raise ParseError(line_no, "instruction before any imname line")
            if current.remove_image:
                raise ParseError(line_no, "instruction after an image-removal header")

            roles, arity = _GRAMMAR[kind]
            if kind is InstructionKind.RVRXXX and len(fields) == 4 and fields[3] == "":
                fields.pop()  # a trailing `;` yields one empty extra field; both forms accepted
            if len(fields) != len(roles) + 1:
                raise ParseError(line_no, f"{mnemonic} takes {len(roles)} fields: {arity}")
            values = [_ROLES[role][1](text, line_no) for role, text in zip(roles, fields[1:])]
            current.instructions.append(
                Instruction(kind, line_no, new_vr=NewVRSpec(*values)) if kind is InstructionKind.AVRXXX
                else Instruction(kind, line_no, **{_ROLES[r][0]: value for r, value in zip(roles, values)}))
    return blocks


# --------------------------------------------------------------------------
# rendering (canonical inverse of parse_script)
# --------------------------------------------------------------------------


def _render_instruction(ins: Instruction) -> str:
    roles, _ = _GRAMMAR[ins.kind]
    avrxxx = ins.kind is InstructionKind.AVRXXX
    values = ins.new_vr if avrxxx else [getattr(ins, _ROLES[role][0]) for role in roles]
    texts = [_ROLES[role][2](value) for role, value in zip(roles, values)]
    return "; ".join([ins.kind.value, *texts]) + (";" if ins.kind is InstructionKind.RVRXXX else "")


def render_script(blocks: list[ImageBlock]) -> str:
    """Render blocks back to script text; parse(render(blocks)) == blocks
    up to source line numbers.  Each line is parsed back as it is rendered,
    an instruction under its block's header, so a filename or name that the
    grammar cannot hold raises ParseError naming the rendered line; an
    instruction with no line (an `imname` kind, a `cvrsbb` with no box, an
    `avrxxx` with no `new_vr`) raises ParseError naming the instruction."""
    lines: list[str] = []
    for block in blocks:
        if lines:
            lines.append("")
        header = f"imname; {block.filename}" + ("; rimxxx" if block.remove_image else "")
        for ins in [None, *block.instructions]:  # None stands for the header
            try:
                line = header if ins is None else _render_instruction(ins)
            except (KeyError, TypeError):  # a kind with no line, or a field its role cannot write
                raise ParseError(len(lines) + 1, f"{ins!r} has no script line") from None
            want = [] if ins is None else [ins._replace(source_line=2)]
            try:
                again = parse_script(line if ins is None else f"{header}\n{line}")
                same = again == [ImageBlock(block.filename, 1, block.remove_image, want)]
            except ParseError:
                same = False
            if not same:
                raise ParseError(len(lines) + 1, f"{line!r} does not read back as written")
            lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""


# --------------------------------------------------------------------------
# application
# --------------------------------------------------------------------------


def _resolve(corpus: AnnotationCorpus, what: str, name: str, line: int) -> int:
    """The live id of a name; `what` is "object class" or "predicate"."""
    try:
        return corpus.predicate_id(name) if what == "predicate" else corpus.class_id(name)
    except UnknownNameError:
        raise ApplyError(line, ApplyError.UNKNOWN_NAME, f"{what} {name!r}") from None


def _checked_vr(
    corpus: AnnotationCorpus, image: str, ins: Instruction
) -> VisualRelationship:
    """Fetch the addressed VR after bounds and reference-tuple validation."""
    vrs = corpus.images[image]
    if not 0 <= ins.vr_index < len(vrs):
        raise ApplyError(
            ins.source_line,
            ApplyError.INDEX_OUT_OF_RANGE,
            f"index {ins.vr_index} outside 0..{len(vrs) - 1} of {image}"
            if vrs
            else f"index {ins.vr_index} into empty list of {image}",
        )
    vr = vrs[ins.vr_index]
    found = corpus.vr_type_names(vr)
    if found != ins.ref_tuple:
        raise ApplyError(
            ins.source_line,
            ApplyError.TUPLE_MISMATCH,
            f"expected {ins.ref_tuple}, found {found}",
        )
    return vr


def _apply_instruction(corpus: AnnotationCorpus, image: str, ins: Instruction) -> None:
    vrs = corpus.images[image]
    if ins.kind is InstructionKind.AVRXXX:
        spec, line = ins.new_vr, ins.source_line
        subject = _resolve(corpus, "object class", spec.subject_class, line)
        predicate = _resolve(corpus, "predicate", spec.predicate, line)
        obj = _resolve(corpus, "object class", spec.object_class, line)
        vrs.append(VisualRelationship(AnnotatedObject(subject, spec.subject_bbox), predicate,
                                      AnnotatedObject(obj, spec.object_bbox)))
        return

    vr = _checked_vr(corpus, image, ins)
    if ins.kind is InstructionKind.RVRXXX:
        del vrs[ins.vr_index]
        return
    part, payload = _CHANGES[ins.kind]
    old = getattr(vr, part)
    if payload == "predicate":
        new = _resolve(corpus, "predicate", ins.new_name, ins.source_line)
    elif payload == "class":
        new = AnnotatedObject(_resolve(corpus, "object class", ins.new_name, ins.source_line),
                              old.bbox)
    else:
        new = AnnotatedObject(old.class_id, ins.new_bbox)
    vrs[ins.vr_index] = vr._replace(**{part: new})


def validate_and_apply(
    corpus: AnnotationCorpus, blocks: list[ImageBlock]
) -> tuple[AnnotationCorpus, CorpusDiff]:
    """Apply blocks in order against a copy; the input corpus is never touched.

    The first failed check raises ApplyError with the offending source line;
    nothing is returned, so an aborted run leaves callers holding exactly the
    corpus they passed in.
    """
    work = corpus.copy()
    for block in blocks:
        if block.filename not in work.images:
            raise ApplyError(
                block.source_line, ApplyError.IMAGE_NOT_FOUND, block.filename
            )
        if block.remove_image:
            del work.images[block.filename]
            continue
        for ins in block.instructions:
            _apply_instruction(work, block.filename, ins)
    return work, diff_corpora(corpus, work)
