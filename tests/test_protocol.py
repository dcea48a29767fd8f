import random
import re
from collections import Counter
from pathlib import Path

import pytest

from vrannot.corpus import AnnotatedObject, BoundingBox, canonical_annotations_bytes
from vrannot.errors import ApplyError, ParseError
from vrannot.protocol import (
    _CHANGES,
    _GRAMMAR,
    _render_instruction,
    ImageBlock,
    Instruction,
    InstructionKind,
    NewVRSpec,
    parse_script,
    render_script,
    validate_and_apply,
)

from helpers import (
    LISTING_DIR,
    check_record,
    check_result_tuple,
    load_listing_corpus,
    load_listing_expected,
    random_corpus,
    reference_parse_script,
    reference_render_instruction,
)
from test_corpus import FILENAME_ALPHABET

K = InstructionKind


def block_kinds(block):
    return [ins.kind for ins in block.instructions]


class TestParse:
    def test_bundled_script_shape(self):
        blocks = parse_script((LISTING_DIR / "script.txt").read_text(encoding="utf-8"))
        assert len(blocks) == 5
        assert block_kinds(blocks[0]) == [K.CVRSOC, K.CVRSBB]
        assert block_kinds(blocks[1]) == [K.CVROOC, K.CVROBB]
        assert block_kinds(blocks[2]) == [K.CVRSOC, K.CVRPXX]
        assert block_kinds(blocks[3]) == [K.RVRXXX, K.AVRXXX, K.AVRXXX]
        assert blocks[4].remove_image and blocks[4].instructions == []
        assert blocks[0].filename == "3223670633_7d3d72dfe8_b.jpg"
        # quote stripping on the odd `name' quoting style
        assert blocks[0].instructions[0].ref_tuple == ("person", "on", "shelf")
        assert blocks[0].instructions[0].new_name == "speaker"
        assert blocks[0].instructions[1].new_bbox == BoundingBox(161, 234, 231, 270)
        assert blocks[3].instructions[1].new_vr == NewVRSpec(
            "boat", BoundingBox(477, 594, 319, 746), "has", "dog", BoundingBox(478, 529, 587, 618)
        )

    def test_empty_input(self):
        assert parse_script("") == []
        assert parse_script("\n\n# only a comment\n") == []

    def test_orphan_instruction(self):
        with pytest.raises(ParseError) as err:
            parse_script("cvrsoc; 4; (a, b, c); x\n")
        assert err.value.line == 1

    def test_source_lines_recorded(self):
        text = "# header\nimname; a.jpg\n\ncvrpxx; 0; (a, b, c); d\n"
        blocks = parse_script(text)
        assert blocks[0].source_line == 2
        assert blocks[0].instructions[0].source_line == 4

    @pytest.mark.parametrize(
        "line",
        [
            "xvrsoc; 0; (a, b, c); d",
            "cvrsoc; 0; (a, b, c)",
            "cvrsoc; zero; (a, b, c); d",
            "cvrsoc; -1; (a, b, c); d",
            "cvrsoc; 0; (a, b); d",
            "cvrsoc; 0; a, b, c; d",
            "cvrsoc; 0; (a, b, c); ",
            "cvrsbb; 0; (a, b, c); [1,2,3]",
            "cvrsbb; 0; (a, b, c); [1,2,3,x]",
            "cvrsbb; 0; (a, b, c); 1,2,3,4",
            "avrxxx; a; [1,2,3,4]; p; b",
            "rvrxxx; 0; (a, b, c); extra",
            "rimxxx; a.jpg",
        ],
    )
    def test_malformed_instruction(self, line):
        with pytest.raises(ParseError) as err:
            parse_script(f"imname; a.jpg\n{line}\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("cvrsbb; 4; (a, b, c); [{},234,231,270]", "bounding box must hold 4 integers"),
            ("avrxxx; a; [1,2,3,4]; p; b; [1,{},3,4]", "bounding box must hold 4 integers"),
            ("cvrsoc; {}; (a, b, c); d", "expected a non-negative index"),
            ("rvrxxx; {}; (a, b, c);", "expected a non-negative index"),
        ],
    )
    def test_integer_over_the_digit_limit(self, line, reason):
        with pytest.raises(ParseError, match=reason) as err:
            parse_script(f"imname; a.jpg\n{line.format('9' * 5000)}\n")
        assert err.value.line == 2

    def test_index_digits_int_refuses(self):
        with pytest.raises(ParseError, match="expected a non-negative index, got '²'"):
            parse_script("imname; a.jpg\ncvrsoc; ²; (a, b, c); d\n")

    def test_imname_malformed(self):
        with pytest.raises(ParseError):
            parse_script("imname; a.jpg; b.jpg\n")
        with pytest.raises(ParseError):
            parse_script("imname; \n")

    @pytest.mark.parametrize("line", ["imname", "imname; a.jpg; rimxxx; b.jpg"])
    def test_imname_field_count(self, line):
        message = "^line 2: imname takes a filename and an optional rimxxx flag$"
        with pytest.raises(ParseError, match=message):
            parse_script("# header\n" + line + "\n")

    def test_instruction_after_removal_header(self):
        with pytest.raises(ParseError) as err:
            parse_script("imname; a.jpg; rimxxx\ncvrpxx; 0; (a, b, c); d\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "tuple_text",
        [
            "(person, sit on, teddy bear)",
            "(`person', `sit on', `teddy bear')",
            "('person', 'sit on', 'teddy bear')",
            '("person", "sit on", "teddy bear")',
            "(‘person’, ‘sit on’, ‘teddy bear’)",
        ],
    )
    def test_quote_styles(self, tuple_text):
        blocks = parse_script(f"imname; a.jpg\nrvrxxx; 0; {tuple_text};\n")
        assert blocks[0].instructions[0].ref_tuple == ("person", "sit on", "teddy bear")

    def test_trailing_semicolon_optional_on_rvrxxx(self):
        with_semi = parse_script("imname; a.jpg\nrvrxxx; 1; (a, b, c);\n")
        without = parse_script("imname; a.jpg\nrvrxxx; 1; (a, b, c)\n")
        assert with_semi[0].instructions[0].ref_tuple == without[0].instructions[0].ref_tuple

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ParseError) as err:
            parse_script(b"imname; a.jpg\ncvr\xffsoc\n")
        assert err.value.line == 2

    def test_lone_surrogate_in_text(self):
        """Text is read as its UTF-8 form, which a lone surrogate lacks."""
        for source, line in [("imname; a\ud800.jpg\n", 1), ("# ok\nimname; a.jpg\n\udcff\n", 3)]:
            with pytest.raises(ParseError) as err:
                parse_script(source)
            assert str(err.value) == f"line {line}: invalid UTF-8 (invalid continuation byte)"

    def test_lines_end_only_at_a_line_feed(self):
        """Line numbers count only `\\n`, for text and bytes alike."""
        for source, line in [("imname; a\x0cb.jpg\nbogus; 0\n", 2),
                             (b"imname; a\x0cb.jpg\nbogus; 0\n", 2),
                             ("imname; a\u2028b\x85c\x1cd.jpg\n# x\x0by\nbogus; 0\n", 3)]:
            with pytest.raises(ParseError) as err:
                parse_script(source)
            assert (err.value.line, err.value.reason) == (line, "unknown mnemonic 'bogus'")
        with pytest.raises(ParseError) as err:
            parse_script(b"imname; a\x0cb.jpg\ncvr\xffsoc\n")
        assert err.value.line == 2

    def test_crlf_reads_as_lf_and_a_bare_cr_ends_no_line(self):
        text = (LISTING_DIR / "script.txt").read_text(encoding="utf-8")
        assert parse_script(text.replace("\n", "\r\n")) == parse_script(text)
        with pytest.raises(ParseError) as err:
            parse_script("imname; a.jpg\rrvrxxx; 0; (a, b, c);\n")
        assert (err.value.line, err.value.reason) == (
            1, "imname takes a filename and an optional rimxxx flag"
        )

    def test_parse_is_total_over_noise(self):
        rng = random.Random(99)
        for _ in range(200):
            junk = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
            try:
                parse_script(junk)
            except ParseError as err:
                assert err.line >= 1


class TestRender:
    def strip_lines(self, blocks):
        out = []
        for block in blocks:
            instructions = [ins._replace(source_line=0) for ins in block.instructions]
            out.append(
                ImageBlock(block.filename, 0, block.remove_image, instructions)
            )
        return out

    def test_round_trip_bundled_script(self):
        blocks = parse_script((LISTING_DIR / "script.txt").read_text(encoding="utf-8"))
        again = parse_script(render_script(blocks))
        assert self.strip_lines(again) == self.strip_lines(blocks)

    def test_round_trip_generated(self):
        rng = random.Random(41)
        names = ["person", "teddy bear", "dog"]
        preds = ["on", "sit on"]
        for _ in range(30):
            blocks = []
            for b in range(rng.randrange(1, 4)):
                if rng.random() < 0.2:
                    blocks.append(ImageBlock(f"f{b}.jpg", 0, remove_image=True))
                    continue
                instructions = []
                for _ in range(rng.randrange(0, 4)):
                    kind = rng.choice(list(K))
                    if kind in (K.IMNAME, K.RIMXXX):
                        continue
                    ref = (rng.choice(names), rng.choice(preds), rng.choice(names))
                    if kind is K.AVRXXX:
                        instructions.append(
                            Instruction(
                                kind,
                                0,
                                new_vr=NewVRSpec(
                                    rng.choice(names),
                                    BoundingBox(0, 5, 0, 5),
                                    rng.choice(preds),
                                    rng.choice(names),
                                    BoundingBox(1, 6, 1, 6),
                                ),
                            )
                        )
                    elif kind is K.RVRXXX:
                        instructions.append(Instruction(kind, 0, vr_index=1, ref_tuple=ref))
                    elif kind in (K.CVRSBB, K.CVROBB):
                        instructions.append(
                            Instruction(
                                kind, 0, vr_index=2, ref_tuple=ref, new_bbox=BoundingBox(2, 9, 3, 8)
                            )
                        )
                    else:
                        instructions.append(
                            Instruction(kind, 0, vr_index=0, ref_tuple=ref, new_name="dog")
                        )
                blocks.append(ImageBlock(f"f{b}.jpg", 0, instructions=instructions))
            again = parse_script(render_script(blocks))
            assert self.strip_lines(again) == self.strip_lines(blocks)

    def test_round_trip_of_every_filename_character(self):
        """Every character but `\\n` and `;` can stand inside an imname
        filename, the line breaks that str.splitlines knows among them."""
        instruction = Instruction(K.RVRXXX, 0, vr_index=1, ref_tuple=("a", "b", "c"))
        for char in FILENAME_ALPHABET + "\x0b\x0c\x1c\x1d\x1e\x85":
            if char in "\n;":
                continue
            blocks = [ImageBlock(f"a{char}b.jpg", 0, instructions=[instruction]),
                      ImageBlock(f"a{char}c.jpg", 0, remove_image=True)]
            again = parse_script(render_script(blocks))
            assert self.strip_lines(again) == self.strip_lines(blocks), repr(char)

    @pytest.mark.parametrize(
        "filename, name, line, rendered",
        [
            (" a.jpg", "dog", 3, "imname;  a.jpg"),  # would read back as a.jpg
            ("a.jpg\x1c", "dog", 3, "imname; a.jpg\x1c"),
            ("a;b.jpg", "dog", 3, "imname; a;b.jpg"),  # would not parse
            ("a\nb.jpg", "dog", 3, "imname; a\nb.jpg"),
            ("a.jpg", "'dog'", 4, "rvrxxx; 0; ('dog', on, cat);"),  # would read back as dog
            ("a.jpg", "a,b", 4, "rvrxxx; 0; (a,b, on, cat);"),
            ("a\udcff.jpg", "dog", 3, "imname; a\udcff.jpg"),  # no UTF-8 form
            ("a.jpg", "d\ud800g", 4, "rvrxxx; 0; (d\ud800g, on, cat);"),
        ],
    )
    def test_unrepresentable_names_are_refused(self, filename, name, line, rendered):
        instruction = Instruction(K.RVRXXX, 0, vr_index=0, ref_tuple=(name, "on", "cat"))
        blocks = [ImageBlock("ok.jpg", 0, remove_image=True),
                  ImageBlock(filename, 0, instructions=[instruction])]
        with pytest.raises(ParseError) as err:
            render_script(blocks)
        assert str(err.value) == f"line {line}: {rendered!r} does not read back as written"


class TestApply:
    def test_first_block_semantics(self):
        corpus = load_listing_corpus()
        script = (
            "imname; 3223670633_7d3d72dfe8_b.jpg\n"
            "cvrsoc; 4; (person, on, shelf); speaker\n"
            "cvrsbb; 4; (speaker, on, shelf); [161,234,231,270]\n"
        )
        result, _ = validate_and_apply(corpus, parse_script(script))
        before = corpus.images["3223670633_7d3d72dfe8_b.jpg"][4]
        after = result.images["3223670633_7d3d72dfe8_b.jpg"][4]
        assert result.vr_type_names(after) == ("speaker", "on", "shelf")
        assert after.subject.bbox == BoundingBox(161, 234, 231, 270)
        assert after.object == before.object
        assert after.predicate_id == before.predicate_id

    def test_remove_shifts_indices(self):
        corpus = load_listing_corpus()
        image = "4929276486_ca06aedbb9_b.jpg"
        script = f"imname; {image}\nrvrxxx; 4; (person, wear, jacket);\n"
        result, _ = validate_and_apply(corpus, parse_script(script))
        assert len(result.images[image]) == len(corpus.images[image]) - 1
        assert result.images[image] == corpus.images[image][:4]

    def test_sequential_within_block(self):
        # the second instruction must see the first one's rename
        corpus = load_listing_corpus()
        image = "1426904233_ee344879b6_b.jpg"
        script = (
            f"imname; {image}\n"
            "cvrsoc; 5; (bear, sit on, basket); teddy bear\n"
            "cvrpxx; 5; (teddy bear, sit on, basket); in\n"
        )
        result, _ = validate_and_apply(corpus, parse_script(script))
        assert result.vr_type_names(result.images[image][5]) == ("teddy bear", "in", "basket")

    def test_tuple_mismatch(self):
        corpus = load_listing_corpus()
        image = "1426904233_ee344879b6_b.jpg"
        script = f"imname; {image}\ncvrpxx; 5; (teddy bear, sit on, basket); in\n"
        with pytest.raises(ApplyError) as err:
            validate_and_apply(corpus, parse_script(script))
        assert err.value.cause == ApplyError.TUPLE_MISMATCH
        assert err.value.line == 2
        assert "teddy bear" in err.value.detail and "bear" in err.value.detail

    def test_image_not_found(self):
        corpus = load_listing_corpus()
        with pytest.raises(ApplyError) as err:
            validate_and_apply(corpus, parse_script("imname; ghost.jpg\n"))
        assert err.value.cause == ApplyError.IMAGE_NOT_FOUND
        assert err.value.line == 1

    def test_index_out_of_range(self):
        corpus = load_listing_corpus()
        script = "imname; 3223670633_7d3d72dfe8_b.jpg\nrvrxxx; 99; (person, on, shelf);\n"
        with pytest.raises(ApplyError) as err:
            validate_and_apply(corpus, parse_script(script))
        assert err.value.cause == ApplyError.INDEX_OUT_OF_RANGE
        assert err.value.line == 2

    def test_unknown_payload_name(self):
        corpus = load_listing_corpus()
        script = "imname; 3223670633_7d3d72dfe8_b.jpg\ncvrsoc; 4; (person, on, shelf); zebra\n"
        with pytest.raises(ApplyError) as err:
            validate_and_apply(corpus, parse_script(script))
        assert err.value.cause == ApplyError.UNKNOWN_NAME
        assert err.value.detail == "object class 'zebra'"

    def test_unknown_avrxxx_name(self):
        corpus = load_listing_corpus()
        script = (
            "imname; 3223670633_7d3d72dfe8_b.jpg\n"
            "avrxxx; zebra; [1,2,3,4]; on; shelf; [1,2,3,4]\n"
        )
        with pytest.raises(ApplyError) as err:
            validate_and_apply(corpus, parse_script(script))
        assert err.value.cause == ApplyError.UNKNOWN_NAME
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "instruction",
        ["cvrpxx; 4; (person, on, shelf); hover", "avrxxx; person; [1,2,3,4]; hover; shelf; [1,2,3,4]"],
    )
    def test_unknown_predicate_name(self, instruction):
        corpus = load_listing_corpus()
        script = f"imname; 3223670633_7d3d72dfe8_b.jpg\n{instruction}\n"
        with pytest.raises(ApplyError) as err:
            validate_and_apply(corpus, parse_script(script))
        assert (err.value.cause, err.value.line) == (ApplyError.UNKNOWN_NAME, 2)
        assert err.value.detail == "predicate 'hover'"

    def test_index_into_an_empty_list(self):
        corpus = load_listing_corpus()
        corpus.images["empty.jpg"] = []
        with pytest.raises(ApplyError) as err:
            validate_and_apply(corpus, parse_script("imname; empty.jpg\nrvrxxx; 0; (a, b, c);\n"))
        assert (err.value.cause, err.value.line) == (ApplyError.INDEX_OUT_OF_RANGE, 2)
        assert err.value.detail == "index 0 into empty list of empty.jpg"

    def test_input_corpus_never_mutated(self):
        corpus = load_listing_corpus()
        snapshot = canonical_annotations_bytes(corpus)
        script = (LISTING_DIR / "script.txt").read_text(encoding="utf-8")
        validate_and_apply(corpus, parse_script(script))
        assert canonical_annotations_bytes(corpus) == snapshot

    def test_full_script_against_expected(self):
        corpus = load_listing_corpus()
        blocks = parse_script((LISTING_DIR / "script.txt").read_text(encoding="utf-8"))
        result, report = validate_and_apply(corpus, blocks)
        assert result.images == load_listing_expected().images
        assert report.images_touched == 5
        assert report.images_removed == 1

    def test_add_only_frame_property(self):
        rng = random.Random(57)
        for _ in range(20):
            corpus = random_corpus(rng)
            image = rng.choice(sorted(corpus.images))
            k = rng.randrange(1, 4)
            lines = [f"imname; {image}"]
            for _ in range(k):
                s = rng.choice(corpus.object_class_names)
                o = rng.choice(corpus.object_class_names)
                p = rng.choice(corpus.predicate_names)
                lines.append(f"avrxxx; {s}; [0,9,0,9]; {p}; {o}; [1,8,1,8]")
            result, _ = validate_and_apply(corpus, parse_script("\n".join(lines) + "\n"))
            assert result.vr_count == corpus.vr_count + k
            for name, vrs in corpus.images.items():
                kept = result.images[name][: len(vrs)]
                assert kept == vrs

    def test_report_matches_brute_force_diff(self):
        corpus = load_listing_corpus()
        blocks = parse_script((LISTING_DIR / "script.txt").read_text(encoding="utf-8"))
        result, report = validate_and_apply(corpus, blocks)

        def multisets(c):
            return {
                image: Counter(
                    (
                        c.object_class_names[vr.subject.class_id],
                        tuple(vr.subject.bbox),
                        c.predicate_names[vr.predicate_id],
                        c.object_class_names[vr.object.class_id],
                        tuple(vr.object.bbox),
                    )
                    for vr in vrs
                )
                for image, vrs in c.images.items()
            }

        old, new = multisets(corpus), multisets(result)
        touched = changed = added = removed = images_removed = 0
        for image in set(old) | set(new):
            if image not in new:
                touched += 1
                images_removed += 1
                continue
            if image not in old:
                touched += 1
                continue
            if old[image] == new[image]:
                continue
            touched += 1
            gone = sum((old[image] - new[image]).values())
            came = sum((new[image] - old[image]).values())
            changed += min(gone, came)
            added += max(0, came - gone)
            removed += max(0, gone - came)
        assert (
            report.images_touched,
            report.vrs_changed,
            report.vrs_added,
            report.vrs_removed,
            report.images_removed,
        ) == (touched, changed, added, removed, images_removed)


# One case per index-addressed change kind: the script payload, the
# Instruction field and value parsing must store, and the VR that applying it
# to (person, on, shelf) must give.
CHANGE_CASES = {
    "cvrsoc": ("dog", "new_name", "dog", lambda vr, c: vr._replace(
        subject=AnnotatedObject(c.class_id("dog"), vr.subject.bbox))),
    "cvrsbb": ("[1,2,3,4]", "new_bbox", BoundingBox(1, 2, 3, 4), lambda vr, c: vr._replace(
        subject=AnnotatedObject(vr.subject.class_id, BoundingBox(1, 2, 3, 4)))),
    "cvrooc": ("'dog'", "new_name", "dog", lambda vr, c: vr._replace(
        object=AnnotatedObject(c.class_id("dog"), vr.object.bbox))),
    "cvrobb": ("[1,2,3,4]", "new_bbox", BoundingBox(1, 2, 3, 4), lambda vr, c: vr._replace(
        object=AnnotatedObject(vr.object.class_id, BoundingBox(1, 2, 3, 4)))),
    "cvrpxx": ("sit on", "new_name", "sit on", lambda vr, c: vr._replace(
        predicate_id=c.predicate_id("sit on"))),
}
EMPTY_PAYLOAD = {
    "cvrsoc": "empty class name",
    "cvrsbb": "expected a [ymin,ymax,xmin,xmax] literal, got ''",
    "cvrooc": "empty class name",
    "cvrobb": "expected a [ymin,ymax,xmin,xmax] literal, got ''",
    "cvrpxx": "empty predicate name",
}
SHELF_IMAGE = "3223670633_7d3d72dfe8_b.jpg"  # its VR 4 is (person, on, shelf)


def without_lines(blocks):
    return [
        ImageBlock(block.filename, 0, block.remove_image,
                   [ins._replace(source_line=0) for ins in block.instructions])
        for block in blocks
    ]


SPEC = NewVRSpec("a", BoundingBox(1, 2, 3, 4), "on", "b", BoundingBox(5, 6, 7, 8))
AVR = Instruction(InstructionKind.AVRXXX, 2, new_vr=SPEC)


class TestRecords:
    """Instructions are named tuples and an image block is a mutable record;
    each keeps the repr text and equality it had as a dataclass."""

    @pytest.mark.parametrize("value,text", [
        (SPEC, "NewVRSpec(subject_class='a', subject_bbox=BoundingBox(ymin=1, ymax=2, xmin=3, "
               "xmax=4), predicate='on', object_class='b', object_bbox=BoundingBox(ymin=5, ymax=6, "
               "xmin=7, xmax=8))"),
        (Instruction(InstructionKind.RVRXXX, 3, vr_index=0, ref_tuple=("a", "b", "c")),
         "Instruction(kind=<InstructionKind.RVRXXX: 'rvrxxx'>, source_line=3, vr_index=0, "
         "ref_tuple=('a', 'b', 'c'), new_name=None, new_bbox=None, new_vr=None)"),
    ], ids=["spec", "instruction"])
    def test_named_tuples(self, value, text):
        check_result_tuple(value, text)

    @pytest.mark.parametrize("make,text", [
        (lambda: ImageBlock("a.jpg", 1),
         "ImageBlock(filename='a.jpg', source_line=1, remove_image=False, instructions=[])"),
        (lambda: ImageBlock("a.jpg", 1, True, [AVR]),
         "ImageBlock(filename='a.jpg', source_line=1, remove_image=True, instructions=["
         "Instruction(kind=<InstructionKind.AVRXXX: 'avrxxx'>, source_line=2, vr_index=None, "
         "ref_tuple=None, new_name=None, new_bbox=None, new_vr=" + repr(SPEC) + ")])"),
    ], ids=["defaults", "given"])
    def test_image_block(self, make, text):
        check_record(make, text)

    def test_image_block_defaults_are_fresh(self):
        first, second = ImageBlock("a.jpg", 1), ImageBlock("a.jpg", 1)
        first.instructions.append(AVR)
        assert second.instructions == []
        given = [AVR]
        block = ImageBlock("a.jpg", 1, instructions=given, remove_image=True)
        assert block.instructions is given and block == ImageBlock("a.jpg", 1, True, [AVR])


class TestChangeTable:
    def test_cases_cover_table(self):
        assert set(CHANGE_CASES) == set(EMPTY_PAYLOAD) == {kind.value for kind in _CHANGES}

    @pytest.mark.parametrize("mnemonic", sorted(CHANGE_CASES))
    def test_parse_render_parse(self, mnemonic):
        payload, stored, value, _ = CHANGE_CASES[mnemonic]
        text = f"# x\nimname; a.jpg\n  {mnemonic} ;3; ( 'person', on,shelf ) ;  {payload}\n"
        blocks = parse_script(text)
        ins = blocks[0].instructions[0]
        assert (ins.kind.value, ins.vr_index) == (mnemonic, 3)
        assert ins.ref_tuple == ("person", "on", "shelf")
        other = "new_bbox" if stored == "new_name" else "new_name"
        assert (getattr(ins, stored), getattr(ins, other), ins.new_vr) == (value, None, None)
        assert without_lines(parse_script(render_script(blocks))) == without_lines(blocks)

    @pytest.mark.parametrize("mnemonic", sorted(CHANGE_CASES))
    def test_apply_changes_only_named_part(self, mnemonic):
        payload, _, _, expect = CHANGE_CASES[mnemonic]
        corpus = load_listing_corpus()
        script = f"imname; {SHELF_IMAGE}\n{mnemonic}; 4; (person, on, shelf); {payload}\n"
        result, _ = validate_and_apply(corpus, parse_script(script))
        expected = load_listing_corpus()
        vrs = expected.images[SHELF_IMAGE]
        vrs[4] = expect(vrs[4], expected)
        assert vrs[4] != corpus.images[SHELF_IMAGE][4]
        assert result == expected

    @pytest.mark.parametrize("mnemonic", sorted(CHANGE_CASES))
    @pytest.mark.parametrize("fields", ["0; (a, b, c)", "0; (a, b, c); d; e"])
    def test_wrong_field_count(self, mnemonic, fields):
        with pytest.raises(ParseError) as err:
            parse_script(f"imname; a.jpg\n\n{mnemonic}; {fields}\n")
        assert str(err.value) == f"line 3: {mnemonic} takes 3 fields: index; (tuple); payload"

    @pytest.mark.parametrize("mnemonic", sorted(CHANGE_CASES))
    def test_empty_payload(self, mnemonic):
        # a quoted empty name is empty too; a quoted box is not a box literal
        quoted = ("''",) if CHANGE_CASES[mnemonic][1] == "new_name" else ()
        for payload in ("", *quoted):
            with pytest.raises(ParseError) as err:
                parse_script(f"imname; a.jpg\n{mnemonic}; 0; (a, b, c); {payload}\n")
            assert str(err.value) == f"line 2: {EMPTY_PAYLOAD[mnemonic]}"

    def test_docs_grammar_block_matches(self):
        """docs/formats.md's script grammar lists exactly the InstructionKind
        mnemonics, with rimxxx only as the imname flag."""
        text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")
        section = text.split("## Customization scripts\n", 1)[1]
        block = section.split("```\n", 2)[1]
        lines = block.splitlines()
        assert [line.split(";")[0] for line in lines] == [
            kind.value for kind in InstructionKind if kind is not InstructionKind.RIMXXX
        ]
        assert lines[0] == "imname; <filename>[; rimxxx]"
        assert [line for line in lines if "rimxxx" in line] == [lines[0]]
        for line in lines[1:]:  # each instruction line has the fields _GRAMMAR gives its kind
            mnemonic, *fields = line.removesuffix(";").split(";")  # rvrxxx's trailing `;` is optional
            assert len(fields) == len(_GRAMMAR[InstructionKind(mnemonic)][0]), line


# field texts by role for the differential below: each role's good texts, then its bad ones
DIFF_FIELDS = {
    "index": (["0", "3", "12", " 4 "], ["+1", "-1", "x", "", "٣", "1_0", "2.0"]),
    "tuple": (["(a, b, c)", "('a', on, “c”)", "(`a', sit on, 'b')", "( a ,b,c )"],
              ["(a, b)", "(a, b, c, d)", "(, b, c)", "('', b, c)", "a, b, c", "(a, b, c", "()"]),
    "bbox": (["[1,2,3,4]", "[-1,2,3,4]", "[ 1 , 2,3,4 ]", "[0,0,0,0]"],
             ["[+1,2,3,4]", "[1,2,3]", "1,2,3,4", "[a,2,3,4]", "[]", "[1,2,3,4,5]", "[1,-+2,3,4]"]),
    "name": (["dog", "teddy bear", "'dog'", "“cat”", "`on'"], ["", "''", '""', "‘’"]),
    "filename": (["a.jpg", "b c.jpg", "'q'.jpg"], [""]),
}
DIFF_ROLES = {kind.value: [role if role in DIFF_FIELDS else "name" for role in roles]
              for kind, (roles, _) in _GRAMMAR.items()}
DIFF_ROLES["imname"] = ["filename"]


def random_script_line(rng: random.Random) -> str:
    """A line of a random mnemonic whose fields are mostly of their roles and
    mostly good, with a field missing or extra now and then."""
    mnemonic = rng.choice(list(DIFF_ROLES)) if rng.random() < 0.9 else rng.choice(["rimxxx", "xvrsoc", ""])
    roles = list(DIFF_ROLES.get(mnemonic, []))
    roles += [rng.choice(list(DIFF_FIELDS))] if rng.random() < 0.15 else []
    if roles and rng.random() < 0.15:
        roles.pop(rng.randrange(len(roles)))
    fields = []
    for role in roles:
        role = role if rng.random() < 0.9 else rng.choice(list(DIFF_FIELDS))
        good, bad = DIFF_FIELDS[role]
        fields.append(rng.choice(good if rng.random() < 0.8 else bad))
    if mnemonic == "imname" and rng.random() < 0.3:
        fields.append(rng.choice(["rimxxx", "rimxxx", " rimxxx ", "x"]))
    if mnemonic == "rvrxxx" and rng.random() < 0.5:
        fields.append(rng.choice(["", " "]))  # the optional trailing `;`
    return rng.choice(["; ", ";", " ; "]).join([mnemonic, *fields])


class TestGrammarDifferential:
    """Seeded random scripts parse to the blocks, or fail with the ParseError
    text, of the parser that gave each instruction kind its own branch, and
    each parsed instruction renders to that parser's renderer's line."""

    def scripts(self, seed: int, count: int):
        rng = random.Random(seed)
        for _ in range(count):
            lines = [f"imname; {rng.choice(DIFF_FIELDS['filename'][0])}"] if rng.random() < 0.9 else []
            lines += [random_script_line(rng) for _ in range(rng.randrange(1, 5))]
            if rng.random() < 0.2:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "   "]))
            yield "\n".join(lines) + rng.choice(["\n", ""])

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except ParseError as err:
            return str(err)

    @pytest.mark.parametrize("seed", range(4))
    def test_parse_matches_the_reference(self, seed):
        results = Counter()
        for text in self.scripts(seed, 1500):
            got = self.outcome(parse_script, text)
            assert got == self.outcome(reference_parse_script, text), text
            results["ok" if isinstance(got, list) else re.sub(r"^line \d+: | .*", "", got)] += 1
        assert results["ok"] > 100 and len(results) > 10, results  # both outcomes, many errors

    @pytest.mark.parametrize("seed", range(4))
    def test_render_matches_the_reference(self, seed):
        rendered = Counter()
        for text in self.scripts(seed, 1500):
            blocks = self.outcome(parse_script, text)
            if isinstance(blocks, str):  # a ParseError, checked above
                continue
            for ins in (ins for block in blocks for ins in block.instructions):
                assert _render_instruction(ins) == reference_render_instruction(ins), text
                rendered[ins.kind] += 1
        assert set(rendered) == set(_GRAMMAR), rendered


class TestUnrenderableInstructions:
    """An instruction no script line holds is refused by render_script with a
    ParseError naming the line it would take, not a bare exception."""

    @pytest.mark.parametrize("ins, reason", [
        (Instruction(K.IMNAME, 2), None),
        (Instruction(K.RIMXXX, 2), None),
        (Instruction(K.CVRSBB, 2, vr_index=0, ref_tuple=("a", "b", "c"), new_name="x"), None),
        (Instruction(K.AVRXXX, 2), None),
        (Instruction(K.RVRXXX, 2, vr_index=0, ref_tuple=("a", "b")),
         "'rvrxxx; 0; (a, b);' does not read back as written"),
    ], ids=["imname", "rimxxx", "cvrsbb-without-box", "avrxxx-without-spec", "rvrxxx-two-names"])
    def test_refused_with_a_parse_error(self, ins, reason):
        blocks = [ImageBlock("ok.jpg", 0, remove_image=True), ImageBlock("a.jpg", 0, instructions=[ins])]
        with pytest.raises(ParseError) as err:
            render_script(blocks)
        assert str(err.value) == f"line 4: {reason or f'{ins!r} has no script line'}"
        assert "\n" not in str(err.value)
