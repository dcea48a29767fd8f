"""`load_store`'s split parse against a regex line loop.

`test_dump_io.reference_load` is that loop, over a whole-file decode, with
a line regex of the N-Triples grammar.  On every dump, valid or not,
`load_store` must build the same store internals (the term ids in order, the
triple count, and the subject index with its key and triple order) or raise
the same error."""

import io
import random
import re
import tracemalloc

import pytest

from vrannot.cli import main
from vrannot.corpus import input_lines
from vrannot.errors import MalformedGraphError, VrannotError
from vrannot.kg import XSD_INTEGER_IRI, Iri, dump_store, load_schema, load_store, read_dump
from vrannot.protocol import parse_script

from helpers import LISTING_DIR
from test_dump_io import MUTATIONS, cjk_store, n_triples, reference_load, valid_dump


def split_load(data: bytes):
    with input_lines(io.BytesIO(data),
                     lambda line, reason: MalformedGraphError(f"line {line}: {reason}"),
                     " \t\r\n") as lines:  # trimmed as `read_dump` trims
        return load_store(lines)


def internals(load, data: bytes):
    """The store's term list, triple count and subject index in order, or the error."""
    try:
        store = load(data)
    except VrannotError as exc:
        return type(exc), str(exc)
    return store._terms, len(store), [(s, list(ts)) for s, ts in store._by_subject.items()]


_TERM = re.compile(rb"<[^<>]*>|\"(?:[^\"\\]|\\.)*\"(?:\^\^<[^<>]*>)?")


def _separators(line: bytes) -> list[int]:
    """The offsets of the spaces after the subject and the predicate, and before ` .`."""
    terms = list(_TERM.finditer(line))
    return [m.end() for m in terms[:2] if m.end() < len(line)] + [len(line) - 2]


def _spaced(rng, line):
    """Double spaces between terms, or a tab or spaces before the object or the dot."""
    cut = rng.choice(_separators(line))
    return line[:cut] + rng.choice((b"  ", b"\t", b" \t", b"\t ", b"   ")) + line[cut + 1:]


def _iri_span(rng, line):
    """The span of one IRI of the line, or None when it holds none."""
    spans = [m.span() for m in re.finditer(rb"<[^<>]*>", line)]
    return rng.choice(spans) if spans else None


def _empty_iri(rng, line):
    a, b = _iri_span(rng, line) or (0, 0)
    return line[:a] + b"<>" + line[b:]


def _not_an_iri(rng, line):
    """A literal or a bare word in subject or predicate position."""
    term = rng.choice((b'"x"', b'"5"^^<' + XSD_INTEGER_IRI.encode() + b">", b"naked", b"<a",
                       b"a>", b"<a><b>", b"<a\tb>"))
    terms = list(_TERM.finditer(line))
    a, b = terms[rng.randrange(min(2, len(terms)))].span() if terms else (0, 0)
    return line[:a] + term + line[b:]


def _space_inside(rng, line):
    """Spaces inside the IRI of one position: subject, predicate or object (or its datatype)."""
    span = _iri_span(rng, line)
    if span is None:
        return line
    cut = rng.randrange(span[0] + 1, span[1])
    return line[:cut] + rng.choice((b" ", b"  ", b" . ", b"\t ")) + line[cut:]


def _drop_term(rng, line):
    """A line short of its subject, predicate or object."""
    a, b = rng.choice([m.span() for m in _TERM.finditer(line)] or [(0, 0)])
    return line[:a] + line[b:]


def _unclosed(rng, line):
    """The object's last character, a `>` or `"`, replaced."""
    return line[:-3] + rng.choice((b"x", b'"', b"\\", b" ", b"<")) + line[-2:]


def _on_a_line(edit):
    def mutate(rng, data):
        lines = data.split(b"\n")
        candidates = [k for k, line in enumerate(lines) if line.startswith(b"<")]
        if candidates:
            k = rng.choice(candidates)
            lines[k] = edit(rng, lines[k])
        return b"\n".join(lines)
    return mutate


def _reappear(rng, data):
    """A subject reappears after another subject: a line is moved, or copied, elsewhere."""
    lines = [line for line in data.split(b"\n") if line]
    if len(lines) > 1:
        k = rng.randrange(len(lines))
        line = lines[k] if rng.random() < 0.5 else lines.pop(k)
        lines.insert(rng.randrange(len(lines) + 1), line)
    return b"\n".join(lines) + b"\n"


SPLIT_MUTATIONS = (*map(_on_a_line, (_spaced, _empty_iri, _not_an_iri, _space_inside,
                                      _drop_term, _unclosed)),
                   _reappear)


class TestSplitParse:
    def test_matches_the_regex_loop_on_seeded_dumps(self):
        rng = random.Random(2201)
        loaded, errors = 0, set()
        for _ in range(500):
            data = valid_dump(rng)
            for _ in range(rng.randrange(0, 4)):
                data = rng.choice(SPLIT_MUTATIONS * 2 + MUTATIONS)(rng, data)
            expected = internals(reference_load, data)
            assert internals(split_load, data) == expected, data
            if isinstance(expected[0], type):
                errors.add(expected[1].split(":")[1].split("(")[0].split("'")[0].strip())
            else:
                loaded += 1
        assert loaded > 100
        assert errors >= {"not a triple line", "unreadable object term", "invalid UTF-8"}

    def test_a_store_dump_is_n_triples_and_loads_back(self):
        data = dump_store(cjk_store()).encode()
        assert n_triples(data) and dump_store(split_load(data)).encode() == data
        spaced = data.replace(b"#hasObject>", b"#has Object>", 1)  # no IRI holds a space
        line = spaced[:spaced.index(b"#has Object>")].count(b"\n") + 1
        expected = (MalformedGraphError, f"line {line}: not a triple line")
        assert internals(split_load, spaced) == internals(reference_load, spaced) == expected

    def test_the_load_holds_little_beside_the_store(self, tmp_path):
        path = tmp_path / "g.nt"
        path.write_bytes(dump_store(cjk_store()).encode())
        tracemalloc.start()
        try:
            with read_dump(path) as lines:
                store = load_store(lines)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) > 10000
        assert peak - held < held / 10

    @pytest.mark.parametrize("line,error", [
        ('<a> <p> "x\ny" .', "unreadable object term '\"x\\ny\"'"),
        ("<a> <p> <x\ny> .", "unreadable object term '<x\\ny>'"),
        ('<a> <p> "x" .\n', "not a triple line"),
        ("<a> <p> <x>\n .", "unreadable object term '<x>\\n'"),
    ], ids=["in-a-literal", "in-an-iri", "at-the-end", "after-the-object"])
    def test_a_line_feed_reads_as_the_regex_reads_it(self, line, error):
        """`read_dump` never gives a line holding `\\n`.  The N-Triples grammar refuses one
        inside a term or beside the object, and a line ending in one does not end in ` .`."""
        assert not n_triples(line.encode() + b"\n")
        with pytest.raises(MalformedGraphError) as err:
            load_store([(1, '<a> <p> "x" .'), (2, line)])
        assert str(err.value) == f"line 2: {error}"


# What `str.strip()` trims but N-Triples does not: only a space or a tab may stand
# between two terms (W3C, RDF 1.1 N-Triples, 2014).
NOT_NT_WHITESPACE = ("\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000")


class TestObjectWhitespace:
    """Spaces and tabs around the object load; any other whitespace makes it an
    unreadable term, as the N-Triples grammar has it."""

    @pytest.mark.parametrize("space", NOT_NT_WHITESPACE, ids=map(ascii, NOT_NT_WHITESPACE))
    @pytest.mark.parametrize("term", ["<o>", '"x"'], ids=["iri", "literal"])
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_other_whitespace_is_refused(self, space, term, before):
        text = space + term if before else term + space
        data = f'<a> <p> <o> .\n<a> <p> {text} .\n'.encode()
        expected = (MalformedGraphError, f"line 2: unreadable object term {text!r}")
        assert internals(split_load, data) == internals(reference_load, data) == expected

    @pytest.mark.parametrize("space", NOT_NT_WHITESPACE, ids=map(ascii, NOT_NT_WHITESPACE))
    @pytest.mark.parametrize("term", ["<o>", '"x"'], ids=["iri", "literal"])
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_kg_materialize_exits_3(self, capsys, tmp_path, space, term, before):
        text = space + term if before else term + space
        graph, axioms = tmp_path / "g.nt", tmp_path / "axioms.txt"
        graph.write_text(f"<a> <p> {text} .\n", encoding="utf-8")
        axioms.write_text("", encoding="utf-8")
        code = main(["kg", "materialize", str(graph), "--schema", str(axioms),
                     "--out", str(tmp_path / "closed.nt")])
        assert (code, capsys.readouterr().err) == (
            3, f"error: line 1: unreadable object term {text!r}\n")
        assert not (tmp_path / "closed.nt").exists()

    @pytest.mark.parametrize("space", NOT_NT_WHITESPACE, ids=map(ascii, NOT_NT_WHITESPACE))
    def test_a_dump_in_memory_is_trimmed_as_a_file(self, tmp_path, space):
        """`split_load`, the in-memory recipe, and `read_dump` read a line alike."""
        data = f"<a> <p> <o> .{space}\n{space}<b> <p> <o> .\n<c> <p> <o> . \t\r\n".encode()
        (tmp_path / "g.nt").write_bytes(data)

        def from_file(_):
            with read_dump(tmp_path / "g.nt") as lines:
                return load_store(lines)

        assert internals(split_load, data) == internals(from_file, data) == (
            MalformedGraphError, "line 1: not a triple line")
        data = data.split(b"\n", 2)[2]
        (tmp_path / "g.nt").write_bytes(data)
        assert internals(split_load, data) == internals(from_file, data) == internals(reference_load, data)

    @pytest.mark.parametrize("text", [" <o>", "<o>\t", "\t <o> ", ' "x"', '"x"\t', " \t\"x\"\t "])
    def test_spaces_and_tabs_load(self, text):
        data = f"<a> <p> {text} .\n".encode()
        store = split_load(data)
        assert internals(split_load, data) == internals(reference_load, data)
        assert [triple.object for triple in store] == ["x" if '"' in text else Iri("o")]


class TestLineEndWhitespace:
    """A dump line is trimmed only of what N-Triples allows at its ends: spaces,
    tabs and its line end.  Scripts and axiom files still trim any whitespace."""

    @staticmethod
    def bad_line(space, before):
        return space + "<a> <p> <o> ." if before else "<b> <p> <o> ." + space

    @pytest.mark.parametrize("space", NOT_NT_WHITESPACE, ids=map(ascii, NOT_NT_WHITESPACE))
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("command", ["materialize", "extract"])
    def test_other_whitespace_exits_3(self, capsys, tmp_path, space, before, command):
        graph, axioms, out = tmp_path / "g.nt", tmp_path / "axioms.txt", tmp_path / "out"
        graph.write_text(f"<a> <p> <o> .\n{self.bad_line(space, before)}\n", encoding="utf-8")
        axioms.write_text("", encoding="utf-8")
        argv = (["materialize", str(graph), "--schema", str(axioms)] if command == "materialize" else
                ["extract", str(graph), "--classes", str(LISTING_DIR / "classes.json"),
                 "--predicates", str(LISTING_DIR / "predicates.json")])
        code = main(["kg", *argv, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (3, "error: line 2: not a triple line\n")
        assert not out.exists()

    @pytest.mark.parametrize("space", NOT_NT_WHITESPACE, ids=map(ascii, NOT_NT_WHITESPACE))
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_read_dump_keeps_other_whitespace(self, tmp_path, space, before):
        path = tmp_path / "g.nt"
        path.write_bytes(f"{self.bad_line(space, before)}\r\n".encode())
        with read_dump(path) as lines:
            assert list(lines) == [(1, self.bad_line(space, before))]

    @pytest.mark.parametrize("line", [" <a> <p> <o> .", "\t<a> <p> <o> . \t", "<a> <p> <o> .\t\r"],
                             ids=["space", "tabs-and-spaces", "tab-before-crlf"])
    def test_spaces_tabs_and_the_line_end_are_trimmed(self, tmp_path, line):
        path = tmp_path / "g.nt"
        path.write_bytes(f"{line}\n<b> <p> <o> .\r\n".encode())
        with read_dump(path) as lines:
            assert list(lines) == [(1, "<a> <p> <o> ."), (2, "<b> <p> <o> .")]

    @pytest.mark.parametrize("space", NOT_NT_WHITESPACE, ids=map(ascii, NOT_NT_WHITESPACE))
    def test_scripts_and_axiom_files_trim_any_whitespace(self, tmp_path, space):
        axioms = tmp_path / "axioms.txt"
        axioms.write_text(f"{space}prop near{space}\n{space}symmetric near{space}\n", encoding="utf-8")
        assert load_schema(axioms).symmetric == ["near"]
        script = f"{space}imname; a.jpg; rimxxx{space}\n"
        assert parse_script(script) == parse_script("imname; a.jpg; rimxxx\n")


class TestIntegerLiterals:
    """An integer literal holds XSD's lexical form, `[+-]?[0-9]+`, and nothing else."""

    @pytest.mark.parametrize("body,shown", [
        ("1_000", "1_000"), (" 7", " 7"), ("7 ", "7 "), ("٣", "٣"), ("\\t7", "\t7"),
        ("+-1", "+-1"), ("", ""), ("1.5", "1.5"), ("0x1f", "0x1f"), ("9" * 5000, "9" * 5000),
    ], ids=["underscore", "leading-space", "trailing-space", "arabic-digit", "tab", "two-signs",
            "empty", "decimal", "hex", "too-many-digits"])
    def test_a_body_outside_xsd_is_refused(self, body, shown):
        line = f'<a> <p> "{body}"^^<{XSD_INTEGER_IRI}> .'
        with pytest.raises(MalformedGraphError) as err:
            load_store([(4, line)])
        assert str(err.value) == f"line 4: bad integer literal {shown!r}"

    @pytest.mark.parametrize("body,value", [("+5", 5), ("007", 7), ("-0", 0), ("-12", -12)])
    def test_xsd_forms_load(self, body, value):
        store = load_store([(1, f'<a> <p> "{body}"^^<{XSD_INTEGER_IRI}> .')])
        assert [triple.object for triple in store] == [value]

    def test_kg_extract_exits_3(self, capsys, tmp_path):
        graph = tmp_path / "g.nt"
        graph.write_text(f'<a> <p> "1_000"^^<{XSD_INTEGER_IRI}> .\n', encoding="utf-8")
        code = main(["kg", "extract", str(graph),
                     "--classes", str(LISTING_DIR / "classes.json"),
                     "--predicates", str(LISTING_DIR / "predicates.json"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == "error: line 1: bad integer literal '1_000'\n"
        assert not (tmp_path / "x.json").exists()
