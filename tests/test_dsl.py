import json
import random
import re
import string
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from vtask import dsl, encoder
from vtask.core import Program, StateSpace, Statement, Vocabulary, build_language
from vtask.dsl import (
    TaskDocument,
    parse_program_literal,
    parse_task_file,
    realize_document,
    render_statement,
    serialize_check,
    serialize_language,
    serialize_report,
    serialize_task_document,
)
from vtask.errors import CapacityError, ParseError, TaskFileError, TaskValidationError
from vtask.search import SearchSpec, census
from vtask.tasks import check_policy, find_correct_policies, validate_task

from conftest import COLORED_BOX_FILE, INVALID_DOCUMENTS, TWO_CLASS_FILE, document_of_names


# -- program literals --------------------------------------------------------


def test_parse_program_literal_reading_order():
    p = parse_program_literal("01111", StateSpace(5))
    assert not p.includes_state(1)
    assert p.included_states() == (2, 3, 4, 5)


def test_parse_program_literal_full():
    assert parse_program_literal("11111", StateSpace(5)).bits == 0b11111


def test_parse_program_literal_width_mismatch():
    with pytest.raises(ParseError):
        parse_program_literal("0111", StateSpace(5))


def test_parse_program_literal_bad_character_column():
    with pytest.raises(ParseError) as info:
        parse_program_literal("01x11", StateSpace(5))
    assert info.value.column == 3


# -- document parsing --------------------------------------------------------


def test_parse_reference_file_reproduces_task(ref_task):
    doc = parse_task_file(TWO_CLASS_FILE.read_text())
    realized = realize_document(doc)
    assert realized.task == ref_task
    assert realized.names == ("f4", "f3", "f2", "f1")


def test_parse_classification_file(ref_task):
    doc = parse_task_file(COLORED_BOX_FILE.read_text())
    realized = realize_document(doc)
    assert realized.classification is not None
    assert realized.task is not None
    assert realized.task.inputs == ref_task.inputs
    assert realized.task.outputs == ref_task.outputs


def test_classification_file_builds_one_language(monkeypatch):
    built = []

    def counted(vocab):
        built.append(vocab)
        return build_language(vocab)

    monkeypatch.setattr(dsl, "build_language", counted)
    monkeypatch.setattr(encoder, "build_language", counted)
    realized = realize_document(parse_task_file(COLORED_BOX_FILE.read_text()))
    assert len(built) == 1
    assert realized.task.language is realized.language
    # each name sits at the index of its declared program
    declared = realized.document.declared()
    assert list(realized.language.vocabulary.programs) == [
        declared[name] for name in realized.names
    ]


def test_parse_normalizes_order_and_duplicates():
    text = (
        "states 2\n"
        "program b 11\n"
        "program a 10\n"
        "input b a\n"
        "input a b\n"
        "output a b\n"
    )
    doc = parse_task_file(text)
    assert [name for name, _ in doc.programs] == ["a", "b"]
    assert doc.inputs == (("a", "b"),)
    assert doc.outputs == (("a", "b"),)


def test_vocabulary_only_document():
    realized = realize_document(parse_task_file("states 3\n"))
    assert len(realized.language.vocabulary) == 0
    assert [s.members for s in realized.language] == [0]
    assert realized.task is None


def diagnostics_of(text: str):
    with pytest.raises(TaskFileError) as info:
        parse_task_file(text)
    return info.value.diagnostics


@pytest.mark.parametrize("text,line,fragment", INVALID_DOCUMENTS)
def test_invalid_documents_have_line_numbered_errors(text, line, fragment):
    diagnostics = diagnostics_of(text)
    matching = [d for d in diagnostics if d.line == line and fragment in d.message]
    assert matching, f"no diagnostic at line {line} containing {fragment!r}: {diagnostics}"


def test_all_errors_reported_not_just_first():
    text = (
        "states 2\n"
        "program f 01\n"
        "program f 10\n"     # duplicate name
        "input f9\n"          # undeclared
        "output f\n"
        "wibble\n"            # unknown directive
    )
    diagnostics = diagnostics_of(text)
    assert len(diagnostics) == 3
    assert [d.line for d in diagnostics] == [3, 4, 6]


def test_bad_literal_column_offsets_into_line():
    diagnostics = diagnostics_of("states 2\nprogram f 0x\n")
    (d,) = diagnostics
    assert d.line == 2
    # the literal starts at column 11; the bad character is its 2nd char
    assert d.column == 12


MALFORMED_FILE = (
    "states 3   # three states\n"
    "program\tf\t011\n"
    "program   g  110 # trailing comment\n"
    "program h 101\n"
    "  program 9bad 111\n"
    "program k\t0x1\n"
    "program m 11 # short literal\n"
    "label   lab   111\n"
    "input 1st f g\n"
    "input f  2nd\tg\n"
    "input f g  3rd#comment\n"
    "input\tf  \t undeclared_x g\n"
    "output $a f\n"
    "output f\t-b-  g\n"
    "output f g \tc.\n"
    "output f\tg  nope\n"
    "example f,g,9z -> lab\n"
    "example  f , bad!,g -> lab\n"
    "example f,,g\t-> lab\n"
    "example f,ghost -> lab\n"
    "example  h,\tlab -> lab\n"
    "example h -> f   # label is a program\n"
    "program dup\t\t011\n"
    "program f 111\n"
    "frobnicate f 011\n"
    "\tstates 4\n"
)

# (line, column, message) of every diagnostic of MALFORMED_FILE
MALFORMED_DIAGNOSTICS = [
    (5, 11, "invalid name '9bad'"),
    (6, 12, "invalid character 'x' in program literal (expected 0 or 1)"),
    (7, 11, "program literal '11' has width 2, expected 3"),
    (9, 7, "invalid name '1st'"),
    (10, 10, "invalid name '2nd'"),
    (11, 12, "invalid name '3rd'"),
    (12, 12, "reference to undeclared name 'undeclared_x'"),
    (13, 8, "invalid name '$a'"),
    (14, 10, "invalid name '-b-'"),
    (15, 13, "invalid name 'c.'"),
    (16, 13, "reference to undeclared name 'nope'"),
    (17, 13, "invalid name '9z'"),
    (18, 14, "invalid name 'bad!'"),
    (19, None, "cannot mix input/output lines with example lines"),
    (20, 11, "reference to undeclared name 'ghost'"),
    (21, 13, "'lab' is a label and cannot be a feature"),
    (22, 14, "'f' is a program; example labels must be declared with 'label'"),
    (23, 14, "program 'dup' duplicates the states of 'f' (line 2)"),
    (24, None, "duplicate declaration of 'f' (first declared on line 2)"),
    (25, 1, "unknown directive 'frobnicate' (expected one of states, program, label, "
     "input, output, example)"),
    (26, None, "duplicate states declaration"),
]


def test_malformed_file_diagnostics_are_pinned():
    diagnostics = diagnostics_of(MALFORMED_FILE)
    assert [(d.line, d.column, d.message) for d in diagnostics] == MALFORMED_DIAGNOSTICS


def test_a_duplicate_literal_still_declares_its_name():
    # the duplicate is the only diagnostic: the line naming 'b' reports nothing
    text = "states 2\nprogram a 01\nprogram b 01\ninput a\noutput b\n"
    diagnostics = diagnostics_of(text)
    assert [(d.line, d.column, d.message) for d in diagnostics] == [
        (3, 11, "program 'b' duplicates the states of 'a' (line 2)")
    ]


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\nstates 2   # trailing\nprogram f 01\ninput f\noutput f # tail\n"
    doc = parse_task_file(text)
    assert doc.n_states == 2
    assert doc.inputs == (("f",),)


# the characters other than \n and \r that str.splitlines breaks at
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_newline_and_carriage_return_end_a_line(char):
    # the character sits inside a comment, so line 2 holds the bad literal
    diagnostics = diagnostics_of(f"states 2 # note{char} more\nprogram a 1x\n")
    assert [(d.line, d.column, d.message) for d in diagnostics] == [
        (2, 12, "invalid character 'x' in program literal (expected 0 or 1)")
    ]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_each_line_end_counts_one_line(newline):
    text = newline.join(["states 2", "", "program a 1x", "input a", "output a", ""])
    diagnostics = diagnostics_of(text)
    assert [(d.line, d.column) for d in diagnostics] == [(3, 12)]


# -- where declarations may stand ----------------------------------------------

_UNKNOWN = "(expected one of states, program, label, input, output, example)"
_BEFORE = "the states declaration must come before other directives"

# (file, every diagnostic): directives that only start like a declaration,
# declarations of the wrong length between input and output lines, an
# indented states line after another directive, and example lines that
# name a label as a feature or a program as a label among input lines
_DECLARATION_PLACES = {
    "not-keywords": (
        "states 3\nprogram a 011\nstatesman 3\n  programs a 01\nlabel_x b 11\n"
        "\tstates_ 2\ninput a\noutput a\n",
        [
            (3, 1, f"unknown directive 'statesman' {_UNKNOWN}"),
            (4, 3, f"unknown directive 'programs' {_UNKNOWN}"),
            (5, 1, f"unknown directive 'label_x' {_UNKNOWN}"),
            (6, 2, f"unknown directive 'states_' {_UNKNOWN}"),
        ],
    ),
    "arity-between-io": (
        "states 2\nprogram a 01\ninput a\nprogram b\nlabel c 11 extra\n  states\n"
        "states 2 3\nlabel\noutput a\n",
        [
            (4, 1, "program takes a name and a literal"),
            (5, 1, "label takes a name and a literal"),
            (6, 3, "states takes exactly one number"),
            (7, 1, "states takes exactly one number"),
            (8, 1, "label takes a name and a literal"),
        ],
    ),
    "indented-states-after-program": (
        "program a 011\n \t states 3\ninput a\noutput a\n",
        [(1, None, _BEFORE)],
    ),
    # a label is declared after the programs, whatever its line
    "indented-states-and-duplicate": (
        "label a 01\n  states 2\nprogram a 10\n",
        [(1, None, _BEFORE), (1, None, "duplicate declaration of 'a' (first declared on line 3)")],
    ),
    "indented-states-and-io": (
        "input a\n\x0cstates 2\nprogram a 01\n",
        [(1, None, _BEFORE), (1, None, "input lines present but no output lines")],
    ),
    "example-kinds-among-inputs": (
        "states 2\nprogram f 01\nlabel g 11\ninput f\nexample g -> g\ninput f\n"
        "example f,g -> f\nexample f -> g\noutput f\n",
        [
            (5, None, "cannot mix input/output lines with example lines"),
            (5, 9, "'g' is a label and cannot be a feature"),
            (7, 11, "'g' is a label and cannot be a feature"),
            (7, 16, "'f' is a program; example labels must be declared with 'label'"),
        ],
    ),
    "example-kinds-before-declarations": (
        "states 2\ninput f\nexample f -> f\ninput g\nexample g,f -> g\nprogram f 01\n"
        "label g 11\n",
        [
            (3, None, "cannot mix input/output lines with example lines"),
            (3, 14, "'f' is a program; example labels must be declared with 'label'"),
            (5, 9, "'g' is a label and cannot be a feature"),
        ],
    ),
}


@pytest.mark.parametrize("name", _DECLARATION_PLACES)
def test_declaration_places_are_pinned(name):
    text, expected = _DECLARATION_PLACES[name]
    assert [(d.line, d.column, d.message) for d in diagnostics_of(text)] == expected


# whitespace that str.split breaks at but no line end
_SPLIT_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", " "]


@pytest.mark.parametrize("char", _SPLIT_ONLY, ids=lambda c: f"U+{ord(c):04X}")
def test_late_declarations_led_by_split_whitespace(char):
    text = (
        f"states 3\ninput a b\noutput a\n{char}output b a\n{char}program a 011\n"
        f"{char}label b 110\n"
    )
    doc = parse_task_file(text)
    # b (states 1 and 2) comes before a (states 2 and 3) in the vocabulary
    assert (doc.input_masks, doc.output_masks) == ((3,), (2, 3))
    assert serialize_task_document(doc) == (
        "states 3\nprogram a 011\nlabel b 110\ninput a b\noutput a\noutput a b\n"
    )
    late_states = (
        f"{char}input a b\n{char}states 3\noutput a\n{char}program a 011\n"
        f"{char}label b 110\n{char}states 3\n"
    )
    assert [(d.line, d.column, d.message) for d in diagnostics_of(late_states)] == [
        (1, None, _BEFORE),
        (6, None, "duplicate states declaration"),
    ]


# -- the reader against the name-tuple route ----------------------------------
#
# The oracle is the route the reader took before it read lines straight to
# member masks: each input and output line becomes the sorted tuple of its
# distinct names, and names become masks only when the task is built,
# through the vocabulary's program order, before validate_task.

# "label" and "output" are valid names as well as directives
_NAMES = ["a", "b", "f1", "f2", "g", "x_1", "Red", "_u", "label", "output"]


def _oracle_read(text: str):
    """(states, programs, labels, input lines, output lines) of a file
    without errors, each line as ``tuple(sorted(set(names)))``."""
    n_states, programs, labels, inputs, outputs = None, [], [], set(), set()
    for raw in re.split("\r\n|\r|\n", text):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        keyword, *rest = tokens
        if keyword == "states":
            n_states = int(rest[0])
        elif keyword in ("program", "label"):
            name, literal = rest
            program = Program(int(literal[::-1], 2), n_states)
            (programs if keyword == "program" else labels).append((name, program))
        else:
            (inputs if keyword == "input" else outputs).add(tuple(sorted(set(rest))))
    return n_states, programs, labels, tuple(sorted(inputs)), tuple(sorted(outputs))


def _oracle_task(n_states, programs, labels, inputs, outputs):
    """The names in vocabulary order, and the task's (input, output,
    extension) masks or the code of the invariant it breaks."""
    declared = dict(programs + labels)
    vocab = Vocabulary.build(declared.values(), StateSpace(n_states))
    by_value = {p.bits: name for name, p in declared.items()}
    names = tuple(by_value[b] for b in vocab.bits)
    bit = {name: 1 << i for i, name in enumerate(names)}
    masks = [[sum(bit[name] for name in line) for line in lines] for lines in (inputs, outputs)]
    try:
        task = validate_task(*masks, build_language(vocab))
    except TaskValidationError as err:
        return names, err.code
    return names, (task.input_mask, task.output_mask, task.extension_mask)


def _random_lines(rng: random.Random) -> list[list[str]]:
    """The token lists of a random file: programs and labels, two to five
    input and output lines each, with names repeated within a line and
    lines repeated, and some declarations after the lines that name them."""
    n = rng.randint(2, 6)
    k = rng.randint(2, min(7, (1 << n) - 1))
    values = rng.sample(range(1, 1 << n), k)
    names = rng.sample(_NAMES, k)
    n_labels = rng.randint(0, 2)
    decls = [
        ["label" if i < n_labels else "program", name, format(v, f"0{n}b")[::-1]]
        for i, (name, v) in enumerate(zip(names, values))
    ]
    rng.shuffle(decls)
    io = []
    for keyword in ("input", "output"):
        for _ in range(rng.randint(2, 5)):
            chosen = rng.sample(names, rng.randint(1, min(3, k)))
            chosen += rng.choices(chosen, k=rng.randint(0, 2))
            rng.shuffle(chosen)
            io.append([keyword, *chosen])
    io += rng.sample(io, 2)
    rng.shuffle(io)
    late = rng.randint(0, len(decls))
    return [["states", str(n)], *decls[:late], *io, *decls[late:]]


def _render(lines: list[list[str]], rng: random.Random) -> tuple[str, list[list[int]]]:
    """The text of token lists, spaced by runs of blanks, some with a
    comment, ended by LF, CRLF or CR; and the 1-based column of every
    token."""
    rendered, columns = [], []
    for tokens in lines:
        text = rng.choice(["", " ", "\t"])
        cols = []
        for token in tokens:
            if cols:
                text += "".join(rng.choices(" \t", k=rng.randint(1, 2)))
            cols.append(len(text) + 1)
            text += token
        rendered.append(text + rng.choice(["", " # note", "#c"]))
        columns.append(cols)
    newline = rng.choice(["\n", "\r\n", "\r"])
    return newline.join(rendered) + newline, columns


def test_reader_matches_the_name_tuple_route_on_random_files():
    rng = random.Random(29)
    outcomes = set()
    for _ in range(400):
        text, _ = _render(_random_lines(rng), rng)
        doc = parse_task_file(text)
        n_states, programs, labels, inputs, outputs = _oracle_read(text)
        expected = document_of_names(n_states, programs, labels, inputs, outputs)
        assert doc == expected and hash(doc) == hash(expected)
        assert (doc.inputs, doc.outputs) == (inputs, outputs)
        names, outcome = _oracle_task(n_states, programs, labels, inputs, outputs)
        try:
            realized = realize_document(doc)
        except TaskValidationError as err:
            assert err.code == outcome
        else:
            task = realized.task
            assert realized.names == names
            assert (task.input_mask, task.output_mask, task.extension_mask) == outcome
        outcomes.add(outcome if isinstance(outcome, str) else "valid")
    assert "valid" in outcomes and len(outcomes) > 2


def _with_fault(rng: random.Random, lines: list[list[str]], fault: str):
    """The lines with one fault put in, and the diagnostics it raises as
    (line index, token index, message, offset into the token)."""
    lines = [list(tokens) for tokens in lines]
    io = [i for i, tokens in enumerate(lines) if tokens[0] in ("input", "output")]
    decls = [i for i, tokens in enumerate(lines) if tokens[0] in ("program", "label")]
    i = rng.choice(io)
    if fault == "undeclared":
        # every undeclared name of a line is replaced; the first reports
        at = sorted(rng.sample(range(1, len(lines[i])), rng.randint(1, len(lines[i]) - 1)))
        for j in at:
            lines[i][j] = "nope"
        return lines, [(i, at[0], "reference to undeclared name 'nope'", 0)]
    if fault == "invalid":
        # each invalid name reports; the line's undeclared ones do not
        at = sorted(rng.sample(range(1, len(lines[i])), rng.randint(1, len(lines[i]) - 1)))
        bad = rng.choice(["9x", "$a", "b-c", "é"])
        for j in at:
            lines[i][j] = bad
        if len(lines[i]) > 2 and at[-1] < len(lines[i]) - 1:
            lines[i][-1] = "nope"
        return lines, [(i, j, f"invalid name {bad!r}", 0) for j in at]
    d = rng.choice(decls)
    literal = lines[d][2]
    if fault == "bad-literal":
        # the name stays declared, so the line naming it reports nothing
        at = rng.randrange(len(literal))
        lines[d][2] = literal[:at] + "x" + literal[at + 1 :]
        lines[i][1] = lines[d][1]
        message = "invalid character 'x' in program literal (expected 0 or 1)"
        return lines, [(d, 2, message, at)]
    # a program with the states of one before it, named by a later line
    first = min(j for j in decls if lines[j][0] == "program") if lines[d][0] == "label" else d
    lines.insert(first + 1, ["program", "dup", lines[first][2]])
    i = rng.choice([j for j, tokens in enumerate(lines) if tokens[0] in ("input", "output")])
    lines[i][1] = "dup"
    message = f"program 'dup' duplicates the states of {lines[first][1]!r} (line {first + 1})"
    return lines, [(first + 1, 2, message, 0)]


@pytest.mark.parametrize("fault", ["undeclared", "invalid", "bad-literal", "duplicate-literal"])
def test_reader_diagnostics_on_random_files(fault):
    rng = random.Random(fault)
    for _ in range(200):
        lines = _random_lines(rng)
        if fault == "duplicate-literal" and all(tokens[0] != "program" for tokens in lines):
            continue
        lines, faults = _with_fault(rng, lines, fault)
        text, columns = _render(lines, rng)
        expected = [
            (i + 1, columns[i][j] + offset, message) for i, j, message, offset in faults
        ]
        diagnostics = diagnostics_of(text)
        assert [(d.line, d.column, d.message) for d in diagnostics] == expected


def _planted_file(k: int) -> str:
    """A k-program task file whose 2^(k-3) output lines are every
    completion of {f1 f2 f3}; program fi is false in state i only."""
    lines = [f"states {k + 1}"] + [
        f"program f{i} " + "".join("0" if s == i else "1" for s in range(1, k + 2))
        for i in range(1, k + 1)
    ]
    lines += ["input f1", "input f2"]
    for rest in range(1 << (k - 3)):
        lines.append("output f1 f2 f3" + "".join(f" f{i + 4}" for i in range(k - 3) if rest >> i & 1))
    return "\n".join(lines) + "\n"


def test_reading_holds_no_line_beyond_its_mask():
    text = _planted_file(14)
    assert (len(text), text.count("\n")) == (72_091, 2_065)
    tracemalloc.start()
    try:
        doc = parse_task_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(doc.output_masks) == 1 << 11
    # the lines themselves weigh about four times the file
    assert peak < 10 * len(text)


# -- serialization round trips -----------------------------------------------


def test_serialize_parse_round_trip_reference():
    doc = parse_task_file(TWO_CLASS_FILE.read_text())
    text = serialize_task_document(doc)
    assert parse_task_file(text) == doc
    assert serialize_task_document(parse_task_file(text)) == text


NAME_ALPHABET = string.ascii_lowercase


def random_document(rng: random.Random) -> TaskDocument:
    n = rng.randint(1, 6)
    n_programs = rng.randint(1, 5)
    values = rng.sample(range(1 << n), min(n_programs, 1 << n))
    names: list[str] = []
    seen = set()
    while len(names) < len(values):
        name = "".join(rng.choices(NAME_ALPHABET, k=rng.randint(1, 8)))
        if name not in seen:
            seen.add(name)
            names.append(name)
    programs = [(names[i], Program(values[i], n)) for i in range(len(values))]
    classification = rng.random() < 0.4 and len(programs) >= 2
    if classification:
        split = rng.randint(1, len(programs) - 1)
        features, labels = programs[:split], programs[split:]
        examples = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, len(features))
            examples.append(
                (tuple(rng.sample([f for f, _ in features], k)), rng.choice(labels)[0])
            )
        return document_of_names(
            n_states=n, programs=features, labels=labels, examples=examples
        )
    n_lines = rng.randint(0, 3)
    inputs = []
    outputs = []
    for _ in range(n_lines):
        inputs.append(rng.sample([f for f, _ in programs], rng.randint(1, len(programs))))
        outputs.append(rng.sample([f for f, _ in programs], rng.randint(1, len(programs))))
    return document_of_names(
        n_states=n, programs=programs, inputs=inputs, outputs=outputs
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000_000))
def test_document_round_trip_property(seed):
    doc = random_document(random.Random(seed))
    text = serialize_task_document(doc)
    reparsed = parse_task_file(text)
    assert reparsed == doc
    assert serialize_task_document(reparsed) == text


def _noisy(text: str, rng: random.Random) -> str:
    """The same document with each separating space widened to a run of
    spaces and tabs, indented lines and trailing comments."""
    lines = []
    for line in text.splitlines():
        gaps = line.split(" ")
        line = gaps[0]
        for gap in gaps[1:]:
            line += "".join(rng.choices(" \t", k=rng.randint(1, 3))) + gap
        lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " # note", "#x"]))
    return "\n".join(lines) + "\n"


def test_document_round_trip_through_whitespace_and_comments():
    rng = random.Random(18)
    for _ in range(300):
        doc = random_document(rng)
        text = serialize_task_document(doc)
        assert parse_task_file(text) == doc
        assert parse_task_file(_noisy(text, rng)) == doc


# -- report serialization ----------------------------------------------------


def test_search_report_text_contents(ref_task):
    result = find_correct_policies(ref_task)
    data = serialize_report(result, "text", ("f4", "f3", "f2", "f1")).decode()
    assert "correct policies: 0" in data
    assert "checked: 16" in data
    assert "{f1}: 8" in data
    assert "{f3}: 6" in data


def test_search_report_structured_is_sorted_json(ref_task):
    result = find_correct_policies(ref_task)
    raw = serialize_report(result, "structured", ("f4", "f3", "f2", "f1"))
    tree = json.loads(raw)
    assert tree["checked"] == 16
    assert tree["correct_count"] == 0
    assert list(tree) == sorted(tree)
    assert tree["inputs"] == [["f2"], ["f1"]]


def test_report_bytes_deterministic(ref_task):
    result_a = find_correct_policies(ref_task)
    result_b = find_correct_policies(ref_task)
    for mode in ("text", "structured"):
        assert serialize_report(result_a, mode) == serialize_report(result_b, mode)


def test_empty_census_report_structured():
    report = census(SearchSpec(n_states=2, vocab_size=0))
    tree = json.loads(serialize_report(report, "structured"))
    assert tree["tasks_enumerated"] == 0
    assert tree["tasks_valid"] == 0
    assert tree["tasks_solvable"] == 0
    assert tree["tasks_unsolvable"] == 0
    assert tree["exemplars"] == []
    assert "elapsed" not in json.dumps(tree)


def test_census_report_text_mentions_totals():
    report = census(SearchSpec(n_states=1, vocab_size=1))
    text = serialize_report(report, "text").decode()
    assert "tasks valid: 2" in text
    assert "tasks solvable: 1" in text
    assert "truncated: false" in text


def test_serialize_unknown_mode_rejected(ref_task):
    with pytest.raises(ValueError):
        serialize_report(find_correct_policies(ref_task), "yaml")
    with pytest.raises(TypeError):
        serialize_report(object())  # type: ignore[arg-type]


_JSON_CHARS = "ab Z09\"\\/\n\t\x00\x1f\x7fé€\u2028\U0001f600"


def _random_json_string(rng):
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(5)))


def _random_json_tree(rng, depth):
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-(10**30), 10**30)
    if kind == 2:
        return rng.choice(
            [0.0, -0.0, 1.5, 1e300, 1e-7, float("inf"), float("-inf"), float("nan"), rng.uniform(-1e6, 1e6)]
        )
    if kind in (3, 4):
        return _random_json_string(rng)
    if kind == 5:
        return [_random_json_string(rng) for _ in range(rng.randrange(4))]
    if kind == 6:
        return tuple(_random_json_tree(rng, depth - 1) for _ in range(rng.randrange(4)))
    if kind == 7:
        return [_random_json_tree(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {
        _random_json_string(rng): _random_json_tree(rng, depth - 1)
        for _ in range(rng.randrange(4))
    }


def test_json_writer_matches_json_dumps_on_random_trees():
    # a tree with a non-finite float has no JSON text: both writers refuse it
    rng = random.Random(10)
    refused = 0
    for _ in range(2000):
        tree = _random_json_tree(rng, rng.randrange(5))
        try:
            expected = json.dumps(tree, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError:
            refused += 1
            with pytest.raises(ValueError):
                dsl._json_bytes(tree)
            continue
        assert dsl._json_bytes(tree) == expected.encode("utf-8")
    assert 0 < refused < 2000


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_json_writer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        dsl._json_bytes({"time_budget": value})


def test_render_statement_name_and_bitstring_forms(ref_task, ref_index):
    vocab = ref_task.language.vocabulary
    s = Statement.from_indices([ref_index["f1"], ref_index["f3"]])
    assert render_statement(s, vocab, ("f4", "f3", "f2", "f1")) == "{f1 f3}"
    assert render_statement(s, vocab) == "{11011 01111}"
    assert render_statement(Statement(0), vocab) == "{}"


def test_language_listing_empty_statement_first(ref_task):
    names = ("f4", "f3", "f2", "f1")
    lines = serialize_language(ref_task.language, names, "text").decode().splitlines()
    assert lines[0] == "language: 16 statements over 4 programs"
    assert lines[1] == "{}"
    tree = json.loads(serialize_language(ref_task.language, names, "structured"))
    assert tree["count"] == 16
    assert tree["statements"][0] == []
    assert tree["programs"]["f1"] == "01111"


def test_check_report_serialization(ref_task, ref_index):
    report = check_policy(ref_task, Statement.from_indices([ref_index["f1"]]))
    assert not report.correct
    text = serialize_check(report, "text", ("f4", "f3", "f2", "f1")).decode()
    assert "policy: {f1}" in text
    assert "selected 8 statements" in text
    assert "verdict: INCORRECT" in text
    tree = json.loads(serialize_check(report, "structured", ("f4", "f3", "f2", "f1")))
    assert tree["correct"] is False
    assert len(tree["selected"]) == 8


def test_serializers_reject_an_unknown_mode(ref_task, ref_index):
    with pytest.raises(ValueError, match="unknown serialization mode"):
        serialize_language(ref_task.language, None, "yaml")
    report = check_policy(ref_task, Statement.from_indices([ref_index["f1"]]))
    with pytest.raises(ValueError, match="unknown serialization mode"):
        serialize_check(report, "yaml")


def test_document_tree_of_a_classification_document():
    doc = parse_task_file(COLORED_BOX_FILE.read_text())
    tree = json.loads(dsl.serialize_document_tree(doc))
    assert tree["inputs"] == tree["outputs"] == []
    assert tree["labels"] == {"blue_actual": "11011", "human_blue": "11101"}
    assert tree["examples"] == [
        {"features": ["human_red"], "label": "human_blue"},
        {"features": ["red_signal"], "label": "blue_actual"},
    ]


# -- realization errors ------------------------------------------------------


def test_realize_rejects_oversized_state_space():
    with pytest.raises(CapacityError):
        realize_document(parse_task_file("states 65\n"))


def test_realize_rejects_oversized_vocabulary():
    lines = ["states 5"]
    for i in range(21):
        lines.append(f"program p{i:02d} " + format(i, "05b"))
    text = "\n".join(lines) + "\n"
    with pytest.raises(CapacityError) as info:
        realize_document(parse_task_file(text))
    assert info.value.cap_name == "max_vocab"
