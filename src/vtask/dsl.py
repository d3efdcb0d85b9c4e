"""Task-file parsing and deterministic serialization of reports.

Task files (extension ``.pvt``) are line oriented; ``#`` starts a comment
and blank lines are ignored. Directives:

    states <n>                      once, before everything else
    program <name> <bits>           declare a program ("01111" notation,
                                    leftmost character is state 1)
    label <name> <bits>             declare a label program
    input <name> [<name> ...]       one input statement per line
    output <name> [<name> ...]      one output statement per line
    example <feat>[,<feat>...] -> <label>
                                    one classification example per line

A file uses either input/output lines (explicit mode) or example lines
(classification mode); mixing them is an error. Names match
``[A-Za-z_][A-Za-z0-9_]*``. Parsing reports every problem it finds, each
with a line number, rather than stopping at the first.

Parsed documents are normalized (declarations and statement lines sorted,
duplicates removed), so serialization is a pure function of content and
parse-serialize round trips are byte stable. All report serializers are
deterministic: identical report content yields identical bytes, and
volatile fields (timings) are never serialized.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    MAX_STATES,
    Language,
    Program,
    StateSpace,
    Statement,
    Vocabulary,
    bit_flags,
    build_language,
)
from .encoder import ClassificationSpec, encode_classification
from .errors import CapacityError, ParseDiagnostic, ParseError, TaskFileError
from .search import CensusReport
from .tasks import (
    SEARCH_MODES,
    PolicyCheckReport,
    PolicySearchResult,
    Task,
    validate_task,
)
from .verify import VerifyReport

_DIRECTIVES = ("states", "program", "label", "input", "output", "example")


def parse_program_literal(text: str, space: StateSpace) -> Program:
    """Parse "01111" notation; leftmost character is state 1.

    Raises a parse error carrying the 1-based column of the first bad
    character, or a width complaint when the length is off.
    """
    if text.count("0") + text.count("1") != len(text):
        col, ch = next((col, ch) for col, ch in enumerate(text, start=1) if ch not in "01")
        raise ParseError(
            f"invalid character {ch!r} in program literal (expected 0 or 1)",
            column=col,
        )
    if len(text) != space.n_states:
        raise ParseError(
            f"program literal {text!r} has width {len(text)}, expected "
            f"{space.n_states}"
        )
    return Program(int(text[::-1], 2), space.n_states)


@dataclass(frozen=True)
class TaskDocument:
    """Normalized contents of a task file.

    Each input and output line is held as its member mask: bit i stands
    for ``names[i]``, the declared programs and labels in the order of the
    vocabulary :func:`realize_document` builds of them (ascending program).
    ``input_masks`` and ``output_masks`` are sorted and distinct. The name
    tuples ``inputs`` and ``outputs`` are built on first use."""

    n_states: int
    programs: tuple[tuple[str, Program], ...]
    labels: tuple[tuple[str, Program], ...]
    input_masks: tuple[int, ...]
    output_masks: tuple[int, ...]
    examples: tuple[tuple[tuple[str, ...], str], ...]

    @classmethod
    def build(
        cls,
        n_states: int,
        programs: Iterable[tuple[str, Program]] = (),
        labels: Iterable[tuple[str, Program]] = (),
        inputs: Iterable[Iterable[str]] = (),
        outputs: Iterable[Iterable[str]] = (),
        examples: Iterable[tuple[Iterable[str], str]] = (),
    ) -> "TaskDocument":
        """The document of these declarations and lines; every name an
        input or output line holds must be declared."""
        programs = tuple(programs)
        labels = tuple(labels)
        bit = _member_bits(programs + labels)
        return cls._normalized(
            n_states,
            programs,
            labels,
            {_line_mask(bit, line) for line in inputs},
            {_line_mask(bit, line) for line in outputs},
            examples,
        )

    @classmethod
    def _normalized(
        cls,
        n_states: int,
        programs: Iterable[tuple[str, Program]],
        labels: Iterable[tuple[str, Program]],
        input_masks: set[int],
        output_masks: set[int],
        examples: Iterable[tuple[Iterable[str], str]],
    ) -> "TaskDocument":
        """The document of these parts, sorted, the masks given as sets and
        duplicate examples dropped."""
        return cls(
            n_states=n_states,
            programs=tuple(sorted(programs)),
            labels=tuple(sorted(labels)),
            input_masks=tuple(sorted(input_masks)),
            output_masks=tuple(sorted(output_masks)),
            examples=tuple(
                sorted({(tuple(sorted(set(f))), lbl) for f, lbl in examples})
            ),
        )

    def declared(self) -> dict[str, Program]:
        table = dict(self.programs)
        table.update(self.labels)
        return table

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The declared names, each at its program's vocabulary index."""
        return _vocabulary_names(self.programs + self.labels)

    @cached_property
    def inputs(self) -> tuple[tuple[str, ...], ...]:
        """The input lines as sorted name tuples, in sorted order."""
        return self._name_lines(self.input_masks)

    @cached_property
    def outputs(self) -> tuple[tuple[str, ...], ...]:
        """The output lines as sorted name tuples, in sorted order."""
        return self._name_lines(self.output_masks)

    def _name_lines(self, masks: tuple[int, ...]) -> tuple[tuple[str, ...], ...]:
        names = self.names
        return tuple(sorted(tuple(sorted(compress(names, bit_flags(m)))) for m in masks))


def _vocabulary_names(declared: Iterable[tuple[str, Program]]) -> tuple[str, ...]:
    """Declared names in the order of their programs' state masks, the
    order in which :meth:`Vocabulary.build` indexes them."""
    return tuple(name for _, name in sorted((p.bits, name) for name, p in declared))


def _member_bits(declared: Iterable[tuple[str, Program]]) -> dict[str, int]:
    """Each declared name mapped to the member bit of its vocabulary
    index."""
    return {name: 1 << i for i, name in enumerate(_vocabulary_names(declared))}


def _line_mask(bit: dict[str, int], names: Iterable[str]) -> int:
    """The member mask of a line's names; a name ``bit`` lacks raises
    ``KeyError``."""
    mask = 0
    for name in names:
        mask |= bit[name]
    return mask


@dataclass
class _LineParse:
    """Raw per-line records collected before semantic checks. A record
    keeps its comment-stripped line, or for an input or output line its
    names; :func:`_columns` finds a token's column in the comment-stripped
    line once a diagnostic needs it."""

    lines: list[str]
    states: list[tuple[int, int]]
    programs: list[tuple[int, str, str, str]]  # line, name, literal, line body
    labels: list[tuple[int, str, str, str]]
    inputs: list[tuple[int, list[str]]]  # line, names
    outputs: list[tuple[int, list[str]]]
    examples: list[tuple[int, list[tuple[str, int]], tuple[str, int]]]
    first_directive_line: int | None


def _is_name(token: str) -> bool:
    """True when the token matches ``[A-Za-z_][A-Za-z0-9_]*``."""
    return token.isascii() and token.isidentifier()


def _columns(body: str, tokens: list[str]) -> list[int]:
    """The 1-based columns of the leading whitespace-separated tokens of a
    line, given as ``body.split()`` or a prefix of it. Only whitespace
    lies between two tokens, so each is the first match of its text after
    the one before."""
    columns = []
    at = 0
    for token in tokens:
        at = body.index(token, at)
        columns.append(at + 1)
        at += len(token)
    return columns


def _split_lines(text: str) -> list[str]:
    """The lines of a task file: a line ends at ``\\n``, ``\\r\\n`` or
    ``\\r``, and at no other character ``str.splitlines`` breaks at."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _scan_lines(text: str, errors: list[ParseDiagnostic]) -> _LineParse:
    lines = _split_lines(text)
    parsed = _LineParse(lines, [], [], [], [], [], [], None)
    for line_no, raw in enumerate(lines, start=1):
        body = raw.partition("#")[0]
        tokens = body.split()
        if not tokens:
            continue
        keyword = tokens[0]
        rest = tokens[1:]
        if parsed.first_directive_line is None:
            parsed.first_directive_line = line_no
        if keyword in ("input", "output"):
            if not rest:
                errors.append(
                    ParseDiagnostic(
                        line_no, _columns(body, tokens)[0], f"{keyword} needs at least one name"
                    )
                )
            else:
                # the names are checked once the declarations are known
                (parsed.inputs if keyword == "input" else parsed.outputs).append((line_no, rest))
        elif keyword in ("program", "label"):
            if len(rest) != 2:
                errors.append(
                    ParseDiagnostic(
                        line_no, _columns(body, tokens)[0], f"{keyword} takes a name and a literal"
                    )
                )
                continue
            name, literal = rest
            if not _is_name(name):
                errors.append(
                    ParseDiagnostic(line_no, _columns(body, tokens)[1], f"invalid name {name!r}")
                )
                continue
            record = (line_no, name, literal, body)
            (parsed.programs if keyword == "program" else parsed.labels).append(record)
        elif keyword == "states":
            _scan_states(line_no, body, tokens, parsed, errors)
        elif keyword == "example":
            _scan_example(line_no, body, tokens, parsed, errors)
        else:
            errors.append(
                ParseDiagnostic(
                    line_no,
                    _columns(body, tokens)[0],
                    f"unknown directive {keyword!r} (expected one of "
                    f"{', '.join(_DIRECTIVES)})",
                )
            )
    return parsed


def _scan_states(
    line_no: int,
    body: str,
    tokens: list[str],
    parsed: _LineParse,
    errors: list[ParseDiagnostic],
) -> None:
    """A state count is ASCII digits; one with more digits than Python
    converts to an int exceeds the state cap by far."""
    if len(tokens) != 2:
        errors.append(
            ParseDiagnostic(line_no, _columns(body, tokens)[0], "states takes exactly one number")
        )
        return
    value = tokens[1]
    digits = value.lstrip("0")
    if not (value.isascii() and value.isdigit()) or not digits:
        errors.append(
            ParseDiagnostic(line_no, _columns(body, tokens)[1], f"invalid state count {value!r}")
        )
        return
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise CapacityError(
            f"state count of {len(digits)} digits exceeds the {MAX_STATES}-state "
            "cap (one machine word per program); this is an implementation "
            "limit, not a model constraint",
            cap_name="max_states",
            cap_value=MAX_STATES,
        )
    parsed.states.append((line_no, int(digits)))


def _scan_example(
    line_no: int,
    body: str,
    tokens: list[str],
    parsed: _LineParse,
    errors: list[ParseDiagnostic],
) -> None:
    columns = _columns(body, tokens)
    key_col = columns[0]
    rest = list(zip(tokens[1:], columns[1:]))
    arrows = [i for i, (tok, _) in enumerate(rest) if tok == "->"]
    if len(arrows) != 1:
        errors.append(
            ParseDiagnostic(
                line_no, key_col, "example needs exactly one '->' separator"
            )
        )
        return
    arrow = arrows[0]
    feature_tokens, label_tokens = rest[:arrow], rest[arrow + 1 :]
    if not feature_tokens or len(label_tokens) != 1:
        errors.append(
            ParseDiagnostic(
                line_no,
                key_col,
                "example form is: example <feat>[,<feat>...] -> <label>",
            )
        )
        return
    features: list[tuple[str, int]] = []
    ok = True
    for chunk, col in feature_tokens:
        offset = 0
        for piece in chunk.split(","):
            if piece:
                if _is_name(piece):
                    features.append((piece, col + offset))
                else:
                    errors.append(
                        ParseDiagnostic(
                            line_no, col + offset, f"invalid name {piece!r}"
                        )
                    )
                    ok = False
            offset += len(piece) + 1
    label, label_col = label_tokens[0]
    if not _is_name(label):
        errors.append(ParseDiagnostic(line_no, label_col, f"invalid name {label!r}"))
        ok = False
    if ok and features:
        parsed.examples.append((line_no, features, (label, label_col)))
    elif ok:
        errors.append(
            ParseDiagnostic(line_no, key_col, "example needs at least one feature")
        )


def parse_task_file(text: str) -> TaskDocument:
    """Parse a task file, collecting every diagnostic before failing."""
    errors: list[ParseDiagnostic] = []
    parsed = _scan_lines(text, errors)

    n_states: int | None = None
    if not parsed.states:
        errors.append(ParseDiagnostic(1, None, "missing states declaration"))
    else:
        states_line, n_states = parsed.states[0]
        for line_no, _ in parsed.states[1:]:
            errors.append(
                ParseDiagnostic(line_no, None, "duplicate states declaration")
            )
        if parsed.first_directive_line != states_line:
            errors.append(
                ParseDiagnostic(
                    parsed.first_directive_line or 1,
                    None,
                    "the states declaration must come before other directives",
                )
            )

    declared: dict[str, int] = {}  # name -> line of its first declaration
    declarations = parsed.programs or parsed.labels
    literal_lines: dict[int, tuple[int, str]] = {}
    programs: list[tuple[str, Program]] = []
    labels: list[tuple[str, Program]] = []
    space = StateSpace(n_states) if n_states is not None and declarations else None
    for is_label, records in ((False, parsed.programs), (True, parsed.labels)):
        for line_no, name, literal, body in records:
            if name in declared:
                errors.append(
                    ParseDiagnostic(
                        line_no,
                        None,
                        f"duplicate declaration of {name!r} "
                        f"(first declared on line {declared[name]})",
                    )
                )
                continue
            # a name with a bad or duplicate literal is still declared, so
            # the lines that name it report nothing more
            declared[name] = line_no
            program = None
            if space is not None:
                try:
                    program = parse_program_literal(literal, space)
                except ParseError as err:
                    column = _columns(body, body.split())[2] + (err.column or 1) - 1
                    errors.append(ParseDiagnostic(line_no, column, str(err)))
            if program is None:
                continue
            if program.bits in literal_lines:
                prev_line, prev_name = literal_lines[program.bits]
                errors.append(
                    ParseDiagnostic(
                        line_no,
                        _columns(body, body.split())[2],
                        f"program {name!r} duplicates the states of "
                        f"{prev_name!r} (line {prev_line})",
                    )
                )
                continue
            literal_lines[program.bits] = (line_no, name)
            (labels if is_label else programs).append((name, program))

    label_names = {name for name, _ in labels}
    program_names = {name for name, _ in programs}

    def check_reference(line_no: int, name: str, col: int) -> bool:
        if name not in declared:
            errors.append(
                ParseDiagnostic(line_no, col, f"reference to undeclared name {name!r}")
            )
            return False
        return True

    # a name with a bad or duplicate literal is declared, but the file then
    # has errors and its masks go unused: it takes bit 0
    bit = dict.fromkeys(declared, 0)
    bit.update(_member_bits(programs + labels))

    def io_masks(records: list[tuple[int, list[str]]]) -> tuple[set[int], int | None]:
        """The member masks of the lines whose names are all declared, and
        the first line whose names are all valid. Any other line reports
        each of its invalid names, or else its first undeclared one."""
        masks = set()
        first = None
        for line_no, names in records:
            try:
                masks.add(_line_mask(bit, names))
            except KeyError:
                body = parsed.lines[line_no - 1].partition("#")[0]
                columns = _columns(body, body.split())[1:]
                if not all(map(_is_name, names)):
                    for name, col in zip(names, columns):
                        if not _is_name(name):
                            errors.append(ParseDiagnostic(line_no, col, f"invalid name {name!r}"))
                    continue
                j = next(j for j, name in enumerate(names) if name not in declared)
                check_reference(line_no, names[j], columns[j])
            if first is None:
                first = line_no
        return masks, first

    inputs, first_input = io_masks(parsed.inputs)
    outputs, first_output = io_masks(parsed.outputs)
    examples = []
    for line_no, features, (label, label_col) in parsed.examples:
        ok = True
        for name, col in features:
            if not check_reference(line_no, name, col):
                ok = False
            elif name in label_names:
                errors.append(
                    ParseDiagnostic(
                        line_no, col, f"{name!r} is a label and cannot be a feature"
                    )
                )
                ok = False
        if not check_reference(line_no, label, label_col):
            ok = False
        elif label in program_names:
            errors.append(
                ParseDiagnostic(
                    line_no,
                    label_col,
                    f"{label!r} is a program; example labels must be declared "
                    "with 'label'",
                )
            )
            ok = False
        if ok:
            examples.append(([n for n, _ in features], label))

    io_lines = [line for line in (first_input, first_output) if line is not None]
    if io_lines and parsed.examples:
        first_example = min(line for line, *_ in parsed.examples)
        errors.append(
            ParseDiagnostic(
                max(min(io_lines), first_example),
                None,
                "cannot mix input/output lines with example lines",
            )
        )
    elif first_input is not None and first_output is None:
        errors.append(
            ParseDiagnostic(first_input, None, "input lines present but no output lines")
        )
    elif first_output is not None and first_input is None:
        errors.append(
            ParseDiagnostic(first_output, None, "output lines present but no input lines")
        )

    # a missing state count is always among the errors
    if errors or n_states is None:
        raise TaskFileError(tuple(sorted(errors, key=lambda d: (d.line, d.column or 0))))
    return TaskDocument._normalized(n_states, programs, labels, inputs, outputs, examples)


def serialize_task_document(doc: TaskDocument) -> str:
    """Canonical text for a document; parsing it back yields an equal
    document."""
    lines = [f"states {doc.n_states}"]
    for name, program in doc.programs:
        lines.append(f"program {name} {program.to_bitstring()}")
    for name, program in doc.labels:
        lines.append(f"label {name} {program.to_bitstring()}")
    for names in doc.inputs:
        lines.append("input " + " ".join(names))
    for names in doc.outputs:
        lines.append("output " + " ".join(names))
    for features, label in doc.examples:
        lines.append(f"example {','.join(features)} -> {label}")
    return "\n".join(lines) + "\n"


def serialize_document_tree(doc: TaskDocument) -> bytes:
    """Key-sorted JSON rendering of a document."""
    tree = {
        "states": doc.n_states,
        "programs": {name: p.to_bitstring() for name, p in doc.programs},
        "labels": {name: p.to_bitstring() for name, p in doc.labels},
        "inputs": [list(line) for line in doc.inputs],
        "outputs": [list(line) for line in doc.outputs],
        "examples": [
            {"features": list(features), "label": label}
            for features, label in doc.examples
        ],
    }
    return _json_bytes(tree)


@dataclass(frozen=True)
class RealizedDocument:
    """Domain objects built from a document: the language, names aligned
    to the indices of its vocabulary, and the task, when the document
    defines one."""

    document: TaskDocument
    language: Language
    names: tuple[str, ...]
    task: Task | None
    classification: ClassificationSpec | None


def realize_document(doc: TaskDocument) -> RealizedDocument:
    """Build the vocabulary, language, and (if present) task described by
    a document. Capacity, encoding, and task-invariant errors propagate.
    """
    space = StateSpace(doc.n_states)
    classification = None
    task = None
    if doc.examples:
        classification = ClassificationSpec.build(
            space,
            features=dict(doc.programs),
            labels=dict(doc.labels),
            examples=doc.examples,
        )
        # the encoder builds the language of the same declared programs
        task = encode_classification(classification)
        language = task.language
    else:
        language = build_language(Vocabulary.build(doc.declared().values(), space))
        if doc.input_masks or doc.output_masks:
            task = validate_task(doc.input_masks, doc.output_masks, language)
    return RealizedDocument(
        document=doc,
        language=language,
        names=doc.names,
        task=task,
        classification=classification,
    )


# ---------------------------------------------------------------------------
# rendering and report serialization
# ---------------------------------------------------------------------------


def render_statement(
    statement: Statement, vocabulary: Vocabulary, names: Sequence[str] | None = None
) -> str:
    """"{f1 f3}" with names, "{01111 11011}" without; "{}" for the empty
    statement. One pass over the labels in statement order: for a single
    statement that is cheaper than a :class:`_NameTable`."""
    pairs = _ordered_labels(vocabulary, names)
    return "{" + " ".join(label for bit, label in pairs if statement.members & bit) + "}"


def _ordered_labels(vocabulary: Vocabulary, names: Sequence[str] | None) -> list[tuple[int, str]]:
    """(member bit, label) for each program, in the order a statement
    lists its members: sorted by name, or without names the programs'
    bitstrings in index order."""
    if names is None:
        labels = [p.to_bitstring() for p in vocabulary.programs]
        order = range(len(labels))
    else:
        labels = list(names)
        order = sorted(range(len(vocabulary)), key=labels.__getitem__)
    return [(1 << i, labels[i]) for i in order]


# A writer takes member masks and returns the pieces of their text, three
# per statement: its lead (a separator and line start, by default the one
# the writer was made with), then the two half-table entries. Given a count
# for each statement, it adds the count, written with ``count_format``, as
# a fourth piece.
_Writer = Callable[..., list[str]]


class _NameTable:
    """The name table of a report: every statement of a vocabulary written
    from its member mask, with its labels quoted by ``quote`` and listed
    in statement order (see :func:`_ordered_labels`).

    The order is split in two halves, and the table keeps the labels of
    every subset of each half. :meth:`writer` joins them once for one
    layout into a low table and two high tables: one for after an empty
    low half and one for after a nonempty one. So a statement costs two
    lookups, and its text is the two pieces they return, which the
    report's final join concatenates."""

    def __init__(
        self, vocabulary: Vocabulary, names: Sequence[str] | None, quote: Callable[[str], str] = str
    ) -> None:
        pairs = [(bit, quote(label)) for bit, label in _ordered_labels(vocabulary, names)]
        half = len(pairs) // 2
        self._halves = [self._subsets(part) for part in (pairs[:half], pairs[half:])]

    @staticmethod
    def _subsets(part: list[tuple[int, str]]) -> tuple[int, dict[int, tuple[str, ...]]]:
        """The member bits of a half, and each subset mask of them mapped
        to its labels."""
        table: dict[int, tuple[str, ...]] = {0: ()}
        for bit, label in part:
            table.update({m | bit: labels + (label,) for m, labels in table.items()})
        return sum(bit for bit, _ in part), table

    def writer(self, open_: str, sep: str, close: str, lead: str) -> _Writer:
        """The writer of statements laid out as their labels joined by
        ``sep`` between ``open_`` and ``close``; the empty statement is
        ``open_[0] + close[-1]``. ``lead`` is the default lead."""
        (low_bits, low_labels), (high_bits, high_labels) = self._halves
        low = {m: open_ + sep.join(labels) for m, labels in low_labels.items()}
        low[0] = ""
        first = {m: open_ + sep.join(labels) + close for m, labels in high_labels.items()}
        first[0] = open_[0] + close[-1]
        after = {m: sep + sep.join(labels) + close for m, labels in high_labels.items()}
        after[0] = close

        def write(
            masks: Sequence[int], lead: str = lead, counts: Sequence[int] = (), count_format: str = "{}"
        ) -> list[str]:
            step = 4 if counts else 3
            pieces = [lead] * (step * len(masks))
            pieces[1::step] = [low[m & low_bits] for m in masks]
            pieces[2::step] = [(after if m & low_bits else first)[m & high_bits] for m in masks]
            if counts:
                # counts repeat: each distinct one is written once
                written = {n: count_format.format(n) for n in set(counts)}
                pieces[3::4] = map(written.__getitem__, counts)
            return pieces

        return write


def _braced(table: _NameTable) -> _Writer:
    """Text statements, "{f1 f3}" and "{}" for the empty one, led by a
    space by default."""
    return table.writer("{", " ", "}", " ")


def _json_statements(table: _NameTable, newline: str) -> _Writer:
    """JSON statements, each laid out as :func:`_json_bytes` lays out a
    list of names whose bracket opens on the line ``newline`` starts, led
    by default as an item of a list: a comma and that line start."""
    inner = newline + "  "
    return table.writer("[" + inner, "," + inner, newline + "]", "," + newline)


def _listed(pieces: list[str], opening: str = "") -> list[str]:
    """The pieces of a list of items: the first item's lead loses its
    separator, the one character before its line start or its text, to
    ``opening``."""
    if pieces:
        pieces[0] = opening + pieces[0][1:]
    return pieces


def _json_list(pieces: list[str], newline: str) -> _Written:
    """A JSON list of items written as pieces, each led by a comma and the
    line start one level below ``newline``, laid out as :func:`_json_bytes`
    lays out a list opening on the line ``newline`` starts."""
    if not pieces:
        return _Written(["[]"])
    return _Written([*_listed(pieces, "["), newline + "]"])


def _members(lang: Language, mask: int) -> list[int]:
    """The member masks of the statements at a mask's set bits."""
    return list(compress(lang.masks, bit_flags(mask)))


def _set_policy_masks(report: PolicySearchResult) -> list[list[int]]:
    """The member masks of each correct set policy, in canonical order."""
    return [[s.members for s in p.sorted_statements()] for p in report.correct]


def _to_bytes(pieces: list[str]) -> bytes:
    """A text report from its pieces; the last line gets its newline."""
    pieces.append("\n")
    return "".join(pieces).encode("utf-8")


_json_string = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


class _Written(list):
    """JSON text already written at its place in the tree, as pieces
    that :func:`_write_json` copies as they are."""


def _json_bytes(tree) -> bytes:
    """The bytes of ``json.dumps(tree, sort_keys=True, indent=2)`` plus a
    newline, for trees of dicts with string keys, lists, tuples, strings,
    ints, finite floats, bools, None and :class:`_Written` text. A
    non-finite float raises ``ValueError``, as ``json.dumps`` does with
    ``allow_nan=False``. ``indent`` sends ``json.dumps`` to its pure-Python
    encoder; this writer joins a list of strings in one call."""
    out: list[str] = []
    _write_json(tree, "\n", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def _write_json(value, newline: str, out: list[str]) -> None:
    if isinstance(value, _Written):
        out += value
    elif isinstance(value, str):
        out.append(_json_string(value))
    elif value is None or isinstance(value, bool):
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(json.dumps(value, allow_nan=False))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    else:
        inner = newline + "  "
        if isinstance(value, dict):
            separator = "{" + inner
            for key, item in sorted(value.items()):
                out.append(separator + _json_string(key) + ": ")
                _write_json(item, inner, out)
                separator = "," + inner
            out.append(newline + "}")
        elif all(isinstance(item, str) for item in value):
            out.append("[" + inner + ("," + inner).join(map(_json_string, value)) + newline + "]")
        else:
            separator = "[" + inner
            for item in value:
                out.append(separator)
                _write_json(item, inner, out)
                separator = "," + inner
            out.append(newline + "]")


def serialize_report(
    report: PolicySearchResult | CensusReport,
    mode: str = "text",
    names: Sequence[str] | None = None,
) -> bytes:
    """Deterministic bytes for a search or census report.

    ``text`` is the human-readable layout; ``structured`` is a key-sorted
    JSON tree. Identical report content always yields identical bytes.
    """
    if mode not in ("text", "structured"):
        raise ValueError(f"unknown serialization mode {mode!r}")
    if isinstance(report, PolicySearchResult):
        if mode == "text":
            return _search_text(report, names)
        return _search_structured(report, names)
    if isinstance(report, CensusReport):
        if mode == "text":
            return _census_text(report)
        return _census_structured(report)
    raise TypeError(f"cannot serialize {type(report).__name__}")


def _search_text(report: PolicySearchResult, names: Sequence[str] | None) -> bytes:
    task = report.task
    lang = task.language
    table = _NameTable(lang.vocabulary, names)
    braced = _braced(table)
    out = [
        "inputs: ",
        *_listed(braced(_members(lang, task.input_mask))),
        "\noutputs: ",
        *_listed(braced(_members(lang, task.output_mask))),
        f"\nlanguage: {len(lang)} statements",
        f"\nmode: {report.mode}",
        f"\nchecked: {report.checked}",
        f"\ncorrect policies: {len(report.correct)}",
    ]
    if report.mode in SEARCH_MODES:
        out += braced([p.statement.members for p in report.correct], "\n  ")
        # one row per candidate, written from its language position
        out.append("\nselection counts:")
        counts = report.counts
        out += braced(lang.masks[: len(counts)], "\n  ", counts, ": {}")
        return _to_bytes(out)
    rows = [_listed(braced(masks)) for masks in _set_policy_masks(report)]
    for row in rows:
        out += ["\n  [", *row, "]"]
    if rows:
        # every correct set policy selects exactly the outputs
        out.append("\nselection counts:")
        selected = f"]: {task.output_mask.bit_count()}"
        for row in rows:
            out += ["\n  [", *row, selected]
    return _to_bytes(out)


# the start of a line at each nesting depth of a JSON report
_LINE = tuple("\n" + "  " * depth for depth in range(6))


def _search_structured(report: PolicySearchResult, names: Sequence[str] | None) -> bytes:
    task = report.task
    lang = task.language
    table = _NameTable(lang.vocabulary, names, _json_string)
    statements = _json_statements(table, _LINE[2])
    if report.mode in SEARCH_MODES:
        correct = statements([p.statement.members for p in report.correct])
        rows = _selection_rows_json(table, lang.masks, report.counts)
    else:
        policies = _set_policy_masks(report)
        members = _json_statements(table, _LINE[3])
        correct = [
            piece
            for masks in policies
            for piece in ("," + _LINE[2], *_json_list(members(masks), _LINE[2]))
        ]
        policy = _json_statements(table, _LINE[4])
        # every correct set policy selects exactly the outputs
        selected = task.output_mask.bit_count()
        rows = [
            {"policy": _json_list(policy(masks), _LINE[3]), "selected": selected}
            for masks in policies
        ]
    tree = {
        "inputs": _json_list(statements(_members(lang, task.input_mask)), _LINE[1]),
        "outputs": _json_list(statements(_members(lang, task.output_mask)), _LINE[1]),
        "language_size": len(lang),
        "mode": report.mode,
        "checked": report.checked,
        "correct_count": len(report.correct),
        "correct": _json_list(correct, _LINE[1]),
        "selection_counts": rows,
    }
    return _json_bytes(tree)


def _selection_rows_json(table: _NameTable, masks: Sequence[int], counts: Sequence[int]) -> _Written:
    """The ``selection_counts`` list of a single-statement search, laid out
    as :func:`_json_bytes` lays out the list of dicts it stands for, but
    written one row per candidate from its language position: each row
    is its lead, which opens it, its policy from the name table, and its
    count, which closes it."""
    row, key = _LINE[2], _LINE[3]
    policies = _json_statements(table, key)
    lead, count_format = "," + row + "{" + key + '"policy": ', "," + key + '"selected": {}' + row + "}}"
    return _json_list(policies(masks[: len(counts)], lead, counts, count_format), _LINE[1])


def _census_spec_fields(report: CensusReport) -> list[tuple[str, object]]:
    spec = report.spec
    return [
        ("n_states", spec.n_states),
        ("vocab_size", spec.vocab_size),
        ("require_classification_shaped", spec.require_classification_shaped),
        ("dedup", spec.dedup),
        ("max_tasks", spec.max_tasks),
        ("time_budget", spec.time_budget),
        ("exemplar_limit", spec.exemplar_limit),
    ]


def _census_text(report: CensusReport) -> bytes:
    lines = [
        "census:",
    ]
    for key, value in _census_spec_fields(report):
        rendered = "none" if value is None else str(value).lower() if isinstance(value, bool) else str(value)
        lines.append(f"  {key}: {rendered}")
    lines += [
        f"vocabularies: {report.vocabularies}",
        f"tasks enumerated: {report.tasks_enumerated}",
        f"tasks valid: {report.tasks_valid}",
        f"tasks solvable: {report.tasks_solvable}",
        f"tasks unsolvable: {report.tasks_unsolvable}",
        f"truncated: {str(report.truncated).lower()}",
        f"exemplars: {len(report.exemplars)}",
    ]
    out = ["\n".join(lines)]
    for programs, inputs, outputs in _census_exemplars(report, structured=False):
        out.append("\n  vocabulary [" + " ".join(programs) + "]")
        out += ["\n    inputs: ", *_listed(inputs), "\n    outputs: ", *_listed(outputs)]
    return _to_bytes(out)


def _census_exemplars(
    report: CensusReport, structured: bool
) -> Iterator[tuple[list[str], list[str], list[str]]]:
    """Each exemplar's program bitstrings and the pieces of its sorted
    inputs and outputs, each statement written from its members'
    bitstrings in index order: as text, or as JSON at its depth in the
    structured report. A vocabulary's programs and writer are built once,
    however many exemplars share it."""
    rendered: dict[Vocabulary, tuple[list[str], _Writer]] = {}
    for task in report.exemplars:
        lang = task.language
        vocab = lang.vocabulary
        if vocab not in rendered:
            programs = [p.to_bitstring() for p in vocab.programs]
            if structured:
                write = _json_statements(_NameTable(vocab, None, _json_string), _LINE[4])
            else:
                write = _braced(_NameTable(vocab, None))
            rendered[vocab] = programs, write
        programs, write = rendered[vocab]
        yield programs, write(_members(lang, task.input_mask)), write(_members(lang, task.output_mask))


def _census_structured(report: CensusReport) -> bytes:
    exemplars = [
        {
            "programs": programs,
            "inputs": _json_list(inputs, _LINE[3]),
            "outputs": _json_list(outputs, _LINE[3]),
        }
        for programs, inputs, outputs in _census_exemplars(report, structured=True)
    ]
    tree = dict(_census_spec_fields(report))
    tree.update(
        {
            "vocabularies": report.vocabularies,
            "tasks_enumerated": report.tasks_enumerated,
            "tasks_valid": report.tasks_valid,
            "tasks_solvable": report.tasks_solvable,
            "tasks_unsolvable": report.tasks_unsolvable,
            "truncated": report.truncated,
            "exemplars": exemplars,
        }
    )
    return _json_bytes(tree)


def serialize_language(lang: Language, names: Sequence[str] | None, mode: str = "text") -> bytes:
    if mode not in ("text", "structured"):
        raise ValueError(f"unknown serialization mode {mode!r}")
    vocab = lang.vocabulary
    # one row per statement, written from its mask
    if mode == "text":
        out = [f"language: {len(lang)} statements over {len(vocab)} programs"]
        out += _braced(_NameTable(vocab, names))(lang.masks, "\n")
        return _to_bytes(out)
    programs: dict[str, str] = {}
    for i, p in enumerate(vocab.programs):
        key = names[i] if names is not None else p.to_bitstring()
        programs[key] = p.to_bitstring()
    statements = _json_statements(_NameTable(vocab, names, _json_string), _LINE[2])
    tree = {
        "count": len(lang),
        "programs": programs,
        "statements": _json_list(statements(lang.masks), _LINE[1]),
    }
    return _json_bytes(tree)


def serialize_check(
    report: PolicyCheckReport, mode: str = "text", names: Sequence[str] | None = None
) -> bytes:
    task = report.task
    lang = task.language
    vocab = lang.vocabulary
    policy = [report.policy.statement.members]
    # language order is canonical order, so the rows need no sort
    selected = _members(lang, report.selection_mask)
    outputs = _members(lang, task.output_mask)
    if mode == "text":
        braced = _braced(_NameTable(vocab, names))
        out = [
            "policy: ",
            *braced(policy, ""),
            f"\nselected {len(selected)} statements (the inputs' extension filtered by the policy):",
            *braced(selected, "\n  "),
            f"\noutputs ({len(outputs)}):",
            *braced(outputs, "\n  "),
            "\nverdict: " + ("CORRECT" if report.correct else "INCORRECT"),
        ]
        return _to_bytes(out)
    if mode == "structured":
        table = _NameTable(vocab, names, _json_string)
        listed = _json_statements(table, _LINE[2])
        tree = {
            "policy": _Written(_json_statements(table, _LINE[1])(policy, "")),
            "selected": _json_list(listed(selected), _LINE[1]),
            "outputs": _json_list(listed(outputs), _LINE[1]),
            "correct": report.correct,
        }
        return _json_bytes(tree)
    raise ValueError(f"unknown serialization mode {mode!r}")


def serialize_verify(report: VerifyReport) -> bytes:
    total = len(report.checks)
    lines = []
    for i, check in enumerate(report.checks, start=1):
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"[{i:2d}/{total}] {check.name}: {status} ({check.detail})")
    passed = sum(1 for c in report.checks if c.passed)
    lines.append(f"result: {passed}/{total} checks passed")
    return _to_bytes(["\n".join(lines)])
