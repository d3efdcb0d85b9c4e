import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from vtask import cli
from vtask.core import Program, StateSpace, Statement, Vocabulary, build_language
from vtask.dsl import parse_task_file, realize_document
from vtask.errors import CapacityError
from vtask.verify import run_reference_checks

from conftest import COLORED_BOX_FILE, TWO_CLASS_FILE, run_cli

ALPHA = str(TWO_CLASS_FILE)
BOX = str(COLORED_BOX_FILE)


def test_lang_lists_reference_language():
    result = run_cli("lang", ALPHA)
    assert result.returncode == 0
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "language: 16 statements over 4 programs"
    assert lines[1] == "{}"
    assert len(lines) == 17


def test_lang_empty_vocabulary(tmp_path):
    f = tmp_path / "empty.pvt"
    f.write_text("states 4\n")
    result = run_cli("lang", str(f))
    assert result.returncode == 0
    lines = result.stdout.decode().splitlines()
    assert lines == ["language: 1 statements over 0 programs", "{}"]


def test_lang_capacity_exit_code(tmp_path):
    lines = ["states 5"] + [
        f"program p{i:02d} " + format(i, "05b") for i in range(21)
    ]
    f = tmp_path / "big.pvt"
    f.write_text("\n".join(lines) + "\n")
    result = run_cli("lang", str(f))
    assert result.returncode == 3
    assert b"capacity" in result.stderr


def test_lang_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.pvt"
    f.write_text("states 5\nprogram f 0x111\n")
    result = run_cli("lang", str(f))
    assert result.returncode == 2
    assert b"line 2" in result.stderr


@pytest.mark.parametrize(
    "count,code,message",
    [
        # a superscript and an Arabic-Indic digit pass str.isdigit
        ("³", 2, "line 1, col 8: invalid state count '³'"),
        ("٣", 2, "line 1, col 8: invalid state count '٣'"),
        # more digits than Python converts to an int
        ("9" * 5000, 3, "capacity: state count of 5000 digits exceeds the 64-state cap"),
    ],
    ids=["superscript", "arabic-indic", "5000-digits"],
)
def test_state_count_takes_ascii_digits_only(tmp_path, count, code, message):
    f = tmp_path / "states.pvt"
    f.write_text(f"states {count}\nprogram f 011\n", encoding="utf-8")
    result = run_cli("lang", str(f))
    assert result.returncode == code
    assert message in result.stderr.decode("utf-8")
    assert b"Traceback" not in result.stderr
    assert result.stdout == b""


def test_overlong_state_count_hits_the_state_cap():
    with pytest.raises(CapacityError) as info:
        parse_task_file("states " + "9" * 5000 + "\n")
    assert info.value.cap_name == "max_states"
    # leading zeros do not count
    assert parse_task_file("states " + "0" * 5000 + "3\n").n_states == 3


def test_check_single_feature_policy():
    result = run_cli("check", ALPHA, "--policy", "f1")
    assert result.returncode == 1
    out = result.stdout.decode()
    assert "selected 8 statements" in out
    assert "verdict: INCORRECT" in out


def test_check_two_member_policy():
    result = run_cli("check", ALPHA, "--policy", "f1,f3")
    assert result.returncode == 1
    assert "selected 4 statements" in result.stdout.decode()


def test_check_empty_policy():
    result = run_cli("check", ALPHA, "--empty")
    assert result.returncode == 1
    assert "selected 12 statements" in result.stdout.decode()


def test_check_correct_policy_exits_zero(tmp_path):
    f = tmp_path / "solvable.pvt"
    f.write_text("states 2\nprogram a 11\nprogram b 10\ninput a\noutput a b\n")
    result = run_cli("check", str(f), "--policy", "b")
    assert result.returncode == 0
    assert "verdict: CORRECT" in result.stdout.decode()


def test_check_unknown_name():
    result = run_cli("check", ALPHA, "--policy", "f9")
    assert result.returncode == 2
    assert b"unknown program name" in result.stderr


def test_check_conflicting_flags_rejected():
    result = run_cli("check", ALPHA, "--policy", "f1", "--empty")
    assert result.returncode == 2


def test_search_reference_counterexample():
    result = run_cli("search", ALPHA)
    assert result.returncode == 1
    out = result.stdout.decode()
    assert "correct policies: 0" in out
    assert "checked: 16" in out


def test_search_invert_flag():
    result = run_cli("search", ALPHA, "--invert")
    assert result.returncode == 0


def test_search_pruned_mode():
    result = run_cli("search", ALPHA, "--mode", "pruned")
    assert result.returncode == 1
    assert "checked: 11" in result.stdout.decode()


def test_search_solvable_task(tmp_path):
    f = tmp_path / "solvable.pvt"
    f.write_text("states 2\nprogram a 11\nprogram b 10\ninput a\noutput a b\n")
    result = run_cli("search", str(f))
    assert result.returncode == 0
    assert "correct policies: 2" in result.stdout.decode()


def test_search_set_policies_all():
    result = run_cli("search", ALPHA, "--set-policies", "all")
    assert result.returncode == 1
    out = result.stdout.decode()
    assert "mode: set-full" in out
    assert "checked: 65536" in out


def test_search_set_policies_cap():
    result = run_cli("search", ALPHA, "--set-policies", "1")
    assert result.returncode == 1
    assert "mode: set-cap-1" in result.stdout.decode()


_REFERENCE_LINES = ("input f1", "input f2", "output f1 f3", "output f2 f4")


def _reference_family_file(tmp_path, k, task_lines=_REFERENCE_LINES):
    """Task lines, by default the reference task's inputs and outputs, over
    k programs that each miss one state of k + 1."""
    lines = [f"states {k + 1}"]
    for i in range(k):
        lines.append(f"program f{i + 1} " + "".join("0" if s == i else "1" for s in range(k + 1)))
    lines += task_lines
    path = tmp_path / f"family{k}.pvt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _count_statement_objects(monkeypatch) -> list[int]:
    made: list[int] = []
    init = Statement.__init__

    def counted(self, members):
        made.append(members)
        init(self, members)

    monkeypatch.setattr(Statement, "__init__", counted)
    return made


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("flags", [[], ["--structured"], ["--mode", "pruned"]])
def test_search_builds_statements_only_for_what_it_prints(tmp_path, monkeypatch, planted, flags):
    """A search over the 4,096 statements of the dense 12-program family
    builds a statement object only for each input, output and correct
    policy of its report."""
    lines = _REFERENCE_LINES
    if planted:
        # E_I ∩ E_p = the outputs for each p ⊆ {f1..f11} holding f11: 1,024 policies
        names = " ".join(f"f{i}" for i in range(1, 11))
        lines = (f"input {names}", f"output {names} f11", f"output {names} f11 f12")
    path = _reference_family_file(tmp_path, 12, lines)
    made = _count_statement_objects(monkeypatch)
    stdout = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["search", path, *flags])
    stdout.seek(0)
    out = stdout.read()
    if "--structured" in flags:
        tree = json.loads(out)
        printed = len(tree["inputs"]) + len(tree["outputs"]) + tree["correct_count"]
    else:
        lines = out.splitlines()
        printed = lines[0].count("{") + lines[1].count("{") + int(lines[5].split(": ")[1])
    assert code == (0 if planted else 1)
    assert printed == (1 + 2 + 1024 if planted else 2 + 2 + 0)
    assert len(made) <= printed


@pytest.mark.parametrize("flags", [[], ["--structured"]])
def test_lang_rows_build_no_statement_object(tmp_path, monkeypatch, flags):
    path = _reference_family_file(tmp_path, 12, ())
    made = _count_statement_objects(monkeypatch)
    stdout = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["lang", path, *flags])
    stdout.seek(0)
    every_name = sorted(f"f{i}" for i in range(1, 13))
    assert code == 0
    if flags:
        tree = json.loads(stdout.read())
        assert tree["count"] == 4096
        assert tree["statements"][0] == []
        assert tree["statements"][-1] == every_name
    else:
        lines = stdout.read().splitlines()
        assert lines[0] == "language: 4096 statements over 12 programs"
        assert lines[1] == "{}"
        assert lines[-1] == "{" + " ".join(every_name) + "}"
    assert made == []


def test_build_language_builds_no_statement_object(monkeypatch):
    made = _count_statement_objects(monkeypatch)
    vocab = Vocabulary.build(
        [Program(0x1FFF & ~(1 << i), 13) for i in range(12)], StateSpace(13)
    )
    assert len(build_language(vocab)) == 4096
    assert made == []


def test_search_set_policies_count_admissible_subsets(tmp_path):
    # 32 statements, none admissible: one subset to build, not 2^32
    result = run_cli("search", _reference_family_file(tmp_path, 5), "--set-policies", "all")
    assert result.returncode == 1
    assert f"checked: {1 << 32}" in result.stdout.decode()


def test_search_set_policies_unprintable_count_is_capped(tmp_path):
    # 2^16384 candidates: more decimal digits than Python converts to text
    result = run_cli("search", _reference_family_file(tmp_path, 14), "--set-policies", "all")
    assert result.returncode == 3
    assert b"decimal digits" in result.stderr
    assert b"Traceback" not in result.stderr


def test_search_set_policies_bad_value():
    result = run_cli("search", ALPHA, "--set-policies", "many")
    assert result.returncode == 2


def test_search_structured_output():
    result = run_cli("search", ALPHA, "--structured")
    tree = json.loads(result.stdout)
    assert tree["checked"] == 16
    assert tree["correct"] == []


def test_census_cli_small():
    result = run_cli("census", "--n-states", "2", "--vocab-size", "2")
    assert result.returncode == 0
    out = result.stdout.decode()
    assert "tasks valid: 262" in out
    assert "tasks solvable: 73" in out


def test_census_cli_workers_byte_identical():
    one = run_cli("census", "--n-states", "2", "--vocab-size", "2")
    many = str(min(4, os.cpu_count() or 1))
    split = run_cli("census", "--n-states", "2", "--vocab-size", "2", "--workers", many)
    assert one.stdout == split.stdout


@pytest.mark.parametrize(
    "fragment",
    [
        ["--n-states", "0"],
        ["--vocab-size", "-1"],
        ["--workers", "0"],
        ["--exemplars", "-1"],
        ["--max-tasks", "-1"],
        ["--time-budget", "-1"],
        ["--time-budget", "nan"],
    ],
)
def test_census_bad_arguments_are_usage_errors(fragment, capsys):
    argv = ["census", "--n-states", "2", "--vocab-size", "2", *fragment]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert fragment[0] in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["inf", "1e400"])
def test_census_infinite_time_budget_is_a_usage_error(budget, capsys):
    """JSON has no infinite number, so the budget is refused before any
    report would have to write it."""
    argv = ["census", "--n-states", "2", "--vocab-size", "2", "--structured", "--time-budget", budget]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--time-budget" in err


@pytest.mark.parametrize("cpus", [3, None])
def test_census_workers_bounded_by_cpu_count(cpus, monkeypatch, capsys):
    def no_census(*args, **kwargs):
        raise AssertionError("census must not start")

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "census", no_census)
    limit = cpus or 1
    with pytest.raises(SystemExit) as info:
        cli.main(["census", "--n-states", "2", "--vocab-size", "2",
                  "--workers", str(limit + 1)])
    assert info.value.code == 2
    assert f"between 1 and {limit}" in capsys.readouterr().err


def test_census_workers_flag_keeps_the_capacity_exit(monkeypatch, capsys):
    # --workers has no effect, so a run over a census cap exits 3 with two
    # workers as with one
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = cli.main(["census", "--n-states", "4", "--vocab-size", "6", "--workers", "2"])
    assert code == 3
    assert capsys.readouterr().err.startswith("vtask: capacity:")


def test_census_cli_zero_budget_truncates():
    result = run_cli(
        "census", "--n-states", "2", "--vocab-size", "2", "--time-budget", "0"
    )
    assert result.returncode == 0
    assert "truncated: true" in result.stdout.decode()


@pytest.mark.parametrize("n_states", ["64", "24"])
def test_census_budget_bounds_the_exemplar_walk(n_states, capsys):
    # every (0, x) vocabulary has only solvable shaped tasks, so the first
    # unsolvable one lies after 2^n - 1 vocabularies; the budget cuts the
    # walk, and the totals are the class sum's
    argv = ["census", "--n-states", n_states, "--vocab-size", "2", "--classification-shaped"]
    assert cli.main([*argv, "--exemplars", "0"]) == 0
    counted = capsys.readouterr().out.split("vocabularies:")[1].split("truncated:")[0]
    assert cli.main([*argv, "--exemplars", "3", "--time-budget", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.split("vocabularies:")[1].split("truncated:")[0] == counted
    assert "truncated: true" in out


def test_census_cli_capacity():
    result = run_cli("census", "--n-states", "65", "--vocab-size", "2")
    assert result.returncode == 3
    assert b"64-state cap" in result.stderr
    assert b"Traceback" not in result.stderr


def test_census_cli_exemplar_cap():
    # 10/4 has far more unsolvable tasks than the exemplar cap admits; the
    # cap fires before the exemplar walk, with no traceback
    result = run_cli(
        "census", "--n-states", "10", "--vocab-size", "4", "--exemplars", str(10**19)
    )
    assert result.returncode == 3
    assert result.stdout == b""
    assert b"100000-exemplar census cap" in result.stderr
    assert b"Traceback" not in result.stderr
    # the cap bounds the exemplars a run lists, not the limit asked for:
    # 2/2 lists all of its 189 unsolvable tasks
    result = run_cli(
        "census", "--n-states", "2", "--vocab-size", "2", "--exemplars", str(10**19),
        "--structured",
    )
    assert result.returncode == 0
    assert len(json.loads(result.stdout)["exemplars"]) == 189


def test_shaped_five_program_census_prints_its_totals():
    result = run_cli(
        "census", "--n-states", "3", "--vocab-size", "5", "--classification-shaped",
        "--structured",
    )
    assert result.returncode == 0
    assert result.stderr == b""
    tree = json.loads(result.stdout)
    assert (tree["tasks_valid"], tree["tasks_solvable"]) == (364_638, 3_173)
    assert len(tree["exemplars"]) == 3


def test_encode_colored_box_round_trips(ref_task):
    result = run_cli("encode", BOX)
    assert result.returncode == 0
    text = result.stdout.decode()
    assert "input red_signal" in text
    assert "output blue_actual red_signal" in text
    realized = realize_document(parse_task_file(text))
    assert realized.task is not None
    assert realized.task.inputs == ref_task.inputs
    assert realized.task.outputs == ref_task.outputs


def test_encode_requires_classification_file():
    result = run_cli("encode", ALPHA)
    assert result.returncode == 2
    assert b"classification" in result.stderr


def test_encode_structured():
    result = run_cli("encode", BOX, "--structured")
    tree = json.loads(result.stdout)
    assert tree["states"] == 5
    assert tree["labels"]["blue_actual"] == "11011"
    assert ["red_signal"] in tree["inputs"]


def test_verify_paper_passes_and_is_deterministic():
    first = run_cli("verify-paper")
    second = run_cli("verify-paper")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert b"result: 12/12 checks passed" in first.stdout


def test_verify_paper_named_failure_with_tampered_builder():
    def tampered(vocab: Vocabulary):
        lang = build_language(vocab)
        # drop the last statement: sizes, extensions, and search all shift
        return type(lang)(lang.vocabulary, lang.statements[:-1])

    report = run_reference_checks(language_builder=tampered)
    assert not report.all_passed
    failed = [c.name for c in report.checks if not c.passed]
    assert "language-size" in failed


def test_missing_file_is_usage_error():
    result = run_cli("lang", "/no/such/file.pvt")
    assert result.returncode == 2


def test_non_utf8_file_is_usage_error(tmp_path):
    f = tmp_path / "latin.pvt"
    f.write_bytes(b"states 2\nprogram a \xff\xfe\n")
    result = run_cli("lang", str(f))
    assert result.returncode == 2
    assert b"UTF-8" in result.stderr
    assert b"Traceback" not in result.stderr


def test_no_command_is_usage_error():
    result = run_cli()
    assert result.returncode == 2


# -- the exit-code contract over arbitrary argv and file bytes -----------------

_PROGRAM_LINES = ["program f 011", "program g 110", "program h 111", "program k 101"]
_TASK_LINES = [
    *_PROGRAM_LINES, "program f 01", "label l 111", "label m 010", "input f", "input g",
    "input f g", "input", "output f g", "output f h", "output g h", "output f k",
    "example f -> l", "example g -> m", "example f -> f", "# note", "",
]
_FILE_BODIES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(["states 3", *_TASK_LINES]), max_size=12).map("\n".join),
    st.tuples(
        st.lists(st.sampled_from(["input f", "input g", "input h", "input f g"]),
                 min_size=1, max_size=3),
        st.lists(st.sampled_from(["output f g", "output f h", "output g h", "output f g h",
                                  "output h k", "output f", "output h"]),
                 min_size=1, max_size=3),
    ).map(lambda doc: "\n".join(["states 3", *_PROGRAM_LINES, *doc[0], *doc[1]])),
    st.lists(st.sampled_from(["example f -> l", "example g -> m", "example f g -> l",
                              "example h -> m"]), min_size=1, max_size=3).map(
        lambda examples: "\n".join(["states 3", *_PROGRAM_LINES[:2], "label l 111",
                                    "label m 010", *examples])),
).map(lambda body: (body if isinstance(body, bytes) else body.encode())[:200])


def _options(*pairs):
    """One argv fragment per (option, values): the bare option when it takes
    no value, else the option followed by one of its values."""
    return st.one_of([
        st.just([option]) if not values else st.sampled_from(values).map(lambda v, o=option: [o, v])
        for option, values in pairs
    ])


_NUMBERS = ("-1", "0", "1", "2", "3", "nan", "x")
_POLICY = (("--policy", ("f", "f,g", "g,h", "zz", "")), ("--empty", ()))
# per subcommand: whether it takes a file, the fragments that lead its
# options, and the rest. Every census size is at most 3/3.
_COMMANDS = {
    "lang": (True, st.just([]), _options(("--structured", ()))),
    "check": (True, _options(*_POLICY), _options(*_POLICY, ("--structured", ()))),
    "search": (True, st.just([]), _options(
        ("--mode", ("exhaustive", "pruned", "fast")), ("--set-policies", ("all", *_NUMBERS)),
        ("--invert", ()), ("--structured", ()))),
    "encode": (True, st.just([]), _options(("--structured", ()))),
    "verify-paper": (False, st.just([]), st.just([])),
    "census": (False, st.tuples(st.sampled_from("123"), st.sampled_from("0123")).map(
        lambda size: ["--n-states", size[0], "--vocab-size", size[1]]), _options(
        ("--n-states", ("0", "1", "2", "3")), ("--vocab-size", ("-1", "0", "1", "2", "3")),
        ("--dedup", ()), ("--classification-shaped", ()), ("--max-tasks", _NUMBERS),
        ("--time-budget", _NUMBERS), ("--workers", ("-1", "0", "1", "x")),
        ("--exemplars", _NUMBERS), ("--structured", ()))),
}


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    takes_file, head, fragments = _COMMANDS[command]
    args = list(draw(head))
    for fragment in draw(st.lists(fragments, max_size=4)):
        args += fragment
    # one call in eight carries an argument no subcommand takes
    if draw(st.sampled_from([False] * 7 + [True])):
        args.append(draw(st.sampled_from(["--bogus", "x", "-1"])))
    body = draw(_FILE_BODIES) if takes_file else None
    return command, args, body


@settings(max_examples=200, deadline=None)
@given(_cli_calls())
def test_cli_exit_code_contract(tmp_path_factory, call):
    command, args, body = call
    argv = [command]
    if body is not None:
        path = tmp_path_factory.mktemp("cli") / "task.pvt"
        path.write_bytes(body)
        argv.append(str(path))
    stdout = io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv + args)
        except SystemExit as err:
            assert err.code == 2
            return
    assert code in (0, 1, 2, 3)
