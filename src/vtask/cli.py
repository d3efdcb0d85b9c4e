"""Command-line interface.

Commands: lang, check, search, census, encode, verify-paper. Exit codes
are a stable contract: 0 success or affirmative verdict, 1 negative
verdict, 2 usage or input error, 3 capacity cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import dsl
from .core import Statement
from .errors import CapacityError, VTaskError
from .search import SearchSpec, census
from .tasks import SEARCH_MODES, check_policy, find_correct_policies, find_correct_set_policies
from .verify import run_reference_checks

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _output_mode(args: argparse.Namespace) -> str:
    return "structured" if args.structured else "text"


def _emit(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _load(path: str) -> dsl.RealizedDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise VTaskError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise VTaskError(
            f"cannot read {path}: not UTF-8 text (byte {err.start}: {err.reason})"
        ) from err
    return dsl.realize_document(dsl.parse_task_file(text))


def _require_task(realized: dsl.RealizedDocument, command: str):
    if realized.task is None:
        raise VTaskError(
            f"{command} needs a task, but the file declares no input/output "
            "or example lines"
        )
    return realized.task


def _cmd_lang(args: argparse.Namespace) -> int:
    realized = _load(args.file)
    _emit(dsl.serialize_language(realized.language, realized.names, _output_mode(args)))
    return EXIT_OK


def _policy_from_args(args: argparse.Namespace, realized: dsl.RealizedDocument) -> Statement:
    if args.empty:
        return Statement(0)
    name_index = {name: i for i, name in enumerate(realized.names)}
    indices = []
    for name in args.policy.split(","):
        name = name.strip()
        if name not in name_index:
            raise VTaskError(f"unknown program name {name!r} in --policy")
        indices.append(name_index[name])
    return Statement.from_indices(indices)


def _cmd_check(args: argparse.Namespace) -> int:
    realized = _load(args.file)
    task = _require_task(realized, "check")
    report = check_policy(task, _policy_from_args(args, realized))
    _emit(dsl.serialize_check(report, _output_mode(args), realized.names))
    return EXIT_OK if report.correct else EXIT_NEGATIVE


def _cmd_search(args: argparse.Namespace) -> int:
    realized = _load(args.file)
    task = _require_task(realized, "search")
    mode = _output_mode(args)
    result = find_correct_policies(task, mode=args.mode)
    chunks = [dsl.serialize_report(result, mode, realized.names)]
    found = bool(result.correct)
    if args.set_policies is not None:
        cap = None if args.set_policies == "all" else int(args.set_policies)
        set_result = find_correct_set_policies(task, cap=cap)
        chunks.append(dsl.serialize_report(set_result, mode, realized.names))
        found = found or bool(set_result.correct)
    _emit(b"".join(chunks))
    affirmative = not found if args.invert else found
    return EXIT_OK if affirmative else EXIT_NEGATIVE


def _cmd_census(args: argparse.Namespace) -> int:
    spec = SearchSpec(
        n_states=args.n_states,
        vocab_size=args.vocab_size,
        require_classification_shaped=args.classification_shaped,
        dedup=args.dedup,
        max_tasks=args.max_tasks,
        time_budget=args.time_budget,
        exemplar_limit=args.exemplars,
    )
    report = census(spec)
    _emit(dsl.serialize_report(report, _output_mode(args)))
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    realized = _load(args.file)
    if realized.classification is None:
        raise VTaskError(
            "encode needs a classification file (label and example lines)"
        )
    task = _require_task(realized, "encode")
    doc = realized.document
    names = realized.names
    explicit = dsl.TaskDocument.build(
        n_states=doc.n_states,
        programs=doc.programs,
        labels=doc.labels,
        inputs=[[names[i] for i in s.indices()] for s in task.sorted_inputs()],
        outputs=[[names[i] for i in s.indices()] for s in task.sorted_outputs()],
    )
    if args.structured:
        _emit(dsl.serialize_document_tree(explicit))
    else:
        _emit(dsl.serialize_task_document(explicit).encode("utf-8"))
    return EXIT_OK


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    report = run_reference_checks()
    _emit(dsl.serialize_verify(report))
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtask",
        description="Build formal languages from task files, check and "
        "search policies, and census small task spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_structured(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--structured",
            action="store_true",
            help="emit a key-sorted JSON tree instead of text",
        )

    p_lang = sub.add_parser("lang", help="list every statement of the file's language")
    p_lang.add_argument("file")
    add_structured(p_lang)
    p_lang.set_defaults(handler=_cmd_lang)

    p_check = sub.add_parser("check", help="check one policy against the file's task")
    p_check.add_argument("file")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--policy", help="comma-separated program names")
    group.add_argument(
        "--empty", action="store_true", help="check the empty statement as policy"
    )
    add_structured(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_search = sub.add_parser(
        "search", help="search all statements of the language for correct policies"
    )
    p_search.add_argument("file")
    p_search.add_argument(
        "--mode",
        choices=SEARCH_MODES,
        default="exhaustive",
        help="exhaustive checks every statement; pruned skips statements "
        "longer than the output-length bound",
    )
    p_search.add_argument(
        "--set-policies",
        metavar="all|N",
        help="also search set policies: every subset of the language "
        "('all') or subsets of at most N statements",
    )
    p_search.add_argument(
        "--invert",
        action="store_true",
        help="exit 0 when NO correct policy exists (counterexample hunting)",
    )
    add_structured(p_search)
    p_search.set_defaults(handler=_cmd_search)

    p_census = sub.add_parser(
        "census", help="census every task over every vocabulary of a given size"
    )
    p_census.add_argument("--n-states", type=int, required=True)
    p_census.add_argument("--vocab-size", type=int, required=True)
    p_census.add_argument(
        "--dedup",
        action="store_true",
        help="census one vocabulary per orbit under relabeling of states",
    )
    p_census.add_argument(
        "--classification-shaped",
        action="store_true",
        help="census only tasks shaped like encoded classification problems",
    )
    p_census.add_argument(
        "--max-tasks",
        type=int,
        help="stop before the next vocabulary once this many valid tasks are "
        "counted; a limit the run reaches, and any six-program run, walks one "
        "vocabulary at a time with no other bound, so pass --time-budget too",
    )
    p_census.add_argument(
        "--time-budget",
        type=float,
        help="stop once this many seconds have passed, checked before each "
        "class of the class sum and each vocabulary of a walk, the exemplar "
        "walk included",
    )
    p_census.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and ignored: the census runs in one process; kept so "
        "that existing command lines keep working",
    )
    p_census.add_argument(
        "--exemplars",
        type=int,
        default=3,
        help="list at most this many unsolvable tasks, the first in census order",
    )
    add_structured(p_census)
    p_census.set_defaults(handler=_cmd_census)

    p_encode = sub.add_parser(
        "encode", help="encode a classification file as an explicit task"
    )
    p_encode.add_argument("file")
    add_structured(p_encode)
    p_encode.set_defaults(handler=_cmd_encode)

    p_verify = sub.add_parser(
        "verify-paper",
        help="run the built-in reference counterexample verification suite",
    )
    p_verify.set_defaults(handler=_cmd_verify_paper)

    return parser


def _check_census_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject out-of-range census arguments as usage errors, before the
    library sees them."""
    if args.n_states < 1:
        parser.error("--n-states must be at least 1")
    if args.vocab_size < 0:
        parser.error("--vocab-size must be nonnegative")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.exemplars < 0:
        parser.error("--exemplars must be nonnegative")
    if args.max_tasks is not None and args.max_tasks < 0:
        parser.error("--max-tasks must be nonnegative")
    # written so that NaN fails too
    if args.time_budget is not None and not 0 <= args.time_budget < math.inf:
        parser.error("--time-budget must be a finite nonnegative number of seconds")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "set_policies", None) not in (None, "all"):
        try:
            if int(args.set_policies) < 0:
                raise ValueError
        except ValueError:
            parser.error("--set-policies takes 'all' or a nonnegative integer")
    if args.command == "census":
        _check_census_args(parser, args)
    try:
        return args.handler(args)
    except CapacityError as err:
        print(f"vtask: capacity: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except VTaskError as err:
        print(f"vtask: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
