"""Golden CLI outputs: the SHA-256 of stdout and the exit code of a fixed
list of ``cli.main`` commands, pinned so that refactors prove they leave
every byte of output unchanged.

To re-pin after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and paste its output over
``GOLDEN``.
"""

import contextlib
import hashlib
import io
import random

import pytest

from vtask import cli

from conftest import COLORED_BOX_FILE, REFERENCE_FAMILY_FILE, TWO_CLASS_FILE, UP_CLOSED_FILE

_CENSUS_FLAGS = {
    "plain": [],
    "shaped": ["--classification-shaped", "--structured", "--exemplars", "10"],
    "dedup": ["--dedup", "--exemplars", "10"],
}
_FILE_COMMANDS = {
    "lang": ["lang"],
    "check-empty": ["check", "--empty"],
    "check-empty-structured": ["check", "--empty", "--structured"],
    "search-set-all": ["search", "--set-policies", "all", "--structured"],
    "encode": ["encode"],
}
_FILES = {"box": COLORED_BOX_FILE, "two-class": TWO_CLASS_FILE}
# policy search over a dense language (all 2^10 statements): every
# selection-count row in both modes and both formats
_DENSE_SEARCH = {
    f"search-dense10-{mode}{suffix}": [
        "search", str(REFERENCE_FAMILY_FILE), "--mode", mode, *extra
    ]
    for mode in ("exhaustive", "pruned")
    for suffix, extra in (("", []), ("-structured", ["--structured"]))
}
# the dense language's rows, in both formats
_DENSE_LANG = {
    f"lang-dense10{suffix}": ["lang", str(REFERENCE_FAMILY_FILE), *extra]
    for suffix, extra in (("", []), ("-structured", ["--structured"]))
}
# set-policy search that finds correct set policies (and no single
# policy), so that set-policy rows render in both formats
_SET_SEARCH = {
    f"search-set-2-up-closed{suffix}": [
        "search", str(UP_CLOSED_FILE), "--set-policies", "2", *extra
    ]
    for suffix, extra in (("", []), ("-structured", ["--structured"]))
}
# one policy checked against the dense task: the one correct policy
# {f1 ... f8} (exit 0) and {f1}, which selects 512 statements (exit 1),
# in both formats
_DENSE_CHECK = {
    f"check-dense10-{verdict}{suffix}": [
        "check", str(REFERENCE_FAMILY_FILE), "--policy", policy, *extra
    ]
    for verdict, policy in (("correct", ",".join(f"f{i}" for i in range(1, 9))),
                            ("incorrect", "f1"))
    for suffix, extra in (("", []), ("-structured", ["--structured"]))
}
# census paths the sweep above misses
_CENSUS_EXTRA = {
    "census-3-3-truncated": ["--n-states", "3", "--vocab-size", "3",
                             "--max-tasks", "1000", "--exemplars", "5"],
    "census-4-3-structured": ["--n-states", "4", "--vocab-size", "3",
                              "--structured", "--exemplars", "10"],
    "census-5-2-time-budget-0": ["--n-states", "5", "--vocab-size", "2",
                                 "--time-budget", "0"],
    # the six-program dedup walk: orbit keys over all 720 relabelings
    "census-3-6-dedup": ["--n-states", "3", "--vocab-size", "6", "--dedup",
                         "--exemplars", "5"],
    # the dedup class sum over the cycles of all 120 relabelings
    "census-3-5-dedup-structured": ["--n-states", "3", "--vocab-size", "5", "--dedup",
                                    "--exemplars", "3", "--structured"],
    # a dedup counting walk cut after 25 of its 52 orbits
    "census-4-3-dedup-truncated": ["--n-states", "4", "--vocab-size", "3", "--dedup",
                                   "--max-tasks", "100000", "--exemplars", "20"],
    # the six-program walk over all C(16, 6) = 8,008 combinations
    "census-4-6": ["--n-states", "4", "--vocab-size", "6"],
    # an exemplar walk that meets languages already drawn
    "census-3-4-shaped-exemplars": ["--n-states", "3", "--vocab-size", "4",
                                    "--classification-shaped", "--exemplars", "200",
                                    "--structured"],
}


def _commands() -> dict[str, list[str]]:
    commands = {}
    for n, k in ((3, 3), (4, 3)):
        for flag, extra in _CENSUS_FLAGS.items():
            commands[f"census-{n}-{k}-{flag}"] = [
                "census", "--n-states", str(n), "--vocab-size", str(k), *extra
            ]
    for name, (command, *extra) in _FILE_COMMANDS.items():
        for label, path in _FILES.items():
            commands[f"{name}-{label}"] = [command, str(path), *extra]
    for name, extra in _CENSUS_EXTRA.items():
        commands[name] = ["census", *extra]
    commands.update(_DENSE_SEARCH)
    commands.update(_DENSE_CHECK)
    commands.update(_DENSE_LANG)
    commands.update(_SET_SEARCH)
    commands["verify-paper"] = ["verify-paper"]
    return commands


COMMANDS = _commands()

# name -> (exit code, SHA-256 of stdout)
GOLDEN = {
    "census-3-3-dedup": (0, "bed4c3595327294918633e6e99d593c793d61ee37ca580112c585de20c1537a5"),
    "census-3-3-plain": (0, "6c04cc8524136302861be115c8ba41cb04c57b710f174d14c78f5cd99ba5f861"),
    "census-3-3-shaped": (0, "9f513c8ad0a8426af26be22fd8732b9a5158d975a4f1aeed926df39b3af74009"),
    "census-3-3-truncated": (0, "8dd032962584f81ddda823ae1da73947116baceb6040178a6ed864532b5b374f"),
    "census-3-4-shaped-exemplars": (0, "3fdd086b33c5b84101f000392e66eb6982f565d3f4b158ddc8bf86cd35f5eccc"),
    "census-3-5-dedup-structured": (0, "162149ad5531ee8fe758c3477c9c7550dbb831b8f183a42e8b4f2b224fae1062"),
    "census-3-6-dedup": (0, "33f9d5f8f032ac4efc860481402227dbdc5c24cf70c7bb2cf452e6108ddbd38c"),
    "census-4-3-dedup": (0, "19a595d4a5e3db4023f656f2ed994751dc6510988133b4765210d965ac77fa7a"),
    "census-4-3-dedup-truncated": (0, "92d86a34b96315e4761e8d1bc2816063b887ae1aee1ca6a4449914cd6d29bee0"),
    "census-4-3-plain": (0, "790b5f1a2177f656f40f20c55f0d611dd7a48705db76c72267a508ab3eeed2d2"),
    "census-4-3-shaped": (0, "59d51fa786fffae055be35f7a747cdca49fc2e15660a246339b3936f78e601a9"),
    "census-4-3-structured": (0, "f7b090fb4ea59c11e84568909c3b3713edc426bfefeadc98f91b05f3fce47c1c"),
    "census-4-6": (0, "9fe5db9a9ed9ab6e8ef0afebada577004257f65d6ccc69f7ca4a198ab4345a34"),
    "census-5-2-time-budget-0": (0, "36ff1f3c5f6bc44fe8a8313cc76ab58bdb846b2b950037a1e2c18de7b64fa5c6"),
    "check-dense10-correct": (0, "69ab760e46d997612906753bce04318b1b38fff0af68e7410d5940688bd13f78"),
    "check-dense10-correct-structured": (0, "d4b185bc5c5370f21a14e34f50cfeca0f8bed3d9a2fd92d5e55aa37ed6336e39"),
    "check-dense10-incorrect": (1, "e3816706601878464c52b0b5ca0dc539bb36c8ec89cd9dca7994303be73e267b"),
    "check-dense10-incorrect-structured": (1, "4fa5df9bbd8cb3bc459dda05e08c5032fe3c3c839f2fac842a40d10cc4c28250"),
    "check-empty-box": (1, "b2b0e7a587e0caedfac0994f5bfd61425144e41bc0721f19e914d86a27313ae9"),
    "check-empty-structured-box": (1, "2f574cf5a3d15c476d13ffacd1050dab65d51b8e85b6aa42840b70d309124ccc"),
    "check-empty-structured-two-class": (1, "aa1b2d7bec4c5ca52868e2ae738ad3d3e977f50080f690585bf04f590c15393b"),
    "check-empty-two-class": (1, "98258905d5b2d4734d2ce7db48f26203a684a70ead18304ef13f9998bba97a30"),
    "encode-box": (0, "1a7b4e5a14c4617365c96bfd5bcec1c6ff6604d1bbd8b9d64861402ae7f7977b"),
    "encode-two-class": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lang-box": (0, "a0454a84a83da5267e02e5c636656a1c08201936b155ff3d79ebc14f41f7595a"),
    "lang-dense10": (0, "9eafea498ed0c83d6415feea82dd55b206319268cf7c5a3b318c64c939d5c3a1"),
    "lang-dense10-structured": (0, "5d79a680479c4944db5656e828d8ef12b5fadb06bd3dc05e65f650bb6980a8a4"),
    "lang-two-class": (0, "fb399bd2d74d280f2d7b9b6cfd20819db0dd30dc1abae66439320034ba661615"),
    "search-dense10-exhaustive": (0, "35a9b298df9f1424214e7c5282fba6a1a8cc8899a29dd99166f61de9be141b4a"),
    "search-dense10-exhaustive-structured": (0, "f722442eee6a5e7ade73cd18c995e14d80c5af8017fe6184bd9eb4d688882035"),
    "search-dense10-pruned": (0, "eb5d49cc1597f405f4f8afa5109087c64fc9224f0056ac410167d3fbc56b28fe"),
    "search-dense10-pruned-structured": (0, "1d0459dcb8529118c7fc61973ea8bfaae0d782e22d92fc1654465ae76b0039fe"),
    "search-set-2-up-closed": (0, "b969bd8950865a8cd63835282c583222f94f6891c39c05f005fc8210dddad64c"),
    "search-set-2-up-closed-structured": (0, "8c7c147cf9e2d5ce9d57080ad9bd0bb2758b81a662af70a6dedfbc2c854ce4f6"),
    "search-set-all-box": (1, "8e54cbaede179e9e0c54af1d59516152165c4f319b9a2c82b647d2df11f6443a"),
    "search-set-all-two-class": (1, "1635abc3e80e7e2ac65cd0a7ee8134a48ea1932fd9def40d6535afd9ee8b64d2"),
    "verify-paper": (0, "59e6019c1e0dd17adb1cb32e9c5af878c95892b22921612d0d7f113e899b0c30"),
}


def _run(argv: list[str]) -> tuple[int, str]:
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    stdout.flush()
    return code, hashlib.sha256(buffer.getvalue()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_digest(name):
    assert _run(COMMANDS[name]) == GOLDEN[name]


# --- many-output task files --------------------------------------------------
#
# Generated files whose outputs run to thousands of lines: planted dense
# tasks, whose outputs are every completion of {f1 f2 f3}, and seeded
# random tasks over eight states, whose outputs are every completion of a
# planted policy of one to three programs in the inputs' extension. The
# lines list their names in shuffled order, some twice, some lines repeat,
# and comments, labels and CRLF line ends appear. A few files are invalid,
# so their diagnostics are pinned too. One SHA-256 covers each command's exit
# code, stdout and stderr.


def _language(n_states: int, bits: list[int]) -> list[int]:
    """Member masks of every subset of programs that share a state."""
    inter = [(1 << n_states) - 1]
    for b in bits:
        inter += [value & b for value in inter]
    return [m for m, value in enumerate(inter) if value]


def _many_output_file(rng, n_states, programs, inputs, outputs, newline="\n") -> str:
    names = [name for name, _ in programs]

    def line(keyword, mask):
        members = [names[i] for i in range(len(names)) if mask >> i & 1]
        members += rng.sample(members, rng.randint(0, min(2, len(members))))
        rng.shuffle(members)
        return f"{keyword} " + " ".join(members) + rng.choice(["", "  # note"])

    lines = [f"# generated task file\nstates {n_states}"]
    # the last program is declared as a label, which I/O lines may name too
    lines += [
        f"{'label' if i == len(programs) - 1 else 'program'} {name} "
        + "".join(str(bits >> s & 1) for s in range(n_states))
        for i, (name, bits) in enumerate(programs)
    ]
    body = [line("input", m) for m in inputs] + [line("output", m) for m in outputs]
    body += rng.sample(body, 3)
    rng.shuffle(body)
    return newline.join(lines + body) + newline


def _many_output_files() -> dict[str, tuple[str, str]]:
    """label -> (file text, a program set that is a correct policy)."""
    rng = random.Random(29)
    files = {}
    for k in range(9, 15):
        n = k + 1
        programs = [(f"f{i}", ((1 << n) - 1) & ~(1 << (i - 1))) for i in range(1, k + 1)]
        outputs = [0b111 | rest << 3 for rest in range(1 << (k - 3))]
        text = _many_output_file(rng, n, programs, [0b1, 0b10], outputs, "\r\n" if k % 2 else "\n")
        files[f"dense{k}"] = text, "f1,f2,f3"
    while len(files) < 10:
        k = rng.randint(9, 12)
        # programs true in about 70% of the states share many states
        values = {sum(1 << s for s in range(8) if rng.random() < 0.7) for _ in range(k)}
        if 0 in values or len(values) < k:
            continue
        bits = sorted(values)
        rng.shuffle(bits)
        lang = _language(8, bits)
        a, b = rng.sample(range(k), 2)
        extension = [y for y in lang if y >> a & 1 or y >> b & 1]
        size = rng.randint(1, 3)
        candidates = [p for p in extension if p >> a & 1 and p.bit_count() == size]
        if not candidates:
            continue
        policy = rng.choice(candidates)
        outputs = [y for y in extension if y & policy == policy]
        if len(outputs) in (1, len(extension)):
            continue
        programs = [(f"p{i}", v) for i, v in zip(rng.sample(range(10, 100), k), bits)]
        text = _many_output_file(rng, 8, programs, [1 << a, 1 << b], outputs)
        members = ",".join(programs[i][0] for i in range(k) if policy >> i & 1)
        files[f"random{len(files)}"] = text, members
    # invalid files: an undeclared name, an invalid name, and an output
    # outside the inputs' extension
    dense, _ = files["dense10"]
    files["undeclared"] = dense.replace("output f1", "output f1 nope", 2), "f1"
    files["invalid-name"] = dense.replace("output f2", "output f2 9x", 1), "f1"
    files["outside"] = dense + "output f5\n", "f1"
    return files


def _many_output_commands(path: str, policy: str) -> dict[str, list[str]]:
    commands = {
        f"search-{mode}{suffix}": ["search", path, "--mode", mode, *extra]
        for mode in ("exhaustive", "pruned")
        for suffix, extra in (("", []), ("-structured", ["--structured"]))
    }
    commands["lang"] = ["lang", path]
    commands["check"] = ["check", path, "--policy", policy]
    commands["check-f1-structured"] = ["check", path, "--policy", policy.split(",")[0],
                                       "--structured"]
    return commands


def test_many_output_files_match_pinned_digest(tmp_path):
    digest = hashlib.sha256()
    for label, (text, policy) in sorted(_many_output_files().items()):
        path = tmp_path / f"{label}.pvt"
        path.write_bytes(text.encode())
        for name, argv in _many_output_commands(str(path), policy).items():
            buffer = io.BytesIO()
            stdout, stderr = io.TextIOWrapper(buffer), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            stdout.flush()
            digest.update(f"{label} {name} {code}\n".encode())
            digest.update(buffer.getvalue())
            digest.update(stderr.getvalue().encode())
    assert digest.hexdigest() == "3495f56e4a8cc1134874df634eb502bb2a7cca9078fc3aadc77ef6c1eb4eb06c"


if __name__ == "__main__":
    for name in sorted(COMMANDS):
        code, digest = _run(COMMANDS[name])
        print(f'    "{name}": ({code}, "{digest}"),')
