import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from vtask.core import (
    Program,
    StateSpace,
    Statement,
    Vocabulary,
    build_language,
)
from vtask.tasks import Task, validate_task
from vtask.verify import reference_task

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
SAMPLE_DIR = ROOT / "sample_tasks"
TWO_CLASS_FILE = SAMPLE_DIR / "two_class_single_feature.pvt"
COLORED_BOX_FILE = SAMPLE_DIR / "colored_box.pvt"
REFERENCE_FAMILY_FILE = SAMPLE_DIR / "reference_family_10.pvt"
UP_CLOSED_FILE = SAMPLE_DIR / "up_closed_outputs.pvt"

# curated invalid documents: (text, line of the expected diagnostic,
# fragment of the expected message)
INVALID_DOCUMENTS = [
    ("", 1, "missing states"),
    ("program f 01\nstates 2\n", 1, "must come before"),
    ("states 2\nstates 2\n", 2, "duplicate states"),
    ("states 0\n", 1, "invalid state count"),
    ("states two\n", 1, "invalid state count"),
    ("states 2 3\n", 1, "exactly one"),
    ("states 2\nprogram f 01\nprogram f 10\n", 3, "duplicate declaration"),
    ("states 2\nprogram f 01\nprogram g 01\n", 3, "duplicates the states"),
    ("states 2\nprogram f 01\ninput f9\noutput f\n", 3, "undeclared name 'f9'"),
    ("states 2\nprogram f 01\ninput f\noutput g\n", 4, "undeclared name 'g'"),
    ("states 2\nprogram 9f 01\n", 2, "invalid name"),
    ("states 2\nprogram f 02\n", 2, "invalid character"),
    ("states 2\nprogram f 011\n", 2, "width 3"),
    ("states 2\nprogram f 01\ninput\noutput f\n", 3, "at least one name"),
    ("states 2\nprogram f 01\nlabel g 11\nexample f g\n", 4, "'->'"),
    ("states 2\nprogram f 01\nlabel g 11\nexample f -> g -> g\n", 4, "'->'"),
    (
        "states 2\nprogram f 01\nlabel g 11\ninput f\noutput f g\nexample f -> g\n",
        6,
        "cannot mix",
    ),
    ("states 2\nprogram f 01\ninput f\n", 3, "no output lines"),
    ("states 2\nprogram f 01\noutput f\n", 3, "no input lines"),
    ("states 2\nfrobnicate f 01\n", 2, "unknown directive"),
    ("states 2\nprogram f 01\nlabel g 11\nexample g -> g\n", 4, "cannot be a feature"),
    ("states 2\nprogram f 01\nlabel g 11\nexample f -> f\n", 4, "is a program"),
    ("states 2\nprogram f\n", 2, "takes a name and a literal"),
    ("states 2\nprogram f 01\nlabel g 11\nexample -> g\n", 4, "example form is"),
    ("states 2\nprogram f 01\nlabel g 11\nexample f -> 9x\n", 4, "invalid name '9x'"),
    ("states 2\nprogram f 01\nlabel g 11\nexample , -> g\n", 4, "example needs at least one feature"),
]


@pytest.fixture(scope="session")
def reference():
    """(task, name -> vocabulary index, names by vocabulary index)."""
    return reference_task()


@pytest.fixture(scope="session")
def ref_task(reference) -> Task:
    return reference[0]


@pytest.fixture(scope="session")
def ref_index(reference) -> dict:
    return reference[1]


def statement_of(index: dict, *names: str) -> Statement:
    return Statement.from_indices(index[n] for n in names)


def random_vocabulary(rng: random.Random, max_states: int, max_size: int) -> Vocabulary:
    n = rng.randint(1, max_states)
    size = rng.randint(0, min(max_size, 1 << n))
    values = rng.sample(range(1 << n), size)
    return Vocabulary.build((Program(v, n) for v in values), StateSpace(n))


def random_task(rng: random.Random, max_states: int = 5, max_vocab: int = 5) -> Task:
    """A uniformly scrappy valid task over a random small vocabulary."""
    while True:
        vocab = random_vocabulary(rng, max_states, max_vocab)
        lang = build_language(vocab)
        if len(lang) < 3:
            continue
        statements = list(lang)
        n_inputs = rng.randint(1, len(statements) - 1)
        inputs = rng.sample(statements, n_inputs)
        task_or_none = _random_outputs(rng, inputs, lang)
        if task_or_none is not None:
            return task_or_none


def _random_outputs(rng, inputs, lang):
    from vtask.core import extension_of_set

    extension = sorted(extension_of_set(inputs, lang), key=lambda s: s.members)
    if len(extension) < 2:
        return None
    n_outputs = rng.randint(1, len(extension) - 1)
    outputs = rng.sample(extension, n_outputs)
    return validate_task(inputs, outputs, lang)


def run_cli(*args: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m vtask`` on this checkout's sources."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "vtask", *args],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
