import hashlib
import subprocess
import sys

from conftest import ROOT

SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )


# stdout SHA-256 of reproduce_counterexample.py, the one script that names
# statements through dsl.render_statement
REPRODUCE_DIGEST = "c2eab478ace7f8433ed76332848ae7c6318608a23efd3418701d9906a03cd0fc"


def test_reproduce_counterexample_runs():
    result = run_script("reproduce_counterexample.py")
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == REPRODUCE_DIGEST


def test_census_sweep_classification_rows():
    result = run_script("census_sweep.py", "--classification")
    assert result.returncode == 0, result.stderr
    rows = {tuple(line.split()[:2]): line.split()[2:4] for line in result.stdout.splitlines()}
    assert rows[("3", "3")] == ["1580", "417"]
    assert rows[("10", "4")] == ["74819048989594", "2640082603988"]
    # the class sum's cost does not grow with the states, up to core's cap
    assert rows[("64", "4")] == [
        "11918584062632956812286215631062372310711333785107015923305980081556484759152202",
        "366308656712758792421500533945303517996341503024215800348846917835558888788432",
    ]
    # five-program languages, of up to 32 statements, print too
    assert rows[("3", "5")] == ["364638", "3173"]
    assert "capped:" not in result.stdout
    assert "Traceback" not in result.stderr


def test_census_sweep_dedup_rows():
    result = run_script("census_sweep.py", "--dedup")
    assert result.returncode == 0, result.stderr
    rows = {tuple(line.split()[:2]): line.split()[2:4] for line in result.stdout.splitlines()}
    assert rows[("3", "3")] == ["134770", "6813"]
    # dedup totals are a sum over classes of languages, so no point is capped
    assert rows[("10", "4")] == ["146126714471838", "63183960095"]
    assert rows[("64", "4")] == ["458513713103250902332884", "190333854047724940964"]
    assert "capped:" not in result.stdout
    assert "Traceback" not in result.stderr


def test_search_reach_smoke():
    result = run_script("search_reach.py", "--min-k", "10", "--max-k", "10", "--budget", "60")
    assert result.returncode == 0, result.stderr
    _, *rows, last = result.stdout.splitlines()
    # k, statements, family and exit code of each of the four searches,
    # then of the check of {f1}, which is not correct, in each family
    assert [(row.split()[:3], row.split()[-1]) for row in rows] == [
        (["10", "1024", family], code)
        for family in ("reference", "planted")
        for code in ("0",) * 4 + ("1",)
    ]
    runs = ("exhaustive text", "exhaustive structured", "pruned text", "pruned structured",
            "check --policy f1")
    assert last == "largest k within 60 s: " + ", ".join(
        f"{family} {run} 10" for family in ("reference", "planted") for run in runs
    )
