"""Correctness gate: an independent mask-arithmetic oracle and the checks
every benchmark op's output must pass.

Statements are member masks over the positions of a ``TaskSpec``'s
program list (the benchmark's own order, not vtask's). The checks use only
facts that every correct implementation keeps: exact correct-policy sets,
set-policy counts, census totals and orbit counts. They never compare
stdout bytes, and they do not check pruned-mode ``checked`` or dedup task
totals, which a faster search or a weighted dedup may legitimately change.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import combinations


class GateFailure(Exception):
    """An op's exit code or output contradicts a known fact."""


@dataclass(frozen=True)
class TaskSpec:
    """A generated task: programs as (name, state bits), inputs and outputs
    as member masks over the program positions."""

    n_states: int
    programs: tuple[tuple[str, int], ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def literal(self, bits: int) -> str:
        return "".join("1" if bits >> i & 1 else "0" for i in range(self.n_states))

    def names(self, mask: int) -> list[str]:
        return [name for i, (name, _) in enumerate(self.programs) if mask >> i & 1]

    def task_file(self) -> str:
        lines = [f"states {self.n_states}"]
        lines += [f"program {name} {self.literal(bits)}" for name, bits in self.programs]
        lines += ["input " + " ".join(self.names(m)) for m in self.inputs]
        lines += ["output " + " ".join(self.names(m)) for m in self.outputs]
        return "\n".join(lines) + "\n"


def language(n_states: int, program_bits: list[int]) -> list[int]:
    """Member masks of every statement: subsets whose programs share a state."""
    k = len(program_bits)
    inter = [(1 << n_states) - 1] * (1 << k)
    out = [0]
    for mask in range(1, 1 << k):
        low = mask & -mask
        inter[mask] = inter[mask ^ low] & program_bits[low.bit_length() - 1]
        if inter[mask]:
            out.append(mask)
    return out


class Oracle:
    """Language, input extension and selections of one task, by definition."""

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        self.lang = language(spec.n_states, [b for _, b in spec.programs])
        self.ext_inputs = [y for y in self.lang if any(x & y == x for x in spec.inputs)]
        self.outputs = frozenset(spec.outputs)

    def selection(self, policy: int) -> frozenset[int]:
        return frozenset(y for y in self.ext_inputs if policy & y == policy)

    def is_valid(self) -> bool:
        ei = frozenset(self.ext_inputs)
        inputs = set(self.spec.inputs)
        return (
            bool(inputs) and inputs <= set(self.lang) and len(inputs) < len(self.lang)
            and bool(self.outputs) and self.outputs < ei
        )

    def correct_policies(self) -> frozenset[int]:
        """A correct policy is a subset of every output, so only submasks of
        the outputs' intersection are candidates."""
        common = -1
        for o in self.outputs:
            common &= o
        members = set(self.lang)
        found = set()
        sub = common
        while True:
            if sub in members and self.selection(sub) == self.outputs:
                found.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & common
        return frozenset(found)

    def set_policy_sel(self, policy: frozenset[int]) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for s in policy:
            out |= self.selection(s)
        return out

    def set_policy_counts(self, cap: int | None) -> int:
        """Number of correct set policies of at most ``cap`` statements.

        A statement whose selection is empty is free (it can join any
        policy); one whose selection leaves the outputs excludes every policy
        it joins; the rest are admissible, and a policy is correct iff its
        admissible part covers the outputs.
        """
        free, admissible = 0, []
        for s in self.lang:
            sel = self.selection(s)
            if not sel:
                free += 1
            elif sel <= self.outputs:
                admissible.append(sel)
        if len(admissible) > 16:
            raise ValueError("too many admissible statements to count by enumeration")
        limit = len(self.lang) if cap is None else cap
        total = 0
        for size in range(len(admissible) + 1):
            if size > limit:
                break
            for combo in combinations(admissible, size):
                if frozenset().union(*combo) == self.outputs:
                    total += sum(math.comb(free, j) for j in range(limit - size + 1))
        return total


# --- census facts -----------------------------------------------------------

# (n_states, vocab_size) -> (vocabularies, tasks_valid, tasks_solvable) for the
# unfiltered census; the 3/3, 4/3, 5/3 and 3/4 rows are the frozen reference
# facts, the tests recompute the small rows by brute force.
CENSUS_FACTS = {
    (1, 1): (2, 2, 1),
    (2, 2): (6, 262, 73),
    (2, 3): (4, 2524, 327),
    (2, 4): (1, 2268, 257),
    (3, 2): (28, 1904, 520),
    (3, 3): (56, 509_154, 25_008),
    (4, 2): (120, 9970, 2695),
    (4, 3): (560, 8_274_568, 386_327),
    (5, 2): (496, 46_112, 12_376),
    (5, 3): (4960, 93_623_370, 4_283_400),
    (6, 2): (2016, 201_082, 53_683),
    (3, 4): (70, 7_569_819_872, 3_708_690),
}

# classification-shaped census: (tasks_valid, tasks_solvable)
SHAPED_FACTS = {
    (1, 1): (1, 1),
    (2, 2): (20, 13),
    (2, 4): (29, 8),
    (3, 2): (130, 79),
    (3, 3): (1580, 417),
    (4, 2): (650, 385),
}

# (n_states, vocab_size) -> vocabulary orbits under state relabeling; the
# tests recompute each row by Burnside's lemma
DEDUP_ORBITS = {
    (3, 2): 9,
    (3, 3): 16,
    (4, 2): 17,
    (4, 3): 52,
    (5, 2): 28,
    (6, 1): 7,
    (5, 3): 134,
}


# --- output parsing ---------------------------------------------------------


def _json_documents(out: bytes) -> list[dict]:
    text = out.decode("utf-8")
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    return docs


def _text_reports(out: bytes) -> list[dict]:
    """Split concatenated text search reports into checked/correct fields;
    each correct policy is kept as its rendered line."""
    reports: list[dict] = []
    lines = out.decode("utf-8").splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("inputs: "):
            reports.append({})
        elif line.startswith("mode: "):
            reports[-1]["mode"] = line[6:]
        elif line.startswith("checked: "):
            reports[-1]["checked"] = int(line[9:])
        elif line.startswith("correct policies: "):
            n = int(line[18:])
            reports[-1]["correct"] = [lines[i + 1 + j].strip() for j in range(n)]
            i += n
        i += 1
    return reports


def _braced_names(text: str) -> list[list[str]]:
    """Name lists of the ``{a b}`` groups in a rendered policy line."""
    groups = re.findall(r"\{([^}]*)\}", text)
    if not groups:
        raise GateFailure(f"unparseable policy {text!r}")
    return [g.split() for g in groups]


def search_reports(out: bytes, structured: bool) -> list[dict]:
    """Normalized search reports: ``checked`` and ``correct`` as name lists
    (set policies as lists of name lists)."""
    if structured:
        return [
            {"mode": d["mode"], "checked": d["checked"], "correct": d["correct"]}
            for d in _json_documents(out)
        ]
    reports = _text_reports(out)
    for r in reports:
        if r["mode"].startswith("set"):
            r["correct"] = [_braced_names(p) for p in r["correct"]]
        else:
            r["correct"] = [_braced_names(p)[0] for p in r["correct"]]
    return reports


def census_totals(out: bytes, structured: bool) -> dict:
    if structured:
        return json.loads(out)
    fields = {}
    for line in out.decode("utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            fields[key.replace(" ", "_")] = value
    return {
        "vocabularies": int(fields["vocabularies"]),
        "tasks_valid": int(fields["tasks_valid"]),
        "tasks_solvable": int(fields["tasks_solvable"]),
        "tasks_unsolvable": int(fields["tasks_unsolvable"]),
        "truncated": fields["truncated"] == "true",
    }


# --- checks -----------------------------------------------------------------


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise GateFailure(message)


def _mask_of(spec: TaskSpec, names: list[str]) -> int:
    index = {name: i for i, (name, _) in enumerate(spec.programs)}
    mask = 0
    for name in names:
        if name not in index:
            raise GateFailure(f"unknown program name {name!r} in output")
        mask |= 1 << index[name]
    return mask


@dataclass(frozen=True)
class SearchExpectation:
    """What a search op over one task must report: the exact correct-policy
    set, the planted policy (if any) and the correct set-policy counts."""

    oracle: Oracle
    correct: frozenset[int]
    planted: int | None
    set_counts: dict  # set-policy argument ("all" or "N") -> expected count


def check_search(
    exp: SearchExpectation, rc: int, out: bytes, structured: bool,
    exhaustive: bool, set_arg: str | None,
) -> int:
    """Check a ``vtask search`` op; returns the number of tasks decided."""
    oracle, spec = exp.oracle, exp.oracle.spec
    m = len(oracle.lang)
    reports = search_reports(out, structured)
    want_reports = 1 if set_arg is None else 2
    _expect(len(reports) == want_reports, f"{len(reports)} reports, expected {want_reports}")
    single = reports[0]
    found = {_mask_of(spec, p) for p in single["correct"]}
    _expect(len(found) == len(single["correct"]), "duplicate correct policy")
    for p in found:
        _expect(oracle.selection(p) == oracle.outputs,
                f"reported policy {spec.names(p)} is not correct")
    _expect(found == exp.correct,
            f"correct policies {sorted(found)} != expected {sorted(exp.correct)}")
    if exp.planted is not None:
        _expect(exp.planted in found, "planted policy not found")
    if exhaustive:
        _expect(single["checked"] == m, f"exhaustive checked {single['checked']} != |L| = {m}")
    else:
        _expect(0 < single["checked"] <= m, "pruned checked out of range")
    any_found = bool(found)
    if set_arg is not None:
        sets = reports[1]
        cap = None if set_arg == "all" else int(set_arg)
        want_checked = (1 << m) if cap is None else sum(
            math.comb(m, j) for j in range(min(cap, m) + 1))
        _expect(sets["checked"] == want_checked,
                f"set-policy checked {sets['checked']} != {want_checked}")
        policies = {frozenset(_mask_of(spec, s) for s in p) for p in sets["correct"]}
        _expect(len(policies) == len(sets["correct"]), "duplicate correct set policy")
        for p in policies:
            _expect(cap is None or len(p) <= cap, "set policy over the cap")
            _expect(oracle.set_policy_sel(p) == oracle.outputs,
                    "reported set policy is not correct")
        want = exp.set_counts[set_arg]
        _expect(len(policies) == want, f"{len(policies)} correct set policies, expected {want}")
        any_found = any_found or bool(policies)
    _expect(rc == (0 if any_found else 1), f"exit code {rc}, expected {0 if any_found else 1}")
    return 1


def check_census(
    n_states: int, vocab_size: int, kind: str, rc: int, out: bytes, structured: bool
) -> int:
    """Check a ``vtask census`` op (kind: full, shaped or dedup); returns
    the number of valid tasks it decided."""
    _expect(rc == 0, f"census exit code {rc}")
    d = census_totals(out, structured)
    _expect(d["truncated"] is False, "census truncated")
    _expect(d["tasks_solvable"] + d["tasks_unsolvable"] == d["tasks_valid"],
            "solvable + unsolvable != valid")
    key = (n_states, vocab_size)
    if kind == "full":
        want = CENSUS_FACTS[key]
        got = (d["vocabularies"], d["tasks_valid"], d["tasks_solvable"])
        _expect(got == want, f"census {key} gave {got}, expected {want}")
    elif kind == "shaped":
        want = SHAPED_FACTS[key]
        got = (d["tasks_valid"], d["tasks_solvable"])
        _expect(got == want, f"shaped census {key} gave {got}, expected {want}")
    else:
        want = DEDUP_ORBITS[key]
        _expect(d["vocabularies"] == want,
                f"dedup census {key} kept {d['vocabularies']} vocabularies, expected {want}")
    return d["tasks_valid"]


def check_verify_paper(rc: int, out: bytes) -> int:
    _expect(rc == 0, f"verify-paper exit code {rc}")
    last = out.decode("utf-8").splitlines()[-1]
    _expect(last.startswith("result: "), "verify-paper printed no result line")
    passed, _, total = last[8:].split()[0].partition("/")
    _expect(passed == total and int(total) > 0, f"verify-paper: {last}")
    return 1


def check_encode(expected_inputs: set, expected_outputs: set, rc: int, out: bytes,
                 structured: bool) -> int:
    """Check ``vtask encode``: the explicit task has the example feature
    sets as inputs and feature set plus label as outputs."""
    _expect(rc == 0, f"encode exit code {rc}")
    if structured:
        doc = json.loads(out)
        inputs = {frozenset(line) for line in doc["inputs"]}
        outputs = {frozenset(line) for line in doc["outputs"]}
    else:
        inputs, outputs = set(), set()
        for line in out.decode("utf-8").splitlines():
            word, _, rest = line.partition(" ")
            if word == "input":
                inputs.add(frozenset(rest.split()))
            elif word == "output":
                outputs.add(frozenset(rest.split()))
    _expect(inputs == expected_inputs and outputs == expected_outputs,
            "encoded task differs from the classification examples")
    return 0
