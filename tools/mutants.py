"""Mutation harness: each entry breaks the library on purpose, and the tests
it names must catch it.

An entry is (file under src/, exact source snippet, replacement, test node
ids).  For each entry the harness copies src/ to a temporary directory and
runs only the listed tests with the copy first on the path, twice: on the
unmutated copy, where they must pass, and after replacing the snippet,
where pytest must report a failure.  A listed test that fails unmutated,
and a snippet that does not occur exactly once, are errors, so the list
cannot rot silently when the code or the tests it names change.  Run from
the repository root:

    python tools/mutants.py

It prints one line per entry, caught, SURVIVED or an error, with the
seconds its tests took, and exits 0 only if every entry is caught.  To
run one entry's tests by hand, run pytest on its node ids.
Standard library only; it is not part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    snippet: str
    replacement: str
    tests: List[str]


MUTANTS = [
    Mutant("strays: a coarser key's first members widened without * w",
           "treecodes/grouping.py",
           "_widen([f * w for f in keyed.ids], w)", "_widen(keyed.ids, w)",
           ["tests/test_grouping_oracle.py::test_strays_match_the_row_table"]),
    Mutant("strays: a coarser key's first members not widened",
           "treecodes/grouping.py",
           "w = strides[keyed.q] // strides[q]", "w = 1",
           ["tests/test_grouping_oracle.py::test_strays_match_the_row_table"]),
    Mutant("_dependences: injective columns sure before sp too",
           "treecodes/verify.py",
           "not (sure[p] and p >= sp)", "not sure[p]",
           ["tests/test_verify_oracle.py::"
            "test_aligned_failure_on_the_layered_code_n16_is_every_rows"]),
    Mutant("_reaches: fire[r + 1] for fire[r + 2] in its decision",
           "treecodes/verify.py",
           "(f := fire[r + 2]) > fire[r + 1]", "(f := fire[r + 1]) > fire[r + 1]",
           ["tests/test_search_oracle.py::"
            "test_reaches_decides_the_minimum_reading_only_up_to_the_first_reaching_depth"]),
    Mutant("_reaches: sibling pairs scanned only where a depth keeps a difference",
           "treecodes/verify.py",
           "for i, j in sibs if k >= 0 else ():", "for i, j in sibs if k > 0 else ():",
           ["tests/test_search_oracle.py::test_least_bisects_only_over_ratios_above_the_floor"]),
    Mutant("_keeps: fire[e - s - 1] for fire[e - s]",
           "treecodes/verify.py",
           "fire[e - s]", "fire[e - s - 1]",
           ["tests/test_search_oracle.py::test_search_matches_eager_deepest_first_search"]),
    Mutant("_Bounds: ceil(theta w) - 1 for floor(theta w) in _reaches' fire",
           "treecodes/verify.py",
           "ratio[0] * w // ratio[1]", "-(-ratio[0] * w // ratio[1]) - 1",
           ["tests/test_search_oracle.py::test_search_matches_eager_deepest_first_search"]),
    Mutant("_dependences: a key's inputs A one input short",
           "treecodes/verify.py",
           "frozenset(range(n + a, n + sp))", "frozenset(range(n + a, n + sp - 1))",
           ["tests/test_verify_oracle.py::test_engine_matches_scalar_sweep_on_random_tables"]),
    Mutant("_first_rows: a window's counter skips its first column",
           "treecodes/verify.py",
           "for p in range(lo, hi):", "for p in range(lo + 1, hi):",
           ["tests/test_verify_oracle.py::test_engine_matches_scalar_sweep_on_random_tables"]),
    Mutant("_first_rows: a candidate's input agreement one position short",
           "treecodes/verify.py",
           "for q in range(a, sp):", "for q in range(a + 1, sp):",
           ["tests/test_verify_oracle.py::"
            "test_row_settle_alone_matches_scalar_sweep_at_caps_spread_over_its_cost"]),
    Mutant("check_tree_distance: rows read before a witness not grown on",
           "treecodes/verify.py",
           "read, rows = tee(rows)", "read = rows",
           ["tests/test_verify_oracle.py::test_engine_matches_scalar_sweep_on_random_tables"]),
    Mutant("PrefixTable.determines: only input residues 0 and 1 tested",
           "treecodes/core.py",
           "for r in range(1, sigma):", "for r in range(1, min(sigma, 2)):",
           ["tests/test_grouping_oracle.py::test_first_members_match_the_row_table"]),
    Mutant("Groups: n + q dropped without the determination test",
           "treecodes/grouping.py",
           "and self.table.determines(q, q)}", "}",
           ["tests/test_grouping_oracle.py::test_first_members_match_the_row_table"]),
    Mutant("_Stripped.members: a refinement skips each shared group's first member",
           "treecodes/grouping.py",
           "sorted(chain(self.later, dict.fromkeys(self.heads)))", "sorted(self.later)",
           ["tests/test_grouping_oracle.py::test_a_planted_collision_is_the_witness"]),
    Mutant("PrefixTable.determines: the residue classes of input p + 1 read for p",
           "treecodes/core.py",
           "run = sigma ** (j - p)", "run = sigma ** max(j - p - 1, 0)",
           ["tests/test_grouping_oracle.py::test_determines_matches_its_scalar_definition"]),
    Mutant("Groups.weights: a stripped set's tally drops its singleton groups",
           "treecodes/grouping.py",
           "| ({per: alone} if alone else {})", "",
           ["tests/test_grouping_oracle.py::test_a_planted_collision_is_the_witness"]),
    Mutant("DetStream._fill: a one-block refill leaves the counter where it was",
           "treecodes/rng.py",
           "self._counter += 1", "self._counter += 0",
           ["tests/test_rng.py::test_stream_is_sha256_of_key_and_counter"]),
    Mutant("random_code_search: a trial above the floor kept at the floor, unbisected",
           "treecodes/constructions.py",
           "best = (_least(levels, 2, floor, bounds), t, levels)", "best = (floor, t, levels)",
           ["tests/test_search_oracle.py::test_search_matches_eager_deepest_first_search"]),
    Mutant("LevelOrderChar: a file's labels decoded at load",
           "treecodes/core.py",
           "self._decode = lambda: _cut(labels(), offsets)",
           "self._levels = _cut(labels(), offsets)",
           ["tests/test_code_files.py::test_a_check_refused_at_the_table_charge_decodes_no_label",
            "tests/test_cli.py::test_fuzzed_argv_exits_0_to_3_and_names_every_refusal"]),
    Mutant("Groups._packed: the coarse part repeated r - 1 times",
           "treecodes/grouping.py",
           "product(range(r), range(wc))", "product(range(r - 1), range(wc))",
           ["tests/test_grouping_oracle.py::test_packed_pass_keys_group_as_the_id_pairs"]),
    Mutant("Groups._packed: coarse bytes written at the fine part's offset",
           "treecodes/grouping.py",
           "out[k * w + wf + b::r * w]", "out[k * w + b::r * w]",
           ["tests/test_grouping_oracle.py::test_packed_pass_keys_group_as_the_id_pairs"]),
    Mutant("PrefixTable.determines: a bit plane accepted on its head screen alone",
           "treecodes/core.py",
           "if whole[b::w].translate(bit) in (digit, flipped):", "if True:",
           ["tests/test_grouping_oracle.py::"
            "test_determines_on_binary_columns_matches_a_dict_of_sets"]),
    Mutant("_distance: a witness measured as the count, not the ratio",
           "treecodes/verify.py",
           "for s in range(d)], 0, ratio=True)", "for s in range(d)], 0, ratio=False)",
           ["tests/test_verify.py::test_distance_witness_reverifies"]),
    Mutant("PrefixTable.prefix(d) keeping d + 1 columns",
           "treecodes/core.py",
           "self.sigma_out, self.columns[:d])", "self.sigma_out, self.columns[:d + 1])",
           ["tests/test_core.py::test_prefix_table_of_depth_d_shares_the_first_d_columns"]),
    Mutant("_pair: a witness without its window's fields",
           "treecodes/verify.py",
           "dict(fields, x=list(x), y=list(y), measured=measured)",
           "dict(x=list(x), y=list(y), measured=measured)",
           ["tests/test_verify.py::test_distance_witness_reverifies",
            "tests/test_verify.py::test_eks_witness_reverifies"]),
    Mutant("Groups._paired: a range part taken as injective at any granularity",
           "treecodes/grouping.py",
           "isinstance(g.ids, range) and g.q == fine.q for g in parts",
           "isinstance(g.ids, range) for g in parts",
           ["tests/test_grouping_oracle.py::"
            "test_grouping_with_an_injective_part_matches_the_row_table"]),
    Mutant("Groups.weights: a range weighed as {1: size}",
           "treecodes/grouping.py",
           "return {per: len(grouped.ids)}", "return {1: len(grouped.ids)}",
           ["tests/test_grouping_oracle.py::"
            "test_grouping_with_an_injective_part_matches_the_row_table"]),
    Mutant("_first_occurrences: a refinement stripped over its members, not its prefixes",
           "treecodes/grouping.py",
           "_strip(ids, members, len(first), size)", "_strip(ids, members, len(first), len(ids))",
           ["tests/test_grouping_oracle.py::test_a_planted_collision_is_the_witness"]),
    Mutant("exact_distance: its depths' charges removed",
           "treecodes/verify.py",
           "_charges(table.prefix(d), _distance(d, Fraction(-1)), budget)[1]([])", "pass",
           ["tests/test_verify_oracle.py::"
            "test_exact_distance_matches_scalar_sweep_at_caps_spread_over_its_cost"]),
    Mutant("check_eks_condition: a window one position late",
           "treecodes/verify.py",
           "[(s, s + (1 << ell), need[ell][0]", "[(s + 1, s + 1 + (1 << ell), need[ell][0]",
           ["tests/test_verify.py::test_eks_reduction_fail_to_fail_at_block"]),
    Mutant("_parts: one subset fewer per window",
           "treecodes/verify.py",
           "for u in range(m)], m - need + 1)]", "for u in range(m)], m - need + 1)][1:]",
           ["tests/test_verify_oracle.py::test_engine_matches_scalar_sweep_on_random_tables"]),
    Mutant("_dependences: a key's R one sp short at its start",
           "treecodes/verify.py",
           "frozenset(n + test[0] for test in tests)",
           "frozenset(n + test[0] for test in tests[1:] or tests)",
           ["tests/test_verify_oracle.py::"
            "test_runner_finds_a_disagreement_at_each_end_of_a_windows_range"]),
    Mutant("_dependences: a key's R one sp short at its end",
           "treecodes/verify.py",
           "frozenset(n + test[0] for test in tests)",
           "frozenset(n + test[0] for test in tests[:-1] or tests)",
           ["tests/test_verify_oracle.py::"
            "test_runner_finds_a_disagreement_at_each_end_of_a_windows_range"]),
    Mutant("cli: --shift defaults to 1",
           "treecodes/cli.py",
           '"--shift": {"type": int, "default": 0}', '"--shift": {"type": int, "default": 1}',
           ["tests/test_cli.py::test_an_omitted_shift_prints_what_shift_0_prints"]),
]


def pytest(src: Path, tests: List[str]) -> subprocess.CompletedProcess:
    """The listed tests run with the copy src/ first on the path."""
    # pyproject.toml puts src/ first on the path; -o points it at the copy
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "-o", f"pythonpath={src}", *tests],
                          cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True)


def last_line(got: subprocess.CompletedProcess) -> str:
    return " ".join((got.stdout + got.stderr).strip().splitlines()[-1:])


def run(mutant: Mutant, work: Path) -> str:
    """The outcome of one entry: its tests run on a copy of src/, unmutated
    and then mutated."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / mutant.file
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        return f"ERROR: the snippet occurs {text.count(mutant.snippet)} times in {mutant.file}"
    got = pytest(src, mutant.tests)
    if got.returncode != 0:
        return f"ERROR: unmutated, pytest exited {got.returncode}: {last_line(got)}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    got = pytest(src, mutant.tests)
    if got.returncode == 1:
        return "caught"
    if got.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {got.returncode}: {last_line(got)}"


def main() -> int:
    caught = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for i, mutant in enumerate(MUTANTS):
            start = time.perf_counter()
            outcome = run(mutant, Path(tmp))
            caught += outcome == "caught"
            print(f"{i}  {time.perf_counter() - start:7.1f} s  {outcome}  {mutant.name}",
                  flush=True)
    print(f"{caught} of {len(MUTANTS)} caught")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
