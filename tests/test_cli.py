import argparse
import hashlib
import io
import json
import re
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from treecodes import acceptance, cli, constructions, core, partitions, serialize, verify


def run(capsys, *args):
    rc = cli.main(list(args))
    out = capsys.readouterr().out
    return rc, out


def test_build_trivial_and_verify_distance(tmp_path, capsys):
    rc, _ = run(
        capsys,
        "build",
        "--recipe-json",
        '{"kind":"trivial","n":6}',
        "--out-dir",
        str(tmp_path),
    )
    assert rc == 0
    emitted = json.loads((tmp_path / "code.json").read_text())
    assert emitted["kind"] == "table" and len(emitted["table"]) == 2 + 4 + 8 + 16 + 32 + 64
    rc, out = run(
        capsys, "verify", "--code", str(tmp_path / "code.json"), "--property", "distance",
        "--delta", "1",
    )
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_verify_failure_exit_code(tmp_path, capsys):
    (tmp_path / "code.json").write_text('{"kind":"identity","n":4}')
    run(capsys, "build", "--recipe-json", '{"kind":"eks_partition","k":2}', "--out-dir", str(tmp_path))
    rc, out = run(
        capsys,
        "verify",
        "--code",
        str(tmp_path / "code.json"),
        "--property",
        "neighborhood",
        "--partition",
        str(tmp_path / "partition.json"),
    )
    assert rc == 2
    assert json.loads(out)["witness"] is not None


def test_cap_exit_code(tmp_path, capsys):
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":8}', "--out-dir", str(tmp_path))
    rc, _ = run(
        capsys, "verify", "--code", str(tmp_path / "code.json"), "--property", "distance",
        "--delta", "1", "--cap", "100",
    )
    assert rc == 3


def test_usage_error_exit_code(tmp_path, capsys):
    rc, _ = run(capsys, "build", "--recipe-json", '{"kind":"wat"}', "--out-dir", str(tmp_path))
    assert rc == 1
    rc = cli.main(["verify", "--code", str(tmp_path / "missing.json"), "--property", "distance"])
    assert rc == 1


def test_audit_rejects_symbols_outside_sigma_out(tmp_path, capsys):
    # trivial(8) relabeled as a one-symbol code: not a violation of the bound
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":8}', "--out-dir", str(tmp_path))
    run(capsys, "build", "--recipe-json", '{"kind":"eks_partition","k":3}',
        "--out-dir", str(tmp_path))
    code = json.loads((tmp_path / "code.json").read_text())
    (tmp_path / "code.json").write_text(json.dumps(dict(code, sigma_out=1)))
    rc = cli.main(["audit", "--code", str(tmp_path / "code.json"),
                   "--partition", str(tmp_path / "partition.json")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "outside the output alphabet" in captured.err


_USAGE_MISTAKES = {
    "bound-params-array": (["bound", "--formula", "thm41", "--params", "[]"], {}),
    "bound-measured-array": (
        ["bound", "--formula", "eq5", "--params", '{"k":3,"measured":[1]}'], {}),
    "recipe-array": (["build", "--recipe-json", "[]", "--out-dir", "{dir}/out"], {}),
    "code-array": (["verify", "--code", "{dir}/bad.json", "--property", "distance"],
                   {"bad.json": [1, 2]}),
    "partition-array": (
        ["verify", "--code", "{dir}/code.json", "--property", "neighborhood",
         "--partition", "{dir}/bad.json"], {"bad.json": []}),
    "partition-without-levels": (
        ["verify", "--code", "{dir}/code.json", "--property", "neighborhood",
         "--partition", "{dir}/bad.json"], {"bad.json": {"n": 4, "alpha": "1/2", "levels": []}}),
    "ledger-of-ints": (
        ["verify", "--code", "{dir}/code.json", "--property", "neighborhood",
         "--partition", "{dir}/partition.json", "--ledger", "{dir}/bad.json"], {"bad.json": [1]}),
    "ledger-object": (
        ["verify", "--code", "{dir}/code.json", "--property", "neighborhood",
         "--partition", "{dir}/partition.json", "--ledger", "{dir}/bad.json"], {"bad.json": {}}),
    "ghk-epsilon-zero": (
        ["verify", "--code", "{dir}/code.json", "--property", "ghk", "--k0", "1",
         "--epsilon", "0"], {}),
    # oversize inputs: each is refused before anything large is computed
    "eks-partition-k-2e9": (["build", "--recipe-json", '{"kind":"eks_partition","k":2000000000}',
                             "--out-dir", "{dir}/out"], {}),
    "ghk-partition-n-2^40": (
        ["build", "--recipe-json",
         '{"kind":"ghk_partition","n":1099511627776,"m":1,"delta":"1/2"}',
         "--out-dir", "{dir}/out"], {}),
    "imm-partition-exp-ell-8": (
        ["build", "--recipe-json", '{"kind":"imm_partition","imm":"exp","delta":"1/2","ell":8}',
         "--out-dir", "{dir}/out"], {}),
    "imm-partition-double-exp-ell-40": (
        ["build", "--recipe-json",
         '{"kind":"imm_partition","imm":"double_exp","delta":"1/2","ell":40}',
         "--out-dir", "{dir}/out"], {}),
    "chs-partition-m-60": (
        ["build", "--recipe-json", '{"kind":"chs_partition","m":60,"l1":4,"shift":0}',
         "--out-dir", "{dir}/out"], {}),
    "partition-huge-block": (
        ["verify", "--code", "{dir}/code.json", "--property", "neighborhood",
         "--partition", "{dir}/bad.json"],
        {"bad.json": {"n": 4, "alpha": "1/2", "levels": [[{"lo": 1, "hi": 4000000000}]]}}),
    "verify-chs-m-60": (
        ["verify", "--code", "{dir}/code.json", "--property", "chs", "--m", "60", "--l1", "4"], {}),
    "verify-chs-constant-scales-m-1e9": (
        ["verify", "--code", "{dir}/code.json", "--property", "chs", "--m", "1000000000",
         "--l1", "4", "--shift", "2"], {}),
    "eks-k-2e9": (["build", "--recipe-json", '{"kind":"eks","k":2000000000,"delta":"1/2"}',
                   "--out-dir", "{dir}/out"], {}),
    # a 2^60000-symbol alphabet, and a block-code search over 2 * 20000-bit words
    "eks-b-20000": (["build", "--recipe-json", '{"kind":"eks","k":2,"b":20000,"delta":"1/2"}',
                     "--out-dir", "{dir}/out"], {}),
    # b = 0 would certify the all-zero repetition code at distance 1
    "eks-b-0": (["build", "--recipe-json", '{"kind":"eks","k":1,"b":0,"delta":"1/2"}',
                 "--out-dir", "{dir}/out"], {}),
    # every code passes delta <= 0: refused before the table, which --cap 1 would refuse
    "verify-delta-minus-1": (["verify", "--code", "{dir}/code.json", "--property", "distance",
                              "--delta", "-1", "--cap", "1"], {}),
    "verify-eks-k-2e9": (
        ["verify", "--code", "{dir}/code.json", "--property", "eks", "--k", "2000000000"], {}),
    # 1.6 KB that would materialize 40 levels of 2^16 indices
    "partition-40-levels": (
        ["verify", "--code", "{dir}/code.json", "--property", "neighborhood",
         "--partition", "{dir}/bad.json"],
        {"bad.json": {"n": 65536, "alpha": "1/2", "levels": [[{"lo": 1, "hi": 65536}]] + [
            [{"lo": 1, "hi": 65536, "lf_hi": 32768}]] * 39}}),
    # a 2^41-entry table per trial, refused before the first
    "search-n-40": (["search", "--n", "40", "--sigma", "2", "--trials", "1",
                     "--out-dir", "{dir}/out"], {}),
    # the lg of an alphabet size is never below 0; 0 stays legal
    "eq5-measured-minus-1": (["bound", "--formula", "eq5", "--params", '{"k":3,"measured":-1}'],
                             {}),
    "eq11-ratio-minus-1": (["bound", "--formula", "eq11", "--params",
                            '{"n":65536,"m":512,"delta":"1/16384","ratio":"-1"}'], {}),
}


@pytest.mark.parametrize("case", sorted(_USAGE_MISTAKES))
def test_usage_mistake_exits_1(tmp_path, capsys, case):
    argv, files = _USAGE_MISTAKES[case]
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":4}', "--out-dir", str(tmp_path))
    run(capsys, "build", "--recipe-json", '{"kind":"eks_partition","k":2}',
        "--out-dir", str(tmp_path))
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    start = time.perf_counter()
    rc = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("recipe,want", [
    ('{"kind":"eks","k":3,"b":1,"delta":"1/2"}', "no block code of length 4 with distance 1/2 "
     "found at cell width b=1; choose another b in 1..16, or omit b for the default schedule"),
    ('{"kind":"eks","k":5,"delta":"15/16"}', "no block code of length 8 with distance 15/16 "
     "found at cell width b=8; name a cell width b in 1..16"),
])
def test_an_eks_recipe_without_a_block_code_names_b_and_its_range(tmp_path, capsys, recipe, want):
    # b is the one cell width a recipe sets; b_schedule is a library argument
    rc = cli.main(["build", "--recipe-json", recipe, "--out-dir", str(tmp_path / "out")])
    assert rc == 1 and capsys.readouterr().err == f"invalid input: {want}\n"
    assert not (tmp_path / "out").exists()


_NOT_INTEGERS = {
    "recipe-n-null": (["build", "--recipe-json", '{"kind":"trivial","n":null}',
                       "--out-dir", "{dir}/out"], {}),
    "partition-lo-string": (
        ["verify", "--code", "{dir}/code.json", "--property", "neighborhood",
         "--partition", "{dir}/bad.json"],
        {"bad.json": {"n": 4, "alpha": "1/2", "levels": [
            [{"lo": "1", "hi": 2}, {"lo": 3, "hi": 4}], [{"lo": 1, "hi": 4, "lf_hi": 2}]]}}),
    "ledger-level-string": (
        ["verify", "--code", "{dir}/code.json", "--property", "neighborhood",
         "--partition", "{dir}/partition.json", "--ledger", "{dir}/bad.json"],
        {"bad.json": [{"level": "x", "blocks": [0]}]}),
    "bound-ell-float": (["bound", "--formula", "thm41", "--params",
                         '{"alpha":"1/2","ell":2.0,"lg_sigma_in":1}'], {}),
    "recipe-k-bool": (["build", "--recipe-json", '{"kind":"eks_partition","k":true}',
                       "--out-dir", "{dir}/out"], {}),
    "bound-t-string": (["bound", "--formula", "eq26", "--params",
                        '{"kind":"general","delta":"1/2","n":16,"t":"x","ell":2}'], {}),
    "bound-ell-string": (["bound", "--formula", "eq26", "--params",
                          '{"kind":"general","delta":"1/2","n":16,"t":2,"ell":"2"}'], {}),
}


@pytest.mark.parametrize("case", sorted(_NOT_INTEGERS))
def test_scalar_field_that_is_not_an_integer_exits_1(tmp_path, capsys, case):
    argv, files = _NOT_INTEGERS[case]
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":4}', "--out-dir", str(tmp_path))
    run(capsys, "build", "--recipe-json", '{"kind":"eks_partition","k":2}',
        "--out-dir", str(tmp_path))
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    rc = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert "must be a JSON integer" in err and "internal error" not in err


def _eks2_file(edit):
    """eks_partition(2)'s partition file, edited in place by edit."""
    obj = serialize.partition_to_json(partitions.eks_partition(2))
    edit(obj)
    return obj


# partition and ledger files a reader refuses, each naming the key, the level
# or the block at fault; a ledger is over eks_partition(2)
_FILE_MISTAKES = {
    "partition-extra-key": (
        {"partition.json": _eks2_file(lambda o: o.update(extra=1))},
        "partition has unknown key 'extra'"),
    "partition-level-0-lf_hi": (
        {"partition.json": _eks2_file(lambda o: o["levels"][0][0].update(lf_hi=1))},
        "partition level 0 block has unknown key 'lf_hi'"),
    "partition-block-without-hi": (
        {"partition.json": _eks2_file(lambda o: o["levels"][1][0].pop("hi"))},
        "partition level 1 block lacks key 'hi'"),
    # lf [3..2] is empty
    "partition-lf_hi-below-lo": (
        {"partition.json": _eks2_file(lambda o: o["levels"][1][1].update(lf_hi=2))},
        "malformed partition: P_1: block 1 has an empty lf or rg part"),
    "partition-level-0-hi-below-lo": (
        {"partition.json": _eks2_file(lambda o: o["levels"][0][1].update(hi=1))},
        "malformed partition: P_0: block 1 is empty"),
    "ledger-extra-key": (
        {"ledger.json": [{"level": 1, "blocks": [1], "extra": 1}]},
        "ledger entry has unknown key 'extra'"),
    "ledger-without-blocks": ({"ledger.json": [{"level": 1}]}, "ledger entry lacks key 'blocks'"),
    # kept as the last entry alone, block 0's exemption would be dropped
    "ledger-level-twice": (
        {"ledger.json": [{"level": 1, "blocks": [0]}, {"level": 1, "blocks": [1]}]},
        "ledger level 1 is named twice"),
}


@pytest.mark.parametrize("case", sorted(_FILE_MISTAKES))
def test_partition_or_ledger_file_mistake_exits_1_naming_it(tmp_path, capsys, case):
    files, want = _FILE_MISTAKES[case]
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":4}', "--out-dir", str(tmp_path))
    run(capsys, "build", "--recipe-json", '{"kind":"eks_partition","k":2}',
        "--out-dir", str(tmp_path))
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    ledger = ["--ledger", str(tmp_path / "ledger.json")] if "ledger.json" in files else []
    rc = cli.main(["verify", "--code", str(tmp_path / "code.json"), "--property", "neighborhood",
                   "--partition", str(tmp_path / "partition.json"), *ledger])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"invalid input: {want}\n"


@pytest.mark.parametrize("label", ["true", "false", "1.0"])
def test_table_label_that_is_not_an_integer_exits_1(tmp_path, capsys, label):
    # a bool is an int to Python but not a JSON integer: refused like a float
    (tmp_path / "code.json").write_text(
        f'{{"kind":"table","n":2,"sigma_in":2,"sigma_out":4,"table":[0,1,2,{label},0,1]}}')
    rc = cli.main(["verify", "--code", str(tmp_path / "code.json"), "--property", "distance",
                   "--delta", "1/2"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "invalid input" in captured.err and "outside the output alphabet" in captured.err


@pytest.mark.parametrize("n", [60_000, 3_000_000])
def test_deep_table_with_one_label_exits_1_at_once(tmp_path, capsys, n):
    (tmp_path / "code.json").write_text(
        f'{{"kind":"table","n":{n},"sigma_in":2,"sigma_out":4,"table":[0]}}')
    rc = cli.main(["verify", "--code", str(tmp_path / "code.json"), "--property", "distance",
                   "--delta", "1/2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"invalid input: table has 1 labels, want 2^1 + ... + 2^{n} > 1" in err


def test_build_table_recipe_is_checked_and_rewritten(tmp_path, capsys):
    short = '{"kind":"table","n":3,"sigma_in":2,"sigma_out":4,"table":[0,1,7]}'
    assert cli.main(["build", "--recipe-json", short, "--out-dir", str(tmp_path / "short")]) == 1
    assert capsys.readouterr().err == (
        "invalid input: table has 3 labels, want 2^1 + ... + 2^3 > 3\n")
    assert not (tmp_path / "short" / "code.json").exists()
    # a canonical valid recipe is written back byte for byte
    recipe = '{"kind":"table","n":2,"sigma_in":2,"sigma_out":4,"table":[0,1,2,3,0,1]}\n'
    assert cli.main(["build", "--recipe-json", recipe, "--out-dir", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "code.json").read_text() == recipe


@pytest.mark.parametrize("recipe,err", [
    ('{"kind":"table","n":3,"sigma_in":2,"sigma_out":4,"table":[0,1,7]}',
     "invalid input: table has 3 labels, want 2^1 + ... + 2^3 > 3"),
    ('{"kind":"wat"}', "invalid input: unknown recipe kind 'wat'"),
    ('{"kind":"imm_partition","imm":"foo","delta":"1/2","ell":1}',
     "invalid input: unknown immediacy kind 'foo': expected exp or double_exp"),
], ids=["short-table", "unknown-kind", "unknown-immediacy-kind"])
def test_refused_build_leaves_no_out_dir(tmp_path, capsys, recipe, err):
    out = tmp_path / "out"
    assert cli.main(["build", "--recipe-json", recipe, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == err + "\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,rc,err", [
    (["build", "--recipe-json", '{"kind":"trivial","n":60000}', "--out-dir", "{dir}/out"], 1,
     "invalid input: code too deep to tabulate: 2^1 + ... + 2^60000 > 1048576 entries"),
    (["verify", "--code", "{dir}/code.json", "--property", "distance", "--delta", "1/2"], 3,
     "cap exceeded: evaluation cap exceeded: a 60016-bit number > 16777216"),
])
def test_trivial_code_too_deep_for_its_counts_is_refused_at_once(tmp_path, capsys, argv, rc, err):
    # trivial(60000): sum 2^j and M*n = 60000 * 2^60000 have more digits than
    # str() prints, so neither the tabulation nor the cap may format them
    (tmp_path / "code.json").write_text('{"kind":"trivial","n":60000}')
    start = time.perf_counter()
    assert cli.main([a.replace("{dir}", str(tmp_path)) for a in argv]) == rc
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == err + "\n"


def test_build_partition_recipes(tmp_path, capsys):
    rc, _ = run(
        capsys,
        "build",
        "--recipe-json",
        '{"kind":"imm_partition","imm":"exp","delta":"1/2","ell":2}',
        "--out-dir",
        str(tmp_path / "imm"),
    )
    assert rc == 0
    obj = json.loads((tmp_path / "imm" / "partition.json").read_text())
    assert obj["n"] == 128 and obj["alpha"] == "1/8"

    rc, _ = run(
        capsys,
        "build",
        "--recipe-json",
        '{"kind":"chs_partition","m":1,"l1":4,"shift":0}',
        "--out-dir",
        str(tmp_path / "chs"),
    )
    assert rc == 0
    assert json.loads((tmp_path / "chs" / "ledger.json").read_text()) == [
        {"level": 1, "blocks": [1]}
    ]


def test_bound_subcommand(capsys):
    rc, out = run(
        capsys, "bound", "--formula", "eq27", "--params", '{"delta":"1/2","n":128}'
    )
    assert rc == 0
    assert json.loads(out)["bound_value"] == "4"
    rc, out = run(
        capsys,
        "bound",
        "--formula",
        "eq11",
        "--params",
        '{"n":65536,"m":512,"delta":"1/16384","ratio":"1/100000"}',
    )
    assert rc == 2  # unsatisfied ratio


@pytest.mark.parametrize("t", [1, 4])
def test_bound_eq27_refuses_a_t_other_than_the_kinds_own(capsys, t):
    # eq27 is the exp kind's, whose t at delta = 1/2 is 3; n = 2 Imm(3)
    params = {"kind": "exp", "delta": "1/2", "n": 16}
    assert cli.main(["bound", "--formula", "eq27", "--params",
                     json.dumps(dict(params, t=t))]) == 1
    assert capsys.readouterr().err == (
        f"invalid input: for the exp kind t is determined as 3, got {t}\n")
    assert run(capsys, "bound", "--formula", "eq27", "--params",
               json.dumps(dict(params, t=3)))[0] == 0


def test_verify_reads_the_code_from_stdin(tmp_path, capsys, monkeypatch):
    text = '{"kind":"trivial","n":4}'
    (tmp_path / "code.json").write_text(text)
    argv = ("verify", "--property", "distance", "--delta", "1", "--code")
    from_file = run(capsys, *argv, str(tmp_path / "code.json"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, *argv, "-") == from_file and from_file[0] == 0


def test_audit_subcommand(tmp_path, capsys):
    run(capsys, "build", "--recipe-json", '{"kind":"eks","k":2,"delta":"1/2","seed":0}',
        "--out-dir", str(tmp_path))
    rc, out = run(
        capsys,
        "audit",
        "--code",
        str(tmp_path / "code.json"),
        "--partition",
        str(tmp_path / "partition.json"),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["bound"]["satisfied"] is True
    assert payload["entropy"]["passed"] is True
    assert payload["entropy"]["slacks"]


def test_audit_cap_covers_the_entropy_replay(tmp_path, capsys):
    # layered k=3 over its dyadic partition (M = 256, n = 8): the
    # neighborhood check costs M*n + M*24 = 8192, the replay M*n + M*32 = 10240
    run(capsys, "build", "--recipe-json", '{"kind":"eks","k":3,"delta":"1/2","seed":0}',
        "--out-dir", str(tmp_path))
    args = ["audit", "--code", str(tmp_path / "code.json"),
            "--partition", str(tmp_path / "partition.json"), "--cap"]
    assert run(capsys, *args, "8192")[0] == 3
    assert run(capsys, *args, "10240")[0] == 0


@pytest.mark.parametrize("cap,used,table", [
    (2047, 2048, False),  # below M*n: decoding refuses at the table charge
    (2048, 8192, False),  # M*n: decoding refuses at its reads' charge
    (8191, 8192, False),
    (8192, 10240, True),  # decoding passes; the replay refuses at its charge
    (10239, 10240, True),
])
def test_audit_refusals_around_the_charges(tmp_path, capsys, monkeypatch, cap, used, table):
    # layered k=3 over its dyadic partition (M = 256, n = 8), as in the test
    # above: a refusal's exit code and stderr name the charge it stops at,
    # and one at decoding's charges builds no table and no Groups
    from treecodes import grouping

    run(capsys, "build", "--recipe-json", '{"kind":"eks","k":3,"delta":"1/2","seed":0}',
        "--out-dir", str(tmp_path))
    built, made = [], []
    original = core.all_codewords
    monkeypatch.setattr(core, "all_codewords", lambda code: built.append(code) or original(code))

    class Counting(grouping.Groups):
        def __init__(self, *args) -> None:
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(grouping, "Groups", Counting)
    rc = cli.main(["audit", "--code", str(tmp_path / "code.json"),
                   "--partition", str(tmp_path / "partition.json"), "--cap", str(cap)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err == f"cap exceeded: evaluation cap exceeded: {used} > {cap}\n"
    assert (len(built), len(made)) == ((1, 1) if table else (0, 0))


def test_audit_stdout_is_pinned(tmp_path, capsys):
    # the whole audit report of the layered k=3 code, bound and entropy
    # replay, byte for byte
    run(capsys, "build", "--recipe-json", '{"kind":"eks","k":3,"delta":"1/2","seed":0}',
        "--out-dir", str(tmp_path))
    rc, out = run(capsys, "audit", "--code", str(tmp_path / "code.json"),
                  "--partition", str(tmp_path / "partition.json"))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f4dcdb0f4fdb9c08c7fde53b7ae56b7be13018d1eb0e3e985c0a0026dff40709")


@pytest.mark.parametrize("params,message", [
    ('{"alpha":"3/2","ell":-2,"deficiency":0,"n":8,"lg_sigma_in":1}', "alpha must be in (0,1]"),
    ('{"alpha":-1,"ell":2,"deficiency":1,"n":8,"lg_sigma_in":1}', "alpha must be in (0,1]"),
    ('{"alpha":"1/2","ell":-1,"deficiency":1,"n":8,"lg_sigma_in":1}', "ell must be >= 0"),
])
def test_thm42_bound_rejects_alpha_and_ell_outside_their_range(capsys, params, message):
    rc = cli.main(["bound", "--formula", "thm42", "--params", params])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("lf_hi,prop", [(2, "size"), (3, "laminar")])
def test_audit_refuses_a_partition_the_bound_does_not_cover(tmp_path, capsys, lf_hi, prop):
    # trivial(6) decodes on any tower.  Its level-2 block [1..6] has lf
    # [1..lf_hi]: |lf| = 2 < alpha|B| = 3, or lf [1..3] cuts the level-1
    # block [3, 4].  Neighborhood decoding and the replay still take it
    from treecodes import core, entropy, serialize

    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":6}', "--out-dir", str(tmp_path))
    obj = {"n": 6, "alpha": "1/2", "levels": [
        [{"lo": v, "hi": v} for v in range(1, 7)],
        [{"lo": lo, "hi": lo + 1, "lf_hi": lo} for lo in (1, 3, 5)],
        [{"lo": 1, "hi": 6, "lf_hi": lf_hi}]]}
    (tmp_path / "partition.json").write_text(json.dumps(obj))
    files = ["--code", str(tmp_path / "code.json"), "--partition", str(tmp_path / "partition.json")]
    assert run(capsys, "verify", "--property", "neighborhood", *files)[0] == 0
    entropy.ledger_replay(core.trivial_code(6), serialize.partition_from_json(obj))
    rc = cli.main(["audit", *files])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == ("invalid input: refusing to audit: the partition lacks the "
                            f"{prop} property at (level, block) (2, 0)\n")


def test_audit_enumerates_the_code_once(tmp_path, capsys, monkeypatch):
    # the decoding check and the entropy replay share one message table; the
    # wrapper replaces every module's reference, as the benchmark's tracer
    # does
    import sys

    from treecodes import core

    calls = []
    original = core.all_codewords

    def counting(code):
        calls.append(code.n)
        return original(code)

    for name, module in list(sys.modules.items()):
        if name.startswith("treecodes") and getattr(module, "all_codewords", None) is original:
            monkeypatch.setattr(module, "all_codewords", counting)
    run(capsys, "build", "--recipe-json", '{"kind":"eks","k":3,"delta":"1/2","seed":0}',
        "--out-dir", str(tmp_path))
    rc, out = run(capsys, "audit", "--code", str(tmp_path / "code.json"),
                  "--partition", str(tmp_path / "partition.json"))
    assert rc == 0 and json.loads(out)["entropy"]["passed"] is True
    assert calls == [8]


def test_audit_validates_its_partition_once(tmp_path, capsys, monkeypatch):
    # audit_code, its decoding check and the entropy replay share one
    # structural check per loaded partition, which goes with the partition
    import gc
    import weakref

    calls, reports = [], []
    original = partitions.validate_laminar

    def counting(p):
        calls.append(p.n)
        report = original(p)
        reports.append(weakref.ref(report))
        return report

    run(capsys, "build", "--recipe-json", '{"kind":"eks","k":3,"delta":"1/2","seed":0}',
        "--out-dir", str(tmp_path))
    monkeypatch.setattr(partitions, "validate_laminar", counting)
    args = ("audit", "--code", str(tmp_path / "code.json"),
            "--partition", str(tmp_path / "partition.json"))
    first = run(capsys, *args)
    assert first[0] == 0 and calls == [8]
    assert run(capsys, *args) == first and calls == [8, 8]
    gc.collect()
    assert [report() for report in reports] == [None, None]


def test_verify_remaining_properties(tmp_path, capsys):
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":8}', "--out-dir", str(tmp_path))
    code = str(tmp_path / "code.json")
    rc, _ = run(capsys, "verify", "--code", code, "--property", "imm_function",
                "--imm", "unit", "--delta", "1")
    assert rc == 0
    rc, _ = run(capsys, "verify", "--code", code, "--property", "chs",
                "--m", "1", "--l1", "4", "--shift", "1")
    assert rc == 0
    # aligned-window property needs lg n a power of two: use n = 4
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":4}',
        "--out-dir", str(tmp_path / "g"))
    rc, _ = run(capsys, "verify", "--code", str(tmp_path / "g" / "code.json"),
                "--property", "ghk", "--k0", "1", "--epsilon", "1", "--delta", "3/4")
    assert rc == 0


def test_search_deterministic_files(tmp_path, capsys):
    args = ["search", "--n", "3", "--sigma", "4", "--trials", "40", "--seed", "3"]
    run(capsys, *args, "--out-dir", str(tmp_path / "a"))
    run(capsys, *args, "--out-dir", str(tmp_path / "b"))
    assert (tmp_path / "a" / "search.json").read_bytes() == (
        tmp_path / "b" / "search.json"
    ).read_bytes()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_search_without_trials_is_usage_error(tmp_path, capsys, trials):
    rc = cli.main(["search", "--n", "3", "--sigma", "4", "--trials", trials,
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "trials must be >= 1" in err and "internal error" not in err
    assert not (tmp_path / "search.json").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--n", "0", "n must be >= 1, got 0"),
    ("--sigma", "0", "sigma must be >= 1, got 0"),
    ("--target", "2", "target must be in (0, 1], got 2"),
    ("--target", "-1", "target must be in (0, 1], got -1"),
    ("--target", "0", "target must be in (0, 1], got 0"),
    ("--n", "20", "n = 20 too deep to search: 2^1 + ... + 2^20 > 1048576 entries"),
    ("--target", "", "--target must be an integer or a \"p/q\" string, got ''"),
])
def test_search_bad_input_exits_1_naming_it_before_the_first_trial(
    tmp_path, capsys, monkeypatch, flag, value, message
):
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(constructions, "_draw_levels", no_trial)
    argv = {"--n": "3", "--sigma": "4", "--trials": "1000000000", flag: value}
    rc = cli.main(["search", *[a for kv in argv.items() for a in kv], "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"invalid input: {message}\n"
    assert not (tmp_path / "search.json").exists()


def test_selftest_list_and_ablate(capsys):
    rc, out = run(capsys, "selftest", "--list")
    assert rc == 0 and out.count("criterion") == 10
    rc, out = run(capsys, "selftest", "--ablate")
    assert rc == 0 and "expected failures observed" in out


def test_selftest_stdout_holds_no_timings(capsys):
    # the wall times go to stderr, so two runs print the same stdout
    outs = []
    for _ in range(2):
        assert cli.main(["selftest", "--only", "1", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count(" took ") == 2
        outs.append(captured.out)
    assert outs[0] == outs[1] and outs[0].count("PASS criterion") == 2


@pytest.mark.parametrize("only,unknown", [(["99"], "[99]"), (["4", "99", "0"], "[0, 99]")])
def test_selftest_only_an_unknown_criterion_exits_1_having_run_nothing(capsys, only, unknown):
    rc = cli.main(["selftest", "--only", *only])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"usage: selftest --only names no criterion {unknown} (see --list)\n"


def test_importing_the_cli_leaves_the_acceptance_criteria_unimported():
    # only selftest reads them, so no other command pays for compiling them;
    # a fresh interpreter, since this one has imported them already
    import os
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, treecodes.cli; print(sorted(m for m in sys.modules if 'treecodes' in m))"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert "'treecodes.cli'" in out and "'treecodes.verify'" in out
    assert "'treecodes.acceptance'" not in out


def test_selftest_only_with_no_ids_exits_1_having_run_nothing(capsys):
    rc = cli.main(["selftest", "--only"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "argument --only: expected at least one argument" in captured.err
    assert acceptance.run(only=[]) == [] and capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,message", [
    (["build", "--recipe-json", '{"kind":"eks","k":0,"delta":"1/2"}', "--out-dir", "{dir}/out"],
     "k must be >= 1, got 0"),
    (["verify", "--code", "{dir}/code.json", "--property", "eks", "--k", "-1"],
     "k must be >= 0, got -1"),
    (["build", "--recipe-json", '{"kind":"trivial","n":-3}', "--out-dir", "{dir}/out"],
     "n must be >= 1, got -3"),
    (["bound", "--formula", "eq5", "--params", '{"k":-2}'], "k must be >= 0, got -2"),
    (["bound", "--formula", "eq33", "--params", '{"m":-3,"n":8}'], "m must be >= 0, got -3"),
    (["bound", "--formula", "eq26", "--params",
      '{"kind":"general","delta":"1/2","n":16,"t":2,"ell":0}'],
     "the general kind needs t >= 1 and ell >= 1, got t = 2, ell = 0"),
], ids=["eks-recipe-k0", "verify-eks-k-minus-1", "trivial-n-minus-3", "eq5-k-minus-2",
        "eq33-m-minus-3", "eq26-general-ell-0"])
def test_k_or_n_out_of_range_exits_1_naming_it(tmp_path, capsys, argv, message):
    (tmp_path / "code.json").write_text('{"kind":"trivial","n":4}')
    rc = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"invalid input: {message}\n"
    assert not (tmp_path / "out").exists()


def test_text_format_rendering(capsys):
    rc, out = run(
        capsys, "--format", "text", "bound", "--formula", "eq25",
        "--params", '{"kind":"exp","delta":"1/2","n":128}',
    )
    assert rc == 0
    assert "bound_value: 1/4" in out


@pytest.mark.parametrize(
    "prop,given,flag",
    [
        ("eks", [], "--k"),
        ("neighborhood", [], "--partition"),
        ("chs", ["--shift", "1"], "--m, --l1"),
        ("ghk", ["--epsilon", "1"], "--k0"),
    ],
)
def test_verify_missing_property_flags_is_usage_error(tmp_path, capsys, prop, given, flag):
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":4}', "--out-dir", str(tmp_path))
    rc = cli.main(["verify", "--code", str(tmp_path / "code.json"), "--property", prop] + given)
    err = capsys.readouterr().err
    assert rc == 1
    assert f"requires {flag}" in err and "internal error" not in err


# One valid invocation per entry of the CLI's tables; a table entry without
# a case here fails test_every_table_entry_has_a_valid_case.  Each JSON case
# holds every key its form declares, so each key is also mistyped below.
_CODES = {  # read by verify --code and by build
    "trivial": {"kind": "trivial", "n": 4},
    "identity": {"kind": "identity", "n": 3, "sigma_in": 3},
    "table": {"kind": "table", "n": 2, "sigma_in": 2, "sigma_out": 4, "table": [0, 1, 2, 3, 0, 1]},
    "eks": {"kind": "eks", "k": 2, "b": 2, "delta": "1/2", "seed": 0},
}
_RECIPES = {
    "imm_partition": {"kind": "imm_partition", "imm": "exp", "delta": "1/2", "ell": 1},
    "eks_partition": {"kind": "eks_partition", "k": 2},
    "chs_partition": {"kind": "chs_partition", "m": 1, "l1": 4, "shift": 0},
    "ghk_partition": {"kind": "ghk_partition", "n": 16, "m": 4, "delta": "1/2"},
}
_PARAMS = {
    "thm41": {"alpha": "1/2", "ell": 2, "lg_sigma_in": 1},
    "thm42": {"alpha": "1/2", "ell": 2, "deficiency": 1, "n": 8, "lg_sigma_in": 1},
    "eq25": {"kind": "exp", "delta": "1/2", "n": 128, "t": 3, "ell": 2},
    "eq26": {"kind": "general", "delta": "1/2", "n": 16, "t": 2, "ell": 2},
    "eq27": {"kind": "exp", "delta": "1/2", "n": 128, "t": 3, "ell": 2},
    "eq22": {"kind": "double_exp", "delta": "1/2", "n": 32, "t": 2, "ell": 1},
    "eq33": {"m": 3, "n": 8},
    "eq5": {"k": 3, "measured": "2"},
    "eq11": {"n": 65536, "m": 512, "delta": "1/16384", "ratio": "1/100000"},
    "eq13": {"delta": "1/4"},
}
_PROPERTY_ARGS = {  # (code, flags); {dir}/partition.json is eks_partition k=2
    "distance": ({"kind": "trivial", "n": 4}, ["--delta", "1/2"]),
    "imm_function": ({"kind": "trivial", "n": 4}, ["--imm", "exp", "--delta", "1/2"]),
    "neighborhood": ({"kind": "trivial", "n": 4}, ["--partition", "{dir}/partition.json"]),
    "eks": ({"kind": "trivial", "n": 4}, ["--k", "2"]),
    "chs": ({"kind": "trivial", "n": 8}, ["--m", "1", "--l1", "4", "--shift", "1"]),
    "ghk": ({"kind": "trivial", "n": 4}, ["--k0", "1", "--delta", "3/4"]),
}


def _json_argv(table, key, obj):
    """argv that hands obj to the reader of entry key of table."""
    text = json.dumps(obj)
    if table == "formula":
        return ["bound", "--formula", key, "--params", text]
    if table == "code":
        return ["verify", "--code", "{dir}/code.json", "--property", "distance"]
    return ["build", "--recipe-json", text, "--out-dir", "{dir}/out"]


def _run_in(tmp_path, capsys, argv, code=None):
    run(capsys, "build", "--recipe-json", '{"kind":"eks_partition","k":2}',
        "--out-dir", str(tmp_path))
    if code is not None:
        (tmp_path / "code.json").write_text(json.dumps(code))
    rc = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv])
    return rc, capsys.readouterr()


_JSON_TABLES = {
    "code": (serialize.CODE_KINDS, _CODES),
    "code-recipe": (serialize.CODE_KINDS, _CODES),
    "recipe": (cli._PARTITIONS, _RECIPES),
    "formula": (cli._FORMULAS, _PARAMS),
}


def _declared(form):
    return {*form.required, *form.optional}


_ENTRIES = ([("property", p) for p in cli._PROPERTIES]
            + [(t, key) for t, (table, _) in _JSON_TABLES.items() for key in table])


def test_every_table_entry_has_a_valid_case():
    assert set(_PROPERTY_ARGS) == set(cli._PROPERTIES)
    for table, cases in _JSON_TABLES.values():
        assert set(cases) == set(table)
        for key, obj in cases.items():  # every declared key, and no other
            assert set(obj) - {"kind"} == _declared(table[key]) - {"kind"}


def _valid(table, key):
    """(argv, code file) of the valid case of an entry."""
    if table == "property":
        code, flags = _PROPERTY_ARGS[key]
        return ["verify", "--code", "{dir}/code.json", "--property", key] + flags, code
    obj = _JSON_TABLES[table][1][key]
    return _json_argv(table, key, obj), obj if table == "code" else None


@pytest.mark.parametrize("table,key", _ENTRIES)
def test_each_table_entry_runs(tmp_path, capsys, table, key):
    rc, captured = _run_in(tmp_path, capsys, *_valid(table, key))
    assert rc in (0, 2), captured.err
    assert captured.err == ""


def _mistakes(table, key):
    """The entry's valid object with one key added, one required key
    removed, or one declared key set to a JSON list."""
    form, obj = _JSON_TABLES[table][0][key], _JSON_TABLES[table][1][key]
    yield "extra", dict(obj, extra=1)
    for name in form.required:
        yield f"no-{name}", {k: v for k, v in obj.items() if k != name}
    for name in sorted(_declared(form) & set(obj)):
        yield f"{name}-list", dict(obj, **{name: [1]})


@pytest.mark.parametrize("table,key", [e for e in _ENTRIES if e[0] != "property"])
def test_each_json_entry_refuses_an_extra_missing_or_mistyped_key(tmp_path, capsys, table, key):
    for label, obj in _mistakes(table, key):
        argv = _json_argv(table, key, obj)
        rc, captured = _run_in(tmp_path, capsys, argv, obj if table == "code" else None)
        assert rc == 1, label
        assert captured.err.startswith("invalid input: ") and captured.err.count("\n") == 1, label
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["build", "--recipe-json", '{"kind":"identity","n":3,"alphabet_size":3}',
      "--out-dir", "{dir}/out"], "identity code has unknown key 'alphabet_size'"),
    (["build", "--recipe-json", '{"kind":"eks","k":2,"delta":"1/2","seeed":7}',
      "--out-dir", "{dir}/out"], "eks code has unknown key 'seeed'"),
    (["bound", "--formula", "eq5", "--params", '{"k":3,"extra":1}'],
     "eq5 --params has unknown key 'extra'"),
    (["build", "--recipe-json", '{"kind":"eks","delta":"1/2"}', "--out-dir", "{dir}/out"],
     "eks code lacks key 'k'"),
    (["verify", "--code", "{dir}/code.json", "--property", "distance", "--cap", "-5"],
     "cap must be >= 1, got -5"),
    (["audit", "--code", "{dir}/code.json", "--partition", "{dir}/partition.json",
      "--cap", "0"], "cap must be >= 1, got 0"),
    (["bound", "--formula", "thm41", "--params", '{"alpha":"1/2","ell":2,"lg_sigma_in":-1}'],
     "lg_sigma_in must be >= 0, got -1"),
    (["bound", "--formula", "thm41", "--params",
      '{"alpha":"1/2","ell":2,"lg_sigma_in":1,"kind":"x"}'], "thm41 --params has unknown key 'kind'"),
    (["build", "--recipe-json", '{"kind":"eks","k":2,"b":20000,"delta":"1/2"}',
      "--out-dir", "{dir}/out"], "b must be in 1..16, got 20000"),
    (["verify", "--code", "{dir}/code.json", "--property", "eks", "--k", "2", "--delta", "0"],
     "--delta must be > 0, got 0"),
    (["build", "--out-dir", "{dir}/out"], "build takes exactly one of --recipe and --recipe-json"),
    (["build", "--recipe", "{dir}/code.json", "--recipe-json", '{"kind":"trivial","n":2}',
      "--out-dir", "{dir}/out"], "build takes exactly one of --recipe and --recipe-json"),
], ids=["unknown-recipe-key", "unknown-eks-key", "unknown-params-key", "missing-key",
        "verify-cap-minus-5", "audit-cap-0", "thm41-lg-sigma-in-minus-1", "thm41-kind",
        "eks-b-20000", "verify-delta-0", "build-no-recipe", "build-two-recipes"])
def test_unknown_key_missing_key_or_meaningless_number_exits_1_naming_it(
    tmp_path, capsys, argv, message
):
    rc, captured = _run_in(tmp_path, capsys, argv, {"kind": "trivial", "n": 4})
    assert rc == 1 and captured.out == ""
    assert captured.err == f"invalid input: {message}\n"
    assert not (tmp_path / "out").exists()


# a value of each JSON type that no rational field takes, and how the
# refusal names it
_NOT_RATIONAL = [(True, "bool"), (0.5, "float"), (None, "NoneType"), ([1], "list"), ("x", "'x'")]
# (table, entry, field) of every JSON rational read through an entry's form
_RATIONAL_FIELDS = [
    ("code-recipe", "eks", "delta"), ("code", "eks", "delta"),
    ("recipe", "imm_partition", "delta"), ("recipe", "ghk_partition", "delta"),
    *[("formula", f, field) for f in ("thm41", "thm42") for field in ("alpha", "lg_sigma_in")],
    *[("formula", f, "delta") for f in ("eq22", "eq25", "eq26", "eq27", "eq11", "eq13")],
    ("formula", "eq5", "measured"), ("formula", "eq11", "ratio"),
]


@pytest.mark.parametrize("value,got", _NOT_RATIONAL, ids=[g for _, g in _NOT_RATIONAL])
@pytest.mark.parametrize("table,key,field", _RATIONAL_FIELDS)
def test_a_rational_field_of_another_json_type_exits_1_naming_it(
    tmp_path, capsys, table, key, field, value, got
):
    # a bool was read as 1, a float as its binary expansion, and an
    # unparsable value was refused without naming its field
    obj = dict(_JSON_TABLES[table][1][key], **{field: value})
    rc, captured = _run_in(tmp_path, capsys, _json_argv(table, key, obj),
                           obj if table == "code" else None)
    assert rc == 1 and captured.out == ""
    assert captured.err == (
        f'invalid input: {field} must be an integer or a "p/q" string, got {got}\n')
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value,got", _NOT_RATIONAL, ids=[g for _, g in _NOT_RATIONAL])
def test_a_partition_alpha_of_another_json_type_exits_1_naming_it(tmp_path, capsys, value, got):
    _files(tmp_path)
    partition = json.loads((tmp_path / "partition.json").read_text())
    (tmp_path / "partition.json").write_text(json.dumps(dict(partition, alpha=value)))
    rc = cli.main(["verify", "--code", str(tmp_path / "code.json"), "--property", "neighborhood",
                   "--partition", str(tmp_path / "partition.json")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == (
        f'invalid input: partition alpha must be an integer or a "p/q" string, got {got}\n')


@pytest.mark.parametrize("argv", [
    ["verify", "--code", "{dir}/code.json", "--property", "distance", "--delta"],
    ["verify", "--code", "{dir}/code.json", "--property", "ghk", "--k0", "1", "--epsilon"],
    ["search", "--n", "3", "--sigma", "2", "--target"],
], ids=["delta", "epsilon", "target"])
@pytest.mark.parametrize("value", ["x", "1/0", ""])
def test_a_rational_flag_that_names_no_rational_exits_1_naming_it(tmp_path, capsys, argv, value):
    _files(tmp_path)
    rc = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv] + [value])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == (
        f'invalid input: {argv[-1]} must be an integer or a "p/q" string, got {value!r}\n')


@pytest.mark.parametrize("formula,params,canonical", [
    ("thm41", {"alpha": "2/4", "ell": 3, "lg_sigma_in": "2/2"},
     {"alpha": "1/2", "ell": 3, "lg_sigma_in": 1}),
    ("thm42", {"alpha": "2/4", "ell": 2, "deficiency": 1, "n": 8, "lg_sigma_in": "4/2"},
     {"alpha": "1/2", "ell": 2, "deficiency": 1, "n": 8, "lg_sigma_in": "2"}),
    ("eq13", {"delta": "2/4"}, {"delta": "1/2"}),
])
def test_a_bound_echoes_its_rational_inputs_canonically(capsys, formula, params, canonical):
    # thm41 and thm42 echoed the text given ("2/4"), every other formula the
    # value read ("1/2")
    rc, out = run(capsys, "bound", "--formula", formula, "--params", json.dumps(params))
    assert rc == 0 and json.loads(out)["inputs"] == {k: str(v) for k, v in canonical.items()}
    assert run(capsys, "bound", "--formula", formula, "--params", json.dumps(canonical)) == (0, out)


@pytest.mark.parametrize("table,key", [e for e in _ENTRIES if e[0] != "property"])
def test_each_json_key_set_to_a_wrong_json_type_exits_1_naming_it(tmp_path, capsys, table, key):
    # the type-wrong values of the fuzz test's _WRONG, set on every key of
    # the entry's valid case in turn
    for name in _JSON_TABLES[table][1][key]:
        for value in _MISTYPED:
            obj = dict(_JSON_TABLES[table][1][key], **{name: value})
            rc, captured = _run_in(tmp_path, capsys, _json_argv(table, key, obj),
                                   obj if table == "code" else None)
            assert rc == 1 and captured.out == "", (name, value)
            assert captured.err.startswith("invalid input: ") and captured.err.count("\n") == 1
            assert re.search(rf"\b{name}\b", captured.err), (name, value, captured.err)
            assert not (tmp_path / "out").exists()


def test_build_honours_an_eks_cell_width(tmp_path, capsys):
    # b fixes the cell width when a code is built, as it does when one loads
    recipe = {"kind": "eks", "k": 2, "b": 3, "delta": "1/2", "seed": 0}
    assert run(capsys, "build", "--recipe-json", json.dumps(recipe),
               "--out-dir", str(tmp_path))[0] == 0
    assert json.loads((tmp_path / "code.json").read_text()) == recipe
    assert serialize.code_from_json(recipe).name == "eks[k=2,b=3]"


def test_checks_and_reports_are_looked_up_at_each_call(tmp_path, capsys, monkeypatch):
    # the benchmark's tracer wraps verify and bounds functions by name on
    # their modules; the CLI's tables must call the wrapped ones
    from treecodes import bounds, verify

    calls = []
    for module, name in ((verify, "check_tree_distance"), (bounds, "eq5_report")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **kw: (
            calls.append(_n), _f(*a, **kw))[1])
    (tmp_path / "code.json").write_text('{"kind":"trivial","n":4}')
    assert run(capsys, "verify", "--code", str(tmp_path / "code.json"),
               "--property", "distance")[0] == 0
    assert run(capsys, "bound", "--formula", "eq5", "--params", '{"k":3}')[0] == 0
    assert calls == ["check_tree_distance", "eq5_report"]


def _files(d):
    """Input files for the parser tests: codes (one a canonical table file,
    read from its header), an eks partition for n = 4, a chs partition
    (n = 16) with its ledger and a recipe, plus bad files."""
    assert cli.main(["build", "--recipe-json", '{"kind":"eks_partition","k":2}',
                     "--out-dir", str(d)]) == 0
    assert cli.main(["build", "--recipe-json", '{"kind":"chs_partition","m":1,"l1":4,"shift":0}',
                     "--out-dir", str(d / "chs")]) == 0
    for name, text in (("code.json", '{"kind":"trivial","n":4}'),
                       ("code8.json", '{"kind":"trivial","n":8}'),
                       ("code16.json", '{"kind":"trivial","n":16}'),
                       ("recipe.json", '{"kind":"trivial","n":3}'),
                       ("array.json", "[1, 2]"), ("bad.json", "{"), ("text.txt", "x"),
                       ("table8.json", serialize.dumps_canonical(
                           serialize.tabulate_code(core.trivial_code(8))))):
        (d / name).write_text(text)


def _run_main(argv):
    """(exit code, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


_CODE, _PART = ["--code", "{dir}/code.json"], ["--partition", "{dir}/partition.json"]
_ORACLE_ARGV = [
    # every flag of every subcommand, with its value's form
    ["build", "--recipe", "{dir}/recipe.json", "--out-dir", "{dir}/out"],
    ["build", "--recipe-json", '{"kind":"trivial","n":3}', "--out-dir", "{dir}/out"],
    ["verify", *_CODE, "--property", "distance", "--delta", "1", "--cap", "4096"],
    ["verify", *_CODE, "--property", "imm_function", "--imm", "exp", "--delta", "1/2"],
    ["verify", *_CODE, "--property", "neighborhood", *_PART, "--tables"],
    ["verify", "--code", "{dir}/code16.json", "--property", "neighborhood",
     "--partition", "{dir}/chs/partition.json", "--ledger", "{dir}/chs/ledger.json"],
    ["verify", *_CODE, "--property", "eks", "--k", "2"],
    ["verify", *_CODE, "--property", "ghk", "--k0", "1", "--epsilon", "1", "--delta", "3/4"],
    ["verify", "--code", "{dir}/code8.json", "--property", "chs", "--m", "1", "--l1", "4",
     "--shift", "1"],
    ["bound", "--formula", "eq5", "--params", '{"k":3,"measured":0}'],
    ["bound", "--formula", "eq11", "--params",
     '{"n":65536,"m":512,"delta":"1/16384","ratio":"0"}'],
    ["audit", *_CODE, *_PART, "--cap", "4096"],
    ["audit", "--code", "{dir}/code16.json", "--partition", "{dir}/chs/partition.json",
     "--ledger", "{dir}/chs/ledger.json"],
    ["search", "--n", "3", "--sigma", "4", "--trials", "20", "--seed", "1", "--target", "1/4"],
    ["search", "--n", "3", "--sigma", "4", "--out-dir", "{dir}/out"],
    ["selftest", "--list"], ["selftest", "--ablate"], ["selftest", "--only", "99"],
    # each subcommand's help, and misuse at each level
    *[[name, "-h"] for name in cli._COMMANDS], ["-h"], ["--format", "text", "--help"],
    [], ["wat"], ["--bogus"], ["--bogus", "bound"], ["bound", "--bogus", "1"],
    ["--bogus", "bound", "--formula", "eq5", "--params", '{"k":3}', "--bogus2"],
    ["verify", *_CODE], ["search", "--sigma", "2"], ["selftest", "--only"],
    ["search", "--n", "x", "--sigma", "2"], ["verify", *_CODE, "--property", "eks", "--k", "1.5"],
    ["verify", *_CODE, "--property", "wat"], ["--format", "xml", "bound"], ["--format"],
    # --format before the subcommand, after it, and both; "--" in each place
    ["--format", "text", "bound", "--formula", "eq5", "--params", '{"k":3}'],
    ["bound", "--formula", "eq5", "--params", '{"k":3}', "--format", "text"],
    ["--format", "text", "bound", "--formula", "eq5", "--params", '{"k":3}', "--format", "json"],
    ["--", "bound"], ["bound", "--", "--formula", "eq5"], ["bound", "--formula", "eq5", "--"],
    ["--format=text", "bound", "--formula=eq5", "--params={\"k\":3}"],
]


def test_oracle_argv_use_every_flag_of_every_subcommand():
    for name, (_, _, flags) in cli._COMMANDS.items():
        used = {a.split("=")[0] for argv in _ORACLE_ARGV if argv[:1] == [name] for a in argv}
        assert set(flags) <= used, name


def test_an_omitted_shift_prints_what_shift_0_prints(tmp_path):
    # the one chs entry of _ORACLE_ARGV passes --shift, so it cannot see the
    # default; at n = 16 only shift 0 fits m = 1, l1 = 4
    _files(tmp_path)
    argv = ["verify", "--code", str(tmp_path / "code16.json"), "--property", "chs",
            "--m", "1", "--l1", "4"]
    omitted = _run_main(argv)
    assert omitted == _run_main(argv + ["--shift", "0"]) != _run_main(argv + ["--shift", "1"])


def test_parser_matches_the_reference_on_every_path_but_top_level_help(
    tmp_path, capsys, monkeypatch
):
    """The reference is the parser cli.main once built on every call, before
    the subcommand table: its (exit code, stdout, stderr) on each argv of
    _ORACLE_ARGV, at 80 columns with the input directory written {dir},
    are pinned in data/cli_parser_pins.json, under the Python version that
    recorded them: argparse's usage wrapping, help layout and error wording
    change between versions, so the pins hold only under that one."""
    recorded = json.loads((Path(__file__).parent / "data" / "cli_parser_pins.json").read_text())
    running = "{}.{}".format(*sys.version_info[:2])
    if running != recorded["python"]:
        pytest.fail(f"the parser pins were recorded under Python {recorded['python']}, "
                    f"whose argparse output they hold; this is Python {running}")
    pins = recorded["pins"]
    assert [pin["argv"] for pin in pins] == _ORACLE_ARGV
    monkeypatch.setenv("COLUMNS", "80")
    _files(tmp_path)
    capsys.readouterr()
    for pin in pins:
        argv = [a.replace("{dir}", str(tmp_path)) for a in pin["argv"]]
        rc, out, err = _run_main(argv)
        out, err = (text.replace(str(tmp_path), "{dir}") for text in (out, err))
        if argv in (["-h"], ["--format", "text", "--help"]):
            # the subcommands are listed as one help text; usage and
            # description are unchanged
            assert rc == pin["exit"] == 0 and err == pin["stderr"] == ""
            assert out.split("\n\n")[:2] == pin["stdout"].split("\n\n")[:2]
        else:
            assert (rc, out, err) == (pin["exit"], pin["stdout"], pin["stderr"]), argv


def _parser_structure(monkeypatch):
    """Every parser cli.main builds, by prog, walked: each action's option
    strings, dest, default, type, choices, nargs and required, as JSON."""
    parsers, parse = {}, argparse.ArgumentParser.parse_known_args

    def walking(self, *args, **kwargs):
        parsers[self.prog] = [
            {"option_strings": a.option_strings, "dest": a.dest, "default": a.default,
             "type": getattr(a.type, "__name__", a.type),
             "choices": None if a.choices is None else list(a.choices), "nargs": a.nargs,
             "required": a.required}
            for a in self._actions]
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", walking)
    for name in cli._COMMANDS:
        assert _run_main([name, "-h"])[0] == 0
    return parsers


def test_parser_structure_matches_the_reference_on_any_python(monkeypatch):
    """The reference parser's actions, walked, are pinned in
    data/cli_parser_structure.json: unlike its help and error texts, they
    do not change between Python versions (3.10 on)."""
    pins = json.loads((Path(__file__).parent / "data" / "cli_parser_structure.json").read_text())
    got = _parser_structure(monkeypatch)
    progs = ["treecodes", *(f"treecodes {name}" for name in cli._COMMANDS)]
    assert sorted(got) == sorted(pins) == sorted(progs)
    for prog, actions in pins.items():
        assert got[prog] == actions, prog


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_a_call_builds_two_parsers_and_only_its_subcommands_flags(
    tmp_path, monkeypatch, name
):
    # the parent built all seven parsers and 40 arguments on every call;
    # each call builds its own, so the second call counts the same
    _files(tmp_path)
    argv = {"verify": ["verify", *_CODE, "--property", "distance"],
            "selftest": ["selftest", "--list"]}.get(name, [name, "-h"])
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    counts = {"parsers": 0, "arguments": 0}
    init, add = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        counts["parsers"] += 1
        init(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        counts["arguments"] += 1
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add)
    seen = []
    for _ in range(2):
        counts.update(parsers=0, arguments=0)
        assert _run_main(argv)[0] == 0
        seen.append(dict(counts))
    # top level: -h, --format, the subcommand; then -h and the subcommand's flags
    mine = {"parsers": 2, "arguments": 4 + len(cli._COMMANDS[name][2])}
    assert seen == [mine, mine]
    if name == "verify":
        assert mine["arguments"] == 18


@pytest.mark.parametrize("argv", [
    ["verify", *_CODE, "--property", "distance"], ["verify", "-h"], ["-h"],
    ["verify", *_CODE], ["frob"], ["search", "--n", "x", "--sigma", "2"],
])
def test_a_call_reads_the_terminal_size_once(tmp_path, monkeypatch, argv):
    # each HelpFormatter used to read it for itself: 18 times per verify call
    _files(tmp_path)
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    calls, size = [], shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    for _ in range(2):
        calls.clear()
        _run_main(argv)
        assert len(calls) == 1


# The fuzz test's values: each int flag's boundary values (0, +-1, each
# limit +-1; --cap at most 4096 and search n at most 6 or at least 20, so no
# call runs long), and each string flag's values.  A flag of _COMMANDS
# without an entry here fails test_fuzz_draws_every_flag.
_INTS = {"--cap": (1, 4096, 2, 4095, 0, -1), "--n": (2, 6, 1, 20, 21, 40, 0, -1),
         "--sigma": (2, 257, 256, 1, 0, -1), "--trials": (2, 40, 1, 0, -1),
         "--seed": (0, 1, -1), "--only": (1, 2, 9, 11, 0, -1),
         "--k": (2, 3, 1, 0, -1, 2000000000), "--k0": (1, 2, 3, 0, -1),
         "--m": (1, 2, 60, 0, -1), "--l1": (4, 3, 5, 1, 0, -1), "--shift": (0, 1, 2, -1)}
_FRACTIONS = ("1/2", "2", "3/4", "1", "1001/1000", "0", "-1", "1/0", "x", "")


def _files_of(*valid):
    """Input files, valid ones weighted above the malformed and the missing."""
    names = [*valid, *valid, "array.json", "bad.json", "text.txt", "missing.json"]
    return st.sampled_from([f"{{dir}}/{name}" for name in names])

_WRONG = (None, True, 1.5, "x", "-1", "0", [1], {}, -1, 0, 1, 2, 17)
_MISTYPED = (None, True, 1.5, [1], {})  # the values of _WRONG of a type no field takes


@st.composite
def _json_text(draw, cases):
    """One of the valid objects, with a key dropped, added or set to a
    boundary value or a wrong JSON type, or a JSON text that is no object."""
    obj = dict(draw(st.sampled_from([cases[key] for key in sorted(cases)])))
    key = draw(st.sampled_from(sorted(obj) + ["extra"]))
    how = draw(st.sampled_from(("keep", "drop", "set")))
    if how == "drop":
        obj.pop(key, None)
    elif how == "set":
        obj[key] = draw(st.sampled_from(_WRONG))
    return draw(st.sampled_from((json.dumps(obj),) * 4 + ("[]", "1", "null", '"x"', "{")))


_STRINGS = {
    "--recipe": _files_of("recipe.json", "code.json", "partition.json"),
    "--code": _files_of("code.json", "code8.json", "table8.json", "partition.json"),
    "--partition": _files_of("partition.json", "chs/partition.json", "code.json"),
    "--ledger": _files_of("chs/ledger.json", "partition.json"),
    "--out-dir": st.just("{dir}/out"), "--delta": st.sampled_from(_FRACTIONS),
    "--epsilon": st.sampled_from(_FRACTIONS), "--target": st.sampled_from(_FRACTIONS),
    "--recipe-json": _json_text({**_CODES, **_RECIPES}), "--params": _json_text(_PARAMS),
}


def _flag_values(flag, keywords):
    """The strategy of one flag's strings after the flag itself."""
    if keywords.get("action") == "store_true":
        return st.just([])
    if "choices" in keywords:
        return st.sampled_from([*keywords["choices"], "wat"]).map(lambda v: [v])
    if keywords.get("type") is int:
        ints = st.sampled_from(_INTS[flag]).map(str)
        return st.lists(ints, min_size=1, max_size=3) if keywords.get("nargs") else ints.map(
            lambda v: [v])
    return _STRINGS[flag].map(lambda v: [v])


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [name]
    for flag, keywords in cli._COMMANDS[name][2].items():
        if draw(st.integers(0, 19)) < (19 if keywords.get("required") else 10):
            argv += [flag, *draw(_flag_values(flag, keywords))]
    if argv == ["selftest"]:
        argv.append("--list")  # a run of every criterion takes seconds
    return (["--format", "text"] if draw(st.booleans()) else []) + argv


def test_fuzz_draws_every_flag():
    for name, (_, _, flags) in cli._COMMANDS.items():
        for flag, keywords in flags.items():
            assert (keywords.get("action") or "choices" in keywords or flag in _INTS
                    or flag in _STRINGS), (name, flag)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    _files(d)
    return d


@example(argv=["verify", "--code", "{dir}/code8.json", "--property", "distance",
               "--delta", "1", "--cap", "2047"])
@example(argv=["verify", "--code", "{dir}/table8.json", "--property", "distance",
               "--delta", "1", "--cap", "2047"])
@example(argv=["audit", "--code", "{dir}/code.json", "--partition", "{dir}/partition.json",
               "--cap", "63"])
@settings(derandomize=True, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_fuzzed_argv_exits_0_to_3_and_names_every_refusal(fuzz_dir, argv):
    argv = [a.replace("{dir}", str(fuzz_dir)) for a in argv]
    with mock.patch.object(core, "all_codewords", wraps=core.all_codewords) as tables, \
            mock.patch.object(serialize, "_labels", wraps=serialize._labels) as decodes:
        rc, _, err = _run_main(argv)
    assert rc in (0, 1, 2, 3), (argv, err)
    assert "internal error" not in err and "Traceback" not in err, argv
    assert rc != 1 or err, argv
    if rc == 3:
        # the timing-free form of "exit 3 returns at once": a code whose M*n
        # table charge passes the cap is refused before its table is built,
        # and a canonical table file's labels are never decoded (each flag
        # is drawn at most once)
        text = Path(argv[argv.index("--code") + 1]).read_text()
        code = serialize.code_from_json(json.loads(text))
        cap = int(argv[argv.index("--cap") + 1]) if "--cap" in argv else verify.DEFAULT_EVAL_CAP
        if code.sigma_in**code.n * code.n > cap:
            assert tables.call_count == 0 and decodes.call_count == 0, argv
