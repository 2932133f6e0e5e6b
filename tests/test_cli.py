import hashlib
import json
import time

import pytest

from treecodes import cli


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


def test_audit_rejects_symbols_outside_the_output_alphabet(tmp_path, capsys):
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
}


@pytest.mark.parametrize("case", sorted(_USAGE_MISTAKES))
def test_usage_mistake_exits_1(tmp_path, capsys, case):
    argv, files = _USAGE_MISTAKES[case]
    run(capsys, "build", "--recipe-json", '{"kind":"trivial","n":4}', "--out-dir", str(tmp_path))
    run(capsys, "build", "--recipe-json", '{"kind":"eks_partition","k":2}',
        "--out-dir", str(tmp_path))
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    rc = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert "invalid input" in err and "internal error" not in err


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
    ('{"kind":"wat"}', "unknown recipe kind 'wat'"),
], ids=["short-table", "unknown-kind"])
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
    from treecodes import verify

    calls = []
    original = verify.validate_laminar
    monkeypatch.setattr(verify, "validate_laminar", lambda p: calls.append(p.n) or original(p))
    run(capsys, "build", "--recipe-json", '{"kind":"eks","k":3,"delta":"1/2","seed":0}',
        "--out-dir", str(tmp_path))
    args = ("audit", "--code", str(tmp_path / "code.json"),
            "--partition", str(tmp_path / "partition.json"))
    held = len(verify._STRUCTURE)
    first = run(capsys, *args)
    assert first[0] == 0 and calls == [8]
    assert run(capsys, *args) == first and calls == [8, 8]
    assert len(verify._STRUCTURE) == held


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


def test_selftest_list_and_ablate(capsys):
    rc, out = run(capsys, "selftest", "--list")
    assert rc == 0 and out.count("criterion") == 10
    rc, out = run(capsys, "selftest", "--ablate")
    assert rc == 0 and "expected failures observed" in out


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
