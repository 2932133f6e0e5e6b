"""The --code loader.  A table-code file as dumps_canonical writes it is
built from its header, and its labels are decoded only when a check reads
its table (serialize.read_table_code); every other file is parsed whole.

Each file here runs through cli.main twice: as loaded, and with the header
reader switched off, so that every file is parsed whole.  Both runs must
print the same bytes at a cap below the M*n table charge and at one above
it.  The one exception is pinned below: labels of digits and commas, as many
as the depth wants, that still are not JSON are refused when the table is
read, so a cap below the charge refuses the check first (exit 3).
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from treecodes import cli, core, serialize
from treecodes.serialize import dumps_canonical, read_table_code, tabulate_code

N, SIGMA_OUT = 6, 4
CHARGE = 2**N * N  # the M*n table charge
CAPS = (CHARGE - 1, CHARGE + 10**6)


def _labels():
    rng = random.Random(40)
    return [str(rng.randrange(SIGMA_OUT)) for _ in range(2 ** (N + 1) - 2)]


HEAD = f'{{"kind":"table","n":{N},"sigma_in":2,"sigma_out":{SIGMA_OUT},"table":['
CANONICAL = HEAD + ",".join(_labels()) + "]}\n"
OBJ = json.loads(CANONICAL)


def _with(edit):
    """The canonical file with its label strings edited in place."""
    labels = _labels()
    edit(labels)
    return HEAD + ",".join(labels) + "]}\n"


# files of the canonical file's code, written otherwise
SAME_CODE = {
    "no trailing newline": CANONICAL.rstrip("\n"),
    "keys reordered": json.dumps(dict(reversed(list(OBJ.items()))), separators=(",", ":")),
    "indented": json.dumps(OBJ, sort_keys=True, indent=1),
    "a space before the labels": CANONICAL.replace("[", "[ ", 1),
    "spaces between labels": CANONICAL.replace(",", ", "),
    "a CRLF line end": CANONICAL.replace("\n", "\r\n"),
    "two trailing newlines": CANONICAL + "\n",
}
# files the whole parse refuses, or whose code a check refuses
REFUSED = {
    "an extra key": CANONICAL.replace('{"kind"', '{"extra":1,"kind"'),
    "a nested label": CANONICAL.replace("[", "[[0],", 1),
    "a nested extra value": CANONICAL.replace('{"kind"', '{"extra":{"n":1},"kind"'),
    "a byte order mark": "﻿" + CANONICAL,
    "a negative label": _with(lambda t: t.__setitem__(0, "-1")),
    "a label past sigma_out": _with(lambda t: t.__setitem__(0, str(SIGMA_OUT))),
    "a truncated table": _with(lambda t: t.pop()),
    "an extra label": _with(lambda t: t.append("0")),
    "an empty table": HEAD + "]}\n",
    "a file cut short": CANONICAL[: len(CANONICAL) // 2],
    "a string n": CANONICAL.replace(f'"n":{N}', f'"n":"{N}"'),
    "n = 0": CANONICAL.replace(f'"n":{N}', '"n":0'),
    "n with a leading zero": CANONICAL.replace(f'"n":{N}', f'"n":0{N}'),
    "a float sigma_out": CANONICAL.replace(f'"sigma_out":{SIGMA_OUT}', f'"sigma_out":{SIGMA_OUT}.0'),
    "sigma_in = 0": CANONICAL.replace('"sigma_in":2', '"sigma_in":0'),
}
# labels of digits and commas, as many as the depth wants, that are not JSON
NOT_JSON = {
    "a leading zero": _with(lambda t: t.__setitem__(0, "0" + t[0])),
    "an empty label": _with(lambda t: t.__setitem__(1, "")),
    "a leading comma": _with(lambda t: t.__setitem__(0, "")),
    "a trailing comma": _with(lambda t: t.__setitem__(-1, "")),
    "a label past int()'s digit limit": _with(
        lambda t: t.__setitem__(0, "1" * (sys.get_int_max_str_digits() + 1))),
}


def _main(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch("sys.stdin", io.StringIO(stdin)):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _whole(argv, stdin=""):
    """_main with the header reader switched off: every file parsed whole."""
    with mock.patch.object(serialize, "read_table_code", return_value=None):
        return _main(argv, stdin)


def _verify(path, cap):
    return ["verify", "--code", str(path), "--property", "distance", "--delta", "1/2",
            "--cap", str(cap)]


def _file(tmp_path, text):
    path = tmp_path / "code.json"
    path.write_bytes(text.encode())
    return path


def test_the_canonical_file_is_read_from_its_header_and_decoded_once(tmp_path):
    path = _file(tmp_path, CANONICAL)
    code = read_table_code(path.read_bytes())
    assert (code.n, code.sigma_in, code.sigma_out, code.name) == (N, 2, SIGMA_OUT, f"table[{N}]")
    assert read_table_code(SAME_CODE["no trailing newline"].encode()) is not None
    with mock.patch.object(serialize, "_labels", wraps=serialize._labels) as decodes:
        got = _main(_verify(path, CAPS[1]))
    assert got == _whole(_verify(path, CAPS[1])) and got[0] == 2 and decodes.call_count == 1
    assert dumps_canonical(tabulate_code(code)) == CANONICAL


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name", sorted(SAME_CODE))
def test_a_file_of_the_same_code_prints_what_the_canonical_file_does(tmp_path, name, cap):
    canonical = _main(_verify(_file(tmp_path, CANONICAL), cap))
    argv = _verify(_file(tmp_path, SAME_CODE[name]), cap)
    assert _main(argv) == _whole(argv) == canonical
    assert canonical[0] == (3 if cap < CHARGE else 2)


@pytest.mark.parametrize("cap", CAPS)
def test_the_canonical_file_on_stdin_prints_what_the_file_does(tmp_path, cap):
    from_file = _main(_verify(_file(tmp_path, CANONICAL), cap))
    assert _main(_verify("-", cap), stdin=CANONICAL) == from_file


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_refused_file_prints_what_the_whole_parse_does(tmp_path, name, cap):
    argv = _verify(_file(tmp_path, REFUSED[name]), cap)
    got = _main(argv)
    assert got == _whole(argv)
    assert got[0] in (1, 3) and not got[1] and got[2]


@pytest.mark.parametrize("cap", CAPS)
def test_a_truncated_table_or_a_malformed_header_exits_1_whatever_the_cap(tmp_path, cap):
    rc, out, err = _main(_verify(_file(tmp_path, REFUSED["a truncated table"]), cap))
    assert (rc, out, err) == (1, "", "invalid input: table has 125 labels, want 126\n")
    for name in ("a string n", "n = 0", "n with a leading zero", "a float sigma_out",
                 "a file cut short"):
        rc, out, err = _main(_verify(_file(tmp_path, REFUSED[name]), cap))
        assert rc == 1 and err.startswith("invalid input: "), name


@pytest.mark.parametrize("n", [1000, 10**12])
@pytest.mark.parametrize("sigma_in", [0, -1])
def test_an_input_alphabet_below_1_is_refused_before_any_level_is_sized(tmp_path, sigma_in, n):
    # sigma_in^j never passes a limit: level_offsets used to size all n
    # levels, once in the header reader (sigma_in = 0) and again in the
    # whole parse, before the alphabet was refused
    text = f'{{"kind":"table","n":{n},"sigma_in":{sigma_in},"sigma_out":2,"table":[]}}\n'
    sized, level_offsets = [], core.level_offsets

    def counting(*args):
        offsets = level_offsets(*args)
        sized.append(len(offsets))
        return offsets

    with mock.patch.object(core, "level_offsets", counting):
        got = _main(_verify(_file(tmp_path, text), CAPS[1]))
    assert got == (1, "", f"invalid input: alphabet size must be >= 1, got {sigma_in}\n")
    assert sized == []


@pytest.mark.parametrize("name", sorted(NOT_JSON))
def test_labels_that_are_not_json_are_refused_when_the_table_is_read(tmp_path, name):
    path = _file(tmp_path, NOT_JSON[name])
    whole_below = _whole(_verify(path, CAPS[0]))
    assert whole_below[0] == 1 and whole_below[2].startswith("invalid input: ")
    # below the charge the check is refused before any label is decoded
    assert _main(_verify(path, CAPS[0])) == (
        3, "", f"cap exceeded: evaluation cap exceeded: {CHARGE} > {CHARGE - 1}\n")
    # above it, the decoder's refusal, as the whole parse gives it
    assert _main(_verify(path, CAPS[1])) == _whole(_verify(path, CAPS[1])) == whole_below


@pytest.fixture(scope="module")
def files16(tmp_path_factory):
    """A canonical table file of trivial_code(16) (M*n = 2^20) and the
    dyadic partition of its length."""
    d = tmp_path_factory.mktemp("files16")
    (d / "code.json").write_text(dumps_canonical(tabulate_code(core.trivial_code(16))))
    assert cli.main(["build", "--recipe-json", '{"kind":"eks_partition","k":4}',
                     "--out-dir", str(d)]) == 0
    return d


REFUSALS = (
    ["verify", "--property", "distance"],
    ["verify", "--property", "imm_function"],
    ["verify", "--property", "eks", "--k", "4"],
    ["verify", "--property", "ghk", "--k0", "1"],
    ["verify", "--property", "chs", "--m", "1", "--l1", "4"],
    ["verify", "--property", "neighborhood", "--partition", "{dir}/partition.json"],
    ["audit", "--partition", "{dir}/partition.json"],
)


@pytest.mark.parametrize("argv", REFUSALS, ids=lambda a: a[2] if a[0] == "verify" else a[0])
def test_a_check_refused_at_the_table_charge_decodes_no_label(files16, argv):
    argv = [a.replace("{dir}", str(files16)) for a in argv]
    argv += ["--code", str(files16 / "code.json"), "--cap", str(1 << 16)]
    with mock.patch.object(serialize, "_labels", wraps=serialize._labels) as decodes, \
            mock.patch.object(core, "all_codewords", wraps=core.all_codewords) as tables:
        rc, out, err = _main(argv)
    assert (rc, out) == (3, "") and err.startswith("cap exceeded: evaluation cap exceeded: ")
    assert decodes.call_count == 0 and tables.call_count == 0
    assert (rc, out, err) == _whole(argv)


def test_a_decoded_table_drops_the_file_bytes(files16):
    code = read_table_code((files16 / "code.json").read_bytes())
    assert len(code.table) == 1 << 16
    assert code.char_fn._decode is None
    assert code.char_fn.levels is code.table.columns


def test_labels_are_decoded_into_the_narrowest_unsigned_array_or_named_if_one_does_not_fit(
        tmp_path):
    # SIGMA_OUT = 4 fits one-byte items: the levels are decoded as such and
    # become the table's columns unconverted.  A label past 255 fits no
    # such item, so the labels stay a list and prefix_columns names it, as
    # the whole parse does
    code = read_table_code(CANONICAL.encode())
    levels = code.char_fn.levels
    assert {level.typecode for level in levels} == {"B"}
    assert all(column is level for column, level in zip(code.table.columns, levels))
    path = _file(tmp_path, _with(lambda t: t.__setitem__(0, "256")))
    rc, out, err = _main(_verify(path, CAPS[1]))
    assert (rc, out) == (1, "") and "symbol 256 at prefix [0] is outside the output alphabet" in err
    assert (rc, out, err) == _whole(_verify(path, CAPS[1]))
