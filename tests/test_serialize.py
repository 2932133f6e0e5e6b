import json
from fractions import Fraction
from itertools import product

import pytest

from treecodes.constructions import eks_code
from treecodes.core import trivial_code
from treecodes.dyadic import as_fraction
from treecodes.partitions import (
    DeficiencyLedger,
    chs_partition,
    eks_partition,
    ghk_partition,
    LaminarPartition,
    TaggedBlock,
)
from treecodes.serialize import (
    bound_report_to_json,
    code_from_json,
    dumps_canonical,
    frac_str,
    ledger_from_json,
    ledger_to_json,
    partition_from_json,
    partition_to_json,
    tabulate_code,
    verdict_to_json,
)


def _level_order_labels(code):
    # the level-order char walk tabulate_code ran before it read the message
    # table's prefix columns
    sigma = code.sigma_in
    return [code.char_fn(prefix) for j in range(1, code.n + 1)
            for prefix in product(range(sigma), repeat=j)]


def test_tabulate_code_is_the_level_order_walk():
    from treecodes.constructions import table_code
    from treecodes.synthetic import scrambled_prefix_code

    ternary = table_code(3, 3, 4, [(5 * i + 1) % 4 for i in range(3 + 9 + 27)])
    for code in (trivial_code(5), scrambled_prefix_code(7, 2), ternary):
        assert tabulate_code(code)["table"] == _level_order_labels(code)


def test_tabulate_code_rejects_symbols_outside_sigma_out():
    from treecodes.core import TreeCode

    loud = TreeCode(3, 2, 4, lambda prefix: 4 * prefix[-1])
    with pytest.raises(ValueError, match=r"symbol 4 at prefix \[1\] is outside"):
        tabulate_code(loud)


def test_fraction_strings():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(8, 4)) == "2"
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2


def test_code_roundtrip_table_form():
    code = trivial_code(4)
    obj = tabulate_code(code)
    rebuilt = code_from_json(obj)
    for x in product((0, 1), repeat=4):
        assert rebuilt.encode(x) == code.encode(x)


def test_code_recipes():
    assert code_from_json({"kind": "trivial", "n": 5}).n == 5
    assert code_from_json({"kind": "identity", "n": 3, "sigma_in": 4}).sigma_in == 4
    with pytest.raises(ValueError):
        code_from_json({"kind": "nope"})


def test_code_object_without_kind_is_refused():
    obj = tabulate_code(trivial_code(3))
    del obj["kind"]
    with pytest.raises(ValueError, match="unknown code kind None"):
        code_from_json(obj)


def test_eks_recipe_rebuilds_deterministically(eks3):
    recipe = {"kind": "eks", "k": 3, "b": eks3.b, "delta": "1/2", "seed": 0}
    code = code_from_json(recipe)
    reference = eks_code(eks3)
    for x in product((0, 1), repeat=8):
        assert code.encode(x) == reference.encode(x)


def test_partition_roundtrips():
    for p in (eks_partition(3), ghk_partition(16, 4, Fraction(1, 2)), chs_partition(1, 4, 0)[0]):
        obj = partition_to_json(p)
        q = partition_from_json(json.loads(json.dumps(obj)))
        assert q.n == p.n and q.alpha == p.alpha and q.p0 == p.p0 and q.tagged == p.tagged


def test_partition_serializer_rejects_non_intervals():
    scattered = LaminarPartition(
        n=4,
        alpha=Fraction(1, 2),
        p0=((1, 3), (2, 4)),
        tagged=(),
    )
    with pytest.raises(ValueError, match="interval"):
        partition_to_json(scattered)


def test_ledger_roundtrip():
    p, ledger = chs_partition(1, 4, 0)
    obj = ledger_to_json(ledger)
    assert obj == [{"level": 1, "blocks": [1]}]
    back = ledger_from_json(obj, p)
    assert back == ledger
    # a ledger over two levels loads unchanged from its file
    p, ledger = chs_partition(2, 4, 0)
    obj = json.loads(dumps_canonical(ledger_to_json(ledger)))
    assert obj == [{"level": 1, "blocks": [31]}, {"level": 2, "blocks": [1]}]
    assert ledger_from_json(obj, partition_from_json(partition_to_json(p))) == ledger


def test_canonical_bytes_are_stable():
    a = dumps_canonical({"b": 1, "a": [1, 2]})
    b = dumps_canonical({"a": [1, 2], "b": 1})
    assert a == b and a.endswith("\n")


def test_verdict_and_report_serialization(eks3):
    from treecodes.bounds import audit_code
    from treecodes.verify import check_tree_distance

    v = check_tree_distance(trivial_code(4), 1)
    payload = verdict_to_json(v)
    json.dumps(payload)
    rep = audit_code(eks_code(eks3), eks_partition(3))
    payload = bound_report_to_json(rep)
    json.dumps(payload)
    assert payload["bound_value"] == "3/2" and payload["satisfied"] is True
