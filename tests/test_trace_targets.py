"""The benchmark's tracer (perfbench/spans.py) patches treecodes functions by
name and reads some of their arguments by position.  A rename or a moved
parameter would only show when the benchmark runs with --trace 1; these
checks make it fail here first."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"treecodes.{module}"), name, None)


def test_every_trace_target_resolves():
    spans = _load_spans()
    missing = [f"{mod}.{fn}" for mod, fn, _ in spans.TARGETS if not callable(_resolve(mod, fn))]
    assert not missing
    assert isinstance(_resolve("rng", "DetStream"), type)


@pytest.mark.parametrize("module,fn,param", [
    ("constructions", "ecc_family", "max_ell"),
    ("entropy", "ledger_replay", "p"),
    ("verify", "check_neighborhood_decoding", "p"),
])
def test_traced_arguments_keep_their_position(module, fn, param):
    # spans._label reads these as args[1] when passed positionally
    assert list(inspect.signature(_resolve(module, fn)).parameters)[1] == param


def test_search_opens_one_stream_per_trial_through_the_traced_name(monkeypatch):
    # the tracer counts rng.streams by replacing DetStream in every treecodes
    # module; the search must open its streams through constructions.DetStream,
    # one per trial, for that count to mean trials
    constructions = importlib.import_module("treecodes.constructions")
    rng = importlib.import_module("treecodes.rng")
    opened = []

    class Counting(constructions.DetStream):
        def __init__(self, *args) -> None:
            opened.append(args)
            super().__init__(*args)

    monkeypatch.setattr(constructions, "DetStream", Counting)
    monkeypatch.setattr(rng, "DetStream", Counting)
    result = constructions.random_code_search(6, 4, trials=40, seed=5)
    assert result.trials == 40
    assert opened == [(5, "trial", t) for t in range(40)]


def test_replacing_core_all_codewords_alone_sees_the_table_behind_code_table(monkeypatch):
    # the tracer counts core.all_codewords.calls and core.messages by replacing
    # all_codewords in every treecodes module; a code's table must be built
    # through core's own name for those counts to see it
    core = importlib.import_module("treecodes.core")
    verify = importlib.import_module("treecodes.verify")
    built = []
    original = core.all_codewords
    monkeypatch.setattr(core, "all_codewords", lambda code: built.append(code) or original(code))
    code = core.trivial_code(4)
    assert verify.check_tree_distance(code, 1).passed
    assert verify.check_online_property(code).passed
    assert built == [code] and code.table is code.table
