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
