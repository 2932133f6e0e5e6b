"""tools/scale_probe.py counts grouping work by replacing
grouping._first_occurrences, the one kernel of passes and refinements, with
a counting wrapper.  A rename or a changed signature would only show when
someone runs the probe; these runs make it fail here first."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def probe(*args: str) -> dict:
    """The JSON line of one probe run, in its own process."""
    got = subprocess.run([sys.executable, str(ROOT / "tools" / "scale_probe.py"), *args],
                         cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True)
    return json.loads(got.stdout)


COUNTS = ("passes", "keys", "refined")


@pytest.mark.parametrize("table,want", [
    # every column of the trivial code is injective: no pass, no refinement
    ((), {"passes": 0, "keys": 0, "refined": 0, "passed": True}),
    (("--sigma-out", "64", "--seed", "1"),
     {"passes": 11, "keys": 1_168, "refined": 68, "passed": False}),
], ids=["trivial", "random-table"])
def test_the_audit_probe_counts_passes_keys_and_refinements(table, want):
    got = probe("--check", "audit", "--n", "8", *table)
    assert {"check", "n", "seconds", "peak_rss_mb", "decoding", "replay"} <= got.keys()
    assert {k: got[k] for k in want} == want
    assert all(got["decoding"][k] + got["replay"][k] == got[k] for k in COUNTS)
