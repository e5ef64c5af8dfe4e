"""Fluid-path byte guard: two cold-run benchmark ops, in process.

``perfbench/digests.json`` records the sha256 of the schema-v2
``--json-out`` document of every op the benchmark can draw.  Running one
time scale of a flow-backend op and one of an adaptive op here, against
those recorded digests (read only), makes any change to event order or
output bytes on the fluid path fail tier-1, not only the benchmark.
The schema-v2 document carries ``events_processed``, so even one extra
event per timestamp changes the digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

DIGESTS = Path(__file__).resolve().parents[2] / "perfbench" / "digests.json"

#: The benchmark's time scale 1.25 of two zoo-fluid families: the
#: argv strings are the digest keys.
OPS = {
    "flow-unet-sd": (
        "--topology Ring(8)_Switch(8) --bandwidths 125.0,31.25 "
        "--latencies 400.0,400.0 --peak-tflops 292.5 --hbm-gbps 2548.75 "
        "--model unet-sd --backend flow"),
    "adaptive-ring8-alltoall": (
        "--topology Ring(8) --bandwidths 125.0 --latencies 400.0 "
        "--peak-tflops 292.5 --hbm-gbps 2548.75 --payload-mib 24 "
        "--workload alltoall --granularity adaptive "
        "--escalation-threshold 1"),
}


@pytest.mark.parametrize("family", sorted(OPS))
def test_fluid_op_matches_recorded_digest(family, tmp_path, capsys):
    key = OPS[family]
    expected = json.loads(DIGESTS.read_text())["digests"]["zoo-fluid"][key]
    out = tmp_path / "out.json"
    assert main(["run", *key.split(), "--json-out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
