"""Record the expected output of every op the benchmark can draw.

Usage (from the root of a checkout)::

    python3 perfbench/record.py

Writes ``perfbench/digests.json``:

- ``digests[workload][op key]``: sha256 of the op's schema-v2
  ``--json-out`` file, for every op of :func:`ops.universe`;
- ``digests["serve-mixed"][body]``: sha256 of the daemon's response to
  that ``POST /run`` body, computed in process (``run_point`` plus the
  daemon's canonical encoding), which the daemon promises to match byte
  for byte;
- ``band_reference_ns[op key]``: for an op that does not finish within
  :data:`RECORD_LIMIT_S`, the total of the same config on the packet backend
  (``--backend garnet --train-packets 256``); the benchmark accepts
  such an op, once it finishes, within the packet band.  A family whose
  first op does not finish is not run again for its other scales.

Re-record only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ops as opsmod  # noqa: E402
import procs  # noqa: E402
from run import encode_body, sha256  # noqa: E402

#: Wall limit of one op while recording, far above the benchmark's own
#: limit so that every op that finishes at all gets an exact digest.
RECORD_LIMIT_S = 60.0

_BACKEND_FLAGS = {"--backend": 1, "--granularity": 1,
                  "--escalation-threshold": 1, "--train-packets": 1}


def packet_twin(argv: List[str]) -> List[str]:
    """The same config on the packet backend."""
    out, skip = [], 0
    for token in argv:
        if skip:
            skip -= 1
            continue
        if token in _BACKEND_FLAGS:
            skip = _BACKEND_FLAGS[token]
            continue
        out.append(token)
    return out + ["--backend", "garnet", "--train-packets", "256"]


def run_cli(root: Path, work: Path, argv: List[str]):
    out = work / "out.json"
    out.unlink(missing_ok=True)
    done = procs.run_limited(
        [sys.executable, "-m", "repro.cli", "run"] + argv
        + ["--json-out", str(out)],
        cwd=root, env=procs.child_env(root), limit_s=RECORD_LIMIT_S,
        stdout_path=work / "out.txt")
    if done.timed_out:
        return None
    if done.returncode != 0:
        raise SystemExit(f"op failed ({done.returncode}): {' '.join(argv)}\n"
                         + (work / "out.txt").read_text())
    return out.read_bytes()


def main() -> int:
    root = Path.cwd().resolve()
    work = root / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    digests: Dict[str, Dict[str, str]] = {}
    band: Dict[str, float] = {}
    for workload in opsmod.RUN_WORKLOADS:
        digests[workload] = {}
        hung = set()
        for op in opsmod.universe(workload):
            start = time.perf_counter()
            data = None if op.family in hung else run_cli(
                root, work, list(op.argv))
            if data is None:
                hung.add(op.family)
                twin = run_cli(root, work, packet_twin(list(op.argv)))
                band[op.key] = json.loads(twin)["total_time_ns"]
                print(f"{workload:10s} {op.family:24s} unfinished; packet "
                      f"reference {band[op.key]:.1f} ns", flush=True)
                continue
            digests[workload][op.key] = sha256(data)
            print(f"{workload:10s} {op.family:24s} "
                  f"{time.perf_counter() - start:6.2f} s", flush=True)

    sys.path.insert(0, str(root / "src"))
    from repro.campaign.runner import run_point
    from repro.campaign.serve import _canon

    digests["serve-mixed"] = {
        encode_body(body).decode(): sha256(_canon(run_point(body)))
        for body in opsmod.serve_universe()}
    (HERE / "digests.json").write_text(json.dumps(
        {"digests": digests, "band_reference_ns": band}, indent=1,
        sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass
    print(f"recorded {sum(len(d) for d in digests.values())} digests and "
          f"{len(band)} band references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
