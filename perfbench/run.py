"""Cold-run benchmark of the ``repro`` simulator, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 20 --trace 0

Prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` runs the op list once
untraced and once under ``perfbench/tracedriver.py`` and reports the
per-layer metrics.  Times are in reference seconds (see
:mod:`hostspeed`).  The line before it is a report: the environment
stamp, sample counts, the host's slowdowns and every op's outcome.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import http.client
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import ops as opsmod  # noqa: E402
import procs  # noqa: E402
import stats  # noqa: E402
from tracer import merge  # noqa: E402

#: Wall limit of one op (and of one daemon's set-up), in reference
#: seconds: 1.7 times the slowest op that finishes (flow llama3-8b).
LIMIT_S = 8.0
#: A traced op's limit: tracing every event can triple an op's wall.
#: An op that hit ``LIMIT_S`` untraced gets ``LIMIT_S`` traced as well.
TRACE_LIMIT_S = 16.0
#: Limits stretch with the host's slowdown up to this factor, so that a
#: traced zoo-fluid run ends within 180 s even on a host 4x slower than
#: the reference.
MAX_STRETCH = 3.0
#: After its limit, a traced op gets this long to write its spans.
TRACE_GRACE_S = 3.0
#: Requests between two timings of the reference work in a daemon
#: lifetime: a segment lasts 0.1-0.3 s, shorter than the host's states.
SERVE_SEGMENT = 40
#: How far a traced op's spans may exceed its observed wall (clock reads).
IDENTITY_SLACK_S = 0.02
DIGESTS = HERE / "digests.json"
SIM_WALL = re.compile(r"\(([0-9.]+) s wall\)")


# -- environment -----------------------------------------------------------------

def environment(root: Path, seed: int) -> Dict[str, Any]:
    try:
        import scipy  # noqa: F401
        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = ""
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scipy": scipy_version is not None,
        "scipy_version": scipy_version,
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- run workloads ---------------------------------------------------------------

@dataclass
class OpOutcome:
    family: str
    wall_s: float                 # observed, spawn to reaped
    timed_out: bool
    returncode: Optional[int]
    maxrss_mb: float
    sim_s: Optional[float] = None
    started_s: Optional[float] = None  # spawn to the simulation's start
    digest: str = ""
    ok: bool = False
    reason: str = ""
    slowdown: float = 1.0         # the host's, around this op

    @property
    def charged_wall_s(self) -> float:
        """Wall in reference seconds; the limit if the op hit it."""
        return stats.charged_wall(self.wall_s / self.slowdown,
                                  self.timed_out, LIMIT_S)

    @property
    def charged_setup_s(self) -> float:
        def reference(seconds: Optional[float]) -> Optional[float]:
            return None if seconds is None else seconds / self.slowdown

        return stats.charged_setup(self.wall_s / self.slowdown,
                                   reference(self.sim_s), self.timed_out,
                                   LIMIT_S, reference(self.started_s))


class Checker:
    """Checks an op's schema-v2 JSON against what was recorded for it."""

    def __init__(self, workload: str) -> None:
        recorded = json.loads(DIGESTS.read_text())
        self.digests: Dict[str, str] = recorded["digests"].get(workload, {})
        self.band: Dict[str, float] = recorded["band_reference_ns"]

    def check(self, op: opsmod.Op, data: bytes) -> Tuple[bool, str]:
        digest = sha256(data)
        expected = self.digests.get(op.key)
        if expected is not None:
            return digest == expected, ("" if digest == expected
                                        else "digest mismatch")
        reference = self.band.get(op.key)
        if reference is None:
            return False, "no recorded digest or band reference"
        # No recorded digest: the op never finished when digests were
        # recorded.  Accept it within the packet backend's band.
        from repro.validate.conformance import REL_PACKET

        total = json.loads(data)["total_time_ns"]
        error = abs(total - reference) / reference
        return error <= REL_PACKET, ("" if error <= REL_PACKET else
                                     f"total off the packet band ({error:.3%})")


def run_op(op: opsmod.Op, *, root: Path, work: Path, tag: str,
           checker: Checker, limit: float, slowdown: float, cpu: int,
           traced: bool = False) -> Tuple[OpOutcome, bytes, Optional[Dict]]:
    """Run one op pinned to ``cpu``; its ``limit`` is stretched by the
    host's ``slowdown``."""
    out_json = work / f"{tag}.json"
    agg_json = work / f"{tag}.agg.json"
    mark = work / f"{tag}.mark"
    for stale in (out_json, agg_json, mark):
        stale.unlink(missing_ok=True)
    flags = list(op.argv) + ["--json-out", str(out_json), "--sim-rate"]
    if traced:
        argv = [sys.executable, str(HERE / "tracedriver.py"), "--out",
                str(agg_json), "run"] + flags
    else:
        argv = [sys.executable, str(HERE / "opdriver.py"), str(mark),
                "run"] + flags
    spawned = time.time()
    done = procs.run_limited(argv, cwd=root, env=procs.child_env(root),
                             limit_s=limit * min(slowdown, MAX_STRETCH),
                             grace_s=TRACE_GRACE_S if traced else 0.0,
                             stdout_path=work / f"{tag}.out", cpu=cpu)
    outcome = OpOutcome(op.family, done.wall_s, done.timed_out,
                        done.returncode, done.maxrss_mb)
    if mark.exists():
        outcome.started_s = float(mark.read_text()) - spawned
    data = b""
    if done.timed_out:
        outcome.reason = f"hit the {limit:g} s wall limit"
    elif done.returncode != 0:
        outcome.reason = f"exit code {done.returncode}"
    elif not out_json.exists():
        outcome.reason = "no JSON written"
    else:
        data = out_json.read_bytes()
        outcome.digest = sha256(data)
        text = (work / f"{tag}.out").read_text(errors="replace")
        match = SIM_WALL.search(text)
        outcome.sim_s = float(match.group(1)) if match else None
        outcome.ok, outcome.reason = checker.check(op, data)
    agg = json.loads(agg_json.read_text()) if agg_json.exists() else None
    return outcome, data, agg


def run_pass(op_list: List[opsmod.Op], *, root: Path, work: Path,
             name: str, checker: Checker, limits: List[float],
             traced: bool = False):
    """Run the op list once, each op pinned to one CPU and the reference
    work timed on that CPU around it.  An op runs one process, so only
    its own CPU's speed matters, and the vCPUs' speeds differ."""
    cpu = max(os.sched_getaffinity(0))
    outcomes, outputs, aggs = [], [], []
    before = hostspeed.reference_work([cpu])
    for index, (op, limit) in enumerate(zip(op_list, limits)):
        outcome, data, agg = run_op(op, root=root, work=work,
                                    tag=f"{name}-{index}", checker=checker,
                                    limit=limit,
                                    slowdown=hostspeed.slowdown(before),
                                    cpu=cpu, traced=traced)
        after = hostspeed.reference_work([cpu])
        outcome.slowdown = hostspeed.slowdown(before, after)
        before = after
        outcomes.append(outcome)
        outputs.append(data)
        aggs.append(agg)
    return outcomes, outputs, aggs


def pass_wall(outcomes: List[OpOutcome]) -> float:
    return sum(o.charged_wall_s for o in outcomes)


def run_metrics(passes: List[List[OpOutcome]]) -> Dict[str, float]:
    """End-to-end metrics of a run workload from its untraced passes.

    A run workload has no requests.  ``req_p50_ms`` and ``req_p90_ms``
    both read the median pass latency, ``wall_s`` in ms, and
    ``req_per_s`` reads ops completed per second; they are there because
    every end-to-end metric is reported on every workload.
    """
    every = [o for outcomes in passes for o in outcomes]
    wall_s = stats.median(pass_wall(p) for p in passes)
    return {
        "wall_s": wall_s,
        "setup_s": stats.median(sum(o.charged_setup_s for o in p)
                                for p in passes),
        "peak_rss_mb": max(o.maxrss_mb for o in every),
        "req_p50_ms": wall_s * 1e3,
        "req_p90_ms": wall_s * 1e3,
        "req_per_s": (sum(o.ok for o in every)
                      / sum(o.charged_wall_s for o in every)),
    }


def fixed_budget_passes(seconds: float, run_one) -> List[Any]:
    """Repeat ``run_one`` while another pass of the mean length fits."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(run_one(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path, work: Path) -> Dict[str, Any]:
    op_list = opsmod.op_list(workload, seed)
    checker = Checker(workload)
    report: Dict[str, Any] = {"ops": [op.key for op in op_list]}
    if not trace:
        passes = fixed_budget_passes(seconds, lambda i: run_pass(
            op_list, root=root, work=work, name=f"p{i}", checker=checker,
            limits=[LIMIT_S] * len(op_list))[0])
        every = [o for p in passes for o in p]
        report.update(passes=len(passes),
                      pass_wall_s=[pass_wall(p) for p in passes],
                      pass_observed_wall_s=[sum(o.wall_s for o in p)
                                            for p in passes],
                      outcomes=[asdict(o) for o in every])
        return {"metrics": run_metrics(passes), "attempted": len(every),
                "failed": sum(not o.ok for o in every), "report": report,
                "correct": all(o.ok or o.timed_out for o in every)}
    plain, plain_out, _ = run_pass(op_list, root=root, work=work, name="u",
                                   checker=checker,
                                   limits=[LIMIT_S] * len(op_list))
    traced, traced_out, aggs = run_pass(
        op_list, root=root, work=work, name="t", checker=checker,
        limits=[LIMIT_S if o.timed_out else TRACE_LIMIT_S for o in plain],
        traced=True)
    identical = all(a == b for a, b, o in zip(plain_out, traced_out, plain)
                    if o.ok)
    identities, identity_ok, scaled = [], True, []
    for outcome, agg in zip(traced, aggs):
        if agg is None:
            identity_ok = False
            continue
        covered = sum(agg["self_s"].values())
        other = stats.other_time(outcome.wall_s, agg["self_s"])
        identity_ok &= other >= -IDENTITY_SLACK_S
        identities.append({"family": outcome.family, "wall_s": outcome.wall_s,
                           "layers_s": covered, "other_s": other,
                           "slowdown": outcome.slowdown})
        scaled.append(scale_times(agg, 1.0 / outcome.slowdown))
    pairs = [(u, t) for u, t in zip(plain, traced) if u.ok and t.ok]
    overhead = (sum(t.charged_wall_s for _u, t in pairs)
                / sum(u.charged_wall_s for u, _t in pairs)) if pairs else 0.0
    other_s = sum(i["other_s"] / i["slowdown"] for i in identities)
    metrics = layer_metrics(merge(scaled), other_s=other_s,
                            traced_wall_s=sum(o.wall_s / o.slowdown
                                              for o in traced),
                            overhead=overhead)
    report.update(identical_outputs=identical, identity=identities,
                  outcomes=[asdict(o) for o in plain + traced])
    every = plain + traced
    return {"metrics": metrics, "attempted": len(every),
            "failed": sum(not o.ok for o in every), "report": report,
            "correct": identical and identity_ok and all(
                o.ok or o.timed_out for o in every)}


# -- per-layer metrics -----------------------------------------------------------

#: The span-time fields of a trace aggregate (the others are counts).
TIME_FIELDS = ("self_s", "incl_s", "first_s", "roots")


def scale_times(agg: Dict[str, Any], factor: float) -> Dict[str, Any]:
    """``agg`` with every span time multiplied by ``factor``."""
    out = dict(agg)
    for name in TIME_FIELDS:
        out[name] = {key: value * factor
                     for key, value in agg.get(name, {}).items()}
    return out


def layer_metrics(doc: Dict[str, Any], *, other_s: float, traced_wall_s: float,
                  overhead: float, hits: Optional[int] = None,
                  requests: Optional[int] = None) -> Dict[str, float]:
    self_s, incl, calls = doc["self_s"], doc["incl_s"], doc["calls"]
    counts, first = doc["counts"], doc["first_s"]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    # One events.schedule span per call; a schedule_many call schedules
    # its whole batch.
    scheduled = (calls.get("events.schedule", 0)
                 - counts.get("events.schedule_many", 0.0)
                 + counts.get("events.batched", 0.0))
    traced_ranks = counts.get("core.traced_ranks", 0.0)
    out = {
        "repro.import_s": incl.get("repro.import", 0.0),
        "cli.parse_s": incl.get("cli.parse", 0.0),
        "workload.generate_s": incl.get("workload.generate", 0.0),
        "core.init_s": incl.get("core.init", 0.0),
        "stats.export_s": incl.get("stats.export", 0.0),
        "frontend.ingest_s": incl.get("frontend.ingest", 0.0),
        "frontend.plan_s": incl.get("frontend.plan", 0.0),
        "core.fold_ratio": share(counts.get("core.simulated_ranks", 0.0),
                                 traced_ranks),
        "system.scheduler_s": incl.get("system.scheduler", 0.0),
        "system.scheduler_calls": calls.get("system.scheduler", 0),
        "system.scheduler_first_s": first.get("system.scheduler", 0.0),
        "memory.self_s": self_s.get("memory", 0.0),
        "memory.calls": calls.get("memory", 0),
        "network.flowlevel.self_s": self_s.get("network.flowlevel", 0.0),
        "network.adaptive.self_s": self_s.get("network.adaptive", 0.0),
        "network.flowlevel.callbacks":
            calls.get("cb:network.flowlevel", 0),
        "network.adaptive.callbacks":
            calls.get("cb:network.adaptive", 0),
        "events.self_s": self_s.get("events", 0.0),
        "events.fired": sum(n for name, n in calls.items()
                            if name.startswith("cb:")),
        "events.scheduled": scheduled,
        "events.batched_share": share(counts.get("events.batched", 0.0),
                                      scheduled),
        "events.cancel_share": share(counts.get("events.cancelled", 0.0),
                                     scheduled),
        "network.garnetlite.self_s": self_s.get("network.garnetlite", 0.0),
        "network.garnetlite.callbacks":
            calls.get("cb:network.garnetlite", 0),
        "core.run_s": incl.get("core.run", 0.0),
        "core.engine.self_s": self_s.get("core.engine", 0.0),
        "system.self_s": self_s.get("system", 0.0),
        "network.analytical.self_s": self_s.get("network.analytical", 0.0),
        "network.self_s": self_s.get("network", 0.0),
        "network.sim_send_calls": counts.get("network.sim_send_calls", 0.0),
        "network.sim_send_bytes": counts.get("network.sim_send_bytes", 0.0),
        "core.self_s": self_s.get("core", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "workload.self_s": self_s.get("workload", 0.0),
        "frontend.self_s": self_s.get("frontend", 0.0),
        "stats.self_s": self_s.get("stats", 0.0),
        "campaign.http_self_s": self_s.get("campaign.http", 0.0),
        "campaign.self_s": self_s.get("campaign", 0.0),
        "campaign.normalize_s": incl.get("campaign.normalize", 0.0),
        "campaign.cache_get_s": incl.get("campaign.cache_get", 0.0),
        "campaign.cache_put_s": incl.get("campaign.cache_put", 0.0),
        "campaign.pool_submit_s": incl.get("campaign.pool_submit", 0.0),
        "campaign.pool_submit_first_s": first.get("campaign.pool_submit", 0.0),
        "campaign.cache_hit_ratio": share(hits or 0, requests or 0),
        "trace.setup_s": self_s.get("trace", 0.0),
        # Wall no span covers, plus callbacks from outside ``repro``.
        "other.self_s": other_s + self_s.get("other", 0.0),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_ratio": overhead,
    }
    return {name: float(value) for name, value in out.items()}


# -- serve-mixed -----------------------------------------------------------------

@dataclass
class Request:
    index: int
    latency_s: float = 0.0
    status: int = 0
    cache: str = ""
    ok: bool = False
    reason: str = ""
    slowdown: float = 1.0         # the host's, around this request's segment


@dataclass
class DaemonRun:
    setup_s: float
    requests: List[Request] = field(default_factory=list)
    phase_s: float = 0.0          # client time of the loop, reference seconds
    rss_mb: float = 0.0
    agg: Optional[Dict[str, Any]] = None
    first: Optional[Request] = None
    clean: bool = True
    slowdown: float = 1.0         # the host's, around the set-up
    segment_slowdowns: List[float] = field(default_factory=list)


def post_run(port: int, body: bytes, index: int,
             expected: Dict[bytes, str]) -> Request:
    request = Request(index)
    start = time.perf_counter()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=LIMIT_S)
        try:
            conn.request("POST", "/run", body=body, headers={
                "Content-Type": "application/json",
                "X-Bench-Req": str(index)})
            response = conn.getresponse()
            payload = response.read()
            request.status = response.status
            request.cache = response.getheader("X-Repro-Cache", "")
        finally:
            conn.close()
    except OSError as exc:
        request.reason = f"{type(exc).__name__}: {exc}"
    request.latency_s = time.perf_counter() - start
    if request.status == 200:
        request.ok = sha256(payload) == expected.get(body)
        request.reason = "" if request.ok else "digest mismatch"
    elif not request.reason:
        request.reason = f"HTTP {request.status}"
    return request


def closed_loop(port: int, bodies: List[bytes], expected: Dict[bytes, str],
                first_index: int,
                connections: int = 2) -> Tuple[List[Request], float]:
    """Each connection sends its next request when its last one returns.

    Requests are numbered from ``first_index`` in their ``X-Bench-Req``
    header."""
    results: List[Optional[Request]] = [None] * len(bodies)
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            results[index] = post_run(port, bodies[index],
                                      first_index + index, expected)

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in results if r is not None], time.perf_counter() - start


def timed_loop(port: int, bodies: List[bytes], expected: Dict[bytes, str],
               before: float) -> Tuple[List[Request], float, List[float]]:
    """The closed loop in segments of ``SERVE_SEGMENT`` requests.

    The reference work is timed between segments, while no request is in
    flight; each request gets its segment's slowdown.  ``before`` is the
    reference time taken just before the first segment.  Returns the
    requests, the client time in reference seconds and the slowdowns.
    """
    requests: List[Request] = []
    phase_s, slowdowns = 0.0, []
    for start in range(0, len(bodies), SERVE_SEGMENT):
        done, seconds = closed_loop(port, bodies[start:start + SERVE_SEGMENT],
                                    expected, first_index=1 + start)
        after = hostspeed.reference_work()
        slowdown = hostspeed.slowdown(before, after)
        for request in done:
            request.slowdown = slowdown
        requests += done
        phase_s += seconds / slowdown
        slowdowns.append(slowdown)
        before = after
    return requests, phase_s, slowdowns


def read_port(stream, pattern: re.Pattern, deadline: float) -> Optional[int]:
    """The port from the daemon's first matching stdout line."""
    found: Dict[str, int] = {}

    def reader() -> None:
        for line in stream:
            match = pattern.search(line.decode(errors="replace"))
            if match:
                found["port"] = int(match.group(1))
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(max(0.0, deadline - time.perf_counter()))
    return found.get("port")


def run_daemon(bodies: List[bytes], expected: Dict[bytes, str], *, root: Path,
               work: Path, tag: str, traced: bool) -> DaemonRun:
    """One daemon lifetime; the reference work is timed around its set-up
    and between segments of its request loop."""
    before = hostspeed.reference_work()
    cache_dir = work / f"cache-{tag}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    agg_json = work / f"{tag}.agg.json"
    agg_json.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(HERE / "tracedriver.py"), "--out",
                str(agg_json), "serve", "--cache-dir", str(cache_dir)]
        pattern = re.compile(r"^port (\d+)")
    else:
        argv = [sys.executable, "-m", "repro.cli", "serve", "--jobs", "1",
                "--port", "0", "--cache-dir", str(cache_dir)]
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=procs.child_env(root),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    limit_s = LIMIT_S * min(hostspeed.slowdown(before), MAX_STRETCH)
    run = DaemonRun(setup_s=limit_s)
    try:
        port = read_port(proc.stdout, pattern, start + limit_s)
        if port is None:
            run.first = Request(0, reason="daemon never listened")
            return run
        run.first = post_run(port, bodies[0], 0, expected)
        run.setup_s = time.perf_counter() - start
        after_setup = hostspeed.reference_work()
        run.slowdown = hostspeed.slowdown(before, after_setup)
        run.requests, run.phase_s, run.segment_slowdowns = timed_loop(
            port, bodies[1:], expected, after_setup)
        run.rss_mb = procs.peak_rss_mb(procs.group_members(proc.pid))
        if traced:
            proc.stdin.write(b"stop\n")
            proc.stdin.flush()
            proc.wait(timeout=limit_s)
            if agg_json.exists():
                run.agg = json.loads(agg_json.read_text())
    except subprocess.TimeoutExpired:
        pass
    finally:
        procs.kill_group(proc.pid)
        proc.wait()
        for stream in (proc.stdin, proc.stdout):
            stream.close()
        deadline = time.perf_counter() + 5.0
        while procs.group_members(proc.pid) and time.perf_counter() < deadline:
            time.sleep(0.05)
        run.clean = not procs.group_members(proc.pid)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return run


def serve_expected() -> Dict[bytes, str]:
    recorded = json.loads(DIGESTS.read_text())["digests"]["serve-mixed"]
    return {key.encode(): digest for key, digest in recorded.items()}


def encode_body(body: Dict[str, object]) -> bytes:
    return json.dumps(body, sort_keys=True).encode()


def reference_ms(requests: List[Request]) -> List[float]:
    return [r.latency_s / r.slowdown * 1e3 for r in requests]


def lifetime_percentile(run: DaemonRun, pct: float) -> float:
    """A percentile of one lifetime's request latencies, in reference ms."""
    return stats.percentile(reference_ms(run.requests), pct)


def serve_metrics(runs: List[DaemonRun]) -> Dict[str, float]:
    """End-to-end metrics in reference seconds.

    ``req_p50_ms`` and ``req_p90_ms`` pool every lifetime's requests;
    the other times are medians over lifetimes.
    """
    latencies = [ms for run in runs for ms in reference_ms(run.requests)]
    return {
        "wall_s": stats.median(sum(reference_ms(run.requests)) / 1e3
                               for run in runs),
        "setup_s": stats.median(run.setup_s / run.slowdown for run in runs),
        "peak_rss_mb": max(run.rss_mb for run in runs),
        "req_p50_ms": stats.percentile(latencies, 50),
        "req_p90_ms": stats.percentile(latencies, 90),
        "req_per_s": (sum(len(run.requests) for run in runs)
                      / sum(run.phase_s for run in runs)),
    }


def serve_workload(seed: int, seconds: float, trace: bool, root: Path,
                   work: Path) -> Dict[str, Any]:
    expected = serve_expected()

    def daemon(i: int, traced: bool = False) -> DaemonRun:
        bodies = [encode_body(b) for b in opsmod.serve_requests(seed, i)]
        return run_daemon(bodies, expected, root=root, work=work,
                          tag=f"d{i}{'t' if traced else ''}", traced=traced)

    runs = (fixed_budget_passes(seconds, daemon) if not trace
            else [daemon(0), daemon(0, traced=True)])
    if not all(run.requests for run in runs):
        raise SystemExit("error: a daemon never served the request loop: "
                         f"{[asdict(run.first) for run in runs if run.first]}")
    every = [r for run in runs for r in [run.first] + run.requests if r]
    correct = all(r.ok for r in every) and all(run.clean for run in runs)
    report: Dict[str, Any] = {
        "daemons": len(runs),
        "setup_s": [run.setup_s for run in runs],
        "setup_slowdown": [run.slowdown for run in runs],
        "segment_slowdowns": [run.segment_slowdowns for run in runs],
        "failed_requests": [asdict(r) for r in every if not r.ok][:20],
        "clean_shutdown": [run.clean for run in runs],
    }
    if not trace:
        samples = sum(len(run.requests) for run in runs)
        # Each lifetime's p50 next to the pooled one tells noise within a
        # run apart from drift between runs.
        report.update(
            latency_samples=samples,
            p90_samples_beyond=stats.samples_beyond(samples, 90),
            lifetime_p50_ms=[lifetime_percentile(run, 50) for run in runs])
        return {"metrics": serve_metrics(runs), "attempted": len(every),
                "failed": sum(not r.ok for r in every), "report": report,
                "correct": correct}
    plain, traced = runs
    identities, identity_ok = [], True
    roots = (traced.agg or {}).get("roots", {})
    for request in traced.requests:
        covered = roots.get(str(request.index), 0.0)
        other = request.latency_s - covered
        identity_ok &= other >= -IDENTITY_SLACK_S
        identities.append(other)
    traced_wall_s = sum(reference_ms(traced.requests)) / 1e3
    scale = traced_wall_s / sum(r.latency_s for r in traced.requests)
    merged = merge([scale_times(traced.agg, scale)] if traced.agg else [])
    overhead = traced_wall_s / (sum(reference_ms(plain.requests)) / 1e3)
    hits = sum(r.cache == "hit" for r in traced.requests)
    metrics = layer_metrics(
        merged, other_s=sum(identities) * scale, traced_wall_s=traced_wall_s,
        overhead=overhead, hits=hits, requests=len(traced.requests))
    report.update(traced_agg=traced.agg is not None,
                  identity_min_other_s=min(identities, default=0.0))
    return {"metrics": metrics, "attempted": len(every),
            "failed": sum(not r.ok for r in every), "report": report,
            "correct": correct and identity_ok and traced.agg is not None}


# -- entry point -----------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=opsmod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # for the output check's band
    strays = procs.stray_processes(root)
    if strays:
        print("error: stray simulator processes before the run:\n  "
              + "\n  ".join(strays), file=sys.stderr)
        return 3
    compileall.compile_dir(str(root / "src"), quiet=1)
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            result = serve_workload(args.seed, args.seconds, bool(args.trace),
                                    root, work)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    strays = procs.stray_processes(root)
    if strays:
        print("error: stray simulator processes after the run:\n  "
              + "\n  ".join(strays), file=sys.stderr)
        return 3
    metrics = result["metrics"]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(root, args.seed),
              "limit_s": LIMIT_S, **result["report"]}
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
