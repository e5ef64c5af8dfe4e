"""Tests of the benchmark's own arithmetic and input generation.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer, layer_of, merge  # noqa: E402


# -- the percentile and sample-count rule ------------------------------------------

def test_interpolated_percentile():
    values = list(range(1, 102))
    assert stats.percentile(values, 50) == 51
    assert stats.percentile(values, 90) == 91
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 90) == pytest.approx(3.7)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("pct, needed", [(50, 20), (90, 92), (99, 902)])
def test_ten_samples_beyond_rule(pct, needed):
    # ``needed`` is the fewest samples with ten ranked above ``pct``.
    assert stats.samples_beyond(needed, pct) == stats.BEYOND
    assert stats.samples_beyond(needed - 1, pct) < stats.BEYOND


def test_serve_request_count_supports_p90():
    # One daemon lifetime alone gives p90 ten samples beyond it.
    assert stats.samples_beyond(ops.SERVE_REQUESTS, 90) >= stats.BEYOND


# -- limit charging ----------------------------------------------------------------

def test_timed_out_op_is_charged_the_limit():
    assert stats.charged_wall(10.7, True, 10.0) == 10.0
    assert stats.charged_wall(3.2, False, 10.0) == 3.2
    assert stats.charged_setup(10.7, None, True, 10.0) == 10.0
    assert stats.charged_setup(10.7, None, True, 10.0, 0.3) == 0.3
    assert stats.charged_setup(3.2, 2.9, False, 10.0) == pytest.approx(0.3)
    assert stats.charged_setup(0.5, 0.6, False, 10.0) == 0.0


def test_run_metrics_charge_timeouts():
    fast = run.OpOutcome("a", wall_s=1.0, timed_out=False, returncode=0,
                         maxrss_mb=20.0, sim_s=0.6, ok=True)
    hung = run.OpOutcome("b", wall_s=run.LIMIT_S + 0.01, timed_out=True,
                         returncode=None, maxrss_mb=30.0, started_s=0.5)
    metrics = run.run_metrics([[fast, hung], [fast, hung]])
    assert metrics["wall_s"] == pytest.approx(1.0 + run.LIMIT_S)
    assert metrics["req_p50_ms"] == metrics["req_p90_ms"] == pytest.approx(
        metrics["wall_s"] * 1e3)
    assert metrics["setup_s"] == pytest.approx(0.4 + 0.5)
    assert metrics["peak_rss_mb"] == 30.0
    assert metrics["req_per_s"] == pytest.approx(2 / (2 * (1.0 + run.LIMIT_S)))


def test_serve_percentiles_pool_lifetimes_in_reference_ms():
    def lifetime(latencies_ms, slowdown=1.0):
        return run.DaemonRun(
            setup_s=1.0, phase_s=1.0,
            requests=[run.Request(i, latency_s=ms / 1e3, slowdown=slowdown)
                      for i, ms in enumerate(latencies_ms)])

    # In reference ms the second lifetime reads 1, 2, 3 like the first.
    runs = [lifetime([1, 2, 3]), lifetime([2, 4, 6], slowdown=2.0),
            lifetime([10, 20, 30])]
    metrics = run.serve_metrics(runs)
    assert metrics["req_p50_ms"] == pytest.approx(3.0)
    # Pooled: 1, 1, 2, 2, 3, 3, 10, 20, 30.
    assert metrics["req_p90_ms"] == pytest.approx(22.0)
    assert metrics["wall_s"] == pytest.approx(0.006)
    assert metrics["req_per_s"] == pytest.approx(9 / 3.0)


# -- host-speed normalisation ------------------------------------------------------

def test_times_are_divided_by_the_host_slowdown():
    slow = run.OpOutcome("a", wall_s=3.0, timed_out=False, returncode=0,
                         maxrss_mb=20.0, sim_s=2.4, ok=True, slowdown=1.5)
    assert slow.charged_wall_s == pytest.approx(2.0)
    assert slow.charged_setup_s == pytest.approx(0.4)


def test_a_timed_out_op_costs_the_limit_at_any_host_speed():
    # The limit is stretched by the slowdown, so the op is killed at
    # LIMIT_S reference seconds and charged exactly that in wall time;
    # its set-up is its time until the simulation started.
    hung = run.OpOutcome("b", wall_s=1.7 * run.LIMIT_S, timed_out=True,
                         returncode=None, maxrss_mb=30.0, slowdown=1.7,
                         started_s=0.85)
    assert hung.charged_wall_s == run.LIMIT_S
    assert hung.charged_setup_s == pytest.approx(0.5)


def test_slowdown_is_relative_to_the_reference():
    assert hostspeed.slowdown(hostspeed.REFERENCE_S) == pytest.approx(1.0)
    assert hostspeed.slowdown(hostspeed.REFERENCE_S,
                              2 * hostspeed.REFERENCE_S) == pytest.approx(1.5)
    allowed = os.sched_getaffinity(0)
    assert hostspeed.reference_work(n=1000) > 0.0
    assert hostspeed.reference_work([max(allowed)], n=1000) > 0.0
    assert os.sched_getaffinity(0) == allowed


def test_scale_times_leaves_counts_alone():
    agg = {"self_s": {"core": 2.0}, "incl_s": {"core.run": 3.0},
           "first_s": {}, "roots": {"op": 4.0}, "calls": {"core.run": 5},
           "counts": {"events.batched": 6.0}}
    half = run.scale_times(agg, 0.5)
    assert half["self_s"] == {"core": 1.0}
    assert half["incl_s"] == {"core.run": 1.5}
    assert half["roots"] == {"op": 2.0}
    assert half["calls"] == {"core.run": 5}
    assert half["counts"] == {"events.batched": 6.0}
    assert agg["self_s"] == {"core": 2.0}


# -- self-time arithmetic ----------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.set_tag("op")
    root = tracer.enter("cli.main", "cli")
    clock.now = 1.0
    child = tracer.enter("core.run", "core")
    clock.now = 1.5
    grandchild = tracer.enter("events.run", "events")
    clock.now = 4.0
    tracer.exit(grandchild)
    clock.now = 4.5
    tracer.exit(child)
    clock.now = 5.0
    tracer.exit(root)
    doc = tracer.to_dict()
    assert doc["self_s"] == {"cli": 1.5, "core": 1.0, "events": 2.5}
    assert doc["incl_s"]["core.run"] == 3.5
    assert doc["roots"] == {"op": 5.0}
    assert sum(doc["self_s"].values()) == doc["roots"]["op"]
    assert stats.other_time(5.25, doc["self_s"]) == pytest.approx(0.25)


def test_nested_same_name_counts_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("stats.export", "stats")
    clock.now = 1.0
    inner = tracer.enter("stats.export", "stats")
    clock.now = 3.0
    tracer.exit(inner)
    clock.now = 4.0
    tracer.exit(outer)
    doc = tracer.to_dict()
    assert doc["incl_s"] == {"stats.export": 4.0}
    assert doc["calls"] == {"stats.export": 1}
    assert doc["self_s"] == {"stats": 4.0}


def test_exit_closes_frames_left_open_by_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("a", "core")
    clock.now = 1.0
    tracer.enter("b", "system")   # raised past its own exit
    clock.now = 2.0
    tracer.exit(outer)
    doc = tracer.to_dict()
    assert doc["self_s"] == {"core": 1.0, "system": 1.0}
    assert tracer.state().stack == []


def test_first_call_and_merge_sum_per_process():
    clock = FakeClock()
    tracer = Tracer(clock)
    for duration in (2.0, 0.5):
        frame = tracer.enter("system.scheduler", "system")
        clock.now += duration
        tracer.exit(frame)
    doc = tracer.to_dict()
    assert doc["first_s"] == {"system.scheduler": 2.0}
    assert doc["calls"] == {"system.scheduler": 2}
    both = merge([doc, doc])
    assert both["first_s"]["system.scheduler"] == 4.0
    assert both["incl_s"]["system.scheduler"] == 5.0


def test_layer_of_modules():
    assert layer_of("repro.network.flowlevel") == "network.flowlevel"
    assert layer_of("repro.network.topology") == "network"
    assert layer_of("repro.core.engine") == "core.engine"
    assert layer_of("repro.core.simulator") == "core"
    assert layer_of("repro.trace.graph") == "workload"
    assert layer_of("repro.events.engine") == "events"
    assert layer_of("builtins") == "other"
    assert layer_of(None) == "other"


# -- seeded inputs -----------------------------------------------------------------

@pytest.mark.parametrize("workload", ops.RUN_WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    assert ops.op_list(workload, 7) == ops.op_list(workload, 7)
    lists = {tuple(ops.op_list(workload, seed)) for seed in range(20)}
    assert len(lists) > 1
    families = [f.name for f in ops.FAMILIES[workload]]
    for seed in range(20):
        drawn = ops.op_list(workload, seed)
        assert sorted(op.family for op in drawn) == sorted(families)


def test_serve_requests_are_a_function_of_the_seed():
    first = ops.serve_requests(3, 0)
    assert first == ops.serve_requests(3, 0)
    assert first != ops.serve_requests(4, 0)
    assert len(first) == ops.SERVE_REQUESTS + 1


def test_serve_mix_and_repeat_gap():
    bodies = [json.dumps(b, sort_keys=True) for b in ops.serve_requests(11, 2)]
    seen, misses = {}, 0
    for index, body in enumerate(bodies):
        if body in seen:
            assert index - seen[body] >= ops.SERVE_REPEAT_GAP
        else:
            seen[body] = index
            misses += 1
    # The first request plus exactly the miss share of the rest.
    assert misses == 1 + round(ops.SERVE_REQUESTS * ops.SERVE_MISS_SHARE)


def test_every_drawable_input_has_a_recorded_expectation():
    recorded = json.loads(run.DIGESTS.read_text())
    for workload in ops.RUN_WORKLOADS:
        known = set(recorded["digests"][workload]) | set(
            recorded["band_reference_ns"])
        for op in ops.universe(workload):
            assert op.key in known, op.key
    served = set(recorded["digests"]["serve-mixed"])
    for body in ops.serve_universe():
        assert run.encode_body(body).decode() in served


def test_op_without_digest_passes_within_the_packet_band():
    checker = run.Checker("zoo-fluid")
    op = next(op for op in ops.universe("zoo-fluid")
              if op.key in checker.band)
    reference = checker.band[op.key]
    assert op.key not in checker.digests
    near = json.dumps({"total_time_ns": reference * 1.01}).encode()
    far = json.dumps({"total_time_ns": reference * 1.03}).encode()
    assert checker.check(op, near) == (True, "")
    assert checker.check(op, far)[0] is False


def test_recorded_digest_must_match():
    checker = run.Checker("paper-cli")
    op = next(iter(ops.universe("paper-cli")))
    assert checker.check(op, b"{}") == (False, "digest mismatch")
