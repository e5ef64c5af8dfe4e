"""One declarative run configuration: :class:`RunSpec`.

Every option of a simulation run is a field of :class:`RunSpec`, and the
field metadata (type, default, choices, help) is the only list of run
options:

- the ``repro run`` / ``sweep`` / ``validate`` flags are generated from
  it (:func:`repro.cli.build_parser`);
- sweep points and ``POST /run`` bodies are typed and canonicalised
  against it (:func:`repro.campaign.runner.normalize_point`);
- :meth:`RunSpec.simulate` is the one execution path from a
  configuration to a simulation result, for the CLI and every campaign
  worker alike.

An invalid configuration raises :class:`PointConfigError`; only the CLI
turns it into an ``error: ...`` exit.

Example::

    >>> from repro.runspec import RunSpec
    >>> run = RunSpec(topology="Ring(4)", bandwidths="100",
    ...               payload_mib=1).simulate()
    >>> run.workload, run.topology.num_npus, run.result.events_processed
    ('allreduce', 4, 2)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, List, NamedTuple, Optional

import repro
from repro.workload import (
    ParallelismSpec,
    dlrm_paper,
    generate_data_parallel,
    generate_dlrm,
    generate_fsdp,
    generate_megatron_hybrid,
    generate_moe,
    generate_pipeline_parallel,
    generate_single_collective,
    gpt3_175b,
    moe_1t,
    transformer_1t,
)

WORKLOADS = ("allreduce", "alltoall", "gpt3", "transformer1t", "dlrm",
             "fsdp-gpt3", "dp-gpt3", "pp-gpt3", "moe1t")

MEMORY_MODELS = ("local", "hiermem", "zero-infinity")


class PointConfigError(ValueError):
    """A run configuration (flags, sweep point or request body) is invalid."""


# -- value normalizers for sweep points and request bodies ---------------------


def _dims_csv(value: Any) -> str:
    """Canonical comma-list form for bandwidths/latencies fields."""
    if isinstance(value, (list, tuple)):
        return ",".join(format(float(v), "g") for v in value)
    if value in ("", None):
        return ""
    return ",".join(format(float(v), "g") for v in str(value).split(","))


def _bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _faults_list(value: Any) -> Optional[List[str]]:
    if value is None:
        return None
    if isinstance(value, str):
        return [value]
    return [str(v) for v in value]


def _opt_int(value: Any) -> Optional[int]:
    return None if value is None else int(value)


def _option(default: Any, help: str = "", *, type: Any = str,  # noqa: A002
            normalize: Any = None, choices: tuple = (),
            metavar: Optional[str] = None, required: bool = False) -> Any:
    """A :class:`RunSpec` field and the metadata every consumer reads.

    ``type`` parses a command-line value (``bool`` makes a switch,
    ``list`` a repeatable flag); ``normalize`` converts a sweep-point or
    request value to its canonical form (default: ``type``).
    ``required`` fields must be set on ``repro run``.
    """
    return field(default=default, metadata={
        "type": type, "normalize": normalize or type, "choices": choices,
        "help": help, "metavar": metavar, "required": required})


# -- the schema ------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One simulation run's configuration: the ``repro run`` options."""

    topology: str = _option(
        "", 'shape notation, e.g. "Ring(4)_Switch(8)"', required=True)
    bandwidths: str = _option(
        "", "per-dim GB/s, comma separated", normalize=_dims_csv,
        required=True)
    latencies: str = _option(
        "", "per-dim ns/hop, comma separated (default 500)",
        normalize=_dims_csv)
    workload: str = _option("allreduce", choices=WORKLOADS)
    model: str = _option(
        "", "simulate a frontend zoo model instead of a builtin workload "
            "(see: repro ingest --list-models)", metavar="NAME")
    model_json: str = _option(
        "", "ingest an HF-style config.json or repro-opgraph JSON through "
            "the frontend and simulate it", metavar="PATH")
    batch: int = _option(
        0, "frontend batch size override (0 = the model family's default)",
        type=int)
    seq_len: int = _option(
        0, "frontend sequence length override (0 = the model family's "
           "default)", type=int)
    ep: int = _option(
        0, "expert-parallel degree for frontend models with routed ops "
           "(0 = auto)", type=int)
    payload_mib: float = _option(
        1024.0, "collective payload for allreduce/alltoall", type=float)
    scheduler: str = _option("themis", choices=("baseline", "themis"))
    backend: str = _option(
        "analytical", "network backend; on garnet/flow collectives are "
                      "lowered to explicit send/recv algorithms",
        choices=("analytical", "garnet", "flow"))
    packet_bytes: int = _option(
        0, "packet/segment size for the detailed backends (0 = backend "
           "default, 4096)", type=int)
    train_packets: int = _option(
        1, "garnet packet-train coalescing factor; > 1 trades contention "
           "granularity for simulation speed on large payloads", type=int)
    granularity: str = _option(
        "", "simulation granularity policy: 'fluid' (flow-level), 'packet' "
            "(garnet-lite), or 'adaptive' (runtime per-link fluid->packet "
            "escalation under contention with hysteresis-based "
            "de-escalation); default: --backend decides",
        choices=("", "fluid", "packet", "adaptive"))
    escalation_threshold: float = _option(
        4.0, "adaptive granularity: escalate a link to packet simulation "
             "when it carries more than this many concurrent flows (0 = "
             "always, inf = never)", type=float)
    deescalation_hysteresis: float = _option(
        1.0, "adaptive granularity: de-escalate a packet-mode link when its "
             "flow count drops to threshold minus this margin or below",
        type=float)
    folding: str = _option(
        "auto", "symmetry folding: 'auto' simulates one rank per "
                "equivalence class of symmetric ranks and reconstructs the "
                "per-rank result bit-identically; 'off' simulates every "
                "trace", choices=("auto", "off"))
    chunks: int = _option(16, type=int)
    mp: int = _option(0, type=int)
    dp: int = _option(0, type=int)
    pp: int = _option(0, type=int)
    microbatches: int = _option(4, type=int)
    peak_tflops: float = _option(234.0, type=float)
    hbm_gbps: float = _option(
        2039.0, "local HBM bandwidth (roofline + local memory model)",
        type=float)
    memory_model: str = _option(
        "local", "remote-memory organisation: hiermem pools groups behind "
                 "switches (Table V), zero-infinity gives each GPU a "
                 "private slow path", choices=MEMORY_MODELS)
    fabric_bw_gbps: float = _option(
        256.0, "hiermem in-node pooled fabric bandwidth (Table V row 3)",
        type=float)
    group_bw_gbps: float = _option(
        100.0, "hiermem remote memory group bandwidth (Table V row 6)",
        type=float)
    remote_path_gbps: float = _option(
        100.0, "zero-infinity per-GPU slow-path bandwidth", type=float)
    inswitch: bool = _option(
        False, "fuse collectives into the pooled memory fabric (moe1t "
               "workload; requires --memory-model hiermem)",
        type=bool, normalize=_bool)
    faults: Optional[List[str]] = _option(
        None, "inject faults, e.g. 'straggler@npu3:1.5x@t=2ms' (repeatable; "
              "';' separates specs; see repro.faults for the grammar)",
        type=list, normalize=_faults_list, metavar="SPEC")
    fault_seed: Optional[int] = _option(
        None, "also draw a seeded random fault schedule over the run's "
              "fault-free duration (deterministic per seed)",
        type=int, normalize=_opt_int, metavar="SEED")
    checkpoint_interval_ms: float = _option(
        0.0, "checkpoint period for the resilience report's restart/replay "
             "accounting (0 = no checkpoints)", type=float)
    checkpoint_gib: float = _option(
        16.0, "per-NPU snapshot size for non-transformer workloads "
              "(transformer workloads derive it from the model-state "
              "footprint)", type=float)
    trace_level: str = _option(
        "off", "span recording depth for --chrome-trace / --metrics-out "
               "(deeper levels record more spans; 'packet' needs a "
               "packet-modeling backend)",
        choices=("off", "phase", "collective", "chunk", "packet"))
    check_invariants: bool = _option(
        False, "attach the runtime invariant checker (repro.validate): "
               "causality, conservation, and capacity laws verified during "
               "the run; violations are reported and fail the command",
        type=bool, normalize=_bool)
    strict_invariants: bool = _option(
        False, "with --check-invariants, raise at the first violation "
               "instead of collecting a report", type=bool, normalize=_bool)

    def __post_init__(self) -> None:
        for spec_field in dataclasses.fields(self):
            choices = spec_field.metadata["choices"]
            value = getattr(self, spec_field.name)
            if choices and value not in choices:
                raise PointConfigError(
                    f"{spec_field.name}: invalid choice {value!r} (choose "
                    f"from {', '.join(repr(c) for c in choices)})")

    @classmethod
    def from_args(cls, args: Any) -> "RunSpec":
        """The spec of a parsed ``run``/``sweep``/``validate`` namespace."""
        return cls(**{f.name: getattr(args, f.name)
                      for f in dataclasses.fields(cls)})

    # -- execution -------------------------------------------------------------

    def simulate(self, collect_metrics: bool = False) -> "SimulatedRun":
        """Build the topology, traces and system config, and simulate.

        ``collect_metrics`` turns telemetry on even at trace level
        ``off`` (``repro run --metrics-out``).
        """
        topology = build_topology(self.topology, self.bandwidths,
                                  self.latencies)
        traces, workload = self._traces(topology)
        local_memory, remote_memory, fabric = self._memory_models(topology)
        config = repro.SystemConfig(
            topology=topology,
            scheduler=self.scheduler,
            collective_chunks=self.chunks,
            network_backend=self.backend,
            packet_bytes=self.packet_bytes,
            train_packets=self.train_packets,
            granularity=self.granularity,
            escalation_threshold=self.escalation_threshold,
            deescalation_hysteresis=self.deescalation_hysteresis,
            compute=repro.RooflineCompute(
                peak_tflops=self.peak_tflops,
                mem_bandwidth_gbps=self.hbm_gbps,
            ),
            local_memory=local_memory,
            remote_memory=remote_memory,
            fabric_collectives=fabric,
            telemetry=self._telemetry_config(collect_metrics),
            invariants=self._invariants_config(),
            folding=self.folding,
        )
        if not self.faults and self.fault_seed is None:
            return SimulatedRun(topology, repro.simulate(traces, config),
                                None, workload)
        if self.backend != "analytical" or self.granularity:
            raise PointConfigError(
                "--faults/--fault-seed require --backend analytical (and "
                "no --granularity policy)")
        # Fault-free baseline: the exact time-lost reference, and the
        # horizon seeded schedules are drawn over.
        baseline = repro.simulate(traces, config)
        schedule = self._fault_schedule(topology, baseline.total_time_ns)
        try:
            config = dataclasses.replace(
                config, faults=schedule,
                checkpoint=self._checkpoint_config(topology))
            traces, _ = self._traces(topology)  # fresh node state
            result = repro.simulate(traces, config)
        except repro.faults.FaultSpecError as exc:
            raise PointConfigError(str(exc)) from exc
        resilience = result.resilience
        if resilience is not None:
            resilience.baseline_ns = baseline.total_time_ns
        return SimulatedRun(topology, result, resilience, workload)

    def _parallel_degrees(self, topology, mp: int, pp: int = 1) -> int:
        """Validate mp/pp against the NPU count and auto-compute dp."""
        shard = mp * pp
        if shard < 1 or topology.num_npus % shard != 0:
            flags = f"--mp {mp}" + (f" x --pp {pp}" if pp > 1 else "")
            raise PointConfigError(
                f"{flags} does not divide the topology's "
                f"{topology.num_npus} NPUs; pick degrees whose product "
                "divides the NPU count")
        dp = self.dp or topology.num_npus // shard
        if mp * pp * dp > topology.num_npus:
            raise PointConfigError(
                f"mp x pp x dp = {mp * pp * dp} exceeds the topology's "
                f"{topology.num_npus} NPUs")
        return dp

    def _traces(self, topology):
        """The per-NPU traces and the workload's display name."""
        if self.model or self.model_json:
            graph = ingest_graph(self.model, self.model_json, self.batch,
                                 self.seq_len)
            planned = plan_graph(graph, topology, tp=self.mp, dp=self.dp,
                                 pp=self.pp, ep=self.ep,
                                 microbatches=self.microbatches)
            return planned.traces, f"ingest:{graph.name}"
        return self._builtin_traces(topology), self.workload

    def _builtin_traces(self, topology):
        workload = self.workload
        payload = int(self.payload_mib * (1 << 20))
        if workload == "allreduce":
            return generate_single_collective(
                topology, repro.CollectiveType.ALL_REDUCE, payload)
        if workload == "alltoall":
            return generate_single_collective(
                topology, repro.CollectiveType.ALL_TO_ALL, payload)
        if workload == "dlrm":
            return generate_dlrm(dlrm_paper(), topology)
        if workload == "moe1t":
            return generate_moe(
                moe_1t(), topology,
                remote_parameters=self.memory_model != "local",
                inswitch_collectives=self.inswitch)
        if workload in ("gpt3", "transformer1t"):
            mp = self.mp or 16
            dp = self._parallel_degrees(topology, mp)
            return generate_megatron_hybrid(
                self._transformer(), topology, ParallelismSpec(mp=mp, dp=dp))
        if workload == "fsdp-gpt3":
            return generate_fsdp(gpt3_175b(), topology)
        if workload == "dp-gpt3":
            return generate_data_parallel(gpt3_175b(), topology)
        mp = self.mp or 1  # pp-gpt3
        pp = self.pp or 8
        dp = self._parallel_degrees(topology, mp, pp)
        return generate_pipeline_parallel(
            gpt3_175b(), topology, ParallelismSpec(mp=mp, pp=pp, dp=dp),
            microbatches=self.microbatches)

    def _transformer(self):
        """The gpt3 / transformer1t workload's model."""
        if self.workload == "transformer1t":
            return transformer_1t()
        return gpt3_175b()

    def _memory_models(self, topology):
        """Local / remote / fabric memory models.

        ``hiermem`` derives the pool geometry from the topology the way
        Table V does: dim 0 is the in-node switch (GPUs per node), one
        out-node switch per node, one remote memory group per GPU.
        """
        from repro.memory.local import LocalMemory

        local = LocalMemory(bandwidth_gbps=self.hbm_gbps)
        if self.inswitch and self.memory_model != "hiermem":
            raise PointConfigError(
                "--inswitch requires --memory-model hiermem (in-switch "
                "collectives run inside the pooled fabric)")
        if self.memory_model == "local":
            return local, None, None
        if self.memory_model == "zero-infinity":
            from repro.memory.zero_infinity import (
                ZeroInfinityConfig,
                ZeroInfinityMemory,
            )

            remote = ZeroInfinityMemory(ZeroInfinityConfig(
                path_bandwidth_gbps=self.remote_path_gbps,
                num_gpus=topology.num_npus,
            ))
            return local, remote, None
        from repro.memory.inswitch import InSwitchCollectiveMemory
        from repro.memory.remote import HierMemConfig, HierarchicalRemoteMemory

        gpus_per_node = topology.dims[0].size
        num_nodes = topology.num_npus // gpus_per_node
        pool = HierMemConfig(
            num_nodes=num_nodes,
            gpus_per_node=gpus_per_node,
            num_out_switches=num_nodes,
            num_remote_groups=topology.num_npus,
            mem_side_bw_gbps=self.group_bw_gbps,
            gpu_side_out_bw_gbps=self.fabric_bw_gbps,
            in_node_bw_gbps=self.fabric_bw_gbps,
        )
        return (local, HierarchicalRemoteMemory(pool),
                InSwitchCollectiveMemory(pool))

    def _checkpoint_config(self, topology):
        """The checkpoint model (None when disabled)."""
        if not self.checkpoint_interval_ms:
            return None
        from repro.faults import CheckpointConfig

        interval_ns = self.checkpoint_interval_ms * 1e6
        if self.workload in ("gpt3", "transformer1t"):
            from repro.memory.capacity import transformer_footprint

            mp = self.mp or 16
            dp = self._parallel_degrees(topology, mp)
            footprint = transformer_footprint(
                self._transformer(), ParallelismSpec(mp=mp, dp=dp))
            return CheckpointConfig.from_footprint(footprint, interval_ns)
        return CheckpointConfig(interval_ns=interval_ns,
                                snapshot_bytes=self.checkpoint_gib * (1 << 30))

    def _fault_schedule(self, topology, horizon_ns: float):
        """The schedule from the fault specs and/or the fault seed."""
        from repro.faults import FaultSchedule, FaultSpecError

        try:
            schedules = [FaultSchedule.parse(text)
                         for text in self.faults or ()]
        except FaultSpecError as exc:
            raise PointConfigError(str(exc)) from exc
        if self.fault_seed is not None:
            schedules.append(FaultSchedule.generate(
                seed=self.fault_seed,
                num_npus=topology.num_npus,
                num_dims=topology.num_dims,
                horizon_ns=horizon_ns,
                straggler_mtbf_ns=horizon_ns / 4,
                stall_mtbf_ns=horizon_ns / 8,
                degrade_mtbf_ns=horizon_ns / 8,
                linkdown_mtbf_ns=horizon_ns / 8,
                straggler_duration_ns=(horizon_ns / 20, horizon_ns / 4),
                stall_duration_ns=(horizon_ns / 50, horizon_ns / 10),
                degrade_duration_ns=(horizon_ns / 20, horizon_ns / 4),
            ))
        return FaultSchedule.merge(schedules)

    def _telemetry_config(self, collect_metrics: bool):
        """The telemetry config (None when disabled).

        Telemetry activates when metrics are collected or spans are
        requested (trace level above ``off``); otherwise the run stays on
        the un-instrumented fast path.
        """
        from repro.telemetry import TelemetryConfig, TraceLevel

        level = TraceLevel.parse(self.trace_level)
        if (level is TraceLevel.PACKET and self.backend == "analytical"
                and not self.granularity):
            raise PointConfigError(
                "--trace-level packet requires --backend garnet or flow (or "
                "a --granularity policy; the analytical backend does not "
                "model individual packets)")
        if level is TraceLevel.OFF and not collect_metrics:
            return None
        return TelemetryConfig(trace_level=level)

    def _invariants_config(self):
        """The invariant-checker config (None when disabled)."""
        if not self.check_invariants:
            return None
        from repro.validate import InvariantConfig

        return InvariantConfig(strict=self.strict_invariants)


class SimulatedRun(NamedTuple):
    """What :meth:`RunSpec.simulate` returns."""

    topology: Any
    result: Any
    resilience: Any
    workload: str  # display name; ``ingest:<model>`` for frontend models


# -- building blocks shared with ``repro ingest`` / ``topology-info`` ------------


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise PointConfigError(
            f"not a comma-separated float list: {text!r}") from None


def build_topology(notation: str, bandwidths: str, latencies: str = ""):
    """A topology from shape notation and comma-separated per-dim lists."""
    if not notation or not bandwidths:
        raise PointConfigError(
            "--topology and --bandwidths are required (directly or via a "
            "sweep axis)")
    latency_list = _parse_floats(latencies) if latencies else []
    bandwidth_list = _parse_floats(bandwidths)
    num_dims = len([s for s in notation.split("_") if s.strip()])
    if len(bandwidth_list) != num_dims:
        raise PointConfigError(
            f"--bandwidths lists {len(bandwidth_list)} value(s) but "
            f"topology {notation!r} has {num_dims} dimension(s); give one "
            "bandwidth per dimension")
    if latency_list and len(latency_list) != num_dims:
        raise PointConfigError(
            f"--latencies lists {len(latency_list)} value(s) but topology "
            f"{notation!r} has {num_dims} dimension(s)")
    try:
        return repro.parse_topology(notation, bandwidth_list,
                                    latencies_ns=latency_list)
    except ValueError as exc:  # TopologyError, or an unknown block name
        raise PointConfigError(str(exc)) from exc


def ingest_graph(model: str = "", model_json: str = "", batch: int = 0,
                 seq_len: int = 0):
    """A zoo model name or a model JSON path (+ shape overrides) as an op graph."""
    from pathlib import Path

    from repro.frontend import (
        OPGRAPH_FORMAT,
        FrontendError,
        build_op_graph,
        default_options_for,
        load_config,
        opgraph_from_dict,
        zoo_entry,
    )

    if model and model_json:
        raise PointConfigError(
            "--model and --model-json are mutually exclusive; give one spec "
            "source")
    if not model and not model_json:
        raise PointConfigError(
            "no model spec; give --model NAME or --model-json PATH")
    try:
        if model:
            entry = zoo_entry(model)
            payload, options = entry.config, entry.options
        else:
            payload = load_config(model_json)
            if payload.get("format") == OPGRAPH_FORMAT:
                # Explicit op graphs carry their own shapes/costs; the
                # batch/seq knobs only apply to architecture configs.
                return opgraph_from_dict(payload)
            options = default_options_for(payload)
        overrides = {"batch": batch, "seq_len": seq_len}
        overrides = {k: v for k, v in overrides.items() if v}
        if overrides:
            options = dataclasses.replace(options, **overrides)
        graph = build_op_graph(payload, options)
        graph.name = model or (graph.name or Path(model_json).stem)
        return graph
    except FrontendError as exc:
        raise PointConfigError(str(exc)) from exc


def plan_graph(graph, topology, **degrees):
    """Plan an op graph onto a topology (``degrees``: PlanConfig fields)."""
    from repro.frontend import FrontendError, PlanConfig, plan

    try:
        return plan(graph, topology, PlanConfig(**degrees))
    except FrontendError as exc:
        raise PointConfigError(str(exc)) from exc
