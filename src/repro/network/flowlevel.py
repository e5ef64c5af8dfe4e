"""Flow-level network backend with max-min fair bandwidth sharing.

The third point on the fidelity/speed spectrum, standing in for the
astra-sim + ns3 coupling the paper cites ([12]): messages are *flows*
that share link capacity under max-min fairness, re-solved whenever a
flow starts or finishes.  Unlike the analytical backend (no cross-flow
contention beyond ports) and Garnet-lite (per packet, expensive), the
flow model captures time-varying rates — a flow slows down when a
competitor joins mid-transfer and speeds back up when it leaves — at one
event per rate change instead of one per packet-hop.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.events import EventEngine
from repro.events.engine import Event
from repro.network.api import Message, NetworkBackend
from repro.network.linkgraph import LazyLinkGraph, dimension_order_route
from repro.network.topology import MultiDimTopology, TopologyError


class _FlowLink:
    """A directed link: capacity shared by the flows crossing it."""

    __slots__ = ("capacity", "latency_ns", "flows", "key", "index",
                 "residual", "unfrozen", "mark")

    def __init__(self, bandwidth_gbps: float, latency_ns: float) -> None:
        self.capacity = bandwidth_gbps  # GB/s == bytes/ns
        self.latency_ns = latency_ns
        # Insertion-ordered (dict-as-set): _Flow objects hash by identity,
        # so a plain set would iterate in allocator-dependent order and
        # same-timestamp completions would drain nondeterministically.
        self.flows: Dict["_Flow", None] = {}
        # Graph key and materialization index, set by the lazy graph's
        # on_create hook.  The index breaks bottleneck ties.
        self.key = None
        self.index = 0
        # Solver scratch: capacity left and flows not yet frozen in the
        # current solve, and the epoch of the last component walk.
        self.residual = 0.0
        self.unfrozen = 0
        self.mark = 0


class _Flow:
    """One in-flight message (or one packet-granularity sub-flow)."""

    __slots__ = ("message", "on_sent", "links", "size", "remaining", "rate",
                 "prop_latency_ns", "finish_threshold", "group", "mark")

    def __init__(self, message: Message, on_sent: Optional[Callable[[], None]],
                 links: List[_FlowLink], size_bytes: Optional[int] = None,
                 group: Optional["_SubFlowGroup"] = None) -> None:
        self.message = message
        self.on_sent = on_sent
        self.links = links
        self.size = float(max(
            1, message.size_bytes if size_bytes is None else size_bytes))
        self.remaining = self.size
        self.rate = 0.0
        self.prop_latency_ns = (sum(link.latency_ns for link in links)
                                if group is None else group.prop_latency_ns)
        # Rate * time accumulates relative float error; declare the flow
        # done once the residue is negligible for its size, or the
        # scheduler grinds through microscopic remainders forever.
        self.finish_threshold = max(1e-6, 1e-9 * self.remaining)
        self.group = group
        # Equal to the solver epoch while the flow is in the component
        # being solved and not yet frozen.
        self.mark = 0

    @property
    def finished(self) -> bool:
        return self.remaining <= self.finish_threshold


class _SubFlowGroup:
    """An escalated message: packet-granularity sub-flows run in sequence.

    HyGra-style fidelity escalation (see
    :class:`FlowLevelNetwork`): on a contended route the fluid
    approximation is replaced by store-and-forward packet segments, so
    rate changes are resolved at packet rather than message granularity.
    The message delivers when its last segment finishes.
    """

    __slots__ = ("message", "on_sent", "links", "sizes", "next_idx",
                 "prop_latency_ns")

    def __init__(self, message: Message, on_sent: Optional[Callable[[], None]],
                 links: List[_FlowLink], sizes: List[int]) -> None:
        self.message = message
        self.on_sent = on_sent
        self.links = links
        self.sizes = sizes
        self.next_idx = 0
        # Shared by every segment: summed once, not once per packet.
        self.prop_latency_ns = sum(link.latency_ns for link in links)


_BY_INDEX = attrgetter("index")


class FlowLevelNetwork(NetworkBackend):
    """Max-min fair flow simulation over the explicit link graph.

    On every flow arrival/departure the rate allocation is re-solved by
    water-filling: repeatedly saturate the most-constrained link (fair
    share = residual capacity / unfrozen flows, ties to the earliest
    materialized link), freeze its flows at that rate, and continue.
    Only the connected component of links that share flows with the
    changed route is re-solved (see :meth:`_reallocate`).  Between events
    every flow progresses linearly at its rate, so only the earliest
    completion needs an event.

    Granularity escalation (the static opt-in that used to live here as
    ``escalation_threshold``) moved to the runtime controller in
    :class:`repro.network.adaptive.AdaptiveFlowNetwork`, which subclasses
    this backend and shares its :class:`_SubFlowGroup` handoff protocol.

    Args:
        engine: The shared event engine.
        topology: Physical topology, expanded into the explicit link graph.
    """

    def __init__(
        self,
        engine: EventEngine,
        topology: MultiDimTopology,
    ) -> None:
        super().__init__(engine, topology)
        # Links materialize on first touch (LazyLinkGraph); construction
        # cost is independent of topology size.
        self._links = LazyLinkGraph(topology, _FlowLink,
                                    on_create=self._on_link_created)
        # Insertion-ordered for deterministic drain order (see _FlowLink).
        self._flows: Dict[_Flow, None] = {}
        self._last_update = 0.0
        self._completion_event: Optional[Event] = None
        self.rate_recomputations = 0
        # Flow-link incidences walked by rate solves (a work counter).
        self.solver_flow_visits = 0
        self._epoch = 0
        self.granularity_escalations = 0
        # (src, dest) -> per-hop links; routes are pure topology functions.
        self._path_cache: Dict[Tuple[int, int], List[_FlowLink]] = {}

    def _on_link_created(self, key, link: _FlowLink) -> None:
        link.key = key
        link.index = len(self._links) - 1

    # -- NetworkBackend -----------------------------------------------------------

    def _link_path(self, src: int, dest: int) -> List[_FlowLink]:
        cached = self._path_cache.get((src, dest))
        if cached is not None:
            return cached
        path = dimension_order_route(self.topology, src, dest)
        if len(path) < 2:
            raise TopologyError(f"no route from {src} to {dest}")
        links = []
        for a, b in zip(path, path[1:]):
            link = self._links.get((a, b))
            if link is None:
                raise TopologyError(f"missing link {a!r} -> {b!r}")
            links.append(link)
        self._path_cache[(src, dest)] = links
        return links

    def _transmit(self, message: Message, on_sent: Optional[Callable[[], None]]) -> None:
        links = self._link_path(message.src, message.dest)
        self._advance_to_now()
        flow = _Flow(message, on_sent, links)
        self._flows[flow] = None
        for link in links:
            link.flows[flow] = None
        self._reallocate(links)

    def _launch_next_subflow(self, group: _SubFlowGroup) -> None:
        size = group.sizes[group.next_idx]
        group.next_idx += 1
        sub = _Flow(group.message, None, group.links,
                    size_bytes=size, group=group)
        self._flows[sub] = None
        for link in group.links:
            link.flows[sub] = None

    # -- fluid dynamics -----------------------------------------------------------

    def _advance_to_now(self) -> None:
        """Drain progress linearly since the last rate change."""
        elapsed = self.engine.now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        self._last_update = self.engine.now

    def _reallocate(self, seeds: Optional[Iterable[_FlowLink]] = None) -> None:
        """Re-solve max-min rates, then reschedule the next completion.

        ``seeds`` are the links whose flow set just changed: a joining
        flow's route, or the routes of flows that finished.  Only the
        connected component reachable from them through active flows is
        re-solved.  Max-min filling of disjoint components is
        independent, and the solve visits a component's links in the
        same order as a solve of every active link, so every other flow
        keeps the bit-identical rate a full solve would give it.  None
        re-solves every active link.
        """
        self.rate_recomputations += 1
        links = self._component(
            self._links.values() if seeds is None else seeds)
        self._fill(links, self._epoch)
        if self.invariants is not None:
            self.invariants.check_flow_rates(links, self.engine.now)
        self._schedule_next_completion()

    def _component(self, seeds: Iterable[_FlowLink]) -> List[_FlowLink]:
        """Active links connected to ``seeds`` by shared flows, by index.

        Marks every flow of the component with the new epoch (unfrozen).
        """
        epoch = self._epoch = self._epoch + 1
        links = []
        for link in seeds:
            if link.flows and link.mark != epoch:
                link.mark = epoch
                links.append(link)
        visits = 0
        for link in links:  # grows while walking: breadth-first
            for flow in link.flows:
                if flow.mark == epoch:
                    continue
                flow.mark = epoch
                visits += len(flow.links)
                for other in flow.links:
                    if other.mark != epoch:
                        other.mark = epoch
                        links.append(other)
        self.solver_flow_visits += visits
        links.sort(key=_BY_INDEX)
        return links

    @staticmethod
    def _fill(links: List[_FlowLink], epoch: int) -> None:
        """Water-filling over one component with a bottleneck heap.

        Heap entries are ``(residual / unfrozen, index, link)``; an entry
        whose share no longer matches its link's state is stale and
        skipped.  The heap minimum is the scan minimum with ties to the
        lowest index, and residuals are charged flow by flow in
        ``link.flows`` order, so the rates are those of progressive
        filling to the bit.
        """
        heap = []
        for link in links:
            n = len(link.flows)
            link.residual = link.capacity
            link.unfrozen = n
            heap.append((link.capacity / n, link.index, link))
        heapify(heap)
        while heap:
            share, _, bottleneck = heappop(heap)
            n = bottleneck.unfrozen
            if not n or bottleneck.residual / n != share:
                continue
            touched = {}
            for flow in bottleneck.flows:
                if flow.mark != epoch:
                    continue  # frozen earlier in this solve
                flow.mark = 0
                flow.rate = share
                for link in flow.links:
                    # max(0.0, r) inlined: the same value for every r,
                    # NaN and -0.0 included.
                    r = link.residual - share
                    link.residual = r if r > 0.0 else 0.0
                    link.unfrozen -= 1
                    touched[link] = None
            for link in touched:
                n = link.unfrozen
                if n:
                    heappush(heap, (link.residual / n, link.index, link))

    def _schedule_next_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        soonest = None
        for flow in self._flows:
            if flow.rate <= 0:
                continue
            eta = flow.remaining / flow.rate
            if soonest is None or eta < soonest:
                soonest = eta
        if soonest is not None:
            self._completion_event = self.engine.schedule(
                soonest, self._complete_due_flows)

    def _complete_due_flows(self) -> List[_Flow]:
        self._completion_event = None
        self._advance_to_now()
        finished = [f for f in self._flows if f.finished]
        seeds = []
        for flow in finished:
            seeds.extend(flow.links)
            self._flows.pop(flow, None)
            for link in flow.links:
                link.flows.pop(flow, None)
            group = flow.group
            if group is not None:
                if group.next_idx < len(group.sizes):
                    self._launch_next_subflow(group)
                else:
                    if group.on_sent is not None:
                        group.on_sent()
                    self._record_flow_span(group.message)
                    self.engine.schedule(flow.prop_latency_ns, self._deliver,
                                         group.message)
                continue
            if flow.on_sent is not None:
                flow.on_sent()
            self._record_flow_span(flow.message)
            self.engine.schedule(flow.prop_latency_ns, self._deliver,
                                 flow.message)
        self._reallocate(seeds)
        return finished

    # -- introspection ------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def link_count(self) -> int:
        """Physical links in the topology (closed form; lazy graph)."""
        return self._links.total_count()

    # -- telemetry ----------------------------------------------------------------

    def _record_flow_span(self, message: Message) -> None:
        """One span per fully-serialized message on a shared flow track."""
        telemetry = self.telemetry
        if telemetry is not None and telemetry.chunk_spans:
            telemetry.spans.add(
                "flows", f"{message.src}->{message.dest}", "flow",
                message.send_time, self.engine.now,
                {"size_bytes": message.size_bytes})

    def telemetry_sample(self, telemetry, now: float) -> None:
        """Sample concurrency: flows in flight drive solver cost."""
        super().telemetry_sample(telemetry, now)
        telemetry.metrics.gauge("network", "active_flows").sample(
            now, len(self._flows))

    def telemetry_finalize(self, telemetry, total_ns: float) -> None:
        """Solver iterations and fidelity escalations (HyGra-style)."""
        super().telemetry_finalize(telemetry, total_ns)
        metrics = telemetry.metrics
        metrics.counter("network", "solver_iterations").value = float(
            self.rate_recomputations)
        metrics.counter("network", "solver_flow_visits").value = float(
            self.solver_flow_visits)
        metrics.counter("network", "granularity_escalations").value = float(
            self.granularity_escalations)
        metrics.counter("network", "links_total").value = float(
            self._links.total_count())
