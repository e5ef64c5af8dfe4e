"""Property-based tests for the flow-level backend."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import EventEngine
from repro.network import AnalyticalNetwork, parse_topology
from repro.network.flowlevel import FlowLevelNetwork


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 24),
                   min_size=1, max_size=8),
)
def test_shared_link_drains_in_total_bytes_over_capacity(sizes):
    """Work conservation: N flows on one 100 GB/s link finish exactly at
    sum(bytes)/100, whatever the size mix (max-min keeps the link busy)."""
    topo = parse_topology("Ring(4)", [100], latencies_ns=[0])
    engine = EventEngine()
    net = FlowLevelNetwork(engine, topo)
    done = []
    for i, size in enumerate(sizes):
        net.sim_recv(1, 0, size, tag=i, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 1, size, tag=i)
    engine.run()
    assert len(done) == len(sizes)
    assert max(done) == pytest.approx(sum(sizes) / 100, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    n_flows=st.integers(min_value=1, max_value=6),
    size=st.integers(min_value=1024, max_value=1 << 22),
)
def test_equal_flows_finish_together(n_flows, size):
    topo = parse_topology("Ring(4)", [100], latencies_ns=[0])
    engine = EventEngine()
    net = FlowLevelNetwork(engine, topo)
    done = []
    for i in range(n_flows):
        net.sim_recv(1, 0, size, tag=i, callback=lambda m: done.append(engine.now))
        net.sim_send(0, 1, size, tag=i)
    engine.run()
    assert max(done) == pytest.approx(min(done), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=1 << 26),
    src=st.integers(min_value=0, max_value=7),
    dst=st.integers(min_value=0, max_value=7),
)
def test_single_flow_matches_analytical_per_dim_serialization(size, src, dst):
    """One unloaded flow: the fluid model serializes once end-to-end,
    which equals the analytical time minus its per-dim store-and-forward
    (identical whenever the route stays within one dimension)."""
    if src == dst:
        return
    topo = parse_topology("Ring(8)", [100], latencies_ns=[50])
    engine_a = EventEngine()
    analytical = AnalyticalNetwork(engine_a, topo).transfer_time(src, dst, size)

    engine = EventEngine()
    net = FlowLevelNetwork(engine, topo)
    done = []
    net.sim_recv(dst, src, size, callback=lambda m: done.append(engine.now))
    net.sim_send(src, dst, size)
    engine.run()
    assert done[0] == pytest.approx(analytical, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    joins=st.lists(
        st.tuples(st.floats(min_value=0, max_value=500, allow_nan=False),
                  st.integers(min_value=1024, max_value=1 << 20)),
        min_size=1, max_size=5),
)
def test_dynamic_arrivals_never_lose_bytes(joins):
    """Flows joining at arbitrary times all complete; delivery count and
    byte totals are conserved."""
    topo = parse_topology("Ring(4)", [100], latencies_ns=[10])
    engine = EventEngine()
    net = FlowLevelNetwork(engine, topo)
    delivered = []

    def start(tag, size):
        net.sim_recv(1, 0, size, tag=tag,
                     callback=lambda m: delivered.append(m.size_bytes))
        net.sim_send(0, 1, size, tag=tag)

    for tag, (at, size) in enumerate(joins):
        engine.schedule(at, start, tag, size)
    engine.run()
    assert sorted(delivered) == sorted(size for _, size in joins)
    assert net.active_flows == 0


# -- exact incremental solver vs progressive filling ---------------------------

def progressive_filling(net):
    """Reference max-min solve: the progressive filling the flow backend
    shipped before its incremental solver, kept here as the oracle.

    Rescans every active link each round (in materialization order,
    strict ``<`` so ties go to the earliest link) and rebuilds each
    link's unfrozen-flow list.  Returns ``(rates, ties, clamps)``: the
    rate of every active flow, how many rounds had more than one link at
    the minimum share, and how many residual updates hit the ``max(0.0,
    ...)`` clamp.  Reads the network's state and changes nothing.
    """
    unfrozen = dict.fromkeys(net._flows)
    active = [link for link in net._links.values() if link.flows]
    residual = {id(link): link.capacity for link in active}
    rates = {}
    ties = clamps = 0
    while unfrozen:
        best_share = best_link = None
        shares = []
        for link in active:
            on_link = [f for f in link.flows if f in unfrozen]
            if not on_link:
                continue
            share = residual[id(link)] / len(on_link)
            shares.append(share)
            if best_share is None or share < best_share:
                best_share, best_link = share, link
        if best_link is None:
            break
        ties += shares.count(best_share) > 1
        for flow in [f for f in best_link.flows if f in unfrozen]:
            rates[flow] = best_share
            unfrozen.pop(flow)
            for link in flow.links:
                left = residual[id(link)] - best_share
                clamps += left < 0.0
                residual[id(link)] = max(0.0, left)
    return rates, ties, clamps


def reachable_flows(seeds):
    """Flows connected to ``seeds`` through shared links (test-side walk)."""
    links = [link for link in seeds if link.flows]
    seen_links = {id(link) for link in links}
    flows = {}
    for link in links:
        for flow in link.flows:
            if flow in flows:
                continue
            flows[flow] = None
            for other in flow.links:
                if id(other) not in seen_links:
                    seen_links.add(id(other))
                    links.append(other)
    return flows


def oracle_checked(backend_cls):
    """``backend_cls`` with its re-solves checked against the oracle.

    Every re-solve must leave the flows outside the changed component at
    their rates.  Every rate must equal the oracle's after each top-level
    re-solve and after each drain.  Inside a drain, a send issued from an
    ``on_sent`` callback re-solves only its own component while flows
    near the routes drained so far wait for the drain's closing re-solve,
    so the oracle is checked once that has run.
    """

    class Checked(backend_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.mismatches = []
            self.moved_outside = []
            self.ties = self.clamps = self.checks = 0
            self._draining = 0

        def _check_oracle(self):
            expected, ties, clamps = progressive_filling(self)
            self.checks += 1
            self.ties += ties
            self.clamps += clamps
            self.mismatches += [(f.rate, rate) for f, rate in expected.items()
                                if f.rate != rate]

        def _reallocate(self, seeds=None):
            seeds = None if seeds is None else list(seeds)
            touched = reachable_flows(
                self._links.values() if seeds is None else seeds)
            before = {f: f.rate for f in self._flows if f not in touched}
            super()._reallocate(seeds)
            self.moved_outside += [(f.rate, rate) for f, rate in before.items()
                                   if f.rate != rate]
            if not self._draining:
                self._check_oracle()

        def _complete_due_flows(self):
            self._draining += 1
            try:
                finished = super()._complete_due_flows()
            finally:
                self._draining -= 1
            self._check_oracle()
            return finished

    return Checked


#: Per-dim bandwidths whose shares do not divide evenly, so residual
#: updates round (and sometimes clamp at zero).
_ODD_BANDWIDTHS = (0.1, 0.3, 0.7, 1.1, 25.0, 100.0 / 3.0, 50.0, 100.0)
_NOTATIONS = ("Ring(4)", "Ring(6)", "Ring(3)_Switch(4)", "Ring(4)_FC(3)",
              "Switch(4)_Ring(3)", "Ring(2)_Ring(3)_Switch(2)")


def drive(backend_cls, notation, bandwidths, joins, **kwargs):
    """Run ``joins`` (time, src, dst, size, chain) through an
    oracle-checked backend; returns the network after the run.

    A join with ``chain`` set sends a reply from ``dst`` back to ``src``
    from its ``on_sent`` callback, inside the drain, as the ring
    executors do when a rank's next step starts.
    """
    topo = parse_topology(notation, list(bandwidths),
                          latencies_ns=[5.0] * len(bandwidths))
    engine = EventEngine()
    net = oracle_checked(backend_cls)(engine, topo, **kwargs)
    delivered = []
    n = topo.num_npus
    for tag, (at, src, dst, size, chain) in enumerate(joins):
        src %= n
        dst %= n
        if src == dst:
            dst = (dst + 1) % n

        def send(src, dst, size, tag, on_sent=None):
            net.sim_recv(dst, src, size, tag=tag,
                         callback=lambda m: delivered.append(m))
            net.sim_send(src, dst, size, tag=tag, callback=on_sent)

        def reply(src=src, dst=dst, size=size, tag=tag):
            send(dst, src, size // 2 + 1, tag + len(joins))

        engine.schedule(at, send, src, dst, size, tag,
                        reply if chain else None)
    engine.run()
    assert len(delivered) == len(joins) + sum(j[4] for j in joins)
    assert net.active_flows == 0
    return net


_joins = st.lists(
    st.tuples(st.sampled_from((0.0, 0.0, 10.0, 40.0, 100.0, 250.0)),
              st.integers(min_value=0, max_value=63),
              st.integers(min_value=0, max_value=63),
              st.sampled_from((1000, 3000, 4096, 10_000, 77_777, 1 << 16)),
              st.booleans()),
    min_size=6, max_size=24)


@settings(max_examples=60, deadline=None)
@given(notation=st.sampled_from(_NOTATIONS),
       bandwidths=st.lists(st.sampled_from(_ODD_BANDWIDTHS),
                           min_size=3, max_size=3),
       joins=_joins)
def test_incremental_solver_matches_progressive_filling(
        notation, bandwidths, joins):
    """Every flow's rate equals the oracle's bit for bit, and flows
    outside a re-solved component keep their rates."""
    dims = notation.count("(")
    net = drive(FlowLevelNetwork, notation, bandwidths[:dims], joins)
    assert net.mismatches == []
    assert net.moved_outside == []


@settings(max_examples=40, deadline=None)
@given(notation=st.sampled_from(_NOTATIONS[:4]),
       bandwidths=st.lists(st.sampled_from(_ODD_BANDWIDTHS),
                           min_size=2, max_size=2),
       joins=_joins,
       threshold=st.sampled_from((0.0, 1.0, 2.0, 3.0)))
def test_adaptive_solver_matches_progressive_filling(
        notation, bandwidths, joins, threshold):
    """The same oracle check through escalations, packet sub-flow
    launches and de-escalations (full re-solves)."""
    from repro.network.adaptive import AdaptiveFlowNetwork

    dims = notation.count("(")
    net = drive(AdaptiveFlowNetwork, notation, bandwidths[:dims], joins,
                escalation_threshold=threshold,
                escalation_packet_bytes=4096)
    assert net.mismatches == []
    assert net.moved_outside == []


#: A fixed join sequence on a ring with thirds-of-capacity shares: it
#: exercises equal-share ties and zero-residual clamps (asserted below),
#: so the oracle comparison covers both.
TIE_AND_CLAMP_CASE = (
    "Ring(6)", (0.3,),
    tuple((at, src, (src + hops) % 6, size, chain)
          for at, (src, hops, size, chain) in zip(
              (0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 40.0, 40.0, 100.0, 100.0,
               250.0, 250.0),
              ((0, 1, 3000, False), (1, 1, 3000, True),
               (2, 2, 10_000, False), (3, 3, 4096, True),
               (0, 2, 77_777, False), (4, 1, 1000, False),
               (5, 3, 3000, True), (1, 2, 4096, False),
               (2, 1, 10_000, False), (3, 2, 1000, True),
               (4, 3, 77_777, False), (5, 1, 4096, False)))))


def test_fixed_case_exercises_ties_and_clamps():
    notation, bandwidths, joins = TIE_AND_CLAMP_CASE
    net = drive(FlowLevelNetwork, notation, bandwidths, joins)
    assert net.ties > 0 and net.clamps > 0, (net.ties, net.clamps)
    assert net.mismatches == []
    assert net.moved_outside == []

