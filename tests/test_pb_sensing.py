"""Change-driven Piggyback saturation sensing.

A Piggyback (PB) router posts the occupancy of its global ports to its
group's :class:`~repro.router.saturation.SaturationBoard` only when a credit
debit or return changed it, from its own pump, after allocation.  Credit
returns fire before any pump and debits happen inside the owner's pump, so
every board entry changes at exactly the point of the cycle where a
post-every-cycle scheme would write it, and PB routers can sleep on
pipeline and blockage verdicts like every other router.  These tests pin
that down:

* delivery traces of a PB matrix equal SHA-256 digests recorded when every
  PB router was stepped and posted on every cycle;
* after every cycle each posting router's board entries equal
  ``CreditTracker.occupancy_metric`` recomputed from its trackers;
* PB routers leave the active set, so a drain fast-forwards;
* the exact number of board posts and router pumps of one tiny run.
"""

from __future__ import annotations

import dataclasses
import hashlib
from functools import lru_cache

import pytest

from repro.config import (
    NetworkConfig,
    RouterConfig,
    RoutingConfig,
    SimulationConfig,
    TrafficConfig,
)
from repro.core.arrangement import VcArrangement
from repro.core.link_types import LinkType, MessageClass
from repro.faults import FaultSchedule, LinkDown, LinkUp
from repro.probes import Probe
from repro.session import Session
from repro.simulation import Simulation

DRAGONFLY = NetworkConfig(topology="dragonfly", h=2)
MEGAFLY = NetworkConfig(
    topology="megafly",
    params={"spines": 2, "leaves": 2, "h": 2, "nodes_per_router": 2},
)
#: the Fig. 8 request-reply arrangements of each VC policy.
REQREP = {
    "baseline": VcArrangement.request_reply((4, 2), (4, 2)),
    "flexvc": VcArrangement.request_reply((4, 2), (2, 1)),
}


def _config(network=DRAGONFLY, policy="flexvc", sensing="vc",
            min_credits=False, arrangement=None, reactive=True,
            load=0.4, buffers="static") -> SimulationConfig:
    return SimulationConfig(
        network=network,
        router=RouterConfig(buffer_organization=buffers),
        routing=RoutingConfig(algorithm="pb", vc_policy=policy,
                              pb_sensing=sensing,
                              pb_min_credits_only=min_credits),
        arrangement=arrangement or REQREP[policy],
        traffic=TrafficConfig(pattern="adversarial", load=load,
                              reactive=reactive),
        warmup_cycles=200,
        measure_cycles=400,
        seed=3,
    )


def _faulted_config() -> SimulationConfig:
    """Request-reply per-VC FlexVC with a global link of router 0 down
    from cycle 250 to 450 (in-flight packets dropped)."""
    base = _config()
    topology = base.network.build()
    port = next(
        info.port for info in topology.ports(0)
        if topology.link_type(0, info.port) == LinkType.GLOBAL
    )
    schedule = FaultSchedule(
        events=(LinkDown(250, 0, port), LinkUp(450, 0, port)), policy="drop"
    )
    return dataclasses.replace(base, faults=schedule)


CASES = {
    **{
        f"reqrep {sensing} {'mincred' if min_credits else 'all'} {policy}":
            lambda s=sensing, m=min_credits, p=policy: _config(
                policy=p, sensing=s, min_credits=m)
        for sensing in ("port", "vc")
        for min_credits in (False, True)
        for policy in ("baseline", "flexvc")
    },
    "damq reqrep port all flexvc": lambda: _config(
        sensing="port", buffers="damq", load=0.8),
    "single-class vc flexvc": lambda: _config(
        arrangement=VcArrangement.single_class(4, 2), reactive=False),
    "megafly port baseline": lambda: _config(
        network=MEGAFLY, policy="baseline", sensing="port",
        arrangement=VcArrangement.single_class(4, 2), reactive=False),
    "faulted reqrep vc flexvc": _faulted_config,
}

#: delivery-trace digests recorded with every PB router stepped and posting
#: on every cycle.
TRACE_DIGESTS = {
    "reqrep port all baseline":
        "17b6caae6897ff89fa1b87b7a6d8c1099ba944873d73c1136a0f6d4bf7f75880",
    "reqrep port all flexvc":
        "e4d2f2d0856143676c66f84a0432bac1a4bbc33386bce27db7213cf42f8ef457",
    "reqrep port mincred baseline":
        "31d26052e632cfe4176544f259fa06cf3c9632134825aaef7b60d1cbbf98fd5c",
    "reqrep port mincred flexvc":
        "b174948e1f83bcf6d0199fa3d63066d6eb9676f51d40daf6d0a5119ab3ed6c79",
    "reqrep vc all baseline":
        "862d488cc9c2f0792a20e0d4c8868aa99bcfb60ec9c83f4511334ae121d5ceac",
    "reqrep vc all flexvc":
        "6ec0755d59a366cb329f54379c4ffe6c4f35b69ff1aed4e887596352e4d35cbd",
    "reqrep vc mincred baseline":
        "6ef5174c312d3d226bc512e489efc7e5685c0c0f78a8d6f105734a55aecb3de1",
    "reqrep vc mincred flexvc":
        "065bb02f938e2c7e77826978992edf1f32a28447e7b4b29395aecfb64739246c",
    "damq reqrep port all flexvc":
        "7be3e35a4d0f6bc7f12c2797e022f4dc7efc358ad89fdd59e469ae1ceaca782c",
    "single-class vc flexvc":
        "95db398e55a3bc4132369c39073907c43de605be7deb0c0725dc9d7375c054d1",
    "megafly port baseline":
        "83352f45b7a09994a95c6ba2626dfffb5ab9849df8625bf4f25bf337cded5ce4",
    "faulted reqrep vc flexvc":
        "c11be7c858e13eb72ec293ebb0178a391fd8769da679306e307c23fbc03afe37",
}


class _DeliveryTrace(Probe):
    def __init__(self) -> None:
        self.entries = []

    def on_packet_delivered(self, packet, cycle):
        self.entries.append((cycle, packet.src_node, packet.dst_node,
                             packet.created_at, packet.hops,
                             int(packet.msg_class), int(packet.route_kind)))


@lru_cache(maxsize=None)
def trace_digest(case: str):
    """Delivery-trace digest of one case, plus its simulation."""
    trace = _DeliveryTrace()
    session = Session(CASES[case](), probes=[trace])
    session.warmup()
    session.measure()
    digest = hashlib.sha256(repr(trace.entries).encode()).hexdigest()
    return digest, session.sim


@pytest.mark.parametrize("case", sorted(CASES))
def test_delivery_trace_unchanged(case):
    digest, sim = trace_digest(case)
    assert sim.metrics.packets_delivered_total > 0
    assert any(router.misrouted_packets for router in sim.routers)
    if case.startswith("faulted"):
        assert sim.fault_controller.faults_applied == 2
    assert digest == TRACE_DIGESTS[case]


def test_cases_cover_readers_and_both_board_classes():
    """The matrix is not vacuous: Megafly has board readers without global
    ports, and request-reply per-VC sensing posts to both board classes."""
    _, megafly = trace_digest("megafly port baseline")
    readers = [router for router in megafly.routers
               if router.saturation_board is not None and not router._sensors]
    assert readers and any(router.packets_injected for router in readers)
    _, reqrep = trace_digest("reqrep vc all flexvc")
    boards = reqrep._saturation_boards.values()
    assert any(board._sums[1] for board in boards)
    assert {sensor[2] for router in reqrep.routers
            for sensor in router._sensors} == {0, 1}


def _expected_entries(router):
    """Board entries of ``router`` recomputed from its credit trackers."""
    config = router.routing_config
    per_vc = config.pb_sensing == "vc"
    arrangement = router.arrangement
    class_vcs = [0]
    if per_vc and arrangement.is_reactive:
        class_vcs.append(min(arrangement.request_global,
                             arrangement.total_global - 1))
    entries = {}
    for class_index, vc in enumerate(class_vcs):
        for port, op in router.output_ports.items():
            if op.link_type != LinkType.GLOBAL:
                continue
            gport = router.topology.global_port_index(router.router_id, port)
            entries[(gport, class_index)] = op.credits.occupancy_metric(
                per_vc, vc, config.pb_min_credits_only)
    return entries


@pytest.mark.parametrize("sensing,min_credits,buffers", [
    ("port", False, "static"), ("vc", True, "static"), ("port", True, "damq"),
])
def test_board_matches_trackers_after_every_cycle(sensing, min_credits, buffers):
    sim = Simulation(_config(sensing=sensing, min_credits=min_credits,
                             buffers=buffers))
    posting = [router for router in sim.routers if router._sensors]
    assert posting
    nonzero = 0

    def check(cycle):
        nonlocal nonzero
        for router in posting:
            board = router.saturation_board
            for (gport, class_index), value in _expected_entries(router).items():
                posted = board.occupancy(router.saturation_position, gport,
                                         class_index)
                assert posted == value, (cycle, router.router_id, gport)
                nonzero += value > 0

    sim.engine.run_until(400, check)
    assert nonzero > 0


def test_pb_routers_sleep_and_drain_fast_forwards():
    session = Session(_config())
    session.warmup()
    engine = session.engine
    assert engine.idle_cycles_skipped == 0
    session.drain()
    assert session._network_empty()
    assert engine.idle_cycles_skipped > 0
    assert not engine._active


#: exact operation counts of 300 cycles of ``_config(load=0.2)`` (36
#: routers).  Posting and stepping every PB router on every cycle made
#: 43,200 posts (4 slots x 36 routers x 300 cycles) and 10,800 pumps,
#: each with a sensor scan.
EXPECTED_POSTS = 281
EXPECTED_SCANS = 387
EXPECTED_PUMPS = 2241


def test_exact_post_and_pump_counts():
    """Board posts, sensor scans and router pumps of one fixed run, counted
    exactly: a machine-independent gate against per-cycle posting, sensing
    or stepping."""
    sim = Simulation(dataclasses.replace(_config(load=0.2), warmup_cycles=300))
    posts = 0
    scans = 0
    pumps = 0
    for board in sim._saturation_boards.values():
        post = board.post

        def counting_post(*args, _post=post):
            nonlocal posts
            posts += 1
            _post(*args)

        board.post = counting_post
    for router in sim.routers:
        def counting_update(_update=router._update_saturation):
            nonlocal scans
            scans += 1
            _update()

        router._update_saturation = counting_update
    engine = sim.engine
    for index, pump in enumerate(engine._pumps):
        def counting_pump(now, _pump=pump):
            nonlocal pumps
            pumps += 1
            return _pump(now)

        engine._pumps[index] = counting_pump
    engine.run_until(300)
    assert (posts, scans, pumps) == (EXPECTED_POSTS, EXPECTED_SCANS,
                                     EXPECTED_PUMPS)


@pytest.mark.xfail(strict=True, reason=(
    "PiggybackRouting.sensing_vc returns the first reply VC of a GLOBAL "
    "port (request_global) for every port type, so replies read a request "
    "VC of LOCAL output ports"))
def test_reply_sensing_reads_first_reply_vc_of_local_port():
    sim = Simulation(_config(sensing="vc"))
    router = sim.routers[0]
    routing = sim.routing
    group, _ = sim.topology.group_slot(0)
    target = next(
        other for other in range(1, sim.topology.num_routers)
        if sim.topology.group_slot(other)[0] == group
    )
    port = routing.route.column(target).next_port(0)
    op = router.output_ports[port]
    assert op.link_type == LinkType.LOCAL
    # (4,2)/(2,1): the reply sub-path of a LOCAL port starts at VC 4.
    first_reply_vc = sim.config.arrangement.request_local
    op.credits.debit(first_reply_vc, 8, True)
    assert routing._queue_metric(router, target, MessageClass.REPLY) == 8
