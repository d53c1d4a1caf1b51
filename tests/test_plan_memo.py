"""Plan-memo misses: the hop-verdict memo and the per-router candidate intern.

A plan-memo miss asks the VC policy for a verdict only once per distinct hop
signature and shares one interned ``[CandidateHop]`` plan per router, out
port, VC range and flag combination.  These tests pin that down on every
routing algorithm, both VC policies and three topologies:

* every candidate handed out equals, field by field, one built from scratch
  (a fresh :class:`HopContext` through ``policy.evaluate`` and the router's
  ``resolve_candidate``);
* equal ``(router, port, range, flags)`` give the identical object, whose
  ``hot`` record was resolved exactly once;
* plan lists are shared and never mutated;
* a faulted run — which flushes the plan memo through
  ``invalidate_route_caches()`` but keeps the verdict memo and the intern —
  delivers exactly the packets, in exactly the order, it did when every
  candidate was rebuilt per destination.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from functools import lru_cache
from types import SimpleNamespace

import pytest

from repro.config import (
    NetworkConfig,
    RoutingConfig,
    SimulationConfig,
    TrafficConfig,
)
from repro.core.arrangement import VcArrangement
from repro.core.vc_policy import HopContext, HopKind
from repro.faults import FaultSchedule, LinkDown, LinkUp
from repro.packet import RouteKind
from repro.probes import Probe
from repro.router.router import Router
from repro.session import Session
from repro.simulation import Simulation
from repro.topology.base import LinkType

NETWORKS = {
    "dragonfly": NetworkConfig(topology="dragonfly", h=2),
    "flattened_butterfly": NetworkConfig(
        topology="flattened_butterfly", k1=4, k2=4, fb_nodes_per_router=2
    ),
    "megafly": NetworkConfig(
        topology="megafly",
        params={"spines": 2, "leaves": 2, "h": 2, "nodes_per_router": 2},
    ),
}
ROUTINGS = ("min", "val", "par", "pb")
POLICIES = ("baseline", "flexvc")
MATRIX = [
    (network, algorithm, policy)
    for network in sorted(NETWORKS)
    for algorithm in ROUTINGS
    for policy in POLICIES
]

#: packet attributes the hop construction reads (snapshot at call time).
_PACKET_FIELDS = (
    "dst_router", "msg_class", "route_kind", "intermediate_reached",
    "intermediate_router", "phase_local", "phase_global", "phase_position",
    "phase_global_taken",
)


#: VC counts tried in order: FlexVC runs get the smallest one its routing
#: accepts, so detours are opportunistic and carry escapes.
_ARRANGEMENTS = ((2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3))


def _config(network: str, algorithm: str, policy: str) -> SimulationConfig:
    # Adversarial traffic makes PAR and PB divert, so every routing takes
    # detour and minimal hops.  The baseline also gets its minimum.
    for local_vcs, global_vcs in _ARRANGEMENTS:
        config = SimulationConfig(
            network=NETWORKS[network],
            routing=RoutingConfig(algorithm=algorithm, vc_policy=policy),
            arrangement=VcArrangement.single_class(local_vcs, global_vcs),
            traffic=TrafficConfig(pattern="adversarial", load=0.5),
            warmup_cycles=100,
            measure_cycles=200,
            seed=5,
        )
        try:
            config.validate()
        except ValueError:
            continue
        return config
    raise AssertionError(f"no arrangement fits {network}/{algorithm}/{policy}")


@lru_cache(maxsize=None)
def _traced_run(network: str, algorithm: str, policy: str):
    """Run one short simulation, recording every hop-plan construction,
    every plan handed out, every policy evaluation and every
    ``resolve_candidate`` call."""
    sim = Simulation(_config(network, algorithm, policy))
    routing = sim.routing
    hops = []
    plans = []
    evaluations = []
    resolves: Counter = Counter()
    hop_plan = routing._hop_plan
    plan = routing.plan
    evaluate = sim.policy.evaluate

    def recording_evaluate(ctx):
        evaluations.append(ctx)
        return evaluate(ctx)

    def recording_hop_plan(router, packet, target, input_type, input_vc,
                           is_detour, abandons_detour=False):
        snapshot = SimpleNamespace(
            **{name: getattr(packet, name) for name in _PACKET_FIELDS}
        )
        result = hop_plan(router, packet, target, input_type, input_vc,
                          is_detour, abandons_detour)
        hops.append((router, snapshot, target, input_type, input_vc,
                     is_detour, abandons_detour, result))
        return result

    def recording_plan(router, packet, input_type, input_vc):
        result = plan(router, packet, input_type, input_vc)
        if isinstance(result, list):
            plans.append((result, tuple(result)))
        return result

    routing._hop_plan = recording_hop_plan
    routing.plan = recording_plan
    sim.policy.evaluate = recording_evaluate
    resolve = Router.resolve_candidate

    def counting_resolve(router, candidate):
        resolves[(router.router_id, candidate.out_port, candidate.vc_lo,
                  candidate.vc_hi, candidate.opportunistic,
                  candidate.reaches_intermediate,
                  candidate.abandons_detour)] += 1
        return resolve(router, candidate)

    Router.resolve_candidate = counting_resolve
    try:
        result = sim.run()
    finally:
        Router.resolve_candidate = resolve
        sim.policy.evaluate = evaluate
    return SimpleNamespace(sim=sim, hops=hops, plans=plans,
                           evaluations=len(evaluations), resolves=resolves,
                           result=result)


def _reference_candidate(sim, router, packet, target, input_type, input_vc,
                         is_detour, abandons_detour):
    """The candidate built from scratch: table-level route queries, a fresh
    HopContext and a direct ``policy.evaluate`` call (no memo involved)."""
    route = sim.routing.route
    here = router.router_id
    dst = packet.dst_router
    out_port = route.next_port(here, target)
    if out_port is None:
        return None
    topology = sim.topology
    next_router = topology.neighbor(here, out_port)
    out_type = LinkType(topology.link_type(here, out_port))
    if abandons_detour or packet.route_kind == RouteKind.MINIMAL \
            or packet.intermediate_reached:
        intended = route.hop_sequence(here, dst)
    else:
        intended = route.hop_sequence(here, target) + route.hop_sequence(target, dst)
    vc_range, kind = sim.policy.evaluate(HopContext(
        msg_class=packet.msg_class,
        out_type=out_type,
        intended_remaining=intended,
        escape_from_next=route.hop_sequence(next_router, dst),
        input_type=input_type,
        input_vc=input_vc,
        phase_offsets=(packet.phase_local, packet.phase_global),
        phase_position=packet.phase_position,
        phase_global_taken=packet.phase_global_taken,
    ))
    if vc_range is None:
        return None
    return SimpleNamespace(
        out_port=out_port,
        next_router=next_router,
        out_type=out_type,
        vc_range=vc_range,
        opportunistic=kind == HopKind.OPPORTUNISTIC,
        reaches_intermediate=(is_detour
                              and next_router == packet.intermediate_router),
        abandons_detour=abandons_detour,
    )


_CANDIDATE_FIELDS = (
    "out_port", "next_router", "out_type", "vc_range", "opportunistic",
    "reaches_intermediate", "abandons_detour",
)


@pytest.mark.parametrize("network,algorithm,policy", MATRIX)
class TestPlanMemo:
    def test_candidates_match_a_fresh_policy_evaluation(
            self, network, algorithm, policy):
        run = _traced_run(network, algorithm, policy)
        assert run.hops, "the run built no hop plans"
        assert run.result.packets_delivered > 0
        for router, packet, target, input_type, input_vc, is_detour, \
                abandons, plan in run.hops:
            expected = _reference_candidate(
                run.sim, router, packet, target, input_type, input_vc,
                is_detour, abandons,
            )
            if expected is None:
                assert plan == []
                continue
            assert len(plan) == 1
            candidate = plan[0]
            for name in _CANDIDATE_FIELDS:
                assert getattr(candidate, name) == getattr(expected, name), name
            assert type(candidate.out_type) is LinkType
            assert (candidate.vc_lo, candidate.vc_hi) == (
                expected.vc_range.lo, expected.vc_range.hi)
            assert candidate.is_global_hop == (
                expected.out_type == LinkType.GLOBAL)
            assert candidate.simple_hop == (
                not (expected.reaches_intermediate or abandons))
            fresh = dataclasses.replace(candidate)
            assert candidate.hot == router.resolve_candidate(fresh)

    def test_equal_hops_share_one_object_resolved_once(
            self, network, algorithm, policy):
        run = _traced_run(network, algorithm, policy)
        by_key: dict = {}
        for router, *_, plan in run.hops:
            if not plan:
                continue
            c = plan[0]
            key = (router.router_id, c.out_port, c.vc_lo, c.vc_hi,
                   c.opportunistic, c.reaches_intermediate, c.abandons_detour)
            assert by_key.setdefault(key, plan) is plan
        assert by_key
        # hot was resolved exactly once per interned candidate.
        assert set(run.resolves) == set(by_key)
        assert set(run.resolves.values()) == {1}
        # The policy ran once per distinct hop signature, not per hop plan.
        assert run.evaluations == len(run.sim.routing._verdict_memo)
        assert 0 < run.evaluations < len(run.hops)

    def test_plan_lists_are_shared_and_never_mutated(
            self, network, algorithm, policy):
        run = _traced_run(network, algorithm, policy)
        # Unchanged after every grant of the run (checked after it ended).
        for plan, contents in run.plans:
            assert tuple(plan) == contents
        memo = run.sim.routing._plan_memo
        lists_by_candidate: dict = {}
        empties = set()
        for plan in memo.values():
            if isinstance(plan, list):
                if plan:
                    lists_by_candidate.setdefault(id(plan[0]), set()).add(id(plan))
                else:
                    empties.add(id(plan))
        # One list per candidate, and one shared empty plan.
        assert all(len(ids) == 1 for ids in lists_by_candidate.values())
        assert len(empties) <= 1


def test_two_plan_keys_return_the_same_list_object():
    run = _traced_run("dragonfly", "min", "flexvc")
    memo = run.sim.routing._plan_memo
    shared = Counter(id(plan) for plan in memo.values() if plan)
    assert len(memo) > len(shared)
    assert max(shared.values()) > 1


# ---------------------------------------------------------------------------
# Faulted runs: invalidate_route_caches keeps the verdict memo and intern
# ---------------------------------------------------------------------------

#: SHA-256 of the delivery trace of each faulted run below, recorded when
#: every candidate was still rebuilt per (here, target, destination, ...)
#: situation and the fault flush cleared that per-destination cache too.
FAULTED_TRACE_DIGESTS = {
    ("min", "baseline"):
        "a1d84f09f5f3fa3d3192a6ae32061b8f190bafea1057d9bbf2468ee018fc3a4e",
    ("min", "flexvc"):
        "129504629e0f8b17ff0c44270ee818864872dfa121436c9b56d8db5ed4703176",
    ("val", "flexvc"):
        "645d140a9d1e75fa3f689bfab82aa369543e4f99c14b45088055a6bfa3c05618",
    ("par", "flexvc"):
        "d126bfa1ced9404961df3252da60da7bf5072414ad19ea74f3729ff1285686f1",
    ("pb", "baseline"):
        "cefba71ba057ddd0b0b073810aef8a6519eae5f95b519e31d826bc4cf7c1c4d5",
    ("pb", "flexvc"):
        "ad838bf9e7b3cd0ce83ec585ae115865b72bc53241b5da57e6a06312e1adcad8",
}


class _DeliveryTrace(Probe):
    def __init__(self) -> None:
        self.entries = []

    def on_packet_delivered(self, packet, cycle):
        self.entries.append((cycle, packet.src_node, packet.dst_node,
                             packet.created_at, packet.hops,
                             int(packet.msg_class), int(packet.route_kind)))


def _faulted_config(algorithm: str, policy: str) -> SimulationConfig:
    base = SimulationConfig(
        routing=RoutingConfig(algorithm=algorithm, vc_policy=policy),
        arrangement=VcArrangement.single_class(4, 2),
        traffic=TrafficConfig(pattern="adversarial", load=0.4),
        warmup_cycles=200,
        measure_cycles=400,
        seed=3,
    )
    topology = base.network.build()
    port = next(
        info.port for info in topology.ports(0)
        if topology.link_type(0, info.port) == LinkType.GLOBAL
    )
    schedule = FaultSchedule(
        events=(LinkDown(250, 0, port), LinkUp(450, 0, port)), policy="drop"
    )
    return dataclasses.replace(base, faults=schedule)


def faulted_trace_digest(algorithm: str, policy: str):
    """Delivery-trace digest of a run with a global-link flap, plus the
    routing object (for memo inspection) and the fault controller."""
    trace = _DeliveryTrace()
    session = Session(_faulted_config(algorithm, policy), probes=[trace])
    session.warmup()
    session.measure()
    digest = hashlib.sha256(repr(trace.entries).encode()).hexdigest()
    return digest, session.sim


@pytest.mark.parametrize("algorithm,policy", sorted(FAULTED_TRACE_DIGESTS))
def test_faulted_delivery_trace_unchanged(algorithm, policy):
    digest, sim = faulted_trace_digest(algorithm, policy)
    controller = sim.fault_controller
    assert controller.faults_applied == 2
    assert controller.packets_rerouted > 0
    assert digest == FAULTED_TRACE_DIGESTS[(algorithm, policy)]
    # The flush cleared plans only: verdicts and interned hops survive.
    assert sim.routing._verdict_memo
    assert sim.routing._intern_memo


def test_invalidate_route_caches_keeps_route_independent_memos():
    run = _traced_run("dragonfly", "val", "flexvc")
    routing = run.sim.routing
    verdicts = dict(routing._verdict_memo)
    interned = dict(routing._intern_memo)
    assert routing._plan_memo and verdicts and interned
    routing.invalidate_route_caches()
    assert not routing._plan_memo
    assert routing._verdict_memo == verdicts
    assert all(routing._intern_memo[key] is plan
               for key, plan in interned.items())


def test_matrix_exercises_every_hop_shape():
    """The equivalence checks above are not vacuous: across the matrix the
    runs build minimal, detour, landing, escape, opportunistic and
    forbidden (empty) hop plans."""
    seen = Counter()
    for key in MATRIX:
        for *_, is_detour, abandons, plan in _traced_run(*key).hops:
            seen["detour" if is_detour else "minimal"] += 1
            seen["escape"] += abandons
            if not plan:
                seen["empty"] += 1
                continue
            seen["opportunistic"] += plan[0].opportunistic
            seen["reaches_intermediate"] += plan[0].reaches_intermediate
    assert all(seen[shape] > 0 for shape in (
        "minimal", "detour", "escape", "empty", "opportunistic",
        "reaches_intermediate",
    )), seen
