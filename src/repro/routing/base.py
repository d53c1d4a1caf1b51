"""Routing algorithm interface and shared forwarding machinery.

A routing algorithm answers one question per head packet per router: *where
should this packet go next, and which virtual channels may it use?*  The
answer is a prioritized list of :class:`CandidateHop` objects (or an
:class:`EjectionRequest` when the packet has reached its destination router).

The shared machinery in :class:`RoutingAlgorithm` handles everything that is
common to MIN, Valiant, PAR and Piggyback:

* computing the intended remaining hop-type sequence and the minimal escape
  path from the next router (the inputs of the VC policy);
* tracking the packet's routing *phase* so the distance-based baseline can
  align hops onto its reference path;
* offering the safe escape (minimal continuation) as a fallback candidate for
  opportunistic hops, per Section III-A ("packets revert to the corresponding
  safe path as an escape path" when the opportunistic buffer has no room).

Concrete algorithms only implement the decision hooks: what to do at
injection (:meth:`decide_at_injection`) and, for in-transit adaptive routing,
whether to divert mid-path (:meth:`maybe_divert_in_transit`).
"""

from __future__ import annotations

import random
from abc import ABC
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

from ..config import RoutingConfig
from ..core.arrangement import VcArrangement
from ..core.link_types import LinkType, MessageClass
from ..core.vc_policy import HopContext, HopKind, VcPolicy, VcRange
from ..core.vc_selection import VcSelection
from ..packet import Packet, RouteKind
from ..topology.base import Topology
from .route_table import make_route_table

if TYPE_CHECKING:  # pragma: no cover
    from ..router.router import Router

#: bound on the plan memo: the key population grows with the distinct
#: (here, dst, phase-state) situations actually traversed — effectively
#: O(n²) under uniform traffic at 10^5-endpoint scale — so the memo is
#: cleared wholesale when it reaches this many entries.  Plans are pure
#: (no RNG; randomness lives in the per-packet injection decisions), so a
#: rebuilt entry is identical and the clear is invisible in results.
#: Canonical paper-scale runs stay far below the cap, and at system scale
#: rebuilding after a clear costs well under a cycle's worth of work.
_MEMO_CAP = 1 << 18


@dataclass(slots=True)
class CandidateHop:
    """One admissible forwarding option for a head packet."""

    out_port: int
    next_router: int
    out_type: LinkType
    vc_range: VcRange
    opportunistic: bool = False
    #: granting this hop lands the packet on its Valiant intermediate router.
    reaches_intermediate: bool = False
    #: granting this hop abandons the remaining detour (escape fallback).
    abandons_detour: bool = False
    #: flattened copies of ``vc_range.lo`` / ``vc_range.hi`` so the allocator
    #: inner loop reads plain ints (filled in ``__post_init__``).
    vc_lo: int = -1
    vc_hi: int = -1
    #: packed router-resolved evaluation record — ``(out_port, vc_lo, vc_hi,
    #: out_state_base, credit_free_base, out_buffer_capacity,
    #: pending_releases, credit_fail_mask)``.  Candidates are interned per
    #: router (the intern key includes the router id), so the router-local
    #: slab indices and references can be burned in at construction; the
    #: allocator then evaluates a candidate with a single attribute load
    #: plus flat reads.  Filled by RoutingAlgorithm._hop_plan;
    #: hand-built candidates (tests) keep the 3-field prefix form.
    hot: tuple = ()
    #: grant-time fast-path flags: a *simple* hop updates only the packet's
    #: hop/phase counters, so the router inlines it; detour-affecting hops
    #: go through RoutingAlgorithm.on_hop_taken.
    is_global_hop: bool = False
    simple_hop: bool = False

    def __post_init__(self) -> None:
        self.vc_lo = self.vc_range.lo
        self.vc_hi = self.vc_range.hi
        self.hot = (self.out_port, self.vc_lo, self.vc_hi)
        self.is_global_hop = self.out_type == LinkType.GLOBAL
        self.simple_hop = not (self.reaches_intermediate or self.abandons_detour)


@dataclass(slots=True)
class EjectionRequest:
    """The packet has reached its destination router and awaits consumption."""

    node: int
    msg_class: MessageClass
    #: flat ejection-port slot on the destination router (``2 * local_node +
    #: msg_class``), filled lazily by the first allocator evaluation.  Safe to
    #: cache on this shared memoized object because only the (unique)
    #: destination router of ``node`` ever plans an ejection for it.
    slot: int = -1


Plan = Union[EjectionRequest, List[CandidateHop]]

#: the shared plan of a hop with no route or no admissible VC (never mutated).
_NO_HOP: List[CandidateHop] = []


class RoutingAlgorithm(ABC):
    """Base class of MIN / VAL / PAR / Piggyback routing."""

    #: human-readable name, overridden by subclasses.
    name = "abstract"

    def __init__(
        self,
        topology: Topology,
        policy: VcPolicy,
        selection: VcSelection,
        config: RoutingConfig,
        arrangement: VcArrangement,
        rng: random.Random,
        route_table=None,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.selection = selection
        self.config = config
        self.arrangement = arrangement
        self.rng = rng
        #: precomputed minimal-route tables (dense or lazy column shards —
        #: identical answers); every minimal next-port / hop-sequence query
        #: on the hot path reads these instead of the topology's per-pair
        #: computations.
        self.route = (
            route_table if route_table is not None else make_route_table(topology)
        )
        #: reference-slot contribution of one minimal segment (phase), used to
        #: advance the baseline's slot offsets between phases.
        if topology.has_link_type_restrictions:
            self.phase_ref = topology.max_min_hop_counts()
        else:
            self.phase_ref = (max(2, topology.diameter), 0)
        #: routers eligible as Valiant intermediates (None = all routers).
        self._valiant_pool = topology.valiant_routers()
        #: hop-verdict memo: the VC policy decides from the HopContext
        #: fields alone (Definitions 1-2), never from the router or the
        #: destination, so its ``(vc_range, opportunistic)`` verdict is
        #: shared by every hop with the same signature.
        # devtools: unbounded-ok(one entry per distinct hop signature: message class, pairs of the <=255 interned route sequences, input link type/VC and phase state; independent of traffic volume)
        self._verdict_memo: dict = {}
        #: interned one-hop plans ``[CandidateHop]`` per router: out port,
        #: VC range and flags determine every other field and the
        #: router-resolved ``hot`` record, so equal hops share one object.
        # devtools: unbounded-ok(at most routers x ports x VC ranges x 6 flag combinations: opportunistic x plain/reaches-intermediate/abandons-detour)
        self._intern_memo: dict = {}
        #: memoized whole plans for the minimal branch — bounded by
        #: :data:`_MEMO_CAP`, since keys scale with the (here, dst) pairs
        #: actually traversed; plan lists are shared and never mutated.
        self._plan_memo: dict = {}
        # devtools: unbounded-ok(keyed by (dst router, msg class): at most 2n entries)
        self._ejection_memo: dict = {}
        #: packed-int plan-memo keys: every component is a small bounded
        #: non-negative int (after the +1 shifts), so the key packs into one
        #: integer — int hashing is much cheaper than hashing a 9-tuple.
        #: Out-of-range phase state (never produced by the canonical
        #: reference shapes) falls back to tuple keys, which cannot collide
        #: with ints in the same dict.
        self._key_routers = topology.num_routers
        #: hook elision: algorithms that keep the base-class no-op hooks
        #: (e.g. MIN/VAL never divert in transit) skip the virtual call on
        #: every plan computation.
        self._has_injection_hook = (
            type(self).decide_at_injection is not RoutingAlgorithm.decide_at_injection
        )
        self._has_transit_hook = (
            type(self).maybe_divert_in_transit
            is not RoutingAlgorithm.maybe_divert_in_transit
        )

    # ------------------------------------------------------------------
    # Fault support
    # ------------------------------------------------------------------
    def invalidate_route_caches(self) -> None:
        """Flush every memo that bakes in route-table answers.

        Called by the fault controller after re-table-ing: plans embed next
        ports read from the mutated columns.  The other memos survive
        because they never read a route: ejection requests depend only on
        the (static) node attachment, hop verdicts only on the hop's
        signature (the new route's sequences form a new key), and an
        interned candidate only on its router, port, VC range and flags
        (its ``hot`` record holds static router slab indices).
        """
        self._plan_memo.clear()

    # ------------------------------------------------------------------
    # Decision hooks
    # ------------------------------------------------------------------
    def decide_at_injection(self, router: "Router", packet: Packet) -> None:
        """Choose MIN vs Valiant for a packet about to leave its source router.

        The default (minimal routing) does nothing.
        """

    def maybe_divert_in_transit(self, router: "Router", packet: Packet) -> None:
        """In-transit adaptive hook (PAR).  Default: never divert."""

    # ------------------------------------------------------------------
    # Plan computation
    # ------------------------------------------------------------------
    def plan(
        self,
        router: "Router",
        packet: Packet,
        input_type: Optional[LinkType],
        input_vc: int,
    ) -> Plan:
        """Forwarding plan for ``packet`` currently heading a queue at ``router``."""
        here = router.router_id
        dst_router = packet.dst_router
        if dst_router < 0:
            dst_router = self.topology.router_of_node(packet.dst_node)
            packet.dst_router = dst_router
        if dst_router == here:
            eject_key = (packet.dst_node, packet.msg_class)
            ejection = self._ejection_memo.get(eject_key)
            if ejection is None:
                ejection = EjectionRequest(node=packet.dst_node, msg_class=packet.msg_class)
                self._ejection_memo[eject_key] = ejection
            return ejection

        if not packet.route_decided:
            if self._has_injection_hook:
                self.decide_at_injection(router, packet)
            packet.route_decided = True
        if self._has_transit_hook:
            self.maybe_divert_in_transit(router, packet)

        if packet.route_kind == RouteKind.VALIANT and not packet.intermediate_reached:
            if packet.intermediate_router == here:
                # Landed on the intermediate without taking a hop (possible when
                # the intermediate equals the source router's neighbourhood).
                self._enter_second_phase(packet)

        if packet.route_kind == RouteKind.VALIANT and not packet.intermediate_reached:
            detour = self._hop_plan(
                router, packet, packet.intermediate_router, input_type, input_vc,
                is_detour=True,
            )
            if detour and detour[0].opportunistic:
                return detour + self._hop_plan(
                    router, packet, dst_router, input_type, input_vc,
                    is_detour=False, abandons_detour=True,
                )
            return detour

        # Minimal continuation (MIN packets, and Valiant packets past their
        # intermediate — both take the same minimal path from here): the whole
        # plan is a pure function of this key, so memoize it.
        phase_local = packet.phase_local
        phase_global = packet.phase_global
        phase_position = packet.phase_position
        phase_global_taken = packet.phase_global_taken
        if (0 <= phase_local < 16 and 0 <= phase_global < 16
                and 0 <= phase_position < 32
                and 0 <= phase_global_taken < 16 and -1 <= input_vc < 15):
            key = (here * self._key_routers + dst_router) * 2 + packet.msg_class
            key = key * 3 + (0 if input_type is None else input_type + 1)
            key = (key * 16 + input_vc + 1) * 16 + phase_local
            key = ((key * 16 + phase_global) * 32 + phase_position) * 16 \
                + phase_global_taken
        else:  # pragma: no cover - beyond any canonical reference shape
            key = (
                here, dst_router, packet.msg_class, input_type, input_vc,
                phase_local, phase_global, phase_position, phase_global_taken,
            )
        cached = self._plan_memo.get(key)
        if cached is None:
            cached = self._hop_plan(
                router, packet, dst_router, input_type, input_vc, is_detour=False
            )
            if len(self._plan_memo) >= _MEMO_CAP:
                self._plan_memo.clear()
            self._plan_memo[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Candidate construction
    # ------------------------------------------------------------------
    def _hop_plan(
        self,
        router: "Router",
        packet: Packet,
        target_router: int,
        input_type: Optional[LinkType],
        input_vc: int,
        is_detour: bool,
        abandons_detour: bool = False,
    ) -> List[CandidateHop]:
        """Shared one-hop plan for the next minimal hop towards ``target_router``.

        Returns ``[candidate]`` from the per-router intern, or the shared
        empty plan when there is no route or the policy forbids the hop.
        The hop's VC verdict comes from the verdict memo, so the policy
        runs once per distinct hop signature, not once per situation.
        """
        here = router.router_id
        route = self.route
        dst_router = packet.dst_router  # resolved by plan() before this point
        target_col = route.column(target_router)
        out_port = target_col.next_port(here)
        if out_port is None:
            return _NO_HOP
        dst_col = (
            target_col if target_router == dst_router
            else route.column(dst_router)
        )
        next_router = route.neighbor(here, out_port)
        out_type = route.link_type(here, out_port)
        if abandons_detour or packet.route_kind == RouteKind.MINIMAL \
                or packet.intermediate_reached:
            intended = dst_col.hop_sequence(here)
        else:
            intended = (target_col.hop_sequence(here)
                        + dst_col.hop_sequence(target_router))
        escape = dst_col.hop_sequence(next_router)
        msg_class = packet.msg_class
        phase_local = packet.phase_local
        phase_global = packet.phase_global
        phase_position = packet.phase_position
        phase_global_taken = packet.phase_global_taken
        verdict_key = (
            msg_class, out_type, intended, escape, input_type, input_vc,
            phase_local, phase_global, phase_position, phase_global_taken,
        )
        verdict = self._verdict_memo.get(verdict_key)
        if verdict is None:
            vc_range, kind = self.policy.evaluate(HopContext(
                msg_class=msg_class,
                out_type=out_type,
                intended_remaining=intended,
                escape_from_next=escape,
                input_type=input_type,
                input_vc=input_vc,
                phase_offsets=(phase_local, phase_global),
                phase_position=phase_position,
                phase_global_taken=phase_global_taken,
            ))
            verdict = (vc_range, kind == HopKind.OPPORTUNISTIC)
            self._verdict_memo[verdict_key] = verdict
        vc_range, opportunistic = verdict
        if vc_range is None:
            return _NO_HOP
        reaches_intermediate = (
            is_detour and next_router == packet.intermediate_router
        )
        intern_key = (here, out_port, vc_range.lo, vc_range.hi,
                      opportunistic, reaches_intermediate, abandons_detour)
        hop = self._intern_memo.get(intern_key)
        if hop is None:
            candidate = CandidateHop(
                out_port=out_port,
                next_router=next_router,
                out_type=out_type,
                vc_range=vc_range,
                opportunistic=opportunistic,
                reaches_intermediate=reaches_intermediate,
                abandons_detour=abandons_detour,
            )
            candidate.hot = router.resolve_candidate(candidate)
            hop = self._intern_memo[intern_key] = [candidate]
        return hop

    # ------------------------------------------------------------------
    # State updates on grant
    # ------------------------------------------------------------------
    def on_hop_taken(self, packet: Packet, candidate: CandidateHop) -> None:
        """Update the packet's routing/phase state after a granted hop."""
        packet.hops += 1
        packet.phase_position += 1
        if candidate.out_type == LinkType.GLOBAL:
            packet.phase_global_taken += 1
        if candidate.abandons_detour:
            # The packet reverts to its safe minimal continuation.
            packet.intermediate_reached = True
            self._enter_second_phase(packet)
        elif candidate.reaches_intermediate:
            packet.intermediate_reached = True
            self._enter_second_phase(packet)
        # No plan-cache invalidation needed here: the hop's grant popped the
        # packet from its input VC, which cleared the port's head-plan entry.

    def _enter_second_phase(self, packet: Packet) -> None:
        packet.begin_phase((packet.phase_local + self.phase_ref[0],
                            packet.phase_global + self.phase_ref[1]))
        packet.intermediate_reached = True

    # ------------------------------------------------------------------
    # Shared decision utilities (used by VAL / PAR / PB)
    # ------------------------------------------------------------------
    def _pick_intermediate(self, packet: Packet, src_router: int, dst_router: int) -> int:
        """Uniformly random eligible intermediate distinct from source and destination.

        Topologies restrict the pool through
        :meth:`~repro.topology.base.Topology.valiant_routers` (e.g. Megafly
        limits it to node-attached leaf routers); the default pool is every
        router.
        """
        pool = self._valiant_pool
        if pool is None:
            n = self.topology.num_routers
            if n <= 2:
                return dst_router
            while True:
                candidate = self.rng.randrange(n)
                if candidate != src_router and candidate != dst_router:
                    return candidate
        m = len(pool)
        if m <= 1:
            return dst_router
        for _ in range(4 * m):
            candidate = pool[self.rng.randrange(m)]
            if candidate != src_router and candidate != dst_router:
                return candidate
        return dst_router  # pragma: no cover - degenerate pools only

    def _local_queue_metric(self, router: "Router", target_router: int) -> int:
        """Credit occupancy of the output port on the minimal path to ``target_router``."""
        out_port = self.route.column(target_router).next_port(router.router_id)
        if out_port is None:
            return 0
        minimal_only = self.config.pb_min_credits_only
        per_vc = self.config.pb_sensing == "vc"
        tracker = router.output_ports[out_port].credits
        return tracker.occupancy_metric(per_vc, 0, minimal_only)
