"""Piggyback (PB) source-adaptive routing with remote congestion sensing.

PB (Jiang, Kim & Dally, ISCA 2009) is the source-adaptive mechanism evaluated
in Section V-C.  Every router measures the credit occupancy of its global
ports and piggybacks it to the other routers of its group (the topology's
LOCAL-connected router set — a Dragonfly group, a HyperX dimension-0 row, a
Megafly leaf/spine group) through a shared
:class:`~repro.router.saturation.SaturationBoard`.  A port is *saturated*
when its occupancy exceeds the average over all global ports of the group
by ``pb_saturation_factor`` (50% by default; ``SaturationBoard.is_saturated``).
A router posts a port's occupancy whenever a credit debit or return changes
it, so the board always holds current values.  At injection, the source
router combines the saturation bit of the first global link on the minimal
path with a local UGAL-style credit comparison to decide between the minimal
path and a Valiant detour.

The first-global-link lookup reads the precomputed
:class:`~repro.routing.route_table.RouteTable`; the bit is only available
when that link is owned by a router of the source's own group (always true in
a Dragonfly, where it is the classic "gateway router"), so no code here
depends on the concrete topology.

Sensing variants (Figure 8):

* **per-port** — the saturation metric is the total occupancy of all VCs of
  the global port;
* **per-VC** — only the first VC of the port (the VC minimal traffic uses
  under distance-based management; with request-reply traffic, the first VC
  of each sub-path) is considered;
* **minCred** (``pb_min_credits_only``) — FlexVC-minCred: only credits held by
  minimally-routed packets are counted, restoring the pattern-identification
  ability that FlexVC's buffer sharing blurs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.link_types import LinkType, MessageClass
from ..packet import Packet
from .base import RoutingAlgorithm

if TYPE_CHECKING:  # pragma: no cover
    from ..router.router import Router


class PiggybackRouting(RoutingAlgorithm):
    """UGAL-style source-adaptive routing driven by piggybacked saturation bits."""

    name = "pb"

    # -- sensing helpers -------------------------------------------------------
    def sensing_vc(self, msg_class: MessageClass) -> int:
        """First VC of the message class's sub-path (per-VC sensing)."""
        if msg_class == MessageClass.REPLY and self.arrangement.is_reactive:
            return self.arrangement.request_global if self.arrangement.request_global > 0 else 0
        return 0

    def _queue_metric(self, router: "Router", target_router: int,
                      msg_class: MessageClass) -> int:
        out_port = self.route.column(target_router).next_port(router.router_id)
        if out_port is None:
            return 0
        tracker = router.output_ports[out_port].credits
        per_vc = self.config.pb_sensing == "vc"
        vc = min(self.sensing_vc(msg_class), tracker.num_vcs - 1)
        return tracker.occupancy_metric(per_vc, vc, self.config.pb_min_credits_only)

    def _min_global_saturated(self, router: "Router", packet: Packet,
                              dst_col) -> bool:
        """Saturation bit of the first global link on the packet's minimal path."""
        board = router.saturation_board
        if board is None:
            return False
        link = dst_col.first_global_link(router.router_id)
        if link is None:
            return False  # all-local path: no global link to protect
        owner, gport = link
        topo = self.topology
        src_group, _ = topo.group_slot(router.router_id)
        owner_group, owner_position = topo.group_slot(owner)
        if owner_group != src_group:
            # The minimal path enters its first global link outside the
            # source's group: no piggybacked information is available.
            return False
        class_index = 1 if (packet.msg_class == MessageClass.REPLY
                            and self.arrangement.is_reactive
                            and self.config.pb_sensing == "vc") else 0
        return board.is_saturated(owner_position, gport, class_index)

    # -- injection decision ---------------------------------------------------------
    def decide_at_injection(self, router: "Router", packet: Packet) -> None:
        src_router = router.router_id
        dst_router = self.topology.router_of_node(packet.dst_node)
        if dst_router == src_router:
            return
        # One destination-column view serves the sequence test and the
        # first-global-link sensing below (a single lazy column fill).
        dst_col = self.route.column(dst_router)
        seq = dst_col.hop_sequence(src_router)
        if LinkType.GLOBAL not in seq:
            # Intra-group traffic: always minimal (no global link to protect).
            return
        intermediate = self._pick_intermediate(packet, src_router, dst_router)
        saturated = self._min_global_saturated(router, packet, dst_col)
        q_min = self._queue_metric(router, dst_router, packet.msg_class)
        q_nonmin = self._queue_metric(router, intermediate, packet.msg_class)
        threshold = self.config.pb_threshold * packet.size_phits
        if saturated or q_min > 2 * q_nonmin + threshold:
            packet.mark_valiant(intermediate)
