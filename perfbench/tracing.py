"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps calls into each layer's public entry points from here, in
the benchmark's own files; nothing in ``src/`` changes.  :func:`install`
must run before the first :class:`~repro.simulation.Simulation` is built,
because routers bind their callees (pumps, receivers, credit sinks, routing
plans) into closures at construction time.

For every layer the tracer keeps a call count, total time and self time
(total minus the time of traced callees, tracked with a stack of child-time
accumulators).  Full spans — name, start, end, process — are kept only for
coarse boundaries: simulation phases, sweep chunks and store flushes.

Sweep workers are forked from the traced process, so they inherit the
instrumentation.  Each worker writes its cumulative numbers to
``<dump_dir>/trace-<pid>.json`` after every chunk; :func:`merge_dumps`
folds them into the parent's view.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Tuple

_clock = time.perf_counter


class Tracer:
    """Call counts, total and self time per layer, plus coarse spans."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: layer -> [calls, total_s, child_s]
        self.stats: Dict[str, List[float]] = {}
        #: simulation-state counters read at the end of each session.
        self.counters: Dict[str, int] = {}
        #: coarse spans: (name, start, end, pid).
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[float] = [0.0]
        #: directory sweep workers dump their numbers into (None = no dumps).
        self.dump_dir: "str | None" = None

    def adopt_fork(self) -> None:
        """Start from zero in a forked worker (drop the parent's numbers)."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.stats = {}
            self.counters = {}
            self.spans = []

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def timed(self, layer: str, fn: Callable, span: bool = False) -> Callable:
        """Wrap ``fn`` so each call adds to ``layer``'s count and times."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            stack.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                elapsed = end - start
                child = stack.pop()
                stack[-1] += elapsed
                stat = tracer.stats.get(layer)
                if stat is None:
                    stat = tracer.stats[layer] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += child
                if span:
                    tracer.spans.append((layer, start, end, tracer.pid))

        return wrapper

    def export(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "stats": self.stats,
            "counters": self.counters,
            "spans": self.spans,
        }

    def dump(self) -> None:
        if self.dump_dir is None:
            return
        path = os.path.join(self.dump_dir, f"trace-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)
        os.replace(tmp, path)


def merge_dumps(into: Dict[str, Any], dump_dir: str, skip_pid: int) -> None:
    """Add every worker dump in ``dump_dir`` to ``into``.

    ``skip_pid``'s own dump is skipped: a pool that fell back to serial
    execution ran its chunks in-process, and ``into`` already holds them.
    """
    for name in sorted(os.listdir(dump_dir)):
        if not (name.startswith("trace-") and name.endswith(".json")):
            continue
        with open(os.path.join(dump_dir, name), encoding="utf-8") as handle:
            dump = json.load(handle)
        if dump["pid"] == skip_pid:
            continue
        for layer, (calls, total, child) in dump["stats"].items():
            stat = into["stats"].setdefault(layer, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += child
        for key, value in dump["counters"].items():
            into["counters"][key] = into["counters"].get(key, 0) + value
        into["spans"].extend(dump["spans"])


def _wrap_methods(tracer: Tracer, cls: type, layer: str, names: Tuple[str, ...],
                  span: bool = False) -> None:
    for name in names:
        setattr(cls, name, tracer.timed(layer, cls.__dict__[name], span=span))


def install(tracer: Tracer) -> None:
    """Instrument every traced layer boundary (call once per process)."""
    from repro import simulation as simulation_module
    from repro.config import NetworkConfig
    from repro.core.mincred import PortOccupancyLedger
    from repro.engine import Engine
    from repro.experiments import orchestrator
    from repro.link import CreditChannel, Link
    from repro.metrics import MetricsCollector
    from repro.router.credits import CreditTracker
    from repro.router.router import Router
    from repro.router.saturation import SaturationBoard
    from repro.session import Session
    from repro.store.base import ResultStore
    from repro.store.journal import JournalStore
    from repro.traffic.reactive import TrafficManager

    timed = tracer.timed

    # -- construction: topology, route table, wiring -----------------------
    _wrap_methods(tracer, NetworkConfig, "topology.build", ("build", "build_cached"))
    simulation_module.make_route_table = timed(
        "routing.route_table", simulation_module.make_route_table
    )
    Simulation = simulation_module.Simulation
    Simulation.__init__ = timed("simulation.init", Simulation.__init__, span=True)

    make_routing = simulation_module.make_routing

    def traced_make_routing(*args: Any, **kwargs: Any) -> Any:
        routing = make_routing(*args, **kwargs)
        routing.plan = timed("routing.plan", routing.plan)
        # The hooks are only called when the algorithm overrides them (the
        # routing base class decides that from the type, not the instance).
        routing.decide_at_injection = timed(
            "routing.decide", routing.decide_at_injection
        )
        routing.maybe_divert_in_transit = timed(
            "routing.decide", routing.maybe_divert_in_transit
        )
        return routing

    simulation_module.make_routing = traced_make_routing

    make_policy = simulation_module.make_policy

    def traced_make_policy(*args: Any, **kwargs: Any) -> Any:
        policy = make_policy(*args, **kwargs)
        # evaluate() runs once per candidate build, i.e. per plan-memo miss.
        policy.evaluate = timed("core.vc_policy", policy.evaluate)
        return policy

    simulation_module.make_policy = traced_make_policy

    # -- router: pumps, arrivals, credit returns ----------------------------
    register_router = Engine.register_router

    def traced_register_router(self: Engine, router: Any) -> None:
        router.pump = timed("router.pump", router.pump)
        register_router(self, router)

    Engine.register_router = traced_register_router

    make_receiver = Router.make_network_receiver

    def traced_make_receiver(self: Router, port: int) -> Callable:
        return timed("router.receive", make_receiver(self, port))

    Router.make_network_receiver = traced_make_receiver

    make_sink = Router.make_credit_sink

    def traced_make_sink(self: Router, port: int) -> Callable:
        return timed("router.credit_sink", make_sink(self, port))

    Router.make_credit_sink = traced_make_sink

    _wrap_methods(tracer, SaturationBoard, "router.saturation", ("post", "is_saturated"))
    _wrap_methods(tracer, CreditTracker, "router.credits",
                  ("can_send", "free_for", "debit", "credit", "occupancy_metric"))
    _wrap_methods(tracer, PortOccupancyLedger, "core.mincred",
                  ("add", "remove", "port_occupancy", "vc_occupancy"))

    # -- links, engine, traffic, metrics -----------------------------------
    _wrap_methods(tracer, Link, "link.transmit", ("transmit",))
    _wrap_methods(tracer, CreditChannel, "link.credit", ("send_credit",))
    _wrap_methods(tracer, Engine, "engine", ("run_until",))
    _wrap_methods(tracer, TrafficManager, "traffic.tick", ("tick",))
    _wrap_methods(tracer, TrafficManager, "traffic.on_delivery", ("on_delivery",))
    _wrap_methods(tracer, MetricsCollector, "metrics",
                  ("record_generation", "record_delivery", "close_window"))

    # -- session phases (coarse spans) and end-of-run counters -------------
    _wrap_methods(tracer, Session, "session.warmup", ("warmup",), span=True)
    _wrap_methods(tracer, Session, "session.measure", ("measure",), span=True)
    record = Session.record

    def traced_record(self: Session) -> Any:
        sim = self.sim
        engine = sim.engine
        tracer.count("engine.events", engine.events_processed)
        tracer.count("engine.cycles", engine.now)
        tracer.count("engine.idle_cycles_skipped", engine.idle_cycles_skipped)
        tracer.count("router.ejections", sum(r.packets_delivered for r in sim.routers))
        tracer.count("traffic.packets_generated", sim.metrics.packets_generated)
        tracer.count("route_table.bytes", sim.route_table.route_state_bytes())
        tracer.count("sessions", 1)
        return record(self)

    Session.record = traced_record

    # -- store and sweep chunks --------------------------------------------
    _wrap_methods(tracer, ResultStore, "store.put", ("put_record",))
    _wrap_methods(tracer, JournalStore, "store.flush", ("flush",), span=True)
    _wrap_methods(tracer, JournalStore, "store.refresh", ("refresh_from_disk",))

    execute_chunk = timed("orchestrator.chunk", orchestrator._execute_chunk, span=True)

    @functools.wraps(execute_chunk)
    def traced_execute_chunk(jobs: Any) -> Any:
        tracer.adopt_fork()
        try:
            return execute_chunk(jobs)
        finally:
            tracer.dump()

    # Pool tasks pickle the chunk function by its qualified name, so the
    # wrapper must replace the module attribute (functools.wraps keeps the
    # name), and forked workers resolve it to the same wrapper.
    orchestrator._execute_chunk = traced_execute_chunk
