"""Per-layer timing by wrapping the program's public entry points.

Wrappers replace attributes on the program's own classes and modules for
the life of one traced process; nothing is subclassed.  The fleet kernel
keeps a core resident only while ``type(core) is SimulatedCore`` (or its
hooks are the base class's), so a wrapper installed *on* the class keeps
every core resident, where a subclass would evict it.

Each wrapper is a frame on one stack.  A frame's self time is its
duration minus the durations of the frames opened inside it.  The driver
loop (``Simulation.run_until``) is the root frame, so the self times of
all frames add up to the traced wall time.
"""

from __future__ import annotations

import functools
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

_DIGITS = re.compile(r"\d+")


def _own_attr(owner, attr: str):
    """A class's own attribute (never an inherited one), or a module's."""
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations_s: list[float] = field(default_factory=list)
    #: Free-form per-layer tallies (procs per call, deliveries, ...).
    tally: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Owns the frame stack and the per-layer statistics of one process."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[float] = []      # child time of each open frame
        self._undo: list[Callable[[], None]] = []

    # -- frames ---------------------------------------------------------------

    def _close(self, stat: LayerStat, t0: float, keep: bool) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        stat.calls += 1
        stat.total_s += dt
        stat.self_s += dt - child
        if keep:
            stat.durations_s.append(dt)
        if self._stack:
            self._stack[-1] += dt

    def stat(self, name: str) -> LayerStat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStat()
        return st

    def wrap(self, name: str, fn: Callable, *, keep: bool = False,
             observe: Callable[[LayerStat, tuple, object], None] | None = None
             ) -> Callable:
        """``fn`` timed as layer ``name``; ``keep`` records every duration,
        ``observe(stat, args, result)`` tallies per call."""
        stat = self.stat(name)
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, t0, keep)
            if observe is not None:
                observe(stat, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def replace(self, owner, attr: str, new: Callable) -> None:
        """Set ``owner.attr = new`` until :meth:`uninstall`."""
        original = _own_attr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Wrap a method defined on class ``owner`` itself (subclasses that
        inherit it see the wrapper too), or a module-level function that
        callers look up by name at call time."""
        self.replace(owner, attr,
                     self.wrap(name, _own_attr(owner, attr), **kw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- event dispatch -------------------------------------------------------

    def traced_run_due(self) -> Callable:
        """``EventQueue.run_due`` with each callback as a frame named by
        its event kind: ``Event.name`` (digits folded to ``*``), else the
        callback's ``__qualname__``."""
        kinds: dict[tuple, LayerStat] = {}
        stack = self._stack
        close = self._close

        def stat_for(event) -> LayerStat:
            cb = event.callback
            key = (event.name, getattr(cb, "__func__", cb))
            st = kinds.get(key)
            if st is None:
                if event.name:
                    kind = _DIGITS.sub("*", event.name)
                else:
                    # An unnamed periodic task: label its inner callback.
                    inner = getattr(getattr(cb, "__self__", None),
                                    "_callback", cb)
                    kind = getattr(inner, "__qualname__", type(inner).__name__)
                st = kinds[key] = self.stat(f"sim.driver.events.{kind}")
            return st

        def run_due(queue, now_s: float) -> int:
            fired = 0
            while True:
                event = queue.pop_due(now_s)
                if event is None:
                    return fired
                st = stat_for(event)
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    event.callback(event.time_s)
                finally:
                    close(st, t0, False)
                fired += 1

        return run_due


def _count_spans(stat: LayerStat, args: tuple, result) -> None:
    # Simulation._advance_machines(self, dt): zero-length spans are no-ops.
    if args[1] > 0.0:
        stat.tally["spans"] = stat.tally.get("spans", 0) + 1


def _count_procs(stat: LayerStat, args: tuple, result) -> None:
    stat.tally["procs"] = stat.tally.get("procs", 0) + len(args[1])


def _count_delivered(stat: LayerStat, args: tuple, result) -> None:
    if result is not None:
        stat.tally["delivered"] = stat.tally.get("delivered", 0) + 1


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports."""
    from repro.cluster import hierarchy
    from repro.cluster.agent import NodeAgent
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.nested import NestedBudgetScheduler
    from repro.core.predictor import CounterPredictor
    from repro.core.scheduler import FrequencyVoltageScheduler
    from repro.model import latency_model
    from repro.power.supply import SupplyBank
    from repro.sim.core import SimulatedCore
    from repro.sim.counters import CounterReader
    from repro.sim.driver import Simulation
    from repro.sim.events import EventQueue
    from repro.sim.fleet import FleetState
    from repro.sim.network import Network
    from repro.workloads.serving import FleetTrafficSource

    timed = {"keep": True}
    tracer.replace(EventQueue, "run_due", tracer.traced_run_due())
    for owner, attr, name, kw in (
        (Simulation, "run_until", "sim.driver.loop", {}),
        (Simulation, "_advance_machines", "sim.driver.span",
         {"observe": _count_spans}),
        (FleetState, "advance", "sim.fleet.advance", {}),
        (FleetState, "prepare", "sim.fleet.prepare", {}),
        (SimulatedCore, "advance", "sim.core.advance", {}),
        (CounterReader, "sample", "sim.counters.sample", {}),
        (SupplyBank, "plan_constant_span", "power.supply.plan_constant_span",
         {}),
        (FrequencyVoltageScheduler, "schedule", "core.scheduler.schedule",
         {**timed, "observe": _count_procs}),
        (NestedBudgetScheduler, "schedule_nested", "core.scheduler.schedule",
         {**timed, "observe": _count_procs}),
        (CounterPredictor, "signature_from_sample",
         "core.predictor.signatures", {}),
        (CounterPredictor, "signatures_from_arrays",
         "core.predictor.signatures", {}),
        (ClusterCoordinator, "run_global_pass",
         "cluster.coordinator.global_pass", timed),
        (NodeAgent, "make_report", "cluster.agent.make_report", {}),
        (NodeAgent, "apply_command", "cluster.agent.apply_command", {}),
        (Network, "try_send", "sim.network.try_send",
         {"observe": _count_delivered}),
        (hierarchy.FleetAllocator, "run_rebalance",
         "cluster.hierarchy.run_rebalance", timed),
        (hierarchy.ShardCoordinator, "apply_lease",
         "cluster.hierarchy.apply_lease", {}),
        (hierarchy.ShardCoordinator, "make_summary",
         "cluster.hierarchy.make_summary", {}),
        (hierarchy, "water_fill_budgets", "cluster.hierarchy.water_fill", {}),
        (FleetTrafficSource, "node_demands",
         "workloads.serving.node_demands", {}),
        (latency_model, "frequency_floor_hz",
         "model.latency_model.frequency_floor_hz", {}),
    ):
        tracer.patch(owner, attr, name, **kw)


def _ms_quantiles(durations_s: list[float]) -> tuple[float, float]:
    if len(durations_s) < 2:
        v = durations_s[0] * 1e3 if durations_s else 0.0
        return v, v
    q = statistics.quantiles(durations_s, n=100, method="inclusive")
    return q[49] * 1e3, q[98] * 1e3


#: Layers whose calls/self_s the report always lists (zero when a
#: workload never enters them).
LAYERS = (
    "sim.fleet.advance", "sim.fleet.prepare", "sim.core.advance",
    "sim.counters.sample", "power.supply.plan_constant_span",
    "core.scheduler.schedule", "core.predictor.signatures",
    "cluster.coordinator.global_pass", "cluster.agent.make_report",
    "cluster.agent.apply_command", "sim.network.try_send",
    "cluster.hierarchy.run_rebalance", "cluster.hierarchy.apply_lease",
    "cluster.hierarchy.make_summary", "cluster.hierarchy.water_fill",
    "workloads.serving.node_demands",
    "model.latency_model.frequency_floor_hz",
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Flatten the tracer's statistics into ``name -> (value, unit)``."""
    out: dict[str, tuple[float, str]] = {}
    stats = tracer.stats
    for name in LAYERS:
        st = stats.get(name, LayerStat())
        out[f"{name}.calls"] = (float(st.calls), "count")
        out[f"{name}.self_s"] = (st.self_s, "s")
    for name in ("core.scheduler.schedule", "cluster.coordinator.global_pass",
                 "cluster.hierarchy.run_rebalance"):
        st = stats.get(name, LayerStat())
        p50, p99 = _ms_quantiles(st.durations_s)
        out[f"{name}.p50_ms"] = (p50, "ms")
        if name != "cluster.hierarchy.run_rebalance":
            out[f"{name}.p99_ms"] = (p99, "ms")
    sched = stats.get("core.scheduler.schedule", LayerStat())
    out["core.scheduler.schedule.procs_per_call"] = (
        sched.tally.get("procs", 0) / sched.calls if sched.calls else 0.0,
        "procs")
    net = stats.get("sim.network.try_send", LayerStat())
    out["sim.network.try_send.delivered_ratio"] = (
        net.tally.get("delivered", 0) / net.calls if net.calls else 0.0,
        "ratio")

    events = sorted(n for n in stats if n.startswith("sim.driver.events."))
    for name in events:
        out[f"{name}.calls"] = (float(stats[name].calls), "count")
        out[f"{name}.self_s"] = (stats[name].self_s, "s")
    out["sim.driver.events.calls"] = (
        float(sum(stats[n].calls for n in events)), "count")
    out["sim.driver.events.self_s"] = (
        sum(stats[n].self_s for n in events), "s")

    span = stats.get("sim.driver.span", LayerStat())
    spans = span.tally.get("spans", 0)
    out["sim.driver.spans"] = (float(spans), "count")
    out["sim.driver.wall_per_span_us"] = (
        span.total_s / spans * 1e6 if spans else 0.0, "us")
    out["sim.driver.span.self_s"] = (span.self_s, "s")
    loop = stats.get("sim.driver.loop", LayerStat())
    out["sim.driver.loop.self_s"] = (loop.self_s, "s")
    return out
