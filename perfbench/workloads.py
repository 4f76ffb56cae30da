"""The three benchmark workloads: build from a seed, run, score.

Each ``build_*`` function returns a :class:`Workload`: the simulation,
its fixed simulated horizon, and a ``finish`` callable that reads the
program's outputs after the run and returns the modelled metrics, the
correctness invariants and the fingerprint parts.  Nothing here is
timed; the worker times ``sim.run_until(horizon_s)`` around it.

Imports of ``repro`` happen inside those functions so the worker can time
the import itself as part of set-up.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: The PSU cascade deadline the p630 failover must beat (Section 2).
DELTA_T_MS = 1000.0


@dataclass
class Outcome:
    """What one finished run reports besides host timings."""

    #: Deterministic (simulated) metrics: name -> (value, unit).
    modelled: dict[str, tuple[float, str]]
    #: Correctness invariants: name -> (holds, detail).
    invariants: dict[str, tuple[bool, str]]
    attempted: int
    failed: int
    fingerprint: str


@dataclass
class Workload:
    name: str
    sim: object
    horizon_s: float
    finish: Callable[[], Outcome]
    #: Extra shape facts echoed in the report.
    shape: dict = field(default_factory=dict)


class _Hasher:
    """sha256 over float64/int64 columns, order-sensitive."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def floats(self, values) -> None:
        self._h.update(np.asarray(values, dtype=np.float64).tobytes())

    def text(self, value: str) -> None:
        self._h.update(value.encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def _hash_machines(h: _Hasher, machines) -> None:
    """Per-core counter totals and every ledger account's energy."""
    for m in machines:
        for core in m.cores:
            h.floats(core.counters.snapshot().as_tuple())
        for name in sorted(m.ledger.accounts):
            h.text(name)
            h.floats([m.ledger.energy_of(name)])


def _hash_schedule_log(h: _Hasher, log) -> None:
    """The simulated content of a schedule log (host wall costs excluded)."""
    entries = log.schedule_entries
    h.floats([(e.time_s, e.node_id, e.proc_id, e.freq_hz, e.power_w,
               float(e.infeasible)) for e in entries])


def _cpu_totals(machines, horizon_s: float) -> dict[str, tuple[float, str]]:
    """``sim_gips`` and ``energy_kj`` over the whole system."""
    instructions = 0.0
    energy_j = 0.0
    for m in machines:
        for core in m.cores:
            instructions += core.counters.snapshot().instructions
            energy_j += m.ledger.energy_of(f"core{core.core_id}")
    return {"sim_gips": (instructions / horizon_s / 1e9, "Ginstr/s"),
            "energy_kj": (energy_j / 1e3, "kJ")}


def _pass_times(log, *, infeasible_only: bool = False) -> set[float]:
    return {e.time_s for e in log.schedule_entries
            if e.infeasible or not infeasible_only}


# -- p630-failover ------------------------------------------------------------


P630_HORIZON_S = 60.0
P630_FAIL_AT_S = 3.0      # within every 10 s period
P630_RESTORE_AT_S = 8.0


def build_p630_failover(seed: int) -> Workload:
    """One banked 4-way p630 under the default daemon, PSU 0 failing at
    3 s and restored at 8 s of every 10 s (the failover experiment's
    scenario, repeated)."""
    from repro.core.daemon import DaemonConfig, FvsstDaemon
    from repro.power.budget import ComplianceMonitor, PowerBudget
    from repro.power.supply import SupplyBank
    from repro.sim.driver import Simulation
    from repro.sim.machine import MachineConfig, SMPMachine
    from repro.workloads.profiles import ALL_PROFILES

    bank = SupplyBank.example_p630(raise_on_cascade=False)
    machine = SMPMachine(MachineConfig(num_cores=4), supply_bank=bank,
                         seed=seed)
    for i, app in enumerate(("gzip", "gap", "mcf", "health")):
        machine.assign(i, ALL_PROFILES[app].job(loop=True))
    non_cpu_w = machine.config.non_cpu_power_w

    sim = Simulation(machine)
    monitor = ComplianceMonitor(PowerBudget(limit_w=bank.capacity_w))
    # Default t = 10 ms / T = 100 ms; the daemon knows the supply's CPU
    # limit from the start, so every pass plans against the limit in force.
    daemon = FvsstDaemon(
        machine, DaemonConfig(power_limit_w=bank.capacity_w - non_cpu_w),
        seed=seed + 1)
    daemon.attach(sim)
    sim.every(0.010, lambda t: monitor.observe(t, machine.system_power_w()),
              name="compliance-sampler")
    failures: list[float] = []

    def set_capacity(t: float, capacity_w: float) -> None:
        monitor.set_budget(PowerBudget(limit_w=capacity_w), t)
        daemon.set_power_limit(capacity_w - non_cpu_w, t)

    def on_failure(t: float) -> None:
        if bank.all_failed:
            return      # a cascade already darkened the machine
        failures.append(t)
        set_capacity(t, bank.fail_supply(0, now_s=t))

    def on_restore(t: float) -> None:
        set_capacity(t, bank.restore_supply(0, now_s=t))

    periods = np.arange(0.0, P630_HORIZON_S, 10.0)
    for base in periods:
        sim.at(float(base) + P630_FAIL_AT_S, on_failure, name="psu-failure")
        sim.at(float(base) + P630_RESTORE_AT_S, on_restore,
               name="psu-restore")

    def finish() -> Outcome:
        # Worst failure-to-first-compliant-sample time over all failures.
        responses = []
        for t0 in failures:
            first = next((r.time_s for r in monitor.records
                          if r.time_s >= t0 and r.compliant), math.inf)
            responses.append((first - t0) * 1e3)
        response_ms = max(responses) if responses else math.inf
        # Planned CPU power of every daemon pass (one log entry per core)
        # vs the supply's CPU limit in force when it ran, which the daemon
        # logs with each entry.
        entries = daemon.log.schedule_entries
        n = machine.num_cores
        over: list[float] = []
        infeasible = 0
        for start in range(0, len(entries), n):
            rows = entries[start:start + n]
            over.append(max(0.0, sum(e.power_w for e in rows)
                            - rows[0].power_limit_w))
            infeasible += any(e.infeasible for e in rows)
        overcommit = max(over) if over else 0.0
        failed = sum(1 for o in over if o > 0.0)
        modelled = _cpu_totals([machine], P630_HORIZON_S)
        modelled.update({
            "failover_response_ms": (response_ms, "ms"),
            "overcommit_w": (overcommit, "W"),
            "infeasible_passes": (float(infeasible), "count"),
        })
        h = _Hasher()
        _hash_machines(h, [machine])
        _hash_schedule_log(h, daemon.log)
        h.floats([r.power_w for r in monitor.records])
        invariants = {
            "zero_cascades": (bank.cascade_count == 0,
                              f"cascades={bank.cascade_count}"),
            "failover_within_deadline": (
                len(failures) == len(periods) and response_ms < DELTA_T_MS,
                f"failures={len(failures)} worst={response_ms:.3f} ms "
                f"< {DELTA_T_MS:.0f} ms"),
            "no_overcommit": (overcommit == 0.0,
                              f"overcommit_w={overcommit:.3f}"),
        }
        return Outcome(modelled, invariants, attempted=len(over),
                       failed=failed, fingerprint=h.hexdigest())

    return Workload("p630-failover", sim, P630_HORIZON_S, finish,
                    shape={"machines": 1, "cores": 4,
                           "supply_w": bank.capacity_w})


# -- serving-flash ------------------------------------------------------------


SERVING_NODES = 8
SERVING_PROCS = 4
SERVING_HORIZON_S = 2.0
#: Arrivals stop here; the crowd has decayed by 1.75 s and the last
#: requests drain before the horizon, so no request is left unfinished.
SERVING_ARRIVALS_END_S = 1.875
SERVING_SLO_P99_S = 0.020
SERVING_BUDGET_FRACTION = 0.5
SERVING_BASE_RHO = 0.1
SERVING_PEAK_RHO = 0.5


def build_serving_flash(seed: int) -> Workload:
    """8x4-core nodes under a flat SLO-mode coordinator at half of peak
    processor power, serving an open-loop Poisson flash crowd."""
    from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
    from repro.model.latency import POWER4_LATENCIES
    from repro.model.latency_model import service_time_s
    from repro.sim.cluster import Cluster
    from repro.sim.driver import Simulation
    from repro.sim.machine import MachineConfig
    from repro.workloads.server import RequestSpec
    from repro.workloads.serving import FleetTrafficSource, flash_crowd_rate

    cluster = Cluster.homogeneous(
        SERVING_NODES, machine_config=MachineConfig(num_cores=SERVING_PROCS),
        seed=seed)
    table = cluster.nodes[0].machine.table
    cores = SERVING_NODES * SERVING_PROCS
    budget = SERVING_BUDGET_FRACTION * cores * table.max_power_w
    spec = RequestSpec()
    service = service_time_s(spec.signature(POWER4_LATENCIES),
                             spec.instructions, table.f_max_hz)
    peak = SERVING_PEAK_RHO / service * cores
    base = SERVING_BASE_RHO / service * cores
    rate = flash_crowd_rate(base, peak, t_start_s=0.25, ramp_s=0.375,
                            hold_s=0.875, decay_s=0.25)
    horizon = SERVING_HORIZON_S

    sim = Simulation(cluster.machines)
    traffic = FleetTrafficSource(cluster, rate_per_s=rate,
                                 max_rate_per_s=peak, spec=spec,
                                 horizon_s=SERVING_ARRIVALS_END_S,
                                 seed=seed + 7)
    coordinator = ClusterCoordinator(
        cluster, CoordinatorConfig(power_limit_w=budget,
                                   slo_p99_target_s=SERVING_SLO_P99_S),
        seed=seed + 1)
    coordinator.bind_serving(traffic)
    coordinator.attach(sim)
    traffic.attach(sim)

    def finish() -> Outcome:
        h = _Hasher()
        _hash_machines(h, cluster.machines)
        _hash_schedule_log(h, coordinator.log)
        # Completion stamps of every request still held, then the exact
        # latency sums of everything harvested into the digests.
        for source in traffic.sources:
            h.floats([(r.arrival_s, r.job.completed_at_s
                       if r.completed else -1.0) for r in source.records])
        issued = traffic.issued
        in_flight = traffic.in_flight
        completed = traffic.completed          # harvests
        for source in traffic.sources:
            d = source.digest
            h.floats(d.counts + [d.sum_s, d.max_s])
        censored = traffic.fleet_digest(censored=True, horizon_s=horizon)
        raw = traffic.fleet_digest()
        # Compliance over issued requests: in-flight requests enter the
        # censored digest at their lower bound; nothing is refused or shed
        # by this source, so issued == completed + in flight.
        compliance = (censored.fraction_below(SERVING_SLO_P99_S)
                      if censored.count else 0.0)
        modelled = _cpu_totals(cluster.machines, horizon)
        modelled.update({
            "slo_compliance": (compliance, "fraction"),
            "infeasible_passes": (float(coordinator.slo_infeasible_passes),
                                  "count"),
            "req_p50_ms": (raw.percentile(50.0) * 1e3, "ms"),
            "req_p99_ms": (censored.percentile(99.0) * 1e3, "ms"),
        })
        invariants = {
            "requests_conserved": (
                issued == completed + in_flight and censored.count == issued,
                f"issued={issued} completed={completed} "
                f"in_flight={in_flight} digest={censored.count}"),
            "zero_floor_violations": (
                coordinator.slo_floor_violations == 0,
                f"floor_violations={coordinator.slo_floor_violations}"),
        }
        return Outcome(modelled, invariants, attempted=issued,
                       failed=in_flight, fingerprint=h.hexdigest())

    return Workload("serving-flash", sim, horizon, finish,
                    shape={"nodes": SERVING_NODES, "cores": cores,
                           "budget_w": budget, "peak_rate_per_s": peak})


# -- fleet-chaos --------------------------------------------------------------


CHAOS_NODES = 1024
CHAOS_SHARD = 4
CHAOS_HORIZON_S = 1.5
CHAOS_BUDGET_FRACTION = 0.7
#: The chaos scenario's fault windows end by 0.9 s (``fleet_fault_scenario``).
CHAOS_HEAL_S = 0.9
#: Float-summation slack on committed watts (the chaos smoke's tolerance).
CHAOS_COMMIT_TOL_W = 1e-6


def build_fleet_chaos(seed: int) -> Workload:
    """1024 single-core nodes, 256 shards of 4, tiered LOOP jobs, a 70%
    fleet budget and the ``chaos`` fleet fault scenario."""
    from repro.cluster.coordinator import CoordinatorConfig
    from repro.cluster.faults import fleet_fault_scenario
    from repro.cluster.hierarchy import FleetAllocator, FleetConfig
    from repro.sim.cluster import Cluster
    from repro.sim.core import CoreConfig
    from repro.sim.driver import Simulation
    from repro.sim.machine import MachineConfig
    from repro.workloads.tiers import tiered_cluster_assignment

    nodes = CHAOS_NODES
    cluster = Cluster.homogeneous(
        nodes, machine_config=MachineConfig(
            num_cores=1, core_config=CoreConfig(latency_jitter_sigma=0.0)),
        seed=seed)
    cluster.assign_all(tiered_cluster_assignment(
        nodes, 1, web_nodes=nodes // 4, app_nodes=nodes // 4))
    table = cluster.nodes[0].machine.table
    budget = CHAOS_BUDGET_FRACTION * nodes * table.max_power_w
    faults = fleet_fault_scenario("chaos", num_nodes=nodes,
                                  shard_size=CHAOS_SHARD, seed=seed + 101)
    allocator = FleetAllocator(
        cluster,
        CoordinatorConfig(power_limit_w=budget, counter_noise_sigma=0.0,
                          sample_period_s=0.1, schedule_period_s=0.2),
        fleet=FleetConfig(shard_size=CHAOS_SHARD, rebalance_period_s=0.2,
                          staleness_bound_s=0.3),
        faults=faults, seed=seed + 1)
    sim = Simulation(cluster.machines)
    allocator.attach(sim)

    # Observe each rebalance round: the fleet's true CPU draw when it
    # starts and the watts committed when it ends.  The wrapper sits on
    # this instance only (the periodic tick calls self.run_rebalance), so
    # the program's classes and event stream are untouched.
    rounds: list[float] = []
    draws: list[tuple[float, float]] = []
    run_rebalance = allocator.run_rebalance

    def observed_rebalance(now_s: float) -> None:
        draws.append((now_s, cluster.cpu_power_w()))
        run_rebalance(now_s)
        rounds.append(sum(allocator.committed_w))

    allocator.run_rebalance = observed_rebalance

    def finish() -> Outcome:
        h = _Hasher()
        _hash_machines(h, cluster.machines)
        late = []
        infeasible = 0
        for shard in allocator.shards:
            _hash_schedule_log(h, shard.log)
            times = _pass_times(shard.log)
            if not times or max(times) <= CHAOS_HEAL_S:
                late.append(shard.shard_id)
            infeasible += len(_pass_times(shard.log, infeasible_only=True))
        h.floats(rounds)
        h.floats(draws)
        h.floats([allocator.max_committed_w, allocator.summaries_dropped,
                  allocator.leases_sent, allocator.leases_dropped])
        excess = allocator.max_committed_w - budget
        overcommit = excess if excess > CHAOS_COMMIT_TOL_W else 0.0
        failed = sum(1 for c in rounds if c > budget + CHAOS_COMMIT_TOL_W)
        # Before the first leases land the fleet runs unconstrained; once
        # the faults have healed, the simulated draw itself must sit under
        # the budget (the program's output, not the allocator's ledger).
        healed = [w for t, w in draws if t > CHAOS_HEAL_S]
        worst_draw = max(healed) if healed else math.inf
        modelled = _cpu_totals(cluster.machines, CHAOS_HORIZON_S)
        modelled.update({
            "overcommit_w": (overcommit, "W"),
            "infeasible_passes": (float(infeasible), "count"),
        })
        invariants = {
            "committed_within_budget": (
                overcommit == 0.0,
                f"max_committed_w={allocator.max_committed_w:.1f} "
                f"budget_w={budget:.1f}"),
            "draw_within_budget_after_heal": (
                worst_draw <= budget,
                f"worst_draw_w={worst_draw:.1f} over {len(healed)} rounds "
                f"budget_w={budget:.1f}"),
            "every_shard_scheduled_after_heal": (
                not late, f"late_shards={late[:8]}"),
            "rebalances_ran": (len(rounds) >= CHAOS_HORIZON_S / 0.2 - 1,
                               f"rounds={len(rounds)}"),
        }
        return Outcome(modelled, invariants, attempted=len(rounds),
                       failed=failed, fingerprint=h.hexdigest())

    return Workload("fleet-chaos", sim, CHAOS_HORIZON_S, finish,
                    shape={"nodes": nodes, "shards": allocator.num_shards,
                           "budget_w": budget})


BY_NAME: dict[str, Callable[[int], Workload]] = {
    "p630-failover": build_p630_failover,
    "serving-flash": build_serving_flash,
    "fleet-chaos": build_fleet_chaos,
}
