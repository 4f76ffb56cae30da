"""The columnar control plane: batched predictors, ViewBatch, the
columnar log — and the equivalence of it all with the per-object
reference pass (:class:`ObjectPathCoordinator`, which builds one sample,
signature and view object per processor and records the log entry by
entry).
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorConfig
from repro.cluster.faults import fault_scenario
from repro.cluster.nested import NestedBudgetScheduler
from repro.cluster.protocol import NodeReport, ProcReport
from repro.core.hetero import HeterogeneousScheduler
from repro.core.logs import FvsstLog, ScheduleLogEntry
from repro.core.predictor import AlphaPredictor, CounterPredictor
from repro.core.scheduler import (
    FrequencyVoltageScheduler,
    ProcessorView,
    Schedule,
    ViewBatch,
)
from repro.errors import SchedulingError
from repro.model.ipc import WorkloadSignature
from repro.model.latency import POWER4_LATENCIES
from repro.power.table import POWER4_TABLE
from repro.sim.cluster import Cluster
from repro.sim.core import CoreConfig
from repro.sim.counters import CounterSample
from repro.sim.driver import Simulation
from repro.sim.machine import MachineConfig
from repro.telemetry import Telemetry
from repro.workloads.tiers import tiered_cluster_assignment


def quiet_cluster(nodes=2, procs=2, seed=0) -> Cluster:
    return Cluster.homogeneous(
        nodes,
        machine_config=MachineConfig(
            num_cores=procs,
            core_config=CoreConfig(latency_jitter_sigma=0.0),
        ),
        seed=seed,
    )


def random_window_arrays(n, seed=0):
    """Counter windows spanning the predictor's whole input space,
    degenerate rows included."""
    rng = np.random.default_rng(seed)
    instr = rng.uniform(1.0, 5e6, n)
    cycles = instr * rng.uniform(0.7, 3.0, n)
    n_l2 = rng.uniform(0.0, 3e4, n)
    n_l3 = rng.uniform(0.0, 1e4, n)
    n_mem = rng.uniform(0.0, 5e3, n)
    l1 = rng.uniform(0.0, 2e5, n)
    interval = rng.uniform(1e-3, 0.2, n)
    # Degenerate rows: below min_instructions, zero cycles (fully halted
    # window), zero/negative interval, and a heavy-memory row that trips
    # the core-CPI clamp.
    instr[0] = 999.0
    instr[1] = 0.0
    cycles[2] = 0.0
    interval[3] = 0.0
    interval[4] = -0.01
    n_mem[5] = 5e5
    cycles[5] = instr[5] * 0.8
    return instr, cycles, n_l2, n_l3, n_mem, l1, interval


class TestPredictorBatchEquivalence:
    """signatures_from_arrays is bit-equal to N scalar calls."""

    @pytest.mark.parametrize("make", [
        lambda: CounterPredictor(POWER4_LATENCIES),
        lambda: AlphaPredictor(POWER4_LATENCIES, alpha=0.8),
    ])
    def test_batch_matches_scalar_bitwise(self, make):
        predictor = make()
        cols = random_window_arrays(64, seed=3)
        has, core_cpi, mem_time = predictor.signatures_from_arrays(*cols)
        instr, cycles, n_l2, n_l3, n_mem, l1, interval = cols
        for i in range(64):
            sig = predictor.signature_from_sample(CounterSample(
                time_s=0.0, interval_s=interval[i],
                instructions=instr[i], cycles=cycles[i], n_l2=n_l2[i],
                n_l3=n_l3[i], n_mem=n_mem[i], l1_stall_cycles=l1[i],
                halted_cycles=0.0))
            if sig is None:
                assert not has[i]
                assert core_cpi[i] == 1.0 and mem_time[i] == 0.0
            else:
                assert has[i]
                # Bit-for-bit, not approx: the elementwise ops mirror the
                # scalar path exactly.
                assert core_cpi[i] == sig.core_cpi
                assert mem_time[i] == sig.mem_time_per_instr_s

    def test_counter_predictor_masks_degenerate_rows(self):
        predictor = CounterPredictor(POWER4_LATENCIES)
        cols = random_window_arrays(8, seed=1)
        has, _, _ = predictor.signatures_from_arrays(*cols)
        assert not has[0]   # below min_instructions
        assert not has[1]   # zero instructions
        assert not has[2]   # zero cycles
        assert not has[3]   # zero interval
        assert not has[4]   # negative interval

    def test_alpha_predictor_ignores_cycles_and_interval(self):
        predictor = AlphaPredictor(POWER4_LATENCIES, alpha=0.8)
        cols = random_window_arrays(8, seed=1)
        has, _, _ = predictor.signatures_from_arrays(*cols)
        assert not has[0] and not has[1]     # instruction floor still holds
        assert has[2] and has[3] and has[4]  # alpha needs no observation

    def test_core_cpi_clamp_applies_in_batch(self):
        predictor = CounterPredictor(POWER4_LATENCIES)
        cols = random_window_arrays(8, seed=1)
        has, core_cpi, _ = predictor.signatures_from_arrays(*cols)
        assert has[5] and core_cpi[5] == 0.05


def _views(n, seed=0):
    rng = np.random.default_rng(seed)
    views = []
    for i in range(n):
        roll = rng.uniform()
        if roll < 0.1:
            sig = None
        else:
            sig = WorkloadSignature(
                core_cpi=float(rng.uniform(0.5, 2.0)),
                mem_time_per_instr_s=float(rng.uniform(0.0, 2e-9)))
        views.append(ProcessorView(node_id=i // 4, proc_id=i % 4,
                                   signature=sig,
                                   idle_signaled=bool(roll > 0.9)))
    return views


class TestViewBatch:
    def test_round_trip_and_sequence_protocol(self):
        views = _views(16, seed=2)
        batch = ViewBatch.from_views(views)
        assert len(batch) == 16
        assert list(batch) == views
        assert batch[3] == views[3]

    def test_materialises_equal_views_from_columns(self):
        views = _views(16, seed=2)
        adapter = ViewBatch.from_views(views)
        rebuilt = ViewBatch(adapter.node_ids, adapter.proc_ids,
                            adapter.has_signature, adapter.core_cpi,
                            adapter.mem_time_per_instr_s,
                            adapter.idle_signaled)
        assert rebuilt.views() == views

    def test_column_shape_mismatch_rejected(self):
        with pytest.raises(SchedulingError):
            ViewBatch([0, 0], [0], [True], [1.0], [0.0])

    @pytest.mark.parametrize("limit", [None, 300.0])
    def test_schedule_identical_to_view_list(self, limit):
        views = _views(32, seed=4)
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        assert sched.schedule(views, limit) == \
            sched.schedule(ViewBatch.from_views(views), limit)

    def test_schedule_nested_is_schedule_with_node_limits(self):
        rng = np.random.default_rng(8)
        sched = NestedBudgetScheduler(POWER4_TABLE)
        for seed in range(20):
            views = _views(int(rng.integers(2, 33)), seed=seed)
            nodes = sorted({v.node_id for v in views})
            node_limits = {n: float(rng.uniform(15.0, 120.0))
                           for n in nodes if rng.uniform() < 0.5}
            limit = None if rng.uniform() < 0.3 else \
                float(rng.uniform(20.0, 60.0 * len(views)))
            floors = None if rng.uniform() < 0.5 else \
                {nodes[0]: POWER4_TABLE.freqs_hz[2]}
            assert sched.schedule_nested(
                views, limit, node_limits, min_freqs_hz=floors) == \
                sched.schedule(views, limit, node_limits_w=node_limits,
                               min_freqs_hz=floors)

    def test_schedule_nested_identical_to_view_list(self):
        views = _views(32, seed=5)
        sched = NestedBudgetScheduler(POWER4_TABLE)
        a = sched.schedule_nested(views, 280.0, {1: 70.0, 3: 60.0})
        b = sched.schedule_nested(ViewBatch.from_views(views), 280.0,
                                  {1: 70.0, 3: 60.0})
        assert a == b

    def test_heterogeneous_scheduler_accepts_batch(self):
        views = _views(16, seed=6)
        rng = np.random.default_rng(1)
        sched = HeterogeneousScheduler.from_scales(
            POWER4_TABLE,
            {(v.node_id, v.proc_id): float(rng.uniform(0.9, 1.2))
             for v in views})
        assert sched.schedule(views, 120.0) == \
            sched.schedule(ViewBatch.from_views(views), 120.0)

    def test_duplicate_keys_rejected_through_batch(self):
        views = [ProcessorView(0, 0, None), ProcessorView(0, 0, None)]
        sched = FrequencyVoltageScheduler(POWER4_TABLE)
        with pytest.raises(SchedulingError):
            sched.schedule(ViewBatch.from_views(views))


def reference_views(predictor, reports):
    """The per-object reference for the coordinator's view batch: one
    ``CounterSample``, one ``signature_from_sample`` call and one
    ``ProcessorView`` per processor."""
    views: list[ProcessorView] = []
    for report in reports:
        for proc in sorted(report.procs, key=lambda p: p.proc_id):
            if proc.interval_s <= 0.0:
                # A pass that fires before the first agent sample (the
                # t = 0 tick, or a T == t event-ordering tie) carries
                # an empty window: no usable signature, and nothing
                # the predictor should divide by.
                views.append(ProcessorView(
                    node_id=report.node_id,
                    proc_id=proc.proc_id,
                    signature=None,
                    idle_signaled=proc.idle_signaled,
                ))
                continue
            sample = CounterSample(
                time_s=report.time_s,
                interval_s=proc.interval_s,
                instructions=proc.instructions,
                cycles=proc.cycles,
                n_l2=proc.n_l2,
                n_l3=proc.n_l3,
                n_mem=proc.n_mem,
                l1_stall_cycles=proc.l1_stall_cycles,
                halted_cycles=proc.halted_cycles,
            )
            views.append(ProcessorView(
                node_id=report.node_id,
                proc_id=proc.proc_id,
                signature=predictor.signature_from_sample(sample),
                idle_signaled=proc.idle_signaled,
            ))
    return views


class ObjectPathCoordinator(ClusterCoordinator):
    """The per-object reference pass: views from :func:`reference_views`
    (the scheduler converts them to columns, as it does any view list),
    and the log recorded one :class:`ScheduleLogEntry` at a time."""

    def _view_batch_from_reports(self, reports):
        return ViewBatch.from_views(reference_views(self.predictor, reports))

    def _record(self, schedule, now_s, *, pass_wall_s=None):
        for a in schedule.assignments:
            self.log.record_schedule(ScheduleLogEntry(
                time_s=now_s,
                node_id=a.node_id,
                proc_id=a.proc_id,
                freq_hz=a.freq_hz,
                eps_freq_hz=a.eps_freq_hz,
                voltage=a.voltage,
                power_w=a.power_w,
                predicted_loss=a.predicted_loss,
                predicted_ipc=None,
                power_limit_w=self.power_limit_w,
                infeasible=schedule.infeasible,
                pass_wall_s=pass_wall_s,
            ))


def _comparable_entries(log):
    """Schedule entries with the wall-clock field (the one legitimately
    nondeterministic value) zeroed."""
    return [dataclasses.replace(e, pass_wall_s=None)
            for e in log.schedule_entries]


def _comparable_metrics(telemetry):
    """Metric snapshot minus the wall-clock histograms (the only
    nondeterministic values between two otherwise identical runs)."""
    snap = telemetry.snapshot()["metrics"]
    return {name: value for name, value in snap.items()
            if "pass_seconds" not in name}


def _run_pair(config_kwargs, *, scenario=None, seconds=0.55, limit_w=330.0,
              node_limit=(1, 80.0), workloads=True):
    """Run the coordinator and the object-path oracle over identical
    clusters (same seeds, same faults, same triggers); return both."""
    out = []
    for coordinator in (ClusterCoordinator, ObjectPathCoordinator):
        cluster = quiet_cluster(nodes=3, procs=2, seed=11)
        if workloads:
            cluster.assign_all(tiered_cluster_assignment(
                3, 2, web_nodes=1, app_nodes=1))
        telemetry = Telemetry()
        faults = fault_scenario(scenario, seed=13) if scenario else None
        coord = coordinator(
            cluster,
            CoordinatorConfig(power_limit_w=limit_w,
                              counter_noise_sigma=0.0, **config_kwargs),
            telemetry=telemetry, faults=faults, seed=21)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(seconds)
        coord.set_power_limit(limit_w * 0.8, sim.now_s)
        sim.run_for(0.15)
        if node_limit is not None:
            coord.set_node_limit(*node_limit, sim.now_s)
            sim.run_for(0.15)
        out.append((cluster, coord, telemetry))
    return out


class TestCoordinatorColumnarEquivalence:
    """The acceptance gate: schedules, logs, and telemetry counters are
    bit-identical between the coordinator and the object-path oracle,
    fault-free and degraded."""

    @pytest.mark.parametrize("scenario", [None, "lossy", "crash"])
    def test_paths_bit_identical(self, scenario):
        (cl_a, co_a, tel_a), (cl_b, co_b, tel_b) = _run_pair(
            {}, scenario=scenario)
        assert co_a.last_schedule == co_b.last_schedule
        assert _comparable_entries(co_a.log) == _comparable_entries(co_b.log)
        for node in range(3):
            assert cl_a.nodes[node].machine.frequency_vector_hz() == \
                cl_b.nodes[node].machine.frequency_vector_hz()
        assert _comparable_metrics(tel_a) == _comparable_metrics(tel_b)
        assert (co_a.reports_dropped, co_a.stale_passes,
                co_a.floor_scheduled_procs) == \
            (co_b.reports_dropped, co_b.stale_passes,
             co_b.floor_scheduled_procs)

    def test_alpha_predictor_paths_identical(self):
        # AlphaPredictor ignores interval_s, so the coordinator must mask
        # empty windows itself (the t = 0 pass would otherwise get
        # signatures the object path never builds).
        results = []
        for coordinator in (ClusterCoordinator, ObjectPathCoordinator):
            cluster = quiet_cluster(nodes=2, procs=2, seed=3)
            coord = coordinator(
                cluster,
                CoordinatorConfig(counter_noise_sigma=0.0),
                predictor=AlphaPredictor(POWER4_LATENCIES, alpha=0.8),
                seed=9)
            sim = Simulation(cluster.machines)
            coord.attach(sim)
            coord.run_global_pass(0.0)   # empty windows: interval_s == 0
            sim.run_for(0.25)
            results.append(_comparable_entries(coord.log))
        assert results[0] == results[1]

    def test_batchless_predictor_falls_back(self):
        class ScalarOnly:
            def __init__(self):
                self.inner = CounterPredictor(POWER4_LATENCIES)

            def signature_from_sample(self, sample):
                return self.inner.signature_from_sample(sample)

        # Evaluated per sample into the same batch: identical to the
        # object-path oracle, the empty t = 0 windows included.
        results = []
        for coordinator in (ClusterCoordinator, ObjectPathCoordinator):
            cluster = quiet_cluster(nodes=2, procs=2, seed=3)
            coord = coordinator(
                cluster, CoordinatorConfig(counter_noise_sigma=0.0),
                predictor=ScalarOnly(), seed=9)
            sim = Simulation(cluster.machines)
            coord.attach(sim)
            coord.run_global_pass(0.0)
            sim.run_for(0.25)
            assert coord.last_schedule is not None
            results.append((coord.last_schedule,
                            _comparable_entries(coord.log)))
        assert results[0] == results[1]


class TestPowerSeriesDedup:
    """Satellite: a trigger pass at the same instant as a periodic pass
    must supersede it in power_series, not add to it."""

    def _entry(self, t, node, proc, power):
        return ScheduleLogEntry(
            time_s=t, node_id=node, proc_id=proc, freq_hz=1e9,
            eps_freq_hz=1e9, voltage=1.1, power_w=power,
            predicted_loss=0.0, predicted_ipc=None, power_limit_w=None,
            infeasible=False)

    def test_same_instant_pass_supersedes(self):
        log = FvsstLog()
        # Periodic pass at t=1.0 ...
        log.record_schedule(self._entry(1.0, 0, 0, 20.0))
        log.record_schedule(self._entry(1.0, 0, 1, 22.0))
        # ... then a set_power_limit trigger pass at the same instant.
        log.record_schedule(self._entry(1.0, 0, 0, 10.0))
        log.record_schedule(self._entry(1.0, 0, 1, 11.0))
        times, power = log.power_series()
        assert times.tolist() == [1.0]
        # Pre-fix this summed both passes to 63 W.
        assert power.tolist() == [21.0]

    def test_distinct_procs_still_sum(self):
        log = FvsstLog()
        log.record_schedule(self._entry(1.0, 0, 0, 20.0))
        log.record_schedule(self._entry(1.0, 1, 0, 30.0))
        log.record_schedule(self._entry(2.0, 0, 0, 25.0))
        times, power = log.power_series()
        assert times.tolist() == [1.0, 2.0]
        assert power.tolist() == [50.0, 25.0]

    def test_trigger_at_pass_time_via_coordinator(self):
        cluster = quiet_cluster(nodes=1, procs=2, seed=2)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=4)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        sim.run_for(0.2)
        now = sim.now_s
        coord.run_global_pass(now)          # "periodic" pass at now
        coord.set_power_limit(250.0, now)   # trigger pass, same instant
        times, power = coord.log.power_series()
        at_now = power[np.flatnonzero(times == now)]
        limited = coord.last_schedule.total_power_w
        assert at_now.tolist() == [limited]


class TestDispatchGrouping:
    def test_out_of_order_assignments_still_sorted_per_node(self):
        cluster = quiet_cluster(nodes=1, procs=2, seed=7)
        coord = ClusterCoordinator(
            cluster, CoordinatorConfig(counter_noise_sigma=0.0), seed=8)
        sim = Simulation(cluster.machines)
        coord.attach(sim)
        table = coord.scheduler.table
        f_lo, f_hi = table.freqs_hz[0], table.freqs_hz[-1]
        mk = coord.scheduler.voltages.min_voltage
        # Hand-built schedule with proc 1 before proc 0.
        assignments = (
            ProcessorAssignmentFor(1, f_lo, mk(0, 1, f_lo), table),
            ProcessorAssignmentFor(0, f_hi, mk(0, 0, f_hi), table),
        )
        schedule = Schedule(assignments=assignments, total_power_w=0.0,
                            power_limit_w=None, epsilon=0.1)
        coord._dispatch(schedule, sim.now_s)
        sim.run_for(0.01)
        machine = cluster.nodes[0].machine
        assert machine.frequency_vector_hz() == [f_hi, f_lo]


def ProcessorAssignmentFor(proc_id, freq_hz, voltage, table):
    from repro.core.scheduler import ProcessorAssignment
    return ProcessorAssignment(
        node_id=0, proc_id=proc_id, freq_hz=freq_hz, voltage=voltage,
        power_w=table.power_at(freq_hz), predicted_loss=0.0,
        eps_freq_hz=freq_hz)


def synthetic_reports(nodes, procs, seed=0):
    rng = np.random.default_rng(seed)
    reports = []
    for n in range(nodes):
        prs = []
        for p in range(procs):
            instr = float(rng.uniform(5e5, 5e6))
            prs.append(ProcReport(
                proc_id=p, instructions=instr,
                cycles=instr * float(rng.uniform(0.8, 2.5)),
                n_l2=float(rng.uniform(0.0, 2e4)),
                n_l3=float(rng.uniform(0.0, 8e3)),
                n_mem=float(rng.uniform(0.0, 4e3)),
                l1_stall_cycles=float(rng.uniform(0.0, 1e5)),
                halted_cycles=0.0, interval_s=0.1, idle_signaled=False))
        reports.append(NodeReport(node_id=n, time_s=0.1, procs=tuple(prs)))
    return reports


def _pass_core(coord, reports, now_s):
    """The pass hot path under measurement: views from reports, the
    schedule, and the log record (collect and dispatch are identical
    between the coordinator and the oracle and excluded)."""
    if isinstance(coord, ObjectPathCoordinator):
        views = reference_views(coord.predictor, reports)
    else:
        views = coord._view_batch_from_reports(reports)
    schedule = coord.scheduler.schedule(views, coord.power_limit_w,
                                        on_infeasible="floor")
    coord._record(schedule, now_s)
    return schedule


class TestClusterPassSpeedup:
    """Acceptance: the columnar pass is >= 5x the object-path oracle at
    64x4."""

    def test_bench_cluster_pass_64_nodes(self):
        # No global limit: step 2's heap reduction is identical shared
        # code either way (pinned by the equivalence suite above); the
        # ratio measures the columnarised data path — views from reports,
        # the matrix pass, assembly, and the log record.
        reports = synthetic_reports(64, 4, seed=17)
        cluster = quiet_cluster(nodes=1, procs=1, seed=1)
        coords = {
            columnar: coordinator(
                cluster, CoordinatorConfig(power_limit_w=None), seed=2)
            for columnar, coordinator in (
                (True, ClusterCoordinator), (False, ObjectPathCoordinator))
        }

        # Same decision either way (the equivalence half of the gate).
        sched_cols = _pass_core(coords[True], reports, 0.1)
        sched_objs = _pass_core(coords[False], reports, 0.1)
        assert sched_cols == sched_objs
        assert _comparable_entries(coords[True].log) == \
            _comparable_entries(coords[False].log)

        def one_round(coord, inner=3):
            coord.log = FvsstLog()   # keep record cost flat
            t0 = time.perf_counter()
            for _ in range(inner):
                _pass_core(coord, reports, 0.1)
            return (time.perf_counter() - t0) / inner

        for coord in coords.values():   # warm caches on both paths
            one_round(coord)
            one_round(coord)
        # Best of 7 each, the two paths alternating round by round so a
        # drift in host speed cannot land on one side only.
        columnar_s = object_s = float("inf")
        for _ in range(7):
            columnar_s = min(columnar_s, one_round(coords[True]))
            object_s = min(object_s, one_round(coords[False]))
        speedup = object_s / columnar_s
        assert speedup >= 5.0, (
            f"columnar pass {columnar_s * 1e6:.0f} us vs object "
            f"{object_s * 1e6:.0f} us: only {speedup:.1f}x"
        )
